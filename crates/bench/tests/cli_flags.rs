//! Command-line rejection tests: a malformed numeric flag, a malformed
//! `MCGPU_WATCHDOG_CYCLES`, or a flag of the removed mid-cell
//! checkpointing makes the binaries exit with status 2 before any
//! simulation starts, instead of running with a default.

use std::process::{Command, Output};

fn sacsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sacsim"))
        .args(args)
        .env_remove("MCGPU_WATCHDOG_CYCLES")
        .output()
        .expect("run sacsim")
}

/// Exit status 2, nothing on stdout, the sweep never started, and stderr
/// names `needle`.
fn assert_rejected(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "printed results before rejecting");
    assert!(!stderr.contains("sweep:"), "a simulation started: {stderr}");
    assert!(stderr.contains(needle), "stderr lacks `{needle}`: {stderr}");
}

#[test]
fn malformed_numeric_flags_exit_2() {
    for (flag, value) in [
        ("--accesses", "abc"),
        ("--accesses", "-5"),
        ("--input-scale", "big"),
        ("--watchdog-cycles", "1e3"),
        ("--obs-window", "wide"),
        ("--chips", "four"),
    ] {
        let out = sacsim(&[flag, value]);
        assert_rejected(&out, &format!("{flag} needs"));
        assert!(String::from_utf8_lossy(&out.stderr).contains(value));
    }
    // A flag given without its value is malformed too.
    assert_rejected(&sacsim(&["--accesses"]), "--accesses needs");
}

#[test]
fn malformed_watchdog_env_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_sacsim"))
        .env("MCGPU_WATCHDOG_CYCLES", "forever")
        .output()
        .expect("run sacsim");
    assert_rejected(&out, "MCGPU_WATCHDOG_CYCLES needs an unsigned integer");
}

#[test]
fn removed_checkpoint_flags_exit_2_and_point_to_the_journal() {
    for args in [
        &["--state-dir", "x"][..],
        &["--state-dir=x"],
        &["--checkpoint-interval", "4096"],
        &["--checkpoint", "run.ckpt"],
        &["--restore", "run.ckpt"],
        &["--gc-state"],
        &["--ckpt-cut", "2000"],
    ] {
        let out = sacsim(args);
        assert_rejected(&out, "--resume PATH");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(args[0].split('=').next().unwrap()),
            "{stderr}"
        );
    }
    let journal = std::env::temp_dir().join(format!("sac-cli-flags-{}.jsonl", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_golden_sweep"))
        .arg("--journal")
        .arg(&journal)
        .args(["--ckpt-cut", "2000"])
        .output()
        .expect("run golden_sweep");
    assert_rejected(&out, "--ckpt-cut was removed");
    assert!(
        !journal.exists(),
        "the journal was opened before the rejection"
    );
}
