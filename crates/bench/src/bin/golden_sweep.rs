//! Journaled sweep over the golden-stats suite, for the CI kill/resume
//! job and for manual crash-recovery drills.
//!
//! ```text
//! golden_sweep (--journal PATH | --resume PATH) [--out DIR]
//!              [--stall-ms N] [--jobs N]
//! ```
//!
//! Runs the 8 golden cases (shared with `tests/golden.rs`) as isolated,
//! journaled sweep cells and writes each case's canonical stats JSON to
//! `DIR/<name>.json` (default `results/golden_sweep/`). `--stall-ms N`
//! sleeps N ms at the start of each non-replayed cell so a test harness
//! can reliably SIGKILL the process mid-sweep; the stall only delays
//! execution and cannot change any result. After a kill, re-running with
//! `--resume` on the same journal replays the finished cells byte-
//! identically and executes only the rest, so the final output directory
//! diffs clean against `tests/golden/`. A killed cell re-runs from cycle
//! 0; each golden cell takes well under a second.

use sac_bench::golden::{suite, Case};
use sac_bench::{sweep, CellOutcome, Journal, JournalRecord, RecordOutcome, SweepOptions};
use std::path::PathBuf;
use std::sync::Mutex;

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let opts = SweepOptions::from_args();
    let out_dir =
        PathBuf::from(arg_value("--out").unwrap_or_else(|| "results/golden_sweep".to_string()));
    let stall = std::time::Duration::from_millis(
        arg_value("--stall-ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
    );

    let journal: Mutex<Journal> = match (&opts.resume, &opts.journal) {
        (Some(path), _) => Mutex::new(
            Journal::open(path)
                .unwrap_or_else(|e| panic!("cannot open journal {}: {e}", path.display())),
        ),
        (None, Some(path)) => Mutex::new(
            Journal::create(path)
                .unwrap_or_else(|e| panic!("cannot create journal {}: {e}", path.display())),
        ),
        (None, None) => {
            eprintln!("usage: golden_sweep (--journal PATH | --resume PATH) [--out DIR]");
            std::process::exit(2);
        }
    };
    {
        let j = journal.lock().expect("journal lock");
        eprintln!(
            "golden sweep: 8 cells on {} thread(s), journal {} ({} recorded)",
            sweep::jobs(),
            j.path().display(),
            j.records().len()
        );
    }

    let outcomes: Vec<(&'static str, CellOutcome<String>)> = sweep::map(suite(), |c: Case| {
        let hash = c.config_hash();
        let desc = c.config_desc();
        let replayed = journal
            .lock()
            .expect("journal lock")
            .lookup_verified(c.name, hash, &desc)
            .and_then(|r| match &r.outcome {
                RecordOutcome::Completed { stats_json } => Some(stats_json.clone()),
                RecordOutcome::Quarantined { .. } => None,
            });
        if let Some(json) = replayed {
            eprintln!("  replayed {}", c.name);
            return (
                c.name,
                CellOutcome {
                    attempts: 0,
                    result: Ok(json),
                },
            );
        }
        if !stall.is_zero() {
            std::thread::sleep(stall);
        }
        let out = sweep::run_cell(|_attempt| c.try_run());
        let outcome = match &out.result {
            Ok(json) => RecordOutcome::Completed {
                stats_json: json.clone(),
            },
            Err(e) => RecordOutcome::Quarantined {
                kind: e.kind().to_string(),
                error: e.to_string(),
            },
        };
        journal
            .lock()
            .expect("journal lock")
            .append(JournalRecord {
                cell: c.name.to_string(),
                config_hash: hash,
                config: Some(desc),
                mode: None,
                attempts: out.attempts,
                outcome,
            })
            .expect("write run journal");
        match &out.result {
            Ok(_) => eprintln!("  finished {}", c.name),
            Err(e) => eprintln!("  QUARANTINED {}: {e}", c.name),
        }
        (c.name, out)
    });

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let mut failed = 0usize;
    for (name, out) in &outcomes {
        match &out.result {
            Ok(json) => {
                std::fs::write(out_dir.join(format!("{name}.json")), json)
                    .expect("write stats file");
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        eprintln!(
            "{failed} of {} cells quarantined; re-run with --resume {} to retry them",
            outcomes.len(),
            journal.lock().expect("journal lock").path().display()
        );
        std::process::exit(1);
    }
    eprintln!(
        "all {} cells written to {}",
        outcomes.len(),
        out_dir.display()
    );
}
