//! Crash-safe sweep integration tests.
//!
//! Covers the sweep durability contract end to end with the same
//! machinery the figure harnesses use: per-cell isolation (a panicking or
//! deadlocked cell never poisons siblings), deterministic bounded retries
//! with quarantine, and the resumable JSONL run journal — including that a
//! `--resume` from a truncated journal reproduces byte-identical canonical
//! stats while re-executing only the missing or quarantined cells, and
//! that a resumed quarantined cell continues its attempt count.

use mcgpu_sim::{DeadlockSnapshot, SimError};
use mcgpu_trace::{profiles, TraceParams};
use mcgpu_types::LlcOrgKind;
use proptest::prelude::*;
use sac_bench::journal::{cell_config_desc, fnv1a_64};
use sac_bench::sweep::{self, CellError, MAX_ATTEMPTS};
use sac_bench::{
    cell_config_hash, experiment_config, run_benchmark, run_profiles, Journal, JournalRecord,
    RecordOutcome, SweepOptions,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sac-crash-safe-{name}-{}.jsonl",
        std::process::id()
    ))
}

fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = f();
    std::panic::set_hook(hook);
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property: whatever subset of cells is injected to fail — by panic
    /// or by a typed deadlock — every healthy sibling completes with its
    /// correct result, and every injected cell is quarantined with the
    /// matching typed error.
    #[test]
    fn injected_failures_never_poison_siblings(
        faults in proptest::collection::vec(0u8..3, 1..24),
    ) {
        let cells: Vec<(usize, u8)> = faults.iter().copied().enumerate().collect();
        let outcomes = quiet_panics(|| {
            sweep::map_isolated(cells, |&(i, fault), _attempt| match fault {
                0 => Ok(i * 10),
                1 => panic!("injected panic in cell {i}"),
                _ => Err(CellError::Sim(SimError::Deadlock {
                    cycle: 1_000,
                    window: 100,
                    snapshot: Box::new(DeadlockSnapshot::default()),
                })),
            })
        });
        prop_assert_eq!(outcomes.len(), faults.len());
        for (i, (fault, out)) in faults.iter().zip(&outcomes).enumerate() {
            match fault {
                0 => {
                    prop_assert_eq!(out.result.as_ref().ok(), Some(&(i * 10)));
                    prop_assert_eq!(out.attempts, 1);
                }
                1 => {
                    // Panics are bugs: quarantined on the first attempt.
                    prop_assert_eq!(out.attempts, 1);
                    prop_assert!(matches!(&out.result, Err(CellError::Panic { message })
                        if *message == format!("injected panic in cell {i}")));
                }
                _ => {
                    // Deadlocks are budget trips: retried with escalating
                    // budgets, then quarantined.
                    prop_assert_eq!(out.attempts, MAX_ATTEMPTS);
                    prop_assert!(matches!(
                        &out.result,
                        Err(CellError::Sim(SimError::Deadlock { .. }))
                    ));
                }
            }
        }
    }
}

/// A journaled sweep with an injected panicking cell: siblings complete,
/// the failure lands in the journal as a typed record, and a resume
/// re-executes only the failed cell.
#[test]
fn resume_reruns_only_the_failed_cell() {
    let path = tmp_path("rerun-failed");
    let cells: Vec<&str> = vec!["a", "b", "c", "d"];
    let executions = AtomicUsize::new(0);
    let run_pass = |journal_path: &PathBuf, create: bool, panic_on: Option<&str>| {
        let mut journal = if create {
            Journal::create(journal_path).unwrap()
        } else {
            Journal::open(journal_path).unwrap()
        };
        // Same replay-or-run-then-record sequence `run_profiles` uses,
        // serial so the journal handle needs no lock.
        for cell in &cells {
            let hash = sac_bench::journal::fnv1a_64(cell.as_bytes());
            if let Some(r) = journal.lookup(cell, hash) {
                if matches!(r.outcome, RecordOutcome::Completed { .. }) {
                    continue;
                }
            }
            executions.fetch_add(1, Ordering::Relaxed);
            let out = quiet_panics(|| {
                sweep::run_cell(|_| {
                    if Some(*cell) == panic_on {
                        panic!("injected panic in {cell}");
                    }
                    Ok(format!("stats for {cell}"))
                })
            });
            let outcome = match &out.result {
                Ok(s) => RecordOutcome::Completed {
                    stats_json: s.clone(),
                },
                Err(e) => RecordOutcome::Quarantined {
                    kind: e.kind().to_string(),
                    error: e.to_string(),
                },
            };
            journal
                .append(JournalRecord {
                    cell: cell.to_string(),
                    config_hash: hash,
                    config: Some(cell.to_string()),
                    mode: None,
                    attempts: out.attempts,
                    outcome,
                })
                .unwrap();
        }
    };

    // First pass: cell "c" panics; the other three complete and are
    // journaled alongside the typed failure record.
    run_pass(&path, true, Some("c"));
    assert_eq!(executions.load(Ordering::Relaxed), 4);
    let j = Journal::open(&path).unwrap();
    assert_eq!(j.records().len(), 4, "every cell outcome is journaled");
    let failed = j
        .lookup("c", sac_bench::journal::fnv1a_64(b"c"))
        .expect("failure recorded");
    assert_eq!(
        failed.outcome,
        RecordOutcome::Quarantined {
            kind: "panic".to_string(),
            error: "cell panicked: injected panic in c".to_string(),
        }
    );

    // Resume: only the quarantined cell re-executes, and its new completed
    // record supersedes the quarantine.
    executions.store(0, Ordering::Relaxed);
    run_pass(&path, false, None);
    assert_eq!(
        executions.load(Ordering::Relaxed),
        1,
        "resume re-executes only the failed cell"
    );
    let j = Journal::open(&path).unwrap();
    assert_eq!(
        j.lookup("c", sac_bench::journal::fnv1a_64(b"c"))
            .unwrap()
            .outcome,
        RecordOutcome::Completed {
            stats_json: "stats for c".to_string(),
        }
    );
    std::fs::remove_file(&path).unwrap();
}

/// Interrupt-and-resume at the `run_profiles` level: truncating the
/// journal (as a mid-run SIGKILL would) and resuming yields canonical
/// stats byte-identical to the uninterrupted run's.
#[test]
fn resume_from_truncated_journal_is_byte_identical() {
    let cfg = sac_bench::experiment_config();
    let params = TraceParams {
        total_accesses: 8_000,
        ..TraceParams::quick()
    };
    let profs = vec![profiles::by_name("SN").unwrap()];
    let orgs = [LlcOrgKind::MemorySide, LlcOrgKind::Sac];
    let path = tmp_path("truncated-resume");

    let fresh = run_profiles(
        &cfg,
        &profs,
        &params,
        &orgs,
        &SweepOptions {
            journal: Some(path.clone()),
            ..SweepOptions::none()
        },
    )
    .unwrap();
    let reference: Vec<String> = orgs
        .iter()
        .map(|&o| fresh[0].stats(o).to_canonical_json())
        .collect();

    // Simulate a kill mid-run twice over: drop the second record entirely,
    // and tear the remaining line in half.
    let text = std::fs::read_to_string(&path).unwrap();
    let first_line_len = text.lines().next().unwrap().len();
    std::fs::write(&path, &text[..first_line_len + 1 + first_line_len / 2]).unwrap();
    assert_eq!(
        Journal::open(&path).unwrap().records().len(),
        1,
        "torn tail is dropped, intact prefix survives"
    );

    let resumed = run_profiles(
        &cfg,
        &profs,
        &params,
        &orgs,
        &SweepOptions {
            resume: Some(path.clone()),
            ..SweepOptions::none()
        },
    )
    .unwrap();
    for (i, &org) in orgs.iter().enumerate() {
        assert_eq!(
            resumed[0].stats(org).to_canonical_json(),
            reference[i],
            "{}: resumed stats must be byte-identical",
            org.label()
        );
    }
    // The re-run cell was journaled again; the replayed one was not.
    assert_eq!(Journal::open(&path).unwrap().records().len(), 2);

    // A stale config hash must force a re-run rather than replaying stats
    // from a different experiment.
    let mut other = cfg.clone();
    other.watchdog_cycles += 1;
    assert_ne!(
        cell_config_hash(&cfg, &params, "SN", LlcOrgKind::Sac),
        cell_config_hash(&other, &params, "SN", LlcOrgKind::Sac)
    );
    std::fs::remove_file(&path).unwrap();
}

/// A `--resume` of a quarantined cell continues the journaled
/// attempt/backoff sequence instead of restarting it from zero, and the
/// escalated retry computes the same statistics as a fresh run.
#[test]
fn resume_continues_attempt_counts_for_quarantined_cells() {
    let cfg = experiment_config();
    let p = profiles::by_name("SN").unwrap();
    let orgk = LlcOrgKind::MemorySide;
    let params = TraceParams {
        total_accesses: 12_000,
        ..TraceParams::quick()
    };
    let fresh = run_benchmark(&cfg, &p, &params, &[orgk], &SweepOptions::none()).unwrap();

    // Seed a journal that says this cell was quarantined after 2 attempts
    // (as an interrupted earlier sweep would have recorded).
    let jpath = tmp_path("attempts");
    let name = format!("{}/{}", p.name, orgk.label());
    let desc = cell_config_desc(&cfg, &params, p.name, orgk);
    let hash = fnv1a_64(desc.as_bytes());
    let mut j = Journal::create(&jpath).unwrap();
    j.append(JournalRecord {
        cell: name.clone(),
        config_hash: hash,
        config: Some(desc),
        mode: None,
        attempts: 2,
        outcome: RecordOutcome::Quarantined {
            kind: "deadlock".to_string(),
            error: "seeded by test".to_string(),
        },
    })
    .unwrap();
    drop(j);

    let opts = SweepOptions {
        resume: Some(jpath.clone()),
        ..SweepOptions::none()
    };
    let resumed = run_benchmark(&cfg, &p, &params, &[orgk], &opts).unwrap();
    // The watchdog window only decides when to abort, never what a
    // completing run computes, so the escalated retry stays identical.
    assert_eq!(
        resumed.stats(orgk).to_canonical_json(),
        fresh.stats(orgk).to_canonical_json()
    );
    let back = Journal::open(&jpath).unwrap();
    let rec = back.lookup(&name, hash).expect("the retry was journaled");
    assert!(matches!(rec.outcome, RecordOutcome::Completed { .. }));
    assert_eq!(
        rec.attempts, 3,
        "2 journaled attempts + 1 fresh attempt: escalation resumed, not reset"
    );
    std::fs::remove_file(&jpath).unwrap();
}
