//! Property test pinning the `CellError` taxonomy across the journal
//! boundary: every variant's machine-readable `kind()` string must
//! serialize into a quarantined journal record, reload from disk
//! unchanged, and map through [`TAXONOMY`] to exactly the retry decision
//! the in-memory error (`CellError::retryable`) would make. The kind
//! strings are the journal's wire format: a `--resume` that reads one
//! back must never flip a retry decision — a budget trip stays
//! retryable, a bug stays permanent.

use mcgpu_sim::{ConservationReport, DeadlockSnapshot, SimError};
use proptest::prelude::*;
use sac_bench::sweep::CellError;
use sac_bench::{Journal, JournalRecord, RecordOutcome};
use std::path::PathBuf;

/// Every `kind()` string and its `retryable()` value, one row per variant.
const TAXONOMY: [(&str, bool); 6] = [
    ("panic", false),
    ("cycle-limit", true),
    ("deadlock", true),
    ("invariant-violation", false),
    ("config", false),
    ("checkpoint", false),
];

/// Every taxonomy variant, with arbitrary payloads where they exist.
fn cell_error_strategy() -> impl Strategy<Value = CellError> {
    prop_oneof![
        any::<u64>().prop_map(|n| CellError::Panic {
            // Exercise the escaping path: quotes, newlines, backslashes.
            message: format!("boom #{n}: \"quoted\"\n\\tail"),
        }),
        any::<u64>().prop_map(|limit| CellError::Sim(SimError::CycleLimit { limit })),
        (any::<u64>(), any::<u64>()).prop_map(|(cycle, window)| {
            CellError::Sim(SimError::Deadlock {
                cycle,
                window,
                snapshot: Box::<DeadlockSnapshot>::default(),
            })
        }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(cycle, in_flight, accounted)| {
            CellError::Sim(SimError::InvariantViolation {
                cycle,
                report: Box::new(ConservationReport {
                    in_flight,
                    accounted,
                    ..ConservationReport::default()
                }),
            })
        }),
        any::<u64>().prop_map(|n| {
            CellError::Sim(SimError::Config(mcgpu_types::ConfigError::new(format!(
                "rejected input {n}"
            ))))
        }),
        any::<u64>().prop_map(|n| CellError::Sim(SimError::Checkpoint {
            detail: format!("writing \"/state/cell-{n}.ckpt\":\n\\torn"),
        })),
    ]
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sac-cell-error-roundtrip-{tag}-{}.jsonl",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// kind → journal → disk → reload → [`TAXONOMY`] is the identity on
    /// the retry decision, and the kind string itself survives verbatim.
    #[test]
    fn taxonomy_round_trips_through_the_journal(
        err in cell_error_strategy(),
        attempts in 1u32..=5,
        case in 0u64..1_000_000,
    ) {
        let kind = err.kind();
        let message = err.to_string();

        let path = tmp_path(&format!("{case}"));
        let mut j = Journal::create(&path).unwrap();
        j.append(JournalRecord {
            cell: "PROP/cell".to_string(),
            config_hash: case,
            config: Some(format!("prop-desc-{case}")),
            mode: None,
            attempts,
            outcome: RecordOutcome::Quarantined {
                kind: kind.to_string(),
                error: message.clone(),
            },
        })
        .unwrap();

        let back = Journal::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let rec = back
            .lookup_verified("PROP/cell", case, &format!("prop-desc-{case}"))
            .expect("record survives reload");
        prop_assert_eq!(rec.attempts, attempts);
        let RecordOutcome::Quarantined { kind: k2, error: e2 } = &rec.outcome else {
            panic!("outcome class changed across the journal");
        };
        // The wire strings survive byte-for-byte...
        prop_assert_eq!(k2.as_str(), kind);
        prop_assert_eq!(e2.as_str(), message.as_str());
        // ...and the reloaded kind re-classifies to the same retry
        // decision the original error object carried.
        let row = TAXONOMY.iter().find(|&&(k, _)| k == k2.as_str());
        prop_assert_eq!(row.map(|&(_, r)| r), Some(err.retryable()));
    }
}

/// The taxonomy is closed: each variant, in table order, emits its row's
/// kind and retry decision, and the six kind strings are distinct.
#[test]
fn every_emitted_kind_is_classified_and_vice_versa() {
    let one_of_each = [
        CellError::Panic {
            message: "x".into(),
        },
        CellError::Sim(SimError::CycleLimit { limit: 1 }),
        CellError::Sim(SimError::Deadlock {
            cycle: 2,
            window: 1,
            snapshot: Box::<DeadlockSnapshot>::default(),
        }),
        CellError::Sim(SimError::InvariantViolation {
            cycle: 3,
            report: Box::<ConservationReport>::default(),
        }),
        CellError::Sim(SimError::Config(mcgpu_types::ConfigError::new("bad"))),
        CellError::Sim(SimError::Checkpoint {
            detail: "torn".into(),
        }),
    ];
    assert_eq!(one_of_each.len(), TAXONOMY.len());
    for (err, &(kind, retryable)) in one_of_each.iter().zip(&TAXONOMY) {
        assert_eq!(err.kind(), kind);
        assert_eq!(err.retryable(), retryable, "{kind}");
    }
    let mut kinds: Vec<&str> = TAXONOMY.iter().map(|&(k, _)| k).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), TAXONOMY.len(), "kind strings must be distinct");
}
