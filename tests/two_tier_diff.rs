//! Differential proof of the two-tier engine's skip contract.
//!
//! Idle-cycle skipping (`--skip-idle`) is a speed knob, not a model change:
//! a skipping run must produce **byte-identical** canonical `RunStats` JSON
//! to the cycle-by-cycle run on every configuration — every organization,
//! coherence protocol, topology, chip count and fault plan — including runs
//! that end in a watchdog deadlock. This suite samples that space with proptest and pins
//! the committed golden snapshots on top.
//!
//! There is deliberately **no** `UPDATE_GOLDEN` path here: if skip-on
//! output drifts from skip-off output, the skip engine is wrong, and no
//! snapshot regeneration can make it right.

use mcgpu_sim::{SimBuilder, SimError, Simulator};
use mcgpu_trace::{generate, profiles, TraceParams, Workload};
use mcgpu_types::fault::{FaultEvent, FaultKind, FaultPlan};
use mcgpu_types::{ChipId, CoherenceKind, EngineMode, LlcOrgKind, MachineConfig, TopologyKind};
use proptest::prelude::*;
use std::path::PathBuf;

fn workload(cfg: &MachineConfig, bench: &str, accesses: usize) -> Workload {
    let params = TraceParams {
        total_accesses: accesses,
        ..TraceParams::quick()
    };
    generate(cfg, &profiles::by_name(bench).unwrap(), &params)
}

fn build(cfg: &MachineConfig, org: LlcOrgKind, plan: &FaultPlan, skip: bool) -> Simulator {
    SimBuilder::new(cfg.clone())
        .organization(org)
        .fault_plan(plan.clone())
        .skip_idle(skip)
        .build()
        .expect("valid machine configuration")
}

/// A degrading (never partitioning) plan the skip scan must step around:
/// one link loses half its lanes, then one DRAM channel dies.
fn degrading_plan(at: u64) -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent {
            cycle: at,
            kind: FaultKind::LinkDegrade {
                a: ChipId(0),
                b: ChipId(1),
                factor: 0.5,
            },
        },
        FaultEvent {
            cycle: at * 2,
            kind: FaultKind::DramFail {
                chip: ChipId(1),
                channel: 0,
            },
        },
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The core differential property: for a random cell — organization ×
    /// coherence × topology × chip count × fault plan × benchmark — the
    /// skipping engine's canonical JSON equals the stepping engine's, byte
    /// for byte.
    #[test]
    fn skip_on_matches_skip_off_across_the_config_space(
        org_idx in 0usize..LlcOrgKind::ALL.len(),
        bench_idx in 0usize..16,
        hw_coherence in any::<bool>(),
        topo_idx in 0usize..TopologyKind::ALL.len(),
        chips_pick in 0usize..3,
        with_faults in any::<bool>(),
    ) {
        let mut cfg = MachineConfig::experiment_baseline();
        cfg.coherence = if hw_coherence {
            CoherenceKind::Hardware
        } else {
            CoherenceKind::Software
        };
        cfg.topology = TopologyKind::ALL[topo_idx];
        cfg.chips = [2, 4, 8][chips_pick];
        // The vendored proptest has no prop_assume: silently pass on the
        // few invalid corners (e.g. a mesh that needs a square chip grid).
        if cfg.validate().is_err() {
            return;
        }
        let plan = if with_faults {
            degrading_plan(1_500)
        } else {
            FaultPlan::none()
        };
        if plan.validate(&cfg).is_err() {
            return;
        }

        let org = LlcOrgKind::ALL[org_idx];
        let bench = profiles::all_profiles()[bench_idx].name;
        let wl = workload(&cfg, bench, 8_000);

        let stepped = build(&cfg, org, &plan, false)
            .run(&wl)
            .expect("stepping run completes")
            .to_canonical_json();
        let mut sim = build(&cfg, org, &plan, true);
        let skipped = sim.run(&wl).expect("skipping run completes").to_canonical_json();
        prop_assert_eq!(&stepped, &skipped, "skip-idle changed the statistics");
    }
}

/// The committed golden snapshots hold with skipping enabled — zero
/// regeneration. This is the acceptance gate: a skip-engine bug that
/// changes any of the eight fixed cases fails here against the bytes
/// already in the repository.
#[test]
fn golden_snapshots_byte_identical_with_skip_idle() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden");
    let mut failures = Vec::new();
    for case in sac_bench::golden::suite() {
        let cfg = case.config();
        let wl = generate(
            &cfg,
            &profiles::by_name(case.bench).unwrap(),
            &sac_bench::golden::Case::params(),
        );
        let json = sac_bench::try_run_cell(&cfg, &wl, case.org, EngineMode::Cycle, true)
            .expect("golden case completes")
            .to_canonical_json();
        let committed = std::fs::read_to_string(dir.join(format!("{}.json", case.name)))
            .expect("committed snapshot exists");
        if json != committed {
            failures.push(case.name);
        }
    }
    assert!(
        failures.is_empty(),
        "skip-idle drifted from the committed snapshots: {failures:?} \
         (fix the skip engine; do NOT regenerate the snapshots)"
    );
}

/// On a sparse phase the skip engine must actually skip — otherwise the
/// differential suite would be vacuously comparing two identical stepping
/// engines — and the statistics must still match exactly.
#[test]
fn sparse_phases_skip_nonzero_cycles_and_match() {
    let cfg = MachineConfig::experiment_baseline();
    // No Table 4 profile has a compute gap above 1 cycle, so build a
    // deliberately sparse variant: long compute bursts between memory
    // instructions leave the memory system idle for thousands of cycles.
    let mut profile = profiles::by_name("SN").unwrap();
    for k in &mut profile.kernels {
        k.compute_gap = 4_000;
    }
    let params = TraceParams {
        total_accesses: 2_000,
        ..TraceParams::quick()
    };
    let wl = generate(&cfg, &profile, &params);

    let stepped = build(&cfg, LlcOrgKind::Sac, &FaultPlan::none(), false)
        .run(&wl)
        .expect("stepping run completes")
        .to_canonical_json();
    let mut sim = build(&cfg, LlcOrgKind::Sac, &FaultPlan::none(), true);
    let skipped = sim.run(&wl).expect("skipping run completes");
    assert!(
        sim.skipped_cycles() > 0,
        "a sparse phase must engage the skip engine"
    );
    assert!(sim.skip_jumps() > 0);
    assert_eq!(
        stepped,
        skipped.to_canonical_json(),
        "sparse-phase skip changed the statistics"
    );
}

/// Watchdog regression: a genuinely wedged machine (two opposite ring
/// links failed, partitioning the fabric) must report `SimError::Deadlock`
/// at exactly the same cycle with skipping on — the skip scan folds the
/// watchdog deadline in, so it may never jump past it.
#[test]
fn deadlock_fires_at_the_same_cycle_with_skip_on() {
    let cfg = MachineConfig::experiment_baseline();
    let wl = workload(&cfg, "SN", 20_000);
    let partition = FaultPlan::new(vec![
        FaultEvent {
            cycle: 2_000,
            kind: FaultKind::LinkFail {
                a: ChipId(0),
                b: ChipId(1),
            },
        },
        FaultEvent {
            cycle: 2_000,
            kind: FaultKind::LinkFail {
                a: ChipId(2),
                b: ChipId(3),
            },
        },
    ]);
    let window = 25_000;
    let run = |skip: bool| {
        let err = SimBuilder::new(cfg.clone())
            .organization(LlcOrgKind::MemorySide)
            .fault_plan(partition.clone())
            .watchdog_window(window)
            .skip_idle(skip)
            .build()
            .expect("valid machine configuration")
            .run(&wl)
            .expect_err("a partitioned ring must deadlock");
        match err {
            SimError::Deadlock {
                cycle, window: w, ..
            } => {
                assert_eq!(w, window);
                cycle
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    };
    let stepped_cycle = run(false);
    let skipped_cycle = run(true);
    assert_eq!(
        stepped_cycle, skipped_cycle,
        "skip-idle moved the watchdog deadlock cycle"
    );
}
