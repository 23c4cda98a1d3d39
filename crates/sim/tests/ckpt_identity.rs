//! Checkpoint/restore correctness: a run interrupted at an arbitrary
//! cycle, snapshotted and resumed in a freshly built simulator must be
//! **byte-identical** to the uninterrupted run — statistics and
//! observability reports alike — across organizations and fault plans.
//! The loader must reject (never panic on) torn, truncated or
//! mismatched snapshots.

use mcgpu_sim::{SimBuilder, SimError, Simulator};
use mcgpu_trace::{generate, profiles, TraceParams, Workload};
use mcgpu_types::ckpt::{read_snapshot, write_snapshot, CkptError};
use mcgpu_types::fault::{FaultEvent, FaultKind, FaultPlan};
use mcgpu_types::{ChipId, LlcOrgKind, MachineConfig, ObsConfig, TopologyKind};
use proptest::prelude::*;

fn workload(cfg: &MachineConfig, bench: &str, accesses: usize) -> Workload {
    let params = TraceParams {
        total_accesses: accesses,
        ..TraceParams::quick()
    };
    generate(cfg, &profiles::by_name(bench).unwrap(), &params)
}

/// A fault plan that degrades (not partitions) the machine, so runs
/// still complete: one link loses half its lanes, one DRAM channel dies.
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
                chip: ChipId(2),
                channel: 0,
            },
        },
    ])
}

fn builder(cfg: &MachineConfig, org: LlcOrgKind, plan: &FaultPlan) -> SimBuilder {
    SimBuilder::new(cfg.clone())
        .organization(org)
        .fault_plan(plan.clone())
        .observability(ObsConfig::trace())
}

fn build(cfg: &MachineConfig, org: LlcOrgKind, plan: &FaultPlan) -> Simulator {
    builder(cfg, org, plan)
        .build()
        .expect("valid machine configuration")
}

/// Run to completion; return `(stats json, obs json)`.
fn run_straight(
    cfg: &MachineConfig,
    org: LlcOrgKind,
    plan: &FaultPlan,
    wl: &Workload,
) -> (String, String) {
    let mut sim = build(cfg, org, plan);
    let stats = sim.run(wl).expect("straight run completes");
    let obs = sim.take_obs_report().expect("observability was on");
    (stats.to_canonical_json(), obs.to_canonical_json())
}

/// Interrupt a run at `cut` cycles via the cycle budget, snapshot the
/// stopped machine, restore into a fresh simulator and run the rest.
/// Returns `None` when the run finished before `cut` (nothing to
/// resume).
fn run_interrupted(
    cfg: &MachineConfig,
    org: LlcOrgKind,
    plan: &FaultPlan,
    wl: &Workload,
    cut: u64,
) -> Option<(String, String)> {
    let mut victim = builder(cfg, org, plan)
        .max_cycles(cut)
        .build()
        .expect("valid machine configuration");
    match victim.run(wl) {
        Err(SimError::CycleLimit { .. }) => {}
        Ok(_) => return None,
        Err(e) => panic!("unexpected abort at cut {cut}: {e}"),
    }
    let payload = victim.checkpoint(wl);
    drop(victim);

    let mut resumed = build(cfg, org, plan);
    resumed.restore(&payload, wl).expect("snapshot restores");
    assert_eq!(resumed.cycle(), cut, "restore lands on the snapshot cycle");
    let stats = resumed.run(wl).expect("resumed run completes");
    let obs = resumed.take_obs_report().expect("observability was on");
    Some((stats.to_canonical_json(), obs.to_canonical_json()))
}

#[test]
fn restore_is_byte_identical_across_all_organizations() {
    let cfg = MachineConfig::experiment_baseline();
    let wl = workload(&cfg, "CFD", 60_000);
    let plan = FaultPlan::none();
    for org in LlcOrgKind::ALL {
        let straight = run_straight(&cfg, org, &plan, &wl);
        let resumed = run_interrupted(&cfg, org, &plan, &wl, 2_500)
            .unwrap_or_else(|| panic!("{org}: run finished before the cut"));
        assert_eq!(straight.0, resumed.0, "{org}: RunStats diverged");
        assert_eq!(straight.1, resumed.1, "{org}: obs report diverged");
    }
}

#[test]
fn restore_is_byte_identical_under_fault_injection() {
    let cfg = MachineConfig::experiment_baseline();
    let wl = workload(&cfg, "SN", 60_000);
    // Cut *between* the two fault events: the first is already applied
    // (and its cursor advanced), the second must still fire on resume.
    let plan = degrading_plan(2_000);
    let straight = run_straight(&cfg, LlcOrgKind::Sac, &plan, &wl);
    let resumed = run_interrupted(&cfg, LlcOrgKind::Sac, &plan, &wl, 3_000)
        .expect("run finished before the cut");
    assert_eq!(straight.0, resumed.0, "RunStats diverged");
    assert_eq!(straight.1, resumed.1, "obs report diverged");
}

/// Multi-hop fabric with a failed link: on an 8-chip ring SN keeps
/// hundreds of packets waiting at intermediate chips, and the failure at
/// cycle 2,000 re-routes them the long way round. The cut at 3,000 lands
/// after the failure with that transit backlog in the snapshot, so the
/// restore must rebuild each chip's waiting packets in arrival order on
/// the re-routed slots.
#[test]
fn restore_is_byte_identical_on_an_8_chip_ring_after_a_link_failure() {
    let mut cfg = MachineConfig::experiment_baseline();
    cfg.chips = 8;
    cfg.topology = TopologyKind::Ring;
    let wl = workload(&cfg, "SN", 40_000);
    let plan = FaultPlan::new(vec![FaultEvent {
        cycle: 2_000,
        kind: FaultKind::LinkFail {
            a: ChipId(2),
            b: ChipId(3),
        },
    }]);
    let straight = run_straight(&cfg, LlcOrgKind::Sac, &plan, &wl);
    let resumed = run_interrupted(&cfg, LlcOrgKind::Sac, &plan, &wl, 3_000)
        .expect("run finished before the cut");
    assert_eq!(straight.0, resumed.0, "RunStats diverged");
    assert_eq!(straight.1, resumed.1, "obs report diverged");
}

/// Memory-side CFD fills cluster MSHR files — a stalled cluster then
/// only counts its repeated L1 miss each cycle — and leaves fetches
/// pending at the slices. A cut there must restore both line indexes from
/// the saved entry order and start with no stall memo. The restore goes
/// over a machine stopped later in the same run, with other clusters
/// stalled and other entries indexed, and must still re-save the snapshot
/// byte for byte, reach the uncut run's snapshot at the later cycle, and
/// finish with the uncut `RunStats`.
#[test]
fn restore_is_byte_identical_while_cluster_mshrs_are_full() {
    let cfg = MachineConfig::experiment_baseline();
    let wl = workload(&cfg, "CFD", 100_000);
    let plan = FaultPlan::none();
    let org = LlcOrgKind::MemorySide;
    let (cut, later) = (5_000, 6_500);
    let stop_at = |cycles| {
        let mut sim = builder(&cfg, org, &plan)
            .max_cycles(cycles)
            .build()
            .unwrap();
        assert!(matches!(sim.run(&wl), Err(SimError::CycleLimit { .. })));
        let full: Vec<usize> = sim
            .chips()
            .iter()
            .flat_map(|chip| &chip.clusters)
            .enumerate()
            .filter(|(_, cl)| cl.outstanding() == cfg.mshrs_per_cluster)
            .map(|(i, _)| i)
            .collect();
        let fetching = sim.chips().iter().flat_map(|chip| &chip.slices);
        assert!(
            !full.is_empty(),
            "no cluster's MSHR file is full at {cycles}"
        );
        assert!(
            fetching.clone().any(|s| !s.pending.is_empty()),
            "no slice has a fetch pending at {cycles}"
        );
        (sim, full)
    };

    let (victim, full_at_cut) = stop_at(cut);
    let payload = victim.checkpoint(&wl);
    drop(victim);
    let (mut resumed, full_later) = stop_at(later);
    assert!(
        full_later.iter().any(|i| !full_at_cut.contains(i)),
        "the later machine must have clusters stalled that the snapshot does not"
    );
    let uncut_later = resumed.checkpoint(&wl);

    resumed.restore(&payload, &wl).expect("snapshot restores");
    assert!(
        resumed.checkpoint(&wl) == payload,
        "re-saved snapshot differs"
    );
    assert!(matches!(resumed.run(&wl), Err(SimError::CycleLimit { .. })));
    assert!(
        resumed.checkpoint(&wl) == uncut_later,
        "snapshot at cycle {later} differs from the uncut run's"
    );

    let straight = run_straight(&cfg, org, &plan, &wl);
    let resumed = run_interrupted(&cfg, org, &plan, &wl, cut).expect("cut lands mid-run");
    assert_eq!(straight.0, resumed.0, "RunStats diverged");
    assert_eq!(straight.1, resumed.1, "obs report diverged");
}

#[test]
fn double_interruption_still_matches_the_straight_run() {
    let cfg = MachineConfig::experiment_baseline();
    let wl = workload(&cfg, "CFD", 60_000);
    let plan = FaultPlan::none();
    let org = LlcOrgKind::Sac;
    let straight = run_straight(&cfg, org, &plan, &wl);

    let mut victim = builder(&cfg, org, &plan).max_cycles(1_500).build().unwrap();
    assert!(matches!(victim.run(&wl), Err(SimError::CycleLimit { .. })));
    let first = victim.checkpoint(&wl);

    let mut second_victim = builder(&cfg, org, &plan).max_cycles(4_000).build().unwrap();
    second_victim.restore(&first, &wl).unwrap();
    assert!(matches!(
        second_victim.run(&wl),
        Err(SimError::CycleLimit { .. })
    ));
    let second = second_victim.checkpoint(&wl);

    let mut resumed = build(&cfg, org, &plan);
    resumed.restore(&second, &wl).unwrap();
    let stats = resumed.run(&wl).expect("resumed run completes");
    let obs = resumed.take_obs_report().unwrap();
    assert_eq!(straight.0, stats.to_canonical_json());
    assert_eq!(straight.1, obs.to_canonical_json());
}

#[test]
fn checkpoint_bytes_are_deterministic() {
    let cfg = MachineConfig::experiment_baseline();
    let wl = workload(&cfg, "RN", 40_000);
    let plan = FaultPlan::none();
    let mut victim = builder(&cfg, LlcOrgKind::Dynamic, &plan)
        .max_cycles(2_000)
        .build()
        .unwrap();
    let _ = victim.run(&wl);
    let a = victim.checkpoint(&wl);
    let b = victim.checkpoint(&wl);
    assert_eq!(a, b, "checkpointing must be read-only and deterministic");

    // A restored machine re-snapshots to the same bytes: restore is
    // lossless.
    let mut resumed = build(&cfg, LlcOrgKind::Dynamic, &plan);
    resumed.restore(&a, &wl).unwrap();
    assert_eq!(a, resumed.checkpoint(&wl), "restore round-trip drifted");
}

#[test]
fn restore_rejects_wrong_workload_config_and_organization() {
    let cfg = MachineConfig::experiment_baseline();
    let wl = workload(&cfg, "CFD", 40_000);
    let plan = FaultPlan::none();
    let mut victim = builder(&cfg, LlcOrgKind::MemorySide, &plan)
        .max_cycles(2_000)
        .build()
        .unwrap();
    let _ = victim.run(&wl);
    let payload = victim.checkpoint(&wl);

    // Different workload → fingerprint mismatch.
    let other_wl = workload(&cfg, "SN", 40_000);
    let err = build(&cfg, LlcOrgKind::MemorySide, &plan)
        .restore(&payload, &other_wl)
        .unwrap_err();
    assert!(
        matches!(err, CkptError::FingerprintMismatch { .. }),
        "got {err}"
    );

    // Different machine configuration → fingerprint mismatch.
    let mut small = cfg.clone();
    small.chips = 2;
    let small_wl = workload(&small, "CFD", 40_000);
    let err = build(&small, LlcOrgKind::MemorySide, &plan)
        .restore(&payload, &small_wl)
        .unwrap_err();
    assert!(
        matches!(err, CkptError::FingerprintMismatch { .. }),
        "got {err}"
    );

    // Different inter-chip topology, same chip count → fingerprint
    // mismatch: a ring snapshot must never restore into a mesh machine
    // (the caller falls back to a full re-run instead).
    let mut mesh = cfg.clone();
    mesh.topology = mcgpu_types::TopologyKind::Mesh2D;
    let mesh_wl = workload(&mesh, "CFD", 40_000);
    let err = build(&mesh, LlcOrgKind::MemorySide, &plan)
        .restore(&payload, &mesh_wl)
        .unwrap_err();
    assert!(
        matches!(err, CkptError::FingerprintMismatch { .. }),
        "got {err}"
    );

    // Same config + workload, different organization → decode error
    // naming the organization mismatch.
    let err = build(&cfg, LlcOrgKind::Sac, &plan)
        .restore(&payload, &wl)
        .unwrap_err();
    assert!(
        matches!(&err, CkptError::Decode(d) if d.contains("organization")),
        "got {err}"
    );

    // Observability mismatch (snapshot recorded, simulator off).
    let err = SimBuilder::new(cfg.clone())
        .organization(LlcOrgKind::MemorySide)
        .build()
        .unwrap()
        .restore(&payload, &wl)
        .unwrap_err();
    assert!(
        matches!(&err, CkptError::Decode(d) if d.contains("observability")),
        "got {err}"
    );
}

#[test]
fn snapshot_files_round_trip_and_reject_torn_writes() {
    let cfg = MachineConfig::experiment_baseline();
    let wl = workload(&cfg, "SN", 40_000);
    let plan = FaultPlan::none();
    let mut victim = builder(&cfg, LlcOrgKind::SmSide, &plan)
        .max_cycles(2_000)
        .build()
        .unwrap();
    let _ = victim.run(&wl);

    let dir = std::env::temp_dir().join(format!("mcgpu-ckpt-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cell.ckpt");
    victim
        .write_checkpoint(&path, &wl)
        .expect("snapshot writes");

    let mut resumed = build(&cfg, LlcOrgKind::SmSide, &plan);
    resumed
        .restore_from_file(&path, &wl)
        .expect("file restores");
    assert_eq!(resumed.cycle(), victim.cycle());

    // A truncated file (torn write) is rejected, not misparsed.
    let full = std::fs::read(&path).unwrap();
    let torn = dir.join("torn.ckpt");
    std::fs::write(&torn, &full[..full.len() - 9]).unwrap();
    assert!(read_snapshot(&torn).is_err(), "torn file accepted");

    // A corrupted byte anywhere fails the checksum.
    let mut flipped = full.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    let bad = dir.join("bad.ckpt");
    std::fs::write(&bad, &flipped).unwrap();
    assert!(read_snapshot(&bad).is_err(), "corrupt file accepted");

    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole property: interrupt anywhere, under any organization,
    /// with or without fault injection — the resumed run is byte-identical.
    #[test]
    fn interrupted_runs_resume_byte_identically(
        org_idx in 0usize..LlcOrgKind::ALL.len(),
        cut in 600u64..6_000,
        with_faults in any::<bool>(),
        bench_idx in 0usize..3,
    ) {
        let cfg = MachineConfig::experiment_baseline();
        let bench = ["CFD", "SN", "RN"][bench_idx];
        let wl = workload(&cfg, bench, 50_000);
        let org = LlcOrgKind::ALL[org_idx];
        let plan = if with_faults {
            degrading_plan(cut / 2)
        } else {
            FaultPlan::none()
        };
        if let Some(resumed) = run_interrupted(&cfg, org, &plan, &wl, cut) {
            let straight = run_straight(&cfg, org, &plan, &wl);
            prop_assert_eq!(straight.0, resumed.0, "RunStats diverged");
            prop_assert_eq!(straight.1, resumed.1, "obs report diverged");
        }
    }

    /// Loader fuzz: truncating or corrupting a framed snapshot anywhere
    /// yields a typed error, never a panic or a successful restore.
    #[test]
    fn mangled_snapshots_are_rejected_not_misparsed(
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let cfg = MachineConfig::experiment_baseline();
        let wl = workload(&cfg, "SN", 30_000);
        let plan = FaultPlan::none();
        let mut victim = builder(&cfg, LlcOrgKind::Sac, &plan)
            .max_cycles(1_200)
            .build()
            .unwrap();
        let _ = victim.run(&wl);
        let payload = victim.checkpoint(&wl);

        let dir = std::env::temp_dir()
            .join(format!("mcgpu-ckpt-fuzz-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.ckpt");
        write_snapshot(&path, &payload).unwrap();
        let full = std::fs::read(&path).unwrap();

        // Truncation at an arbitrary byte boundary.
        let cut = ((full.len() as f64 * cut_frac) as usize).min(full.len() - 1);
        std::fs::write(&path, &full[..cut]).unwrap();
        prop_assert!(read_snapshot(&path).is_err());

        // Single-bit corruption at an arbitrary offset.
        let mut bad = full.clone();
        let at = ((bad.len() as f64 * flip_frac) as usize).min(bad.len() - 1);
        bad[at] ^= 1 << flip_bit;
        std::fs::write(&path, &bad).unwrap();
        let restored = read_snapshot(&path)
            .and_then(|p| build(&cfg, LlcOrgKind::Sac, &plan).restore(&p, &wl));
        prop_assert!(restored.is_err(), "corrupted snapshot accepted");

        std::fs::remove_dir_all(&dir).ok();
    }
}
