//! The benchmark's workloads and the passes that run them.
//!
//! A workload is a batch of cells (benchmark × LLC organization) on one
//! machine shape. A pass sets the batch up — trace generation, then
//! `SimBuilder::build` for every cell — and then hands the cells to the
//! sweep workers in a closed loop: each worker takes the next cell when its
//! current one finishes. Every cell starts with empty caches.

use crate::spans::{Span, Tracer};
use mcgpu_sim::{ObsReport, RunStats, SimBuilder, Simulator};
use mcgpu_trace::{generate, profiles, TraceParams, Workload};
use mcgpu_types::{CoherenceKind, LlcOrgKind, MachineConfig, ObsConfig, TopologyKind};
use sac_bench::sweep;
use std::sync::Arc;
use std::time::Instant;

/// Simulated cycles between `run_observed` callbacks in the traced run.
pub const EPOCH_CYCLES: u64 = 256;

/// One workload: a machine shape and its cells.
pub struct Spec {
    pub name: &'static str,
    pub chips: usize,
    pub topology: TopologyKind,
    pub coherence: CoherenceKind,
    pub benches: &'static [&'static str],
    pub orgs: &'static [LlcOrgKind],
    /// Trace volume per benchmark (machine-wide accesses).
    pub accesses: usize,
}

use LlcOrgKind::{MemorySide, Sac, SmSide};

/// The workloads; `README.md` gives the reason for each.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "paper4",
        chips: 4,
        topology: TopologyKind::Ring,
        coherence: CoherenceKind::Software,
        benches: &["SN", "CFD", "BFS", "SRAD"],
        orgs: &LlcOrgKind::ALL,
        accesses: 600_000,
    },
    Spec {
        name: "ring8",
        chips: 8,
        topology: TopologyKind::Ring,
        coherence: CoherenceKind::Software,
        benches: &["SN"],
        orgs: &[MemorySide, Sac],
        accesses: 100_000,
    },
    Spec {
        name: "full8-hwcoh",
        chips: 8,
        topology: TopologyKind::FullyConnected,
        coherence: CoherenceKind::Hardware,
        benches: &["SRAD", "GEMM", "BFS"],
        orgs: &[SmSide, Sac],
        accesses: 600_000,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|s| s.name == name)
    }

    /// The scaled experiment machine with this workload's chip count,
    /// fabric and coherence (per-link bandwidth held constant).
    pub fn config(&self) -> MachineConfig {
        let mut cfg = MachineConfig::experiment_baseline();
        cfg.chips = self.chips;
        cfg.topology = self.topology;
        cfg.coherence = self.coherence;
        cfg
    }

    pub fn params(&self, seed: u64) -> TraceParams {
        TraceParams {
            total_accesses: self.accesses,
            seed,
            ..TraceParams::standard()
        }
    }

    /// Cells in sweep order: benchmark-major, organizations in spec order.
    pub fn cells(&self) -> Vec<Cell> {
        (0..self.benches.len())
            .flat_map(|bench| self.orgs.iter().map(move |&org| Cell { bench, org }))
            .collect()
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Index into the workload's benchmarks (and generated traces).
    pub bench: usize,
    pub org: LlcOrgKind,
}

/// Where a traced pass hangs its spans.
#[derive(Clone, Copy)]
pub struct Trace<'a> {
    pub tracer: &'a Tracer,
    pub parent: u64,
}

/// A set-up batch: one trace per benchmark and one built simulator per cell.
pub struct Batch {
    pub traces: Vec<Arc<Workload>>,
    pub sims: Vec<Simulator>,
    pub setup_s: f64,
}

/// Generate every trace, then build every cell's simulator, both on the
/// sweep workers.
pub fn setup(
    spec: &Spec,
    cells: &[Cell],
    seed: u64,
    obs: ObsConfig,
    trace: Option<Trace<'_>>,
) -> Result<Batch, String> {
    let cfg = spec.config();
    let params = spec.params(seed);
    let start = Instant::now();
    let lane = trace.map(|t| (t.tracer.open(), t));
    let traces = sweep::map((0..spec.benches.len()).collect(), |b| {
        let t0 = Instant::now();
        let profile =
            profiles::by_name(spec.benches[b]).expect("workload benchmarks are known profiles");
        let wl = Arc::new(generate(&cfg, &profile, &params));
        if let Some((parent, t)) = lane {
            t.tracer.push(t.tracer.span(
                t.tracer.open(),
                parent,
                "trace.generate",
                Some(b),
                t0,
                Instant::now(),
            ));
        }
        wl
    });
    let sims = sweep::map(cells.iter().copied().enumerate().collect(), |(i, c)| {
        let t0 = Instant::now();
        let sim = SimBuilder::new(cfg.clone())
            .organization(c.org)
            .observability(obs)
            .build();
        if let Some((parent, t)) = lane {
            t.tracer.push(t.tracer.span(
                t.tracer.open(),
                parent,
                "sim.build",
                Some(i),
                t0,
                Instant::now(),
            ));
        }
        sim
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()
    .map_err(|e| format!("{}: machine rejected: {e}", spec.name))?;
    let end = Instant::now();
    if let Some((id, t)) = lane {
        t.tracer.push(Span {
            lanes: sweep::jobs() as u64,
            ..t.tracer.span(id, t.parent, "bench.setup", None, start, end)
        });
    }
    Ok(Batch {
        traces,
        sims,
        setup_s: end.duration_since(start).as_secs_f64(),
    })
}

/// One cell's outcome in one pass.
pub struct CellRun {
    pub stats: Result<RunStats, String>,
    pub secs: f64,
    /// Host ns per simulated cycle of each `run_observed` epoch (traced
    /// passes only).
    pub epoch_ns_per_cycle: Vec<f64>,
    pub obs: Option<ObsReport>,
}

/// Run every cell of a set-up batch on the sweep workers. Returns the
/// cells in input order and the pass's wall seconds.
pub fn run(
    batch: Batch,
    cells: &[Cell],
    span_name: &'static str,
    trace: Option<Trace<'_>>,
) -> (Vec<CellRun>, f64) {
    let traces = batch.traces;
    let items: Vec<(usize, Simulator)> = batch.sims.into_iter().enumerate().collect();
    let sweep_span = trace.map(|t| (t.tracer.open(), t));
    let start = Instant::now();
    let runs = sweep::map(items, |(i, mut sim)| {
        let wl = &traces[cells[i].bench];
        let t0 = Instant::now();
        let Some((sweep_id, t)) = sweep_span else {
            let stats = sim.run(wl).map_err(|e| e.to_string());
            return CellRun {
                stats,
                secs: t0.elapsed().as_secs_f64(),
                epoch_ns_per_cycle: Vec::new(),
                obs: None,
            };
        };
        let run_id = t.tracer.open();
        let mut epochs = Vec::new();
        let mut prev = t0;
        let stats = sim
            .run_observed(wl, EPOCH_CYCLES, |_, _, _| {
                let now = Instant::now();
                epochs.push(t.tracer.span(0, run_id, "sim.epoch", Some(i), prev, now));
                prev = now;
            })
            .map_err(|e| e.to_string());
        let end = Instant::now();
        let epoch_ns_per_cycle = epochs
            .iter()
            .map(|s| s.dur_ns() as f64 / EPOCH_CYCLES as f64)
            .collect();
        for s in &mut epochs {
            s.id = t.tracer.open();
        }
        epochs.push(t.tracer.span(run_id, sweep_id, "sim.run", Some(i), t0, end));
        t.tracer.extend(epochs);
        CellRun {
            stats,
            secs: end.duration_since(t0).as_secs_f64(),
            epoch_ns_per_cycle,
            obs: sim.take_obs_report(),
        }
    });
    let end = Instant::now();
    if let Some((id, t)) = sweep_span {
        t.tracer.push(Span {
            lanes: sweep::jobs() as u64,
            ..t.tracer.span(id, t.parent, span_name, None, start, end)
        });
    }
    (runs, end.duration_since(start).as_secs_f64())
}
