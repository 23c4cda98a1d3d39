//! Shared experiment runner for the figure/table harness binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the index). They share this runner: a scaled
//! baseline machine, the 16 Table 4 workloads, and helpers that run a
//! workload under each LLC organization and aggregate the statistics the
//! figures report.
//!
//! Run the binaries in release mode — e.g.
//! `cargo run --release -p sac-bench --bin fig08_speedup` — and pass
//! `--quick` for a reduced-volume smoke run. Every binary fans its
//! simulation runs out over the [`sweep`] thread pool; `--jobs N` (or
//! `MCGPU_JOBS=N`) bounds the parallelism, and results are identical for
//! every thread count.
//!
//! # Crash safety and resume
//!
//! Each (benchmark × organization) cell runs in isolation: a panicking,
//! deadlocked or over-budget cell is retried with escalating budgets and,
//! if it keeps failing, quarantined with a typed [`sweep::CellError`] while
//! every sibling cell completes. Pass `--journal results/run.jsonl` to
//! record every finished cell in an append-only JSONL [`journal`], and
//! `--resume results/run.jsonl` after an interruption to replay completed
//! cells byte-identically and re-execute only missing or quarantined ones.

use mcgpu_sim::{ObsReport, RunStats, SimBuilder};
use mcgpu_trace::{generate, profiles, BenchmarkProfile, TraceParams, Workload};
use mcgpu_types::{EngineMode, LlcOrgKind, MachineConfig, ObsConfig};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

pub mod crossval;
pub mod fastmode;
pub mod figcheck;
pub mod figdata;
pub mod golden;
pub mod journal;
pub mod resilience;
pub mod state;
pub mod sweep;

pub use journal::{cell_config_desc, cell_config_hash, Journal, JournalRecord, RecordOutcome};
pub use mcgpu_sim::stats::harmonic_mean;
pub use sweep::{CellError, CellOutcome};

/// The scaled baseline machine every figure uses unless it sweeps a
/// parameter (see `ScaleFactor::EXPERIMENT` for what "scaled" preserves).
///
/// `MCGPU_WATCHDOG_CYCLES` overrides the forward-progress watchdog window
/// (validated by `MachineConfig::validate()` at build time; `u64::MAX`
/// disables the watchdog).
pub fn experiment_config() -> MachineConfig {
    let mut cfg = MachineConfig::experiment_baseline();
    if let Some(n) = std::env::var("MCGPU_WATCHDOG_CYCLES")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        cfg.watchdog_cycles = n;
    }
    cfg
}

/// Trace volume: standard for figures, reduced with `--quick`.
pub fn trace_params() -> TraceParams {
    if quick_mode() {
        TraceParams {
            total_accesses: 150_000,
            ..TraceParams::standard()
        }
    } else {
        TraceParams::standard()
    }
}

/// Whether `--quick` was passed on the command line.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Validate an `--mode` token against the engine-mode registry, exiting
/// with the registry-style diagnostic on an unknown token (mirrors the
/// binaries' `--org` validation).
pub fn parse_mode_or_exit(token: &str) -> EngineMode {
    EngineMode::from_token(token).unwrap_or_else(|| {
        eprintln!(
            "error: unknown engine mode `{token}`; known modes: {} (see --list-modes)",
            EngineMode::tokens().join(", ")
        );
        std::process::exit(2);
    })
}

/// Default mid-cell checkpoint cadence in simulated cycles; the engine
/// quantizes writes to its coarse checkpoint grid, so this is also the
/// finest cadence that costs nothing on the hot path.
pub const DEFAULT_CKPT_INTERVAL: u64 = 65_536;

/// Journal/resume options for a sweep, normally parsed from the command
/// line with [`SweepOptions::from_args`].
#[derive(Debug, Default)]
pub struct SweepOptions {
    /// Record finished cells to a fresh journal at this path.
    pub journal: Option<PathBuf>,
    /// Load this journal, replay its completed cells, re-run the rest, and
    /// keep recording to the same path. Takes precedence over `journal`.
    pub resume: Option<PathBuf>,
    /// Directory for mid-cell engine checkpoints. When set, every cell
    /// periodically snapshots its full simulator state here and a resumed
    /// (or crashed-and-restarted) sweep continues interrupted cells from
    /// their latest valid snapshot instead of from cycle 0; a missing,
    /// stale or corrupt snapshot silently falls back to a full re-run.
    /// `None` (the default) disables checkpointing entirely — no file is
    /// ever written and every output stays byte-identical.
    pub state_dir: Option<PathBuf>,
    /// Checkpoint cadence in cycles; `0` means [`DEFAULT_CKPT_INTERVAL`].
    /// Ignored unless `state_dir` is set.
    pub ckpt_interval: u64,
    /// How cells are evaluated: cycle-stepped simulation (the default) or
    /// the analytic fast estimator (see [`fastmode`]). Journal records are
    /// stamped with the mode, and a `--resume` in a different mode is
    /// refused rather than silently mixing fidelities.
    pub mode: EngineMode,
    /// Event-driven idle-cycle skipping for cycle-mode cells. Results are
    /// byte-identical either way (the engine's skip contract), so this is
    /// purely a speed knob and is *not* part of the journal cell identity.
    pub skip_idle: bool,
}

impl SweepOptions {
    /// No journaling (the default for tests and library callers).
    pub fn none() -> SweepOptions {
        SweepOptions::default()
    }

    /// Parse `--journal PATH` / `--resume PATH` / `--state-dir PATH` /
    /// `--checkpoint-interval N` (or `--flag=VALUE`) from the process
    /// arguments.
    pub fn from_args() -> SweepOptions {
        fn value(name: &str) -> Option<String> {
            let args: Vec<String> = std::env::args().collect();
            for (i, a) in args.iter().enumerate() {
                if a == name {
                    return args.get(i + 1).cloned();
                }
                if let Some(v) = a.strip_prefix(&format!("{name}=")) {
                    return Some(v.to_string());
                }
            }
            None
        }
        SweepOptions {
            journal: value("--journal").map(PathBuf::from),
            resume: value("--resume").map(PathBuf::from),
            state_dir: value("--state-dir").map(PathBuf::from),
            ckpt_interval: value("--checkpoint-interval")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
            mode: value("--mode").map_or(EngineMode::Cycle, |v| parse_mode_or_exit(&v)),
            skip_idle: std::env::args().any(|a| a == "--skip-idle"),
        }
    }

    /// The effective (state directory, checkpoint interval) pair, or
    /// `None` when mid-cell checkpointing is off.
    pub fn ckpt(&self) -> Option<(&Path, u64)> {
        self.state_dir.as_deref().map(|d| {
            (
                d,
                if self.ckpt_interval == 0 {
                    DEFAULT_CKPT_INTERVAL
                } else {
                    self.ckpt_interval
                },
            )
        })
    }

    /// Adapt for binaries that run *several* sweeps in sequence: a fresh
    /// `--journal` is truncated once, here, and then treated as a resume
    /// target so later sweeps append to it instead of truncating the
    /// records of earlier ones.
    pub fn sequential(self) -> SweepOptions {
        if let (Some(path), None) = (&self.journal, &self.resume) {
            Journal::create(path)
                .unwrap_or_else(|e| panic!("cannot create journal {}: {e}", path.display()));
            SweepOptions {
                journal: None,
                resume: Some(path.clone()),
                ..self
            }
        } else {
            self
        }
    }

    /// Open the journal these options describe, if any.
    ///
    /// Journal I/O failures abort the process: they are environment
    /// errors (full disk, bad path), not cell outcomes, and silently
    /// dropping durability would defeat the journal's purpose.
    fn open_journal(&self) -> Option<Mutex<Journal>> {
        if let Some(path) = &self.resume {
            let j = Journal::open(path)
                .unwrap_or_else(|e| panic!("cannot open journal {}: {e}", path.display()));
            eprintln!(
                "  resuming from {} ({} recorded cell(s))",
                path.display(),
                j.records().len()
            );
            Some(Mutex::new(j))
        } else if let Some(path) = &self.journal {
            let j = Journal::create(path)
                .unwrap_or_else(|e| panic!("cannot create journal {}: {e}", path.display()));
            Some(Mutex::new(j))
        } else {
            None
        }
    }
}

/// One quarantined cell of a failed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFailure {
    /// Cell name (`"BENCH/organization"`).
    pub cell: String,
    /// Attempts executed before giving up.
    pub attempts: u32,
    /// The final typed error.
    pub error: CellError,
}

/// A sweep finished with one or more quarantined cells. Every other cell
/// completed (and was journaled, if journaling was on); the error lists
/// exactly which cells need attention.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepFailure {
    /// Cells that completed successfully.
    pub completed: usize,
    /// Cells that exhausted their retries.
    pub quarantined: Vec<CellFailure>,
}

impl std::fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "sweep quarantined {} of {} cell(s):",
            self.quarantined.len(),
            self.completed + self.quarantined.len()
        )?;
        for q in &self.quarantined {
            writeln!(
                f,
                "  {} [{}] after {} attempt(s): {}",
                q.cell,
                q.error.kind(),
                q.attempts,
                q.error
            )?;
        }
        write!(
            f,
            "re-run with --resume <journal> to retry only the quarantined cells"
        )
    }
}

impl std::error::Error for SweepFailure {}

/// Unwrap a sweep result in a binary: print the quarantine report and exit
/// non-zero on failure.
pub fn exit_on_quarantine<T>(result: Result<T, SweepFailure>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

/// Collapse [`sweep::map_isolated`] outcomes in a binary: if any cell is
/// quarantined, print the full report (naming cell `i` via `name(i)`) and
/// exit non-zero; otherwise return the results in input order.
pub fn exit_on_cell_failures<R>(
    outcomes: Vec<CellOutcome<R>>,
    name: impl Fn(usize) -> String,
) -> Vec<R> {
    let quarantined: Vec<CellFailure> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| {
            o.result.as_ref().err().map(|e| CellFailure {
                cell: name(i),
                attempts: o.attempts,
                error: e.clone(),
            })
        })
        .collect();
    if !quarantined.is_empty() {
        eprintln!(
            "{}",
            SweepFailure {
                completed: outcomes.len() - quarantined.len(),
                quarantined,
            }
        );
        std::process::exit(1);
    }
    outcomes
        .into_iter()
        .map(|o| o.result.expect("quarantine handled above"))
        .collect()
}

/// Results of one benchmark under every requested organization.
pub struct BenchRows {
    /// The benchmark profile.
    pub profile: BenchmarkProfile,
    /// The generated workload (for trace-level analyses). Shared rather
    /// than owned so the sweep's parallel runs read one copy.
    pub workload: Arc<Workload>,
    /// `(organization, stats)` in the order requested.
    pub runs: Vec<(LlcOrgKind, RunStats)>,
}

impl BenchRows {
    /// Stats for one organization.
    ///
    /// # Panics
    /// Panics if the organization was not part of the run set.
    pub fn stats(&self, org: LlcOrgKind) -> &RunStats {
        &self
            .runs
            .iter()
            .find(|(o, _)| *o == org)
            .expect("organization was run")
            .1
    }

    /// Speedup of `org` over the memory-side baseline.
    pub fn speedup(&self, org: LlcOrgKind) -> f64 {
        self.stats(org)
            .speedup_over(self.stats(LlcOrgKind::MemorySide))
    }
}

/// Run one `(workload, organization)` simulation, returning typed errors
/// instead of panicking — the unit of work every crash-safe sweep fans out.
///
/// # Errors
/// [`CellError::Sim`] for configuration rejections and runtime aborts
/// (cycle limit, deadlock, invariant violation, checkpoint failure).
pub fn try_run_one(
    cfg: &MachineConfig,
    workload: &Workload,
    org: LlcOrgKind,
) -> Result<RunStats, CellError> {
    try_run_cell(cfg, workload, org, EngineMode::Cycle, false)
}

/// [`try_run_one`] with the engine tier selected explicitly: cycle-stepped
/// simulation (optionally with idle-cycle skipping, which is
/// byte-identical) or the analytic fast estimator (`skip_idle` is
/// meaningless and ignored in fast mode).
///
/// # Errors
/// [`CellError::Sim`] for configuration rejections and runtime aborts;
/// fast-mode evaluation cannot abort.
pub fn try_run_cell(
    cfg: &MachineConfig,
    workload: &Workload,
    org: LlcOrgKind,
    mode: EngineMode,
    skip_idle: bool,
) -> Result<RunStats, CellError> {
    match mode {
        EngineMode::Fast => Ok(fastmode::run_fast(cfg, workload, org)),
        EngineMode::Cycle => Ok(SimBuilder::new(cfg.clone())
            .organization(org)
            .skip_idle(skip_idle)
            .build()?
            .run(workload)?),
    }
}

/// Run one `(workload, organization)` simulation.
///
/// # Panics
/// Panics on any simulation error; use [`try_run_one`] in sweeps.
pub fn run_one(cfg: &MachineConfig, workload: &Workload, org: LlcOrgKind) -> RunStats {
    try_run_one(cfg, workload, org).unwrap_or_else(|e| panic!("{}/{org}: {e}", workload.name))
}

/// Like [`try_run_one`], but with the observability layer configured by
/// `obs`: the returned [`ObsReport`] carries the run's latency histograms,
/// epoch timeline, and (at the trace level) the Chrome-trace JSON. The
/// report is `None` when `obs` is off. The [`RunStats`] are byte-identical
/// to an unobserved run at any level — the observer is strictly read-only.
///
/// # Errors
/// [`CellError::Sim`] for configuration rejections and runtime aborts.
pub fn try_run_one_observed(
    cfg: &MachineConfig,
    workload: &Workload,
    org: LlcOrgKind,
    obs: ObsConfig,
) -> Result<(RunStats, Option<ObsReport>), CellError> {
    let mut sim = SimBuilder::new(cfg.clone())
        .organization(org)
        .observability(obs)
        .build()?;
    let stats = sim.run(workload)?;
    Ok((stats, sim.take_obs_report()))
}

/// Run one observed `(workload, organization)` simulation.
///
/// # Panics
/// Panics on any simulation error; use [`try_run_one_observed`] in sweeps.
pub fn run_one_observed(
    cfg: &MachineConfig,
    workload: &Workload,
    org: LlcOrgKind,
    obs: ObsConfig,
) -> (RunStats, Option<ObsReport>) {
    try_run_one_observed(cfg, workload, org, obs)
        .unwrap_or_else(|e| panic!("{}/{org}: {e}", workload.name))
}

/// One isolated attempt of a sweep cell. Deterministic backoff: attempt
/// `n` runs with the watchdog window scaled by `2^n`, so a slow-but-live
/// run clears a spurious deadlock trip while a true deadlock still fails
/// every attempt identically. No wall-clock scheduling is involved, so
/// results remain a pure function of the inputs.
///
/// With `ckpt` set, the attempt periodically snapshots its full engine
/// state to the given path and — if a snapshot from an identically
/// configured interrupted attempt is already there — resumes from it
/// mid-kernel at the snapshot's exact cycle. Any restore failure
/// (missing, torn, corrupt or differently configured snapshot, including
/// one written under a different attempt's escalated watchdog) falls
/// back to a full run from cycle 0; restore-then-run is byte-identical
/// to the uninterrupted run, so the fallback is a cost, never a
/// correctness, decision.
fn run_cell_attempt(
    cfg: &MachineConfig,
    workload: &Workload,
    org: LlcOrgKind,
    attempt: u32,
    ckpt: Option<(&Path, u64)>,
    mode: EngineMode,
    skip_idle: bool,
) -> Result<RunStats, CellError> {
    if mode == EngineMode::Fast {
        // No cycles: nothing to watchdog, checkpoint, or escalate.
        return Ok(fastmode::run_fast(cfg, workload, org));
    }
    let mut c = cfg.clone();
    c.watchdog_cycles = sweep::escalate_budget(c.watchdog_cycles, attempt);
    let Some((path, interval)) = ckpt else {
        return try_run_cell(&c, workload, org, mode, skip_idle);
    };
    let build = || {
        SimBuilder::new(c.clone())
            .organization(org)
            .skip_idle(skip_idle)
            .checkpoint_to(path, interval)
            .build()
    };
    let mut sim = build()?;
    if path.exists() {
        match sim.restore_from_file(path, workload) {
            Ok(()) => eprintln!(
                "  resumed {}/{org} from checkpoint at cycle {}",
                workload.name,
                sim.cycle()
            ),
            Err(e) => {
                eprintln!(
                    "  discarding unusable checkpoint for {}/{org} ({e}); running from cycle 0",
                    workload.name
                );
                // A failed restore may have partially overwritten the
                // simulator; rebuild rather than trust it.
                sim = build()?;
            }
        }
    }
    Ok(sim.run(workload)?)
}

/// Run one benchmark under the given organizations on `cfg`, fanning the
/// per-organization runs out over the sweep pool.
///
/// # Errors
/// [`SweepFailure`] listing every quarantined cell; sibling cells still
/// completed (and were journaled, if `opts` enables journaling).
pub fn run_benchmark(
    cfg: &MachineConfig,
    profile: &BenchmarkProfile,
    params: &TraceParams,
    orgs: &[LlcOrgKind],
    opts: &SweepOptions,
) -> Result<BenchRows, SweepFailure> {
    let mut rows = run_profiles(cfg, std::slice::from_ref(profile), params, orgs, opts)?;
    Ok(rows.pop().expect("one profile yields one row"))
}

/// Run the full 16-benchmark suite under the given organizations on the
/// sweep pool: trace generation fans out per benchmark, then every
/// (benchmark × organization) simulation fans out independently. Results
/// are collected in input order, so the rows are identical to the serial
/// loop's for any `--jobs` value.
///
/// # Errors
/// [`SweepFailure`] listing every quarantined cell.
pub fn run_suite(
    cfg: &MachineConfig,
    params: &TraceParams,
    orgs: &[LlcOrgKind],
    opts: &SweepOptions,
) -> Result<Vec<BenchRows>, SweepFailure> {
    run_profiles(cfg, &profiles::all_profiles(), params, orgs, opts)
}

/// [`run_suite`] over an explicit benchmark subset.
///
/// Every (benchmark × organization) cell runs isolated with bounded
/// retries (see [`sweep::run_cell`]); with journaling enabled, each cell's
/// outcome is persisted the moment it finishes, and cells recorded as
/// completed by a matching earlier run are replayed instead of re-run.
///
/// # Errors
/// [`SweepFailure`] listing every quarantined cell.
pub fn run_profiles(
    cfg: &MachineConfig,
    profs: &[BenchmarkProfile],
    params: &TraceParams,
    orgs: &[LlcOrgKind],
    opts: &SweepOptions,
) -> Result<Vec<BenchRows>, SweepFailure> {
    eprintln!(
        "  sweep: {} benchmarks x {} organizations on {} thread(s)",
        profs.len(),
        orgs.len(),
        sweep::jobs()
    );
    let journal = opts.open_journal();
    // A journal records results of exactly one fidelity. Refuse to resume
    // in a different mode instead of silently mixing cycle-accurate and
    // estimated cells in one result set.
    if let Some(j) = &journal {
        let guard = j.lock().expect("journal lock");
        if let Some(r) = guard
            .records()
            .iter()
            .find(|r| r.mode_token() != opts.mode.token())
        {
            panic!(
                "cannot resume journal in `{}` mode: cell `{}` was recorded in `{}` mode; \
                 re-run with --mode {} or start a fresh journal",
                opts.mode.token(),
                r.cell,
                r.mode_token(),
                r.mode_token(),
            );
        }
    }
    let ckpt = opts.ckpt();
    if let Some((dir, _)) = ckpt {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create state dir {}: {e}", dir.display()));
    }
    let workloads: Vec<Arc<Workload>> =
        sweep::map(profs.to_vec(), |p| Arc::new(generate(cfg, &p, params)));
    let pairs: Vec<(usize, LlcOrgKind)> = (0..profs.len())
        .flat_map(|pi| orgs.iter().map(move |&org| (pi, org)))
        .collect();
    let outcomes = sweep::map(pairs, |(pi, org)| {
        let name = format!("{}/{}", profs[pi].name, org.label());
        // Fast-mode cells get a distinct identity so a fast journal can
        // never replay into a cycle sweep (or vice versa); cycle-mode
        // descs are unchanged so existing journals stay valid. Idle
        // skipping is byte-identical by contract and so is *not* part of
        // the identity.
        let mut desc = cell_config_desc(cfg, params, profs[pi].name, org);
        if opts.mode != EngineMode::Cycle {
            desc.push_str("|mode:");
            desc.push_str(opts.mode.token());
        }
        let hash = journal::fnv1a_64(desc.as_bytes());
        // A prior journal record either replays (completed) or seeds the
        // attempt counter (quarantined), so a resume continues the budget
        // escalation where the interrupted run stopped instead of
        // restarting it from zero.
        let mut prior_attempts = 0;
        if let Some(j) = &journal {
            let guard = j.lock().expect("journal lock");
            if let Some(r) = guard.lookup_verified(&name, hash, &desc) {
                match &r.outcome {
                    RecordOutcome::Completed { .. } => {
                        if let Ok(Some(stats)) = r.stats() {
                            eprintln!("  replayed {name} from journal");
                            return (
                                name,
                                CellOutcome {
                                    attempts: 0,
                                    result: Ok(stats),
                                },
                            );
                        }
                    }
                    RecordOutcome::Quarantined { .. } => {
                        prior_attempts = r.attempts;
                        eprintln!("  retrying quarantined {name} from attempt {prior_attempts}");
                    }
                }
            }
        }
        let snapshot =
            ckpt.map(|(dir, interval)| (state::cell_snapshot_path(dir, &name, hash), interval));
        let out = sweep::run_cell_from(prior_attempts, |attempt| {
            run_cell_attempt(
                cfg,
                &workloads[pi],
                org,
                attempt,
                snapshot.as_ref().map(|(p, i)| (p.as_path(), *i)),
                opts.mode,
                opts.skip_idle,
            )
        });
        // A terminal outcome supersedes the cell's snapshot: a completed
        // cell replays from the journal and a quarantined one re-runs
        // under a different escalated budget, so the snapshot can never
        // be consumed again (`state::gc_state` reaps any we miss here).
        if let Some((p, _)) = &snapshot {
            let _ = std::fs::remove_file(p);
        }
        if let Some(j) = &journal {
            let outcome = match &out.result {
                Ok(stats) => RecordOutcome::Completed {
                    stats_json: stats.to_canonical_json(),
                },
                Err(e) => RecordOutcome::Quarantined {
                    kind: e.kind().to_string(),
                    error: e.to_string(),
                },
            };
            j.lock()
                .expect("journal lock")
                .append(JournalRecord {
                    cell: name.clone(),
                    config_hash: hash,
                    config: Some(desc),
                    mode: Some(opts.mode.token().to_string()),
                    attempts: out.attempts,
                    outcome,
                })
                .expect("write run journal");
        }
        match &out.result {
            Ok(_) => eprintln!("  finished {name}"),
            Err(e) => eprintln!(
                "  QUARANTINED {name} after {} attempt(s): {e}",
                out.attempts
            ),
        }
        (name, out)
    });

    let quarantined: Vec<CellFailure> = outcomes
        .iter()
        .filter_map(|(name, out)| {
            out.result.as_ref().err().map(|e| CellFailure {
                cell: name.clone(),
                attempts: out.attempts,
                error: e.clone(),
            })
        })
        .collect();
    if !quarantined.is_empty() {
        return Err(SweepFailure {
            completed: outcomes.len() - quarantined.len(),
            quarantined,
        });
    }

    let mut stats = outcomes
        .into_iter()
        .map(|(_, out)| out.result.expect("quarantine handled above"));
    Ok(profs
        .iter()
        .zip(&workloads)
        .map(|(p, wl)| BenchRows {
            profile: p.clone(),
            workload: Arc::clone(wl),
            runs: orgs
                .iter()
                .map(|&org| (org, stats.next().expect("one result per pair")))
                .collect(),
        })
        .collect())
}

/// One independently rendered section of a report binary (e.g. a table or
/// a model dump), runnable as a sweep cell so report binaries get the same
/// isolation, retry, and journal/resume machinery as simulation sweeps.
#[derive(Debug, Clone)]
pub struct ReportSection {
    /// Stable section name; the journal cell is `"{report}/{name}"`.
    pub name: &'static str,
    /// Debug dump of everything that determines the rendered text. It is
    /// hashed into the journal key, so a section whose inputs changed is
    /// re-rendered instead of replayed from a stale record.
    pub inputs: String,
    /// Render the section to the exact text the binary should print.
    pub render: fn() -> String,
}

/// Render every section of `report` through the sweep machinery and return
/// the rendered texts in input order.
///
/// Each section runs isolated with bounded retries (see
/// [`sweep::run_cell`]); with journaling enabled the rendered text is
/// persisted verbatim the moment a section finishes, and sections recorded
/// by a matching earlier run are replayed instead of re-rendered.
///
/// # Errors
/// [`SweepFailure`] listing every quarantined section.
pub fn run_report_sections(
    report: &str,
    sections: &[ReportSection],
    opts: &SweepOptions,
) -> Result<Vec<String>, SweepFailure> {
    let journal = opts.open_journal();
    let outcomes = sweep::map(sections.to_vec(), |s| {
        let name = format!("{report}/{}", s.name);
        let desc = format!("{report}|{}|{}", s.name, s.inputs);
        let hash = journal::fnv1a_64(desc.as_bytes());
        if let Some(j) = &journal {
            let replay = j
                .lock()
                .expect("journal lock")
                .lookup_verified(&name, hash, &desc)
                .and_then(|r| r.payload().map(str::to_string));
            if let Some(text) = replay {
                eprintln!("  replayed {name} from journal");
                return (
                    name,
                    CellOutcome {
                        attempts: 0,
                        result: Ok(text),
                    },
                );
            }
        }
        let out = sweep::run_cell(|_| Ok((s.render)()));
        if let Some(j) = &journal {
            let outcome = match &out.result {
                Ok(text) => RecordOutcome::Completed {
                    stats_json: text.clone(),
                },
                Err(e) => RecordOutcome::Quarantined {
                    kind: e.kind().to_string(),
                    error: e.to_string(),
                },
            };
            j.lock()
                .expect("journal lock")
                .append(JournalRecord {
                    cell: name.clone(),
                    config_hash: hash,
                    config: Some(desc),
                    mode: None,
                    attempts: out.attempts,
                    outcome,
                })
                .expect("write run journal");
        }
        (name, out)
    });

    let quarantined: Vec<CellFailure> = outcomes
        .iter()
        .filter_map(|(name, out)| {
            out.result.as_ref().err().map(|e| CellFailure {
                cell: name.clone(),
                attempts: out.attempts,
                error: e.clone(),
            })
        })
        .collect();
    if !quarantined.is_empty() {
        return Err(SweepFailure {
            completed: outcomes.len() - quarantined.len(),
            quarantined,
        });
    }
    Ok(outcomes
        .into_iter()
        .map(|(_, out)| out.result.expect("quarantine handled above"))
        .collect())
}

/// Harmonic-mean speedup over `rows` filtered by preference (`None` = all).
pub fn group_speedup(
    rows: &[BenchRows],
    org: LlcOrgKind,
    pref: Option<profiles::Preference>,
) -> f64 {
    let v: Vec<f64> = rows
        .iter()
        .filter(|r| pref.is_none_or(|p| r.profile.preference == p))
        .map(|r| r.speedup(org))
        .collect();
    harmonic_mean(&v)
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_smoke() {
        let cfg = experiment_config();
        let params = TraceParams {
            total_accesses: 20_000,
            ..TraceParams::quick()
        };
        let p = profiles::by_name("SN").unwrap();
        let rows = run_benchmark(
            &cfg,
            &p,
            &params,
            &[LlcOrgKind::MemorySide, LlcOrgKind::SmSide],
            &SweepOptions::none(),
        )
        .expect("healthy cells never quarantine");
        assert!((rows.speedup(LlcOrgKind::MemorySide) - 1.0).abs() < 1e-12);
        assert!(rows.speedup(LlcOrgKind::SmSide) > 0.0);
    }

    #[test]
    fn journaled_run_records_and_replays_cells() {
        let cfg = experiment_config();
        let params = TraceParams {
            total_accesses: 10_000,
            ..TraceParams::quick()
        };
        let p = profiles::by_name("SN").unwrap();
        let path =
            std::env::temp_dir().join(format!("sac-bench-journal-{}.jsonl", std::process::id()));
        let orgs = [LlcOrgKind::MemorySide, LlcOrgKind::Sac];

        let fresh = run_benchmark(
            &cfg,
            &p,
            &params,
            &orgs,
            &SweepOptions {
                journal: Some(path.clone()),
                ..SweepOptions::none()
            },
        )
        .unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.records().len(), 2, "one record per cell");

        // Resuming replays both cells byte-identically without re-running.
        let resumed = run_benchmark(
            &cfg,
            &p,
            &params,
            &orgs,
            &SweepOptions {
                resume: Some(path.clone()),
                ..SweepOptions::none()
            },
        )
        .unwrap();
        for org in orgs {
            assert_eq!(
                resumed.stats(org).to_canonical_json(),
                fresh.stats(org).to_canonical_json()
            );
        }
        assert_eq!(
            Journal::open(&path).unwrap().records().len(),
            2,
            "replayed cells are not re-journaled"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn report_sections_record_and_replay() {
        let path =
            std::env::temp_dir().join(format!("sac-bench-report-{}.jsonl", std::process::id()));
        let sections = [
            ReportSection {
                name: "alpha",
                inputs: "v1".to_string(),
                render: || "alpha text\n".to_string(),
            },
            ReportSection {
                name: "beta",
                inputs: "v1".to_string(),
                render: || "beta text\n".to_string(),
            },
        ];

        let fresh = run_report_sections(
            "demo",
            &sections,
            &SweepOptions {
                journal: Some(path.clone()),
                ..SweepOptions::none()
            },
        )
        .unwrap();
        assert_eq!(fresh, vec!["alpha text\n", "beta text\n"]);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.records().len(), 2, "one record per section");
        assert_eq!(j.records()[0].payload(), Some("alpha text\n"));

        // A resume replays both sections verbatim without re-rendering.
        let resumed = run_report_sections(
            "demo",
            &sections,
            &SweepOptions {
                resume: Some(path.clone()),
                ..SweepOptions::none()
            },
        )
        .unwrap();
        assert_eq!(resumed, fresh);
        assert_eq!(Journal::open(&path).unwrap().records().len(), 2);

        // Changed inputs invalidate the stale record and re-render.
        let changed = [ReportSection {
            name: "alpha",
            inputs: "v2".to_string(),
            render: || "alpha v2\n".to_string(),
        }];
        let rerun = run_report_sections(
            "demo",
            &changed,
            &SweepOptions {
                resume: Some(path.clone()),
                ..SweepOptions::none()
            },
        )
        .unwrap();
        assert_eq!(rerun, vec!["alpha v2\n"]);
        std::fs::remove_file(&path).unwrap();
    }
}
