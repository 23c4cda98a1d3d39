//! Host-cost benchmark of the SAC simulator.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload paper4 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every run first checks the golden suite against `tests/golden/` and
//! aborts without timing on a mismatch. With `--trace 0` it repeats the
//! workload's batch (set-up, then every cell on the sweep workers) for
//! about `--seconds` seconds, at least twice, and reports the end-to-end
//! metrics as medians over the repetitions. With `--trace 1` it runs one
//! untraced and one traced pass, then the layer replays, and reports the
//! per-layer metrics. The last line of standard output is one JSON object;
//! `README.md` defines every metric.

mod replay;
mod spans;
mod workload;

use mcgpu_sim::RunStats;
use mcgpu_types::{LlcOrgKind, ObsConfig};
use sac_bench::journal::fnv1a_64;
use sac_bench::sweep;
use spans::{Span, Tracer};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;
use workload::{Cell, CellRun, Spec, Trace};

/// Set-up samples per untraced run; set-up is cheap next to the passes,
/// so extra set-up-only rounds steady its median.
const SETUP_SAMPLES: usize = 21;

/// Repetitions per untraced run, at least: the second checks the first.
const MIN_REPS: usize = 2;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("error: {problem}");
    eprintln!(
        "usage: hostbench --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut spec = None;
    let mut seed = mcgpu_trace::TraceParams::standard().seed;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"))
        };
        let bad = || -> ! { usage(&format!("bad value `{value}` for {flag}")) };
        match flag.as_str() {
            "--workload" => spec = Some(Spec::by_name(&value).unwrap_or_else(|| bad())),
            "--seed" => seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .unwrap_or_else(|| bad())
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        spec: spec.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
    }
}

/// Every golden case must reproduce its committed snapshot byte for byte.
fn golden_gate() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/golden");
    let runs = sweep::map(sac_bench::golden::suite(), |c| (c.name, c.try_run()));
    let mut mismatches = Vec::new();
    for (name, got) in runs {
        let path = dir.join(format!("{name}.json"));
        match (got, std::fs::read_to_string(&path)) {
            (Ok(got), Ok(want)) if got == want => {}
            (Ok(_), Ok(_)) => mismatches.push(format!("{name}: differs from {}", path.display())),
            (Err(e), _) => mismatches.push(format!("{name}: {e}")),
            (_, Err(e)) => mismatches.push(format!("{name}: cannot read {}: {e}", path.display())),
        }
    }
    mismatches
}

/// Checks every pass of the workload against its first one.
struct Checker {
    cells: Vec<Cell>,
    reference: Vec<Option<String>>,
    attempted: u64,
    failures: Vec<String>,
}

impl Checker {
    fn new(cells: Vec<Cell>) -> Checker {
        let n = cells.len();
        Checker {
            cells,
            reference: vec![None; n],
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Check one pass and print its `RunStats` digest: FNV-1a-64 over every
    /// cell's canonical JSON, in cell order.
    /// `totals` holds the accesses of each benchmark's trace in this pass.
    fn check(&mut self, spec: &Spec, pass: usize, totals: &[u64], runs: &[CellRun]) {
        let mut canonical = String::new();
        for (i, run) in runs.iter().enumerate() {
            self.attempted += 1;
            let cell = self.cells[i];
            let label = format!("{}/{}", spec.benches[cell.bench], cell.org.label());
            let stats = match &run.stats {
                Ok(s) => s,
                Err(e) => {
                    self.failures.push(format!("pass {pass}: {label}: {e}"));
                    continue;
                }
            };
            let json = stats.to_canonical_json();
            canonical.push_str(&json);
            let want = totals[cell.bench];
            if stats.reads + stats.writes != want {
                self.failures.push(format!(
                    "pass {pass}: {label}: retired {} accesses, the workload holds {want}",
                    stats.reads + stats.writes
                ));
            } else if self.reference[i].get_or_insert_with(|| json.clone()) != &json {
                self.failures
                    .push(format!("pass {pass}: {label}: RunStats differ from pass 1"));
            }
        }
        println!(
            "digest {} pass {pass}: {:016x}",
            spec.name,
            fnv1a_64(canonical.as_bytes())
        );
    }

    fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile; `NaN` on no samples.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NAN, f64::max)
}

/// Peak resident set of this process, in MB (10^6 bytes).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

fn totals(batch: &workload::Batch) -> Vec<u64> {
    batch
        .traces
        .iter()
        .map(|w| w.total_accesses() as u64)
        .collect()
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Repeat set-up and pass for about `seconds`, at least [`MIN_REPS`] times.
fn end_to_end(a: &Args, workers: usize, check: &mut Checker) -> Result<Metrics, String> {
    let cells = a.spec.cells();
    let (mut setup_s, mut wall_s, mut rate) = (vec![], vec![], vec![]);
    let mut cell_s = Vec::new();
    let mut peak_mb = None;
    let start = Instant::now();
    loop {
        let batch = workload::setup(a.spec, &cells, a.seed, ObsConfig::off(), None)?;
        setup_s.push(batch.setup_s);
        let t = totals(&batch);
        let (runs, wall) = workload::run(batch, &cells, "bench.sweep", None);
        check.check(a.spec, wall_s.len() + 1, &t, &runs);
        let retired: u64 = runs
            .iter()
            .filter_map(|r| r.stats.as_ref().ok())
            .map(|s| s.reads + s.writes)
            .sum();
        wall_s.push(wall);
        rate.push(retired as f64 / wall);
        cell_s.extend(runs.iter().map(|r| r.secs));
        // One figure bin runs its batch once; later repetitions only add
        // allocator fragmentation, which varies from run to run.
        if peak_mb.is_none() {
            peak_mb = Some(peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let per_rep = elapsed / wall_s.len() as f64;
        if wall_s.len() >= MIN_REPS && elapsed + per_rep > a.seconds as f64 * 1.05 {
            break;
        }
    }
    while setup_s.len() < SETUP_SAMPLES {
        setup_s.push(workload::setup(a.spec, &cells, a.seed, ObsConfig::off(), None)?.setup_s);
    }
    println!(
        "samples: {} repetitions, {} cell runs, {} set-ups on {workers} worker(s)",
        wall_s.len(),
        cell_s.len(),
        setup_s.len()
    );
    Ok(vec![
        ("wall_s", median(&wall_s), "s"),
        ("setup_s", median(&setup_s), "s"),
        ("accesses_per_s", median(&rate), "1/s"),
        ("cell_p50_s", median(&cell_s), "s"),
        (
            "peak_rss_mb",
            peak_mb.expect("at least one repetition"),
            "MB",
        ),
    ])
}

/// Geometric mean over benchmarks of memory-side cycles / SAC cycles.
fn sac_speedup_over_mem(cells: &[Cell], runs: &[CellRun], mem_cycles: &[u64]) -> f64 {
    let mut logs = Vec::new();
    for (c, r) in cells.iter().zip(runs) {
        if let (LlcOrgKind::Sac, Ok(s)) = (c.org, &r.stats) {
            logs.push((mem_cycles[c.bench] as f64 / s.cycles as f64).ln());
        }
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Memory-side cycles per benchmark: from the workload's own cells, or
/// from reference cells run here when the workload has no memory-side
/// cell.
fn memory_side_cycles(
    a: &Args,
    workers: usize,
    cells: &[Cell],
    runs: &[CellRun],
    trace: Trace<'_>,
) -> Result<Vec<u64>, String> {
    let mut cycles = vec![0; a.spec.benches.len()];
    if a.spec.orgs.contains(&LlcOrgKind::MemorySide) {
        for (c, r) in cells.iter().zip(runs) {
            if let (LlcOrgKind::MemorySide, Ok(s)) = (c.org, &r.stats) {
                cycles[c.bench] = s.cycles;
            }
        }
        return Ok(cycles);
    }
    let id = trace.tracer.open();
    let start = Instant::now();
    let refs: Vec<Cell> = (0..a.spec.benches.len())
        .map(|bench| Cell {
            bench,
            org: LlcOrgKind::MemorySide,
        })
        .collect();
    let batch = workload::setup(a.spec, &refs, a.seed, ObsConfig::off(), None)?;
    let (ref_runs, _) = workload::run(batch, &refs, "sim.reference", None);
    trace.tracer.push(Span {
        lanes: workers as u64,
        ..trace.tracer.span(
            id,
            trace.parent,
            "core.reference",
            None,
            start,
            Instant::now(),
        )
    });
    for (c, r) in refs.iter().zip(&ref_runs) {
        cycles[c.bench] = r
            .stats
            .as_ref()
            .map_err(|e| format!("memory-side reference: {e}"))?
            .cycles;
    }
    Ok(cycles)
}

/// One untraced pass, one traced pass with `ObsLevel::Metrics`, then the
/// cache, DRAM and fabric replays of every cell.
fn per_layer(a: &Args, workers: usize, check: &mut Checker) -> Result<Metrics, String> {
    let cells = a.spec.cells();
    let batch = workload::setup(a.spec, &cells, a.seed, ObsConfig::off(), None)?;
    let t = totals(&batch);
    let (plain, plain_wall) = workload::run(batch, &cells, "bench.sweep", None);
    check.check(a.spec, 1, &t, &plain);
    let plain_secs: Vec<f64> = plain.iter().map(|r| r.secs).collect();

    let tracer = Tracer::new();
    let root = tracer.open();
    let root_start = Instant::now();
    let trace = Trace {
        tracer: &tracer,
        parent: root,
    };
    let batch = workload::setup(a.spec, &cells, a.seed, ObsConfig::metrics(), Some(trace))?;
    let traces = batch.traces.clone();
    let t = totals(&batch);
    let (runs, wall) = workload::run(batch, &cells, "bench.sweep", Some(trace));
    check.check(a.spec, 2, &t, &runs);
    let mem_cycles = memory_side_cycles(a, workers, &cells, &runs, trace)?;

    let cfg = a.spec.config();
    let replay_id = tracer.open();
    let replay_start = Instant::now();
    let jobs: Vec<(usize, &RunStats)> = runs
        .iter()
        .enumerate()
        .filter_map(|(i, r)| Some((i, r.stats.as_ref().ok()?)))
        .collect();
    if jobs.len() != runs.len() {
        return Err("a traced cell failed; see the failures above".into());
    }
    let replays = sweep::map(jobs, |(i, s)| {
        let wl = &traces[cells[i].bench];
        let timed = |name, t0: Instant| {
            tracer.push(tracer.span(tracer.open(), replay_id, name, Some(i), t0, Instant::now()))
        };
        let t0 = Instant::now();
        let (cache, dram_ops) = replay::cache(&cfg, wl, cells[i].org)?;
        timed("cache.replay", t0);
        let t0 = Instant::now();
        let mem = replay::mem(&cfg, &dram_ops, s.max_in_flight)?;
        timed("mem.replay", t0);
        let t0 = Instant::now();
        let (noc, in_network) = replay::noc(&cfg, wl, s.max_in_flight, s.ring_bytes)?;
        timed("noc.replay", t0);
        Ok::<_, String>(([cache, mem, noc], in_network))
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let end = Instant::now();
    tracer.push(Span {
        lanes: workers as u64,
        ..tracer.span(replay_id, root, "bench.replay", None, replay_start, end)
    });
    tracer.push(tracer.span(root, 0, "workload", None, root_start, end));

    let spans = tracer.take();
    let span_total = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .sum::<f64>()
    };
    let stats: Vec<&RunStats> = runs.iter().filter_map(|r| r.stats.as_ref().ok()).collect();
    let sum = |f: &dyn Fn(&RunStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
    let secs: Vec<f64> = runs.iter().map(|r| r.secs).collect();
    let ns_per_cycle: Vec<f64> = runs
        .iter()
        .zip(&stats)
        .map(|(r, s)| r.secs * 1e9 / s.cycles as f64)
        .collect();
    let epochs: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.epoch_ns_per_cycle.iter().copied())
        .collect();
    let samples: Vec<_> = runs
        .iter()
        .flat_map(|r| r.obs.as_ref().map_or(&[][..], |o| &o.timeline[..]))
        .collect();
    let epoch_mean = |f: &dyn Fn(&mcgpu_sim::EpochSample) -> u64| {
        samples.iter().map(|e| f(e) as f64).sum::<f64>() / samples.len() as f64
    };
    let replay_rate = |k: usize| {
        let (ns, ops) = replays
            .iter()
            .fold((0u64, 0u64), |(n, o), (r, _)| (n + r[k].ns, o + r[k].ops));
        ns as f64 / ops as f64
    };
    let sac_kernels = |mode: sac::LlcMode| {
        stats
            .iter()
            .flat_map(|s| s.kernels.iter())
            .filter(|k| k.sac_mode == Some(mode))
            .count() as f64
    };
    let cycles = sum(&|s| s.cycles);
    let mut m: Metrics = vec![
        ("trace.generate_s", span_total("trace.generate"), "s"),
        (
            "trace.accesses",
            traces.iter().map(|w| w.total_accesses() as f64).sum(),
            "count",
        ),
        ("sim.build_s", span_total("sim.build"), "s"),
        ("sim.run_s_p50", median(&secs), "s"),
        ("sim.run_s_max", max(&secs), "s"),
        ("sim.ns_per_cycle_p50", median(&ns_per_cycle), "ns/cycle"),
        ("sim.ns_per_cycle_max", max(&ns_per_cycle), "ns/cycle"),
        (
            "sim.epoch_ns_per_cycle_p99",
            quantile(&epochs, 0.99),
            "ns/cycle",
        ),
        ("sim.cycles", cycles, "cycles"),
        ("sim.overhead_cycles", sum(&|s| s.overhead_cycles), "cycles"),
        (
            "sim.max_in_flight",
            stats.iter().map(|s| s.max_in_flight).max().unwrap_or(0) as f64,
            "count",
        ),
        (
            "sim.slice_queue_mean",
            epoch_mean(&|e| e.slice_queue),
            "count",
        ),
        (
            "mem.dram_queue_mean",
            epoch_mean(&|e| e.dram_queue),
            "count",
        ),
        (
            "noc.xbar_rejected",
            samples.iter().map(|e| e.noc_rejected).sum::<u64>() as f64,
            "count",
        ),
        (
            "cache.l1_hit_rate",
            sum(&|s| s.l1.hits) / sum(&|s| s.l1.accesses),
            "ratio",
        ),
        (
            "cache.llc_hit_rate",
            sum(&|s| s.llc.hits) / sum(&|s| s.llc.accesses),
            "ratio",
        ),
        ("cache.llc_accesses", sum(&|s| s.llc.accesses), "count"),
        ("cache.replay_ns_per_access", replay_rate(0), "ns"),
        ("mem.dram_reads", sum(&|s| s.dram_reads), "count"),
        ("mem.dram_writes", sum(&|s| s.dram_writes), "count"),
        ("mem.replay_ns_per_request", replay_rate(1), "ns"),
        ("noc.fabric_bytes", sum(&|s| s.ring_bytes), "bytes"),
        (
            "noc.fabric_bytes_per_cycle",
            sum(&|s| s.ring_bytes) / cycles,
            "bytes/cycle",
        ),
        ("noc.replay_ns_per_packet", replay_rate(2), "ns"),
        (
            "noc.replay_in_network_mean",
            replays.iter().map(|r| r.1).sum::<f64>() / replays.len() as f64,
            "count",
        ),
        (
            "core.sac_decisions",
            stats.iter().map(|s| s.sac_history.len()).sum::<usize>() as f64,
            "count",
        ),
        (
            "core.sac_sm_side_kernels",
            sac_kernels(sac::LlcMode::SmSide),
            "count",
        ),
        (
            "core.sac_speedup_over_mem",
            sac_speedup_over_mem(&cells, &runs, &mem_cycles),
            "ratio",
        ),
        (
            "bench.worker_idle_frac",
            1.0 - secs.iter().sum::<f64>() / (workers as f64 * wall),
            "ratio",
        ),
        ("trace_overhead", wall / plain_wall, "ratio"),
        ("cell_max_s", max(&plain_secs), "s"),
    ];
    let self_time = spans::self_time_by_layer(&spans);
    for (layer, name) in [
        ("workload", "workload.self_s"),
        ("bench", "bench.self_s"),
        ("trace", "trace.self_s"),
        ("sim", "sim.self_s"),
        ("core", "core.self_s"),
        ("cache", "cache.self_s"),
        ("mem", "mem.self_s"),
        ("noc", "noc.self_s"),
    ] {
        m.push((name, self_time.get(layer).copied().unwrap_or(0.0), "s"));
    }
    let out = spans_path(a);
    std::fs::create_dir_all(out.parent().expect("spans path has a directory"))
        .and_then(|()| std::fs::write(&out, spans::to_json(a.spec.name, a.seed, &spans)))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("spans: {} written to {}", spans.len(), out.display());
    Ok(m)
}

fn spans_path(a: &Args) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.json", a.spec.name, a.seed))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let a = parse_args();
    let workers = sweep::jobs();
    let mismatches = golden_gate();
    if !mismatches.is_empty() {
        for m in &mismatches {
            eprintln!("golden mismatch: {m}");
        }
        eprintln!("error: the golden suite does not reproduce tests/golden; nothing was timed");
        exit(1);
    }
    println!(
        "golden gate: {} cases match tests/golden",
        sac_bench::golden::suite().len()
    );

    let mut check = Checker::new(a.spec.cells());
    let metrics = if a.trace {
        per_layer(&a, workers, &mut check)
    } else {
        end_to_end(&a, workers, &mut check)
    };
    for f in &check.failures {
        eprintln!("cell failure: {f}");
    }
    let metrics = metrics.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1);
    });
    let error_rate = check.failed() as f64 / check.attempted as f64;
    println!(
        "workload {} seed {} on {workers} worker(s): error_rate {error_rate} ({} of {} cells failed)",
        a.spec.name,
        a.seed,
        check.failed(),
        check.attempted
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<30} {value:>16.6} {unit}");
    }
    let bad = metrics
        .iter()
        .filter(|m| !m.1.is_finite())
        .map(|m| m.0)
        .collect::<Vec<_>>();
    if !bad.is_empty() {
        eprintln!("error: metrics without a value: {}", bad.join(", "));
        exit(1);
    }
    println!(
        "{}",
        result_line(
            check.failed() == 0,
            check.attempted,
            check.failed(),
            &metrics
        )
    );
}
