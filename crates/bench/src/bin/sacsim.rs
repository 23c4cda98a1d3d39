//! Ad-hoc experiment CLI.
//!
//! ```text
//! sacsim [--bench NAME] [--org ORG] [--accesses N] [--input-scale X]
//!        [--chips N] [--topology ring|full|mesh2d]
//!        [--hw-coherence] [--sectored] [--json] [--jobs N] [--list-orgs]
//!        [--mode cycle|fast] [--skip-idle] [--list-modes]
//!        [--watchdog-cycles N] [--journal PATH] [--resume PATH]
//!        [--obs] [--obs-window N] [--obs-out PATH] [--trace-out PATH]
//! ```
//!
//! ORG is any token or label from the LLC-organization registry
//! (`--list-orgs` prints them), or `all`. Prints the full run statistics;
//! `--org all` fans every organization out over the sweep pool and prints
//! a comparison table; `--json` prints the canonical golden-stat JSON
//! instead (single organization only).
//!
//! Machine shape: `--chips N` sets the chip count (default 4) and
//! `--topology` the inter-chip fabric (default `ring`; `full` and `mesh`
//! are accepted aliases of `fully-connected` and `mesh2d`). The combined
//! configuration is validated up front, so an over-wide machine or an
//! unknown label fails fast instead of quarantining sweep cells.
//!
//! Engine tier: `--mode cycle` (default) steps every cycle; `--mode fast`
//! evaluates cells with the analytic locality estimator instead (no cycle
//! simulation, so `--obs*` and `--trace-out` are rejected with it).
//! `--skip-idle` turns on event-driven idle-cycle skipping in cycle mode —
//! byte-identical statistics, purely a speed knob. `--list-modes` prints
//! the registry.
//!
//! Robustness knobs: `--watchdog-cycles N` sets the forward-progress
//! watchdog window (`MCGPU_WATCHDOG_CYCLES` works too; `18446744073709551615`
//! = `u64::MAX` disables it). `--journal PATH` records every finished cell
//! to an append-only JSONL run journal; after an interruption,
//! `--resume PATH` replays completed cells byte-identically and re-runs
//! only missing or quarantined ones; a cell cut short by the interruption
//! re-runs from cycle 0.
//!
//! A numeric flag whose value does not parse (`--accesses abc`) exits with
//! status 2 instead of running with the default. So do the flags of the
//! removed mid-cell checkpointing (`--checkpoint`, `--restore`,
//! `--checkpoint-interval`, `--state-dir`, `--gc-state`), which point to
//! `--journal`/`--resume` instead.
//!
//! Observability (single organization only; strictly read-only, so the
//! printed statistics stay byte-identical): `--obs` records latency
//! histograms and the epoch timeline, `--obs-window N` sets the timeline
//! window in cycles (default 10000), `--obs-out PATH` writes the canonical
//! observability JSON, and `--trace-out PATH` writes a Chrome `trace_event`
//! JSON (load in `chrome://tracing` or Perfetto). `--obs-out`/`--trace-out`
//! imply `--obs`; `--trace-out` raises the level to `trace`.

use mcgpu_sim::SimBuilder;
use mcgpu_trace::{generate, profiles, TraceParams};
use mcgpu_types::{CoherenceKind, EngineMode, LlcOrgKind, ObsConfig, ResponseOrigin, TopologyKind};
use sac_bench::{exit_on_quarantine, run_benchmark, SweepOptions};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The value of flag `name` parsed as a `T`, or `None` when the flag is
/// absent. A value that is missing or does not parse exits with status 2,
/// naming the flag and what it needs (`what`), instead of falling back to
/// the default.
fn parsed_arg<T: std::str::FromStr>(name: &str, what: &str) -> Option<T> {
    if !std::env::args().any(|a| a == name) {
        return None;
    }
    let v = arg_value(name).unwrap_or_default();
    match v.parse() {
        Ok(x) => Some(x),
        Err(_) => {
            eprintln!("{name} needs {what}, got `{v}`");
            std::process::exit(2);
        }
    }
}

fn main() {
    if std::env::args().any(|a| a == "--list-orgs") {
        println!("{:8} {:12} summary", "token", "label");
        for d in &mcgpu_sim::org::REGISTRY {
            println!("{:8} {:12} {}", d.token, d.kind.label(), d.summary);
        }
        return;
    }
    if std::env::args().any(|a| a == "--list-modes") {
        println!("{:8} summary", "token");
        for d in &mcgpu_types::ENGINE_MODES {
            println!("{:8} {}", d.token, d.summary);
        }
        return;
    }
    let opts = SweepOptions::from_args();
    let bench = arg_value("--bench").unwrap_or_else(|| "BFS".to_string());
    let org = match arg_value("--org").as_deref() {
        None => Some(LlcOrgKind::MemorySide),
        Some("all") => None,
        Some(other) => match mcgpu_sim::org::org_by_token(other) {
            Some(kind) => Some(kind),
            None => {
                let known: Vec<String> = mcgpu_sim::org::REGISTRY
                    .iter()
                    .map(|d| format!("{} ({})", d.token, d.kind.label()))
                    .collect();
                eprintln!(
                    "unknown organization {other}; known: {}, or `all` (see --list-orgs)",
                    known.join(", ")
                );
                std::process::exit(2);
            }
        },
    };
    let mut cfg = sac_bench::experiment_config();
    if std::env::args().any(|a| a == "--hw-coherence") {
        cfg.coherence = CoherenceKind::Hardware;
    }
    if std::env::args().any(|a| a == "--sectored") {
        cfg.sectored = true;
    }
    if let Some(n) = parsed_arg("--watchdog-cycles", "an unsigned integer") {
        // Validated by MachineConfig::validate() when the simulator is
        // built; 0 is rejected there with a typed ConfigError.
        cfg.watchdog_cycles = n;
    }
    if let Some(n) = parsed_arg("--chips", "an unsigned integer") {
        cfg.chips = n;
    }
    if let Some(v) = arg_value("--topology") {
        match TopologyKind::from_label(&v) {
            Some(k) => cfg.topology = k,
            None => {
                let known: Vec<&str> = TopologyKind::ALL.iter().map(|t| t.label()).collect();
                eprintln!("unknown topology `{v}`; known: {}", known.join(", "));
                std::process::exit(2);
            }
        }
    }
    if let Err(e) = cfg.validate() {
        eprintln!("invalid machine configuration: {e}");
        std::process::exit(2);
    }
    let mut params = TraceParams::standard();
    if let Some(n) = parsed_arg("--accesses", "an unsigned integer") {
        params.total_accesses = n;
    }
    if let Some(x) = parsed_arg("--input-scale", "a number") {
        params = params.with_input_scale(x);
    }
    let obs_window: Option<u64> = parsed_arg("--obs-window", "an unsigned integer");

    let Some(profile) = profiles::by_name(&bench) else {
        eprintln!(
            "unknown benchmark {bench}; known: {:?}",
            profiles::all_profiles()
                .iter()
                .map(|p| p.name)
                .collect::<Vec<_>>()
        );
        std::process::exit(2);
    };

    let trace_out = arg_value("--trace-out");
    let obs_out = arg_value("--obs-out");
    let obs_requested =
        std::env::args().any(|a| a == "--obs") || obs_out.is_some() || trace_out.is_some();

    // The fast tier has no cycles, so there is nothing to observe or
    // trace — reject the combination up front instead of silently running
    // the wrong engine.
    if opts.mode == EngineMode::Fast && obs_requested {
        eprintln!("--mode fast has no cycle engine to observe; drop --obs/--obs-out/--trace-out or use --mode cycle");
        std::process::exit(2);
    }

    let Some(org) = org else {
        if obs_requested {
            eprintln!("--obs/--obs-out/--trace-out need a single --org, not `all`");
            std::process::exit(2);
        }
        // --org all: fan every organization out over the sweep pool and
        // print a comparison table relative to the memory-side baseline.
        let rows = exit_on_quarantine(run_benchmark(
            &cfg,
            &profile,
            &params,
            &LlcOrgKind::ALL,
            &opts,
        ));
        let mem_cycles = rows.runs[0].1.cycles;
        println!(
            "benchmark: {} ({} accesses, input x{}) on {} chips, {} fabric\n",
            bench,
            rows.workload.total_accesses(),
            params.input_scale,
            cfg.chips,
            cfg.topology.label()
        );
        println!(
            "{:12} {:>10} {:>10} {:>9} {:>9} {:>9}",
            "organization", "cycles", "acc/cyc", "speedup", "LLC miss", "local"
        );
        for (org, s) in &rows.runs {
            println!(
                "{:12} {:>10} {:>10.3} {:>8.2}x {:>9.3} {:>9.3}",
                org.label(),
                s.cycles,
                s.perf(),
                mem_cycles as f64 / s.cycles as f64,
                s.llc_miss_rate(),
                s.llc_local_fraction
            );
        }
        return;
    };
    let (stats, report, total_accesses) = if obs_requested {
        // Direct single-simulator path, so the observer's report can be
        // taken after the run.
        let mut obs = if trace_out.is_some() {
            ObsConfig::trace()
        } else {
            ObsConfig::metrics()
        };
        if let Some(w) = obs_window {
            obs = obs.with_epoch_window(w);
        }
        let wl = generate(&cfg, &profile, &params);
        let total = wl.total_accesses();
        let mut sim = SimBuilder::new(cfg.clone())
            .organization(org)
            .skip_idle(opts.skip_idle)
            .observability(obs)
            .build()
            .unwrap_or_else(|e| {
                eprintln!("{bench}/{org}: {e}");
                std::process::exit(1);
            });
        let stats = sim.run(&wl).unwrap_or_else(|e| {
            eprintln!("{bench}/{org}: {e}");
            std::process::exit(1);
        });
        (stats, sim.take_obs_report(), total)
    } else {
        let rows = exit_on_quarantine(run_benchmark(&cfg, &profile, &params, &[org], &opts));
        let total = rows.workload.total_accesses();
        (rows.stats(org).clone(), None, total)
    };
    let stats = &stats;
    if let Some(r) = &report {
        if let Some(path) = &obs_out {
            std::fs::write(path, r.to_canonical_json())
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        }
        if let Some(path) = &trace_out {
            let trace = r.trace_json.as_deref().expect("trace level was requested");
            std::fs::write(path, trace).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        }
    }
    if std::env::args().any(|a| a == "--json") {
        print!("{}", stats.to_canonical_json());
        return;
    }

    println!(
        "benchmark          : {} ({} accesses, input x{})",
        bench, total_accesses, params.input_scale
    );
    println!(
        "machine            : {} chips, {} fabric",
        cfg.chips,
        cfg.topology.label()
    );
    println!("organization       : {}", org.label());
    println!("cycles             : {}", stats.cycles);
    println!("performance        : {:.3} accesses/cycle", stats.perf());
    println!("L1 miss rate       : {:.3}", stats.l1.miss_rate());
    println!("LLC miss rate      : {:.3}", stats.llc_miss_rate());
    println!("LLC local fraction : {:.3}", stats.llc_local_fraction);
    println!(
        "effective LLC bw   : {:.3} responses/cycle",
        stats.effective_llc_bandwidth()
    );
    for o in ResponseOrigin::ALL {
        println!(
            "  from {:10}    : {:.3}/cycle",
            o.label(),
            stats.response_rate(o)
        );
    }
    println!(
        "fabric traffic     : {:.1} B/cycle",
        stats.ring_bytes as f64 / stats.cycles as f64
    );
    println!(
        "DRAM reads/writes  : {} / {}",
        stats.dram_reads, stats.dram_writes
    );
    println!("overhead cycles    : {}", stats.overhead_cycles);
    if !stats.sac_history.is_empty() {
        println!("SAC decisions:");
        for (i, r) in stats.sac_history.iter().enumerate() {
            println!("  kernel {i}: {} (EAB mem {:.0} vs sm {:.0}, R_local {:.2}, hitM {:.2}, hitS {:.2})",
                r.mode, r.eab_memory_side, r.eab_sm_side,
                r.inputs.r_local, r.inputs.llc_hit_memory_side, r.inputs.llc_hit_sm_side);
        }
    }
    if let Some(r) = &report {
        println!(
            "latency (cycles)   : {:>10} {:>9} {:>7} {:>7} {:>7}",
            "class", "count", "p50", "p90", "p99"
        );
        for o in ResponseOrigin::ALL {
            let h = r.class_histogram(o);
            println!(
                "  {:>18} {:>9} {:>7} {:>7} {:>7}",
                o.label(),
                h.count(),
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99)
            );
        }
        println!(
            "timeline           : {} epoch(s) of {} cycles",
            r.timeline.len(),
            r.epoch_window
        );
        if let Some(path) = &obs_out {
            println!("obs report         : wrote {path}");
        }
        if let Some(path) = &trace_out {
            println!("event trace        : wrote {path}");
        }
    }
}
