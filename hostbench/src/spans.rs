//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer, kept in memory, and written out once when the run ends. A span's
//! layer is the part of its name before the first `.` (`sim.run` belongs to
//! `sim`). Spans that fan work out over the sweep workers carry `lanes` =
//! worker count, so their self time is the worker time their children did
//! not use.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// `0` for the root.
    pub parent: u64,
    pub name: &'static str,
    /// The cell (or benchmark, for trace generation) the span worked on.
    pub cell: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Parallel lanes the span's interval offers its children.
    pub lanes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Collects spans from every worker thread.
pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserve an id, so children can name a parent that is still open.
    pub fn open(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    /// Build a span under a reserved id.
    pub fn span(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        cell: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            cell,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            lanes: 1,
        }
    }

    pub fn push(&self, span: Span) {
        self.extend(vec![span]);
    }

    pub fn extend(&self, spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("no span writer panics while holding the lock")
            .extend(spans);
    }

    pub fn take(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("no span writer panics while holding the lock")
    }
}

/// Self time per layer in seconds: each span's `dur × lanes` minus the
/// durations of its direct children.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let own = (s.dur_ns() * s.lanes).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.layer()).or_default() += own as f64 * 1e-9;
    }
    out
}

/// The spans as one JSON document.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = format!("{{\"schema\":\"hostbench-spans-v1\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let cell = s.cell.map_or("null".to_string(), |c| c.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"cell\":{cell},\"start_ns\":{},\"end_ns\":{},\"lanes\":{}}}{}\n",
            s.id,
            s.parent,
            s.name,
            s.start_ns,
            s.end_ns,
            s.lanes,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}
