//! In-memory span recorder for the traced mode.
//!
//! Spans are recorded by the benchmark's own code around each call it
//! makes into a layer's public API: name, start, end, the enclosing span
//! on the same thread, and the request the call served. Nothing is
//! written while the workload runs; [`Tracer::write_tsv`] dumps the spans
//! when the benchmark ends. With tracing off, [`Tracer::span`] is a plain
//! call of the closure.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id, starting at 1.
    pub id: u64,
    /// Id of the span open on the same thread when this one started
    /// (0 = root).
    pub parent: u64,
    /// Layer call name, e.g. `kernels.motion.block_match`.
    pub name: &'static str,
    /// Request (block, batch call or service request) the call served.
    pub req: u64,
    /// Benchmark-local thread number.
    pub thread: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static OPEN: Cell<u64> = const { Cell::new(0) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Collects spans when enabled; costs one branch per call when not.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `req`.
    pub fn span<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.span_if(true, name, req, f)
    }

    /// [`Tracer::span`] when `on`, a plain call otherwise; traced runs
    /// use it to leave every other window untraced, so the two can be
    /// compared for the tracing overhead.
    pub fn span_if<T>(&self, on: bool, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        if !(self.enabled && on) {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| open.replace(id));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.set(parent));
        let span = Span {
            id,
            parent,
            name,
            req,
            thread: THREAD.with(|t| *t),
            start_ns,
            end_ns,
        };
        self.spans.lock().expect("span list lock").push(span);
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Writes the spans as tab-separated rows with a header line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\treq\tthread\tstart_ns\tend_ns")?;
        for s in self.spans.lock().expect("span list lock").iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.req, s.thread, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a span list.
#[derive(Clone, Debug, Default)]
pub struct LayerTime {
    /// Spans with this name.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by direct child spans.
    pub self_ns: u64,
}

/// Self and total time per span name.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let row = out.entry(s.name).or_default();
        row.calls += 1;
        row.total_ns += s.dur_ns();
        let children = child_ns.get(&s.id).copied().unwrap_or(0);
        row.self_ns += s.dur_ns().saturating_sub(children);
    }
    out
}

/// Summed duration of the root spans that lie inside one of `ranges`.
pub fn root_ns_within(spans: &[Span], ranges: &[(u64, u64)]) -> u64 {
    spans
        .iter()
        .filter(|s| {
            s.parent == 0
                && ranges
                    .iter()
                    .any(|&(from, to)| s.start_ns >= from && s.end_ns <= to)
        })
        .map(Span::dur_ns)
        .sum()
}

/// Durations in milliseconds of the spans named `name`, ascending.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut out: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    out.sort_by(f64::total_cmp);
    out
}
