//! Shared measurement plumbing: metrics, the result line, quantiles,
//! windowed throughput, set-up timing and process memory.

use std::path::PathBuf;
use std::time::Instant;

use systolic_ring_core::{with_aot, with_decode_cache, with_fused, Stats};

use crate::span::{layer_times, root_ns_within, Tracer};

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the timed runs.
    pub attempted: u64,
    /// Wrong outputs, faults, refusals and lost requests among them.
    pub failed: u64,
    /// End-to-end metrics (always measured).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    pub lines: Vec<String>,
}

impl Report {
    /// The last stdout line: one JSON object over `(name, value, unit)`.
    pub fn json(&self, metrics: &[(String, f64, String)]) -> String {
        let body = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        )
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric::new(name, value, unit));
    }

    /// Adds the core counters every workload reports from its merged
    /// machine statistics.
    pub fn core_counters(&mut self, stats: &Stats) {
        let compiled = stats.fused_cycles + stats.aot_cycles;
        self.layer(
            "core.compiled_share",
            ratio(compiled as f64, stats.cycles as f64),
            "ratio",
        );
        self.layer("core.fused.entries", stats.fused_entries as f64, "count");
        self.layer("core.fused.deopts", stats.fused_deopts as f64, "count");
        self.layer(
            "core.plan.misses",
            stats.decode_cache_misses as f64,
            "count",
        );
        self.layer("core.arch.ctx_switches", stats.ctx_switches as f64, "count");
        self.layer(
            "core.arch.config_writes",
            stats.config_writes as f64,
            "count",
        );
        self.layer(
            "core.arch.ctrl_stall_cycles",
            stats.ctrl_stall_cycles as f64,
            "cycles",
        );
    }

    /// Records host ns per simulated cycle of `run` under each execution
    /// tier. `run` re-runs a fixed sample of the workload on the calling
    /// thread, where the tier scopes apply, and returns ns per cycle.
    pub fn tier_layers(&mut self, run: impl Fn(&'static str) -> f64) {
        let slow = with_decode_cache(false, || run("core.tier.slow"));
        let decoded = with_fused(false, || run("core.tier.decoded"));
        let fused = run("core.tier.fused");
        let aot = with_aot(true, || run("core.tier.aot"));
        self.layer("core.tier.slow.ns_per_cycle", slow, "ns/cycle");
        self.layer("core.tier.decoded.ns_per_cycle", decoded, "ns/cycle");
        self.layer("core.tier.fused.ns_per_cycle", fused, "ns/cycle");
        self.layer("core.tier.aot.ns_per_cycle", aot, "ns/cycle");
    }

    /// Records `trace.overhead` (untraced over traced `jobs_per_s`, minus
    /// 1), prints each span name's self time, and records as
    /// `trace.span_coverage` the share of the traced windows' wall time
    /// (times `threads`) that root spans cover.
    pub fn trace_summary(
        &mut self,
        tracer: &Tracer,
        untraced: &Throughput,
        traced: &[Window],
        threads: usize,
    ) {
        let traced_t = summarize(traced);
        self.layer(
            "trace.overhead",
            ratio(untraced.jobs_per_s, traced_t.jobs_per_s) - 1.0,
            "ratio",
        );
        let spans = tracer.spans();
        let ranges: Vec<(u64, u64)> = traced.iter().map(|w| w.span_ns).collect();
        let wall_ns: u64 = ranges.iter().map(|(from, to)| to - from).sum();
        self.lines.push(format!(
            "spans: {} recorded; self time per layer call (all phases):",
            spans.len()
        ));
        for (name, t) in layer_times(&spans) {
            self.lines.push(format!(
                "  {name:<36} calls {:>8}  total {:>10.3} ms  self {:>10.3} ms  self/call {:>10.3} us",
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.self_ns as f64 / 1e3 / t.calls.max(1) as f64,
            ));
        }
        let share = ratio(
            root_ns_within(&spans, &ranges) as f64,
            wall_ns as f64 * threads as f64,
        );
        self.lines.push(format!(
            "spans cover {share:.4} of the traced windows ({threads} thread(s) x {:.3} s)",
            wall_ns as f64 / 1e9
        ));
        self.layer("trace.span_coverage", share, "ratio");
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `(0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sorts and returns `values`.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// One fixed-work slice of a timed loop.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Host seconds the slice took.
    pub wall_s: f64,
    /// Verified completions.
    pub jobs: u64,
    /// Simulated cycles of those completions.
    pub cycles: u64,
    /// Per-operation latencies in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Tracer clock at the window's start and end.
    pub span_ns: (u64, u64),
}

/// Splits a traced run's windows into the traced (even) and untraced
/// (odd) ones. In an untraced run every window is untraced.
pub fn split_windows(windows: &[Window], traced: bool) -> (Vec<Window>, Vec<Window>) {
    if !traced || windows.len() < 2 {
        return (Vec::new(), windows.to_vec());
    }
    (
        windows.iter().step_by(2).cloned().collect(),
        windows.iter().skip(1).step_by(2).cloned().collect(),
    )
}

/// End-to-end figures of a timed loop.
#[derive(Clone, Debug)]
pub struct Throughput {
    /// Verified completions per host second.
    pub jobs_per_s: f64,
    /// Simulated megacycles per host second.
    pub mcyc_per_s: f64,
    /// Median latency.
    pub p50_ms: f64,
    /// 90th-percentile latency.
    pub p90_ms: f64,
    /// 99th-percentile latency.
    pub p99_ms: f64,
    /// 99.9th-percentile latency.
    pub p999_ms: f64,
    /// Latency samples.
    pub samples: usize,
}

/// Quantile of the per-window rates that the end-to-end rates report.
///
/// The host alternates between a fast and a slow state many times a
/// second, and the share of time it spends fast changes from one minute
/// to the next, while its speed within each state holds (see the
/// README). The median window lands on either state depending on that
/// share; the lower quartile sits in the slow state in every run.
const RATE_QUANTILE: f64 = 0.25;

/// The [`RATE_QUANTILE`] of `count(window) / window.wall_s`.
fn window_rate(windows: &[Window], count: impl Fn(&Window) -> u64) -> f64 {
    let rates = windows
        .iter()
        .map(|w| ratio(count(w) as f64, w.wall_s))
        .collect();
    quantile(&sorted(rates), RATE_QUANTILE)
}

/// Summarizes a timed loop made of short fixed-work windows.
///
/// The rates are the [`RATE_QUANTILE`] of the per-window rates, so a
/// change that slows a quarter or more of the windows moves them while
/// the slowest quarter (stalls) does not. The latency percentiles are
/// taken over every sample of the windows.
pub fn summarize(windows: &[Window]) -> Throughput {
    let latencies = sorted(
        windows
            .iter()
            .flat_map(|w| w.latencies_ms.iter().copied())
            .collect(),
    );
    Throughput {
        jobs_per_s: window_rate(windows, |w| w.jobs),
        mcyc_per_s: window_rate(windows, |w| w.cycles) / 1e6,
        p50_ms: quantile(&latencies, 0.50),
        p90_ms: quantile(&latencies, 0.90),
        p99_ms: quantile(&latencies, 0.99),
        p999_ms: quantile(&latencies, 0.999),
        samples: latencies.len(),
    }
}

impl Throughput {
    /// One line stating the latency percentiles and their sample count.
    pub fn latency_line(&self, what: &str) -> String {
        let beyond =
            self.samples - ((self.samples as f64 * 0.999).ceil() as usize).min(self.samples);
        format!(
            "latency per {what}: p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms, p99.9 {:.4} ms over {} \
             samples ({beyond} beyond p99.9)",
            self.p50_ms, self.p90_ms, self.p99_ms, self.p999_ms, self.samples
        )
    }
}

/// One line with the spread of the windows' completion rates.
pub fn window_line(windows: &[Window]) -> String {
    let rates = sorted(
        windows
            .iter()
            .map(|w| ratio(w.jobs as f64, w.wall_s))
            .collect(),
    );
    format!(
        "window rates (jobs/s) over {} windows: min {:.1}, q1 {:.1}, median {:.1}, q3 {:.1}, max {:.1}",
        rates.len(),
        quantile(&rates, 0.0),
        quantile(&rates, 0.25),
        median(&rates),
        quantile(&rates, 0.75),
        quantile(&rates, 1.0),
    )
}

/// Pushes the end-to-end metrics shared by every workload.
pub fn push_e2e(report: &mut Report, setup_s: f64, t: &Throughput, sim_cycles: u64) {
    let e2e = &mut report.e2e;
    e2e.push(Metric::new("setup_s", setup_s, "s"));
    e2e.push(Metric::new("jobs_per_s", t.jobs_per_s, "jobs/s"));
    e2e.push(Metric::new("host_mcyc_per_s", t.mcyc_per_s, "Mcyc/s"));
    e2e.push(Metric::new("latency_p90_ms", t.p90_ms, "ms"));
    e2e.push(Metric::new("sim_cycles", sim_cycles as f64, "cycles"));
    e2e.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
}

/// Set-ups timed per run.
pub const SETUP_REPS: usize = 9;

/// The set-up timings of one run. The first set-up is timed from process
/// start, so it alone pays the once-per-process costs; the others run
/// between windows, spread over the timed loop, so they meet the same
/// host states as the windows do. `setup_s` is their median; the cold
/// first set-up is printed beside it.
pub struct Setups {
    times: Vec<f64>,
    every: usize,
}

impl Setups {
    /// Runs the first set-up; `windows` is the number of windows the
    /// timed loop will have.
    pub fn first<T>(
        process_start: Instant,
        windows: usize,
        setup: impl FnOnce() -> Result<T, String>,
    ) -> Result<(T, Setups), String> {
        let out = setup()?;
        let setups = Setups {
            times: vec![process_start.elapsed().as_secs_f64()],
            every: (windows / SETUP_REPS).max(1),
        };
        Ok((out, setups))
    }

    /// Whether another set-up is due before window `k`.
    pub fn due(&self, k: usize) -> bool {
        k > 0 && k.is_multiple_of(self.every) && self.times.len() < SETUP_REPS
    }

    /// Runs and times one more set-up.
    pub fn again<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let start = Instant::now();
        let out = setup()?;
        self.times.push(start.elapsed().as_secs_f64());
        Ok(out)
    }

    /// Median set-up time.
    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }

    /// One line with the median, the cold first set-up and every time.
    pub fn line(&self) -> String {
        let times: Vec<String> = self.times.iter().map(|s| format!("{s:.5}")).collect();
        format!(
            "set-up: median {:.5} s over {} set-ups; cold (from process start) {:.5} s; all: {}",
            self.median_s(),
            self.times.len(),
            self.times[0],
            times.join(" ")
        )
    }
}

/// A field of `/proc/self/status`, in kB.
fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set of this process in kB.
pub fn rss_kb() -> f64 {
    status_kb("VmRSS:")
}

/// Where traced runs write their span files: next to the benchmark
/// executable, inside the build directory of the checkout.
pub fn output_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Directory of the program corpus, resolved at build time so the
/// binary and its tests find the same checkout.
pub fn programs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../programs")
}

/// Times `f` `reps` times and returns the median in microseconds.
pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}
