//! The regression comparator behind `srbench-compare` — the CI perf
//! gate.
//!
//! A comparison joins a *baseline* suite (a checked-in `BENCH_*.json`)
//! against a *fresh* run of the same suite on `(workload, tier)` and
//! applies the gating rules of the [record schema](crate::record): only
//! wall-clock-free metrics are compared (simulated cycles, fused
//! coverage, lane occupancy, pass verdicts, scheduler counters — all
//! deterministic for a given tree), `mcyc_per_s` is never compared, and
//! any gated metric moving the wrong way by more than the tolerance
//! (default [`DEFAULT_TOLERANCE`] = 10%) is a failure. Rationale for
//! gating on simulated metrics instead of wall-clock is in DESIGN.md
//! §13.
//!
//! Outcomes carry stable codes, continuing the `SR-B` range the parser
//! starts:
//!
//! | code | meaning |
//! |------|---------|
//! | `SR-B101` | baseline file or suite missing |
//! | `SR-B102` | a baseline `(workload, tier)` is absent from the fresh run |
//! | `SR-B103` | a gated metric regressed beyond the tolerance |
//! | `SR-B104` | a `pass: true` baseline turned `false` |
//!
//! A workload present only in the fresh run is *not* a failure — new
//! workloads are how the trajectory grows — but it is reported as a
//! note so the baseline gets regenerated in the same PR. Improvements
//! beyond the tolerance are likewise notes: the gate nags you to
//! re-baseline so the next regression is measured from the better
//! number.

use crate::record::{BenchFile, BenchRecord};

/// Relative tolerance applied to every gated metric: 10%.
pub const DEFAULT_TOLERANCE: f64 = 0.10;

/// One gate failure, with its stable `SR-B1xx` code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// Stable code (`SR-B101`..`SR-B104`, see the module docs).
    pub code: &'static str,
    /// Human-readable detail naming the suite, workload, tier and
    /// metric.
    pub message: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// The outcome of comparing one suite (or a whole baseline set).
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// `(workload, tier)` pairs that were compared and passed the gate.
    pub compared: usize,
    /// Non-fatal observations: new workloads, improvements worth
    /// re-baselining.
    pub notes: Vec<String>,
    /// Gate failures; any entry fails CI.
    pub failures: Vec<Failure>,
}

impl Comparison {
    /// `true` when no gate failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Folds another comparison (e.g. the next suite) into this one.
    pub fn merge(&mut self, other: Comparison) {
        self.compared += other.compared;
        self.notes.extend(other.notes);
        self.failures.extend(other.failures);
    }
}

/// Where a gated metric is allowed to move.
enum Direction {
    /// Lower is better (cycles): an *increase* past tolerance
    /// regresses.
    Lower,
    /// Higher is better (coverage, occupancy): a *decrease* past
    /// tolerance regresses.
    Higher,
    /// Deterministic scheduler counters (preemptions, rejections at a
    /// fixed offered load): a shift past tolerance in *either* direction
    /// regresses — the scheduler changed behavior, and the baseline must
    /// be regenerated deliberately, not drift silently.
    Stable,
}

fn gate_metric(
    out: &mut Comparison,
    context: &str,
    metric: &str,
    baseline: f64,
    fresh: f64,
    tolerance: f64,
    direction: Direction,
) {
    let (regressed, improved) = match direction {
        Direction::Lower => (
            fresh > baseline * (1.0 + tolerance),
            fresh < baseline * (1.0 - tolerance),
        ),
        Direction::Higher => (
            fresh < baseline * (1.0 - tolerance),
            fresh > baseline * (1.0 + tolerance),
        ),
        Direction::Stable => (
            fresh > baseline * (1.0 + tolerance) || fresh < baseline * (1.0 - tolerance),
            false,
        ),
    };
    if regressed {
        out.failures.push(Failure {
            code: "SR-B103",
            message: format!(
                "{context}: {metric} regressed {baseline} -> {fresh} \
                 (tolerance {:.0}%)",
                tolerance * 100.0
            ),
        });
    } else if improved {
        out.notes.push(format!(
            "{context}: {metric} improved {baseline} -> {fresh} — consider regenerating the baseline"
        ));
    }
}

/// Compares one fresh record against its baseline.
fn compare_record(
    out: &mut Comparison,
    suite: &str,
    baseline: &BenchRecord,
    fresh: &BenchRecord,
    tolerance: f64,
) {
    let context = format!("{suite}/{}@{}", baseline.workload, baseline.tier);
    gate_metric(
        out,
        &context,
        "simulated cycles",
        baseline.cycles as f64,
        fresh.cycles as f64,
        tolerance,
        Direction::Lower,
    );
    if let (Some(base), Some(new)) = (baseline.fused_coverage, fresh.fused_coverage) {
        gate_metric(
            out,
            &context,
            "fused coverage",
            base,
            new,
            tolerance,
            Direction::Higher,
        );
    } else if baseline.fused_coverage.is_some() && fresh.fused_coverage.is_none() {
        out.failures.push(Failure {
            code: "SR-B103",
            message: format!("{context}: fused coverage disappeared from the fresh run"),
        });
    }
    if let (Some(base), Some(new)) = (baseline.lane_occupancy, fresh.lane_occupancy) {
        gate_metric(
            out,
            &context,
            "lane occupancy",
            base,
            new,
            tolerance,
            Direction::Higher,
        );
    } else if baseline.lane_occupancy.is_some() && fresh.lane_occupancy.is_none() {
        out.failures.push(Failure {
            code: "SR-B103",
            message: format!("{context}: lane occupancy disappeared from the fresh run"),
        });
    }
    for (metric, base, new) in [
        ("preemptions", baseline.preemptions, fresh.preemptions),
        ("rejected", baseline.rejected, fresh.rejected),
    ] {
        // Scripted-mode scheduler counters: deterministic, so any shift
        // beyond tolerance (from a zero baseline: any shift at all) is a
        // behavior change the gate must surface.
        match (base, new) {
            (Some(base), Some(new)) => gate_metric(
                out,
                &context,
                metric,
                base as f64,
                new as f64,
                tolerance,
                Direction::Stable,
            ),
            (Some(_), None) => out.failures.push(Failure {
                code: "SR-B103",
                message: format!("{context}: {metric} disappeared from the fresh run"),
            }),
            _ => {}
        }
    }
    if baseline.pass == Some(true) && fresh.pass == Some(false) {
        out.failures.push(Failure {
            code: "SR-B104",
            message: format!("{context}: pass verdict flipped true -> false"),
        });
    }
    out.compared += 1;
}

/// Compares a fresh suite against its baseline suite.
///
/// Every baseline `(workload, tier)` must appear in the fresh run
/// (`SR-B102` otherwise); fresh-only rows are reported as notes.
pub fn compare_files(baseline: &BenchFile, fresh: &BenchFile, tolerance: f64) -> Comparison {
    let mut out = Comparison::default();
    for base in &baseline.records {
        match fresh.find(&base.workload, &base.tier) {
            Some(new) => compare_record(&mut out, &baseline.suite, base, new, tolerance),
            None => out.failures.push(Failure {
                code: "SR-B102",
                message: format!(
                    "{}/{}@{}: present in the baseline but missing from the fresh run",
                    baseline.suite, base.workload, base.tier
                ),
            }),
        }
    }
    for new in &fresh.records {
        if baseline.find(&new.workload, &new.tier).is_none() {
            out.notes.push(format!(
                "{}/{}@{}: new workload, not in the baseline — regenerate BENCH_*.json to start tracking it",
                fresh.suite, new.workload, new.tier
            ));
        }
    }
    out
}

/// The `SR-B101` failure for a baseline that could not be loaded.
pub fn missing_baseline(name: &str, detail: &str) -> Failure {
    Failure {
        code: "SR-B101",
        message: format!("baseline {name}: {detail}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, tier: &str, cycles: u64) -> BenchRecord {
        BenchRecord {
            workload: workload.into(),
            geometry: "Ring-16 (4x4)".into(),
            tier: tier.into(),
            cycles,
            mcyc_per_s: Some(2.0),
            ..BenchRecord::default()
        }
    }

    fn suite(records: Vec<BenchRecord>) -> BenchFile {
        BenchFile {
            suite: "test_suite".into(),
            records,
        }
    }

    #[test]
    fn identical_runs_pass() {
        let base = suite(vec![record("w", "fused", 1000)]);
        let cmp = compare_files(&base, &base, DEFAULT_TOLERANCE);
        assert!(cmp.passed());
        assert_eq!(cmp.compared, 1);
        assert!(cmp.notes.is_empty());
    }

    #[test]
    fn cycle_regression_beyond_tolerance_fails() {
        let base = suite(vec![record("w", "fused", 1000)]);
        let fresh = suite(vec![record("w", "fused", 1101)]);
        let cmp = compare_files(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(!cmp.passed());
        assert_eq!(cmp.failures[0].code, "SR-B103");
        assert!(cmp.failures[0].message.contains("simulated cycles"));
    }

    #[test]
    fn cycle_drift_within_tolerance_is_tolerated() {
        let base = suite(vec![record("w", "fused", 1000)]);
        let fresh = suite(vec![record("w", "fused", 1099)]);
        assert!(compare_files(&base, &fresh, DEFAULT_TOLERANCE).passed());
    }

    #[test]
    fn big_improvement_passes_with_a_rebaseline_note() {
        let base = suite(vec![record("w", "fused", 1000)]);
        let fresh = suite(vec![record("w", "fused", 500)]);
        let cmp = compare_files(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(cmp.passed());
        assert!(cmp.notes[0].contains("improved"), "{:?}", cmp.notes);
    }

    #[test]
    fn new_workload_is_a_note_not_a_failure() {
        let base = suite(vec![record("w", "fused", 1000)]);
        let fresh = suite(vec![record("w", "fused", 1000), record("new", "fused", 42)]);
        let cmp = compare_files(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(cmp.passed());
        assert!(cmp.notes.iter().any(|n| n.contains("new workload")));
    }

    #[test]
    fn workload_missing_from_fresh_run_fails() {
        let base = suite(vec![record("w", "fused", 1000), record("gone", "slow", 7)]);
        let fresh = suite(vec![record("w", "fused", 1000)]);
        let cmp = compare_files(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(cmp.failures.len(), 1);
        assert_eq!(cmp.failures[0].code, "SR-B102");
    }

    #[test]
    fn coverage_and_occupancy_gate_downward() {
        let mut base_rec = record("w", "fused", 1000);
        base_rec.fused_coverage = Some(0.9);
        base_rec.lane_occupancy = Some(16.0);
        let mut fresh_rec = base_rec.clone();
        fresh_rec.fused_coverage = Some(0.7);
        fresh_rec.lane_occupancy = Some(12.0);
        let cmp = compare_files(
            &suite(vec![base_rec]),
            &suite(vec![fresh_rec]),
            DEFAULT_TOLERANCE,
        );
        assert_eq!(cmp.failures.len(), 2, "{:?}", cmp.failures);
        assert!(cmp.failures.iter().all(|f| f.code == "SR-B103"));
    }

    #[test]
    fn pass_flip_fails_with_sr_b104() {
        let mut base_rec = record("w", "slow", 100);
        base_rec.pass = Some(true);
        let mut fresh_rec = base_rec.clone();
        fresh_rec.pass = Some(false);
        let cmp = compare_files(
            &suite(vec![base_rec]),
            &suite(vec![fresh_rec]),
            DEFAULT_TOLERANCE,
        );
        assert_eq!(cmp.failures[0].code, "SR-B104");
    }

    #[test]
    fn wall_clock_throughput_is_never_gated() {
        let base = suite(vec![record("w", "fused", 1000)]);
        let mut fresh = base.clone();
        fresh.records[0].mcyc_per_s = Some(0.0001);
        assert!(compare_files(&base, &fresh, DEFAULT_TOLERANCE).passed());
    }

    #[test]
    fn wall_clock_latency_fields_are_never_gated() {
        let mut base_rec = record("svc", "scripted", 1000);
        base_rec.jobs_per_s = Some(500.0);
        base_rec.p50_ms = Some(2.0);
        base_rec.p99_ms = Some(5.0);
        let mut fresh_rec = base_rec.clone();
        fresh_rec.jobs_per_s = Some(1.0);
        fresh_rec.p50_ms = Some(900.0);
        fresh_rec.p99_ms = None;
        let cmp = compare_files(
            &suite(vec![base_rec]),
            &suite(vec![fresh_rec]),
            DEFAULT_TOLERANCE,
        );
        assert!(cmp.passed(), "{:?}", cmp.failures);
    }

    #[test]
    fn service_counters_gate_shifts_in_both_directions() {
        let mut base_rec = record("svc", "scripted", 1000);
        base_rec.preemptions = Some(4);
        base_rec.rejected = Some(16);
        // Fewer rejections at the same offered load is a failure too: it
        // means the queue quietly grew.
        let mut fresh_rec = base_rec.clone();
        fresh_rec.preemptions = Some(6);
        fresh_rec.rejected = Some(8);
        let cmp = compare_files(
            &suite(vec![base_rec.clone()]),
            &suite(vec![fresh_rec]),
            DEFAULT_TOLERANCE,
        );
        assert_eq!(cmp.failures.len(), 2, "{:?}", cmp.failures);
        assert!(cmp.failures.iter().all(|f| f.code == "SR-B103"));
        // Identical counters pass without notes.
        let cmp = compare_files(
            &suite(vec![base_rec.clone()]),
            &suite(vec![base_rec]),
            DEFAULT_TOLERANCE,
        );
        assert!(cmp.passed());
        assert!(cmp.notes.is_empty());
    }

    #[test]
    fn any_shift_from_a_zero_preemption_baseline_fails() {
        let mut base_rec = record("svc", "scripted", 1000);
        base_rec.preemptions = Some(0);
        let mut fresh_rec = base_rec.clone();
        fresh_rec.preemptions = Some(1);
        let cmp = compare_files(
            &suite(vec![base_rec]),
            &suite(vec![fresh_rec]),
            DEFAULT_TOLERANCE,
        );
        assert_eq!(cmp.failures[0].code, "SR-B103");
        assert!(cmp.failures[0].message.contains("preemptions"));
    }

    #[test]
    fn service_counter_disappearance_fails() {
        let mut base_rec = record("svc", "scripted", 1000);
        base_rec.rejected = Some(16);
        let fresh_rec = record("svc", "scripted", 1000);
        let cmp = compare_files(
            &suite(vec![base_rec]),
            &suite(vec![fresh_rec]),
            DEFAULT_TOLERANCE,
        );
        assert_eq!(cmp.failures[0].code, "SR-B103");
        assert!(cmp.failures[0].message.contains("disappeared"));
    }

    #[test]
    fn missing_baseline_has_a_stable_code() {
        assert_eq!(
            missing_baseline("BENCH_x.json", "no such file").code,
            "SR-B101"
        );
    }
}
