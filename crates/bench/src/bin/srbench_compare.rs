//! `srbench-compare` — the perf-trajectory regression gate.
//!
//! ```sh
//! srbench-compare [--baseline <dir>] [--fresh <dir>] [--tolerance <fraction>]
//! ```
//!
//! Without `--fresh`, re-runs every trajectory suite **and** the
//! conformance corpus in-process (wall-clock-free: no timing loops) and
//! compares the results against the checked-in `BENCH_*.json` baselines
//! under `--baseline` (default `.`). With `--fresh`, compares the
//! `BENCH_*.json` files found in that directory instead — the mode
//! `ci.sh` uses to smoke-test that `report -- json` output round-trips
//! through the comparator.
//!
//! Only wall-clock-free metrics are gated (simulated cycles, fused
//! coverage, lane occupancy, pass verdicts, scheduler counters); `mcyc_per_s` is
//! informational. Any gated metric regressing by more than the
//! tolerance (default 10%) fails with a stable `SR-B1xx` code; see
//! `systolic_ring_bench::compare` for the code table and DESIGN.md §13
//! for why the gate is wall-clock-free.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use systolic_ring_bench::compare::{self, Comparison, DEFAULT_TOLERANCE};
use systolic_ring_bench::record::{conformance_file, BenchFile};
use systolic_ring_bench::trajectory::{self, CONFORMANCE_FILE, TRAJECTORY_FILES};
use systolic_ring_harness::conformance;

fn usage() -> ExitCode {
    eprintln!("usage: srbench-compare [--baseline <dir>] [--fresh <dir>] [--tolerance <fraction>]");
    ExitCode::from(2)
}

fn load(dir: &Path, name: &str) -> Result<BenchFile, String> {
    let path = dir.join(name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{e}"))?;
    BenchFile::parse(&text).map_err(|e| e.to_string())
}

/// Compares one suite's fresh run against its baseline file, folding
/// `SR-B101` in when the baseline is unreadable.
fn gate_suite(
    out: &mut Comparison,
    baseline_dir: &Path,
    name: &str,
    fresh: &BenchFile,
    tolerance: f64,
) {
    match load(baseline_dir, name) {
        Ok(baseline) => out.merge(compare::compare_files(&baseline, fresh, tolerance)),
        Err(detail) => out.failures.push(compare::missing_baseline(name, &detail)),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_dir = PathBuf::from(".");
    let mut fresh_dir: Option<PathBuf> = None;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => match it.next() {
                Some(path) => baseline_dir = PathBuf::from(path),
                None => return usage(),
            },
            "--fresh" => match it.next() {
                Some(path) => fresh_dir = Some(PathBuf::from(path)),
                None => return usage(),
            },
            "--tolerance" => match it.next().and_then(|t| t.parse::<f64>().ok()) {
                Some(t) if (0.0..1.0).contains(&t) => tolerance = t,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let mut outcome = Comparison::default();
    match fresh_dir {
        Some(fresh) => {
            // File mode: gate every suite file present in the fresh dir.
            let mut seen = 0usize;
            for (_, name) in TRAJECTORY_FILES.iter().chain([&("", CONFORMANCE_FILE)]) {
                match load(&fresh, name) {
                    Ok(file) => {
                        seen += 1;
                        gate_suite(&mut outcome, &baseline_dir, name, &file, tolerance);
                    }
                    Err(_) => println!("srbench-compare: {name} not in fresh dir, skipped"),
                }
            }
            if seen == 0 {
                eprintln!(
                    "srbench-compare: no BENCH_*.json found under {}",
                    fresh.display()
                );
                return ExitCode::FAILURE;
            }
        }
        None => {
            // In-process mode: fresh-run every suite, wall-clock-free.
            for (suite, name) in TRAJECTORY_FILES {
                println!("srbench-compare: running suite {suite}");
                let fresh = trajectory::run_suite(suite, None).expect("known suite");
                gate_suite(&mut outcome, &baseline_dir, name, &fresh, tolerance);
            }
            println!("srbench-compare: running suite conformance");
            match conformance::run_dir(Path::new("programs")) {
                Ok(report) => gate_suite(
                    &mut outcome,
                    &baseline_dir,
                    CONFORMANCE_FILE,
                    &conformance_file(&report),
                    tolerance,
                ),
                Err(e) => {
                    eprintln!("srbench-compare: conformance run failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    for note in &outcome.notes {
        println!("srbench-compare: note: {note}");
    }
    for failure in &outcome.failures {
        eprintln!("srbench-compare: FAIL {failure}");
    }
    println!(
        "srbench-compare: {} records compared, {} notes, {} failures (tolerance {:.0}%)",
        outcome.compared,
        outcome.notes.len(),
        outcome.failures.len(),
        tolerance * 100.0
    );
    if outcome.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
