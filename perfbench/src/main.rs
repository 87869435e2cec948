//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload paper_motion|service_path
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload builds its inputs from `--seed`, runs a fixed amount of
//! work sized from `--seconds`, checks every output bit-exact against an
//! independent reference, and prints each metric by name and unit. The
//! last stdout line is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. See `perfbench/README.md` for what
//! each workload and metric is for.

mod batch;
mod corpus;
mod measure;
mod motion;
mod service;
mod span;

use std::process::ExitCode;
use std::time::Instant;

use measure::Report;
use span::Tracer;
use systolic_ring_server::Json;

/// The benchmark's description at the repository root. Its `end_to_end`
/// and `per_layer` lists are the metrics the two modes print, in order.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in the spec's list `key`.
fn spec_metrics(key: &str) -> Vec<(String, String)> {
    let spec = Json::parse(SPEC).expect("BENCHMARK.json parses");
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json lists the metrics")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Nominal run length; the amount of work is derived from it.
    pub seconds: f64,
    /// Traced mode.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Runs one workload; `process_start` is where its first set-up starts.
pub fn run_workload(
    args: &Args,
    tracer: &Tracer,
    process_start: Instant,
) -> Result<Report, String> {
    match args.workload.as_str() {
        "paper_motion" => motion::run(args, tracer, process_start),
        "service_path" => service::run(args, tracer, process_start),
        other => Err(format!(
            "unknown workload {other} (paper_motion, service_path)"
        )),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let report = match run_workload(&args, &tracer, process_start) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("perfbench: {}: {msg}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    let (wanted, provided) = if args.trace {
        (spec_metrics("per_layer"), &report.layers)
    } else {
        (spec_metrics("end_to_end"), &report.e2e)
    };
    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        let (value, note) = match provided.iter().find(|m| m.name == name && m.unit == unit) {
            Some(m) => (m.value, ""),
            None if args.trace => (0.0, "  (layer not on this workload's path)"),
            None => {
                eprintln!("perfbench: {} did not measure {name}", args.workload);
                return ExitCode::FAILURE;
            }
        };
        println!("  {name:<36} {value:>14.6} {unit}{note}");
        metrics.push((name, value, unit));
    }
    if args.trace {
        let path =
            measure::output_dir().join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match tracer.write_tsv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", report.json(&metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact counters of a short run: everything the simulator counts,
    /// which must not depend on host timing.
    fn exact_counters(workload: &str, seed: u64) -> Vec<(String, f64)> {
        let args = Args {
            workload: workload.into(),
            seed,
            seconds: 0.2,
            trace: true,
        };
        let tracer = Tracer::new(true);
        let report = run_workload(&args, &tracer, Instant::now()).expect("workload runs");
        assert_eq!(
            report.failed, 0,
            "{workload} seed {seed}: failed operations"
        );
        let exact = [
            "sim_cycles",
            "core.compiled_share",
            "harness.runner.lane_occupancy",
            "core.arch.ctx_switches",
            "core.arch.config_writes",
            "core.arch.ctrl_stall_cycles",
            "core.fused.entries",
            "core.plan.misses",
        ];
        report
            .e2e
            .iter()
            .chain(&report.layers)
            .filter(|m| exact.contains(&m.name))
            .map(|m| (m.name.to_owned(), m.value))
            .collect()
    }

    fn check_repeats(workload: &str) {
        let mut by_seed = Vec::new();
        for seed in [3, 11] {
            let first = exact_counters(workload, seed);
            let second = exact_counters(workload, seed);
            assert!(!first.is_empty(), "{workload}: no exact counters reported");
            assert_eq!(first, second, "{workload} seed {seed}: counters moved");
            by_seed.push(first);
        }
        let sim = |c: &[(String, f64)]| c.iter().find(|(n, _)| n == "sim_cycles").map(|(_, v)| *v);
        assert_eq!(
            sim(&by_seed[0]),
            sim(&by_seed[1]),
            "{workload}: sim_cycles depends on the seed"
        );
    }

    #[test]
    fn paper_motion_counters_repeat_exactly() {
        check_repeats("paper_motion");
    }

    #[test]
    fn service_path_counters_repeat_exactly() {
        check_repeats("service_path");
    }
}
