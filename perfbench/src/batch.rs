//! The batch-runner probe, run in `service_path`'s traced mode.
//!
//! A design-space sweep through `BatchRunner`: each sweep point is one
//! `BatchRunner::run` call with nproc workers over two families of jobs:
//!
//! 1. one round of the 11-family oracle suite (`kernels::batch::
//!    oracle_suite` at a fixed seed, so the shapes never change), short
//!    golden-checked jobs where driver set-up dominates;
//! 2. one program of the `programs/` corpus run as 16 lane-fusable
//!    `Job::from_object` jobs with seeded inputs and a long `Cycles(n)`
//!    budget, checked against slow-tier reference runs.
//!
//! Two workers racing other tenants for a 2-vCPU host make the sweep's
//! host time too unsteady for an end-to-end bound, so it measures the
//! runner's layer metrics only (see the README).

use systolic_ring_core::{MachineParams, Stats};
use systolic_ring_harness::job::{CycleBudget, Job, JobOutcome};
use systolic_ring_harness::runner::{BatchReport, BatchRunner};
use systolic_ring_harness::testkit::TestRng;
use systolic_ring_isa::Word16;
use systolic_ring_kernels::batch::oracle_suite;

use crate::corpus::{geometry_of, Program};
use crate::measure::{median, ratio, Report};
use crate::span::Tracer;

/// Distinct sweep points, one oracle round each.
const POINTS: usize = 16;
/// Seed of the oracle suite: fixed, so its shapes and cycles never change.
const ORACLE_SEED: u64 = 0x5eed_ba7c;
/// Lanes per corpus point: one full lane-fused group.
const LANES: usize = 16;
/// `Cycles(n)` budget of every corpus job.
const CORPUS_BUDGET: u64 = 2048;
/// Passes over the sweep points.
const PASSES: usize = 4;

type Inputs = Vec<(usize, usize, Vec<i16>)>;

fn corpus_job(program: &Program, inputs: &Inputs, lane: usize) -> Job {
    let mut job = Job::from_object(
        format!("{}#{lane}", program.name),
        geometry_of(&program.object),
        MachineParams::PAPER,
        program.object.clone(),
        CycleBudget::Cycles(CORPUS_BUDGET),
    );
    for (switch, port, words) in inputs {
        job = job.with_input(*switch, *port, words.iter().map(|&w| Word16::from_i16(w)));
    }
    for &(switch, port) in &program.sinks {
        job = job.with_sink(switch, port);
    }
    job
}

/// One sweep point: the batch handed to a single `BatchRunner::run`.
struct Point {
    jobs: Vec<Job>,
    /// Expected sink streams per job: the oracle's golden outputs, then
    /// slow-tier runs of the corpus lanes.
    expected: Vec<Vec<Vec<i16>>>,
    oracle_jobs: usize,
}

fn points(seed: u64, programs: &[Program], runner: &BatchRunner) -> Result<Vec<Point>, String> {
    let mut oracle = oracle_suite(ORACLE_SEED, POINTS).into_iter();
    let per_round = oracle.len() / POINTS;
    let mut rng = TestRng::new(seed);
    let mut points = Vec::with_capacity(POINTS);
    for p in 0..POINTS {
        let program = &programs[p % programs.len()];
        let (mut jobs, mut expected): (Vec<Job>, Vec<Vec<Vec<i16>>>) = oracle
            .by_ref()
            .take(per_round)
            .map(|case| (case.job, case.expected))
            .unzip();
        let mut slow = Vec::with_capacity(LANES);
        for lane in 0..LANES {
            let inputs: Inputs = program
                .inputs
                .iter()
                .map(|&(s, port)| (s, port, rng.vec_i16(CORPUS_BUDGET as usize, -100..100)))
                .collect();
            let job = corpus_job(program, &inputs, lane);
            if let Some(err) = job.builder_error() {
                return Err(format!("{}: {err}", program.name));
            }
            jobs.push(job);
            slow.push(corpus_job(program, &inputs, lane).with_decode_cache(false));
        }
        for r in &runner.run(&slow).reports {
            let out = r
                .outcome
                .output()
                .ok_or_else(|| format!("slow-tier reference {} failed: {:?}", r.name, r.outcome))?;
            expected.push(out.outputs.clone());
        }
        points.push(Point {
            jobs,
            expected,
            oracle_jobs: per_round,
        });
    }
    Ok(points)
}

/// Verified jobs of one batch report; merges their statistics.
fn verify(point: &Point, report: &BatchReport, merged: &mut Stats) -> u64 {
    let mut ok = 0;
    for (r, want) in report.reports.iter().zip(&point.expected) {
        if let JobOutcome::Completed(out) = &r.outcome {
            if &out.outputs == want {
                ok += 1;
                merged.merge(&out.stats);
            }
        }
    }
    ok
}

/// Runs the sweep and records the runner's layer metrics. Every job is
/// checked; mismatches count as failed operations of the run.
pub fn probes(
    report: &mut Report,
    tracer: &Tracer,
    seed: u64,
    programs: &[Program],
) -> Result<(), String> {
    let runner = BatchRunner::new();
    let points = points(seed, programs, &runner)?;
    runner.run(&points[0].jobs);

    let mut merged = Stats::new(0);
    let (mut busy_s, mut batch_s) = (0.0, 0.0);
    let mut oracle_ms = Vec::new();
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    for (call, point) in points.iter().cycle().take(PASSES * POINTS).enumerate() {
        let batch = tracer.span("harness.runner.run", call as u64, || {
            runner.run(&point.jobs)
        });
        let ok = tracer.span("bench.verify", call as u64, || {
            verify(point, &batch, &mut merged)
        });
        report.attempted += point.jobs.len() as u64;
        report.failed += point.jobs.len() as u64 - ok;
        busy_s += batch
            .reports
            .iter()
            .map(|r| r.wall.as_secs_f64())
            .sum::<f64>();
        batch_s += batch.wall.as_secs_f64() * runner.workers() as f64;
        oracle_ms.extend(
            batch.reports[..point.oracle_jobs]
                .iter()
                .map(|r| r.wall.as_secs_f64() * 1e3),
        );
        parallel.push(batch.wall.as_secs_f64());
        // Serial and parallel runs of the same job list alternate.
        let alone = tracer.span("harness.runner.run_serial", call as u64, || {
            BatchRunner::run_serial(&point.jobs)
        });
        serial.push(alone.wall.as_secs_f64());
    }

    report.layer(
        "harness.runner.lane_occupancy",
        ratio(
            merged.fused_lane_occupancy as f64,
            merged.fused_cycles as f64,
        ),
        "lanes",
    );
    report.layer("harness.runner.busy_share", ratio(busy_s, batch_s), "ratio");
    report.layer(
        "harness.runner.serial_speedup",
        ratio(median(&serial), median(&parallel)),
        "ratio",
    );
    report.layer("kernels.oracle.job_ms", median(&oracle_ms), "ms");
    let oracle_s = oracle_ms.iter().sum::<f64>() / 1e3;
    report.lines.push(format!(
        "batch probe: {} BatchRunner::run calls ({POINTS} sweep points of {} oracle jobs + {LANES} \
         corpus lanes at Cycles({CORPUS_BUDGET})) on {} workers; worker time: oracle {:.1}%, \
         corpus lanes {:.1}%",
        PASSES * POINTS,
        points[0].oracle_jobs,
        runner.workers(),
        100.0 * ratio(oracle_s, busy_s),
        100.0 * ratio(busy_s - oracle_s, busy_s)
    ));
    Ok(())
}
