//! The work-stealing batch runner and its aggregate reports.
//!
//! [`BatchRunner`] executes a slice of [`Job`]s on `N` scoped OS threads.
//! Scheduling is a single shared atomic cursor: each worker claims the
//! next unclaimed execution unit, so fast workers steal the tail of the
//! batch from slow ones and no static partition can go unbalanced.
//! Results land in per-job slots, so the report order always matches
//! submission order regardless of which worker ran what.
//!
//! **Lane fusion** (on by default, see [`BatchRunner::with_lane_fusion`]):
//! jobs that load an *identical* object program onto identically sized
//! machines with the same `Cycles(n)` budget — the shape of a parameter
//! sweep, where only the input streams differ — are grouped into one
//! execution unit of up to [`MAX_LANES`] lanes, under the same
//! [`group_eligible`]/[`groupable`] rule the service scheduler packs by.
//! The unit is a [`LaneGroup`]: it steps all its machines in lockstep
//! through shared fused bursts ([`systolic_ring_core::lockstep_burst`]),
//! amortizing the compiled schedule walk across the whole group; whatever
//! the burst cannot cover (warmup, controller activity) runs per machine
//! through the ordinary single-lane path. Every other job runs alone on a
//! [`RunningJob`] too, so outcomes are bit-identical to running each job
//! alone — [`BatchRunner::run_serial`] stays the reference.
//!
//! Fault isolation: a job that returns a simulator fault, exceeds its
//! budget, or outright panics produces a [`JobOutcome::Fault`] in its own
//! report slot; the remaining jobs are unaffected. A simulator fault in
//! one lane of a fused group detaches only that lane; a panic anywhere in
//! a group falls the whole group back to isolated per-job execution.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use systolic_ring_core::Stats;

use crate::job::{Job, JobFault, JobOutcome, JobReport, RecoveryStats, SLICE_CYCLES};
use crate::preempt::{group_eligible, groupable, LaneGroup, RunningJob};

/// Maximum machines stepped in lockstep by one fused group.
pub const MAX_LANES: usize = 16;

/// Runs batches of jobs across worker threads.
#[derive(Clone, Debug)]
pub struct BatchRunner {
    workers: usize,
    lane_fusion: bool,
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::new()
    }
}

impl BatchRunner {
    /// A runner sized to `std::thread::available_parallelism()`.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        BatchRunner {
            workers,
            lane_fusion: true,
        }
    }

    /// A runner with an explicit worker count (`0` is clamped to 1).
    pub fn with_workers(workers: usize) -> Self {
        BatchRunner {
            workers: workers.max(1),
            lane_fusion: true,
        }
    }

    /// Enables or disables lane-fused group execution (see the module
    /// docs; default on). With lane fusion off every job is its own
    /// execution unit, exactly the pre-fusion behaviour.
    pub fn with_lane_fusion(mut self, enabled: bool) -> Self {
        self.lane_fusion = enabled;
        self
    }

    /// The worker-thread count this runner uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job and returns the batch report (submission order).
    ///
    /// Jobs carrying a deferred builder error — a builder misuse or a
    /// failed object pre-flight lint (see
    /// [`Job::from_object`](crate::job::Job::from_object)) — are rejected
    /// before scheduling: their report slots are pre-filled with the
    /// [`JobFault::Config`] outcome and no execution unit is planned for
    /// them, so a bad object never reaches a worker thread.
    pub fn run(&self, jobs: &[Job]) -> BatchReport {
        let started = Instant::now();
        let mut slots: Vec<Option<JobReport>> = Vec::new();
        slots.resize_with(jobs.len(), || None);
        for (index, job) in jobs.iter().enumerate() {
            if let Some(msg) = job.builder_error() {
                slots[index] = Some(JobReport {
                    index,
                    name: job.name.clone(),
                    wall: Duration::ZERO,
                    outcome: JobOutcome::Fault(JobFault::Config(msg.to_owned())),
                    recovery: RecoveryStats::default(),
                });
            }
        }
        let schedulable = |index: &usize| jobs[*index].builder_error().is_none();
        let units = if self.lane_fusion {
            plan_units(jobs)
        } else {
            (0..jobs.len())
                .filter(schedulable)
                .map(Unit::Single)
                .collect()
        };
        let slots = Mutex::new(slots);
        let cursor = AtomicUsize::new(0);
        let workers = self.workers.min(units.len()).max(1);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let unit = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(unit) = units.get(unit) else {
                        break;
                    };
                    let reports = match unit {
                        Unit::Single(index) => vec![execute(*index, &jobs[*index])],
                        Unit::Group(indices) => execute_group(indices, jobs),
                    };
                    let mut slots = slots.lock().expect("report lock");
                    for report in reports {
                        let index = report.index;
                        slots.get_mut(index).expect("slot").replace(report);
                    }
                });
            }
        });

        let reports = slots
            .into_inner()
            .expect("report lock")
            .into_iter()
            .map(|slot| slot.expect("every job executed"))
            .collect();
        BatchReport {
            reports,
            wall: started.elapsed(),
            workers,
        }
    }

    /// Runs every job on the calling thread (the serial baseline the
    /// speedup figures and determinism tests compare against).
    pub fn run_serial(jobs: &[Job]) -> BatchReport {
        let started = Instant::now();
        let reports = jobs
            .iter()
            .enumerate()
            .map(|(index, job)| execute(index, job))
            .collect();
        BatchReport {
            reports,
            wall: started.elapsed(),
            workers: 1,
        }
    }
}

/// Executes one job, translating panics into faults.
fn execute(index: usize, job: &Job) -> JobReport {
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| crate::job::run(job)));
    let (outcome, recovery) = match result {
        Ok((Ok(output), recovery)) => (JobOutcome::Completed(output), recovery),
        Ok((Err(fault), recovery)) => (JobOutcome::Fault(fault), recovery),
        Err(panic) => (
            JobOutcome::Fault(JobFault::Panic(panic_message(&panic))),
            RecoveryStats::default(),
        ),
    };
    JobReport {
        index,
        name: job.name.clone(),
        wall: started.elapsed(),
        outcome,
        recovery,
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// One schedulable work item: a lone job, or a lane-fused group of jobs
/// sharing an identical machine configuration.
enum Unit {
    Single(usize),
    Group(Vec<usize>),
}

/// Partitions a batch into execution units, bucketing [`group_eligible`]
/// jobs by [`groupable`]. Buckets cap at [`MAX_LANES`]; a bucket that
/// ends up with a single member is demoted back to a plain single unit.
fn plan_units(jobs: &[Job]) -> Vec<Unit> {
    let mut units: Vec<Unit> = Vec::new();
    // Members per bucket, the first one representative — linear scan is
    // fine: batch sizes are small and the group key has no cheap hash.
    let mut buckets: Vec<Vec<usize>> = Vec::new();
    for (index, job) in jobs.iter().enumerate() {
        if job.builder_error().is_some() {
            // Rejected before scheduling; its report slot is pre-filled.
            continue;
        }
        if !group_eligible(job) {
            units.push(Unit::Single(index));
            continue;
        }
        let bucket = buckets
            .iter_mut()
            .find(|members| members.len() < MAX_LANES && groupable(&jobs[members[0]], job));
        match bucket {
            Some(members) => members.push(index),
            None => buckets.push(vec![index]),
        }
    }
    for members in buckets {
        if members.len() > 1 {
            units.push(Unit::Group(members));
        } else {
            units.push(Unit::Single(members[0]));
        }
    }
    units
}

/// Executes a lane-fused group as one [`LaneGroup`] advanced a
/// [`SLICE_CYCLES`] slice at a time until every lane is done, falling back
/// to isolated per-job execution when any machine fails to build (so each
/// job reports its own error) or the group panics. The fallback re-runs
/// every member from scratch, so a panic costs the group one wasted
/// partial run but never a wrong result.
fn execute_group(indices: &[usize], jobs: &[Job]) -> Vec<JobReport> {
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let lanes = indices
            .iter()
            .map(|&index| RunningJob::start(&jobs[index]))
            .collect::<Result<Vec<_>, _>>()
            .ok()?;
        let mut group = LaneGroup::new(lanes);
        while group.advance(SLICE_CYCLES) > 0 {}
        let outcomes: Vec<JobOutcome> = group
            .into_lanes()
            .into_iter()
            .map(RunningJob::finish)
            .collect();
        Some(outcomes)
    }));
    match result {
        Ok(Some(outcomes)) => {
            // Per-lane wall time is the group's elapsed time split evenly:
            // the lanes ran concurrently, so no per-lane figure exists.
            let wall = started.elapsed() / indices.len().max(1) as u32;
            indices
                .iter()
                .zip(outcomes)
                .map(|(&index, outcome)| JobReport {
                    index,
                    name: jobs[index].name.clone(),
                    wall,
                    outcome,
                    recovery: RecoveryStats::default(),
                })
                .collect()
        }
        _ => indices
            .iter()
            .map(|&index| execute(index, &jobs[index]))
            .collect(),
    }
}

/// The result of one batch run.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-job reports in submission order.
    pub reports: Vec<JobReport>,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Worker threads actually used.
    pub workers: usize,
}

impl BatchReport {
    /// `true` when both batches produced identical per-job outcomes
    /// (outputs, cycle counts and statistics; wall times and recovery
    /// records are ignored). Engine-internal counters — decode-cache and
    /// fused-burst bookkeeping — are excluded from the statistics
    /// comparison: they describe how the simulator ran, not what the
    /// machine did, and legitimately differ between a lane-fused run and
    /// a serial one.
    pub fn outcomes_match(&self, other: &BatchReport) -> bool {
        fn outcome_eq(a: &JobOutcome, b: &JobOutcome) -> bool {
            match (a, b) {
                (JobOutcome::Completed(x), JobOutcome::Completed(y)) => {
                    x.outputs == y.outputs
                        && x.cycles == y.cycles
                        && x.stats.without_cache_counters() == y.stats.without_cache_counters()
                }
                _ => a == b,
            }
        }
        self.reports.len() == other.reports.len()
            && self
                .reports
                .iter()
                .zip(&other.reports)
                .all(|(a, b)| a.name == b.name && outcome_eq(&a.outcome, &b.outcome))
    }

    /// Aggregates the batch into summary figures.
    pub fn summary(&self) -> BatchSummary {
        let mut merged = Stats::new(0);
        let mut completed = 0usize;
        let mut faulted = 0usize;
        let mut recovered = 0usize;
        let mut faults_detected = 0u64;
        let mut total_cycles = 0u64;
        let mut serial_wall = Duration::ZERO;
        let mut histogram = [0usize; 10];
        for report in &self.reports {
            serial_wall += report.wall;
            faults_detected += u64::from(report.recovery.faults_detected);
            if report.recovery.recovered {
                recovered += 1;
            }
            match &report.outcome {
                JobOutcome::Completed(out) => {
                    completed += 1;
                    total_cycles += out.cycles;
                    merged.merge(&out.stats);
                    let bucket = ((out.stats.utilization() * 10.0) as usize).min(9);
                    histogram[bucket] += 1;
                }
                JobOutcome::Fault(_) => faulted += 1,
            }
        }
        let secs = self.wall.as_secs_f64();
        BatchSummary {
            jobs: self.reports.len(),
            completed,
            faulted,
            recovered,
            faults_detected,
            workers: self.workers,
            total_cycles,
            total_ops: merged.total_ops(),
            wall: self.wall,
            serial_wall,
            speedup: if secs > 0.0 {
                serial_wall.as_secs_f64() / secs
            } else {
                1.0
            },
            sim_mips: if secs > 0.0 {
                merged.total_ops() as f64 / secs / 1.0e6
            } else {
                0.0
            },
            cycles_per_sec: if secs > 0.0 {
                total_cycles as f64 / secs
            } else {
                0.0
            },
            utilization_histogram: histogram,
            merged,
        }
    }
}

/// Batch-level aggregate figures.
#[derive(Clone, Debug)]
pub struct BatchSummary {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that completed.
    pub completed: usize,
    /// Jobs that faulted (including panics).
    pub faulted: usize,
    /// Jobs that completed despite detected faults (rollback recovery).
    pub recovered: usize,
    /// Detected faults summed across every job's attempts.
    pub faults_detected: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Simulated cycles across completed jobs.
    pub total_cycles: u64,
    /// ALU + multiplier operations across completed jobs.
    pub total_ops: u64,
    /// Merged statistics across completed jobs.
    pub merged: Stats,
    /// Batch wall-clock time.
    pub wall: Duration,
    /// Sum of per-job wall times (the work a single thread would do).
    pub serial_wall: Duration,
    /// `serial_wall / wall` — observed parallel speedup.
    pub speedup: f64,
    /// Simulated operations per wall-clock second, in millions.
    pub sim_mips: f64,
    /// Simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Completed-job count per 10%-wide fabric-utilization bucket.
    pub utilization_histogram: [usize; 10],
}

impl BatchSummary {
    /// Renders the summary as an aligned text block.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "batch: {} jobs ({} completed, {} faulted, {} recovered) on {} workers",
            self.jobs, self.completed, self.faulted, self.recovered, self.workers
        );
        if self.faults_detected > 0 {
            let _ = writeln!(
                out,
                "  {} detected faults across all attempts",
                self.faults_detected
            );
        }
        let _ = writeln!(
            out,
            "  wall {:>10.3} ms   serial {:>10.3} ms   speedup {:>5.2}x",
            self.wall.as_secs_f64() * 1e3,
            self.serial_wall.as_secs_f64() * 1e3,
            self.speedup
        );
        let _ = writeln!(
            out,
            "  {:>12} simulated cycles   {:>12} ops   {:>8.2} sim-MIPS   {:>10.0} cycles/s",
            self.total_cycles, self.total_ops, self.sim_mips, self.cycles_per_sec
        );
        if self.merged.fused_cycles > 0 {
            let _ = writeln!(
                out,
                "  fused: {} bursts   {} compiles   {} cycles   {:.2} mean lanes",
                self.merged.fused_entries,
                self.merged.compiles,
                self.merged.fused_cycles,
                self.merged.fused_lane_occupancy as f64 / self.merged.fused_cycles as f64
            );
        }
        let _ = write!(out, "  utilization ");
        for (i, count) in self.utilization_histogram.iter().enumerate() {
            let _ = write!(out, "[{}0-{}0%:{}] ", i, i + 1, count);
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{CycleBudget, JobOutput};
    use systolic_ring_core::MachineParams;
    use systolic_ring_isa::dnode::{AluOp, DnodeMode, MicroInstr, Operand, Reg};
    use systolic_ring_isa::RingGeometry;

    fn mac_job(name: &str, cycles: u64) -> Job {
        Job::from_config(
            name.to_owned(),
            RingGeometry::RING_8,
            MachineParams::PAPER,
            |m| {
                let mac = MicroInstr::op(AluOp::Mac, Operand::One, Operand::One).write_reg(Reg::R0);
                for d in 0..m.geometry().dnodes() {
                    m.set_local_program(d, &[mac])?;
                    m.set_mode(d, DnodeMode::Local);
                }
                Ok(())
            },
            CycleBudget::Cycles(cycles),
        )
    }

    #[test]
    fn batch_matches_serial_bit_for_bit() {
        let jobs: Vec<Job> = (0..12).map(|i| mac_job(&format!("j{i}"), 50 + i)).collect();
        let parallel = BatchRunner::with_workers(4).run(&jobs);
        let serial = BatchRunner::run_serial(&jobs);
        assert!(parallel.outcomes_match(&serial));
        assert_eq!(parallel.summary().completed, 12);
    }

    #[test]
    fn report_order_matches_submission_order() {
        let jobs: Vec<Job> = (0..9).map(|i| mac_job(&format!("j{i}"), 10)).collect();
        let report = BatchRunner::with_workers(3).run(&jobs);
        for (i, r) in report.reports.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.name, format!("j{i}"));
        }
    }

    #[test]
    fn a_panicking_job_does_not_poison_the_batch() {
        let mut jobs = vec![mac_job("ok-0", 20)];
        jobs.push(Job::custom("bomb", || panic!("deliberate test panic")));
        jobs.push(mac_job("ok-1", 20));
        let report = BatchRunner::with_workers(2).run(&jobs);
        let summary = report.summary();
        assert_eq!(summary.completed, 2);
        assert_eq!(summary.faulted, 1);
        match &report.reports[1].outcome {
            JobOutcome::Fault(JobFault::Panic(msg)) => {
                assert!(msg.contains("deliberate test panic"))
            }
            other => panic!("expected panic fault, got {other:?}"),
        }
    }

    #[test]
    fn custom_jobs_flow_through() {
        let job = Job::custom("fixed", || {
            Ok(JobOutput {
                outputs: vec![vec![1, 2, 3]],
                cycles: 7,
                stats: Stats::new(1),
            })
        });
        let report = BatchRunner::with_workers(1).run(&[job]);
        let out = report.reports[0].outcome.output().expect("completed");
        assert_eq!(out.outputs[0], vec![1, 2, 3]);
        assert_eq!(report.summary().total_cycles, 7);
    }

    #[test]
    fn summary_merges_stats_and_renders() {
        let jobs: Vec<Job> = (0..4).map(|i| mac_job(&format!("j{i}"), 100)).collect();
        let report = BatchRunner::with_workers(2).run(&jobs);
        let summary = report.summary();
        assert_eq!(summary.total_cycles, 400);
        // 8 Dnodes all MACing every cycle in every job.
        assert_eq!(summary.merged.cycles, 400);
        assert_eq!(summary.total_ops, 4 * 100 * 8 * 2);
        assert_eq!(summary.utilization_histogram[9], 4);
        let text = summary.render();
        assert!(text.contains("4 jobs"));
        assert!(text.contains("speedup"));
    }

    #[test]
    fn zero_and_oversubscribed_worker_counts_are_clamped() {
        assert_eq!(BatchRunner::with_workers(0).workers(), 1);
        let jobs = vec![mac_job("only", 5)];
        let report = BatchRunner::with_workers(64).run(&jobs);
        assert_eq!(report.workers, 1); // clamped to job count
        assert_eq!(report.summary().completed, 1);
    }

    use systolic_ring_isa::ctrl::CtrlInstr;
    use systolic_ring_isa::object::{Object, Preload};
    use systolic_ring_isa::switch::{HostCapture, PortSource};
    use systolic_ring_isa::Word16;

    /// An object program: Dnode (0,0) computes `in + 1` from host port
    /// (0,0), captured at switch 1 port 0; controller halts immediately,
    /// so a long run settles into fused steady state.
    fn increment_object() -> Object {
        let instr = MicroInstr::op(AluOp::Add, Operand::In1, Operand::One).write_out();
        Object {
            geometry: Some(RingGeometry::RING_8),
            contexts: 0,
            code: vec![CtrlInstr::Halt.encode()],
            data: vec![],
            preload: vec![
                Preload::SwitchPort {
                    ctx: 0,
                    switch: 0,
                    lane: 0,
                    input: 0,
                    word: PortSource::HostIn { port: 0 }.encode(),
                },
                Preload::DnodeInstr {
                    ctx: 0,
                    dnode: 0,
                    word: instr.encode(),
                },
                Preload::HostCapture {
                    ctx: 0,
                    switch: 1,
                    port: 0,
                    word: HostCapture::lane(0).encode(),
                },
            ],
        }
    }

    fn stream_job(name: &str, base: i16) -> Job {
        let words: Vec<Word16> = (0..32).map(|i| Word16::from_i16(base + i)).collect();
        Job::from_object(
            name.to_owned(),
            RingGeometry::RING_8,
            MachineParams::PAPER,
            increment_object(),
            // Several SLICE_CYCLES worth: the first slice starts with a
            // running controller and goes lane by lane, later slices hit
            // the shared lockstep burst.
            CycleBudget::Cycles(4 * SLICE_CYCLES),
        )
        .with_input(0, 0, words)
        .with_sink(1, 0)
    }

    #[test]
    fn lane_fused_batch_matches_serial() {
        let jobs: Vec<Job> = (0..8)
            .map(|i| stream_job(&format!("s{i}"), i * 100))
            .collect();
        let fused = BatchRunner::with_workers(2).run(&jobs);
        let serial = BatchRunner::run_serial(&jobs);
        assert!(fused.outcomes_match(&serial));
        let merged = fused.summary().merged;
        // The group actually ran multi-lane: occupancy strictly exceeds
        // the fused cycle count (which it equals at one lane).
        assert!(merged.fused_lane_occupancy > merged.fused_cycles);
        // And the outputs are right: each lane streams `base + i + 1`.
        for (i, report) in fused.reports.iter().enumerate() {
            let out = report.outcome.output().expect("completed");
            let base = i as i16 * 100;
            assert!(out.outputs[0].contains(&(base + 1)));
            assert!(out.outputs[0].contains(&(base + 31 + 1)));
        }
    }

    #[test]
    fn lane_fusion_toggle_and_mixed_batches() {
        // Object jobs, a config-closure job and a custom job in one batch:
        // only the object jobs group; everything still matches serial.
        let mut jobs: Vec<Job> = (0..4)
            .map(|i| stream_job(&format!("s{i}"), i * 10))
            .collect();
        jobs.push(mac_job("cfg", 50));
        jobs.push(Job::custom("fixed", || {
            Ok(JobOutput {
                outputs: vec![vec![9]],
                cycles: 3,
                stats: Stats::new(1),
            })
        }));
        let fused = BatchRunner::with_workers(3).run(&jobs);
        let unfused = BatchRunner::with_workers(3)
            .with_lane_fusion(false)
            .run(&jobs);
        let serial = BatchRunner::run_serial(&jobs);
        assert!(fused.outcomes_match(&serial));
        assert!(unfused.outcomes_match(&serial));
    }

    #[test]
    fn lane_groups_cap_at_max_lanes() {
        let jobs: Vec<Job> = (0..MAX_LANES + 4)
            .map(|i| stream_job(&format!("s{i}"), i as i16))
            .collect();
        let units = plan_units(&jobs);
        let mut group_sizes: Vec<usize> = units
            .iter()
            .filter_map(|u| match u {
                Unit::Group(members) => Some(members.len()),
                Unit::Single(_) => None,
            })
            .collect();
        group_sizes.sort_unstable();
        assert_eq!(group_sizes, vec![4, MAX_LANES]);
        // Different budgets split groups.
        let mut mixed = vec![stream_job("a", 0), stream_job("b", 1)];
        mixed.push(
            Job::from_object(
                "c",
                RingGeometry::RING_8,
                MachineParams::PAPER,
                increment_object(),
                CycleBudget::Cycles(700),
            )
            .with_sink(1, 0),
        );
        let units = plan_units(&mixed);
        assert_eq!(
            units.iter().filter(|u| matches!(u, Unit::Group(_))).count(),
            1
        );
        assert_eq!(
            units
                .iter()
                .filter(|u| matches!(u, Unit::Single(_)))
                .count(),
            1
        );
    }

    /// An object that fails the static lint never reaches a worker: the
    /// job carries a deferred builder error, is excluded from unit
    /// planning and its report slot is pre-filled with a `Config` fault.
    #[test]
    fn lint_rejected_object_is_refused_before_scheduling() {
        let mut object = increment_object();
        object.preload.push(Preload::SwitchPort {
            ctx: 0,
            switch: 99, // far beyond RING_8's 4 switches
            lane: 0,
            input: 0,
            word: PortSource::Zero.encode(),
        });
        let bad = Job::from_object(
            "bad",
            RingGeometry::RING_8,
            MachineParams::PAPER,
            object.clone(),
            CycleBudget::Cycles(10),
        );
        assert!(bad.builder_error().unwrap().contains("pre-flight lint"));
        let jobs = vec![bad, stream_job("ok", 0)];
        let report = BatchRunner::with_workers(2).run(&jobs);
        match &report.reports[0].outcome {
            JobOutcome::Fault(JobFault::Config(msg)) => {
                assert!(msg.contains("pre-flight lint"), "{msg}")
            }
            other => panic!("expected pre-flight rejection, got {other:?}"),
        }
        assert!(report.reports[1].outcome.output().is_some());
        assert!(report.outcomes_match(&BatchRunner::run_serial(&jobs)));

        // The escape hatch skips the lint entirely.
        let unchecked = Job::from_object_unchecked(
            "unchecked",
            RingGeometry::RING_8,
            MachineParams::PAPER,
            object,
            CycleBudget::Cycles(10),
        );
        assert!(unchecked.builder_error().is_none());
    }

    #[test]
    fn ineligible_jobs_stay_single() {
        let eligible = stream_job("ok", 0);
        assert!(group_eligible(&eligible));
        let with_retry = stream_job("retry", 0).with_retry(crate::job::RetryPolicy::retries(1));
        assert!(!group_eligible(&with_retry));
        let with_wall = stream_job("wall", 0).with_wall_limit(std::time::Duration::from_secs(1000));
        assert!(!group_eligible(&with_wall));
        let unfused = stream_job("unfused", 0).with_fused(false);
        assert!(!group_eligible(&unfused));
        assert!(!group_eligible(&mac_job("cfg", 10)));
    }
}
