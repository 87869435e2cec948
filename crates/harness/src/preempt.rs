//! Incremental, checkpoint-preemptible job execution: the harness's only
//! machine-job executor.
//!
//! Every machine job runs on the types here. The single-shot executor
//! behind [`BatchRunner`](crate::runner::BatchRunner) and the conformance
//! runner starts a [`RunningJob`], advances it one [`SLICE_CYCLES`] slice
//! at a time (checking its wall-clock limit and applying its retry policy
//! between slices) and finishes it; a lane-fused batch unit and a service
//! unit are both a [`LaneGroup`] grouped by [`group_eligible`] and
//! [`groupable`]. Because a job is resumable between any two calls, a
//! multi-tenant service can make a long batch job *yield* the shared pool
//! to interactive traffic and come back later without losing work or
//! changing its answer:
//!
//! * [`RunningJob`] — one machine job being executed slice by slice. Its
//!   [`RunningJob::advance`] owns the budget-boundary accounting and its
//!   [`RunningJob::finish`] the sink drain, so an interrupted run is
//!   bit-identical to an uninterrupted one by construction.
//! * [`SuspendedJob`] — a parked job: a
//!   [`systolic_ring_core::Checkpoint`] plus the job metadata
//!   needed to resume. The live machine is dropped at suspension —
//!   preemption really is checkpoint-based, not thread-parking — and
//!   [`SuspendedJob::resume`] rehydrates a machine that continues exactly
//!   where the old one stopped (sink buffers and partially consumed input
//!   streams travel inside the checkpoint image).
//! * [`LaneGroup`] — up to [`MAX_LANES`](crate::runner::MAX_LANES)
//!   running jobs stepped in cycle lockstep through shared fused bursts.
//!   A lane that faults is detached and the survivors continue; the whole
//!   group can be suspended between slices and resumed lane by lane.
//!
//! # What preemption does and does not change
//!
//! Architectural results — sink streams, halt cycles, machine state — are
//! bit-identical across any preempt/resume schedule, including schedules
//! that cut a fused window in half (the resumed machine simply re-enters
//! fusion when it next can; entering fusion is an engine decision, never
//! an architectural one). The *recovery counters*
//! ([`Stats::checkpoints`](systolic_ring_core::Stats) and `restores`)
//! legitimately count the preemption activity itself, and engine-internal
//! cache/fusion counters may differ; equivalence is judged on outputs and
//! cycles, the same contract as
//! [`BatchReport::outcomes_match`](crate::runner::BatchReport).
//!
//! # What cannot be preempted
//!
//! Custom jobs own their machines, so there is nothing to checkpoint:
//! [`RunningJob::start`] rejects them as a [`JobFault::Config`]. Retry
//! policies are also rejected: rollback-retry keeps its own post-setup
//! checkpoint whose interaction with external suspension is deliberately
//! out of scope — a service retries at the admission layer instead (see
//! [`RetryPolicy::delay`](crate::job::RetryPolicy::delay) for the
//! client-side schedule), and only the single-shot executor, which never
//! suspends, starts retrying jobs. Wall-clock limits are the *caller's*
//! job here: a scheduler checks deadlines between [`RunningJob::advance`]
//! calls, where it also makes its preemption decisions.

use systolic_ring_core::{lockstep_burst, Checkpoint, RingMachine, SimError};

use crate::job::{
    CycleBudget, Job, JobFault, JobOutcome, JobOutput, JobSetup, JobWork, SinkRef, SLICE_CYCLES,
};

/// `true` when `job` can be executed preemptibly by [`RunningJob::start`]:
/// a machine job with no retry policy and no deferred builder error.
pub fn preemptible(job: &Job) -> bool {
    job.builder_error().is_none()
        && !job.retry.is_active()
        && matches!(job.work, JobWork::Machine(_))
}

/// `true` when `job` may share a [`LaneGroup`] with other jobs — the one
/// grouping rule of the batch runner and the service scheduler.
///
/// Eligible means the outcome is a pure function of (configuration,
/// inputs) with no per-job execution policy attached: a preemptible
/// assembled-object machine job with a fixed `Cycles(n)` budget, the
/// fused engine and decode cache on, and no fault injection (neither
/// [`Job::faults`] nor armed `params.faults`), watchdog or wall limit.
/// An armed lane makes [`lockstep_burst`] refuse the whole group, so such
/// jobs run as their own unit instead of costing lane-mates every burst.
pub fn group_eligible(job: &Job) -> bool {
    let JobWork::Machine(mj) = &job.work else {
        return false;
    };
    let p = &mj.params;
    preemptible(job)
        && job.faults.is_none()
        && job.wall_limit.is_none()
        && matches!(mj.setup, JobSetup::Object(_))
        && matches!(mj.budget, CycleBudget::Cycles(_))
        && p.fused
        && p.decode_cache
        && p.watchdog_interval == 0
        && !p.faults.is_active()
}

/// `true` when two [`group_eligible`] jobs belong in the same
/// [`LaneGroup`]: same geometry, machine parameters, budget and object
/// program. Inputs and sinks are per-lane state and may differ.
pub fn groupable(a: &Job, b: &Job) -> bool {
    let (JobWork::Machine(x), JobWork::Machine(y)) = (&a.work, &b.work) else {
        return false;
    };
    x.geometry == y.geometry
        && x.params == y.params
        && x.budget == y.budget
        && matches!((&x.setup, &y.setup), (JobSetup::Object(p), JobSetup::Object(q)) if p == q)
}

/// One machine job being executed incrementally on the caller's thread.
#[derive(Debug)]
pub struct RunningJob {
    name: String,
    pub(crate) machine: RingMachine,
    sinks: Vec<SinkRef>,
    budget: CycleBudget,
    pub(crate) fault: Option<JobFault>,
    /// The simulator error behind a [`JobFault::Sim`] latched by
    /// [`RunningJob::advance`], kept so the single-shot executor can
    /// classify it and repair a stuck Dnode before a retry. Retrying jobs
    /// never suspend, so it does not travel through a checkpoint.
    pub(crate) error: Option<SimError>,
}

impl RunningJob {
    /// Builds the job's machine and returns it poised at cycle 0.
    ///
    /// Fails with the same [`JobFault::Config`] the batch runner would
    /// produce for a deferred builder error or a rejected configuration,
    /// plus two preemption-specific rejections: custom jobs (nothing to
    /// checkpoint) and jobs carrying an active retry policy (see the
    /// module docs).
    pub fn start(job: &Job) -> Result<RunningJob, JobFault> {
        if let Some(msg) = job.builder_error() {
            return Err(JobFault::Config(msg.to_owned()));
        }
        if job.retry.is_active() {
            return Err(JobFault::Config(
                "retry policies cannot run preemptibly: retry at the admission layer".into(),
            ));
        }
        RunningJob::launch(job)
    }

    /// [`RunningJob::start`] without the builder-error and retry-policy
    /// rejections: the single-shot executor checks the former itself and
    /// applies the retry policy between slices. Builds, configures and
    /// wires the machine (object load or the setup closure; sinks; input
    /// streams).
    pub(crate) fn launch(job: &Job) -> Result<RunningJob, JobFault> {
        let JobWork::Machine(mj) = &job.work else {
            return Err(JobFault::Config(
                "custom jobs own their machines and cannot be checkpoint-preempted".into(),
            ));
        };
        let mut params = mj.params;
        if let Some(cfg) = job.faults {
            params = params.with_faults(cfg);
        }
        let mut machine = RingMachine::new(mj.geometry, params);
        match &mj.setup {
            JobSetup::Object(object) => {
                machine
                    .load(object)
                    .map_err(|e| JobFault::Config(e.to_string()))?;
            }
            JobSetup::Configure(setup) => {
                setup(&mut machine).map_err(|e| JobFault::Config(e.to_string()))?
            }
        }
        for sink in &mj.sinks {
            machine
                .open_sink(sink.switch, sink.port)
                .map_err(|e| JobFault::Config(e.to_string()))?;
        }
        for input in &mj.inputs {
            machine
                .attach_input(input.switch, input.port, input.words.iter().copied())
                .map_err(|e| JobFault::Config(e.to_string()))?;
        }
        Ok(RunningJob {
            name: job.name.clone(),
            machine,
            sinks: mj.sinks.clone(),
            budget: mj.budget,
            fault: None,
            error: None,
        })
    }

    /// The job's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current simulated cycle.
    pub fn cycle(&self) -> u64 {
        self.machine.cycle()
    }

    /// The absolute cycle bound of this job's budget.
    pub fn max_cycles(&self) -> u64 {
        match self.budget {
            CycleBudget::Cycles(n) => n,
            CycleBudget::UntilHalt { max_cycles } => max_cycles,
        }
    }

    /// Budget cycles still to run (0 once done).
    pub fn remaining(&self) -> u64 {
        if self.is_done() {
            0
        } else {
            self.max_cycles() - self.machine.cycle()
        }
    }

    /// `true` once the job needs no further [`RunningJob::advance`]:
    /// faulted, budget consumed, or (for `UntilHalt`) halted.
    pub fn is_done(&self) -> bool {
        if self.fault.is_some() || self.machine.cycle() >= self.max_cycles() {
            return true;
        }
        matches!(self.budget, CycleBudget::UntilHalt { .. })
            && self.machine.controller().is_halted()
    }

    /// The recorded fault, if the job has failed.
    pub fn fault(&self) -> Option<&JobFault> {
        self.fault.as_ref()
    }

    /// Runs up to `cycles` more cycles in [`SLICE_CYCLES`] slices,
    /// returning the cycles actually executed (less than requested when
    /// the job completes, halts or faults first). `Cycles(n)` budgets
    /// drive [`RingMachine::run`]; `UntilHalt` budgets delegate each slice
    /// to [`RingMachine::run_until_halt`], so budget-boundary accounting
    /// agrees with it by construction: a `CycleLimit` on a slice means
    /// exactly that slice ran, and a halt stops the count on the halt's
    /// own cycle. A fault is latched; further calls return 0.
    pub fn advance(&mut self, cycles: u64) -> u64 {
        let start = self.machine.cycle();
        let deadline = start.saturating_add(cycles).min(self.max_cycles());
        while self.fault.is_none() && self.machine.cycle() < deadline {
            if let CycleBudget::UntilHalt { .. } = self.budget {
                if self.machine.controller().is_halted() {
                    break;
                }
            }
            let slice = SLICE_CYCLES.min(deadline - self.machine.cycle());
            let stepped = match self.budget {
                CycleBudget::Cycles(_) => self.machine.run(slice),
                CycleBudget::UntilHalt { .. } => match self.machine.run_until_halt(slice) {
                    Ok(_) | Err(SimError::CycleLimit { .. }) => Ok(()),
                    Err(e) => Err(e),
                },
            };
            if let Err(e) = stepped {
                self.fault = Some(JobFault::Sim(e.to_string()));
                self.error = Some(e);
            }
        }
        if self.fault.is_none() {
            if let CycleBudget::UntilHalt { max_cycles } = self.budget {
                if self.machine.cycle() >= max_cycles && !self.machine.controller().is_halted() {
                    self.fault = Some(JobFault::Diverged { max_cycles });
                }
            }
        }
        self.machine.cycle() - start
    }

    /// Parks the job: snapshots the machine into a checkpoint and drops
    /// it. Sink buffers and partially consumed input streams are part of
    /// the image, so nothing is lost. Works in any state — a scheduler
    /// draining at shutdown suspends even jobs that just faulted, so the
    /// client can still be told what happened on resume.
    pub fn suspend(mut self) -> SuspendedJob {
        SuspendedJob {
            name: self.name,
            checkpoint: self.machine.checkpoint(),
            sinks: self.sinks,
            budget: self.budget,
            fault: self.fault,
        }
    }

    /// Consumes the job and produces its outcome: the latched fault, or
    /// the drained sink outputs of a completed run, one vector per sink in
    /// declaration order. Calling this before
    /// [`RunningJob::is_done`] is a scheduler bug and reports a
    /// [`JobFault::Workload`] rather than a truncated result.
    pub fn finish(mut self) -> JobOutcome {
        if let Some(fault) = self.fault {
            return JobOutcome::Fault(fault);
        }
        if !self.is_done() {
            return JobOutcome::Fault(JobFault::Workload(format!(
                "job finished early at cycle {} of {}",
                self.machine.cycle(),
                self.max_cycles()
            )));
        }
        let mut outputs = Vec::with_capacity(self.sinks.len());
        for sink in &self.sinks {
            match self.machine.take_sink(sink.switch, sink.port) {
                Ok(words) => outputs.push(words.into_iter().map(|w| w.as_i16()).collect()),
                Err(e) => return JobOutcome::Fault(JobFault::Config(e.to_string())),
            }
        }
        JobOutcome::Completed(JobOutput {
            outputs,
            cycles: self.machine.cycle(),
            stats: self.machine.stats().clone(),
        })
    }
}

/// A preempted job: checkpoint image plus resume metadata. The machine
/// that was running no longer exists.
#[derive(Debug)]
pub struct SuspendedJob {
    name: String,
    checkpoint: Checkpoint,
    sinks: Vec<SinkRef>,
    budget: CycleBudget,
    fault: Option<JobFault>,
}

impl SuspendedJob {
    /// The job's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cycle the job was suspended at.
    pub fn cycle(&self) -> u64 {
        self.checkpoint.cycle()
    }

    /// Rehydrates the machine from the checkpoint and hands back a
    /// [`RunningJob`] that continues bit-identically from the suspension
    /// point.
    pub fn resume(self) -> RunningJob {
        RunningJob {
            name: self.name,
            machine: self.checkpoint.hydrate(),
            sinks: self.sinks,
            budget: self.budget,
            fault: self.fault,
            error: None,
        }
    }
}

/// A cycle-synchronized set of [`RunningJob`]s sharing fused bursts: a
/// lane-fused batch unit of the runner, or a packed unit of the service.
///
/// Per advance, every live lane first advances through one shared
/// [`lockstep_burst`], then runs the remainder through its own
/// single-lane path (which may itself fuse). `lockstep_burst` verifies
/// program/phase identity across lanes at entry and refuses (returning 0)
/// otherwise, so a mismatched or fault-armed lane costs the whole group
/// its shared bursts but never correctness. That is why
/// [`group_eligible`] keeps armed jobs out of groups, and why a group
/// built by hand with an armed lane still isolates it: the armed lane
/// faults on its own single-lane path and is detached without its
/// lane-mates ever observing it.
///
/// Lanes are expected to share a `Cycles(n)` budget and start cycle (the
/// [`groupable`] key guarantees this); misaligned lanes still execute
/// correctly but forfeit shared bursts.
#[derive(Debug)]
pub struct LaneGroup {
    lanes: Vec<RunningJob>,
}

impl LaneGroup {
    /// Wraps running jobs into a lockstep group.
    pub fn new(lanes: Vec<RunningJob>) -> LaneGroup {
        debug_assert!(
            lanes
                .iter()
                .all(|l| matches!(l.budget, CycleBudget::Cycles(_))),
            "lane groups are for fixed-budget jobs"
        );
        LaneGroup { lanes }
    }

    /// Lanes still running (not done, not faulted).
    pub fn live(&self) -> usize {
        self.lanes.iter().filter(|l| !l.is_done()).count()
    }

    /// Per-lane liveness flags, in lane order (matching the caller's
    /// ticket bookkeeping) — for attributing an advanced slice to the
    /// lanes that actually executed it.
    pub fn live_mask(&self) -> Vec<bool> {
        self.lanes.iter().map(|l| !l.is_done()).collect()
    }

    /// `true` once every lane is done.
    pub fn is_done(&self) -> bool {
        self.live() == 0
    }

    /// The common cycle of the live lanes (`None` when all done). Lanes
    /// are advanced together, so live lanes share one cycle position.
    pub fn cycle(&self) -> Option<u64> {
        self.lanes.iter().find(|l| !l.is_done()).map(|l| l.cycle())
    }

    /// Advances every live lane by up to `cycles` cycles (clamped to the
    /// smallest live remaining budget, keeping lanes cycle-aligned for
    /// the next shared burst). Returns the cycles the group advanced.
    pub fn advance(&mut self, cycles: u64) -> u64 {
        let Some(cap) = self
            .lanes
            .iter()
            .filter(|l| !l.is_done())
            .map(|l| l.remaining())
            .min()
        else {
            return 0;
        };
        let slice = cycles.min(cap);
        if slice == 0 {
            return 0;
        }
        let burst = {
            let mut machines: Vec<&mut RingMachine> = self
                .lanes
                .iter_mut()
                .filter(|l| !l.is_done())
                .map(|l| &mut l.machine)
                .collect();
            lockstep_burst(&mut machines, slice)
        };
        // Live lanes are all at (cycle + burst); each runs the remainder
        // through its own path, latching any fault on its own lane only.
        for lane in &mut self.lanes {
            if !lane.is_done() {
                lane.advance(slice - burst);
            }
        }
        slice
    }

    /// Dissolves the group back into its lanes — the caller finishes the
    /// done ones and suspends the rest (preemption or drain).
    pub fn into_lanes(self) -> Vec<RunningJob> {
        self.lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, RetryPolicy};
    use crate::testkit::TestRng;
    use systolic_ring_core::{FaultConfig, MachineParams, Stats};
    use systolic_ring_isa::ctrl::CtrlInstr;
    use systolic_ring_isa::dnode::{AluOp, MicroInstr, Operand};
    use systolic_ring_isa::object::{Object, Preload};
    use systolic_ring_isa::switch::{HostCapture, PortSource};
    use systolic_ring_isa::{RingGeometry, Word16};

    /// The runner tests' increment-stream object: Dnode (0,0) computes
    /// `in + 1` from host port (0,0), captured at switch 1 port 0.
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

    fn stream_job_on(name: &str, base: i16, cycles: u64, params: MachineParams) -> Job {
        let words: Vec<Word16> = (0..48).map(|i| Word16::from_i16(base + i)).collect();
        Job::from_object(
            name.to_owned(),
            RingGeometry::RING_8,
            params,
            increment_object(),
            CycleBudget::Cycles(cycles),
        )
        .with_input(0, 0, words)
        .with_sink(1, 0)
    }

    fn stream_job(name: &str, base: i16, cycles: u64) -> Job {
        stream_job_on(name, base, cycles, MachineParams::PAPER)
    }

    fn outcome_of(job: &Job) -> JobOutcome {
        let mut r = RunningJob::start(job).expect("starts");
        while !r.is_done() {
            r.advance(u64::MAX);
        }
        r.finish()
    }

    /// Outputs/cycles equality — the `outcomes_match` contract.
    fn assert_equivalent(a: &JobOutcome, b: &JobOutcome) {
        match (a, b) {
            (JobOutcome::Completed(x), JobOutcome::Completed(y)) => {
                assert_eq!(x.outputs, y.outputs);
                assert_eq!(x.cycles, y.cycles);
                assert_eq!(
                    x.stats.without_cache_counters().without_recovery_counters(),
                    y.stats.without_cache_counters().without_recovery_counters()
                );
            }
            _ => assert_eq!(a, b),
        }
    }

    trait WithoutRecovery {
        fn without_recovery_counters(self) -> Stats;
    }
    impl WithoutRecovery for Stats {
        fn without_recovery_counters(mut self) -> Stats {
            self.checkpoints = 0;
            self.restores = 0;
            self
        }
    }

    #[test]
    fn incremental_run_matches_single_shot() {
        let job = stream_job("inc", 100, 3 * SLICE_CYCLES);
        let (single, _) = crate::job::run(&job);
        let single = single.expect("completes");
        match outcome_of(&job) {
            JobOutcome::Completed(out) => {
                assert_eq!(out.outputs, single.outputs);
                assert_eq!(out.cycles, single.cycles);
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn suspend_resume_is_bit_identical_at_random_boundaries() {
        let budget = 3 * SLICE_CYCLES;
        let job = stream_job("inc", 7, budget);
        let baseline = outcome_of(&job);
        let mut rng = TestRng::new(0x5eed);
        for _ in 0..6 {
            let mut r = RunningJob::start(&job).expect("starts");
            // A handful of random, deliberately slice-misaligned cuts.
            while !r.is_done() {
                let step = 1 + rng.below(budget);
                r.advance(step);
                if !r.is_done() {
                    let parked = r.suspend();
                    assert!(parked.cycle() < budget);
                    r = parked.resume();
                }
            }
            assert_equivalent(&r.finish(), &baseline);
        }
    }

    /// Preempt/resume equivalence holds on every execution tier — the
    /// decode-per-cycle reference path, the predecoded path, the fused
    /// steady-state engine and the ahead-of-time superblock cache — at
    /// arbitrary, deliberately awkward cycle boundaries. On the fused and
    /// aot tiers the cuts land *inside* compiled windows (the step
    /// schedule is slice-misaligned and the run still accumulates
    /// fused/aot cycles), exercising the module-doc claim that a resumed
    /// machine simply re-enters the compiled path when it next can. The
    /// four tiers must also agree with each other on outputs and
    /// cycles, so a tier-specific checkpoint bug cannot hide behind a
    /// same-tier baseline.
    #[test]
    fn suspend_resume_is_tier_independent_even_mid_fused_window() {
        let budget = 3 * SLICE_CYCLES;
        let tiers = [
            ("slow", MachineParams::PAPER.with_decode_cache(false)),
            ("decoded", MachineParams::PAPER.with_fused(false)),
            ("fused", MachineParams::PAPER.with_fused(true)),
            ("aot", MachineParams::PAPER.with_fused(true).with_aot(true)),
        ];
        let mut per_tier: Vec<(&str, JobOutput)> = Vec::new();
        for (tier, params) in tiers {
            let job = stream_job_on(tier, 11, budget, params);
            let baseline = outcome_of(&job);
            let mut rng = TestRng::new(0xF05E ^ tier.len() as u64);
            let mut cut_cycles = Vec::new();
            let mut fused_after_resume = 0;
            for _ in 0..4 {
                let mut r = RunningJob::start(&job).expect("starts");
                while !r.is_done() {
                    r.advance(1 + rng.below(2 * SLICE_CYCLES));
                    if !r.is_done() {
                        cut_cycles.push(r.cycle());
                        r = r.suspend().resume();
                    }
                }
                fused_after_resume += r.machine.stats().fused_cycles + r.machine.stats().aot_cycles;
                assert_equivalent(&r.finish(), &baseline);
            }
            assert!(
                cut_cycles.iter().any(|c| c % SLICE_CYCLES != 0),
                "{tier}: every cut landed on a slice boundary: {cut_cycles:?}"
            );
            if tier == "fused" || tier == "aot" {
                assert!(
                    fused_after_resume > 0,
                    "{tier} tier never entered a compiled burst across the preemption schedule"
                );
            }
            match baseline {
                JobOutcome::Completed(out) => per_tier.push((tier, out)),
                other => panic!("{tier}: expected completion, got {other:?}"),
            }
        }
        let (_, reference) = &per_tier[0];
        for (tier, out) in &per_tier[1..] {
            assert_eq!(out.outputs, reference.outputs, "{tier} outputs diverge");
            assert_eq!(out.cycles, reference.cycles, "{tier} cycles diverge");
        }
    }

    #[test]
    fn custom_and_retry_jobs_are_rejected() {
        let custom = Job::custom("opaque", || Err("never runs".into()));
        match RunningJob::start(&custom) {
            Err(JobFault::Config(msg)) => assert!(msg.contains("checkpoint"), "{msg}"),
            other => panic!("expected config fault, got {other:?}"),
        }
        let retry = stream_job("retry", 0, 64).with_retry(RetryPolicy::retries(1));
        assert!(!preemptible(&retry));
        match RunningJob::start(&retry) {
            Err(JobFault::Config(msg)) => assert!(msg.contains("admission layer"), "{msg}"),
            other => panic!("expected config fault, got {other:?}"),
        }
    }

    #[test]
    fn until_halt_budget_agrees_with_single_shot_at_boundaries() {
        let program = vec![
            CtrlInstr::Wait { cycles: 37 }.encode(),
            CtrlInstr::Halt.encode(),
        ];
        let halting = |max_cycles| {
            let program = program.clone();
            Job::from_config(
                "halting",
                RingGeometry::RING_8,
                MachineParams::PAPER,
                move |m| m.controller_mut().load_program(&program),
                CycleBudget::UntilHalt { max_cycles },
            )
        };
        let (single, _) = crate::job::run(&halting(10_000));
        let halted_at = single.expect("halts").cycles;
        // Incremental run in awkward 13-cycle steps, with a mid-run park.
        let mut r = RunningJob::start(&halting(10_000)).expect("starts");
        while !r.is_done() {
            r.advance(13);
            if r.cycle() == 26 {
                r = r.suspend().resume();
            }
        }
        match r.finish() {
            JobOutcome::Completed(out) => assert_eq!(out.cycles, halted_at),
            other => panic!("expected completion, got {other:?}"),
        }
        // One cycle short of the halt: divergence, exactly as single-shot.
        let mut r = RunningJob::start(&halting(halted_at - 1)).expect("starts");
        r.advance(u64::MAX);
        assert!(r.is_done());
        match r.finish() {
            JobOutcome::Fault(JobFault::Diverged { max_cycles }) => {
                assert_eq!(max_cycles, halted_at - 1)
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn lane_group_matches_serial_and_survives_suspension() {
        let budget = 3 * SLICE_CYCLES;
        let jobs: Vec<Job> = (0..4)
            .map(|i| stream_job(&format!("s{i}"), i * 100, budget))
            .collect();
        let baselines: Vec<JobOutcome> = jobs.iter().map(outcome_of).collect();
        assert!(jobs.windows(2).all(|w| groupable(&w[0], &w[1])));

        let lanes: Vec<RunningJob> = jobs
            .iter()
            .map(|j| RunningJob::start(j).expect("starts"))
            .collect();
        let mut group = LaneGroup::new(lanes);
        // Advance past warmup, preempt the whole group mid-flight,
        // resume each lane and regroup.
        group.advance(SLICE_CYCLES + 7);
        assert_eq!(group.cycle(), Some(SLICE_CYCLES + 7));
        let parked: Vec<SuspendedJob> = group
            .into_lanes()
            .into_iter()
            .map(RunningJob::suspend)
            .collect();
        let mut group = LaneGroup::new(parked.into_iter().map(SuspendedJob::resume).collect());
        while group.advance(u64::MAX) > 0 {}
        assert!(group.is_done());
        let mut fused_any = false;
        for (lane, baseline) in group.into_lanes().into_iter().zip(&baselines) {
            fused_any |= lane.machine.stats().fused_cycles > 0;
            assert_equivalent(&lane.finish(), baseline);
        }
        assert!(fused_any, "group never reached fused execution");
    }

    #[test]
    fn faulty_lane_detaches_without_corrupting_lane_mates() {
        let budget = 4 * SLICE_CYCLES;
        let clean: Vec<Job> = (0..3)
            .map(|i| stream_job(&format!("clean{i}"), i * 10, budget))
            .collect();
        let baselines: Vec<JobOutcome> = clean.iter().map(outcome_of).collect();

        // A chaos job with a fault rate high enough to fault well within
        // the budget. Schedulers never group it (its armed lane would
        // block every shared burst), so the mixed group is built by hand
        // to keep per-lane fault isolation inside a group tested.
        let chaos = stream_job("chaos", 999, budget).with_faults(FaultConfig::uniform(3, 20_000));
        assert!(!group_eligible(&chaos));
        assert!(groupable(&clean[0], &chaos));

        let mut lanes: Vec<RunningJob> = clean
            .iter()
            .map(|j| RunningJob::start(j).expect("starts"))
            .collect();
        lanes.push(RunningJob::start(&chaos).expect("starts"));
        let mut group = LaneGroup::new(lanes);
        while group.advance(u64::MAX) > 0 {}
        let mut lanes = group.into_lanes();
        let chaos_lane = lanes.pop().expect("chaos lane");
        assert!(
            chaos_lane.fault().is_some_and(JobFault::is_detected_fault),
            "chaos lane should fault detected, got {:?}",
            chaos_lane.fault()
        );
        for (lane, baseline) in lanes.into_iter().zip(&baselines) {
            assert_equivalent(&lane.finish(), baseline);
        }
    }
}
