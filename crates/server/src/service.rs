//! The scheduler at the heart of the service.
//!
//! [`Service`] runs lint-gated [`Job`]s from named tenants on a shared
//! pool with three hard promises:
//!
//! 1. **Admission, not collapse** — submissions pass through an
//!    [`AdmissionQueue`]: bounded depth, per-tenant outstanding quotas,
//!    and deterministic retry-after hints on rejection. Overload turns
//!    into honest 429s at the front door, never into unbounded latency.
//! 2. **Preemption, not starvation** — jobs execute through the
//!    checkpoint-preemptible layer ([`RunningJob`]/[`LaneGroup`]):
//!    between every [`slice`](ServiceConfig::slice_cycles) a running
//!    batch unit checks for waiting interactive jobs and, if any,
//!    suspends itself into checkpoints and goes to the back of the
//!    parked queue. Interactive latency is bounded by one slice of
//!    simulation, and the parked work resumes bit-identically.
//! 3. **Drain, not drop** — [`Service::drain`] rejects the queue with a
//!    client-visible error, parks every in-flight job at its next slice
//!    boundary as a checkpoint, and refuses new work. No job ever
//!    disappears without its client being told.
//!
//! Identical-object jobs from *different* tenants are packed into one
//! fused [`LaneGroup`] of up to [`ServiceConfig::max_lanes`] lanes, by
//! the same [`group_eligible`]/[`groupable`] rule as the batch runner, so
//! a saturated service spends most of its cycles in shared lockstep
//! bursts. Fault-armed and watchdog jobs run as their own unit: an armed
//! lane would make every shared burst of its group refuse. Per-tenant
//! fault isolation is inherited from the group contract: a faulting lane
//! detaches alone.
//!
//! The same scheduler runs in two modes:
//!
//! * **threaded** — `N` threads call [`Service::run_worker`]. This is
//!   what `srserved` serves over TCP.
//! * **scripted** — a single thread interleaves [`Service::submit`] and
//!   [`Service::tick`] calls; for jobs without a wall-clock deadline no
//!   wall clock is consulted anywhere, so queue depths, preemption counts
//!   and lane occupancy are exactly reproducible. This is what the
//!   benchmark trajectory records.
//!
//! In both modes a job's wall-clock deadline is checked between slices.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use systolic_ring_harness::admission::{
    Admission, AdmissionConfig, AdmissionQueue, AdmissionStats, JobClass, QueuedJob, RejectReason,
};
use systolic_ring_harness::job::{Job, JobFault, JobOutcome, SLICE_CYCLES};
use systolic_ring_harness::preempt::{
    group_eligible, groupable, preemptible, LaneGroup, RunningJob, SuspendedJob,
};
use systolic_ring_harness::runner::MAX_LANES;

/// Scheduler tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Admission-queue knobs (depth, quotas, hint scale).
    pub admission: AdmissionConfig,
    /// Maximum lanes packed into one fused group.
    pub max_lanes: usize,
    /// Cycles between scheduling decisions (preemption granularity).
    pub slice_cycles: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            admission: AdmissionConfig::default(),
            max_lanes: MAX_LANES,
            slice_cycles: SLICE_CYCLES,
        }
    }
}

/// A client-visible job state.
///
/// `Done` carries the outcome inline for the same reason
/// [`JobOutcome`] does: a status is built per query and consumed
/// immediately, so boxing the large variant buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// Executing on a worker right now.
    Running,
    /// Preempted (or drained) into a checkpoint at the given cycle.
    Checkpointed {
        /// Cycle the checkpoint was taken at.
        cycle: u64,
    },
    /// Terminal: completed or faulted.
    Done(JobOutcome),
}

impl JobStatus {
    /// The state name used on the wire.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Checkpointed { .. } => "checkpointed",
            JobStatus::Done(JobOutcome::Completed(_)) => "completed",
            JobStatus::Done(JobOutcome::Fault(_)) => "faulted",
        }
    }
}

/// Why a submission was not admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The job itself is unacceptable (lint failure, unpreemptible
    /// shape); resubmitting the same job can never succeed.
    Invalid(String),
    /// Admission control refused; retry after the hint.
    Rejected {
        /// Why.
        reason: RejectReason,
        /// Deterministic backoff hint (milliseconds).
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(msg) => write!(f, "invalid job: {msg}"),
            SubmitError::Rejected {
                reason,
                retry_after_ms,
            } => write!(f, "rejected ({reason}); retry after {retry_after_ms}ms"),
        }
    }
}

/// A successful admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubmitOk {
    /// Handle for status polling.
    pub ticket: u64,
    /// Queue depth after admission.
    pub depth: usize,
}

/// A point-in-time snapshot of the service counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceStats {
    /// Admission front-door counters.
    pub admission: AdmissionStats,
    /// Jobs currently queued.
    pub queue_depth: usize,
    /// Interactive jobs currently queued.
    pub interactive_waiting: usize,
    /// Units currently executing on workers.
    pub running_units: usize,
    /// Jobs currently parked as checkpoints.
    pub parked_jobs: usize,
    /// Preemption events (one per unit suspension).
    pub preemptions: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs that terminated with a fault.
    pub faulted: u64,
    /// Jobs evicted client-visibly from the queue at drain.
    pub evicted: u64,
    /// Simulated cycles advanced across all lanes' shared slices.
    pub advanced_cycles: u64,
    /// `Σ slice_cycles × live_lanes` — occupancy-weighted cycles.
    pub occupancy_cycles: u64,
    /// Per-tenant accounting rows, sorted by tenant name.
    pub tenants: Vec<TenantStats>,
}

impl ServiceStats {
    /// Mean live lanes per advanced cycle (1.0 = no packing at all).
    pub fn lane_occupancy(&self) -> f64 {
        if self.advanced_cycles == 0 {
            0.0
        } else {
            self.occupancy_cycles as f64 / self.advanced_cycles as f64
        }
    }
}

/// One tenant's accounting row: what the shared pool actually spent on
/// them, regardless of how their jobs were packed into units.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant name.
    pub tenant: String,
    /// Simulated cycles advanced while this tenant's lanes were live.
    pub cycles_simulated: u64,
    /// This tenant's jobs that ran to completion.
    pub jobs_completed: u64,
    /// Checkpoint suspensions this tenant's lanes absorbed (one per
    /// parked lane, unlike the unit-granular global counter).
    pub preemptions: u64,
}

/// Per-ticket lifecycle.
enum Phase {
    Queued(Box<Job>, Option<Duration>),
    Running,
    Parked(SuspendedJob, Option<(Instant, Duration)>),
    Done(JobOutcome),
}

struct Slot {
    tenant: String,
    class: JobClass,
    phase: Phase,
}

/// One claimed execution unit: lanes, their tickets and wall deadlines
/// in matching order.
struct ActiveUnit {
    tickets: Vec<u64>,
    group: LaneGroup,
    /// `true` when every lane is batch-class (interactive units never
    /// yield to other interactive traffic).
    preemptible: bool,
    deadlines: Vec<Option<(Instant, Duration)>>,
}

/// A tenant's running totals (the name lives in the map key).
#[derive(Clone, Copy, Debug, Default)]
struct TenantTotals {
    cycles_simulated: u64,
    jobs_completed: u64,
    preemptions: u64,
}

#[derive(Default)]
struct Counters {
    preemptions: u64,
    completed: u64,
    faulted: u64,
    evicted: u64,
    advanced_cycles: u64,
    occupancy_cycles: u64,
    /// Keyed by tenant name; BTreeMap so snapshots render in a
    /// deterministic order.
    tenants: BTreeMap<String, TenantTotals>,
}

struct State {
    queue: AdmissionQueue,
    slots: HashMap<u64, Slot>,
    /// Parked units, oldest first; lanes live in their slots.
    parked: VecDeque<Vec<u64>>,
    running_units: usize,
    /// Scripted mode's single in-flight unit (never used by workers).
    current: Option<ActiveUnit>,
    counters: Counters,
}

/// The shared multi-tenant scheduler. See the module docs.
pub struct Service {
    config: ServiceConfig,
    state: Mutex<State>,
    signal: Condvar,
    draining: AtomicBool,
}

impl Service {
    /// An idle service with the given knobs.
    pub fn new(config: ServiceConfig) -> Service {
        Service {
            state: Mutex::new(State {
                queue: AdmissionQueue::new(config.admission),
                slots: HashMap::new(),
                parked: VecDeque::new(),
                running_units: 0,
                current: None,
                counters: Counters::default(),
            }),
            signal: Condvar::new(),
            draining: AtomicBool::new(false),
            config,
        }
    }

    /// `true` once [`Service::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Offers a job for admission on behalf of `tenant`.
    ///
    /// Jobs that can never run — a deferred builder/lint error, a custom
    /// job, an attached retry policy — are [`SubmitError::Invalid`]
    /// *before* touching the queue: they consume no quota and earn no
    /// retry hint, because retrying them is pointless. Everything else
    /// gets the admission queue's verdict. `wall` and the job's own
    /// [`Job::wall_limit`] both bound its wall-clock time; the tighter of
    /// the two is armed as a deadline checked after every slice.
    pub fn submit(
        &self,
        tenant: &str,
        class: JobClass,
        job: Job,
        wall: Option<Duration>,
    ) -> Result<SubmitOk, SubmitError> {
        if let Some(msg) = job.builder_error() {
            return Err(SubmitError::Invalid(msg.to_owned()));
        }
        if !preemptible(&job) {
            return Err(SubmitError::Invalid(
                "job cannot run preemptibly (custom workload or retry policy attached); \
                 retry at the client instead"
                    .into(),
            ));
        }
        let wall = wall.into_iter().chain(job.wall_limit).min();
        let mut st = self.state.lock().expect("service lock");
        match st.queue.offer(tenant, class) {
            Admission::Admitted { ticket, depth } => {
                st.slots.insert(
                    ticket,
                    Slot {
                        tenant: tenant.to_owned(),
                        class,
                        phase: Phase::Queued(Box::new(job), wall),
                    },
                );
                self.signal.notify_all();
                Ok(SubmitOk { ticket, depth })
            }
            Admission::Rejected {
                reason,
                retry_after_ms,
            } => Err(SubmitError::Rejected {
                reason,
                retry_after_ms,
            }),
        }
    }

    /// The current status of a ticket (`None` = never issued).
    pub fn status(&self, ticket: u64) -> Option<JobStatus> {
        let st = self.state.lock().expect("service lock");
        st.slots.get(&ticket).map(|slot| match &slot.phase {
            Phase::Queued(..) => JobStatus::Queued,
            Phase::Running => JobStatus::Running,
            Phase::Parked(suspended, _) => JobStatus::Checkpointed {
                cycle: suspended.cycle(),
            },
            Phase::Done(outcome) => JobStatus::Done(outcome.clone()),
        })
    }

    /// Blocks until the ticket reaches a settled state —
    /// [`JobStatus::Done`], or `Checkpointed` once the service is
    /// draining (the job will not run again in this process) — or the
    /// timeout elapses, returning the status either way. Threaded mode
    /// only; scripted drivers poll [`Service::status`] between ticks.
    pub fn wait(&self, ticket: u64, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().expect("service lock");
        loop {
            let status = st.slots.get(&ticket).map(|slot| match &slot.phase {
                Phase::Queued(..) => JobStatus::Queued,
                Phase::Running => JobStatus::Running,
                Phase::Parked(suspended, _) => JobStatus::Checkpointed {
                    cycle: suspended.cycle(),
                },
                Phase::Done(outcome) => JobStatus::Done(outcome.clone()),
            });
            let settled = match &status {
                None | Some(JobStatus::Done(_)) => true,
                Some(JobStatus::Checkpointed { .. }) => self.is_draining(),
                _ => false,
            };
            let now = Instant::now();
            if settled || now >= deadline {
                return status;
            }
            let (guard, _) = self
                .signal
                .wait_timeout(st, deadline - now)
                .expect("service lock");
            st = guard;
        }
    }

    /// The counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        let st = self.state.lock().expect("service lock");
        ServiceStats {
            admission: *st.queue.stats(),
            queue_depth: st.queue.depth(),
            interactive_waiting: st.queue.interactive_waiting(),
            running_units: st.running_units,
            parked_jobs: st
                .slots
                .values()
                .filter(|s| matches!(s.phase, Phase::Parked(..)))
                .count(),
            preemptions: st.counters.preemptions,
            completed: st.counters.completed,
            faulted: st.counters.faulted,
            evicted: st.counters.evicted,
            advanced_cycles: st.counters.advanced_cycles,
            occupancy_cycles: st.counters.occupancy_cycles,
            tenants: st
                .counters
                .tenants
                .iter()
                .map(|(tenant, totals)| TenantStats {
                    tenant: tenant.clone(),
                    cycles_simulated: totals.cycles_simulated,
                    jobs_completed: totals.jobs_completed,
                    preemptions: totals.preemptions,
                })
                .collect(),
        }
    }

    /// Begins graceful shutdown: refuses new offers, evicts the queue
    /// with a client-visible fault per job, and tells running units to
    /// park at their next slice boundary. Returns the number of jobs
    /// evicted. Idempotent.
    pub fn drain(&self) -> usize {
        self.draining.store(true, Ordering::SeqCst);
        let mut st = self.state.lock().expect("service lock");
        let evicted = st.queue.drain();
        for entry in &evicted {
            if let Some(slot) = st.slots.get_mut(&entry.ticket) {
                slot.phase = Phase::Done(JobOutcome::Fault(JobFault::Workload(
                    "service draining: job evicted from queue before execution".into(),
                )));
            }
        }
        st.counters.evicted += evicted.len() as u64;
        self.signal.notify_all();
        evicted.len()
    }

    /// Blocks until every running unit has parked or finished after
    /// [`Service::drain`] (threaded mode's shutdown barrier).
    pub fn wait_drained(&self) {
        let mut st = self.state.lock().expect("service lock");
        while st.running_units > 0 {
            st = self.signal.wait(st).expect("service lock");
        }
    }

    /// A worker thread's main loop: claim a unit, advance it slice by
    /// slice (simulation runs outside the scheduler lock), finalize or
    /// park it, repeat. Returns when the service drains.
    pub fn run_worker(&self) {
        let mut st = self.state.lock().expect("service lock");
        loop {
            let mut unit = loop {
                if let Some(unit) = self.claim_unit(&mut st) {
                    st.running_units += 1;
                    break unit;
                }
                if self.is_draining() {
                    return;
                }
                st = self.signal.wait(st).expect("service lock");
            };
            loop {
                unit = self.fault_expired(&mut st, unit);
                let live_before = unit.group.live_mask();
                drop(st);
                let advanced = unit.group.advance(self.config.slice_cycles);
                st = self.state.lock().expect("service lock");
                match self.after_slice(&mut st, unit, &live_before, advanced) {
                    Some(live) => unit = live,
                    None => {
                        self.signal.notify_all();
                        break;
                    }
                }
            }
        }
    }

    /// Scripted single-threaded mode: performs one scheduling step (claim
    /// a unit if none is active, else advance the active unit one slice).
    /// Returns `false` when there is nothing to do. Consults the wall
    /// clock only for jobs with a deadline, so interleavings of
    /// `submit`/`tick` over jobs without one are exactly reproducible.
    pub fn tick(&self) -> bool {
        let mut st = self.state.lock().expect("service lock");
        let unit = match st.current.take() {
            Some(unit) => unit,
            None => match self.claim_unit(&mut st) {
                Some(unit) => {
                    st.running_units += 1;
                    unit
                }
                None => return false,
            },
        };
        let mut unit = self.fault_expired(&mut st, unit);
        let live_before = unit.group.live_mask();
        let advanced = unit.group.advance(self.config.slice_cycles);
        st.current = self.after_slice(&mut st, unit, &live_before, advanced);
        true
    }

    /// Runs the scripted scheduler until idle.
    pub fn run_idle(&self) {
        while self.tick() {}
    }

    /// Books one advanced slice, then decides the unit's fate: `None`
    /// when it finished or parked (caller notifies), `Some` to keep
    /// advancing.
    fn after_slice(
        &self,
        st: &mut State,
        unit: ActiveUnit,
        live_before: &[bool],
        advanced: u64,
    ) -> Option<ActiveUnit> {
        let lanes_before = live_before.iter().filter(|&&live| live).count();
        st.counters.advanced_cycles += advanced;
        st.counters.occupancy_cycles += advanced * lanes_before as u64;
        if advanced > 0 {
            // Lanes advance in lockstep, so each live lane's tenant is
            // billed the full slice.
            for (ticket, _) in unit
                .tickets
                .iter()
                .zip(live_before)
                .filter(|(_, &live)| live)
            {
                let tenant = st.slots[ticket].tenant.clone();
                st.counters
                    .tenants
                    .entry(tenant)
                    .or_default()
                    .cycles_simulated += advanced;
            }
        }
        if unit.group.is_done() {
            self.finalize_unit(st, unit);
            st.running_units -= 1;
            return None;
        }
        if self.is_draining() || (unit.preemptible && st.queue.interactive_waiting() > 0) {
            st.counters.preemptions += 1;
            self.park_unit(st, unit);
            st.running_units -= 1;
            return None;
        }
        Some(unit)
    }

    /// Claims the next execution unit under the scheduler lock:
    /// interactive queue first, then parked units (their latency debt is
    /// oldest), then the batch queue — packing compatible queued jobs
    /// from any tenant into one fused group.
    fn claim_unit(&self, st: &mut State) -> Option<ActiveUnit> {
        if self.is_draining() {
            return None;
        }
        if st.queue.interactive_waiting() == 0 {
            if let Some(tickets) = st.parked.pop_front() {
                return Some(resume_unit(st, tickets));
            }
        }
        let head = st.queue.take()?;
        let (job, wall) = take_queued(st, head.ticket);
        let mut members: Vec<(QueuedJob, Box<Job>, Option<Duration>)> = vec![(head, job, wall)];
        if group_eligible(&members[0].1) {
            while members.len() < self.config.max_lanes {
                let head_job = &members[0].1;
                let (queue, slots) = (&mut st.queue, &st.slots);
                let Some(next) = queue.take_where(|ticket| {
                    matches!(
                        &slots[&ticket].phase,
                        Phase::Queued(job, _) if group_eligible(job) && groupable(head_job, job)
                    )
                }) else {
                    break;
                };
                let (job, wall) = take_queued(st, next.ticket);
                members.push((next, job, wall));
            }
        }
        let mut tickets = Vec::with_capacity(members.len());
        let mut lanes = Vec::with_capacity(members.len());
        let mut deadlines = Vec::with_capacity(members.len());
        let mut preemptible = true;
        for (entry, job, wall) in members {
            match RunningJob::start(&job) {
                Ok(lane) => {
                    tickets.push(entry.ticket);
                    deadlines.push(wall.map(|limit| (Instant::now() + limit, limit)));
                    preemptible &= entry.class == JobClass::Batch;
                    lanes.push(lane);
                }
                Err(fault) => {
                    settle(st, entry.ticket, JobOutcome::Fault(fault));
                    // Settled without running: wake any client in `wait`.
                    self.signal.notify_all();
                }
            }
        }
        Some(ActiveUnit {
            tickets,
            group: LaneGroup::new(lanes),
            preemptible,
            deadlines,
        })
    }

    /// Faults any live lane whose wall-clock deadline has passed,
    /// rebuilding the group from the survivors. Runs before every slice,
    /// so a job whose deadline passed while it was queued or parked runs
    /// no further cycle. Reads the clock only when a lane has a deadline.
    fn fault_expired(&self, st: &mut State, unit: ActiveUnit) -> ActiveUnit {
        if unit.deadlines.iter().all(Option::is_none) {
            return unit;
        }
        let now = Instant::now();
        if !unit
            .deadlines
            .iter()
            .flatten()
            .any(|(deadline, _)| *deadline <= now)
        {
            return unit;
        }
        let ActiveUnit {
            tickets,
            group,
            preemptible,
            deadlines,
        } = unit;
        let mut kept = ActiveUnit {
            tickets: Vec::new(),
            group: LaneGroup::new(Vec::new()),
            preemptible,
            deadlines: Vec::new(),
        };
        let mut kept_lanes = Vec::new();
        for ((ticket, lane), deadline) in tickets.into_iter().zip(group.into_lanes()).zip(deadlines)
        {
            match deadline {
                Some((at, limit)) if at <= now && !lane.is_done() => {
                    settle(st, ticket, JobOutcome::Fault(JobFault::WallLimit { limit }));
                }
                _ => {
                    kept.tickets.push(ticket);
                    kept.deadlines.push(deadline);
                    kept_lanes.push(lane);
                }
            }
        }
        kept.group = LaneGroup::new(kept_lanes);
        kept
    }

    /// Settles every lane of a finished unit.
    fn finalize_unit(&self, st: &mut State, unit: ActiveUnit) {
        for (ticket, lane) in unit.tickets.into_iter().zip(unit.group.into_lanes()) {
            settle(st, ticket, lane.finish());
        }
    }

    /// Suspends a unit's live lanes into checkpoints (finishing any that
    /// are already done) and appends the parked unit for later resume.
    fn park_unit(&self, st: &mut State, unit: ActiveUnit) {
        let mut parked = Vec::new();
        for ((ticket, lane), deadline) in unit
            .tickets
            .into_iter()
            .zip(unit.group.into_lanes())
            .zip(unit.deadlines)
        {
            if lane.is_done() {
                settle(st, ticket, lane.finish());
            } else {
                let slot = st.slots.get_mut(&ticket).expect("running slot");
                let tenant = slot.tenant.clone();
                slot.phase = Phase::Parked(lane.suspend(), deadline);
                st.counters.tenants.entry(tenant).or_default().preemptions += 1;
                parked.push(ticket);
            }
        }
        if !parked.is_empty() {
            st.parked.push_back(parked);
        }
    }
}

/// Extracts a queued job's payload, leaving the slot `Running`.
fn take_queued(st: &mut State, ticket: u64) -> (Box<Job>, Option<Duration>) {
    let slot = st.slots.get_mut(&ticket).expect("queued slot");
    match std::mem::replace(&mut slot.phase, Phase::Running) {
        Phase::Queued(job, wall) => (job, wall),
        _ => unreachable!("dequeued ticket was not queued"),
    }
}

/// Rehydrates a parked unit's lanes, leaving the slots `Running`.
fn resume_unit(st: &mut State, tickets: Vec<u64>) -> ActiveUnit {
    let mut lanes = Vec::with_capacity(tickets.len());
    let mut deadlines = Vec::with_capacity(tickets.len());
    let mut preemptible = true;
    for &ticket in &tickets {
        let slot = st.slots.get_mut(&ticket).expect("parked slot");
        preemptible &= slot.class == JobClass::Batch;
        match std::mem::replace(&mut slot.phase, Phase::Running) {
            Phase::Parked(suspended, deadline) => {
                lanes.push(suspended.resume());
                deadlines.push(deadline);
            }
            _ => unreachable!("parked ticket was not parked"),
        }
    }
    ActiveUnit {
        tickets,
        group: LaneGroup::new(lanes),
        preemptible,
        deadlines,
    }
}

/// Records a terminal outcome: slot goes `Done`, the tenant's quota slot
/// is released, the counters move.
fn settle(st: &mut State, ticket: u64, outcome: JobOutcome) {
    let slot = st.slots.get_mut(&ticket).expect("settling slot");
    let tenant = slot.tenant.clone();
    match &outcome {
        JobOutcome::Completed(_) => {
            st.counters.completed += 1;
            st.counters
                .tenants
                .entry(tenant.clone())
                .or_default()
                .jobs_completed += 1;
        }
        JobOutcome::Fault(_) => st.counters.faulted += 1,
    }
    slot.phase = Phase::Done(outcome);
    st.queue.complete(&tenant);
}
