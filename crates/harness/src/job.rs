//! Batch jobs: self-contained descriptions of one simulator run.
//!
//! A [`Job`] is everything the [`runner`](crate::runner) needs to execute
//! a workload on a worker thread with no shared state: either a full
//! machine description (geometry, sizing parameters, an assembled
//! [`Object`] or a raw configuration closure, bound input streams, open
//! sinks and a cycle budget) or an opaque workload closure for kernels
//! whose drivers already own their machine setup and output extraction.
//!
//! Execution never lets one job hurt another: simulator faults, rejected
//! configurations, exceeded budgets and even panics inside a job are
//! captured as a [`JobFault`] in that job's [`JobReport`].

use std::time::{Duration, Instant};

use systolic_ring_core::{
    ConfigError, FaultConfig, FaultSite, MachineParams, RingMachine, SimError, Stats,
};
use systolic_ring_isa::object::Object;
use systolic_ring_isa::{RingGeometry, Word16};

use crate::preempt::RunningJob;

/// A machine-configuration closure: applied to a freshly reset machine.
pub type SetupFn = dyn Fn(&mut RingMachine) -> Result<(), ConfigError> + Send + Sync;

/// A self-contained workload closure (kernel adapters use this form).
pub type CustomFn = dyn Fn() -> Result<JobOutput, String> + Send + Sync;

/// How long a machine job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CycleBudget {
    /// Run exactly this many cycles.
    Cycles(u64),
    /// Run until the controller halts, faulting past `max_cycles`.
    UntilHalt {
        /// Upper bound on simulated cycles before the job is declared
        /// divergent.
        max_cycles: u64,
    },
}

/// One bound host input stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamBinding {
    /// Switch index.
    pub switch: usize,
    /// Host port index at that switch.
    pub port: usize,
    /// Words delivered in order.
    pub words: Vec<Word16>,
}

/// A (switch, port) sink to open and drain into the job output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SinkRef {
    /// Switch index.
    pub switch: usize,
    /// Host port index at that switch.
    pub port: usize,
}

/// How a machine job's fabric and controller are set up.
pub enum JobSetup {
    /// Load an assembled object (geometry checks included).
    Object(Box<Object>),
    /// Apply a raw configuration closure.
    Configure(Box<SetupFn>),
}

impl std::fmt::Debug for JobSetup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobSetup::Object(_) => f.write_str("JobSetup::Object(..)"),
            JobSetup::Configure(_) => f.write_str("JobSetup::Configure(..)"),
        }
    }
}

/// A full machine-level job description.
#[derive(Debug)]
pub struct MachineJob {
    /// Ring geometry to instantiate.
    pub geometry: RingGeometry,
    /// Machine sizing parameters.
    pub params: MachineParams,
    /// Fabric/controller setup.
    pub setup: JobSetup,
    /// Host input streams to attach before running.
    pub inputs: Vec<StreamBinding>,
    /// Host sinks to open before and drain after the run.
    pub sinks: Vec<SinkRef>,
    /// Cycle budget.
    pub budget: CycleBudget,
}

/// The workload carried by a [`Job`].
pub enum JobWork {
    /// A declarative machine run.
    Machine(MachineJob),
    /// An opaque workload closure.
    Custom(Box<CustomFn>),
}

impl std::fmt::Debug for JobWork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobWork::Machine(m) => f.debug_tuple("Machine").field(m).finish(),
            JobWork::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

/// Bounded fault-recovery policy for one job.
///
/// When a job's machine reports a *detected* fault (configuration parity
/// mismatch, tagged datapath fault or watchdog expiry — see
/// [`SimError::is_detected_fault`]), the executor may roll the machine
/// back to its post-setup checkpoint, re-salt the transient fault streams
/// and try again, up to `max_retries` times. With `remap` set, a
/// stuck-output fault additionally triggers a repair before the retry:
/// the faulty Dnode's role is migrated onto a spare Dnode in the same
/// layer (see [`RingMachine::remap_dnode`]), so a permanent fault does
/// not burn every remaining retry.
///
/// Custom jobs cannot be checkpointed from outside, so a retry re-runs
/// the whole workload closure under a re-salted
/// [`systolic_ring_core::with_faults`] scope instead.
///
/// # Backoff
///
/// By default retries are immediate — right for transient *simulated*
/// faults, where the rollback already undid the damage. Long-running
/// service jobs retrying against a congested shared pool want spacing
/// instead: [`RetryPolicy::backoff`] arms exponential backoff (the delay
/// before retry `n` is `base << (n - 1)`, capped at `max`), and
/// [`RetryPolicy::with_jitter`] adds a deterministic, seed-derived
/// jitter of up to +50% per attempt (drawn from
/// [`TestRng`](crate::testkit::TestRng), so a given `(seed, attempt)`
/// always produces the same schedule — reproducible in tests, decorrelated
/// across jobs that use different seeds). [`RetryPolicy::delay`] is the
/// pure schedule function the executors sleep on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` disables recovery).
    pub max_retries: u32,
    /// Attempt spare-Dnode remapping on stuck-output faults.
    pub remap: bool,
    /// Delay before the first retry (`ZERO` keeps retries immediate).
    pub backoff_base: Duration,
    /// Upper bound on any single backoff delay (jitter included).
    pub backoff_max: Duration,
    /// Seed for the deterministic per-attempt jitter draw.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// No recovery: the first detected fault fails the job.
    pub const OFF: RetryPolicy = RetryPolicy {
        max_retries: 0,
        remap: false,
        backoff_base: Duration::ZERO,
        backoff_max: Duration::ZERO,
        jitter_seed: 0,
    };

    /// A policy allowing `max_retries` immediate rollback-retries, no
    /// remapping.
    pub const fn retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            ..RetryPolicy::OFF
        }
    }

    /// Enables or disables spare-Dnode remapping on stuck faults.
    pub const fn with_remap(mut self, remap: bool) -> Self {
        self.remap = remap;
        self
    }

    /// Arms exponential backoff: retry `n` waits `base << (n - 1)`,
    /// saturating at `max`. A zero `base` keeps retries immediate.
    pub const fn backoff(mut self, base: Duration, max: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_max = max;
        self
    }

    /// Seeds the deterministic jitter draw (only meaningful with a
    /// nonzero backoff base). Jobs sharing a seed share a schedule;
    /// give each tenant or job its own seed to decorrelate retry storms.
    pub const fn with_jitter(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// `true` when at least one retry is allowed.
    pub fn is_active(&self) -> bool {
        self.max_retries > 0
    }

    /// The delay before retry `attempt` (1-based; `0` and a zero base
    /// both yield `ZERO`). Pure: `(policy, attempt)` fully determines the
    /// result, jitter included, so schedules are testable and replayable.
    pub fn delay(&self, attempt: u32) -> Duration {
        if attempt == 0 || self.backoff_base.is_zero() {
            return Duration::ZERO;
        }
        let base = self.backoff_base.as_nanos() as u64;
        let exp = base.saturating_shl(attempt - 1);
        // Up to +50% deterministic jitter, drawn per (seed, attempt).
        let mut rng = crate::testkit::TestRng::new(self.jitter_seed ^ (u64::from(attempt) << 32));
        let jitter = rng.below(exp / 2 + 1);
        let capped = exp
            .saturating_add(jitter)
            .min(self.backoff_max.as_nanos() as u64);
        Duration::from_nanos(capped)
    }
}

/// `u64::checked_shl` that saturates instead of wrapping — a retry count
/// past 63 pins the pre-cap delay at the maximum rather than cycling.
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        if self == 0 {
            return 0;
        }
        if shift >= self.leading_zeros() {
            u64::MAX
        } else {
            self << shift
        }
    }
}

/// Per-job fault/recovery outcome, reported alongside the job outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Detected faults observed across all attempts.
    pub faults_detected: u32,
    /// Rollback-retries actually performed.
    pub retries: u32,
    /// Spare-Dnode remaps performed.
    pub remaps: u32,
    /// `true` when the job completed despite at least one detected fault.
    pub recovered: bool,
}

impl RecoveryStats {
    /// `true` when no fault activity occurred at all.
    pub fn is_clean(&self) -> bool {
        *self == RecoveryStats::default()
    }
}

/// One batch job.
#[derive(Debug)]
pub struct Job {
    /// Display name, carried into the report.
    pub name: String,
    /// The workload.
    pub work: JobWork,
    /// Optional wall-clock limit, enforced at cycle-slice granularity.
    pub wall_limit: Option<Duration>,
    /// Fault-injection configuration applied at execution time: machine
    /// jobs get it merged into their [`MachineParams`]; custom jobs run
    /// under a [`systolic_ring_core::with_faults`] scope.
    pub faults: Option<FaultConfig>,
    /// Recovery policy applied when detected faults interrupt the run.
    pub retry: RetryPolicy,
    /// First recorded builder misuse (see [`Job::with_input`]) or
    /// pre-flight lint failure (see [`Job::from_object`]); surfaced as
    /// [`JobFault::Config`] without ever building a machine.
    builder_error: Option<String>,
}

impl Job {
    /// A machine job configured by loading an assembled object.
    ///
    /// The object is pre-flighted through `ringlint`'s static checks
    /// against this job's geometry and machine sizing. A lint *error* — a
    /// configuration the machine is statically guaranteed to reject or
    /// fault on — is recorded as a deferred builder error, so the
    /// [`runner`](crate::runner) rejects the job before any machine is
    /// built or scheduled and reports it as a [`JobFault::Config`].
    /// Warnings do not fail pre-flight. [`Job::from_object_unchecked`] is
    /// the escape hatch for deliberately out-of-contract objects.
    pub fn from_object(
        name: impl Into<String>,
        geometry: RingGeometry,
        params: MachineParams,
        object: Object,
        budget: CycleBudget,
    ) -> Self {
        let limits = systolic_ring_lint::LintLimits {
            contexts: params.contexts,
            pipe_depth: params.pipe_depth,
            prog_capacity: params.prog_capacity,
            dmem_capacity: params.dmem_capacity,
            geometry: Some(geometry),
        };
        let report = systolic_ring_lint::lint_object_with(&object, &limits);
        let preflight = report
            .into_result(false)
            .err()
            .map(|e| format!("object failed pre-flight lint: {e}"));
        let mut job = Job::from_object_unchecked(name, geometry, params, object, budget);
        job.builder_error = preflight;
        job
    }

    /// [`Job::from_object`] without the pre-flight lint.
    pub fn from_object_unchecked(
        name: impl Into<String>,
        geometry: RingGeometry,
        params: MachineParams,
        object: Object,
        budget: CycleBudget,
    ) -> Self {
        Job {
            name: name.into(),
            work: JobWork::Machine(MachineJob {
                geometry,
                params,
                setup: JobSetup::Object(Box::new(object)),
                inputs: Vec::new(),
                sinks: Vec::new(),
                budget,
            }),
            wall_limit: None,
            faults: None,
            retry: RetryPolicy::OFF,
            builder_error: None,
        }
    }

    /// A machine job configured by a raw closure.
    pub fn from_config<F>(
        name: impl Into<String>,
        geometry: RingGeometry,
        params: MachineParams,
        setup: F,
        budget: CycleBudget,
    ) -> Self
    where
        F: Fn(&mut RingMachine) -> Result<(), ConfigError> + Send + Sync + 'static,
    {
        Job {
            name: name.into(),
            work: JobWork::Machine(MachineJob {
                geometry,
                params,
                setup: JobSetup::Configure(Box::new(setup)),
                inputs: Vec::new(),
                sinks: Vec::new(),
                budget,
            }),
            wall_limit: None,
            faults: None,
            retry: RetryPolicy::OFF,
            builder_error: None,
        }
    }

    /// A job wrapping a self-contained workload closure.
    pub fn custom<F>(name: impl Into<String>, work: F) -> Self
    where
        F: Fn() -> Result<JobOutput, String> + Send + Sync + 'static,
    {
        Job {
            name: name.into(),
            work: JobWork::Custom(Box::new(work)),
            wall_limit: None,
            faults: None,
            retry: RetryPolicy::OFF,
            builder_error: None,
        }
    }

    /// Binds an input stream (machine jobs only).
    ///
    /// # Contract
    ///
    /// Custom jobs own their machine setup, so they have nowhere to bind a
    /// stream. Calling this on a custom job never panics; the misuse is
    /// recorded on the job and surfaced as a [`JobFault::Config`] when the
    /// job executes, so a mis-built batch fails loudly in its report
    /// instead of taking down the builder thread.
    pub fn with_input<I>(mut self, switch: usize, port: usize, words: I) -> Self
    where
        I: IntoIterator<Item = Word16>,
    {
        match &mut self.work {
            JobWork::Machine(m) => m.inputs.push(StreamBinding {
                switch,
                port,
                words: words.into_iter().collect(),
            }),
            JobWork::Custom(_) => self.note_misuse("with_input"),
        }
        self
    }

    /// Opens a sink whose drained words become job outputs (machine jobs
    /// only).
    ///
    /// # Contract
    ///
    /// Same deferred-error contract as [`Job::with_input`]: on a custom
    /// job the misuse is recorded and reported as [`JobFault::Config`] at
    /// execution time, never a panic.
    pub fn with_sink(mut self, switch: usize, port: usize) -> Self {
        match &mut self.work {
            JobWork::Machine(m) => m.sinks.push(SinkRef { switch, port }),
            JobWork::Custom(_) => self.note_misuse("with_sink"),
        }
        self
    }

    /// Records the first builder misuse for deferred reporting.
    fn note_misuse(&mut self, method: &str) {
        if self.builder_error.is_none() {
            self.builder_error = Some(format!(
                "{method} on a custom job: custom jobs own their machine setup"
            ));
        }
    }

    /// The first recorded builder misuse, if any (the job will report it
    /// as a [`JobFault::Config`] when executed).
    pub fn builder_error(&self) -> Option<&str> {
        self.builder_error.as_deref()
    }

    /// Enables fault injection/detection for this job.
    ///
    /// Machine jobs get `faults` merged into their [`MachineParams`] when
    /// the machine is built; custom jobs — kernel drivers that build their
    /// machines internally — run under a
    /// [`systolic_ring_core::with_faults`] scope, which follows the
    /// closure onto whichever worker thread runs it. On a retry the
    /// configuration is re-salted per attempt so the same transient-fault
    /// schedule does not simply replay.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets the recovery policy applied when detected faults interrupt
    /// this job.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Arms the controller watchdog for this job's machine (machine jobs
    /// only; `0` disarms). Follows the same deferred-error contract as
    /// [`Job::with_input`] on custom jobs.
    pub fn with_watchdog(mut self, interval: u64) -> Self {
        match &mut self.work {
            JobWork::Machine(m) => m.params = m.params.with_watchdog(interval),
            JobWork::Custom(_) => self.note_misuse("with_watchdog"),
        }
        self
    }

    /// Sets a wall-clock limit for the job.
    pub fn with_wall_limit(mut self, limit: Duration) -> Self {
        self.wall_limit = Some(limit);
        self
    }

    /// Forces the predecoded configuration cache on or off for every
    /// machine this job creates.
    ///
    /// Machine jobs get the flag set directly on their
    /// [`MachineParams`]. Custom jobs — kernel drivers that build their
    /// machines internally with fixed parameters — are wrapped in a
    /// [`systolic_ring_core::with_decode_cache`] scope, which follows the
    /// closure onto whichever worker thread runs it. This is how the
    /// fast-vs-slow differential oracle obtains reference runs of every
    /// kernel family without widening each driver's signature.
    pub fn with_decode_cache(self, enabled: bool) -> Self {
        self.with_tier_flag(enabled, MachineParams::with_decode_cache, |on, work| {
            systolic_ring_core::with_decode_cache(on, work)
        })
    }

    /// Forces the fused steady-state engine on or off for every machine
    /// this job creates (see
    /// [`systolic_ring_core::MachineParams::fused`]; fusion additionally
    /// requires the decode cache).
    ///
    /// Machine jobs get the flag set directly on their
    /// [`MachineParams`]; custom jobs are wrapped in a
    /// [`systolic_ring_core::with_fused`] scope that follows the closure
    /// onto whichever worker thread runs it — the same mechanism as
    /// [`Job::with_decode_cache`], and how the three-way differential
    /// oracle (slow / decoded / fused) obtains per-path runs of every
    /// kernel family without widening each driver's signature.
    pub fn with_fused(self, enabled: bool) -> Self {
        self.with_tier_flag(enabled, MachineParams::with_fused, |on, work| {
            systolic_ring_core::with_fused(on, work)
        })
    }

    /// Forces `aot_*` burst accounting on or off for every machine this
    /// job creates (see [`systolic_ring_core::MachineParams::aot`]; it
    /// only matters with the decode cache and the fused engine on).
    ///
    /// Machine jobs get the flag set directly on their
    /// [`MachineParams`]; custom jobs are wrapped in a
    /// [`systolic_ring_core::with_aot`] scope that follows the closure
    /// onto whichever worker thread runs it — the same mechanism as
    /// [`Job::with_fused`], and how the four-way differential oracle
    /// (slow / decoded / fused / aot) obtains per-tier runs of every
    /// kernel family without widening each driver's signature.
    pub fn with_aot(self, enabled: bool) -> Self {
        self.with_tier_flag(enabled, MachineParams::with_aot, |on, work| {
            systolic_ring_core::with_aot(on, work)
        })
    }

    /// The one mechanism behind [`Job::with_decode_cache`],
    /// [`Job::with_fused`] and [`Job::with_aot`]: `set` on a machine job's
    /// parameters, or a `scope` around a custom job's closure.
    fn with_tier_flag(
        mut self,
        enabled: bool,
        set: fn(MachineParams, bool) -> MachineParams,
        scope: fn(bool, &CustomFn) -> Result<JobOutput, String>,
    ) -> Self {
        self.work = match self.work {
            JobWork::Machine(mut m) => {
                m.params = set(m.params, enabled);
                JobWork::Machine(m)
            }
            JobWork::Custom(work) => JobWork::Custom(Box::new(move || scope(enabled, &*work))),
        };
        self
    }
}

/// A completed job's results.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutput {
    /// Output words, one vector per declared sink (machine jobs) or in
    /// workload-defined order (custom jobs).
    pub outputs: Vec<Vec<i16>>,
    /// Simulated cycles consumed — exactly the cycles executed, with no
    /// overshoot at budget boundaries. Machine jobs inherit the exact
    /// budget-boundary semantics of
    /// [`RingMachine::run_until_halt`]: a `Cycles(n)` budget reports `n`,
    /// and an `UntilHalt` run reports the cycle on which the halt retired
    /// (the `halt` occupies its own cycle), never a mid-slice rounding.
    pub cycles: u64,
    /// Machine statistics over the run.
    pub stats: Stats,
}

/// Why a job failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobFault {
    /// The machine rejected the configuration or object.
    Config(String),
    /// The simulator faulted mid-run.
    Sim(String),
    /// `CycleBudget::UntilHalt` was exhausted without a halt.
    Diverged {
        /// The exceeded bound.
        max_cycles: u64,
    },
    /// The wall-clock limit elapsed.
    WallLimit {
        /// The configured limit.
        limit: Duration,
    },
    /// A custom workload reported an error.
    Workload(String),
    /// The job panicked; the batch survives.
    Panic(String),
}

impl JobFault {
    /// `true` when the fault is a *detected* machine fault — a
    /// configuration parity mismatch, a tagged datapath fault or a
    /// watchdog expiry — rather than silent divergence or an unrelated
    /// failure. Custom jobs stringify
    /// [`SimError`] on the way out, so detection is
    /// recognized by the stable phrases of the corresponding
    /// [`SimError`] `Display` implementations.
    pub fn is_detected_fault(&self) -> bool {
        match self {
            JobFault::Sim(msg) | JobFault::Workload(msg) => is_detected_fault_message(msg),
            _ => false,
        }
    }
}

/// Recognizes the `Display` phrases of the detected-fault
/// [`SimError`] variants inside a stringified error.
pub(crate) fn is_detected_fault_message(msg: &str) -> bool {
    msg.contains("parity mismatch")
        || msg.contains("datapath fault")
        || msg.contains("watchdog expired")
}

impl std::fmt::Display for JobFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFault::Config(msg) => write!(f, "configuration rejected: {msg}"),
            JobFault::Sim(msg) => write!(f, "simulator fault: {msg}"),
            JobFault::Diverged { max_cycles } => {
                write!(f, "no halt within {max_cycles} cycles")
            }
            JobFault::WallLimit { limit } => write!(f, "wall-clock limit {limit:?} exceeded"),
            JobFault::Workload(msg) => write!(f, "workload error: {msg}"),
            JobFault::Panic(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

/// Success-or-fault per job.
///
/// `Completed` carries the full output inline: outcomes are produced on
/// the batch hot path and consumed immediately, so boxing the large
/// variant would trade an allocation per job for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutcome {
    /// The job ran to completion.
    Completed(JobOutput),
    /// The job failed; see the fault.
    Fault(JobFault),
}

impl JobOutcome {
    /// The output of a completed job.
    pub fn output(&self) -> Option<&JobOutput> {
        match self {
            JobOutcome::Completed(out) => Some(out),
            JobOutcome::Fault(_) => None,
        }
    }
}

/// The per-job record produced by the runner.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Index of the job in the submitted batch.
    pub index: usize,
    /// The job's display name.
    pub name: String,
    /// Wall-clock time this job took on its worker.
    pub wall: Duration,
    /// Success or captured failure.
    pub outcome: JobOutcome,
    /// Fault/recovery record across the job's attempts (all zeros when no
    /// fault machinery was exercised).
    pub recovery: RecoveryStats,
}

/// Cycles per [`RunningJob`] slice: the single-shot executor checks its
/// wall-clock limit and applies its retry policy between slices, a
/// lane-fused batch unit advances its
/// [`LaneGroup`](crate::preempt::LaneGroup) one slice at a time, and the
/// service scheduler preempts at the same granularity by default. Small
/// enough to bound overshoot, large enough to amortize the `Instant::now`
/// call.
pub const SLICE_CYCLES: u64 = 1024;

/// Executes a job to completion on the calling thread, returning the
/// result together with its fault/recovery record. Deferred builder
/// errors fail the job here, before any machine is built.
pub(crate) fn run(job: &Job) -> (Result<JobOutput, JobFault>, RecoveryStats) {
    if let Some(msg) = &job.builder_error {
        return (Err(JobFault::Config(msg.clone())), RecoveryStats::default());
    }
    match &job.work {
        JobWork::Machine(_) => run_machine(job),
        JobWork::Custom(work) => run_custom(work, job),
    }
}

/// Sleeps out a backoff delay (no-op for the immediate-retry default, so
/// the classic rollback loop costs nothing extra).
fn sleep_backoff(delay: Duration) {
    if !delay.is_zero() {
        std::thread::sleep(delay);
    }
}

/// Executes a custom job, retrying under a re-salted fault scope when the
/// workload reports a detected fault and the retry policy allows it.
fn run_custom(work: &CustomFn, spec: &Job) -> (Result<JobOutput, JobFault>, RecoveryStats) {
    let started = Instant::now();
    let mut recovery = RecoveryStats::default();
    let mut attempt: u32 = 0;
    loop {
        let result = match spec.faults {
            Some(cfg) => systolic_ring_core::with_faults(
                cfg.with_salt(cfg.salt.wrapping_add(u64::from(attempt))),
                work,
            ),
            None => work(),
        };
        if let Some(limit) = spec.wall_limit {
            if started.elapsed() >= limit {
                return (Err(JobFault::WallLimit { limit }), recovery);
            }
        }
        match result {
            Ok(out) => {
                recovery.recovered = recovery.faults_detected > 0;
                return (Ok(out), recovery);
            }
            Err(msg) => {
                let fault = JobFault::Workload(msg);
                if fault.is_detected_fault() {
                    recovery.faults_detected += 1;
                    if attempt < spec.retry.max_retries {
                        attempt += 1;
                        recovery.retries += 1;
                        sleep_backoff(spec.retry.delay(attempt));
                        continue;
                    }
                }
                return (Err(fault), recovery);
            }
        }
    }
}

/// Executes a machine job to completion on the calling thread: a
/// [`RunningJob`] advanced one [`SLICE_CYCLES`] slice at a time, with the
/// wall-clock limit checked before each slice, then finished.
///
/// Recovery loop: a post-setup [`systolic_ring_core::Checkpoint`] is
/// taken when the retry policy is active; a detected fault mid-run rolls
/// the machine back to it, optionally remaps a stuck Dnode onto a spare,
/// re-salts the transient fault streams and re-runs. The cycle budget is
/// accounted against the machine's cycle, so a rollback refunds the
/// cycles of the abandoned attempt.
fn run_machine(spec: &Job) -> (Result<JobOutput, JobFault>, RecoveryStats) {
    let started = Instant::now();
    let mut recovery = RecoveryStats::default();
    let mut job = match RunningJob::launch(spec) {
        Ok(job) => job,
        Err(fault) => return (Err(fault), recovery),
    };
    let mut checkpoint = spec.retry.is_active().then(|| job.machine.checkpoint());
    let mut attempt: u32 = 0;
    while !job.is_done() {
        if let Some(limit) = spec.wall_limit {
            if started.elapsed() >= limit {
                return (Err(JobFault::WallLimit { limit }), recovery);
            }
        }
        job.advance(SLICE_CYCLES);
        let Some(e) = job.error.take() else {
            continue;
        };
        if !e.is_detected_fault() {
            break;
        }
        recovery.faults_detected += 1;
        let Some(ckpt) = checkpoint
            .as_mut()
            .filter(|_| attempt < spec.retry.max_retries)
        else {
            break;
        };
        attempt += 1;
        recovery.retries += 1;
        job.fault = None;
        let m = &mut job.machine;
        m.restore(ckpt);
        if spec.retry.remap {
            if let SimError::DatapathFault {
                site: FaultSite::StuckOut { dnode },
                ..
            } = e
            {
                let (layer, _) = m.geometry().dnode_position(dnode);
                if let Some(spare) = m.find_spare(layer) {
                    if m.remap_dnode(dnode, spare).is_ok() {
                        recovery.remaps += 1;
                        // The repair is permanent: fold it into the
                        // rollback point so later retries keep it.
                        *ckpt = m.checkpoint();
                    }
                }
            }
        }
        m.rearm_faults(u64::from(attempt));
        sleep_backoff(spec.retry.delay(attempt));
    }
    let result = match job.finish() {
        JobOutcome::Completed(out) => Ok(out),
        JobOutcome::Fault(fault) => Err(fault),
    };
    recovery.recovered = result.is_ok() && recovery.faults_detected > 0;
    (result, recovery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_ring_isa::dnode::{AluOp, DnodeMode, MicroInstr, Operand, Reg};

    fn counting_job(cycles: u64) -> Job {
        Job::from_config(
            "count",
            RingGeometry::RING_8,
            MachineParams::PAPER,
            |m| {
                let inc = MicroInstr::op(AluOp::Add, Operand::Reg(Reg::R0), Operand::One)
                    .write_reg(Reg::R0)
                    .write_out();
                m.set_local_program(0, &[inc])?;
                m.set_mode(0, DnodeMode::Local);
                Ok(())
            },
            CycleBudget::Cycles(cycles),
        )
    }

    #[test]
    fn machine_job_runs_and_reports_cycles() {
        let job = counting_job(17);
        let out = run(&job).0.expect("runs");
        assert_eq!(out.cycles, 17);
        assert_eq!(out.stats.cycles, 17);
        assert!(out.outputs.is_empty());
    }

    #[test]
    fn until_halt_without_halt_is_divergence() {
        let job = Job::from_config(
            "spin",
            RingGeometry::RING_8,
            MachineParams::PAPER,
            |_| Ok(()),
            CycleBudget::UntilHalt { max_cycles: 100 },
        );
        // An empty controller program never halts by itself? The reset
        // controller is halted; load a spin loop instead.
        match run(&job).0 {
            Ok(out) => assert!(out.cycles <= 100),
            Err(JobFault::Diverged { max_cycles }) => assert_eq!(max_cycles, 100),
            Err(other) => panic!("unexpected fault {other}"),
        }
    }

    #[test]
    fn bad_configuration_is_a_config_fault() {
        let job = Job::from_config(
            "bad",
            RingGeometry::RING_8,
            MachineParams::PAPER,
            |m| m.set_local_program(usize::MAX, &[]).map(|_| ()),
            CycleBudget::Cycles(1),
        );
        assert!(matches!(run(&job).0, Err(JobFault::Config(_))));
    }

    #[test]
    fn builder_attaches_streams_and_sinks() {
        let job = counting_job(4)
            .with_input(0, 0, [Word16::from_i16(5)])
            .with_sink(1, 0);
        let JobWork::Machine(m) = &job.work else {
            panic!("machine job")
        };
        assert_eq!(m.inputs.len(), 1);
        assert_eq!(m.sinks.len(), 1);
    }

    /// The wall-clock limit is checked before every slice of a machine
    /// job: an elapsed limit fails the job before it runs a cycle, and a
    /// limit that never elapses changes nothing about the result.
    #[test]
    fn machine_job_wall_limit_is_checked_per_slice() {
        let expired = counting_job(3 * SLICE_CYCLES).with_wall_limit(Duration::ZERO);
        let (result, recovery) = run(&expired);
        assert_eq!(
            result,
            Err(JobFault::WallLimit {
                limit: Duration::ZERO
            })
        );
        assert!(recovery.is_clean());

        let unlimited = run(&counting_job(3 * SLICE_CYCLES)).0.expect("runs");
        let generous = counting_job(3 * SLICE_CYCLES).with_wall_limit(Duration::from_secs(3600));
        let limited = run(&generous).0.expect("runs within the limit");
        assert_eq!(limited.outputs, unlimited.outputs);
        assert_eq!(limited.cycles, unlimited.cycles);
        assert_eq!(limited.stats, unlimited.stats);
    }

    #[test]
    fn fault_display_is_informative() {
        let fault = JobFault::Diverged { max_cycles: 9 };
        assert!(fault.to_string().contains("9 cycles"));
        assert!(JobFault::Panic("boom".into()).to_string().contains("boom"));
    }

    fn halting_job(wait: u16, max_cycles: u64) -> Job {
        use systolic_ring_isa::ctrl::CtrlInstr;
        let program = vec![
            CtrlInstr::Wait { cycles: wait }.encode(),
            CtrlInstr::Halt.encode(),
        ];
        Job::from_config(
            "halting",
            RingGeometry::RING_8,
            MachineParams::PAPER,
            move |m| m.controller_mut().load_program(&program),
            CycleBudget::UntilHalt { max_cycles },
        )
    }

    /// The batch runner's `UntilHalt` accounting must agree exactly with
    /// `RingMachine::run_until_halt`, including at budget boundaries.
    #[test]
    fn until_halt_cycle_accounting_matches_run_until_halt() {
        use systolic_ring_isa::ctrl::CtrlInstr;
        let program = vec![
            CtrlInstr::Wait { cycles: 37 }.encode(),
            CtrlInstr::Halt.encode(),
        ];
        let mut reference = RingMachine::new(RingGeometry::RING_8, MachineParams::PAPER);
        reference.controller_mut().load_program(&program).unwrap();
        let halted_at = reference.run_until_halt(10_000).expect("halts");

        let job = halting_job(37, 10_000);
        let out = run(&job).0.expect("runs");
        assert_eq!(out.cycles, halted_at);
        assert_eq!(out.stats.cycles, halted_at);

        // A budget of exactly the halt cycle completes; one less diverges
        // with exactly the budget consumed — no mid-step overshoot.
        let job = halting_job(37, halted_at);
        assert_eq!(run(&job).0.expect("exact fit").cycles, halted_at);

        let job = halting_job(37, halted_at - 1);
        assert!(matches!(
            run(&job).0,
            Err(JobFault::Diverged { max_cycles }) if max_cycles == halted_at - 1
        ));
    }

    /// Every cached path decodes plans (the compiled tier decodes what it
    /// compiles), so misses show the cache engaged; the uncached path
    /// never counts one.
    #[test]
    fn decode_cache_toggle_reaches_machine_jobs() {
        for enabled in [true, false] {
            let job = counting_job(64).with_decode_cache(enabled);
            let JobWork::Machine(m) = &job.work else {
                panic!("machine job")
            };
            assert_eq!(m.params.decode_cache, enabled);
            let out = run(&job).0.expect("runs");
            assert_eq!(out.stats.decode_cache_misses > 0, enabled);
        }
    }

    #[test]
    fn decode_cache_toggle_wraps_custom_jobs() {
        let job = Job::custom("probe", || {
            let mut m = RingMachine::with_defaults(RingGeometry::RING_8);
            m.run(16).map_err(|e| e.to_string())?;
            Ok(JobOutput {
                outputs: Vec::new(),
                cycles: m.cycle(),
                stats: m.stats().clone(),
            })
        })
        .with_decode_cache(false);
        let JobWork::Custom(work) = &job.work else {
            panic!("custom job")
        };
        let out = work().expect("runs");
        assert_eq!(out.stats.decode_cache_hits, 0);
        assert_eq!(out.stats.decode_cache_misses, 0);
    }

    /// Satellite contract: machine-only builders on a custom job never
    /// panic; the misuse is deferred and reported as a `Config` fault.
    #[test]
    fn builder_misuse_on_custom_job_is_deferred_not_a_panic() {
        let job = Job::custom("opaque", || {
            Ok(JobOutput {
                outputs: Vec::new(),
                cycles: 0,
                stats: Stats::new(1),
            })
        })
        .with_sink(1, 0)
        .with_input(0, 0, [Word16::ZERO]);
        // The first misuse wins; both are recorded as the same fault kind.
        let msg = job.builder_error().expect("misuse recorded");
        assert!(msg.contains("with_sink on a custom job"), "{msg}");
        let (result, recovery) = run(&job);
        assert!(recovery.is_clean());
        match result {
            Err(JobFault::Config(m)) => assert!(m.contains("custom jobs own their machine setup")),
            other => panic!("expected deferred config fault, got {other:?}"),
        }
    }

    #[test]
    fn injected_machine_job_recovers_or_fails_detected() {
        let mut recovered_any = false;
        for seed in 0..20u64 {
            let job = counting_job(256)
                .with_faults(FaultConfig::uniform(seed, 2_000))
                .with_retry(RetryPolicy::retries(50).with_remap(true));
            let (result, recovery) = run(&job);
            match result {
                Ok(out) => {
                    assert_eq!(out.cycles, 256);
                    if recovery.faults_detected > 0 {
                        assert!(recovery.recovered);
                        recovered_any = true;
                    }
                }
                Err(fault) => {
                    assert!(fault.is_detected_fault(), "undetected failure: {fault}");
                    assert!(!recovery.recovered);
                }
            }
            assert!(recovery.retries <= 50);
        }
        assert!(recovered_any, "no seed exercised the recovery path");
    }

    /// Without a retry policy the first detected fault fails the job,
    /// and the fault is classified as detected.
    #[test]
    fn injected_machine_job_without_retry_fails_detected() {
        let mut faulted_any = false;
        for seed in 0..10u64 {
            let job = counting_job(4096).with_faults(FaultConfig::uniform(seed, 5_000));
            let (result, recovery) = run(&job);
            if let Err(fault) = result {
                assert!(fault.is_detected_fault(), "undetected failure: {fault}");
                assert_eq!(recovery.retries, 0);
                assert!(recovery.faults_detected > 0);
                faulted_any = true;
            }
        }
        assert!(faulted_any, "no seed produced a fault at 0.5%/class/cycle");
    }

    /// Pins the exponential-backoff schedule: the delay sequence for a
    /// given `(base, max, jitter seed)` is part of the policy's contract
    /// — any change to the exponent rule, cap or jitter draw must show up
    /// here as a deliberate diff.
    #[test]
    fn backoff_schedule_is_pinned() {
        let policy = RetryPolicy::retries(8)
            .backoff(Duration::from_millis(10), Duration::from_millis(200))
            .with_jitter(0xfeed);
        let schedule_ms: Vec<u128> = (0..=6).map(|n| policy.delay(n).as_millis()).collect();
        // attempt 0 never waits; 1..=5 double (plus seeded jitter <= +50%);
        // the cap flattens the tail at 200ms exactly.
        assert_eq!(schedule_ms, vec![0, 14, 27, 42, 83, 200, 200]);
        // The schedule is a pure function: same policy, same delays.
        assert_eq!(policy.delay(3), policy.delay(3));
        // A different seed decorrelates the jitter but keeps every delay
        // inside the [exp, min(1.5 * exp, max)] envelope.
        let other = policy.with_jitter(0xbeef);
        for n in 1..=10u32 {
            let exp = 10u128 << (n - 1);
            let d = other.delay(n).as_millis();
            assert!(
                d >= exp.min(200) && d <= (exp + exp / 2).min(200),
                "{n}: {d}"
            );
        }
        assert_ne!(policy.delay(2), other.delay(2));
        // Immediate-retry policies (the default) never wait at all.
        assert_eq!(RetryPolicy::retries(3).delay(5), Duration::ZERO);
        // Huge attempt counts saturate instead of wrapping.
        assert_eq!(policy.delay(200), Duration::from_millis(200));
    }

    #[test]
    fn detected_fault_classification_matches_display_phrases() {
        assert!(JobFault::Sim(
            "cycle 3: configuration parity mismatch in context 0 at dnode 1".into()
        )
        .is_detected_fault());
        assert!(JobFault::Workload(
            "machine fault: cycle 9: datapath fault in context 0 at dnode 2 register R1".into()
        )
        .is_detected_fault());
        assert!(JobFault::Sim(
            "cycle 8: watchdog expired after 8 cycles without progress \
             in context 0 at controller pc 0x2"
                .into()
        )
        .is_detected_fault());
        assert!(!JobFault::Sim("cycle limit".into()).is_detected_fault());
        assert!(!JobFault::Panic("parity mismatch".into()).is_detected_fault());
    }
}
