//! Batch-execution engine and zero-dependency test kit for the Systolic
//! Ring simulator.
//!
//! The reproduction's evaluation sweeps many independent simulator runs —
//! kernel instances across geometries, randomized configuration fuzzing,
//! scaling tables. Every one of those runs is embarrassingly parallel:
//! a [`RingMachine`](systolic_ring_core::RingMachine) is plain owned data,
//! so independent machines can step on independent OS threads with no
//! shared state at all. This crate turns that observation into
//! infrastructure:
//!
//! * [`job`] — a [`Job`] describes one simulator run (geometry,
//!   sizing parameters, an assembled object or a raw configuration
//!   closure, input streams, cycle budget) or wraps an arbitrary
//!   self-contained workload closure,
//! * [`runner`] — a [`BatchRunner`] shards jobs
//!   across `std::thread::available_parallelism()` workers with
//!   work-stealing, packs identical-object jobs into lane-fused
//!   [`LaneGroup`]s by the service's grouping rule, captures panics and
//!   faults per job (a diverging or panicking job yields a fault report,
//!   never poisons the batch) and aggregates per-job
//!   [`Stats`](systolic_ring_core::Stats) into a batch-level summary,
//! * [`conformance`] — the four-tier ISA conformance runner: walks the
//!   literate program corpus (`programs/*.sr`, `programs/*.sr.md`),
//!   lints every object, executes it on the slow/decoded/fused/aot tiers and
//!   judges sink expectations, cycle budgets and cross-tier
//!   bit-equality (CLI: `srconform`),
//! * [`preempt`] — the one machine-job executor: a
//!   [`preempt::RunningJob`] advances slice by slice, suspends into a
//!   checkpoint and resumes later with bit-identical results; a
//!   [`preempt::LaneGroup`] keeps many such jobs in fused lockstep. The
//!   single-shot path, the batch runner's lane-fused units and the
//!   multi-tenant service all execute on these two types,
//! * [`admission`] — the service's bounded front door: per-tenant
//!   quotas, a global queue cap, interactive-over-batch priority,
//!   deterministic retry-after backpressure hints and a terminal drain
//!   state for graceful shutdown,
//! * [`campaign`] — a chaos-campaign driver sweeping fault-injection
//!   rates across a suite of golden-checked jobs and classifying every
//!   outcome (clean / recovered / detected-failed / undetected), the
//!   harness-level proof that detected faults stay detected,
//! * [`testkit`] — a deterministic SplitMix64 PRNG and the
//!   [`for_random_cases!`] helper, replacing external `rand`/`proptest`
//!   dependencies so the whole workspace builds and tests offline,
//! * [`microbench`] — a tiny `std::time::Instant` wall-clock benchmark
//!   timer, replacing `criterion` for the same reason.
//!
//! Everything here is `std`-only: no external crates, no unsafe code.
//!
//! # Examples
//!
//! Sweep a local-mode MAC program across a batch of machines:
//!
//! ```
//! use systolic_ring_harness::job::{CycleBudget, Job};
//! use systolic_ring_harness::runner::BatchRunner;
//! use systolic_ring_core::MachineParams;
//! use systolic_ring_isa::dnode::{AluOp, DnodeMode, MicroInstr, Operand, Reg};
//! use systolic_ring_isa::RingGeometry;
//!
//! let jobs: Vec<Job> = (0..8)
//!     .map(|i| {
//!         Job::from_config(
//!             format!("mac-{i}"),
//!             RingGeometry::RING_8,
//!             MachineParams::PAPER,
//!             move |m| {
//!                 let mac = MicroInstr::op(AluOp::Mac, Operand::One, Operand::One)
//!                     .write_reg(Reg::R0);
//!                 m.set_local_program(0, &[mac])?;
//!                 m.set_mode(0, DnodeMode::Local);
//!                 Ok(())
//!             },
//!             CycleBudget::Cycles(64 + i),
//!         )
//!     })
//!     .collect();
//! let report = BatchRunner::new().run(&jobs);
//! assert_eq!(report.summary().completed, 8);
//! ```

pub mod admission;
pub mod campaign;
pub mod conformance;
pub mod job;
pub mod microbench;
pub mod preempt;
pub mod runner;
pub mod testkit;

pub use admission::{
    Admission, AdmissionConfig, AdmissionQueue, AdmissionStats, JobClass, QueuedJob, RejectReason,
};
pub use campaign::{CampaignCase, CampaignReport, CampaignRow, CaseResult};
pub use job::{
    CycleBudget, Job, JobFault, JobOutcome, JobOutput, JobReport, RecoveryStats, RetryPolicy,
};
pub use preempt::{group_eligible, groupable, preemptible, LaneGroup, RunningJob, SuspendedJob};
pub use runner::{BatchReport, BatchRunner, BatchSummary};
pub use testkit::TestRng;
