//! End-to-end tests for the multi-tenant service: the scripted scheduler
//! (fully deterministic), the threaded TCP front end, and the service's
//! headline promises — backpressure instead of collapse, bit-identical
//! preemption, honest drain, and per-tenant fault isolation.

use std::time::Duration;

use systolic_ring_core::{FaultConfig, MachineParams};
use systolic_ring_harness::admission::{AdmissionConfig, JobClass, RejectReason};
use systolic_ring_harness::job::{CycleBudget, Job, JobFault, JobOutcome};
use systolic_ring_harness::preempt::RunningJob;
use systolic_ring_harness::runner::BatchRunner;
use systolic_ring_isa::ctrl::CtrlInstr;
use systolic_ring_isa::dnode::{AluOp, MicroInstr, Operand};
use systolic_ring_isa::object::{Object, Preload};
use systolic_ring_isa::switch::{HostCapture, PortSource};
use systolic_ring_isa::{RingGeometry, Word16};
use systolic_ring_server::{
    Client, JobStatus, Server, ServerConfig, Service, ServiceConfig, Submit, SubmitError,
    SubmitSpec,
};

/// The increment-stream object used across the harness tests: Dnode
/// (0,0) computes `in + 1` from host port (0,0), captured at switch 1
/// port 0.
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

fn input_words(base: i16) -> Vec<i16> {
    (0..48).map(|i| base + i).collect()
}

fn stream_job(name: &str, base: i16, cycles: u64) -> Job {
    Job::from_object(
        name.to_owned(),
        RingGeometry::RING_8,
        MachineParams::PAPER,
        increment_object(),
        CycleBudget::Cycles(cycles),
    )
    .with_input(0, 0, input_words(base).into_iter().map(Word16::from_i16))
    .with_sink(1, 0)
}

/// The uncontended single-job result the service must reproduce.
fn solo_outcome(job: &Job) -> JobOutcome {
    let mut running = RunningJob::start(job).expect("starts");
    while !running.is_done() {
        running.advance(u64::MAX);
    }
    running.finish()
}

/// Outputs + cycles equality — the preemption-equivalence contract
/// (recovery and engine counters legitimately differ).
fn assert_same_result(got: &JobOutcome, want: &JobOutcome) {
    match (got, want) {
        (JobOutcome::Completed(a), JobOutcome::Completed(b)) => {
            assert_eq!(a.outputs, b.outputs, "sink streams diverged");
            assert_eq!(a.cycles, b.cycles, "cycle counts diverged");
        }
        _ => panic!("outcomes differ in kind: {got:?} vs {want:?}"),
    }
}

fn done_outcome(status: Option<JobStatus>) -> JobOutcome {
    match status {
        Some(JobStatus::Done(outcome)) => outcome,
        other => panic!("expected a settled job, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Scripted mode: deterministic scheduler behavior.
// ---------------------------------------------------------------------

#[test]
fn scripted_packing_runs_all_tenants_bit_identically() {
    let service = Service::new(ServiceConfig::default());
    let tenants = [
        "alice", "bob", "carol", "dave", "erin", "frank", "gus", "hana",
    ];
    let mut tickets = Vec::new();
    let mut baselines = Vec::new();
    for (i, tenant) in tenants.iter().enumerate() {
        let job = stream_job(tenant, 100 * (i as i16 + 1), 2048);
        baselines.push(solo_outcome(&job));
        let ok = service
            .submit(tenant, JobClass::Batch, job, None)
            .expect("admitted");
        tickets.push(ok.ticket);
    }
    service.run_idle();
    for (ticket, baseline) in tickets.iter().zip(&baselines) {
        assert_same_result(&done_outcome(service.status(*ticket)), baseline);
    }
    let stats = service.stats();
    assert_eq!(stats.admission.admitted, 8);
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.faulted, 0);
    // All eight identical-object jobs were packed into one unit: every
    // advanced cycle carried eight live lanes.
    assert!(
        stats.lane_occupancy() > 7.9,
        "expected 8-lane packing, got occupancy {}",
        stats.lane_occupancy()
    );
}

#[test]
fn scripted_interactive_preempts_batch_and_resumes_bit_identically() {
    let service = Service::new(ServiceConfig {
        slice_cycles: 256,
        ..ServiceConfig::default()
    });
    let batch_job = stream_job("batch-tenant", 10, 4096);
    let batch_baseline = solo_outcome(&batch_job);
    let batch = service
        .submit("batch-tenant", JobClass::Batch, batch_job, None)
        .expect("admitted");
    // Claim + one slice of the batch unit.
    assert!(service.tick());
    assert_eq!(service.status(batch.ticket), Some(JobStatus::Running));

    let interactive_job = stream_job("itenant", 500, 256);
    let interactive_baseline = solo_outcome(&interactive_job);
    let interactive = service
        .submit("itenant", JobClass::Interactive, interactive_job, None)
        .expect("admitted");

    // The next slice boundary sees the waiting interactive job and parks
    // the batch unit as a checkpoint.
    assert!(service.tick());
    assert_eq!(
        service.status(batch.ticket),
        Some(JobStatus::Checkpointed { cycle: 512 })
    );
    assert_eq!(service.stats().preemptions, 1);

    // The interactive job runs next — one slice start to finish — while
    // the batch job is still parked.
    assert!(service.tick());
    assert_same_result(
        &done_outcome(service.status(interactive.ticket)),
        &interactive_baseline,
    );
    assert!(matches!(
        service.status(batch.ticket),
        Some(JobStatus::Checkpointed { .. })
    ));

    // The parked unit resumes and finishes with a bit-identical result.
    service.run_idle();
    assert_same_result(&done_outcome(service.status(batch.ticket)), &batch_baseline);
}

#[test]
fn scripted_per_tenant_accounting_tracks_cycles_jobs_and_preemptions() {
    let service = Service::new(ServiceConfig {
        slice_cycles: 256,
        ..ServiceConfig::default()
    });
    let batch = service
        .submit(
            "batch-tenant",
            JobClass::Batch,
            stream_job("batch-tenant", 10, 4096),
            None,
        )
        .expect("admitted");
    // One slice of the batch unit, then an interactive arrival forces a
    // checkpoint preemption at the next boundary.
    assert!(service.tick());
    service
        .submit(
            "itenant",
            JobClass::Interactive,
            stream_job("itenant", 500, 256),
            None,
        )
        .expect("admitted");
    service.run_idle();
    assert!(matches!(
        service.status(batch.ticket),
        Some(JobStatus::Done(_))
    ));

    // The snapshot carries one accounting row per tenant, sorted by
    // name, and every simulated cycle is billed to exactly one tenant.
    let stats = service.stats();
    let names: Vec<&str> = stats.tenants.iter().map(|t| t.tenant.as_str()).collect();
    assert_eq!(names, ["batch-tenant", "itenant"]);
    let batch_row = &stats.tenants[0];
    assert_eq!(batch_row.cycles_simulated, 4096);
    assert_eq!(batch_row.jobs_completed, 1);
    assert_eq!(batch_row.preemptions, 1);
    let inter_row = &stats.tenants[1];
    assert_eq!(inter_row.cycles_simulated, 256);
    assert_eq!(inter_row.jobs_completed, 1);
    assert_eq!(inter_row.preemptions, 0);
    assert_eq!(
        stats
            .tenants
            .iter()
            .map(|t| t.cycles_simulated)
            .sum::<u64>(),
        stats.advanced_cycles
    );

    // The rows survive the wire: rendered into the stats JSON and read
    // back through the protocol's own parser.
    let json = systolic_ring_server::protocol::stats_json(&stats);
    let parsed = systolic_ring_server::Json::parse(&json).expect("stats JSON parses");
    let tenants = parsed.get("tenants").expect("tenants object");
    let batch_obj = tenants.get("batch-tenant").expect("batch-tenant row");
    assert_eq!(
        batch_obj.get("cycles_simulated").and_then(|v| v.as_u64()),
        Some(4096)
    );
    assert_eq!(
        batch_obj.get("jobs_completed").and_then(|v| v.as_u64()),
        Some(1)
    );
    assert_eq!(
        batch_obj.get("preemptions").and_then(|v| v.as_u64()),
        Some(1)
    );
    let inter_obj = tenants.get("itenant").expect("itenant row");
    assert_eq!(
        inter_obj.get("cycles_simulated").and_then(|v| v.as_u64()),
        Some(256)
    );
    assert_eq!(
        inter_obj.get("preemptions").and_then(|v| v.as_u64()),
        Some(0)
    );
}

#[test]
fn scripted_admission_backpressure_is_deterministic() {
    let service = Service::new(ServiceConfig {
        admission: AdmissionConfig {
            queue_capacity: 2,
            tenant_quota: 1,
            est_job_ms: 10,
        },
        ..ServiceConfig::default()
    });
    let submit =
        |tenant: &str| service.submit(tenant, JobClass::Batch, stream_job(tenant, 1, 1024), None);
    submit("alice").expect("admitted");
    // Tenant quota: alice already has one outstanding job.
    match submit("alice") {
        Err(SubmitError::Rejected {
            reason: RejectReason::TenantQuota,
            retry_after_ms,
        }) => assert_eq!(retry_after_ms, 10),
        other => panic!("expected quota rejection, got {other:?}"),
    }
    submit("bob").expect("admitted");
    // Queue full: two queued jobs, capacity two. The hint scales with
    // the congestion ahead of the client.
    match submit("carol") {
        Err(SubmitError::Rejected {
            reason: RejectReason::QueueFull,
            retry_after_ms,
        }) => assert_eq!(retry_after_ms, 20),
        other => panic!("expected queue-full rejection, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.admission.admitted, 2);
    assert_eq!(stats.admission.rejected_quota, 1);
    assert_eq!(stats.admission.rejected_full, 1);
    // The rejected jobs consumed nothing: the queue drains to exactly
    // the two admitted jobs.
    service.run_idle();
    assert_eq!(service.stats().completed, 2);
}

#[test]
fn scripted_drain_loses_no_job_silently() {
    let service = Service::new(ServiceConfig::default());
    let running = service
        .submit(
            "alice",
            JobClass::Batch,
            stream_job("alice", 1, 1 << 20),
            None,
        )
        .expect("admitted");
    // Claim the long job so it is mid-flight when the drain arrives.
    assert!(service.tick());
    let queued: Vec<u64> = ["bob", "carol"]
        .iter()
        .map(|tenant| {
            service
                .submit(tenant, JobClass::Batch, stream_job(tenant, 2, 1024), None)
                .expect("admitted")
                .ticket
        })
        .collect();

    let evicted = service.drain();
    assert_eq!(evicted, 2);
    // Queued jobs got a client-visible eviction fault, not silence.
    for ticket in queued {
        match done_outcome(service.status(ticket)) {
            JobOutcome::Fault(JobFault::Workload(msg)) => {
                assert!(msg.contains("service draining"), "unhelpful fault: {msg}")
            }
            other => panic!("expected eviction fault, got {other:?}"),
        }
    }
    // The in-flight job parks as a checkpoint at its next slice boundary.
    service.run_idle();
    assert!(matches!(
        service.status(running.ticket),
        Some(JobStatus::Checkpointed { .. })
    ));
    // New offers are refused while draining.
    match service.submit("dave", JobClass::Batch, stream_job("dave", 3, 1024), None) {
        Err(SubmitError::Rejected {
            reason: RejectReason::Draining,
            ..
        }) => {}
        other => panic!("expected draining rejection, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.evicted, 2);
    assert_eq!(stats.parked_jobs, 1);
    assert_eq!(stats.running_units, 0);
}

#[test]
fn scripted_chaos_tenant_never_corrupts_lane_mates() {
    let mut detected_faults = 0;
    for seed in [3, 11, 29] {
        let service = Service::new(ServiceConfig::default());
        let clean_tenants = ["alice", "bob", "carol"];
        let mut clean = Vec::new();
        for (i, tenant) in clean_tenants.iter().enumerate() {
            let job = stream_job(tenant, 10 * (i as i16 + 1), 2048);
            let baseline = solo_outcome(&job);
            let ok = service
                .submit(tenant, JobClass::Batch, job, None)
                .expect("admitted");
            clean.push((ok.ticket, baseline));
        }
        let chaos_job =
            stream_job("mallory", 999, 2048).with_faults(FaultConfig::uniform(seed, 20_000));
        let chaos = service
            .submit("mallory", JobClass::Batch, chaos_job, None)
            .expect("chaos tenant admitted like any other");
        service.run_idle();

        // The chaos tenant's fate is its own: completed or a *detected*
        // fault — never an undetected wrong answer for its lane-mates.
        match done_outcome(service.status(chaos.ticket)) {
            JobOutcome::Fault(fault) => {
                assert!(fault.is_detected_fault(), "undetected fault: {fault}");
                detected_faults += 1;
            }
            JobOutcome::Completed(_) => {}
        }
        // Every clean tenant's result is bit-identical to its solo run.
        for (ticket, baseline) in &clean {
            assert_same_result(&done_outcome(service.status(*ticket)), baseline);
        }
    }
    assert!(
        detected_faults > 0,
        "chaos campaign never injected a detected fault; raise the rate"
    );
}

/// The service groups by the batch runner's rule: a fault-armed or
/// watchdog job runs as its own unit, because one armed lane makes every
/// shared burst of its group refuse. The clean jobs of the same object
/// and budget pack into one unit and really share its bursts.
#[test]
fn scripted_armed_jobs_run_alone_so_clean_lanes_share_bursts() {
    let budget = 4096;
    let service = Service::new(ServiceConfig::default());
    let mut clean = Vec::new();
    for (i, tenant) in ["alice", "bob", "carol"].iter().enumerate() {
        let job = stream_job(tenant, 10 * (i as i16 + 1), budget);
        let ok = service
            .submit(tenant, JobClass::Batch, job, None)
            .expect("admitted");
        clean.push(ok.ticket);
    }
    // Armed for detection only, so the lane never faults and would block
    // its lane-mates' bursts for the whole budget if it were packed.
    let armed = stream_job("mallory", 999, budget).with_faults(FaultConfig::detect_only(1));
    let watched = stream_job("wendy", 500, budget).with_watchdog(1 << 20);
    for (tenant, job) in [("mallory", armed), ("wendy", watched)] {
        service
            .submit(tenant, JobClass::Batch, job, None)
            .expect("admitted");
    }
    service.run_idle();

    // One 3-lane unit adds 2 x budget of occupancy over the cycles it
    // advances; a unit of one adds none.
    let stats = service.stats();
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.occupancy_cycles - stats.advanced_cycles, 2 * budget);
    for ticket in clean {
        let JobOutcome::Completed(out) = done_outcome(service.status(ticket)) else {
            panic!("clean job {ticket} did not complete");
        };
        assert!(
            out.stats.fused_lane_occupancy > out.stats.fused_cycles,
            "clean lane shared no burst: {} lane-cycles over {} fused cycles",
            out.stats.fused_lane_occupancy,
            out.stats.fused_cycles
        );
    }
}

/// A job's own wall limit is a deadline the service enforces, as the
/// batch runner does: a zero limit faults the job at its first slice
/// boundary instead of letting it run its whole budget.
#[test]
fn scripted_service_honours_the_job_wall_limit() {
    let expired = || stream_job("alice", 1, 4096).with_wall_limit(Duration::ZERO);
    let want = JobOutcome::Fault(JobFault::WallLimit {
        limit: Duration::ZERO,
    });
    let serial = BatchRunner::run_serial(&[expired()]);
    assert_eq!(
        serial.reports[0].outcome, want,
        "the batch runner's verdict"
    );

    let service = Service::new(ServiceConfig::default());
    let ok = service
        .submit("alice", JobClass::Batch, expired(), None)
        .expect("admitted");
    service.run_idle();
    assert_eq!(done_outcome(service.status(ok.ticket)), want);
    let stats = service.stats();
    assert_eq!((stats.completed, stats.faulted), (0, 1));
    assert_eq!(
        stats.advanced_cycles, 0,
        "an expired job must not run another slice"
    );
}

// ---------------------------------------------------------------------
// Threaded mode over TCP.
// ---------------------------------------------------------------------

fn spawn_server(config: ServerConfig) -> (Client, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (
        Client::new(addr).with_timeout(Duration::from_secs(120)),
        handle,
    )
}

fn submit_spec(tenant: &str, base: i16, cycles: u64) -> SubmitSpec {
    SubmitSpec::new(tenant, &increment_object(), cycles)
        .input(0, 0, &input_words(base))
        .sink(1, 0)
}

#[test]
fn tcp_end_to_end_submit_wait_stats_drain() {
    let (client, handle) = spawn_server(ServerConfig::default());
    assert!(client.health().expect("health request"));

    // Blocking submit returns the settled result, bit-identical to the
    // uncontended baseline.
    let baseline_job = stream_job("alice", 7, 2048);
    let baseline = solo_outcome(&baseline_job);
    let done = match client
        .submit(submit_spec("alice", 7, 2048).wait())
        .expect("submit")
    {
        Submit::Done(status) => status,
        other => panic!("expected settled status, got {other:?}"),
    };
    assert_eq!(done.status, "completed");
    match &baseline {
        JobOutcome::Completed(out) => {
            assert_eq!(done.outputs, out.outputs);
            assert_eq!(done.cycles, Some(out.cycles));
        }
        other => panic!("baseline faulted: {other:?}"),
    }

    // Async submit + status polling.
    let ticket = match client.submit(submit_spec("bob", 9, 2048)).expect("submit") {
        Submit::Accepted { ticket, .. } => ticket,
        other => panic!("expected acceptance, got {other:?}"),
    };
    let settled = client
        .wait_settled(ticket, Duration::from_secs(30))
        .expect("job settles");
    assert_eq!(settled.status, "completed");
    assert!(client.status(999_999).expect("status request").is_none());

    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("admitted").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(stats.get("completed").and_then(|v| v.as_u64()), Some(2));
    // Per-tenant accounting is on the wire: one row per tenant.
    for tenant in ["alice", "bob"] {
        let row = stats
            .get("tenants")
            .and_then(|t| t.get(tenant))
            .unwrap_or_else(|| panic!("no tenants row for {tenant}"));
        assert_eq!(
            row.get("jobs_completed").and_then(|v| v.as_u64()),
            Some(1),
            "{tenant}"
        );
        assert_eq!(
            row.get("cycles_simulated").and_then(|v| v.as_u64()),
            Some(2048),
            "{tenant}"
        );
    }

    // Graceful drain: 200 with the quiescent counters, then the accept
    // loop closes and run() returns cleanly — srserved's exit 0.
    let drained = client.drain().expect("drain");
    assert_eq!(
        drained.get("drained"),
        Some(&systolic_ring_server::Json::Bool(true))
    );
    assert_eq!(
        drained.get("running_units").and_then(|v| v.as_u64()),
        Some(0)
    );
    handle.join().expect("server thread").expect("clean exit");
    assert!(
        client.health().is_err(),
        "server still accepting after drain"
    );
}

#[test]
fn tcp_backpressure_and_drain_checkpoint_are_client_visible() {
    let (client, handle) = spawn_server(ServerConfig {
        workers: 1,
        service: ServiceConfig {
            admission: AdmissionConfig {
                queue_capacity: 8,
                tenant_quota: 1,
                est_job_ms: 10,
            },
            ..ServiceConfig::default()
        },
    });
    // A long batch job occupies alice's whole quota while it runs.
    let long = match client
        .submit(submit_spec("alice", 1, 1 << 24))
        .expect("submit")
    {
        Submit::Accepted { ticket, .. } => ticket,
        other => panic!("expected acceptance, got {other:?}"),
    };
    // Quota rejection surfaces as HTTP 429 with both hints.
    match client
        .submit(submit_spec("alice", 2, 1024))
        .expect("submit")
    {
        Submit::Rejected {
            status,
            reason,
            retry_after_ms,
        } => {
            assert_eq!(status, 429);
            assert_eq!(reason, "tenant quota exceeded");
            assert_eq!(retry_after_ms, 10);
        }
        other => panic!("expected 429, got {other:?}"),
    }
    // Drain parks the in-flight job as a checkpoint the client can see.
    let drained = client.drain().expect("drain");
    assert_eq!(drained.get("evicted_now").and_then(|v| v.as_u64()), Some(0));
    let parked = client
        .wait_settled(long, Duration::from_secs(10))
        .expect("status after drain");
    assert_eq!(parked.status, "checkpointed");
    assert!(parked.cycle.is_some(), "checkpoint cycle missing");
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn tcp_invalid_jobs_and_wall_deadlines_are_refused_loudly() {
    let (client, handle) = spawn_server(ServerConfig::default());

    // Garbage object body: 400, not a queue slot.
    let mut garbage = submit_spec("alice", 1, 1024);
    garbage.object_bytes = vec![0xde, 0xad, 0xbe, 0xef];
    match client.submit(garbage).expect("submit") {
        Submit::Invalid(msg) => assert!(msg.contains("bad object body"), "msg: {msg}"),
        other => panic!("expected 400, got {other:?}"),
    }
    // Zero cycle budget: rejected at parse.
    match client.submit(submit_spec("alice", 1, 0)).expect("submit") {
        Submit::Invalid(msg) => assert!(msg.contains("x-cycles"), "msg: {msg}"),
        other => panic!("expected 400, got {other:?}"),
    }
    // A wall-clock deadline faults the job instead of letting it pin a
    // worker: client sees the WallLimit fault verbatim.
    let mut deadline = submit_spec("alice", 1, 1 << 26).wait();
    deadline.wall_ms = Some(1);
    match client.submit(deadline).expect("submit") {
        Submit::Done(status) => {
            assert_eq!(status.status, "faulted");
            let fault = status.fault.expect("fault message");
            assert!(fault.contains("wall-clock limit"), "fault: {fault}");
        }
        other => panic!("expected wall-limit fault, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("faulted").and_then(|v| v.as_u64()), Some(1));
    client.drain().expect("drain");
    handle.join().expect("server thread").expect("clean exit");
}
