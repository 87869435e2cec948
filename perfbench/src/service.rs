//! `service_path`: the server's per-request work, in process, on one
//! thread.
//!
//! Each request of a seeded mix goes through what `srserved` does with
//! it after the socket: `JobSpec::build` (the lint pre-flight included),
//! `Service::submit` (admission), the service's scheduler, and
//! `status_json` + `write_response` into a buffer. Requests arrive in
//! bursts of eight, with one step of the deterministic scripted
//! scheduler (`Service::tick`) after each arrival and a run to idle after
//! each burst, so interactive requests preempt running batch work and
//! identical objects pack into fused lane groups by the policy the
//! threaded server uses, and every counter repeats exactly. The mix is a fixed multiset — demo and corpus objects, batch
//! and interactive classes, short budgets, a fixed share of objects made
//! unique per request by an extra data word that no program reads —
//! shuffled by the seed, which also picks tenants and input data.
//!
//! The front door itself (loopback TCP, one thread per connection,
//! worker wake-ups) runs in traced mode as a closed loop of nproc
//! `Client::submit(SubmitSpec::wait())` clients against a server at its
//! default configuration. Its host time follows the host's vCPU steal
//! far more than the program (see the README), so it gives layer
//! metrics, not end-to-end ones.

use std::collections::BTreeMap;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use systolic_ring_bench::service::{demo_inputs, demo_object};
use systolic_ring_core::{MachineParams, Stats};
use systolic_ring_harness::admission::JobClass;
use systolic_ring_harness::job::{CycleBudget, Job, JobOutcome};
use systolic_ring_harness::preempt::RunningJob;
use systolic_ring_harness::runner::BatchRunner;
use systolic_ring_harness::testkit::TestRng;
use systolic_ring_isa::object::Object;
use systolic_ring_isa::Word16;
use systolic_ring_server::protocol::{read_request, status_json, write_response, JobSpec};
use systolic_ring_server::{
    Client, JobStatus, Json, Response, Server, ServerConfig, Service, Submit, SubmitSpec,
};

use crate::batch;
use crate::corpus::{self, Program};
use crate::measure::{
    median, push_e2e, quantile, ratio, rss_kb, sorted, split_windows, summarize, window_line,
    Report, Setups, Window,
};
use crate::span::Tracer;
use crate::Args;

const TENANTS: usize = 6;
const INPUT_SETS: usize = 8;
/// Words per corpus input stream.
const INPUT_WORDS: usize = 64;
/// Every request's `Cycles(n)` budget is one of these.
const BUDGETS: [u64; 3] = [512, 1024, 2048];
/// Sizes the fixed work of a run from `--seconds`: requests per host
/// second of the reference host (2 vCPU) in its slow state.
const NOMINAL_REQUESTS_PER_S: f64 = 3500.0;
/// Requests submitted together before the scheduler runs to idle.
const BURST: usize = 8;
/// Requests per window, about 0.1 s.
const WINDOW_REQUESTS: usize = 400;
/// Requests per service instance: the service keeps every settled job,
/// so each instance serves a bounded share of the run.
const SERVICE_REQUESTS: usize = 16_000;
/// Requests of the traced front-door loop, on one server. The server
/// keeps every settled job and one thread handle per connection until it
/// exits, about two memory maps and 20 KB per request, so one instance
/// stays well below the kernel's default limit of 65,530 maps.
const TCP_REQUESTS: usize = 6000;
/// Requests per window of the traced front-door loop.
const TCP_WINDOW_REQUESTS: usize = 200;
/// Requests of the mix replayed in-process by the traced layer probes.
const PROBE_REQUESTS: usize = 240;

/// One object a request can carry: the demo object or a corpus program.
struct Target {
    name: String,
    object: Object,
    sinks: Vec<(usize, usize)>,
    /// Seeded input streams, `INPUT_SETS` alternatives.
    input_sets: Vec<Vec<(usize, usize, Vec<i16>)>>,
}

/// One request of the mix.
#[derive(Clone, Copy, Debug)]
struct Req {
    target: usize,
    budget: u64,
    interactive: bool,
    unique: bool,
    tenant: usize,
    input_set: usize,
}

/// A server on its own thread, drained and joined when dropped.
struct Served {
    addr: SocketAddr,
    thread: Option<thread::JoinHandle<std::io::Result<()>>>,
}

impl Served {
    fn start() -> Result<Served, String> {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let thread = Some(thread::spawn(move || server.run()));
        let served = Served { addr, thread };
        let client = Client::new(addr);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !client.health().unwrap_or(false) {
            if Instant::now() > deadline {
                return Err("server never answered /healthz".into());
            }
            thread::sleep(Duration::from_millis(1));
        }
        Ok(served)
    }

    /// Drains the server and waits for it to exit. A server that refuses
    /// the drain is not joined, since it would never return; it ends with
    /// the process.
    fn stop(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        Client::new(self.addr)
            .drain()
            .map_err(|e| format!("drain: {e}"))?;
        match thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server exited with {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

fn targets(seed: u64, programs: Vec<Program>) -> Vec<Target> {
    let mut rng = TestRng::new(seed ^ 0x005e_41c3);
    let demo = Target {
        name: "demo".into(),
        object: demo_object(),
        sinks: vec![(1, 0)],
        input_sets: (0..INPUT_SETS)
            .map(|_| vec![(0, 0, demo_inputs(rng.i16_in(0..1024)))])
            .collect(),
    };
    let mut out = vec![demo];
    for p in programs {
        let input_sets = (0..INPUT_SETS)
            .map(|_| {
                p.inputs
                    .iter()
                    .map(|&(s, port)| (s, port, rng.vec_i16(INPUT_WORDS, -100..100)))
                    .collect()
            })
            .collect();
        out.push(Target {
            name: p.name,
            object: p.object,
            sinks: p.sinks,
            input_sets,
        });
    }
    out
}

/// The fixed multiset of requests, shuffled by the seed. In every eight
/// consecutive entries, four carry the demo object and four one corpus
/// program; of each four, two are plain batch jobs, one is interactive
/// and one carries an object made unique to the request. Programs change
/// every 8 entries and budgets every 64, so every combination recurs.
fn mix(seed: u64, n: usize, targets: usize) -> Vec<Req> {
    let mut rng = TestRng::new(seed);
    let corpus = targets - 1;
    let mut reqs: Vec<Req> = (0..n)
        .map(|i| Req {
            target: if i % 2 == 0 { 0 } else { 1 + (i / 8) % corpus },
            budget: BUDGETS[(i / 64) % BUDGETS.len()],
            interactive: matches!(i % 8, 4 | 5),
            unique: matches!(i % 8, 2 | 3),
            tenant: 0,
            input_set: 0,
        })
        .collect();
    for i in (1..reqs.len()).rev() {
        reqs.swap(i, rng.index(i + 1));
    }
    for r in &mut reqs {
        r.tenant = rng.index(TENANTS);
        r.input_set = rng.index(INPUT_SETS);
    }
    reqs
}

fn object_for(t: &Target, r: &Req, index: usize) -> Object {
    let mut object = t.object.clone();
    if r.unique {
        // No corpus program reads controller data memory, so an extra
        // data word changes the object's bytes and nothing else.
        object.data.push(0x5eed_0000 ^ index as u32);
    }
    object
}

fn spec_for(t: &Target, r: &Req, index: usize) -> SubmitSpec {
    let mut spec = SubmitSpec::new(
        format!("tenant-{}", r.tenant),
        &object_for(t, r, index),
        r.budget,
    )
    .wait();
    if r.interactive {
        spec = spec.interactive();
    }
    for (s, port, words) in &t.input_sets[r.input_set] {
        spec = spec.input(*s, *port, words);
    }
    for &(s, port) in &t.sinks {
        spec = spec.sink(s, port);
    }
    spec
}

/// The job the server builds for request `r` (lint pre-flight included).
fn job_for(t: &Target, r: &Req, index: usize) -> Job {
    let object = object_for(t, r, index);
    let mut job = Job::from_object(
        format!("tenant-{}", r.tenant),
        corpus::geometry_of(&object),
        MachineParams::PAPER,
        object,
        CycleBudget::Cycles(r.budget),
    );
    for (s, port, words) in &t.input_sets[r.input_set] {
        job = job.with_input(*s, *port, words.iter().map(|&w| Word16::from_i16(w)));
    }
    for &(s, port) in &t.sinks {
        job = job.with_sink(s, port);
    }
    job
}

type RefKey = (usize, u64, usize);

/// Slow-tier reference outputs of every (target, budget, input set).
fn references(targets: &[Target]) -> Result<BTreeMap<RefKey, Vec<Vec<i16>>>, String> {
    let mut keys = Vec::new();
    let mut jobs = Vec::new();
    for (ti, t) in targets.iter().enumerate() {
        for &budget in &BUDGETS {
            for set in 0..INPUT_SETS {
                let r = Req {
                    target: ti,
                    budget,
                    interactive: false,
                    unique: false,
                    tenant: 0,
                    input_set: set,
                };
                keys.push((ti, budget, set));
                jobs.push(job_for(t, &r, 0).with_decode_cache(false));
            }
        }
    }
    let report = BatchRunner::new().run(&jobs);
    let mut out = BTreeMap::new();
    for (key, r) in keys.into_iter().zip(&report.reports) {
        let outputs = r.outcome.output().ok_or_else(|| {
            format!(
                "slow-tier reference {} failed: {:?}",
                targets[key.0].name, r.outcome
            )
        })?;
        out.insert(key, outputs.outputs.clone());
    }
    Ok(out)
}

/// The request mix and what it is sent to.
struct Env {
    served: Served,
    targets: Vec<Target>,
    reqs: Vec<Req>,
}

/// A warm-up request for each target.
fn warm_ups(targets: &[Target]) -> impl Iterator<Item = (&Target, Req)> {
    targets.iter().enumerate().map(|(i, t)| {
        let warm = Req {
            target: i,
            budget: BUDGETS[0],
            interactive: false,
            unique: false,
            tenant: 0,
            input_set: 0,
        };
        (t, warm)
    })
}

/// Set-up of the front-door loop: a server, the mix and one warm-up
/// request per target over TCP.
fn tcp_setup(args: &Args, n: usize, tracer: &Tracer) -> Result<Env, String> {
    let served = Served::start()?;
    let targets = targets(args.seed, corpus::load(tracer)?);
    let reqs = mix(args.seed, n, targets.len());
    let client = Client::new(served.addr);
    for (t, warm) in warm_ups(&targets) {
        match client.submit(spec_for(t, &warm, 0)) {
            Ok(Submit::Done(_)) => {}
            other => return Err(format!("warm-up {} failed: {other:?}", t.name)),
        }
    }
    Ok(Env {
        served,
        targets,
        reqs,
    })
}

/// The server-side decoding of request `r`: what `JobSpec::parse` makes
/// of the bytes `spec_for` sends.
fn job_spec(t: &Target, r: &Req, index: usize) -> JobSpec {
    let object = object_for(t, r, index);
    JobSpec {
        tenant: format!("tenant-{}", r.tenant),
        class: if r.interactive {
            JobClass::Interactive
        } else {
            JobClass::Batch
        },
        cycles: r.budget,
        geometry: corpus::geometry_of(&object),
        watchdog: 0,
        wall_ms: None,
        chaos: None,
        inputs: t.input_sets[r.input_set].clone(),
        sinks: t.sinks.clone(),
        object,
    }
}

/// Set-up of the in-process path: the mix, a service at the server's
/// default configuration and one warm-up request per target.
fn path_setup(
    args: &Args,
    n: usize,
    tracer: &Tracer,
) -> Result<(Vec<Target>, Vec<Req>, Service), String> {
    let targets = targets(args.seed, corpus::load(tracer)?);
    let reqs = mix(args.seed, n, targets.len());
    let service = Service::new(ServerConfig::default().service);
    let mut tickets = Vec::new();
    for (t, warm) in warm_ups(&targets) {
        let spec = job_spec(t, &warm, 0);
        let ok = service
            .submit(&spec.tenant, spec.class, spec.build(), None)
            .map_err(|e| format!("warm-up {} refused: {e:?}", t.name))?;
        tickets.push(ok.ticket);
    }
    service.run_idle();
    for ticket in tickets {
        match service.status(ticket) {
            Some(JobStatus::Done(JobOutcome::Completed(_))) => {}
            other => return Err(format!("warm-up ticket {ticket} ended as {other:?}")),
        }
    }
    Ok((targets, reqs, service))
}

/// One request of a burst through the path; returns its verified
/// output's cycles and statistics.
fn serve_one(
    service: &Service,
    ticket: Option<u64>,
    want: &[Vec<i16>],
    index: usize,
    traced: bool,
    tracer: &Tracer,
) -> Result<Option<(u64, Stats)>, String> {
    let Some(status) = ticket.and_then(|t| service.status(t)) else {
        return Ok(None);
    };
    tracer
        .span_if(traced, "server.protocol.respond", index as u64, || {
            let mut sink = Vec::new();
            let body = status_json(index as u64, &status);
            write_response(&mut sink, &Response::json(200, body)).map(|_| sink.len())
        })
        .map_err(|e| format!("respond: {e}"))?;
    Ok(match status {
        JobStatus::Done(JobOutcome::Completed(out)) if out.outputs == want => {
            Some((out.cycles, out.stats))
        }
        _ => None,
    })
}

pub fn run(args: &Args, tracer: &Tracer, process_start: Instant) -> Result<Report, String> {
    let n = ((args.seconds * NOMINAL_REQUESTS_PER_S).round() as usize / BURST).max(1) * BURST;
    // Every service instance starts with a full set-up.
    let ((targets, reqs, mut service), mut setups) =
        Setups::first(process_start, n.div_ceil(WINDOW_REQUESTS), || {
            path_setup(args, n, tracer)
        })?;
    let expected = references(&targets)?;

    let mut report = Report::default();
    let mut windows: Vec<Window> = Vec::new();
    let mut merged = Stats::new(0);
    let mut sim_cycles = 0u64;
    let mut window = Window::default();
    let mut window_start = Instant::now();
    let mut window_start_ns = tracer.now_ns();
    for lo in (0..n).step_by(BURST) {
        if lo > 0 && lo % SERVICE_REQUESTS == 0 {
            service = setups.again(|| path_setup(args, n, tracer))?.2;
        }
        // Traced runs trace every other window; the rest measure the
        // tracing overhead.
        let traced = windows.len().is_multiple_of(2);
        let mut tickets = Vec::with_capacity(BURST);
        for (i, r) in reqs.iter().enumerate().skip(lo).take(BURST) {
            let start = Instant::now();
            let spec = job_spec(&targets[r.target], r, i);
            let job = tracer.span_if(traced, "server.protocol.build", i as u64, || spec.build());
            let ticket = tracer.span_if(traced, "server.service.submit", i as u64, || {
                service.submit(&spec.tenant, spec.class, job, None)
            });
            tickets.push((i, start, ticket.ok().map(|ok| ok.ticket)));
            // One scheduling step per arrival, so later requests of the
            // burst meet running work (and interactive ones preempt it).
            tracer.span_if(traced, "server.service.tick", i as u64, || service.tick());
        }
        tracer.span_if(traced, "server.service.run_idle", lo as u64, || {
            service.run_idle()
        });
        for (i, start, ticket) in tickets {
            let r = reqs[i];
            let want = &expected[&(r.target, r.budget, r.input_set)];
            let served = serve_one(&service, ticket, want, i, traced, tracer)?;
            window
                .latencies_ms
                .push(start.elapsed().as_secs_f64() * 1e3);
            report.attempted += 1;
            match served {
                Some((cycles, stats)) => {
                    window.jobs += 1;
                    window.cycles += cycles;
                    sim_cycles += cycles;
                    merged.merge(&stats);
                }
                None => report.failed += 1,
            }
        }
        if (lo + BURST).is_multiple_of(WINDOW_REQUESTS) || lo + BURST >= n {
            window.wall_s = window_start.elapsed().as_secs_f64();
            window.span_ns = (window_start_ns, tracer.now_ns());
            windows.push(std::mem::take(&mut window));
            window_start = Instant::now();
            window_start_ns = tracer.now_ns();
        }
    }

    let (traced, untraced) = split_windows(&windows, tracer.enabled());
    let t = summarize(&untraced);
    push_e2e(&mut report, setups.median_s(), &t, sim_cycles);
    let stats = service.stats();
    report.lines.push(format!(
        "service_path: {n} requests in bursts of {BURST} on one thread, {} windows, a fresh service \
         every {SERVICE_REQUESTS} requests; {} failed; last service: {} preemptions, lane occupancy {:.3}",
        windows.len(),
        report.failed,
        stats.preemptions,
        stats.lane_occupancy(),
    ));
    report
        .lines
        .push(t.latency_line("request (submit to its encoded response)"));
    report.lines.push(window_line(&untraced));
    report.lines.push(setups.line());

    if tracer.enabled() {
        report.core_counters(&merged);
        tcp_probe(&mut report, tracer, args, &expected)?;
        batch::probes(&mut report, tracer, args.seed, &corpus::load(tracer)?)?;
        report.trace_summary(tracer, &t, &traced, 1);
    }
    Ok(report)
}

/// What a client saw for one request.
struct Seen {
    index: usize,
    submit_ns: u64,
    done_ns: u64,
    verified: bool,
    refused: bool,
}

/// The closed loop over requests `range`: clients claim request indices
/// in order, so a window of consecutive indices is a contiguous stretch
/// of time.
fn closed_loop(
    env: &Env,
    expected: &BTreeMap<RefKey, Vec<Vec<i16>>>,
    range: std::ops::Range<usize>,
    threads: usize,
    tracer: &Tracer,
) -> Vec<Seen> {
    let next = AtomicUsize::new(range.start);
    let seen: Mutex<Vec<Seen>> = Mutex::new(Vec::with_capacity(range.len()));
    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let client = Client::new(env.served.addr).with_timeout(Duration::from_secs(60));
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= range.end {
                        break;
                    }
                    let r = env.reqs[i];
                    let t = &env.targets[r.target];
                    let want = &expected[&(r.target, r.budget, r.input_set)];
                    // Traced runs trace every other window; the rest
                    // measure the tracing overhead.
                    let traced = (i / TCP_WINDOW_REQUESTS).is_multiple_of(2);
                    let spec = spec_for(t, &r, i);
                    let submit_ns = tracer.now_ns();
                    let result =
                        tracer.span_if(traced, "server.client.submit_wait", i as u64, || {
                            client.submit(spec)
                        });
                    let (verified, refused) =
                        tracer.span_if(traced, "bench.verify", i as u64, || match &result {
                            Ok(Submit::Done(s)) => {
                                (s.status == "completed" && &s.outputs == want, false)
                            }
                            Ok(Submit::Rejected { .. }) => (false, true),
                            _ => (false, false),
                        });
                    mine.push(Seen {
                        index: i,
                        submit_ns,
                        done_ns: tracer.now_ns(),
                        verified,
                        refused,
                    });
                }
                seen.lock().expect("seen lock").extend(mine);
            });
        }
    });
    let mut seen = seen.into_inner().expect("seen lock");
    seen.sort_by_key(|s| s.index);
    seen
}

/// The front door in traced mode: one server at its default
/// configuration on loopback TCP under a closed loop of nproc clients,
/// then the in-process layer probes. Its requests are checked and count
/// in the run's `attempted` and `failed`.
fn tcp_probe(
    report: &mut Report,
    tracer: &Tracer,
    args: &Args,
    expected: &BTreeMap<RefKey, Vec<Vec<i16>>>,
) -> Result<(), String> {
    let threads = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let env = tcp_setup(args, TCP_REQUESTS, tracer)?;
    let rss_before = rss_kb();
    let wall = Instant::now();
    let seen = closed_loop(&env, expected, 0..TCP_REQUESTS, threads, tracer);
    let wall_s = wall.elapsed().as_secs_f64();
    let stats = Client::new(env.served.addr)
        .stats()
        .map_err(|e| format!("/v1/stats: {e}"))?;
    let rss_growth_kb = rss_kb() - rss_before;
    let num = |key: &str| stats.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let verified = seen.iter().filter(|s| s.verified).count();
    let refused = seen.iter().filter(|s| s.refused).count();
    report.attempted += seen.len() as u64;
    report.failed += (seen.len() - verified) as u64;
    let latencies = sorted(
        seen.iter()
            .map(|s| (s.done_ns - s.submit_ns) as f64 / 1e6)
            .collect(),
    );
    let tcp_p50 = quantile(&latencies, 0.5);
    report.lines.push(format!(
        "front door: {TCP_REQUESTS} requests from {threads} closed-loop clients over loopback TCP in \
         {wall_s:.2} s ({:.1} requests/s); connections opened per request: 1 (one Client::submit call \
         each, one TCP connection per call); latency p50 {tcp_p50:.4} ms, p90 {:.4} ms, p99 {:.4} ms; \
         {} failed ({refused} refused with 429/503)",
        ratio(verified as f64, wall_s),
        quantile(&latencies, 0.9),
        quantile(&latencies, 0.99),
        seen.len() - verified,
    ));
    report
        .lines
        .push(format!("server's /v1/stats: {}", json_brief(&stats)));
    report.layer("server.service.preemptions", num("preemptions"), "count");
    report.layer(
        "server.service.lane_occupancy",
        num("lane_occupancy"),
        "lanes",
    );
    report.layer(
        "harness.admission.rejected",
        num("rejected_full") + num("rejected_quota") + num("rejected_draining"),
        "count",
    );
    report.layer(
        "harness.admission.max_queue_depth",
        num("max_queue_depth"),
        "count",
    );
    report.layer(
        "server.service.rss_kb_per_job",
        ratio(rss_growth_kb, num("completed")),
        "KB",
    );
    layer_probes(report, tracer, &env, expected, threads, tcp_p50)?;
    let mut served = env.served;
    served.stop()
}

fn json_brief(stats: &Json) -> String {
    let keys = [
        "admitted",
        "completed",
        "faulted",
        "preemptions",
        "max_queue_depth",
        "rejected_full",
        "rejected_quota",
        "lane_occupancy",
        "advanced_cycles",
    ];
    keys.iter()
        .map(|k| format!("{k}={}", stats.get(k).and_then(Json::as_f64).unwrap_or(0.0)))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Records the raw bytes a reader yields.
struct Tee<R> {
    inner: R,
    bytes: Vec<u8>,
}

impl<R: Read> Read for Tee<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

/// The exact request bytes the public client sends for each spec,
/// captured by a loopback listener that answers 400.
fn capture_requests(specs: Vec<SubmitSpec>) -> Result<Vec<Vec<u8>>, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("capture bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let count = specs.len();
    let server = thread::spawn(move || -> std::io::Result<Vec<Vec<u8>>> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let (stream, _) = listener.accept()?;
            let mut writer = stream.try_clone()?;
            let mut reader = BufReader::new(Tee {
                inner: stream,
                bytes: Vec::new(),
            });
            read_request(&mut reader)?;
            out.push(std::mem::take(&mut reader.get_mut().bytes));
            writer.write_all(b"HTTP/1.1 400 Bad Request\r\ncontent-length: 9\r\n\r\ncaptured\n")?;
        }
        Ok(out)
    });
    let client = Client::new(addr);
    for spec in specs {
        client
            .submit(spec)
            .map_err(|e| format!("capture submit: {e}"))?;
    }
    match server.join() {
        Ok(Ok(bytes)) => Ok(bytes),
        Ok(Err(e)) => Err(format!("capture: {e}")),
        Err(_) => Err("capture thread panicked".into()),
    }
}

/// Runs a job solo through the preemptible executor.
fn exec_solo(job: &Job) -> JobOutcome {
    match RunningJob::start(job) {
        Ok(mut running) => {
            while !running.is_done() {
                running.advance(u64::MAX);
            }
            running.finish()
        }
        Err(fault) => JobOutcome::Fault(fault),
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Replays the first requests of the mix in-process, one layer at a time.
fn layer_probes(
    report: &mut Report,
    tracer: &Tracer,
    env: &Env,
    expected: &BTreeMap<RefKey, Vec<Vec<i16>>>,
    threads: usize,
    tcp_p50_ms: f64,
) -> Result<(), String> {
    let sample: Vec<(usize, Req)> = env
        .reqs
        .iter()
        .copied()
        .enumerate()
        .take(PROBE_REQUESTS)
        .collect();
    let specs = sample
        .iter()
        .map(|(i, r)| spec_for(&env.targets[r.target], r, *i))
        .collect();
    let wire = capture_requests(specs)?;

    let (mut parse, mut build, mut exec, mut respond) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut jobs = Vec::new();
    for ((i, r), bytes) in sample.iter().zip(&wire) {
        let req_id = *i as u64;
        let t = Instant::now();
        let spec = tracer
            .span("server.protocol.parse", req_id, || {
                let req = read_request(&mut &bytes[..]).ok().flatten()?;
                JobSpec::parse(&req).ok()
            })
            .ok_or("captured request does not parse")?;
        parse.push(us(t));
        let t = Instant::now();
        let job = tracer.span("server.protocol.build", req_id, || spec.build());
        build.push(us(t));
        let t = Instant::now();
        let outcome = tracer.span("harness.preempt.exec", req_id, || exec_solo(&job));
        exec.push(us(t) / 1e3);
        match &outcome {
            JobOutcome::Completed(out)
                if out.outputs == expected[&(r.target, r.budget, r.input_set)] => {}
            other => return Err(format!("probe request {i} did not verify: {other:?}")),
        }
        let status = JobStatus::Done(outcome);
        let t = Instant::now();
        tracer
            .span("server.protocol.respond", req_id, || {
                let mut sink = Vec::new();
                let body = status_json(*i as u64, &status);
                write_response(&mut sink, &Response::json(200, body)).map(|_| sink.len())
            })
            .map_err(|e| format!("respond: {e}"))?;
        respond.push(us(t));
        jobs.push((spec.tenant.clone(), spec.class, job, *i));
    }

    // Admission and scheduling on an in-process service with the server's
    // worker count, driven by the same number of closed-loop clients.
    let workers = ServerConfig::default().workers;
    let service = Arc::new(Service::new(ServerConfig::default().service));
    let pool: Vec<_> = (0..workers)
        .map(|_| {
            let s = Arc::clone(&service);
            thread::spawn(move || s.run_worker())
        })
        .collect();
    let next = AtomicUsize::new(0);
    let waits: Mutex<Vec<(f64, f64)>> = Mutex::new(Vec::new());
    let jobs = Mutex::new(jobs.into_iter().map(Some).collect::<Vec<_>>());
    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some((tenant, class, job, i)) = jobs
                    .lock()
                    .expect("job list")
                    .get_mut(k)
                    .and_then(Option::take)
                else {
                    break;
                };
                let t = Instant::now();
                let ticket = tracer.span("server.service.submit", i as u64, || {
                    service.submit(&tenant, class, job, None)
                });
                let submit_us = us(t);
                if let Ok(ok) = ticket {
                    tracer.span("server.service.wait", i as u64, || {
                        service.wait(ok.ticket, Duration::from_secs(60))
                    });
                    waits
                        .lock()
                        .expect("wait list")
                        .push((submit_us, us(t) / 1e3 - exec[k]));
                }
            });
        }
    });
    service.drain();
    service.wait_drained();
    for worker in pool {
        worker.join().map_err(|_| "service worker panicked")?;
    }
    let waits = waits.into_inner().expect("wait list");
    let submit_us = median(&waits.iter().map(|w| w.0).collect::<Vec<_>>());
    let sched_wait_ms = median(&waits.iter().map(|w| w.1).collect::<Vec<_>>());

    let (parse_us, build_us, exec_ms, respond_us) = (
        median(&parse),
        median(&build),
        median(&exec),
        median(&respond),
    );
    report.layer("server.protocol.parse_us", parse_us, "us");
    report.layer("server.protocol.build_us", build_us, "us");
    report.layer("server.service.submit_us", submit_us, "us");
    report.layer("harness.preempt.exec_ms", exec_ms, "ms");
    report.layer("server.service.sched_wait_ms", sched_wait_ms, "ms");
    report.layer("server.protocol.respond_us", respond_us, "us");
    let in_process_ms =
        (parse_us + build_us + submit_us + respond_us) / 1e3 + exec_ms + sched_wait_ms;
    report.layer("server.net_ms", tcp_p50_ms - in_process_ms, "ms");
    report.lines.push(format!(
        "in-process layers of one request (medians of {} probes): parse {parse_us:.1} us, build {build_us:.1} us, \
         submit {submit_us:.1} us, exec {exec_ms:.3} ms, scheduler wait {sched_wait_ms:.3} ms, respond \
         {respond_us:.1} us; TCP p50 {tcp_p50_ms:.3} ms",
        sample.len()
    ));

    // Per-object set-up costs on the demo object and the corpus.
    let objects: Vec<&Object> = env.targets.iter().map(|t| &t.object).collect();
    corpus::object_probes(report, tracer, &objects);

    // A fixed slice of the probe jobs, solo, under each tier.
    let tier_jobs: Vec<Job> = sample
        .iter()
        .take(48)
        .map(|(i, r)| job_for(&env.targets[r.target], r, *i))
        .collect();
    let tier = |name: &'static str| -> f64 {
        let t = Instant::now();
        let cycles: u64 = tracer.span(name, 0, || {
            tier_jobs
                .iter()
                .filter_map(|j| match exec_solo(j) {
                    JobOutcome::Completed(o) => Some(o.cycles),
                    JobOutcome::Fault(_) => None,
                })
                .sum()
        });
        ratio(t.elapsed().as_nanos() as f64, cycles as f64)
    };
    report.tier_layers(tier);
    Ok(())
}
