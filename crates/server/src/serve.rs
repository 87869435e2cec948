//! The TCP front end: an accept loop, a connection handler and the
//! request router that bind a [`Service`] to the wire protocol.
//!
//! [`Server::bind`] owns the listener and the worker pool;
//! [`Server::run`] serves until a `POST /v1/drain` arrives, then
//! performs the graceful-shutdown sequence:
//!
//! 1. [`Service::drain`] — the queue is evicted with client-visible
//!    faults and new offers are refused with `503`,
//! 2. [`Service::wait_drained`] — every in-flight unit parks at its
//!    next slice boundary as a checkpoint (no job is lost silently),
//! 3. the drain response is sent *after* the barrier, so the client's
//!    `200` is proof the service is quiescent,
//! 4. the accept loop and the worker pool wind down and
//!    [`Server::run`] returns `Ok(())` — `srserved` turns that into
//!    exit code 0.
//!
//! Tests call [`Server::bind`] on port 0 and drive the same code path
//! the production binary uses.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::protocol::{
    read_request, stats_json, status_json, write_response, JobSpec, Request, Response,
};
use crate::service::{JobStatus, Service, ServiceConfig, SubmitError};

/// How long a `?wait=1` submit may block before reporting the job's
/// in-flight status instead. Long enough for any test-sized job; finite
/// so a stuck client can't pin a connection handler forever.
const WAIT_BUDGET: Duration = Duration::from_secs(60);

/// Lame-duck window after a drain: connections that were already racing
/// the shutdown (a client asking for its parked job's status right after
/// the drain response) are still served for this long instead of having
/// their half-open sockets reset when the listener closes.
const DRAIN_GRACE: Duration = Duration::from_millis(300);

/// Front-end knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Scheduler worker threads.
    pub workers: usize,
    /// Scheduler knobs.
    pub service: ServiceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            service: ServiceConfig::default(),
        }
    }
}

/// A bound, not-yet-serving server: workers are running, the listener
/// is open, and [`Server::run`] serves until drained.
pub struct Server {
    service: Arc<Service>,
    listener: TcpListener,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// worker pool.
    pub fn bind(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let service = Arc::new(Service::new(config.service));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let service = Arc::clone(&service);
                thread::spawn(move || service.run_worker())
            })
            .collect();
        Ok(Server {
            service,
            listener,
            local_addr,
            shutdown: Arc::new(AtomicBool::new(false)),
            workers,
        })
    }

    /// The bound address (the ephemeral port lives here).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The scheduler behind the front end.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Serves connections until a drain request completes, then joins
    /// the worker pool and returns.
    pub fn run(self) -> io::Result<()> {
        let Server {
            service,
            listener,
            local_addr,
            shutdown,
            workers,
        } = self;
        let mut handlers = ConnectionThreads::default();
        let spawn_handler = |stream: TcpStream, handlers: &mut ConnectionThreads| {
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            handlers.spawn(move || {
                handle_connection(&service, stream, &shutdown, local_addr);
            });
        };
        for stream in listener.incoming() {
            let stopping = shutdown.load(Ordering::SeqCst);
            let stream = match stream {
                Ok(stream) => stream,
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) => return Err(e),
            };
            // The stream that observed the shutdown flag is served too —
            // it is either the drain handler's throwaway wake-up (EOF,
            // handler returns at once) or a real client that lost the
            // race; dropping it here would reset a live request.
            spawn_handler(stream, &mut handlers);
            if stopping {
                break;
            }
        }
        // Lame duck: the drain response may still be in flight to a
        // client that immediately asks for its parked job's status.
        // Serve stragglers briefly before closing the listener for good.
        listener.set_nonblocking(true)?;
        let deadline = std::time::Instant::now() + DRAIN_GRACE;
        while std::time::Instant::now() < deadline {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    spawn_handler(stream, &mut handlers);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(10));
                }
                Err(_) => break,
            }
        }
        drop(listener);
        handlers.join_all();
        for handle in workers {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// The connection handler threads of a running server.
///
/// A finished thread keeps its stack mapped until it is joined, so
/// holding every handle until drain would cost memory maps per
/// connection ever served; [`ConnectionThreads::spawn`] first joins the
/// handlers that have finished, which keeps one handle per live
/// connection.
#[derive(Default)]
struct ConnectionThreads {
    live: Vec<thread::JoinHandle<()>>,
}

impl ConnectionThreads {
    /// Joins the finished handlers, then starts `handler` on a new thread.
    fn spawn<F: FnOnce() + Send + 'static>(&mut self, handler: F) {
        let mut i = 0;
        while i < self.live.len() {
            if self.live[i].is_finished() {
                let _ = self.live.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        self.live.push(thread::spawn(handler));
    }

    /// Waits for every handler still serving a connection.
    fn join_all(self) {
        for handle in self.live {
            let _ = handle.join();
        }
    }
}

/// Serves one keep-alive connection until EOF or a fatal protocol error.
fn handle_connection(
    service: &Arc<Service>,
    stream: TcpStream,
    shutdown: &AtomicBool,
    local_addr: SocketAddr,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(120)));
    let mut writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(_) => {
                let _ = write_response(&mut writer, &Response::text(400, "bad request\n"));
                return;
            }
        };
        let drain = req.method == "POST" && req.path == "/v1/drain";
        let response = handle_request(service, &req);
        if write_response(&mut writer, &response).is_err() {
            return;
        }
        if drain {
            // The drain response is out; stop accepting. A throwaway
            // connection unblocks the accept loop so it can observe the
            // flag and wind down.
            shutdown.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(local_addr);
            return;
        }
    }
}

/// Routes one request. Pure apart from the service calls, so tests can
/// drive it without a socket.
pub fn handle_request(service: &Service, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/v1/stats") => Response::json(200, stats_json(&service.stats())),
        ("POST", "/v1/jobs") => submit(service, req),
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            let ticket = match path["/v1/jobs/".len()..].parse::<u64>() {
                Ok(ticket) => ticket,
                Err(_) => return Response::text(400, "bad ticket\n"),
            };
            match service.status(ticket) {
                Some(status) => Response::json(200, status_json(ticket, &status)),
                None => Response::text(404, "unknown ticket\n"),
            }
        }
        ("POST", "/v1/drain") => {
            let evicted = service.drain();
            service.wait_drained();
            let mut body = stats_json(&service.stats());
            // Splice the eviction count into the stats object.
            body.truncate(body.len() - 1);
            body.push_str(&format!(",\"drained\":true,\"evicted_now\":{evicted}}}"));
            Response::json(200, body)
        }
        _ => Response::text(404, "not found\n"),
    }
}

/// Handles `POST /v1/jobs`.
fn submit(service: &Service, req: &Request) -> Response {
    let spec = match JobSpec::parse(req) {
        Ok(spec) => spec,
        Err(msg) => return Response::text(400, format!("{msg}\n")),
    };
    let wall = spec.wall_ms.map(Duration::from_millis);
    let job = spec.build();
    match service.submit(&spec.tenant, spec.class, job, wall) {
        Ok(ok) => {
            if req.flag("wait") {
                let status = service
                    .wait(ok.ticket, WAIT_BUDGET)
                    .unwrap_or(JobStatus::Queued);
                Response::json(200, status_json(ok.ticket, &status))
            } else {
                Response::json(
                    202,
                    format!(
                        "{{\"ticket\":{},\"status\":\"queued\",\"depth\":{}}}",
                        ok.ticket, ok.depth
                    ),
                )
            }
        }
        Err(SubmitError::Invalid(msg)) => Response::text(400, format!("{msg}\n")),
        Err(SubmitError::Rejected {
            reason,
            retry_after_ms,
        }) => {
            let status = if service.is_draining() { 503 } else { 429 };
            let body = format!("{{\"reason\":\"{reason}\",\"retry_after_ms\":{retry_after_ms}}}");
            Response::json(status, body).with_header(
                "retry-after",
                retry_after_ms.div_ceil(1000).max(1).to_string(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// Many sequential connections, each served to EOF on its own handler
    /// thread, leave a bounded handler list: finished handlers are joined
    /// as new connections arrive instead of piling up until drain.
    #[test]
    fn sequential_connections_leave_a_bounded_handler_list() {
        const CONNECTIONS: usize = 400;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let client = thread::spawn(move || {
            for i in 0..CONNECTIONS {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.write_all(&[i as u8]).expect("request");
                let mut echo = [0u8; 1];
                stream.read_exact(&mut echo).expect("response");
                assert_eq!(echo[0], i as u8);
            }
        });
        let mut handlers = ConnectionThreads::default();
        let mut most = 0;
        for _ in 0..CONNECTIONS {
            let (mut stream, _) = listener.accept().expect("accept");
            handlers.spawn(move || {
                let mut byte = [0u8; 1];
                if stream.read_exact(&mut byte).is_ok() {
                    let _ = stream.write_all(&byte);
                }
            });
            most = most.max(handlers.live.len());
        }
        client.join().expect("client");
        handlers.join_all();
        assert!(
            most <= 32,
            "{most} handler threads held for {CONNECTIONS} sequential connections"
        );
    }
}
