//! The listener: bounded worker pool, admission control, and the router.
//!
//! One request per connection (`Connection: close`). The transport layer
//! is built to stay up under hostile load:
//!
//! * **Admission control** — accepted connections enter a capacity-limited
//!   queue feeding a fixed pool of worker threads. When the queue is full
//!   or the connection cap is reached, the connection is *shed*: answered
//!   `503` with a `Retry-After` hint instead of being allowed to pile up
//!   an unbounded thread per connection.
//! * **Deadline budget** — each connection gets one deadline from the
//!   moment it is accepted; time spent waiting in the queue shrinks the
//!   time the peer gets to finish its message, and slow-loris peers are
//!   evicted with `408`.
//! * **Wake on arrival** — the accept thread blocks in `accept`, so a
//!   connection is admitted the moment it arrives. [`Server::shutdown`]
//!   wakes it with a loopback connection; that connection is shed like any
//!   other late arrival.
//! * **Graceful drain** — shutdown stops admitting (new connections get
//!   `503 draining`), finishes every queued and in-flight request under a
//!   drain timeout, then hard-closes whatever remains.
//! * **Stage timings** — each request records `serve.queue_wait_us`,
//!   `serve.read_us`, `serve.route_us` and `serve.write_us` off shared
//!   instants, so the four stages add up to `serve.request_us`.
//!
//! `/healthz` reports `ok`/`degraded`/`draining` from the same counters
//! the obs gauges export, so operators and load balancers see the shed
//! decisions the admission path is making.

use crate::api::{error_body, HealthResponse, PredictRequest, API_FORMAT};
use crate::http::{self, Response};
use crate::state::ServeState;
use convmeter_metrics::obs;
use std::collections::VecDeque;
use std::io::Read;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pause after a failed `accept` (e.g. `EMFILE`) before trying again, so a
/// persistent error does not spin the accept thread.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(5);
/// How often [`Server::shutdown`] retries its wake-up connection and checks
/// whether the drain has begun.
const WAKE_INTERVAL: Duration = Duration::from_millis(10);
/// Bound on those checks: shutdown stops waiting for the drain after
/// `WAKE_TRIES * WAKE_INTERVAL`.
const WAKE_TRIES: u32 = 100;
/// Accept poll interval while draining, between checks of the drain
/// condition.
const DRAIN_POLL: Duration = Duration::from_millis(2);
/// Bound on writing a response so a peer that stops reading cannot wedge
/// a worker forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Listener configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind host.
    pub host: String,
    /// Bind port; `0` asks the OS for an ephemeral port (tests, smoke).
    pub port: u16,
    /// Stop accepting after this many connections (`None` = run forever).
    /// Lets the CLI smoke gate run a bounded server without signal
    /// handling.
    pub max_requests: Option<u64>,
    /// Worker threads processing admitted connections.
    pub workers: usize,
    /// Admission queue capacity; connections beyond it are shed with
    /// `503`.
    pub queue_capacity: usize,
    /// Cap on queued + in-flight connections; beyond it, shed.
    pub max_connections: usize,
    /// Whole-request deadline, accepted → response. Queue wait counts
    /// against it; peers slower than the remainder are evicted with
    /// `408`.
    pub request_deadline: Duration,
    /// How long a graceful drain may wait for queued + in-flight requests
    /// before hard-closing the stragglers.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            host: "127.0.0.1".to_string(),
            port: 8077,
            max_requests: None,
            workers: 8,
            queue_capacity: 64,
            max_connections: 256,
            request_deadline: http::IO_TIMEOUT,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Health state derived from the admission counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Accepting normally.
    Ok,
    /// Accepting, but the admission queue is at least half full — load is
    /// outrunning the worker pool and shedding is near.
    Degraded,
    /// Shutdown in progress: in-flight work is finishing, new connections
    /// are shed.
    Draining,
}

impl HealthState {
    /// Stable label stamped into `/healthz` responses.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Ok => "ok",
            HealthState::Degraded => "degraded",
            HealthState::Draining => "draining",
        }
    }
}

/// Shared admission/health counters. The `/healthz` endpoint, the obs
/// gauges, and the drain loop all read the same numbers.
#[derive(Debug)]
pub struct ServiceHealth {
    queue_depth: AtomicU64,
    in_flight: AtomicU64,
    shed: AtomicU64,
    draining: AtomicBool,
    queue_capacity: u64,
}

impl ServiceHealth {
    fn new(queue_capacity: usize) -> ServiceHealth {
        ServiceHealth {
            queue_depth: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            queue_capacity: queue_capacity as u64,
        }
    }

    /// Connections waiting in the admission queue.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::SeqCst)
    }

    /// Requests currently being processed by workers.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Connections answered `503` since the server started.
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::SeqCst)
    }

    /// `true` once a graceful drain has begun.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Current health state: `draining` wins over `degraded` wins over
    /// `ok`; degraded means the queue is at least half full.
    pub fn state(&self) -> HealthState {
        if self.is_draining() {
            HealthState::Draining
        } else if self.queue_capacity > 0
            && self.queue_depth().saturating_mul(2) >= self.queue_capacity
        {
            HealthState::Degraded
        } else {
            HealthState::Ok
        }
    }
}

/// An admitted connection waiting for a worker.
struct Job {
    stream: TcpStream,
    accepted_at: Instant,
}

/// The bounded queue between the accept loop and the worker pool.
struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    kill: AtomicBool,
}

/// Lock a mutex, recovering the guard if a holder panicked; the queue's
/// invariants are a plain `VecDeque` and survive any interrupted push/pop.
fn lock_jobs<'a>(queue: &'a Queue) -> MutexGuard<'a, VecDeque<Job>> {
    queue
        .jobs
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A running server. Dropping it shuts the listener down gracefully and
/// joins the accept loop.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    health: Arc<ServiceHealth>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving `state` in background threads.
    pub fn start(state: Arc<ServeState>, config: &ServerConfig) -> std::io::Result<Server> {
        // Blocking accept: the accept thread wakes the moment a connection
        // arrives. `shutdown` wakes it with a loopback connection, so
        // shutdown stays bounded with zero traffic.
        let listener = TcpListener::bind((config.host.as_str(), config.port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let health = Arc::new(ServiceHealth::new(config.queue_capacity));
        let accept_stop = Arc::clone(&stop);
        let accept_health = Arc::clone(&health);
        let config = config.clone();
        let accept_thread = std::thread::spawn(move || {
            accept_loop(&listener, &state, &accept_stop, &accept_health, &config);
        });
        Ok(Server {
            addr,
            stop,
            health,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared health counters (queue depth, in-flight, shed, drain
    /// state) this server exports.
    pub fn health(&self) -> Arc<ServiceHealth> {
        Arc::clone(&self.health)
    }

    /// Ask the server to drain and stop. Idempotent. Sets the stop flag,
    /// then wakes the blocked accept thread with one loopback connection
    /// (retried every [`WAKE_INTERVAL`] while connecting fails) and waits
    /// until the drain has begun, for at most `WAKE_TRIES * WAKE_INTERVAL`.
    /// The wake-up connection is shed as a late arrival, so a shutdown
    /// counts at most one shed of its own. Returns without waiting for the
    /// drain itself: new connections are shed with `503` while in-flight
    /// work finishes under the drain timeout.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let wake = wake_addr(self.addr);
        let mut woken = false;
        for _ in 0..WAKE_TRIES {
            if self.health.is_draining() {
                return;
            }
            // A connection the kernel queued is enough: the accept thread
            // takes it, sees the stop flag and starts the drain. Refused
            // once the listener is gone, by which time the drain flag is
            // already set.
            if !woken {
                woken = TcpStream::connect_timeout(&wake, WAKE_INTERVAL).is_ok();
            }
            std::thread::sleep(WAKE_INTERVAL);
        }
    }

    /// Block until the accept loop exits (because `max_requests` was
    /// reached or [`Server::shutdown`] was called from another thread).
    pub fn wait(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Where a wake-up connection goes: the bound address, with an unspecified
/// host (`0.0.0.0`/`::`) replaced by the loopback address of its family.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            self.shutdown();
            let _ = handle.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<ServeState>,
    stop: &AtomicBool,
    health: &Arc<ServiceHealth>,
    config: &ServerConfig,
) {
    let queue = Arc::new(Queue {
        jobs: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        kill: AtomicBool::new(false),
    });
    let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|_| {
            let queue = Arc::clone(&queue);
            let state = Arc::clone(state);
            let health = Arc::clone(health);
            let deadline = config.request_deadline;
            std::thread::spawn(move || worker_loop(&queue, &state, &health, deadline))
        })
        .collect();

    let mut accepted = 0u64;
    // A connection accepted after the stop flag is set (the shutdown
    // wake-up, or any peer racing it) is shed by the drain.
    let mut late = None;
    loop {
        match listener.accept() {
            Ok((stream, _)) if stop.load(Ordering::SeqCst) => {
                late = Some(stream);
                break;
            }
            Ok((stream, _)) => {
                accepted += 1;
                admit(stream, &queue, health, config);
                if config.max_requests.is_some_and(|max| accepted >= max) {
                    break;
                }
            }
            Err(_) if stop.load(Ordering::SeqCst) => break,
            Err(_) => {
                obs::counter!("serve.accept.errors").inc();
                std::thread::sleep(ACCEPT_ERROR_PAUSE);
            }
        }
    }

    drain(listener, late, &queue, health, config.drain_timeout);
    queue.kill.store(true, Ordering::SeqCst);
    queue.available.notify_all();
    for handle in workers {
        let _ = handle.join();
    }
}

/// Admission control: shed when draining, over the connection cap, or
/// over queue capacity; otherwise enqueue for the worker pool.
fn admit(stream: TcpStream, queue: &Queue, health: &ServiceHealth, config: &ServerConfig) {
    let accepted_at = obs::clock::now();
    let _ = stream.set_nodelay(true);
    if health.is_draining() {
        shed(stream, "server is draining", health);
        return;
    }
    let busy = health.queue_depth().saturating_add(health.in_flight());
    if busy >= config.max_connections as u64 {
        shed(stream, "connection cap reached", health);
        return;
    }
    let mut jobs = lock_jobs(queue);
    if jobs.len() >= config.queue_capacity.max(1) {
        drop(jobs);
        shed(stream, "admission queue full", health);
        return;
    }
    jobs.push_back(Job {
        stream,
        accepted_at,
    });
    let depth = jobs.len() as u64;
    drop(jobs);
    health.queue_depth.store(depth, Ordering::SeqCst);
    obs::gauge!("serve.queue.depth").set(depth);
    queue.available.notify_one();
}

/// Answer `503` with `Retry-After` and close carefully: the request bytes
/// were never read, and an abrupt close would RST the connection and can
/// destroy the response before the peer reads it. Half-close the write
/// side and drain the peer's bytes briefly instead.
fn shed(mut stream: TcpStream, why: &str, health: &ServiceHealth) {
    health.shed.fetch_add(1, Ordering::SeqCst);
    obs::counter!("serve.shed").inc();
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let response = Response::json(503, error_body(why)).with_retry_after(1);
    let _ = http::write_response(&mut stream, &response);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 1024];
    for _ in 0..64 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Graceful drain: shed `late` and every new connection while queued +
/// in-flight work finishes; hard-close whatever is still queued when the
/// timeout lapses.
fn drain(
    listener: &TcpListener,
    late: Option<TcpStream>,
    queue: &Queue,
    health: &ServiceHealth,
    drain_timeout: Duration,
) {
    health.draining.store(true, Ordering::SeqCst);
    let drain_started = obs::clock::now();
    if let Some(stream) = late {
        shed(stream, "server is draining", health);
    }
    // Shed new arrivals between checks of the drain condition.
    let _ = listener.set_nonblocking(true);
    loop {
        if health.queue_depth() == 0 && health.in_flight() == 0 {
            break;
        }
        if drain_started.elapsed() >= drain_timeout {
            let mut jobs = lock_jobs(queue);
            let dropped = jobs.len() as u64;
            jobs.clear();
            drop(jobs);
            health.queue_depth.store(0, Ordering::SeqCst);
            if dropped > 0 {
                obs::counter!("serve.drain.dropped").add(dropped);
            }
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => shed(stream, "server is draining", health),
            Err(_) => std::thread::sleep(DRAIN_POLL),
        }
    }
    let drain_us = u64::try_from(drain_started.elapsed().as_micros()).unwrap_or(u64::MAX);
    obs::gauge!("serve.drain_us").set(drain_us);
}

fn worker_loop(queue: &Queue, state: &ServeState, health: &ServiceHealth, deadline: Duration) {
    loop {
        let (job, depth) = {
            let mut jobs = lock_jobs(queue);
            loop {
                if let Some(job) = jobs.pop_front() {
                    break (job, jobs.len() as u64);
                }
                if queue.kill.load(Ordering::SeqCst) {
                    return;
                }
                let (guard, _) = queue
                    .available
                    .wait_timeout(jobs, Duration::from_millis(50))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                jobs = guard;
            }
        };
        // Publish the depth only after the queue guard is released: the
        // gauge registry takes its own mutex when the metric is first
        // interned, and admission paths contend on the queue lock.
        health.queue_depth.store(depth, Ordering::SeqCst);
        obs::gauge!("serve.queue.depth").set(depth);
        health.in_flight.fetch_add(1, Ordering::SeqCst);
        obs::gauge!("serve.inflight").set(health.in_flight());
        handle_job(job, state, health, deadline);
        health.in_flight.fetch_sub(1, Ordering::SeqCst);
        obs::gauge!("serve.inflight").set(health.in_flight());
    }
}

/// Process one admitted connection under what remains of its deadline
/// budget, and record its stage timings. The stages share their boundary
/// instants, so queue wait + read + route + write telescope to
/// `serve.request_us` (each histogram truncates to whole microseconds).
fn handle_job(job: Job, state: &ServeState, health: &ServiceHealth, deadline: Duration) {
    let Job {
        mut stream,
        accepted_at,
    } = job;
    obs::counter!("serve.requests").inc();
    let dequeued = obs::clock::now();
    let remaining = deadline.saturating_sub(dequeued - accepted_at);
    // `None`: the budget burned down while the connection sat in the queue.
    let request = (!remaining.is_zero()).then(|| http::read_request_within(&mut stream, remaining));
    let read_done = obs::clock::now();
    let response = match request {
        None => {
            // Overload, answered as a shed rather than a timeout.
            obs::counter!("serve.deadline.cut").inc();
            Response::json(503, error_body("deadline exhausted while queued")).with_retry_after(1)
        }
        Some(Ok(request)) => route(&request, state, health),
        Some(Err(e)) => {
            obs::counter!("serve.http.errors").inc();
            let status = http::status_for_error(&e);
            if status == 408 {
                obs::counter!("serve.deadline.cut").inc();
            }
            Response::json(status, error_body(&e.to_string()))
        }
    };
    let routed = obs::clock::now();
    // The peer may already be gone; nothing useful to do about it.
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = http::write_response(&mut stream, &response);
    let written = obs::clock::now();
    obs::histogram!("serve.queue_wait_us").record_duration_us(dequeued - accepted_at);
    obs::histogram!("serve.read_us").record_duration_us(read_done - dequeued);
    obs::histogram!("serve.route_us").record_duration_us(routed - read_done);
    obs::histogram!("serve.write_us").record_duration_us(written - routed);
    // Last, so a scrape that sees a request here sees all of its stages.
    obs::histogram!("serve.request_us").record_duration_us(written - accepted_at);
}

fn route(request: &http::Request, state: &ServeState, health: &ServiceHealth) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let body = HealthResponse {
                status: health.state().label().to_string(),
                api_format: API_FORMAT,
                queue_depth: health.queue_depth(),
                in_flight: health.in_flight(),
                shed_total: health.shed_total(),
            };
            match serde_json::to_string_pretty(&body) {
                Ok(body) => Response::json(200, body),
                Err(e) => Response::json(500, error_body(&e.to_string())),
            }
        }
        ("GET", "/metrics") => {
            let snapshot = obs::metric::snapshot();
            Response::text(200, obs::prometheus::render(&snapshot))
        }
        ("POST", "/predict") => {
            let started = obs::clock::now();
            let parsed = PredictRequest::from_json(&request.body);
            let parsed_at = obs::clock::now();
            obs::histogram!("serve.parse_us").record_duration_us(parsed_at - started);
            let predict = match parsed {
                Ok(predict) => predict,
                Err(message) => return Response::json(400, error_body(&message)),
            };
            let answer = state.predict(&predict);
            obs::histogram!("serve.predict_us").record_duration_us(parsed_at.elapsed());
            match answer {
                Ok((rendered, _)) => Response::json(rendered.status, rendered.body.clone()),
                Err(message) => Response::json(400, error_body(&message)),
            }
        }
        (_, "/healthz" | "/metrics" | "/predict") => {
            Response::json(405, error_body("method not allowed"))
        }
        _ => Response::json(404, error_body("not found")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ServeConfig;

    fn test_server() -> Server {
        let state = Arc::new(ServeState::new(&ServeConfig::default()));
        Server::start(
            state,
            &ServerConfig {
                host: "127.0.0.1".to_string(),
                port: 0,
                ..ServerConfig::default()
            },
        )
        .expect("bind ephemeral port")
    }

    #[test]
    fn routes_answer_and_server_shuts_down() {
        let server = test_server();
        let addr = server.addr();
        let (status, body) = http::call(addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\""), "{body}");
        let (status, _) = http::call(addr, "GET", "/nope", None).unwrap();
        assert_eq!(status, 404);
        let (status, _) = http::call(addr, "DELETE", "/predict", None).unwrap();
        assert_eq!(status, 405);
        let (status, body) = http::call(addr, "POST", "/predict", Some("{}")).unwrap();
        assert_eq!(status, 400);
        assert!(body.contains("error"), "{body}");
        let (status, body) = http::call(addr, "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("serve_requests_total"), "{body}");
        server.shutdown();
    }

    #[test]
    fn bounded_server_exits_after_max_requests() {
        let state = Arc::new(ServeState::new(&ServeConfig::default()));
        let server = Server::start(
            state,
            &ServerConfig {
                host: "127.0.0.1".to_string(),
                port: 0,
                max_requests: Some(2),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let (status, _) = http::call(addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        let (status, _) = http::call(addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        // The accept loop has stopped; wait() returns instead of hanging.
        server.wait();
    }

    #[test]
    fn health_state_derives_from_counters() {
        let health = ServiceHealth::new(4);
        assert_eq!(health.state(), HealthState::Ok);
        health.queue_depth.store(2, Ordering::SeqCst);
        assert_eq!(health.state(), HealthState::Degraded);
        health.draining.store(true, Ordering::SeqCst);
        assert_eq!(health.state(), HealthState::Draining);
        assert_eq!(HealthState::Degraded.label(), "degraded");
    }
}
