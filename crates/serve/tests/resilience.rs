//! Resilience guarantees over real sockets: bounded shutdown, graceful
//! drain with zero dropped in-flight work, admission-control shedding with
//! `Retry-After`, slow-loris eviction, and byte-determinism of chaos runs.

use convmeter_serve::chaos::ChaosProfile;
use convmeter_serve::http;
use convmeter_serve::loadgen::{self, LoadgenConfig, Workload};
use convmeter_serve::server::{Server, ServerConfig};
use convmeter_serve::state::{ServeConfig, ServeState};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn server_with(tweak: impl FnOnce(&mut ServerConfig)) -> Server {
    let state = Arc::new(ServeState::new(&ServeConfig::default()));
    let mut config = ServerConfig {
        host: "127.0.0.1".to_string(),
        port: 0,
        ..ServerConfig::default()
    };
    tweak(&mut config);
    Server::start(state, &config).expect("bind ephemeral port")
}

/// Read the whole response off a raw stream.
fn read_response(stream: &mut TcpStream) -> String {
    stream
        .set_read_timeout(Some(Duration::from_secs(15)))
        .expect("timeout");
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    String::from_utf8_lossy(&raw).into_owned()
}

#[test]
fn shutdown_completes_quickly_with_zero_inbound_traffic() {
    // Regression for the self-poke fragility: an accept loop blocked in
    // `accept` only notices the stop flag when a connection arrives.
    // `shutdown` wakes it with a loopback connection, so it must exit
    // promptly with no traffic at all.
    let server = server_with(|_| {});
    let started = Instant::now();
    server.shutdown();
    server.wait();
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "shutdown took {:?} with zero inbound traffic",
        started.elapsed()
    );
}

/// Run `f` on its own thread and fail if it has not finished within
/// `limit`: a hung shutdown fails the test instead of hanging the suite.
fn finishes_within(limit: Duration, what: &str, f: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = done.send(());
    });
    // On timeout the thread is left running: a hung one cannot be joined.
    assert!(
        finished.recv_timeout(limit).is_ok(),
        "{what} did not finish within {limit:?}"
    );
    worker.join().expect("the timed thread panicked");
}

#[test]
fn sequential_round_trips_do_not_wait_for_a_poll() {
    // The accept thread wakes on arrival: a back-to-back request must not
    // wait out a poll interval (5 ms when accept polled the stop flag).
    let server = server_with(|_| {});
    let addr = server.addr();
    let mut round_trips: Vec<Duration> = (0..40)
        .map(|_| {
            let started = Instant::now();
            let (status, body) = http::call(addr, "GET", "/healthz", None).expect("healthz");
            assert_eq!(status, 200, "{body}");
            started.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(2),
        "median back-to-back round trip {median:?}: {round_trips:?}"
    );
}

#[test]
fn dropping_an_idle_server_does_not_hang() {
    // No traffic, no shutdown(), no wait(): Drop alone must wake the
    // accept thread and join it.
    let server = server_with(|_| {});
    finishes_within(
        Duration::from_secs(3),
        "dropping an idle server",
        move || {
            drop(server);
        },
    );
}

#[test]
fn shutdown_of_a_server_bound_to_the_unspecified_address_completes() {
    // The wake-up connection cannot go to 0.0.0.0; it must use loopback.
    let server = server_with(|c| c.host = "0.0.0.0".to_string());
    assert!(server.addr().ip().is_unspecified());
    let health = server.health();
    finishes_within(Duration::from_secs(3), "shutdown on 0.0.0.0", move || {
        server.shutdown();
        server.wait();
    });
    assert!(health.is_draining());
    assert!(
        health.shed_total() <= 1,
        "the wake-up connection sheds at most once, got {}",
        health.shed_total()
    );
}

#[test]
fn graceful_drain_finishes_in_flight_and_sheds_new_connections() {
    let server = server_with(|c| c.workers = 2);
    let addr = server.addr();
    let health = server.health();

    // Park a request mid-body: the worker has read the head and is
    // waiting for 4 more body bytes.
    let mut in_flight = TcpStream::connect(addr).expect("connect");
    in_flight
        .write_all(b"GET /healthz HTTP/1.1\r\nContent-Length: 4\r\n\r\nab")
        .expect("write head + half body");
    in_flight.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(health.in_flight(), 1, "request must be mid-read");

    // Begin the drain while that request is in flight.
    server.shutdown();
    std::thread::sleep(Duration::from_millis(200));
    assert!(health.is_draining(), "drain must have begun");

    // New connections are shed with 503 + draining while the old one is
    // still being served.
    let (status, body) = http::call(addr, "GET", "/healthz", None).expect("shed response");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("draining"), "{body}");

    // The in-flight request completes normally: zero dropped work.
    in_flight.write_all(b"cd").expect("write rest of body");
    in_flight.flush().expect("flush");
    let response = read_response(&mut in_flight);
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "in-flight request must finish with 200 during drain: {response}"
    );
    // And /healthz answered it with the draining state visible.
    assert!(response.contains("\"draining\""), "{response}");

    server.wait();
}

#[test]
fn admission_queue_overflow_sheds_with_retry_after() {
    // One worker, one queue slot: occupy both, then watch the third
    // connection get shed.
    let server = server_with(|c| {
        c.workers = 1;
        c.queue_capacity = 1;
    });
    let addr = server.addr();
    let health = server.health();

    // Occupy the single worker with a never-finishing head.
    let mut occupant = TcpStream::connect(addr).expect("connect occupant");
    occupant
        .write_all(b"POST /predict HTTP/1.1\r\n")
        .expect("partial head");
    occupant.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(health.in_flight(), 1);

    // Fill the single queue slot.
    let mut queued = TcpStream::connect(addr).expect("connect queued");
    queued
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .expect("queued request");
    queued.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(health.queue_depth(), 1, "second connection must queue");

    // The third connection overflows the queue: 503 + Retry-After.
    let mut shed = TcpStream::connect(addr).expect("connect shed");
    shed.write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .expect("shed request");
    shed.flush().expect("flush");
    let response = read_response(&mut shed);
    assert!(
        response.starts_with("HTTP/1.1 503"),
        "overflow must answer 503: {response}"
    );
    assert!(
        response.contains("Retry-After: 1"),
        "shed response must carry Retry-After: {response}"
    );
    assert!(response.contains("queue full"), "{response}");
    assert_eq!(health.shed_total(), 1);

    // Release the worker; the queued request is then served.
    occupant
        .write_all(b"Content-Length: 0\r\n\r\n")
        .expect("finish occupant head");
    occupant.flush().expect("flush");
    let occupant_response = read_response(&mut occupant);
    assert!(!occupant_response.is_empty(), "occupant must get an answer");
    let queued_response = read_response(&mut queued);
    assert!(
        queued_response.starts_with("HTTP/1.1 200"),
        "queued request must be served, not dropped: {queued_response}"
    );
}

#[test]
fn slow_loris_is_evicted_with_408() {
    let server = server_with(|c| c.request_deadline = Duration::from_millis(300));
    let addr = server.addr();

    let started = Instant::now();
    let mut loris = TcpStream::connect(addr).expect("connect");
    loris.write_all(b"POST /pre").expect("drip");
    loris.flush().expect("flush");
    // Go silent: the server must cut us off at its deadline, not wait
    // forever.
    let response = read_response(&mut loris);
    assert!(
        response.starts_with("HTTP/1.1 408"),
        "slow-loris must be evicted with 408: {response}"
    );
    let elapsed = started.elapsed();
    assert!(
        elapsed >= Duration::from_millis(300),
        "eviction before the deadline: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "eviction must not wait for the default io timeout: {elapsed:?}"
    );
}

#[test]
fn chaos_heavy_answers_all_wellformed_and_is_byte_deterministic() {
    // The chaos gate from the acceptance criteria: a fixed-seed heavy run
    // answers every well-formed request 200, maps every fault to its
    // expected outcome, and produces byte-stable deterministic report
    // fields across two runs.
    let config = LoadgenConfig {
        workload: Workload::Quick,
        seed: 21,
        requests: 64,
        clients: 4,
        addr: None,
        chaos: ChaosProfile::heavy(),
    };
    let first = loadgen::run(&config).expect("first chaos run");
    let second = loadgen::run(&config).expect("second chaos run");

    assert!(first.chaos_faults > 0, "heavy must inject faults");
    assert_eq!(
        first.chaos_mismatches, 0,
        "every fault must map to its expected status"
    );
    assert_eq!(first.client_panics, 0);
    assert_eq!(first.errors, 0, "no well-formed request may fail");
    assert_eq!(
        first.ok + first.chaos_faults,
        first.requests + first.burst_requests,
        "every slot is either a fault or an answered 200"
    );
    assert!(first.burst_requests > 0, "heavy runs burst rounds");

    assert_eq!(
        first.deterministic_view().to_json(),
        second.deterministic_view().to_json(),
        "chaos deterministic views diverged between identical runs"
    );
}
