//! Deterministic load generator.
//!
//! Replays a seeded, zipf-distributed query stream over a fixed model ×
//! image × batch grid against a server — an in-process one it spawns
//! itself (the reproducible mode the SLO gate uses) or a remote address —
//! and summarises the run as an [`SloReport`].
//!
//! Everything that shapes the stream is derived from the seed through a
//! local SplitMix64, and the full request sequence — including the chaos
//! fault plan when a [`ChaosProfile`] is active — is generated up front
//! and folded into `stream_digest`, so two runs with the same
//! `(workload, seed, requests, clients, chaos)` replay byte-identical
//! traffic no matter how the client threads interleave on the wire.
//!
//! Client worker panics are contained: a panicking worker forfeits its
//! partition (counted as errors) and is recorded in `client_panics`, but
//! the run still produces its report instead of losing everything.

use crate::chaos::{ChaosAction, ChaosProfile, CHAOS_SALT};
use crate::http;
use crate::server::{Server, ServerConfig};
use crate::slo::{SloReport, SLO_FORMAT};
use crate::state::{ServeConfig, ServeState};
use convmeter_graph::StableHasher;
use convmeter_metrics::obs;
use convmeter_metrics::obs::metric::{Histogram, HistogramSnapshot};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Zipf skew exponent: rank-`i` query weight is `1 / (i+1)^S`. Mild skew —
/// popular models dominate but the tail still appears in short runs.
const ZIPF_S: f64 = 1.1;

/// Request deadline for the in-process server a *chaos* run spawns: short
/// enough that slow-loris evictions keep the run fast, long enough that a
/// well-formed request is never cut while being read.
const CHAOS_SERVER_DEADLINE: Duration = Duration::from_millis(400);

/// Extra patience on top of the server deadline when waiting for a fault
/// verdict (the slow-loris `408` only arrives after the deadline lapses).
const VERDICT_MARGIN: Duration = Duration::from_secs(3);

/// Which query grid the stream samples from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The engine's quick sweep grid: 3 models × 2 image sizes × 3 batch
    /// sizes = 18 distinct queries. What CI replays.
    Quick,
    /// A wider grid (3 image sizes, 4 batch sizes) for local soak runs.
    Full,
}

impl Workload {
    /// Stable label stamped into reports and baselines.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Quick => "serve-quick",
            Workload::Full => "serve-full",
        }
    }

    /// The distinct request bodies, in deterministic grid order
    /// (model-major). Rank in this list is the zipf rank.
    fn grid(self) -> Vec<String> {
        let models = ["resnet18", "mobilenet_v2", "vgg11"];
        let (images, batches): (&[usize], &[usize]) = match self {
            Workload::Quick => (&[64, 128], &[1, 8, 64]),
            Workload::Full => (&[64, 128, 224], &[1, 8, 32, 64]),
        };
        let mut bodies = Vec::with_capacity(models.len() * images.len() * batches.len());
        for model in models {
            for &image in images {
                for &batch in batches {
                    bodies.push(format!(
                        r#"{{"model": "{model}", "image": {image}, "batch": {batch}, "nodes": [1, 2, 4], "top_blocks": 3}}"#
                    ));
                }
            }
        }
        bodies
    }
}

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Query grid.
    pub workload: Workload,
    /// Stream seed.
    pub seed: u64,
    /// Total requests to issue.
    pub requests: u64,
    /// Client threads (requests are round-robin partitioned).
    pub clients: u64,
    /// Target server; `None` spawns an in-process server on an ephemeral
    /// port and tears it down afterwards.
    pub addr: Option<SocketAddr>,
    /// Chaos profile; the disabled profile replays a clean stream.
    pub chaos: ChaosProfile,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            workload: Workload::Quick,
            seed: 7,
            requests: 64,
            clients: 4,
            addr: None,
            chaos: ChaosProfile::disabled(),
        }
    }
}

/// SplitMix64: tiny, seedable, and identical on every platform — exactly
/// what a replayable stream needs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The sampled query sequence and fault plan for a run, plus its digest.
struct Stream {
    indices: Vec<usize>,
    actions: Vec<ChaosAction>,
    digest: String,
}

fn build_stream(config: &LoadgenConfig, bodies: &[String]) -> Stream {
    // Cumulative zipf weights over grid ranks.
    let mut cumulative = Vec::with_capacity(bodies.len());
    let mut total = 0.0f64;
    for rank in 0..bodies.len() {
        total += 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
        cumulative.push(total);
    }
    let mut rng = SplitMix64(config.seed);
    let mut indices = Vec::with_capacity(config.requests as usize);
    for _ in 0..config.requests {
        let target = rng.next_f64() * total;
        let index = cumulative
            .iter()
            .position(|&c| c >= target)
            .unwrap_or(bodies.len().saturating_sub(1));
        indices.push(index);
    }
    // The fault plan draws from a salted RNG so zipf sampling and chaos
    // injection never reshuffle each other.
    let mut chaos_rng = SplitMix64(config.seed ^ CHAOS_SALT);
    let actions: Vec<ChaosAction> = (0..config.requests)
        .map(|_| {
            let draw = (chaos_rng.next_u64() % 1000) as u32;
            config.chaos.action_for_draw(draw)
        })
        .collect();
    let mut hasher = StableHasher::new();
    hasher.update_str("convmeter-serve-loadgen");
    hasher.update(&SLO_FORMAT.to_le_bytes());
    hasher.update_str(config.workload.label());
    hasher.update(&config.seed.to_le_bytes());
    hasher.update(&config.clients.to_le_bytes());
    hasher.update_str(&config.chaos.name);
    for body in bodies {
        hasher.update_str(body);
    }
    for &index in &indices {
        hasher.update(&(index as u64).to_le_bytes());
    }
    for action in &actions {
        hasher.update_str(action.label());
    }
    Stream {
        indices,
        actions,
        digest: hasher.digest(),
    }
}

/// Scrape `serve_predict_builds_total` from a server's `/metrics`.
fn scrape_builds(addr: SocketAddr) -> Result<u64, String> {
    let (status, body) = http::call(addr, "GET", "/metrics", None)
        .map_err(|e| format!("metrics scrape failed: {e}"))?;
    if status != 200 {
        return Err(format!("metrics scrape returned {status}"));
    }
    let samples = obs::prometheus::parse(&body).map_err(|e| format!("metrics parse: {e}"))?;
    Ok(samples
        .get("serve_predict_builds_total")
        .copied()
        .unwrap_or(0.0) as u64)
}

#[derive(Default)]
struct ClientResult {
    ok: u64,
    errors: u64,
    faults: u64,
    mismatches: u64,
    panics: u64,
    latencies_us: Vec<u64>,
}

impl ClientResult {
    /// The result recorded for a worker whose closure panicked: its whole
    /// partition is forfeit and counted against the error budget.
    fn panicked(assigned: u64) -> ClientResult {
        ClientResult {
            errors: assigned,
            panics: 1,
            ..ClientResult::default()
        }
    }
}

fn run_client(
    addr: SocketAddr,
    bodies: Arc<Vec<String>>,
    work: Vec<(usize, ChaosAction)>,
    patience: Duration,
) -> ClientResult {
    let mut result = ClientResult {
        latencies_us: Vec::with_capacity(work.len()),
        ..ClientResult::default()
    };
    for (index, action) in work {
        match action {
            ChaosAction::WellFormed => {
                let body = bodies.get(index).map(String::as_str).unwrap_or_default();
                let started = obs::clock::now();
                let outcome = http::call(addr, "POST", "/predict", Some(body));
                let elapsed = started.elapsed();
                result
                    .latencies_us
                    .push(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
                match outcome {
                    Ok((200, _)) => result.ok += 1,
                    Ok(_) | Err(_) => result.errors += 1,
                }
            }
            #[cfg(test)]
            ChaosAction::PanicForTest => {
                panic!("injected chaos panic (worker-containment test)");
            }
            fault => {
                result.faults += 1;
                let observed = crate::chaos::execute(addr, fault, patience);
                if observed != fault.expected() {
                    result.mismatches += 1;
                    obs::counter!("loadgen.chaos.mismatches").inc();
                }
            }
        }
    }
    result
}

/// Synchronized connection bursts: each round releases `size` well-formed
/// requests for the zipf rank-0 body through a barrier at once.
fn run_bursts(addr: SocketAddr, body: &str, rounds: u64, size: u64) -> (u64, u64) {
    let mut ok = 0u64;
    let mut errors = 0u64;
    for _ in 0..rounds {
        let barrier = Arc::new(Barrier::new(size as usize));
        let threads: Vec<_> = (0..size)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let body = body.to_string();
                std::thread::spawn(move || {
                    barrier.wait();
                    matches!(
                        http::call(addr, "POST", "/predict", Some(&body)),
                        Ok((200, _))
                    )
                })
            })
            .collect();
        for thread in threads {
            match thread.join() {
                Ok(true) => ok += 1,
                Ok(false) | Err(_) => errors += 1,
            }
        }
    }
    (ok, errors)
}

/// Run the load and produce a timed [`SloReport`].
///
/// In-process mode reads `cache_builds` from the spawned state's own
/// accounting; remote mode falls back to `/metrics` scrape deltas, which
/// are only meaningful against a freshly started server.
pub fn run(config: &LoadgenConfig) -> Result<SloReport, String> {
    run_with_actions(config, None)
}

/// [`run`] with an explicit action plan override (tests inject otherwise
/// undrawable actions through this seam).
fn run_with_actions(
    config: &LoadgenConfig,
    override_actions: Option<Vec<ChaosAction>>,
) -> Result<SloReport, String> {
    let bodies = Arc::new(config.workload.grid());
    let mut stream = build_stream(config, &bodies);
    if let Some(actions) = override_actions {
        stream.actions = actions;
        stream
            .actions
            .resize(stream.indices.len(), ChaosAction::WellFormed);
    }
    let clients = config.clients.max(1) as usize;
    let chaos_active = !config.chaos.is_off();

    // Spawn or resolve the target server. A chaos run sizes the pool so
    // well-formed requests never queue behind the attack traffic (the
    // report's `ok` count must be deterministic) and shortens the request
    // deadline so slow-loris evictions don't dominate wall time.
    let in_process = match config.addr {
        Some(_) => None,
        None => {
            let state = Arc::new(ServeState::new(&ServeConfig::default()));
            let server_config = if chaos_active {
                ServerConfig {
                    host: "127.0.0.1".to_string(),
                    port: 0,
                    workers: usize::try_from(config.clients + config.chaos.burst_size + 2)
                        .unwrap_or(16)
                        .clamp(4, 16),
                    queue_capacity: 256,
                    max_connections: 512,
                    request_deadline: CHAOS_SERVER_DEADLINE,
                    ..ServerConfig::default()
                }
            } else {
                ServerConfig {
                    host: "127.0.0.1".to_string(),
                    port: 0,
                    ..ServerConfig::default()
                }
            };
            let server = Server::start(Arc::clone(&state), &server_config)
                .map_err(|e| format!("failed to start in-process server: {e}"))?;
            Some((state, server))
        }
    };
    let addr = match (&in_process, config.addr) {
        (_, Some(addr)) => addr,
        (Some((_, server)), None) => server.addr(),
        (None, None) => return Err("no server to target".to_string()),
    };
    let builds_before = match &in_process {
        Some(_) => 0,
        None => scrape_builds(addr)?,
    };
    // How long a client waits for a fault verdict: past the server's
    // request deadline, since the slow-loris 408 arrives only after it.
    let patience = match &in_process {
        Some(_) if chaos_active => CHAOS_SERVER_DEADLINE + VERDICT_MARGIN,
        _ => http::IO_TIMEOUT + VERDICT_MARGIN,
    };

    // Round-robin partition of the sampled sequence.
    let mut partitions: Vec<Vec<(usize, ChaosAction)>> = vec![Vec::new(); clients];
    for (position, &index) in stream.indices.iter().enumerate() {
        let action = stream
            .actions
            .get(position)
            .copied()
            .unwrap_or(ChaosAction::WellFormed);
        if let Some(part) = partitions.get_mut(position % clients) {
            part.push((index, action));
        }
    }

    let started = obs::clock::now();
    let workers: Vec<std::thread::JoinHandle<ClientResult>> = partitions
        .into_iter()
        .map(|work| {
            let bodies = Arc::clone(&bodies);
            let assigned = work.len() as u64;
            std::thread::spawn(move || {
                // Contain panics inside the worker: the partition is
                // forfeited but the run still reports.
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_client(addr, bodies, work, patience)
                }))
                .unwrap_or_else(|_| ClientResult::panicked(assigned))
            })
        })
        .collect();
    let mut totals = ClientResult::default();
    let latency = Histogram::default();
    for worker in workers {
        // A panic that somehow escapes the in-thread containment is still
        // recorded rather than discarding the whole report.
        let result = worker.join().unwrap_or_else(|_| ClientResult::panicked(0));
        totals.ok += result.ok;
        totals.errors += result.errors;
        totals.faults += result.faults;
        totals.mismatches += result.mismatches;
        totals.panics += result.panics;
        for us in result.latencies_us {
            latency.record(us);
            obs::histogram!("loadgen.request_us").record(us);
        }
    }

    // Synchronized bursts after the main stream: a thundering herd of
    // well-formed requests that must all be answered 200.
    let burst_requests = config.chaos.burst_rounds * config.chaos.burst_size;
    if burst_requests > 0 {
        let body = bodies.first().map(String::as_str).unwrap_or_default();
        let (burst_ok, burst_errors) = run_bursts(
            addr,
            body,
            config.chaos.burst_rounds,
            config.chaos.burst_size,
        );
        totals.ok += burst_ok;
        totals.errors += burst_errors;
    }
    let wall_seconds = started.elapsed().as_secs_f64();

    let cache_builds = match &in_process {
        Some((state, server)) => {
            server.shutdown();
            // Exactly-once per fingerprint: deterministic in the request
            // stream, unlike the scheduling-dependent hit/coalesced split.
            state.builds()
        }
        None => scrape_builds(addr)?.saturating_sub(builds_before),
    };

    let snapshot = HistogramSnapshot {
        count: latency.count(),
        sum: latency.sum(),
        buckets: latency.nonzero_buckets(),
    };
    let latency_mean_us = snapshot.sum.checked_div(snapshot.count).unwrap_or(0);
    let throughput_rps = if wall_seconds > 0.0 {
        config.requests as f64 / wall_seconds
    } else {
        0.0
    };
    Ok(SloReport {
        slo_format: SLO_FORMAT,
        workload: config.workload.label().to_string(),
        seed: config.seed,
        requests: config.requests,
        clients: config.clients,
        distinct_queries: bodies.len() as u64,
        stream_digest: stream.digest,
        ok: totals.ok,
        errors: totals.errors,
        // analyzer:allow(CD0004, reason = "remote arm only: serve_predict_builds_total is bumped exactly once per distinct fingerprint (coalescing cache), so the scraped delta is a function of the request stream, not of worker scheduling; the in-process arm reads ServeState::builds() directly")
        cache_builds,
        // analyzer:allow(CD0004, reason = "derived from cache_builds above; same exactly-once argument")
        cache_served: totals.ok.saturating_sub(cache_builds),
        chaos_profile: config.chaos.name.clone(),
        chaos_faults: totals.faults,
        chaos_mismatches: totals.mismatches,
        burst_requests,
        client_panics: totals.panics,
        latency_p50_us: snapshot.percentile(0.50),
        latency_p99_us: snapshot.percentile(0.99),
        latency_mean_us,
        throughput_rps,
        wall_seconds,
        deterministic: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seed_deterministic() {
        let config = LoadgenConfig::default();
        let bodies = config.workload.grid();
        let a = build_stream(&config, &bodies);
        let b = build_stream(&config, &bodies);
        assert_eq!(a.indices, b.indices);
        assert_eq!(a.actions, b.actions);
        assert_eq!(a.digest, b.digest);
        let other = LoadgenConfig {
            seed: 8,
            ..LoadgenConfig::default()
        };
        let c = build_stream(&other, &bodies);
        assert_ne!(a.digest, c.digest, "seed must reshape the stream");
    }

    #[test]
    fn chaos_plan_is_seed_deterministic_and_reshapes_digest() {
        let config = LoadgenConfig {
            chaos: ChaosProfile::heavy(),
            requests: 200,
            ..LoadgenConfig::default()
        };
        let bodies = config.workload.grid();
        let a = build_stream(&config, &bodies);
        let b = build_stream(&config, &bodies);
        assert_eq!(a.actions, b.actions, "fault plan must replay per seed");
        let faults = a
            .actions
            .iter()
            .filter(|&&x| x != ChaosAction::WellFormed)
            .count();
        assert!(faults > 0, "heavy profile must inject faults in 200 slots");
        assert!(faults < 200, "heavy profile must leave well-formed traffic");
        // Same seed, different profile: different digest.
        let clean = build_stream(
            &LoadgenConfig {
                chaos: ChaosProfile::disabled(),
                ..config.clone()
            },
            &bodies,
        );
        assert_ne!(a.digest, clean.digest, "chaos profile must be in digest");
        // The zipf indices are unaffected by the chaos plan.
        assert_eq!(a.indices, clean.indices);
    }

    #[test]
    fn zipf_sampling_skews_toward_low_ranks() {
        let config = LoadgenConfig {
            requests: 2_000,
            ..LoadgenConfig::default()
        };
        let bodies = config.workload.grid();
        let stream = build_stream(&config, &bodies);
        let head = stream.indices.iter().filter(|&&i| i == 0).count();
        let tail = stream
            .indices
            .iter()
            .filter(|&&i| i == bodies.len() - 1)
            .count();
        assert!(
            head > tail * 3,
            "rank 0 drew {head}, last rank drew {tail}: stream is not zipf-skewed"
        );
        // Every index stays inside the grid.
        assert!(stream.indices.iter().all(|&i| i < bodies.len()));
    }

    #[test]
    fn grids_are_stable_and_parse_as_requests() {
        let quick = Workload::Quick.grid();
        assert_eq!(quick.len(), 18);
        assert_eq!(Workload::Full.grid().len(), 36);
        for body in &quick {
            crate::api::PredictRequest::from_json(body).expect("grid bodies must parse");
        }
    }

    #[test]
    fn worker_panic_is_contained_and_reported() {
        let config = LoadgenConfig {
            requests: 4,
            clients: 2,
            ..LoadgenConfig::default()
        };
        // Position 1 lands on worker 1 (round-robin), which also owns
        // position 3: that whole partition is forfeit.
        let actions = vec![
            ChaosAction::WellFormed,
            ChaosAction::PanicForTest,
            ChaosAction::WellFormed,
            ChaosAction::WellFormed,
        ];
        let report =
            run_with_actions(&config, Some(actions)).expect("report must survive the panic");
        assert_eq!(report.client_panics, 1, "panic must be recorded");
        assert_eq!(report.ok, 2, "worker 0's partition still completes");
        assert_eq!(report.errors, 2, "forfeited partition counts as errors");
    }
}
