//! The `serve-hot` and `serve-miss` workloads against a real
//! `convmeter serve` process.
//!
//! Each run starts the server several times to time set-up, keeps the last
//! one, sends an untimed warm-up pass, then an open loop at a fixed rate and
//! a closed loop on two connections. Afterwards every distinct response body
//! is compared byte for byte with an in-process `ServeState::predict` answer
//! to the same request.

use crate::http;
use crate::proc::Server;
use crate::report::{Metric, Outcome};
use crate::schedule::{poisson_arrivals, SplitMix64, Zipf};
use crate::stats::{self, median, percentile};
use crate::Opts;
use convmeter_serve::{PredictRequest, ServeConfig, ServeState};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Load-generator threads, and so the most connections open at once. Fixed
/// rather than read from the host so every host offers the same load.
pub const THREADS: usize = 2;
/// Open-loop arrival rate, requests per second.
pub const OPEN_RATE: f64 = 100.0;
/// A response later than this, or wrong, does not count toward goodput.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(50);
/// Server starts timed at each of three points of a run: before the
/// timed phases, between them and after them. `setup_s` is the median of
/// all of them. Host speed drifts within seconds on a shared machine, and
/// back-to-back starts would all sample one moment of it.
const SETUP_GROUP: usize = 5;

// Stream salts: one independent random stream per purpose.
const SALT_ARRIVALS: u64 = 1;
const SALT_OPEN_DRAWS: u64 = 2;
const SALT_CLOSED_DRAWS: u64 = 3;
const SALT_GRAPHS: u64 = 4;
const SALT_WARMUP: u64 = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Zipf over the 36-query zoo grid; after warm-up every request hits.
    Hot,
    /// Uniform over 1024 raw-graph bodies against a 64-entry cache.
    Miss,
}

impl Traffic {
    pub fn label(self) -> &'static str {
        match self {
            Traffic::Hot => "hot",
            Traffic::Miss => "miss",
        }
    }

    /// Flags after `convmeter serve --port 0 --warm`; serve-hot runs the
    /// default configuration.
    pub fn server_args(self) -> Vec<String> {
        match self {
            Traffic::Hot => Vec::new(),
            Traffic::Miss => vec!["--cache-capacity".into(), MISS_CAPACITY.to_string()],
        }
    }

    pub fn cache_capacity(self) -> usize {
        match self {
            Traffic::Hot => ServeConfig::default().cache_capacity,
            Traffic::Miss => MISS_CAPACITY,
        }
    }
}

const HOT_MODELS: [&str; 3] = ["resnet18", "mobilenet_v2", "vgg11"];
const HOT_IMAGES: [usize; 3] = [64, 128, 224];
const HOT_BATCHES: [usize; 4] = [1, 8, 32, 64];
const MISS_BODIES: usize = 1024;
/// Response-cache capacity of the serve-miss server: a sixteenth of its
/// working set.
const MISS_CAPACITY: usize = 64;
const MISS_IMAGES: [usize; 2] = [64, 128];
const MISS_BATCHES: [usize; 3] = [1, 8, 64];

/// The distinct request bodies of a workload and how requests draw them.
pub struct Mix {
    pub traffic: Traffic,
    pub bodies: Vec<String>,
    zipf: Option<Zipf>,
}

impl Mix {
    pub fn new(traffic: Traffic, seed: u64) -> Mix {
        match traffic {
            Traffic::Hot => {
                let mut bodies = Vec::with_capacity(36);
                for model in HOT_MODELS {
                    for image in HOT_IMAGES {
                        for batch in HOT_BATCHES {
                            bodies.push(format!(
                                r#"{{"model": "{model}", "image": {image}, "batch": {batch}}}"#
                            ));
                        }
                    }
                }
                let zipf = Some(Zipf::new(bodies.len(), 1.1));
                Mix {
                    traffic,
                    bodies,
                    zipf,
                }
            }
            Traffic::Miss => {
                let mut rng = SplitMix64::stream(seed, SALT_GRAPHS);
                let mut bodies = Vec::with_capacity(MISS_BODIES);
                let mut seen = BTreeSet::new();
                while bodies.len() < MISS_BODIES {
                    let graph_seed = rng.next_u64();
                    let image = MISS_IMAGES[rng.below(MISS_IMAGES.len())];
                    let batch = MISS_BATCHES[rng.below(MISS_BATCHES.len())];
                    let graph = convmeter_models::random::random_convnet(graph_seed, image, 1000);
                    // Only lint-clean graphs: a 400 would count as a failed
                    // operation. And only one body per cache key: the server
                    // answers structurally identical graphs from one entry,
                    // whose `model` name is that of whichever request filled
                    // it, so a duplicate's bytes would depend on cache history.
                    if graph.check().is_err() || !seen.insert((graph.fingerprint(), batch)) {
                        continue;
                    }
                    let graph_json = serde_json::to_string(&serde_json::to_value(&graph))
                        .expect("graph serialises");
                    bodies.push(format!(
                        r#"{{"graph": {graph_json}, "image": {image}, "batch": {batch}}}"#
                    ));
                }
                Mix {
                    traffic,
                    bodies,
                    zipf: None,
                }
            }
        }
    }

    pub fn draw(&self, rng: &mut SplitMix64) -> usize {
        match &self.zipf {
            Some(zipf) => zipf.sample(rng),
            None => rng.below(self.bodies.len()),
        }
    }

    /// The untimed warm-up pass: every hot query once (so every timed hot
    /// request hits), or 32 miss bodies.
    pub fn warmup(&self, seed: u64) -> Vec<usize> {
        match self.traffic {
            Traffic::Hot => (0..self.bodies.len()).collect(),
            Traffic::Miss => {
                let mut rng = SplitMix64::stream(seed, SALT_WARMUP);
                (0..32).map(|_| self.draw(&mut rng)).collect()
            }
        }
    }

    /// `(due offset, body index)` for an open loop at [`OPEN_RATE`].
    pub fn open_schedule(&self, seed: u64, duration: Duration) -> Vec<(Duration, usize)> {
        let due = poisson_arrivals(
            &mut SplitMix64::stream(seed, SALT_ARRIVALS),
            OPEN_RATE,
            duration,
        );
        let mut draws = SplitMix64::stream(seed, SALT_OPEN_DRAWS);
        due.into_iter()
            .map(|d| (d, self.draw(&mut draws)))
            .collect()
    }
}

pub fn body_hash(body: &[u8]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// One request as the generator saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub body: usize,
    /// HTTP status, or 0 when the exchange failed below HTTP.
    pub status: u16,
    /// Open loop: from the due time. Closed loop: from the send.
    pub latency: Duration,
    /// Open loop: how late the generator sent, send time minus due time.
    pub lag: Duration,
    pub hash: u64,
}

/// The first response body seen per request body, kept for the oracle.
pub type FirstBodies = Mutex<BTreeMap<usize, Vec<u8>>>;

fn send(addr: SocketAddr, mix: &Mix, body: usize, first: &FirstBodies) -> (u16, u64) {
    match http::call(addr, "POST", "/predict", mix.bodies[body].as_bytes()) {
        Ok(r) => {
            let hash = body_hash(&r.body);
            let mut first = first
                .lock()
                .expect("no generator thread panics holding the map");
            first.entry(body).or_insert(r.body);
            (r.status, hash)
        }
        Err(_) => (0, 0),
    }
}

/// Sequential requests, results discarded.
pub fn warm_up(addr: SocketAddr, mix: &Mix, bodies: &[usize], first: &FirstBodies) {
    for &b in bodies {
        send(addr, mix, b, first);
    }
}

/// Open loop: [`THREADS`] senders share one schedule, each taking the next
/// due request, sleeping until it is due and timing it from then.
pub fn open_loop(
    addr: SocketAddr,
    mix: &Mix,
    schedule: &[(Duration, usize)],
    first: &FirstBodies,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    // A short lead so the first requests are not late by construction.
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(offset, body)) = schedule.get(i) else {
                            return mine;
                        };
                        let due = t0 + offset;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let (status, hash) = send(addr, mix, body, first);
                        mine.push(Sample {
                            body,
                            status,
                            latency: Instant::now().saturating_duration_since(due),
                            lag: sent.saturating_duration_since(due),
                            hash,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("open-loop sender panicked"))
            .collect()
    })
}

/// Closed loop: [`THREADS`] clients, each sending its next request as soon
/// as the previous one is answered, for `duration`. Returns the samples and
/// the phase's wall time.
pub fn closed_loop(
    addr: SocketAddr,
    mix: &Mix,
    seed: u64,
    duration: Duration,
    first: &FirstBodies,
) -> (Vec<Sample>, Duration) {
    let started = Instant::now();
    let end = started + duration;
    let samples = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS as u64)
            .map(|t| {
                s.spawn(move || {
                    let mut rng = SplitMix64::stream(seed, SALT_CLOSED_DRAWS + 16 * (t + 1));
                    let mut mine = Vec::new();
                    while Instant::now() < end {
                        let body = mix.draw(&mut rng);
                        let sent = Instant::now();
                        let (status, hash) = send(addr, mix, body, first);
                        mine.push(Sample {
                            body,
                            status,
                            latency: sent.elapsed(),
                            lag: Duration::ZERO,
                            hash,
                        });
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("closed-loop client panicked"))
            .collect::<Vec<_>>()
    });
    (samples, started.elapsed())
}

/// What the oracle expects for each request body: the hash of the
/// in-process `200` answer, or why there is none.
pub type Expected = BTreeMap<usize, Result<u64, String>>;

/// The oracle: answer every body the server answered with an in-process
/// `ServeState`, and compare the first served bytes with that answer.
pub fn oracle(mix: &Mix, first: &BTreeMap<usize, Vec<u8>>) -> Expected {
    let state = ServeState::new(&ServeConfig::default());
    first
        .iter()
        .map(|(&body, served)| {
            let rendered = PredictRequest::from_json(&mix.bodies[body])
                .and_then(|req| state.predict(&req))
                .map(|(r, _)| r);
            let verdict = match rendered {
                Ok(r) if r.status != 200 => Err(format!("in-process status {}", r.status)),
                Ok(r) if served.as_slice() != r.body.as_bytes() => {
                    Err("served bytes differ from the in-process answer".to_string())
                }
                Ok(r) => Ok(body_hash(r.body.as_bytes())),
                Err(e) => Err(format!("in-process error: {e}")),
            };
            (body, verdict)
        })
        .collect()
}

/// `None` when the response was a `200` carrying the oracle's bytes.
fn verdict(s: &Sample, expected: &Expected) -> Option<String> {
    match expected.get(&s.body) {
        _ if s.status != 200 => Some(format!("body {}: status {}", s.body, s.status)),
        Some(Ok(hash)) if *hash == s.hash => None,
        Some(Ok(_)) => Some(format!(
            "body {}: response differs from the in-process answer",
            s.body
        )),
        Some(Err(why)) => Some(format!("body {}: {why}", s.body)),
        None => Some(format!("body {}: never answered", s.body)),
    }
}

/// Start `convmeter serve` for `traffic` in a fresh results directory, so
/// the start runs the calibration sweeps; returns it with its set-up time
/// in seconds.
pub fn start(opts: &Opts, traffic: Traffic, k: usize) -> Result<(Server, f64), String> {
    let dir = opts.work.join(format!("serve-{}-{k}", traffic.label()));
    let (server, setup) = Server::spawn(&opts.convmeter, &dir, &traffic.server_args())?;
    Ok((server, setup.as_secs_f64()))
}

/// Time [`SETUP_GROUP`] more starts, stopping each server once it listens.
fn probe_setups(opts: &Opts, traffic: Traffic, setups: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUP_GROUP {
        setups.push(start(opts, traffic, setups.len())?.1);
    }
    Ok(())
}

pub fn run(opts: &Opts, traffic: Traffic) -> Result<Outcome, String> {
    let mix = Mix::new(traffic, opts.seed);
    let (open_secs, closed_secs) = if opts.smoke {
        (1.0, 1.0)
    } else {
        (opts.seconds * 0.75, opts.seconds * 0.25)
    };
    let schedule = mix.open_schedule(opts.seed, Duration::from_secs_f64(open_secs));

    let mut setups = Vec::with_capacity(3 * SETUP_GROUP);
    probe_setups(opts, traffic, &mut setups)?;
    let (server, setup) = start(opts, traffic, setups.len())?;
    setups.push(setup);
    let first = FirstBodies::default();
    warm_up(server.addr, &mix, &mix.warmup(opts.seed), &first);
    let open = open_loop(server.addr, &mix, &schedule, &first);
    // The server under test is idle while these start.
    probe_setups(opts, traffic, &mut setups)?;
    let (closed, closed_wall) = closed_loop(
        server.addr,
        &mix,
        opts.seed,
        Duration::from_secs_f64(closed_secs),
        &first,
    );
    let peak_kib = server.peak_rss_kib().ok_or("server has no VmHWM")?;
    drop(server);
    probe_setups(opts, traffic, &mut setups)?;

    let mut out = Outcome::default();
    let expected = oracle(&mix, &first.into_inner().expect("generator threads joined"));
    for s in open.iter().chain(&closed) {
        out.attempted += 1;
        if let Some(why) = verdict(s, &expected) {
            out.fail(why);
        }
    }

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let latencies: Vec<f64> = open.iter().map(|s| ms(s.latency)).collect();
    let good = closed
        .iter()
        .filter(|s| verdict(s, &expected).is_none() && s.latency <= LATENCY_LIMIT)
        .count();
    let p50 = percentile(&latencies, 50.0).ok_or("open loop sent nothing")?;
    let tail = stats::tail(&latencies).ok_or("open loop sent nothing")?;
    out.metrics = vec![
        Metric::over(
            "setup_s",
            median(&setups).expect("probed"),
            "s",
            setups.len(),
        ),
        Metric::percentile("latency_p50_ms", p50, "ms"),
        Metric::tail("latency_tail_ms", tail, "ms"),
        Metric::over(
            "goodput_per_s",
            good as f64 / closed_wall.as_secs_f64(),
            "1/s",
            closed.len(),
        ),
        Metric::new("peak_rss_mb", peak_kib as f64 * 1024.0 / 1e6, "MB"),
    ];
    if let Some(p99) = percentile(&latencies, 99.0) {
        out.info
            .push(Metric::percentile("latency_p99_ms", p99, "ms"));
    }
    let lags: Vec<f64> = open.iter().map(|s| ms(s.lag)).collect();
    if let Some(p) = percentile(&lags, 99.0) {
        out.info
            .push(Metric::percentile("loadgen.lag_ms.p99", p, "ms"));
    }
    Ok(out)
}
