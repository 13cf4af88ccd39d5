//! The per-layer trace pass (`--trace 1`).
//!
//! Spans are taken from the benchmark's own code, around calls into each
//! layer's public functions; the program under test carries no spans of its
//! own yet. The pass is the same for every workload: it covers both serve
//! traffic mixes (as `serve.hot.*` and `serve.miss.*`) and the offline stack
//! behind `convmeter bench`, so every traced run prints every layer metric.

use crate::http;
use crate::report::{Metric, Outcome};
use crate::schedule::SplitMix64;
use crate::serve::{self, FirstBodies, Mix, Traffic};
use crate::stats::{mean, median, percentile};
use crate::Opts;
use convmeter::prelude::*;
use convmeter_bench::engine::registry::{
    spec_blocks, spec_distributed, spec_fig6_grid, spec_inference_cpu, spec_inference_gpu,
    spec_training,
};
use convmeter_bench::engine::{registry, DatasetSpec, DatasetStore, RunContext};
use convmeter_graph::Graph;
use convmeter_serve::{CacheOutcome, PredictRequest, ServeConfig, ServeState};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SALT_SEQUENTIAL: u64 = 6;
const SALT_PAUSES: u64 = 7;
/// Repetitions of each offline layer call; the median is reported.
const REPS: usize = 3;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed())
}

/// Median wall time of `REPS` calls, milliseconds.
fn median_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..REPS).map(|_| ms(timed(|| black_box(f())).1)).collect();
    median(&times).expect("REPS > 0")
}

/// A fixed floating-point loop owned by the benchmark. It moves with the
/// host, not with the program: compare it across runs to see host drift.
pub fn canary_ms() -> f64 {
    let (x, took) = timed(|| {
        let mut x = 1.0f64;
        for i in 0..10_000_000u64 {
            x = black_box(x * 1.000_000_1 + (i & 7) as f64 * 1e-9);
        }
        x
    });
    black_box(x);
    ms(took)
}

/// p50 and p99 of `samples` (microseconds) as `<prefix>.p50` / `.p99`.
fn p50_p99(out: &mut Outcome, prefix: &str, samples: &[f64]) -> Result<(), String> {
    for (p, label) in [(50.0, "p50"), (99.0, "p99")] {
        let q = percentile(samples, p).ok_or_else(|| format!("{prefix}: no samples"))?;
        out.metrics
            .push(Metric::percentile(format!("{prefix}.{label}"), q, "us"));
    }
    Ok(())
}

/// What `ServeState::predict` resolves a request to before the cache:
/// the zoo compile-cache lookup, or deserialising, linting and
/// fingerprinting a raw graph.
fn resolve(req: &PredictRequest) -> Result<String, String> {
    match (&req.model, &req.graph) {
        (Some(name), None) => convmeter_hwsim::compile::compiled(name, req.image)
            .map_err(|e| e.to_string())?
            .map(|c| c.fingerprint.clone())
            .ok_or_else(|| format!("{name} does not support {}px", req.image)),
        (None, Some(value)) => {
            let graph =
                <Graph as serde::de::Deserialize>::from_value(value).map_err(|e| e.to_string())?;
            graph.check().map_err(|r| r.to_string())?;
            Ok(graph.fingerprint())
        }
        _ => Err("request has neither model nor graph".into()),
    }
}

/// Serve layers for one traffic mix, against a live server and an
/// in-process replay of the same request sequence.
fn serve_layers(opts: &Opts, traffic: Traffic, out: &mut Outcome) -> Result<(), String> {
    let c = traffic.label();
    let mix = Mix::new(traffic, opts.seed);
    let n = if opts.smoke { 20 } else { 300 };
    let mut draws = SplitMix64::stream(opts.seed, SALT_SEQUENTIAL);
    let sequence: Vec<usize> = (0..n).map(|_| mix.draw(&mut draws)).collect();
    let warmup = mix.warmup(opts.seed);

    let (server, _) = serve::start(opts, traffic, 0)?;
    let first = FirstBodies::default();
    serve::warm_up(server.addr, &mix, &warmup, &first);

    // Sequential round trips, `GET /healthz` interleaved with `POST
    // /predict`. A random pause before each puts requests at random phases
    // of anything periodic in the server (its accept loop polls), so both
    // kinds see the same transport wait on average.
    let mut pauses = SplitMix64::stream(opts.seed, SALT_PAUSES);
    let mut pause = || std::thread::sleep(Duration::from_secs_f64(pauses.next_f64() * 0.010));
    let mut transport = Vec::with_capacity(n);
    let mut post = Vec::with_capacity(n);
    let mut served = Vec::with_capacity(n);
    for &body in &sequence {
        pause();
        let (health, took) = timed(|| http::call(server.addr, "GET", "/healthz", b""));
        transport.push(us(took));
        out.attempted += 1;
        if !matches!(health, Ok(ref r) if r.status == 200) {
            out.fail(format!("serve.{c}: /healthz failed: {health:?}"));
        }
        pause();
        let (resp, took) =
            timed(|| http::call(server.addr, "POST", "/predict", mix.bodies[body].as_bytes()));
        post.push(us(took));
        out.attempted += 1;
        served.push(resp.map_err(|e| e.to_string()));
    }

    // Generator lag of a short open loop, then the cache counters for the
    // whole session.
    let lag_secs = if opts.smoke { 0.5 } else { 2.0 };
    let schedule = mix.open_schedule(opts.seed, Duration::from_secs_f64(lag_secs));
    let open = serve::open_loop(server.addr, &mix, &schedule, &first);
    out.attempted += open.len() as u64;
    let lags: Vec<f64> = open.iter().map(|s| ms(s.lag)).collect();
    let lag = percentile(&lags, 99.0).ok_or("lag loop sent nothing")?;
    let scrape =
        http::call(server.addr, "GET", "/metrics", b"").map_err(|e| format!("/metrics: {e}"))?;
    drop(server);
    let counters = prometheus_samples(&scrape.body)?;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0.0);

    // In-process replay: same warm shards, same capacity, same order.
    let state = ServeState::new(&ServeConfig {
        disk_cache_dir: None,
        cache_capacity: traffic.cache_capacity(),
    });
    for device in ["gpu", "cpu"] {
        state.warm(device, "fp32")?;
    }
    let mut parse = Vec::new();
    let mut resolve_us = Vec::new();
    let mut hits = Vec::new();
    let mut misses = Vec::new();
    let mut predict_sequential = Vec::with_capacity(n);
    let replay = warmup
        .iter()
        .map(|&b| (b, None))
        .chain(sequence.iter().zip(&served).map(|(&b, s)| (b, Some(s))));
    for (body, served) in replay {
        let (req, took) = timed(|| PredictRequest::from_json(&mix.bodies[body]));
        parse.push(us(took));
        let req = req?;
        let (fp, took) = timed(|| resolve(&req));
        resolve_us.push(us(took));
        fp?;
        let (answer, took) = timed(|| state.predict(&req));
        let (rendered, outcome) = answer?;
        match outcome {
            CacheOutcome::Hit => hits.push(us(took)),
            CacheOutcome::Miss | CacheOutcome::Coalesced => misses.push(us(took)),
        }
        out.attempted += 3;
        if let Some(served) = served {
            predict_sequential.push(us(took));
            let ok = matches!(served, Ok(r) if r.status == rendered.status
                && r.body == rendered.body.as_bytes());
            if !ok {
                out.fail(format!(
                    "serve.{c}: body {body}: served answer differs from the in-process one"
                ));
            }
        }
    }

    let prefix = format!("serve.{c}");
    p50_p99(out, &format!("{prefix}.transport_us"), &transport)?;
    p50_p99(out, &format!("{prefix}.parse_us"), &parse)?;
    p50_p99(out, &format!("{prefix}.resolve_us"), &resolve_us)?;
    p50_p99(out, &format!("{prefix}.predict_hit_us"), &hits)?;
    p50_p99(out, &format!("{prefix}.predict_miss_us"), &misses)?;
    let post_mean = mean(&post).expect("n > 0");
    let seq_parse = mean(&parse[warmup.len()..]).expect("n > 0");
    let attributed =
        mean(&transport).expect("n > 0") + seq_parse + mean(&predict_sequential).expect("n > 0");
    out.metrics.push(Metric::over(
        format!("{prefix}.post_us.mean"),
        post_mean,
        "us",
        n,
    ));
    out.metrics.push(
        Metric::over(
            format!("{prefix}.unattributed_us"),
            post_mean - attributed,
            "us",
            n,
        )
        .with_note(format!(
            "n={n} share={:.3}",
            (post_mean - attributed) / post_mean
        )),
    );
    let lookups = counter("serve_cache_hits_total")
        + counter("serve_cache_misses_total")
        + counter("serve_cache_coalesced_total");
    out.metrics.push(Metric::over(
        format!("{prefix}.cache.hit_ratio"),
        counter("serve_cache_hits_total") / lookups.max(1.0),
        "ratio",
        lookups as usize,
    ));
    out.metrics.push(Metric::new(
        format!("{prefix}.cache.evictions"),
        counter("serve_cache_evictions_total"),
        "count",
    ));
    out.metrics.push(Metric::new(
        format!("{prefix}.cache.builds"),
        counter("serve_predict_builds_total"),
        "count",
    ));
    out.metrics.push(Metric::percentile(
        format!("loadgen.{c}.lag_ms.p99"),
        lag,
        "ms",
    ));
    Ok(())
}

/// Plain `name value` samples of a Prometheus text scrape.
fn prometheus_samples(body: &[u8]) -> Result<BTreeMap<String, f64>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "/metrics is not UTF-8")?;
    let mut out = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
    {
        if let Some((name, value)) = line.split_once(' ') {
            let value = value
                .trim()
                .parse()
                .map_err(|_| format!("/metrics: bad sample '{line}'"))?;
            out.insert(name.to_string(), value);
        }
    }
    Ok(out)
}

/// Every `(model, image)` pair the registry's dataset specs compile.
fn spec_pairs(specs: &[DatasetSpec]) -> BTreeSet<(String, usize)> {
    let mut pairs = BTreeSet::new();
    for spec in specs {
        let (models, images): (Vec<String>, &[usize]) = match spec {
            DatasetSpec::Inference { config, .. } | DatasetSpec::Training { config, .. } => {
                (config.models.clone(), &config.image_sizes)
            }
            DatasetSpec::Distributed { config, .. } => (config.models.clone(), &config.image_sizes),
            DatasetSpec::Blocks { image_sizes, .. } => (
                convmeter_bench::blocks::TABLE2_BLOCKS
                    .iter()
                    .map(|&(_, model)| model.to_string())
                    .collect(),
                image_sizes,
            ),
        };
        for m in &models {
            for &s in images {
                pairs.insert((m.clone(), s));
            }
        }
    }
    pairs
}

/// Check one layer call succeeds, then report the median time of [`REPS`]
/// more.
fn layer(out: &mut Outcome, name: &str, call: impl Fn() -> bool) {
    if !call() {
        out.fail(format!("{name}: call failed"));
    }
    out.attempted += REPS as u64 + 1;
    out.metrics
        .push(Metric::over(name, median_ms(&call), "ms", REPS));
}

/// Compile, sweep, fit and experiment layers of the offline stack.
fn offline_layers(out: &mut Outcome) -> Result<(), String> {
    let specs = [
        ("inference_cpu", spec_inference_cpu()),
        ("inference_gpu", spec_inference_gpu()),
        ("fig6_grid", spec_fig6_grid()),
        ("blocks", spec_blocks()),
        ("training", spec_training()),
        ("distributed", spec_distributed()),
    ];
    let all: Vec<DatasetSpec> = specs.iter().map(|(_, s)| s.clone()).collect();
    let pairs = spec_pairs(&all);

    convmeter_hwsim::compile::clear_cache();
    let (compiled, took) = timed(|| {
        pairs
            .iter()
            .map(|(m, s)| convmeter_hwsim::compile::compiled(m, *s).map(|_| ()))
            .collect::<Result<Vec<()>, _>>()
    });
    compiled.map_err(|e| format!("compile: {e}"))?;
    out.attempted += pairs.len() as u64;
    out.metrics.push(Metric::over(
        "hwsim.compile_ms",
        ms(took),
        "ms",
        pairs.len(),
    ));

    convmeter_hwsim::compile::set_sweep_jobs(1);
    let store = DatasetStore::new(None);
    for (name, spec) in &specs {
        let sweep = |s: &DatasetStore| match spec {
            DatasetSpec::Inference { .. } | DatasetSpec::Blocks { .. } => {
                s.inference(spec).map(|_| ())
            }
            _ => s.training(spec).map(|_| ()),
        };
        sweep(&store).map_err(|e| format!("sweep {name}: {e}"))?;
        let took = median_ms(|| sweep(&DatasetStore::new(None)));
        out.attempted += REPS as u64;
        out.metrics
            .push(Metric::over(format!("sweep.{name}_ms"), took, "ms", REPS));
    }

    let gpu = store
        .inference(&spec_inference_gpu())
        .map_err(|e| e.to_string())?;
    let dist = store
        .training(&spec_distributed())
        .map_err(|e| e.to_string())?;
    layer(out, "convmeter.fit_forward_ms", || {
        ForwardModel::fit(&gpu).is_ok()
    });
    layer(out, "convmeter.fit_training_ms", || {
        TrainingModel::fit(&dist).is_ok()
    });
    layer(out, "convmeter.lomo_inference_ms", || {
        leave_one_model_out_inference(&gpu).is_ok()
    });
    // Table 3 and Figures 5 and 7 evaluate training leave-one-model-out
    // through this function, not through `convmeter::eval`.
    layer(out, "convmeter.lomo_training_ms", || {
        convmeter_bench::exp_training::evaluate_phases(&dist)
            .per_model
            .len()
            > 1
    });

    let ctx = RunContext { store: &store };
    let mut total = 0.0;
    for exp in registry() {
        let (result, took) = timed(|| exp.run(&ctx));
        out.attempted += 1;
        if let Err(e) = result {
            out.fail(format!("experiment {}: {e}", exp.name()));
        }
        total += ms(took);
        out.metrics.push(Metric::new(
            format!("exp.{}_ms", exp.name()),
            ms(took),
            "ms",
        ));
    }
    out.metrics.push(Metric::over(
        "bench.traced_total_ms",
        total,
        "ms",
        registry().len(),
    ));
    Ok(())
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let canary_start = canary_ms();
    for traffic in [Traffic::Hot, Traffic::Miss] {
        serve_layers(opts, traffic, &mut out)?;
    }
    // A fresh state per call, so each one fits both coefficient shards.
    layer(&mut out, "serve.coeff_fit_ms", || {
        let state = ServeState::new(&ServeConfig::default());
        ["gpu", "cpu"]
            .iter()
            .all(|device| state.warm(device, "fp32").is_ok())
    });
    offline_layers(&mut out)?;
    let canary_end = canary_ms();
    out.metrics.push(Metric::over(
        "host.canary_ms",
        (canary_start + canary_end) / 2.0,
        "ms",
        2,
    ));
    out.info
        .push(Metric::new("host.canary_start_ms", canary_start, "ms"));
    out.info
        .push(Metric::new("host.canary_end_ms", canary_end, "ms"));
    Ok(out)
}
