//! Serve's stage histograms add up to its request histogram: the paper's
//! Eq. 1 (phases sum to `T_iter`) applied to our own server.
//!
//! This is its own test binary because the obs registry is process-global:
//! any other server in the process would record into the same histograms.

use convmeter_serve::http;
use convmeter_serve::server::{Server, ServerConfig};
use convmeter_serve::state::{ServeConfig, ServeState};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;

/// The four top-level stages, in the order a request passes them.
const STAGES: [&str; 4] = [
    "serve_queue_wait_us",
    "serve_read_us",
    "serve_route_us",
    "serve_write_us",
];

/// Plain `name value` samples of a `/metrics` scrape.
fn scrape(addr: SocketAddr) -> BTreeMap<String, u64> {
    let (status, body) = http::call(addr, "GET", "/metrics", None).expect("/metrics");
    assert_eq!(status, 200, "{body}");
    body.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (name, value) = line.split_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

#[test]
fn stage_timings_telescope_to_the_request_time() {
    const N: u64 = 30;
    let state = Arc::new(ServeState::new(&ServeConfig::default()));
    let server = Server::start(
        state,
        &ServerConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr();
    // Five distinct batches: five builds, the rest cache hits.
    for i in 0..N {
        let body = format!(
            r#"{{"model": "resnet18", "image": 64, "batch": {}, "nodes": [1, 2]}}"#,
            1 + i % 5
        );
        let (status, answer) = http::call(addr, "POST", "/predict", Some(&body)).expect("predict");
        assert_eq!(status, 200, "{answer}");
    }

    // A request records its histograms after its response is written, so
    // the last one may still be recording when the next scrape arrives.
    // `serve.request_us` is recorded last: once its count matches every
    // stage's, the scrape holds whole requests only.
    let count = |samples: &BTreeMap<String, u64>, name: &str| samples[&format!("{name}_count")];
    let samples = (0..100)
        .map(|_| scrape(addr))
        .find(|s| {
            s.contains_key("serve_request_us_count")
                && STAGES
                    .iter()
                    .all(|stage| count(s, stage) == count(s, "serve_request_us"))
        })
        .expect("a scrape with every stage recorded for every request");
    let requests = count(&samples, "serve_request_us");
    assert!(requests >= N, "{requests} requests recorded, sent {N}");

    // Each stage is truncated to whole microseconds, and the four stages of
    // a request share their boundary instants, so per request the stage sum
    // falls short of the request time by less than 4 µs.
    let request_sum = samples["serve_request_us_sum"];
    let stage_sum: u64 = STAGES.iter().map(|s| samples[&format!("{s}_sum")]).sum();
    assert!(
        stage_sum <= request_sum && request_sum - stage_sum <= 4 * requests,
        "stages sum to {stage_sum} us, requests to {request_sum} us over {requests}"
    );

    // The /predict stages nest inside route.
    assert_eq!(count(&samples, "serve_parse_us"), N);
    assert_eq!(count(&samples, "serve_predict_us"), N);
    let nested = samples["serve_parse_us_sum"] + samples["serve_predict_us_sum"];
    assert!(
        nested <= samples["serve_route_us_sum"],
        "parse + predict {nested} us exceed route {} us",
        samples["serve_route_us_sum"]
    );
    // Stages are real durations, not zeros.
    assert!(samples["serve_predict_us_sum"] > 0);

    // Inside predict: every request resolves, and only a build builds.
    assert_eq!(count(&samples, "serve_resolve_us"), N);
    assert_eq!(
        count(&samples, "serve_build_us"),
        samples["serve_predict_builds_total"]
    );
    assert_eq!(samples["serve_predict_builds_total"], 5);
    let inner = samples["serve_resolve_us_sum"] + samples["serve_build_us_sum"];
    assert!(
        inner <= samples["serve_predict_us_sum"],
        "resolve + build {inner} us exceed predict {} us",
        samples["serve_predict_us_sum"]
    );
}
