//! Served bytes are pinned: one digest over the status and body of every
//! answer to a fixed request set.
//!
//! The benchmark's serve oracle is `ServeState::predict` itself, so a
//! change that moves both the server and that oracle passes it unnoticed.
//! This digest does not move with the code: a change to any served byte —
//! a prediction, a bottleneck ranking, a fingerprint, an error message —
//! fails here and must re-record the digest on purpose.

use convmeter_graph::{Graph, GraphBuilder, Shape, StableHasher};
use convmeter_models::random::random_convnet;
use convmeter_models::zoo;
use convmeter_serve::api::error_body;
use convmeter_serve::state::{ServeConfig, ServeState};
use convmeter_serve::PredictRequest;

/// Digest of every `(status, body)` pair below, in request order.
const EXPECTED: &str = "b41df2e2ede829fe88e57b03ce044570";

/// The status and body the server sends for `body`, as `/predict` routes it.
fn answer(state: &ServeState, body: &str) -> (u16, String) {
    let request = match PredictRequest::from_json(body) {
        Ok(request) => request,
        Err(message) => return (400, error_body(&message)),
    };
    match state.predict(&request) {
        Ok((rendered, _)) => (rendered.status, rendered.body.clone()),
        Err(message) => (400, error_body(&message)),
    }
}

fn raw_body(graph: &Graph, image: usize, batch: usize) -> String {
    let graph = serde_json::to_string(&serde_json::to_value(graph)).unwrap();
    format!(r#"{{"graph": {graph}, "image": {image}, "batch": {batch}, "top_blocks": 50}}"#)
}

/// Zoo names on every device and precision at two batches, seeded random
/// graphs, a renamed zoo graph, and a body that fails lint.
fn request_set() -> Vec<String> {
    let mut bodies = Vec::new();
    for name in zoo::all_model_names() {
        let image = zoo::by_name(name).unwrap().min_image_size.max(64);
        for device in ["gpu", "cpu"] {
            for precision in ["fp32", "tf32", "fp16"] {
                bodies.push(format!(
                    r#"{{"model": "{name}", "image": {image}, "batch": 1, "device": "{device}", "precision": "{precision}"}}"#
                ));
                bodies.push(format!(
                    r#"{{"model": "{name}", "image": {image}, "batch": 64, "device": "{device}", "precision": "{precision}", "nodes": [1, 3, 8], "top_blocks": 50}}"#
                ));
            }
        }
    }
    for seed in 0..24u64 {
        let image = [64, 128][seed as usize % 2];
        bodies.push(raw_body(
            &random_convnet(1000 + seed, image, 1000),
            image,
            [1, 8, 64][seed as usize % 3],
        ));
    }
    let mut renamed = zoo::by_name("resnet18").unwrap().build(64, 1000);
    renamed.set_name("resnet18_copy");
    bodies.push(raw_body(&renamed, 64, 8));
    // A 4-channel conv on a 3-channel input: rejected by lint with 400.
    let mut bad = GraphBuilder::new("bad", Shape::image(3, 32));
    bad.conv_bn(4, 8, 3, 1, 1);
    bodies.push(raw_body(&bad.finish(), 32, 1));
    bodies
}

#[test]
fn served_bytes_match_the_pinned_digest() {
    let state = ServeState::new(&ServeConfig::default());
    let mut hasher = StableHasher::new();
    let mut statuses = Vec::new();
    for body in request_set() {
        let (status, served) = answer(&state, &body);
        hasher.update(&status.to_le_bytes());
        hasher.update_str(&served);
        statuses.push(status);
    }
    // The set exercises both outcomes: every valid body answers 200, the
    // lint failure answers 400.
    assert_eq!(statuses.iter().filter(|&&s| s == 400).count(), 1);
    assert!(statuses[..statuses.len() - 1].iter().all(|&s| s == 200));
    assert_eq!(hasher.digest(), EXPECTED);
}
