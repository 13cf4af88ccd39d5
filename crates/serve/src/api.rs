//! The `/predict` request/response schema.
//!
//! Requests are hand-parsed from the JSON value model rather than derived:
//! every field except the architecture is optional with a documented
//! default, and the vendored `serde` shim deliberately supports no
//! `#[serde(default)]`. Responses are plain derived `Serialize` structs, so
//! the wire schema is the struct declaration order.

use serde::Serialize;
use serde_json::Value;

/// Version stamped into every response and folded into request
/// fingerprints: bump when the schema or the prediction semantics behind it
/// change incompatibly, so cached responses from the old world stop being
/// addressed.
pub const API_FORMAT: u32 = 1;

/// A parsed `/predict` request.
///
/// Exactly one of `model` (a zoo architecture name) or `graph` (a raw graph
/// JSON document, the same schema `convmeter-graph` serialises) must be
/// present.
#[derive(Debug, Clone)]
pub struct PredictRequest {
    /// Zoo model name (`resnet50`, ...).
    pub model: Option<String>,
    /// Raw graph JSON (kept as a value until the handler deserialises it).
    pub graph: Option<Value>,
    /// Square input image size, pixels.
    pub image: usize,
    /// Per-device batch size.
    pub batch: usize,
    /// Device profile name (`gpu`/`a100` or `cpu`/`xeon`).
    pub device: String,
    /// Arithmetic precision (`fp32`, `tf32`, `fp16`).
    pub precision: String,
    /// Node counts for the scaling curve.
    pub nodes: Vec<usize>,
    /// Devices per node (the paper's cluster has 4).
    pub gpus_per_node: usize,
    /// Dataset size for epoch-time prediction (default: ImageNet).
    pub dataset_size: usize,
    /// How many bottleneck blocks to report.
    pub top_blocks: usize,
}

fn usize_field(v: &Value, key: &str, default: usize) -> Result<usize, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(x) => x
            .as_u64()
            .and_then(|u| usize::try_from(u).ok())
            .filter(|&u| u > 0)
            .ok_or_else(|| format!("field `{key}` must be a positive integer")),
    }
}

fn string_field(v: &Value, key: &str, default: &str) -> Result<String, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default.to_string()),
        Some(x) => x
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("field `{key}` must be a string")),
    }
}

impl PredictRequest {
    /// Parse a request body, applying defaults for absent fields.
    pub fn from_json(body: &str) -> Result<PredictRequest, String> {
        let mut v = serde_json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
        // Move the graph out rather than clone it: it is most of the body.
        // The first pair is the one `Value::get` would find.
        let graph = match &mut v {
            Value::Object(pairs) => match pairs.iter_mut().find(|(k, _)| k == "graph") {
                None | Some((_, Value::Null)) => None,
                Some((_, x)) => Some(std::mem::replace(x, Value::Null)),
            },
            other => {
                return Err(format!(
                    "request must be a JSON object, got {}",
                    other.kind()
                ))
            }
        };
        let model = match v.get("model") {
            None | Some(Value::Null) => None,
            Some(x) => Some(
                x.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "field `model` must be a string".to_string())?,
            ),
        };
        match (&model, &graph) {
            (None, None) => return Err("provide `model` (zoo name) or `graph` (raw JSON)".into()),
            (Some(_), Some(_)) => {
                return Err("`model` and `graph` are mutually exclusive".into());
            }
            _ => {}
        }
        let nodes = match v.get("nodes") {
            None | Some(Value::Null) => vec![1, 2, 4, 8, 16],
            Some(x) => {
                let items = x
                    .as_array()
                    .ok_or_else(|| "field `nodes` must be an array of integers".to_string())?;
                if items.is_empty() {
                    return Err("field `nodes` must not be empty".into());
                }
                items
                    .iter()
                    .map(|n| {
                        n.as_u64()
                            .and_then(|u| usize::try_from(u).ok())
                            .filter(|&u| u > 0)
                            .ok_or_else(|| "field `nodes` must hold positive integers".to_string())
                    })
                    .collect::<Result<Vec<usize>, String>>()?
            }
        };
        Ok(PredictRequest {
            model,
            graph,
            image: usize_field(&v, "image", 224)?,
            batch: usize_field(&v, "batch", 32)?,
            device: string_field(&v, "device", "gpu")?,
            precision: string_field(&v, "precision", "fp32")?,
            nodes,
            gpus_per_node: usize_field(&v, "gpus_per_node", 4)?,
            dataset_size: usize_field(&v, "dataset_size", 1_281_167)?,
            top_blocks: usize_field(&v, "top_blocks", 5)?,
        })
    }

    /// The response-cache fingerprint of this request, given the resolved
    /// structural fingerprints of its architecture and device.
    ///
    /// Two requests that resolve to the same graph structure, device
    /// configuration, and prediction parameters share a fingerprint — a
    /// zoo name and the identical raw graph coalesce onto one cache entry.
    pub fn fingerprint(&self, graph_fingerprint: &str, device_fingerprint: &str) -> String {
        // Exhaustive destructuring: adding a request field without deciding
        // its cache-key role becomes a compile error.
        let Self {
            model: _,
            graph: _,
            image,
            batch,
            device: _,
            precision: _,
            nodes,
            gpus_per_node,
            dataset_size,
            top_blocks,
        } = self;
        // `model`/`graph` and `device`/`precision` enter through the
        // resolved fingerprints, so spelling variants that mean the same
        // computation share an entry.
        let mut h = convmeter_graph::StableHasher::new();
        h.update_str("convmeter-serve-predict");
        h.update(&API_FORMAT.to_le_bytes());
        h.update_str(graph_fingerprint);
        h.update_str(device_fingerprint);
        for dim in [*image, *batch, *gpus_per_node, *dataset_size, *top_blocks] {
            h.update(&(dim as u64).to_le_bytes());
        }
        h.update(&(nodes.len() as u64).to_le_bytes());
        for &n in nodes {
            h.update(&(n as u64).to_le_bytes());
        }
        h.digest()
    }
}

/// One point of the predicted scaling curve in a response.
#[derive(Debug, Clone, Serialize)]
pub struct ScalePoint {
    /// Node count.
    pub nodes: usize,
    /// Total devices.
    pub devices: usize,
    /// Predicted training-step time, seconds.
    pub step_s: f64,
    /// Predicted throughput, images per second.
    pub images_per_sec: f64,
}

/// One ranked bottleneck block in a response.
#[derive(Debug, Clone, Serialize)]
pub struct BottleneckEntry {
    /// Block name.
    pub block: String,
    /// Predicted block latency, seconds.
    pub predicted_s: f64,
    /// Share of the whole-model prediction.
    pub share: f64,
}

/// The `/predict` response document.
#[derive(Debug, Clone, Serialize)]
pub struct PredictResponse {
    /// Schema version ([`API_FORMAT`]).
    pub api_format: u32,
    /// Architecture display name (zoo name, or the raw graph's own name).
    pub model: String,
    /// Request fingerprint — the response-cache key, returned so clients
    /// can correlate entries with `/metrics`.
    pub fingerprint: String,
    /// Resolved device profile fingerprint.
    pub device_fingerprint: String,
    /// Image size echoed back.
    pub image: usize,
    /// Batch size echoed back.
    pub batch: usize,
    /// Predicted forward-pass time, seconds (Eq. 2).
    pub forward_s: f64,
    /// Predicted fused backward+gradient time at one node, seconds.
    pub bwd_grad_s: f64,
    /// Predicted training-step time at one node, seconds (Eq. 1).
    pub step_s: f64,
    /// Predicted epoch time at one node, seconds.
    pub epoch_s: f64,
    /// Predicted throughput across the requested node counts.
    pub scaling: Vec<ScalePoint>,
    /// Diminishing-returns turning point of the scaling curve, nodes.
    pub turning_point_nodes: usize,
    /// Top blocks by predicted latency.
    pub bottlenecks: Vec<BottleneckEntry>,
}

/// The `/healthz` response document.
#[derive(Debug, Clone, Serialize)]
pub struct HealthResponse {
    /// `"ok"`, `"degraded"` (admission queue under pressure), or
    /// `"draining"` (shutdown in progress; new connections are shed).
    pub status: String,
    /// Schema version.
    pub api_format: u32,
    /// Connections waiting in the admission queue.
    pub queue_depth: u64,
    /// Requests currently being processed by workers.
    pub in_flight: u64,
    /// Connections shed with `503` since the server started.
    pub shed_total: u64,
}

/// Render an error body: `{"error": "..."}`.
pub fn error_body(message: &str) -> String {
    serde_json::to_string(&serde_json::json!({ "error": message })).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_apply_and_validate() {
        let r = PredictRequest::from_json(r#"{"model": "resnet18"}"#).unwrap();
        assert_eq!(r.model.as_deref(), Some("resnet18"));
        assert_eq!(r.image, 224);
        assert_eq!(r.batch, 32);
        assert_eq!(r.device, "gpu");
        assert_eq!(r.nodes, vec![1, 2, 4, 8, 16]);
        assert_eq!(r.dataset_size, 1_281_167);
    }

    #[test]
    fn rejects_missing_and_conflicting_architectures() {
        assert!(PredictRequest::from_json("{}").is_err());
        assert!(
            PredictRequest::from_json(r#"{"model": "resnet18", "graph": {"nodes": []}}"#).is_err()
        );
        assert!(PredictRequest::from_json("[1,2]").is_err());
        assert!(PredictRequest::from_json("not json").is_err());
    }

    #[test]
    fn rejects_bad_field_types() {
        assert!(PredictRequest::from_json(r#"{"model": 7}"#).is_err());
        assert!(PredictRequest::from_json(r#"{"model": "x", "batch": 0}"#).is_err());
        assert!(PredictRequest::from_json(r#"{"model": "x", "batch": -3}"#).is_err());
        assert!(PredictRequest::from_json(r#"{"model": "x", "nodes": []}"#).is_err());
        assert!(PredictRequest::from_json(r#"{"model": "x", "nodes": [1, "two"]}"#).is_err());
    }

    #[test]
    fn fingerprint_ignores_spelling_but_not_parameters() {
        let a = PredictRequest::from_json(r#"{"model": "resnet18", "device": "gpu"}"#).unwrap();
        let b = PredictRequest::from_json(r#"{"model": "resnet18", "device": "a100"}"#).unwrap();
        // Same resolved fingerprints -> same cache key even though the
        // device was spelled differently.
        assert_eq!(a.fingerprint("g", "d"), b.fingerprint("g", "d"));
        let c = PredictRequest::from_json(r#"{"model": "resnet18", "batch": 64}"#).unwrap();
        assert_ne!(a.fingerprint("g", "d"), c.fingerprint("g", "d"));
        assert_ne!(a.fingerprint("g", "d"), a.fingerprint("g2", "d"));
        assert_ne!(a.fingerprint("g", "d"), a.fingerprint("g", "d2"));
    }
}
