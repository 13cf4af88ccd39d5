//! Shared service state: the sharded coefficient store and the
//! fingerprint-keyed LRU response cache with request coalescing.
//!
//! Both layers reuse the engine store's memoisation idiom — a map of
//! `Arc<OnceLock<...>>` slots whose `get_or_init` blocks concurrent
//! initialisers — so identical work runs exactly once per process no matter
//! how many connections race:
//!
//! * **coefficient shards**, keyed by device-profile fingerprint: the first
//!   request for a device runs the quick calibration sweeps through the
//!   engine's [`DatasetStore`] (one inference, one distributed) and fits the
//!   forward and training models once; every later request on that device
//!   reuses the fitted coefficients;
//! * **response cache**, keyed by request fingerprint plus the model name
//!   the response displays: completed responses are served straight from
//!   memory (LRU-evicted beyond capacity), and a request identical to one
//!   still being computed *coalesces* onto the in-flight slot instead of
//!   predicting again. The name is part of the key so that a body never
//!   depends on which of two structurally identical, differently named
//!   graphs filled the slot.

use crate::api::{
    error_body, BottleneckEntry, PredictRequest, PredictResponse, ScalePoint, API_FORMAT,
};
use convmeter::prelude::*;
use convmeter::scalability::{throughput_vs_nodes, turning_point};
use convmeter_bench::engine::store::{DatasetSpec, DatasetStats, DatasetStore};
use convmeter_graph::Graph;
use convmeter_hwsim::Precision;
use convmeter_metrics::obs;
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory for the engine store's on-disk dataset cache; `None` keeps
    /// calibration sweeps in memory only.
    pub disk_cache_dir: Option<PathBuf>,
    /// Response-cache capacity (completed entries).
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            disk_cache_dir: None,
            cache_capacity: 256,
        }
    }
}

/// How a `/predict` request met the response cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from a completed cached response.
    Hit,
    /// Joined an identical request still being computed.
    Coalesced,
    /// First request for this cache key; this caller built the response.
    Miss,
}

/// Point-in-time response-cache accounting.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct CacheStats {
    /// Requests served from completed entries.
    pub hits: u64,
    /// Requests that created a new entry.
    pub misses: u64,
    /// Requests that joined an in-flight entry.
    pub coalesced: u64,
    /// Responses actually computed (one per distinct cache key, however
    /// many requests raced).
    pub builds: u64,
    /// Entries dropped by LRU eviction.
    pub evictions: u64,
}

/// A rendered HTTP-level answer: status code plus JSON body.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// HTTP status code.
    pub status: u16,
    /// JSON body.
    pub body: String,
}

/// Fitted per-device coefficient set.
pub struct DeviceModels {
    /// Eq. 2 forward model fitted on the device's quick inference sweep.
    pub forward: ForwardModel,
    /// Training-step model fitted on the device's quick distributed sweep.
    pub training: TrainingModel,
}

type ModelSlot = Arc<OnceLock<Result<Arc<DeviceModels>, String>>>;
type ResponseSlot = Arc<OnceLock<Arc<Rendered>>>;
/// Response-cache key: the request fingerprint and the display name.
type CacheKey = (String, String);

struct LruCache {
    capacity: usize,
    slots: BTreeMap<CacheKey, ResponseSlot>,
    /// Keys from least- to most-recently used.
    order: VecDeque<CacheKey>,
    stats: CacheStats,
}

impl LruCache {
    fn touch(&mut self, key: &CacheKey) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            self.order.remove(pos);
        }
        self.order.push_back(key.clone());
    }

    /// Drop least-recently-used entries beyond capacity. Completed entries
    /// go first; an in-flight entry is only dropped when nothing completed
    /// remains (waiters keep their own `Arc` to the slot, so dropping the
    /// map entry never breaks an in-progress coalesce — it merely lets a
    /// future identical request rebuild).
    /// Returns how many entries were dropped so the caller can bump the
    /// process-wide telemetry counter once its own guard is released — the
    /// registry takes a mutex on the cold path and must not nest under ours.
    fn evict(&mut self) -> u64 {
        let mut evicted = 0;
        while self.slots.len() > self.capacity {
            let victim = self
                .order
                .iter()
                .position(|k| self.slots.get(k).is_some_and(|s| s.get().is_some()))
                .unwrap_or(0);
            if let Some(key) = self.order.remove(victim) {
                self.slots.remove(&key);
                self.stats.evictions += 1;
                evicted += 1;
            } else {
                break;
            }
        }
        evicted
    }
}

/// The names a request may spell one table entry with.
type Aliases = &'static [&'static str];

/// The devices a request can name, with their aliases, in table order.
/// Mirrors the CLI's vocabulary so `convmeter benchmark --device gpu` and
/// a `/predict` body mean the same hardware.
const DEVICES: [(Aliases, fn() -> DeviceProfile); 2] = [
    (&["gpu", "a100"], DeviceProfile::a100_80gb),
    (&["cpu", "xeon"], DeviceProfile::xeon_gold_5318y_core),
];
/// The precisions a request can name, with their aliases, in table order;
/// `None` is the device's native FP32 profile.
const PRECISIONS: [(Aliases, Option<Precision>); 3] = [
    (&["fp32"], None),
    (&["tf32"], Some(Precision::Tf32)),
    (&["fp16", "amp"], Some(Precision::Fp16)),
];

/// A canonical (device, precision) pair resolved to its profile and the
/// profile's fingerprint, which hashes the profile's JSON serialisation:
/// computed once per [`ServeState`], not once per request.
struct ResolvedDevice {
    profile: DeviceProfile,
    fingerprint: String,
}

/// The resolved-device table slot of a device name and precision.
fn device_slot(name: &str, precision: &str) -> Result<usize, String> {
    let device = DEVICES
        .iter()
        .position(|(aliases, _)| aliases.contains(&name))
        .ok_or_else(|| format!("unknown device '{name}' (expected gpu|cpu)"))?;
    let precision = PRECISIONS
        .iter()
        .position(|(aliases, _)| aliases.contains(&precision))
        .ok_or_else(|| format!("unknown precision '{precision}' (expected fp32|tf32|fp16)"))?;
    Ok(device * PRECISIONS.len() + precision)
}

/// Process-shared service state. Cheap to share behind an `Arc`; every
/// method takes `&self`.
pub struct ServeState {
    store: DatasetStore,
    /// One slot per canonical (device, precision) pair; see [`device_slot`].
    devices: [OnceLock<ResolvedDevice>; DEVICES.len() * PRECISIONS.len()],
    shards: Mutex<BTreeMap<String, ModelSlot>>,
    cache: Mutex<LruCache>,
    builds: AtomicU64,
}

/// The architecture a request resolved to: a zoo spec (built lazily, its
/// fingerprint served by the process-global compile cache) or an owned raw
/// graph.
enum Arch {
    Zoo { name: String },
    Raw(Box<Graph>),
}

impl Arch {
    /// The model name the response displays.
    fn display_name(&self) -> &str {
        match self {
            Arch::Zoo { name } => name,
            Arch::Raw(graph) => graph.name(),
        }
    }
}

impl ServeState {
    /// Create service state with its own engine dataset store.
    pub fn new(config: &ServeConfig) -> ServeState {
        ServeState {
            store: DatasetStore::new(config.disk_cache_dir.clone()),
            devices: Default::default(),
            shards: Mutex::new(BTreeMap::new()),
            cache: Mutex::new(LruCache {
                capacity: config.cache_capacity.max(1),
                slots: BTreeMap::new(),
                order: VecDeque::new(),
                stats: CacheStats::default(),
            }),
            builds: AtomicU64::new(0),
        }
    }

    /// Answer a parsed `/predict` request.
    ///
    /// `Err` is a bad-request message (unknown model/device, malformed
    /// graph) decided *before* the cache — invalid requests never occupy
    /// cache slots. `Ok` carries the rendered response (which may itself be
    /// a cached 5xx if a calibration sweep failed) and how the cache was
    /// met.
    pub fn predict(&self, req: &PredictRequest) -> Result<(Arc<Rendered>, CacheOutcome), String> {
        let started = obs::clock::now();
        let resolved = self.resolve(req);
        obs::histogram!("serve.resolve_us").record_duration_us(started.elapsed());
        let (device, arch, key) = resolved?;
        let (slot, outcome) = self.lookup(&key);
        let rendered = slot
            .get_or_init(|| {
                let started = obs::clock::now();
                self.builds.fetch_add(1, Ordering::Relaxed);
                obs::counter!("serve.predict.builds").inc();
                let rendered = Arc::new(self.build_response(req, device, &arch, &key.0));
                obs::histogram!("serve.build_us").record_duration_us(started.elapsed());
                rendered
            })
            .clone();
        Ok((rendered, outcome))
    }

    /// Pre-build the coefficient shard for a device so the first `/predict`
    /// does not pay for the calibration sweeps.
    pub fn warm(&self, device_name: &str, precision: &str) -> Result<(), String> {
        let device = self.resolve_device(device_name, precision)?;
        self.device_models(device).map(|_| ())
    }

    /// Exactly-once build count. The coalescing cache guarantees each
    /// distinct cache key is built by exactly one caller, so this value is
    /// a function of the admitted request set alone — unlike the hit/miss
    /// split in [`Self::cache_stats`], it does not depend on worker
    /// scheduling order and is safe to put in reproducible artefacts.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Response-cache accounting (authoritative for tests: unlike the obs
    /// counters, this is scoped to one state instance).
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = self
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats;
        stats.builds = self.builds.load(Ordering::Relaxed);
        stats
    }

    /// Per-dataset accounting of the underlying engine store — the
    /// build-count instrumentation the coalescing tests assert on.
    pub fn store_stats(&self) -> BTreeMap<String, DatasetStats> {
        self.store.stats()
    }

    /// Everything `predict` decides before the cache: the device, the
    /// architecture, and the cache key.
    fn resolve(&self, req: &PredictRequest) -> Result<(&ResolvedDevice, Arch, CacheKey), String> {
        let device = self.resolve_device(&req.device, &req.precision)?;
        let (arch, graph_fp) = Self::resolve_arch(req)?;
        let fingerprint = req.fingerprint(&graph_fp, &device.fingerprint);
        let key = (fingerprint, arch.display_name().to_string());
        Ok((device, arch, key))
    }

    /// The resolved profile of a device name and precision. An unknown
    /// name errors before the table is touched.
    fn resolve_device(&self, name: &str, precision: &str) -> Result<&ResolvedDevice, String> {
        let slot = device_slot(name, precision)?;
        Ok(self.devices[slot].get_or_init(|| {
            let device = DEVICES[slot / PRECISIONS.len()].1();
            let profile = match PRECISIONS[slot % PRECISIONS.len()].1 {
                None => device,
                Some(precision) => device.with_precision(precision),
            };
            let fingerprint = profile.fingerprint();
            ResolvedDevice {
                profile,
                fingerprint,
            }
        }))
    }

    fn resolve_arch(req: &PredictRequest) -> Result<(Arch, String), String> {
        match (&req.model, &req.graph) {
            (Some(name), None) => {
                let compiled = convmeter_hwsim::compile::compiled(name, req.image)
                    .map_err(|e| e.to_string())?;
                let Some(compiled) = compiled else {
                    return Err(format!("{name} does not support {}px images", req.image));
                };
                Ok((
                    Arch::Zoo { name: name.clone() },
                    compiled.fingerprint.clone(),
                ))
            }
            (None, Some(value)) => {
                let graph = <Graph as serde::de::Deserialize>::from_value(value)
                    .map_err(|e| format!("invalid graph: {e}"))?;
                if let Err(report) = graph.check() {
                    return Err(format!("graph failed lint: {report}"));
                }
                let fp = graph.fingerprint();
                Ok((Arch::Raw(Box::new(graph)), fp))
            }
            // `from_json` guarantees exactly one side is present.
            _ => Err("provide `model` or `graph`".into()),
        }
    }

    fn lookup(&self, key: &CacheKey) -> (ResponseSlot, CacheOutcome) {
        let mut lru = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let (slot, outcome, evicted) = if let Some(slot) = lru.slots.get(key) {
            let slot = slot.clone();
            let outcome = if slot.get().is_some() {
                lru.stats.hits += 1;
                CacheOutcome::Hit
            } else {
                lru.stats.coalesced += 1;
                CacheOutcome::Coalesced
            };
            lru.touch(key);
            (slot, outcome, 0)
        } else {
            lru.stats.misses += 1;
            let slot = ResponseSlot::default();
            lru.slots.insert(key.clone(), slot.clone());
            lru.order.push_back(key.clone());
            let evicted = lru.evict();
            (slot, CacheOutcome::Miss, evicted)
        };
        drop(lru);
        // The telemetry registry takes its own mutex when a counter is first
        // interned; bump the process-wide counters only after the cache guard
        // is released so the two locks never nest.
        match outcome {
            CacheOutcome::Hit => obs::counter!("serve.cache.hits").inc(),
            CacheOutcome::Coalesced => obs::counter!("serve.cache.coalesced").inc(),
            CacheOutcome::Miss => obs::counter!("serve.cache.misses").inc(),
        }
        if evicted > 0 {
            obs::counter!("serve.cache.evictions").add(evicted);
        }
        (slot, outcome)
    }

    fn device_models(&self, device: &ResolvedDevice) -> Result<Arc<DeviceModels>, String> {
        let slot = self
            .shards
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(device.fingerprint.clone())
            .or_default()
            .clone();
        slot.get_or_init(|| {
            obs::counter!("serve.coeff.builds").inc();
            let started = obs::clock::now();
            let result = Self::build_models(&self.store, &device.profile);
            obs::histogram!("serve.coeff.build_us").record_duration_us(started.elapsed());
            result
        })
        .clone()
    }

    /// Fit the per-device coefficient set from the engine store's quick
    /// calibration sweeps. The store memoises and (optionally) persists the
    /// datasets, so two devices sharing a sweep share its cost.
    fn build_models(
        store: &DatasetStore,
        device: &DeviceProfile,
    ) -> Result<Arc<DeviceModels>, String> {
        let inference = store
            .inference(&DatasetSpec::Inference {
                device: device.clone(),
                config: SweepConfig::quick(),
            })
            .map_err(|e| format!("inference calibration sweep failed: {e}"))?;
        let forward =
            ForwardModel::fit(&inference).map_err(|e| format!("forward fit failed: {e}"))?;
        let distributed = store
            .training(&DatasetSpec::Distributed {
                device: device.clone(),
                config: DistSweepConfig::quick(),
            })
            .map_err(|e| format!("distributed calibration sweep failed: {e}"))?;
        let training =
            TrainingModel::fit(&distributed).map_err(|e| format!("training fit failed: {e}"))?;
        Ok(Arc::new(DeviceModels { forward, training }))
    }

    fn build_response(
        &self,
        req: &PredictRequest,
        device: &ResolvedDevice,
        arch: &Arch,
        fingerprint: &str,
    ) -> Rendered {
        let models = match self.device_models(device) {
            Ok(models) => models,
            // Calibration failures are server-side: the device is known but
            // its sweep or fit broke. The rendered 500 is cached like any
            // other response — the failure is deterministic for this key.
            Err(e) => {
                return Rendered {
                    status: 500,
                    body: error_body(&e),
                }
            }
        };
        let built;
        let graph: &Graph = match arch {
            Arch::Zoo { name } => match convmeter_models::zoo::by_name(name) {
                Some(spec) => {
                    built = spec.build(req.image, 1000);
                    &built
                }
                None => {
                    return Rendered {
                        status: 500,
                        body: error_body(&format!("zoo spec '{name}' vanished after resolve")),
                    }
                }
            },
            Arch::Raw(graph) => graph,
        };
        let metrics = match ModelMetrics::of(graph) {
            Ok(m) => m,
            Err(e) => {
                return Rendered {
                    status: 500,
                    body: error_body(&format!("metric extraction failed: {e}")),
                }
            }
        };
        let batch_metrics = metrics.at_batch(req.batch);
        let forward_s = models.forward.predict_metrics(&metrics, req.batch);
        let bwd_grad_s = models.training.predict_bwd_grad(&batch_metrics, 1);
        let step_s = models.training.predict_step(&batch_metrics, 1);
        let epoch_s = models.training.predict_epoch(
            &metrics,
            req.dataset_size,
            req.batch,
            1,
            req.gpus_per_node,
        );
        let curve = throughput_vs_nodes(
            &models.training,
            &metrics,
            req.batch,
            &req.nodes,
            req.gpus_per_node,
        );
        let turning_point_nodes = turning_point(&curve, 0.05);
        let scaling = curve
            .iter()
            .map(|p| ScalePoint {
                nodes: p.nodes,
                devices: p.devices,
                step_s: p.step_time,
                images_per_sec: p.images_per_sec,
            })
            .collect();
        let bottlenecks =
            match convmeter::bottleneck_report(&models.forward, graph, &metrics, req.batch) {
                Ok(report) => report
                    .blocks
                    .iter()
                    .take(req.top_blocks)
                    .map(|b| BottleneckEntry {
                        block: b.block.clone(),
                        predicted_s: b.predicted,
                        share: b.share,
                    })
                    .collect(),
                // Architectures without registered block spans still get the
                // whole-model predictions; the ranking is best-effort.
                Err(_) => Vec::new(),
            };
        let response = PredictResponse {
            api_format: API_FORMAT,
            model: arch.display_name().to_string(),
            fingerprint: fingerprint.to_string(),
            device_fingerprint: device.fingerprint.clone(),
            image: req.image,
            batch: req.batch,
            forward_s,
            bwd_grad_s,
            step_s,
            epoch_s,
            scaling,
            turning_point_nodes,
            bottlenecks,
        };
        match serde_json::to_string_pretty(&response) {
            Ok(body) => Rendered { status: 200, body },
            Err(e) => Rendered {
                status: 500,
                body: error_body(&format!("response serialisation failed: {e}")),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_request(json: &str) -> PredictRequest {
        PredictRequest::from_json(json).unwrap()
    }

    /// Small request: tiny image + trimmed analysis keeps the test fast.
    const REQ: &str =
        r#"{"model": "resnet18", "image": 64, "batch": 8, "nodes": [1, 2], "top_blocks": 2}"#;

    #[test]
    fn predict_hits_cache_on_repeat() {
        let state = ServeState::new(&ServeConfig::default());
        let req = quick_request(REQ);
        let (first, outcome) = state.predict(&req).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(first.status, 200, "{}", first.body);
        let (second, outcome) = state.predict(&req).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = state.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.builds, 1);
    }

    #[test]
    fn predict_response_schema_is_complete() {
        let state = ServeState::new(&ServeConfig::default());
        let (r, _) = state.predict(&quick_request(REQ)).unwrap();
        let v = serde_json::parse(&r.body).unwrap();
        assert_eq!(
            v.get("api_format").and_then(serde_json::Value::as_u64),
            Some(1)
        );
        assert_eq!(
            v.get("model").and_then(serde_json::Value::as_str),
            Some("resnet18")
        );
        assert!(
            v.get("forward_s")
                .and_then(serde_json::Value::as_f64)
                .unwrap()
                > 0.0
        );
        assert!(v.get("step_s").and_then(serde_json::Value::as_f64).unwrap() > 0.0);
        assert!(
            v.get("epoch_s")
                .and_then(serde_json::Value::as_f64)
                .unwrap()
                > 0.0
        );
        assert_eq!(
            v.get("scaling")
                .and_then(serde_json::Value::as_array)
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            v.get("bottlenecks")
                .and_then(serde_json::Value::as_array)
                .unwrap()
                .len(),
            2
        );
        assert!(v
            .get("turning_point_nodes")
            .and_then(serde_json::Value::as_u64)
            .is_some());
    }

    #[test]
    fn device_aliases_resolve_once_to_their_canonical_profiles() {
        let state = ServeState::new(&ServeConfig::default());
        let gpu = DeviceProfile::a100_80gb();
        let cpu = DeviceProfile::xeon_gold_5318y_core();
        for (names, want) in [
            (["gpu", "a100"], gpu.clone()),
            (["cpu", "xeon"], cpu.clone()),
        ] {
            for (precisions, want) in [
                (["fp32", "fp32"], want.clone()),
                (["tf32", "tf32"], want.with_precision(Precision::Tf32)),
                (["fp16", "amp"], want.with_precision(Precision::Fp16)),
            ] {
                let first = state.resolve_device(names[0], precisions[0]).unwrap();
                let alias = state.resolve_device(names[1], precisions[1]).unwrap();
                assert!(std::ptr::eq(first, alias), "{names:?} {precisions:?}");
                assert_eq!(first.fingerprint, want.fingerprint());
            }
        }
        assert!(state.resolve_device("tpu", "fp32").is_err());
        assert!(state.resolve_device("gpu", "int8").is_err());
    }

    #[test]
    fn bad_requests_never_occupy_the_cache() {
        let state = ServeState::new(&ServeConfig::default());
        let unknown_model = quick_request(r#"{"model": "resnet999"}"#);
        assert!(state.predict(&unknown_model).is_err());
        let unknown_device = quick_request(r#"{"model": "resnet18", "device": "tpu"}"#);
        assert!(state.predict(&unknown_device).is_err());
        let too_small = quick_request(r#"{"model": "inception_v3", "image": 32}"#);
        assert!(state.predict(&too_small).is_err());
        let stats = state.cache_stats();
        assert_eq!(stats.misses + stats.hits + stats.coalesced, 0);
    }

    /// `graph` as a raw-graph `/predict` body.
    fn raw_body(graph: &Graph) -> String {
        let graph_json = serde_json::to_string(&serde_json::to_value(graph)).unwrap();
        format!(r#"{{"graph": {graph_json}, "image": 64, "batch": 8, "nodes": [1]}}"#)
    }

    fn body_field(body: &str, field: &str) -> String {
        let v = serde_json::parse(body).unwrap();
        v.get(field)
            .and_then(serde_json::Value::as_str)
            .unwrap()
            .to_string()
    }

    #[test]
    fn raw_graph_requests_predict_and_coalesce_with_structure() {
        let state = ServeState::new(&ServeConfig::default());
        // Serialise a zoo graph and submit it as a raw graph document.
        let mut graph = convmeter_models::zoo::by_name("vgg11")
            .unwrap()
            .build(64, 1000);
        let (r, outcome) = state.predict(&quick_request(&raw_body(&graph))).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(outcome, CacheOutcome::Miss);
        // The same architecture under the same name, by zoo name, shares
        // the entry.
        let by_name = quick_request(r#"{"model": "vgg11", "image": 64, "batch": 8, "nodes": [1]}"#);
        let (zoo, outcome) = state.predict(&by_name).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&r, &zoo));
        // Under another name it gets its own entry, with the same
        // structural fingerprint in the body.
        graph.set_name("vgg11_renamed");
        let (renamed, outcome) = state.predict(&quick_request(&raw_body(&graph))).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(body_field(&renamed.body, "model"), "vgg11_renamed");
        assert_eq!(
            body_field(&renamed.body, "fingerprint"),
            body_field(&zoo.body, "fingerprint")
        );
        assert_eq!(state.cache_stats().builds, 2);
    }

    #[test]
    fn renamed_graph_bodies_do_not_depend_on_cache_history() {
        let graph = convmeter_models::zoo::by_name("resnet18")
            .unwrap()
            .build(64, 1000);
        let named = |name: &str| {
            let mut copy = graph.clone();
            copy.set_name(name);
            quick_request(&raw_body(&copy))
        };
        let (a, b) = (named("net_a"), named("net_b"));
        let answer = |first: &PredictRequest, second: &PredictRequest| {
            let state = ServeState::new(&ServeConfig::default());
            let first = state.predict(first).unwrap().0;
            let second = state.predict(second).unwrap().0;
            (first.body.clone(), second.body.clone())
        };
        let (a_first, b_second) = answer(&a, &b);
        let (b_first, a_second) = answer(&b, &a);
        assert_eq!(body_field(&a_first, "model"), "net_a");
        assert_eq!(body_field(&b_first, "model"), "net_b");
        // Each body is the same whichever copy was asked first.
        assert_eq!(a_first, a_second);
        assert_eq!(b_first, b_second);
    }

    #[test]
    fn lru_evicts_least_recent_completed_entries() {
        let state = ServeState::new(&ServeConfig {
            disk_cache_dir: None,
            cache_capacity: 2,
        });
        let mk = |batch: usize| {
            quick_request(&format!(
                r#"{{"model": "resnet18", "image": 64, "batch": {batch}, "nodes": [1]}}"#
            ))
        };
        state.predict(&mk(1)).unwrap();
        state.predict(&mk(2)).unwrap();
        state.predict(&mk(4)).unwrap(); // evicts batch=1
        let (_, outcome) = state.predict(&mk(2)).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        let (_, outcome) = state.predict(&mk(1)).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss, "evicted entry must rebuild");
        assert_eq!(state.cache_stats().evictions, 2);
    }
}
