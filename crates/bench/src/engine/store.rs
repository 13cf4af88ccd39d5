//! Content-addressed dataset store.
//!
//! Every experiment declares the benchmark datasets it needs as
//! [`DatasetSpec`]s; the store builds each *distinct* spec exactly once per
//! process (memoised behind a `OnceLock`, so concurrent experiments block on
//! the first builder instead of duplicating the sweep) and persists the
//! result under `results/cache/<key>.json` so warm reruns skip simulation
//! entirely.
//!
//! Next to each dataset the store memoises its leave-one-model-out
//! evaluation the same way, per storage key: Table 1, Figure 3 and the
//! ablations share one inference evaluation per device, Table 2 and
//! Figure 4 share the block one, and Table 3 and Figures 5, 7, 8 and 9
//! share one training evaluation per sweep, including the model each fold
//! fitted. Evaluations stay in memory; they are cheap next to a sweep and
//! deterministic given the dataset.
//!
//! The cache key is a stable content hash over everything the dataset
//! depends on: the cache format version, the dataset kind, the device
//! profile, the sweep configuration, and the compiled fingerprint of every
//! `(model, image_size)` pair the sweep can touch (sourced from the
//! process-global compile cache the sweeps themselves use, so keying a
//! dataset costs no extra graph builds on a cold run and only the config's
//! own pairs — not the whole zoo — on a warm one). Changing any field of
//! any of those — a batch grid, a seed, a device efficiency, an
//! architecture edit to a referenced model — yields a different key and
//! triggers a rebuild; stale entries are simply never addressed again.

use crate::blocks::block_dataset;
use convmeter::dataset::{
    distributed_dataset_faulted, inference_dataset_faulted, training_dataset_faulted,
    InferencePoint, TrainingPoint,
};
use convmeter::persist;
use convmeter::prelude::*;
use convmeter_graph::StableHasher;
use convmeter_hwsim::{compile, FaultProfile, SweepError};
use convmeter_linalg::FitError;
use convmeter_metrics::obs;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use super::EngineError;

/// Bump when the persisted dataset layout (or the sweep semantics behind
/// it) changes incompatibly: old cache entries stop being addressed.
///
/// v2: graph fingerprints recomposed from per-node digests, and keys hash
/// per-config compiled-model fingerprints instead of the whole-zoo
/// fingerprint.
pub const CACHE_FORMAT: u32 = 2;

/// A benchmark dataset an experiment depends on, by content.
#[derive(Debug, Clone)]
pub enum DatasetSpec {
    /// Inference sweep on one device.
    Inference {
        /// Device to benchmark.
        device: DeviceProfile,
        /// Sweep grid.
        config: SweepConfig,
    },
    /// Single-device training sweep.
    Training {
        /// Device to benchmark.
        device: DeviceProfile,
        /// Sweep grid.
        config: SweepConfig,
    },
    /// Multi-node distributed-training sweep.
    Distributed {
        /// Per-device profile.
        device: DeviceProfile,
        /// Sweep grid including node counts.
        config: DistSweepConfig,
    },
    /// Block-level inference sweep over the Table 2 blocks.
    Blocks {
        /// Device to benchmark.
        device: DeviceProfile,
        /// Square image sizes.
        image_sizes: Vec<usize>,
        /// Batch sizes.
        batch_sizes: Vec<usize>,
        /// Noise seed.
        seed: u64,
    },
}

impl DatasetSpec {
    /// Short kind tag; doubles as the cache-key prefix.
    pub fn kind(&self) -> &'static str {
        match self {
            DatasetSpec::Inference { .. } => "inference",
            DatasetSpec::Training { .. } => "training",
            DatasetSpec::Distributed { .. } => "distributed",
            DatasetSpec::Blocks { .. } => "blocks",
        }
    }

    /// The content-addressed cache key: `<kind>-<digest>`.
    ///
    /// Instead of the whole-zoo fingerprint, the key hashes the compiled
    /// fingerprint of exactly the `(model, image_size)` pairs this spec's
    /// sweep can touch. Editing an unrelated zoo architecture no longer
    /// invalidates every cached dataset, and computing a key shares its
    /// graph builds with the sweep itself through the compile cache.
    /// Unknown or unsupported pairs hash a typed marker — the key stays
    /// infallible, and the build step reports the real error.
    pub fn key(&self) -> String {
        let mut h = StableHasher::new();
        h.update_str("convmeter-dataset-cache");
        h.update(&CACHE_FORMAT.to_le_bytes());
        h.update_str(self.kind());
        match self {
            DatasetSpec::Inference { device, config }
            | DatasetSpec::Training { device, config } => {
                h.update_str(&device.fingerprint());
                h.update_str(&config.fingerprint());
                Self::hash_model_grid(&mut h, &config.models, &config.image_sizes);
            }
            DatasetSpec::Distributed { device, config } => {
                h.update_str(&device.fingerprint());
                h.update_str(&config.fingerprint());
                Self::hash_model_grid(&mut h, &config.models, &config.image_sizes);
            }
            DatasetSpec::Blocks {
                device,
                image_sizes,
                batch_sizes,
                seed,
            } => {
                h.update_str(&device.fingerprint());
                // Length-prefix the lists so their boundary is unambiguous.
                h.update(&(image_sizes.len() as u64).to_le_bytes());
                for &s in image_sizes {
                    h.update(&(s as u64).to_le_bytes());
                }
                h.update(&(batch_sizes.len() as u64).to_le_bytes());
                for &b in batch_sizes {
                    h.update(&(b as u64).to_le_bytes());
                }
                h.update(&seed.to_le_bytes());
                // Block datasets cut their graphs out of the Table 2 parent
                // models; hash those parents' compiled fingerprints.
                let parents: Vec<String> = crate::blocks::TABLE2_BLOCKS
                    .iter()
                    .map(|&(_, model)| model.to_string())
                    .collect();
                Self::hash_model_grid(&mut h, &parents, image_sizes);
            }
        }
        format!("{}-{}", self.kind(), h.short_digest())
    }

    /// Hash the compiled fingerprint of every `(model, image_size)` pair in
    /// the grid, in grid order, with typed markers for pairs that cannot
    /// compile (the sweep build will surface the real error).
    fn hash_model_grid(h: &mut StableHasher, models: &[String], image_sizes: &[usize]) {
        for name in models {
            for &size in image_sizes {
                h.update_str(name);
                h.update(&(size as u64).to_le_bytes());
                match compile::compiled(name, size) {
                    Ok(Some(cm)) => h.update_str(&cm.fingerprint),
                    Ok(None) => h.update_str("!unsupported"),
                    Err(_) => h.update_str("!unbuildable"),
                }
            }
        }
    }

    fn is_inference_like(&self) -> bool {
        matches!(
            self,
            DatasetSpec::Inference { .. } | DatasetSpec::Blocks { .. }
        )
    }
}

/// Per-dataset accounting, reported in `results/manifest.json`. A healthy
/// run shows `builds + disk_hits == 1` for every key, with every further
/// request landing as a memory hit.
#[derive(Debug, Clone, Default, Serialize)]
pub struct DatasetStats {
    /// Dataset kind (`inference`, `training`, `distributed`, `blocks`).
    pub kind: String,
    /// Number of points in the dataset.
    pub points: usize,
    /// Times the sweep simulation actually ran this process (0 or 1).
    pub builds: usize,
    /// Times the dataset was loaded from the on-disk cache.
    pub disk_hits: usize,
    /// Requests served from the in-process memo.
    pub memory_hits: usize,
    /// Wall time spent building (simulating), seconds; 0 when cached.
    pub build_seconds: f64,
}

enum FetchOutcome {
    Built(f64),
    Disk,
    Memory,
}

type SlotMap<P> = Mutex<BTreeMap<String, Arc<OnceLock<Arc<Vec<P>>>>>>;

/// Evaluation memo: a failed fit is memoised too, so every requester of a
/// key sees the same typed error.
type EvalSlotMap<E> = Mutex<BTreeMap<String, Arc<OnceLock<Result<Arc<E>, FitError>>>>>;

/// Builds, memoises, and persists benchmark datasets addressed by content.
pub struct DatasetStore {
    disk_dir: Option<PathBuf>,
    /// Fault-injection profile applied to every sweep build; `None` (or an
    /// all-off profile) leaves the store byte-identical to a clean run.
    faults: Option<FaultProfile>,
    inference: SlotMap<InferencePoint>,
    training: SlotMap<TrainingPoint>,
    inference_evals: EvalSlotMap<InferenceEvaluation>,
    training_evals: EvalSlotMap<TrainingEvaluation>,
    /// Leave-one-model-out evaluations actually computed (memo misses).
    evaluations: AtomicUsize,
    stats: Mutex<BTreeMap<String, DatasetStats>>,
}

impl DatasetStore {
    /// Create a store; `disk_dir` is the persistent cache directory, or
    /// `None` to keep everything in memory (`--no-cache`).
    pub fn new(disk_dir: Option<PathBuf>) -> Self {
        Self::with_faults(disk_dir, None)
    }

    /// Create a store whose sweep builds run under a fault-injection
    /// profile. Faulted datasets are cached under a *salted* storage key
    /// (`<key>-faults-<fingerprint>`), so clean cache entries are never
    /// contaminated and a clean rerun finds its entries untouched.
    pub fn with_faults(disk_dir: Option<PathBuf>, faults: Option<FaultProfile>) -> Self {
        DatasetStore {
            disk_dir,
            faults: faults.filter(|f| !f.is_off()),
            inference: Mutex::new(BTreeMap::new()),
            training: Mutex::new(BTreeMap::new()),
            inference_evals: Mutex::new(BTreeMap::new()),
            training_evals: Mutex::new(BTreeMap::new()),
            evaluations: AtomicUsize::new(0),
            stats: Mutex::new(BTreeMap::new()),
        }
    }

    /// The storage/accounting key for a spec under this store's fault
    /// profile: the plain content key, salted with the profile fingerprint
    /// when fault injection is active.
    pub fn storage_key(&self, spec: &DatasetSpec) -> String {
        let key = spec.key();
        match &self.faults {
            Some(f) => {
                let fp = f.fingerprint();
                format!("{key}-faults-{}", &fp[..12.min(fp.len())])
            }
            None => key,
        }
    }

    /// Resolve an inference-like dataset (`Inference` or `Blocks`).
    pub fn inference(&self, spec: &DatasetSpec) -> Result<Arc<Vec<InferencePoint>>, EngineError> {
        if !spec.is_inference_like() {
            return Err(EngineError::WrongKind {
                key: spec.key(),
                expected: "inference",
            });
        }
        let faults = self.faults.clone().unwrap_or_else(FaultProfile::disabled);
        self.fetch(
            &self.inference,
            spec,
            |path: &Path| persist::load_inference_dataset(path),
            |path, data| persist::save_inference_dataset(path, data),
            || match spec {
                DatasetSpec::Inference { device, config } => {
                    inference_dataset_faulted(device, config, &faults)
                }
                // Block extraction sweeps stay unfaulted: they exercise the
                // Table 2 decomposition machinery, not the fault model.
                DatasetSpec::Blocks {
                    device,
                    image_sizes,
                    batch_sizes,
                    seed,
                } => Ok(block_dataset(device, image_sizes, batch_sizes, *seed)),
                // analyzer:allow(CA0004, reason = "the outer match arm admits only scalar dataset kinds here")
                _ => unreachable!("kind checked above"),
            },
            |points| points.iter().map(|p| p.measured).collect(),
        )
    }

    /// Resolve a training-like dataset (`Training` or `Distributed`).
    pub fn training(&self, spec: &DatasetSpec) -> Result<Arc<Vec<TrainingPoint>>, EngineError> {
        if spec.is_inference_like() {
            return Err(EngineError::WrongKind {
                key: spec.key(),
                expected: "training",
            });
        }
        let faults = self.faults.clone().unwrap_or_else(FaultProfile::disabled);
        self.fetch(
            &self.training,
            spec,
            |path: &Path| persist::load_training_dataset(path),
            |path, data| persist::save_training_dataset(path, data),
            || match spec {
                DatasetSpec::Training { device, config } => {
                    training_dataset_faulted(device, config, &faults)
                }
                DatasetSpec::Distributed { device, config } => {
                    distributed_dataset_faulted(device, config, &faults)
                }
                // analyzer:allow(CA0004, reason = "the outer match arm admits only triple dataset kinds here")
                _ => unreachable!("kind checked above"),
            },
            |points| points.iter().flat_map(|p| [p.fwd, p.bwd, p.grad]).collect(),
        )
    }

    /// The leave-one-model-out evaluation of an inference-like dataset,
    /// computed once per storage key.
    pub fn inference_evaluation(
        &self,
        spec: &DatasetSpec,
    ) -> Result<Arc<InferenceEvaluation>, EngineError> {
        let data = self.inference(spec)?;
        self.evaluate(&self.inference_evals, spec, || {
            convmeter::leave_one_model_out_inference(&data)
        })
    }

    /// The leave-one-model-out evaluation of a training-like dataset, with
    /// each fold's fitted model, computed once per storage key.
    pub fn training_evaluation(
        &self,
        spec: &DatasetSpec,
    ) -> Result<Arc<TrainingEvaluation>, EngineError> {
        let data = self.training(spec)?;
        self.evaluate(&self.training_evals, spec, || {
            convmeter::leave_one_model_out_training_folds(&data)
        })
    }

    /// For each of `models`, the training model fitted with it held out:
    /// that fold of [`DatasetStore::training_evaluation`]. A model the
    /// dataset does not contain has no fold and is an
    /// [`EngineError::MissingFold`].
    pub fn held_out_training_models(
        &self,
        spec: &DatasetSpec,
        models: &[&str],
    ) -> Result<Vec<TrainingModel>, EngineError> {
        let eval = self.training_evaluation(spec)?;
        models
            .iter()
            .map(|&model| {
                eval.held_out(model)
                    .cloned()
                    .ok_or_else(|| EngineError::MissingFold {
                        key: self.storage_key(spec),
                        model: model.to_string(),
                    })
            })
            .collect()
    }

    /// How many leave-one-model-out evaluations this store has computed;
    /// every further request was a memo hit.
    pub fn evaluations(&self) -> usize {
        self.evaluations.load(Ordering::Relaxed)
    }

    fn evaluate<E>(
        &self,
        slots: &EvalSlotMap<E>,
        spec: &DatasetSpec,
        compute: impl FnOnce() -> Result<E, FitError>,
    ) -> Result<Arc<E>, EngineError> {
        let key = self.storage_key(spec);
        let slot = slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(key.clone())
            .or_default()
            .clone();
        // As for datasets, `get_or_init` blocks concurrent requesters of
        // one key until the first evaluation finishes.
        slot.get_or_init(|| {
            self.evaluations.fetch_add(1, Ordering::Relaxed);
            compute().map(Arc::new)
        })
        .clone()
        .map_err(|source| EngineError::Fit { key, source })
    }

    /// Snapshot of per-dataset accounting, keyed by storage key.
    pub fn stats(&self) -> BTreeMap<String, DatasetStats> {
        self.stats
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    fn cache_path(&self, key: &str) -> Option<PathBuf> {
        let dir = self.disk_dir.as_ref()?;
        Some(dir.join(format!("{key}.json")))
    }

    /// `CM0104` validation: reject empty datasets and non-finite or
    /// non-positive measured times with a typed [`EngineError::BadDataset`].
    fn validate(key: &str, times: &[f64]) -> Result<(), EngineError> {
        let report = convmeter::lint_measured_times(key, times);
        if report.has_errors() {
            return Err(EngineError::BadDataset {
                key: key.to_string(),
                problem: report
                    .diagnostics
                    .iter()
                    .map(|d| format!("{}: {}", d.code, d.message))
                    .collect::<Vec<_>>()
                    .join("; "),
            });
        }
        Ok(())
    }

    fn fetch<P>(
        &self,
        slots: &SlotMap<P>,
        spec: &DatasetSpec,
        load: impl Fn(&Path) -> Result<Vec<P>, persist::PersistError>,
        save: impl Fn(&Path, &[P]) -> Result<(), persist::PersistError>,
        build: impl FnOnce() -> Result<Vec<P>, SweepError>,
        times: impl Fn(&[P]) -> Vec<f64>,
    ) -> Result<Arc<Vec<P>>, EngineError> {
        let key = self.storage_key(spec);
        let slot = slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(key.clone())
            .or_default()
            .clone();
        // `get_or_init` blocks concurrent initialisers, so even when several
        // experiments request the same dataset in parallel the sweep runs
        // exactly once per process.
        let mut outcome = FetchOutcome::Memory;
        // `OnceLock::get_or_init` cannot fail, so a failed sweep is smuggled
        // out through this slot: the cell memoises an empty dataset (never
        // persisted), the first caller gets the typed `Sweep` error below,
        // and every later caller of the same key fails the CM0104
        // empty-dataset validation deterministically.
        let mut build_err: Option<SweepError> = None;
        let value = slot
            .get_or_init(|| {
                if let Some(path) = self.cache_path(&key) {
                    if path.exists() {
                        // Checksum-validated load: corruption (including a
                        // truncated write or flipped payload byte) and
                        // CM0104-invalid contents both fall through to a
                        // rebuild instead of poisoning the run.
                        match load(&path) {
                            Ok(points) => {
                                if let Err(e) = Self::validate(&key, &times(&points)) {
                                    eprintln!(
                                        "warning: rebuilding {key}: invalid cache entry {}: {e}",
                                        path.display()
                                    );
                                } else {
                                    outcome = FetchOutcome::Disk;
                                    return Arc::new(points);
                                }
                            }
                            Err(e) => eprintln!(
                                "warning: rebuilding {key}: unreadable cache entry {}: {e}",
                                path.display()
                            ),
                        }
                    }
                }
                let _span = obs::span!("engine.dataset.build");
                let started = obs::clock::now();
                let points = match build() {
                    Ok(points) => points,
                    Err(e) => {
                        build_err = Some(e);
                        Vec::new()
                    }
                };
                let elapsed = started.elapsed();
                obs::histogram!("engine.store.build_us").record_duration_us(elapsed);
                outcome = FetchOutcome::Built(elapsed.as_secs_f64());
                if build_err.is_some() {
                    return Arc::new(points);
                }
                if let Some(path) = self.cache_path(&key) {
                    // A failed cache write costs the next run a rebuild but
                    // must not fail this one; artefact writes are the ones
                    // that abort the engine.
                    if let Err(e) = path
                        .parent()
                        .map_or(Ok(()), std::fs::create_dir_all)
                        .map_err(persist::PersistError::from)
                        .and_then(|()| save(&path, &points))
                    {
                        eprintln!(
                            "warning: could not persist {key} to {}: {e}",
                            path.display()
                        );
                    }
                }
                Arc::new(points)
            })
            .clone();
        {
            let mut stats = self
                .stats
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let entry = stats.entry(key.clone()).or_default();
            entry.kind = spec.kind().to_string();
            entry.points = value.len();
            match outcome {
                FetchOutcome::Built(secs) => {
                    entry.builds += 1;
                    entry.build_seconds += secs;
                }
                FetchOutcome::Disk => entry.disk_hits += 1,
                FetchOutcome::Memory => entry.memory_hits += 1,
            }
        }
        // Process-wide counters go through the telemetry registry, which
        // takes its own mutex on first intern — keep that outside the
        // per-store stats lock above.
        match outcome {
            FetchOutcome::Built(_) => obs::counter!("engine.store.builds").inc(),
            FetchOutcome::Disk => obs::counter!("engine.store.disk_hits").inc(),
            FetchOutcome::Memory => obs::counter!("engine.store.memory_hits").inc(),
        }
        if let Some(source) = build_err {
            return Err(EngineError::Sweep { key, source });
        }
        // Built (and memoised) datasets are validated on every fetch: the
        // check is a linear scan, and re-erroring on each request keeps a
        // bad dataset's failure deterministic for every dependent
        // experiment.
        Self::validate(&key, &times(&value))?;
        Ok(value)
    }
}
