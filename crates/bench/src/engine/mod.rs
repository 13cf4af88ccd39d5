//! The unified experiment engine.
//!
//! Every paper artefact (tables, figures, ablations, extensions) is one
//! [`Experiment`] in a typed [`registry`](mod@registry). The engine resolves each
//! experiment's dataset dependencies through a shared content-addressed
//! [`DatasetStore`] — so the expensive benchmark sweeps run exactly once per
//! distinct configuration, in-process and across processes — executes
//! independent experiments in parallel with deterministic output ordering,
//! writes every artefact under the results directory, and records the whole
//! run in `results/manifest.json`.
//!
//! ```text
//! registry() ──▶ Engine::run ──▶ [worker pool] ──▶ Experiment::run(ctx)
//!                                      │                  │
//!                                      │                  ▼
//!                                      │           DatasetStore (memo + disk cache)
//!                                      ▼
//!                     artefact JSON + rendered tables + manifest.json
//! ```

mod attempt;
pub mod registry;
pub mod store;

/// The ordered thread pool, re-exported from its own crate
/// (`convmeter-pool`) now that the simulators share it for intra-build
/// sweep parallelism. The `engine::pool` path is kept so the loom suite
/// and downstream callers are unaffected by the move.
pub use convmeter_pool as pool;

pub use attempt::{AttemptKind, AttemptRecord, BACKOFF_BASE_MS};
pub use registry::registry;
pub use store::{DatasetSpec, DatasetStats, DatasetStore, CACHE_FORMAT};

use convmeter::dataset::{InferencePoint, TrainingPoint};
use convmeter::persist;
use convmeter_hwsim::FaultProfile;
use convmeter_metrics::obs;
use serde::Serialize;
use serde_json::Key;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Errors the engine can surface. All artefact-write failures abort the run
/// with a non-zero exit; cache problems only warn (see [`store`]).
#[derive(Debug)]
pub enum EngineError {
    /// Filesystem failure while writing an artefact or the manifest.
    Io {
        /// What was being written.
        context: String,
        /// Underlying error.
        source: std::io::Error,
    },
    /// A dataset spec of the wrong kind was requested from a typed getter.
    WrongKind {
        /// The offending spec's cache key.
        key: String,
        /// The getter's expected kind family.
        expected: &'static str,
    },
    /// `--only` named an experiment that is not in the registry.
    UnknownExperiment {
        /// The unmatched name.
        name: String,
    },
    /// An experiment panicked on its final attempt. The attempt policy
    /// catches the unwind so one bad experiment fails the run with a real
    /// error instead of tearing the process down mid-write.
    ExperimentPanicked {
        /// Registry name of the panicking experiment.
        name: String,
        /// Rendered panic payload.
        message: String,
    },
    /// An experiment exceeded the watchdog timeout and was abandoned.
    TimedOut {
        /// Registry name of the experiment.
        name: String,
        /// The watchdog budget that was exceeded, seconds.
        seconds: u64,
    },
    /// A benchmark dataset failed `CM0104` validation: empty, or containing
    /// non-finite / non-positive measured times.
    BadDataset {
        /// Storage key of the offending dataset.
        key: String,
        /// What the lint found.
        problem: String,
    },
    /// A sweep could not run (unknown model, failed lint, extraction
    /// failure, or a sweep worker panic).
    Sweep {
        /// Storage key of the dataset whose build failed.
        key: String,
        /// The underlying sweep error.
        source: convmeter_hwsim::SweepError,
    },
    /// A leave-one-model-out evaluation could not fit one of its folds.
    Fit {
        /// Storage key of the evaluated dataset.
        key: String,
        /// The underlying fit error.
        source: convmeter_linalg::FitError,
    },
    /// A held-out model was requested for a ConvNet the dataset does not
    /// contain, so no fold left it out.
    MissingFold {
        /// Storage key of the evaluated dataset.
        key: String,
        /// The requested ConvNet.
        model: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Io { context, source } => write!(f, "writing {context}: {source}"),
            EngineError::WrongKind { key, expected } => {
                write!(f, "dataset {key} requested through the {expected} getter")
            }
            EngineError::UnknownExperiment { name } => {
                write!(
                    f,
                    "unknown experiment '{name}' (run with --list to see the registry)"
                )
            }
            EngineError::ExperimentPanicked { name, message } => {
                write!(f, "experiment '{name}' panicked: {message}")
            }
            EngineError::TimedOut { name, seconds } => {
                write!(f, "experiment '{name}' timed out after {seconds}s")
            }
            EngineError::BadDataset { key, problem } => {
                write!(f, "dataset {key} failed validation: {problem}")
            }
            EngineError::Sweep { key, source } => {
                write!(f, "dataset {key} could not be built: {source}")
            }
            EngineError::Fit { key, source } => {
                write!(
                    f,
                    "leave-one-model-out evaluation of {key} failed: {source}"
                )
            }
            EngineError::MissingFold { key, model } => {
                write!(f, "dataset {key} has no points of '{model}' to hold out")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Io { source, .. } => Some(source),
            EngineError::Sweep { source, .. } => Some(source),
            EngineError::Fit { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// What an experiment hands back: JSON artefacts plus the rendered text
/// tables that used to go straight to stdout.
pub struct RunOutput {
    /// Artefacts to write as `results/<name>.json`.
    pub artifacts: Vec<Artifact>,
    /// Human-readable rendering, printed after the run in registry order.
    pub rendered: String,
}

/// One named JSON artefact, already rendered.
pub struct Artifact {
    /// File stem under the results directory.
    pub name: String,
    /// Pretty-printed JSON, exactly the bytes written to disk.
    json: String,
    /// [`convmeter_graph::stable_digest`] of `json`.
    hash: String,
}

impl Artifact {
    /// Render and digest an artefact from any serialisable result. This
    /// runs inside the experiment's own job, so the value tree is dropped
    /// here and [`Engine::run`] only writes text.
    pub fn json<T: Serialize>(name: &str, value: &T) -> Self {
        let json = serde_json::to_string_pretty(value)
            // analyzer:allow(CA0004, reason = "artefact values are plain data; canonical JSON serialisation cannot fail")
            .expect("artefact values serialise");
        Artifact {
            name: name.to_string(),
            hash: convmeter_graph::stable_digest(&json),
            json,
        }
    }
}

/// Shared run state handed to every experiment.
pub struct RunContext<'a> {
    /// The dataset store for this run.
    pub store: &'a DatasetStore,
}

impl RunContext<'_> {
    /// Resolve an inference-like dataset dependency.
    pub fn inference(&self, spec: &DatasetSpec) -> Result<Arc<Vec<InferencePoint>>, EngineError> {
        self.store.inference(spec)
    }

    /// Resolve a training-like dataset dependency.
    pub fn training(&self, spec: &DatasetSpec) -> Result<Arc<Vec<TrainingPoint>>, EngineError> {
        self.store.training(spec)
    }
}

/// One reproducible paper artefact (a table, figure, or study).
pub trait Experiment: Sync {
    /// Stable registry name (`table1`, `fig3`, `ablations`, ...).
    fn name(&self) -> &'static str;
    /// One-line human description.
    fn title(&self) -> &'static str;
    /// File stems of the JSON artefacts this experiment writes.
    fn artifacts(&self) -> &'static [&'static str];
    /// The benchmark datasets this experiment reads.
    fn deps(&self) -> Vec<DatasetSpec>;
    /// Compute the artefacts. Datasets are fetched through `ctx`, which
    /// deduplicates and caches them across the whole run.
    fn run(&self, ctx: &RunContext<'_>) -> Result<RunOutput, EngineError>;
}

/// Fault-tolerance policy for a run. The default is the no-op policy: one
/// inline attempt per experiment, and the first failure aborts the run.
#[derive(Debug, Clone, Default)]
pub struct FaultToleranceConfig {
    /// Quarantine failing experiments (record them in the manifest and keep
    /// going) instead of aborting the run on the first failure.
    pub keep_going: bool,
    /// Retries per experiment after the first attempt.
    pub retries: usize,
    /// Per-attempt watchdog timeout, seconds. `None` disables the watchdog.
    pub timeout_secs: Option<u64>,
    /// Deterministic fault-injection profile threaded into every sweep
    /// build, or `None` for clean simulation.
    pub faults: Option<FaultProfile>,
}

impl FaultToleranceConfig {
    /// True when anything fault-tolerance-related is on (keep-going,
    /// retries, the watchdog or fault injection); drives the manifest's
    /// format-version bump.
    pub fn active(&self) -> bool {
        self.keep_going
            || self.retries > 0
            || self.timeout_secs.is_some()
            || self.faults.as_ref().is_some_and(|f| !f.is_off())
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum experiments in flight at once.
    pub jobs: usize,
    /// Persist datasets under `<results_dir>/cache/` and reuse them.
    pub use_disk_cache: bool,
    /// Where artefacts, the manifest, and the cache live.
    pub results_dir: PathBuf,
    /// Fault-tolerance policy (all off by default).
    pub fault: FaultToleranceConfig,
}

impl EngineConfig {
    /// Default configuration: results under `$CONVMETER_RESULTS` (or
    /// `./results`), disk cache on, one job per available core, fault
    /// tolerance off.
    pub fn from_env() -> Self {
        EngineConfig {
            jobs: default_jobs(),
            use_disk_cache: true,
            results_dir: crate::report::results_dir(),
            fault: FaultToleranceConfig::default(),
        }
    }
}

/// Default worker count: one job per core the scheduler will actually give
/// us ([`std::thread::available_parallelism`], which respects cgroup quotas
/// and affinity masks), falling back to 1 when that cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Record of one written artefact file.
#[derive(Debug, Clone, Serialize)]
pub struct ArtifactRecord {
    /// Artefact name (file stem).
    pub name: String,
    /// Path the JSON was written to.
    pub path: String,
    /// Stable content digest of the JSON bytes.
    pub hash: String,
    /// File size in bytes.
    pub bytes: usize,
}

/// One aggregated span path inside an experiment, for the manifest.
#[derive(Debug, Clone, Serialize)]
pub struct SpanSummary {
    /// `/`-joined span path relative to the experiment's root span.
    pub name: String,
    /// Completions of this exact path.
    pub count: u64,
    /// Summed wall time, milliseconds.
    pub total_ms: f64,
}

/// Flatten the subtree under `experiment:<name>` into `/`-joined
/// [`SpanSummary`] rows (the experiment's own root span included, as `""`
/// would be unhelpful — it appears under its full `experiment:<name>`).
fn experiment_spans(tree: &obs::SpanAgg, name: &str) -> Vec<SpanSummary> {
    fn walk(prefix: &str, agg: &obs::SpanAgg, out: &mut Vec<SpanSummary>) {
        for (child_name, child) in &agg.children {
            // analyzer:allow(CP0001, reason = "each SpanSummary row owns its /-joined path; built once per distinct span path when a run is summarised")
            let path = format!("{prefix}/{child_name}");
            out.push(SpanSummary {
                // analyzer:allow(CP0002, reason = "the path string is also the recursion prefix below; one copy per emitted row")
                name: path.clone(),
                count: child.count,
                total_ms: child.total.as_secs_f64() * 1e3,
            });
            walk(&path, child, out);
        }
    }
    let label = format!("experiment:{name}");
    let mut out = Vec::new();
    if let Some(node) = tree.find(&label) {
        out.push(SpanSummary {
            name: label.clone(),
            count: node.count,
            total_ms: node.total.as_secs_f64() * 1e3,
        });
        walk(&label, node, &mut out);
    }
    out
}

/// Record of one executed experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentRecord {
    /// Registry name.
    pub name: String,
    /// Human title.
    pub title: String,
    /// Wall time of `Experiment::run`, seconds.
    pub wall_seconds: f64,
    /// Written artefacts.
    pub artifacts: Vec<ArtifactRecord>,
    /// Aggregated spans observed while this experiment ran (empty when the
    /// run happened outside an observability session).
    pub spans: Vec<SpanSummary>,
}

/// Manifest schema version for clean runs. History: 1 = initial engine
/// manifest; 2 = added per-experiment `spans` summaries; 3 =
/// [`MANIFEST_FORMAT_FAULTS`], emitted only when fault tolerance is active,
/// appending the fault/quarantine fields.
pub const MANIFEST_FORMAT: u32 = 2;

/// Manifest schema version when fault injection or quarantine was active
/// (or any experiment failed): v2 plus `fault_profile`, `keep_going`,
/// `retries`, `timeout_secs`, and `failures`.
pub const MANIFEST_FORMAT_FAULTS: u32 = 3;

/// Record of one quarantined (failed) experiment in a `--keep-going` run.
#[derive(Debug, Clone, Serialize)]
pub struct FailureRecord {
    /// Registry name.
    pub name: String,
    /// Human title.
    pub title: String,
    /// Rendered error chain of the final attempt.
    pub error: String,
    /// Every failed attempt: number, kind, error, elapsed, backoff.
    pub attempts: Vec<AttemptRecord>,
    /// Total wall time spent on this experiment across attempts, seconds.
    pub elapsed_seconds: f64,
}

/// The whole run, written to `results/manifest.json`.
///
/// Serialisation is hand-written: a clean run must stay byte-identical to
/// the pre-fault-tolerance v2 manifest, so the v3 fields are emitted only
/// when `format_version` is [`MANIFEST_FORMAT_FAULTS`].
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Manifest schema version ([`MANIFEST_FORMAT`] or
    /// [`MANIFEST_FORMAT_FAULTS`]).
    pub format_version: u32,
    /// Worker threads used.
    pub jobs: usize,
    /// Whether the on-disk dataset cache was enabled.
    pub disk_cache: bool,
    /// Per-experiment records, in registry order.
    pub experiments: Vec<ExperimentRecord>,
    /// Per-dataset accounting, keyed by cache key.
    pub datasets: std::collections::BTreeMap<String, DatasetStats>,
    /// Fault-injection profile the run used (v3 only; `None` = clean).
    pub fault_profile: Option<FaultProfile>,
    /// Whether quarantine (`--keep-going`) was requested (v3 only).
    pub keep_going: bool,
    /// Retry budget per experiment (v3 only).
    pub retries: usize,
    /// Watchdog budget per attempt, seconds (v3 only).
    pub timeout_secs: Option<u64>,
    /// Quarantined experiments, in registry order (v3 only).
    pub failures: Vec<FailureRecord>,
}

impl Serialize for Manifest {
    fn to_value(&self) -> serde_json::Value {
        // Mirrors what `derive(Serialize)` emitted for the v2 struct —
        // field order included — then appends the v3 fields only when this
        // manifest actually used fault tolerance.
        let mut pairs = vec![
            (Key::from("format_version"), self.format_version.to_value()),
            (Key::from("jobs"), self.jobs.to_value()),
            (Key::from("disk_cache"), self.disk_cache.to_value()),
            (Key::from("experiments"), self.experiments.to_value()),
            (Key::from("datasets"), self.datasets.to_value()),
        ];
        if self.format_version >= MANIFEST_FORMAT_FAULTS {
            pairs.push((Key::from("fault_profile"), self.fault_profile.to_value()));
            pairs.push((Key::from("keep_going"), self.keep_going.to_value()));
            pairs.push((Key::from("retries"), self.retries.to_value()));
            pairs.push((Key::from("timeout_secs"), self.timeout_secs.to_value()));
            pairs.push((Key::from("failures"), self.failures.to_value()));
        }
        serde_json::Value::Object(pairs)
    }
}

impl Manifest {
    /// Total dataset builds across the run.
    pub fn total_builds(&self) -> usize {
        self.datasets.values().map(|s| s.builds).sum()
    }

    /// Total disk-cache hits across the run.
    pub fn total_disk_hits(&self) -> usize {
        self.datasets.values().map(|s| s.disk_hits).sum()
    }

    /// Total in-memory hits across the run.
    pub fn total_memory_hits(&self) -> usize {
        self.datasets.values().map(|s| s.memory_hits).sum()
    }
}

/// The outcome of [`Engine::run`].
pub struct EngineReport {
    /// The manifest that was written.
    pub manifest: Manifest,
    /// `(experiment name, rendered text)` in execution (registry) order.
    pub rendered: Vec<(String, String)>,
}

/// Runs a set of experiments against a shared dataset store.
///
/// Experiments are `'static` references (registry experiments are
/// `static` unit structs; ad-hoc experiments const-promote) because a
/// watchdogged attempt runs on a detached thread, which cannot borrow from
/// the caller's stack.
pub struct Engine {
    experiments: Vec<&'static dyn Experiment>,
    config: EngineConfig,
}

impl Engine {
    /// Build an engine over an explicit experiment list.
    pub fn new(experiments: Vec<&'static dyn Experiment>, config: EngineConfig) -> Self {
        Engine {
            experiments,
            config,
        }
    }

    /// Build an engine over the registry experiments named in `names`
    /// (registry order, not argument order). Unknown names error.
    pub fn select(names: &[&str], config: EngineConfig) -> Result<Engine, EngineError> {
        for &n in names {
            if !registry().iter().any(|e| e.name() == n) {
                return Err(EngineError::UnknownExperiment { name: n.into() });
            }
        }
        let experiments: Vec<&'static dyn Experiment> = registry()
            .iter()
            .copied()
            .filter(|e| names.contains(&e.name()))
            .collect();
        Ok(Engine {
            experiments,
            config,
        })
    }

    /// An engine over the full registry.
    pub fn all(config: EngineConfig) -> Engine {
        Engine {
            experiments: registry().to_vec(),
            config,
        }
    }

    /// Run every experiment, write artefacts and the manifest, and return
    /// the report. Output ordering is deterministic (registry order)
    /// regardless of the parallel schedule; progress goes to stderr.
    ///
    /// The run happens inside an observability session (joining an
    /// enclosing one, e.g. `convmeter profile`'s, when the caller already
    /// holds it): every experiment executes under a `experiment:<name>`
    /// span, and the aggregated span tree per experiment lands in the
    /// manifest's [`ExperimentRecord::spans`].
    pub fn run(&self) -> Result<EngineReport, EngineError> {
        let session = obs::Session::begin();
        // Sweep-point evaluation inside a single dataset build fans out over
        // the same ordered pool as the experiments themselves. Per-point
        // seeding is scheduling-invariant and `run_ordered` preserves item
        // order, so artefacts stay byte-identical at any job count (pinned
        // by the determinism tests).
        convmeter_hwsim::set_sweep_jobs(self.config.jobs);
        let store = Arc::new(DatasetStore::with_faults(
            self.config
                .use_disk_cache
                .then(|| self.config.results_dir.join("cache")),
            self.config.fault.faults.clone(),
        ));
        let total = self.experiments.len();
        let fault = &self.config.fault;
        let completed = AtomicUsize::new(0);
        let mut outcomes = {
            // Scope the engine span so sequential (jobs = 1) experiment
            // spans flush to the sink before we snapshot for the manifest.
            let _engine_span = obs::span!("engine.run");
            pool::run_ordered(&self.experiments, self.config.jobs, |_, &exp| {
                let outcome = attempt::run(exp, &store, fault.retries, fault.timeout_secs);
                let k = completed.fetch_add(1, Ordering::Relaxed) + 1;
                let secs = outcome.elapsed_seconds;
                match &outcome.result {
                    Ok(_) => eprintln!("[{k}/{total}] {} done ({secs:.1}s)", exp.name()),
                    Err(e) => eprintln!("[{k}/{total}] {} FAILED ({secs:.1}s): {e}", exp.name()),
                }
                outcome
            })
            .map_err(|p| EngineError::ExperimentPanicked {
                name: self.experiments[p.index].name().to_string(),
                message: p.message,
            })?
        };
        // Without `--keep-going` the first failure in registry order aborts
        // the run with its typed error, before anything is written.
        if !fault.keep_going {
            if let Some(i) = outcomes.iter().position(|o| o.result.is_err()) {
                outcomes.swap_remove(i).result?;
            }
        }
        let span_tree = session.span_snapshot();

        std::fs::create_dir_all(&self.config.results_dir).map_err(|source| EngineError::Io {
            context: format!("results directory {}", self.config.results_dir.display()),
            source,
        })?;
        let mut records = Vec::with_capacity(total);
        let mut rendered = Vec::with_capacity(total);
        // analyzer:allow(CP0004, reason = "almost always stays empty; the failure count is unknowable up front and sizing it to `total` pessimises the common case")
        let mut failures = Vec::new();
        for (exp, outcome) in self.experiments.iter().zip(outcomes) {
            let Ok(output) = outcome.result else {
                failures.push(FailureRecord {
                    // analyzer:allow(CP0001, reason = "one owned failure record per failed experiment; negligible next to the seconds the attempt ran")
                    name: exp.name().to_string(),
                    // analyzer:allow(CP0001, reason = "one owned failure record per failed experiment; negligible next to the seconds the attempt ran")
                    title: exp.title().to_string(),
                    error: outcome
                        .attempts
                        .last()
                        .map_or_else(|| "unknown failure".to_string(), |a| a.error.clone()),
                    attempts: outcome.attempts,
                    elapsed_seconds: outcome.elapsed_seconds,
                });
                continue;
            };
            // analyzer:allow(CP0001, reason = "each record owns its artefact list; one allocation per finished experiment, sized exactly")
            let mut artifacts = Vec::with_capacity(output.artifacts.len());
            for artifact in output.artifacts {
                let path = self
                    .config
                    .results_dir
                    // analyzer:allow(CP0001, reason = "builds the artefact's on-disk path, once per persisted artefact; the adjacent write dwarfs it")
                    .join(format!("{}.json", artifact.name));
                persist::write_atomic(&path, &artifact.json).map_err(|source| EngineError::Io {
                    context: format!("artefact {}", path.display()),
                    source,
                })?;
                artifacts.push(ArtifactRecord {
                    name: artifact.name,
                    // analyzer:allow(CP0001, reason = "the manifest record owns its path string; one copy per persisted artefact")
                    path: path.display().to_string(),
                    hash: artifact.hash,
                    bytes: artifact.json.len(),
                });
            }
            records.push(ExperimentRecord {
                // analyzer:allow(CP0001, reason = "one owned manifest record per finished experiment; negligible next to the seconds the experiment ran")
                name: exp.name().to_string(),
                // analyzer:allow(CP0001, reason = "one owned manifest record per finished experiment; negligible next to the seconds the experiment ran")
                title: exp.title().to_string(),
                wall_seconds: outcome.elapsed_seconds,
                artifacts,
                spans: experiment_spans(&span_tree, exp.name()),
            });
            // analyzer:allow(CP0001, reason = "one owned (name, rendered) pair per finished experiment for the stdout report")
            rendered.push((exp.name().to_string(), output.rendered));
        }
        let format_version = if fault.active() || !failures.is_empty() {
            MANIFEST_FORMAT_FAULTS
        } else {
            MANIFEST_FORMAT
        };
        let manifest = Manifest {
            format_version,
            jobs: self.config.jobs,
            disk_cache: self.config.use_disk_cache,
            experiments: records,
            datasets: store.stats(),
            fault_profile: fault.faults.clone().filter(|f| !f.is_off()),
            keep_going: fault.keep_going,
            retries: fault.retries,
            timeout_secs: fault.timeout_secs,
            failures,
        };
        let manifest_path = self.config.results_dir.join("manifest.json");
        // analyzer:allow(CA0004, reason = "manifest is a plain data struct; serialisation cannot fail")
        let manifest_json = serde_json::to_string_pretty(&manifest).expect("manifest serialises");
        persist::write_atomic(&manifest_path, &manifest_json).map_err(|source| {
            EngineError::Io {
                context: format!("manifest {}", manifest_path.display()),
                source,
            }
        })?;
        Ok(EngineReport { manifest, rendered })
    }
}
