//! The `convmeter profile` workload: a fixed, deterministic suite that
//! exercises every instrumented layer of the workspace — dataset sweeps
//! (hwsim + distsim), model fitting (linalg QR), and the experiment engine —
//! inside one observability session, and freezes the result as a versioned
//! [`obs::Profile`].
//!
//! Two views of the same run serve two jobs:
//!
//! * the **timed** profile goes to `results/BENCH_profile.json` and is what
//!   `tools/perf_gate.sh` compares against the committed
//!   `BENCH_baseline.json`;
//! * the **deterministic** view ([`obs::Profile::deterministic`]) zeroes
//!   every wall-clock field, so `convmeter profile --json` prints
//!   byte-identical output across runs — the schema-stability contract the
//!   integration tests pin down.
//!
//! The workload string (`quick-v3` / `full-v3`) names the suite; bump the
//! suffix when the suite changes so the gate flags stale baselines as a
//! workload mismatch instead of a spurious regression. v2 added the
//! compiled-model phase (and pins the process-global compile cache cold at
//! the start, so `compile.model` span counts are a function of the
//! workload, not of what ran earlier in the process); v3 times the exact
//! leave-one-model-out evaluators the artefacts use under `profile.eval`.

use crate::engine::{DatasetSpec, DatasetStore, Engine, EngineConfig, EngineError};
use convmeter::{ForwardModel, TrainingModel};
use convmeter_hwsim::{DeviceProfile, SweepConfig};
use convmeter_metrics::obs;
use std::path::{Path, PathBuf};

/// File name of the timed profile artefact under the results directory.
pub const PROFILE_FILE: &str = "BENCH_profile.json";

/// How to run the profile workload.
#[derive(Debug, Clone)]
pub struct ProfileOptions {
    /// Smaller fit-repetition count (CI smoke); the dataset sweeps are the
    /// quick grids either way.
    pub quick: bool,
    /// Worker threads for the engine phase.
    pub jobs: usize,
    /// Results directory; the engine phase writes its artefacts under
    /// `<results_dir>/profile/` so a real `bench` manifest is not clobbered.
    pub results_dir: PathBuf,
}

/// Run the deterministic workload suite and return the captured profile.
///
/// Phases (each a top-level span):
///
/// 1. `profile.compile` — the compile cache is pinned cold and every
///    (model, image) pair the workload sweeps is compiled once, so the
///    one-time `compile.model` costs are measured here, separately from
///    the steady state;
/// 2. `profile.datasets` — quick inference, training, and distributed
///    sweeps resolved through a fresh in-memory [`DatasetStore`] (plus one
///    repeat fetch, so the cache counters show a deterministic memory
///    hit), all over the warm compile cache;
/// 3. `profile.fits` — repeated ConvMeter forward/training fits over those
///    datasets (the linalg QR path);
/// 4. `profile.eval` — leave-one-model-out evaluations over the same
///    datasets (`convmeter.eval`, one refit per held-out ConvNet — the
///    path behind Tables 1 and 3);
/// 5. the engine phase — `Engine::run` over the dependency-free
///    `extensions` experiment, which records its own `engine.run` span
///    tree and writes a v2 manifest with per-experiment span summaries.
pub fn run_profile(opts: &ProfileOptions) -> Result<obs::Profile, EngineError> {
    let session = obs::Session::begin();
    let workload = if opts.quick { "quick-v3" } else { "full-v3" };

    let gpu = DeviceProfile::a100_80gb();
    let store = DatasetStore::new(None);
    let inference_spec = DatasetSpec::Inference {
        device: gpu.clone(),
        config: SweepConfig::quick(),
    };

    {
        // Pin the process-global compile cache cold, then warm every
        // (model, image) pair the workload sweeps — so the one-time
        // `compile.model` compilations are measured here, and
        // `profile.datasets` below times the steady state the compiled
        // representation exists for (per-node folds, no graph work).
        let _span = obs::span!("profile.compile");
        convmeter_hwsim::compile::clear_cache();
        let quick = SweepConfig::quick();
        let dist = convmeter_distsim::DistSweepConfig::quick();
        for (models, sizes) in [
            (&quick.models, &quick.image_sizes),
            (&dist.models, &dist.image_sizes),
        ] {
            for name in models {
                for &size in sizes {
                    convmeter_hwsim::compile::compiled(name, size).map_err(|source| {
                        EngineError::Sweep {
                            key: format!("profile.compile/{name}@{size}"),
                            source,
                        }
                    })?;
                }
            }
        }
    }
    let (inference, training, distributed) = {
        let _span = obs::span!("profile.datasets");
        let inference = store.inference(&inference_spec)?;
        let training = store.training(&DatasetSpec::Training {
            device: gpu.clone(),
            config: SweepConfig::quick(),
        })?;
        let distributed = store.training(&DatasetSpec::Distributed {
            device: gpu,
            config: convmeter_distsim::DistSweepConfig::quick(),
        })?;
        if !opts.quick {
            let _cpu = store.inference(&DatasetSpec::Inference {
                device: DeviceProfile::xeon_gold_5318y_core(),
                config: SweepConfig::quick(),
            })?;
        }
        // Fetch one spec a second time: a deterministic in-memory cache hit
        // so the store counters are exercised on every run.
        let _again = store.inference(&inference_spec)?;
        (inference, training, distributed)
    };

    {
        let _span = obs::span!("profile.fits");
        let reps = if opts.quick { 3 } else { 25 };
        for _ in 0..reps {
            // analyzer:allow(CA0007, reason = "the profiler drives fixed in-repo sweep datasets; a fit failure is a workspace bug worth aborting the profile run")
            ForwardModel::fit(&inference).expect("quick inference dataset fits");
            // analyzer:allow(CA0007, reason = "the profiler drives fixed in-repo sweep datasets; a fit failure is a workspace bug worth aborting the profile run")
            TrainingModel::fit(&training).expect("quick training dataset fits");
            // analyzer:allow(CA0007, reason = "the profiler drives fixed in-repo sweep datasets; a fit failure is a workspace bug worth aborting the profile run")
            TrainingModel::fit(&distributed).expect("quick distributed dataset fits");
        }
    }

    {
        let _span = obs::span!("profile.eval");
        let reps = if opts.quick { 2 } else { 10 };
        for _ in 0..reps {
            convmeter::leave_one_model_out_inference(&inference)
                // analyzer:allow(CA0007, reason = "the profiler drives fixed in-repo sweep datasets; a fit failure is a workspace bug worth aborting the profile run")
                .expect("quick inference dataset evaluates");
            convmeter::leave_one_model_out_training(&training)
                // analyzer:allow(CA0007, reason = "the profiler drives fixed in-repo sweep datasets; a fit failure is a workspace bug worth aborting the profile run")
                .expect("quick training dataset evaluates");
        }
    }

    {
        // Deliberately NOT wrapped in a span: with jobs <= 1 the engine's
        // per-experiment spans only flush to the sink once its own
        // outermost `engine.run` span closes, so an enclosing span here
        // would keep them out of the snapshot below.
        let config = EngineConfig {
            jobs: opts.jobs,
            use_disk_cache: false,
            results_dir: opts.results_dir.join("profile"),
            fault: Default::default(),
        };
        Engine::select(&["extensions"], config)?.run()?;
    }

    Ok(session.profile(workload))
}

/// Write the timed profile JSON to `path` (creating parent directories).
pub fn write_profile(profile: &obs::Profile, path: &Path) -> Result<(), EngineError> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|source| EngineError::Io {
            context: format!("profile directory {}", parent.display()),
            source,
        })?;
    }
    std::fs::write(path, profile.to_json()).map_err(|source| EngineError::Io {
        context: format!("profile {}", path.display()),
        source,
    })
}
