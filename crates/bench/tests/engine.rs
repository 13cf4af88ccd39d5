//! Integration tests for the experiment engine: exactly-once dataset
//! builds and evaluations, warm-cache byte-identical reruns, and cache-key
//! sensitivity to every configuration field.

use convmeter_bench::engine::registry::{spec_distributed, spec_training};
use convmeter_bench::engine::{
    Artifact, DatasetSpec, DatasetStore, Engine, EngineConfig, EngineError, Experiment, RunContext,
    RunOutput,
};
use convmeter_bench::exp_scaling::{FIG8_MODELS, FIG9_MODELS};
use convmeter_distsim::DistSweepConfig;
use convmeter_hwsim::{DeviceProfile, SweepConfig};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

fn quick_inference_spec() -> DatasetSpec {
    DatasetSpec::Inference {
        device: DeviceProfile::a100_80gb(),
        config: SweepConfig::quick(),
    }
}

fn quick_distributed_spec() -> DatasetSpec {
    DatasetSpec::Distributed {
        device: DeviceProfile::a100_80gb(),
        config: DistSweepConfig::quick(),
    }
}

/// A tiny experiment over the quick inference sweep.
struct QuickInference;
impl Experiment for QuickInference {
    fn name(&self) -> &'static str {
        "quick_inference"
    }
    fn title(&self) -> &'static str {
        "test: quick inference summary"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["quick_inference"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        vec![quick_inference_spec()]
    }
    fn run(&self, ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let data = ctx.inference(&quick_inference_spec())?;
        let total: f64 = data.iter().map(|p| p.measured).sum();
        Ok(RunOutput {
            rendered: format!("quick inference: {} points\n", data.len()),
            artifacts: vec![Artifact::json(
                "quick_inference",
                &serde_json::json!({"points": data.len(), "total_s": total}),
            )],
        })
    }
}

/// A second experiment sharing `QuickInference`'s dataset.
struct QuickShared;
impl Experiment for QuickShared {
    fn name(&self) -> &'static str {
        "quick_shared"
    }
    fn title(&self) -> &'static str {
        "test: shares the quick inference sweep"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["quick_shared"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        vec![quick_inference_spec()]
    }
    fn run(&self, ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let data = ctx.inference(&quick_inference_spec())?;
        let max = data.iter().map(|p| p.measured).fold(0.0f64, f64::max);
        Ok(RunOutput {
            rendered: format!("quick shared: max {max:.6}\n"),
            artifacts: vec![Artifact::json(
                "quick_shared",
                &serde_json::json!({"max_s": max}),
            )],
        })
    }
}

/// A distributed-sweep experiment, so warm runs cover both point types.
struct QuickDistributed;
impl Experiment for QuickDistributed {
    fn name(&self) -> &'static str {
        "quick_distributed"
    }
    fn title(&self) -> &'static str {
        "test: quick distributed summary"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["quick_distributed"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        vec![quick_distributed_spec()]
    }
    fn run(&self, ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let data = ctx.training(&quick_distributed_spec())?;
        let total: f64 = data
            .iter()
            .map(convmeter::dataset::TrainingPoint::step_time)
            .sum();
        Ok(RunOutput {
            rendered: format!("quick distributed: {} points\n", data.len()),
            artifacts: vec![Artifact::json(
                "quick_distributed",
                &serde_json::json!({"points": data.len(), "total_s": total}),
            )],
        })
    }
}

fn temp_results_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("convmeter-engine-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config(results_dir: PathBuf, use_disk_cache: bool) -> EngineConfig {
    EngineConfig {
        jobs: 2,
        use_disk_cache,
        results_dir,
        fault: Default::default(),
    }
}

#[test]
fn warm_rerun_hits_disk_and_is_byte_identical() {
    let dir = temp_results_dir("warm");
    let exps: Vec<&dyn Experiment> = vec![&QuickInference, &QuickDistributed];

    let cold = Engine::new(exps.clone(), config(dir.clone(), true))
        .run()
        .expect("cold run");
    assert_eq!(cold.manifest.total_builds(), 2, "two distinct datasets");
    assert_eq!(cold.manifest.total_disk_hits(), 0);
    let cold_bytes: Vec<Vec<u8>> = ["quick_inference", "quick_distributed"]
        .iter()
        .map(|n| std::fs::read(dir.join(format!("{n}.json"))).expect("artefact exists"))
        .collect();

    // A fresh engine = a fresh in-process memo, so a warm run must be served
    // entirely from the on-disk cache without re-running any sweep.
    let warm = Engine::new(exps, config(dir.clone(), true))
        .run()
        .expect("warm run");
    assert_eq!(
        warm.manifest.total_builds(),
        0,
        "warm run rebuilt a dataset"
    );
    assert_eq!(warm.manifest.total_disk_hits(), 2);
    for (name, cold_body) in ["quick_inference", "quick_distributed"]
        .iter()
        .zip(&cold_bytes)
    {
        let warm_body = std::fs::read(dir.join(format!("{name}.json"))).unwrap();
        assert_eq!(&warm_body, cold_body, "{name}.json changed on warm rerun");
    }

    // The manifest records the run itself.
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(manifest.contains("\"disk_hits\""), "{manifest}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shared_dataset_builds_once_and_memoises() {
    let dir = temp_results_dir("shared");
    let exps: Vec<&dyn Experiment> = vec![&QuickInference, &QuickShared];
    let report = Engine::new(exps, config(dir.clone(), false))
        .run()
        .expect("run");
    let key = quick_inference_spec().key();
    let stats = &report.manifest.datasets[&key];
    assert_eq!(stats.builds, 1, "sweep ran more than once");
    assert_eq!(stats.memory_hits, 1, "second request missed the memo");
    assert_eq!(stats.disk_hits, 0, "disk cache was disabled");
    // --no-cache leaves no cache directory behind.
    assert!(!dir.join("cache").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_key_changes_with_every_sweep_config_field() {
    let device = DeviceProfile::a100_80gb();
    let base = SweepConfig::quick();
    let key = |c: &SweepConfig| {
        DatasetSpec::Inference {
            device: device.clone(),
            config: c.clone(),
        }
        .key()
    };
    let base_key = key(&base);

    let mutations: Vec<(&str, SweepConfig)> = vec![
        ("models", {
            let mut c = base.clone();
            c.models.pop();
            c
        }),
        ("image_sizes", {
            let mut c = base.clone();
            c.image_sizes.push(224);
            c
        }),
        ("batch_sizes", {
            let mut c = base.clone();
            c.batch_sizes[0] = 2;
            c
        }),
        ("seed", {
            let mut c = base.clone();
            c.seed += 1;
            c
        }),
        ("respect_memory", {
            let mut c = base.clone();
            c.respect_memory = !c.respect_memory;
            c
        }),
        ("max_point_time", {
            let mut c = base.clone();
            c.max_point_time = Some(1.5);
            c
        }),
    ];
    for (field, mutated) in mutations {
        assert_ne!(
            key(&mutated),
            base_key,
            "changing SweepConfig::{field} did not change the cache key"
        );
    }

    // Device changes are part of the key too.
    let other_device = DatasetSpec::Inference {
        device: DeviceProfile::xeon_gold_5318y_core(),
        config: base.clone(),
    };
    assert_ne!(other_device.key(), base_key);

    // And the same config under a different dataset kind.
    let as_training = DatasetSpec::Training {
        device: device.clone(),
        config: base.clone(),
    };
    assert_ne!(as_training.key(), base_key);
}

#[test]
fn cache_key_changes_with_every_dist_config_field() {
    let device = DeviceProfile::a100_80gb();
    let base = DistSweepConfig::quick();
    let key = |c: &DistSweepConfig| {
        DatasetSpec::Distributed {
            device: device.clone(),
            config: c.clone(),
        }
        .key()
    };
    let base_key = key(&base);
    let mutations: Vec<(&str, DistSweepConfig)> = vec![
        ("models", {
            let mut c = base.clone();
            c.models.pop();
            c
        }),
        ("image_sizes", {
            let mut c = base.clone();
            c.image_sizes[0] = 64;
            c
        }),
        ("batch_sizes", {
            let mut c = base.clone();
            c.batch_sizes.push(128);
            c
        }),
        ("node_counts", {
            let mut c = base.clone();
            c.node_counts.push(8);
            c
        }),
        ("seed", {
            let mut c = base.clone();
            c.seed ^= 0xFF;
            c
        }),
    ];
    for (field, mutated) in mutations {
        assert_ne!(
            key(&mutated),
            base_key,
            "changing DistSweepConfig::{field} did not change the cache key"
        );
    }
}

#[test]
fn blocks_key_covers_grids_and_seed() {
    let device = DeviceProfile::a100_80gb();
    let spec = |images: &[usize], batches: &[usize], seed: u64| DatasetSpec::Blocks {
        device: device.clone(),
        image_sizes: images.to_vec(),
        batch_sizes: batches.to_vec(),
        seed,
    };
    let base = spec(&[64, 128], &[1, 8], 1).key();
    assert_ne!(spec(&[64], &[1, 8], 1).key(), base);
    assert_ne!(spec(&[64, 128], &[1, 16], 1).key(), base);
    assert_ne!(spec(&[64, 128], &[1, 8], 2).key(), base);
    // List boundaries are unambiguous: moving an element across the
    // image/batch boundary must change the key.
    assert_ne!(spec(&[64, 128, 1], &[8], 1).key(), base);
}

#[test]
fn select_validates_names_and_keeps_registry_order() {
    let cfg = config(temp_results_dir("select"), false);
    let Err(err) = Engine::select(&["table1", "no_such_exp"], cfg.clone()) else {
        panic!("unknown name accepted");
    };
    assert!(matches!(err, EngineError::UnknownExperiment { ref name } if name == "no_such_exp"));
    assert!(err.to_string().contains("no_such_exp"));
    // Selection is fine with valid names regardless of argument order.
    assert!(Engine::select(&["fig3", "table1"], cfg).is_ok());
}

#[test]
fn wrong_kind_requests_error() {
    let store = convmeter_bench::engine::DatasetStore::new(None);
    let err = store.training(&quick_inference_spec()).unwrap_err();
    assert!(matches!(err, EngineError::WrongKind { .. }));
    let err = store.inference(&quick_distributed_spec()).unwrap_err();
    assert!(matches!(err, EngineError::WrongKind { .. }));
}

/// Strip the telemetry from a manifest JSON value, leaving only the
/// deterministic payload. `wall_seconds`/`build_seconds` are wall-clock;
/// `spans` are both
/// wall-clock *and* scheduling-attributed — when two experiments race for
/// a shared dataset, the build span lands under whichever got there first.
fn without_telemetry(mut manifest: serde_json::Value) -> serde_json::Value {
    fn walk(value: &mut serde_json::Value) {
        match value {
            serde_json::Value::Object(pairs) => {
                for (key, child) in pairs.iter_mut() {
                    if key == "wall_seconds" || key == "build_seconds" {
                        *child = serde_json::Value::UInt(0);
                    } else if key == "spans" {
                        *child = serde_json::Value::Array(Vec::new());
                    } else {
                        walk(child);
                    }
                }
            }
            serde_json::Value::Array(items) => {
                for item in items.iter_mut() {
                    walk(item);
                }
            }
            _ => {}
        }
    }
    walk(&mut manifest);
    manifest
}

/// The determinism regression the pool refactor is held to: two cold runs
/// at `--jobs 4` must produce byte-identical artefacts and (telemetry
/// aside) identical manifests, no matter how the four workers interleave.
#[test]
fn parallel_runs_are_byte_identical_at_jobs_4() {
    let mut artefacts: Vec<Vec<(String, Vec<u8>)>> = Vec::new();
    let mut manifests: Vec<serde_json::Value> = Vec::new();
    let dir = temp_results_dir("jobs4");
    for _round in 0..2 {
        let exps: Vec<&dyn Experiment> = vec![&QuickInference, &QuickShared, &QuickDistributed];
        let cfg = EngineConfig {
            jobs: 4,
            use_disk_cache: false,
            results_dir: dir.clone(),
            fault: Default::default(),
        };
        Engine::new(exps, cfg).run().expect("run succeeds");
        artefacts.push(
            ["quick_inference", "quick_shared", "quick_distributed"]
                .iter()
                .map(|n| {
                    let bytes =
                        std::fs::read(dir.join(format!("{n}.json"))).expect("artefact exists");
                    (n.to_string(), bytes)
                })
                .collect(),
        );
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest");
        manifests.push(serde_json::from_str(&manifest).expect("manifest parses"));
        std::fs::remove_dir_all(&dir).ok();
    }
    for ((name, first), (_, second)) in artefacts[0].iter().zip(&artefacts[1]) {
        assert_eq!(
            first, second,
            "{name}.json differs between identical --jobs 4 runs"
        );
    }
    assert_eq!(
        without_telemetry(manifests[0].clone()),
        without_telemetry(manifests[1].clone()),
        "manifest payload differs between identical --jobs 4 runs"
    );
}

/// `--jobs` also raises the intra-sweep worker count (the engine forwards
/// it to `set_sweep_jobs`), so a sequential and a parallel run exercise
/// different schedules inside every dataset build. Per-point seeding and
/// the ordered pool fold must make that invisible: the committed artefacts
/// are byte-identical across job counts.
#[test]
fn artefacts_are_byte_identical_across_job_counts() {
    let mut artefacts: Vec<Vec<(String, Vec<u8>)>> = Vec::new();
    let mut manifests: Vec<serde_json::Value> = Vec::new();
    let dir = temp_results_dir("jobs1v4");
    for jobs in [1, 4] {
        let exps: Vec<&dyn Experiment> = vec![&QuickInference, &QuickShared, &QuickDistributed];
        let cfg = EngineConfig {
            jobs,
            use_disk_cache: false,
            results_dir: dir.clone(),
            fault: Default::default(),
        };
        Engine::new(exps, cfg).run().expect("run succeeds");
        artefacts.push(
            ["quick_inference", "quick_shared", "quick_distributed"]
                .iter()
                .map(|n| {
                    let bytes =
                        std::fs::read(dir.join(format!("{n}.json"))).expect("artefact exists");
                    (n.to_string(), bytes)
                })
                .collect(),
        );
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest");
        manifests.push(serde_json::from_str(&manifest).expect("manifest parses"));
        std::fs::remove_dir_all(&dir).ok();
    }
    for ((name, first), (_, second)) in artefacts[0].iter().zip(&artefacts[1]) {
        assert_eq!(
            first, second,
            "{name}.json differs between --jobs 1 and --jobs 4"
        );
    }
    // The manifest records the configured job count itself; everything
    // else must match.
    let strip_jobs = |mut v: serde_json::Value| {
        if let serde_json::Value::Object(map) = &mut v {
            map.retain(|(k, _)| k != "jobs");
        }
        v
    };
    assert_eq!(
        strip_jobs(without_telemetry(manifests[0].clone())),
        strip_jobs(without_telemetry(manifests[1].clone())),
        "manifest payload differs between --jobs 1 and --jobs 4"
    );
}

#[test]
fn repeated_evaluation_requests_share_one_result() {
    let store = DatasetStore::new(None);
    let spec = quick_inference_spec();
    let first = store.inference_evaluation(&spec).expect("evaluates");
    let again = store.inference_evaluation(&spec).expect("memo hit");
    assert!(Arc::ptr_eq(&first, &again));
    let training = store
        .training_evaluation(&spec_training())
        .expect("evaluates");
    let training_again = store
        .training_evaluation(&spec_training())
        .expect("memo hit");
    assert!(Arc::ptr_eq(&training, &training_again));
    assert_eq!(store.evaluations(), 2);
    // The memoised evaluation is the evaluator's own result.
    let fresh = convmeter::leave_one_model_out_inference(&store.inference(&spec).unwrap()).unwrap();
    assert_eq!(
        serde_json::to_string(&first.1).unwrap(),
        serde_json::to_string(&fresh.1).unwrap()
    );
}

#[test]
fn concurrent_requests_get_one_evaluation() {
    let store = DatasetStore::new(None);
    let spec = spec_training();
    let barrier = Barrier::new(2);
    let (a, b) = std::thread::scope(|s| {
        let request = || {
            barrier.wait();
            store.training_evaluation(&spec).expect("evaluates")
        };
        let a = s.spawn(request);
        let b = s.spawn(request);
        (a.join().unwrap(), b.join().unwrap())
    });
    assert!(Arc::ptr_eq(&a, &b));
    assert_eq!(store.evaluations(), 1);
}

#[test]
fn held_out_models_are_the_evaluation_folds() {
    let store = DatasetStore::new(None);
    let spec = spec_distributed();
    let data = store.training(&spec).expect("sweep");
    for models in [FIG8_MODELS, FIG9_MODELS] {
        let held_out = store
            .held_out_training_models(&spec, models)
            .expect("every figure model is in the sweep");
        for (&model, fold) in models.iter().zip(&held_out) {
            let train: Vec<_> = data.iter().filter(|p| p.model != model).copied().collect();
            let fresh = convmeter::TrainingModel::fit(&train).expect("fits");
            assert_eq!(
                serde_json::to_string(fold).unwrap(),
                serde_json::to_string(&fresh).unwrap(),
                "fold {model}"
            );
        }
    }
    assert_eq!(store.evaluations(), 1);
}

#[test]
fn a_model_without_a_fold_is_a_typed_error() {
    let store = DatasetStore::new(None);
    let err = store
        .held_out_training_models(&spec_distributed(), &["resnet18", "no_such_net"])
        .unwrap_err();
    assert!(
        matches!(err, EngineError::MissingFold { ref model, .. } if model == "no_such_net"),
        "{err}"
    );
}

#[test]
fn a_failed_evaluation_is_a_memoised_typed_error() {
    // The quick distributed sweep leaves folds with fewer rows than the
    // fused model's 7 unknowns.
    let store = DatasetStore::new(None);
    for _ in 0..2 {
        let err = store
            .training_evaluation(&quick_distributed_spec())
            .unwrap_err();
        assert!(matches!(err, EngineError::Fit { .. }), "{err}");
    }
    assert_eq!(store.evaluations(), 1);
}
