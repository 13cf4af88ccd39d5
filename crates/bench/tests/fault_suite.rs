//! Fault-tolerance integration suite: crash-safe cache recovery and the
//! engine's per-attempt policy (retries, backoff, watchdog) end to end.
//!
//! Covers the robustness acceptance surface:
//! * a corrupted on-disk dataset cache entry is detected by its checksum,
//!   rebuilt from the simulator, and the rebuilt artefacts are
//!   byte-identical to the pre-corruption run;
//! * a `--keep-going` run with erroring, panicking and hanging experiments
//!   completes every healthy experiment and records each failure — with
//!   its attempt history — in a v3 manifest, in registry order;
//! * retries follow the deterministic backoff schedule, and a hung attempt
//!   is abandoned by the watchdog instead of stalling the run;
//! * without `--keep-going` the first failure aborts the run with its
//!   typed error, whatever the retry and watchdog settings;
//! * a faults-off run writes the v2 manifest, unsalted cache keys, and
//!   byte-identical artefacts across reruns.

use convmeter_bench::engine::{
    Artifact, AttemptKind, DatasetSpec, Engine, EngineConfig, EngineError, Experiment,
    FaultToleranceConfig, RunContext, RunOutput, BACKOFF_BASE_MS, MANIFEST_FORMAT_FAULTS,
};
use convmeter_hwsim::{DeviceProfile, FaultProfile, SweepConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn quick_spec() -> DatasetSpec {
    DatasetSpec::Inference {
        device: DeviceProfile::a100_80gb(),
        config: SweepConfig::quick(),
    }
}

/// A healthy experiment over the quick inference sweep.
struct Healthy;
impl Experiment for Healthy {
    fn name(&self) -> &'static str {
        "fault_healthy"
    }
    fn title(&self) -> &'static str {
        "test: healthy experiment"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["fault_healthy"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        vec![quick_spec()]
    }
    fn run(&self, ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let data = ctx.inference(&quick_spec())?;
        let total: f64 = data.iter().map(|p| p.measured).sum();
        Ok(RunOutput {
            rendered: format!("healthy: {} points\n", data.len()),
            artifacts: vec![Artifact::json(
                "fault_healthy",
                &serde_json::json!({"points": data.len(), "total_s": total}),
            )],
        })
    }
}

/// An experiment that panics on every attempt.
struct Panics;
impl Experiment for Panics {
    fn name(&self) -> &'static str {
        "fault_panics"
    }
    fn title(&self) -> &'static str {
        "test: always panics"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["fault_panics"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        Vec::new()
    }
    fn run(&self, _ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        panic!("injected panic for the fault suite")
    }
}

/// An experiment that outlives any reasonable watchdog budget.
struct Hangs;
impl Experiment for Hangs {
    fn name(&self) -> &'static str {
        "fault_hangs"
    }
    fn title(&self) -> &'static str {
        "test: hangs until abandoned"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["fault_hangs"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        Vec::new()
    }
    fn run(&self, _ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        std::thread::sleep(std::time::Duration::from_secs(60));
        Ok(RunOutput {
            rendered: String::new(),
            artifacts: Vec::new(),
        })
    }
}

/// An experiment with no dependencies that always succeeds.
struct Succeeds(&'static str);
impl Experiment for Succeeds {
    fn name(&self) -> &'static str {
        self.0
    }
    fn title(&self) -> &'static str {
        "test: succeeds at once"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &[]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        Vec::new()
    }
    fn run(&self, _ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        Ok(RunOutput {
            rendered: String::new(),
            artifacts: vec![Artifact::json(self.0, &serde_json::json!({"ok": true}))],
        })
    }
}

/// An experiment that returns a typed error on every attempt and counts
/// its attempts. Each test declares its own `static` instance.
struct Fails {
    calls: AtomicUsize,
}
impl Fails {
    const fn new() -> Self {
        Fails {
            calls: AtomicUsize::new(0),
        }
    }
}
impl Experiment for Fails {
    fn name(&self) -> &'static str {
        "fault_fails"
    }
    fn title(&self) -> &'static str {
        "test: always errors"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["fault_fails"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        Vec::new()
    }
    fn run(&self, _ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let n = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        Err(EngineError::BadDataset {
            key: "fault_fails".to_string(),
            problem: format!("attempt {n} found no points"),
        })
    }
}

/// An experiment that errors on its first two attempts and succeeds on the
/// third, remembering when each attempt started.
struct Flaky {
    starts: Mutex<Vec<Instant>>,
}
impl Experiment for Flaky {
    fn name(&self) -> &'static str {
        "fault_flaky"
    }
    fn title(&self) -> &'static str {
        "test: succeeds on the third attempt"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["fault_flaky"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        Vec::new()
    }
    fn run(&self, _ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let mut starts = self.starts.lock().unwrap();
        starts.push(Instant::now());
        if starts.len() < 3 {
            return Err(EngineError::BadDataset {
                key: "fault_flaky".to_string(),
                problem: format!("transient failure {}", starts.len()),
            });
        }
        Ok(RunOutput {
            rendered: String::new(),
            artifacts: vec![Artifact::json(
                "fault_flaky",
                &serde_json::json!({"attempts": starts.len()}),
            )],
        })
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("convmeter-faults-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config(results_dir: PathBuf, fault: FaultToleranceConfig) -> EngineConfig {
    EngineConfig {
        jobs: 2,
        use_disk_cache: true,
        results_dir,
        fault,
    }
}

#[test]
fn corrupted_cache_entry_is_rebuilt_byte_identical() {
    let dir = temp_dir("corrupt");
    let exps: Vec<&'static dyn Experiment> = vec![&Healthy];

    let cold = Engine::new(exps.clone(), config(dir.clone(), Default::default()))
        .run()
        .expect("cold run");
    assert_eq!(cold.manifest.total_builds(), 1);
    let artefact = dir.join("fault_healthy.json");
    let cold_bytes = std::fs::read(&artefact).expect("artefact written");

    // Tamper with one digit of the cached payload. The envelope checksum
    // no longer matches, so the load must fail closed and rebuild.
    let cache_file = dir
        .join("cache")
        .join(format!("{}.json", quick_spec().key()));
    let text = std::fs::read_to_string(&cache_file).expect("cache entry written");
    let payload_at = text.find("\"payload\"").expect("envelope has a payload");
    let (digit_at, old) = text[payload_at..]
        .char_indices()
        .find(|(_, c)| ('1'..='8').contains(c))
        .map(|(i, c)| (payload_at + i, c))
        .expect("payload contains a digit");
    let mut tampered = text.clone();
    tampered.replace_range(
        digit_at..digit_at + 1,
        &((old as u8 + 1) as char).to_string(),
    );
    assert_ne!(tampered, text);
    std::fs::write(&cache_file, &tampered).unwrap();

    let warm = Engine::new(exps, config(dir.clone(), Default::default()))
        .run()
        .expect("run after corruption");
    assert_eq!(
        warm.manifest.total_disk_hits(),
        0,
        "corrupt cache entry was served"
    );
    assert_eq!(warm.manifest.total_builds(), 1, "dataset was not rebuilt");
    let rebuilt_bytes = std::fs::read(&artefact).unwrap();
    assert_eq!(
        rebuilt_bytes, cold_bytes,
        "rebuild after corruption changed the artefact"
    );
    // The rebuilt cache entry is valid again: a third run disk-hits.
    let third = Engine::new(vec![&Healthy], config(dir.clone(), Default::default()))
        .run()
        .expect("third run");
    assert_eq!(third.manifest.total_disk_hits(), 1);
    assert_eq!(third.manifest.total_builds(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn keep_going_quarantines_panic_and_timeout_and_completes_the_rest() {
    let dir = temp_dir("quarantine");
    let fault = FaultToleranceConfig {
        keep_going: true,
        retries: 1,
        timeout_secs: Some(1),
        ..Default::default()
    };
    let exps: Vec<&'static dyn Experiment> = vec![&Panics, &Hangs, &Healthy];
    let report = Engine::new(exps, config(dir.clone(), fault))
        .run()
        .expect("keep-going run returns a report");

    // The healthy experiment completed and its artefact exists.
    assert_eq!(report.manifest.experiments.len(), 1);
    assert_eq!(report.manifest.experiments[0].name, "fault_healthy");
    assert!(dir.join("fault_healthy.json").exists());
    assert!(!dir.join("fault_panics.json").exists());

    // Both failures are recorded, in registry (input) order, with their
    // full attempt histories: 2 attempts each (1 retry).
    assert_eq!(report.manifest.format_version, MANIFEST_FORMAT_FAULTS);
    assert_eq!(report.manifest.failures.len(), 2);
    let panicked = &report.manifest.failures[0];
    assert_eq!(panicked.name, "fault_panics");
    assert_eq!(panicked.attempts.len(), 2);
    assert!(
        panicked.error.contains("injected panic"),
        "{}",
        panicked.error
    );
    let hung = &report.manifest.failures[1];
    assert_eq!(hung.name, "fault_hangs");
    assert_eq!(hung.attempts.len(), 2);
    assert!(
        hung.attempts
            .iter()
            .all(|a| a.error.contains("watchdog timeout")),
        "{:?}",
        hung.attempts
    );

    // The on-disk manifest is v3 and carries the quarantine fields.
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(manifest.contains("\"format_version\": 3"), "{manifest}");
    assert!(manifest.contains("\"failures\""), "{manifest}");
    assert!(manifest.contains("\"keep_going\": true"), "{manifest}");
    assert!(manifest.contains("fault_panics"), "{manifest}");
    assert!(manifest.contains("fault_hangs"), "{manifest}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failures_without_keep_going_abort_with_typed_errors() {
    let dir = temp_dir("abort");
    let fault = FaultToleranceConfig {
        timeout_secs: Some(1),
        ..Default::default()
    };
    let exps: Vec<&'static dyn Experiment> = vec![&Hangs];
    let Err(err) = Engine::new(exps, config(dir.clone(), fault)).run() else {
        panic!("watchdog must abort without --keep-going");
    };
    assert!(
        matches!(err, EngineError::TimedOut { ref name, seconds: 1 } if name == "fault_hangs"),
        "{err}"
    );
    // Aborted runs write nothing.
    assert!(!dir.join("manifest.json").exists());

    // A panic on the final attempt is `ExperimentPanicked`, retries or not.
    let fault = FaultToleranceConfig {
        retries: 1,
        ..Default::default()
    };
    let Err(err) = Engine::new(vec![&Panics], config(dir.clone(), fault)).run() else {
        panic!("a panicking experiment must abort without --keep-going");
    };
    assert!(
        matches!(err, EngineError::ExperimentPanicked { ref name, ref message }
            if name == "fault_panics" && message.contains("injected panic")),
        "{err}"
    );

    // The first failure in registry order decides, whatever finishes first.
    static FAILS: Fails = Fails::new();
    let exps: Vec<&'static dyn Experiment> = vec![&Succeeds("fault_first"), &FAILS, &Panics];
    let Err(err) = Engine::new(exps, config(dir.clone(), Default::default())).run() else {
        panic!("a failing experiment must abort without --keep-going");
    };
    assert!(matches!(err, EngineError::BadDataset { .. }), "{err}");
    assert!(!dir.join("manifest.json").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retried_errors_keep_the_experiments_typed_error() {
    static FAILS: Fails = Fails::new();
    let dir = temp_dir("typed");
    let fault = FaultToleranceConfig {
        retries: 1,
        ..Default::default()
    };
    let Err(err) = Engine::new(vec![&FAILS], config(dir.clone(), fault)).run() else {
        panic!("an always-failing experiment must abort without --keep-going");
    };
    assert!(
        matches!(err, EngineError::BadDataset { ref key, ref problem }
            if key == "fault_fails" && problem == "attempt 2 found no points"),
        "{err}"
    );
    assert_eq!(FAILS.calls.load(Ordering::SeqCst), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn keep_going_records_panics_and_errors_without_aborting() {
    static FAILS: Fails = Fails::new();
    let dir = temp_dir("recorded");
    let fault = FaultToleranceConfig {
        keep_going: true,
        ..Default::default()
    };
    let exps: Vec<&'static dyn Experiment> = vec![&Panics, &FAILS, &Healthy];
    let report = Engine::new(exps, config(dir.clone(), fault))
        .run()
        .expect("keep-going run returns a report");
    assert_eq!(report.manifest.experiments.len(), 1);
    assert_eq!(report.manifest.experiments[0].name, "fault_healthy");

    let [panicked, failed] = &report.manifest.failures[..] else {
        panic!("{:?}", report.manifest.failures);
    };
    assert_eq!(panicked.name, "fault_panics");
    assert_eq!(panicked.attempts.len(), 1);
    assert_eq!(panicked.attempts[0].kind, AttemptKind::Panic);
    assert_eq!(
        panicked.attempts[0].error,
        "injected panic for the fault suite"
    );
    assert_eq!(failed.name, "fault_fails");
    assert_eq!(failed.attempts.len(), 1);
    assert_eq!(failed.attempts[0].kind, AttemptKind::Error);
    assert_eq!(
        failed.error,
        "dataset fault_fails failed validation: attempt 1 found no points"
    );
    assert_eq!(failed.attempts[0].backoff_ms, 0);
    assert_eq!(FAILS.calls.load(Ordering::SeqCst), 1);

    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(manifest.contains("\"kind\": \"Error\""), "{manifest}");
    assert!(manifest.contains("\"kind\": \"Panic\""), "{manifest}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_retry_that_succeeds_waits_out_the_backoff_schedule() {
    static FLAKY: Flaky = Flaky {
        starts: Mutex::new(Vec::new()),
    };
    let dir = temp_dir("flaky");
    let fault = FaultToleranceConfig {
        retries: 3,
        ..Default::default()
    };
    let report = Engine::new(vec![&FLAKY], config(dir.clone(), fault))
        .run()
        .expect("the third attempt succeeds");
    assert_eq!(report.manifest.experiments[0].name, "fault_flaky");
    assert!(report.manifest.failures.is_empty());
    assert!(dir.join("fault_flaky.json").exists());

    // Two failed attempts, so two backoffs: 250 ms, then 500 ms.
    let starts = FLAKY.starts.lock().unwrap();
    assert_eq!(starts.len(), 3);
    assert!(starts[1] - starts[0] >= Duration::from_millis(BACKOFF_BASE_MS));
    assert!(starts[2] - starts[1] >= Duration::from_millis(2 * BACKOFF_BASE_MS));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exhausted_retries_number_every_attempt() {
    static FAILS: Fails = Fails::new();
    let dir = temp_dir("exhausted");
    let fault = FaultToleranceConfig {
        keep_going: true,
        retries: 2,
        ..Default::default()
    };
    let report = Engine::new(vec![&FAILS], config(dir.clone(), fault))
        .run()
        .expect("keep-going run returns a report");
    let failure = &report.manifest.failures[0];
    let numbers: Vec<usize> = failure.attempts.iter().map(|a| a.attempt).collect();
    assert_eq!(numbers, vec![1, 2, 3]);
    let backoffs: Vec<u64> = failure.attempts.iter().map(|a| a.backoff_ms).collect();
    // Doubling from the base; the final failure schedules no backoff.
    assert_eq!(backoffs, vec![250, 500, 0]);
    assert!(failure
        .attempts
        .iter()
        .all(|a| a.kind == AttemptKind::Error));
    assert_eq!(
        failure.error,
        "dataset fault_fails failed validation: attempt 3 found no points"
    );
    assert_eq!(FAILS.calls.load(Ordering::SeqCst), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_watchdog_abandons_a_hung_attempt() {
    let dir = temp_dir("watchdog");
    let fault = FaultToleranceConfig {
        keep_going: true,
        timeout_secs: Some(1),
        ..Default::default()
    };
    let exps: Vec<&'static dyn Experiment> = vec![&Hangs, &Succeeds("fault_after_hang")];
    let started = Instant::now();
    let report = Engine::new(exps, config(dir.clone(), fault))
        .run()
        .expect("keep-going run returns a report");
    // `Hangs` sleeps for 60 s; the run must not wait for it.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "watchdog must not wait for the hung attempt"
    );
    assert_eq!(report.manifest.experiments[0].name, "fault_after_hang");
    let hung = &report.manifest.failures[0];
    assert_eq!(hung.attempts.len(), 1);
    assert_eq!(hung.attempts[0].kind, AttemptKind::Timeout);
    assert_eq!(hung.attempts[0].error, "watchdog timeout after 1.0s");
    assert_eq!(hung.attempts[0].elapsed_seconds, 1.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn outcomes_come_back_in_input_order() {
    static FAILS: Fails = Fails::new();
    let fault = FaultToleranceConfig {
        keep_going: true,
        retries: 1,
        ..Default::default()
    };
    let exps: Vec<&'static dyn Experiment> = vec![
        &Panics,
        &Succeeds("fault_order_a"),
        &FAILS,
        &Succeeds("fault_order_b"),
        &Succeeds("fault_order_c"),
    ];
    for round in 0..2 {
        let dir = temp_dir(&format!("order{round}"));
        let mut config = config(dir.clone(), fault.clone());
        config.jobs = 4;
        let report = Engine::new(exps.clone(), config)
            .run()
            .expect("keep-going run returns a report");
        let done: Vec<&str> = report
            .manifest
            .experiments
            .iter()
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(done, ["fault_order_a", "fault_order_b", "fault_order_c"]);
        let failed: Vec<&str> = report
            .manifest
            .failures
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(failed, ["fault_panics", "fault_fails"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    // No experiments at all is an empty, successful run.
    let dir = temp_dir("empty");
    let report = Engine::new(Vec::new(), config(dir.clone(), fault))
        .run()
        .expect("empty run");
    assert!(report.manifest.experiments.is_empty());
    assert!(report.manifest.failures.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn faults_off_runs_keep_the_v2_manifest() {
    let dir = temp_dir("clean");
    // An explicit all-off profile must behave exactly like no profile.
    let fault = FaultToleranceConfig {
        faults: Some(FaultProfile::disabled()),
        ..Default::default()
    };
    let exps: Vec<&'static dyn Experiment> = vec![&Healthy];
    let a = Engine::new(exps.clone(), config(dir.clone(), fault))
        .run()
        .expect("first run");
    assert_eq!(a.manifest.format_version, 2);
    assert!(a.manifest.fault_profile.is_none());
    // The cache key is unsalted: the entry sits under the plain spec key.
    assert!(a.manifest.datasets.contains_key(&quick_spec().key()));
    let bytes_a = std::fs::read(dir.join("fault_healthy.json")).unwrap();
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(manifest.contains("\"format_version\": 2"), "{manifest}");
    assert!(!manifest.contains("fault_profile"), "{manifest}");

    let b = Engine::new(exps, config(dir.clone(), Default::default()))
        .run()
        .expect("second run");
    assert_eq!(b.manifest.total_disk_hits(), 1, "clean cache entry reused");
    let bytes_b = std::fs::read(dir.join("fault_healthy.json")).unwrap();
    assert_eq!(bytes_a, bytes_b, "faults-off rerun changed the artefact");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_injection_salts_the_cache_key_and_stays_deterministic() {
    let dir = temp_dir("salted");
    let fault = FaultToleranceConfig {
        faults: Some(FaultProfile::ci_smoke()),
        ..Default::default()
    };
    let exps: Vec<&'static dyn Experiment> = vec![&Healthy];
    let a = Engine::new(exps.clone(), config(dir.clone(), fault.clone()))
        .run()
        .expect("faulted run");
    assert_eq!(a.manifest.format_version, MANIFEST_FORMAT_FAULTS);
    assert!(a.manifest.fault_profile.is_some());
    // The dataset landed under a salted key, not the clean one.
    let clean_key = quick_spec().key();
    assert!(!a.manifest.datasets.contains_key(&clean_key));
    let salted_key = a.manifest.datasets.keys().next().expect("one dataset");
    assert!(
        salted_key.starts_with(&clean_key) && salted_key.contains("-faults-"),
        "{salted_key}"
    );
    let bytes_a = std::fs::read(dir.join("fault_healthy.json")).unwrap();

    // Same profile, fresh engine: disk hit on the salted entry, identical
    // artefact — fault injection is bit-for-bit reproducible.
    let b = Engine::new(exps, config(dir.clone(), fault))
        .run()
        .expect("faulted rerun");
    assert_eq!(b.manifest.total_disk_hits(), 1);
    let bytes_b = std::fs::read(dir.join("fault_healthy.json")).unwrap();
    assert_eq!(bytes_a, bytes_b, "faulted rerun is not deterministic");
    std::fs::remove_dir_all(&dir).ok();
}
