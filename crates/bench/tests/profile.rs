//! The `convmeter profile` workload, run in-process.
//!
//! The obs session is process-global: every span that closes while it is
//! open is recorded, whichever thread opened it. These tests therefore
//! live in their own test binary (a process of their own) and hold
//! `SESSION` while they profile, so no other test's spans or counters can
//! land in the captured profile.

use convmeter_bench::profile::{run_profile, ProfileOptions};
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

static SESSION: Mutex<()> = Mutex::new(());

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "convmeter-profile-test-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp results dir");
    dir
}

#[test]
fn quick_profile_covers_every_phase() {
    let _session = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = tmpdir("phases");
    let profile = run_profile(&ProfileOptions {
        quick: true,
        jobs: 1,
        results_dir: dir.clone(),
    })
    .expect("profile runs");
    assert_eq!(profile.workload, "quick-v3");
    let spans = profile.flat_spans();
    // The acceptance surface: engine, hwsim sweep, distsim, compiled
    // lowering, linalg fit, and leave-one-model-out phases must all
    // appear in the span tree.
    for needle in [
        "engine.run",
        "hwsim.inference_sweep",
        "distsim.sweep",
        "linalg.fit",
        "compile.model",
        "convmeter.eval",
        "profile.compile",
        "profile.datasets",
        "profile.fits",
        "profile.eval",
    ] {
        assert!(
            spans
                .keys()
                .any(|path| path.split('/').any(|s| s == needle)),
            "span tree missing {needle}: {:?}",
            spans.keys().collect::<Vec<_>>()
        );
    }
    assert_eq!(profile.metrics.counters["engine.store.memory_hits"], 1);
    assert!(profile.metrics.counters["engine.store.builds"] >= 3);
    assert!(profile.metrics.counters["linalg.fits"] > 0);
    // The compile cache is pinned cold, so the quick grid compiles a
    // deterministic set of (model, image) pairs.
    assert!(profile.metrics.counters["compile.models"] >= 7);
    // The engine phase wrote a v2 manifest with span summaries.
    let manifest = std::fs::read_to_string(dir.join("profile/manifest.json"))
        .expect("engine manifest written");
    assert!(manifest.contains("\"format_version\": 2"));
    assert!(manifest.contains("experiment:extensions"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deterministic_view_is_stable_across_runs() {
    let _session = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
    let dir = tmpdir("stable");
    let opts = ProfileOptions {
        quick: true,
        jobs: 1,
        results_dir: dir.clone(),
    };
    let a = run_profile(&opts).expect("first run");
    let b = run_profile(&opts).expect("second run");
    assert_eq!(a.deterministic().to_json(), b.deterministic().to_json());
    std::fs::remove_dir_all(&dir).ok();
}
