//! Pins the content of the paper artefacts.
//!
//! Runs every registry experiment except fig6 (the surrogate-MLP baseline,
//! which dominates a full run's wall time) through the engine, with the
//! dataset disk cache off, into a temporary results directory. Each
//! artefact's manifest `hash` must equal the digest pinned in
//! `benchmark/expected/bench-fits.digests`. The file is only read here; a
//! change that moves a digest is a change in results and must update it
//! deliberately.

use convmeter_bench::engine::{registry, Engine, EngineConfig};
use std::collections::BTreeMap;

const PINNED: &str = include_str!("../benchmark/expected/bench-fits.digests");

fn pinned_digests() -> BTreeMap<String, String> {
    PINNED
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let (name, hash) = line
                .split_once(' ')
                .unwrap_or_else(|| panic!("malformed digest line: {line}"));
            (name.to_string(), hash.trim().to_string())
        })
        .collect()
}

#[test]
fn artefact_hashes_match_pinned_digests() {
    let names: Vec<&str> = registry()
        .iter()
        .map(|e| e.name())
        .filter(|&name| name != "fig6")
        .collect();
    assert_eq!(names.len(), 15, "registry changed: {names:?}");

    let dir = std::env::temp_dir().join(format!("convmeter-digests-{}", std::process::id()));
    let config = EngineConfig {
        jobs: 2,
        use_disk_cache: false,
        results_dir: dir.clone(),
        fault: Default::default(),
    };
    let report = Engine::select(&names, config)
        .expect("every name is registered")
        .run()
        .expect("engine run succeeds");
    std::fs::remove_dir_all(&dir).ok();

    let produced: BTreeMap<String, String> = report
        .manifest
        .experiments
        .iter()
        .flat_map(|e| &e.artifacts)
        .map(|a| (a.name.clone(), a.hash.clone()))
        .collect();
    let pinned = pinned_digests();
    assert_eq!(pinned.len(), 17);
    for (name, want) in &pinned {
        assert_eq!(
            produced.get(name),
            Some(want),
            "artefact {name}: digest moved"
        );
    }
    assert_eq!(
        produced.len(),
        pinned.len(),
        "unpinned artefacts: {produced:?}"
    );
}
