//! Pins the content of the paper artefacts.
//!
//! Runs every registry experiment except fig6 (the surrogate-MLP baseline,
//! which dominates a full run's wall time) through the engine, with the
//! dataset disk cache off, into a temporary results directory. Each
//! artefact's manifest `hash` must equal the digest pinned in
//! `benchmark/expected/bench-fits.digests`. The file is only read here; a
//! change that moves a digest is a change in results and must update it
//! deliberately.
//!
//! A second run selects only experiments that read a memoised
//! leave-one-model-out evaluation without the sibling that fills the memo
//! first in a full run, so the fill order cannot move an artefact either.

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

/// Run the named experiments through the engine (disk cache off) and
/// return each artefact's manifest hash.
fn produced_digests(names: &[&str], tag: &str) -> BTreeMap<String, String> {
    let dir = std::env::temp_dir().join(format!("convmeter-digests-{tag}-{}", std::process::id()));
    let config = EngineConfig {
        jobs: 2,
        use_disk_cache: false,
        results_dir: dir.clone(),
        fault: Default::default(),
    };
    let report = Engine::select(names, config)
        .expect("every name is registered")
        .run()
        .expect("engine run succeeds");
    std::fs::remove_dir_all(&dir).ok();
    report
        .manifest
        .experiments
        .iter()
        .flat_map(|e| &e.artifacts)
        .map(|a| (a.name.clone(), a.hash.clone()))
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

    let produced = produced_digests(&names, "all");
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

#[test]
fn memo_fill_order_does_not_move_digests() {
    // fig3 without table1, fig4 without table2, fig8 and fig9 without
    // table3/fig5/fig7: each evaluation is filled by a different
    // experiment than in the full run.
    let names = ["fig3", "fig4", "fig8", "fig9"];
    let produced = produced_digests(&names, "memo");
    let pinned = pinned_digests();
    assert_eq!(produced.len(), names.len());
    for (name, got) in &produced {
        assert_eq!(Some(got), pinned.get(name), "artefact {name}: digest moved");
    }
}
