//! `--jobs 2` must produce the same run as `--jobs 1`: identical artefact
//! hashes, and every span a sequential run records, nested under its
//! experiment in the manifest — including the spans of work that fans out
//! on pool workers (leave-one-model-out folds, contamination's rates,
//! sweep points). The run covers every experiment that reads a
//! leave-one-model-out evaluation memo.
//!
//! Its own test binary: the compiled-model cache is process-global, so no
//! other test may compile models while the two runs are compared.

use convmeter_bench::engine::{Engine, EngineConfig};
use std::collections::BTreeMap;

/// Artefact hashes by name, and span counts by leaf span name summed over
/// every experiment. Which experiment a shared dataset build or compile is
/// credited to depends on the schedule, so per-experiment counts are not
/// comparable across job counts; the totals are.
/// Every experiment that reads an evaluation memo of the dataset store,
/// and contamination, whose fits fan out on the pool.
const EVALUATING: [&str; 11] = [
    "table1",
    "fig3",
    "table2",
    "fig4",
    "table3",
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "ablations",
    "contamination",
];

fn run(jobs: usize) -> (BTreeMap<String, String>, BTreeMap<String, u64>) {
    convmeter_hwsim::compile::clear_cache();
    let dir = std::env::temp_dir().join(format!(
        "convmeter-jobs-parity-{jobs}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let config = EngineConfig {
        jobs,
        use_disk_cache: false,
        results_dir: dir.clone(),
        fault: Default::default(),
    };
    let report = Engine::select(&EVALUATING, config)
        .expect("registered experiments")
        .run()
        .expect("run succeeds");
    std::fs::remove_dir_all(&dir).ok();
    let mut hashes = BTreeMap::new();
    let mut spans = BTreeMap::new();
    for exp in &report.manifest.experiments {
        for artifact in &exp.artifacts {
            hashes.insert(artifact.name.clone(), artifact.hash.clone());
        }
        for span in &exp.spans {
            let leaf = span.name.rsplit('/').next().unwrap_or(&span.name);
            *spans.entry(leaf.to_string()).or_insert(0) += span.count;
        }
    }
    (hashes, spans)
}

#[test]
fn jobs_2_matches_jobs_1_in_artefacts_and_span_totals() {
    let (hashes_1, spans_1) = run(1);
    let (hashes_2, spans_2) = run(2);
    assert_eq!(hashes_1.len(), EVALUATING.len(), "{hashes_1:?}");
    assert_eq!(
        hashes_1, hashes_2,
        "artefacts differ between --jobs 1 and 2"
    );
    assert_eq!(spans_1["linalg.robust_fit"], 5, "{spans_1:?}");
    assert_eq!(
        spans_1, spans_2,
        "manifest span totals differ between --jobs 1 and 2"
    );
}
