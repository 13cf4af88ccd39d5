//! `--jobs 2` must produce the same run as `--jobs 1`: identical artefact
//! hashes, and every span a sequential run records, nested under its
//! experiment in the manifest — including the spans of work that fans out
//! on pool workers (leave-one-model-out folds, contamination's rates,
//! sweep points). The run covers every experiment that reads a
//! leave-one-model-out evaluation memo.
//!
//! It also guards the lockstep factorisation: a regression to groups of
//! one would keep every hash and lose the speed-up, so the designs that
//! table1, table3 and contamination factor must mostly share their group
//! (`linalg.qr.lanes`).
//!
//! Its own test binary: the compiled-model cache is process-global, so no
//! other test may compile models during a run. Each run holds the
//! recording session, which serialises runs, from clearing that cache to
//! its end, so the two tests here cannot interleave.

use convmeter_bench::engine::{Engine, EngineConfig};
use convmeter_metrics::obs;
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

/// The artefact hashes and span totals of one run of `experiments`, and
/// the run's `linalg.qr.lanes` histogram: one record per lockstep group,
/// its width.
fn run(
    experiments: &[&str],
    jobs: usize,
) -> (
    BTreeMap<String, String>,
    BTreeMap<String, u64>,
    obs::metric::HistogramSnapshot,
) {
    // Sessions are serialised, so no other run compiles models between
    // clearing the cache and this run; the engine joins this session, so
    // the run's metrics outlive it.
    let session = obs::Session::begin();
    convmeter_hwsim::compile::clear_cache();
    let dir = std::env::temp_dir().join(format!(
        "convmeter-jobs-parity-{}-{jobs}-{}",
        experiments.len(),
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let config = EngineConfig {
        jobs,
        use_disk_cache: false,
        results_dir: dir.clone(),
        fault: Default::default(),
    };
    let report = Engine::select(experiments, config)
        .expect("registered experiments")
        .run()
        .expect("run succeeds");
    let lanes = session.metrics_snapshot().histograms["linalg.qr.lanes"].clone();
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
    (hashes, spans, lanes)
}

#[test]
fn jobs_2_matches_jobs_1_in_artefacts_and_span_totals() {
    let (hashes_1, spans_1, _) = run(&EVALUATING, 1);
    let (hashes_2, spans_2, _) = run(&EVALUATING, 2);
    assert_eq!(hashes_1.len(), EVALUATING.len(), "{hashes_1:?}");
    assert_eq!(
        hashes_1, hashes_2,
        "artefacts differ between --jobs 1 and 2"
    );
    // Contamination fits its five rates in one robust call.
    assert_eq!(spans_1["linalg.robust_fit"], 1, "{spans_1:?}");
    assert_eq!(
        spans_1, spans_2,
        "manifest span totals differ between --jobs 1 and 2"
    );
}

#[test]
fn leave_one_model_out_and_contamination_factor_in_lockstep() {
    let (_, _, lanes) = run(&["table1", "table3", "contamination"], 1);
    // The histogram's sum is the designs factored; a group of one lands in
    // bucket 1 (widths 2–3 in bucket 2, 4 in bucket 3).
    let alone: u64 = lanes
        .buckets
        .iter()
        .filter(|&&(bucket, _)| bucket == 1)
        .map(|&(_, groups)| groups)
        .sum();
    let designs = lanes.sum;
    assert!(designs > 0, "{lanes:?}");
    assert!(
        5 * (designs - alone) >= 4 * designs,
        "{alone} of {designs} designs were factored alone: {lanes:?}"
    );
}
