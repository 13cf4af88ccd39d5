//! Out-of-distribution generalisation: fit ConvMeter on the paper's
//! 17-model benchmark zoo, then predict the *extended* architectures it
//! has never seen — deeper ResNets/VGGs/DenseNets, compound-scaled
//! EfficientNets, RegNetY with SE, MobileNetV3-Small, and ShuffleNetV2
//! (whose channel-shuffle ops do not even occur in the training set).
//!
//! This is the strongest version of the paper's "predicting new unseen
//! ConvNets without extra tuning steps" claim: the held-out networks are
//! entire unseen *families*, not one member of a family seen in training.

use crate::report::Table;
use convmeter::prelude::*;
use convmeter_hwsim::{expected_inference_time, NoiseModel};
use convmeter_linalg::stats::ErrorReport;
use convmeter_metrics::ModelMetrics;
use convmeter_models::zoo;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One extended-zoo model's out-of-distribution evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtendedRow {
    /// Model name.
    pub model: String,
    /// Evaluated points.
    pub points: usize,
    /// Points whose measurement fell inside the 95 % prediction interval.
    pub covered: usize,
    /// Error metrics.
    pub report: ErrorReport,
}

/// The whole extended-zoo evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtendedZooResult {
    /// Per-model rows.
    pub rows: Vec<ExtendedRow>,
    /// Metrics across every unseen-family point.
    pub overall: ErrorReport,
}

/// Run the extended-zoo evaluation: fit on the paper-zoo GPU sweep
/// (`train`), predict every [`zoo::EXTENDED_ZOO`] architecture.
pub fn run(train: &[InferencePoint]) -> ExtendedZooResult {
    let device = DeviceProfile::a100_80gb();
    let model = ForwardModel::fit(train).expect("fit");
    let profile = model.residual_profile(train);

    let batches = [1usize, 4, 16, 64, 256];
    let images = [64usize, 128, 224];
    let mut rows = Vec::new();
    let mut all_pred = Vec::new();
    let mut all_meas = Vec::new();
    for spec in zoo::EXTENDED_ZOO {
        let mut preds = Vec::new();
        let mut meas = Vec::new();
        let mut covered = 0usize;
        for &image in &images {
            if !spec.supports(image) {
                continue;
            }
            let metrics = ModelMetrics::of(&spec.build(image, 1000)).expect("zoo validates");
            for (bi, &batch) in batches.iter().enumerate() {
                let mut noise =
                    NoiseModel::new(0xE07 + bi as u64 * 131 + image as u64, device.noise_sigma);
                let measured = noise.jitter(expected_inference_time(&device, &metrics, batch));
                let predicted = model.predict_metrics(&metrics, batch);
                let (lo, _, hi) = profile.interval(predicted, 1.96);
                if measured >= lo && measured <= hi {
                    covered += 1;
                }
                preds.push(predicted);
                meas.push(measured);
            }
        }
        rows.push(ExtendedRow {
            model: spec.name.to_string(),
            points: preds.len(),
            covered,
            report: ErrorReport::compute(&preds, &meas),
        });
        all_pred.extend(preds);
        all_meas.extend(meas);
    }
    ExtendedZooResult {
        rows,
        overall: ErrorReport::compute(&all_pred, &all_meas),
    }
}

/// Render the extended-zoo evaluation.
pub fn render(result: &ExtendedZooResult) -> String {
    let mut t = Table::new(
        "Extended zoo: unseen architecture families (fit on the paper's 17 models)",
        &["model", "points", "R2", "MAPE", "in 95% interval"],
    );
    for r in &result.rows {
        t.row(vec![
            r.model.clone(),
            r.points.to_string(),
            format!("{:.3}", r.report.r2),
            format!("{:.3}", r.report.mape),
            format!("{}/{}", r.covered, r.points),
        ]);
    }
    let mut out = t.render();
    let _ = writeln!(
        out,
        "\nOverall on {} unseen-family points: {}\n(The paper's Table 1 holds out one model at a time; this holds out whole families.)\n",
        result.overall.n, result.overall
    );
    out
}
