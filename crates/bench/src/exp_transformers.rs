//! Future-work extension: vision transformers.
//!
//! The paper closes with "we aim to analyze other DNNs, such as language
//! models and vision transformers", arguing the same analogy applies "with
//! minor effort". This experiment performs that transfer: benchmark the ViT
//! family on the simulated A100 and fit exactly the same 4-coefficient
//! linear pipeline, with the paper's conv-layer I/O sums generalised to the
//! dominant compute layers (token linears + attention) — the literal "same
//! analogy". Evaluation is leave-one-model-out, as in Table 1.

use crate::report::Table;
use convmeter::prelude::*;
use convmeter_hwsim::{expected_inference_time, NoiseModel};
use convmeter_linalg::stats::ErrorReport;
use convmeter_metrics::{ModelId, ModelMetrics};
use convmeter_models::vit::{vit_b_16, vit_b_32, vit_l_16};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One ViT model's held-out evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VitRow {
    /// Model name.
    pub model: String,
    /// Error metrics.
    pub report: ErrorReport,
}

/// The whole vision-transformer transfer experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransformersResult {
    /// Per-model rows.
    pub rows: Vec<VitRow>,
    /// Metrics across every held-out point.
    pub overall: ErrorReport,
}

/// Run the ViT transfer: benchmark the ViT family on the simulated A100
/// and evaluate the unchanged ConvMeter pipeline leave-one-model-out.
pub fn run() -> TransformersResult {
    let device = DeviceProfile::a100_80gb();
    type Builder = fn(usize, usize) -> convmeter_graph::Graph;
    let builders: [(&str, Builder); 3] = [
        ("vit_b_32", vit_b_32),
        ("vit_b_16", vit_b_16),
        ("vit_l_16", vit_l_16),
    ];
    // Image sizes divisible by both patch sizes.
    let images = [96usize, 160, 224, 288];
    let batches = [1usize, 2, 4, 8, 16, 32, 64, 128, 256];

    // Collect the benchmark dataset.
    let mut points: Vec<InferencePoint> = Vec::new();
    for (name, build) in builders {
        for &image in &images {
            let metrics = ModelMetrics::of(&build(image, 1000)).expect("vits validate");
            for (bi, &batch) in batches.iter().enumerate() {
                let mut noise =
                    NoiseModel::new(0x517 + bi as u64 * 977 + image as u64, device.noise_sigma);
                let measured = noise.jitter(expected_inference_time(&device, &metrics, batch));
                if measured > 0.25 {
                    continue; // same runtime cap policy as the CNN sweeps
                }
                points.push(InferencePoint {
                    model: ModelId::intern(name),
                    image_size: image,
                    batch,
                    metrics: metrics.at_batch(batch),
                    measured,
                });
            }
        }
    }

    // Leave-one-model-out with the unchanged ConvMeter pipeline.
    let (reports, _, overall) = leave_one_model_out_inference(&points).expect("vit loocv");
    TransformersResult {
        rows: reports
            .into_iter()
            .map(|r| VitRow {
                model: r.model,
                report: r.report,
            })
            .collect(),
        overall,
    }
}

/// Render the ViT transfer result.
pub fn render(result: &TransformersResult) -> String {
    let mut t = Table::new(
        "Extension: ConvMeter on vision transformers (A100 sim, held-out)",
        &["model", "points", "R2", "NRMSE", "MAPE"],
    );
    for r in &result.rows {
        t.row(vec![
            r.model.clone(),
            r.report.n.to_string(),
            format!("{:.3}", r.report.r2),
            format!("{:.3}", r.report.nrmse),
            format!("{:.3}", r.report.mape),
        ]);
    }
    let mut out = t.render();
    let _ = writeln!(
        out,
        "\nOverall: {}\nPaper (outlook): \"the same analogy can potentially be applied ... with\nminor effort\". The minor effort is one definition change: I/O sums over\ntoken ops instead of convolutions. Four coefficients still suffice.\n",
        result.overall
    );
    out
}
