//! Ablation studies for the design choices called out in DESIGN.md §6:
//!
//! 1. metric subsets (single, pairs, full triple) for the forward model,
//! 2. leave-one-model-out vs in-sample fitting,
//! 3. intercept `c4` on/off,
//! 4. ridge damping levels,
//! 5. fused 7-coefficient backward+gradient vs independently fitted phases,
//! 6. error breakdown by batch size (the paper's "prediction is more
//!    accurate for larger batch sizes" claim, quantified),
//! 7. BatchNorm folding: metrics and predictions on deployment-style
//!    (BN-folded) graphs vs the training-style graphs.

use crate::report::Table;
use convmeter::features::forward_features;
use convmeter::prelude::*;
use convmeter_linalg::stats::ErrorReport;
use convmeter_linalg::LinearRegression;
use serde::{Deserialize, Serialize};

/// One (study, variant) outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationOutcome {
    /// Study name (`metric-subsets`, `ridge`, ...).
    pub name: String,
    /// Variant within the study.
    pub variant: String,
    /// Fit quality of the variant.
    pub report: ErrorReport,
}

/// One BatchNorm-folding row (ablation 7).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BnFoldRow {
    /// Model name.
    pub model: String,
    /// Node count of the training-style graph.
    pub nodes: usize,
    /// Node count after BN folding.
    pub folded_nodes: usize,
    /// Relative parameter-count change, percent.
    pub param_delta_pct: f64,
    /// Relative predicted-runtime change at batch 32, percent.
    pub pred_delta_pct: f64,
}

/// All ablation outcomes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationsResult {
    /// Studies 1–6 as (study, variant, report) outcomes.
    pub outcomes: Vec<AblationOutcome>,
    /// Study 7: BN-folding deltas.
    pub bn_fold: Vec<BnFoldRow>,
}

fn fit_subset(
    data: &[InferencePoint],
    columns: &[usize],
    intercept: bool,
    ridge: f64,
) -> ErrorReport {
    // One flat buffer of `columns.len()`-wide rows, viewed row by row.
    let flat: Vec<f64> = data
        .iter()
        .flat_map(|p| {
            let f = forward_features(&p.metrics);
            columns.iter().map(move |&c| f[c])
        })
        .collect();
    let xs: Vec<&[f64]> = flat.chunks_exact(columns.len()).collect();
    let ys: Vec<f64> = data.iter().map(|p| p.measured).collect();
    let reg = LinearRegression::new()
        .with_intercept(intercept)
        .with_ridge(ridge)
        .fit(&xs, &ys)
        .expect("ablation fit");
    ErrorReport::compute(&reg.predict_batch(&xs), &ys)
}

/// Run every ablation on the GPU inference dataset (with its
/// leave-one-model-out evaluation) and the distributed training dataset.
pub fn run(
    data: &[InferencePoint],
    held_out: &InferenceEvaluation,
    dist: &[TrainingPoint],
) -> AblationsResult {
    let mut outcomes = Vec::new();

    // 1. Metric subsets.
    let subsets: &[(&str, &[usize])] = &[
        ("F", &[0]),
        ("I", &[1]),
        ("O", &[2]),
        ("F+I", &[0, 1]),
        ("F+O", &[0, 2]),
        ("I+O", &[1, 2]),
        ("F+I+O", &[0, 1, 2]),
    ];
    for &(name, cols) in subsets {
        outcomes.push(AblationOutcome {
            name: "metric-subsets".into(),
            variant: name.into(),
            report: fit_subset(data, cols, true, 1e-6),
        });
    }

    // 2. LOOCV vs in-sample.
    let (_, scatter, held_out) = held_out;
    for (name, report) in [
        ("in-sample", fit_subset(data, &[0, 1, 2], true, 1e-6)),
        ("leave-one-model-out", *held_out),
    ] {
        outcomes.push(AblationOutcome {
            name: "generalisation".into(),
            variant: name.into(),
            report,
        });
    }

    // 3. Intercept on/off.
    for (name, on) in [("with c4", true), ("without c4", false)] {
        outcomes.push(AblationOutcome {
            name: "intercept".into(),
            variant: name.into(),
            report: fit_subset(data, &[0, 1, 2], on, 1e-6),
        });
    }

    // 4. Ridge levels.
    for lambda in [1e-9, 1e-6, 1e-3, 1.0] {
        outcomes.push(AblationOutcome {
            name: "ridge".into(),
            variant: format!("{lambda:.0e}"),
            report: fit_subset(data, &[0, 1, 2], true, lambda),
        });
    }

    // 5. Training-model composition on the distributed dataset.
    let model = TrainingModel::fit(dist).expect("training fit");
    let meas: Vec<f64> = dist
        .iter()
        .map(convmeter::TrainingPoint::step_time)
        .collect();
    let fused: Vec<f64> = dist
        .iter()
        .map(|p| model.predict_step(&p.metrics, p.nodes))
        .collect();
    let separate: Vec<f64> = dist
        .iter()
        .map(|p| {
            model.predict_forward(&p.metrics)
                + model.predict_backward(&p.metrics)
                + model.predict_grad_update(&p.metrics, p.nodes)
        })
        .collect();
    for (name, preds) in [("fused (7 coef)", &fused), ("separate phases", &separate)] {
        outcomes.push(AblationOutcome {
            name: "fused-vs-separate".into(),
            variant: name.into(),
            report: ErrorReport::compute(preds, &meas),
        });
    }

    // 6. Error breakdown by batch size, on the held-out scatter from (2).
    for (batch, r) in convmeter::breakdown_by(scatter, |s| s.batch) {
        outcomes.push(AblationOutcome {
            name: "by-batch".into(),
            variant: batch.to_string(),
            report: r,
        });
    }

    // 7. BatchNorm folding.
    let fwd_model = {
        let xs: Vec<[f64; 3]> = data.iter().map(|p| forward_features(&p.metrics)).collect();
        let ys: Vec<f64> = data.iter().map(|p| p.measured).collect();
        convmeter::ForwardModel::fit_raw(&xs, &ys).expect("fit")
    };
    let mut bn_fold = Vec::new();
    for name in ["resnet50", "mobilenet_v2", "densenet121"] {
        let graph = convmeter_models::zoo::by_name(name)
            .unwrap()
            .build(224, 1000);
        let folded = convmeter_graph::fold_batch_norm(&graph);
        let m = convmeter_metrics::ModelMetrics::of(&graph).unwrap();
        let mf = convmeter_metrics::ModelMetrics::of(&folded).unwrap();
        let p = fwd_model.predict_metrics(&m, 32);
        let pf = fwd_model.predict_metrics(&mf, 32);
        bn_fold.push(BnFoldRow {
            model: name.into(),
            nodes: graph.len(),
            folded_nodes: folded.len(),
            param_delta_pct: (mf.weights as f64 / m.weights as f64 - 1.0) * 100.0,
            pred_delta_pct: (pf / p - 1.0) * 100.0,
        });
    }

    AblationsResult { outcomes, bn_fold }
}

/// Render every ablation study as one text block.
pub fn render(result: &AblationsResult) -> String {
    let studies: &[(&str, &str, bool)] = &[
        (
            "metric-subsets",
            "Ablation 1: metric subsets (GPU inference, in-sample)",
            false,
        ),
        (
            "generalisation",
            "Ablation 2: generalisation (GPU inference)",
            false,
        ),
        (
            "intercept",
            "Ablation 3: intercept c4 (GPU inference, in-sample)",
            false,
        ),
        (
            "ridge",
            "Ablation 4: ridge damping (GPU inference, in-sample)",
            false,
        ),
        (
            "fused-vs-separate",
            "Ablation 5: fused bwd+grad vs separate phases (distributed, in-sample)",
            false,
        ),
        (
            "by-batch",
            "Ablation 6: held-out error by batch size (GPU inference)",
            true,
        ),
    ];
    let mut out = String::new();
    for &(name, title, with_points) in studies {
        let headers: &[&str] = if with_points {
            &["variant", "points", "R2", "MAPE"]
        } else {
            &["variant", "R2", "MAPE"]
        };
        let mut t = Table::new(title, headers);
        for o in result.outcomes.iter().filter(|o| o.name == name) {
            let mut cells = vec![o.variant.clone()];
            if with_points {
                cells.push(o.report.n.to_string());
            }
            cells.push(format!("{:.3}", o.report.r2));
            cells.push(format!("{:.3}", o.report.mape));
            t.row(cells);
        }
        out.push_str(&t.render());
        out.push('\n');
        if name == "by-batch" {
            out.push_str("Paper: \"the prediction is more accurate for larger batch sizes.\"\n\n");
        }
    }
    let mut t = Table::new(
        "Ablation 7: BN folding (metrics deltas at 224 px)",
        &[
            "model",
            "nodes",
            "folded nodes",
            "param delta",
            "pred delta (b32)",
        ],
    );
    for r in &result.bn_fold {
        t.row(vec![
            r.model.clone(),
            r.nodes.to_string(),
            r.folded_nodes.to_string(),
            format!("{:+.2} %", r.param_delta_pct),
            format!("{:+.2} %", r.pred_delta_pct),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\nDeployment runtimes fold BN into convolutions; the prediction shift is the\nbias incurred by fitting on unfolded graphs and predicting folded ones.\n\n");
    out
}
