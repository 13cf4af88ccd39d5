//! Inference experiments: Table 1, Figure 2, Figure 3.
//!
//! Each experiment takes its benchmark dataset(s) and their
//! leave-one-model-out evaluations as input — the engine resolves and
//! caches both — computes a serialisable result, and renders it as text
//! separately.

use crate::report::Table;
use convmeter::prelude::*;
use convmeter_baselines::{Metric, SingleMetricModel};
use convmeter_linalg::stats::ErrorReport;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Result of the Table 1 experiment: per-ConvNet leave-one-model-out errors
/// on both devices, plus overall in-sample metrics (the Figure 3 headline
/// numbers).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Result {
    /// Per-model CPU reports.
    pub cpu: Vec<PerModelReport>,
    /// Per-model GPU reports.
    pub gpu: Vec<PerModelReport>,
    /// Overall in-sample CPU metrics.
    pub cpu_overall: ErrorReport,
    /// Overall in-sample GPU metrics.
    pub gpu_overall: ErrorReport,
}

fn in_sample_overall(points: &[InferencePoint]) -> ErrorReport {
    let model = ForwardModel::fit(points).expect("paper sweep is fittable");
    let preds: Vec<f64> = points.iter().map(|p| model.predict(&p.metrics)).collect();
    let meas: Vec<f64> = points.iter().map(|p| p.measured).collect();
    ErrorReport::compute(&preds, &meas)
}

/// Run Table 1: inference prediction accuracy per ConvNet on the given CPU
/// and GPU benchmark datasets and their leave-one-model-out evaluations.
pub fn table1(
    cpu_data: &[InferencePoint],
    cpu_eval: &InferenceEvaluation,
    gpu_data: &[InferencePoint],
    gpu_eval: &InferenceEvaluation,
) -> Table1Result {
    Table1Result {
        cpu: cpu_eval.0.clone(),
        gpu: gpu_eval.0.clone(),
        cpu_overall: in_sample_overall(cpu_data),
        gpu_overall: in_sample_overall(gpu_data),
    }
}

/// Render the Table 1 result.
pub fn render_table1(result: &Table1Result) -> String {
    let mut t = Table::new(
        "Table 1: per-ConvNet inference prediction (leave-one-model-out)",
        &[
            "model",
            "CPU R2",
            "CPU RMSE",
            "CPU NRMSE",
            "CPU MAPE",
            "GPU R2",
            "GPU RMSE",
            "GPU NRMSE",
            "GPU MAPE",
        ],
    );
    for (c, g) in result.cpu.iter().zip(&result.gpu) {
        assert_eq!(c.model, g.model);
        t.row(vec![
            c.model.clone(),
            format!("{:.2}", c.report.r2),
            format!("{:.3} s", c.report.rmse),
            format!("{:.2}", c.report.nrmse),
            format!("{:.2}", c.report.mape),
            format!("{:.2}", g.report.r2),
            format!("{:.2} ms", g.report.rmse * 1e3),
            format!("{:.2}", g.report.nrmse),
            format!("{:.2}", g.report.mape),
        ]);
    }
    let mut out = t.render();
    let _ = writeln!(
        out,
        "\nOverall (all-data fit, Figure 3 protocol):\n  CPU: {}\n  GPU: {}\n  Paper:  CPU R2=0.98 RMSE=0.59s NRMSE=0.13 MAPE=0.25 | GPU R2=0.96 RMSE=8.8ms NRMSE=0.13 MAPE=0.17\n",
        result.cpu_overall, result.gpu_overall
    );
    out
}

/// One Figure 2 series: a metric choice and its in-sample fit quality.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Series {
    /// Metric name (`flops`, `inputs`, `outputs`, `combined`).
    pub metric: String,
    /// In-sample fit quality on the GPU inference sweep.
    pub report: ErrorReport,
    /// Scatter points (measured, predicted) for plotting.
    pub scatter: Vec<(f64, f64)>,
}

/// Run Figure 2: predict GPU inference time from each single metric and
/// from the combined (F, I, O) model, on the given GPU dataset.
pub fn fig2(data: &[InferencePoint]) -> Vec<Fig2Series> {
    let meas: Vec<f64> = data.iter().map(|p| p.measured).collect();
    let mut out = Vec::new();
    for metric in Metric::all() {
        let pairs: Vec<(convmeter_metrics::BatchMetrics, f64)> =
            data.iter().map(|p| (p.metrics, p.measured)).collect();
        let model = SingleMetricModel::fit(metric, &pairs).expect("single metric fit");
        let preds: Vec<f64> = data.iter().map(|p| model.predict(&p.metrics)).collect();
        out.push(Fig2Series {
            metric: metric.name().to_string(),
            report: ErrorReport::compute(&preds, &meas),
            scatter: meas.iter().copied().zip(preds).collect(),
        });
    }
    let combined = ForwardModel::fit(data).expect("combined fit");
    let preds: Vec<f64> = data.iter().map(|p| combined.predict(&p.metrics)).collect();
    out.push(Fig2Series {
        metric: "combined".to_string(),
        report: ErrorReport::compute(&preds, &meas),
        scatter: meas.iter().copied().zip(preds).collect(),
    });
    out
}

/// Render the Figure 2 result.
pub fn render_fig2(series: &[Fig2Series]) -> String {
    let mut t = Table::new(
        "Figure 2: inference prediction by metric (GPU, in-sample)",
        &["metric", "R2", "RMSE (ms)", "NRMSE", "MAPE"],
    );
    for s in series {
        t.row(vec![
            s.metric.clone(),
            format!("{:.3}", s.report.r2),
            format!("{:.2}", s.report.rmse * 1e3),
            format!("{:.3}", s.report.nrmse),
            format!("{:.3}", s.report.mape),
        ]);
    }
    let mut out = t.render();
    out.push_str("\nPaper: combining all three metrics gives the most accurate prediction.\n\n");
    out
}

/// Figure 3 result: measured-vs-predicted scatter for both devices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Result {
    /// CPU scatter (leave-one-model-out held-out predictions).
    pub cpu_scatter: Vec<ScatterPoint>,
    /// GPU scatter.
    pub gpu_scatter: Vec<ScatterPoint>,
    /// Overall held-out CPU metrics.
    pub cpu_overall: ErrorReport,
    /// Overall held-out GPU metrics.
    pub gpu_overall: ErrorReport,
}

/// Run Figure 3: full scatter of measured vs. predicted inference times
/// from the CPU and GPU leave-one-model-out evaluations.
pub fn fig3(cpu_eval: &InferenceEvaluation, gpu_eval: &InferenceEvaluation) -> Fig3Result {
    Fig3Result {
        cpu_scatter: cpu_eval.1.clone(),
        gpu_scatter: gpu_eval.1.clone(),
        cpu_overall: cpu_eval.2,
        gpu_overall: gpu_eval.2,
    }
}

/// Render the Figure 3 result.
pub fn render_fig3(result: &Fig3Result) -> String {
    let mut t = Table::new(
        "Figure 3: measured vs predicted inference time (held-out)",
        &["device", "points", "R2", "NRMSE", "MAPE"],
    );
    t.row(vec![
        "CPU (Xeon core)".into(),
        result.cpu_scatter.len().to_string(),
        format!("{:.3}", result.cpu_overall.r2),
        format!("{:.3}", result.cpu_overall.nrmse),
        format!("{:.3}", result.cpu_overall.mape),
    ]);
    t.row(vec![
        "GPU (A100)".into(),
        result.gpu_scatter.len().to_string(),
        format!("{:.3}", result.gpu_overall.r2),
        format!("{:.3}", result.gpu_overall.nrmse),
        format!("{:.3}", result.gpu_overall.mape),
    ]);
    let mut out = t.render();
    out.push('\n');
    out
}
