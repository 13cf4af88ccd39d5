//! Training experiments: Table 3, Figure 5 (single GPU), Figure 7
//! (distributed). All render a leave-one-model-out phase evaluation.

use crate::report::Table;
use convmeter::prelude::*;
use convmeter_linalg::stats::ErrorReport;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Leave-one-model-out evaluation of all phases on a training dataset
/// (single-GPU for Figure 5, distributed for Figure 7). The engine's
/// experiments read the same evaluation memoised in the
/// [`DatasetStore`](crate::engine::DatasetStore) instead.
///
/// # Panics
/// Panics if a fold's training fit fails; callers pass the fixed in-repo
/// sweep datasets.
pub fn evaluate_phases(points: &[TrainingPoint]) -> TrainingPhasesResult {
    leave_one_model_out_training(points).expect("training fit")
}

/// Result of Table 3: single-GPU and distributed per-model step errors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Result {
    /// Single-GPU per-model reports.
    pub single: Vec<PerModelReport>,
    /// Distributed per-model reports.
    pub distributed: Vec<PerModelReport>,
    /// Overall single-GPU step metrics.
    pub single_overall: ErrorReport,
    /// Overall distributed step metrics.
    pub distributed_overall: ErrorReport,
}

/// Assemble Table 3 from two phase evaluations. The engine passes the
/// store's memoised single-GPU and distributed evaluations, the same ones
/// Figures 5 and 7 render, so Table 3 refits nothing.
pub fn table3(single: &TrainingPhasesResult, distributed: &TrainingPhasesResult) -> Table3Result {
    Table3Result {
        single_overall: single.overall,
        distributed_overall: distributed.overall,
        single: single.per_model.clone(),
        distributed: distributed.per_model.clone(),
    }
}

/// Render Table 3.
pub fn render_table3(result: &Table3Result) -> String {
    let mut t = Table::new(
        "Table 3: training-step prediction per ConvNet (leave-one-model-out)",
        &[
            "model",
            "1-GPU R2",
            "1-GPU RMSE",
            "1-GPU MAPE",
            "multi R2",
            "multi RMSE",
            "multi MAPE",
        ],
    );
    for (s, d) in result.single.iter().zip(&result.distributed) {
        assert_eq!(s.model, d.model);
        t.row(vec![
            s.model.clone(),
            format!("{:.2}", s.report.r2),
            format!("{:.1} ms", s.report.rmse * 1e3),
            format!("{:.2}", s.report.mape),
            format!("{:.2}", d.report.r2),
            format!("{:.1} ms", d.report.rmse * 1e3),
            format!("{:.2}", d.report.mape),
        ]);
    }
    let mut out = t.render();
    let _ = writeln!(
        out,
        "\nOverall:\n  single GPU:  {}\n  distributed: {}\n  Paper: single R2=0.88 RMSE=29.4ms NRMSE=0.26 MAPE=0.18 | multi R2=0.78 RMSE=38.7ms NRMSE=0.18 MAPE=0.15\n",
        result.single_overall, result.distributed_overall
    );
    out
}

/// Render a phase evaluation (Figure 5 or 7) under the given title.
pub fn render_phases(title: &str, result: &TrainingPhasesResult) -> String {
    let mut t = Table::new(
        title,
        &["phase", "points", "R2", "RMSE (ms)", "NRMSE", "MAPE"],
    );
    for p in &result.phases {
        t.row(vec![
            p.phase.clone(),
            p.points.len().to_string(),
            format!("{:.3}", p.report.r2),
            format!("{:.2}", p.report.rmse * 1e3),
            format!("{:.3}", p.report.nrmse),
            format!("{:.3}", p.report.mape),
        ]);
    }
    let mut out = t.render();
    out.push('\n');
    out
}
