//! Block-wise experiments: Table 2 and Figure 4.
//!
//! "As blocks are subsets of neural networks, they are small neural networks
//! themselves, to which we can apply our previously defined inference time
//! performance model" (Section 3.1). We therefore apply exactly the Table 1
//! protocol at block granularity: benchmark the nine Table 2 blocks, then
//! evaluate each block with a model fitted on the *other* blocks' data
//! (leave-one-block-out), so every prediction is for an unseen block.

use crate::blocks::TABLE2_BLOCKS;
use crate::report::Table;
use convmeter::prelude::*;
use convmeter_linalg::stats::ErrorReport;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Result of the block-wise evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Result {
    /// Per-block error reports (Table 2 rows).
    pub per_block: Vec<PerModelReport>,
    /// All block scatter points (Figure 4).
    pub scatter: Vec<ScatterPoint>,
    /// Overall metrics across every held-out block prediction.
    pub overall: ErrorReport,
}

/// Assemble Table 2 from the leave-one-block-out evaluation of a
/// block-level benchmark dataset (see [`crate::blocks::block_dataset`]).
pub fn table2(blocks: &InferenceEvaluation) -> Table2Result {
    let (per_block, scatter, overall) = blocks;
    let mut per_block = per_block.clone();
    // Order rows as in the paper's Table 2.
    per_block.sort_by_key(|r| {
        TABLE2_BLOCKS
            .iter()
            .position(|&(b, _)| b == r.model)
            .unwrap_or(usize::MAX)
    });
    Table2Result {
        per_block,
        scatter: scatter.clone(),
        overall: *overall,
    }
}

/// Render the Table 2 result.
pub fn render_table2(result: &Table2Result) -> String {
    let mut t = Table::new(
        "Table 2: block-wise inference prediction (GPU, leave-one-block-out)",
        &["block", "source model", "RMSE (ms)", "NRMSE", "MAPE"],
    );
    for r in &result.per_block {
        let source = TABLE2_BLOCKS
            .iter()
            .find(|&&(b, _)| b == r.model)
            .map_or("?", |&(_, s)| s);
        t.row(vec![
            r.model.clone(),
            source.to_string(),
            format!("{:.2}", r.report.rmse * 1e3),
            format!("{:.2}", r.report.nrmse),
            format!("{:.2}", r.report.mape),
        ]);
    }
    let mut out = t.render();
    let _ = writeln!(
        out,
        "\nFigure 4 overall: {}\nPaper: R2=0.997, RMSE=0.67 ms, NRMSE=0.15, MAPE=0.16; per-block MAPE 0.09-0.37.\n",
        result.overall
    );
    out
}
