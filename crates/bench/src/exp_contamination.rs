//! Contamination ablation: how fast do OLS and the Huber robust fit
//! degrade as measurement outliers are injected into the fitting set?
//!
//! The study manufactures an *exactly linear* ground truth by fitting a
//! clean OLS model (Eq. 2) to the GPU inference sweep and taking its own
//! predictions as the target vector. Both estimators then recover the
//! truth perfectly at 0 % contamination — the robust report's
//! `ols_identical` flag pins the bit-for-bit no-contamination guarantee —
//! and every error at higher rates is attributable to the injected
//! outliers alone, not to residual sweep noise.
//!
//! Contamination is deterministic: indices are ranked by an FNV-1a hash,
//! so the corrupted set at 5 % is a strict subset of the set at 10 %, and
//! a corrupted sample's measured time is spiked by a hash-derived factor
//! of 10–49× (a straggler, not a NaN — NaNs are dropped upstream by the
//! dataset builders and never reach a fit).

use crate::report::Table;
use convmeter::features::forward_features;
use convmeter::prelude::*;
use convmeter_linalg::stats::ErrorReport;
use convmeter_linalg::{HuberRegression, LinearRegression, RobustFit, RobustReport};
use serde::{Deserialize, Serialize};

/// Contamination rates swept by the study.
pub const RATES: [f64; 5] = [0.0, 0.05, 0.10, 0.15, 0.20];

/// Salt for the index-ranking hash, so the corrupted subset is a property
/// of the study, not of unrelated hashing elsewhere in the workspace.
const CONTAMINATION_SALT: u64 = 0xC0_27A3;

/// One contamination level's outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContaminationRow {
    /// Fraction of samples corrupted.
    pub rate: f64,
    /// Number of samples actually corrupted (`floor(rate · n)`).
    pub corrupted: usize,
    /// OLS fit quality against the clean truth.
    pub ols: ErrorReport,
    /// Robust (Huber IRLS + trimmed refit) fit quality against the truth.
    pub robust: ErrorReport,
    /// Contamination diagnostics of the robust fit.
    pub report: RobustReport,
    /// True when the robust coefficients are bit-identical to the OLS
    /// coefficients (expected exactly at 0 % contamination).
    pub coefficients_identical: bool,
}

/// The full ablation: one row per contamination rate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContaminationResult {
    /// Sample count of the underlying dataset.
    pub n: usize,
    /// Per-rate outcomes, in [`RATES`] order.
    pub rows: Vec<ContaminationRow>,
}

fn fnv1a(seed: u64, value: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64 ^ seed;
    for b in value.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Rank every index by its salted hash: the first `k` entries are the
/// corrupted set at `k` injected outliers, so sets nest across rates.
fn corruption_order(n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (fnv1a(CONTAMINATION_SALT, i as u64), i));
    order
}

/// Run the contamination sweep on an inference dataset.
///
/// The fits are deliberately ridge-free: with `λ = 0` the clean OLS fit of
/// its own predictions interpolates to machine precision, so the robust
/// path's clean-data short-circuit fires and the 0 % row is bit-identical
/// by construction rather than merely close.
pub fn run(points: &[InferencePoint]) -> ContaminationResult {
    let xs: Vec<[f64; 3]> = points
        .iter()
        .map(|p| forward_features(&p.metrics))
        .collect();
    let measured: Vec<f64> = points.iter().map(|p| p.measured).collect();

    // Exact-linear ground truth: the clean OLS fit's own predictions.
    let clean = LinearRegression::new()
        .fit(&xs, &measured)
        .expect("clean fit");
    let truth: Vec<f64> = clean.predict_batch(&xs);

    // One corrupted target per rate, all fitted in one robust call: one
    // factorisation of the design serves every rate's OLS fit (the robust
    // fit's base), and the rates' IRLS steps and trimmed refits are
    // factored together.
    let order = corruption_order(points.len());
    let corrupted = RATES.map(|rate| (rate * points.len() as f64).round() as usize);
    let targets = corrupted.map(|corrupted| {
        let mut ys = truth.clone();
        for &i in &order[..corrupted] {
            // Straggler spike: 10–49× the true time, hash-derived.
            let factor = 10.0 + (fnv1a(CONTAMINATION_SALT ^ 1, i as u64) % 40) as f64;
            ys[i] *= factor;
        }
        ys
    });
    let fits = HuberRegression::new()
        .fit_targets(&xs, targets.each_ref().map(Vec::as_slice))
        .expect("robust fit");

    let rows = RATES
        .into_iter()
        .zip(corrupted)
        .zip(fits)
        .map(|((rate, corrupted), fit)| {
            let RobustFit { ols, model, report } = fit;
            let coefficients_identical = ols.coefficients() == model.coefficients()
                && ols.intercept().to_bits() == model.intercept().to_bits();
            ContaminationRow {
                rate,
                corrupted,
                ols: ErrorReport::compute(&ols.predict_batch(&xs), &truth),
                robust: ErrorReport::compute(&model.predict_batch(&xs), &truth),
                report,
                coefficients_identical,
            }
        })
        .collect();
    ContaminationResult {
        n: points.len(),
        rows,
    }
}

/// Render the ablation as one table.
pub fn render(result: &ContaminationResult) -> String {
    let mut t = Table::new(
        format!(
            "Contamination ablation: OLS vs Huber on {} GPU inference points",
            result.n
        ),
        &[
            "rate",
            "corrupted",
            "OLS MAPE",
            "robust MAPE",
            "flagged",
            "identical",
        ],
    );
    for r in &result.rows {
        t.row(vec![
            format!("{:.0} %", r.rate * 100.0),
            r.corrupted.to_string(),
            format!("{:.3}", r.ols.mape),
            format!("{:.3}", r.robust.mape),
            r.report.outliers.to_string(),
            if r.coefficients_identical {
                "yes"
            } else {
                "no"
            }
            .to_string(),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "\nGround truth is the clean OLS fit's own (exactly linear) predictions, so\n\
         both estimators score MAPE 0 at 0 % and every later error is caused by\n\
         the injected straggler spikes alone. The Huber + trimmed refit holds its\n\
         error while plain OLS degrades with every corrupted sample.\n\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use convmeter::dataset::inference_dataset;
    use convmeter_hwsim::{DeviceProfile, SweepConfig};

    fn dataset() -> Vec<InferencePoint> {
        inference_dataset(&DeviceProfile::a100_80gb(), &SweepConfig::quick()).unwrap()
    }

    #[test]
    fn zero_contamination_is_exact_and_identical() {
        let result = run(&dataset());
        let base = &result.rows[0];
        assert_eq!(base.corrupted, 0);
        assert!(base.ols.mape < 1e-6, "OLS MAPE at 0%: {}", base.ols.mape);
        assert!(base.robust.mape < 1e-6);
        assert!(base.report.ols_identical, "robust path touched clean data");
        assert!(base.coefficients_identical);
    }

    #[test]
    fn robust_degrades_strictly_slower_than_ols() {
        let result = run(&dataset());
        for row in &result.rows[1..] {
            assert!(
                row.robust.mape < row.ols.mape,
                "rate {}: robust {} !< ols {}",
                row.rate,
                row.robust.mape,
                row.ols.mape
            );
        }
        // OLS error grows with the contamination level...
        let ols: Vec<f64> = result.rows.iter().map(|r| r.ols.mape).collect();
        assert!(
            ols.windows(2).all(|w| w[0] < w[1]),
            "OLS not monotone: {ols:?}"
        );
        // ...while the robust fit stays within a tight band of the truth.
        let worst = result
            .rows
            .iter()
            .map(|r| r.robust.mape)
            .fold(0.0, f64::max);
        assert!(worst < 5.0, "robust MAPE blew up: {worst}");
    }

    #[test]
    fn injection_is_deterministic_and_nested() {
        let order_a = corruption_order(100);
        let order_b = corruption_order(100);
        assert_eq!(order_a, order_b);
        // The corrupted set at a lower rate is a prefix (subset) of the set
        // at any higher rate by construction.
        assert_eq!(order_a[..5], order_b[..10][..5]);
        let result_a = run(&dataset());
        let result_b = run(&dataset());
        for (a, b) in result_a.rows.iter().zip(&result_b.rows) {
            assert_eq!(a.ols.mape.to_bits(), b.ols.mape.to_bits());
            assert_eq!(a.robust.mape.to_bits(), b.robust.mape.to_bits());
        }
    }
}
