//! Lint passes for *fitted* models and benchmark datasets.
//!
//! The graph lints (`convmeter-graph`'s `lint` module) validate what goes
//! *into* ConvMeter; the passes here validate what comes *out*: fitted
//! coefficients that are NaN/infinite (`CM0101`), negative cost coefficients
//! (`CM0102`), ill-conditioned design matrices (`CM0103`), and benchmark
//! datasets whose measured times are missing or unusable (`CM0104`). They
//! reuse the same [`Diagnostic`]/[`LintReport`] types, so `convmeter lint`
//! renders graph and model findings uniformly.

use crate::dataset::InferencePoint;
use crate::features::forward_features;
use crate::forward::ForwardModel;
use convmeter_graph::{codes, Diagnostic, LintReport};
use convmeter_linalg::{condition_estimate, Matrix};

/// Design matrices whose QR-based condition estimate exceeds this trigger
/// `CM0103`. The estimate is computed after max-abs column scaling (the same
/// normalisation the regression applies), so this measures genuine
/// collinearity, not unit mismatch.
pub const CONDITION_LIMIT: f64 = 1e8;

/// Names for the forward model's coefficient slots, for messages.
const COEFFICIENT_NAMES: [&str; 3] = ["c1 (FLOPs)", "c2 (Inputs)", "c3 (Outputs)"];

/// Lint a fitted forward model's coefficients.
///
/// * `CM0101` (error): a coefficient or the intercept is NaN or infinite —
///   the fit is unusable.
/// * `CM0102` (warning): a metric coefficient is negative. Adding FLOPs or
///   tensor traffic should never *reduce* runtime, so a negative sign means
///   collinear columns traded off against each other; predictions may still
///   be fine in-distribution but extrapolation is suspect.
pub fn lint_forward_model(model: &ForwardModel) -> LintReport {
    let mut diagnostics = Vec::new();
    for (i, &c) in model.coefficients().iter().enumerate() {
        let slot = COEFFICIENT_NAMES.get(i).copied().unwrap_or("coefficient");
        if !c.is_finite() {
            diagnostics.push(Diagnostic::error(
                codes::NONFINITE_COEFFICIENT,
                format!("fitted {slot} is {c} — the model cannot predict"),
            ));
        } else if c < 0.0 {
            diagnostics.push(Diagnostic::warning(
                codes::NEGATIVE_COEFFICIENT,
                format!(
                    "fitted {slot} is negative ({c:.3e}); adding cost should \
                     not reduce runtime — check the dataset for collinearity"
                ),
            ));
        }
    }
    let intercept = model.intercept();
    if !intercept.is_finite() {
        diagnostics.push(Diagnostic::error(
            codes::NONFINITE_COEFFICIENT,
            format!("fitted intercept c4 is {intercept} — the model cannot predict"),
        ));
    } else if intercept < 0.0 {
        diagnostics.push(Diagnostic::warning(
            codes::NEGATIVE_COEFFICIENT,
            format!(
                "fitted intercept c4 is negative ({intercept:.3e}); fixed \
                 per-launch overhead should be non-negative"
            ),
        ));
    }
    LintReport::new(diagnostics)
}

/// Lint a benchmark dataset's measured times.
///
/// * `CM0104` (error): the dataset is empty, or a measured time is NaN,
///   infinite, or non-positive. A regression target like that either aborts
///   the fit or silently poisons every coefficient, so the bench engine
///   refuses such datasets outright (typed as `BadDataset`) instead of
///   fitting garbage. `label` names the dataset in the message (e.g. its
///   cache key).
pub fn lint_measured_times(label: &str, times: &[f64]) -> LintReport {
    let mut diagnostics = Vec::new();
    if times.is_empty() {
        diagnostics.push(Diagnostic::error(
            codes::BAD_MEASUREMENT,
            format!("dataset `{label}` is empty — nothing to fit"),
        ));
        return LintReport::new(diagnostics);
    }
    let bad = times
        .iter()
        .filter(|t| !t.is_finite() || **t <= 0.0)
        .count();
    if bad > 0 {
        diagnostics.push(Diagnostic::error(
            codes::BAD_MEASUREMENT,
            format!(
                "dataset `{label}` has {bad} of {} measured times that are \
                 non-finite or non-positive — corrupted samples must be \
                 dropped before fitting",
                times.len()
            ),
        ));
    }
    LintReport::new(diagnostics)
}

/// Lint a benchmark dataset's forward-feature design matrix.
///
/// * `CM0103` (warning): the (column-scaled) design matrix's condition
///   estimate exceeds [`CONDITION_LIMIT`], or the QR factorisation outright
///   fails — the fitted coefficients are not individually trustworthy even
///   when the fit predicts well.
pub fn lint_design_matrix(points: &[InferencePoint]) -> LintReport {
    let mut diagnostics = Vec::new();
    let rows: Vec<[f64; 3]> = points
        .iter()
        .map(|p| forward_features(&p.metrics))
        .collect();
    if rows.is_empty() {
        return LintReport::new(diagnostics);
    }
    // Max-abs scale each column, mirroring LinearRegression's internal
    // normalisation, so the estimate reflects collinearity rather than the
    // wildly different magnitudes of FLOPs vs element counts.
    let mut scales = [0.0f64; 3];
    for row in &rows {
        for (s, v) in scales.iter_mut().zip(row) {
            *s = s.max(v.abs());
        }
    }
    let scaled: Vec<[f64; 3]> = rows
        .iter()
        .map(|row| {
            let mut out = *row;
            for (v, s) in out.iter_mut().zip(&scales) {
                if *s > 0.0 {
                    *v /= s;
                }
            }
            out
        })
        .collect();
    match condition_estimate(&Matrix::from_rows(&scaled)) {
        Ok(cond) if cond > CONDITION_LIMIT => {
            diagnostics.push(Diagnostic::warning(
                codes::ILL_CONDITIONED,
                format!(
                    "design matrix condition estimate {cond:.2e} exceeds \
                     {CONDITION_LIMIT:.0e}: the metric columns are \
                     near-collinear and individual coefficients are not \
                     identifiable (ridge damping keeps predictions defined)"
                ),
            ));
        }
        Ok(_) => {}
        Err(e) => {
            diagnostics.push(Diagnostic::warning(
                codes::ILL_CONDITIONED,
                format!("design matrix cannot be factored: {e}"),
            ));
        }
    }
    LintReport::new(diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::inference_dataset;
    use convmeter_hwsim::{DeviceProfile, SweepConfig};

    fn dataset() -> Vec<InferencePoint> {
        inference_dataset(&DeviceProfile::a100_80gb(), &SweepConfig::quick()).unwrap()
    }

    #[test]
    fn healthy_fit_has_no_errors() {
        let model = ForwardModel::fit(&dataset()).unwrap();
        let report = lint_forward_model(&model);
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn cm0101_fires_on_nonfinite_coefficients() {
        // A NaN in the fit target propagates into every solved coefficient;
        // the lint must catch the resulting unusable model.
        let xs: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![i as f64 + 1.0, ((i * i) % 7) as f64, (i % 3) as f64])
            .collect();
        let mut ys: Vec<f64> = xs.iter().map(|r| r.iter().sum()).collect();
        ys[0] = f64::NAN;
        let model = ForwardModel::fit_raw(&xs, &ys).unwrap();
        let report = lint_forward_model(&model);
        assert!(
            report.with_code(codes::NONFINITE_COEFFICIENT).count() >= 1,
            "{report}"
        );
        assert!(report.has_errors());
    }

    #[test]
    fn cm0102_fires_on_negative_coefficients() {
        // A target that *decreases* as the first feature grows forces a
        // negative c1: physically impossible for a cost model, so a warning.
        let xs: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![i as f64, ((i * 3) % 5) as f64, ((i * 7) % 11) as f64])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|r| 100.0 - 5.0 * r[0] + r[1]).collect();
        let model = ForwardModel::fit_raw(&xs, &ys).unwrap();
        assert!(
            model.coefficients()[0] < 0.0,
            "setup: c1 should fit negative"
        );
        let report = lint_forward_model(&model);
        assert!(
            report.with_code(codes::NEGATIVE_COEFFICIENT).count() >= 1,
            "{report}"
        );
        assert!(!report.has_errors(), "negative coefficient is a warning");
    }

    #[test]
    fn cm0103_fires_on_collinear_single_model_dataset() {
        // One ConvNet at one image size: F, I, O all scale exactly linearly
        // with batch, so the three columns are perfectly collinear.
        let mut cfg = SweepConfig::quick();
        cfg.models = vec!["resnet18".into()];
        cfg.image_sizes = vec![64];
        cfg.batch_sizes = vec![1, 2, 4, 8];
        let data = inference_dataset(&DeviceProfile::a100_80gb(), &cfg).unwrap();
        let report = lint_design_matrix(&data);
        assert_eq!(
            report.with_code(codes::ILL_CONDITIONED).count(),
            1,
            "{report}"
        );
    }

    #[test]
    fn diverse_dataset_is_better_conditioned_than_single_model() {
        // The full quick sweep (3 models x sizes x batches) may still be
        // fairly collinear — ConvNet metrics correlate — but it must not be
        // *worse* than the degenerate single-model case, and the lint must
        // run without errors either way.
        let report = lint_design_matrix(&dataset());
        assert!(!report.has_errors());
    }

    #[test]
    fn empty_dataset_lints_clean() {
        assert!(lint_design_matrix(&[]).is_clean());
    }

    #[test]
    fn cm0104_fires_on_empty_dataset() {
        let report = lint_measured_times("inference-x", &[]);
        assert_eq!(report.with_code(codes::BAD_MEASUREMENT).count(), 1);
        assert!(report.has_errors());
    }

    #[test]
    fn cm0104_fires_on_nonfinite_and_nonpositive_times() {
        let report =
            lint_measured_times("t", &[1.0e-3, f64::NAN, 2.0e-3, -1.0, 0.0, f64::INFINITY]);
        assert_eq!(report.with_code(codes::BAD_MEASUREMENT).count(), 1);
        assert!(report.has_errors());
        let msg = report
            .with_code(codes::BAD_MEASUREMENT)
            .next()
            .unwrap()
            .message
            .clone();
        assert!(msg.contains("4 of 6"), "{msg}");
    }

    #[test]
    fn cm0104_silent_on_healthy_times() {
        let times: Vec<f64> = dataset().iter().map(|p| p.measured).collect();
        assert!(lint_measured_times("quick", &times).is_clean());
    }
}
