//! Outlier-robust regression: Huber IRLS with a trimmed refit.
//!
//! OLS has a breakdown point of zero — one straggler spike or corrupted
//! sample can move every coefficient arbitrarily far. PerfSeer and PreNeT
//! both identify contaminated measurement data as the dominant error source
//! for learned runtime predictors, so ConvMeter's fault-tolerant pipeline
//! fits through [`HuberRegression`]:
//!
//! 1. an ordinary (ridge-damped QR) fit seeds the residuals,
//! 2. a robust scale is estimated from the median absolute deviation
//!    (MAD / 0.6745, consistent for the normal distribution),
//! 3. iteratively reweighted least squares with Huber weights
//!    `w = min(1, k·s / |r|)` (k = 1.345: 95 % efficiency at the normal)
//!    downweights gross outliers until the coefficients converge,
//! 4. a final *trimmed* refit on the points within `trim_z` robust standard
//!    deviations discards the flagged outliers entirely.
//!
//! **Determinism contract:** on clean data — robust scale numerically
//! zero *or* no residual exceeding the Huber threshold at the initial
//! scale — the returned model is the untouched base OLS fit
//! ([`RobustReport::ols_identical`] is true), so enabling the robust path
//! on uncontaminated datasets changes nothing, bit for bit.

use crate::regression::{FitError, LinearRegression};
use serde::{Deserialize, Serialize};

/// Huber tuning constant: 95 % asymptotic efficiency on normal errors.
pub const HUBER_K: f64 = 1.345;

/// MAD-to-sigma consistency factor for the normal distribution.
const MAD_NORMAL: f64 = 0.6745;

/// Contamination/breakdown diagnostics of a completed robust fit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustReport {
    /// IRLS iterations run (0 when the OLS fit was returned unchanged).
    pub iterations: usize,
    /// Final robust residual scale (MAD / 0.6745).
    pub scale: f64,
    /// Points flagged as outliers (|r| > trim_z · scale) by the final fit.
    pub outliers: usize,
    /// Flagged outliers as a fraction of the sample.
    pub contamination: f64,
    /// Points assigned a Huber weight below 1 in the last IRLS iteration.
    pub downweighted: usize,
    /// True when the data was clean enough that the plain OLS fit was
    /// returned untouched — the bit-for-bit no-contamination guarantee.
    pub ols_identical: bool,
}

impl RobustReport {
    fn clean(scale: f64) -> Self {
        RobustReport {
            iterations: 0,
            scale,
            outliers: 0,
            contamination: 0.0,
            downweighted: 0,
            ols_identical: true,
        }
    }
}

/// Builder for an outlier-robust linear fit. Mirrors
/// [`LinearRegression`]'s intercept/ridge options and produces a plain
/// `LinearRegression` (the prediction path is unchanged) plus a
/// [`RobustReport`].
#[derive(Debug, Clone)]
pub struct HuberRegression {
    with_intercept: bool,
    ridge_lambda: f64,
    tuning: f64,
    trim_z: f64,
    max_iter: usize,
    tol: f64,
}

impl Default for HuberRegression {
    fn default() -> Self {
        Self::new()
    }
}

impl HuberRegression {
    /// Robust fit with an intercept, no ridge, k = 1.345, 3-sigma trimming.
    pub fn new() -> Self {
        HuberRegression {
            with_intercept: true,
            ridge_lambda: 0.0,
            tuning: HUBER_K,
            trim_z: 3.0,
            max_iter: 50,
            tol: 1e-10,
        }
    }

    /// Enable or disable the intercept term.
    pub fn with_intercept(mut self, yes: bool) -> Self {
        self.with_intercept = yes;
        self
    }

    /// Ridge damping passed through to every inner least-squares solve.
    pub fn with_ridge(mut self, lambda: f64) -> Self {
        assert!(lambda >= 0.0, "ridge lambda must be non-negative");
        self.ridge_lambda = lambda;
        self
    }

    /// Override the Huber tuning constant `k`.
    pub fn with_tuning(mut self, k: f64) -> Self {
        assert!(k > 0.0, "tuning constant must be positive");
        self.tuning = k;
        self
    }

    /// Override the trimming threshold, in robust standard deviations.
    pub fn with_trim(mut self, z: f64) -> Self {
        assert!(z > 0.0, "trim threshold must be positive");
        self.trim_z = z;
        self
    }

    fn base(&self) -> LinearRegression {
        LinearRegression::new()
            .with_intercept(self.with_intercept)
            .with_ridge(self.ridge_lambda)
    }

    /// Solve a weighted least-squares problem by row-scaling with √w:
    /// `wys` holds the √w-scaled targets, and the design's rows (intercept
    /// column included) are scaled as they are written.
    fn weighted_fit(
        &self,
        xs: &[impl AsRef<[f64]>],
        wys: &[f64],
        sqrt_weights: &[f64],
    ) -> Result<LinearRegression, FitError> {
        let [fitted] =
            self.base()
                .fit_rows(xs.len(), |i| (xs[i].as_ref(), sqrt_weights[i]), [wys])?;
        Ok(fitted)
    }

    /// Fit robustly. Returns the fitted model and the contamination report.
    pub fn fit(
        &self,
        xs: &[impl AsRef<[f64]>],
        ys: &[f64],
    ) -> Result<(LinearRegression, RobustReport), FitError> {
        let _span = convmeter_obs::span!("linalg.robust_fit");
        let base = self.base().fit(xs, ys)?;
        let n = ys.len();
        let residuals = |m: &LinearRegression| -> Vec<f64> {
            xs.iter()
                .zip(ys)
                .map(|(x, &y)| y - m.predict(x.as_ref()))
                .collect()
        };

        let mut res = residuals(&base);
        let mut scale = robust_scale(&res);
        // Exact (or numerically exact) fit: nothing to reweight. The
        // threshold is relative to the response magnitude so the guarantee
        // holds at ConvMeter scales (seconds ~ 1e-4) as well as unit scales.
        let y_mag = ys.iter().fold(0.0f64, |a, &y| a.max(y.abs())).max(1.0);
        if scale <= 1e-12 * y_mag {
            return Ok((base, RobustReport::clean(scale)));
        }
        // Clean data: every residual already inside the Huber band means
        // every weight is 1 and IRLS would reproduce the base fit anyway —
        // return it untouched to keep the bit-identity guarantee.
        if res.iter().all(|r| r.abs() <= self.tuning * scale) {
            return Ok((base, RobustReport::clean(scale)));
        }

        let mut model = base;
        let mut iterations = 0;
        let mut downweighted = 0;
        // √w and √w-scaled target buffers, refilled per IRLS iteration.
        let mut sqrt_weights = vec![1.0f64; n];
        let mut wys = vec![0.0f64; n];
        for _ in 0..self.max_iter {
            downweighted = 0;
            for (((sw, wy), r), &y) in sqrt_weights.iter_mut().zip(&mut wys).zip(&res).zip(ys) {
                let w = (self.tuning * scale / r.abs()).min(1.0);
                downweighted += usize::from(w < 1.0);
                *sw = w.sqrt();
                *wy = y * *sw;
            }
            // A degenerate weighting (e.g. almost all mass on a few rows)
            // can make the weighted design deficient; keep the last good
            // model rather than failing the whole fit.
            let Ok(next) = self.weighted_fit(xs, &wys, &sqrt_weights) else {
                break;
            };
            iterations += 1;
            let delta = coef_delta(&model, &next);
            model = next;
            res = residuals(&model);
            let next_scale = robust_scale(&res);
            if next_scale > 1e-12 * y_mag {
                scale = next_scale;
            }
            if delta < self.tol {
                break;
            }
        }

        // Trimmed refit: drop flagged outliers entirely and solve once more
        // on the clean core, if enough points survive.
        let keep: Vec<usize> = res
            .iter()
            .enumerate()
            .filter(|(_, r)| r.abs() <= self.trim_z * scale)
            .map(|(i, _)| i)
            .collect();
        let unknowns =
            xs.first().map_or(0, |x| x.as_ref().len()) + usize::from(self.with_intercept);
        if keep.len() < n && keep.len() > unknowns {
            let tys: Vec<f64> = keep.iter().map(|&i| ys[i]).collect();
            let trimmed = self
                .base()
                .fit_rows(keep.len(), |j| (xs[keep[j]].as_ref(), 1.0), [&tys]);
            if let Ok([trimmed]) = trimmed {
                model = trimmed;
                res = residuals(&model);
                let s = robust_scale(&res);
                if s > 1e-12 * y_mag {
                    scale = s;
                }
            }
        }

        let outliers = res.iter().filter(|r| r.abs() > self.trim_z * scale).count();
        Ok((
            model,
            RobustReport {
                iterations,
                scale,
                outliers,
                contamination: outliers as f64 / n.max(1) as f64,
                downweighted,
                ols_identical: false,
            },
        ))
    }
}

/// Robust residual scale: median absolute deviation from zero, normalised
/// to be consistent with the standard deviation under normal errors.
fn robust_scale(residuals: &[f64]) -> f64 {
    if residuals.is_empty() {
        return 0.0;
    }
    let mut abs: Vec<f64> = residuals.iter().map(|r| r.abs()).collect();
    // analyzer:allow(CA0004, reason = "fit rejects non-finite inputs, so residuals are finite and totally ordered")
    abs.sort_by(|a, b| a.partial_cmp(b).expect("residuals are finite"));
    let mid = abs.len() / 2;
    let median = if abs.len().is_multiple_of(2) {
        // analyzer:allow(CA0007, reason = "the empty case returned above, so an even length means mid >= 1")
        (abs[mid - 1] + abs[mid]) / 2.0
    } else {
        abs[mid]
    };
    median / MAD_NORMAL
}

/// Largest relative coefficient change between two fits.
fn coef_delta(a: &LinearRegression, b: &LinearRegression) -> f64 {
    let mut worst = 0.0f64;
    let pairs = a
        .coefficients()
        .iter()
        .copied()
        .zip(b.coefficients().iter().copied())
        .chain([(a.intercept(), b.intercept())]);
    for (x, y) in pairs {
        let denom = x.abs().max(y.abs()).max(1e-300);
        worst = worst.max((x - y).abs() / denom);
    }
    worst
}

/// The robust fit before its solves moved onto one design buffer: every
/// IRLS step built a fresh `Vec` per weighted row and fitted it through the
/// `Matrix` reference path, and the trimmed refit cloned its rows. Kept as
/// the oracle [`HuberRegression::fit`] must match bit for bit.
#[cfg(test)]
mod reference {
    use super::{coef_delta, robust_scale, HuberRegression, RobustReport};
    use crate::regression::{reference, FitError, LinearRegression};

    fn weighted_fit(
        h: &HuberRegression,
        xs: &[Vec<f64>],
        ys: &[f64],
        weights: &[f64],
    ) -> Result<LinearRegression, FitError> {
        let mut wxs = Vec::with_capacity(xs.len());
        let mut wys = Vec::with_capacity(ys.len());
        for ((x, &y), &w) in xs.iter().zip(ys).zip(weights) {
            let sw = w.sqrt();
            let mut row: Vec<f64> = x.iter().map(|v| v * sw).collect();
            if h.with_intercept {
                row.push(sw);
            }
            wxs.push(row);
            wys.push(y * sw);
        }
        let solved = reference::fit(false, h.ridge_lambda, &wxs, &wys)?;
        let mut coefs = solved.coefficients().to_vec();
        let intercept = if h.with_intercept {
            coefs.pop().unwrap()
        } else {
            0.0
        };
        Ok(LinearRegression::from_parts(
            h.with_intercept,
            h.ridge_lambda,
            coefs,
            intercept,
        ))
    }

    pub(super) fn fit(
        h: &HuberRegression,
        xs: &[Vec<f64>],
        ys: &[f64],
    ) -> Result<(LinearRegression, RobustReport), FitError> {
        let base = reference::fit(h.with_intercept, h.ridge_lambda, xs, ys)?;
        let n = ys.len();
        let residuals = |m: &LinearRegression| -> Vec<f64> {
            xs.iter().zip(ys).map(|(x, &y)| y - m.predict(x)).collect()
        };
        let mut res = residuals(&base);
        let mut scale = robust_scale(&res);
        let y_mag = ys.iter().fold(0.0f64, |a, &y| a.max(y.abs())).max(1.0);
        if scale <= 1e-12 * y_mag || res.iter().all(|r| r.abs() <= h.tuning * scale) {
            return Ok((base, RobustReport::clean(scale)));
        }
        let mut model = base;
        let mut iterations = 0;
        let mut downweighted = 0;
        let mut weights = vec![1.0f64; n];
        for _ in 0..h.max_iter {
            for (w, r) in weights.iter_mut().zip(&res) {
                *w = (h.tuning * scale / r.abs()).min(1.0);
            }
            downweighted = weights.iter().filter(|&&w| w < 1.0).count();
            let Ok(next) = weighted_fit(h, xs, ys, &weights) else {
                break;
            };
            iterations += 1;
            let delta = coef_delta(&model, &next);
            model = next;
            res = residuals(&model);
            let next_scale = robust_scale(&res);
            if next_scale > 1e-12 * y_mag {
                scale = next_scale;
            }
            if delta < h.tol {
                break;
            }
        }
        let keep: Vec<usize> = res
            .iter()
            .enumerate()
            .filter(|(_, r)| r.abs() <= h.trim_z * scale)
            .map(|(i, _)| i)
            .collect();
        let unknowns = xs.first().map_or(0, Vec::len) + usize::from(h.with_intercept);
        if keep.len() < n && keep.len() > unknowns {
            let txs: Vec<Vec<f64>> = keep.iter().map(|&i| xs[i].clone()).collect();
            let tys: Vec<f64> = keep.iter().map(|&i| ys[i]).collect();
            if let Ok(trimmed) = reference::fit(h.with_intercept, h.ridge_lambda, &txs, &tys) {
                model = trimmed;
                res = residuals(&model);
                let s = robust_scale(&res);
                if s > 1e-12 * y_mag {
                    scale = s;
                }
            }
        }
        let outliers = res.iter().filter(|r| r.abs() > h.trim_z * scale).count();
        Ok((
            model,
            RobustReport {
                iterations,
                scale,
                outliers,
                contamination: outliers as f64 / n.max(1) as f64,
                downweighted,
                ols_identical: false,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Eq. 2-shaped synthetic data: `T = c1·F + c2·I + c3·O + c4` with
    /// ConvMeter-scale magnitudes, plus deterministic pseudo-random design
    /// variation so the columns are not collinear.
    fn eq2_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>, [f64; 3], f64) {
        let coefs = [3e-12, 1.5e-9, 2.5e-9];
        let intercept = 4e-4;
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let t = i as f64 + 1.0;
            let flops = 4.1e9 * t * (1.0 + 0.3 * (t * 0.7).sin());
            let inputs = 2.3e6 * t * (1.0 + 0.4 * (t * 1.3).cos());
            let outputs = 3.7e6 * t * (1.0 + 0.2 * (t * 2.1).sin());
            let y = coefs[0] * flops + coefs[1] * inputs + coefs[2] * outputs + intercept;
            xs.push(vec![flops, inputs, outputs]);
            ys.push(y);
        }
        (xs, ys, coefs, intercept)
    }

    /// Deterministically spike `rate` of the targets by large factors.
    fn contaminate(ys: &[f64], rate: f64) -> Vec<f64> {
        let n = ys.len();
        let k = (rate * n as f64).floor() as usize;
        let mut out = ys.to_vec();
        // FNV-ranked index selection: stable, spread across the range.
        let mut ranked: Vec<(u64, usize)> = (0..n)
            .map(|i| {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for b in (i as u64).to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
                (h, i)
            })
            .collect();
        ranked.sort();
        for &(h, i) in ranked.iter().take(k) {
            out[i] *= 10.0 + (h % 40) as f64;
        }
        out
    }

    fn max_rel_err(got: &LinearRegression, coefs: &[f64; 3], intercept: f64) -> f64 {
        let mut worst = 0.0f64;
        for (g, w) in got.coefficients().iter().zip(coefs) {
            worst = worst.max((g - w).abs() / w.abs());
        }
        worst.max((got.intercept() - intercept).abs() / intercept.abs())
    }

    #[test]
    fn clean_data_returns_ols_identical() {
        let (xs, ys, ..) = eq2_data(80);
        let ols = LinearRegression::new().fit(&xs, &ys).unwrap();
        let (robust, report) = HuberRegression::new().fit(&xs, &ys).unwrap();
        assert!(report.ols_identical);
        assert_eq!(report.outliers, 0);
        assert_eq!(robust.coefficients(), ols.coefficients());
        assert_eq!(robust.intercept(), ols.intercept());
    }

    #[test]
    fn recovers_eq2_under_contamination_where_ols_does_not() {
        let (xs, ys, coefs, intercept) = eq2_data(120);
        let dirty = contaminate(&ys, 0.15);
        let ols = LinearRegression::new().fit(&xs, &dirty).unwrap();
        let (robust, report) = HuberRegression::new().fit(&xs, &dirty).unwrap();
        let ols_err = max_rel_err(&ols, &coefs, intercept);
        let robust_err = max_rel_err(&robust, &coefs, intercept);
        assert!(robust_err < 1e-6, "robust err {robust_err}");
        assert!(ols_err > 0.5, "ols err {ols_err} should be wrecked");
        assert!(!report.ols_identical);
        assert!(report.outliers > 0);
        assert!(report.contamination > 0.05 && report.contamination < 0.25);
    }

    #[test]
    fn report_counts_scale_with_injected_rate() {
        let (xs, ys, ..) = eq2_data(200);
        let mut last = 0;
        for rate in [0.05, 0.10, 0.20] {
            let dirty = contaminate(&ys, rate);
            let (_, report) = HuberRegression::new().fit(&xs, &dirty).unwrap();
            assert!(
                report.outliers >= last,
                "outliers should not shrink as rate rises"
            );
            last = report.outliers;
        }
        assert!(last >= 30, "20 % of 200 points should be flagged: {last}");
    }

    #[test]
    fn no_intercept_variant_respected() {
        let xs: Vec<Vec<f64>> = (1..60).map(|i| vec![i as f64, (i * i) as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| 2.0 * r[0] + 0.5 * r[1]).collect();
        let dirty = contaminate(&ys, 0.1);
        let (m, _) = HuberRegression::new()
            .with_intercept(false)
            .fit(&xs, &dirty)
            .unwrap();
        assert_eq!(m.intercept(), 0.0);
        assert!(!m.has_intercept());
        assert!((m.coefficients()[0] - 2.0).abs() < 1e-6);
        assert!((m.coefficients()[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn too_few_observations_propagates() {
        let xs = vec![vec![1.0, 2.0]];
        let ys = vec![3.0];
        assert!(matches!(
            HuberRegression::new().fit(&xs, &ys),
            Err(FitError::TooFewObservations { .. })
        ));
    }

    #[test]
    fn one_buffer_fit_matches_matrix_reference_bitwise() {
        use crate::regression::test_support::{random_design, Rng};
        let bits = |m: &LinearRegression, r: &RobustReport| {
            let mut b: Vec<u64> = m.coefficients().iter().map(|c| c.to_bits()).collect();
            b.extend([m.intercept().to_bits(), r.scale.to_bits()]);
            b.extend([r.iterations, r.outliers, r.downweighted].map(|v| v as u64));
            b.push(u64::from(r.ols_identical));
            b
        };
        let mut rng = Rng(0x5851_f42d_4c95_7f2d);
        let (mut irls, mut trimmed) = (0, 0);
        for trial in 0..10 {
            let n = 40 + (rng.unit() * 160.0) as usize;
            let cols = 1 + (rng.unit() * 4.0) as usize;
            let (xs, ys) = if trial % 2 == 0 {
                random_design(&mut rng, n, cols)
            } else {
                let (xs, ys, ..) = eq2_data(n);
                (xs, ys)
            };
            for rate in [0.0, 0.1, 0.2] {
                let dirty = contaminate(&ys, rate);
                for intercept in [true, false] {
                    for lambda in [0.0, 1e-6] {
                        let h = HuberRegression::new()
                            .with_intercept(intercept)
                            .with_ridge(lambda);
                        let (got, got_report) = h.fit(&xs, &dirty).unwrap();
                        let (want, want_report) = reference::fit(&h, &xs, &dirty).unwrap();
                        assert_eq!(
                            bits(&got, &got_report),
                            bits(&want, &want_report),
                            "trial {trial}: {n}x{cols}, rate {rate}, intercept {intercept}, lambda {lambda}"
                        );
                        irls += usize::from(got_report.iterations > 0);
                        trimmed +=
                            usize::from(got_report.iterations > 0 && got_report.outliers > 0);
                    }
                }
            }
        }
        // The comparison must have exercised IRLS and the trimmed refit.
        assert!(irls > 20 && trimmed > 20, "irls {irls}, trimmed {trimmed}");
    }

    #[test]
    fn array_rows_match_vec_row_reference_bitwise() {
        let bits = |m: &LinearRegression, r: &RobustReport| {
            let mut b: Vec<u64> = m.coefficients().iter().map(|c| c.to_bits()).collect();
            b.extend([m.intercept().to_bits(), r.scale.to_bits()]);
            b.extend([r.iterations, r.outliers, r.downweighted].map(|v| v as u64));
            b
        };
        for n in [40, 90, 160] {
            let (xs, ys, ..) = eq2_data(n);
            let rows: Vec<[f64; 3]> = xs.iter().map(|r| [r[0], r[1], r[2]]).collect();
            for rate in [0.0, 0.1, 0.2] {
                let dirty = contaminate(&ys, rate);
                for lambda in [0.0, 1e-6] {
                    let h = HuberRegression::new().with_ridge(lambda);
                    let (got, got_report) = h.fit(&rows, &dirty).unwrap();
                    let (want, want_report) = reference::fit(&h, &xs, &dirty).unwrap();
                    assert_eq!(
                        bits(&got, &got_report),
                        bits(&want, &want_report),
                        "{n} rows, rate {rate}, lambda {lambda}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_fit() {
        let (xs, ys, ..) = eq2_data(100);
        let dirty = contaminate(&ys, 0.2);
        let (a, ra) = HuberRegression::new().fit(&xs, &dirty).unwrap();
        let (b, rb) = HuberRegression::new().fit(&xs, &dirty).unwrap();
        assert_eq!(a.coefficients(), b.coefficients());
        assert_eq!(a.intercept(), b.intercept());
        assert_eq!(ra.outliers, rb.outliers);
        assert_eq!(ra.iterations, rb.iterations);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            // Under any contamination rate up to 20 %, the Huber+trim fit
            // recovers the Eq. 2 coefficients to within 0.1 % while OLS is
            // off by more than 10 % — the breakdown gap the robustness
            // story rests on.
            #[test]
            fn huber_recovers_eq2_where_ols_breaks(
                pct in 5usize..=20,
                n in 80usize..=160,
            ) {
                let (xs, ys, coefs, intercept) = eq2_data(n);
                let dirty = contaminate(&ys, pct as f64 / 100.0);
                let ols = LinearRegression::new().fit(&xs, &dirty).unwrap();
                let (robust, _) = HuberRegression::new().fit(&xs, &dirty).unwrap();
                let ols_err = max_rel_err(&ols, &coefs, intercept);
                let robust_err = max_rel_err(&robust, &coefs, intercept);
                prop_assert!(robust_err < 1e-3, "robust err {}", robust_err);
                prop_assert!(ols_err > 0.1, "ols err {}", ols_err);
                prop_assert!(robust_err < ols_err / 100.0);
            }
        }
    }
}
