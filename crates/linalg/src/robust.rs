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

    /// Fit robustly. Returns the fitted model and the contamination report.
    /// This is the one-target case of [`HuberRegression::fit_targets`].
    pub fn fit(
        &self,
        xs: &[impl AsRef<[f64]>],
        ys: &[f64],
    ) -> Result<(LinearRegression, RobustReport), FitError> {
        let [fit] = self.fit_targets(xs, [ys])?;
        Ok((fit.model, fit.report))
    }

    /// Fit each target robustly against the same feature rows `xs`. One
    /// base factorisation serves every target's OLS fit. The IRLS steps
    /// then run in lockstep over the targets still iterating — each with
    /// its own iteration count, stop test and stop on a failed weighted
    /// fit — so their weighted designs are factored together, and so are
    /// the trimmed refits. Each target's result is bit-identical to a
    /// one-target fit.
    pub fn fit_targets<const N: usize>(
        &self,
        xs: &[impl AsRef<[f64]>],
        targets: [&[f64]; N],
    ) -> Result<[RobustFit; N], FitError> {
        let _span = convmeter_obs::span!("linalg.robust_fit");
        let bases = self.base().fit_targets(xs, targets)?;
        let n = xs.len();
        // The one buffer every robust scale of this fit is taken in.
        let mut scratch = Vec::with_capacity(n);
        // `bases` holds one fit per target, in order.
        let mut next_target = targets.into_iter();
        let mut fits = bases.map(|ols| {
            let ys = next_target.next().unwrap_or_default();
            Irls::start(self, xs, ys, ols, &mut scratch)
        });

        for _ in 0..self.max_iter {
            for fit in fits.iter_mut().filter(|f| f.iterating) {
                fit.reweight(self.tuning);
            }
            // A degenerate weighting (e.g. almost all mass on a few rows)
            // can make a weighted design deficient; that target keeps its
            // last good model rather than failing the whole fit.
            let weighted = self
                .base()
                .fit_rows(fits.iter().filter(|f| f.iterating).map(|f| {
                    (
                        n,
                        move |i: usize| (xs[i].as_ref(), f.sqrt_weights[i]),
                        [&f.wys[..]],
                    )
                }));
            if weighted.is_empty() {
                break;
            }
            let iterating = fits.iter_mut().filter(|f| f.iterating);
            for (fit, next) in iterating.zip(weighted) {
                match next {
                    Ok([next]) => fit.step(self.tol, xs, next, &mut scratch),
                    Err(_) => fit.iterating = false,
                }
            }
        }

        // Trimmed refit: drop flagged outliers entirely and solve once more
        // on the clean core, if enough points survive.
        let unknowns =
            xs.first().map_or(0, |x| x.as_ref().len()) + usize::from(self.with_intercept);
        for fit in fits.iter_mut().filter(|f| !f.clean) {
            fit.select_core(self.trim_z, unknowns);
        }
        let trimmed = self
            .base()
            .fit_rows(fits.iter().filter(|f| f.trimming).map(|f| {
                (
                    f.keep.len(),
                    move |j: usize| (xs[f.keep[j]].as_ref(), 1.0),
                    [&f.tys[..]],
                )
            }));
        let trimming = fits.iter_mut().filter(|f| f.trimming);
        for (fit, trimmed) in trimming.zip(trimmed) {
            if let Ok([trimmed]) = trimmed {
                fit.refit(xs, trimmed, &mut scratch);
            }
        }
        Ok(fits.map(|fit| fit.finish(self.trim_z)))
    }
}

/// One target's outcome of [`HuberRegression::fit_targets`].
#[derive(Debug, Clone)]
pub struct RobustFit {
    /// The ordinary least-squares fit of the target: the base fit IRLS
    /// starts from.
    pub ols: LinearRegression,
    /// The robust model; the OLS fit itself when `report.ols_identical`.
    pub model: LinearRegression,
    /// Contamination diagnostics.
    pub report: RobustReport,
}

/// One target's state through [`HuberRegression::fit_targets`].
struct Irls<'y> {
    ys: &'y [f64],
    /// The response magnitude `refit`'s zero-scale test is relative to:
    /// the maximum |y|, at least 1. (Outliers inflate it, so a large enough
    /// one freezes the scale; ROADMAP item 14.)
    y_mag: f64,
    ols: LinearRegression,
    model: LinearRegression,
    res: Vec<f64>,
    scale: f64,
    /// True when the base fit is returned untouched.
    clean: bool,
    iterating: bool,
    iterations: usize,
    downweighted: usize,
    /// √w and √w-scaled target buffers, refilled per IRLS iteration.
    sqrt_weights: Vec<f64>,
    wys: Vec<f64>,
    /// The trimmed refit's rows and targets, and whether it runs.
    keep: Vec<usize>,
    tys: Vec<f64>,
    trimming: bool,
}

impl<'y> Irls<'y> {
    fn start(
        h: &HuberRegression,
        xs: &[impl AsRef<[f64]>],
        ys: &'y [f64],
        ols: LinearRegression,
        scratch: &mut Vec<f64>,
    ) -> Self {
        let mut res = Vec::with_capacity(ys.len());
        residuals(&ols, xs, ys, &mut res);
        let scale = robust_scale(&res, scratch);
        // Exact (or numerically exact) fit: nothing to reweight. The
        // threshold is relative to the response magnitude so the guarantee
        // holds at ConvMeter scales (seconds ~ 1e-4) as well as unit scales.
        // The magnitude is the median |y|, not the maximum, so an outlier
        // cannot lift the threshold above the scale it leaves behind.
        // Clean data: every residual already inside the Huber band means
        // every weight is 1 and IRLS would reproduce the base fit anyway —
        // return it untouched to keep the bit-identity guarantee.
        let exact = 1e-12 * median_abs(ys, scratch).max(1.0);
        let clean = scale <= exact || res.iter().all(|r| r.abs() <= h.tuning * scale);
        let y_mag = ys.iter().fold(0.0f64, |a, &y| a.max(y.abs())).max(1.0);
        let buffer = |len| if clean { Vec::new() } else { vec![0.0f64; len] };
        Self {
            ys,
            y_mag,
            model: ols.clone(),
            ols,
            scale,
            clean,
            iterating: !clean,
            iterations: 0,
            downweighted: 0,
            sqrt_weights: buffer(res.len()),
            wys: buffer(res.len()),
            res,
            keep: Vec::new(),
            tys: Vec::new(),
            trimming: false,
        }
    }

    /// Refill the Huber weights from the current residuals and scale.
    fn reweight(&mut self, tuning: f64) {
        self.downweighted = 0;
        let rows = self.sqrt_weights.iter_mut().zip(&mut self.wys);
        for (((sw, wy), r), &y) in rows.zip(&self.res).zip(self.ys) {
            let w = (tuning * self.scale / r.abs()).min(1.0);
            self.downweighted += usize::from(w < 1.0);
            *sw = w.sqrt();
            *wy = y * *sw;
        }
    }

    /// Take one IRLS step's weighted fit; stop once the coefficients move
    /// less than `tol`.
    fn step(
        &mut self,
        tol: f64,
        xs: &[impl AsRef<[f64]>],
        next: LinearRegression,
        scratch: &mut Vec<f64>,
    ) {
        self.iterations += 1;
        let delta = coef_delta(&self.model, &next);
        self.refit(xs, next, scratch);
        if delta < tol {
            self.iterating = false;
        }
    }

    /// Adopt `model`, and its residual scale unless that is numerically
    /// zero.
    fn refit(&mut self, xs: &[impl AsRef<[f64]>], model: LinearRegression, scratch: &mut Vec<f64>) {
        self.model = model;
        residuals(&self.model, xs, self.ys, &mut self.res);
        let scale = robust_scale(&self.res, scratch);
        if scale > 1e-12 * self.y_mag {
            self.scale = scale;
        }
    }

    /// Choose the rows within `trim_z` scales for the trimmed refit, which
    /// runs when it drops at least one row and keeps more than `unknowns`.
    fn select_core(&mut self, trim_z: f64, unknowns: usize) {
        let bound = trim_z * self.scale;
        self.keep.clear();
        self.keep
            .extend((0..self.res.len()).filter(|&i| self.res[i].abs() <= bound));
        self.trimming = self.keep.len() < self.res.len() && self.keep.len() > unknowns;
        if self.trimming {
            self.tys.clear();
            self.tys.extend(self.keep.iter().map(|&i| self.ys[i]));
        }
    }

    fn finish(self, trim_z: f64) -> RobustFit {
        if self.clean {
            return RobustFit {
                ols: self.ols,
                model: self.model,
                report: RobustReport::clean(self.scale),
            };
        }
        let n = self.res.len();
        let outliers = self
            .res
            .iter()
            .filter(|r| r.abs() > trim_z * self.scale)
            .count();
        RobustFit {
            ols: self.ols,
            model: self.model,
            report: RobustReport {
                iterations: self.iterations,
                scale: self.scale,
                outliers,
                contamination: outliers as f64 / n.max(1) as f64,
                downweighted: self.downweighted,
                ols_identical: false,
            },
        }
    }
}

/// `res[i] = ys[i] - model(xs[i])`, refilled in place.
fn residuals(model: &LinearRegression, xs: &[impl AsRef<[f64]>], ys: &[f64], res: &mut Vec<f64>) {
    res.clear();
    res.extend(
        xs.iter()
            .zip(ys)
            .map(|(x, &y)| y - model.predict(x.as_ref())),
    );
}

/// Robust residual scale: median absolute deviation from zero, normalised
/// to be consistent with the standard deviation under normal errors.
fn robust_scale(residuals: &[f64], scratch: &mut Vec<f64>) -> f64 {
    median_abs(residuals, scratch) / MAD_NORMAL
}

/// Median of `|v|` over `values` (0 when empty), selected, not sorted for,
/// in `scratch`.
fn median_abs(values: &[f64], scratch: &mut Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    scratch.clear();
    scratch.extend(values.iter().map(|v| v.abs()));
    let mid = scratch.len() / 2;
    let even = scratch.len().is_multiple_of(2);
    // analyzer:allow(CA0004, reason = "fit rejects non-finite inputs, so targets and residuals are finite and totally ordered")
    let order = |a: &f64, b: &f64| a.partial_cmp(b).expect("targets and residuals are finite");
    let (lower, &mut upper, _) = scratch.select_nth_unstable_by(mid, order);
    if even {
        // The sorted neighbour below `mid` is the largest of the lower
        // partition.
        let below = lower.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        (below + upper) / 2.0
    } else {
        upper
    }
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

/// The robust fit before its solves moved onto one design buffer and its
/// targets into lockstep: one target at a time, every IRLS step built a
/// fresh `Vec` per weighted row and fitted it through the `Matrix`
/// reference path, the trimmed refit cloned its rows, and each robust scale
/// sorted a fresh copy of the residuals. Kept as the oracle
/// [`HuberRegression::fit_targets`] must match bit for bit, target by
/// target.
#[cfg(test)]
mod reference {
    use super::{coef_delta, HuberRegression, RobustReport, MAD_NORMAL};
    use crate::regression::{reference, FitError, LinearRegression};

    pub(super) fn robust_scale(residuals: &[f64]) -> f64 {
        median_abs(residuals) / MAD_NORMAL
    }

    fn median_abs(values: &[f64]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let mut abs: Vec<f64> = values.iter().map(|v| v.abs()).collect();
        abs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mid = abs.len() / 2;
        if abs.len().is_multiple_of(2) {
            (abs[mid - 1] + abs[mid]) / 2.0
        } else {
            abs[mid]
        }
    }

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
        if scale <= 1e-12 * median_abs(ys).max(1.0)
            || res.iter().all(|r| r.abs() <= h.tuning * scale)
        {
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

    fn report_bits(m: &LinearRegression, r: &RobustReport) -> Vec<u64> {
        let mut b: Vec<u64> = m.coefficients().iter().map(|c| c.to_bits()).collect();
        b.extend([m.intercept().to_bits(), r.scale.to_bits()]);
        b.extend([r.iterations, r.outliers, r.downweighted].map(|v| v as u64));
        b.push(u64::from(r.ols_identical));
        b
    }

    /// Fit `targets` in one lockstep call and check each target's model,
    /// report and OLS fit bit for bit against the one-target reference.
    fn lockstep_reports<const N: usize>(
        h: &HuberRegression,
        xs: &[Vec<f64>],
        targets: &[Vec<f64>; N],
    ) -> [RobustReport; N] {
        let fits = h
            .fit_targets(xs, targets.each_ref().map(Vec::as_slice))
            .unwrap();
        for (t, (ys, fit)) in targets.iter().zip(&fits).enumerate() {
            let (want, want_report) = reference::fit(h, xs, ys).unwrap();
            assert_eq!(
                report_bits(&fit.model, &fit.report),
                report_bits(&want, &want_report),
                "target {t}"
            );
            let ols = h.base().fit(xs, ys).unwrap();
            assert_eq!(
                report_bits(&fit.ols, &fit.report),
                report_bits(&ols, &fit.report),
                "target {t}: OLS"
            );
        }
        fits.map(|fit| fit.report)
    }

    /// `ys` with every `every`-th row from row 2 on spiked by about
    /// `factor`.
    fn spiked(ys: &[f64], every: usize, factor: f64) -> Vec<f64> {
        let mut ys = ys.to_vec();
        for (i, y) in ys.iter_mut().enumerate().skip(2) {
            if i % every == 0 {
                *y *= factor + (i % 7) as f64;
            }
        }
        ys
    }

    #[test]
    fn lockstep_targets_match_per_target_reference_bitwise() {
        let (xs, exact, ..) = eq2_data(120);
        let noisy: Vec<f64> = exact
            .iter()
            .enumerate()
            .map(|(i, y)| y * (1.0 + 1e-3 * (i as f64 * 1.7).sin()))
            .collect();
        let targets = [
            exact.clone(),
            spiked(&noisy, 19, 10.0),
            spiked(&noisy, 9, 30.0),
            spiked(&noisy, 5, 20.0),
            noisy.clone(),
        ];
        for lambda in [0.0, 1e-6] {
            let h = HuberRegression::new().with_ridge(lambda);
            let reports = lockstep_reports(&h, &xs, &targets);
            // The clean short-circuit, trimmed refits, and IRLS runs that
            // stop at different iterations.
            assert_eq!(reports[0].ols_identical, lambda == 0.0, "{reports:?}");
            assert!(reports[1..4].iter().all(|r| r.outliers > 0), "{reports:?}");
            let mut iterations: Vec<usize> = reports[1..].iter().map(|r| r.iterations).collect();
            iterations.sort_unstable();
            iterations.dedup();
            assert!(iterations.len() >= 2, "{reports:?}");
        }
    }

    #[test]
    fn a_failed_weighted_fit_stops_only_its_own_target() {
        // Rows 0 and 1 share their features, and column 1 differs from
        // column 0 only on them: weighting both rows to almost nothing
        // leaves the weighted design rank deficient.
        let xs: Vec<Vec<f64>> = (0..80)
            .map(|i| {
                let t = i.max(1) as f64;
                let bump = if i < 2 { 1e-10 } else { 0.0 };
                vec![t, t + bump, (t * 0.37).sin() * 5.0]
            })
            .collect();
        let exact: Vec<f64> = xs.iter().map(|x| 2.0 * x[0] + 0.5 * x[2] + 1.0).collect();
        let noisy: Vec<f64> = exact
            .iter()
            .enumerate()
            .map(|(i, y)| y + 1e-3 * (i as f64 * 1.7).sin())
            .collect();
        // Opposite spikes on rows 0 and 1, so the base fit's column-1
        // direction absorbs neither and both rows are weighted to ~1e-11.
        let mut broken = noisy.clone();
        broken[0] += 1e8;
        broken[1] -= 1e8;
        let targets = [spiked(&noisy, 9, 30.0), broken, spiked(&noisy, 5, 20.0)];
        let reports = lockstep_reports(&HuberRegression::new(), &xs, &targets);
        // The broken target stops at its first weighted fit while its
        // neighbours keep iterating.
        assert_eq!(reports[1].iterations, 0, "{reports:?}");
        assert!(!reports[1].ols_identical);
        assert!(
            reports[0].iterations > 1 && reports[2].iterations > 1,
            "{reports:?}"
        );
    }

    #[test]
    fn a_huge_spike_does_not_pass_as_an_exact_fit() {
        // Column 2 is non-zero only on row 0, so the OLS fit absorbs the
        // spike there and its rounding leaves a residual scale of ~1e13
        // everywhere: below 1e-12·max|y| = 1e18, which took the
        // contaminated base fit for an exact one (no iterations, reported
        // clean), but far above 1e-12·median|y|.
        let xs: Vec<Vec<f64>> = (0..80)
            .map(|i| {
                let t = i as f64 + 1.0;
                vec![t, (t * 0.37).sin() * 5.0, f64::from(u8::from(i == 0))]
            })
            .collect();
        let mut ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x[0] + 0.5 * x[1] + 1.0 + 1e-3 * (i as f64 * 1.7).sin())
            .collect();
        ys[0] += 1e30;
        let h = HuberRegression::new();
        let (model, report) = h.fit(&xs, &ys).unwrap();
        assert!(report.iterations > 0, "{report:?}");
        assert!(!report.ols_identical, "{report:?}");
        assert!(report.outliers > 0, "{report:?}");
        let (want, want_report) = reference::fit(&h, &xs, &ys).unwrap();
        assert_eq!(
            report_bits(&model, &report),
            report_bits(&want, &want_report)
        );
    }

    #[test]
    fn median_by_selection_matches_sorting_bitwise() {
        let mut scratch = Vec::new();
        for len in [1, 2, 3, 4, 7, 10, 1127] {
            let residuals: Vec<f64> = (0..len)
                .map(|i| ((i * 7919 % 1009) as f64 - 500.0) * 1e-3 * (i as f64 * 0.3).cos())
                .collect();
            assert_eq!(
                robust_scale(&residuals, &mut scratch).to_bits(),
                reference::robust_scale(&residuals).to_bits(),
                "{len}"
            );
        }
        assert_eq!(robust_scale(&[], &mut scratch), 0.0);
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
