//! Ordinary least squares regression with optional intercept and ridge
//! damping — the entire "machine learning" apparatus of ConvMeter.
//!
//! The paper's central methodological claim is that *linear regression is
//! enough*: four coefficients for the forward pass (Eq. 2), four for the
//! backward pass, three for the gradient update, seven for the fused
//! backward+gradient phase. [`LinearRegression`] is the single fitting
//! routine behind all of those.

use crate::qr::{only, QrError, RidgeDesign, LANES};
use crate::stats::ErrorReport;
use serde::{Deserialize, Serialize};

/// Error from fitting a linear model.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// Not enough observations for the number of unknowns.
    TooFewObservations {
        /// Observations provided.
        have: usize,
        /// Unknowns to determine (including intercept if enabled).
        need: usize,
    },
    /// The design matrix is rank deficient and ridge damping was zero.
    RankDeficient,
    /// Feature rows had inconsistent lengths.
    RaggedFeatures,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewObservations { have, need } => {
                write!(f, "too few observations: have {have}, need at least {need}")
            }
            FitError::RankDeficient => write!(f, "rank-deficient design matrix"),
            FitError::RaggedFeatures => write!(f, "feature rows have inconsistent lengths"),
        }
    }
}

impl std::error::Error for FitError {}

impl From<QrError> for FitError {
    fn from(e: QrError) -> Self {
        match e {
            QrError::Underdetermined { rows, cols } => FitError::TooFewObservations {
                have: rows,
                need: cols,
            },
            QrError::RankDeficient { .. } => FitError::RankDeficient,
        }
    }
}

/// Summary of a completed fit: coefficients plus in-sample error metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FitSummary {
    /// Fitted coefficients, one per feature (intercept excluded).
    pub coefficients: Vec<f64>,
    /// Fitted intercept (0 when the model was configured without one).
    pub intercept: f64,
    /// In-sample (training) error metrics.
    pub training_error: ErrorReport,
}

/// A fitted (or to-be-fitted) ordinary least squares model.
///
/// ```
/// use convmeter_linalg::LinearRegression;
///
/// // y = 3 x0 + 2 x1 + 1
/// let xs = vec![
///     vec![1.0, 0.0],
///     vec![0.0, 1.0],
///     vec![1.0, 1.0],
///     vec![2.0, 3.0],
/// ];
/// let ys = vec![4.0, 3.0, 6.0, 13.0];
/// let model = LinearRegression::new().fit(&xs, &ys).unwrap();
/// assert!((model.predict(&[5.0, 5.0]) - 26.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearRegression {
    with_intercept: bool,
    ridge_lambda: f64,
    coefficients: Vec<f64>,
    intercept: f64,
}

impl Default for LinearRegression {
    fn default() -> Self {
        Self::new()
    }
}

impl LinearRegression {
    /// A model with an intercept and no ridge damping (the paper's default).
    pub fn new() -> Self {
        Self {
            with_intercept: true,
            ridge_lambda: 0.0,
            coefficients: Vec::new(),
            intercept: 0.0,
        }
    }

    /// Enable or disable the intercept term (`c4` in Eq. 2).
    pub fn with_intercept(mut self, yes: bool) -> Self {
        self.with_intercept = yes;
        self
    }

    /// Set a ridge damping factor (0 = pure OLS). Useful when the metric
    /// columns are collinear, e.g. when fitting on a single ConvNet whose
    /// FLOPs and Outputs scale identically with batch size.
    pub fn with_ridge(mut self, lambda: f64) -> Self {
        assert!(lambda >= 0.0, "ridge lambda must be non-negative");
        self.ridge_lambda = lambda;
        self
    }

    /// Fit the model on feature rows `xs` and targets `ys`, consuming the
    /// builder and returning the fitted model.
    pub fn fit(self, xs: &[impl AsRef<[f64]>], ys: &[f64]) -> Result<Self, FitError> {
        let [fitted] = self.fit_targets(xs, [ys])?;
        Ok(fitted)
    }

    /// Fit one model per target against the same feature rows `xs`,
    /// factoring the design once. Each model is bit-identical to a separate
    /// [`LinearRegression::fit`] on its target. This is the batch of one of
    /// [`LinearRegression::fit_batch`].
    pub fn fit_targets<const N: usize>(
        self,
        xs: &[impl AsRef<[f64]>],
        targets: [&[f64]; N],
    ) -> Result<[Self; N], FitError> {
        only(self.fit_batch([(xs.len(), |i: usize| xs[i].as_ref(), targets)]))
    }

    /// Fit one set of models per problem `(obs, row, targets)`: `obs`
    /// observations whose features `row(i)` gives, and one `obs`-long
    /// target per model. The problems' designs are factored [`LANES`] at a
    /// time in lockstep, and each result is bit-identical to fitting its
    /// problem alone.
    pub fn fit_batch<'t, R: AsRef<[f64]>, const N: usize>(
        self,
        problems: impl IntoIterator<Item = (usize, impl Fn(usize) -> R, [&'t [f64]; N])>,
    ) -> Vec<Result<[Self; N], FitError>> {
        self.fit_rows(
            problems
                .into_iter()
                .map(|(obs, row, targets)| (obs, move |i| (row(i), 1.0), targets)),
        )
    }

    /// The fit behind every fit in this crate, over a batch of problems
    /// `(obs, row, targets)`. `row(i)` gives observation `i`'s features
    /// and its row weight `sw`: design row `i` is the features followed by
    /// a 1 for the intercept (when enabled), all multiplied by `sw` —
    /// weighted least squares by √w row scaling, intercept column included.
    /// The caller scales the targets to match. At most [`LANES`] designs
    /// are live at once: each group is written, factored in lockstep and
    /// solved before the next group is written.
    pub(crate) fn fit_rows<'t, R: AsRef<[f64]>, const N: usize>(
        &self,
        problems: impl IntoIterator<Item = (usize, impl Fn(usize) -> (R, f64), [&'t [f64]; N])>,
    ) -> Vec<Result<[Self; N], FitError>> {
        let mut problems = problems.into_iter().peekable();
        if problems.peek().is_none() {
            return Vec::new();
        }
        let _span = convmeter_obs::span!("linalg.fit");
        let mut fits = Vec::with_capacity(problems.size_hint().0);
        while problems.peek().is_some() {
            let mut scales: [Vec<f64>; LANES] = Default::default();
            let designs = problems.by_ref().take(LANES).zip(&mut scales).map(
                |((obs, row, targets), scales)| {
                    convmeter_obs::counter!("linalg.fits").add(N as u64);
                    for ys in targets {
                        assert_eq!(obs, ys.len(), "xs/ys length mismatch");
                    }
                    Ok((self.design(obs, row, scales)?, targets))
                },
            );
            let solved = RidgeDesign::solve_batch(designs);
            fits.extend(solved.into_iter().zip(&scales).map(|(solution, scales)| {
                solution.map(|coefs| coefs.map(|coefs| self.unscaled(coefs, scales)))
            }));
        }
        fits
    }

    /// The column-major design of `obs` observations, written once from
    /// `row` and column-scaled in place; `scales` receives each column's
    /// scale.
    fn design<R: AsRef<[f64]>>(
        &self,
        obs: usize,
        row: impl Fn(usize) -> (R, f64),
        scales: &mut Vec<f64>,
    ) -> Result<RidgeDesign, FitError> {
        let n_features = if obs == 0 { 0 } else { row(0).0.as_ref().len() };
        if (0..obs).any(|i| row(i).0.as_ref().len() != n_features) {
            return Err(FitError::RaggedFeatures);
        }
        let unknowns = n_features + usize::from(self.with_intercept);
        if obs < unknowns {
            return Err(FitError::TooFewObservations {
                have: obs,
                need: unknowns,
            });
        }
        let mut design = RidgeDesign::new(obs, unknowns, self.ridge_lambda);
        // Row by row, so each observation's features are produced once.
        let mut columns: Vec<&mut [f64]> = design.columns_mut().collect();
        for i in 0..obs {
            let (x, sw) = row(i);
            for (c, column) in columns.iter_mut().enumerate() {
                column[i] = x.as_ref().get(c).map_or(sw, |x| x * sw);
            }
        }
        // Column scaling: the ConvMeter metrics span ~12 orders of magnitude
        // (FLOPs ~1e9 vs. intercept ~1). Normalising each column by its max
        // absolute value keeps QR honest; coefficients are unscaled after.
        // The ridge rows below the observations stay unscaled.
        scales.clear();
        scales.resize(unknowns, 1.0);
        for (column, scale) in columns.into_iter().zip(scales.iter_mut()) {
            let m = column.iter().fold(0.0f64, |acc, &x| acc.max(x.abs()));
            if m > 0.0 {
                *scale = m;
            }
            for v in column.iter_mut() {
                *v /= *scale;
            }
        }
        Ok(design)
    }

    /// The fitted model of a solution of the scaled design.
    fn unscaled(&self, mut coefs: Vec<f64>, scales: &[f64]) -> Self {
        for (b, s) in coefs.iter_mut().zip(scales) {
            *b /= s;
        }
        let intercept = if self.with_intercept {
            // analyzer:allow(CA0004, reason = "the design carries the intercept column, so the solution includes its coefficient")
            coefs.pop().expect("intercept column present")
        } else {
            0.0
        };
        Self::from_parts(self.with_intercept, self.ridge_lambda, coefs, intercept)
    }

    /// Fit and return both the fitted model and a [`FitSummary`] with
    /// in-sample error metrics.
    pub fn fit_with_summary(
        self,
        xs: &[impl AsRef<[f64]>],
        ys: &[f64],
    ) -> Result<(Self, FitSummary), FitError> {
        let fitted = self.fit(xs, ys)?;
        let preds = fitted.predict_batch(xs);
        let summary = FitSummary {
            coefficients: fitted.coefficients.clone(),
            intercept: fitted.intercept,
            training_error: ErrorReport::compute(&preds, ys),
        };
        Ok((fitted, summary))
    }

    /// Predict a single observation.
    ///
    /// # Panics
    /// Panics if `x.len()` differs from the fitted feature count.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(
            x.len(),
            self.coefficients.len(),
            "feature count mismatch: model has {}, got {}",
            self.coefficients.len(),
            x.len()
        );
        self.intercept
            + x.iter()
                .zip(&self.coefficients)
                .map(|(a, b)| a * b)
                .sum::<f64>()
    }

    /// Predict a batch of observations.
    pub fn predict_batch(&self, xs: &[impl AsRef<[f64]>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict(x.as_ref())).collect()
    }

    /// The fitted feature coefficients.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// The fitted intercept (0 if disabled).
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Whether this model includes an intercept term.
    pub fn has_intercept(&self) -> bool {
        self.with_intercept
    }

    /// Assemble a fitted model from explicit parts.
    pub(crate) fn from_parts(
        with_intercept: bool,
        ridge_lambda: f64,
        coefficients: Vec<f64>,
        intercept: f64,
    ) -> Self {
        Self {
            with_intercept,
            ridge_lambda,
            coefficients,
            intercept,
        }
    }
}

/// The fit that [`LinearRegression::fit_rows`] replaced: the design copied
/// into a row-major `Matrix`, widened by a ones column, stacked on its
/// ridge rows, then copied again into the factorisation. Kept as the oracle
/// the one-buffer fit must match bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::{FitError, LinearRegression};
    use crate::matrix::Matrix;
    use crate::qr::HouseholderQr;

    fn with_ones_column(a: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), a.cols() + 1);
        for r in 0..a.rows() {
            out.row_mut(r)[..a.cols()].copy_from_slice(a.row(r));
            out[(r, a.cols())] = 1.0;
        }
        out
    }

    fn vstack(a: &Matrix, b: &Matrix) -> Matrix {
        let mut data = a.as_slice().to_vec();
        data.extend_from_slice(b.as_slice());
        Matrix::from_vec(a.rows() + b.rows(), a.cols(), data)
    }

    pub(crate) fn fit(
        with_intercept: bool,
        lambda: f64,
        xs: &[Vec<f64>],
        ys: &[f64],
    ) -> Result<LinearRegression, FitError> {
        let n_features = xs.first().map_or(0, Vec::len);
        if xs.iter().any(|r| r.len() != n_features) {
            return Err(FitError::RaggedFeatures);
        }
        let unknowns = n_features + usize::from(with_intercept);
        if xs.len() < unknowns {
            return Err(FitError::TooFewObservations {
                have: xs.len(),
                need: unknowns,
            });
        }
        let design = Matrix::from_rows(xs);
        let design = if with_intercept {
            with_ones_column(&design)
        } else {
            design
        };
        let mut scales = vec![1.0f64; design.cols()];
        for (c, scale) in scales.iter_mut().enumerate() {
            let m = design
                .col(c)
                .iter()
                .fold(0.0f64, |acc, &x| acc.max(x.abs()));
            if m > 0.0 {
                *scale = m;
            }
        }
        let mut scaled = design;
        for r in 0..scaled.rows() {
            for (c, v) in scaled.row_mut(r).iter_mut().enumerate() {
                *v /= scales[c];
            }
        }
        let n = scaled.cols();
        let mut rhs = ys.to_vec();
        let qr = if lambda == 0.0 {
            HouseholderQr::new(&scaled)?
        } else {
            let mut reg = Matrix::zeros(n, n);
            for i in 0..n {
                reg[(i, i)] = lambda.sqrt();
            }
            rhs.resize(ys.len() + n, 0.0);
            HouseholderQr::new(&vstack(&scaled, &reg))?
        };
        let mut coefs = qr.solve(&rhs)?;
        for (b, s) in coefs.iter_mut().zip(&scales) {
            *b /= s;
        }
        let intercept = if with_intercept {
            coefs.pop().unwrap()
        } else {
            0.0
        };
        Ok(LinearRegression::from_parts(
            with_intercept,
            lambda,
            coefs,
            intercept,
        ))
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    /// A small deterministic generator (xorshift64*) for random designs.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        /// Uniform in `[0, 1)`.
        pub(crate) fn unit(&mut self) -> f64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Random `n x cols` feature rows with per-column scales from 1e-3 to
    /// 1e9, like a ConvMeter design, and a noisy linear target.
    pub(crate) fn random_design(rng: &mut Rng, n: usize, cols: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let scales: Vec<f64> = (0..cols)
            .map(|_| 10f64.powi((rng.unit() * 12.0) as i32 - 3))
            .collect();
        let coefs: Vec<f64> = scales.iter().map(|s| (rng.unit() + 0.1) / s).collect();
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let row: Vec<f64> = scales.iter().map(|s| (rng.unit() + 0.05) * s).collect();
            let y = 0.3 + row.iter().zip(&coefs).map(|(x, c)| x * c).sum::<f64>();
            ys.push(y * (1.0 + 0.01 * (rng.unit() - 0.5)));
            xs.push(row);
        }
        (xs, ys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(coefs: &[f64], intercept: f64, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let t = i as f64 + 1.0;
            let row: Vec<f64> = (0..coefs.len())
                .map(|j| (t * (j as f64 + 1.3)).sin() * 5.0 + t * (j as f64 + 0.5))
                .collect();
            ys.push(intercept + row.iter().zip(coefs).map(|(x, c)| x * c).sum::<f64>());
            xs.push(row);
        }
        (xs, ys)
    }

    #[test]
    fn recovers_coefficients_and_intercept() {
        let truth = [1.5, -2.0, 0.25];
        let (xs, ys) = synthetic(&truth, 7.0, 60);
        let m = LinearRegression::new().fit(&xs, &ys).unwrap();
        for (got, want) in m.coefficients().iter().zip(&truth) {
            assert!((got - want).abs() < 1e-8, "{:?}", m.coefficients());
        }
        assert!((m.intercept() - 7.0).abs() < 1e-7);
    }

    #[test]
    fn no_intercept_forces_through_origin() {
        let (xs, ys) = synthetic(&[2.0], 0.0, 20);
        let m = LinearRegression::new()
            .with_intercept(false)
            .fit(&xs, &ys)
            .unwrap();
        assert_eq!(m.intercept(), 0.0);
        assert!((m.coefficients()[0] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn summary_reports_perfect_r2_for_noiseless_data() {
        let (xs, ys) = synthetic(&[1.0, 2.0], 3.0, 30);
        let (_, summary) = LinearRegression::new().fit_with_summary(&xs, &ys).unwrap();
        assert!(summary.training_error.r2 > 0.999999);
        assert!(summary.training_error.mape < 1e-6);
    }

    #[test]
    fn too_few_observations_is_an_error() {
        let xs = vec![vec![1.0, 2.0]];
        let ys = vec![3.0];
        assert!(matches!(
            LinearRegression::new().fit(&xs, &ys),
            Err(FitError::TooFewObservations { have: 1, need: 3 })
        ));
    }

    #[test]
    fn ragged_features_is_an_error() {
        let xs = vec![vec![1.0], vec![1.0, 2.0], vec![3.0]];
        let ys = vec![1.0, 2.0, 3.0];
        assert!(matches!(
            LinearRegression::new().fit(&xs, &ys),
            Err(FitError::RaggedFeatures)
        ));
    }

    #[test]
    fn collinear_features_error_without_ridge_and_succeed_with() {
        let xs: Vec<Vec<f64>> = (1..20).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let ys: Vec<f64> = (1..20).map(|i| 5.0 * i as f64).collect();
        assert!(matches!(
            LinearRegression::new().with_intercept(false).fit(&xs, &ys),
            Err(FitError::RankDeficient)
        ));
        let m = LinearRegression::new()
            .with_intercept(false)
            .with_ridge(1e-8)
            .fit(&xs, &ys)
            .unwrap();
        assert!((m.predict(&[10.0, 20.0]) - 50.0).abs() < 1e-3);
    }

    #[test]
    fn handles_convmeter_scale_features() {
        // FLOPs ~ 1e9..1e12, tensor elements ~ 1e5..1e8, coefficients in
        // seconds-per-unit: c1 ~ 1e-12, c2/c3 ~ 1e-9, intercept ~ 1e-3.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 1..200 {
            let b = i as f64;
            let flops = 4.1e9 * b;
            let inputs = 2.3e6 * b;
            let outputs = 3.7e6 * b;
            xs.push(vec![flops, inputs, outputs]);
            ys.push(3e-12 * flops + 1.5e-9 * inputs + 2.5e-9 * outputs + 4e-4);
        }
        // All three columns scale with b only => collinear. Ridge sorts it.
        let m = LinearRegression::new()
            .with_ridge(1e-9)
            .fit(&xs, &ys)
            .unwrap();
        let pred = m.predict(&[4.1e11, 2.3e8, 3.7e8]);
        let truth = 3e-12 * 4.1e11 + 1.5e-9 * 2.3e8 + 2.5e-9 * 3.7e8 + 4e-4;
        assert!(
            (pred - truth).abs() / truth < 1e-6,
            "pred={pred}, truth={truth}"
        );
    }

    #[test]
    fn predict_batch_matches_predict() {
        let (xs, ys) = synthetic(&[1.0, -1.0], 0.5, 25);
        let m = LinearRegression::new().fit(&xs, &ys).unwrap();
        let batch = m.predict_batch(&xs);
        for (b, x) in batch.iter().zip(&xs) {
            assert_eq!(*b, m.predict(x));
        }
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn predict_rejects_wrong_arity() {
        let (xs, ys) = synthetic(&[1.0, 2.0], 0.0, 10);
        let m = LinearRegression::new().fit(&xs, &ys).unwrap();
        let _ = m.predict(&[1.0]);
    }

    #[test]
    fn fit_targets_matches_separate_fits_bitwise() {
        let (xs, ys) = synthetic(&[1.5, -2.0, 0.25], 7.0, 80);
        let noisy: Vec<f64> = ys
            .iter()
            .enumerate()
            .map(|(i, y)| y * (1.0 + 0.01 * (i as f64 * 0.9).sin()))
            .collect();
        for (intercept, ridge) in [(true, 0.0), (true, 1e-9), (false, 1e-6)] {
            let builder = LinearRegression::new()
                .with_intercept(intercept)
                .with_ridge(ridge);
            let [a, b] = builder.clone().fit_targets(&xs, [&ys, &noisy]).unwrap();
            assert_eq!(bits(&a), bits(&builder.clone().fit(&xs, &ys).unwrap()));
            assert_eq!(bits(&b), bits(&builder.clone().fit(&xs, &noisy).unwrap()));
        }
    }

    fn bits(m: &LinearRegression) -> Vec<u64> {
        let mut b: Vec<u64> = m.coefficients().iter().map(|c| c.to_bits()).collect();
        b.push(m.intercept().to_bits());
        b
    }

    #[test]
    fn one_buffer_fit_matches_matrix_reference_bitwise() {
        use super::test_support::{random_design, Rng};
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for trial in 0..24 {
            let n = 8 + (rng.unit() * 300.0) as usize;
            let cols = 1 + (rng.unit() * 6.0) as usize;
            let (xs, ys) = random_design(&mut rng, n, cols);
            let noisy: Vec<f64> = ys.iter().map(|y| y * (1.0 + rng.unit())).collect();
            for intercept in [true, false] {
                for lambda in [0.0, 1e-9, 0.5] {
                    let builder = LinearRegression::new()
                        .with_intercept(intercept)
                        .with_ridge(lambda);
                    let [a, b] = builder.clone().fit_targets(&xs, [&ys, &noisy]).unwrap();
                    let want_a = reference::fit(intercept, lambda, &xs, &ys).unwrap();
                    let want_b = reference::fit(intercept, lambda, &xs, &noisy).unwrap();
                    let case = format!(
                        "trial {trial}: {n}x{cols}, intercept {intercept}, lambda {lambda}"
                    );
                    assert_eq!(bits(&a), bits(&want_a), "{case}");
                    assert_eq!(bits(&b), bits(&want_b), "{case}");
                }
            }
        }
    }

    #[test]
    fn array_rows_match_vec_row_reference_bitwise() {
        use super::test_support::{random_design, Rng};
        fn arrays<const C: usize>(xs: &[Vec<f64>]) -> Vec<[f64; C]> {
            xs.iter()
                .map(|r| r.as_slice().try_into().unwrap())
                .collect()
        }
        fn check<const C: usize>(rng: &mut Rng) {
            let n = 8 + (rng.unit() * 200.0) as usize;
            let (xs, ys) = random_design(rng, n, C);
            let rows = arrays::<C>(&xs);
            for intercept in [true, false] {
                for lambda in [0.0, 1e-6] {
                    let builder = LinearRegression::new()
                        .with_intercept(intercept)
                        .with_ridge(lambda);
                    let want = reference::fit(intercept, lambda, &xs, &ys).unwrap();
                    let [got] = builder.clone().fit_targets(&rows, [&ys]).unwrap();
                    assert_eq!(bits(&got), bits(&want), "{n}x{C}");
                    let got = builder.fit(&rows, &ys).unwrap();
                    assert_eq!(bits(&got), bits(&want), "{n}x{C}");
                    assert_eq!(got.predict_batch(&rows), want.predict_batch(&xs));
                }
            }
        }
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        for _ in 0..8 {
            // The widths of the feature rows ConvMeter fits: gradient
            // (single), forward and gradient (multi), fused.
            check::<1>(&mut rng);
            check::<3>(&mut rng);
            check::<6>(&mut rng);
        }
    }

    #[test]
    fn one_buffer_fit_matches_reference_errors() {
        let collinear: Vec<Vec<f64>> = (1..20).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
        let ys: Vec<f64> = (1..20).map(|i| 5.0 * i as f64).collect();
        for intercept in [true, false] {
            assert_eq!(
                LinearRegression::new()
                    .with_intercept(intercept)
                    .fit(&collinear, &ys)
                    .unwrap_err(),
                reference::fit(intercept, 0.0, &collinear, &ys).unwrap_err()
            );
        }
    }

    #[test]
    fn clone_preserves_predictions() {
        let (xs, ys) = synthetic(&[1.0, 2.0, 3.0], 4.0, 40);
        let m = LinearRegression::new().fit(&xs, &ys).unwrap();
        let m2 = m.clone();
        assert_eq!(m.predict(&xs[0]), m2.predict(&xs[0]));
    }
}
