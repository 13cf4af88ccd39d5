//! Householder QR factorisation and least-squares solving.
//!
//! For an `m x n` matrix `A` with `m >= n`, we compute `A = Q R` using
//! Householder reflections applied in place, then solve the least-squares
//! problem `min ||A x - b||` by applying the reflections to `b` and
//! back-substituting through `R`. This avoids forming `AᵀA`, whose condition
//! number is the square of `A`'s — a real concern for ConvMeter's design
//! matrices, where FLOPs, Inputs, and Outputs are strongly correlated across
//! ConvNets.
//!
//! Independent designs are factored [`LANES`] at a time in lockstep. Most
//! of a factorisation's time is the column norm, a serial chain of `hypot`
//! calls whose order is part of every pinned result; the chains of
//! different designs do not depend on each other, so running them
//! interleaved overlaps their latencies without moving a bit.

use crate::matrix::Matrix;

/// How many independent designs are factored together in lockstep: for
/// each column, the group's norm chains run interleaved, then each design
/// applies its own reflector.
pub const LANES: usize = 4;

/// Error returned when a least-squares system cannot be solved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QrError {
    /// The system is underdetermined (`rows < cols`).
    Underdetermined {
        /// Number of rows (observations).
        rows: usize,
        /// Number of columns (unknowns).
        cols: usize,
    },
    /// `R` has a (near-)zero diagonal entry: the columns of `A` are linearly
    /// dependent at working precision.
    RankDeficient {
        /// Index of the offending column.
        column: usize,
    },
}

impl std::fmt::Display for QrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QrError::Underdetermined { rows, cols } => {
                write!(f, "underdetermined system: {rows} rows < {cols} columns")
            }
            QrError::RankDeficient { column } => {
                write!(f, "rank-deficient design matrix (column {column})")
            }
        }
    }
}

impl std::error::Error for QrError {}

/// The compact result of a Householder QR factorisation.
///
/// `qr` holds the factored matrix column by column: column `k` is
/// `qr[k * rows..(k + 1) * rows]`, with `R` on and above the diagonal and
/// the essential part of the `k`-th Householder vector below it. Every
/// inner loop of the factorisation and of [`HouseholderQr::solve`] walks
/// one column, so it reads contiguous memory. `beta` stores the scalar
/// factors.
#[derive(Debug, Clone)]
pub struct HouseholderQr {
    qr: Vec<f64>,
    rows: usize,
    beta: Vec<f64>,
    /// Rank tolerance of [`HouseholderQr::solve`]: a diagonal entry of `R`
    /// at or below it counts as zero.
    tol: f64,
}

impl HouseholderQr {
    /// Factor `a` (which must have `rows >= cols`).
    pub fn new(a: &Matrix) -> Result<Self, QrError> {
        let mut design = RidgeDesign::new(a.rows(), a.cols(), 0.0);
        for (c, column) in design.columns_mut().enumerate() {
            for (r, v) in column.iter_mut().enumerate() {
                *v = a[(r, c)];
            }
        }
        only(Self::factor_batch([Ok::<_, QrError>(design)]))
    }

    /// Factor each design in place, in order: each buffer becomes its
    /// factorisation. The designs are taken [`LANES`] at a time and each
    /// group is factored in lockstep ([`HouseholderQr::factor_group`]); an
    /// `Err` item passes through in its place. Every factorisation is
    /// bit-identical to factoring its design alone.
    fn factor_batch<E: From<QrError>>(
        designs: impl IntoIterator<Item = Result<RidgeDesign, E>>,
    ) -> Vec<Result<Self, E>> {
        let mut designs = designs.into_iter().peekable();
        let mut out = Vec::with_capacity(designs.size_hint().0);
        while designs.peek().is_some() {
            let mut errors: [Option<E>; LANES] = Default::default();
            let mut taken = 0;
            let group = std::array::from_fn(|lane| {
                let design = designs.next()?;
                taken += 1;
                design.map_err(|e| errors[lane] = Some(e)).ok()
            });
            let factors = Self::factor_group(group);
            let lanes = errors.into_iter().zip(factors).take(taken);
            out.extend(lanes.filter_map(|lane| match lane {
                (Some(e), _) => Some(Err(e)),
                (None, factor) => factor.map(|f| f.map_err(E::from)),
            }));
        }
        out
    }

    /// Factor up to [`LANES`] designs together, each result in its
    /// design's lane. Designs of different shapes share the group: a
    /// design leaves it once its columns are done. Column `k` of every
    /// design still in the group is normed by [`column_norms`], which runs
    /// the serial `hypot` chains interleaved; then each design reflects its
    /// own trailing columns exactly as a one-design loop would.
    fn factor_group(group: [Option<RidgeDesign>; LANES]) -> [Option<Result<Self, QrError>>; LANES] {
        let _span = convmeter_obs::span!("linalg.qr.factor");
        // Each factorable design with its reflectors' scalar factors.
        let mut group = group.map(|design| {
            design.map(|d| {
                if d.rows < d.cols {
                    return Err(QrError::Underdetermined {
                        rows: d.rows,
                        cols: d.cols,
                    });
                }
                convmeter_obs::histogram!("linalg.qr.rows").record(d.rows as u64);
                let mut beta = Vec::new();
                beta.resize(d.cols, 0.0);
                Ok((d, beta))
            })
        });
        let width = group.iter().flatten().flatten().count();
        convmeter_obs::histogram!("linalg.qr.lanes").record(width as u64);
        let max_cols = group.iter().flatten().flatten().map(|(d, _)| d.cols).max();
        for k in 0..max_cols.unwrap_or(0) {
            let mut columns: [&[f64]; LANES] = [&[]; LANES];
            for (column, (d, _)) in columns.iter_mut().zip(group.iter().flatten().flatten()) {
                if k < d.cols {
                    *column = &d.data[k * d.rows..(k + 1) * d.rows][k..];
                }
            }
            let norms = column_norms(&columns);
            let lanes = group.iter_mut().flatten().flatten();
            for ((d, beta), norm) in lanes.zip(norms) {
                if k < d.cols {
                    reflect(&mut d.data, d.rows, k, norm, beta);
                }
            }
        }
        group.map(|lane| {
            lane.map(|lane| {
                lane.map(|(d, beta)| {
                    // Scale-aware singularity test: a diagonal entry is
                    // "zero" when it is negligible relative to the matrix
                    // magnitude.
                    let max_abs = d.data.iter().fold(0.0f64, |acc, &x| acc.max(x.abs()));
                    Self {
                        tol: f64::EPSILON * (d.rows as f64) * max_abs.max(1e-300),
                        qr: d.data,
                        rows: d.rows,
                        beta,
                    }
                })
            })
        })
    }

    /// Number of unknowns (columns of the factored matrix).
    pub fn cols(&self) -> usize {
        self.beta.len()
    }

    /// Column `k` of the factored matrix.
    fn col(&self, k: usize) -> &[f64] {
        &self.qr[k * self.rows..(k + 1) * self.rows]
    }

    /// The diagonal of `R` (signed). Because `|r_kk|` measures how much of
    /// column `k` is linearly independent of the columns before it, the
    /// spread of these magnitudes is a cheap conditioning probe.
    pub fn r_diagonal(&self) -> Vec<f64> {
        (0..self.cols()).map(|k| self.col(k)[k]).collect()
    }

    /// Solve for each `obs`-long right-hand side, zero-padded to the
    /// factored row count (the ridge rows' targets) in `rhs`.
    ///
    /// # Panics
    /// Panics if a right-hand side's length differs from `obs`.
    fn solve_padded<const N: usize>(
        &self,
        obs: usize,
        bs: [&[f64]; N],
        rhs: &mut Vec<f64>,
    ) -> Result<[Vec<f64>; N], QrError> {
        let mut solutions = [(); N].map(|()| Vec::new());
        for (x, b) in solutions.iter_mut().zip(bs) {
            assert_eq!(b.len(), obs, "rhs length mismatch");
            rhs.clear();
            rhs.extend_from_slice(b);
            rhs.resize(self.rows, 0.0);
            *x = self.solve(rhs)?;
        }
        Ok(solutions)
    }

    /// Solve `min ||A x - b||` for `x` given the factorisation of `A`.
    ///
    /// Rank deficiency is a property of `A` alone: either every right-hand
    /// side solves or every one fails with the same column.
    ///
    /// # Panics
    /// Panics if `b.len()` differs from the factored matrix's row count.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, QrError> {
        let _span = convmeter_obs::span!("linalg.qr.solve");
        let n = self.cols();
        assert_eq!(b.len(), self.rows, "rhs length mismatch");
        let mut y = b.to_vec();
        // Apply Qᵀ to b.
        for k in 0..n {
            if self.beta[k] == 0.0 {
                continue;
            }
            let (_, v) = self.col(k).split_at(k + 1);
            let (head, tail) = y.split_at_mut(k + 1);
            let mut s = head[k];
            for (&vi, &yi) in v.iter().zip(tail.iter()) {
                s += vi * yi;
            }
            s *= self.beta[k];
            head[k] -= s;
            for (yi, &vi) in tail.iter_mut().zip(v) {
                *yi -= s * vi;
            }
        }
        // Back-substitute through R.
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let mut s = y[k];
            for (j, &xj) in x.iter().enumerate().skip(k + 1) {
                s -= self.col(j)[k] * xj;
            }
            let rkk = self.col(k)[k];
            if rkk.abs() <= self.tol {
                return Err(QrError::RankDeficient { column: k });
            }
            x[k] = s / rkk;
        }
        Ok(x)
    }
}

/// The result of a batch of one: every batch function in this crate
/// returns one result per problem, in order.
pub fn only<T>(batch: Vec<T>) -> T {
    let mut results = batch.into_iter();
    // analyzer:allow(CA0004, reason = "a batch function returns one result per problem, and this batch holds one")
    results.next().expect("a batch of one has one result")
}

/// The Euclidean norm of each column, as the serial chain
/// `norm = norm.hypot(x)` over the column in order. The chains of
/// different columns are independent, so they run interleaved — one
/// `hypot` per live chain per row — and their latencies overlap. A chain
/// leaves when its column ends. Each chain still sees exactly its own
/// values in its own order, so every norm is bit-identical to a
/// one-column loop.
fn column_norms(columns: &[&[f64]; LANES]) -> [f64; LANES] {
    // Lanes by column length: the chains still running at any row are a
    // suffix of this order.
    let mut order: [usize; LANES] = std::array::from_fn(|l| l);
    order.sort_by_key(|&l| columns[l].len());
    let mut norms = [0.0f64; LANES];
    let mut from = 0;
    for (first, &l) in order.iter().enumerate() {
        let to = columns[l].len();
        if to == from {
            continue;
        }
        let live = &order[first..];
        let rows = from..to;
        match live.len() {
            1 => hypot_chains::<1>(columns, live, rows, &mut norms),
            2 => hypot_chains::<2>(columns, live, rows, &mut norms),
            3 => hypot_chains::<3>(columns, live, rows, &mut norms),
            _ => hypot_chains::<LANES>(columns, live, rows, &mut norms),
        }
        from = to;
    }
    norms
}

/// Continue the `W` chains of the lanes in `live` over `rows`, one row of
/// every chain per step.
fn hypot_chains<const W: usize>(
    columns: &[&[f64]; LANES],
    live: &[usize],
    rows: std::ops::Range<usize>,
    norms: &mut [f64; LANES],
) {
    let lanes: [usize; W] = std::array::from_fn(|j| live[j]);
    let segments = lanes.map(|l| &columns[l][rows.clone()]);
    let mut acc = lanes.map(|l| norms[l]);
    for i in 0..rows.len() {
        for (norm, segment) in acc.iter_mut().zip(&segments) {
            *norm = norm.hypot(segment[i]);
        }
    }
    for (l, norm) in lanes.into_iter().zip(acc) {
        norms[l] = norm;
    }
}

/// Turn column `k` of the column-major `m`-row buffer `qr` into its
/// Householder reflector, given the column's norm below the diagonal, and
/// apply it to the trailing columns. `beta[k]` receives the reflector's
/// scalar factor; a zero norm leaves the column as it is, with `beta[k]`
/// zero.
fn reflect(qr: &mut [f64], m: usize, k: usize, norm: f64, beta: &mut [f64]) {
    if norm == 0.0 {
        return;
    }
    let (done, trailing) = qr.split_at_mut((k + 1) * m);
    let col = &mut done[k * m..];
    let (head, v) = col.split_at_mut(k + 1);
    let alpha = if head[k] >= 0.0 { -norm } else { norm };
    let v0 = head[k] - alpha;
    // Normalise so v[k] = 1 implicitly; store v[k+1..] scaled by 1/v0.
    for x in v.iter_mut() {
        *x /= v0;
    }
    beta[k] = -v0 / alpha;
    head[k] = alpha;
    let v = &*v;
    for target in trailing.chunks_exact_mut(m) {
        let (head, tail) = target.split_at_mut(k + 1);
        let mut s = head[k];
        for (&vi, &xi) in v.iter().zip(tail.iter()) {
            s += vi * xi;
        }
        s *= beta[k];
        head[k] -= s;
        for (xi, &vi) in tail.iter_mut().zip(v) {
            *xi -= s * vi;
        }
    }
}

/// Cheap condition-number estimate of `a`: the ratio `max|r_kk| / min|r_kk|`
/// over the diagonal of its QR factor `R`.
///
/// This is a lower bound on the true 2-norm condition number, but it tracks
/// it well enough to flag ill-conditioned design matrices (collinear metric
/// columns). Returns `f64::INFINITY` for an exactly singular matrix.
pub fn condition_estimate(a: &Matrix) -> Result<f64, QrError> {
    let diag = HouseholderQr::new(a)?.r_diagonal();
    if diag.is_empty() {
        return Ok(1.0);
    }
    let max = diag.iter().fold(0.0f64, |m, d| m.max(d.abs()));
    let min = diag.iter().fold(f64::INFINITY, |m, d| m.min(d.abs()));
    if min == 0.0 {
        Ok(f64::INFINITY)
    } else {
        Ok(max / min)
    }
}

/// A ridge-damped least-squares design, written once into the buffer it
/// is factored in.
///
/// The buffer is column-major: each of the `cols` columns holds `obs`
/// observation rows followed, when `lambda > 0`, by `cols` rows of
/// `sqrt(lambda) * I`. Solving `min ||a x - b||² + lambda ||x||²` on the
/// augmented system is then one in-place factorisation; `lambda = 0` is
/// plain least squares.
#[derive(Debug, Clone)]
pub struct RidgeDesign {
    data: Vec<f64>,
    obs: usize,
    rows: usize,
    cols: usize,
}

impl RidgeDesign {
    /// A zeroed `obs x cols` design with its ridge rows (if any) in place.
    pub fn new(obs: usize, cols: usize, lambda: f64) -> Self {
        assert!(lambda >= 0.0, "ridge lambda must be non-negative");
        let rows = if lambda == 0.0 { obs } else { obs + cols };
        let mut data = vec![0.0; rows * cols];
        if lambda > 0.0 {
            // Column c's ridge entry sits at `c * rows + obs + c`.
            let s = lambda.sqrt();
            for x in data.iter_mut().skip(obs).step_by(rows + 1).take(cols) {
                *x = s;
            }
        }
        Self {
            data,
            obs,
            rows,
            cols,
        }
    }

    /// The observation rows of each column in turn, to fill or rescale in
    /// place.
    pub fn columns_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        let obs = self.obs;
        // An empty design has no columns to yield, whatever the chunk size.
        self.data
            .chunks_exact_mut(self.rows.max(1))
            .map(move |column| column.split_at_mut(obs).0)
    }

    /// Factor the design in place and solve it for every right-hand side
    /// (one `obs`-long target each): the batch of one of
    /// [`RidgeDesign::solve_batch`].
    pub fn solve<const N: usize>(self, bs: [&[f64]; N]) -> Result<[Vec<f64>; N], QrError> {
        only(Self::solve_batch([Ok::<_, QrError>((self, bs))]))
    }

    /// Factor each design in place and solve it for each of its right-hand
    /// sides, in order; an `Err` item passes through in its place. The
    /// designs are factored [`LANES`] at a time in lockstep, and each
    /// solution is bit-identical to a one-target solve of its design alone:
    /// neither the group nor `b` changes a factorisation.
    ///
    /// # Panics
    /// Panics if a right-hand side's length differs from its design's
    /// observation count.
    pub(crate) fn solve_batch<'b, E: From<QrError>, const N: usize>(
        batch: impl IntoIterator<Item = Result<(Self, [&'b [f64]; N]), E>>,
    ) -> Vec<Result<[Vec<f64>; N], E>> {
        let batch = batch.into_iter();
        // One entry per item, so the factors line up with them; an `Err`
        // item's entry is never read.
        let mut rhs_sets = Vec::with_capacity(batch.size_hint().0);
        let designs = batch.map(|item| match item {
            Ok((design, bs)) => {
                rhs_sets.push((design.obs, bs));
                Ok(design)
            }
            Err(e) => {
                rhs_sets.push((0, [&[][..]; N]));
                Err(e)
            }
        });
        let factors = HouseholderQr::factor_batch(designs);
        let mut rhs = Vec::new();
        factors
            .into_iter()
            .zip(rhs_sets)
            .map(|(qr, (obs, bs))| Ok(qr?.solve_padded(obs, bs, &mut rhs)?))
            .collect()
    }
}

/// The row-major factor/solve that [`HouseholderQr`] replaced, kept as the
/// oracle its results must match bit for bit.
#[cfg(test)]
mod reference {
    use super::{Matrix, QrError};

    pub fn factor(a: &Matrix) -> (Matrix, Vec<f64>) {
        let (m, n) = (a.rows(), a.cols());
        let mut qr = a.clone();
        let mut beta = vec![0.0; n];
        for k in 0..n {
            let mut norm = 0.0f64;
            for i in k..m {
                norm = norm.hypot(qr[(i, k)]);
            }
            if norm == 0.0 {
                beta[k] = 0.0;
                continue;
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            for i in (k + 1)..m {
                qr[(i, k)] /= v0;
            }
            beta[k] = -v0 / alpha;
            qr[(k, k)] = alpha;
            for j in (k + 1)..n {
                let mut s = qr[(k, j)];
                for i in (k + 1)..m {
                    s += qr[(i, k)] * qr[(i, j)];
                }
                s *= beta[k];
                qr[(k, j)] -= s;
                for i in (k + 1)..m {
                    let vik = qr[(i, k)];
                    qr[(i, j)] -= s * vik;
                }
            }
        }
        (qr, beta)
    }

    #[allow(clippy::needless_range_loop)]
    pub fn solve(qr: &Matrix, beta: &[f64], b: &[f64]) -> Result<Vec<f64>, QrError> {
        let (m, n) = (qr.rows(), qr.cols());
        let mut y = b.to_vec();
        for k in 0..n {
            if beta[k] == 0.0 {
                continue;
            }
            let mut s = y[k];
            for i in (k + 1)..m {
                s += qr[(i, k)] * y[i];
            }
            s *= beta[k];
            y[k] -= s;
            for i in (k + 1)..m {
                y[i] -= s * qr[(i, k)];
            }
        }
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let mut s = y[k];
            for j in (k + 1)..n {
                s -= qr[(k, j)] * x[j];
            }
            let rkk = qr[(k, k)];
            let tol = f64::EPSILON * (m as f64) * qr.max_abs().max(1e-300);
            if rkk.abs() <= tol {
                return Err(QrError::RankDeficient { column: k });
            }
            x[k] = s / rkk;
        }
        Ok(x)
    }

    pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, QrError> {
        let (qr, beta) = factor(a);
        solve(&qr, &beta, b)
    }

    /// `a` stacked on top of `b`.
    pub fn vstack(a: &Matrix, b: &Matrix) -> Matrix {
        let mut data = a.as_slice().to_vec();
        data.extend_from_slice(b.as_slice());
        Matrix::from_vec(a.rows() + b.rows(), a.cols(), data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, QrError> {
        HouseholderQr::new(a)?.solve(b)
    }

    /// `a` written column by column into a ridge design.
    fn ridge_design(a: &Matrix, lambda: f64) -> RidgeDesign {
        let mut design = RidgeDesign::new(a.rows(), a.cols(), lambda);
        for (c, column) in design.columns_mut().enumerate() {
            column.copy_from_slice(&a.col(c));
        }
        design
    }

    fn ridge_lstsq(a: &Matrix, b: &[f64], lambda: f64) -> Result<Vec<f64>, QrError> {
        let [x] = ridge_design(a, lambda).solve([b])?;
        Ok(x)
    }

    /// A deterministic `rows x cols` matrix and right-hand side with
    /// columns of very different scales, like a ConvMeter design.
    fn scaled_system(rows: usize, cols: usize) -> (Matrix, Vec<f64>) {
        let mut data = Vec::with_capacity(rows * cols);
        let mut b = Vec::with_capacity(rows);
        for i in 0..rows {
            let t = i as f64 + 1.0;
            for j in 0..cols {
                let scale = 10f64.powi(3 * j as i32 % 13);
                data.push(((t * (j as f64 + 0.7)).sin() + 1.5 + t * 1e-3) * scale);
            }
            b.push((t * 0.31).cos() * 4.0 + t * 0.01);
        }
        (Matrix::from_vec(rows, cols, data), b)
    }

    fn assert_matches_reference(a: &Matrix, b: &[f64]) {
        let (qr, beta) = reference::factor(a);
        let want = reference::solve(&qr, &beta, b);
        let fact = HouseholderQr::new(a).unwrap();
        assert_eq!(
            bits(&fact.r_diagonal()),
            bits(&(0..a.cols()).map(|k| qr[(k, k)]).collect::<Vec<_>>())
        );
        match (fact.solve(b), want) {
            (Ok(got), Ok(want)) => assert_eq!(bits(&got), bits(&want)),
            (got, want) => assert_eq!(got, want),
        }
    }

    #[test]
    fn column_major_matches_row_major_reference_bitwise() {
        for (rows, cols) in [(2, 2), (5, 3), (40, 4), (333, 6)] {
            let (a, b) = scaled_system(rows, cols);
            assert_matches_reference(&a, &b);
        }
    }

    #[test]
    fn column_scaled_1000x7_matches_reference_bitwise() {
        // The regression path divides every column by its max |x| first.
        let (a, b) = scaled_system(1000, 7);
        let mut scaled = a.clone();
        for c in 0..a.cols() {
            let m = a.col(c).iter().fold(0.0f64, |acc, &x| acc.max(x.abs()));
            for r in 0..a.rows() {
                scaled[(r, c)] /= m;
            }
        }
        assert_matches_reference(&scaled, &b);
    }

    #[test]
    fn ridge_augmented_matches_reference_bitwise() {
        let (a, b) = scaled_system(120, 6);
        for lambda in [0.0f64, 1e-9, 1e-3, 1.0] {
            let n = a.cols();
            let mut reg = Matrix::zeros(n, n);
            for i in 0..n {
                reg[(i, i)] = lambda.sqrt();
            }
            let mut rhs = b.clone();
            let want = if lambda == 0.0 {
                reference::lstsq(&a, &b)
            } else {
                rhs.extend(std::iter::repeat_n(0.0, n));
                reference::lstsq(&reference::vstack(&a, &reg), &rhs)
            };
            let got = ridge_lstsq(&a, &b, lambda).unwrap();
            assert_eq!(bits(&got), bits(&want.unwrap()), "lambda {lambda}");
        }
    }

    #[test]
    fn rank_deficiency_matches_reference() {
        // Column 2 is exactly column 0 plus column 1.
        let rows: Vec<Vec<f64>> = (1..30)
            .map(|i| {
                let t = i as f64;
                vec![t, (t * 0.7).sin(), t + (t * 0.7).sin(), t * t]
            })
            .collect();
        let a = Matrix::from_rows(&rows);
        let b: Vec<f64> = (1..30).map(|i| i as f64).collect();
        let want = reference::lstsq(&a, &b);
        assert!(
            matches!(want, Err(QrError::RankDeficient { .. })),
            "{want:?}"
        );
        assert_eq!(lstsq(&a, &b), want);
        assert_matches_reference(&a, &b);
    }

    #[test]
    fn many_targets_match_separate_solves_bitwise() {
        let (a, b1) = scaled_system(200, 5);
        let b2: Vec<f64> = b1.iter().map(|y| y * y - 1.0).collect();
        for lambda in [0.0, 1e-9] {
            let [x1, x2] = ridge_design(&a, lambda).solve([&b1, &b2]).unwrap();
            assert_eq!(bits(&x1), bits(&ridge_lstsq(&a, &b1, lambda).unwrap()));
            assert_eq!(bits(&x2), bits(&ridge_lstsq(&a, &b2, lambda).unwrap()));
        }
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn solves_square_system_exactly() {
        // x + 2y = 5; 3x + 4y = 11 => x = 1, y = 2.
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let x = lstsq(&a, &[5.0, 11.0]).unwrap();
        assert_close(&x, &[1.0, 2.0], 1e-10);
    }

    #[test]
    fn recovers_planted_coefficients_overdetermined() {
        // y = 2a - 3b + 0.5c over 50 noise-free rows.
        let truth = [2.0, -3.0, 0.5];
        let mut rows = Vec::new();
        let mut b = Vec::new();
        for i in 0..50 {
            let f = i as f64;
            let feats = vec![f, (f * 0.37).sin() * 10.0, f * f * 0.01];
            b.push(feats.iter().zip(&truth).map(|(x, c)| x * c).sum());
            rows.push(feats);
        }
        let x = lstsq(&Matrix::from_rows(&rows), &b).unwrap();
        assert_close(&x, &truth, 1e-8);
    }

    #[test]
    fn least_squares_residual_is_orthogonal_to_columns() {
        // For the LS solution, Aᵀ(Ax - b) = 0.
        let a = Matrix::from_rows(&[
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
            vec![1.0, 4.0],
        ]);
        let b = [6.0, 5.0, 7.0, 10.0];
        let x = lstsq(&a, &b).unwrap();
        let pred = a.matvec(&x);
        let resid: Vec<f64> = pred.iter().zip(&b).map(|(p, y)| p - y).collect();
        let atr = a.transpose().matvec(&resid);
        assert!(atr.iter().all(|v| v.abs() < 1e-10), "{atr:?}");
    }

    #[test]
    fn detects_underdetermined() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            lstsq(&a, &[0.0, 0.0]),
            Err(QrError::Underdetermined { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn detects_rank_deficiency() {
        // Second column is exactly twice the first.
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        assert!(matches!(
            lstsq(&a, &[1.0, 2.0, 3.0]),
            Err(QrError::RankDeficient { .. })
        ));
    }

    #[test]
    fn ridge_resolves_rank_deficiency() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        let x = ridge_lstsq(&a, &[1.0, 2.0, 3.0], 1e-6).unwrap();
        // Ridge splits the weight across the collinear columns; the fitted
        // values must still reproduce b.
        let pred = a.matvec(&x);
        assert_close(&pred, &[1.0, 2.0, 3.0], 1e-3);
    }

    #[test]
    fn ridge_zero_equals_ols() {
        let a = Matrix::from_rows(&[vec![1.0, 0.5], vec![0.3, 2.0], vec![1.5, 1.0]]);
        let b = [1.0, 2.0, 3.0];
        let ols = lstsq(&a, &b).unwrap();
        let ridge = ridge_lstsq(&a, &b, 0.0).unwrap();
        assert_eq!(ols, ridge);
    }

    #[test]
    fn ridge_shrinks_coefficients() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let b = [10.0, 10.0, 20.0];
        let ols = lstsq(&a, &b).unwrap();
        let ridge = ridge_lstsq(&a, &b, 10.0).unwrap();
        let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
        assert!(norm(&ridge) < norm(&ols));
    }

    #[test]
    fn condition_estimate_tracks_conditioning() {
        // Orthogonal columns: perfectly conditioned.
        let eye = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![0.0, 0.0]]);
        let c = condition_estimate(&eye).unwrap();
        assert!((c - 1.0).abs() < 1e-12, "{c}");
        // Near-collinear columns: huge estimate.
        let near = Matrix::from_rows(&[
            vec![1.0, 1.0],
            vec![1.0, 1.0 + 1e-12],
            vec![1.0, 1.0 - 1e-12],
        ]);
        assert!(condition_estimate(&near).unwrap() > 1e10);
        // Singular (second column = 2x first): the trailing diagonal entry
        // collapses to roundoff, giving an astronomically large estimate.
        let sing = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        assert!(condition_estimate(&sing).unwrap() > 1e12);
        // A column of exact zeros: infinite.
        let zero_col = Matrix::from_rows(&[vec![1.0, 0.0], vec![2.0, 0.0]]);
        assert!(condition_estimate(&zero_col).unwrap().is_infinite());
        // Underdetermined still errors.
        assert!(condition_estimate(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn handles_badly_scaled_columns() {
        // FLOPs ~ 1e9, tensor sizes ~ 1e6: column scales differ by 1e3+.
        let truth = [3e-12, 4e-9, 1e-3];
        let mut rows = Vec::new();
        let mut b = Vec::new();
        for i in 1..40 {
            let f = i as f64;
            let feats = vec![f * 1e9, f * f * 1e6, 1.0];
            b.push(feats.iter().zip(&truth).map(|(x, c)| x * c).sum());
            rows.push(feats);
        }
        let x = lstsq(&Matrix::from_rows(&rows), &b).unwrap();
        for (got, want) in x.iter().zip(&truth) {
            assert!((got - want).abs() / want.abs() < 1e-6, "{x:?}");
        }
    }

    /// `a` as the system the reference factors: stacked on its ridge rows
    /// when `lambda > 0`, with `b` zero-padded to match.
    fn reference_system(a: &Matrix, b: &[f64], lambda: f64) -> (Matrix, Vec<f64>) {
        if lambda == 0.0 {
            return (a.clone(), b.to_vec());
        }
        let n = a.cols();
        let mut reg = Matrix::zeros(n, n);
        for i in 0..n {
            reg[(i, i)] = lambda.sqrt();
        }
        let mut rhs = b.to_vec();
        rhs.resize(a.rows() + n, 0.0);
        (reference::vstack(a, &reg), rhs)
    }

    /// Factor and solve `systems` as one batch, and check every member —
    /// its diagonal of `R`, its solution or its error — bit for bit
    /// against the serial reference of that system alone.
    fn assert_batch_matches_reference(systems: &[(Matrix, Vec<f64>, f64)]) {
        let designs = systems
            .iter()
            .map(|(a, _, lambda)| Ok::<_, QrError>(ridge_design(a, *lambda)));
        let factors = HouseholderQr::factor_batch(designs);
        let solved = RidgeDesign::solve_batch(
            systems
                .iter()
                .map(|(a, b, lambda)| Ok::<_, QrError>((ridge_design(a, *lambda), [&b[..]]))),
        );
        assert_eq!(factors.len(), systems.len());
        assert_eq!(solved.len(), systems.len());
        for (i, ((a, b, lambda), (factor, solution))) in
            systems.iter().zip(factors.iter().zip(solved)).enumerate()
        {
            let case = format!(
                "member {i} of {}: {}x{}, lambda {lambda}",
                systems.len(),
                a.rows(),
                a.cols()
            );
            let (system, rhs) = reference_system(a, b, *lambda);
            let (qr, beta) = reference::factor(&system);
            let want = reference::solve(&qr, &beta, &rhs);
            let factor = factor.as_ref().unwrap_or_else(|e| panic!("{case}: {e}"));
            let diagonal: Vec<f64> = (0..a.cols()).map(|k| qr[(k, k)]).collect();
            assert_eq!(bits(&factor.r_diagonal()), bits(&diagonal), "{case}");
            assert_eq!(bits(&factor.beta), bits(&beta), "{case}");
            match (solution, want) {
                (Ok([got]), Ok(want)) => assert_eq!(bits(&got), bits(&want), "{case}"),
                (got, want) => assert_eq!(got.map(|[x]| x), want, "{case}"),
            }
        }
    }

    #[test]
    fn lockstep_batches_of_1_to_9_match_reference_bitwise() {
        for size in 1..=9 {
            let systems: Vec<_> = (0..size)
                .map(|i| {
                    // Similar shapes, like leave-one-model-out folds, with
                    // ridge and plain designs mixed in one group.
                    let (a, b) = scaled_system(90 + 7 * i, 2 + i % 5);
                    let lambda = [0.0, 1e-6, 0.0, 0.5][i % 4];
                    (a, b, lambda)
                })
                .collect();
            assert_batch_matches_reference(&systems);
        }
    }

    #[test]
    fn mixed_shapes_share_a_group_bitwise() {
        let mut systems: Vec<_> = [(1179, 4, 0.0), (236, 1, 1e-6), (947, 7, 0.0), (40, 3, 1.0)]
            .into_iter()
            .map(|(rows, cols, lambda)| {
                let (a, b) = scaled_system(rows, cols);
                (a, b, lambda)
            })
            .collect();
        assert_batch_matches_reference(&systems);
        // The same designs in another order, so each sits in another lane.
        systems.reverse();
        assert_batch_matches_reference(&systems);
    }

    #[test]
    fn zero_column_takes_the_beta_zero_path_beside_its_neighbours() {
        let (mut a, b) = scaled_system(60, 4);
        for r in 0..a.rows() {
            a[(r, 2)] = 0.0;
        }
        let (n1, c1) = scaled_system(75, 4);
        let (n2, c2) = scaled_system(50, 3);
        let zero = HouseholderQr::new(&a).unwrap();
        assert_eq!(zero.beta[2], 0.0);
        assert_eq!(zero.r_diagonal()[2], 0.0);
        assert_batch_matches_reference(&[(n1, c1, 0.0), (a, b, 0.0), (n2, c2, 1e-6)]);
    }

    #[test]
    fn a_rank_deficient_member_keeps_its_own_error() {
        // Column 2 is exactly column 0 plus column 1.
        let rows: Vec<Vec<f64>> = (1..30)
            .map(|i| {
                let t = i as f64;
                vec![t, (t * 0.7).sin(), t + (t * 0.7).sin(), t * t]
            })
            .collect();
        let deficient = Matrix::from_rows(&rows);
        let b: Vec<f64> = (1..30).map(|i| i as f64).collect();
        let (n1, c1) = scaled_system(31, 4);
        let (n2, c2) = scaled_system(29, 4);
        let (n3, c3) = scaled_system(44, 2);
        let systems = [
            (n1, c1, 0.0),
            (deficient, b, 0.0),
            (n2, c2, 0.0),
            (n3, c3, 1e-9),
        ];
        assert_batch_matches_reference(&systems);
        let solved = RidgeDesign::solve_batch(
            systems
                .iter()
                .map(|(a, b, lambda)| Ok::<_, QrError>((ridge_design(a, *lambda), [&b[..]]))),
        );
        let errors: Vec<bool> = solved.iter().map(Result::is_err).collect();
        assert_eq!(errors, [false, true, false, false]);
    }

    #[test]
    fn batch_errors_pass_through_in_place() {
        let (a, b) = scaled_system(20, 3);
        let items = [
            Ok((ridge_design(&a, 0.0), [&b[..]])),
            Err(QrError::RankDeficient { column: 9 }),
            // Underdetermined: 2 rows, 3 columns.
            Ok((ridge_design(&Matrix::zeros(2, 3), 0.0), [&[0.0, 0.0][..]])),
            Ok((ridge_design(&a, 0.0), [&b[..]])),
        ];
        let solved = RidgeDesign::solve_batch(items);
        let want = ridge_lstsq(&a, &b, 0.0).unwrap();
        assert_eq!(bits(&solved[0].clone().unwrap()[0]), bits(&want));
        assert_eq!(solved[1], Err(QrError::RankDeficient { column: 9 }));
        assert_eq!(
            solved[2],
            Err(QrError::Underdetermined { rows: 2, cols: 3 })
        );
        assert_eq!(bits(&solved[3].clone().unwrap()[0]), bits(&want));
    }
}
