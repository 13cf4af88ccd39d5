//! The forward-pass / inference performance model (Eq. 2 and Eq. 3).

use crate::dataset::InferencePoint;
use crate::features::{forward_features, forward_features_at};
use convmeter_linalg::qr::only;
use convmeter_linalg::{FitError, LinearRegression};
use convmeter_metrics::{obs, BatchMetrics, ModelMetrics};
use serde::{Deserialize, Serialize};

/// Default ridge damping. The three metric columns are strongly collinear —
/// for a single ConvNet at a fixed image size they are *exactly*
/// proportional (all scale linearly with batch) — so a whisper of ridge
/// keeps the solve defined without materially changing well-posed fits.
/// (Columns are max-abs normalised inside the regression, so this value is
/// relative.)
pub const DEFAULT_RIDGE: f64 = 1e-6;

/// ConvMeter's forward-pass model: `T = c1·F + c2·I + c3·O + c4`.
///
/// The same type predicts whole models and individual blocks — "as blocks
/// are subsets of neural networks, they are small neural networks
/// themselves" (Section 3.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ForwardModel {
    reg: LinearRegression,
}

impl ForwardModel {
    /// Fit the four coefficients on a benchmark dataset.
    pub fn fit(points: &[InferencePoint]) -> Result<Self, FitError> {
        only(Self::fit_batch([(points.len(), |i: usize| &points[i])]))
    }

    /// Fit one model per row set `(len, row)`, whose point `i` is
    /// `row(i)` — e.g. leave-one-model-out folds reading their training
    /// rows by index from the shared dataset, so no fold copies its points.
    /// The sets' designs are factored [`LANES`](convmeter_linalg::qr::LANES)
    /// at a time in lockstep; each model is bit-identical to a one-set fit.
    pub(crate) fn fit_batch<'p>(
        sets: impl IntoIterator<Item = (usize, impl Fn(usize) -> &'p InferencePoint)>,
    ) -> Vec<Result<Self, FitError>> {
        let _span = obs::span!("convmeter.fit.forward");
        let sets: Vec<_> = sets.into_iter().collect();
        // Every set's measured times, back to back.
        let ys: Vec<f64> = sets
            .iter()
            .flat_map(|(len, row)| (0..*len).map(move |i| row(i).measured))
            .collect();
        let mut start = 0;
        let problems = sets.iter().map(|&(len, ref row)| {
            let ys = &ys[start..][..len];
            start += len;
            let features = move |i: usize| forward_features(&row(i).metrics);
            (len, features, [ys])
        });
        LinearRegression::new()
            .with_ridge(DEFAULT_RIDGE)
            .fit_batch(problems)
            .into_iter()
            .map(|fit| fit.map(|[reg]| Self { reg }))
            .collect()
    }

    /// Fit directly from (features, time) pairs.
    pub fn fit_raw(xs: &[impl AsRef<[f64]>], ys: &[f64]) -> Result<Self, FitError> {
        let reg = LinearRegression::new()
            .with_ridge(DEFAULT_RIDGE)
            .fit(xs, ys)?;
        Ok(Self { reg })
    }

    /// Predict from batch-scaled metrics.
    pub fn predict(&self, metrics: &BatchMetrics) -> f64 {
        self.reg.predict(&forward_features(metrics))
    }

    /// Predict for a model (or block) at a batch size — the static path: no
    /// benchmark of the target network is required.
    pub fn predict_metrics(&self, metrics: &ModelMetrics, batch: usize) -> f64 {
        self.reg.predict(&forward_features_at(metrics, batch))
    }

    /// The fitted `[c1, c2, c3]` coefficients.
    pub fn coefficients(&self) -> &[f64] {
        self.reg.coefficients()
    }

    /// The fitted intercept `c4`.
    pub fn intercept(&self) -> f64 {
        self.reg.intercept()
    }

    /// Summarise this model's multiplicative residuals on a (typically
    /// held-out) dataset, for prediction intervals.
    pub fn residual_profile(&self, points: &[InferencePoint]) -> convmeter_linalg::ResidualProfile {
        let preds: Vec<f64> = points.iter().map(|p| self.predict(&p.metrics)).collect();
        let meas: Vec<f64> = points.iter().map(|p| p.measured).collect();
        convmeter_linalg::ResidualProfile::from_predictions(&preds, &meas)
    }

    /// Predict with a `(low, center, high)` interval at `z` standard
    /// deviations of the profile's log-residuals (z = 1.96 for ~95 %).
    pub fn predict_interval(
        &self,
        metrics: &ModelMetrics,
        batch: usize,
        profile: &convmeter_linalg::ResidualProfile,
        z: f64,
    ) -> (f64, f64, f64) {
        profile.interval(self.predict_metrics(metrics, batch), z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use convmeter_hwsim::{DeviceProfile, SweepConfig};

    fn dataset() -> Vec<InferencePoint> {
        crate::dataset::inference_dataset(&DeviceProfile::a100_80gb(), &SweepConfig::quick())
            .unwrap()
    }

    #[test]
    fn fits_and_predicts_in_range() {
        let data = dataset();
        let model = ForwardModel::fit(&data).unwrap();
        for p in &data {
            let pred = model.predict(&p.metrics);
            assert!(
                pred > 0.2 * p.measured && pred < 5.0 * p.measured,
                "{}: pred {pred} vs measured {}",
                p.model,
                p.measured
            );
        }
    }

    #[test]
    fn in_sample_accuracy_is_good() {
        let data = dataset();
        let model = ForwardModel::fit(&data).unwrap();
        let preds: Vec<f64> = data.iter().map(|p| model.predict(&p.metrics)).collect();
        let meas: Vec<f64> = data.iter().map(|p| p.measured).collect();
        let r2 = convmeter_linalg::r_squared(&preds, &meas);
        assert!(r2 > 0.9, "R2 {r2}");
    }

    #[test]
    fn predict_metrics_equals_predict_at_batch() {
        let data = dataset();
        let model = ForwardModel::fit(&data).unwrap();
        let metrics = convmeter_metrics::ModelMetrics::of(
            &convmeter_models::zoo::by_name("resnet18")
                .unwrap()
                .build(64, 1000),
        )
        .unwrap();
        let a = model.predict_metrics(&metrics, 8);
        let b = model.predict(&metrics.at_batch(8));
        assert_eq!(a, b);
    }

    #[test]
    fn predictions_positive_and_monotone_in_batch() {
        // The individual coefficients of collinear columns may trade off in
        // sign, but the *prediction* must stay positive and grow with batch
        // over the data range.
        let data = dataset();
        let model = ForwardModel::fit(&data).unwrap();
        let metrics = convmeter_metrics::ModelMetrics::of(
            &convmeter_models::zoo::by_name("vgg11")
                .unwrap()
                .build(128, 1000),
        )
        .unwrap();
        let mut last = 0.0;
        for b in [1usize, 4, 16, 64] {
            let t = model.predict_metrics(&metrics, b);
            assert!(t > 0.0, "batch {b}: {t}");
            assert!(t > last, "batch {b} not monotone");
            last = t;
        }
    }

    #[test]
    fn single_model_data_is_fittable_thanks_to_ridge() {
        // One ConvNet at one image size: features are exactly collinear in
        // batch. The paper's per-model refit ("we can ... apply the
        // regression on the specific ConvNet") must still work.
        let mut cfg = SweepConfig::quick();
        cfg.models = vec!["resnet18".into()];
        cfg.image_sizes = vec![64];
        cfg.batch_sizes = vec![1, 2, 4, 8, 16, 32, 64, 128];
        let data = crate::dataset::inference_dataset(&DeviceProfile::a100_80gb(), &cfg).unwrap();
        assert_eq!(data.len(), 8);
        let model = ForwardModel::fit(&data).unwrap();
        for p in &data {
            let pred = model.predict(&p.metrics);
            assert!(
                (pred - p.measured).abs() / p.measured < 0.25,
                "batch {}: pred {pred} vs {}",
                p.batch,
                p.measured
            );
        }
    }

    #[test]
    fn too_few_points_is_an_error() {
        let data: Vec<InferencePoint> = dataset().into_iter().take(2).collect();
        assert!(ForwardModel::fit(&data).is_err());
    }

    #[test]
    fn prediction_intervals_cover_held_out_points() {
        // Fit on two models, profile residuals on them, check the interval
        // covers most of a third model's measurements.
        let data = dataset();
        let train: Vec<InferencePoint> = data
            .iter()
            .filter(|p| p.model != "vgg11")
            .copied()
            .collect();
        let test: Vec<&InferencePoint> = data.iter().filter(|p| p.model == "vgg11").collect();
        let model = ForwardModel::fit(&train).unwrap();
        let profile = model.residual_profile(&train);
        assert!(profile.log_sigma > 0.0);
        let covered = test
            .iter()
            .filter(|p| {
                let (lo, _, hi) = profile.interval(model.predict(&p.metrics), 3.0);
                p.measured >= lo && p.measured <= hi
            })
            .count();
        assert!(
            covered * 2 > test.len(),
            "interval covered only {covered}/{}",
            test.len()
        );
    }
}
