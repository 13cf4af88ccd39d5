//! The training-phase performance models: backward pass, gradient update,
//! the fused 7-coefficient backward+gradient model, and the full training
//! step (Eq. 1).

use crate::dataset::TrainingPoint;
use crate::features::{
    bwd_grad_features, forward_features, grad_features_multi, grad_features_single,
};
use crate::forward::DEFAULT_RIDGE;
use convmeter_linalg::{FitError, HuberRegression, LinearRegression, RobustReport};
use convmeter_metrics::{obs, BatchMetrics, ModelMetrics};
use serde::{Deserialize, Serialize};

/// The gradient-update model (Section 3.3):
/// `T_grad = c1·L` on a single device, `c1·L + c2·W + c3·N` across nodes.
/// Faithful to the paper, neither variant has an intercept.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GradUpdateModel {
    single: LinearRegression,
    multi: LinearRegression,
}

impl GradUpdateModel {
    /// Fit both variants from training points. Single-node points feed the
    /// `c1·L` model; all points feed the multi-node model. If the dataset
    /// has no single-node points, the multi-node model serves both queries.
    pub fn fit(points: &[TrainingPoint]) -> Result<Self, FitError> {
        Self::fit_rows(&points.iter().collect::<Vec<_>>())
    }

    /// [`GradUpdateModel::fit`] on borrowed rows.
    fn fit_rows(points: &[&TrainingPoint]) -> Result<Self, FitError> {
        let multi_xs: Vec<[f64; 3]> = points
            .iter()
            .map(|p| grad_features_multi(&p.metrics, p.nodes))
            .collect();
        let multi_ys: Vec<f64> = points.iter().map(|p| p.grad).collect();
        let multi = LinearRegression::new()
            .with_intercept(false)
            .with_ridge(DEFAULT_RIDGE)
            .fit(&multi_xs, &multi_ys)?;

        let single_pts: Vec<&TrainingPoint> =
            points.iter().copied().filter(|p| p.nodes == 1).collect();
        let single = if single_pts.len() >= 2 {
            let xs: Vec<[f64; 1]> = single_pts
                .iter()
                .map(|p| grad_features_single(&p.metrics))
                .collect();
            let ys: Vec<f64> = single_pts.iter().map(|p| p.grad).collect();
            LinearRegression::new()
                .with_intercept(false)
                .with_ridge(DEFAULT_RIDGE)
                .fit(&xs, &ys)?
        } else {
            multi.clone()
        };
        Ok(Self { single, multi })
    }

    /// Predict the gradient-update time.
    pub fn predict(&self, metrics: &BatchMetrics, nodes: usize) -> f64 {
        if nodes <= 1 && self.single.coefficients().len() == 1 {
            self.single.predict(&grad_features_single(metrics))
        } else {
            self.multi.predict(&grad_features_multi(metrics, nodes))
        }
    }
}

/// The complete training model: per-phase predictors plus the fused
/// backward+gradient predictor used when the phases overlap.
///
/// Mirroring the paper's piecewise gradient-update model (`c1·L` on one
/// node vs `c1·L + c2·W + c3·N` across nodes), the fused model is fitted
/// separately for the single-node regime (intra-node NVLink, communication
/// almost free) and the multi-node regime (InfiniBand-bound) when the
/// dataset covers both.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingModel {
    forward: LinearRegression,
    backward: LinearRegression,
    grad: GradUpdateModel,
    fused_single: LinearRegression,
    fused_multi: LinearRegression,
}

impl TrainingModel {
    /// Fit every component from a training dataset (single- and/or
    /// multi-node points).
    ///
    /// The forward and backward models share one factorisation of the
    /// forward design. The all-data fused model is fitted only when a
    /// regime has too few rows and falls back to it; a regime that holds
    /// every point already is that fit.
    pub fn fit(points: &[TrainingPoint]) -> Result<Self, FitError> {
        Self::fit_rows(&points.iter().collect::<Vec<_>>())
    }

    /// [`TrainingModel::fit`] on borrowed rows, e.g. one leave-one-model-out
    /// fold's training rows read by index from the shared dataset, so no
    /// fold copies its points.
    pub(crate) fn fit_rows(points: &[&TrainingPoint]) -> Result<Self, FitError> {
        let _span = obs::span!("convmeter.fit.training");
        let fwd_xs: Vec<[f64; 3]> = points
            .iter()
            .map(|p| forward_features(&p.metrics))
            .collect();
        let fwd_ys: Vec<f64> = points.iter().map(|p| p.fwd).collect();
        let bwd_ys: Vec<f64> = points.iter().map(|p| p.bwd).collect();
        let [forward, backward] = LinearRegression::new()
            .with_ridge(DEFAULT_RIDGE)
            .fit_targets(&fwd_xs, [&fwd_ys, &bwd_ys])?;
        let grad = GradUpdateModel::fit_rows(points)?;

        // The fused model is fitted on the *sum* of the measured backward
        // and gradient-update phases (Section 3.3: "we apply linear
        // regression to our backward pass and gradient update equation
        // combined using the sum of the ... measurements").
        let fit_fused = |pts: &[&TrainingPoint]| -> Result<LinearRegression, FitError> {
            let xs: Vec<[f64; 6]> = pts
                .iter()
                .map(|p| bwd_grad_features(&p.metrics, p.nodes))
                .collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.bwd + p.grad).collect();
            LinearRegression::new()
                .with_ridge(DEFAULT_RIDGE)
                .fit(&xs, &ys)
        };
        let single_pts: Vec<&TrainingPoint> =
            points.iter().copied().filter(|p| p.nodes == 1).collect();
        let multi_pts: Vec<&TrainingPoint> =
            points.iter().copied().filter(|p| p.nodes > 1).collect();
        // Each regime needs enough rows for the 7 unknowns; otherwise fall
        // back to the all-data fit.
        let min_rows = 8;
        let fit_regime =
            |pts: &[&TrainingPoint]| (pts.len() >= min_rows).then(|| fit_fused(pts)).transpose();
        let single = fit_regime(&single_pts)?;
        let multi = fit_regime(&multi_pts)?;
        let (fused_single, fused_multi) = match (single, multi) {
            (Some(single), Some(multi)) => (single, multi),
            // A regime that holds every point already is the all-data fit.
            (Some(single), None) if single_pts.len() == points.len() => (single.clone(), single),
            (None, Some(multi)) if multi_pts.len() == points.len() => (multi.clone(), multi),
            (single, multi) => {
                let fused_all = fit_fused(points)?;
                (
                    single.unwrap_or_else(|| fused_all.clone()),
                    multi.unwrap_or(fused_all),
                )
            }
        };

        Ok(Self {
            forward,
            backward,
            grad,
            fused_single,
            fused_multi,
        })
    }

    /// Outlier-robust fit: per-phase Huber IRLS + trimmed refits replace
    /// the OLS solves for the forward, backward, and fused phases (the
    /// phases fault injection contaminates). Returns the worst per-phase
    /// contamination report. On exactly-linear (residual-free) data every
    /// component is bit-identical to [`TrainingModel::fit`].
    pub fn fit_robust(points: &[TrainingPoint]) -> Result<(Self, RobustReport), FitError> {
        let _span = obs::span!("convmeter.fit.training");
        let huber = || HuberRegression::new().with_ridge(DEFAULT_RIDGE);
        let fwd_xs: Vec<[f64; 3]> = points
            .iter()
            .map(|p| forward_features(&p.metrics))
            .collect();
        let (forward, fwd_report) =
            huber().fit(&fwd_xs, &points.iter().map(|p| p.fwd).collect::<Vec<_>>())?;
        let (backward, bwd_report) =
            huber().fit(&fwd_xs, &points.iter().map(|p| p.bwd).collect::<Vec<_>>())?;
        let grad = GradUpdateModel::fit(points)?;

        let fit_fused =
            |pts: &[&TrainingPoint]| -> Result<(LinearRegression, RobustReport), FitError> {
                let xs: Vec<[f64; 6]> = pts
                    .iter()
                    .map(|p| bwd_grad_features(&p.metrics, p.nodes))
                    .collect();
                let ys: Vec<f64> = pts.iter().map(|p| p.bwd + p.grad).collect();
                huber().fit(&xs, &ys)
            };
        let all: Vec<&TrainingPoint> = points.iter().collect();
        let (fused_all, fused_report) = fit_fused(&all)?;
        let single_pts: Vec<&TrainingPoint> = points.iter().filter(|p| p.nodes == 1).collect();
        let multi_pts: Vec<&TrainingPoint> = points.iter().filter(|p| p.nodes > 1).collect();
        let min_rows = 8;
        let fused_single = if single_pts.len() >= min_rows {
            fit_fused(&single_pts)?.0
        } else {
            fused_all.clone()
        };
        let fused_multi = if multi_pts.len() >= min_rows {
            fit_fused(&multi_pts)?.0
        } else {
            fused_all
        };

        let worst = [fwd_report, bwd_report, fused_report]
            .into_iter()
            .max_by(|a, b| {
                a.contamination
                    .partial_cmp(&b.contamination)
                    // analyzer:allow(CA0004, reason = "contamination rates are finite fractions in [0, 1]")
                    .expect("contamination rates are finite")
            })
            // analyzer:allow(CA0004, reason = "the array literal above holds exactly three reports")
            .expect("three reports");
        Ok((
            Self {
                forward,
                backward,
                grad,
                fused_single,
                fused_multi,
            },
            worst,
        ))
    }

    /// Predicted forward-pass time.
    pub fn predict_forward(&self, metrics: &BatchMetrics) -> f64 {
        self.forward.predict(&forward_features(metrics))
    }

    /// Predicted backward-pass time (compute only).
    pub fn predict_backward(&self, metrics: &BatchMetrics) -> f64 {
        self.backward.predict(&forward_features(metrics))
    }

    /// Predicted gradient-update time.
    pub fn predict_grad_update(&self, metrics: &BatchMetrics, nodes: usize) -> f64 {
        self.grad.predict(metrics, nodes)
    }

    /// Predicted fused backward+gradient time (the overlapping phases,
    /// 7 coefficients), dispatched on the communication regime.
    pub fn predict_bwd_grad(&self, metrics: &BatchMetrics, nodes: usize) -> f64 {
        let model = if nodes <= 1 {
            &self.fused_single
        } else {
            &self.fused_multi
        };
        model.predict(&bwd_grad_features(metrics, nodes))
    }

    /// Predicted training-step time `T_iter` (Eq. 1), using the fused
    /// backward+gradient model.
    pub fn predict_step(&self, metrics: &BatchMetrics, nodes: usize) -> f64 {
        self.predict_forward(metrics) + self.predict_bwd_grad(metrics, nodes)
    }

    /// Predict a step for a model at a (per-device batch, nodes) point.
    pub fn predict_step_at(&self, metrics: &ModelMetrics, batch: usize, nodes: usize) -> f64 {
        self.predict_step(&metrics.at_batch(batch), nodes)
    }

    /// Predicted time of one *gradient-accumulated* step: `accum_steps`
    /// forward+backward micro-steps at `micro_batch`, then a single gradient
    /// update. This is the paper's "effects of optimizations such as
    /// gradient accumulation" scenario — an effective batch of
    /// `micro_batch x accum_steps` on a device that only fits `micro_batch`.
    pub fn predict_accumulated_step(
        &self,
        metrics: &ModelMetrics,
        micro_batch: usize,
        accum_steps: usize,
        nodes: usize,
    ) -> f64 {
        assert!(accum_steps >= 1);
        let bm = metrics.at_batch(micro_batch);
        let fwd_bwd = self.predict_forward(&bm) + self.predict_backward(&bm);
        // Gradients are synchronised and applied once per accumulated step.
        let grad = self.predict_grad_update(&bm, nodes);
        accum_steps as f64 * fwd_bwd + grad
    }

    /// Predicted epoch time: `T_epoch = D / (B_global) · T_iter` where the
    /// global batch is `per_device_batch x devices` (Section 2).
    pub fn predict_epoch(
        &self,
        metrics: &ModelMetrics,
        dataset_size: usize,
        per_device_batch: usize,
        nodes: usize,
        devices: usize,
    ) -> f64 {
        let step = self.predict_step_at(metrics, per_device_batch, nodes);
        let steps_per_epoch = dataset_size as f64 / (per_device_batch * devices) as f64;
        steps_per_epoch * step
    }

    /// Predicted epoch time including the input pipeline (the IO phase of
    /// the paper's Figure 1). Loading is prefetched: only the stall beyond
    /// the compute step is visible, plus one pipeline fill at epoch start.
    #[allow(clippy::too_many_arguments)]
    pub fn predict_epoch_with_io(
        &self,
        metrics: &ModelMetrics,
        storage: &convmeter_distsim::StorageProfile,
        image_size: usize,
        dataset_size: usize,
        per_device_batch: usize,
        nodes: usize,
        devices: usize,
    ) -> f64 {
        let bm = metrics.at_batch(per_device_batch);
        let phases = convmeter_hwsim::TrainingPhases {
            forward: self.predict_forward(&bm),
            backward: 0.0,
            // Fold the fused bwd+grad prediction into one phase slot.
            grad_update: self.predict_bwd_grad(&bm, nodes),
        };
        // Each node's loader must feed all its local devices.
        let per_node_batch = per_device_batch * devices / nodes.max(1);
        let step = convmeter_distsim::step_with_io(phases, storage, per_node_batch, image_size);
        convmeter_distsim::epoch_time_with_io(&step, dataset_size, per_device_batch * devices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{distributed_dataset, training_dataset};
    use convmeter_distsim::DistSweepConfig;
    use convmeter_hwsim::{DeviceProfile, SweepConfig};
    use convmeter_metrics::ModelMetrics;
    use convmeter_models::zoo::by_name;

    fn single_node_data() -> Vec<TrainingPoint> {
        training_dataset(&DeviceProfile::a100_80gb(), &SweepConfig::quick()).unwrap()
    }

    fn multi_node_data() -> Vec<TrainingPoint> {
        distributed_dataset(&DeviceProfile::a100_80gb(), &DistSweepConfig::quick()).unwrap()
    }

    fn r18_metrics() -> ModelMetrics {
        ModelMetrics::of(&by_name("resnet18").unwrap().build(128, 1000)).unwrap()
    }

    /// Every component fitted on its own, the all-data fused model always
    /// included: the oracle for the shared factorisation and the fallback
    /// reuse in [`TrainingModel::fit`].
    fn fit_component_by_component(points: &[TrainingPoint]) -> TrainingModel {
        let fwd_xs: Vec<Vec<f64>> = points
            .iter()
            .map(|p| forward_features(&p.metrics).to_vec())
            .collect();
        let fit = |xs: &[Vec<f64>], ys: Vec<f64>| {
            LinearRegression::new()
                .with_ridge(DEFAULT_RIDGE)
                .fit(xs, &ys)
                .unwrap()
        };
        let fused = |pts: Vec<&TrainingPoint>| {
            let xs: Vec<Vec<f64>> = pts
                .iter()
                .map(|p| bwd_grad_features(&p.metrics, p.nodes).to_vec())
                .collect();
            fit(&xs, pts.iter().map(|p| p.bwd + p.grad).collect())
        };
        let fused_all = fused(points.iter().collect());
        let single: Vec<&TrainingPoint> = points.iter().filter(|p| p.nodes == 1).collect();
        let multi: Vec<&TrainingPoint> = points.iter().filter(|p| p.nodes > 1).collect();
        TrainingModel {
            forward: fit(&fwd_xs, points.iter().map(|p| p.fwd).collect()),
            backward: fit(&fwd_xs, points.iter().map(|p| p.bwd).collect()),
            grad: GradUpdateModel::fit(points).unwrap(),
            fused_single: if single.len() >= 8 {
                fused(single)
            } else {
                fused_all.clone()
            },
            fused_multi: if multi.len() >= 8 {
                fused(multi)
            } else {
                fused_all
            },
        }
    }

    #[test]
    fn fit_matches_component_by_component_fits_bitwise() {
        let single = single_node_data();
        let multi_only: Vec<TrainingPoint> = multi_node_data()
            .into_iter()
            .filter(|p| p.nodes > 1)
            .collect();
        let both: Vec<TrainingPoint> = single.iter().chain(&multi_only).copied().collect();
        // (single-node rows, multi-node rows) per case: the single-node
        // regime is all the data; the multi-node one is; both regimes fit
        // on their own; the single-node regime falls back to the all-data
        // fit.
        let cases = [
            (single, (18, 0)),
            (multi_only.clone(), (0, 8)),
            (both, (18, 8)),
            (multi_node_data(), (4, 8)),
        ];
        for (data, (n_single, n_multi)) in cases {
            assert_eq!(data.iter().filter(|p| p.nodes == 1).count(), n_single);
            assert_eq!(data.iter().filter(|p| p.nodes > 1).count(), n_multi);
            assert_eq!(
                format!("{:?}", TrainingModel::fit(&data).unwrap()),
                format!("{:?}", fit_component_by_component(&data)),
                "{n_single} single-node + {n_multi} multi-node rows"
            );
        }
    }

    #[test]
    fn fits_single_node_and_predicts_phases() {
        let data = single_node_data();
        let model = TrainingModel::fit(&data).unwrap();
        for p in data.iter().take(5) {
            let fwd = model.predict_forward(&p.metrics);
            let bwd = model.predict_backward(&p.metrics);
            assert!(fwd > 0.0 && bwd > 0.0);
            assert!((fwd - p.fwd).abs() / p.fwd < 1.0, "fwd {fwd} vs {}", p.fwd);
            assert!((bwd - p.bwd).abs() / p.bwd < 1.0, "bwd {bwd} vs {}", p.bwd);
        }
    }

    #[test]
    fn backward_predicted_slower_than_forward() {
        let data = single_node_data();
        let model = TrainingModel::fit(&data).unwrap();
        let m = r18_metrics().at_batch(64);
        assert!(model.predict_backward(&m) > model.predict_forward(&m));
    }

    #[test]
    fn step_prediction_tracks_measurement() {
        let data = single_node_data();
        let model = TrainingModel::fit(&data).unwrap();
        let preds: Vec<f64> = data
            .iter()
            .map(|p| model.predict_step(&p.metrics, p.nodes))
            .collect();
        let meas: Vec<f64> = data
            .iter()
            .map(super::super::dataset::TrainingPoint::step_time)
            .collect();
        let r2 = convmeter_linalg::r_squared(&preds, &meas);
        assert!(r2 > 0.85, "R2 {r2}");
    }

    #[test]
    fn grad_update_grows_with_nodes_after_multinode_fit() {
        let model = TrainingModel::fit(&multi_node_data()).unwrap();
        let m = r18_metrics().at_batch(64);
        let g1 = model.predict_bwd_grad(&m, 1);
        let g8 = model.predict_bwd_grad(&m, 8);
        assert!(g8 > g1, "g1 {g1} g8 {g8}");
    }

    #[test]
    fn epoch_time_scales_with_dataset_and_devices() {
        let model = TrainingModel::fit(&multi_node_data()).unwrap();
        let m = r18_metrics();
        // ImageNet-sized dataset.
        let single = model.predict_epoch(&m, 1_281_167, 64, 1, 4);
        let double_data = model.predict_epoch(&m, 2 * 1_281_167, 64, 1, 4);
        assert!((double_data / single - 2.0).abs() < 1e-9);
        // More devices, same per-device batch: fewer steps per epoch.
        let more_devices = model.predict_epoch(&m, 1_281_167, 64, 2, 8);
        assert!(more_devices < single);
    }

    #[test]
    fn grad_model_single_vs_multi_dispatch() {
        let data = multi_node_data();
        let grad = GradUpdateModel::fit(&data).unwrap();
        let m = r18_metrics().at_batch(64);
        let g1 = grad.predict(&m, 1);
        let g4 = grad.predict(&m, 4);
        assert!(g1 > 0.0);
        assert!(g4 > g1);
    }

    #[test]
    fn io_aware_epoch_adds_stall_only_when_storage_lags() {
        let model = TrainingModel::fit(&multi_node_data()).unwrap();
        let m = r18_metrics();
        // A GPU-decode (DALI-class) pipeline comfortably feeds 4 GPUs...
        let mut fast = convmeter_distsim::StorageProfile::local_nvme();
        fast.decode_throughput = 50_000.0;
        // ...a default CPU loader at 4000 img/s per node does not: small
        // ResNets at 128 px are genuinely input-bound, and the model says so.
        let cpu_loader = convmeter_distsim::StorageProfile::local_nvme();
        let plain = model.predict_epoch(&m, 1_281_167, 64, 2, 8);
        let with_fast = model.predict_epoch_with_io(&m, &fast, 128, 1_281_167, 64, 2, 8);
        let with_cpu = model.predict_epoch_with_io(&m, &cpu_loader, 128, 1_281_167, 64, 2, 8);
        // Fast loaders hide behind compute: within a pipeline-fill of plain.
        assert!(
            with_fast < plain * 1.05,
            "fast {with_fast} vs plain {plain}"
        );
        // The stock loader stalls the step visibly.
        assert!(
            with_cpu > 1.2 * plain,
            "cpu loader {with_cpu} vs plain {plain}"
        );
    }

    #[test]
    fn gradient_accumulation_amortises_sync() {
        // 4 accumulated micro-steps of 64 must cost less than 4 plain steps
        // of 64 (three gradient syncs saved), but more than one step of 64.
        let model = TrainingModel::fit(&multi_node_data()).unwrap();
        let m = r18_metrics();
        let accumulated = model.predict_accumulated_step(&m, 64, 4, 4);
        let plain = model.predict_step_at(&m, 64, 4);
        assert!(accumulated < 4.0 * plain, "acc {accumulated} vs 4x {plain}");
        assert!(accumulated > plain);
        // One accumulation step equals fwd+bwd+grad by construction.
        let single = model.predict_accumulated_step(&m, 64, 1, 4);
        let bm = m.at_batch(64);
        let explicit = model.predict_forward(&bm)
            + model.predict_backward(&bm)
            + model.predict_grad_update(&bm, 4);
        assert!((single - explicit).abs() < 1e-12);
    }

    #[test]
    fn fused_model_has_seven_coefficients() {
        let model = TrainingModel::fit(&multi_node_data()).unwrap();
        // 6 feature coefficients + intercept = 7, as the paper states.
        assert_eq!(model.fused_multi.coefficients().len(), 6);
        assert!(model.fused_multi.has_intercept());
        assert_eq!(model.fused_single.coefficients().len(), 6);
    }

    #[test]
    fn regime_split_separates_nvlink_from_infiniband() {
        // For a communication-heavy model, the single-node fused prediction
        // must be well below the multi-node one at the same batch.
        let model = TrainingModel::fit(&multi_node_data()).unwrap();
        let alex = ModelMetrics::of(&by_name("alexnet").unwrap().build(128, 1000))
            .unwrap()
            .at_batch(64);
        let single = model.predict_bwd_grad(&alex, 1);
        let multi = model.predict_bwd_grad(&alex, 2);
        assert!(multi > 1.5 * single, "single {single}, multi {multi}");
    }
}
