//! The training-phase performance models: backward pass, gradient update,
//! the fused 7-coefficient backward+gradient model, and the full training
//! step (Eq. 1).

use crate::dataset::TrainingPoint;
use crate::features::{
    bwd_grad_features, forward_features, grad_features_multi, grad_features_single,
};
use crate::forward::DEFAULT_RIDGE;
use convmeter_linalg::qr::only;
use convmeter_linalg::{FitError, LinearRegression};
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
        only(Self::fit_batch(&RowSets::all(points)))
    }

    /// [`GradUpdateModel::fit`] on each row set, each variant's designs
    /// factored together across the sets.
    fn fit_batch(sets: &RowSets) -> Vec<Result<Self, FitError>> {
        let through_origin = LinearRegression::new()
            .with_intercept(false)
            .with_ridge(DEFAULT_RIDGE);
        let multi = fit_sets(
            &through_origin,
            &sets.sets(),
            |p| grad_features_multi(&p.metrics, p.nodes),
            [|p| p.grad],
        );
        let single_pts = sets.filtered(|nodes| nodes == 1);
        let single = where_present(&single_pts.with_rows(2), |sets| {
            fit_sets(
                &through_origin,
                sets,
                |p| grad_features_single(&p.metrics),
                [|p| p.grad],
            )
        });
        multi
            .into_iter()
            .zip(single)
            .map(|(multi, single)| {
                let [multi] = multi?;
                let single = single.transpose()?.map_or_else(|| multi.clone(), |[s]| s);
                Ok(Self { single, multi })
            })
            .collect()
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

/// Row sets kept back to back in one buffer, so a group of sets costs two
/// allocations: set `s` is the rows up to `ends[s]`, after the previous
/// set's.
pub(crate) struct RowSets<'p> {
    rows: Vec<&'p TrainingPoint>,
    ends: Vec<usize>,
}

impl<'p> RowSets<'p> {
    /// One set: every point.
    fn all(points: &'p [TrainingPoint]) -> Self {
        Self {
            rows: points.iter().collect(),
            ends: vec![points.len()],
        }
    }

    /// One set per index list, of the points at those indices.
    pub(crate) fn gather(points: &'p [TrainingPoint], sets: &[&[usize]]) -> Self {
        let mut rows = Vec::with_capacity(sets.iter().map(|set| set.len()).sum());
        let mut ends = Vec::with_capacity(sets.len());
        for set in sets {
            rows.extend(set.iter().map(|&i| &points[i]));
            ends.push(rows.len());
        }
        Self { rows, ends }
    }

    /// Each set's points whose node count passes `keep`, in order.
    fn filtered(&self, keep: impl Fn(usize) -> bool) -> Self {
        let mut rows = Vec::with_capacity(self.rows.len());
        let mut ends = Vec::with_capacity(self.ends.len());
        for set in self.sets() {
            rows.extend(set.iter().copied().filter(|p| keep(p.nodes)));
            ends.push(rows.len());
        }
        Self { rows, ends }
    }

    /// The sets, in order.
    fn sets(&self) -> Vec<&[&'p TrainingPoint]> {
        let mut start = 0;
        self.ends
            .iter()
            .map(|&end| {
                let set = &self.rows[start..end];
                start = end;
                set
            })
            .collect()
    }

    /// Each set that has at least `min` rows; the others are absent.
    fn with_rows(&self, min: usize) -> Vec<Option<&[&'p TrainingPoint]>> {
        let sets = self.sets().into_iter();
        sets.map(|set| (set.len() >= min).then_some(set)).collect()
    }
}

/// Fit `builder` on every row set, with design row `features(p)` and one
/// target per function in `targets`. The sets' designs are factored
/// [`LANES`](convmeter_linalg::qr::LANES) at a time in lockstep.
fn fit_sets<const C: usize, const N: usize>(
    builder: &LinearRegression,
    sets: &[&[&TrainingPoint]],
    features: impl Fn(&TrainingPoint) -> [f64; C],
    targets: [fn(&TrainingPoint) -> f64; N],
) -> Vec<Result<[LinearRegression; N], FitError>> {
    // Each target of every set, back to back.
    let ys: [Vec<f64>; N] = std::array::from_fn(|t| {
        let rows = sets.iter().flat_map(|pts| pts.iter());
        rows.map(|p| targets[t](p)).collect()
    });
    let features = &features;
    let mut start = 0;
    let problems = sets.iter().map(|pts| {
        let (from, to) = (start, start + pts.len());
        start = to;
        let row = move |i: usize| features(pts[i]);
        (pts.len(), row, ys.each_ref().map(|ys| &ys[from..to]))
    });
    builder.clone().fit_batch(problems)
}

/// `fit` applied to the present sets only, each result put back in its
/// set's place; absent sets stay absent.
fn where_present<S: Copy, T>(
    sets: &[Option<S>],
    fit: impl FnOnce(&[S]) -> Vec<T>,
) -> Vec<Option<T>> {
    let present: Vec<S> = sets.iter().flatten().copied().collect();
    let mut fits = fit(&present).into_iter();
    sets.iter()
        .map(|set| set.and_then(|_| fits.next()))
        .collect()
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

/// The fewest rows a fused regime is fitted on alone (7 unknowns);
/// otherwise it falls back to the all-data fit.
const MIN_REGIME_ROWS: usize = 8;

impl TrainingModel {
    /// Fit every component from a training dataset (single- and/or
    /// multi-node points).
    ///
    /// The forward and backward models share one factorisation of the
    /// forward design. The all-data fused model is fitted only when a
    /// regime has too few rows and falls back to it; a regime that holds
    /// every point already is that fit.
    pub fn fit(points: &[TrainingPoint]) -> Result<Self, FitError> {
        only(Self::fit_batch(&RowSets::all(points)))
    }

    /// [`TrainingModel::fit`] on each row set, e.g. a group of
    /// leave-one-model-out folds' training rows read by index from the
    /// shared dataset, so no fold copies its points. Component by component
    /// — forward and backward, the gradient update, the fused regimes, the
    /// all-data fallback — the sets' designs are factored together, so at
    /// most [`LANES`](convmeter_linalg::qr::LANES) designs are live at
    /// once. Each set's model, or its first error in that order, is
    /// bit-identical to a one-set fit.
    pub(crate) fn fit_batch(rows: &RowSets) -> Vec<Result<Self, FitError>> {
        let _span = obs::span!("convmeter.fit.training");
        let sets = rows.sets();
        let ridge = LinearRegression::new().with_ridge(DEFAULT_RIDGE);
        let forward = fit_sets(
            &ridge,
            &sets,
            |p| forward_features(&p.metrics),
            [|p| p.fwd, |p| p.bwd],
        );
        let grad = GradUpdateModel::fit_batch(rows);

        // The fused model is fitted on the *sum* of the measured backward
        // and gradient-update phases (Section 3.3: "we apply linear
        // regression to our backward pass and gradient update equation
        // combined using the sum of the ... measurements").
        let fit_fused = |sets: &[Option<&[&TrainingPoint]>]| {
            where_present(sets, |sets| {
                fit_sets(
                    &ridge,
                    sets,
                    |p| bwd_grad_features(&p.metrics, p.nodes),
                    [|p| p.bwd + p.grad],
                )
            })
        };
        // Each regime needs enough rows for the 7 unknowns; otherwise it
        // falls back to the all-data fit.
        let single_pts = rows.filtered(|nodes| nodes == 1);
        let multi_pts = rows.filtered(|nodes| nodes > 1);
        let single_sets = single_pts.with_rows(MIN_REGIME_ROWS);
        let multi_sets = multi_pts.with_rows(MIN_REGIME_ROWS);
        // A regime that holds every point already is the all-data fit.
        let fallback: Vec<_> = sets
            .iter()
            .zip(single_sets.iter().zip(&multi_sets))
            .map(|(&pts, regimes)| {
                let whole = |regime: &Option<&[&TrainingPoint]>| {
                    regime.is_some_and(|rows| rows.len() == pts.len())
                };
                let needed = match regimes {
                    (Some(_), Some(_)) => false,
                    (single, multi) => !whole(single) && !whole(multi),
                };
                needed.then_some(pts)
            })
            .collect();
        let single = fit_fused(&single_sets);
        let multi = fit_fused(&multi_sets);
        let fallback = fit_fused(&fallback);

        let components = forward.into_iter().zip(grad).zip(single).zip(multi);
        components
            .zip(fallback)
            .map(|((((forward, grad), single), multi), fallback)| {
                let [forward, backward] = forward?;
                let grad = grad?;
                let single = single.transpose()?.map(|[fit]| fit);
                let multi = multi.transpose()?.map(|[fit]| fit);
                let fallback = fallback.transpose()?.map(|[fit]| fit);
                let (fused_single, fused_multi) = match (single, multi) {
                    (Some(single), Some(multi)) => (single, multi),
                    (single, multi) => {
                        let all = fallback
                            .or_else(|| single.clone())
                            .or_else(|| multi.clone())
                            // analyzer:allow(CA0004, reason = "a set without both regimes has an all-data fit: its fallback, or the regime that holds every point")
                            .expect("an all-data fused fit");
                        (single.unwrap_or_else(|| all.clone()), multi.unwrap_or(all))
                    }
                };
                Ok(Self {
                    forward,
                    backward,
                    grad,
                    fused_single,
                    fused_multi,
                })
            })
            .collect()
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
