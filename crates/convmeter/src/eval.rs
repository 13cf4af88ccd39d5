//! The paper's evaluation protocol: leave-one-model-out error reporting.
//!
//! "To obtain the error rates per ConvNet, we develop a performance model
//! for each ConvNet, excluding its own data from the training set to ensure
//! unbiased evaluation" (Section 4, Benchmarks). This module implements that
//! protocol for both inference (Table 1) and training (Table 3), and emits
//! the scatter data behind Figures 3–5 and 7.
//!
//! The folds are independent fits. Both evaluators hand them to
//! [`pool::run_ordered`] at the sweep worker count
//! ([`convmeter_hwsim::sweep_jobs`]) in fixed groups of [`LANES`]
//! consecutive folds, whose designs are factored together in lockstep;
//! the grouping does not depend on the worker count. Each fold reads its
//! training rows by index from the one shared dataset; nothing is copied
//! per fold. Fitted models come back in fold order and the held-out
//! predictions are scored on the calling thread in that order, so the
//! result — the first fold error included — is the same at every worker
//! count.

use crate::dataset::{InferencePoint, TrainingPoint};
use crate::forward::ForwardModel;
use crate::training::{RowSets, TrainingModel};
use convmeter_linalg::cv::{LeaveOneGroupOut, Split};
use convmeter_linalg::qr::LANES;
use convmeter_linalg::stats::ErrorReport;
use convmeter_linalg::FitError;
use convmeter_metrics::{obs, ModelId};
use convmeter_pool as pool;
use serde::{Deserialize, Serialize};

/// One leave-one-model-out split per ConvNet, in first-appearance order.
fn model_splits(models: impl Iterator<Item = ModelId>) -> Vec<(&'static str, Split)> {
    let groups: Vec<&str> = models.map(ModelId::as_str).collect();
    LeaveOneGroupOut::splits(&groups)
}

/// Fit one model per split on up to `jobs` pool workers, `fit` taking a
/// group of up to [`LANES`] consecutive splits' training row indices and
/// returning one result per split. Returns the models in split order, or
/// the error of the first split (in split order) whose fit failed.
fn fit_folds<M: Send>(
    splits: &[(&str, Split)],
    jobs: usize,
    fit: impl Fn(&[&[usize]]) -> Vec<Result<M, FitError>> + Sync,
) -> Result<Vec<M>, FitError> {
    let groups: Vec<&[(&str, Split)]> = splits.chunks(LANES).collect();
    pool::run_ordered(&groups, jobs, |_, group| {
        let train: Vec<&[usize]> = group.iter().map(|(_, split)| &split.train[..]).collect();
        fit(&train)
    })
    // Re-raise a worker's panic here, exactly as an inline fit would.
    .unwrap_or_else(|p| std::panic::resume_unwind(Box::new(p.message)))
    .into_iter()
    .flatten()
    .collect()
}

/// Per-ConvNet error report (one row of Table 1 / Table 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerModelReport {
    /// The held-out ConvNet.
    pub model: String,
    /// Error metrics over the held-out points.
    pub report: ErrorReport,
}

/// One scatter-plot point: measured vs. predicted.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScatterPoint {
    /// Model the point belongs to (interned; serialises as the plain
    /// string).
    pub model: ModelId,
    /// Square image size.
    pub image_size: usize,
    /// Batch size (per device where applicable).
    pub batch: usize,
    /// Measured time, seconds.
    pub measured: f64,
    /// Predicted time, seconds.
    pub predicted: f64,
}

/// A leave-one-model-out inference evaluation: per-model reports, every
/// held-out scatter point, and the overall report across them.
pub type InferenceEvaluation = (Vec<PerModelReport>, Vec<ScatterPoint>, ErrorReport);

/// Leave-one-model-out evaluation of the inference model.
///
/// Returns per-model reports plus all held-out scatter points, and the
/// overall report across every held-out prediction.
pub fn leave_one_model_out_inference(
    points: &[InferencePoint],
) -> Result<InferenceEvaluation, FitError> {
    lomo_inference(points, convmeter_hwsim::sweep_jobs())
}

/// [`leave_one_model_out_inference`] with its folds fitted `jobs` wide.
fn lomo_inference(points: &[InferencePoint], jobs: usize) -> Result<InferenceEvaluation, FitError> {
    let _span = obs::span!("convmeter.eval");
    let splits = model_splits(points.iter().map(|p| p.model));
    let folds = fit_folds(&splits, jobs, |group| {
        ForwardModel::fit_batch(
            group
                .iter()
                .map(|train| (train.len(), |i: usize| &points[train[i]])),
        )
    })?;
    let mut reports = Vec::with_capacity(splits.len());
    let mut scatter = Vec::with_capacity(points.len());
    let mut all_pred = Vec::with_capacity(points.len());
    let mut all_meas = Vec::with_capacity(points.len());
    for ((model_name, split), fitted) in splits.iter().zip(&folds) {
        let start = all_pred.len();
        for &i in &split.test {
            let p = &points[i];
            let y_hat = fitted.predict(&p.metrics);
            all_pred.push(y_hat);
            all_meas.push(p.measured);
            scatter.push(ScatterPoint {
                model: p.model,
                image_size: p.image_size,
                batch: p.batch,
                measured: p.measured,
                predicted: y_hat,
            });
        }
        reports.push(PerModelReport {
            // analyzer:allow(CP0001, reason = "one owned name per held-out ConvNet; the report rows own their labels")
            model: model_name.to_string(),
            report: ErrorReport::compute(&all_pred[start..], &all_meas[start..]),
        });
    }
    let overall = ErrorReport::compute(&all_pred, &all_meas);
    Ok((reports, scatter, overall))
}

/// Scatter of one training phase: (measured, predicted) with context.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseScatter {
    /// Phase name: `forward`, `backward`, `grad_update`, `step`.
    pub phase: String,
    /// Points: (model, measured, predicted). The model id is interned and
    /// serialises as the plain string.
    pub points: Vec<(ModelId, f64, f64)>,
    /// Error metrics across the phase.
    pub report: ErrorReport,
}

/// Leave-one-model-out evaluation of a training dataset (Table 3,
/// Figures 5 and 7).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingPhasesResult {
    /// One scatter per phase plus the full step.
    pub phases: Vec<PhaseScatter>,
    /// Per-model step-time reports (Table 3 columns).
    pub per_model: Vec<PerModelReport>,
    /// Overall step-time metrics.
    pub overall: ErrorReport,
}

/// A leave-one-model-out training evaluation together with the model each
/// fold fitted.
#[derive(Debug, Clone)]
pub struct TrainingEvaluation {
    /// The phase scatters and per-model reports.
    pub phases: TrainingPhasesResult,
    /// The model fitted with `phases.per_model[i].model` held out, for
    /// every `i`.
    pub folds: Vec<TrainingModel>,
}

impl TrainingEvaluation {
    /// The model fitted without `model`'s points, or `None` when the
    /// dataset has no points of `model`.
    pub fn held_out(&self, model: &str) -> Option<&TrainingModel> {
        let i = self
            .phases
            .per_model
            .iter()
            .position(|r| r.model == model)?;
        self.folds.get(i)
    }
}

/// Leave-one-model-out evaluation of the training model, phase by phase:
/// forward, backward, gradient update, and the full step (Eq. 1).
pub fn leave_one_model_out_training(
    points: &[TrainingPoint],
) -> Result<TrainingPhasesResult, FitError> {
    leave_one_model_out_training_folds(points).map(|eval| eval.phases)
}

/// [`leave_one_model_out_training`], keeping each fold's fitted model.
pub fn leave_one_model_out_training_folds(
    points: &[TrainingPoint],
) -> Result<TrainingEvaluation, FitError> {
    lomo_training(points, convmeter_hwsim::sweep_jobs())
}

/// [`leave_one_model_out_training_folds`] with its folds fitted `jobs`
/// wide.
fn lomo_training(points: &[TrainingPoint], jobs: usize) -> Result<TrainingEvaluation, FitError> {
    let _span = obs::span!("convmeter.eval");
    let splits = model_splits(points.iter().map(|p| p.model));
    let folds = fit_folds(&splits, jobs, |group| {
        TrainingModel::fit_batch(&RowSets::gather(points, group))
    })?;
    let n = points.len();
    let (mut fwd, mut bwd, mut grad, mut step) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let mut per_model = Vec::with_capacity(splits.len());
    let mut step_pred = Vec::with_capacity(n);
    let mut step_meas = Vec::with_capacity(n);
    for ((model_name, split), fitted) in splits.iter().zip(&folds) {
        step_pred.clear();
        step_meas.clear();
        for &i in &split.test {
            let p = &points[i];
            let name = p.model;
            fwd.push((name, p.fwd, fitted.predict_forward(&p.metrics)));
            bwd.push((name, p.bwd, fitted.predict_backward(&p.metrics)));
            grad.push((
                name,
                p.grad,
                fitted.predict_grad_update(&p.metrics, p.nodes),
            ));
            let s = fitted.predict_step(&p.metrics, p.nodes);
            step.push((name, p.step_time(), s));
            step_pred.push(s);
            step_meas.push(p.step_time());
        }
        per_model.push(PerModelReport {
            // analyzer:allow(CP0001, reason = "one owned name per held-out ConvNet; the report rows own their labels")
            model: model_name.to_string(),
            report: ErrorReport::compute(&step_pred, &step_meas),
        });
    }
    let to_scatter = |phase: &str, pts: Vec<(ModelId, f64, f64)>| {
        let meas: Vec<f64> = pts.iter().map(|p| p.1).collect();
        let pred: Vec<f64> = pts.iter().map(|p| p.2).collect();
        PhaseScatter {
            phase: phase.to_string(),
            report: ErrorReport::compute(&pred, &meas),
            points: pts,
        }
    };
    let step = to_scatter("step", step);
    let overall = step.report;
    Ok(TrainingEvaluation {
        phases: TrainingPhasesResult {
            phases: vec![
                to_scatter("forward", fwd),
                to_scatter("backward", bwd),
                to_scatter("grad_update", grad),
                step,
            ],
            per_model,
            overall,
        },
        folds,
    })
}

/// K-fold cross-validated evaluation of the inference model: a generic
/// generalisation check that mixes all models in every fold (contrast with
/// the stricter leave-one-model-out protocol).
pub fn kfold_inference(points: &[InferencePoint], k: usize) -> Result<ErrorReport, FitError> {
    let folds = convmeter_linalg::KFold::new(k).splits(points.len());
    let fitted = ForwardModel::fit_batch(
        folds
            .iter()
            .map(|split| (split.train.len(), |i: usize| &points[split.train[i]])),
    );
    let mut preds = Vec::with_capacity(points.len());
    let mut meas = Vec::with_capacity(points.len());
    for (split, fitted) in folds.iter().zip(fitted) {
        let fitted = fitted?;
        for &i in &split.test {
            preds.push(fitted.predict(&points[i].metrics));
            meas.push(points[i].measured);
        }
    }
    Ok(ErrorReport::compute(&preds, &meas))
}

/// Error breakdown of a scatter by a grouping key — e.g. by batch size to
/// quantify the paper's "the prediction is more accurate for larger batch
/// sizes" observation, or by image size.
pub fn breakdown_by<K: Ord + Clone>(
    scatter: &[ScatterPoint],
    key: impl Fn(&ScatterPoint) -> K,
) -> Vec<(K, ErrorReport)> {
    let mut groups: std::collections::BTreeMap<K, (Vec<f64>, Vec<f64>)> =
        std::collections::BTreeMap::new();
    for s in scatter {
        let entry = groups.entry(key(s)).or_default();
        entry.0.push(s.predicted);
        entry.1.push(s.measured);
    }
    groups
        .into_iter()
        .map(|(k, (p, m))| (k, ErrorReport::compute(&p, &m)))
        .collect()
}

/// The evaluators before their folds moved onto the pool: one fold after
/// another on the calling thread, each fitting a copy of its training
/// points and stopping at the first failed fit. Kept as the oracle the
/// pooled folds must match bit for bit.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn inference(points: &[InferencePoint]) -> Result<InferenceEvaluation, FitError> {
        let groups: Vec<&str> = points.iter().map(|p| p.model.as_str()).collect();
        let splits = LeaveOneGroupOut::splits(&groups);
        let mut reports = Vec::new();
        let mut scatter = Vec::new();
        let mut all_pred = Vec::new();
        let mut all_meas = Vec::new();
        for (model_name, split) in splits {
            let train: Vec<InferencePoint> = split.train.iter().map(|&i| points[i]).collect();
            let fitted = ForwardModel::fit(&train)?;
            let start = all_pred.len();
            for &i in &split.test {
                let p = &points[i];
                let y_hat = fitted.predict(&p.metrics);
                all_pred.push(y_hat);
                all_meas.push(p.measured);
                scatter.push(ScatterPoint {
                    model: p.model,
                    image_size: p.image_size,
                    batch: p.batch,
                    measured: p.measured,
                    predicted: y_hat,
                });
            }
            reports.push(PerModelReport {
                model: model_name.to_string(),
                report: ErrorReport::compute(&all_pred[start..], &all_meas[start..]),
            });
        }
        let overall = ErrorReport::compute(&all_pred, &all_meas);
        Ok((reports, scatter, overall))
    }

    pub(super) fn training(points: &[TrainingPoint]) -> Result<TrainingEvaluation, FitError> {
        let groups: Vec<&str> = points.iter().map(|p| p.model.as_str()).collect();
        let splits = LeaveOneGroupOut::splits(&groups);
        let (mut fwd, mut bwd, mut grad, mut step) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut per_model = Vec::new();
        let mut folds = Vec::new();
        for (model_name, split) in splits {
            let train: Vec<TrainingPoint> = split.train.iter().map(|&i| points[i]).collect();
            let fitted = TrainingModel::fit(&train)?;
            let mut step_pred = Vec::new();
            let mut step_meas = Vec::new();
            for &i in &split.test {
                let p = &points[i];
                let name = p.model;
                fwd.push((name, p.fwd, fitted.predict_forward(&p.metrics)));
                bwd.push((name, p.bwd, fitted.predict_backward(&p.metrics)));
                grad.push((
                    name,
                    p.grad,
                    fitted.predict_grad_update(&p.metrics, p.nodes),
                ));
                let s = fitted.predict_step(&p.metrics, p.nodes);
                step.push((name, p.step_time(), s));
                step_pred.push(s);
                step_meas.push(p.step_time());
            }
            per_model.push(PerModelReport {
                model: model_name.to_string(),
                report: ErrorReport::compute(&step_pred, &step_meas),
            });
            folds.push(fitted);
        }
        let to_scatter = |phase: &str, pts: Vec<(ModelId, f64, f64)>| {
            let meas: Vec<f64> = pts.iter().map(|p| p.1).collect();
            let pred: Vec<f64> = pts.iter().map(|p| p.2).collect();
            PhaseScatter {
                phase: phase.to_string(),
                report: ErrorReport::compute(&pred, &meas),
                points: pts,
            }
        };
        let step = to_scatter("step", step);
        let overall = step.report;
        Ok(TrainingEvaluation {
            phases: TrainingPhasesResult {
                phases: vec![
                    to_scatter("forward", fwd),
                    to_scatter("backward", bwd),
                    to_scatter("grad_update", grad),
                    step,
                ],
                per_model,
                overall,
            },
            folds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{inference_dataset, training_dataset};
    use convmeter_hwsim::{DeviceProfile, SweepConfig};

    /// A mid-size sweep: big enough that leave-one-model-out generalisation
    /// is meaningful (the 18-point quick sweep is not), small enough for
    /// fast tests.
    fn eval_config() -> SweepConfig {
        let mut cfg = SweepConfig::quick();
        cfg.models = vec![
            "resnet18".into(),
            "resnet50".into(),
            "mobilenet_v2".into(),
            "vgg11".into(),
            "alexnet".into(),
            "densenet121".into(),
        ];
        cfg.image_sizes = vec![64, 128, 224];
        cfg.batch_sizes = vec![1, 4, 16, 64, 256];
        cfg
    }

    /// The quick training sweep's points relabelled into three ConvNets of
    /// `sizes[k]` points each, in first-appearance order.
    fn relabelled(sizes: [usize; 3]) -> Vec<TrainingPoint> {
        let data = training_dataset(&DeviceProfile::a100_80gb(), &SweepConfig::quick()).unwrap();
        let names = ["net_a", "net_b", "net_c"].map(ModelId::intern);
        let labels = names
            .iter()
            .zip(sizes)
            .flat_map(|(&n, k)| std::iter::repeat_n(n, k));
        data.iter()
            .zip(labels)
            .map(|(p, model)| TrainingPoint { model, ..*p })
            .collect()
    }

    #[test]
    fn pooled_inference_folds_match_serial_reference_bitwise() {
        let cpu = DeviceProfile::xeon_gold_5318y_core();
        for device in [DeviceProfile::a100_80gb(), cpu] {
            let data = inference_dataset(&device, &eval_config()).unwrap();
            let want = format!("{:?}", reference::inference(&data).unwrap());
            for jobs in [1, 2, 4] {
                let got = format!("{:?}", lomo_inference(&data, jobs).unwrap());
                assert_eq!(got, want, "jobs {jobs}");
            }
        }
    }

    #[test]
    fn pooled_training_folds_match_serial_reference_bitwise() {
        let device = DeviceProfile::a100_80gb();
        let single = training_dataset(&device, &eval_config()).unwrap();
        let mut dist = convmeter_distsim::DistSweepConfig::quick();
        dist.models = ["resnet18", "alexnet", "resnet50", "mobilenet_v2"]
            .map(String::from)
            .into();
        let multi = crate::dataset::distributed_dataset(&device, &dist).unwrap();
        for data in [single, multi] {
            let want = reference::training(&data).unwrap();
            for jobs in [1, 2, 4] {
                let got = lomo_training(&data, jobs).unwrap();
                // Per-model reports, every phase's scatter points and
                // report, and each fold's coefficients.
                assert_eq!(format!("{:?}", got.phases), format!("{:?}", want.phases));
                assert_eq!(got.folds.len(), want.folds.len());
                for (g, w) in got.folds.iter().zip(&want.folds) {
                    assert_eq!(format!("{g:?}"), format!("{w:?}"), "jobs {jobs}");
                }
            }
        }
    }

    #[test]
    fn unfittable_second_fold_returns_the_serial_error() {
        // Holding out net_b leaves 1 + 5 = 6 rows, one short of the fused
        // model's 7 unknowns; the folds either side of it fit.
        let data = relabelled([1, 6, 5]);
        let want = reference::training(&data).unwrap_err();
        assert_eq!(want, FitError::TooFewObservations { have: 6, need: 7 });
        for jobs in [1, 2, 4] {
            assert_eq!(lomo_training(&data, jobs).unwrap_err(), want, "jobs {jobs}");
        }
        // The same shape for the forward model's 4 unknowns: 1 + 2 rows.
        let inference: Vec<InferencePoint> = relabelled([1, 6, 2])
            .iter()
            .map(|p| InferencePoint {
                model: p.model,
                image_size: p.image_size,
                batch: p.batch,
                metrics: p.metrics,
                measured: p.fwd,
            })
            .collect();
        let want = reference::inference(&inference).unwrap_err();
        assert_eq!(want, FitError::TooFewObservations { have: 3, need: 4 });
        for jobs in [1, 2, 4] {
            assert_eq!(
                lomo_inference(&inference, jobs).unwrap_err(),
                want,
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn inference_loocv_reports_per_model() {
        let data = inference_dataset(&DeviceProfile::a100_80gb(), &eval_config()).unwrap();
        let (reports, scatter, overall) = leave_one_model_out_inference(&data).unwrap();
        assert_eq!(reports.len(), 6);
        assert_eq!(scatter.len(), data.len());
        assert!(overall.n == data.len());
        // Held-out predictions should still be decent on the simulator.
        assert!(overall.r2 > 0.8, "overall {overall}");
        for r in &reports {
            assert!(r.report.mape < 1.0, "{}: {}", r.model, r.report);
        }
    }

    #[test]
    fn training_loocv_runs() {
        let data = training_dataset(&DeviceProfile::a100_80gb(), &eval_config()).unwrap();
        let result = leave_one_model_out_training(&data).unwrap();
        assert_eq!(result.per_model.len(), 6);
        let phases: Vec<&str> = result.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(phases, ["forward", "backward", "grad_update", "step"]);
        for phase in &result.phases {
            assert_eq!(phase.points.len(), data.len());
        }
        assert!(result.overall.r2 > 0.7, "overall {}", result.overall);
    }

    #[test]
    fn kfold_beats_leave_one_model_out() {
        // K-fold mixes every model into training, so it must be at least as
        // accurate as the stricter unseen-model protocol.
        let data = inference_dataset(&DeviceProfile::a100_80gb(), &eval_config()).unwrap();
        let kfold = kfold_inference(&data, 5).unwrap();
        let (_, _, loocv) = leave_one_model_out_inference(&data).unwrap();
        assert!(
            kfold.r2 >= loocv.r2 - 0.02,
            "kfold {kfold} vs loocv {loocv}"
        );
        assert!(kfold.mape <= loocv.mape * 1.1);
    }

    #[test]
    fn accuracy_improves_with_batch_size() {
        // The paper: "the prediction is more accurate for larger batch
        // sizes." Compare relative error at the extremes of the sweep.
        let data = inference_dataset(&DeviceProfile::a100_80gb(), &eval_config()).unwrap();
        let (_, scatter, _) = leave_one_model_out_inference(&data).unwrap();
        let by_batch = breakdown_by(&scatter, |s| s.batch);
        let small = by_batch.first().unwrap();
        let large = by_batch.last().unwrap();
        assert!(small.0 < large.0);
        assert!(
            large.1.mape < small.1.mape,
            "batch {} MAPE {} should beat batch {} MAPE {}",
            large.0,
            large.1.mape,
            small.0,
            small.1.mape
        );
    }

    #[test]
    fn held_out_model_not_in_training_set() {
        // Indirect check: per-model error should differ from an in-sample
        // fit; more importantly, every point appears exactly once in the
        // scatter output.
        let data = inference_dataset(&DeviceProfile::a100_80gb(), &SweepConfig::quick()).unwrap();
        let (_, scatter, _) = leave_one_model_out_inference(&data).unwrap();
        let mut counts = std::collections::HashMap::new();
        for s in &scatter {
            *counts
                .entry((s.model, s.image_size, s.batch))
                .or_insert(0usize) += 1;
        }
        assert!(counts.values().all(|&c| c == 1));
    }
}
