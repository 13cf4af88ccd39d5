//! Dataset assembly: turn raw benchmark sweeps into feature-annotated data
//! points ready for regression.
//!
//! The simulator's sweep outputs carry only (model, image, batch, time);
//! this module resolves each configuration's static metrics through the
//! model zoo — the "parsing its computational graph" step — and attaches the
//! feature values.

use convmeter_distsim::{distributed_sweep, distributed_sweep_faulted, DistSweepConfig};
use convmeter_hwsim::{
    compile, inference_sweep, inference_sweep_faulted, training_sweep, training_sweep_faulted,
    DeviceProfile, FaultProfile, SweepConfig, SweepError,
};
use convmeter_metrics::{obs, BatchMetrics, ModelId};
use serde::{Deserialize, Serialize};

/// One inference observation with its resolved features.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct InferencePoint {
    /// Model name (the leave-one-out group key; interned, serialises as the
    /// plain string).
    pub model: ModelId,
    /// Square image size, pixels.
    pub image_size: usize,
    /// Batch size.
    pub batch: usize,
    /// Batch-scaled static metrics.
    pub metrics: BatchMetrics,
    /// Measured inference time, seconds.
    pub measured: f64,
}

/// One training observation (single- or multi-node) with resolved features.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainingPoint {
    /// Model name (the leave-one-out group key; interned, serialises as the
    /// plain string).
    pub model: ModelId,
    /// Square image size, pixels.
    pub image_size: usize,
    /// Per-device batch size.
    pub batch: usize,
    /// Number of nodes (1 for single-device training).
    pub nodes: usize,
    /// Total participating devices.
    pub devices: usize,
    /// Batch-scaled static metrics (per device).
    pub metrics: BatchMetrics,
    /// Measured forward-pass time, seconds.
    pub fwd: f64,
    /// Measured backward-pass time, seconds.
    pub bwd: f64,
    /// Measured gradient-update time, seconds.
    pub grad: f64,
}

impl TrainingPoint {
    /// Measured total step time (Eq. 1).
    pub fn step_time(&self) -> f64 {
        self.fwd + self.bwd + self.grad
    }
}

/// The generic feature-attachment step: resolve each raw sample's
/// `(model, image, batch)` configuration to its batch-scaled static metrics
/// through the process-global compile cache (one graph build + extraction
/// per `(model, image)` per process — shared with the sweeps themselves,
/// which have typically warmed it already), and let `make` assemble the
/// annotated point. Every dataset flavour funnels through this one loop.
fn attach_features<S, P>(
    samples: Vec<S>,
    key: impl Fn(&S) -> (&str, usize, usize),
    make: impl Fn(S, BatchMetrics) -> P,
) -> Result<Vec<P>, SweepError> {
    samples
        .into_iter()
        .map(|sample| {
            let (model, image, batch) = key(&sample);
            let compiled = compile::compiled(model, image)?.ok_or_else(|| {
                SweepError::UnsupportedImageSize {
                    model: model.to_string(),
                    image_size: image,
                }
            })?;
            Ok(make(sample, compiled.metrics.at_batch(batch)))
        })
        .collect()
}

/// Annotate raw inference sweep samples with their static features.
///
/// Split out from [`inference_dataset`] so callers holding precomputed (or
/// cached) sweep outputs can attach features without re-simulating.
pub fn attach_inference_features(
    samples: Vec<convmeter_hwsim::InferenceSample>,
) -> Result<Vec<InferencePoint>, SweepError> {
    attach_features(
        samples,
        |s| (s.model.as_str(), s.image_size, s.batch),
        |s, metrics| InferencePoint {
            model: s.model,
            image_size: s.image_size,
            batch: s.batch,
            metrics,
            measured: s.time_s,
        },
    )
}

/// Annotate raw single-device training sweep samples (nodes = devices = 1).
pub fn attach_training_features(
    samples: Vec<convmeter_hwsim::TrainingSample>,
) -> Result<Vec<TrainingPoint>, SweepError> {
    attach_features(
        samples,
        |s| (s.model.as_str(), s.image_size, s.batch),
        |s, metrics| TrainingPoint {
            model: s.model,
            image_size: s.image_size,
            batch: s.batch,
            nodes: 1,
            devices: 1,
            metrics,
            fwd: s.phases.forward,
            bwd: s.phases.backward,
            grad: s.phases.grad_update,
        },
    )
}

/// Annotate raw distributed-training sweep samples.
pub fn attach_distributed_features(
    samples: Vec<convmeter_distsim::DistTrainingSample>,
) -> Result<Vec<TrainingPoint>, SweepError> {
    attach_features(
        samples,
        |s| (s.model.as_str(), s.image_size, s.batch),
        |s, metrics| TrainingPoint {
            image_size: s.image_size,
            batch: s.batch,
            nodes: s.nodes,
            devices: s.total_devices(),
            metrics,
            fwd: s.phases.forward,
            bwd: s.phases.backward,
            grad: s.phases.grad_update,
            model: s.model,
        },
    )
}

/// Run an inference sweep on `device` and annotate every sample with its
/// static features.
pub fn inference_dataset(
    device: &DeviceProfile,
    config: &SweepConfig,
) -> Result<Vec<InferencePoint>, SweepError> {
    let _span = obs::span!("convmeter.dataset.inference");
    attach_inference_features(inference_sweep(device, config)?)
}

/// Run a single-device training sweep and annotate it (nodes = devices = 1).
pub fn training_dataset(
    device: &DeviceProfile,
    config: &SweepConfig,
) -> Result<Vec<TrainingPoint>, SweepError> {
    let _span = obs::span!("convmeter.dataset.training");
    attach_training_features(training_sweep(device, config)?)
}

/// Run a distributed-training sweep and annotate it.
pub fn distributed_dataset(
    device: &DeviceProfile,
    config: &DistSweepConfig,
) -> Result<Vec<TrainingPoint>, SweepError> {
    let _span = obs::span!("convmeter.dataset.distributed");
    attach_distributed_features(distributed_sweep(device, config)?)
}

/// Drop samples whose measured times are non-finite (corrupted by the fault
/// model), counting them on an obs counter so fault runs are auditable.
/// Straggler spikes and slowdowns are *kept* — they are valid (if extreme)
/// measurements the robust fit must cope with; only NaN/inf corruption is
/// unusable as a regression target.
fn drop_corrupt<P>(points: Vec<P>, finite: impl Fn(&P) -> bool) -> Vec<P> {
    let before = points.len();
    let kept: Vec<P> = points.into_iter().filter(finite).collect();
    let dropped = before - kept.len();
    if dropped > 0 {
        obs::counter!("convmeter.dataset.dropped_corrupt").add(dropped as u64);
    }
    kept
}

/// [`inference_dataset`] under an injected [`FaultProfile`]. Corrupted
/// (NaN) samples are dropped (counted on `convmeter.dataset.dropped_corrupt`);
/// straggler spikes and slowdowns remain in the data. With `faults.is_off()`
/// this is byte-identical to the plain builder.
pub fn inference_dataset_faulted(
    device: &DeviceProfile,
    config: &SweepConfig,
    faults: &FaultProfile,
) -> Result<Vec<InferencePoint>, SweepError> {
    if faults.is_off() {
        return inference_dataset(device, config);
    }
    let _span = obs::span!("convmeter.dataset.inference");
    let points = attach_inference_features(inference_sweep_faulted(device, config, faults)?)?;
    Ok(drop_corrupt(points, |p| p.measured.is_finite()))
}

/// [`training_dataset`] under an injected [`FaultProfile`]; see
/// [`inference_dataset_faulted`] for the corruption-dropping contract.
pub fn training_dataset_faulted(
    device: &DeviceProfile,
    config: &SweepConfig,
    faults: &FaultProfile,
) -> Result<Vec<TrainingPoint>, SweepError> {
    if faults.is_off() {
        return training_dataset(device, config);
    }
    let _span = obs::span!("convmeter.dataset.training");
    let points = attach_training_features(training_sweep_faulted(device, config, faults)?)?;
    Ok(drop_corrupt(points, |p| p.step_time().is_finite()))
}

/// [`distributed_dataset`] under an injected [`FaultProfile`]; see
/// [`inference_dataset_faulted`] for the corruption-dropping contract.
pub fn distributed_dataset_faulted(
    device: &DeviceProfile,
    config: &DistSweepConfig,
    faults: &FaultProfile,
) -> Result<Vec<TrainingPoint>, SweepError> {
    if faults.is_off() {
        return distributed_dataset(device, config);
    }
    let _span = obs::span!("convmeter.dataset.distributed");
    let points = attach_distributed_features(distributed_sweep_faulted(device, config, faults)?)?;
    Ok(drop_corrupt(points, |p| p.step_time().is_finite()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inference_dataset_attaches_features() {
        let d = DeviceProfile::a100_80gb();
        let points = inference_dataset(&d, &SweepConfig::quick()).unwrap();
        assert!(!points.is_empty());
        for p in &points {
            assert!(p.metrics.flops > 0);
            assert_eq!(p.metrics.batch, p.batch);
            assert!(p.measured > 0.0);
        }
        // Features scale with batch within a (model, image) group.
        let r18_64: Vec<_> = points
            .iter()
            .filter(|p| p.model == "resnet18" && p.image_size == 64)
            .collect();
        assert!(r18_64.len() >= 2);
        let a = r18_64[0];
        let b = r18_64[1];
        assert_eq!(
            a.metrics.flops * b.batch as u64,
            b.metrics.flops * a.batch as u64
        );
    }

    #[test]
    fn training_dataset_single_node() {
        let d = DeviceProfile::a100_80gb();
        let points = training_dataset(&d, &SweepConfig::quick()).unwrap();
        assert!(points.iter().all(|p| p.nodes == 1 && p.devices == 1));
        assert!(points.iter().all(|p| p.step_time() > p.fwd));
    }

    #[test]
    fn distributed_dataset_node_counts() {
        let d = DeviceProfile::a100_80gb();
        let points = distributed_dataset(&d, &DistSweepConfig::quick()).unwrap();
        assert!(points.iter().any(|p| p.nodes == 4 && p.devices == 16));
        assert!(points.iter().all(|p| p.devices == p.nodes * 4));
    }

    #[test]
    fn faulted_builders_with_faults_off_match_plain() {
        let d = DeviceProfile::a100_80gb();
        let off = FaultProfile::disabled();
        let cfg = SweepConfig::quick();
        let a = inference_dataset(&d, &cfg).unwrap();
        let b = inference_dataset_faulted(&d, &cfg, &off).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.measured.to_bits(), y.measured.to_bits());
        }
        let dcfg = DistSweepConfig::quick();
        let da = distributed_dataset(&d, &dcfg).unwrap();
        let db = distributed_dataset_faulted(&d, &dcfg, &off).unwrap();
        assert_eq!(da.len(), db.len());
        for (x, y) in da.iter().zip(&db) {
            assert_eq!(x.step_time().to_bits(), y.step_time().to_bits());
        }
    }

    #[test]
    fn faulted_builders_drop_corruption_and_keep_data_finite() {
        let d = DeviceProfile::a100_80gb();
        // Aggressive corruption so the quick sweep is guaranteed to hit it.
        let mut faults = FaultProfile::heavy();
        faults.corrupt_prob = 0.5;
        let cfg = SweepConfig::quick();
        let clean = inference_dataset(&d, &cfg).unwrap();
        let faulted = inference_dataset_faulted(&d, &cfg, &faults).unwrap();
        assert!(
            faulted.len() < clean.len(),
            "corruption should drop samples"
        );
        assert!(!faulted.is_empty());
        assert!(faulted.iter().all(|p| p.measured.is_finite()));
        // Deterministic per seed: a second run is identical.
        let again = inference_dataset_faulted(&d, &cfg, &faults).unwrap();
        assert_eq!(faulted.len(), again.len());
        for (x, y) in faulted.iter().zip(&again) {
            assert_eq!(x.measured.to_bits(), y.measured.to_bits());
        }
    }

    #[test]
    fn faulted_training_datasets_stay_finite() {
        let d = DeviceProfile::a100_80gb();
        let faults = FaultProfile::heavy();
        let points = training_dataset_faulted(&d, &SweepConfig::quick(), &faults).unwrap();
        assert!(!points.is_empty());
        assert!(points.iter().all(|p| p.step_time().is_finite()));
        let dist = distributed_dataset_faulted(&d, &DistSweepConfig::quick(), &faults).unwrap();
        assert!(!dist.is_empty());
        assert!(dist.iter().all(|p| p.step_time().is_finite()));
    }
}
