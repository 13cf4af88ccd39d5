//! Scalability experiments: Figure 8 (throughput vs nodes) and Figure 9
//! (throughput vs batch size).

use crate::report::Table;
use convmeter::prelude::*;
use convmeter::scalability::ThroughputPoint;
use convmeter_distsim::{BatchStep, ClusterConfig, StepModel};
use convmeter_hwsim::NoiseModel;
use convmeter_linalg::stats::{mean, std_dev};
use convmeter_metrics::ModelMetrics;
use convmeter_models::zoo;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The eight ConvNets of Figure 8.
pub const FIG8_MODELS: &[&str] = &[
    "alexnet",
    "resnet18",
    "resnet50",
    "vgg11",
    "mobilenet_v2",
    "efficientnet_b0",
    "wide_resnet50",
    "regnet_x_8gf",
];

/// One model's scaling curve: predicted and "measured" throughput per node
/// count, with measurement standard deviations (the blue bars of Fig. 8).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalingCurve {
    /// Model name.
    pub model: String,
    /// Predicted curve.
    pub predicted: Vec<ThroughputPoint>,
    /// Measured mean throughput per node count (images/s).
    pub measured_mean: Vec<f64>,
    /// Measured standard deviation per node count.
    pub measured_std: Vec<f64>,
}

/// Mean and standard deviation of `repeats` noisy throughput measurements
/// of `step` (one per-device batch of one model) on `nodes` nodes. Every
/// repeat reuses the step's kernel times; only the noise differs.
fn measure_throughput(
    device: &DeviceProfile,
    step: &BatchStep<'_, '_>,
    batch: usize,
    nodes: usize,
    repeats: usize,
    seed: u64,
) -> (f64, f64) {
    let cluster = ClusterConfig::hpc_cluster(nodes);
    let mut noise = NoiseModel::new(seed, device.noise_sigma);
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let phases = step.measure(&cluster, &mut noise);
            (batch * cluster.total_devices()) as f64 / phases.total()
        })
        .collect();
    (mean(&samples), std_dev(&samples))
}

/// The per-model step terms of a one-node-or-more HPC cluster run.
fn step_model<'a>(device: &'a DeviceProfile, metrics: &'a ModelMetrics) -> StepModel<'a> {
    StepModel::new(
        device,
        metrics,
        ClusterConfig::hpc_cluster(1).fusion_buffer_bytes,
    )
}

/// Run Figure 8: throughput vs nodes at image 128, per-device batch 64.
/// `held_out[i]` predicts `FIG8_MODELS[i]`: the distributed-dataset model
/// fitted with that ConvNet held out.
///
/// # Panics
/// Panics unless there is one held-out model per [`FIG8_MODELS`] entry.
pub fn fig8(held_out: &[TrainingModel]) -> Vec<ScalingCurve> {
    assert_eq!(held_out.len(), FIG8_MODELS.len(), "one model per ConvNet");
    let device = DeviceProfile::a100_80gb();
    let nodes = [1usize, 2, 4, 8, 16];
    let mut curves = Vec::new();
    for (&model, fitted) in FIG8_MODELS.iter().zip(held_out) {
        let metrics = ModelMetrics::of(&zoo::by_name(model).unwrap().build(128, 1000)).unwrap();
        let predicted = throughput_vs_nodes(fitted, &metrics, 64, &nodes, 4);
        let step_model = step_model(&device, &metrics);
        let step = step_model.at_batch(64);
        let mut measured_mean = Vec::new();
        let mut measured_std = Vec::new();
        for (i, &n) in nodes.iter().enumerate() {
            let (m, s) = measure_throughput(&device, &step, 64, n, 7, 0xF18 + i as u64);
            measured_mean.push(m);
            measured_std.push(s);
        }
        curves.push(ScalingCurve {
            model: model.to_string(),
            predicted,
            measured_mean,
            measured_std,
        });
    }
    curves
}

/// Render Figure 8.
pub fn render_fig8(curves: &[ScalingCurve]) -> String {
    let mut t = Table::new(
        "Figure 8: throughput (images/s) vs nodes (image 128, batch 64/device)",
        &["model", "nodes", "predicted", "measured", "std"],
    );
    for c in curves {
        for (p, (m, s)) in c
            .predicted
            .iter()
            .zip(c.measured_mean.iter().zip(&c.measured_std))
        {
            t.row(vec![
                c.model.clone(),
                p.nodes.to_string(),
                format!("{:.0}", p.images_per_sec),
                format!("{m:.0}"),
                format!("{s:.0}"),
            ]);
        }
    }
    let mut out = t.render();
    // The paper's qualitative anchor: AlexNet shows the most pronounced
    // diminishing return.
    let pred_speedup = |c: &ScalingCurve| {
        c.predicted.last().unwrap().images_per_sec / c.predicted[0].images_per_sec
    };
    let meas_speedup = |c: &ScalingCurve| c.measured_mean.last().unwrap() / c.measured_mean[0];
    let alex = curves
        .iter()
        .find(|c| c.model == "alexnet")
        .expect("alexnet in fig8");
    let others_min_pred = curves
        .iter()
        .filter(|c| c.model != "alexnet")
        .map(pred_speedup)
        .fold(f64::INFINITY, f64::min);
    let others_min_meas = curves
        .iter()
        .filter(|c| c.model != "alexnet")
        .map(meas_speedup)
        .fold(f64::INFINITY, f64::min);
    let _ = writeln!(
        out,
        "\nAlexNet 1->16 node speedup: measured {:.2}x / predicted {:.2}x; next-lowest model: measured {:.2}x / predicted {:.2}x\n(paper: AlexNet shows the most prominent diminishing return, which the prediction correctly reflects)\n",
        meas_speedup(alex),
        pred_speedup(alex),
        others_min_meas,
        others_min_pred
    );
    out
}

/// One model's batch-scaling curve (Figure 9).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchCurve {
    /// Model name.
    pub model: String,
    /// Predicted throughput per batch size (extends beyond device memory).
    pub predicted: Vec<ThroughputPoint>,
    /// Measured mean throughput per batch size (`None` where the
    /// configuration no longer fits in memory).
    pub measured_mean: Vec<Option<f64>>,
    /// Measured standard deviation per batch size.
    pub measured_std: Vec<Option<f64>>,
}

/// The Figure 9 model list: the Figure 8 set plus SqueezeNet, which the
/// paper singles out (with ResNet-18) for its pronounced diminishing
/// return at large batch sizes.
pub const FIG9_MODELS: &[&str] = &[
    "alexnet",
    "resnet18",
    "resnet50",
    "vgg11",
    "mobilenet_v2",
    "efficientnet_b0",
    "wide_resnet50",
    "regnet_x_8gf",
    "squeezenet1_0",
];

/// The Figure 9 batch grid — the top end exceeds 80 GB for several models,
/// exercising the beyond-memory extrapolation feature.
pub const FIG9_BATCHES: &[usize] = &[8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Run Figure 9: throughput vs per-device batch at image 128 on one node
/// (4 GPUs). `held_out[i]` predicts `FIG9_MODELS[i]`: the
/// distributed-dataset model fitted with that ConvNet held out.
///
/// # Panics
/// Panics unless there is one held-out model per [`FIG9_MODELS`] entry.
pub fn fig9(held_out: &[TrainingModel]) -> Vec<BatchCurve> {
    assert_eq!(held_out.len(), FIG9_MODELS.len(), "one model per ConvNet");
    let device = DeviceProfile::a100_80gb();
    let mut curves = Vec::new();
    for (&model, fitted) in FIG9_MODELS.iter().zip(held_out) {
        let metrics = ModelMetrics::of(&zoo::by_name(model).unwrap().build(128, 1000)).unwrap();
        let predicted = throughput_vs_batch(fitted, &metrics, FIG9_BATCHES, 1, 4);
        let step_model = step_model(&device, &metrics);
        let mut measured_mean = Vec::new();
        let mut measured_std = Vec::new();
        for (i, &b) in FIG9_BATCHES.iter().enumerate() {
            if convmeter_hwsim::training_memory_bytes(&metrics, b) > device.memory_capacity {
                measured_mean.push(None);
                measured_std.push(None);
                continue;
            }
            let step = step_model.at_batch(b);
            let (m, s) = measure_throughput(&device, &step, b, 1, 7, 0xF19 + i as u64);
            measured_mean.push(Some(m));
            measured_std.push(Some(s));
        }
        curves.push(BatchCurve {
            model: model.to_string(),
            predicted,
            measured_mean,
            measured_std,
        });
    }
    curves
}

/// Render Figure 9.
pub fn render_fig9(curves: &[BatchCurve]) -> String {
    let mut t = Table::new(
        "Figure 9: throughput (images/s) vs per-device batch (image 128, 1 node x 4 GPUs)",
        &["model", "batch", "predicted", "measured"],
    );
    for c in curves {
        for (p, m) in c.predicted.iter().zip(&c.measured_mean) {
            t.row(vec![
                c.model.clone(),
                p.per_device_batch.to_string(),
                format!("{:.0}", p.images_per_sec),
                m.map_or("OOM (predicted only)".into(), |v| format!("{v:.0}")),
            ]);
        }
    }
    let mut out = t.render();
    out.push('\n');
    out
}
