//! Cross-crate integration: the training pipeline — single-device phases,
//! distributed simulation with all-reduce overlap, fitting, and the
//! scalability analyses of Section 4.3.

use convmeter::prelude::*;
use convmeter_distsim::{simulate_step_threaded, ClusterConfig};
use convmeter_models::zoo;

fn dist_config() -> DistSweepConfig {
    DistSweepConfig {
        models: vec![
            "alexnet".into(),
            "resnet18".into(),
            "resnet50".into(),
            "vgg11".into(),
            "mobilenet_v2".into(),
            "wide_resnet50".into(),
        ],
        image_sizes: vec![64, 128],
        batch_sizes: vec![16, 64, 128],
        node_counts: vec![1, 2, 4, 8],
        seed: 42,
    }
}

#[test]
fn held_out_training_step_accuracy() {
    let device = DeviceProfile::a100_80gb();
    let data = distributed_dataset(&device, &dist_config()).unwrap();
    let result = leave_one_model_out_training(&data).unwrap();
    assert_eq!(result.per_model.len(), 6);
    let overall = result.overall;
    // Paper: distributed step R2 = 0.78, MAPE = 0.15.
    assert!(overall.r2 > 0.85, "overall {overall}");
    assert!(overall.mape < 0.4, "overall {overall}");
}

#[test]
fn backward_dominates_and_grad_grows_with_nodes() {
    let device = DeviceProfile::a100_80gb();
    let data = distributed_dataset(&device, &dist_config()).unwrap();
    let model = TrainingModel::fit(&data).unwrap();
    let metrics = ModelMetrics::of(&zoo::by_name("resnet50").unwrap().build(128, 1000)).unwrap();
    let bm = metrics.at_batch(64);
    assert!(model.predict_backward(&bm) > model.predict_forward(&bm));
    let g2 = model.predict_bwd_grad(&bm, 2);
    let g8 = model.predict_bwd_grad(&bm, 8);
    assert!(g8 > g2);
}

#[test]
fn threaded_simulator_consistent_with_analytic_across_models() {
    let device = DeviceProfile::a100_80gb();
    for name in ["resnet18", "alexnet", "mobilenet_v2"] {
        let metrics = ModelMetrics::of(&zoo::by_name(name).unwrap().build(64, 1000)).unwrap();
        let mut cluster = ClusterConfig::hpc_cluster(2);
        cluster.straggler_sigma = 0.0;
        let threaded = simulate_step_threaded(&device, &cluster, &metrics, 32, 1);
        let analytic =
            convmeter_distsim::expected_distributed_phases(&device, &cluster, &metrics, 32);
        let rel = (threaded.total() - analytic.total()).abs() / analytic.total();
        assert!(
            rel < 1e-9,
            "{name}: threaded {} vs analytic {}",
            threaded.total(),
            analytic.total()
        );
    }
}

#[test]
fn weak_scaling_keeps_epoch_time_falling() {
    // Weak scaling: per-device batch fixed, nodes grow -> steps per epoch
    // shrink faster than step time grows, so epochs get shorter.
    let device = DeviceProfile::a100_80gb();
    let data = distributed_dataset(&device, &dist_config()).unwrap();
    let model = TrainingModel::fit(&data).unwrap();
    let metrics = ModelMetrics::of(&zoo::by_name("resnet50").unwrap().build(128, 1000)).unwrap();
    let mut last = f64::INFINITY;
    for nodes in [1usize, 2, 4, 8] {
        let t = model.predict_epoch(&metrics, 1_281_167, 64, nodes, nodes * 4);
        assert!(
            t < last,
            "epoch time should fall with nodes: {t} at {nodes}"
        );
        last = t;
    }
}

#[test]
fn strong_scaling_prediction_with_fixed_global_batch() {
    // Strong scaling: fixed global batch 512 split across more devices.
    let device = DeviceProfile::a100_80gb();
    let data = distributed_dataset(&device, &dist_config()).unwrap();
    let model = TrainingModel::fit(&data).unwrap();
    let metrics = ModelMetrics::of(&zoo::by_name("resnet50").unwrap().build(128, 1000)).unwrap();
    let global = 512usize;
    let step_1 = model.predict_step_at(&metrics, global / 4, 1);
    let step_4 = model.predict_step_at(&metrics, global / 16, 4);
    // Per-step time falls with more devices (less per-device work)...
    assert!(step_4 < step_1);
    // ...but not by the full 4x (communication overhead).
    assert!(step_4 > step_1 / 4.0);
}

#[test]
fn alexnet_scales_worst_in_measured_data() {
    // Figure 8's qualitative anchor, on raw simulated measurements.
    let device = DeviceProfile::a100_80gb();
    let data = distributed_dataset(&device, &dist_config()).unwrap();
    let throughput = |model: &str, nodes: usize| -> f64 {
        let pts: Vec<&TrainingPoint> = data
            .iter()
            .filter(|p| {
                p.model == model && p.nodes == nodes && p.batch == 64 && p.image_size == 128
            })
            .collect();
        assert!(!pts.is_empty(), "{model}@{nodes}");
        pts.iter()
            .map(|p| (p.batch * p.devices) as f64 / p.step_time())
            .sum::<f64>()
            / pts.len() as f64
    };
    let speedup = |m: &str| throughput(m, 8) / throughput(m, 1);
    let alex = speedup("alexnet");
    for other in [
        "resnet18",
        "resnet50",
        "vgg11",
        "mobilenet_v2",
        "wide_resnet50",
    ] {
        assert!(
            alex < speedup(other),
            "alexnet {alex:.2} !< {other} {:.2}",
            speedup(other)
        );
    }
}

#[test]
fn batch_scaling_curves_saturate() {
    let device = DeviceProfile::a100_80gb();
    let data = distributed_dataset(&device, &dist_config()).unwrap();
    let model = TrainingModel::fit(&data).unwrap();
    let metrics = ModelMetrics::of(&zoo::by_name("resnet18").unwrap().build(128, 1000)).unwrap();
    let curve = throughput_vs_batch(&model, &metrics, &[16, 64, 256, 1024, 4096], 1, 4);
    // Throughput rises then flattens: the gain from 1024 -> 4096 must be far
    // smaller than from 16 -> 64.
    let early_gain = curve[1].images_per_sec / curve[0].images_per_sec;
    let late_gain = curve[4].images_per_sec / curve[3].images_per_sec;
    assert!(early_gain > 1.2, "early gain {early_gain}");
    assert!(late_gain < 1.1, "late gain {late_gain}");
}
