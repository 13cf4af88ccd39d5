//! Cross-crate integration: the full inference pipeline — model zoo ->
//! metric extraction -> simulated benchmarking -> regression -> held-out
//! prediction — with the accuracy bars the paper's headline claims set.

use convmeter::prelude::*;
use convmeter_baselines::{Metric, SingleMetricModel};
use convmeter_linalg::stats::mape;

fn mid_config() -> SweepConfig {
    let mut cfg = SweepConfig::paper_gpu();
    cfg.models = vec![
        "alexnet".into(),
        "resnet18".into(),
        "resnet50".into(),
        "vgg11".into(),
        "mobilenet_v2".into(),
        "densenet121".into(),
        "efficientnet_b0".into(),
        "squeezenet1_0".into(),
    ];
    cfg.image_sizes = vec![64, 128, 224];
    cfg.batch_sizes = vec![1, 4, 16, 64, 256];
    cfg
}

#[test]
fn held_out_inference_accuracy_meets_paper_bar() {
    let device = DeviceProfile::a100_80gb();
    let data = inference_dataset(&device, &mid_config()).unwrap();
    let (reports, scatter, overall) = leave_one_model_out_inference(&data).unwrap();
    assert_eq!(scatter.len(), data.len());
    // Paper: R2 0.96 on GPU; we require >= 0.9 on this reduced sweep.
    assert!(overall.r2 > 0.9, "overall {overall}");
    // Average per-model error "less than 20 %" is the abstract's claim for
    // inference; allow headroom for the reduced sweep.
    let mean_mape: f64 = reports.iter().map(|r| r.report.mape).sum::<f64>() / reports.len() as f64;
    assert!(mean_mape < 0.45, "mean per-model MAPE {mean_mape}");
}

#[test]
fn cpu_and_gpu_coefficients_differ_but_pipeline_is_shared() {
    let cpu = DeviceProfile::xeon_gold_5318y_core();
    let gpu = DeviceProfile::a100_80gb();
    let mut cfg = mid_config();
    cfg.max_point_time = Some(5.0);
    let cpu_model = ForwardModel::fit(&inference_dataset(&cpu, &cfg).unwrap()).unwrap();
    let gpu_model = ForwardModel::fit(&inference_dataset(&gpu, &mid_config()).unwrap()).unwrap();
    // The same ConvNet must predict dramatically slower on one CPU core.
    let metrics = ModelMetrics::of(
        &convmeter_models::zoo::by_name("resnet50")
            .unwrap()
            .build(224, 1000),
    )
    .unwrap();
    let cpu_t = cpu_model.predict_metrics(&metrics, 16);
    let gpu_t = gpu_model.predict_metrics(&metrics, 16);
    assert!(cpu_t > 20.0 * gpu_t, "cpu {cpu_t} vs gpu {gpu_t}");
}

#[test]
fn combined_metrics_beat_single_metrics_out_of_sample() {
    // Figure 2's claim, checked on *held-out* models rather than in-sample.
    let device = DeviceProfile::a100_80gb();
    let data = inference_dataset(&device, &mid_config()).unwrap();
    let groups: Vec<&str> = data.iter().map(|p| p.model.as_str()).collect();
    let mut single_errs = vec![Vec::new(); 3];
    let mut combined_errs = Vec::new();
    for (_, split) in convmeter_linalg::cv::LeaveOneGroupOut::splits(&groups) {
        let train: Vec<InferencePoint> = split.train.iter().map(|&i| data[i]).collect();
        let test: Vec<&InferencePoint> = split.test.iter().map(|&i| &data[i]).collect();
        let meas: Vec<f64> = test.iter().map(|p| p.measured).collect();
        let combined = ForwardModel::fit(&train).unwrap();
        let preds: Vec<f64> = test.iter().map(|p| combined.predict(&p.metrics)).collect();
        combined_errs.push(mape(&preds, &meas));
        let pairs: Vec<_> = train.iter().map(|p| (p.metrics, p.measured)).collect();
        for (i, metric) in Metric::all().into_iter().enumerate() {
            let m = SingleMetricModel::fit(metric, &pairs).unwrap();
            let preds: Vec<f64> = test.iter().map(|p| m.predict(&p.metrics)).collect();
            single_errs[i].push(mape(&preds, &meas));
        }
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let combined_avg = avg(&combined_errs);
    for (i, metric) in Metric::all().into_iter().enumerate() {
        assert!(
            combined_avg < avg(&single_errs[i]),
            "combined {combined_avg:.3} !< {} {:.3}",
            metric.name(),
            avg(&single_errs[i])
        );
    }
}

#[test]
fn pipeline_is_deterministic() {
    let device = DeviceProfile::a100_80gb();
    let a = inference_dataset(&device, &mid_config()).unwrap();
    let b = inference_dataset(&device, &mid_config()).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.measured, y.measured);
    }
    let ma = ForwardModel::fit(&a).unwrap();
    let mb = ForwardModel::fit(&b).unwrap();
    assert_eq!(ma.coefficients(), mb.coefficients());
    assert_eq!(ma.intercept(), mb.intercept());
}

#[test]
fn block_predictions_from_whole_model_pipeline() {
    // Blocks extracted from zoo models run through the same metric and
    // simulation machinery as whole models.
    let device = DeviceProfile::a100_80gb();
    let blocks = convmeter_bench::blocks::block_dataset(&device, &[128], &[1, 16, 64], 3);
    assert!(!blocks.is_empty());
    let (reports, _, overall) = leave_one_model_out_inference(&blocks).unwrap();
    assert_eq!(reports.len(), convmeter_bench::blocks::TABLE2_BLOCKS.len());
    assert!(overall.r2 > 0.9, "blocks overall {overall}");
}
