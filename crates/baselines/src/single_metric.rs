//! Single-metric linear baselines (Figure 2).
//!
//! "Previous work mainly used FLOPs to predict the runtime of ConvNets.
//! However, performance modeling solely based on FLOPs turned out to be an
//! unreliable indicator [...]. Either inputs or outputs alone are also
//! insufficient" (Section 3.1). These one-coefficient-plus-intercept models
//! make that argument quantitative.

use convmeter_linalg::{FitError, LinearRegression};
use convmeter_metrics::BatchMetrics;
use serde::{Deserialize, Serialize};

/// Which single metric drives the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Metric {
    /// Total FLOPs of all layers.
    Flops,
    /// Summed conv input tensor elements.
    Inputs,
    /// Summed conv output tensor elements.
    Outputs,
}

impl Metric {
    /// Extract the metric value at a batch scale.
    pub fn value(&self, m: &BatchMetrics) -> f64 {
        match self {
            Metric::Flops => m.flops as f64,
            Metric::Inputs => m.conv_inputs as f64,
            Metric::Outputs => m.conv_outputs as f64,
        }
    }

    /// All three variants, in Figure 2's order.
    pub fn all() -> [Metric; 3] {
        [Metric::Flops, Metric::Inputs, Metric::Outputs]
    }

    /// Display name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Metric::Flops => "flops",
            Metric::Inputs => "inputs",
            Metric::Outputs => "outputs",
        }
    }
}

/// `T = c1 * metric + c2`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SingleMetricModel {
    metric: Metric,
    reg: LinearRegression,
}

impl SingleMetricModel {
    /// Fit on (metrics, measured-seconds) pairs.
    pub fn fit(metric: Metric, data: &[(BatchMetrics, f64)]) -> Result<Self, FitError> {
        let _span = convmeter_metrics::obs::span!("baselines.fit.single_metric");
        let xs: Vec<[f64; 1]> = data.iter().map(|(m, _)| [metric.value(m)]).collect();
        let ys: Vec<f64> = data.iter().map(|(_, t)| *t).collect();
        let reg = LinearRegression::new().fit(&xs, &ys)?;
        Ok(Self { metric, reg })
    }

    /// Predict the runtime for batch-scaled metrics.
    pub fn predict(&self, m: &BatchMetrics) -> f64 {
        self.reg.predict(&[self.metric.value(m)])
    }

    /// The metric this baseline uses.
    pub fn metric(&self) -> Metric {
        self.metric
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use convmeter_hwsim::{DeviceProfile, SweepConfig};
    use convmeter_linalg::stats::mape;
    use convmeter_metrics::ModelMetrics;
    use convmeter_models::zoo;

    fn dataset() -> Vec<(BatchMetrics, f64)> {
        let device = DeviceProfile::a100_80gb();
        let mut cfg = SweepConfig::quick();
        cfg.models = vec![
            "resnet18".into(),
            "mobilenet_v2".into(),
            "vgg11".into(),
            "densenet121".into(),
            "squeezenet1_0".into(),
        ];
        cfg.batch_sizes = vec![1, 4, 16, 64, 256];
        let sweep = convmeter_hwsim::inference_sweep(&device, &cfg).unwrap();
        sweep
            .into_iter()
            .map(|s| {
                let m = ModelMetrics::of(
                    &zoo::by_name(s.model.as_str())
                        .unwrap()
                        .build(s.image_size, 1000),
                )
                .unwrap();
                (m.at_batch(s.batch), s.time_s)
            })
            .collect()
    }

    #[test]
    fn each_metric_fits() {
        let data = dataset();
        for metric in Metric::all() {
            let model = SingleMetricModel::fit(metric, &data).unwrap();
            assert_eq!(model.metric(), metric);
            let (m, t) = &data[data.len() / 2];
            let pred = model.predict(m);
            assert!(pred.is_finite());
            assert!(pred.abs() < 100.0 * t.max(1e-6));
        }
    }

    #[test]
    fn combined_beats_every_single_metric() {
        // The headline of Figure 2: (F, I, O) combined is more accurate
        // than any single metric.
        let data = dataset();
        let meas: Vec<f64> = data.iter().map(|(_, t)| *t).collect();

        let combined_xs: Vec<Vec<f64>> = data
            .iter()
            .map(|(m, _)| vec![m.flops as f64, m.conv_inputs as f64, m.conv_outputs as f64])
            .collect();
        let combined = convmeter_linalg::LinearRegression::new()
            .with_ridge(1e-6)
            .fit(&combined_xs, &meas)
            .unwrap();
        let combined_mape = mape(&combined.predict_batch(&combined_xs), &meas);

        for metric in Metric::all() {
            let model = SingleMetricModel::fit(metric, &data).unwrap();
            let preds: Vec<f64> = data.iter().map(|(m, _)| model.predict(m)).collect();
            let single_mape = mape(&preds, &meas);
            assert!(
                combined_mape <= single_mape * 1.001,
                "{}: combined {combined_mape:.3} vs single {single_mape:.3}",
                metric.name()
            );
        }
    }

    #[test]
    fn metric_names_distinct() {
        let names: Vec<_> = Metric::all().iter().map(super::Metric::name).collect();
        assert_eq!(names, ["flops", "inputs", "outputs"]);
    }
}
