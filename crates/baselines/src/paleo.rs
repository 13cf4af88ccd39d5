//! A PALEO-style analytic baseline (Qi, Sparks & Talwalkar, ICLR 2017).
//!
//! PALEO decomposes each layer's runtime into reading inputs, computing, and
//! writing outputs, each divided by a nominal device rate:
//!
//! ```text
//! T = Σ_layers  bytes_in / B  +  flops / C  +  bytes_out / B
//! ```
//!
//! Unlike ConvMeter it has no free mixing between the terms — the same two
//! rates (bandwidth `B`, compute `C`) serve every layer — which is exactly
//! the rigidity the paper criticises ("it estimates the runtime of each
//! phase by dividing the load by the relative performance of the device").
//! We fit `1/B` and `1/C` by least squares, which is strictly *more*
//! generous than PALEO's spec-sheet rates.

use convmeter_linalg::{FitError, LinearRegression};
use convmeter_metrics::ModelMetrics;
use serde::{Deserialize, Serialize};

/// Fitted PALEO-style model: two device rates, no intercept freedom beyond
/// a fixed per-invocation overhead term.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PaleoModel {
    reg: LinearRegression,
}

/// Per-model aggregate traffic (bytes at batch 1) and FLOPs: PALEO's two
/// load axes.
fn loads(metrics: &ModelMetrics, batch: usize) -> [f64; 2] {
    let b = batch as f64;
    let mut bytes = 0.0;
    let mut flops = 0.0;
    for c in &metrics.per_node {
        if c.is_view {
            continue;
        }
        // Input + output traffic scales with batch; weights are read once.
        bytes +=
            ((c.input_elements + c.output_elements) as f64 * b + c.param_elements as f64) * 4.0;
        flops += c.flops as f64 * b;
    }
    [bytes, flops]
}

impl PaleoModel {
    /// Fit `1/B` and `1/C` (plus a constant overhead) on
    /// (metrics, batch, measured-seconds) triples.
    pub fn fit(data: &[(&ModelMetrics, usize, f64)]) -> Result<Self, FitError> {
        let _span = convmeter_metrics::obs::span!("baselines.fit.paleo");
        let xs: Vec<[f64; 2]> = data.iter().map(|(m, b, _)| loads(m, *b)).collect();
        let ys: Vec<f64> = data.iter().map(|(_, _, t)| *t).collect();
        let reg = LinearRegression::new().with_ridge(1e-9).fit(&xs, &ys)?;
        Ok(Self { reg })
    }

    /// PALEO as published: *nominal* device rates straight from the spec
    /// sheet ("dividing the load by the relative performance of the
    /// device"), no fitting, no overhead term.
    pub fn from_spec_rates(bandwidth_bytes_per_s: f64, flops_per_s: f64) -> Self {
        assert!(bandwidth_bytes_per_s > 0.0 && flops_per_s > 0.0);
        // Encode the rates as a pre-solved regression: coefficients are the
        // inverse rates, intercept zero.
        let xs = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]];
        let ys = vec![
            1.0 / bandwidth_bytes_per_s,
            1.0 / flops_per_s,
            1.0 / bandwidth_bytes_per_s + 1.0 / flops_per_s,
        ];
        let reg = LinearRegression::new()
            .with_intercept(false)
            .fit(&xs, &ys)
            // analyzer:allow(CA0004, reason = "2x2 Vandermonde system with distinct abscissae is always solvable")
            .expect("exact 2x2 system");
        Self { reg }
    }

    /// Predict inference time for a model at a batch size.
    pub fn predict(&self, metrics: &ModelMetrics, batch: usize) -> f64 {
        self.reg.predict(&loads(metrics, batch))
    }

    /// The implied device rates `(bytes/s, flop/s)` from the fitted inverse
    /// rates; `None` if a coefficient came out non-positive.
    pub fn implied_rates(&self) -> (Option<f64>, Option<f64>) {
        let c = self.reg.coefficients();
        let inv = |x: f64| if x > 0.0 { Some(1.0 / x) } else { None };
        (inv(c[0]), inv(c[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use convmeter_hwsim::{DeviceProfile, SweepConfig};
    use convmeter_linalg::stats::mape;
    use convmeter_models::zoo;
    use std::collections::HashMap;

    type Rows = Vec<(String, usize, usize, f64)>;
    type MetricsMap = HashMap<(String, usize), ModelMetrics>;

    fn dataset() -> (Rows, MetricsMap) {
        let device = DeviceProfile::a100_80gb();
        let mut cfg = SweepConfig::quick();
        cfg.models = vec![
            "resnet18".into(),
            "mobilenet_v2".into(),
            "vgg11".into(),
            "densenet121".into(),
        ];
        cfg.batch_sizes = vec![1, 4, 16, 64, 256];
        let sweep = convmeter_hwsim::inference_sweep(&device, &cfg).unwrap();
        let mut metrics = HashMap::new();
        let mut rows = Vec::new();
        for s in sweep {
            metrics
                .entry((s.model.as_str().to_string(), s.image_size))
                .or_insert_with(|| {
                    ModelMetrics::of(
                        &zoo::by_name(s.model.as_str())
                            .unwrap()
                            .build(s.image_size, 1000),
                    )
                    .unwrap()
                });
            rows.push((
                s.model.as_str().to_string(),
                s.image_size,
                s.batch,
                s.time_s,
            ));
        }
        (rows, metrics)
    }

    #[test]
    fn fits_and_rates_are_physical() {
        let (rows, metrics) = dataset();
        let data: Vec<(&ModelMetrics, usize, f64)> = rows
            .iter()
            .map(|(m, i, b, t)| (&metrics[&(m.clone(), *i)], *b, *t))
            .collect();
        let model = PaleoModel::fit(&data).unwrap();
        let (bw, fl) = model.implied_rates();
        // The fitted rates should be within an order of magnitude of the
        // simulated device (2.0e12 B/s, 19.5e12 FLOP/s at ~60 % efficiency).
        let bw = bw.expect("bandwidth rate positive");
        let fl = fl.expect("compute rate positive");
        assert!(bw > 1e11 && bw < 1e13, "bandwidth {bw:.3e}");
        assert!(fl > 1e12 && fl < 1e14, "compute {fl:.3e}");
    }

    #[test]
    fn convmeter_beats_spec_rate_paleo() {
        // The paper's Related Work claim targets PALEO as published:
        // spec-sheet rates, no calibration. ConvMeter's fitted mix must
        // beat it comfortably.
        let (rows, metrics) = dataset();
        let data: Vec<(&ModelMetrics, usize, f64)> = rows
            .iter()
            .map(|(m, i, b, t)| (&metrics[&(m.clone(), *i)], *b, *t))
            .collect();
        let meas: Vec<f64> = rows.iter().map(|r| r.3).collect();

        // A100 spec-sheet numbers: 2.0 TB/s, 19.5 TFLOP/s.
        let paleo = PaleoModel::from_spec_rates(2.0e12, 19.5e12);
        let paleo_preds: Vec<f64> = data.iter().map(|(m, b, _)| paleo.predict(m, *b)).collect();

        let xs: Vec<Vec<f64>> = data
            .iter()
            .map(|(m, b, _)| {
                let bm = m.at_batch(*b);
                vec![
                    bm.flops as f64,
                    bm.conv_inputs as f64,
                    bm.conv_outputs as f64,
                ]
            })
            .collect();
        let cm = convmeter_linalg::LinearRegression::new()
            .with_ridge(1e-6)
            .fit(&xs, &meas)
            .unwrap();
        let cm_preds = cm.predict_batch(&xs);

        let (cm_mape, paleo_mape) = (mape(&cm_preds, &meas), mape(&paleo_preds, &meas));
        assert!(
            cm_mape * 1.5 < paleo_mape,
            "convmeter {cm_mape:.3} vs spec-rate paleo {paleo_mape:.3}"
        );
    }

    #[test]
    fn fitted_paleo_is_competitive_but_not_required_to_lose() {
        // Calibrating PALEO's two rates by regression (far more generous
        // than the original method) makes it competitive on the simulator.
        // We only assert it stays within the same accuracy regime: the
        // paper's criticism concerns the uncalibrated original.
        let (rows, metrics) = dataset();
        let data: Vec<(&ModelMetrics, usize, f64)> = rows
            .iter()
            .map(|(m, i, b, t)| (&metrics[&(m.clone(), *i)], *b, *t))
            .collect();
        let meas: Vec<f64> = rows.iter().map(|r| r.3).collect();
        let paleo = PaleoModel::fit(&data).unwrap();
        let preds: Vec<f64> = data.iter().map(|(m, b, _)| paleo.predict(m, *b)).collect();
        assert!(mape(&preds, &meas) < 0.5);
    }
}
