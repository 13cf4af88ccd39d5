//! Figure 6: ConvMeter vs the DIPPM surrogate.
//!
//! Protocol from Section 4.1.3: fixed 128x128 images, batch sizes 16–2000,
//! A100 inference, every evaluated ConvNet unseen by both predictors.
//!
//! DIPPM is a GNN pretrained for ~500 epochs on its own corpus of
//! *generated* architectures; it is then applied to the paper's zoo without
//! refitting. The surrogate mirrors that: an MLP trained for 500 epochs on
//! measurements of 300 seeded random ConvNets
//! ([`convmeter_models::random::random_convnet`]) — never on the zoo — and
//! evaluated out-of-distribution, exactly where learned predictors lose to
//! ConvMeter's four fitted coefficients. DIPPM also could not parse
//! `squeezenet1_0`; the surrogate inherits that gap (documented, not
//! silently skipped).

use crate::report::Table;
use convmeter::prelude::*;
use convmeter_baselines::mlp::{graph_features, MlpConfig, MlpPredictor};
use convmeter_hwsim::{expected_inference_time, NoiseModel};
use convmeter_linalg::stats::{mape, nrmse};
use convmeter_models::random::random_convnet;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Per-model comparison row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Row {
    /// Model name.
    pub model: String,
    /// ConvMeter held-out MAPE.
    pub convmeter_mape: f64,
    /// ConvMeter held-out NRMSE.
    pub convmeter_nrmse: f64,
    /// DIPPM-surrogate held-out MAPE (`None` where DIPPM cannot parse the
    /// model).
    pub dippm_mape: Option<f64>,
    /// DIPPM-surrogate held-out NRMSE.
    pub dippm_nrmse: Option<f64>,
}

/// The batch grid of Section 4.1.3.
pub const FIG6_BATCHES: &[usize] = &[16, 32, 64, 128, 256, 512, 1024, 2000];

/// The model DIPPM's graph parser chokes on.
const DIPPM_UNPARSEABLE: &str = "squeezenet1_0";

/// Number of generated architectures in the surrogate's training corpus.
const SURROGATE_CORPUS: u64 = 300;

/// The corpus batch grid. Learned-predictor datasets (DIPPM's included)
/// cover the batch sizes their authors collected — small ones; the paper
/// makes the same point about Habitat being "constrained to the specific
/// batch size it was trained on". Figure 6 then evaluates up to batch 2000,
/// out of the surrogate's training support, exactly as it is out of
/// DIPPM's.
const SURROGATE_BATCHES: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// Train the DIPPM surrogate on a corpus of random generated ConvNets,
/// measured on the same device at the Figure 6 image size.
fn train_surrogate(device: &DeviceProfile) -> MlpPredictor {
    let mut rows: Vec<(Vec<f64>, f64)> = Vec::new();
    for seed in 0..SURROGATE_CORPUS {
        let graph = random_convnet(seed, 128, 1000);
        let metrics = ModelMetrics::of(&graph).expect("generated nets validate");
        let mut noise = NoiseModel::new(0xD1_99 + seed, device.noise_sigma);
        for &batch in SURROGATE_BATCHES {
            let measured = noise.jitter(expected_inference_time(device, &metrics, batch));
            rows.push((graph_features(&metrics.at_batch(batch), 128), measured));
        }
    }
    MlpPredictor::fit(&rows, &MlpConfig::default()).expect("surrogate trains")
}

/// The Section 4.1.3 evaluation grid: fixed 128 px, batch 16–2000, with the
/// paper-GPU runtime cap. This is the spec of `data` in [`fig6`].
pub fn fig6_grid_config() -> SweepConfig {
    let mut cfg = SweepConfig::paper_gpu();
    cfg.image_sizes = vec![128];
    cfg.batch_sizes = FIG6_BATCHES.to_vec();
    cfg
}

/// Run the Figure 6 comparison. `data` is the [`fig6_grid_config`]
/// evaluation sweep; `full_sweep` is the standard paper GPU sweep —
/// ConvMeter's coefficients come from the full device benchmark ("all
/// runtime predictions for a given device use the same coefficients"),
/// minus the held-out model.
pub fn fig6(data: &[InferencePoint], full_sweep: &[InferencePoint]) -> Vec<Fig6Row> {
    let device = DeviceProfile::a100_80gb();
    let surrogate = train_surrogate(&device);

    let groups: Vec<&str> = data.iter().map(|p| p.model.as_str()).collect();
    let mut rows = Vec::new();
    for (model_name, split) in convmeter_linalg::cv::LeaveOneGroupOut::splits(&groups) {
        let train: Vec<InferencePoint> = full_sweep
            .iter()
            .filter(|p| p.model != model_name)
            .copied()
            .collect();
        let test: Vec<&InferencePoint> = split.test.iter().map(|&i| &data[i]).collect();
        let meas: Vec<f64> = test.iter().map(|p| p.measured).collect();

        // ConvMeter: fitted on the other zoo models' data (Table 1 protocol).
        let cm = ForwardModel::fit(&train).expect("convmeter fit");
        let cm_preds: Vec<f64> = test.iter().map(|p| cm.predict(&p.metrics)).collect();

        // DIPPM surrogate: the pretrained corpus model, applied as-is.
        let (dippm_mape, dippm_nrmse) = if model_name == DIPPM_UNPARSEABLE {
            (None, None)
        } else {
            let preds: Vec<f64> = test
                .iter()
                .map(|p| surrogate.predict(&graph_features(&p.metrics, p.image_size)))
                .collect();
            (Some(mape(&preds, &meas)), Some(nrmse(&preds, &meas)))
        };

        rows.push(Fig6Row {
            model: model_name.to_string(),
            convmeter_mape: mape(&cm_preds, &meas),
            convmeter_nrmse: nrmse(&cm_preds, &meas),
            dippm_mape,
            dippm_nrmse,
        });
    }
    rows
}

/// Render the Figure 6 result.
pub fn render_fig6(rows: &[Fig6Row]) -> String {
    let mut t = Table::new(
        "Figure 6: ConvMeter vs DIPPM surrogate (A100, 128px, batch 16-2000, held-out)",
        &[
            "model",
            "ConvMeter MAPE",
            "DIPPM MAPE",
            "ConvMeter NRMSE",
            "DIPPM NRMSE",
        ],
    );
    let fmt_opt = |o: Option<f64>| o.map_or("n/a (unparseable)".to_string(), |v| format!("{v:.3}"));
    for r in rows {
        t.row(vec![
            r.model.clone(),
            format!("{:.3}", r.convmeter_mape),
            fmt_opt(r.dippm_mape),
            format!("{:.3}", r.convmeter_nrmse),
            fmt_opt(r.dippm_nrmse),
        ]);
    }
    let wins = rows
        .iter()
        .filter(|r| r.dippm_mape.is_some_and(|d| r.convmeter_mape < d))
        .count();
    let comparable = rows.iter().filter(|r| r.dippm_mape.is_some()).count();
    let mut out = t.render();
    let _ = writeln!(
        out,
        "\nConvMeter beats the surrogate on {wins}/{comparable} comparable models.\nPaper: ConvMeter outperforms DIPPM across all scenarios; DIPPM could not parse squeezenet1_0.\n"
    );
    out
}
