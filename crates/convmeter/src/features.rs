//! Feature-vector construction: the bridge between static graph metrics and
//! the regression models.
//!
//! Every feature row is a fixed-size `f64` array, so building one never
//! allocates; the constructors here fix the column order once so that
//! fitting and prediction can never disagree.

use convmeter_metrics::{BatchMetrics, ModelMetrics};

/// Forward/backward-pass features (Eq. 2): `[FLOPs, Inputs, Outputs]` at the
/// given batch scale. The intercept `c4` is handled by the regression.
///
/// The I/O columns generalise the paper's conv-only sums to "dominant
/// compute layers": convolutions for ConvNets plus token ops (attention and
/// per-token linears) for transformers. For pure ConvNets the token sums
/// are zero, so this is exactly the paper's definition there.
pub fn forward_features(m: &BatchMetrics) -> [f64; 3] {
    [
        m.flops as f64,
        (m.conv_inputs + m.token_inputs) as f64,
        (m.conv_outputs + m.token_outputs) as f64,
    ]
}

/// Gradient-update features for a single device: `[Layers]`.
pub fn grad_features_single(m: &BatchMetrics) -> [f64; 1] {
    [m.trainable_layers as f64]
}

/// Gradient-update features across nodes: `[Layers, Weights, Nodes]`.
pub fn grad_features_multi(m: &BatchMetrics, nodes: usize) -> [f64; 3] {
    [m.trainable_layers as f64, m.weights as f64, nodes as f64]
}

/// Fused backward+gradient features (7 coefficients with the intercept):
/// `[FLOPs, Inputs, Outputs, Layers, Weights, Nodes]`.
pub fn bwd_grad_features(m: &BatchMetrics, nodes: usize) -> [f64; 6] {
    [
        m.flops as f64,
        (m.conv_inputs + m.token_inputs) as f64,
        (m.conv_outputs + m.token_outputs) as f64,
        m.trainable_layers as f64,
        m.weights as f64,
        nodes as f64,
    ]
}

/// Scale model metrics to a batch and build forward features in one step.
pub fn forward_features_at(metrics: &ModelMetrics, batch: usize) -> [f64; 3] {
    forward_features(&metrics.at_batch(batch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use convmeter_metrics::ModelMetrics;
    use convmeter_models::zoo::by_name;

    fn metrics() -> ModelMetrics {
        ModelMetrics::of(&by_name("resnet18").unwrap().build(64, 1000)).unwrap()
    }

    #[test]
    fn forward_features_scale_with_batch() {
        let m = metrics();
        let f1 = forward_features(&m.at_batch(1));
        let f8 = forward_features(&m.at_batch(8));
        for (a, b) in f1.iter().zip(&f8) {
            assert!((b / a - 8.0).abs() < 1e-12);
        }
        assert_eq!(f1.len(), 3);
    }

    #[test]
    fn grad_features_batch_invariant() {
        let m = metrics();
        assert_eq!(
            grad_features_single(&m.at_batch(1)),
            grad_features_single(&m.at_batch(64))
        );
        assert_eq!(grad_features_multi(&m.at_batch(1), 4).len(), 3);
        assert_eq!(grad_features_multi(&m.at_batch(1), 4)[2], 4.0);
    }

    #[test]
    fn combined_features_are_concatenation() {
        let m = metrics();
        let bm = m.at_batch(16);
        let combined = bwd_grad_features(&bm, 2);
        let fwd = forward_features(&bm);
        let grad = grad_features_multi(&bm, 2);
        assert_eq!(combined[..3], fwd[..]);
        assert_eq!(combined[3..], grad[..]);
    }

    #[test]
    fn forward_features_at_matches_manual() {
        let m = metrics();
        assert_eq!(
            forward_features_at(&m, 32),
            forward_features(&m.at_batch(32))
        );
    }
}
