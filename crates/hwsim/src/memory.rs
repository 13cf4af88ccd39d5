//! Device-memory footprint estimation.
//!
//! The paper's sweeps run "batch sizes from one to 2048 and image sizes from
//! 32 to 224 pixels, as long as the available memory on the target system
//! allows". This module provides the gate: a standard coarse footprint model
//! (weights, activations, and — for training — gradients, optimizer state,
//! and saved activations).

use convmeter_metrics::ModelMetrics;

const BYTES: u64 = 4;

/// Approximate device memory needed to run inference at the given batch.
///
/// Weights + the peak simultaneously-live activation set (from the graph
/// liveness analysis — residual skips and dense concatenations keep more
/// than one pair alive) + workspace.
pub fn inference_memory_bytes(metrics: &ModelMetrics, batch: usize) -> u64 {
    let b = batch as u64;
    let weights = metrics.weights * BYTES;
    let activations = metrics.peak_live_elements * b * BYTES;
    // cuDNN-style workspace: proportional to the peak activation set.
    let workspace = activations / 4;
    weights + activations + workspace
}

/// Approximate device memory needed for one training step at the given batch.
///
/// Training must keep *every* forward activation for the backward pass, plus
/// gradients and two Adam moment tensors per weight.
pub fn training_memory_bytes(metrics: &ModelMetrics, batch: usize) -> u64 {
    let b = batch as u64;
    let saved_activations: u64 = metrics
        .per_node
        .iter()
        .map(|c| c.output_elements)
        .sum::<u64>()
        * b
        * BYTES;
    // weights + grads + adam m + adam v.
    let parameter_state = 4 * metrics.weights * BYTES;
    parameter_state + saved_activations + saved_activations / 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use convmeter_models::zoo::by_name;

    fn metrics(name: &str, size: usize) -> ModelMetrics {
        ModelMetrics::of(&by_name(name).unwrap().build(size, 1000)).unwrap()
    }

    #[test]
    fn training_needs_more_than_inference() {
        let m = metrics("resnet50", 224);
        for batch in [1, 32, 256] {
            assert!(training_memory_bytes(&m, batch) > inference_memory_bytes(&m, batch));
        }
    }

    #[test]
    fn memory_grows_with_batch() {
        let m = metrics("resnet50", 224);
        assert!(training_memory_bytes(&m, 64) > 10 * training_memory_bytes(&m, 1));
    }

    #[test]
    fn resnet50_training_fits_a100_at_reasonable_batches() {
        // Real-world anchor: ResNet-50 at 224 px trains on an 80 GB A100 at
        // batch 256 but not at batch 8192.
        let m = metrics("resnet50", 224);
        let cap = crate::device::DeviceProfile::a100_80gb().memory_capacity;
        assert!(training_memory_bytes(&m, 256) < cap);
        assert!(training_memory_bytes(&m, 8192) > cap);
    }

    #[test]
    fn liveness_gate_exceeds_pair_heuristic_for_branchy_nets() {
        // DenseNet's concatenations keep many maps alive: the liveness-based
        // footprint must exceed the old biggest-pair heuristic.
        let m = metrics("densenet121", 224);
        let pair = m
            .per_node
            .iter()
            .map(|c| c.input_elements + c.output_elements)
            .max()
            .unwrap();
        assert!(m.peak_live_elements > pair);
    }

    #[test]
    fn vgg16_ooms_before_resnet18() {
        // VGG-16's huge early feature maps blow memory much sooner.
        let vgg = metrics("vgg16", 224);
        let r18 = metrics("resnet18", 224);
        assert!(training_memory_bytes(&vgg, 64) > training_memory_bytes(&r18, 64));
    }
}
