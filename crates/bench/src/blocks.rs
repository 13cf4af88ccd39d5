//! The Table 2 block registry and block-level benchmark dataset.
//!
//! Table 2 of the paper evaluates block-wise prediction on nine blocks drawn
//! from different ConvNets. The registry below maps each Table 2 row to the
//! registered [`convmeter_graph::BlockSpan`] in our model zoo.

use convmeter::dataset::InferencePoint;
use convmeter_graph::Graph;
use convmeter_hwsim::{expected_inference_time, DeviceProfile, NoiseModel};
use convmeter_metrics::{ModelId, ModelMetrics};
use convmeter_models::zoo;

/// One Table 2 entry: (block span name, source model).
pub const TABLE2_BLOCKS: &[(&str, &str)] = &[
    ("Bottleneck1", "resnext50_32x4d"),
    ("Bottleneck4", "resnet50"),
    ("Conv2d-3x3", "inception_v3"),
    ("BasicBlock7", "resnet18"),
    ("InvertedResidual2", "mobilenet_v3_large"),
    ("ResBottleneckBlock3", "regnet_x_8gf"),
    ("Bottleneck9", "wide_resnet50"),
    ("MBConv2", "efficientnet_b0"),
    ("InvertedResidual3", "mobilenet_v2"),
];

/// Extract a named block from a model built at the given image size.
///
/// # Panics
/// Panics if the model or block does not exist.
pub fn extract(block: &str, model: &str, image_size: usize) -> Graph {
    // analyzer:allow(CA0007, reason = "model names come from the static TABLE2_BLOCKS registry; a miss is a driver bug and the abort is documented under # Panics")
    let spec = zoo::by_name(model).unwrap_or_else(|| panic!("unknown model {model}"));
    let graph = spec.build(image_size, 1000);
    let span = graph
        .blocks()
        .iter()
        .find(|s| s.name == block)
        // analyzer:allow(CA0007, reason = "block names come from the static TABLE2_BLOCKS registry; a miss is a driver bug and the abort is documented under # Panics")
        .unwrap_or_else(|| panic!("block {block} not found in {model}"));
    let mut extracted = graph
        .extract_block(span)
        // analyzer:allow(CA0007, reason = "every Table 2 block is cut on a single-tensor boundary by construction; all_table2_blocks_extract exercises every row")
        .expect("table-2 blocks extract cleanly");
    extracted.set_name(format!("{model}/{block}"));
    extracted
}

/// Generate the block-level benchmark dataset: every Table 2 block,
/// "measured" on the device across parent image sizes and batch sizes.
pub fn block_dataset(
    device: &DeviceProfile,
    image_sizes: &[usize],
    batch_sizes: &[usize],
    seed: u64,
) -> Vec<InferencePoint> {
    let mut out = Vec::new();
    for &(block, model) in TABLE2_BLOCKS {
        // analyzer:allow(CA0007, reason = "model names come from the static TABLE2_BLOCKS registry; a miss is a driver bug")
        let min = zoo::by_name(model).unwrap().min_image_size;
        for &image in image_sizes.iter().filter(|&&s| s >= min) {
            let graph = extract(block, model, image);
            // analyzer:allow(CA0007, reason = "extracted Table 2 blocks always pass metric validation; block_dataset_covers_all_blocks exercises every row")
            let metrics = ModelMetrics::of(&graph).expect("blocks validate");
            for &batch in batch_sizes {
                let mut noise = NoiseModel::new(
                    seed ^ (image as u64) << 20 ^ (batch as u64) << 4 ^ block.len() as u64,
                    device.noise_sigma,
                );
                let measured = noise.jitter(expected_inference_time(device, &metrics, batch));
                out.push(InferencePoint {
                    model: ModelId::intern(block),
                    image_size: image,
                    batch,
                    metrics: metrics.at_batch(batch),
                    measured,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_table2_blocks_extract() {
        for &(block, model) in TABLE2_BLOCKS {
            let min = zoo::by_name(model).unwrap().min_image_size.max(128);
            let g = extract(block, model, min);
            g.infer_shapes()
                .unwrap_or_else(|e| panic!("{model}/{block}: {e}"));
            assert!(g.conv_layer_count() >= 1, "{model}/{block} has no convs");
        }
    }

    #[test]
    fn block_dataset_covers_all_blocks() {
        let d = DeviceProfile::a100_80gb();
        let data = block_dataset(&d, &[128], &[1, 32], 1);
        assert_eq!(data.len(), TABLE2_BLOCKS.len() * 2);
        let names: std::collections::BTreeSet<_> = data.iter().map(|p| p.model).collect();
        assert_eq!(names.len(), TABLE2_BLOCKS.len());
        assert!(data.iter().all(|p| p.measured > 0.0));
    }
}
