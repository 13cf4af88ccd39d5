//! Multi-node benchmark sweep: the distributed-training dataset behind
//! Table 3 (right half), Figure 7, and Figure 8 of the paper.
//!
//! Pairs come from the process-global compile cache shared with
//! `convmeter-hwsim` (one graph build + metric extraction per
//! `(model, image)` per process); point evaluation fans out over the
//! ordered worker pool when `convmeter_hwsim::set_sweep_jobs` raises the
//! worker count. Per-point seeding keeps results identical at any count.

use std::sync::Arc;

use crate::cluster::ClusterConfig;
use crate::step::StepModel;
use convmeter_hwsim::{
    compile, training_memory_bytes, DeviceProfile, FaultModel, FaultProfile, NoiseModel,
    SweepError, TrainingPhases, FAULT_SALT,
};
use convmeter_metrics::{CompiledModel, ModelId};
use convmeter_models::zoo;
use convmeter_pool as pool;
use serde::{Deserialize, Serialize};

/// One measured distributed-training data point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistTrainingSample {
    /// Model name (interned; serialises as the plain string).
    pub model: ModelId,
    /// Square image size in pixels.
    pub image_size: usize,
    /// Per-device batch size.
    pub batch: usize,
    /// Number of nodes used.
    pub nodes: usize,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// Measured phase times.
    pub phases: TrainingPhases,
}

impl DistTrainingSample {
    /// Total devices for this sample.
    pub fn total_devices(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// Training throughput in images per second (global batch / step time).
    pub fn throughput(&self) -> f64 {
        (self.batch * self.total_devices()) as f64 / self.phases.total()
    }
}

/// Configuration of a distributed-training sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistSweepConfig {
    /// Model names to include.
    pub models: Vec<String>,
    /// Square image sizes.
    pub image_sizes: Vec<usize>,
    /// Per-device batch sizes.
    pub batch_sizes: Vec<usize>,
    /// Node counts to sweep (each node contributes 4 GPUs by default).
    pub node_counts: Vec<usize>,
    /// Master noise seed.
    pub seed: u64,
}

impl DistSweepConfig {
    /// The paper's multi-node sweep: all models, several image/batch sizes,
    /// 1–16 nodes.
    pub fn paper() -> Self {
        DistSweepConfig {
            models: zoo::model_names()
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            image_sizes: vec![64, 128, 224],
            batch_sizes: vec![8, 32, 64, 128, 256],
            node_counts: vec![1, 2, 4, 8, 16],
            seed: 0xD157,
        }
    }

    /// Small sweep for tests.
    pub fn quick() -> Self {
        DistSweepConfig {
            models: vec!["resnet18".into(), "alexnet".into()],
            image_sizes: vec![128],
            batch_sizes: vec![32, 64],
            node_counts: vec![1, 2, 4],
            seed: 3,
        }
    }

    /// A stable content fingerprint of this sweep configuration, for
    /// content-addressed dataset caches. Hashes the canonical JSON
    /// serialisation: changing any field yields a different digest.
    pub fn fingerprint(&self) -> String {
        // Exhaustiveness witness: every field reaches the digest through the
        // canonical serialisation below. Adding a field without deciding its
        // hashing story fails to compile here (and trips analyzer CA0006).
        let Self {
            models: _,
            image_sizes: _,
            batch_sizes: _,
            node_counts: _,
            seed: _,
        } = self;
        // analyzer:allow(CA0004, reason = "plain data struct; canonical JSON serialisation cannot fail")
        let json = serde_json::to_string(self).expect("sweep configs serialise");
        convmeter_graph::stable_digest(&json)
    }

    fn point_seed(&self, model: &str, image: usize, batch: usize, nodes: usize) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        for b in model
            .as_bytes()
            .iter()
            .copied()
            .chain(image.to_le_bytes())
            .chain(batch.to_le_bytes())
            .chain(nodes.to_le_bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

/// Compile each supported (model, image) pair in config order via the
/// shared cache.
fn compiled_grid(config: &DistSweepConfig) -> Result<Vec<Arc<CompiledModel>>, SweepError> {
    let mut grid = Vec::with_capacity(config.models.len() * config.image_sizes.len());
    for name in &config.models {
        for &size in &config.image_sizes {
            if let Some(cm) = compile::compiled(name, size)? {
                grid.push(cm);
            }
        }
    }
    Ok(grid)
}

/// All (batch, nodes) points for one compiled pair, from its cached
/// batch-1 metrics. The step's per-pair terms are computed once, its
/// kernel times once per batch, and only the cluster-dependent finish once
/// per node count.
fn dist_points(
    device: &DeviceProfile,
    config: &DistSweepConfig,
    cm: &CompiledModel,
    faults: Option<&FaultProfile>,
) -> Vec<DistTrainingSample> {
    let clusters: Vec<ClusterConfig> = config
        .node_counts
        .iter()
        .map(|&nodes| ClusterConfig::hpc_cluster(nodes))
        .collect();
    let Some(fusion_buffer_bytes) = clusters.first().map(|c| c.fusion_buffer_bytes) else {
        return Vec::new();
    };
    let model = StepModel::new(device, &cm.metrics, fusion_buffer_bytes);
    let mut out = Vec::with_capacity(config.batch_sizes.len() * clusters.len());
    for &batch in &config.batch_sizes {
        if training_memory_bytes(&cm.metrics, batch) > device.memory_capacity {
            continue;
        }
        let step = model.at_batch(batch);
        for cluster in &clusters {
            let seed = config.point_seed(cm.id.as_str(), cm.image_size, batch, cluster.nodes);
            let mut noise = NoiseModel::new(seed, device.noise_sigma);
            let phases = match faults {
                None => step.measure(cluster, &mut noise),
                Some(profile) => {
                    let mut fault = FaultModel::new(profile, seed ^ FAULT_SALT);
                    step.measure_faulted(cluster, &mut noise, &mut fault)
                }
            };
            out.push(DistTrainingSample {
                model: cm.id,
                image_size: cm.image_size,
                batch,
                nodes: cluster.nodes,
                gpus_per_node: cluster.gpus_per_node,
                phases,
            });
        }
    }
    out
}

fn sweep_with(
    device: &DeviceProfile,
    config: &DistSweepConfig,
    faults: Option<&FaultProfile>,
) -> Result<Vec<DistTrainingSample>, SweepError> {
    let grid = compiled_grid(config)?;
    let per_pair = pool::run_ordered(&grid, compile::sweep_jobs(), |_, cm| {
        dist_points(device, config, cm, faults)
    })?;
    Ok(per_pair.into_iter().flatten().collect())
}

/// Run a distributed-training sweep. Configurations whose per-device
/// footprint exceeds device memory are skipped, as in the paper.
pub fn distributed_sweep(
    device: &DeviceProfile,
    config: &DistSweepConfig,
) -> Result<Vec<DistTrainingSample>, SweepError> {
    let _span = convmeter_metrics::obs::span!("distsim.sweep");
    sweep_with(device, config, None)
}

/// [`distributed_sweep`] under a fault profile. With faults off this *is*
/// [`distributed_sweep`] (byte-identical); otherwise every point draws from
/// an independent fault stream seeded by the per-point tuple XOR
/// [`FAULT_SALT`], adding node dropouts with ring re-formation, per-node
/// straggler multipliers, slowdown windows, spikes, and NaN corruption.
pub fn distributed_sweep_faulted(
    device: &DeviceProfile,
    config: &DistSweepConfig,
    faults: &FaultProfile,
) -> Result<Vec<DistTrainingSample>, SweepError> {
    if faults.is_off() {
        return distributed_sweep(device, config);
    }
    let _span = convmeter_metrics::obs::span!("distsim.sweep");
    sweep_with(device, config, Some(faults))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_covers_grid() {
        let d = DeviceProfile::a100_80gb();
        let samples = distributed_sweep(&d, &DistSweepConfig::quick()).unwrap();
        // 2 models x 1 image x 2 batches x 3 node counts.
        assert_eq!(samples.len(), 12);
        assert!(samples.iter().all(|s| s.phases.total() > 0.0));
    }

    #[test]
    fn throughput_computation() {
        let s = DistTrainingSample {
            model: ModelId::intern("x"),
            image_size: 128,
            batch: 64,
            nodes: 2,
            gpus_per_node: 4,
            phases: TrainingPhases {
                forward: 0.1,
                backward: 0.3,
                grad_update: 0.1,
            },
        };
        assert_eq!(s.total_devices(), 8);
        assert!((s.throughput() - (64.0 * 8.0) / 0.5).abs() < 1e-9);
    }

    #[test]
    fn weak_scaling_throughput_grows_sublinearly() {
        // Adding nodes at fixed per-device batch increases throughput but
        // below linearly (communication overhead) — the premise of Figure 8.
        let d = DeviceProfile::a100_80gb();
        let cfg = DistSweepConfig {
            models: vec!["resnet50".into()],
            image_sizes: vec![128],
            batch_sizes: vec![64],
            node_counts: vec![1, 4],
            seed: 1,
        };
        let samples = distributed_sweep(&d, &cfg).unwrap();
        let tp = |nodes: usize| {
            samples
                .iter()
                .find(|s| s.nodes == nodes)
                .map(DistTrainingSample::throughput)
                .unwrap()
        };
        let speedup = tp(4) / tp(1);
        assert!(speedup > 1.5, "speedup {speedup}");
        assert!(speedup < 4.0, "speedup {speedup}");
    }

    #[test]
    fn unknown_model_is_an_error_not_a_panic() {
        let d = DeviceProfile::a100_80gb();
        let mut cfg = DistSweepConfig::quick();
        cfg.models = vec!["resnet999".into()];
        let err = distributed_sweep(&d, &cfg).unwrap_err();
        assert!(matches!(err, SweepError::UnknownModel { ref name } if name == "resnet999"));
    }

    #[test]
    fn deterministic() {
        let d = DeviceProfile::a100_80gb();
        let a = distributed_sweep(&d, &DistSweepConfig::quick()).unwrap();
        let b = distributed_sweep(&d, &DistSweepConfig::quick()).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.phases, y.phases);
        }
    }
}
