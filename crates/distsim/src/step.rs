//! Analytic timeline simulation of one distributed training step.
//!
//! Per Figure 1 of the paper, a synchronous data-parallel step is: forward
//! pass, backward pass with gradient buckets all-reduced *during* the
//! backward propagation, then the optimizer update. The measured "gradient
//! update" phase is whatever outlives the backward compute: the
//! communication tail, per-tensor coordination, and the optimizer step.
//!
//! A step is simulated in three parts, so a sweep computes each term once:
//!
//! * [`StepModel`] — per (model, image) on a device: the optimizer sum,
//!   which layers are trainable, and the fusion buckets of their gradient
//!   tensors. None of it depends on the batch or the node count.
//! * [`BatchStep`] — per batch: the forward kernel sum and every layer's
//!   backward kernel time. Eq. 1's compute terms depend on the per-device
//!   batch, not on how many nodes run it.
//! * [`BatchStep::phases`] — per cluster: straggler inflation, the
//!   backward timeline with each bucket's all-reduce, and the tail.
//!
//! [`expected_distributed_phases_with_strategy`] is those three parts
//! composed for one point; the distributed sweep and Figures 8 and 9 keep
//! the first two across their node counts and noisy repeats.

use crate::cluster::ClusterConfig;
use crate::fusion::{fuse_gradients, Bucket};
use crate::ring::all_reduce_time_with_dropout;
use crate::strategies::{sync_time, SyncStrategy};
use convmeter_hwsim::kernel::{backward_layer_time, forward_layer_time, optimizer_layer_time};
use convmeter_hwsim::{DeviceProfile, FaultModel, NoiseModel, TrainingPhases};
use convmeter_metrics::ModelMetrics;

/// Autograd bookkeeping on top of the forward kernels.
const AUTOGRAD_OVERHEAD: f64 = 1.08;

/// Expected straggler inflation for `n` synchronising devices with
/// log-normal(σ) compute jitter: E[max of n] ≈ exp(σ √(2 ln n)).
fn straggler_factor(sigma: f64, n: usize) -> f64 {
    if n <= 1 || sigma <= 0.0 {
        return 1.0;
    }
    (sigma * (2.0 * (n as f64).ln()).sqrt()).exp()
}

/// The part of a distributed step that depends only on the model, its
/// image size and the device: neither the batch nor the cluster size.
#[derive(Debug, Clone)]
pub struct StepModel<'a> {
    device: &'a DeviceProfile,
    metrics: &'a ModelMetrics,
    /// Optimizer update (local, after gradients are averaged), launch
    /// overhead included.
    optimizer: f64,
    /// Whether each layer is trainable, in backward (reverse) order.
    trainable: Vec<bool>,
    /// The fusion buffer `buckets` were cut for.
    fusion_buffer_bytes: u64,
    /// Fusion buckets over the trainable layers' gradient tensors, indexed
    /// in the order the backward pass produces them.
    buckets: Vec<Bucket>,
    /// Bytes of every gradient tensor: what a re-formed ring re-reduces
    /// after a node dropout.
    total_grad_bytes: u64,
}

impl<'a> StepModel<'a> {
    /// The batch- and cluster-independent terms of `metrics`' step on
    /// `device`, with gradient buckets cut at `fusion_buffer_bytes` (the
    /// [`ClusterConfig::fusion_buffer_bytes`] of every cluster it is
    /// finished on).
    pub fn new(
        device: &'a DeviceProfile,
        metrics: &'a ModelMetrics,
        fusion_buffer_bytes: u64,
    ) -> Self {
        let optimizer = metrics
            .per_node
            .iter()
            .map(|c| optimizer_layer_time(device, c))
            .sum::<f64>()
            + device.base_overhead;
        let trainable: Vec<bool> = metrics
            .per_node
            .iter()
            .rev()
            .map(|c| c.is_trainable)
            .collect();
        let tensor_bytes: Vec<u64> = metrics
            .per_node
            .iter()
            .rev()
            .filter(|c| c.is_trainable)
            .map(|c| c.param_elements * 4)
            .collect();
        StepModel {
            device,
            metrics,
            optimizer,
            trainable,
            fusion_buffer_bytes,
            buckets: fuse_gradients(&tensor_bytes, fusion_buffer_bytes),
            total_grad_bytes: tensor_bytes.iter().sum(),
        }
    }

    /// The kernel times at per-device batch `batch`.
    pub fn at_batch(&self, batch: usize) -> BatchStep<'_, 'a> {
        let (device, per_node) = (self.device, &self.metrics.per_node);
        BatchStep {
            model: self,
            forward: per_node
                .iter()
                .map(|c| forward_layer_time(device, c, batch))
                .sum(),
            backward: per_node
                .iter()
                .rev()
                .map(|c| backward_layer_time(device, c, batch))
                .collect(),
        }
    }
}

/// The part of a distributed step that depends on the per-device batch but
/// not on the cluster: the kernel times, before straggler inflation.
#[derive(Debug, Clone)]
pub struct BatchStep<'m, 'a> {
    model: &'m StepModel<'a>,
    /// Sum of the forward kernel times.
    forward: f64,
    /// Each layer's backward kernel time, in backward (reverse) order.
    backward: Vec<f64>,
}

impl BatchStep<'_, '_> {
    /// Noise-free expected phase times of the step on every device of
    /// `cluster`, with gradients synchronised by `strategy`.
    ///
    /// # Panics
    /// Panics if a multi-device `cluster` uses another fusion buffer than
    /// the [`StepModel`] was bucketed for.
    pub fn phases(&self, cluster: &ClusterConfig, strategy: SyncStrategy) -> TrainingPhases {
        let model = self.model;
        let device = model.device;
        let n = cluster.total_devices();
        let straggle = straggler_factor(cluster.straggler_sigma, n);

        let forward = self.forward * AUTOGRAD_OVERHEAD * straggle + device.base_overhead;

        // Backward timeline in reverse layer order, recording when each
        // trainable layer's gradient tensor becomes available (only a
        // multi-device step synchronises them).
        let mut t = 0.0;
        let mut tensor_ready: Vec<f64> =
            Vec::with_capacity(if n > 1 { self.backward.len() } else { 0 });
        for (&time, &trainable) in self.backward.iter().zip(&model.trainable) {
            t += time * straggle;
            if n > 1 && trainable {
                tensor_ready.push(t);
            }
        }
        let backward = t + device.base_overhead;

        let grad_update = if n <= 1 {
            model.optimizer
        } else {
            assert_eq!(
                cluster.fusion_buffer_bytes, model.fusion_buffer_bytes,
                "the cluster's fusion buffer differs from the step model's"
            );
            // Communication stream processes fusion buckets in ready order,
            // overlapped with the remaining backward compute.
            let mut comm_free = 0.0f64;
            for bucket in &model.buckets {
                let ready = bucket
                    .tensor_indices
                    .iter()
                    .map(|&i| tensor_ready[i])
                    .fold(0.0f64, f64::max);
                let coordination = cluster.per_tensor_overhead * bucket.tensor_indices.len() as f64;
                let start = ready.max(comm_free);
                comm_free = start + sync_time(cluster, bucket.bytes, strategy) + coordination;
            }
            let comm_tail = (comm_free - t).max(0.0);
            comm_tail + model.optimizer
        };

        TrainingPhases {
            forward,
            backward,
            grad_update,
        }
    }

    /// A noisy measurement of the step on `cluster` (flat-ring sync).
    pub fn measure(&self, cluster: &ClusterConfig, noise: &mut NoiseModel) -> TrainingPhases {
        convmeter_metrics::obs::counter!("distsim.steps").inc();
        let p = self.phases(cluster, SyncStrategy::FlatRing);
        TrainingPhases {
            forward: noise.jitter(p.forward),
            backward: noise.jitter(p.backward),
            grad_update: noise.jitter(p.grad_update),
        }
    }

    /// A fault-injected measurement of the step on `cluster`. On top of
    /// [`BatchStep::measure`]'s jitter, the step may suffer:
    ///
    /// * **per-node stragglers** — the compute phases stretch by the worst
    ///   of `N` sampled per-node multipliers (synchronous data parallelism
    ///   waits for the slowest device),
    /// * **node dropout** — a node leaves mid-step; the survivors pay the
    ///   profile's re-ring cost and restart the full gradient all-reduce
    ///   over the reduced ring, all charged to the gradient-update phase,
    /// * **slowdown windows / spikes / corruption** — as in the
    ///   single-device path
    ///   ([`convmeter_hwsim::measure_training_step_faulted_from_phases`]).
    ///
    /// With the fault model's profile off this is exactly
    /// [`BatchStep::measure`].
    pub fn measure_faulted(
        &self,
        cluster: &ClusterConfig,
        noise: &mut NoiseModel,
        fault: &mut FaultModel,
    ) -> TrainingPhases {
        if fault.profile().is_off() {
            return self.measure(cluster, noise);
        }
        convmeter_metrics::obs::counter!("distsim.steps").inc();
        let slowdown = fault.compute_slowdown();
        let straggle = fault.node_straggler_max(cluster.total_devices());
        let dropped = fault.node_dropout(cluster.nodes);
        let p = self.phases(cluster, SyncStrategy::FlatRing);
        let mut grad_update = p.grad_update;
        if dropped > 0 {
            // The collective restarts from scratch on the re-formed ring:
            // every trainable tensor is re-reduced in one (unoverlapped)
            // pass.
            grad_update += all_reduce_time_with_dropout(
                cluster,
                self.model.total_grad_bytes,
                dropped,
                fault.profile().reringing_cost,
            );
        }
        let mut phases = TrainingPhases {
            forward: noise.jitter(p.forward * slowdown * straggle),
            backward: noise.jitter(p.backward * slowdown * straggle),
            grad_update: noise.jitter(grad_update),
        };
        let spike = fault.spike_factor();
        phases.forward *= spike;
        phases.backward *= spike;
        phases.grad_update *= spike;
        if fault.is_corrupt() {
            phases.forward = f64::NAN;
            phases.backward = f64::NAN;
            phases.grad_update = f64::NAN;
        }
        phases
    }
}

/// Noise-free expected phase times of one training step on every device of
/// `cluster`, with per-device batch `batch`.
///
/// For a single device this degenerates to
/// [`convmeter_hwsim::expected_training_phases`] (plus nothing), keeping the
/// two crates consistent.
pub fn expected_distributed_phases(
    device: &DeviceProfile,
    cluster: &ClusterConfig,
    metrics: &ModelMetrics,
    batch: usize,
) -> TrainingPhases {
    expected_distributed_phases_with_strategy(
        device,
        cluster,
        metrics,
        batch,
        SyncStrategy::FlatRing,
    )
}

/// [`expected_distributed_phases`] with an explicit gradient-synchronisation
/// strategy. The default everywhere else is the flat ring (the NCCL
/// behaviour the paper measures); hierarchical and parameter-server modes
/// support the strategy-comparison extension experiments.
pub fn expected_distributed_phases_with_strategy(
    device: &DeviceProfile,
    cluster: &ClusterConfig,
    metrics: &ModelMetrics,
    batch: usize,
    strategy: SyncStrategy,
) -> TrainingPhases {
    StepModel::new(device, metrics, cluster.fusion_buffer_bytes)
        .at_batch(batch)
        .phases(cluster, strategy)
}

/// The step before it was split into per-model, per-batch and per-cluster
/// parts: every point re-evaluated every kernel time. Kept as the oracle
/// the split step must match bit for bit.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn expected(
        device: &DeviceProfile,
        cluster: &ClusterConfig,
        metrics: &ModelMetrics,
        batch: usize,
        strategy: SyncStrategy,
    ) -> TrainingPhases {
        const AUTOGRAD_OVERHEAD: f64 = 1.08;
        let n = cluster.total_devices();
        let straggle = straggler_factor(cluster.straggler_sigma, n);
        let forward = metrics
            .per_node
            .iter()
            .map(|c| forward_layer_time(device, c, batch))
            .sum::<f64>()
            * AUTOGRAD_OVERHEAD
            * straggle
            + device.base_overhead;
        let mut t = 0.0;
        let mut tensor_bytes: Vec<u64> = Vec::with_capacity(metrics.per_node.len());
        let mut tensor_ready: Vec<f64> = Vec::with_capacity(metrics.per_node.len());
        for cost in metrics.per_node.iter().rev() {
            t += backward_layer_time(device, cost, batch) * straggle;
            if cost.is_trainable {
                tensor_bytes.push(cost.param_elements * 4);
                tensor_ready.push(t);
            }
        }
        let backward = t + device.base_overhead;
        let optimizer: f64 = metrics
            .per_node
            .iter()
            .map(|c| optimizer_layer_time(device, c))
            .sum::<f64>()
            + device.base_overhead;
        let grad_update = if n <= 1 {
            optimizer
        } else {
            let buckets = fuse_gradients(&tensor_bytes, cluster.fusion_buffer_bytes);
            let mut comm_free = 0.0f64;
            for bucket in &buckets {
                let ready = bucket
                    .tensor_indices
                    .iter()
                    .map(|&i| tensor_ready[i])
                    .fold(0.0f64, f64::max);
                let coordination = cluster.per_tensor_overhead * bucket.tensor_indices.len() as f64;
                let start = ready.max(comm_free);
                comm_free = start + sync_time(cluster, bucket.bytes, strategy) + coordination;
            }
            let comm_tail = (comm_free - t).max(0.0);
            comm_tail + optimizer
        };
        TrainingPhases {
            forward,
            backward,
            grad_update,
        }
    }

    pub(super) fn measure_faulted(
        device: &DeviceProfile,
        cluster: &ClusterConfig,
        metrics: &ModelMetrics,
        batch: usize,
        noise: &mut NoiseModel,
        fault: &mut FaultModel,
    ) -> TrainingPhases {
        if fault.profile().is_off() {
            let p = expected(device, cluster, metrics, batch, SyncStrategy::FlatRing);
            return TrainingPhases {
                forward: noise.jitter(p.forward),
                backward: noise.jitter(p.backward),
                grad_update: noise.jitter(p.grad_update),
            };
        }
        let slowdown = fault.compute_slowdown();
        let straggle = fault.node_straggler_max(cluster.total_devices());
        let dropped = fault.node_dropout(cluster.nodes);
        let p = expected(device, cluster, metrics, batch, SyncStrategy::FlatRing);
        let mut grad_update = p.grad_update;
        if dropped > 0 {
            let total_grad_bytes: u64 = metrics
                .per_node
                .iter()
                .filter(|c| c.is_trainable)
                .map(|c| c.param_elements * 4)
                .sum();
            grad_update += all_reduce_time_with_dropout(
                cluster,
                total_grad_bytes,
                dropped,
                fault.profile().reringing_cost,
            );
        }
        let mut phases = TrainingPhases {
            forward: noise.jitter(p.forward * slowdown * straggle),
            backward: noise.jitter(p.backward * slowdown * straggle),
            grad_update: noise.jitter(grad_update),
        };
        let spike = fault.spike_factor();
        phases.forward *= spike;
        phases.backward *= spike;
        phases.grad_update *= spike;
        if fault.is_corrupt() {
            phases.forward = f64::NAN;
            phases.backward = f64::NAN;
            phases.grad_update = f64::NAN;
        }
        phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use convmeter_models::zoo::by_name;

    fn metrics(name: &str, size: usize) -> ModelMetrics {
        ModelMetrics::of(&by_name(name).unwrap().build(size, 1000)).unwrap()
    }

    fn gpu() -> DeviceProfile {
        DeviceProfile::a100_80gb()
    }

    #[test]
    fn single_device_matches_hwsim() {
        let m = metrics("resnet18", 128);
        let single = ClusterConfig::workstation(1);
        let dist = expected_distributed_phases(&gpu(), &single, &m, 32);
        let local = convmeter_hwsim::expected_training_phases(&gpu(), &m, 32);
        assert!((dist.forward - local.forward).abs() / local.forward < 1e-12);
        assert!((dist.backward - local.backward).abs() / local.backward < 1e-12);
        assert!((dist.grad_update - local.grad_update).abs() / local.grad_update < 1e-12);
    }

    #[test]
    fn grad_update_grows_with_nodes() {
        let m = metrics("resnet50", 128);
        let mut last = 0.0;
        for nodes in [1, 2, 4, 8] {
            let c = ClusterConfig::hpc_cluster(nodes);
            let p = expected_distributed_phases(&gpu(), &c, &m, 64);
            assert!(p.grad_update > last, "nodes {nodes}: {}", p.grad_update);
            last = p.grad_update;
        }
    }

    #[test]
    fn large_batches_hide_communication() {
        // At large per-device batch, backward compute grows while comm stays
        // fixed, so the grad-update share of the step shrinks — the paper's
        // "users typically maximize the per-device batch size" observation.
        let m = metrics("resnet50", 128);
        let c = ClusterConfig::hpc_cluster(4);
        let small = expected_distributed_phases(&gpu(), &c, &m, 4);
        let large = expected_distributed_phases(&gpu(), &c, &m, 256);
        let share = |p: &TrainingPhases| p.grad_update / p.total();
        assert!(share(&large) < share(&small));
    }

    #[test]
    fn alexnet_is_communication_heavy() {
        // 61 M parameters but tiny compute: across nodes, AlexNet's gradient
        // update dominates — the diminishing-returns case in Figure 8.
        let alex = metrics("alexnet", 128);
        let r18 = metrics("resnet18", 128);
        let c = ClusterConfig::hpc_cluster(8);
        let pa = expected_distributed_phases(&gpu(), &c, &alex, 64);
        let pr = expected_distributed_phases(&gpu(), &c, &r18, 64);
        assert!(
            pa.grad_update / pa.total() > pr.grad_update / pr.total(),
            "alexnet {:.4}/{:.4}, resnet18 {:.4}/{:.4}",
            pa.grad_update,
            pa.total(),
            pr.grad_update,
            pr.total()
        );
    }

    #[test]
    fn stragglers_inflate_compute_phases() {
        let m = metrics("resnet18", 128);
        let single = ClusterConfig::workstation(1);
        let multi = ClusterConfig::hpc_cluster(4);
        let p1 = expected_distributed_phases(&gpu(), &single, &m, 64);
        let pn = expected_distributed_phases(&gpu(), &multi, &m, 64);
        assert!(pn.forward > p1.forward);
        assert!(pn.backward > p1.backward);
    }

    #[test]
    fn straggler_factor_properties() {
        assert_eq!(straggler_factor(0.05, 1), 1.0);
        assert_eq!(straggler_factor(0.0, 16), 1.0);
        assert!(straggler_factor(0.05, 16) > straggler_factor(0.05, 4));
        assert!(straggler_factor(0.05, 16) < 1.5);
    }

    #[test]
    fn hierarchical_strategy_speeds_up_multi_node_steps() {
        use crate::strategies::SyncStrategy;
        let m = metrics("alexnet", 128);
        let c = ClusterConfig::hpc_cluster(8);
        let flat =
            expected_distributed_phases_with_strategy(&gpu(), &c, &m, 64, SyncStrategy::FlatRing);
        let hier = expected_distributed_phases_with_strategy(
            &gpu(),
            &c,
            &m,
            64,
            SyncStrategy::Hierarchical,
        );
        let ps = expected_distributed_phases_with_strategy(
            &gpu(),
            &c,
            &m,
            64,
            SyncStrategy::ParameterServer,
        );
        assert!(hier.grad_update < flat.grad_update);
        assert!(ps.grad_update > flat.grad_update);
        // Compute phases are strategy-independent.
        assert_eq!(hier.forward, flat.forward);
        assert_eq!(hier.backward, flat.backward);
    }

    fn bits(p: &TrainingPhases) -> [u64; 3] {
        [p.forward, p.backward, p.grad_update].map(f64::to_bits)
    }

    const STRATEGIES: [SyncStrategy; 3] = [
        SyncStrategy::FlatRing,
        SyncStrategy::Hierarchical,
        SyncStrategy::ParameterServer,
    ];

    /// Every zoo model at the paper's image sizes, through the shared
    /// compile cache (pairs a model cannot run at are skipped).
    fn zoo_grid() -> Vec<std::sync::Arc<convmeter_metrics::CompiledModel>> {
        let mut grid = Vec::new();
        for name in convmeter_models::zoo::model_names() {
            for size in [64, 128, 224] {
                if let Some(cm) = convmeter_hwsim::compile::compiled(name, size).unwrap() {
                    grid.push(cm);
                }
            }
        }
        grid
    }

    #[test]
    fn split_step_matches_reference_bitwise() {
        let device = gpu();
        let paper = crate::sweep::DistSweepConfig::paper();
        let grid = zoo_grid();
        assert!(grid.len() > 40, "{} pairs", grid.len());
        for cm in &grid {
            let m = &cm.metrics;
            let clusters: Vec<ClusterConfig> = paper
                .node_counts
                .iter()
                .map(|&n| ClusterConfig::hpc_cluster(n))
                .collect();
            let model = StepModel::new(&device, m, clusters[0].fusion_buffer_bytes);
            for &batch in &paper.batch_sizes {
                let step = model.at_batch(batch);
                for cluster in &clusters {
                    for strategy in STRATEGIES {
                        let want = reference::expected(&device, cluster, m, batch, strategy);
                        let case = format!(
                            "{} @{} batch {batch}, {} nodes, {strategy:?}",
                            cm.id.as_str(),
                            cm.image_size,
                            cluster.nodes
                        );
                        assert_eq!(bits(&step.phases(cluster, strategy)), bits(&want), "{case}");
                        let composed = expected_distributed_phases_with_strategy(
                            &device, cluster, m, batch, strategy,
                        );
                        assert_eq!(bits(&composed), bits(&want), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn split_faulted_step_matches_reference_bitwise() {
        use convmeter_hwsim::{FaultProfile, FAULT_SALT};
        let device = gpu();
        let paper = crate::sweep::DistSweepConfig::paper();
        let fusion_buffer_bytes = ClusterConfig::hpc_cluster(1).fusion_buffer_bytes;
        let (mut inflated, mut corrupt) = (0, 0);
        for profile in [FaultProfile::disabled(), FaultProfile::light()] {
            for (k, cm) in zoo_grid().iter().enumerate() {
                let m = &cm.metrics;
                let model = StepModel::new(&device, m, fusion_buffer_bytes);
                for &batch in &paper.batch_sizes {
                    let step = model.at_batch(batch);
                    for &nodes in &paper.node_counts {
                        let cluster = ClusterConfig::hpc_cluster(nodes);
                        let seed = (k * 1000 + batch * 10 + nodes) as u64;
                        let streams = || {
                            (
                                NoiseModel::new(seed, device.noise_sigma),
                                FaultModel::new(&profile, seed ^ FAULT_SALT),
                            )
                        };
                        let (mut noise, mut fault) = streams();
                        let want = reference::measure_faulted(
                            &device, &cluster, m, batch, &mut noise, &mut fault,
                        );
                        let (mut noise, mut fault) = streams();
                        let got = step.measure_faulted(&cluster, &mut noise, &mut fault);
                        let case =
                            format!("{} @{} batch {batch}, {nodes} nodes", cm.id, cm.image_size);
                        assert_eq!(bits(&got), bits(&want), "{case}");
                        let clean = step.phases(&cluster, SyncStrategy::FlatRing).grad_update;
                        corrupt += usize::from(want.forward.is_nan());
                        inflated += usize::from(want.grad_update > 1.5 * clean);
                    }
                }
            }
        }
        // The light profile must have exercised corruption and a dropout
        // or spike that inflated the gradient phase.
        assert!(
            corrupt > 0 && inflated > 0,
            "corrupt {corrupt}, inflated {inflated}"
        );
    }

    #[test]
    fn measurement_jitters() {
        let m = metrics("resnet18", 64);
        let c = ClusterConfig::hpc_cluster(2);
        let mut noise = NoiseModel::new(5, 0.05);
        let device = gpu();
        let model = StepModel::new(&device, &m, c.fusion_buffer_bytes);
        let step = model.at_batch(32);
        let a = step.measure(&c, &mut noise);
        let b = step.measure(&c, &mut noise);
        assert_ne!(a.grad_update, b.grad_update);
    }
}
