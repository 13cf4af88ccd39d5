//! Thread-based execution of a distributed training step.
//!
//! Where [`crate::step`] computes an analytic expectation, this module runs
//! one *actual* per-device worker thread per simulated GPU. Each worker
//! advances a private virtual clock through its jittered backward pass and
//! rendezvous with the other workers at every fusion-bucket all-reduce,
//! exactly like Horovod ranks do. Stragglers are therefore synchronised for
//! real — the collective completes at the *latest* device's ready time —
//! rather than approximated with an order-statistics factor.
//!
//! The implementation uses only `std`: `std::thread::scope` workers, a
//! mutex/condvar rendezvous, and a bounded `mpsc` channel collecting
//! results.

use crate::cluster::ClusterConfig;
use crate::fusion::fuse_gradients;
use crate::ring::all_reduce_time;
use convmeter_hwsim::kernel::{backward_layer_time, forward_layer_time, optimizer_layer_time};
use convmeter_hwsim::{DeviceProfile, NoiseModel, TrainingPhases};
use convmeter_metrics::ModelMetrics;
use std::sync::mpsc::sync_channel;
use std::sync::{Condvar, Mutex, PoisonError};

/// Rendezvous point where all device workers meet for each all-reduce.
struct Coordinator {
    devices: usize,
    inner: Mutex<CoordinatorState>,
    cv: Condvar,
}

#[derive(Default)]
struct CoordinatorState {
    round: u64,
    arrived: usize,
    max_ready: f64,
    comm_free: f64,
    completion: f64,
}

impl Coordinator {
    fn new(devices: usize) -> Self {
        Self {
            devices,
            inner: Mutex::new(CoordinatorState::default()),
            cv: Condvar::new(),
        }
    }

    /// Block until every device has contributed this round's bucket, then
    /// return the collective's completion time (identical on all devices).
    fn all_reduce(&self, cluster: &ClusterConfig, ready: f64, bytes: u64, tensors: usize) -> f64 {
        let mut g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        g.arrived += 1;
        g.max_ready = g.max_ready.max(ready);
        if g.arrived == self.devices {
            let start = g.max_ready.max(g.comm_free);
            let duration =
                all_reduce_time(cluster, bytes) + cluster.per_tensor_overhead * tensors as f64;
            g.completion = start + duration;
            g.comm_free = g.completion;
            g.arrived = 0;
            g.max_ready = 0.0;
            g.round += 1;
            self.cv.notify_all();
            g.completion
        } else {
            let target = g.round;
            self.cv
                .wait_while(g, |state| state.round == target)
                .unwrap_or_else(PoisonError::into_inner)
                .completion
        }
    }
}

/// Per-device result of the threaded step.
struct DeviceOutcome {
    forward_end: f64,
    backward_end: f64,
    comm_end: f64,
    optimizer: f64,
}

/// Run one training step with real per-device threads.
///
/// Per-layer compute times are jittered per device (log-normal,
/// `cluster.straggler_sigma`), so devices genuinely straggle and the
/// all-reduce rendezvous genuinely waits. With `straggler_sigma == 0` the
/// result matches [`crate::step::expected_distributed_phases`] exactly
/// (a property the test suite checks).
pub fn simulate_step_threaded(
    device: &DeviceProfile,
    cluster: &ClusterConfig,
    metrics: &ModelMetrics,
    batch: usize,
    seed: u64,
) -> TrainingPhases {
    const AUTOGRAD_OVERHEAD: f64 = 1.08;
    let n = cluster.total_devices();
    let coordinator = Coordinator::new(n);
    let (tx, rx) = sync_channel::<DeviceOutcome>(n);

    std::thread::scope(|scope| {
        for rank in 0..n {
            let coordinator = &coordinator;
            let tx = tx.clone();
            scope.spawn(move || {
                let mut jitter =
                    NoiseModel::new(seed.wrapping_add(rank as u64), cluster.straggler_sigma);
                // Forward pass.
                let forward_end = metrics
                    .per_node
                    .iter()
                    .map(|c| jitter.jitter(forward_layer_time(device, c, batch)))
                    .sum::<f64>()
                    * AUTOGRAD_OVERHEAD
                    + device.base_overhead;

                // Backward pass, collecting gradient tensors in reverse
                // order and their ready times on this device's clock.
                let mut clock = 0.0;
                let mut tensor_bytes = Vec::new();
                let mut tensor_ready = Vec::new();
                for cost in metrics.per_node.iter().rev() {
                    clock += jitter.jitter(backward_layer_time(device, cost, batch));
                    if cost.is_trainable {
                        tensor_bytes.push(cost.param_elements * 4);
                        tensor_ready.push(clock);
                    }
                }
                let backward_end = clock + device.base_overhead;

                // Dispatch fusion buckets through the shared coordinator.
                let mut comm_end = 0.0f64;
                if n > 1 {
                    for bucket in fuse_gradients(&tensor_bytes, cluster.fusion_buffer_bytes) {
                        let ready = bucket
                            .tensor_indices
                            .iter()
                            .map(|&i| tensor_ready[i])
                            .fold(0.0f64, f64::max);
                        comm_end = coordinator.all_reduce(
                            cluster,
                            ready,
                            bucket.bytes,
                            bucket.tensor_indices.len(),
                        );
                    }
                }

                let optimizer = metrics
                    .per_node
                    .iter()
                    .map(|c| jitter.jitter(optimizer_layer_time(device, c)))
                    .sum::<f64>()
                    + device.base_overhead;

                tx.send(DeviceOutcome {
                    forward_end,
                    backward_end,
                    comm_end,
                    optimizer,
                })
                // analyzer:allow(CA0004, reason = "the collector receiver outlives the scoped workers; send cannot fail")
                .expect("collector alive");
            });
        }
    });
    drop(tx);

    let outcomes: Vec<DeviceOutcome> = rx.iter().collect();
    assert_eq!(outcomes.len(), n);
    let max = |f: fn(&DeviceOutcome) -> f64| outcomes.iter().map(f).fold(0.0f64, f64::max);
    let forward = max(|o| o.forward_end);
    let backward = max(|o| o.backward_end);
    let comm_end = max(|o| o.comm_end);
    let optimizer = max(|o| o.optimizer);
    // Communication tail is measured against the backward-compute clock
    // (base overhead excluded, as in the analytic model).
    let grad_update = (comm_end - (backward - device.base_overhead)).max(0.0) + optimizer;
    TrainingPhases {
        forward,
        backward,
        grad_update,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::expected_distributed_phases;
    use convmeter_models::zoo::by_name;

    fn metrics(name: &str, size: usize) -> ModelMetrics {
        ModelMetrics::of(&by_name(name).unwrap().build(size, 1000)).unwrap()
    }

    fn gpu() -> DeviceProfile {
        DeviceProfile::a100_80gb()
    }

    #[test]
    fn matches_analytic_model_without_stragglers() {
        let m = metrics("resnet18", 64);
        let mut cluster = ClusterConfig::hpc_cluster(2);
        cluster.straggler_sigma = 0.0;
        let threaded = simulate_step_threaded(&gpu(), &cluster, &m, 32, 99);
        let analytic = expected_distributed_phases(&gpu(), &cluster, &m, 32);
        assert!(
            (threaded.forward - analytic.forward).abs() / analytic.forward < 1e-9,
            "fwd {} vs {}",
            threaded.forward,
            analytic.forward
        );
        assert!(
            (threaded.backward - analytic.backward).abs() / analytic.backward < 1e-9,
            "bwd {} vs {}",
            threaded.backward,
            analytic.backward
        );
        assert!(
            (threaded.grad_update - analytic.grad_update).abs() / analytic.grad_update < 1e-9,
            "grad {} vs {}",
            threaded.grad_update,
            analytic.grad_update
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let m = metrics("mobilenet_v2", 64);
        let cluster = ClusterConfig::hpc_cluster(2);
        let a = simulate_step_threaded(&gpu(), &cluster, &m, 16, 7);
        let b = simulate_step_threaded(&gpu(), &cluster, &m, 16, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn stragglers_slow_the_step() {
        let m = metrics("resnet18", 64);
        let mut no_jitter = ClusterConfig::hpc_cluster(4);
        no_jitter.straggler_sigma = 0.0;
        let with_jitter = ClusterConfig::hpc_cluster(4);
        let base = simulate_step_threaded(&gpu(), &no_jitter, &m, 32, 1);
        // Average over seeds: synchronised stragglers make steps slower in
        // expectation.
        let avg: f64 = (0..8)
            .map(|s| simulate_step_threaded(&gpu(), &with_jitter, &m, 32, s).total())
            .sum::<f64>()
            / 8.0;
        assert!(avg > base.total());
    }

    #[test]
    fn single_device_runs_without_communication() {
        let m = metrics("resnet18", 64);
        let mut c = ClusterConfig::workstation(1);
        c.straggler_sigma = 0.0;
        let p = simulate_step_threaded(&gpu(), &c, &m, 32, 0);
        let local = convmeter_hwsim::expected_training_phases(&gpu(), &m, 32);
        assert!((p.grad_update - local.grad_update).abs() / local.grad_update < 1e-9);
    }

    #[test]
    fn sixteen_threads_complete() {
        let m = metrics("squeezenet1_0", 64);
        let cluster = ClusterConfig::hpc_cluster(4); // 16 workers
        let p = simulate_step_threaded(&gpu(), &cluster, &m, 8, 3);
        assert!(p.total() > 0.0);
        assert!(p.total().is_finite());
    }
}
