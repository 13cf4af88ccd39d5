//! Distributed data-parallel training simulator.
//!
//! The paper trains with Horovod + NCCL on a cluster of nodes with four A100s
//! each, NVLink inside a node and HDR-200 InfiniBand between nodes. This
//! crate reproduces that substrate's *timing behaviour*:
//!
//! * [`ring`] — the ring all-reduce α–β cost model with distinct intra-node
//!   (NVLink) and inter-node (InfiniBand) links,
//! * [`fusion`] — Horovod-style tensor fusion: gradient tensors produced by
//!   the backward pass are batched into fixed-size buckets and all-reduced
//!   *while the backward pass is still running* (Figure 1 of the paper),
//! * [`step`] — an analytic timeline simulation of one training step with
//!   backward/communication overlap, split into per-model, per-batch and
//!   per-cluster parts so a sweep evaluates each kernel time once,
//! * [`parallel`] — the same step executed by real per-device threads
//!   (`std::sync` mutex/condvar) rendezvousing at each all-reduce; device
//!   stragglers are actually synchronised rather than approximated,
//! * [`sweep`] — multi-node benchmark dataset generation.
//!
//! The measured phase decomposition follows the paper: *forward*, *backward*
//! (compute only), and *gradient update* (the communication tail that
//! outlives the backward pass, plus the optimizer step and per-tensor
//! coordination overhead — the part that scales with layers, weights, and
//! nodes).

#![warn(missing_docs)]

pub mod cluster;
pub mod dataio;
pub mod fusion;
pub mod parallel;
pub mod pipeline_sim;
pub mod ring;
pub mod step;
pub mod strategies;
pub mod sweep;
pub mod trace;

pub use cluster::ClusterConfig;
pub use dataio::{epoch_time_with_io, step_with_io, StepWithIo, StorageProfile};
pub use fusion::{fuse_gradients, Bucket};
pub use parallel::simulate_step_threaded;
pub use pipeline_sim::{simulate_pipeline, PipelineSimResult, SimStage};
pub use ring::{all_reduce_time, all_reduce_time_with_dropout, reduce_scatter_time};
pub use step::{
    expected_distributed_phases, expected_distributed_phases_with_strategy, BatchStep, StepModel,
};
pub use strategies::{
    hierarchical_all_reduce_time, parameter_server_time, sync_time, SyncStrategy,
};
pub use sweep::{
    distributed_sweep, distributed_sweep_faulted, DistSweepConfig, DistTrainingSample,
};
pub use trace::{trace_step, StepTrace};
