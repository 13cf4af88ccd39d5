//! Computational-graph intermediate representation for ConvNets.
//!
//! ConvMeter never executes a network — it *parses its computational graph*
//! and sums static per-layer metrics (Section 3 of the paper). This crate is
//! that graph: a DAG of [`layer::Layer`] nodes with precise tensor-shape
//! inference, so that the `convmeter-metrics` crate can compute FLOPs, input
//! tensor sizes, output tensor sizes, weights, and layer counts exactly as a
//! framework-level graph parser would.
//!
//! Design notes:
//!
//! * Nodes are append-only and must reference earlier nodes, so a [`Graph`]
//!   is topologically ordered by construction and cycles are unrepresentable.
//! * Shapes are batch-free (`C x H x W` or flat features); the batch
//!   dimension is a *parameter* of the performance model, exploiting the
//!   paper's observation that inputs, outputs, and FLOPs scale linearly with
//!   batch size.
//! * Named blocks ([`block::BlockSpan`]) mark spans of nodes (e.g. one
//!   `Bottleneck` of a ResNet) that can be extracted as standalone graphs —
//!   the mechanism behind the paper's block-wise prediction (Section 4.1.2).

#![warn(missing_docs)]

pub mod block;
pub mod builder;
pub mod diagnostics;
pub mod dot;
pub mod fingerprint;
pub mod graph;
pub mod layer;
pub mod lint;
pub mod liveness;
pub mod shape;
pub mod transform;

pub use block::BlockSpan;
pub use builder::GraphBuilder;
pub use diagnostics::{codes, Diagnostic, LintReport, Severity};
pub use fingerprint::{stable_digest, StableHasher};
pub use graph::{BlockFault, Graph, GraphError, Node, NodeId, NodeShapes};
pub use layer::{Activation, Layer, PoolKind};
pub use lint::{default_passes, lint_graph, lint_graph_with, LintContext, LintPass};
pub use liveness::peak_activation_elements;
pub use shape::Shape;
pub use transform::{fold_batch_norm, scale_width};
