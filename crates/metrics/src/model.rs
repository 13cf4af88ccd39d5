//! Whole-model and block-level metric aggregation.

use crate::flops::LayerCost;
use convmeter_graph::{Graph, GraphError};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// The five ConvMeter metrics for one graph at batch size 1, plus the
/// per-node cost breakdown the hardware simulator consumes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelMetrics {
    /// Model (or block) name.
    pub name: String,
    /// `F`: FLOPs of all layers, batch 1.
    pub flops: u64,
    /// `I`: summed input tensor elements of all *conv* layers, batch 1.
    pub conv_inputs: u64,
    /// `O`: summed output tensor elements of all *conv* layers, batch 1.
    pub conv_outputs: u64,
    /// Summed input tensor elements of all token compute ops (attention,
    /// per-token linears), batch 1 — the transformer analogue of `I`.
    pub token_inputs: u64,
    /// Summed output tensor elements of all token compute ops, batch 1.
    pub token_outputs: u64,
    /// `W`: trainable parameter count (batch-independent).
    pub weights: u64,
    /// `L`: number of parameterised layers (gradient-sync granularity).
    pub trainable_layers: usize,
    /// Total graph nodes, including shape-only ops.
    pub node_count: usize,
    /// Peak simultaneously-live activation elements at batch 1 (liveness
    /// analysis over the DAG; see `convmeter_graph::liveness`).
    pub peak_live_elements: u64,
    /// Per-node cost profiles, in topological order.
    pub per_node: Vec<LayerCost>,
}

impl ModelMetrics {
    /// Extract metrics from a graph by running shape inference and summing
    /// per-layer costs — the "parsing its computational graph" step of the
    /// paper.
    pub fn of(graph: &Graph) -> Result<Self, GraphError> {
        let _span = convmeter_obs::span!("metrics.extract");
        convmeter_obs::counter!("metrics.extractions").inc();
        let shapes = graph.infer_shapes()?;
        let mut per_node: Vec<LayerCost> = Vec::with_capacity(graph.len());
        for (i, (node, s)) in graph.nodes().iter().zip(&shapes).enumerate() {
            // The error path is the only consumer of the node name; keep
            // the clone out of the per-node success path.
            let cost = match LayerCost::try_of(&node.layer, &s.inputs, s.output) {
                Ok(cost) => cost,
                Err(e) => return Err(overflow_at(i, node.name.as_deref(), &e)),
            };
            per_node.push(cost);
        }
        let checked_sum = |costs: &[LayerCost],
                           filter: fn(&LayerCost) -> bool,
                           f: fn(&LayerCost) -> u64,
                           what: &str|
         -> Result<u64, GraphError> {
            costs
                .iter()
                .filter(|c| filter(c))
                .map(f)
                .try_fold(0u64, u64::checked_add)
                .ok_or_else(|| GraphError::Overflow {
                    node: None,
                    name: None,
                    what: format!("graph-wide {what} sum"),
                })
        };
        let all = |_: &LayerCost| true;
        let conv = |c: &LayerCost| c.is_conv;
        let token = |c: &LayerCost| c.is_token_op;
        Ok(ModelMetrics {
            name: graph.name().to_string(),
            flops: checked_sum(&per_node, all, |c| c.flops, "FLOP")?,
            conv_inputs: checked_sum(&per_node, conv, |c| c.input_elements, "conv input")?,
            conv_outputs: checked_sum(&per_node, conv, |c| c.output_elements, "conv output")?,
            token_inputs: checked_sum(&per_node, token, |c| c.input_elements, "token input")?,
            token_outputs: checked_sum(&per_node, token, |c| c.output_elements, "token output")?,
            weights: graph.parameter_count(),
            trainable_layers: graph.trainable_layer_count(),
            node_count: graph.len(),
            peak_live_elements: convmeter_graph::liveness::peak_activation_elements_with_shapes(
                graph, &shapes,
            ),
            per_node,
        })
    }

    /// Scale the batch-linear metrics to a given batch size.
    pub fn at_batch(&self, batch: usize) -> BatchMetrics {
        let b = batch as u64;
        BatchMetrics {
            batch,
            flops: self.flops * b,
            conv_inputs: self.conv_inputs * b,
            conv_outputs: self.conv_outputs * b,
            token_inputs: self.token_inputs * b,
            token_outputs: self.token_outputs * b,
            weights: self.weights,
            trainable_layers: self.trainable_layers,
        }
    }

    /// The batch-scaled metrics of the contiguous node range `nodes`, as
    /// [`Self::of`] and [`Self::at_batch`] would report them for that
    /// range extracted as its own graph: a node's shapes, and so its
    /// [`LayerCost`], do not depend on where the range sits. Sums
    /// `per_node[nodes]` with the same filters `of` uses.
    ///
    /// # Panics
    /// Panics if `nodes` is out of range of `per_node`.
    pub fn span_at_batch(&self, nodes: Range<usize>, batch: usize) -> BatchMetrics {
        let costs = &self.per_node[nodes];
        let sum = |filter: fn(&LayerCost) -> bool, f: fn(&LayerCost) -> u64| -> u64 {
            costs.iter().filter(|c| filter(c)).map(f).sum()
        };
        let all = |_: &LayerCost| true;
        let conv = |c: &LayerCost| c.is_conv;
        let token = |c: &LayerCost| c.is_token_op;
        let b = batch as u64;
        BatchMetrics {
            batch,
            flops: sum(all, |c| c.flops) * b,
            conv_inputs: sum(conv, |c| c.input_elements) * b,
            conv_outputs: sum(conv, |c| c.output_elements) * b,
            token_inputs: sum(token, |c| c.input_elements) * b,
            token_outputs: sum(token, |c| c.output_elements) * b,
            weights: sum(all, |c| c.param_elements),
            trainable_layers: costs.iter().filter(|c| c.is_trainable).count(),
        }
    }
}

/// Cold error constructor for the extraction loop: allocates the node name
/// only when a cost actually overflows.
fn overflow_at(node: usize, name: Option<&str>, e: &dyn std::fmt::Display) -> GraphError {
    GraphError::Overflow {
        node: Some(node),
        name: name.map(str::to_string),
        what: e.to_string(),
    }
}

/// [`ModelMetrics`] scaled to a specific batch size. This is the feature
/// vector the performance model consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchMetrics {
    /// The batch size these metrics are scaled to.
    pub batch: usize,
    /// FLOPs at this batch size.
    pub flops: u64,
    /// Conv input elements at this batch size.
    pub conv_inputs: u64,
    /// Conv output elements at this batch size.
    pub conv_outputs: u64,
    /// Token-op input elements at this batch size (0 for pure ConvNets).
    pub token_inputs: u64,
    /// Token-op output elements at this batch size.
    pub token_outputs: u64,
    /// Parameter count (batch-independent).
    pub weights: u64,
    /// Parameterised layer count (batch-independent).
    pub trainable_layers: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use convmeter_graph::layer::Activation;
    use convmeter_graph::{GraphBuilder, Shape};

    fn toy() -> Graph {
        let mut b = GraphBuilder::new("toy", Shape::image(3, 32));
        b.conv_bn_act(3, 16, 3, 1, 1, Activation::ReLU);
        b.conv_bn_act(16, 32, 3, 2, 1, Activation::ReLU);
        b.classifier(32, 10);
        b.finish()
    }

    #[test]
    fn metrics_sum_conv_layers_only() {
        let m = ModelMetrics::of(&toy()).unwrap();
        // conv1 input: 3*32*32; conv2 input: 16*32*32.
        assert_eq!(m.conv_inputs, 3 * 1024 + 16 * 1024);
        // conv1 output: 16*32*32; conv2 output: 32*16*16.
        assert_eq!(m.conv_outputs, 16 * 1024 + 32 * 256);
        // trainable: 2 convs + 2 BNs + 1 linear.
        assert_eq!(m.trainable_layers, 5);
        assert_eq!(
            m.weights,
            (16 * 3 * 9) as u64 + 32 + (32 * 16 * 9) as u64 + 64 + (32 * 10 + 10) as u64
        );
        assert_eq!(m.node_count, 9);
        assert_eq!(m.per_node.len(), 9);
    }

    #[test]
    fn flops_dominated_by_convs() {
        let m = ModelMetrics::of(&toy()).unwrap();
        let conv_flops: u64 = m
            .per_node
            .iter()
            .filter(|c| c.is_conv)
            .map(|c| c.flops)
            .sum();
        assert!(
            conv_flops * 10 > m.flops * 9,
            "convs should be >90% of FLOPs"
        );
    }

    #[test]
    fn batch_scaling_is_linear() {
        let m = ModelMetrics::of(&toy()).unwrap();
        let b1 = m.at_batch(1);
        let b64 = m.at_batch(64);
        assert_eq!(b64.flops, 64 * b1.flops);
        assert_eq!(b64.conv_inputs, 64 * b1.conv_inputs);
        assert_eq!(b64.conv_outputs, 64 * b1.conv_outputs);
        // Weights and layer count do not scale with batch.
        assert_eq!(b64.weights, b1.weights);
        assert_eq!(b64.trainable_layers, b1.trainable_layers);
    }

    #[test]
    fn invalid_graph_propagates_error() {
        let mut b = GraphBuilder::new("bad", Shape::image(3, 32));
        b.conv_bn(4, 8, 3, 1, 1);
        assert!(ModelMetrics::of(&b.finish()).is_err());
    }

    #[test]
    fn oversized_graph_reports_typed_overflow() {
        // A graph whose single conv overflows the FLOP count: the metric
        // extraction surfaces GraphError::Overflow instead of panicking.
        let mut g = Graph::new("huge", Shape::chw(1, 1 << 30, 1 << 30));
        g.push(
            convmeter_graph::layer::conv2d(1, 8, 1, 1, 0),
            vec![convmeter_graph::NodeId::INPUT],
            Some("huge".into()),
        );
        match ModelMetrics::of(&g) {
            Err(GraphError::Overflow { node, name, .. }) => {
                assert_eq!(node, Some(0));
                assert_eq!(name.as_deref(), Some("huge"));
            }
            other => panic!("expected Overflow, got {other:?}"),
        }
    }

    #[test]
    fn token_metrics_zero_for_convnets() {
        let m = ModelMetrics::of(&toy()).unwrap();
        assert_eq!(m.token_inputs, 0);
        assert_eq!(m.token_outputs, 0);
    }

    #[test]
    fn peak_live_between_bounds() {
        let m = ModelMetrics::of(&toy()).unwrap();
        // At least the largest single tensor, at most the sum of all.
        let largest = m.per_node.iter().map(|c| c.output_elements).max().unwrap();
        let total: u64 = m.per_node.iter().map(|c| c.output_elements).sum();
        assert!(m.peak_live_elements >= largest);
        assert!(m.peak_live_elements <= total + 3 * 1024);
    }
}
