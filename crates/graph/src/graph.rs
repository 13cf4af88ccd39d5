//! The ConvNet DAG: append-only nodes, shape inference, block spans.

use crate::block::BlockSpan;
use crate::layer::Layer;
use crate::shape::Shape;
use serde::{Deserialize, Serialize};

/// Index of a node within a [`Graph`]. The pseudo-id [`NodeId::INPUT`]
/// refers to the graph input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The graph's input tensor (not a real node).
    pub const INPUT: NodeId = NodeId(u32::MAX);

    /// Index into the node list; panics on [`NodeId::INPUT`].
    pub fn index(self) -> usize {
        assert_ne!(self, NodeId::INPUT, "INPUT has no node index");
        self.0 as usize
    }
}

/// A node: a layer, where its inputs come from, and an optional name.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    /// The operator.
    pub layer: Layer,
    /// Producers of this node's inputs (earlier nodes or [`NodeId::INPUT`]).
    pub inputs: Vec<NodeId>,
    /// Optional human-readable name (e.g. `layer3.0.conv2`).
    pub name: Option<String>,
}

/// Inferred shapes for one node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeShapes {
    /// Shape of each input edge.
    pub inputs: Vec<Shape>,
    /// Shape of the output edge.
    pub output: Shape,
}

/// Errors from graph construction or shape inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node referenced an input that does not precede it.
    ForwardReference {
        /// The offending node index.
        node: usize,
    },
    /// Shape inference failed at a node.
    ShapeMismatch {
        /// Node index where inference failed.
        node: usize,
        /// Node name if present.
        name: Option<String>,
        /// Constraint violation description.
        reason: String,
    },
    /// The graph has no nodes.
    Empty,
    /// A metric (element count, FLOP count, or a graph-wide sum of either)
    /// overflows `u64` — the graph is astronomically large.
    Overflow {
        /// Node index where the overflow occurred, if attributable to one.
        node: Option<usize>,
        /// Node name if present.
        name: Option<String>,
        /// What overflowed (e.g. `"FLOPs"`, `"element count"`).
        what: String,
    },
    /// A block span is not a single-input slice of the graph
    /// ([`Graph::block_input`]).
    Block {
        /// The block's name.
        block: String,
        /// What is wrong with it.
        fault: BlockFault,
    },
    /// Shape inference over the enclosing graph failed while extracting a
    /// block ([`Graph::extract_block`]).
    BlockShapes(Box<GraphError>),
}

/// Why a block span has no unique input tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockFault {
    /// The span is empty, inverted, or runs past the last node.
    Span {
        /// First node of the span.
        start: usize,
        /// One past the last node of the span.
        end: usize,
    },
    /// Nodes inside the span read two different outside tensors.
    TwoInputs {
        /// The first outside tensor read.
        first: NodeId,
        /// A second, different one.
        second: NodeId,
    },
    /// No node inside the span reads an outside tensor.
    NoInput,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::ForwardReference { node } => {
                write!(f, "node {node} references a later node")
            }
            GraphError::ShapeMismatch { node, name, reason } => {
                write!(f, "shape error at node {node}")?;
                if let Some(n) = name {
                    write!(f, " ({n})")?;
                }
                write!(f, ": {reason}")
            }
            GraphError::Empty => write!(f, "graph has no nodes"),
            GraphError::Overflow { node, name, what } => {
                write!(f, "{what} overflows u64")?;
                if let Some(n) = node {
                    write!(f, " at node {n}")?;
                    if let Some(name) = name {
                        write!(f, " ({name})")?;
                    }
                }
                Ok(())
            }
            GraphError::Block { block, fault } => match fault {
                BlockFault::Span { start, end } => write!(f, "invalid span {start}..{end}"),
                BlockFault::TwoInputs { first, second } => write!(
                    f,
                    "block '{block}' reads two external tensors (nodes {first:?} and {second:?})"
                ),
                BlockFault::NoInput => write!(f, "block '{block}' reads no external input"),
            },
            GraphError::BlockShapes(source) => write!(f, "shape inference failed: {source}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::BlockShapes(source) => Some(source.as_ref()),
            _ => None,
        }
    }
}

/// A ConvNet computational graph.
///
/// Nodes are stored in topological order (construction via
/// [`crate::GraphBuilder`] or [`Graph::push`] enforces that inputs precede
/// consumers). The graph has a single input tensor and, by convention, its
/// last node is the output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Graph {
    name: String,
    input_shape: Shape,
    nodes: Vec<Node>,
    blocks: Vec<BlockSpan>,
}

impl Graph {
    /// Create an empty graph for the given input shape.
    pub fn new(name: impl Into<String>, input_shape: Shape) -> Self {
        Self {
            name: name.into(),
            input_shape,
            nodes: Vec::new(),
            blocks: Vec::new(),
        }
    }

    /// The model name (e.g. `resnet50`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the graph (used when extracting blocks or resizing inputs).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The input tensor shape (batch-free).
    pub fn input_shape(&self) -> Shape {
        self.input_shape
    }

    /// The nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Registered block spans.
    pub fn blocks(&self) -> &[BlockSpan] {
        &self.blocks
    }

    /// Append a node whose inputs must already exist. Returns its id.
    ///
    /// # Panics
    /// Panics if an input id is out of range (forward reference).
    pub fn push(&mut self, layer: Layer, inputs: Vec<NodeId>, name: Option<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        for input in &inputs {
            assert!(
                *input == NodeId::INPUT || input.0 < id.0,
                "node {} references non-existent node {}",
                id.0,
                input.0
            );
        }
        self.nodes.push(Node {
            layer,
            inputs,
            name,
        });
        id
    }

    /// Register a named block span. Spans may nest but not partially overlap;
    /// [`Graph::validate_blocks`] checks this.
    pub fn add_block(&mut self, span: BlockSpan) {
        self.blocks.push(span);
    }

    /// Run shape inference over the whole graph.
    ///
    /// Returns one [`NodeShapes`] per node, in node order.
    pub fn infer_shapes(&self) -> Result<Vec<NodeShapes>, GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        let mut shapes: Vec<NodeShapes> = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            let input_shapes: Vec<Shape> = node
                .inputs
                .iter()
                .map(|id| {
                    if *id == NodeId::INPUT {
                        self.input_shape
                    } else {
                        shapes[id.index()].output
                    }
                })
                // analyzer:allow(CP0003, reason = "each NodeShapes owns its input-shape list; the collect IS the per-node result, not a scratch buffer")
                .collect();
            let output = node.layer.infer_output(&input_shapes).map_err(|reason| {
                GraphError::ShapeMismatch {
                    node: i,
                    name: node.name.clone(),
                    reason,
                }
            })?;
            shapes.push(NodeShapes {
                inputs: input_shapes,
                output,
            });
        }
        Ok(shapes)
    }

    /// The output shape of the final node.
    pub fn output_shape(&self) -> Result<Shape, GraphError> {
        Ok(self
            .infer_shapes()?
            .last()
            // analyzer:allow(CA0004, reason = "infer_shapes yields one shape per node and errors on empty graphs")
            .expect("infer_shapes is non-empty on success")
            .output)
    }

    /// Total trainable parameter count.
    pub fn parameter_count(&self) -> u64 {
        self.nodes.iter().map(|n| n.layer.parameter_count()).sum()
    }

    /// Number of layers carrying trainable parameters — ConvMeter's `L`
    /// metric (gradient updates are synchronised per parameterised layer).
    pub fn trainable_layer_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.layer.has_parameters())
            .count()
    }

    /// Number of convolution nodes.
    pub fn conv_layer_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.layer.is_conv()).count()
    }

    /// Check that block spans are well-formed: in-range, non-empty, and
    /// either nested or disjoint.
    pub fn validate_blocks(&self) -> Result<(), String> {
        for b in &self.blocks {
            if b.start >= b.end || b.end > self.nodes.len() {
                return Err(format!(
                    "block '{}' span {}..{} invalid for {} nodes",
                    b.name,
                    b.start,
                    b.end,
                    self.nodes.len()
                ));
            }
        }
        for (i, a) in self.blocks.iter().enumerate() {
            for b in self.blocks.iter().skip(i + 1) {
                let disjoint = a.end <= b.start || b.end <= a.start;
                let nested = (a.start <= b.start && b.end <= a.end)
                    || (b.start <= a.start && a.end <= b.end);
                if !disjoint && !nested {
                    return Err(format!(
                        "blocks '{}' and '{}' partially overlap",
                        a.name, b.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// The tensor entering a block span: the unique producer outside the
    /// span that nodes inside it read.
    ///
    /// The block must be *convex*: apart from its first node(s), which may
    /// read the block input, no node inside may consume values produced
    /// before the span. All external reads must resolve to the same producer
    /// (the tensor entering the block). This is exactly the structure of the
    /// repeated blocks (Bottleneck, InvertedResidual, MBConv, ...) the paper
    /// predicts. Errors on an invalid span, a block reading two external
    /// tensors, or a block reading none.
    pub fn block_input(&self, span: &BlockSpan) -> Result<NodeId, GraphError> {
        let err = |fault| GraphError::Block {
            block: span.name.clone(),
            fault,
        };
        if span.start >= span.end || span.end > self.nodes.len() {
            return Err(err(BlockFault::Span {
                start: span.start,
                end: span.end,
            }));
        }
        let mut external: Option<NodeId> = None;
        for node in &self.nodes[span.start..span.end] {
            for input in &node.inputs {
                let is_internal =
                    *input != NodeId::INPUT && (span.start..span.end).contains(&input.index());
                if !is_internal {
                    match external {
                        None => external = Some(*input),
                        Some(e) if e == *input => {}
                        Some(first) => {
                            return Err(err(BlockFault::TwoInputs {
                                first,
                                second: *input,
                            }))
                        }
                    }
                }
            }
        }
        external.ok_or_else(|| err(BlockFault::NoInput))
    }

    /// Extract a block span as a standalone graph whose input is the
    /// block's [`Self::block_input`].
    pub fn extract_block(&self, span: &BlockSpan) -> Result<Graph, GraphError> {
        let external = self.block_input(span)?;
        let shapes = self
            .infer_shapes()
            .map_err(|e| GraphError::BlockShapes(Box::new(e)))?;
        let block_input_shape = if external == NodeId::INPUT {
            self.input_shape
        } else {
            shapes[external.index()].output
        };

        let mut g = Graph::new(span.name.clone(), block_input_shape);
        for node in &self.nodes[span.start..span.end] {
            let remapped: Vec<NodeId> = node
                .inputs
                .iter()
                .map(|input| {
                    if *input == external {
                        NodeId::INPUT
                    } else {
                        NodeId((input.index() - span.start) as u32)
                    }
                })
                .collect();
            g.push(node.layer.clone(), remapped, node.name.clone());
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{conv2d, Activation};

    fn tiny_residual_graph() -> Graph {
        // input -> conv1 -> bn is skipped; conv2 -> add(conv1-out? ...)
        let mut g = Graph::new("tiny", Shape::image(8, 16));
        let c1 = g.push(
            conv2d(8, 8, 3, 1, 1),
            vec![NodeId::INPUT],
            Some("conv1".into()),
        );
        let a1 = g.push(Layer::Act(Activation::ReLU), vec![c1], None);
        let c2 = g.push(conv2d(8, 8, 3, 1, 1), vec![a1], Some("conv2".into()));
        let _add = g.push(Layer::Add, vec![c2, a1], None);
        g
    }

    #[test]
    fn shapes_flow_through_residual() {
        let g = tiny_residual_graph();
        let shapes = g.infer_shapes().unwrap();
        assert_eq!(shapes.len(), 4);
        assert!(shapes.iter().all(|s| s.output == Shape::image(8, 16)));
        assert_eq!(g.output_shape().unwrap(), Shape::image(8, 16));
    }

    #[test]
    fn parameter_and_layer_counts() {
        let g = tiny_residual_graph();
        assert_eq!(g.parameter_count(), 2 * 8 * 8 * 9);
        assert_eq!(g.trainable_layer_count(), 2);
        assert_eq!(g.conv_layer_count(), 2);
    }

    #[test]
    fn empty_graph_is_an_error() {
        let g = Graph::new("empty", Shape::image(3, 32));
        assert_eq!(g.infer_shapes().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn shape_mismatch_reports_node() {
        let mut g = Graph::new("bad", Shape::image(3, 32));
        g.push(
            conv2d(5, 8, 3, 1, 1),
            vec![NodeId::INPUT],
            Some("stem".into()),
        );
        match g.infer_shapes().unwrap_err() {
            GraphError::ShapeMismatch {
                node: 0,
                name: Some(n),
                ..
            } => {
                assert_eq!(n, "stem");
            }
            e => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn block_extraction_types_shape_failures() {
        let mut g = Graph::new("bad", Shape::image(3, 32));
        g.push(
            conv2d(5, 8, 3, 1, 1),
            vec![NodeId::INPUT],
            Some("stem".into()),
        );
        let err = g.extract_block(&BlockSpan::new("b", 0, 1)).unwrap_err();
        let GraphError::BlockShapes(source) = &err else {
            panic!("unexpected error {err:?}");
        };
        assert!(matches!(
            **source,
            GraphError::ShapeMismatch { node: 0, .. }
        ));
        assert_eq!(err.to_string(), format!("shape inference failed: {source}"));
        let err = g.extract_block(&BlockSpan::new("b", 1, 1)).unwrap_err();
        assert_eq!(err.to_string(), "invalid span 1..1");
    }

    #[test]
    #[should_panic(expected = "non-existent node")]
    fn forward_reference_panics_on_push() {
        let mut g = Graph::new("fwd", Shape::image(3, 32));
        g.push(Layer::Add, vec![NodeId(5), NodeId::INPUT], None);
    }

    #[test]
    fn block_extraction_remaps_input() {
        let mut g = tiny_residual_graph();
        g.add_block(BlockSpan::new("res", 2, 4)); // conv2 + add
        let block = g.extract_block(&g.blocks()[0]).unwrap();
        assert_eq!(block.len(), 2);
        assert_eq!(block.input_shape(), Shape::image(8, 16));
        // conv2 and add both read the pre-block activation -> both remapped
        // to INPUT.
        assert_eq!(block.nodes()[0].inputs, vec![NodeId::INPUT]);
        assert_eq!(block.nodes()[1].inputs, vec![NodeId(0), NodeId::INPUT]);
        block.infer_shapes().unwrap();
    }

    #[test]
    fn block_extraction_rejects_two_external_inputs() {
        let mut g = Graph::new("multi", Shape::image(4, 8));
        let c1 = g.push(conv2d(4, 4, 3, 1, 1), vec![NodeId::INPUT], None);
        let c2 = g.push(conv2d(4, 4, 3, 1, 1), vec![NodeId::INPUT], None);
        let _ = g.push(Layer::Add, vec![c1, c2], None);
        // Span covering only the Add reads two distinct external tensors.
        let err = g.extract_block(&BlockSpan::new("bad", 2, 3)).unwrap_err();
        assert!(
            matches!(
                &err,
                GraphError::Block {
                    fault: BlockFault::TwoInputs { .. },
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn validate_blocks_rejects_partial_overlap() {
        let mut g = tiny_residual_graph();
        g.add_block(BlockSpan::new("a", 0, 3));
        g.add_block(BlockSpan::new("b", 2, 4));
        assert!(g
            .validate_blocks()
            .unwrap_err()
            .contains("partially overlap"));
    }

    #[test]
    fn validate_blocks_accepts_nesting() {
        let mut g = tiny_residual_graph();
        g.add_block(BlockSpan::new("outer", 0, 4));
        g.add_block(BlockSpan::new("inner", 1, 3));
        g.validate_blocks().unwrap();
    }

    #[test]
    fn validate_blocks_rejects_out_of_range() {
        let mut g = tiny_residual_graph();
        g.add_block(BlockSpan::new("oob", 0, 99));
        assert!(g.validate_blocks().is_err());
    }
}
