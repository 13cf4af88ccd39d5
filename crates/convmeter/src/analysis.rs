//! Bottleneck analysis: per-block latency breakdown of a model.
//!
//! The paper motivates block-wise prediction with exactly this use case:
//! "fine-grained runtime information is particularly useful for neural
//! architecture search and network optimization methods to spot and tune
//! the network's bottlenecks". Given a fitted [`ForwardModel`] and a graph
//! with registered block spans, [`bottleneck_report`] predicts every block's
//! latency and ranks them.
//!
//! A block's price is a per-node sum over the whole graph's extraction: the
//! paper's metrics are sums of per-layer costs, and a node's shapes do not
//! depend on where its block sits, so summing `per_node[start..end]` of
//! [`ModelMetrics::of`] on the whole graph gives bit for bit the metrics of
//! the block extracted as its own graph — without rebuilding the block or
//! re-running shape inference once per block.

use crate::forward::ForwardModel;
use convmeter_graph::{Graph, GraphError};
use convmeter_metrics::ModelMetrics;
use serde::{Deserialize, Serialize};

/// One block's entry in a bottleneck report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockTiming {
    /// Block name (from its registered span).
    pub block: String,
    /// Predicted latency at the report's batch size, seconds.
    pub predicted: f64,
    /// Share of the summed block latency (0..1).
    pub share: f64,
    /// Block FLOPs at the report's batch size.
    pub flops: u64,
    /// Block parameter count.
    pub weights: u64,
}

/// A per-block latency breakdown for one model at one batch size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BottleneckReport {
    /// Model name.
    pub model: String,
    /// Batch size the report was computed for.
    pub batch: usize,
    /// Blocks, sorted by predicted latency, slowest first.
    pub blocks: Vec<BlockTiming>,
    /// Predicted whole-model latency (for comparison with the block sum —
    /// blocks do not cover stem/head layers).
    pub whole_model: f64,
}

/// Errors from bottleneck analysis.
#[derive(Debug)]
pub enum AnalysisError {
    /// The graph has no registered block spans.
    NoBlocks,
    /// The metrics passed in were not extracted from this graph: their
    /// per-node costs cover a different number of nodes.
    MetricsMismatch {
        /// Nodes the metrics' per-node costs cover.
        metrics_nodes: usize,
        /// Nodes in the graph.
        graph_nodes: usize,
    },
    /// A registered block failed to validate.
    Block(GraphError),
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::NoBlocks => write!(f, "graph has no registered blocks"),
            AnalysisError::MetricsMismatch {
                metrics_nodes,
                graph_nodes,
            } => write!(
                f,
                "metrics cover {metrics_nodes} nodes but the graph has {graph_nodes}"
            ),
            AnalysisError::Block(e) => write!(f, "block error: {e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Predict the latency of every registered block of `graph` at `batch`,
/// producing a ranked bottleneck report. `metrics` are the whole graph's
/// metrics ([`ModelMetrics::of`]); each block is priced from the sum of
/// its nodes' costs in them, which equals the metrics of the block
/// extracted as its own graph.
pub fn bottleneck_report(
    model: &ForwardModel,
    graph: &Graph,
    metrics: &ModelMetrics,
    batch: usize,
) -> Result<BottleneckReport, AnalysisError> {
    if graph.blocks().is_empty() {
        return Err(AnalysisError::NoBlocks);
    }
    if metrics.per_node.len() != graph.len() {
        return Err(AnalysisError::MetricsMismatch {
            metrics_nodes: metrics.per_node.len(),
            graph_nodes: graph.len(),
        });
    }
    let whole_model = model.predict_metrics(metrics, batch);

    let mut blocks = Vec::with_capacity(graph.blocks().len());
    for span in graph.blocks() {
        graph.block_input(span).map_err(AnalysisError::Block)?;
        let bm = metrics.span_at_batch(span.start..span.end, batch);
        blocks.push(BlockTiming {
            block: span.name.clone(),
            predicted: model.predict(&bm),
            share: 0.0,
            flops: bm.flops,
            weights: bm.weights,
        });
    }
    let total: f64 = blocks.iter().map(|b| b.predicted).sum();
    if total > 0.0 {
        for b in &mut blocks {
            b.share = b.predicted / total;
        }
    }
    blocks.sort_by(|a, b| b.predicted.total_cmp(&a.predicted));
    Ok(BottleneckReport {
        model: graph.name().to_string(),
        batch,
        blocks,
        whole_model,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::inference_dataset;
    use convmeter_graph::layer::conv2d;
    use convmeter_graph::{BlockFault, BlockSpan, Layer, NodeId, Shape};
    use convmeter_hwsim::{DeviceProfile, SweepConfig};
    use convmeter_models::{random::random_convnet, zoo};
    use std::sync::OnceLock;

    fn fitted() -> &'static ForwardModel {
        static MODEL: OnceLock<ForwardModel> = OnceLock::new();
        MODEL.get_or_init(|| {
            let data =
                inference_dataset(&DeviceProfile::a100_80gb(), &SweepConfig::quick()).unwrap();
            ForwardModel::fit(&data).unwrap()
        })
    }

    fn report(graph: &Graph, batch: usize) -> Result<BottleneckReport, AnalysisError> {
        let metrics = ModelMetrics::of(graph).unwrap();
        bottleneck_report(fitted(), graph, &metrics, batch)
    }

    /// The report as it was computed before blocks were priced from the
    /// whole graph's per-node costs: each block extracted as its own graph
    /// and metered on its own.
    fn reference_report(graph: &Graph, batch: usize) -> BottleneckReport {
        let model = fitted();
        let whole = ModelMetrics::of(graph).unwrap();
        let mut blocks: Vec<BlockTiming> = graph
            .blocks()
            .iter()
            .map(|span| {
                let metrics = ModelMetrics::of(&graph.extract_block(span).unwrap()).unwrap();
                BlockTiming {
                    block: span.name.clone(),
                    predicted: model.predict_metrics(&metrics, batch),
                    share: 0.0,
                    flops: metrics.at_batch(batch).flops,
                    weights: metrics.weights,
                }
            })
            .collect();
        let total: f64 = blocks.iter().map(|b| b.predicted).sum();
        if total > 0.0 {
            for b in &mut blocks {
                b.share = b.predicted / total;
            }
        }
        blocks.sort_by(|a, b| b.predicted.total_cmp(&a.predicted));
        BottleneckReport {
            model: graph.name().to_string(),
            batch,
            blocks,
            whole_model: model.predict_metrics(&whole, batch),
        }
    }

    /// `graph`'s report equals the reference bit for bit at every batch.
    fn assert_matches_reference(graph: &Graph) {
        let metrics = ModelMetrics::of(graph).unwrap();
        for batch in [1, 8, 64] {
            let got = bottleneck_report(fitted(), graph, &metrics, batch).unwrap();
            let want = reference_report(graph, batch);
            let label = format!("{} at batch {batch}", graph.name());
            assert_eq!(
                got.whole_model.to_bits(),
                want.whole_model.to_bits(),
                "{label}"
            );
            assert_eq!(got.blocks.len(), want.blocks.len(), "{label}");
            for (g, w) in got.blocks.iter().zip(&want.blocks) {
                assert_eq!(g.block, w.block, "{label}: block order");
                assert_eq!(
                    g.predicted.to_bits(),
                    w.predicted.to_bits(),
                    "{label}: {}",
                    w.block
                );
                assert_eq!(g.share.to_bits(), w.share.to_bits(), "{label}: {}", w.block);
                assert_eq!(g.flops, w.flops, "{label}: {}", w.block);
                assert_eq!(g.weights, w.weights, "{label}: {}", w.block);
            }
        }
    }

    #[test]
    fn zoo_reports_match_per_block_extraction_bit_for_bit() {
        let mut checked = 0;
        for name in zoo::all_model_names() {
            let spec = zoo::by_name(name).unwrap();
            for image in [64, 128, 224].into_iter().filter(|&s| spec.supports(s)) {
                let graph = spec.build(image, 1000);
                if !graph.blocks().is_empty() {
                    assert_matches_reference(&graph);
                    checked += 1;
                }
            }
        }
        assert!(checked >= 30, "only {checked} zoo graphs have blocks");
    }

    #[test]
    fn random_reports_match_per_block_extraction_bit_for_bit() {
        for seed in 0..50u64 {
            let image = [64, 128, 224][seed as usize % 3];
            assert_matches_reference(&random_convnet(500 + seed, image, 1000));
        }
    }

    #[test]
    fn invalid_blocks_fail_the_report() {
        let mut g = Graph::new("multi", Shape::image(4, 8));
        let c1 = g.push(conv2d(4, 4, 3, 1, 1), vec![NodeId::INPUT], None);
        let c2 = g.push(conv2d(4, 4, 3, 1, 1), vec![NodeId::INPUT], None);
        g.push(Layer::Add, vec![c1, c2], None);
        let two_inputs = BlockFault::TwoInputs {
            first: c1,
            second: c2,
        };
        for (span, fault, message) in [
            (
                BlockSpan::new("inverted", 2, 1),
                BlockFault::Span { start: 2, end: 1 },
                "block error: invalid span 2..1",
            ),
            (
                BlockSpan::new("out_of_range", 1, 4),
                BlockFault::Span { start: 1, end: 4 },
                "block error: invalid span 1..4",
            ),
            (
                BlockSpan::new("two_inputs", 2, 3),
                two_inputs,
                "block error: block 'two_inputs' reads two external tensors \
                 (nodes NodeId(0) and NodeId(1))",
            ),
        ] {
            let block = span.name.clone();
            let mut graph = g.clone();
            graph.add_block(span);
            let err = report(&graph, 1).unwrap_err();
            assert_eq!(err.to_string(), message);
            assert!(
                matches!(&err, AnalysisError::Block(GraphError::Block { block: b, fault: f })
                    if *b == block && *f == fault),
                "{err}"
            );
        }
    }

    #[test]
    fn metrics_of_another_graph_are_rejected() {
        let graph = zoo::by_name("resnet18").unwrap().build(64, 1000);
        let other = ModelMetrics::of(&zoo::by_name("resnet50").unwrap().build(64, 1000)).unwrap();
        assert!(matches!(
            bottleneck_report(fitted(), &graph, &other, 1),
            Err(AnalysisError::MetricsMismatch { .. })
        ));
    }

    #[test]
    fn resnet50_report_ranks_blocks() {
        let graph = zoo::by_name("resnet50").unwrap().build(224, 1000);
        let report = report(&graph, 32).unwrap();
        assert_eq!(report.blocks.len(), 16);
        // Sorted descending.
        for w in report.blocks.windows(2) {
            assert!(w[0].predicted >= w[1].predicted);
        }
        // Shares sum to ~1.
        let total: f64 = report.blocks.iter().map(|b| b.share).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // The whole model is at least as expensive as the block sum minus
        // slack (stem/head are outside the blocks; intercepts differ).
        assert!(report.whole_model > 0.0);
    }

    #[test]
    fn downsample_bottlenecks_rank_high() {
        // In ResNet-50 at 224 px the stage-boundary bottlenecks (the first
        // block of stages 2-4: Bottleneck4, 8, 14) are individually the most
        // expensive: they run their 3x3 conv at the incoming (higher)
        // resolution and add a strided 1x1 projection on the shortcut.
        let graph = zoo::by_name("resnet50").unwrap().build(224, 1000);
        let report = report(&graph, 32).unwrap();
        let mut top: Vec<usize> = report.blocks[..3]
            .iter()
            .map(|b| b.block.trim_start_matches("Bottleneck").parse().unwrap())
            .collect();
        top.sort_unstable();
        assert_eq!(
            top,
            vec![4, 8, 14],
            "expected the stage-2..4 downsample bottlenecks on top, got {:?}",
            &report.blocks[..3]
                .iter()
                .map(|b| &b.block)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn graph_without_blocks_is_an_error() {
        let mut b =
            convmeter_graph::GraphBuilder::new("flat", convmeter_graph::Shape::image(3, 32));
        b.conv_bn(3, 8, 3, 1, 1);
        let g = b.finish();
        assert!(matches!(report(&g, 1), Err(AnalysisError::NoBlocks)));
    }
}
