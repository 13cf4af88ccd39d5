//! The compiled cost model: one (model, image size) point, extracted once.
//!
//! The paper extracts metrics **once at batch 1** and scales them
//! analytically; this module makes that structural. [`CompiledModel`] is
//! produced once per (model, image size) and carries everything the
//! simulators and dataset builders need to evaluate *any* batch size with
//! no further graph work:
//!
//! * the batch-1 [`ModelMetrics`] — the aggregates (`F`, `I`, `O`, `W`,
//!   `L`, peak-live) that [`ModelMetrics::at_batch`] scales to a batch, and
//!   the per-node [`LayerCost`] rows in topological order that the kernel
//!   model folds;
//! * the graph's structural fingerprint (composed bottom-up from per-node
//!   digests, see `convmeter_graph::fingerprint`), so cache keys over many
//!   sweep points reuse one hash instead of rehashing the graph; and
//! * the interned [`ModelId`], so downstream samples are `Copy` and sweep
//!   emission stops cloning names per point.
//!
//! [`LayerCost`]: crate::LayerCost

use crate::ident::ModelId;
use crate::model::ModelMetrics;
use convmeter_graph::{Graph, GraphError};

/// A model compiled for prediction at one (model, image size) point:
/// batch-1 metrics + structural fingerprint + interned id. Built once,
/// evaluated at every batch size.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    /// Interned model name.
    pub id: ModelId,
    /// The square input image size this compilation is for.
    pub image_size: usize,
    /// Structural fingerprint of the source graph (32 hex chars), composed
    /// bottom-up from per-node digests; cache keys reuse this instead of
    /// rehashing the graph per sweep point.
    pub fingerprint: String,
    /// The batch-1 metrics and per-node cost rows.
    pub metrics: ModelMetrics,
}

impl CompiledModel {
    /// Compile a graph: run extraction once (shape inference + per-node
    /// costs, the `metrics.extract` step) and fingerprint it. The
    /// `compile.model` span wraps the whole compilation so profiles can
    /// attribute it.
    pub fn compile(id: ModelId, image_size: usize, graph: &Graph) -> Result<Self, GraphError> {
        let _span = convmeter_obs::span!("compile.model");
        convmeter_obs::counter!("compile.models").inc();
        let metrics = ModelMetrics::of(graph)?;
        Ok(CompiledModel {
            id,
            image_size,
            fingerprint: graph.fingerprint(),
            metrics,
        })
    }
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
    fn fingerprint_matches_graph() {
        let g = toy();
        let compiled = CompiledModel::compile(ModelId::intern("toy"), 32, &g).unwrap();
        assert_eq!(compiled.fingerprint, g.fingerprint());
    }

    #[test]
    fn compile_propagates_graph_errors() {
        let mut b = GraphBuilder::new("bad", Shape::image(3, 32));
        b.conv_bn(4, 8, 3, 1, 1);
        assert!(CompiledModel::compile(ModelId::intern("bad"), 32, &b.finish()).is_err());
    }
}
