//! **ConvMeter** — a simple yet accurate performance model for convolutional
//! neural networks, reproducing Beringer, Stock, Mazaheri & Wolf,
//! *Dissecting Convolutional Neural Networks for Runtime and Scalability
//! Prediction*, ICPP 2024.
//!
//! ConvMeter predicts ConvNet inference and training time from five metrics
//! computable *without running the network* — FLOPs, conv input elements,
//! conv output elements, weights, and layer count — using nothing fancier
//! than linear regression:
//!
//! * forward pass / inference (Eq. 2): `T = c1·F + c2·I + c3·O + c4`,
//! * backward pass: same form, separately fitted coefficients,
//! * gradient update: `c1·L` on one device, `c1·L + c2·W + c3·N` across
//!   nodes,
//! * fused backward+gradient (tensor-fusion overlap): the 7-coefficient
//!   combination of the two,
//! * a training step is the sum of the phases (Eq. 1), an epoch is
//!   `D/(B·N)` steps.
//!
//! # Quickstart
//!
//! ```
//! use convmeter::prelude::*;
//!
//! // 1. Benchmark a device (here: the bundled A100-class simulator).
//! let device = DeviceProfile::a100_80gb();
//! let sweep = SweepConfig::quick();
//! let data = inference_dataset(&device, &sweep).unwrap();
//!
//! // 2. Fit ConvMeter's four forward-pass coefficients.
//! let model = ForwardModel::fit(&data).unwrap();
//!
//! // 3. Predict an unseen configuration statically.
//! let graph = convmeter_models::zoo::by_name("resnet50").unwrap().build(224, 1000);
//! let metrics = ModelMetrics::of(&graph).unwrap();
//! let t = model.predict_metrics(&metrics, 32);
//! assert!(t > 0.0);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod dataset;
pub mod eval;
pub mod features;
pub mod forward;
pub mod model_lint;
pub mod nas;
pub mod persist;
pub mod scalability;
pub mod training;

pub use analysis::{bottleneck_report, BottleneckReport};
pub use dataset::{
    distributed_dataset, inference_dataset, training_dataset, InferencePoint, TrainingPoint,
};
pub use eval::{
    breakdown_by, kfold_inference, leave_one_model_out_inference, leave_one_model_out_training,
    leave_one_model_out_training_folds, InferenceEvaluation, PerModelReport, PhaseScatter,
    ScatterPoint, TrainingEvaluation, TrainingPhasesResult,
};
pub use forward::ForwardModel;
pub use model_lint::{lint_design_matrix, lint_forward_model, lint_measured_times};
pub use nas::{search as nas_search, NasConfig, NasResult};
pub use scalability::{epoch_time, throughput_vs_batch, throughput_vs_nodes, turning_point};
pub use training::{GradUpdateModel, TrainingModel};

/// Convenience re-exports for downstream users and examples.
pub mod prelude {
    pub use crate::analysis::{bottleneck_report, BottleneckReport};
    pub use crate::dataset::{
        distributed_dataset, inference_dataset, training_dataset, InferencePoint, TrainingPoint,
    };
    pub use crate::eval::{
        leave_one_model_out_inference, leave_one_model_out_training,
        leave_one_model_out_training_folds, InferenceEvaluation, PerModelReport, PhaseScatter,
        ScatterPoint, TrainingEvaluation, TrainingPhasesResult,
    };
    pub use crate::forward::ForwardModel;
    pub use crate::scalability::{
        epoch_time, throughput_vs_batch, throughput_vs_nodes, turning_point,
    };
    pub use crate::training::{GradUpdateModel, TrainingModel};
    pub use convmeter_distsim::{ClusterConfig, DistSweepConfig};
    pub use convmeter_hwsim::{DeviceProfile, SweepConfig};
    pub use convmeter_linalg::stats::ErrorReport;
    pub use convmeter_metrics::ModelMetrics;
}
