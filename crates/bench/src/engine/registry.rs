//! The typed experiment registry: every paper artefact as an
//! [`Experiment`], in the paper's presentation order.
//!
//! Dataset specs are centralised here so two experiments that need "the
//! paper GPU sweep" declare *the same content* and therefore share one
//! cache entry. A full run touches exactly six distinct datasets:
//! CPU inference, GPU inference, the Figure 6 evaluation grid, the Table 2
//! blocks, single-GPU training, and distributed training.

use super::{Artifact, DatasetSpec, EngineError, Experiment, RunContext, RunOutput};
use crate::{
    exp_ablations, exp_blocks, exp_compare, exp_contamination, exp_extended_zoo, exp_extensions,
    exp_inference, exp_scaling, exp_training, exp_transformers,
};
use convmeter::prelude::*;

fn gpu() -> DeviceProfile {
    DeviceProfile::a100_80gb()
}

fn cpu() -> DeviceProfile {
    DeviceProfile::xeon_gold_5318y_core()
}

/// The paper's single-core CPU inference sweep.
pub fn spec_inference_cpu() -> DatasetSpec {
    DatasetSpec::Inference {
        device: cpu(),
        config: SweepConfig::paper_cpu(),
    }
}

/// The paper's A100 inference sweep.
pub fn spec_inference_gpu() -> DatasetSpec {
    DatasetSpec::Inference {
        device: gpu(),
        config: SweepConfig::paper_gpu(),
    }
}

/// The Figure 6 evaluation grid (fixed 128 px, batch 16–2000).
pub fn spec_fig6_grid() -> DatasetSpec {
    DatasetSpec::Inference {
        device: gpu(),
        config: exp_compare::fig6_grid_config(),
    }
}

/// The Table 2 / Figure 4 block-level sweep.
pub fn spec_blocks() -> DatasetSpec {
    DatasetSpec::Blocks {
        device: gpu(),
        image_sizes: vec![64, 96, 128, 160, 192, 224],
        batch_sizes: vec![1, 4, 16, 64, 256],
        seed: 0xB10C,
    }
}

/// The paper's single-GPU training sweep.
pub fn spec_training() -> DatasetSpec {
    DatasetSpec::Training {
        device: gpu(),
        config: SweepConfig::paper_training(),
    }
}

/// The paper's distributed-training sweep.
pub fn spec_distributed() -> DatasetSpec {
    DatasetSpec::Distributed {
        device: gpu(),
        config: DistSweepConfig::paper(),
    }
}

struct Table1;
impl Experiment for Table1 {
    fn name(&self) -> &'static str {
        "table1"
    }
    fn title(&self) -> &'static str {
        "Table 1: per-ConvNet inference errors, CPU & GPU (leave-one-model-out)"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["table1"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        vec![spec_inference_cpu(), spec_inference_gpu()]
    }
    fn run(&self, ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let cpu_data = ctx.inference(&spec_inference_cpu())?;
        let gpu_data = ctx.inference(&spec_inference_gpu())?;
        let cpu_eval = ctx.store.inference_evaluation(&spec_inference_cpu())?;
        let gpu_eval = ctx.store.inference_evaluation(&spec_inference_gpu())?;
        let result = exp_inference::table1(&cpu_data, &cpu_eval, &gpu_data, &gpu_eval);
        Ok(RunOutput {
            rendered: exp_inference::render_table1(&result),
            artifacts: vec![Artifact::json("table1", &result)],
        })
    }
}

struct Fig2;
impl Experiment for Fig2 {
    fn name(&self) -> &'static str {
        "fig2"
    }
    fn title(&self) -> &'static str {
        "Figure 2: FLOPs / inputs / outputs / combined metric comparison"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["fig2"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        vec![spec_inference_gpu()]
    }
    fn run(&self, ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let data = ctx.inference(&spec_inference_gpu())?;
        let series = exp_inference::fig2(&data);
        Ok(RunOutput {
            rendered: exp_inference::render_fig2(&series),
            artifacts: vec![Artifact::json("fig2", &series)],
        })
    }
}

struct Fig3;
impl Experiment for Fig3 {
    fn name(&self) -> &'static str {
        "fig3"
    }
    fn title(&self) -> &'static str {
        "Figure 3: measured-vs-predicted inference scatter, CPU & GPU"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["fig3"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        vec![spec_inference_cpu(), spec_inference_gpu()]
    }
    fn run(&self, ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let cpu_eval = ctx.store.inference_evaluation(&spec_inference_cpu())?;
        let gpu_eval = ctx.store.inference_evaluation(&spec_inference_gpu())?;
        let result = exp_inference::fig3(&cpu_eval, &gpu_eval);
        Ok(RunOutput {
            rendered: exp_inference::render_fig3(&result),
            artifacts: vec![Artifact::json("fig3", &result)],
        })
    }
}

struct Table2;
impl Experiment for Table2 {
    fn name(&self) -> &'static str {
        "table2"
    }
    fn title(&self) -> &'static str {
        "Table 2: block-wise inference errors (leave-one-block-out)"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["table2"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        vec![spec_blocks()]
    }
    fn run(&self, ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let eval = ctx.store.inference_evaluation(&spec_blocks())?;
        let result = exp_blocks::table2(&eval);
        Ok(RunOutput {
            rendered: exp_blocks::render_table2(&result),
            artifacts: vec![Artifact::json("table2", &result)],
        })
    }
}

struct Fig4;
impl Experiment for Fig4 {
    fn name(&self) -> &'static str {
        "fig4"
    }
    fn title(&self) -> &'static str {
        "Figure 4: block-wise inference scatter (same data as Table 2)"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["fig4"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        vec![spec_blocks()]
    }
    fn run(&self, ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let (_, scatter, overall) = &*ctx.store.inference_evaluation(&spec_blocks())?;
        Ok(RunOutput {
            rendered: format!(
                "Figure 4 scatter: {} points, overall {overall}\n",
                scatter.len(),
            ),
            artifacts: vec![Artifact::json("fig4", scatter)],
        })
    }
}

struct Table3;
impl Experiment for Table3 {
    fn name(&self) -> &'static str {
        "table3"
    }
    fn title(&self) -> &'static str {
        "Table 3: per-ConvNet training errors, single GPU & distributed"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["table3"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        vec![spec_training(), spec_distributed()]
    }
    fn run(&self, ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let single = ctx.store.training_evaluation(&spec_training())?;
        let distributed = ctx.store.training_evaluation(&spec_distributed())?;
        let result = exp_training::table3(&single.phases, &distributed.phases);
        Ok(RunOutput {
            rendered: exp_training::render_table3(&result),
            artifacts: vec![Artifact::json("table3", &result)],
        })
    }
}

struct Fig5;
impl Experiment for Fig5 {
    fn name(&self) -> &'static str {
        "fig5"
    }
    fn title(&self) -> &'static str {
        "Figure 5: single-GPU training-phase scatter"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["fig5"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        vec![spec_training()]
    }
    fn run(&self, ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let eval = ctx.store.training_evaluation(&spec_training())?;
        Ok(RunOutput {
            rendered: exp_training::render_phases(
                "Figure 5: training phases, single A100 (held-out)",
                &eval.phases,
            ),
            artifacts: vec![Artifact::json("fig5", &eval.phases)],
        })
    }
}

struct Fig6;
impl Experiment for Fig6 {
    fn name(&self) -> &'static str {
        "fig6"
    }
    fn title(&self) -> &'static str {
        "Figure 6: ConvMeter vs DIPPM-surrogate MAPE per model"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["fig6"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        vec![spec_fig6_grid(), spec_inference_gpu()]
    }
    fn run(&self, ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let grid = ctx.inference(&spec_fig6_grid())?;
        let full_sweep = ctx.inference(&spec_inference_gpu())?;
        let rows = exp_compare::fig6(&grid, &full_sweep);
        Ok(RunOutput {
            rendered: exp_compare::render_fig6(&rows),
            artifacts: vec![Artifact::json("fig6", &rows)],
        })
    }
}

struct Fig7;
impl Experiment for Fig7 {
    fn name(&self) -> &'static str {
        "fig7"
    }
    fn title(&self) -> &'static str {
        "Figure 7: distributed training-phase scatter"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["fig7"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        vec![spec_distributed()]
    }
    fn run(&self, ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let eval = ctx.store.training_evaluation(&spec_distributed())?;
        Ok(RunOutput {
            rendered: exp_training::render_phases(
                "Figure 7: training phases, multi-node (held-out)",
                &eval.phases,
            ),
            artifacts: vec![Artifact::json("fig7", &eval.phases)],
        })
    }
}

struct Fig8;
impl Experiment for Fig8 {
    fn name(&self) -> &'static str {
        "fig8"
    }
    fn title(&self) -> &'static str {
        "Figure 8: throughput vs node count"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["fig8"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        vec![spec_distributed()]
    }
    fn run(&self, ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let held_out = ctx
            .store
            .held_out_training_models(&spec_distributed(), exp_scaling::FIG8_MODELS)?;
        let curves = exp_scaling::fig8(&held_out);
        Ok(RunOutput {
            rendered: exp_scaling::render_fig8(&curves),
            artifacts: vec![Artifact::json("fig8", &curves)],
        })
    }
}

struct Fig9;
impl Experiment for Fig9 {
    fn name(&self) -> &'static str {
        "fig9"
    }
    fn title(&self) -> &'static str {
        "Figure 9: throughput vs batch size"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["fig9"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        vec![spec_distributed()]
    }
    fn run(&self, ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let held_out = ctx
            .store
            .held_out_training_models(&spec_distributed(), exp_scaling::FIG9_MODELS)?;
        let curves = exp_scaling::fig9(&held_out);
        Ok(RunOutput {
            rendered: exp_scaling::render_fig9(&curves),
            artifacts: vec![Artifact::json("fig9", &curves)],
        })
    }
}

struct Ablations;
impl Experiment for Ablations {
    fn name(&self) -> &'static str {
        "ablations"
    }
    fn title(&self) -> &'static str {
        "Design-choice ablations (DESIGN.md §6)"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["ablations"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        vec![spec_inference_gpu(), spec_distributed()]
    }
    fn run(&self, ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let data = ctx.inference(&spec_inference_gpu())?;
        let held_out = ctx.store.inference_evaluation(&spec_inference_gpu())?;
        let dist = ctx.training(&spec_distributed())?;
        let result = exp_ablations::run(&data, &held_out, &dist);
        Ok(RunOutput {
            rendered: exp_ablations::render(&result),
            artifacts: vec![Artifact::json("ablations", &result)],
        })
    }
}

struct Extensions;
impl Experiment for Extensions {
    fn name(&self) -> &'static str {
        "extensions"
    }
    fn title(&self) -> &'static str {
        "Extensions: sync strategies, fusion buffers, precision modes"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["ext_strategies", "ext_fusion_buffer", "ext_precisions"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        Vec::new()
    }
    fn run(&self, _ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let result = exp_extensions::run();
        Ok(RunOutput {
            rendered: exp_extensions::render(&result),
            artifacts: vec![
                Artifact::json("ext_strategies", &result.strategies),
                Artifact::json("ext_fusion_buffer", &result.fusion_buffer),
                Artifact::json("ext_precisions", &result.precisions),
            ],
        })
    }
}

struct ExtendedZoo;
impl Experiment for ExtendedZoo {
    fn name(&self) -> &'static str {
        "extended_zoo"
    }
    fn title(&self) -> &'static str {
        "Extended zoo: out-of-distribution architecture families"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["extended_zoo"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        vec![spec_inference_gpu()]
    }
    fn run(&self, ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let train = ctx.inference(&spec_inference_gpu())?;
        let result = exp_extended_zoo::run(&train);
        Ok(RunOutput {
            rendered: exp_extended_zoo::render(&result),
            artifacts: vec![Artifact::json("extended_zoo", &result)],
        })
    }
}

struct Transformers;
impl Experiment for Transformers {
    fn name(&self) -> &'static str {
        "transformers"
    }
    fn title(&self) -> &'static str {
        "Extension: ConvMeter transferred to vision transformers"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["ext_transformers"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        Vec::new()
    }
    fn run(&self, _ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let result = exp_transformers::run();
        Ok(RunOutput {
            rendered: exp_transformers::render(&result),
            artifacts: vec![Artifact::json("ext_transformers", &result)],
        })
    }
}

struct Contamination;
impl Experiment for Contamination {
    fn name(&self) -> &'static str {
        "contamination"
    }
    fn title(&self) -> &'static str {
        "Robustness: OLS vs Huber fit under injected measurement outliers"
    }
    fn artifacts(&self) -> &'static [&'static str] {
        &["contamination"]
    }
    fn deps(&self) -> Vec<DatasetSpec> {
        vec![spec_inference_gpu()]
    }
    fn run(&self, ctx: &RunContext<'_>) -> Result<RunOutput, EngineError> {
        let data = ctx.inference(&spec_inference_gpu())?;
        let result = exp_contamination::run(&data);
        Ok(RunOutput {
            rendered: exp_contamination::render(&result),
            artifacts: vec![Artifact::json("contamination", &result)],
        })
    }
}

/// Every experiment, in the paper's presentation order.
pub fn registry() -> &'static [&'static dyn Experiment] {
    static REGISTRY: [&dyn Experiment; 16] = [
        &Table1,
        &Fig2,
        &Fig3,
        &Table2,
        &Fig4,
        &Table3,
        &Fig5,
        &Fig6,
        &Fig7,
        &Fig8,
        &Fig9,
        &Ablations,
        &Extensions,
        &ExtendedZoo,
        &Transformers,
        &Contamination,
    ];
    &REGISTRY
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_stable() {
        let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
        let set: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(set.len(), names.len(), "duplicate experiment names");
        assert_eq!(names.len(), 16);
        for pinned in [
            "table1",
            "table2",
            "table3",
            "fig2",
            "fig9",
            "ablations",
            "contamination",
        ] {
            assert!(set.contains(pinned), "missing {pinned}");
        }
    }

    #[test]
    fn artifact_names_are_unique() {
        let mut seen = BTreeSet::new();
        for exp in registry() {
            for &a in exp.artifacts() {
                assert!(seen.insert(a), "artifact {a} declared twice");
            }
        }
    }

    #[test]
    fn full_run_needs_six_distinct_datasets() {
        let keys: BTreeSet<String> = registry()
            .iter()
            .flat_map(|e| e.deps())
            .map(|d| d.key())
            .collect();
        assert_eq!(keys.len(), 6, "distinct dataset keys: {keys:?}");
    }

    #[test]
    fn shared_specs_share_cache_keys() {
        assert_eq!(spec_inference_gpu().key(), spec_inference_gpu().key());
        assert_ne!(spec_inference_gpu().key(), spec_inference_cpu().key());
        assert_ne!(spec_inference_gpu().key(), spec_fig6_grid().key());
        // Same config, different kind: training vs inference must differ.
        let inf = DatasetSpec::Inference {
            device: super::gpu(),
            config: SweepConfig::paper_training(),
        };
        assert_ne!(inf.key(), spec_training().key());
    }
}
