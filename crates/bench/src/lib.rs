//! Experiment harness for the ConvMeter reproduction.
//!
//! Every table and figure in the paper's evaluation section is an
//! [`engine::Experiment`] registered in [`engine::registry()`], and
//! `convmeter bench` drives the registry (or `--only` a subset of it) with
//! a shared content-addressed dataset cache and a parallel scheduler.
//!
//! | Experiment | Paper artefact                                          |
//! |------------|---------------------------------------------------------|
//! | `table1`   | Per-ConvNet inference errors, CPU & GPU                 |
//! | `table2`   | Block-wise inference errors (9 blocks)                  |
//! | `table3`   | Per-ConvNet training errors, single GPU & distributed   |
//! | `fig2`     | FLOPs / inputs / outputs / combined metric comparison   |
//! | `fig3`     | Inference scatter, CPU & GPU                            |
//! | `fig4`     | Block-wise inference scatter                            |
//! | `fig5`     | Single-GPU training-phase scatter                       |
//! | `fig6`     | ConvMeter vs DIPPM-surrogate MAPE per model             |
//! | `fig7`     | Distributed training-phase scatter                      |
//! | `fig8`     | Throughput vs node count                                |
//! | `fig9`     | Throughput vs batch size                                |
//! | `ablations` | Design-choice ablations from DESIGN.md §6              |
//! | `extensions` | Sync strategies, fusion buffers, precision modes     |
//! | `extended_zoo` | Out-of-distribution architecture families          |
//! | `transformers` | ConvMeter transferred to vision transformers       |
//! | `contamination` | OLS vs Huber fit under injected outliers          |
//!
//! Results print as aligned text tables and are written as JSON under
//! `results/`, together with a `manifest.json` recording wall times,
//! dataset cache hits, and artifact hashes.

pub mod blocks;
pub mod engine;
pub mod exp_ablations;
pub mod exp_blocks;
pub mod exp_compare;
pub mod exp_contamination;
pub mod exp_extended_zoo;
pub mod exp_extensions;
pub mod exp_inference;
pub mod exp_scaling;
pub mod exp_training;
pub mod exp_transformers;
pub mod profile;
pub mod report;
