//! Implementations of the CLI subcommands. Each takes parsed [`Args`] and a
//! writer, so the test suite can drive them without spawning processes.

use crate::args::Args;
use crate::CliError;
use convmeter::persist;
use convmeter::prelude::*;
use convmeter_hwsim::training_memory_bytes;
use convmeter_metrics::ModelMetrics;
use convmeter_models::zoo;
use std::io::Write;

fn device_by_name(name: &str) -> Result<DeviceProfile, CliError> {
    match name {
        "gpu" | "a100" => Ok(DeviceProfile::a100_80gb()),
        "cpu" | "xeon" => Ok(DeviceProfile::xeon_gold_5318y_core()),
        other => Err(CliError::Usage(format!(
            "unknown device '{other}' (expected gpu|cpu)"
        ))),
    }
}

fn apply_precision(device: DeviceProfile, args: &Args) -> Result<DeviceProfile, CliError> {
    use convmeter_hwsim::Precision;
    Ok(
        match args.get_or("precision", "fp32".to_string())?.as_str() {
            "fp32" => device,
            "tf32" => device.with_precision(Precision::Tf32),
            "fp16" | "amp" => device.with_precision(Precision::Fp16),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown precision '{other}' (expected fp32|tf32|fp16)"
                )))
            }
        },
    )
}

fn model_metrics(name: &str, image: usize) -> Result<ModelMetrics, CliError> {
    let spec = zoo::by_name(name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown model '{name}'; see `convmeter list-models`"
        ))
    })?;
    if !spec.supports(image) {
        return Err(CliError::Usage(format!(
            "{name} needs images >= {} px, got {image}",
            spec.min_image_size
        )));
    }
    Ok(ModelMetrics::of(&spec.build(image, 1000))?)
}

/// `convmeter list-models`
pub fn list_models(out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(
        out,
        "{:<20} {:>10} {:>14} {:>8} {:>7}",
        "model", "params (M)", "GFLOPs @224", "layers", "min px"
    )?;
    for spec in zoo::ZOO.iter().chain(zoo::EXTENDED_ZOO) {
        // analyzer:allow(CA0004, reason = "zoo specs are statically valid; covered by the zoo-wide lint test")
        let m = ModelMetrics::of(&spec.build(224, 1000)).expect("zoo validates");
        writeln!(
            out,
            "{:<20} {:>10.2} {:>14.2} {:>8} {:>7}",
            spec.name,
            m.weights as f64 / 1e6,
            m.flops as f64 / 1e9,
            m.trainable_layers,
            spec.min_image_size
        )?;
    }
    Ok(())
}

/// `convmeter metrics <model> [--image N] [--batch N]`
pub fn metrics(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let name = args.positional(0, "model")?;
    let image = args.get_or("image", 224usize)?;
    let batch = args.get_or("batch", 1usize)?;
    let m = model_metrics(name, image)?;
    let b = m.at_batch(batch);
    writeln!(out, "{name} @ {image}px, batch {batch}")?;
    writeln!(out, "  FLOPs (F):         {:>16}", b.flops)?;
    writeln!(out, "  conv inputs (I):   {:>16}", b.conv_inputs)?;
    writeln!(out, "  conv outputs (O):  {:>16}", b.conv_outputs)?;
    writeln!(out, "  weights (W):       {:>16}", b.weights)?;
    writeln!(out, "  trainable layers:  {:>16}", b.trainable_layers)?;
    writeln!(out, "  graph nodes:       {:>16}", m.node_count)?;
    writeln!(
        out,
        "  training memory:   {:>13.2} GB",
        training_memory_bytes(&m, batch) as f64 / (1u64 << 30) as f64
    )?;
    Ok(())
}

/// `convmeter benchmark --device gpu|cpu --kind inference|training --out FILE
/// [--quick] [--jobs N]`
pub fn benchmark(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let device = apply_precision(
        device_by_name(args.get_or("device", "gpu".to_string())?.as_str())?,
        args,
    )?;
    convmeter_hwsim::set_sweep_jobs(args.get_or("jobs", 1usize)?);
    let kind = args.get_or("kind", "inference".to_string())?;
    let path = args.required("out")?;
    let sweep = if args.switch("quick") {
        SweepConfig::quick()
    } else {
        match (kind.as_str(), device.kind) {
            ("inference", convmeter_hwsim::DeviceKind::Cpu) => SweepConfig::paper_cpu(),
            ("inference", _) => SweepConfig::paper_gpu(),
            ("training", _) => SweepConfig::paper_training(),
            _ => return Err(CliError::Usage(format!("unknown kind '{kind}'"))),
        }
    };
    match kind.as_str() {
        "inference" => {
            let data = inference_dataset(&device, &sweep)?;
            persist::save_inference_dataset(path, &data)?;
            writeln!(out, "wrote {} inference points to {path}", data.len())?;
        }
        "training" => {
            let data = training_dataset(&device, &sweep)?;
            persist::save_training_dataset(path, &data)?;
            writeln!(out, "wrote {} training points to {path}", data.len())?;
        }
        other => return Err(CliError::Usage(format!("unknown kind '{other}'"))),
    }
    Ok(())
}

/// `convmeter benchmark-distributed --out FILE [--nodes 1,2,4] [--quick] [--jobs N]`
pub fn benchmark_distributed(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let device = device_by_name(args.get_or("device", "gpu".to_string())?.as_str())?;
    convmeter_hwsim::set_sweep_jobs(args.get_or("jobs", 1usize)?);
    let path = args.required("out")?;
    let mut cfg = if args.switch("quick") {
        DistSweepConfig::quick()
    } else {
        DistSweepConfig::paper()
    };
    cfg.node_counts = args.list_or("nodes", &cfg.node_counts.clone())?;
    let data = distributed_dataset(&device, &cfg)?;
    persist::save_training_dataset(path, &data)?;
    writeln!(
        out,
        "wrote {} distributed training points to {path}",
        data.len()
    )?;
    Ok(())
}

/// `convmeter fit --data FILE --kind inference|training --out MODEL`
pub fn fit(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let data_path = args.required("data")?;
    let model_path = args.required("out")?;
    let kind = args.get_or("kind", "inference".to_string())?;
    match kind.as_str() {
        "inference" => {
            let data = persist::load_inference_dataset(data_path)?;
            let model = ForwardModel::fit(&data)
                .map_err(|e| CliError::Usage(format!("fit failed: {e}")))?;
            let preds: Vec<f64> = data.iter().map(|p| model.predict(&p.metrics)).collect();
            let meas: Vec<f64> = data.iter().map(|p| p.measured).collect();
            persist::save_forward_model(model_path, &model)?;
            writeln!(
                out,
                "fitted c1={:.4e} c2={:.4e} c3={:.4e} c4={:.4e}",
                model.coefficients()[0],
                model.coefficients()[1],
                model.coefficients()[2],
                model.intercept()
            )?;
            writeln!(
                out,
                "training fit: {}",
                convmeter_linalg::stats::ErrorReport::compute(&preds, &meas)
            )?;
        }
        "training" => {
            let data = persist::load_training_dataset(data_path)?;
            let model = TrainingModel::fit(&data)
                .map_err(|e| CliError::Usage(format!("fit failed: {e}")))?;
            let preds: Vec<f64> = data
                .iter()
                .map(|p| model.predict_step(&p.metrics, p.nodes))
                .collect();
            let meas: Vec<f64> = data
                .iter()
                .map(convmeter::TrainingPoint::step_time)
                .collect();
            persist::save_training_model(model_path, &model)?;
            writeln!(
                out,
                "training-step fit: {}",
                convmeter_linalg::stats::ErrorReport::compute(&preds, &meas)
            )?;
        }
        other => return Err(CliError::Usage(format!("unknown kind '{other}'"))),
    }
    writeln!(out, "model saved to {model_path}")?;
    Ok(())
}

/// `convmeter predict --model-file FILE <model> [--image N] [--batch N]`
pub fn predict(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let model_path = args.required("model-file")?;
    let name = args.positional(0, "model")?;
    let image = args.get_or("image", 224usize)?;
    let batch = args.get_or("batch", 1usize)?;
    let model = persist::load_forward_model(model_path)?;
    let m = model_metrics(name, image)?;
    let t = model.predict_metrics(&m, batch);
    writeln!(
        out,
        "{name} @ {image}px batch {batch}: predicted inference {:.3} ms ({:.1} images/s)",
        t * 1e3,
        batch as f64 / t
    )?;
    Ok(())
}

/// `convmeter predict-training --model-file FILE <model> [--image] [--batch]
/// [--nodes N] [--gpus-per-node 4] [--dataset-size D] [--epochs E]`
pub fn predict_training(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let model_path = args.required("model-file")?;
    let name = args.positional(0, "model")?;
    let image = args.get_or("image", 224usize)?;
    let batch = args.get_or("batch", 64usize)?;
    let nodes = args.get_or("nodes", 1usize)?;
    let gpus = args.get_or("gpus-per-node", 4usize)?;
    let model = persist::load_training_model(model_path)?;
    let m = model_metrics(name, image)?;
    let bm = m.at_batch(batch);
    let step = model.predict_step(&bm, nodes);
    writeln!(
        out,
        "{name} @ {image}px, batch {batch}/device, {nodes} node(s) x {gpus} GPUs:"
    )?;
    writeln!(
        out,
        "  forward:      {:>10.2} ms",
        model.predict_forward(&bm) * 1e3
    )?;
    writeln!(
        out,
        "  bwd+grad:     {:>10.2} ms",
        model.predict_bwd_grad(&bm, nodes) * 1e3
    )?;
    writeln!(out, "  step total:   {:>10.2} ms", step * 1e3)?;
    writeln!(
        out,
        "  throughput:   {:>10.0} images/s",
        (batch * nodes * gpus) as f64 / step
    )?;
    if let Some(dataset) = args.opt("dataset-size") {
        let d: usize = dataset
            .parse()
            .map_err(|_| CliError::Usage("--dataset-size expects an integer".to_string()))?;
        let epochs = args.get_or("epochs", 1usize)?;
        let epoch = model.predict_epoch(&m, d, batch, nodes, nodes * gpus);
        writeln!(out, "  epoch:        {:>10.1} s", epoch)?;
        writeln!(
            out,
            "  {epochs} epochs:    {:>10.2} h",
            epoch * epochs as f64 / 3600.0
        )?;
    }
    Ok(())
}

/// `convmeter scale-nodes --model-file FILE <model> [--batch] [--nodes 1,2,4,8,16]`
pub fn scale_nodes(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let model_path = args.required("model-file")?;
    let name = args.positional(0, "model")?;
    let image = args.get_or("image", 128usize)?;
    let batch = args.get_or("batch", 64usize)?;
    let nodes = args.list_or("nodes", &[1, 2, 4, 8, 16])?;
    let model = persist::load_training_model(model_path)?;
    let m = model_metrics(name, image)?;
    let curve = throughput_vs_nodes(&model, &m, batch, &nodes, 4);
    writeln!(out, "{name} @ {image}px, batch {batch}/device:")?;
    writeln!(out, "  nodes  devices  step (ms)  images/s")?;
    for p in &curve {
        writeln!(
            out,
            "  {:>5}  {:>7}  {:>9.2}  {:>8.0}",
            p.nodes,
            p.devices,
            p.step_time * 1e3,
            p.images_per_sec
        )?;
    }
    let tp = turning_point(&curve, 0.05);
    writeln!(out, "  diminishing-returns turning point: ~{tp} nodes")?;
    Ok(())
}

/// `convmeter scale-batch --model-file FILE <model> [--batches 8,...,4096] [--nodes 1]`
pub fn scale_batch(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let model_path = args.required("model-file")?;
    let name = args.positional(0, "model")?;
    let image = args.get_or("image", 128usize)?;
    let nodes = args.get_or("nodes", 1usize)?;
    let batches = args.list_or("batches", &[8, 16, 32, 64, 128, 256, 512, 1024, 2048])?;
    let model = persist::load_training_model(model_path)?;
    let m = model_metrics(name, image)?;
    let device = DeviceProfile::a100_80gb();
    let curve = throughput_vs_batch(&model, &m, &batches, nodes, 4);
    writeln!(out, "{name} @ {image}px, {nodes} node(s):")?;
    writeln!(out, "  batch/dev  images/s  fits 80GB")?;
    for p in &curve {
        let fits = training_memory_bytes(&m, p.per_device_batch) <= device.memory_capacity;
        writeln!(
            out,
            "  {:>9}  {:>8.0}  {}",
            p.per_device_batch,
            p.images_per_sec,
            if fits { "yes" } else { "no (extrapolated)" }
        )?;
    }
    Ok(())
}

/// `convmeter bottlenecks --model-file FILE <model> [--image] [--batch] [--top N]`
pub fn bottlenecks(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let model_path = args.required("model-file")?;
    let name = args.positional(0, "model")?;
    let image = args.get_or("image", 224usize)?;
    let batch = args.get_or("batch", 32usize)?;
    let top = args.get_or("top", 10usize)?;
    let model = persist::load_forward_model(model_path)?;
    let spec =
        zoo::by_name(name).ok_or_else(|| CliError::Usage(format!("unknown model '{name}'")))?;
    let graph = spec.build(image, 1000);
    let metrics = ModelMetrics::of(&graph)?;
    let report = convmeter::bottleneck_report(&model, &graph, &metrics, batch)
        .map_err(|e| CliError::Usage(e.to_string()))?;
    writeln!(
        out,
        "{name} @ {image}px batch {batch} — top {top} blocks by predicted latency:"
    )?;
    writeln!(
        out,
        "  {:<24} {:>10} {:>7} {:>10}",
        "block", "latency", "share", "GFLOPs"
    )?;
    for b in report.blocks.iter().take(top) {
        writeln!(
            out,
            "  {:<24} {:>7.3} ms {:>6.1}% {:>10.2}",
            b.block,
            b.predicted * 1e3,
            b.share * 100.0,
            b.flops as f64 / 1e9
        )?;
    }
    writeln!(
        out,
        "  whole-model prediction: {:.3} ms",
        report.whole_model * 1e3
    )?;
    Ok(())
}

/// `convmeter eval --data FILE`
pub fn eval(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let data = persist::load_inference_dataset(args.required("data")?)?;
    let (reports, _, overall) = leave_one_model_out_inference(&data)
        .map_err(|e| CliError::Usage(format!("evaluation failed: {e}")))?;
    writeln!(
        out,
        "leave-one-model-out evaluation ({} points):",
        data.len()
    )?;
    for r in &reports {
        writeln!(out, "  {:<22} {}", r.model, r.report)?;
    }
    writeln!(out, "  overall: {overall}")?;
    Ok(())
}

/// `convmeter compare-strategies <model> [--nodes N] [--batch B] [--image I]`
pub fn compare_strategies(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use convmeter_distsim::{
        expected_distributed_phases_with_strategy, ClusterConfig, SyncStrategy,
    };
    let name = args.positional(0, "model")?;
    let image = args.get_or("image", 128usize)?;
    let batch = args.get_or("batch", 64usize)?;
    let nodes = args.get_or("nodes", 4usize)?;
    let device = DeviceProfile::a100_80gb();
    let metrics = model_metrics(name, image)?;
    let cluster = ClusterConfig::hpc_cluster(nodes);
    writeln!(
        out,
        "{name} @ {image}px, batch {batch}/device, {nodes} nodes x 4 GPUs (simulated):"
    )?;
    writeln!(
        out,
        "  strategy          step (ms)  grad update (ms)  images/s"
    )?;
    for (label, strategy) in [
        ("flat ring", SyncStrategy::FlatRing),
        ("hierarchical", SyncStrategy::Hierarchical),
        ("parameter server", SyncStrategy::ParameterServer),
    ] {
        let p =
            expected_distributed_phases_with_strategy(&device, &cluster, &metrics, batch, strategy);
        writeln!(
            out,
            "  {:<16}  {:>9.2}  {:>16.2}  {:>8.0}",
            label,
            p.total() * 1e3,
            p.grad_update * 1e3,
            (batch * cluster.total_devices()) as f64 / p.total()
        )?;
    }
    Ok(())
}

/// `convmeter nas --model-file FILE [--budget-ms B] [--batch N]
/// [--image I] [--population P] [--rounds R] [--seed S]`
pub fn nas(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use convmeter::nas::{search, NasConfig};
    let model_path = args.required("model-file")?;
    let model = persist::load_forward_model(model_path)?;
    let cfg = NasConfig {
        latency_budget: args.get_or("budget-ms", 2.0f64)? * 1e-3,
        batch: args.get_or("batch", 16usize)?,
        image_size: args.get_or("image", 64usize)?,
        population: args.get_or("population", 32usize)?,
        rounds: args.get_or("rounds", 5usize)?,
        seed: args.get_or("seed", 42u64)?,
    };
    let result = search(&model, &cfg);
    writeln!(
        out,
        "evaluated {} candidates against a {:.2} ms budget (batch {}, {} px)",
        result.evaluations,
        cfg.latency_budget * 1e3,
        cfg.batch,
        cfg.image_size
    )?;
    match &result.best {
        Some(best) => {
            writeln!(out, "best feasible architecture: {}", best.name)?;
            writeln!(
                out,
                "  predicted latency {:.3} ms, {:.2} GFLOPs, {:.2} M params",
                best.predicted_latency * 1e3,
                best.flops as f64 / 1e9,
                best.weights as f64 / 1e6
            )?;
        }
        None => writeln!(out, "no feasible architecture found; relax the budget")?,
    }
    Ok(())
}

/// `convmeter calibrate --data FILE --out PROFILE [--device gpu|cpu]`
///
/// The data file is a JSON array of `{"model": .., "image": .., "batch": ..,
/// "measured_s": ..}` observations from the user's real hardware.
pub fn calibrate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    #[derive(serde::Deserialize)]
    struct Row {
        model: String,
        image: usize,
        batch: usize,
        measured_s: f64,
    }
    let data_path = args.required("data")?;
    let out_path = args.required("out")?;
    let base = device_by_name(args.get_or("device", "gpu".to_string())?.as_str())?;
    let body = std::fs::read_to_string(data_path)?;
    let rows: Vec<Row> = serde_json::from_str(&body)
        .map_err(|e| CliError::Usage(format!("bad calibration data: {e}")))?;
    if rows.is_empty() {
        return Err(CliError::Usage("calibration data is empty".into()));
    }
    // Resolve metrics once per (model, image).
    let mut cache: std::collections::BTreeMap<(String, usize), ModelMetrics> =
        std::collections::BTreeMap::new();
    for r in &rows {
        if let std::collections::btree_map::Entry::Vacant(e) =
            cache.entry((r.model.clone(), r.image))
        {
            e.insert(model_metrics(&r.model, r.image)?);
        }
    }
    let observations: Vec<convmeter_hwsim::Observation<'_>> = rows
        .iter()
        .map(|r| convmeter_hwsim::Observation {
            metrics: &cache[&(r.model.clone(), r.image)],
            batch: r.batch,
            measured: r.measured_s,
        })
        .collect();
    let cal = convmeter_hwsim::calibrate(&base, &observations);
    persist::save_device_profile(out_path, &cal.profile)?;
    writeln!(
        out,
        "calibrated on {} observations: RMSLE {:.4} -> {:.4}",
        rows.len(),
        cal.initial_rmsle,
        cal.final_rmsle
    )?;
    writeln!(
        out,
        "  compute efficiency {:.3}, memory efficiency {:.3}, launch {:.2} us, base {:.2} us",
        cal.profile.compute_efficiency,
        cal.profile.memory_efficiency,
        cal.profile.kernel_launch_overhead * 1e6,
        cal.profile.base_overhead * 1e6
    )?;
    writeln!(out, "profile saved to {out_path}")?;
    Ok(())
}

/// `convmeter lint [<model>...] [--image N] [--json] [--model-file FILE]
/// [--data FILE]`
///
/// Runs the static graph lints over the named zoo models (or the whole zoo
/// when no models are given and no artefact options are present), plus the
/// fitted-model and dataset lints when `--model-file`/`--data` point at
/// persisted artefacts. Exits non-zero if any error-severity finding fires.
pub fn lint(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use convmeter_graph::{lint_graph, LintReport};

    #[derive(serde::Serialize)]
    struct LintTarget {
        target: String,
        report: LintReport,
    }

    let image = args.get_or("image", 224usize)?;
    let mut targets: Vec<LintTarget> = Vec::new();

    let names: Vec<String> = if !args.positionals().is_empty() {
        args.positionals().to_vec()
    } else if args.opt("model-file").is_none() && args.opt("data").is_none() {
        zoo::ZOO
            .iter()
            .chain(zoo::EXTENDED_ZOO)
            .map(|s| s.name.to_string())
            .collect()
    } else {
        Vec::new()
    };

    for name in &names {
        let spec = zoo::by_name(name).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown model '{name}'; see `convmeter list-models`"
            ))
        })?;
        let size = image.max(spec.min_image_size);
        targets.push(LintTarget {
            target: format!("{name}@{size}px"),
            report: lint_graph(&spec.build(size, 1000)),
        });
    }

    if let Some(path) = args.opt("model-file") {
        let model = persist::load_forward_model(path)?;
        targets.push(LintTarget {
            target: format!("model {path}"),
            report: convmeter::lint_forward_model(&model),
        });
    }
    if let Some(path) = args.opt("data") {
        let data = persist::load_inference_dataset(path)?;
        targets.push(LintTarget {
            target: format!("dataset {path}"),
            report: convmeter::lint_design_matrix(&data),
        });
    }

    let errors: usize = targets.iter().map(|t| t.report.error_count()).sum();
    let warnings: usize = targets.iter().map(|t| t.report.warning_count()).sum();

    if args.switch("json") {
        let json = serde_json::to_string_pretty(&targets)
            .map_err(|e| CliError::Usage(format!("json encoding failed: {e}")))?;
        writeln!(out, "{json}")?;
    } else {
        for t in &targets {
            if t.report.is_clean() {
                writeln!(out, "{}: clean", t.target)?;
            } else {
                writeln!(out, "{}:", t.target)?;
                for d in &t.report.diagnostics {
                    writeln!(out, "  {d}")?;
                }
            }
        }
        writeln!(
            out,
            "{} target(s) linted: {errors} error(s), {warnings} warning(s)",
            targets.len()
        )?;
    }
    if errors > 0 {
        return Err(CliError::Lint { errors });
    }
    Ok(())
}

/// `convmeter analyze [--json] [--github] [--stats] [--budget FILE]`
///
/// Runs the determinism auditor (`convmeter-analyzer`) over every workspace
/// source file in one sequential pass and reports CA, CD, CB and CP-coded
/// findings. Exit status is non-zero when any finding is unsuppressed, so
/// CI can gate on it; suppressions are inline `analyzer:allow` comments
/// (rule code plus a mandatory reason) at the offending site.
///
/// `--github` mirrors findings to stderr as GitHub Actions workflow
/// annotations and composes with `--json` on stdout. `--stats` appends the
/// per-rule suppression counts (to stderr under `--json`, keeping stdout
/// parseable); `--budget FILE` gates those counts against the committed
/// `analyzer_budget.json` caps.
pub fn analyze(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let report = convmeter_analyzer::analyze_workspace(&workspace_root()?)
        .map_err(CliError::AnalyzeSetup)?;
    let json = args.switch("json");
    if json {
        writeln!(out, "{}", report.to_json())?;
    } else {
        write!(out, "{}", report.to_text())?;
    }
    if args.switch("stats") {
        let mut lines = vec!["suppressions by rule:".to_string()];
        if report.allow_counts.is_empty() {
            lines.push("  (none)".to_string());
        }
        for (code, n) in &report.allow_counts {
            lines.push(format!("  {code}: {n}"));
        }
        for line in lines {
            if json {
                eprintln!("{line}");
            } else {
                writeln!(out, "{line}")?;
            }
        }
    }
    if args.switch("github") {
        for f in &report.findings {
            eprintln!(
                "::error file={},line={},title={}::{}",
                f.path, f.line, f.code, f.message
            );
        }
    }
    let over_budget = match args.opt("budget") {
        Some(path) => {
            let text = std::fs::read_to_string(path)?;
            let budget = convmeter_analyzer::budget::parse(&text).map_err(CliError::Usage)?;
            let violations = convmeter_analyzer::budget::check(&budget, &report.allow_counts);
            for v in &violations {
                eprintln!("budget: {v}");
            }
            violations.len()
        }
        None => 0,
    };
    if !report.is_clean() {
        Err(CliError::Analyze {
            findings: report.findings.len(),
        })
    } else if over_budget > 0 {
        Err(CliError::Budget { rules: over_budget })
    } else {
        Ok(())
    }
}

/// Locate the workspace root by walking up from the current directory
/// until a `Cargo.toml` next to a `crates/` directory appears.
fn workspace_root() -> Result<std::path::PathBuf, CliError> {
    let start = std::env::current_dir()?;
    let mut dir = start.as_path();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Ok(dir.to_path_buf());
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => {
                return Err(CliError::Usage(format!(
                    "cannot find the workspace root above {}: run `convmeter analyze` \
                     from inside the repository",
                    start.display()
                )))
            }
        }
    }
}

/// `convmeter dot <model> [--image N]`
pub fn dot(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let name = args.positional(0, "model")?;
    let image = args.get_or("image", 224usize)?;
    let spec =
        zoo::by_name(name).ok_or_else(|| CliError::Usage(format!("unknown model '{name}'")))?;
    let graph = spec.build(image, 1000);
    write!(out, "{}", convmeter_graph::dot::to_dot(&graph))?;
    Ok(())
}

/// `convmeter bench [--list] [--only a,b,...] [--jobs N] [--no-cache]
/// [--faults PROFILE] [--keep-going] [--retries N] [--timeout-secs S]`
///
/// Drives the unified experiment engine: regenerates paper artefacts under
/// the results directory with a shared content-addressed dataset cache and
/// parallel scheduling. `--list` prints the registry without running
/// anything. The fault-tolerance flags set the engine's per-attempt
/// policy: `--faults` injects a named deterministic fault profile into
/// every dataset sweep, `--retries`/`--timeout-secs` bound each
/// experiment's attempts, and `--keep-going` records failures in the v3
/// manifest instead of aborting (the exit status is still non-zero).
pub fn bench(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use convmeter_bench::engine::{registry, Engine, EngineConfig};
    use convmeter_hwsim::FaultProfile;

    if args.switch("list") {
        writeln!(out, "{:<14} {:<34} title", "name", "artefacts")?;
        for exp in registry() {
            writeln!(
                out,
                "{:<14} {:<34} {}",
                exp.name(),
                exp.artifacts().join(","),
                exp.title()
            )?;
        }
        writeln!(out, "{} experiment(s) registered", registry().len())?;
        return Ok(());
    }

    let mut config = EngineConfig::from_env();
    config.jobs = args.get_or("jobs", config.jobs)?;
    config.use_disk_cache = !args.switch("no-cache");
    config.fault.keep_going = args.switch("keep-going");
    config.fault.retries = args.get_or("retries", 0usize)?;
    config.fault.timeout_secs = args
        .opt("timeout-secs")
        .map(str::parse)
        .transpose()
        .map_err(|_| {
            CliError::Usage(format!(
                "--timeout-secs={}: expected seconds",
                args.opt("timeout-secs").unwrap_or_default()
            ))
        })?;
    if let Some(name) = args.opt("faults") {
        let profile = FaultProfile::by_name(name).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown fault profile '{name}' (builtin: {})",
                FaultProfile::builtin_names().join(", ")
            ))
        })?;
        config.fault.faults = Some(profile);
    }
    let results_dir = config.results_dir.clone();

    let engine = match args.opt("only") {
        Some(list) => {
            let names: Vec<&str> = list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            if names.is_empty() {
                return Err(CliError::Usage("--only needs experiment names".into()));
            }
            Engine::select(&names, config)?
        }
        None => Engine::all(config),
    };
    let report = engine.run()?;
    for (_, text) in &report.rendered {
        write!(out, "{text}")?;
    }
    let m = &report.manifest;
    let artefacts: usize = m.experiments.iter().map(|e| e.artifacts.len()).sum();
    writeln!(
        out,
        "{} experiment(s), {} artefact(s) written to {} — datasets: {} built, {} disk hit(s), {} memory hit(s)",
        m.experiments.len(),
        artefacts,
        results_dir.display(),
        m.total_builds(),
        m.total_disk_hits(),
        m.total_memory_hits(),
    )?;
    if !m.failures.is_empty() {
        for failure in &m.failures {
            writeln!(
                out,
                "QUARANTINED {} after {} attempt(s): {}",
                failure.name,
                failure.attempts.len(),
                failure.error
            )?;
        }
        return Err(CliError::Quarantined {
            failed: m.failures.len(),
        });
    }
    Ok(())
}

/// `convmeter profile [--quick] [--json] [--out FILE] [--jobs N]
/// [--baseline FILE] [--tolerance 0.25]`
///
/// Runs the deterministic observability workload, writes the timed profile
/// to `results/BENCH_profile.json` (or `--out`), prints either a human
/// summary or — with `--json` — the byte-deterministic view, and, when
/// `--baseline` is given, gates the run against it.
pub fn profile(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use convmeter_bench::profile::{run_profile, write_profile, ProfileOptions, PROFILE_FILE};
    use convmeter_metrics::obs;

    let results_dir = convmeter_bench::report::results_dir();
    let opts = ProfileOptions {
        quick: args.switch("quick"),
        // One worker keeps the engine phase's pool gauges deterministic.
        jobs: args.get_or("jobs", 1usize)?,
        results_dir: results_dir.clone(),
    };
    let profile = run_profile(&opts)?;
    let out_path = match args.opt("out") {
        Some(p) => std::path::PathBuf::from(p),
        None => results_dir.join(PROFILE_FILE),
    };
    write_profile(&profile, &out_path)?;

    // Coverage assertions: the workload must have exercised the compiled
    // lowering and the leave-one-model-out evaluators — a profile (or gate
    // run) that skipped them would be measuring a stale workload and
    // silently pass.
    let required_spans = ["compile.model", "convmeter.eval"];
    let flat = profile.flat_spans();
    let missing: Vec<&str> = required_spans
        .iter()
        .copied()
        .filter(|needle| !flat.keys().any(|p| p.split('/').any(|s| s == *needle)))
        .collect();
    if !missing.is_empty() {
        for span in &missing {
            writeln!(
                out,
                "perf gate: [missing-span] {span}: required workload span never ran"
            )?;
        }
        return Err(CliError::Gate {
            findings: missing.len(),
        });
    }

    if args.switch("json") {
        writeln!(out, "{}", profile.deterministic().to_json())?;
    } else {
        writeln!(
            out,
            "profile workload '{}' ({} span path(s), {} counter(s)) written to {}",
            profile.workload,
            profile.flat_spans().len(),
            profile.metrics.counters.len(),
            out_path.display()
        )?;
        for span in &profile.spans {
            writeln!(
                out,
                "  {:<24} count {:>5}  total {:>9.3} ms",
                span.name, span.count, span.total_ms
            )?;
        }
    }

    if let Some(baseline_path) = args.opt("baseline") {
        let text = std::fs::read_to_string(baseline_path)
            .map_err(|e| CliError::Usage(format!("cannot read baseline {baseline_path}: {e}")))?;
        let baseline = obs::Profile::from_json(&text).map_err(CliError::Usage)?;
        let tolerance = args.get_or("tolerance", 0.25f64)?;
        let report = profile.compare(&baseline, tolerance);
        for finding in &report.findings {
            writeln!(out, "perf gate: {finding}")?;
        }
        if !report.passed() {
            return Err(CliError::Gate {
                findings: report.findings.len(),
            });
        }
        writeln!(
            out,
            "perf gate passed: {} span(s) within {:.0}% of baseline",
            report.gated_spans,
            tolerance * 100.0
        )?;
    }
    Ok(())
}

/// `convmeter serve`: run the HTTP prediction API until interrupted (or
/// until `--requests N` connections have been accepted — the bounded mode
/// the smoke gate uses).
pub fn serve(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use convmeter_serve::{ServeConfig, ServeState, Server, ServerConfig};
    use std::sync::Arc;

    let host = args.opt("host").unwrap_or("127.0.0.1").to_string();
    let port: u16 = args.get_or("port", 8077u16)?;
    let max_requests =
        match args.opt("requests") {
            None => None,
            Some(v) => Some(v.parse::<u64>().map_err(|_| {
                CliError::Usage(format!("--requests={v}: expected a request count"))
            })?),
        };
    let state = Arc::new(ServeState::new(&ServeConfig {
        // Persist calibration datasets next to the other artefacts so
        // server restarts skip the sweep (CONVMETER_RESULTS-relative).
        disk_cache_dir: Some(convmeter_bench::report::results_dir().join("serve-store")),
        cache_capacity: args.get_or("cache-capacity", 256usize)?,
    }));
    if args.switch("warm") {
        for device in ["gpu", "cpu"] {
            state
                .warm(device, "fp32")
                .map_err(|e| CliError::Usage(format!("warmup failed for {device}: {e}")))?;
            writeln!(out, "warmed {device} coefficient shard")?;
        }
    }
    let defaults = ServerConfig::default();
    let server = Server::start(
        state,
        &ServerConfig {
            host,
            port,
            max_requests,
            workers: args.get_or("workers", defaults.workers)?,
            queue_capacity: args.get_or("queue-capacity", defaults.queue_capacity)?,
            max_connections: args.get_or("max-connections", defaults.max_connections)?,
            request_deadline: std::time::Duration::from_millis(args.get_or(
                "request-deadline-ms",
                defaults.request_deadline.as_millis() as u64,
            )?),
            drain_timeout: std::time::Duration::from_millis(args.get_or(
                "drain-timeout-ms",
                defaults.drain_timeout.as_millis() as u64,
            )?),
        },
    )?;
    writeln!(out, "listening on http://{}", server.addr())?;
    out.flush()?;
    server.wait();
    writeln!(out, "server stopped")?;
    Ok(())
}

/// `convmeter loadgen`: replay a seeded query stream, write the timed
/// [`convmeter_serve::SloReport`], and optionally gate it against a
/// committed baseline.
pub fn loadgen(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use convmeter_serve::loadgen::{run, LoadgenConfig, Workload};
    use convmeter_serve::{slo, ChaosProfile};

    let workload = if args.switch("quick") {
        Workload::Quick
    } else {
        Workload::Full
    };
    let default_requests = match workload {
        Workload::Quick => 64u64,
        Workload::Full => 256u64,
    };
    let addr = match args.opt("addr") {
        None => None,
        Some(v) => Some(
            v.parse::<std::net::SocketAddr>()
                .map_err(|_| CliError::Usage(format!("--addr={v}: expected HOST:PORT")))?,
        ),
    };
    let chaos_name = args.opt("chaos").unwrap_or("none");
    let chaos = ChaosProfile::by_name(chaos_name).ok_or_else(|| {
        CliError::Usage(format!(
            "--chaos={chaos_name}: unknown profile (builtins: {})",
            ChaosProfile::builtin_names().join(", ")
        ))
    })?;
    let config = LoadgenConfig {
        workload,
        seed: args.get_or("seed", 7u64)?,
        requests: args.get_or("requests", default_requests)?,
        clients: args.get_or("clients", 4u64)?,
        addr,
        chaos,
    };
    let report = run(&config).map_err(|e| CliError::Usage(format!("loadgen failed: {e}")))?;

    let out_path = match args.opt("out") {
        Some(p) => std::path::PathBuf::from(p),
        None => convmeter_bench::report::results_dir().join("BENCH_slo_report.json"),
    };
    if let Some(parent) = out_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&out_path, report.to_json())?;

    if let Some(baseline_out) = args.opt("write-baseline") {
        let baseline = slo::SloBaseline {
            slo_format: slo::SLO_FORMAT,
            contract: slo::default_contract(),
            report: report.deterministic_view(),
        };
        std::fs::write(baseline_out, baseline.to_json())?;
        writeln!(out, "baseline written to {baseline_out}")?;
    }

    if args.switch("json") {
        writeln!(out, "{}", report.deterministic_view().to_json())?;
    } else {
        writeln!(
            out,
            "loadgen '{}' seed {}: {} requests over {} client(s), {} distinct queries",
            report.workload, report.seed, report.requests, report.clients, report.distinct_queries
        )?;
        writeln!(
            out,
            "  ok {}  errors {}  cache builds {}  served from cache {}",
            report.ok, report.errors, report.cache_builds, report.cache_served
        )?;
        writeln!(
            out,
            "  latency p50 {} us  p99 {} us  mean {} us  throughput {:.1} req/s",
            report.latency_p50_us,
            report.latency_p99_us,
            report.latency_mean_us,
            report.throughput_rps
        )?;
        if report.chaos_profile != "none" {
            writeln!(
                out,
                "  chaos '{}': {} fault(s) injected, {} mismatch(es), {} burst request(s)",
                report.chaos_profile,
                report.chaos_faults,
                report.chaos_mismatches,
                report.burst_requests
            )?;
        }
        writeln!(out, "  stream digest {}", report.stream_digest)?;
        writeln!(out, "  report written to {}", out_path.display())?;
    }

    if let Some(baseline_path) = args.opt("baseline") {
        let text = std::fs::read_to_string(baseline_path)
            .map_err(|e| CliError::Usage(format!("cannot read baseline {baseline_path}: {e}")))?;
        let baseline = slo::SloBaseline::from_json(&text).map_err(CliError::Usage)?;
        let tolerance = args.get_or("tolerance", 0.5f64)?;
        let findings = slo::compare(&report, &baseline, tolerance);
        for finding in &findings {
            writeln!(out, "slo gate: {finding}")?;
        }
        if !findings.is_empty() {
            return Err(CliError::Gate {
                findings: findings.len(),
            });
        }
        writeln!(
            out,
            "slo gate passed: deterministic fields match, timed fields within contract (+{:.0}%)",
            tolerance * 100.0
        )?;
    }

    // Chaos gate: a fault that drew the wrong status code or a panicking
    // client worker fails the run even though the report was written.
    if report.chaos_mismatches > 0 || report.client_panics > 0 {
        return Err(CliError::Chaos {
            mismatches: report.chaos_mismatches,
            panics: report.client_panics,
        });
    }
    Ok(())
}
