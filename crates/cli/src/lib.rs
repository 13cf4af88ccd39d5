//! The `convmeter` command-line tool.
//!
//! Subcommands cover the full paper workflow:
//!
//! ```text
//! convmeter list-models                               # the model zoo
//! convmeter metrics resnet50 --image 224 --batch 32   # static F/I/O/W/L
//! convmeter benchmark --device gpu --out data.json    # run a sweep
//! convmeter fit --data data.json --out model.json     # fit Eq. 2
//! convmeter predict --model-file model.json resnet50 --batch 32
//! convmeter predict-training --model-file train.json resnet50 --nodes 4
//! convmeter scale-nodes --model-file train.json alexnet --batch 64
//! convmeter scale-batch --model-file train.json resnet18
//! convmeter bottlenecks --model-file model.json resnet50
//! convmeter eval --data data.json                     # LOOCV per model
//! convmeter bench --only table1,fig3 --jobs 4         # paper artefacts
//! convmeter bench --list                              # the registry
//! convmeter profile --quick --json                    # observability snapshot
//! convmeter serve --port 8077                         # HTTP prediction API
//! convmeter loadgen --quick --seed 7                  # replay a query stream
//! convmeter lint                                      # lint the whole zoo
//! convmeter lint resnet50 --json                      # machine-readable
//! convmeter dot resnet18 > resnet18.dot               # Graphviz export
//! ```

pub mod args;
pub mod commands;

use args::{ArgError, Args};
use std::io::Write;

/// Top-level CLI errors.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation: unknown command, bad flags, unknown model, ...
    Usage(String),
    /// Argument parsing failed.
    Args(ArgError),
    /// I/O failure writing output.
    Io(std::io::Error),
    /// Persistence failure loading/saving artefacts.
    Persist(convmeter::persist::PersistError),
    /// Graph construction or shape inference failed.
    Graph(convmeter_graph::GraphError),
    /// A benchmark sweep could not run (unknown model, failed lint, ...).
    Sweep(convmeter_hwsim::SweepError),
    /// `convmeter lint` found error-severity diagnostics.
    Lint {
        /// Number of error-severity findings across all linted targets.
        errors: usize,
    },
    /// `convmeter bench` failed inside the experiment engine.
    Engine(convmeter_bench::engine::EngineError),
    /// `convmeter profile --baseline` found performance regressions.
    Gate {
        /// Number of gate findings (regressions + drift).
        findings: usize,
    },
    /// `convmeter bench --keep-going` quarantined failing experiments:
    /// the rest of the run completed, but the exit status must be
    /// non-zero so CI notices.
    Quarantined {
        /// Number of experiments that exhausted their attempts.
        failed: usize,
    },
    /// `convmeter loadgen` saw chaos fault mismatches or client worker
    /// panics: the report was still written, but CI must notice.
    Chaos {
        /// Injected faults whose observed outcome diverged from the
        /// expected status mapping.
        mismatches: u64,
        /// Client worker threads that panicked mid-run.
        panics: u64,
    },
    /// `convmeter analyze` found unsuppressed CA findings.
    Analyze {
        /// Number of unsuppressed findings.
        findings: usize,
    },
    /// `convmeter analyze` could not read the workspace sources.
    AnalyzeSetup(convmeter_analyzer::AnalyzeError),
    /// `convmeter analyze --budget` found per-rule suppression counts
    /// above the committed caps (the budget only ratchets down).
    Budget {
        /// Number of rules over their cap.
        rules: usize,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Persist(e) => write!(f, "{e}"),
            CliError::Graph(e) => write!(f, "graph error: {e}"),
            CliError::Sweep(e) => write!(f, "sweep error: {e}"),
            CliError::Lint { errors } => {
                write!(f, "lint found {errors} error(s)")
            }
            CliError::Engine(e) => write!(f, "bench error: {e}"),
            CliError::Gate { findings } => {
                write!(f, "perf gate failed with {findings} finding(s)")
            }
            CliError::Quarantined { failed } => {
                write!(f, "bench quarantined {failed} failing experiment(s)")
            }
            CliError::Chaos { mismatches, panics } => {
                write!(
                    f,
                    "loadgen chaos gate failed: {mismatches} fault mismatch(es), {panics} client panic(s)"
                )
            }
            CliError::Analyze { findings } => {
                write!(f, "analyze found {findings} unsuppressed finding(s)")
            }
            CliError::AnalyzeSetup(e) => write!(f, "analyze failed: {e}"),
            CliError::Budget { rules } => {
                write!(f, "suppression budget exceeded for {rules} rule(s)")
            }
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Args(e) => Some(e),
            CliError::Io(e) => Some(e),
            CliError::Persist(e) => Some(e),
            CliError::Graph(e) => Some(e),
            CliError::Sweep(e) => Some(e),
            CliError::Engine(e) => Some(e),
            CliError::AnalyzeSetup(e) => Some(e),
            CliError::Usage(_)
            | CliError::Lint { .. }
            | CliError::Gate { .. }
            | CliError::Quarantined { .. }
            | CliError::Chaos { .. }
            | CliError::Analyze { .. }
            | CliError::Budget { .. } => None,
        }
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<convmeter::persist::PersistError> for CliError {
    fn from(e: convmeter::persist::PersistError) -> Self {
        CliError::Persist(e)
    }
}

impl From<convmeter_graph::GraphError> for CliError {
    fn from(e: convmeter_graph::GraphError) -> Self {
        CliError::Graph(e)
    }
}

impl From<convmeter_hwsim::SweepError> for CliError {
    fn from(e: convmeter_hwsim::SweepError) -> Self {
        CliError::Sweep(e)
    }
}

impl From<convmeter_bench::engine::EngineError> for CliError {
    fn from(e: convmeter_bench::engine::EngineError) -> Self {
        CliError::Engine(e)
    }
}

/// Usage text printed by `convmeter help`.
pub const USAGE: &str = "\
convmeter — ConvNet runtime & scalability prediction (ConvMeter, ICPP'24)

USAGE: convmeter <command> [args]

COMMANDS:
  list-models                       list the model zoo
  metrics <model>                   static metrics (F, I, O, W, L)
                                      [--image 224] [--batch 1]
  benchmark                         run a benchmark sweep and save it
                                      --out FILE [--device gpu|cpu]
                                      [--kind inference|training] [--quick]
                                      [--jobs N]
  benchmark-distributed             multi-node training sweep
                                      --out FILE [--nodes 1,2,4,8,16] [--quick]
                                      [--jobs N]
  fit                               fit a performance model from a dataset
                                      --data FILE --out FILE
                                      [--kind inference|training]
  predict <model>                   predict inference time
                                      --model-file FILE [--image] [--batch]
  predict-training <model>          predict a training step / epoch
                                      --model-file FILE [--batch] [--nodes]
                                      [--dataset-size D] [--epochs E]
  scale-nodes <model>               throughput vs node count
                                      --model-file FILE [--batch] [--nodes ...]
  scale-batch <model>               throughput vs batch size
                                      --model-file FILE [--batches ...]
  bottlenecks <model>               rank blocks by predicted latency
                                      --model-file FILE [--batch] [--top N]
  compare-strategies <model>        flat ring vs hierarchical vs param server
                                      [--nodes N] [--batch B]
  nas                               latency-constrained architecture search
                                      --model-file FILE [--budget-ms B]
  calibrate                         fit a device profile to real measurements
                                      --data FILE --out PROFILE
  eval                              leave-one-model-out accuracy report
                                      --data FILE
  bench                             regenerate paper artefacts (engine)
                                      [--list] [--only table1,fig3,...]
                                      [--jobs N] [--no-cache]
                                      [--faults none|light|heavy|ci-smoke]
                                      [--keep-going] [--retries N]
                                      [--timeout-secs S]
  profile                           deterministic observability workload
                                      [--quick] [--json] [--out FILE]
                                      [--jobs N] [--baseline FILE]
                                      [--tolerance 0.25]
  serve                             long-running HTTP prediction API
                                      (/predict, /healthz, /metrics)
                                      [--host 127.0.0.1] [--port 8077]
                                      [--requests N] [--warm]
                                      [--cache-capacity 256]
                                      [--workers 8] [--queue-capacity 64]
                                      [--max-connections 256]
                                      [--request-deadline-ms 10000]
                                      [--drain-timeout-ms 5000]
  loadgen                           deterministic load generator + SLO report
                                      [--quick] [--seed 7] [--requests N]
                                      [--clients 4] [--addr HOST:PORT]
                                      [--chaos none|light|heavy|ci-smoke]
                                      [--out FILE] [--json]
                                      [--baseline FILE] [--tolerance 0.5]
                                      [--write-baseline FILE]
  lint [<model>...]                 static graph & model lints (CMxxxx codes)
                                      [--image N] [--json]
                                      [--model-file FILE] [--data FILE]
  analyze                           source-level determinism audit (CAxxxx
                                      codes) over the workspace; --perf adds
                                      the hot-path CPxxxx rules [--json]
                                      [--github] [--jobs N] [--stats]
                                      [--sarif FILE] [--budget FILE]
                                      [--parse-cache DIR]
  dot <model>                       emit the graph in Graphviz DOT
  help                              show this message
";

/// Run the CLI with `argv` (excluding the program name), writing to `out`.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some(command) = argv.first() else {
        writeln!(out, "{USAGE}")?;
        return Err(CliError::Usage("no command given".into()));
    };
    let args = Args::parse(&argv[1..])?;
    if args.switch("help") {
        writeln!(out, "{USAGE}")?;
        return Ok(());
    }
    match command.as_str() {
        "list-models" => commands::list_models(out),
        "metrics" => commands::metrics(&args, out),
        "benchmark" => commands::benchmark(&args, out),
        "benchmark-distributed" => commands::benchmark_distributed(&args, out),
        "fit" => commands::fit(&args, out),
        "predict" => commands::predict(&args, out),
        "predict-training" => commands::predict_training(&args, out),
        "scale-nodes" => commands::scale_nodes(&args, out),
        "scale-batch" => commands::scale_batch(&args, out),
        "bottlenecks" => commands::bottlenecks(&args, out),
        "compare-strategies" => commands::compare_strategies(&args, out),
        "nas" => commands::nas(&args, out),
        "calibrate" => commands::calibrate(&args, out),
        "eval" => commands::eval(&args, out),
        "bench" => commands::bench(&args, out),
        "profile" => commands::profile(&args, out),
        "serve" => commands::serve(&args, out),
        "loadgen" => commands::loadgen(&args, out),
        "lint" => commands::lint(&args, out),
        "analyze" => commands::analyze(&args, out),
        "dot" => commands::dot(&args, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => {
            writeln!(out, "{USAGE}")?;
            Err(CliError::Usage(format!("unknown command '{other}'")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(argv: &[&str]) -> Result<String, CliError> {
        let mut buf = Vec::new();
        let argv: Vec<String> = argv.iter().map(std::string::ToString::to_string).collect();
        run(&argv, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    fn tmpfile(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("convmeter-cli-{name}-{}.json", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let out = run_str(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("scale-nodes"));
    }

    #[test]
    fn command_help_prints_usage_without_running() {
        let dir = std::env::temp_dir().join(format!("convmeter-cli-help-{}", std::process::id()));
        std::env::set_var("CONVMETER_RESULTS", &dir);
        let out = run_str(&["bench", "--help"]);
        std::env::remove_var("CONVMETER_RESULTS");
        assert!(out.unwrap().contains("USAGE"));
        assert!(!dir.join("manifest.json").exists());
    }

    #[test]
    fn unknown_command_fails_with_usage() {
        let mut buf = Vec::new();
        let err = run(&["frobnicate".to_string()], &mut buf).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(String::from_utf8(buf).unwrap().contains("USAGE"));
    }

    #[test]
    fn list_models_shows_zoo() {
        let out = run_str(&["list-models"]).unwrap();
        assert!(out.contains("resnet50"));
        assert!(out.contains("efficientnet_b0"));
        // 17 paper models + 16 extended + header.
        assert_eq!(out.lines().count(), 34);
        assert!(out.contains("efficientnet_b4"));
    }

    #[test]
    fn metrics_prints_static_values() {
        let out = run_str(&["metrics", "resnet50", "--image", "224", "--batch", "2"]).unwrap();
        assert!(out.contains("FLOPs"));
        assert!(out.contains("25557032"), "{out}");
    }

    #[test]
    fn metrics_rejects_unknown_model_and_small_image() {
        assert!(run_str(&["metrics", "resnet999"]).is_err());
        assert!(run_str(&["metrics", "inception_v3", "--image", "32"]).is_err());
    }

    #[test]
    fn benchmark_fit_predict_roundtrip() {
        let data = tmpfile("data");
        let model = tmpfile("model");
        let out = run_str(&["benchmark", "--out", &data, "--quick"]).unwrap();
        assert!(out.contains("inference points"));
        let out = run_str(&["fit", "--data", &data, "--out", &model]).unwrap();
        assert!(out.contains("fitted c1="));
        let out = run_str(&[
            "predict",
            "--model-file",
            &model,
            "resnet50",
            "--batch",
            "16",
        ])
        .unwrap();
        assert!(out.contains("predicted inference"));
        let out = run_str(&[
            "bottlenecks",
            "--model-file",
            &model,
            "resnet50",
            "--top",
            "3",
        ])
        .unwrap();
        assert!(out.contains("Bottleneck"));
        let out = run_str(&["eval", "--data", &data]).unwrap();
        assert!(out.contains("overall:"));
        std::fs::remove_file(data).ok();
        std::fs::remove_file(model).ok();
    }

    #[test]
    fn training_workflow() {
        let data = tmpfile("dist");
        let model = tmpfile("tmodel");
        run_str(&["benchmark-distributed", "--out", &data, "--quick"]).unwrap();
        let out = run_str(&[
            "fit", "--data", &data, "--kind", "training", "--out", &model,
        ])
        .unwrap();
        assert!(out.contains("training-step fit"));
        let out = run_str(&[
            "predict-training",
            "--model-file",
            &model,
            "resnet18",
            "--nodes",
            "4",
            "--dataset-size",
            "1281167",
            "--epochs",
            "90",
        ])
        .unwrap();
        assert!(out.contains("step total"));
        assert!(out.contains("90 epochs"));
        let out = run_str(&[
            "scale-nodes",
            "--model-file",
            &model,
            "alexnet",
            "--nodes",
            "1,2,4",
        ])
        .unwrap();
        assert!(out.contains("turning point"));
        let out = run_str(&["scale-batch", "--model-file", &model, "resnet18"]).unwrap();
        assert!(out.contains("batch/dev"));
        std::fs::remove_file(data).ok();
        std::fs::remove_file(model).ok();
    }

    #[test]
    fn compare_strategies_command() {
        let out = run_str(&["compare-strategies", "alexnet", "--nodes", "8"]).unwrap();
        assert!(out.contains("parameter server"));
        assert!(out.contains("hierarchical"));
    }

    #[test]
    fn benchmark_accepts_precision_flag() {
        let data = tmpfile("prec-data");
        let out = run_str(&[
            "benchmark",
            "--out",
            &data,
            "--quick",
            "--precision",
            "tf32",
        ])
        .unwrap();
        assert!(out.contains("inference points"));
        assert!(run_str(&[
            "benchmark",
            "--out",
            &data,
            "--quick",
            "--precision",
            "int4",
        ])
        .is_err());
        std::fs::remove_file(data).ok();
    }

    #[test]
    fn nas_command_finds_architecture() {
        let data = tmpfile("nas-data");
        let model = tmpfile("nas-model");
        run_str(&["benchmark", "--out", &data, "--quick"]).unwrap();
        run_str(&["fit", "--data", &data, "--out", &model]).unwrap();
        let out = run_str(&[
            "nas",
            "--model-file",
            &model,
            "--budget-ms",
            "4",
            "--population",
            "12",
            "--rounds",
            "2",
        ])
        .unwrap();
        assert!(out.contains("best feasible architecture"), "{out}");
        std::fs::remove_file(data).ok();
        std::fs::remove_file(model).ok();
    }

    #[test]
    fn calibrate_command_fits_profile() {
        // Build synthetic "real" measurements from a detuned simulator.
        use convmeter_hwsim::expected_inference_time;
        use convmeter_metrics::ModelMetrics;
        let mut truth = convmeter_hwsim::DeviceProfile::a100_80gb();
        truth.compute_efficiency *= 0.7;
        let mut rows = Vec::new();
        for model in ["resnet18", "vgg11"] {
            let m = ModelMetrics::of(
                &convmeter_models::zoo::by_name(model)
                    .unwrap()
                    .build(128, 1000),
            )
            .unwrap();
            for batch in [1usize, 16, 128] {
                rows.push(serde_json::json!({
                    "model": model,
                    "image": 128,
                    "batch": batch,
                    "measured_s": expected_inference_time(&truth, &m, batch),
                }));
            }
        }
        let data = tmpfile("cal-data");
        let profile = tmpfile("cal-profile");
        std::fs::write(&data, serde_json::to_string(&rows).unwrap()).unwrap();
        let out = run_str(&["calibrate", "--data", &data, "--out", &profile]).unwrap();
        assert!(out.contains("RMSLE"));
        assert!(out.contains("profile saved"));
        let fitted = convmeter::persist::load_device_profile(&profile).unwrap();
        assert!((fitted.compute_efficiency / truth.compute_efficiency - 1.0).abs() < 0.25);
        std::fs::remove_file(data).ok();
        std::fs::remove_file(profile).ok();
    }

    #[test]
    fn dot_emits_graphviz() {
        let out = run_str(&["dot", "squeezenet1_0", "--image", "64"]).unwrap();
        assert!(out.starts_with("digraph"));
        assert!(out.contains("Conv2d"));
    }

    #[test]
    fn bench_list_shows_registry() {
        let out = run_str(&["bench", "--list"]).unwrap();
        assert!(out.contains("table1"), "{out}");
        assert!(out.contains("transformers"), "{out}");
        assert!(out.contains("ext_strategies"), "{out}");
        assert!(out.contains("16 experiment(s) registered"), "{out}");
    }

    #[test]
    fn bench_rejects_unknown_fault_profile() {
        let err = run_str(&["bench", "--only", "extensions", "--faults", "bogus"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        let msg = err.to_string();
        assert!(msg.contains("bogus") && msg.contains("ci-smoke"), "{msg}");
    }

    #[test]
    fn bench_rejects_bad_timeout() {
        let err =
            run_str(&["bench", "--only", "extensions", "--timeout-secs", "soon"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.to_string().contains("soon"), "{err}");
    }

    #[test]
    fn bench_rejects_unknown_experiment() {
        let err = run_str(&["bench", "--only", "no_such_exp"]).unwrap_err();
        assert!(matches!(err, CliError::Engine(_)));
        assert!(err.to_string().contains("no_such_exp"));
        let err = run_str(&["bench", "--only", ""]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn lint_zoo_wide_is_error_free() {
        // No positional models: lints the entire zoo. The zoo must carry
        // zero error-severity findings (warnings, e.g. AlexNet's lossy stem
        // stride, are acceptable).
        let out = run_str(&["lint"]).unwrap();
        assert!(out.contains("0 error(s)"), "{out}");
        assert!(out.contains("resnet50@224px"), "{out}");
    }

    #[test]
    fn lint_single_model_reports_clean() {
        // VGG's all-stride-1 convs + covering pools lint with no findings at
        // all; ResNet-style stems legitimately warn (CM0006 border drop).
        let out = run_str(&["lint", "vgg11"]).unwrap();
        assert!(out.contains("vgg11@224px: clean"), "{out}");
        assert!(out.contains("1 target(s) linted"), "{out}");
        let out = run_str(&["lint", "resnet18", "--image", "64"]).unwrap();
        assert!(out.contains("CM0006"), "{out}");
        assert!(out.contains("0 error(s)"), "{out}");
    }

    #[test]
    fn lint_json_is_machine_readable() {
        let out = run_str(&["lint", "alexnet", "--json"]).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        let text = serde_json::to_string(&parsed).unwrap();
        // AlexNet's stem drops rows at 224 px -> CM0006 warning in the JSON.
        assert!(text.contains("CM0006"), "{out}");
        assert!(text.contains("alexnet@224px"), "{out}");
    }

    #[test]
    fn lint_rejects_unknown_model() {
        let err = run_str(&["lint", "resnet999"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn lint_checks_fitted_model_artefact() {
        let data = tmpfile("lint-data");
        let model = tmpfile("lint-model");
        run_str(&["benchmark", "--out", &data, "--quick"]).unwrap();
        run_str(&["fit", "--data", &data, "--out", &model]).unwrap();
        let out = run_str(&["lint", "--model-file", &model, "--data", &data]).unwrap();
        assert!(out.contains("0 error(s)"), "{out}");
        assert!(out.contains("model "), "{out}");
        assert!(out.contains("dataset "), "{out}");
        std::fs::remove_file(data).ok();
        std::fs::remove_file(model).ok();
    }

    #[test]
    fn loadgen_writes_report_and_gates_against_baseline() {
        let report = tmpfile("slo-report");
        let baseline = tmpfile("slo-baseline");
        let out = run_str(&[
            "loadgen",
            "--quick",
            "--seed",
            "7",
            "--requests",
            "24",
            "--clients",
            "2",
            "--out",
            &report,
            "--write-baseline",
            &baseline,
        ])
        .unwrap();
        assert!(out.contains("24 requests"), "{out}");
        assert!(out.contains("errors 0"), "{out}");
        let body = std::fs::read_to_string(&report).unwrap();
        assert!(body.contains("\"deterministic\": false"), "{body}");

        // A second identical run gates clean against the written baseline.
        let out = run_str(&[
            "loadgen",
            "--quick",
            "--seed",
            "7",
            "--requests",
            "24",
            "--clients",
            "2",
            "--out",
            &report,
            "--baseline",
            &baseline,
        ])
        .unwrap();
        assert!(out.contains("slo gate passed"), "{out}");

        // A reseeded run drifts on the deterministic fields and fails.
        let mut buf = Vec::new();
        let argv: Vec<String> = [
            "loadgen",
            "--quick",
            "--seed",
            "8",
            "--requests",
            "24",
            "--clients",
            "2",
            "--out",
            &report,
            "--baseline",
            &baseline,
        ]
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
        let err = run(&argv, &mut buf).unwrap_err();
        assert!(matches!(err, CliError::Gate { .. }), "{err}");
        assert!(String::from_utf8(buf).unwrap().contains("stream_digest"));
        std::fs::remove_file(report).ok();
        std::fs::remove_file(baseline).ok();
    }

    #[test]
    fn loadgen_json_prints_deterministic_view() {
        let report = tmpfile("slo-json");
        let out = run_str(&[
            "loadgen",
            "--quick",
            "--requests",
            "12",
            "--clients",
            "1",
            "--out",
            &report,
            "--json",
        ])
        .unwrap();
        let parsed = serde_json::parse(&out).unwrap();
        assert!(
            matches!(
                parsed.get("deterministic"),
                Some(serde_json::Value::Bool(true))
            ),
            "{out}"
        );
        assert_eq!(
            parsed
                .get("throughput_rps")
                .and_then(serde_json::Value::as_f64),
            Some(0.0)
        );
        std::fs::remove_file(report).ok();
    }

    #[test]
    fn serve_rejects_bad_flags_before_binding() {
        let err = run_str(&["serve", "--requests", "soon"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        let err = run_str(&["loadgen", "--addr", "not-an-addr"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn cli_errors_expose_cause_chains() {
        // A missing file surfaces as CliError::Persist wrapping an io::Error;
        // source() must reach the io layer so main can print the chain.
        let err = run_str(&["eval", "--data", "/definitely/not/here.json"]).unwrap_err();
        let mut depth = 0;
        let mut source = std::error::Error::source(&err);
        while let Some(cause) = source {
            depth += 1;
            source = cause.source();
        }
        assert!(
            depth >= 2,
            "expected Persist -> Io chain, got depth {depth}"
        );
    }
}
