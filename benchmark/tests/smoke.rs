//! `--smoke` runs of the real command, `benchmark/run.sh`: one-second phases
//! and one `bench` invocation per workload. They build `convmeter` and the
//! benchmark in release mode first, so the first run takes a minute or two.
//!
//! Each run must be correct and print, as its last line, exactly the
//! metrics `BENCHMARK.json` declares.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["serve-hot", "serve-miss", "bench-full", "bench-fits"];

fn declared(key: &str) -> BTreeSet<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

/// Run `run.sh` with `args` and return the metric names of its result line.
fn run(args: &[&str]) -> BTreeSet<String> {
    let script = Path::new(env!("CARGO_MANIFEST_DIR")).join("run.sh");
    let out = Command::new("bash")
        .arg(script)
        .args(args)
        .output()
        .expect("bash runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "run.sh {args:?} failed: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(
        matches!(result.get("correct"), Some(Value::Bool(true))),
        "{last}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{last}"
    );
    assert!(
        result.get("attempted").and_then(Value::as_u64) >= Some(1),
        "{last}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    for (name, m) in metrics {
        let value = m.get("value").and_then(Value::as_f64).expect("a value");
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            m.get("unit").and_then(Value::as_str).is_some(),
            "{name} has a unit"
        );
    }
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn every_workload_reports_the_end_to_end_metrics() {
    let expected = declared("end_to_end");
    let gated = declared("workloads");
    assert!(
        gated.iter().all(|w| WORKLOADS.contains(&w.as_str())),
        "{gated:?}"
    );
    for w in WORKLOADS {
        let got = run(&[
            "--workload",
            w,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ]);
        assert_eq!(got, expected, "{w}");
    }
}

#[test]
fn trace_reports_every_layer_metric() {
    let got = run(&[
        "--workload",
        "serve-miss",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--smoke",
    ]);
    assert_eq!(got, declared("per_layer"));
}
