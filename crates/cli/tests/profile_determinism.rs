//! Integration tests for `convmeter profile`: the `--json` view must be
//! schema-stable and byte-deterministic across runs.
//!
//! These spawn the real binary (subprocess isolation keeps the global
//! observability session of one run from ever seeing another's spans),
//! which is exactly how CI and `tools/perf_gate.sh` consume the command.

use std::path::PathBuf;
use std::process::Command;

fn run_profile_json(results_dir: &std::path::Path) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_convmeter"))
        .args(["profile", "--quick", "--json"])
        .env("CONVMETER_RESULTS", results_dir)
        .output()
        .expect("spawn convmeter profile");
    assert!(
        out.status.success(),
        "profile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).expect("stdout is utf-8"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "convmeter-cli-profile-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp results dir");
    dir
}

#[test]
fn profile_json_is_byte_deterministic_across_runs() {
    let dir = tmpdir("determinism");
    let (first, _) = run_profile_json(&dir);
    let (second, _) = run_profile_json(&dir);
    assert!(!first.is_empty(), "profile --json printed nothing");
    assert_eq!(
        first, second,
        "deterministic profile output differed between two runs"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_json_schema_is_stable() {
    let dir = tmpdir("schema");
    let (stdout, _) = run_profile_json(&dir);

    // Versioned envelope.
    assert!(stdout.contains("\"format_version\": 1"));
    assert!(stdout.contains("\"workload\": \"quick-v3\""));
    assert!(stdout.contains("\"deterministic\": true"));

    // Span-tree keys and the phases the acceptance criteria name: engine,
    // hwsim sweep, distsim, compiled lowering, linalg fit, leave-one-model-out
    // evaluation.
    for key in [
        "\"spans\"",
        "\"counters\"",
        "\"gauges\"",
        "\"histograms\"",
        "\"self_ms\"",
        "engine.run",
        "experiment:extensions",
        "hwsim.inference_sweep",
        "distsim.sweep",
        "linalg.fit",
        "compile.model",
        "convmeter.eval",
        "profile.datasets",
        "profile.fits",
        "profile.eval",
    ] {
        assert!(stdout.contains(key), "profile --json missing {key}");
    }

    // Deterministic view: no machine-dependent nonzero times may survive.
    assert!(
        !stdout.contains("\"total_ms\": 0.0,")
            || stdout.matches("\"total_ms\":").count()
                == stdout.matches("\"total_ms\": 0.0").count(),
        "deterministic view leaked a nonzero span time"
    );

    // The timed artefact was written alongside.
    assert!(dir.join("BENCH_profile.json").is_file());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_gates_against_its_own_output() {
    let dir = tmpdir("gate");
    let baseline = dir.join("baseline.json");
    let out = Command::new(env!("CARGO_BIN_EXE_convmeter"))
        .args(["profile", "--quick", "--out"])
        .arg(&baseline)
        .env("CONVMETER_RESULTS", &dir)
        .output()
        .expect("spawn convmeter profile");
    assert!(out.status.success());

    // A fresh run compared against that baseline must pass the gate: the
    // workload is deterministic, so spans and counters line up exactly and
    // a generous tolerance absorbs timing noise.
    let out = Command::new(env!("CARGO_BIN_EXE_convmeter"))
        .args(["profile", "--quick", "--tolerance", "100", "--baseline"])
        .arg(&baseline)
        .env("CONVMETER_RESULTS", &dir)
        .output()
        .expect("spawn convmeter profile with baseline");
    assert!(
        out.status.success(),
        "self-baseline gate failed: {}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("perf gate passed"));
    std::fs::remove_dir_all(&dir).ok();
}
