//! Integration tests for `convmeter analyze`: two runs over the same tree
//! print the same bytes, `--github` and `--json` compose, and the
//! suppression budget gates.
//!
//! These spawn the real binary from the workspace root, which is exactly
//! how CI and `tools/check.sh` consume the command.

use std::process::Command;

fn run_analyze(args: &[&str]) -> std::process::Output {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    Command::new(env!("CARGO_BIN_EXE_convmeter"))
        .arg("analyze")
        .args(args)
        .current_dir(&root)
        .output()
        .expect("spawn convmeter analyze")
}

#[test]
fn analyze_runs_are_byte_identical_back_to_back() {
    let first = run_analyze(&["--json"]);
    let second = run_analyze(&["--json"]);
    assert!(first.status.success() && second.status.success());
    assert_eq!(first.stdout, second.stdout);
}

#[test]
fn github_annotations_go_to_stderr_and_compose_with_json() {
    // The workspace is clean, so --github must add nothing to stderr and
    // stdout must stay pure JSON.
    let out = run_analyze(&["--json", "--github"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("stdout is utf-8");
    assert!(
        stdout.trim_start().starts_with('{'),
        "--json stdout must remain machine-readable with --github on"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("::error"),
        "a clean tree must emit no ::error annotations: {stderr}"
    );
}

#[test]
fn budget_gate_passes_on_the_committed_budget() {
    let out = run_analyze(&["--stats", "--budget", "analyzer_budget.json"]);
    assert!(
        out.status.success(),
        "the committed budget must cover the tree's live suppressions: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("suppressions by rule:"),
        "--stats must print the per-rule table: {stdout}"
    );
}

#[test]
fn budget_gate_fails_when_a_cap_is_exceeded() {
    // An empty budget means every code's cap is zero; the tree has audited
    // suppressions, so the ratchet must trip.
    let path =
        std::env::temp_dir().join(format!("convmeter-zero-budget-{}.json", std::process::id()));
    std::fs::write(&path, "{}").expect("write zero budget");
    let out = run_analyze(&["--budget", &path.to_string_lossy()]);
    let _ = std::fs::remove_file(&path);
    assert!(
        !out.status.success(),
        "a zero budget must fail while suppressions exist"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("budget:"),
        "violations must be named on stderr: {stderr}"
    );
}
