//! Fixture corpus for the analyzer's rules plus the self-check: the workspace that
//! ships the analyzer must itself analyze clean.
//!
//! Each fixture under `tests/fixtures/` is a minimal source file designed
//! to trip exactly one rule (or, for `clean.rs`, none). Fixtures are fed
//! through [`analyze_files`] with a synthetic workspace-relative path,
//! because several rules key off the path (module stem, crate name).

use convmeter_analyzer::{analyze_files, analyze_workspace, Report};
use std::path::Path;

fn analyze_one(path: &str, content: &str) -> Report {
    analyze_files(&[(path.to_string(), content.to_string())])
}

/// Assert every finding carries `code` and that there is at least one.
fn assert_all(report: &Report, code: &str) {
    assert!(
        !report.findings.is_empty(),
        "expected at least one {code} finding, got none"
    );
    for f in &report.findings {
        assert_eq!(
            f.code, code,
            "expected only {code} findings, got {} at {}:{} ({})",
            f.code, f.path, f.line, f.message
        );
    }
}

#[test]
fn ca0000_malformed_allow_is_reported() {
    let report = analyze_one(
        "crates/fake/src/lib.rs",
        include_str!("fixtures/ca0000_malformed_allow.rs"),
    );
    assert_all(&report, "CA0000");
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].line, 3);
    assert_eq!(
        report.suppressed, 0,
        "a broken directive suppresses nothing"
    );
}

#[test]
fn ca0001_hash_collections_in_critical_module() {
    let fixture = include_str!("fixtures/ca0001_hash_collections.rs");
    let report = analyze_one("crates/fake/src/store.rs", fixture);
    assert_all(&report, "CA0001");

    // The same source off the critical-stem list is fine: CA0001 bans the
    // types where iteration order can reach artefacts, not everywhere.
    let relaxed = analyze_one("crates/fake/src/scratch.rs", fixture);
    assert!(
        relaxed.findings.is_empty(),
        "CA0001 must only fire in critical modules: {}",
        relaxed.to_text()
    );
}

#[test]
fn ca0002_wall_clock_outside_obs() {
    let fixture = include_str!("fixtures/ca0002_wall_clock.rs");
    let report = analyze_one("crates/fake/src/runner.rs", fixture);
    assert_all(&report, "CA0002");
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].line, 4);

    // The obs crate hosts the shim itself and is exempt.
    let obs = analyze_one("crates/obs/src/clock.rs", fixture);
    assert!(obs.findings.is_empty(), "{}", obs.to_text());
}

#[test]
fn ca0003_unchecked_cost_arithmetic() {
    let fixture = include_str!("fixtures/ca0003_unchecked_cost.rs");
    let report = analyze_one("crates/fake/src/cost.rs", fixture);
    assert_all(&report, "CA0003");
    assert_eq!(report.findings.len(), 1);
    assert!(
        report.findings[0].message.contains("checked_elements"),
        "finding must name the checked replacement: {}",
        report.findings[0].message
    );

    // The defining file is exempt: the panicking variant has to live
    // somewhere.
    let defining = analyze_one("crates/graph/src/shape.rs", fixture);
    assert!(defining.findings.is_empty(), "{}", defining.to_text());
}

#[test]
fn ca0004_aborts_in_library_code() {
    let fixture = include_str!("fixtures/ca0004_aborts.rs");
    let report = analyze_one("crates/fake/src/fit.rs", fixture);
    assert_all(&report, "CA0004");
    assert_eq!(report.findings.len(), 2, "{}", report.to_text());

    // Binary entry points are allowed to abort loudly.
    let binary = analyze_one("crates/cli/src/bin/tool.rs", fixture);
    assert!(binary.findings.is_empty(), "{}", binary.to_text());
}

#[test]
fn ca0005_float_equality_spares_exact_zero() {
    let report = analyze_one(
        "crates/fake/src/compare.rs",
        include_str!("fixtures/ca0005_float_eq.rs"),
    );
    assert_all(&report, "CA0005");
    assert_eq!(
        report.findings.len(),
        1,
        "the `== 0.0` guard must not be flagged: {}",
        report.to_text()
    );
    assert_eq!(report.findings[0].line, 2);
}

#[test]
fn ca0006_fingerprint_must_cover_every_field() {
    let report = analyze_one(
        "crates/fake/src/config.rs",
        include_str!("fixtures/ca0006_partial_fingerprint.rs"),
    );
    assert_all(&report, "CA0006");
    assert_eq!(report.findings.len(), 1);
    assert!(
        report.findings[0].message.contains("seed"),
        "the missing field must be named: {}",
        report.findings[0].message
    );
}

#[test]
fn ca0006_sees_structs_in_sibling_files() {
    // The struct and its fingerprint impl live in different files of the
    // same crate; the struct index must connect them.
    let definition = "pub struct Profile {\n    pub name: String,\n    pub speed: f64,\n}\n";
    let usage = "use crate::profile::Profile;\n\nimpl Profile {\n    pub fn fingerprint(&self) -> String {\n        self.name.clone()\n    }\n}\n";
    let report = analyze_files(&[
        (
            "crates/fake/src/profile.rs".to_string(),
            definition.to_string(),
        ),
        ("crates/fake/src/digest.rs".to_string(), usage.to_string()),
    ]);
    assert_all(&report, "CA0006");
    assert!(report.findings[0].message.contains("speed"));

    // A same-named struct in a *different* crate must not leak across.
    let report = analyze_files(&[
        (
            "crates/other/src/profile.rs".to_string(),
            definition.to_string(),
        ),
        ("crates/fake/src/digest.rs".to_string(), usage.to_string()),
    ]);
    assert!(
        report.findings.is_empty(),
        "cross-crate struct leak: {}",
        report.to_text()
    );
}

#[test]
fn clean_file_has_no_findings() {
    let report = analyze_one(
        "crates/fake/src/store.rs",
        include_str!("fixtures/clean.rs"),
    );
    assert!(report.findings.is_empty(), "{}", report.to_text());
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn allow_directive_suppresses_and_is_counted() {
    let report = analyze_one(
        "crates/fake/src/fit.rs",
        include_str!("fixtures/suppressed.rs"),
    );
    assert!(report.findings.is_empty(), "{}", report.to_text());
    assert_eq!(report.suppressed, 1);
}

#[test]
fn test_regions_are_exempt() {
    let report = analyze_one(
        "crates/fake/src/lib.rs",
        include_str!("fixtures/test_region.rs"),
    );
    assert!(
        report.findings.is_empty(),
        "#[cfg(test)] code must be exempt: {}",
        report.to_text()
    );
}

#[test]
fn an_allow_for_the_wrong_code_does_not_suppress() {
    let source = "pub fn pick(xs: &[f64]) -> f64 {\n    // analyzer:allow(CA0005, reason = \"wrong code on purpose\")\n    *xs.first().unwrap()\n}\n";
    let report = analyze_one("crates/fake/src/fit.rs", source);
    assert_all(&report, "CA0004");
    assert_eq!(report.suppressed, 0);
}

/// The self-check the CI gate rests on: the workspace that defines the CA
/// rules passes them. Every suppression in the tree is a deliberate,
/// justified allow directive — so this test failing means either a new
/// violation or a broken rule, and both need a human decision.
#[test]
fn ca0007_computed_index_reachable_from_public_api() {
    let fixture = include_str!("fixtures/ca0007_computed_index.rs");
    let report = analyze_one("crates/fake/src/lib.rs", fixture);
    assert_all(&report, "CA0007");
    assert_eq!(report.findings.len(), 1, "{}", report.to_text());
    assert_eq!(report.findings[0].line, 6);
    assert!(
        report.findings[0].message.contains("lib::midpoint"),
        "the finding must name the public route: {}",
        report.findings[0].message
    );
}

#[test]
fn ca0007_app_aborts_reachable_from_public_api() {
    let lib = "pub fn api(xs: &[u64]) -> u64 {\n    helper(xs)\n}\n";
    let app = "pub fn helper(xs: &[u64]) -> u64 {\n    *xs.first().unwrap()\n}\n";
    let report = analyze_files(&[
        ("crates/fake/src/lib.rs".to_string(), lib.to_string()),
        ("crates/fake/src/main.rs".to_string(), app.to_string()),
    ]);
    assert_all(&report, "CA0007");
    assert_eq!(report.findings.len(), 1, "{}", report.to_text());
    assert_eq!(report.findings[0].path, "crates/fake/src/main.rs");
    assert!(
        report.findings[0].message.contains("lib::api"),
        "the finding must show the example route from the public API: {}",
        report.findings[0].message
    );

    // Negative: the same abort with no public library API above it is the
    // application's own business (CA0004 already scopes lib files).
    let alone = analyze_files(&[("crates/fake/src/main.rs".to_string(), app.to_string())]);
    assert!(alone.findings.is_empty(), "{}", alone.to_text());
}

#[test]
fn cp0001_alloc_in_hot_loop() {
    let fixture = include_str!("fixtures/cp0001_alloc_in_loop.rs");
    let report = analyze_one("crates/fake/src/lib.rs", fixture);
    assert_all(&report, "CP0001");
    assert_eq!(report.findings.len(), 1, "{}", report.to_text());
    assert_eq!(report.findings[0].line, 7);
}

#[test]
fn cp0002_clone_in_hot_loop() {
    let fixture = include_str!("fixtures/cp0002_clone_in_loop.rs");
    let report = analyze_one("crates/fake/src/lib.rs", fixture);
    assert_all(&report, "CP0002");
    assert_eq!(report.findings.len(), 1, "{}", report.to_text());
    assert_eq!(report.findings[0].line, 7);
}

#[test]
fn cp0003_collect_in_hot_loop() {
    let fixture = include_str!("fixtures/cp0003_collect_in_loop.rs");
    let report = analyze_one("crates/fake/src/lib.rs", fixture);
    assert_all(&report, "CP0003");
    assert_eq!(report.findings.len(), 1, "{}", report.to_text());
    assert_eq!(report.findings[0].line, 7);
}

#[test]
fn cp0004_push_growth_without_reserve() {
    let fixture = include_str!("fixtures/cp0004_push_without_reserve.rs");
    let report = analyze_one("crates/fake/src/lib.rs", fixture);
    assert_all(&report, "CP0004");
    assert_eq!(report.findings.len(), 1, "{}", report.to_text());
    assert_eq!(
        report.findings[0].line, 6,
        "CP0004 reports at the binding, where the fix goes"
    );
}

#[test]
fn cp0005_lock_in_hot_loop() {
    let fixture = include_str!("fixtures/cp0005_lock_in_loop.rs");
    let report = analyze_one("crates/fake/src/lib.rs", fixture);
    assert_all(&report, "CP0005");
    assert_eq!(report.findings.len(), 1, "{}", report.to_text());
    assert_eq!(report.findings[0].line, 8);
}

#[test]
fn workspace_analyzes_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = analyze_workspace(&root).expect("workspace analysis runs");
    assert!(
        report.is_clean(),
        "the workspace must analyze clean:\n{}",
        report.to_text()
    );
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
}

/// The CP hot-path rules run in every analysis; the workspace must pass
/// them, and their hot set and call graph must be populated.
#[test]
fn workspace_analyzes_clean_with_perf_rules() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = analyze_workspace(&root).expect("workspace analysis runs");
    assert!(
        !report.findings.iter().any(|f| f.code.starts_with("CP")),
        "the workspace must pass the CP rules:\n{}",
        report.to_text()
    );
    assert!(
        report.call_graph.hot_functions > 0,
        "span!-instrumented functions must seed the hot set"
    );
    assert!(
        report.call_graph.calls_resolved > 1000,
        "suspiciously few resolved call edges: {}",
        report.call_graph.calls_resolved
    );
}

// ---------------------------------------------------------------------------
// CD/CB dataflow fixture corpus
// ---------------------------------------------------------------------------

#[test]
fn cd0001_clock_into_cache_key() {
    let report = analyze_one(
        "crates/fake/src/lib.rs",
        include_str!("fixtures/cd0001_clock_to_cache_key.rs"),
    );
    assert_all(&report, "CD0001");
    assert_eq!(report.findings.len(), 1, "{}", report.to_text());
    let msg = &report.findings[0].message;
    assert!(msg.contains("route:"), "finding must carry a route: {msg}");
    assert!(
        msg.contains("now()") && msg.contains("stamp"),
        "route must walk source -> binder: {msg}"
    );
}

#[test]
fn cd0002_rng_into_fingerprint() {
    let report = analyze_one(
        "crates/fake/src/lib.rs",
        include_str!("fixtures/cd0002_rng_to_fingerprint.rs"),
    );
    assert_all(&report, "CD0002");
    assert_eq!(report.findings.len(), 1, "{}", report.to_text());
    assert!(report.findings[0].message.contains("thread_rng"));
}

#[test]
fn cd0003_order_observable_into_slo_report() {
    let report = analyze_one(
        "crates/fake/src/lib.rs",
        include_str!("fixtures/cd0003_order_observable.rs"),
    );
    assert_all(&report, "CD0003");
    assert_eq!(report.findings.len(), 1, "{}", report.to_text());
    let msg = &report.findings[0].message;
    assert!(
        msg.contains("cache_stats") && msg.contains("SloReport::cache_builds"),
        "route must name the observable and the struct field: {msg}"
    );
}

#[test]
fn cd0004_route_crosses_the_helper_return() {
    let report = analyze_one(
        "crates/fake/src/lib.rs",
        include_str!("fixtures/cd0004_taint_through_call.rs"),
    );
    assert_all(&report, "CD0004");
    assert_eq!(report.findings.len(), 1, "{}", report.to_text());
    let msg = &report.findings[0].message;
    // The full source -> sink chain: clock source inside the helper, the
    // summary hop back into the caller, the caller's binder, the sink.
    assert!(msg.contains("now()"), "route names the source: {msg}");
    assert!(
        msg.contains("returned by stamp_ms()"),
        "route names the summary hop: {msg}"
    );
    assert!(msg.contains("salt"), "route names the caller binder: {msg}");
    assert!(msg.contains("storage_key"), "finding names the sink: {msg}");
}

#[test]
fn cb0001_guard_across_accept_names_the_blocking_call() {
    let report = analyze_one(
        "crates/fake/src/lib.rs",
        include_str!("fixtures/cb0001_guard_across_accept.rs"),
    );
    assert_all(&report, "CB0001");
    assert_eq!(
        report.findings.len(),
        1,
        "exactly one finding for the one blocking call:\n{}",
        report.to_text()
    );
    let msg = &report.findings[0].message;
    assert!(msg.contains("accept"), "must name the blocking call: {msg}");
    assert!(
        msg.contains("guard `jobs`"),
        "must name the lock the guard came from: {msg}"
    );
}

#[test]
fn cb0002_transitive_blocking_carries_the_call_route() {
    let report = analyze_one(
        "crates/fake/src/lib.rs",
        include_str!("fixtures/cb0002_transitive_blocking.rs"),
    );
    assert_all(&report, "CB0002");
    assert_eq!(report.findings.len(), 1, "{}", report.to_text());
    let msg = &report.findings[0].message;
    assert!(
        msg.contains("persist()"),
        "must name the may-block callee: {msg}"
    );
}

#[test]
fn cb0003_inversion_reported_once() {
    let report = analyze_one(
        "crates/fake/src/lib.rs",
        include_str!("fixtures/cb0003_lock_inversion.rs"),
    );
    assert_all(&report, "CB0003");
    assert_eq!(
        report.findings.len(),
        1,
        "one finding per inverted pair, not one per site:\n{}",
        report.to_text()
    );
    let msg = &report.findings[0].message;
    assert!(
        msg.contains("alpha") && msg.contains("beta"),
        "must name both lock labels: {msg}"
    );
}

#[test]
fn cd_cb_negative_corpus_is_clean() {
    let report = analyze_one(
        "crates/fake/src/lib.rs",
        include_str!("fixtures/cd_cb_clean.rs"),
    );
    assert!(
        report.is_clean(),
        "seeded sinks, timed fields, dropped guards, and consistent lock \
         order must not fire:\n{}",
        report.to_text()
    );
}

#[test]
fn cd_cb_allow_directives_suppress_and_are_budget_counted() {
    let report = analyze_one(
        "crates/fake/src/lib.rs",
        include_str!("fixtures/cd_cb_suppressed.rs"),
    );
    assert!(report.is_clean(), "{}", report.to_text());
    assert_eq!(report.suppressed, 1);
    assert_eq!(
        report.allow_counts.get("CB0001"),
        Some(&1),
        "suppressions must be counted per rule for the budget gate"
    );
}
