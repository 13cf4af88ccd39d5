#!/usr/bin/env bash
# CI gate: formatting, lints, tests. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo check benchmark/ (own workspace: an API change in crates/* must not break it)"
# cargo prunes stale entries from benchmark/Cargo.lock while resolving
# offline; that local rewrite is not part of any change to commit.
cargo check --offline --all-targets --manifest-path benchmark/Cargo.toml

echo "==> cargo test --workspace"
# --workspace matters: from the root, a bare `cargo test` runs only the
# root package, silently skipping every crates/* suite.
cargo test -q --workspace --offline

echo "==> convmeter analyze --perf (CA/CD/CB + hot-path CP audit; findings and budget overruns are fatal)"
ANALYZE_TMP="$(mktemp -d)"
cargo run -q -p convmeter-cli --offline -- \
    analyze --perf --jobs 2 --parse-cache "$ANALYZE_TMP/cache" \
    --budget analyzer_budget.json --sarif "$ANALYZE_TMP/cold.sarif" \
    --json >"$ANALYZE_TMP/cold.json"
# Warm re-run through the same parse cache must reproduce the cold report
# byte-for-byte: a cache hit is not allowed to change the analysis.
cargo run -q -p convmeter-cli --offline -- \
    analyze --perf --jobs 2 --parse-cache "$ANALYZE_TMP/cache" \
    --budget analyzer_budget.json --sarif "$ANALYZE_TMP/warm.sarif" \
    --json >"$ANALYZE_TMP/warm.json"
cmp "$ANALYZE_TMP/cold.json" "$ANALYZE_TMP/warm.json"
cmp "$ANALYZE_TMP/cold.sarif" "$ANALYZE_TMP/warm.sarif"
rm -rf "$ANALYZE_TMP"

echo "==> loom: model-check the engine worker pool"
RUSTFLAGS="--cfg loom" cargo test -q -p convmeter-bench --test loom_pool --offline

echo "==> convmeter lint (zoo-wide, errors are fatal)"
cargo run -q -p convmeter-cli --offline -- lint >/dev/null

echo "==> convmeter bench --list (registry is intact)"
cargo run -q -p convmeter-cli --offline -- bench --list >/dev/null

echo "==> convmeter bench --only extensions (engine smoke run)"
BENCH_TMP="$(mktemp -d)"
CONVMETER_RESULTS="$BENCH_TMP" \
    cargo run -q -p convmeter-cli --offline -- bench --only extensions --jobs 1 >/dev/null
test -f "$BENCH_TMP/manifest.json"
test -f "$BENCH_TMP/ext_strategies.json"
rm -rf "$BENCH_TMP"

echo "==> convmeter bench --only table1,table3,contamination --jobs 2 (nested fan-out smoke run)"
# table1 and table3 fit their leave-one-model-out folds on the pool, in
# lockstep groups, from inside engine workers whose sweeps fan out too;
# contamination fits its five rates in one lockstep robust call. Every
# artefact must still hash to its pinned bench-fits digest.
FANOUT_TMP="$(mktemp -d)"
FANOUT_EXPS="table1 table3 contamination"
CONVMETER_RESULTS="$FANOUT_TMP" \
    cargo run -q -p convmeter-cli --offline -- bench --only "${FANOUT_EXPS// /,}" --jobs 2 --no-cache >/dev/null
# "<artefact> <hash>" per artefact: a hash line follows its artefact's name.
awk '/"name": / { name = $2 } /"hash": / { print name, $2 }' "$FANOUT_TMP/manifest.json" \
    | tr -d '",' >"$FANOUT_TMP/hashes"
for exp in $FANOUT_EXPS; do
    FANOUT_WANT="$(awk -v e="$exp" '$1 == e { print $2 }' benchmark/expected/bench-fits.digests)"
    FANOUT_GOT="$(awk -v e="$exp" '$1 == e { print $2 }' "$FANOUT_TMP/hashes")"
    if [[ -z "$FANOUT_WANT" || "$FANOUT_GOT" != "$FANOUT_WANT" ]]; then
        echo "fan-out smoke: $exp hash '$FANOUT_GOT' != pinned '$FANOUT_WANT'" >&2
        exit 1
    fi
done
rm -rf "$FANOUT_TMP"

echo "==> convmeter bench --faults ci-smoke --keep-going (fault-suite smoke run)"
FAULT_TMP="$(mktemp -d)"
CONVMETER_RESULTS="$FAULT_TMP" \
    cargo run -q -p convmeter-cli --offline -- \
    bench --only extensions --faults ci-smoke --keep-going --jobs 1 >/dev/null
grep -q '"format_version": 3' "$FAULT_TMP/manifest.json"
grep -q '"fault_profile"' "$FAULT_TMP/manifest.json"
rm -rf "$FAULT_TMP"

echo "==> convmeter bench --timeout-secs 0 --retries 1 --keep-going (retry + watchdog smoke run)"
# A zero-second watchdog abandons both attempts: the run must exit
# non-zero and record one failure with two Timeout attempts in a v3
# manifest.
WATCHDOG_TMP="$(mktemp -d)"
if CONVMETER_RESULTS="$WATCHDOG_TMP" \
    cargo run -q -p convmeter-cli --offline -- \
    bench --only extensions --timeout-secs 0 --retries 1 --keep-going --jobs 1 >/dev/null; then
    echo "watchdog smoke: a run whose every attempt times out exited zero" >&2
    exit 1
fi
grep -q '"format_version": 3' "$WATCHDOG_TMP/manifest.json"
grep -q '"failures"' "$WATCHDOG_TMP/manifest.json"
test "$(grep -c '"kind": "Timeout"' "$WATCHDOG_TMP/manifest.json")" -eq 2
rm -rf "$WATCHDOG_TMP"

echo "==> convmeter profile --quick (observability smoke run)"
PROFILE_TMP="$(mktemp -d)"
CONVMETER_RESULTS="$PROFILE_TMP" \
    cargo run -q -p convmeter-cli --offline -- profile --quick >/dev/null
test -f "$PROFILE_TMP/BENCH_profile.json"
rm -rf "$PROFILE_TMP"

echo "==> convmeter serve smoke (ephemeral port, /healthz + /predict round-trip)"
SERVE_TMP="$(mktemp -d)"
SERVE_LOG="$SERVE_TMP/serve.log"
# Bounded server: exits on its own after accepting two requests.
CONVMETER_RESULTS="$SERVE_TMP" \
    cargo run -q -p convmeter-cli --offline -- serve --port 0 --requests 2 >"$SERVE_LOG" &
SERVE_PID=$!
SERVE_URL=""
for _ in $(seq 1 100); do
    SERVE_URL="$(sed -n 's#^listening on \(http://[^ ]*\)$#\1#p' "$SERVE_LOG")"
    [[ -n "$SERVE_URL" ]] && break
    sleep 0.1
done
if [[ -z "$SERVE_URL" ]]; then
    echo "serve smoke: server never reported its address" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
# curl -f turns any non-2xx answer into a non-zero exit; the greps assert
# the response schema.
curl -sf "$SERVE_URL/healthz" | grep -q '"status": "ok"'
PREDICT_BODY='{"model": "resnet18", "image": 64, "batch": 8, "nodes": [1, 2]}'
PREDICT="$(curl -sf -X POST --data "$PREDICT_BODY" "$SERVE_URL/predict")"
grep -q '"forward_s"' <<<"$PREDICT"
grep -q '"step_s"' <<<"$PREDICT"
grep -q '"scaling"' <<<"$PREDICT"
# The bounded server must now exit cleanly by itself.
wait "$SERVE_PID"
rm -rf "$SERVE_TMP"

echo "==> convmeter loadgen --chaos ci-smoke (fault-injecting load smoke run)"
CHAOS_TMP="$(mktemp -d)"
CONVMETER_RESULTS="$CHAOS_TMP" \
    cargo run -q -p convmeter-cli --offline -- \
    loadgen --quick --seed 11 --requests 32 --clients 4 --chaos ci-smoke \
    --json --out "$CHAOS_TMP/BENCH_chaos_report.json" >/dev/null
# Every injected fault must have mapped to its expected status, and every
# worker must have survived; the CLI already exits non-zero otherwise, the
# greps pin the report schema.
grep -q '"chaos_profile": "ci-smoke"' "$CHAOS_TMP/BENCH_chaos_report.json"
grep -q '"chaos_mismatches": 0' "$CHAOS_TMP/BENCH_chaos_report.json"
grep -q '"client_panics": 0' "$CHAOS_TMP/BENCH_chaos_report.json"
rm -rf "$CHAOS_TMP"

echo "==> scenario matrix (tests/scenarios/*.toml against the real binary)"
CONVMETER_SCENARIOS=1 \
    cargo test -q -p convmeter-cli --test scenario_matrix --offline

echo "==> benchmark/run.sh --smoke serve-hot serve-miss bench-fits (release serve against the byte-for-byte oracle, bench against the pinned digests)"
# Thousands of requests through the real accept path, each answer compared
# byte for byte with an in-process ServeState::predict, and a release
# `convmeter bench` run without fig6 whose artefacts must hash to the
# pinned digests. The last stdout line is the JSON result; it must report
# correct and no failed operation.
SMOKE_RESULT="$(bash benchmark/run.sh --smoke serve-hot serve-miss bench-fits | tail -n 1)"
if ! grep -q '"correct": true' <<<"$SMOKE_RESULT" || ! grep -q '"failed": 0,' <<<"$SMOKE_RESULT"; then
    echo "benchmark smoke failed: $SMOKE_RESULT" >&2
    exit 1
fi

# Warn-only for now: flip to a hard failure once the baseline has soaked on
# the CI runners (timings there are noisier than local ones).
echo "==> tools/perf_gate.sh (warn-only)"
if ! tools/perf_gate.sh; then
    echo "warning: perf gate failed (non-blocking for now)" >&2
fi

echo "all checks passed"
