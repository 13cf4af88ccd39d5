#!/usr/bin/env bash
# Performance gate: run the deterministic profile workload and compare the
# fresh timed profile against the committed baseline.
#
#   tools/perf_gate.sh [baseline.json]
#
# Environment:
#   PERF_GATE_TOLERANCE   relative tolerance for gated span times
#                         (default 0.25 = 25%)
#   PERF_GATE_QUICK       set to 0 to run the full workload (default quick)
#   CONVMETER_RESULTS     results directory (default: a temp dir, removed
#                         afterwards)
#
# Exits non-zero when any gated span regresses past the tolerance, when the
# span/counter structure drifted from the baseline (regenerate it with
# `convmeter profile --out BENCH_baseline.json`), or when the baseline is
# missing. The comparison itself is done by `convmeter profile --baseline`,
# so this script needs no python/jq.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="${1:-BENCH_baseline.json}"
TOLERANCE="${PERF_GATE_TOLERANCE:-0.25}"
QUICK_FLAG="--quick"
if [[ "${PERF_GATE_QUICK:-1}" == "0" ]]; then
    QUICK_FLAG=""
fi

if [[ ! -f "$BASELINE" ]]; then
    echo "perf gate: baseline '$BASELINE' not found" >&2
    echo "perf gate: generate one with: cargo run -q --release -p convmeter-cli -- profile --quick --out $BASELINE" >&2
    exit 1
fi

CLEANUP=""
if [[ -z "${CONVMETER_RESULTS:-}" ]]; then
    CONVMETER_RESULTS="$(mktemp -d)"
    CLEANUP="$CONVMETER_RESULTS"
fi
export CONVMETER_RESULTS

status=0
cargo run -q --release -p convmeter-cli --offline -- profile $QUICK_FLAG \
    --baseline "$BASELINE" --tolerance "$TOLERANCE" || status=$?

# Per-span coverage assertions on the freshly written profile: the workload
# must have exercised the compiled-model lowering and the leave-one-model-out
# evaluators. The CLI enforces the same list; this is the belt to its braces so
# a stale CLI binary cannot silently gate a hollow workload.
PROFILE_JSON="$CONVMETER_RESULTS/BENCH_profile.json"
if [[ -f "$PROFILE_JSON" ]]; then
    for span in "compile.model" "convmeter.eval" "profile.datasets"; do
        if ! grep -q "\"name\": \"$span\"" "$PROFILE_JSON"; then
            echo "perf gate: required span '$span' missing from $PROFILE_JSON" >&2
            status=1
        fi
    done
    if grep -q '"deterministic": true' "$PROFILE_JSON"; then
        echo "perf gate: profile is a deterministic view; wall times are zeroed" >&2
        status=1
    fi
else
    echo "perf gate: expected profile at $PROFILE_JSON was not written" >&2
    status=1
fi

# Quarantined experiments make timings incomparable but are a robustness
# signal, not a perf regression: warn, never fail, on a v3 manifest with
# recorded failures.
ENGINE_MANIFEST="$CONVMETER_RESULTS/profile/manifest.json"
if [[ -f "$ENGINE_MANIFEST" ]] && grep -q '"failures"' "$ENGINE_MANIFEST"; then
    echo "perf gate: warning: profile run quarantined experiment(s); timings may be incomplete" >&2
fi

if [[ -n "$CLEANUP" ]]; then
    rm -rf "$CLEANUP"
fi

if [[ $status -ne 0 ]]; then
    echo "perf gate: FAILED (tolerance ${TOLERANCE})" >&2
else
    echo "perf gate: OK (tolerance ${TOLERANCE})"
fi
exit $status
