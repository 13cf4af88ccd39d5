#!/usr/bin/env bash
# Build `convmeter` and the benchmark in release mode, then run the
# benchmark. Arguments go to the benchmark binary unchanged:
#
#   benchmark/run.sh [--seed N] [--trace [0|1]] [--smoke] [workload...]
#   benchmark/run.sh --workload serve-hot --seed 3 --seconds 20 --trace 0
#
# Workloads: serve-hot serve-miss bench-full bench-fits (default: all).
# Builds go to $CARGO_TARGET_DIR, or target/ at the repository root. Build
# output goes to stderr; the last line of stdout is the JSON result, and a
# full report is written to <target>/convmeter-benchmark/report.json.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"

cargo build --release --offline --quiet --manifest-path Cargo.toml -p convmeter-cli >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

mkdir -p "$CARGO_TARGET_DIR/convmeter-benchmark"
exec "$CARGO_TARGET_DIR/release/convmeter-benchmark" \
  --convmeter "$CARGO_TARGET_DIR/release/convmeter" \
  --work "$CARGO_TARGET_DIR/convmeter-benchmark" \
  --json "$CARGO_TARGET_DIR/convmeter-benchmark/report.json" \
  "$@"
