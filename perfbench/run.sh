#!/usr/bin/env bash
# Builds the benchmark and the shipped `pcs-serve` binary from this
# checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload <dense-flights|churn|serve> --seed N --seconds S --trace <0|1>
#
# Build output goes to stderr; the benchmark's last stdout line is its
# result object.  Build artifacts go to $CARGO_TARGET_DIR (default
# .bench_build).  The measured process never sees the program's
# environment toggles: they are removed here, and the benchmark refuses to
# run if one is set anyway.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
cargo build --release --offline --quiet --manifest-path Cargo.toml -p pcs-service --bin pcs-serve >&2
commit=unknown
if [ "$(git rev-parse --show-toplevel 2>/dev/null || true)" = "$root" ]; then
  commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
fi
exec env -u PCS_PLAN -u PCS_COLUMNAR -u PCS_EVAL_INDEX -u PCS_EVAL_THREADS \
  -u PCS_TELEMETRY -u PCS_ANALYZE -u PCS_TRACE_JSON -u PCS_SLOW_QUERY_MS \
  PERFBENCH_COMMIT="$commit" "$CARGO_TARGET_DIR/release/pcs-perfbench" "$@"
