#!/usr/bin/env bash
# Runs every bench_* binary and collects google-benchmark JSON artifacts.
#
# Usage: bench/run_all.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  cmake build tree containing bench/ (default: build)
#   OUT_DIR    where <bench>.json files land (default: bench/out)
#
# Extra google-benchmark flags can be passed via BENCH_ARGS, e.g.
#   BENCH_ARGS='--benchmark_filter=heft --benchmark_min_time=0.1s' \
#     bench/run_all.sh
# The console output (figure tables + timings) still goes to stdout; the
# JSON goes to OUT_DIR via --benchmark_out, so both artifacts survive.
#
# The gated trajectory set (scale/ incl. the n=100000 tier, routed/,
# reschedule/, timeline/) all live in
# bench_scale and ride through here like any other binary.  Run with
# ONEPORT_PROFILE=1 to add the per-thread scalability counters as
# prof_<name> entries to every JSON artifact (docs/PROFILING.md).
set -euo pipefail

BUILD_DIR=${1:-build}
OUT_DIR=${2:-bench/out}

if ! compgen -G "$BUILD_DIR/bench/bench_*" > /dev/null; then
  echo "error: no bench binaries under $BUILD_DIR/bench -- build with" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

mkdir -p "$OUT_DIR"

status=0
for bin in "$BUILD_DIR"/bench/bench_*; do
  [ -x "$bin" ] || continue
  name=$(basename "$bin")
  echo "==== $name"
  # shellcheck disable=SC2086  # BENCH_ARGS is intentionally word-split
  if ! "$bin" \
      --benchmark_out="$OUT_DIR/$name.json" \
      --benchmark_out_format=json \
      ${BENCH_ARGS:-}; then
    echo "FAILED: $name" >&2
    status=1
  fi
done

echo "==== JSON artifacts in $OUT_DIR:"
ls -l "$OUT_DIR"
exit $status
