#!/usr/bin/env bash
# Two sets (a, b) of RUNS untraced full-scale runs per workload of the
# checked-out commit, each run with another seed, then `compare a b`:
# per workload x end-to-end metric the min / quartiles / max of each set,
# the run-to-run spread, and the verdict against the BENCHMARK.json bounds.
# NOISE.md is this script's table.
#
# usage: benchmark/noise.sh OUT_DIR [RUNS=10]
set -euo pipefail
out="$(mkdir -p "$1" && cd "$1" && pwd)"
runs="${2:-10}"
cd "$(dirname "$0")/.."
cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/spgist-benchmark"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
for set in a b; do
  mkdir -p "$out/$set"
  for seed in $(seq 1 "$runs"); do
    for workload in query-hot query-cold ingest mixed-rw; do
      "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        > "$out/$set/$workload.seed$seed.json"
    done
  done
done
"$bin" compare "$out/a" "$out/b" --manifest BENCHMARK.json
