#!/usr/bin/env bash
# Smoke test: every workload once in --quick mode, untraced and traced
# (a few seconds each).  Exits non-zero if a run fails or is not correct.
# Build output and scratch data stay under the cargo target directory.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/spgist-benchmark"
for workload in query-hot query-cold ingest mixed-rw; do
  for trace in 0 1; do
    "$bin" --workload "$workload" --seed 1 --seconds 4 --trace "$trace" --quick | tail -n 1 | cut -c1-120
  done
done
echo "smoke: ok"
