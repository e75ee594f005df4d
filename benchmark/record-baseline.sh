#!/usr/bin/env bash
# Records benchmark/baseline/<workload>.json: the result lines of one full
# untraced and one full traced run of the checked-out commit (seed 1).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/spgist-benchmark"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
for workload in query-hot query-cold ingest mixed-rw; do
  untraced="$("$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 | tail -n 1)"
  traced="$("$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace 1 | tail -n 1)"
  printf '{"workload": "%s", "seed": 1, "seconds": %s, "claim": null,\n "untraced": %s,\n "traced": %s}\n' \
    "$workload" "$seconds" "$untraced" "$traced" > "benchmark/baseline/$workload.json"
done
