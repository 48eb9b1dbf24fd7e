#!/usr/bin/env bash
# Regenerates every evaluation artifact of the paper and its extensions
# (DESIGN.md, E1-E25): the E1-E17 binaries, then a full exp_suite run for
# E18-E25, which also writes its BENCH_*.json and observability exports
# into the output directory and checks each experiment's pinned digest.
# Usage: scripts/run_experiments.sh [output-directory]
set -euo pipefail

out="${1:-experiment-results}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
cd "$(dirname "$0")/.."

experiments=(
    exp_latency
    exp_throughput
    exp_area
    exp_scaling
    exp_flow
    exp_edge_detection
    exp_cpi
    exp_buffer_sweep
    exp_arbitration
    exp_serial
    exp_load_sweep
    exp_compiler
    exp_services
    exp_sea_of_processors
    exp_reconfig
    exp_utilization
    exp_routing
)

cargo build --release -p multinoc-bench --bins

for exp in "${experiments[@]}"; do
    echo "=== $exp ==="
    cargo run --release -q -p multinoc-bench --bin "$exp" | tee "$out/$exp.txt"
    echo
done

echo "=== exp_suite (E18-E25) ==="
suite="$PWD/target/release/exp_suite"
(cd "$out" && "$suite" | tee exp_suite.txt)
echo

echo "all experiments written to $out/"
