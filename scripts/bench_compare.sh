#!/usr/bin/env bash
# Warn-only benchmark-regression triage: regenerated BENCH_*.json files
# (those named on the command line, else the ones in the repo root) are
# diffed against the baselines committed at HEAD and the numeric deltas
# printed as a table. Never fails the build —
# benchmark rates are wall-clock observations of the host, so a delta is
# a prompt for a human, not a gate. Simulated results are gated exactly
# by the result digests exp_suite pins for each experiment.
# Usage: scripts/bench_compare.sh [BENCH_file.json ...]
#        (defaults to every BENCH_*.json in the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

files=("$@")
if [ ${#files[@]} -eq 0 ]; then
  files=(BENCH_*.json)
fi

cargo build --release -q --offline -p multinoc-bench --bin bench_compare

baseline_dir="$(mktemp -d)"
trap 'rm -rf "$baseline_dir"' EXIT

pairs=()
for f in "${files[@]}"; do
  name="$(basename "$f")"
  if git show "HEAD:$name" > "$baseline_dir/$name" 2>/dev/null; then
    pairs+=("$baseline_dir/$name" "$f")
  else
    echo "== $name: no committed baseline at HEAD, skipped"
  fi
done

if [ ${#pairs[@]} -eq 0 ]; then
  echo "nothing to compare"
  exit 0
fi

./target/release/bench_compare "${pairs[@]}"
