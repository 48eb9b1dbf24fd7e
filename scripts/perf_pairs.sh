#!/usr/bin/env bash
# Alternating perfbench pairs: a base revision against the working tree.
# Builds perfbench for <base-rev> (extracted with `git archive` into the
# gitignored .bench_build/) and for the working tree, each with its own
# CARGO_TARGET_DIR under .bench_build/, then runs <pairs> pairs of
# `perfbench --workload <workload> --trace 0`, swapping which side runs
# first in every pair. Prints each pair's calibrated sim_cycles_per_s,
# then each side's median and q1-q3 and how often the working tree won.
# Fails if a run is incorrect or fails an operation, or if the two sides
# (or two runs) end at different makespans.
# Usage: scripts/perf_pairs.sh <base-rev> <workload> [--seed N] [--pairs N] [--seconds S]
#   (defaults: seed 1, 10 pairs, 50 s per run as in BENCHMARK.json)
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: $0 <base-rev> <workload> [--seed N] [--pairs N] [--seconds S]" >&2
    exit 2
}
[ $# -ge 2 ] || usage
base_rev=$1
workload=$2
shift 2
seed=1
pairs=10
seconds=50
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --seed) seed=$2 ;;
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        *) usage ;;
    esac
    shift 2
done

export CARGO_NET_OFFLINE=true
build=.bench_build
base_src=$build/base-src
rm -rf "$base_src"
mkdir -p "$base_src"
# `-m` stamps the files with the extraction time: with the commit's own
# times, cargo would take a build of a later base revision in the same
# target directory as up to date and run it for this one.
git archive "$(git rev-parse --verify "$base_rev^{commit}")" | tar -x -m -C "$base_src"

# side name -> perfbench binary
declare -A bin
for side in base change; do
    if [ "$side" = base ]; then src=$base_src; else src=.; fi
    CARGO_TARGET_DIR="$PWD/$build/$side" cargo build --release --offline --quiet \
        --manifest-path "$src/perfbench/Cargo.toml"
    bin[$side]="$PWD/$build/$side/release/perfbench"
done

results=$(mktemp)
trap 'rm -f "$results"' EXIT

# Runs one side and appends "side rate makespan correct failed".
run() {
    local line
    line=$("${bin[$1]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
        tail -n 1)
    python3 -c '
import json, sys
side, line = sys.argv[1], sys.argv[2]
d = json.loads(line)
m = d["metrics"]
print(side, m["sim_cycles_per_s"]["value"], m["makespan_cycles"]["value"],
      int(d["correct"]), d["failed"])
' "$1" "$line" >>"$results"
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="base change"; else order="change base"; fi
    for side in $order; do
        run "$side"
    done
    tail -n 2 "$results" | python3 -c '
import sys
i, first = sys.argv[1], sys.argv[2]
rows = {r.split()[0]: float(r.split()[1]) for r in sys.stdin}
base, change = rows["base"], rows["change"]
print(f"pair {i:>2} ({first} first): base {base / 1e6:.3f} M  "
      f"change {change / 1e6:.3f} M  ratio {change / base:.3f}")
' "$i" "${order%% *}"
done

python3 - "$results" "$workload" "$seed" <<'EOF'
import statistics, sys

path, workload, seed = sys.argv[1], sys.argv[2], sys.argv[3]
rows = [line.split() for line in open(path)]
rate = {"base": [], "change": []}
makespans, bad = set(), 0
for side, value, makespan, correct, failed in rows:
    rate[side].append(float(value))
    makespans.add(makespan)
    bad += correct != "1" or failed != "0"
print(f"{workload} seed {seed}, sim_cycles_per_s over {len(rate['base'])} pairs:")
for side, values in rate.items():
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    print(f"  {side:<6} median {statistics.median(values) / 1e6:.3f} M"
          f"  q1-q3 {q[0] / 1e6:.3f}-{q[2] / 1e6:.3f} M")
wins = sum(c > b for b, c in zip(rate["base"], rate["change"]))
print(f"  change faster in {wins}/{len(rate['base'])} pairs")
if bad:
    sys.exit(f"{bad} run(s) incorrect or failed an operation")
if len(makespans) != 1:
    sys.exit(f"makespans differ: {sorted(makespans)}")
print(f"  makespan_cycles {makespans.pop()} on both sides")
EOF
