#!/usr/bin/env bash
# Alternating perfbench pairs: a base revision against the working tree.
# Builds perfbench for <base-rev> (extracted with `git archive` into the
# gitignored .bench_build/) and for a copy of the working tree (every
# file `git ls-files -co --exclude-standard` lists, so uncommitted edits
# count) at a path of the same length, each with its own
# CARGO_TARGET_DIR under .bench_build/: source paths are compiled into
# the binaries, and paths of different lengths alone shift code layout
# enough to move the rates. Then runs <pairs> pairs of
# `perfbench --workload <workload> --trace 0`, swapping which side runs
# first in every pair. Prints each pair's calibrated sim_cycles_per_s,
# then, for every end-to-end metric BENCHMARK.json lists, each side's
# median and q1-q3 and a verdict: the change median against the base
# median, within the metric's relative `bound` in its `better`
# direction. The verdict is `unresolved` instead when either side's
# q1-q3 spread is wider than the bound and the two q1-q3 ranges
# overlap, unless every change run beats every base run: noise that
# wide can put either median past the bound. Also prints how often the
# working tree's rate won, and one claim line for sim_cycles_per_s: the
# gain rule a claimed speed-up must meet, the change winning at least
# 9/10 of the pairs (a tie counts for neither side) with a median gap
# wider than the base side's q1-q3 spread.
# Fails if a run is incorrect or fails an operation, if the two sides
# (or two runs) end at different makespans, or if any metric is clearly
# past its bound; an unresolved metric is listed but does not fail.
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
# side name -> source copy and target directory, equal in length per kind
declare -A src=([base]=$build/base-src [change]=$build/chng-src)
declare -A target=([base]=$build/base-tgt [change]=$build/chng-tgt)
base_commit=$(git rev-parse --verify "$base_rev^{commit}")
for side in base change; do
    rm -rf "${src[$side]}"
    mkdir -p "${src[$side]}"
done
# `-m` stamps the files with the extraction time: with the commit's own
# times (or a copy's), cargo would take a build of another revision in
# the same target directory as up to date and run it for this one.
git archive "$base_commit" | tar -x -m -C "${src[base]}"
git ls-files -z -co --exclude-standard |
    while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
    tar --null -T - -cf - | tar -x -m -C "${src[change]}"

# side name -> perfbench binary
declare -A bin
for side in base change; do
    CARGO_TARGET_DIR="$PWD/${target[$side]}" cargo build --release --offline --quiet \
        --manifest-path "${src[$side]}/perfbench/Cargo.toml"
    bin[$side]="$PWD/${target[$side]}/release/perfbench"
done

results=$(mktemp)
trap 'rm -f "$results"' EXIT

# Runs one side and appends "side correct failed <metric values as JSON>".
run() {
    local line
    line=$("${bin[$1]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
        tail -n 1)
    python3 -c '
import json, sys
side, line = sys.argv[1], sys.argv[2]
d = json.loads(line)
values = {name: m["value"] for name, m in d["metrics"].items()}
print(side, int(d["correct"]), d["failed"], json.dumps(values, separators=(",", ":")))
' "$1" "$line" >>"$results"
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="base change"; else order="change base"; fi
    for side in $order; do
        run "$side"
    done
    tail -n 2 "$results" | python3 -c '
import json, sys
i, first = sys.argv[1], sys.argv[2]
rows = {r.split()[0]: json.loads(r.split()[3])["sim_cycles_per_s"] for r in sys.stdin}
base, change = rows["base"], rows["change"]
print(f"pair {i:>2} ({first} first): base {base / 1e6:.3f} M  "
      f"change {change / 1e6:.3f} M  ratio {change / base:.3f}")
' "$i" "${order%% *}"
done

python3 - "$results" "$workload" "$seed" BENCHMARK.json <<'EOF'
import json, math, statistics, sys

path, workload, seed, spec = sys.argv[1:5]
metrics = json.load(open(spec))["end_to_end"]
values = {"base": [], "change": []}
bad = 0
for line in open(path):
    side, correct, failed, row = line.split()
    values[side].append(json.loads(row))
    bad += correct != "1" or failed != "0"
pairs = len(values["base"])
print(f"{workload} seed {seed}, medians over {pairs} pairs (q1-q3):")


def relative(delta, base):
    """`delta` as a fraction of `base`; a nonzero delta from 0 is infinite."""
    if delta == 0:
        return 0.0
    if base == 0:
        return float("inf") if delta > 0 else float("-inf")
    return delta / abs(base)


past, unresolved = [], []
quartiles = {}
for m in metrics:
    name, bound, better = m["name"], m["bound"], m["better"]
    sign = 1 if better == "higher" else -1
    runs, stats = {}, {}
    for side, rows in values.items():
        v = runs[side] = [row[name] for row in rows]
        q = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else v * 3
        stats[side] = (statistics.median(v), q[0], q[2])
    (b, b1, b3), (c, c1, c3) = stats["base"], stats["change"]
    quartiles[name] = stats
    # Relative change in the metric's good direction; below -bound is
    # past the bound.
    gain = relative(sign * (c - b), b)
    spread = max(relative(b3 - b1, b), relative(c3 - c1, b))
    overlap = b1 <= c3 and c1 <= b3
    dominates = min(sign * x for x in runs["change"]) > max(sign * x for x in runs["base"])
    if spread > bound and overlap and not dominates:
        verdict = "unresolved"
        unresolved.append(name)
    elif gain >= -bound:
        verdict = "ok"
    else:
        verdict = "PAST BOUND"
        past.append(name)
    print(f"  {name:<18} base {b:.6g} ({b1:.6g}-{b3:.6g})  change {c:.6g} ({c1:.6g}-{c3:.6g})"
          f"  {gain:+.1%} ({better} is better, bound {bound:.0%}) {verdict}")
rate = [(b["sim_cycles_per_s"], c["sim_cycles_per_s"])
        for b, c in zip(values["base"], values["change"])]
wins = sum(c > b for b, c in rate)
print(f"  change faster in {wins}/{pairs} pairs")
(b, b1, b3), (c, _, _) = quartiles["sim_cycles_per_s"]["base"], quartiles["sim_cycles_per_s"]["change"]
need = math.ceil(0.9 * pairs)
holds = wins >= need and c - b > b3 - b1
print(f"  claim sim_cycles_per_s: change won {wins}/{pairs} pairs (gain rule: >= {need}), "
      f"median gap {relative(c - b, b):+.1%} against a base q1-q3 spread of "
      f"{relative(b3 - b1, b):.1%}: {'holds' if holds else 'does not hold'}")
makespans = {row["makespan_cycles"] for rows in values.values() for row in rows}
if bad:
    sys.exit(f"{bad} run(s) incorrect or failed an operation")
if len(makespans) != 1:
    sys.exit(f"makespans differ: {sorted(makespans)}")
print(f"  makespan_cycles {makespans.pop():.0f} on both sides")
if unresolved:
    print(f"  unresolved (q1-q3 spread wider than the bound): {', '.join(unresolved)}")
if past:
    sys.exit(f"past the bound: {', '.join(past)}")
EOF
