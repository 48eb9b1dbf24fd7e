#!/usr/bin/env bash
# Exact gate on perfbench's simulated results. Every workload runs at
# seed 1 and at the held-out seed 9001 (one second each, observers off)
# and must verify every output, fail no operation and end at its pinned
# makespan. A change to simulator speed moves none of these; a change to
# what is simulated must move a pin deliberately, with the reason.
# Usage: scripts/makespan_gate.sh   (~15 s on 2 CPUs once built)
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# workload seed makespan_cycles
pins="
sea12       1    85289
edge_host   1    76395
mem_hotspot 1    93149
noc_sat32   1    5309
sea12       9001 85289
edge_host   9001 76395
mem_hotspot 9001 93149
noc_sat32   9001 5548
"

cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
failed=0
while read -r workload seed want; do
    [ -n "$workload" ] || continue
    result="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds 1 --trace 0 | tail -n 1)"
    if ! verdict="$(python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
makespan = result["metrics"]["makespan_cycles"]["value"]
print("correct=%s failed=%s makespan_cycles=%g" % (result["correct"], result["failed"], makespan))
ok = result["correct"] is True and result["failed"] == 0 and makespan == int(sys.argv[1])
sys.exit(0 if ok else 1)
' "$want" <<<"$result")"; then
        echo "FAIL $workload seed $seed: $verdict (pinned makespan_cycles=$want)"
        failed=1
    else
        echo "ok   $workload seed $seed: $verdict"
    fi
done <<<"$pins"
exit "$failed"
