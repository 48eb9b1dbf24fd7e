#!/usr/bin/env bash
# Runs every example in examples/ once, release build, stdin closed. Each
# one drives the public API end to end (the host protocol, the debugger,
# reconfiguration) and asserts its own results, so a non-zero exit fails
# the script. Usage: scripts/run_examples.sh   (~1 s once built)
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo build --release --offline --quiet --examples
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    echo "--- $name"
    "target/release/examples/$name" < /dev/null > /dev/null
done
