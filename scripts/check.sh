#!/usr/bin/env bash
# The full pre-merge gate: formatting, lints and the whole test suite.
# Everything runs offline — the workspace has no network dependencies.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# Every step closes with its wall time and the run with the total, so
# one run shows where the gate's time goes.
step_name=""
step_start=$SECONDS
lap() {
    if [[ -n "$step_name" ]]; then
        echo "[$step_name: $((SECONDS - step_start)) s]"
    fi
}
step() {
    lap
    step_name="$1"
    step_start=$SECONDS
    echo "=== $1 ==="
}

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

step "cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

step "cargo test"
# Includes the determinism contract as one snapshot-checked matrix per
# crate: hermes/tests/differential.rs (every network schedule — healthy,
# faulted, degraded, router-killed, 4-record stats window, torus, both
# chiplet d2d channels) and multinoc/tests/differential.rs (the
# retransmission, failover, span-walk, fast-forward and topology
# workloads), each × observers {off, all on} × kernels {Reference,
# Active, Parallel 1/2/8} × driving {step, run over irregular chunks}.
# Noc::fingerprint / System::fingerprint must agree at every chunk
# boundary, and a mid-run snapshot restored under another kernel must
# resume to the same fingerprints.
cargo test -q --offline --workspace

step "examples (release, stdin closed)"
# The examples drive Host, Debugger and reconfiguration end to end and
# assert their own results.
scripts/run_examples.sh

step "benchmark self-tests (perfbench)"
# perfbench is a cargo package of its own that builds against the
# workspace crates by path: its metric names must match BENCHMARK.json,
# a corrupted result must fail its operation, and simulated results must
# repeat exactly per seed and across 1 and 2 NoC threads.
cargo test --release -q --offline --manifest-path perfbench/Cargo.toml

step "perfbench makespan gate (pinned simulated results)"
# Every perfbench workload at seeds 1 and 9001 must verify its outputs,
# fail no operation and end at its pinned makespan_cycles: a change to
# simulator speed must not move what the benchmark simulates.
scripts/makespan_gate.sh

step "E1-E25 experiment smoke runs (pinned result digests)"
# exp_suite runs eight experiments covering E1-E25, each in its own child
# process, and fails unless every experiment's result digest (Fletcher-64
# over the Noc/System::fingerprint of each simulated run, one entry per
# kernel-agreed outcome) equals its pinned --smoke value. Inside, the
# experiments assert their own invariants: the paper's claims (E1-E17),
# agreement across the five kernels, chaos's exactly-once semantics, the
# trace-event and time-series schemas, fresh-process and cross-kernel
# restores, fast-forward equality and, on hosts with at least 2 CPUs,
# the 2-thread gate (saturated 32x32 at threads=2 above 0.8x threads=1,
# each side the median of three alternating runs). The runner writes its
# artifacts (RUN_REPORT_paper.md, BENCH_*.json and the observability
# exports) to the working directory, so it runs in a scratch directory
# and the committed files stay untouched. `paper` has no smoke variant,
# so the smoke pass regenerates the committed RUN_REPORT_paper.md.
cargo build --release -q --offline -p multinoc-bench --bin exp_suite
suite="$PWD/target/release/exp_suite"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
(cd "$out" && "$suite" --smoke > /dev/null)
cmp "$out/RUN_REPORT_paper.md" RUN_REPORT_paper.md
echo "exp_suite --smoke: every experiment matches its pin; RUN_REPORT_paper.md regenerates"

step "committed experiment exports (byte for byte)"
# Full runs of degradation, observability (the 8x scale the committed
# exports come from; --smoke output is the 1x scale), chaos and topology
# must regenerate each committed export byte for byte. Host-time files
# (BENCH_perf.json, BENCH_parallel.json, BENCH_recovery.json) are
# written but not committed: wall-clock rates cannot be gated.
mkdir "$out/full"
(cd "$out/full" && "$suite" degradation observability chaos topology > /dev/null)
for f in TRACE_perfetto.json TIMESERIES_observability.json TIMESERIES_observability.prom \
    METRICS_observability.json METRICS_observability.prom HEATMAP_utilization.txt \
    RUN_REPORT_observability.md BENCH_degradation.json BENCH_chaos.json BENCH_topology.json; do
    cmp "$out/full/$f" "$f"
done
echo "exp_suite: the committed exports regenerate byte for byte"

lap
echo "all checks passed in $SECONDS s"
