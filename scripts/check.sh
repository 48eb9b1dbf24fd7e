#!/usr/bin/env bash
# The full pre-merge gate: formatting, lints and the whole test suite.
# Everything runs offline — the workspace has no network dependencies.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "=== cargo fmt --check ==="
cargo fmt --all -- --check

echo "=== cargo clippy (deny warnings) ==="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "=== cargo doc (deny warnings) ==="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

echo "=== cargo test ==="
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

echo "=== benchmark self-tests (perfbench) ==="
# perfbench is a cargo package of its own that builds against the
# workspace crates by path: its metric names must match BENCHMARK.json,
# a corrupted result must fail its operation, and simulated results must
# repeat exactly per seed and across 1 and 2 NoC threads.
cargo test --release -q --offline --manifest-path perfbench/Cargo.toml

# The experiment binaries write their artifacts (BENCH_*.json and the
# observability exports) to the working directory; run them from a
# scratch directory so the committed files stay untouched.
cargo build --release -q --offline -p multinoc-bench --bins
bins="$PWD/target/release"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
run() { (cd "$out" && env "$@" > /dev/null); }

echo "=== fault-injection smoke checks (fixed seed) ==="
run "$bins/exp_fault_sweep"
run "$bins/exp_degradation"
echo "exp_fault_sweep and exp_degradation deterministic and green"

echo "=== kernel-performance smoke check (differential, fixed seed) ==="
# Sweeps the parallel kernel over powers-of-two thread counts clamped to
# the host's parallelism (plus one flagged oversubscribed point) and
# asserts equal Noc::fingerprints before any rate is recorded.
# On hosts with at least 2 CPUs it additionally asserts the saturated
# 32x32 batched-window run at threads=2 is not slower than threads=1
# (EXP_PERF_NO_SPEEDUP_CHECK=1 disables that gate on pathological hosts).
run EXP_PERF_SMOKE=1 "$bins/exp_perf"
echo "exp_perf kernels (sequential and parallel) agree on all workloads"

echo "=== observability smoke check (byte-identical exports, fixed seed) ==="
# Exports (Perfetto trace with span flow arrows, Prometheus exposition,
# metrics JSON, the E25 time-series JSON/Prometheus pair and the run
# report) must be byte-identical across kernels and run chunk lengths
# and pass the trace-event and time-series schema validators.
run EXP_OBS_SMOKE=1 "$bins/exp_observability"
echo "exp_observability exports identical across kernels and schema-valid"

echo "=== topology smoke check (mesh vs torus vs chiplet, fixed seed) ==="
# Matched-router-count sweep across the three topologies, serialized vs
# parallel off-chip d2d channel separation, and a 1024-router chiplet
# system on which the sequential and 8-thread parallel kernels must
# reach the same Noc::fingerprint.
run EXP_TOPOLOGY_SMOKE=1 "$bins/exp_topology"
echo "exp_topology deterministic, d2d channels separated, 1024 routers green"

echo "=== chaos smoke check (node death + failover, fixed seed) ==="
# Randomized (but seeded) router/IP-core deaths against replicated
# memory: pre-death writes must survive, post-failover writes must land
# exactly once, and every kernel must produce the identical run.
run EXP_CHAOS_SMOKE=1 "$bins/exp_chaos"
echo "exp_chaos survived every node death with exactly-once semantics"

echo "=== crash-recovery smoke check (checkpoint, hard kill, fresh-process restore) ==="
# A faulted + degraded run is checkpointed mid-flight, the process image
# discarded, and a fresh process must resume bit-identically to the run
# that was never interrupted — including cross-kernel restores.
run EXP_RECOVERY_SMOKE=1 "$bins/exp_recovery"
echo "exp_recovery resumed bit-identically from a hard kill"

echo "=== benchmark baseline comparison (warn-only) ==="
# Diffs the regenerated BENCH_*.json files against the baselines
# committed at HEAD; informational only — wall-clock rates vary by host.
scripts/bench_compare.sh "$out"/BENCH_*.json

echo "all checks passed"
