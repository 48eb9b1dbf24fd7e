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
# Every kernel runs the same windowed cycle engine; they differ only in
# thread count and in walking the active set or every router. Includes
# the differential kernel suites: hermes/tests/kernel_equivalence.rs
# (reference full walk vs active set vs parallel shards at 1/2/8
# threads, cycle-identical, plus the batch-window sweep — every window
# size in {1,2,5,16} × every thread count bit-identical to the per-cycle
# reference kernel on healthy, faulted, degraded and router-killed
# schedules, with checkpoint/restore at arbitrary run split points),
# multinoc/tests/kernel_invariance.rs (kernel and thread-count
# invariance at system level, on the mesh, the torus and a chiplet mesh)
# and multinoc/tests/fast_forward_equivalence.rs (idle fast-forward vs
# single-stepping).
cargo test -q --offline --workspace

echo "=== benchmark self-tests (perfbench) ==="
# perfbench is a cargo package of its own that builds against the
# workspace crates by path: its metric names must match BENCHMARK.json,
# a corrupted result must fail its operation, and simulated results must
# repeat exactly per seed and across 1 and 2 NoC threads.
cargo test --release -q --offline --manifest-path perfbench/Cargo.toml

echo "=== fault-injection smoke checks (fixed seed) ==="
cargo run --release -q --offline -p multinoc-bench --bin exp_fault_sweep > /dev/null
cargo run --release -q --offline -p multinoc-bench --bin exp_degradation > /dev/null
echo "exp_fault_sweep and exp_degradation deterministic and green"

echo "=== kernel-performance smoke check (differential, fixed seed) ==="
# Sweeps the parallel kernel over powers-of-two thread counts clamped to
# the host's parallelism (plus one flagged oversubscribed point) and
# asserts bit-identical simulated outcomes before any rate is recorded.
# On hosts with at least 2 CPUs it additionally asserts the saturated
# 32x32 batched-window run at threads=2 is not slower than threads=1
# (EXP_PERF_NO_SPEEDUP_CHECK=1 disables that gate on pathological hosts).
EXP_PERF_SMOKE=1 cargo run --release -q --offline -p multinoc-bench --bin exp_perf > /dev/null
echo "exp_perf kernels (sequential and parallel) agree on all workloads"

echo "=== observability smoke check (byte-identical exports, fixed seed) ==="
# Exports (Perfetto trace with span flow arrows, Prometheus exposition,
# metrics JSON, the E25 time-series JSON/Prometheus pair and the run
# report) must be byte-identical across kernels and batch windows and
# pass the trace-event and time-series schema validators.
EXP_OBS_SMOKE=1 cargo run --release -q --offline -p multinoc-bench --bin exp_observability > /dev/null
echo "exp_observability exports identical across kernels and schema-valid"

echo "=== benchmark baseline comparison (warn-only) ==="
# Diffs regenerated BENCH_*.json files against the baselines committed
# at HEAD; informational only — wall-clock rates vary by host.
scripts/bench_compare.sh

echo "=== topology smoke check (mesh vs torus vs chiplet, fixed seed) ==="
# Matched-router-count sweep across the three topologies, serialized vs
# parallel off-chip d2d channel separation, and a 1024-router chiplet
# system on which the sequential and 8-thread parallel kernels must
# agree on every counter.
EXP_TOPOLOGY_SMOKE=1 cargo run --release -q --offline -p multinoc-bench --bin exp_topology > /dev/null
echo "exp_topology deterministic, d2d channels separated, 1024 routers green"

echo "=== chaos smoke check (node death + failover, fixed seed) ==="
# Randomized (but seeded) router/IP-core deaths against replicated
# memory: pre-death writes must survive, post-failover writes must land
# exactly once, and every kernel must produce the identical run.
EXP_CHAOS_SMOKE=1 cargo run --release -q --offline -p multinoc-bench --bin exp_chaos > /dev/null
echo "exp_chaos survived every node death with exactly-once semantics"

echo "=== crash-recovery smoke check (checkpoint, hard kill, fresh-process restore) ==="
# A faulted + degraded run is checkpointed mid-flight, the process image
# discarded, and a fresh process must resume bit-identically to the run
# that was never interrupted — including cross-kernel restores.
EXP_RECOVERY_SMOKE=1 cargo run --release -q --offline -p multinoc-bench --bin exp_recovery > /dev/null
echo "exp_recovery resumed bit-identically from a hard kill"

echo "all checks passed"
