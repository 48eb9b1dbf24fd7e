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

echo "=== E18-E25 experiment smoke runs (pinned result digests) ==="
# exp_suite runs the seven extension experiments, each in its own child
# process, and fails unless every experiment's result digest (Fletcher-64
# over the Noc/System::fingerprint of each simulated run, one entry per
# kernel-agreed outcome) equals its pinned --smoke value. Inside, the
# experiments assert their own invariants: agreement across the five
# kernels, chaos's exactly-once semantics, the trace-event and
# time-series schemas, fresh-process and cross-kernel restores,
# fast-forward equality and, on hosts with at least 2 CPUs, the 2-thread
# gate (saturated 32x32 at threads=2 above 0.8x threads=1, each side the
# median of three alternating runs). The runner writes
# its artifacts (BENCH_*.json and the observability exports) to the
# working directory, so it runs in a scratch directory and the committed
# files stay untouched.
cargo build --release -q --offline -p multinoc-bench --bins
suite="$PWD/target/release/exp_suite"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
(cd "$out" && "$suite" --smoke > /dev/null)
echo "exp_suite --smoke: every experiment matches its pin"

echo "=== benchmark baseline comparison (warn-only) ==="
# Diffs the regenerated BENCH_*.json files against the baselines
# committed at HEAD; informational only — wall-clock rates vary by host.
scripts/bench_compare.sh "$out"/BENCH_*.json

echo "all checks passed"
