#!/usr/bin/env bash
# Local pre-PR gate: release build, full test suite, clippy clean.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release --workspace =="
# --workspace matters: the root package does not depend on the CLI or
# bench crates, so a bare build leaves target/release/sagdfn stale.
cargo build --release --workspace

echo
echo "== cargo test -q =="
cargo test -q

echo
echo "== in-crate tests: every workspace crate =="
# The root package's suite does not reach the member crates' own tests
# (kernel and SIMD-tier bit-identity units, the step clock, the JSON
# parser, the HTTP framing, the gate harness, the CLI's serve test).
cargo test -q --release --workspace --exclude sagdfn-repro

echo
echo "== cargo clippy -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo
echo "== determinism matrix under forced-scalar kernels (SAGDFN_SIMD=scalar) =="
# Every SIMD tier must be bit-identical to the scalar reference; rerun
# the cross-mode equality suites with the dispatch pinned to scalar so a
# drifting vector kernel cannot hide behind an identically-drifting one.
SAGDFN_SIMD=scalar cargo test -q --release --test simd_dispatch --test sparse_dense \
    --test baseline_matrix --test head_oracle

echo
echo "== determinism matrix with the plan executor pinned on and off =="
# The compiled eval schedule must stay bit-identical to the interpreted
# eval whichever way the dispatch env resolves; rerun the oracle and the
# eval-equivalence suite with SAGDFN_PLAN forced both ways.
SAGDFN_PLAN=on cargo test -q --release --test plan_executor --test eval_mode --test head_oracle
SAGDFN_PLAN=off cargo test -q --release --test plan_executor --test eval_mode --test head_oracle

echo
echo "== serving bit-exactness oracle across dispatch modes =="
# Micro-batched serving must answer bit-identically to per-request
# predict whichever way the plan and SIMD dispatch resolve; rerun the
# oracle with each pinned.
SAGDFN_PLAN=on cargo test -q --release --test serve_batching
SAGDFN_PLAN=off cargo test -q --release --test serve_batching
SAGDFN_SIMD=scalar cargo test -q --release --test serve_batching

echo
echo "== streaming determinism matrix (SAGDFN_THREADS x SAGDFN_PLAN) =="
# Online forecasts are pinned against a committed fixture
# (tests/fixtures/golden_stream.txt); rerunning the suite across thread
# counts and plan modes proves the streaming engine — ring rebuilds,
# incremental scaler, plan rebinds, probabilistic heads — is bit-exact
# whichever way the dispatch resolves.
SAGDFN_THREADS=1 SAGDFN_PLAN=on  cargo test -q --release --test stream --test quantile_head
SAGDFN_THREADS=1 SAGDFN_PLAN=off cargo test -q --release --test stream --test quantile_head
SAGDFN_THREADS=8 SAGDFN_PLAN=on  cargo test -q --release --test stream --test quantile_head
SAGDFN_THREADS=8 SAGDFN_PLAN=off cargo test -q --release --test stream --test quantile_head

echo
echo "== determinism matrix across forced shard counts (SAGDFN_SHARDS) =="
# Node sharding is a memory-layout decision only (DESIGN.md §14): the
# sparse/dense equivalence suite must hold bit-for-bit whatever shard
# count the resolver is pinned to.
SAGDFN_SHARDS=1 cargo test -q --release --test sparse_dense
SAGDFN_SHARDS=4 cargo test -q --release --test sparse_dense

echo
echo "== regression gates: each bench_* --check against its committed BENCH_*.json =="
# Every baseline is committed, so a missing one fails here instead of
# degrading to a smoke run. Each binary lists all of its gates (value,
# limit, pass/FAIL) and exits 1 if any failed; the gates themselves live
# in the binaries (crates/bench/src/bin/bench_*.rs), and each binary runs
# at the fixed size its baseline was recorded with — on one worker thread,
# as every baseline records: on a shared host a parallel arm's time
# depends on whether another core is free at that moment, which racing
# the arms cannot cancel.
#   binary            baseline
GATES=(
    "bench_tensor      tensor"
    "bench_train_step  train"
    "bench_diffusion   diffusion"
    "bench_scale       scale"
    "bench_trace       trace"
    "bench_infer       infer"
    "bench_serve       serve"
    "bench_stream      stream"
)
GATE_OUT="$(mktemp -d)"
trap 'rm -rf "$GATE_OUT"' EXIT
for row in "${GATES[@]}"; do
    read -r bin name <<< "$row"
    echo
    echo "-- $bin --check BENCH_$name.json"
    SAGDFN_THREADS=1 cargo run --release -q -p sagdfn-bench --bin "$bin" -- \
        --out "$GATE_OUT/$name.json" --check "BENCH_$name.json"
done

echo
echo "check.sh: all green"
