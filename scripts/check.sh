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
echo "== in-crate tests: data, core, json, serve and CLI =="
# The root package's suite does not reach in-crate tests; these hold
# the step clock and window encoder, the model and streaming engine,
# the JSON parser, the HTTP framing, the loopback round-trip and the
# CLI's serve test.
cargo test -q --release -p sagdfn-data -p sagdfn-core -p sagdfn-json -p sagdfn-serve -p sagdfn-cli

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
echo "== bench_tensor smoke (SIMD + pool regression guard) =="
TENSOR_OUT="$(mktemp)"
trap 'rm -f "$TENSOR_OUT"' EXIT
if [ -f BENCH_tensor.json ]; then
    # Fails if matmul_512's single-thread SIMD speedup falls under the
    # per-tier floor (3x on avx512) or the pooled arm regresses vs serial.
    cargo run --release -q -p sagdfn-bench --bin bench_tensor -- \
        --reps 7 --out "$TENSOR_OUT" --check BENCH_tensor.json
else
    echo "(no committed BENCH_tensor.json; smoke run only)"
    cargo run --release -q -p sagdfn-bench --bin bench_tensor -- \
        --reps 7 --out "$TENSOR_OUT"
fi

echo
echo "== bench_train_step smoke (allocation-churn regression guard) =="
SMOKE_OUT="$(mktemp)"
trap 'rm -f "$TENSOR_OUT" "$SMOKE_OUT"' EXIT
if [ -f BENCH_train.json ]; then
    # Fails if recycled bytes/step regresses past the committed baseline.
    cargo run --release -q -p sagdfn-bench --bin bench_train_step -- \
        --steps 6 --out "$SMOKE_OUT" --check BENCH_train.json
else
    echo "(no committed BENCH_train.json; smoke run only)"
    cargo run --release -q -p sagdfn-bench --bin bench_train_step -- \
        --steps 6 --out "$SMOKE_OUT"
fi

echo
echo "== bench_diffusion smoke (sparse-kernel regression guard) =="
DIFF_OUT="$(mktemp)"
trap 'rm -f "$TENSOR_OUT" "$SMOKE_OUT" "$DIFF_OUT"' EXIT
if [ -f BENCH_diffusion.json ]; then
    # Fails if the 90%-zeros sparse speedup collapses or the auto
    # dispatch stops falling back to dense on dense adjacencies.
    cargo run --release -q -p sagdfn-bench --bin bench_diffusion -- \
        --steps 6 --out "$DIFF_OUT" --check BENCH_diffusion.json
else
    echo "(no committed BENCH_diffusion.json; smoke run only)"
    cargo run --release -q -p sagdfn-bench --bin bench_diffusion -- \
        --steps 6 --out "$DIFF_OUT"
fi

echo
echo "== bench_scale smoke (node-sharding scale guard) =="
SCALE_OUT="$(mktemp)"
trap 'rm -f "$TENSOR_OUT" "$SMOKE_OUT" "$DIFF_OUT" "$SCALE_OUT"' EXIT
if [ -f BENCH_scale.json ]; then
    # Fails if any N stops completing train+eval, the N=20000 sharded
    # plan stops fitting the V100 budget (or the dense baseline stops
    # provably overflowing it), or seconds/step regresses past 1.5x.
    cargo run --release -q -p sagdfn-bench --bin bench_scale -- \
        --steps 2 --out "$SCALE_OUT" --check BENCH_scale.json
else
    echo "(no committed BENCH_scale.json; smoke run only)"
    cargo run --release -q -p sagdfn-bench --bin bench_scale -- \
        --steps 2 --out "$SCALE_OUT"
fi

echo
echo "== bench_trace smoke (observability overhead guard) =="
TRACE_OUT="$(mktemp)"
trap 'rm -f "$TENSOR_OUT" "$SMOKE_OUT" "$DIFF_OUT" "$SCALE_OUT" "$TRACE_OUT"' EXIT
if [ -f BENCH_trace.json ]; then
    # Fails if counters-mode tracing costs more than 3% over off, or if
    # any trace mode perturbs training results.
    cargo run --release -q -p sagdfn-bench --bin bench_trace -- \
        --steps 6 --out "$TRACE_OUT" --check BENCH_trace.json
else
    echo "(no committed BENCH_trace.json; smoke run only)"
    cargo run --release -q -p sagdfn-bench --bin bench_trace -- \
        --steps 6 --out "$TRACE_OUT"
fi

echo
echo "== bench_infer smoke (inference-path regression guard) =="
INFER_OUT="$(mktemp)"
trap 'rm -f "$TENSOR_OUT" "$SMOKE_OUT" "$DIFF_OUT" "$SCALE_OUT" "$TRACE_OUT" "$INFER_OUT"' EXIT
if [ -f BENCH_infer.json ]; then
    # Fails if the frozen-plan no-grad eval drops below 1.3x taped-eval
    # throughput, the no-grad tape falls behind the taped eval, the
    # compiled plan executor drops below 2.5x taped, the plan cache stops
    # hitting, a steady-state planned pass acquires buffers, or any eval
    # mode changes predictions.
    cargo run --release -q -p sagdfn-bench --bin bench_infer -- \
        --steps 6 --out "$INFER_OUT" --check BENCH_infer.json
else
    echo "(no committed BENCH_infer.json; smoke run only)"
    cargo run --release -q -p sagdfn-bench --bin bench_infer -- \
        --steps 6 --out "$INFER_OUT"
fi

echo
echo "== bench_serve smoke (serving-path regression guard) =="
SERVE_OUT="$(mktemp)"
trap 'rm -f "$TENSOR_OUT" "$SMOKE_OUT" "$DIFF_OUT" "$SCALE_OUT" "$TRACE_OUT" "$INFER_OUT" "$SERVE_OUT"' EXIT
if [ -f BENCH_serve.json ]; then
    # Fails if micro-batched throughput drops below 3x the per-request
    # interpreted path, a steady-state batch acquires buffers, the
    # 1000-client closed-loop arm stops completing requests or its p99
    # exceeds 500 ms, or batched responses stop being bit-identical.
    cargo run --release -q -p sagdfn-bench --bin bench_serve -- \
        --steps 5 --secs 0.5 --out "$SERVE_OUT" --check BENCH_serve.json
else
    echo "(no committed BENCH_serve.json; smoke run only)"
    cargo run --release -q -p sagdfn-bench --bin bench_serve -- \
        --steps 5 --secs 0.5 --out "$SERVE_OUT"
fi

echo
echo "== bench_stream smoke (streaming-path regression guard) =="
STREAM_OUT="$(mktemp)"
trap 'rm -f "$TENSOR_OUT" "$SMOKE_OUT" "$DIFF_OUT" "$SCALE_OUT" "$TRACE_OUT" "$INFER_OUT" "$SERVE_OUT" "$STREAM_OUT"' EXIT
if [ -f BENCH_stream.json ]; then
    # Fails if steady-state ticks acquire buffers or recompile the plan
    # (scaler drift must rebind in place), if rebinds stop tracking
    # ticks, or if throughput falls below 0.4x the committed baseline.
    # Plan-on/off bit-identity and fine-tune cadence are asserted in-run.
    cargo run --release -q -p sagdfn-bench --bin bench_stream -- \
        --steps 3 --out "$STREAM_OUT" --check BENCH_stream.json
else
    echo "(no committed BENCH_stream.json; smoke run only)"
    cargo run --release -q -p sagdfn-bench --bin bench_stream -- \
        --steps 3 --out "$STREAM_OUT"
fi

echo
echo "check.sh: all green"
