#!/usr/bin/env bash
# Re-records the eight committed regression baselines (BENCH_*.json at
# the repo root) that scripts/check.sh gates against, one per bench_*
# binary. Each binary's run size is a constant in its source and both
# scripts pin one worker thread, so a baseline is recorded with exactly
# the measurement check.sh gates.
#
# Usage: scripts/bench_baseline.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== building (release) =="
cargo build --release -p sagdfn-bench

for row in tensor:bench_tensor train:bench_train_step diffusion:bench_diffusion \
    trace:bench_trace infer:bench_infer scale:bench_scale serve:bench_serve \
    stream:bench_stream; do
    name="${row%%:*}" bin="${row#*:}"
    echo
    echo "== $bin -> BENCH_$name.json =="
    SAGDFN_THREADS=1 cargo run --release -q -p sagdfn-bench --bin "$bin" -- --out "BENCH_$name.json"
done
