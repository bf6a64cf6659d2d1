//! Training-step allocation benchmark: measures seconds/step, heap
//! bytes-allocated/step (the `alloc::churn_bytes` counter), and peak live
//! bytes for a steady-state SAGDFN training step, with the recycling
//! buffer pool ON (after) vs OFF (before). Writes `BENCH_train.json`.
//!
//! Both modes run the identical step sequence from the identical seed, and
//! the final parameter bits are compared — the pool must not change a
//! single ulp (`params_bit_identical` in the output).
//!
//! Usage: `bench_train_step [--out FILE] [--check BASELINE]`
//!
//! With `--check`, the freshly measured recycled bytes/step is compared
//! against the `recycled.bytes_per_step` recorded in BASELINE (25% slack);
//! the process exits nonzero on regression — `scripts/check.sh` uses this
//! as the allocation-churn regression guard.

use sagdfn_autodiff::Tape;
use sagdfn_bench::gate::{self, Gate};
use sagdfn_core::{Sagdfn, SagdfnConfig};
use sagdfn_data::{Scale, SplitSpec, ThreeWaySplit};
use sagdfn_json::Json;
use sagdfn_nn::{Adam, masked_mae, Mode, Optimizer};
use sagdfn_tensor::{alloc, pool, Rng64};
use std::time::Instant;

const WARMUP_STEPS: usize = 8;
/// Measured steps per mode.
const STEPS: usize = 24;

struct ModeStats {
    seconds_per_step: f64,
    bytes_per_step: f64,
    peak_bytes: usize,
    param_bits: Vec<u32>,
}

/// Runs [`STEPS`] measured training steps (after warmup) from a fixed seed
/// with recycling forced on or off, and returns per-step stats plus the
/// final parameter bits for the determinism cross-check.
fn run_mode(recycle: bool) -> ModeStats {
    let prev = alloc::set_recycling(recycle);
    alloc::trim_pool();

    let data = sagdfn_data::metr_la_like(Scale::Tiny);
    let n = data.dataset.nodes();
    let split = ThreeWaySplit::new(data.dataset.subset_steps(0, 500), SplitSpec::paper(4, 4));
    let cfg = SagdfnConfig {
        epochs: 1,
        batch_size: 16,
        convergence_iter: 10,
        sns_every: 1_000_000, // keep resampling out of the steady-state loop
        ..SagdfnConfig::for_scale(Scale::Tiny, n)
    };
    let mut model = Sagdfn::new(n, cfg.clone());
    let mut opt = Adam::new(cfg.lr).with_clip(cfg.grad_clip);
    let mut shuffle_rng = Rng64::new(cfg.seed ^ 0x5EED);

    // The same step repeated: identical shapes every iteration, which is
    // exactly the steady state the recycling pool targets.
    let all_ids: Vec<Vec<usize>> = split.train.batch_ids(cfg.batch_size, Some(&mut shuffle_rng));
    let ids = &all_ids[0];
    let tape = Tape::new();

    let mut step = |model: &mut Sagdfn| {
        let batch = split.train.make_batch(ids);
        model.maybe_resample();
        tape.reset();
        let bind = model.params.bind(&tape);
        let pred = model.forward_scheduled(&tape, &bind, &batch, split.scaler, &[], Mode::Train);
        let mask = Sagdfn::loss_mask(&batch.y);
        let loss = masked_mae(pred, &batch.y, &mask);
        let loss_val = loss.item();
        let grads = loss.backward();
        opt.step(&mut model.params, &bind, &grads);
        tape.recycle_gradients(grads);
        model.tick();
        loss_val
    };

    for _ in 0..WARMUP_STEPS {
        step(&mut model);
    }

    alloc::reset_peak();
    let churn0 = alloc::churn_bytes();
    let t0 = Instant::now();
    for _ in 0..STEPS {
        step(&mut model);
    }
    let seconds = t0.elapsed().as_secs_f64();
    let churn = alloc::churn_bytes() - churn0;
    let peak = alloc::peak_bytes();

    let param_bits = model
        .params
        .ids()
        .flat_map(|id| model.params.get(id).as_slice().iter().map(|v| v.to_bits()))
        .collect();

    alloc::set_recycling(prev);
    alloc::trim_pool();
    ModeStats {
        seconds_per_step: seconds / STEPS as f64,
        bytes_per_step: churn as f64 / STEPS as f64,
        peak_bytes: peak,
        param_bits,
    }
}

fn mode_json(s: &ModeStats) -> Json {
    Json::obj([
        ("seconds_per_step", Json::from(s.seconds_per_step)),
        ("bytes_per_step", Json::from(s.bytes_per_step)),
        ("peak_bytes", Json::from(s.peak_bytes)),
    ])
}

fn main() {
    let args = gate::Args::parse("BENCH_train.json");

    println!(
        "train-step allocation benchmark: {} worker threads, {STEPS} measured steps",
        pool::num_threads()
    );

    // "Before": every tensor buffer comes from the heap allocator.
    let fresh = run_mode(false);
    // "After": steady-state buffers come from the recycling free list.
    let recycled = run_mode(true);

    let identical = fresh.param_bits == recycled.param_bits;
    let churn_ratio = if fresh.bytes_per_step > 0.0 {
        recycled.bytes_per_step / fresh.bytes_per_step
    } else {
        0.0
    };
    println!(
        "  fresh     {:>9.3} ms/step   {:>12.0} bytes/step   peak {:>12} B",
        fresh.seconds_per_step * 1e3,
        fresh.bytes_per_step,
        fresh.peak_bytes
    );
    println!(
        "  recycled  {:>9.3} ms/step   {:>12.0} bytes/step   peak {:>12} B",
        recycled.seconds_per_step * 1e3,
        recycled.bytes_per_step,
        recycled.peak_bytes
    );
    println!(
        "  churn ratio {:.4} ({:.2}% of fresh)   params bit-identical: {identical}",
        churn_ratio,
        churn_ratio * 100.0
    );
    assert!(
        identical,
        "recycling changed training results — determinism contract violated"
    );

    let doc = Json::obj([
        ("threads", Json::from(pool::num_threads())),
        ("steps", Json::from(STEPS)),
        ("fresh", mode_json(&fresh)),
        ("recycled", mode_json(&recycled)),
        ("churn_ratio", Json::from(churn_ratio)),
        ("params_bit_identical", Json::from(identical)),
    ]);
    // 25% slack plus a small absolute floor so near-zero baselines do
    // not flag on counter noise.
    args.finish(doc, |base| {
        vec![Gate::at_most(
            "recycled bytes/step",
            recycled.bytes_per_step,
            base.f64("recycled.bytes_per_step") * 1.25 + 64.0 * 1024.0,
        )]
    });
}
