//! Observability overhead benchmark: measures seconds/step for a
//! steady-state SAGDFN training step under `SAGDFN_TRACE` off, counters,
//! and full modes. Writes `BENCH_trace.json`.
//!
//! Two contracts are checked:
//!  1. Non-perturbation — all three modes run the identical step sequence
//!     from the identical seed and must produce bit-identical final
//!     parameters (`params_bit_identical`). This is asserted always.
//!  2. Overhead budget — counters mode may cost at most 3% over off
//!     (atomics only, no clocks on the per-element paths). Enforced only
//!     under `--check`, which is how `scripts/check.sh` runs it.
//!
//! Timing alternates off/counters/full blocks and takes the minimum block
//! time per mode, so slow drift (thermal, scheduler) hits all modes alike.
//!
//! Usage: `bench_trace [--out FILE] [--steps N] [--check BASELINE]`

use sagdfn_autodiff::Tape;
use sagdfn_bench::gate::{self, Gate};
use sagdfn_core::{Sagdfn, SagdfnConfig};
use sagdfn_data::{Scale, SplitSpec, ThreeWaySplit};
use sagdfn_json::Json;
use sagdfn_nn::{Adam, masked_mae, Mode, Optimizer};
use sagdfn_obs as obs;
use sagdfn_tensor::pool;
use std::time::Instant;

const WARMUP_STEPS: usize = 8;
const TIMING_REPS: usize = 5;

/// Builds the steady-state workload (model + repeated fixed batch) and
/// returns a closure running one training step. Same recipe as
/// `bench_train_step`: tiny metr-la-like data, SNS resampling pinned off.
fn make_workload() -> (Sagdfn, impl FnMut(&mut Sagdfn) -> f32) {
    let data = sagdfn_data::metr_la_like(Scale::Tiny);
    let n = data.dataset.nodes();
    let split = ThreeWaySplit::new(data.dataset.subset_steps(0, 500), SplitSpec::paper(4, 4));
    let cfg = SagdfnConfig {
        epochs: 1,
        batch_size: 16,
        convergence_iter: 10,
        sns_every: 1_000_000,
        ..SagdfnConfig::for_scale(Scale::Tiny, n)
    };
    let model = Sagdfn::new(n, cfg.clone());
    let mut opt = Adam::new(cfg.lr).with_clip(cfg.grad_clip);
    let ids: Vec<usize> = (0..cfg.batch_size.min(split.train.len())).collect();
    let tape = Tape::new();
    let step = move |model: &mut Sagdfn| {
        let batch = split.train.make_batch(&ids);
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
    (model, step)
}

/// Phase 1: runs the full step sequence from a fresh model under `mode`
/// and returns the final parameter bits.
fn run_determinism(mode: obs::TraceMode, steps: usize) -> Vec<u32> {
    let prev = obs::set_trace_mode(mode);
    let (mut model, mut step) = make_workload();
    for _ in 0..steps {
        step(&mut model);
    }
    obs::set_trace_mode(prev);
    obs::drain_spans(); // free any full-mode span buffer
    let bits = model
        .params
        .ids()
        .flat_map(|id| model.params.get(id).as_slice().iter().map(|v| v.to_bits()))
        .collect();
    bits
}

fn main() {
    let args = gate::Args::parse("BENCH_trace.json", 12);
    let steps = args.steps;

    println!(
        "trace overhead benchmark: {} worker threads, {steps} steps/block, {TIMING_REPS} reps",
        pool::num_threads()
    );

    // Phase 1: non-perturbation. Fresh model per mode, identical sequence.
    let det_steps = steps.clamp(2, 6);
    let bits_off = run_determinism(obs::TraceMode::Off, det_steps);
    let bits_counters = run_determinism(obs::TraceMode::Counters, det_steps);
    let bits_full = run_determinism(obs::TraceMode::Full, det_steps);
    let identical = bits_off == bits_counters && bits_off == bits_full;
    println!("  params bit-identical across off/counters/full: {identical}");
    assert!(
        identical,
        "tracing perturbed training results — non-perturbation contract violated"
    );

    // Phase 2: timing. One long-lived model; alternate mode blocks and
    // keep the minimum block time per mode.
    let (mut model, mut step) = make_workload();
    for _ in 0..WARMUP_STEPS {
        step(&mut model);
    }
    let modes = [
        obs::TraceMode::Off,
        obs::TraceMode::Counters,
        obs::TraceMode::Full,
    ];
    let mut best = [f64::INFINITY; 3];
    for _ in 0..TIMING_REPS {
        for (i, &mode) in modes.iter().enumerate() {
            let prev = obs::set_trace_mode(mode);
            let t0 = Instant::now();
            for _ in 0..steps {
                step(&mut model);
            }
            let sec = t0.elapsed().as_secs_f64() / steps as f64;
            obs::set_trace_mode(prev);
            obs::drain_spans();
            if sec < best[i] {
                best[i] = sec;
            }
        }
    }
    let (off, counters, full) = (best[0], best[1], best[2]);
    let counters_overhead = counters / off - 1.0;
    let full_overhead = full / off - 1.0;
    println!("  off       {:>9.3} ms/step", off * 1e3);
    println!(
        "  counters  {:>9.3} ms/step   overhead {:>+7.2}%",
        counters * 1e3,
        counters_overhead * 100.0
    );
    println!(
        "  full      {:>9.3} ms/step   overhead {:>+7.2}%",
        full * 1e3,
        full_overhead * 100.0
    );

    let doc = Json::obj([
        ("threads", Json::from(pool::num_threads())),
        ("steps", Json::from(steps)),
        (
            "off",
            Json::obj([("seconds_per_step", Json::from(off))]),
        ),
        (
            "counters",
            Json::obj([("seconds_per_step", Json::from(counters))]),
        ),
        (
            "full",
            Json::obj([("seconds_per_step", Json::from(full))]),
        ),
        ("counters_overhead", Json::from(counters_overhead)),
        ("full_overhead", Json::from(full_overhead)),
        ("params_bit_identical", Json::from(identical)),
    ]);
    // The budget is absolute — counters mode must stay within 3% of off
    // — with a 0.1 ms/step floor so sub-millisecond timer noise cannot
    // flag a genuinely free instrumentation path.
    args.finish(doc, |_| {
        vec![Gate::at_most("counters sec/step within 3% of off", counters, off * 1.03 + 1e-4)]
    });
}
