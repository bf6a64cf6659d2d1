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
//! Timing races blocks of [`STEPS`] steps of one long-lived model
//! ([`gate::race`]): counters against off, then full against off, each
//! keeping the minimum block time per mode, so slow drift (thermal,
//! scheduler) hits both modes of a pair alike.
//!
//! Usage: `bench_trace [--out FILE] [--check BASELINE]`

use sagdfn_autodiff::Tape;
use sagdfn_bench::gate::{self, Gate};
use sagdfn_core::{Sagdfn, SagdfnConfig};
use sagdfn_data::{Scale, SplitSpec, ThreeWaySplit};
use sagdfn_json::Json;
use sagdfn_nn::{Adam, masked_mae, Mode, Optimizer};
use sagdfn_obs as obs;
use sagdfn_tensor::pool;
use std::cell::RefCell;

/// Training steps per timed block.
const STEPS: usize = 12;
/// Timed rounds of blocks.
const REPS: usize = 10;

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
    let args = gate::Args::parse("BENCH_trace.json");

    println!(
        "trace overhead benchmark: {} worker threads, {STEPS} steps/block, {REPS} reps",
        pool::num_threads()
    );

    // Phase 1: non-perturbation. Fresh model per mode, identical sequence.
    let bits_off = run_determinism(obs::TraceMode::Off, 6);
    let bits_counters = run_determinism(obs::TraceMode::Counters, 6);
    let bits_full = run_determinism(obs::TraceMode::Full, 6);
    let identical = bits_off == bits_counters && bits_off == bits_full;
    println!("  params bit-identical across off/counters/full: {identical}");
    assert!(
        identical,
        "tracing perturbed training results — non-perturbation contract violated"
    );

    // Phase 2: timing. One long-lived model shared by the three arms.
    let work = RefCell::new(make_workload());
    let arm = |mode: obs::TraceMode| {
        let work = &work;
        move || {
            let (model, step) = &mut *work.borrow_mut();
            let prev = obs::set_trace_mode(mode);
            for _ in 0..STEPS {
                step(model);
            }
            obs::set_trace_mode(prev);
            obs::drain_spans();
        }
    };
    let (mut off, mut counters, mut full) = (
        arm(obs::TraceMode::Off),
        arm(obs::TraceMode::Counters),
        arm(obs::TraceMode::Full),
    );
    // Counters and full each race off alone (see `gate::race`).
    let t = gate::race(1, REPS, &mut [&mut off, &mut counters]);
    let u = gate::race(1, REPS, &mut [&mut off, &mut full]);
    let [off, counters, full] = [t[0], t[1], u[1]].map(|sec| sec / STEPS as f64);
    let counters_overhead = t[1] / t[0] - 1.0;
    let full_overhead = u[1] / u[0] - 1.0;
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
        ("steps", Json::from(STEPS)),
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
