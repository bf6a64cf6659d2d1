//! Planned-vs-interpreted oracle for the compiled eval schedule.
//!
//! The plan executor replays the exact eval forward as a linearized
//! kernel schedule over pre-resolved buffer slots, so its output must be
//! bit-identical to the interpreted no-grad eval (`PlanMode::Off`) in
//! every kernel configuration: scalar vs auto SIMD dispatch, sparse vs
//! dense diffusion, pooled (8 threads) vs serial execution, and for both
//! full and ragged tail batch shapes. On top of bit-identity, the
//! executor's lifecycle contracts are pinned here: schedules recompile
//! exactly when the frozen adjacency is invalidated (`tick`,
//! `maybe_resample`, `refresh_index`), a steady-state planned forward
//! performs zero allocator acquires, and the planned `Mode::Eval` path
//! stores a single eval value instead of one per interpreted op.
//!
//! This binary pins `SAGDFN_THREADS=8` (serial cases run through
//! `pool::run_serial`) and serializes tests on one lock because the obs
//! counters and the plan/SIMD/sparse mode switches are process-global.

use sagdfn_repro::autodiff::Tape;
use sagdfn_repro::data::{metr_la_like, Scale, SplitSpec, ThreeWaySplit};
use sagdfn_repro::nn::Mode;
use sagdfn_repro::obs::{self, TraceMode};
use sagdfn_repro::sagdfn::{set_plan_mode, PlanMode, Sagdfn, SagdfnConfig};
use sagdfn_repro::tensor::{pool, set_simd_mode, set_sparse_mode, SimdMode, SparseMode, Tensor};
use std::sync::{Mutex, Once};

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// Pins the pool width before any test can touch it (pool construction is
/// lazy, and tests in one binary share the process).
fn init_threads() {
    static INIT: Once = Once::new();
    INIT.call_once(|| std::env::set_var("SAGDFN_THREADS", "8"));
}

fn build() -> (Sagdfn, ThreeWaySplit) {
    let data = metr_la_like(Scale::Tiny);
    let n = data.dataset.nodes();
    let split = ThreeWaySplit::new(data.dataset.subset_steps(0, 400), SplitSpec::paper(6, 6));
    let model = Sagdfn::new(n, SagdfnConfig::for_scale(Scale::Tiny, n));
    (model, split)
}

/// Bits of every prediction from a no-grad `Mode::Eval` sweep over one
/// full batch and one ragged tail batch, with the plan executor forced on
/// or off. The plan is invalidated first so the frozen adjacency is also
/// rebuilt under the active kernel configuration.
fn eval_bits(model: &Sagdfn, split: &ThreeWaySplit, planned: bool) -> Vec<u32> {
    let prev = set_plan_mode(if planned { PlanMode::On } else { PlanMode::Off });
    model.invalidate_plan();
    let mut bits = Vec::new();
    for ids in [&[0usize, 1, 2, 3][..], &[4, 5][..]] {
        let batch = split.test.make_batch(ids);
        let tape = Tape::new();
        let _guard = tape.no_grad();
        let bind = model.params.bind(&tape);
        let pred = model
            .forward(&tape, &bind, &batch, split.scaler, Mode::Eval)
            .value();
        bits.extend(pred.as_slice().iter().map(|v| v.to_bits()));
    }
    set_plan_mode(prev);
    bits
}

#[test]
fn planned_matches_interpreted_across_simd_sparse_and_threads() {
    init_threads();
    let _lock = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, split) = build();
    let mut baseline: Option<Vec<u32>> = None;

    for simd in [SimdMode::Auto, SimdMode::Scalar] {
        for sparse in [SparseMode::On, SparseMode::Off] {
            let prev_simd = set_simd_mode(simd);
            let prev_sparse = set_sparse_mode(sparse);
            let what = format!("simd={simd:?} sparse={sparse:?}");

            let interpreted = eval_bits(&model, &split, false);
            let planned = eval_bits(&model, &split, true);
            assert_eq!(planned, interpreted, "{what}: planned vs interpreted");

            let serial_interpreted = pool::run_serial(|| eval_bits(&model, &split, false));
            let serial_planned = pool::run_serial(|| eval_bits(&model, &split, true));
            assert_eq!(serial_planned, serial_interpreted, "{what}: serial");
            assert_eq!(serial_planned, planned, "{what}: serial vs pooled");

            // Every configuration agrees with every other: the kernel
            // bit-identity contract composes with the executor's.
            let base = baseline.get_or_insert_with(|| planned.clone());
            assert_eq!(&planned, base, "{what}: diverged from first config");

            set_simd_mode(prev_simd);
            set_sparse_mode(prev_sparse);
        }
    }
}

/// One planned forward, returning the (plan_compiles, plan_execs) obs
/// delta it produced.
fn planned_once(model: &Sagdfn, split: &ThreeWaySplit) -> (u64, u64) {
    let batch = split.test.make_batch(&[0, 1]);
    let mut out = Tensor::zeros([batch.y.dim(0), batch.x.dim(1), batch.x.dim(2)]);
    let base = obs::snapshot();
    assert!(
        model.planned_forward_into(&batch, split.scaler, &mut out),
        "GRU backbone with PlanMode::On must take the planned path"
    );
    let delta = obs::snapshot().since(&base);
    assert!(out.all_finite());
    (delta.plan_compiles, delta.plan_execs)
}

#[test]
fn schedule_recompiles_exactly_on_invalidation() {
    init_threads();
    let _lock = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = metr_la_like(Scale::Tiny);
    let n = data.dataset.nodes();
    let split = ThreeWaySplit::new(data.dataset.subset_steps(0, 400), SplitSpec::paper(6, 6));
    // sns_every=1 so maybe_resample always fires; convergence_iter=0 so it
    // samples deterministically (no exploration).
    let cfg = SagdfnConfig {
        sns_every: 1,
        convergence_iter: 0,
        ..SagdfnConfig::for_scale(Scale::Tiny, n)
    };
    let mut model = Sagdfn::new(n, cfg);
    let prev_trace = obs::set_trace_mode(TraceMode::Counters);
    let prev_plan = set_plan_mode(PlanMode::On);
    model.invalidate_plan();

    assert_eq!(planned_once(&model, &split), (1, 1), "first run compiles");
    assert_eq!(planned_once(&model, &split), (0, 1), "steady state reuses");
    model.tick();
    assert_eq!(planned_once(&model, &split), (1, 1), "tick invalidates");
    assert_eq!(planned_once(&model, &split), (0, 1));
    model.refresh_index();
    assert_eq!(planned_once(&model, &split), (1, 1), "refresh invalidates");
    model.maybe_resample();
    assert_eq!(planned_once(&model, &split), (1, 1), "resample invalidates");

    set_plan_mode(prev_plan);
    obs::set_trace_mode(prev_trace);
}

#[test]
fn steady_state_planned_forward_acquires_no_buffers() {
    init_threads();
    let _lock = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, split) = build();
    let prev_trace = obs::set_trace_mode(TraceMode::Counters);
    let prev_plan = set_plan_mode(PlanMode::On);
    model.invalidate_plan();

    let batch = split.test.make_batch(&[0, 1, 2]);
    let mut out = Tensor::zeros([batch.y.dim(0), batch.x.dim(1), batch.x.dim(2)]);
    // Warmup compiles the schedule and allocates its slot arena.
    assert!(model.planned_forward_into(&batch, split.scaler, &mut out));
    let base = obs::snapshot();
    for _ in 0..3 {
        assert!(model.planned_forward_into(&batch, split.scaler, &mut out));
    }
    let delta = obs::snapshot().since(&base);
    assert_eq!(
        delta.alloc_acquires, 0,
        "steady-state planned forwards must run entirely in pre-resolved slots"
    );
    assert_eq!(delta.plan_compiles, 0);
    assert_eq!(delta.plan_execs, 3);

    set_plan_mode(prev_plan);
    obs::set_trace_mode(prev_trace);
}

#[test]
fn planned_eval_bypasses_the_tape() {
    init_threads();
    let _lock = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, split) = build();
    let batch = split.test.make_batch(&[0, 1]);

    // The eval-arena growth of one forward: planned stores only the final
    // prediction constant; the interpreter stores one value per op.
    let eval_growth = |planned: bool| -> usize {
        let prev = set_plan_mode(if planned { PlanMode::On } else { PlanMode::Off });
        model.invalidate_plan();
        let tape = Tape::new();
        let _guard = tape.no_grad();
        let bind = model.params.bind(&tape);
        let before = tape.eval_len();
        let _ = model.forward(&tape, &bind, &batch, split.scaler, Mode::Eval);
        set_plan_mode(prev);
        assert_eq!(tape.len(), 0, "no-grad eval must record zero tape nodes");
        tape.eval_len() - before
    };

    assert_eq!(eval_growth(true), 1, "planned eval stores one constant");
    assert!(
        eval_growth(false) > 10,
        "interpreted eval stores per-op values"
    );
}
