//! Train-vs-eval execution equivalence, end to end.
//!
//! The no-grad eval path computes values through the identical tensor
//! kernels as the recording path — it only skips backward-closure
//! allocation and node recording, and swaps the per-batch adjacency
//! rebuild for the frozen plan (itself computed by the same Var ops).
//! In IEEE-754 terms nothing about the arithmetic changes, so a taped
//! `Mode::Train` forward and a no-grad `Mode::Eval` forward must agree
//! on the loss and *every* prediction under bitwise `f32` equality —
//! across ablation variants, with the eval running planned or
//! interpreted, with the worker pool at 8 threads or on the serial path,
//! and with buffer recycling on or off.
//!
//! This binary pins `SAGDFN_THREADS=8` (the serial cases run through
//! `pool::run_serial`), and serializes tests on one lock because the
//! allocation and obs counters and the plan and recycling modes are
//! process-global.

use sagdfn_repro::autodiff::Tape;
use sagdfn_repro::data::{metr_la_like, Scale, SlidingWindows, SplitSpec, ThreeWaySplit};
use sagdfn_repro::nn::{masked_mae, Mode};
use sagdfn_repro::obs::{self, TraceMode};
use sagdfn_repro::sagdfn::{set_plan_mode, trainer, PlanMode, Sagdfn, SagdfnConfig, Variant};
use sagdfn_repro::tensor::{alloc, pool};
use std::sync::{Mutex, Once};

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// Pins the pool width before any test can touch it (pool construction is
/// lazy, and tests in one binary share the process).
fn init_threads() {
    static INIT: Once = Once::new();
    INIT.call_once(|| std::env::set_var("SAGDFN_THREADS", "8"));
}

fn build(variant: Variant) -> (Sagdfn, ThreeWaySplit) {
    let data = metr_la_like(Scale::Tiny);
    let n = data.dataset.nodes();
    let split = ThreeWaySplit::new(data.dataset.subset_steps(0, 400), SplitSpec::paper(6, 6));
    let cfg = SagdfnConfig::for_scale(Scale::Tiny, n);
    let model = match variant {
        Variant::WithoutSnsSsma => {
            let topo = data.graph.adj.topk_rows(8).weights().clone();
            Sagdfn::with_variant(n, cfg, variant, Some(topo))
        }
        _ => Sagdfn::with_variant(n, cfg, variant, None),
    };
    (model, split)
}

/// One forward + loss in the given execution mode; returns the loss bits,
/// every prediction's bits, and how many graph nodes the tape recorded.
fn forward_bits(model: &Sagdfn, split: &ThreeWaySplit, eval: bool) -> (u32, Vec<u32>, usize) {
    let batch = split.test.make_batch(&[0, 1, 2]);
    let tape = Tape::new();
    let _guard = eval.then(|| tape.no_grad());
    let bind = model.params.bind(&tape);
    let mode = if eval { Mode::Eval } else { Mode::Train };
    // Rebuild the frozen plan inside the measured configuration so the
    // cached adjacency is also produced under it.
    model.invalidate_plan();
    let pred = model.forward(&tape, &bind, &batch, split.scaler, mode);
    let mask = Sagdfn::loss_mask(&batch.y);
    let loss = masked_mae(pred, &batch.y, &mask);
    let loss_bits = loss.item().to_bits();
    let pred_bits = pred.value().as_slice().iter().map(|v| v.to_bits()).collect();
    (loss_bits, pred_bits, tape.len())
}

fn assert_same(
    (loss_a, pred_a, _): &(u32, Vec<u32>, usize),
    (loss_b, pred_b, _): &(u32, Vec<u32>, usize),
    what: &str,
) {
    assert_eq!(loss_a, loss_b, "{what}: loss diverged");
    assert_eq!(pred_a, pred_b, "{what}: predictions diverged");
}

/// The full matrix for one variant: taped vs no-grad (planned and
/// interpreted), 8-thread pool vs serial, recycling on vs off — all
/// bitwise-equal, eval records nothing.
fn check_variant(variant: Variant) {
    init_threads();
    let _lock = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, split) = build(variant);

    let taped = forward_bits(&model, &split, false);
    assert!(taped.2 > 0, "train-mode forward must record the graph");
    let serial_taped = pool::run_serial(|| forward_bits(&model, &split, false));
    assert_same(&serial_taped, &taped, "serial taped vs pooled taped");
    let prev = alloc::set_recycling(!alloc::recycling_enabled());
    let toggled_taped = forward_bits(&model, &split, false);
    alloc::set_recycling(prev);
    assert_same(&toggled_taped, &taped, "taped, recycling toggled");

    for plan in [PlanMode::On, PlanMode::Off] {
        let prev_plan = set_plan_mode(plan);
        let eval = forward_bits(&model, &split, true);
        let serial_eval = pool::run_serial(|| forward_bits(&model, &split, true));
        let prev = alloc::set_recycling(!alloc::recycling_enabled());
        let toggled_eval = forward_bits(&model, &split, true);
        alloc::set_recycling(prev);
        set_plan_mode(prev_plan);

        assert_eq!(eval.2, 0, "{plan:?} no-grad eval must record no tape nodes");
        assert_eq!(serial_eval.2, 0);
        assert_same(&eval, &taped, &format!("{plan:?} eval vs taped (pooled)"));
        assert_same(&serial_eval, &taped, &format!("{plan:?} serial eval vs taped"));
        assert_same(&toggled_eval, &taped, &format!("{plan:?} eval, recycling toggled"));
    }
}

#[test]
fn full_model_eval_matches_taped_bitwise() {
    check_variant(Variant::Full);
}

#[test]
fn without_attention_eval_matches_taped_bitwise() {
    check_variant(Variant::WithoutAttention);
}

#[test]
fn without_sns_ssma_eval_matches_taped_bitwise() {
    check_variant(Variant::WithoutSnsSsma);
}

/// Peak bytes of one `trainer::predict` sweep over `windows`, measured
/// after a warmup sweep so the pool and plan cache are in steady state.
fn predict_peak(model: &Sagdfn, windows: &SlidingWindows, batch_size: usize) -> usize {
    let _ = trainer::predict(model, windows, batch_size);
    sagdfn_repro::tensor::reset_peak();
    let before = sagdfn_repro::tensor::live_bytes();
    let _ = trainer::predict(model, windows, batch_size);
    sagdfn_repro::tensor::peak_bytes().saturating_sub(before)
}

#[test]
fn eval_peak_memory_does_not_grow_with_split_length() {
    init_threads();
    let _lock = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let data = sagdfn_repro::data::synth::TrafficConfig {
        nodes: 40,
        steps: 1200,
        ..Default::default()
    }
    .generate("evalmem");
    let n = data.dataset.nodes();
    let cfg = SagdfnConfig::for_scale(Scale::Tiny, n);
    let model = Sagdfn::new(n, cfg);
    let short = ThreeWaySplit::new(data.dataset.subset_steps(0, 360), SplitSpec::paper(6, 6));
    let long = ThreeWaySplit::new(data.dataset, SplitSpec::paper(6, 6));
    assert!(
        long.test.len() >= 3 * short.test.len(),
        "need a meaningful length gap: {} vs {}",
        long.test.len(),
        short.test.len()
    );

    // The (f, ΣB, N) prediction+target outputs legitimately scale with the
    // split; everything else — one batch's forward values plus the frozen
    // plan — must not. Compare the output-corrected peaks.
    let out_bytes = |w: &SlidingWindows| 2 * 4 * w.f() * w.len() * w.nodes();
    for plan in [PlanMode::On, PlanMode::Off] {
        let prev = set_plan_mode(plan);
        let peak_short = predict_peak(&model, &short.test, 8);
        let peak_long = predict_peak(&model, &long.test, 8);
        set_plan_mode(prev);
        let overhead_short = peak_short.saturating_sub(out_bytes(&short.test));
        let overhead_long = peak_long.saturating_sub(out_bytes(&long.test));
        assert!(
            (overhead_long as f64) < (overhead_short as f64) * 1.5,
            "{plan:?} eval overhead grew with split length: {overhead_short} -> \
             {overhead_long} bytes ({} -> {} windows)",
            short.test.len(),
            long.test.len()
        );
    }
}

#[test]
fn multi_batch_predict_reuses_the_frozen_plan() {
    init_threads();
    let _lock = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, split) = build(Variant::Full);
    let batches = split.test.len().div_ceil(4) as u64;
    assert!(batches >= 2, "need a multi-batch split");
    for plan in [PlanMode::On, PlanMode::Off] {
        model.invalidate_plan();
        let prev_plan = set_plan_mode(plan);
        let prev = obs::set_trace_mode(TraceMode::Counters);
        let base = obs::snapshot();
        let (preds, _) = trainer::predict(&model, &split.test, 4);
        let delta = obs::snapshot().since(&base);
        obs::set_trace_mode(prev);
        set_plan_mode(prev_plan);

        assert!(preds.all_finite());
        assert_eq!(delta.stats(obs::Kernel::EvalStep).calls, batches);
        assert_eq!(delta.plan_builds, 1, "{plan:?}: one adjacency build per sweep");
        assert_eq!(
            delta.plan_hits,
            batches - 1,
            "every subsequent batch must hit the plan cache ({plan:?})"
        );
    }
}
