//! Inference-path benchmark: measures seconds/batch for a full eval sweep
//! in four execution modes — the recording tape ("taped", what training
//! uses), the no-grad tape with the adjacency rebuilt per batch, the
//! no-grad tape with the frozen adjacency plan reused across batches but
//! still interpreted op-by-op, and the compiled plan executor
//! (`SAGDFN_PLAN`, the default `Mode::Eval` path since the plan-executor
//! change). Writes `BENCH_infer.json`.
//!
//! Each of the three faster modes races the taped arm on its own
//! ([`gate::race`]) — every round runs one pass of each arm back to back
//! — and each pass is timed individually with the per-arm minimum
//! reported; a speedup divides the two minima of one race. Eval passes
//! here run in single-digit
//! milliseconds: one scheduler hiccup inside a single accumulated
//! measurement, or CPU frequency drift between two arms timed in
//! separate blocks, can invert a real 1.6x speedup into an apparent
//! regression (the same phantom-regression fix `bench_tensor` uses).
//!
//! The workload is attention-heavy (wide embeddings, several SSMA heads)
//! so the per-batch adjacency rebuild is a real cost, as it is at paper
//! scale where `N·M` pair scoring dominates. All four modes must produce
//! bit-identical predictions; the frozen mode must register plan-cache
//! hits and the planned mode must run its compiled schedule with zero
//! steady-state allocator acquires.
//!
//! Usage: `bench_infer [--out FILE] [--check BASELINE]`
//!
//! With `--check`, the process exits nonzero unless the no-grad tape is
//! at least as fast as the taped eval, the frozen-plan eval is >= 1.3x
//! taped, the planned executor is >= 2.5x taped, the plan cache recorded
//! at least one hit, and the steady-state planned pass acquired zero
//! buffers — `scripts/check.sh` uses this as the inference-path
//! regression guard.

use sagdfn_autodiff::Tape;
use sagdfn_bench::gate::{self, Gate};
use sagdfn_core::{set_plan_mode, Mode, PlanMode, Sagdfn, SagdfnConfig};
use sagdfn_data::{Batch, SplitSpec, ThreeWaySplit};
use sagdfn_json::Json;
use sagdfn_obs as obs;
use sagdfn_tensor::{pool, Tensor};

const WARMUP_REPS: usize = 2;
/// Timed rounds.
const REPS: usize = 12;

/// How a benchmark pass executes the forward.
#[derive(Clone, Copy, PartialEq)]
enum RunKind {
    /// Recording tape, adjacency rebuilt per batch (the training path).
    Taped,
    /// No-grad tape, adjacency still rebuilt per batch.
    NoGradRebuilt,
    /// No-grad tape, frozen adjacency plan reused, interpreted ops.
    NoGradFrozen,
    /// Compiled plan executor: frozen adjacency + linearized schedule.
    Planned,
}

/// An attention-heavy eval workload: adjacency construction (SSMA pair
/// scoring over N·M pairs) is the dominant per-batch cost, mirroring the
/// paper-scale regime.
fn workload() -> (Sagdfn, ThreeWaySplit) {
    let data = sagdfn_data::synth::TrafficConfig {
        nodes: 120,
        steps: 220,
        ..Default::default()
    }
    .generate("infer");
    let n = data.dataset.nodes();
    let cfg = SagdfnConfig {
        embed_dim: 48,
        m: 24,
        top_k: 18,
        heads: 6,
        attn_hidden: 24,
        hidden: 16,
        diffusion_steps: 2,
        batch_size: 4,
        convergence_iter: 10,
        sns_every: 1_000_000,
        ..SagdfnConfig::for_scale(sagdfn_data::Scale::Tiny, n)
    };
    let model = Sagdfn::new(n, cfg);
    let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(6, 6));
    (model, split)
}

/// One full pass over the eval split in the given mode. Collects every
/// prediction's bit pattern into `bits` when provided (pass `None` for
/// timed reps).
fn one_pass(
    model: &Sagdfn,
    split: &ThreeWaySplit,
    batches: &[Vec<usize>],
    kind: RunKind,
    mut bits: Option<&mut Vec<u32>>,
) {
    // The frozen arm must measure the *interpreted* eval path, so the
    // plan executor is pinned off for every arm except Planned.
    let prev_plan = set_plan_mode(if kind == RunKind::Planned {
        PlanMode::On
    } else {
        PlanMode::Off
    });
    let tape = Tape::new();
    let _no_grad = (kind != RunKind::Taped).then(|| tape.no_grad());
    let mode = if kind == RunKind::NoGradFrozen || kind == RunKind::Planned {
        Mode::Eval
    } else {
        Mode::Train // dropout is 0, so train-mode math == eval math
    };
    for ids in batches {
        let _step = obs::kernel(obs::Kernel::EvalStep, 0, 0, 0);
        let batch = split.test.make_batch(ids);
        tape.reset();
        let bind = model.params.bind(&tape);
        let pred = model
            .forward(&tape, &bind, &batch, split.scaler, mode)
            .value();
        if let Some(bits) = bits.as_deref_mut() {
            bits.extend(pred.as_slice().iter().map(|v| v.to_bits()));
        }
    }
    set_plan_mode(prev_plan);
}

/// Measures allocator acquires across one steady-state planned pass:
/// batches and output buffers are materialized up front, a warmup pass
/// compiles the schedules, then the counted pass must acquire nothing.
fn planned_steady_state_acquires(model: &Sagdfn, split: &ThreeWaySplit) -> u64 {
    let batch_size = model.config().batch_size;
    let scaler = split.scaler;
    let mut work: Vec<(Batch, Tensor)> = split
        .test
        .batch_ids(batch_size, None)
        .iter()
        .map(|ids| {
            let batch = split.test.make_batch(ids);
            let out = Tensor::zeros([batch.y.dim(0), batch.x.dim(1), batch.x.dim(2)]);
            (batch, out)
        })
        .collect();
    let prev_plan = set_plan_mode(PlanMode::On);
    model.invalidate_plan();
    for (batch, out) in &mut work {
        assert!(
            model.planned_forward_into(batch, scaler, out),
            "planned path must be eligible for the GRU workload"
        );
    }
    let before = obs::snapshot();
    for (batch, out) in &mut work {
        model.planned_forward_into(batch, scaler, out);
    }
    let delta = obs::snapshot().since(&before);
    set_plan_mode(prev_plan);
    delta.alloc_acquires
}

fn main() {
    let args = gate::Args::parse("BENCH_infer.json");

    // Counters stay on for every mode (same overhead everywhere) so the
    // plan-cache build/hit tally and per-op schedule times are visible.
    obs::set_trace_mode(obs::TraceMode::Counters);

    let (model, split) = workload();
    println!(
        "inference benchmark: {} worker threads, {} nodes, {} eval windows, {REPS} reps",
        pool::num_threads(),
        model.n(),
        split.test.len()
    );

    let kinds = [
        RunKind::Taped,
        RunKind::NoGradRebuilt,
        RunKind::NoGradFrozen,
        RunKind::Planned,
    ];
    let batches: Vec<Vec<usize>> = split.test.batch_ids(model.config().batch_size, None);
    // One plan invalidation up front: the first frozen-path pass pays the
    // single adjacency build and schedule compile, then every later pass
    // hits the caches.
    model.invalidate_plan();
    let counters_before = obs::snapshot();
    let all_bits = kinds.map(|kind| {
        let mut bits = Vec::new();
        one_pass(&model, &split, &batches, kind, Some(&mut bits));
        bits
    });
    // Each eval mode races the taped pass alone (see `gate::race`); each
    // entry is (taped, mode) seconds.
    let arm = |kind| {
        let (model, split, batches) = (&model, &split, &batches);
        move || one_pass(model, split, batches, kind, None)
    };
    let [rebuilt, frozen, planned] =
        [RunKind::NoGradRebuilt, RunKind::NoGradFrozen, RunKind::Planned].map(|kind| {
            let t = gate::race(WARMUP_REPS, REPS, &mut [&mut arm(RunKind::Taped), &mut arm(kind)]);
            (t[0], t[1])
        });
    let counters = obs::snapshot().since(&counters_before);
    let per_batch = |sec: f64| sec / batches.len() as f64;
    let (speedup_nograd, speedup_frozen, speedup_planned) =
        (rebuilt.0 / rebuilt.1, frozen.0 / frozen.1, planned.0 / planned.1);
    let (taped_spb, rebuilt_spb, frozen_spb, planned_spb) = (
        per_batch(rebuilt.0.min(frozen.0).min(planned.0)),
        per_batch(rebuilt.1),
        per_batch(frozen.1),
        per_batch(planned.1),
    );
    let [taped_bits, rebuilt_bits, frozen_bits, planned_bits] = all_bits;
    let planned_acquires = planned_steady_state_acquires(&model, &split);

    let bit_identical =
        taped_bits == rebuilt_bits && taped_bits == frozen_bits && taped_bits == planned_bits;
    println!("  taped           {:>9.3} ms/batch", taped_spb * 1e3);
    println!(
        "  no-grad rebuilt {:>9.3} ms/batch   ({speedup_nograd:.2}x vs taped)",
        rebuilt_spb * 1e3
    );
    println!(
        "  no-grad frozen  {:>9.3} ms/batch   ({speedup_frozen:.2}x vs taped)",
        frozen_spb * 1e3
    );
    println!(
        "  planned         {:>9.3} ms/batch   ({speedup_planned:.2}x vs taped)",
        planned_spb * 1e3
    );
    println!(
        "  plan cache: {} builds / {} hits   schedule: {} compiles / {} runs   predictions bit-identical: {bit_identical}",
        counters.plan_builds, counters.plan_hits, counters.plan_compiles, counters.plan_execs
    );
    println!("  steady-state planned pass: {planned_acquires} allocator acquires");
    if let Some(table) = model.plan_table() {
        println!("\n{table}");
    }
    assert!(
        bit_identical,
        "no-grad / frozen / planned eval changed predictions — bit-identity contract violated"
    );
    assert!(
        counters.plan_builds >= 1,
        "frozen eval never built an adjacency plan"
    );
    assert!(
        counters.plan_compiles >= 1 && counters.plan_execs >= 1,
        "planned eval never ran its compiled schedule"
    );

    let doc = Json::obj([
        ("threads", Json::from(pool::num_threads())),
        ("reps", Json::from(REPS)),
        ("nodes", Json::from(model.n())),
        ("taped_seconds_per_batch", Json::from(taped_spb)),
        ("nograd_seconds_per_batch", Json::from(rebuilt_spb)),
        ("frozen_seconds_per_batch", Json::from(frozen_spb)),
        ("planned_seconds_per_batch", Json::from(planned_spb)),
        ("speedup_nograd", Json::from(speedup_nograd)),
        ("speedup_frozen", Json::from(speedup_frozen)),
        ("speedup_planned", Json::from(speedup_planned)),
        ("plan_builds", Json::from(counters.plan_builds)),
        ("plan_hits", Json::from(counters.plan_hits)),
        ("plan_compiles", Json::from(counters.plan_compiles)),
        ("plan_execs", Json::from(counters.plan_execs)),
        ("planned_acquires", Json::from(planned_acquires)),
        ("bit_identical", Json::from(bit_identical)),
    ]);
    args.finish(doc, |_| {
        vec![
            Gate::at_least("frozen-plan speedup vs taped", speedup_frozen, 1.3),
            Gate::at_least("no-grad speedup vs taped", speedup_nograd, 1.0),
            Gate::at_least("planned speedup vs taped", speedup_planned, 2.5),
            Gate::at_least("plan cache hits", counters.plan_hits as f64, 1.0),
            // Arena slots must be pre-resolved.
            Gate::at_most("steady-state planned acquires", planned_acquires as f64, 0.0),
        ]
    });
}
