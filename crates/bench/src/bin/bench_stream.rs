//! Streaming-path benchmark: measures the contracts the `sagdfn stream`
//! online engine makes and writes `BENCH_stream.json`.
//!
//! 1. **Plan on = plan off, bitwise.** Two engines built from identical
//!    models replay the same tick sequence, one through the compiled
//!    plan executor and one through the interpreted no-grad eval; every
//!    per-tick forecast must match bit-for-bit (asserted in-run).
//! 2. **Rebind, don't recompile.** With incremental scaler updates on,
//!    every steady-state tick drifts the normalization statistics. The
//!    frozen plan is keyed on weights + shape only, so those ticks must
//!    rebind the baked affine coefficients in place: zero allocator
//!    acquires and zero plan rebuilds after warmup, one rebind per tick.
//! 3. **Bounded fine-tuning.** The continual fine-tune arm runs its
//!    bursts on cadence (the `stream_ft_steps` counter must advance by
//!    exactly `bursts * ft_steps`) and its per-tick overhead is reported.
//!
//! The workload uses the **quantile head**, so the epilogue the plan
//! compiles (monotone cumulative-relu stacking + per-channel affine) is
//! the probabilistic one — the newest, least-trodden path.
//!
//! Usage: `bench_stream [--out FILE] [--steps N] [--check BASELINE]`
//!
//! With `--check`, the process exits nonzero if steady-state ticks
//! acquired buffers or rebuilt the plan, rebinds stopped tracking ticks,
//! or throughput fell below 0.4x the committed baseline —
//! `scripts/check.sh` uses this as the streaming regression guard.

use sagdfn_bench::gate::{self, Gate};
use sagdfn_core::{set_plan_mode, HeadKind, PlanMode, Sagdfn, SagdfnConfig, StreamConfig, StreamEngine};
use sagdfn_data::{Scale, SplitSpec, ThreeWaySplit};
use sagdfn_json::Json;
use sagdfn_obs as obs;
use sagdfn_tensor::pool;
use std::time::Instant;

const WARMUP_TICKS: usize = 16;
const TICKS_PER_REP: usize = 64;

/// One deterministic streaming workload: a small quantile-head model
/// plus the raw tick rows to replay. Calling it twice builds
/// bit-identical engines (model init is seeded).
fn workload() -> (StreamEngine, Vec<Vec<f32>>) {
    let data = sagdfn_data::synth::TrafficConfig { nodes: 8, steps: 400, ..Default::default() }
        .generate("stream");
    let n = data.dataset.nodes();
    let (interval, smow) = (data.dataset.interval_min, data.dataset.start_minute_of_week);
    let cfg = SagdfnConfig {
        embed_dim: 4,
        m: 4,
        top_k: 3,
        heads: 1,
        attn_hidden: 4,
        hidden: 4,
        diffusion_steps: 2,
        head: HeadKind::Quantile,
        quantiles: vec![0.1, 0.5, 0.9],
        ..SagdfnConfig::for_scale(Scale::Tiny, n)
    };
    let model = Sagdfn::new(n, cfg);
    let (h, f) = (6usize, 6);
    let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(h, f));
    let vals = split.test.dataset().values.as_slice();
    let ticks: Vec<Vec<f32>> = (0..split.test.dataset().steps())
        .map(|t| vals[t * n..(t + 1) * n].to_vec())
        .collect();
    let scfg = StreamConfig::new(h, f);
    let engine = StreamEngine::new(model, split.scaler, scfg, interval, smow);
    (engine, ticks)
}

/// Replays `count` ticks starting at `from`, returning wall seconds.
fn run_ticks(engine: &mut StreamEngine, ticks: &[Vec<f32>], from: usize, count: usize) -> f64 {
    let t0 = Instant::now();
    for row in ticks.iter().cycle().skip(from).take(count) {
        engine.push(row);
    }
    t0.elapsed().as_secs_f64()
}

fn main() {
    let args = gate::Args::parse("BENCH_stream.json", 5);
    let reps = args.steps;

    obs::set_trace_mode(obs::TraceMode::Counters);

    let (probe, ticks) = workload();
    let nodes = probe.model().n();
    let (h, f) = (probe.config().h, probe.config().f);
    drop(probe);
    println!(
        "streaming benchmark: {} worker threads, {nodes} nodes, h={h} f={f}, \
         {TICKS_PER_REP} ticks/pass, {reps} reps",
        pool::num_threads()
    );

    // --- Arm 1: per-tick forecasts bit-identical, plan on vs off --------
    let (mut planned, _) = workload();
    let (mut interp, _) = workload();
    let mut bit_identical = true;
    for (i, row) in ticks.iter().take(WARMUP_TICKS + TICKS_PER_REP).enumerate() {
        set_plan_mode(PlanMode::On);
        planned.push(row);
        set_plan_mode(PlanMode::Off);
        interp.push(row);
        if i + 1 >= h {
            let (a, b) = (planned.forecast().expect("warm"), interp.forecast().expect("warm"));
            bit_identical &= a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
        }
    }
    println!("  plan-on forecasts bit-identical to plan-off: {bit_identical}");
    assert!(
        bit_identical,
        "planned streaming forecasts diverged from interpreted — \
         streaming bit-identity contract violated"
    );
    set_plan_mode(PlanMode::On);

    // --- Arm 2: steady-state throughput + rebind-not-recompile ----------
    let (mut engine, _) = workload();
    run_ticks(&mut engine, &ticks, 0, WARMUP_TICKS);
    let before = obs::snapshot();
    let mut best = f64::INFINITY;
    for rep in 0..reps {
        best = best.min(run_ticks(&mut engine, &ticks, WARMUP_TICKS + rep * TICKS_PER_REP, TICKS_PER_REP));
    }
    let steady = obs::snapshot().since(&before);
    let ticks_per_sec = TICKS_PER_REP as f64 / best;
    let steady_ticks = reps as u64 * TICKS_PER_REP as u64;
    println!("  steady-state (plan, scaler drifting) {ticks_per_sec:>9.0} ticks/s");
    println!(
        "  {} ticks: {} allocator acquires, {} plan builds, {} scaler rebinds",
        steady_ticks, steady.alloc_acquires, steady.plan_builds, steady.plan_rebinds
    );

    // Interpreted-path reference for the same tick stream.
    set_plan_mode(PlanMode::Off);
    let (mut engine_off, _) = workload();
    run_ticks(&mut engine_off, &ticks, 0, WARMUP_TICKS);
    let mut best_off = f64::INFINITY;
    for rep in 0..reps {
        best_off = best_off
            .min(run_ticks(&mut engine_off, &ticks, WARMUP_TICKS + rep * TICKS_PER_REP, TICKS_PER_REP));
    }
    let ticks_per_sec_off = TICKS_PER_REP as f64 / best_off;
    let plan_speedup = ticks_per_sec / ticks_per_sec_off;
    println!(
        "  steady-state (interpreted)           {ticks_per_sec_off:>9.0} ticks/s   \
         (plan {plan_speedup:.2}x)"
    );
    set_plan_mode(PlanMode::On);

    // --- Arm 3: bounded continual fine-tuning ---------------------------
    let (ft_engine, _) = workload();
    let mut cfg = *ft_engine.config();
    cfg.fine_tune = true;
    cfg.ft_every = 8;
    cfg.ft_steps = 2;
    let model = ft_engine.into_model();
    let (fresh, _) = workload();
    let scaler = fresh.scaler();
    let mut ft_engine = StreamEngine::new(model, scaler, cfg, 5, 0);
    run_ticks(&mut ft_engine, &ticks, 0, WARMUP_TICKS);
    let before_ft = obs::snapshot();
    let ft_secs = run_ticks(&mut ft_engine, &ticks, WARMUP_TICKS, TICKS_PER_REP * reps);
    let ft_delta = obs::snapshot().since(&before_ft);
    let ft_ticks = (TICKS_PER_REP * reps) as u64;
    let expected_bursts = (WARMUP_TICKS as u64 + ft_ticks) / cfg.ft_every as u64
        - WARMUP_TICKS as u64 / cfg.ft_every as u64;
    let expected_ft_steps = expected_bursts * cfg.ft_steps as u64;
    let ft_ticks_per_sec = ft_ticks as f64 / ft_secs;
    let ft_overhead = ticks_per_sec / ft_ticks_per_sec;
    println!(
        "  fine-tune arm ({} steps every {}): {ft_ticks_per_sec:>7.0} ticks/s   \
         ({ft_overhead:.2}x per-tick cost, {} gradient steps)",
        cfg.ft_steps, cfg.ft_every, ft_delta.stream_ft_steps
    );
    assert_eq!(
        ft_delta.stream_ft_steps, expected_ft_steps,
        "fine-tune bursts missed their cadence"
    );

    let doc = Json::obj([
        ("threads", Json::from(pool::num_threads())),
        ("reps", Json::from(reps)),
        ("nodes", Json::from(nodes)),
        ("h", Json::from(h)),
        ("f", Json::from(f)),
        ("ticks_per_rep", Json::from(TICKS_PER_REP)),
        ("ticks_per_sec", Json::from(ticks_per_sec)),
        ("ticks_per_sec_interpreted", Json::from(ticks_per_sec_off)),
        ("plan_speedup", Json::from(plan_speedup)),
        ("bit_identical", Json::from(bit_identical)),
        ("steady_acquires", Json::from(steady.alloc_acquires)),
        ("steady_plan_builds", Json::from(steady.plan_builds)),
        ("steady_rebinds", Json::from(steady.plan_rebinds)),
        ("ft_ticks_per_sec", Json::from(ft_ticks_per_sec)),
        ("ft_overhead", Json::from(ft_overhead)),
        ("ft_steps", Json::from(ft_delta.stream_ft_steps)),
    ]);
    args.finish(doc, |base| {
        vec![
            // The batch rebuild must be in place, and scaler drift must
            // rebind the plan's affine coefficients instead of recompiling.
            Gate::at_most("steady-state acquires", steady.alloc_acquires as f64, 0.0),
            Gate::at_most("steady-state plan builds", steady.plan_builds as f64, 0.0),
            Gate::at_least("scaler rebinds", steady.plan_rebinds as f64, steady_ticks as f64),
            Gate::at_least("ticks/s", ticks_per_sec, 0.4 * base.f64("ticks_per_sec")),
        ]
    });
}
