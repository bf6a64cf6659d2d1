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
//! The steady-state planned and interpreted engines race each other
//! ([`gate::race`]) for the throughput numbers; the counters of contract
//! 2 come from a separate planned-only pass, so the interpreted arm's
//! acquires never reach them.
//!
//! The workload uses the **quantile head**, so the epilogue the plan
//! compiles (monotone cumulative-relu stacking + per-channel affine) is
//! the probabilistic one — the newest, least-trodden path.
//!
//! Usage: `bench_stream [--out FILE] [--check BASELINE]`
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

const WARMUP_TICKS: usize = 16;
const TICKS_PER_REP: usize = 64;
/// Timed rounds of the throughput race; the counted pass and the
/// fine-tune arm each replay as many ticks as one arm's timed rounds.
const REPS: usize = 5;

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

/// Replays `count` ticks starting at `from`.
fn run_ticks(engine: &mut StreamEngine, ticks: &[Vec<f32>], from: usize, count: usize) {
    for row in ticks.iter().cycle().skip(from).take(count) {
        engine.push(row);
    }
}

fn main() {
    let args = gate::Args::parse("BENCH_stream.json");

    obs::set_trace_mode(obs::TraceMode::Counters);

    let (probe, ticks) = workload();
    let nodes = probe.model().n();
    let (h, f) = (probe.config().h, probe.config().f);
    drop(probe);
    println!(
        "streaming benchmark: {} worker threads, {nodes} nodes, h={h} f={f}, \
         {TICKS_PER_REP} ticks/pass, {REPS} reps",
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
    // Each engine replays the tick stream from where its last pass ended.
    let arm = |plan: PlanMode| {
        let (mut engine, _) = workload();
        let (mut from, ticks) = (0, &ticks);
        move || {
            set_plan_mode(plan);
            run_ticks(&mut engine, ticks, from, TICKS_PER_REP);
            from += TICKS_PER_REP;
        }
    };
    let (mut on, mut off) = (arm(PlanMode::On), arm(PlanMode::Off));
    let t = gate::race(1, REPS, &mut [&mut on, &mut off]);
    let ticks_per_sec = TICKS_PER_REP as f64 / t[0];
    let ticks_per_sec_off = TICKS_PER_REP as f64 / t[1];
    let plan_speedup = ticks_per_sec / ticks_per_sec_off;
    println!("  steady-state (plan, scaler drifting) {ticks_per_sec:>9.0} ticks/s");
    println!(
        "  steady-state (interpreted)           {ticks_per_sec_off:>9.0} ticks/s   \
         (plan {plan_speedup:.2}x)"
    );

    // The counted pass: planned only, after warmup.
    set_plan_mode(PlanMode::On);
    let (mut engine, _) = workload();
    run_ticks(&mut engine, &ticks, 0, WARMUP_TICKS);
    let steady_ticks = REPS * TICKS_PER_REP;
    let before = obs::snapshot();
    run_ticks(&mut engine, &ticks, WARMUP_TICKS, steady_ticks);
    let steady = obs::snapshot().since(&before);
    println!(
        "  {} ticks: {} allocator acquires, {} plan builds, {} scaler rebinds",
        steady_ticks, steady.alloc_acquires, steady.plan_builds, steady.plan_rebinds
    );

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
    let ft_ticks = steady_ticks as u64;
    let ((), ft_secs) = gate::timed(|| run_ticks(&mut ft_engine, &ticks, WARMUP_TICKS, steady_ticks));
    let ft_delta = obs::snapshot().since(&before_ft);
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
        ("reps", Json::from(REPS)),
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
