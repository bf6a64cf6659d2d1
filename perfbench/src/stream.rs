//! `stream_ft`: a closed-loop replay of N = 120 ticks through
//! `StreamEngine::push`, with fine-tuning on at the default cadence and
//! a level-shift drift injected mid-run.
//!
//! The replay is the whole series from its first step (2880 hourly
//! ticks), played once: it never wraps. A run stops early if the series
//! runs out, keeping the ticks the cadence check needs.

use crate::inputs::{Dataset, Inputs, LoadTimes, Model, F, H, TENANT_SETUPS};
use crate::report::{Report, Table};
use crate::stats::{median, tail};
use crate::{counters, load_metrics, setup_median};
use sagdfn_core::{StreamConfig, StreamEngine};
use sagdfn_data::{DriftConfig, DriftKind, SplitSpec, ThreeWaySplit, TickStream};
use sagdfn_obs as obs;
use sagdfn_tensor::alloc;
use std::time::Instant;

/// Timed ticks before the level shift starts.
const DRIFT_AFTER: usize = 400;
/// Level-shift magnitude in raw units (the `sagdfn stream` default).
const DRIFT_MAG: f32 = 10.0;
/// Ticks pushed after the timed phase to check the fine-tune cadence
/// against the library's step counter.
const CADENCE_TICKS: usize = 32;

struct State {
    engine: StreamEngine,
    split: ThreeWaySplit,
}

fn stream_config() -> StreamConfig {
    let mut cfg = StreamConfig::new(H, F);
    cfg.fine_tune = true;
    cfg
}

fn drift() -> DriftConfig {
    DriftConfig {
        kind: DriftKind::LevelShift,
        onset: H + DRIFT_AFTER,
        magnitude: DRIFT_MAG,
        ramp_steps: 0,
    }
}

/// Loads the dataset and checkpoint, builds the engine and pushes the
/// first `h` ticks, up to and including the first forecast.
fn setup(inputs: &Inputs) -> (State, LoadTimes) {
    let mut times = LoadTimes::default();
    let data = inputs.read_csv(Dataset::City120, &mut times);
    let interval = data.interval_min;
    let split = ThreeWaySplit::new(data, SplitSpec::paper(H, F));
    let model = inputs.load_model(Model::Point120, &mut times);
    let mut ticks = TickStream::new(split.test.dataset(), drift());
    let smow = ticks.minute_of_week(0);
    let mut engine = StreamEngine::new(model, split.scaler, stream_config(), interval, smow);
    for _ in 0..H {
        engine.push(ticks.next_tick().expect("dataset holds the warm-up window"));
    }
    assert!(engine.forecast().is_some(), "first forecast after h ticks");
    (State { engine, split }, times)
}

/// The replayed tick rows after the warm-up window, drift applied.
/// `SlidingWindows::dataset` is the whole series, so this is every step
/// after the first `h`.
fn tick_rows(split: &ThreeWaySplit) -> Vec<Vec<f32>> {
    let mut ticks = TickStream::new(split.test.dataset(), drift()).starting_at(H);
    let mut rows = Vec::new();
    while let Some(row) = ticks.next_tick() {
        rows.push(row.to_vec());
    }
    rows
}

#[derive(Default)]
struct Phase {
    all_ms: Vec<f64>,
    fine_tuned: Vec<bool>,
    forecast_ms: Vec<f64>,
    ft_ms: Vec<f64>,
    rebinds: f64,
    forecast_acquires: f64,
    regions: f64,
    ft_compiles: f64,
    ft_nodes: f64,
    ft_steps: f64,
}

impl Phase {
    /// Ticks per second over the summed tick wall time: fine-tune and
    /// forecast ticks in their run proportions, every tick counted in
    /// full.
    fn ticks_per_s(&self) -> f64 {
        self.all_ms.len() as f64 * 1e3 / self.all_ms.iter().sum::<f64>()
    }
}

/// Pushes ticks for `secs` seconds (or until only the cadence check's
/// ticks are left), checking each tick's cadence and forecast. With
/// `trace`, takes a counter delta around every push.
fn timed(
    s: &mut State,
    rows: &[Vec<f32>],
    next: &mut usize,
    secs: f64,
    trace: bool,
    rep: &mut Report,
) -> Phase {
    let cfg = *s.engine.config();
    let mut p = Phase::default();
    let (mut on_cadence, mut finite) = (true, true);
    let t0 = Instant::now();
    while (p.all_ms.is_empty() || t0.elapsed().as_secs_f64() < secs)
        && *next + CADENCE_TICKS < rows.len()
    {
        let row = &rows[*next];
        *next += 1;
        let before = trace.then(counters);
        let t = Instant::now();
        let summary = s.engine.push(row);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let expect_ft = summary.tick >= (cfg.h + cfg.f) as u64
            && summary.tick.is_multiple_of(cfg.ft_every as u64);
        let tick_finite = s
            .engine
            .forecast()
            .is_some_and(|f| f.as_slice().iter().all(|v| v.is_finite()));
        rep.op(tick_finite && summary.fine_tuned == expect_ft);
        on_cadence &= summary.fine_tuned == expect_ft;
        finite &= tick_finite;
        p.all_ms.push(ms);
        p.fine_tuned.push(summary.fine_tuned);
        if summary.fine_tuned {
            p.ft_ms.push(ms);
        } else {
            p.forecast_ms.push(ms);
        }
        if let Some(before) = before {
            let d = counters().since(&before);
            p.rebinds += d.plan_rebinds;
            p.regions += d.pool_regions;
            if summary.fine_tuned {
                p.ft_compiles += d.plan_compiles;
                p.ft_nodes += d.tape_nodes;
                p.ft_steps += d.ft_steps;
            } else {
                p.forecast_acquires += d.acquires;
            }
        }
    }
    rep.check(on_cadence, "fine-tune bursts run exactly on the cadence");
    rep.check(finite, "every stream forecast is finite");
    p
}

/// Each burst must run exactly `ft_steps` gradient steps, as counted by
/// the library's own `stream_ft_steps` counter.
fn check_steps(s: &mut State, rows: &[Vec<f32>], next: &mut usize, rep: &mut Report) {
    let prev = obs::set_trace_mode(obs::TraceMode::Counters);
    let before = counters();
    let mut bursts = 0.0;
    for _ in 0..CADENCE_TICKS {
        bursts += f64::from(u8::from(s.engine.push(&rows[*next]).fine_tuned));
        *next += 1;
    }
    let steps = counters().since(&before).ft_steps;
    obs::set_trace_mode(prev);
    let want = bursts * s.engine.config().ft_steps as f64;
    rep.check(
        bursts > 0.0 && steps == want,
        "each fine-tune burst runs exactly ft_steps steps",
    );
}

pub fn run(inputs: &Inputs, _seed: u64, seconds: f64, trace: bool, rep: &mut Report) {
    let (mut s, setup_s, times) = setup_median(TENANT_SETUPS, || setup(inputs));
    let rows = tick_rows(&s.split);
    let mut next = 0usize;

    if !trace {
        alloc::reset_peak();
        let p = timed(&mut s, &rows, &mut next, seconds, false, rep);
        let peak_mb = alloc::peak_bytes() as f64 / (1 << 20) as f64;
        check_steps(&mut s, &rows, &mut next, rep);
        let t = tail(&p.all_ms);
        rep.note(format!(
            "stream_ft: N=120 h=f=12, closed-loop replay of {} of the series' {} ticks ({} \
             fine-tune), level shift of {DRIFT_MAG} after {DRIFT_AFTER} ticks; tail {:.3} ms at \
             p{:.1} of {}",
            p.all_ms.len(),
            rows.len(),
            p.ft_ms.len(),
            t.value,
            t.percentile,
            t.samples
        ));
        rep.metric("setup_s", setup_s, "s");
        rep.metric("peak_mb", peak_mb, "MB");
        rep.metric("throughput_per_s", p.ticks_per_s(), "1/s");
        rep.metric("latency_p50_ms", median(&p.all_ms), "ms");
        return;
    }

    let plain = timed(&mut s, &rows, &mut next, seconds / 2.0, false, rep);
    let prev = obs::set_trace_mode(obs::TraceMode::Counters);
    let p = timed(&mut s, &rows, &mut next, seconds / 2.0, true, rep);
    obs::set_trace_mode(prev);
    check_steps(&mut s, &rows, &mut next, rep);

    let (fc, ft) = (p.forecast_ms.len() as f64, p.ft_ms.len() as f64);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let wall = mean(&p.all_ms);
    let forecast = mean(&p.forecast_ms);
    let burst = (mean(&p.ft_ms) - forecast) * ft / (fc + ft);
    let mut table = Table::new("stream_ft tick (mean)", wall);
    table
        .row("forecast (every tick)", forecast)
        .row("fine-tune burst (amortized)", burst);
    rep.note(table.render());
    rep.note(format!("{} forecast ticks, {} fine-tune ticks", fc, ft));
    rep.metric("core.stream.forecast_tick_ms", median(&p.forecast_ms), "ms");
    rep.metric(
        "core.plan.rebinds_per_tick",
        p.rebinds / p.all_ms.len() as f64,
        "count",
    );
    rep.metric(
        "tensor.alloc.acquires_per_forecast_tick",
        p.forecast_acquires / fc.max(1.0),
        "count",
    );
    rep.metric(
        "tensor.pool.regions_per_tick",
        p.regions / p.all_ms.len() as f64,
        "count",
    );
    rep.metric("core.stream.ft_tick_ms", median(&p.ft_ms), "ms");
    rep.metric(
        "core.plan.compiles_per_burst",
        p.ft_compiles / ft.max(1.0),
        "count",
    );
    rep.metric(
        "autodiff.tape.nodes_per_ft_step",
        p.ft_nodes / p.ft_steps.max(1.0),
        "count",
    );
    rep.metric(
        "trace.overhead",
        100.0 * (plain.ticks_per_s() / p.ticks_per_s() - 1.0),
        "%",
    );
    rep.tail_metrics(&plain.all_ms);
    load_metrics(rep, &times);
}
