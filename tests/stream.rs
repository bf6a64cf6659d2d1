//! Streaming-engine contracts: forecasts pinned bit-for-bit against a
//! committed fixture (the check.sh matrix reruns this suite under
//! SAGDFN_THREADS={1,8} x SAGDFN_PLAN={on,off}, so the fixture is what
//! makes those runs comparable), zero steady-state allocator traffic,
//! scaler drift rebinding instead of recompiling, and drift scenarios
//! flagged then absorbed.
//!
//! Regenerate the fixture (only with an intentional numeric change):
//! `SAGDFN_WRITE_STREAM_GOLDEN=tests/fixtures/golden_stream.txt \
//!     cargo test --test stream -- --nocapture`

use sagdfn_repro::{
    data::{metr_la_like, DriftConfig, DriftKind, Scale, SplitSpec, ThreeWaySplit, TickStream},
    obs,
    sagdfn::{set_plan_mode, HeadKind, PlanMode, Sagdfn, SagdfnConfig, StreamConfig, StreamEngine},
};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_stream.txt"
);

/// Counters and the plan-mode override are process-global; every test
/// takes the lock so obs deltas are attributable and mode flips cannot
/// interleave.
static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A deterministic quantile-head streaming workload over the metr-la-like
/// synth set, plus the raw tick rows to replay.
fn workload() -> (StreamEngine, Vec<Vec<f32>>) {
    let data = metr_la_like(Scale::Tiny);
    let n = data.dataset.nodes();
    let mut cfg = SagdfnConfig::for_scale(Scale::Tiny, n);
    cfg.head = HeadKind::Quantile;
    cfg.quantiles = vec![0.1, 0.5, 0.9];
    let model = Sagdfn::new(n, cfg);
    let (interval, smow) = (data.dataset.interval_min, data.dataset.start_minute_of_week);
    let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(4, 4));
    let vals = split.test.dataset().values.as_slice();
    let ticks = (0..split.test.dataset().steps().min(64))
        .map(|t| vals[t * n..(t + 1) * n].to_vec())
        .collect();
    let engine = StreamEngine::new(model, split.scaler, StreamConfig::new(4, 4), interval, smow);
    (engine, ticks)
}

/// FNV-1a over the little-endian bytes of the forecast bit pattern.
fn fnv1a(bits: impl Iterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[test]
fn stream_forecasts_match_the_committed_fixture() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (mut engine, ticks) = workload();
    // Hash the forecast after every tick past warm-up, so the fixture
    // pins the whole trajectory (ring rotation, scaler drift, rebound
    // epilogues), not just the final state.
    let mut hashes = Vec::new();
    for row in &ticks {
        engine.push(row);
        if let Some(fc) = engine.forecast() {
            hashes.push(fnv1a(fc.as_slice().iter().map(|v| v.to_bits())));
        }
    }
    let got: String = hashes
        .iter()
        .map(|h| format!("{h:016x}"))
        .collect::<Vec<_>>()
        .join(" ");
    let got = format!("stream {got}\n");
    if let Ok(path) = std::env::var("SAGDFN_WRITE_STREAM_GOLDEN") {
        std::fs::write(&path, &got).expect("write fixture");
        println!("wrote golden stream fixture to {path}");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE).expect("read committed fixture");
    assert_eq!(
        want, got,
        "streaming forecast bits drifted from the committed fixture \
         (dispatch mode must not change online forecasts)"
    );
}

#[test]
fn steady_state_ticks_rebind_without_recompiling_or_allocating() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The zero-acquire/rebind contract is the plan executor's; pin it on
    // so the matrix rerun under SAGDFN_PLAN=off still tests it (the
    // interpreted path allocates by design).
    let prev_plan = set_plan_mode(PlanMode::On);
    let prev = obs::set_trace_mode(obs::TraceMode::Counters);
    let (mut engine, ticks) = workload();
    // Warm up: fill the ring, compile the plan, size the slabs.
    for row in ticks.iter().take(12) {
        engine.push(row);
    }
    assert!(engine.forecast().is_some());
    let before = obs::snapshot();
    let steady = 32usize;
    for row in ticks.iter().skip(12).take(steady) {
        engine.push(row);
    }
    let delta = obs::snapshot().since(&before);
    obs::set_trace_mode(prev);
    set_plan_mode(prev_plan);
    assert_eq!(delta.stream_ticks, steady as u64);
    assert_eq!(
        delta.alloc_acquires, 0,
        "steady-state ticks must rebuild the batch and slab in place"
    );
    assert_eq!(
        delta.plan_builds, 0,
        "scaler drift must not recompile the frozen plan"
    );
    assert_eq!(
        delta.plan_rebinds, steady as u64,
        "every drifting tick must rebind the baked affine coefficients"
    );
}

#[test]
fn level_shift_is_flagged_then_absorbed() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Point head: the plausibility band is yhat +/- z*EWMA|e|, which
    // widens as the shifted errors accumulate — the flags must clear.
    let data = metr_la_like(Scale::Tiny);
    let n = data.dataset.nodes();
    let model = Sagdfn::new(n, SagdfnConfig::for_scale(Scale::Tiny, n));
    let (interval, smow) = (data.dataset.interval_min, data.dataset.start_minute_of_week);
    let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(4, 4));
    let mut cfg = StreamConfig::new(4, 4);
    cfg.scaler_memory = 50.0;
    let mut engine = StreamEngine::new(model, split.scaler, cfg, interval, smow);

    let onset = 24usize;
    let drift = DriftConfig {
        kind: DriftKind::LevelShift,
        onset,
        magnitude: 400.0,
        ramp_steps: 1,
    };
    let mut ticks = TickStream::new(split.test.dataset(), drift);
    let (mut at_onset, mut tail) = (0u64, 0u64);
    let mut t = 0usize;
    while let Some(row) = ticks.next_tick() {
        let s = engine.push(row);
        if (onset..onset + 3).contains(&t) {
            at_onset += u64::from(s.anomalies);
        }
        if t >= onset + 20 {
            tail += u64::from(s.anomalies);
        }
        t += 1;
        if t == onset + 40 {
            break;
        }
    }
    assert!(
        at_onset > 0,
        "a 400-unit level shift must trip the one-step-ahead interval"
    );
    assert!(
        tail < at_onset,
        "the widened error band must absorb the shifted regime \
         (onset flags {at_onset}, tail flags {tail})"
    );
}

#[test]
fn fine_tuning_streams_stay_deterministic() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let run = || {
        let (engine, ticks) = workload();
        let mut cfg = *engine.config();
        cfg.fine_tune = true;
        cfg.ft_every = 6;
        cfg.ft_steps = 1;
        let scaler = engine.scaler();
        let mut engine = StreamEngine::new(engine.into_model(), scaler, cfg, 5, 0);
        let mut bursts = 0u64;
        for row in ticks.iter().take(30) {
            bursts += u64::from(engine.push(row).fine_tuned);
        }
        let bits: Vec<u32> = engine
            .forecast()
            .expect("warm")
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        (bursts, engine.model().iterations(), bits)
    };
    let (bursts_a, iters_a, bits_a) = run();
    let (bursts_b, iters_b, bits_b) = run();
    assert!(bursts_a > 0, "fine-tune bursts must fire on cadence");
    assert_eq!(iters_a as u64, bursts_a, "each burst is one bounded gradient step");
    assert_eq!((bursts_a, iters_a), (bursts_b, iters_b));
    assert_eq!(bits_a, bits_b, "continual fine-tuning must be deterministic");
}

#[test]
fn non_finite_ticks_stream_exactly_like_missing_zeros() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let run = |bad: [f32; 3]| {
        let (engine, ticks) = workload();
        let mut cfg = *engine.config();
        cfg.fine_tune = true;
        cfg.ft_every = 6;
        cfg.ft_steps = 1;
        let scaler = engine.scaler();
        let mut engine = StreamEngine::new(engine.into_model(), scaler, cfg, 5, 0);
        let mut anomalies = Vec::new();
        let mut forecast_bits = Vec::new();
        for (t, row) in ticks.iter().take(40).enumerate() {
            let mut row = row.clone();
            if t % 5 == 3 {
                let n = row.len();
                for (k, &v) in bad.iter().enumerate() {
                    row[(t + 3 * k) % n] = v;
                }
            }
            anomalies.push(engine.push(&row).anomalies);
            if let Some(f) = engine.forecast() {
                forecast_bits.extend(f.as_slice().iter().map(|v| v.to_bits()));
            }
        }
        let params = &engine.model().params;
        let param_bits: Vec<u32> = params
            .ids()
            .flat_map(|id| params.get(id).as_slice().iter().map(|v| v.to_bits()))
            .collect();
        (anomalies, forecast_bits, param_bits, engine.model().iterations())
    };
    let poisoned = run([f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
    let zeros = run([0.0; 3]);
    assert!(zeros.3 > 0, "fine-tune bursts must fire");
    assert_eq!(poisoned.0, zeros.0, "anomaly counts");
    assert_eq!(poisoned.1, zeros.1, "forecast bits");
    assert_eq!(poisoned.2, zeros.2, "fine-tuned parameter bits");
}
