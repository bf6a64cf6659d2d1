//! `serve_core`: an open loop through `ServerCore::submit` at a fixed
//! rate, then saturation bursts that stay under the queue cap. Two
//! tenants, a point head and a quantile head at N = 120, in a 3:1 mix.
//!
//! With at most two connections `serve_http` never holds more than two
//! requests in flight; this is the workload where requests coalesce, so
//! it measures the admission queue, the batcher's hold and the batched
//! planned forward. The load generator is one sender thread and one
//! collector thread; latency is timed from each request's due time.

use crate::inputs::{Dataset, Inputs, LoadTimes, Model, F, TENANT_SETUPS};
use crate::report::{Report, Table};
use crate::serving::{self, Payload};
use crate::stats::{median, tail};
use crate::{counters, load_metrics, setup_median};
use sagdfn_core::Sagdfn;
use sagdfn_data::ThreeWaySplit;
use sagdfn_obs as obs;
use sagdfn_serve::{Forecast, ServeError, ServerCore};
use sagdfn_tensor::{alloc, Rng64, Tensor};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TENANTS: [(&str, Model); 2] = [("point", Model::Point120), ("quantile", Model::Quantile120)];
/// Offered load of the open loop: about a third of the pipeline's
/// saturation throughput.
const RATE_PER_S: f64 = 60.0;
/// Requests per saturation burst, well under the default queue cap.
const BURST: usize = 256;
/// Share of the run spent in the open loop; the rest runs bursts.
const OPEN_SHARE: f64 = 0.5;

struct State {
    core: ServerCore,
    split: ThreeWaySplit,
}

/// Loads the CSV, starts the pipeline (both checkpoints load on the
/// inference thread) and answers a first request for each tenant.
fn setup(inputs: &Inputs, seed: u64) -> (State, LoadTimes) {
    let mut times = LoadTimes::default();
    let data = inputs.read_csv(Dataset::City120, &mut times);
    let (split, anchor) = serving::split(data);
    let loaded = Arc::new(Mutex::new(LoadTimes::default()));
    let core = ServerCore::start(
        &serving::config(),
        serving::registry(inputs, &TENANTS, anchor, &loaded),
    );
    let l = *loaded.lock().unwrap_or_else(|e| e.into_inner());
    times.model_new_s += l.model_new_s;
    times.checkpoint_load_s += l.checkpoint_load_s;
    let first = &serving::payloads(&split, seed)[0];
    for (name, _) in TENANTS {
        let handle = core
            .submit(name, first.start, first.history.clone(), None)
            .expect("admit");
        assert!(handle.wait().is_ok(), "first request answered");
    }
    (State { core, split }, times)
}

/// One request as the collector saw it.
struct Done {
    tenant: usize,
    payload: usize,
    outcome: Result<Forecast, ServeError>,
    /// Completion minus due time.
    ms: f64,
}

#[derive(Default)]
struct Phase {
    done: Vec<Done>,
    submit_us: Vec<f64>,
    late_max_ms: f64,
    secs: f64,
}

/// Sends `count` requests (or until `secs` pass) from a sender thread,
/// due every `1/rate` seconds or back to back when `rate` is `None`; the
/// calling thread collects every answer in send order. The open loop
/// draws each request's tenant 3:1 at random; a burst sends the 3:1 mix
/// in a fixed order, so its micro-batches fill to the cap.
fn drive(
    core: &ServerCore,
    pool: &[Payload],
    rng: &mut Rng64,
    rate: Option<f64>,
    count: usize,
    secs: f64,
) -> Phase {
    let plan: Vec<(usize, usize)> = (0..count)
        .map(|i| {
            let draw = if rate.is_some() {
                rng.next_u64() as usize
            } else {
                i
            };
            (
                usize::from(draw % 4 == 3),
                rng.next_u64() as usize % pool.len(),
            )
        })
        .collect();
    let (tx, rx) = mpsc::channel();
    let t0 = Instant::now();
    let mut p = Phase::default();
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let (mut submit_us, mut late_max) = (Vec::with_capacity(count), 0.0f64);
            for (i, &(tenant, payload)) in plan.iter().enumerate() {
                let due = match rate {
                    Some(r) => t0 + Duration::from_secs_f64(i as f64 / r),
                    None => Instant::now(),
                };
                if due.duration_since(t0).as_secs_f64() >= secs {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let p = &pool[payload];
                let t = Instant::now();
                late_max = late_max.max((t - due).as_secs_f64() * 1e3);
                let sent = core.submit(TENANTS[tenant].0, p.start, p.history.clone(), None);
                submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                if tx.send((tenant, payload, due, sent)).is_err() {
                    break;
                }
            }
            (submit_us, late_max)
        });
        for (tenant, payload, due, sent) in rx {
            let outcome = sent.and_then(|h| h.wait());
            let ms = due.elapsed().as_secs_f64() * 1e3;
            p.done.push(Done {
                tenant,
                payload,
                outcome,
                ms,
            });
        }
        (p.submit_us, p.late_max_ms) = sender.join().expect("sender thread");
    });
    p.secs = t0.elapsed().as_secs_f64();
    p
}

struct Run {
    open: Phase,
    burst: Bursts,
}

/// The answers of whole saturation bursts and their summed wall time.
struct Bursts {
    done: Vec<Done>,
    secs: f64,
}

impl Bursts {
    /// Saturation throughput: requests answered per second of bursting.
    fn per_s(&self) -> f64 {
        self.done.len() as f64 / self.secs
    }
}

/// The open loop at `RATE_PER_S` for `secs` seconds.
fn open_loop(core: &ServerCore, pool: &[Payload], rng: &mut Rng64, secs: f64) -> Phase {
    let count = (secs * RATE_PER_S).ceil() as usize + 1;
    drive(core, pool, rng, Some(RATE_PER_S), count, secs)
}

/// Whole saturation bursts until `secs` seconds have passed.
fn bursts(core: &ServerCore, pool: &[Payload], rng: &mut Rng64, secs: f64) -> Bursts {
    let mut all = Bursts {
        done: Vec::new(),
        secs: 0.0,
    };
    while all.secs < secs || all.done.is_empty() {
        let b = drive(core, pool, rng, None, BURST, f64::INFINITY);
        all.secs += b.secs;
        all.done.extend(b.done);
    }
    all
}

fn timed(s: &State, pool: &[Payload], seed: u64, open_s: f64, burst_s: f64) -> Run {
    let mut rng = Rng64::new(seed ^ 0xC0E);
    let open = open_loop(&s.core, pool, &mut rng, open_s);
    let burst = bursts(&s.core, pool, &mut rng, burst_s);
    Run { open, burst }
}

fn batch_size(occupancy: f64) -> usize {
    (occupancy.round() as usize).max(1)
}

/// Median wall milliseconds of the point tenant's batched forward at a
/// mean occupancy, timed on the reference model outside the pipeline.
fn predict_ms(model: &Sagdfn, split: &ThreeWaySplit, occupancy: f64) -> f64 {
    let b = batch_size(occupancy);
    let ids: Vec<usize> = (0..b).collect();
    let batch = split.test.make_batch(&ids);
    let mut out = Tensor::zeros(model.output_dims(F, b).as_slice());
    model.predict_batch_into(&batch, split.scaler, &mut out);
    let ms: Vec<f64> = (0..16)
        .map(|_| {
            let t = Instant::now();
            model.predict_batch_into(&batch, split.scaler, &mut out);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&ms)
}

/// Every request is an operation; a refused, expired or failed one
/// fails it. Answered forecasts must be bit-identical to the B = 1
/// reference of their tenant.
fn verify(done: &[Done], check: &dyn Fn(usize, usize, &Forecast) -> bool, rep: &mut Report) {
    let mut mismatched = 0usize;
    for d in done {
        rep.op(d.outcome.is_ok());
        if let Ok(fc) = &d.outcome {
            mismatched += usize::from(!check(d.tenant, d.payload, fc));
        }
    }
    rep.check(
        mismatched == 0,
        &format!("every answered forecast is bit-identical to predict_batch_into at B=1 ({mismatched} differ)"),
    );
}

pub fn run(inputs: &Inputs, seed: u64, seconds: f64, trace: bool, rep: &mut Report) {
    let (s, setup_s, times) = setup_median(TENANT_SETUPS, || setup(inputs, seed));
    let pool = serving::payloads(&s.split, seed);
    let models: Vec<_> = TENANTS
        .iter()
        .map(|&(_, m)| inputs.load_model(m, &mut LoadTimes::default()))
        .collect();
    let refs: Vec<_> = models
        .iter()
        .map(|m| serving::references(m, &s.split, &pool))
        .collect();
    let check = |t: usize, p: usize, fc: &Forecast| serving::matches(&models[t], &refs[t][p], fc);
    let (open_s, burst_s) = (seconds * OPEN_SHARE, seconds * (1.0 - OPEN_SHARE));
    // Warm-up: one burst compiles the full-batch plans and fills the
    // tenants' slab caches before anything is timed.
    let warm = bursts(&s.core, &pool, &mut Rng64::new(seed), 0.0);
    verify(&warm.done, &check, rep);

    if !trace {
        alloc::reset_peak();
        let r = timed(&s, &pool, seed, open_s, burst_s);
        let peak_mb = alloc::peak_bytes() as f64 / (1 << 20) as f64;
        s.core.shutdown();
        verify(&r.open.done, &check, rep);
        verify(&r.burst.done, &check, rep);
        let ms: Vec<f64> = r.open.done.iter().map(|d| d.ms).collect();
        let t = tail(&ms);
        rep.note(format!(
            "serve_core: open loop at {RATE_PER_S} req/s ({} requests, generator late by at most \
             {:.3} ms), then {} burst requests; tail {:.3} ms at p{:.1} of {}",
            r.open.done.len(),
            r.open.late_max_ms,
            r.burst.done.len(),
            t.value,
            t.percentile,
            t.samples
        ));
        rep.metric("setup_s", setup_s, "s");
        rep.metric("peak_mb", peak_mb, "MB");
        rep.metric("throughput_per_s", r.burst.per_s(), "1/s");
        rep.metric("latency_p50_ms", median(&ms), "ms");
        return;
    }

    let plain = timed(&s, &pool, seed, open_s / 2.0, burst_s / 2.0);
    let prev = obs::set_trace_mode(obs::TraceMode::Counters);
    let mut rng = Rng64::new(seed ^ 0xC0E);
    let before = counters();
    let open = open_loop(&s.core, &pool, &mut rng, open_s / 2.0);
    let mid = counters();
    let burst = bursts(&s.core, &pool, &mut rng, burst_s / 2.0);
    let after = counters();
    let (open_c, burst_c, all) = (mid.since(&before), after.since(&mid), after.since(&before));
    obs::set_trace_mode(prev);
    s.core.shutdown();
    for done in [&plain.open.done, &plain.burst.done, &open.done, &burst.done] {
        verify(done, &check, rep);
    }

    let occupancy = |c: &crate::Counters| c.serve_batched / c.serve_batches.max(1.0);
    let (open_occ, burst_occ) = (occupancy(&open_c), occupancy(&burst_c));
    let ms: Vec<f64> = open.done.iter().map(|d| d.ms).collect();
    let p50 = median(&ms);
    let submit_us = median(&open.submit_us);
    let open_predict_ms = predict_ms(&models[0], &s.split, open_occ);
    let mut table = Table::new("serve_core request, open loop (p50)", p50);
    table.row("serve.submit", submit_us / 1e3).row(
        &format!("core.model.predict_batch (B={})", batch_size(open_occ)),
        open_predict_ms,
    );
    rep.note(table.render());
    rep.note("the residual is queue wait, batcher hold and inference-thread wake-up".into());
    rep.note(format!(
        "bursts: mean occupancy {burst_occ:.2}, {:.1} req/s traced",
        burst.per_s()
    ));
    rep.metric("serve.submit_us", submit_us, "us");
    rep.metric("serve.wait_ms", p50 - open_predict_ms, "ms");
    rep.metric("serve.batcher.occupancy_mean", burst_occ, "count");
    rep.metric(
        "core.model.predict_batch_ms",
        predict_ms(&models[0], &s.split, burst_occ),
        "ms",
    );
    rep.metric("serve.queue.high_water", all.queue_high_water, "count");
    rep.metric("serve.queue.shed", all.serve_shed, "count");
    rep.metric("serve.expired", all.serve_expired, "count");
    rep.metric("gen.late_max_ms", open.late_max_ms, "ms");
    let traced_per_s = burst.per_s();
    rep.metric(
        "trace.overhead",
        100.0 * (plain.burst.per_s() / traced_per_s - 1.0),
        "%",
    );
    rep.tail_metrics(&plain.open.done.iter().map(|d| d.ms).collect::<Vec<_>>());
    load_metrics(rep, &times);
}
