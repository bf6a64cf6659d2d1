//! Serving-path benchmark: measures the three claims the `sagdfn serve`
//! pipeline makes and writes `BENCH_serve.json`.
//!
//! 1. **The pipeline wins.** The same request stream answered one
//!    request at a time through the interpreted no-grad eval (what a
//!    naive per-request server would run — dispatcher cap 1, plan
//!    executor off) must lose on throughput to the serving pipeline
//!    (cap 32 coalescing into the compiled plan executor). Both arms
//!    race each other ([`gate::race`]) and their responses are
//!    compared bitwise — the serving oracle's
//!    plan-mode × batching contract, measured on the real dispatcher.
//! 2. **Zero steady-state acquires.** After the first batch of each
//!    size warms the tenant's input/output slabs and compiles the plan
//!    schedule, further batches must acquire nothing from the tensor
//!    allocator — refills happen in place.
//! 3. **Latency holds under load.** A [`ServerCore`] (real admission
//!    queue + inference thread, no TCP) is driven closed-loop by
//!    worker threads multiplexing N virtual clients; p50/p99 and
//!    throughput are reported per arm.
//!
//! Usage: `bench_serve [--out FILE] [--check BASELINE]`
//!
//! With `--check`, the process exits nonzero unless batched throughput
//! is >= 3x serial, the steady-state batch loop acquired zero buffers,
//! and the 1000-client arm completed requests with p99 <= 500 ms —
//! `scripts/check.sh` uses this as the serving regression guard.

use sagdfn_bench::gate::{self, Gate};
use sagdfn_core::{set_plan_mode, PlanMode, Sagdfn, SagdfnConfig};
use sagdfn_data::{Scale, SplitSpec, ThreeWaySplit};
use sagdfn_json::Json;
use sagdfn_obs as obs;
use sagdfn_serve::{
    response_channel, Dispatcher, ForecastRequest, Registry, ServeConfig, ServeError, ServerCore,
    Tenant,
};
use sagdfn_tensor::pool;
use std::time::{Duration, Instant};

const WARMUP_REPS: usize = 2;
/// Timed rounds of the throughput race.
const REPS: usize = 8;
/// Seconds per closed-loop latency arm.
const LATENCY_SECS: f64 = 1.0;
/// Requests per throughput pass: divisible by both batch caps so every
/// batched flush is full.
const STREAM: usize = 192;
const BATCH_CAP: usize = 32;
const MODEL_NAME: &str = "traffic";

/// One reusable request body: a window start plus its raw history rows.
#[derive(Clone)]
struct Payload {
    start: u64,
    history: Vec<f32>,
}

/// A small GRU serving workload (60 nodes, h = f = 6) and a payload
/// pool cut from its eval windows. Deterministic: both dispatcher arms
/// and the server build bit-identical tenants.
fn workload() -> (Tenant, Vec<Payload>) {
    let data = sagdfn_data::synth::TrafficConfig { nodes: 8, steps: 220, ..Default::default() }
        .generate("serve");
    let n = data.dataset.nodes();
    let (interval, smow) = (data.dataset.interval_min, data.dataset.start_minute_of_week);
    // Deliberately narrow: per-request tensors are small enough that the
    // interpreter's per-op overhead (tape nodes, allocator acquires) is
    // the dominant serial cost — the regime interactive forecast serving
    // lives in, and exactly what the coalesced planned forward removes.
    let cfg = SagdfnConfig {
        embed_dim: 4,
        m: 4,
        top_k: 3,
        heads: 1,
        attn_hidden: 4,
        hidden: 4,
        diffusion_steps: 2,
        ..SagdfnConfig::for_scale(Scale::Tiny, n)
    };
    let model = Sagdfn::new(n, cfg);
    let (h, f) = (6usize, 6);
    let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(h, f));
    let vals = split.test.dataset().values.as_slice();
    let payloads = split
        .test
        .starts()
        .iter()
        .take(16)
        .map(|&s| Payload { start: s as u64, history: vals[s * n..(s + h) * n].to_vec() })
        .collect();
    let tenant =
        Tenant::new(MODEL_NAME.to_string(), model, split.scaler, h, f, interval, smow);
    (tenant, payloads)
}

fn request(payloads: &[Payload], i: usize) -> (ForecastRequest, sagdfn_serve::ResponseHandle) {
    let p = &payloads[i % payloads.len()];
    let (responder, handle) = response_channel();
    let req = ForecastRequest {
        tenant: 0,
        start: p.start,
        history: p.history.clone(),
        deadline_ns: None,
        responder,
    };
    (req, handle)
}

/// Pushes `STREAM` requests through the dispatcher under the given plan
/// mode and drains it. Collects every forecast's bit pattern when `bits`
/// is provided (pass `None` for timed reps).
fn one_pass(
    disp: &mut Dispatcher,
    payloads: &[Payload],
    plan: PlanMode,
    mut bits: Option<&mut Vec<u32>>,
) {
    set_plan_mode(plan);
    let mut handles = Vec::with_capacity(STREAM);
    for i in 0..STREAM {
        let (req, handle) = request(payloads, i);
        disp.admit(req, i as u64);
        handles.push(handle);
    }
    disp.drain(STREAM as u64);
    for handle in handles {
        let forecast = handle.try_take().expect("drained").expect("forecast");
        if let Some(bits) = bits.as_deref_mut() {
            bits.extend(forecast.values.iter().map(|v| v.to_bits()));
        }
    }
}

/// Tensor-allocator acquires across `reps` full batches after warmup:
/// the slabs and plan schedule exist, so the steady state must be zero.
fn steady_state_acquires(disp: &mut Dispatcher, payloads: &[Payload], reps: usize) -> u64 {
    let full_batch = |disp: &mut Dispatcher, base: usize| {
        let handles: Vec<_> = (0..BATCH_CAP)
            .map(|i| {
                let (req, handle) = request(payloads, base + i);
                disp.admit(req, (base + i) as u64);
                handle
            })
            .collect();
        for handle in handles {
            handle.try_take().expect("cap-full flush runs inline").expect("forecast");
        }
    };
    full_batch(disp, 0);
    let before = obs::snapshot();
    for r in 1..=reps {
        full_batch(disp, r * BATCH_CAP);
    }
    obs::snapshot().since(&before).alloc_acquires
}

struct LatencyArm {
    clients: usize,
    completed: u64,
    shed: u64,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Drives the core closed-loop for ~`secs`: worker threads multiplex
/// `clients` virtual clients, each keeping one request in flight
/// (submit a slice, wait the slice, repeat). Shed submissions back off
/// and retry, so the measured latencies include admission pressure.
fn latency_arm(core: &ServerCore, payloads: &[Payload], clients: usize, secs: f64) -> LatencyArm {
    let workers = 8.min(clients);
    let per_worker = clients.div_ceil(workers);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let results: Vec<(Vec<f64>, u64)> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let mut latencies = Vec::new();
                    let mut shed = 0u64;
                    while Instant::now() < deadline {
                        let mut in_flight = Vec::with_capacity(per_worker);
                        'submit: for i in 0..per_worker {
                            let p = &payloads[(w * per_worker + i) % payloads.len()];
                            let sent = Instant::now();
                            loop {
                                match core.submit(MODEL_NAME, p.start, p.history.clone(), None) {
                                    Ok(handle) => {
                                        in_flight.push((sent, handle));
                                        break;
                                    }
                                    Err(ServeError::QueueFull) => {
                                        shed += 1;
                                        std::thread::sleep(Duration::from_micros(200));
                                        if Instant::now() >= deadline {
                                            break 'submit;
                                        }
                                    }
                                    Err(e) => panic!("submit failed: {e:?}"),
                                }
                            }
                        }
                        for (sent, handle) in in_flight {
                            handle.wait().expect("forecast");
                            latencies.push(sent.elapsed().as_secs_f64());
                        }
                    }
                    (latencies, shed)
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("latency worker")).collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut latencies: Vec<f64> = Vec::new();
    let mut shed = 0u64;
    for (lat, sh) in results {
        latencies.extend(lat);
        shed += sh;
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    let pct = |q: f64| -> f64 {
        if latencies.is_empty() {
            return f64::NAN;
        }
        latencies[((latencies.len() - 1) as f64 * q) as usize] * 1e3
    };
    LatencyArm {
        clients,
        completed: latencies.len() as u64,
        shed,
        rps: latencies.len() as f64 / elapsed,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
    }
}

fn main() {
    let args = gate::Args::parse("BENCH_serve.json");

    // Counters on (allocator acquires) and the plan executor pinned on —
    // the serving default.
    obs::set_trace_mode(obs::TraceMode::Counters);
    set_plan_mode(PlanMode::On);

    let (tenant, payloads) = workload();
    let nodes = tenant.n();
    println!(
        "serving benchmark: {} worker threads, {nodes} nodes, {STREAM} requests/pass, {REPS} reps",
        pool::num_threads()
    );
    let mut registry = Registry::new();
    registry.add(tenant);
    let mut serial = Dispatcher::new(registry, 1, u64::MAX);
    let (tenant2, _) = workload();
    let mut registry = Registry::new();
    registry.add(tenant2);
    let mut batched = Dispatcher::new(registry, BATCH_CAP, u64::MAX);

    // --- Arm 1: per-request interpreted vs pipelined throughput ----------
    // Serial = cap 1 + interpreted eval (the naive per-request server),
    // batched = cap 32 + compiled plan.
    let mut serial_bits = Vec::new();
    let mut batched_bits = Vec::new();
    one_pass(&mut serial, &payloads, PlanMode::Off, Some(&mut serial_bits));
    one_pass(&mut batched, &payloads, PlanMode::On, Some(&mut batched_bits));
    let bit_identical = serial_bits == batched_bits;
    let t = gate::race(WARMUP_REPS, REPS, &mut [
        &mut || one_pass(&mut serial, &payloads, PlanMode::Off, None),
        &mut || one_pass(&mut batched, &payloads, PlanMode::On, None),
    ]);
    let (serial_best, batched_best) = (t[0], t[1]);
    let serial_rps = STREAM as f64 / serial_best;
    let batched_rps = STREAM as f64 / batched_best;
    let batched_speedup = batched_rps / serial_rps;
    println!("  per-request (cap 1, interpreted) {serial_rps:>9.0} req/s");
    println!(
        "  pipelined (cap {BATCH_CAP}, planned)     {batched_rps:>9.0} req/s   \
         ({batched_speedup:.2}x vs per-request)"
    );
    println!("  responses bit-identical: {bit_identical}");
    assert!(
        bit_identical,
        "batched planned responses diverged from per-request interpreted — \
         serving bit-identity contract violated"
    );
    set_plan_mode(PlanMode::On);

    // --- Arm 2: steady-state allocator acquires after warmup -------------
    let steady_acquires = steady_state_acquires(&mut batched, &payloads, 4);
    println!("  steady-state batches: {steady_acquires} allocator acquires");

    // --- Arm 3: closed-loop latency under load ---------------------------
    let cfg = ServeConfig {
        max_batch: BATCH_CAP,
        hold_ns: 1_000_000,
        queue_cap: 2048,
        ..ServeConfig::default()
    };
    let core = ServerCore::start(&cfg, || {
        let (tenant, _) = workload();
        let mut registry = Registry::new();
        registry.add(tenant);
        registry
    });
    let mut arms = Vec::new();
    for clients in [100usize, 1_000] {
        let arm = latency_arm(&core, &payloads, clients, LATENCY_SECS);
        println!(
            "  {:>5} clients: {:>9.0} req/s   p50 {:>7.2} ms   p99 {:>7.2} ms   ({} completed, {} shed)",
            arm.clients, arm.rps, arm.p50_ms, arm.p99_ms, arm.completed, arm.shed
        );
        arms.push(arm);
    }
    core.shutdown();

    let arm_1k = arms.iter().find(|a| a.clients == 1_000).expect("1k arm");
    let p99_1k = arm_1k.p99_ms;
    let completed_1k = arm_1k.completed;

    let doc = Json::obj([
        ("threads", Json::from(pool::num_threads())),
        ("reps", Json::from(REPS)),
        ("nodes", Json::from(nodes)),
        ("stream", Json::from(STREAM)),
        ("batch_cap", Json::from(BATCH_CAP)),
        ("serial_rps", Json::from(serial_rps)),
        ("batched_rps", Json::from(batched_rps)),
        ("batched_speedup", Json::from(batched_speedup)),
        ("bit_identical", Json::from(bit_identical)),
        ("steady_acquires", Json::from(steady_acquires)),
        (
            "latency",
            Json::Arr(
                arms.iter()
                    .map(|a| {
                        Json::obj([
                            ("clients", Json::from(a.clients)),
                            ("completed", Json::from(a.completed)),
                            ("shed", Json::from(a.shed)),
                            ("rps", Json::from(a.rps)),
                            ("p50_ms", Json::from(a.p50_ms)),
                            ("p99_ms", Json::from(a.p99_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    args.finish(doc, |_| {
        vec![
            Gate::at_least("batched speedup vs per-request", batched_speedup, 3.0),
            // Slab refill must be in place.
            Gate::at_most("steady-state batch acquires", steady_acquires as f64, 0.0),
            Gate::at_least("1000-client requests completed", completed_1k as f64, 1.0),
            Gate::at_most("1000-client p99 ms", p99_1k, 500.0),
        ]
    });
}
