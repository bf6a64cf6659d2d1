//! Serving footprint: a tenant holds one compiled plan and one slab for
//! every batch size. Without a batch hold, partial batches come in every
//! size up to the cap, so a per-size cache would grow an executor arena
//! and a slab per size. Here a tenant that has served every `b` in
//! `1..=cap` must hold no more live tensor bytes than one that served
//! `b = cap` alone, recompile its plan only when a batch outgrows it,
//! and run a warm batch of any size with zero allocator acquires.
//!
//! One test in its own binary: it reads the process-global obs counters
//! and the allocator's live-byte count.

use sagdfn_repro::data::{metr_la_like, Scale, SplitSpec, ThreeWaySplit};
use sagdfn_repro::obs::{self, TraceMode};
use sagdfn_repro::sagdfn::{set_plan_mode, PlanMode, Sagdfn, SagdfnConfig};
use sagdfn_repro::serve::{response_channel, Dispatcher, ForecastRequest, Registry, Tenant};
use sagdfn_repro::tensor::alloc;

const CAP: usize = 6;
const H: usize = 4;
const F: usize = 4;

/// A one-tenant dispatcher with batch cap `CAP`, and request payloads
/// (window start + raw history) from the same dataset.
fn dispatcher() -> (Dispatcher, Vec<(u64, Vec<f32>)>) {
    let data = metr_la_like(Scale::Tiny);
    let n = data.dataset.nodes();
    let (interval, smow) = (data.dataset.interval_min, data.dataset.start_minute_of_week);
    let model = Sagdfn::new(n, SagdfnConfig::for_scale(Scale::Tiny, n));
    let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(H, F));
    let vals = split.test.dataset().values.as_slice().to_vec();
    let payloads = split.test.starts()[..CAP]
        .iter()
        .map(|&s| (s as u64, vals[s * n..(s + H) * n].to_vec()))
        .collect();
    let mut registry = Registry::new();
    registry.add(Tenant::new(
        "tiny",
        model,
        split.scaler,
        H,
        F,
        interval,
        smow,
    ));
    (Dispatcher::new(registry, CAP), payloads)
}

/// Serves one batch of `b` requests and returns the obs counter delta.
fn serve(disp: &mut Dispatcher, payloads: &[(u64, Vec<f32>)], b: usize) -> obs::Snapshot {
    let base = obs::snapshot();
    let handles: Vec<_> = payloads[..b]
        .iter()
        .map(|(start, history)| {
            let (responder, handle) = response_channel();
            let req = ForecastRequest {
                tenant: 0,
                start: *start,
                history: history.clone(),
                deadline_ns: None,
                responder,
            };
            disp.admit(req, 0);
            handle
        })
        .collect();
    disp.flush(0);
    for h in handles {
        assert!(h.try_take().expect("answered").is_ok());
    }
    let delta = obs::snapshot().since(&base);
    assert_eq!(delta.serve_batches, 1, "one batch of {b}");
    delta
}

#[test]
fn one_plan_and_one_slab_serve_every_batch_size() {
    let prev_trace = obs::set_trace_mode(TraceMode::Counters);
    let prev_plan = set_plan_mode(PlanMode::On);

    // b = cap alone: one compile, and the live bytes that costs.
    let (mut disp, payloads) = dispatcher();
    let live0 = alloc::live_bytes();
    assert_eq!(serve(&mut disp, &payloads, CAP).plan_compiles, 1);
    let cap_alone = alloc::live_bytes() - live0;
    // Every size then runs on that plan and slab, acquiring nothing.
    for b in (1..=CAP).rev() {
        let d = serve(&mut disp, &payloads, b);
        assert_eq!(
            (d.plan_compiles, d.alloc_acquires),
            (0, 0),
            "warm batch of {b}"
        );
    }
    assert!(alloc::live_bytes() - live0 <= cap_alone);
    drop(disp);

    // A tenant whose batches grow 1, 2, …, cap recompiles exactly when
    // its capacity grows and ends no larger than the cap-alone tenant.
    let (mut disp, payloads) = dispatcher();
    let live0 = alloc::live_bytes();
    for b in 1..=CAP {
        assert_eq!(
            serve(&mut disp, &payloads, b).plan_compiles,
            1,
            "capacity grows to {b}"
        );
    }
    for b in (1..=CAP).rev() {
        let d = serve(&mut disp, &payloads, b);
        assert_eq!(
            (d.plan_compiles, d.alloc_acquires),
            (0, 0),
            "warm batch of {b}"
        );
    }
    let grown = alloc::live_bytes() - live0;
    assert!(
        grown <= cap_alone,
        "{grown} live bytes after every size vs {cap_alone} for b = cap"
    );

    set_plan_mode(prev_plan);
    obs::set_trace_mode(prev_trace);
}
