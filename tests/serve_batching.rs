//! The serving bit-exactness oracle: any interleaving of K forecast
//! requests coalesced into micro-batches must return forecasts
//! **bit-identical** to K independent unbatched eval forwards —
//! across batch caps, tenant mixes, random pass ends, and
//! `SAGDFN_PLAN` / `SAGDFN_SIMD` modes. A forward that panics costs
//! only its own tenant: the other tenants keep answering bit-exactly.
//!
//! Why this should hold (DESIGN.md §15): every kernel in the stack is
//! row-independent with a fixed per-output accumulation order, the SIMD
//! tiers are bit-identical to the scalar reference (PR 6 suites), and
//! the planned executor is bit-identical to the interpreted eval
//! (PR 7 oracle). The engine's in-place slab refill replicates
//! `make_batch`'s element math exactly, so batch column `b` of a
//! coalesced forward reads precisely the values a `B = 1` forward of
//! request `b` reads.

use proptest::prelude::*;
use sagdfn_repro::autodiff::Tape;
use sagdfn_repro::data::{metr_la_like, Scale, SplitSpec, ThreeWaySplit};
use sagdfn_repro::nn::Mode;
use sagdfn_repro::sagdfn::{set_plan_mode, PlanMode, Sagdfn, SagdfnConfig};
use sagdfn_repro::serve::{
    response_channel, Bounded, DispatchStats, Dispatcher, ForecastRequest, MockClock, Registry,
    ResponseHandle, ServeError, Tenant,
};
use sagdfn_repro::tensor::{set_simd_mode, SimdMode};
use std::sync::Mutex;

/// Serializes global plan/SIMD mode mutation across this binary's test
/// threads, so a sweep can restore what it found.
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// One synthesizable request: a window start plus its raw history rows.
#[derive(Clone)]
struct Payload {
    start: u64,
    history: Vec<f32>,
}

/// Everything one oracle case needs: a multi-tenant registry, a pool of
/// valid payloads per tenant, and per-(tenant, payload) reference
/// forecasts computed by independent unbatched taped eval forwards
/// under pinned `plan=off, simd=scalar`.
struct World {
    registry: Registry,
    payloads: Vec<Vec<Payload>>,
    references: Vec<Vec<Vec<f32>>>,
}

const POOL: usize = 6;
const H: usize = 4;
const F: usize = 4;

fn build_world(tenants: usize) -> World {
    let mut registry = Registry::new();
    let mut payloads = Vec::new();
    let mut references = Vec::new();
    for ti in 0..tenants {
        let data = metr_la_like(Scale::Tiny);
        let n = data.dataset.nodes();
        let (interval, smow) = (data.dataset.interval_min, data.dataset.start_minute_of_week);
        let mut cfg = SagdfnConfig::for_scale(Scale::Tiny, n);
        // Distinct weights per tenant: a mixed batch answered by the
        // wrong tenant's model cannot silently match.
        cfg.seed = cfg.seed.wrapping_add(ti as u64 * 7919);
        let model = Sagdfn::new(n, cfg);
        let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(H, F));
        let vals = split.test.dataset().values.as_slice().to_vec();

        let pool: Vec<Payload> = split.test.starts()[..POOL]
            .iter()
            .map(|&s| Payload { start: s as u64, history: vals[s * n..(s + H) * n].to_vec() })
            .collect();

        // Reference: independent B = 1 taped eval forwards on
        // dataset-built batches, y zeroed like a served request (the
        // no-teacher eval forward only reads y's horizon dimension).
        let refs: Vec<Vec<f32>> = (0..POOL)
            .map(|wid| {
                let mut batch = split.test.make_batch(&[wid]);
                batch.y.as_mut_slice().fill(0.0);
                let tape = Tape::new();
                let _guard = tape.no_grad();
                let bind = model.params.bind(&tape);
                model
                    .forward(&tape, &bind, &batch, split.scaler, Mode::Eval)
                    .value()
                    .as_slice()
                    .to_vec()
            })
            .collect();

        registry.add(Tenant::new(
            format!("tenant{ti}"),
            model,
            split.scaler,
            H,
            F,
            interval,
            smow,
        ));
        payloads.push(pool);
        references.push(refs);
    }
    World { registry, payloads, references }
}

fn make_request(world: &World, tenant: usize, pid: usize) -> (ForecastRequest, ResponseHandle) {
    let p = &world.payloads[tenant][pid];
    let (responder, handle) = response_channel();
    let req = ForecastRequest {
        tenant,
        start: p.start,
        history: p.history.clone(),
        deadline_ns: None,
        responder,
    };
    (req, handle)
}

/// The bitwise mismatch between a served forecast and its reference, if
/// any.
fn diverged(world: &World, tenant: usize, pid: usize, values: &[f32]) -> Option<String> {
    let want = &world.references[tenant][pid];
    (values != want.as_slice()).then(|| {
        let at = values
            .iter()
            .zip(want)
            .position(|(a, b)| a.to_bits() != b.to_bits())
            .unwrap_or(usize::MAX);
        format!("request ({tenant},{pid}) diverged from the unbatched forward at element {at}")
    })
}

/// Replays one interleaving through a dispatcher and checks every
/// response bitwise against its reference.
fn check_interleaving(
    world: &mut World,
    cap: usize,
    schedule: &[(usize, usize, bool)],
) -> Result<(), String> {
    let registry = std::mem::take(&mut world.registry);
    let mut disp = Dispatcher::new(registry, cap);
    let mut now = 0u64;
    let mut handles = Vec::new();
    for &(tenant, pid, end_pass) in schedule {
        let (req, handle) = make_request(world, tenant, pid);
        disp.admit(req, now);
        handles.push((tenant, pid, handle));
        now += 1;
        if end_pass {
            // The dispatch pass ends here: every partial batch runs.
            disp.flush(now);
        }
    }
    disp.flush(now);
    let total = schedule.len() as u64;
    if disp.stats.batched_requests != total {
        return Err(format!(
            "dispatcher answered {} of {total} requests",
            disp.stats.batched_requests
        ));
    }
    for (tenant, pid, handle) in handles {
        let fc = handle
            .try_take()
            .ok_or_else(|| format!("request ({tenant},{pid}) unanswered"))?
            .map_err(|e| format!("request ({tenant},{pid}) failed: {e:?}"))?;
        if let Some(e) = diverged(world, tenant, pid, &fc.values) {
            return Err(format!("{e} (cap {cap})"));
        }
    }
    world.registry = disp.into_registry();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole oracle: random interleavings × batch caps × tenant
    /// mixes × plan/SIMD modes, all bit-identical to per-request
    /// forwards.
    #[test]
    fn coalesced_batches_match_unbatched_predict(
        cap in 1usize..6,
        raw_picks in prop::collection::vec((0usize..2, 0usize..POOL, 0usize..4), 1..11),
    ) {
        // The third draw ends the dispatch pass after that admit (~1 in
        // 4), interleaving partial batches with cap-full ones.
        let picks: Vec<(usize, usize, bool)> =
            raw_picks.into_iter().map(|(t, p, flip)| (t, p, flip == 0)).collect();
        let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev_plan = set_plan_mode(PlanMode::Off);
        let prev_simd = set_simd_mode(SimdMode::Scalar);
        // References are pinned under off/scalar; every mode combination
        // must reproduce them bitwise through the batching pipeline.
        let mut world = build_world(2);
        let mut outcome = Ok(());
        'modes: for plan in [PlanMode::Off, PlanMode::On] {
            for simd in [SimdMode::Scalar, SimdMode::Auto] {
                set_plan_mode(plan);
                set_simd_mode(simd);
                if let Err(e) = check_interleaving(&mut world, cap, &picks) {
                    outcome = Err(format!("plan {plan:?} simd {simd:?}: {e}"));
                    break 'modes;
                }
            }
        }
        set_plan_mode(prev_plan);
        set_simd_mode(prev_simd);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}

/// Degenerate case: a single request under the widest batch cap equals
/// its unbatched forward.
#[test]
fn single_request_degenerate_case() {
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev_plan = set_plan_mode(PlanMode::Off);
    let prev_simd = set_simd_mode(SimdMode::Scalar);
    let mut world = build_world(1);
    let result = check_interleaving(&mut world, 64, &[(0, 0, false)]);
    set_plan_mode(prev_plan);
    set_simd_mode(prev_simd);
    result.expect("single request must match its unbatched forward");
}

/// Degenerate case: flushing an empty pipeline, or a pass over a closed
/// empty queue, executes nothing (the empty flush never reaches the
/// forward pass).
#[test]
fn empty_flush_degenerate_case() {
    let world = build_world(1);
    let mut disp = Dispatcher::new(world.registry, 4);
    disp.flush(u64::MAX);
    let queue: Bounded<ForecastRequest> = Bounded::new(1);
    queue.close();
    assert!(!disp.pass(&queue, &MockClock::new(0)));
    assert_eq!(disp.stats, DispatchStats::default());
    assert_eq!(disp.pending(), 0);
}

/// A forward that panics answers its batch 500 and quarantines its
/// tenant (503 from then on), while the other tenant keeps answering
/// bit-identically. The panic needs no test seam: a history of the wrong
/// length, which admission would have refused, is pushed straight into
/// the dispatcher.
#[test]
fn a_panicking_forward_quarantines_only_its_tenant() {
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut world = build_world(2);
    let registry = std::mem::take(&mut world.registry);
    let mut disp = Dispatcher::new(registry, 4);

    let (mut bad, bad_h) = make_request(&world, 0, 0);
    bad.history.truncate(3);
    let (healthy, healthy_h) = make_request(&world, 1, 0);
    disp.admit(bad, 0);
    disp.admit(healthy, 0);
    disp.flush(0);
    assert_eq!(bad_h.try_take().expect("answered"), Err(ServeError::Internal));
    let fc = healthy_h.try_take().expect("answered").expect("forecast");
    assert_eq!(diverged(&world, 1, 0, &fc.values), None);

    let (again, again_h) = make_request(&world, 0, 1);
    disp.admit(again, 1);
    assert_eq!(
        again_h.try_take().expect("answered at admission"),
        Err(ServeError::Quarantined("tenant0".into()))
    );
    let handles: Vec<_> = (0..POOL)
        .map(|pid| {
            let (req, h) = make_request(&world, 1, pid);
            disp.admit(req, 2);
            (pid, h)
        })
        .collect();
    disp.flush(2);
    for (pid, h) in handles {
        let fc = h.try_take().expect("answered").expect("forecast");
        assert_eq!(diverged(&world, 1, pid, &fc.values), None);
    }
    assert_eq!((disp.stats.failed, disp.stats.quarantined), (1, 1));
    assert_eq!(disp.stats.batched_requests, 1 + POOL as u64);
}

/// Batch-size sweep on one fixed request set: every cap from 1 to the
/// request count produces the same bits.
#[test]
fn every_batch_cap_produces_identical_bits() {
    let _guard = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev_plan = set_plan_mode(PlanMode::On);
    let prev_simd = set_simd_mode(SimdMode::Auto);
    let mut world = build_world(1);
    let schedule: Vec<(usize, usize, bool)> =
        (0..POOL).map(|pid| (0, pid, false)).collect();
    let mut outcome = Ok(());
    for cap in 1..=POOL {
        if let Err(e) = check_interleaving(&mut world, cap, &schedule) {
            outcome = Err(format!("cap {cap}: {e}"));
            break;
        }
    }
    set_plan_mode(prev_plan);
    set_simd_mode(prev_simd);
    outcome.expect("all caps bit-identical");
}
