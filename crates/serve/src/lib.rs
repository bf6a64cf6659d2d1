//! `sagdfn serve`: a std-only micro-batched forecast server.
//!
//! Pipeline (DESIGN.md §15): connection threads validate and push
//! requests onto a bounded admission [`queue::Bounded`] (full ⇒ shed
//! with 429, never block); one dedicated inference thread runs
//! [`Dispatcher::pass`] after pass: it takes whatever is queued,
//! coalesces it per tenant, and runs each micro-batch — when it fills,
//! or at the end of the pass — as a single batched no-grad planned
//! forward through [`sagdfn_core::Sagdfn::predict_batch_into`]. No
//! timer holds a batch back: an idle server answers at once, and
//! requests that arrive during a forward form the next batch.
//! Per-request deadlines are enforced *before* the forward runs (504);
//! a panicking forward answers its batch 500 and quarantines its tenant
//! (503); graceful shutdown closes admissions and answers every
//! admitted request.
//!
//! Correctness contract: a micro-batched response is **bit-identical**
//! to the same request forwarded alone (`tests/serve_batching.rs`
//! proves this over random interleavings, batch caps, tenant mixes, and
//! `SAGDFN_PLAN` / `SAGDFN_SIMD` modes). Every kernel in the stack is
//! row-independent with a fixed per-output accumulation order, so batch
//! column `b` reads exactly the values a `B = 1` forward of request `b`
//! reads, in the same order.

pub mod clock;
pub mod engine;
pub mod http;
pub mod queue;
pub mod server;

pub use clock::{Clock, MockClock, RealClock};
pub use engine::{
    admit_to_queue, response_channel, DispatchStats, Dispatcher, Forecast, ForecastRequest,
    Registry, Responder, ResponseHandle, ServeError, Tenant, TenantMeta,
};
pub use queue::{Bounded, PushError};
pub use server::{ServeConfig, Server, ServerCore};

#[cfg(test)]
mod tests {
    use super::*;
    use sagdfn_core::{Sagdfn, SagdfnConfig};
    use sagdfn_data::{metr_la_like, Scale, SplitSpec, ThreeWaySplit};

    /// A tiny ready-to-serve tenant and a source of valid request
    /// payloads (window starts + raw histories from the same dataset).
    fn tiny_tenant(name: &str) -> (Tenant, Vec<(u64, Vec<f32>)>) {
        let data = metr_la_like(Scale::Tiny);
        let n = data.dataset.nodes();
        let interval = data.dataset.interval_min;
        let smow = data.dataset.start_minute_of_week;
        let cfg = SagdfnConfig::for_scale(Scale::Tiny, n);
        let model = Sagdfn::new(n, cfg);
        let (h, f) = (4, 4);
        let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(h, f));
        let vals = split.test.dataset().values.as_slice().to_vec();
        let requests: Vec<(u64, Vec<f32>)> = split
            .test
            .starts()
            .iter()
            .take(8)
            .map(|&s| (s as u64, vals[s * n..(s + h) * n].to_vec()))
            .collect();
        let tenant = Tenant::new(name, model, split.scaler, h, f, interval, smow);
        (tenant, requests)
    }

    fn request(
        tenant: usize,
        payload: &(u64, Vec<f32>),
        deadline_ns: Option<u64>,
    ) -> (ForecastRequest, ResponseHandle) {
        let (responder, handle) = response_channel();
        let req = ForecastRequest {
            tenant,
            start: payload.0,
            history: payload.1.clone(),
            deadline_ns,
            responder,
        };
        (req, handle)
    }

    // -- Deterministic pass and deadline semantics: all driven by a   --
    // -- MockClock, no real sleeps anywhere.                           --

    #[test]
    fn a_lone_request_executes_in_the_same_pass() {
        let clock = MockClock::new(0);
        let (tenant, payloads) = tiny_tenant("tiny");
        let mut registry = Registry::new();
        let slot = registry.add(tenant);
        let mut disp = Dispatcher::new(registry, 8);
        let queue = Bounded::new(16);

        let (r0, h0) = request(slot, &payloads[0], None);
        admit_to_queue(&queue, r0).expect("admitted");
        assert!(disp.pass(&queue, &clock));
        // No clock advance: the partial batch of one ran at pass end.
        assert_eq!(clock.now_ns(), 0);
        assert_eq!(disp.stats, DispatchStats { batches: 1, batched_requests: 1, ..Default::default() });
        assert_eq!(disp.pending(), 0);
        assert!(h0.try_take().expect("answered in the pass").is_ok());
    }

    /// A clock whose first reading enqueues `arrivals`: requests that
    /// reach the queue after a pass has begun, while it builds and runs
    /// its batch.
    struct ArrivingClock<'q> {
        queue: &'q Bounded<ForecastRequest>,
        arrivals: std::sync::Mutex<Vec<ForecastRequest>>,
    }

    impl Clock for ArrivingClock<'_> {
        fn now_ns(&self) -> u64 {
            for r in self.arrivals.lock().expect("test clock").drain(..) {
                admit_to_queue(self.queue, r).expect("admitted");
            }
            0
        }
    }

    #[test]
    fn requests_arriving_during_a_pass_form_the_next_batch() {
        let (tenant, payloads) = tiny_tenant("tiny");
        let mut registry = Registry::new();
        let slot = registry.add(tenant);
        let mut disp = Dispatcher::new(registry, 8);
        let queue = Bounded::new(16);
        let (r0, h0) = request(slot, &payloads[0], None);
        admit_to_queue(&queue, r0).expect("admitted");
        let (arrivals, handles): (Vec<_>, Vec<_>) =
            payloads[1..4].iter().map(|p| request(slot, p, None)).unzip();
        let clock = ArrivingClock { queue: &queue, arrivals: std::sync::Mutex::new(arrivals) };

        // The pass began with one queued request, so it runs that one
        // alone although three more arrived before its forward.
        assert!(disp.pass(&queue, &clock));
        assert_eq!(disp.stats, DispatchStats { batches: 1, batched_requests: 1, ..Default::default() });
        assert!(h0.try_take().expect("answered in its pass").is_ok());
        assert_eq!(queue.len(), 3);
        // The arrivals form the next batch, together.
        assert!(disp.pass(&queue, &clock));
        assert_eq!(disp.stats, DispatchStats { batches: 2, batched_requests: 4, ..Default::default() });
        for h in handles {
            assert!(h.try_take().expect("answered in the second pass").is_ok());
        }
    }

    #[test]
    fn a_full_batch_runs_inside_the_pass_and_the_rest_flushes_at_its_end() {
        let clock = MockClock::new(0);
        let (tenant, payloads) = tiny_tenant("tiny");
        let mut registry = Registry::new();
        let slot = registry.add(tenant);
        let mut disp = Dispatcher::new(registry, 2);
        let queue = Bounded::new(16);
        let handles: Vec<ResponseHandle> = payloads[..3]
            .iter()
            .map(|p| {
                let (r, h) = request(slot, p, None);
                admit_to_queue(&queue, r).expect("admitted");
                h
            })
            .collect();
        assert!(disp.pass(&queue, &clock));
        assert_eq!(disp.stats, DispatchStats { batches: 2, batched_requests: 3, ..Default::default() });
        for h in handles {
            assert!(h.try_take().expect("answered").is_ok());
        }
    }

    #[test]
    fn expired_deadline_answers_504_before_the_forward_runs() {
        let clock = MockClock::new(0);
        let (tenant, payloads) = tiny_tenant("tiny");
        let mut registry = Registry::new();
        let slot = registry.add(tenant);
        let mut disp = Dispatcher::new(registry, 8);

        // Flushed at t = 1000: a deadline before or exactly at the flush
        // time answers 504, a later one (or none) runs, in arrival order.
        let deadlines = [Some(500), Some(1_000), Some(1_001), None];
        let (reqs, handles): (Vec<_>, Vec<_>) =
            payloads[..4].iter().zip(deadlines).map(|(p, d)| request(slot, p, d)).unzip();
        for r in reqs {
            disp.admit(r, clock.now_ns());
        }
        clock.set(1_000);
        disp.flush(clock.now_ns());

        let mut handles = handles.into_iter();
        for _ in 0..2 {
            assert_eq!(handles.next().expect("expired").wait(), Err(ServeError::DeadlineExceeded));
        }
        // The survivors' answers are their own: each matches a solo run.
        let (mut reference, _) = tiny_tenant("reference");
        for (h, p) in handles.zip(&payloads[2..4]) {
            let (solo, _solo_h) = request(0, p, None);
            let want = reference.run_batch(std::slice::from_ref(&solo)).remove(0);
            assert_eq!(h.wait().expect("survivor runs").values, want.values);
        }
        // The expired requests never entered an executed batch: exactly
        // one batch ran and it held the two survivors.
        assert_eq!(
            disp.stats,
            DispatchStats { batches: 1, batched_requests: 2, expired: 2, ..Default::default() }
        );
    }

    #[test]
    fn fully_expired_flush_skips_the_forward_entirely() {
        let clock = MockClock::new(0);
        let (tenant, payloads) = tiny_tenant("tiny");
        let mut registry = Registry::new();
        let slot = registry.add(tenant);
        let mut disp = Dispatcher::new(registry, 8);

        let (r, h) = request(slot, &payloads[0], Some(50));
        disp.admit(r, clock.now_ns());
        clock.set(10_000);
        disp.flush(clock.now_ns());
        assert_eq!(h.wait(), Err(ServeError::DeadlineExceeded));
        assert_eq!(disp.stats, DispatchStats { expired: 1, ..Default::default() });
    }

    #[test]
    fn closed_queue_answers_everything_admitted_then_ends() {
        let clock = MockClock::new(0);
        let (tenant, payloads) = tiny_tenant("tiny");
        let mut registry = Registry::new();
        let slot = registry.add(tenant);
        let mut disp = Dispatcher::new(registry, 1_000);
        let queue = Bounded::new(16);

        let handles: Vec<ResponseHandle> = payloads[..3]
            .iter()
            .map(|p| {
                let (r, h) = request(slot, p, None);
                admit_to_queue(&queue, r).expect("admitted");
                h
            })
            .collect();
        queue.close();
        assert!(disp.pass(&queue, &clock));
        assert!(!disp.pass(&queue, &clock), "closed and drained ends the loop");
        assert_eq!(disp.pending(), 0);
        assert_eq!(disp.stats, DispatchStats { batches: 1, batched_requests: 3, ..Default::default() });
        for h in handles {
            assert!(h.wait().is_ok(), "admitted requests must still be answered");
        }
    }

    #[test]
    fn dropped_responder_never_hangs_the_waiter() {
        let (responder, handle) = response_channel();
        drop(responder);
        assert_eq!(handle.wait(), Err(ServeError::ShuttingDown));
    }

    // -- End-to-end over loopback TCP ---------------------------------

    #[test]
    fn http_round_trip_and_graceful_shutdown() {
        use std::io::{BufRead, BufReader, Read, Write};

        let cfg = ServeConfig { max_batch: 4, ..ServeConfig::default() };
        let server = Server::start(cfg, || {
            let (tenant, _) = tiny_tenant("tiny");
            let mut registry = Registry::new();
            registry.add(tenant);
            registry
        })
        .expect("bind loopback");
        let meta = server.core().metadata()[0].clone();

        let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
        let history_rows: Vec<String> = (0..meta.h)
            .map(|t| {
                let row: Vec<String> =
                    (0..meta.n).map(|i| format!("{:.1}", 40.0 + (t * meta.n + i) as f32)).collect();
                format!("[{}]", row.join(","))
            })
            .collect();
        let body = format!(
            "{{\"model\":\"tiny\",\"start\":3,\"history\":[{}]}}",
            history_rows.join(",")
        );
        let req = format!(
            "POST /v1/forecast HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        stream.write_all(req.as_bytes()).unwrap();

        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        assert!(status.contains("200"), "expected 200, got {status:?}");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.trim_end().is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().unwrap();
                }
            }
        }
        let mut resp = vec![0u8; content_length];
        reader.read_exact(&mut resp).unwrap();
        let parsed = sagdfn_json::Json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
        let forecast = parsed.req("forecast").and_then(sagdfn_json::Json::as_arr).unwrap();
        assert_eq!(forecast.len(), meta.f, "one row per forecast step");
        assert_eq!(
            forecast[0].as_arr().unwrap().len(),
            meta.n,
            "one prediction per node"
        );
        assert_eq!(parsed.req("start").and_then(sagdfn_json::Json::as_u64), Ok(3 + meta.h as u64));

        // Unknown model and bad shape map to their statuses on the same
        // keep-alive connection.
        let body = "{\"model\":\"nope\",\"start\":0,\"history\":[1.0]}";
        let req = format!(
            "POST /v1/forecast HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        stream.write_all(req.as_bytes()).unwrap();
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        assert!(status.contains("404"), "expected 404, got {status:?}");
        drop(reader);
        drop(stream);

        // Health and model listing.
        let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
        stream
            .write_all(b"GET /v1/models HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut listing = String::new();
        BufReader::new(stream).read_to_string(&mut listing).unwrap();
        assert!(listing.contains("\"name\":\"tiny\""), "got {listing:?}");

        server.shutdown();
    }

    #[test]
    fn quantile_tenant_ships_monotone_rows_and_median_values() {
        let data = metr_la_like(Scale::Tiny);
        let n = data.dataset.nodes();
        let interval = data.dataset.interval_min;
        let smow = data.dataset.start_minute_of_week;
        let mut cfg = SagdfnConfig::for_scale(Scale::Tiny, n);
        cfg.head = sagdfn_core::HeadKind::Quantile;
        let model = Sagdfn::new(n, cfg);
        let (h, f) = (4, 4);
        let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(h, f));
        let vals = split.test.dataset().values.as_slice().to_vec();
        let s = split.test.starts()[0];
        let payload = (s as u64, vals[s * n..(s + h) * n].to_vec());
        let tenant = Tenant::new("q", model, split.scaler, h, f, interval, smow);
        let mut registry = Registry::new();
        let slot = registry.add(tenant);
        let mut disp = Dispatcher::new(registry, 4);

        let (r, handle) = request(slot, &payload, None);
        disp.admit(r, 0);
        disp.flush(0);
        let fc = handle.wait().expect("forecast");
        assert_eq!(fc.levels, vec![0.1, 0.25, 0.5, 0.75, 0.9]);
        let q = fc.levels.len();
        let rows = fc.quantiles.as_ref().expect("quantile rows");
        assert_eq!(rows.len(), f * n * q);
        assert_eq!(fc.values.len(), f * n);
        for (i, row) in rows.chunks_exact(q).enumerate() {
            assert!(
                row.windows(2).all(|w| w[1] >= w[0]),
                "row {i} not monotone: {row:?}"
            );
            // The point forecast is the median channel (index 2).
            assert_eq!(fc.values[i], row[2]);
        }
    }

    #[test]
    fn server_core_sheds_when_the_queue_is_full() {
        // A registry-building closure that blocks dispatch long enough
        // is unnecessary: submit against a 1-slot queue while the
        // inference thread is parked on an empty queue is racy, so
        // instead drive the queue + admission path directly.
        let q: Bounded<ForecastRequest> = Bounded::new(1);
        let (tenant, payloads) = tiny_tenant("tiny");
        let mut registry = Registry::new();
        let slot = registry.add(tenant);

        let (r0, _h0) = request(slot, &payloads[0], None);
        let (r1, h1) = request(slot, &payloads[1], None);
        assert!(admit_to_queue(&q, r0).is_ok());
        assert_eq!(admit_to_queue(&q, r1).unwrap_err(), ServeError::QueueFull);
        // The shed responder already answered 429's engine error.
        assert_eq!(h1.wait(), Err(ServeError::QueueFull));

        // Drain the queued request through a dispatcher so its
        // responder resolves too.
        let mut disp = Dispatcher::new(registry, 1);
        if let Some(r) = q.try_pop() {
            disp.admit(r, 0);
        }
        assert_eq!(disp.stats.batched_requests, 1);
    }

    #[test]
    fn server_core_submit_validates_and_answers() {
        let cfg = ServeConfig { max_batch: 2, ..ServeConfig::default() };
        let core = ServerCore::start(&cfg, || {
            let (tenant, _) = tiny_tenant("tiny");
            let mut registry = Registry::new();
            registry.add(tenant);
            registry
        });
        let m = core.metadata()[0].clone();

        assert_eq!(
            core.submit("ghost", 0, vec![0.0; m.h * m.n], None).unwrap_err(),
            ServeError::UnknownModel("ghost".into())
        );
        assert!(matches!(
            core.submit("tiny", 0, vec![0.0; 3], None).unwrap_err(),
            ServeError::BadRequest(_)
        ));

        let handles: Vec<ResponseHandle> = (0..2)
            .map(|i| {
                core.submit("tiny", i, vec![40.0; m.h * m.n], None).expect("admitted")
            })
            .collect();
        for h in handles {
            let fc = h.wait().expect("forecast");
            assert_eq!(fc.values.len(), m.f * m.n);
            assert!(fc.values.iter().all(|v| v.is_finite()));
        }
        core.shutdown();
    }
}
