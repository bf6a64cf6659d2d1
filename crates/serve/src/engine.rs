//! Forecast engine: requests, tenants, and the micro-batch dispatcher.
//!
//! A [`ForecastRequest`] carries raw history values for one tenant; the
//! [`Dispatcher`] coalesces concurrent requests per tenant through a
//! [`MicroBatcher`] and runs each flush as **one** batched no-grad
//! forward via [`Sagdfn::predict_batch_into`]. Because every kernel in
//! the stack is row-independent with a fixed accumulation order, column
//! `b` of the batched forward is bit-identical to a `B = 1` forward of
//! request `b` alone — `tests/serve_batching.rs` pins that equivalence
//! across batch caps and plan/SIMD modes.
//!
//! Tenants keep one [`Batch`] slab plus output buffer per batch size
//! seen, refilled in place each flush, so a warm tenant serves requests
//! with **zero** allocator acquires: the planned executor writes
//! straight into the cached output tensor and the only per-request
//! allocation is the plain response `Vec` handed to the client. The
//! refill is [`Batch::encode_window`] over the tenant's
//! [`sagdfn_data::Clock`], the same input encoding training's
//! `make_batch` and the streaming engine use, so a served window is
//! encoded exactly as training encoded it.

use crate::batcher::{BatchItem, Flush, MicroBatcher};
use sagdfn_core::{HeadKind, Sagdfn};
use sagdfn_data::{Batch, Clock, ZScore};
use sagdfn_obs as obs;
use sagdfn_tensor::Tensor;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Errors and responses
// ---------------------------------------------------------------------------

/// Why a request was not answered with a forecast. Each variant maps to
/// one HTTP status.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Admission queue full; retry later (429).
    QueueFull,
    /// The request's deadline passed before its batch ran (504).
    DeadlineExceeded,
    /// The server is shutting down (503).
    ShuttingDown,
    /// No tenant under that name (404).
    UnknownModel(String),
    /// Malformed request (400).
    BadRequest(String),
}

impl ServeError {
    /// The HTTP status code this error answers with.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::QueueFull => 429,
            ServeError::DeadlineExceeded => 504,
            ServeError::ShuttingDown => 503,
            ServeError::UnknownModel(_) => 404,
            ServeError::BadRequest(_) => 400,
        }
    }

    /// Human-readable detail for the error body.
    pub fn message(&self) -> String {
        match self {
            ServeError::QueueFull => "admission queue full, retry later".into(),
            ServeError::DeadlineExceeded => "deadline exceeded before the batch ran".into(),
            ServeError::ShuttingDown => "server is shutting down".into(),
            ServeError::UnknownModel(name) => format!("unknown model {name:?}"),
            ServeError::BadRequest(msg) => msg.clone(),
        }
    }
}

/// A fulfilled forecast: raw-unit predictions, time-major
/// (`values[t * n + node]` over `f` steps). Models with a quantile head
/// additionally carry the full per-node quantile rows; `values` then
/// holds the median (feedback) channel, so point-forecast clients keep
/// working unchanged.
#[derive(Clone, Debug, PartialEq)]
pub struct Forecast {
    /// `f * n` raw point predictions (median channel for quantile heads).
    pub values: Vec<f32>,
    /// `f * n * Q` raw quantile rows (`[t][node][q]` flattened), present
    /// only for quantile-head tenants.
    pub quantiles: Option<Vec<f32>>,
    /// The quantile levels of each row; empty for point tenants.
    pub levels: Vec<f32>,
    /// Forecast horizon.
    pub f: usize,
    /// Node count.
    pub n: usize,
}

type Outcome = Result<Forecast, ServeError>;

struct Slot {
    state: Mutex<Option<Outcome>>,
    done: Condvar,
}

/// Write side of a one-shot response slot. Dropping an unfulfilled
/// responder answers [`ServeError::ShuttingDown`] so a waiter can never
/// hang on a request lost to a panic or an exiting pipeline.
pub struct Responder {
    slot: Arc<Slot>,
    fulfilled: bool,
}

/// Read side: the connection thread blocks here for its answer.
pub struct ResponseHandle {
    slot: Arc<Slot>,
}

impl std::fmt::Debug for ResponseHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ResponseHandle")
    }
}

/// A connected responder/handle pair for one request.
pub fn response_channel() -> (Responder, ResponseHandle) {
    let slot = Arc::new(Slot { state: Mutex::new(None), done: Condvar::new() });
    (Responder { slot: Arc::clone(&slot), fulfilled: false }, ResponseHandle { slot })
}

impl Responder {
    /// Delivers the outcome and wakes the waiter. First write wins;
    /// fulfilment is one-shot by construction.
    pub fn fulfil(mut self, outcome: Outcome) {
        self.fulfilled = true;
        self.deliver(outcome);
    }

    fn deliver(&self, outcome: Outcome) {
        let mut state = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.is_none() {
            *state = Some(outcome);
        }
        drop(state);
        self.slot.done.notify_all();
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if !self.fulfilled {
            self.deliver(Err(ServeError::ShuttingDown));
        }
    }
}

impl ResponseHandle {
    /// Blocks until the responder delivers.
    pub fn wait(self) -> Outcome {
        let mut state = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = state.take() {
                return outcome;
            }
            state = self.slot.done.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Blocks up to `wait`; `None` when the answer has not landed yet.
    pub fn wait_timeout(self, wait: Duration) -> Option<Outcome> {
        let deadline = std::time::Instant::now() + wait;
        let mut state = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = state.take() {
                return Some(outcome);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .slot
                .done
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
        }
    }

    /// Non-blocking probe.
    pub fn try_take(&self) -> Option<Outcome> {
        self.slot.state.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One admitted forecast request, owned by the inference pipeline from
/// admission until its responder is fulfilled.
pub struct ForecastRequest {
    /// Tenant slot in the [`Registry`].
    pub tenant: usize,
    /// Absolute step index of the first history row (covariate phase).
    pub start: u64,
    /// `h * n` raw observations, time-major.
    pub history: Vec<f32>,
    /// Absolute clock stamp after which the answer is worthless.
    pub deadline_ns: Option<u64>,
    /// Where the answer goes.
    pub responder: Responder,
}

impl BatchItem for ForecastRequest {
    fn deadline_ns(&self) -> Option<u64> {
        self.deadline_ns
    }
}

// ---------------------------------------------------------------------------
// Tenants and the registry
// ---------------------------------------------------------------------------

/// Per-batch-size cached buffers: the input slab refilled in place each
/// flush and the output tensor the planned executor writes into.
struct Slab {
    b: usize,
    batch: Batch,
    out: Tensor,
}

/// One served model: a frozen [`Sagdfn`] plus the dataset facts needed
/// to encode raw history exactly as training did.
pub struct Tenant {
    name: String,
    model: Sagdfn,
    scaler: ZScore,
    h: usize,
    f: usize,
    n: usize,
    clock: Clock,
    slabs: Vec<Slab>,
}

impl Tenant {
    /// Wraps a ready model. `scaler` must be the training-split scaler
    /// the model was fitted with; `interval_min` / `start_minute_of_week`
    /// anchor the covariate phase exactly like the source dataset.
    pub fn new(
        name: impl Into<String>,
        model: Sagdfn,
        scaler: ZScore,
        h: usize,
        f: usize,
        interval_min: u32,
        start_minute_of_week: u32,
    ) -> Self {
        let n = model.n();
        assert!(h >= 1 && f >= 1, "degenerate horizon");
        Tenant {
            name: name.into(),
            model,
            scaler,
            h,
            f,
            n,
            clock: Clock::new(interval_min, start_minute_of_week),
            slabs: Vec::new(),
        }
    }

    /// Tenant name (the wire-protocol `model` field).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Node count `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// History length `h` a request must supply.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Forecast horizon `f` a response carries.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Index of the cached slab for batch size `b`, compiling a fresh
    /// one on first sight of the size. The `y` tensor stays zero: the
    /// no-teacher eval forward only reads its `f` dimension.
    fn slab_index(&mut self, b: usize) -> usize {
        if let Some(i) = self.slabs.iter().position(|s| s.b == b) {
            return i;
        }
        self.slabs.push(Slab {
            b,
            batch: Batch::zeros(self.h, self.f, b, self.n),
            // (f, B, N) for point heads, (f, B, N, C) otherwise.
            out: Tensor::zeros(self.model.output_dims(self.f, b).as_slice()),
        });
        self.slabs.len() - 1
    }

    /// Runs `reqs` as one batched forward and fulfils every responder.
    /// Requests must all belong to this tenant and be pre-validated.
    pub fn run_batch(&mut self, reqs: Vec<ForecastRequest>) {
        let b = reqs.len();
        if b == 0 {
            return;
        }
        let (f, n, scaler, clock) = (self.f, self.n, self.scaler, self.clock);
        let si = self.slab_index(b);
        let slab = &mut self.slabs[si];
        for (bi, req) in reqs.iter().enumerate() {
            let row = |t: usize| &req.history[t * n..(t + 1) * n];
            slab.batch.encode_window(bi, req.start, clock, scaler, row, false);
        }

        self.model.predict_batch_into(&slab.batch, scaler, &mut slab.out);

        // Slice each request's column out of the (f, B, N[, C]) output.
        // Multi-channel heads answer with their feedback channel as the
        // point forecast; the quantile head also ships the full rows.
        let c = self.model.out_channels();
        let ch = self
            .model
            .head()
            .map_or(0, sagdfn_core::ForecastHead::feedback_channel);
        let is_quantile = self.model.head_kind() == HeadKind::Quantile;
        let levels: Vec<f32> = if is_quantile {
            self.model.config().quantiles.clone()
        } else {
            Vec::new()
        };
        let out = slab.out.as_slice();
        for (bi, req) in reqs.into_iter().enumerate() {
            let mut values = Vec::with_capacity(f * n);
            let mut quantiles = is_quantile.then(|| Vec::with_capacity(f * n * c));
            for t in 0..f {
                let row = ((t * b + bi) * n) * c;
                if c == 1 {
                    values.extend_from_slice(&out[row..row + n]);
                } else {
                    for node in 0..n {
                        let base = row + node * c;
                        values.push(out[base + ch]);
                        if let Some(q) = &mut quantiles {
                            q.extend_from_slice(&out[base..base + c]);
                        }
                    }
                }
            }
            req.responder.fulfil(Ok(Forecast {
                values,
                quantiles,
                levels: levels.clone(),
                f,
                n,
            }));
        }
    }
}

/// Multi-tenant model registry. Lives on the inference thread
/// (`Sagdfn` is deliberately not `Send`); connection threads hold only
/// the immutable name/shape metadata exported by
/// [`Registry::metadata`].
#[derive(Default)]
pub struct Registry {
    tenants: Vec<Tenant>,
}

/// The connection-thread view of one tenant: everything needed to
/// validate and route a request without touching the model.
#[derive(Clone, Debug)]
pub struct TenantMeta {
    /// Tenant name (wire `model` field).
    pub name: String,
    /// History length a request must supply.
    pub h: usize,
    /// Forecast horizon.
    pub f: usize,
    /// Node count.
    pub n: usize,
}

impl TenantMeta {
    /// The admission check every forecast request passes before it is
    /// queued: `history` must hold exactly `h * n` finite values (the
    /// model has no defined forecast for NaN or ±Inf inputs), and
    /// `start` must leave room for the `h + f` steps the encoding reads.
    pub fn check(&self, start: u64, history: &[f32]) -> Result<(), ServeError> {
        let (h, n) = (self.h, self.n);
        if history.len() != h * n {
            return Err(ServeError::BadRequest(format!(
                "history must hold h*n = {h}*{n} = {} values, got {}",
                h * n,
                history.len()
            )));
        }
        if let Some(i) = history.iter().position(|v| !v.is_finite()) {
            return Err(ServeError::BadRequest(format!(
                "history value {i} (row {}, node {}) is not finite",
                i / n,
                i % n
            )));
        }
        if start.checked_add((h + self.f) as u64).is_none() {
            return Err(ServeError::BadRequest(format!("start {start} is out of range")));
        }
        Ok(())
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds a tenant, returning its slot index.
    pub fn add(&mut self, tenant: Tenant) -> usize {
        self.tenants.push(tenant);
        self.tenants.len() - 1
    }

    /// Tenant count.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// True when no tenants are registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Slot of the tenant named `name`.
    pub fn lookup(&self, name: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.name == name)
    }

    /// Borrow tenant `slot`.
    pub fn tenant(&self, slot: usize) -> &Tenant {
        &self.tenants[slot]
    }

    /// Mutably borrow tenant `slot`.
    pub fn tenant_mut(&mut self, slot: usize) -> &mut Tenant {
        &mut self.tenants[slot]
    }

    /// Immutable routing/validation metadata for every tenant, in slot
    /// order — the part of the registry that crosses threads.
    pub fn metadata(&self) -> Vec<TenantMeta> {
        self.tenants
            .iter()
            .map(|t| TenantMeta { name: t.name.clone(), h: t.h, f: t.f, n: t.n })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

/// Local (non-global) dispatch totals, so deterministic tests can
/// assert "the forward never ran for request X" without reading the
/// process-global obs counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Micro-batches executed.
    pub batches: u64,
    /// Requests answered by an executed batch.
    pub batched_requests: u64,
    /// Requests answered 504 without running.
    pub expired: u64,
}

/// Single-threaded micro-batching core: owns the registry and one
/// [`MicroBatcher`] per tenant. The server wraps it in an inference
/// thread; tests and the bench drive it directly with explicit clocks.
pub struct Dispatcher {
    registry: Registry,
    batchers: Vec<MicroBatcher<ForecastRequest>>,
    /// Totals since construction.
    pub stats: DispatchStats,
}

impl Dispatcher {
    /// Wraps `registry` with per-tenant batchers flushing at
    /// `max_batch` requests or after `hold_ns` nanoseconds.
    pub fn new(registry: Registry, max_batch: usize, hold_ns: u64) -> Self {
        let batchers =
            (0..registry.len()).map(|_| MicroBatcher::new(max_batch, hold_ns)).collect();
        Dispatcher { registry, batchers, stats: DispatchStats::default() }
    }

    /// The wrapped registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable registry access (tenant hot-swap between batches).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// Dissolves the dispatcher, handing the registry back (tenant slab
    /// caches intact). Held requests are dropped, which answers their
    /// waiters with `ShuttingDown` — call [`Dispatcher::drain`] first.
    pub fn into_registry(self) -> Registry {
        self.registry
    }

    /// Admits one request at `now_ns`, executing immediately if its
    /// tenant's batch filled.
    pub fn admit(&mut self, req: ForecastRequest, now_ns: u64) {
        let slot = req.tenant;
        if let Some(flush) = self.batchers[slot].push(req, now_ns) {
            self.execute(slot, flush);
        }
    }

    /// Earliest hold-deadline across tenants, for the dispatch loop's
    /// sleep budget.
    pub fn next_due(&self) -> Option<u64> {
        self.batchers.iter().filter_map(MicroBatcher::due_at).min()
    }

    /// Flushes every tenant whose hold deadline has passed.
    pub fn poll(&mut self, now_ns: u64) {
        for slot in 0..self.batchers.len() {
            if let Some(flush) = self.batchers[slot].poll(now_ns) {
                self.execute(slot, flush);
            }
        }
    }

    /// Unconditionally flushes everything held (graceful shutdown):
    /// in-flight batches run to completion before the server exits.
    pub fn drain(&mut self, now_ns: u64) {
        for slot in 0..self.batchers.len() {
            if let Some(flush) = self.batchers[slot].drain(now_ns) {
                self.execute(slot, flush);
            }
        }
    }

    /// Requests currently held by batchers (not yet executed).
    pub fn pending(&self) -> usize {
        self.batchers.iter().map(MicroBatcher::len).sum()
    }

    fn execute(&mut self, slot: usize, flush: Flush<ForecastRequest>) {
        for req in flush.expired {
            obs::tally_serve_expired();
            self.stats.expired += 1;
            req.responder.fulfil(Err(ServeError::DeadlineExceeded));
        }
        if flush.run.is_empty() {
            return;
        }
        obs::tally_serve_batch(flush.run.len() as u64);
        self.stats.batches += 1;
        self.stats.batched_requests += flush.run.len() as u64;
        let _span = obs::span("serve_batch");
        self.registry.tenant_mut(slot).run_batch(flush.run);
    }
}

// ---------------------------------------------------------------------------
// Queue-side admission
// ---------------------------------------------------------------------------

/// Pushes a request onto the admission queue, tallying the serve
/// counters exactly once per outcome: admitted (with the depth-after
/// high-water input) or shed. On failure the responder is consumed with
/// the matching error, so the caller keeps only the handle.
pub fn admit_to_queue(
    queue: &crate::queue::Bounded<ForecastRequest>,
    req: ForecastRequest,
) -> Result<usize, ServeError> {
    match queue.push(req) {
        Ok(depth) => {
            obs::tally_serve_admitted(depth as u64);
            Ok(depth)
        }
        Err(crate::queue::PushError::Full(req)) => {
            obs::tally_serve_shed();
            req.responder.fulfil(Err(ServeError::QueueFull));
            Err(ServeError::QueueFull)
        }
        Err(crate::queue::PushError::Closed(req)) => {
            req.responder.fulfil(Err(ServeError::ShuttingDown));
            Err(ServeError::ShuttingDown)
        }
    }
}
