//! Forecast engine: requests, tenants, and the micro-batch dispatcher.
//!
//! A [`ForecastRequest`] carries raw history values for one tenant; the
//! [`Dispatcher`] coalesces concurrent requests per tenant and runs each
//! batch as **one** batched no-grad forward via
//! [`Sagdfn::predict_batch_into`]. Because every kernel in the stack is
//! row-independent with a fixed accumulation order, column `b` of the
//! batched forward is bit-identical to a `B = 1` forward of request `b`
//! alone — `tests/serve_batching.rs` pins that equivalence across batch
//! caps and plan/SIMD modes.
//!
//! Each tenant keeps one [`Batch`] slab plus output buffer, sized to the
//! largest batch it has served and re-dimensioned in place for smaller
//! ones, so a warm tenant serves a batch of any size with **zero**
//! allocator acquires: the planned executor (itself one schedule for
//! every batch size) writes straight into the cached output tensor and
//! the only per-request allocation is the plain response `Vec` handed to
//! the client. The refill is [`Batch::encode_window`] over the tenant's
//! [`sagdfn_data::Clock`], the same input encoding training's
//! `make_batch` and the streaming engine use, so a served window is
//! encoded exactly as training encoded it.

use crate::queue::{Bounded, PushError};
use sagdfn_core::{HeadKind, Sagdfn};
use sagdfn_data::{Batch, Clock, ZScore};
use sagdfn_obs as obs;
use sagdfn_tensor::Tensor;
use std::panic::{self, AssertUnwindSafe};
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
    /// The forward panicked on this request's batch (500); its tenant is
    /// quarantined from then on.
    Internal,
    /// The tenant is quarantined after a failed forward (503).
    Quarantined(String),
}

impl ServeError {
    /// The HTTP status code this error answers with.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::QueueFull => 429,
            ServeError::DeadlineExceeded => 504,
            ServeError::ShuttingDown | ServeError::Quarantined(_) => 503,
            ServeError::UnknownModel(_) => 404,
            ServeError::BadRequest(_) => 400,
            ServeError::Internal => 500,
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
            ServeError::Internal => "the model's forward failed on this batch".into(),
            ServeError::Quarantined(name) => {
                format!("model {name:?} is quarantined after a failed forward")
            }
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

// ---------------------------------------------------------------------------
// Tenants and the registry
// ---------------------------------------------------------------------------

/// The tenant's cached buffers: the input slab refilled in place each
/// batch and the output tensor the planned executor writes into, both
/// built for `capacity` windows and re-dimensioned per batch.
struct Slab {
    capacity: usize,
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
    slab: Option<Slab>,
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
            slab: None,
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

    /// The slab re-dimensioned to `b` windows. A batch larger than any
    /// before replaces it with one sized to `b`, releasing the old one
    /// first. The `y` tensor stays zero: the no-teacher eval forward only
    /// reads its `f` dimension.
    fn slab(&mut self, b: usize) -> &mut Slab {
        // (f, B, N) for point heads, (f, B, N, C) otherwise.
        let out_dims = self.model.output_dims(self.f, b);
        if self.slab.as_ref().is_none_or(|s| s.capacity < b) {
            self.slab = None;
            self.slab = Some(Slab {
                capacity: b,
                batch: Batch::zeros(self.h, self.f, b, self.n),
                out: Tensor::zeros(out_dims.as_slice()),
            });
        }
        let slab = self.slab.as_mut().expect("sized above");
        slab.batch.redim(b);
        slab.out.redim(out_dims.as_slice());
        slab
    }

    /// Runs `reqs` as one batched forward and returns their forecasts in
    /// order. Requests must all belong to this tenant and be
    /// pre-validated.
    pub fn run_batch(&mut self, reqs: &[ForecastRequest]) -> Vec<Forecast> {
        let b = reqs.len();
        if b == 0 {
            return Vec::new();
        }
        let (f, n, scaler, clock) = (self.f, self.n, self.scaler, self.clock);
        let slab = self.slab(b);
        for (bi, req) in reqs.iter().enumerate() {
            let row = |t: usize| &req.history[t * n..(t + 1) * n];
            slab.batch.encode_window(bi, req.start, clock, scaler, row, false);
        }

        let slab = self.slab.as_mut().expect("filled above");
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
        (0..b)
            .map(|bi| {
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
                Forecast {
                    values,
                    quantiles,
                    levels: levels.clone(),
                    f,
                    n,
                }
            })
            .collect()
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
    /// Requests answered 500 because their batch's forward panicked.
    pub failed: u64,
    /// Requests answered 503 because their tenant was quarantined.
    pub quarantined: u64,
}

/// Single-threaded micro-batching core: owns the registry and each
/// tenant's pending batch. A batch executes when it reaches `max_batch`
/// requests (inside [`Dispatcher::admit`]) or when the caller ends a
/// pass with [`Dispatcher::flush`]; nothing waits on a timer. The server
/// wraps it in an inference thread; tests and the bench drive it
/// directly with explicit clocks.
///
/// A forward that panics answers its batch 500 and quarantines the
/// tenant (every later request to it answers 503), so one broken model
/// cannot take down the thread that serves every tenant.
pub struct Dispatcher {
    registry: Registry,
    max_batch: usize,
    pending: Vec<Vec<ForecastRequest>>,
    quarantined: Vec<bool>,
    /// Totals since construction.
    pub stats: DispatchStats,
}

impl Dispatcher {
    /// Wraps `registry`, executing a tenant's batch once it holds
    /// `max_batch` (≥ 1) requests.
    pub fn new(registry: Registry, max_batch: usize) -> Self {
        assert!(max_batch >= 1, "batch cap must be at least 1");
        let tenants = registry.len();
        Dispatcher {
            registry,
            max_batch,
            pending: (0..tenants).map(|_| Vec::new()).collect(),
            quarantined: vec![false; tenants],
            stats: DispatchStats::default(),
        }
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
    /// caches intact). Pending requests are dropped, which answers their
    /// waiters with `ShuttingDown` — call [`Dispatcher::flush`] first.
    pub fn into_registry(self) -> Registry {
        self.registry
    }

    /// Admits one request at `now_ns`, executing its tenant's batch if it
    /// filled. A quarantined tenant's request is answered 503 at once.
    pub fn admit(&mut self, req: ForecastRequest, now_ns: u64) {
        let slot = req.tenant;
        if self.quarantined[slot] {
            obs::tally_serve_quarantined();
            self.stats.quarantined += 1;
            let name = self.registry.tenant(slot).name().to_string();
            req.responder.fulfil(Err(ServeError::Quarantined(name)));
            return;
        }
        self.pending[slot].push(req);
        if self.pending[slot].len() >= self.max_batch {
            self.execute(slot, now_ns);
        }
    }

    /// One dispatch pass over the admission queue: block for a request,
    /// admit the requests queued behind it when the pass began (batches
    /// that fill run inside [`Dispatcher::admit`]), then flush every
    /// partial batch. An idle server so answers a lone request at once,
    /// and requests that queue during a forward coalesce into the next
    /// pass; capping the pass at the queue length it saw keeps one
    /// tenant's flood from starving another tenant's partial batch.
    /// Returns `false`, with nothing pending, once the queue is closed
    /// and drained.
    pub fn pass(&mut self, queue: &Bounded<ForecastRequest>, clock: &dyn crate::Clock) -> bool {
        let Some(first) = queue.pop() else {
            return false;
        };
        let queued = queue.len();
        self.admit(first, clock.now_ns());
        for req in std::iter::from_fn(|| queue.try_pop()).take(queued) {
            self.admit(req, clock.now_ns());
        }
        self.flush(clock.now_ns());
        true
    }

    /// Executes every pending partial batch: the end of a dispatch pass.
    pub fn flush(&mut self, now_ns: u64) {
        for slot in 0..self.pending.len() {
            if !self.pending[slot].is_empty() {
                self.execute(slot, now_ns);
            }
        }
    }

    /// Requests admitted but not yet executed.
    pub fn pending(&self) -> usize {
        self.pending.iter().map(Vec::len).sum()
    }

    /// Runs tenant `slot`'s pending batch. Requests whose deadline passed
    /// by `now_ns` are answered 504 first, so the forward never spends
    /// work on an answer nobody is waiting for.
    fn execute(&mut self, slot: usize, now_ns: u64) {
        let (expired, run): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending[slot])
            .into_iter()
            .partition(|r| r.deadline_ns.is_some_and(|d| d <= now_ns));
        for req in expired {
            obs::tally_serve_expired();
            self.stats.expired += 1;
            req.responder.fulfil(Err(ServeError::DeadlineExceeded));
        }
        if run.is_empty() {
            return;
        }
        let _span = obs::span("serve_batch");
        let tenant = self.registry.tenant_mut(slot);
        match panic::catch_unwind(AssertUnwindSafe(|| tenant.run_batch(&run))) {
            Ok(forecasts) => {
                obs::tally_serve_batch(run.len() as u64);
                self.stats.batches += 1;
                self.stats.batched_requests += run.len() as u64;
                for (req, fc) in run.into_iter().zip(forecasts) {
                    req.responder.fulfil(Ok(fc));
                }
            }
            Err(_) => {
                // The unwind may have left the tenant's model caches or
                // slab half-written; stop serving it rather than risk a
                // wrong answer.
                self.quarantined[slot] = true;
                for req in run {
                    obs::tally_serve_failed();
                    self.stats.failed += 1;
                    req.responder.fulfil(Err(ServeError::Internal));
                }
            }
        }
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
    queue: &Bounded<ForecastRequest>,
    req: ForecastRequest,
) -> Result<usize, ServeError> {
    match queue.push(req) {
        Ok(depth) => {
            obs::tally_serve_admitted(depth as u64);
            Ok(depth)
        }
        Err(PushError::Full(req)) => {
            obs::tally_serve_shed();
            req.responder.fulfil(Err(ServeError::QueueFull));
            Err(ServeError::QueueFull)
        }
        Err(PushError::Closed(req)) => {
            req.responder.fulfil(Err(ServeError::ShuttingDown));
            Err(ServeError::ShuttingDown)
        }
    }
}
