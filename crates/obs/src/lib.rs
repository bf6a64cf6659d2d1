//! Observability substrate: per-kernel counters, scoped span tracing, and
//! JSONL trace output. Std-only, zero dependencies — this crate sits
//! *below* `sagdfn-tensor` so every layer of the stack can report into
//! one process-global accounting surface.
//!
//! # Modes
//!
//! Controlled by `SAGDFN_TRACE` (read once, overridable at runtime with
//! [`set_trace_mode`]):
//!
//! * `off` (default) — every instrumentation hook is a single relaxed
//!   atomic load followed by an early return; no clocks, no allocation.
//! * `counters` — kernel entry points accumulate calls / elapsed ns /
//!   flops / bytes into static atomics. Budgeted at ≤ 3 % overhead on
//!   the train-step workload (`bench_trace` gates this).
//! * `full` — counters plus one in-memory span record per instrumented
//!   scope, drained to JSONL by [`write_trace`] / [`drain_spans`], and a
//!   per-training-step rollup record from [`step_rollup`].
//!
//! # Counter semantics
//!
//! Counters are *monotonic within a process* and are tallied **once at
//! the public API entry point**, never per worker-pool chunk, so every
//! count and flop/byte total is invariant under `SAGDFN_THREADS`.
//! Flops follow the usual 2·(multiply-add) convention for GEMM-shaped
//! kernels; bytes count f32 payloads only (4 bytes per element, index
//! arrays excluded). `tests/obs_counters_threads{1,8}.rs` pin the exact
//! formulas per kernel.
//!
//! # Non-perturbation contract
//!
//! Instrumentation must never change a float: hooks only read clocks and
//! bump atomics. `tests/trace_perturbation.rs` asserts end-to-end
//! bit-identical training across all three modes.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Trace mode
// ---------------------------------------------------------------------------

/// Global instrumentation level; see the crate docs for what each
/// level costs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceMode {
    /// No accounting at all (the default).
    Off,
    /// Per-kernel atomic counters only.
    Counters,
    /// Counters plus span records and step rollups.
    Full,
}

static MODE: OnceLock<AtomicU8> = OnceLock::new();

fn mode_cell() -> &'static AtomicU8 {
    MODE.get_or_init(|| {
        let m = match std::env::var("SAGDFN_TRACE").as_deref() {
            Ok("counters") | Ok("1") => 1,
            Ok("full") | Ok("2") => 2,
            _ => 0,
        };
        AtomicU8::new(m)
    })
}

/// Current trace mode (one relaxed atomic load).
#[inline]
pub fn trace_mode() -> TraceMode {
    match mode_cell().load(Ordering::Relaxed) {
        1 => TraceMode::Counters,
        2 => TraceMode::Full,
        _ => TraceMode::Off,
    }
}

/// Overrides the trace mode at runtime, returning the previous mode so
/// callers (tests, the profiler) can restore it.
pub fn set_trace_mode(mode: TraceMode) -> TraceMode {
    let prev = mode_cell().swap(mode as u8, Ordering::SeqCst);
    match prev {
        1 => TraceMode::Counters,
        2 => TraceMode::Full,
        _ => TraceMode::Off,
    }
}

/// True when any accounting is active. The `off` fast path of every
/// hook is exactly this load.
#[inline]
pub fn enabled() -> bool {
    mode_cell().load(Ordering::Relaxed) != 0
}

#[inline]
fn full() -> bool {
    mode_cell().load(Ordering::Relaxed) == 2
}

// ---------------------------------------------------------------------------
// Kernels and counters
// ---------------------------------------------------------------------------

/// Every instrumented kernel / scope. The discriminant indexes the
/// static counter table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Kernel {
    /// Dense batched GEMM `A·B`.
    Matmul = 0,
    /// Transpose-free `A·Bᵀ`.
    MatmulNt,
    /// Transpose-free `Aᵀ·B`.
    MatmulTn,
    /// `transpose_last2` materialization.
    Transpose,
    /// CSR forward product `A·X`.
    Spmm,
    /// CSR transpose product `Aᵀ·G`.
    SpmmT,
    /// Support-restricted adjacency gradient (sparse or dense twin).
    Dadj,
    /// Dense → CSR plan construction.
    CsrBuild,
    /// Full and axis reductions (sum / norms / reduce_axis).
    Reduce,
    /// Batched α-entmax forward rows.
    Entmax,
    /// Batched α-entmax Jacobian-vector products.
    EntmaxBackward,
    /// Autodiff tape node recorded (forward).
    Forward,
    /// Autodiff backward sweep.
    Backward,
    /// Tape arena reset.
    TapeReset,
    /// Optimizer parameter update.
    OptimStep,
    /// One trainer step (batch forward + backward + update).
    TrainStep,
    /// No-grad value stored (eval twin of `Forward`; no node recorded).
    EvalNode,
    /// One inference batch through the no-grad eval path.
    EvalStep,
}

/// Number of [`Kernel`] variants (table width).
pub const KERNEL_COUNT: usize = 18;

impl Kernel {
    /// All kernels in table order.
    pub const ALL: [Kernel; KERNEL_COUNT] = [
        Kernel::Matmul,
        Kernel::MatmulNt,
        Kernel::MatmulTn,
        Kernel::Transpose,
        Kernel::Spmm,
        Kernel::SpmmT,
        Kernel::Dadj,
        Kernel::CsrBuild,
        Kernel::Reduce,
        Kernel::Entmax,
        Kernel::EntmaxBackward,
        Kernel::Forward,
        Kernel::Backward,
        Kernel::TapeReset,
        Kernel::OptimStep,
        Kernel::TrainStep,
        Kernel::EvalNode,
        Kernel::EvalStep,
    ];

    /// Stable display / trace name.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Matmul => "matmul",
            Kernel::MatmulNt => "matmul_nt",
            Kernel::MatmulTn => "matmul_tn",
            Kernel::Transpose => "transpose",
            Kernel::Spmm => "spmm",
            Kernel::SpmmT => "spmm_t",
            Kernel::Dadj => "dadj",
            Kernel::CsrBuild => "csr_build",
            Kernel::Reduce => "reduce",
            Kernel::Entmax => "entmax",
            Kernel::EntmaxBackward => "entmax_backward",
            Kernel::Forward => "fwd_node",
            Kernel::Backward => "backward",
            Kernel::TapeReset => "tape_reset",
            Kernel::OptimStep => "optim_step",
            Kernel::TrainStep => "train_step",
            Kernel::EvalNode => "eval_node",
            Kernel::EvalStep => "eval_step",
        }
    }
}

struct KCell {
    calls: AtomicU64,
    ns: AtomicU64,
    flops: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const KCELL_ZERO: KCell = KCell {
    calls: AtomicU64::new(0),
    ns: AtomicU64::new(0),
    flops: AtomicU64::new(0),
    bytes_in: AtomicU64::new(0),
    bytes_out: AtomicU64::new(0),
};

static KERNELS: [KCell; KERNEL_COUNT] = [KCELL_ZERO; KERNEL_COUNT];

static POOL_REGIONS: AtomicU64 = AtomicU64::new(0);
static POOL_TASKS: AtomicU64 = AtomicU64::new(0);
static ALLOC_ACQUIRES: AtomicU64 = AtomicU64::new(0);
static ALLOC_ACQUIRE_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_RELEASES: AtomicU64 = AtomicU64::new(0);
static ALLOC_RELEASE_BYTES: AtomicU64 = AtomicU64::new(0);
static DISPATCH_SPARSE: AtomicU64 = AtomicU64::new(0);
static DISPATCH_DENSE: AtomicU64 = AtomicU64::new(0);
static SHARDED_OPS: AtomicU64 = AtomicU64::new(0);
static SHARD_SLABS: AtomicU64 = AtomicU64::new(0);
static PLAN_BUILDS: AtomicU64 = AtomicU64::new(0);
static PLAN_HITS: AtomicU64 = AtomicU64::new(0);
static PLAN_COMPILES: AtomicU64 = AtomicU64::new(0);
static PLAN_EXECS: AtomicU64 = AtomicU64::new(0);
static PLAN_OPS: AtomicU64 = AtomicU64::new(0);
static PLAN_REBINDS: AtomicU64 = AtomicU64::new(0);
static HEAD_FORWARDS: [AtomicU64; HEAD_KIND_COUNT] =
    [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
static STREAM_TICKS: AtomicU64 = AtomicU64::new(0);
static STREAM_FT_STEPS: AtomicU64 = AtomicU64::new(0);
static STREAM_ANOMALIES: AtomicU64 = AtomicU64::new(0);
static SIMD_TIERS: [AtomicU64; SIMD_TIER_COUNT] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];
static SERVE_ADMITTED: AtomicU64 = AtomicU64::new(0);
static SERVE_SHED: AtomicU64 = AtomicU64::new(0);
static SERVE_EXPIRED: AtomicU64 = AtomicU64::new(0);
static SERVE_FAILED: AtomicU64 = AtomicU64::new(0);
static SERVE_QUARANTINED: AtomicU64 = AtomicU64::new(0);
static SERVE_BATCHES: AtomicU64 = AtomicU64::new(0);
static SERVE_BATCHED_REQUESTS: AtomicU64 = AtomicU64::new(0);
static SERVE_QUEUE_HW: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_U64: AtomicU64 = AtomicU64::new(0);
static SERVE_BATCH_HIST: [AtomicU64; SERVE_HIST_BUCKETS] = [ZERO_U64; SERVE_HIST_BUCKETS];

/// Number of SIMD dispatch tiers tracked by [`tally_simd`].
pub const SIMD_TIER_COUNT: usize = 4;

/// Number of forecast-head kinds tracked by [`tally_head`]
/// (`sagdfn_core::HeadKind as usize`: 0 point, 1 quantile, 2 sampled).
pub const HEAD_KIND_COUNT: usize = 3;

/// Display names for the forecast-head kinds, indexed like
/// [`tally_head`]'s argument.
pub const HEAD_KIND_NAMES: [&str; HEAD_KIND_COUNT] = ["point", "quantile", "sampled"];

/// Number of batch-occupancy histogram buckets tracked by
/// [`tally_serve_batch`]: power-of-two ranges 1, 2–3, 4–7, … , ≥128.
pub const SERVE_HIST_BUCKETS: usize = 8;

/// Display labels for the batch-occupancy buckets, indexed like
/// [`serve_hist_bucket`]'s return value.
pub const SERVE_HIST_LABELS: [&str; SERVE_HIST_BUCKETS] =
    ["1", "2-3", "4-7", "8-15", "16-31", "32-63", "64-127", "128+"];

/// Maps a micro-batch occupancy to its histogram bucket: `floor(log2)`
/// clamped to the table width, so bucket 0 is occupancy 1, bucket 1 is
/// 2–3, and bucket 7 absorbs everything from 128 up.
#[inline]
pub fn serve_hist_bucket(occupancy: u64) -> usize {
    (63 - occupancy.max(1).leading_zeros() as usize).min(SERVE_HIST_BUCKETS - 1)
}

/// Display names for the SIMD tiers, indexed like [`tally_simd`]'s
/// argument (`sagdfn_tensor::SimdTier::index()`).
pub const SIMD_TIER_NAMES: [&str; SIMD_TIER_COUNT] = ["scalar", "neon", "avx2", "avx512"];

#[inline]
fn add(cell: &AtomicU64, v: u64) {
    cell.fetch_add(v, Ordering::Relaxed);
}

/// Counts one call of `k` with the given work totals, without timing it.
/// Used for hooks too cheap to justify two clock reads (tape pushes).
#[inline]
pub fn tally(k: Kernel, flops: u64, bytes_in: u64, bytes_out: u64) {
    if !enabled() {
        return;
    }
    let c = &KERNELS[k as usize];
    add(&c.calls, 1);
    add(&c.flops, flops);
    add(&c.bytes_in, bytes_in);
    add(&c.bytes_out, bytes_out);
}

/// Counts one parallel region fanned out to `n_tasks` worker tasks.
#[inline]
pub fn tally_pool_region(n_tasks: u64) {
    if !enabled() {
        return;
    }
    add(&POOL_REGIONS, 1);
    add(&POOL_TASKS, n_tasks);
}

/// Counts one allocator acquire of `bytes` (pool hit or heap miss alike;
/// the churn split lives in `sagdfn_tensor::alloc`'s own counters).
#[inline]
pub fn tally_alloc_acquire(bytes: u64) {
    if !enabled() {
        return;
    }
    add(&ALLOC_ACQUIRES, 1);
    add(&ALLOC_ACQUIRE_BYTES, bytes);
}

/// Counts one allocator release of `bytes`.
#[inline]
pub fn tally_alloc_release(bytes: u64) {
    if !enabled() {
        return;
    }
    add(&ALLOC_RELEASES, 1);
    add(&ALLOC_RELEASE_BYTES, bytes);
}

/// Records one sparse-vs-dense dispatch decision.
#[inline]
pub fn tally_dispatch(sparse: bool) {
    if !enabled() {
        return;
    }
    add(if sparse { &DISPATCH_SPARSE } else { &DISPATCH_DENSE }, 1);
}

/// Records one node-sharded kernel execution over `shards` row shards
/// (DESIGN.md §14). Unsharded runs (`shards <= 1`) tally nothing, so
/// these counters are exact "how much sharding happened" meters: a
/// shards = 1 workload reports zeros.
#[inline]
pub fn tally_shards(shards: u64) {
    if shards <= 1 || !enabled() {
        return;
    }
    add(&SHARDED_OPS, 1);
    add(&SHARD_SLABS, shards);
}

/// Records one frozen-plan cache lookup: `hit = true` when a cached
/// eval-mode adjacency plan was reused, `false` when it had to be built.
#[inline]
pub fn tally_plan(hit: bool) {
    if !enabled() {
        return;
    }
    add(if hit { &PLAN_HITS } else { &PLAN_BUILDS }, 1);
}

/// Records one plan-executor compile (a record-once walk of the eval
/// forward that emitted a linearized kernel schedule).
#[inline]
pub fn tally_plan_compile() {
    if !enabled() {
        return;
    }
    add(&PLAN_COMPILES, 1);
}

/// Records one planned forward: a full run of a compiled schedule of
/// `ops` kernel invocations.
#[inline]
pub fn tally_plan_exec(ops: u64) {
    if !enabled() {
        return;
    }
    add(&PLAN_EXECS, 1);
    add(&PLAN_OPS, ops);
}

/// Records one in-place scaler rebind of a compiled plan: the frozen
/// adjacency and dims still matched but the normalization statistics
/// drifted (streaming updates), so only the seed/store affine
/// coefficients were refreshed — no recompile, no allocation.
#[inline]
pub fn tally_plan_rebind() {
    if !enabled() {
        return;
    }
    add(&PLAN_REBINDS, 1);
}

/// Records one decoder-step forward through a forecast head. `kind` is
/// `sagdfn_core::HeadKind as usize` (0 point, 1 quantile, 2 sampled);
/// out-of-range values clamp to the last slot.
#[inline]
pub fn tally_head(kind: usize) {
    if !enabled() {
        return;
    }
    add(&HEAD_FORWARDS[kind.min(HEAD_KIND_COUNT - 1)], 1);
}

/// Counts one streaming tick (observation ingested + forecast issued)
/// carrying `anomalies` interval-violation flags.
#[inline]
pub fn tally_stream_tick(anomalies: u64) {
    if !enabled() {
        return;
    }
    add(&STREAM_TICKS, 1);
    add(&STREAM_ANOMALIES, anomalies);
}

/// Counts one continual fine-tune burst of `steps` recycled train steps
/// triggered by the streaming engine.
#[inline]
pub fn tally_stream_fine_tune(steps: u64) {
    if !enabled() {
        return;
    }
    add(&STREAM_FT_STEPS, steps);
}

/// Records one hot-kernel dispatch through the SIMD layer. `tier` is the
/// variant that ran (`SimdTier::index()`: 0 scalar, 1 neon, 2 avx2,
/// 3 avx512); out-of-range values clamp to the last slot.
#[inline]
pub fn tally_simd(tier: usize) {
    if !enabled() {
        return;
    }
    add(&SIMD_TIERS[tier.min(SIMD_TIER_COUNT - 1)], 1);
}

/// Counts one forecast request admitted to the serving queue.
/// `depth_after` is the queue depth right after the push; the lifetime
/// maximum is kept as the queue-depth high-water mark.
#[inline]
pub fn tally_serve_admitted(depth_after: u64) {
    if !enabled() {
        return;
    }
    add(&SERVE_ADMITTED, 1);
    SERVE_QUEUE_HW.fetch_max(depth_after, Ordering::Relaxed);
}

/// Counts one forecast request shed with 429 because the admission
/// queue was full.
#[inline]
pub fn tally_serve_shed() {
    if !enabled() {
        return;
    }
    add(&SERVE_SHED, 1);
}

/// Counts one forecast request whose deadline expired before its
/// micro-batch ran (it was answered 504 instead of forwarded).
#[inline]
pub fn tally_serve_expired() {
    if !enabled() {
        return;
    }
    add(&SERVE_EXPIRED, 1);
}

/// Counts one forecast request answered 500 because its micro-batch's
/// forward panicked.
#[inline]
pub fn tally_serve_failed() {
    if !enabled() {
        return;
    }
    add(&SERVE_FAILED, 1);
}

/// Counts one forecast request answered 503 because its tenant was
/// quarantined after a failed forward.
#[inline]
pub fn tally_serve_quarantined() {
    if !enabled() {
        return;
    }
    add(&SERVE_QUARANTINED, 1);
}

/// Counts one executed micro-batch of `occupancy` coalesced requests,
/// bucketing the occupancy into the serve histogram.
#[inline]
pub fn tally_serve_batch(occupancy: u64) {
    if !enabled() {
        return;
    }
    add(&SERVE_BATCHES, 1);
    add(&SERVE_BATCHED_REQUESTS, occupancy);
    add(&SERVE_BATCH_HIST[serve_hist_bucket(occupancy)], 1);
}

/// Timed scope over a kernel: counts the call and its work totals up
/// front, accumulates elapsed ns on drop, and in `full` mode emits a
/// span record. `None` (a no-op to bind) when tracing is off.
pub struct KernelGuard {
    k: Kernel,
    t0: Instant,
    span: Option<Span>,
}

/// Opens a [`KernelGuard`] over kernel `k`. Bind the result for the
/// duration of the kernel body: `let _g = obs::kernel(...);`.
#[inline]
pub fn kernel(k: Kernel, flops: u64, bytes_in: u64, bytes_out: u64) -> Option<KernelGuard> {
    if !enabled() {
        return None;
    }
    let c = &KERNELS[k as usize];
    add(&c.calls, 1);
    add(&c.flops, flops);
    add(&c.bytes_in, bytes_in);
    add(&c.bytes_out, bytes_out);
    let span = if full() { open_span(k.name(), 0) } else { None };
    Some(KernelGuard { k, t0: Instant::now(), span })
}

impl KernelGuard {
    /// Adds flops discovered after the guard opened (e.g. an optimizer
    /// only knows how many scalars it updated once it has walked the
    /// parameter registry).
    pub fn add_flops(&self, flops: u64) {
        add(&KERNELS[self.k as usize].flops, flops);
    }
}

impl Drop for KernelGuard {
    fn drop(&mut self) {
        let ns = self.t0.elapsed().as_nanos() as u64;
        add(&KERNELS[self.k as usize].ns, ns);
        // `self.span` closes after this, stamping its own (slightly
        // wider) duration.
        let _ = &self.span;
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Totals for one kernel at snapshot time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Calls counted (at API entry, thread-count invariant).
    pub calls: u64,
    /// Elapsed wall nanoseconds summed over calls (0 for `tally`-only hooks).
    pub ns: u64,
    /// Floating-point operations, 2·multiply-add convention.
    pub flops: u64,
    /// Input f32 payload bytes (4 per element, indices excluded).
    pub bytes_in: u64,
    /// Output f32 payload bytes.
    pub bytes_out: u64,
}

/// Point-in-time copy of every counter; subtract two with
/// [`Snapshot::since`] to meter a region.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Per-kernel totals, indexed by `Kernel as usize`.
    pub kernels: [KernelStats; KERNEL_COUNT],
    /// Parallel regions dispatched to the worker pool.
    pub pool_regions: u64,
    /// Worker tasks fanned out across those regions.
    pub pool_tasks: u64,
    /// Allocator acquires (count).
    pub alloc_acquires: u64,
    /// Allocator acquires (bytes).
    pub alloc_acquire_bytes: u64,
    /// Allocator releases (count).
    pub alloc_releases: u64,
    /// Allocator releases (bytes).
    pub alloc_release_bytes: u64,
    /// Density dispatches that chose the CSR kernels.
    pub dispatch_sparse: u64,
    /// Density dispatches that chose the dense GEMMs.
    pub dispatch_dense: u64,
    /// Kernel executions that ran node-sharded (shard count > 1).
    pub sharded_ops: u64,
    /// Total row shards processed across those executions.
    pub shard_slabs: u64,
    /// Frozen-plan cache misses (plan built from the embeddings).
    pub plan_builds: u64,
    /// Frozen-plan cache hits (cached plan reused across batches).
    pub plan_hits: u64,
    /// Plan-executor schedule compiles (record-once walks).
    pub plan_compiles: u64,
    /// Planned forwards executed through a compiled schedule.
    pub plan_execs: u64,
    /// Scheduled kernel ops run across all planned forwards.
    pub plan_ops: u64,
    /// In-place scaler rebinds of compiled plans (streaming drift).
    pub plan_rebinds: u64,
    /// Decoder-step head forwards per kind (see [`HEAD_KIND_NAMES`]).
    pub head_forwards: [u64; HEAD_KIND_COUNT],
    /// Streaming ticks processed (observation + forecast each).
    pub stream_ticks: u64,
    /// Continual fine-tune steps run by the streaming engine.
    pub stream_ft_steps: u64,
    /// Anomaly flags raised (realized value outside predicted interval).
    pub stream_anomalies: u64,
    /// Hot-kernel dispatches per SIMD tier (see [`SIMD_TIER_NAMES`]).
    pub simd_tiers: [u64; SIMD_TIER_COUNT],
    /// Forecast requests admitted to the serving queue.
    pub serve_admitted: u64,
    /// Forecast requests shed (429) because the queue was full.
    pub serve_shed: u64,
    /// Forecast requests answered 504 before their batch ran.
    pub serve_expired: u64,
    /// Forecast requests answered 500 because their forward panicked.
    pub serve_failed: u64,
    /// Forecast requests answered 503 by a quarantined tenant.
    pub serve_quarantined: u64,
    /// Executed serving micro-batches.
    pub serve_batches: u64,
    /// Requests coalesced across those micro-batches.
    pub serve_batched_requests: u64,
    /// Queue-depth high-water mark (lifetime maximum, not a counter:
    /// [`Snapshot::since`] keeps the newer snapshot's value).
    pub serve_queue_hw: u64,
    /// Micro-batch occupancy histogram (see [`SERVE_HIST_LABELS`]).
    pub serve_batch_hist: [u64; SERVE_HIST_BUCKETS],
}

/// Copies every counter. Counters are only ever added to, so a snapshot
/// taken around a quiescent region is exact.
pub fn snapshot() -> Snapshot {
    let mut s = Snapshot::default();
    for k in Kernel::ALL {
        let c = &KERNELS[k as usize];
        s.kernels[k as usize] = KernelStats {
            calls: c.calls.load(Ordering::Relaxed),
            ns: c.ns.load(Ordering::Relaxed),
            flops: c.flops.load(Ordering::Relaxed),
            bytes_in: c.bytes_in.load(Ordering::Relaxed),
            bytes_out: c.bytes_out.load(Ordering::Relaxed),
        };
    }
    s.pool_regions = POOL_REGIONS.load(Ordering::Relaxed);
    s.pool_tasks = POOL_TASKS.load(Ordering::Relaxed);
    s.alloc_acquires = ALLOC_ACQUIRES.load(Ordering::Relaxed);
    s.alloc_acquire_bytes = ALLOC_ACQUIRE_BYTES.load(Ordering::Relaxed);
    s.alloc_releases = ALLOC_RELEASES.load(Ordering::Relaxed);
    s.alloc_release_bytes = ALLOC_RELEASE_BYTES.load(Ordering::Relaxed);
    s.dispatch_sparse = DISPATCH_SPARSE.load(Ordering::Relaxed);
    s.dispatch_dense = DISPATCH_DENSE.load(Ordering::Relaxed);
    s.sharded_ops = SHARDED_OPS.load(Ordering::Relaxed);
    s.shard_slabs = SHARD_SLABS.load(Ordering::Relaxed);
    s.plan_builds = PLAN_BUILDS.load(Ordering::Relaxed);
    s.plan_hits = PLAN_HITS.load(Ordering::Relaxed);
    s.plan_compiles = PLAN_COMPILES.load(Ordering::Relaxed);
    s.plan_execs = PLAN_EXECS.load(Ordering::Relaxed);
    s.plan_ops = PLAN_OPS.load(Ordering::Relaxed);
    s.plan_rebinds = PLAN_REBINDS.load(Ordering::Relaxed);
    for (i, c) in HEAD_FORWARDS.iter().enumerate() {
        s.head_forwards[i] = c.load(Ordering::Relaxed);
    }
    s.stream_ticks = STREAM_TICKS.load(Ordering::Relaxed);
    s.stream_ft_steps = STREAM_FT_STEPS.load(Ordering::Relaxed);
    s.stream_anomalies = STREAM_ANOMALIES.load(Ordering::Relaxed);
    for (i, c) in SIMD_TIERS.iter().enumerate() {
        s.simd_tiers[i] = c.load(Ordering::Relaxed);
    }
    s.serve_admitted = SERVE_ADMITTED.load(Ordering::Relaxed);
    s.serve_shed = SERVE_SHED.load(Ordering::Relaxed);
    s.serve_expired = SERVE_EXPIRED.load(Ordering::Relaxed);
    s.serve_failed = SERVE_FAILED.load(Ordering::Relaxed);
    s.serve_quarantined = SERVE_QUARANTINED.load(Ordering::Relaxed);
    s.serve_batches = SERVE_BATCHES.load(Ordering::Relaxed);
    s.serve_batched_requests = SERVE_BATCHED_REQUESTS.load(Ordering::Relaxed);
    s.serve_queue_hw = SERVE_QUEUE_HW.load(Ordering::Relaxed);
    for (i, c) in SERVE_BATCH_HIST.iter().enumerate() {
        s.serve_batch_hist[i] = c.load(Ordering::Relaxed);
    }
    s
}

impl Snapshot {
    /// Totals for one kernel.
    pub fn stats(&self, k: Kernel) -> &KernelStats {
        &self.kernels[k as usize]
    }

    /// Delta `self − base` (saturating; counters are monotonic so the
    /// result is exact when `base` was taken earlier).
    pub fn since(&self, base: &Snapshot) -> Snapshot {
        let mut d = self.clone();
        for i in 0..KERNEL_COUNT {
            let (a, b) = (&self.kernels[i], &base.kernels[i]);
            d.kernels[i] = KernelStats {
                calls: a.calls.saturating_sub(b.calls),
                ns: a.ns.saturating_sub(b.ns),
                flops: a.flops.saturating_sub(b.flops),
                bytes_in: a.bytes_in.saturating_sub(b.bytes_in),
                bytes_out: a.bytes_out.saturating_sub(b.bytes_out),
            };
        }
        d.pool_regions = self.pool_regions.saturating_sub(base.pool_regions);
        d.pool_tasks = self.pool_tasks.saturating_sub(base.pool_tasks);
        d.alloc_acquires = self.alloc_acquires.saturating_sub(base.alloc_acquires);
        d.alloc_acquire_bytes = self.alloc_acquire_bytes.saturating_sub(base.alloc_acquire_bytes);
        d.alloc_releases = self.alloc_releases.saturating_sub(base.alloc_releases);
        d.alloc_release_bytes = self.alloc_release_bytes.saturating_sub(base.alloc_release_bytes);
        d.dispatch_sparse = self.dispatch_sparse.saturating_sub(base.dispatch_sparse);
        d.dispatch_dense = self.dispatch_dense.saturating_sub(base.dispatch_dense);
        d.sharded_ops = self.sharded_ops.saturating_sub(base.sharded_ops);
        d.shard_slabs = self.shard_slabs.saturating_sub(base.shard_slabs);
        d.plan_builds = self.plan_builds.saturating_sub(base.plan_builds);
        d.plan_hits = self.plan_hits.saturating_sub(base.plan_hits);
        d.plan_compiles = self.plan_compiles.saturating_sub(base.plan_compiles);
        d.plan_execs = self.plan_execs.saturating_sub(base.plan_execs);
        d.plan_ops = self.plan_ops.saturating_sub(base.plan_ops);
        d.plan_rebinds = self.plan_rebinds.saturating_sub(base.plan_rebinds);
        for i in 0..HEAD_KIND_COUNT {
            d.head_forwards[i] = self.head_forwards[i].saturating_sub(base.head_forwards[i]);
        }
        d.stream_ticks = self.stream_ticks.saturating_sub(base.stream_ticks);
        d.stream_ft_steps = self.stream_ft_steps.saturating_sub(base.stream_ft_steps);
        d.stream_anomalies = self.stream_anomalies.saturating_sub(base.stream_anomalies);
        for i in 0..SIMD_TIER_COUNT {
            d.simd_tiers[i] = self.simd_tiers[i].saturating_sub(base.simd_tiers[i]);
        }
        d.serve_admitted = self.serve_admitted.saturating_sub(base.serve_admitted);
        d.serve_shed = self.serve_shed.saturating_sub(base.serve_shed);
        d.serve_expired = self.serve_expired.saturating_sub(base.serve_expired);
        d.serve_failed = self.serve_failed.saturating_sub(base.serve_failed);
        d.serve_quarantined = self.serve_quarantined.saturating_sub(base.serve_quarantined);
        d.serve_batches = self.serve_batches.saturating_sub(base.serve_batches);
        d.serve_batched_requests =
            self.serve_batched_requests.saturating_sub(base.serve_batched_requests);
        // The high-water mark is a lifetime maximum, not a monotonic
        // counter — a delta has no meaning, so the newer value carries.
        d.serve_queue_hw = self.serve_queue_hw;
        for i in 0..SERVE_HIST_BUCKETS {
            d.serve_batch_hist[i] =
                self.serve_batch_hist[i].saturating_sub(base.serve_batch_hist[i]);
        }
        d
    }
}

/// Zeroes every counter (tests and the profiler; racing kernels on
/// other threads may leave partial tallies — meter quiescent regions).
pub fn reset_counters() {
    for k in Kernel::ALL {
        let c = &KERNELS[k as usize];
        c.calls.store(0, Ordering::Relaxed);
        c.ns.store(0, Ordering::Relaxed);
        c.flops.store(0, Ordering::Relaxed);
        c.bytes_in.store(0, Ordering::Relaxed);
        c.bytes_out.store(0, Ordering::Relaxed);
    }
    for g in [
        &POOL_REGIONS,
        &POOL_TASKS,
        &ALLOC_ACQUIRES,
        &ALLOC_ACQUIRE_BYTES,
        &ALLOC_RELEASES,
        &ALLOC_RELEASE_BYTES,
        &DISPATCH_SPARSE,
        &DISPATCH_DENSE,
        &SHARDED_OPS,
        &SHARD_SLABS,
        &PLAN_BUILDS,
        &PLAN_HITS,
        &PLAN_COMPILES,
        &PLAN_EXECS,
        &PLAN_OPS,
        &PLAN_REBINDS,
        &STREAM_TICKS,
        &STREAM_FT_STEPS,
        &STREAM_ANOMALIES,
        &SERVE_ADMITTED,
        &SERVE_SHED,
        &SERVE_EXPIRED,
        &SERVE_FAILED,
        &SERVE_QUARANTINED,
        &SERVE_BATCHES,
        &SERVE_BATCHED_REQUESTS,
        &SERVE_QUEUE_HW,
    ] {
        g.store(0, Ordering::Relaxed);
    }
    for c in &SIMD_TIERS {
        c.store(0, Ordering::Relaxed);
    }
    for c in &HEAD_FORWARDS {
        c.store(0, Ordering::Relaxed);
    }
    for c in &SERVE_BATCH_HIST {
        c.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Spans (full mode only)
// ---------------------------------------------------------------------------

/// Span records kept in memory before a record is dropped instead of
/// pushed; 4M records ≈ a few hundred MB, far past any sane trace.
const MAX_RECORDS: usize = 4_000_000;

enum TraceRec {
    Span { name: &'static str, id: u64, tid: u64, depth: u32, ts_ns: u64, dur_ns: u64 },
    /// Pre-serialized rollup JSONL line.
    Rollup(String),
}

static RECORDS: Mutex<Vec<TraceRec>> = Mutex::new(Vec::new());
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static TID: Cell<u64> = const { Cell::new(u64::MAX) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn thread_id() -> u64 {
    TID.with(|t| {
        let mut id = t.get();
        if id == u64::MAX {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

/// An open trace span; closing (dropping) it appends one record to the
/// in-memory buffer. Spans on one thread are strictly nested because
/// they are scope guards: `depth` is the per-thread open-span count.
pub struct Span {
    name: &'static str,
    id: u64,
    tid: u64,
    depth: u32,
    ts_ns: u64,
    t0: Instant,
}

fn open_span(name: &'static str, _reserved: u32) -> Option<Span> {
    let tid = thread_id();
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    // One clock read for both the start stamp and the duration origin:
    // `ts_ns + dur_ns` then equals the drop time relative to the epoch,
    // so span ends are ordered exactly like their drops (nesting holds
    // at ns resolution instead of up to the skew between two reads).
    // The epoch must be pinned before `t0` is read: the process's first
    // span otherwise initialises it after its own start, `duration_since`
    // saturates to 0, and that span's apparent end drifts past its true
    // drop time by the init latency — a spurious nesting violation.
    let e = epoch();
    let t0 = Instant::now();
    let ts_ns = t0.duration_since(e).as_nanos() as u64;
    Some(Span {
        name,
        id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        tid,
        depth,
        ts_ns,
        t0,
    })
}

/// Opens a named span when the mode is `full`; `None` otherwise. Bind
/// the result: `let _s = obs::span("epoch");`.
#[inline]
pub fn span(name: &'static str) -> Option<Span> {
    if !full() {
        return None;
    }
    open_span(name, 0)
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_ns = self.t0.elapsed().as_nanos() as u64;
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        push_record(TraceRec::Span {
            name: self.name,
            id: self.id,
            tid: self.tid,
            depth: self.depth,
            ts_ns: self.ts_ns,
            dur_ns,
        });
    }
}

fn push_record(rec: TraceRec) {
    let mut buf = RECORDS.lock().unwrap_or_else(|e| e.into_inner());
    if buf.len() >= MAX_RECORDS {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    buf.push(rec);
}

/// Span records dropped because the in-memory buffer was full.
pub fn dropped_records() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

fn escape(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn rec_to_jsonl(rec: &TraceRec) -> String {
    match rec {
        TraceRec::Span { name, id, tid, depth, ts_ns, dur_ns } => {
            let mut n = String::new();
            escape(name, &mut n);
            format!(
                "{{\"kind\":\"span\",\"name\":\"{n}\",\"id\":{id},\"tid\":{tid},\
                 \"depth\":{depth},\"ts_ns\":{ts_ns},\"dur_ns\":{dur_ns}}}"
            )
        }
        TraceRec::Rollup(line) => line.clone(),
    }
}

/// Takes every buffered record, serialized as one JSONL line each
/// (span and rollup records interleaved in completion order).
pub fn drain_spans() -> Vec<String> {
    let drained: Vec<TraceRec> = {
        let mut buf = RECORDS.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *buf)
    };
    drained.iter().map(rec_to_jsonl).collect()
}

/// Drains every buffered record to `path` as JSONL; returns the record
/// count written.
pub fn write_trace(path: &str) -> std::io::Result<usize> {
    let lines = drain_spans();
    let mut body = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for l in &lines {
        body.push_str(l);
        body.push('\n');
    }
    std::fs::write(path, body)?;
    Ok(lines.len())
}

// ---------------------------------------------------------------------------
// Step rollups
// ---------------------------------------------------------------------------

static LAST_STEP_SNAP: Mutex<Option<Snapshot>> = Mutex::new(None);

/// Emits a per-training-step rollup record (full mode only): the delta
/// of every kernel counter since the previous rollup, as one JSONL
/// `{"kind":"rollup",...}` line in the trace buffer.
pub fn step_rollup(step: u64) {
    if !full() {
        return;
    }
    let now = snapshot();
    let mut last = LAST_STEP_SNAP.lock().unwrap_or_else(|e| e.into_inner());
    let delta = match last.as_ref() {
        Some(base) => now.since(base),
        None => now.clone(),
    };
    *last = Some(now);
    drop(last);

    let mut kernels = String::new();
    for k in Kernel::ALL {
        let s = delta.stats(k);
        if s.calls == 0 {
            continue;
        }
        if !kernels.is_empty() {
            kernels.push(',');
        }
        kernels.push_str(&format!(
            "{{\"kernel\":\"{}\",\"calls\":{},\"ns\":{},\"flops\":{},\
             \"bytes_in\":{},\"bytes_out\":{}}}",
            k.name(),
            s.calls,
            s.ns,
            s.flops,
            s.bytes_in,
            s.bytes_out
        ));
    }
    let line = format!(
        "{{\"kind\":\"rollup\",\"step\":{step},\"pool_regions\":{},\"pool_tasks\":{},\
         \"alloc_acquire_bytes\":{},\"alloc_release_bytes\":{},\
         \"dispatch_sparse\":{},\"dispatch_dense\":{},\
         \"plan_builds\":{},\"plan_hits\":{},\
         \"simd\":[{},{},{},{}],\"kernels\":[{kernels}]}}",
        delta.pool_regions,
        delta.pool_tasks,
        delta.alloc_acquire_bytes,
        delta.alloc_release_bytes,
        delta.dispatch_sparse,
        delta.dispatch_dense,
        delta.plan_builds,
        delta.plan_hits,
        delta.simd_tiers[0],
        delta.simd_tiers[1],
        delta.simd_tiers[2],
        delta.simd_tiers[3],
    );
    push_record(TraceRec::Rollup(line));
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

/// Renders `snap` as a per-kernel table sorted by elapsed time
/// (descending), one row per kernel with nonzero calls, followed by the
/// pool / allocator / dispatch tallies.
pub fn format_table(snap: &Snapshot) -> String {
    let mut rows: Vec<Kernel> = Kernel::ALL
        .into_iter()
        .filter(|&k| snap.stats(k).calls > 0)
        .collect();
    rows.sort_by_key(|&k| std::cmp::Reverse(snap.stats(k).ns));

    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>10} {:>12} {:>14} {:>12} {:>12}\n",
        "kernel", "calls", "ms", "mflops", "MB in", "MB out"
    ));
    for k in rows {
        let s = snap.stats(k);
        out.push_str(&format!(
            "{:<16} {:>10} {:>12.3} {:>14.1} {:>12.2} {:>12.2}\n",
            k.name(),
            s.calls,
            s.ns as f64 / 1e6,
            s.flops as f64 / 1e6,
            s.bytes_in as f64 / 1e6,
            s.bytes_out as f64 / 1e6,
        ));
    }
    out.push_str(&format!(
        "pool: {} regions / {} tasks; alloc: {} acquires ({:.2} MB), {} releases ({:.2} MB); \
         dispatch: {} sparse / {} dense; plan cache: {} builds / {} hits\n",
        snap.pool_regions,
        snap.pool_tasks,
        snap.alloc_acquires,
        snap.alloc_acquire_bytes as f64 / 1e6,
        snap.alloc_releases,
        snap.alloc_release_bytes as f64 / 1e6,
        snap.dispatch_sparse,
        snap.dispatch_dense,
        snap.plan_builds,
        snap.plan_hits,
    ));
    if snap.sharded_ops > 0 {
        out.push_str(&format!(
            "node sharding: {} sharded kernel runs over {} row shards\n",
            snap.sharded_ops, snap.shard_slabs,
        ));
    }
    if snap.plan_compiles > 0 || snap.plan_execs > 0 {
        out.push_str(&format!(
            "plan executor: {} compiles / {} runs ({} scheduled ops, {} scaler rebinds)\n",
            snap.plan_compiles, snap.plan_execs, snap.plan_ops, snap.plan_rebinds,
        ));
    }
    let head_total: u64 = snap.head_forwards.iter().sum();
    if head_total > 0 {
        let parts: Vec<String> = snap
            .head_forwards
            .iter()
            .zip(HEAD_KIND_NAMES)
            .filter(|(&c, _)| c > 0)
            .map(|(&c, name)| format!("{c} {name}"))
            .collect();
        out.push_str(&format!("head forwards: {}\n", parts.join(" / ")));
    }
    if snap.stream_ticks > 0 {
        out.push_str(&format!(
            "stream: {} ticks / {} fine-tune steps / {} anomalies\n",
            snap.stream_ticks, snap.stream_ft_steps, snap.stream_anomalies,
        ));
    }
    if snap.serve_admitted + snap.serve_shed + snap.serve_expired + snap.serve_batches > 0 {
        let faults = if snap.serve_failed + snap.serve_quarantined > 0 {
            format!(
                " / {} failed / {} quarantined",
                snap.serve_failed, snap.serve_quarantined
            )
        } else {
            String::new()
        };
        let hist: Vec<String> = snap
            .serve_batch_hist
            .iter()
            .zip(SERVE_HIST_LABELS)
            .filter(|(&c, _)| c > 0)
            .map(|(&c, label)| format!("{label}:{c}"))
            .collect();
        out.push_str(&format!(
            "serve: {} admitted / {} shed / {} expired{faults}; {} batches ({} requests, \
             queue high-water {}); occupancy {}\n",
            snap.serve_admitted,
            snap.serve_shed,
            snap.serve_expired,
            snap.serve_batches,
            snap.serve_batched_requests,
            snap.serve_queue_hw,
            if hist.is_empty() { "-".to_string() } else { hist.join(" ") },
        ));
    }
    let simd_total: u64 = snap.simd_tiers.iter().sum();
    if simd_total > 0 {
        let parts: Vec<String> = snap
            .simd_tiers
            .iter()
            .zip(SIMD_TIER_NAMES)
            .filter(|(&c, _)| c > 0)
            .map(|(&c, name)| format!("{c} {name}"))
            .collect();
        out.push_str(&format!("simd kernels: {}\n", parts.join(" / ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test fn: counters and mode are process-global, so the unit
    // checks run sequentially inside a single #[test].
    #[test]
    fn obs_unit_suite() {
        // Default mode is Off (no SAGDFN_TRACE in the test env).
        assert_eq!(trace_mode(), TraceMode::Off);
        assert!(kernel(Kernel::Matmul, 1, 1, 1).is_none());
        assert!(span("noop").is_none());
        tally(Kernel::Reduce, 10, 4, 4);
        assert_eq!(snapshot().stats(Kernel::Reduce).calls, 0);

        // Counters mode tallies calls / flops / bytes and elapsed ns.
        let prev = set_trace_mode(TraceMode::Counters);
        assert_eq!(prev, TraceMode::Off);
        let base = snapshot();
        {
            let _g = kernel(Kernel::Matmul, 2000, 800, 400);
            std::hint::black_box(());
        }
        tally(Kernel::Forward, 0, 0, 0);
        tally_pool_region(8);
        tally_alloc_acquire(1024);
        tally_alloc_release(1024);
        tally_dispatch(true);
        tally_dispatch(false);
        tally_shards(1); // no-op: unsharded runs tally nothing
        tally_shards(4);
        tally_plan(false);
        tally_plan(true);
        tally_plan_compile();
        tally_plan_exec(42);
        tally_plan_rebind();
        tally_head(0);
        tally_head(1);
        tally_head(1);
        tally_head(99); // clamps to the last slot
        tally_stream_tick(0);
        tally_stream_tick(2);
        tally_stream_fine_tune(4);
        tally_simd(0);
        tally_simd(3);
        tally_simd(99); // clamps to the last slot
        tally_serve_admitted(2);
        tally_serve_admitted(5);
        tally_serve_admitted(1);
        tally_serve_shed();
        tally_serve_expired();
        tally_serve_failed();
        tally_serve_failed();
        tally_serve_quarantined();
        tally_serve_batch(1);
        tally_serve_batch(3);
        tally_serve_batch(200); // clamps into the 128+ bucket
        let d = snapshot().since(&base);
        assert_eq!(d.stats(Kernel::Matmul).calls, 1);
        assert_eq!(d.stats(Kernel::Matmul).flops, 2000);
        assert_eq!(d.stats(Kernel::Matmul).bytes_in, 800);
        assert_eq!(d.stats(Kernel::Matmul).bytes_out, 400);
        assert_eq!(d.stats(Kernel::Forward).calls, 1);
        assert_eq!((d.pool_regions, d.pool_tasks), (1, 8));
        assert_eq!((d.alloc_acquires, d.alloc_acquire_bytes), (1, 1024));
        assert_eq!((d.dispatch_sparse, d.dispatch_dense), (1, 1));
        assert_eq!((d.sharded_ops, d.shard_slabs), (1, 4));
        assert_eq!((d.plan_builds, d.plan_hits), (1, 1));
        assert_eq!((d.plan_compiles, d.plan_execs, d.plan_ops), (1, 1, 42));
        assert_eq!(d.plan_rebinds, 1);
        assert_eq!(d.head_forwards, [1, 2, 1]);
        assert_eq!((d.stream_ticks, d.stream_ft_steps, d.stream_anomalies), (2, 4, 2));
        assert_eq!(d.simd_tiers, [1, 0, 0, 2]);
        assert_eq!((d.serve_admitted, d.serve_shed, d.serve_expired), (3, 1, 1));
        assert_eq!((d.serve_failed, d.serve_quarantined), (2, 1));
        assert_eq!((d.serve_batches, d.serve_batched_requests), (3, 204));
        assert_eq!(d.serve_queue_hw, 5, "high-water keeps the lifetime max");
        assert_eq!(d.serve_batch_hist, [1, 1, 0, 0, 0, 0, 0, 1]);
        assert_eq!(serve_hist_bucket(1), 0);
        assert_eq!(serve_hist_bucket(2), 1);
        assert_eq!(serve_hist_bucket(7), 2);
        assert_eq!(serve_hist_bucket(32), 5);
        assert_eq!(serve_hist_bucket(1 << 20), SERVE_HIST_BUCKETS - 1);
        // Spans stay off in counters mode.
        assert!(span("counters_no_span").is_none());

        // Full mode: nested spans serialize with correct depths.
        set_trace_mode(TraceMode::Full);
        drain_spans(); // discard anything buffered
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        step_rollup(1);
        let lines = drain_spans();
        assert_eq!(lines.len(), 3);
        // Drop order: inner closes first.
        assert!(lines[0].contains("\"name\":\"inner\"") && lines[0].contains("\"depth\":1"));
        assert!(lines[1].contains("\"name\":\"outer\"") && lines[1].contains("\"depth\":0"));
        assert!(lines[2].contains("\"kind\":\"rollup\"") && lines[2].contains("\"step\":1"));

        // format_table orders by time and includes tallies.
        let table = format_table(&snapshot());
        assert!(table.contains("matmul"));
        assert!(table.contains("dispatch:"));
        assert!(table.contains("serve: 3 admitted / 1 shed"));
        assert!(table.contains("128+:1"));

        reset_counters();
        assert_eq!(snapshot().stats(Kernel::Matmul).calls, 0);
        set_trace_mode(TraceMode::Off);
    }
}
