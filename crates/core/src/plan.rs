//! The fused plan executor: the frozen eval forward compiled once into a
//! linearized kernel schedule.
//!
//! [`FrozenPlan`](crate::gconv::FrozenPlan) caches the eval-mode
//! adjacency artifacts across batches. This module extends that idea to
//! the whole GRU encoder-decoder forward: a record-once walk of the eval
//! graph emits a flat [`Op`] schedule in which
//!
//! * every intermediate lives in a pre-resolved buffer slot — a
//!   lifetime-based linear scan maps the SSA-style virtual results onto
//!   a small arena of recycled buffers, so a steady-state planned
//!   forward performs **zero** allocator acquires;
//! * the GRU gate chains (`σ(r_pre) ⊙ h` and
//!   `σ(z_pre) ⊙ h + (1 − σ(z_pre)) ⊙ tanh(h̃_pre)`) and the diffusion
//!   epilogue (`(A·X_I + X) ⊙ (D+I)^{-1}`) run as single fused SIMD
//!   passes ([`sagdfn_tensor::simd`]), bit-identical to the unfused op
//!   sequences they replace;
//! * the schedule does not depend on the batch size: it is compiled for
//!   a capacity, and any batch of `b ≤ capacity` windows runs on
//!   prefixes of the same slots with `b · N` rows chosen at run time, so
//!   one executor (and one arena) serves every batch size a caller sends;
//! * the sparse vs dense diffusion product is pinned at compile time
//!   from the frozen plan; pooled vs serial kernels are chosen per run
//!   from the actual row count (bit-neutral by the pool's determinism
//!   contract).
//!
//! One scheduling improvement over the interpreter falls out of the
//! compile step for free: the reset and update gates convolve the *same*
//! concatenation `[X_t ‖ H_{t−1}]`, so the builder emits its diffusion
//! chain once and feeds both gates. The interpreter diffuses it twice;
//! the shared chain is bit-identical because every kernel involved is
//! deterministic on identical inputs.
//!
//! The interpreted eval path remains the semantic oracle: a planned
//! forward must be bit-identical to [`Sagdfn::forward`] in eval mode
//! (`tests/plan_executor.rs`), and the executor is stale exactly when the
//! frozen adjacency is (`tick`, `maybe_resample`, `refresh_index`): it
//! holds the `Rc<FrozenPlan>` it was compiled from and the model compares
//! pointers before every run.
//!
//! `SAGDFN_PLAN` (`auto`/`on`/`off`, default `auto` ≡ on) gates the
//! planned path, mirroring `SAGDFN_SPARSE`; [`set_plan_mode`] flips it
//! in-process for A/B benches and the determinism matrix.
//!
//! [`Sagdfn::forward`]: crate::model::Sagdfn::forward

use crate::cell::OneStepFastGConv;
use crate::gconv::FrozenPlan;
use crate::head::{ChannelAffine, ForecastHead};
use crate::model::INPUT_CHANNELS;
use sagdfn_data::Batch;
use sagdfn_data::ZScore;
use sagdfn_nn::{Linear, ParamId, Params};
use sagdfn_obs as obs;
use sagdfn_tensor::{alloc, matmul, simd, sparse};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Decoder covariate channels (time-of-day, day-of-week).
const COV_CHANNELS: usize = INPUT_CHANNELS - 1;

// ---------------------------------------------------------------------
// SAGDFN_PLAN dispatch policy
// ---------------------------------------------------------------------

/// Whether eval forwards run through the compiled plan executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanMode {
    /// Use the planned path whenever the forward is eligible (default).
    Auto,
    /// Same as `Auto`; named for symmetry with `SAGDFN_SPARSE=on`.
    On,
    /// Always run the interpreted eval path.
    Off,
}

fn mode_flag() -> &'static AtomicU8 {
    static FLAG: OnceLock<AtomicU8> = OnceLock::new();
    FLAG.get_or_init(|| {
        let mode = match std::env::var("SAGDFN_PLAN").as_deref() {
            Ok("on") | Ok("1") => PlanMode::On,
            Ok("off") | Ok("0") => PlanMode::Off,
            _ => PlanMode::Auto,
        };
        AtomicU8::new(mode as u8)
    })
}

fn mode_from_u8(v: u8) -> PlanMode {
    match v {
        1 => PlanMode::On,
        2 => PlanMode::Off,
        _ => PlanMode::Auto,
    }
}

/// The current plan-dispatch mode (`SAGDFN_PLAN`, default `auto`).
pub fn plan_mode() -> PlanMode {
    mode_from_u8(mode_flag().load(Ordering::Relaxed))
}

/// Sets the dispatch mode programmatically (benches and tests run
/// in-process A/B comparisons), returning the previous mode.
pub fn set_plan_mode(mode: PlanMode) -> PlanMode {
    mode_from_u8(mode_flag().swap(mode as u8, Ordering::SeqCst))
}

/// Whether the planned path may run at all under the current mode.
pub(crate) fn plan_enabled() -> bool {
    plan_mode() != PlanMode::Off
}

// ---------------------------------------------------------------------
// Schedule IR
// ---------------------------------------------------------------------

/// Problem dimensions a schedule is specialized for. The batch size is
/// not one of them: a schedule runs any batch up to the capacity it was
/// compiled for (see [`PlanExecutor::run_into`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PlanDims {
    /// Node count `N`.
    pub n: usize,
    /// Adjacency columns `M` (`== n` for a dense adjacency).
    pub m: usize,
    /// History length `h`.
    pub h_len: usize,
    /// Horizon `f`.
    pub f_len: usize,
    /// GRU width `D`.
    pub hidden: usize,
}

/// A non-slot operand of a concat: step `t` of an input tensor, read
/// directly from the batch's contiguous axis-0 slice (no staging copy).
#[derive(Clone, Copy, Debug)]
enum Src {
    /// A buffer slot (virtual id during building, physical after).
    Slot(usize),
    /// History input step `t`: `(B, N, INPUT_CHANNELS)` rows of `batch.x`.
    X(usize),
    /// Future covariate step `t`: `(B, N, COV_CHANNELS)` rows of
    /// `batch.future_cov`.
    Cov(usize),
}

/// One scheduled kernel. Slot fields are virtual ids while building and
/// physical arena indices in the finished schedule.
#[derive(Clone, Debug)]
enum Op {
    /// `dst = 0` (initial hidden state).
    Zero { dst: usize },
    /// `dst = (x_last_raw − mean) / std` — the decoder seed.
    Seed { dst: usize },
    /// Row-wise `dst = [a ‖ b]` over `B·N` rows.
    Concat2 {
        a: Src,
        ca: usize,
        b: Src,
        cb: usize,
        dst: usize,
    },
    /// `dst[B·N × n_out] = src[B·N × k] · W[k × n_out]`.
    Gemm {
        src: usize,
        w: ParamId,
        dst: usize,
        k: usize,
        n_out: usize,
    },
    /// `dst[r][j] += bias[j]` in place.
    BiasAdd { dst: usize, bias: ParamId },
    /// `dst += src` in place (gconv depth accumulation).
    AddAssign { dst: usize, src: usize },
    /// Slim gather `dst[b][i] = src[b][index[i]]` rows of width `c`.
    Gather { src: usize, dst: usize, c: usize },
    /// CSR diffusion product `dst[b] = A · src[b]`, `(B, M, c) → (B, N, c)`.
    Spmm { src: usize, dst: usize, c: usize },
    /// Dense diffusion product: per-batch `A[N×M] · src[b][M×c]`.
    DenseMm { src: usize, dst: usize, c: usize },
    /// Fused `dst = (ax + x) ⊙ deg_inv` (diffusion normalizer).
    Epilogue {
        ax: usize,
        x: usize,
        dst: usize,
        c: usize,
    },
    /// Fused `dst = σ(pre) ⊙ h` (reset gate application).
    SigmoidMul { pre: usize, h: usize, dst: usize },
    /// Fused `dst = σ(z) ⊙ h + (1 − σ(z)) ⊙ tanh(hc)` (GRU output).
    GruCombine {
        z: usize,
        hc: usize,
        h: usize,
        dst: usize,
    },
    /// In-place cumulative-relu monotone reconstruction over rows of `c`
    /// quantile channels: `d[0]` stays, `d[i] = d[i−1] + relu(d[i])`.
    MonotoneQ { dst: usize, c: usize },
    /// `dst[r] = src[r·c + ch]` — extract the decoder feedback channel
    /// from a `c`-channel head output.
    SelectCh {
        src: usize,
        dst: usize,
        c: usize,
        ch: usize,
    },
    /// `out[t] = src · scale + offset` per channel — un-normalized
    /// prediction store of `c` channels per row.
    Store { src: usize, t: usize, c: usize },
}

impl Op {
    /// The slot this op defines (first write of a fresh value), if any.
    /// In-place mutations (`BiasAdd`, `AddAssign`) and `Store` define
    /// nothing.
    fn def_slot(&self) -> Option<usize> {
        match *self {
            Op::Zero { dst }
            | Op::Seed { dst }
            | Op::Concat2 { dst, .. }
            | Op::Gemm { dst, .. }
            | Op::Gather { dst, .. }
            | Op::Spmm { dst, .. }
            | Op::DenseMm { dst, .. }
            | Op::Epilogue { dst, .. }
            | Op::SigmoidMul { dst, .. }
            | Op::GruCombine { dst, .. }
            | Op::SelectCh { dst, .. } => Some(dst),
            Op::BiasAdd { .. }
            | Op::AddAssign { .. }
            | Op::MonotoneQ { .. }
            | Op::Store { .. } => None,
        }
    }

    /// Calls `f` for every slot the op touches (reads, in-place targets
    /// and the defined destination).
    fn for_each_slot(&self, mut f: impl FnMut(usize)) {
        let mut src = |s: &Src| {
            if let Src::Slot(i) = *s {
                f(i);
            }
        };
        match self {
            Op::Zero { dst } | Op::Seed { dst } => f(*dst),
            Op::Concat2 { a, b, dst, .. } => {
                src(a);
                src(b);
                f(*dst);
            }
            Op::Gemm { src: s, dst, .. }
            | Op::AddAssign { dst, src: s }
            | Op::Gather { src: s, dst, .. }
            | Op::Spmm { src: s, dst, .. }
            | Op::DenseMm { src: s, dst, .. }
            | Op::SelectCh { src: s, dst, .. } => {
                f(*s);
                f(*dst);
            }
            Op::BiasAdd { dst, .. } | Op::MonotoneQ { dst, .. } => f(*dst),
            Op::Epilogue { ax, x, dst, .. } => {
                f(*ax);
                f(*x);
                f(*dst);
            }
            Op::SigmoidMul { pre, h, dst } => {
                f(*pre);
                f(*h);
                f(*dst);
            }
            Op::GruCombine { z, hc, h, dst } => {
                f(*z);
                f(*hc);
                f(*h);
                f(*dst);
            }
            Op::Store { src: s, .. } => f(*s),
        }
    }

    /// Rewrites every slot id through `map` (virtual → physical).
    fn remap(&mut self, map: &[usize]) {
        let remap_src = |s: &mut Src| {
            if let Src::Slot(i) = s {
                *i = map[*i];
            }
        };
        match self {
            Op::Zero { dst }
            | Op::Seed { dst }
            | Op::BiasAdd { dst, .. }
            | Op::MonotoneQ { dst, .. } => *dst = map[*dst],
            Op::Concat2 { a, b, dst, .. } => {
                remap_src(a);
                remap_src(b);
                *dst = map[*dst];
            }
            Op::Gemm { src, dst, .. }
            | Op::AddAssign { dst, src }
            | Op::Gather { src, dst, .. }
            | Op::Spmm { src, dst, .. }
            | Op::DenseMm { src, dst, .. }
            | Op::SelectCh { src, dst, .. } => {
                *src = map[*src];
                *dst = map[*dst];
            }
            Op::Epilogue { ax, x, dst, .. } => {
                *ax = map[*ax];
                *x = map[*x];
                *dst = map[*dst];
            }
            Op::SigmoidMul { pre, h, dst } => {
                *pre = map[*pre];
                *h = map[*h];
                *dst = map[*dst];
            }
            Op::GruCombine { z, hc, h, dst } => {
                *z = map[*z];
                *hc = map[*hc];
                *h = map[*h];
                *dst = map[*dst];
            }
            Op::Store { src, .. } => *src = map[*src],
        }
    }

    /// Short kind label for the schedule table.
    fn kind(&self) -> &'static str {
        match self {
            Op::Zero { .. } => "zero",
            Op::Seed { .. } => "seed",
            Op::Concat2 { .. } => "concat2",
            Op::Gemm { .. } => "gemm",
            Op::BiasAdd { .. } => "bias_add",
            Op::AddAssign { .. } => "add_assign",
            Op::Gather { .. } => "gather",
            Op::Spmm { .. } => "spmm",
            Op::DenseMm { .. } => "dense_mm",
            Op::Epilogue { .. } => "diffuse_epi",
            Op::SigmoidMul { .. } => "sigmoid_mul",
            Op::GruCombine { .. } => "gru_combine",
            Op::MonotoneQ { .. } => "monotone_q",
            Op::SelectCh { .. } => "select_ch",
            Op::Store { .. } => "store",
        }
    }
}

// ---------------------------------------------------------------------
// Builder: record-once walk of the eval forward
// ---------------------------------------------------------------------

struct Builder<'f> {
    ops: Vec<Op>,
    /// Virtual slot id → element count per batch window.
    sizes: Vec<usize>,
    dims: PlanDims,
    frozen: &'f FrozenPlan,
}

impl<'f> Builder<'f> {
    fn new(dims: PlanDims, frozen: &'f FrozenPlan) -> Self {
        Builder {
            ops: Vec::new(),
            sizes: Vec::new(),
            dims,
            frozen,
        }
    }

    fn fresh(&mut self, numel: usize) -> usize {
        self.sizes.push(numel);
        self.sizes.len() - 1
    }

    fn concat2(&mut self, a: Src, ca: usize, b: Src, cb: usize) -> usize {
        let dst = self.fresh(self.dims.n * (ca + cb));
        self.ops.push(Op::Concat2 { a, ca, b, cb, dst });
        dst
    }

    /// One normalized diffusion step on slot `x` of width `c`, with the
    /// sparse/dense choice pinned from the frozen plan.
    fn diffuse(&mut self, x: usize, c: usize) -> usize {
        let d = self.dims;
        let gathered = if self.frozen.index().is_some() {
            let g = self.fresh(d.m * c);
            self.ops.push(Op::Gather { src: x, dst: g, c });
            g
        } else {
            x
        };
        let ax = self.fresh(d.n * c);
        // Only the full-sparse plan runs the eval product on the CSR;
        // the hybrid's CSR serves the training-time adjacency gradient
        // and its forward product stays on the (faster) dense GEMM.
        let (src, dst) = (gathered, ax);
        self.ops.push(if self.frozen.products_sparse() {
            Op::Spmm { src, dst, c }
        } else {
            Op::DenseMm { src, dst, c }
        });
        let out = self.fresh(d.n * c);
        self.ops.push(Op::Epilogue {
            ax,
            x,
            dst: out,
            c,
        });
        out
    }

    /// The learnable accumulation of Eq. 9 over a pre-built diffusion
    /// chain: `Σ_j W_j · chain[j]` (+ bias on `j = 0`).
    fn gconv_acc(&mut self, steps: &[Linear], chain: &[usize], k: usize) -> usize {
        let rows = self.dims.n;
        let n_out = steps[0].out_dim();
        let acc = self.fresh(rows * n_out);
        self.ops.push(Op::Gemm {
            src: chain[0],
            w: steps[0].weight(),
            dst: acc,
            k,
            n_out,
        });
        if let Some(bias) = steps[0].bias() {
            self.ops.push(Op::BiasAdd { dst: acc, bias });
        }
        for (step, &x) in steps.iter().zip(chain).skip(1) {
            let tmp = self.fresh(rows * n_out);
            self.ops.push(Op::Gemm {
                src: x,
                w: step.weight(),
                dst: tmp,
                k,
                n_out,
            });
            if let Some(bias) = step.bias() {
                self.ops.push(Op::BiasAdd { dst: tmp, bias });
            }
            self.ops.push(Op::AddAssign { dst: acc, src: tmp });
        }
        acc
    }

    /// One GRU cell step: input `x` (external or slot) of width `cx`,
    /// hidden slot `h`; returns the new hidden slot. The `[x ‖ h]`
    /// diffusion chain is shared by the reset and update gates.
    fn cell_step(&mut self, cell: &OneStepFastGConv, x: Src, cx: usize, h: usize) -> usize {
        let rows = self.dims.n;
        let hidden = cell.hidden();
        let cat = cx + hidden;
        let xh = self.concat2(x, cx, Src::Slot(h), hidden);
        let depth_rz = cell.gconv_r().depth().max(cell.gconv_z().depth());
        let mut chain = vec![xh];
        for _ in 1..depth_rz {
            let last = *chain.last().expect("non-empty chain");
            chain.push(self.diffuse(last, cat));
        }
        let r_pre = self.gconv_acc(cell.gconv_r().steps(), &chain, cat);
        let z_pre = self.gconv_acc(cell.gconv_z().steps(), &chain, cat);
        let rh = self.fresh(rows * hidden);
        self.ops.push(Op::SigmoidMul {
            pre: r_pre,
            h,
            dst: rh,
        });
        let xrh = self.concat2(x, cx, Src::Slot(rh), hidden);
        let mut chain_h = vec![xrh];
        for _ in 1..cell.gconv_h().depth() {
            let last = *chain_h.last().expect("non-empty chain");
            chain_h.push(self.diffuse(last, cat));
        }
        let h_pre = self.gconv_acc(cell.gconv_h().steps(), &chain_h, cat);
        let h_new = self.fresh(rows * hidden);
        self.ops.push(Op::GruCombine {
            z: z_pre,
            hc: h_pre,
            h,
            dst: h_new,
        });
        h_new
    }
}

/// Resolves a concat operand to its backing rows: a buffer slot, or a
/// contiguous axis-0 step of the batch inputs read in place.
fn resolve_src<'s>(
    s: &Src,
    c: usize,
    slots: &'s [Vec<f32>],
    x_ext: &'s [f32],
    cov_ext: &'s [f32],
    rows: usize,
) -> &'s [f32] {
    match *s {
        Src::Slot(i) => &slots[i],
        Src::X(t) => {
            assert_eq!(c, INPUT_CHANNELS);
            &x_ext[t * rows * INPUT_CHANNELS..][..rows * c]
        }
        Src::Cov(t) => {
            assert_eq!(c, COV_CHANNELS);
            &cov_ext[t * rows * COV_CHANNELS..][..rows * c]
        }
    }
}

/// Maps the builder's virtual results onto a minimal physical arena via a
/// lifetime-based linear scan. A destination is always allocated *before*
/// the op's source slots are freed, so no op ever aliases its output with
/// an input. Returns the remapped ops and the physical slot sizes.
fn assign_slots(mut ops: Vec<Op>, sizes: &[usize]) -> (Vec<Op>, Vec<usize>) {
    let mut last_use = vec![0usize; sizes.len()];
    for (i, op) in ops.iter().enumerate() {
        op.for_each_slot(|v| last_use[v] = i);
    }
    let mut phys_of = vec![usize::MAX; sizes.len()];
    let mut phys_sizes: Vec<usize> = Vec::new();
    let mut free: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut touched: Vec<usize> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if let Some(v) = op.def_slot() {
            phys_of[v] = match free.get_mut(&sizes[v]).and_then(Vec::pop) {
                Some(p) => p,
                None => {
                    phys_sizes.push(sizes[v]);
                    phys_sizes.len() - 1
                }
            };
        }
        touched.clear();
        op.for_each_slot(|v| touched.push(v));
        touched.sort_unstable();
        touched.dedup();
        for &v in &touched {
            if last_use[v] == i {
                free.entry(sizes[v]).or_default().push(phys_of[v]);
            }
        }
    }
    for op in &mut ops {
        op.remap(&phys_of);
    }
    (ops, phys_sizes)
}

// ---------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------

/// A compiled eval forward: flat schedule, buffer arena sized for
/// `capacity` batch windows, and the `FrozenPlan` the kernel choices were
/// pinned from.
pub(crate) struct PlanExecutor {
    frozen: Rc<FrozenPlan>,
    dims: PlanDims,
    /// Largest batch the arena holds; any `b ≤ capacity` runs on slot
    /// prefixes.
    capacity: usize,
    /// `(mean, std)` bit patterns the seed/store coefficients bake in.
    scaler_bits: (u32, u32),
    scaler: ZScore,
    /// Head output channels `C` (`out` rows are `B·N·C` per step).
    channels: usize,
    /// Per-channel un-normalization kinds (the head's declarative
    /// contract; coefficients below derive from these + the scaler).
    affine: Vec<ChannelAffine>,
    /// Per-channel `(scale, offset)` of the Store epilogue.
    coeffs: Vec<(f32, f32)>,
    ops: Vec<Op>,
    /// Physical buffer arena, acquired once at compile time with room
    /// for `capacity` windows; each run re-lengthens every slot to
    /// `units[i] · b` within that room.
    slots: Vec<Vec<f32>>,
    /// Per-window element count of each physical slot.
    units: Vec<usize>,
    /// Number of virtual results the arena was compacted from.
    virtuals: usize,
    /// Cumulative per-op nanoseconds (tracked only while obs tracing is
    /// enabled) and completed runs.
    op_ns: Vec<u64>,
    execs: u64,
}

/// Compiles the GRU eval forward into a [`PlanExecutor`]. The caller
/// guarantees `frozen` matches the current parameters (it came from
/// [`Sagdfn::frozen_plan`](crate::model::Sagdfn::frozen_plan)). The
/// head's epilogue — projection width, monotone reconstruction,
/// feedback channel, per-channel un-normalization — is compiled from
/// its declarative [`ForecastHead`] contract. Slot sizes are recorded per
/// batch window, so the linear scan pairs the same slots whatever the
/// batch size; the arena is then sized for `capacity` windows.
pub(crate) fn compile(
    encoders: &[OneStepFastGConv],
    decoders: &[OneStepFastGConv],
    head: &dyn ForecastHead,
    frozen: &Rc<FrozenPlan>,
    dims: PlanDims,
    capacity: usize,
    scaler: ZScore,
) -> PlanExecutor {
    let _sp = obs::span("plan_build");
    let rows = dims.n;
    let mut b = Builder::new(dims, frozen);

    // Encoder over the history window; layer 0 reads batch.x directly.
    let mut enc_h: Vec<usize> = encoders
        .iter()
        .map(|cell| {
            let h0 = b.fresh(rows * cell.hidden());
            b.ops.push(Op::Zero { dst: h0 });
            h0
        })
        .collect();
    for t in 0..dims.h_len {
        let mut x = (Src::X(t), INPUT_CHANNELS);
        for (layer, cell) in encoders.iter().enumerate() {
            enc_h[layer] = b.cell_step(cell, x.0, x.1, enc_h[layer]);
            x = (Src::Slot(enc_h[layer]), cell.hidden());
        }
    }

    // Decoder: seeded with the scaled forecast-origin observation, then
    // feeds back its own predictions.
    let mut dec_h = enc_h;
    let mut value = b.fresh(rows);
    b.ops.push(Op::Seed { dst: value });
    for t in 0..dims.f_len {
        let x0 = b.concat2(Src::Slot(value), 1, Src::Cov(t), COV_CHANNELS);
        let mut x = (Src::Slot(x0), INPUT_CHANNELS);
        for (layer, cell) in decoders.iter().enumerate() {
            dec_h[layer] = b.cell_step(cell, x.0, x.1, dec_h[layer]);
            x = (Src::Slot(dec_h[layer]), cell.hidden());
        }
        let (Src::Slot(top), k) = x else {
            unreachable!("decoder has at least one layer")
        };
        let c = head.channels();
        let linear = head.linear();
        let pred = b.fresh(rows * c);
        b.ops.push(Op::Gemm {
            src: top,
            w: linear.weight(),
            dst: pred,
            k,
            n_out: c,
        });
        if let Some(bias) = linear.bias() {
            b.ops.push(Op::BiasAdd { dst: pred, bias });
        }
        if head.monotone() && c > 1 {
            b.ops.push(Op::MonotoneQ { dst: pred, c });
        }
        b.ops.push(Op::Store { src: pred, t, c });
        value = if c == 1 {
            pred
        } else {
            let fb = b.fresh(rows);
            b.ops.push(Op::SelectCh {
                src: pred,
                dst: fb,
                c,
                ch: head.feedback_channel(),
            });
            fb
        };
    }

    let virtuals = b.sizes.len();
    let (ops, units) = assign_slots(b.ops, &b.sizes);
    let slots = units.iter().map(|&u| alloc::acquire_zeroed(u * capacity)).collect();
    obs::tally_plan_compile();
    let op_count = ops.len();
    let affine = head.affine();
    let coeffs = affine.iter().map(|a| a.coefficients(scaler)).collect();
    PlanExecutor {
        frozen: Rc::clone(frozen),
        dims,
        capacity,
        scaler_bits: (scaler.mean.to_bits(), scaler.std.to_bits()),
        scaler,
        channels: head.channels(),
        affine,
        coeffs,
        ops,
        slots,
        units,
        virtuals,
        op_ns: vec![0; op_count],
        execs: 0,
    }
}

impl PlanExecutor {
    /// Whether this schedule can run a batch of `b` windows under the
    /// given frozen plan and dimensions. Pointer equality on the
    /// `FrozenPlan` is the staleness signal: the model drops it on
    /// `tick`/resample/refresh, so a surviving `Rc` proves the parameters
    /// haven't changed. The scaler is not part of the match: drifted
    /// normalization statistics (streaming updates) only need
    /// [`PlanExecutor::rebind_scaler`].
    pub(crate) fn fits(&self, frozen: &Rc<FrozenPlan>, dims: PlanDims, b: usize) -> bool {
        Rc::ptr_eq(&self.frozen, frozen) && self.dims == dims && b <= self.capacity
    }

    /// Whether the seed/store coefficients were baked from `scaler`.
    pub(crate) fn matches_scaler(&self, scaler: ZScore) -> bool {
        self.scaler_bits == (scaler.mean.to_bits(), scaler.std.to_bits())
    }

    /// Rebinds the scaler the seed/store epilogues bake in, without
    /// recompiling or allocating: the op schedule and buffer arena only
    /// depend on shapes and frozen weights, so drifted normalization
    /// statistics need just the affine coefficients refreshed.
    pub(crate) fn rebind_scaler(&mut self, scaler: ZScore) {
        self.scaler = scaler;
        self.scaler_bits = (scaler.mean.to_bits(), scaler.std.to_bits());
        for (coeff, a) in self.coeffs.iter_mut().zip(&self.affine) {
            *coeff = a.coefficients(scaler);
        }
        obs::tally_plan_rebind();
    }

    /// Runs the compiled schedule on a batch of `b ≤ capacity` windows.
    /// `out` receives the raw-unit predictions, laid out `(f, B, N)`; it
    /// must be pre-sized. After the compile-time warmup this performs
    /// zero allocator acquires, whatever `b` is.
    pub(crate) fn run_into(&mut self, params: &Params, batch: &Batch, out: &mut [f32]) {
        let _sp = obs::span("plan_exec");
        let d = self.dims;
        let b = batch.x.dim(1);
        assert!(
            (1..=self.capacity).contains(&b),
            "batch of {b} windows outside the plan's capacity {}",
            self.capacity
        );
        let rows = b * d.n;
        // Every slot runs on a prefix of its capacity-sized buffer;
        // re-lengthening within the capacity never allocates.
        for (slot, &unit) in self.slots.iter_mut().zip(&self.units) {
            slot.resize(unit * b, 0.0);
        }
        assert_eq!(
            out.len(),
            d.f_len * rows * self.channels,
            "plan output buffer mismatch"
        );
        let x_ext = batch.x.as_slice();
        let cov_ext = batch.future_cov.as_slice();
        assert_eq!(x_ext.len(), d.h_len * rows * INPUT_CHANNELS);
        assert_eq!(cov_ext.len(), d.f_len * rows * COV_CHANNELS);
        let seed_ext = batch.x_last_raw.as_slice();
        let index = self.frozen.index();
        let deg = self.frozen.deg_inv().as_slice();
        let weights = self.frozen.weights();
        let timing = obs::trace_mode() != obs::TraceMode::Off;
        let slots = &mut self.slots;
        for (op, ns) in self.ops.iter().zip(&mut self.op_ns) {
            let t0 = timing.then(Instant::now);
            match *op {
                Op::Zero { dst } => slots[dst].fill(0.0),
                Op::Seed { dst } => {
                    let mut dbuf = std::mem::take(&mut slots[dst]);
                    simd::add_then_scale(
                        seed_ext,
                        -self.scaler.mean,
                        1.0 / self.scaler.std,
                        &mut dbuf,
                    );
                    slots[dst] = dbuf;
                }
                Op::Concat2 {
                    ref a,
                    ca,
                    ref b,
                    cb,
                    dst,
                } => {
                    // Taking the destination out of the arena makes any
                    // accidental src/dst aliasing a loud length panic.
                    let mut dbuf = std::mem::take(&mut slots[dst]);
                    let av = resolve_src(a, ca, slots, x_ext, cov_ext, rows);
                    let bv = resolve_src(b, cb, slots, x_ext, cov_ext, rows);
                    let stride = ca + cb;
                    for ((drow, arow), brow) in dbuf
                        .chunks_exact_mut(stride)
                        .zip(av.chunks_exact(ca))
                        .zip(bv.chunks_exact(cb))
                    {
                        drow[..ca].copy_from_slice(arow);
                        drow[ca..].copy_from_slice(brow);
                    }
                    slots[dst] = dbuf;
                }
                Op::Gemm {
                    src,
                    w,
                    dst,
                    k,
                    n_out,
                } => {
                    let mut dbuf = std::mem::take(&mut slots[dst]);
                    matmul::gemm_into(
                        &slots[src],
                        params.get(w).as_slice(),
                        &mut dbuf,
                        rows,
                        k,
                        n_out,
                        matmul::gemm_pooled_hint(rows, n_out),
                    );
                    slots[dst] = dbuf;
                }
                Op::BiasAdd { dst, bias } => {
                    simd::bias_add(&mut slots[dst], params.get(bias).as_slice());
                }
                Op::AddAssign { dst, src } => {
                    let mut dbuf = std::mem::take(&mut slots[dst]);
                    let sv = &slots[src];
                    assert_eq!(dbuf.len(), sv.len());
                    for (dv, &s) in dbuf.iter_mut().zip(sv) {
                        *dv += s;
                    }
                    slots[dst] = dbuf;
                }
                Op::Gather { src, dst, c } => {
                    let mut dbuf = std::mem::take(&mut slots[dst]);
                    let sv = &slots[src];
                    let index = index.expect("gather op requires a slim index");
                    for bb in 0..b {
                        let s_base = bb * d.n * c;
                        let d_base = bb * d.m * c;
                        for (i, &ix) in index.iter().enumerate() {
                            dbuf[d_base + i * c..d_base + (i + 1) * c]
                                .copy_from_slice(&sv[s_base + ix * c..s_base + (ix + 1) * c]);
                        }
                    }
                    slots[dst] = dbuf;
                }
                Op::Spmm { src, dst, c } => {
                    let mut dbuf = std::mem::take(&mut slots[dst]);
                    let csr = self.frozen.csr().expect("spmm op requires a CSR plan");
                    let pooled = sparse::spmm_pooled_hint(rows * c, rows);
                    csr.spmm_into(&slots[src], b, c, &mut dbuf, pooled);
                    slots[dst] = dbuf;
                }
                Op::DenseMm { src, dst, c } => {
                    let mut dbuf = std::mem::take(&mut slots[dst]);
                    let sv = &slots[src];
                    let wv = weights.as_slice();
                    let pooled = matmul::gemm_pooled_hint(d.n, c);
                    for (ob, xb) in dbuf
                        .chunks_exact_mut(d.n * c)
                        .zip(sv.chunks_exact(d.m * c))
                    {
                        matmul::gemm_into(wv, xb, ob, d.n, d.m, c, pooled);
                    }
                    slots[dst] = dbuf;
                }
                Op::Epilogue { ax, x, dst, c } => {
                    let mut dbuf = std::mem::take(&mut slots[dst]);
                    simd::diffuse_epilogue(&slots[ax], &slots[x], deg, &mut dbuf, c);
                    slots[dst] = dbuf;
                }
                Op::SigmoidMul { pre, h, dst } => {
                    let mut dbuf = std::mem::take(&mut slots[dst]);
                    simd::sigmoid_mul(&slots[pre], &slots[h], &mut dbuf);
                    slots[dst] = dbuf;
                }
                Op::GruCombine { z, hc, h, dst } => {
                    let mut dbuf = std::mem::take(&mut slots[dst]);
                    simd::gru_combine(&slots[z], &slots[hc], &slots[h], &mut dbuf);
                    slots[dst] = dbuf;
                }
                Op::MonotoneQ { dst, c } => {
                    // Same per-element add order as the taped cumulative
                    // relu (`acc + r_i.max(0)`), so the fused pass stays
                    // bit-identical to the autodiff forward.
                    let dbuf = &mut slots[dst];
                    for row in dbuf.chunks_exact_mut(c) {
                        let mut acc = row[0];
                        for v in &mut row[1..] {
                            acc += v.max(0.0);
                            *v = acc;
                        }
                    }
                }
                Op::SelectCh { src, dst, c, ch } => {
                    let mut dbuf = std::mem::take(&mut slots[dst]);
                    let sv = &slots[src];
                    for (dv, srow) in dbuf.iter_mut().zip(sv.chunks_exact(c)) {
                        *dv = srow[ch];
                    }
                    slots[dst] = dbuf;
                }
                Op::Store { src, t, c } => {
                    let dst = &mut out[t * rows * c..(t + 1) * rows * c];
                    let uniform = self
                        .coeffs
                        .iter()
                        .all(|&(a, o)| a.to_bits() == self.coeffs[0].0.to_bits()
                            && o.to_bits() == self.coeffs[0].1.to_bits());
                    if uniform {
                        // One affine over the whole block — the point and
                        // quantile heads; same two-rounding sequence as
                        // the taped `scale` + `add_scalar`.
                        let (a, o) = self.coeffs[0];
                        simd::scale_then_add(&slots[src], a, o, dst);
                    } else {
                        // Per-channel affine (e.g. the sampled head's
                        // log-std channel). Keep the `(v·a) + o` rounding
                        // order of the taped per-channel epilogue.
                        let sv = &slots[src];
                        for (drow, srow) in
                            dst.chunks_exact_mut(c).zip(sv.chunks_exact(c))
                        {
                            for ((dv, &v), &(a, o)) in
                                drow.iter_mut().zip(srow).zip(&self.coeffs)
                            {
                                *dv = (v * a) + o;
                            }
                        }
                    }
                }
            }
            if let Some(t0) = t0 {
                *ns += t0.elapsed().as_nanos() as u64;
            }
        }
        self.execs += 1;
        obs::tally_plan_exec(self.ops.len() as u64);
    }

    /// Total bytes of the physical buffer arena.
    pub(crate) fn arena_bytes(&self) -> usize {
        self.slots.iter().map(|s| s.capacity() * 4).sum()
    }

    /// Renders the compiled schedule as a table: a per-kind rollup
    /// followed by every op with its shape, kernel choice and slots, both
    /// at full capacity. Mean per-op times appear once the executor has
    /// run under tracing.
    pub(crate) fn table(&self) -> String {
        let d = self.dims;
        let b = self.capacity;
        let rows = b * d.n;
        let mut out = format!(
            "compiled plan: {} ops, {} slots ({:.1} KiB arena, {} virtuals), dims capacity={} n={} m={} h={} f={} d={}\n",
            self.ops.len(),
            self.slots.len(),
            self.arena_bytes() as f64 / 1024.0,
            self.virtuals,
            b,
            d.n,
            d.m,
            d.h_len,
            d.f_len,
            d.hidden,
        );
        // Per-kind rollup.
        let mut kinds: Vec<(&'static str, u64, u64)> = Vec::new();
        for (op, &ns) in self.ops.iter().zip(&self.op_ns) {
            match kinds.iter_mut().find(|(k, _, _)| *k == op.kind()) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += ns;
                }
                None => kinds.push((op.kind(), 1, ns)),
            }
        }
        kinds.sort_by_key(|row| std::cmp::Reverse(row.2));
        out.push_str(&format!(
            "{:<12} {:>6} {:>12} {:>10}\n",
            "op kind", "count", "total us", "us/run"
        ));
        for (kind, count, ns) in &kinds {
            let us = *ns as f64 / 1000.0;
            let per_run = if self.execs > 0 {
                us / self.execs as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "{kind:<12} {count:>6} {us:>12.1} {per_run:>10.1}\n"
            ));
        }
        // Full schedule listing.
        out.push_str(&format!(
            "{:<5} {:<12} {:<26} {:<14} {}\n",
            "idx", "op", "shape", "kernel", "slots"
        ));
        for (i, (op, &ns)) in self.ops.iter().zip(&self.op_ns).enumerate() {
            let fmt_src = |s: &Src| match *s {
                Src::Slot(i) => format!("s{i}"),
                Src::X(t) => format!("x[{t}]"),
                Src::Cov(t) => format!("cov[{t}]"),
            };
            let (shape, kernel, slots): (String, String, String) = match *op {
                Op::Zero { dst } => (format!("({rows},?)"), "fill".into(), format!("s{dst}")),
                Op::Seed { dst } => (format!("({rows},1)"), "add_then_scale".into(), format!("s{dst}")),
                Op::Concat2 { ref a, ca, ref b, cb, dst } => (
                    format!("({rows},{ca}+{cb})"),
                    "row memcpy".into(),
                    format!("{}‖{} -> s{dst}", fmt_src(a), fmt_src(b)),
                ),
                Op::Gemm { src, dst, k, n_out, .. } => (
                    format!("({rows}x{k})·({k}x{n_out})"),
                    if matmul::gemm_pooled_hint(rows, n_out) { "simd pooled" } else { "simd serial" }.into(),
                    format!("s{src} -> s{dst}"),
                ),
                Op::BiasAdd { dst, .. } => (format!("({rows},?)"), "bias_add".into(), format!("s{dst}")),
                Op::AddAssign { dst, src } => (format!("({rows},?)"), "add in place".into(), format!("s{dst} += s{src}")),
                Op::Gather { src, dst, c } => (
                    format!("({b},{},{c})", d.m),
                    "index rows".into(),
                    format!("s{src} -> s{dst}"),
                ),
                Op::Spmm { src, dst, c } => (
                    format!("({b},{},{c})", d.n),
                    if sparse::spmm_pooled_hint(rows * c, rows) { "csr pooled" } else { "csr serial" }.into(),
                    format!("s{src} -> s{dst}"),
                ),
                Op::DenseMm { src, dst, c } => (
                    format!("({b},{},{c})", d.n),
                    if matmul::gemm_pooled_hint(d.n, c) { "gemm pooled" } else { "gemm serial" }.into(),
                    format!("s{src} -> s{dst}"),
                ),
                Op::Epilogue { ax, x, dst, c } => (
                    format!("({b},{},{c})", d.n),
                    "fused simd".into(),
                    format!("s{ax},s{x} -> s{dst}"),
                ),
                Op::SigmoidMul { pre, h, dst } => (
                    format!("({rows},{})", d.hidden),
                    "fused simd".into(),
                    format!("s{pre},s{h} -> s{dst}"),
                ),
                Op::GruCombine { z, hc, h, dst } => (
                    format!("({rows},{})", d.hidden),
                    "fused simd".into(),
                    format!("s{z},s{hc},s{h} -> s{dst}"),
                ),
                Op::MonotoneQ { dst, c } => (
                    format!("({rows},{c})"),
                    "cum-relu".into(),
                    format!("s{dst} in place"),
                ),
                Op::SelectCh { src, dst, c, ch } => (
                    format!("({rows},{c})[{ch}]"),
                    "stride copy".into(),
                    format!("s{src} -> s{dst}"),
                ),
                Op::Store { src, t, c } => (
                    format!("({rows},{c})"),
                    "scale_then_add".into(),
                    format!("s{src} -> out[{t}]"),
                ),
            };
            if self.execs > 0 {
                let us = ns as f64 / 1000.0 / self.execs as f64;
                out.push_str(&format!(
                    "{i:<5} {:<12} {shape:<26} {kernel:<14} {slots}  {us:.1}us\n",
                    op.kind()
                ));
            } else {
                out.push_str(&format!(
                    "{i:<5} {:<12} {shape:<26} {kernel:<14} {slots}\n",
                    op.kind()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_mode_roundtrip() {
        let prev = set_plan_mode(PlanMode::Off);
        assert_eq!(plan_mode(), PlanMode::Off);
        assert!(!plan_enabled());
        set_plan_mode(PlanMode::On);
        assert_eq!(plan_mode(), PlanMode::On);
        assert!(plan_enabled());
        set_plan_mode(PlanMode::Auto);
        assert!(plan_enabled());
        set_plan_mode(prev);
    }

    /// The linear-scan allocator must reuse dead slots and never alias an
    /// op's destination with one of its live sources.
    #[test]
    fn assign_slots_reuses_and_never_aliases() {
        // a = zero; b = sigmoid_mul(a, a)? Build a simple chain:
        // v0 = zero; v1 = f(v0); v2 = f(v1); v3 = f(v2) — all same size.
        let sizes = vec![64usize; 4];
        let ops = vec![
            Op::Zero { dst: 0 },
            Op::SigmoidMul { pre: 0, h: 0, dst: 1 },
            Op::SigmoidMul { pre: 1, h: 1, dst: 2 },
            Op::SigmoidMul { pre: 2, h: 2, dst: 3 },
        ];
        let (ops, phys) = assign_slots(ops, &sizes);
        // Four virtuals fit in two physical slots (ping-pong).
        assert_eq!(phys.len(), 2, "expected ping-pong reuse, got {phys:?}");
        for op in &ops {
            if let Op::SigmoidMul { pre, h, dst } = op {
                assert_ne!(pre, dst, "op aliases dst with a source");
                assert_ne!(h, dst, "op aliases dst with a source");
            }
        }
    }

    /// Distinct sizes never share a physical slot.
    #[test]
    fn assign_slots_respects_sizes() {
        let sizes = vec![64, 128, 64];
        let ops = vec![
            Op::Zero { dst: 0 },
            Op::Gather { src: 0, dst: 1, c: 1 },
            Op::Gather { src: 1, dst: 2, c: 1 },
        ];
        let (_, phys) = assign_slots(ops, &sizes);
        assert_eq!(phys.len(), 2);
        assert!(phys.contains(&64) && phys.contains(&128));
    }
}
