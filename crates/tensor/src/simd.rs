//! SIMD microkernels behind the [`dispatch`](crate::dispatch) layer.
//!
//! Every public function here is a safe wrapper that consults
//! [`simd_tier`](crate::dispatch::simd_tier) once and runs one of four
//! variants: `scalar` (the portable reference — the exact loops the repo
//! shipped before this module existed), `neon`, `avx2` or `avx512`. Two
//! vectorization strategies are used, both **bit-identical to scalar**:
//!
//! 1. **Feature-scoped auto-vectorization** for the elementwise, axpy,
//!    axis-sum, spmm-row and entmax helper loops: the same plain-Rust
//!    body is compiled once per tier under `#[target_feature(...)]`, so
//!    the compiler may use 256/512-bit registers. The loops are written
//!    so every output element is a pure function of its own inputs (no
//!    cross-lane reduction), and LLVM only vectorizes when the lowering
//!    is semantically exact — identical results are guaranteed by
//!    construction, on every input including NaN and signed zeros.
//! 2. **Hand-written register-blocked GEMM microkernels** (`std::arch`
//!    intrinsics on x86_64, a blocked auto-vectorized body on NEON) for
//!    `matmul`: MR×NR accumulator tiles held in registers, loaded from
//!    and stored back to `C` once per tile (per k block on x86). These
//!    keep the repo-wide 4-wide k-grouping contract — each group is summed as
//!    `((a0·b0 + a1·b1) + a2·b2) + a3·b3` and added to the accumulator
//!    with one add, remainder terms one at a time — which is exactly the
//!    scalar kernel's association, applied lane-wise over the contiguous
//!    `j` axis. No FMA is used anywhere: a fused multiply-add rounds
//!    once where `mul`+`add` rounds twice, which would break bit
//!    equality with the scalar path.
//!
//!    On x86 the edges run the same tile body — fewer rows, masked
//!    column lanes — and `A`, which is only broadcast, is addressed by
//!    strides, so `matmul_tn` reads `Aᵀ` in place.
//!
//! What deliberately **stays scalar** (see DESIGN.md §12): the chunked
//! f64 full reductions and the dot-shaped `pair_dot`/`matmul_nt` inner
//! loops (horizontal sums would need re-association), and the libm-based
//! transcendentals (`exp`/`ln`/`tanh`/`powf`), whose polynomial
//! vectorization is not bit-compatible with libm. The big `matmul_nt`
//! products reach the blocked kernel anyway by packing `Bᵀ` first (see
//! `matmul.rs`).

use crate::dispatch::{simd_tier, SimdTier};

/// The repo's canonical numerically-stable sigmoid (the exact body
/// `Tensor::sigmoid` maps per element). The fused chain kernels call
/// this same function so their outputs are bit-identical to the unfused
/// `sigmoid` → `mul` → … sequences they replace. `exp` stays a libm
/// call on every tier (see the module docs).
#[inline(always)]
fn sigmoid_exact(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Binary elementwise operation selector for [`binary`] /
/// [`binary_scalar`]. Only ops whose vector lowering is IEEE-exact per
/// lane belong here — max/min keep Rust's NaN semantics on the closure
/// path in `ops.rs` instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `x + y`
    Add,
    /// `x - y`
    Sub,
    /// `x * y`
    Mul,
    /// `x / y`
    Div,
}

/// Unary elementwise operation selector for [`unary`]. All four are
/// bit-exact under vectorization (`neg`/`abs` are sign-bit ops, `sqrt`
/// is correctly rounded, `square` is one multiply).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    /// `-x`
    Neg,
    /// `|x|`
    Abs,
    /// `√x`
    Sqrt,
    /// `x · x`
    Square,
}

/// Scalar GEMM block: the original serial i-k-j loop restricted to rows
/// `[i0, i1)` and columns `[j0, j1)` of `C += A·B`, with `A[i, kk]` read
/// at `a[i·rs + kk·ks]` (`rs = k, ks = 1` for a row-major `A`;
/// `rs = 1, ks = m` reads a row-major `Aᵀ` in place). Running the full
/// range *is* the scalar reference kernel; the portable blocked kernel
/// uses it for its edges.
#[allow(clippy::too_many_arguments)]
fn scalar_block(
    a: &[f32],
    rs: usize,
    ks: usize,
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
    (i0, i1): (usize, usize),
    (j0, j1): (usize, usize),
) {
    for i in i0..i1 {
        let a_at = |kk: usize| a[i * rs + kk * ks];
        let c_row = &mut c[i * n..(i + 1) * n];
        let mut kk = 0;
        while kk + 4 <= k {
            let (a0, a1, a2, a3) = (a_at(kk), a_at(kk + 1), a_at(kk + 2), a_at(kk + 3));
            let b0 = &b[kk * n..(kk + 1) * n];
            let b1 = &b[(kk + 1) * n..(kk + 2) * n];
            let b2 = &b[(kk + 2) * n..(kk + 3) * n];
            let b3 = &b[(kk + 3) * n..(kk + 4) * n];
            for j in j0..j1 {
                c_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
            }
            kk += 4;
        }
        while kk < k {
            let av = a_at(kk);
            let b_row = &b[kk * n..(kk + 1) * n];
            for j in j0..j1 {
                c_row[j] += av * b_row[j];
            }
            kk += 1;
        }
    }
}

/// Generates the per-tier loop bodies. One instantiation per tier with
/// that tier's `#[target_feature]` attribute: the *same* source compiles
/// to scalar, NEON, AVX2 or AVX-512 code, so all four variants are
/// semantically the same function — bit-identical results for free.
///
/// The functions are `unsafe fn` because the attributed variants may
/// only run on CPUs with the feature; the safe dispatch wrappers below
/// guarantee that via the cached probe.
macro_rules! simd_impls {
    ($(#[$attr:meta])*) => {
        $(#[$attr])*
        pub unsafe fn binary(op: super::BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
            use super::BinOp;
            match op {
                BinOp::Add => {
                    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                        *o = x + y;
                    }
                }
                BinOp::Sub => {
                    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                        *o = x - y;
                    }
                }
                BinOp::Mul => {
                    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                        *o = x * y;
                    }
                }
                BinOp::Div => {
                    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                        *o = x / y;
                    }
                }
            }
        }

        /// `out = src ⊕ s` (or `s ⊕ src` when `scalar_lhs`), preserving
        /// the operand order of the closure tiers it replaces.
        $(#[$attr])*
        pub unsafe fn binary_scalar(
            op: super::BinOp,
            src: &[f32],
            s: f32,
            out: &mut [f32],
            scalar_lhs: bool,
        ) {
            use super::BinOp;
            match (op, scalar_lhs) {
                (BinOp::Add, false) => {
                    for (o, &x) in out.iter_mut().zip(src) {
                        *o = x + s;
                    }
                }
                (BinOp::Add, true) => {
                    for (o, &x) in out.iter_mut().zip(src) {
                        *o = s + x;
                    }
                }
                (BinOp::Sub, false) => {
                    for (o, &x) in out.iter_mut().zip(src) {
                        *o = x - s;
                    }
                }
                (BinOp::Sub, true) => {
                    for (o, &x) in out.iter_mut().zip(src) {
                        *o = s - x;
                    }
                }
                (BinOp::Mul, false) => {
                    for (o, &x) in out.iter_mut().zip(src) {
                        *o = x * s;
                    }
                }
                (BinOp::Mul, true) => {
                    for (o, &x) in out.iter_mut().zip(src) {
                        *o = s * x;
                    }
                }
                (BinOp::Div, false) => {
                    for (o, &x) in out.iter_mut().zip(src) {
                        *o = x / s;
                    }
                }
                (BinOp::Div, true) => {
                    for (o, &x) in out.iter_mut().zip(src) {
                        *o = s / x;
                    }
                }
            }
        }

        $(#[$attr])*
        pub unsafe fn unary(op: super::UnOp, src: &[f32], out: &mut [f32]) {
            use super::UnOp;
            match op {
                UnOp::Neg => {
                    for (o, &x) in out.iter_mut().zip(src) {
                        *o = -x;
                    }
                }
                UnOp::Abs => {
                    for (o, &x) in out.iter_mut().zip(src) {
                        *o = x.abs();
                    }
                }
                UnOp::Sqrt => {
                    for (o, &x) in out.iter_mut().zip(src) {
                        *o = x.sqrt();
                    }
                }
                UnOp::Square => {
                    for (o, &x) in out.iter_mut().zip(src) {
                        *o = x * x;
                    }
                }
            }
        }

        /// `dst += alpha · src` — the optimizer hot loop.
        $(#[$attr])*
        pub unsafe fn axpy(alpha: f32, src: &[f32], dst: &mut [f32]) {
            for (d, &x) in dst.iter_mut().zip(src) {
                *d += alpha * x;
            }
        }

        /// `dst += src` — the axis-sum accumulation step.
        $(#[$attr])*
        pub unsafe fn add_assign(dst: &mut [f32], src: &[f32]) {
            for (d, &x) in dst.iter_mut().zip(src) {
                *d += x;
            }
        }

        /// `dst *= s` — softmax normalization.
        $(#[$attr])*
        pub unsafe fn scale_assign(dst: &mut [f32], s: f32) {
            for d in dst.iter_mut() {
                *d *= s;
            }
        }

        /// The entmax-1.5 output map `p_j = [(z_j/2 − shift − τ)]₊²`.
        $(#[$attr])*
        pub unsafe fn entmax15_map(z: &[f32], shift: f64, tau: f64, p: &mut [f64]) {
            for (o, &v) in p.iter_mut().zip(z) {
                let d = v as f64 / 2.0 - shift - tau;
                *o = if d > 0.0 { d * d } else { 0.0 };
            }
        }

        /// `p /= total` — the defensive simplex normalization.
        $(#[$attr])*
        pub unsafe fn div_assign_f64(p: &mut [f64], total: f64) {
            for v in p.iter_mut() {
                *v /= total;
            }
        }

        /// The entmax backward output map `dz_i = s_i · (g_i − mean)`.
        $(#[$attr])*
        pub unsafe fn entmax_backward_out(s: &[f64], grad_p: &[f32], mean: f64, out: &mut [f32]) {
            for ((o, &si), &gi) in out.iter_mut().zip(s).zip(grad_p) {
                *o = (si * (gi as f64 - mean)) as f32;
            }
        }

        /// Fused GRU reset-gate apply `out = σ(pre) · h`, replacing the
        /// unfused `sigmoid` → `mul` pair (one pass, no intermediate).
        /// `σ` is the shared libm-exact helper, so every tier matches
        /// the two-kernel sequence bit for bit.
        $(#[$attr])*
        pub unsafe fn sigmoid_mul(pre: &[f32], h: &[f32], out: &mut [f32]) {
            for ((o, &p), &hv) in out.iter_mut().zip(pre).zip(h) {
                *o = super::sigmoid_exact(p) * hv;
            }
        }

        /// Fused GRU output combine
        /// `out = z·h + ((−z) + 1)·tanh(hc)` with `z = σ(zp)`,
        /// replacing the six-kernel `sigmoid`/`tanh`/`mul`/`neg`/
        /// `add_scalar`/`mul`/`add` chain. The association mirrors the
        /// unfused sequence exactly: `(z·h) + (((−z)+1)·t)`.
        $(#[$attr])*
        pub unsafe fn gru_combine(zp: &[f32], hc: &[f32], h: &[f32], out: &mut [f32]) {
            for (((o, &zv), &hcv), &hv) in out.iter_mut().zip(zp).zip(hc).zip(h) {
                let z = super::sigmoid_exact(zv);
                let t = hcv.tanh();
                *o = z * hv + ((-z) + 1.0) * t;
            }
        }

        /// Fused diffusion epilogue `out[r,j] = (ax[r,j] + x[r,j]) · deg[r mod n]`
        /// over `rows = len/c` rows — the `add` → broadcast-`mul` pair
        /// of `Adjacency::diffuse` in one pass. `deg` holds the `n`
        /// per-node inverse degrees; rows cycle through it batch-major.
        $(#[$attr])*
        pub unsafe fn diffuse_epilogue(ax: &[f32], x: &[f32], deg: &[f32], out: &mut [f32], c: usize) {
            let n = deg.len();
            let rows = out.len() / c;
            for r in 0..rows {
                let s = deg[r % n];
                let o = &mut out[r * c..(r + 1) * c];
                let av = &ax[r * c..(r + 1) * c];
                let xv = &x[r * c..(r + 1) * c];
                for j in 0..c {
                    o[j] = (av[j] + xv[j]) * s;
                }
            }
        }

        /// In-place broadcast bias add `y[r,j] += bias[j]` — the linear
        /// layer's epilogue without materializing a broadcast operand.
        $(#[$attr])*
        pub unsafe fn bias_add(y: &mut [f32], bias: &[f32]) {
            let nb = bias.len();
            for row in y.chunks_exact_mut(nb) {
                for (v, &b) in row.iter_mut().zip(bias) {
                    *v += b;
                }
            }
        }

        /// Fused affine `out = (src + a) · m` — the z-score normalize
        /// order (`add_scalar` then `scale`).
        $(#[$attr])*
        pub unsafe fn add_then_scale(src: &[f32], a: f32, m: f32, out: &mut [f32]) {
            for (o, &v) in out.iter_mut().zip(src) {
                *o = (v + a) * m;
            }
        }

        /// Fused affine `out = src · m + a` — the inverse-transform
        /// order (`scale` then `add_scalar`). Rust never contracts a
        /// `*`/`+` pair into an FMA, so this rounds twice like the
        /// two-kernel sequence it replaces.
        $(#[$attr])*
        pub unsafe fn scale_then_add(src: &[f32], m: f32, a: f32, out: &mut [f32]) {
            for (o, &v) in out.iter_mut().zip(src) {
                *o = v * m + a;
            }
        }

    };
}

/// Generates the portable CSR-row kernel (scalar and NEON tiers). The
/// x86 tiers get hand-written intrinsics instead: under wide target
/// features LLVM's auto-vectorization of this body is ~2× *slower* than
/// the baseline compile (measured on Emerald Rapids), so the shared
/// source is only stamped out where it is known to codegen well.
macro_rules! spmm_row_portable_impl {
    ($(#[$attr:meta])*) => {
        /// One CSR output row: nonzeros grouped by absolute ⌊col/4⌋
        /// within `[0, 4⌊inner/4⌋)`, single adds in the remainder —
        /// mirroring the dense kernel's unroll so each output element
        /// sees the same sequence of nonzero partial sums. The `j` loops
        /// over the contiguous feature axis vectorize.
        $(#[$attr])*
        pub unsafe fn spmm_row(
            cols: &[u32],
            vals: &[f32],
            x: &[f32],
            c_row: &mut [f32],
            inner: usize,
            c: usize,
        ) {
            let k4 = inner & !3;
            let end = cols.len();
            let mut p = 0;
            while p < end {
                let col = cols[p] as usize;
                if col >= k4 {
                    break;
                }
                let group_end = (col & !3) + 4;
                let mut q = p + 1;
                while q < end && (cols[q] as usize) < group_end {
                    q += 1;
                }
                match q - p {
                    1 => {
                        let a0 = vals[p];
                        let b0 = &x[col * c..(col + 1) * c];
                        for j in 0..c {
                            c_row[j] += a0 * b0[j];
                        }
                    }
                    2 => {
                        let (a0, a1) = (vals[p], vals[p + 1]);
                        let b0 = &x[col * c..(col + 1) * c];
                        let c1 = cols[p + 1] as usize;
                        let b1 = &x[c1 * c..(c1 + 1) * c];
                        for j in 0..c {
                            c_row[j] += a0 * b0[j] + a1 * b1[j];
                        }
                    }
                    3 => {
                        let (a0, a1, a2) = (vals[p], vals[p + 1], vals[p + 2]);
                        let b0 = &x[col * c..(col + 1) * c];
                        let c1 = cols[p + 1] as usize;
                        let b1 = &x[c1 * c..(c1 + 1) * c];
                        let c2 = cols[p + 2] as usize;
                        let b2 = &x[c2 * c..(c2 + 1) * c];
                        for j in 0..c {
                            c_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j];
                        }
                    }
                    _ => {
                        let (a0, a1, a2, a3) =
                            (vals[p], vals[p + 1], vals[p + 2], vals[p + 3]);
                        let b0 = &x[col * c..(col + 1) * c];
                        let c1 = cols[p + 1] as usize;
                        let b1 = &x[c1 * c..(c1 + 1) * c];
                        let c2 = cols[p + 2] as usize;
                        let b2 = &x[c2 * c..(c2 + 1) * c];
                        let c3 = cols[p + 3] as usize;
                        let b3 = &x[c3 * c..(c3 + 1) * c];
                        for j in 0..c {
                            c_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                        }
                    }
                }
                p = q;
            }
            // Remainder region: the dense kernel adds these one at a time.
            while p < end {
                let col = cols[p] as usize;
                let a0 = vals[p];
                let b0 = &x[col * c..(col + 1) * c];
                for j in 0..c {
                    c_row[j] += a0 * b0[j];
                }
                p += 1;
            }
        }
    };
}

/// Generates the portable pre-decoded CSR-row kernel (scalar and NEON
/// tiers). Each `groups` entry packs `(start << 3) | len` over the
/// caller's `cols`/`vals` slices — aligned-region groups carry 1–4
/// nonzeros sharing `⌊col/4⌋`, remainder nonzeros (`col ≥ 4⌊inner/4⌋`)
/// are singleton groups, exactly the decode [`spmm_row`] performs
/// inline. Pre-decoding lets the caller amortize the group scan across
/// batches; the accumulation per output element is identical.
macro_rules! spmm_row_grouped_portable_impl {
    ($(#[$attr:meta])*) => {
        /// One CSR output row from pre-decoded column groups; same
        /// per-element accumulation sequence as [`spmm_row`].
        $(#[$attr])*
        pub unsafe fn spmm_row_grouped(
            groups: &[u64],
            cols: &[u32],
            vals: &[f32],
            x: &[f32],
            c_row: &mut [f32],
            c: usize,
        ) {
            for &g in groups {
                let p = (g >> 3) as usize;
                match g & 7 {
                    1 => {
                        let a0 = vals[p];
                        let b0 = &x[cols[p] as usize * c..][..c];
                        for j in 0..c {
                            c_row[j] += a0 * b0[j];
                        }
                    }
                    2 => {
                        let (a0, a1) = (vals[p], vals[p + 1]);
                        let b0 = &x[cols[p] as usize * c..][..c];
                        let b1 = &x[cols[p + 1] as usize * c..][..c];
                        for j in 0..c {
                            c_row[j] += a0 * b0[j] + a1 * b1[j];
                        }
                    }
                    3 => {
                        let (a0, a1, a2) = (vals[p], vals[p + 1], vals[p + 2]);
                        let b0 = &x[cols[p] as usize * c..][..c];
                        let b1 = &x[cols[p + 1] as usize * c..][..c];
                        let b2 = &x[cols[p + 2] as usize * c..][..c];
                        for j in 0..c {
                            c_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j];
                        }
                    }
                    _ => {
                        let (a0, a1, a2, a3) =
                            (vals[p], vals[p + 1], vals[p + 2], vals[p + 3]);
                        let b0 = &x[cols[p] as usize * c..][..c];
                        let b1 = &x[cols[p + 1] as usize * c..][..c];
                        let b2 = &x[cols[p + 2] as usize * c..][..c];
                        let b3 = &x[cols[p + 3] as usize * c..][..c];
                        for j in 0..c {
                            c_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                        }
                    }
                }
            }
        }
    };
}

/// Generates the hand-vectorized x86 pre-decoded CSR-row kernel for one
/// vector width. Unlike [`spmm_row_x86_impl`]'s per-group
/// load-accumulate-store, the output row is walked in register-width
/// chunks held across **all** groups: per chunk the accumulator is
/// loaded once, receives one add per group (each group's terms summed
/// left-to-right first), and is stored once. Per output element that is
/// the same add sequence as the per-group kernel — `((c₀+e₁)+e₂)+…` —
/// so results are bit-identical while the per-group output-row memory
/// traffic disappears.
#[cfg(target_arch = "x86_64")]
macro_rules! spmm_row_grouped_x86_impl {
    ($feat:literal, $w:expr, $loadu:ident, $set1:ident, $mul:ident, $add:ident, $storeu:ident) => {
        /// One CSR output row from pre-decoded column groups; grouping
        /// and accumulation contract as in the portable kernel.
        #[target_feature(enable = $feat)]
        pub unsafe fn spmm_row_grouped(
            groups: &[u64],
            cols: &[u32],
            vals: &[f32],
            x: &[f32],
            c_row: &mut [f32],
            c: usize,
        ) {
            let xp = x.as_ptr();
            let vp = vals.as_ptr();
            let ip = cols.as_ptr();
            let mut j = 0;
            while j + $w <= c {
                let crp = c_row.as_mut_ptr().add(j);
                let mut acc = $loadu(crp as *const f32);
                for &g in groups {
                    let p = (g >> 3) as usize;
                    let len = (g & 7) as usize;
                    let mut e = $mul(
                        $set1(*vp.add(p)),
                        $loadu(xp.add(*ip.add(p) as usize * c + j)),
                    );
                    for t in 1..len {
                        e = $add(
                            e,
                            $mul(
                                $set1(*vp.add(p + t)),
                                $loadu(xp.add(*ip.add(p + t) as usize * c + j)),
                            ),
                        );
                    }
                    acc = $add(acc, e);
                }
                $storeu(crp, acc);
                j += $w;
            }
            while j < c {
                let mut acc = *c_row.get_unchecked(j);
                for &g in groups {
                    let p = (g >> 3) as usize;
                    let len = (g & 7) as usize;
                    let mut e = *vp.add(p) * *xp.add(*ip.add(p) as usize * c + j);
                    for t in 1..len {
                        e += *vp.add(p + t) * *xp.add(*ip.add(p + t) as usize * c + j);
                    }
                    acc += e;
                }
                *c_row.get_unchecked_mut(j) = acc;
                j += 1;
            }
        }
    };
}

/// Generates the portable batched pre-decoded CSR-row kernel (scalar
/// and NEON tiers): per batch slab, each group's entries are accumulated
/// left-to-right with one `+=` per group — the exact
/// [`spmm_row_grouped`] sequence. The batch dimension only selects
/// independent output elements, so any batch walk is bit-identical.
macro_rules! spmm_row_grouped_batched_portable_impl {
    ($(#[$attr:meta])*) => {
        /// All batch slabs of one CSR output row from pre-decoded column
        /// groups. See the safety contract on the dispatch wrapper.
        #[allow(clippy::too_many_arguments)]
        $(#[$attr])*
        pub unsafe fn spmm_row_grouped_batched(
            groups: &[u64],
            cols: &[u32],
            vals: &[f32],
            x: *const f32,
            x_stride: usize,
            out: *mut f32,
            out_stride: usize,
            batch: usize,
            inner: usize,
            c: usize,
        ) {
            let _ = inner;
            for b in 0..batch {
                let xb = x.add(b * x_stride);
                let ob = out.add(b * out_stride);
                for &g in groups {
                    let p = (g >> 3) as usize;
                    let len = (g & 7) as usize;
                    for j in 0..c {
                        let mut e = *vals.get_unchecked(p)
                            * *xb.add(*cols.get_unchecked(p) as usize * c + j);
                        for t in 1..len {
                            e += *vals.get_unchecked(p + t)
                                * *xb.add(*cols.get_unchecked(p + t) as usize * c + j);
                        }
                        *ob.add(j) += e;
                    }
                }
            }
        }
    };
}

/// Generates the hand-vectorized x86 batched pre-decoded CSR-row kernel
/// for one vector width and batch-block size. The win over calling
/// [`spmm_row_grouped`] per batch: the group walk — including its
/// hard-to-predict per-group length dispatch — runs once per row block
/// while `BLK` batches' accumulators ride in registers (`BLK × 2`
/// vectors, j blocked two vector widths at a time), and each group's
/// value broadcasts are shared across the block. Per output element the
/// accumulation sequence is exactly [`spmm_row_grouped`]'s.
///
/// (A branch-free variant was tried: padding every group to a fixed
/// four-term schedule with hardware-masked adds. It lost — at 50 %
/// density the padding nearly doubles the flops and the extra group
/// bookkeeping outweighs the saved mispredicts, measuring ~45 % slower
/// than this branchy walk.)
#[cfg(target_arch = "x86_64")]
macro_rules! spmm_row_grouped_batched_x86_impl {
    ($feat:literal, $w:expr, $bb:expr, $loadu:ident, $set1:ident, $mul:ident, $add:ident, $storeu:ident) => {
        /// One batch block of `BLK` slabs; `x`/`out` point at the
        /// block's first slab.
        #[target_feature(enable = $feat)]
        #[allow(clippy::too_many_arguments)]
        unsafe fn grouped_batched_blk<const BLK: usize>(
            groups: &[u64],
            cols: &[u32],
            vals: &[f32],
            x: *const f32,
            x_stride: usize,
            out: *mut f32,
            out_stride: usize,
            c: usize,
        ) {
            let vp = vals.as_ptr();
            let ip = cols.as_ptr();
            let mut j = 0;
            // Two vector widths of j per pass, all BLK batch
            // accumulators held in registers across the group walk.
            while j + 2 * $w <= c {
                let mut acc = [[$set1(0.0f32); 2]; BLK];
                for b in 0..BLK {
                    let op = out.add(b * out_stride + j);
                    acc[b][0] = $loadu(op as *const f32);
                    acc[b][1] = $loadu(op.add($w) as *const f32);
                }
                for &g in groups {
                    let p = (g >> 3) as usize;
                    let len = (g & 7) as usize;
                    let a0 = $set1(*vp.add(p));
                    let o0 = *ip.add(p) as usize * c + j;
                    let mut e = [[$set1(0.0f32); 2]; BLK];
                    for b in 0..BLK {
                        let xs = x.add(b * x_stride + o0);
                        e[b][0] = $mul(a0, $loadu(xs));
                        e[b][1] = $mul(a0, $loadu(xs.add($w)));
                    }
                    for t in 1..len {
                        let at = $set1(*vp.add(p + t));
                        let ot = *ip.add(p + t) as usize * c + j;
                        for b in 0..BLK {
                            let xs = x.add(b * x_stride + ot);
                            e[b][0] = $add(e[b][0], $mul(at, $loadu(xs)));
                            e[b][1] = $add(e[b][1], $mul(at, $loadu(xs.add($w))));
                        }
                    }
                    for b in 0..BLK {
                        acc[b][0] = $add(acc[b][0], e[b][0]);
                        acc[b][1] = $add(acc[b][1], e[b][1]);
                    }
                }
                for b in 0..BLK {
                    let op = out.add(b * out_stride + j);
                    $storeu(op, acc[b][0]);
                    $storeu(op.add($w), acc[b][1]);
                }
                j += 2 * $w;
            }
            // Single vector width of j.
            while j + $w <= c {
                let mut acc = [$set1(0.0f32); BLK];
                for b in 0..BLK {
                    acc[b] = $loadu(out.add(b * out_stride + j) as *const f32);
                }
                for &g in groups {
                    let p = (g >> 3) as usize;
                    let len = (g & 7) as usize;
                    let a0 = $set1(*vp.add(p));
                    let o0 = *ip.add(p) as usize * c + j;
                    let mut e = [$set1(0.0f32); BLK];
                    for b in 0..BLK {
                        e[b] = $mul(a0, $loadu(x.add(b * x_stride + o0)));
                    }
                    for t in 1..len {
                        let at = $set1(*vp.add(p + t));
                        let ot = *ip.add(p + t) as usize * c + j;
                        for b in 0..BLK {
                            e[b] = $add(e[b], $mul(at, $loadu(x.add(b * x_stride + ot))));
                        }
                    }
                    for b in 0..BLK {
                        acc[b] = $add(acc[b], e[b]);
                    }
                }
                for b in 0..BLK {
                    $storeu(out.add(b * out_stride + j), acc[b]);
                }
                j += $w;
            }
            // Scalar j tail.
            while j < c {
                let mut acc = [0.0f32; BLK];
                for b in 0..BLK {
                    acc[b] = *out.add(b * out_stride + j);
                }
                for &g in groups {
                    let p = (g >> 3) as usize;
                    let len = (g & 7) as usize;
                    let a0 = *vp.add(p);
                    let o0 = *ip.add(p) as usize * c + j;
                    let mut e = [0.0f32; BLK];
                    for b in 0..BLK {
                        e[b] = a0 * *x.add(b * x_stride + o0);
                    }
                    for t in 1..len {
                        let at = *vp.add(p + t);
                        let ot = *ip.add(p + t) as usize * c + j;
                        for b in 0..BLK {
                            e[b] += at * *x.add(b * x_stride + ot);
                        }
                    }
                    for b in 0..BLK {
                        acc[b] += e[b];
                    }
                }
                for b in 0..BLK {
                    *out.add(b * out_stride + j) = acc[b];
                }
                j += 1;
            }
        }

        /// All batch slabs of one CSR output row from pre-decoded
        /// column groups, processed in register-resident batch blocks.
        /// See the safety contract on the dispatch wrapper.
        #[target_feature(enable = $feat)]
        #[allow(clippy::too_many_arguments)]
        pub unsafe fn spmm_row_grouped_batched(
            groups: &[u64],
            cols: &[u32],
            vals: &[f32],
            x: *const f32,
            x_stride: usize,
            out: *mut f32,
            out_stride: usize,
            batch: usize,
            inner: usize,
            c: usize,
        ) {
            let _ = inner;
            let mut b0 = 0;
            while b0 < batch {
                let xb = x.add(b0 * x_stride);
                let ob = out.add(b0 * out_stride);
                match ($bb as usize).min(batch - b0) {
                    1 => {
                        grouped_batched_blk::<1>(
                            groups, cols, vals, xb, x_stride, ob, out_stride, c,
                        );
                        b0 += 1;
                    }
                    2 | 3 => {
                        grouped_batched_blk::<2>(
                            groups, cols, vals, xb, x_stride, ob, out_stride, c,
                        );
                        b0 += 2;
                    }
                    _ => {
                        grouped_batched_blk::<4>(
                            groups, cols, vals, xb, x_stride, ob, out_stride, c,
                        );
                        b0 += 4;
                    }
                }
            }
        }
    };
}

/// `Σ_b Σ_k dy[b,i,k] · x[b,j,k]` with the feature axis unrolled in
/// 4-aligned groups (matching the dense GEMM accumulation order). The
/// single reference for both adjacency-gradient kernels: `dadj_dense`
/// calls it per entry, and every `dadj_row` tier reproduces it exactly.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn pair_dot(
    dy: &[f32],
    x: &[f32],
    i: usize,
    j: usize,
    batch: usize,
    n: usize,
    m: usize,
    c: usize,
) -> f32 {
    let mut acc = 0.0f32;
    for b in 0..batch {
        let g = &dy[(b * n + i) * c..(b * n + i + 1) * c];
        let v = &x[(b * m + j) * c..(b * m + j + 1) * c];
        let mut k = 0;
        while k + 4 <= c {
            acc += g[k] * v[k] + g[k + 1] * v[k + 1] + g[k + 2] * v[k + 2] + g[k + 3] * v[k + 3];
            k += 4;
        }
        while k < c {
            acc += g[k] * v[k];
            k += 1;
        }
    }
    acc
}

/// Generates the portable support-restricted adjacency-gradient row
/// kernel (scalar and NEON tiers): one [`pair_dot`] per stored column.
macro_rules! dadj_row_portable_impl {
    ($(#[$attr:meta])*) => {
        /// `out_row[j] = pair_dot(i, j)` for each stored column `j`.
        #[allow(clippy::too_many_arguments)]
        $(#[$attr])*
        pub unsafe fn dadj_row(
            dy: &[f32],
            x: &[f32],
            i: usize,
            cols: &[u32],
            out_row: &mut [f32],
            batch: usize,
            n: usize,
            m: usize,
            c: usize,
        ) {
            for &jc in cols {
                let j = jc as usize;
                out_row[j] = super::pair_dot(dy, x, i, j, batch, n, m, c);
            }
        }
    };
}

/// Generates the hand-vectorized x86 CSR-row kernel for one vector
/// width. The grouping driver is identical to the portable kernel; only
/// the per-group accumulation is intrinsics (the auto-vectorizer's
/// lowering of the same body under `avx2`/`avx512f` measures ~2× slower
/// than baseline, see [`spmm_row_portable_impl`]).
#[cfg(target_arch = "x86_64")]
macro_rules! spmm_row_x86_impl {
    ($feat:literal, $w:expr, $loadu:ident, $set1:ident, $mul:ident, $add:ident, $storeu:ident) => {
        /// Accumulates one column group (1–4 nonzeros) into `c_row`:
        /// vector `j` chunks evaluate the portable arm's exact
        /// expression — the group terms are summed left-to-right and
        /// added to `c_row[j]` with one add — then a scalar tail does
        /// the same per element.
        #[target_feature(enable = $feat)]
        #[inline]
        unsafe fn accum(vals: &[f32], rows: &[*const f32], c_row: &mut [f32], c: usize) {
            use core::arch::x86_64::*;
            let g = vals.len();
            let mut j = 0;
            while j + $w <= c {
                let mut e = $mul($set1(vals[0]), $loadu(rows[0].add(j)));
                for t in 1..g {
                    e = $add(e, $mul($set1(vals[t]), $loadu(rows[t].add(j))));
                }
                let cp = c_row.as_mut_ptr().add(j);
                $storeu(cp, $add($loadu(cp as *const f32), e));
                j += $w;
            }
            while j < c {
                let mut e = vals[0] * *rows[0].add(j);
                for t in 1..g {
                    e += vals[t] * *rows[t].add(j);
                }
                *c_row.get_unchecked_mut(j) += e;
                j += 1;
            }
        }

        /// Hand-vectorized CSR output row; grouping contract as in the
        /// portable kernel.
        #[target_feature(enable = $feat)]
        pub unsafe fn spmm_row(
            cols: &[u32],
            vals: &[f32],
            x: &[f32],
            c_row: &mut [f32],
            inner: usize,
            c: usize,
        ) {
            let k4 = inner & !3;
            let end = cols.len();
            let mut rows: [*const f32; 4] = [core::ptr::null(); 4];
            let mut p = 0;
            while p < end {
                let col = cols[p] as usize;
                if col >= k4 {
                    break;
                }
                let group_end = (col & !3) + 4;
                let mut q = p + 1;
                while q < end && (cols[q] as usize) < group_end {
                    q += 1;
                }
                for t in 0..(q - p) {
                    rows[t] = x.as_ptr().add(cols[p + t] as usize * c);
                }
                accum(&vals[p..q], &rows[..q - p], c_row, c);
                p = q;
            }
            // Remainder region: the dense kernel adds these one at a time.
            while p < end {
                rows[0] = x.as_ptr().add(cols[p] as usize * c);
                accum(&vals[p..p + 1], &rows[..1], c_row, c);
                p += 1;
            }
        }
    };
}

/// Hand-vectorized support-restricted adjacency-gradient row, shared by
/// the AVX2 and AVX-512 tiers (baseline SSE suffices: the win comes from
/// restructuring, not width). Four stored columns ride in the four lanes
/// of one `__m128`; a 4×4 transpose turns four contiguous `x` row chunks
/// into per-`k` column vectors, so each lane accumulates its pair dot
/// with [`pair_dot`]'s exact association: per 4-wide `k` group
/// `acc += ((g₀v₀ + g₁v₁) + g₂v₂) + g₃v₃`, remainder `k` one at a time,
/// batches outer-to-inner. Leftover columns (< 4) fall back to
/// [`pair_dot`] itself.
///
/// # Safety
/// Callers must uphold the [`dadj_row`] wrapper's shape contract:
/// `dy.len() == batch·n·c`, `x.len() == batch·m·c`, `out_row.len() == m`,
/// `i < n`, and every entry of `cols` below `m`. SSE2 is baseline on
/// x86_64, so no feature check is needed.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub unsafe fn dadj_row_x86(
    dy: &[f32],
    x: &[f32],
    i: usize,
    cols: &[u32],
    out_row: &mut [f32],
    batch: usize,
    n: usize,
    m: usize,
    c: usize,
) {
    use core::arch::x86_64::*;
    let mut p = 0;
    while p + 4 <= cols.len() {
        let j = [
            cols[p] as usize,
            cols[p + 1] as usize,
            cols[p + 2] as usize,
            cols[p + 3] as usize,
        ];
        let mut acc = _mm_setzero_ps();
        for b in 0..batch {
            let g = dy.as_ptr().add((b * n + i) * c);
            let xr = [
                x.as_ptr().add((b * m + j[0]) * c),
                x.as_ptr().add((b * m + j[1]) * c),
                x.as_ptr().add((b * m + j[2]) * c),
                x.as_ptr().add((b * m + j[3]) * c),
            ];
            let mut k = 0;
            while k + 4 <= c {
                let gv = _mm_loadu_ps(g.add(k));
                let r0 = _mm_loadu_ps(xr[0].add(k));
                let r1 = _mm_loadu_ps(xr[1].add(k));
                let r2 = _mm_loadu_ps(xr[2].add(k));
                let r3 = _mm_loadu_ps(xr[3].add(k));
                // 4×4 transpose: ck = [x_j0[k+t], x_j1[k+t], x_j2[k+t], x_j3[k+t]].
                let t0 = _mm_unpacklo_ps(r0, r1);
                let t1 = _mm_unpacklo_ps(r2, r3);
                let t2 = _mm_unpackhi_ps(r0, r1);
                let t3 = _mm_unpackhi_ps(r2, r3);
                let c0 = _mm_movelh_ps(t0, t1);
                let c1 = _mm_movehl_ps(t1, t0);
                let c2 = _mm_movelh_ps(t2, t3);
                let c3 = _mm_movehl_ps(t3, t2);
                let g0 = _mm_shuffle_ps(gv, gv, 0b00_00_00_00);
                let g1 = _mm_shuffle_ps(gv, gv, 0b01_01_01_01);
                let g2 = _mm_shuffle_ps(gv, gv, 0b10_10_10_10);
                let g3 = _mm_shuffle_ps(gv, gv, 0b11_11_11_11);
                let mut e = _mm_mul_ps(g0, c0);
                e = _mm_add_ps(e, _mm_mul_ps(g1, c1));
                e = _mm_add_ps(e, _mm_mul_ps(g2, c2));
                e = _mm_add_ps(e, _mm_mul_ps(g3, c3));
                acc = _mm_add_ps(acc, e);
                k += 4;
            }
            while k < c {
                let gk = _mm_set1_ps(*g.add(k));
                let xk = _mm_set_ps(*xr[3].add(k), *xr[2].add(k), *xr[1].add(k), *xr[0].add(k));
                acc = _mm_add_ps(acc, _mm_mul_ps(gk, xk));
                k += 1;
            }
        }
        let mut lanes = [0.0f32; 4];
        _mm_storeu_ps(lanes.as_mut_ptr(), acc);
        for t in 0..4 {
            out_row[j[t]] = lanes[t];
        }
        p += 4;
    }
    while p < cols.len() {
        let j = cols[p] as usize;
        out_row[j] = pair_dot(dy, x, i, j, batch, n, m, c);
        p += 1;
    }
}

/// Generates the register-blocked plain-Rust GEMM body: 4×16 accumulator
/// tiles with the scalar association, auto-vectorized under the tier's
/// target feature. Used as the NEON tier's `matmul` (intrinsics-free so
/// it compiles — and is unit-tested — on every arch via the scalar
/// instantiation).
macro_rules! blocked_matmul_impl {
    ($(#[$attr:meta])*) => {
        /// `C += A·B` with 4-row × 16-column register tiles, `A[i, kk]`
        /// at `a[i·rs + kk·ks]`; edges fall back to the scalar block
        /// kernel. Per element this performs the scalar kernel's exact
        /// operation sequence: the accumulator is initialized from `C`,
        /// each 4-wide k group is summed left-to-right and added with one
        /// add, remainder k single adds, one store at the end.
        #[allow(dead_code, clippy::too_many_arguments)]
        $(#[$attr])*
        pub unsafe fn matmul_blocked(
            a: &[f32],
            rs: usize,
            ks: usize,
            b: &[f32],
            c: &mut [f32],
            m: usize,
            k: usize,
            n: usize,
        ) {
            const MR: usize = 4;
            const NR: usize = 16;
            let mut i = 0;
            while i + MR <= m {
                let mut j = 0;
                while j + NR <= n {
                    let mut acc = [[0.0f32; NR]; MR];
                    for r in 0..MR {
                        acc[r].copy_from_slice(&c[(i + r) * n + j..(i + r) * n + j + NR]);
                    }
                    let mut kk = 0;
                    while kk + 4 <= k {
                        for r in 0..MR {
                            let a_at = |t: usize| a[(i + r) * rs + (kk + t) * ks];
                            let (a0, a1, a2, a3) = (a_at(0), a_at(1), a_at(2), a_at(3));
                            let b0 = &b[kk * n + j..kk * n + j + NR];
                            let b1 = &b[(kk + 1) * n + j..(kk + 1) * n + j + NR];
                            let b2 = &b[(kk + 2) * n + j..(kk + 2) * n + j + NR];
                            let b3 = &b[(kk + 3) * n + j..(kk + 3) * n + j + NR];
                            let ar = &mut acc[r];
                            for jj in 0..NR {
                                ar[jj] += a0 * b0[jj] + a1 * b1[jj] + a2 * b2[jj] + a3 * b3[jj];
                            }
                        }
                        kk += 4;
                    }
                    while kk < k {
                        for r in 0..MR {
                            let av = a[(i + r) * rs + kk * ks];
                            let b0 = &b[kk * n + j..kk * n + j + NR];
                            let ar = &mut acc[r];
                            for jj in 0..NR {
                                ar[jj] += av * b0[jj];
                            }
                        }
                        kk += 1;
                    }
                    for r in 0..MR {
                        c[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(&acc[r]);
                    }
                    j += NR;
                }
                if j < n {
                    super::scalar_block(a, rs, ks, b, c, k, n, (i, i + MR), (j, n));
                }
                i += MR;
            }
            if i < m {
                super::scalar_block(a, rs, ks, b, c, k, n, (i, m), (0, n));
            }
        }
    };
}

/// Generates an x86 tier's register-blocked GEMM: `MR`-row × two-vector
/// accumulator tiles (`$rows` lists every row count `MR..=1`), with the
/// tier's vector helpers (`Vf`, `Mask`, `W`, `zero`, `splat`, `mul`,
/// `add`, `lane_mask`, `load`, `store`) in scope at the call site.
///
/// Edges run the same tile body: a row remainder is a tile instantiated
/// for fewer rows, and a column remainder masks the last vector's lanes,
/// which are then neither read from `B`/`C` nor stored. `A` is only ever
/// broadcast, so it is addressed by `(rs, ks)` strides and `Aᵀ` is read
/// in place. The k axis is walked in `KC`-row blocks (a multiple of 4,
/// so the 4-wide groups never straddle a block) that keep the `B` panel
/// cache-resident across row panels; `C` holds the running sum between
/// blocks, which stores and reloads it exactly.
#[cfg(target_arch = "x86_64")]
macro_rules! gemm_x86_impl {
    ($feat:literal, [$($rows:literal),+]) => {
        /// k rows per cache block.
        const KC: usize = 256;

        /// One `R`-row × `NV`-vector tile of `C += A·B`. With `MASKED`
        /// the last vector covers only the lanes in `mask`; with `UNIT_K`
        /// the k stride is the constant 1 (a row-major `A`), which frees
        /// the registers runtime k offsets would hold. Per lane:
        /// `acc = c; acc += ((a0·b0 + a1·b1) + a2·b2) + a3·b3` per 4-wide
        /// k group, single `acc += a·b` for the remainder — the scalar
        /// association, no FMA.
        ///
        /// # Safety
        /// `a[r·rs + kk·ks]` for `r < R, kk < k`, `b[kk·n + j]` and
        /// `c[r·n + j]` for every active column `j` of the tile must be
        /// in bounds, and the CPU must support the tier's feature.
        #[target_feature(enable = $feat)]
        #[inline]
        #[allow(clippy::too_many_arguments)]
        unsafe fn tile<const R: usize, const NV: usize, const MASKED: bool, const UNIT_K: bool>(
            a: *const f32,
            rs: usize,
            ks: usize,
            b: *const f32,
            c: *mut f32,
            k: usize,
            n: usize,
            mask: Mask,
        ) {
            let ks = if UNIT_K { 1 } else { ks };
            let edge = |v: usize| MASKED && v + 1 == NV;
            let mut acc = [[zero(); NV]; R];
            for (r, ar) in acc.iter_mut().enumerate() {
                for (v, x) in ar.iter_mut().enumerate() {
                    *x = load(c.add(r * n + v * W), mask, edge(v));
                }
            }
            let mut kk = 0;
            while kk + 4 <= k {
                let mut bk = [[zero(); NV]; 4];
                for (t, bt) in bk.iter_mut().enumerate() {
                    for (v, x) in bt.iter_mut().enumerate() {
                        *x = load(b.add((kk + t) * n + v * W), mask, edge(v));
                    }
                }
                for (r, ar) in acc.iter_mut().enumerate() {
                    let ap = a.add(r * rs + kk * ks);
                    let a0 = splat(*ap);
                    let a1 = splat(*ap.add(ks));
                    let a2 = splat(*ap.add(2 * ks));
                    let a3 = splat(*ap.add(3 * ks));
                    for (v, x) in ar.iter_mut().enumerate() {
                        let mut g = mul(a0, bk[0][v]);
                        g = add(g, mul(a1, bk[1][v]));
                        g = add(g, mul(a2, bk[2][v]));
                        g = add(g, mul(a3, bk[3][v]));
                        *x = add(*x, g);
                    }
                }
                kk += 4;
            }
            while kk < k {
                let mut bk = [zero(); NV];
                for (v, x) in bk.iter_mut().enumerate() {
                    *x = load(b.add(kk * n + v * W), mask, edge(v));
                }
                for (r, ar) in acc.iter_mut().enumerate() {
                    let av = splat(*a.add(r * rs + kk * ks));
                    for (v, x) in ar.iter_mut().enumerate() {
                        *x = add(*x, mul(av, bk[v]));
                    }
                }
                kk += 1;
            }
            for (r, ar) in acc.iter().enumerate() {
                for (v, x) in ar.iter().enumerate() {
                    store(c.add(r * n + v * W), *x, mask, edge(v));
                }
            }
        }

        /// All of one `R`-row panel's columns: full two-vector tiles, then
        /// one masked, single-vector or masked single-vector edge tile.
        ///
        /// # Safety
        /// As [`tile`], for all `n` columns of the panel.
        #[target_feature(enable = $feat)]
        #[inline]
        #[allow(clippy::too_many_arguments)]
        unsafe fn panel<const R: usize, const UNIT_K: bool>(
            a: *const f32,
            rs: usize,
            ks: usize,
            b: *const f32,
            c: *mut f32,
            k: usize,
            n: usize,
        ) {
            let full = lane_mask(W);
            let mut j = 0;
            while j + 2 * W <= n {
                tile::<R, 2, false, UNIT_K>(a, rs, ks, b.add(j), c.add(j), k, n, full);
                j += 2 * W;
            }
            let (b, c) = (b.add(j), c.add(j));
            match n - j {
                0 => {}
                rem if rem < W => {
                    tile::<R, 1, true, UNIT_K>(a, rs, ks, b, c, k, n, lane_mask(rem))
                }
                rem if rem == W => tile::<R, 1, false, UNIT_K>(a, rs, ks, b, c, k, n, full),
                rem => tile::<R, 2, true, UNIT_K>(a, rs, ks, b, c, k, n, lane_mask(rem - W)),
            }
        }

        /// `C[m×n] += A·B` with `A[i, kk]` at `a[i·rs + kk·ks]`.
        ///
        /// # Safety
        /// The CPU must support the tier's feature, and `a`, `b`, `c`
        /// must cover the extents the wrapper [`super::matmul_strided`]
        /// asserts.
        #[target_feature(enable = $feat)]
        #[allow(clippy::too_many_arguments)]
        pub unsafe fn matmul(
            a: &[f32],
            rs: usize,
            ks: usize,
            b: &[f32],
            c: &mut [f32],
            m: usize,
            k: usize,
            n: usize,
        ) {
            let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
            if ks == 1 {
                panels::<true>(ap, rs, ks, bp, cp, m, k, n);
            } else {
                panels::<false>(ap, rs, ks, bp, cp, m, k, n);
            }
        }

        /// The k-block and row-panel walk of [`matmul`].
        ///
        /// # Safety
        /// As [`matmul`].
        #[target_feature(enable = $feat)]
        #[allow(clippy::too_many_arguments)]
        unsafe fn panels<const UNIT_K: bool>(
            ap: *const f32,
            rs: usize,
            ks: usize,
            bp: *const f32,
            cp: *mut f32,
            m: usize,
            k: usize,
            n: usize,
        ) {
            const MR: usize = [$($rows),+][0];
            let mut k0 = 0;
            while k0 < k {
                let kc = KC.min(k - k0);
                let (ak, bk) = (ap.add(k0 * ks), bp.add(k0 * n));
                let mut i = 0;
                while i < m {
                    let rows = MR.min(m - i);
                    let (ai, ci) = (ak.add(i * rs), cp.add(i * n));
                    match rows {
                        $($rows => panel::<$rows, UNIT_K>(ai, rs, ks, bk, ci, kc, n),)+
                        _ => unreachable!("row panels hold 1..=MR rows"),
                    }
                    i += rows;
                }
                k0 += kc;
            }
        }
    };
}

/// The portable reference tier — the pre-SIMD loops, verbatim.
#[allow(clippy::missing_safety_doc)]
pub(crate) mod scalar {
    simd_impls!();
    spmm_row_portable_impl!();
    spmm_row_grouped_portable_impl!();
    spmm_row_grouped_batched_portable_impl!();
    dadj_row_portable_impl!();
    blocked_matmul_impl!();

    /// The original serial i-k-j kernel: `C += A·B` over the full range.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn matmul(
        a: &[f32],
        rs: usize,
        ks: usize,
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        super::scalar_block(a, rs, ks, b, c, k, n, (0, m), (0, n));
    }
}

/// aarch64 NEON tier: the shared bodies compiled with 128-bit vectors.
#[cfg(target_arch = "aarch64")]
#[allow(clippy::missing_safety_doc)]
pub(crate) mod neon {
    simd_impls!(#[target_feature(enable = "neon")]);
    spmm_row_portable_impl!(#[target_feature(enable = "neon")]);
    spmm_row_grouped_portable_impl!(#[target_feature(enable = "neon")]);
    spmm_row_grouped_batched_portable_impl!(#[target_feature(enable = "neon")]);
    dadj_row_portable_impl!(#[target_feature(enable = "neon")]);
    blocked_matmul_impl!(#[target_feature(enable = "neon")]);
    pub use self::matmul_blocked as matmul;
}

/// x86_64 AVX2 tier: shared bodies under `avx2`, plus a hand-written
/// 4×16 intrinsics GEMM microkernel (two ymm accumulators per row).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::missing_safety_doc)]
pub(crate) mod avx2 {
    use std::arch::x86_64::*;

    simd_impls!(#[target_feature(enable = "avx2")]);
    spmm_row_x86_impl!(
        "avx2",
        8,
        _mm256_loadu_ps,
        _mm256_set1_ps,
        _mm256_mul_ps,
        _mm256_add_ps,
        _mm256_storeu_ps
    );
    spmm_row_grouped_x86_impl!(
        "avx2",
        8,
        _mm256_loadu_ps,
        _mm256_set1_ps,
        _mm256_mul_ps,
        _mm256_add_ps,
        _mm256_storeu_ps
    );
    // Batch block of 2: 2 slabs × 2 ymm of j is 4 live accumulators,
    // leaving headroom in the 16 ymm registers for the group terms.
    spmm_row_grouped_batched_x86_impl!(
        "avx2",
        8,
        2,
        _mm256_loadu_ps,
        _mm256_set1_ps,
        _mm256_mul_ps,
        _mm256_add_ps,
        _mm256_storeu_ps
    );
    pub use super::dadj_row_x86 as dadj_row;

    type Vf = __m256;
    /// Lane mask in `_mm256_maskload_ps` form: lane `l` active iff its
    /// 32-bit element has the sign bit set.
    type Mask = __m256i;
    const W: usize = 8;

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn zero() -> Vf {
        _mm256_setzero_ps()
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn splat(x: f32) -> Vf {
        _mm256_set1_ps(x)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn mul(x: Vf, y: Vf) -> Vf {
        _mm256_mul_ps(x, y)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn add(x: Vf, y: Vf) -> Vf {
        _mm256_add_ps(x, y)
    }
    /// The first `lanes` (0..=W) lanes.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn lane_mask(lanes: usize) -> Mask {
        _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
    }
    /// A full vector at `p`, or only `mask`'s lanes (the rest read as
    /// zero and are not touched in memory) when `masked`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load(p: *const f32, mask: Mask, masked: bool) -> Vf {
        if masked {
            _mm256_maskload_ps(p, mask)
        } else {
            _mm256_loadu_ps(p)
        }
    }
    /// Stores `v` at `p`, only `mask`'s lanes when `masked`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn store(p: *mut f32, v: Vf, mask: Mask, masked: bool) {
        if masked {
            _mm256_maskstore_ps(p, mask, v)
        } else {
            _mm256_storeu_ps(p, v)
        }
    }

    // 4×16 tiles: 8 ymm accumulators, 8 for the k group's B vectors.
    gemm_x86_impl!("avx2", [4, 3, 2, 1]);
}

/// x86_64 AVX-512 tier: shared bodies under `avx512f`, plus the 8×32
/// intrinsics GEMM microkernel (two zmm accumulators per row).
#[cfg(target_arch = "x86_64")]
#[allow(clippy::missing_safety_doc)]
pub(crate) mod avx512 {
    use std::arch::x86_64::*;

    simd_impls!(#[target_feature(enable = "avx512f")]);
    spmm_row_x86_impl!(
        "avx512f",
        16,
        _mm512_loadu_ps,
        _mm512_set1_ps,
        _mm512_mul_ps,
        _mm512_add_ps,
        _mm512_storeu_ps
    );
    spmm_row_grouped_x86_impl!(
        "avx512f",
        16,
        _mm512_loadu_ps,
        _mm512_set1_ps,
        _mm512_mul_ps,
        _mm512_add_ps,
        _mm512_storeu_ps
    );
    // Batch block of 4: 4 slabs × 2 zmm of j is 8 live accumulators
    // plus 8 group terms — comfortable in the 32 zmm registers.
    spmm_row_grouped_batched_x86_impl!(
        "avx512f",
        16,
        4,
        _mm512_loadu_ps,
        _mm512_set1_ps,
        _mm512_mul_ps,
        _mm512_add_ps,
        _mm512_storeu_ps
    );
    pub use super::dadj_row_x86 as dadj_row;

    type Vf = __m512;
    type Mask = __mmask16;
    const W: usize = 16;

    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn zero() -> Vf {
        _mm512_setzero_ps()
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn splat(x: f32) -> Vf {
        _mm512_set1_ps(x)
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn mul(x: Vf, y: Vf) -> Vf {
        _mm512_mul_ps(x, y)
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn add(x: Vf, y: Vf) -> Vf {
        _mm512_add_ps(x, y)
    }
    /// The first `lanes` (0..=W) lanes.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn lane_mask(lanes: usize) -> Mask {
        ((1u32 << lanes) - 1) as Mask
    }
    /// A full vector at `p`, or only `mask`'s lanes (the rest read as
    /// zero and are not touched in memory) when `masked`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn load(p: *const f32, mask: Mask, masked: bool) -> Vf {
        if masked {
            _mm512_maskz_loadu_ps(mask, p)
        } else {
            _mm512_loadu_ps(p)
        }
    }
    /// Stores `v` at `p`, only `mask`'s lanes when `masked`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn store(p: *mut f32, v: Vf, mask: Mask, masked: bool) {
        if masked {
            _mm512_mask_storeu_ps(p, mask, v)
        } else {
            _mm512_storeu_ps(p, v)
        }
    }

    // 8×32 tiles: 16 zmm accumulators, 8 for the k group's B vectors.
    gemm_x86_impl!("avx512f", [8, 7, 6, 5, 4, 3, 2, 1]);
}

/// Routes a call to the active tier's variant. Safety: a non-scalar arm
/// is only reachable when the cached probe confirmed the feature (the
/// dispatch clamp in [`simd_tier`]), which is exactly the contract the
/// `#[target_feature]` functions require.
macro_rules! tier_dispatch {
    ($fn:ident ( $($arg:expr),* )) => {{
        match simd_tier() {
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx512 => unsafe { avx512::$fn($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => unsafe { avx2::$fn($($arg),*) },
            #[cfg(target_arch = "aarch64")]
            SimdTier::Neon => unsafe { neon::$fn($($arg),*) },
            _ => unsafe { scalar::$fn($($arg),*) },
        }
    }};
}

/// `C[m×n] += A[m×k] · B[k×n]` through the active tier's blocked kernel.
/// Callers pass a zeroed (or partial-result) `c`; all tiers are
/// bit-identical to the scalar serial kernel.
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    matmul_strided(a, k, 1, b, c, m, k, n)
}

/// [`matmul`] with `A[i, kk]` read at `a[i·row_stride + kk·k_stride]`:
/// `(k, 1)` is a row-major `A`, and `(1, lda)` reads a row-major
/// `Aᵀ` (`k × lda`) in place, as `matmul_tn` does. Bit-identical to
/// `matmul` on the materialized `A` on every tier.
///
/// # Panics
/// When `a`, `b` or `c` is too short for the shape (the x86 kernels
/// read and write through raw pointers, so this is checked always).
#[allow(clippy::too_many_arguments)]
pub fn matmul_strided(
    a: &[f32],
    row_stride: usize,
    k_stride: usize,
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    assert!(a.len() > (m - 1) * row_stride + (k - 1) * k_stride, "matmul: A too short");
    assert!(b.len() >= k * n && c.len() >= m * n, "matmul: B or C too short");
    tier_dispatch!(matmul(a, row_stride, k_stride, b, c, m, k, n))
}

/// Elementwise `out = a ⊕ b` over equal-length slices.
pub fn binary(op: BinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), out.len());
    debug_assert_eq!(b.len(), out.len());
    tier_dispatch!(binary(op, a, b, out))
}

/// Elementwise `out = src ⊕ s` (or `s ⊕ src` when `scalar_lhs`).
pub fn binary_scalar(op: BinOp, src: &[f32], s: f32, out: &mut [f32], scalar_lhs: bool) {
    debug_assert_eq!(src.len(), out.len());
    tier_dispatch!(binary_scalar(op, src, s, out, scalar_lhs))
}

/// Elementwise unary `out = op(src)`.
pub fn unary(op: UnOp, src: &[f32], out: &mut [f32]) {
    debug_assert_eq!(src.len(), out.len());
    tier_dispatch!(unary(op, src, out))
}

/// `dst += alpha · src`.
pub fn axpy(alpha: f32, src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    tier_dispatch!(axpy(alpha, src, dst))
}

/// `dst += src` (the axis-sum accumulation step; fn-pointer compatible
/// with `reduce_axis`'s fast path).
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(src.len(), dst.len());
    tier_dispatch!(add_assign(dst, src))
}

/// `dst *= s`.
pub fn scale_assign(dst: &mut [f32], s: f32) {
    tier_dispatch!(scale_assign(dst, s))
}

/// Entmax-1.5 output map into an f64 buffer.
pub fn entmax15_map(z: &[f32], shift: f64, tau: f64, p: &mut [f64]) {
    debug_assert_eq!(z.len(), p.len());
    tier_dispatch!(entmax15_map(z, shift, tau, p))
}

/// `p /= total` over an f64 row.
pub fn div_assign_f64(p: &mut [f64], total: f64) {
    tier_dispatch!(div_assign_f64(p, total))
}

/// Entmax backward output map `out_i = (s_i · (g_i − mean)) as f32`.
pub fn entmax_backward_out(s: &[f64], grad_p: &[f32], mean: f64, out: &mut [f32]) {
    debug_assert_eq!(s.len(), out.len());
    debug_assert_eq!(grad_p.len(), out.len());
    tier_dispatch!(entmax_backward_out(s, grad_p, mean, out))
}

/// One CSR output row through the active tier (see the macro body for
/// the grouping contract).
pub fn spmm_row(cols: &[u32], vals: &[f32], x: &[f32], c_row: &mut [f32], inner: usize, c: usize) {
    debug_assert_eq!(cols.len(), vals.len());
    tier_dispatch!(spmm_row(cols, vals, x, c_row, inner, c))
}

/// One CSR output row from pre-decoded column groups through the active
/// tier. Each `groups` entry packs `(start << 3) | len` (`len` 1–4)
/// over `cols`/`vals`; encode aligned-region runs sharing `⌊col/4⌋` as
/// one group and remainder nonzeros as singletons — [`decode_groups`]
/// produces exactly this — and the result is bit-identical to
/// [`spmm_row`] on the same nonzeros. Callers amortize the decode
/// across batches; the x86 tiers additionally keep the output chunk in
/// a register across all groups.
pub fn spmm_row_grouped(
    groups: &[u64],
    cols: &[u32],
    vals: &[f32],
    x: &[f32],
    c_row: &mut [f32],
    c: usize,
) {
    debug_assert_eq!(cols.len(), vals.len());
    debug_assert!(groups
        .iter()
        .all(|&g| ((g >> 3) as usize) + ((g & 7) as usize).max(1) <= cols.len() && (g & 7) >= 1));
    tier_dispatch!(spmm_row_grouped(groups, cols, vals, x, c_row, c))
}

/// All batch slabs of one CSR output row from pre-decoded column groups
/// through the active tier: slab `b` of the output accumulates
/// `Σ_groups vals · x[b]` exactly as [`spmm_row_grouped`] would, but the
/// group walk and value broadcasts are amortized across batch blocks on
/// the x86 tiers (the batch axis only selects independent output
/// elements, so blocking cannot change any element's add sequence).
///
/// # Safety
/// `x` must be valid for reads at `b * x_stride + col * c + j` and `out`
/// valid for reads/writes at `b * out_stride + j` for all `b < batch`,
/// referenced `col`, and `j < c`; `out` must not alias `x`, `cols`,
/// `vals`, or `groups`. Callers running concurrently must own disjoint
/// `out` rows.
#[allow(clippy::too_many_arguments)]
pub unsafe fn spmm_row_grouped_batched(
    groups: &[u64],
    cols: &[u32],
    vals: &[f32],
    x: *const f32,
    x_stride: usize,
    out: *mut f32,
    out_stride: usize,
    batch: usize,
    inner: usize,
    c: usize,
) {
    debug_assert_eq!(cols.len(), vals.len());
    tier_dispatch!(spmm_row_grouped_batched(
        groups, cols, vals, x, x_stride, out, out_stride, batch, inner, c
    ))
}

/// Decodes the column groups of `cols[p0..p1]` for a contraction axis of
/// `inner` rows into `out` (appending): runs of nonzeros sharing
/// `⌊col/4⌋` within the 4-aligned region `[0, 4⌊inner/4⌋)` become one
/// packed `(start << 3) | len` entry, remainder columns one singleton
/// entry each — the exact grouping [`spmm_row`] decodes inline, in the
/// format [`spmm_row_grouped`] consumes. `start` is relative to the
/// same slice base as `cols` itself.
pub fn decode_groups(cols: &[u32], p0: usize, p1: usize, inner: usize, out: &mut Vec<u64>) {
    let k4 = inner & !3;
    let mut p = p0;
    while p < p1 {
        let col = cols[p] as usize;
        let len = if col < k4 {
            let group_end = (col & !3) + 4;
            let mut q = p + 1;
            while q < p1 && (cols[q] as usize) < group_end {
                q += 1;
            }
            q - p
        } else {
            1
        };
        out.push(((p as u64) << 3) | len as u64);
        p += len;
    }
}

/// Support-restricted adjacency-gradient row through the active tier:
/// `out_row[j] = Σ_b Σ_k dy[b,i,k] · x[b,j,k]` for each stored column
/// `j` in `cols`, with [`pair_dot`]'s exact association on every tier.
/// Columns not in `cols` are left untouched.
#[allow(clippy::too_many_arguments)]
pub fn dadj_row(
    dy: &[f32],
    x: &[f32],
    i: usize,
    cols: &[u32],
    out_row: &mut [f32],
    batch: usize,
    n: usize,
    m: usize,
    c: usize,
) {
    debug_assert_eq!(dy.len(), batch * n * c);
    debug_assert_eq!(x.len(), batch * m * c);
    debug_assert_eq!(out_row.len(), m);
    debug_assert!(i < n || batch == 0);
    tier_dispatch!(dadj_row(dy, x, i, cols, out_row, batch, n, m, c))
}

/// Fused GRU reset-gate apply `out = σ(pre) · h`.
pub fn sigmoid_mul(pre: &[f32], h: &[f32], out: &mut [f32]) {
    debug_assert_eq!(pre.len(), out.len());
    debug_assert_eq!(h.len(), out.len());
    tier_dispatch!(sigmoid_mul(pre, h, out))
}

/// Fused GRU output combine `out = σ(zp)·h + (1−σ(zp))·tanh(hc)`.
pub fn gru_combine(zp: &[f32], hc: &[f32], h: &[f32], out: &mut [f32]) {
    debug_assert_eq!(zp.len(), out.len());
    debug_assert_eq!(hc.len(), out.len());
    debug_assert_eq!(h.len(), out.len());
    tier_dispatch!(gru_combine(zp, hc, h, out))
}

/// Fused diffusion epilogue `out[r] = (ax[r] + x[r]) · deg[r mod n]`
/// over `out.len() / c` rows of `c` features.
pub fn diffuse_epilogue(ax: &[f32], x: &[f32], deg: &[f32], out: &mut [f32], c: usize) {
    debug_assert_eq!(ax.len(), out.len());
    debug_assert_eq!(x.len(), out.len());
    debug_assert!(c > 0 && out.len().is_multiple_of(c));
    debug_assert!(!deg.is_empty() && (out.len() / c).is_multiple_of(deg.len()));
    tier_dispatch!(diffuse_epilogue(ax, x, deg, out, c))
}

/// In-place broadcast bias add `y[r,j] += bias[j]`.
pub fn bias_add(y: &mut [f32], bias: &[f32]) {
    debug_assert!(!bias.is_empty() && y.len().is_multiple_of(bias.len()));
    tier_dispatch!(bias_add(y, bias))
}

/// Fused affine `out = (src + a) · m` (normalize order).
pub fn add_then_scale(src: &[f32], a: f32, m: f32, out: &mut [f32]) {
    debug_assert_eq!(src.len(), out.len());
    tier_dispatch!(add_then_scale(src, a, m, out))
}

/// Fused affine `out = src · m + a` (inverse-transform order).
pub fn scale_then_add(src: &[f32], m: f32, a: f32, out: &mut [f32]) {
    debug_assert_eq!(src.len(), out.len());
    tier_dispatch!(scale_then_add(src, m, a, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{set_simd_mode, SimdMode};
    use crate::rng::Rng64;

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = Rng64::new(seed);
        (0..len).map(|_| rng.next_f32() * 4.0 - 2.0).collect()
    }

    /// Runs `f` under every mode the hardware can express and asserts the
    /// outputs are bit-identical to the forced-scalar run.
    fn assert_all_tiers_match(mut f: impl FnMut() -> Vec<f32>, what: &str) {
        let prev = set_simd_mode(SimdMode::Scalar);
        let reference = f();
        for mode in [SimdMode::Neon, SimdMode::Avx2, SimdMode::Avx512, SimdMode::Auto] {
            set_simd_mode(mode);
            let got = f();
            assert_eq!(reference.len(), got.len(), "{what}: {mode:?} length");
            for (i, (r, g)) in reference.iter().zip(&got).enumerate() {
                assert_eq!(
                    r.to_bits(),
                    g.to_bits(),
                    "{what}: {mode:?} diverged from scalar at {i} ({r} vs {g})"
                );
            }
        }
        set_simd_mode(prev);
    }

    #[test]
    fn matmul_tiers_bit_identical_odd_shapes() {
        let mut shapes = vec![(1, 1, 1), (3, 7, 17), (17, 63, 65), (65, 65, 63), (8, 4, 32)];
        // Training's narrow shapes: every row remainder of the 8- and
        // 4-row panels, masked column tiles from 1 lane to one short of
        // two vectors, and k past the 256-row cache block with a k
        // remainder.
        for m in [3, 7, 35] {
            for n in [1, 2, 16, 35, 47] {
                for k in [1, 6, 35, 2051] {
                    shapes.push((m, k, n));
                }
            }
        }
        for &(m, k, n) in &shapes {
            let a = rand_vec(m * k, 1 + m as u64);
            let b = rand_vec(k * n, 2 + n as u64);
            assert_all_tiers_match(
                || {
                    let mut c = vec![0.0f32; m * n];
                    matmul(&a, &b, &mut c, m, k, n);
                    c
                },
                &format!("matmul {m}x{k}x{n}"),
            );
        }
    }

    #[test]
    fn matmul_tn_reads_a_transposed_in_place_on_every_tier() {
        use crate::Tensor;
        let t = |dims: &[usize], seed: u64| {
            Tensor::from_vec(rand_vec(dims.iter().product(), seed), dims)
        };
        // Shared-lhs and per-batch products, each above the 2¹⁸-flop
        // cutover where the tn operand used to be packed; the last has
        // m·n ≥ 64 Ki, so a pooled run splits its rows into chunks that
        // start at i0 ≠ 0.
        let cases: [(&[usize], &[usize]); 4] = [
            (&[300, 35], &[2, 300, 47]),
            (&[2, 300, 35], &[2, 300, 16]),
            (&[4, 129, 7], &[4, 129, 35]),
            (&[64, 300], &[64, 235]),
        ];
        for (i, (ad, bd)) in cases.into_iter().enumerate() {
            let (a, b) = (t(ad, 41 + i as u64), t(bd, 51 + i as u64));
            for serial in [false, true] {
                assert_all_tiers_match(
                    || {
                        let run = || (a.matmul_tn(&b), a.transpose_last2().matmul(&b));
                        let (got, want) = if serial { crate::pool::run_serial(run) } else { run() };
                        assert_eq!(got.dims(), want.dims());
                        for (j, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                            assert_eq!(g.to_bits(), w.to_bits(), "tn vs materialized at {j}");
                        }
                        got.as_slice().to_vec()
                    },
                    &format!("matmul_tn {ad:?}x{bd:?} serial={serial}"),
                );
            }
        }
        // The kernel seam the pool uses: a row chunk `[i0, m)` reads `Aᵀ`
        // from column `i0` on, whatever the host's thread count.
        let (p, m, n) = (300, 35, 47);
        let a = rand_vec(p * m, 61);
        let b = rand_vec(p * n, 62);
        assert_all_tiers_match(
            || {
                let mut whole = vec![0.0f32; m * n];
                matmul_strided(&a, 1, m, &b, &mut whole, m, p, n);
                for i0 in [1, 8, 13] {
                    let mut c = vec![0.0f32; m * n];
                    let (top, bottom) = c.split_at_mut(i0 * n);
                    matmul_strided(&a, 1, m, &b, top, i0, p, n);
                    matmul_strided(&a[i0..], 1, m, &b, bottom, m - i0, p, n);
                    for (j, (x, y)) in c.iter().zip(&whole).enumerate() {
                        assert_eq!(x.to_bits(), y.to_bits(), "chunk at i0={i0}, element {j}");
                    }
                }
                whole
            },
            "matmul_strided tn row chunks",
        );
    }

    #[test]
    fn blocked_matmul_matches_scalar_reference() {
        // The NEON tier's kernel body, instantiated without a target
        // feature, must agree with the original serial kernel everywhere.
        for &(m, k, n) in &[(1, 3, 5), (4, 4, 16), (7, 9, 33), (65, 17, 63)] {
            let a = rand_vec(m * k, 7 + k as u64);
            let b = rand_vec(k * n, 8 + m as u64);
            let mut c0 = vec![0.0f32; m * n];
            let mut c1 = vec![0.0f32; m * n];
            unsafe {
                scalar::matmul(&a, k, 1, &b, &mut c0, m, k, n);
                scalar::matmul_blocked(&a, k, 1, &b, &mut c1, m, k, n);
            }
            for (x, y) in c0.iter().zip(&c1) {
                assert_eq!(x.to_bits(), y.to_bits(), "({m},{k},{n})");
            }
        }
    }

    #[test]
    fn elementwise_tiers_bit_identical() {
        let a = rand_vec(1031, 3);
        let b = rand_vec(1031, 4);
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div] {
            assert_all_tiers_match(
                || {
                    let mut out = vec![0.0f32; a.len()];
                    binary(op, &a, &b, &mut out);
                    out
                },
                &format!("binary {op:?}"),
            );
            for lhs in [false, true] {
                assert_all_tiers_match(
                    || {
                        let mut out = vec![0.0f32; a.len()];
                        binary_scalar(op, &a, 0.37, &mut out, lhs);
                        out
                    },
                    &format!("binary_scalar {op:?} lhs={lhs}"),
                );
            }
        }
        for op in [UnOp::Neg, UnOp::Abs, UnOp::Sqrt, UnOp::Square] {
            assert_all_tiers_match(
                || {
                    let mut out = vec![0.0f32; a.len()];
                    unary(op, &a, &mut out);
                    out
                },
                &format!("unary {op:?}"),
            );
        }
        assert_all_tiers_match(
            || {
                let mut d = a.clone();
                axpy(0.731, &b, &mut d);
                d
            },
            "axpy",
        );
        assert_all_tiers_match(
            || {
                let mut d = a.clone();
                add_assign(&mut d, &b);
                d
            },
            "add_assign",
        );
        assert_all_tiers_match(
            || {
                let mut d = a.clone();
                scale_assign(&mut d, 1.0 / 3.0);
                d
            },
            "scale_assign",
        );
    }

    #[test]
    fn entmax_helpers_tiers_bit_identical() {
        let z = rand_vec(517, 9);
        assert_all_tiers_match(
            || {
                let mut p = vec![0.0f64; z.len()];
                entmax15_map(&z, 0.173, -0.062, &mut p);
                let total: f64 = p.iter().sum();
                div_assign_f64(&mut p, total);
                let mut out = vec![0.0f32; z.len()];
                entmax_backward_out(&p, &z, 0.021, &mut out);
                out
            },
            "entmax helpers",
        );
    }

    #[test]
    fn fused_chain_kernels_match_unfused_sequence_per_tier() {
        use crate::Tensor;
        // Odd length exercises every vector-width edge; values span both
        // sigmoid branches.
        let len = 1031usize;
        let pre = rand_vec(len, 31);
        let hc = rand_vec(len, 32);
        let h = rand_vec(len, 33);
        let t = |v: &[f32]| Tensor::from_vec(v.to_vec(), [len]);
        for mode in [
            SimdMode::Scalar,
            SimdMode::Neon,
            SimdMode::Avx2,
            SimdMode::Avx512,
            SimdMode::Auto,
        ] {
            let prev = set_simd_mode(mode);
            // σ(pre)·h vs the sigmoid → mul pair.
            let mut fused = vec![0.0f32; len];
            sigmoid_mul(&pre, &h, &mut fused);
            let unfused = t(&pre).sigmoid().mul(&t(&h));
            for (i, (f, u)) in fused.iter().zip(unfused.as_slice()).enumerate() {
                assert_eq!(f.to_bits(), u.to_bits(), "sigmoid_mul {mode:?} [{i}]");
            }
            // z·h + (1−z)·tanh(hc) vs the full unfused gate chain.
            let mut fused = vec![0.0f32; len];
            gru_combine(&pre, &hc, &h, &mut fused);
            let z = t(&pre).sigmoid();
            let ht = t(&hc).tanh();
            let unfused = z.mul(&t(&h)).add(&z.neg().add_scalar(1.0).mul(&ht));
            for (i, (f, u)) in fused.iter().zip(unfused.as_slice()).enumerate() {
                assert_eq!(f.to_bits(), u.to_bits(), "gru_combine {mode:?} [{i}]");
            }
            // (ax + x) · deg vs add → broadcast-mul (batch=2, n=7, c=?).
            let (b, n) = (2usize, 7usize);
            let c = len / (b * n);
            let rows = b * n * c;
            let deg = rand_vec(n, 34);
            let mut fused = vec![0.0f32; rows];
            diffuse_epilogue(&pre[..rows], &h[..rows], &deg, &mut fused, c);
            let ax_t = Tensor::from_vec(pre[..rows].to_vec(), [b, n, c]);
            let x_t = Tensor::from_vec(h[..rows].to_vec(), [b, n, c]);
            let deg_t = Tensor::from_vec(deg.clone(), [1, n, 1]);
            let unfused = ax_t.add(&x_t).mul(&deg_t);
            for (i, (f, u)) in fused.iter().zip(unfused.as_slice()).enumerate() {
                assert_eq!(f.to_bits(), u.to_bits(), "diffuse_epilogue {mode:?} [{i}]");
            }
            // In-place bias add vs broadcast add (odd column count).
            let nb = 13usize;
            let bias = rand_vec(nb, 35);
            let elems = (len / nb) * nb;
            let mut fused = pre[..elems].to_vec();
            bias_add(&mut fused, &bias);
            let y_t = Tensor::from_vec(pre[..elems].to_vec(), [elems / nb, nb]);
            let b_t = Tensor::from_vec(bias.clone(), [1, nb]);
            let unfused = y_t.add(&b_t);
            for (i, (f, u)) in fused.iter().zip(unfused.as_slice()).enumerate() {
                assert_eq!(f.to_bits(), u.to_bits(), "bias_add {mode:?} [{i}]");
            }
            // Affine pairs vs add_scalar/scale sequences.
            let mut fused = vec![0.0f32; len];
            add_then_scale(&pre, -0.37, 1.73, &mut fused);
            let unfused = t(&pre).add_scalar(-0.37).scale(1.73);
            for (i, (f, u)) in fused.iter().zip(unfused.as_slice()).enumerate() {
                assert_eq!(f.to_bits(), u.to_bits(), "add_then_scale {mode:?} [{i}]");
            }
            let mut fused = vec![0.0f32; len];
            scale_then_add(&pre, 1.73, -0.37, &mut fused);
            let unfused = t(&pre).scale(1.73).add_scalar(-0.37);
            for (i, (f, u)) in fused.iter().zip(unfused.as_slice()).enumerate() {
                assert_eq!(f.to_bits(), u.to_bits(), "scale_then_add {mode:?} [{i}]");
            }
            set_simd_mode(prev);
        }
        // Cross-tier identity of the fused kernels themselves.
        assert_all_tiers_match(
            || {
                let mut out = vec![0.0f32; len];
                gru_combine(&pre, &hc, &h, &mut out);
                out
            },
            "gru_combine tiers",
        );
        assert_all_tiers_match(
            || {
                let mut out = vec![0.0f32; len];
                sigmoid_mul(&pre, &h, &mut out);
                out
            },
            "sigmoid_mul tiers",
        );
    }

    #[test]
    fn spmm_row_tiers_bit_identical() {
        // A row with group sizes 1..4, a straddle of the k4 boundary and
        // remainder columns (inner=17 -> k4=16).
        let inner = 17;
        let c = 33;
        let cols: Vec<u32> = vec![0, 1, 2, 3, 5, 7, 8, 11, 12, 13, 14, 16];
        let vals = rand_vec(cols.len(), 5);
        let x = rand_vec(inner * c, 6);
        assert_all_tiers_match(
            || {
                let mut row = vec![0.0f32; c];
                spmm_row(&cols, &vals, &x, &mut row, inner, c);
                row
            },
            "spmm_row",
        );
    }

    #[test]
    fn spmm_row_grouped_tiers_bit_identical() {
        // Same nonzero pattern family as `spmm_row_tiers_bit_identical`:
        // group sizes 1..4, a k4-boundary straddle, remainder singles.
        let inner = 17;
        let cols: Vec<u32> = vec![0, 1, 2, 3, 5, 7, 8, 11, 12, 13, 14, 16];
        let vals = rand_vec(cols.len(), 15);
        let mut groups = Vec::new();
        decode_groups(&cols, 0, cols.len(), inner, &mut groups);
        // c spans sub-lane, odd, and multi-register widths.
        for &c in &[1usize, 5, 33, 64] {
            let x = rand_vec(inner * c, 16 + c as u64);
            assert_all_tiers_match(
                || {
                    // The grouped walk must replay spmm_row's exact adds.
                    let mut want = vec![0.0f32; c];
                    spmm_row(&cols, &vals, &x, &mut want, inner, c);
                    let mut row = vec![0.0f32; c];
                    spmm_row_grouped(&groups, &cols, &vals, &x, &mut row, c);
                    for (r, w) in row.iter().zip(&want) {
                        assert_eq!(r.to_bits(), w.to_bits(), "grouped vs inline c={c}");
                    }
                    row
                },
                &format!("spmm_row_grouped c={c}"),
            );
        }
    }

    #[test]
    fn spmm_row_grouped_batched_tiers_bit_identical() {
        // Batch counts cross every batch-block width (1 / 2 / 4 / tail).
        let inner = 21;
        let cols: Vec<u32> = (0..inner as u32).filter(|j| j % 5 != 2).collect();
        let vals = rand_vec(cols.len(), 17);
        let mut groups = Vec::new();
        decode_groups(&cols, 0, cols.len(), inner, &mut groups);
        for &batch in &[1usize, 2, 3, 4, 7] {
            for &c in &[3usize, 32] {
                let x = rand_vec(batch * inner * c, 18 + (batch * c) as u64);
                assert_all_tiers_match(
                    || {
                        let mut out = vec![0.0f32; batch * c];
                        unsafe {
                            spmm_row_grouped_batched(
                                &groups,
                                &cols,
                                &vals,
                                x.as_ptr(),
                                inner * c,
                                out.as_mut_ptr(),
                                c,
                                batch,
                                inner,
                                c,
                            );
                        }
                        // Blocking over the batch axis must not change any
                        // slab's add sequence vs the single-slab kernel.
                        for b in 0..batch {
                            let mut want = vec![0.0f32; c];
                            spmm_row_grouped(
                                &groups,
                                &cols,
                                &vals,
                                &x[b * inner * c..(b + 1) * inner * c],
                                &mut want,
                                c,
                            );
                            for (j, w) in want.iter().enumerate() {
                                assert_eq!(
                                    out[b * c + j].to_bits(),
                                    w.to_bits(),
                                    "batched vs single b={b} j={j}"
                                );
                            }
                        }
                        out
                    },
                    &format!("spmm_row_grouped_batched batch={batch} c={c}"),
                );
            }
        }
    }

    #[test]
    fn decode_groups_packing_invariants() {
        // inner=14: aligned region [0,12), remainder columns 12..14.
        let cols: Vec<u32> = vec![0, 1, 2, 3, 4, 6, 7, 9, 12, 13];
        let mut groups = Vec::new();
        decode_groups(&cols, 0, cols.len(), 14, &mut groups);
        let decoded: Vec<(usize, usize)> = groups
            .iter()
            .map(|&g| ((g >> 3) as usize, (g & 7) as usize))
            .collect();
        // Runs sharing ⌊col/4⌋ fuse (max 4 per group); remainder columns
        // (≥ 12) always come out as singletons.
        assert_eq!(
            decoded,
            vec![(0, 4), (4, 3), (7, 1), (8, 1), (9, 1)],
            "groups must cover {cols:?} in order"
        );
        // Groups partition the nonzeros exactly.
        let covered: usize = decoded.iter().map(|&(_, len)| len).sum();
        assert_eq!(covered, cols.len());
        // Sub-range decode is relative to the same slice base.
        let mut tail = Vec::new();
        decode_groups(&cols, 7, cols.len(), 14, &mut tail);
        assert_eq!(tail, groups[2..].to_vec());
    }

    #[test]
    fn dadj_row_tiers_bit_identical() {
        // Shapes straddle both the 4-column lane grouping and the 4-wide
        // k chunks (c=5/7 leave k singles; c=32 is all full chunks).
        for &(batch, n, m, c) in &[(1, 3, 7, 5), (3, 5, 19, 7), (2, 4, 33, 32)] {
            let dy = rand_vec(batch * n * c, 11 + c as u64);
            let x = rand_vec(batch * m * c, 12 + m as u64);
            let cols: Vec<u32> = (0..m as u32).filter(|j| j % 3 != 1).collect();
            for i in [0usize, n - 1] {
                assert_all_tiers_match(
                    || {
                        let mut row = vec![0.0f32; m];
                        dadj_row(&dy, &x, i, &cols, &mut row, batch, n, m, c);
                        row
                    },
                    &format!("dadj_row b={batch} n={n} m={m} c={c} i={i}"),
                );
            }
        }
        // Support restriction: stored columns get exactly `pair_dot`,
        // everything else keeps its prior value on every tier.
        let (batch, n, m, c) = (2usize, 3usize, 9usize, 6usize);
        let dy = rand_vec(batch * n * c, 21);
        let x = rand_vec(batch * m * c, 22);
        let cols = [1u32, 4, 6, 7];
        for mode in [SimdMode::Scalar, SimdMode::Auto] {
            let prev = set_simd_mode(mode);
            let mut row = vec![9.0f32; m];
            dadj_row(&dy, &x, 1, &cols, &mut row, batch, n, m, c);
            set_simd_mode(prev);
            for (j, v) in row.iter().enumerate() {
                if cols.contains(&(j as u32)) {
                    let want = pair_dot(&dy, &x, 1, j, batch, n, m, c);
                    assert_eq!(v.to_bits(), want.to_bits(), "{mode:?} column {j}");
                } else {
                    assert_eq!(*v, 9.0, "{mode:?} wrote column {j} outside the support");
                }
            }
        }
    }
}
