//! Matrix multiplication kernels.
//!
//! The 2-D kernel dispatches through [`simd`](crate::simd): a
//! register-blocked microkernel on AVX2/AVX-512/NEON, the i-k-j scalar
//! reference otherwise — all variants bit-identical (DESIGN.md §12).
//! Batched matmul maps the 2-D kernel over leading dimensions. Large
//! outputs split their row range (2-D) or batch range (batched) across
//! the persistent worker [`pool`](crate::pool) — no per-call thread
//! spawning — and each chunk runs the identical single-thread kernel, so
//! parallel results are bit-identical to serial ones.
//!
//! `matmul_tn` runs the blocked kernel on `A` in place: the kernel only
//! broadcasts `A` elements, so it reads `Aᵀ` by strides (stride 1 along
//! output rows, `m` along k) with no transpose. `matmul_nt` keeps its
//! transpose-free dot-product kernel for small products, but once a
//! product is large enough ([`PACK_MIN_FLOPS`]) it *packs* `Bᵀ` — the
//! operand the kernel loads as vectors — into a scratch buffer (a plain
//! blocked transpose, invisible to the obs counters and the allocator's
//! live/peak audit) and runs the same blocked GEMM. Every path performs
//! the scalar kernel's 4-wide k-group accumulation per output element,
//! so all are bit-identical.

use crate::alloc;
use crate::dispatch;
use crate::pool;
use crate::simd;
use crate::tensor::Tensor;
use sagdfn_obs as obs;

/// Below this many output elements the parallel path isn't worth the
/// pool round-trip.
const PARALLEL_THRESHOLD: usize = 64 * 1024;

/// Below this many *total* output elements a batched matmul stays serial.
const BATCH_PARALLEL_THRESHOLD: usize = 32 * 1024;

/// Tile edge of the cache-blocked transpose kernel (32² f32 = 4 KiB,
/// comfortably inside L1 for source and destination tiles together).
const TRANSPOSE_BLOCK: usize = 32;

/// Below this many elements a transpose stays serial.
const TRANSPOSE_PARALLEL_THRESHOLD: usize = 64 * 1024;

/// Minimum flop count (`2·m·n·p`) before `matmul_nt` packs `Bᵀ` for
/// the blocked SIMD GEMM. Below this the O(n·p) pack overhead isn't
/// amortized and the dot-product kernel wins; the cutover only changes
/// which bit-identical kernel runs. (`matmul_tn` needs no pack: it reads
/// `Aᵀ` in place at every size.)
const PACK_MIN_FLOPS: usize = 1 << 18;

/// `C[m×n] = A[m×k] · B[k×n]` into a caller-provided buffer.
fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m * n >= PARALLEL_THRESHOLD && m >= 8 && !pool::is_serial() {
        // Rows of C are independent; chunk boundaries only decide which
        // worker computes which rows, never the arithmetic within a row.
        let rows_per = m.div_ceil(pool::num_threads().min(m));
        pool::par_chunks_mut(c, rows_per * n, |chunk_i, c_chunk| {
            let row0 = chunk_i * rows_per;
            let rows = c_chunk.len() / n;
            let a_chunk = &a[row0 * k..(row0 + rows) * k];
            simd::matmul(a_chunk, b, c_chunk, rows, k, n);
        });
    } else {
        simd::matmul(a, b, c, m, k, n);
    }
}

/// Whether [`gemm_into`] would row-split a `m×n` output across the
/// worker pool right now. Plan builders call this once at compile time
/// and pin the decision into the schedule; the pool size is fixed for
/// the process lifetime so the hint cannot go stale.
pub fn gemm_pooled_hint(m: usize, n: usize) -> bool {
    m * n >= PARALLEL_THRESHOLD && m >= 8 && !pool::is_serial()
}

/// `C[m×n] = A[m×k] · B[k×n]` into a caller-provided buffer with the
/// pooled/serial decision made by the caller (see [`gemm_pooled_hint`]).
/// Zero-fills `c` first, so steady-state plan executors reuse one slot
/// with no allocator traffic. Bit-identical to `Tensor::matmul` on
/// rank-2 operands: both split only row ranges, never the k loop.
pub fn gemm_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, pooled: bool) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let _g = obs::kernel(
        obs::Kernel::Matmul,
        2 * m as u64 * k as u64 * n as u64,
        4 * (m * k + k * n) as u64,
        4 * (m * n) as u64,
    );
    obs::tally_simd(dispatch::simd_tier().index());
    c.fill(0.0);
    if pooled && !pool::is_serial() {
        let rows_per = m.div_ceil(pool::num_threads().min(m));
        pool::par_chunks_mut(c, rows_per * n, |chunk_i, c_chunk| {
            let row0 = chunk_i * rows_per;
            let rows = c_chunk.len() / n;
            let a_chunk = &a[row0 * k..(row0 + rows) * k];
            simd::matmul(a_chunk, b, c_chunk, rows, k, n);
        });
    } else {
        simd::matmul(a, b, c, m, k, n);
    }
}

/// Serial `C = A · Bᵀ` for output rows `[i0, i1)`: each output element
/// is a dot product of two contiguous rows, accumulated in the same
/// 4-wide k groups (and single-step remainder) as [`matmul_serial`], so
/// the result is bit-identical to `a.matmul(&b.t())` without ever
/// materializing the transpose.
fn matmul_nt_serial(a: &[f32], b: &[f32], c: &mut [f32], p: usize, n: usize, i0: usize, i1: usize) {
    for i in i0..i1 {
        let a_row = &a[i * p..(i + 1) * p];
        let c_row = &mut c[(i - i0) * n..(i - i0 + 1) * n];
        for (j, slot) in c_row.iter_mut().enumerate() {
            let b_row = &b[j * p..(j + 1) * p];
            let mut acc = 0.0f32;
            let mut kk = 0;
            while kk + 4 <= p {
                acc += a_row[kk] * b_row[kk]
                    + a_row[kk + 1] * b_row[kk + 1]
                    + a_row[kk + 2] * b_row[kk + 2]
                    + a_row[kk + 3] * b_row[kk + 3];
                kk += 4;
            }
            while kk < p {
                acc += a_row[kk] * b_row[kk];
                kk += 1;
            }
            *slot = acc;
        }
    }
}

/// Row-splits one `rows × n` product across the pool (same thresholds as
/// [`matmul_into`]) and hands each chunk to `kernel(i0, i1, chunk)`.
fn rows_parallel(
    out: &mut [f32],
    rows: usize,
    n: usize,
    kernel: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    if rows * n >= PARALLEL_THRESHOLD && rows >= 8 && !pool::is_serial() {
        let rows_per = rows.div_ceil(pool::num_threads().min(rows));
        pool::par_chunks_mut(out, rows_per * n, |ci, chunk| {
            let i0 = ci * rows_per;
            kernel(i0, i0 + chunk.len() / n, chunk);
        });
    } else {
        kernel(0, rows, out);
    }
}

/// Tiled transpose of the source columns `[j0, j1)` of an `m×n` matrix
/// into `d`, which holds destination rows `j0..j1` (each of length `m`).
/// Pure scatter — every output element is written exactly once, so any
/// tiling or threading of this kernel is bit-identical.
fn transpose_blocked(s: &[f32], d: &mut [f32], m: usize, n: usize, j0: usize, j1: usize) {
    debug_assert_eq!(d.len(), (j1 - j0) * m);
    for ib in (0..m).step_by(TRANSPOSE_BLOCK) {
        let i_end = (ib + TRANSPOSE_BLOCK).min(m);
        for jb in (j0..j1).step_by(TRANSPOSE_BLOCK) {
            let j_end = (jb + TRANSPOSE_BLOCK).min(j1);
            for i in ib..i_end {
                let s_row = &s[i * n..i * n + n];
                for j in jb..j_end {
                    d[(j - j0) * m + i] = s_row[j];
                }
            }
        }
    }
}

impl Tensor {
    /// Matrix product.
    ///
    /// Supported rank combinations:
    /// * `(m,k) · (k,n) -> (m,n)`
    /// * `(..batch, m, k) · (k, n) -> (..batch, m, n)` — shared right matrix
    /// * `(m, k) · (..batch, k, n) -> (..batch, m, n)` — shared left matrix
    /// * `(..batch, m, k) · (..batch, k, n) -> (..batch, m, n)` — per-batch
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or unsupported rank pairing.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (ra, rb) = (self.rank(), other.rank());
        assert!(ra >= 2 && rb >= 2, "matmul requires rank >= 2 operands");
        let (m, k) = (self.dim(ra - 2), self.dim(ra - 1));
        let (k2, n) = (other.dim(rb - 2), other.dim(rb - 1));
        assert_eq!(
            k, k2,
            "matmul inner dimensions differ: {} vs {}",
            self.shape(),
            other.shape()
        );

        let batch_a: usize = self.dims()[..ra - 2].iter().product();
        let batch_b: usize = other.dims()[..rb - 2].iter().product();
        let shared_rhs = batch_b == 1 && rb == 2;
        let shared_lhs = ra == 2 && rb > 2;

        let mut out_dims: Vec<usize> = if shared_lhs {
            let mut d = other.dims()[..rb - 2].to_vec();
            d.extend_from_slice(&[m, n]);
            d
        } else if shared_rhs {
            let mut d = self.dims()[..ra - 2].to_vec();
            d.extend_from_slice(&[m, n]);
            d
        } else {
            assert_eq!(
                self.dims()[..ra - 2],
                other.dims()[..rb - 2],
                "batched matmul requires identical leading dims: {} vs {}",
                self.shape(),
                other.shape()
            );
            let mut d = self.dims()[..ra - 2].to_vec();
            d.extend_from_slice(&[m, n]);
            d
        };
        if out_dims.is_empty() {
            out_dims = vec![m, n];
        }

        let batch = if shared_lhs { batch_b } else { batch_a };
        let _g = obs::kernel(
            obs::Kernel::Matmul,
            2 * (batch * m * k * n) as u64,
            4 * (self.numel() + other.numel()) as u64,
            4 * (batch * m * n) as u64,
        );
        obs::tally_simd(dispatch::simd_tier().index());
        // The kernel accumulates (`c[j] += ...`), so a recycled buffer must
        // come back zeroed.
        let mut out = alloc::acquire_zeroed(batch * m * n);
        let a = self.as_slice();
        let b = other.as_slice();
        // Few large batch elements parallelize better over rows (the
        // serial loop below, whose matmul_into splits rows); many batch
        // elements parallelize better over the batch dimension.
        if batch >= 4 && batch * m * n >= BATCH_PARALLEL_THRESHOLD && !pool::is_serial() {
            // Parallelize over the batch dimension: every batch element is
            // an independent 2-D product, each computed by the serial
            // kernel (nested pooling would be refused anyway).
            pool::par_chunks_mut(&mut out, m * n, |bi, c_chunk| {
                let a_sl = if shared_lhs {
                    a
                } else {
                    &a[bi * m * k..(bi + 1) * m * k]
                };
                let b_sl = if shared_rhs {
                    b
                } else {
                    &b[bi * k * n..(bi + 1) * k * n]
                };
                simd::matmul(a_sl, b_sl, c_chunk, m, k, n);
            });
        } else {
            for bi in 0..batch {
                let a_sl = if shared_lhs {
                    a
                } else {
                    &a[bi * m * k..(bi + 1) * m * k]
                };
                let b_sl = if shared_rhs {
                    b
                } else {
                    &b[bi * k * n..(bi + 1) * k * n]
                };
                matmul_into(a_sl, b_sl, &mut out[bi * m * n..(bi + 1) * m * n], m, k, n);
            }
        }
        Tensor::from_vec(out, out_dims.as_slice())
    }

    /// `self · otherᵀ` without materializing the transpose: the gradient
    /// product `dA = G · Bᵀ` of matmul backward, and attention's
    /// `E · E_Iᵀ`. Bit-identical to `self.matmul(&other.transpose_last2())`.
    ///
    /// Supported rank combinations (`p` is the contracted axis):
    /// * `(m,p) · (n,p) -> (m,n)`
    /// * `(..batch, m, p) · (n, p) -> (..batch, m, n)` — shared right matrix
    /// * `(..batch, m, p) · (..batch, n, p) -> (..batch, m, n)` — per-batch
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or unsupported rank pairing.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let (ra, rb) = (self.rank(), other.rank());
        assert!(ra >= 2 && rb >= 2, "matmul_nt requires rank >= 2 operands");
        let (m, p) = (self.dim(ra - 2), self.dim(ra - 1));
        let (n, p2) = (other.dim(rb - 2), other.dim(rb - 1));
        assert_eq!(
            p, p2,
            "matmul_nt inner dimensions differ: {} vs {}",
            self.shape(),
            other.shape()
        );
        let batch: usize = self.dims()[..ra - 2].iter().product();
        let shared_rhs = rb == 2;
        if !shared_rhs {
            assert_eq!(
                self.dims()[..ra - 2],
                other.dims()[..rb - 2],
                "batched matmul_nt requires identical leading dims: {} vs {}",
                self.shape(),
                other.shape()
            );
        }
        let mut out_dims = self.dims()[..ra - 2].to_vec();
        out_dims.extend_from_slice(&[m, n]);
        let _g = obs::kernel(
            obs::Kernel::MatmulNt,
            2 * (batch * m * p * n) as u64,
            4 * (self.numel() + other.numel()) as u64,
            4 * (batch * m * n) as u64,
        );

        let a = self.as_slice();
        let b = other.as_slice();
        // Every output element is written exactly once (the packed path
        // zero-fills each chunk itself before accumulating into it).
        let mut out = alloc::acquire(batch * m * n);
        // Large products pack Bᵀ once and run the blocked SIMD GEMM;
        // small ones keep the strided dot-product kernel. Both compute
        // each element as the same 4-wide-grouped sum from zero, so the
        // cutover (a pure shape function) never changes results.
        let packed = dispatch::simd_active() && 2 * m * n * p >= PACK_MIN_FLOPS;
        obs::tally_simd(if packed { dispatch::simd_tier().index() } else { 0 });
        if packed {
            let b_batches = if shared_rhs { 1 } else { batch };
            let mut bt = alloc::acquire(b_batches * p * n);
            for bi in 0..b_batches {
                transpose_blocked(
                    &b[bi * n * p..(bi + 1) * n * p],
                    &mut bt[bi * p * n..(bi + 1) * p * n],
                    n,
                    p,
                    0,
                    p,
                );
            }
            let bt_ref = &bt;
            if batch >= 4 && batch * m * n >= BATCH_PARALLEL_THRESHOLD && !pool::is_serial() {
                pool::par_chunks_mut(&mut out, m * n, |bi, c_chunk| {
                    let a_sl = &a[bi * m * p..(bi + 1) * m * p];
                    let bt_sl = if shared_rhs {
                        &bt_ref[..]
                    } else {
                        &bt_ref[bi * p * n..(bi + 1) * p * n]
                    };
                    c_chunk.fill(0.0);
                    simd::matmul(a_sl, bt_sl, c_chunk, m, p, n);
                });
            } else {
                for bi in 0..batch {
                    let a_sl = &a[bi * m * p..(bi + 1) * m * p];
                    let bt_sl = if shared_rhs {
                        &bt_ref[..]
                    } else {
                        &bt_ref[bi * p * n..(bi + 1) * p * n]
                    };
                    rows_parallel(&mut out[bi * m * n..(bi + 1) * m * n], m, n, |i0, i1, chunk| {
                        chunk.fill(0.0);
                        simd::matmul(&a_sl[i0 * p..i1 * p], bt_sl, chunk, i1 - i0, p, n);
                    });
                }
            }
            alloc::release(bt);
        } else if batch >= 4 && batch * m * n >= BATCH_PARALLEL_THRESHOLD && !pool::is_serial() {
            pool::par_chunks_mut(&mut out, m * n, |bi, c_chunk| {
                let a_sl = &a[bi * m * p..(bi + 1) * m * p];
                let b_sl = if shared_rhs {
                    b
                } else {
                    &b[bi * n * p..(bi + 1) * n * p]
                };
                matmul_nt_serial(a_sl, b_sl, c_chunk, p, n, 0, m);
            });
        } else {
            for bi in 0..batch {
                let a_sl = &a[bi * m * p..(bi + 1) * m * p];
                let b_sl = if shared_rhs {
                    b
                } else {
                    &b[bi * n * p..(bi + 1) * n * p]
                };
                rows_parallel(&mut out[bi * m * n..(bi + 1) * m * n], m, n, |i0, i1, chunk| {
                    matmul_nt_serial(a_sl, b_sl, chunk, p, n, i0, i1);
                });
            }
        }
        Tensor::from_vec(out, out_dims.as_slice())
    }

    /// `selfᵀ · other` without materializing the transpose: the gradient
    /// products `dB = Aᵀ · G` and `dX = Aᵀ · dY` of matmul backward and
    /// diffusion backward. Bit-identical to
    /// `self.transpose_last2().matmul(&other)`.
    ///
    /// Supported rank combinations (`p` is the contracted axis):
    /// * `(p,m) · (p,n) -> (m,n)`
    /// * `(p, m) · (..batch, p, n) -> (..batch, m, n)` — shared transposed left
    /// * `(..batch, p, m) · (..batch, p, n) -> (..batch, m, n)` — per-batch
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or unsupported rank pairing.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let (ra, rb) = (self.rank(), other.rank());
        assert!(ra >= 2 && rb >= 2, "matmul_tn requires rank >= 2 operands");
        let (p, m) = (self.dim(ra - 2), self.dim(ra - 1));
        let (p2, n) = (other.dim(rb - 2), other.dim(rb - 1));
        assert_eq!(
            p, p2,
            "matmul_tn inner dimensions differ: {} vs {}",
            self.shape(),
            other.shape()
        );
        let shared_lhs = ra == 2 && rb > 2;
        if !shared_lhs {
            assert_eq!(
                self.dims()[..ra - 2],
                other.dims()[..rb - 2],
                "batched matmul_tn requires identical leading dims: {} vs {}",
                self.shape(),
                other.shape()
            );
        }
        let batch: usize = other.dims()[..rb - 2].iter().product();
        let mut out_dims = other.dims()[..rb - 2].to_vec();
        out_dims.extend_from_slice(&[m, n]);
        let _g = obs::kernel(
            obs::Kernel::MatmulTn,
            2 * (batch * p * m * n) as u64,
            4 * (self.numel() + other.numel()) as u64,
            4 * (batch * m * n) as u64,
        );

        let a = self.as_slice();
        let b = other.as_slice();
        // Accumulating kernel — the recycled buffer must come back zeroed.
        let mut out = alloc::acquire_zeroed(batch * m * n);
        obs::tally_simd(dispatch::simd_tier().index());
        // `A[bi]` is `p × m`, so output row `i`'s k-th element sits at
        // `i + kk·m`: the kernel reads `Aᵀ` in place with strides (1, m).
        let a_batch = |bi: usize| if shared_lhs { a } else { &a[bi * p * m..(bi + 1) * p * m] };
        if batch >= 4 && batch * m * n >= BATCH_PARALLEL_THRESHOLD && !pool::is_serial() {
            pool::par_chunks_mut(&mut out, m * n, |bi, c_chunk| {
                let b_sl = &b[bi * p * n..(bi + 1) * p * n];
                simd::matmul_strided(a_batch(bi), 1, m, b_sl, c_chunk, m, p, n);
            });
        } else {
            for bi in 0..batch {
                let a_sl = a_batch(bi);
                let b_sl = &b[bi * p * n..(bi + 1) * p * n];
                rows_parallel(&mut out[bi * m * n..(bi + 1) * m * n], m, n, |i0, i1, chunk| {
                    simd::matmul_strided(&a_sl[i0..], 1, m, b_sl, chunk, i1 - i0, p, n);
                });
            }
        }
        Tensor::from_vec(out, out_dims.as_slice())
    }

    /// 2-D transpose (materialized). For higher ranks use
    /// [`transpose_last2`](Self::transpose_last2).
    pub fn t(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "t() requires a rank-2 tensor, got {}", self.shape());
        self.transpose_last2()
    }

    /// Swaps the last two dimensions, materializing the result.
    ///
    /// Uses a cache-blocked tile kernel ([`TRANSPOSE_BLOCK`]² tiles keep
    /// both the source rows and destination rows resident in L1) and runs
    /// on the worker pool: over the batch dimension when batched, over
    /// destination row blocks for a single large matrix.
    pub fn transpose_last2(&self) -> Tensor {
        let r = self.rank();
        assert!(r >= 2, "transpose_last2 requires rank >= 2");
        let (m, n) = (self.dim(r - 2), self.dim(r - 1));
        let batch: usize = self.dims()[..r - 2].iter().product();
        let _g = obs::kernel(
            obs::Kernel::Transpose,
            0,
            4 * self.numel() as u64,
            4 * self.numel() as u64,
        );
        let src = self.as_slice();
        // Recycled buffer: the transpose scatter writes every element once.
        let mut out = alloc::acquire(src.len());
        let parallel = src.len() >= TRANSPOSE_PARALLEL_THRESHOLD && !pool::is_serial();
        if parallel && batch > 1 {
            pool::par_chunks_mut(&mut out, m * n, |bi, d| {
                transpose_blocked(&src[bi * m * n..(bi + 1) * m * n], d, m, n, 0, n);
            });
        } else if parallel && m * n > 0 {
            // Single matrix: each task owns TRANSPOSE_BLOCK destination
            // rows, i.e. source columns [j0, j1).
            pool::par_chunks_mut(&mut out, TRANSPOSE_BLOCK * m, |ci, d_chunk| {
                let j0 = ci * TRANSPOSE_BLOCK;
                let j1 = j0 + d_chunk.len() / m;
                transpose_blocked(src, d_chunk, m, n, j0, j1);
            });
        } else {
            for bi in 0..batch {
                let s = &src[bi * m * n..(bi + 1) * m * n];
                let d = &mut out[bi * m * n..(bi + 1) * m * n];
                transpose_blocked(s, d, m, n, 0, n);
            }
        }
        let mut dims = self.dims().to_vec();
        dims.swap(r - 2, r - 1);
        Tensor::from_vec(out, dims.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape)
    }

    #[test]
    fn matmul_2x2() {
        let a = t(&[1., 2., 3., 4.], &[2, 2]);
        let b = t(&[5., 6., 7., 8.], &[2, 2]);
        assert_eq!(a.matmul(&b).as_slice(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = t(&[1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = t(&[7., 8., 9., 10., 11., 12.], &[3, 2]);
        assert_eq!(a.matmul(&b).as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(&[1., 2., 3., 4.], &[2, 2]);
        assert_eq!(a.matmul(&Tensor::eye(2)), a);
    }

    #[test]
    fn matmul_batched_shared_rhs() {
        // (2,2,3) @ (3,1)
        let a = t(&(0..12).map(|x| x as f32).collect::<Vec<_>>(), &[2, 2, 3]);
        let b = t(&[1., 1., 1.], &[3, 1]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2, 1]);
        assert_eq!(c.as_slice(), &[3., 12., 21., 30.]);
    }

    #[test]
    fn matmul_batched_shared_lhs() {
        // (2,3) @ (2,3,2): one left matrix applied to every batch element.
        let a = t(&[1., 0., 0., 0., 1., 0.], &[2, 3]);
        let b = t(&(0..12).map(|x| x as f32).collect::<Vec<_>>(), &[2, 3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2, 2]);
        assert_eq!(c.as_slice(), &[0., 1., 2., 3., 6., 7., 8., 9.]);
    }

    #[test]
    fn matmul_shared_lhs_matches_per_batch_loop() {
        let mut rng = crate::Rng64::new(11);
        let a = Tensor::rand_uniform([9, 13], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([5, 13, 7], -1.0, 1.0, &mut rng);
        let c = a.matmul(&b);
        for bi in 0..5 {
            let b_sl = Tensor::from_vec(b.as_slice()[bi * 13 * 7..(bi + 1) * 13 * 7].to_vec(), [13, 7]);
            let expect = a.matmul(&b_sl);
            assert_eq!(
                &c.as_slice()[bi * 9 * 7..(bi + 1) * 9 * 7],
                expect.as_slice(),
                "batch {bi}"
            );
        }
    }

    #[test]
    fn matmul_nt_matches_transposed_matmul() {
        let mut rng = crate::Rng64::new(12);
        // Sizes straddle the k-remainder and the row-parallel threshold.
        for (m, p, n) in [(3, 5, 4), (37, 23, 41), (300, 65, 300)] {
            let a = Tensor::rand_uniform([m, p], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform([n, p], -1.0, 1.0, &mut rng);
            let fast = a.matmul_nt(&b);
            let reference = a.matmul(&b.t());
            assert_eq!(fast.dims(), &[m, n]);
            for (x, y) in fast.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "({m},{p},{n})");
            }
        }
    }

    #[test]
    fn matmul_nt_batched_and_shared_rhs() {
        let mut rng = crate::Rng64::new(13);
        let a = Tensor::rand_uniform([6, 9, 10], -1.0, 1.0, &mut rng);
        let shared = Tensor::rand_uniform([7, 10], -1.0, 1.0, &mut rng);
        assert_eq!(a.matmul_nt(&shared), a.matmul(&shared.t()));
        let b = Tensor::rand_uniform([6, 7, 10], -1.0, 1.0, &mut rng);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose_last2()));
    }

    #[test]
    fn matmul_tn_matches_transposed_matmul() {
        let mut rng = crate::Rng64::new(14);
        for (p, m, n) in [(5, 3, 4), (23, 37, 41), (65, 300, 300)] {
            let a = Tensor::rand_uniform([p, m], -1.0, 1.0, &mut rng);
            let b = Tensor::rand_uniform([p, n], -1.0, 1.0, &mut rng);
            let fast = a.matmul_tn(&b);
            let reference = a.t().matmul(&b);
            assert_eq!(fast.dims(), &[m, n]);
            for (x, y) in fast.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "({p},{m},{n})");
            }
        }
    }

    #[test]
    fn matmul_tn_shared_lhs_and_batched() {
        let mut rng = crate::Rng64::new(15);
        // Shared transposed left against a batched rhs — the diffusion
        // backward shape `dX[b] = Aᵀ · dY[b]`.
        let a = Tensor::rand_uniform([9, 6], -1.0, 1.0, &mut rng);
        let g = Tensor::rand_uniform([4, 9, 5], -1.0, 1.0, &mut rng);
        let fast = a.matmul_tn(&g);
        assert_eq!(fast.dims(), &[4, 6, 5]);
        assert_eq!(fast, a.t().matmul(&g));
        // Per-batch.
        let ab = Tensor::rand_uniform([4, 9, 6], -1.0, 1.0, &mut rng);
        assert_eq!(ab.matmul_tn(&g), ab.transpose_last2().matmul(&g));
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_nt_mismatch_panics() {
        t(&[1., 2.], &[1, 2]).matmul_nt(&t(&[1., 2., 3.], &[1, 3]));
    }

    #[test]
    fn matmul_batched_per_batch() {
        let a = t(&[1., 0., 0., 1., 2., 0., 0., 2.], &[2, 2, 2]);
        let b = t(&[1., 2., 3., 4., 1., 2., 3., 4.], &[2, 2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2, 2]);
        assert_eq!(c.as_slice(), &[1., 2., 3., 4., 2., 4., 6., 8.]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_mismatch_panics() {
        t(&[1., 2.], &[1, 2]).matmul(&t(&[1., 2., 3.], &[3, 1]));
    }

    #[test]
    fn matmul_matches_naive_large() {
        // Cross-check the unrolled/parallel kernel against a naive triple
        // loop on a size that exercises the k-remainder path.
        let mut rng = crate::Rng64::new(99);
        let (m, k, n) = (37, 23, 41);
        let a = Tensor::rand_uniform([m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([k, n], -1.0, 1.0, &mut rng);
        let c = a.matmul(&b);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for x in 0..k {
                    acc += a.as_slice()[i * k + x] * b.as_slice()[x * n + j];
                }
                let got = c.as_slice()[i * n + j];
                assert!((got - acc).abs() < 1e-3, "({i},{j}): {got} vs {acc}");
            }
        }
    }

    #[test]
    fn parallel_path_matches_serial() {
        // Big enough to trigger the threaded path.
        let mut rng = crate::Rng64::new(5);
        let a = Tensor::rand_uniform([300, 64], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform([64, 300], -1.0, 1.0, &mut rng);
        let c = a.matmul(&b);
        // Spot check a few entries against a naive dot product.
        for &(i, j) in &[(0usize, 0usize), (150, 150), (299, 299), (7, 250)] {
            let mut acc = 0.0f32;
            for x in 0..64 {
                acc += a.as_slice()[i * 64 + x] * b.as_slice()[x * 300 + j];
            }
            assert!((c.as_slice()[i * 300 + j] - acc).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_2d() {
        let a = t(&[1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = a.t();
        assert_eq!(b.dims(), &[3, 2]);
        assert_eq!(b.as_slice(), &[1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn transpose_last2_batched() {
        let a = t(&(0..8).map(|x| x as f32).collect::<Vec<_>>(), &[2, 2, 2]);
        let b = a.transpose_last2();
        assert_eq!(b.as_slice(), &[0., 2., 1., 3., 4., 6., 5., 7.]);
    }

    #[test]
    fn double_transpose_is_identity() {
        let mut rng = crate::Rng64::new(1);
        let a = Tensor::rand_uniform([5, 7], 0.0, 1.0, &mut rng);
        assert_eq!(a.t().t(), a);
    }
}
