//! Sparse (CSR) kernels for the slim adjacency.
//!
//! α-entmax produces *exact* zeros (paper Section IV-B), so the learned
//! `A_s ∈ R^{N×M}` is mostly empty at α ≥ 1.5 and the dense diffusion
//! GEMM wastes most of its multiplies on zero rows of nothing. [`Csr`]
//! stores only the nonzero entries and provides the three products graph
//! diffusion needs:
//!
//! * [`Csr::spmm`] — `Y[b] = A · X[b]`, the forward diffusion step;
//! * [`Csr::spmm_t`] — `dX[b] = Aᵀ · dY[b]`, the input gradient;
//! * [`Csr::dadj`] — `dA = Σ_b dY[b] · X[b]ᵀ` restricted to the CSR
//!   support, the adjacency gradient (exact end-to-end because the
//!   entmax Jacobian vanishes outside the support — see DESIGN.md §9).
//!
//! Every kernel accumulates in the same order as its dense counterpart
//! in [`matmul`](crate::matmul): the dense kernels unroll the contraction
//! axis four-wide starting at index 0, so the sparse kernels walk each
//! row's nonzeros in groups aligned to the same absolute ⌊k/4⌋ boundaries
//! and add each group's partial sum with one `+=`. Skipping an exact-zero
//! term is exact in IEEE-754 (it only ever adds `±0.0`), so sparse and
//! dense results are identical under `f32` equality — the only tolerated
//! divergence is the sign of exact-zero outputs. Rows are parallelized on
//! the persistent worker [`pool`] with the usual contract: chunk
//! boundaries are a pure function of the sizes, each row is computed by
//! the identical serial routine, and outputs come from [`alloc`].
//!
//! # Cache blocking
//!
//! The shared core [`spmm_core`] processes the contraction axis in
//! ascending 4-aligned column tiles sized to [`X_TILE_BYTES`] so the
//! active rhs panel stays cache-resident across CSR rows, and walks the
//! batch axis innermost per `(row, tile)` so each row's nonzero range is
//! located once (one pair of binary searches) and reused `batch` times.
//!
//! # Node sharding
//!
//! [`ShardedCsr`] splits the **row** dimension into `k` contiguous
//! shards whose boundaries are multiples of 4 (see DESIGN.md §14). Rows
//! never share ⌊k/4⌋ accumulation groups across a 4-aligned boundary, so
//! every sharded product replays the unsharded per-element operation
//! sequence exactly: the forward `spmm`/`dadj` write disjoint row blocks
//! (merge-free), and `spmm_t` accumulates shard contributions serially in
//! ascending shard order, which is precisely the unsharded column walk.
//! `ShardedCsr` with one shard is bit-for-bit today's [`Csr`].
//!
//! Dispatch between the sparse and dense diffusion paths is decided per
//! adjacency shape and density by [`spmm_dispatch`] (tests and benches
//! force a pipeline with [`set_sparse_mode`]), which picks one of three
//! pipelines ([`SpmmDispatch`]): all-dense, all-CSR, or a hybrid that
//! runs the products on the dense GEMMs but the adjacency gradient on the
//! support-restricted CSR [`dadj`](Csr::dadj). The hybrid exists because
//! the two kinds of work scale differently with density: a dense GEMM
//! runs the products at full SIMD throughput regardless of zeros, so CSR
//! products only win once the matrix is genuinely sparse (≲ 25 %
//! density), while `dadj` touches exactly one `c`-length dot per stored
//! pair, so restricting it to the support saves work at *any* density.

use crate::alloc;
use crate::dispatch;
use crate::pool;
use crate::simd;
use crate::tensor::Tensor;
use sagdfn_obs as obs;
use std::rc::Rc;
use std::sync::atomic::{AtomicU8, Ordering};

/// Below this many output elements a sparse product stays serial (same
/// bar as the dense matmul kernels).
const PARALLEL_THRESHOLD: usize = 64 * 1024;

/// Minimum rows before the pool round-trip pays for itself.
const ROWS_PARALLEL_THRESHOLD: usize = 8;

/// Column-tile budget for the SpMM rhs panel: when one batch element's
/// `x` slab (`inner · c · 4` bytes) overflows this, the contraction axis
/// is processed in ascending column tiles so the active `x` rows stay
/// cache-resident across output rows. Tile edges are multiples of 4, so
/// the ⌊col/4⌋ accumulation groups never straddle a tile and the tiled
/// walk performs the exact untiled nonzero sequence per output element.
const X_TILE_BYTES: usize = 32 * 1024;

// ---------------------------------------------------------------------
// Sparse/dense dispatch policy
// ---------------------------------------------------------------------

/// How the diffusion path chooses between CSR and dense kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SparseMode {
    /// Measure the density and use CSR only when it should win.
    Auto,
    /// Always convert to CSR (tests and benches).
    On,
    /// Never convert; always run the dense kernels.
    Off,
}

static MODE: AtomicU8 = AtomicU8::new(SparseMode::Auto as u8);

fn mode_from_u8(v: u8) -> SparseMode {
    match v {
        1 => SparseMode::On,
        2 => SparseMode::Off,
        _ => SparseMode::Auto,
    }
}

/// The current sparse-dispatch mode (default [`SparseMode::Auto`]).
pub fn sparse_mode() -> SparseMode {
    mode_from_u8(MODE.load(Ordering::Relaxed))
}

/// Sets the dispatch mode programmatically (benches and tests run
/// in-process A/B comparisons), returning the previous mode.
pub fn set_sparse_mode(mode: SparseMode) -> SparseMode {
    mode_from_u8(MODE.swap(mode as u8, Ordering::SeqCst))
}

/// The pipeline [`spmm_dispatch`] selects for one adjacency state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpmmDispatch {
    /// No CSR at all: products *and* adjacency gradient run on the dense
    /// kernels ([`Tensor::matmul`] / `matmul_tn` / [`dadj_dense`]).
    Dense,
    /// Build the CSR, but only for the adjacency gradient: the products
    /// `A·X` and `Aᵀ·dY` run on the dense GEMMs while
    /// [`dadj`](Csr::dadj) walks the support only. For entmax-produced
    /// adjacencies the restriction is exact end-to-end — the α-entmax
    /// Jacobian vanishes outside the support (DESIGN.md §9).
    Hybrid,
    /// Everything on the CSR kernels.
    Sparse,
}

/// Decides how a `(rows, cols)` adjacency with `nnz` nonzeros,
/// multiplied against a batch of `batch` rhs slabs per diffusion
/// product, should execute under the current [`sparse_mode`].
///
/// `Auto` is a cost model rather than a bare density ratio, calibrated
/// against the measured kernels (see `bench_diffusion`):
///
/// * Tiny adjacencies (`rows` or `cols` < 32) finish in microseconds
///   either way and never pay for index chasing → [`Dense`].
/// * The CSR build (amortized over one adjacency state) costs a dense
///   scan plus nonzero packing on the order of `numel`, while the
///   support-restricted gradient saves `batch·zeros·c` dot products per
///   step. When `2·batch·zeros < 3·numel` the savings can't cover the
///   build (this also catches fully dense matrices) → [`Dense`].
/// * The dense GEMMs run at full SIMD throughput regardless of zeros;
///   the grouped CSR product kernels cost ~2–3× more per stored
///   element, so CSR products only win clearly below ~25 % density,
///   `4·nnz ≤ numel` → [`Sparse`].
/// * In between, zeros are plentiful enough to pay for the CSR but not
///   to beat the GEMMs on products → [`Hybrid`].
///
/// [`Dense`]: SpmmDispatch::Dense
/// [`Sparse`]: SpmmDispatch::Sparse
/// [`Hybrid`]: SpmmDispatch::Hybrid
pub fn spmm_dispatch(rows: usize, cols: usize, batch: usize, nnz: usize) -> SpmmDispatch {
    let choice = match sparse_mode() {
        SparseMode::On => SpmmDispatch::Sparse,
        SparseMode::Off => SpmmDispatch::Dense,
        SparseMode::Auto => {
            let numel = rows * cols;
            let zeros = numel.saturating_sub(nnz);
            if rows < 32 || cols < 32 || 2 * batch.max(1) * zeros < 3 * numel {
                SpmmDispatch::Dense
            } else if 4 * nnz <= numel {
                SpmmDispatch::Sparse
            } else {
                SpmmDispatch::Hybrid
            }
        }
    };
    obs::tally_dispatch(choice != SpmmDispatch::Dense);
    choice
}

/// `true` when [`spmm_dispatch`] builds a CSR at all (i.e. anything but
/// the all-dense pipeline). Kept as the coarse boolean answer for
/// callers that only need to know whether sparsity is exploited.
pub fn should_use_sparse(rows: usize, cols: usize, batch: usize, nnz: usize) -> bool {
    spmm_dispatch(rows, cols, batch, nnz) != SpmmDispatch::Dense
}

/// A resolved diffusion execution plan for one adjacency state: the
/// [`SpmmDispatch`] decision plus the sharded CSR when one is needed.
/// Built once per adjacency value by the graph layer and shared by the
/// forward product and both backward gradients, so the build cost is
/// amortized over every diffusion step that reuses the adjacency.
#[derive(Clone)]
pub enum DiffusePlan {
    /// Products and gradient on the dense kernels; no CSR exists.
    Dense,
    /// Products on the dense GEMMs, adjacency gradient on the
    /// support-restricted CSR [`dadj`](ShardedCsr::dadj).
    Hybrid(Rc<ShardedCsr>),
    /// Products and gradient on the CSR kernels.
    Sparse(Rc<ShardedCsr>),
}

impl DiffusePlan {
    /// Builds the plan for `dispatch`, invoking `build` only when the
    /// chosen pipeline actually needs the CSR.
    pub fn build(dispatch: SpmmDispatch, build: impl FnOnce() -> ShardedCsr) -> Self {
        match dispatch {
            SpmmDispatch::Dense => DiffusePlan::Dense,
            SpmmDispatch::Hybrid => DiffusePlan::Hybrid(Rc::new(build())),
            SpmmDispatch::Sparse => DiffusePlan::Sparse(Rc::new(build())),
        }
    }

    /// The dispatch decision this plan realizes.
    pub fn dispatch(&self) -> SpmmDispatch {
        match self {
            DiffusePlan::Dense => SpmmDispatch::Dense,
            DiffusePlan::Hybrid(_) => SpmmDispatch::Hybrid,
            DiffusePlan::Sparse(_) => SpmmDispatch::Sparse,
        }
    }

    /// The CSR, when this plan carries one (`Hybrid` and `Sparse`).
    pub fn csr(&self) -> Option<&Rc<ShardedCsr>> {
        match self {
            DiffusePlan::Dense => None,
            DiffusePlan::Hybrid(c) | DiffusePlan::Sparse(c) => Some(c),
        }
    }

    /// `true` when the *products* (`A·X`, `Aᵀ·dY`) run on the CSR
    /// kernels — only the full-sparse pipeline; the hybrid keeps them
    /// on the dense GEMMs.
    pub fn products_sparse(&self) -> bool {
        matches!(self, DiffusePlan::Sparse(_))
    }

    /// Shard count of the carried CSR (1 when the plan is dense — a
    /// dense pipeline is never sharded).
    pub fn shard_count(&self) -> usize {
        self.csr().map_or(1, |c| c.shard_count())
    }
}

// ---------------------------------------------------------------------
// The CSR matrix
// ---------------------------------------------------------------------

/// A compressed-sparse-row `f32` matrix with an eagerly built transpose.
///
/// Column indices within each row are strictly ascending. The transposed
/// arrays (`t_*`) store the same nonzeros as a CSR over columns — built
/// once at construction by a counting sort so [`spmm_t`](Csr::spmm_t)
/// never materializes `Aᵀ` at product time.
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
    t_row_ptr: Vec<usize>,
    t_col_idx: Vec<u32>,
    t_values: Vec<f32>,
    /// Per-row ⌊col/4⌋ accumulation groups ([`simd::decode_groups`]),
    /// decoded once here and replayed by every product — the adjacency is
    /// rebuilt once per training step but diffused through dozens of
    /// times (timesteps × gates × hops), so group decoding amortizes to
    /// nearly zero while the spmm hot loop loses its per-call decode.
    groups: Vec<u64>,
    group_ptr: Vec<usize>,
    /// Same, for the transposed arrays (`spmm_t`).
    t_groups: Vec<u64>,
    t_group_ptr: Vec<usize>,
}

/// Decodes the accumulation groups of every CSR row once at build time;
/// returns `(groups, group_ptr)` with `group_ptr.len() == n_rows + 1`.
fn decode_row_groups(row_ptr: &[usize], col_idx: &[u32], inner: usize) -> (Vec<u64>, Vec<usize>) {
    let n_rows = row_ptr.len() - 1;
    let mut groups = Vec::with_capacity(col_idx.len());
    let mut group_ptr = Vec::with_capacity(n_rows + 1);
    group_ptr.push(0);
    for i in 0..n_rows {
        let cols = &col_idx[row_ptr[i]..row_ptr[i + 1]];
        simd::decode_groups(cols, 0, cols.len(), inner, &mut groups);
        group_ptr.push(groups.len());
    }
    (groups, group_ptr)
}

impl Csr {
    /// Builds a CSR from a dense rank-2 tensor, dropping entries that are
    /// exactly `0.0` (both zero signs — entmax emits `+0.0`).
    ///
    /// # Panics
    /// Panics if `dense` is not rank 2.
    pub fn from_dense(dense: &Tensor) -> Csr {
        assert_eq!(dense.rank(), 2, "Csr::from_dense requires a rank-2 tensor");
        Csr::from_dense_rows(dense, 0, dense.dim(0))
    }

    /// Builds a CSR over the row span `[r0, r1)` of a dense rank-2
    /// tensor: rows are re-indexed locally (`n_rows = r1 − r0`), columns
    /// keep their global indices. This is the shard constructor used by
    /// [`ShardedCsr`]; `from_dense_rows(d, 0, d.dim(0))` is exactly
    /// [`Csr::from_dense`].
    ///
    /// # Panics
    /// Panics if `dense` is not rank 2 or the span is out of bounds.
    pub fn from_dense_rows(dense: &Tensor, r0: usize, r1: usize) -> Csr {
        assert_eq!(dense.rank(), 2, "Csr::from_dense_rows requires a rank-2 tensor");
        let n_cols = dense.dim(1);
        assert!(r0 <= r1 && r1 <= dense.dim(0), "row span out of bounds");
        assert!(n_cols <= u32::MAX as usize, "column index overflows u32");
        let n_rows = r1 - r0;
        let src = &dense.as_slice()[r0 * n_cols..r1 * n_cols];
        let mut row_ptr = Vec::with_capacity(n_rows + 1);
        row_ptr.push(0usize);
        let nnz = src.iter().filter(|&&v| v != 0.0).count();
        // Both the forward and transposed value arrays count as output.
        let _g = obs::kernel(
            obs::Kernel::CsrBuild,
            0,
            4 * (n_rows * n_cols) as u64,
            8 * nnz as u64,
        );
        // Branchless fill: every element is written at the cursor, which
        // only advances past nonzeros — a data dependency instead of a
        // branch, so mixed-density rows don't pay a misprediction per
        // entry. One spare slot absorbs the unconditional write when the
        // cursor already sits at `nnz`.
        let mut col_idx = vec![0u32; nnz + 1];
        let mut values = vec![0.0f32; nnz + 1];
        let mut w = 0usize;
        for row in src.chunks(n_cols.max(1)) {
            // SAFETY: `w` counts nonzeros seen so far, so `w <= nnz` and
            // every write lands within the `nnz + 1` slots.
            unsafe {
                let cp = col_idx.as_mut_ptr();
                let vp = values.as_mut_ptr();
                for (c, &v) in row.iter().enumerate() {
                    *cp.add(w) = c as u32;
                    *vp.add(w) = v;
                    w += (v != 0.0) as usize;
                }
            }
            row_ptr.push(w);
        }
        col_idx.truncate(nnz);
        values.truncate(nnz);

        // Counting-sort transpose: visiting rows in ascending order keeps
        // each transposed row's indices ascending too, which the aligned
        // grouping in `spmm_t` relies on.
        let mut t_row_ptr = vec![0usize; n_cols + 1];
        for &c in &col_idx {
            t_row_ptr[c as usize + 1] += 1;
        }
        for c in 0..n_cols {
            t_row_ptr[c + 1] += t_row_ptr[c];
        }
        let mut next = t_row_ptr[..n_cols].to_vec();
        let mut t_col_idx = vec![0u32; nnz];
        let mut t_values = vec![0.0f32; nnz];
        for i in 0..n_rows {
            for p in row_ptr[i]..row_ptr[i + 1] {
                let c = col_idx[p] as usize;
                let slot = next[c];
                next[c] += 1;
                t_col_idx[slot] = i as u32;
                t_values[slot] = values[p];
            }
        }

        let (groups, group_ptr) = decode_row_groups(&row_ptr, &col_idx, n_cols);
        let (t_groups, t_group_ptr) = decode_row_groups(&t_row_ptr, &t_col_idx, n_rows);

        Csr {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            values,
            t_row_ptr,
            t_col_idx,
            t_values,
            groups,
            group_ptr,
            t_groups,
            t_group_ptr,
        }
    }

    /// Materializes the dense `(n_rows, n_cols)` tensor.
    pub fn to_dense(&self) -> Tensor {
        let mut out = alloc::acquire_zeroed(self.n_rows * self.n_cols);
        for i in 0..self.n_rows {
            for p in self.row_ptr[i]..self.row_ptr[i + 1] {
                out[i * self.n_cols + self.col_idx[p] as usize] = self.values[p];
            }
        }
        Tensor::from_vec(out, [self.n_rows, self.n_cols])
    }

    /// Number of stored (nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Rows of the represented matrix.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Columns of the represented matrix.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Fraction of entries stored: `nnz / (n_rows · n_cols)`.
    pub fn density(&self) -> f32 {
        let numel = self.n_rows * self.n_cols;
        if numel == 0 {
            0.0
        } else {
            self.nnz() as f32 / numel as f32
        }
    }

    /// `Y[b] = A · X[b]` for `x` of shape `(..b, n_cols, c)`, returning
    /// `(..b, n_rows, c)`. Bit-compatible with the dense shared-left
    /// batched [`Tensor::matmul`] (up to the sign of exact zeros).
    ///
    /// # Panics
    /// Panics if `x` has rank < 2 or its second-to-last dim ≠ `n_cols`.
    pub fn spmm(&self, x: &Tensor) -> Tensor {
        spmm_arrays(self.fwd_view(), self.n_rows, self.n_cols, x, obs::Kernel::Spmm)
    }

    /// `Y[b] = Aᵀ · X[b]` for `x` of shape `(..b, n_rows, c)`, returning
    /// `(..b, n_cols, c)`. Bit-compatible with [`Tensor::matmul_tn`]
    /// applied to the dense matrix (up to the sign of exact zeros).
    ///
    /// # Panics
    /// Panics if `x` has rank < 2 or its second-to-last dim ≠ `n_rows`.
    pub fn spmm_t(&self, x: &Tensor) -> Tensor {
        spmm_arrays(self.t_view(), self.n_cols, self.n_rows, x, obs::Kernel::SpmmT)
    }

    /// `Y[b] = A · X[b]` over raw slices into a caller-provided buffer,
    /// with the pooled/serial decision made by the caller (see
    /// [`spmm_pooled_hint`]). Zero-fills `out` first (the row kernel
    /// accumulates), so steady-state plan executors reuse one slot with
    /// no allocator traffic. Bit-identical to [`Csr::spmm`]: the same
    /// row kernel runs over the same chunk boundaries.
    ///
    /// # Panics
    /// Panics when `x` / `out` lengths disagree with `(batch, c)`.
    pub fn spmm_into(&self, x: &[f32], batch: usize, c: usize, out: &mut [f32], pooled: bool) {
        assert_eq!(x.len(), batch * self.n_cols * c, "spmm_into x length");
        assert_eq!(out.len(), batch * self.n_rows * c, "spmm_into out length");
        let _g = obs::kernel(
            obs::Kernel::Spmm,
            2 * (batch * self.nnz() * c) as u64,
            4 * (self.nnz() + x.len()) as u64,
            4 * out.len() as u64,
        );
        obs::tally_simd(dispatch::simd_tier().index());
        out.fill(0.0);
        spmm_core(
            self.fwd_view(),
            ShardSpan::whole(self.n_rows),
            ShardSpan::whole(self.n_cols),
            x,
            batch,
            c,
            out,
            pooled,
        );
    }

    /// Support-restricted adjacency gradient: for each stored entry
    /// `(i, j)`, `dA[i,j] = Σ_b Σ_k dY[b,i,k] · X[b,j,k]`; entries outside
    /// the support stay exactly `0.0`. Agrees bit-for-bit with
    /// [`dadj_dense`] at every stored position: every tier of the
    /// vectorized row kernel reproduces the shared pair-dot routine's
    /// exact association.
    ///
    /// # Panics
    /// Panics on rank/shape mismatches between `dy` and `x`.
    pub fn dadj(&self, dy: &Tensor, x: &Tensor) -> Tensor {
        let (batch, c) = dadj_check(dy, x, self.n_rows, self.n_cols);
        let (n, m) = (self.n_rows, self.n_cols);
        let _g = obs::kernel(
            obs::Kernel::Dadj,
            2 * (batch * self.nnz() * c) as u64,
            4 * (dy.numel() + x.numel() + self.nnz()) as u64,
            4 * (n * m) as u64,
        );
        obs::tally_simd(dispatch::simd_tier().index());
        let dy_s = dy.as_slice();
        let x_s = x.as_slice();
        let mut out = alloc::acquire_zeroed(n * m);
        dadj_rows_parallel(&mut out, n, m, |i| {
            &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
        }, dy_s, x_s, batch, c);
        Tensor::from_vec(out, [n, m])
    }
}

// ---------------------------------------------------------------------
// The node-sharded CSR matrix
// ---------------------------------------------------------------------

/// A CSR adjacency split into `k` contiguous **row** shards whose
/// boundaries are multiples of 4 (DESIGN.md §14 "Sharding model").
///
/// Each shard is a self-contained [`Csr`] over its row span (local row
/// indices, global column indices), so per-shard working sets — slim
/// adjacency rows, transpose arrays, attention scores upstream — scale
/// as `O(n/k)`. All three products are bit-identical to the unsharded
/// [`Csr`] kernels for every `k`:
///
/// * [`spmm`](ShardedCsr::spmm) / [`dadj`](ShardedCsr::dadj) write
///   disjoint output row blocks per shard — merge-free;
/// * [`spmm_t`](ShardedCsr::spmm_t) accumulates shard contributions in
///   ascending shard order, which replays the unsharded ascending-row
///   column walk exactly (4-aligned boundaries never split a ⌊k/4⌋
///   accumulation group).
pub struct ShardedCsr {
    n_rows: usize,
    n_cols: usize,
    /// Rows per shard (a multiple of 4; the last shard may be shorter).
    shard_rows: usize,
    shards: Vec<Csr>,
}

impl ShardedCsr {
    /// Builds a sharded CSR with (at most) `k` row shards from a dense
    /// rank-2 tensor. `k = 1` stores a single shard that is bit-for-bit
    /// [`Csr::from_dense`]; `k = 0` is treated as 1.
    ///
    /// # Panics
    /// Panics if `dense` is not rank 2.
    pub fn from_dense(dense: &Tensor, k: usize) -> ShardedCsr {
        assert_eq!(dense.rank(), 2, "ShardedCsr::from_dense requires a rank-2 tensor");
        let (n_rows, n_cols) = (dense.dim(0), dense.dim(1));
        let k = k.max(1);
        // Round the shard height up to a multiple of 4 so shard edges
        // never split a ⌊row/4⌋ accumulation group of `spmm_t`.
        let shard_rows = n_rows.div_ceil(k).div_ceil(4).max(1) * 4;
        let count = n_rows.div_ceil(shard_rows).max(1);
        let shards = (0..count)
            .map(|s| {
                let r0 = s * shard_rows;
                let r1 = (r0 + shard_rows).min(n_rows);
                Csr::from_dense_rows(dense, r0, r1)
            })
            .collect();
        ShardedCsr { n_rows, n_cols, shard_rows, shards }
    }

    /// Number of row shards actually stored.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Rows per shard (the last shard may hold fewer).
    pub fn shard_rows(&self) -> usize {
        self.shard_rows
    }

    /// Total stored (nonzero) entries across all shards.
    pub fn nnz(&self) -> usize {
        self.shards.iter().map(Csr::nnz).sum()
    }

    /// Rows of the represented matrix.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Columns of the represented matrix.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Fraction of entries stored: `nnz / (n_rows · n_cols)`.
    pub fn density(&self) -> f32 {
        let numel = self.n_rows * self.n_cols;
        if numel == 0 {
            0.0
        } else {
            self.nnz() as f32 / numel as f32
        }
    }

    /// Materializes the dense `(n_rows, n_cols)` tensor.
    pub fn to_dense(&self) -> Tensor {
        let mut out = alloc::acquire_zeroed(self.n_rows * self.n_cols);
        for (s, shard) in self.shards.iter().enumerate() {
            let r0 = s * self.shard_rows;
            for i in 0..shard.n_rows {
                for p in shard.row_ptr[i]..shard.row_ptr[i + 1] {
                    out[(r0 + i) * self.n_cols + shard.col_idx[p] as usize] = shard.values[p];
                }
            }
        }
        Tensor::from_vec(out, [self.n_rows, self.n_cols])
    }

    /// `Y[b] = A · X[b]`; see [`Csr::spmm`]. Each shard fills its own
    /// output row block `[s·shard_rows, …)` — merge-free, bit-identical
    /// to the unsharded product for every shard count.
    ///
    /// # Panics
    /// Panics if `x` has rank < 2 or its second-to-last dim ≠ `n_cols`.
    pub fn spmm(&self, x: &Tensor) -> Tensor {
        let (batch, c) = spmm_shape_check(x, self.n_cols);
        let _g = obs::kernel(
            obs::Kernel::Spmm,
            2 * (batch * self.nnz() * c) as u64,
            4 * (self.nnz() + x.numel()) as u64,
            4 * (batch * self.n_rows * c) as u64,
        );
        obs::tally_simd(dispatch::simd_tier().index());
        obs::tally_shards(self.shards.len() as u64);
        let mut out = alloc::acquire_zeroed(batch * self.n_rows * c);
        let pooled = spmm_pooled_hint(out.len(), batch * self.n_rows);
        self.spmm_slices(x.as_slice(), batch, c, &mut out, pooled);
        let mut dims = x.dims().to_vec();
        let r = dims.len();
        dims[r - 2] = self.n_rows;
        Tensor::from_vec(out, dims.as_slice())
    }

    /// `Y[b] = A · X[b]` over raw slices into a caller-provided buffer;
    /// see [`Csr::spmm_into`]. Bit-identical to [`ShardedCsr::spmm`].
    ///
    /// # Panics
    /// Panics when `x` / `out` lengths disagree with `(batch, c)`.
    pub fn spmm_into(&self, x: &[f32], batch: usize, c: usize, out: &mut [f32], pooled: bool) {
        assert_eq!(x.len(), batch * self.n_cols * c, "spmm_into x length");
        assert_eq!(out.len(), batch * self.n_rows * c, "spmm_into out length");
        let _g = obs::kernel(
            obs::Kernel::Spmm,
            2 * (batch * self.nnz() * c) as u64,
            4 * (self.nnz() + x.len()) as u64,
            4 * out.len() as u64,
        );
        obs::tally_simd(dispatch::simd_tier().index());
        obs::tally_shards(self.shards.len() as u64);
        out.fill(0.0);
        self.spmm_slices(x, batch, c, out, pooled);
    }

    fn spmm_slices(&self, x: &[f32], batch: usize, c: usize, out: &mut [f32], pooled: bool) {
        for (s, shard) in self.shards.iter().enumerate() {
            let _s = (self.shards.len() > 1).then(|| obs::span("spmm.shard")).flatten();
            spmm_core(
                shard.fwd_view(),
                ShardSpan { local: shard.n_rows, offset: s * self.shard_rows, total: self.n_rows },
                ShardSpan::whole(self.n_cols),
                x,
                batch,
                c,
                out,
                pooled,
            );
        }
    }

    /// `Y[b] = Aᵀ · X[b]`; see [`Csr::spmm_t`]. Shards are accumulated
    /// serially in ascending order (each internally pool-parallel), which
    /// replays the unsharded per-element add sequence exactly.
    ///
    /// # Panics
    /// Panics if `x` has rank < 2 or its second-to-last dim ≠ `n_rows`.
    pub fn spmm_t(&self, x: &Tensor) -> Tensor {
        let (batch, c) = spmm_shape_check(x, self.n_rows);
        let _g = obs::kernel(
            obs::Kernel::SpmmT,
            2 * (batch * self.nnz() * c) as u64,
            4 * (self.nnz() + x.numel()) as u64,
            4 * (batch * self.n_cols * c) as u64,
        );
        obs::tally_simd(dispatch::simd_tier().index());
        obs::tally_shards(self.shards.len() as u64);
        let xs = x.as_slice();
        let mut out = alloc::acquire_zeroed(batch * self.n_cols * c);
        let pooled = spmm_pooled_hint(out.len(), batch * self.n_cols);
        for (s, shard) in self.shards.iter().enumerate() {
            let _s = (self.shards.len() > 1).then(|| obs::span("spmm_t.shard")).flatten();
            spmm_core(
                shard.t_view(),
                ShardSpan::whole(self.n_cols),
                ShardSpan { local: shard.n_rows, offset: s * self.shard_rows, total: self.n_rows },
                xs,
                batch,
                c,
                &mut out,
                pooled,
            );
        }
        let mut dims = x.dims().to_vec();
        let r = dims.len();
        dims[r - 2] = self.n_cols;
        Tensor::from_vec(out, dims.as_slice())
    }

    /// Support-restricted adjacency gradient; see [`Csr::dadj`]. Rows of
    /// `dA` are filled from their owning shard's index arrays — output
    /// row blocks are disjoint per shard, so no merge step exists.
    ///
    /// # Panics
    /// Panics on rank/shape mismatches between `dy` and `x`.
    pub fn dadj(&self, dy: &Tensor, x: &Tensor) -> Tensor {
        let (batch, c) = dadj_check(dy, x, self.n_rows, self.n_cols);
        let (n, m) = (self.n_rows, self.n_cols);
        let _g = obs::kernel(
            obs::Kernel::Dadj,
            2 * (batch * self.nnz() * c) as u64,
            4 * (dy.numel() + x.numel() + self.nnz()) as u64,
            4 * (n * m) as u64,
        );
        obs::tally_simd(dispatch::simd_tier().index());
        obs::tally_shards(self.shards.len() as u64);
        let dy_s = dy.as_slice();
        let x_s = x.as_slice();
        let mut out = alloc::acquire_zeroed(n * m);
        dadj_rows_parallel(&mut out, n, m, |i| {
            let shard = &self.shards[i / self.shard_rows];
            let rr = i % self.shard_rows;
            &shard.col_idx[shard.row_ptr[rr]..shard.row_ptr[rr + 1]]
        }, dy_s, x_s, batch, c);
        Tensor::from_vec(out, [n, m])
    }
}

/// Dense twin of [`Csr::dadj`]: the full `(n, m)` adjacency gradient
/// `dA = Σ_b dY[b] · X[b]ᵀ` for `dy: (..b, n, c)` and `x: (..b, m, c)`,
/// computed row-wise by the vectorized [`simd::dadj_row`] kernel over the
/// full column list (no `(b, n, m)` intermediate is materialized) —
/// bit-identical to the per-entry pair-dot reference on every tier.
///
/// # Panics
/// Panics on rank/shape mismatches between `dy` and `x`.
pub fn dadj_dense(dy: &Tensor, x: &Tensor) -> Tensor {
    let r = dy.rank();
    let n = dy.dim(r - 2);
    let m = x.dim(x.rank() - 2);
    let (batch, c) = dadj_check(dy, x, n, m);
    let _g = obs::kernel(
        obs::Kernel::Dadj,
        2 * (batch * n * m * c) as u64,
        4 * (dy.numel() + x.numel()) as u64,
        4 * (n * m) as u64,
    );
    obs::tally_simd(dispatch::simd_tier().index());
    let dy_s = dy.as_slice();
    let x_s = x.as_slice();
    let all_cols: Vec<u32> = (0..m as u32).collect();
    let mut out = alloc::acquire_zeroed(n * m);
    dadj_rows_parallel(&mut out, n, m, |_| all_cols.as_slice(), dy_s, x_s, batch, c);
    Tensor::from_vec(out, [n, m])
}

/// Shape checks shared by the two `dadj` kernels; returns `(batch, c)`.
fn dadj_check(dy: &Tensor, x: &Tensor, n: usize, m: usize) -> (usize, usize) {
    let (rd, rx) = (dy.rank(), x.rank());
    assert!(rd >= 2 && rx >= 2, "dadj requires rank >= 2 operands");
    assert_eq!(
        dy.dims()[..rd - 2],
        x.dims()[..rx - 2],
        "dadj batch dims differ: {} vs {}",
        dy.shape(),
        x.shape()
    );
    assert_eq!(dy.dim(rd - 2), n, "dadj dy rows mismatch");
    assert_eq!(x.dim(rx - 2), m, "dadj x rows mismatch");
    let c = dy.dim(rd - 1);
    assert_eq!(x.dim(rx - 1), c, "dadj feature dims differ");
    (dy.dims()[..rd - 2].iter().product(), c)
}

/// Shared row-parallel harness of the three `dadj` variants: fills row
/// `i` of a pre-zeroed `(n, m)` buffer at the columns `cols(i)` via
/// [`simd::dadj_row`]. Chunk boundaries are a pure function of the sizes.
#[allow(clippy::too_many_arguments)]
fn dadj_rows_parallel<'a>(
    out: &mut [f32],
    n: usize,
    m: usize,
    cols: impl Fn(usize) -> &'a [u32] + Sync,
    dy_s: &[f32],
    x_s: &[f32],
    batch: usize,
    c: usize,
) {
    let fill_rows = |row0: usize, out_rows: &mut [f32]| {
        for (rr, out_row) in out_rows.chunks_mut(m).enumerate() {
            let i = row0 + rr;
            simd::dadj_row(dy_s, x_s, i, cols(i), out_row, batch, n, m, c);
        }
    };
    if n * m >= PARALLEL_THRESHOLD && n >= ROWS_PARALLEL_THRESHOLD && !pool::is_serial() {
        let rows_per = n.div_ceil(pool::num_threads().min(n));
        pool::par_chunks_mut(out, rows_per * m, |ci, chunk| {
            fill_rows(ci * rows_per, chunk);
        });
    } else {
        fill_rows(0, out);
    }
}

/// Shape checks shared by the tensor-returning spmm entry points;
/// returns `(batch, c)`.
fn spmm_shape_check(x: &Tensor, inner: usize) -> (usize, usize) {
    let r = x.rank();
    assert!(r >= 2, "spmm requires a rank >= 2 rhs");
    assert_eq!(
        x.dim(r - 2),
        inner,
        "spmm inner dimension mismatch: lhs has {} columns, rhs {}",
        inner,
        x.shape()
    );
    (x.dims()[..r - 2].iter().product(), x.dim(r - 1))
}

/// Row-parallel CSR·dense product over the given CSR arrays:
/// `out[b, i, :] = Σ_p vals[p] · x[b, cols[p], :]` with the nonzeros of
/// each row processed in groups aligned to absolute ⌊col/4⌋ boundaries
/// ([`simd::spmm_row`]) — the exact accumulation structure of the dense
/// GEMM kernel, so results match the dense product under `f32` equality.
#[allow(clippy::too_many_arguments)]
fn spmm_arrays(view: CsrView<'_>, out_rows: usize, inner: usize, x: &Tensor, kind: obs::Kernel) -> Tensor {
    let (batch, c) = spmm_shape_check(x, inner);
    let _g = obs::kernel(
        kind,
        2 * (batch * view.values.len() * c) as u64,
        4 * (view.values.len() + x.numel()) as u64,
        4 * (batch * out_rows * c) as u64,
    );
    obs::tally_simd(dispatch::simd_tier().index());
    let xs = x.as_slice();
    // Accumulating kernel (and rows without nonzeros must stay zero), so
    // the recycled buffer has to come back zeroed.
    let mut out = alloc::acquire_zeroed(batch * out_rows * c);
    let pooled = spmm_pooled_hint(out.len(), batch * out_rows);
    spmm_core(
        view,
        ShardSpan::whole(out_rows),
        ShardSpan::whole(inner),
        xs,
        batch,
        c,
        &mut out,
        pooled,
    );
    let r = x.rank();
    let mut dims = x.dims().to_vec();
    dims[r - 2] = out_rows;
    Tensor::from_vec(out, dims.as_slice())
}

/// Borrowed view of one product direction's CSR arrays together with the
/// build-time decoded accumulation groups ([`decode_row_groups`]).
#[derive(Clone, Copy)]
struct CsrView<'a> {
    row_ptr: &'a [usize],
    col_idx: &'a [u32],
    values: &'a [f32],
    groups: &'a [u64],
    group_ptr: &'a [usize],
}

impl Csr {
    /// Forward-direction view (`A`, rows = `n_rows`).
    fn fwd_view(&self) -> CsrView<'_> {
        CsrView {
            row_ptr: &self.row_ptr,
            col_idx: &self.col_idx,
            values: &self.values,
            groups: &self.groups,
            group_ptr: &self.group_ptr,
        }
    }

    /// Transposed-direction view (`Aᵀ`, rows = `n_cols`).
    fn t_view(&self) -> CsrView<'_> {
        CsrView {
            row_ptr: &self.t_row_ptr,
            col_idx: &self.t_col_idx,
            values: &self.t_values,
            groups: &self.t_groups,
            group_ptr: &self.t_group_ptr,
        }
    }
}

/// Whether [`spmm_core`] would row-split `total_rows` rows of an
/// `out_len`-element product across the worker pool right now. Plan
/// builders pin this decision at compile time (the pool size is fixed
/// for the process lifetime).
pub fn spmm_pooled_hint(out_len: usize, total_rows: usize) -> bool {
    out_len >= PARALLEL_THRESHOLD && total_rows >= ROWS_PARALLEL_THRESHOLD && !pool::is_serial()
}

/// One axis of a (possibly sharded) spmm: `local` rows of CSR indexing
/// that map to rows `[offset, offset + local)` of a `total`-row global
/// operand. `whole(n)` is the unsharded identity mapping.
#[derive(Clone, Copy)]
struct ShardSpan {
    local: usize,
    offset: usize,
    total: usize,
}

impl ShardSpan {
    fn whole(n: usize) -> ShardSpan {
        ShardSpan { local: n, offset: 0, total: n }
    }
}

/// Lifetime-erased output base pointer handed to pool tasks. Safe because
/// every task writes a disjoint set of output rows derived purely from
/// its task index, and the owning slice outlives the parallel region.
struct SendPtr(*mut f32);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessed via a method so closures capture the (Sync) wrapper, not
    /// the raw pointer field.
    fn get(&self) -> *mut f32 {
        self.0
    }
}

/// The shared CSR·dense core over raw slices: accumulates
/// `out[b, rows.offset + i, :] += Σ_p vals[p] · x[b, x_rows.offset + cols[p], :]`
/// into a pre-zeroed (or mid-accumulation, for sharded `spmm_t`) `out`.
///
/// Loop order is column-tile outer (the active x panel stays
/// cache-resident across CSR rows), rows next (each row's in-tile group
/// range is located with one pair of binary searches over the build-time
/// decoded groups), batch innermost inside the row kernel (the group walk
/// is shared across batch blocks). Tiling, chunk boundaries, and the
/// per-element accumulation sequence are pure functions of the sizes —
/// pooled, serial, sharded, and unsharded walks all produce identical
/// bits per output element.
#[allow(clippy::too_many_arguments)]
fn spmm_core(
    view: CsrView<'_>,
    rows: ShardSpan,
    x_rows: ShardSpan,
    xs: &[f32],
    batch: usize,
    c: usize,
    out: &mut [f32],
    pooled: bool,
) {
    let CsrView { row_ptr, col_idx, values, groups, group_ptr } = view;
    let inner = x_rows.local;
    debug_assert_eq!(xs.len(), batch * x_rows.total * c);
    debug_assert_eq!(out.len(), batch * rows.total * c);
    // Shape-only tiling decision (thread- and tier-invariant): tile the
    // contraction axis when one batch's x slab overflows the budget.
    let tile_w = (X_TILE_BYTES / (4 * c.max(1))).max(4) & !3;
    let base = SendPtr(out.as_mut_ptr());
    let fill = |i0: usize, i1: usize| {
        // Ascending 4-aligned column tiles, rows, then batch: every
        // middle tile's columns sit below ⌊inner/4⌋·4 (tile edges are
        // multiples of 4), so groups complete within their tile and each
        // output element accumulates its nonzeros in the untiled order —
        // bit-identical, just with a cache-sized x window. Groups were
        // decoded once at CSR build; a tile selects a contiguous group
        // subrange because group start columns ascend within a row.
        let mut t0 = 0;
        loop {
            let t1 = (t0 + tile_w).min(inner);
            for i in i0..i1 {
                let row_cols = &col_idx[row_ptr[i]..row_ptr[i + 1]];
                let row_vals = &values[row_ptr[i]..row_ptr[i + 1]];
                let row_groups = &groups[group_ptr[i]..group_ptr[i + 1]];
                let gs = if t0 == 0 && t1 == inner {
                    row_groups
                } else {
                    let start_col = |g: u64| row_cols[(g >> 3) as usize] as usize;
                    let g0 = row_groups.partition_point(|&g| start_col(g) < t0);
                    let g1 = row_groups.partition_point(|&g| start_col(g) < t1);
                    &row_groups[g0..g1]
                };
                if gs.is_empty() {
                    continue;
                }
                // SAFETY: tasks own disjoint row ranges `[i0, i1)`; for a
                // fixed `i` all batch slabs belong to the same task, and
                // `out` outlives the parallel region. Strides step whole
                // batch slabs, so every access stays inside `xs`/`out`.
                unsafe {
                    simd::spmm_row_grouped_batched(
                        gs,
                        row_cols,
                        row_vals,
                        xs.as_ptr().add(x_rows.offset * c),
                        x_rows.total * c,
                        base.get().add((rows.offset + i) * c),
                        rows.total * c,
                        batch,
                        inner,
                        c,
                    );
                }
            }
            if t1 == inner {
                break;
            }
            t0 = t1;
        }
    };
    if pooled && rows.local > 1 && !pool::is_serial() {
        let rows_per = rows.local.div_ceil(pool::num_threads().min(rows.local));
        let n_tasks = rows.local.div_ceil(rows_per);
        pool::par_for(n_tasks, &|t| {
            let i0 = t * rows_per;
            fill(i0, (i0 + rows_per).min(rows.local));
        });
    } else {
        fill(0, rows.local);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    /// Random matrix with an exact fraction of zero entries per row.
    fn sparse_rand(n: usize, m: usize, zero_frac: f32, seed: u64) -> Tensor {
        let mut rng = Rng64::new(seed);
        let mut t = Tensor::rand_uniform([n, m], 0.1, 1.0, &mut rng);
        let zeros_per_row = (m as f32 * zero_frac) as usize;
        let data = t.as_mut_slice();
        for i in 0..n {
            let row = &mut data[i * m..(i + 1) * m];
            let mut zeroed = 0;
            while zeroed < zeros_per_row {
                let j = (rng.next_u64() % m as u64) as usize;
                if row[j] != 0.0 {
                    row[j] = 0.0;
                    zeroed += 1;
                }
            }
        }
        t
    }

    #[test]
    fn round_trip_preserves_bits() {
        for zf in [0.0f32, 0.3, 0.7, 1.0] {
            let a = sparse_rand(13, 9, zf, 42);
            let csr = Csr::from_dense(&a);
            assert_eq!(csr.to_dense(), a, "zero_frac {zf}");
            assert_eq!(
                csr.nnz(),
                a.as_slice().iter().filter(|&&v| v != 0.0).count()
            );
        }
    }

    #[test]
    fn from_dense_all_zero_matrix() {
        let a = Tensor::zeros([5, 7]);
        let csr = Csr::from_dense(&a);
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.density(), 0.0);
        assert_eq!(csr.to_dense(), a);
        let x = Tensor::ones([7, 3]);
        assert_eq!(csr.spmm(&x), Tensor::zeros([5, 3]));
        assert_eq!(csr.spmm_t(&Tensor::ones([5, 3])), Tensor::zeros([7, 3]));
    }

    #[test]
    fn from_dense_interior_empty_rows() {
        // Rows 1 and 3 are empty; CSR row spans must stay well-formed.
        let a = Tensor::from_vec(
            vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 4.0, 0.0],
            [5, 3],
        );
        let csr = Csr::from_dense(&a);
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.to_dense(), a);
        let mut rng = Rng64::new(11);
        let x = Tensor::rand_uniform([2, 3, 4], -1.0, 1.0, &mut rng);
        assert_eq!(csr.spmm(&x), a.matmul(&x));
        let g = Tensor::rand_uniform([2, 5, 4], -1.0, 1.0, &mut rng);
        assert_eq!(csr.spmm_t(&g), a.matmul_tn(&g));
    }

    #[test]
    fn from_dense_single_column_matrix() {
        let a = Tensor::from_vec(vec![0.5, 0.0, -2.0, 0.0], [4, 1]);
        let csr = Csr::from_dense(&a);
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.to_dense(), a);
        let mut rng = Rng64::new(12);
        let x = Tensor::rand_uniform([1, 6], -1.0, 1.0, &mut rng);
        assert_eq!(csr.spmm(&x), a.matmul(&x));
        let g = Tensor::rand_uniform([4, 6], -1.0, 1.0, &mut rng);
        assert_eq!(csr.spmm_t(&g), a.matmul_tn(&g));
    }

    #[test]
    fn from_dense_rows_matches_row_span() {
        let a = sparse_rand(14, 9, 0.5, 21);
        let shard = Csr::from_dense_rows(&a, 4, 12);
        assert_eq!(shard.n_rows(), 8);
        assert_eq!(shard.n_cols(), 9);
        let dense = shard.to_dense();
        let full = a.as_slice();
        for i in 0..8 {
            for j in 0..9 {
                assert_eq!(dense.as_slice()[i * 9 + j], full[(i + 4) * 9 + j]);
            }
        }
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let mut rng = Rng64::new(7);
        for (n, m, c) in [(17, 11, 5), (32, 16, 8), (9, 23, 3)] {
            let a = sparse_rand(n, m, 0.6, n as u64);
            let x = Tensor::rand_uniform([m, c], -1.0, 1.0, &mut rng);
            let csr = Csr::from_dense(&a);
            assert_eq!(csr.spmm(&x), a.matmul(&x), "({n},{m},{c})");
        }
    }

    #[test]
    fn spmm_batched_matches_dense() {
        let mut rng = Rng64::new(8);
        let a = sparse_rand(12, 10, 0.5, 3);
        let x = Tensor::rand_uniform([4, 10, 6], -1.0, 1.0, &mut rng);
        let csr = Csr::from_dense(&a);
        let y = csr.spmm(&x);
        assert_eq!(y.dims(), &[4, 12, 6]);
        assert_eq!(y, a.matmul(&x));
    }

    #[test]
    fn spmm_into_matches_spmm_bitwise() {
        let mut rng = Rng64::new(77);
        let a = sparse_rand(12, 10, 0.5, 3);
        let x = Tensor::rand_uniform([4, 10, 6], -1.0, 1.0, &mut rng);
        let csr = Csr::from_dense(&a);
        let want = csr.spmm(&x);
        for pooled in [false, true] {
            // Dirty slot: spmm_into must zero it before accumulating.
            let mut out = vec![7.0f32; 4 * 12 * 6];
            csr.spmm_into(x.as_slice(), 4, 6, &mut out, pooled);
            for (i, (g, w)) in out.iter().zip(want.as_slice()).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "pooled={pooled} [{i}]");
            }
        }
    }

    #[test]
    fn spmm_t_matches_transposed_product() {
        let mut rng = Rng64::new(9);
        let a = sparse_rand(14, 9, 0.6, 4);
        let g = Tensor::rand_uniform([3, 14, 5], -1.0, 1.0, &mut rng);
        let csr = Csr::from_dense(&a);
        let got = csr.spmm_t(&g);
        assert_eq!(got.dims(), &[3, 9, 5]);
        assert_eq!(got, a.matmul_tn(&g));
    }

    #[test]
    fn dadj_matches_dense_on_support() {
        let mut rng = Rng64::new(10);
        let a = sparse_rand(11, 7, 0.55, 5);
        let dy = Tensor::rand_uniform([2, 11, 6], -1.0, 1.0, &mut rng);
        let x = Tensor::rand_uniform([2, 7, 6], -1.0, 1.0, &mut rng);
        let csr = Csr::from_dense(&a);
        let sparse = csr.dadj(&dy, &x);
        let dense = dadj_dense(&dy, &x);
        for (idx, (&av, (&s, &d))) in a
            .as_slice()
            .iter()
            .zip(sparse.as_slice().iter().zip(dense.as_slice()))
            .enumerate()
        {
            if av != 0.0 {
                assert_eq!(s.to_bits(), d.to_bits(), "support entry {idx}");
            } else {
                assert_eq!(s, 0.0, "off-support entry {idx} must stay zero");
            }
        }
    }

    #[test]
    fn dadj_dense_matches_pair_dot_reference() {
        // The vectorized full-row kernel must reproduce the per-entry
        // pair-dot association bit-for-bit.
        let mut rng = Rng64::new(23);
        for (batch, n, m, c) in [(1, 3, 7, 5), (2, 9, 6, 33), (3, 5, 19, 7)] {
            let dy = Tensor::rand_uniform([batch, n, c], -1.0, 1.0, &mut rng);
            let x = Tensor::rand_uniform([batch, m, c], -1.0, 1.0, &mut rng);
            let got = dadj_dense(&dy, &x);
            for i in 0..n {
                for j in 0..m {
                    let want = simd::pair_dot(
                        dy.as_slice(),
                        x.as_slice(),
                        i,
                        j,
                        batch,
                        n,
                        m,
                        c,
                    );
                    assert_eq!(
                        got.as_slice()[i * m + j].to_bits(),
                        want.to_bits(),
                        "({batch},{n},{m},{c}) entry ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_rows_produce_zero_output() {
        let a = Tensor::zeros([4, 3]);
        let csr = Csr::from_dense(&a);
        assert_eq!(csr.nnz(), 0);
        let x = Tensor::ones([3, 2]);
        assert_eq!(csr.spmm(&x), Tensor::zeros([4, 2]));
    }

    #[test]
    fn sharded_products_bit_identical_to_unsharded() {
        let mut rng = Rng64::new(31);
        for (n, m, c, zf) in [(23, 11, 6, 0.5), (40, 16, 5, 0.7), (9, 5, 3, 0.3)] {
            let a = sparse_rand(n, m, zf, n as u64 + 100);
            let csr = Csr::from_dense(&a);
            let x = Tensor::rand_uniform([3, m, c], -1.0, 1.0, &mut rng);
            let g = Tensor::rand_uniform([3, n, c], -1.0, 1.0, &mut rng);
            let want_f = csr.spmm(&x);
            let want_t = csr.spmm_t(&g);
            let want_d = csr.dadj(&g, &x);
            for k in [1usize, 2, 5] {
                let sharded = ShardedCsr::from_dense(&a, k);
                assert_eq!(sharded.nnz(), csr.nnz(), "k={k}");
                assert_eq!(sharded.to_dense(), a, "k={k}");
                let got_f = sharded.spmm(&x);
                let got_t = sharded.spmm_t(&g);
                let got_d = sharded.dadj(&g, &x);
                for (name, got, want) in [
                    ("spmm", &got_f, &want_f),
                    ("spmm_t", &got_t, &want_t),
                    ("dadj", &got_d, &want_d),
                ] {
                    assert_eq!(got.dims(), want.dims());
                    for (i, (gv, wv)) in
                        got.as_slice().iter().zip(want.as_slice()).enumerate()
                    {
                        assert_eq!(
                            gv.to_bits(),
                            wv.to_bits(),
                            "({n},{m},{c}) k={k} {name} [{i}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_spmm_into_matches_unsharded() {
        let mut rng = Rng64::new(32);
        let a = sparse_rand(20, 8, 0.5, 6);
        let x = Tensor::rand_uniform([2, 8, 5], -1.0, 1.0, &mut rng);
        let csr = Csr::from_dense(&a);
        let want = csr.spmm(&x);
        for k in [1usize, 3] {
            let sharded = ShardedCsr::from_dense(&a, k);
            for pooled in [false, true] {
                let mut out = vec![9.0f32; 2 * 20 * 5];
                sharded.spmm_into(x.as_slice(), 2, 5, &mut out, pooled);
                for (i, (g, w)) in out.iter().zip(want.as_slice()).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "k={k} pooled={pooled} [{i}]");
                }
            }
        }
    }

    #[test]
    fn mode_toggle_round_trips() {
        let prev = set_sparse_mode(SparseMode::On);
        assert!(should_use_sparse(64, 64, 1, 0));
        assert_eq!(set_sparse_mode(SparseMode::Off), SparseMode::On);
        assert!(!should_use_sparse(1000, 1000, 8, 0));
        set_sparse_mode(SparseMode::Auto);
        // Auto: shapes below the 32×32 floor stay dense regardless of
        // density; past it the batched-savings cost model decides.
        assert!(!should_use_sparse(10, 10, 4, 50));
        assert!(should_use_sparse(100, 100, 4, 5000));
        assert!(!should_use_sparse(100, 100, 4, 9000));
        assert!(!should_use_sparse(100, 100, 1, 5000));
        // 50 % density, batched: enough zeros to pay for the CSR but
        // the dense GEMMs still win the products → hybrid.
        assert_eq!(spmm_dispatch(100, 100, 4, 5000), SpmmDispatch::Hybrid);
        // ≤ 25 % density: the CSR products win outright.
        assert_eq!(spmm_dispatch(100, 100, 4, 2500), SpmmDispatch::Sparse);
        assert_eq!(spmm_dispatch(100, 100, 4, 1000), SpmmDispatch::Sparse);
        // Dense matrix, tiny shapes, or unbatched: no CSR at all.
        assert_eq!(spmm_dispatch(100, 100, 4, 10000), SpmmDispatch::Dense);
        assert_eq!(spmm_dispatch(10, 10, 4, 10), SpmmDispatch::Dense);
        assert_eq!(spmm_dispatch(100, 100, 1, 5000), SpmmDispatch::Dense);
        // Forced modes collapse the split.
        set_sparse_mode(SparseMode::On);
        assert_eq!(spmm_dispatch(100, 100, 4, 5000), SpmmDispatch::Sparse);
        set_sparse_mode(SparseMode::Off);
        assert_eq!(spmm_dispatch(100, 100, 4, 1000), SpmmDispatch::Dense);
        set_sparse_mode(prev);
    }

    #[test]
    fn diffuse_plan_accessors() {
        // 8 rows so a 2-shard plan survives the 4-aligned boundary snap.
        let mut data = vec![0.0f32; 8 * 4];
        data[0] = 1.0;
        data[13] = 2.0;
        let a = Tensor::from_vec(data, [8, 4]);
        let dense = DiffusePlan::Dense;
        assert_eq!(dense.dispatch(), SpmmDispatch::Dense);
        assert!(dense.csr().is_none());
        assert!(!dense.products_sparse());
        assert_eq!(dense.shard_count(), 1);
        let hybrid =
            DiffusePlan::build(SpmmDispatch::Hybrid, || ShardedCsr::from_dense(&a, 2));
        assert_eq!(hybrid.dispatch(), SpmmDispatch::Hybrid);
        assert!(!hybrid.products_sparse());
        assert_eq!(hybrid.shard_count(), 2);
        let sparse =
            DiffusePlan::build(SpmmDispatch::Sparse, || ShardedCsr::from_dense(&a, 1));
        assert!(sparse.products_sparse());
        assert_eq!(sparse.csr().unwrap().nnz(), 2);
    }
}
