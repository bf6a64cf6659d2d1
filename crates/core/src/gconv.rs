//! Fast graph convolution — Eq. 9 of the paper.
//!
//! ```text
//! W ⋆_{A_s} X = Σ_{j=0}^{J−1} W_j · [ (D + I)^{-1} (A_s X_I + X) ]^j
//! ```
//!
//! where the bracket denotes applying the normalized diffusion operator
//! `j` times. With a slim `A_s ∈ R^{N×M}` the gather `X_I` plus the
//! `N×M · M×c` product cost `O(NMc)` — the paper's headline reduction from
//! the dense `O(N²c)`.
//!
//! [`Adjacency`] abstracts over the slim matrix (SAGDFN) and a dense
//! `N×N` matrix (predefined-topology baselines and the *w/o SNS & SSMA*
//! ablation), so the same GRU cell serves both.

use sagdfn_autodiff::{Tape, Var};
use sagdfn_nn::{Binding, Dropout, Linear, Mode, Params};
use sagdfn_tensor::sparse::{DiffusePlan, ShardedCsr};
use sagdfn_tensor::{Rng64, SpmmDispatch, Tensor};
use std::cell::{Cell, OnceCell};
use std::rc::Rc;

/// Floor applied to the `(deg + 1)` normalizer: learned weights can be
/// negative, and the inverse must stay bounded for stable training.
const DEGREE_FLOOR: f32 = 0.1;

/// An adjacency usable by the graph convolution, recorded on a tape.
///
/// Built fresh per forward pass via [`Adjacency::slim`] (the paper's
/// `N×M` matrix plus the significant index set `I`) or
/// [`Adjacency::dense`] (an `N×N` matrix for predefined-topology
/// baselines and the *w/o SNS & SSMA* ablation). Two per-pass artifacts
/// are computed once and shared by every diffusion step of the chain:
///
/// * the `(D+I)^{-1}` normalizer (previously rebuilt per step), and
/// * a [`DiffusePlan`] for the weights, chosen by measured density
///   (`sparse::spmm_dispatch`; tests force one with `set_sparse_mode`):
///   dense GEMMs throughout, full CSR, or the hybrid that keeps products
///   on the GEMMs and only the adjacency gradient on the
///   support-restricted CSR. With entmax-produced adjacencies the exact
///   zeros make the restriction lossless (DESIGN.md §9).
pub struct Adjacency<'t> {
    /// `A_s`, `(N, M)` (slim) or `(N, N)` (dense).
    weights: Var<'t>,
    /// The `M` significant node indices; `None` for a dense adjacency.
    index: Option<Vec<usize>>,
    /// Cached `(D+I)^{-1}` var, `(1, N, 1)`.
    deg_inv: Cell<Option<Var<'t>>>,
    /// Row-shard count for the CSR plan (DESIGN.md §14); 1 = unsharded.
    shards: usize,
    /// Lazily-built execution plan (dense / hybrid / sparse).
    plan: OnceCell<DiffusePlan>,
}

impl<'t> Adjacency<'t> {
    /// Slim adjacency `A_s ∈ R^{N×M}` over the significant set `index`.
    pub fn slim(weights: Var<'t>, index: Vec<usize>) -> Self {
        assert_eq!(
            weights.dims()[1],
            index.len(),
            "slim adjacency columns must match the significant index set"
        );
        Adjacency {
            weights,
            index: Some(index),
            deg_inv: Cell::new(None),
            shards: 1,
            plan: OnceCell::new(),
        }
    }

    /// Sets the row-shard count used when a CSR plan is built (node
    /// sharding, DESIGN.md §14). Every shard count produces bit-identical
    /// diffusion results; `k` only bounds the per-shard working set.
    pub fn with_shards(mut self, k: usize) -> Self {
        self.shards = k.max(1);
        self
    }

    /// Dense `N×N` adjacency (predefined topology or quadratic baselines).
    pub fn dense(weights: Var<'t>) -> Self {
        assert_eq!(
            weights.dims()[0],
            weights.dims()[1],
            "dense adjacency must be square"
        );
        Adjacency {
            weights,
            index: None,
            deg_inv: Cell::new(None),
            shards: 1,
            plan: OnceCell::new(),
        }
    }

    /// The adjacency weights var (`(N, M)` slim, `(N, N)` dense).
    pub fn weights(&self) -> Var<'t> {
        self.weights
    }

    /// The significant index set `I`, or `None` for a dense adjacency.
    pub fn index(&self) -> Option<&[usize]> {
        self.index.as_deref()
    }

    /// Whether this is the paper's slim `N×M` form.
    pub fn is_slim(&self) -> bool {
        self.index.is_some()
    }

    /// One normalized diffusion step `(D+I)^{-1}(A·X(_I) + X)` on
    /// `x: (B, N, c)`.
    pub fn diffuse(&self, x: Var<'t>) -> Var<'t> {
        let dims = x.dims();
        assert_eq!(dims.len(), 3, "diffuse expects (B, N, c)");
        assert_eq!(self.weights.dims()[0], dims[1], "adjacency node mismatch");
        // A·X_I (slim) or A·X (dense): one sparse-or-dense product,
        // no transposed intermediates.
        let gathered = match &self.index {
            Some(index) => x.index_select(1, index), // (B, M, c)
            None => x,
        };
        let ax = self.weights.spmm_diffuse(&gathered, self.plan_for(dims[0])); // (B, N, c)
        ax.add(&x).mul(&self.degree_inverse())
    }

    /// Number of nodes `N`.
    pub fn n(&self) -> usize {
        self.weights.dims()[0]
    }

    /// The execution plan for this pass: built on first use from the
    /// measured number of exact zeros in the weights and the product
    /// batch size ([`sagdfn_tensor::spmm_dispatch`]); the CSR is only
    /// constructed when the chosen pipeline uses it.
    fn plan_for(&self, batch: usize) -> DiffusePlan {
        self.plan
            .get_or_init(|| {
                self.weights.with_value(|w| {
                    let (n, m) = (w.dim(0), w.dim(1));
                    let nnz: usize = sagdfn_entmax::support_counts(w.as_slice(), m)
                        .iter()
                        .map(|&c| c as usize)
                        .sum();
                    let dispatch = sagdfn_tensor::spmm_dispatch(n, m, batch, nnz);
                    DiffusePlan::build(dispatch, || ShardedCsr::from_dense(w, self.shards))
                })
            })
            .clone()
    }

    /// `(D + I)^{-1}` as a broadcastable `(1, N, 1)` var — computed once
    /// per adjacency and shared by every step of the diffusion chain.
    fn degree_inverse(&self) -> Var<'t> {
        if let Some(cached) = self.deg_inv.get() {
            return cached;
        }
        let n = self.n();
        let deg = self.weights.sum_axis(1); // (N)
        let denom = deg.add_scalar(1.0).clamp_min(DEGREE_FLOOR);
        let ones = self.weights.tape().constant(Tensor::ones([n]));
        let inv = ones.div(&denom).reshape([1, n, 1]);
        self.deg_inv.set(Some(inv));
        inv
    }

    /// Snapshots this adjacency's per-pass artifacts — the weight values,
    /// the `(D+I)^{-1}` normalizer and the CSR plan — into a tape-free
    /// [`FrozenPlan`]. Both artifacts are forced through the exact same
    /// ops `diffuse` would run, so a reconstructed adjacency is
    /// bit-identical to a freshly built one. `batch_hint` is the batch
    /// size the sparse-vs-dense dispatch is costed against (eval batches
    /// all share one frozen plan).
    pub fn freeze(&self, batch_hint: usize) -> FrozenPlan {
        FrozenPlan {
            plan: self.plan_for(batch_hint),
            deg_inv: self.degree_inverse().value(),
            weights: self.weights.value(),
            index: self.index.clone(),
        }
    }

    /// Rebuilds an adjacency on `tape` from a frozen plan: the weights and
    /// normalizer are re-injected as constants and the execution plan is
    /// pre-set, so no per-batch degree/density work happens at all.
    pub fn from_plan(tape: &'t Tape, plan: &FrozenPlan) -> Self {
        let adj = Adjacency {
            weights: tape.constant(plan.weights.clone()),
            index: plan.index.clone(),
            deg_inv: Cell::new(Some(tape.constant(plan.deg_inv.clone()))),
            shards: plan.plan.shard_count(),
            plan: OnceCell::new(),
        };
        let _ = adj.plan.set(plan.plan.clone());
        adj
    }
}

/// Tape-free snapshot of an [`Adjacency`]'s per-pass artifacts, cached on
/// the model for eval mode: the slim weights, the `(D+I)^{-1}` normalizer
/// and the CSR execution plan are computed once from `E` and reused across
/// every batch of a `predict`/`evaluate` sweep. Invalidated whenever the
/// parameters can have changed (optimizer step, checkpoint load, neighbor
/// resampling).
pub struct FrozenPlan {
    weights: Tensor,
    deg_inv: Tensor,
    index: Option<Vec<usize>>,
    plan: DiffusePlan,
}

impl FrozenPlan {
    /// The frozen significant index set, `None` for a dense adjacency.
    pub fn index(&self) -> Option<&[usize]> {
        self.index.as_deref()
    }

    /// The frozen dispatch decision (dense / hybrid / sparse).
    pub fn dispatch(&self) -> SpmmDispatch {
        self.plan.dispatch()
    }

    /// Whether the frozen plan runs the forward product on the CSR
    /// kernels. The hybrid pipeline answers `false`: its CSR exists
    /// only for the training-time adjacency gradient, and eval (which
    /// never takes gradients) sticks to the dense GEMM.
    pub fn products_sparse(&self) -> bool {
        self.plan.products_sparse()
    }

    /// The frozen adjacency weight values (plan-executor compile input).
    pub(crate) fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// The frozen `(D+I)^{-1}` normalizer, shape `(1, N, 1)`.
    pub(crate) fn deg_inv(&self) -> &Tensor {
        &self.deg_inv
    }

    /// The frozen CSR, `None` when the all-dense pipeline won.
    pub(crate) fn csr(&self) -> Option<&Rc<ShardedCsr>> {
        self.plan.csr()
    }

    /// Shard count of the frozen CSR plan (1 when dense dispatch won).
    pub fn shard_count(&self) -> usize {
        self.plan.shard_count()
    }
}

/// The learnable part of Eq. 9: one `Linear` per diffusion depth `j`,
/// with inverted dropout on the input (train mode only).
pub struct GConv {
    steps: Vec<Linear>,
    dropout: Dropout,
}

impl GConv {
    /// Registers `J` linear maps `c_in → c_out` (bias only on `j = 0`)
    /// and a dropout layer applied to the convolution input at train time.
    pub fn new(
        params: &mut Params,
        name: &str,
        c_in: usize,
        c_out: usize,
        depth: usize,
        dropout: f32,
        rng: &mut Rng64,
    ) -> Self {
        assert!(depth >= 1, "diffusion depth must be >= 1");
        let steps = (0..depth)
            .map(|j| Linear::new(params, &format!("{name}.w{j}"), c_in, c_out, j == 0, rng))
            .collect();
        GConv {
            steps,
            dropout: Dropout::new(&format!("{name}.drop"), dropout),
        }
    }

    /// `W ⋆ X`: accumulates `W_j · diffuse^j(X)` over the depth.
    pub fn forward<'t>(
        &self,
        bind: &Binding<'t>,
        adj: &Adjacency<'t>,
        x: Var<'t>,
        mode: Mode,
    ) -> Var<'t> {
        let mut h = self.dropout.forward(x, mode);
        let mut acc = self.steps[0].forward(bind, h);
        for w in &self.steps[1..] {
            h = adj.diffuse(h);
            acc = acc.add(&w.forward(bind, h));
        }
        acc
    }

    /// Diffusion depth `J`.
    pub fn depth(&self) -> usize {
        self.steps.len()
    }

    /// The per-depth linear maps (plan-executor compile input).
    pub(crate) fn steps(&self) -> &[Linear] {
        &self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sagdfn_autodiff::Tape;
    use sagdfn_graph::SlimAdj;

    #[test]
    fn slim_diffuse_matches_graph_crate_reference() {
        // Autodiff diffusion must agree with the plain-tensor SlimAdj
        // implementation for non-negative weights (no floor effect).
        let n = 6;
        let index = vec![1, 4];
        let mut rng = Rng64::new(0);
        let w = Tensor::rand_uniform([n, 2], 0.1, 1.0, &mut rng);
        let x0 = Tensor::rand_uniform([n, 3], -1.0, 1.0, &mut rng);

        let reference = SlimAdj::new(w.clone(), index.clone()).diffuse_step(&x0);

        let tape = Tape::new();
        let adj = Adjacency::slim(tape.constant(w), index.clone());
        let x = tape.constant(x0.reshape([1, n, 3]));
        let out = adj.diffuse(x).value().reshape([n, 3]);
        for (a, b) in out.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn dense_and_slim_agree_when_slim_covers_all_nodes() {
        let n = 5;
        let mut rng = Rng64::new(1);
        let w = Tensor::rand_uniform([n, n], 0.0, 1.0, &mut rng);
        let x0 = Tensor::rand_uniform([2, n, 2], -1.0, 1.0, &mut rng);
        let tape = Tape::new();
        let x = tape.constant(x0);
        let dense = Adjacency::dense(tape.constant(w.clone()));
        let slim = Adjacency::slim(tape.constant(w), (0..n).collect());
        let a = dense.diffuse(x).value();
        let b = slim.diffuse(x).value();
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn diffusion_preserves_constant_signal() {
        // (D+I)^{-1}((A+I)·c·1) = c for non-negative A.
        let n = 7;
        let mut rng = Rng64::new(2);
        let w = Tensor::rand_uniform([n, 3], 0.0, 1.0, &mut rng);
        let tape = Tape::new();
        let adj = Adjacency::slim(tape.constant(w), vec![0, 2, 5]);
        let x = tape.constant(Tensor::full([1, n, 1], 4.2));
        let y = adj.diffuse(x).value();
        for &v in y.as_slice() {
            assert!((v - 4.2).abs() < 1e-4);
        }
    }

    #[test]
    fn gconv_shapes_and_grads() {
        let n = 6;
        let mut rng = Rng64::new(3);
        let mut params = Params::new();
        let conv = GConv::new(&mut params, "gc", 4, 8, 3, 0.0, &mut rng);
        let a_id = params.add("A", Tensor::rand_uniform([n, 2], 0.0, 1.0, &mut rng));
        let tape = Tape::new();
        let bind = params.bind(&tape);
        let adj = Adjacency::slim(bind.var(a_id), vec![1, 3]);
        let x = tape.constant(Tensor::rand_uniform([2, n, 4], -1.0, 1.0, &mut rng));
        let y = conv.forward(&bind, &adj, x, Mode::Train);
        assert_eq!(y.dims(), vec![2, n, 8]);
        let grads = y.square().sum().backward();
        assert!(
            bind.grad(&grads, a_id).is_some(),
            "adjacency must receive gradients (end-to-end learning)"
        );
        for id in params.ids() {
            assert!(bind.grad(&grads, id).is_some(), "{}", params.name(id));
        }
    }

    #[test]
    fn depth_one_is_plain_linear() {
        // J = 1 never touches the adjacency: output = W_0 x + b.
        let n = 4;
        let mut rng = Rng64::new(4);
        let mut params = Params::new();
        let conv = GConv::new(&mut params, "gc", 2, 2, 1, 0.0, &mut rng);
        let a_id = params.add("A", Tensor::rand_uniform([n, 1], 0.0, 1.0, &mut rng));
        let tape = Tape::new();
        let bind = params.bind(&tape);
        let adj = Adjacency::slim(bind.var(a_id), vec![0]);
        let x = tape.constant(Tensor::rand_uniform([1, n, 2], -1.0, 1.0, &mut rng));
        let y = conv.forward(&bind, &adj, x, Mode::Eval);
        let grads = y.sum().backward();
        assert!(
            bind.grad(&grads, a_id).is_none(),
            "J = 1 must not involve the adjacency"
        );
    }

    #[test]
    fn frozen_plan_reconstructs_bitwise() {
        // freeze() on one tape, from_plan() on another: diffusion output
        // must be bit-identical and the normalizer/plan must be pre-set.
        let n = 8;
        let index = vec![0, 3, 6];
        let mut rng = Rng64::new(9);
        let w = Tensor::rand_uniform([n, 3], -0.5, 1.0, &mut rng);
        let x0 = Tensor::rand_uniform([2, n, 4], -1.0, 1.0, &mut rng);

        let t1 = Tape::new();
        let fresh = Adjacency::slim(t1.constant(w.clone()), index.clone());
        let want = fresh.diffuse(t1.constant(x0.clone())).value();
        let plan = fresh.freeze(2);
        assert_eq!(plan.index(), Some(index.as_slice()));

        let t2 = Tape::new();
        let rebuilt = Adjacency::from_plan(&t2, &plan);
        let got = rebuilt.diffuse(t2.constant(x0)).value();
        let want_bits: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
        let got_bits: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(want_bits, got_bits, "frozen diffusion must be bit-exact");
    }

    #[test]
    fn train_dropout_perturbs_gconv_and_eval_does_not() {
        let n = 5;
        let mut rng = Rng64::new(11);
        let mut params = Params::new();
        let conv = GConv::new(&mut params, "gc", 3, 3, 2, 0.5, &mut rng);
        let a = Tensor::rand_uniform([n, 2], 0.0, 1.0, &mut rng);
        let x0 = Tensor::rand_uniform([1, n, 3], -1.0, 1.0, &mut rng);
        let tape = Tape::new();
        let bind = params.bind(&tape);
        let adj = Adjacency::slim(tape.constant(a), vec![1, 4]);
        let x = tape.constant(x0);
        let e1 = conv.forward(&bind, &adj, x, Mode::Eval).value();
        let e2 = conv.forward(&bind, &adj, x, Mode::Eval).value();
        assert_eq!(e1, e2, "eval forwards must be deterministic");
        let t1 = conv.forward(&bind, &adj, x, Mode::Train).value();
        let t2 = conv.forward(&bind, &adj, x, Mode::Train).value();
        assert_ne!(t1, t2, "train-mode masks must differ across calls");
    }

    #[test]
    fn degree_floor_keeps_inverse_finite_for_negative_weights() {
        let n = 3;
        let tape = Tape::new();
        // Strongly negative weights drive deg + 1 below zero; the clamp
        // must keep the normalizer finite and positive.
        let adj = Adjacency::slim(tape.constant(Tensor::full([n, 2], -5.0)), vec![0, 1]);
        let x = tape.constant(Tensor::ones([1, n, 1]));
        let y = adj.diffuse(x).value();
        assert!(y.all_finite(), "{y:?}");
    }
}
