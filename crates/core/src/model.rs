//! The SAGDFN model: modules wired per Figure 1, trained per Algorithm 2.

use crate::ablation::Variant;
use crate::attention::{inner_product_adjacency, SparseSpatialAttention};
use crate::cell::OneStepFastGConv;
use crate::config::{Backbone, HeadKind, SagdfnConfig};
use crate::gconv::{Adjacency, FrozenPlan, GConv};
use crate::head::{self, ForecastHead};
use crate::plan::{self, PlanDims, PlanExecutor};
use crate::sns::NeighborSampler;
use sagdfn_autodiff::{Tape, Var};
use sagdfn_data::{Batch, ZScore};
use sagdfn_nn::{init, Binding, Linear, Mode, ParamId, Params};
use sagdfn_tensor::{Rng64, Tensor};
use std::cell::RefCell;
use std::rc::Rc;

/// Input channels per node and step: scaled value + time-of-day +
/// day-of-week (matching `sagdfn_data::window::Batch`).
pub const INPUT_CHANNELS: usize = 3;

/// The Scalable Adaptive Graph Diffusion Forecasting Network.
pub struct Sagdfn {
    /// All trainable tensors (embedding, attention, encoder, decoder).
    pub params: Params,
    cfg: SagdfnConfig,
    variant: Variant,
    n: usize,
    /// Resolved node-shard count (≥ 1), fixed at construction:
    /// `cfg.shards`, or the memsim auto plan when it is 0. See
    /// [`Sagdfn::shards`].
    shards: usize,
    embed: ParamId,
    attn: SparseSpatialAttention,
    body: Body,
    sampler: NeighborSampler,
    index: Vec<usize>,
    iter: usize,
    rng: Rng64,
    /// Fixed dense adjacency for [`Variant::WithoutSnsSsma`].
    topo: Option<Tensor>,
    /// Eval-mode adjacency cache: frozen slim weights, normalizer and CSR
    /// plan, shared across batches until the parameters can have changed.
    frozen: RefCell<Option<Rc<FrozenPlan>>>,
    /// The compiled eval schedule: one for every batch size, sized to
    /// the largest batch seen since it was compiled (a sweep's tail batch
    /// or a partial serving batch runs on a prefix of its arena). Tied to
    /// the `FrozenPlan` it was built from, so [`Sagdfn::invalidate_plan`]
    /// drops it too.
    planned: RefCell<Option<PlanExecutor>>,
}

impl Sagdfn {
    /// Builds the full model for `n` nodes.
    pub fn new(n: usize, cfg: SagdfnConfig) -> Self {
        Sagdfn::with_variant(n, cfg, Variant::Full, None)
    }

    /// Builds an ablation variant. `topology` is required for
    /// [`Variant::WithoutSnsSsma`] (an `N×N` dense adjacency, typically
    /// the latent graph's top-k rows) and ignored otherwise.
    pub fn with_variant(
        n: usize,
        mut cfg: SagdfnConfig,
        variant: Variant,
        topology: Option<Tensor>,
    ) -> Self {
        cfg.validate(n);
        if variant == Variant::WithoutEntmax {
            cfg.alpha = 1.0; // softmax
        }
        let mut rng = Rng64::new(cfg.seed);
        let mut params = Params::new();
        let embed = params.add("E", init::normal_embedding(n, cfg.embed_dim, &mut rng));
        let attn = SparseSpatialAttention::new(&mut params, &cfg, &mut rng);
        let body = Body::new(&mut params, &cfg, &mut rng);
        let mut sampler = NeighborSampler::new(n, cfg.m, cfg.top_k, &mut rng);
        let index = match variant {
            // Fixed uniform sample, never refined.
            Variant::WithoutSns => rng.sample_indices(n, cfg.m),
            // Unused by the topology variant, but kept valid.
            Variant::WithoutSnsSsma => (0..cfg.m).collect(),
            _ => sampler.sample(params.get(embed), true, &mut rng),
        };
        let topo = match variant {
            Variant::WithoutSnsSsma => Some(
                topology.expect("WithoutSnsSsma requires a topology adjacency"),
            ),
            _ => None,
        };
        if let Some(t) = &topo {
            assert_eq!(t.dims(), &[n, n], "topology adjacency must be N x N");
        }
        let shards = resolve_shards(&cfg, n);
        Sagdfn {
            params,
            cfg,
            variant,
            n,
            shards,
            embed,
            attn,
            body,
            sampler,
            index,
            iter: 0,
            rng,
            topo,
            frozen: RefCell::new(None),
            planned: RefCell::new(None),
        }
    }

    /// Number of nodes the model was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Resolved node-shard count for the diffusion working set (≥ 1).
    /// Sharding is a memory-layout decision only: shards = 1 and
    /// shards = k produce bit-identical losses, gradients and
    /// predictions (DESIGN.md §14, `tests/sparse_dense.rs`).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The active configuration.
    pub fn config(&self) -> &SagdfnConfig {
        &self.cfg
    }

    /// The active variant.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// The current significant-neighbor index set `I`.
    pub fn significant_index(&self) -> &[usize] {
        &self.index
    }

    /// Training iterations performed so far.
    pub fn iterations(&self) -> usize {
        self.iter
    }

    /// Runs Algorithm 1 if this variant and iteration call for it
    /// (Algorithm 2 lines 4–6). Called once per training step.
    pub fn maybe_resample(&mut self) {
        if !self.variant.uses_sns() {
            return;
        }
        if !self.iter.is_multiple_of(self.cfg.sns_every) {
            return;
        }
        let explore = self.iter < self.cfg.convergence_iter;
        self.index = self
            .sampler
            .sample(self.params.get(self.embed), explore, &mut self.rng);
        self.invalidate_plan();
    }

    /// Advances the iteration counter (Algorithm 2 line 16). Training
    /// steps mutate the parameters, so any frozen eval plan is stale.
    pub fn tick(&mut self) {
        self.iter += 1;
        self.invalidate_plan();
    }

    /// Deterministically re-derives the significant index set from the
    /// *current* embeddings with exploration off. Call after loading a
    /// checkpoint: the persisted weights include `E`, and the frozen
    /// post-convergence index is a pure function of `E`, so this recovers
    /// the index the trained model ended with.
    pub fn refresh_index(&mut self) {
        if !self.variant.uses_sns() {
            return;
        }
        self.index = self
            .sampler
            .sample(self.params.get(self.embed), false, &mut self.rng);
        self.invalidate_plan();
    }

    /// Drops the frozen eval-mode adjacency plan. Called whenever the
    /// parameters or the index set can have changed (training step,
    /// resampling, checkpoint load via [`Sagdfn::refresh_index`]); the
    /// next eval forward rebuilds it once.
    pub fn invalidate_plan(&self) {
        self.frozen.borrow_mut().take();
        *self.planned.borrow_mut() = None;
    }

    /// The frozen eval-mode adjacency artifacts, built once per parameter
    /// state on a scratch no-grad tape (the exact same ops as the train
    /// path, so eval stays bit-identical) and reused across batches.
    ///
    /// With `shards > 1` and an attention-bearing variant, `A_s` is
    /// assembled one row shard at a time — each shard's pair table,
    /// head FFNs and entmax run on their own scratch tape that is torn
    /// down before the next shard starts, so the eval-graph peak holds a
    /// `(rows·M, 2d)` table instead of the full `(N·M, 2d)` one. Every op
    /// in that chain is row-independent, so the assembled adjacency is
    /// bit-identical to the unsharded build
    /// (`attention::tests::forward_rows_bit_identical_to_full_forward_block`).
    pub fn frozen_plan(&self) -> Rc<FrozenPlan> {
        if let Some(plan) = self.frozen.borrow().as_ref() {
            sagdfn_obs::tally_plan(true);
            return Rc::clone(plan);
        }
        sagdfn_obs::tally_plan(false);
        let batch_hint = self.cfg.batch_size;
        let uses_attn = !matches!(
            self.variant,
            Variant::WithoutSnsSsma | Variant::WithoutAttention
        );
        let frozen = if self.shards > 1 && uses_attn {
            let m = self.index.len();
            let rows_per = self.n.div_ceil(self.shards);
            let mut weights = Tensor::zeros([self.n, m]);
            let mut r0 = 0;
            while r0 < self.n {
                let r1 = (r0 + rows_per).min(self.n);
                let _span = sagdfn_obs::span("frozen_plan.attn_shard");
                let tape = Tape::new();
                let _guard = tape.no_grad();
                let bind = self.params.bind(&tape);
                let block = self
                    .attn
                    .forward_rows(&bind, bind.var(self.embed), &self.index, r0, r1, Mode::Eval)
                    .value();
                weights.as_mut_slice()[r0 * m..r1 * m].copy_from_slice(block.as_slice());
                r0 = r1;
            }
            let tape = Tape::new();
            let _guard = tape.no_grad();
            Adjacency::slim(tape.constant(weights), self.index.clone())
                .with_shards(self.shards)
                .freeze(batch_hint)
        } else {
            let tape = Tape::new();
            let _guard = tape.no_grad();
            let bind = self.params.bind(&tape);
            self.adjacency(&tape, &bind, Mode::Eval).freeze(batch_hint)
        };
        let plan = Rc::new(frozen);
        *self.frozen.borrow_mut() = Some(Rc::clone(&plan));
        plan
    }

    /// Computes this step's adjacency on the tape (Algorithm 2 line 7).
    pub fn adjacency<'t>(&self, tape: &'t Tape, bind: &Binding<'t>, mode: Mode) -> Adjacency<'t> {
        let adj = match self.variant {
            Variant::WithoutSnsSsma => {
                Adjacency::dense(tape.constant(self.topo.clone().expect("topology set")))
            }
            Variant::WithoutAttention => Adjacency::slim(inner_product_adjacency(
                    bind.var(self.embed),
                    &self.index,
                    self.cfg.alpha,
                ), self.index.clone()),
            _ => Adjacency::slim(
                self.attn.forward(bind, bind.var(self.embed), &self.index, mode),
                self.index.clone(),
            ),
        };
        adj.with_shards(self.shards)
    }

    /// Full encoder-decoder forward pass (Algorithm 2 lines 8–12).
    ///
    /// Returns raw-unit predictions `(f, B, N)` as a tape var, so the L1
    /// loss (Eq. 11) differentiates through the inverse scaling.
    pub fn forward<'t>(
        &self,
        tape: &'t Tape,
        bind: &Binding<'t>,
        batch: &Batch,
        scaler: ZScore,
        mode: Mode,
    ) -> Var<'t> {
        self.forward_scheduled(tape, bind, batch, scaler, &[], mode)
    }

    /// Forward pass with a scheduled-sampling teacher mask: at decoder
    /// step `t` with `teacher[t] == true`, the decoder consumes the
    /// ground-truth observation of step `t-1` (scaled) instead of its own
    /// previous prediction. An empty mask disables teacher forcing (the
    /// paper's Algorithm 2). Only the GRU backbone has a feedback loop;
    /// direct backbones ignore the mask.
    pub fn forward_scheduled<'t>(
        &self,
        tape: &'t Tape,
        bind: &Binding<'t>,
        batch: &Batch,
        scaler: ZScore,
        teacher: &[bool],
        mode: Mode,
    ) -> Var<'t> {
        // Eval reuses the frozen adjacency artifacts across batches; train
        // recomputes them on the tape so gradients reach E and the SSMA.
        let adj = match mode {
            Mode::Train => self.adjacency(tape, bind, mode),
            Mode::Eval => {
                // The compiled plan executor covers the no-teacher GRU
                // forward; everything else falls back to the interpreter
                // over the frozen adjacency.
                if teacher.is_empty() {
                    if let Some(pred) = self.try_planned(batch, scaler) {
                        return tape.constant(pred);
                    }
                }
                Adjacency::from_plan(tape, &self.frozen_plan())
            }
        };
        let (_, _b, n) = (batch.x.dim(0), batch.x.dim(1), batch.x.dim(2));
        assert_eq!(n, self.n, "batch node count mismatch");
        self.body
            .forward(tape, bind, &adj, batch, scaler, self.cfg.hidden, teacher, mode)
    }

    /// Runs the planned eval forward if this model/mode is eligible,
    /// returning the raw-unit predictions `(f, B, N)`.
    fn try_planned(&self, batch: &Batch, scaler: ZScore) -> Option<Tensor> {
        if !plan::plan_enabled() || !matches!(self.body, Body::Gru { .. }) {
            return None;
        }
        let (f_len, b) = (batch.y.dim(0), batch.x.dim(1));
        let mut out = Tensor::zeros(self.output_dims(f_len, b).as_slice());
        self.planned_forward_into(batch, scaler, &mut out)
            .then_some(out)
    }

    /// Runs the compiled eval schedule directly into `out` (shaped
    /// [`Sagdfn::output_dims`]), bypassing the tape entirely. Compiles the
    /// schedule on first use and again only when a batch outgrows it;
    /// steady-state calls of any batch size up to that perform zero
    /// allocator acquires. Returns `false` without touching `out` when
    /// the planned path is ineligible (non-GRU backbone, or the
    /// interpreted oracle selected by [`set_plan_mode`](plan::set_plan_mode)),
    /// in which case the caller falls back to [`Sagdfn::forward`].
    /// Bit-identical to the interpreted eval forward
    /// (`tests/plan_executor.rs`).
    pub fn planned_forward_into(&self, batch: &Batch, scaler: ZScore, out: &mut Tensor) -> bool {
        if !plan::plan_enabled() {
            return false;
        }
        let Body::Gru {
            encoders,
            decoders,
            head,
        } = &self.body
        else {
            return false;
        };
        let frozen = self.frozen_plan();
        let dims = PlanDims {
            n: batch.x.dim(2),
            m: frozen.index().map_or(self.n, <[usize]>::len),
            h_len: batch.x.dim(0),
            f_len: batch.y.dim(0),
            hidden: self.cfg.hidden,
        };
        let b = batch.x.dim(1);
        let mut cache = self.planned.borrow_mut();
        // A stale executor (its FrozenPlan was replaced) or one too small
        // for this batch is recompiled at `b`: the largest batch seen
        // under these weights. The old arena is released first.
        if !cache.as_ref().is_some_and(|e| e.fits(&frozen, dims, b)) {
            *cache = None;
            *cache = Some(plan::compile(
                encoders,
                decoders,
                head.as_ref(),
                &frozen,
                dims,
                b,
                scaler,
            ));
        }
        let exec = cache.as_mut().expect("compiled above");
        // Drifted normalization stats (streaming scaler updates) refresh
        // the baked-in affine coefficients in place instead of recompiling.
        if !exec.matches_scaler(scaler) {
            exec.rebind_scaler(scaler);
        }
        exec.run_into(&self.params, batch, out.as_mut_slice());
        true
    }

    /// Batched no-grad inference into a caller-provided buffer: the
    /// serving entry point. Takes the compiled-plan fast path when
    /// eligible (zero steady-state allocator acquires once the batch
    /// shape is warm) and otherwise runs the interpreted eval forward on
    /// a throwaway no-grad tape, copying the raw-unit predictions into
    /// `out` (shaped [`Sagdfn::output_dims`]). Both paths are bit-identical to
    /// per-request [`Sagdfn::forward`] calls in `Mode::Eval`
    /// (`tests/serve_batching.rs` pins this across plan/SIMD modes).
    pub fn predict_batch_into(&self, batch: &Batch, scaler: ZScore, out: &mut Tensor) {
        let (f_len, b) = (batch.y.dim(0), batch.x.dim(1));
        assert_eq!(
            out.dims(),
            self.output_dims(f_len, b).as_slice(),
            "predict_batch_into: output buffer shape mismatch"
        );
        if matches!(self.body, Body::Gru { .. }) && self.planned_forward_into(batch, scaler, out) {
            return;
        }
        let tape = Tape::new();
        let _guard = tape.no_grad();
        let bind = self.params.bind(&tape);
        let pred = self.forward(&tape, &bind, batch, scaler, Mode::Eval);
        out.as_mut_slice().copy_from_slice(pred.value().as_slice());
    }

    /// Renders the most recently compiled eval schedule as a table
    /// (op kind, shape, kernel choice, buffer slots), or `None` when no
    /// planned forward has run yet. Surfaced by `sagdfn profile`.
    pub fn plan_table(&self) -> Option<String> {
        self.planned.borrow().as_ref().map(PlanExecutor::table)
    }

    /// Scheduled-sampling teacher probability at a training iteration:
    /// `τ/(τ+exp(iter/τ))` (inverse sigmoid decay), or 0 when disabled.
    pub fn teacher_probability(&self, iter: usize) -> f32 {
        if !self.cfg.scheduled_sampling {
            return 0.0;
        }
        let tau = self.cfg.ss_decay as f64;
        (tau / (tau + (iter as f64 / tau).exp())) as f32
    }

    /// The configured temporal backbone.
    pub fn backbone(&self) -> Backbone {
        self.cfg.backbone
    }

    /// The forecast head, when the backbone has one (GRU only; the
    /// direct backbones keep their built-in point projection).
    pub fn head(&self) -> Option<&dyn ForecastHead> {
        match &self.body {
            Body::Gru { head, .. } => Some(head.as_ref()),
            _ => None,
        }
    }

    /// The active head kind (direct backbones are always point).
    pub fn head_kind(&self) -> HeadKind {
        self.head().map_or(HeadKind::Point, ForecastHead::kind)
    }

    /// Output channels per node and horizon step (1, the paper's
    /// contract, for the point head and every direct backbone).
    pub fn out_channels(&self) -> usize {
        self.head().map_or(1, ForecastHead::channels)
    }

    /// The forward-output shape for a `(f_len, b)` batch: `(f, B, N)`
    /// when there is one channel, `(f, B, N, C)` otherwise. Callers
    /// sizing prediction buffers must use this instead of assuming the
    /// point shape.
    pub fn output_dims(&self, f_len: usize, b: usize) -> Vec<usize> {
        let c = self.out_channels();
        if c == 1 {
            vec![f_len, b, self.n]
        } else {
            vec![f_len, b, self.n, c]
        }
    }

    /// Training loss for a forward output under the missing-data mask:
    /// the head's loss (masked MAE / pinball / Gaussian NLL), or masked
    /// MAE for the head-less direct backbones.
    pub fn loss<'t>(&self, pred: Var<'t>, target: &Tensor, mask: &Tensor) -> Var<'t> {
        match self.head() {
            Some(h) => h.loss(pred, target, mask),
            None => sagdfn_nn::masked_mae(pred, target, mask),
        }
    }

    /// Loss mask excluding missing (zero) ground-truth entries.
    pub fn loss_mask(target: &Tensor) -> Tensor {
        let data = target
            .as_slice()
            .iter()
            .map(|&v| if v.abs() > 1e-4 { 1.0 } else { 0.0 })
            .collect();
        Tensor::from_vec(data, target.shape().clone())
    }
}

/// Resolves the node-shard count for a model over `n` nodes: a set
/// `cfg.shards` wins; 0 asks the memsim auto plan for the smallest shard
/// count whose modeled peak fits a V100-32GB at the configured batch
/// size, which keeps small graphs unsharded and engages sharding only at
/// paper scale.
fn resolve_shards(cfg: &SagdfnConfig, n: usize) -> usize {
    if cfg.shards > 0 {
        return cfg.shards;
    }
    sagdfn_memsim::plan_shards(n, cfg.batch_size, sagdfn_memsim::V100_32GB.capacity_bytes).shards
}

/// The temporal body of the forecaster (see [`Backbone`]).
enum Body {
    /// The paper's encoder-decoder of OneStepFastGConv cells; one cell
    /// per stacked layer (the paper uses a single layer).
    Gru {
        encoders: Vec<OneStepFastGConv>,
        decoders: Vec<OneStepFastGConv>,
        head: Box<dyn ForecastHead>,
    },
    /// Dilated causal temporal convolutions + slim diffusion + direct
    /// multi-horizon head (the paper's "compatible with TCNs" claim).
    Tcn {
        in_proj: Linear,
        /// Per layer: (current-step transform, dilated-lag transform).
        layers: Vec<(Linear, Linear)>,
        dilations: Vec<usize>,
        gconv: GConv,
        head: Linear,
        horizon: usize,
    },
    /// Temporal self-attention: the last step's state queries every
    /// history step, the attention-weighted context joins the last state,
    /// then slim diffusion and a direct head (the paper's "compatible
    /// with attention mechanisms" claim).
    SelfAttn {
        in_proj: Linear,
        wq: Linear,
        wk: Linear,
        wv: Linear,
        combine: Linear,
        gconv: GConv,
        head: Linear,
        horizon: usize,
    },
}

/// TCN horizon is fixed at build time; the paper's protocols use 12.
const TCN_HORIZON: usize = 12;

impl Body {
    fn new(params: &mut Params, cfg: &SagdfnConfig, rng: &mut Rng64) -> Self {
        match cfg.backbone {
            Backbone::Gru => {
                let cell = |params: &mut Params, rng: &mut Rng64, name: String, layer: usize| {
                    let input = if layer == 0 { INPUT_CHANNELS } else { cfg.hidden };
                    OneStepFastGConv::new(
                        params,
                        &name,
                        input,
                        cfg.hidden,
                        None,
                        cfg.diffusion_steps,
                        cfg.dropout,
                        rng,
                    )
                };
                Body::Gru {
                    encoders: (0..cfg.layers)
                        .map(|l| cell(params, rng, format!("encoder.{l}"), l))
                        .collect(),
                    decoders: (0..cfg.layers)
                        .map(|l| cell(params, rng, format!("decoder.{l}"), l))
                        .collect(),
                    // head::build registers the point head under the exact
                    // pre-refactor name and init position, so parameter
                    // order (and every RNG draw) is unchanged.
                    head: head::build(params, cfg, rng),
                }
            }
            Backbone::SelfAttention => Body::SelfAttn {
                in_proj: Linear::new(params, "attn.in", INPUT_CHANNELS, cfg.hidden, true, rng),
                wq: Linear::new(params, "attn.wq", cfg.hidden, cfg.hidden, false, rng),
                wk: Linear::new(params, "attn.wk", cfg.hidden, cfg.hidden, false, rng),
                wv: Linear::new(params, "attn.wv", cfg.hidden, cfg.hidden, false, rng),
                combine: Linear::new(params, "attn.combine", 2 * cfg.hidden, cfg.hidden, true, rng),
                gconv: GConv::new(
                    params,
                    "attn.gconv",
                    cfg.hidden,
                    cfg.hidden,
                    cfg.diffusion_steps,
                    cfg.dropout,
                    rng,
                ),
                head: Linear::new(params, "attn.head", cfg.hidden, TCN_HORIZON, true, rng),
                horizon: TCN_HORIZON,
            },
            Backbone::Tcn => {
                let dilations = vec![1usize, 2, 4];
                let layers = dilations
                    .iter()
                    .enumerate()
                    .map(|(i, _)| {
                        (
                            Linear::new(
                                params,
                                &format!("tcn.{i}.cur"),
                                cfg.hidden,
                                cfg.hidden,
                                true,
                                rng,
                            ),
                            Linear::new(
                                params,
                                &format!("tcn.{i}.lag"),
                                cfg.hidden,
                                cfg.hidden,
                                false,
                                rng,
                            ),
                        )
                    })
                    .collect();
                Body::Tcn {
                    in_proj: Linear::new(
                        params,
                        "tcn.in",
                        INPUT_CHANNELS,
                        cfg.hidden,
                        true,
                        rng,
                    ),
                    layers,
                    dilations,
                    gconv: GConv::new(
                        params,
                        "tcn.gconv",
                        cfg.hidden,
                        cfg.hidden,
                        cfg.diffusion_steps,
                        cfg.dropout,
                        rng,
                    ),
                    head: Linear::new(params, "tcn.head", cfg.hidden, TCN_HORIZON, true, rng),
                    horizon: TCN_HORIZON,
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn forward<'t>(
        &self,
        tape: &'t Tape,
        bind: &Binding<'t>,
        adj: &Adjacency<'t>,
        batch: &Batch,
        scaler: ZScore,
        hidden: usize,
        teacher: &[bool],
        mode: Mode,
    ) -> Var<'t> {
        let (h_len, b, n) = (batch.x.dim(0), batch.x.dim(1), batch.x.dim(2));
        let f_len = batch.y.dim(0);
        let step_input = |t: usize| -> Tensor {
            batch
                .x
                .slice_axis(0, t, t + 1)
                .into_reshape([b, n, INPUT_CHANNELS])
        };
        match self {
            Body::Gru {
                encoders,
                decoders,
                head,
            } => {
                // Encoder over the history window (Algorithm 2 lines 8–9);
                // each stacked layer feeds its hidden output upward.
                let zero = || tape.constant(Tensor::zeros([b, n, hidden]));
                let mut enc_h: Vec<Var<'t>> = encoders.iter().map(|_| zero()).collect();
                for t in 0..h_len {
                    let mut x = tape.constant(step_input(t));
                    for (layer, cell) in encoders.iter().enumerate() {
                        enc_h[layer] = cell.step_hidden(bind, adj, x, enc_h[layer], mode);
                        x = enc_h[layer];
                    }
                }
                // Decoder (lines 10–12): seeded with the forecast-origin
                // observation, then feeds back its own predictions.
                let mut dec_h = enc_h;
                let mut value = tape.constant(
                    scaler
                        .transform(&batch.x_last_raw)
                        .into_reshape([b, n, 1]),
                );
                let mut preds = Vec::with_capacity(f_len);
                for t in 0..f_len {
                    // Scheduled sampling: replace the fed-back prediction
                    // with the scaled ground truth of the previous step.
                    if t > 0 && teacher.get(t).copied().unwrap_or(false) {
                        value = tape.constant(
                            scaler
                                .transform(&batch.y.slice_axis(0, t - 1, t))
                                .into_reshape([b, n, 1]),
                        );
                    }
                    let cov = tape.constant(
                        batch
                            .future_cov
                            .slice_axis(0, t, t + 1)
                            .into_reshape([b, n, 2]),
                    );
                    let mut x = Var::concat(&[value, cov], 2);
                    for (layer, cell) in decoders.iter().enumerate() {
                        dec_h[layer] = cell.step_hidden(bind, adj, x, dec_h[layer], mode);
                        x = dec_h[layer];
                    }
                    let pred = head.forward(bind, x);
                    preds.push(pred);
                    value = head.feedback(pred);
                }
                // For the point head this is exactly the pre-refactor
                // epilogue (reshape, scale, shift); probabilistic heads
                // keep the channel axis and apply their own affine.
                head.finish(Var::stack(&preds, 0), f_len, b, n, scaler)
            }
            Body::SelfAttn {
                in_proj,
                wq,
                wk,
                wv,
                combine,
                gconv,
                head,
                horizon,
            } => {
                assert!(
                    f_len <= *horizon,
                    "attention backbone built for horizon {horizon}, batch wants {f_len}"
                );
                let states: Vec<Var<'t>> = (0..h_len)
                    .map(|t| {
                        in_proj
                            .forward(bind, tape.constant(step_input(t)))
                            .relu()
                    })
                    .collect();
                let last = states[h_len - 1];
                let q = wq.forward(bind, last); // (B, N, D)
                let scale = 1.0 / (hidden as f32).sqrt();
                // Scores over time: s_t = <q, k_t> / sqrt(D) -> (B, N, h).
                let scores: Vec<Var<'t>> = states
                    .iter()
                    .map(|&st| {
                        let k = wk.forward(bind, st);
                        q.mul(&k).sum_axis(2).scale(scale) // (B, N)
                    })
                    .collect();
                let weights = Var::stack(&scores, 2).softmax_rows(); // (B, N, h)
                // Context: Sum_t w_t * v_t.
                let mut context: Option<Var<'t>> = None;
                for (t, &st) in states.iter().enumerate() {
                    let v = wv.forward(bind, st); // (B, N, D)
                    let w_t = weights.slice_axis(2, t, t + 1); // (B, N, 1)
                    let term = v.mul(&w_t);
                    context = Some(match context {
                        Some(acc) => acc.add(&term),
                        None => term,
                    });
                }
                let context = context.expect("non-empty window");
                let joined = combine
                    .forward(bind, Var::concat(&[last, context], 2))
                    .relu();
                let mixed = gconv.forward(bind, adj, joined, mode).relu();
                let out = head.forward(bind, mixed); // (B, N, horizon)
                out.slice_axis(2, 0, f_len)
                    .reshape([b * n, f_len])
                    .transpose_last2()
                    .reshape([f_len, b, n])
                    .scale(scaler.std)
                    .add_scalar(scaler.mean)
            }
            Body::Tcn {
                in_proj,
                layers,
                dilations,
                gconv,
                head,
                horizon,
            } => {
                assert!(
                    f_len <= *horizon,
                    "TCN backbone built for horizon {horizon}, batch wants {f_len}"
                );
                // Per-step projection into the hidden width.
                let mut cur: Vec<Var<'t>> = (0..h_len)
                    .map(|t| {
                        in_proj
                            .forward(bind, tape.constant(step_input(t)))
                            .relu()
                    })
                    .collect();
                // Dilated causal conv layers with residual connections;
                // indices below zero clamp to the first step (reflection-
                // free causal padding).
                for ((wa, wb), &dil) in layers.iter().zip(dilations) {
                    let next: Vec<Var<'t>> = (0..h_len)
                        .map(|t| {
                            let lag = t.saturating_sub(dil);
                            let z = wa
                                .forward(bind, cur[t])
                                .add(&wb.forward(bind, cur[lag]))
                                .relu();
                            z.add(&cur[t])
                        })
                        .collect();
                    cur = next;
                }
                // Spatial mixing of the final state, then the direct head.
                let mixed = gconv.forward(bind, adj, cur[h_len - 1], mode).relu();
                let out = head.forward(bind, mixed); // (B, N, horizon)
                out.slice_axis(2, 0, f_len)
                    .reshape([b * n, f_len])
                    .transpose_last2()
                    .reshape([f_len, b, n])
                    .scale(scaler.std)
                    .add_scalar(scaler.mean)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sagdfn_data::{Scale, SplitSpec, ThreeWaySplit};

    fn tiny_setup() -> (Sagdfn, ThreeWaySplit) {
        let data = sagdfn_data::metr_la_like(Scale::Tiny);
        let n = data.dataset.nodes();
        let cfg = SagdfnConfig::for_scale(Scale::Tiny, n);
        let model = Sagdfn::new(n, cfg);
        let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(4, 4));
        (model, split)
    }

    #[test]
    fn forward_shapes_and_finite() {
        let (model, split) = tiny_setup();
        let batch = split.train.make_batch(&[0, 1, 2]);
        let tape = Tape::new();
        let bind = model.params.bind(&tape);
        let pred = model.forward(&tape, &bind, &batch, split.scaler, Mode::Train);
        assert_eq!(pred.dims(), vec![4, 3, model.n()]);
        assert!(pred.value().all_finite());
    }

    #[test]
    fn predict_batch_into_matches_taped_eval_forward() {
        let (model, split) = tiny_setup();
        let batch = split.test.make_batch(&[0, 2, 5]);
        let tape = Tape::new();
        let _guard = tape.no_grad();
        let bind = model.params.bind(&tape);
        let want = model
            .forward(&tape, &bind, &batch, split.scaler, Mode::Eval)
            .value();
        // Both plan dispositions must produce the taped answer bitwise.
        for mode in [crate::plan::PlanMode::Off, crate::plan::PlanMode::On] {
            let prev = crate::plan::set_plan_mode(mode);
            let mut out = Tensor::zeros([4, 3, model.n()]);
            model.predict_batch_into(&batch, split.scaler, &mut out);
            crate::plan::set_plan_mode(prev);
            assert_eq!(out.as_slice(), want.as_slice(), "plan mode {mode:?}");
        }
    }

    #[test]
    fn loss_backward_reaches_every_parameter() {
        let (model, split) = tiny_setup();
        let batch = split.train.make_batch(&[0, 1]);
        let tape = Tape::new();
        let bind = model.params.bind(&tape);
        let pred = model.forward(&tape, &bind, &batch, split.scaler, Mode::Train);
        let mask = Sagdfn::loss_mask(&batch.y);
        let loss = sagdfn_nn::masked_mae(pred, &batch.y, &mask);
        let grads = loss.backward();
        for id in model.params.ids() {
            assert!(
                bind.grad(&grads, id).is_some(),
                "no gradient for {}",
                model.params.name(id)
            );
        }
    }

    #[test]
    fn resample_updates_index_before_convergence() {
        let (mut model, _) = tiny_setup();
        let before = model.significant_index().to_vec();
        // Force several resamples; exploration makes a change near-certain.
        let mut changed = false;
        for _ in 0..8 {
            model.maybe_resample();
            model.tick();
            if model.significant_index() != before.as_slice() {
                changed = true;
            }
        }
        assert!(changed, "exploration never changed the index set");
    }

    #[test]
    fn index_frozen_after_convergence_iteration() {
        let (mut model, _) = tiny_setup();
        // Jump past convergence and resample twice at a multiple of
        // sns_every: with explore off and fixed embeddings the set must
        // be identical.
        while model.iterations() < model.config().convergence_iter {
            model.tick();
        }
        while model.iterations() % model.config().sns_every != 0 {
            model.tick();
        }
        model.maybe_resample();
        let a = model.significant_index().to_vec();
        model.maybe_resample();
        let b = model.significant_index().to_vec();
        assert_eq!(a, b, "post-convergence sampling must be deterministic");
    }

    #[test]
    fn without_sns_never_resamples() {
        let data = sagdfn_data::metr_la_like(Scale::Tiny);
        let n = data.dataset.nodes();
        let cfg = SagdfnConfig::for_scale(Scale::Tiny, n);
        let mut model = Sagdfn::with_variant(n, cfg, Variant::WithoutSns, None);
        let before = model.significant_index().to_vec();
        for _ in 0..5 {
            model.maybe_resample();
            model.tick();
        }
        assert_eq!(model.significant_index(), before.as_slice());
    }

    #[test]
    fn topology_variant_runs_forward() {
        let data = sagdfn_data::metr_la_like(Scale::Tiny);
        let n = data.dataset.nodes();
        let cfg = SagdfnConfig::for_scale(Scale::Tiny, n);
        let topo = data.graph.adj.topk_rows(8).weights().clone();
        let model = Sagdfn::with_variant(n, cfg, Variant::WithoutSnsSsma, Some(topo));
        let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(4, 4));
        let batch = split.train.make_batch(&[0]);
        let tape = Tape::new();
        let bind = model.params.bind(&tape);
        let pred = model.forward(&tape, &bind, &batch, split.scaler, Mode::Train);
        assert!(pred.value().all_finite());
    }

    #[test]
    fn two_layer_stack_forward_and_grads() {
        let data = sagdfn_data::metr_la_like(sagdfn_data::Scale::Tiny);
        let n = data.dataset.nodes();
        let mut cfg = SagdfnConfig::for_scale(sagdfn_data::Scale::Tiny, n);
        cfg.layers = 2;
        let model = Sagdfn::new(n, cfg);
        let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(4, 4));
        let batch = split.train.make_batch(&[0, 1]);
        let tape = Tape::new();
        let bind = model.params.bind(&tape);
        let pred = model.forward(&tape, &bind, &batch, split.scaler, Mode::Train);
        assert_eq!(pred.dims(), vec![4, 2, n]);
        let mask = Sagdfn::loss_mask(&batch.y);
        let grads = sagdfn_nn::masked_mae(pred, &batch.y, &mask).backward();
        for id in model.params.ids() {
            assert!(
                bind.grad(&grads, id).is_some(),
                "no gradient for {} (layer-2 cells must participate)",
                model.params.name(id)
            );
        }
    }

    #[test]
    fn deeper_stack_has_more_parameters() {
        let n = 20;
        let cfg1 = SagdfnConfig::for_scale(sagdfn_data::Scale::Tiny, n);
        let mut cfg2 = cfg1.clone();
        cfg2.layers = 2;
        let p1 = Sagdfn::new(n, cfg1).params.num_scalars();
        let p2 = Sagdfn::new(n, cfg2).params.num_scalars();
        assert!(p2 > p1, "{p2} should exceed {p1}");
    }

    #[test]
    fn tcn_backbone_forward_and_grads() {
        let data = sagdfn_data::metr_la_like(sagdfn_data::Scale::Tiny);
        let n = data.dataset.nodes();
        let mut cfg = SagdfnConfig::for_scale(sagdfn_data::Scale::Tiny, n);
        cfg.backbone = Backbone::Tcn;
        let model = Sagdfn::new(n, cfg);
        assert_eq!(model.backbone(), Backbone::Tcn);
        let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(12, 12));
        let batch = split.train.make_batch(&[0, 1]);
        let tape = Tape::new();
        let bind = model.params.bind(&tape);
        let pred = model.forward(&tape, &bind, &batch, split.scaler, Mode::Train);
        assert_eq!(pred.dims(), vec![12, 2, n]);
        assert!(pred.value().all_finite());
        let mask = Sagdfn::loss_mask(&batch.y);
        let loss = sagdfn_nn::masked_mae(pred, &batch.y, &mask);
        let grads = loss.backward();
        for id in model.params.ids() {
            assert!(
                bind.grad(&grads, id).is_some(),
                "no gradient for {}",
                model.params.name(id)
            );
        }
    }

    #[test]
    fn attention_backbone_forward_and_grads() {
        let data = sagdfn_data::metr_la_like(sagdfn_data::Scale::Tiny);
        let n = data.dataset.nodes();
        let mut cfg = SagdfnConfig::for_scale(sagdfn_data::Scale::Tiny, n);
        cfg.backbone = Backbone::SelfAttention;
        let model = Sagdfn::new(n, cfg);
        let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(12, 12));
        let batch = split.train.make_batch(&[0, 1]);
        let tape = Tape::new();
        let bind = model.params.bind(&tape);
        let pred = model.forward(&tape, &bind, &batch, split.scaler, Mode::Train);
        assert_eq!(pred.dims(), vec![12, 2, n]);
        assert!(pred.value().all_finite());
        let mask = Sagdfn::loss_mask(&batch.y);
        let grads = sagdfn_nn::masked_mae(pred, &batch.y, &mask).backward();
        for id in model.params.ids() {
            assert!(
                bind.grad(&grads, id).is_some(),
                "no gradient for {}",
                model.params.name(id)
            );
        }
    }

    #[test]
    fn attention_backbone_trains() {
        let data = sagdfn_data::metr_la_like(sagdfn_data::Scale::Tiny);
        let n = data.dataset.nodes();
        let mut cfg = SagdfnConfig::for_scale(sagdfn_data::Scale::Tiny, n);
        cfg.backbone = Backbone::SelfAttention;
        cfg.epochs = 2;
        cfg.sns_every = 8;
        let mut model = Sagdfn::new(n, cfg);
        let split = ThreeWaySplit::new(
            data.dataset.subset_steps(0, 400),
            SplitSpec::paper(12, 12),
        );
        let report = crate::trainer::fit(&mut model, &split);
        assert!(
            report.test[0].mae < 15.0,
            "attention backbone MAE {}",
            report.test[0].mae
        );
    }

    #[test]
    fn tcn_backbone_trains() {
        let data = sagdfn_data::metr_la_like(sagdfn_data::Scale::Tiny);
        let n = data.dataset.nodes();
        let mut cfg = SagdfnConfig::for_scale(sagdfn_data::Scale::Tiny, n);
        cfg.backbone = Backbone::Tcn;
        cfg.epochs = 2;
        cfg.sns_every = 8;
        let mut model = Sagdfn::new(n, cfg);
        let split = ThreeWaySplit::new(
            data.dataset.subset_steps(0, 400),
            SplitSpec::paper(12, 12),
        );
        let report = crate::trainer::fit(&mut model, &split);
        assert!(report.test[0].mae < 15.0, "TCN MAE {}", report.test[0].mae);
    }

    #[test]
    fn teacher_forcing_changes_decoder_inputs() {
        let data = sagdfn_data::metr_la_like(sagdfn_data::Scale::Tiny);
        let n = data.dataset.nodes();
        let cfg = SagdfnConfig::for_scale(sagdfn_data::Scale::Tiny, n);
        let model = Sagdfn::new(n, cfg);
        let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(6, 6));
        let batch = split.train.make_batch(&[0, 1]);
        let run = |teacher: &[bool]| {
            let tape = Tape::new();
            let bind = model.params.bind(&tape);
            model
                .forward_scheduled(&tape, &bind, &batch, split.scaler, teacher, Mode::Train)
                .value()
        };
        let free = run(&[]);
        let forced = run(&[true; 6]);
        // Step 0 is identical (no previous step to force)...
        let d0: f32 = (0..batch.y.dim(2))
            .map(|i| (free.at(&[0, 0, i]) - forced.at(&[0, 0, i])).abs())
            .sum();
        assert!(d0 < 1e-5, "step 0 must be unaffected, diff {d0}");
        // ...but later steps diverge.
        let d3: f32 = (0..batch.y.dim(2))
            .map(|i| (free.at(&[3, 0, i]) - forced.at(&[3, 0, i])).abs())
            .sum();
        assert!(d3 > 1e-4, "teacher forcing had no effect at step 3");
    }

    #[test]
    fn teacher_probability_decays() {
        let n = 20;
        let mut cfg = SagdfnConfig::for_scale(sagdfn_data::Scale::Tiny, n);
        cfg.scheduled_sampling = true;
        cfg.ss_decay = 100.0;
        let model = Sagdfn::new(n, cfg);
        let p0 = model.teacher_probability(0);
        let p_late = model.teacher_probability(2000);
        assert!(p0 > 0.9, "p(0) = {p0}");
        assert!(p_late < 0.1, "p(2000) = {p_late}");
        assert!(p0 > p_late);
        // Disabled by default.
        let plain = Sagdfn::new(n, SagdfnConfig::for_scale(sagdfn_data::Scale::Tiny, n));
        assert_eq!(plain.teacher_probability(0), 0.0);
    }

    #[test]
    fn scheduled_sampling_training_runs() {
        let data = sagdfn_data::metr_la_like(sagdfn_data::Scale::Tiny);
        let n = data.dataset.nodes();
        let mut cfg = SagdfnConfig::for_scale(sagdfn_data::Scale::Tiny, n);
        cfg.scheduled_sampling = true;
        cfg.ss_decay = 50.0;
        cfg.epochs = 2;
        cfg.sns_every = 8;
        let mut model = Sagdfn::new(n, cfg);
        let split = ThreeWaySplit::new(
            data.dataset.subset_steps(0, 400),
            SplitSpec::paper(6, 6),
        );
        let report = crate::trainer::fit(&mut model, &split);
        assert!(report.test[0].mae < 15.0, "MAE {}", report.test[0].mae);
    }

    #[test]
    fn eval_forward_is_bitwise_train_and_records_nothing() {
        let (model, split) = tiny_setup();
        let batch = split.train.make_batch(&[0, 1]);
        let tape = Tape::new();
        let bind = model.params.bind(&tape);
        let want = model
            .forward(&tape, &bind, &batch, split.scaler, Mode::Train)
            .value();

        let eval_tape = Tape::new();
        let _guard = eval_tape.no_grad();
        let bind = model.params.bind(&eval_tape);
        let got = model
            .forward(&eval_tape, &bind, &batch, split.scaler, Mode::Eval)
            .value();
        assert_eq!(eval_tape.len(), 0, "eval pass must record zero tape nodes");
        let want_bits: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
        let got_bits: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(want_bits, got_bits, "eval must be bit-identical to train");
        assert!(model.frozen.borrow().is_some(), "plan must be cached");
        // A second eval reuses the cached plan; invalidation clears it.
        let plan = model.frozen_plan();
        assert!(Rc::ptr_eq(&plan, &model.frozen_plan()));
        model.invalidate_plan();
        assert!(model.frozen.borrow().is_none());
    }

    #[test]
    fn sharded_model_bit_identical_to_unsharded() {
        // shards = 1 vs shards = 3 must agree bitwise on the loss, every
        // parameter gradient, and the eval predictions (DESIGN.md §14).
        let run = |shards: usize| -> Vec<u32> {
            let data = sagdfn_data::metr_la_like(Scale::Tiny);
            let n = data.dataset.nodes();
            let mut cfg = SagdfnConfig::for_scale(Scale::Tiny, n);
            cfg.shards = shards;
            let model = Sagdfn::new(n, cfg);
            assert_eq!(model.shards(), shards);
            let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(4, 4));
            let batch = split.train.make_batch(&[0, 1]);
            let tape = Tape::new();
            let bind = model.params.bind(&tape);
            let pred = model.forward(&tape, &bind, &batch, split.scaler, Mode::Train);
            let mask = Sagdfn::loss_mask(&batch.y);
            let loss = sagdfn_nn::masked_mae(pred, &batch.y, &mask);
            let grads = loss.backward();
            let mut bits = vec![loss.value().as_slice()[0].to_bits()];
            for id in model.params.ids() {
                let g = bind.grad(&grads, id).expect("gradient");
                bits.extend(g.as_slice().iter().map(|v| v.to_bits()));
            }
            let eval_tape = Tape::new();
            let _guard = eval_tape.no_grad();
            let ebind = model.params.bind(&eval_tape);
            let ev = model
                .forward(&eval_tape, &ebind, &batch, split.scaler, Mode::Eval)
                .value();
            bits.extend(ev.as_slice().iter().map(|v| v.to_bits()));
            bits
        };
        assert_eq!(run(1), run(3), "sharding changed numerical results");
    }

    #[test]
    fn loss_mask_zeroes_missing() {
        let y = Tensor::from_vec(vec![0.0, 3.0, 0.00001, 7.0], [4]);
        let m = Sagdfn::loss_mask(&y);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }
}
