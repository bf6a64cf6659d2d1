//! SAGDFN hyper-parameters.

use sagdfn_data::Scale;
use sagdfn_json::{Json, JsonError};

/// Temporal backbone of the forecaster. The paper's main model is the
/// GRU encoder-decoder (Eq. 10), but Section IV-C notes the fast graph
/// convolution composes with "RNNs, TCNs, and attention mechanisms"; the
/// TCN backbone realizes that claim with dilated causal convolutions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backbone {
    /// Encoder-decoder GRU of OneStepFastGConv cells (the paper's model).
    Gru,
    /// Dilated causal temporal convolution stack + slim graph diffusion +
    /// direct multi-horizon head (Graph-WaveNet-style plugging of Eq. 9).
    Tcn,
    /// Temporal self-attention over the history window (last-step query
    /// against all steps) + slim graph diffusion + direct head.
    SelfAttention,
}

/// Forecast head of the decoder (see `crate::head`). `Point` is the
/// paper's model: one scalar per node and step, trained with masked MAE.
/// The probabilistic heads widen the decoder projection and swap the
/// loss/metric set while sharing the spatio-temporal encoder unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeadKind {
    /// Single point estimate per node/step (the paper's decoder).
    Point,
    /// One output per quantile of a configurable grid, trained with the
    /// pinball loss; evaluation adds CRPS and empirical coverage.
    Quantile,
    /// Gaussian `(mean, log_std)` scaffold for a TimeGrad-style
    /// autoregressive sampler, trained with the Gaussian NLL.
    Sampled,
}

/// Hyper-parameters of the SAGDFN model and its training loop.
///
/// Defaults follow the paper's Implementation section: `d = 100`,
/// `M = 100`, `K = 80`, 8 attention heads, GRU hidden size 64, diffusion
/// depth `J = 3`, one encoder-decoder layer, Adam.
#[derive(Clone, Debug)]
pub struct SagdfnConfig {
    /// Node embedding dimension `d`.
    pub embed_dim: usize,
    /// Significant-neighbor count `M` (≈ 5 % of N per the paper).
    pub m: usize,
    /// Top-K voted neighbors; `M − K` slots are exploration samples.
    pub top_k: usize,
    /// Attention heads `P`.
    pub heads: usize,
    /// Hidden width of each head's FFN.
    pub attn_hidden: usize,
    /// α of the entmax normalizer (1 = softmax … 2 = sparsemax).
    pub alpha: f32,
    /// GRU hidden size `D`.
    pub hidden: usize,
    /// Graph diffusion depth `J`.
    pub diffusion_steps: usize,
    /// Convergence iteration `r`: after this many training iterations the
    /// sampler stops injecting random exploration nodes.
    pub convergence_iter: usize,
    /// Re-run the neighbor sampler every this many iterations (1 =
    /// Algorithm 2 exactly; larger values trade fidelity for speed).
    pub sns_every: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Gradient clip (global L2 norm).
    pub grad_clip: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Stop early after this many epochs without val improvement.
    pub patience: usize,
    /// RNG seed for init, shuffling and exploration sampling.
    pub seed: u64,
    /// Temporal backbone (GRU = the paper's model).
    pub backbone: Backbone,
    /// Encoder-decoder depth (stacked recurrent layers). The paper sets
    /// this to 1; DCRNN-style stacks use 2.
    pub layers: usize,
    /// Scheduled sampling (DCRNN-style curriculum): during training the
    /// decoder consumes the ground truth instead of its own prediction
    /// with probability `τ/(τ+exp(iter/τ))`, `τ = ss_decay`. The paper's
    /// Algorithm 2 always feeds back predictions (this off).
    pub scheduled_sampling: bool,
    /// Decay constant τ of the scheduled-sampling probability.
    pub ss_decay: f32,
    /// Dropout rate applied (train mode only) to the attention pair table
    /// and graph-convolution inputs. 0 disables dropout entirely and keeps
    /// the model bit-identical to a dropout-free build.
    pub dropout: f32,
    /// Node-shard count for the diffusion working set (DESIGN.md §14).
    /// `0` = auto: ask `sagdfn-memsim` to plan the smallest count whose
    /// modeled peak fits a V100-32GB; `1` disables sharding; `k > 1`
    /// forces `k` row shards. This field is the only way to set the
    /// count. Sharding never changes results: shard boundaries are
    /// 4-aligned so every sharded kernel is bit-identical to its unsharded
    /// form.
    pub shards: usize,
    /// Forecast head of the decoder. Non-point heads require the GRU
    /// backbone (the direct TCN/attention heads stay point-only).
    pub head: HeadKind,
    /// Quantile grid for [`HeadKind::Quantile`]: strictly increasing
    /// levels in `(0, 1)`. Ignored by the other heads.
    pub quantiles: Vec<f32>,
}

/// The default quantile grid: symmetric 80 % interval around the median.
pub const DEFAULT_QUANTILES: [f32; 5] = [0.1, 0.25, 0.5, 0.75, 0.9];

impl Default for SagdfnConfig {
    fn default() -> Self {
        SagdfnConfig {
            embed_dim: 100,
            m: 100,
            top_k: 80,
            heads: 8,
            attn_hidden: 32,
            alpha: 2.0,
            hidden: 64,
            diffusion_steps: 3,
            convergence_iter: 400,
            sns_every: 1,
            lr: 1e-2,
            grad_clip: 5.0,
            epochs: 60,
            batch_size: 64,
            patience: 10,
            seed: 12,
            backbone: Backbone::Gru,
            layers: 1,
            scheduled_sampling: false,
            ss_decay: 2000.0,
            dropout: 0.0,
            shards: 0,
            head: HeadKind::Point,
            quantiles: DEFAULT_QUANTILES.to_vec(),
        }
    }
}

impl HeadKind {
    /// JSON representation: the variant name as a string.
    pub fn to_json(&self) -> Json {
        Json::from(match self {
            HeadKind::Point => "Point",
            HeadKind::Quantile => "Quantile",
            HeadKind::Sampled => "Sampled",
        })
    }

    /// Parses the variant-name string representation.
    pub fn from_json(doc: &Json) -> Result<HeadKind, JsonError> {
        match doc.as_str()? {
            "Point" => Ok(HeadKind::Point),
            "Quantile" => Ok(HeadKind::Quantile),
            "Sampled" => Ok(HeadKind::Sampled),
            other => Err(JsonError(format!("unknown head '{other}'"))),
        }
    }
}

impl Backbone {
    /// JSON representation: the variant name as a string (the same wire
    /// format serde's external tagging used for this unit enum).
    pub fn to_json(&self) -> Json {
        Json::from(match self {
            Backbone::Gru => "Gru",
            Backbone::Tcn => "Tcn",
            Backbone::SelfAttention => "SelfAttention",
        })
    }

    /// Parses the variant-name string representation.
    pub fn from_json(doc: &Json) -> Result<Backbone, JsonError> {
        match doc.as_str()? {
            "Gru" => Ok(Backbone::Gru),
            "Tcn" => Ok(Backbone::Tcn),
            "SelfAttention" => Ok(Backbone::SelfAttention),
            other => Err(JsonError(format!("unknown backbone '{other}'"))),
        }
    }
}

impl SagdfnConfig {
    /// Serializes every hyper-parameter under its field name (the same
    /// wire format a serde derive produced for this struct).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("embed_dim", Json::from(self.embed_dim)),
            ("m", Json::from(self.m)),
            ("top_k", Json::from(self.top_k)),
            ("heads", Json::from(self.heads)),
            ("attn_hidden", Json::from(self.attn_hidden)),
            ("alpha", Json::from(self.alpha)),
            ("hidden", Json::from(self.hidden)),
            ("diffusion_steps", Json::from(self.diffusion_steps)),
            ("convergence_iter", Json::from(self.convergence_iter)),
            ("sns_every", Json::from(self.sns_every)),
            ("lr", Json::from(self.lr)),
            ("grad_clip", Json::from(self.grad_clip)),
            ("epochs", Json::from(self.epochs)),
            ("batch_size", Json::from(self.batch_size)),
            ("patience", Json::from(self.patience)),
            ("seed", Json::from(self.seed)),
            ("backbone", self.backbone.to_json()),
            ("layers", Json::from(self.layers)),
            ("scheduled_sampling", Json::from(self.scheduled_sampling)),
            ("ss_decay", Json::from(self.ss_decay)),
            ("dropout", Json::from(self.dropout)),
            ("shards", Json::from(self.shards)),
            ("head", self.head.to_json()),
            (
                "quantiles",
                Json::Arr(self.quantiles.iter().map(|&q| Json::from(q)).collect()),
            ),
        ])
    }

    /// Deserializes a config; every field is required except `dropout`
    /// and `shards` (default 0), `head` (defaults to `Point`) and
    /// `quantiles` (defaults to [`DEFAULT_QUANTILES`]), so sidecars
    /// written before those fields existed still load — the defaults
    /// reproduce the pre-field model exactly.
    pub fn from_json(doc: &Json) -> Result<SagdfnConfig, JsonError> {
        Ok(SagdfnConfig {
            embed_dim: doc.req("embed_dim")?.as_usize()?,
            m: doc.req("m")?.as_usize()?,
            top_k: doc.req("top_k")?.as_usize()?,
            heads: doc.req("heads")?.as_usize()?,
            attn_hidden: doc.req("attn_hidden")?.as_usize()?,
            alpha: doc.req("alpha")?.as_f32()?,
            hidden: doc.req("hidden")?.as_usize()?,
            diffusion_steps: doc.req("diffusion_steps")?.as_usize()?,
            convergence_iter: doc.req("convergence_iter")?.as_usize()?,
            sns_every: doc.req("sns_every")?.as_usize()?,
            lr: doc.req("lr")?.as_f32()?,
            grad_clip: doc.req("grad_clip")?.as_f32()?,
            epochs: doc.req("epochs")?.as_usize()?,
            batch_size: doc.req("batch_size")?.as_usize()?,
            patience: doc.req("patience")?.as_usize()?,
            seed: doc.req("seed")?.as_u64()?,
            backbone: Backbone::from_json(doc.req("backbone")?)?,
            layers: doc.req("layers")?.as_usize()?,
            scheduled_sampling: doc.req("scheduled_sampling")?.as_bool()?,
            ss_decay: doc.req("ss_decay")?.as_f32()?,
            dropout: match doc.get("dropout") {
                Some(v) => v.as_f32()?,
                None => 0.0,
            },
            shards: match doc.get("shards") {
                Some(v) => v.as_usize()?,
                None => 0,
            },
            head: match doc.get("head") {
                Some(v) => HeadKind::from_json(v)?,
                None => HeadKind::Point,
            },
            quantiles: match doc.get("quantiles") {
                Some(v) => v
                    .as_arr()?
                    .iter()
                    .map(Json::as_f32)
                    .collect::<Result<Vec<f32>, JsonError>>()?,
                None => DEFAULT_QUANTILES.to_vec(),
            },
        })
    }

    /// A configuration sized for a dataset with `n` nodes at the given run
    /// scale. `M` tracks the paper's ≈5 % of N guidance (floored so tiny
    /// runs keep a meaningful neighborhood), and tiny/small shrink widths
    /// and epochs so the full baseline roster trains on CPU.
    pub fn for_scale(scale: Scale, n: usize) -> Self {
        let base = SagdfnConfig::default();
        match scale {
            Scale::Tiny => SagdfnConfig {
                embed_dim: 16,
                m: (n / 4).clamp(4, 16),
                top_k: (n / 5).clamp(3, 12),
                heads: 2,
                attn_hidden: 8,
                hidden: 16,
                diffusion_steps: 2,
                convergence_iter: 60,
                sns_every: 4,
                epochs: 6,
                batch_size: 8,
                patience: 3,
                ..base
            },
            Scale::Small => SagdfnConfig {
                embed_dim: 32,
                m: (n / 10).clamp(8, 32),
                top_k: (n / 12).clamp(6, 26),
                heads: 4,
                attn_hidden: 16,
                hidden: 32,
                diffusion_steps: 2,
                convergence_iter: 200,
                sns_every: 4,
                epochs: 10,
                batch_size: 16,
                patience: 5,
                ..base
            },
            Scale::Paper => SagdfnConfig {
                m: (n / 20).clamp(20, 100),
                top_k: (n / 25).clamp(16, 80),
                ..base
            },
        }
    }

    /// Validates internal consistency (`K < M ≤ N`, α ≥ 1, …).
    pub fn validate(&self, n: usize) {
        assert!(self.m <= n, "M = {} cannot exceed N = {n}", self.m);
        assert!(
            self.top_k < self.m,
            "top_k = {} must be below M = {}",
            self.top_k,
            self.m
        );
        assert!(self.alpha >= 1.0, "alpha must be >= 1");
        assert!(self.heads >= 1 && self.diffusion_steps >= 1);
        assert!(self.embed_dim >= 1 && self.hidden >= 1);
        assert!(self.batch_size >= 1 && self.epochs >= 1);
        assert!(self.sns_every >= 1, "sns_every must be >= 1");
        assert!(self.layers >= 1, "at least one encoder-decoder layer");
        assert!(
            (0.0..1.0).contains(&self.dropout),
            "dropout must be in [0, 1), got {}",
            self.dropout
        );
        if self.head != HeadKind::Point {
            assert_eq!(
                self.backbone,
                Backbone::Gru,
                "non-point heads require the GRU backbone"
            );
        }
        if self.head == HeadKind::Quantile {
            assert!(!self.quantiles.is_empty(), "empty quantile grid");
            for w in self.quantiles.windows(2) {
                assert!(
                    w[0] < w[1],
                    "quantile grid must be strictly increasing, got {:?}",
                    self.quantiles
                );
            }
            assert!(
                self.quantiles.iter().all(|&q| (0.0..1.0).contains(&q) && q > 0.0),
                "quantile levels must lie in (0, 1), got {:?}",
                self.quantiles
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SagdfnConfig::default();
        assert_eq!(c.embed_dim, 100);
        assert_eq!(c.m, 100);
        assert_eq!(c.top_k, 80);
        assert_eq!(c.heads, 8);
        assert_eq!(c.hidden, 64);
        assert_eq!(c.diffusion_steps, 3);
        assert_eq!(c.alpha, 2.0);
    }

    #[test]
    fn for_scale_keeps_k_below_m() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Paper] {
            for n in [20, 100, 207, 1918, 2000] {
                let c = SagdfnConfig::for_scale(scale, n);
                c.validate(n);
            }
        }
    }

    #[test]
    fn paper_scale_m_tracks_5_percent() {
        let c = SagdfnConfig::for_scale(Scale::Paper, 2000);
        assert_eq!(c.m, 100);
        assert_eq!(c.top_k, 80);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn validate_rejects_m_above_n() {
        SagdfnConfig::default().validate(50);
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let mut c = SagdfnConfig::for_scale(Scale::Small, 207);
        c.backbone = Backbone::SelfAttention;
        c.scheduled_sampling = true;
        c.lr = 3.5e-4;
        let text = c.to_json().to_string_pretty().unwrap();
        let back = SagdfnConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(format!("{c:?}"), format!("{back:?}"));
    }

    #[test]
    fn from_json_defaults_absent_shards_to_auto() {
        let mut c = SagdfnConfig::for_scale(Scale::Tiny, 20);
        c.shards = 3;
        let text = c.to_json().to_string_pretty().unwrap();
        let back = SagdfnConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.shards, 3);
        // A sidecar written before the field existed still loads as auto
        // (rename the key so the document simply lacks "shards").
        let stripped = text.replace("\"shards\"", "\"shards_legacy\"");
        let old = SagdfnConfig::from_json(&Json::parse(&stripped).unwrap()).unwrap();
        assert_eq!(old.shards, 0);
    }

    #[test]
    fn from_json_defaults_absent_head_to_point() {
        let mut c = SagdfnConfig::for_scale(Scale::Tiny, 20);
        c.head = HeadKind::Quantile;
        c.quantiles = vec![0.1, 0.5, 0.9];
        let text = c.to_json().to_string_pretty().unwrap();
        let back = SagdfnConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.head, HeadKind::Quantile);
        assert_eq!(back.quantiles, vec![0.1, 0.5, 0.9]);
        // A sidecar written before the head fields existed loads as the
        // point model with the default quantile grid.
        let stripped = text
            .replace("\"head\"", "\"head_legacy\"")
            .replace("\"quantiles\"", "\"quantiles_legacy\"");
        let old = SagdfnConfig::from_json(&Json::parse(&stripped).unwrap()).unwrap();
        assert_eq!(old.head, HeadKind::Point);
        assert_eq!(old.quantiles, DEFAULT_QUANTILES.to_vec());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn validate_rejects_unsorted_quantiles() {
        let mut c = SagdfnConfig::for_scale(Scale::Tiny, 20);
        c.head = HeadKind::Quantile;
        c.quantiles = vec![0.5, 0.1];
        c.validate(20);
    }

    #[test]
    #[should_panic(expected = "require the GRU backbone")]
    fn validate_rejects_non_gru_probabilistic_head() {
        let mut c = SagdfnConfig::for_scale(Scale::Tiny, 20);
        c.backbone = Backbone::Tcn;
        c.head = HeadKind::Quantile;
        c.validate(20);
    }

    #[test]
    fn from_json_reports_missing_field() {
        let doc = Json::parse(r#"{"embed_dim": 4}"#).unwrap();
        let err = SagdfnConfig::from_json(&doc).unwrap_err();
        assert!(err.to_string().contains("missing field"), "{err}");
    }
}
