//! Streaming (online) execution: rolling-window forecasting with
//! incremental scaler updates, anomaly flagging, and bounded-cost
//! continual fine-tuning.
//!
//! The batch pipeline assumes a frozen dataset; a deployed forecaster
//! sees one observation vector per interval, forever. [`StreamEngine`]
//! owns a trained [`Sagdfn`] and turns each arriving tick into:
//!
//! 1. **Anomaly flags** — the previous tick's one-step-ahead forecast
//!    implies a per-node plausibility interval (quantile head: the outer
//!    quantile pair; sampled head: `μ ± z·σ`; point head: `ŷ ± z·EWMA|e|`);
//!    arriving values outside it are flagged before they enter any state.
//! 2. **State updates** — the raw ring buffer and the incremental
//!    [`RunningZScore`] absorb the tick in O(N).
//! 3. **A fresh forecast** — the rolling history window is rebuilt *in
//!    place* into a persistent single-sample batch by
//!    [`Batch::encode_window`], the encoding training uses, and
//!    dispatched through [`Sagdfn::predict_batch_into`]. The compiled
//!    eval plan is keyed on weights + shape only, so scaler drift
//!    triggers a cheap
//!    [`rebind`](crate::plan::PlanExecutor::rebind_scaler) of the baked
//!    affine coefficients instead of a recompile: steady-state ticks
//!    perform **zero allocator acquires** (pinned by `tests/stream.rs`).
//! 4. **Optional fine-tuning** — every `ft_every` ticks, `ft_steps`
//!    gradient steps on the single window the ring holds (Adam, same loss
//!    the head trained with). Cost is bounded and independent of stream
//!    length; the index set stays frozen (no SNS resampling online).
//!
//! Everything is deterministic: the same model, anchor and tick sequence
//! produce bit-identical forecasts regardless of `SAGDFN_THREADS` or
//! `SAGDFN_PLAN` (the plan path is bit-identical to the taped eval path).

use crate::model::Sagdfn;
use sagdfn_autodiff::Tape;
use sagdfn_data::{Batch, Clock, RunningZScore, ZScore};
use sagdfn_nn::{Adam, Mode, Optimizer};
use sagdfn_obs as obs;
use sagdfn_tensor::Tensor;

/// Streaming-loop configuration. Start from [`StreamConfig::new`], then
/// override fields.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// History window length `h` the model consumes.
    pub h: usize,
    /// Forecast horizon `f` the model emits.
    pub f: usize,
    /// Fold arriving ticks into the normalization statistics. When off,
    /// the training scaler is used verbatim forever.
    pub update_scaler: bool,
    /// Effective observation count the training scaler is worth when
    /// seeding the running statistics: higher = slower drift.
    pub scaler_memory: f64,
    /// Enable continual fine-tuning.
    pub fine_tune: bool,
    /// Fine-tune burst cadence in ticks.
    pub ft_every: usize,
    /// Gradient steps per burst.
    pub ft_steps: usize,
    /// Fine-tuning learning rate.
    pub lr: f32,
    /// Anomaly width: point head flags `|e| > z·EWMA|e|`, sampled head
    /// flags outside `μ ± z·σ`. Ignored by the quantile head, whose
    /// interval is the outer quantile pair itself.
    pub anomaly_z: f32,
}

impl StreamConfig {
    /// Defaults for an `(h, f)` window: scaler updates on, fine-tuning
    /// off, burst of 2 steps every 8 ticks when enabled.
    pub fn new(h: usize, f: usize) -> Self {
        assert!(h > 0 && f > 0, "stream window must be non-empty");
        StreamConfig {
            h,
            f,
            update_scaler: true,
            scaler_memory: 2000.0,
            fine_tune: false,
            ft_every: 8,
            ft_steps: 2,
            lr: 1e-3,
            anomaly_z: 4.0,
        }
    }
}

/// What one [`StreamEngine::push`] did.
#[derive(Clone, Copy, Debug)]
pub struct TickSummary {
    /// Ticks ingested so far (1-based: the first push returns 1).
    pub tick: u64,
    /// Nodes whose arriving value fell outside the previous tick's
    /// one-step-ahead plausibility interval.
    pub anomalies: u32,
    /// Whether a fine-tune burst ran on this tick.
    pub fine_tuned: bool,
    /// Whether a forecast is available (the window has warmed up).
    pub forecast: bool,
}

/// Per-node plausibility interval derived from a one-step-ahead forecast.
#[derive(Clone, Copy)]
struct Bound {
    lo: f32,
    hi: f32,
    center: f32,
}

/// The online forecasting loop around a trained model. See the module
/// docs for the per-tick contract.
pub struct StreamEngine {
    model: Sagdfn,
    cfg: StreamConfig,
    scaler: RunningZScore,
    n: usize,
    /// Circular raw-value history, `(h + f) · N`, oldest row first.
    ring: Vec<f32>,
    head_row: usize,
    fill: usize,
    ticks: u64,
    clock: Clock,
    /// Persistent single-sample batches, rewritten in place per tick.
    batch: Batch,
    train_batch: Batch,
    out: Tensor,
    have_forecast: bool,
    /// One-step-ahead intervals for the *next* arriving tick.
    bounds: Vec<Bound>,
    have_bounds: bool,
    err_ewma: f32,
    ewma_ready: bool,
    opt: Adam,
    tape: Tape,
}

impl StreamEngine {
    /// Wraps a trained model. `scaler` is the training-time scaler (the
    /// running statistics warm-start from it); `interval_min` and
    /// `start_minute_of_week` anchor the time covariates of the first
    /// pushed tick, exactly as [`sagdfn_data::ForecastDataset`] would.
    pub fn new(
        model: Sagdfn,
        scaler: ZScore,
        cfg: StreamConfig,
        interval_min: u32,
        start_minute_of_week: u32,
    ) -> Self {
        let n = model.n();
        let (h, f) = (cfg.h, cfg.f);
        let out = Tensor::zeros(model.output_dims(f, 1).as_slice());
        let lr = cfg.lr;
        let grad_clip = model.config().grad_clip;
        StreamEngine {
            model,
            cfg,
            scaler: RunningZScore::seeded(scaler, cfg.scaler_memory),
            n,
            ring: vec![0.0; (h + f) * n],
            head_row: 0,
            fill: 0,
            ticks: 0,
            clock: Clock::new(interval_min, start_minute_of_week),
            batch: Batch::zeros(h, f, 1, n),
            train_batch: Batch::zeros(h, f, 1, n),
            out,
            have_forecast: false,
            bounds: vec![
                Bound {
                    lo: 0.0,
                    hi: 0.0,
                    center: 0.0
                };
                n
            ],
            have_bounds: false,
            err_ewma: 0.0,
            ewma_ready: false,
            opt: Adam::new(lr).with_clip(grad_clip),
            tape: Tape::new(),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &Sagdfn {
        &self.model
    }

    /// Consumes the engine, returning the (possibly fine-tuned) model.
    pub fn into_model(self) -> Sagdfn {
        self.model
    }

    /// The active configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Ticks ingested so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The scaler the next forecast will normalize with.
    pub fn scaler(&self) -> ZScore {
        self.scaler.snapshot()
    }

    /// The latest forecast, shaped [`Sagdfn::output_dims`]`(f, 1)`, or
    /// `None` until `h` ticks have warmed the window up.
    pub fn forecast(&self) -> Option<&Tensor> {
        self.have_forecast.then_some(&self.out)
    }

    /// Ingests one observation vector (length `N`; missing sensors report
    /// `0.0` per the METR-LA convention) and runs the per-tick loop.
    pub fn push(&mut self, values: &[f32]) -> TickSummary {
        assert_eq!(values.len(), self.n, "tick must carry one value per node");
        // 1. Flag arrivals against the previous one-step-ahead interval
        //    *before* they influence any state.
        let anomalies = self.flag_anomalies(values);
        // 2. Absorb the tick into the ring and the running scaler.
        self.push_row(values);
        if self.cfg.update_scaler {
            self.scaler.update_all(values);
        }
        // 3. Bounded fine-tune burst (needs the full h+f window).
        let mut fine_tuned = false;
        if self.cfg.fine_tune
            && self.fill == self.cfg.h + self.cfg.f
            && self.ticks.is_multiple_of(self.cfg.ft_every as u64)
        {
            self.fine_tune_burst();
            fine_tuned = true;
        }
        // 4. Forecast from the newest h rows.
        if self.fill >= self.cfg.h {
            let snap = self.rebuild_batch(false);
            self.model
                .predict_batch_into(&self.batch, snap, &mut self.out);
            self.have_forecast = true;
            self.refresh_bounds();
        }
        obs::tally_stream_tick(u64::from(anomalies));
        TickSummary {
            tick: self.ticks,
            anomalies,
            fine_tuned,
            forecast: self.have_forecast,
        }
    }

    /// Compares an arriving tick against the stored intervals, updating
    /// the point-head error EWMA along the way.
    fn flag_anomalies(&mut self, values: &[f32]) -> u32 {
        if !self.have_bounds {
            return 0;
        }
        let mut count = 0u32;
        let mut err_sum = 0.0f64;
        let mut err_n = 0usize;
        // The point head's interval width is the EWMA itself, so the very
        // first comparison only warms the EWMA up and flags nothing.
        let point = self.model.out_channels() == 1;
        let armed = !point || self.ewma_ready;
        for (&v, b) in values.iter().zip(&self.bounds) {
            if v.abs() <= 1e-4 {
                continue; // missing sensor: never an anomaly
            }
            err_sum += f64::from((v - b.center).abs());
            err_n += 1;
            if armed && (v < b.lo || v > b.hi) {
                count += 1;
            }
        }
        if err_n > 0 {
            let mean_err = (err_sum / err_n as f64) as f32;
            if self.ewma_ready {
                self.err_ewma = 0.9 * self.err_ewma + 0.1 * mean_err;
            } else {
                self.err_ewma = mean_err;
                self.ewma_ready = true;
            }
        }
        if armed { count } else { 0 }
    }

    /// Derives the next tick's per-node interval from horizon step 0 of
    /// the forecast just written into `self.out`.
    fn refresh_bounds(&mut self) {
        let c = self.model.out_channels();
        let step0 = &self.out.as_slice()[..self.n * c];
        match self.model.head_kind() {
            crate::config::HeadKind::Quantile => {
                for (b, row) in self.bounds.iter_mut().zip(step0.chunks_exact(c)) {
                    *b = Bound {
                        lo: row[0],
                        hi: row[c - 1],
                        center: row[c / 2],
                    };
                }
            }
            crate::config::HeadKind::Sampled => {
                for (b, row) in self.bounds.iter_mut().zip(step0.chunks_exact(c)) {
                    let (mean, sd) = (row[0], row[1].exp());
                    *b = Bound {
                        lo: mean - self.cfg.anomaly_z * sd,
                        hi: mean + self.cfg.anomaly_z * sd,
                        center: mean,
                    };
                }
            }
            crate::config::HeadKind::Point => {
                let band = self.cfg.anomaly_z * self.err_ewma.max(1e-3);
                for (b, &p) in self.bounds.iter_mut().zip(step0) {
                    *b = Bound {
                        lo: p - band,
                        hi: p + band,
                        center: p,
                    };
                }
            }
        }
        self.have_bounds = true;
    }

    /// Appends one raw row to the circular history.
    fn push_row(&mut self, values: &[f32]) {
        let cap = self.cfg.h + self.cfg.f;
        let dst = if self.fill == cap {
            let row = self.head_row;
            self.head_row = (self.head_row + 1) % cap;
            row
        } else {
            let row = (self.head_row + self.fill) % cap;
            self.fill += 1;
            row
        };
        self.ring[dst * self.n..(dst + 1) * self.n].copy_from_slice(values);
        self.ticks += 1;
    }

    /// Rewrites one persistent batch in place from the ring and returns
    /// the scaler it normalized with: the forecast batch from the newest
    /// `h` rows, or (`train`) the training batch from the full `h + f`
    /// window, oldest `h` rows as inputs and newest `f` as targets. The
    /// ring is borrowed field by field, so nothing is allocated.
    fn rebuild_batch(&mut self, train: bool) -> ZScore {
        let (h, n) = (self.cfg.h, self.n);
        let cap = h + self.cfg.f;
        let len = if train { cap } else { h };
        debug_assert!(self.fill >= len);
        let snap = self.scaler.snapshot();
        let (ring, first) = (&self.ring, self.head_row + self.fill - len);
        let row = |t: usize| {
            let phys = (first + t) % cap;
            &ring[phys * n..(phys + 1) * n]
        };
        // Ticks pushed so far occupy absolute steps 0..ticks.
        let first_step = self.ticks - len as u64;
        let batch = if train {
            &mut self.train_batch
        } else {
            &mut self.batch
        };
        batch.encode_window(0, first_step, self.clock, snap, row, train);
        snap
    }

    /// `ft_steps` gradient steps on the ring's single window: the same
    /// head loss training used, Adam with the config's clip, no SNS
    /// resampling (the index set stays frozen online). Each step
    /// invalidates the eval plan — the next forecast recompiles once.
    fn fine_tune_burst(&mut self) {
        let snap = self.rebuild_batch(true);
        for _ in 0..self.cfg.ft_steps {
            self.tape.reset();
            let bind = self.model.params.bind(&self.tape);
            let pred = self.model.forward(
                &self.tape,
                &bind,
                &self.train_batch,
                snap,
                Mode::Train,
            );
            let mask = Sagdfn::loss_mask(&self.train_batch.y);
            let loss = self.model.loss(pred, &self.train_batch.y, &mask);
            let grads = loss.backward();
            self.opt.step(&mut self.model.params, &bind, &grads);
            self.tape.recycle_gradients(grads);
            self.model.tick();
        }
        obs::tally_stream_fine_tune(self.cfg.ft_steps as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HeadKind, SagdfnConfig};
    use sagdfn_data::Scale;

    fn tiny_model(head: HeadKind) -> (Sagdfn, ZScore, sagdfn_data::ForecastDataset) {
        let data = sagdfn_data::metr_la_like(Scale::Tiny);
        let n = data.dataset.nodes();
        let mut cfg = SagdfnConfig::for_scale(Scale::Tiny, n);
        cfg.head = head;
        let model = Sagdfn::new(n, cfg);
        let scaler = ZScore::fit(&data.dataset.values);
        (model, scaler, data.dataset)
    }

    fn run_ticks(engine: &mut StreamEngine, data: &sagdfn_data::ForecastDataset, count: usize) {
        let n = data.nodes();
        for t in 0..count {
            let row = &data.values.as_slice()[t * n..(t + 1) * n];
            engine.push(row);
        }
    }

    #[test]
    fn warms_up_then_forecasts() {
        let (model, scaler, data) = tiny_model(HeadKind::Point);
        let cfg = StreamConfig::new(4, 4);
        let mut eng = StreamEngine::new(model, scaler, cfg, 5, 0);
        let n = data.nodes();
        for t in 0..3 {
            let s = eng.push(&data.values.as_slice()[t * n..(t + 1) * n]);
            assert!(!s.forecast, "no forecast before h ticks");
        }
        let s = eng.push(&data.values.as_slice()[3 * n..4 * n]);
        assert!(s.forecast);
        assert_eq!(s.tick, 4);
        let fc = eng.forecast().expect("forecast ready");
        assert_eq!(fc.dims(), &[4, 1, n]);
        assert!(fc.all_finite());
    }

    #[test]
    fn identical_streams_are_bit_identical() {
        let run = || {
            let (model, scaler, data) = tiny_model(HeadKind::Quantile);
            let mut eng = StreamEngine::new(model, scaler, StreamConfig::new(4, 4), 5, 0);
            run_ticks(&mut eng, &data, 24);
            eng.forecast()
                .unwrap()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u32>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fine_tune_bursts_advance_the_model() {
        let (model, scaler, data) = tiny_model(HeadKind::Point);
        let mut cfg = StreamConfig::new(4, 4);
        cfg.fine_tune = true;
        cfg.ft_every = 4;
        cfg.ft_steps = 1;
        let mut eng = StreamEngine::new(model, scaler, cfg, 5, 0);
        run_ticks(&mut eng, &data, 16);
        // Window fills at tick 8; bursts at ticks 8, 12, 16.
        assert_eq!(eng.model().iterations(), 3);
        assert!(eng.forecast().unwrap().all_finite());
    }

    #[test]
    fn quantile_interval_flags_a_spike() {
        let (model, scaler, data) = tiny_model(HeadKind::Quantile);
        let n = data.nodes();
        let mut eng = StreamEngine::new(model, scaler, StreamConfig::new(4, 4), 5, 0);
        run_ticks(&mut eng, &data, 12);
        let spike = vec![1.0e5f32; n];
        let s = eng.push(&spike);
        assert!(s.anomalies > 0, "a 1e5 spike must breach the interval");
        // Sane ticks keep flying under it.
        let calm = data.values.as_slice()[12 * n..13 * n].to_vec();
        let s2 = eng.push(&calm);
        assert!(s2.anomalies <= s.anomalies);
    }

    #[test]
    fn scaler_updates_track_the_stream() {
        let (model, scaler, data) = tiny_model(HeadKind::Point);
        let mut cfg = StreamConfig::new(4, 4);
        cfg.scaler_memory = 10.0; // fast drift so the shift is visible
        let mut eng = StreamEngine::new(model, scaler, cfg, 5, 0);
        let before = eng.scaler().mean;
        let n = data.nodes();
        for t in 0..20 {
            let row: Vec<f32> = data.values.as_slice()[t * n..(t + 1) * n]
                .iter()
                .map(|&v| if v.abs() <= 1e-4 { v } else { v + 50.0 })
                .collect();
            eng.push(&row);
        }
        assert!(
            eng.scaler().mean > before + 1.0,
            "running mean must chase the level shift ({} vs {})",
            eng.scaler().mean,
            before
        );
    }

    #[test]
    fn frozen_scaler_when_updates_disabled() {
        let (model, scaler, data) = tiny_model(HeadKind::Point);
        let mut cfg = StreamConfig::new(4, 4);
        cfg.update_scaler = false;
        let mut eng = StreamEngine::new(model, scaler, cfg, 5, 0);
        run_ticks(&mut eng, &data, 10);
        assert_eq!(eng.scaler().mean, scaler.mean);
        assert_eq!(eng.scaler().std, scaler.std);
    }
}
