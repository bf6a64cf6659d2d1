//! Drift-injection tick streams for online-learning scenarios.
//!
//! Wraps a [`ForecastDataset`] as a sequence of per-step observation
//! vectors and overlays a distribution shift at a configurable onset —
//! the scenarios a streaming forecaster must absorb via incremental
//! scaler updates and continual fine-tuning. Deterministic: the same
//! dataset and config always yield the same ticks.

use crate::series::ForecastDataset;

/// The shape of the injected shift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriftKind {
    /// No shift: the stream replays the dataset verbatim.
    None,
    /// An abrupt level shift: from the onset on, every node's value
    /// jumps by `magnitude` (in raw units).
    LevelShift,
    /// A gradual ramp: the offset grows linearly from 0 at the onset to
    /// `magnitude` over `ramp_steps` steps, then holds.
    Ramp,
}

/// Drift scenario parameters.
#[derive(Clone, Copy, Debug)]
pub struct DriftConfig {
    /// What to inject.
    pub kind: DriftKind,
    /// First tick (dataset step) affected.
    pub onset: usize,
    /// Full offset in raw units.
    pub magnitude: f32,
    /// Ramp duration (ignored for [`DriftKind::LevelShift`]).
    pub ramp_steps: usize,
}

impl DriftConfig {
    /// The identity scenario.
    pub fn none() -> Self {
        DriftConfig {
            kind: DriftKind::None,
            onset: 0,
            magnitude: 0.0,
            ramp_steps: 0,
        }
    }

    /// The additive offset at tick `t`.
    pub fn offset_at(&self, t: usize) -> f32 {
        match self.kind {
            DriftKind::None => 0.0,
            DriftKind::LevelShift => {
                if t >= self.onset {
                    self.magnitude
                } else {
                    0.0
                }
            }
            DriftKind::Ramp => {
                if t < self.onset {
                    0.0
                } else if self.ramp_steps == 0 || t >= self.onset + self.ramp_steps {
                    self.magnitude
                } else {
                    self.magnitude * (t - self.onset) as f32 / self.ramp_steps as f32
                }
            }
        }
    }
}

/// Replays a dataset one step at a time with the drift overlay applied.
/// Missing observations (≈0, the METR-LA convention) stay missing — a
/// dead sensor does not spring to life because the level shifted.
pub struct TickStream<'d> {
    data: &'d ForecastDataset,
    drift: DriftConfig,
    next: usize,
    buf: Vec<f32>,
}

impl<'d> TickStream<'d> {
    /// A stream over `data` from step 0 with the given drift scenario.
    pub fn new(data: &'d ForecastDataset, drift: DriftConfig) -> Self {
        TickStream {
            data,
            drift,
            next: 0,
            buf: vec![0.0; data.nodes()],
        }
    }

    /// Starts the stream at dataset step `start` (e.g. just past the
    /// training split, so warmup ticks replay the most recent history).
    pub fn starting_at(mut self, start: usize) -> Self {
        self.next = start.min(self.data.steps());
        self
    }

    /// The next tick index to be emitted.
    pub fn position(&self) -> usize {
        self.next
    }

    /// Ticks remaining.
    pub fn remaining(&self) -> usize {
        self.data.steps() - self.next
    }

    /// Emits the next observation vector (length `N`), or `None` when the
    /// dataset is exhausted. The returned slice is valid until the next
    /// call; callers that need to keep it copy it out.
    pub fn next_tick(&mut self) -> Option<&[f32]> {
        if self.next >= self.data.steps() {
            return None;
        }
        let n = self.data.nodes();
        let row = &self.data.values.as_slice()[self.next * n..(self.next + 1) * n];
        let off = self.drift.offset_at(self.next);
        for (dst, &v) in self.buf.iter_mut().zip(row) {
            *dst = if v.abs() <= 1e-4 { v } else { v + off };
        }
        self.next += 1;
        Some(&self.buf)
    }

    /// Minute-of-week of the tick at `position` (used to rebuild the time
    /// covariates a batch carries).
    pub fn minute_of_week(&self, t: usize) -> u32 {
        self.data.clock().minute_of_week(t as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sagdfn_tensor::Tensor;

    fn ds() -> ForecastDataset {
        let vals: Vec<f32> = (0..40).map(|i| 10.0 + (i % 4) as f32).collect();
        ForecastDataset::new("drift-test", Tensor::from_vec(vals, [20, 2]), 5, 0)
    }

    #[test]
    fn none_replays_verbatim() {
        let d = ds();
        let mut s = TickStream::new(&d, DriftConfig::none());
        let first = s.next_tick().unwrap().to_vec();
        assert_eq!(first, &d.values.as_slice()[..2]);
        let mut count = 1;
        while s.next_tick().is_some() {
            count += 1;
        }
        assert_eq!(count, 20);
    }

    #[test]
    fn level_shift_applies_from_onset() {
        let d = ds();
        let cfg = DriftConfig {
            kind: DriftKind::LevelShift,
            onset: 10,
            magnitude: 5.0,
            ramp_steps: 0,
        };
        let mut s = TickStream::new(&d, cfg);
        for t in 0..20 {
            let tick = s.next_tick().unwrap().to_vec();
            let base = &d.values.as_slice()[t * 2..(t + 1) * 2];
            let want = if t >= 10 { 5.0 } else { 0.0 };
            assert_eq!(tick[0], base[0] + want, "tick {t}");
        }
    }

    #[test]
    fn ramp_interpolates_then_holds() {
        let cfg = DriftConfig {
            kind: DriftKind::Ramp,
            onset: 4,
            magnitude: 8.0,
            ramp_steps: 4,
        };
        assert_eq!(cfg.offset_at(3), 0.0);
        assert_eq!(cfg.offset_at(4), 0.0);
        assert_eq!(cfg.offset_at(6), 4.0);
        assert_eq!(cfg.offset_at(8), 8.0);
        assert_eq!(cfg.offset_at(100), 8.0);
    }

    #[test]
    fn missing_values_stay_missing() {
        let vals = vec![0.0, 3.0, 0.0, 4.0];
        let d = ForecastDataset::new("m", Tensor::from_vec(vals, [2, 2]), 5, 0);
        let cfg = DriftConfig {
            kind: DriftKind::LevelShift,
            onset: 0,
            magnitude: 9.0,
            ramp_steps: 0,
        };
        let mut s = TickStream::new(&d, cfg);
        assert_eq!(s.next_tick().unwrap(), &[0.0, 12.0]);
        assert_eq!(s.next_tick().unwrap(), &[0.0, 13.0]);
    }

    #[test]
    fn starting_at_skips_prefix() {
        let d = ds();
        let mut s = TickStream::new(&d, DriftConfig::none()).starting_at(18);
        assert_eq!(s.remaining(), 2);
        assert!(s.next_tick().is_some());
        assert!(s.next_tick().is_some());
        assert!(s.next_tick().is_none());
    }
}
