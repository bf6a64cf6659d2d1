//! FEDformer-lite: ridge regression on lags + Fourier time features.
//!
//! FEDformer's core idea is modeling the series in the frequency domain.
//! The closed-form proxy keeps that essence at our window sizes: each
//! horizon step gets a linear model over the scaled lag window plus
//! sin/cos harmonics of time-of-day and day-of-week (the dominant
//! frequencies of traffic/occupancy data), fit by ridge least squares
//! over all training windows and nodes jointly.

use crate::classical::arima::solve_dense;
use crate::{FitSummary, Forecaster};
use sagdfn_data::{SlidingWindows, ThreeWaySplit, ZScore};
use sagdfn_memsim::ModelFamily;
use sagdfn_tensor::{Rng64, Tensor};
use std::time::Instant;

/// Number of (sin, cos) harmonic pairs for each clock covariate.
const HARMONICS: usize = 2;

/// Linear-in-frequency-features forecaster.
pub struct FedLite {
    /// Ridge regularizer.
    pub ridge: f64,
    /// Max training samples drawn for the normal equations.
    pub max_samples: usize,
    weights: Vec<Vec<f32>>, // [f][dim]
    scaler: Option<ZScore>,
    h: usize,
}

impl FedLite {
    /// Defaults.
    pub fn new() -> Self {
        FedLite {
            ridge: 1e-2,
            max_samples: 50_000,
            weights: Vec::new(),
            scaler: None,
            h: 0,
        }
    }

    fn feature_dim(h: usize) -> usize {
        h + 4 * HARMONICS + 1
    }

    /// Features: scaled lags, harmonics of (tod, dow), intercept.
    fn features(scaled_lags: &[f32], tod: f32, dow: f32) -> Vec<f64> {
        let mut x: Vec<f64> = scaled_lags.iter().map(|&v| v as f64).collect();
        for k in 1..=HARMONICS {
            let w = 2.0 * std::f64::consts::PI * k as f64;
            x.push((w * tod as f64).sin());
            x.push((w * tod as f64).cos());
            x.push((w * dow as f64).sin());
            x.push((w * dow as f64).cos());
        }
        x.push(1.0);
        x
    }
}

impl Default for FedLite {
    fn default() -> Self {
        FedLite::new()
    }
}

impl Forecaster for FedLite {
    fn name(&self) -> &'static str {
        "FEDformer(FED-lite)"
    }

    fn family(&self) -> ModelFamily {
        ModelFamily::Lstm // temporal-only memory profile
    }

    fn fit(&mut self, split: &ThreeWaySplit) -> FitSummary {
        let start = Instant::now();
        let windows = &split.train;
        let scaler = split.scaler;
        self.scaler = Some(scaler);
        self.h = windows.h();
        let (h, f, n) = (windows.h(), windows.f(), windows.nodes());
        let dim = Self::feature_dim(h);
        let mut ata = vec![0.0f64; dim * dim];
        let mut atb = vec![vec![0.0f64; dim]; f];
        let mut rng = Rng64::new(99);
        let total = windows.len() * n;
        let samples = total.min(self.max_samples);
        for _ in 0..samples {
            let w = rng.next_below(windows.len());
            let node = rng.next_below(n);
            let (input, target) = windows.raw_window(w);
            let scaled: Vec<f32> = (0..h)
                .map(|t| scaler.transform_scalar(input.as_slice()[t * n + node]))
                .collect();
            let start_step = windows.starts()[w];
            let (tod, dow) = windows.dataset().clock().covariates((start_step + h) as u64);
            let x = Self::features(&scaled, tod, dow);
            for i in 0..dim {
                let xi = x[i];
                for j in 0..dim {
                    ata[i * dim + j] += xi * x[j];
                }
            }
            for (step, atb_step) in atb.iter_mut().enumerate() {
                let y = scaler.transform_scalar(target.as_slice()[step * n + node]) as f64;
                for i in 0..dim {
                    atb_step[i] += x[i] * y;
                }
            }
        }
        for i in 0..dim {
            ata[i * dim + i] += self.ridge * samples as f64;
        }
        self.weights = atb
            .into_iter()
            .map(|mut b| {
                let mut a = ata.clone();
                solve_dense(&mut a, &mut b, dim)
                    .into_iter()
                    .map(|v| v as f32)
                    .collect()
            })
            .collect();
        FitSummary {
            train_seconds: start.elapsed().as_secs_f64(),
            epoch_seconds: start.elapsed().as_secs_f64(),
            param_count: f * dim,
            epochs_run: 1,
        }
    }

    fn predict(&self, windows: &SlidingWindows) -> (Tensor, Tensor) {
        assert!(!self.weights.is_empty(), "fit() before predict()");
        let scaler = self.scaler.expect("scaler set");
        let (h, f, n) = (windows.h(), windows.f(), windows.nodes());
        assert_eq!(h, self.h, "window length changed between fit and predict");
        let num = windows.len();
        let mut preds = vec![0.0f32; f * num * n];
        let mut targets = vec![0.0f32; f * num * n];
        for w in 0..num {
            let (input, target) = windows.raw_window(w);
            let start_step = windows.starts()[w];
            let (tod, dow) = windows.dataset().clock().covariates((start_step + h) as u64);
            for node in 0..n {
                let scaled: Vec<f32> = (0..h)
                    .map(|t| scaler.transform_scalar(input.as_slice()[t * n + node]))
                    .collect();
                let x = Self::features(&scaled, tod, dow);
                for step in 0..f {
                    let z: f64 = self.weights[step]
                        .iter()
                        .zip(&x)
                        .map(|(&wgt, &xi)| wgt as f64 * xi)
                        .sum();
                    preds[(step * num + w) * n + node] = scaler.inverse_scalar(z as f32);
                    targets[(step * num + w) * n + node] = target.as_slice()[step * n + node];
                }
            }
        }
        (
            Tensor::from_vec(preds, [f, num, n]),
            Tensor::from_vec(targets, [f, num, n]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sagdfn_data::{Scale, SplitSpec, ThreeWaySplit};

    #[test]
    fn captures_daily_seasonality() {
        let data = sagdfn_data::metr_la_like(Scale::Tiny);
        let split = ThreeWaySplit::new(data.dataset, SplitSpec::paper(12, 6));
        let mut fed = FedLite::new();
        fed.fit(&split);
        let m = fed.evaluate(&split.test);
        // Traffic speeds ~ 20-70; a seasonal-aware linear model should get
        // single-digit MAE at horizon 1.
        assert!(m[0].mae < 8.0, "horizon-1 MAE {}", m[0].mae);
        let mut ha = crate::classical::HistoricalAverage;
        ha.fit(&split);
        let ha_m = ha.evaluate(&split.test);
        assert!(
            m[5].mae < ha_m[5].mae,
            "FED-lite {} should beat HA {} at horizon 6",
            m[5].mae,
            ha_m[5].mae
        );
    }

    #[test]
    fn feature_dim_consistent() {
        assert_eq!(FedLite::feature_dim(12), 12 + 8 + 1);
        let x = FedLite::features(&[0.0; 12], 0.5, 0.3);
        assert_eq!(x.len(), FedLite::feature_dim(12));
    }
}
