//! Energy-demand dataset generator.
//!
//! The paper motivates multivariate forecasting with "meteorology, stock
//! market, traffic flow, energy consumption"; this generator provides the
//! energy instance: substation-level electricity load with
//!
//! * a strong daily cycle (morning/evening peaks) and weekend damping,
//! * a *shared weather driver* (smooth temperature-like process) whose
//!   influence is spatially correlated over a latent feeder graph —
//!   hot afternoons raise cooling load across neighboring substations,
//! * multiplicative heteroskedastic noise (demand variance scales with
//!   level).
//!
//! Like the traffic/carpark generators, the observable regime is
//! *seasonality + graph-local correlation*, which is what separates the
//! spatial models from the temporal-only ones.

use crate::series::{Clock, ForecastDataset};
use sagdfn_graph::{knn_geometric, GeoGraph};
use sagdfn_tensor::{Rng64, Tensor};

/// Configuration for [`EnergyConfig::generate`].
#[derive(Clone, Debug)]
pub struct EnergyConfig {
    /// Number of substations `N`.
    pub nodes: usize,
    /// Number of time steps `T`.
    pub steps: usize,
    /// Recording interval in minutes (typical smart-meter: 15 or 60).
    pub interval_min: u32,
    /// Latent feeder-graph neighbors per node.
    pub knn: usize,
    /// Base load range in MW.
    pub base_lo: f32,
    /// Upper base load.
    pub base_hi: f32,
    /// Weather sensitivity (fraction of base swung by the weather driver).
    pub weather_gain: f32,
    /// Multiplicative noise scale.
    pub noise_frac: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EnergyConfig {
    fn default() -> Self {
        EnergyConfig {
            nodes: 100,
            steps: 24 * 60,
            interval_min: 60,
            knn: 5,
            base_lo: 5.0,
            base_hi: 60.0,
            weather_gain: 0.35,
            noise_frac: 0.04,
            seed: 230,
        }
    }
}

/// Generated dataset plus its latent feeder graph.
pub struct EnergyData {
    /// The `(T, N)` load series (MW).
    pub dataset: ForecastDataset,
    /// Latent feeder graph.
    pub graph: GeoGraph,
}

impl EnergyConfig {
    /// Synthesizes the dataset deterministically from the seed.
    pub fn generate(&self, name: &str) -> EnergyData {
        assert!(self.nodes > self.knn, "need nodes > knn");
        let mut rng = Rng64::new(self.seed);
        let graph = knn_geometric(self.nodes, self.knn, &mut rng);
        let n = self.nodes;

        let base: Vec<f32> = (0..n)
            .map(|_| self.base_lo + (self.base_hi - self.base_lo) * rng.next_f32())
            .collect();
        // Spatially correlated weather sensitivity (coastal vs inland
        // feeders react differently to the same weather).
        let raw = Tensor::rand_normal([n, 1], 0.0, 1.0, &mut rng);
        let sens: Vec<f32> = graph
            .adj
            .diffuse(&raw, 3)
            .as_slice()
            .iter()
            .map(|&v| 0.6 + 0.4 * (1.5 * v).tanh())
            .collect();

        // Shared weather driver: slow AR(1) with a diurnal component.
        let mut weather = 0.0f32;
        let steps_per_day = (24 * 60 / self.interval_min) as usize;
        let mut values = vec![0.0f32; self.steps * n];
        // Step 0 is Monday 00:00, as in the dataset built below.
        let clock = Clock::new(self.interval_min, 0);
        for t in 0..self.steps {
            weather = 0.995 * weather + 0.03 * rng.next_gaussian();
            let (day, minute) = clock.day_and_minute(t as u64);
            let weekend = day >= 5;
            let hour = minute as f32 / 60.0;
            // Double-peak demand profile: 8:00 and 19:00.
            let mut profile = 0.55
                + 0.3 * (-(hour - 8.0).powi(2) / 8.0).exp()
                + 0.45 * (-(hour - 19.0).powi(2) / 7.0).exp();
            if weekend {
                profile *= 0.85;
            }
            // Afternoon weather load (cooling) follows the shared driver.
            let afternoon = (-(hour - 15.0).powi(2) / 18.0).exp();
            let _ = steps_per_day;
            for i in 0..n {
                let weather_load = self.weather_gain * sens[i] * weather.tanh() * afternoon;
                let mut v = base[i] * (profile + weather_load).max(0.1);
                v *= 1.0 + self.noise_frac * rng.next_gaussian();
                values[t * n + i] = v.max(0.0);
            }
        }
        EnergyData {
            dataset: ForecastDataset::new(
                name,
                Tensor::from_vec(values, [self.steps, n]),
                self.interval_min,
                0,
            ),
            graph,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> EnergyConfig {
        EnergyConfig {
            nodes: 20,
            steps: 24 * 21,
            ..EnergyConfig::default()
        }
    }

    #[test]
    fn loads_positive_and_deterministic() {
        let a = small().generate("e");
        let b = small().generate("e");
        assert_eq!(a.dataset.values, b.dataset.values);
        assert!(a.dataset.values.min() >= 0.0);
        assert!(a.dataset.values.all_finite());
    }

    #[test]
    fn evening_peak_exceeds_night_valley() {
        let d = small().generate("e");
        let n = 20;
        let vals = d.dataset.values.as_slice();
        let avg_at = |hour: usize| -> f32 {
            let mut acc = 0.0;
            let mut cnt = 0;
            for day in 0..14 {
                let t = day * 24 + hour;
                for i in 0..n {
                    acc += vals[t * n + i];
                    cnt += 1;
                }
            }
            acc / cnt as f32
        };
        assert!(
            avg_at(19) > 1.3 * avg_at(3),
            "evening {} vs night {}",
            avg_at(19),
            avg_at(3)
        );
    }

    #[test]
    fn weekends_lighter_than_weekdays() {
        let d = small().generate("e");
        let n = 20;
        let vals = d.dataset.values.as_slice();
        let day_mean = |day: usize| -> f32 {
            let mut acc = 0.0;
            for h in 0..24 {
                let t = day * 24 + h;
                for i in 0..n {
                    acc += vals[t * n + i];
                }
            }
            acc / (24 * n) as f32
        };
        // Average 2 weekends vs 2 mid-weeks.
        let weekend = (day_mean(5) + day_mean(6) + day_mean(12) + day_mean(13)) / 4.0;
        let weekday = (day_mean(1) + day_mean(2) + day_mean(8) + day_mean(9)) / 4.0;
        assert!(weekend < weekday, "weekend {weekend} vs weekday {weekday}");
    }

    #[test]
    fn weather_couples_neighbors() {
        // Detrended neighbor series should co-move more than distant ones
        // thanks to the shared, spatially-modulated weather driver.
        let d = EnergyConfig {
            nodes: 30,
            steps: 24 * 40,
            noise_frac: 0.02,
            ..EnergyConfig::default()
        }
        .generate("e");
        let n = 30;
        let vals = d.dataset.values.as_slice();
        let t_len = d.dataset.steps();
        // Remove the daily profile by differencing across days.
        let day_detrended = |i: usize| -> Vec<f32> {
            (24..t_len)
                .map(|t| vals[t * n + i] - vals[(t - 24) * n + i])
                .collect()
        };
        let corr = |a: &[f32], b: &[f32]| -> f32 {
            let ma = a.iter().sum::<f32>() / a.len() as f32;
            let mb = b.iter().sum::<f32>() / b.len() as f32;
            let mut num = 0.0;
            let mut da = 0.0;
            let mut db = 0.0;
            for (&x, &y) in a.iter().zip(b) {
                num += (x - ma) * (y - mb);
                da += (x - ma).powi(2);
                db += (y - mb).powi(2);
            }
            num / (da.sqrt() * db.sqrt() + 1e-9)
        };
        let w = d.graph.adj.weights().as_slice();
        let (mut neigh, mut far) = (Vec::new(), Vec::new());
        for i in 0..n {
            let si = day_detrended(i);
            for j in 0..n {
                if i == j {
                    continue;
                }
                let c = corr(&si, &day_detrended(j));
                if w[i * n + j] > 0.0 {
                    neigh.push(c);
                } else {
                    far.push(c);
                }
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(
            mean(&neigh) > mean(&far),
            "neighbors {} vs far {}",
            mean(&neigh),
            mean(&far)
        );
    }
}
