//! Traffic-speed dataset generator (METR-LA-like and London/NewYork-like).
//!
//! Per node `i` and step `t` the speed is
//!
//! ```text
//! v_i(t) = base_i · (1 − rush(t) · intensity_i − incident_i(t)) + ε_i(t)
//! ```
//!
//! * `base_i` — free-flow speed, uniform in `[speed_lo, speed_hi]`;
//! * `rush(t)` — double-peaked daily congestion profile (8:00 and 18:00),
//!   damped on weekends;
//! * `intensity_i` — how strongly the node reacts to rush hour; produced
//!   by diffusing a random field over the latent road graph, so *nearby
//!   nodes congest together* — the spatial correlation SAGDFN learns;
//! * `incident_i(t)` — sparse incidents that start at a random node, decay
//!   exponentially in time and spill over graph edges;
//! * `ε_i(t)` — AR(1)-in-time noise, spatially diffused each step.
//!
//! A small fraction of readings is zeroed to model missing data, matching
//! the METR-LA convention that metrics mask zeros.

use crate::series::{Clock, ForecastDataset};
use sagdfn_graph::{knn_geometric, GeoGraph};
use sagdfn_tensor::{Rng64, Tensor};

/// Configuration for [`TrafficConfig::generate`].
#[derive(Clone, Debug)]
pub struct TrafficConfig {
    /// Number of sensors `N`.
    pub nodes: usize,
    /// Number of time steps `T`.
    pub steps: usize,
    /// Recording interval in minutes (5 = METR-LA-like, 60 = city-like).
    pub interval_min: u32,
    /// Latent-graph neighbors per node.
    pub knn: usize,
    /// Free-flow speed range (mph or km/h — units are nominal).
    pub speed_lo: f32,
    /// Upper free-flow speed.
    pub speed_hi: f32,
    /// Peak rush-hour congestion factor (fraction of base speed lost).
    pub rush_strength: f32,
    /// Expected incidents per node per 1000 steps.
    pub incident_rate: f32,
    /// AR(1) noise scale (same nominal units as speed).
    pub noise_scale: f32,
    /// Fraction of readings replaced by 0 (missing data).
    pub missing_frac: f32,
    /// RNG seed — cities differ only by seed and topology draw.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            nodes: 207,
            steps: 288 * 14,
            interval_min: 5,
            knn: 6,
            speed_lo: 45.0,
            speed_hi: 70.0,
            rush_strength: 0.55,
            incident_rate: 1.5,
            noise_scale: 2.0,
            missing_frac: 0.002,
            seed: 42,
        }
    }
}

/// Generated dataset plus its latent road graph (used as the "predefined
/// adjacency" by DCRNN-style baselines and the w/o SNS&SSMA ablation).
pub struct TrafficData {
    /// The `(T, N)` speed series.
    pub dataset: ForecastDataset,
    /// Latent sensor graph the data was diffused over.
    pub graph: GeoGraph,
}

impl TrafficConfig {
    /// Synthesizes the dataset deterministically from the seed.
    pub fn generate(&self, name: &str) -> TrafficData {
        assert!(self.nodes > self.knn, "need nodes > knn");
        let mut rng = Rng64::new(self.seed);
        let graph = knn_geometric(self.nodes, self.knn, &mut rng);
        let n = self.nodes;
        let t_steps = self.steps;

        // Spatially correlated rush-hour intensity: random field diffused
        // over the latent graph, then squashed into [0.3, 1.0].
        let raw = Tensor::rand_normal([n, 1], 0.0, 1.0, &mut rng);
        let smooth = graph.adj.diffuse(&raw, 3);
        let intensity: Vec<f32> = smooth
            .as_slice()
            .iter()
            .map(|&v| 0.65 + 0.35 * (2.0 * v).tanh())
            .collect();

        let base: Vec<f32> = (0..n)
            .map(|_| self.speed_lo + (self.speed_hi - self.speed_lo) * rng.next_f32())
            .collect();

        // Incident field, updated per step: new incidents inject a deficit
        // at a node; the field decays and diffuses over edges.
        let mut incident = vec![0.0f32; n];
        let incident_prob = self.incident_rate * n as f32 / 1000.0;
        let adj = graph.adj.weights().as_slice();
        let deg: Vec<f32> = graph.adj.degrees();

        // AR(1) noise field with spatial mixing.
        let mut noise = vec![0.0f32; n];

        let mut values = vec![0.0f32; t_steps * n];
        let mut tmp = vec![0.0f32; n];
        // Step 0 is Monday 00:00, as in the dataset built below.
        let clock = Clock::new(self.interval_min, 0);
        for t in 0..t_steps {
            let (day, minute) = clock.day_and_minute(t as u64);
            let weekend = day >= 5;
            let hour = minute as f32 / 60.0;
            // Two Gaussian congestion bumps (8:00, 18:00).
            let mut rush = (-(hour - 8.0).powi(2) / 4.5).exp()
                + 0.9 * (-(hour - 18.0).powi(2) / 6.0).exp();
            if weekend {
                rush *= 0.35;
            }

            // Evolve incidents: decay, diffuse, spawn.
            for v in incident.iter_mut() {
                *v *= 0.92;
            }
            // One matrix-vector diffusion of 15% of the field.
            for (i, ti) in tmp.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for j in 0..n {
                    let w = adj[i * n + j];
                    if w > 0.0 {
                        acc += w * incident[j];
                    }
                }
                *ti = 0.85 * incident[i] + 0.15 * acc / (deg[i] + 1.0);
            }
            incident.copy_from_slice(&tmp);
            if rng.next_f32() < incident_prob {
                let site = rng.next_below(n);
                incident[site] = (incident[site] + 0.5).min(0.8);
            }

            // Evolve AR(1) noise whose *innovations* are spatially
            // correlated: draw an iid field, average it with graph
            // neighbors, then feed it into the AR recursion. Correlated
            // innovations survive differencing, so even detrended series
            // co-move along graph edges.
            let fresh: Vec<f32> = (0..n).map(|_| rng.next_gaussian()).collect();
            for (i, ti) in tmp.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for j in 0..n {
                    let w = adj[i * n + j];
                    if w > 0.0 {
                        acc += w * fresh[j];
                    }
                }
                let innovation = 0.3 * fresh[i] + 0.7 * acc / deg[i].max(1e-6);
                *ti = 0.8 * noise[i] + self.noise_scale * innovation;
            }
            noise.copy_from_slice(&tmp);

            for i in 0..n {
                let congestion = (rush * intensity[i] * self.rush_strength
                    + incident[i])
                    .min(0.92);
                let mut v = base[i] * (1.0 - congestion) + noise[i];
                v = v.clamp(3.0, self.speed_hi + 8.0);
                if rng.next_f32() < self.missing_frac {
                    v = 0.0;
                }
                values[t * n + i] = v;
            }
        }

        TrafficData {
            dataset: ForecastDataset::new(
                name,
                Tensor::from_vec(values, [t_steps, n]),
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

    fn small() -> TrafficConfig {
        TrafficConfig {
            nodes: 24,
            steps: 288 * 3,
            ..TrafficConfig::default()
        }
    }

    #[test]
    fn shapes_and_determinism() {
        let a = small().generate("t");
        let b = small().generate("t");
        assert_eq!(a.dataset.values.dims(), &[288 * 3, 24]);
        assert_eq!(a.dataset.values, b.dataset.values);
    }

    #[test]
    fn speeds_in_physical_range() {
        let d = small().generate("t");
        for &v in d.dataset.values.as_slice() {
            assert!(v == 0.0 || (3.0..=78.0).contains(&v), "speed {v}");
        }
    }

    #[test]
    fn rush_hour_slower_than_night() {
        let d = small().generate("t");
        let vals = d.dataset.values.as_slice();
        let n = 24;
        // Average 8:00 weekday speeds vs 3:00 speeds over the first 3 days.
        let at_hour = |h: usize| -> f32 {
            let mut acc = 0.0;
            let mut cnt = 0;
            for day in 0..3 {
                let t = day * 288 + h * 12;
                for i in 0..n {
                    if vals[t * n + i] > 0.0 {
                        acc += vals[t * n + i];
                        cnt += 1;
                    }
                }
            }
            acc / cnt as f32
        };
        assert!(
            at_hour(8) < at_hour(3) - 5.0,
            "rush {} vs night {}",
            at_hour(8),
            at_hour(3)
        );
    }

    #[test]
    fn neighbors_more_correlated_than_strangers() {
        // The headline property: correlation should follow the latent graph.
        let d = TrafficConfig {
            nodes: 40,
            steps: 288 * 5,
            noise_scale: 1.0,
            ..TrafficConfig::default()
        }
        .generate("t");
        let n = 40;
        let vals = d.dataset.values.as_slice();
        let t_steps = d.dataset.steps();
        let series = |i: usize| -> Vec<f32> {
            (0..t_steps).map(|t| vals[t * n + i]).collect()
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
        // After removing the shared daily cycle (by differencing), graph
        // neighbors should still co-move more than random pairs.
        let detrend = |s: &[f32]| -> Vec<f32> {
            s.windows(2).map(|w| w[1] - w[0]).collect()
        };
        let w = d.graph.adj.weights().as_slice();
        let mut neigh = Vec::new();
        let mut far = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let c = corr(&detrend(&series(i)), &detrend(&series(j)));
                if w[i * n + j] > 0.0 {
                    neigh.push(c);
                } else {
                    far.push(c);
                }
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        // "Far" pairs include 2-hop neighbors (also correlated), so we
        // require a clear multiplicative gap rather than a huge absolute one.
        assert!(
            mean(&neigh) > mean(&far) * 1.5 && mean(&neigh) > mean(&far) + 0.005,
            "neighbor corr {} vs far {}",
            mean(&neigh),
            mean(&far)
        );
    }

    #[test]
    fn missing_fraction_approximate() {
        let d = TrafficConfig {
            nodes: 30,
            steps: 1000,
            missing_frac: 0.05,
            ..TrafficConfig::default()
        }
        .generate("t");
        let zeros = d
            .dataset
            .values
            .as_slice()
            .iter()
            .filter(|&&v| v == 0.0)
            .count();
        let frac = zeros as f32 / (30.0 * 1000.0);
        assert!((frac - 0.05).abs() < 0.01, "missing frac {frac}");
    }

    #[test]
    fn different_seeds_are_different_cities() {
        let a = TrafficConfig {
            seed: 1,
            ..small()
        }
        .generate("a");
        let b = TrafficConfig {
            seed: 2,
            ..small()
        }
        .generate("b");
        assert_ne!(a.dataset.values, b.dataset.values);
    }
}
