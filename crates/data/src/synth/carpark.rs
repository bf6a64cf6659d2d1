//! Carpark-availability dataset generator (CARPARK1918-like).
//!
//! Each carpark has an integer capacity and a *type* (office, residential,
//! retail) drawn with spatial correlation over a latent city graph —
//! neighboring carparks serve the same district and fill together. The
//! observable is the number of **available** lots:
//!
//! ```text
//! avail_i(t) = capacity_i − occ_i(t),
//! occ_i(t)   = capacity_i · profile(type_i, t) + AR-noise, clamped to [0, cap]
//! ```
//!
//! Office lots fill on weekday mornings and drain at night; residential
//! lots are the inverse; retail peaks on evenings/weekends. This creates
//! the sharp bounded dynamics that make CARPARK1918 the hardest dataset in
//! the paper (largest MAE scale in Table V).

use crate::series::{Clock, ForecastDataset};
use sagdfn_graph::{knn_geometric, GeoGraph};
use sagdfn_tensor::{Rng64, Tensor};

/// Carpark category, decided by a spatially-smoothed latent field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParkType {
    /// Fills during working hours on weekdays.
    Office,
    /// Fills overnight; empties during working hours.
    Residential,
    /// Fills evenings and weekends.
    Retail,
}

/// Configuration for [`CarparkConfig::generate`].
#[derive(Clone, Debug)]
pub struct CarparkConfig {
    /// Number of carparks `N`.
    pub nodes: usize,
    /// Number of time steps `T`.
    pub steps: usize,
    /// Recording interval in minutes (paper: 5).
    pub interval_min: u32,
    /// Latent-graph neighbors per node.
    pub knn: usize,
    /// Capacity range (inclusive bounds, lots).
    pub capacity_lo: u32,
    /// Upper capacity bound.
    pub capacity_hi: u32,
    /// AR(1) noise scale as a fraction of capacity.
    pub noise_frac: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CarparkConfig {
    fn default() -> Self {
        CarparkConfig {
            nodes: 1918,
            steps: 288 * 14,
            interval_min: 5,
            knn: 6,
            capacity_lo: 80,
            capacity_hi: 600,
            noise_frac: 0.03,
            seed: 7,
        }
    }
}

/// Generated dataset plus latent graph and node metadata.
pub struct CarparkData {
    /// The `(T, N)` available-lots series (non-negative integers as f32).
    pub dataset: ForecastDataset,
    /// Latent district graph.
    pub graph: GeoGraph,
    /// Capacity per carpark.
    pub capacities: Vec<u32>,
    /// Category per carpark.
    pub types: Vec<ParkType>,
}

/// Target occupancy fraction for a park type at wall-clock `hour`
/// (0.0–24.0) on a weekday/weekend.
fn occupancy_profile(ty: ParkType, hour: f32, weekend: bool) -> f32 {
    let bump = |center: f32, width: f32| (-(hour - center).powi(2) / width).exp();
    match ty {
        ParkType::Office => {
            let work = bump(13.0, 28.0); // broad 9-17 plateau
            if weekend {
                0.15 + 0.1 * work
            } else {
                0.15 + 0.75 * work
            }
        }
        ParkType::Residential => {
            // High at night: complement of a daytime bump.
            let day = bump(13.5, 30.0);
            0.9 - 0.55 * day * if weekend { 0.4 } else { 1.0 }
        }
        ParkType::Retail => {
            let evening = bump(19.0, 12.0);
            let midday = bump(13.0, 10.0);
            let weekend_boost = if weekend { 0.3 } else { 0.0 };
            0.2 + 0.45 * evening + (0.2 + weekend_boost) * midday
        }
    }
}

impl CarparkConfig {
    /// Synthesizes the dataset deterministically from the seed.
    pub fn generate(&self, name: &str) -> CarparkData {
        assert!(self.nodes > self.knn, "need nodes > knn");
        let mut rng = Rng64::new(self.seed);
        let graph = knn_geometric(self.nodes, self.knn, &mut rng);
        let n = self.nodes;

        // District field: diffuse a random scalar and threshold into types,
        // so neighboring carparks share a category.
        let raw = Tensor::rand_normal([n, 1], 0.0, 1.0, &mut rng);
        let field = graph.adj.diffuse(&raw, 4);
        let types: Vec<ParkType> = field
            .as_slice()
            .iter()
            .map(|&v| {
                if v > 0.25 {
                    ParkType::Office
                } else if v < -0.25 {
                    ParkType::Residential
                } else {
                    ParkType::Retail
                }
            })
            .collect();

        let capacities: Vec<u32> = (0..n)
            .map(|_| {
                self.capacity_lo
                    + rng.next_below((self.capacity_hi - self.capacity_lo + 1) as usize) as u32
            })
            .collect();

        let mut noise = vec![0.0f32; n];
        let mut values = vec![0.0f32; self.steps * n];
        // Step 0 is Monday 00:00, as in the dataset built below.
        let clock = Clock::new(self.interval_min, 0);
        for t in 0..self.steps {
            let (day, minute) = clock.day_and_minute(t as u64);
            let weekend = day >= 5;
            let hour = minute as f32 / 60.0;
            for i in 0..n {
                noise[i] = 0.9 * noise[i] + rng.next_gaussian() * self.noise_frac;
                let cap = capacities[i] as f32;
                let occ_frac =
                    (occupancy_profile(types[i], hour, weekend) + noise[i]).clamp(0.0, 1.0);
                let avail = (cap * (1.0 - occ_frac)).round().clamp(0.0, cap);
                values[t * n + i] = avail;
            }
        }

        CarparkData {
            dataset: ForecastDataset::new(
                name,
                Tensor::from_vec(values, [self.steps, n]),
                self.interval_min,
                0,
            ),
            graph,
            capacities,
            types,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CarparkConfig {
        CarparkConfig {
            nodes: 30,
            steps: 288 * 3,
            ..CarparkConfig::default()
        }
    }

    #[test]
    fn availability_within_capacity() {
        let d = small().generate("cp");
        let n = 30;
        for t in 0..d.dataset.steps() {
            for i in 0..n {
                let v = d.dataset.values.as_slice()[t * n + i];
                assert!(v >= 0.0 && v <= d.capacities[i] as f32);
                assert_eq!(v, v.round(), "availability must be integral");
            }
        }
    }

    #[test]
    fn office_lots_fill_at_midday() {
        let d = CarparkConfig {
            nodes: 60,
            steps: 288 * 2,
            ..CarparkConfig::default()
        }
        .generate("cp");
        let n = 60;
        let vals = d.dataset.values.as_slice();
        for i in 0..n {
            if d.types[i] != ParkType::Office {
                continue;
            }
            // Monday 13:00 (t = 156) vs Monday 03:00 (t = 36).
            let midday = vals[156 * n + i];
            let night = vals[36 * n + i];
            assert!(
                midday < night,
                "office park {i}: midday {midday} night {night}"
            );
        }
    }

    #[test]
    fn residential_is_the_inverse() {
        let d = CarparkConfig {
            nodes: 60,
            steps: 288 * 2,
            ..CarparkConfig::default()
        }
        .generate("cp");
        let n = 60;
        let vals = d.dataset.values.as_slice();
        let mut checked = 0;
        for i in 0..n {
            if d.types[i] != ParkType::Residential {
                continue;
            }
            let midday = vals[156 * n + i];
            let night = vals[36 * n + i];
            assert!(midday > night, "residential {i}: {midday} vs {night}");
            checked += 1;
        }
        assert!(checked > 0, "no residential parks drawn — adjust threshold");
    }

    #[test]
    fn types_are_spatially_clustered() {
        let d = CarparkConfig {
            nodes: 100,
            steps: 10,
            ..CarparkConfig::default()
        }
        .generate("cp");
        // Fraction of graph edges whose endpoints share a type must beat
        // the chance rate implied by the type distribution.
        let n = 100;
        let w = d.graph.adj.weights().as_slice();
        let mut same = 0usize;
        let mut total = 0usize;
        for i in 0..n {
            for j in 0..n {
                if w[i * n + j] > 0.0 {
                    total += 1;
                    if d.types[i] == d.types[j] {
                        same += 1;
                    }
                }
            }
        }
        let observed = same as f32 / total as f32;
        let mut counts = [0usize; 3];
        for t in &d.types {
            counts[match t {
                ParkType::Office => 0,
                ParkType::Residential => 1,
                ParkType::Retail => 2,
            }] += 1;
        }
        let chance: f32 = counts
            .iter()
            .map(|&c| (c as f32 / n as f32).powi(2))
            .sum();
        assert!(
            observed > chance + 0.1,
            "edge same-type rate {observed} vs chance {chance}"
        );
    }

    #[test]
    fn deterministic_by_seed() {
        let a = small().generate("cp");
        let b = small().generate("cp");
        assert_eq!(a.dataset.values, b.dataset.values);
        assert_eq!(a.capacities, b.capacities);
    }

    #[test]
    fn weekday_weekend_profiles_differ() {
        assert!(
            occupancy_profile(ParkType::Office, 13.0, false)
                > occupancy_profile(ParkType::Office, 13.0, true)
        );
        assert!(
            occupancy_profile(ParkType::Retail, 13.0, true)
                > occupancy_profile(ParkType::Retail, 13.0, false)
        );
    }
}
