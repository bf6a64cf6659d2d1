//! Synthetic dataset generators.
//!
//! Both generators share a recipe: draw a latent geometric road graph,
//! derive *spatially correlated* node attributes by diffusing random
//! fields over that graph, then synthesize each node's series from a
//! seasonal profile modulated by those attributes plus spatio-temporally
//! correlated noise. The result exposes the exact structure the paper's
//! models compete on: strong daily/weekly seasonality (temporal models can
//! exploit it) *and* graph-localized correlation (only spatial models can
//! exploit that).

pub mod carpark;
pub mod drift;
pub mod energy;
pub mod traffic;

pub use carpark::{CarparkConfig, CarparkData};
pub use drift::{DriftConfig, DriftKind, TickStream};
pub use energy::{EnergyConfig, EnergyData};
pub use traffic::{TrafficConfig, TrafficData};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ForecastDataset;

    /// FNV-1a over the bit patterns of every generated value.
    fn fnv(d: &ForecastDataset) -> u64 {
        d.values.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            v.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// The generators are inputs to committed baselines and fixtures, so
    /// their output is pinned bit for bit. Each config spans more than a
    /// week, so weekday and weekend steps are both hashed.
    #[test]
    fn generator_output_is_pinned() {
        let traffic = TrafficConfig { nodes: 9, steps: 2100, ..Default::default() }.generate("t");
        let carpark = CarparkConfig { nodes: 9, steps: 2100, ..Default::default() }.generate("c");
        let energy = EnergyConfig { nodes: 9, steps: 200, ..Default::default() }.generate("e");
        let hashes = [fnv(&traffic.dataset), fnv(&carpark.dataset), fnv(&energy.dataset)];
        assert_eq!(hashes, [0x922a_4d48_4820_dece, 0xc026_ad2e_d5df_4240, 0x6e79_18ae_ba8a_842b]);
    }
}
