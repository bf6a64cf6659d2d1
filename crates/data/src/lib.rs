//! # sagdfn-data
//!
//! Multivariate time-series datasets for the SAGDFN reproduction.
//!
//! The paper evaluates on four proprietary/real datasets (METR-LA,
//! London2000, NewYork2000, CARPARK1918). This crate provides
//! *deterministic synthetic generators* that reproduce the statistical
//! regimes those datasets expose to the models — strong daily/weekly
//! seasonality, congestion dynamics that propagate over a latent road
//! graph, bounded occupancy counts — plus the full data pipeline:
//!
//! * [`series::ForecastDataset`] — `(T, N)` values with time covariates;
//! * [`scaler::ZScore`] — global z-score normalization fit on train data;
//! * [`window`] — sliding-window train/val/test splits and batch tensors;
//! * [`metrics`] — masked MAE / RMSE / MAPE, the paper's three metrics;
//! * [`synth`] — the traffic & carpark generators;
//! * [`presets`] — `metr_la_like`, `city2000_like`, `carpark_like`, and
//!   the London200 subset, each at `tiny` / `small` / `paper` scale.

pub mod diagnostics;
pub mod io;
pub mod metrics;
pub mod presets;
pub mod scaler;
pub mod series;
pub mod synth;
pub mod window;

pub use diagnostics::{inspect, DatasetReport};
pub use metrics::{average, horizon_metrics, node_metrics, prob_metrics, Metrics, ProbMetrics};
pub use presets::{carpark_like, city2000_like, metr_la_like, Scale};
pub use scaler::{RunningZScore, ZScore};
pub use series::{Clock, ForecastDataset};
pub use synth::{DriftConfig, DriftKind, TickStream};
pub use window::{Batch, SlidingWindows, SplitSpec, ThreeWaySplit};
