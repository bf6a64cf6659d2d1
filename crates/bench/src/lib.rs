//! # sagdfn-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (`src/bin/table*.rs`, `src/bin/fig*.rs`). Binaries print paper-style
//! rows to stdout and write CSV under `results/`.
//!
//! Common flags for every binary:
//!
//! * `--scale tiny|small|paper` — run size (default `tiny`; `paper` uses
//!   the full dimensions and is CPU-hours expensive);
//! * `--seed <u64>` — dataset/model seed;
//! * `--out <dir>` — CSV output directory (default `results/`).
//!
//! The eight `bench_*` regression binaries take their own flags and
//! gate against the committed `BENCH_*.json` through [`gate`].

pub mod args;
pub mod gate;
pub mod plot;
pub mod runner;

pub use args::RunArgs;
pub use runner::{load, run_family, DatasetKind, LoadedDataset, RowOutcome};
