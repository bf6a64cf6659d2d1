//! Seeded inputs, generated once and cached outside the timed region.
//!
//! Each seed owns a directory under `.bench_cache/` holding what a user
//! of the system would have on disk: dataset CSVs (written with
//! `sagdfn_data::io::write_csv`) and model checkpoints (a config JSON
//! sidecar plus weights written with `sagdfn_nn::checkpoint::save`). The
//! seed drives the data values, and through them the scaler, the
//! request payloads and the tick stream. Model weights come from the
//! fixed config seed, so every benchmark seed runs the same adjacency
//! sparsity and therefore the same kernel dispatch.
//!
//! Loading these files is what `setup_s` times; generating them is not.

use sagdfn_core::{HeadKind, Sagdfn, SagdfnConfig};
use sagdfn_data::synth::TrafficConfig;
use sagdfn_data::{io as dataio, ForecastDataset, Scale};
use sagdfn_json::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// History and horizon of every workload: the paper's h = f = 12.
pub const H: usize = 12;
pub const F: usize = 12;

/// The paper-scale graph size of the London2000-like preset.
pub const CITY_NODES: usize = 2000;
/// Training-workload mini-batch (shrunk from the Small preset's 16 so a
/// run holds enough steps; N, h and f stay at paper scale).
pub const TRAIN_BATCH: usize = 2;
/// Node count of the streaming and serving tenants.
pub const TENANT_NODES: usize = 120;
/// Set-ups per run of the N = 120 workloads; `setup_s` is their median.
/// One set-up takes about 50 ms. On a shared 2-vCPU VM the speed
/// switches between two levels about 1.5x apart every second or so, so
/// the set-ups span about 3 s and several switches.
pub const TENANT_SETUPS: usize = 61;

/// A dataset the benchmark can generate.
#[derive(Clone, Copy)]
pub enum Dataset {
    /// London2000-like hourly speeds at N = 2000, 16 days.
    City2000,
    /// The same generator at N = 120, long enough to stream from.
    City120,
}

impl Dataset {
    fn stem(self) -> &'static str {
        match self {
            Dataset::City2000 => "city2000",
            Dataset::City120 => "city120",
        }
    }

    fn generate(self, seed: u64) -> ForecastDataset {
        let (nodes, days) = match self {
            Dataset::City2000 => (CITY_NODES, 16),
            Dataset::City120 => (TENANT_NODES, 120),
        };
        // The city2000_like preset's generator settings, with the
        // benchmark seed in place of the fixed city seed and fewer days
        // (the generator is O(T·N²); 16 days hold every window a run
        // touches).
        TrafficConfig {
            nodes,
            steps: 24 * days,
            interval_min: 60,
            knn: 8,
            speed_lo: 15.0,
            speed_hi: 35.0,
            rush_strength: 0.45,
            noise_scale: 1.0,
            missing_frac: 0.0,
            incident_rate: 2.0,
            seed: 9000 + seed.wrapping_mul(0x9E37_79B9),
        }
        .generate(self.stem())
        .dataset
    }
}

/// A model checkpoint the benchmark can generate.
#[derive(Clone, Copy)]
pub enum Model {
    /// Small-preset dimensions at N = 2000 (the training workload).
    Train2000,
    /// Point-head tenant at N = 120.
    Point120,
    /// Quantile-head tenant at N = 120.
    Quantile120,
}

impl Model {
    fn stem(self) -> &'static str {
        match self {
            Model::Train2000 => "train2000",
            Model::Point120 => "point120",
            Model::Quantile120 => "quantile120",
        }
    }

    fn nodes(self) -> usize {
        match self {
            Model::Train2000 => CITY_NODES,
            Model::Point120 | Model::Quantile120 => TENANT_NODES,
        }
    }

    fn config(self) -> SagdfnConfig {
        let n = self.nodes();
        let mut cfg = SagdfnConfig::for_scale(Scale::Small, n);
        match self {
            Model::Train2000 => cfg.batch_size = TRAIN_BATCH,
            Model::Point120 => {}
            Model::Quantile120 => cfg.head = HeadKind::Quantile,
        }
        cfg
    }
}

/// Wall seconds of each loading step, for `setup_s` and its layer split.
#[derive(Clone, Copy, Default)]
pub struct LoadTimes {
    pub read_csv_s: f64,
    pub model_new_s: f64,
    pub checkpoint_load_s: f64,
}

/// The cached inputs of one seed.
#[derive(Clone)]
pub struct Inputs {
    dir: PathBuf,
    seed: u64,
}

impl Inputs {
    /// Opens (creating on first use) the cache directory of `seed`.
    pub fn open(seed: u64) -> Inputs {
        let dir = Path::new(".bench_cache").join(format!("seed-{seed}"));
        std::fs::create_dir_all(&dir).expect("create the input cache directory");
        Inputs { dir, seed }
    }

    /// Path of the dataset CSV, generating it if absent.
    fn csv(&self, ds: Dataset) -> PathBuf {
        let path = self.dir.join(format!("{}.csv", ds.stem()));
        if !path.exists() {
            let data = ds.generate(self.seed);
            let mut text = Vec::new();
            dataio::write_csv(&data, &mut text).expect("encode the dataset CSV");
            write_atomic(&path, &text);
        }
        path
    }

    /// Paths of the model's config sidecar and weights, generating both
    /// if absent.
    fn checkpoint(&self, m: Model) -> (PathBuf, PathBuf) {
        let cfg_path = self.dir.join(format!("{}.config.json", m.stem()));
        let params_path = self.dir.join(format!("{}.params.json", m.stem()));
        if !cfg_path.exists() || !params_path.exists() {
            let cfg = m.config();
            let model = Sagdfn::new(m.nodes(), cfg.clone());
            let mut weights = Vec::new();
            sagdfn_nn::checkpoint::save(&model.params, &mut weights).expect("encode weights");
            write_atomic(&params_path, &weights);
            let text = cfg.to_json().to_string_pretty().expect("encode config");
            write_atomic(&cfg_path, text.as_bytes());
        }
        (cfg_path, params_path)
    }

    /// Reads a dataset CSV the way a user would, timing it.
    pub fn read_csv(&self, ds: Dataset, times: &mut LoadTimes) -> ForecastDataset {
        let path = self.csv(ds);
        let t = Instant::now();
        let file = std::fs::File::open(&path).expect("open dataset CSV");
        let data = dataio::read_csv(std::io::BufReader::new(file)).expect("parse dataset CSV");
        times.read_csv_s += t.elapsed().as_secs_f64();
        data
    }

    /// Builds a model from its config sidecar and loads its weights, the
    /// way `sagdfn evaluate`/`serve`/`stream` do, timing each part.
    pub fn load_model(&self, m: Model, times: &mut LoadTimes) -> Sagdfn {
        let (cfg_path, params_path) = self.checkpoint(m);
        let t = Instant::now();
        let text = std::fs::read_to_string(&cfg_path).expect("read model config");
        let cfg = Json::parse(&text)
            .and_then(|doc| SagdfnConfig::from_json(&doc))
            .expect("parse model config");
        let mut model = Sagdfn::new(m.nodes(), cfg);
        times.model_new_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let file = std::fs::File::open(&params_path).expect("open weights");
        sagdfn_nn::checkpoint::load(&mut model.params, std::io::BufReader::new(file))
            .expect("load weights");
        // The significant index is a function of the loaded embeddings.
        model.refresh_index();
        times.checkpoint_load_s += t.elapsed().as_secs_f64();
        model
    }
}

/// Writes through a temporary name so an interrupted run never leaves a
/// truncated input behind.
fn write_atomic(path: &Path, bytes: &[u8]) {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes).expect("write cached input");
    std::fs::rename(&tmp, path).expect("publish cached input");
}
