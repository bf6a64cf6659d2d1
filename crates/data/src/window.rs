//! Sliding-window datasets and batch construction.
//!
//! Follows the paper's protocol: the raw sequence is split 70 / 10 / 20
//! into train / validation / test, the z-score scaler is fit on the train
//! portion only, and each sample is a pair *(past `h` steps, future `f`
//! steps)*. Batches are materialized as
//!
//! * `x`: `(h, B, N, C)` — scaled value plus the two time covariates
//!   (`C = 3`), laid out time-major so recurrent models slice one step at
//!   a time;
//! * `y`: `(f, B, N)` — *raw* target values (metrics and the paper's L1
//!   loss are computed in the original units);
//! * `x_last_raw`: `(B, N)` — the observation at the forecast origin, the
//!   decoder's first input (Algorithm 2 line 10);
//! * `future_cov`: `(f, B, N, 2)` — known covariates of the target steps,
//!   fed to the decoder alongside its own predictions.

use crate::scaler::ZScore;
use crate::series::{Clock, ForecastDataset};
use sagdfn_tensor::{Rng64, Tensor};
use std::sync::Arc;

/// Windowing configuration.
#[derive(Clone, Copy, Debug)]
pub struct SplitSpec {
    /// History length `h` (model input steps).
    pub h: usize,
    /// Forecast horizon `f` (output steps).
    pub f: usize,
    /// Fraction of steps assigned to training (paper: 0.7).
    pub train_frac: f32,
    /// Fraction assigned to validation (paper: 0.1); the rest is test.
    pub val_frac: f32,
}

impl SplitSpec {
    /// The paper's 70/10/20 split with the given window lengths.
    pub fn paper(h: usize, f: usize) -> Self {
        SplitSpec {
            h,
            f,
            train_frac: 0.7,
            val_frac: 0.1,
        }
    }
}

/// Train / validation / test windowed views over one dataset, sharing a
/// scaler fit on the training portion.
pub struct ThreeWaySplit {
    /// Training windows.
    pub train: SlidingWindows,
    /// Validation windows.
    pub val: SlidingWindows,
    /// Test windows.
    pub test: SlidingWindows,
    /// Scaler fit on the train value range.
    pub scaler: ZScore,
}

impl ThreeWaySplit {
    /// Splits `data` per `spec`.
    ///
    /// # Panics
    /// Panics if any split is too short to hold a single window.
    pub fn new(data: ForecastDataset, spec: SplitSpec) -> Self {
        let t = data.steps();
        let window = spec.h + spec.f;
        assert!(
            t > window + 2,
            "dataset too short ({t} steps) for windows of {window}"
        );
        // Standard METR-LA protocol: enumerate every window start, then
        // split the *windows* 70/10/20 chronologically.
        let starts: Vec<usize> = (0..=t - window).collect();
        let n_windows = starts.len();
        let train_n = ((n_windows as f32 * spec.train_frac) as usize).max(1);
        let val_n = ((n_windows as f32 * spec.val_frac) as usize).max(1);
        assert!(
            train_n + val_n < n_windows,
            "dataset too short ({t} steps) for a 3-way split of {n_windows} windows"
        );
        // Scaler sees only values train windows can observe.
        let train_horizon = starts[train_n - 1] + window;
        let scaler = ZScore::fit(&data.values.slice_axis(0, 0, train_horizon));
        let data = Arc::new(data);
        let make = |range: &[usize]| SlidingWindows {
            data: Arc::clone(&data),
            scaler,
            h: spec.h,
            f: spec.f,
            starts: range.to_vec(),
        };
        ThreeWaySplit {
            train: make(&starts[..train_n]),
            val: make(&starts[train_n..train_n + val_n]),
            test: make(&starts[train_n + val_n..]),
            scaler,
        }
    }
}

/// One split's set of sliding windows over the shared dataset.
pub struct SlidingWindows {
    data: Arc<ForecastDataset>,
    scaler: ZScore,
    h: usize,
    f: usize,
    starts: Vec<usize>,
}

/// A materialized mini-batch (see module docs for layout).
pub struct Batch {
    /// Scaled inputs with covariates, `(h, B, N, 3)`.
    pub x: Tensor,
    /// Raw targets, `(f, B, N)`.
    pub y: Tensor,
    /// Raw observation at the forecast origin, `(B, N)`.
    pub x_last_raw: Tensor,
    /// Covariates of the target steps, `(f, B, N, 2)`.
    pub future_cov: Tensor,
}

impl Batch {
    /// An all-zero batch of `b` windows over `n` nodes, history `h` and
    /// horizon `f`, ready for [`Batch::encode_window`] to fill in place.
    pub fn zeros(h: usize, f: usize, b: usize, n: usize) -> Self {
        Batch {
            x: Tensor::zeros([h, b, n, 3]),
            y: Tensor::zeros([f, b, n]),
            x_last_raw: Tensor::zeros([b, n]),
            future_cov: Tensor::zeros([f, b, n, 2]),
        }
    }

    /// Re-dimensions the batch in place to `b` windows, reusing its
    /// buffers: `b` must not exceed the batch size it was built with.
    /// The layout is time-major, so existing columns do not survive;
    /// re-encode every column `0..b` before use.
    pub fn redim(&mut self, b: usize) {
        let (h, n, f) = (self.x.dim(0), self.x.dim(2), self.y.dim(0));
        self.x.redim([h, b, n, 3]);
        self.y.redim([f, b, n]);
        self.x_last_raw.redim([b, n]);
        self.future_cov.redim([f, b, n, 2]);
    }

    /// Encodes one raw window into batch column `bi`: the single model
    /// input encoding that training, serving and streaming share, so the
    /// three feed the model bit-identical inputs for the same window.
    ///
    /// `row(t)` yields the `N` raw values of window step `t`, whose
    /// absolute step on `clock` is `first_step + t`. Steps `0..h` are the
    /// history: `x` gets their `scaler`-normalized values plus time
    /// covariates and `x_last_raw` the raw row `h - 1`. `future_cov`
    /// gets the covariates of steps `h..h + f`; with `targets` set, `y`
    /// also gets their raw rows, otherwise `y` is left untouched.
    pub fn encode_window<'a>(
        &mut self,
        bi: usize,
        first_step: u64,
        clock: Clock,
        scaler: ZScore,
        row: impl Fn(usize) -> &'a [f32],
        targets: bool,
    ) {
        let (h, b, n) = (self.x.dim(0), self.x.dim(1), self.x.dim(2));
        let f = self.future_cov.dim(0);
        let x = self.x.as_mut_slice();
        for t in 0..h {
            let (tod, dow) = clock.covariates(first_step + t as u64);
            let base = (t * b + bi) * n;
            for (node, &v) in row(t)[..n].iter().enumerate() {
                let at = (base + node) * 3;
                x[at] = scaler.transform_scalar(v);
                x[at + 1] = tod;
                x[at + 2] = dow;
            }
        }
        self.x_last_raw.as_mut_slice()[bi * n..(bi + 1) * n].copy_from_slice(row(h - 1));
        let fut = self.future_cov.as_mut_slice();
        for t in 0..f {
            let (tod, dow) = clock.covariates(first_step + (h + t) as u64);
            let base = (t * b + bi) * n;
            for at in base..base + n {
                fut[at * 2] = tod;
                fut[at * 2 + 1] = dow;
            }
            if targets {
                self.y.as_mut_slice()[base..base + n].copy_from_slice(row(h + t));
            }
        }
    }
}

impl SlidingWindows {
    /// Number of available windows.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True when the split holds no complete window.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// History length `h`.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Horizon `f`.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Number of nodes `N`.
    pub fn nodes(&self) -> usize {
        self.data.nodes()
    }

    /// The shared scaler.
    pub fn scaler(&self) -> ZScore {
        self.scaler
    }

    /// Splits window ids into batches of `batch_size` (last batch may be
    /// short), optionally shuffling with `rng`.
    pub fn batch_ids(&self, batch_size: usize, rng: Option<&mut Rng64>) -> Vec<Vec<usize>> {
        assert!(batch_size > 0, "batch_size must be positive");
        let mut ids: Vec<usize> = (0..self.starts.len()).collect();
        if let Some(rng) = rng {
            rng.shuffle(&mut ids);
        }
        ids.chunks(batch_size).map(|c| c.to_vec()).collect()
    }

    /// Materializes the batch for the given window ids.
    pub fn make_batch(&self, window_ids: &[usize]) -> Batch {
        assert!(!window_ids.is_empty(), "empty batch");
        let n = self.data.nodes();
        let vals = self.data.values.as_slice();
        let clock = self.data.clock();
        let mut batch = Batch::zeros(self.h, self.f, window_ids.len(), n);
        for (bi, &wid) in window_ids.iter().enumerate() {
            let s = self.starts[wid];
            let row = |t: usize| &vals[(s + t) * n..(s + t + 1) * n];
            batch.encode_window(bi, s as u64, clock, self.scaler, row, true);
        }
        batch
    }

    /// Convenience: the full split as one batch (for small evaluations).
    pub fn full_batch(&self) -> Batch {
        let ids: Vec<usize> = (0..self.len()).collect();
        self.make_batch(&ids)
    }

    /// The underlying dataset (classical models fit on the raw series).
    pub fn dataset(&self) -> &ForecastDataset {
        &self.data
    }

    /// Window start steps, in order.
    pub fn starts(&self) -> &[usize] {
        &self.starts
    }

    /// Raw (unscaled) input and target of one window:
    /// `((h, N), (f, N))`.
    pub fn raw_window(&self, id: usize) -> (Tensor, Tensor) {
        let s = self.starts[id];
        (
            self.data.values.slice_axis(0, s, s + self.h),
            self.data
                .values
                .slice_axis(0, s + self.h, s + self.h + self.f),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(t: usize, n: usize) -> ForecastDataset {
        ForecastDataset::new(
            "test",
            Tensor::from_vec((0..t * n).map(|x| x as f32).collect(), [t, n]),
            5,
            0,
        )
    }

    #[test]
    fn split_counts_add_up() {
        let split = ThreeWaySplit::new(dataset(100, 2), SplitSpec::paper(6, 6));
        // train: starts 0..=58 (70-12), val: 70..=76-? etc. Just check
        // no overlap in *target* coverage and non-empty splits.
        assert!(!split.train.is_empty());
        assert!(!split.val.is_empty());
        assert!(!split.test.is_empty());
        assert!(split.train.len() > split.test.len());
    }

    #[test]
    fn scaler_fit_on_train_only() {
        // Values grow linearly, so a scaler fit on all data would have a
        // larger mean than one fit on the first 70%.
        let split = ThreeWaySplit::new(dataset(100, 1), SplitSpec::paper(4, 4));
        let all = ZScore::fit(&dataset(100, 1).values);
        assert!(split.scaler.mean < all.mean);
    }

    #[test]
    fn batch_shapes() {
        let split = ThreeWaySplit::new(dataset(200, 3), SplitSpec::paper(12, 12));
        let batch = split.train.make_batch(&[0, 1, 5]);
        assert_eq!(batch.x.dims(), &[12, 3, 3, 3]);
        assert_eq!(batch.y.dims(), &[12, 3, 3]);
        assert_eq!(batch.x_last_raw.dims(), &[3, 3]);
        assert_eq!(batch.future_cov.dims(), &[12, 3, 3, 2]);
    }

    #[test]
    fn batch_values_align_with_source() {
        let data = dataset(50, 2);
        let split = ThreeWaySplit::new(data.clone(), SplitSpec::paper(3, 2));
        let batch = split.train.make_batch(&[0]);
        // Window 0: input steps 0,1,2; target steps 3,4.
        // y[t=0, b=0, node=1] = value at step 3, node 1 = 3*2+1 = 7.
        assert_eq!(batch.y.at(&[0, 0, 1]), 7.0);
        assert_eq!(batch.y.at(&[1, 0, 0]), 8.0);
        // x_last_raw = raw value at step 2.
        assert_eq!(batch.x_last_raw.at(&[0, 0]), 4.0);
        // x channel 0 is the scaled value at that step.
        let expect = split.scaler.transform_scalar(4.0);
        assert!((batch.x.at(&[2, 0, 0, 0]) - expect).abs() < 1e-6);
    }

    #[test]
    fn covariates_populated() {
        let split = ThreeWaySplit::new(dataset(300, 1), SplitSpec::paper(4, 4));
        let batch = split.train.make_batch(&[10]);
        // time-of-day strictly increases within a same-day window.
        let tod0 = batch.x.at(&[0, 0, 0, 1]);
        let tod1 = batch.x.at(&[1, 0, 0, 1]);
        assert!(tod1 > tod0);
        // future covariates exist and are in [0, 1).
        let fc = batch.future_cov.at(&[0, 0, 0, 0]);
        assert!((0.0..1.0).contains(&fc));
    }

    #[test]
    fn encode_window_without_targets_matches_make_batch_and_leaves_y() {
        let data = dataset(60, 3);
        let split = ThreeWaySplit::new(data.clone(), SplitSpec::paper(4, 3));
        let ids = [2, 0, 7];
        let built = split.train.make_batch(&ids);
        let n = data.nodes();
        let vals = data.values.as_slice();
        let mut batch = Batch::zeros(4, 3, ids.len(), n);
        batch.y.as_mut_slice().fill(-1.0);
        for (bi, &wid) in ids.iter().enumerate() {
            let s = split.train.starts()[wid];
            let row = |t: usize| &vals[(s + t) * n..(s + t + 1) * n];
            batch.encode_window(bi, s as u64, data.clock(), split.scaler, row, false);
        }
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&batch.x), bits(&built.x));
        assert_eq!(bits(&batch.x_last_raw), bits(&built.x_last_raw));
        assert_eq!(bits(&batch.future_cov), bits(&built.future_cov));
        assert!(batch.y.as_slice().iter().all(|&v| v == -1.0));
    }

    #[test]
    fn batch_ids_cover_all_windows() {
        let split = ThreeWaySplit::new(dataset(100, 1), SplitSpec::paper(4, 4));
        let batches = split.train.batch_ids(7, None);
        let total: usize = batches.iter().map(|b| b.len()).sum();
        assert_eq!(total, split.train.len());
        let mut seen: Vec<usize> = batches.into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..split.train.len()).collect::<Vec<_>>());
    }

    #[test]
    fn shuffled_batches_are_permutation() {
        let split = ThreeWaySplit::new(dataset(100, 1), SplitSpec::paper(4, 4));
        let mut rng = Rng64::new(1);
        let batches = split.train.batch_ids(5, Some(&mut rng));
        let mut seen: Vec<usize> = batches.into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..split.train.len()).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "dataset too short")]
    fn too_short_dataset_panics() {
        ThreeWaySplit::new(dataset(10, 1), SplitSpec::paper(12, 12));
    }
}
