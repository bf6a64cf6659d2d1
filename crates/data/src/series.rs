//! The in-memory dataset container.

use sagdfn_tensor::Tensor;

/// Minutes per day / per week: the periods of the time covariates the
/// paper's Definition 3 mentions (time of day, day of week).
const MIN_PER_DAY: u64 = 24 * 60;
const MIN_PER_WEEK: u64 = 7 * MIN_PER_DAY;

/// The step clock of a fixed-interval series: maps an absolute step
/// index to its minute of week and its time covariates. Training,
/// serving and streaming all read covariates through it, so the three
/// agree bit for bit on every step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Clock {
    interval_min: u32,
    start_minute_of_week: u32,
}

impl Clock {
    /// A clock ticking every `interval_min` minutes whose step 0 falls on
    /// `start_minute_of_week` (0 = Monday 00:00; reduced modulo a week).
    pub fn new(interval_min: u32, start_minute_of_week: u32) -> Self {
        assert!(interval_min > 0, "interval must be positive");
        Clock {
            interval_min,
            start_minute_of_week: (u64::from(start_minute_of_week) % MIN_PER_WEEK) as u32,
        }
    }

    /// Minute of week of step `step`. Exact for every `u64` step: the
    /// step is reduced modulo a week first, so the product cannot
    /// overflow.
    pub fn minute_of_week(&self, step: u64) -> u32 {
        let minutes = (step % MIN_PER_WEEK) * u64::from(self.interval_min)
            + u64::from(self.start_minute_of_week);
        (minutes % MIN_PER_WEEK) as u32
    }

    /// `(time of day, day of week)` of step `step`, each in `[0, 1)`
    /// (Monday = 0).
    pub fn covariates(&self, step: u64) -> (f32, f32) {
        let minute = u64::from(self.minute_of_week(step));
        let tod = (minute % MIN_PER_DAY) as f32 / MIN_PER_DAY as f32;
        let dow = (minute / MIN_PER_DAY) as f32 / 7.0;
        (tod, dow)
    }
}

/// A complete multivariate time series: `T` steps × `N` nodes of scalar
/// observations recorded at a fixed interval, plus the wall-clock anchor
/// needed to compute time covariates.
#[derive(Clone, Debug)]
pub struct ForecastDataset {
    /// Dataset name for reporting (e.g. "metr-la-like").
    pub name: String,
    /// Observations, `(T, N)`.
    pub values: Tensor,
    /// Recording interval in minutes (5 for METR-LA-like, 60 for city-like).
    pub interval_min: u32,
    /// Minute-of-week of the first observation (0 = Monday 00:00).
    pub start_minute_of_week: u32,
}

impl ForecastDataset {
    /// Builds a dataset, checking the value tensor is `(T, N)`.
    pub fn new(
        name: impl Into<String>,
        values: Tensor,
        interval_min: u32,
        start_minute_of_week: u32,
    ) -> Self {
        assert_eq!(values.rank(), 2, "values must be (T, N)");
        ForecastDataset {
            name: name.into(),
            values,
            interval_min,
            start_minute_of_week: Clock::new(interval_min, start_minute_of_week).minute_of_week(0),
        }
    }

    /// Number of time steps `T`.
    pub fn steps(&self) -> usize {
        self.values.dim(0)
    }

    /// Number of nodes `N`.
    pub fn nodes(&self) -> usize {
        self.values.dim(1)
    }

    /// The step clock anchored at this dataset's first observation.
    pub fn clock(&self) -> Clock {
        Clock::new(self.interval_min, self.start_minute_of_week)
    }

    /// Restricts the dataset to the first `n` nodes — how the paper builds
    /// the London200 evaluation subset out of London2000 (Table IV).
    pub fn subset_nodes(&self, n: usize) -> ForecastDataset {
        assert!(n <= self.nodes(), "subset larger than dataset");
        let idx: Vec<usize> = (0..n).collect();
        ForecastDataset {
            name: format!("{}[0..{n}]", self.name),
            values: self.values.index_select(1, &idx),
            interval_min: self.interval_min,
            start_minute_of_week: self.start_minute_of_week,
        }
    }

    /// Restricts to a time range `[start, end)` of steps.
    pub fn subset_steps(&self, start: usize, end: usize) -> ForecastDataset {
        ForecastDataset {
            name: self.name.clone(),
            values: self.values.slice_axis(0, start, end),
            interval_min: self.interval_min,
            start_minute_of_week: self.clock().minute_of_week(start as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds(t: usize, n: usize, interval: u32) -> ForecastDataset {
        ForecastDataset::new(
            "test",
            Tensor::from_vec((0..t * n).map(|x| x as f32).collect(), [t, n]),
            interval,
            0,
        )
    }

    #[test]
    fn dims() {
        let d = ds(10, 3, 5);
        assert_eq!(d.steps(), 10);
        assert_eq!(d.nodes(), 3);
    }

    #[test]
    fn time_of_day_wraps_daily() {
        let c = Clock::new(5, 0); // 5-minute steps: 288 per day
        assert_eq!(c.covariates(0).0, 0.0);
        assert!((c.covariates(144).0 - 0.5).abs() < 1e-6); // noon
        assert_eq!(c.covariates(288).0, 0.0); // next midnight
    }

    #[test]
    fn day_of_week_advances() {
        let c = Clock::new(60, 0); // hourly steps
        assert_eq!(c.covariates(0).1, 0.0);
        assert!((c.covariates(24).1 - 1.0 / 7.0).abs() < 1e-6);
        assert_eq!(c.covariates(24 * 7).1, 0.0); // wraps after a week
    }

    #[test]
    fn start_offset_respected() {
        // Start on Tuesday 06:00 = (1 day + 6 h) * 60 min.
        let d = ForecastDataset::new("t", Tensor::zeros([10, 1]), 60, 30 * 60);
        let (tod, dow) = d.clock().covariates(0);
        assert!((tod - 0.25).abs() < 1e-6);
        assert!((dow - 1.0 / 7.0).abs() < 1e-6);
    }

    #[test]
    fn clock_is_exact_for_every_u64_step() {
        // Reference: the unreduced minute count in u128, which cannot
        // overflow for any u64 step and u32 interval.
        let steps = [0, (1u64 << 32) - 1, 1 << 32, 858_993_460, u64::MAX];
        for (interval, anchor) in [(5u32, 0u32), (5, 10_079), (60, 1_234), (u32::MAX, 7)] {
            let c = Clock::new(interval, anchor);
            for step in steps {
                let minutes = u128::from(anchor) + u128::from(step) * u128::from(interval);
                let minute = (minutes % u128::from(MIN_PER_WEEK)) as u64;
                assert_eq!(u64::from(c.minute_of_week(step)), minute, "step {step}");
                let tod = (minute % MIN_PER_DAY) as f32 / MIN_PER_DAY as f32;
                let dow = (minute / MIN_PER_DAY) as f32 / 7.0;
                assert_eq!(c.covariates(step), (tod, dow), "step {step}");
            }
        }
    }

    #[test]
    fn subset_nodes_takes_prefix() {
        let d = ds(2, 4, 5);
        let s = d.subset_nodes(2);
        assert_eq!(s.nodes(), 2);
        assert_eq!(s.values.as_slice(), &[0., 1., 4., 5.]);
    }

    #[test]
    fn subset_steps_shifts_clock() {
        let d = ds(48, 1, 60);
        let s = d.subset_steps(24, 48);
        assert_eq!(s.steps(), 24);
        assert!((s.clock().covariates(0).1 - 1.0 / 7.0).abs() < 1e-6);
    }
}
