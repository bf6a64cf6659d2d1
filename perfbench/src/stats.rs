//! Order statistics over latency samples.

/// Sorted copy of `xs` (total order; NaN sorts last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The highest percentile of `xs` that still has at least ten samples
/// beyond it: the value at sorted rank `n - 11`, reported with the
/// percentile it sits at and the sample count. With fewer than eleven
/// samples there is no such percentile and the maximum is returned at
/// 100 %.
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

pub fn tail(xs: &[f64]) -> Tail {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 100.0,
            samples: 0,
        };
    }
    if n < 11 {
        return Tail {
            value: v[n - 1],
            percentile: 100.0,
            samples: n,
        };
    }
    let rank = n - 11;
    Tail {
        value: v[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(t.samples, 100);
        assert!((t.percentile - 90.0).abs() < 1e-9);
        assert_eq!(tail(&[1.0, 5.0]).value, 5.0);
    }
}
