//! Order statistics for benchmark samples.

/// Sorted copy of `xs`; NaNs are a caller bug.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// Median of `xs` (mean of the two middle values for even counts), or
/// `None` when there are no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by the "exclusive" method
/// of Python's `statistics.quantiles(xs, n=4)`, which is how benchmark
/// spreads are judged. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median.
pub fn iqr_frac(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// A tail percentile together with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank value, present only when at least
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub value: Option<f64>,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked strictly above the reported rank.
    pub beyond: usize,
}

/// Samples a tail percentile needs above it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1]`) of `xs`, reported only when
/// the sample supports it: at least ten samples must rank above it.
pub fn percentile(xs: &[f64], p: f64) -> Percentile {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return Percentile {
            value: None,
            samples: 0,
            beyond: 0,
        };
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    Percentile {
        value: (beyond >= MIN_BEYOND).then(|| v[rank - 1]),
        samples: n,
        beyond,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_frac_is_spread_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(iqr_frac(&xs), Some((8.25 - 2.75) / 5.5));
        assert_eq!(iqr_frac(&[7.0; 6]), Some(0.0));
        assert_eq!(iqr_frac(&[0.0, 0.0]), None);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 199 samples: rank ceil(0.95 * 199) = 190, 9 beyond — withheld.
        let short: Vec<f64> = (1..=199).map(f64::from).collect();
        let p = percentile(&short, 0.95);
        assert_eq!((p.value, p.samples, p.beyond), (None, 199, 9));
        // 200 samples: rank 190, exactly 10 beyond — reported.
        let long: Vec<f64> = (1..=200).map(f64::from).collect();
        let p = percentile(&long, 0.95);
        assert_eq!((p.value, p.samples, p.beyond), (Some(190.0), 200, 10));
    }

    #[test]
    fn p50_and_empty_input() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5).value, Some(20.0));
        let none = percentile(&[], 0.95);
        assert_eq!((none.value, none.samples, none.beyond), (None, 0, 0));
    }
}
