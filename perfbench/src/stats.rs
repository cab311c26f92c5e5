//! Order statistics for latency samples.
//!
//! Tail percentiles follow one rule: report the requested percentile only
//! when at least ten samples lie beyond it; otherwise report the highest
//! percentile that has ten samples beyond it (never below the median).
//! A tail read from fewer samples moves with single outliers.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A percentile actually reported: the requested one or a lower one the
/// sample supports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile the value sits at, in `(0, 100]`.
    pub percentile: f64,
    /// The sample value at that rank.
    pub value: f64,
    /// Samples strictly beyond that rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `sorted`, capped so
/// that at least [`TAIL_BEYOND`] samples lie beyond the chosen rank. The
/// cap never goes below the median rank. `None` for an empty sample.
pub fn tail(sorted: &[f64], p: f64) -> Option<Tail> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let wanted = (p * n as f64 / 100.0).ceil().max(1.0) as usize;
    let median_rank = n.div_ceil(2);
    let rank = wanted.min(n.saturating_sub(TAIL_BEYOND)).max(median_rank);
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        beyond: n - rank,
    })
}

/// Median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Sort a sample in place and return it (for [`tail`]).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn requested_percentile_when_the_sample_supports_it() {
        // 1000 samples: p99 is rank 990, with exactly 10 beyond.
        let t = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!((t.value, t.beyond), (990.0, 10));
        assert_eq!(t.percentile, 99.0);
        // 2000 samples: p99 is rank 1980, 20 beyond.
        let t = tail(&ramp(2000), 99.0).unwrap();
        assert_eq!((t.value, t.beyond), (1980.0, 20));
    }

    #[test]
    fn small_samples_fall_back_to_ten_beyond() {
        // 500 samples cannot support p99 (5 beyond): rank 490 = p98.
        let t = tail(&ramp(500), 99.0).unwrap();
        assert_eq!((t.value, t.beyond), (490.0, 10));
        assert_eq!(t.percentile, 98.0);
        // 100 samples support p90 exactly.
        let t = tail(&ramp(100), 90.0).unwrap();
        assert_eq!((t.value, t.beyond), (90.0, 10));
        // 60 samples: p90 would leave 6 beyond; rank 50.
        let t = tail(&ramp(60), 90.0).unwrap();
        assert_eq!((t.value, t.beyond), (50.0, 10));
    }

    #[test]
    fn never_below_the_median() {
        // 12 samples: ten beyond would be rank 2; the median rank 6 wins.
        let t = tail(&ramp(12), 99.0).unwrap();
        assert_eq!((t.value, t.beyond), (6.0, 6));
        let t = tail(&ramp(1), 99.0).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 0));
        assert!(tail(&[], 50.0).is_none());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
