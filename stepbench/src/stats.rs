//! Order statistics over timing samples.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_TAIL_SAMPLES`] samples beyond it, so a tail
//! figure never rests on a handful of outliers.

/// Samples a reported percentile must have strictly above its rank.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Percentiles considered for the tail figure, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Nearest-rank percentile of an ascending-sorted, non-empty sample: the
/// smallest sample with at least `p`% of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`. The
/// tolerance keeps decimal percentiles such as 99.9 from rounding a whole
/// rank up (`0.999 · 10⁴` is not exact in binary).
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p).max(1))
}

/// Whether a sample of `n` may report its `p`-th percentile.
pub fn reportable(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_TAIL_SAMPLES
}

/// The highest percentile of [`TAIL_LADDER`] a sample of `n` may report.
pub fn highest_reportable(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| reportable(n, p))
}

/// Median of a non-empty sample (mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let s = sorted(values);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let min_samples_for = |p| (1..).find(|&n| reportable(n, p)).unwrap();
        assert_eq!(min_samples_for(90.0), 100);
        assert!(!reportable(99, 90.0));
        assert!(reportable(100, 90.0));
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(min_samples_for(99.0), 1000);
        assert_eq!(min_samples_for(50.0), 20);
    }

    #[test]
    fn highest_reportable_walks_the_ladder() {
        assert_eq!(highest_reportable(5), None);
        assert_eq!(highest_reportable(20), Some(50.0));
        assert_eq!(highest_reportable(150), Some(90.0));
        assert_eq!(highest_reportable(1000), Some(99.0));
        assert_eq!(highest_reportable(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
