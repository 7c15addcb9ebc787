//! Exact order statistics over raw samples.
//!
//! Percentiles are read off the sorted samples themselves (nearest rank),
//! never off histogram bucket edges, so a reported p99 is a latency some
//! request actually had.

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `q` of all samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples must be sorted");
    let n = sorted.len();
    Some(sorted[rank(n, q).clamp(1, n) - 1])
}

/// Sorts a copy of `values` and returns its nearest-rank percentile.
pub fn percentile_of(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, q)
}

/// The median: the middle sample, or the mean of the two middle samples
/// for an even count. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

/// Number of samples strictly above the nearest-rank `q` percentile: a
/// percentile is only quoted when at least ten samples lie beyond it.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q).min(n)
}

/// 1-based nearest rank of the `q` percentile among `n` samples. The small
/// slack keeps `0.99 * 1000` at rank 990 despite binary rounding.
fn rank(n: usize, q: f64) -> usize {
    (q.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_real_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), Some(50.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 0.991), Some(100.0));
    }

    #[test]
    fn percentile_of_small_and_empty_samples() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile_of(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(percentile_of(&[4.0, 3.0, 1.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn p99_of_a_thousand_samples_has_ten_beyond_it() {
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), Some(989.0));
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(990, 0.99), 9);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
