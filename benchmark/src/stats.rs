//! Order statistics used by every workload.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller holds at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The `p`-th percentile (nearest-rank on the sorted sample).
pub fn percentile(xs: &[f64], p: usize) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = (p * v.len()).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// Interquartile mean: the mean of the samples between the first and third
/// quartile (the lowest and highest quarter of the sorted sample dropped).
/// Where a latency distribution has separate modes — vision-cache hit or
/// miss, short or long output — the median can sit in the sparse gap
/// between two of them and jump with a handful of requests; this moves
/// smoothly, and the tail cannot reach it.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "interquartile mean of no samples");
    let drop = v.len() / 4;
    let mid = &v[drop..v.len() - drop];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// The highest percentile of {50, 90, 99} that still has at least ten
/// samples beyond it in a sample of `n` — the tail a sample of that size
/// supports.
pub fn highest_supported_percentile(n: usize) -> usize {
    [99usize, 90]
        .into_iter()
        .find(|p| n * (100 - p) / 100 >= 10)
        .unwrap_or(50)
}

/// Element-wise minimum across rounds: `rounds[r][i]` is item `i`'s value
/// in round `r`.
pub fn min_across_rounds(rounds: &[&[f64]]) -> Vec<f64> {
    let n = rounds[0].len();
    assert!(rounds.iter().all(|r| r.len() == n), "ragged rounds");
    (0..n)
        .map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&xs, 90), 90.0);
        assert_eq!(percentile(&xs, 99), 99.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    /// The rule from the metrics guide: report the highest percentile with
    /// at least ten samples beyond it.
    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), 50);
        assert_eq!(highest_supported_percentile(99), 50);
        assert_eq!(highest_supported_percentile(100), 90);
        assert_eq!(highest_supported_percentile(999), 90);
        assert_eq!(highest_supported_percentile(1000), 99);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_at_each_end() {
        // Sorted: 1 2 | 3 4 5 6 | 7 800 → mean of the middle four.
        let xs = [800.0, 3.0, 1.0, 5.0, 7.0, 2.0, 6.0, 4.0];
        assert_eq!(interquartile_mean(&xs), 4.5);
        // Fewer than four samples: nothing to drop.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn per_item_minimum_ignores_slow_rounds() {
        // Item 0 is slow in three rounds of five, item 1 in one.
        let rounds: [&[f64]; 5] = [
            &[9.0, 2.0],
            &[1.0, 2.5],
            &[8.0, 40.0],
            &[1.5, 2.2],
            &[9.5, 2.1],
        ];
        assert_eq!(min_across_rounds(&rounds), vec![1.0, 2.0]);
    }
}
