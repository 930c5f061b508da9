//! Seeded input generation. Everything a workload feeds the program comes
//! from here and is a pure function of `--seed`; the program under test
//! never sees the seed itself.

use aasd_tensor::Rng;

/// `n` consecutive held-out sample indices starting at a seeded offset, so
/// every seed draws a different, duplicate-free set of scenes.
pub fn sample_indices(rng: &mut Rng, n: usize) -> Vec<u64> {
    let base = rng.next_u64() >> 24;
    (0..n as u64).map(|i| base + i).collect()
}

/// `n` draws from `choices`, each choice used equally often (to within
/// one), in seeded order. Balancing keeps the offered token load the same
/// for every seed; only its order varies.
pub fn balanced_choices(rng: &mut Rng, n: usize, choices: &[usize]) -> Vec<usize> {
    let mut out: Vec<usize> = (0..n).map(|i| choices[i % choices.len()]).collect();
    shuffle(rng, &mut out);
    out
}

/// `n` distinct image seeds.
pub fn image_seeds(rng: &mut Rng, n: usize) -> Vec<u64> {
    let base = rng.next_u64() >> 8;
    (0..n as u64).map(|i| base + i).collect()
}

/// `n` ranks in `0..pool` following Zipf(1) — rank `k` has weight
/// `1 / (k + 1)` — with every rank's count fixed to its expected share
/// (largest remainders make the counts sum to `n`) and only the order
/// seeded. The popularity skew, and with it the reachable hit share, is
/// then the same for every seed.
pub fn zipf_ranks(rng: &mut Rng, n: usize, pool: usize) -> Vec<usize> {
    let total: f64 = (1..=pool).map(|k| 1.0 / k as f64).sum();
    let share = |k: usize| n as f64 / (k + 1) as f64 / total;
    let mut counts: Vec<usize> = (0..pool).map(|k| share(k) as usize).collect();
    let mut by_remainder: Vec<usize> = (0..pool).collect();
    by_remainder.sort_by(|a, b| share(*b).fract().total_cmp(&share(*a).fract()));
    let missing = n - counts.iter().sum::<usize>();
    for &k in &by_remainder[..missing] {
        counts[k] += 1;
    }
    let mut out: Vec<usize> = (0..pool)
        .flat_map(|k| std::iter::repeat_n(k, counts[k]))
        .collect();
    shuffle(rng, &mut out);
    out
}

fn shuffle(rng: &mut Rng, xs: &mut [usize]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i + 1));
    }
}

/// Arrival times in nanoseconds of a Poisson process on `[0, window_ns)`
/// conditioned on exactly `n` arrivals: `n` independent uniform times,
/// sorted. The rate — and with it the offered load — is then the same for
/// every seed, while gaps stay exponential-like and bursts still occur.
pub fn poisson_arrivals_ns(rng: &mut Rng, n: usize, window_ns: u64) -> Vec<u64> {
    let mut due: Vec<u64> = (0..n)
        .map(|_| (unit(rng) * window_ns as f64) as u64)
        .collect();
    due.sort_unstable();
    due
}

/// Uniform in `[0, 1)` with 53 random bits.
fn unit(rng: &mut Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_repeats_per_seed_and_differs_across_seeds() {
        let a = poisson_arrivals_ns(&mut Rng::new(7), 500, 2_000_000_000);
        let b = poisson_arrivals_ns(&mut Rng::new(7), 500, 2_000_000_000);
        let c = poisson_arrivals_ns(&mut Rng::new(8), 500, 2_000_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 2_000_000_000);
        // Gaps of a Poisson process are far from regular: their spread is
        // about their mean (4 ms here).
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!(var.sqrt() > 0.7 * mean && var.sqrt() < 1.3 * mean);
    }

    #[test]
    fn balanced_choices_use_each_value_equally() {
        let draws = balanced_choices(&mut Rng::new(3), 90, &[8, 24, 48]);
        for c in [8, 24, 48] {
            assert_eq!(draws.iter().filter(|d| **d == c).count(), 30);
        }
        assert_ne!(draws, balanced_choices(&mut Rng::new(4), 90, &[8, 24, 48]));
    }

    #[test]
    fn zipf_counts_are_fixed_and_only_the_order_is_seeded() {
        let ranks = zipf_ranks(&mut Rng::new(5), 240, 16);
        assert_eq!(ranks.len(), 240);
        let count = |rs: &[usize], k: usize| rs.iter().filter(|r| **r == k).count();
        // Weight 1 : 1/2 : 1/4 for ranks 0, 1, 3; H(16) = 3.3807.
        assert_eq!(count(&ranks, 0), 71);
        assert!(count(&ranks, 1).abs_diff(35) <= 1);
        assert!(count(&ranks, 3).abs_diff(18) <= 1);
        assert!(count(&ranks, 15) >= 4);
        let other = zipf_ranks(&mut Rng::new(6), 240, 16);
        assert_ne!(ranks, other);
        for k in 0..16 {
            assert_eq!(count(&ranks, k), count(&other, k));
        }
    }

    #[test]
    fn sample_indices_are_distinct_and_seeded() {
        let a = sample_indices(&mut Rng::new(1), 48);
        assert_eq!(a, sample_indices(&mut Rng::new(1), 48));
        assert_ne!(a, sample_indices(&mut Rng::new(2), 48));
        let mut sorted = a.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 48);
    }
}
