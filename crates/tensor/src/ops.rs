//! Elementwise and reduction kernels shared across the workspace.

/// Numerically-stable in-place softmax over one row on the active SIMD
/// backend (see [`crate::simd`]): one pass for the max, one that
/// exponentiates and sums, one scale pass. A row of all `-inf` (as a causal
/// mask can produce) becomes the uniform distribution, not `0/0 = NaN`.
pub fn softmax_row(row: &mut [f32]) {
    crate::simd::softmax_row_with(crate::simd::backend(), row);
}

/// In-place softmax over every `cols`-wide row of a row-major matrix.
pub fn softmax_rows(data: &mut [f32], cols: usize) {
    assert!(cols > 0 && data.len().is_multiple_of(cols));
    for row in data.chunks_mut(cols) {
        softmax_row(row);
    }
}

/// In-place log-softmax over one row (`x - logsumexp(x)`), the stable form
/// the cross-entropy and KL losses are built on. A fully-masked row (every
/// entry `-inf`) falls back to the uniform `-ln(n)`, mirroring
/// [`softmax_row`].
pub fn log_softmax_row(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        row.fill(-(row.len() as f32).ln());
        return;
    }
    let sum: f32 = row.iter().map(|&v| (v - max).exp()).sum();
    let lse = max + sum.ln();
    for v in row.iter_mut() {
        *v -= lse;
    }
}

/// In-place log-softmax over every `cols`-wide row of a row-major matrix.
pub fn log_softmax_rows(data: &mut [f32], cols: usize) {
    assert!(cols > 0 && data.len().is_multiple_of(cols));
    for row in data.chunks_mut(cols) {
        log_softmax_row(row);
    }
}

/// Index of the maximum element; ties break toward the lower index so that
/// greedy decoding is fully deterministic.
///
/// NaN entries compare false against everything, so a comparison-based scan
/// would silently skip them (and return 0 for an all-NaN row) — exactly the
/// failure mode that turns one bad logit into undetected garbage decoding.
/// Debug builds therefore reject NaN input outright. One scan, every tier.
pub fn argmax(row: &[f32]) -> usize {
    debug_assert!(
        row.iter().all(|v| !v.is_nan()),
        "argmax over a row containing NaN"
    );
    let (mut best, mut best_v) = (0, f32::NEG_INFINITY);
    for (i, &v) in row.iter().enumerate() {
        if v > best_v {
            (best, best_v) = (i, v);
        }
    }
    best
}

/// SiLU (swish) activation: `x * sigmoid(x)`.
#[inline]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// `a += b` elementwise.
pub fn add_assign(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (av, bv) in a.iter_mut().zip(b.iter()) {
        *av += *bv;
    }
}

/// Dot product (SIMD-dispatched; see [`crate::simd::dot_with`]).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    crate::simd::dot_with(crate::simd::backend(), a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Property sweep: softmax rows sum to 1 and stay in (0, 1] for random
    /// inputs including large magnitudes (stability check).
    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = Rng::new(0x50F7);
        for _ in 0..50 {
            let cols = 1 + rng.below(64);
            let rows = 1 + rng.below(8);
            let mut m: Vec<f32> = (0..rows * cols).map(|_| rng.uniform(-80.0, 80.0)).collect();
            softmax_rows(&mut m, cols);
            for row in m.chunks(cols) {
                let s: f32 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-4, "row sum {s}");
                assert!(row.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
            }
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = vec![1.0f32, 2.0, 3.0];
        let mut b = vec![1001.0f32, 1002.0, 1003.0];
        softmax_row(&mut a);
        softmax_row(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[0.5, 1.0, 1.0, 0.1]), 1);
        assert_eq!(argmax(&[f32::NEG_INFINITY, -1.0]), 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "NaN")]
    fn argmax_rejects_nan_in_debug() {
        argmax(&[0.1, f32::NAN, 0.3]);
    }

    #[test]
    fn softmax_all_neg_inf_is_uniform() {
        let mut row = vec![f32::NEG_INFINITY; 4];
        softmax_row(&mut row);
        for &v in &row {
            assert!((v - 0.25).abs() < 1e-7, "expected uniform, got {v}");
        }
    }

    #[test]
    fn log_softmax_matches_ln_of_softmax() {
        let mut rng = Rng::new(0x106);
        for _ in 0..20 {
            let n = 1 + rng.below(16);
            let base: Vec<f32> = (0..n).map(|_| rng.uniform(-50.0, 50.0)).collect();
            let mut p = base.clone();
            softmax_row(&mut p);
            let mut lp = base.clone();
            log_softmax_row(&mut lp);
            for (l, q) in lp.iter().zip(&p) {
                assert!((l.exp() - q).abs() < 1e-5, "exp(logsoftmax) != softmax");
            }
        }
    }

    #[test]
    fn log_softmax_all_neg_inf_is_uniform() {
        let mut row = vec![f32::NEG_INFINITY; 8];
        log_softmax_row(&mut row);
        for &v in &row {
            assert!((v + (8.0f32).ln()).abs() < 1e-6);
        }
    }

    #[test]
    fn silu_known_values() {
        assert!((silu(0.0)).abs() < 1e-7);
        assert!((silu(20.0) - 20.0).abs() < 1e-3); // saturates to identity
        assert!(silu(-20.0).abs() < 1e-3); // saturates to zero
    }
}
