//! Dense f32 matrix-multiply kernels: `C = A·B` with `A: m×k`, `B: k×n`,
//! `C: m×n`, all row-major.
//!
//! * [`matmul_naive_into`] — the textbook triple loop. It is the semantic
//!   reference the kernels are property-tested against. Never "optimize" it.
//! * [`matmul_blocked_into`] / [`matmul_blocked_acc_into`] — the multi-row
//!   kernel: a register tile of `C` (up to 6 rows × two SIMD vectors) stays
//!   in registers for the whole `k` loop, every `B` vector is loaded once
//!   per tile and shared by all its rows, `A` values are broadcast (see
//!   `simd::matmul_tile`). This is what verify, prefill, the vision tower
//!   and training run on.
//! * [`matmul_packed_into`] / [`matmul_packed_acc_into`] — the same tile
//!   over a `B` repacked once into tile-major panels
//!   ([`crate::pack_panels`]): a strip of `B` is one contiguous run instead
//!   of a cache line every `n·4` bytes. This is what frozen `Linear`
//!   weights run on, at every row count.
//! * [`vecmat_into`] / [`vecmat_acc_into`] — the one-row kernel over a
//!   row-major matrix: the per-row reference of the k-order contract.
//!
//! **k-order contract.** Every kernel here, the naive one included,
//! computes each output element as `acc = fma(a[i,kk], b[kk,j], acc)` for
//! `kk = 0, 1, 2, …` in that order, starting from `+0.0` (`_into`) or from
//! the value already in `C` (`_acc`): one fused multiply-add per term —
//! one rounding, never a separate multiply and add — never reassociated, no
//! term skipped. A fused multiply-add is correctly rounded on every tier
//! (`vfmadd` under AVX2 + FMA, `f32::mul_add` on the scalar tier), so the
//! tile shape, the SIMD width, the split of rows across tiles and the
//! layout `B` is stored in only decide *which* elements are computed
//! together and where their operands live: a row of a multi-row
//! product is bit-identical to [`vecmat_into`] on that row, on every
//! [`crate::Backend`] and in either layout — the property that lets a
//! speculative verify pass reproduce single-token decoding.

#[inline]
fn check_dims(a: &[f32], b: &[f32], c: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(b.len(), k * n, "B must be k×n");
    assert_eq!(c.len(), m * n, "C must be m×n");
}

/// Reference kernel: straightforward `i,j,k` loops with a strided walk down
/// each column of `B`. O(mkn) with no regard for locality; same k-order
/// contract as the tiled kernels, so it matches them bit for bit.
pub fn matmul_naive_into(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, c, m, k, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = a[i * k + kk].mul_add(b[kk * n + j], acc);
            }
            c[i * n + j] = acc;
        }
    }
}

/// The multi-row kernel: `C = A·B` on the register-tiled micro-kernel (see
/// the module docs for the tile and the k-order contract).
pub fn matmul_blocked_into(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    c.fill(0.0);
    matmul_blocked_acc_into(c, a, b, m, k, n);
}

/// Accumulating form: `C += A·B`, so a residual stream can serve directly
/// as the output (the residual-add is folded into the matmul instead of
/// being a separate pass).
pub fn matmul_blocked_acc_into(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    crate::simd::matmul_acc_with(crate::simd::backend(), c, a, b, m, k, n);
}

/// `C = A·B` with `B` in tile-major panels (`panels` is
/// [`crate::pack_panels`] of the `k × n` matrix): what a frozen weight runs
/// on at every row count. Same tile, same k-order contract, so the bits of
/// [`matmul_blocked_into`] and of [`vecmat_into`] row by row.
pub fn matmul_packed_into(c: &mut [f32], a: &[f32], panels: &[f32], m: usize, k: usize, n: usize) {
    c.fill(0.0);
    matmul_packed_acc_into(c, a, panels, m, k, n);
}

/// Accumulating form of [`matmul_packed_into`]: `C += A·B`.
pub fn matmul_packed_acc_into(
    c: &mut [f32],
    a: &[f32],
    panels: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    crate::simd::matmul_packed_acc_with(crate::simd::backend(), c, a, panels, m, k, n);
}

/// Row-vector–matrix product `y = x·W` (`x: k`, `W: k×n` row-major). The
/// product is a sum of scaled rows of `W`, so the kernel is a
/// 4-way-unrolled sweep of fused multiply-adds (SIMD-dispatched across the
/// output dimension; see [`crate::simd`]): four weight rows stream per
/// pass, quartering the load/store traffic on `y`. Accumulation over `kk`
/// is the multi-row kernel's (the module's k-order contract: one `fma` per
/// term, `kk` ascending) on every backend, so it is the reference every row
/// of a multi-row product — row-major or packed — is pinned to, bit for
/// bit. `Linear` runs the tile, not this, at every row count.
pub fn vecmat_into(y: &mut [f32], x: &[f32], w: &[f32], k: usize, n: usize) {
    y.fill(0.0);
    vecmat_acc_into(y, x, w, k, n);
}

/// Accumulating variant: `y += x·W`. Writing the residual stream directly
/// as `y` folds the residual-add into the projection (no separate pass).
pub fn vecmat_acc_into(y: &mut [f32], x: &[f32], w: &[f32], k: usize, n: usize) {
    crate::simd::vecmat_acc_into_with(crate::simd::backend(), y, x, w, k, n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn random_mat(rng: &mut Rng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()
    }

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    /// Property sweep (proptest stand-in): over many seeded random shapes,
    /// the blocked kernel must match the naive reference.
    #[test]
    fn blocked_matches_naive_on_random_shapes() {
        let mut rng = Rng::new(0xA5D);
        for _case in 0..60 {
            let m = 1 + rng.below(48);
            let k = 1 + rng.below(48);
            let n = 1 + rng.below(48);
            let a = random_mat(&mut rng, m * k);
            let b = random_mat(&mut rng, k * n);
            let mut c_ref = vec![0.0; m * n];
            let mut c_blk = vec![0.0; m * n];
            matmul_naive_into(&mut c_ref, &a, &b, m, k, n);
            matmul_blocked_into(&mut c_blk, &a, &b, m, k, n);
            assert!(
                max_abs_diff(&c_ref, &c_blk) < 1e-4 * k as f32,
                "blocked diverged at m={m} k={k} n={n}"
            );
        }
    }

    /// Shapes straddling the tile boundaries (6 rows × 8 or 16 columns) —
    /// the off-by-one minefield.
    #[test]
    fn tile_boundary_shapes() {
        let mut rng = Rng::new(99);
        for &(m, k, n) in &[
            (1, 1, 1),
            (6, 64, 16),
            (7, 65, 17),
            (5, 63, 15),
            (67, 133, 33),
            (1, 130, 65),
            (65, 1, 130),
        ] {
            let a = random_mat(&mut rng, m * k);
            let b = random_mat(&mut rng, k * n);
            let mut c_ref = vec![0.0; m * n];
            let mut c_blk = vec![0.0; m * n];
            matmul_naive_into(&mut c_ref, &a, &b, m, k, n);
            matmul_blocked_into(&mut c_blk, &a, &b, m, k, n);
            assert!(
                max_abs_diff(&c_ref, &c_blk) < 1e-3,
                "mismatch at m={m} k={k} n={n}"
            );
        }
    }

    /// A square product of 2²¹ multiply-adds, the size training's
    /// `Tensor::matmul` reaches, matches the reference bit for bit (one
    /// fused multiply-add per term, k ascending, on both).
    #[test]
    fn blocked_large_matches_naive() {
        let mut rng = Rng::new(7);
        let (m, k, n) = (128, 128, 128);
        let a = random_mat(&mut rng, m * k);
        let b = random_mat(&mut rng, k * n);
        let mut c_ref = vec![0.0; m * n];
        let mut c_blk = vec![0.0; m * n];
        matmul_naive_into(&mut c_ref, &a, &b, m, k, n);
        matmul_blocked_into(&mut c_blk, &a, &b, m, k, n);
        assert_eq!(c_ref, c_blk);
    }

    /// The unrolled t = 1 fast path must agree **bitwise** with the blocked
    /// kernel it replaces (both accumulate over k in the same order), so
    /// switching a Linear between the two paths cannot move any logit.
    #[test]
    fn vecmat_is_bitwise_equal_to_blocked() {
        let mut rng = Rng::new(0x7EC);
        for &(k, n) in &[(1, 1), (3, 5), (4, 8), (7, 33), (64, 64), (130, 65)] {
            let x = random_mat(&mut rng, k);
            let w = random_mat(&mut rng, k * n);
            let mut y = vec![0.0; n];
            let mut y_blk = vec![0.0; n];
            vecmat_into(&mut y, &x, &w, k, n);
            matmul_blocked_into(&mut y_blk, &x, &w, 1, k, n);
            assert_eq!(y, y_blk, "vecmat diverged at k={k} n={n}");
        }
    }

    /// Accumulating vecmat: starting from a non-zero y must equal the
    /// separate product-then-add sequence (residual-fold correctness).
    #[test]
    fn vecmat_acc_folds_residual() {
        let mut rng = Rng::new(0x7EC2);
        let (k, n) = (37, 53);
        let x = random_mat(&mut rng, k);
        let w = random_mat(&mut rng, k * n);
        let resid = random_mat(&mut rng, n);
        let mut y = resid.clone();
        vecmat_acc_into(&mut y, &x, &w, k, n);
        let mut prod = vec![0.0; n];
        vecmat_into(&mut prod, &x, &w, k, n);
        let manual: Vec<f32> = resid.iter().zip(&prod).map(|(r, p)| r + p).collect();
        // Not bitwise: folding reassociates (resid + Σ) vs Σ-then-add.
        assert!(max_abs_diff(&y, &manual) < 1e-5);
    }

    /// `matmul_blocked_acc_into` is the blocked kernel minus the zero-fill.
    #[test]
    fn blocked_acc_adds_onto_existing_c() {
        let mut rng = Rng::new(0x7EC3);
        let (m, k, n) = (5, 40, 9);
        let a = random_mat(&mut rng, m * k);
        let b = random_mat(&mut rng, k * n);
        let base = random_mat(&mut rng, m * n);
        let mut c = base.clone();
        matmul_blocked_acc_into(&mut c, &a, &b, m, k, n);
        let mut prod = vec![0.0; m * n];
        matmul_blocked_into(&mut prod, &a, &b, m, k, n);
        for ((cv, bv), pv) in c.iter().zip(&base).zip(&prod) {
            assert!((cv - (bv + pv)).abs() < 1e-4);
        }
    }
}
