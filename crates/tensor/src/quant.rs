//! Int8 weight-only quantization for the memory-bound decode path.
//!
//! Decode-time linears stream their whole weight matrix per token, so the
//! win from int8 is bandwidth: 4× fewer weight bytes per step. The scheme
//! is per-output-column absmax: each output `j` of a `[k_in, n_out]` weight
//! is stored as `i8` codes plus one f32 scale `s_j = absmax_j / 127`, and
//!
//! ```text
//! y[i,j] = s_x[i] · s_j · Σ_k qx[i,k] · qw[k,j]      (i32 accumulation, exact)
//! ```
//!
//! The codes live in **int8 panels** — 16 outputs × 4 consecutive `k` per
//! 64-byte group, `[n/16][k/4][16][4]`, zero-padded — the operand layout of
//! the one int8 kernel, the register tile behind [`matmul_q8_into`]: up to
//! six activation rows share every weight load, at every row count (one row
//! included). Because the i32 accumulation is exact, the tile's shape, its
//! `k` order and the tier's lane width cannot change a result: every call is
//! bit-identical to a scalar `Σ qx·qw` loop per output, which is what the
//! tests hold it to.
//!
//! Activations are quantized per call, one scale per row, with the same
//! absmax rule. The quantizer dispatches like every other kernel, but all
//! tiers produce bit-identical codes and scale (absmax is exactly
//! associative and the SIMD path reproduces `f32::round` exactly), so the
//! i8 inputs — and therefore the i32 dots — are identical across dispatch
//! tiers. Codes are clamped to `[-127, 127]`, never `-128`: the AVX2 tile's
//! byte multiply relies on it.
//!
//! Error model: per-column absmax quantization bounds the weight error by
//! `|w - ŵ| ≤ s_j/2 = absmax_j/254` elementwise, so a logit over `k` inputs
//! drifts by at most `Σ|x_k|·s_j/2` plus the activation-rounding term —
//! measured end-to-end in the repo-root `int8_equivalence` test and
//! reported in `EXPERIMENTS.md`.

use crate::simd::{self, Backend};

/// A quantized `k × n` weight (`k` inputs, `n` outputs): i8 codes in the
/// int8 panel layout (see the module docs), one scale per output.
#[derive(Debug, Clone)]
pub struct QuantMatrix {
    panels: Vec<i8>,
    scales: Vec<f32>,
    k: usize,
    n: usize,
}

impl QuantMatrix {
    /// Quantize an output-major `[n, k]` matrix (row `j` = the weights of
    /// output `j`), one absmax scale per row.
    pub fn from_row_major(w: &[f32], n: usize, k: usize) -> Self {
        assert_eq!(w.len(), n * k, "weight shape mismatch");
        let mut panels = vec![0i8; simd::q8_panels_len(k, n)];
        let mut scales = vec![0.0f32; n];
        let mut codes = vec![0i8; k];
        for (j, (w_row, scale)) in w.chunks_exact(k.max(1)).zip(&mut scales).enumerate() {
            *scale = quantize_row_i8(w_row, &mut codes);
            for (kk, &q) in codes.iter().enumerate() {
                panels[simd::q8_panel_index(k, kk, j)] = q;
            }
        }
        Self {
            panels,
            scales,
            k,
            n,
        }
    }

    /// Quantize a `Linear`-layout `[k_in, n_out]` (input-major) weight, one
    /// scale per output column.
    pub fn from_kxn(w: &[f32], k: usize, n: usize) -> Self {
        assert_eq!(w.len(), k * n, "weight shape mismatch");
        let mut t = vec![0.0f32; k * n];
        for i in 0..k {
            for (j, tv) in t.iter_mut().skip(i).step_by(k).enumerate() {
                *tv = w[i * n + j];
            }
        }
        Self::from_row_major(&t, n, k)
    }

    /// Input features (`k_in`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output features (`n_out`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The code of input `kk` for output `j`.
    fn code(&self, kk: usize, j: usize) -> i8 {
        assert!(kk < self.k && j < self.n);
        self.panels[simd::q8_panel_index(self.k, kk, j)]
    }

    /// Bytes one product streams: the padded code panels plus the scales.
    pub fn bytes(&self) -> usize {
        self.panels.len() + 4 * self.scales.len()
    }

    /// Reconstruct the output-major `[n, k]` f32 matrix (tests/diagnostics).
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.n * self.k];
        for (j, row) in out.chunks_exact_mut(self.k.max(1)).enumerate() {
            for (kk, o) in row.iter_mut().enumerate() {
                *o = self.code(kk, j) as f32 * self.scales[j];
            }
        }
        out
    }
}

/// Quantize one row with the absmax rule: returns the scale `absmax / 127`
/// (0.0 for an all-zero row) and writes codes in `[-127, 127]`. Dispatches
/// on the active backend, but every tier produces **identical codes and
/// scale** (see [`simd::quantize_row_i8_with`]), which keeps the exact-i32
/// contract across dispatch tiers.
pub fn quantize_row_i8(x: &[f32], q: &mut [i8]) -> f32 {
    simd::quantize_row_i8_with(simd::backend(), x, q)
}

/// [`quantize_row_i8`] over `scales.len()` rows of `k` floats: row `i`'s
/// codes land in `q[i·k..][..k]` and its scale in `scales[i]` — the operand
/// the int8 tile takes.
pub fn quantize_rows_i8(x: &[f32], k: usize, q: &mut [i8], scales: &mut [f32]) {
    assert_eq!(x.len(), scales.len() * k, "input must be rows×k");
    assert_eq!(q.len(), x.len(), "one code per input");
    let rows = x.chunks_exact(k.max(1)).zip(q.chunks_exact_mut(k.max(1)));
    for ((x_row, q_row), scale) in rows.zip(scales) {
        *scale = quantize_row_i8(x_row, q_row);
    }
}

/// `C = Â·Ŵ` from pre-quantized activations: `qa` holds `m` rows of `w.k()`
/// i8 codes and `sa` one scale per row. The int8 register tile at every
/// `m`; dispatches on the active backend.
pub fn matmul_q8_into(c: &mut [f32], qa: &[i8], sa: &[f32], w: &QuantMatrix, m: usize) {
    matmul_q8_into_with(simd::backend(), c, qa, sa, w, m);
}

/// Accumulating variant: `C += Â·Ŵ` (residual-fold, mirroring
/// [`crate::matmul_packed_acc_into`]).
pub fn matmul_q8_acc_into(c: &mut [f32], qa: &[i8], sa: &[f32], w: &QuantMatrix, m: usize) {
    matmul_q8_acc_into_with(simd::backend(), c, qa, sa, w, m);
}

/// [`matmul_q8_into`] through an explicit backend.
pub fn matmul_q8_into_with(
    bk: Backend,
    c: &mut [f32],
    qa: &[i8],
    sa: &[f32],
    w: &QuantMatrix,
    m: usize,
) {
    c.fill(0.0);
    matmul_q8_acc_into_with(bk, c, qa, sa, w, m);
}

/// [`matmul_q8_acc_into`] through an explicit backend. The i32 dots are
/// exact and the final scale applies the identical f32 ops on every tier,
/// so all backends agree bit-for-bit, and a row has the same bits in a
/// block of any size.
pub fn matmul_q8_acc_into_with(
    bk: Backend,
    c: &mut [f32],
    qa: &[i8],
    sa: &[f32],
    w: &QuantMatrix,
    m: usize,
) {
    simd::matmul_q8_acc_with(bk, c, qa, sa, &w.panels, &w.scales, m, w.k, w.n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::vecmat_into;

    fn supported() -> Vec<Backend> {
        Backend::ALL
            .iter()
            .copied()
            .filter(|b| b.is_supported())
            .collect()
    }

    const TAIL_DIMS: [usize; 22] = [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 33, 63, 64, 65,
    ];

    fn random(rng: &mut Rng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()
    }

    /// `m` rows of `k` floats → their codes and per-row scales.
    fn quantize_rows(x: &[f32], m: usize, k: usize) -> (Vec<i8>, Vec<f32>) {
        let (mut qa, mut sa) = (vec![0i8; m * k], vec![0.0f32; m]);
        quantize_rows_i8(x, k, &mut qa, &mut sa);
        (qa, sa)
    }

    /// Per-row absmax bound: every reconstructed weight is within half a
    /// quantization step of the original.
    #[test]
    fn roundtrip_error_within_half_step() {
        let mut rng = Rng::new(0x0_8_1);
        let (rows, cols) = (13, 57);
        let w: Vec<f32> = (0..rows * cols).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let qm = QuantMatrix::from_row_major(&w, rows, cols);
        let deq = qm.dequantize();
        for r in 0..rows {
            let bound = qm.scales[r] * 0.5 + 1e-7;
            for (a, b) in w[r * cols..(r + 1) * cols]
                .iter()
                .zip(&deq[r * cols..(r + 1) * cols])
            {
                assert!((a - b).abs() <= bound, "row {r}: |{a} - {b}| > {bound}");
            }
        }
    }

    /// The quantizer's cross-tier contract: identical codes AND scale on
    /// every backend, including tail widths, negative-heavy rows, and values
    /// that land exactly on the .5 rounding boundary.
    #[test]
    fn quantize_codes_identical_across_backends() {
        let mut rng = Rng::new(0x0_8_5);
        for &n in &TAIL_DIMS {
            let mut x: Vec<f32> = (0..n).map(|_| rng.uniform(-3.0, 3.0)).collect();
            if n >= 4 {
                x[n / 2] = -x[0].abs(); // pin the absmax sign case
                x[n - 1] = x[0].abs() * 0.5; // mid-range value
            }
            let mut q_ref = vec![0i8; n];
            let s_ref = simd::quantize_row_i8_with(Backend::Scalar, &x, &mut q_ref);
            for bk in supported() {
                let mut q = vec![0i8; n];
                let s = simd::quantize_row_i8_with(bk, &x, &mut q);
                assert_eq!(s.to_bits(), s_ref.to_bits(), "{} scale n={n}", bk.name());
                assert_eq!(q, q_ref, "{} codes n={n}", bk.name());
            }
        }
        // Exact .5 boundaries: absmax 127 makes inv exactly 1.0, so integer
        // +.5 inputs hit round-half-away-from-zero on every tier.
        let x: Vec<f32> = vec![127.0, 2.5, -2.5, 0.5, -0.5, 126.5, -126.5, 0.0, 1.0, -127.0];
        let mut q_ref = vec![0i8; x.len()];
        let s_ref = simd::quantize_row_i8_with(Backend::Scalar, &x, &mut q_ref);
        assert_eq!(q_ref[1], 3, "scalar must round half away from zero");
        assert_eq!(q_ref[2], -3, "scalar must round half away from zero");
        for bk in supported() {
            let mut q = vec![0i8; x.len()];
            let s = simd::quantize_row_i8_with(bk, &x, &mut q);
            assert_eq!(s.to_bits(), s_ref.to_bits(), "{} scale", bk.name());
            assert_eq!(q, q_ref, "{} boundary codes", bk.name());
        }
    }

    #[test]
    fn zero_row_quantizes_to_zero_scale_and_codes() {
        let x = vec![0.0f32; 9];
        let mut q = vec![1i8; 9];
        let s = quantize_row_i8(&x, &mut q);
        assert_eq!(s, 0.0);
        assert!(q.iter().all(|&v| v == 0));
    }

    #[test]
    fn from_kxn_transposes() {
        // w[k=2, n=3] with distinct entries; output j must hold column j.
        let w = vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let qm = QuantMatrix::from_kxn(&w, 2, 3);
        assert_eq!((qm.n(), qm.k()), (3, 2));
        let deq = qm.dequantize();
        for j in 0..3 {
            for i in 0..2 {
                assert!((deq[j * 2 + i] - w[i * 3 + j]).abs() <= qm.scales[j] * 0.5 + 1e-7);
            }
        }
    }

    /// The int8 kernel contract, exhaustively: on every supported tier
    /// (through the explicit-backend entries), for every row count 1..=33
    /// and shapes covering `k` off the 4-code group and the 16-code vector,
    /// `n` below / off / on the panel width, the LM head's width and a
    /// Sim13B projection, the tile is **bitwise** the scalar i32 dot loop
    /// followed by the shared f32 scale step, `_into` and `_acc` forms — so
    /// a row has the same bits in a block of any size, on any tier. The
    /// last input is all `±127` codes: the largest pair sums `maddubs` can
    /// meet. (The largest shapes take the row counts the decoder runs plus
    /// the tile-split edges instead of all 33: a debug build spends tens of
    /// nanoseconds per MAC here.)
    #[test]
    fn tile_q8_bitwise_equals_scalar_dot_on_every_tier() {
        const MAX_M: usize = 33;
        // `aasd_data::VOCAB`: the LM head is `dim × 32`, two whole panels.
        const VOCAB: usize = 32;
        let mut rng = Rng::new(0x08_711E);
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        let ks: Vec<usize> = (1..=17).chain([31, 33, 63, 64, 65, 128, 192]).collect();
        for &k in &ks {
            for n in [1, 15, 16, 17, VOCAB, 40, 192] {
                let saturating = (k, n) == (192, 192);
                let (w, x) = if saturating {
                    let sign = |v: f32| if v < 0.0 { -1.0 } else { 1.0 };
                    let w = random(&mut rng, k * n).into_iter().map(sign).collect();
                    let x = random(&mut rng, MAX_M * k).into_iter().map(sign).collect();
                    (w, x)
                } else {
                    (random(&mut rng, k * n), random(&mut rng, MAX_M * k))
                };
                let c0 = random(&mut rng, MAX_M * n);
                let qm = QuantMatrix::from_kxn(&w, k, n);
                let (qa, sa) = quantize_rows(&x, MAX_M, k);
                if saturating {
                    assert!(qa.iter().all(|q| q.abs() == 127));
                    assert!((0..k).all(|kk| qm.code(kk, n - 1).abs() == 127));
                }
                // The oracle: one scalar dot per output over the column's
                // codes. Rows do not depend on m, so the first m rows of
                // the 33-row reference serve every m.
                let cols: Vec<Vec<i8>> = (0..n)
                    .map(|j| (0..k).map(|kk| qm.code(kk, j)).collect())
                    .collect();
                let dots: Vec<i32> = (0..MAX_M * n)
                    .map(|e| {
                        let (i, j) = (e / n, e % n);
                        let row = &qa[i * k..(i + 1) * k];
                        row.iter()
                            .zip(&cols[j])
                            .map(|(&a, &w)| a as i32 * w as i32)
                            .sum()
                    })
                    .collect();
                let ms: Vec<usize> = if k * n <= 65 * 40 {
                    (1..=MAX_M).collect()
                } else {
                    vec![1, 2, 6, 7, 13, 32, 33]
                };
                for acc in [false, true] {
                    let want: Vec<f32> = dots
                        .iter()
                        .enumerate()
                        .map(|(e, &dot)| {
                            let start = if acc { c0[e] } else { 0.0 };
                            start + dot as f32 * (sa[e / n] * qm.scales[e % n])
                        })
                        .collect();
                    for bk in supported() {
                        for &m in &ms {
                            let mut c = c0[..m * n].to_vec();
                            let (qa_m, sa_m) = (&qa[..m * k], &sa[..m]);
                            if acc {
                                matmul_q8_acc_into_with(bk, &mut c, qa_m, sa_m, &qm, m);
                            } else {
                                matmul_q8_into_with(bk, &mut c, qa_m, sa_m, &qm, m);
                            }
                            assert_eq!(
                                bits(&c),
                                bits(&want[..m * n]),
                                "{} tile != scalar dots at m={m} k={k} n={n} acc={acc}",
                                bk.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// The panel image itself: code `(kk, j)` sits at
    /// `[j / 16][kk / 4][j % 16][kk % 4]`, the last panel's spare columns and
    /// the last group's spare `k` are zero, and a matrix with no inputs or
    /// no outputs packs to nothing.
    #[test]
    fn tile_q8_panel_layout_and_padding() {
        let mut rng = Rng::new(0x08_1A7);
        for (k, n) in [(3usize, 40usize), (5, 16), (8, 1), (64, 17), (0, 7), (4, 0)] {
            let w = random(&mut rng, n * k);
            let qm = QuantMatrix::from_row_major(&w, n, k);
            let groups = k.div_ceil(4);
            assert_eq!(qm.panels.len(), n.div_ceil(16) * groups * 64);
            assert_eq!(qm.bytes(), qm.panels.len() + 4 * n);
            let mut codes = vec![0i8; n * k];
            for (j, row) in codes.chunks_exact_mut(k.max(1)).enumerate() {
                let scale = quantize_row_i8(&w[j * k..(j + 1) * k], row);
                assert_eq!(scale.to_bits(), qm.scales[j].to_bits());
            }
            for (at, &q) in qm.panels.iter().enumerate() {
                let (p, g) = (at / 64 / groups, at / 64 % groups);
                let (j, kk) = (p * 16 + at % 64 / 4, g * 4 + at % 4);
                let want = if j < n && kk < k {
                    codes[j * k + kk]
                } else {
                    0
                };
                assert_eq!(q, want, "k={k} n={n} panel {p} group {g} byte {}", at % 64);
            }
        }
    }

    /// The no-saturation precondition of the AVX2 tile (`sign_epi8` cannot
    /// negate `-128`, and a `maddubs` pair with a `128` magnitude can leave
    /// i16): no tier's quantizer emits `-128`, for activations or weights —
    /// not at the negative absmax itself, not for a row of one repeated
    /// value, not when `v·(127/absmax)` rounds a hair above 127.
    #[test]
    fn tile_q8_codes_never_reach_minus_128() {
        let mut rng = Rng::new(0x08_128);
        let mut rows: Vec<Vec<f32>> = vec![
            vec![-1.0; 19],
            vec![-3.4e38, 3.4e38, -1.0, 0.0],
            vec![-1e-38, 1e-39, -1e-38],
            vec![-0.1, -0.3, -0.7, -0.9, -0.700_000_05],
        ];
        for n in TAIL_DIMS {
            let mut x: Vec<f32> = (0..n).map(|_| rng.uniform(-5.0, 0.0)).collect();
            x[n / 2] *= 7.0;
            rows.push(x);
        }
        for x in &rows {
            for bk in supported() {
                let mut q = vec![0i8; x.len()];
                simd::quantize_row_i8_with(bk, x, &mut q);
                assert!(
                    q.iter().all(|&c| c >= -127),
                    "{} emitted -128 for {x:?}: {q:?}",
                    bk.name()
                );
                assert_eq!(q.iter().map(|c| c.unsigned_abs()).max(), Some(127));
            }
            let qm = QuantMatrix::from_row_major(x, 1, x.len());
            assert!(qm.panels.iter().all(|&c| c >= -127));
        }
    }

    /// The quantized product tracks the f32 product within the absmax error
    /// model's budget.
    #[test]
    fn vecmat_q8_tracks_f32_within_error_model() {
        let mut rng = Rng::new(0x0_8_3);
        let (k, n) = (64, 48);
        let w: Vec<f32> = (0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let x: Vec<f32> = (0..k).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut y_f32 = vec![0.0f32; n];
        vecmat_into(&mut y_f32, &x, &w, k, n);
        let qm = QuantMatrix::from_kxn(&w, k, n);
        let (qx, sx) = quantize_rows(&x, 1, k);
        let mut y_q8 = vec![0.0f32; n];
        matmul_q8_into(&mut y_q8, &qx, &sx, &qm, 1);
        let sum_abs_x: f32 = x.iter().map(|v| v.abs()).sum();
        for (j, (a, b)) in y_q8.iter().zip(&y_f32).enumerate() {
            // Weight rounding (≤ s_j/2 per element against |x|) plus
            // activation rounding (≤ sx/2 per element against |w|≤1·k... use
            // the loose but rigorous bound of both terms).
            let bound = qm.scales[j] * 0.5 * sum_abs_x + sx[0] * 0.5 * k as f32 + 1e-5;
            assert!((a - b).abs() <= bound, "col {j}: |{a} - {b}| > {bound}");
        }
    }

    #[test]
    fn acc_variant_folds_residual_exactly() {
        let mut rng = Rng::new(0x0_8_4);
        let (k, n) = (33, 17);
        let w = random(&mut rng, k * n);
        let x = random(&mut rng, k);
        let qm = QuantMatrix::from_kxn(&w, k, n);
        let (qx, sx) = quantize_rows(&x, 1, k);
        let resid = random(&mut rng, n);
        let mut y = resid.clone();
        matmul_q8_acc_into(&mut y, &qx, &sx, &qm, 1);
        let mut prod = vec![0.0f32; n];
        matmul_q8_into(&mut prod, &qx, &sx, &qm, 1);
        for ((yv, r), p) in y.iter().zip(&resid).zip(&prod) {
            assert_eq!(*yv, r + p, "acc must be fill-then-add exactly");
        }
    }
}
