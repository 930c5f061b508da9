//! Parameterized layers: linear projection, token embedding, RMS norm.
//!
//! Each layer has two forward flavours: the original allocating API
//! (`forward`, returning a fresh [`Tensor`]) kept as the property-tested
//! reference, and `_into`/`_acc` variants that write into caller-provided
//! slices — the building blocks of the zero-allocation fused decode path.

use crate::quant::{KernelPolicy, QuantLinear};
use aasd_tensor::{
    matmul_blocked_acc_into, matmul_blocked_into, vecmat_acc_into, vecmat_into, Rng, Tensor,
    Workspace,
};

/// Bias-free linear layer. The weight is stored `[in, out]` so a batch of
/// row vectors multiplies it directly (`x: [t, in]` → `x·W: [t, out]`) with
/// unit-stride access in the matmul kernels.
///
/// Under [`KernelPolicy::Int8`] the layer additionally carries a
/// [`QuantLinear`] shadow of the weight; only the fused `_ws` forwards
/// consult it — the allocating reference paths always run f32.
#[derive(Debug, Clone)]
pub struct Linear {
    pub w: Tensor,
    pub quant: Option<QuantLinear>,
}

impl Linear {
    pub fn new(rng: &mut Rng, fan_in: usize, fan_out: usize) -> Self {
        Self {
            w: Tensor::xavier(rng, fan_in, fan_out),
            quant: None,
        }
    }

    /// Switch this layer's fused-path kernel family. `Int8` quantizes the
    /// current weight once (re-call after any weight mutation — the shadow
    /// does not track training updates); `F32` drops the shadow.
    pub fn set_policy(&mut self, policy: KernelPolicy) {
        self.quant = match policy {
            KernelPolicy::F32 => None,
            KernelPolicy::Int8 => Some(QuantLinear::new(&self.w)),
        };
    }

    pub fn forward(&self, x: &Tensor) -> Tensor {
        x.matmul(&self.w)
    }

    /// `out = x·W` for `rows` row-vectors of `fan_in` floats, no
    /// allocation. `rows == 1` (single-token decode) takes the unrolled
    /// [`vecmat_into`] kernel, which is faster than a one-row tile; larger
    /// blocks use the register-tiled kernel, where up to six rows share
    /// every weight load. Both compute each output as `acc = acc + x[kk]·
    /// W[kk, j]` for `kk = 0, 1, 2, …` (multiply-then-add, nothing skipped;
    /// see `aasd_tensor::matmul`), so a row gets the same bits whichever
    /// path and whatever block it is part of — a verify pass reproduces the
    /// decode steps it replaces.
    pub fn forward_rows_into(&self, x: &[f32], rows: usize, out: &mut [f32]) {
        let (k, n) = (self.w.rows, self.w.cols);
        if rows == 1 {
            vecmat_into(out, x, &self.w.data, k, n);
        } else {
            matmul_blocked_into(out, x, &self.w.data, rows, k, n);
        }
    }

    /// `out += x·W` — the projection with the residual-add folded in, so
    /// the residual stream is written exactly once.
    pub fn forward_rows_acc(&self, x: &[f32], rows: usize, out: &mut [f32]) {
        let (k, n) = (self.w.rows, self.w.cols);
        if rows == 1 {
            vecmat_acc_into(out, x, &self.w.data, k, n);
        } else {
            matmul_blocked_acc_into(out, x, &self.w.data, rows, k, n);
        }
    }

    /// Workspace-aware `out = x·W`: routes to the int8 kernels when a
    /// quantized shadow is installed, the f32 kernels otherwise. The fused
    /// decode path calls this so a single policy switch redirects every
    /// projection.
    pub fn forward_rows_into_ws(
        &self,
        x: &[f32],
        rows: usize,
        ws: &mut Workspace,
        out: &mut [f32],
    ) {
        match &self.quant {
            Some(q) => q.forward_rows_into(x, rows, ws, out),
            None => self.forward_rows_into(x, rows, out),
        }
    }

    /// Workspace-aware `out += x·W` (residual-folded); see
    /// [`Linear::forward_rows_into_ws`].
    pub fn forward_rows_acc_ws(&self, x: &[f32], rows: usize, ws: &mut Workspace, out: &mut [f32]) {
        match &self.quant {
            Some(q) => q.forward_rows_acc(x, rows, ws, out),
            None => self.forward_rows_acc(x, rows, out),
        }
    }
}

/// Token embedding table `[vocab, dim]`.
#[derive(Debug, Clone)]
pub struct Embedding {
    pub table: Tensor,
}

impl Embedding {
    pub fn new(rng: &mut Rng, vocab: usize, dim: usize) -> Self {
        Self {
            table: Tensor::randn(rng, vocab, dim, 0.02),
        }
    }

    /// Gather rows for a token sequence → `[t, dim]`.
    pub fn forward(&self, tokens: &[u32]) -> Tensor {
        let dim = self.table.cols;
        let mut out = Tensor::zeros(tokens.len(), dim);
        self.forward_into(tokens, &mut out.data);
        out
    }

    /// Gather rows into a caller-provided `[t·dim]` slice, no allocation.
    pub fn forward_into(&self, tokens: &[u32], out: &mut [f32]) {
        let dim = self.table.cols;
        assert_eq!(out.len(), tokens.len() * dim);
        for (o_row, &tok) in out.chunks_exact_mut(dim).zip(tokens.iter()) {
            let tok = tok as usize;
            assert!(tok < self.table.rows, "token {tok} out of vocabulary");
            o_row.copy_from_slice(self.table.row(tok));
        }
    }
}

/// RMSNorm (Zhang & Sennrich 2019): `x * gain / rms(x)`, no mean-centering.
#[derive(Debug, Clone)]
pub struct RmsNorm {
    pub gain: Vec<f32>,
    pub eps: f32,
}

impl RmsNorm {
    pub fn new(dim: usize) -> Self {
        Self {
            gain: vec![1.0; dim],
            eps: 1e-5,
        }
    }

    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.cols, self.gain.len());
        let mut out = x.clone();
        for r in 0..out.rows {
            self.forward_row(out.row_mut(r));
        }
        out
    }

    /// In-place row normalization. The mean-square reduction dispatches on
    /// the active SIMD backend; [`RmsNorm::forward_into`] uses the same
    /// reduction, so the two paths stay bit-identical on every tier.
    pub fn forward_row(&self, row: &mut [f32]) {
        let bk = aasd_tensor::backend();
        let ms = aasd_tensor::simd::sum_squares_with(bk, row) / row.len() as f32;
        let inv = 1.0 / (ms + self.eps).sqrt();
        for (v, g) in row.iter_mut().zip(self.gain.iter()) {
            *v *= inv * *g;
        }
    }

    /// Normalize `rows` rows of `x` into `out` in one fused pass — the
    /// read-only input stays untouched (it is the residual stream) and
    /// nothing is cloned. Rounding matches [`RmsNorm::forward_row`].
    pub fn forward_into(&self, x: &[f32], rows: usize, out: &mut [f32]) {
        let dim = self.gain.len();
        assert_eq!(x.len(), rows * dim);
        assert_eq!(out.len(), rows * dim);
        let bk = aasd_tensor::backend();
        for (x_row, o_row) in x.chunks_exact(dim).zip(out.chunks_exact_mut(dim)) {
            aasd_tensor::simd::rms_norm_row_with(bk, x_row, &self.gain, self.eps, o_row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedding_gathers_rows() {
        let mut rng = Rng::new(1);
        let emb = Embedding::new(&mut rng, 10, 4);
        let out = emb.forward(&[3, 0, 3]);
        assert_eq!(out.row(0), emb.table.row(3));
        assert_eq!(out.row(1), emb.table.row(0));
        assert_eq!(out.row(0), out.row(2));
    }

    #[test]
    fn rmsnorm_unit_rms() {
        let mut rng = Rng::new(2);
        let norm = RmsNorm::new(32);
        let x = Tensor::randn(&mut rng, 5, 32, 3.0);
        let y = norm.forward(&x);
        for r in 0..y.rows {
            let ms: f32 = y.row(r).iter().map(|v| v * v).sum::<f32>() / 32.0;
            assert!((ms - 1.0).abs() < 1e-3, "row {r} rms² = {ms}");
        }
    }

    #[test]
    fn linear_shape() {
        let mut rng = Rng::new(3);
        let lin = Linear::new(&mut rng, 8, 16);
        let x = Tensor::randn(&mut rng, 3, 8, 1.0);
        let y = lin.forward(&x);
        assert_eq!((y.rows, y.cols), (3, 16));
    }

    /// The into-paths (t = 1 vecmat and t > 1 blocked) must match the
    /// allocating reference exactly, and the acc variant must fold the
    /// residual.
    #[test]
    fn linear_into_matches_forward() {
        let mut rng = Rng::new(4);
        let lin = Linear::new(&mut rng, 24, 40);
        for rows in [1usize, 5] {
            let x = Tensor::randn(&mut rng, rows, 24, 1.0);
            let reference = lin.forward(&x);
            let mut out = vec![0.0f32; rows * 40];
            lin.forward_rows_into(&x.data, rows, &mut out);
            assert_eq!(out, reference.data, "rows={rows}");

            let resid: Vec<f32> = (0..rows * 40).map(|_| rng.normal()).collect();
            let mut acc = resid.clone();
            lin.forward_rows_acc(&x.data, rows, &mut acc);
            for ((a, r), p) in acc.iter().zip(&resid).zip(&reference.data) {
                assert!((a - (r + p)).abs() < 1e-5);
            }
        }
    }

    /// Regression (t = 1 / t > 1 disagreement): the multi-row kernel used
    /// to skip zero activations, `vecmat` never did. A zero activation
    /// against an inf weight (0·inf = NaN) and a `-0.0` residual
    /// (-0.0 + 0·w = +0.0) must come out of both `Linear` paths with the
    /// same bits.
    #[test]
    fn linear_rows1_equals_rows_many_on_zero_times_inf_and_negative_zero() {
        let (rows, k, n) = (3usize, 6usize, 20usize);
        let mut rng = Rng::new(0x1F);
        let mut lin = Linear::new(&mut rng, k, n);
        lin.w.data.iter_mut().for_each(|w| *w = w.abs() + 0.1);
        lin.w.data[2 * n + 5] = f32::INFINITY;
        let mut x = Tensor::randn(&mut rng, rows, k, 1.0).data;
        x[2] = 0.0; // row 0 meets the inf weight with a zero
        x[k..2 * k].fill(0.0); // row 1 is all zeros

        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let mut many = vec![0.0f32; rows * n];
        lin.forward_rows_into(&x, rows, &mut many);
        let mut many_acc = vec![-0.0f32; rows * n];
        lin.forward_rows_acc(&x, rows, &mut many_acc);
        for r in 0..rows {
            let (xr, cols) = (&x[r * k..(r + 1) * k], r * n..(r + 1) * n);
            let mut one = vec![0.0f32; n];
            lin.forward_rows_into(xr, 1, &mut one);
            assert_eq!(bits(&one), bits(&many[cols.clone()]), "into, row {r}");
            let mut one_acc = vec![-0.0f32; n];
            lin.forward_rows_acc(xr, 1, &mut one_acc);
            assert_eq!(bits(&one_acc), bits(&many_acc[cols]), "acc, row {r}");
        }
        assert!(many[5].is_nan(), "0·inf must reach the output");
        assert_eq!(many_acc[n].to_bits(), 0, "-0.0 + 0·w is +0.0");
    }

    #[test]
    fn embedding_into_matches_forward() {
        let mut rng = Rng::new(5);
        let emb = Embedding::new(&mut rng, 12, 6);
        let toks = [7u32, 0, 11, 7];
        let reference = emb.forward(&toks);
        let mut out = vec![0.0f32; 4 * 6];
        emb.forward_into(&toks, &mut out);
        assert_eq!(out, reference.data);
    }

    #[test]
    fn rmsnorm_into_matches_forward() {
        let mut rng = Rng::new(6);
        let norm = RmsNorm::new(16);
        let x = Tensor::randn(&mut rng, 3, 16, 2.0);
        let reference = norm.forward(&x);
        let mut out = vec![0.0f32; 3 * 16];
        norm.forward_into(&x.data, 3, &mut out);
        assert_eq!(out, reference.data);
    }
}
