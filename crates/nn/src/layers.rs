//! Parameterized layers: linear projection, token embedding, RMS norm.
//!
//! Each layer has two forward flavours: the original allocating API
//! (`forward`, returning a fresh [`Tensor`]) kept as the property-tested
//! reference, and `_into`/`_acc` variants that write into caller-provided
//! slices — the building blocks of the zero-allocation fused decode path.

use crate::quant::{KernelPolicy, QuantLinear};
use aasd_tensor::{
    matmul_packed_acc_into, matmul_packed_into, pack_panels, Rng, Tensor, Workspace,
};
use std::sync::OnceLock;

/// Bias-free linear layer. The weight is stored `[in, out]` so a batch of
/// row vectors multiplies it directly (`x: [t, in]` → `x·W: [t, out]`) with
/// unit-stride access in the matmul kernels.
///
/// The row-major `w` is the weight; the layer carries up to two **shadows**
/// of it that only the fused forwards read, each built by the first fused
/// forward that needs it (or by [`Linear::prepack`]) — inference weights are
/// frozen, so building once buys every later pass its kernel's layout:
///
/// * tile-major f32 panels (`aasd_tensor::pack_panels`), what the
///   workspace-free forwards and the `_ws` forwards under
///   [`KernelPolicy::F32`] run on;
/// * a [`QuantLinear`] (int8 panels + scales), what the `_ws` forwards run
///   on under [`KernelPolicy::Int8`].
///
/// Both are images of `w`, so `w` is private and [`Linear::weights_mut`] is
/// the one mutable door to it: it drops both, whatever the policy, so a
/// layer can be born `Int8`, trained and served without ever reading a
/// stale image. The allocating reference paths ([`Linear::forward`], the
/// training tapes) read `w` and neither shadow.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Tensor,
    policy: KernelPolicy,
    panels: OnceLock<Vec<f32>>,
    quant: OnceLock<QuantLinear>,
}

impl Linear {
    pub fn new(rng: &mut Rng, fan_in: usize, fan_out: usize) -> Self {
        Self {
            w: Tensor::xavier(rng, fan_in, fan_out),
            policy: KernelPolicy::F32,
            panels: OnceLock::new(),
            quant: OnceLock::new(),
        }
    }

    /// The `[in, out]` weight, row-major.
    pub fn w(&self) -> &Tensor {
        &self.w
    }

    /// The weight's elements for an in-place update (an optimizer step, a
    /// test's perturbation). Drops both shadows — the next fused forward
    /// repacks or requantizes the updated weight.
    pub fn weights_mut(&mut self) -> &mut [f32] {
        self.panels = OnceLock::new();
        self.quant = OnceLock::new();
        &mut self.w.data
    }

    /// Switch the kernel family the `_ws` forwards run. Builds nothing: the
    /// policy's shadow appears on its first forward.
    pub fn set_policy(&mut self, policy: KernelPolicy) {
        self.policy = policy;
    }

    /// Build now the shadow the `_ws` forwards would otherwise build on
    /// their first call — f32 panels under `F32`, the int8 image under
    /// `Int8`, never both — so that a serving engine's first request does
    /// not pay for it.
    pub fn prepack(&self) {
        match self.policy {
            KernelPolicy::F32 => {
                self.panels();
            }
            KernelPolicy::Int8 => {
                self.quant();
            }
        }
    }

    /// Whether the f32 panels exist right now (for tests of who builds and
    /// who drops them).
    pub fn is_packed(&self) -> bool {
        self.panels.get().is_some()
    }

    /// Whether the int8 shadow exists right now (likewise).
    pub fn is_quantized(&self) -> bool {
        self.quant.get().is_some()
    }

    fn panels(&self) -> &[f32] {
        self.panels
            .get_or_init(|| pack_panels(&self.w.data, self.w.rows, self.w.cols))
    }

    fn quant(&self) -> &QuantLinear {
        self.quant.get_or_init(|| QuantLinear::new(&self.w))
    }

    pub fn forward(&self, x: &Tensor) -> Tensor {
        x.matmul(&self.w)
    }

    /// `out = x·W` for `rows` row-vectors of `fan_in` floats, no allocation
    /// once the panels exist. One kernel at every row count — the register
    /// tile over the packed weight, where up to six rows share every weight
    /// load — computing each output as `acc = fma(x[kk], W[kk, j], acc)`
    /// for `kk = 0, 1, 2, …` (one rounding per term, nothing skipped; see
    /// `aasd_tensor::matmul`), so a row gets the same bits whatever block
    /// it is part of — a verify pass reproduces the decode steps it
    /// replaces — and the bits [`Linear::forward`] gives it.
    pub fn forward_rows_into(&self, x: &[f32], rows: usize, out: &mut [f32]) {
        matmul_packed_into(out, x, self.panels(), rows, self.w.rows, self.w.cols);
    }

    /// `out += x·W` — the projection with the residual-add folded in, so
    /// the residual stream is written exactly once.
    pub fn forward_rows_acc(&self, x: &[f32], rows: usize, out: &mut [f32]) {
        matmul_packed_acc_into(out, x, self.panels(), rows, self.w.rows, self.w.cols);
    }

    /// Workspace-aware `out = x·W`: the int8 tile under
    /// [`KernelPolicy::Int8`], the f32 tile otherwise. The fused decode path
    /// calls this so a single policy switch redirects every projection.
    pub fn forward_rows_into_ws(
        &self,
        x: &[f32],
        rows: usize,
        ws: &mut Workspace,
        out: &mut [f32],
    ) {
        match self.policy {
            KernelPolicy::Int8 => self.quant().forward_rows_into(x, rows, ws, out),
            KernelPolicy::F32 => self.forward_rows_into(x, rows, out),
        }
    }

    /// Workspace-aware `out += x·W` (residual-folded); see
    /// [`Linear::forward_rows_into_ws`].
    pub fn forward_rows_acc_ws(&self, x: &[f32], rows: usize, ws: &mut Workspace, out: &mut [f32]) {
        match self.policy {
            KernelPolicy::Int8 => self.quant().forward_rows_acc(x, rows, ws, out),
            KernelPolicy::F32 => self.forward_rows_acc(x, rows, out),
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

    /// The fused paths (packed panels, any row count) must match the
    /// allocating row-major reference exactly, and the acc variant must fold
    /// the residual.
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
    /// (-0.0 + 0·w = +0.0) must come out of the packed path at every row
    /// count with the bits of the row-major `vecmat` on that row.
    #[test]
    fn linear_rows1_equals_rows_many_on_zero_times_inf_and_negative_zero() {
        let (rows, k, n) = (3usize, 6usize, 20usize);
        let mut rng = Rng::new(0x1F);
        let mut lin = Linear::new(&mut rng, k, n);
        let w = lin.weights_mut();
        w.iter_mut().for_each(|w| *w = w.abs() + 0.1);
        w[2 * n + 5] = f32::INFINITY;
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
            aasd_tensor::vecmat_into(&mut one, xr, &lin.w().data, k, n);
            assert_eq!(
                bits(&one),
                bits(&many[cols.clone()]),
                "into vs vecmat, row {r}"
            );
            let mut one_acc = vec![-0.0f32; n];
            lin.forward_rows_acc(xr, 1, &mut one_acc);
            assert_eq!(
                bits(&one_acc),
                bits(&many_acc[cols.clone()]),
                "acc, row {r}"
            );
            let mut one_acc = vec![-0.0f32; n];
            aasd_tensor::vecmat_acc_into(&mut one_acc, xr, &lin.w().data, k, n);
            assert_eq!(
                bits(&one_acc),
                bits(&many_acc[cols]),
                "acc vs vecmat, row {r}"
            );
        }
        assert!(many[5].is_nan(), "0·inf must reach the output");
        assert_eq!(many_acc[n].to_bits(), 0, "-0.0 + 0·w is +0.0");
    }

    /// `weights_mut` is the one door to the weight and it takes the panels
    /// with it: a fused forward after an update sees the new weight (the
    /// bits of the row-major reference and of a layer that never packed the
    /// old one), and a clone taken after packing shares nothing.
    #[test]
    fn linear_weights_mut_drops_the_panels_and_clones_are_independent() {
        let mut rng = Rng::new(0x9AC);
        let (k, n, rows) = (24usize, 40usize, 3usize);
        let mut lin = Linear::new(&mut rng, k, n);
        let x = Tensor::randn(&mut rng, rows, k, 1.0);
        let fused = |l: &Linear| {
            let mut out = vec![0.0f32; rows * n];
            l.forward_rows_into(&x.data, rows, &mut out);
            out
        };
        let never_packed = lin.clone();
        assert!(!lin.is_packed());
        let before = fused(&lin);
        assert!(lin.is_packed());
        let packed_clone = lin.clone();
        assert!(packed_clone.is_packed() && !never_packed.is_packed());

        let step = |l: &mut Linear| {
            l.weights_mut()
                .iter_mut()
                .for_each(|w| *w = *w * 0.5 + 0.01)
        };
        step(&mut lin);
        assert!(!lin.is_packed(), "the update must drop the stale panels");
        let after = fused(&lin);
        assert_ne!(after, before);
        assert_eq!(
            after,
            lin.forward(&x).data,
            "fused path serves a stale weight"
        );
        let mut fresh = never_packed;
        step(&mut fresh);
        assert_eq!(after, fused(&fresh));

        // The clone still holds — and serves — the old weight.
        assert_eq!(fused(&packed_clone), before);
        let mut packed_clone = packed_clone;
        step(&mut packed_clone);
        assert_eq!(fused(&packed_clone), after);
        assert_eq!(fused(&lin), after, "training the clone reached its source");
    }

    /// The int8 twin: `weights_mut` drops the int8 shadow as it drops the
    /// panels, so an `Int8` layer can be updated in place — the next fused
    /// forward requantizes (the bits of a layer quantized fresh from the
    /// same weight) — and a clone taken after quantizing shares nothing.
    #[test]
    fn linear_weights_mut_drops_the_int8_shadow_and_clones_are_independent() {
        let mut rng = Rng::new(0x9AE);
        let (k, n, rows) = (24usize, 40usize, 3usize);
        let mut lin = Linear::new(&mut rng, k, n);
        lin.set_policy(KernelPolicy::Int8);
        let x = Tensor::randn(&mut rng, rows, k, 1.0);
        let fused = |l: &Linear| {
            let mut out = vec![0.0f32; rows * n];
            l.forward_rows_into_ws(&x.data, rows, &mut Workspace::new(), &mut out);
            out
        };
        let never_quantized = lin.clone();
        assert!(!lin.is_quantized());
        let before = fused(&lin);
        assert!(lin.is_quantized() && !lin.is_packed());
        let quantized_clone = lin.clone();
        assert!(quantized_clone.is_quantized() && !never_quantized.is_quantized());

        let step = |l: &mut Linear| {
            l.weights_mut()
                .iter_mut()
                .for_each(|w| *w = *w * 0.5 + 0.01)
        };
        step(&mut lin);
        assert!(!lin.is_quantized(), "the update must drop the stale codes");
        let after = fused(&lin);
        assert_ne!(after, before);
        let mut fresh = never_quantized;
        step(&mut fresh);
        assert_eq!(after, fused(&fresh), "fused path serves a stale weight");
        for (a, r) in after.iter().zip(&lin.forward(&x).data) {
            assert!((a - r).abs() < 0.05, "int8 drifted from the weight");
        }

        // The clone still holds — and serves — the old weight.
        assert_eq!(fused(&quantized_clone), before);
        let mut quantized_clone = quantized_clone;
        step(&mut quantized_clone);
        assert_eq!(fused(&quantized_clone), after);
        assert_eq!(fused(&lin), after, "training the clone reached its source");
    }

    /// `prepack` builds the shadow the layer's policy runs and no other.
    #[test]
    fn linear_prepack_builds_panels_only_under_f32() {
        let mut rng = Rng::new(0x9AD);
        let mut lin = Linear::new(&mut rng, 8, 16);
        lin.set_policy(KernelPolicy::Int8);
        lin.prepack();
        assert!(lin.is_quantized());
        assert!(!lin.is_packed(), "int8 layers never read the panels");
        lin.set_policy(KernelPolicy::F32);
        lin.prepack();
        assert!(lin.is_packed());
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
