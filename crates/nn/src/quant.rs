//! Kernel policy selection and the int8 quantized linear layer.
//!
//! [`KernelPolicy`] is a per-model switch: under `F32` every projection
//! runs the (SIMD-dispatched) f32 tile over the weight's packed panels;
//! under `Int8` each `Linear` runs a [`QuantLinear`] image of its weight
//! (quantized by the first fused forward, as the f32 panels are packed) and
//! the fused decode path streams i8 codes instead of f32 — 4× less weight
//! traffic in the memory-bound decode regime the paper's speedups live in.
//!
//! Batched-verify consistency: the quantized forward quantizes every row of
//! a `t > 1` block on its own (one scale per row) and the int8 tile's i32
//! dots are exact, so a row gets the same bits at any `t` — single-token
//! decode and batched speculative verification produce bit-identical
//! logits, the property that keeps spec≡AR losslessness intact under an
//! `Int8` *target*. A draft owes nobody that contract: greedy verification
//! makes every stream lossless whatever the draft computes, which is why
//! the standard draft runs `Int8` under an `F32` target.

use aasd_tensor::quant::{matmul_q8_acc_into, quantize_rows_i8, QuantMatrix};
use aasd_tensor::{Tensor, Workspace};

/// Which kernel family a model's projections run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// f32 weights through the SIMD-dispatched register tile, over the
    /// weight's packed panels.
    #[default]
    F32,
    /// int8 per-output absmax weights through the exact-i32 register tile,
    /// over the weight's int8 panels (embeddings and norms stay f32).
    Int8,
}

impl KernelPolicy {
    /// Stable lowercase name (used in bench snapshots and logs).
    pub fn name(self) -> &'static str {
        match self {
            KernelPolicy::F32 => "f32",
            KernelPolicy::Int8 => "int8",
        }
    }
}

/// Int8 image of a `Linear` weight: the `[k_in, n_out]` matrix quantized
/// per output into [`QuantMatrix`]'s panel layout.
#[derive(Debug, Clone)]
pub struct QuantLinear {
    pub qm: QuantMatrix,
}

impl QuantLinear {
    /// Quantize a `Linear` weight (stored `[in, out]`). Never runs in the
    /// decode loop: once per weight, on its first int8 forward.
    pub fn new(w: &Tensor) -> Self {
        Self {
            qm: QuantMatrix::from_kxn(&w.data, w.rows, w.cols),
        }
    }

    /// `out = x·Ŵ` for `rows` row-vectors, drawing the activation codes and
    /// scales from the workspace's pools (zero-allocation in steady state).
    pub fn forward_rows_into(&self, x: &[f32], rows: usize, ws: &mut Workspace, out: &mut [f32]) {
        out.fill(0.0);
        self.forward_rows_acc(x, rows, ws, out);
    }

    /// `out += x·Ŵ` — the residual-folded variant. All `rows` rows are
    /// quantized once, each with its own scale, then one tile call
    /// multiplies them (identical math at any `rows`).
    pub fn forward_rows_acc(&self, x: &[f32], rows: usize, ws: &mut Workspace, out: &mut [f32]) {
        let k = self.qm.k();
        let mut qx = ws.take_i8(rows * k);
        let mut sx = ws.take(rows);
        quantize_rows_i8(x, k, &mut qx, &mut sx);
        matmul_q8_acc_into(out, &qx, &sx, &self.qm, rows);
        ws.give_i8(qx);
        ws.give(sx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aasd_tensor::Rng;

    #[test]
    fn policy_names() {
        assert_eq!(KernelPolicy::F32.name(), "f32");
        assert_eq!(KernelPolicy::Int8.name(), "int8");
        assert_eq!(KernelPolicy::default(), KernelPolicy::F32);
    }

    /// The quantized forward tracks the f32 linear within the absmax error
    /// model, and batched rows are bit-identical to row-at-a-time calls.
    #[test]
    fn quant_linear_tracks_f32_and_batches_exactly() {
        let mut rng = Rng::new(0x9_1);
        let lin = crate::Linear::new(&mut rng, 48, 32);
        let q = QuantLinear::new(lin.w());
        let mut ws = Workspace::new();
        let rows = 3usize;
        let x: Vec<f32> = (0..rows * 48).map(|_| rng.uniform(-1.0, 1.0)).collect();

        let mut batched = vec![0.0f32; rows * 32];
        q.forward_rows_into(&x, rows, &mut ws, &mut batched);

        let mut reference = vec![0.0f32; rows * 32];
        lin.forward_rows_into(&x, rows, &mut reference);

        for r in 0..rows {
            let mut single = vec![0.0f32; 32];
            q.forward_rows_into(&x[r * 48..(r + 1) * 48], 1, &mut ws, &mut single);
            assert_eq!(
                single,
                batched[r * 32..(r + 1) * 32],
                "row {r}: batched vs single must be bit-identical"
            );
        }
        for (a, b) in batched.iter().zip(&reference) {
            assert!(
                (a - b).abs() < 0.05,
                "quantized drifted too far: {a} vs {b}"
            );
        }
    }

    #[test]
    fn quant_linear_acc_folds_residual() {
        let mut rng = Rng::new(0x9_2);
        let lin = crate::Linear::new(&mut rng, 16, 24);
        let q = QuantLinear::new(lin.w());
        let mut ws = Workspace::new();
        let x: Vec<f32> = (0..16).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let resid: Vec<f32> = (0..24).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut acc = resid.clone();
        q.forward_rows_acc(&x, 1, &mut ws, &mut acc);
        let mut prod = vec![0.0f32; 24];
        q.forward_rows_into(&x, 1, &mut ws, &mut prod);
        for ((a, r), p) in acc.iter().zip(&resid).zip(&prod) {
            assert_eq!(*a, r + p);
        }
    }
}
