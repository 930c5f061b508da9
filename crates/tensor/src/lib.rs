//! `aasd-tensor` — dense f32 tensor substrate for the AASD reproduction.
//!
//! Everything upstream (transformer blocks, the speculative-decoding engine,
//! the benches) is built on the kernels in this crate:
//!
//! * [`matmul`] — the register-tiled multi-row kernel over a row-major or
//!   a packed (tile-major panels, [`pack_panels`]) right-hand side and the
//!   naive reference they are property-tested against, plus the 4-way-unrolled one-row [`vecmat_into`] (bitwise
//!   equal to any row of the multi-row kernel);
//! * [`ops`] — fused softmax, argmax, SiLU, axpy/dot primitives;
//! * [`simd`] — the runtime-dispatched AVX2 and scalar kernel tiers behind
//!   the hot-path primitives (`AASD_KERNEL=scalar|avx2` overrides, any
//!   other value is a hard error; bitwise-stable vecmat and matmul across
//!   tiers);
//! * [`quant`] — int8 per-output absmax weight quantization into int8
//!   panels and the exact i32-accumulating register tile over them
//!   ([`matmul_q8_into`]);
//! * [`rng`] — deterministic SplitMix64 RNG (std-only `rand` stand-in);
//! * [`workspace`] — the grow-once scratch arena behind the
//!   zero-allocation fused decode path;
//! * [`profile`] — the per-op decode profiler carried by the workspace;
//! * [`Tensor`] — a thin row-major 2-D matrix wrapper used at module
//!   boundaries where shapes need to travel with the data.

pub mod matmul;
pub mod ops;
pub mod profile;
pub mod quant;
pub mod rng;
pub mod simd;
pub mod workspace;

pub use matmul::{
    matmul_blocked_acc_into, matmul_blocked_into, matmul_naive_into, matmul_packed_acc_into,
    matmul_packed_into, vecmat_acc_into, vecmat_into,
};
pub use ops::{
    add_assign, argmax, axpy, dot, log_softmax_row, log_softmax_rows, silu, softmax_row,
    softmax_rows,
};
pub use profile::{Op, ProfSpan, Profiler};
pub use quant::{
    matmul_q8_acc_into, matmul_q8_into, quantize_row_i8, quantize_rows_i8, QuantMatrix,
};
pub use rng::Rng;
pub use simd::{backend, pack_panels, rms_norm_row_into, silu_mul, Backend};
pub use workspace::Workspace;

/// Row-major 2-D f32 matrix: `rows × cols`, `data.len() == rows * cols`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    pub data: Vec<f32>,
    pub rows: usize,
    pub cols: usize,
}

impl Tensor {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    pub fn from_vec(data: Vec<f32>, rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self { data, rows, cols }
    }

    /// I.i.d. normal entries scaled by `std` (seeded, deterministic).
    pub fn randn(rng: &mut Rng, rows: usize, cols: usize, std: f32) -> Self {
        let data = (0..rows * cols).map(|_| rng.normal() * std).collect();
        Self { data, rows, cols }
    }

    /// Xavier/Glorot-uniform init for a `fan_in = cols`, `fan_out = rows`
    /// weight matrix.
    pub fn xavier(rng: &mut Rng, rows: usize, cols: usize) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.uniform(-bound, bound))
            .collect();
        Self { data, rows, cols }
    }

    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self · other` on the tiled kernel.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Tensor::zeros(self.rows, other.cols);
        matmul_blocked_into(
            &mut out.data,
            &self.data,
            &other.data,
            self.rows,
            self.cols,
            other.cols,
        );
        out
    }

    /// `self · otherᵀ` without materializing the transpose: rows of both
    /// operands are contiguous, so this is a pure dot-product sweep. Used by
    /// attention scores (`Q·Kᵀ`) where `K` is stored row-per-position.
    pub fn matmul_transposed(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "inner dimensions must agree");
        let mut out = Tensor::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let o_row = out.row_mut(i);
            for (j, ov) in o_row.iter_mut().enumerate() {
                *ov = dot(a_row, other.row(j));
            }
        }
        out
    }

    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    pub fn softmax_rows_inplace(&mut self) {
        softmax_rows(&mut self.data, self.cols);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let mut rng = Rng::new(3);
        let a = Tensor::randn(&mut rng, 9, 17, 1.0);
        let b = Tensor::randn(&mut rng, 13, 17, 1.0);
        let fast = a.matmul_transposed(&b);
        let slow = a.matmul(&b.transpose());
        assert_eq!(fast.rows, 9);
        assert_eq!(fast.cols, 13);
        for (x, y) in fast.data.iter().zip(&slow.data) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng::new(5);
        let a = Tensor::randn(&mut rng, 6, 11, 1.0);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn xavier_within_bound() {
        let mut rng = Rng::new(8);
        let t = Tensor::xavier(&mut rng, 64, 32);
        let bound = (6.0 / 96.0f32).sqrt();
        assert!(t.data.iter().all(|v| v.abs() <= bound));
    }
}
