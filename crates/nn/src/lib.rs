//! `aasd-nn` — transformer building blocks for the AASD reproduction.
//!
//! The crate provides the decoder-only LM substrate that both the target
//! and draft models of the speculative-decoding engine are built from:
//!
//! * [`layers`] — `Linear`, `Embedding`, `RmsNorm`;
//! * [`quant`] — the [`quant::KernelPolicy`] switch and int8
//!   [`quant::QuantLinear`] shadow weights for the fused decode path;
//! * [`rope`] — rotary position embeddings with precomputed tables;
//! * [`cache`] — pre-allocated growable KV cache with O(1) rollback
//!   (the structure the AASD draft head will later attend over);
//! * [`attention`] — multi-head attention: one cached sweep behind the
//!   incremental paths; the bidirectional (vision) path calls
//!   `aasd_autograd::attention`, the function every training graph's
//!   attention op computes;
//! * [`decoder`] — the pre-norm block both towers stack and the
//!   [`decoder::Decoder`] model with `forward_infer` (prefill / decode /
//!   batched verify), `forward_train` (the tape) and `forward_full`, the
//!   stateless oracle that is the tape's value; the cached paths are
//!   property-tested against it.
//!
//! Every inference layer additionally has a fused `_ws` variant that draws
//! scratch from an [`aasd_tensor::Workspace`] and folds the residual adds
//! into the output projections — `Decoder::forward_infer_ws` is the
//! zero-allocation decode path the speculative engine and benches run on.

pub mod attention;
pub mod cache;
pub mod decoder;
pub mod layers;
pub mod quant;
pub mod rope;

pub use attention::Attention;
pub use cache::{KvCache, KvChunks, KvLayer, KvLayerMut, KvPool};
pub use decoder::{Decoder, DecoderBlock, DecoderConfig, Mlp};
pub use layers::{Embedding, Linear, RmsNorm};
pub use quant::{KernelPolicy, QuantLinear};
pub use rope::Rope;
