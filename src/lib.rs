//! `aasd` — facade crate for the AASD reproduction.
//!
//! Re-exports the workspace subcrates so the repo-root `tests/` and
//! `examples/` can depend on a single crate:
//!
//! * [`tensor`] — dense f32 kernels (naive/blocked/packed matmul, softmax,
//!   deterministic RNG);
//! * [`nn`] — transformer building blocks: RoPE, pre-allocated KV cache,
//!   multi-head causal attention, SwiGLU decoder blocks, greedy sampling,
//!   and the tape-replayed `forward_train` path;
//! * [`autograd`] — tape-based reverse-mode AD over `tensor`, with
//!   finite-difference gradient checks for every op;
//! * [`specdec`] — speculative decoding: batched γ-token verify, the greedy
//!   draft-then-verify loop, autoregressive reference, α/τ metrics;
//! * [`train`] — the optimizer, LR schedules, CE/KL losses, the one
//!   trainer config and the decoder training loop every recipe runs;
//! * [`mm`] — the multimodal core: LlavaSim (ViT + connector + LM), the
//!   learned KV projector, hybrid-cache speculative decoding with ablation
//!   switches, and joint draft+projector distillation;
//! * [`serve`] — the multi-session serving layer: continuous batching at
//!   speculative-block granularity, admission control, lock-free metrics,
//!   and a length-prefixed TCP front end;
//! * [`data`] — procedural multimodal workloads (WildSim / CocoCapSim /
//!   SqaSim): shape scenes rendered to image patches plus a closed-vocab
//!   grammar, seeded deterministic (image, prompt, reference) streams;
//! * [`baselines`] — the Table-1 draft zoo (FT/DT-LLaMA, FT/DT-LLaVA vs the
//!   full AASD draft) and the shared lossless speculative eval harness.

pub use aasd_autograd as autograd;
pub use aasd_baselines as baselines;
pub use aasd_data as data;
pub use aasd_mm as mm;
pub use aasd_nn as nn;
pub use aasd_serve as serve;
pub use aasd_specdec as specdec;
pub use aasd_tensor as tensor;
pub use aasd_train as train;

/// Workspace version (all crates share it).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
