//! `aasd-mm` — the multimodal core of the AASD reproduction.
//!
//! AASD (Align Speculative Decoding) accelerates multimodal LLM inference
//! by giving a small draft model an *aligned view* of the target's
//! multimodal context. This crate supplies every piece of that pipeline on
//! the pure-Rust stack:
//!
//! * [`vision`] — [`Image`] (synthetic patch tensors), the ViT
//!   [`VisionEncoder`] (a bidirectional stack of the decoder's
//!   `aasd_nn::DecoderBlock`), and the 2-layer MLP [`Connector`] into
//!   text-embedding space;
//! * [`llava`] — [`LlavaSim`], the simulated LLaVA-architecture target
//!   (vision ∥ text through the `aasd-nn` decoder via the embeds path),
//!   with `sim_7b`/`sim_13b` presets whose per-forward cost asymmetry the
//!   bench asserts;
//! * [`projector`] — the [`KvProjector`]: learned `W_K, W_V` compressing
//!   the vision slice of the target's per-layer KV into `k` rows;
//! * [`hybrid`] — the [`Ablation`] switches (`use_vision_projector`,
//!   `drop_vision_kv`, `drop_text_kv`), the one draft-cache layout a
//!   request gets ([`request_draft_len`] rows, filled by
//!   [`seed_request_draft`]) and the hybrid-cache decode paths
//!   [`mm_autoregressive_ws`] / [`mm_speculative_ws`], built on the seeded
//!   fused loops in `aasd-specdec`;
//! * [`train`] — [`teacher_sample`], the one multimodal teacher step
//!   (prefill, greedy rollout, scoring pass) every multimodal distillation
//!   recipe draws from, and [`distill_hybrid`]: joint draft+projector KL
//!   distillation on synthetic image+text rollouts, with the student graph
//!   property-tested to equal the inference path (rope offsets,
//!   `concat_rows`, `attention` under `UpTo(p)`). Its run configuration,
//!   [`HybridDistillConfig`], is `aasd_train::DistillConfig`.
//!
//! Everything is lossless by construction (greedy verification), so the
//! ablation switches move α/τ — measured, never asserted — while the output
//! tokens stay identical to autoregressive decoding.

pub mod hybrid;
pub mod llava;
pub mod projector;
pub mod train;
pub mod vision;

pub use hybrid::{
    draft_for_depth, mm_autoregressive_ws, mm_speculative_ws, request_draft_len, seed_draft_prefix,
    seed_request_draft, Ablation, DRAFT_POLICY,
};
pub use llava::{LlavaSim, LlavaSimConfig};
pub use projector::{layer_map, seed_raw_vision, KvProjector};
pub use train::{
    distill_hybrid, distill_hybrid_with, teacher_sample, DistillSource, HybridDistillConfig,
    TdAlignConfig, TeacherSample,
};
pub use vision::{Connector, Image, VisionConfig, VisionEncoder};
