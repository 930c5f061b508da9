//! The hybrid-cache speculative decode path: multimodal target prefill,
//! draft-cache seeding per ablation switch, then an `aasd-specdec` session
//! run to completion over the seeded caches. Because verification is
//! greedy, every ablation is **lossless** — the switches only move α/τ,
//! never the output tokens.

use crate::llava::{LlavaSim, LlavaSimConfig};
use crate::projector::{seed_raw_vision, KvProjector};
use crate::vision::Image;
use aasd_nn::{Decoder, DecoderConfig, KernelPolicy, KvCache};
use aasd_specdec::{ArSession, Session, SpecSession, SpecStats};
use aasd_tensor::Workspace;

/// What the draft's cache is seeded with before the speculative loop.
///
/// Semantics (checked in this order):
/// * `drop_vision_kv` — the draft gets **no** vision prefix at all; its text
///   positions start at 0 and its proposals cannot depend on the image.
///   Overrides `use_vision_projector`.
/// * `use_vision_projector` — the draft prefix is the [`KvProjector`]'s
///   `k_slots` learned rows (the AASD hybrid cache). Off → the prefix is the
///   target's raw `n_img` vision KV rows copied verbatim.
/// * `drop_text_kv` — the draft is *not* prefilled on the text prompt; it
///   enters the loop with only its vision prefix (tokens generated during
///   decoding still accumulate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ablation {
    pub use_vision_projector: bool,
    pub drop_vision_kv: bool,
    pub drop_text_kv: bool,
}

impl Ablation {
    /// The full AASD configuration: projected vision KV ∥ text KV.
    pub fn projector() -> Self {
        Self {
            use_vision_projector: true,
            drop_vision_kv: false,
            drop_text_kv: false,
        }
    }

    /// Raw (unprojected) target vision KV ∥ text KV.
    pub fn raw_vision() -> Self {
        Self {
            use_vision_projector: false,
            drop_vision_kv: false,
            drop_text_kv: false,
        }
    }

    /// Text-only draft context (the "blind draft" baseline).
    pub fn no_vision() -> Self {
        Self {
            use_vision_projector: false,
            drop_vision_kv: true,
            drop_text_kv: false,
        }
    }
}

impl Default for Ablation {
    fn default() -> Self {
        Self::projector()
    }
}

/// The kernel family every draft runs. A draft is a proposer, not an
/// oracle: greedy verification commits only tokens the target's own logits
/// choose, so the stream is lossless whatever arithmetic produced the
/// proposals, and the draft is the one model that owes nobody a bit
/// contract. Its forwards are one row each and cost the bytes they stream,
/// so it streams a quarter of them. (The target keeps the f32 path: its
/// verify must reproduce its own decode steps.)
pub const DRAFT_POLICY: KernelPolicy = KernelPolicy::Int8;

/// The one constructor of an AASD draft for a LlavaSim target: same
/// vocabulary, width, head count and context window as the target LM, a
/// dim-sized FFN and `n_layers` blocks, on [`DRAFT_POLICY`]. Sharing the
/// width is what lets the KV projector be a pure row compression — and
/// what keeps the draft from being cheap: the benchmark's two-layer draft
/// measured c = 0.18 of a target decode step in f32 (EXPERIMENTS.md § PR
/// 22 has the int8 figure), an order of magnitude above the paper's 0.016.
///
/// Every draft that runs has two layers: copying a token seen earlier in
/// the stream (an induction head) needs two attention layers, and a draft
/// that cannot copy caps its own α on any workload with self-referencing
/// text. [`crate::projector::layer_map`] spreads the draft layers over the
/// target's for KV seeding. Training reads the f32 weights through the
/// tapes, and the first fused forward after it quantizes them.
pub fn draft_for_depth(cfg: &LlavaSimConfig, n_layers: usize, seed: u64) -> Decoder {
    assert!(n_layers >= 1 && n_layers <= cfg.lm.n_layers);
    let mut draft = Decoder::new(
        DecoderConfig {
            n_layers,
            ff_hidden: cfg.lm.dim,
            ..cfg.lm.clone()
        },
        seed,
    );
    draft.set_kernel_policy(DRAFT_POLICY);
    draft
}

/// Seed an empty draft cache's vision prefix per the ablation switches and
/// return the prefix length (0, `k_slots`, or `n_img`).
pub fn seed_draft_prefix(
    model: &LlavaSim,
    projector: Option<&KvProjector>,
    ablation: Ablation,
    t_cache: &KvCache,
    d_cache: &mut KvCache,
) -> usize {
    assert!(d_cache.is_empty(), "draft cache must be empty to seed");
    match (ablation.drop_vision_kv, ablation.use_vision_projector) {
        (true, _) => {}
        (false, true) => projector
            .expect(NEEDS_PROJECTOR)
            .seed_draft_cache(t_cache, d_cache),
        (false, false) => seed_raw_vision(t_cache, d_cache, model.n_img()),
    }
    d_cache.len()
}

const NEEDS_PROJECTOR: &str = "use_vision_projector requires a KvProjector";

/// The rows [`seed_request_draft`] leaves in a request's draft cache: the
/// ablation's vision prefix, then `prompt_len` rows unless `drop_text_kv`.
pub fn request_draft_len(
    model: &LlavaSim,
    projector: Option<&KvProjector>,
    ablation: Ablation,
    prompt_len: usize,
) -> usize {
    let vision = match (ablation.drop_vision_kv, ablation.use_vision_projector) {
        (true, _) => 0,
        (false, true) => projector.expect(NEEDS_PROJECTOR).k_slots,
        (false, false) => model.n_img(),
    };
    vision + if ablation.drop_text_kv { 0 } else { prompt_len }
}

/// Seed a request's empty draft cache: [`seed_draft_prefix`] from the
/// target cache `t_cache`, then the prompt's prefill unless `drop_text_kv`.
#[allow(clippy::too_many_arguments)]
pub fn seed_request_draft(
    model: &LlavaSim,
    draft: &Decoder,
    projector: Option<&KvProjector>,
    ablation: Ablation,
    t_cache: &KvCache,
    prompt: &[u32],
    d_cache: &mut KvCache,
    ws: &mut Workspace,
) {
    seed_draft_prefix(model, projector, ablation, t_cache, d_cache);
    if !ablation.drop_text_kv {
        draft.prefill_ws(prompt, d_cache, ws);
    }
}

/// Fused multimodal autoregressive decoding: vision+text prefill, then an
/// [`ArSession`] run to completion. The token-level ground truth every
/// speculative configuration must reproduce.
pub fn mm_autoregressive_ws(
    model: &LlavaSim,
    image: &Image,
    prompt: &[u32],
    budget: usize,
    ws: &mut Workspace,
) -> Vec<u32> {
    let mut cache = model.lm.new_cache();
    let pending = model.prefill_ws(image, prompt, &mut cache, ws);
    let session = ArSession::new(&model.lm, &cache, pending, budget);
    Session::Ar(session).run(&model.lm, &mut cache, None, ws).0
}

/// Fused multimodal speculative decoding over the hybrid cache. Target
/// side: vision prefix (positions `0..n_img`) then the text prompt. Draft
/// side: the ablation-selected vision prefix, then (unless `drop_text_kv`)
/// a text prefill. The two caches then advance in lockstep through a
/// [`SpecSession`], which tolerates their length asymmetry.
/// Token-identical to [`mm_autoregressive_ws`] by greedy verification, for
/// every ablation.
#[allow(clippy::too_many_arguments)]
pub fn mm_speculative_ws(
    model: &LlavaSim,
    draft: &Decoder,
    projector: Option<&KvProjector>,
    ablation: Ablation,
    image: &Image,
    prompt: &[u32],
    budget: usize,
    gamma: usize,
    ws: &mut Workspace,
) -> (Vec<u32>, SpecStats) {
    let lm = &model.lm;
    let mut t_cache = lm.new_cache();
    let pending = model.prefill_ws(image, prompt, &mut t_cache, ws);
    let mut d_cache = draft.new_cache();
    seed_request_draft(
        model,
        draft,
        projector,
        ablation,
        &t_cache,
        prompt,
        &mut d_cache,
        ws,
    );
    let session = SpecSession::new(lm, draft, &t_cache, &d_cache, pending, budget, gamma);
    Session::Spec(session).run(lm, &mut t_cache, Some((draft, &mut d_cache)), ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aasd_tensor::Rng;

    fn setup() -> (LlavaSim, Decoder, KvProjector, Image, Vec<u32>) {
        let cfg = LlavaSimConfig::tiny(40, 96);
        let model = LlavaSim::new(cfg.clone(), 0xB0);
        let draft = draft_for_depth(&cfg, 1, 0xB1);
        let proj = KvProjector::new(
            0xB2,
            draft.cfg.n_layers,
            cfg.lm.n_layers,
            cfg.n_img(),
            cfg.k_slots(),
        );
        let img = Image::synthetic(&mut Rng::new(5), cfg.vision.n_patches, cfg.vision.patch_dim);
        let prompt = vec![3u32, 11, 25, 7];
        (model, draft, proj, img, prompt)
    }

    fn every_ablation() -> [Ablation; 5] {
        [
            Ablation::projector(),
            Ablation::raw_vision(),
            Ablation::no_vision(),
            Ablation {
                use_vision_projector: true,
                drop_vision_kv: false,
                drop_text_kv: true,
            },
            Ablation {
                use_vision_projector: false,
                drop_vision_kv: true,
                drop_text_kv: true,
            },
        ]
    }

    /// Every ablation combination must be lossless: the speculative output
    /// equals the autoregressive output token for token.
    #[test]
    fn all_ablations_are_lossless() {
        let (model, draft, proj, img, prompt) = setup();
        let mut ws = Workspace::new();
        let budget = 24;
        let reference = mm_autoregressive_ws(&model, &img, &prompt, budget, &mut ws);
        assert_eq!(reference.len(), budget);

        for abl in every_ablation() {
            for gamma in [1usize, 3, 5] {
                let (out, stats) = mm_speculative_ws(
                    &model,
                    &draft,
                    Some(&proj),
                    abl,
                    &img,
                    &prompt,
                    budget,
                    gamma,
                    &mut ws,
                );
                assert_eq!(out, reference, "lossless violated: {abl:?} γ={gamma}");
                assert_eq!(stats.generated, budget);
                assert_eq!(stats.prefill_tokens, 1);
                assert!(
                    stats.block_efficiency() <= (gamma + 1) as f64 + 1e-9,
                    "τ bound violated: {abl:?} γ={gamma}"
                );
            }
        }
    }

    /// The draft caches really are asymmetric: projector prefix is shorter
    /// than raw, raw matches the target's vision slice, no-vision is empty.
    #[test]
    fn prefix_lengths_match_ablation() {
        let (model, draft, proj, img, prompt) = setup();
        let mut ws = Workspace::new();
        let mut t_cache = model.lm.new_cache();
        model.prefill_ws(&img, &prompt, &mut t_cache, &mut ws);

        let mut c = draft.new_cache();
        let p = seed_draft_prefix(&model, Some(&proj), Ablation::projector(), &t_cache, &mut c);
        assert_eq!((p, c.len()), (model.cfg.k_slots(), model.cfg.k_slots()));

        let mut c = draft.new_cache();
        let p = seed_draft_prefix(&model, None, Ablation::raw_vision(), &t_cache, &mut c);
        assert_eq!((p, c.len()), (model.n_img(), model.n_img()));

        let mut c = draft.new_cache();
        let p = seed_draft_prefix(&model, None, Ablation::no_vision(), &t_cache, &mut c);
        assert_eq!((p, c.len()), (0, 0));

        // A request's whole draft cache lands on the row count it was
        // leased for.
        for abl in every_ablation() {
            let mut c = draft.new_cache();
            seed_request_draft(
                &model,
                &draft,
                Some(&proj),
                abl,
                &t_cache,
                &prompt,
                &mut c,
                &mut ws,
            );
            let want = request_draft_len(&model, Some(&proj), abl, prompt.len());
            assert_eq!(c.len(), want, "{abl:?}");
        }
    }

    /// A self-draft (draft = target LM) with the raw vision prefix sees
    /// exactly the target's cache state, so every proposal is accepted.
    #[test]
    fn self_draft_with_raw_prefix_accepts_everything() {
        let cfg = LlavaSimConfig::tiny(40, 96);
        let model = LlavaSim::new(cfg.clone(), 0xB5);
        let img = Image::synthetic(&mut Rng::new(8), cfg.vision.n_patches, cfg.vision.patch_dim);
        let prompt = [2u32, 9, 33];
        let mut ws = Workspace::new();
        let (out, stats) = mm_speculative_ws(
            &model,
            &model.lm,
            None,
            Ablation::raw_vision(),
            &img,
            &prompt,
            20,
            4,
            &mut ws,
        );
        let reference = mm_autoregressive_ws(&model, &img, &prompt, 20, &mut ws);
        assert_eq!(out, reference);
        assert_eq!(stats.accepted, stats.drafted, "self-draft must fully agree");
        assert!(stats.acceptance_rate() > 0.999);
    }
}
