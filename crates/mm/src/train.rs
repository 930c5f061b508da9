//! Hybrid-cache distillation: train the draft — and, in the full AASD
//! configuration, the [`KvProjector`] jointly with it — to match the
//! multimodal target's next-token distribution on the target's own greedy
//! rollouts over synthetic image+text prompts.
//!
//! The student graph is `Decoder::forward_train` behind a per-layer K/V
//! prefix, which mirrors the *inference* path exactly (text roped at
//! positions offset by the prefix length, prefix rows attended un-rotated).
//! This module only builds the prefix nodes: in the projector configuration
//! they are `W_K[l]·K_vis` tape products, so gradients flow into the
//! projector — this is what makes the hybrid cache *trainable* end to end.
//!
//! The graph is property-tested against the live inference path: the
//! tape's logits must equal `Decoder::forward_infer` over a seeded cache.
//!
//! [`teacher_sample`] is the one place the multimodal target acts as a
//! teacher: fused prefill, greedy rollout, and the allocating scoring pass
//! that yields the frozen probability rows. The hybrid recipe here and the
//! baseline zoo's DT recipes all draw their examples from it.

use crate::hybrid::Ablation;
use crate::llava::LlavaSim;
use crate::projector::KvProjector;
use crate::vision::Image;
use aasd_autograd::{Tape, VarId, Visible};
use aasd_nn::{Decoder, KvCache};
use aasd_specdec::{ArSession, Session};
use aasd_tensor::{Rng, Tensor, Workspace};
use aasd_train::{kv_leaves, random_prompt, sharpen_to_probs, Adam, DistillConfig};

/// The run configuration of [`distill_hybrid`]: the one trainer config.
pub use aasd_train::DistillConfig as HybridDistillConfig;

/// Build the draft's per-layer K/V prefix nodes for one example, per the
/// ablation switches (the tape twin of [`seed_draft_prefix`]): none
/// (`drop_vision_kv`), the target's frozen vision rows over the layer map
/// (raw vision), or the `W_K[l]·K_vis` / `W_V[l]·V_vis` products over
/// projector leaves. Returns the prefix pairs for
/// [`Decoder::forward_train`] and the projector leaves in canonical
/// [`KvProjector::visit_params_mut`] order (empty unless projected).
fn prefix_nodes(
    tape: &mut Tape,
    draft_layers: usize,
    projector: Option<&KvProjector>,
    ablation: Ablation,
    t_cache: &KvCache,
    n_img: usize,
) -> (Vec<(VarId, VarId)>, Vec<VarId>) {
    if ablation.drop_vision_kv {
        return (Vec::new(), Vec::new());
    }
    if !ablation.use_vision_projector {
        let map = crate::projector::layer_map(draft_layers, t_cache.n_layers());
        let rows = map
            .iter()
            .map(|&src| kv_leaves(tape, t_cache, src, 0..n_img))
            .collect();
        return (rows, Vec::new());
    }
    let proj = projector.expect("use_vision_projector requires a KvProjector");
    let mut proj_params = Vec::with_capacity(2 * draft_layers);
    let mut rows = Vec::with_capacity(draft_layers);
    for l in 0..draft_layers {
        let (wk, wv) = (tape.leaf(proj.wk[l].clone()), tape.leaf(proj.wv[l].clone()));
        let (kvis, vvis) = kv_leaves(tape, t_cache, proj.map[l], 0..n_img);
        rows.push((tape.matmul(wk, kvis), tape.matmul(wv, vvis)));
        proj_params.extend([wk, wv]);
    }
    (rows, proj_params)
}

/// One self-distillation sample of the multimodal target (see
/// [`teacher_sample`]).
pub struct TeacherSample {
    /// `prompt ‖ greedy continuation`, truncated: what the student trains on.
    pub tokens: Vec<u32>,
    /// `[tokens.len(), vocab]` temperature-sharpened teacher rows.
    pub probs: Tensor,
    /// The fused rollout's cache; its rows `0..n_img` are the vision prefix
    /// a hybrid student trains behind.
    pub rollout: KvCache,
    /// The scoring pass's cache: vision prefix ∥ **all** `tokens` rows, so
    /// its last-layer text K/V rows are the target hidden states the
    /// `TdAttention` alignment loss attends over.
    pub scored: KvCache,
}

/// The target's vision-conditioned teaching on one (image, prompt): fused
/// prefill of image ∥ prompt, a greedy rollout of `gen_len` tokens clamped
/// to the cache's room, `prompt ‖ rollout` truncated to `max_len`, and the
/// allocating pass that scores those tokens behind the image into
/// temperature-sharpened probability rows — the frozen teacher matrix every
/// multimodal distillation loop pins its student against.
pub fn teacher_sample(
    model: &LlavaSim,
    image: &Image,
    prompt: &[u32],
    gen_len: usize,
    max_len: usize,
    temperature: f32,
    ws: &mut Workspace,
) -> TeacherSample {
    let lm = &model.lm;
    // One tower pass feeds both the rollout's vision leg and the scoring pass.
    let embeds = model.encode_image(image);
    let mut rollout = lm.new_cache();
    model.prefill_embeds_ws(&embeds, &mut rollout, ws);
    let pending = model.prefill_text_ws(prompt, &mut rollout, ws);
    // The session feeds back all but the final committed token, so the
    // feasible budget is the remaining room plus one (`ArSession` asserts).
    let room = lm.cfg.max_seq.min(rollout.capacity()) + 1 - rollout.len();
    let session = ArSession::new(lm, &rollout, pending, gen_len.min(room));
    let (gen, _) = Session::Ar(session).run(lm, &mut rollout, None, ws);
    let mut tokens = [prompt, &gen].concat();
    tokens.truncate(max_len);

    let mut scored = lm.new_cache();
    lm.forward_infer_embeds(&embeds, &mut scored);
    let probs = sharpen_to_probs(lm.forward_infer(&tokens, &mut scored), temperature);
    TeacherSample {
        tokens,
        probs,
        rollout,
        scored,
    }
}

/// Target-Draft Attention alignment term (DESIGN.md §2.8): during
/// distillation, an auxiliary head runs the draft's first-block queries
/// through [`Tape::attention`] — over the **target's** text K/V rows outside
/// the window (`Before(w)`) and the draft's own rows inside it (`Window(w)`)
/// — and adds `weight ×` the KL of that branch's logits to the main loss.
/// Pulling this branch toward the teacher aligns the draft's attention
/// geometry with the target's hidden states, exactly the regime speculation
/// decodes in (old context = target-verified, recent `window` tokens = draft).
#[derive(Debug, Clone, Copy)]
pub struct TdAlignConfig {
    /// Draft window `w ≥ 1`: positions `i−w < j ≤ i` use draft K/V, older
    /// positions use target K/V. Matching the speculation depth γ is the
    /// natural choice.
    pub window: usize,
    /// Multiplier on the auxiliary KL before it is added to the main loss.
    pub weight: f32,
}

/// One (image, prompt) training sample drawn per distillation step. The
/// default stream is synthetic; `aasd-data` workloads plug in here.
pub type DistillSource<'a> = &'a mut dyn FnMut(usize, &mut Rng) -> (Image, Vec<u32>);

/// Hybrid-cache distillation (the AASD alignment recipe, multimodal
/// flavour): per step, draw a synthetic image and random prompt, let the
/// frozen target greedily continue, and train the draft — plus the
/// projector when `ablation.use_vision_projector` — to match the target's
/// (vision-conditioned) next-token distribution via sequence KL. Returns
/// per-step pre-update losses.
pub fn distill_hybrid(
    model: &LlavaSim,
    draft: &mut Decoder,
    projector: Option<&mut KvProjector>,
    ablation: Ablation,
    cfg: &DistillConfig,
) -> Vec<f32> {
    let (n_img, patch_dim) = (model.n_img(), model.cfg.vision.patch_dim);
    let (vocab, prompt_len) = (model.cfg.lm.vocab, cfg.prompt_len);
    let mut source = move |_step: usize, rng: &mut Rng| {
        let image = Image::synthetic(rng, n_img, patch_dim);
        let prompt = random_prompt(rng, prompt_len, vocab);
        (image, prompt)
    };
    distill_hybrid_with(model, draft, projector, ablation, cfg, None, &mut source)
}

/// [`distill_hybrid`] with a pluggable sample source and an optional
/// [`TdAlignConfig`] auxiliary loss. The source is drawn once per step with
/// the loop's seeded RNG; `aasd-data` workloads and the baseline zoo feed
/// real (image, prompt) pairs through here, and the full AASD draft enables
/// the TdAttention alignment term.
pub fn distill_hybrid_with(
    model: &LlavaSim,
    draft: &mut Decoder,
    mut projector: Option<&mut KvProjector>,
    ablation: Ablation,
    cfg: &DistillConfig,
    td: Option<TdAlignConfig>,
    source: DistillSource<'_>,
) -> Vec<f32> {
    let vocab = model.cfg.lm.vocab;
    assert_eq!(draft.cfg.vocab, vocab, "draft/target vocab mismatch");
    assert_eq!(
        draft.cfg.dim, model.cfg.lm.dim,
        "projector needs equal dims"
    );
    let n_img = model.n_img();
    let mut rng = Rng::new(cfg.seed);
    let mut ws = Workspace::new();
    let mut opt = Adam::new();
    let mut losses = Vec::with_capacity(cfg.steps);
    let max_text = model.cfg.lm.max_seq - n_img;

    for step in 0..cfg.steps {
        // -- teacher side: sample, rollout, vision-conditioned probs ------
        let (image, prompt) = source(step, &mut rng);
        assert!(
            n_img + prompt.len() + cfg.gen_len <= model.cfg.lm.max_seq,
            "rollout exceeds target context"
        );
        let TeacherSample {
            tokens,
            probs,
            rollout,
            scored,
        } = teacher_sample(
            model,
            &image,
            &prompt,
            cfg.gen_len,
            max_text,
            cfg.temperature,
            &mut ws,
        );

        // -- student side: tape forward, KL (+ TD align), joint update ----
        // The student prefix reads only the rollout cache's rows 0..n_img,
        // which the rollout never touched.
        let mut tape = Tape::new();
        let (prefix, proj_params) = prefix_nodes(
            &mut tape,
            draft.cfg.n_layers,
            projector.as_deref(),
            ablation,
            &rollout,
            n_img,
        );
        let (logits, params) = draft.forward_train(&mut tape, &tokens, &prefix);
        let mut loss = tape.kl_div(logits, probs.clone());
        if let Some(td) = td {
            let aux = td_align_loss(
                &mut tape, draft, &params, &tokens, &scored, n_img, probs, td,
            );
            loss = tape.add(loss, aux);
        }
        losses.push(tape.value(loss).data[0]);
        let grads = tape.backward(loss);

        // Draft slots first, then the projector's.
        let lr = cfg.schedule.lr(step);
        opt.step(lr, &grads, &params, 0, |f| draft.visit_params_mut(f));
        if !proj_params.is_empty() {
            let proj = projector.as_deref_mut().expect("projector present");
            opt.step(lr, &grads, &proj_params, params.len(), |f| {
                proj.visit_params_mut(f)
            });
        }
    }
    losses
}

/// Build the TdAttention alignment branch on the SAME tape as the main KL
/// loss, reusing the draft's parameter leaves from
/// [`Decoder::forward_train`] (leaf
/// layout: `params[0]` = embed, block-`l` leaves at `1 + 9l` =
/// `[attn_gain, wq, wk, wv, wo, mlp_gain, w1, w2, w3]`, then final_gain and
/// head), so gradients from both losses accumulate at the shared weights.
/// The target side enters as frozen leaves: the scored cache's last-layer
/// text K/V rows at positions `n_img..n_img+t`.
#[allow(clippy::too_many_arguments)]
fn td_align_loss(
    tape: &mut Tape,
    draft: &Decoder,
    params: &[VarId],
    tokens: &[u32],
    scored: &KvCache,
    n_img: usize,
    teacher: Tensor,
    td: TdAlignConfig,
) -> VarId {
    let t = tokens.len();
    let n_heads = draft.cfg.n_heads;
    let (cos, sin) = draft.rope.tables_range(0, t);

    // Target text K/V from the deepest scored layer: rows n_img..n_img+t.
    let (tk, tv) = kv_leaves(tape, scored, scored.n_layers() - 1, n_img..n_img + t);

    // Draft Q/K/V from the first block's projections over shared leaves.
    let (embed, attn_gain, wq, wk, wv, wo) = (
        params[0], params[1], params[2], params[3], params[4], params[5],
    );
    let x0 = tape.embed_gather(embed, tokens);
    let h = tape.rms_norm(x0, attn_gain, draft.blocks[0].attn_norm.eps);
    let q = tape.matmul(h, wq);
    let dk = tape.matmul(h, wk);
    let dv = tape.matmul(h, wv);
    let q = tape.rope(q, n_heads, cos.clone(), sin.clone());
    let dk = tape.rope(dk, n_heads, cos, sin);
    let (before, window) = (Visible::Before(td.window), Visible::Window(td.window));
    let ctx = tape.attention(q, &[(tk, tv, before), (dk, dv, window)], n_heads);
    let o = tape.matmul(ctx, wo);
    let x1 = tape.add(x0, o);

    // Straight to the shared head: final norm + lm_head leaves.
    let final_gain = params[params.len() - 2];
    let head = params[params.len() - 1];
    let xn = tape.rms_norm(x1, final_gain, draft.final_norm.eps);
    let logits = tape.matmul(xn, head);
    let kl = tape.kl_div(logits, teacher);
    tape.scale(kl, td.weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::{draft_for_depth, mm_autoregressive_ws, seed_draft_prefix};
    use crate::llava::LlavaSimConfig;

    /// The hybrid tests' run: the canonical smoke run at rollout length 14.
    fn smoke(steps: usize, seed: u64) -> DistillConfig {
        DistillConfig {
            gen_len: 14,
            ..DistillConfig::smoke(steps, seed)
        }
    }

    fn setup() -> (LlavaSim, Decoder, KvProjector, Image, Vec<u32>, KvCache) {
        let cfg = LlavaSimConfig::tiny(30, 96);
        let model = LlavaSim::new(cfg.clone(), 0xC0);
        let draft = draft_for_depth(&cfg, 1, 0xC1);
        let proj = KvProjector::new(
            0xC2,
            draft.cfg.n_layers,
            cfg.lm.n_layers,
            cfg.n_img(),
            cfg.k_slots(),
        );
        let img = Image::synthetic(&mut Rng::new(4), cfg.vision.n_patches, cfg.vision.patch_dim);
        let prompt = vec![5u32, 19, 2, 28, 11];
        let mut ws = Workspace::new();
        let mut t_cache = model.lm.new_cache();
        model.prefill_ws(&img, &prompt, &mut t_cache, &mut ws);
        (model, draft, proj, img, prompt, t_cache)
    }

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    /// FNV-1a over the bits of every per-step loss: the recipe's training
    /// fingerprint, one constant for both kernel tiers.
    fn loss_bits(losses: &[f32]) -> u64 {
        aasd_tensor::fnv1a(losses.iter().map(|l| l.to_bits() as u64))
    }

    /// THE consistency test: for every ablation, the tape-built student
    /// logits must equal the draft's live inference logits over a cache
    /// seeded by the corresponding inference-path seeding — training and
    /// decoding see the same function.
    #[test]
    fn student_graph_matches_inference_path() {
        let (model, draft, proj, _img, prompt, t_cache) = setup();
        for abl in [
            Ablation::projector(),
            Ablation::raw_vision(),
            Ablation::no_vision(),
        ] {
            // Inference side: seed the draft cache, feed the tokens.
            let mut d_cache = draft.new_cache();
            seed_draft_prefix(&model, Some(&proj), abl, &t_cache, &mut d_cache);
            let want = draft.forward_infer(&prompt, &mut d_cache);

            // Training side: tape graph with the same prefix.
            let mut tape = Tape::new();
            let (prefix, _) = prefix_nodes(
                &mut tape,
                draft.cfg.n_layers,
                Some(&proj),
                abl,
                &t_cache,
                model.n_img(),
            );
            let (logits, _) = draft.forward_train(&mut tape, &prompt, &prefix);
            let got = tape.value(logits);
            let diff = max_abs_diff(&got.data, &want.data);
            assert!(diff < 1e-3, "train/inference mismatch for {abl:?}: {diff}");
        }
    }

    /// Joint distillation must reduce the KL loss, and in the projector
    /// configuration must actually move the projector weights.
    #[test]
    fn distill_hybrid_learns_and_updates_projector() {
        let (model, mut draft, mut proj, _, _, _) = setup();
        let wk_before = proj.wk[0].data.clone();
        let cfg = smoke(20, 0xD1);
        let losses = distill_hybrid(
            &model,
            &mut draft,
            Some(&mut proj),
            Ablation::projector(),
            &cfg,
        );
        assert_eq!(losses.len(), 20);
        let head: f32 = losses[..5].iter().sum::<f32>() / 5.0;
        let tail: f32 = losses[15..].iter().sum::<f32>() / 5.0;
        assert!(
            tail < head,
            "hybrid distillation loss did not trend down: {head} -> {tail}"
        );
        assert!(
            max_abs_diff(&proj.wk[0].data, &wk_before) > 1e-6,
            "projector weights never updated"
        );
    }

    /// The TdAttention alignment term must leave the loss finite and still
    /// trend down, and a frozen-prefix baseline graph must match the live
    /// inference path over the same own-vision prefix.
    #[test]
    fn distill_hybrid_with_td_alignment_trains() {
        let (model, mut draft, mut proj, _, _, _) = setup();
        let cfg = smoke(16, 0xD7);
        let (n_img, patch_dim) = (model.n_img(), model.cfg.vision.patch_dim);
        let vocab = model.cfg.lm.vocab;
        let mut source = move |_s: usize, rng: &mut Rng| {
            (
                Image::synthetic(rng, n_img, patch_dim),
                random_prompt(rng, 4, vocab),
            )
        };
        let td = TdAlignConfig {
            window: 3,
            weight: 0.5,
        };
        let losses = distill_hybrid_with(
            &model,
            &mut draft,
            Some(&mut proj),
            Ablation::projector(),
            &cfg,
            Some(td),
            &mut source,
        );
        assert_eq!(losses.len(), 16);
        assert!(losses.iter().all(|l| l.is_finite() && *l >= -1e-5));
        let head: f32 = losses[..4].iter().sum::<f32>() / 4.0;
        let tail: f32 = losses[12..].iter().sum::<f32>() / 4.0;
        assert!(
            tail < head,
            "TD-aligned distillation did not trend down: {head} -> {tail}"
        );
        assert_eq!(
            loss_bits(&losses),
            0xed3b_9c4e_cf79_c806,
            "training bits moved"
        );
    }

    /// `forward_train` behind a VLM's own frozen vision rows must equal
    /// that VLM's live inference logits after a vision prefill — the
    /// baseline zoo's training graph sees the same function its decoding
    /// uses.
    #[test]
    fn frozen_prefix_logits_matches_own_vision_inference() {
        let (model, _, _, img, prompt, _) = setup();
        let mut cache = model.lm.new_cache();
        let embeds = model.encode_image(&img);
        model.lm.forward_infer_embeds(&embeds, &mut cache);
        let want = model.lm.forward_infer(&prompt, &mut cache);
        let mut tape = Tape::new();
        let rows: Vec<_> = (0..model.cfg.lm.n_layers)
            .map(|l| kv_leaves(&mut tape, &cache, l, 0..model.n_img()))
            .collect();
        let (logits, params) = model.lm.forward_train(&mut tape, &prompt, &rows);
        assert_eq!(params.len(), model.lm.n_param_tensors());
        let diff = max_abs_diff(&tape.value(logits).data, &want.data);
        assert!(
            diff < 1e-3,
            "frozen-prefix train/inference mismatch: {diff}"
        );
    }

    /// The one teacher step: its tokens are `prompt ‖` the target's own
    /// greedy stream, clamped to the cache's room and truncated to
    /// `max_len`; its rows are distributions; its scored cache holds the
    /// vision prefix and every token.
    #[test]
    fn teacher_sample_is_the_clamped_truncated_greedy_rollout() {
        let (model, _, _, img, prompt, _) = setup();
        let mut ws = Workspace::new();
        let n_img = model.n_img();
        let max_text = model.cfg.lm.max_seq - n_img;
        let room = max_text + 1 - prompt.len();
        for (gen_len, max_len) in [(6, max_text), (6, 8), (room + 5, max_text)] {
            let s = teacher_sample(&model, &img, &prompt, gen_len, max_len, 0.5, &mut ws);
            let gen = mm_autoregressive_ws(&model, &img, &prompt, gen_len.min(room), &mut ws);
            let mut want = [&prompt[..], &gen].concat();
            want.truncate(max_len);
            assert_eq!(s.tokens, want, "gen_len {gen_len}, max_len {max_len}");
            assert_eq!(s.probs.rows, s.tokens.len());
            for r in 0..s.probs.rows {
                let sum: f32 = s.probs.row(r).iter().sum();
                assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
            }
            assert_eq!(s.scored.len(), n_img + s.tokens.len());
            assert_eq!(s.rollout.len(), n_img + prompt.len() + gen.len() - 1);
        }
    }

    /// The no-vision ablation must also train (it is the baseline leg of
    /// the Table-2 comparison) without needing a projector at all.
    #[test]
    fn distill_hybrid_no_vision_runs_without_projector() {
        let (model, mut draft, _, _, _, _) = setup();
        let cfg = smoke(8, 0xD2);
        let losses = distill_hybrid(&model, &mut draft, None, Ablation::no_vision(), &cfg);
        assert_eq!(losses.len(), 8);
        assert!(losses.iter().all(|l| l.is_finite()));
    }
}
