//! Hybrid-cache distillation: train the draft — and, in the full AASD
//! configuration, the [`KvProjector`] jointly with it — to match the
//! multimodal target's next-token distribution on the target's own greedy
//! rollouts over synthetic image+text prompts.
//!
//! The student graph mirrors the *inference* path exactly:
//! * text tokens are roped at positions offset by the draft's vision-prefix
//!   length (`Rope::tables_range(p, t)`), because at decode time the prefix
//!   occupies cache positions `0..p`;
//! * the prefix K/V rows enter attention un-rotated via
//!   `Tape::concat_rows` + `Tape::prefix_causal_attention`, the tape twins
//!   of `LayerKv::append` + cached attention over a pre-seeded prefix;
//! * in the projector configuration the prefix rows are
//!   `W_K[l]·K_vis` tape products, so gradients flow into the projector —
//!   this is what makes the hybrid cache *trainable* end to end.
//!
//! `student_logits` is property-tested against the live inference path: the
//! tape's logits must equal `Decoder::forward_infer` over a seeded cache.

use crate::hybrid::Ablation;
use crate::llava::LlavaSim;
use crate::projector::KvProjector;
use crate::vision::Image;
use aasd_autograd::{Tape, VarId};
use aasd_nn::{Decoder, KvCache};
use aasd_tensor::{Rng, Tensor, Workspace};
use aasd_train::{random_prompt, rollout_inputs, sharpen_to_probs, Adam, Optimizer, Schedule};

/// Per-draft-layer prefix K/V rows, as constants or as tape products.
enum PrefixRows {
    /// No vision prefix (`drop_vision_kv`).
    None,
    /// Frozen rows (raw-vision ablation): `[p, dim]` constants per layer.
    Frozen(Vec<(Tensor, Tensor)>),
    /// Projector rows: the `[n_img, dim]` vision KV constants per layer;
    /// the graph multiplies them by the projector leaves.
    Projected(Vec<(Tensor, Tensor)>),
}

/// Extract target layer `src`'s vision KV slice as `[n_img, dim]` tensors.
fn vision_slice(t_cache: &KvCache, src: usize, n_img: usize) -> (Tensor, Tensor) {
    let layer = t_cache.layer(src);
    assert!(layer.len() >= n_img, "target cache lacks vision prefix");
    let dim = t_cache.dim();
    let mut k = Tensor::zeros(n_img, dim);
    let mut v = Tensor::zeros(n_img, dim);
    for pos in 0..n_img {
        k.row_mut(pos).copy_from_slice(layer.key(pos));
        v.row_mut(pos).copy_from_slice(layer.value(pos));
    }
    (k, v)
}

/// Build the hybrid-cache student forward on `tape`: the draft decoder over
/// `tokens`, roped at positions `prefix_len..prefix_len+t`, attending over
/// the given prefix rows. Returns the `[t, vocab]` logits node, the draft
/// parameter leaves (canonical `visit_params_mut` order), and the projector
/// parameter leaves (canonical [`KvProjector::visit_params_mut`] order,
/// empty unless `PrefixRows::Projected`).
fn student_logits(
    tape: &mut Tape,
    draft: &Decoder,
    projector: Option<&KvProjector>,
    tokens: &[u32],
    prefix_len: usize,
    prefix: &PrefixRows,
) -> (VarId, Vec<VarId>, Vec<VarId>) {
    let t = tokens.len();
    let dim = draft.cfg.dim;
    assert!(prefix_len + t <= draft.cfg.max_seq, "exceeds draft max_seq");
    let (cos, sin) = draft.rope.tables_range(prefix_len, t);

    // Projector leaves first (ids are position-independent), collected in
    // visitor order: per layer wk, wv.
    let mut proj_params = Vec::new();
    if let PrefixRows::Projected(_) = prefix {
        let proj = projector.expect("projected prefix requires a KvProjector");
        for l in 0..proj.wk.len() {
            proj_params.push(tape.leaf(proj.wk[l].clone()));
            proj_params.push(tape.leaf(proj.wv[l].clone()));
        }
    }

    let embed = tape.leaf(draft.embed.table.clone());
    let mut params = vec![embed];
    let mut x = tape.embed_gather(embed, tokens);
    for (l, block) in draft.blocks.iter().enumerate() {
        let attn_gain = tape.leaf(Tensor::from_vec(block.attn_norm.gain.clone(), 1, dim));
        let wq = tape.leaf(block.attn.wq.w().clone());
        let wk = tape.leaf(block.attn.wk.w().clone());
        let wv = tape.leaf(block.attn.wv.w().clone());
        let wo = tape.leaf(block.attn.wo.w().clone());
        let mlp_gain = tape.leaf(Tensor::from_vec(block.mlp_norm.gain.clone(), 1, dim));
        let w1 = tape.leaf(block.mlp.w1.w().clone());
        let w2 = tape.leaf(block.mlp.w2.w().clone());
        let w3 = tape.leaf(block.mlp.w3.w().clone());
        params.extend([attn_gain, wq, wk, wv, wo, mlp_gain, w1, w2, w3]);

        let h = tape.rms_norm(x, attn_gain, block.attn_norm.eps);
        let q = tape.matmul(h, wq);
        let k = tape.matmul(h, wk);
        let v = tape.matmul(h, wv);
        let q = tape.rope(q, draft.cfg.n_heads, cos.clone(), sin.clone());
        let k = tape.rope(k, draft.cfg.n_heads, cos.clone(), sin.clone());
        let a = match prefix {
            PrefixRows::None => tape.causal_attention(q, k, v, draft.cfg.n_heads),
            PrefixRows::Frozen(rows) => {
                let pk = tape.leaf(rows[l].0.clone());
                let pv = tape.leaf(rows[l].1.clone());
                let kk = tape.concat_rows(pk, k);
                let vv = tape.concat_rows(pv, v);
                tape.prefix_causal_attention(q, kk, vv, draft.cfg.n_heads, prefix_len)
            }
            PrefixRows::Projected(slices) => {
                let kvis = tape.leaf(slices[l].0.clone());
                let vvis = tape.leaf(slices[l].1.clone());
                let pk = tape.matmul(proj_params[2 * l], kvis);
                let pv = tape.matmul(proj_params[2 * l + 1], vvis);
                let kk = tape.concat_rows(pk, k);
                let vv = tape.concat_rows(pv, v);
                tape.prefix_causal_attention(q, kk, vv, draft.cfg.n_heads, prefix_len)
            }
        };
        let a = tape.matmul(a, wo);
        x = tape.add(x, a);

        let h = tape.rms_norm(x, mlp_gain, block.mlp_norm.eps);
        let gate = tape.matmul(h, w1);
        let up = tape.matmul(h, w3);
        let gate = tape.silu(gate);
        let gu = tape.mul(gate, up);
        let m = tape.matmul(gu, w2);
        x = tape.add(x, m);
    }
    let final_gain = tape.leaf(Tensor::from_vec(draft.final_norm.gain.clone(), 1, dim));
    let head = tape.leaf(draft.lm_head.w().clone());
    params.push(final_gain);
    params.push(head);
    let xn = tape.rms_norm(x, final_gain, draft.final_norm.eps);
    let logits = tape.matmul(xn, head);
    (logits, params, proj_params)
}

/// Assemble the [`PrefixRows`] the student graph needs for one example, per
/// the ablation switches (mirrors [`seed_draft_prefix`]).
fn prefix_rows_for(
    draft_layers: usize,
    projector: Option<&KvProjector>,
    ablation: Ablation,
    t_cache: &KvCache,
    n_img: usize,
) -> (usize, PrefixRows) {
    if ablation.drop_vision_kv {
        return (0, PrefixRows::None);
    }
    if ablation.use_vision_projector {
        let proj = projector.expect("use_vision_projector requires a KvProjector");
        let slices = (0..draft_layers)
            .map(|l| vision_slice(t_cache, proj.map[l], n_img))
            .collect();
        (proj.k_slots, PrefixRows::Projected(slices))
    } else {
        let map = crate::projector::layer_map(draft_layers, t_cache.n_layers());
        let rows = map
            .iter()
            .map(|&src| vision_slice(t_cache, src, n_img))
            .collect();
        (n_img, PrefixRows::Frozen(rows))
    }
}

/// Configuration for [`distill_hybrid`].
#[derive(Debug, Clone)]
pub struct HybridDistillConfig {
    /// Optimisation steps (one image + rollout each).
    pub steps: usize,
    /// Random text-prompt length per step.
    pub prompt_len: usize,
    /// Greedy continuation length the target generates per step.
    pub gen_len: usize,
    pub schedule: Schedule,
    /// Distillation temperature (< 1 sharpens toward the target's argmax,
    /// the quantity greedy acceptance actually measures).
    pub temperature: f32,
    /// Seed for the image/prompt stream. Train ablation variants with the
    /// SAME seed so they see identical data.
    pub seed: u64,
}

impl HybridDistillConfig {
    /// A short deterministic run sized for tests and smoke benches.
    pub fn smoke(steps: usize, seed: u64) -> Self {
        Self {
            steps,
            prompt_len: 4,
            gen_len: 14,
            schedule: Schedule::Cosine {
                base: 2e-2,
                floor: 2e-3,
                total: steps,
            },
            temperature: 0.2,
            seed,
        }
    }
}

/// The target's vision-conditioned next-token distribution over `tokens`:
/// `[t, vocab]` temperature-sharpened probability rows. This is the frozen
/// teacher matrix every multimodal distillation loop (hybrid AASD and the
/// baseline zoo) pins its student against.
pub fn mm_teacher_probs(
    model: &LlavaSim,
    image: &Image,
    tokens: &[u32],
    temperature: f32,
) -> Tensor {
    mm_teacher_scored(model, image, tokens, temperature).0
}

/// [`mm_teacher_probs`] plus the scored target cache: the returned cache
/// holds the vision prefix ∥ **all** `tokens` rows, so its last-layer text
/// K/V slices are exactly the target hidden states the `TdAttention`
/// alignment loss attends over.
pub fn mm_teacher_scored(
    model: &LlavaSim,
    image: &Image,
    tokens: &[u32],
    temperature: f32,
) -> (Tensor, KvCache) {
    let embeds = model.encode_image(image);
    let mut cache = model.lm.new_cache();
    model.lm.forward_infer_embeds(&embeds, &mut cache);
    let logits = model.lm.forward_infer(tokens, &mut cache);
    (sharpen_to_probs(logits, temperature), cache)
}

/// The per-layer `[n_img, dim]` vision K/V rows of `vlm`'s **own** LM over
/// `image` (identity layer map). This is the frozen prefix a `TinyVlm`
/// baseline student trains behind — its training-time twin of
/// `prefill_vision_ws`, used by the `aasd-baselines` zoo.
pub fn own_vision_rows(vlm: &LlavaSim, image: &Image) -> Vec<(Tensor, Tensor)> {
    let embeds = vlm.encode_image(image);
    let mut cache = vlm.lm.new_cache();
    vlm.lm.forward_infer_embeds(&embeds, &mut cache);
    (0..vlm.cfg.lm.n_layers)
        .map(|l| vision_slice(&cache, l, vlm.n_img()))
        .collect()
}

/// Tape forward of `lm` over `tokens` behind a frozen per-layer K/V prefix
/// (`prefix[l]` are layer `l`'s `[p, dim]` rows; an empty slice means no
/// prefix at all). Returns the `[t, vocab]` logits node plus the parameter
/// leaves in canonical `visit_params_mut` order — the bridge that lets the
/// baseline zoo train text-behind-vision students through the generic
/// `aasd-train` machinery.
pub fn frozen_prefix_logits(
    tape: &mut Tape,
    lm: &Decoder,
    tokens: &[u32],
    prefix: &[(Tensor, Tensor)],
) -> (VarId, Vec<VarId>) {
    let (prefix_len, rows) = if prefix.is_empty() {
        (0, PrefixRows::None)
    } else {
        assert_eq!(prefix.len(), lm.cfg.n_layers, "one K/V pair per layer");
        (prefix[0].0.rows, PrefixRows::Frozen(prefix.to_vec()))
    };
    let (logits, params, proj) = student_logits(tape, lm, None, tokens, prefix_len, &rows);
    debug_assert!(proj.is_empty());
    (logits, params)
}

/// Target-Draft Attention alignment term (DESIGN.md §2.8): during
/// distillation, an auxiliary head runs the draft's first-block queries
/// through [`Tape::td_attention`] — attending over the **target's** text
/// K/V rows outside the window and the draft's own rows inside it — and
/// adds `weight ×` the KL of that branch's logits to the main loss. Pulling
/// this branch toward the teacher aligns the draft's attention geometry
/// with the target's hidden states, exactly the regime speculation decodes
/// in (old context = target-verified, recent `window` tokens = draft).
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
    cfg: &HybridDistillConfig,
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
    cfg: &HybridDistillConfig,
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
    let n_draft_slots = draft.n_param_tensors();
    let max_text = model.cfg.lm.max_seq - n_img;

    for step in 0..cfg.steps {
        // -- teacher side: sample, rollout, vision-conditioned probs ------
        let (image, prompt) = source(step, &mut rng);
        assert!(!prompt.is_empty(), "empty prompt from distill source");
        assert!(
            n_img + prompt.len() + cfg.gen_len <= model.cfg.lm.max_seq,
            "rollout exceeds target context"
        );
        let mut t_cache = model.lm.new_cache();
        let pending = model.prefill_ws(&image, &prompt, &mut t_cache, &mut ws);
        let tokens = rollout_inputs(
            &model.lm,
            &mut t_cache,
            &prompt,
            pending,
            cfg.gen_len,
            max_text,
            &mut ws,
        );
        let (teacher, scored) = mm_teacher_scored(model, &image, &tokens, cfg.temperature);

        // The rollout above consumed t_cache past the prefix; the student
        // prefix must come from a cache holding prefix + text only — any
        // state ≥ n_img rows works since we slice rows 0..n_img, which the
        // rollout never touched (truncate is O(1) and appends happen past
        // the committed frontier).
        let (prefix_len, prefix) = prefix_rows_for(
            draft.cfg.n_layers,
            projector.as_deref(),
            ablation,
            &t_cache,
            n_img,
        );

        // -- student side: tape forward, KL (+ TD align), joint update ----
        let mut tape = Tape::new();
        let (logits, params, proj_params) = student_logits(
            &mut tape,
            draft,
            projector.as_deref(),
            &tokens,
            prefix_len,
            &prefix,
        );
        let mut loss = tape.kl_div(logits, teacher.clone());
        if let Some(td) = td {
            let aux = td_align_loss(
                &mut tape, draft, &params, &tokens, &scored, n_img, teacher, td,
            );
            loss = tape.add(loss, aux);
        }
        losses.push(tape.value(loss).data[0]);
        let grads = tape.backward(loss);

        let lr = cfg.schedule.lr(step);
        opt.begin_step(lr);
        let mut slot = 0usize;
        draft.visit_params_mut(&mut |_, param| {
            if let Some(g) = grads.get(params[slot]) {
                opt.update(slot, param, &g.data);
            }
            slot += 1;
        });
        debug_assert_eq!(slot, n_draft_slots);
        if !proj_params.is_empty() {
            let proj = projector.as_deref_mut().expect("projector present");
            let mut p_slot = 0usize;
            proj.visit_params_mut(&mut |_, param| {
                if let Some(g) = grads.get(proj_params[p_slot]) {
                    opt.update(n_draft_slots + p_slot, param, &g.data);
                }
                p_slot += 1;
            });
        }
    }
    losses
}

/// Build the TdAttention alignment branch on the SAME tape as the main KL
/// loss, reusing the draft's parameter leaves from [`student_logits`] (leaf
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
    let dim = draft.cfg.dim;
    let n_heads = draft.cfg.n_heads;
    let (cos, sin) = draft.rope.tables_range(0, t);

    // Target text K/V from the deepest scored layer: rows n_img..n_img+t.
    let last = scored.n_layers() - 1;
    let layer = scored.layer(last);
    assert!(layer.len() >= n_img + t, "scored cache lacks text rows");
    let mut tk = Tensor::zeros(t, dim);
    let mut tv = Tensor::zeros(t, dim);
    for i in 0..t {
        tk.row_mut(i).copy_from_slice(layer.key(n_img + i));
        tv.row_mut(i).copy_from_slice(layer.value(n_img + i));
    }
    let tk = tape.leaf(tk);
    let tv = tape.leaf(tv);

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
    let ctx = tape.td_attention(q, tk, tv, dk, dv, n_heads, td.window);
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
    use crate::hybrid::{draft_for, seed_draft_prefix};
    use crate::llava::LlavaSimConfig;

    fn setup() -> (LlavaSim, Decoder, KvProjector, Image, Vec<u32>, KvCache) {
        let cfg = LlavaSimConfig::tiny(30, 96);
        let model = LlavaSim::new(cfg.clone(), 0xC0);
        let draft = draft_for(&cfg, 0xC1);
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
            let (prefix_len, prefix) = prefix_rows_for(
                draft.cfg.n_layers,
                Some(&proj),
                abl,
                &t_cache,
                model.n_img(),
            );
            let mut tape = Tape::new();
            let (logits, _, _) =
                student_logits(&mut tape, &draft, Some(&proj), &prompt, prefix_len, &prefix);
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
        let cfg = HybridDistillConfig::smoke(20, 0xD1);
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
        let cfg = HybridDistillConfig::smoke(16, 0xD7);
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
    }

    /// `frozen_prefix_logits` over a VLM's own vision rows must equal that
    /// VLM's live inference logits after a vision prefill — the baseline
    /// zoo's training graph sees the same function its decoding uses.
    #[test]
    fn frozen_prefix_logits_matches_own_vision_inference() {
        let (model, _, _, img, prompt, _) = setup();
        let rows = own_vision_rows(&model, &img);
        let mut cache = model.lm.new_cache();
        let embeds = model.encode_image(&img);
        model.lm.forward_infer_embeds(&embeds, &mut cache);
        let want = model.lm.forward_infer(&prompt, &mut cache);
        let mut tape = Tape::new();
        let (logits, params) = frozen_prefix_logits(&mut tape, &model.lm, &prompt, &rows);
        assert_eq!(params.len(), model.lm.n_param_tensors());
        let diff = max_abs_diff(&tape.value(logits).data, &want.data);
        assert!(
            diff < 1e-3,
            "frozen-prefix train/inference mismatch: {diff}"
        );
    }

    /// The no-vision ablation must also train (it is the baseline leg of
    /// the Table-2 comparison) without needing a projector at all.
    #[test]
    fn distill_hybrid_no_vision_runs_without_projector() {
        let (model, mut draft, _, _, _, _) = setup();
        let cfg = HybridDistillConfig::smoke(8, 0xD2);
        let losses = distill_hybrid(&model, &mut draft, None, Ablation::no_vision(), &cfg);
        assert_eq!(losses.len(), 8);
        assert!(losses.iter().all(|l| l.is_finite()));
    }
}
