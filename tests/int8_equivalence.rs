//! Int8 kernel-policy equivalence: quantizing a model's projections must
//! (a) keep the fused logits within the per-row absmax error model of the
//! f32 path, and (b) preserve the speculative-decoding losslessness
//! guarantee — spec ≡ AR token identity — for both text-only and
//! multimodal sessions, including mixed draft/target policies.
//!
//! ci.sh runs this suite twice: once under `AASD_KERNEL=scalar` and once on
//! the host's best SIMD tier, so the int8 path is pinned on every dispatch
//! route it can take.

use aasd::mm::{
    draft_for_depth, mm_autoregressive_ws, mm_speculative_ws, Ablation, Image, KvProjector,
    LlavaSim, LlavaSimConfig,
};
use aasd::nn::{Decoder, DecoderConfig, KernelPolicy};
use aasd::specdec::{autoregressive_greedy_with_budget_ws, speculative_greedy_with_budget_ws};
use aasd::tensor::{Rng, Workspace};

fn model(seed: u64, vocab: usize) -> Decoder {
    Decoder::new(DecoderConfig::tiny(vocab), seed)
}

/// Max |int8 − f32| logit gap over a decode run stays within a bound set by
/// the per-row absmax quantization error model (measured ≈0.053 on this
/// config; asserted at ~5× margin so kernel bugs trip it, noise does not).
#[test]
fn int8_logit_drift_is_bounded() {
    let f32_model = model(0xD1F7, 48);
    let mut q_model = f32_model.clone();
    q_model.set_kernel_policy(KernelPolicy::Int8);

    let mut rng = Rng::new(0x5EED);
    let tokens: Vec<u32> = (0..24).map(|_| rng.below(48) as u32).collect();
    let vocab = 48;

    let mut ws_a = Workspace::new();
    let mut ws_b = Workspace::new();
    let mut cache_a = f32_model.new_cache();
    let mut cache_b = q_model.new_cache();
    let mut la = vec![0.0f32; vocab];
    let mut lb = vec![0.0f32; vocab];
    let mut drift = 0.0f32;
    for &tok in &tokens {
        f32_model.forward_infer_ws(&[tok], &mut cache_a, &mut ws_a, &mut la);
        q_model.forward_infer_ws(&[tok], &mut cache_b, &mut ws_b, &mut lb);
        for (a, b) in la.iter().zip(&lb) {
            drift = drift.max((a - b).abs());
        }
    }
    assert!(drift > 0.0, "int8 path suspiciously identical to f32");
    assert!(drift < 0.25, "int8 logit drift {drift} exceeds error model");
}

/// An `Int8` target's tiled `(γ+1)`-row verify must reproduce its own
/// one-row decode steps bit for bit — logits and the K/V rows it leaves in
/// the cache — at every block size the sessions run (the 2-row refeed, the
/// 6-row verify, a 7-row prefill that splits 4 + 3 over two tiles). Every
/// row is quantized with its own scale and the tile's i32 dots are exact,
/// so this holds by arithmetic, on every tier.
#[test]
fn int8_tiled_verify_equals_one_row_steps_bitwise() {
    let mut q_model = model(0x71E, 48);
    q_model.set_kernel_policy(KernelPolicy::Int8);
    let vocab = q_model.cfg.vocab;
    let mut rng = Rng::new(0xB10C);
    let prefix: Vec<u32> = (0..9).map(|_| rng.below(48) as u32).collect();
    let mut ws = Workspace::new();
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    for rows in [2usize, 6, 7] {
        let block: Vec<u32> = (0..rows).map(|_| rng.below(48) as u32).collect();
        let (mut tiled, mut stepped) = (q_model.new_cache(), q_model.new_cache());
        let mut scratch = vec![0.0f32; prefix.len() * vocab];
        q_model.forward_infer_ws(&prefix, &mut tiled, &mut ws, &mut scratch);
        q_model.forward_infer_ws(&prefix, &mut stepped, &mut ws, &mut scratch);

        let mut block_logits = vec![0.0f32; rows * vocab];
        q_model.forward_infer_ws(&block, &mut tiled, &mut ws, &mut block_logits);
        let mut step_logits = vec![0.0f32; rows * vocab];
        for (tok, row) in block.iter().zip(step_logits.chunks_mut(vocab)) {
            q_model.forward_infer_ws(&[*tok], &mut stepped, &mut ws, row);
        }
        assert_eq!(bits(&block_logits), bits(&step_logits), "rows={rows}");
        assert_eq!(tiled.len(), stepped.len());
        for l in 0..q_model.cfg.n_layers {
            for p in 0..tiled.len() {
                let (a, b) = (tiled.layer(l), stepped.layer(l));
                assert_eq!(bits(a.key(p)), bits(b.key(p)), "rows={rows} K[{l}][{p}]");
                assert_eq!(
                    bits(a.value(p)),
                    bits(b.value(p)),
                    "rows={rows} V[{l}][{p}]"
                );
            }
        }
    }
}

/// Text sessions: speculative decoding on an `Int8` target must be
/// token-identical to autoregressive decoding on the same `Int8` target —
/// for every draft policy (the draft's kernels cannot affect losslessness,
/// only acceptance).
#[test]
fn spec_equals_ar_under_int8_text() {
    let mut target = model(0x7A6, 40);
    target.set_kernel_policy(KernelPolicy::Int8);
    let draft_f32 = model(0xD4A, 40);
    let mut draft_q = draft_f32.clone();
    draft_q.set_kernel_policy(KernelPolicy::Int8);

    let mut ws = Workspace::new();
    let prompt = [3u32, 11, 7, 29];
    let budget = 32;
    let reference = autoregressive_greedy_with_budget_ws(&target, &prompt, budget, &mut ws);
    assert_eq!(reference.len(), budget);

    for draft in [&draft_f32, &draft_q] {
        for gamma in [1usize, 3, 5] {
            let (out, stats) =
                speculative_greedy_with_budget_ws(&target, draft, &prompt, budget, gamma, &mut ws);
            assert_eq!(
                out,
                reference,
                "γ={gamma} draft={}: int8 losslessness violated",
                draft.kernel_policy().name()
            );
            assert_eq!(stats.generated, budget);
        }
    }
}

/// Multimodal sessions: hybrid-cache speculative decoding on an `Int8`
/// LlavaSim target equals fused autoregressive decoding on the same model.
#[test]
fn spec_equals_ar_under_int8_multimodal() {
    let cfg = LlavaSimConfig::tiny(36, 96);
    let mut mm_model = LlavaSim::new(cfg.clone(), 0x178);
    mm_model.set_kernel_policy(KernelPolicy::Int8);
    assert_eq!(mm_model.kernel_policy(), KernelPolicy::Int8);
    let draft = draft_for_depth(&cfg, 1, 0xBEE);
    assert_eq!(draft.kernel_policy(), KernelPolicy::Int8);
    let proj = KvProjector::new(
        0xC0,
        draft.cfg.n_layers,
        cfg.lm.n_layers,
        cfg.n_img(),
        cfg.k_slots(),
    );

    let mut ws = Workspace::new();
    let img = Image::synthetic(&mut Rng::new(5), cfg.vision.n_patches, cfg.vision.patch_dim);
    let prompt = [7u32, 21, 2, 13];
    let budget = 28;
    let reference = mm_autoregressive_ws(&mm_model, &img, &prompt, budget, &mut ws);
    assert_eq!(reference.len(), budget);

    for gamma in [1usize, 3, 5] {
        let (out, _) = mm_speculative_ws(
            &mm_model,
            &draft,
            Some(&proj),
            Ablation::projector(),
            &img,
            &prompt,
            budget,
            gamma,
            &mut ws,
        );
        assert_eq!(out, reference, "γ={gamma}: int8 mm losslessness violated");
    }
}
