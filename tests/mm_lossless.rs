//! Losslessness of multimodal speculative decoding: for LlavaSim targets,
//! hybrid-cache speculative decoding must be token-identical to fused
//! autoregressive decoding on image+text prompts — across γ, model seeds,
//! ablation switches, and with a *trained* projector. This extends the
//! text-only guarantee of `speculative_lossless.rs` to the `aasd-mm` stack.

use aasd::mm::{
    distill_hybrid, draft_for_depth, mm_autoregressive_ws, mm_speculative_ws, Ablation,
    HybridDistillConfig, Image, KvProjector, LlavaSim, LlavaSimConfig,
};
use aasd::nn::KernelPolicy;
use aasd::tensor::{Rng, Workspace};

fn image(cfg: &LlavaSimConfig, seed: u64) -> Image {
    Image::synthetic(
        &mut Rng::new(seed),
        cfg.vision.n_patches,
        cfg.vision.patch_dim,
    )
}

#[test]
fn llava_speculative_is_lossless_across_gammas_seeds_and_ablations() {
    let mut ws = Workspace::new();
    for model_seed in [0x11u64, 0x22] {
        let cfg = LlavaSimConfig::tiny(36, 96);
        let model = LlavaSim::new(cfg.clone(), model_seed);
        let int8_draft = draft_for_depth(&cfg, 1, model_seed ^ 0xFF);
        assert_eq!(int8_draft.kernel_policy(), KernelPolicy::Int8);
        let mut f32_draft = int8_draft.clone();
        f32_draft.set_kernel_policy(KernelPolicy::F32);
        let proj = KvProjector::new(
            model_seed ^ 0xA,
            int8_draft.cfg.n_layers,
            cfg.lm.n_layers,
            cfg.n_img(),
            cfg.k_slots(),
        );
        let mut rng = Rng::new(model_seed);
        let prompt: Vec<u32> = (0..5).map(|_| rng.below(36) as u32).collect();
        let img = image(&cfg, model_seed + 3);
        let budget = 30;
        let reference = mm_autoregressive_ws(&model, &img, &prompt, budget, &mut ws);
        assert_eq!(reference.len(), budget);

        // The target is f32; the draft proposes on either policy (the
        // standard int8 one and its f32 twin) and the stream cannot tell.
        for draft in [&int8_draft, &f32_draft] {
            for gamma in [1usize, 3, 5] {
                for abl in [
                    Ablation::projector(),
                    Ablation::raw_vision(),
                    Ablation::no_vision(),
                    Ablation {
                        use_vision_projector: false,
                        drop_vision_kv: false,
                        drop_text_kv: true,
                    },
                ] {
                    let (out, stats) = mm_speculative_ws(
                        &model,
                        draft,
                        Some(&proj),
                        abl,
                        &img,
                        &prompt,
                        budget,
                        gamma,
                        &mut ws,
                    );
                    assert_eq!(
                        out,
                        reference,
                        "seed={model_seed:#x} γ={gamma} {abl:?} draft={}: lossless violated",
                        draft.kernel_policy().name()
                    );
                    assert_eq!(stats.generated, budget);
                    assert!(stats.block_efficiency() <= (gamma + 1) as f64 + 1e-12);
                }
            }
        }
    }
}

/// Training must not break losslessness: after hybrid distillation the
/// (now-aligned) draft + projector still reproduce the autoregressive
/// output exactly — only α/τ may change. The draft is born on the int8
/// policy, trained through the tapes, and served on it.
#[test]
fn trained_projector_stays_lossless() {
    let cfg = LlavaSimConfig::tiny(30, 96);
    let model = LlavaSim::new(cfg.clone(), 0x33);
    let mut draft = draft_for_depth(&cfg, 1, 0x34);
    assert_eq!(draft.kernel_policy(), KernelPolicy::Int8);
    let mut proj = KvProjector::new(
        0x35,
        draft.cfg.n_layers,
        cfg.lm.n_layers,
        cfg.n_img(),
        cfg.k_slots(),
    );
    let tcfg = HybridDistillConfig {
        gen_len: 14,
        ..HybridDistillConfig::smoke(16, 0x36)
    };
    distill_hybrid(
        &model,
        &mut draft,
        Some(&mut proj),
        Ablation::projector(),
        &tcfg,
    );

    let mut ws = Workspace::new();
    let img = image(&cfg, 9);
    let prompt = [7u32, 21, 2];
    let budget = 28;
    let reference = mm_autoregressive_ws(&model, &img, &prompt, budget, &mut ws);
    for gamma in [2usize, 4] {
        let (out, _) = mm_speculative_ws(
            &model,
            &draft,
            Some(&proj),
            Ablation::projector(),
            &img,
            &prompt,
            budget,
            gamma,
            &mut ws,
        );
        assert_eq!(out, reference, "trained projector broke losslessness");
    }
}
