//! The paper's headline claim, end to end: aligning the draft to the
//! multimodal target *raises the empirical acceptance rate α* of greedy
//! speculative decoding. Nothing below hard-codes α — the draft is trained
//! with the AASD recipe `table1` runs (`train_aasd_draft`: a two-layer
//! width-shared draft seeded from the target's vision KV through the KV
//! projector, self-distilled on the target's own rollouts with the
//! TdAttention term) and α is re-measured on held-out samples with the
//! harness `table1` runs (`eval_system`, which also asserts every stream
//! token-identical to autoregressive decoding). The improvement is an
//! emergent property of the gradients being right and the loop accounting
//! being honest.

use aasd::baselines::{eval_system, train_aasd_draft, DraftSystem, ZooTrainConfig};
use aasd::data::{Split, Workload, WorkloadKind, VOCAB};
use aasd::mm::{draft_for_depth, KvProjector, LlavaSim, LlavaSimConfig, TdAlignConfig};

#[test]
fn distilled_draft_strictly_beats_untrained_draft_alpha() {
    let cfg = LlavaSimConfig::tiny(VOCAB, 64);
    let target = LlavaSim::new(cfg.clone(), 0xA11);
    let workload = Workload::new(
        WorkloadKind::WildSim,
        0xDA7A,
        cfg.vision.n_patches,
        cfg.vision.patch_dim,
    );
    // Held-out samples: a different split than the training stream, so α
    // is measured off the training data.
    let samples = workload.take(Split::Heldout, 6);
    let (budget, gamma) = (16, 3);

    let untrained = DraftSystem::Aasd {
        draft: draft_for_depth(&cfg, 2, 0xD0A),
        projector: KvProjector::new(0xD0B, 2, cfg.lm.n_layers, cfg.n_img(), cfg.k_slots()),
    };
    let before = eval_system(&target, &untrained, &samples, budget, gamma).stats;

    let (draft, projector) = train_aasd_draft(
        &target,
        &workload,
        &ZooTrainConfig::smoke(30, 0x5EED),
        TdAlignConfig {
            window: gamma,
            weight: 0.1,
        },
    );
    let trained = DraftSystem::Aasd { draft, projector };
    let after = eval_system(&target, &trained, &samples, budget, gamma).stats;

    // Identical decode budget on both sides, and the accounting invariant.
    assert_eq!(before.generated, after.generated);
    assert!(after.accepted <= after.drafted);

    let (a0, a1) = (before.acceptance_rate(), after.acceptance_rate());
    println!("alpha untrained = {a0:.4}, distilled = {a1:.4}");
    assert!(
        a1 > a0,
        "AASD alignment failed to raise acceptance rate: α {a0:.4} -> {a1:.4}"
    );
}
