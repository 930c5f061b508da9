//! Cross-crate integration tests through the `aasd` facade: the greedy
//! speculative loop must be lossless (token-identical to the autoregressive
//! reference) on seeded tiny decoders, for mismatched draft/target pairs
//! across block sizes and generation lengths.

use aasd::nn::{Decoder, DecoderConfig};
use aasd::specdec::{autoregressive_greedy_with_budget_ws, speculative_greedy_with_budget_ws};
use aasd::tensor::{Rng, Workspace};

fn model(seed: u64, vocab: usize) -> Decoder {
    Decoder::new(DecoderConfig::tiny(vocab), seed)
}

#[test]
fn speculative_loop_is_token_identical_to_autoregressive() {
    let vocab = 64;
    let mut rng = Rng::new(0xFACADE);
    let mut ws = Workspace::new();
    for case in 0..6 {
        let target = model(100 + case, vocab);
        let draft = model(200 + case, vocab);
        let prompt_len = 2 + rng.below(8);
        let prompt: Vec<u32> = (0..prompt_len).map(|_| rng.below(vocab) as u32).collect();
        let budget = 10 + rng.below(40);
        let gamma = 1 + rng.below(6);

        let reference = autoregressive_greedy_with_budget_ws(&target, &prompt, budget, &mut ws);
        let (spec, stats) =
            speculative_greedy_with_budget_ws(&target, &draft, &prompt, budget, gamma, &mut ws);

        assert_eq!(
            spec, reference,
            "losslessness violated (case {case}, γ={gamma}, budget={budget})"
        );
        assert!(stats.blocks > 0);
        assert!(stats.acceptance_rate() <= 1.0);
        assert!(stats.block_efficiency() >= 1.0);
        assert!(stats.block_efficiency() <= (gamma + 1) as f64 + 1e-9);
    }
}

#[test]
fn self_draft_degenerates_to_perfect_acceptance() {
    let target = model(7, 32);
    let prompt = [1u32, 5, 9];
    let mut ws = Workspace::new();
    let reference = autoregressive_greedy_with_budget_ws(&target, &prompt, 25, &mut ws);
    let (spec, stats) =
        speculative_greedy_with_budget_ws(&target, &target, &prompt, 25, 4, &mut ws);
    assert_eq!(spec, reference);
    assert_eq!(
        stats.accepted, stats.drafted,
        "self-draft must fully accept"
    );
    // Perfect acceptance ⇒ τ hits its γ+1 ceiling on every full block.
    assert!(stats.block_efficiency() > 4.0);
}

#[test]
fn facade_reexports_compose() {
    // Smoke: every layer of the stack is reachable through the facade and
    // produces shape-consistent results.
    let mut rng = aasd::tensor::Rng::new(1);
    let a = aasd::tensor::Tensor::randn(&mut rng, 4, 8, 1.0);
    let b = aasd::tensor::Tensor::randn(&mut rng, 8, 3, 1.0);
    let c = a.matmul(&b);
    assert_eq!((c.rows, c.cols), (4, 3));

    let m = model(3, 16);
    let mut cache = m.new_cache();
    let logits = m.forward_infer(&[1, 2, 3], &mut cache);
    assert_eq!((logits.rows, logits.cols), (3, 16));
    assert_eq!(cache.len(), 3);
    assert!(!aasd::VERSION.is_empty());
}
