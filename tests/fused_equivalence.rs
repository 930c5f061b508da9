//! The fused workspace decode path must compute the same function as both
//! reference forwards, across the same block-split patterns the attention
//! property tests use: one big prefill (`[t]`), token-by-token (`[1; t]`),
//! and mixed speculative-verify-shaped blocks.
//!
//! Tolerances follow the existing precedent: the fused path only
//! reassociates the residual adds relative to `forward_infer` (tight bound),
//! while `forward_full` — the value of the training tape
//! (`Decoder::forward_train`) — recomputes the whole sequence through the
//! tape's ops, sharing no kernel with the cached sweep (looser bound, same
//! as the seed's incremental-vs-full test). So this suite also pins tape ≡
//! inference: the function training differentiates is the one served.

use aasd::nn::{Decoder, DecoderConfig};
use aasd::specdec::{autoregressive_greedy_with_budget_ws, speculative_greedy_with_budget_ws};
use aasd::tensor::{Rng, Workspace};

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

#[test]
fn fused_path_matches_both_references_across_splits() {
    let model = Decoder::new(DecoderConfig::tiny(50), 0xF00D);
    let mut rng = Rng::new(0x5EED);
    let t = 13usize;
    let tokens: Vec<u32> = (0..t).map(|_| rng.below(50) as u32).collect();
    let vocab = model.cfg.vocab;

    let full = model.forward_full(&tokens);

    let mut ws = Workspace::new();
    for splits in [vec![t], vec![1; t], vec![5, 1, 4, 3]] {
        assert_eq!(splits.iter().sum::<usize>(), t);
        let mut cache_ref = model.new_cache();
        let mut cache_ws = model.new_cache();
        let mut fused_all = Vec::new();
        let mut at = 0;
        for blk in splits {
            let toks = &tokens[at..at + blk];
            let reference = model.forward_infer(toks, &mut cache_ref);
            let mut fused = vec![0.0f32; blk * vocab];
            model.forward_infer_ws(toks, &mut cache_ws, &mut ws, &mut fused);
            assert!(
                max_abs_diff(&fused, &reference.data) < 1e-4,
                "fused vs forward_infer diverged at offset {at}"
            );
            fused_all.extend_from_slice(&fused);
            at += blk;
        }
        assert!(
            max_abs_diff(&fused_all, &full.data) < 2e-3,
            "fused vs forward_full diverged"
        );
    }
}

/// End-to-end: the autoregressive and speculative loops emit the greedy
/// stream of the forward oracle — `forward_full` recomputing the whole
/// sequence on a fresh tape for every token, sharing no cache or session
/// code with them.
#[test]
fn fused_loops_are_lossless_end_to_end() {
    let target = Decoder::new(DecoderConfig::tiny(50), 0xAB);
    let draft = Decoder::new(DecoderConfig::tiny(50), 0xCD);
    let mut rng = Rng::new(0xE2E);
    let mut ws = Workspace::new();
    for _ in 0..3 {
        let p_len = 2 + rng.below(6);
        let prompt: Vec<u32> = (0..p_len).map(|_| rng.below(50) as u32).collect();
        let budget = 25;
        let mut seq = prompt.clone();
        for _ in 0..budget {
            seq.push(Decoder::greedy_from_logits(&target.forward_full(&seq)));
        }
        let reference = &seq[p_len..];
        let ar_ws = autoregressive_greedy_with_budget_ws(&target, &prompt, budget, &mut ws);
        assert_eq!(ar_ws, reference, "fused AR loop lossy");
        for gamma in [2, 4] {
            let (spec, stats) =
                speculative_greedy_with_budget_ws(&target, &draft, &prompt, budget, gamma, &mut ws);
            assert_eq!(spec, reference, "fused speculative loop lossy (γ={gamma})");
            assert_eq!(stats.generated, spec.len());
        }
    }
}
