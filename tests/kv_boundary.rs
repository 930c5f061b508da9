//! KV-cache capacity boundaries under the fused speculative loop, with and
//! without a vision prefix. The fused loop's contract is
//! `cache.len() + budget <= max_seq + 1` (the final emitted token is never
//! fed back); these tests pin the exact frontier: filling the cache to the
//! last row, rolling back rejected drafts at the boundary, and the
//! multimodal case where vision prefix + prompt leave almost no room.

use aasd::mm::{
    draft_for_depth, mm_autoregressive_ws, mm_speculative_ws, Ablation, Image, LlavaSim,
    LlavaSimConfig,
};
use aasd::nn::{Decoder, DecoderConfig};
use aasd::specdec::{
    autoregressive_greedy_with_budget_ws, speculative_greedy_with_budget_ws, ArSession, Session,
    SpecSession,
};
use aasd::tensor::{Rng, Workspace};

fn prompt(rng: &mut Rng, len: usize, vocab: usize) -> Vec<u32> {
    (0..len).map(|_| rng.below(vocab) as u32).collect()
}

/// Text-only: a prompt that fills the cache to `max_seq - 1` leaves room
/// for exactly one fed-back token, so the maximal budget is 2 and every
/// block must take the g = 0 plain-decode fallback.
#[test]
fn prompt_one_below_max_seq_forces_plain_decode_blocks() {
    let cfg = DecoderConfig::tiny(32);
    let target = Decoder::new(cfg.clone(), 0x90);
    let draft = Decoder::new(cfg.clone(), 0x91);
    let mut rng = Rng::new(1);
    let p = prompt(&mut rng, cfg.max_seq - 1, 32);
    let budget = 2; // max_seq + 1 - prompt_len
    let mut ws = Workspace::new();
    let reference = autoregressive_greedy_with_budget_ws(&target, &p, budget, &mut ws);
    let (out, stats) = speculative_greedy_with_budget_ws(&target, &draft, &p, budget, 5, &mut ws);
    assert_eq!(out, reference);
    assert_eq!(stats.drafted, 0, "no room to draft at the boundary");
    assert_eq!(stats.blocks, 1, "one plain-decode block");
}

/// Rollback at the boundary: run a spec loop whose LAST block sits flush
/// against the cache frontier with an adversarial draft, so rejected rows
/// are truncated at the very end of the buffer, then assert both caches
/// finish within capacity and the output is still lossless.
#[test]
fn rollback_at_cache_frontier_is_lossless() {
    let cfg = DecoderConfig::tiny(32);
    let target = Decoder::new(cfg.clone(), 0x92);
    // An independent draft disagrees almost everywhere -> maximal rollback.
    let draft = Decoder::new(cfg.clone(), 0x93);
    let mut ws = Workspace::new();
    let mut rng = Rng::new(2);
    for gamma in [2usize, 3, 5] {
        let p = prompt(&mut rng, 6, 32);
        let budget = cfg.max_seq + 1 - p.len(); // run to the very frontier
        let reference = autoregressive_greedy_with_budget_ws(&target, &p, budget, &mut ws);
        let (out, stats) =
            speculative_greedy_with_budget_ws(&target, &draft, &p, budget, gamma, &mut ws);
        assert_eq!(out, reference, "γ={gamma}");
        assert_eq!(out.len(), budget);
        assert!(
            stats.accepted < stats.drafted,
            "γ={gamma}: need rejections to exercise boundary rollback"
        );
    }
}

/// Multimodal: vision prefix + prompt fill the target cache to exactly
/// `max_seq`, leaving a feasible budget of exactly 1 — the pending token is
/// emitted with no decode step and no draft involvement.
#[test]
fn vision_prefix_plus_prompt_exactly_filling_cache_allows_budget_one() {
    let cfg = LlavaSimConfig::tiny(32, 48);
    let model = LlavaSim::new(cfg.clone(), 0x94);
    let draft = draft_for_depth(&cfg, 1, 0x95);
    let mut rng = Rng::new(3);
    let p = prompt(&mut rng, cfg.lm.max_seq - cfg.n_img(), 32); // fills to max_seq
    let mut ws = Workspace::new();
    let reference = mm_autoregressive_ws(&model, &img(&cfg, 7), &p, 1, &mut ws);
    assert_eq!(reference.len(), 1);
    let (out, stats) = mm_speculative_ws(
        &model,
        &draft,
        None,
        Ablation::no_vision(),
        &img(&cfg, 7),
        &p,
        1,
        3,
        &mut ws,
    );
    assert_eq!(out, reference);
    assert_eq!(stats.blocks, 0, "budget 1 is prefill-decided, no blocks");
    assert_eq!(stats.prefill_tokens, 1);
}

/// Multimodal boundary sweep: with the vision prefix consuming part of the
/// window, budgets run flush to `max_seq + 1 - n_img - prompt_len` across
/// ablations — lossless at the frontier in every configuration.
#[test]
fn hybrid_cache_boundary_sweep_is_lossless() {
    let cfg = LlavaSimConfig::tiny(32, 48);
    let model = LlavaSim::new(cfg.clone(), 0x96);
    let draft = draft_for_depth(&cfg, 1, 0x97);
    let mut rng = Rng::new(4);
    let mut ws = Workspace::new();
    for slack in [2usize, 4, 7] {
        let p = prompt(&mut rng, cfg.lm.max_seq - cfg.n_img() - slack, 32);
        let budget = slack + 1; // exactly the feasible maximum
        let image = img(&cfg, 10 + slack as u64);
        let reference = mm_autoregressive_ws(&model, &image, &p, budget, &mut ws);
        for abl in [Ablation::raw_vision(), Ablation::no_vision()] {
            let (out, stats) =
                mm_speculative_ws(&model, &draft, None, abl, &image, &p, budget, 3, &mut ws);
            assert_eq!(out, reference, "slack={slack} {abl:?}");
            assert_eq!(stats.generated, budget);
        }
    }
}

/// The session budget contract itself: a budget one past the feasible
/// frontier must panic (for both session kinds), and the maximal budget must
/// not.
#[test]
fn seeded_loop_budget_contract_at_the_frontier() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let cfg = DecoderConfig::tiny(32);
    let target = Decoder::new(cfg.clone(), 0x98);
    let mut rng = Rng::new(5);
    let p = prompt(&mut rng, cfg.max_seq - 3, 32);

    let run_ar = |budget: usize| {
        let mut ws = Workspace::new();
        let mut cache = target.new_cache();
        target.prefill_ws(&p, &mut cache, &mut ws);
        let s = ArSession::new(&target, &cache, 7, budget);
        Session::Ar(s).run(&target, &mut cache, None, &mut ws).0
    };
    let run_spec = |budget: usize| {
        let mut ws = Workspace::new();
        let mut t_cache = target.new_cache();
        let mut d_cache = target.new_cache();
        target.prefill_ws(&p, &mut t_cache, &mut ws);
        target.prefill_ws(&p, &mut d_cache, &mut ws);
        let s = SpecSession::new(&target, &target, &t_cache, &d_cache, 7, budget, 2);
        Session::Spec(s).run(
            &target,
            &mut t_cache,
            Some((&target, &mut d_cache)),
            &mut ws,
        )
    };
    let feasible = cfg.max_seq + 1 - p.len();
    assert_eq!(run_ar(feasible).len(), feasible);
    assert_eq!(run_spec(feasible).0.len(), feasible);
    assert!(catch_unwind(AssertUnwindSafe(|| run_ar(feasible + 1))).is_err());
    assert!(catch_unwind(AssertUnwindSafe(|| run_spec(feasible + 1))).is_err());
}

fn img(cfg: &LlavaSimConfig, seed: u64) -> Image {
    Image::synthetic(
        &mut Rng::new(seed),
        cfg.vision.n_patches,
        cfg.vision.patch_dim,
    )
}
