//! `aasd-specdec` — speculative decoding engine (greedy/lossless core).
//!
//! Speculative decoding (Leviathan et al. 2023; Gagrani et al. 2024 for the
//! MLLM setting) lets a cheap *draft* model propose γ tokens which the
//! expensive *target* model then scores in **one** batched forward pass
//! over its KV cache. The greedy loop is lossless: its output is
//! token-identical to autoregressive decoding on the same target, because
//! every committed token is argmax under the target's own logits. Greedy
//! acceptance is the one-hot special case of Leviathan rejection sampling
//! (accept `x'~q` w.p. `min(1, p/q)`).
//!
//! There is one loop: the resumable sessions of [`session`]. An
//! [`ArSession`] owns the loop state, a [`SpecSession`] is an `ArSession`
//! plus its draft side, and both run every forward on the
//! zero-allocation `forward_infer_ws` path. A speculative
//! session **folds the pending token into the verify block** — the
//! correction/bonus token of block *n* is scored inside block *n+1*'s
//! batched pass instead of paying its own single-token resync forward,
//! which on a CPU clock is the difference between speculative decoding
//! losing and winning at realistic acceptance rates. [`Session::run`] steps
//! a session to completion from caches the caller has prefilled (text, or
//! vision prefix ∥ text in `aasd-mm`); the two prompt-level one-shots below
//! are prefill + `Session::run`. The token oracle every losslessness test
//! compares against is the [`ArSession`] stream — the speculative loop
//! with no draft — and the forward oracle under it is
//! `Decoder::forward_full`, the value of the training tape
//! (`tests/fused_equivalence.rs`).
//!
//! Kernel policy rides on the models, not the loops: a `Decoder` switched
//! to `aasd_nn::KernelPolicy::Int8` runs its fused forwards on the int8
//! kernels inside every session here with no API change. The quantized
//! forward is bit-identical between single-token decode and batched verify
//! (per-row kernels), so losslessness (spec ≡ AR on the same target) holds
//! under either policy — and draft and target may run different policies
//! (`tests/int8_equivalence.rs` pins both properties).

pub mod metrics;
pub mod session;

pub use metrics::SpecStats;
pub use session::{ArSession, Session, SpecSession, StepReport};

use aasd_nn::Decoder;
use aasd_tensor::Workspace;

/// Exclusive upper bound on γ: every session builds its verify block in a
/// `[u32; MAX_GAMMA]` stack buffer. Any realistic speculative depth is far
/// below this.
pub const MAX_GAMMA: usize = 64;

/// Greedy autoregressive decoding of `budget` tokens from a text prompt:
/// prefill, then an [`ArSession`] run to completion. The feasible budget is
/// `max_seq + 1 − prompt.len()`: the final token is emitted without ever
/// being fed back through the cache. This stream is the token oracle the
/// losslessness tests compare against and the walltime baseline
/// speculative decoding is measured against.
pub fn autoregressive_greedy_with_budget_ws(
    target: &Decoder,
    prompt: &[u32],
    budget: usize,
    ws: &mut Workspace,
) -> Vec<u32> {
    assert!(!prompt.is_empty(), "empty prompt");
    assert!(
        budget <= target.cfg.max_seq + 1 - prompt.len(),
        "budget exceeds context window"
    );
    let mut cache = target.new_cache();
    let pending = target.prefill_ws(prompt, &mut cache, ws);
    let session = ArSession::new(target, &cache, pending, budget);
    Session::Ar(session).run(target, &mut cache, None, ws).0
}

/// Greedy speculative decoding of `budget` tokens from a text prompt:
/// prefill both models, then a [`SpecSession`] run to completion.
/// Token-identical to [`autoregressive_greedy_with_budget_ws`]. The first
/// token is decided by the prompt prefill alone, so it is recorded in
/// `SpecStats::prefill_tokens` and excluded from `block_efficiency()`,
/// keeping τ ≤ γ + 1.
pub fn speculative_greedy_with_budget_ws(
    target: &Decoder,
    draft: &Decoder,
    prompt: &[u32],
    budget: usize,
    gamma: usize,
    ws: &mut Workspace,
) -> (Vec<u32>, SpecStats) {
    assert!(!prompt.is_empty(), "empty prompt");
    assert!(
        budget <= target.cfg.max_seq.min(draft.cfg.max_seq) + 1 - prompt.len(),
        "budget exceeds context window"
    );
    let mut t_cache = target.new_cache();
    let mut d_cache = draft.new_cache();
    let pending = target.prefill_ws(prompt, &mut t_cache, ws);
    draft.prefill_ws(prompt, &mut d_cache, ws);
    let session = SpecSession::new(target, draft, &t_cache, &d_cache, pending, budget, gamma);
    Session::Spec(session).run(target, &mut t_cache, Some((draft, &mut d_cache)), ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aasd_nn::DecoderConfig;
    use aasd_tensor::{argmax, Rng};

    fn tiny(seed: u64) -> Decoder {
        Decoder::new(DecoderConfig::tiny(40), seed)
    }

    fn prompt(rng: &mut Rng, len: usize, vocab: usize) -> Vec<u32> {
        (0..len).map(|_| rng.below(vocab) as u32).collect()
    }

    /// Greedy decoding by stateless full-sequence recompute: the forward
    /// oracle (`Decoder::forward_full`, the tape's value) turned into a
    /// token stream, sharing no cache, workspace or session code with the
    /// loops under test.
    fn greedy_by_forward_full(target: &Decoder, prompt: &[u32], budget: usize) -> Vec<u32> {
        let mut seq = prompt.to_vec();
        for _ in 0..budget {
            seq.push(Decoder::greedy_from_logits(&target.forward_full(&seq)));
        }
        seq.split_off(prompt.len())
    }

    /// When the draft IS the target, every draft token must be accepted.
    #[test]
    fn self_draft_accepts_everything() {
        let model = tiny(1);
        let mut ws = Workspace::new();
        // The prefill token, then exactly three full blocks of γ+1.
        let (out, stats) =
            speculative_greedy_with_budget_ws(&model, &model, &[3, 7, 1], 19, 5, &mut ws);
        assert_eq!(out.len(), 19);
        assert_eq!(stats.accepted, stats.drafted);
        assert!((stats.acceptance_rate() - 1.0).abs() < 1e-9);
        // Full acceptance means every full block commits γ+1 tokens.
        assert!(stats.block_efficiency() > 6.0 - 1e-9);
    }

    /// The batched chain verify must agree exactly with feeding the same
    /// tokens one row at a time — accepted prefix, next token and the KV
    /// rows left behind — across random (not model-drafted) blocks, so the
    /// first mismatch lands at every position.
    #[test]
    fn batched_verify_equals_sequential() {
        let target = tiny(2);
        let vocab = target.cfg.vocab;
        let mut rng = Rng::new(0xBEEF);
        let mut ws = Workspace::new();
        for _case in 0..20 {
            let p_len = 1 + rng.below(10);
            let p = prompt(&mut rng, p_len, 40);
            let block_len = 1 + rng.below(6);
            let mut block = prompt(&mut rng, block_len, 40);

            let mut c1 = target.new_cache();
            let pending = target.prefill_ws(&p, &mut c1, &mut ws);
            // Sequential reference: feed pending, then each proposal the
            // target agrees with, one single-row forward at a time.
            let mut c2 = target.new_cache();
            target.prefill_ws(&p, &mut c2, &mut ws);
            let mut logits = vec![0.0f32; vocab];
            let mut step = |tok: u32, cache: &mut aasd_nn::KvCache| {
                target.forward_infer_ws(&[tok], cache, &mut ws, &mut logits);
                argmax(&logits) as u32
            };
            let mut pred = step(pending, &mut c2);
            // Make the first proposal right on half the cases so the walk
            // gets past position 0.
            if rng.below(2) == 0 {
                block[0] = pred;
            }
            let mut want_accepted = 0;
            for &d in &block {
                if pred != d {
                    break;
                }
                pred = step(d, &mut c2);
                want_accepted += 1;
            }

            let session = ArSession::new(&target, &c1, pending, block.len() + 1);
            let (accepted, next) = session.verify_chain(&target, &mut c1, &block, &mut ws);
            assert_eq!((accepted, next), (want_accepted, pred));
            assert_eq!(c1.len(), p.len() + 1 + block.len());
            c1.truncate(p.len() + 1 + accepted);
            assert_eq!(c1.len(), c2.len());
            for l in 0..target.cfg.n_layers {
                for pos in 0..c1.len() {
                    assert_eq!(c1.layer(l).key(pos), c2.layer(l).key(pos));
                    assert_eq!(c1.layer(l).value(pos), c2.layer(l).value(pos));
                }
            }
        }
    }

    /// Losslessness against the independent oracle: the speculative stream
    /// is the greedy stream of `forward_full`, for mismatched draft/target
    /// pairs across seeds, γ values and prompts.
    #[test]
    fn speculative_is_lossless_greedy() {
        let mut rng = Rng::new(0x1055);
        let mut ws = Workspace::new();
        for (target_seed, draft_seed) in [(10, 20), (11, 21), (12, 22)] {
            let target = tiny(target_seed);
            let draft = tiny(draft_seed);
            for gamma in [1, 2, 5] {
                let p = prompt(&mut rng, 4, 40);
                let budget = 30;
                let reference = greedy_by_forward_full(&target, &p, budget);
                let (spec, stats) =
                    speculative_greedy_with_budget_ws(&target, &draft, &p, budget, gamma, &mut ws);
                assert_eq!(
                    spec, reference,
                    "lossless violated: seeds=({target_seed},{draft_seed}) γ={gamma}"
                );
                assert_eq!(stats.generated, spec.len());
                assert!(stats.acceptance_rate() <= 1.0);
            }
        }
    }

    /// The one-shots respect `max_seq`: the largest admissible budget
    /// (`max_seq + 1 − prompt`) runs flush to the frontier, one more is
    /// refused.
    #[test]
    fn respects_context_window() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let target = tiny(5);
        let draft = tiny(6);
        let max_seq = target.cfg.max_seq;
        let mut rng = Rng::new(3);
        let mut ws = Workspace::new();
        let p = prompt(&mut rng, max_seq - 6, 40);
        let reference = autoregressive_greedy_with_budget_ws(&target, &p, 7, &mut ws);
        assert_eq!(reference.len(), 7);
        let (out, _) = speculative_greedy_with_budget_ws(&target, &draft, &p, 7, 5, &mut ws);
        assert_eq!(out, reference);
        let over_ar = catch_unwind(AssertUnwindSafe(|| {
            autoregressive_greedy_with_budget_ws(&target, &p, 8, &mut Workspace::new())
        }));
        let over_spec = catch_unwind(AssertUnwindSafe(|| {
            speculative_greedy_with_budget_ws(&target, &draft, &p, 8, 5, &mut Workspace::new())
        }));
        assert!(over_ar.is_err() && over_spec.is_err());
    }

    /// At the extended budget (`max_seq − prompt + 1`) a run that reaches
    /// its last token with no room left takes the g = 0 plain-decode step.
    /// Stepped by hand: after every step but the last the target cache
    /// holds every emitted token but the pending one and the draft cache
    /// is level with it (or one deferred row short) — the frontiers never
    /// diverge — and a last step that drafts nothing emits one token.
    #[test]
    fn no_room_fallback_keeps_caches_in_lockstep() {
        let target = tiny(40);
        let draft = tiny(41);
        let max_seq = target.cfg.max_seq;
        let mut rng = Rng::new(7);
        let mut ws = Workspace::new();
        let mut plain_tails = 0;
        for prompt_len in [max_seq - 1, max_seq - 6] {
            let p = prompt(&mut rng, prompt_len, 40);
            let budget = max_seq + 1 - prompt_len;
            let reference = autoregressive_greedy_with_budget_ws(&target, &p, budget, &mut ws);
            assert_eq!(reference.len(), budget);
            let mut tc = target.new_cache();
            let mut dc = draft.new_cache();
            let pending = target.prefill_ws(&p, &mut tc, &mut ws);
            draft.prefill_ws(&p, &mut dc, &mut ws);
            let mut s = SpecSession::new(&target, &draft, &tc, &dc, pending, budget, 5);
            loop {
                let drafted = s.stats().drafted;
                let r = s.step_block(&target, &draft, &mut tc, &mut dc, &mut ws);
                if r.done {
                    if s.stats().drafted == drafted {
                        assert_eq!(r.committed, 1, "a plain decode step emits one token");
                        plain_tails += 1;
                    }
                    break;
                }
                assert_eq!(tc.len(), prompt_len + s.tokens().len() - 1);
                assert!(tc.len() - dc.len() <= 1, "draft frontier fell behind");
            }
            let (out, stats) = s.into_parts();
            assert_eq!(
                out, reference,
                "lossless violated at prompt_len {prompt_len}"
            );
            assert_eq!(stats.generated, out.len());
        }
        assert!(plain_tails >= 1, "the g = 0 step never ran");
    }

    /// A draft block whose bonus token would overshoot the budget must be
    /// clamped: `generated` counts only committed tokens.
    #[test]
    fn final_block_commit_is_clamped_to_budget() {
        // Self-draft so every block fully accepts and commits γ+1 tokens;
        // budget deliberately not a multiple of γ+1 so the last block
        // truncates mid-commit.
        let model = tiny(50);
        let mut ws = Workspace::new();
        for (budget, gamma) in [(7, 3), (9, 5), (11, 2)] {
            let (out, stats) = speculative_greedy_with_budget_ws(
                &model,
                &model,
                &[2, 9, 4],
                budget,
                gamma,
                &mut ws,
            );
            assert_eq!(out.len(), budget);
            assert_eq!(stats.generated, budget);
            assert!(stats.block_efficiency() <= (gamma + 1) as f64 + 1e-12);
        }
    }

    #[test]
    fn gamma_one_still_lossless() {
        let target = tiny(30);
        let draft = tiny(31);
        let mut ws = Workspace::new();
        let reference = autoregressive_greedy_with_budget_ws(&target, &[1, 2], 15, &mut ws);
        let (out, stats) =
            speculative_greedy_with_budget_ws(&target, &draft, &[1, 2], 15, 1, &mut ws);
        assert_eq!(out, reference);
        // The first token comes from prefill; γ=1 then commits at most 2
        // tokens per block.
        assert!(stats.blocks >= 7, "γ=1 commits at most 2 tokens per block");
    }

    /// The token oracle against the forward oracle: the `ArSession` stream
    /// is the greedy stream of stateless `forward_full` recompute.
    #[test]
    fn fused_autoregressive_matches_reference() {
        let target = tiny(70);
        let mut rng = Rng::new(0xA5);
        let mut ws = Workspace::new();
        for _ in 0..3 {
            let p_len = 1 + rng.below(8);
            let p = prompt(&mut rng, p_len, 40);
            let budget = 20;
            let reference = greedy_by_forward_full(&target, &p, budget);
            let got = autoregressive_greedy_with_budget_ws(&target, &p, budget, &mut ws);
            assert_eq!(got, reference);
        }
    }

    /// The pending-token-fold loop must stay lossless across draft/target
    /// pairs, γ values, and budgets, with its counters consistent.
    #[test]
    fn fused_speculative_is_lossless() {
        let mut rng = Rng::new(0xF01D);
        let mut ws = Workspace::new();
        for (target_seed, draft_seed) in [(10, 20), (11, 21), (12, 12)] {
            let target = tiny(target_seed);
            let draft = tiny(draft_seed);
            for gamma in [1, 2, 5] {
                let p = prompt(&mut rng, 4, 40);
                let budget = 30;
                let reference = autoregressive_greedy_with_budget_ws(&target, &p, budget, &mut ws);
                let (spec, stats) =
                    speculative_greedy_with_budget_ws(&target, &draft, &p, budget, gamma, &mut ws);
                assert_eq!(
                    spec, reference,
                    "fused loop lossy: seeds=({target_seed},{draft_seed}) γ={gamma}"
                );
                assert_eq!(stats.generated, spec.len());
                assert!(stats.accepted <= stats.drafted);
                // Self-draft (12,12) must fully accept.
                if target_seed == draft_seed {
                    assert_eq!(stats.accepted, stats.drafted);
                }
            }
        }
    }

    /// Boundary prompts run the one-shot flush to the context frontier;
    /// output must still match the reference.
    #[test]
    fn fused_loop_handles_context_boundary() {
        let target = tiny(40);
        let draft = tiny(41);
        let max_seq = target.cfg.max_seq;
        let mut rng = Rng::new(7);
        let mut ws = Workspace::new();
        for prompt_len in [max_seq - 1, max_seq - 6] {
            let p = prompt(&mut rng, prompt_len, 40);
            let budget = max_seq + 1 - prompt_len;
            let reference = autoregressive_greedy_with_budget_ws(&target, &p, budget, &mut ws);
            let (out, stats) =
                speculative_greedy_with_budget_ws(&target, &draft, &p, budget, 5, &mut ws);
            assert_eq!(out, reference, "boundary prompt_len {prompt_len}");
            assert_eq!(stats.generated, out.len());
        }
    }

    /// With the pending token recorded as a prefill token, τ obeys the γ+1
    /// bound — before the fix a fully-accepting run reported
    /// τ = (N·(γ+1) + 1)/N > γ+1.
    #[test]
    fn fused_block_efficiency_is_bounded_by_gamma_plus_one() {
        let model = tiny(90);
        let mut ws = Workspace::new();
        for (budget, gamma) in [(24, 5), (19, 3), (30, 2)] {
            let (out, stats) = speculative_greedy_with_budget_ws(
                &model,
                &model,
                &[4, 2, 8],
                budget,
                gamma,
                &mut ws,
            );
            assert_eq!(out.len(), budget);
            assert_eq!(stats.prefill_tokens, 1);
            assert_eq!(stats.generated, budget);
            assert!(
                stats.block_efficiency() <= (gamma + 1) as f64 + 1e-12,
                "τ = {} exceeds γ+1 at γ={gamma}",
                stats.block_efficiency()
            );
            // Self-draft: every full block commits exactly γ+1 tokens.
            assert!(stats.acceptance_rate() > 1.0 - 1e-12);
        }
    }

    /// `Session::run` over caches seeded by hand with exactly the prompt
    /// (the degenerate prefix) must reproduce the prompt-level one-shots.
    #[test]
    fn seeded_loops_match_prompt_loops() {
        let target = tiny(91);
        let draft = tiny(92);
        let mut ws = Workspace::new();
        let p = [7u32, 3, 5, 1];
        let budget = 20;
        let want_ar = autoregressive_greedy_with_budget_ws(&target, &p, budget, &mut ws);
        let (want_spec, want_stats) =
            speculative_greedy_with_budget_ws(&target, &draft, &p, budget, 4, &mut ws);

        let mut t_cache = target.new_cache();
        let pending = target.prefill_ws(&p, &mut t_cache, &mut ws);
        let ar = ArSession::new(&target, &t_cache, pending, budget);
        let (got_ar, _) = Session::Ar(ar).run(&target, &mut t_cache, None, &mut ws);
        assert_eq!(got_ar, want_ar);

        let mut t_cache = target.new_cache();
        let pending = target.prefill_ws(&p, &mut t_cache, &mut ws);
        let mut d_cache = draft.new_cache();
        draft.prefill_ws(&p, &mut d_cache, &mut ws);
        let spec = SpecSession::new(&target, &draft, &t_cache, &d_cache, pending, budget, 4);
        let (got_spec, got_stats) =
            Session::Spec(spec).run(&target, &mut t_cache, Some((&draft, &mut d_cache)), &mut ws);
        assert_eq!(got_spec, want_spec);
        assert_eq!(got_stats, want_stats);
    }

    /// A second identical run must be served entirely from the workspace
    /// pool the first one grew.
    #[test]
    fn fused_loop_reaches_steady_state_allocations() {
        let target = tiny(10);
        let draft = tiny(20);
        let mut ws = Workspace::new();
        // Warm-up run populates the pool for every request size.
        let p = [3u32, 7, 1, 9];
        speculative_greedy_with_budget_ws(&target, &draft, &p, 24, 3, &mut ws);
        let after_warmup = ws.fresh_allocs();
        speculative_greedy_with_budget_ws(&target, &draft, &p, 24, 3, &mut ws);
        assert_eq!(
            ws.fresh_allocs(),
            after_warmup,
            "second run must be served entirely from the pool"
        );
    }
}
