//! Resumable, block-granular decode sessions.
//!
//! The fused loops in the crate root run one request to completion inside a
//! single function call — fine for a `main`-style harness, useless for a
//! scheduler that must interleave many requests. [`SpecSession`] and
//! [`ArSession`] factor the **body** of those loops into an explicit state
//! machine: one [`SpecSession::step_block`] call executes exactly one
//! draft-then-verify block (or one plain decode step when there is no room
//! to speculate), then returns control to the caller. A scheduler can run
//! block A of session 1, then block A of session 2, then block B of
//! session 1 — continuous batching at block granularity — and every session
//! still produces output token-identical to the one-shot loop, because the
//! one-shot loops themselves are now thin drivers over these sessions
//! (`speculative_greedy_seeded_ws` = `SpecSession::new` + `step_block` until
//! done). Every existing losslessness/boundary/τ test therefore pins this
//! refactor.
//!
//! Sessions do **not** own the model or the caches; they own only the loop
//! state (pending token, emitted tokens, counters). The caller supplies the
//! same `target`/`draft`/`t_cache`/`d_cache`/`ws` on every step — in the
//! server each session slot owns its caches and workspace, while the models
//! are shared read-only across worker threads.

use crate::adaptive::AdaptiveGamma;
use crate::metrics::SpecStats;
use crate::MAX_GAMMA;
use aasd_nn::{Decoder, KvCache};
use aasd_tensor::{argmax, Workspace};

/// What one [`SpecSession::step_block`] / [`ArSession::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// Tokens newly committed to the output by this call.
    pub committed: usize,
    /// True once the session has emitted its full budget; further step
    /// calls are no-ops returning `committed: 0`.
    pub done: bool,
}

/// Resumable fused speculative decoding: the seeded pending-token-fold loop
/// (`speculative_greedy_seeded_ws`) cut at block boundaries.
///
/// Invariants between steps (identical to the one-shot loop's):
/// * `out` ends with the pending token;
/// * `t_cache.len() == t_off + out.len() − 1` and likewise for the draft —
///   **except after the final block**, which skips the rollback exactly as
///   the one-shot loop does (the session is finished; the caches are about
///   to be reset or restored anyway), and except that the draft cache is
///   one row short while `unfed` holds the last proposal of a fully
///   accepted block (the next draft forward feeds it first).
#[derive(Debug, Clone)]
pub struct SpecSession {
    pending: u32,
    budget: usize,
    gamma: usize,
    out: Vec<u32>,
    stats: SpecStats,
    t_off: usize,
    d_off: usize,
    done: bool,
    /// The last proposal of a fully accepted block: committed, but not yet
    /// in the draft cache. Feeding it only matters when the whole block is
    /// accepted, so the forward is deferred until that is known and then
    /// rides along with the next block's first draft forward.
    unfed: Option<u32>,
    /// Optional per-session γ controller; when set, γ is re-picked from the
    /// running acceptance estimate at the start of every block.
    adaptive: Option<AdaptiveGamma>,
}

impl SpecSession {
    /// Start a session from pre-seeded caches (see
    /// `speculative_greedy_seeded_ws` for the cache contract). `pending` is
    /// the first target-decided token not yet fed to either cache; it is
    /// committed immediately (it was decided by prefill, so it lands in
    /// `SpecStats::prefill_tokens`), which is what makes time-to-first-token
    /// in a server equal to queue wait + prefill, not queue wait + prefill +
    /// first block.
    pub fn new(
        target: &Decoder,
        draft: &Decoder,
        t_cache: &KvCache,
        d_cache: &KvCache,
        pending: u32,
        budget: usize,
        gamma: usize,
    ) -> Self {
        assert!(
            (1..MAX_GAMMA).contains(&gamma),
            "gamma must be in 1..{MAX_GAMMA}"
        );
        // Leased caches may be smaller than the model's context window —
        // the binding bound is whichever is tighter.
        assert!(
            t_cache.len() + budget <= target.cfg.max_seq.min(t_cache.capacity()) + 1,
            "budget exceeds target context window / lease capacity"
        );
        assert!(
            d_cache.len() + budget <= draft.cfg.max_seq.min(d_cache.capacity()) + 1,
            "budget exceeds draft context window / lease capacity"
        );
        let mut s = Self {
            pending,
            budget,
            gamma,
            out: Vec::with_capacity(budget),
            stats: SpecStats::default(),
            t_off: t_cache.len(),
            d_off: d_cache.len(),
            done: budget == 0,
            unfed: None,
            adaptive: None,
        };
        if !s.done {
            s.out.push(pending);
            s.stats.generated += 1;
            s.stats.prefill_tokens += 1;
            s.done = s.out.len() == s.budget;
        }
        s
    }

    /// Attach an [`AdaptiveGamma`] controller: from the next block on, γ is
    /// chosen per block from the session's own running acceptance rate
    /// instead of staying fixed. Greedy speculative decoding is lossless
    /// under **any** γ schedule, so this changes speed only, never tokens.
    pub fn enable_adaptive_gamma(&mut self, controller: AdaptiveGamma) {
        self.adaptive = Some(controller);
    }

    /// The γ the next block will use (diagnostics).
    #[inline]
    pub fn gamma(&self) -> usize {
        self.adaptive.as_ref().map_or(self.gamma, |a| a.gamma())
    }

    /// Tokens emitted so far (monotone; committed tokens never change).
    #[inline]
    pub fn tokens(&self) -> &[u32] {
        &self.out
    }

    /// Counters so far; final once [`SpecSession::is_done`].
    #[inline]
    pub fn stats(&self) -> &SpecStats {
        &self.stats
    }

    #[inline]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Consume the session, yielding exactly what the one-shot loop returns.
    pub fn into_parts(self) -> (Vec<u32>, SpecStats) {
        (self.out, self.stats)
    }

    /// Feed the pending token to the draft — preceded, in the same forward,
    /// by the proposal a fully accepted block left un-fed — and leave the
    /// logits after the pending token in `d_logits[..vocab]`. The two-row
    /// forward is bitwise two one-row forwards (the kernel contract).
    fn feed_pending_to_draft(
        &mut self,
        draft: &Decoder,
        d_cache: &mut KvCache,
        ws: &mut Workspace,
        d_logits: &mut [f32],
    ) {
        let vocab = draft.cfg.vocab;
        match self.unfed.take() {
            Some(last) => {
                draft.forward_infer_ws(&[last, self.pending], d_cache, ws, d_logits);
                d_logits.copy_within(vocab.., 0);
            }
            None => draft.forward_infer_ws(&[self.pending], d_cache, ws, &mut d_logits[..vocab]),
        }
    }

    /// Execute **one** speculative block: draft up to γ proposals, verify
    /// them (plus the pending token) in a single batched target pass, commit
    /// the accepted prefix. Falls back to one plain decode step when budget
    /// or context leaves no room to speculate. Must be called with the same
    /// models/caches/workspace the session was created against.
    pub fn step_block(
        &mut self,
        target: &Decoder,
        draft: &Decoder,
        t_cache: &mut KvCache,
        d_cache: &mut KvCache,
        ws: &mut Workspace,
    ) -> StepReport {
        if self.done {
            return StepReport {
                committed: 0,
                done: true,
            };
        }
        let before = self.out.len();
        let (t_vocab, d_vocab) = (target.cfg.vocab, draft.cfg.vocab);
        let t_base = t_cache.len();
        // The draft frontier, counting a still un-fed last proposal.
        let d_base = d_cache.len() + usize::from(self.unfed.is_some());
        debug_assert_eq!(t_base, self.t_off + self.out.len() - 1);
        debug_assert_eq!(d_base, self.d_off + self.out.len() - 1);
        // The block feeds g+1 tokens (pending + g proposals) to both caches
        // and commits at most g+1 new tokens; each model bounds g by its own
        // remaining room — the tighter of its context window and its cache
        // lease. `done == false` guarantees budget − out.len() ≥ 1, and the
        // constructor's budget asserts guarantee base + 1 ≤ the bound, so
        // the subtractions cannot underflow.
        let t_room = target.cfg.max_seq.min(t_cache.capacity()) - t_base - 1;
        let d_room = draft.cfg.max_seq.min(d_cache.capacity()) - d_base - 1;
        let room = t_room.min(d_room);
        if let Some(ctl) = &self.adaptive {
            // Bound the controller's proposal by what the lease and budget
            // can still hold, so a cold-start prior can never ask for a
            // depth the collapsed lease lacks room for.
            self.gamma = ctl.gamma_capped(room.min(self.budget - self.out.len() - 1));
        }
        let g = self.gamma.min(self.budget - self.out.len() - 1).min(room);
        if g == 0 {
            // One token of budget or context left: plain fused decode step.
            let mut logits = ws.take(t_vocab);
            target.forward_infer_ws(&[self.pending], t_cache, ws, &mut logits);
            let next = argmax(&logits) as u32;
            ws.give(logits);
            self.out.push(next);
            self.stats.blocks += 1;
            self.stats.generated += 1;
            if self.out.len() < self.budget {
                // Keep the caches in lockstep for the next block.
                let mut dl = ws.take(2 * d_vocab);
                self.feed_pending_to_draft(draft, d_cache, ws, &mut dl);
                ws.give(dl);
            } else {
                self.done = true;
            }
            self.pending = next;
            return StepReport {
                committed: self.out.len() - before,
                done: self.done,
            };
        }

        // Draft phase: feed pending, then every proposal but the last (g
        // single-token forwards). The last proposal's row is only needed
        // if the whole block is accepted; see `unfed`.
        let mut d_logits = ws.take(2 * d_vocab);
        let mut proposals = [0u32; MAX_GAMMA];
        self.feed_pending_to_draft(draft, d_cache, ws, &mut d_logits);
        proposals[0] = argmax(&d_logits[..d_vocab]) as u32;
        for i in 1..g {
            draft.forward_infer_ws(&[proposals[i - 1]], d_cache, ws, &mut d_logits[..d_vocab]);
            proposals[i] = argmax(&d_logits[..d_vocab]) as u32;
        }
        ws.give(d_logits);
        let proposals = &proposals[..g];

        // Verify phase: ONE (g+1)-token target pass scores the pending token
        // and all g proposals. Row i predicts the token after position
        // t_base+i, i.e. proposals[i] for i < g, bonus for i = g.
        let mut v_logits = ws.take((g + 1) * t_vocab);
        // Build the verify block on the stack (no allocation); γ < MAX_GAMMA
        // is enforced by the constructor.
        let mut block = [0u32; MAX_GAMMA];
        block[0] = self.pending;
        block[1..=g].copy_from_slice(proposals);
        target.forward_infer_ws(&block[..=g], t_cache, ws, &mut v_logits);

        let mut accepted = 0;
        while accepted < g {
            let pred = argmax(&v_logits[accepted * t_vocab..(accepted + 1) * t_vocab]) as u32;
            if pred != proposals[accepted] {
                break;
            }
            accepted += 1;
        }
        let next = argmax(&v_logits[accepted * t_vocab..(accepted + 1) * t_vocab]) as u32;
        ws.give(v_logits);

        self.stats.blocks += 1;
        self.stats.drafted += g;
        self.stats.accepted += accepted;
        if let Some(ctl) = &mut self.adaptive {
            ctl.observe(g, accepted);
        }
        // Commit the accepted prefix plus the new pending token, clamped to
        // the remaining budget (invariant: stats.generated == out.len()).
        let commit = (accepted + 1).min(self.budget - self.out.len());
        self.stats.generated += commit;
        self.out
            .extend_from_slice(&proposals[..commit.min(accepted)]);
        if commit > accepted {
            self.out.push(next);
        }
        if self.out.len() >= self.budget {
            // Final block: skip the rollback, exactly like the one-shot loop.
            self.done = true;
            return StepReport {
                committed: self.out.len() - before,
                done: true,
            };
        }
        // Roll both caches back to the committed frontier; the new pending
        // token is fed as part of the NEXT block's verify pass.
        t_cache.truncate(t_base + 1 + accepted);
        if accepted == g {
            self.unfed = Some(proposals[g - 1]);
        } else {
            d_cache.truncate(d_base + 1 + accepted);
        }
        self.pending = next;
        StepReport {
            committed: self.out.len() - before,
            done: false,
        }
    }
}

/// Resumable fused autoregressive decoding: the seeded greedy loop
/// (`autoregressive_greedy_seeded_ws`) cut at single-token granularity, so
/// a scheduler can interleave AR sessions exactly like speculative ones
/// (one "block" = one token). This is the serving baseline speculative
/// scheduling is benchmarked against.
#[derive(Debug, Clone)]
pub struct ArSession {
    pending: u32,
    budget: usize,
    out: Vec<u32>,
    done: bool,
}

impl ArSession {
    /// Start from a pre-seeded cache; `pending` is the first target-decided
    /// token not yet fed back (committed immediately, mirroring
    /// [`SpecSession::new`]).
    pub fn new(target: &Decoder, cache: &KvCache, pending: u32, budget: usize) -> Self {
        assert!(
            cache.len() + budget <= target.cfg.max_seq.min(cache.capacity()) + 1,
            "budget exceeds context window / lease capacity"
        );
        let mut s = Self {
            pending,
            budget,
            out: Vec::with_capacity(budget),
            done: budget == 0,
        };
        if !s.done {
            s.out.push(pending);
            s.done = s.out.len() == s.budget;
        }
        s
    }

    #[inline]
    pub fn tokens(&self) -> &[u32] {
        &self.out
    }

    #[inline]
    pub fn is_done(&self) -> bool {
        self.done
    }

    pub fn into_tokens(self) -> Vec<u32> {
        self.out
    }

    /// Decode one token: feed the pending token, commit its argmax.
    pub fn step(
        &mut self,
        target: &Decoder,
        cache: &mut KvCache,
        ws: &mut Workspace,
    ) -> StepReport {
        if self.done {
            return StepReport {
                committed: 0,
                done: true,
            };
        }
        let mut logits = ws.take(target.cfg.vocab);
        target.forward_infer_ws(&[self.pending], cache, ws, &mut logits);
        let next = argmax(&logits) as u32;
        ws.give(logits);
        self.out.push(next);
        self.pending = next;
        self.done = self.out.len() == self.budget;
        StepReport {
            committed: 1,
            done: self.done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{autoregressive_greedy_with_budget, speculative_greedy_with_budget_ws};
    use aasd_nn::DecoderConfig;
    use aasd_tensor::Rng;

    fn tiny(seed: u64) -> Decoder {
        Decoder::new(DecoderConfig::tiny(40), seed)
    }

    fn prefill(model: &Decoder, prompt: &[u32], ws: &mut Workspace) -> (KvCache, u32) {
        let vocab = model.cfg.vocab;
        let mut cache = model.new_cache();
        let mut logits = ws.take(prompt.len() * vocab);
        model.forward_infer_ws(prompt, &mut cache, ws, &mut logits);
        let pending = argmax(&logits[(prompt.len() - 1) * vocab..]) as u32;
        ws.give(logits);
        (cache, pending)
    }

    /// Two sessions interleaved block-by-block on one workspace must each
    /// produce exactly what a dedicated one-shot loop produces — the
    /// property that makes continuous batching lossless.
    #[test]
    fn interleaved_sessions_match_one_shot_loops() {
        let target = tiny(10);
        let draft = tiny(20);
        let mut ws = Workspace::new();
        let p1 = [3u32, 7, 1, 9];
        let p2 = [5u32, 2];
        let (want1, stats1) =
            speculative_greedy_with_budget_ws(&target, &draft, &p1, 25, 3, &mut ws);
        let (want2, stats2) =
            speculative_greedy_with_budget_ws(&target, &draft, &p2, 18, 5, &mut ws);

        let (mut tc1, pend1) = prefill(&target, &p1, &mut ws);
        let (mut dc1, _) = prefill(&draft, &p1, &mut ws);
        let (mut tc2, pend2) = prefill(&target, &p2, &mut ws);
        let (mut dc2, _) = prefill(&draft, &p2, &mut ws);
        let mut s1 = SpecSession::new(&target, &draft, &tc1, &dc1, pend1, 25, 3);
        let mut s2 = SpecSession::new(&target, &draft, &tc2, &dc2, pend2, 18, 5);

        // Strict alternation; one session finishes first, the other keeps
        // stepping alone.
        while !s1.is_done() || !s2.is_done() {
            s1.step_block(&target, &draft, &mut tc1, &mut dc1, &mut ws);
            s2.step_block(&target, &draft, &mut tc2, &mut dc2, &mut ws);
        }
        let (out1, got_stats1) = s1.into_parts();
        let (out2, got_stats2) = s2.into_parts();
        assert_eq!(out1, want1);
        assert_eq!(out2, want2);
        assert_eq!(got_stats1, stats1);
        assert_eq!(got_stats2, stats2);
    }

    /// A self-draft session accepts every block whole, so every block but
    /// the last leaves its final proposal un-fed (draft cache one row short
    /// of the target's) and the next block — including the one-token
    /// `g == 0` tail — feeds it first. Streams stay the AR stream for every
    /// budget around the block boundaries.
    #[test]
    fn fully_accepted_blocks_defer_the_last_draft_feed() {
        let target = tiny(60);
        let mut ws = Workspace::new();
        let p = [2u32, 8, 5];
        for gamma in [1usize, 3, 5] {
            for budget in 2..=15 {
                let want = autoregressive_greedy_with_budget(&target, &p, budget);
                let (mut tc, pending) = prefill(&target, &p, &mut ws);
                let (mut dc, _) = prefill(&target, &p, &mut ws);
                let mut s = SpecSession::new(&target, &target, &tc, &dc, pending, budget, gamma);
                while !s
                    .step_block(&target, &target, &mut tc, &mut dc, &mut ws)
                    .done
                {
                    assert_eq!(dc.len() + 1, tc.len(), "γ={gamma} budget={budget}");
                }
                let (out, stats) = s.into_parts();
                assert_eq!(out, want, "γ={gamma} budget={budget}");
                assert_eq!(stats.accepted, stats.drafted, "γ={gamma} budget={budget}");
            }
        }
    }

    /// StepReport totals must reconcile with the emitted token count, and a
    /// finished session must refuse further work.
    #[test]
    fn step_reports_account_for_every_token() {
        let target = tiny(30);
        let draft = tiny(31);
        let mut ws = Workspace::new();
        let p = [1u32, 2, 3];
        let budget = 17;
        let (mut tc, pending) = prefill(&target, &p, &mut ws);
        let (mut dc, _) = prefill(&draft, &p, &mut ws);
        let mut s = SpecSession::new(&target, &draft, &tc, &dc, pending, budget, 4);
        let mut committed = s.tokens().len(); // the pending token
        assert_eq!(committed, 1);
        while !s.is_done() {
            let r = s.step_block(&target, &draft, &mut tc, &mut dc, &mut ws);
            assert!(r.committed >= 1, "an unfinished step must commit");
            committed += r.committed;
        }
        assert_eq!(committed, budget);
        assert_eq!(s.tokens().len(), budget);
        let r = s.step_block(&target, &draft, &mut tc, &mut dc, &mut ws);
        assert_eq!(
            r,
            StepReport {
                committed: 0,
                done: true
            }
        );
    }

    /// The AR session stepped to completion equals the reference loop.
    #[test]
    fn ar_session_matches_reference() {
        let target = tiny(40);
        let mut ws = Workspace::new();
        let p = [4u32, 4, 2];
        let budget = 12;
        let want = autoregressive_greedy_with_budget(&target, &p, budget);
        let (mut cache, pending) = prefill(&target, &p, &mut ws);
        let mut s = ArSession::new(&target, &cache, pending, budget);
        while !s.is_done() {
            s.step(&target, &mut cache, &mut ws);
        }
        assert_eq!(s.into_tokens(), want);
    }

    /// Zero-budget sessions are born done and commit nothing.
    #[test]
    fn zero_budget_session_is_immediately_done() {
        let target = tiny(50);
        let draft = tiny(51);
        let mut ws = Workspace::new();
        let (tc, pending) = prefill(&target, &[1, 2], &mut ws);
        let (dc, _) = prefill(&draft, &[1, 2], &mut ws);
        let s = SpecSession::new(&target, &draft, &tc, &dc, pending, 0, 3);
        assert!(s.is_done());
        assert!(s.tokens().is_empty());
        let a = ArSession::new(&target, &tc, pending, 0);
        assert!(a.is_done());
    }

    /// Budget-1 sessions commit exactly the pending token at construction.
    #[test]
    fn budget_one_session_emits_only_pending() {
        let target = tiny(52);
        let draft = tiny(53);
        let mut ws = Workspace::new();
        let mut rng = Rng::new(4);
        let p: Vec<u32> = (0..3).map(|_| rng.below(40) as u32).collect();
        let (tc, pending) = prefill(&target, &p, &mut ws);
        let (dc, _) = prefill(&draft, &p, &mut ws);
        let s = SpecSession::new(&target, &draft, &tc, &dc, pending, 1, 3);
        assert!(s.is_done());
        assert_eq!(s.tokens(), &[pending]);
        let (out, stats) = s.into_parts();
        assert_eq!(out, vec![pending]);
        assert_eq!(stats.generated, 1);
        assert_eq!(stats.prefill_tokens, 1);
        assert_eq!(stats.blocks, 0);
    }
}
