//! Resumable, block-granular decode sessions.
//!
//! A `main`-style harness can run one request to completion inside a single
//! function call; a scheduler that must interleave many requests cannot.
//! [`SpecSession`] and [`ArSession`] are the loop **body** as an explicit
//! state machine: one step call executes exactly one draft-then-verify
//! block (or one plain decode step when there is no room to speculate),
//! then returns control to the caller.
//! A scheduler can run block A of session 1, then block A of session 2,
//! then block B of session 1 — continuous batching at block granularity —
//! and every session still produces output token-identical to the one-shot
//! loop, because the one-shot loops are [`Session::run`] over these same
//! sessions.
//!
//! Sessions do **not** own the model or the caches; they own only the loop
//! state. An [`ArSession`] is that state (pending token, emitted tokens,
//! counters) plus the steps that do not depend on where proposals come
//! from; a [`SpecSession`] is an `ArSession` plus its draft side.
//! The caller supplies the same `target`/`draft`/`t_cache`/`d_cache`/`ws`
//! on every step — in the server each session slot owns its caches and
//! workspace, while the models are shared read-only across worker threads.

use crate::metrics::SpecStats;
use crate::MAX_GAMMA;
use aasd_nn::{Decoder, KvCache};
use aasd_tensor::{argmax, Workspace};

/// What one session step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// Tokens newly committed to the output by this call.
    pub committed: usize,
    /// True once the session has emitted its full budget; further step
    /// calls are no-ops returning `committed: 0`.
    pub done: bool,
}

/// A session's whole budget must fit `cache` on top of what it already
/// holds. Leased caches may be smaller than the model's context window — the
/// binding bound is whichever is tighter — and all committed tokens except
/// the final one are fed back, hence the `+ 1`.
fn assert_budget_fits(side: &str, model: &Decoder, cache: &KvCache, budget: usize) {
    assert!(
        cache.len() + budget <= model.cfg.max_seq.min(cache.capacity()) + 1,
        "budget exceeds {side} context window / lease capacity"
    );
}

/// Positions a cache can still take beyond the pending token: the tighter
/// of the model's context window and the cache lease, minus the `base`
/// positions held and the pending token's own row. The session
/// constructors' budget asserts guarantee `base + 1 ≤` the bound while the
/// session is not done, so this cannot underflow.
fn room(model: &Decoder, cache: &KvCache, base: usize) -> usize {
    model.cfg.max_seq.min(cache.capacity()) - base - 1
}

/// Resumable fused autoregressive decoding: the speculative loop with no
/// draft, so a scheduler can interleave AR sessions exactly like
/// speculative ones (one "block" = one token). This is the serving
/// baseline speculative scheduling is benchmarked against, and the loop
/// state every [`SpecSession`] runs on.
///
/// Invariants between steps:
/// * `out` ends with the pending token (emitted, not yet fed to any cache);
/// * the target cache holds `t_off + out.len() − 1` positions — **except
///   after a speculative session's final block**, which skips its rollback
///   (the session is finished; the caches are about to be reset or
///   released anyway);
/// * `stats.generated == out.len()`.
#[derive(Debug, Clone)]
pub struct ArSession {
    pending: u32,
    budget: usize,
    out: Vec<u32>,
    stats: SpecStats,
    t_off: usize,
    done: bool,
}

impl ArSession {
    /// Start from a pre-seeded target cache. `pending` is the first
    /// target-decided token not yet fed back; it is committed immediately
    /// (it was decided by prefill, so it lands in
    /// `SpecStats::prefill_tokens`), which is what makes time-to-first-token
    /// in a server equal to queue wait + prefill, not queue wait + prefill +
    /// first block.
    pub fn new(target: &Decoder, cache: &KvCache, pending: u32, budget: usize) -> Self {
        assert_budget_fits("target", target, cache, budget);
        let mut s = Self {
            pending,
            budget,
            out: Vec::with_capacity(budget),
            stats: SpecStats::default(),
            t_off: cache.len(),
            done: budget == 0,
        };
        if !s.done {
            s.out.push(pending);
            s.stats.generated += 1;
            s.stats.prefill_tokens += 1;
            s.done = s.out.len() == s.budget;
        }
        s
    }

    /// Tokens emitted so far (monotone; committed tokens never change).
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
        let before = self.out.len();
        if !self.done {
            self.plain_decode(target, cache, ws);
        }
        self.report(before)
    }

    fn into_parts(self) -> (Vec<u32>, SpecStats) {
        debug_assert_eq!(self.stats.generated, self.out.len());
        (self.out, self.stats)
    }

    /// Tokens of budget not yet emitted.
    #[inline]
    fn remaining(&self) -> usize {
        self.budget - self.out.len()
    }

    /// Target-cache length between steps (see the struct invariants).
    fn t_base(&self) -> usize {
        self.t_off + self.out.len() - 1
    }

    /// The report for a step that began with `before` tokens emitted.
    fn report(&self, before: usize) -> StepReport {
        StepReport {
            committed: self.out.len() - before,
            done: self.done,
        }
    }

    /// Proposals the next block may carry: `gamma` bounded by the budget
    /// (the block commits at most g+1 tokens) and by `room`, the positions
    /// the caches can still take beyond the pending token. 0 ⇒ no room to
    /// speculate, take [`ArSession::plain_decode`]. Must not be called on a
    /// finished session (`remaining() ≥ 1`).
    fn block_depth(&self, gamma: usize, room: usize) -> usize {
        gamma.min(room).min(self.remaining() - 1)
    }

    /// One plain fused decode step: feed the pending token to the target
    /// and commit its argmax as the new pending token. This is the whole
    /// of autoregressive decoding, the speculative sessions' fallback when
    /// budget or context leaves no room for a proposal, and their final
    /// token.
    fn plain_decode(&mut self, target: &Decoder, t_cache: &mut KvCache, ws: &mut Workspace) {
        let mut logits = ws.take(target.cfg.vocab);
        target.forward_infer_ws(&[self.pending], t_cache, ws, &mut logits);
        self.pending = argmax(&logits) as u32;
        ws.give(logits);
        self.out.push(self.pending);
        self.stats.blocks += 1;
        self.stats.generated += 1;
        self.done = self.out.len() == self.budget;
    }

    /// Batched chain verify: ONE `(g+1)`-row target pass scores the pending
    /// token and all `g = proposals.len()` proposals (row `i` predicts the
    /// token after position `base + i`, i.e. `proposals[i]` for `i < g`,
    /// the bonus token for `i = g`). Returns the accepted prefix length and
    /// the target's token after it — the correction on a mismatch, the free
    /// bonus on a full accept. The cache keeps all `g + 1` rows; the caller
    /// rolls it back.
    pub(crate) fn verify_chain(
        &self,
        target: &Decoder,
        t_cache: &mut KvCache,
        proposals: &[u32],
        ws: &mut Workspace,
    ) -> (usize, u32) {
        let (g, vocab) = (proposals.len(), target.cfg.vocab);
        // Built on the stack (no allocation); callers keep g < MAX_GAMMA.
        let mut block = [0u32; MAX_GAMMA];
        block[0] = self.pending;
        block[1..=g].copy_from_slice(proposals);
        let mut logits = ws.take((g + 1) * vocab);
        target.forward_infer_ws(&block[..=g], t_cache, ws, &mut logits);
        let row = |i: usize| argmax(&logits[i * vocab..(i + 1) * vocab]) as u32;
        let mut accepted = 0;
        let next = loop {
            let pred = row(accepted);
            if accepted == g || pred != proposals[accepted] {
                break pred;
            }
            accepted += 1;
        };
        ws.give(logits);
        (accepted, next)
    }

    /// Account one verified block and commit it: `accepted` are the
    /// proposals the target agreed with, `next` its token after them (the
    /// new pending token), `drafted` the proposals the block carried. α
    /// measures draft/target alignment, so `stats.accepted` counts every
    /// agreement, even one the budget then truncates away; the commit itself
    /// is clamped to the remaining budget so the bonus/correction token is
    /// never emitted past it.
    fn commit(&mut self, accepted: &[u32], next: u32, drafted: usize) {
        self.stats.blocks += 1;
        self.stats.drafted += drafted;
        self.stats.accepted += accepted.len();
        let commit = (accepted.len() + 1).min(self.remaining());
        self.stats.generated += commit;
        self.out
            .extend_from_slice(&accepted[..commit.min(accepted.len())]);
        if commit > accepted.len() {
            self.out.push(next);
        }
        self.pending = next;
        self.done = self.out.len() == self.budget;
    }
}

/// Resumable fused speculative decoding over a γ-token **chain** with the
/// pending-token fold: the correction/bonus token of block *n* is scored
/// inside block *n+1*'s batched verify pass instead of paying its own
/// single-token resync forward.
///
/// On top of the [`ArSession`] invariants, the draft cache holds
/// `d_off + tokens().len() − 1` positions between steps — except that it is
/// one row short while `unfed` holds the last proposal of a fully accepted
/// block (the next draft forward feeds it first).
#[derive(Debug, Clone)]
pub struct SpecSession {
    ar: ArSession,
    gamma: usize,
    d_off: usize,
    /// The last proposal of a fully accepted block: committed, but not yet
    /// in the draft cache. Feeding it only matters when the whole block is
    /// accepted, so the forward is deferred until that is known and then
    /// rides along with the next block's first draft forward.
    unfed: Option<u32>,
}

impl SpecSession {
    /// Start a session from **pre-seeded caches whose lengths may differ**:
    /// `t_cache` holds the target's committed context (e.g. vision prefix ∥
    /// text prompt) and `d_cache` the draft's — which in the hybrid-cache
    /// path is `[projected vision KV ∥ text KV]` and therefore *shorter*
    /// than the target's. The session only requires that both caches
    /// advance in lockstep **from here on**: per block both receive the
    /// same `pending + proposals` tokens and are rolled back by the same
    /// amount on rejection. `pending` is the first target-decided token not
    /// yet fed to either cache; it is committed immediately.
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
        assert_eq!(
            draft.cfg.vocab, target.cfg.vocab,
            "draft and target vocabularies differ"
        );
        assert_budget_fits("draft", draft, d_cache, budget);
        Self {
            ar: ArSession::new(target, t_cache, pending, budget),
            gamma,
            d_off: d_cache.len(),
            unfed: None,
        }
    }

    /// Tokens emitted so far (monotone; committed tokens never change).
    #[inline]
    pub fn tokens(&self) -> &[u32] {
        self.ar.tokens()
    }

    /// Counters so far; final once `is_done`.
    #[inline]
    pub fn stats(&self) -> &SpecStats {
        &self.ar.stats
    }

    #[inline]
    pub fn is_done(&self) -> bool {
        self.ar.is_done()
    }

    /// Consume the session, yielding the stream and its counters — exactly
    /// what the one-shot loops return.
    pub fn into_parts(self) -> (Vec<u32>, SpecStats) {
        self.ar.into_parts()
    }

    /// Feed `tok` (the pending token) to the draft — preceded, in the same
    /// forward, by the proposal a fully accepted block left un-fed — and
    /// leave the logits after `tok` in `d_logits[..vocab]`. The two-row
    /// forward is bitwise two one-row forwards (the kernel contract).
    fn feed_draft(
        &mut self,
        tok: u32,
        draft: &Decoder,
        d_cache: &mut KvCache,
        ws: &mut Workspace,
        d_logits: &mut [f32],
    ) {
        let vocab = draft.cfg.vocab;
        match self.unfed.take() {
            Some(last) => {
                draft.forward_infer_ws(&[last, tok], d_cache, ws, d_logits);
                d_logits.copy_within(vocab.., 0);
            }
            None => draft.forward_infer_ws(&[tok], d_cache, ws, &mut d_logits[..vocab]),
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
        let before = self.ar.out.len();
        if self.ar.done {
            return self.ar.report(before);
        }
        let d_vocab = draft.cfg.vocab;
        let t_base = t_cache.len();
        // The draft frontier, counting a still un-fed last proposal.
        let d_base = d_cache.len() + usize::from(self.unfed.is_some());
        debug_assert_eq!(t_base, self.ar.t_base());
        debug_assert_eq!(d_base, self.d_off + before - 1);
        // The block feeds g+1 tokens (pending + g proposals) to both caches;
        // each model bounds g by its own remaining room.
        let room = room(target, t_cache, t_base).min(room(draft, d_cache, d_base));
        let g = self.ar.block_depth(self.gamma, room);
        let fed = self.ar.pending;
        if g == 0 {
            self.ar.plain_decode(target, t_cache, ws);
            if !self.ar.done {
                // Keep the caches in lockstep for the next block.
                let mut d_logits = ws.take(2 * d_vocab);
                self.feed_draft(fed, draft, d_cache, ws, &mut d_logits);
                ws.give(d_logits);
            }
            return self.ar.report(before);
        }

        // Draft phase: feed pending, then every proposal but the last (g
        // single-token forwards). The last proposal's row is only needed
        // if the whole block is accepted; see `unfed`.
        let mut d_logits = ws.take(2 * d_vocab);
        let mut proposals = [0u32; MAX_GAMMA];
        self.feed_draft(fed, draft, d_cache, ws, &mut d_logits);
        proposals[0] = argmax(&d_logits[..d_vocab]) as u32;
        for i in 1..g {
            draft.forward_infer_ws(&[proposals[i - 1]], d_cache, ws, &mut d_logits[..d_vocab]);
            proposals[i] = argmax(&d_logits[..d_vocab]) as u32;
        }
        ws.give(d_logits);
        let proposals = &proposals[..g];

        let (accepted, next) = self.ar.verify_chain(target, t_cache, proposals, ws);
        self.ar.commit(&proposals[..accepted], next, g);
        if !self.ar.done {
            // Roll both caches back to the committed frontier; the new
            // pending token is fed as part of the NEXT block's verify pass.
            t_cache.truncate(t_base + 1 + accepted);
            if accepted == g {
                self.unfed = Some(proposals[g - 1]);
            } else {
                d_cache.truncate(d_base + 1 + accepted);
            }
        }
        self.ar.report(before)
    }
}

/// Any decode session — what the one-shot loops run to
/// completion and what a scheduler slot advances one step at a time.
#[derive(Debug, Clone)]
pub enum Session {
    Ar(ArSession),
    Spec(SpecSession),
}

impl Session {
    fn core(&self) -> &ArSession {
        match self {
            Session::Ar(s) => s,
            Session::Spec(s) => &s.ar,
        }
    }

    /// Tokens emitted so far.
    pub fn tokens(&self) -> &[u32] {
        self.core().tokens()
    }

    pub fn is_done(&self) -> bool {
        self.core().is_done()
    }

    /// Speculation counters so far; `None` for an autoregressive session.
    pub fn stats(&self) -> Option<&SpecStats> {
        match self {
            Session::Ar(_) => None,
            Session::Spec(s) => Some(s.stats()),
        }
    }

    /// One step: a speculative block, or one token for `Ar`. `draft` is the
    /// draft model with the session's draft cache; speculative sessions
    /// require it, `Ar` ignores it.
    pub fn step(
        &mut self,
        target: &Decoder,
        t_cache: &mut KvCache,
        draft: Option<(&Decoder, &mut KvCache)>,
        ws: &mut Workspace,
    ) -> StepReport {
        match self {
            Session::Ar(s) => s.step(target, t_cache, ws),
            Session::Spec(s) => {
                let (draft, d_cache) = draft.expect("speculative session without a draft cache");
                s.step_block(target, draft, t_cache, d_cache, ws)
            }
        }
    }

    /// Step until the budget is emitted — the body of every one-shot loop.
    pub fn run(
        mut self,
        target: &Decoder,
        t_cache: &mut KvCache,
        mut draft: Option<(&Decoder, &mut KvCache)>,
        ws: &mut Workspace,
    ) -> (Vec<u32>, SpecStats) {
        while !self.is_done() {
            let draft = draft.as_mut().map(|(d, c)| (*d, &mut **c));
            self.step(target, t_cache, draft, ws);
        }
        match self {
            Session::Ar(s) => s.into_parts(),
            Session::Spec(s) => s.into_parts(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{autoregressive_greedy_with_budget_ws, speculative_greedy_with_budget_ws};
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
                let want = autoregressive_greedy_with_budget_ws(&target, &p, budget, &mut ws);
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

    /// The AR session stepped by hand equals the one-shot loop.
    #[test]
    fn ar_session_matches_reference() {
        let target = tiny(40);
        let mut ws = Workspace::new();
        let p = [4u32, 4, 2];
        let budget = 12;
        let want = autoregressive_greedy_with_budget_ws(&target, &p, budget, &mut ws);
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

    /// A draft whose vocabulary differs from the target's could propose an
    /// id the target cannot embed: the constructor refuses the pair.
    #[test]
    #[should_panic(expected = "vocabularies differ")]
    fn draft_with_another_vocab_is_refused() {
        let target = tiny(54);
        let draft = Decoder::new(DecoderConfig::tiny(48), 55);
        let mut ws = Workspace::new();
        let (tc, pending) = prefill(&target, &[1, 2], &mut ws);
        let (dc, _) = prefill(&draft, &[1, 2], &mut ws);
        SpecSession::new(&target, &draft, &tc, &dc, pending, 8, 3);
    }
}
