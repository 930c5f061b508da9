//! The loop state and per-block accounting every decode session shares:
//! the pending token, the budget, the emitted stream and its counters, and
//! the steps that do not depend on how proposals were produced — the
//! plain-decode step, the batched chain verify, and the accept → stats →
//! budget-clamped commit. [`SpecSession`](crate::SpecSession) and
//! [`ArSession`](crate::ArSession) embed one [`Core`] each and differ only
//! in their draft side.

use crate::metrics::SpecStats;
use crate::session::StepReport;
use crate::MAX_GAMMA;
use aasd_nn::{Decoder, KvCache};
use aasd_tensor::{argmax, Workspace};

/// A session's whole budget must fit `cache` on top of what it already
/// holds. Leased caches may be smaller than the model's context window — the
/// binding bound is whichever is tighter — and all committed tokens except
/// the final one are fed back, hence the `+ 1`.
pub(crate) fn assert_budget_fits(side: &str, model: &Decoder, cache: &KvCache, budget: usize) {
    assert!(
        cache.len() + budget <= model.cfg.max_seq.min(cache.capacity()) + 1,
        "budget exceeds {side} context window / lease capacity"
    );
}

/// Invariants between steps:
/// * `out` ends with the pending token (emitted, not yet fed to any cache);
/// * the target cache holds `t_off + out.len() − 1` positions — **except
///   after the final block**, which skips its rollback (the session is
///   finished; the caches are about to be reset or released anyway);
/// * `stats.generated == out.len()`.
#[derive(Debug, Clone)]
pub(crate) struct Core {
    pub(crate) pending: u32,
    budget: usize,
    gamma: usize,
    out: Vec<u32>,
    stats: SpecStats,
    t_off: usize,
    done: bool,
}

impl Core {
    /// Start from a pre-seeded target cache. `pending` is the first
    /// target-decided token not yet fed back; it is committed immediately
    /// (it was decided by prefill, so it lands in
    /// `SpecStats::prefill_tokens`), which is what makes time-to-first-token
    /// in a server equal to queue wait + prefill, not queue wait + prefill +
    /// first block.
    pub(crate) fn new(
        target: &Decoder,
        t_cache: &KvCache,
        pending: u32,
        budget: usize,
        gamma: usize,
    ) -> Self {
        assert!(
            (1..MAX_GAMMA).contains(&gamma),
            "gamma must be in 1..{MAX_GAMMA}"
        );
        assert_budget_fits("target", target, t_cache, budget);
        let mut s = Self {
            pending,
            budget,
            gamma,
            out: Vec::with_capacity(budget),
            stats: SpecStats::default(),
            t_off: t_cache.len(),
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

    /// Tokens of budget not yet emitted.
    #[inline]
    pub(crate) fn remaining(&self) -> usize {
        self.budget - self.out.len()
    }

    #[inline]
    pub(crate) fn tokens(&self) -> &[u32] {
        &self.out
    }

    #[inline]
    pub(crate) fn stats(&self) -> &SpecStats {
        &self.stats
    }

    #[inline]
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    pub(crate) fn into_parts(self) -> (Vec<u32>, SpecStats) {
        debug_assert_eq!(self.stats.generated, self.out.len());
        (self.out, self.stats)
    }

    /// Target-cache length between steps (see the struct invariants).
    pub(crate) fn t_base(&self) -> usize {
        self.t_off + self.out.len() - 1
    }

    /// The report for a step that began with `before` tokens emitted.
    pub(crate) fn report(&self, before: usize) -> StepReport {
        StepReport {
            committed: self.out.len() - before,
            done: self.done,
        }
    }

    /// Proposals the next block may carry: γ bounded by the budget (the
    /// block commits at most g+1 tokens) and by `room`, the positions the
    /// caches can still take beyond the pending token. 0 ⇒ no room to
    /// speculate, take [`Core::plain_decode`]. Must not be called on a
    /// finished session (`remaining() ≥ 1`).
    pub(crate) fn block_depth(&self, room: usize) -> usize {
        self.gamma.min(room).min(self.remaining() - 1)
    }

    /// One plain fused decode step: feed the pending token to the target
    /// and commit its argmax as the new pending token. This is the whole
    /// of autoregressive decoding, the speculative sessions' fallback when
    /// budget or context leaves no room for a proposal, and their final
    /// token.
    pub(crate) fn plain_decode(
        &mut self,
        target: &Decoder,
        t_cache: &mut KvCache,
        ws: &mut Workspace,
    ) {
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
    pub(crate) fn commit(&mut self, accepted: &[u32], next: u32, drafted: usize) {
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

/// The read-side API the speculative session forwards to its [`Core`].
macro_rules! core_accessors {
    ($session:ty) => {
        impl $session {
            /// Tokens emitted so far (monotone; committed tokens never
            /// change).
            #[inline]
            pub fn tokens(&self) -> &[u32] {
                self.core.tokens()
            }

            /// Counters so far; final once `is_done`.
            #[inline]
            pub fn stats(&self) -> &$crate::SpecStats {
                self.core.stats()
            }

            #[inline]
            pub fn is_done(&self) -> bool {
                self.core.is_done()
            }

            /// Consume the session, yielding the stream and its counters —
            /// exactly what the one-shot loops return.
            pub fn into_parts(self) -> (Vec<u32>, $crate::SpecStats) {
                self.core.into_parts()
            }
        }
    };
}
pub(crate) use core_accessors;
