//! Adaptive speculative depth: retune γ per session from the **running
//! acceptance rate** instead of serving every request with one global γ.
//!
//! Under the standard i.i.d.-acceptance model (Leviathan et al. 2023), a
//! block drafted at depth `g` with per-token acceptance probability `α`
//! commits `E[tokens] = (1 − α^{g+1}) / (1 − α)` tokens and costs one
//! batched target pass plus `g` single-token draft passes. With `c` the
//! draft/target cost ratio, throughput per unit cost is
//!
//! ```text
//! eff(g) = (1 − α^{g+1}) / (1 − α) / (g·c + 1)
//! ```
//!
//! [`AdaptiveGamma`] tracks `α̂` with an EWMA over per-drafted-token
//! accept/reject outcomes and picks `argmax_g eff(g)` over `1..MAX_GAMMA`
//! each block. Aligned drafts (α̂ → 1) push γ up toward the cap; unaligned
//! drafts (α̂ → 0) collapse γ to 1 so the engine stops paying for doomed
//! speculation. Greedy speculative decoding is lossless under **any** γ
//! schedule — every committed token is argmax under the target's own
//! logits — so the controller changes wall-clock only, never output.
//!
//! Determinism: the controller is pure per-session state driven solely by
//! that session's accept/reject history, so engine worker count and slot
//! interleaving cannot perturb its γ choices (pinned by
//! `tests/serving_determinism.rs`).

use crate::MAX_GAMMA;

/// EWMA acceptance tracker + per-block γ optimizer. `Clone` so sessions
/// that fork (e.g. engine retries) carry their learned state.
#[derive(Debug, Clone)]
pub struct AdaptiveGamma {
    /// Running estimate of the per-token acceptance probability.
    alpha_hat: f64,
    /// EWMA retention: `α̂ ← β·α̂ + (1−β)·x` per observed draft token.
    beta: f64,
    /// Draft forward cost relative to one batched target pass.
    cost_ratio: f64,
}

impl AdaptiveGamma {
    /// Neutral prior: α̂ = 0.5, β = 0.9 (≈ last 10 draft tokens dominate).
    pub fn new(cost_ratio: f64) -> Self {
        Self::with_prior(cost_ratio, 0.9, 0.5)
    }

    /// Controller with an explicit EWMA retention and initial α̂.
    pub fn with_prior(cost_ratio: f64, beta: f64, alpha0: f64) -> Self {
        assert!(
            cost_ratio.is_finite() && cost_ratio > 0.0,
            "cost_ratio must be a positive finite number"
        );
        assert!((0.0..1.0).contains(&beta), "beta must be in [0, 1)");
        assert!((0.0..=1.0).contains(&alpha0), "alpha0 must be in [0, 1]");
        Self {
            alpha_hat: alpha0,
            beta,
            cost_ratio,
        }
    }

    /// Current acceptance-rate estimate.
    #[inline]
    pub fn alpha_hat(&self) -> f64 {
        self.alpha_hat
    }

    /// Fold one verified block into the estimate: `drafted` tokens were
    /// proposed, the first `accepted` of them matched the target. Each
    /// drafted token is one Bernoulli observation (accepted prefix → 1,
    /// the first rejection → 0; tokens after a rejection were never
    /// scored, so they carry no signal and are not counted).
    pub fn observe(&mut self, drafted: usize, accepted: usize) {
        debug_assert!(accepted <= drafted);
        let observed = if accepted < drafted {
            accepted + 1
        } else {
            drafted
        };
        for i in 0..observed {
            let x = if i < accepted { 1.0 } else { 0.0 };
            self.alpha_hat = self.beta * self.alpha_hat + (1.0 - self.beta) * x;
        }
    }

    /// The throughput-per-cost–optimal depth for the current α̂, smallest
    /// γ winning ties. Always in `1..MAX_GAMMA`, so the result is a valid
    /// `SpecSession` γ as-is.
    pub fn gamma(&self) -> usize {
        // Clamp α̂ into [ε, 1−ε]: at 1 the geometric-series quotient
        // divides by zero (and already at 0.9999 the optimum is pinned at
        // the cap); at exactly 0 the quotient is fine but the lower bound
        // keeps eff() strictly positive so the argmax is well-ordered even
        // if a cold-start prior or degenerate EWMA lands on the frontier.
        let a = self.alpha_hat.clamp(1e-4, 0.9999);
        let mut best_g = 1;
        let mut best_eff = f64::NEG_INFINITY;
        for g in 1..MAX_GAMMA {
            let expected = (1.0 - a.powi(g as i32 + 1)) / (1.0 - a);
            let eff = expected / (g as f64 * self.cost_ratio + 1.0);
            if eff > best_eff {
                best_eff = eff;
                best_g = g;
            }
        }
        best_g
    }

    /// [`AdaptiveGamma::gamma`] bounded to what the session can still use:
    /// never below 1 (a degenerate bound still drafts one token — the
    /// caller's own room checks handle true zero-room blocks) and never
    /// beyond `remaining` — the lease/budget headroom — so the cold-start
    /// prior cannot propose a depth the collapsed lease cannot hold.
    pub fn gamma_capped(&self, remaining: usize) -> usize {
        self.gamma().clamp(1, remaining.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_acceptance_drives_gamma_to_the_cap() {
        let mut ctl = AdaptiveGamma::new(1.0 / 16.0);
        for _ in 0..8 {
            ctl.observe(8, 8);
        }
        assert!(ctl.alpha_hat() > 0.99, "alpha_hat = {}", ctl.alpha_hat());
        assert_eq!(ctl.gamma(), MAX_GAMMA - 1);
    }

    #[test]
    fn total_rejection_collapses_gamma_to_one() {
        let mut ctl = AdaptiveGamma::new(1.0 / 16.0);
        for _ in 0..64 {
            ctl.observe(4, 0);
        }
        assert!(ctl.alpha_hat() < 0.01, "alpha_hat = {}", ctl.alpha_hat());
        assert_eq!(ctl.gamma(), 1);
    }

    #[test]
    fn gamma_is_monotone_in_alpha() {
        let cost = 1.0 / 8.0;
        let mut last = 0;
        for a in [0.0, 0.2, 0.4, 0.6, 0.8, 0.95, 1.0] {
            let ctl = AdaptiveGamma::with_prior(cost, 0.9, a);
            let g = ctl.gamma();
            assert!((1..MAX_GAMMA).contains(&g));
            assert!(g >= last, "gamma dropped from {last} to {g} at alpha {a}");
            last = g;
        }
        assert!(last > 1, "high alpha should push gamma above 1");
    }

    #[test]
    fn expensive_draft_prefers_shallower_blocks() {
        let cheap = AdaptiveGamma::with_prior(0.05, 0.9, 0.8).gamma();
        let dear = AdaptiveGamma::with_prior(0.8, 0.9, 0.8).gamma();
        assert!(
            dear <= cheap,
            "costlier draft must not speculate deeper: {dear} vs {cheap}"
        );
        assert!(cheap > 1);
    }

    /// The α̂ → 1 frontier: an exactly-1.0 prior (or an EWMA saturated by
    /// perfect acceptance) must yield a finite, cap-sized γ — not NaN/∞
    /// from the (1−α̂) division.
    #[test]
    fn alpha_one_frontier_stays_finite_at_the_cap() {
        let ctl = AdaptiveGamma::with_prior(1.0 / 16.0, 0.9, 1.0);
        assert_eq!(ctl.alpha_hat(), 1.0, "prior must sit exactly on 1");
        let g = ctl.gamma();
        assert_eq!(g, MAX_GAMMA - 1, "singular frontier must pin the cap");
        assert!((1..MAX_GAMMA).contains(&ctl.gamma_capped(usize::MAX)));
    }

    /// The α̂ → 0 frontier: an exactly-0.0 prior collapses to γ = 1 with a
    /// well-ordered argmax (no −∞/0 ties).
    #[test]
    fn alpha_zero_frontier_collapses_to_one() {
        let ctl = AdaptiveGamma::with_prior(1.0 / 16.0, 0.9, 0.0);
        assert_eq!(ctl.gamma(), 1);
        assert_eq!(ctl.gamma_capped(5), 1);
    }

    /// `gamma_capped` bounds the proposal into `[1, remaining]`: a
    /// cold-start prior cannot exceed the lease headroom, and a zero-room
    /// cap still returns a valid depth of 1.
    #[test]
    fn gamma_capped_respects_the_lease_budget() {
        let ctl = AdaptiveGamma::with_prior(1.0 / 64.0, 0.9, 1.0);
        assert_eq!(ctl.gamma(), MAX_GAMMA - 1, "uncapped proposal is deep");
        assert_eq!(ctl.gamma_capped(3), 3, "capped to the remaining lease");
        assert_eq!(ctl.gamma_capped(1), 1);
        assert_eq!(ctl.gamma_capped(0), 1, "zero room still yields a valid γ");
        let low = AdaptiveGamma::with_prior(1.0 / 64.0, 0.9, 0.0);
        assert_eq!(low.gamma_capped(40), 1, "cap never raises the proposal");
    }

    /// Partial acceptance observes the rejection token too: 3-of-8 feeds
    /// three 1s and one 0, nothing for the never-scored tail.
    #[test]
    fn observe_counts_only_scored_tokens() {
        let mut a = AdaptiveGamma::with_prior(0.1, 0.5, 0.5);
        let mut b = AdaptiveGamma::with_prior(0.1, 0.5, 0.5);
        a.observe(8, 3);
        for x in [1.0, 1.0, 1.0, 0.0_f64] {
            b.alpha_hat = b.beta * b.alpha_hat + (1.0 - b.beta) * x;
        }
        assert_eq!(a.alpha_hat().to_bits(), b.alpha_hat().to_bits());
    }
}
