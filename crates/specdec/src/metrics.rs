//! Run statistics for speculative decoding, matching the paper's metric
//! vocabulary: acceptance rate α and block efficiency τ. Walltime speedup ω
//! and decoding speed δ are measured by the bench harness (they depend on a
//! clock); α and τ are clock-independent counts collected here.

/// Counters accumulated over one speculative generation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Verify blocks executed (target forward passes for scoring).
    pub blocks: usize,
    /// Draft tokens proposed in total.
    pub drafted: usize,
    /// Draft tokens accepted by the target.
    pub accepted: usize,
    /// Tokens committed to the output (accepted + corrections/bonuses),
    /// including any prefill-decided tokens. Invariant: equals the output
    /// length at every loop exit.
    pub generated: usize,
    /// Tokens decided by the prompt prefill alone and committed without a
    /// verify block: a session emits its initial *pending* token up front,
    /// so this is 1 for any non-empty run. Kept separate so
    /// [`SpecStats::block_efficiency`] counts verify-pass tokens only.
    pub prefill_tokens: usize,
}

impl SpecStats {
    /// Acceptance rate α: fraction of drafted tokens the target accepted.
    pub fn acceptance_rate(&self) -> f64 {
        if self.drafted == 0 {
            0.0
        } else {
            self.accepted as f64 / self.drafted as f64
        }
    }

    /// Block efficiency τ: average tokens committed **per target verify
    /// pass**, excluding prefill-decided tokens that never went through a
    /// verify block (≥ 1 whenever a full block ran; upper-bounded by γ+1 —
    /// the initial pending token is excluded via
    /// [`SpecStats::prefill_tokens`] rather than inflating τ past the
    /// bound).
    pub fn block_efficiency(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.generated.saturating_sub(self.prefill_tokens) as f64 / self.blocks as f64
        }
    }

    /// Fold another run's counters into this one (for dataset-level means
    /// and for the serving scheduler, which merges every finished session's
    /// stats into one registry).
    ///
    /// τ convention: each run commits its first
    /// token straight from prefill and records it in
    /// [`SpecStats::prefill_tokens`] (1 per run), so
    /// [`SpecStats::block_efficiency`] computes
    /// `(generated − prefill_tokens) / blocks` — per-verify-pass tokens
    /// only. Because **all** counters, including `prefill_tokens`, are
    /// plain sums, merging N single-run stats yields `prefill_tokens == N`
    /// and the merged τ is the blocks-weighted mean of the per-run τ values,
    /// still bounded by γ+1. Merging is commutative and associative
    /// (`merge_is_associative_and_commutative` below), so the scheduler may
    /// fold sessions in completion order — which varies with worker
    /// interleaving — and always report the same aggregate α/τ.
    pub fn merge(&mut self, other: &SpecStats) {
        self.blocks += other.blocks;
        self.drafted += other.drafted;
        self.accepted += other.accepted;
        self.generated += other.generated;
        self.prefill_tokens += other.prefill_tokens;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_on_empty_stats_are_zero() {
        let s = SpecStats::default();
        assert_eq!(s.acceptance_rate(), 0.0);
        assert_eq!(s.block_efficiency(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SpecStats {
            blocks: 2,
            drafted: 10,
            accepted: 6,
            generated: 8,
            prefill_tokens: 0,
        };
        let b = SpecStats {
            blocks: 1,
            drafted: 5,
            accepted: 5,
            generated: 6,
            prefill_tokens: 0,
        };
        a.merge(&b);
        assert_eq!(a.blocks, 3);
        assert_eq!(a.drafted, 15);
        assert_eq!(a.accepted, 11);
        assert_eq!(a.generated, 14);
        assert!((a.acceptance_rate() - 11.0 / 15.0).abs() < 1e-12);
        assert!((a.block_efficiency() - 14.0 / 3.0).abs() < 1e-12);
    }

    /// The scheduler merges per-session stats in completion order, which
    /// depends on worker interleaving — so merge must be associative and
    /// commutative, and the seeded-loop τ convention (one `prefill_tokens`
    /// per run, excluded from τ) must survive any grouping.
    #[test]
    fn merge_is_associative_and_commutative() {
        let runs = [
            SpecStats {
                blocks: 3,
                drafted: 9,
                accepted: 7,
                generated: 11,
                prefill_tokens: 1,
            },
            SpecStats {
                blocks: 5,
                drafted: 25,
                accepted: 4,
                generated: 10,
                prefill_tokens: 1,
            },
            SpecStats {
                blocks: 1,
                drafted: 2,
                accepted: 2,
                generated: 4,
                prefill_tokens: 1,
            },
        ];
        let [a, b, c] = runs.clone();

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);

        // Commutativity: fold in reverse completion order.
        let mut rev = SpecStats::default();
        for r in runs.iter().rev() {
            rev.merge(r);
        }
        assert_eq!(left, rev);

        // One prefill token per seeded run, excluded from τ; the merged τ
        // is the blocks-weighted mean of per-run τ values.
        assert_eq!(left.prefill_tokens, 3);
        let want_tau = ((11 - 1) + (10 - 1) + (4 - 1)) as f64 / (3 + 5 + 1) as f64;
        assert!((left.block_efficiency() - want_tau).abs() < 1e-12);
        let per_run_weighted: f64 = runs
            .iter()
            .map(|r| r.block_efficiency() * r.blocks as f64)
            .sum::<f64>()
            / runs.iter().map(|r| r.blocks).sum::<usize>() as f64;
        assert!((left.block_efficiency() - per_run_weighted).abs() < 1e-12);
    }

    /// The fused loop's prefill-decided pending token must not inflate τ:
    /// with γ=2 and full acceptance, 3 blocks commit 9 tokens plus 1
    /// prefill token; τ is 3 (= γ+1), not 10/3.
    #[test]
    fn prefill_tokens_are_excluded_from_block_efficiency() {
        let s = SpecStats {
            blocks: 3,
            drafted: 6,
            accepted: 6,
            generated: 10,
            prefill_tokens: 1,
        };
        assert!((s.block_efficiency() - 3.0).abs() < 1e-12);
        let mut merged = s.clone();
        merged.merge(&s);
        assert_eq!(merged.prefill_tokens, 2);
        assert!((merged.block_efficiency() - 3.0).abs() < 1e-12);
    }
}
