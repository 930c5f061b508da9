//! Calibrated memory-bound device clock.
//!
//! Speculative decoding's economics live on accelerators where small-batch
//! decoding is **memory-bandwidth bound**: every decode step streams the
//! full weight set through the memory hierarchy, so a forward pass costs
//! roughly `bytes / bandwidth` regardless of how many tokens it scores (up
//! to the arithmetic-intensity knee). A batched verify of γ+1 tokens is
//! therefore ≈ one weight pass, which is the whole reason drafting wins.
//!
//! The CPU-walltime clock in this repo does *not* live in that regime: a
//! 6-row verify measures 1.45× a one-row decode step, not ≈ 1×
//! (`nn.verify_over_decode1`, benchmark `solo-decode`, γ 5, 2-vCPU avx2).
//! [`DeviceClock`] models the memory-bound regime from each model's
//! **real-world analogue** byte footprint: measured α/τ counts
//! (clock-independent) and per-pass times `bytes / bandwidth + overhead`
//! give the speedup ω such a device would see. Both clocks appear side by
//! side in `table1` output; neither replaces the other.

use crate::metrics::SpecStats;

/// Bytes streamed per forward pass for a model with `params` parameters
/// held in fp16 — the footprint that dominates memory-bound decode.
pub fn fp16_bytes(params: f64) -> f64 {
    params * 2.0
}

/// An analytical memory-bound decode clock: one forward pass over a model
/// with weight footprint `bytes` costs `bytes / bandwidth + overhead`,
/// independent of how many tokens the pass scores.
#[derive(Debug, Clone, Copy)]
pub struct DeviceClock {
    /// Effective HBM read bandwidth in bytes/second.
    pub bandwidth_bytes_per_s: f64,
    /// Fixed per-pass launch/dispatch overhead in seconds.
    pub pass_overhead_s: f64,
}

impl DeviceClock {
    pub fn new(bandwidth_bytes_per_s: f64, pass_overhead_s: f64) -> Self {
        assert!(bandwidth_bytes_per_s > 0.0, "bandwidth must be positive");
        assert!(pass_overhead_s >= 0.0, "overhead must be non-negative");
        Self {
            bandwidth_bytes_per_s,
            pass_overhead_s,
        }
    }

    /// An A100-class calibration: ~2 TB/s effective HBM bandwidth and ~20 µs
    /// of kernel-launch overhead per pass.
    pub fn a100() -> Self {
        Self::new(2.0e12, 2.0e-5)
    }

    /// Seconds for one forward pass of a model streaming `bytes` of weights.
    pub fn pass_s(&self, bytes: f64) -> f64 {
        bytes / self.bandwidth_bytes_per_s + self.pass_overhead_s
    }

    /// Seconds the autoregressive baseline spends decoding the run in
    /// `stats`: the tokens it committed after prefill, one target pass each.
    pub fn ar_s(&self, target_bytes: f64, stats: &SpecStats) -> f64 {
        (stats.generated - stats.prefill_tokens) as f64 * self.pass_s(target_bytes)
    }

    /// Seconds the speculative loop spends decoding the run in `stats`:
    /// every drafted token is one draft pass, and every verify block is one
    /// batched target pass (≈ one weight stream in the memory-bound regime —
    /// the fused loop folds the pending resync token into the next block, so
    /// no extra per-block target pass is charged).
    pub fn spec_s(&self, target_bytes: f64, draft_bytes: f64, stats: &SpecStats) -> f64 {
        stats.drafted as f64 * self.pass_s(draft_bytes)
            + stats.blocks as f64 * self.pass_s(target_bytes)
    }

    /// Device-model walltime speedup ω = ar_s / spec_s for the run in
    /// `stats`. Returns 1.0 for an empty run.
    pub fn speedup(&self, target_bytes: f64, draft_bytes: f64, stats: &SpecStats) -> f64 {
        let spec = self.spec_s(target_bytes, draft_bytes, stats);
        if spec == 0.0 {
            return 1.0;
        }
        self.ar_s(target_bytes, stats) / spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_stats(blocks: usize, gamma: usize, accepted: usize) -> SpecStats {
        SpecStats {
            blocks,
            drafted: blocks * gamma,
            accepted,
            generated: accepted + blocks + 1,
            prefill_tokens: 1,
        }
    }

    #[test]
    fn pass_time_scales_with_bytes() {
        let clock = DeviceClock::new(1e12, 0.0);
        assert!((clock.pass_s(1e9) - 1e-3).abs() < 1e-12);
        assert!(clock.pass_s(fp16_bytes(7e9)) > clock.pass_s(fp16_bytes(112e6)));
    }

    /// With a tiny draft and full acceptance, the device speedup approaches
    /// the block size γ+1 — the textbook memory-bound limit.
    #[test]
    fn full_acceptance_approaches_gamma_plus_one() {
        let clock = DeviceClock::new(2e12, 0.0);
        let gamma = 4;
        let stats = run_stats(10, gamma, 10 * gamma);
        let omega = clock.speedup(fp16_bytes(7e9), fp16_bytes(7e6), &stats);
        assert!(
            omega > (gamma as f64 + 1.0) * 0.95,
            "omega {omega} should approach gamma+1"
        );
    }

    /// Zero acceptance with a non-free draft must report ω < 1 — the model
    /// has to be able to say speculation *loses*.
    #[test]
    fn zero_acceptance_loses() {
        let clock = DeviceClock::a100();
        let stats = run_stats(10, 4, 0);
        let omega = clock.speedup(fp16_bytes(7e9), fp16_bytes(112e6), &stats);
        assert!(omega < 1.0, "omega {omega} should be < 1 at alpha = 0");
    }

    /// Larger targets amortize draft cost better: same counts, bigger
    /// target ⇒ bigger ω. This is the 7B→13B trend Table 1 reports.
    #[test]
    fn bigger_target_means_bigger_speedup() {
        let clock = DeviceClock::a100();
        let stats = run_stats(10, 4, 25);
        let draft = fp16_bytes(112e6);
        let small = clock.speedup(fp16_bytes(7e9), draft, &stats);
        let large = clock.speedup(fp16_bytes(13e9), draft, &stats);
        assert!(large > small, "13B {large} should beat 7B {small}");
    }

    #[test]
    fn empty_run_is_neutral() {
        let clock = DeviceClock::a100();
        assert_eq!(
            clock.speedup(fp16_bytes(7e9), fp16_bytes(112e6), &SpecStats::default()),
            1.0
        );
    }
}
