//! Lightweight per-op profiler for the fused decode path.
//!
//! The decode hot loop is a fixed chain of eight op classes (embed →
//! per-layer norm/qkv/attention/o-proj/mlp → final norm → lm-head). To make
//! perf work per-layer-measurable instead of end-to-end-only, every fused
//! forward brackets each op in a [`Profiler`] scope. The profiler is
//! **zero-cost when disabled**: [`Profiler::begin`] is a single branch
//! returning `None`, no clock is read, and [`Profiler::end`] is a no-op on
//! `None`. When enabled it accumulates wall-clock nanoseconds and call
//! counts into fixed-size arrays — no heap allocation on either path, so it
//! is safe to leave enabled inside the zero-allocation decode test.

use std::time::Instant;

/// The op classes instrumented on the fused decode path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Op {
    /// Token-embedding gather.
    Embed = 0,
    /// RMS norms (both per-block norms and the final norm).
    RmsNorm = 1,
    /// Q/K/V projections + RoPE + cache append.
    Qkv = 2,
    /// Attention score dots + softmax.
    AttnScore = 3,
    /// Attention value mixing (weighted axpy over cached V).
    AttnMix = 4,
    /// Output projection (residual-folded `+= ctx·Wo`).
    OProj = 5,
    /// SwiGLU MLP (`silu(x·W1) ⊙ x·W3`, then residual-folded `·W2`).
    Mlp = 6,
    /// Final logits projection.
    LmHead = 7,
    /// Activation quantization on the int8 path: one span per projection
    /// call, covering all of the call's rows. **Nested** inside the
    /// enclosing projection span (`Qkv`/`OProj`/`Mlp`/`LmHead`), so its
    /// time is also counted there — compare against
    /// [`Profiler::pipeline_total_ns`], not add to it.
    Quantize = 8,
    /// The int8 tile (`Σ qx·qw` + scale) on the int8 path, one span per
    /// projection call at any row count. Nested like [`Op::Quantize`].
    Q8Vecmat = 9,
}

/// Number of instrumented op classes.
pub const N_OPS: usize = 10;

/// Number of top-level pipeline ops (excludes the nested quant sub-ops).
pub const N_PIPELINE_OPS: usize = 8;

impl Op {
    /// All ops: the pipeline in order, then the nested quant sub-ops.
    pub const ALL: [Op; N_OPS] = [
        Op::Embed,
        Op::RmsNorm,
        Op::Qkv,
        Op::AttnScore,
        Op::AttnMix,
        Op::OProj,
        Op::Mlp,
        Op::LmHead,
        Op::Quantize,
        Op::Q8Vecmat,
    ];

    /// The eight top-level decode-pipeline ops, in order. These partition a
    /// decode step's time; the quant sub-ops overlap them.
    pub const PIPELINE: [Op; N_PIPELINE_OPS] = [
        Op::Embed,
        Op::RmsNorm,
        Op::Qkv,
        Op::AttnScore,
        Op::AttnMix,
        Op::OProj,
        Op::Mlp,
        Op::LmHead,
    ];

    /// Stable snake-case name (used as the JSON key in bench snapshots).
    pub fn name(self) -> &'static str {
        match self {
            Op::Embed => "embed",
            Op::RmsNorm => "rmsnorm",
            Op::Qkv => "qkv",
            Op::AttnScore => "attn_score",
            Op::AttnMix => "attn_mix",
            Op::OProj => "o_proj",
            Op::Mlp => "mlp",
            Op::LmHead => "lm_head",
            Op::Quantize => "quantize",
            Op::Q8Vecmat => "q8_vecmat",
        }
    }
}

/// An open timer scope: `Some(start)` when profiling, `None` when disabled.
pub type ProfSpan = Option<Instant>;

/// Per-op wall-clock accumulator. Disabled by default.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    enabled: bool,
    total_ns: [u64; N_OPS],
    calls: [u64; N_OPS],
}

impl Profiler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn timing on (also clears previous accumulations).
    pub fn enable(&mut self) {
        self.reset();
        self.enabled = true;
    }

    pub fn disable(&mut self) {
        self.enabled = false;
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Clear accumulated times and counts, keeping the enabled state.
    pub fn reset(&mut self) {
        self.total_ns = [0; N_OPS];
        self.calls = [0; N_OPS];
    }

    /// Open a scope. One branch when disabled; reads the clock only when
    /// enabled.
    #[inline]
    pub fn begin(&self) -> ProfSpan {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Close a scope, attributing the elapsed time to `op`.
    #[inline]
    pub fn end(&mut self, span: ProfSpan, op: Op) {
        if let Some(start) = span {
            self.total_ns[op as usize] += start.elapsed().as_nanos() as u64;
            self.calls[op as usize] += 1;
        }
    }

    /// Accumulated nanoseconds for one op.
    pub fn total_ns(&self, op: Op) -> u64 {
        self.total_ns[op as usize]
    }

    /// Scopes closed for one op.
    pub fn calls(&self, op: Op) -> u64 {
        self.calls[op as usize]
    }

    /// Sum of all per-op accumulations. Note the quant sub-ops are nested
    /// inside pipeline spans, so on the int8 path this double-counts their
    /// time; use [`Profiler::pipeline_total_ns`] for wall-clock shares.
    pub fn grand_total_ns(&self) -> u64 {
        self.total_ns.iter().sum()
    }

    /// Sum over the eight top-level pipeline ops only — these partition the
    /// decode step, so per-op fractions of this total are meaningful even
    /// when the nested quant sub-ops are active.
    pub fn pipeline_total_ns(&self) -> u64 {
        Op::PIPELINE.iter().map(|&op| self.total_ns(op)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin() {
        let mut acc = 0u64;
        for i in 0..10_000u64 {
            acc = acc.wrapping_add(i * i);
        }
        std::hint::black_box(acc);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::new();
        let s = p.begin();
        assert!(s.is_none());
        spin();
        p.end(s, Op::Mlp);
        assert_eq!(p.grand_total_ns(), 0);
        assert_eq!(p.calls(Op::Mlp), 0);
    }

    #[test]
    fn enabled_profiler_accumulates_per_op() {
        let mut p = Profiler::new();
        p.enable();
        for _ in 0..3 {
            let s = p.begin();
            spin();
            p.end(s, Op::Qkv);
        }
        let s = p.begin();
        spin();
        p.end(s, Op::LmHead);
        assert_eq!(p.calls(Op::Qkv), 3);
        assert_eq!(p.calls(Op::LmHead), 1);
        assert!(p.total_ns(Op::Qkv) > 0);
        assert!(p.grand_total_ns() >= p.total_ns(Op::Qkv) + p.total_ns(Op::LmHead));
        p.reset();
        assert_eq!(p.grand_total_ns(), 0);
        assert!(p.is_enabled(), "reset must keep the enabled state");
    }

    #[test]
    fn op_names_are_unique() {
        for (i, a) in Op::ALL.iter().enumerate() {
            for b in &Op::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
