//! What one pass over a request list measured, and how rounds of passes
//! fold into the end-to-end metrics.

use aasd_specdec::SpecStats;

use crate::setup::Req;
use crate::stats::{
    highest_supported_percentile, interquartile_mean, median, min_across_rounds, percentile,
};

/// One arm (speculative or autoregressive) of one round.
#[derive(Debug, Clone, Default)]
pub struct ArmRound {
    /// Start of the arm → end of its last request.
    pub wall_ns: f64,
    /// Time inside calls into the program under test.
    pub busy_ns: f64,
    /// `busy_ns` in the finest pieces that line up from round to round: one
    /// per request on one stream, one per tick on the closed engine loop.
    /// The open loop's ticks fall differently every time, so it has one
    /// piece, the whole.
    pub parts_ns: Vec<f64>,
    /// Per request: due/start → first token observable.
    pub first_ns: Vec<f64>,
    /// Per request: due/start → last token.
    pub req_ns: Vec<f64>,
    pub tokens: usize,
    /// Requests rejected, cancelled, unfinished, or whose stream differs
    /// from the autoregressive reference.
    pub failed: usize,
    pub stats: SpecStats,
}

impl ArmRound {
    pub fn with_capacity(n: usize) -> Self {
        Self {
            first_ns: Vec::with_capacity(n),
            req_ns: Vec::with_capacity(n),
            parts_ns: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    /// Record one finished closed-loop request and check its stream.
    pub fn push(
        &mut self,
        req: &Req,
        first_ns: f64,
        req_ns: f64,
        tokens: &[u32],
        stats: Option<&SpecStats>,
    ) {
        self.first_ns.push(first_ns);
        self.req_ns.push(req_ns);
        self.busy_ns += req_ns;
        self.parts_ns.push(req_ns);
        self.tokens += tokens.len();
        if tokens != req.reference {
            self.failed += 1;
        }
        if let Some(s) = stats {
            self.stats.merge(s);
        }
    }
}

/// One arm folded over its rounds.
#[derive(Debug, Clone)]
pub struct ArmSummary {
    pub tokens: usize,
    /// Seconds inside the program under test for one pass over the list.
    pub busy_s: f64,
    /// The same of each round as it was, in round order.
    pub round_busy_s: Vec<f64>,
    /// Busy time over wall time of the arm.
    pub busy_frac: f64,
    pub req_ms: Vec<f64>,
    pub ttft_ms: Vec<f64>,
    /// Σ (last − first token) ÷ Σ (tokens − 1) over the requests.
    pub tpot_mean_ms: f64,
    /// The same per request, for the trace file's deep percentile.
    pub tpot_ms: Vec<f64>,
    /// Counters of the first round; `counts_repeat` says whether every
    /// later round reproduced them.
    pub stats: SpecStats,
    pub counts_repeat: bool,
}

impl ArmSummary {
    pub fn tok_per_s(&self) -> f64 {
        self.tokens as f64 / self.busy_s
    }
}

/// Fold the rounds of one arm: every time is the **minimum over rounds** of
/// the smallest piece that is timed — each request's latencies, each piece
/// of the busy time — and sums and statistics across requests are taken over
/// those minima. What the machine adds to a time is one-sided (a neighbour
/// on the host only ever slows a call down) and comes in spells that can
/// cover most of a run; over runs of the same seed the median over rounds
/// spread two to eight times as wide as the minimum (README, *Noise
/// design*). A piece of a few milliseconds finds a quiet moment in one round
/// of seven far more surely than a whole round does.
pub fn summarise(rounds: &[&ArmRound], reqs: &[Req]) -> ArmSummary {
    let floor = |f: fn(&ArmRound) -> &Vec<f64>| -> Vec<f64> {
        min_across_rounds(&rounds.iter().map(|r| f(r).as_slice()).collect::<Vec<_>>())
    };
    let req_ns = floor(|r| &r.req_ns);
    let first_ns = floor(|r| &r.first_ns);
    let decode_ns = || {
        req_ns
            .iter()
            .zip(&first_ns)
            .map(|(total, first)| total - first)
    };
    let later_tokens = |req: &Req| (req.reference.len() - 1) as f64;
    let first = rounds[0];
    // Pieces line up only while every round cuts its busy time the same
    // way; if a round ever does not, whole rounds still compare.
    let aligned = rounds
        .iter()
        .all(|r| r.parts_ns.len() == first.parts_ns.len());
    let busy_ns = if aligned {
        floor(|r| &r.parts_ns).iter().sum::<f64>()
    } else {
        rounds
            .iter()
            .map(|r| r.busy_ns)
            .fold(f64::INFINITY, f64::min)
    };
    ArmSummary {
        tokens: first.tokens,
        busy_s: busy_ns / 1e9,
        round_busy_s: rounds.iter().map(|r| r.busy_ns / 1e9).collect(),
        busy_frac: rounds
            .iter()
            .map(|r| r.busy_ns / r.wall_ns)
            .fold(f64::INFINITY, f64::min),
        req_ms: req_ns.iter().map(|x| x / 1e6).collect(),
        ttft_ms: first_ns.iter().map(|x| x / 1e6).collect(),
        tpot_mean_ms: decode_ns().sum::<f64>() / reqs.iter().map(later_tokens).sum::<f64>() / 1e6,
        tpot_ms: decode_ns()
            .zip(reqs)
            .filter(|(_, req)| req.reference.len() > 1)
            .map(|(ns, req)| ns / later_tokens(req) / 1e6)
            .collect(),
        stats: first.stats.clone(),
        counts_repeat: rounds
            .iter()
            .all(|r| r.tokens == first.tokens && r.stats == first.stats),
    }
}

/// A named value with its unit, as printed and as written to the result.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count behind a percentile; 0 when not a percentile.
    pub samples: usize,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples: 0,
    }
}

pub fn pctl(name: &'static str, xs: &[f64], p: usize) -> Metric {
    Metric {
        name,
        unit: "ms",
        value: percentile(xs, p),
        samples: xs.len(),
    }
}

pub fn iqm(name: &'static str, xs: &[f64]) -> Metric {
    Metric {
        name,
        unit: "ms",
        value: interquartile_mean(xs),
        samples: xs.len(),
    }
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order. Throughput is committed output tokens over the time inside the
/// program under test. `omega` is the ratio of the two arms round
/// by round — both arms of a round serve the same list under the same state
/// of the machine, so its drift cancels and what is left is as often up as
/// down — then the median.
pub fn end_to_end(
    setup_s: f64,
    peak_rss_mb: f64,
    spec: &ArmSummary,
    ar: &ArmSummary,
) -> Vec<Metric> {
    // Both arms commit the same tokens, so the ratio of their throughputs
    // in a round is the inverse ratio of their busy times.
    let omega: Vec<f64> = spec
        .round_busy_s
        .iter()
        .zip(&ar.round_busy_s)
        .map(|(s, a)| a / s)
        .collect();
    vec![
        metric("setup_s", "s", setup_s),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("tok_per_s", "tok/s", spec.tok_per_s()),
        metric("ar_tok_per_s", "tok/s", ar.tok_per_s()),
        metric("omega", "ratio", median(&omega)),
    ]
}

/// Human-readable line for one metric; statistics across requests carry
/// their sample count, and percentiles say when the sample is too small for
/// that depth.
pub fn render(m: &Metric) -> String {
    let mut line = format!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    if m.samples > 0 {
        line.push_str(&format!("  (n={}", m.samples));
        if m.name.contains("p90") && highest_supported_percentile(m.samples) < 90 {
            line.push_str(", fewer than 10 samples beyond");
        }
        line.push(')');
    }
    line
}
