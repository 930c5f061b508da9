//! Lock-free serving metrics: monotonic counters, gauges, and fixed-bucket
//! latency histograms.
//!
//! Every instrument is a plain `AtomicU64` (or a fixed array of them), so
//! worker threads record with relaxed stores and never contend on a lock —
//! the scheduler hot path pays a handful of atomic adds per block. The
//! registry renders two ways: a Prometheus-style text exposition for the
//! `METRICS` protocol command, and a JSON object (via the shared
//! `aasd-json` writer, the same one `table1` uses) for the `METRICS_JSON`
//! command.
//!
//! Histograms are fixed-bucket by design: the bucket bounds are chosen at
//! construction, recording is O(#buckets) in the worst case (a linear scan
//! over ≤ 20 bounds), and quantiles are estimated by linear interpolation
//! inside the target bucket — the standard Prometheus-histogram trade-off,
//! which is exactly what a live serving endpoint wants (bounded memory, no
//! per-sample storage, mergeable across restarts).

use std::sync::atomic::{AtomicU64, Ordering};

use aasd_specdec::SpecStats;

/// Monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge (queue depth, active sessions).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default latency bucket upper bounds, in milliseconds. Exponential-ish
/// coverage from sub-millisecond decode blocks up to multi-second queue
/// waits; values past the last bound land in the overflow bucket.
pub const DEFAULT_BOUNDS_MS: [f64; 16] = [
    0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0,
    5000.0,
];

/// Fixed-bucket latency histogram with lock-free recording.
#[derive(Debug)]
pub struct Histogram {
    bounds_ms: Vec<f64>,
    /// `bounds_ms.len() + 1` buckets; the last one is overflow.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum in nanoseconds so sub-millisecond samples are not rounded away.
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new(&DEFAULT_BOUNDS_MS)
    }
}

impl Histogram {
    pub fn new(bounds_ms: &[f64]) -> Self {
        assert!(!bounds_ms.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds_ms.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly increasing"
        );
        Self {
            bounds_ms: bounds_ms.to_vec(),
            buckets: (0..bounds_ms.len() + 1)
                .map(|_| AtomicU64::new(0))
                .collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Record one latency sample. NaN, infinite, and negative inputs are
    /// **rejected** (dropped, not clamped): a clock that produced garbage
    /// must not silently deposit a zero into the sum and skew every mean
    /// and quantile derived from it.
    pub fn record_ms(&self, ms: f64) {
        if !ms.is_finite() || ms < 0.0 {
            return;
        }
        let idx = self
            .bounds_ms
            .iter()
            .position(|&b| ms <= b)
            .unwrap_or(self.bounds_ms.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns
            .fetch_add((ms * 1e6).round() as u64, Ordering::Relaxed);
    }

    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn mean_ms(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_ns.load(Ordering::Relaxed) as f64 / 1e6 / n as f64
        }
    }

    /// Quantile estimate (`q` in `[0, 1]`), linearly interpolated inside the
    /// target bucket. Overflow-bucket hits are reported as the last bound
    /// (a floor, like Prometheus' `histogram_quantile`). An empty histogram
    /// returns the defined value 0.0 without scanning any bucket.
    ///
    /// The buckets are snapshotted first and the total derived from the
    /// snapshot, so a concurrent `record_ms` (bucket bumped, `count` not
    /// yet) can never send the scan hunting for a rank beyond the buckets'
    /// sum — the scan is self-consistent by construction.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if seen + c >= target {
                if i == self.bounds_ms.len() {
                    return self.bounds_ms[self.bounds_ms.len() - 1];
                }
                let lo = if i == 0 { 0.0 } else { self.bounds_ms[i - 1] };
                let hi = self.bounds_ms[i];
                return lo + (hi - lo) * (target - seen) as f64 / c as f64;
            }
            seen += c;
        }
        unreachable!("target rank {target} exceeds snapshot total {n}")
    }

    /// Per-bucket cumulative counts, Prometheus `le`-style.
    fn cumulative(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len());
        let mut acc = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            acc += bucket.load(Ordering::Relaxed);
            let label = if i == self.bounds_ms.len() {
                "+Inf".to_string()
            } else {
                format!("{}", self.bounds_ms[i])
            };
            out.push((label, acc));
        }
        out
    }
}

/// The serving metrics registry: one instance per engine, shared by every
/// worker and connection thread through `Arc`.
#[derive(Debug, Default)]
pub struct Metrics {
    // Request lifecycle.
    pub requests_submitted: Counter,
    pub requests_rejected: Counter,
    pub requests_completed: Counter,
    pub requests_cancelled: Counter,
    // Token/engine throughput.
    pub tokens_generated: Counter,
    pub scheduler_ticks: Counter,
    // Speculation counters, merged from every finished session's SpecStats
    // (see `SpecStats::merge` for the τ convention).
    pub spec_blocks: Counter,
    pub spec_drafted: Counter,
    pub spec_accepted: Counter,
    spec_generated: Counter,
    pub spec_prefill_tokens: Counter,
    // Vision-prefix cache.
    pub vision_cache_hits: Counter,
    pub vision_cache_misses: Counter,
    // Live state.
    pub queue_depth: Gauge,
    pub active_sessions: Gauge,
    /// Free blocks in the target / draft KV pools after the last refill —
    /// the quantity admission control actually reasons in.
    pub kv_free_blocks_target: Gauge,
    pub kv_free_blocks_draft: Gauge,
    // Latency distributions.
    pub ttft_ms: Histogram,
    pub token_ms: Histogram,
    pub block_ms: Histogram,
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one finished session's speculation counters in.
    pub fn merge_spec_stats(&self, s: &SpecStats) {
        self.spec_blocks.add(s.blocks as u64);
        self.spec_drafted.add(s.drafted as u64);
        self.spec_accepted.add(s.accepted as u64);
        self.spec_generated.add(s.generated as u64);
        self.spec_prefill_tokens.add(s.prefill_tokens as u64);
    }

    /// Every finished speculative session's stats, merged.
    fn spec_stats(&self) -> SpecStats {
        SpecStats {
            blocks: self.spec_blocks.get() as usize,
            drafted: self.spec_drafted.get() as usize,
            accepted: self.spec_accepted.get() as usize,
            generated: self.spec_generated.get() as usize,
            prefill_tokens: self.spec_prefill_tokens.get() as usize,
        }
    }

    /// Aggregate acceptance rate α across all completed speculative
    /// sessions ([`SpecStats::acceptance_rate`]).
    pub fn alpha(&self) -> f64 {
        self.spec_stats().acceptance_rate()
    }

    /// Aggregate block efficiency τ across all completed speculative
    /// sessions ([`SpecStats::block_efficiency`]): autoregressive and
    /// still-running sessions' tokens stay out of it.
    pub fn tau(&self) -> f64 {
        self.spec_stats().block_efficiency()
    }

    /// The registry as one table of (name, reading), in exposition order.
    /// The text series is `aasd_<name>`, with `_total` after a counter's;
    /// the JSON key is the name, less the request counters' `requests_`.
    /// Both renderings walk the table, so neither can show an instrument
    /// the other lacks.
    fn table(&self) -> [(&'static str, Reading<'_>); 22] {
        let c = |c: &Counter| Reading::Scalar("counter", c.get().to_string());
        let g = |g: &Gauge| Reading::Scalar("gauge", g.get().to_string());
        let ratio = |v: f64| Reading::Scalar("gauge", aasd_json::num(v));
        [
            ("requests_submitted", c(&self.requests_submitted)),
            ("requests_rejected", c(&self.requests_rejected)),
            ("requests_completed", c(&self.requests_completed)),
            ("requests_cancelled", c(&self.requests_cancelled)),
            ("tokens_generated", c(&self.tokens_generated)),
            ("scheduler_ticks", c(&self.scheduler_ticks)),
            ("spec_blocks", c(&self.spec_blocks)),
            ("spec_drafted", c(&self.spec_drafted)),
            ("spec_accepted", c(&self.spec_accepted)),
            ("spec_generated", c(&self.spec_generated)),
            ("spec_prefill_tokens", c(&self.spec_prefill_tokens)),
            ("vision_cache_hits", c(&self.vision_cache_hits)),
            ("vision_cache_misses", c(&self.vision_cache_misses)),
            ("queue_depth", g(&self.queue_depth)),
            ("active_sessions", g(&self.active_sessions)),
            ("kv_free_blocks_target", g(&self.kv_free_blocks_target)),
            ("kv_free_blocks_draft", g(&self.kv_free_blocks_draft)),
            ("alpha", ratio(self.alpha())),
            ("tau", ratio(self.tau())),
            ("ttft_ms", Reading::Histogram(&self.ttft_ms)),
            ("token_ms", Reading::Histogram(&self.token_ms)),
            ("block_ms", Reading::Histogram(&self.block_ms)),
        ]
    }

    /// Prometheus-style text exposition (the `METRICS` protocol command).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, reading) in self.table() {
            let total = matches!(reading, Reading::Scalar("counter", _));
            let name = format!("aasd_{name}{}", if total { "_total" } else { "" });
            match reading {
                Reading::Scalar(kind, v) => {
                    out.push_str(&format!("# TYPE {name} {kind}\n{name} {v}\n"));
                }
                Reading::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    for (le, c) in h.cumulative() {
                        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {c}\n"));
                    }
                    out.push_str(&format!("{name}_count {}\n", h.count()));
                    out.push_str(&format!("{name}_mean_ms {:.6}\n", h.mean_ms()));
                    for q in [0.5, 0.95] {
                        out.push_str(&format!(
                            "{name}{{quantile=\"{q}\"}} {:.6}\n",
                            h.quantile_ms(q)
                        ));
                    }
                }
            }
        }
        out
    }

    /// JSON rendering through the shared `aasd-json` writer — what the
    /// `METRICS_JSON` command returns.
    pub fn render_json(&self) -> String {
        let fields = self.table().map(|(name, reading)| {
            let value = match reading {
                Reading::Scalar(_, v) => v,
                Reading::Histogram(h) => aasd_json::object(&[
                    aasd_json::field("count", &h.count().to_string()),
                    aasd_json::field("mean_ms", &aasd_json::num(h.mean_ms())),
                    aasd_json::field("p50_ms", &aasd_json::num(h.quantile_ms(0.5))),
                    aasd_json::field("p95_ms", &aasd_json::num(h.quantile_ms(0.95))),
                ]),
            };
            let key = name.strip_prefix("requests_").unwrap_or(name);
            aasd_json::field(key, &value)
        });
        aasd_json::object(&fields)
    }
}

/// One instrument's value, as [`Metrics::table`] hands it to a renderer.
enum Reading<'a> {
    /// A counter or gauge: its Prometheus type and its value, rendered once
    /// for both expositions.
    Scalar(&'static str, String),
    Histogram(&'a Histogram),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
        for _ in 0..50 {
            h.record_ms(0.5); // bucket (0, 1]
        }
        for _ in 0..50 {
            h.record_ms(3.0); // bucket (2, 4]
        }
        assert_eq!(h.count(), 100);
        // p50 falls exactly at the end of the first bucket.
        assert!((h.quantile_ms(0.5) - 1.0).abs() < 1e-9);
        // p95: rank 95 is the 45th of 50 samples in (2, 4] → 2 + 2*45/50.
        assert!((h.quantile_ms(0.95) - 3.8).abs() < 1e-9);
        assert!((h.mean_ms() - 1.75).abs() < 1e-9);
    }

    #[test]
    fn histogram_overflow_reports_last_bound() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.record_ms(100.0);
        assert!((h.quantile_ms(0.5) - 2.0).abs() < 1e-9);
        assert_eq!(h.cumulative().last().unwrap().1, 1);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ms(0.5), 0.0);
        assert_eq!(h.mean_ms(), 0.0);
    }

    /// Garbage samples are dropped, not zero-clamped: they must leave the
    /// count, sum, and every quantile exactly as they were.
    #[test]
    fn non_finite_and_negative_samples_are_rejected() {
        let h = Histogram::new(&[1.0]);
        h.record_ms(0.5);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0] {
            h.record_ms(bad);
        }
        assert_eq!(h.count(), 1);
        assert!((h.mean_ms() - 0.5).abs() < 1e-9);
        assert!((h.quantile_ms(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_tau_derive_from_merged_stats() {
        let m = Metrics::new();
        m.merge_spec_stats(&SPEC);
        assert!((m.alpha() - 0.75).abs() < 1e-12);
        assert!((m.tau() - 3.0).abs() < 1e-12);
    }

    const SPEC: SpecStats = SpecStats {
        blocks: 4,
        drafted: 12,
        accepted: 9,
        generated: 13,
        prefill_tokens: 1,
    };

    /// τ is per speculative verify block: the tokens an autoregressive
    /// session publishes (and a speculative one's before it finishes) count
    /// in `tokens_generated` but not in τ.
    #[test]
    fn ar_tokens_leave_tau_unchanged() {
        let m = Metrics::new();
        m.merge_spec_stats(&SPEC);
        m.tokens_generated.add(13 + 32); // the speculative request + a 32-token AR one
        assert!((m.tau() - 3.0).abs() < 1e-12, "τ = {}", m.tau());
    }

    /// Every counter and gauge the text exposition shows has a JSON field
    /// carrying the same value.
    #[test]
    fn every_text_series_has_a_json_field() {
        let m = Metrics::new();
        let counters = [
            &m.requests_submitted,
            &m.requests_rejected,
            &m.requests_completed,
            &m.requests_cancelled,
            &m.tokens_generated,
            &m.scheduler_ticks,
            &m.spec_blocks,
            &m.spec_drafted,
            &m.spec_accepted,
            &m.spec_generated,
            &m.spec_prefill_tokens,
            &m.vision_cache_hits,
            &m.vision_cache_misses,
        ];
        for (i, c) in counters.iter().enumerate() {
            c.add(1000 + i as u64);
        }
        let gauges = [
            &m.queue_depth,
            &m.active_sessions,
            &m.kv_free_blocks_target,
            &m.kv_free_blocks_draft,
        ];
        for (i, g) in gauges.iter().enumerate() {
            g.set(2000 + i as u64);
        }
        let (text, json) = (m.render_text(), m.render_json());
        let mut series = 0;
        for decl in text.lines().filter_map(|l| l.strip_prefix("# TYPE ")) {
            let (name, kind) = decl.split_once(' ').unwrap();
            if kind == "histogram" {
                continue;
            }
            let value = text
                .lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
                .unwrap();
            assert!(
                json.contains(&format!(": {value},")) || json.contains(&format!(": {value}}}")),
                "{name} = {value} has no JSON field: {json}"
            );
            series += 1;
        }
        // α and τ are the two derived gauges.
        assert_eq!(series, counters.len() + gauges.len() + 2);
    }

    #[test]
    fn renderings_contain_core_series() {
        let m = Metrics::new();
        m.requests_submitted.inc();
        m.ttft_ms.record_ms(3.0);
        let text = m.render_text();
        assert!(text.contains("aasd_requests_submitted_total 1"));
        assert!(text.contains("aasd_ttft_ms_count 1"));
        assert!(text.contains("quantile=\"0.95\""));
        let json = m.render_json();
        assert!(json.contains("\"submitted\": 1"));
        assert!(json.contains("\"p95_ms\""));
    }
}
