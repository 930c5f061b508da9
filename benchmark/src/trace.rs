//! Bench-side spans around calls into the program's layers.
//!
//! The program under test is not instrumented: every span here is recorded
//! by the benchmark around one public call. Spans stay in memory and are
//! written to `out/<workload>.trace.json` when the run ends. A tracer that
//! is off records nothing, so the untraced pass runs the same code path at
//! the cost of one predictable branch per call.

use std::fmt::Write as _;
use std::time::Instant;

/// `request` value of a span that belongs to no request.
pub const NO_REQUEST: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    pub request: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, request: u32) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Close the innermost span and forget it: for calls that turn out to
    /// have done nothing (an idle `tick`).
    #[inline]
    pub fn discard(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        debug_assert_eq!(
            id as usize,
            self.spans.len() - 1,
            "discarded span has children"
        );
        self.spans.pop();
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }
}

/// Self time of each span: its duration minus the part its direct children
/// cover. Children never overlap (one thread, strict nesting), so that part
/// is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.dur_ns();
        }
    }
    own
}

/// Share of the time inside spans called `name` that their direct children
/// cover.
pub fn child_coverage(spans: &[Span], name: &str) -> f64 {
    let own = self_times_ns(spans);
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, own_ns) in spans.iter().zip(&own) {
        if s.name == name {
            total += s.dur_ns();
            uncovered += own_ns;
        }
    }
    if total == 0 {
        return 0.0;
    }
    1.0 - uncovered as f64 / total as f64
}

/// The trace file: run identity, named extras (the percentiles too deep to
/// gate on), then every span.
pub fn to_json(
    workload: &str,
    seed: u64,
    extras: &[(String, f64)],
    spans: &[Span],
    self_ns: &[u64],
) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"extras\": {{"
    );
    for (i, (k, v)) in extras.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{k}\": {v}");
    }
    out.push_str("}, \"spans\": [\n");
    for (i, (s, own)) in spans.iter().zip(self_ns).enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let request = if s.request == NO_REQUEST {
            "null".to_string()
        } else {
            s.request.to_string()
        };
        let _ = write!(
            out,
            "{sep}{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}, \"parent\": {parent}, \"request\": {request}}}",
            s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // request [0,100] ⊃ prefill [10,40] ⊃ vision [12,30]; block [50,90].
        let spans = vec![
            span("request", 0, 100, None),
            span("prefill", 10, 40, Some(0)),
            span("vision", 12, 30, Some(1)),
            span("block", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 12, 18, 40]);
        // Self times partition the root: they sum to its duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        assert!((child_coverage(&spans, "request") - 0.7).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_an_off_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let a = t.begin("a", 7);
        let b = t.begin("b", 7);
        t.end(b);
        t.end(a);
        let idle = t.begin("idle", NO_REQUEST);
        t.discard(idle);
        let c = t.begin("c", NO_REQUEST);
        t.end(c);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, None);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);

        let mut off = Tracer::new(false);
        let a = off.begin("a", 0);
        off.end(a);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn trace_json_has_one_object_per_span() {
        let spans = vec![span("request", 0, 10, None), span("x", 1, 2, Some(0))];
        let own = self_times_ns(&spans);
        let json = to_json("w", 3, &[("p99".to_string(), 1.5)], &spans, &own);
        assert_eq!(json.matches("\"name\"").count(), 2);
        assert!(json.contains("\"parent\": null"));
        assert!(json.contains("\"p99\": 1.5"));
    }
}
