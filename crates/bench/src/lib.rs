//! `aasd-bench` — micro-benchmark harness.
//!
//! The build container has no registry access, so this is a std-only
//! criterion stand-in: warmup, a time-budgeted sample loop, and
//! median/min statistics. The `benches/matmul.rs` target (run via
//! `cargo bench -p aasd-bench --bench matmul`) prints human-readable
//! tables. End-to-end timing lives in the `aasd-e2e` benchmark, not here.

use std::hint::black_box;
use std::time::Instant;

/// One benchmark measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub name: String,
    /// Samples collected (each sample times one invocation).
    pub samples: usize,
    pub median_ns: f64,
    pub min_ns: f64,
}

/// Benchmark a closure: a few warmup runs, then sample until the time
/// budget (default 600 ms) or `max_samples` is exhausted. The closure's
/// result is `black_box`ed so the work cannot be optimized away.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> BenchResult {
    bench_with_budget(name, 600_000_000, 200, &mut f)
}

pub fn bench_with_budget<T>(
    name: &str,
    budget_ns: u64,
    max_samples: usize,
    f: &mut impl FnMut() -> T,
) -> BenchResult {
    for _ in 0..3 {
        black_box(f());
    }
    let mut samples_ns: Vec<f64> = Vec::new();
    let started = Instant::now();
    while samples_ns.len() < max_samples
        && (samples_ns.len() < 5 || started.elapsed().as_nanos() < budget_ns as u128)
    {
        let t = Instant::now();
        black_box(f());
        samples_ns.push(t.elapsed().as_nanos() as f64);
    }
    samples_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = samples_ns.len();
    let median_ns = if n % 2 == 1 {
        samples_ns[n / 2]
    } else {
        0.5 * (samples_ns[n / 2 - 1] + samples_ns[n / 2])
    };
    BenchResult {
        name: name.to_string(),
        samples: n,
        median_ns,
        min_ns: samples_ns[0],
    }
}

/// Print one result as an aligned human-readable row.
pub fn report(r: &BenchResult) {
    println!(
        "{:<44} {:>10.3} ms median  ({:>10.3} ms min, {} samples)",
        r.name,
        r.median_ns / 1e6,
        r.min_ns / 1e6,
        r.samples
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_produces_ordered_stats() {
        let r = bench_with_budget("spin", 5_000_000, 20, &mut || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(r.samples >= 5);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.min_ns > 0.0);
    }
}
