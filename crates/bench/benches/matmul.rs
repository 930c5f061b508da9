//! Matmul kernels. Run with `cargo bench -p aasd-bench --bench matmul`.
//!
//! 1. **The rows curve** (ROADMAP 1(b), L2-resident end): cost(rows) /
//!    cost(1) of one projection at the four real weight shapes (Sim7B /
//!    Sim13B × `dim×dim`, `dim×ff_hidden`) on the public row-major kernels.
//!    Speculative decoding pays when a γ+1-row verify costs about one 1-row
//!    decode step; this is that ratio, kernel only. Every row count, one
//!    included, is the tiled `matmul_blocked_into` — the tile `Linear` runs
//!    at every row count (`vecmat_into` is that tile at one row).
//! 2. **The footprint sweep** (ROADMAP 1(d), out-of-L2 end): one pass over
//!    the *whole* LM weight set of Sim7B (2.0 MB) and Sim13B (7.4 MB) at
//!    rows ∈ {1, 2, 6, 32}, row-major (what section 1 times) against the
//!    tile-major panels `Linear` runs on. A single L2-resident matrix hides
//!    what the stride of a row-major strip costs once the weights no longer
//!    fit; this is where the two layouts part.
//! 3. **The int8 tile** (ROADMAP 3(a)): one pass over the whole weight set
//!    of each Sim target and of its *draft* (2 layers, `ff = dim` — what
//!    `draft_for_depth` builds and every speculative block sweeps γ times)
//!    at rows ∈ {1, 2, 6, 7, 32}: the int8 register tile over int8 panels
//!    beside the f32 tile over f32 panels, with the bytes each streams.
//!    Activations are quantized outside the timed region: this is the
//!    kernel, not `QuantLinear`.
//! 4. Naive reference vs the tiled kernel on square sizes, with GFLOP/s
//!    taken from the minimum.
//! 5. **The lane kernels** per tier, through the explicit `*_with(Backend, …)`
//!    entries at the shapes the decoder serves: attention scores and mix
//!    over one head (head dim 16 at stride 128, Sim7B; 24 at stride 192,
//!    Sim13B) at 1, 5, 16 and 100 cached positions, softmax over those score
//!    rows, and `dot`, SwiGLU and the quantizer over rows of 128, 192, 256
//!    and 384 floats (the two models' `dim` and `ff_hidden`).

use aasd_tensor::simd::{
    attn_mix_with, attn_scores_with, dot_with, quantize_row_i8_with, silu_mul_with,
    softmax_row_with,
};
use aasd_tensor::{
    backend, matmul_blocked_into, matmul_naive_into, matmul_packed_into, matmul_q8_into,
    pack_panels, quantize_rows_i8, Backend, QuantMatrix, Rng,
};
use std::hint::black_box;
use std::time::Instant;

const ROWS: [usize; 7] = [1, 2, 4, 6, 8, 16, 32];

/// Minimum and coefficient of variation (std / mean) of the per-call time in
/// microseconds, over `samples` timed batches of `inner` calls (after two
/// untimed batches). The machine's noise is one-sided, so the minimum is the
/// figure to compare; the CoV says how much to trust it.
fn min_cov_us(samples: usize, inner: usize, mut f: impl FnMut()) -> (f64, f64) {
    let mut times = Vec::with_capacity(samples);
    for s in 0..samples + 2 {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        if s >= 2 {
            times.push(t.elapsed().as_nanos() as f64 / 1e3 / inner as f64);
        }
    }
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let var = times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / times.len() as f64;
    let min = times.iter().copied().fold(f64::INFINITY, f64::min);
    (min, var.sqrt() / mean)
}

fn rows_curve() {
    println!(
        "rows curve: cost(rows)/cost(1), min of 31 batches (CoV), backend {}\n",
        backend().name()
    );
    for (name, k, n) in [
        ("Sim7B  dim×dim       128×128", 128usize, 128usize),
        ("Sim7B  dim×ff_hidden 128×256", 128, 256),
        ("Sim13B dim×dim       192×192", 192, 192),
        ("Sim13B dim×ff_hidden 192×384", 192, 384),
    ] {
        let max_rows = ROWS[ROWS.len() - 1];
        let mut rng = Rng::new((k * n) as u64);
        let w: Vec<f32> = (0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let x: Vec<f32> = (0..max_rows * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut y = vec![0.0f32; max_rows * n];
        println!("{name}");
        let mut one = 0.0;
        for m in ROWS {
            let (us, cov) = min_cov_us(31, 16, || {
                matmul_blocked_into(&mut y[..m * n], &x[..m * k], &w, m, k, n);
                black_box(&mut y);
            });
            if m == 1 {
                one = us;
            }
            println!(
                "  rows {m:>2}       : {us:>8.2} us (CoV {cov:.3})  x{:>5.2} of rows 1  {:>5.2} MAC/ns",
                us / one,
                (m * k * n) as f64 / (us * 1e3)
            );
        }
        println!();
    }
}

/// Every per-layer projection of an LM (`wq wk wv wo` at `dim×dim`, `w1 w3`
/// at `dim×ff`, `w2` at `ff×dim`, times `layers`) as `(k, n, weight)`, each
/// matrix its own allocation as in a `Decoder`.
fn lm_weight_set(
    rng: &mut Rng,
    dim: usize,
    ff: usize,
    layers: usize,
) -> Vec<(usize, usize, Vec<f32>)> {
    let shapes = [
        (dim, dim),
        (dim, dim),
        (dim, dim),
        (dim, dim),
        (dim, ff),
        (dim, ff),
        (ff, dim),
    ];
    (0..layers)
        .flat_map(|_| shapes)
        .map(|(k, n)| (k, n, (0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect()))
        .collect()
}

/// One pass over a whole LM weight set, row-major against packed.
fn footprint_sweep() {
    println!("footprint sweep: one pass over a whole LM weight set, min of 15 (CoV)\n");
    for (name, dim, ff, layers) in [
        (
            "Sim7B  3 layers, dim 128, ff 256",
            128usize,
            256usize,
            3usize,
        ),
        ("Sim13B 5 layers, dim 192, ff 384", 192, 384, 5),
    ] {
        let mut rng = Rng::new((dim * ff) as u64);
        let weights = lm_weight_set(&mut rng, dim, ff, layers);
        let mut random =
            |len: usize| -> Vec<f32> { (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect() };
        let panels: Vec<Vec<f32>> = weights
            .iter()
            .map(|(k, n, w)| pack_panels(w, *k, *n))
            .collect();
        let macs: usize = weights.iter().map(|(k, n, _)| k * n).sum();
        let x = random(32 * ff);
        let mut y = vec![0.0f32; 32 * ff];
        println!(
            "{name}: {} matrices, {:.2} MB",
            weights.len(),
            (macs * 4) as f64 / 1e6
        );
        for m in [1usize, 2, 6, 32] {
            let line = |label: &str, us: f64, cov: f64| {
                println!(
                    "  rows {m:>2} {label:<9}: {us:>8.1} us (CoV {cov:.3})  {:>5.2} MAC/ns  {:>5.1} GB/s of weights",
                    (m * macs) as f64 / (us * 1e3),
                    (macs * 4) as f64 / (us * 1e3)
                );
            };
            let (us, cov) = min_cov_us(15, 4, || {
                for (k, n, w) in &weights {
                    matmul_blocked_into(&mut y[..m * n], &x[..m * k], w, m, *k, *n);
                }
                black_box(&mut y);
            });
            line("row-major", us, cov);
            let (us, cov) = min_cov_us(15, 4, || {
                for ((k, n, _), p) in weights.iter().zip(&panels) {
                    matmul_packed_into(&mut y[..m * n], &x[..m * k], p, m, *k, *n);
                }
                black_box(&mut y);
            });
            line("packed", us, cov);
        }
        println!();
    }
}

/// One pass over a whole weight set on the int8 tile and on the f32 packed
/// tile, targets and their drafts.
fn int8_sweep() {
    println!("int8 tile: one pass over a whole LM weight set, min of 15 (CoV)\n");
    for (name, dim, ff, layers) in [
        (
            "Sim7B  draft  2 layers, dim 128, ff 128",
            128usize,
            128usize,
            2usize,
        ),
        ("Sim7B  target 3 layers, dim 128, ff 256", 128, 256, 3),
        ("Sim13B draft  2 layers, dim 192, ff 192", 192, 192, 2),
        ("Sim13B target 5 layers, dim 192, ff 384", 192, 384, 5),
    ] {
        const MAX_ROWS: usize = 32;
        let mut rng = Rng::new((dim * ff + layers) as u64);
        let weights = lm_weight_set(&mut rng, dim, ff, layers);
        let panels: Vec<Vec<f32>> = weights
            .iter()
            .map(|(k, n, w)| pack_panels(w, *k, *n))
            .collect();
        let quant: Vec<QuantMatrix> = weights
            .iter()
            .map(|(k, n, w)| QuantMatrix::from_kxn(w, *k, *n))
            .collect();
        let x: Vec<f32> = (0..MAX_ROWS * ff).map(|_| rng.uniform(-1.0, 1.0)).collect();
        // Codes for both input widths, rows `k` apart as the tile reads them.
        let codes = |k: usize| -> (Vec<i8>, Vec<f32>) {
            let (mut qa, mut sa) = (vec![0i8; MAX_ROWS * k], vec![0.0f32; MAX_ROWS]);
            quantize_rows_i8(&x[..MAX_ROWS * k], k, &mut qa, &mut sa);
            (qa, sa)
        };
        let (by_dim, by_ff) = (codes(dim), codes(ff));
        let mut y = vec![0.0f32; MAX_ROWS * ff];
        let macs: usize = weights.iter().map(|(k, n, _)| k * n).sum();
        let f32_bytes: usize = panels.iter().map(|p| p.len() * 4).sum();
        let int8_bytes: usize = quant.iter().map(QuantMatrix::bytes).sum();
        println!(
            "{name}: {} matrices, f32 panels {:.2} MB, int8 panels + scales {:.2} MB",
            weights.len(),
            f32_bytes as f64 / 1e6,
            int8_bytes as f64 / 1e6
        );
        for m in [1usize, 2, 6, 7, 32] {
            let line = |label: &str, us: f64, cov: f64, bytes: usize| {
                println!(
                    "  rows {m:>2} {label:<11}: {us:>8.1} us (CoV {cov:.3})  {:>6.2} MAC/ns  {:>5.1} GB/s of weights",
                    (m * macs) as f64 / (us * 1e3),
                    bytes as f64 / (us * 1e3)
                );
            };
            let (us, cov) = min_cov_us(15, 8, || {
                for q in &quant {
                    let (qa, sa) = if q.k() == dim { &by_dim } else { &by_ff };
                    matmul_q8_into(&mut y[..m * q.n()], &qa[..m * q.k()], &sa[..m], q, m);
                }
                black_box(&mut y);
            });
            line("int8 tile", us, cov, int8_bytes);
            let (us, cov) = min_cov_us(15, 8, || {
                for ((k, n, _), p) in weights.iter().zip(&panels) {
                    matmul_packed_into(&mut y[..m * n], &x[..m * k], p, m, *k, *n);
                }
                black_box(&mut y);
            });
            line("f32 packed", us, cov, f32_bytes);
        }
        println!();
    }
}

fn square_sizes() {
    println!("square N³: naive vs tiled, min of 15 calls (CoV)\n");
    for n in [64usize, 128, 256] {
        let mut rng = Rng::new(n as u64);
        let a: Vec<f32> = (0..n * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..n * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut c = vec![0.0f32; n * n];
        let flops = 2.0 * (n as f64).powi(3);

        let naive = min_cov_us(15, 1, || {
            matmul_naive_into(&mut c, &a, &b, n, n, n);
            black_box(&mut c);
        });
        let tiled = min_cov_us(15, 1, || {
            matmul_blocked_into(&mut c, &a, &b, n, n, n);
            black_box(&mut c);
        });

        for (name, (us, cov)) in [("naive", naive), ("tiled", tiled)] {
            println!(
                "  matmul/{name}/{n:<4} {us:>10.1} µs min (CoV {cov:.3})  {:>7.2} GFLOP/s",
                flops / (us * 1e3)
            );
        }
        println!("  speedup tiled vs naive: {:.2}x\n", naive.0 / tiled.0);
    }
}

/// Every lane kernel at the served shapes, on every tier the host runs.
fn lane_kernels() {
    println!("lane kernels: ns per call, min of 31 batches of 256 calls (CoV)\n");
    let tiers: Vec<Backend> = Backend::ALL
        .into_iter()
        .filter(|b| b.is_supported())
        .collect();
    let time = |label: &str, f: &mut dyn FnMut(Backend)| {
        print!("  {label:<22}");
        for &bk in &tiers {
            let (us, cov) = min_cov_us(31, 256, || f(bk));
            print!("  {} {:>7.1} ns (CoV {cov:.3})", bk.name(), us * 1e3);
        }
        println!();
    };
    let mut rng = Rng::new(0x1A4E);
    let mut random =
        |len: usize| -> Vec<f32> { (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect() };
    for (d, stride) in [(16usize, 128usize), (24, 192)] {
        let (q, cache) = (random(d), random(100 * stride));
        for l in [1usize, 5, 16, 100] {
            let (weights, mut row) = (random(l), random(l));
            let (mut scores, mut out) = (vec![0.0f32; l], vec![0.0f32; d]);
            time(&format!("scores  d {d} l {l}"), &mut |bk| {
                attn_scores_with(bk, &mut scores, &q, &cache, stride, 0.25);
                black_box(&mut scores);
            });
            // `out` accumulates across calls; it stays far from overflow.
            time(&format!("mix     d {d} l {l}"), &mut |bk| {
                attn_mix_with(bk, &mut out, &weights, &cache, stride);
                black_box(&mut out);
            });
            // In place: after the first call the row is a distribution,
            // whose softmax costs the same.
            time(&format!("softmax l {l}"), &mut |bk| {
                softmax_row_with(bk, &mut row);
                black_box(&mut row);
            });
        }
    }
    for n in [128usize, 192, 256, 384] {
        let (a, b, up) = (random(n), random(n), random(n));
        let (mut gate, mut codes) = (vec![0.0f32; n], vec![0i8; n]);
        time(&format!("dot     n {n}"), &mut |bk| {
            black_box(dot_with(bk, black_box(&a), black_box(&b)));
        });
        // SwiGLU shrinks its input towards subnormals when repeated in
        // place, so every call starts from a copy of `a` (timed with it).
        time(&format!("swiglu  n {n} +copy"), &mut |bk| {
            gate.copy_from_slice(&a);
            silu_mul_with(bk, &mut gate, &up);
            black_box(&mut gate);
        });
        time(&format!("quant   n {n}"), &mut |bk| {
            black_box(quantize_row_i8_with(bk, black_box(&a), &mut codes));
        });
    }
    println!();
}

fn main() {
    rows_curve();
    footprint_sweep();
    int8_sweep();
    square_sizes();
    lane_kernels();
}
