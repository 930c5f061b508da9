//! Matmul kernels. Run with `cargo bench -p aasd-bench --bench matmul`.
//!
//! 1. **The rows curve** (ROADMAP 1(b), L2-resident end): cost(rows) /
//!    cost(1) of one projection at the four real weight shapes (Sim7B /
//!    Sim13B × `dim×dim`, `dim×ff_hidden`) on the public row-major kernels.
//!    Speculative decoding pays when a γ+1-row verify costs about one 1-row
//!    decode step; this is that ratio, kernel only. Every row count, one
//!    included, is the tile `Linear` runs at every row count (`vecmat_into`
//!    is that tile at one row), timed on the avx2 and avx512 tiers side by
//!    side through the explicit `matmul_acc_with` entry, batches
//!    interleaved.
//! 2. **The footprint sweep** (ROADMAP 1(d), out-of-L2 end): one pass over
//!    the *whole* LM weight set of Sim7B (2.0 MB), Sim13B (7.4 MB) and Sim13B
//!    widened four times (dim 768, ff 1536: 118 MB, more than the L3) at
//!    rows ∈ {1, 2, 4, 6, 16, 32}, row-major (what section 1 times) against
//!    the tile-major panels `Linear` runs on, per tier as in section 1 with
//!    the avx512 ÷ avx2 time ratio. A single L2-resident matrix hides
//!    what the stride of a row-major strip costs once the weights no longer
//!    fit; this is where the two layouts part, and the widened set is where
//!    a pass is the weight stream.
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
//!
//! 6. **The trainer's loops** per tier (ROADMAP 21): the `A·Bᵀ` product
//!    (`matmul_nt_with`, what `Tensor::matmul_transposed` runs) at the
//!    training tape's shapes — a product's `dA = G·Wᵀ` over 32 rows for
//!    the Sim7B and Sim13B projections, and attention's `Q·Kᵀ` over 32 rows
//!    at head dims 16 and 24 — beside the one-`dot_with`-per-output loop it
//!    replaced, and one `Adam` step over a Sim13B-sized parameter set (its
//!    five layers' projections, one slot per matrix).
//!
//! Name sections after `--` to run only those: `rows`, `footprint`, `int8`,
//! `square`, `lanes`, `train`.

use aasd_autograd::Tape;
use aasd_tensor::simd::{
    attn_mix_with, attn_scores_with, dot_with, matmul_acc_with, matmul_nt_with,
    matmul_packed_acc_with, quantize_row_i8_with, silu_mul_with, softmax_row_with,
};
use aasd_tensor::{
    backend, matmul_blocked_into, matmul_naive_into, matmul_packed_into, matmul_q8_into,
    pack_panels, quantize_rows_i8, Backend, QuantMatrix, Rng, Tensor,
};
use aasd_train::Adam;
use std::hint::black_box;
use std::time::Instant;

const ROWS: [usize; 7] = [1, 2, 4, 6, 8, 16, 32];

/// Minimum and coefficient of variation (std / mean) of the per-call time in
/// microseconds, over `samples` timed batches of `inner` calls (after two
/// untimed batches). The machine's noise is one-sided, so the minimum is the
/// figure to compare; the CoV says how much to trust it.
fn min_cov_us(samples: usize, inner: usize, mut f: impl FnMut()) -> (f64, f64) {
    min_cov_us_tiers(samples, inner, &[backend()], |_| f())[0]
}

/// [`min_cov_us`] for one closure per tier, their batches interleaved so a
/// slow spell of the machine lands on every tier alike.
fn min_cov_us_tiers(
    samples: usize,
    inner: usize,
    tiers: &[Backend],
    mut f: impl FnMut(Backend),
) -> Vec<(f64, f64)> {
    let mut times = vec![Vec::with_capacity(samples); tiers.len()];
    for s in 0..samples + 2 {
        for (&bk, times) in tiers.iter().zip(&mut times) {
            let t = Instant::now();
            for _ in 0..inner {
                f(bk);
            }
            if s >= 2 {
                times.push(t.elapsed().as_nanos() as f64 / 1e3 / inner as f64);
            }
        }
    }
    times
        .iter()
        .map(|times| {
            let mean = times.iter().sum::<f64>() / times.len() as f64;
            let var = times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / times.len() as f64;
            let min = times.iter().copied().fold(f64::INFINITY, f64::min);
            (min, var.sqrt() / mean)
        })
        .collect()
}

/// The SIMD tiers the f32 tile runs on this host (the avx2 and avx512 ones),
/// or the process tier where neither runs.
fn tile_tiers() -> Vec<Backend> {
    let tiers: Vec<Backend> = [Backend::Avx2, Backend::Avx512]
        .into_iter()
        .filter(|b| b.is_supported())
        .collect();
    if tiers.is_empty() {
        vec![backend()]
    } else {
        tiers
    }
}

/// `C = A·B` on tier `bk`, over `B` row-major or packed.
#[allow(clippy::too_many_arguments)]
fn product(
    bk: Backend,
    packed: bool,
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    c.fill(0.0);
    if packed {
        matmul_packed_acc_with(bk, c, a, b, m, k, n);
    } else {
        matmul_acc_with(bk, c, a, b, m, k, n);
    }
}

/// One line of per-tier times: each tier's time (CoV) and MAC/ns, then
/// every later tier's time over the first's.
fn tier_line(label: &str, tiers: &[Backend], times: &[(f64, f64)], macs: usize) {
    print!("  {label:<18}:");
    for (bk, (us, cov)) in tiers.iter().zip(times) {
        print!(
            "  {} {us:>8.1} us (CoV {cov:.3}) {:>5.2} MAC/ns",
            bk.name(),
            macs as f64 / (us * 1e3)
        );
    }
    for (bk, (us, _)) in tiers.iter().zip(times).skip(1) {
        print!("  {}/{} {:.2}", bk.name(), tiers[0].name(), us / times[0].0);
    }
    println!();
}

fn rows_curve() {
    let tiers = tile_tiers();
    println!(
        "rows curve: cost(rows)/cost(1) per tier, min of 31 interleaved batches (CoV), tiers {}\n",
        tiers
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(" | ")
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
        let mut one = Vec::new();
        for m in ROWS {
            let times = min_cov_us_tiers(31, 16, &tiers, |bk| {
                product(bk, false, &mut y[..m * n], &x[..m * k], &w, m, k, n);
                black_box(&mut y);
            });
            if m == 1 {
                one = times.iter().map(|t| t.0).collect();
            }
            print!("  rows {m:>2}:");
            for ((bk, (us, cov)), one) in tiers.iter().zip(&times).zip(&one) {
                print!(
                    "  {} {us:>8.2} us (CoV {cov:.3}) x{:>5.2} of rows 1 {:>5.2} MAC/ns",
                    bk.name(),
                    us / one,
                    (m * k * n) as f64 / (us * 1e3)
                );
            }
            println!();
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

/// One pass over a whole LM weight set, row-major against packed, on every
/// tile tier.
fn footprint_sweep() {
    let tiers = tile_tiers();
    println!(
        "footprint sweep: one pass over a whole LM weight set per tier, min of 15 (5 on the widened set) interleaved batches (CoV)\n"
    );
    for (name, dim, ff, layers, samples) in [
        (
            "Sim7B  3 layers, dim 128, ff 256",
            128usize,
            256usize,
            3usize,
            15usize,
        ),
        ("Sim13B 5 layers, dim 192, ff 384", 192, 384, 5, 15),
        ("Sim13B x4 5 layers, dim 768, ff 1536", 768, 1536, 5, 5),
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
        for m in [1usize, 2, 4, 6, 16, 32] {
            for packed in [false, true] {
                let times = min_cov_us_tiers(samples, 4, &tiers, |bk| {
                    for ((k, n, w), p) in weights.iter().zip(&panels) {
                        let b = if packed { p } else { w };
                        product(bk, packed, &mut y[..m * n], &x[..m * k], b, m, *k, *n);
                    }
                    black_box(&mut y);
                });
                let layout = if packed { "packed" } else { "row-major" };
                tier_line(&format!("rows {m:>2} {layout}"), &tiers, &times, m * macs);
            }
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

/// The trainer's `A·Bᵀ` product and Adam step, as the module docs list.
fn train_loops() {
    println!(
        "train: A·Bᵀ per tier, µs per call, min of 31 batches (CoV): one dot_with per output | the blocked kernel\n"
    );
    let tiers: Vec<Backend> = Backend::ALL
        .into_iter()
        .filter(|b| b.is_supported())
        .collect();
    let mut rng = Rng::new(0x7A1);
    let mut random =
        |len: usize| -> Vec<f32> { (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect() };
    // `(label, m, k, n)`: `out[m×n] = A[m×k]·B[n×k]ᵀ`. For `Y = X·W` with
    // `W: in×out`, `dA = G·Wᵀ` has `k = out` and `n = in`.
    for (label, m, k, n) in [
        ("dA Sim7B  dim×dim 128×128", 32usize, 128usize, 128usize),
        ("dA Sim7B  dim×ff  128×256", 32, 256, 128),
        ("dA Sim7B  ff×dim  256×128", 32, 128, 256),
        ("dA Sim13B dim×dim 192×192", 32, 192, 192),
        ("dA Sim13B dim×ff  192×384", 32, 384, 192),
        ("dA Sim13B ff×dim  384×192", 32, 192, 384),
        ("Q·Kᵀ head dim 16, 32 rows", 32, 16, 32),
        ("Q·Kᵀ head dim 24, 32 rows", 32, 24, 32),
    ] {
        let (a, b, mut out) = (random(m * k), random(n * k), vec![0.0f32; m * n]);
        print!("  {label:<26}");
        for &bk in &tiers {
            let dots = min_cov_us(31, 16, || {
                for (o, a) in out.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
                    for (o, b) in o.iter_mut().zip(b.chunks_exact(k)) {
                        *o = dot_with(bk, a, b);
                    }
                }
                black_box(&mut out);
            });
            let blocked = min_cov_us(31, 16, || {
                matmul_nt_with(bk, &mut out, &a, &b, m, k, n);
                black_box(&mut out);
            });
            print!(
                "  {} {:>7.2} (CoV {:.3}) | {:>7.2} (CoV {:.3}) x{:.2}",
                bk.name(),
                dots.0,
                dots.1,
                blocked.0,
                blocked.1,
                dots.0 / blocked.0
            );
        }
        println!();
    }
    // One slot per projection of Sim13B's five layers, as `train_loop`
    // updates them: gradients from `Σ x²` so every element differs.
    let (dim, ff) = (192usize, 384usize);
    let weights = lm_weight_set(&mut Rng::new(0xADA), dim, ff, 5);
    let mut params: Vec<Vec<f32>> = weights.into_iter().map(|(.., w)| w).collect();
    let mut tape = Tape::new();
    let leaves: Vec<_> = params
        .iter()
        .map(|p| tape.leaf(Tensor::from_vec(p.clone(), 1, p.len())))
        .collect();
    let mut root = None;
    for &x in &leaves {
        let sq = tape.mul(x, x);
        let s = tape.sum(sq);
        root = Some(root.map_or(s, |r| tape.add(r, s)));
    }
    let grads = tape.backward(root.expect("at least one slot"));
    let mut opt = Adam::new();
    let floats: usize = params.iter().map(Vec::len).sum();
    let (us, cov) = min_cov_us(15, 4, || {
        opt.step(1e-6, &grads, &leaves, 0, |f| {
            for p in &mut params {
                f("w", p);
            }
        });
        black_box(&mut params);
    });
    println!(
        "  Adam step, Sim13B projections: {} slots, {:.2} M floats: {us:>8.1} us (CoV {cov:.3}) {:>5.2} floats/ns\n",
        leaves.len(),
        floats as f64 / 1e6,
        floats as f64 / (us * 1e3)
    );
}

/// Every section, or only those named on the command line (`cargo bench -p
/// aasd-bench --bench matmul -- rows footprint`).
fn main() {
    let wanted: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let sections: [(&str, fn()); 6] = [
        ("rows", rows_curve),
        ("footprint", footprint_sweep),
        ("int8", int8_sweep),
        ("square", square_sizes),
        ("lanes", lane_kernels),
        ("train", train_loops),
    ];
    for (name, run) in sections {
        if wanted.is_empty() || wanted.iter().any(|w| w == name) {
            run();
        }
    }
}
