//! Runtime-dispatched SIMD kernels (AVX2 / scalar) for the decode hot path.
//!
//! One [`Backend`] is selected process-wide the first time [`backend`] is
//! queried: the `AASD_KERNEL` env var (`scalar` | `avx2`) when set, otherwise
//! the best path the CPU reports. A value that names no tier, or a tier the
//! host cannot run, is a hard error (a panic on that first query) — a typo
//! must not run one tier under another's label. The choice then holds for
//! the life of the process; code that must run a given tier (the cross-tier
//! tests) calls the explicit `*_with` entries instead.
//!
//! Determinism contract: every kernel gives the same bits on both tiers.
//! The AVX2 tier is the hand-written one; the scalar tier computes its
//! per-element sequence in plain Rust, so the tier a process runs on moves
//! no output bit.
//!
//! The f32 multi-row tile (`matmul_tile`) vectorizes across the *output*
//! dimension and gives every output element the sequence `acc = fma(a, b,
//! acc)` for `k = 0, 1, 2, …` — one fused multiply-add per term (one
//! rounding, never a separate multiply and add), no term skipped — so a row
//! of a multi-row product is bit-identical to the one-row product of that
//! row (`vecmat` is the tile at one row): a row gets the same bits in a
//! block of any size. A fused multiply-add is correctly rounded wherever it
//! runs — `vfmadd` on the avx2 tier (compiled `avx2,fma`, selected only on
//! hosts reporting both), `f32::mul_add` on the scalar tier — so the tiers
//! agree as long as the k-order does. The tile is one generic source
//! compiled plainly (scalar tier: 6 rows × 8 columns) and under `avx2,fma`
//! (6 × 16), over `B` stored row-major or as tile-major panels
//! ([`pack_panels`]); its shape and the layout change which elements share
//! a register and where an operand is loaded from, never an element's
//! arithmetic.
//!
//! Reductions ([`dot_with`], [`attn_scores_with`], the sum of squares in
//! [`rms_norm_row_with`]) keep eight lane sums, each term one multiply then
//! one add, combined in `hsum256_ps`'s order, then the tail in sequence.
//! The transcendentals ([`softmax_row_with`], [`silu_mul_with`]) run the
//! Cephes polynomial `exp` on full 8-blocks and libm `exp` on the tail; the
//! scalar tier's `exp_lane` is one lane of `exp256_ps`, step for step. (A
//! softmax row holding NaN is outside the contract: the scalar tier takes
//! the row maximum as a plain fold, not in `maxps` lane order.)
//!
//! The int8 kernels accumulate in `i32`, which is exact and associative, so
//! the int8 register tile (`matmul_q8_tile`, over int8 panels — see
//! [`crate::quant`]) is bit-identical on both tiers, at every row count and
//! under any tiling, to the scalar i32 dot loop that
//! `tile_q8_bitwise_equals_scalar_dot_on_every_tier` holds it to.
//!
//! There is no hand-written 128-bit tier: rustc already vectorises the
//! scalar kernels with the x86_64 baseline's 4-lane instructions, and a tier
//! of 4-lane intrinsics measured within run-to-run noise of them
//! (EXPERIMENTS.md § PR 20).

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::sync::OnceLock;

/// A kernel implementation tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar reference (always supported).
    Scalar,
    /// 8-lane `__m256` kernels with fused multiply-add (runtime-detected:
    /// needs both `avx2` and `fma`).
    Avx2,
}

impl Backend {
    /// Every tier, slowest first.
    pub const ALL: [Backend; 2] = [Backend::Scalar, Backend::Avx2];

    /// Stable lowercase name (also the accepted `AASD_KERNEL` values).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }

    /// Parse a backend name (case-insensitive, surrounding space ignored).
    pub fn from_name(name: &str) -> Option<Backend> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "avx2" => Some(Backend::Avx2),
            _ => None,
        }
    }

    /// Whether the host CPU can run this backend.
    pub fn is_supported(self) -> bool {
        HostFeatures::detect().runs(self)
    }
}

/// The CPU features the tiers are compiled for, as a host reports them.
#[derive(Debug, Clone, Copy)]
struct HostFeatures {
    avx2: bool,
    fma: bool,
}

impl HostFeatures {
    fn detect() -> HostFeatures {
        #[cfg(target_arch = "x86_64")]
        {
            HostFeatures {
                avx2: std::arch::is_x86_feature_detected!("avx2"),
                fma: std::arch::is_x86_feature_detected!("fma"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            HostFeatures {
                avx2: false,
                fma: false,
            }
        }
    }

    /// Whether these features run `b`. The avx2 tier's kernels are compiled
    /// `avx2,fma` — its f32 tile and vecmat are `vfmadd` — so a host that
    /// reports AVX2 without FMA (some VMs mask it) must not select it: it
    /// would die of SIGILL on the first projection. Pure so the rule is
    /// unit-testable on any host.
    fn runs(self, b: Backend) -> bool {
        match b {
            Backend::Scalar => true,
            Backend::Avx2 => self.avx2 && self.fma,
        }
    }

    /// The fastest backend these features run.
    fn best(self) -> Backend {
        if self.runs(Backend::Avx2) {
            Backend::Avx2
        } else {
            Backend::Scalar
        }
    }
}

/// The tier the first [`backend`] query selected.
static ACTIVE: OnceLock<Backend> = OnceLock::new();

/// The backend an `AASD_KERNEL` value selects on a host with `host`'s
/// features: the host's best when unset, the named tier when it exists and
/// the host runs it, an error otherwise. Pure so the rule is unit-testable
/// despite the process-wide selection cached behind [`backend`].
fn backend_from_env(raw: Option<&str>, host: HostFeatures) -> Result<Backend, String> {
    let Some(raw) = raw else {
        return Ok(host.best());
    };
    match Backend::from_name(raw) {
        Some(b) if host.runs(b) => Ok(b),
        Some(b) => Err(format!(
            "AASD_KERNEL={}: backend not supported on this host",
            b.name()
        )),
        None => Err(format!(
            "AASD_KERNEL={raw}: unknown backend (expected scalar|avx2)"
        )),
    }
}

/// The process-wide active backend (selected once, lazily; see module docs).
///
/// # Panics
/// On the first query when `AASD_KERNEL` is set to anything but a supported
/// tier's name.
#[inline]
pub fn backend() -> Backend {
    match ACTIVE.get() {
        Some(&b) => b,
        None => select_backend(),
    }
}

/// First-use selection, out of line so the hot callers of [`backend`]
/// inline only the load.
#[cold]
fn select_backend() -> Backend {
    *ACTIVE.get_or_init(|| {
        let raw = std::env::var("AASD_KERNEL").ok();
        backend_from_env(raw.as_deref(), HostFeatures::detect()).unwrap_or_else(|e| panic!("{e}"))
    })
}

// ---------------------------------------------------------------------------
// Shared semantic helpers (single source of truth for every dispatch tier).
// ---------------------------------------------------------------------------

/// Fully-masked softmax fallback shared by both tiers: a
/// row whose maximum is `-inf` becomes the uniform distribution instead of
/// `0/0 = NaN` everywhere. Returns `true` when it handled the row.
#[inline]
fn softmax_uniform_fallback(row: &mut [f32], max: f32) -> bool {
    if max == f32::NEG_INFINITY {
        let uniform = 1.0 / row.len() as f32;
        row.fill(uniform);
        return true;
    }
    false
}

// ---------------------------------------------------------------------------
// f32 kernels: the matmul tile and dot.
// ---------------------------------------------------------------------------

/// `C += A·B` (`A: m×k`, `B: k×n`, `C: m×n`, row-major) through an explicit
/// backend: the kernel behind [`crate::matmul_blocked_into`] and, at one
/// row, [`crate::vecmat_into`]. Every row has the bits of the one-row
/// product of that row, on every backend (see module docs).
pub(crate) fn matmul_acc_with(
    bk: Backend,
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(b.len(), k * n, "B must be k×n");
    assert_eq!(c.len(), m * n, "C must be m×n");
    match bk {
        // SAFETY: callers pass a tier the host supports — `backend()` yields
        // no other, and the tests filter `Backend::ALL` on `is_supported`.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { matmul_acc_avx2::<false>(c, a, b, m, k, n) },
        // Two 4-lane vectors per row on the x86_64 baseline: six rows fill
        // 12 of the 16 xmm registers.
        _ => matmul_acc_tiled::<8, false>(c, a, b, m, k, n),
    }
}

/// Output columns per packed panel: the widest tile's strip (AVX2, two
/// 8-lane vectors). The scalar tier's 8-wide tile reads half panels.
const PANEL: usize = 16;

/// Floats [`pack_panels`] produces for a `k × n` matrix.
fn packed_len(k: usize, n: usize) -> usize {
    n.div_ceil(PANEL) * k * PANEL
}

/// Repack a row-major `k × n` matrix into **tile-major panels**: panel `p`
/// holds columns `16p .. 16p + 16` as `k` consecutive 16-float rows
/// (`[n/16][k][16]`), the last panel zero-padded. A column strip of the
/// tile then walks one contiguous run of memory — 64 bytes per `k` step —
/// instead of one cache line every `n·4` bytes. The layout decides where an
/// element of `B` lives, never the order the tile consumes `k` in, so
/// products over panels have the bits of products over the row-major matrix.
pub fn pack_panels(b: &[f32], k: usize, n: usize) -> Vec<f32> {
    assert_eq!(b.len(), k * n, "B must be k×n");
    let mut panels = vec![0.0f32; packed_len(k, n)];
    for (kk, b_row) in b.chunks_exact(n.max(1)).enumerate() {
        for (p, cols) in b_row.chunks(PANEL).enumerate() {
            panels[(p * k + kk) * PANEL..][..cols.len()].copy_from_slice(cols);
        }
    }
    panels
}

/// `C += A·B` with `B` given as the [`pack_panels`] image of a `k × n`
/// matrix: the same tile as [`crate::matmul_blocked_acc_into`] at every
/// `m` (one row included), so every row is bit-identical to the one-row
/// product over the row-major matrix, on every backend.
pub(crate) fn matmul_packed_acc_with(
    bk: Backend,
    c: &mut [f32],
    a: &[f32],
    panels: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(panels.len(), packed_len(k, n), "B must be packed k×n");
    assert_eq!(c.len(), m * n, "C must be m×n");
    match bk {
        // SAFETY: as in `matmul_acc_with`.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { matmul_acc_avx2::<true>(c, a, panels, m, k, n) },
        _ => matmul_acc_tiled::<8, true>(c, a, panels, m, k, n),
    }
}

/// # Safety
/// The host must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn matmul_acc_avx2<const PACKED: bool>(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    matmul_acc_tiled::<16, PACKED>(c, a, b, m, k, n)
}

/// Rows of `C` per register tile: with `NR` = two vectors, 6 rows keep 12
/// accumulators live and leave registers for the two shared `B` vectors and
/// the broadcast `A` value out of 16.
const TILE_ROWS: usize = 6;

/// The tiled loop nest, generic over the tile width and over where `B`
/// lives (`PACKED`: [`pack_panels`] image, else row-major) so one source
/// serves every tier and both layouts (`#[inline(always)]`: it is compiled
/// with the caller's target features). Column strips are the outer loop, so
/// a strip of `B` (`k × NR` floats) stays in L1 while every row tile passes
/// over it.
#[inline(always)]
fn matmul_acc_tiled<const NR: usize, const PACKED: bool>(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let n_full = n - n % NR;
    for j0 in (0..n_full).step_by(NR) {
        // The literal width lets the full-strip copy of the tile drop its
        // partial-width loads.
        matmul_strip::<NR, PACKED>(c, a, b, m, k, n, j0, NR);
    }
    if n_full < n {
        matmul_strip::<NR, PACKED>(c, a, b, m, k, n, n_full, n - n_full);
    }
}

/// One `w`-column strip of `C` (`w ≤ NR`), row tile by row tile.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn matmul_strip<const NR: usize, const PACKED: bool>(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    j0: usize,
    w: usize,
) {
    // Where the strip's `k = 0` elements start in `b` and how far apart its
    // `k` steps are. A strip never straddles panels: both tile widths
    // divide the panel width.
    let (off, stride) = if PACKED {
        const { assert!(PANEL.is_multiple_of(NR)) };
        (j0 / PANEL * k * PANEL + j0 % PANEL, PANEL)
    } else {
        (j0, n)
    };
    // Rows split evenly over the fewest tiles (7 → 4 + 3, not 6 + 1): a
    // one- or two-row tile has too few independent accumulators to hide the
    // multiply-add latency.
    let mut tiles = m.div_ceil(TILE_ROWS);
    let mut i0 = 0;
    while i0 < m {
        let mr = (m - i0).div_ceil(tiles);
        let c_t = &mut c[i0 * n + j0..];
        let a_t = &a[i0 * k..(i0 + mr) * k];
        match mr {
            1 => matmul_tile::<1, NR>(c_t, n, w, a_t, k, b, off, stride),
            2 => matmul_tile::<2, NR>(c_t, n, w, a_t, k, b, off, stride),
            3 => matmul_tile::<3, NR>(c_t, n, w, a_t, k, b, off, stride),
            4 => matmul_tile::<4, NR>(c_t, n, w, a_t, k, b, off, stride),
            5 => matmul_tile::<5, NR>(c_t, n, w, a_t, k, b, off, stride),
            _ => matmul_tile::<TILE_ROWS, NR>(c_t, n, w, a_t, k, b, off, stride),
        }
        i0 += mr;
        tiles -= 1;
    }
}

/// The micro-kernel: an `MR × w` tile of `C` (`c` starts at its first
/// element, rows `n` apart) lives in `acc` for the whole `k` loop; each step
/// loads one `B` vector — `b[off + kk·stride ..][..w]`, which is `(j0, n)`
/// addressing on a row-major matrix and `(panel start, 16)` on a packed one
/// — shared by all `MR` rows, and broadcasts one `A` value per row. Every
/// element accumulates `acc = fma(a, b, acc)` for `kk = 0, 1, 2, …` — one
/// rounding per term, no data-dependent skip — which is the naive loop's
/// per-element sequence; under `avx2,fma` the `mul_add` is a `vfmadd`, on
/// the scalar tier the same correctly rounded result from libm. Lanes
/// `w..NR` of a partial strip multiply zeros and are never stored.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn matmul_tile<const MR: usize, const NR: usize>(
    c: &mut [f32],
    n: usize,
    w: usize,
    a: &[f32],
    k: usize,
    b: &[f32],
    off: usize,
    stride: usize,
) {
    assert_eq!(a.len(), MR * k);
    assert!(w <= NR);
    assert!(k == 0 || off + (k - 1) * stride + w <= b.len());
    let mut acc = [[0.0f32; NR]; MR];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        acc_r[..w].copy_from_slice(&c[r * n..][..w]);
    }
    for kk in 0..k {
        let mut bv = [0.0f32; NR];
        let at = off + kk * stride;
        // SAFETY: kk ≤ k − 1, so the range ends at or before
        // off + (k − 1)·stride + w ≤ b.len() (asserted above).
        bv[..w].copy_from_slice(unsafe { b.get_unchecked(at..at + w) });
        for (r, acc_r) in acc.iter_mut().enumerate() {
            // SAFETY: r < MR and kk < k, so r·k + kk < MR·k = a.len()
            // (asserted above).
            let av = unsafe { *a.get_unchecked(r * k + kk) };
            for (cv, bj) in acc_r.iter_mut().zip(bv) {
                *cv = av.mul_add(bj, *cv);
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        c[r * n..][..w].copy_from_slice(&acc_r[..w]);
    }
}

/// Dot product through an explicit backend (lane-parallel reduction order,
/// the same bits on every tier).
#[inline]
pub fn dot_with(bk: Backend, a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { dot_avx2(a, b) },
        _ => dot_scalar(a, b),
    }
}

/// The scalar tier's [`dot_avx2`]: eight lane sums, each term one multiply
/// then one add, combined by [`hsum8`], then the tail in sequence.
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let full = a.len() - a.len() % 8;
    let mut lanes = [0.0f32; 8];
    for (ca, cb) in a[..full].chunks_exact(8).zip(b[..full].chunks_exact(8)) {
        for ((s, x), y) in lanes.iter_mut().zip(ca).zip(cb) {
            *s += x * y;
        }
    }
    let mut s = hsum8(lanes);
    for (x, y) in a[full..].iter().zip(&b[full..]) {
        s += x * y;
    }
    s
}

/// [`hsum256_ps`]'s order over eight lane sums.
fn hsum8(l: [f32; 8]) -> f32 {
    ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
}

#[inline]
fn axpy_scalar(y: &mut [f32], s: f32, x: &[f32]) {
    for (yv, xv) in y.iter_mut().zip(x.iter()) {
        *yv += s * *xv;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn hsum256_ps(v: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps(v, 1);
    let s = _mm_add_ps(lo, hi);
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    _mm_cvtss_f32(s)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 8 <= n {
        acc = _mm256_add_ps(
            acc,
            _mm256_mul_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i))),
        );
        i += 8;
    }
    let mut s = hsum256_ps(acc);
    while i < n {
        s += a[i] * b[i];
        i += 1;
    }
    s
}

// ---------------------------------------------------------------------------
// Batched attention kernels over the strided KV cache.
//
// The decode hot loop attends one query head over every cached position. A
// per-position kernel call cannot inline across the `target_feature`
// boundary, so at ctx 512 the call overhead would dominate the arithmetic.
// These kernels take the whole position loop inside one dispatch:
// `attn_scores_with` computes every `q·k_j` dot against rows of a strided
// slab, `attn_mix_with` accumulates `Σ w_j·v_j` with the output held in
// registers (one store pass instead of one read-modify-write pass per
// position). Per element they perform the **identical arithmetic sequence**
// as the per-position loops — same lane layout, same mul-then-add (no FMA),
// same horizontal-sum, same j-order — so every tier's scores are
// bit-identical to a loop of `dot_with` calls and every tier's mix to a
// loop of the scalar `y += w·v` (asserted by
// `attn_kernels_match_per_position_loops`).
// ---------------------------------------------------------------------------

/// `scores[j] = (q · keys[j·stride .. j·stride+d]) * scale` for every `j`,
/// where `d = q.len()`. `keys` is a row-major slab whose rows are `stride`
/// floats apart (the KV cache with the head offset already applied).
pub fn attn_scores_with(
    bk: Backend,
    scores: &mut [f32],
    q: &[f32],
    keys: &[f32],
    stride: usize,
    scale: f32,
) {
    let d = q.len();
    debug_assert!(d <= stride, "head rows must fit inside the cache stride");
    if let Some(last) = scores.len().checked_sub(1) {
        assert!(
            keys.len() >= last * stride + d,
            "keys slab too short for {} strided rows",
            scores.len()
        );
    }
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { attn_scores_avx2(scores, q, keys, stride, scale) },
        _ => {
            for (j, s) in scores.iter_mut().enumerate() {
                *s = dot_scalar(q, &keys[j * stride..j * stride + d]) * scale;
            }
        }
    }
}

/// `out[e] += Σ_j weights[j] · values[j·stride + e]` with the j-sum taken in
/// index order, each term one multiply then one add.
pub fn attn_mix_with(bk: Backend, out: &mut [f32], weights: &[f32], values: &[f32], stride: usize) {
    let d = out.len();
    debug_assert!(d <= stride, "head rows must fit inside the cache stride");
    if let Some(last) = weights.len().checked_sub(1) {
        assert!(
            values.len() >= last * stride + d,
            "values slab too short for {} strided rows",
            weights.len()
        );
    }
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { attn_mix_avx2(out, weights, values, stride) },
        _ => {
            for (j, &w) in weights.iter().enumerate() {
                axpy_scalar(out, w, &values[j * stride..j * stride + d]);
            }
        }
    }
}

/// Four interleaved `dot_avx2` chains (one per position) so the query block
/// is loaded once per lane chunk and the out-of-order core sees four
/// independent accumulators. Each chain's arithmetic is exactly
/// `dot_avx2(q, row) * scale`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn attn_scores_avx2(scores: &mut [f32], q: &[f32], keys: &[f32], stride: usize, scale: f32) {
    let d = q.len();
    let qp = q.as_ptr();
    let kp = keys.as_ptr();
    let l = scores.len();
    let mut j = 0usize;
    while j + 8 <= l {
        let k0 = kp.add(j * stride);
        let k1 = kp.add((j + 1) * stride);
        let k2 = kp.add((j + 2) * stride);
        let k3 = kp.add((j + 3) * stride);
        let k4 = kp.add((j + 4) * stride);
        let k5 = kp.add((j + 5) * stride);
        let k6 = kp.add((j + 6) * stride);
        let k7 = kp.add((j + 7) * stride);
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut acc4 = _mm256_setzero_ps();
        let mut acc5 = _mm256_setzero_ps();
        let mut acc6 = _mm256_setzero_ps();
        let mut acc7 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= d {
            let vq = _mm256_loadu_ps(qp.add(i));
            acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(vq, _mm256_loadu_ps(k0.add(i))));
            acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(vq, _mm256_loadu_ps(k1.add(i))));
            acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(vq, _mm256_loadu_ps(k2.add(i))));
            acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(vq, _mm256_loadu_ps(k3.add(i))));
            acc4 = _mm256_add_ps(acc4, _mm256_mul_ps(vq, _mm256_loadu_ps(k4.add(i))));
            acc5 = _mm256_add_ps(acc5, _mm256_mul_ps(vq, _mm256_loadu_ps(k5.add(i))));
            acc6 = _mm256_add_ps(acc6, _mm256_mul_ps(vq, _mm256_loadu_ps(k6.add(i))));
            acc7 = _mm256_add_ps(acc7, _mm256_mul_ps(vq, _mm256_loadu_ps(k7.add(i))));
            i += 8;
        }
        let mut s = [
            hsum256_ps(acc0),
            hsum256_ps(acc1),
            hsum256_ps(acc2),
            hsum256_ps(acc3),
            hsum256_ps(acc4),
            hsum256_ps(acc5),
            hsum256_ps(acc6),
            hsum256_ps(acc7),
        ];
        while i < d {
            let qv = *qp.add(i);
            s[0] += qv * *k0.add(i);
            s[1] += qv * *k1.add(i);
            s[2] += qv * *k2.add(i);
            s[3] += qv * *k3.add(i);
            s[4] += qv * *k4.add(i);
            s[5] += qv * *k5.add(i);
            s[6] += qv * *k6.add(i);
            s[7] += qv * *k7.add(i);
            i += 1;
        }
        for (off, sv) in s.into_iter().enumerate() {
            scores[j + off] = sv * scale;
        }
        j += 8;
    }
    while j < l {
        scores[j] = dot_avx2(q, std::slice::from_raw_parts(kp.add(j * stride), d)) * scale;
        j += 1;
    }
}

/// Output held in up to eight ymm accumulators across the whole position
/// loop: one load and one store of `out` per 64-lane chunk instead of one
/// read-modify-write sweep per position. A single f32 mul-then-add has the
/// same rounding in a SIMD lane as in scalar code, so any chunking of the
/// element dimension leaves every element's j-ordered sum bit-identical.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn attn_mix_avx2(out: &mut [f32], weights: &[f32], values: &[f32], stride: usize) {
    let d = out.len();
    let op = out.as_mut_ptr();
    let vp = values.as_ptr();
    let mut e = 0usize;
    while e + 64 <= d {
        let mut a0 = _mm256_loadu_ps(op.add(e));
        let mut a1 = _mm256_loadu_ps(op.add(e + 8));
        let mut a2 = _mm256_loadu_ps(op.add(e + 16));
        let mut a3 = _mm256_loadu_ps(op.add(e + 24));
        let mut a4 = _mm256_loadu_ps(op.add(e + 32));
        let mut a5 = _mm256_loadu_ps(op.add(e + 40));
        let mut a6 = _mm256_loadu_ps(op.add(e + 48));
        let mut a7 = _mm256_loadu_ps(op.add(e + 56));
        for (j, &w) in weights.iter().enumerate() {
            let vw = _mm256_set1_ps(w);
            let row = vp.add(j * stride + e);
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(vw, _mm256_loadu_ps(row)));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(vw, _mm256_loadu_ps(row.add(8))));
            a2 = _mm256_add_ps(a2, _mm256_mul_ps(vw, _mm256_loadu_ps(row.add(16))));
            a3 = _mm256_add_ps(a3, _mm256_mul_ps(vw, _mm256_loadu_ps(row.add(24))));
            a4 = _mm256_add_ps(a4, _mm256_mul_ps(vw, _mm256_loadu_ps(row.add(32))));
            a5 = _mm256_add_ps(a5, _mm256_mul_ps(vw, _mm256_loadu_ps(row.add(40))));
            a6 = _mm256_add_ps(a6, _mm256_mul_ps(vw, _mm256_loadu_ps(row.add(48))));
            a7 = _mm256_add_ps(a7, _mm256_mul_ps(vw, _mm256_loadu_ps(row.add(56))));
        }
        _mm256_storeu_ps(op.add(e), a0);
        _mm256_storeu_ps(op.add(e + 8), a1);
        _mm256_storeu_ps(op.add(e + 16), a2);
        _mm256_storeu_ps(op.add(e + 24), a3);
        _mm256_storeu_ps(op.add(e + 32), a4);
        _mm256_storeu_ps(op.add(e + 40), a5);
        _mm256_storeu_ps(op.add(e + 48), a6);
        _mm256_storeu_ps(op.add(e + 56), a7);
        e += 64;
    }
    while e + 32 <= d {
        let mut a0 = _mm256_loadu_ps(op.add(e));
        let mut a1 = _mm256_loadu_ps(op.add(e + 8));
        let mut a2 = _mm256_loadu_ps(op.add(e + 16));
        let mut a3 = _mm256_loadu_ps(op.add(e + 24));
        for (j, &w) in weights.iter().enumerate() {
            let vw = _mm256_set1_ps(w);
            let row = vp.add(j * stride + e);
            a0 = _mm256_add_ps(a0, _mm256_mul_ps(vw, _mm256_loadu_ps(row)));
            a1 = _mm256_add_ps(a1, _mm256_mul_ps(vw, _mm256_loadu_ps(row.add(8))));
            a2 = _mm256_add_ps(a2, _mm256_mul_ps(vw, _mm256_loadu_ps(row.add(16))));
            a3 = _mm256_add_ps(a3, _mm256_mul_ps(vw, _mm256_loadu_ps(row.add(24))));
        }
        _mm256_storeu_ps(op.add(e), a0);
        _mm256_storeu_ps(op.add(e + 8), a1);
        _mm256_storeu_ps(op.add(e + 16), a2);
        _mm256_storeu_ps(op.add(e + 24), a3);
        e += 32;
    }
    while e + 8 <= d {
        let mut acc = _mm256_loadu_ps(op.add(e));
        for (j, &w) in weights.iter().enumerate() {
            let vw = _mm256_set1_ps(w);
            acc = _mm256_add_ps(
                acc,
                _mm256_mul_ps(vw, _mm256_loadu_ps(vp.add(j * stride + e))),
            );
        }
        _mm256_storeu_ps(op.add(e), acc);
        e += 8;
    }
    while e < d {
        let mut acc = *op.add(e);
        for (j, &w) in weights.iter().enumerate() {
            acc += w * *vp.add(j * stride + e);
        }
        *op.add(e) = acc;
        e += 1;
    }
}

// ---------------------------------------------------------------------------
// Transcendental / reduction kernels: softmax, silu⊙, rms_norm.
// ---------------------------------------------------------------------------

/// Lane-parallel `e^x` (Cephes-style range reduction + degree-5 polynomial,
/// relative error ≲ 2e-7). Inputs are clamped to the finite-result range;
/// an exact-zero input yields exactly 1.0.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn exp256_ps(x: __m256) -> __m256 {
    let exp_hi = _mm256_set1_ps(88.37626);
    let exp_lo = _mm256_set1_ps(-88.37626);
    let log2ef = _mm256_set1_ps(std::f32::consts::LOG2_E);
    let c1 = _mm256_set1_ps(0.693_359_4);
    let c2 = _mm256_set1_ps(-2.121_944_4e-4);
    let p0 = _mm256_set1_ps(1.987_569_1e-4);
    let p1 = _mm256_set1_ps(1.398_199_9e-3);
    let p2 = _mm256_set1_ps(8.333_452e-3);
    let p3 = _mm256_set1_ps(4.166_579_6e-2);
    let p4 = _mm256_set1_ps(1.666_666_5e-1);
    let p5 = _mm256_set1_ps(5e-1);
    let one = _mm256_set1_ps(1.0);

    let x = _mm256_min_ps(_mm256_max_ps(x, exp_lo), exp_hi);
    // n = round(x·log2e); reduced x ∈ [-0.347, 0.347].
    let fx = _mm256_floor_ps(_mm256_add_ps(_mm256_mul_ps(x, log2ef), _mm256_set1_ps(0.5)));
    let x = _mm256_sub_ps(
        _mm256_sub_ps(x, _mm256_mul_ps(fx, c1)),
        _mm256_mul_ps(fx, c2),
    );
    let z = _mm256_mul_ps(x, x);
    let mut y = p0;
    y = _mm256_add_ps(_mm256_mul_ps(y, x), p1);
    y = _mm256_add_ps(_mm256_mul_ps(y, x), p2);
    y = _mm256_add_ps(_mm256_mul_ps(y, x), p3);
    y = _mm256_add_ps(_mm256_mul_ps(y, x), p4);
    y = _mm256_add_ps(_mm256_mul_ps(y, x), p5);
    y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(y, z), x), one);
    // Scale by 2^n via the exponent bits.
    let pow2n = _mm256_castsi256_ps(_mm256_slli_epi32(
        _mm256_add_epi32(_mm256_cvttps_epi32(fx), _mm256_set1_epi32(0x7f)),
        23,
    ));
    _mm256_mul_ps(y, pow2n)
}

/// One lane of [`exp256_ps`], step for step and one rounding per step: the
/// clamp mirrors `maxps` / `minps` (the second operand unless the compare
/// holds, so NaN clamps to the low bound), then the same floor, reduction,
/// polynomial and exponent-bit scale.
fn exp_lane(x: f32) -> f32 {
    let x = if x > -88.37626 { x } else { -88.37626 };
    let x = if x < 88.37626 { x } else { 88.37626 };
    let fx = (x * std::f32::consts::LOG2_E + 0.5).floor();
    let x = (x - fx * 0.693_359_4) - fx * -2.121_944_4e-4;
    let z = x * x;
    let y = 1.987_569_1e-4 * x + 1.398_199_9e-3;
    let y = y * x + 8.333_452e-3;
    let y = y * x + 4.166_579_6e-2;
    let y = y * x + 1.666_666_5e-1;
    let y = y * x + 5e-1;
    let y = (y * z + x) + 1.0;
    // `fx` is a whole number within ±128 after the clamp, so the cast
    // truncates exactly as `cvttps` does.
    let n = fx as i32;
    y * f32::from_bits(((n + 0x7f) << 23) as u32)
}

/// In-place softmax through an explicit backend. Every tier shares
/// [`softmax_uniform_fallback`] for fully-masked rows.
pub fn softmax_row_with(bk: Backend, row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { softmax_row_avx2(row) },
        _ => softmax_row_scalar(row),
    }
}

/// The scalar tier's [`softmax_row_avx2`]: full 8-blocks through
/// [`exp_lane`] into eight lane sums combined by [`hsum8`], the tail through
/// libm `exp`. The maximum needs no lane order: `max` over NaN-free floats
/// is exact, and the sign of a zero maximum cannot reach an `exp`.
fn softmax_row_scalar(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if softmax_uniform_fallback(row, max) {
        return;
    }
    let full = row.len() - row.len() % 8;
    let mut lanes = [0.0f32; 8];
    for block in row[..full].chunks_exact_mut(8) {
        for (v, s) in block.iter_mut().zip(&mut lanes) {
            *v = exp_lane(*v - max);
            *s += *v;
        }
    }
    let mut sum = hsum8(lanes);
    for v in &mut row[full..] {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row.iter_mut() {
        *v *= inv;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn softmax_row_avx2(row: &mut [f32]) {
    let n = row.len();
    let p = row.as_mut_ptr();
    let mut i = 0usize;
    let mut max = f32::NEG_INFINITY;
    if n >= 8 {
        let mut vmax = _mm256_loadu_ps(p);
        i = 8;
        while i + 8 <= n {
            vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(p.add(i)));
            i += 8;
        }
        let lo = _mm256_castps256_ps128(vmax);
        let hi = _mm256_extractf128_ps(vmax, 1);
        let m4 = _mm_max_ps(lo, hi);
        let m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
        let m1 = _mm_max_ss(m2, _mm_shuffle_ps(m2, m2, 1));
        max = _mm_cvtss_f32(m1);
    }
    while i < n {
        max = max.max(row[i]);
        i += 1;
    }
    if softmax_uniform_fallback(row, max) {
        return;
    }
    let vm = _mm256_set1_ps(max);
    let mut vsum = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 8 <= n {
        let e = exp256_ps(_mm256_sub_ps(_mm256_loadu_ps(p.add(i)), vm));
        _mm256_storeu_ps(p.add(i), e);
        vsum = _mm256_add_ps(vsum, e);
        i += 8;
    }
    let mut sum = hsum256_ps(vsum);
    while i < n {
        let e = (row[i] - max).exp();
        row[i] = e;
        sum += e;
        i += 1;
    }
    let inv = 1.0 / sum;
    let vinv = _mm256_set1_ps(inv);
    let mut i = 0usize;
    while i + 8 <= n {
        _mm256_storeu_ps(p.add(i), _mm256_mul_ps(_mm256_loadu_ps(p.add(i)), vinv));
        i += 8;
    }
    while i < n {
        row[i] *= inv;
        i += 1;
    }
}

/// Fused SwiGLU elementwise kernel: `gate[i] = silu(gate[i]) * up[i]`.
#[inline]
pub fn silu_mul(gate: &mut [f32], up: &[f32]) {
    silu_mul_with(backend(), gate, up);
}

/// [`silu_mul`] through an explicit backend.
pub fn silu_mul_with(bk: Backend, gate: &mut [f32], up: &[f32]) {
    assert_eq!(gate.len(), up.len());
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { silu_mul_avx2(gate, up) },
        // `silu_mul_avx2`'s sequence: `exp_lane` on full 8-blocks, libm on
        // the tail.
        _ => {
            let full = gate.len() - gate.len() % 8;
            let (body, tail) = gate.split_at_mut(full);
            for (g, u) in body.iter_mut().zip(up) {
                *g = *g / (1.0 + exp_lane(0.0 - *g)) * u;
            }
            for (g, u) in tail.iter_mut().zip(&up[full..]) {
                *g = crate::ops::silu(*g) * u;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn silu_mul_avx2(gate: &mut [f32], up: &[f32]) {
    let n = gate.len();
    let gp = gate.as_mut_ptr();
    let upp = up.as_ptr();
    let one = _mm256_set1_ps(1.0);
    let zero = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 8 <= n {
        let g = _mm256_loadu_ps(gp.add(i));
        // silu(g) = g / (1 + e^{-g})
        let e = exp256_ps(_mm256_sub_ps(zero, g));
        let s = _mm256_div_ps(g, _mm256_add_ps(one, e));
        _mm256_storeu_ps(gp.add(i), _mm256_mul_ps(s, _mm256_loadu_ps(upp.add(i))));
        i += 8;
    }
    while i < n {
        gate[i] = crate::ops::silu(gate[i]) * up[i];
        i += 1;
    }
}

/// RMS-norm one row: `out = x · gain / rms(x)`. The sum of squares is
/// [`dot_with`]`(x, x)`; the scale pass applies `x * (inv * g)` per element.
#[inline]
pub fn rms_norm_row_into(x: &[f32], gain: &[f32], eps: f32, out: &mut [f32]) {
    rms_norm_row_with(backend(), x, gain, eps, out);
}

/// [`rms_norm_row_into`] through an explicit backend.
pub fn rms_norm_row_with(bk: Backend, x: &[f32], gain: &[f32], eps: f32, out: &mut [f32]) {
    assert_eq!(x.len(), gain.len());
    assert_eq!(x.len(), out.len());
    let ms = dot_with(bk, x, x) / x.len() as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    for ((o, v), g) in out.iter_mut().zip(x.iter()).zip(gain.iter()) {
        *o = *v * (inv * *g);
    }
}

// ---------------------------------------------------------------------------
// int8 kernels (exact i32 accumulation on every tier).
// ---------------------------------------------------------------------------

/// Absmax-quantize one row to i8 codes, returning the scale `absmax / 127`
/// (0.0 for an all-zero row). Every tier produces **identical codes and
/// scale**: `max` over finite floats is exactly associative (so the lane
/// reduction finds the same absmax as the scalar fold), the `v·inv` multiply
/// rounds identically in a SIMD lane and in scalar code, and the AVX2 path
/// reproduces `f32::round`'s half-away-from-zero rule exactly via
/// `trunc(t + copysign(0.5, t))` — the add is exact for every |t| ≤ 2²²,
/// far above the 127 this input reaches.
pub fn quantize_row_i8_with(bk: Backend, x: &[f32], q: &mut [i8]) -> f32 {
    assert_eq!(x.len(), q.len());
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { quantize_row_i8_avx2(x, q) },
        _ => quantize_row_i8_scalar(x, q),
    }
}

fn quantize_row_i8_scalar(x: &[f32], q: &mut [i8]) -> f32 {
    let absmax = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    if absmax == 0.0 {
        q.fill(0);
        return 0.0;
    }
    let scale = absmax / 127.0;
    let inv = 127.0 / absmax;
    for (qv, &v) in q.iter_mut().zip(x.iter()) {
        *qv = (v * inv).round().clamp(-127.0, 127.0) as i8;
    }
    scale
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_row_i8_avx2(x: &[f32], q: &mut [i8]) -> f32 {
    let n = x.len();
    let xp = x.as_ptr();
    let sign_mask = _mm256_set1_ps(-0.0);
    let mut vmax = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 8 <= n {
        let v = _mm256_andnot_ps(sign_mask, _mm256_loadu_ps(xp.add(i)));
        vmax = _mm256_max_ps(vmax, v);
        i += 8;
    }
    let lo = _mm256_castps256_ps128(vmax);
    let hi = _mm256_extractf128_ps(vmax, 1);
    let m4 = _mm_max_ps(lo, hi);
    let m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
    let m1 = _mm_max_ss(m2, _mm_shuffle_ps(m2, m2, 1));
    let mut absmax = _mm_cvtss_f32(m1);
    while i < n {
        absmax = absmax.max(x[i].abs());
        i += 1;
    }
    if absmax == 0.0 {
        q.fill(0);
        return 0.0;
    }
    let scale = absmax / 127.0;
    let inv = 127.0 / absmax;
    let vinv = _mm256_set1_ps(inv);
    let vhalf = _mm256_set1_ps(0.5);
    let qp = q.as_mut_ptr();
    let mut i = 0usize;
    while i + 8 <= n {
        let t = _mm256_mul_ps(_mm256_loadu_ps(xp.add(i)), vinv);
        // Half-away-from-zero, exactly like `f32::round`: copy t's sign onto
        // 0.5, add (exact in this range), truncate toward zero.
        let half = _mm256_or_ps(vhalf, _mm256_and_ps(sign_mask, t));
        let r = _mm256_round_ps(
            _mm256_add_ps(t, half),
            _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC,
        );
        // |t| < 127.001, so the saturating packs below cannot clip a value
        // the scalar clamp would have kept.
        let ri = _mm256_cvtps_epi32(r);
        let p16 = _mm_packs_epi32(_mm256_castsi256_si128(ri), _mm256_extracti128_si256(ri, 1));
        let p8 = _mm_packs_epi16(p16, p16);
        _mm_storel_epi64(qp.add(i) as *mut __m128i, p8);
        i += 8;
    }
    while i < n {
        *qp.add(i) = (x[i] * inv).round().clamp(-127.0, 127.0) as i8;
        i += 1;
    }
    scale
}

/// Output columns per int8 panel: two 8-lane i32 accumulators.
pub(crate) const Q8_COLS: usize = 16;

/// Consecutive `k` per column inside a panel: the four bytes that one i32
/// lane's `maddubs` + `madd` pair sums.
pub(crate) const Q8_GROUP: usize = 4;

/// Codes in one `k` group of one panel: 64 bytes, a pair of 256-bit vectors.
const Q8_GROUP_BYTES: usize = Q8_COLS * Q8_GROUP;

/// Bytes of the int8 panel image of a `k × n` code matrix.
pub(crate) fn q8_panels_len(k: usize, n: usize) -> usize {
    n.div_ceil(Q8_COLS) * k.div_ceil(Q8_GROUP) * Q8_GROUP_BYTES
}

/// Where code `(kk, j)` of a `k × n` matrix lives in its **int8 panels**:
/// panel `j / 16` holds 16 output columns as `⌈k/4⌉` groups of 64 bytes, a
/// group holds 4 consecutive `k` of each of its columns side by side —
/// `[n/16][k/4][16][4]`, zero-padded in both directions. One group is a pair
/// of vectors whose every i32 lane is a 4-term slice of one column's dot.
#[inline]
pub(crate) fn q8_panel_index(k: usize, kk: usize, j: usize) -> usize {
    let group = j / Q8_COLS * k.div_ceil(Q8_GROUP) + kk / Q8_GROUP;
    group * Q8_GROUP_BYTES + j % Q8_COLS * Q8_GROUP + kk % Q8_GROUP
}

/// `C += (Â·Ŵ)` dequantized: the int8 register tile. `qa` holds `m` rows of
/// `k` activation codes with one scale each in `sa`; `panels` / `scales` are
/// the `k × n` weight codes in the [`q8_panel_index`] layout and their
/// per-column scales. Element `(i, j)` gains `dot as f32 * (sa[i] *
/// scales[j])` where `dot = Σ qa[i,kk]·qw[kk,j]` in i32 — exact, hence the
/// same integer under any tiling, `k` order or lane width: every tier, at
/// every `m`, has the bits of one scalar i32 dot loop per output.
///
/// Codes must lie in `[-127, 127]` (what [`quantize_row_i8_with`] emits):
/// the AVX2 tile forms `|a|·(±w)` byte products and sums pairs in i16,
/// which holds `2·127·127` but not a pair involving `-128`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_q8_acc_with(
    bk: Backend,
    c: &mut [f32],
    qa: &[i8],
    sa: &[f32],
    panels: &[i8],
    scales: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(qa.len(), m * k, "A codes must be m×k");
    assert_eq!(sa.len(), m, "one scale per row of A");
    assert_eq!(panels.len(), q8_panels_len(k, n), "B must be packed k×n");
    assert_eq!(scales.len(), n, "one scale per column of B");
    assert_eq!(c.len(), m * n, "C must be m×n");
    if k == 0 {
        return;
    }
    match bk {
        // SAFETY: as in `matmul_acc_with`.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { matmul_q8_acc_avx2(c, qa, sa, panels, scales, m, k, n) },
        _ => matmul_q8_acc_tiled::<false>(c, qa, sa, panels, scales, m, k, n),
    }
}

/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn matmul_q8_acc_avx2(
    c: &mut [f32],
    qa: &[i8],
    sa: &[f32],
    panels: &[i8],
    scales: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    matmul_q8_acc_tiled::<true>(c, qa, sa, panels, scales, m, k, n)
}

/// The int8 loop nest, one source for both tiers (`#[inline(always)]`: it
/// is compiled with the caller's target features). Panels are the outer
/// loop, so a panel (`k × 16` bytes) stays in L1 while every row tile passes
/// over it; rows split over tiles as in [`matmul_strip`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn matmul_q8_acc_tiled<const AVX2: bool>(
    c: &mut [f32],
    qa: &[i8],
    sa: &[f32],
    panels: &[i8],
    scales: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let panel_len = k.div_ceil(Q8_GROUP) * Q8_GROUP_BYTES;
    let strips = panels.chunks_exact(panel_len).zip(scales.chunks(Q8_COLS));
    for (p, (panel, sw)) in strips.enumerate() {
        let j0 = p * Q8_COLS;
        let mut tiles = m.div_ceil(TILE_ROWS);
        let mut i0 = 0;
        while i0 < m {
            let mr = (m - i0).div_ceil(tiles);
            let c_t = &mut c[i0 * n + j0..];
            let (a_t, sa_t) = (&qa[i0 * k..(i0 + mr) * k], &sa[i0..i0 + mr]);
            match mr {
                1 => matmul_q8_tile::<1, AVX2>(c_t, n, a_t, sa_t, k, panel, sw),
                2 => matmul_q8_tile::<2, AVX2>(c_t, n, a_t, sa_t, k, panel, sw),
                3 => matmul_q8_tile::<3, AVX2>(c_t, n, a_t, sa_t, k, panel, sw),
                4 => matmul_q8_tile::<4, AVX2>(c_t, n, a_t, sa_t, k, panel, sw),
                5 => matmul_q8_tile::<5, AVX2>(c_t, n, a_t, sa_t, k, panel, sw),
                _ => matmul_q8_tile::<TILE_ROWS, AVX2>(c_t, n, a_t, sa_t, k, panel, sw),
            }
            i0 += mr;
            tiles -= 1;
        }
    }
}

/// `MR` rows against one panel: the integer dots, then the one f32 step
/// every tier shares — `c += dot as f32 * (sa · sw)`, multiply, multiply,
/// add, never fused — over the panel's `sw.len() ≤ 16` real columns (`c`
/// starts at the tile's first element, rows `n` apart).
#[inline(always)]
fn matmul_q8_tile<const MR: usize, const AVX2: bool>(
    c: &mut [f32],
    n: usize,
    qa: &[i8],
    sa: &[f32],
    k: usize,
    panel: &[i8],
    sw: &[f32],
) {
    assert_eq!(qa.len(), MR * k);
    assert_eq!(sa.len(), MR);
    assert_eq!(panel.len(), k.div_ceil(Q8_GROUP) * Q8_GROUP_BYTES);
    assert!(c.len() >= (MR - 1) * n + sw.len());
    #[cfg(target_arch = "x86_64")]
    if AVX2 {
        // SAFETY: `AVX2` is true only under `matmul_q8_acc_avx2`, whose
        // caller vouched for the host; the lengths asserted above are the
        // ones the kernel's reads and writes stay inside.
        return unsafe { q8_tile_avx2::<MR>(c, n, qa, sa, k, panel, sw) };
    }
    let dots = q8_dots_scalar::<MR>(qa, k, panel);
    for (r, (dots_r, &sx)) in dots.iter().zip(sa).enumerate() {
        q8_scale_acc(&mut c[r * n..][..sw.len()], dots_r, sx, sw);
    }
}

/// The dequantizing step: `c[j] += dot[j] as f32 * (sx · sw[j])`.
#[inline(always)]
fn q8_scale_acc(c: &mut [f32], dots: &[i32], sx: f32, sw: &[f32]) {
    for ((cv, &dot), &s) in c.iter_mut().zip(dots).zip(sw) {
        *cv += dot as f32 * (sx * s);
    }
}

/// Scalar-tier dots of `MR` activation rows against one panel: plain i32
/// loops over the same groups the AVX2 kernel reads.
#[inline(always)]
fn q8_dots_scalar<const MR: usize>(qa: &[i8], k: usize, panel: &[i8]) -> [[i32; Q8_COLS]; MR] {
    let mut acc = [[0i32; Q8_COLS]; MR];
    for (g, group) in panel.chunks_exact(Q8_GROUP_BYTES).enumerate() {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            // The last group of a row whose `k` is no multiple of 4 meets
            // the panel's zero padding with zeros of its own.
            let mut x = [0i32; Q8_GROUP];
            let rest = &qa[r * k + g * Q8_GROUP..(r + 1) * k];
            for (xv, &q) in x.iter_mut().zip(rest) {
                *xv = q as i32;
            }
            for (a, w) in acc_r.iter_mut().zip(group.chunks_exact(Q8_GROUP)) {
                for (xv, &wv) in x.iter().zip(w) {
                    *a += xv * wv as i32;
                }
            }
        }
    }
    acc
}

/// The AVX2 tile. Per group: the panel's two vectors are loaded once and
/// shared by all rows; a row broadcasts its 4 codes to every lane,
/// `sign_epi8` moves the activation's sign onto the weights so that
/// `maddubs_epi16(|x|, ±w)` sees an unsigned left operand, and
/// `madd_epi16(·, 1)` widens the i16 pair sums into the row's two i32
/// accumulators. No step can saturate for codes in `[-127, 127]` (an i16
/// pair sum is at most `2·127·127 = 32 258`), so the lanes hold the exact
/// dots. A whole panel is then dequantized from the registers with
/// [`q8_scale_acc`]'s three operations, lane for lane; the last, narrower
/// one goes through that function itself.
///
/// # Safety
/// The host must support AVX2, `qa.len() == MR·k`, `sa.len() == MR`,
/// `panel.len() == ⌈k/4⌉·64`, `sw.len() ≤ 16` and `c` must hold `sw.len()`
/// elements at each of the offsets `0, n, …, (MR − 1)·n`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn q8_tile_avx2<const MR: usize>(
    c: &mut [f32],
    n: usize,
    qa: &[i8],
    sa: &[f32],
    k: usize,
    panel: &[i8],
    sw: &[f32],
) {
    let ones = _mm256_set1_epi16(1);
    let mut acc = [[_mm256_setzero_si256(); 2]; MR];
    let (ap, wp) = (qa.as_ptr(), panel.as_ptr());
    let full = k / Q8_GROUP;
    for g in 0..full {
        let w0 = _mm256_loadu_si256(wp.add(g * Q8_GROUP_BYTES) as *const __m256i);
        let w1 = _mm256_loadu_si256(wp.add(g * Q8_GROUP_BYTES + 32) as *const __m256i);
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let x = (ap.add(r * k + g * Q8_GROUP) as *const i32).read_unaligned();
            q8_group_avx2(acc_r, _mm256_set1_epi32(x), w0, w1, ones);
        }
    }
    if !k.is_multiple_of(Q8_GROUP) {
        // The last group of a row whose `k` is no multiple of 4 meets the
        // panel's zero padding with zeros of its own.
        let w0 = _mm256_loadu_si256(wp.add(full * Q8_GROUP_BYTES) as *const __m256i);
        let w1 = _mm256_loadu_si256(wp.add(full * Q8_GROUP_BYTES + 32) as *const __m256i);
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let mut x = [0u8; Q8_GROUP];
            for (xv, &q) in x.iter_mut().zip(&qa[r * k + full * Q8_GROUP..(r + 1) * k]) {
                *xv = q as u8;
            }
            let x = _mm256_set1_epi32(i32::from_ne_bytes(x));
            q8_group_avx2(acc_r, x, w0, w1, ones);
        }
    }
    if sw.len() == Q8_COLS {
        let (s0, s1) = (
            _mm256_loadu_ps(sw.as_ptr()),
            _mm256_loadu_ps(sw.as_ptr().add(8)),
        );
        for (r, (acc_r, &sx)) in acc.iter().zip(sa).enumerate() {
            let (sx, cp) = (_mm256_set1_ps(sx), c.as_mut_ptr().add(r * n));
            for (h, (&dots, s)) in acc_r.iter().zip([s0, s1]).enumerate() {
                let cp = cp.add(8 * h);
                let term = _mm256_mul_ps(_mm256_cvtepi32_ps(dots), _mm256_mul_ps(sx, s));
                _mm256_storeu_ps(cp, _mm256_add_ps(_mm256_loadu_ps(cp), term));
            }
        }
    } else {
        for (r, (acc_r, &sx)) in acc.iter().zip(sa).enumerate() {
            let mut dots = [0i32; Q8_COLS];
            _mm256_storeu_si256(dots.as_mut_ptr() as *mut __m256i, acc_r[0]);
            _mm256_storeu_si256(dots.as_mut_ptr().add(8) as *mut __m256i, acc_r[1]);
            q8_scale_acc(&mut c[r * n..][..sw.len()], &dots, sx, sw);
        }
    }
}

/// One row's step over one group: `acc += x · w` for the 4 broadcast codes
/// in `x` against the 16 columns in `w0 ‖ w1`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn q8_group_avx2(
    acc: &mut [__m256i; 2],
    x: __m256i,
    w0: __m256i,
    w1: __m256i,
    ones: __m256i,
) {
    let ax = _mm256_abs_epi8(x);
    let p0 = _mm256_maddubs_epi16(ax, _mm256_sign_epi8(w0, x));
    let p1 = _mm256_maddubs_epi16(ax, _mm256_sign_epi8(w1, x));
    acc[0] = _mm256_add_epi32(acc[0], _mm256_madd_epi16(p0, ones));
    acc[1] = _mm256_add_epi32(acc[1], _mm256_madd_epi16(p1, ones));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Backends actually runnable on this host (scalar always; SIMD tiers
    /// when supported), so the suite exercises every dispatch path it can.
    fn supported() -> Vec<Backend> {
        Backend::ALL
            .iter()
            .copied()
            .filter(|b| b.is_supported())
            .collect()
    }

    /// The independent reference for every f32 product: the naive triple
    /// loop from `c`'s values, `acc = fma(a, b, acc)` for `kk` ascending.
    fn naive_acc(c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
        for (c_row, a_row) in c.chunks_mut(n).zip(a.chunks(k)) {
            for (j, cv) in c_row.iter_mut().enumerate() {
                for (kk, &av) in a_row.iter().enumerate() {
                    *cv = av.mul_add(b[kk * n + j], *cv);
                }
            }
        }
    }

    /// Bit patterns, so a mismatch names the float that moved.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The non-multiple-of-lane-width shapes where unrolled kernels break.
    const TAIL_DIMS: [usize; 22] = [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 33, 63, 64, 65,
    ];

    #[test]
    fn backend_names_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::from_name(b.name()), Some(b));
            assert_eq!(Backend::from_name(&b.name().to_uppercase()), Some(b));
        }
        assert_eq!(Backend::from_name(" avx2 "), Some(Backend::Avx2));
        assert_eq!(Backend::from_name("avx512"), None);
        assert_eq!(Backend::from_name(""), None);
    }

    /// `AASD_KERNEL` fails closed: unset picks the host's best tier, a
    /// supported tier's name (any case, padded) picks that tier, and every
    /// other value — the retired `sse2` included — is an error, never a
    /// silent fall-through to another tier.
    #[test]
    fn backend_from_env_fails_closed() {
        let host = HostFeatures::detect();
        assert_eq!(backend_from_env(None, host), Ok(host.best()));
        assert_eq!(backend_from_env(Some("scalar"), host), Ok(Backend::Scalar));
        let avx2 = backend_from_env(Some("AVX2 "), host);
        if Backend::Avx2.is_supported() {
            assert_eq!(avx2, Ok(Backend::Avx2));
        } else {
            assert!(avx2.unwrap_err().contains("not supported"));
        }
        for bad in ["sse2", "scalr", "", "avx2,scalar"] {
            let err = backend_from_env(Some(bad), host).unwrap_err();
            assert!(err.contains("unknown backend"), "{bad:?}: {err}");
        }
    }

    /// The avx2 tier is compiled `avx2,fma`, so a host needs both: one that
    /// reports AVX2 without FMA gets the scalar tier by default, and a
    /// forced `AASD_KERNEL=avx2` on it fails closed instead of dying of
    /// SIGILL on the first `vfmadd`.
    #[test]
    fn avx2_tier_requires_fma() {
        let feats = |avx2, fma| HostFeatures { avx2, fma };
        assert_eq!(feats(true, true).best(), Backend::Avx2);
        for (avx2, fma) in [(true, false), (false, true), (false, false)] {
            let host = feats(avx2, fma);
            assert!(!host.runs(Backend::Avx2), "avx2={avx2} fma={fma}");
            assert!(host.runs(Backend::Scalar));
            assert_eq!(host.best(), Backend::Scalar);
            assert_eq!(backend_from_env(None, host), Ok(Backend::Scalar));
            let err = backend_from_env(Some("avx2"), host).unwrap_err();
            assert_eq!(err, "AASD_KERNEL=avx2: backend not supported on this host");
        }
    }

    /// The one-row product — the tile at `m = 1` on every tier, and
    /// `vecmat_into` / `vecmat_acc_into` on the process tier — is **bitwise**
    /// the naive loop on every tail shape, so the tier cannot move a logit.
    #[test]
    fn vecmat_simd_matches_scalar_bitwise_on_tail_shapes() {
        let mut rng = Rng::new(0x51D);
        for &k in &TAIL_DIMS {
            for &n in &TAIL_DIMS {
                let x: Vec<f32> = (0..k).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let w: Vec<f32> = (0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let y0: Vec<f32> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let mut y_ref = y0.clone();
                naive_acc(&mut y_ref, &x, &w, k, n);
                for bk in supported() {
                    let mut y = y0.clone();
                    matmul_acc_with(bk, &mut y, &x, &w, 1, k, n);
                    assert_eq!(bits(&y), bits(&y_ref), "{} at k={k} n={n}", bk.name());
                }
                let mut y = y0.clone();
                crate::vecmat_acc_into(&mut y, &x, &w, k, n);
                assert_eq!(bits(&y), bits(&y_ref), "vecmat_acc at k={k} n={n}");
                let mut y_into_ref = vec![0.0; n];
                naive_acc(&mut y_into_ref, &x, &w, k, n);
                crate::vecmat_into(&mut y, &x, &w, k, n);
                assert_eq!(bits(&y), bits(&y_into_ref), "vecmat at k={k} n={n}");
            }
        }
    }

    /// The multi-row kernel contract, exhaustively: on every supported tier
    /// (through the explicit-backend entries, not the process-global one),
    /// for every row count 1..=33 and shapes covering k tails, n below / off
    /// / on the tile and panel widths (ragged last panels, sub-panel
    /// matrices, the half panels the scalar tier's 8-wide tile reads), the LM
    /// head's width and the Sim7B / Sim13B projections, the tiled kernel is
    /// **bitwise** the naive triple loop — over the row-major matrix and over
    /// its packed panels, `_into` and `_acc` forms — so every tier is
    /// bitwise every other, and in the `_into` form the public
    /// `matmul_naive_into` is the same loop. (The two largest Sim shapes take the
    /// row counts the decoder runs plus the tile-split edges instead of all
    /// 33: a debug build spends 50 ns per MAC here.)
    #[test]
    fn tile_bitwise_equals_rowwise_vecmat_on_every_tier() {
        const MAX_M: usize = 33;
        // `aasd_data::VOCAB`: the LM head is `dim × 32`, two whole panels.
        const VOCAB: usize = 32;
        let mut rng = Rng::new(0x711E);
        let mut random =
            |len: usize| -> Vec<f32> { (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect() };
        let mut shapes = vec![(128, 128), (128, 256), (192, 384), (27, 48)];
        for k in [1, 3, 4, 5, 67] {
            for n in [1, 5, 7, 8, 9, 15, 16, 17, 31, 33] {
                shapes.push((k, n));
            }
        }
        for k in [1, 3, 192] {
            for n in [1, 15, 16, 17, 40, 192, VOCAB] {
                shapes.push((k, n));
            }
        }
        for (k, n) in shapes {
            let (a, b, c0) = (random(MAX_M * k), random(k * n), random(MAX_M * n));
            let panels = pack_panels(&b, k, n);
            let ms: Vec<usize> = if k * n <= 192 * 192 {
                (1..=MAX_M).collect()
            } else {
                vec![2, 4, 6, 7, 13, 32, 33]
            };
            for acc in [false, true] {
                let start = |m: usize| {
                    if acc {
                        c0[..m * n].to_vec()
                    } else {
                        vec![0.0; m * n]
                    }
                };
                // Rows of a product do not depend on m, so the first m rows
                // of the 33-row reference serve every m.
                let mut want = start(MAX_M);
                naive_acc(&mut want, &a, &b, k, n);
                let want = bits(&want);
                if !acc {
                    let mut naive = vec![0.0; MAX_M * n];
                    crate::matmul_naive_into(&mut naive, &a, &b, MAX_M, k, n);
                    assert_eq!(bits(&naive), want, "naive_into != naive at k={k} n={n}");
                }
                for bk in supported() {
                    for &m in &ms {
                        let mut c = start(m);
                        matmul_acc_with(bk, &mut c, &a[..m * k], &b, m, k, n);
                        assert_eq!(
                            bits(&c),
                            want[..m * n],
                            "{} tiled != naive at m={m} k={k} n={n} acc={acc}",
                            bk.name()
                        );
                        let mut c = start(m);
                        matmul_packed_acc_with(bk, &mut c, &a[..m * k], &panels, m, k, n);
                        assert_eq!(
                            bits(&c),
                            want[..m * n],
                            "{} packed != naive at m={m} k={k} n={n} acc={acc}",
                            bk.name()
                        );
                    }
                }
            }
        }
    }

    /// The rounding itself, not just the agreement: with `h = 1 + 2⁻¹²`,
    /// `h·h = 1 + 2⁻¹¹ + 2⁻²⁴` exactly, and against `c = −(1 + 2⁻¹¹)` a
    /// fused multiply-add keeps the `2⁻²⁴` that multiply-then-add rounds
    /// away (the product's last bit is a tie that goes to even). On every
    /// tier, every f32 product path — the tile at m 1..=7 over the row-major
    /// matrix and over its panels (m = 1 is vecmat), and the naive loop; `_acc` from
    /// `C = c`, `_into` with the `c` term at `k = 0` — must return exactly
    /// `2⁻²⁴`, wherever the `h·h` term sits in `k` (unrolled body or tail)
    /// and `j` (full strip, partial strip, SIMD tail). Every bitwise test
    /// above also passes if all paths regress to multiply-then-add
    /// together; this one does not.
    #[test]
    fn tile_rounds_once_per_term_on_every_tier() {
        let h = 1.0 + 2f32.powi(-12);
        let c = -(1.0 + 2f32.powi(-11));
        let want = 2f32.powi(-24);
        assert_eq!(c + h * h, 0.0, "multiply-then-add must lose the term");
        assert_eq!(h.mul_add(h, c), want, "a fused multiply-add keeps it");
        let check = |got: &[f32], what: &str| {
            for (j, v) in got.iter().enumerate() {
                assert_eq!(v.to_bits(), want.to_bits(), "{what}: element {j} is {v:e}");
            }
        };
        for k in 1..=6 {
            for p in 0..k {
                for n in [1, 7, 8, 9, 16, 17, 33] {
                    // One row of A and the matrix B: `h` at `k = p`, and for
                    // the `_into` form (`lead`) the `c·1` term at `k = 0`.
                    let operands = |lead: bool| {
                        let mut x = vec![0.0f32; k];
                        let mut b = vec![0.0f32; k * n];
                        x[p] = h;
                        b[p * n..(p + 1) * n].fill(h);
                        if lead {
                            x[0] = c;
                            b[..n].fill(1.0);
                        }
                        (x, b)
                    };
                    // The `_into` form needs `k = 0` free for the `c` term.
                    for lead in [false, true].into_iter().filter(|&lead| !lead || p > 0) {
                        let (x, b) = operands(lead);
                        let panels = pack_panels(&b, k, n);
                        let start = |len: usize| vec![if lead { 0.0 } else { c }; len];
                        let what = |path: &str, bk: &str, m: usize| {
                            format!("{path} {bk} m={m} k={k} p={p} n={n} lead={lead}")
                        };
                        if lead {
                            let a = x.repeat(7);
                            let mut naive = vec![0.0; 7 * n];
                            crate::matmul_naive_into(&mut naive, &a, &b, 7, k, n);
                            check(&naive, &what("naive", "-", 7));
                        }
                        for bk in supported() {
                            for m in 1..=7 {
                                let a = x.repeat(m);
                                let mut cm = start(m * n);
                                matmul_acc_with(bk, &mut cm, &a, &b, m, k, n);
                                check(&cm, &what("tile", bk.name(), m));
                                let mut cm = start(m * n);
                                matmul_packed_acc_with(bk, &mut cm, &a, &panels, m, k, n);
                                check(&cm, &what("packed tile", bk.name(), m));
                            }
                        }
                    }
                }
            }
        }
    }

    /// The panel image itself: element `(kk, j)` of the matrix sits at
    /// `[j / 16][kk][j % 16]`, the last panel's spare columns are `+0.0`, and
    /// a matrix with no rows or no columns packs to whole (empty) panels.
    #[test]
    fn tile_pack_panels_layout_and_padding() {
        for (k, n) in [(3usize, 40usize), (5, 16), (2, 1), (0, 7), (4, 0)] {
            let b: Vec<f32> = (0..k * n).map(|i| i as f32 + 1.0).collect();
            let panels = pack_panels(&b, k, n);
            assert_eq!(panels.len(), n.div_ceil(PANEL) * k * PANEL);
            for (i, v) in panels.iter().enumerate() {
                let (p, kk, lane) = (i / (k * PANEL), i / PANEL % k, i % PANEL);
                let j = p * PANEL + lane;
                let want = if j < n { b[kk * n + j] } else { 0.0 };
                assert_eq!(
                    v.to_bits(),
                    want.to_bits(),
                    "k={k} n={n} panel {p} row {kk}"
                );
            }
        }
    }

    /// The dot product and the sum of squares (`dot(x, x)`, what the norm
    /// runs) are **bitwise** the scalar tier's on every tier.
    #[test]
    fn dot_and_sum_squares_agree_across_backends_within_tolerance() {
        let mut rng = Rng::new(0xD07);
        for &n in &TAIL_DIMS {
            let a: Vec<f32> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let b: Vec<f32> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let d_ref = dot_with(Backend::Scalar, &a, &b);
            let s_ref = dot_with(Backend::Scalar, &a, &a);
            for bk in supported() {
                let d = dot_with(bk, &a, &b);
                assert_eq!(d.to_bits(), d_ref.to_bits(), "{} n={n}", bk.name());
                let s = dot_with(bk, &a, &a);
                assert_eq!(s.to_bits(), s_ref.to_bits(), "{} n={n}", bk.name());
            }
        }
    }

    /// The batched attention kernels must be **bit-identical** on every tier
    /// to per-position loops — `dot_with` on the scalar tier for the scores,
    /// the scalar `y += w·v` for the mix — over
    /// tail head dims, tail position counts, and a strided slab (head offset
    /// inside a wider cache row).
    #[test]
    fn attn_kernels_match_per_position_loops() {
        let mut rng = Rng::new(0xA77);
        for &d in &[1usize, 3, 7, 8, 9, 16, 31, 32, 33, 63, 64, 65, 96] {
            for &l in &[0usize, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33] {
                let stride = d + 5; // head carved out of a wider cache row
                let q: Vec<f32> = (0..d).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let slab: Vec<f32> = (0..l.max(1) * stride)
                    .map(|_| rng.uniform(-1.0, 1.0))
                    .collect();
                let w: Vec<f32> = (0..l).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let out0: Vec<f32> = (0..d).map(|_| rng.uniform(-1.0, 1.0)).collect();
                let scale = 0.37f32;
                for bk in supported() {
                    let mut scores = vec![0.0f32; l];
                    attn_scores_with(bk, &mut scores, &q, &slab, stride, scale);
                    for j in 0..l {
                        let row = &slab[j * stride..j * stride + d];
                        let want = dot_with(Backend::Scalar, &q, row) * scale;
                        assert_eq!(
                            scores[j].to_bits(),
                            want.to_bits(),
                            "{} scores d={d} l={l} j={j}",
                            bk.name()
                        );
                    }
                    let mut out = out0.clone();
                    attn_mix_with(bk, &mut out, &w, &slab, stride);
                    let mut want = out0.clone();
                    for j in 0..l {
                        axpy_scalar(&mut want, w[j], &slab[j * stride..j * stride + d]);
                    }
                    for e in 0..d {
                        assert_eq!(
                            out[e].to_bits(),
                            want[e].to_bits(),
                            "{} mix d={d} l={l} e={e}",
                            bk.name()
                        );
                    }
                }
            }
        }
    }

    /// Softmax is **bitwise** the scalar tier's on every tier.
    #[test]
    fn softmax_agrees_across_backends() {
        let mut rng = Rng::new(0x50F);
        for &n in &TAIL_DIMS {
            let base: Vec<f32> = (0..n).map(|_| rng.uniform(-8.0, 8.0)).collect();
            let mut p_ref = base.clone();
            softmax_row_with(Backend::Scalar, &mut p_ref);
            let sum: f32 = p_ref.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "n={n} sum={sum}");
            for bk in supported() {
                let mut p = base.clone();
                softmax_row_with(bk, &mut p);
                assert_eq!(bits(&p), bits(&p_ref), "{} n={n}", bk.name());
            }
        }
    }

    /// Satellite: the uniform fallback is one shared helper — feed an
    /// all-`-inf` row through **every** dispatch path and require the
    /// identical uniform answer (and argmax, one scan on every tier, → index
    /// 0).
    #[test]
    fn all_neg_inf_rows_take_shared_uniform_fallback_on_every_backend() {
        for n in [1usize, 7, 8, 16, 33] {
            for bk in supported() {
                let mut row = vec![f32::NEG_INFINITY; n];
                softmax_row_with(bk, &mut row);
                for &v in &row {
                    assert_eq!(v, 1.0 / n as f32, "{} n={n}", bk.name());
                }
            }
            assert_eq!(crate::argmax(&vec![f32::NEG_INFINITY; n]), 0, "n={n}");
        }
    }

    /// Argmax (one first-max scan on every tier) is the first index holding
    /// the row's maximum, ties included.
    #[test]
    fn argmax_matches_scalar_and_breaks_ties_low() {
        let mut rng = Rng::new(0xA44);
        for trial in 0..40 {
            let n = 1 + rng.below(70);
            let mut row: Vec<f32> = (0..n).map(|_| rng.uniform(-4.0, 4.0)).collect();
            if trial % 3 == 0 && n >= 4 {
                // Force a tie to pin the low-index break.
                let v = row[n / 3];
                row[2 * n / 3] = v;
            }
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let want = row.iter().position(|&v| v == max).unwrap();
            assert_eq!(crate::argmax(&row), want, "n={n}");
        }
    }

    /// Satellite: the NaN debug-assert guards the one argmax every tier
    /// runs, at a position past the first 16 lanes too.
    #[cfg(debug_assertions)]
    #[test]
    fn argmax_rejects_nan_on_every_backend() {
        let mut row = vec![0.25f32; 24];
        row[17] = f32::NAN;
        let r = std::panic::catch_unwind(|| crate::argmax(&row));
        assert!(r.is_err(), "argmax accepted a NaN row");
    }

    /// SwiGLU is **bitwise** the scalar tier's on every tier.
    #[test]
    fn silu_mul_agrees_across_backends() {
        let mut rng = Rng::new(0x517);
        for &n in &TAIL_DIMS {
            let gate: Vec<f32> = (0..n).map(|_| rng.uniform(-6.0, 6.0)).collect();
            let up: Vec<f32> = (0..n).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let mut want = gate.clone();
            silu_mul_with(Backend::Scalar, &mut want, &up);
            for bk in supported() {
                let mut got = gate.clone();
                silu_mul_with(bk, &mut got, &up);
                assert_eq!(bits(&got), bits(&want), "{} n={n}", bk.name());
            }
        }
    }

    /// RMS norm is **bitwise** the scalar tier's on every tier.
    #[test]
    fn rms_norm_agrees_across_backends() {
        let mut rng = Rng::new(0x4A5);
        for &n in &TAIL_DIMS {
            let x: Vec<f32> = (0..n).map(|_| rng.uniform(-3.0, 3.0)).collect();
            let gain: Vec<f32> = (0..n).map(|_| rng.uniform(0.5, 1.5)).collect();
            let mut want = vec![0.0; n];
            rms_norm_row_with(Backend::Scalar, &x, &gain, 1e-5, &mut want);
            for bk in supported() {
                let mut got = vec![0.0; n];
                rms_norm_row_with(bk, &x, &gain, 1e-5, &mut got);
                assert_eq!(bits(&got), bits(&want), "{} n={n}", bk.name());
            }
        }
    }

    /// The polynomial exp inside softmax (both tiers run it on full 8-blocks)
    /// must track `f32::exp` closely over the softmax input range
    /// (x - max ≤ 0).
    #[test]
    fn avx2_softmax_exp_accuracy_over_range() {
        // Softmax of [x, 0 × 7]: p0 = e^x / (e^x + 7).
        for bk in supported() {
            for i in 0..200 {
                let x = -20.0 + 0.1 * i as f32;
                let mut row = vec![x, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
                softmax_row_with(bk, &mut row);
                let want = x.exp() / (x.exp() + 7.0);
                assert!(
                    (row[0] - want).abs() < 1e-6,
                    "{} softmax exp drift at x={x}: {} vs {want}",
                    bk.name(),
                    row[0]
                );
            }
        }
    }
}
