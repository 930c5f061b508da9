//! Runtime-dispatched SIMD kernels (AVX-512 / AVX2 / scalar) for the decode
//! hot path.
//!
//! One [`Backend`] is selected process-wide the first time [`backend`] is
//! queried: the `AASD_KERNEL` env var (`scalar` | `avx2` | `avx512`) when
//! set, otherwise the best path the CPU reports. A value that names no tier,
//! or a tier the host cannot run, is a hard error (a panic on that first
//! query) — a typo must not run one tier under another's label. The choice
//! then holds for the life of the process; code that must run a given tier
//! (the cross-tier tests, `--bench matmul`) calls the explicit `*_with`
//! entries instead.
//!
//! Determinism contract: every kernel gives the same bits on every tier,
//! because every kernel is one source compiled for each; the tier a process
//! runs on moves no output bit.
//!
//! The f32 multi-row tile (`matmul_tile`) vectorizes across the *output*
//! dimension and gives every output element the sequence `acc = fma(a, b,
//! acc)` for `k = 0, 1, 2, …` — one fused multiply-add per term (one
//! rounding, never a separate multiply and add), no term skipped — so a row
//! of a multi-row product is bit-identical to the one-row product of that
//! row (`vecmat` is the tile at one row): a row gets the same bits in a
//! block of any size. A fused multiply-add is correctly rounded wherever it
//! runs — `vfmadd` on the avx2 and avx512 tiers (compiled `avx2,fma` and
//! `avx512f,avx2,fma`, selected only on hosts reporting those features),
//! `f32::mul_add` on the scalar tier — so the tiers agree as long as the
//! k-order does. The tile is one generic source compiled plainly (scalar
//! tier: 6 rows × 8 columns), under `avx2,fma` (6 × 16) and, for products of
//! two or more rows on the avx512 tier, under `avx512f,avx2,fma` (8 × 32: two
//! adjacent 16-column strips, one `zmm` per row and strip), over `B` stored
//! row-major or as tile-major panels ([`pack_panels`]); a one-row product
//! takes four strips per tile instead (1 × 32 on the scalar tier, 1 × 64
//! under `avx2,fma` — the avx512 tier's one-row code too: eight accumulator
//! chains, not two), and every tile prefetches its stream of `B` a fixed
//! distance ahead of its loads. Its shape, the layout and the prefetch
//! change which elements share a register, where an operand is loaded from
//! and when its line arrives, never an element's arithmetic.
//!
//! The f32 lane kernels ([`dot_with`], [`attn_scores_with`],
//! [`matmul_nt_with`], [`attn_mix_with`], [`softmax_row_with`],
//! [`silu_mul_with`], the f32 side of [`quantize_row_i8_with`]) are one
//! source each, generic over an eight-lane type (`lanes`): `[f32; 8]`, whose
//! methods do lane by lane what the AVX2 instructions do, NaN included, and
//! an `__m256` newtype compiled `avx2,fma`, which the avx512 tier runs too.
//! Reductions keep eight lane sums, each term one multiply then one add,
//! combined in one fixed tree, then the tail in sequence; `exp` is a Cephes
//! polynomial on full 8-blocks and libm `exp` on the tail. The two score
//! entries share one register-blocked kernel (`score_block`): `MR` rows of
//! one operand against `R` rows of the other, `MR × R` such reductions side
//! by side — 1 × 8 for a query against its keys, 4 × 3 for `A·Bᵀ` — each
//! with [`dot_with`]'s bits.
//!
//! The int8 kernels accumulate in `i32`, which is exact and associative, so
//! the int8 register tile (`matmul_q8_tile`, over int8 panels — see
//! [`crate::quant`]) is bit-identical on every tier, at every row count and
//! under any tiling, to the scalar i32 dot loop that
//! `tile_q8_bitwise_equals_scalar_dot_on_every_tier` holds it to; the
//! avx512 tier runs the avx2 tier's int8 tile.
//!
//! There is no hand-written 128-bit tier: rustc already vectorises the
//! scalar kernels with the x86_64 baseline's 4-lane instructions, and a tier
//! of 4-lane intrinsics measured within run-to-run noise of them
//! (EXPERIMENTS.md § PR 20).

mod lanes;

use lanes::F32x8;
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
    /// The avx2 tier with its multi-row f32 tile on 16-lane `__m512`
    /// registers (runtime-detected: needs `avx512f`, `avx2` and `fma`).
    Avx512,
}

impl Backend {
    /// Every tier, slowest first.
    pub const ALL: [Backend; 3] = [Backend::Scalar, Backend::Avx2, Backend::Avx512];

    /// Stable lowercase name (also the accepted `AASD_KERNEL` values).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }

    /// Parse a backend name (case-insensitive, surrounding space ignored).
    pub fn from_name(name: &str) -> Option<Backend> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "avx2" => Some(Backend::Avx2),
            "avx512" => Some(Backend::Avx512),
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
    avx512f: bool,
}

impl HostFeatures {
    fn detect() -> HostFeatures {
        #[cfg(target_arch = "x86_64")]
        {
            HostFeatures {
                avx2: std::arch::is_x86_feature_detected!("avx2"),
                fma: std::arch::is_x86_feature_detected!("fma"),
                avx512f: std::arch::is_x86_feature_detected!("avx512f"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            HostFeatures {
                avx2: false,
                fma: false,
                avx512f: false,
            }
        }
    }

    /// Whether these features run `b`. The avx2 tier's kernels are compiled
    /// `avx2,fma` — its f32 tile and vecmat are `vfmadd` — so a host that
    /// reports AVX2 without FMA (some VMs mask it) must not select it: it
    /// would die of SIGILL on the first projection. The avx512 tier runs the
    /// avx2 tier's kernels beside its own `avx512f` tile, so it needs all
    /// three. Pure so the rule is unit-testable on any host.
    fn runs(self, b: Backend) -> bool {
        match b {
            Backend::Scalar => true,
            Backend::Avx2 => self.avx2 && self.fma,
            Backend::Avx512 => self.avx512f && self.avx2 && self.fma,
        }
    }

    /// The fastest backend these features run.
    fn best(self) -> Backend {
        let mut tiers = Backend::ALL.into_iter().rev();
        tiers.find(|&b| self.runs(b)).unwrap_or(Backend::Scalar)
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
            "AASD_KERNEL={raw}: unknown backend (expected scalar|avx2|avx512)"
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
// The f32 matmul tile.
// ---------------------------------------------------------------------------

/// `C += A·B` (`A: m×k`, `B: k×n`, `C: m×n`, row-major) through an explicit
/// backend: the kernel behind [`crate::matmul_blocked_into`] and, at one
/// row, [`crate::vecmat_into`]. Every row has the bits of the one-row
/// product of that row, on every backend (see module docs).
///
/// # Panics
/// When a slice's length does not match its shape.
pub fn matmul_acc_with(
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
        Backend::Avx512 if m > 1 => unsafe { matmul_acc_avx512::<false>(c, a, b, m, k, n) },
        // One row stays on the 256-bit four-strip tile on the avx512 tier,
        // so one-row steps run the avx2 tier's code unchanged.
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => unsafe { matmul_acc_avx2::<false>(c, a, b, m, k, n) },
        // Two 4-lane vectors per row on the x86_64 baseline: six rows fill
        // 12 of the 16 xmm registers.
        _ => matmul_acc_tiled::<8, false>(c, a, b, m, k, n),
    }
}

/// Output columns per packed panel: the widest strip (AVX2 two 8-lane
/// vectors, AVX-512 one 16-lane vector). The scalar tier's 8-wide tile reads
/// half panels; the avx512 tier's tile reads two panels side by side.
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
///
/// # Panics
/// When a slice's length does not match its shape.
pub fn matmul_packed_acc_with(
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
        Backend::Avx512 if m > 1 => unsafe { matmul_acc_avx512::<true>(c, a, panels, m, k, n) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 | Backend::Avx512 => unsafe {
            matmul_acc_avx2::<true>(c, a, panels, m, k, n)
        },
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

/// # Safety
/// The host must support AVX-512F, AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn matmul_acc_avx512<const PACKED: bool>(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    matmul_acc_wide::<PACKED>(c, a, b, m, k, n)
}

/// Rows of `C` per register tile: with `NR` = two vectors, 6 rows keep 12
/// accumulators live and leave registers for the two shared `B` vectors and
/// the broadcast `A` value out of 16.
const TILE_ROWS: usize = 6;

/// Full strips a one-row tile takes at once: one row of one strip keeps only
/// two accumulator chains (one per vector) against the multiply-add's
/// 4-cycle latency, four strips keep eight (four on the scalar tier's 8-wide
/// strips).
const ROW_STRIPS: usize = 4;

/// Adjacent full 16-column strips a tile of the avx512 tier takes at once:
/// with [`WIDE_ROWS`], 16 accumulators of 16 lanes, one `zmm` each, of the
/// 32. Tuned against 3 strips and 6 rows on the footprint sweep (see the
/// `avx512` kernel tier in EXPERIMENTS.md): 3 strips leave a leftover strip
/// on every Sim7B `dim` projection and lose at 4–6 rows, 6 rows lose at 16
/// and 32.
const WIDE_STRIPS: usize = 2;

/// Most rows of an avx512 tile.
const WIDE_ROWS: usize = 8;

/// How many `k` steps ahead of its loads the tile prefetches each strip's
/// stream of `B`: 2 KiB ahead in a panel (64 bytes a step). Tuned over
/// {16, 32, 64} on whole 2 MB, 7 MB and 118 MB weight sets at 1, 4, 6 and
/// 32 rows (EXPERIMENTS.md § PR 48): 64 gains more at 4 and 6 rows out of
/// L3 but loses the one-row gain on the two Sim sets, 16 gains least at
/// 4 and 6 rows.
const PREFETCH_STEPS: usize = 32;

/// The tiled loop nest, generic over the tile width and over where `B`
/// lives (`PACKED`: [`pack_panels`] image, else row-major) so one source
/// serves every tier and both layouts (`#[inline(always)]`: it is compiled
/// with the caller's target features). Column strips are the outer loop, so
/// a strip of `B` (`k × NR` floats) stays in L1 while every row tile passes
/// over it. A one-row product takes its full strips [`ROW_STRIPS`] at a time;
/// its leftover full strips and the partial strip run the strip path.
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
    let mut j0 = 0;
    if m == 1 {
        let (_, stride) = strip_at::<NR, PACKED>(0, k, n);
        while j0 + ROW_STRIPS * NR <= n_full {
            let mut offs = [0; ROW_STRIPS];
            for (s, off) in offs.iter_mut().enumerate() {
                *off = strip_at::<NR, PACKED>(j0 + s * NR, k, n).0;
            }
            matmul_tile::<1, NR, ROW_STRIPS>(&mut c[j0..], n, NR, a, k, b, offs, stride);
            j0 += ROW_STRIPS * NR;
        }
    }
    matmul_strips_from::<NR, PACKED>(c, a, b, m, k, n, j0);
}

/// The avx512 tier's multi-row loop nest (`#[inline(always)]` into its
/// `avx512f` wrapper): the full 16-column strips [`WIDE_STRIPS`] at a time,
/// every row tile of up to [`WIDE_ROWS`] rows over each group — so one
/// tile row spans `WIDE_STRIPS` `zmm` vectors — then the leftover full
/// strips and the partial strip on the strip path.
#[inline(always)]
fn matmul_acc_wide<const PACKED: bool>(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    const NR: usize = PANEL;
    let n_full = n - n % NR;
    let (_, stride) = strip_at::<NR, PACKED>(0, k, n);
    let mut j0 = 0;
    while j0 + WIDE_STRIPS * NR <= n_full {
        let mut offs = [0; WIDE_STRIPS];
        for (s, off) in offs.iter_mut().enumerate() {
            *off = strip_at::<NR, PACKED>(j0 + s * NR, k, n).0;
        }
        row_tiles::<NR, WIDE_STRIPS, WIDE_ROWS>(&mut c[j0..], a, b, m, k, n, NR, offs, stride);
        j0 += WIDE_STRIPS * NR;
    }
    matmul_strips_from::<NR, PACKED>(c, a, b, m, k, n, j0);
}

/// The strip path for the columns from `j0` on: one full strip at a time,
/// then the partial one.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn matmul_strips_from<const NR: usize, const PACKED: bool>(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    mut j0: usize,
) {
    let n_full = n - n % NR;
    while j0 < n_full {
        // The literal width lets the full-strip copy of the tile drop its
        // partial-width loads.
        matmul_strip::<NR, PACKED>(c, a, b, m, k, n, j0, NR);
        j0 += NR;
    }
    if n_full < n {
        matmul_strip::<NR, PACKED>(c, a, b, m, k, n, n_full, n - n_full);
    }
}

/// Where the strip at column `j0` has its `k = 0` elements in `b` and how
/// far apart its `k` steps are. A strip never straddles panels: both tile
/// widths divide the panel width.
#[inline(always)]
fn strip_at<const NR: usize, const PACKED: bool>(j0: usize, k: usize, n: usize) -> (usize, usize) {
    if PACKED {
        const { assert!(PANEL.is_multiple_of(NR)) };
        (j0 / PANEL * k * PANEL + j0 % PANEL, PANEL)
    } else {
        (j0, n)
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
    let (off, stride) = strip_at::<NR, PACKED>(j0, k, n);
    row_tiles::<NR, 1, TILE_ROWS>(&mut c[j0..], a, b, m, k, n, w, [off], stride);
}

/// Every row of `A` against the `S` strips at `offs`, tile by tile (`c`
/// starts at the strips' first column). Rows split evenly over the fewest
/// tiles of at most `MAX_MR` rows (7 → 4 + 3, not 6 + 1): a one- or two-row
/// tile has too few independent accumulators to hide the multiply-add
/// latency.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn row_tiles<const NR: usize, const S: usize, const MAX_MR: usize>(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    w: usize,
    offs: [usize; S],
    stride: usize,
) {
    let mut tiles = m.div_ceil(MAX_MR);
    let mut i0 = 0;
    while i0 < m {
        let mr = (m - i0).div_ceil(tiles);
        let c_t = &mut c[i0 * n..];
        let a_t = &a[i0 * k..(i0 + mr) * k];
        // The guarded arms exist only where `MAX_MR` admits their count.
        match mr {
            1 => matmul_tile::<1, NR, S>(c_t, n, w, a_t, k, b, offs, stride),
            2 => matmul_tile::<2, NR, S>(c_t, n, w, a_t, k, b, offs, stride),
            3 => matmul_tile::<3, NR, S>(c_t, n, w, a_t, k, b, offs, stride),
            4 => matmul_tile::<4, NR, S>(c_t, n, w, a_t, k, b, offs, stride),
            5 => matmul_tile::<5, NR, S>(c_t, n, w, a_t, k, b, offs, stride),
            6 if MAX_MR > 6 => matmul_tile::<6, NR, S>(c_t, n, w, a_t, k, b, offs, stride),
            7 if MAX_MR > 7 => matmul_tile::<7, NR, S>(c_t, n, w, a_t, k, b, offs, stride),
            _ => matmul_tile::<MAX_MR, NR, S>(c_t, n, w, a_t, k, b, offs, stride),
        }
        i0 += mr;
        tiles -= 1;
    }
}

/// The micro-kernel: an `MR × S·w` tile of `C` (`c` starts at its first
/// element, rows `n` apart; `S` adjacent strips, all full when `S > 1`)
/// lives in `acc` for the whole `k` loop; each step loads one `B` vector
/// per strip — `b[offs[s] + kk·stride ..][..w]`, which is `(j0, n)`
/// addressing on a row-major matrix and `(panel start, 16)` on a packed one,
/// where the strips of a one-row tile are separate panels — shared by all
/// `MR` rows, and broadcasts one `A` value per row. Every element
/// accumulates `acc = fma(a, b, acc)` for `kk = 0, 1, 2, …` — one rounding
/// per term, no data-dependent skip — which is the naive loop's per-element
/// sequence; under `avx2,fma` the `mul_add` is a `vfmadd`, on the scalar
/// tier the same correctly rounded result from libm. Lanes `w..NR` of a
/// partial strip multiply zeros and are never stored. Each step also
/// prefetches every strip's line [`PREFETCH_STEPS`] steps ahead, so the
/// stream of `B` arrives under the multiply-adds instead of after them; a
/// prefetch moves no bit.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn matmul_tile<const MR: usize, const NR: usize, const S: usize>(
    c: &mut [f32],
    n: usize,
    w: usize,
    a: &[f32],
    k: usize,
    b: &[f32],
    offs: [usize; S],
    stride: usize,
) {
    assert_eq!(a.len(), MR * k);
    assert!(w == NR || (S == 1 && w < NR));
    for off in offs {
        assert!(k == 0 || off + (k - 1) * stride + w <= b.len());
    }
    let mut acc = [[[0.0f32; NR]; S]; MR];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        for (s, acc_rs) in acc_r.iter_mut().enumerate() {
            acc_rs[..w].copy_from_slice(&c[r * n + s * NR..][..w]);
        }
    }
    for kk in 0..k {
        let mut bv = [[0.0f32; NR]; S];
        for (bv_s, off) in bv.iter_mut().zip(offs) {
            let at = off + kk * stride;
            prefetch(b, at + PREFETCH_STEPS * stride);
            // SAFETY: kk ≤ k − 1, so the range ends at or before
            // off + (k − 1)·stride + w ≤ b.len() (asserted above).
            bv_s[..w].copy_from_slice(unsafe { b.get_unchecked(at..at + w) });
        }
        for (r, acc_r) in acc.iter_mut().enumerate() {
            // SAFETY: r < MR and kk < k, so r·k + kk < MR·k = a.len()
            // (asserted above).
            let av = unsafe { *a.get_unchecked(r * k + kk) };
            for (acc_rs, bv_s) in acc_r.iter_mut().zip(&bv) {
                for (cv, bj) in acc_rs.iter_mut().zip(bv_s) {
                    *cv = av.mul_add(*bj, *cv);
                }
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        for (s, acc_rs) in acc_r.iter().enumerate() {
            c[r * n + s * NR..][..w].copy_from_slice(&acc_rs[..w]);
        }
    }
}

/// Ask for the cache line holding `b[at]` (`_MM_HINT_T0`). The address is
/// formed with `wrapping_add` and may lie past `b`'s end — the last steps of
/// a panel reach into the next panel, the last panel's past the matrix —
/// which is harmless: a prefetch reads nothing architecturally and never
/// faults, and a prefetch past the panel reached the next strip's stream
/// early. Stopping at the panel's end instead measured slower (EXPERIMENTS.md
/// § PR 48). A no-op off x86_64.
#[inline(always)]
fn prefetch(b: &[f32], at: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is SSE, in the x86_64 baseline, and dereferences
    // nothing, whatever the address.
    unsafe {
        _mm_prefetch::<_MM_HINT_T0>(b.as_ptr().wrapping_add(at).cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (b, at);
}

/// What every f32 lane entry does once its operands are checked: lane kernel
/// `$k` over `lanes::Avx2` in its `avx2,fma` wrapper (on the avx2 and avx512
/// tiers alike), or over `[f32; 8]`.
macro_rules! dispatch {
    ($bk:expr, $k:ident($($arg:expr),*)) => {
        match $bk {
            // SAFETY: as in `matmul_acc_with`.
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 | Backend::Avx512 => unsafe { avx2::$k($($arg),*) },
            _ => outlined(|| $k::<[f32; 8]>($($arg),*)),
        }
    };
}

/// `f()` out of line: inlined into an entry, a scalar kernel's register saves
/// would slow every short AVX2-tier call by about a tenth.
#[inline(never)]
fn outlined<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// Dot product through an explicit backend (lane-parallel reduction order,
/// the same bits on every tier).
///
/// # Panics
/// When `a` and `b` differ in length.
#[inline]
pub fn dot_with(bk: Backend, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot operands must have one length");
    dispatch!(bk, dot(a, b))
}

/// `scores[j] = (q · keys[j·stride .. j·stride+d]) * scale` for every `j`,
/// where `d = q.len()`. `keys` is a row-major slab whose rows are `stride`
/// floats apart (the KV cache with the head offset already applied). Every
/// score has the bits of [`dot_with`] times `scale`.
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
        let need = last.checked_mul(stride).and_then(|n| n.checked_add(d));
        assert!(
            need.is_some_and(|n| keys.len() >= n),
            "keys slab too short for {} strided rows",
            scores.len()
        );
    }
    dispatch!(bk, attn_scores(scores, q, keys, stride, scale))
}

/// `out = A·Bᵀ` (`A: m×k`, `B: n×k`, `out: m×n`, row-major) through an
/// explicit backend: `out[i·n + j]` has the bits of [`dot_with`]`(bk, a_i,
/// b_j)` on every tier. Rows of both operands are contiguous, so no
/// transpose is built; the register-blocked score kernel that runs
/// [`attn_scores_with`] computes four rows against three at a time.
///
/// # Panics
/// When a slice's length does not match its shape.
pub fn matmul_nt_with(
    bk: Backend,
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "A must be m×k");
    assert_eq!(b.len(), n * k, "B must be n×k");
    assert_eq!(out.len(), m * n, "out must be m×n");
    dispatch!(bk, matmul_nt(out, a, b, m, k, n))
}

/// `out[e] += Σ_j weights[j] · values[j·stride + e]` with the j-sum taken in
/// index order, each term one multiply then one add.
pub fn attn_mix_with(bk: Backend, out: &mut [f32], weights: &[f32], values: &[f32], stride: usize) {
    let d = out.len();
    debug_assert!(d <= stride, "head rows must fit inside the cache stride");
    if let Some(last) = weights.len().checked_sub(1) {
        let need = last.checked_mul(stride).and_then(|n| n.checked_add(d));
        assert!(
            need.is_some_and(|n| values.len() >= n),
            "values slab too short for {} strided rows",
            weights.len()
        );
    }
    dispatch!(bk, attn_mix(out, weights, values, stride))
}

/// In-place softmax through an explicit backend. A fully-masked row (its
/// maximum `-inf`) becomes the uniform distribution instead of `0/0 = NaN`
/// everywhere.
pub fn softmax_row_with(bk: Backend, row: &mut [f32]) {
    dispatch!(bk, softmax(row))
}

/// Fused SwiGLU elementwise kernel: `gate[i] = silu(gate[i]) * up[i]`.
#[inline]
pub fn silu_mul(gate: &mut [f32], up: &[f32]) {
    silu_mul_with(backend(), gate, up);
}

/// [`silu_mul`] through an explicit backend.
pub fn silu_mul_with(bk: Backend, gate: &mut [f32], up: &[f32]) {
    assert_eq!(gate.len(), up.len());
    dispatch!(bk, swiglu(gate, up))
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

/// Absmax-quantize one row to codes in `[-127, 127]`, returning the scale
/// `absmax / 127` (0.0 for an all-zero row); identical on every tier.
pub fn quantize_row_i8_with(bk: Backend, x: &[f32], q: &mut [i8]) -> f32 {
    assert_eq!(x.len(), q.len());
    dispatch!(bk, quantize(x, q))
}

/// Eight lane sums of `a[i]·b[i]`, each term one multiply then one add,
/// combined by `hsum`, then the tail in sequence (`a.len() == b.len()`).
#[inline(always)]
fn dot<V: F32x8>(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = V::splat(0.0);
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        acc = acc.add(V::read(x).mul(V::read(y)));
    }
    let full = a.len() - a.len() % 8;
    let mut s = acc.hsum();
    for (x, y) in a[full..].iter().zip(&b[full..]) {
        s += x * y;
    }
    s
}

/// Eight positions at a time, then the rest one at a time; every score is
/// `dot(q, row) * scale`.
#[inline(always)]
fn attn_scores<V: F32x8>(scores: &mut [f32], q: &[f32], keys: &[f32], stride: usize, scale: f32) {
    let (d, q, keys) = (q.len(), [q.as_ptr()], keys.as_ptr());
    // SAFETY: the entry asserted that `keys` holds `d` floats at every
    // score's row offset.
    unsafe {
        let j = score_block::<V, 1, 8>(scores, 0, q, keys, stride, d, scale);
        score_block::<V, 1, 1>(scores, j, q, keys, stride, d, scale);
    }
}

/// Four rows of `A` at a time against three rows of `B`, then one; the last
/// `m % 4` rows as [`attn_scores`] runs one query. Every output is
/// `dot(a_i, b_j)`: the block kernel's `× 1.0` is exact.
#[inline(always)]
fn matmul_nt<V: F32x8>(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let mut i = 0;
    while m - i >= 4 {
        let rows: [*const f32; 4] = std::array::from_fn(|r| a[(i + r) * k..].as_ptr());
        let block = &mut out[i * n..(i + 4) * n];
        // SAFETY: `rows` are the `k`-float rows `i .. i + 4` of `A`, and
        // the entry asserted that `B` holds `n` rows of `k` floats.
        unsafe {
            let j = score_block::<V, 4, 3>(block, 0, rows, b.as_ptr(), k, k, 1.0);
            score_block::<V, 4, 1>(block, j, rows, b.as_ptr(), k, k, 1.0);
        }
        i += 4;
    }
    for r in i..m {
        attn_scores::<V>(&mut out[r * n..][..n], &a[r * k..][..k], b, k, 1.0);
    }
}

/// The block kernel behind every score: `out` holds `MR` rows of `n =
/// out.len() / MR` outputs, and from column `j` on, in groups of `R`,
/// output `(r, c)` becomes `dot(a[r][..d], B_c) · scale`, where row `c` of
/// `B` is the `d` floats at `b + c·stride`. A group keeps `MR × R` eight-lane
/// chains; each chunk of an `a` row and of a `B` row is loaded once per
/// group. Every output has [`dot`]'s bits (the `a` operand first in every
/// product, chunks in order, `hsum`, then the tail in sequence) and then
/// one `× scale`. Returns where the groups stop.
///
/// # Safety
/// Every `a[r]` must be valid for reading `d` floats, and so must `b +
/// c·stride` for every column `c < n`.
#[inline(always)]
unsafe fn score_block<V: F32x8, const MR: usize, const R: usize>(
    out: &mut [f32],
    mut j: usize,
    a: [*const f32; MR],
    b: *const f32,
    stride: usize,
    d: usize,
    scale: f32,
) -> usize {
    let n = out.len() / MR;
    let full = d - d % 8;
    while n - j >= R {
        let rows: [*const f32; R] = std::array::from_fn(|c| b.wrapping_add((j + c) * stride));
        let mut acc = [[V::splat(0.0); R]; MR];
        for c in 0..full / 8 {
            let t = 8 * c;
            let mut vb = [V::splat(0.0); R];
            for (v, row) in vb.iter_mut().zip(rows) {
                *v = V::load(row.add(t));
            }
            for (acc, row) in acc.iter_mut().zip(a) {
                let va = V::load(row.add(t));
                for (s, v) in acc.iter_mut().zip(&vb) {
                    *s = s.add(va.mul(*v));
                }
            }
        }
        let mut sums = [[0.0f32; R]; MR];
        for (sums, acc) in sums.iter_mut().zip(&acc) {
            for (s, v) in sums.iter_mut().zip(acc) {
                *s = v.hsum();
            }
        }
        for t in full..d {
            for (sums, row) in sums.iter_mut().zip(a) {
                let x = *row.add(t);
                for (s, col) in sums.iter_mut().zip(rows) {
                    *s += x * *col.add(t);
                }
            }
        }
        for (r, sums) in sums.iter().enumerate() {
            for (o, s) in out[r * n + j..][..R].iter_mut().zip(sums) {
                *o = s * scale;
            }
        }
        j += R;
    }
    j
}

/// The output in spans of 64, 32, then 8 lanes, each span held in registers
/// across every position; the last `d % 8` elements one at a time.
#[inline(always)]
fn attn_mix<V: F32x8>(out: &mut [f32], weights: &[f32], values: &[f32], stride: usize) {
    let e = mix_spans::<V, 8>(out, 0, weights, values, stride);
    let e = mix_spans::<V, 4>(out, e, weights, values, stride);
    let e = mix_spans::<V, 1>(out, e, weights, values, stride);
    for (e, o) in out.iter_mut().enumerate().skip(e) {
        for (j, w) in weights.iter().enumerate() {
            *o += w * values[j * stride + e];
        }
    }
}

/// `out[e..] += Σ_j weights[j] · values[j·stride + e..]` over as many spans
/// of `8N` elements as fit; returns where the spans stopped.
#[inline(always)]
fn mix_spans<V: F32x8, const N: usize>(
    out: &mut [f32],
    mut e: usize,
    weights: &[f32],
    values: &[f32],
    stride: usize,
) -> usize {
    while out.len() - e >= 8 * N {
        let span = &mut out[e..e + 8 * N];
        let mut acc = [V::splat(0.0); N];
        for (a, o) in acc.iter_mut().zip(span.chunks_exact(8)) {
            *a = V::read(o);
        }
        for (j, &w) in weights.iter().enumerate() {
            // SAFETY: the entry asserted that `values` holds `d` floats at
            // every weight's row offset, and `e < d`.
            let (w, row) = (V::splat(w), unsafe { values.as_ptr().add(j * stride + e) });
            for (h, a) in acc.iter_mut().enumerate() {
                // SAFETY: `e + 8N <= d` floats of a row the entry asserted.
                *a = a.add(w.mul(unsafe { V::load(row.add(8 * h)) }));
            }
        }
        for (a, o) in acc.into_iter().zip(span.chunks_exact_mut(8)) {
            a.write(o);
        }
        e += 8 * N;
    }
    e
}

/// Lane-parallel `e^x` (Cephes-style range reduction + degree-5 polynomial,
/// relative error ≲ 2e-7). Inputs are clamped to the finite-result range
/// (NaN to its low end); an exact-zero input yields exactly 1.0.
#[inline(always)]
fn exp<V: F32x8>(x: V) -> V {
    let c = V::splat;
    let x = x.max(c(-88.37626)).min(c(88.37626));
    // n = round(x·log2e); reduced x ∈ [-0.347, 0.347].
    let n = x.mul(c(std::f32::consts::LOG2_E)).add(c(0.5)).floor();
    let x = x.sub(n.mul(c(0.693_359_4))).sub(n.mul(c(-2.121_944_4e-4)));
    let mut y = c(1.987_569_1e-4);
    for p in [1.398_199_9e-3, 8.333_452e-3, 4.166_579_6e-2, 1.666_666_5e-1] {
        y = y.mul(x).add(c(p));
    }
    let y = y.mul(x).add(c(5e-1)).mul(x.mul(x)).add(x).add(c(1.0));
    y.mul(n.pow2())
}

/// The row maximum in `maxps` order over full 8-blocks, then `f32::max`
/// over the tail; [`exp`] on full 8-blocks into eight lane sums, libm `exp`
/// on the tail; one reciprocal, one multiply per element.
#[inline(always)]
fn softmax<V: F32x8>(row: &mut [f32]) {
    let full = row.len() - row.len() % 8;
    // `maxps(-inf, v)` is `v` for every `v`, NaN included.
    let mut m = V::splat(f32::NEG_INFINITY);
    for b in row[..full].chunks_exact(8) {
        m = m.max(V::read(b));
    }
    let max = row[full..].iter().fold(m.hmax(), |max, &v| max.max(v));
    if max == f32::NEG_INFINITY {
        row.fill(1.0 / row.len() as f32);
        return;
    }
    let (body, tail) = row.split_at_mut(full);
    let mut sum = V::splat(0.0);
    for b in body.chunks_exact_mut(8) {
        let e = exp(V::read(b).sub(V::splat(max)));
        e.write(b);
        sum = sum.add(e);
    }
    let mut sum = sum.hsum();
    for v in tail.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for b in body.chunks_exact_mut(8) {
        V::read(b).mul(V::splat(inv)).write(b);
    }
    for v in tail {
        *v *= inv;
    }
}

/// `silu(g)·u` as `g / (1 + exp(0 − g)) · u` with [`exp`] on full 8-blocks,
/// [`crate::ops::silu`] on the tail.
#[inline(always)]
fn swiglu<V: F32x8>(gate: &mut [f32], up: &[f32]) {
    let full = gate.len() - gate.len() % 8;
    let one = V::splat(1.0);
    for (g, u) in gate.chunks_exact_mut(8).zip(up.chunks_exact(8)) {
        let x = V::read(g);
        let silu = x.div(one.add(exp(V::splat(0.0).sub(x))));
        silu.mul(V::read(u)).write(g);
    }
    for (g, u) in gate[full..].iter_mut().zip(&up[full..]) {
        *g = crate::ops::silu(*g) * u;
    }
}

/// The absmax in `maxps` order over full 8-blocks, then `f32::max` over the
/// tail; the codes as described at [`quantize_row_i8_with`].
#[inline(always)]
fn quantize<V: F32x8>(x: &[f32], q: &mut [i8]) -> f32 {
    let full = x.len() - x.len() % 8;
    let mut m = V::splat(0.0);
    for b in x.chunks_exact(8) {
        m = m.max(V::read(b).abs());
    }
    let absmax = x[full..].iter().fold(m.hmax(), |max, v| max.max(v.abs()));
    if absmax == 0.0 {
        q.fill(0);
        return 0.0;
    }
    let inv = 127.0 / absmax;
    for (b, c) in x.chunks_exact(8).zip(q.chunks_exact_mut(8)) {
        c.copy_from_slice(&V::read(b).mul(V::splat(inv)).round().to_i8());
    }
    for (c, &v) in q[full..].iter_mut().zip(&x[full..]) {
        *c = (v * inv).round().clamp(-127.0, 127.0) as i8;
    }
    absmax / 127.0
}

/// Each lane kernel over `lanes::Avx2`, compiled `avx2,fma`: called only for
/// `Backend::Avx2`, which runs only on hosts reporting both features.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::lanes::Avx2;

    macro_rules! on_avx2 {
        ($($name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {$(
            #[target_feature(enable = "avx2,fma")]
            pub(super) fn $name($($arg: $ty),*) $(-> $ret)? {
                super::$name::<Avx2>($($arg),*)
            }
        )*};
    }

    on_avx2! {
        dot(a: &[f32], b: &[f32]) -> f32;
        attn_scores(scores: &mut [f32], q: &[f32], keys: &[f32], stride: usize, scale: f32);
        matmul_nt(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize);
        attn_mix(out: &mut [f32], weights: &[f32], values: &[f32], stride: usize);
        softmax(row: &mut [f32]);
        swiglu(gate: &mut [f32], up: &[f32]);
        quantize(x: &[f32], q: &mut [i8]) -> f32;
    }
}

// ---------------------------------------------------------------------------
// int8 kernels (exact i32 accumulation on every tier).
// ---------------------------------------------------------------------------

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
        Backend::Avx2 | Backend::Avx512 => unsafe {
            matmul_q8_acc_avx2(c, qa, sa, panels, scales, m, k, n)
        },
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
/// over it; rows split over tiles as in [`row_tiles`].
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
        assert_eq!(Backend::from_name("AVX512"), Some(Backend::Avx512));
        assert_eq!(Backend::from_name("avx-512"), None);
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
        for (raw, b) in [("AVX2 ", Backend::Avx2), (" avx512", Backend::Avx512)] {
            let got = backend_from_env(Some(raw), host);
            if b.is_supported() {
                assert_eq!(got, Ok(b));
            } else {
                assert!(got.unwrap_err().contains("not supported"));
            }
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
        let feats = |avx2, fma| HostFeatures {
            avx2,
            fma,
            avx512f: false,
        };
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

    /// The avx512 tier runs the avx2 tier's kernels beside its `avx512f`
    /// tile, so it needs AVX-512F, AVX2 and FMA: only such a host picks it
    /// by default (and keeps `AASD_KERNEL=avx2` for A/B runs); any other
    /// keeps its avx2-or-scalar default, and a forced `AASD_KERNEL=avx512`
    /// there fails closed.
    #[test]
    fn avx512_tier_requires_avx512f_avx2_and_fma() {
        let all = HostFeatures {
            avx2: true,
            fma: true,
            avx512f: true,
        };
        assert!(all.runs(Backend::Avx512));
        assert_eq!(all.best(), Backend::Avx512);
        assert_eq!(backend_from_env(None, all), Ok(Backend::Avx512));
        assert_eq!(backend_from_env(Some("avx2"), all), Ok(Backend::Avx2));
        for (avx2, fma, avx512f) in [
            (true, true, false),
            (true, false, true),
            (false, true, true),
            (false, false, true),
        ] {
            let host = HostFeatures { avx2, fma, avx512f };
            let what = format!("avx2={avx2} fma={fma} avx512f={avx512f}");
            assert!(!host.runs(Backend::Avx512), "{what}");
            let default = if avx2 && fma {
                Backend::Avx2
            } else {
                Backend::Scalar
            };
            assert_eq!(host.best(), default, "{what}");
            assert_eq!(backend_from_env(None, host), Ok(default), "{what}");
            let err = backend_from_env(Some("avx512"), host).unwrap_err();
            assert_eq!(
                err,
                "AASD_KERNEL=avx512: backend not supported on this host"
            );
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
    /// matrices, the half panels the scalar tier's 8-wide tile reads, a one-row
    /// product's four-strip groups with full and partial strips after them),
    /// the LM head's width and the Sim7B / Sim13B projections, the tiled kernel is
    /// **bitwise** the naive triple loop — over the row-major matrix and over
    /// its packed panels, `_into` and `_acc` forms — so every tier is
    /// bitwise every other, and in the `_into` form the public
    /// `matmul_naive_into` is the same loop. (The largest Sim shape takes the
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
        // A one-row product's four-strip groups with leftover full strips
        // and a partial strip behind them, on both tile widths (16: 4 + 1,
        // 4 + 2 + partial, 4 + 3; 8: 8 + 2, 12 + partial, 12 + 2); and the
        // avx512 tier's strip pairs with one leftover strip (48, 80, 112:
        // 1, 2, 3 pairs + 1) or a partial strip (100: 3 pairs + partial).
        for k in [3, 192] {
            for n in [48, 80, 100, 112] {
                shapes.push((k, n));
            }
        }
        for (k, n) in shapes {
            let (a, b, c0) = (random(MAX_M * k), random(k * n), random(MAX_M * n));
            let panels = pack_panels(&b, k, n);
            let ms: Vec<usize> = if k * n <= 192 * 192 {
                (1..=MAX_M).collect()
            } else {
                vec![1, 2, 4, 6, 7, 8, 9, 13, 16, 17, 32, 33]
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
    /// tier, every f32 product path — the tile at m 1..=9, 16 and 17 over
    /// the row-major matrix and over its panels (m = 1 is vecmat; 8, 9, 16
    /// and 17 are the avx512 tier's full and split 8-row tiles), and the
    /// naive loop; `_acc` from `C = c`, `_into` with the `c` term at `k = 0`
    /// — must return exactly `2⁻²⁴`, wherever the `h·h` term sits in `k`
    /// (unrolled body or tail) and `j` (full strip, partial strip, SIMD tail,
    /// a one-row tile's four-strip group at `n` 64 and 100, the avx512 tile's
    /// strip pairs and their leftover strip at `n` 48, 80 and 112). Every
    /// bitwise test
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
                for n in [1, 7, 8, 9, 16, 17, 33, 48, 64, 80, 100, 112] {
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
                            for m in (1..=9).chain([16, 17]) {
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

    /// `dot_with` (and the process-tier `dot` on top of it) refuses operands
    /// of different lengths on every tier, in release builds too: the AVX2
    /// tier would read a shorter `b` past its end, and a longer one would be
    /// cut silently.
    #[test]
    fn dot_rejects_operands_of_different_lengths_on_every_tier() {
        for (a, b) in [(16, 8), (8, 16), (3, 4), (9, 0)] {
            let (a, b) = (vec![0.0f32; a], vec![0.0f32; b]);
            for bk in supported() {
                let r = std::panic::catch_unwind(|| dot_with(bk, &a, &b));
                assert!(r.is_err(), "{} took {} · {}", bk.name(), a.len(), b.len());
            }
            assert!(std::panic::catch_unwind(|| crate::dot(&a, &b)).is_err());
        }
    }

    /// The attention entries refuse a slab that cannot hold every strided
    /// row on every tier, a `stride` whose row offsets overflow `usize`
    /// included: the rows are read by pointer.
    #[test]
    fn attn_entries_reject_short_or_overflowing_slabs_on_every_tier() {
        let (q, slab) = ([0.0f32; 8], [0.0f32; 64]);
        for (l, stride) in [(3, 30), (3, usize::MAX / 2 + 1), (2, usize::MAX)] {
            for bk in supported() {
                let mut scores = vec![0.0f32; l];
                let r = std::panic::catch_unwind(move || {
                    attn_scores_with(bk, &mut scores, &q, &slab, stride, 1.0)
                });
                assert!(r.is_err(), "{} scores l={l} stride={stride}", bk.name());
                let (w, mut out) = (vec![1.0f32; l], vec![0.0f32; 8]);
                let r = std::panic::catch_unwind(move || {
                    attn_mix_with(bk, &mut out, &w, &slab, stride)
                });
                assert!(r.is_err(), "{} mix l={l} stride={stride}", bk.name());
            }
        }
    }

    /// `A·Bᵀ` gives every output the bits of its own `dot_with` on every
    /// tier: row counts on and off the 4-row block, column counts on and
    /// off the 3-column group, `k` below, at and past the lane width with
    /// and without a tail, and empty shapes (`k = 0` is all zeros).
    #[test]
    fn matmul_nt_bitwise_equals_per_element_dot_on_every_tier() {
        let mut rng = Rng::new(0x0A7B);
        for &m in &[0usize, 1, 3, 4, 5, 8, 11] {
            for &n in &[0usize, 1, 2, 3, 4, 7, 9, 13] {
                for &k in &[0usize, 1, 5, 8, 12, 16, 23, 40] {
                    let a: Vec<f32> = (0..m * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
                    let b: Vec<f32> = (0..n * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
                    for bk in supported() {
                        let mut out = vec![f32::NAN; m * n];
                        matmul_nt_with(bk, &mut out, &a, &b, m, k, n);
                        for (i, row) in out.chunks(n.max(1)).enumerate().take(m) {
                            for (j, &got) in row.iter().enumerate() {
                                let want = dot_with(bk, &a[i * k..][..k], &b[j * k..][..k]);
                                assert_eq!(
                                    got.to_bits(),
                                    want.to_bits(),
                                    "{} m={m} n={n} k={k} ({i}, {j})",
                                    bk.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// `matmul_nt_with` refuses operands whose lengths do not match the
    /// shape on every tier: its rows are read by pointer.
    #[test]
    fn matmul_nt_rejects_mismatched_shapes_on_every_tier() {
        for (a, b, out) in [(11, 12, 9), (12, 11, 9), (12, 12, 8)] {
            for bk in supported() {
                let (a, b, mut out) = (vec![0.0f32; a], vec![0.0f32; b], vec![0.0f32; out]);
                let r =
                    std::panic::catch_unwind(move || matmul_nt_with(bk, &mut out, &a, &b, 3, 4, 3));
                assert!(r.is_err(), "{}", bk.name());
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
                        for (y, v) in want.iter_mut().zip(&slab[j * stride..]) {
                            *y += w[j] * v;
                        }
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

    /// Softmax is **bitwise** the scalar tier's on every tier, rows holding
    /// a NaN included: one inside a full 8-block, where it meets the `maxps`
    /// tree, and one in the tail, where it meets `f32::max`.
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
            // The last lane of the last full block, where `maxps` hands the
            // NaN on through the tree, and the last tail element.
            let full = n - n % 8;
            let nan_at = [full.checked_sub(1), Some(n - 1).filter(|_| full < n)];
            for at in nan_at.into_iter().flatten() {
                let mut row = base.clone();
                row[at] = f32::NAN;
                let mut want = row.clone();
                softmax_row_with(Backend::Scalar, &mut want);
                for bk in supported() {
                    let mut p = row.clone();
                    softmax_row_with(bk, &mut p);
                    assert_eq!(bits(&p), bits(&want), "{} n={n} NaN at {at}", bk.name());
                }
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
