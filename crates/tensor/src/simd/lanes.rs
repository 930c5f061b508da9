//! The eight-lane type the f32 lane kernels of [`super`] are written in.

/// Eight f32 lanes and the AVX2 operations the lane kernels use; no
/// `mul_add`, as Rust never contracts a multiply and an add into one.
pub(super) trait F32x8: Copy {
    fn splat(v: f32) -> Self;
    /// The eight floats at `p` (`vmovups`).
    ///
    /// # Safety
    /// `p` must be valid for reading eight floats.
    unsafe fn load(p: *const f32) -> Self;
    /// Store the lanes to the first eight floats of `s`.
    fn write(self, s: &mut [f32]);
    fn add(self, b: Self) -> Self;
    fn sub(self, b: Self) -> Self;
    fn mul(self, b: Self) -> Self;
    fn div(self, b: Self) -> Self;
    /// `maxps`: `if a > b { a } else { b }`, so `b` when either is NaN.
    fn max(self, b: Self) -> Self;
    /// `minps`: `if a < b { a } else { b }`, so `b` when either is NaN.
    fn min(self, b: Self) -> Self;
    fn floor(self) -> Self;
    /// The sign bit cleared.
    fn abs(self) -> Self;
    /// Half away from zero as `trunc(t + copysign(0.5, t))`.
    fn round(self) -> Self;
    /// `2^n` for whole `n`: `cvttps2dq`, plus the bias, into the exponent.
    fn pow2(self) -> Self;
    /// `((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))`.
    fn hsum(self) -> f32;
    /// The lane maximum in [`F32x8::hsum`]'s tree, each step a `maxps`.
    fn hmax(self) -> f32;
    /// `cvtps2dq` (round half to even; NaN and out-of-range lanes become
    /// `i32::MIN`), then the saturating packs to i16 and to i8.
    fn to_i8(self) -> [i8; 8];

    /// The first eight floats of `s`.
    #[inline(always)]
    fn read(s: &[f32]) -> Self {
        assert!(s.len() >= 8);
        // SAFETY: `s` holds at least eight floats (asserted above).
        unsafe { Self::load(s.as_ptr()) }
    }
}

/// `f` on each lane. A plain loop, unlike `array::map`, which can stay out
/// of line and take every call through memory.
#[inline(always)]
fn lanewise(mut a: [f32; 8], f: impl Fn(f32) -> f32) -> [f32; 8] {
    for x in &mut a {
        *x = f(*x);
    }
    a
}

/// `f` on each pair of lanes.
#[inline(always)]
fn pairwise(mut a: [f32; 8], b: [f32; 8], f: impl Fn(f32, f32) -> f32) -> [f32; 8] {
    for (x, y) in a.iter_mut().zip(b) {
        *x = f(*x, y);
    }
    a
}

/// `cvttps2dq` on one lane: `v` truncated toward zero when that fits an
/// i32, the "integer indefinite" `i32::MIN` otherwise (NaN included).
fn to_i32(v: f32) -> i32 {
    let fits = (-2_147_483_648.0..2_147_483_648.0).contains(&v);
    if fits {
        v as i32
    } else {
        i32::MIN
    }
}

/// The scalar tier: one Rust float operation per lane per instruction.
impl F32x8 for [f32; 8] {
    fn splat(v: f32) -> Self {
        [v; 8]
    }
    unsafe fn load(p: *const f32) -> Self {
        p.cast::<[f32; 8]>().read_unaligned()
    }
    fn write(self, s: &mut [f32]) {
        s[..8].copy_from_slice(&self);
    }
    fn add(self, b: Self) -> Self {
        pairwise(self, b, |x, y| x + y)
    }
    fn sub(self, b: Self) -> Self {
        pairwise(self, b, |x, y| x - y)
    }
    fn mul(self, b: Self) -> Self {
        pairwise(self, b, |x, y| x * y)
    }
    fn div(self, b: Self) -> Self {
        pairwise(self, b, |x, y| x / y)
    }
    fn max(self, b: Self) -> Self {
        pairwise(self, b, |x, y| if x > y { x } else { y })
    }
    fn min(self, b: Self) -> Self {
        pairwise(self, b, |x, y| if x < y { x } else { y })
    }
    fn floor(self) -> Self {
        lanewise(self, f32::floor)
    }
    fn abs(self) -> Self {
        lanewise(self, f32::abs)
    }
    fn round(self) -> Self {
        lanewise(self, |t| (t + 0.5f32.copysign(t)).trunc())
    }
    fn pow2(self) -> Self {
        lanewise(self, |n| {
            f32::from_bits((to_i32(n).wrapping_add(0x7f) as u32) << 23)
        })
    }
    fn hsum(self) -> f32 {
        let l = self;
        ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
    }
    fn hmax(self) -> f32 {
        let (l, m) = (self, |a: f32, b: f32| if a > b { a } else { b });
        m(
            m(m(l[0], l[4]), m(l[2], l[6])),
            m(m(l[1], l[5]), m(l[3], l[7])),
        )
    }
    fn to_i8(self) -> [i8; 8] {
        let mut q = [0i8; 8];
        for (q, v) in q.iter_mut().zip(self) {
            *q = to_i32(v.round_ties_even()).clamp(-128, 127) as i8;
        }
        q
    }
}

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// The AVX2 tier: eight lanes in one `ymm` register. Its methods compile
/// without target features, so an `Avx2` may be made only on a host that
/// runs AVX2 and FMA: in the `simd::avx2` wrappers, which the dispatch calls
/// only there. Every `unsafe` block below relies on that.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(super) struct Avx2(__m256);

/// Methods that are one intrinsic over the lanes (and `b`'s).
#[cfg(target_arch = "x86_64")]
macro_rules! one_instruction {
    ($($name:ident($($b:ident)?) => $op:ident;)*) => {$(
        #[inline(always)]
        fn $name(self $(, $b: Self)?) -> Self {
            // SAFETY: the host runs AVX2 (see `Avx2`).
            Avx2(unsafe { $op(self.0 $(, $b.0)?) })
        }
    )*};
}

#[cfg(target_arch = "x86_64")]
impl F32x8 for Avx2 {
    one_instruction! {
        add(b) => _mm256_add_ps;
        sub(b) => _mm256_sub_ps;
        mul(b) => _mm256_mul_ps;
        div(b) => _mm256_div_ps;
        max(b) => _mm256_max_ps;
        min(b) => _mm256_min_ps;
        floor() => _mm256_floor_ps;
    }
    #[inline(always)]
    fn splat(v: f32) -> Self {
        // SAFETY: the host runs AVX2 (see `Avx2`).
        Avx2(unsafe { _mm256_set1_ps(v) })
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        Avx2(_mm256_loadu_ps(p))
    }
    #[inline(always)]
    fn write(self, s: &mut [f32]) {
        assert!(s.len() >= 8);
        // SAFETY: the host runs AVX2, and `s` holds eight floats.
        unsafe { _mm256_storeu_ps(s.as_mut_ptr(), self.0) }
    }
    #[inline(always)]
    fn abs(self) -> Self {
        // SAFETY: the host runs AVX2 (see `Avx2`).
        Avx2(unsafe { _mm256_andnot_ps(_mm256_set1_ps(-0.0), self.0) })
    }
    #[inline(always)]
    fn round(self) -> Self {
        // SAFETY: the host runs AVX2 (see `Avx2`).
        unsafe {
            let sign = _mm256_and_ps(_mm256_set1_ps(-0.0), self.0);
            let t = _mm256_add_ps(self.0, _mm256_or_ps(_mm256_set1_ps(0.5), sign));
            Avx2(_mm256_round_ps(t, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC))
        }
    }
    #[inline(always)]
    fn pow2(self) -> Self {
        // SAFETY: the host runs AVX2 (see `Avx2`).
        unsafe {
            let n = _mm256_add_epi32(_mm256_cvttps_epi32(self.0), _mm256_set1_epi32(0x7f));
            Avx2(_mm256_castsi256_ps(_mm256_slli_epi32(n, 23)))
        }
    }
    #[inline(always)]
    fn hsum(self) -> f32 {
        // SAFETY: the host runs AVX2 (see `Avx2`).
        unsafe {
            let (lo, hi) = (
                _mm256_castps256_ps128(self.0),
                _mm256_extractf128_ps(self.0, 1),
            );
            let s = _mm_add_ps(lo, hi);
            let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
            _mm_cvtss_f32(_mm_add_ss(s, _mm_shuffle_ps(s, s, 1)))
        }
    }
    #[inline(always)]
    fn hmax(self) -> f32 {
        // SAFETY: the host runs AVX2 (see `Avx2`).
        unsafe {
            let (lo, hi) = (
                _mm256_castps256_ps128(self.0),
                _mm256_extractf128_ps(self.0, 1),
            );
            let m = _mm_max_ps(lo, hi);
            let m = _mm_max_ps(m, _mm_movehl_ps(m, m));
            _mm_cvtss_f32(_mm_max_ss(m, _mm_shuffle_ps(m, m, 1)))
        }
    }
    #[inline(always)]
    fn to_i8(self) -> [i8; 8] {
        // SAFETY: the host runs AVX2 (see `Avx2`).
        let packed = unsafe {
            let i = _mm256_cvtps_epi32(self.0);
            let w = _mm_packs_epi32(_mm256_castsi256_si128(i), _mm256_extracti128_si256(i, 1));
            _mm_cvtsi128_si64(_mm_packs_epi16(w, w))
        };
        packed.to_le_bytes().map(|b| b as i8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lanes every primitive is driven over: signed zeros, infinities,
    /// NaN, subnormals, the `exp` clamp, ties and near-ties for `round`, the
    /// edges of `to_i8`'s range and of the i32 range, and plain values.
    const EDGES: [f32; 32] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        1e-40,
        -1e-40,
        f32::MIN_POSITIVE,
        88.37626,
        -88.37626,
        88.5,
        -88.5,
        0.5,
        -0.5,
        1.5,
        -1.5,
        2.5,
        -2.5,
        0.49999997,
        -0.49999997,
        127.0,
        -127.0,
        127.4,
        -127.4,
        127.5,
        -128.6,
        2_147_483_648.0,
        -2_147_483_648.0,
        3.0,
        -7.25,
        1e30,
        f32::MAX,
    ];

    /// Every method of `V` over the lanes `a` and `b`, as bits.
    fn run<V: F32x8>(a: [f32; 8], b: [f32; 8]) -> Vec<u32> {
        let (x, y) = (V::read(&a), V::read(&b));
        let mut out = Vec::new();
        let lanes = [
            V::splat(a[3]),
            x.add(y),
            x.sub(y),
            x.mul(y),
            x.div(y),
            x.max(y),
            x.min(y),
            x.floor(),
            x.abs(),
            x.round(),
            x.floor().pow2(),
        ];
        for v in lanes {
            let mut s = [0.0f32; 8];
            v.write(&mut s);
            out.extend(s.map(f32::to_bits));
        }
        out.extend([x.hsum().to_bits(), x.hmax().to_bits()]);
        out.extend(x.to_i8().map(|q| q as u32));
        out
    }

    /// Each method of the AVX2 impl gives the `[f32; 8]` impl's bits on every
    /// pairing of edge lanes, in every lane position: the instruction-level
    /// ground the kernels' cross-tier agreement stands on. The `[f32; 8]`
    /// side is also held to the instructions' documented results on a few
    /// lanes, so the two cannot agree by sharing a mistake.
    #[test]
    fn lanes_give_the_avx2_instructions_bits() {
        let nan = f32::NAN;
        let m = [1.0, nan, nan, 0.0, -0.0, 2.0, 2.0, -1.0]
            .max([nan, 1.0, nan, -0.0, 0.0, 1.0, 3.0, 2.0]);
        let want = [nan, 1.0, nan, -0.0, 0.0, 2.0, 3.0, 2.0];
        assert_eq!(m.map(f32::to_bits), want.map(f32::to_bits), "maxps");
        let r = [0.5, -0.5, 1.5, -2.5, 0.49999997, 127.4, -0.0, 2.0].round();
        assert_eq!(r, [1.0, -1.0, 2.0, -3.0, 1.0, 127.0, -0.0, 2.0]);
        let q = [127.0, -127.4, 200.0, -200.0, nan, f32::INFINITY, 2.5, -2.5].to_i8();
        assert_eq!(q, [127, -127, 127, -128, -128, -128, 2, -2]);
        let p = [-1.0, 0.0, 1.0, 127.0, -126.0, 3.9, -3.9, 8.0].pow2();
        assert_eq!(
            p,
            [
                0.5,
                1.0,
                2.0,
                2f32.powi(127),
                2f32.powi(-126),
                8.0,
                0.125,
                256.0
            ]
        );
        let lanes = |at: usize| -> [f32; 8] { std::array::from_fn(|i| EDGES[(at + i) % 32]) };
        #[cfg(target_arch = "x86_64")]
        if crate::simd::Backend::Avx2.is_supported() {
            for i in 0..32 {
                for j in 0..32 {
                    let (a, b) = (lanes(i), lanes(j));
                    let (a, b) = std::hint::black_box((a, b));
                    assert_eq!(run::<[f32; 8]>(a, b), run::<Avx2>(a, b), "{a:?} {b:?}");
                }
            }
        }
    }
}
