//! One Box–Muller draw without libm: the `logf` and `cosf` it needs,
//! transcribed operation for operation, so the synthetic model's bits
//! never depend on a call into the host's math library.
//!
//! A draw is `sqrt(-2·ln u1) · cos(2π·u2)` in `f32`. The model was first
//! drawn with `f32::ln` / `f32::cos`, which on x86-64 Linux are glibc's
//! `logf` / `cosf` — and their last-bit errors are part of the model:
//! glibc's `logf` differs from the correctly rounded logarithm on 122 123
//! of the 2²⁴ `u1` the stream can feed, its `cosf` on 217 508 of the 2²⁴
//! angles. So a more accurate `ln` / `cos` would move weights, the zero
//! pattern and the cycle counts. Instead this module evaluates exactly
//! what glibc (≥ 2.28) evaluates on an FMA machine: ARM's optimized-routines
//! `logf.c` and `sincosf.c` (MIT OR Apache-2.0 WITH LLVM-exception), with
//! the same table constants, the same operations in the same order, and
//! the fused multiply-adds where the FMA build contracts them.
//!
//! Only the inputs the stream can produce are needed, and both domains are
//! small enough to check exhaustively (`exhaustive_tests` below):
//!
//! * `u1 = (w >> 8)·2⁻²⁴` takes 2²⁴ values; a draw uses it only when
//!   `u1 > f32::EPSILON`, so `logf` only ever sees positive normal `f32`
//!   below 1 — glibc's special-case branch (zero, subnormal, negative,
//!   infinite, NaN, and `x == 1` for the sign of a zero) is unreachable.
//! * The angle `f32(2π)·u2` lies in `[0, 2π)`, inside `cosf`'s fast
//!   reduction range `|x| < 120`. glibc's separate branch below 0.75 is
//!   the reduced path with quadrant `n = 0` (`x − 0·π/2` is `x`), so one
//!   branch-free body covers the whole domain.
//!
//! [`draw`] is the one definition of a draw, in `f64::mul_add`: the body
//! of every kernel tier without the vector kernel, and the oracle for it.
//! On the AVX-512 tier [`fill`] evaluates eight attempts at a time in
//! `f64` lanes (`avx512::draw8`), the same operations lane-wise.

use crate::simd::KernelTier;

/// Stream words one Box–Muller attempt consumes (two `next_u64`).
pub(crate) const ATTEMPT_WORDS: usize = 4;

/// One step of [`unit_f32`]: 2⁻²⁴.
const UNIT: f32 = 1.0 / (1u64 << 24) as f32;

/// `f32` from the top 24 bits of `word`: `rng.gen::<f32>()` of the
/// `next_u64` whose high word is `word`, uniform in `[0, 1)`.
#[inline]
fn unit_f32(word: u32) -> f32 {
    (word >> 8) as f32 * UNIT
}

/// `2π` as the draw multiplies it, rounded to `f32`.
const TWO_PI: f32 = 2.0 * std::f32::consts::PI;

const fn f64s<const N: usize>(bits: [u64; N]) -> [f64; N] {
    let mut out = [0.0; N];
    let mut i = 0;
    while i < N {
        out[i] = f64::from_bits(bits[i]);
        i += 1;
    }
    out
}

// ---------------------------------------------------------------------
// logf
// ---------------------------------------------------------------------

/// `logf` splits `[OFF, 2·OFF)` into 16 subintervals; `1/c` for the centre
/// `c` of each (`__logf_data.tab[i].invc`).
const LOGF_INVC: [f64; 16] = f64s([
    0x3ff661ec79f8f3be, 0x3ff571ed4aaf883d, 0x3ff49539f0f010b0, 0x3ff3c995b0b80385,
    0x3ff30d190c8864a5, 0x3ff25e227b0b8ea0, 0x3ff1bb4a4a1a343f, 0x3ff12358f08ae5ba,
    0x3ff0953f419900a7, 0x3ff0000000000000, 0x3fee608cfd9a47ac, 0x3feca4b31f026aa0,
    0x3feb2036576afce6, 0x3fe9c2d163a1aa2d, 0x3fe886e6037841ed, 0x3fe767dcf5534862,
]);
/// `ln c` for the same centres (`__logf_data.tab[i].logc`).
const LOGF_LOGC: [f64; 16] = f64s([
    0xbfd57bf7808caade, 0xbfd2bef0a7c06ddb, 0xbfd01eae7f513a67, 0xbfcb31d8a68224e9,
    0xbfc6574f0ac07758, 0xbfc1aa2bc79c8100, 0xbfba4e76ce8c0e5e, 0xbfb1973c5a611ccc,
    0xbfa252f438e10c1e, 0x0000000000000000, 0x3faaa5aa5df25984, 0x3fbc5e53aa362eb4,
    0x3fc526e57720db08, 0x3fcbc2860d224770, 0x3fd1058bc8a07ee1, 0x3fd4043057b6ee09,
]);
/// `__logf_data.ln2`.
const LOGF_LN2: f64 = f64::from_bits(0x3fe62e42fefa39ef);
/// `__logf_data.poly`: `log1p(r) ≈ r + A0·r⁴ + A1·r³ + A2·r²`.
const LOGF_A: [f64; 3] = f64s([0xbfd00ea348b88334, 0x3fd5575b0be00b6a, 0xbfdffffef20a4123]);
/// The subintervals' origin: `x = 2^k·z` with `z` in `[OFF, 2·OFF)`.
const LOGF_OFF: u32 = 0x3f33_0000;

/// glibc's `logf` of a positive normal `f32` (every `u1` a draw accepts).
pub(crate) fn logf(x: f32) -> f32 {
    let ix = x.to_bits();
    let tmp = ix.wrapping_sub(LOGF_OFF);
    let i = (tmp >> 19) as usize % 16;
    let k = f64::from(tmp as i32 >> 23);
    let z = f64::from(f32::from_bits(ix.wrapping_sub(tmp & 0xff80_0000)));
    let y0 = k.mul_add(LOGF_LN2, LOGF_LOGC[i]);
    let r = z.mul_add(LOGF_INVC[i], -1.0);
    let t = r.mul_add(LOGF_A[1], LOGF_A[2]);
    let r2 = r * r;
    let s = r + y0;
    let y = r2.mul_add(LOGF_A[0], t);
    r2.mul_add(y, s) as f32
}

// ---------------------------------------------------------------------
// cosf
// ---------------------------------------------------------------------

/// One of `__sincosf_table`'s two rows, fields in its memory order.
struct SinCos {
    /// Sign of the sine polynomial's argument in quadrants `0..4`.
    sign: [f64; 4],
    /// `2^24 · 2/π`: the quadrant is `n = trunc(x·hpi_inv) + 2^23 >> 24`.
    hpi_inv: f64,
    /// `π/2`.
    hpi: f64,
    c0: f64,
    c1: f64,
    s1: f64,
    c2: f64,
    s2: f64,
    c3: f64,
    s3: f64,
    c4: f64,
}

const fn sincos(b: [u64; 14]) -> SinCos {
    let v = f64s(b);
    SinCos {
        sign: [v[0], v[1], v[2], v[3]],
        hpi_inv: v[4],
        hpi: v[5],
        c0: v[6],
        c1: v[7],
        s1: v[8],
        c2: v[9],
        s2: v[10],
        c3: v[11],
        s3: v[12],
        c4: v[13],
    }
}

/// `__sincosf_table`: row 1 serves quadrants with `n & 2`, its cosine
/// coefficients negated; the sine coefficients of both rows are equal.
const SINCOSF: [SinCos; 2] = [
    sincos([
        0x3ff0000000000000, 0xbff0000000000000, 0xbff0000000000000, 0x3ff0000000000000,
        0x41645f306dc9c883, 0x3ff921fb54442d18, 0x3ff0000000000000, 0xbfdffffffd0c621c,
        0xbfc555545995a603, 0x3fa55553e1068f19, 0x3f81107605230bc4, 0xbf56c087e89a359d,
        0xbf2994eb3774cf24, 0x3ef99343027bf8c3,
    ]),
    sincos([
        0x3ff0000000000000, 0xbff0000000000000, 0xbff0000000000000, 0x3ff0000000000000,
        0x41645f306dc9c883, 0x3ff921fb54442d18, 0xbff0000000000000, 0x3fdffffffd0c621c,
        0xbfc555545995a603, 0xbfa55553e1068f19, 0x3f81107605230bc4, 0x3f56c087e89a359d,
        0xbf2994eb3774cf24, 0xbef99343027bf8c3,
    ]),
];

/// `cosf` returns exactly 1 below this `|x|` bit pattern (top 12 bits
/// ≤ `0x397`: `|x| < 2⁻¹²`).
const COSF_TINY: u32 = 0x3980_0000;

/// glibc's `cosf` of `0 ≤ x < 120` (every angle a draw takes).
pub(crate) fn cosf(y: f32) -> f32 {
    if y.to_bits() & 0x7fff_ffff < COSF_TINY {
        return 1.0;
    }
    let x = f64::from(y);
    let t0 = &SINCOSF[0];
    let n = ((x * t0.hpi_inv) as i32 + 0x80_0000) >> 24;
    let xr = (-f64::from(n)).mul_add(t0.hpi, x);
    let p = &SINCOSF[usize::from(n & 2 != 0)];
    let x2 = xr * xr;
    let v = if n & 1 != 0 {
        // sin(xr) with the quadrant's sign.
        let x = xr * t0.sign[(n & 3) as usize];
        let x3 = x2 * x;
        let x7 = x2 * x3;
        let s1 = x2.mul_add(p.s3, p.s2);
        let s = x3.mul_add(p.s1, x);
        s1.mul_add(x7, s)
    } else {
        // cos(xr), negated by row 1's coefficients when `n & 2`.
        let x4 = x2 * x2;
        let c1 = x2.mul_add(p.c1, p.c0);
        let c2 = x2.mul_add(p.c4, p.c3);
        let x6 = x2 * x4;
        let c = x4.mul_add(p.c2, c1);
        c2.mul_add(x6, c)
    };
    v as f32
}

// ---------------------------------------------------------------------
// The draw
// ---------------------------------------------------------------------

/// The Box–Muller draw of an attempt whose `gen::<f32>()` words (the high
/// words of its two `next_u64`, stream words 1 and 3) are `w1` and `w3`:
/// `None` when `u1 ≤ f32::EPSILON` rejects it.
#[inline]
pub(crate) fn draw(w1: u32, w3: u32) -> Option<f32> {
    let u1 = unit_f32(w1);
    let u2 = unit_f32(w3);
    (u1 > f32::EPSILON).then(|| (-2.0 * logf(u1)).sqrt() * cosf(TWO_PI * u2))
}

/// Rough cost of one attempt on `tier`, its 4 stream words included:
/// ≈ 5 ns in the AVX-512 kernel, ≈ 25 ns in the scalar body with FMA
/// (2-vCPU AVX-512 Xeon; 2 ns of either is ChaCha).
pub(crate) fn ns_per_draw(tier: KernelTier) -> usize {
    match tier {
        KernelTier::Avx512 | KernelTier::Amx => 5,
        _ => 25,
    }
}

/// Evaluates the `words.len() / 4` attempts in `words`, packing `scale`
/// times each accepted draw to the front of `out`. Returns how many it
/// accepted; `out` must have room for every attempt, and nothing past the
/// accepted ones is written.
pub(crate) fn fill(tier: KernelTier, words: &[u32], scale: f32, out: &mut [f32]) -> usize {
    assert_eq!(words.len() % ATTEMPT_WORDS, 0, "words must be whole attempts");
    assert!(out.len() >= words.len() / ATTEMPT_WORDS, "no room for every attempt");
    #[cfg(target_arch = "x86_64")]
    if tier.runs_avx512() {
        let mut kept = 0;
        for block in words.chunks(8 * ATTEMPT_WORDS) {
            // SAFETY: the tier's features (AVX-512F among them) are present,
            // and `out[kept..]` has room for every attempt not yet evaluated.
            kept += unsafe { avx512::draw8(block, scale, &mut out[kept..]) };
        }
        return kept;
    }
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("fma") {
        // SAFETY: FMA is present.
        return unsafe { fill_fma(words, scale, out) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    fill_scalar(words, scale, out)
}

/// The body of every tier without the vector kernel: [`draw`] per attempt.
#[inline(always)]
fn fill_scalar(words: &[u32], scale: f32, out: &mut [f32]) -> usize {
    let mut kept = 0;
    for attempt in words.chunks_exact(ATTEMPT_WORDS) {
        if let Some(d) = draw(attempt[1], attempt[3]) {
            out[kept] = d * scale;
            kept += 1;
        }
    }
    kept
}

/// [`fill_scalar`] compiled for FMA, so each `mul_add` is one instruction
/// instead of a call to the C library's software-exact `fma` (the same
/// bits: a fused multiply-add is correctly rounded either way).
///
/// # Safety
/// FMA must be present.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn fill_fma(words: &[u32], scale: f32, out: &mut [f32]) -> usize {
    fill_scalar(words, scale, out)
}

/// [`draw`] eight attempts at a time: the transcription lane-wise in
/// `f64`, on 512-bit registers only, so AVX-512F is all it needs beyond
/// the AVX2 and FMA that F implies (no VL, DQ or BW).
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512 {
    use super::*;
    use std::arch::x86_64::*;

    /// Lanes `0..8`: word 1 of attempts `0..8`; lanes `8..16`: word 3.
    const GATHER_U: [i32; 16] = [1, 5, 9, 13, 17, 21, 25, 29, 3, 7, 11, 15, 19, 23, 27, 31];

    // Row 1 of the sine table is row 0's, so the sine polynomial reads row
    // 0 whatever `n & 2` is.
    const _: () = assert!(
        SINCOSF[0].s1.to_bits() == SINCOSF[1].s1.to_bits()
            && SINCOSF[0].s2.to_bits() == SINCOSF[1].s2.to_bits()
            && SINCOSF[0].s3.to_bits() == SINCOSF[1].s3.to_bits()
    );

    #[target_feature(enable = "avx512f")]
    unsafe fn splat(v: f64) -> __m512d {
        _mm512_set1_pd(v)
    }

    /// `c1` in the lanes of `k`, `c0` in the others.
    #[target_feature(enable = "avx512f")]
    unsafe fn row(k: __mmask8, c0: f64, c1: f64) -> __m512d {
        _mm512_mask_blend_pd(k, splat(c0), splat(c1))
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn load16(t: &[f64; 16]) -> (__m512d, __m512d) {
        (_mm512_loadu_pd(t.as_ptr()), _mm512_loadu_pd(t.as_ptr().add(8)))
    }

    /// [`logf`] of the low 8 `f32` lanes of `u`.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn logf8(u: __m512) -> __m256 {
        let ix = _mm512_castps_si512(u);
        let tmp = _mm512_sub_epi32(ix, _mm512_set1_epi32(LOGF_OFF as i32));
        let i = _mm512_and_si512(_mm512_srli_epi32::<19>(tmp), _mm512_set1_epi32(15));
        let k = _mm512_srai_epi32::<23>(tmp);
        let iz = _mm512_sub_epi32(ix, _mm512_and_si512(tmp, _mm512_set1_epi32(0xff80_0000u32 as i32)));
        let z = _mm512_cvtps_pd(_mm512_castps512_ps256(_mm512_castsi512_ps(iz)));
        let k = _mm512_cvtepi32_pd(_mm512_castsi512_si256(k));
        let i = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(i));
        let (lo, hi) = load16(&LOGF_INVC);
        let invc = _mm512_permutex2var_pd(lo, i, hi);
        let (lo, hi) = load16(&LOGF_LOGC);
        let logc = _mm512_permutex2var_pd(lo, i, hi);
        let y0 = _mm512_fmadd_pd(k, splat(LOGF_LN2), logc);
        let r = _mm512_fmadd_pd(z, invc, splat(-1.0));
        let t = _mm512_fmadd_pd(r, splat(LOGF_A[1]), splat(LOGF_A[2]));
        let r2 = _mm512_mul_pd(r, r);
        let s = _mm512_add_pd(r, y0);
        let y = _mm512_fmadd_pd(r2, splat(LOGF_A[0]), t);
        _mm512_cvtpd_ps(_mm512_fmadd_pd(r2, y, s))
    }

    /// [`cosf`] of the high 8 `f32` lanes of `a`.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn cosf8(a: __m512) -> __m256 {
        let bits = _mm512_and_si512(_mm512_castps_si512(a), _mm512_set1_epi32(0x7fff_ffff));
        let tiny = (_mm512_cmplt_epu32_mask(bits, _mm512_set1_epi32(COSF_TINY as i32)) >> 8) as __mmask8;
        let x = _mm512_cvtps_pd(_mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(a))));
        let (t0, t1) = (&SINCOSF[0], &SINCOSF[1]);
        let n = _mm512_cvttpd_epi32(_mm512_mul_pd(x, splat(t0.hpi_inv)));
        let n = _mm256_srai_epi32::<24>(_mm256_add_epi32(n, _mm256_set1_epi32(0x80_0000)));
        let xr = _mm512_fnmadd_pd(_mm512_cvtepi32_pd(n), splat(t0.hpi), x);
        let n = _mm512_cvtepi32_epi64(n);
        let odd = _mm512_test_epi64_mask(n, _mm512_set1_epi64(1));
        let row1 = _mm512_test_epi64_mask(n, _mm512_set1_epi64(2));
        let x2 = _mm512_mul_pd(xr, xr);
        // Odd quadrants: sin(xr) with the quadrant's sign; `vpermpd` reads
        // the index's low 3 bits, so the 4 signs are laid out twice.
        let [s0, s1, s2, s3] = t0.sign;
        let sign = _mm512_permutexvar_pd(n, _mm512_setr_pd(s0, s1, s2, s3, s0, s1, s2, s3));
        let xs = _mm512_mul_pd(xr, sign);
        let x3 = _mm512_mul_pd(x2, xs);
        let x7 = _mm512_mul_pd(x2, x3);
        let s1 = _mm512_fmadd_pd(x2, splat(t0.s3), splat(t0.s2));
        let s = _mm512_fmadd_pd(x3, splat(t0.s1), xs);
        let sin = _mm512_fmadd_pd(s1, x7, s);
        // Even quadrants: cos(xr) from the row `n & 2` picks.
        let x4 = _mm512_mul_pd(x2, x2);
        let c1 = _mm512_fmadd_pd(x2, row(row1, t0.c1, t1.c1), row(row1, t0.c0, t1.c0));
        let c2 = _mm512_fmadd_pd(x2, row(row1, t0.c4, t1.c4), row(row1, t0.c3, t1.c3));
        let x6 = _mm512_mul_pd(x2, x4);
        let cc = _mm512_fmadd_pd(x4, row(row1, t0.c2, t1.c2), c1);
        let cos = _mm512_fmadd_pd(c2, x6, cc);
        let v = _mm512_mask_blend_pd(odd, cos, sin);
        _mm512_cvtpd_ps(_mm512_mask_blend_pd(tiny, v, splat(1.0)))
    }

    /// [`fill`] of at most 8 attempts (`words.len()` a multiple of 4, at
    /// most 32): the two `gen::<f32>()` words of each attempt are gathered
    /// into one register, the 8 logarithms and 8 cosines are evaluated
    /// side by side, and the accepted draws are compressed to the front.
    ///
    /// # Safety
    /// AVX-512F must be present, `words.len()` at most 32 and `out.len()`
    /// at least `words.len() / 4`.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn draw8(words: &[u32], scale: f32, out: &mut [f32]) -> usize {
        debug_assert!(words.len() <= 8 * ATTEMPT_WORDS && words.len().is_multiple_of(ATTEMPT_WORDS));
        debug_assert!(out.len() >= words.len() / ATTEMPT_WORDS);
        let live = (1u64 << words.len()) - 1;
        let p = words.as_ptr().cast::<i32>();
        // Masked-off lanes are neither read nor faulted on.
        let lo = _mm512_maskz_loadu_epi32(live as __mmask16, p);
        let hi = _mm512_maskz_loadu_epi32((live >> 16) as __mmask16, p.wrapping_add(16));
        let w = _mm512_permutex2var_epi32(lo, _mm512_loadu_si512(GATHER_U.as_ptr().cast()), hi);
        let u = _mm512_mul_ps(_mm512_cvtepi32_ps(_mm512_srli_epi32::<8>(w)), _mm512_set1_ps(UNIT));
        let lanes = (1u16 << (words.len() / ATTEMPT_WORDS)) - 1;
        let accept = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(u, _mm512_set1_ps(f32::EPSILON)) & lanes;
        let ln = logf8(u);
        let cos = cosf8(_mm512_mul_ps(u, _mm512_set1_ps(TWO_PI)));
        let d = _mm256_mul_ps(_mm256_sqrt_ps(_mm256_mul_ps(_mm256_set1_ps(-2.0), ln)), cos);
        let d = _mm256_mul_ps(d, _mm256_set1_ps(scale));
        let packed = _mm512_maskz_compress_ps(accept, _mm512_castps256_ps512(d));
        let kept = accept.count_ones();
        _mm512_mask_storeu_ps(out.as_mut_ptr(), ((1u32 << kept) - 1) as __mmask16, packed);
        kept as usize
    }
}

/// The transcription against the libm it transcribes: every `u1` and
/// every angle a draw can take, bit for bit. Only meaningful where
/// `f32::ln` / `f32::cos` are glibc's FMA variants — x86-64 glibc picks
/// them when the CPU has FMA and AVX2.
#[cfg(all(test, target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
mod exhaustive_tests {
    use super::*;

    fn glibc_fma() -> bool {
        is_x86_feature_detected!("fma") && is_x86_feature_detected!("avx2")
    }

    /// `u1 = k·2⁻²⁴` for every `k ≥ 1`: all nonzero values of
    /// [`unit_f32`], the accepted ones and then some.
    #[test]
    fn logf_is_libms_on_every_u1() {
        if !glibc_fma() {
            return;
        }
        let mismatches: Vec<f32> = (1u32 << 8..=u32::MAX)
            .step_by(1 << 8)
            .map(unit_f32)
            .filter(|&u| logf(u).to_bits() != u.ln().to_bits())
            .collect();
        assert!(mismatches.is_empty(), "{} mismatches, first at u1 = {:e}", mismatches.len(), mismatches[0]);
    }

    /// `f32(2π)·u2` for every `u2 = k·2⁻²⁴`.
    #[test]
    fn cosf_is_libms_on_every_angle() {
        if !glibc_fma() {
            return;
        }
        let mismatches: Vec<f32> = (0..=u32::MAX)
            .step_by(1 << 8)
            .map(|w| TWO_PI * unit_f32(w))
            .filter(|&a| cosf(a).to_bits() != a.cos().to_bits())
            .collect();
        assert!(mismatches.is_empty(), "{} mismatches, first at {:e}", mismatches.len(), mismatches[0]);
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod avx512_tests {
    use super::*;
    use proptest::prelude::*;
    use std::arch::x86_64::*;

    fn avx512() -> bool {
        is_x86_feature_detected!("avx512f")
    }

    /// The kernel's `logf` and `cosf` lanes on the whole domain of each,
    /// against the scalar transcription: `u1` in the low 8 lanes, the
    /// angles in the high 8, as `draw8` lays them out.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "2 × 2²⁴ lanes: run with --release (scripts/verify.sh does)")]
    fn kernel_lanes_equal_the_scalar_transcription_everywhere() {
        if !avx512() {
            return;
        }
        let mut mismatches = 0usize;
        for k in (0u32..1 << 24).step_by(8) {
            let u: [f32; 8] = std::array::from_fn(|l| unit_f32((k + l as u32) << 8));
            let mut lanes = [0f32; 16];
            lanes[..8].copy_from_slice(&u);
            lanes[8..].copy_from_slice(&u.map(|u| TWO_PI * u));
            let (mut ln, mut cos) = ([0f32; 8], [0f32; 8]);
            // SAFETY: AVX-512F checked above; the pointers span 16 and 8 lanes.
            unsafe {
                let v = _mm512_loadu_ps(lanes.as_ptr());
                _mm256_storeu_ps(ln.as_mut_ptr(), avx512::logf8(v));
                _mm256_storeu_ps(cos.as_mut_ptr(), avx512::cosf8(v));
            }
            for l in 0..8 {
                // `u1 = 0` is outside `logf`'s domain (a draw rejects it).
                mismatches += usize::from(u[l] > 0.0 && ln[l].to_bits() != logf(u[l]).to_bits());
                mismatches += usize::from(cos[l].to_bits() != cosf(lanes[8 + l]).to_bits());
            }
        }
        assert_eq!(mismatches, 0);
    }

    proptest! {
        /// Up to 8 attempts — every tail length — with any lanes forced to
        /// a rejected `u1` (0, 2⁻²⁴ or ε itself) and any scale: the same
        /// draws as the scalar body, packed the same, nothing written past
        /// them.
        #[test]
        fn draw8_equals_the_scalar_transcription(
            words in prop::collection::vec(0u32..=u32::MAX, 32),
            attempts in 0usize..=8,
            rejected in 0u32..256,
            reject_u1 in 0u32..3,
            scale in -4.0f32..4.0,
        ) {
            if !avx512() {
                return Ok(());
            }
            let mut words = words;
            for a in (0..8).filter(|a| rejected >> a & 1 != 0) {
                words[4 * a + 1] = reject_u1 << 8 | words[4 * a + 1] & 0xff;
            }
            let words = &words[..attempts * ATTEMPT_WORDS];
            let mut want = [0f32; 8];
            let n = fill(KernelTier::Scalar, words, scale, &mut want);
            let sentinel = f32::from_bits(0x7fc0_dead);
            let mut got = [sentinel; 8];
            // SAFETY: AVX-512F checked above; `got` has room for 8 attempts.
            let kept = unsafe { avx512::draw8(words, scale, &mut got) };
            prop_assert_eq!(kept, n);
            prop_assert_eq!(got.map(f32::to_bits)[..n], want.map(f32::to_bits)[..n]);
            prop_assert!(got[n..].iter().all(|v| v.to_bits() == sentinel.to_bits()));
        }
    }
}
