//! SIMD kernel tiers for the quantized (Sm8) datapath, with runtime
//! CPU-feature dispatch.
//!
//! The paper's datapath consumes one 16-value IFM tile per cycle per bank
//! and applies 4 weights per cycle in 8-bit sign+magnitude arithmetic
//! (§III-A). The software golden model historically emulated that one
//! scalar lane at a time; this module supplies the lane-parallel inner
//! loops — a 32-wide AVX-512 tier (two tile rows per iteration), a 16-wide
//! AVX2 tier (one whole tile row per iteration) and an 8-wide SSE2 tier —
//! behind a [`KernelTier`] selector, with the scalar loops kept as the
//! bit-exactness oracle and unconditional fallback.
//!
//! # Exactness
//!
//! Every kernel here is **bit-identical** to its scalar counterpart, not
//! merely close:
//!
//! * `Sm8` values decode branch-free to `i16` ([`Sm8::decode_i16`]); the
//!   SIMD decode is the same `(mag ^ neg) - neg` dataflow in 16-bit lanes.
//! * A product of two `Sm8` values is at most `127 * 127 = 16129 < 2^15`,
//!   so `mullo_epi16` computes it exactly — the low half *is* the product.
//! * Accumulation is pure integer addition, which is associative and
//!   commutative, so any lane/order regrouping leaves the sum unchanged
//!   (callers guarantee no intermediate overflow; see [`axpy_i32`]).
//!
//! Property tests in `tests/kernel_tiers.rs` pin every reachable tier
//! against the scalar oracle over random shapes and densities.
//!
//! # Dispatch
//!
//! [`dispatch`] picks the widest tier the CPU supports, once, at first
//! use. The `ZSKIP_KERNEL` environment variable (`scalar` | `sse2` |
//! `avx2` | `avx512`) overrides the choice for testing and benchmarking; requesting
//! an unsupported or unknown tier falls back to the best supported one.
//! See `docs/KERNELS.md` for the full dispatch rules and how to add a
//! tier.

use std::sync::OnceLock;
use zskip_quant::Sm8;

/// Environment variable that overrides the dispatched kernel tier.
pub const KERNEL_ENV: &str = "ZSKIP_KERNEL";

/// A kernel implementation tier, ordered narrowest to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelTier {
    /// Portable scalar loops: the oracle and universal fallback.
    Scalar,
    /// 8-lane `std::arch::x86_64` SSE2 kernels (baseline on x86-64).
    Sse2,
    /// 16-lane AVX2 kernels: one IFM tile row per iteration.
    Avx2,
    /// 32-lane AVX-512 kernels (F + BW): two IFM tile rows per iteration.
    Avx512,
}

impl KernelTier {
    /// Every tier, narrowest first.
    pub const ALL: [KernelTier; 4] =
        [KernelTier::Scalar, KernelTier::Sse2, KernelTier::Avx2, KernelTier::Avx512];

    /// Stable lower-case name (the `ZSKIP_KERNEL` spelling).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Sse2 => "sse2",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
        }
    }

    /// Parses a `ZSKIP_KERNEL` spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<KernelTier> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelTier::Scalar),
            "sse2" => Some(KernelTier::Sse2),
            "avx2" => Some(KernelTier::Avx2),
            "avx512" => Some(KernelTier::Avx512),
            _ => None,
        }
    }

    /// Whether this machine can execute the tier.
    pub fn is_supported(self) -> bool {
        match self {
            KernelTier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Sse2 => is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => is_x86_feature_detected!("avx2"),
            // BW is needed for the 32-lane i16 multiply/shift; F for the
            // 512-bit integer adds and widening converts.
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The tiers this machine can execute, narrowest first. Always
    /// contains at least [`KernelTier::Scalar`] — the set property tests
    /// iterate to cover "every dispatch tier reachable on the host".
    pub fn supported() -> Vec<KernelTier> {
        Self::ALL.iter().copied().filter(|t| t.is_supported()).collect()
    }

    /// The widest supported tier (the default dispatch choice).
    pub fn best_supported() -> KernelTier {
        Self::ALL.iter().rev().copied().find(|t| t.is_supported()).unwrap_or(KernelTier::Scalar)
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Pure dispatch policy: the widest supported tier, unless `requested`
/// names a supported tier. Unknown or unsupported requests fall back to
/// the default (the kernels must keep working on machines whose
/// environment carries a stale override).
pub fn select_tier(requested: Option<&str>) -> KernelTier {
    match requested.and_then(KernelTier::parse) {
        Some(t) if t.is_supported() => t,
        _ => KernelTier::best_supported(),
    }
}

/// The process-wide kernel tier: [`select_tier`] over `ZSKIP_KERNEL`,
/// decided once at first use and cached.
pub fn dispatch() -> KernelTier {
    static TIER: OnceLock<KernelTier> = OnceLock::new();
    *TIER.get_or_init(|| select_tier(std::env::var(KERNEL_ENV).ok().as_deref()))
}

/// Clamps a tier to what the machine supports (scalar otherwise). Keeps
/// the explicit-tier kernel entry points safe to call with any tier value.
#[inline]
fn effective(tier: KernelTier) -> KernelTier {
    if tier.is_supported() {
        tier
    } else {
        KernelTier::Scalar
    }
}

/// `acc[i] += w * xs[i]` over `i64` accumulators — the packed-nonzero tap
/// update of `conv2d_quant`, where one weight streams against a contiguous
/// input run (the paper's one-weight-per-cycle application order).
///
/// Bit-identical across tiers for any `w` in the `Sm8` product range
/// (`|w| <= 127`): per-element addends fit `i16` exactly and `i64`
/// accumulation cannot overflow from `Sm8`-ranged data.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy_i64(tier: KernelTier, acc: &mut [i64], xs: &[Sm8], w: i32) {
    assert_eq!(acc.len(), xs.len(), "axpy length mismatch");
    match effective(tier) {
        KernelTier::Scalar => axpy_i64_scalar(acc, xs, w),
        // SAFETY: `effective` verified the feature is available on this CPU.
        #[cfg(target_arch = "x86_64")]
        KernelTier::Sse2 => unsafe { x86::axpy_i64_sse2(acc, xs, w) },
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => unsafe { x86::axpy_i64_avx2(acc, xs, w) },
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx512 => unsafe { x86::axpy_i64_avx512(acc, xs, w) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => axpy_i64_scalar(acc, xs, w),
    }
}

/// `acc[i] += w * xs[i]` over `i32` accumulators — the row update of the
/// quantized GEMM. The caller must bound the number of accumulated rows so
/// no `i32` accumulator overflows: each addend is at most `127 * 127 =
/// 16129` in magnitude, so up to `2^31 / 16129 > 133_000` rows are safe
/// between flushes (the GEMM flushes every [`GEMM_I32_CHUNK_ROWS`]).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn axpy_i32(tier: KernelTier, acc: &mut [i32], xs: &[Sm8], w: i32) {
    assert_eq!(acc.len(), xs.len(), "axpy length mismatch");
    match effective(tier) {
        KernelTier::Scalar => axpy_i32_scalar(acc, xs, w),
        // SAFETY: `effective` verified the feature is available on this CPU.
        #[cfg(target_arch = "x86_64")]
        KernelTier::Sse2 => unsafe { x86::axpy_i32_sse2(acc, xs, w) },
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => unsafe { x86::axpy_i32_avx2(acc, xs, w) },
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx512 => unsafe { x86::axpy_i32_avx512(acc, xs, w) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => axpy_i32_scalar(acc, xs, w),
    }
}

/// Rows the quantized GEMM may accumulate in `i32` between `i64` flushes
/// without overflow: `8192 * 16129 = 1.3e8`, two orders of magnitude under
/// `i32::MAX` (margin for the bias-free partial sums both signs).
pub const GEMM_I32_CHUNK_ROWS: usize = 8192;

fn axpy_i64_scalar(acc: &mut [i64], xs: &[Sm8], w: i32) {
    let w = w as i64;
    for (a, &x) in acc.iter_mut().zip(xs) {
        *a += w * x.to_i32() as i64;
    }
}

fn axpy_i32_scalar(acc: &mut [i32], xs: &[Sm8], w: i32) {
    for (a, &x) in acc.iter_mut().zip(xs) {
        *a += w * x.to_i32();
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! `std::arch::x86_64` kernel bodies. Every function carries a
    //! `#[target_feature]` attribute; callers must have verified the
    //! feature via `KernelTier::is_supported` (the `effective` clamp in
    //! the public wrappers does this).
    //!
    //! `Sm8` is `#[repr(transparent)]` over `u8`, so an `&[Sm8]` is
    //! byte-loadable directly into vector registers.

    use super::Sm8;
    use std::arch::x86_64::*;

    /// Branch-free sign+magnitude decode of 16 zero-extended bytes held in
    /// 16-bit lanes: `(mag ^ neg) - neg`, where `neg` smears bit 7 of each
    /// byte across its lane. Identical per-lane to `Sm8::decode_i16`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn decode16_avx2(b16: __m256i) -> __m256i {
        let mag = _mm256_and_si256(b16, _mm256_set1_epi16(0x7f));
        let neg = _mm256_srai_epi16(_mm256_slli_epi16(b16, 8), 15);
        _mm256_sub_epi16(_mm256_xor_si256(mag, neg), neg)
    }

    /// Same decode, 32 lanes. The shift/multiply i16 ops are AVX-512BW;
    /// the bitwise ops are AVX-512F.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn decode32_avx512(b16: __m512i) -> __m512i {
        let mag = _mm512_and_si512(b16, _mm512_set1_epi16(0x7f));
        let neg = _mm512_srai_epi16::<15>(_mm512_slli_epi16::<8>(b16));
        _mm512_sub_epi16(_mm512_xor_si512(mag, neg), neg)
    }

    /// Same decode, 8 lanes, SSE2-only ops.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn decode8_sse2(b16: __m128i) -> __m128i {
        let mag = _mm_and_si128(b16, _mm_set1_epi16(0x7f));
        let neg = _mm_srai_epi16(_mm_slli_epi16(b16, 8), 15);
        _mm_sub_epi16(_mm_xor_si128(mag, neg), neg)
    }

    /// Adds 8 sign-extended `i32` lanes into 8 consecutive `i64` slots.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn add_i32x8_into_i64(acc: *mut i64, v: __m256i) {
        let q0 = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v));
        let q1 = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1));
        let a0 = _mm256_loadu_si256(acc as *const __m256i);
        _mm256_storeu_si256(acc as *mut __m256i, _mm256_add_epi64(a0, q0));
        let a1 = _mm256_loadu_si256(acc.add(4) as *const __m256i);
        _mm256_storeu_si256(acc.add(4) as *mut __m256i, _mm256_add_epi64(a1, q1));
    }

    /// Adds 16 sign-extended `i32` lanes into 16 consecutive `i64` slots.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn add_i32x16_into_i64(acc: *mut i64, v: __m512i) {
        let q0 = _mm512_cvtepi32_epi64(_mm512_castsi512_si256(v));
        let q1 = _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64::<1>(v));
        let a0 = _mm512_loadu_si512(acc as *const _);
        _mm512_storeu_si512(acc as *mut _, _mm512_add_epi64(a0, q0));
        let a1 = _mm512_loadu_si512(acc.add(8) as *const _);
        _mm512_storeu_si512(acc.add(8) as *mut _, _mm512_add_epi64(a1, q1));
    }

    /// 32-wide tap update: decode two tile rows of inputs, multiply by the
    /// broadcast weight in `i16` (exact), widen through `i32` to `i64`.
    /// Same dataflow as the AVX2 kernel at double width; the sub-32
    /// remainder runs the scalar tail, so short valid-spans stay exact.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn axpy_i64_avx512(acc: &mut [i64], xs: &[Sm8], w: i32) {
        let n = xs.len();
        let wv = _mm512_set1_epi16(w as i16);
        let mut i = 0;
        while i + 32 <= n {
            let bytes = _mm256_loadu_si256(xs.as_ptr().add(i) as *const __m256i);
            let prod = _mm512_mullo_epi16(decode32_avx512(_mm512_cvtepu8_epi16(bytes)), wv);
            let lo = _mm512_cvtepi16_epi32(_mm512_castsi512_si256(prod));
            let hi = _mm512_cvtepi16_epi32(_mm512_extracti64x4_epi64::<1>(prod));
            add_i32x16_into_i64(acc.as_mut_ptr().add(i), lo);
            add_i32x16_into_i64(acc.as_mut_ptr().add(i + 16), hi);
            i += 32;
        }
        super::axpy_i64_scalar(&mut acc[i..], &xs[i..], w);
    }

    /// 32-wide GEMM row update into `i32` accumulators.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn axpy_i32_avx512(acc: &mut [i32], xs: &[Sm8], w: i32) {
        let n = xs.len();
        let wv = _mm512_set1_epi16(w as i16);
        let mut i = 0;
        while i + 32 <= n {
            let bytes = _mm256_loadu_si256(xs.as_ptr().add(i) as *const __m256i);
            let prod = _mm512_mullo_epi16(decode32_avx512(_mm512_cvtepu8_epi16(bytes)), wv);
            let lo = _mm512_cvtepi16_epi32(_mm512_castsi512_si256(prod));
            let hi = _mm512_cvtepi16_epi32(_mm512_extracti64x4_epi64::<1>(prod));
            let base = acc.as_mut_ptr().add(i);
            let a0 = _mm512_loadu_si512(base as *const _);
            _mm512_storeu_si512(base as *mut _, _mm512_add_epi32(a0, lo));
            let a1 = _mm512_loadu_si512(base.add(16) as *const _);
            _mm512_storeu_si512(base.add(16) as *mut _, _mm512_add_epi32(a1, hi));
            i += 32;
        }
        super::axpy_i32_scalar(&mut acc[i..], &xs[i..], w);
    }

    /// 16-wide tap update: decode one tile row of inputs, multiply by the
    /// broadcast weight in `i16` (exact), widen through `i32` to `i64`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_i64_avx2(acc: &mut [i64], xs: &[Sm8], w: i32) {
        let n = xs.len();
        let wv = _mm256_set1_epi16(w as i16);
        let mut i = 0;
        while i + 16 <= n {
            let bytes = _mm_loadu_si128(xs.as_ptr().add(i) as *const __m128i);
            let prod = _mm256_mullo_epi16(decode16_avx2(_mm256_cvtepu8_epi16(bytes)), wv);
            let lo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod));
            let hi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod, 1));
            add_i32x8_into_i64(acc.as_mut_ptr().add(i), lo);
            add_i32x8_into_i64(acc.as_mut_ptr().add(i + 8), hi);
            i += 16;
        }
        super::axpy_i64_scalar(&mut acc[i..], &xs[i..], w);
    }

    /// 8-wide tap update using SSE2-era widening (unpack + arithmetic
    /// shift for `i16 -> i32`, unpack with a sign mask for `i32 -> i64`).
    #[target_feature(enable = "sse2")]
    pub unsafe fn axpy_i64_sse2(acc: &mut [i64], xs: &[Sm8], w: i32) {
        let n = xs.len();
        let wv = _mm_set1_epi16(w as i16);
        let zero = _mm_setzero_si128();
        let mut i = 0;
        while i + 8 <= n {
            let bytes = _mm_loadl_epi64(xs.as_ptr().add(i) as *const __m128i);
            let prod = _mm_mullo_epi16(decode8_sse2(_mm_unpacklo_epi8(bytes, zero)), wv);
            // Sign-extend i16 lanes to i32 by self-interleave + shift.
            let p32 = [
                _mm_srai_epi32(_mm_unpacklo_epi16(prod, prod), 16),
                _mm_srai_epi32(_mm_unpackhi_epi16(prod, prod), 16),
            ];
            for (half, p) in p32.iter().enumerate() {
                let sign = _mm_srai_epi32(*p, 31);
                let q0 = _mm_unpacklo_epi32(*p, sign);
                let q1 = _mm_unpackhi_epi32(*p, sign);
                let base = acc.as_mut_ptr().add(i + 4 * half);
                let a0 = _mm_loadu_si128(base as *const __m128i);
                _mm_storeu_si128(base as *mut __m128i, _mm_add_epi64(a0, q0));
                let a1 = _mm_loadu_si128(base.add(2) as *const __m128i);
                _mm_storeu_si128(base.add(2) as *mut __m128i, _mm_add_epi64(a1, q1));
            }
            i += 8;
        }
        super::axpy_i64_scalar(&mut acc[i..], &xs[i..], w);
    }

    /// 16-wide GEMM row update into `i32` accumulators.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_i32_avx2(acc: &mut [i32], xs: &[Sm8], w: i32) {
        let n = xs.len();
        let wv = _mm256_set1_epi16(w as i16);
        let mut i = 0;
        while i + 16 <= n {
            let bytes = _mm_loadu_si128(xs.as_ptr().add(i) as *const __m128i);
            let prod = _mm256_mullo_epi16(decode16_avx2(_mm256_cvtepu8_epi16(bytes)), wv);
            let lo = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod));
            let hi = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod, 1));
            let base = acc.as_mut_ptr().add(i);
            let a0 = _mm256_loadu_si256(base as *const __m256i);
            _mm256_storeu_si256(base as *mut __m256i, _mm256_add_epi32(a0, lo));
            let a1 = _mm256_loadu_si256(base.add(8) as *const __m256i);
            _mm256_storeu_si256(base.add(8) as *mut __m256i, _mm256_add_epi32(a1, hi));
            i += 16;
        }
        super::axpy_i32_scalar(&mut acc[i..], &xs[i..], w);
    }

    /// 16-wide GEMM row update into `i32` accumulators, SSE2-only ops.
    #[target_feature(enable = "sse2")]
    pub unsafe fn axpy_i32_sse2(acc: &mut [i32], xs: &[Sm8], w: i32) {
        let n = xs.len();
        let wv = _mm_set1_epi16(w as i16);
        let zero = _mm_setzero_si128();
        let mut i = 0;
        while i + 16 <= n {
            let bytes = _mm_loadu_si128(xs.as_ptr().add(i) as *const __m128i);
            let halves = [_mm_unpacklo_epi8(bytes, zero), _mm_unpackhi_epi8(bytes, zero)];
            for (h, b16) in halves.into_iter().enumerate() {
                let prod = _mm_mullo_epi16(decode8_sse2(b16), wv);
                let lo = _mm_srai_epi32(_mm_unpacklo_epi16(prod, prod), 16);
                let hi = _mm_srai_epi32(_mm_unpackhi_epi16(prod, prod), 16);
                let base = acc.as_mut_ptr().add(i + 8 * h);
                let a0 = _mm_loadu_si128(base as *const __m128i);
                _mm_storeu_si128(base as *mut __m128i, _mm_add_epi32(a0, lo));
                let a1 = _mm_loadu_si128(base.add(4) as *const __m128i);
                _mm_storeu_si128(base.add(4) as *mut __m128i, _mm_add_epi32(a1, hi));
            }
            i += 16;
        }
        super::axpy_i32_scalar(&mut acc[i..], &xs[i..], w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tier_names_round_trip() {
        for t in KernelTier::ALL {
            assert_eq!(KernelTier::parse(t.name()), Some(t));
            assert_eq!(KernelTier::parse(&t.name().to_uppercase()), Some(t));
            assert_eq!(t.to_string(), t.name());
        }
        assert_eq!(KernelTier::parse("avx512"), Some(KernelTier::Avx512));
        assert_eq!(KernelTier::parse("avx999"), None);
        assert_eq!(KernelTier::parse(""), None);
    }

    #[test]
    fn scalar_is_always_supported_and_listed_first() {
        assert!(KernelTier::Scalar.is_supported());
        let sup = KernelTier::supported();
        assert_eq!(sup[0], KernelTier::Scalar);
        assert!(sup.contains(&KernelTier::best_supported()));
    }

    #[test]
    fn select_tier_honors_supported_requests_and_ignores_junk() {
        assert_eq!(select_tier(Some("scalar")), KernelTier::Scalar);
        assert_eq!(select_tier(None), KernelTier::best_supported());
        assert_eq!(select_tier(Some("definitely-not-a-tier")), KernelTier::best_supported());
        for t in KernelTier::supported() {
            assert_eq!(select_tier(Some(t.name())), t);
        }
    }

    #[test]
    fn dispatch_is_stable_and_supported() {
        let a = dispatch();
        assert!(a.is_supported());
        assert_eq!(dispatch(), a, "dispatch must be cached");
    }

    fn sm8_vec(seed: u64, n: usize) -> Vec<Sm8> {
        let mut rng = zskip_fault::SplitMix64::new(seed);
        (0..n).map(|_| Sm8::from_bits(rng.next_u64() as u8)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn axpy_tiers_match_scalar(
            n in 0usize..70, // crosses the 8-, 16- and 32-lane boundaries and tails
            w in -127i32..=127,
            seed in 0u64..1000,
        ) {
            let xs = sm8_vec(seed, n);
            let base: Vec<i64> = (0..n as i64).map(|i| i * 1_000_003 - 7).collect();
            let base32: Vec<i32> = (0..n as i32).map(|i| i * 1003 - 7).collect();
            let mut want64 = base.clone();
            axpy_i64(KernelTier::Scalar, &mut want64, &xs, w);
            let mut want32 = base32.clone();
            axpy_i32(KernelTier::Scalar, &mut want32, &xs, w);
            for tier in KernelTier::supported() {
                let mut got64 = base.clone();
                axpy_i64(tier, &mut got64, &xs, w);
                prop_assert_eq!(&got64, &want64, "axpy_i64 tier {}", tier);
                let mut got32 = base32.clone();
                axpy_i32(tier, &mut got32, &xs, w);
                prop_assert_eq!(&got32, &want32, "axpy_i32 tier {}", tier);
            }
        }
    }

    #[test]
    fn unsupported_tier_falls_back_to_scalar_result() {
        // `effective` clamps: calling any tier value is safe and exact,
        // even one the host lacks (regression guard for non-x86 hosts).
        let xs = sm8_vec(3, 37);
        let mut a = vec![5i64; 37];
        let mut b = vec![5i64; 37];
        axpy_i64(KernelTier::Scalar, &mut a, &xs, -77);
        axpy_i64(KernelTier::Avx2, &mut b, &xs, -77);
        assert_eq!(a, b);
    }
}
