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
//!   so `mullo_epi16` computes it exactly — the low half *is* the product —
//!   and `pmaddwd`'s sum of two adjacent products fits its `i32` lane.
//! * Accumulation is pure integer addition, which is associative and
//!   commutative, so any lane/order regrouping leaves the sum unchanged
//!   (`i32` lanes are flushed into `i64` before they can overflow; see
//!   [`DOT_FLUSH_STEPS`]).
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

/// Weight rows of one register block of [`dot_nt`]: the paper computes
/// "four OFM tiles to completion concurrently" against one fetched IFM
/// tile; here two filters share each loaded patch vector.
const DOT_MR: usize = 2;
/// Patch columns of one register block of [`dot_nt`]: each decoded weight
/// vector is multiplied against four output positions.
const DOT_NR: usize = 4;

/// `pmaddwd` steps an `i32` lane of [`dot_nt`] absorbs between `i64`
/// flushes. A step adds at most `2 * 127 * 127 = 32258` to a lane; the
/// reduction tail is one more step, and a flush first sums a vector's (at
/// most 16) lanes in `i32` — all of which the assertion below covers, so
/// the kernel is exact at any reduction length.
pub const DOT_FLUSH_STEPS: usize = 1024;
const _: () = assert!((DOT_FLUSH_STEPS as i64 + 1) * (2 * 127 * 127) * 16 <= i32::MAX as i64);

/// Output-stationary integer GEMM in dot-product ("NT") form: calls
/// `emit(i, j, Σ_r w[i * len + r] · p[j * len + r])` exactly once for every
/// weight row `i < rows` and patch column `j < cols`, in no particular
/// order. Both operands are contiguous along the reduction `r`, which is
/// where the vector lanes run, so lane occupancy does not depend on how
/// many columns there are — a deep conv layer's 2x2 plane (`cols = 4`) and
/// an FC layer (`cols = 1`) keep the lanes as busy as a 32x32 plane.
///
/// `w` holds raw `Sm8` weights, decoded on the fly; `p` holds *decoded*
/// `Sm8` values (`|p| <= 127`, what [`Sm8::decode_i16`] returns). Each
/// `DOT_MR x DOT_NR` block of sums is accumulated to completion in
/// `i32` vector registers (`pmaddwd` + `paddd`), flushed into `i64` every
/// [`DOT_FLUSH_STEPS`] steps. Zero weights are multiplied like any other.
///
/// Bit-identical across tiers: products are exact and integer addition
/// reassociates.
///
/// # Panics
/// Panics unless `w.len() == rows * len` and `p.len() == cols * len`.
pub fn dot_nt(
    tier: KernelTier,
    w: &[Sm8],
    p: &[i16],
    [rows, cols, len]: [usize; 3],
    emit: impl FnMut(usize, usize, i64),
) {
    assert_eq!(w.len(), rows * len, "weight matrix is not rows x len");
    assert_eq!(p.len(), cols * len, "patch matrix is not cols x len");
    // SAFETY: the asserts above are the bodies' only requirement on the
    // slices; `effective` verified the tier's features on this CPU.
    unsafe {
        match effective(tier) {
            KernelTier::Scalar => dot_scalar::dot_nt(w, p, rows, cols, len, emit),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Sse2 => x86::dot_sse2::dot_nt(w, p, rows, cols, len, emit),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => x86::dot_avx2::dot_nt(w, p, rows, cols, len, emit),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => x86::dot_avx512::dot_nt(w, p, rows, cols, len, emit),
            #[cfg(not(target_arch = "x86_64"))]
            _ => dot_scalar::dot_nt(w, p, rows, cols, len, emit),
        }
    }
}

/// Stamps out one tier's [`dot_nt`] body as a module: the register block
/// and the loops around it, all under the tier's `#[target_feature]` so
/// the block inlines and its accumulators never leave registers. A tier
/// is `LANES` `i16` lanes wide and supplies five operations on its vector
/// type: `zero()`, `load_w(*const Sm8)` (decoding `LANES` weights to `i16`
/// lanes), `load_p(*const i16)`, `madd_acc(acc, w, p)` (`acc + pmaddwd(w,
/// p)` in `i32` lanes) and `hsum(acc) -> i32`.
macro_rules! dot_nt_tier {
    ($(#[$feature:meta])? $name:ident, $lanes:literal, $ops:ident) => {
        pub(super) mod $name {
            use super::$ops::{hsum, load_p, load_w, madd_acc, zero};
            use crate::simd::{DOT_FLUSH_STEPS, DOT_MR, DOT_NR};
            use zskip_quant::Sm8;

            const LANES: usize = $lanes;

            /// Adds the sums of one `MR x NR` block into the top-left
            /// corner of `sums`: weight rows at `w`, `w + len`, ...; patch
            /// columns at `p`, `p + len`, ...; `p_tail[j]` is column `j`'s
            /// last `len % LANES` values, zero-padded.
            ///
            /// # Safety
            /// Every row and column must be readable for `len` elements
            /// — the last row for `LANES` elements from its tail on when
            /// `w_tail_in_place` — and the CPU must support the tier.
            #[inline]
            $(#[$feature])?
            unsafe fn block<const MR: usize, const NR: usize>(
                w: *const Sm8,
                p: *const i16,
                len: usize,
                p_tail: &[[i16; LANES]; DOT_NR],
                w_tail_in_place: bool,
                sums: &mut [[i64; DOT_NR]; DOT_MR],
            ) {
                let full = len / LANES * LANES;
                let mut r = 0;
                loop {
                    let end = full.min(r + DOT_FLUSH_STEPS * LANES);
                    let mut acc = [[zero(); NR]; MR];
                    while r < end {
                        for (i, acc) in acc.iter_mut().enumerate() {
                            let wv = load_w(w.add(i * len + r));
                            for (j, acc) in acc.iter_mut().enumerate() {
                                *acc = madd_acc(*acc, wv, load_p(p.add(j * len + r)));
                            }
                        }
                        r += LANES;
                    }
                    let last = r == full;
                    if last && full < len {
                        // The reduction tail, as one more step against
                        // zero-padded patch values: a zero lane adds
                        // nothing whatever weight it meets, so the weight
                        // vector may run on into the next row — or, where
                        // that would leave the matrix, be a padded copy.
                        for (i, acc) in acc.iter_mut().enumerate() {
                            let mut w_tail = [Sm8::ZERO; LANES];
                            let wv = if w_tail_in_place {
                                load_w(w.add(i * len + full))
                            } else {
                                std::ptr::copy_nonoverlapping(w.add(i * len + full), w_tail.as_mut_ptr(), len - full);
                                load_w(w_tail.as_ptr())
                            };
                            for (acc, p_tail) in acc.iter_mut().zip(p_tail) {
                                *acc = madd_acc(*acc, wv, load_p(p_tail.as_ptr()));
                            }
                        }
                    }
                    for (sums, acc) in sums.iter_mut().zip(acc) {
                        for (sum, acc) in sums.iter_mut().zip(acc) {
                            *sum += hsum(acc) as i64;
                        }
                    }
                    if last {
                        return;
                    }
                }
            }

            /// The tier's [`dot_nt`](crate::simd::dot_nt) body. Column
            /// blocks are the outer loop, so a block of patch columns stays
            /// in L1 while the weight rows stream past it once; a column
            /// remainder runs one column at a time.
            ///
            /// # Safety
            /// `w.len() == rows * len`, `p.len() == cols * len`, and the
            /// CPU must support the tier.
            $(#[$feature])?
            pub unsafe fn dot_nt(
                w: &[Sm8],
                p: &[i16],
                rows: usize,
                cols: usize,
                len: usize,
                mut emit: impl FnMut(usize, usize, i64),
            ) {
                let full = len / LANES * LANES;
                let mut j = 0;
                while j < cols {
                    let nr = if cols - j >= DOT_NR { DOT_NR } else { 1 };
                    let pj = p.as_ptr().add(j * len);
                    let mut p_tail = [[0i16; LANES]; DOT_NR];
                    for (c, tail) in p_tail.iter_mut().enumerate().take(nr) {
                        std::ptr::copy_nonoverlapping(pj.add(c * len + full), tail.as_mut_ptr(), len - full);
                    }
                    let mut i = 0;
                    while i < rows {
                        let mr = DOT_MR.min(rows - i);
                        let wi = w.as_ptr().add(i * len);
                        // Whether a full vector at the block's last
                        // tail still ends inside `w`.
                        let in_place = (i + mr - 1) * len + full + LANES <= w.len();
                        let mut sums = [[0i64; DOT_NR]; DOT_MR];
                        match (mr, nr) {
                            (DOT_MR, DOT_NR) => block::<DOT_MR, DOT_NR>(wi, pj, len, &p_tail, in_place, &mut sums),
                            (DOT_MR, _) => block::<DOT_MR, 1>(wi, pj, len, &p_tail, in_place, &mut sums),
                            (_, DOT_NR) => block::<1, DOT_NR>(wi, pj, len, &p_tail, in_place, &mut sums),
                            _ => block::<1, 1>(wi, pj, len, &p_tail, in_place, &mut sums),
                        }
                        for (a, sums) in sums.iter().enumerate().take(mr) {
                            for (b, &sum) in sums.iter().enumerate().take(nr) {
                                emit(i + a, j + b, sum);
                            }
                        }
                        i += mr;
                    }
                    j += nr;
                }
            }
        }
    };
}

/// The portable tier of [`dot_nt`]: one "lane", so a step is one product.
mod scalar_ops {
    use zskip_quant::Sm8;

    #[inline(always)]
    pub fn zero() -> i32 {
        0
    }
    /// # Safety
    /// `w` must be readable.
    #[inline(always)]
    pub unsafe fn load_w(w: *const Sm8) -> i32 {
        (*w).decode_i16() as i32
    }
    /// # Safety
    /// `p` must be readable.
    #[inline(always)]
    pub unsafe fn load_p(p: *const i16) -> i32 {
        *p as i32
    }
    #[inline(always)]
    pub fn madd_acc(acc: i32, w: i32, p: i32) -> i32 {
        acc + w * p
    }
    #[inline(always)]
    pub fn hsum(acc: i32) -> i32 {
        acc
    }
}

dot_nt_tier!(dot_scalar, 1, scalar_ops);

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

    /// Sum of the four `i32` lanes.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn hsum_i32x4(v: __m128i) -> i32 {
        let v = _mm_add_epi32(v, _mm_shuffle_epi32::<0b01_00_11_10>(v));
        _mm_cvtsi128_si32(_mm_add_epi32(v, _mm_shuffle_epi32::<0b10_11_00_01>(v)))
    }

    /// The 8-lane tier of `dot_nt`.
    mod sse2_ops {
        use super::*;

        #[inline]
        #[target_feature(enable = "sse2")]
        pub unsafe fn zero() -> __m128i {
            _mm_setzero_si128()
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        pub unsafe fn load_w(w: *const Sm8) -> __m128i {
            decode8_sse2(_mm_unpacklo_epi8(_mm_loadl_epi64(w as *const __m128i), _mm_setzero_si128()))
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        pub unsafe fn load_p(p: *const i16) -> __m128i {
            _mm_loadu_si128(p as *const __m128i)
        }
        #[inline]
        #[target_feature(enable = "sse2")]
        pub unsafe fn madd_acc(acc: __m128i, w: __m128i, p: __m128i) -> __m128i {
            _mm_add_epi32(acc, _mm_madd_epi16(w, p))
        }
        pub(super) use super::hsum_i32x4 as hsum;
    }

    /// The 16-lane tier of `dot_nt`.
    mod avx2_ops {
        use super::*;

        #[inline]
        #[target_feature(enable = "avx2")]
        pub unsafe fn zero() -> __m256i {
            _mm256_setzero_si256()
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        pub unsafe fn load_w(w: *const Sm8) -> __m256i {
            decode16_avx2(_mm256_cvtepu8_epi16(_mm_loadu_si128(w as *const __m128i)))
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        pub unsafe fn load_p(p: *const i16) -> __m256i {
            _mm256_loadu_si256(p as *const __m256i)
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        pub unsafe fn madd_acc(acc: __m256i, w: __m256i, p: __m256i) -> __m256i {
            _mm256_add_epi32(acc, _mm256_madd_epi16(w, p))
        }
        #[inline]
        #[target_feature(enable = "avx2")]
        pub unsafe fn hsum(v: __m256i) -> i32 {
            hsum_i32x4(_mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v)))
        }
    }

    /// The 32-lane tier of `dot_nt`.
    mod avx512_ops {
        use super::*;

        #[inline]
        #[target_feature(enable = "avx512f,avx512bw")]
        pub unsafe fn zero() -> __m512i {
            _mm512_setzero_si512()
        }
        #[inline]
        #[target_feature(enable = "avx512f,avx512bw")]
        pub unsafe fn load_w(w: *const Sm8) -> __m512i {
            decode32_avx512(_mm512_cvtepu8_epi16(_mm256_loadu_si256(w as *const __m256i)))
        }
        #[inline]
        #[target_feature(enable = "avx512f,avx512bw")]
        pub unsafe fn load_p(p: *const i16) -> __m512i {
            _mm512_loadu_si512(p as *const _)
        }
        #[inline]
        #[target_feature(enable = "avx512f,avx512bw")]
        pub unsafe fn madd_acc(acc: __m512i, w: __m512i, p: __m512i) -> __m512i {
            _mm512_add_epi32(acc, _mm512_madd_epi16(w, p))
        }
        #[inline]
        #[target_feature(enable = "avx512f,avx512bw")]
        pub unsafe fn hsum(v: __m512i) -> i32 {
            _mm512_reduce_add_epi32(v)
        }
    }

    dot_nt_tier!(#[target_feature(enable = "sse2")] dot_sse2, 8, sse2_ops);
    dot_nt_tier!(#[target_feature(enable = "avx2")] dot_avx2, 16, avx2_ops);
    dot_nt_tier!(#[target_feature(enable = "avx512f,avx512bw")] dot_avx512, 32, avx512_ops);
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

    /// [`dot_nt`] collected into a `rows x cols` matrix, checking that
    /// every element is emitted exactly once.
    fn dot_matrix(tier: KernelTier, w: &[Sm8], x: &[Sm8], dims: [usize; 3]) -> Vec<i64> {
        let [rows, cols, _] = dims;
        let p: Vec<i16> = x.iter().map(|v| v.decode_i16()).collect();
        let mut out = vec![None; rows * cols];
        dot_nt(tier, w, &p, dims, |i, j, sum| {
            assert!(out[i * cols + j].replace(sum).is_none(), "({i}, {j}) emitted twice");
        });
        out.into_iter().map(|v| v.expect("every element emitted")).collect()
    }

    /// The independent oracle: sign+magnitude products, one at a time.
    fn dot_oracle(w: &[Sm8], x: &[Sm8], [rows, cols, len]: [usize; 3]) -> Vec<i64> {
        let mut out = Vec::new();
        for i in 0..rows {
            for j in 0..cols {
                let (w, x) = (&w[i * len..][..len], &x[j * len..][..len]);
                out.push(w.iter().zip(x).map(|(w, x)| w.mul_exact(*x) as i64).sum());
            }
        }
        out
    }

    #[test]
    fn dot_tiers_match_the_oracle_at_every_length_and_bit_pattern() {
        // 3 rows = a full row block + a remainder row; 6 columns = a full
        // column block + two single columns. Consecutive bit patterns, so
        // every one of the 256 (negative zero 0x80 included) meets every
        // lane position as the length sweeps every lane boundary and tail.
        for len in 0..=200usize {
            let dims = [3, 6, len];
            let w: Vec<Sm8> = (0..3 * len).map(|i| Sm8::from_bits((i * 7 + len) as u8)).collect();
            let x: Vec<Sm8> = (0..6 * len).map(|i| Sm8::from_bits((i * 13 + 5 * len + 0x80) as u8)).collect();
            let want = dot_oracle(&w, &x, dims);
            for tier in KernelTier::supported() {
                assert_eq!(dot_matrix(tier, &w, &x, dims), want, "tier {tier}, len {len}");
            }
        }
    }

    #[test]
    fn dot_tiers_match_the_oracle_at_every_block_remainder() {
        for rows in 0..=2 * DOT_MR + 1 {
            for cols in 0..=2 * DOT_NR + 1 {
                let dims = [rows, cols, 37];
                let (w, x) = (sm8_vec(rows as u64, rows * 37), sm8_vec(100 + cols as u64, cols * 37));
                let want = dot_oracle(&w, &x, dims);
                for tier in KernelTier::supported() {
                    assert_eq!(dot_matrix(tier, &w, &x, dims), want, "tier {tier}, {rows} x {cols}");
                }
            }
        }
    }

    #[test]
    fn dot_is_exact_at_the_worst_case_around_the_i32_flush() {
        // Every product +-127 * 127 — the most an `i32` lane can gain per
        // step — at reduction lengths just below, at and above each tier's
        // flush point (with the longest tail), two flushes deep, and at
        // VGG's fc6 length for a 224x224 input.
        let mut lens = vec![25_088];
        for lanes in [1, 8, 16, 32] {
            let chunk = DOT_FLUSH_STEPS * lanes;
            lens.extend([chunk - 1, chunk, chunk + 1, chunk + lanes - 1, 2 * chunk + 1]);
        }
        for len in lens {
            let dims = [DOT_MR + 1, DOT_NR + 1, len];
            let w: Vec<Sm8> = (0..dims[0]).flat_map(|i| vec![if i == 1 { Sm8::MIN } else { Sm8::MAX }; len]).collect();
            let x = vec![Sm8::MAX; dims[1] * len];
            let want: Vec<i64> = (0..dims[0])
                .flat_map(|i| vec![if i == 1 { -16129 } else { 16129 } * len as i64; dims[1]])
                .collect();
            for tier in KernelTier::supported() {
                assert_eq!(dot_matrix(tier, &w, &x, dims), want, "tier {tier}, len {len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn dot_tiers_match_the_oracle_on_random_shapes(
            rows in 0usize..6,
            cols in 0usize..10,
            len in 0usize..70,
            seed in 0u64..1000,
        ) {
            let dims = [rows, cols, len];
            let (w, x) = (sm8_vec(seed, rows * len), sm8_vec(seed + 1000, cols * len));
            let want = dot_oracle(&w, &x, dims);
            for tier in KernelTier::supported() {
                prop_assert_eq!(dot_matrix(tier, &w, &x, dims), &want[..], "tier {}", tier);
            }
        }
    }

    #[test]
    fn unsupported_tier_falls_back_to_scalar_result() {
        // `effective` clamps: calling any tier value is safe and exact,
        // even one the host lacks (regression guard for non-x86 hosts).
        let dims = [3, 5, 37];
        let (w, x) = (sm8_vec(3, 3 * 37), sm8_vec(4, 5 * 37));
        let want = dot_matrix(KernelTier::Scalar, &w, &x, dims);
        for tier in KernelTier::ALL {
            assert_eq!(dot_matrix(tier, &w, &x, dims), want, "tier {tier}");
        }
    }
}
