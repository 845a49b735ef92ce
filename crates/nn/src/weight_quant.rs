//! The 8-bit weight quantizer behind [`crate::Network::quantize`]: a
//! layer's max-abs scan and its rounding to sign+magnitude. The plan walk
//! rounds the network input with the same [`quantize`].
//!
//! [`QuantParams::from_max_abs`]'s fold and [`QuantParams::quantize`] are
//! the one definition of both, the oracle and the body of every tier
//! without the vector kernel. On the AVX-512 tier the kernel runs the same
//! operations 16 lanes at a time and needs AVX-512F alone:
//!
//! * the scan keeps the running maximum as `vmaxps`'s second operand,
//!   which is what it returns when either operand is NaN — so a NaN weight
//!   leaves the maximum as it was, like `f32::max` in the fold;
//! * the rounding divides by the scale (`vdivps`, correctly rounded like
//!   the scalar `/`), sends NaN quotients to 0 as `q as i32` does, clamps
//!   to ±256, truncates, steps one away from zero where the exact fraction
//!   reaches ½, saturates the magnitude at 127 and sets the sign bit of a
//!   negative result — `vpmovdb` narrows the 16 lanes to 16 bytes.
//!
//! A tier the host lacks falls back to the scalar body, and the kernel is
//! checked against it on every `f32` bit pattern (`exhaustive_tests`).

use crate::simd::KernelTier;
use zskip_quant::{QuantParams, Sm8};

/// Rough cost of scanning and rounding one weight on `tier`, measured on
/// 2²⁴ weights on a 2-vCPU AVX-512 Xeon: ≈ 1.3 ns in the AVX-512 kernel
/// (0.4 ns scan, 0.9 ns round; memory-bound), ≈ 5 ns in the scalar body
/// (0.8 ns scan, 4.4 ns round).
pub(crate) fn ns_per_weight(tier: KernelTier) -> usize {
    match tier {
        KernelTier::Avx512 | KernelTier::Amx => 1,
        _ => 5,
    }
}

/// Whether `tier` runs the vector kernel on this host.
fn vector(tier: KernelTier) -> bool {
    cfg!(target_arch = "x86_64") && tier.runs_avx512()
}

/// The largest magnitude in `w`, NaNs ignored (0 for an empty or all-NaN
/// slice): the fold [`QuantParams::from_max_abs`] scans with.
pub(crate) fn max_abs(tier: KernelTier, w: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if vector(tier) {
        // SAFETY: the tier's features (AVX-512F among them) are present.
        return unsafe { avx512::max_abs(w) };
    }
    let _ = tier;
    w.iter().fold(0f32, |m, &v| m.max(v.abs()))
}

/// [`QuantParams::quantize`] of every weight of `w` into `out`.
///
/// # Panics
/// Panics if the two slices differ in length.
pub(crate) fn quantize(tier: KernelTier, params: QuantParams, w: &[f32], out: &mut [Sm8]) {
    assert_eq!(w.len(), out.len(), "one quantized weight per weight");
    #[cfg(target_arch = "x86_64")]
    if vector(tier) {
        // SAFETY: the tier's features (AVX-512F among them) are present,
        // and `out` is as long as `w`.
        return unsafe { avx512::quantize(params.scale, w, out) };
    }
    let _ = tier;
    for (q, &v) in out.iter_mut().zip(w) {
        *q = params.quantize(v);
    }
}

/// The scan and the rounding 16 lanes at a time on 512-bit registers:
/// AVX-512F alone.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::*;
    use std::arch::x86_64::*;

    /// The lanes `0..n` of a 16-lane register (`n` at most 16).
    fn first(n: usize) -> __mmask16 {
        ((1u32 << n) - 1) as __mmask16
    }

    /// `|v|` lane-wise: the sign bit cleared.
    #[target_feature(enable = "avx512f")]
    unsafe fn abs(v: __m512) -> __m512 {
        _mm512_castsi512_ps(_mm512_and_si512(_mm512_castps_si512(v), _mm512_set1_epi32(0x7fff_ffff)))
    }

    /// [`super::max_abs`]: four running maxima over 64-value blocks, then
    /// the tail under a mask (masked-off lanes read as +0).
    ///
    /// # Safety
    /// AVX-512F must be present.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn max_abs(w: &[f32]) -> f32 {
        let mut m = [_mm512_setzero_ps(); 4];
        let mut blocks = w.chunks_exact(64);
        for block in &mut blocks {
            for (j, m) in m.iter_mut().enumerate() {
                *m = _mm512_max_ps(abs(_mm512_loadu_ps(block.as_ptr().add(16 * j))), *m);
            }
        }
        // The maxima hold no NaN, so their order no longer matters.
        let mut acc = _mm512_max_ps(_mm512_max_ps(m[0], m[1]), _mm512_max_ps(m[2], m[3]));
        for rest in blocks.remainder().chunks(16) {
            acc = _mm512_max_ps(abs(_mm512_maskz_loadu_ps(first(rest.len()), rest.as_ptr())), acc);
        }
        _mm512_reduce_max_ps(acc)
    }

    /// [`QuantParams::quantize`] of 16 lanes, as sign+magnitude bits in
    /// `i32` lanes.
    #[target_feature(enable = "avx512f")]
    unsafe fn round16(v: __m512, scale: __m512) -> __m512i {
        let q = _mm512_div_ps(v, scale);
        let q = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask::<_CMP_ORD_Q>(q, q), q);
        let q = _mm512_min_ps(_mm512_max_ps(q, _mm512_set1_ps(-256.0)), _mm512_set1_ps(256.0));
        let t = _mm512_cvttps_epi32(q);
        let d = _mm512_sub_ps(q, _mm512_cvtepi32_ps(t));
        let one = _mm512_set1_epi32(1);
        let r = _mm512_mask_add_epi32(t, _mm512_cmp_ps_mask::<_CMP_GE_OQ>(d, _mm512_set1_ps(0.5)), t, one);
        let r = _mm512_mask_sub_epi32(r, _mm512_cmp_ps_mask::<_CMP_LE_OQ>(d, _mm512_set1_ps(-0.5)), r, one);
        let mag = _mm512_min_epi32(_mm512_abs_epi32(r), _mm512_set1_epi32(127));
        let negative = _mm512_cmplt_epi32_mask(r, _mm512_setzero_si512());
        _mm512_mask_or_epi32(mag, negative, mag, _mm512_set1_epi32(0x80))
    }

    /// [`super::quantize`]: 16 weights a step, the last step masked.
    ///
    /// # Safety
    /// AVX-512F must be present and `out` as long as `w`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn quantize(scale: f32, w: &[f32], out: &mut [Sm8]) {
        debug_assert_eq!(w.len(), out.len());
        let scale = _mm512_set1_ps(scale);
        // `Sm8` is a transparent byte.
        let dst = out.as_mut_ptr().cast::<i8>();
        for (i, run) in w.chunks(16).enumerate() {
            let k = first(run.len());
            let bits = round16(_mm512_maskz_loadu_ps(k, run.as_ptr()), scale);
            _mm512_mask_cvtepi32_storeu_epi8(dst.add(16 * i), k, bits);
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn avx512() -> bool {
        KernelTier::Avx512.is_supported()
    }

    /// The scalar fold `from_max_abs` scans with.
    fn fold(w: &[f32]) -> f32 {
        w.iter().fold(0f32, |m, &v| m.max(v.abs()))
    }

    /// A weight drawn to hit the edges: NaNs (quiet and signalling, either
    /// sign), ±0, ±inf, subnormals, halves `k + ½`, any bit pattern, and
    /// ordinary values.
    fn weight() -> impl Strategy<Value = f32> {
        prop_oneof![
            Just(f32::NAN),
            Just(-f32::NAN),
            Just(f32::from_bits(0x7f80_0001)),
            Just(f32::from_bits(0xffa0_0000)),
            Just(0.0f32),
            Just(-0.0f32),
            Just(f32::INFINITY),
            Just(f32::NEG_INFINITY),
            (1u32..0x80_0000, proptest::bool::ANY).prop_map(|(m, s)| f32::from_bits(m | u32::from(s) << 31)),
            (-300i32..300).prop_map(|k| k as f32 + 0.5),
            (0u32..=u32::MAX).prop_map(f32::from_bits),
            -200.0f32..200.0,
        ]
    }

    proptest! {
        /// Every length (tails included): the kernel's bytes equal
        /// `QuantParams::quantize`'s at scale 1 (where the `k + ½` draws
        /// are exact ties), at a power-of-two scale and at an arbitrary one.
        #[test]
        fn kernel_rounds_like_the_scalar_quantizer(
            w in prop::collection::vec(weight(), 0..80),
            exp in -130i32..120,
            scale in (1.0f32..2.0, -100i32..100).prop_map(|(m, e)| m * 2f32.powi(e)),
        ) {
            if !avx512() {
                return Ok(());
            }
            for scale in [1.0, 2f32.powi(exp), scale] {
                let params = QuantParams { scale };
                let mut got = vec![Sm8::from_bits(0x55); w.len()];
                quantize(KernelTier::Avx512, params, &w, &mut got);
                let want: Vec<u8> = w.iter().map(|&v| params.quantize(v).to_bits()).collect();
                prop_assert_eq!(Sm8::as_bytes(&got), &want[..], "scale {:e}", scale);
            }
        }

        /// The kernel's scan equals the scalar fold bit for bit, NaNs and
        /// signed zeros included.
        #[test]
        fn kernel_scan_equals_the_scalar_fold(w in prop::collection::vec(weight(), 0..200)) {
            if !avx512() {
                return Ok(());
            }
            prop_assert_eq!(max_abs(KernelTier::Avx512, &w).to_bits(), fold(&w).to_bits());
        }
    }

    #[test]
    fn scalar_tier_is_the_oracle() {
        let w = [0.5f32, -1.5, 2.49, f32::NAN, -0.0, 300.0];
        let params = QuantParams { scale: 1.0 };
        let mut got = [Sm8::ZERO; 6];
        quantize(KernelTier::Scalar, params, &w, &mut got);
        assert_eq!(got.map(Sm8::to_i32), [1, -2, 2, 0, 0, 127]);
        assert_eq!(max_abs(KernelTier::Scalar, &w), 300.0);
        assert_eq!(max_abs(KernelTier::Scalar, &[f32::NAN]), 0.0);
    }
}

/// The kernel against `QuantParams::quantize` on every `f32` bit pattern,
/// at scales that keep ties exact (1), round the quotient (0.1) and match
/// a layer's (3·10⁻³: a max-abs weight of 0.38). Scales whose quotients
/// are subnormal, or that are themselves, are left to the proptests above:
/// their microcode assists make the sweep minutes long.
#[cfg(all(test, target_arch = "x86_64"))]
mod exhaustive_tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "3 × 2³² weights: run with --release (scripts/verify.sh does)")]
    fn kernel_equals_the_scalar_quantizer_on_every_f32() {
        if !KernelTier::Avx512.is_supported() {
            return;
        }
        const BLOCK: usize = 1 << 16;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        for scale in [1.0f32, 0.1, 3e-3] {
            let params = QuantParams { scale };
            let mismatches: usize = std::thread::scope(|s| {
                let workers: Vec<_> = (0..threads)
                    .map(|t| {
                        s.spawn(move || {
                            let mut w = vec![0f32; BLOCK];
                            let (mut got, mut want) = (vec![Sm8::ZERO; BLOCK], vec![Sm8::ZERO; BLOCK]);
                            let mut bad = 0;
                            for block in (t..(1usize << 32) / BLOCK).step_by(threads) {
                                for (i, v) in w.iter_mut().enumerate() {
                                    *v = f32::from_bits((block * BLOCK + i) as u32);
                                }
                                quantize(KernelTier::Avx512, params, &w, &mut got);
                                quantize(KernelTier::Scalar, params, &w, &mut want);
                                if Sm8::as_bytes(&got) != Sm8::as_bytes(&want) {
                                    bad += got.iter().zip(&want).filter(|(g, w)| g.to_bits() != w.to_bits()).count();
                                }
                            }
                            bad
                        })
                    })
                    .collect();
                workers.into_iter().map(|h| h.join().expect("worker")).sum()
            });
            assert_eq!(mismatches, 0, "scale {scale:e}");
        }
    }
}
