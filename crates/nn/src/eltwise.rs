//! Elementwise and reduction operators for residual networks: skip-join
//! addition, global average pooling, and the float batch-norm reference
//! (at inference BN folds into the preceding conv's weights, so only the
//! float oracle and the fold itself live here — there is no quantized BN).
//!
//! The quantized add brings both operands to the *output* scale with
//! [`Requantizer::apply_raw`], sums them in `i64` and saturates once to
//! Sm8. Its definition is two phases over an `i64` accumulator plane —
//! [`add_quant_phase1`] rescales operand A into it, [`add_quant_phase2`]
//! rescales operand B, sums and saturates — kept as the oracle (and the
//! allocating [`add_quant`]). The plan walk runs [`add_quant_into`]
//! instead: an Sm8 operand has only 256 bit patterns, so each operand's
//! rescale is a table built on the stack, and the join is one pass of two
//! lookups, a sum, a clamp and an encode per element, with no
//! intermediate plane — 32 elements a step in `i16` lanes on the AVX-512
//! tiers (docs/KERNELS.md, "Max-pool and join").

use crate::simd::KernelTier;
use zskip_quant::{Requantizer, Sm8};
use zskip_tensor::Tensor;

/// Per-channel batch-normalization weights (inference statistics).
#[derive(Debug, Clone, PartialEq)]
pub struct BnWeights {
    /// Learned scale, per channel.
    pub gamma: Vec<f32>,
    /// Learned shift, per channel.
    pub beta: Vec<f32>,
    /// Running mean, per channel.
    pub mean: Vec<f32>,
    /// Running variance, per channel (non-negative).
    pub var: Vec<f32>,
    /// Numerical-stability epsilon added to the variance.
    pub eps: f32,
}

impl BnWeights {
    /// Identity batch-norm over `c` channels.
    pub fn identity(c: usize) -> BnWeights {
        BnWeights {
            gamma: vec![1.0; c],
            beta: vec![0.0; c],
            mean: vec![0.0; c],
            var: vec![1.0; c],
            eps: 1e-5,
        }
    }

    /// The per-channel affine form: `y = a * x + b` with
    /// `a = gamma / sqrt(var + eps)` and `b = beta - a * mean`. Folding
    /// into a conv multiplies output-channel `o`'s weights by `a[o]` and
    /// maps its bias through the same affine.
    pub fn affine(&self) -> Vec<(f32, f32)> {
        self.gamma
            .iter()
            .zip(&self.beta)
            .zip(&self.mean)
            .zip(&self.var)
            .map(|(((&g, &b), &m), &v)| {
                let a = g / (v + self.eps).sqrt();
                (a, b - a * m)
            })
            .collect()
    }
}

/// Float batch normalization with optional fused ReLU (the oracle the
/// fold is verified against).
pub fn batchnorm_f32(input: &Tensor<f32>, bn: &BnWeights, relu: bool) -> Tensor<f32> {
    let affine = bn.affine();
    assert_eq!(affine.len(), input.shape().c, "one (gamma, beta, mean, var) set per channel");
    Tensor::from_fn(input.shape().c, input.shape().h, input.shape().w, |c, y, x| {
        let (a, b) = affine[c];
        let v = a * input[(c, y, x)] + b;
        if relu {
            v.max(0.0)
        } else {
            v
        }
    })
}

/// Float elementwise addition with optional fused ReLU (residual join).
///
/// # Panics
/// Panics on shape mismatch.
pub fn add_f32(a: &Tensor<f32>, b: &Tensor<f32>, relu: bool) -> Tensor<f32> {
    assert_eq!(a.shape(), b.shape(), "add operands must agree");
    let mut out = a.clone();
    for (o, &v) in out.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *o += v;
        if relu {
            *o = o.max(0.0);
        }
    }
    out
}

/// Quantized add, phase 1: rescales operand A to the output scale into
/// the accumulator plane (`acc[i] = ra.apply_raw(a[i])`).
pub fn add_quant_phase1(a: &Tensor<Sm8>, ra: Requantizer, acc: &mut Vec<i64>) {
    acc.clear();
    acc.extend(a.as_slice().iter().map(|&v| ra.apply_raw(v.to_i32() as i64) as i64));
}

/// Quantized add, phase 2: rescales operand B, sums with the phase-1
/// accumulator, applies optional ReLU, and saturates once to Sm8.
///
/// # Panics
/// Panics if `acc` does not match `b`'s element count (phases must run
/// over equal-shaped operands).
pub fn add_quant_phase2(
    b: &Tensor<Sm8>,
    rb: Requantizer,
    relu: bool,
    acc: &[i64],
    out: &mut Tensor<Sm8>,
) {
    let s = b.shape();
    assert_eq!(acc.len(), s.len(), "phase-1 accumulator must cover the operand");
    out.reset(s.c, s.h, s.w);
    for ((o, &bv), &av) in out.as_mut_slice().iter_mut().zip(b.as_slice()).zip(acc) {
        let sum = av + rb.apply_raw(bv.to_i32() as i64) as i64;
        let sum = if relu { sum.max(0) } else { sum };
        *o = Sm8::from_i32_saturating(sum.clamp(i32::MIN as i64, i32::MAX as i64) as i32);
    }
}

/// Quantized add `a · ra + b · rb` (optionally ReLU'd) at `tier` into a
/// caller-owned tensor, reshaped in place: the residual join the plan walk
/// runs. Equal to [`add_quant_phase1`] + [`add_quant_phase2`] bit for bit
/// on every tier — the tables hold exactly the values `apply_raw` gives
/// each bit pattern, and clamping the sum to `[0 or -127, 127]` is what
/// phase 2's ReLU, `i32` clamp and Sm8 saturation amount to.
///
/// On the AVX-512 tiers, where both operands' tables fit `i16`, the join
/// runs 32 elements a step in `i16` lanes (docs/KERNELS.md, "Max-pool and
/// join"); elsewhere, and for a requantizer whose table would not fit,
/// one element at a time through `i32` tables and an `i64` sum.
///
/// # Panics
/// Panics on shape mismatch.
pub fn add_quant_into(
    a: &Tensor<Sm8>,
    b: &Tensor<Sm8>,
    ra: Requantizer,
    rb: Requantizer,
    relu: bool,
    tier: KernelTier,
    out: &mut Tensor<Sm8>,
) {
    let s = a.shape();
    assert_eq!(s, b.shape(), "add operands must agree");
    let lo = if relu { 0 } else { -127 };
    out.reset(s.c, s.h, s.w);
    #[cfg(target_arch = "x86_64")]
    if tier.runs_avx512() {
        // `apply_raw` is odd in its operand and non-decreasing, so each
        // operand's rescale is a table of the 128 magnitudes, largest at
        // 127.
        let magnitudes = |r: Requantizer| -> Option<[i16; 128]> {
            i16::try_from(r.apply_raw(127)).ok()?;
            Some(std::array::from_fn(|m| r.apply_raw(m as i64) as i16))
        };
        if let (Some(ta), Some(tb)) = (magnitudes(ra), magnitudes(rb)) {
            // SAFETY: the tier's features (AVX-512F and BW among them)
            // are present, and the three tensors are equally long.
            return unsafe { avx512::join(a.as_slice(), b.as_slice(), &ta, &tb, lo as i16, out.as_mut_slice()) };
        }
    }
    let _ = tier;
    let table = |r: Requantizer| -> [i32; 256] {
        std::array::from_fn(|bits| r.apply_raw(Sm8::from_bits(bits as u8).to_i32() as i64))
    };
    let (ta, tb) = (table(ra), table(rb));
    for ((o, a), b) in out.as_mut_slice().iter_mut().zip(a.as_slice()).zip(b.as_slice()) {
        let sum = ta[a.to_bits() as usize] as i64 + tb[b.to_bits() as usize] as i64;
        *o = Sm8::from_i32_saturating(sum.clamp(lo, 127) as i32);
    }
}

/// The join 64 elements a step on 512-bit registers: AVX-512F + BW.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::*;
    use crate::simd::x86::{encode_i16, first};
    use std::arch::x86_64::*;

    /// An operand's 32 bit patterns (zero-extended to `i16` lanes)
    /// rescaled: `vpermi2w` looks the magnitude up in the table's halves
    /// `t[0]` (entries 0–63) and `t[1]` (64–127), picked by bit 6; the sign
    /// bit negates the lane, which takes negative zero to 0.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn rescale(bits: __m512i, t: &[[__m512i; 2]; 2]) -> __m512i {
        let low = _mm512_permutex2var_epi16(t[0][0], bits, t[0][1]);
        let high = _mm512_permutex2var_epi16(t[1][0], bits, t[1][1]);
        let v = _mm512_mask_mov_epi16(low, _mm512_test_epi16_mask(bits, _mm512_set1_epi16(0x40)), high);
        _mm512_mask_sub_epi16(v, _mm512_test_epi16_mask(bits, _mm512_set1_epi16(0x80)), _mm512_setzero_si512(), v)
    }

    /// A 128-entry `i16` table as four 32-lane registers.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn load_table(t: &[i16; 128]) -> [[__m512i; 2]; 2] {
        let p = t.as_ptr();
        [
            [_mm512_loadu_si512(p.cast()), _mm512_loadu_si512(p.add(32).cast())],
            [_mm512_loadu_si512(p.add(64).cast()), _mm512_loadu_si512(p.add(96).cast())],
        ]
    }

    /// [`super::add_quant_into`]: both operands rescaled in `i16` lanes,
    /// summed with `i16` saturation (each term is at most `i16::MAX` in
    /// magnitude, so a saturated sum lies beyond ±127 on the true sum's
    /// side), clamped to `[lo, 127]` and encoded — 32 elements a half
    /// step, the last step masked.
    ///
    /// # Safety
    /// AVX-512F and BW must be present, and `a`, `b` and `out` equally
    /// long.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn join(a: &[Sm8], b: &[Sm8], ta: &[i16; 128], tb: &[i16; 128], lo: i16, out: &mut [Sm8]) {
        debug_assert!(a.len() == out.len() && b.len() == out.len());
        let (ta, tb) = (load_table(ta), load_table(tb));
        let (lo, hi) = (_mm512_set1_epi16(lo), _mm512_set1_epi16(127));
        for i in (0..out.len()).step_by(64) {
            let lanes = first(out.len() - i);
            let va = _mm512_maskz_loadu_epi8(lanes, a.as_ptr().add(i).cast());
            let vb = _mm512_maskz_loadu_epi8(lanes, b.as_ptr().add(i).cast());
            let halves = [
                (_mm512_castsi512_si256(va), _mm512_castsi512_si256(vb)),
                (_mm512_extracti64x4_epi64::<1>(va), _mm512_extracti64x4_epi64::<1>(vb)),
            ];
            for (h, (ha, hb)) in halves.into_iter().enumerate() {
                let sum = _mm512_adds_epi16(
                    rescale(_mm512_cvtepu8_epi16(ha), &ta),
                    rescale(_mm512_cvtepu8_epi16(hb), &tb),
                );
                let v = _mm512_min_epi16(_mm512_max_epi16(sum, lo), hi);
                let keep = (lanes >> (32 * h)) as __mmask32;
                _mm512_mask_cvtepi16_storeu_epi8(out.as_mut_ptr().add(i + 32 * h).cast(), keep, encode_i16(v));
            }
        }
    }
}

/// Allocating quantized add through the two phases: the join's
/// definition, and the oracle [`add_quant_into`] is held to.
pub fn add_quant(a: &Tensor<Sm8>, b: &Tensor<Sm8>, ra: Requantizer, rb: Requantizer, relu: bool) -> Tensor<Sm8> {
    assert_eq!(a.shape(), b.shape(), "add operands must agree");
    let mut acc = Vec::new();
    add_quant_phase1(a, ra, &mut acc);
    let mut out = Tensor::zeros(1, 1, 1);
    add_quant_phase2(b, rb, relu, &acc, &mut out);
    out
}

/// Float global average pooling: each channel collapses to its spatial
/// mean (`c x h x w` → `c x 1 x 1`).
pub fn global_avgpool_f32(input: &Tensor<f32>) -> Tensor<f32> {
    let s = input.shape();
    let n = (s.h * s.w) as f32;
    Tensor::from_fn(s.c, 1, 1, |c, _, _| input.channel(c).iter().sum::<f32>() / n)
}

/// Quantized global average pooling: exact `i64` spatial sum per channel,
/// then one requantization. The requantizer must fold the `1/(h*w)` mean
/// divisor into its ratio (`s_in / (s_out * h * w)`) — see
/// [`crate::model::QuantizedNetwork::gap_requantizer`].
pub fn global_avgpool_quant_into(input: &Tensor<Sm8>, requant: Requantizer, out: &mut Tensor<Sm8>) {
    let s = input.shape();
    out.reset(s.c, 1, 1);
    for c in 0..s.c {
        let sum: i64 = input.channel(c).iter().map(|v| v.to_i32() as i64).sum();
        out[(c, 0, 0)] = requant.apply(sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zskip_tensor::Shape;

    fn sm8(v: i32) -> Sm8 {
        Sm8::from_i32_saturating(v)
    }

    #[test]
    fn add_f32_matches_elementwise_sum() {
        let a = Tensor::from_fn(2, 2, 2, |c, y, x| (c + y + x) as f32);
        let b = Tensor::from_fn(2, 2, 2, |c, y, x| (c as f32) - (y + x) as f32);
        let out = add_f32(&a, &b, false);
        assert_eq!(out[(1, 1, 1)], 3.0 + (1.0 - 2.0));
        let relued = add_f32(&a, &b.map(|v| -v - 10.0), true);
        assert!(relued.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn quant_add_identity_scales_is_saturating_sum() {
        let a = Tensor::from_fn(1, 2, 2, |_, y, x| sm8(60 * (y as i32 + 1) * (x as i32 + 1)));
        let b = a.clone();
        let out = add_quant(&a, &b, Requantizer::IDENTITY, Requantizer::IDENTITY, false);
        assert_eq!(out[(0, 0, 0)].to_i32(), 120);
        assert_eq!(out[(0, 1, 1)].to_i32(), 127, "saturates, does not wrap");
    }

    #[test]
    fn quant_add_relu_clamps_negative_sums() {
        let a = Tensor::from_fn(1, 1, 2, |_, _, x| sm8(if x == 0 { -50 } else { 20 }));
        let b = Tensor::from_fn(1, 1, 2, |_, _, _| sm8(10));
        let out = add_quant(&a, &b, Requantizer::IDENTITY, Requantizer::IDENTITY, true);
        assert_eq!(out[(0, 0, 0)].to_i32(), 0);
        assert_eq!(out[(0, 0, 1)].to_i32(), 30);
    }

    #[test]
    fn quant_add_rescales_each_operand() {
        // Operand scales 2x and 0.5x the output scale.
        let a = Tensor::from_fn(1, 1, 1, |_, _, _| sm8(30));
        let b = Tensor::from_fn(1, 1, 1, |_, _, _| sm8(40));
        let out = add_quant(&a, &b, Requantizer::from_ratio(2.0), Requantizer::from_ratio(0.5), false);
        assert_eq!(out[(0, 0, 0)].to_i32(), 60 + 20);
    }

    #[test]
    fn gap_float_and_quant_agree_on_exact_means() {
        let f = Tensor::from_fn(2, 2, 2, |c, y, x| ((c * 4 + y * 2 + x) * 4) as f32);
        let q = f.map(|v| sm8(v as i32));
        let gf = global_avgpool_f32(&f);
        assert_eq!(gf.shape(), Shape::new(2, 1, 1));
        let mut gq = Tensor::zeros(1, 1, 1);
        // Identity activation scales: ratio = 1 / (h*w) = 0.25.
        global_avgpool_quant_into(&q, Requantizer::from_ratio(0.25), &mut gq);
        assert_eq!(gq.shape(), Shape::new(2, 1, 1));
        for c in 0..2 {
            assert_eq!(gq[(c, 0, 0)].to_i32(), gf[(c, 0, 0)] as i32);
        }
    }

    #[test]
    fn batchnorm_identity_is_identity() {
        let x = Tensor::from_fn(3, 2, 2, |c, y, x| (c as f32) - (y * 2 + x) as f32);
        let out = batchnorm_f32(&x, &BnWeights::identity(3), false);
        for (a, b) in out.as_slice().iter().zip(x.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn batchnorm_normalizes_per_channel() {
        let x = Tensor::from_fn(1, 1, 2, |_, _, x| 10.0 + x as f32);
        let bn = BnWeights {
            gamma: vec![2.0],
            beta: vec![1.0],
            mean: vec![10.0],
            var: vec![4.0],
            eps: 0.0,
        };
        let out = batchnorm_f32(&x, &bn, false);
        // a = 2/2 = 1, b = 1 - 10 => y = x - 9.
        assert!((out[(0, 0, 0)] - 1.0).abs() < 1e-5);
        assert!((out[(0, 0, 1)] - 2.0).abs() < 1e-5);
        let relued = batchnorm_f32(&x.map(|v| -v), &bn, true);
        assert!(relued.as_slice().iter().all(|&v| v >= 0.0));
    }
}
