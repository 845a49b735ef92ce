//! Scaling quantization (float → sign+magnitude) and the fixed-point
//! requantizer applied when a completed OFM tile leaves the accumulators.
//!
//! The paper reduces a trained VGG-16 to 8-bit by *scaling* (§IV-B). We use
//! symmetric per-tensor scales: `q = round(x / scale)` clamped to ±127.
//! Inside the accelerator, products of 8-bit activations and weights
//! accumulate in wide integers with a *fixed* datapath width ("keep a fixed
//! datapath width and not compromise accuracy by rounding partial sums",
//! §III-B); only when an OFM tile completes is it rescaled back to 8 bits
//! by an integer multiply-shift ([`Requantizer`]) — the hardware-friendly
//! equivalent of dividing by `scale_out / (scale_in * scale_w)`.

use crate::Sm8;

/// Symmetric per-tensor quantization parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// The real value represented by one quantized step.
    pub scale: f32,
}

impl QuantParams {
    /// Chooses a scale that maps the largest-magnitude element of `data`
    /// to ±127. Falls back to scale 1.0 for empty/all-zero data.
    pub fn from_max_abs(data: &[f32]) -> QuantParams {
        let max_abs = data.iter().fold(0f32, |m, &v| m.max(v.abs()));
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
        QuantParams { scale }
    }

    /// Quantizes one value (round half away from zero, saturating; NaN
    /// to 0).
    ///
    /// Exactly `(v / scale).round() as i32`, saturated, but without the
    /// `roundf` call, so a loop over a slice vectorizes: the quotient is
    /// clamped to ±256 (everything past ±127.5 saturates alike, and the
    /// step below cannot overflow), its fraction `d = q − trunc(q)` is
    /// exact in `f32`, and `|d| ≥ 0.5` steps one away from zero.
    #[inline]
    pub fn quantize(&self, v: f32) -> Sm8 {
        let q = (v / self.scale).clamp(-256.0, 256.0);
        let t = q as i32;
        let d = q - t as f32;
        Sm8::from_i32_saturating(t + i32::from(d >= 0.5) - i32::from(d <= -0.5))
    }

    /// Dequantizes one value.
    #[inline]
    pub fn dequantize(&self, q: Sm8) -> f32 {
        q.to_i32() as f32 * self.scale
    }

    /// Quantizes a slice.
    pub fn quantize_all(&self, data: &[f32]) -> Vec<Sm8> {
        data.iter().map(|&v| self.quantize(v)).collect()
    }
}

/// Integer multiply-shift requantizer: `out = sat_sm8((acc * mult) >> shift)`
/// with round-to-nearest. `mult` fits in 16 bits, mirroring a hardware
/// constant multiplier.
///
/// # Example
/// ```
/// use zskip_quant::Requantizer;
/// // Halve the accumulator value.
/// let r = Requantizer::from_ratio(0.5);
/// assert_eq!(r.apply(100).to_i32(), 50);
/// assert_eq!(r.apply(-100).to_i32(), -50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Requantizer {
    /// Fixed-point multiplier (0..=65535).
    pub mult: u32,
    /// Right-shift amount.
    pub shift: u32,
}

impl Requantizer {
    /// Identity requantizer (`mult = 1, shift = 0`).
    pub const IDENTITY: Requantizer = Requantizer { mult: 1, shift: 0 };

    /// Approximates a positive real ratio as `mult / 2^shift` with a 16-bit
    /// `mult`, maximizing precision.
    ///
    /// # Panics
    /// Panics if `ratio` is not finite and positive.
    pub fn from_ratio(ratio: f64) -> Requantizer {
        assert!(ratio.is_finite() && ratio > 0.0, "requantizer ratio must be positive, got {ratio}");
        // Scale the ratio into [2^15, 2^16) then record the shift.
        let mut shift = 0u32;
        let mut r = ratio;
        while r < 32768.0 && shift < 63 {
            r *= 2.0;
            shift += 1;
        }
        while r >= 65536.0 && shift > 0 {
            r /= 2.0;
            shift -= 1;
        }
        let mult = (r.round() as u32).min(65535);
        Requantizer { mult, shift }
    }

    /// The real ratio this requantizer implements.
    pub fn ratio(&self) -> f64 {
        self.mult as f64 / (1u64 << self.shift) as f64
    }

    /// Applies the requantizer to a wide accumulator value, with
    /// round-to-nearest and saturation to the Sm8 range. This is the exact
    /// integer operation the accelerator and the software reference share,
    /// so both produce bit-identical OFM tiles.
    #[inline]
    pub fn apply(&self, acc: i64) -> Sm8 {
        Sm8::from_i32_saturating(self.apply_raw(acc))
    }

    /// [`Requantizer::apply`] without the final Sm8 saturation: the
    /// multiply-shift-round result clamped to `i32`. Elementwise add uses
    /// this to rescale both operands to the output scale *before* the
    /// single saturation at the join.
    #[inline]
    pub fn apply_raw(&self, acc: i64) -> i32 {
        let prod = acc * self.mult as i64;
        let rounded = if self.shift == 0 {
            prod
        } else {
            let half = 1i64 << (self.shift - 1);
            // Round-half-away-from-zero, symmetric for the sign+magnitude format.
            if prod >= 0 {
                (prod + half) >> self.shift
            } else {
                -((-prod + half) >> self.shift)
            }
        };
        rounded.clamp(i32::MIN as i64, i32::MAX as i64) as i32
    }

    /// Applies ReLU then requantization — the fused epilogue the
    /// accumulator unit performs when an OFM tile completes.
    #[inline]
    pub fn apply_relu(&self, acc: i64) -> Sm8 {
        if acc < 0 {
            Sm8::ZERO
        } else {
            self.apply(acc)
        }
    }
}

/// Signal-to-quantization-noise ratio in dB between a reference signal and
/// its quantized reconstruction. Used to report quantization fidelity in
/// place of the paper's (data-gated) ImageNet accuracy.
pub fn sqnr_db(reference: &[f32], reconstructed: &[f32]) -> f64 {
    assert_eq!(reference.len(), reconstructed.len());
    let signal: f64 = reference.iter().map(|&v| (v as f64).powi(2)).sum();
    let noise: f64 = reference
        .iter()
        .zip(reconstructed)
        .map(|(&a, &b)| ((a - b) as f64).powi(2))
        .sum();
    if noise == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (signal / noise).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_max_abs_uses_full_range() {
        let data = [0.5f32, -2.0, 1.0];
        let q = QuantParams::from_max_abs(&data);
        assert_eq!(q.quantize(-2.0).to_i32(), -127);
        assert_eq!(q.quantize(2.0).to_i32(), 127);
        assert_eq!(q.quantize(0.0).to_i32(), 0);
    }

    #[test]
    fn from_max_abs_handles_all_zero() {
        let q = QuantParams::from_max_abs(&[0.0, 0.0]);
        assert_eq!(q.scale, 1.0);
        assert_eq!(q.quantize(0.0), Sm8::ZERO);
    }

    #[test]
    fn quantize_dequantize_error_bounded_by_half_step() {
        let q = QuantParams { scale: 0.1 };
        for v in [-12.0f32, -0.04, 0.0, 0.06, 3.21, 12.69] {
            let d = q.dequantize(q.quantize(v));
            assert!((d - v).abs() <= 0.05 + 1e-6, "v={v} d={d}");
        }
    }

    #[test]
    fn requantizer_identity_like_ratios() {
        let r = Requantizer::from_ratio(1.0);
        for acc in [-1000i64, -1, 0, 1, 77, 126] {
            assert_eq!(r.apply(acc).to_i32() as i64, acc.clamp(-127, 127));
        }
    }

    #[test]
    fn requantizer_ratio_precision() {
        for ratio in [0.001, 0.017, 0.3, 0.5, 1.7, 42.0] {
            let r = Requantizer::from_ratio(ratio);
            let rel = (r.ratio() - ratio).abs() / ratio;
            assert!(rel < 1e-4, "ratio {ratio} approximated as {} (rel {rel})", r.ratio());
        }
    }

    #[test]
    fn requantizer_rounding_is_symmetric() {
        let r = Requantizer::from_ratio(0.5);
        // 3 * 0.5 = 1.5 rounds away from zero in both directions.
        assert_eq!(r.apply(3).to_i32(), 2);
        assert_eq!(r.apply(-3).to_i32(), -2);
    }

    #[test]
    fn relu_epilogue_clamps_negative() {
        let r = Requantizer::from_ratio(1.0);
        assert_eq!(r.apply_relu(-500), Sm8::ZERO);
        assert_eq!(r.apply_relu(50).to_i32(), 50);
    }

    #[test]
    fn sqnr_infinite_for_exact_match() {
        let v = [1.0f32, 2.0, 3.0];
        assert!(sqnr_db(&v, &v).is_infinite());
    }

    #[test]
    fn sqnr_reasonable_for_8bit() {
        // Quantize a ramp; 8-bit SQNR should be roughly 40-50 dB.
        let data: Vec<f32> = (0..1000).map(|i| (i as f32 / 500.0) - 1.0).collect();
        let q = QuantParams::from_max_abs(&data);
        let rec: Vec<f32> = data.iter().map(|&v| q.dequantize(q.quantize(v))).collect();
        let s = sqnr_db(&data, &rec);
        assert!(s > 35.0 && s < 60.0, "sqnr {s}");
    }

    /// What [`QuantParams::quantize`] computed with `roundf`.
    fn quantize_roundf(q: &QuantParams, v: f32) -> Sm8 {
        Sm8::from_i32_saturating((v / q.scale).round() as i32)
    }

    #[test]
    fn quantize_equals_roundf_at_the_edges() {
        let ulps = |x: f32| [-2i32, -1, 0, 1, 2].map(|u| f32::from_bits((x.to_bits() as i32 + u) as u32));
        let mut values = Vec::new();
        for k in -1200..=1200 {
            // k/2 ± {0, 1, 2} ulp: every rounding tie and its neighbours.
            let half = k as f32 / 2.0;
            if half == 0.0 {
                values.extend([0.0, -0.0, f32::from_bits(1), -f32::from_bits(1), f32::from_bits(2)]);
            } else {
                values.extend(ulps(half));
            }
        }
        let big = [1u64 << 23, 1 << 31].map(|p| p as f32);
        for x in [f32::INFINITY, f32::NAN, f32::MAX, big[0], big[1]] {
            values.extend([x, -x]);
        }
        // At scale 1 the quotients are these values exactly.
        for scale in [1.0f32, 0.5, 0.1, 3.0e-3, 7.0] {
            let q = QuantParams { scale };
            for &v in &values {
                let v = v * scale;
                assert_eq!(q.quantize(v), quantize_roundf(&q, v), "v={v:e} scale={scale}");
            }
        }
    }

    proptest! {
        #[test]
        fn quantize_equals_roundf(bits in 0u32..=u32::MAX, scale_bits in 0u32..=u32::MAX) {
            let v = f32::from_bits(bits);
            // Any finite positive scale, tiny to huge.
            let scale = f32::from_bits(scale_bits % f32::INFINITY.to_bits()).max(f32::from_bits(1));
            for q in [QuantParams { scale }, QuantParams { scale: 1.0 }] {
                prop_assert_eq!(q.quantize(v), quantize_roundf(&q, v));
            }
        }

        #[test]
        fn requantizer_monotone(a in -100000i64..100000, b in -100000i64..100000, ratio in 0.01f64..10.0) {
            let r = Requantizer::from_ratio(ratio);
            if a <= b {
                prop_assert!(r.apply(a) <= r.apply(b));
            }
        }

        #[test]
        fn quantize_within_one_step(v in -100.0f32..100.0, scale in 0.01f32..2.0) {
            let q = QuantParams { scale };
            let err = (q.dequantize(q.quantize(v)) - v).abs();
            // Error is half a step unless saturated.
            let saturated = (v / scale).abs() > 127.0;
            if !saturated {
                prop_assert!(err <= scale * 0.5 + 1e-5);
            }
        }
    }
}
