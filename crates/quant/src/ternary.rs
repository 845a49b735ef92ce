//! Ternary weight quantization — the paper's future work, implemented.
//!
//! "Future work involves the use of HLS to synthesize accelerators for
//! other neural network styles, including binarized, ternary and
//! recurrent networks." (paper §VII)
//!
//! Ternary networks constrain weights to `{-w, 0, +w}` per layer. They
//! are a natural fit for this accelerator: the `0` weights vanish into
//! the zero-skipping path (typically 30-60% of weights threshold to
//! zero), and the surviving `±w` values are exact in sign+magnitude with
//! a single shared magnitude. The same datapath runs them unmodified —
//! only the offline packing step changes.

use crate::{Sm8, Requantizer};

/// Per-layer ternary quantization parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TernaryParams {
    /// Magnitude threshold below which a weight becomes zero.
    pub threshold: f32,
    /// The real value represented by a ±1 quantized weight.
    pub scale: f32,
}

impl TernaryParams {
    /// Chooses parameters per Li & Liu's TWN heuristic: threshold at
    /// `0.7 x mean(|w|)`, scale as the mean magnitude of the surviving
    /// weights.
    pub fn from_weights(weights: &[f32]) -> TernaryParams {
        if weights.is_empty() {
            return TernaryParams { threshold: 0.0, scale: 1.0 };
        }
        let mean_abs = weights.iter().map(|w| w.abs()).sum::<f32>() / weights.len() as f32;
        let threshold = 0.7 * mean_abs;
        let surviving: Vec<f32> =
            weights.iter().map(|w| w.abs()).filter(|&m| m > threshold).collect();
        let scale = if surviving.is_empty() {
            1.0
        } else {
            surviving.iter().sum::<f32>() / surviving.len() as f32
        };
        TernaryParams { threshold, scale: scale.max(f32::MIN_POSITIVE) }
    }

    /// Quantizes one weight to `{-1, 0, +1}` in [`Sm8`].
    #[inline]
    pub fn quantize(&self, w: f32) -> Sm8 {
        if w.abs() <= self.threshold {
            Sm8::ZERO
        } else if w > 0.0 {
            Sm8::from_i32_saturating(1)
        } else {
            Sm8::from_i32_saturating(-1)
        }
    }

    /// Quantizes a slice.
    pub fn quantize_all(&self, weights: &[f32]) -> Vec<Sm8> {
        weights.iter().map(|&w| self.quantize(w)).collect()
    }

    /// The requantizer ratio contribution of the weight scale: a ternary
    /// layer's output requantizer is built from
    /// `s_in * scale / s_out` exactly like an 8-bit layer whose weight
    /// scale is `scale`.
    pub fn requantizer(&self, s_in: f32, s_out: f32) -> Requantizer {
        Requantizer::from_ratio((s_in * self.scale / s_out) as f64)
    }

    /// Fraction of `weights` that quantize to zero (the sparsity handed
    /// to the zero-skipping hardware).
    pub fn induced_sparsity(&self, weights: &[f32]) -> f64 {
        if weights.is_empty() {
            return 0.0;
        }
        weights.iter().filter(|w| w.abs() <= self.threshold).count() as f64 / weights.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn gaussian_ish(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32 * 0.73).sin() + (i as f32 * 0.31).cos()) * 0.1).collect()
    }

    #[test]
    fn quantizes_to_three_levels_only() {
        let w = gaussian_ish(1000);
        let p = TernaryParams::from_weights(&w);
        for q in p.quantize_all(&w) {
            assert!(q.to_i32().abs() <= 1, "got {q}");
        }
    }

    #[test]
    fn threshold_induces_substantial_sparsity() {
        let w = gaussian_ish(1000);
        let p = TernaryParams::from_weights(&w);
        let s = p.induced_sparsity(&w);
        // The 0.7*mean(|w|) rule zeroes roughly a third to two thirds of a
        // smooth distribution.
        assert!((0.2..0.8).contains(&s), "sparsity {s}");
        // And the quantized zeros agree with the predicted sparsity.
        let zeros = p.quantize_all(&w).iter().filter(|q| q.is_zero()).count();
        assert_eq!(zeros as f64 / w.len() as f64, s);
    }

    #[test]
    fn scale_is_mean_surviving_magnitude() {
        let w = vec![0.01, -0.5, 0.5, 0.02, -0.5];
        let p = TernaryParams::from_weights(&w);
        assert!((p.scale - 0.5).abs() < 1e-6, "scale {}", p.scale);
        assert_eq!(p.quantize(0.01), Sm8::ZERO);
        assert_eq!(p.quantize(-0.5).to_i32(), -1);
    }

    #[test]
    fn empty_and_all_zero_inputs_are_safe() {
        let p = TernaryParams::from_weights(&[]);
        assert_eq!(p.scale, 1.0);
        let p = TernaryParams::from_weights(&[0.0; 8]);
        assert!(p.scale > 0.0);
        assert_eq!(p.induced_sparsity(&[0.0; 8]), 1.0);
    }

    #[test]
    fn requantizer_matches_eight_bit_formula() {
        let p = TernaryParams { threshold: 0.1, scale: 0.25 };
        let r = p.requantizer(0.02, 0.04);
        assert!((r.ratio() - 0.02 * 0.25 / 0.04).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn sign_is_preserved_above_threshold(w in -10.0f32..10.0) {
            let p = TernaryParams { threshold: 1.0, scale: 1.0 };
            let q = p.quantize(w).to_i32();
            if w > 1.0 { prop_assert_eq!(q, 1); }
            else if w < -1.0 { prop_assert_eq!(q, -1); }
            else { prop_assert_eq!(q, 0); }
        }
    }
}
