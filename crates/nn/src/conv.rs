//! Convolution reference operators: float and integer-exact quantized.

use crate::gemm::{conv2d_gemm_quant_pool, conv2d_gemm_quant_tier};
use crate::par::{self, ConvPool, Split};
use crate::simd::{self, KernelTier};
use std::sync::OnceLock;
use zskip_quant::cache::{CacheStats, Fingerprint};
use zskip_quant::{Requantizer, Sm8};
use zskip_tensor::{Shape, Tensor};

/// Float convolution weights for one layer, `[out_c][in_c][k][k]` row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvWeights {
    /// Output channels.
    pub out_c: usize,
    /// Input channels.
    pub in_c: usize,
    /// Kernel edge length.
    pub k: usize,
    /// Weight values, `out_c * in_c * k * k` entries.
    pub w: Vec<f32>,
    /// Per-output-channel bias.
    pub bias: Vec<f32>,
}

impl ConvWeights {
    /// All-zero weights of the given geometry.
    pub fn zeros(out_c: usize, in_c: usize, k: usize) -> Self {
        ConvWeights { out_c, in_c, k, w: vec![0.0; out_c * in_c * k * k], bias: vec![0.0; out_c] }
    }

    /// Weight at `[o][i][ky][kx]`.
    #[inline]
    pub fn at(&self, o: usize, i: usize, ky: usize, kx: usize) -> f32 {
        self.w[((o * self.in_c + i) * self.k + ky) * self.k + kx]
    }

    /// Mutable weight at `[o][i][ky][kx]`.
    #[inline]
    pub fn at_mut(&mut self, o: usize, i: usize, ky: usize, kx: usize) -> &mut f32 {
        &mut self.w[((o * self.in_c + i) * self.k + ky) * self.k + kx]
    }

    /// The `k*k` filter slice for `(o, i)`.
    pub fn filter(&self, o: usize, i: usize) -> &[f32] {
        let kk = self.k * self.k;
        let base = (o * self.in_c + i) * kk;
        &self.w[base..base + kk]
    }
}

/// Quantized (sign+magnitude) convolution weights plus the integer epilogue
/// parameters; the exact operands the accelerator consumes.
///
/// Construct via [`QuantConvWeights::new`]. The data fields stay public for
/// read access; code that mutates `w` in place after construction must call
/// [`QuantConvWeights::invalidate_caches`] so the cached nonzero counts and
/// fingerprint stay truthful.
#[derive(Debug, Clone)]
pub struct QuantConvWeights {
    /// Output channels.
    pub out_c: usize,
    /// Input channels.
    pub in_c: usize,
    /// Kernel edge length.
    pub k: usize,
    /// Quantized weights, `[o][i][ky][kx]` row-major.
    pub w: Vec<Sm8>,
    /// Bias in accumulator domain (already scaled by `1/(s_in * s_w)`).
    pub bias_acc: Vec<i64>,
    /// The multiply-shift requantizer for the output write-back.
    pub requant: Requantizer,
    /// Whether ReLU is fused before requantization.
    pub relu: bool,
    /// Cached per-`(o, i)` nonzero counts, one scan of `w` on first use.
    /// Not part of the logical value: ignored by `PartialEq`.
    nnz: OnceLock<Vec<u32>>,
    /// Cached content fingerprint. Ignored by `PartialEq` like `nnz`.
    fp: OnceLock<u64>,
}

impl PartialEq for QuantConvWeights {
    fn eq(&self, other: &Self) -> bool {
        self.out_c == other.out_c
            && self.in_c == other.in_c
            && self.k == other.k
            && self.w == other.w
            && self.bias_acc == other.bias_acc
            && self.requant == other.requant
            && self.relu == other.relu
    }
}

impl QuantConvWeights {
    /// Builds a quantized layer, validating geometry.
    pub fn new(
        out_c: usize,
        in_c: usize,
        k: usize,
        w: Vec<Sm8>,
        bias_acc: Vec<i64>,
        requant: Requantizer,
        relu: bool,
    ) -> Self {
        assert_eq!(w.len(), out_c * in_c * k * k, "weight count mismatch");
        assert_eq!(bias_acc.len(), out_c, "bias count mismatch");
        QuantConvWeights {
            out_c,
            in_c,
            k,
            w,
            bias_acc,
            requant,
            relu,
            nnz: OnceLock::new(),
            fp: OnceLock::new(),
        }
    }

    /// The layer's content fingerprint: a stable 64-bit digest of geometry,
    /// weight bits, bias, requantizer, and the ReLU flag — everything that
    /// determines the derived packing and the epilogue. Two instances with
    /// equal content (e.g. clones across batch workers) share one
    /// fingerprint and therefore one entry in every cache keyed by it (the
    /// driver's packed-group cache and stats-pass memo).
    pub fn fingerprint(&self) -> u64 {
        *self.fp.get_or_init(|| {
            // SAFETY: `Sm8` is `#[repr(transparent)]` over `u8`, so the
            // weight vector's buffer is a valid byte slice.
            let w_bytes: &[u8] =
                unsafe { std::slice::from_raw_parts(self.w.as_ptr() as *const u8, self.w.len()) };
            Fingerprint::new()
                .u64(self.out_c as u64)
                .u64(self.in_c as u64)
                .u64(self.k as u64)
                .bytes(w_bytes)
                .i64s(&self.bias_acc)
                .u64(u64::from(self.requant.mult))
                .u64(u64::from(self.requant.shift))
                .u64(u64::from(self.relu))
                .finish()
        })
    }

    /// Weight at `[o][i][ky][kx]`.
    #[inline]
    pub fn at(&self, o: usize, i: usize, ky: usize, kx: usize) -> Sm8 {
        self.w[((o * self.in_c + i) * self.k + ky) * self.k + kx]
    }

    /// The `k*k` filter slice for `(o, i)`.
    pub fn filter(&self, o: usize, i: usize) -> &[Sm8] {
        let kk = self.k * self.k;
        let base = (o * self.in_c + i) * kk;
        &self.w[base..base + kk]
    }

    /// The per-`(o, i)` nonzero table.
    fn nnz_table(&self) -> &[u32] {
        self.nnz.get_or_init(|| {
            let kk = self.k * self.k;
            self.w.chunks(kk.max(1)).map(|f| f.iter().filter(|v| !v.is_zero()).count() as u32).collect()
        })
    }

    /// Drops this instance's cached nonzero counts and fingerprint. Must be
    /// called after mutating `w` through the public field (e.g.
    /// re-sparsifying a layer in place); the next query rescans and
    /// re-fingerprints the new content.
    pub fn invalidate_caches(&mut self) {
        self.nnz = OnceLock::new();
        self.fp = OnceLock::new();
    }

    /// Non-zero weight count of filter `(o, i)` (cached; the driver asks
    /// for this per filter per pass when balancing lockstep lanes).
    pub fn filter_nnz(&self, o: usize, i: usize) -> usize {
        self.nnz_table()[o * self.in_c + i] as usize
    }

    /// Total non-zero weights of output filter `o` across all input
    /// channels (the quantity filter grouping balances).
    pub fn output_filter_nnz(&self, o: usize) -> usize {
        let t = self.nnz_table();
        t[o * self.in_c..(o + 1) * self.in_c].iter().map(|&n| n as u64).sum::<u64>() as usize
    }

    /// Overall weight density in `[0, 1]`.
    pub fn density(&self) -> f64 {
        if self.w.is_empty() {
            return 0.0;
        }
        let nonzero: u64 = self.nnz_table().iter().map(|&n| n as u64).sum();
        nonzero as f64 / self.w.len() as f64
    }
}

/// Float reference convolution (stride/pad general), with optional ReLU.
///
/// Each output is `bias`, then `+= w * x` tap by tap in `(i, ky, kx)`
/// order, every step rounded to `f32`: float addition does not
/// reassociate, and `Network::quantize` derives the activation scales —
/// and through them every requantizer of the model — from these values,
/// so the per-output order is part of the model's definition. What is
/// free is everything else. Outputs are independent, so the loop runs
/// tap-outermost over whole output planes: per input channel the `k * k`
/// shifted (and zero-padded, strided) views of it are laid out once as
/// contiguous planes, and every filter tap then is one contiguous
/// `acc += w * view`. On all but the smallest planes zero weights (the
/// ≈65 % magnitude pruning removed — the paper's own trick) are skipped,
/// and output channels are split over the host's cores. A skipped tap would have added `±0`, which can
/// change only the sign of an exactly-zero result; the tests hold this
/// bit-for-bit, modulo that sign, to the naive per-output scan on finite
/// data.
pub fn conv2d_f32(input: &Tensor<f32>, weights: &ConvWeights, stride: usize, pad: usize, relu: bool) -> Tensor<f32> {
    conv2d_f32_split(input, weights, stride, pad, relu, Split::auto())
}

/// Output planes up to this many values take zero weights like any other:
/// on a pruned filter the zero test mispredicts every other tap, which
/// costs more than the few multiply-adds it would skip (the 4x4 and 2x2
/// planes of a VGG's deep layers run twice as fast without it).
const DENSE_PLANE: usize = 16;

/// [`conv2d_f32`] with an explicit split of the output channels.
pub(crate) fn conv2d_f32_split(
    input: &Tensor<f32>,
    weights: &ConvWeights,
    stride: usize,
    pad: usize,
    relu: bool,
    split: Split,
) -> Tensor<f32> {
    let s = input.shape();
    assert_eq!(s.c, weights.in_c, "input channels mismatch");
    let k = weights.k;
    let out_h = (s.h + 2 * pad - k) / stride + 1;
    let out_w = (s.w + 2 * pad - k) / stride + 1;
    let mut out = Tensor::zeros(weights.out_c, out_h, out_w);
    let plane = out_h * out_w;
    if plane == 0 {
        return out;
    }
    let channels = split.run_len(weights.out_c, plane * s.c * k * k);
    // One set of tap views per run, allocated here rather than by the
    // workers: memory a short-lived thread frees stays resident in its
    // allocator arena.
    let mut views = vec![0f32; weights.out_c.div_ceil(channels) * k * k * plane];
    let runs = out.as_mut_slice().chunks_mut(channels * plane).zip(views.chunks_mut(k * k * plane));
    par::scoped_map(runs.enumerate(), |(r, (planes, views))| {
        let first_o = r * channels;
        for (acc, &bias) in planes.chunks_mut(plane).zip(&weights.bias[first_o..]) {
            acc.fill(bias);
        }
        // views[tap]: what every output reads through that tap. The
        // cells that read padding are the same for every input channel:
        // zero from the start, never written below.
        for i in 0..s.c {
            let in_plane = &input.as_slice()[i * s.h * s.w..(i + 1) * s.h * s.w];
            for (tap, view) in views.chunks_mut(plane).enumerate() {
                let (ky, kx) = (tap / k, tap % k);
                let xs = tap_span(kx, pad, stride, s.w, out_w);
                if xs.is_empty() {
                    continue;
                }
                let first_ix = xs.start * stride + kx - pad;
                for y in tap_span(ky, pad, stride, s.h, out_h) {
                    let in_row = &in_plane[(y * stride + ky - pad) * s.w..][..s.w];
                    let view_row = &mut view[y * out_w..][xs.clone()];
                    for (v, &x) in view_row.iter_mut().zip(in_row[first_ix..].iter().step_by(stride)) {
                        *v = x;
                    }
                }
            }
            for (j, acc) in planes.chunks_mut(plane).enumerate() {
                for (&w, view) in weights.filter(first_o + j, i).iter().zip(views.chunks(plane)) {
                    if w != 0.0 || plane <= DENSE_PLANE {
                        for (a, &x) in acc.iter_mut().zip(view) {
                            *a += w * x;
                        }
                    }
                }
            }
        }
        if relu {
            planes.iter_mut().for_each(|a| *a = a.max(0.0));
        }
    });
    out
}

/// The output positions `t` whose tap sample `t * stride + tap - pad`
/// lands inside `0..in_len`.
pub(crate) fn tap_span(tap: usize, pad: usize, stride: usize, in_len: usize, out_len: usize) -> std::ops::Range<usize> {
    let first = pad.saturating_sub(tap).div_ceil(stride);
    let end = (in_len + pad).saturating_sub(tap).div_ceil(stride).min(out_len);
    first..end.max(first)
}

/// Integer-exact quantized convolution with the fused ReLU + multiply-shift
/// epilogue: the allocating convenience over the one conv kernel,
/// [`crate::gemm::conv2d_gemm_quant_into`], at the dispatched tier. The software golden
/// model runs that kernel; [`conv2d_quant_dense`] is the scalar oracle it is
/// property-tested against on every tier.
pub fn conv2d_quant(input: &Tensor<Sm8>, weights: &QuantConvWeights, stride: usize, pad: usize) -> Tensor<Sm8> {
    conv2d_gemm_quant_tier(input, weights, stride, pad, simd::dispatch())
}

/// The dense reference scan: visits every weight, skipping zeros one by
/// one. The scalar oracle: shares no code with the GEMM kernel, which is
/// property-tested against it on every tier, nor with the model / cycle
/// backends, whose tests take it as their reference.
pub fn conv2d_quant_dense(
    input: &Tensor<Sm8>,
    weights: &QuantConvWeights,
    stride: usize,
    pad: usize,
) -> Tensor<Sm8> {
    let s = input.shape();
    assert_eq!(s.c, weights.in_c, "input channels mismatch");
    let out_h = (s.h + 2 * pad - weights.k) / stride + 1;
    let out_w = (s.w + 2 * pad - weights.k) / stride + 1;
    let mut out = Tensor::zeros(weights.out_c, out_h, out_w);
    for o in 0..weights.out_c {
        for y in 0..out_h {
            for x in 0..out_w {
                let mut acc: i64 = weights.bias_acc[o];
                for i in 0..s.c {
                    for ky in 0..weights.k {
                        for kx in 0..weights.k {
                            let w = weights.at(o, i, ky, kx);
                            if w.is_zero() {
                                continue; // zero-skipping changes nothing numerically
                            }
                            let iy = (y * stride + ky) as isize - pad as isize;
                            let ix = (x * stride + kx) as isize - pad as isize;
                            let v = input.get_or(i, iy, ix, Sm8::ZERO);
                            acc += w.mul_exact(v) as i64;
                        }
                    }
                }
                out[(o, y, x)] = if weights.relu {
                    weights.requant.apply_relu(acc)
                } else {
                    weights.requant.apply(acc)
                };
            }
        }
    }
    out
}

/// Output shape of [`conv2d_quant`] / [`conv2d_f32`] for an input shape.
pub fn conv_output_shape(input: Shape, weights_out_c: usize, k: usize, stride: usize, pad: usize) -> Shape {
    Shape::new(weights_out_c, (input.h + 2 * pad - k) / stride + 1, (input.w + 2 * pad - k) / stride + 1)
}

// Forwarders for the frozen `benchmark/` harness, which imports these three
// names; nothing inside the workspace calls them. ROADMAP item 7 deletes
// them together with the `quant.tap_cache_*` probes.

/// `benchmark/src/probes.rs`, scalar-tier conv probe without a pool.
#[doc(hidden)]
pub fn conv2d_quant_into(i: &Tensor<Sm8>, w: &QuantConvWeights, s: usize, p: usize, t: KernelTier, _acc: &mut Vec<i64>, o: &mut Tensor<Sm8>) {
    *o = conv2d_gemm_quant_tier(i, w, s, p, t);
}

/// `benchmark/src/probes.rs`, scalar-tier conv probe with a pool.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn conv2d_quant_into_pool(i: &Tensor<Sm8>, w: &QuantConvWeights, s: usize, p: usize, t: KernelTier, pool: &ConvPool, _acc: &mut Vec<i64>, o: &mut Tensor<Sm8>) {
    *o = conv2d_gemm_quant_pool(i, w, s, p, t, pool);
}

/// `benchmark/src/cold.rs`, the `quant.tap_cache_*` probes: the cache is gone.
#[doc(hidden)]
pub fn tap_cache_stats() -> CacheStats {
    CacheStats::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use zskip_quant::QuantParams;

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 kernel of weight 1.0: output equals input.
        let mut w = ConvWeights::zeros(1, 1, 1);
        w.w[0] = 1.0;
        let input = Tensor::from_fn(1, 3, 3, |_, y, x| (y * 3 + x) as f32);
        let out = conv2d_f32(&input, &w, 1, 0, false);
        assert_eq!(out, input);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut w = ConvWeights::zeros(1, 1, 1);
        w.w[0] = -1.0;
        let input = Tensor::from_fn(1, 2, 2, |_, y, x| (y + x) as f32);
        let out = conv2d_f32(&input, &w, 1, 0, true);
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn padding_sees_zeros() {
        // 3x3 all-ones kernel over a 1x1 input with pad 1: every output
        // position sums the single input value once.
        let mut w = ConvWeights::zeros(1, 1, 3);
        w.w.iter_mut().for_each(|v| *v = 1.0);
        let mut input = Tensor::zeros(1, 1, 1);
        input[(0, 0, 0)] = 5.0;
        let out = conv2d_f32(&input, &w, 1, 1, false);
        assert_eq!(out.shape(), Shape::new(1, 1, 1));
        assert_eq!(out[(0, 0, 0)], 5.0);
    }

    #[test]
    fn stride_subsamples() {
        let mut w = ConvWeights::zeros(1, 1, 1);
        w.w[0] = 1.0;
        let input = Tensor::from_fn(1, 4, 4, |_, y, x| (y * 4 + x) as f32);
        let out = conv2d_f32(&input, &w, 2, 0, false);
        assert_eq!(out.shape(), Shape::new(1, 2, 2));
        assert_eq!(out[(0, 0, 0)], 0.0);
        assert_eq!(out[(0, 1, 1)], 10.0);
    }

    #[test]
    fn bias_is_added_once() {
        let mut w = ConvWeights::zeros(2, 1, 1);
        w.bias = vec![1.5, -2.0];
        let input = Tensor::zeros(1, 2, 2);
        let out = conv2d_f32(&input, &w, 1, 0, false);
        assert_eq!(out[(0, 0, 0)], 1.5);
        assert_eq!(out[(1, 1, 1)], -2.0);
    }

    #[test]
    fn quant_conv_tracks_float_conv() {
        // Quantize a small random-ish layer and check the quantized output
        // dequantizes close to the float output.
        let in_c = 3;
        let out_c = 4;
        let mut w = ConvWeights::zeros(out_c, in_c, 3);
        for (i, v) in w.w.iter_mut().enumerate() {
            *v = ((i as f32 * 0.37).sin()) * 0.2;
        }
        let input = Tensor::from_fn(in_c, 6, 6, |c, y, x| ((c + y * 6 + x) as f32 * 0.71).cos());

        let float_out = conv2d_f32(&input, &w, 1, 1, true);

        let in_q = QuantParams::from_max_abs(input.as_slice());
        let w_q = QuantParams::from_max_abs(&w.w);
        let out_q = QuantParams::from_max_abs(float_out.as_slice());
        let qw = QuantConvWeights::new(
            out_c,
            in_c,
            3,
            w.w.iter().map(|&v| w_q.quantize(v)).collect(),
            w.bias.iter().map(|&b| (b / (in_q.scale * w_q.scale)) as i64).collect(),
            Requantizer::from_ratio((in_q.scale * w_q.scale / out_q.scale) as f64),
            true,
        );
        let input_q = input.map(|v| in_q.quantize(v));
        let quant_out = conv2d_quant(&input_q, &qw, 1, 1);

        for (f, q) in float_out.as_slice().iter().zip(quant_out.as_slice()) {
            let deq = out_q.dequantize(*q);
            assert!((f - deq).abs() < out_q.scale * 4.0, "float {f} vs dequant {deq}");
        }
    }

    #[test]
    fn zero_weights_contribute_nothing() {
        // A half-zero weight tensor must give identical results whether
        // zeros are skipped (as below) or multiplied (conv2d_quant does).
        let qw = QuantConvWeights::new(
            1,
            1,
            3,
            (0..9)
                .map(|i| if i % 2 == 0 { Sm8::from_i32_saturating(i - 4) } else { Sm8::ZERO })
                .collect(),
            vec![3],
            Requantizer::IDENTITY,
            false,
        );
        let input = Tensor::from_fn(1, 5, 5, |_, y, x| Sm8::from_i32_saturating((y * 5 + x) as i32 - 12));
        let out = conv2d_quant(&input, &qw, 1, 1);
        // Manual check at center position (2,2).
        let mut acc = 3i64;
        for ky in 0..3usize {
            for kx in 0..3usize {
                let wv = (ky * 3 + kx) as i32 - 4;
                if (ky * 3 + kx) % 2 == 0 {
                    let iy = 2 + ky - 1;
                    let ix = 2 + kx - 1;
                    acc += (wv * ((iy * 5 + ix) as i32 - 12)) as i64;
                }
            }
        }
        assert_eq!(out[(0, 2, 2)].to_i32() as i64, acc.clamp(-127, 127));
    }

    #[test]
    fn filter_nnz_counts() {
        let qw = QuantConvWeights::new(
            2,
            1,
            3,
            (0..18)
                .map(|i| if i < 9 { Sm8::from_i32_saturating(1) } else { Sm8::ZERO })
                .collect(),
            vec![0, 0],
            Requantizer::IDENTITY,
            false,
        );
        assert_eq!(qw.filter_nnz(0, 0), 9);
        assert_eq!(qw.filter_nnz(1, 0), 0);
        assert_eq!(qw.output_filter_nnz(0), 9);
        assert_eq!(qw.density(), 0.5);
    }

    #[test]
    fn nnz_cache_survives_clone_and_invalidation() {
        let mut qw = QuantConvWeights::new(
            1,
            2,
            3,
            (0..18).map(|i| Sm8::from_i32_saturating(i % 3)).collect(),
            vec![0],
            Requantizer::IDENTITY,
            false,
        );
        assert_eq!(qw.filter_nnz(0, 0), 6);
        assert_eq!(qw.clone().filter_nnz(0, 1), 6);
        // In-place mutation through the public field requires invalidation.
        qw.w.iter_mut().for_each(|w| *w = Sm8::ZERO);
        qw.invalidate_caches();
        assert_eq!(qw.output_filter_nnz(0), 0);
        assert_eq!(qw.density(), 0.0);
    }

    fn synthetic_qw(out_c: usize, in_c: usize, k: usize, seed: u64, relu: bool) -> QuantConvWeights {
        QuantConvWeights::new(
            out_c,
            in_c,
            k,
            (0..out_c * in_c * k * k)
                .map(|i| {
                    let h = (i as u64).wrapping_mul(seed | 1).wrapping_add(seed >> 3);
                    if h.is_multiple_of(3) {
                        Sm8::ZERO
                    } else {
                        Sm8::from_i32_saturating(((h >> 8) % 255) as i32 - 127)
                    }
                })
                .collect(),
            (0..out_c as i64).map(|o| o * 13 - 5).collect(),
            Requantizer::from_ratio(1.0 / 8.0),
            relu,
        )
    }

    #[test]
    fn identical_content_shares_one_cache_entry() {
        let a = synthetic_qw(3, 2, 3, 4242, false);
        let b = a.clone();
        let c = synthetic_qw(3, 2, 3, 4242, false); // equal content, separate instance
        let d = synthetic_qw(3, 2, 3, 5000, false); // different content
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), c.fingerprint());
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn conv2d_quant_is_bit_exact_vs_dense(
            out_c in 1usize..5,
            in_c in 1usize..4,
            hw in 3usize..9,
            k in 1usize..6,
            pad in 0usize..2,
            stride in 1usize..3,
            seed in 0u64..500,
        ) {
            prop_assume!(hw + 2 * pad >= k);
            let qw = synthetic_qw(out_c, in_c, k, seed, seed % 2 == 0);
            let input = Tensor::from_fn(in_c, hw, hw, |c, y, x| {
                Sm8::from_i32_saturating((((c * 131 + y * 17 + x * 3) as u64 ^ seed) % 255) as i32 - 127)
            });
            let dense = conv2d_quant_dense(&input, &qw, stride, pad);
            prop_assert_eq!(dense, conv2d_quant(&input, &qw, stride, pad));
        }

        #[test]
        fn nnz_cache_matches_rescan(
            out_c in 1usize..6,
            in_c in 1usize..5,
            k in 1usize..5,
            seed in 0u64..500,
        ) {
            let qw = synthetic_qw(out_c, in_c, k, seed, false);
            for o in 0..out_c {
                let mut total = 0;
                for i in 0..in_c {
                    let scan = qw.filter(o, i).iter().filter(|v| !v.is_zero()).count();
                    prop_assert_eq!(qw.filter_nnz(o, i), scan);
                    total += scan;
                }
                prop_assert_eq!(qw.output_filter_nnz(o), total);
            }
        }
    }
}
