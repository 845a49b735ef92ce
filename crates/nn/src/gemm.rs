//! An independent convolution implementation: im2col + GEMM.
//!
//! The accelerator's golden model is the direct convolution in
//! [`crate::conv`]. To guard the guard, this module computes the same
//! layers by the classic lowering — unroll input patches into a matrix
//! (im2col) and multiply by the filter matrix — sharing *no* loop
//! structure with the direct path. Property tests pin both against the
//! scalar dense scan [`crate::conv::conv2d_quant_dense`], so an indexing
//! bug in either is caught by the oracle.
//!
//! There is one GEMM body, `gemm_quant_channel`: per output channel, an
//! `i32` column-accumulator panel is updated one reduction row at a time
//! by [`crate::simd::axpy_i32`] at the caller's [`KernelTier`] (the scalar
//! tier runs the same body with the portable `axpy`). The two entry
//! points differ only in who walks the channels: the calling thread
//! ([`conv2d_gemm_quant_tier`]) or an intra-image worker pool
//! ([`conv2d_gemm_quant_pool`]).

use crate::conv::QuantConvWeights;
use crate::par::{ConvPool, SendPtr};
use crate::simd::{self, KernelTier, GEMM_I32_CHUNK_ROWS};
use zskip_quant::Sm8;
use zskip_tensor::{Shape, Tensor};

/// Lowers input patches to a `(c * k * k) x (out_h * out_w)` matrix in
/// row-major order (one column per output position).
pub fn im2col<T: Copy + Default>(
    input: &Tensor<T>,
    k: usize,
    stride: usize,
    pad: usize,
    zero: T,
) -> (Vec<T>, Shape) {
    let s = input.shape();
    let out_h = (s.h + 2 * pad - k) / stride + 1;
    let out_w = (s.w + 2 * pad - k) / stride + 1;
    let rows = s.c * k * k;
    let cols = out_h * out_w;
    let mut m = vec![zero; rows * cols];
    for c in 0..s.c {
        for ky in 0..k {
            for kx in 0..k {
                let row = (c * k + ky) * k + kx;
                let dst = &mut m[row * cols..(row + 1) * cols];
                for oy in 0..out_h {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    for ox in 0..out_w {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        dst[oy * out_w + ox] = input.get_or(c, iy, ix, zero);
                    }
                }
            }
        }
    }
    (m, Shape::new(rows, out_h, out_w))
}

/// Whether this conv geometry makes im2col the identity: a 1x1 stride-1
/// unpadded (pointwise) convolution's patch matrix *is* the input
/// activation, channel-major — one row per input channel, one column per
/// position. ResNet projection shortcuts are exactly this shape, so the
/// quantized GEMM skips the lowering copy entirely and streams the input
/// slice straight into the row-panel kernel.
pub fn pointwise_is_identity(k: usize, stride: usize, pad: usize) -> bool {
    k == 1 && stride == 1 && pad == 0
}

/// Lowers patches for the quantized GEMM, borrowing the input directly
/// when [`pointwise_is_identity`] holds.
fn lower_patches<'a>(
    input: &'a Tensor<Sm8>,
    k: usize,
    stride: usize,
    pad: usize,
) -> (std::borrow::Cow<'a, [Sm8]>, Shape) {
    if pointwise_is_identity(k, stride, pad) {
        let s = input.shape();
        return (std::borrow::Cow::Borrowed(input.as_slice()), Shape::new(s.c, s.h, s.w));
    }
    let (m, shape) = im2col(input, k, stride, pad, Sm8::ZERO);
    (std::borrow::Cow::Owned(m), shape)
}

/// Integer-exact quantized convolution via im2col + row-panel GEMM on
/// the calling thread, at an explicit kernel tier; must agree bit-for-bit
/// with [`crate::conv::conv2d_quant_dense`].
///
/// Per output channel, an `i32` column-accumulator panel is updated one
/// reduction row at a time by [`crate::simd::axpy_i32`] (skipping zero
/// weights — the software analogue of the hardware's zero-weight skip),
/// flushed into `i64` every [`GEMM_I32_CHUNK_ROWS`] rows so no `i32` lane
/// can overflow. Integer accumulation is order-independent, so all tiers
/// are bit-identical (pinned by property test).
pub fn conv2d_gemm_quant_tier(
    input: &Tensor<Sm8>,
    weights: &QuantConvWeights,
    stride: usize,
    pad: usize,
    tier: KernelTier,
) -> Tensor<Sm8> {
    let (m, mshape) = lower_patches(input, weights.k, stride, pad);
    let cols = mshape.h * mshape.w;
    let rows = mshape.c;
    let mut out = Tensor::zeros(weights.out_c, mshape.h, mshape.w);
    let out_slice = out.as_mut_slice();
    let mut acc64 = vec![0i64; cols];
    let mut acc32 = vec![0i32; cols];
    for o in 0..weights.out_c {
        let plane = &mut out_slice[o * cols..(o + 1) * cols];
        gemm_quant_channel(&m[..], cols, rows, weights, o, tier, &mut acc64, &mut acc32, plane);
    }
    out
}

/// One output channel of the row-panel quantized GEMM: the shared
/// body of [`conv2d_gemm_quant_tier`] and [`conv2d_gemm_quant_pool`]. Each
/// channel owns its accumulator panel and walks the reduction rows in
/// ascending order, so the channel's result is independent of which thread
/// (or how many) computes the other channels.
#[allow(clippy::too_many_arguments)]
fn gemm_quant_channel(
    m: &[Sm8],
    cols: usize,
    rows: usize,
    weights: &QuantConvWeights,
    o: usize,
    tier: KernelTier,
    acc64: &mut [i64],
    acc32: &mut [i32],
    out_plane: &mut [Sm8],
) {
    let wrow = &weights.w[o * rows..(o + 1) * rows];
    acc64.fill(weights.bias_acc[o]);
    acc32.fill(0);
    let mut pending = 0usize;
    for (r, &wv) in wrow.iter().enumerate() {
        let wv = wv.to_i32();
        if wv == 0 {
            continue;
        }
        simd::axpy_i32(tier, acc32, &m[r * cols..(r + 1) * cols], wv);
        pending += 1;
        if pending == GEMM_I32_CHUNK_ROWS {
            for (a64, a32) in acc64.iter_mut().zip(acc32.iter_mut()) {
                *a64 += *a32 as i64;
                *a32 = 0;
            }
            pending = 0;
        }
    }
    if pending > 0 {
        for (a64, a32) in acc64.iter_mut().zip(acc32.iter()) {
            *a64 += *a32 as i64;
        }
    }
    for (dst, &a) in out_plane.iter_mut().zip(acc64.iter()) {
        *dst = if weights.relu { weights.requant.apply_relu(a) } else { weights.requant.apply(a) };
    }
}

/// [`conv2d_gemm_quant_tier`] with the output channels chunked across an
/// intra-image worker pool: each participant takes a contiguous channel
/// range and runs `gemm_quant_channel` per channel with its own
/// accumulator panels. Bit-identical to the single-threaded row-panel
/// kernel at any worker count (channels are computed by the same body in
/// the same reduction order — only the executing thread varies).
pub fn conv2d_gemm_quant_pool(
    input: &Tensor<Sm8>,
    weights: &QuantConvWeights,
    stride: usize,
    pad: usize,
    tier: KernelTier,
    pool: &ConvPool,
) -> Tensor<Sm8> {
    let (m, mshape) = lower_patches(input, weights.k, stride, pad);
    let cols = mshape.h * mshape.w;
    let rows = mshape.c;
    let mut out = Tensor::zeros(weights.out_c, mshape.h, mshape.w);
    let out_ptr = SendPtr::new(out.as_mut_slice().as_mut_ptr());
    let panels = pool.threads().min(weights.out_c.max(1));
    let per = weights.out_c.div_ceil(panels);
    let m = &m[..];
    pool.run(panels, &|_, panel| {
        let o_lo = panel * per;
        let o_hi = ((panel + 1) * per).min(weights.out_c);
        // The GEMM path allocates per call anyway (im2col); per-panel
        // accumulators keep it simple. The allocation-free path is the
        // direct conv in `crate::conv`.
        let mut acc64 = vec![0i64; cols];
        let mut acc32 = vec![0i32; cols];
        for o in o_lo..o_hi {
            // SAFETY: panels own disjoint channel ranges, so plane `o` has
            // a single writer; `o < out_c` keeps it in bounds.
            let plane =
                unsafe { std::slice::from_raw_parts_mut(out_ptr.add(o * cols), cols) };
            gemm_quant_channel(m, cols, rows, weights, o, tier, &mut acc64, &mut acc32, plane);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{conv2d_quant, conv2d_quant_dense};
    use proptest::prelude::*;
    use zskip_quant::Requantizer;

    fn quant_weights(out_c: usize, in_c: usize, k: usize, seed: u64) -> QuantConvWeights {
        QuantConvWeights::new(
            out_c,
            in_c,
            k,
            (0..out_c * in_c * k * k)
                .map(|i| {
                    let v = ((i as u64).wrapping_mul(seed.wrapping_mul(2654435761) | 1) >> 9) % 255;
                    Sm8::from_i32_saturating(v as i32 - 127)
                })
                .collect(),
            (0..out_c as i64).map(|o| o * 7 - 11).collect(),
            Requantizer::from_ratio(1.0 / 16.0),
            seed.is_multiple_of(2),
        )
    }

    #[test]
    fn im2col_shape_and_patch_content() {
        let input = Tensor::from_fn(2, 4, 4, |c, y, x| (c * 16 + y * 4 + x) as f32);
        let (m, shape) = im2col(&input, 3, 1, 1, 0.0);
        assert_eq!(shape, Shape::new(2 * 9, 4, 4));
        let cols = 16;
        // Center kernel tap of channel 0 at output (1,1) is input (1,1).
        let row = 4; // (c=0, ky=1, kx=1)
        assert_eq!(m[row * cols + 5], input[(0, 1, 1)]);
        // Top-left tap at output (0,0) is padding.
        assert_eq!(m[0], 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn quant_gemm_is_bit_exact_vs_direct(
            out_c in 1usize..5,
            in_c in 1usize..4,
            h in 3usize..9,
            w in 3usize..9,
            k in 1usize..4,
            pad in 0usize..2,
            seed in 0u64..500,
        ) {
            prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
            let qw = quant_weights(out_c, in_c, k, seed);
            let input = Tensor::from_fn(in_c, h, w, |c, y, x| {
                Sm8::from_i32_saturating((((c * 131 + y * 17 + x * 3) as u64 ^ seed) % 255) as i32 - 127)
            });
            let direct = conv2d_quant(&input, &qw, 1, pad);
            let gemm = conv2d_gemm_quant_tier(&input, &qw, 1, pad, simd::dispatch());
            prop_assert_eq!(direct, gemm);
        }

        // Every reachable tier (scalar included — it runs the same
        // row-panel body) vs. the independent dense scan: exact.
        #[test]
        fn quant_gemm_tiers_are_bit_exact_vs_dense_oracle(
            out_c in 1usize..10,
            in_c in 1usize..4,
            hw in 3usize..10,
            k in 1usize..4,
            pad in 0usize..2,
            stride in 1usize..3,
            seed in 0u64..500,
        ) {
            prop_assume!(hw + 2 * pad >= k);
            let qw = quant_weights(out_c, in_c, k, seed);
            let input = Tensor::from_fn(in_c, hw, hw, |c, y, x| {
                Sm8::from_i32_saturating((((c * 53 + y * 19 + x * 5) as u64 ^ seed) % 255) as i32 - 127)
            });
            let oracle = conv2d_quant_dense(&input, &qw, stride, pad);
            for tier in KernelTier::supported() {
                let got = conv2d_gemm_quant_tier(&input, &qw, stride, pad, tier);
                prop_assert_eq!(&oracle, &got, "tier {}", tier);
            }
        }

        // The 1x1 fast path (borrowed input as the patch matrix) vs. the
        // dense scan, which never lowers at all.
        #[test]
        fn pointwise_fast_path_is_bit_exact(
            out_c in 1usize..8,
            in_c in 1usize..5,
            hw in 2usize..12,
            seed in 0u64..500,
        ) {
            let qw = quant_weights(out_c, in_c, 1, seed);
            let input = Tensor::from_fn(in_c, hw, hw, |c, y, x| {
                Sm8::from_i32_saturating((((c * 97 + y * 23 + x * 3) as u64 ^ seed) % 255) as i32 - 127)
            });
            let oracle = conv2d_quant_dense(&input, &qw, 1, 0);
            for tier in KernelTier::supported() {
                let fast = conv2d_gemm_quant_tier(&input, &qw, 1, 0, tier);
                prop_assert_eq!(&oracle, &fast, "fast path, tier {}", tier);
            }
        }
    }

    #[test]
    fn pointwise_lowering_borrows_the_input() {
        let input = Tensor::from_fn(3, 4, 5, |c, y, x| {
            Sm8::from_i32_saturating((c * 20 + y * 5 + x) as i32 - 30)
        });
        assert!(pointwise_is_identity(1, 1, 0));
        assert!(!pointwise_is_identity(1, 2, 0));
        assert!(!pointwise_is_identity(1, 1, 1));
        assert!(!pointwise_is_identity(3, 1, 0));
        let (m, shape) = lower_patches(&input, 1, 1, 0);
        assert!(matches!(m, std::borrow::Cow::Borrowed(_)), "1x1 must not copy");
        assert_eq!(shape, Shape::new(3, 4, 5));
        assert_eq!(&m[..], input.as_slice());
        // Any other geometry materializes the patch matrix.
        let (strided, _) = lower_patches(&input, 1, 2, 0);
        assert!(matches!(strided, std::borrow::Cow::Owned(_)));
    }
}
