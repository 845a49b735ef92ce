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
//! ([`conv2d_gemm_quant_into`]) or an intra-image worker pool
//! ([`conv2d_gemm_quant_pool_into`]). Both write into a caller-owned
//! output tensor and borrow the patch matrix and accumulator panels from
//! a [`GemmScratch`], so a warmed arena runs them allocation-free;
//! [`conv2d_gemm_quant_tier`] / [`conv2d_gemm_quant_pool`] are the
//! allocating conveniences over the same bodies.

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
    let mut m = Vec::new();
    let shape = im2col_into(input, k, stride, pad, zero, &mut m);
    (m, shape)
}

/// [`im2col`] into a caller-owned matrix buffer, reusing its allocation.
fn im2col_into<T: Copy + Default>(
    input: &Tensor<T>,
    k: usize,
    stride: usize,
    pad: usize,
    zero: T,
    m: &mut Vec<T>,
) -> Shape {
    let s = input.shape();
    let out_h = (s.h + 2 * pad - k) / stride + 1;
    let out_w = (s.w + 2 * pad - k) / stride + 1;
    let rows = s.c * k * k;
    let cols = out_h * out_w;
    m.clear();
    m.resize(rows * cols, zero);
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
    Shape::new(rows, out_h, out_w)
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

/// Elements between two worker panels' accumulators in a [`GemmScratch`]:
/// at least one cache line for either element width, so panels never
/// false-share however few columns a layer has.
const PANEL_PAD: usize = 16;

/// Reusable buffers of the quantized GEMM: the im2col patch matrix and
/// the `i64` / `i32` column-accumulator panels (one pair per worker-pool
/// panel). Buffers only ever grow; the [`crate::scratch::Scratch`] arena
/// owns one.
#[derive(Debug, Clone, Default)]
pub struct GemmScratch {
    patches: Vec<Sm8>,
    acc64: Vec<i64>,
    acc32: Vec<i32>,
}

impl GemmScratch {
    /// Total bytes currently reserved by the buffers.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.patches.capacity()
            + self.acc64.capacity() * std::mem::size_of::<i64>()
            + self.acc32.capacity() * std::mem::size_of::<i32>()
    }
}

/// Lowers patches for the quantized GEMM into `buf`, borrowing the input
/// directly (and leaving `buf` untouched) when [`pointwise_is_identity`]
/// holds.
fn lower_patches<'a>(
    input: &'a Tensor<Sm8>,
    k: usize,
    stride: usize,
    pad: usize,
    buf: &'a mut Vec<Sm8>,
) -> (&'a [Sm8], Shape) {
    if pointwise_is_identity(k, stride, pad) {
        return (input.as_slice(), input.shape());
    }
    let shape = im2col_into(input, k, stride, pad, Sm8::ZERO, buf);
    (buf, shape)
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
    let mut out = Tensor::zeros(1, 1, 1);
    conv2d_gemm_quant_into(input, weights, stride, pad, tier, &mut GemmScratch::default(), &mut out);
    out
}

/// [`conv2d_gemm_quant_tier`] writing into `out` (reshaped in place) with
/// the patch matrix and accumulator panels borrowed from `ws`:
/// allocation-free once both have grown to the layer's size.
pub fn conv2d_gemm_quant_into(
    input: &Tensor<Sm8>,
    weights: &QuantConvWeights,
    stride: usize,
    pad: usize,
    tier: KernelTier,
    ws: &mut GemmScratch,
    out: &mut Tensor<Sm8>,
) {
    let GemmScratch { patches, acc64, acc32 } = ws;
    let (m, mshape) = lower_patches(input, weights.k, stride, pad, patches);
    let cols = mshape.h * mshape.w;
    let rows = mshape.c;
    out.reset(weights.out_c, mshape.h, mshape.w);
    // Sized only: `gemm_quant_channel` re-initializes both per channel.
    acc64.resize(cols, 0);
    acc32.resize(cols, 0);
    let out_slice = out.as_mut_slice();
    for o in 0..weights.out_c {
        let plane = &mut out_slice[o * cols..(o + 1) * cols];
        gemm_quant_channel(m, cols, rows, weights, o, tier, acc64, acc32, plane);
    }
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
    let mut out = Tensor::zeros(1, 1, 1);
    conv2d_gemm_quant_pool_into(input, weights, stride, pad, tier, pool, &mut GemmScratch::default(), &mut out);
    out
}

/// [`conv2d_gemm_quant_pool`] writing into `out` with buffers borrowed
/// from `ws` (one accumulator-panel pair per channel range), like
/// [`conv2d_gemm_quant_into`].
#[allow(clippy::too_many_arguments)]
pub fn conv2d_gemm_quant_pool_into(
    input: &Tensor<Sm8>,
    weights: &QuantConvWeights,
    stride: usize,
    pad: usize,
    tier: KernelTier,
    pool: &ConvPool,
    ws: &mut GemmScratch,
    out: &mut Tensor<Sm8>,
) {
    let GemmScratch { patches, acc64, acc32 } = ws;
    let (m, mshape) = lower_patches(input, weights.k, stride, pad, patches);
    let cols = mshape.h * mshape.w;
    let rows = mshape.c;
    out.reset(weights.out_c, mshape.h, mshape.w);
    let panels = pool.threads().min(weights.out_c.max(1));
    let per = weights.out_c.div_ceil(panels);
    // Deep layers have panels of a few elements: the pad keeps two
    // workers' accumulators off a shared cache line.
    let stride = cols + PANEL_PAD;
    acc64.resize(panels * stride, 0);
    acc32.resize(panels * stride, 0);
    let acc64_ptr = SendPtr::new(acc64.as_mut_ptr());
    let acc32_ptr = SendPtr::new(acc32.as_mut_ptr());
    let out_ptr = SendPtr::new(out.as_mut_slice().as_mut_ptr());
    pool.run(panels, &|_, panel| {
        let o_lo = panel * per;
        let o_hi = ((panel + 1) * per).min(weights.out_c);
        // SAFETY: each panel index is claimed exactly once, so accumulator
        // slices `panel` have a single owner; `panel < panels` and
        // `cols <= stride` keep them inside the resize above.
        let (acc64, acc32) = unsafe {
            (
                std::slice::from_raw_parts_mut(acc64_ptr.add(panel * stride), cols),
                std::slice::from_raw_parts_mut(acc32_ptr.add(panel * stride), cols),
            )
        };
        for o in o_lo..o_hi {
            // SAFETY: panels own disjoint channel ranges, so plane `o` has
            // a single writer; `o < out_c` keeps it in bounds.
            let plane =
                unsafe { std::slice::from_raw_parts_mut(out_ptr.add(o * cols), cols) };
            gemm_quant_channel(m, cols, rows, weights, o, tier, acc64, acc32, plane);
        }
    });
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

        // The arena path: one dirty workspace and one dirty output reused
        // across layers of different shapes (3x3 then 1x1, so the patch
        // buffer is stale when the pointwise layer borrows its input),
        // single-threaded and over a 3-worker pool.
        #[test]
        fn into_variants_reuse_a_dirty_workspace_bit_exactly(
            out_c in 1usize..10,
            in_c in 1usize..4,
            hw in 3usize..10,
            seed in 0u64..500,
        ) {
            let pool = ConvPool::new(3);
            let mut ws = GemmScratch::default();
            let mut out = Tensor::from_fn(2, 11, 11, |_, _, _| Sm8::from_i32_saturating(5));
            for (k, pad, hw) in [(3, 1, hw), (1, 0, hw + 2), (2, 0, hw)] {
                let qw = quant_weights(out_c, in_c, k, seed);
                let input = Tensor::from_fn(in_c, hw, hw, |c, y, x| {
                    Sm8::from_i32_saturating((((c * 71 + y * 13 + x * 7) as u64 ^ seed) % 255) as i32 - 127)
                });
                let oracle = conv2d_quant_dense(&input, &qw, 1, pad);
                conv2d_gemm_quant_into(&input, &qw, 1, pad, simd::dispatch(), &mut ws, &mut out);
                prop_assert_eq!(&oracle, &out, "k={} single-threaded", k);
                conv2d_gemm_quant_pool_into(&input, &qw, 1, pad, simd::dispatch(), &pool, &mut ws, &mut out);
                prop_assert_eq!(&oracle, &out, "k={} pooled", k);
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
        let mut buf = Vec::new();
        let (m, shape) = lower_patches(&input, 1, 1, 0, &mut buf);
        assert!(std::ptr::eq(m, input.as_slice()), "1x1 must not copy");
        assert_eq!(shape, Shape::new(3, 4, 5));
        assert!(buf.is_empty());
        // Any other geometry materializes the patch matrix.
        let (strided, _) = lower_patches(&input, 1, 2, 0, &mut buf);
        assert!(!std::ptr::eq(strided, input.as_slice()));
        assert_eq!(strided.len(), 3 * 2 * 3);
    }
}
