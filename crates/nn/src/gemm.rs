//! The one quantized convolution kernel: lowering + GEMM — and the one
//! integer GEMM body FC layers share with it.
//!
//! Every host-side conv — the software golden model's plan walk, the cpu
//! backend on every [`KernelTier`] and [`crate::conv::conv2d_quant`] — is
//! the classic lowering: unroll input patches into a matrix and multiply
//! by the filter matrix. The scalar oracle is the dense scan
//! [`crate::conv::conv2d_quant_dense`], which shares no loop structure
//! with it; property tests here and in `tests/kernel_tiers.rs` hold every
//! tier to it bit for bit.
//!
//! The GEMM is **output-stationary, in dot-product ("NT") form**:
//! `out[o][col] = bias[o] + Σ_r W[o][r] · P[col][r]` with both operands
//! contiguous along the reduction `r = (i, ky, kx)`. That is how
//! [`QuantConvWeights::w`] (and an FC layer's `w`) is laid out already, so
//! no weight is repacked or copied; the lowering writes the patch matrix
//! *transposed* — one row per output position — and decoded to `i16`, and
//! [`crate::simd::dot_nt`] keeps a register block of sums to completion
//! with the vector lanes along `r`. Lane occupancy therefore does not
//! depend on the plane size: a 2x2 plane, a 32x32 plane and an FC layer
//! (the one-column case, [`crate::fc::fc_quant_pool_into`]) all run
//! `gemm_quant_into`, at the caller's [`KernelTier`] (the scalar tier runs
//! the same blocking with a portable dot).
//!
//! [`conv2d_gemm_quant_into`] is the entry point: the work is done by the
//! calling thread, or — with a pool — split over its workers (lowering by
//! column range, GEMM by output-channel range). It writes into a
//! caller-owned output tensor and borrows the patch matrix from a
//! [`GemmScratch`], so a warmed arena runs it allocation-free;
//! [`conv2d_gemm_quant_tier`] / [`conv2d_gemm_quant_pool`] are the
//! allocating conveniences.

use crate::conv::{tap_span, QuantConvWeights};
use crate::par::{ConvPool, SendPtr};
use crate::simd::{self, KernelTier};
use zskip_quant::{Requantizer, Sm8};
use zskip_tensor::{Shape, Tensor};

/// The reusable buffers of the quantized GEMM's patch side. They only
/// ever grow; the [`crate::scratch::Scratch`] arena owns one set.
#[derive(Debug, Clone, Default)]
pub struct GemmScratch {
    /// The layer's input decoded to `i16`: what a conv layer's patch rows
    /// are copied out of, and an FC layer's one patch row as it stands.
    decoded: Vec<i16>,
    /// The transposed patch matrix `P[col][r]` of a conv layer.
    patches: Vec<i16>,
}

impl GemmScratch {
    /// Total bytes currently reserved by the buffers.
    pub(crate) fn capacity_bytes(&self) -> usize {
        (self.decoded.capacity() + self.patches.capacity()) * std::mem::size_of::<i16>()
    }

    /// Decodes `input` into the workspace and returns the decoded values.
    pub(crate) fn decode(&mut self, input: &[Sm8]) -> &[i16] {
        self.decoded.resize(input.len(), 0);
        Sm8::decode_slice_i16(input, &mut self.decoded);
        &self.decoded
    }
}

/// What the split decisions are made from (measured on the widest tier:
/// docs/KERNELS.md, "Intra-image threading"): multiply-accumulates of the
/// [`simd::dot_nt`] body per nanosecond; how many columns' worth of them
/// streaming a weight row in from memory costs anyway (an FC layer, a 2x2
/// plane); and nanoseconds per requantized output on top of its reduction.
const MACS_PER_NS: usize = 32;
const STREAM_COLS: usize = 5;
const EPILOGUE_NS: usize = 6;

/// Cuts the `items` of a `rows x cols x len` GEMM — its own output rows,
/// or the patch rows of the lowering that feeds it, so that a layer wakes
/// the pool for both phases or for neither — into contiguous runs for
/// `pool`: [`ConvPool::runs`] of them by the GEMM's estimated time, one
/// without a pool. Returns `(runs, items per run)`.
fn split(pool: Option<&ConvPool>, items: usize, [rows, cols, len]: [usize; 3]) -> (usize, usize) {
    let ns = rows * len * cols.max(STREAM_COLS) / MACS_PER_NS + rows * cols * EPILOGUE_NS;
    let runs = pool.map_or(1, |pool| pool.runs(items, ns));
    (runs, items.div_ceil(runs))
}

/// Runs `job(run)` for every run: over `pool` when one is attached, else
/// on the calling thread.
fn for_each_run(pool: Option<&ConvPool>, runs: usize, job: &(dyn Fn(usize) + Sync)) {
    match pool {
        Some(pool) => pool.run(runs, &|_, run| job(run)),
        None => (0..runs).for_each(job),
    }
}

/// Lowers `input` for a `k x k` convolution into `ws`: the input decoded
/// to `i16` once, then the transposed patch matrix `patches[col * len +
/// r]` — one row of `len = c * k * k` values `r = (c, ky, kx)` per output
/// position `col = oy * out_w + ox` — copied out of it, output rows split
/// over `pool`, when one is attached, the way the `out_c`-row GEMM this
/// feeds will be. A 1x1 convolution's lowering is the transpose of its
/// input. Returns `(out_h, out_w)`.
fn lower_into(
    input: &Tensor<Sm8>,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    pool: Option<&ConvPool>,
    ws: &mut GemmScratch,
) -> (usize, usize) {
    let s = input.shape();
    let out_h = (s.h + 2 * pad - k) / stride + 1;
    let out_w = (s.w + 2 * pad - k) / stride + 1;
    ws.decode(input.as_slice());
    let GemmScratch { decoded, patches } = ws;
    // Sized only: `lower_rows` writes every element.
    let row_len = out_w * s.c * k * k;
    patches.resize(out_h * row_len, 0);
    let (runs, per) = split(pool, out_h, [out_c, out_h * out_w, s.c * k * k]);
    let patches_ptr = SendPtr::new(patches.as_mut_ptr());
    for_each_run(pool, runs, &|run| {
        let oys = (run * per).min(out_h)..((run + 1) * per).min(out_h);
        // SAFETY: runs own disjoint output-row ranges inside the resize
        // above.
        let rows =
            unsafe { std::slice::from_raw_parts_mut(patches_ptr.add(oys.start * row_len), oys.len() * row_len) };
        lower_rows(decoded, s, k, stride, pad, (out_h, out_w), oys, rows);
    });
    (out_h, out_w)
}

/// The rows of the patch matrix for output rows `oys` of a decoded input
/// `d`. Per kernel tap and input channel, the values one output row reads
/// through that tap are a (strided) run of one input row; they go to the
/// same element `r` of consecutive patch rows. The lines an output row's
/// patch rows span stay cached while every `r` passes over them.
#[allow(clippy::too_many_arguments)]
fn lower_rows(
    d: &[i16],
    s: Shape,
    k: usize,
    stride: usize,
    pad: usize,
    (out_h, out_w): (usize, usize),
    oys: std::ops::Range<usize>,
    rows: &mut [i16],
) {
    let len = s.c * k * k;
    if pad > 0 {
        // Taps that sample the padding are skipped below.
        rows.fill(0);
    }
    for (oy, rows) in oys.zip(rows.chunks_exact_mut(out_w * len)) {
        for kx in 0..k {
            let xs = tap_span(kx, pad, stride, s.w, out_w);
            if xs.is_empty() {
                continue;
            }
            let ix = xs.start * stride + kx - pad;
            for ky in (0..k).filter(|&ky| tap_span(ky, pad, stride, s.h, out_h).contains(&oy)) {
                let iy = oy * stride + ky - pad;
                for c in 0..s.c {
                    // Sliced to the last element touched, so the strided
                    // indices below are provably in bounds.
                    let src = &d[(c * s.h + iy) * s.w + ix..][..(xs.len() - 1) * stride + 1];
                    let dst = &mut rows[xs.start * len + (c * k + ky) * k + kx..][..(xs.len() - 1) * len + 1];
                    for t in 0..xs.len() {
                        dst[t * len] = src[t * stride];
                    }
                }
            }
        }
    }
}

/// The weight side of one GEMM — `bias_acc.len()` rows of `len` weights —
/// with its epilogue: a conv layer's filters or an FC layer's rows.
pub(crate) struct GemmWeights<'a> {
    pub w: &'a [Sm8],
    pub len: usize,
    pub bias_acc: &'a [i64],
    pub requant: Requantizer,
    pub relu: bool,
}

/// `out[o * cols + col] = requant(bias[o] + Σ_r w[o][r] · p[col][r])`: the
/// one integer GEMM body behind every conv geometry and FC. Output rows
/// are split over `pool` when one is attached — each run is the same
/// [`simd::dot_nt`] call over a disjoint slice of `out`, and every sum is
/// one exact integer dot product, so the result is bit-identical at any
/// worker count and on any tier.
pub(crate) fn gemm_quant_into(
    tier: KernelTier,
    pool: Option<&ConvPool>,
    weights: GemmWeights<'_>,
    p: &[i16],
    cols: usize,
    out: &mut [Sm8],
) {
    let GemmWeights { w, len, bias_acc, requant, relu } = weights;
    let rows = bias_acc.len();
    assert_eq!(out.len(), rows * cols, "output is not rows x cols");
    let (runs, per) = split(pool, rows, [rows, cols, len]);
    let out_ptr = SendPtr::new(out.as_mut_ptr());
    for_each_run(pool, runs, &|run| {
        let (lo, hi) = ((run * per).min(rows), ((run + 1) * per).min(rows));
        // SAFETY: runs own disjoint row ranges of `out`, checked above to
        // hold `rows * cols` elements.
        let out = unsafe { std::slice::from_raw_parts_mut(out_ptr.add(lo * cols), (hi - lo) * cols) };
        simd::dot_nt(tier, &w[lo * len..hi * len], p, [hi - lo, cols, len], |i, j, sum| {
            let acc = bias_acc[lo + i] + sum;
            out[i * cols + j] = if relu { requant.apply_relu(acc) } else { requant.apply(acc) };
        });
    });
}

/// Integer-exact quantized convolution via lowering + output-stationary
/// GEMM at an explicit kernel tier, writing into `out` (reshaped in place)
/// with the patch matrix borrowed from `ws`: allocation-free once both
/// have grown to the layer's size. With a `pool` the lowering is split by
/// column range and the GEMM by output-channel range over its workers,
/// bit-identically at any worker count. Must agree bit-for-bit with
/// [`crate::conv::conv2d_quant_dense`]. Zero weights are multiplied, not
/// skipped — the hardware's zero-skipping is modelled by the stats pass,
/// not by this kernel.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_gemm_quant_into(
    input: &Tensor<Sm8>,
    weights: &QuantConvWeights,
    stride: usize,
    pad: usize,
    tier: KernelTier,
    pool: Option<&ConvPool>,
    ws: &mut GemmScratch,
    out: &mut Tensor<Sm8>,
) {
    assert_eq!(input.shape().c, weights.in_c, "input channels mismatch");
    let (out_h, out_w) = lower_into(input, weights.out_c, weights.k, stride, pad, pool, ws);
    out.reset(weights.out_c, out_h, out_w);
    let gemm = GemmWeights {
        w: &weights.w,
        len: weights.in_c * weights.k * weights.k,
        bias_acc: &weights.bias_acc,
        requant: weights.requant,
        relu: weights.relu,
    };
    gemm_quant_into(tier, pool, gemm, &ws.patches, out_h * out_w, out.as_mut_slice());
}

/// [`conv2d_gemm_quant_into`] on the calling thread, allocating its
/// workspace and output.
pub fn conv2d_gemm_quant_tier(
    input: &Tensor<Sm8>,
    weights: &QuantConvWeights,
    stride: usize,
    pad: usize,
    tier: KernelTier,
) -> Tensor<Sm8> {
    let mut out = Tensor::zeros(1, 1, 1);
    conv2d_gemm_quant_into(input, weights, stride, pad, tier, None, &mut GemmScratch::default(), &mut out);
    out
}

/// [`conv2d_gemm_quant_into`] over an intra-image worker pool, allocating
/// its workspace and output.
pub fn conv2d_gemm_quant_pool(
    input: &Tensor<Sm8>,
    weights: &QuantConvWeights,
    stride: usize,
    pad: usize,
    tier: KernelTier,
    pool: &ConvPool,
) -> Tensor<Sm8> {
    let mut out = Tensor::zeros(1, 1, 1);
    conv2d_gemm_quant_into(input, weights, stride, pad, tier, Some(pool), &mut GemmScratch::default(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d_quant_dense;
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

    fn ramp(c: usize, h: usize, w: usize) -> Tensor<Sm8> {
        Tensor::from_fn(c, h, w, |c, y, x| Sm8::from_i32_saturating((c * h * w + y * w + x) as i32 % 255 - 127))
    }

    /// `P[col][r]` read straight off the definition: tap `(ky, kx)` of
    /// channel `c` at output `(oy, ox)`, zero in the padding.
    fn lowered_oracle(input: &Tensor<Sm8>, k: usize, stride: usize, pad: usize) -> Vec<i16> {
        let padded = input.padded(pad);
        let s = padded.shape();
        let (out_h, out_w) = ((s.h - k) / stride + 1, (s.w - k) / stride + 1);
        let mut m = Vec::new();
        for (oy, ox) in (0..out_h).flat_map(|oy| (0..out_w).map(move |ox| (oy, ox))) {
            for (c, ky, kx) in (0..s.c).flat_map(|c| (0..k).flat_map(move |ky| (0..k).map(move |kx| (c, ky, kx)))) {
                m.push(padded[(c, oy * stride + ky, ox * stride + kx)].decode_i16());
            }
        }
        m
    }

    #[test]
    fn im2col_shape_and_patch_content() {
        let input = ramp(2, 4, 4);
        let mut ws = GemmScratch::default();
        assert_eq!(lower_into(&input, 1, 3, 1, 1, None, &mut ws), (4, 4));
        let len = 2 * 9;
        assert_eq!(ws.patches.len(), 16 * len);
        // Center kernel tap of channel 0 at output (1,1) is input (1,1).
        let r = 4; // (c=0, ky=1, kx=1)
        assert_eq!(ws.patches[5 * len + r], input[(0, 1, 1)].decode_i16());
        // Top-left tap at output (0,0) is padding.
        assert_eq!(ws.patches[0], 0);
        assert_eq!(ws.patches, lowered_oracle(&input, 3, 1, 1));
    }

    #[test]
    fn lowering_matches_its_definition_on_a_dirty_workspace_at_any_pool_width() {
        // One workspace across geometries: a stale, larger matrix must not
        // leak into a padded border, a strided sample or a 1x1 transpose.
        let mut ws = GemmScratch::default();
        let pools: Vec<ConvPool> = (1..=4).map(ConvPool::forced).collect();
        for (c, h, w) in [(3, 7, 9), (2, 5, 5), (4, 2, 3), (1, 1, 1)] {
            let input = ramp(c, h, w);
            for (k, stride, pad) in [(3, 1, 1), (3, 2, 0), (1, 1, 0), (1, 2, 1), (2, 1, 1), (5, 2, 2)] {
                if h + 2 * pad < k || w + 2 * pad < k {
                    continue;
                }
                let want = lowered_oracle(&input, k, stride, pad);
                for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
                    lower_into(&input, 1, k, stride, pad, pool, &mut ws);
                    assert_eq!(ws.patches, want, "{c}x{h}x{w} k={k} stride={stride} pad={pad} pool={pool:?}");
                }
            }
        }
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
            let direct = conv2d_quant_dense(&input, &qw, 1, pad);
            let gemm = conv2d_gemm_quant_tier(&input, &qw, 1, pad, simd::dispatch());
            prop_assert_eq!(direct, gemm);
        }

        // Every reachable tier (scalar included — it runs the same
        // blocking) vs. the independent dense scan: exact.
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
        // across layers of different shapes (3x3, then a larger 1x1, then
        // 2x2 — the patch matrix is stale every time), single-threaded and
        // over a 3-worker pool.
        #[test]
        fn into_variants_reuse_a_dirty_workspace_bit_exactly(
            out_c in 1usize..10,
            in_c in 1usize..4,
            hw in 3usize..10,
            seed in 0u64..500,
        ) {
            let pool = ConvPool::forced(3);
            let mut ws = GemmScratch::default();
            let mut out = Tensor::from_fn(2, 11, 11, |_, _, _| Sm8::from_i32_saturating(5));
            for (k, pad, hw) in [(3, 1, hw), (1, 0, hw + 2), (2, 0, hw)] {
                let qw = quant_weights(out_c, in_c, k, seed);
                let input = Tensor::from_fn(in_c, hw, hw, |c, y, x| {
                    Sm8::from_i32_saturating((((c * 71 + y * 13 + x * 7) as u64 ^ seed) % 255) as i32 - 127)
                });
                let oracle = conv2d_quant_dense(&input, &qw, 1, pad);
                conv2d_gemm_quant_into(&input, &qw, 1, pad, simd::dispatch(), None, &mut ws, &mut out);
                prop_assert_eq!(&oracle, &out, "k={} single-threaded", k);
                conv2d_gemm_quant_into(&input, &qw, 1, pad, simd::dispatch(), Some(&pool), &mut ws, &mut out);
                prop_assert_eq!(&oracle, &out, "k={} pooled", k);
            }
        }

        // A 1x1 conv (lowering = transpose of the input) vs. the dense
        // scan, which never lowers at all.
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
                prop_assert_eq!(&oracle, &fast, "tier {}", tier);
            }
        }
    }

    #[test]
    fn gemm_matches_dense_oracle_on_small_planes_and_ragged_blocks() {
        // Output planes 1x1, 2x2, 4x4 (the deep layers whose columns the
        // vector lanes no longer run along) and 5x7 (35 columns: not a
        // block multiple), five output channels (not a block multiple),
        // every k / stride / pad that produces the plane — on every tier,
        // single-threaded and over pools of 1-4, one dirty workspace and
        // output throughout.
        let pools: Vec<ConvPool> = (1..=4).map(ConvPool::forced).collect();
        let mut ws = GemmScratch::default();
        let mut out = Tensor::zeros(1, 1, 1);
        for (out_h, out_w) in [(1, 1), (2, 2), (4, 4), (5, 7)] {
            for (k, stride, pad) in (1..=3).flat_map(|k| (1..=2).flat_map(move |s| (0..=1).map(move |p| (k, s, p)))) {
                // The smallest input giving this plane.
                let (h, w) = ((out_h - 1) * stride + k, (out_w - 1) * stride + k);
                if h <= 2 * pad || w <= 2 * pad {
                    continue;
                }
                let (h, w) = (h - 2 * pad, w - 2 * pad);
                let seed = (out_h * 100 + k * 10 + stride * 2 + pad) as u64;
                let qw = quant_weights(5, 3, k, seed);
                let input = Tensor::from_fn(3, h, w, |c, y, x| {
                    Sm8::from_i32_saturating((((c * 37 + y * 11 + x * 5) as u64 ^ seed) % 255) as i32 - 127)
                });
                let oracle = conv2d_quant_dense(&input, &qw, stride, pad);
                assert_eq!((oracle.shape().h, oracle.shape().w), (out_h, out_w));
                for tier in KernelTier::supported() {
                    let what = format!("{out_h}x{out_w} k={k} stride={stride} pad={pad} tier {tier}");
                    conv2d_gemm_quant_into(&input, &qw, stride, pad, tier, None, &mut ws, &mut out);
                    assert_eq!(oracle, out, "{what}");
                    for pool in &pools {
                        conv2d_gemm_quant_into(&input, &qw, stride, pad, tier, Some(pool), &mut ws, &mut out);
                        assert_eq!(oracle, out, "{what}, {} workers", pool.threads());
                    }
                }
            }
        }
    }
}
