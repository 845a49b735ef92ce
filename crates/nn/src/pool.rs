//! Max-pooling operators (float and quantized).
//!
//! The quantized kernel, [`maxpool_quant_tier_into`], is what the golden
//! model and the cpu backend run: a run of output rows reads its input
//! rows as slices and takes branch-free signed-byte maxima, down the
//! columns and then across each window, vector on the AVX-512 tiers
//! (docs/KERNELS.md, "Max-pool and join"). The indexed loop it replaced,
//! which compared through `Sm8`'s `Ord`, is kept as the allocating
//! oracle [`maxpool_quant`].

use crate::simd::{self, KernelTier};
use zskip_quant::Sm8;
use zskip_tensor::Tensor;

/// Float max pooling with window `k` and the given stride.
///
/// # Panics
/// Panics if the window does not fit the input at least once.
pub fn maxpool_f32(input: &Tensor<f32>, k: usize, stride: usize) -> Tensor<f32> {
    let s = input.shape();
    assert!(s.h >= k && s.w >= k, "pool window {k} larger than input {s}");
    let out_h = (s.h - k) / stride + 1;
    let out_w = (s.w - k) / stride + 1;
    Tensor::from_fn(s.c, out_h, out_w, |c, y, x| {
        let mut m = f32::NEG_INFINITY;
        for dy in 0..k {
            for dx in 0..k {
                m = m.max(input[(c, y * stride + dy, x * stride + dx)]);
            }
        }
        m
    })
}

/// Quantized max pooling, read off the definition: the maximum under the
/// sign+magnitude value order, one indexed element at a time. This is the
/// oracle [`maxpool_quant_into`] and the accelerator's MAX units (paper
/// Fig. 5) are held to; it allocates its output.
pub fn maxpool_quant(input: &Tensor<Sm8>, k: usize, stride: usize) -> Tensor<Sm8> {
    let s = input.shape();
    assert!(s.h >= k && s.w >= k, "pool window {k} larger than input {s}");
    let out_h = (s.h - k) / stride + 1;
    let out_w = (s.w - k) / stride + 1;
    let mut out = Tensor::zeros(s.c, out_h, out_w);
    for c in 0..s.c {
        for y in 0..out_h {
            for x in 0..out_w {
                let mut m = Sm8::MIN;
                for dy in 0..k {
                    for dx in 0..k {
                        m = m.max(input[(c, y * stride + dy, x * stride + dx)]);
                    }
                }
                out[(c, y, x)] = m;
            }
        }
    }
    out
}

/// Input columns one vertical pass of [`maxpool_quant_tier_into`]
/// covers: the stack buffer their maxima live in.
const POOL_COLS: usize = 256;

/// Quantized max pooling into a caller-owned tensor, reshaped in place
/// and reused across calls, at the process-wide tier
/// ([`simd::dispatch`]): [`maxpool_quant_tier_into`] for callers without
/// an arena.
pub fn maxpool_quant_into(input: &Tensor<Sm8>, k: usize, stride: usize, out: &mut Tensor<Sm8>) {
    maxpool_quant_tier_into(input, k, stride, simd::dispatch(), out);
}

/// Quantized max pooling at `tier` (the scratch-arena inference path).
/// Equal to [`maxpool_quant`] on every input and tier; a zero maximum is
/// always encoded `+0`.
///
/// Works a run of output rows at a time on the slices of the input rows
/// they read, in two branch-free passes over signed bytes (Sm8's value
/// order is `i8`'s): the maximum down each input column the rows' windows
/// cover, then across each window of those column maxima, re-encoded.
/// Where windows tile the rows (`k == stride`), consecutive rows' column
/// maxima read as one row, so a pass takes as many short rows as fill its
/// buffer; where they also tile the planes, the tensor is one plane. On
/// the AVX-512 tiers the first pass is vector for every `k` and `stride`,
/// the second for `k = stride = 2` (docs/KERNELS.md, "Max-pool and join").
pub fn maxpool_quant_tier_into(input: &Tensor<Sm8>, k: usize, stride: usize, tier: KernelTier, out: &mut Tensor<Sm8>) {
    let vector = cfg!(target_arch = "x86_64") && tier.runs_avx512();
    match k {
        2 => pool_rows::<2>(input, k, stride, vector, out),
        3 => pool_rows::<3>(input, k, stride, vector, out),
        _ => pool_rows::<0>(input, k, stride, vector, out),
    }
}

/// [`maxpool_quant_tier_into`]'s body. `K == k` makes a window a
/// fixed-size slice the compiler unrolls; `K == 0` takes `k` as it comes.
fn pool_rows<const K: usize>(input: &Tensor<Sm8>, k: usize, stride: usize, vector: bool, out: &mut Tensor<Sm8>) {
    let k = if K == 0 { k } else { K };
    let s = input.shape();
    assert!(s.h >= k && s.w >= k, "pool window {k} larger than input {s}");
    let out_h = (s.h - k) / stride + 1;
    let out_w = (s.w - k) / stride + 1;
    out.reset(s.c, out_h, out_w);
    if s.c == 0 {
        return;
    }
    // Windows that tile every plane's rows leave no row between planes:
    // the tensor is then one plane of `c * h` rows.
    let plane_h = if k == stride && s.h.is_multiple_of(stride) { s.c * s.h } else { s.h };
    let plane_out_h = (plane_h - k) / stride + 1;
    let span = (out_w - 1) * stride + k;
    let mut buf = [0i8; POOL_COLS];
    let planes = input.as_slice().chunks_exact(plane_h * s.w);
    for (plane, out_plane) in planes.zip(out.as_mut_slice().chunks_exact_mut(plane_out_h * out_w)) {
        if span <= POOL_COLS {
            // Rows per pass: one, or as many as fill the buffer where
            // windows tile the rows, so that output `i` of the run reads
            // column maxima `i * stride..i * stride + k` across row ends.
            let per = if k == stride { POOL_COLS / span } else { 1 };
            for (g, outs) in out_plane.chunks_mut(per * out_w).enumerate() {
                let col_max = &mut buf[..outs.len() / out_w * span];
                let rows = Rows { w: s.w, k, stride, col: 0, span };
                column_max(vector, &plane[g * per * stride * s.w..], rows, col_max);
                window_max::<K>(vector, col_max, k, stride, outs);
            }
            continue;
        }
        // Rows wider than the buffer: a row's outputs a buffer at a time.
        let per = POOL_COLS.saturating_sub(k) / stride + 1;
        for (y, out_row) in out_plane.chunks_exact_mut(out_w).enumerate() {
            let rows = &plane[y * stride * s.w..][..k * s.w];
            for (x0, outs) in (0..).step_by(per).zip(out_row.chunks_mut(per)) {
                let cols = x0 * stride..x0 * stride + (outs.len() - 1) * stride + k;
                if cols.len() <= POOL_COLS {
                    let col_max = &mut buf[..cols.len()];
                    column_max(vector, rows, Rows { w: s.w, k, stride, col: cols.start, span: cols.len() }, col_max);
                    window_max::<K>(vector, col_max, k, stride, outs);
                } else {
                    // One window wider than the buffer (`k > POOL_COLS`):
                    // its columns a buffer at a time.
                    let end = cols.end;
                    let m = cols.step_by(POOL_COLS).fold(-127, |m, c| {
                        let col_max = &mut buf[..(end - c).min(POOL_COLS)];
                        column_max(vector, rows, Rows { w: s.w, k, stride, col: c, span: col_max.len() }, col_max);
                        col_max.iter().fold(m, |m, &v| v.max(m))
                    });
                    outs[0] = Sm8::from_i32_saturating(m as i32);
                }
            }
        }
    }
}

/// What a vertical pass reads: input rows `w` values wide, `k` of them
/// for each output row, output rows `stride` input rows apart, and of
/// each `span` columns from `col` on.
#[derive(Clone, Copy)]
struct Rows {
    w: usize,
    k: usize,
    stride: usize,
    col: usize,
    span: usize,
}

/// The vertical pass: into `col_max`, `span` values per output row, the
/// maximum down each column the output row's `k` input rows cover,
/// decoded to signed bytes; the output rows' input rows start at
/// `input`'s first.
fn column_max(vector: bool, input: &[Sm8], r: Rows, col_max: &mut [i8]) {
    #[cfg(target_arch = "x86_64")]
    if vector {
        // SAFETY: `vector` holds only where the AVX-512 tier's features
        // are present, and `input` holds every row the output rows read,
        // each from `r.col` to `r.col + r.span`.
        return unsafe { avx512::column_max(input, r, col_max) };
    }
    let _ = vector;
    col_max.fill(-127);
    for (j, col_max) in col_max.chunks_mut(r.span).enumerate() {
        for row in input[j * r.stride * r.w..][..r.k * r.w].chunks_exact(r.w) {
            for (m, v) in col_max.iter_mut().zip(&row[r.col..]) {
                *m = (*m).max(v.decode_i16() as i8);
            }
        }
    }
}

/// The horizontal pass: output `x` is the maximum of
/// `col_max[x * stride..][..k]`, encoded.
fn window_max<const K: usize>(vector: bool, col_max: &[i8], k: usize, stride: usize, outs: &mut [Sm8]) {
    #[cfg(target_arch = "x86_64")]
    if vector && k == 2 && stride == 2 {
        // SAFETY: as in `column_max`; `col_max` holds two columns per
        // output.
        return unsafe { avx512::pairs_max(col_max, outs) };
    }
    let _ = vector;
    let k = if K == 0 { k } else { K };
    for (x, o) in outs.iter_mut().enumerate() {
        let m = col_max[x * stride..][..k].iter().fold(-127, |m, &v| v.max(m));
        *o = Sm8::from_i32_saturating(m as i32);
    }
}

/// The two passes 64 bytes a step on 512-bit registers: AVX-512F + BW.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::*;
    use crate::simd::x86::{decode_i8, encode_i16, first};
    use std::arch::x86_64::*;

    /// [`super::column_max`]: rows of a 2x2/2 pool at most 64 wide (and
    /// even) several row pairs a step, see [`row_pairs_max`]; any other
    /// geometry an output row at a time, each 64-column step loading the
    /// step's columns of the `k` rows, decoding them and keeping the
    /// lane-wise maximum.
    ///
    /// # Safety
    /// AVX-512F and BW must be present, and `input` must hold every row
    /// the output rows read, each from `r.col` to `r.col + r.span`.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn column_max(input: &[Sm8], r: Rows, col_max: &mut [i8]) {
        if (r.k, r.stride, r.col) == (2, 2, 0) && r.span == r.w && r.w.is_multiple_of(2) && r.w <= 64 {
            return row_pairs_max(input, r.w, col_max);
        }
        for (j, col_max) in col_max.chunks_mut(r.span).enumerate() {
            let rows = &input[j * r.stride * r.w..][..r.k * r.w];
            debug_assert!(r.col + col_max.len() <= r.w);
            for c in (0..col_max.len()).step_by(64) {
                let lanes = first(col_max.len() - c);
                let mut m = _mm512_set1_epi8(-127);
                for row in rows.chunks_exact(r.w) {
                    let v = _mm512_maskz_loadu_epi8(lanes, row.as_ptr().add(r.col + c).cast());
                    m = _mm512_max_epi8(m, decode_i8(v));
                }
                _mm512_mask_storeu_epi8(col_max.as_mut_ptr().add(c), lanes, m);
            }
        }
    }

    /// The vertical pass of a 2x2/2 pool on rows `w <= 64` wide (`w`
    /// even, so a column pair is one 16-bit word): a step loads the 128
    /// bytes of `64 / w` row pairs into two registers, and `vpermi2w`
    /// gathers the pairs' upper rows into one register and their lower
    /// rows into another, each the step's `64 / w * w` columns in order;
    /// both are decoded and their maximum stored — column maxima of
    /// `64 / w` output rows a step, where a step per output row would
    /// take 4 of 64 lanes on a 4x4 plane.
    ///
    /// # Safety
    /// As [`column_max`]'s.
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn row_pairs_max(input: &[Sm8], w: usize, col_max: &mut [i8]) {
        let (pairs, half) = (64 / w, w / 2);
        // Word `i` of a step's output is column pair `i % half` of row
        // pair `i / half`, whose upper row starts at word `i / half * w`:
        // word `i + i / half * half` of the step, its lower row's `half`
        // words on. `i / half` is `2i * ⌈2¹⁵ / half⌉ >> 16`, exact for
        // `i < 2¹⁰`. Words past the step's last pair read words the
        // stores mask off.
        let iota = _mm512_loadu_si512(std::array::from_fn::<u16, 32, _>(|i| i as u16).as_ptr().cast());
        let reciprocal = _mm512_set1_epi16(32768usize.div_ceil(half) as u16 as i16);
        let row_pair = _mm512_mulhi_epu16(_mm512_add_epi16(iota, iota), reciprocal);
        let upper = _mm512_add_epi16(iota, _mm512_mullo_epi16(row_pair, _mm512_set1_epi16(half as i16)));
        let lower = _mm512_add_epi16(upper, _mm512_set1_epi16(half as i16));
        let n = col_max.len() / w;
        debug_assert!(input.len() >= 2 * w * n);
        for p in (0..n).step_by(pairs) {
            let bytes = 2 * w * (n - p).min(pairs);
            let src = input.as_ptr().add(2 * w * p);
            let a = _mm512_maskz_loadu_epi8(first(bytes), src.cast());
            // Masked off whole where the step is 64 bytes or fewer: the
            // pointer is then never read.
            let b = _mm512_maskz_loadu_epi8(first(bytes.saturating_sub(64)), src.wrapping_add(64).cast());
            let up = decode_i8(_mm512_permutex2var_epi16(a, upper, b));
            let down = decode_i8(_mm512_permutex2var_epi16(a, lower, b));
            _mm512_mask_storeu_epi8(col_max.as_mut_ptr().add(w * p), first(bytes / 2), _mm512_max_epi8(up, down));
        }
    }

    /// [`super::window_max`] at `k = stride = 2`: a column pair is one
    /// 16-bit lane, so its two bytes sign-extend in place to two `i16`
    /// lanes, the larger is re-encoded (`encode_i16`: a zero is `+0`)
    /// and narrowed to its output byte — 32 outputs a step.
    ///
    /// # Safety
    /// AVX-512F and BW must be present, and `col_max` must hold
    /// `2 * outs.len()` columns.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) unsafe fn pairs_max(col_max: &[i8], outs: &mut [Sm8]) {
        debug_assert!(col_max.len() >= 2 * outs.len());
        for x in (0..outs.len()).step_by(32) {
            let n = (outs.len() - x).min(32);
            let v = _mm512_maskz_loadu_epi8(first(2 * n), col_max.as_ptr().add(2 * x));
            let m = _mm512_max_epi16(_mm512_srai_epi16::<8>(_mm512_slli_epi16::<8>(v)), _mm512_srai_epi16::<8>(v));
            _mm512_mask_cvtepi16_storeu_epi8(outs.as_mut_ptr().add(x).cast(), first(n) as __mmask32, encode_i16(m));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use zskip_tensor::Shape;

    #[test]
    fn pool_2x2_stride_2_takes_window_max() {
        let input = Tensor::from_fn(1, 4, 4, |_, y, x| (y * 4 + x) as f32);
        let out = maxpool_f32(&input, 2, 2);
        assert_eq!(out.shape(), Shape::new(1, 2, 2));
        assert_eq!(out[(0, 0, 0)], 5.0);
        assert_eq!(out[(0, 0, 1)], 7.0);
        assert_eq!(out[(0, 1, 0)], 13.0);
        assert_eq!(out[(0, 1, 1)], 15.0);
    }

    #[test]
    fn pool_3x3_stride_1_overlapping() {
        let input = Tensor::from_fn(1, 4, 4, |_, y, x| ((y * 4 + x) as f32 * 0.5) - 3.0);
        let out = maxpool_f32(&input, 3, 1);
        assert_eq!(out.shape(), Shape::new(1, 2, 2));
        assert_eq!(out[(0, 0, 0)], input[(0, 2, 2)]);
    }

    #[test]
    fn quant_pool_handles_negatives() {
        let input = Tensor::from_fn(1, 2, 2, |_, y, x| Sm8::from_i32_saturating(-((y * 2 + x) as i32) - 1));
        let out = maxpool_quant(&input, 2, 2);
        assert_eq!(out[(0, 0, 0)].to_i32(), -1);
    }

    #[test]
    fn row_kernel_handles_rows_and_windows_wider_than_its_buffer() {
        // Rows of several buffer passes (ragged last pass), and windows
        // wider than the buffer, which are folded a buffer at a time.
        let mut out = Tensor::zeros(1, 1, 1);
        for (c, h, w, k, stride) in [(2, 5, 600, 2, 2), (1, 4, 700, 3, 1), (1, 260, 300, 258, 20), (1, 300, 300, 300, 300)]
        {
            let input = Tensor::from_fn(c, h, w, |c, y, x| Sm8::from_bits((c * 7 + y * 13 + x * 101) as u8));
            let want = maxpool_quant(&input, k, stride);
            for tier in KernelTier::supported() {
                maxpool_quant_tier_into(&input, k, stride, tier, &mut out);
                assert_eq!(out, want, "{c}x{h}x{w} k={k} stride={stride} tier {tier}");
            }
        }
    }

    #[test]
    fn row_kernel_encodes_a_zero_maximum_as_positive_zero() {
        let input = Tensor::from_fn(1, 2, 2, |_, y, x| if (y + x) % 2 == 0 { Sm8::NEG_ZERO } else { Sm8::MIN });
        let mut out = Tensor::zeros(1, 1, 1);
        for tier in KernelTier::supported() {
            maxpool_quant_tier_into(&input, 2, 2, tier, &mut out);
            assert_eq!(out[(0, 0, 0)].to_bits(), 0, "tier {tier}");
        }
    }

    proptest! {
        #[test]
        fn quant_pool_matches_float_pool_on_quantized_grid(
            vals in proptest::collection::vec(-127i32..=127, 36),
            k in 1usize..=3,
            stride in 1usize..=2,
        ) {
            let fq = Tensor::from_vec(1, 6, 6, vals.iter().map(|&v| v as f32).collect());
            let q = Tensor::from_vec(1, 6, 6, vals.iter().map(|&v| Sm8::from_i32_saturating(v)).collect());
            let pf = maxpool_f32(&fq, k, stride);
            let pq = maxpool_quant(&q, k, stride);
            for (a, b) in pf.as_slice().iter().zip(pq.as_slice()) {
                prop_assert_eq!(*a as i32, b.to_i32());
            }
            let mut fast = Tensor::zeros(1, 1, 1);
            maxpool_quant_into(&q, k, stride, &mut fast);
            prop_assert_eq!(fast, pq);
        }
    }
}
