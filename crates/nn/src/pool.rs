//! Max-pooling operators (float and quantized).
//!
//! The quantized kernel, [`maxpool_quant_into`], is what the golden model
//! and the cpu backend run: each output row reads its `k` input rows as
//! slices and takes branch-free signed-byte maxima, down the columns and
//! then across each window (docs/KERNELS.md, "Maxpool"). It replaced a
//! loop that indexed the input tensor per element and compared through
//! `Sm8`'s `Ord`; that loop is kept as the allocating oracle
//! [`maxpool_quant`].

use std::ops::Range;
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

/// Input columns one vertical pass of [`maxpool_quant_into`] covers: the
/// stack buffer their maxima live in.
const POOL_COLS: usize = 256;

/// Quantized max pooling into a caller-owned tensor, reshaped in place
/// and reused across calls (the scratch-arena inference path). Equal to
/// [`maxpool_quant`] on every input; a zero maximum is always encoded
/// `+0`.
///
/// Works a channel's output row at a time on the slice of the `k` input
/// rows it reads, in two branch-free passes over signed bytes (Sm8's value
/// order is `i8`'s): the maximum down each input column the row's windows
/// cover, then across each window of those column maxima, re-encoded.
pub fn maxpool_quant_into(input: &Tensor<Sm8>, k: usize, stride: usize, out: &mut Tensor<Sm8>) {
    match k {
        2 => pool_rows::<2>(input, k, stride, out),
        3 => pool_rows::<3>(input, k, stride, out),
        _ => pool_rows::<0>(input, k, stride, out),
    }
}

/// [`maxpool_quant_into`]'s body. `K == k` makes a window a fixed-size
/// slice the compiler unrolls; `K == 0` takes `k` as it comes.
fn pool_rows<const K: usize>(input: &Tensor<Sm8>, k: usize, stride: usize, out: &mut Tensor<Sm8>) {
    let k = if K == 0 { k } else { K };
    let s = input.shape();
    assert!(s.h >= k && s.w >= k, "pool window {k} larger than input {s}");
    let out_h = (s.h - k) / stride + 1;
    let out_w = (s.w - k) / stride + 1;
    out.reset(s.c, out_h, out_w);
    // Outputs per pass: as many whole windows as the buffer holds.
    let per = POOL_COLS.saturating_sub(k) / stride + 1;
    let mut buf = [0i8; POOL_COLS];
    let planes = input.as_slice().chunks_exact(s.h * s.w);
    for (plane, out_plane) in planes.zip(out.as_mut_slice().chunks_exact_mut(out_h * out_w)) {
        for (y, out_row) in out_plane.chunks_exact_mut(out_w).enumerate() {
            let rows = &plane[y * stride * s.w..][..k * s.w];
            for (x0, outs) in (0..).step_by(per).zip(out_row.chunks_mut(per)) {
                let cols = x0 * stride..x0 * stride + (outs.len() - 1) * stride + k;
                if cols.len() <= POOL_COLS {
                    let col_max = column_max(rows, s.w, cols, &mut buf);
                    for (x, o) in outs.iter_mut().enumerate() {
                        let m = col_max[x * stride..][..k].iter().fold(-127, |m, &v| v.max(m));
                        *o = Sm8::from_i32_saturating(m as i32);
                    }
                } else {
                    // One window wider than the buffer (`k > POOL_COLS`):
                    // its columns a buffer at a time.
                    let end = cols.end;
                    let m = cols.step_by(POOL_COLS).fold(-127, |m, c| {
                        column_max(rows, s.w, c..end.min(c + POOL_COLS), &mut buf).iter().fold(m, |m, &v| v.max(m))
                    });
                    outs[0] = Sm8::from_i32_saturating(m as i32);
                }
            }
        }
    }
}

/// The maximum down each of columns `cols` of `rows` (rows `w` values
/// wide), decoded to signed bytes, in the front of `buf`.
fn column_max<'b>(rows: &[Sm8], w: usize, cols: Range<usize>, buf: &'b mut [i8; POOL_COLS]) -> &'b [i8] {
    // Reset whole: a fixed-size store, where a fill of `cols.len()` is a
    // call.
    *buf = [-127; POOL_COLS];
    let col_max = &mut buf[..cols.len()];
    for row in rows.chunks_exact(w) {
        for (m, v) in col_max.iter_mut().zip(&row[cols.clone()]) {
            *m = (*m).max(v.decode_i16() as i8);
        }
    }
    col_max
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
    fn row_kernel_matches_the_indexed_oracle_over_every_bit_pattern() {
        // Ragged planes (window rows and columns left over), every k and
        // stride 1-3, one dirty output reused throughout; the inputs cycle
        // through all 256 bit patterns (both zeros and -127 included) at
        // shifting offsets, so every pattern meets every window position.
        let mut out = Tensor::from_fn(2, 9, 9, |_, _, _| Sm8::from_bits(0x33));
        for (c, h, w) in [(4, 9, 11), (3, 7, 7), (2, 3, 5), (1, 1, 1), (5, 8, 6)] {
            for seed in 0..8usize {
                let input = Tensor::from_fn(c, h, w, |c, y, x| {
                    Sm8::from_bits(((c * h * w + y * w + x) * (2 * seed + 1) + 37 * seed) as u8)
                });
                for (k, stride) in (1..=3).flat_map(|k| (1..=3).map(move |s| (k, s))) {
                    if h < k || w < k {
                        continue;
                    }
                    let want = maxpool_quant(&input, k, stride);
                    maxpool_quant_into(&input, k, stride, &mut out);
                    assert_eq!(out, want, "{c}x{h}x{w} k={k} stride={stride} seed={seed}");
                    assert!(out.as_slice().iter().all(|v| v.to_bits() != 0x80), "zero encoded 0x80");
                }
            }
        }
    }

    #[test]
    fn row_kernel_handles_rows_and_windows_wider_than_its_buffer() {
        // Rows of several buffer passes (ragged last pass), and windows
        // wider than the buffer, which are folded a buffer at a time.
        let mut out = Tensor::zeros(1, 1, 1);
        for (c, h, w, k, stride) in [(2, 5, 600, 2, 2), (1, 4, 700, 3, 1), (1, 260, 300, 258, 20), (1, 300, 300, 300, 300)]
        {
            let input = Tensor::from_fn(c, h, w, |c, y, x| Sm8::from_bits((c * 7 + y * 13 + x * 101) as u8));
            maxpool_quant_into(&input, k, stride, &mut out);
            assert_eq!(out, maxpool_quant(&input, k, stride), "{c}x{h}x{w} k={k} stride={stride}");
        }
    }

    #[test]
    fn row_kernel_encodes_a_zero_maximum_as_positive_zero() {
        let input = Tensor::from_fn(1, 2, 2, |_, y, x| if (y + x) % 2 == 0 { Sm8::NEG_ZERO } else { Sm8::MIN });
        let mut out = Tensor::zeros(1, 1, 1);
        maxpool_quant_into(&input, 2, 2, &mut out);
        assert_eq!(out[(0, 0, 0)].to_bits(), 0);
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
