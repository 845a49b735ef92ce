//! The lowered GEMM's compressed weight stream on the AMX tier
//! (docs/KERNELS.md, "Compressed weight stream"): a conv layer's weights
//! with the zeros taken out, built once per layer and read by a
//! compressed-row twin of `dot_nt`'s AVX-512 body.
//!
//! The paper's accelerator packs only the non-zero weights and their
//! offsets, so a pruned weight is never fetched (PAPER.md §1). A lowered
//! layer with few output positions — VGG-16-32's conv5_x, a 2x2 plane —
//! reads each weight once per image, and waits on that stream more than
//! on its arithmetic, so the AMX tier does the same: each group of 64
//! weights of a filter's row is its `u64` non-zero mask followed by its
//! non-zero bytes ([`Compressed`]). [`rows`] decodes a group to `i8` in
//! one vector, `vptestmb` makes its mask and `vpcompressb` packs its
//! non-zero bytes. [`dot_rows`] loads the mask and the 64 bytes after it,
//! and `vpexpandb` moves each non-zero weight back to its lane and zeroes
//! the rest, straight into the `vpdpbusd` operand: the group's dense
//! vector, exactly. A zero weight adds nothing to an integer sum, and the
//! sums reassociate, so every output is the dense kernel's bit for bit.

use super::{for_each_run, Compressed};
use crate::conv::QuantConvWeights;
use crate::par::{ConvPool, SendPtr};
use crate::simd::x86::avx512_ops::{hsum, hsum_row, load_p, load_w, madd_acc, zero};
use crate::simd::{DotSums, KernelTier, DOT_FLUSH_STEPS, DOT_MR, DOT_NR};
use std::arch::x86_64::*;
use std::ops::Range;
use zskip_quant::Sm8;

/// Weights of a group: one vector.
const GROUP: usize = 64;
/// Bytes of a group's mask.
const MASK: usize = 8;
/// How far ahead of a row's next group [`dot_rows`] prefetches: a row's
/// next group address waits on its mask, so the hardware prefetcher does
/// not run ahead of the reader by itself. Fitted on VGG-16-32's conv5_x.
const PREFETCH: usize = 8192;
/// Nanoseconds [`rows`] counts a weight at when it asks the pool for runs.
const BUILD_NS: usize = 1;

/// `w`'s weights as the lowered GEMM's streams: stream `o` is filter `o`'s
/// row `[c][ky][kx]`, 64 weights a group, the last group zero-padded.
/// Filters are split over `pool` when one is attached. Each stream's place
/// is fixed by a count of its non-zero weights before any is written, so
/// the runs write disjoint ranges.
///
/// # Panics
/// Panics unless the host runs the AMX tier.
pub(super) fn rows(w: &QuantConvWeights, pool: Option<&ConvPool>) -> Compressed {
    assert!(KernelTier::Amx.is_supported(), "compressed rows need the AMX tier");
    let len = w.in_c * w.k * w.k;
    let groups = len.div_ceil(GROUP);
    let mut starts = Vec::with_capacity(w.out_c + 1);
    starts.push(0);
    for o in 0..w.out_c {
        // SAFETY: the AMX tier's features, checked above, include these.
        starts.push(starts[o] + groups * MASK + unsafe { nonzero(&w.w()[o * len..][..len]) });
    }
    let mut bytes = vec![0u8; starts[w.out_c] + GROUP];
    let runs = pool.map_or(1, |pool| pool.runs(w.out_c, w.w().len() * BUILD_NS));
    let per = w.out_c.div_ceil(runs);
    let base = SendPtr::new(bytes.as_mut_ptr());
    for_each_run(pool, runs, &|run| {
        for o in (run * per).min(w.out_c)..((run + 1) * per).min(w.out_c) {
            // SAFETY: as above; stream `o` is `starts[o]..starts[o + 1]`
            // of `bytes`, and runs own disjoint filters.
            let end = unsafe { write_row(&w.w()[o * len..][..len], base.add(starts[o])) };
            assert!(end == unsafe { base.add(starts[o + 1]) }, "filter {o} was not written as it was counted");
        }
    });
    Compressed { groups, starts, bytes }
}

/// Non-zero weights of `w`, negative zero counted a zero.
///
/// # Safety
/// The CPU must support the AMX tier.
#[target_feature(enable = "avx512f,avx512bw,popcnt")]
unsafe fn nonzero(w: &[Sm8]) -> usize {
    let mut chunks = w.chunks_exact(GROUP);
    let magnitude = _mm512_set1_epi8(0x7f);
    let whole: usize = chunks
        .by_ref()
        .map(|c| _mm512_test_epi8_mask(_mm512_loadu_si512(c.as_ptr() as *const _), magnitude).count_ones() as usize)
        .sum();
    whole + chunks.remainder().iter().filter(|v| !v.is_zero()).count()
}

/// Writes one filter's row from `at`, 64 weights a group, the last group
/// zero-padded: each group decoded, its mask, then its non-zero bytes.
/// Returns where the stream ends.
///
/// # Safety
/// `at` must have room for the stream as [`nonzero`] counts it; the CPU
/// must support the AMX tier.
#[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq,avx512vbmi2,popcnt")]
unsafe fn write_row(row: &[Sm8], mut at: *mut u8) -> *mut u8 {
    let mut push = |v: __m512i| {
        let mask = _mm512_test_epi8_mask(v, v);
        let nnz = mask.count_ones();
        (at as *mut u64).write_unaligned(mask);
        // Compressed in a register, then stored under a mask of its
        // `nnz` low bytes: `vpcompressb` with a memory operand is many
        // times slower, and a whole-vector store would reach into the
        // next stream, which another run may be writing.
        let low = u64::MAX.checked_shr(64 - nnz).unwrap_or(0);
        _mm512_mask_storeu_epi8(at.add(MASK) as *mut _, low, _mm512_maskz_compress_epi8(mask, v));
        at = at.add(MASK + nnz as usize);
    };
    let mut groups = row.chunks_exact(GROUP);
    for group in groups.by_ref() {
        push(load_w(group.as_ptr()));
    }
    let tail = groups.remainder();
    if !tail.is_empty() {
        let mut last = [Sm8::ZERO; GROUP];
        last[..tail.len()].copy_from_slice(tail);
        push(load_w(last.as_ptr()));
    }
    at
}

/// The group at `*src`, expanded to its dense vector; moves `*src` to the
/// next group, and prefetches [`PREFETCH`] bytes ahead of it.
///
/// # Safety
/// `*src` must be a group of a [`Compressed`]'s `bytes`; the CPU must
/// support the AMX tier.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi2,popcnt")]
unsafe fn pop(src: &mut *const u8) -> __m512i {
    // A prefetch never faults, so it may point past the stream.
    _mm_prefetch::<_MM_HINT_T0>(src.wrapping_add(PREFETCH) as *const i8);
    let mask = (*src as *const u64).read_unaligned();
    let v = _mm512_maskz_expand_epi8(mask, _mm512_loadu_si512(src.add(MASK) as *const _));
    *src = src.add(MASK + mask.count_ones() as usize);
    v
}

/// [`crate::simd::dot_nt`] on the AVX-512 tier, with weight rows `rows` of
/// `z` in place of a dense weight matrix: the same column blocks, flushes
/// and block shapes, each call's `i` counted from `rows.start`. A block
/// expands each of its rows' groups once per reduction step, straight
/// into the `vpdpbusd` operand. Each row's next group waits on its mask,
/// so two row blocks step side by side where there are two: four chains
/// of group loads in flight instead of two.
///
/// # Safety
/// `z` must be a [`rows`] form of rows `len` weights long; the CPU must
/// support the AMX tier.
#[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq,avx512vbmi2,popcnt")]
pub(super) unsafe fn dot_rows(
    z: &Compressed,
    rows: Range<usize>,
    p: &[u8],
    [cols, len]: [usize; 2],
    mut epilogue: impl FnMut(usize, usize, [usize; 2], &DotSums),
) {
    assert!(z.groups == len.div_ceil(GROUP) && rows.end < z.starts.len(), "compressed rows do not match the GEMM");
    assert_eq!(p.len(), cols * len, "patch matrix is not cols x len");
    let full = len / GROUP * GROUP;
    let n = rows.len();
    let streams = |i: usize| -> [*const u8; 2 * DOT_MR] {
        std::array::from_fn(|a| z.bytes.as_ptr().add(z.starts[rows.start + (i + a).min(n - 1)]))
    };
    let mut j = 0;
    while j < cols {
        let nr = if cols - j >= DOT_NR { DOT_NR } else { 1 };
        let pj = p.as_ptr().add(j * len);
        let mut p_tail = [[0u8; GROUP]; DOT_NR];
        for (c, tail) in p_tail.iter_mut().enumerate().take(nr) {
            std::ptr::copy_nonoverlapping(pj.add(c * len + full), tail.as_mut_ptr(), len - full);
        }
        let mut i = 0;
        while i < n {
            let mr = (2 * DOT_MR).min(n - i);
            let w = streams(i);
            let mut sums = [[0i64; DOT_NR]; 2 * DOT_MR];
            match (mr, nr) {
                (4, DOT_NR) => block::<4, DOT_NR>(w, pj, len, &p_tail, &mut sums),
                (4, _) => block::<4, 1>(w, pj, len, &p_tail, &mut sums),
                (3 | 2, DOT_NR) => block::<2, DOT_NR>([w[0], w[1]], pj, len, &p_tail, &mut sums),
                (3 | 2, _) => block::<2, 1>([w[0], w[1]], pj, len, &p_tail, &mut sums),
                (_, DOT_NR) => block::<1, DOT_NR>([w[0]], pj, len, &p_tail, &mut sums),
                _ => block::<1, 1>([w[0]], pj, len, &p_tail, &mut sums),
            }
            // Three rows left run as a pair, then the last one alone.
            let mr = if mr == 3 { DOT_MR } else { mr };
            let [a, b, c, d] = sums;
            epilogue(i, j, [mr.min(DOT_MR), nr], &[a, b]);
            if mr > DOT_MR {
                epilogue(i + DOT_MR, j, [mr - DOT_MR, nr], &[c, d]);
            }
            i += mr;
        }
        j += nr;
    }
}

/// Adds the sums of one `MR x NR` block into the top-left corner of
/// `sums`: weight rows streamed from `w`, patch columns at `p`, `p + len`,
/// ...; `p_tail[j]` is column `j`'s last `len % 64` values, zero-padded.
/// The `dot_nt` block step for step, but that each step's weight vectors
/// are expanded from the streams.
///
/// # Safety
/// As for [`dot_rows`]; every column must be readable for `len` bytes.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq,avx512vbmi2,popcnt")]
unsafe fn block<const MR: usize, const NR: usize>(
    mut w: [*const u8; MR],
    p: *const u8,
    len: usize,
    p_tail: &[[u8; GROUP]; DOT_NR],
    sums: &mut [[i64; DOT_NR]; 2 * DOT_MR],
) {
    let full = len / GROUP * GROUP;
    let mut r = 0;
    loop {
        let end = full.min(r + DOT_FLUSH_STEPS * GROUP);
        let mut acc = [[zero(); NR]; MR];
        while r < end {
            let wv: [__m512i; MR] = std::array::from_fn(|i| pop(&mut w[i]));
            for j in 0..NR {
                let pv = load_p(p.add(j * len + r));
                for (acc, &wv) in acc.iter_mut().zip(&wv) {
                    acc[j] = madd_acc(acc[j], wv, pv);
                }
            }
            r += GROUP;
        }
        let last = r == full;
        if last && full < len {
            // The short last group, expanded with zeros past the row's
            // end, against zero-padded patch values.
            for (acc, w) in acc.iter_mut().zip(&mut w) {
                let wv = pop(w);
                for (acc, p_tail) in acc.iter_mut().zip(p_tail) {
                    *acc = madd_acc(*acc, wv, load_p(p_tail.as_ptr()));
                }
            }
        }
        for (sums, acc) in sums.iter_mut().zip(acc) {
            if NR == DOT_NR {
                let row = hsum_row(std::array::from_fn(|j| acc[j]));
                for (sum, row) in sums.iter_mut().zip(row) {
                    *sum += row as i64;
                }
            } else {
                for (sum, acc) in sums.iter_mut().zip(acc) {
                    *sum += hsum(acc) as i64;
                }
            }
        }
        if last {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{weight_stream, ConvKernel};
    use zskip_quant::Requantizer;
    use zskip_tensor::Shape;

    /// Every stream read back by hand — a mask, then one byte per set bit
    /// — is its filter's row decoded, zero-padded to whole groups; and the
    /// streams take exactly the bytes `weight_stream` counts for the
    /// layer. Rows of every length class, at density 0 to 1, with zero and
    /// negative zero alike, built inline and over a pool cut three ways.
    #[test]
    fn rows_hold_every_weight_and_the_bytes_weight_stream_counts() {
        if !KernelTier::Amx.is_supported() {
            return;
        }
        let mut rng = zskip_fault::SplitMix64::new(3);
        for (in_c, k) in [(1, 1), (3, 3), (64, 1), (37, 3), (512, 3)] {
            for density in [0.0, 0.1, 0.5, 1.0] {
                let (out_c, len) = (13, in_c * k * k);
                let w: Vec<Sm8> = (0..out_c * len)
                    .map(|_| {
                        let h = rng.next_u64();
                        match ((h >> 16) % 1000) as f64 >= density * 1000.0 {
                            true => Sm8::from_bits((h as u8) & 0x80),
                            false => Sm8::from_bits((h >> 40) as u8 | 1),
                        }
                    })
                    .collect();
                let qw = QuantConvWeights::new(out_c, in_c, k, w, vec![0; out_c], Requantizer::IDENTITY, false);
                let want = weight_stream(&qw, Shape::new(in_c, 1, 1), 1, 0, KernelTier::Amx);
                assert_eq!(want.kernel, ConvKernel::Lowered);
                for pool in [None, Some(&ConvPool::forced(3))] {
                    let z = rows(&qw, pool);
                    assert_eq!(z.starts[out_c], want.bytes, "{in_c}x{k}x{k} at density {density}: stream bytes");
                    for (o, row) in qw.w().chunks_exact(len).enumerate() {
                        let (mut at, mut got) = (z.starts[o], Vec::new());
                        for _ in 0..z.groups {
                            let mask = u64::from_le_bytes(z.bytes[at..at + MASK].try_into().unwrap());
                            at += MASK;
                            for bit in 0..GROUP {
                                if mask >> bit & 1 == 1 {
                                    got.push(z.bytes[at] as i8);
                                    at += 1;
                                } else {
                                    got.push(0);
                                }
                            }
                        }
                        assert_eq!(at, z.starts[o + 1], "filter {o}: stream end");
                        let mut dense: Vec<i8> = row.iter().map(|v| v.decode_i16() as i8).collect();
                        dense.resize(z.groups * GROUP, 0);
                        assert_eq!(got, dense, "{in_c}x{k}x{k} at density {density}, filter {o}");
                    }
                }
            }
        }
    }
}
