//! Direct convolution on the AVX-512 tier: no patch matrix, output columns
//! in the vector lanes (docs/KERNELS.md, "Direct convolution").
//!
//! The layer's input is copied once into a bordered plane of patch bytes
//! whose channels are interleaved by fours, `[c/4][y][x][4]`: the 64 bytes
//! at `(q, y, x)` are the channel quad `q` of 16 consecutive columns, one
//! `vpdpbusd` operand whose `i32` lane `j` sums the quad's four products
//! for column `x + j`. The weights are repacked once per layer into the
//! matching `[o][c/4][ky][kx]` groups of four `i8`, and a tap `(q, ky, kx)`
//! of a register block is one such load per column vector against one
//! broadcast weight group per filter. Each lane ends holding one output's
//! whole sum, so there is no horizontal reduction; the block's outputs are
//! requantized sixteen at a time by the vector form of [`Epilogue`].
//!
//! [`applies`] is the shape rule: stride 1, at least one full vector of
//! output columns, and a reduction short enough for `i32` lanes. Every
//! other layer, and every layer on a narrower tier, lowers and runs
//! `dot_nt`. Every function with a `#[target_feature]` here is reached
//! only through [`conv_into`], which `conv2d_gemm_quant_into` calls only
//! on a supported AVX-512 or AMX tier, for a layer [`applies`] holds for.

use super::x86::VecEpilogue;
use super::{for_each_run, offset_byte, Epilogue, GemmScratch, GemmWeights};
use crate::conv::QuantConvWeights;
use crate::par::{ConvPool, SendPtr};
use crate::simd::DOT_FLUSH_STEPS;
use std::arch::x86_64::*;
use std::ops::Range;
use zskip_quant::Sm8;
use zskip_tensor::{Shape, Tensor};

/// Output columns of one vector: the 16 `i32` lanes of a 512-bit register.
const LANES: usize = 16;
/// Filters of one register block: each loaded patch vector meets this many
/// broadcast weight groups.
const BLOCK_F: usize = 4;
/// Column vectors of one register block: each broadcast weight group meets
/// this many patch vectors.
const BLOCK_V: usize = 4;

/// Multiply-accumulates (padded channels included) and outputs per
/// nanosecond of the direct kernel, fitted to single-thread layer times on
/// the AVX-512 tier (docs/KERNELS.md, "Direct convolution"): what the pool
/// split weighs against a worker's wake-up.
const MACS_PER_NS: usize = 320;
const OUTPUTS_PER_NS: usize = 2;

/// Whether a `k x k` layer over an input of shape `s` fits the direct
/// kernel, which on the AVX-512 and AMX tiers then runs it (unless the
/// tiles take it): stride 1, at least [`LANES`] output columns and at most
/// [`DOT_FLUSH_STEPS`] taps `(quad, ky, kx)`, which keeps every lane's
/// `i32` sum exact without a flush (a tap adds at most `4 · 255 · 127` to
/// a lane; `simd` asserts the bound).
pub(super) fn applies(s: Shape, k: usize, stride: usize, pad: usize) -> bool {
    stride == 1
        && s.h + 2 * pad >= k
        && s.w + 2 * pad >= k + LANES - 1
        && s.c.div_ceil(4) * k * k <= DOT_FLUSH_STEPS
}

/// The weights of `w` as `vpdpbusd` operands, `[o][c/4][ky][kx]`: the four
/// weights of channels `4q..4q + 4` at one tap, decoded to two's-complement
/// `i8` (negative zero to 0), packed into a `u32` with channel `4q + j` in
/// byte `j`. The lanes of channels past `in_c` are zero, so whatever the
/// plane holds there adds nothing.
fn repack(w: &QuantConvWeights) -> Vec<u32> {
    let (c, kk) = (w.in_c, w.k * w.k);
    let quads = c.div_ceil(4);
    let mut out = vec![0u32; w.out_c * quads * kk];
    for (oc, filter) in w.w().chunks_exact(c * kk).enumerate() {
        for (ci, taps) in filter.chunks_exact(kk).enumerate() {
            let group = &mut out[(oc * quads + ci / 4) * kk..][..kk];
            for (g, v) in group.iter_mut().zip(taps) {
                *g |= u32::from(v.decode_i16() as u8) << (8 * (ci % 4));
            }
        }
    }
    out
}

impl GemmScratch {
    /// Copies `input` into a `⌈c/4⌉ x (h + 2 pad) x (w + 2 pad) x 4` plane
    /// of patch bytes, channels interleaved by fours, as the direct kernel
    /// reads it. The patch-byte contract is the lowering's (module docs,
    /// "Patch bytes"): when any input byte has its sign bit set, every
    /// value is stored `+128` and the border is 128, else the bytes go in
    /// as they are around a border of 0. The lanes of a last, partial quad
    /// past the input's channels repeat its first channel; their weights
    /// are zero. Returns the bordered `(height, width)` and whether the plane
    /// is offset.
    fn fill_quads(&mut self, input: &Tensor<Sm8>, pad: usize) -> ((usize, usize), bool) {
        let s = input.shape();
        let (hp, wp) = (s.h + 2 * pad, s.w + 2 * pad);
        let bytes = Sm8::as_bytes(input.as_slice());
        let offset = bytes.iter().fold(0, |any, &b| any | b) & 0x80 != 0;
        let d = &mut self.plane;
        d.clear();
        d.resize(s.c.div_ceil(4) * hp * wp * 4, if offset { 128 } else { 0 });
        let plane = s.h * s.w;
        for (q, quad) in bytes.chunks(4 * plane).enumerate() {
            for y in 0..s.h {
                let row = |j: usize| {
                    let j = if (j + 1) * plane <= quad.len() { j } else { 0 };
                    &quad[j * plane + y * s.w..][..s.w]
                };
                let dst = &mut d[((q * hp + y + pad) * wp + pad) * 4..][..4 * s.w];
                // SAFETY: the direct path runs only on a supported
                // AVX-512 or AMX tier.
                unsafe { interleave([row(0), row(1), row(2), row(3)], dst, offset) };
            }
        }
        ((hp, wp), offset)
    }
}

/// Writes the four channel rows `rows` into `dst` interleaved — column
/// `x`'s four bytes at `dst[4x..4x + 4]` — each byte as it is or, when
/// `offset`, as its patch byte `v + 128`.
///
/// # Safety
/// The CPU must support the AVX-512 tier.
#[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq")]
unsafe fn interleave(rows: [&[u8]; 4], dst: &mut [u8], offset: bool) {
    let w = dst.len() / 4;
    assert!(rows.iter().all(|r| r.len() == w), "rows do not match the destination");
    let load = |j: usize, x: usize| patch_bytes(_mm_loadu_si128(rows[j].as_ptr().add(x) as *const __m128i), offset);
    let mut x = 0;
    while x + LANES <= w {
        let (a, b, c, e) = (load(0, x), load(1, x), load(2, x), load(3, x));
        let (ab_lo, ab_hi) = (_mm_unpacklo_epi8(a, b), _mm_unpackhi_epi8(a, b));
        let (ce_lo, ce_hi) = (_mm_unpacklo_epi8(c, e), _mm_unpackhi_epi8(c, e));
        let d = dst.as_mut_ptr().add(4 * x) as *mut __m128i;
        _mm_storeu_si128(d, _mm_unpacklo_epi16(ab_lo, ce_lo));
        _mm_storeu_si128(d.add(1), _mm_unpackhi_epi16(ab_lo, ce_lo));
        _mm_storeu_si128(d.add(2), _mm_unpacklo_epi16(ab_hi, ce_hi));
        _mm_storeu_si128(d.add(3), _mm_unpackhi_epi16(ab_hi, ce_hi));
        x += LANES;
    }
    for x in x..w {
        for (j, row) in rows.iter().enumerate() {
            dst[4 * x + j] = if offset { offset_byte(row[x]) } else { row[x] };
        }
    }
}

/// Sixteen Sm8 bytes as they are or, when `offset`, as their patch bytes
/// `v + 128`: `v ^ 0x80` for a clear sign bit, `0 - v` (so `256 - v`, and
/// 128 for negative zero) for a set one; `blendv` picks by that bit.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq")]
pub(super) fn patch_bytes(v: __m128i, offset: bool) -> __m128i {
    if offset {
        _mm_blendv_epi8(_mm_xor_si128(v, _mm_set1_epi8(-128)), _mm_sub_epi8(_mm_setzero_si128(), v), v)
    } else {
        v
    }
}

/// The geometry of one direct call: `quads` channel quads of an `hp x wp`
/// bordered plane, a `k x k` kernel at stride 1, and the output plane.
#[derive(Clone, Copy)]
struct Geometry {
    quads: usize,
    k: usize,
    hp: usize,
    wp: usize,
    out_h: usize,
    out_w: usize,
}

impl Geometry {
    /// Taps `(quad, ky, kx)` of one output: the reduction in `vpdpbusd`
    /// steps.
    fn taps(&self) -> usize {
        self.quads * self.k * self.k
    }

    /// Column vectors per output row. A row whose width is not a multiple
    /// of [`LANES`] ends on a vector that starts `LANES` columns before
    /// the row's end and overlaps the one before it: the overlapped
    /// outputs are computed twice, identically, and nothing is read or
    /// written past the row.
    fn row_vectors(&self) -> usize {
        self.out_w.div_ceil(LANES)
    }

    /// Column vector `v` of the whole output plane, row-major: the byte
    /// offset of its first column in the plane's quad 0 and the index of
    /// its first output.
    fn vector(&self, v: usize) -> (usize, usize) {
        let (oy, i) = (v / self.row_vectors(), v % self.row_vectors());
        let x0 = (i * LANES).min(self.out_w - LANES);
        ((oy * self.wp + x0) * 4, oy * self.out_w + x0)
    }
}

/// Direct convolution of `input` into `out` (reshaped in place), filter
/// blocks split over `pool` when one is attached: each run owns a
/// contiguous range of output channels — every output of those channels,
/// computed and stored by the same loop as inline — so the result is
/// bit-identical at any worker count. The caller has checked [`applies`]
/// and that the host runs the AVX-512 tier's kernels.
pub(super) fn conv_into(
    input: &Tensor<Sm8>,
    weights: &QuantConvWeights,
    pad: usize,
    pool: Option<&ConvPool>,
    ws: &mut GemmScratch,
    out: &mut Tensor<Sm8>,
) {
    let ((hp, wp), offset) = ws.fill_quads(input, pad);
    let k = weights.k;
    let g = Geometry { quads: weights.in_c.div_ceil(4), k, hp, wp, out_h: hp - k + 1, out_w: wp - k + 1 };
    out.reset(weights.out_c, g.out_h, g.out_w);
    let gemm = GemmWeights::of(weights);
    let bias = if offset { gemm.offset() } else { gemm }.bias_acc;
    let wq = weights.forms().quad_w.get_or_init(|| repack(weights));
    let epilogue = Epilogue::new(weights.requant(), weights.relu());
    let plane = &ws.plane[..];
    let outputs = g.out_h * g.out_w;
    let all = weights.out_c * outputs;
    let ns = all * 4 * g.taps() / MACS_PER_NS + all / OUTPUTS_PER_NS;
    let blocks = weights.out_c.div_ceil(BLOCK_F);
    let runs = pool.map_or(1, |pool| pool.runs(blocks, ns));
    let per = blocks.div_ceil(runs) * BLOCK_F;
    let out_ptr = SendPtr::new(out.as_mut_slice().as_mut_ptr());
    for_each_run(pool, runs, &|run| {
        let filters = (run * per).min(weights.out_c)..((run + 1) * per).min(weights.out_c);
        // SAFETY: the caller verified the tier's features on this CPU; the
        // plane was filled for this geometry and `wq` / `bias` hold
        // `out_c` filters; runs own disjoint output-channel ranges of
        // `out`, which `reset` sized to `out_c` planes of `outputs`.
        unsafe { conv(g, plane, wq, bias, epilogue, filters.clone(), out_ptr.add(filters.start * outputs), outputs) };
    });
}

/// Filters `filters` of the layer over every output: register blocks of
/// [`BLOCK_F`] filters x [`BLOCK_V`] column vectors, then the remainders
/// one filter and one vector at a time. `out` is the output plane of
/// filter `filters.start`, `outputs` the size of one plane.
///
/// # Safety
/// `plane` must hold the quad plane of `g`, `wq` and `bias` the repacked
/// weights and biases of at least `filters.end` filters, `out` room for
/// `filters.len()` planes of `outputs`; the CPU must support the tier.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq")]
unsafe fn conv(
    g: Geometry,
    plane: &[u8],
    wq: &[u32],
    bias: &[i64],
    epilogue: Epilogue,
    filters: Range<usize>,
    out: *mut Sm8,
    outputs: usize,
) {
    assert_eq!(plane.len(), g.quads * g.hp * g.wp * 4, "quad plane does not match the geometry");
    assert!(wq.len() >= filters.end * g.taps() && bias.len() >= filters.end, "weights for too few filters");
    let e = VecEpilogue::new(epilogue);
    let vectors = g.out_h * g.row_vectors();
    let mut f = filters.start;
    while f < filters.end {
        let nf = if filters.end - f >= BLOCK_F { BLOCK_F } else { 1 };
        let w = wq.as_ptr().add(f * g.taps());
        let (b, o) = (bias.as_ptr().add(f), out.add((f - filters.start) * outputs) as *mut u8);
        let mut v = 0;
        while v < vectors {
            let nv = if vectors - v >= BLOCK_V { BLOCK_V } else { 1 };
            match (nf, nv) {
                (BLOCK_F, BLOCK_V) => block::<BLOCK_F, BLOCK_V>(&g, plane.as_ptr(), w, b, &e, v, o, outputs),
                (BLOCK_F, _) => block::<BLOCK_F, 1>(&g, plane.as_ptr(), w, b, &e, v, o, outputs),
                (_, BLOCK_V) => block::<1, BLOCK_V>(&g, plane.as_ptr(), w, b, &e, v, o, outputs),
                _ => block::<1, 1>(&g, plane.as_ptr(), w, b, &e, v, o, outputs),
            }
            v += nv;
        }
        f += nf;
    }
}

/// One register block: `F` filters (weights at `w`, biases at `bias`,
/// output planes from `out`) against column vectors `v0..v0 + V`,
/// accumulated over every tap to completion in `i32` lanes, then
/// requantized and stored sixteen bytes a vector. Every load stays inside
/// the plane: a vector's first column plus `kx` plus 16 is at most `wp`
/// ([`Geometry::vector`]), its row plus `ky` at most `hp - 1`.
///
/// # Safety
/// As for [`conv`], for this block's filters and vectors.
#[allow(clippy::too_many_arguments)]
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq")]
unsafe fn block<const F: usize, const V: usize>(
    g: &Geometry,
    plane: *const u8,
    w: *const u32,
    bias: *const i64,
    e: &VecEpilogue,
    v0: usize,
    out: *mut u8,
    outputs: usize,
) {
    let mut at = [(0, 0); V];
    for (j, at) in at.iter_mut().enumerate() {
        *at = g.vector(v0 + j);
    }
    let (taps, quad_bytes, row_bytes) = (g.taps(), g.hp * g.wp * 4, g.wp * 4);
    let mut acc = [[_mm512_setzero_si512(); V]; F];
    let mut t = 0;
    for q in 0..g.quads {
        for ky in 0..g.k {
            let row = plane.add(q * quad_bytes + ky * row_bytes);
            for kx in 0..g.k {
                let mut p = [_mm512_setzero_si512(); V];
                for (p, &(at, _)) in p.iter_mut().zip(&at) {
                    *p = _mm512_loadu_si512(row.add(at + 4 * kx) as *const _);
                }
                for (i, acc) in acc.iter_mut().enumerate() {
                    let wv = _mm512_set1_epi32(*w.add(i * taps + t) as i32);
                    for (acc, &p) in acc.iter_mut().zip(&p) {
                        // Unsigned patch bytes first, signed weights
                        // second; wrapping, never `vpdpbusds`.
                        *acc = _mm512_dpbusd_epi32(*acc, p, wv);
                    }
                }
                t += 1;
            }
        }
    }
    for (i, acc) in acc.iter().enumerate() {
        let bias = *bias.add(i);
        for (acc, &(_, o)) in acc.iter().zip(&at) {
            _mm_storeu_si128(out.add(i * outputs + o) as *mut __m128i, e.apply16(*acc, bias));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d_quant_dense;
    use crate::gemm::conv2d_gemm_quant_into;
    use crate::simd::KernelTier;
    use zskip_quant::Requantizer;

    /// One differential case: a layer geometry, whether its input has sign
    /// bits (the offset path) and its epilogue.
    #[derive(Debug, Clone, Copy)]
    struct Case {
        in_c: usize,
        out_c: usize,
        out_h: usize,
        out_w: usize,
        k: usize,
        pad: usize,
        signed: bool,
        relu: bool,
        requant: Requantizer,
    }

    /// The base case every other varies one thing of: a 3x3, pad-1 layer
    /// whose 32-wide output is two whole vectors a row and whose 3 rows
    /// are one full register block of vectors and two single ones.
    const BASE: Case = Case {
        in_c: 16,
        out_c: 8,
        out_h: 3,
        out_w: 32,
        k: 3,
        pad: 1,
        signed: false,
        relu: true,
        requant: Requantizer { mult: 3, shift: 9 },
    };

    /// Weights over every bit pattern — negative zero and ±127 among them
    /// — and biases that push sums over both saturation edges.
    fn weights(c: &Case, seed: u64) -> QuantConvWeights {
        let mut rng = zskip_fault::SplitMix64::new(seed);
        let w = (0..c.out_c * c.in_c * c.k * c.k).map(|_| Sm8::from_bits(rng.next_u64() as u8)).collect();
        let bias = (0..c.out_c as i64).map(|o| (o - 3) * 700 + (rng.next_u64() % 64) as i64 - 32).collect();
        QuantConvWeights::new(c.out_c, c.in_c, c.k, w, bias, c.requant, c.relu)
    }

    /// An input whose plane gives the case's output; non-negative with
    /// zeros among the values, or any bit pattern (negative zero included)
    /// when `signed`.
    fn input(c: &Case, seed: u64) -> Tensor<Sm8> {
        let (h, w) = (c.out_h + c.k - 1 - 2 * c.pad, c.out_w + c.k - 1 - 2 * c.pad);
        let mut rng = zskip_fault::SplitMix64::new(seed ^ 0x5eed);
        Tensor::from_fn(c.in_c, h, w, |_, _, _| {
            let b = rng.next_u64() as u8;
            Sm8::from_bits(if c.signed { b } else { b & 0x7f & (b >> 7).wrapping_neg() })
        })
    }

    /// `conv2d_gemm_quant_into` on every tier, inline and over pools
    /// forced to cut 1, 2 and 3 runs, against the dense scan; on the
    /// AVX-512 tier the case must reach the direct path.
    fn check(c: Case, seed: u64) {
        let (qw, x) = (weights(&c, seed), input(&c, seed));
        let want = conv2d_quant_dense(&x, &qw, 1, c.pad);
        assert_eq!((want.shape().h, want.shape().w), (c.out_h, c.out_w), "{c:?}");
        assert!(applies(x.shape(), c.k, 1, c.pad), "{c:?} misses the direct path");
        let pools: Vec<ConvPool> = (1..=3).map(ConvPool::forced).collect();
        let mut ws = GemmScratch::default();
        let mut out = Tensor::from_fn(1, 2, 3, |_, _, _| Sm8::from_bits(0x80));
        for tier in KernelTier::supported() {
            for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
                conv2d_gemm_quant_into(&x, &qw, 1, c.pad, tier, pool, &mut ws, &mut out);
                assert_eq!(out, want, "{c:?} seed {seed} tier {tier} pool {pool:?}");
            }
        }
    }

    #[test]
    fn direct_matches_the_dense_scan_one_change_from_the_base_at_a_time() {
        let mut cases = vec![BASE];
        cases.extend([16, 17, 31, 33].map(|out_w| Case { out_w, ..BASE }));
        cases.extend([1, 3, 4, 5, 17].map(|in_c| Case { in_c, ..BASE }));
        cases.extend([1, 5, 6, 7].map(|out_c| Case { out_c, ..BASE }));
        cases.extend([(1, 0), (5, 2)].map(|(k, pad)| Case { k, pad, ..BASE }));
        cases.extend([0, 2].map(|pad| Case { pad, ..BASE }));
        cases.extend([1, 4].map(|out_h| Case { out_h, ..BASE }));
        cases.push(Case { signed: true, ..BASE });
        cases.push(Case { relu: false, ..BASE });
        cases.push(Case { signed: true, relu: false, ..BASE });
        for (i, c) in cases.into_iter().enumerate() {
            check(c, i as u64);
        }
    }

    #[test]
    fn direct_epilogue_is_the_requantizer_at_its_edges() {
        // Shift 0 with unit and largest multipliers (every output
        // saturates to ±127 or is exact), the largest shift (every output
        // rounds to zero), and exact halves: a unit multiplier over shifts
        // 1-6 makes every sum with the shifted-out bits `10…0` a tie.
        let mut requants = vec![
            Requantizer::IDENTITY,
            Requantizer { mult: 65535, shift: 0 },
            Requantizer { mult: 65535, shift: 63 },
            Requantizer { mult: 1, shift: 63 },
        ];
        requants.extend((1..=6).map(|shift| Requantizer { mult: 1, shift }));
        for (i, requant) in requants.into_iter().enumerate() {
            for (signed, relu) in [(false, true), (false, false), (true, true), (true, false)] {
                check(Case { requant, signed, relu, ..BASE }, 100 + i as u64);
            }
        }
    }

    #[test]
    fn a_padded_lane_of_a_quad_adds_nothing() {
        // Five channels: the second quad has three padded lanes, which the
        // plane fills with the border value — 128 on the offset path — so
        // only their zero weights keep them out of the sums.
        let c = Case { in_c: 5, signed: true, ..BASE };
        let qw = weights(&c, 7);
        let wq = repack(&qw);
        let taps = 2 * 9;
        for o in 0..c.out_c {
            for t in 9..taps {
                assert_eq!(wq[o * taps + t] >> 8, 0, "filter {o} tap {t}: a padded lane is not zero");
            }
        }
        check(c, 7);
    }
}
