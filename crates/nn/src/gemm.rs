//! The one quantized convolution kernel: lowering + GEMM — and the one
//! integer GEMM body FC layers share with it.
//!
//! Every host-side conv — the software golden model's plan walk, the cpu
//! backend on every [`KernelTier`] and [`crate::conv::conv2d_quant`] — is
//! the classic lowering: unroll input patches into a matrix and multiply
//! by the filter matrix; except that on the AVX-512 tier a stride-1 layer
//! with 16 or more output columns runs as a direct convolution instead,
//! output columns in the vector lanes and no patch matrix (`direct`,
//! docs/KERNELS.md "Direct convolution"), and that on the AMX tier a layer
//! of whole 64-channel reduction steps and 16-filter tiles runs on AMX
//! tiles, again with no patch matrix (`amx`, docs/KERNELS.md "AMX
//! tiles"). On the AMX tier the lowered GEMM reads the layer's weights
//! with the zeros taken out (`compressed`, docs/KERNELS.md "Compressed
//! weight stream"). The scalar oracle is the dense scan
//! [`crate::conv::conv2d_quant_dense`], which shares no loop structure
//! with any of them; property tests here and in `tests/kernel_tiers.rs`
//! hold every tier to it bit for bit.
//!
//! The GEMM is **output-stationary, in dot-product ("NT") form**:
//! `out[o][col] = bias[o] + Σ_r W[o][r] · P[col][r]` with both operands
//! contiguous along the reduction `r = (i, ky, kx)`. That is how
//! [`QuantConvWeights::w`] (and an FC layer's `w`) is laid out already, so
//! no weight is repacked or copied; the lowering writes the patch matrix
//! *transposed* — one row per output position — one byte per value, and
//! [`crate::simd::dot_nt`] keeps a register block of sums to completion
//! with the vector lanes along `r`. Lane occupancy therefore does not
//! depend on the plane size: a 2x2 plane, a 32x32 plane and an FC layer
//! (the one-column case, [`crate::fc::fc_quant_pool_into`]) all run
//! `gemm_quant_into`, at the caller's [`KernelTier`] (the scalar tier runs
//! the same blocking with a portable dot).
//!
//! # Patch bytes
//!
//! `dot_nt` multiplies `Sm8` weights by *unsigned* patch bytes, which a
//! layer's input becomes in the pass that copies it into the workspace:
//!
//! * An input with no sign bit set anywhere — every input produced by a
//!   ReLU, a max-pool or a join with ReLU, so every layer of VGG-16 and
//!   ResNet-18 but the first — is its own bytes: each value `0..=127`,
//!   the zero border 0.
//! * An input with any sign-bit byte (a negative value or negative zero)
//!   is stored *offset*: each value `v` as `v + 128` (`1..=255`; negative
//!   zero and the border as 128), and the call runs its epilogue on
//!   `bias_acc[o] − 128 · Σ_r W[o][r]`, which takes the offset back out of
//!   every sum exactly. That bias is summed once per weight set, on its
//!   first offset call, and cached with the weights.
//!
//! Around the multiply-accumulates, every stage is straight-line slice
//! code (docs/KERNELS.md, "Lowering" and "Epilogue"):
//!
//! * **Lowering** copies the input once into a bordered byte plane, then
//!   builds each patch row from `c * k` fixed-width copies of `k`
//!   contiguous plane values — a 3-wide window moves as one 4-value copy
//!   whose overhang the next window overwrites, and the last window of
//!   every channel's block (so of every patch row) is copied exactly, so
//!   nothing is written past the row a pool run owns. A 1x1 layer's
//!   lowering is the transpose of its input.
//! * **Epilogue**: `dot_nt` hands over each `DOT_MR x DOT_NR` block of
//!   sums, and `Epilogue` requantizes the block — bias, multiply,
//!   rounding shift, clamp, ReLU, Sm8 encode — with no branch, inlined into
//!   the tier's `#[target_feature]` body, `DOT_NR` bytes stored per row;
//!   on the AVX-512 tier a full block is one vector of the same steps.
//!
//! [`conv2d_gemm_quant_into`] is the entry point: the work is done by the
//! calling thread, or — with a pool — split over its workers (lowering by
//! output row, GEMM, direct kernel and tiles by output-channel range). It
//! writes into a caller-owned output tensor and borrows the bordered plane and
//! the patch matrix from a [`GemmScratch`], so a warmed arena runs it
//! allocation-free; [`conv2d_gemm_quant_tier`] /
//! [`conv2d_gemm_quant_pool`] are the allocating conveniences.

#[cfg(target_arch = "x86_64")]
mod amx;
#[cfg(target_arch = "x86_64")]
mod compressed;
#[cfg(target_arch = "x86_64")]
mod direct;

use crate::conv::QuantConvWeights;
use crate::par::{ConvPool, SendPtr};
use crate::simd::{self, KernelTier, DOT_MR, DOT_NR};
use std::ops::Range;
use std::sync::OnceLock;
use zskip_quant::{Requantizer, Sm8};
use zskip_tensor::{Shape, Tensor};

/// The reusable buffers of the quantized GEMM's patch side. They only
/// ever grow; the [`crate::scratch::Scratch`] arena owns one set.
#[derive(Debug, Clone, Default)]
pub struct GemmScratch {
    /// The layer's input as patch bytes (module docs, "Patch bytes"): for
    /// a conv layer a plane with a border `pad` wide, what the patch rows
    /// are copied out of — or, on the direct path, the channel-quad plane
    /// the direct kernel reads, and on the tiles the plane with its
    /// channels innermost; for an FC layer with a sign-bit byte in
    /// its input, its one offset patch row.
    plane: Vec<u8>,
    /// The transposed patch matrix `P[col][r]` of a conv layer.
    patches: Vec<u8>,
}

/// A conv layer's weights with the zeros taken out, as the lowered GEMM
/// streams them on the AMX tier (docs/KERNELS.md, "Compressed weight
/// stream"): one stream per filter, 64 weights of its row a group, each
/// group stored as its `u64` non-zero mask — bit `i` for weight `i` —
/// followed by its non-zero weights, decoded to two's-complement `i8`, in
/// order. Negative zero is a zero; a row's last group is short when the
/// row is.
#[derive(Debug, Clone)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) struct Compressed {
    /// Groups of every stream.
    groups: usize,
    /// Where each stream starts in `bytes`, then where the last ends.
    starts: Vec<usize>,
    /// The streams, then 64 zero bytes, so that a whole vector loaded at
    /// any group's weights stays inside.
    bytes: Vec<u8>,
}

/// The patch byte of the `Sm8` bit pattern `v` in an offset input: `v +
/// 128`, so `1..=255`, with negative zero (`0x80`) and zero — a border
/// tap — both 128.
#[inline(always)]
fn offset_byte(v: u8) -> u8 {
    (Sm8::from_bits(v).decode_i16() + 128) as u8
}

impl GemmScratch {
    /// Total bytes currently reserved by the buffers.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.plane.capacity() + self.patches.capacity()
    }

    /// The patch row of an FC layer over `input`, and `gemm` with the bias
    /// that row needs: `input`'s own bytes when no value has its sign bit
    /// set, else its offset copy in the plane.
    pub(crate) fn row_operands<'a>(
        &'a mut self,
        input: &'a [Sm8],
        gemm: GemmWeights<'a>,
    ) -> (&'a [u8], GemmWeights<'a>) {
        let bytes = Sm8::as_bytes(input);
        if bytes.iter().fold(0, |any, &b| any | b) & 0x80 == 0 {
            return (bytes, gemm);
        }
        self.plane.clear();
        self.plane.extend(bytes.iter().map(|&b| offset_byte(b)));
        (&self.plane, gemm.offset())
    }

    /// Copies `input` into a `c x (h + 2 pad) x (w + 2 pad)` plane of patch
    /// bytes, ORing every byte on the way: when a sign bit turns up, the
    /// whole plane, border included, is then rewritten offset. Returns the
    /// bordered `(height, width)` and whether the plane is offset.
    fn fill_plane(&mut self, input: &Tensor<Sm8>, pad: usize) -> ((usize, usize), bool) {
        let s = input.shape();
        let (hp, wp) = (s.h + 2 * pad, s.w + 2 * pad);
        let d = &mut self.plane;
        d.clear();
        d.resize(s.c * hp * wp, 0);
        let mut any = 0;
        for (y, row) in Sm8::as_bytes(input.as_slice()).chunks_exact(s.w).enumerate() {
            // Input row `y` is row `y % h` of channel `y / h`.
            let at = ((y / s.h) * hp + y % s.h + pad) * wp + pad;
            for (d, &b) in d[at..at + s.w].iter_mut().zip(row) {
                *d = b;
                any |= b;
            }
        }
        let offset = any & 0x80 != 0;
        if offset {
            d.iter_mut().for_each(|b| *b = offset_byte(*b));
        }
        ((hp, wp), offset)
    }
}

/// What the split decisions are made from (docs/KERNELS.md, "Intra-image
/// threading"): multiply-accumulates of the [`simd::dot_nt`] body per
/// nanosecond and nanoseconds per output on top of its reduction — the
/// block's fixed work, its requantize and the output's share of the
/// lowering — both fitted to single-thread layer times on the widest
/// tier; and how many columns' worth of MACs a layer that streams its
/// weights (an FC layer, a 2x2 plane) counts as, set by what a split of
/// one buys rather than by its single-thread time.
const MACS_PER_NS: usize = 48;
const STREAM_COLS: usize = 6;
const EPILOGUE_NS: usize = 5;

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

/// Lowers `input` for a `k x k` convolution into `ws`: the input copied
/// once into a bordered plane of patch bytes, then the transposed patch
/// matrix `patches[col * len + r]` — one row of `len = c * k * k` values
/// `r = (c, ky, kx)` per output position `col = oy * out_w + ox` — copied
/// out of it, output rows split over `pool`, when one is attached, the way
/// the `out_c`-row GEMM this feeds will be. Returns `(out_h, out_w)` and
/// whether the patch bytes are offset.
fn lower_into(
    input: &Tensor<Sm8>,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    pool: Option<&ConvPool>,
    ws: &mut GemmScratch,
) -> (usize, usize, bool) {
    let c = input.shape().c;
    let ((hp, wp), offset) = ws.fill_plane(input, pad);
    let (out_h, out_w) = ((hp - k) / stride + 1, (wp - k) / stride + 1);
    let GemmScratch { plane, patches } = ws;
    let plane = Plane { d: plane, c, hp, wp, stride, out_w };
    // Sized only: every element is written below.
    let row_len = out_w * c * k * k;
    patches.resize(out_h * row_len, 0);
    let (runs, per) = split(pool, out_h, [out_c, out_h * out_w, c * k * k]);
    let patches_ptr = SendPtr::new(patches.as_mut_ptr());
    for_each_run(pool, runs, &|run| {
        let oys = (run * per).min(out_h)..((run + 1) * per).min(out_h);
        // SAFETY: runs own disjoint output-row ranges inside the resize
        // above; every copy below stays inside its own patch row.
        let rows =
            unsafe { std::slice::from_raw_parts_mut(patches_ptr.add(oys.start * row_len), oys.len() * row_len) };
        match k {
            1 => plane.transpose_rows(oys, rows),
            3 => plane.lower_rows::<3>(k, oys, rows),
            5 => plane.lower_rows::<5>(k, oys, rows),
            7 => plane.lower_rows::<7>(k, oys, rows),
            _ => plane.lower_rows::<0>(k, oys, rows),
        }
    });
    (out_h, out_w, offset)
}

/// The bordered input plane a conv layer's patch rows are copied out of:
/// `c` channels of `hp x wp` patch bytes, sampled every `stride` values
/// for `out_w` output columns.
struct Plane<'a> {
    d: &'a [u8],
    c: usize,
    hp: usize,
    wp: usize,
    stride: usize,
    out_w: usize,
}

impl Plane<'_> {
    /// The patch rows of output rows `oys`, one `c * k * k` row per output
    /// position, built a channel's `k * k` block at a time. A block is `k`
    /// windows, window `ky` the `k` contiguous plane values at `(c, oy *
    /// stride + ky, ox * stride..)`, each moved as one copy `w` values wide
    /// (`k` rounded up to a power of two): the copy overhangs into the
    /// window after it, which is written next and overwrites the overhang.
    /// The block's last window is copied exactly, so no write leaves the
    /// block — in particular none reaches the next output position's patch
    /// row, which may be another pool run's. Reads overhang only windows
    /// that are not a block's last, whose plane row is not the channel's
    /// last, so they stay inside the plane.
    ///
    /// `K == k` makes every offset into a block a constant, so the block's
    /// writes carry no bounds check; `K == 0` takes `k` as it comes, with
    /// exact copies (kernel sizes no network here uses).
    fn lower_rows<const K: usize>(&self, k: usize, oys: Range<usize>, rows: &mut [u8]) {
        let (k, w) = if K == 0 { (k, k) } else { (K, K.next_power_of_two()) };
        let Plane { d, c, hp, wp, stride, out_w } = *self;
        let (kk, len) = (k * k, c * k * k);
        for (oy, rows) in oys.zip(rows.chunks_exact_mut(out_w * len)) {
            for (ox, row) in rows.chunks_exact_mut(len).enumerate() {
                let origin = oy * stride * wp + ox * stride;
                for (ci, block) in row.chunks_exact_mut(kk).enumerate() {
                    let src = &d[origin + ci * hp * wp..];
                    for ky in 0..k - 1 {
                        block[ky * k..ky * k + w].copy_from_slice(&src[ky * wp..ky * wp + w]);
                    }
                    block[kk - k..].copy_from_slice(&src[(k - 1) * wp..][..k]);
                }
            }
        }
    }

    /// The patch rows of a 1x1 layer: row `(oy, ox)` is the `c` values at
    /// `(.., oy * stride, ox * stride)`, gathered a channel at a time.
    fn transpose_rows(&self, oys: Range<usize>, rows: &mut [u8]) {
        let Plane { d, c, hp, wp, stride, out_w } = *self;
        for (oy, rows) in oys.zip(rows.chunks_exact_mut(out_w * c)) {
            for ci in 0..c {
                // Sliced to the last element touched, so the strided
                // indices below are provably in bounds.
                let src = &d[(ci * hp + oy * stride) * wp..][..(out_w - 1) * stride + 1];
                let dst = &mut rows[ci..][..(out_w - 1) * c + 1];
                for ox in 0..out_w {
                    dst[ox * c] = src[ox * stride];
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The requantize epilogue on AVX-512 lanes, shared by the direct
    //! kernel and the AVX-512 `dot_nt` blocks. Every function carries the
    //! tier's `#[target_feature]`s; callers must have checked the tier.

    use super::Epilogue;
    use crate::simd::{DotSums, DOT_NR};
    use std::arch::x86_64::*;
    use zskip_quant::Sm8;

    /// [`Epilogue`] on vector lanes: its fields broadcast once per call.
    pub(super) struct VecEpilogue {
        mult: __m512i,
        half: __m512i,
        shift: __m128i,
        /// All lanes when ReLU is fused, none otherwise.
        relu: __mmask8,
    }

    impl VecEpilogue {
        #[inline]
        #[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq")]
        pub(super) unsafe fn new(e: Epilogue) -> Self {
            VecEpilogue {
                mult: _mm512_set1_epi64(e.mult),
                half: _mm512_set1_epi64(e.half as i64),
                shift: _mm_cvtsi64_si128(i64::from(e.shift)),
                relu: if e.relu { 0xff } else { 0 },
            }
        }

        /// [`Epilogue::apply`] on each of eight `i64` accumulators, step
        /// for step: `vpmullq`, the magnitude rounded and shifted, `min
        /// 127`, zero under the ReLU mask, the sign bit on a negative
        /// product's non-zero magnitude; the eight Sm8 bytes in the low
        /// half of the result (`vpmovqb`).
        #[inline]
        #[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq")]
        unsafe fn apply8(&self, acc: __m512i) -> __m128i {
            let zero = _mm512_setzero_si512();
            let prod = _mm512_mullo_epi64(acc, self.mult);
            let mag = _mm512_srl_epi64(_mm512_add_epi64(_mm512_abs_epi64(prod), self.half), self.shift);
            let mag = _mm512_min_epu64(mag, _mm512_set1_epi64(127));
            let mag = _mm512_maskz_mov_epi64(!(_mm512_cmplt_epi64_mask(acc, zero) & self.relu), mag);
            let neg = _mm512_mask_cmplt_epi64_mask(_mm512_test_epi64_mask(mag, mag), prod, zero);
            _mm512_cvtepi64_epi8(_mm512_mask_or_epi64(mag, neg, mag, _mm512_set1_epi64(0x80)))
        }

        /// Sixteen outputs: the `i32` sums of `acc` plus `bias`, widened to
        /// `i64` and requantized, as sixteen Sm8 bytes in column order.
        #[inline]
        #[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq")]
        pub(super) unsafe fn apply16(&self, acc: __m512i, bias: i64) -> __m128i {
            let bias = _mm512_set1_epi64(bias);
            let lo = _mm512_add_epi64(_mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc)), bias);
            let hi = _mm512_add_epi64(_mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64::<1>(acc)), bias);
            _mm_unpacklo_epi64(self.apply8(lo), self.apply8(hi))
        }
    }

    /// A full `dot_nt` block requantized as one vector: the `DOT_MR x
    /// DOT_NR` sums plus row `a`'s bias `bias[a]`, stored `DOT_NR` bytes to
    /// `row[a]`.
    ///
    /// # Safety
    /// Each `row[a]` must have room for `DOT_NR` bytes; the CPU must
    /// support the AVX-512 tier.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq")]
    pub(super) unsafe fn store_block(e: &VecEpilogue, sums: &DotSums, bias: [i64; 2], row: [*mut Sm8; 2]) {
        let sums = _mm512_loadu_si512(sums.as_ptr() as *const _);
        let bias = _mm512_inserti64x4::<1>(_mm512_set1_epi64(bias[0]), _mm256_set1_epi64x(bias[1]));
        let q = e.apply8(_mm512_add_epi64(sums, bias));
        const _: () = assert!(DOT_NR == 4);
        (row[0] as *mut i32).write_unaligned(_mm_cvtsi128_si32(q));
        (row[1] as *mut i32).write_unaligned(_mm_extract_epi32::<1>(q));
    }
}

/// The weight side of one GEMM — `bias_acc.len()` rows of `len` weights —
/// with its epilogue: a conv layer's filters or an FC layer's rows.
pub(crate) struct GemmWeights<'a> {
    pub w: &'a [Sm8],
    pub len: usize,
    pub bias_acc: &'a [i64],
    /// The layer's cell for the bias of an offset call, filled on its
    /// first one ([`GemmWeights::offset`]).
    pub offset_bias: &'a OnceLock<Vec<i64>>,
    pub requant: Requantizer,
    pub relu: bool,
    /// The same rows with the zeros taken out, which the GEMM then reads
    /// instead of `w`: a conv layer's on the AMX tier, else `None`.
    pub compressed: Option<&'a Compressed>,
}

impl<'a> GemmWeights<'a> {
    /// A conv layer's filters as one GEMM's weight side.
    fn of(weights: &'a QuantConvWeights) -> Self {
        GemmWeights {
            w: &weights.w,
            len: weights.in_c * weights.k * weights.k,
            bias_acc: &weights.bias_acc,
            offset_bias: &weights.offset_bias,
            requant: weights.requant,
            relu: weights.relu,
            compressed: None,
        }
    }

    /// These weights against an offset patch side: the bias becomes
    /// `bias_acc[o] − 128 · Σ_r w[o][r]`, so that the `+128` on every patch
    /// value cancels out of every sum. The weights never change once
    /// quantized, so the sums are taken once per layer, on its first
    /// offset call, and kept in its `offset_bias` cell.
    fn offset(self) -> Self {
        let GemmWeights { w, len, bias_acc, .. } = self;
        let bias = self.offset_bias.get_or_init(|| {
            let sum = |o: usize| w[o * len..][..len].iter().map(|w| w.to_i32() as i64).sum::<i64>();
            bias_acc.iter().enumerate().map(|(o, b)| b - 128 * sum(o)).collect()
        });
        GemmWeights { bias_acc: bias, ..self }
    }
}

/// A layer's [`Requantizer`] and ReLU flag in the branch-free form the
/// block epilogue runs: [`Epilogue::apply`] is `Requantizer::apply` (or
/// `apply_relu`) bit for bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Epilogue {
    mult: i64,
    shift: u32,
    /// `2^(shift - 1)`, the rounding half; zero at shift 0.
    half: u64,
    relu: bool,
}

impl Epilogue {
    /// # Panics
    /// Panics if `requant.shift > 63` (`Requantizer::from_ratio` never
    /// makes one; `Requantizer::apply` overflows on it).
    pub(crate) fn new(requant: Requantizer, relu: bool) -> Self {
        assert!(requant.shift < 64, "requantizer shift {} out of range", requant.shift);
        Epilogue { mult: requant.mult as i64, shift: requant.shift, half: (1u64 << requant.shift) >> 1, relu }
    }

    /// One output. `Requantizer::apply_raw` rounds half away from zero by
    /// rounding the magnitude and restoring the sign, so it is done on
    /// the magnitude here; its `i32` clamp and the Sm8 saturation after
    /// it are both `min(magnitude, 127)`; the sign survives only on a
    /// non-zero magnitude, as in `Sm8::from_i32_saturating`, so zero is
    /// never encoded `0x80`; and ReLU zeroes a negative `acc`, exactly
    /// where `apply_relu` returns `Sm8::ZERO`.
    #[inline(always)]
    pub(crate) fn apply(self, acc: i64) -> Sm8 {
        let prod = acc * self.mult;
        let mag = ((prod.unsigned_abs() + self.half) >> self.shift).min(127) as u8;
        let mag = if self.relu & (acc < 0) { 0 } else { mag };
        let neg = ((prod < 0) & (mag != 0)) as u8;
        Sm8::from_bits(neg << 7 | mag)
    }
}

/// `out[o * cols + col] = requant(bias[o] + Σ_r w[o][r] · p[col][r])`: the
/// one integer GEMM body behind every conv geometry and FC. Output rows
/// are split over `pool` when one is attached — each run is the same
/// [`simd::dot_nt`] call over a disjoint slice of `out` (or, with
/// `weights.compressed`, its compressed-row twin), and every sum is one
/// exact integer dot product, so the result is bit-identical at any
/// worker count and on any tier. Each register block is requantized as a
/// whole where `dot_nt` hands it over: `DOT_NR` outputs a row, stored
/// together.
pub(crate) fn gemm_quant_into(
    tier: KernelTier,
    pool: Option<&ConvPool>,
    weights: GemmWeights<'_>,
    p: &[u8],
    cols: usize,
    out: &mut [Sm8],
) {
    let GemmWeights { w, len, bias_acc, requant, relu, compressed, .. } = weights;
    let rows = bias_acc.len();
    assert_eq!(out.len(), rows * cols, "output is not rows x cols");
    let epilogue = Epilogue::new(requant, relu);
    #[cfg(target_arch = "x86_64")]
    // SAFETY: built only where the tier runs.
    let vector = tier.runs_avx512().then(|| unsafe { x86::VecEpilogue::new(epilogue) });
    let (runs, per) = split(pool, rows, [rows, cols, len]);
    let out_ptr = SendPtr::new(out.as_mut_ptr());
    for_each_run(pool, runs, &|run| {
        let (lo, hi) = ((run * per).min(rows), ((run + 1) * per).min(rows));
        // SAFETY: runs own disjoint row ranges of `out`, checked above to
        // hold `rows * cols` elements.
        let out = unsafe { std::slice::from_raw_parts_mut(out_ptr.add(lo * cols), (hi - lo) * cols) };
        let bias_acc = &bias_acc[lo..hi];
        // Forced inline: left to itself, the compiler calls the full
        // block's epilogue out of line, without the tier's features.
        dot(
            tier,
            w,
            compressed,
            lo..hi,
            p,
            [cols, len],
            #[inline(always)]
            |i, j, [mr, nr], sums| {
                #[cfg(target_arch = "x86_64")]
                if let (Some(e), DOT_MR, DOT_NR) = (&vector, mr, nr) {
                    let row = [0, 1].map(|a| out[(i + a) * cols + j..][..DOT_NR].as_mut_ptr());
                    // SAFETY: `vector` exists only on the AVX-512 tier;
                    // each row has the block's `DOT_NR` outputs.
                    unsafe { x86::store_block(e, sums, [bias_acc[i], bias_acc[i + 1]], row) };
                    return;
                }
                for (a, sums) in sums.iter().enumerate().take(mr) {
                    let bias = bias_acc[i + a];
                    let q: [Sm8; DOT_NR] = std::array::from_fn(|b| epilogue.apply(bias + sums[b]));
                    out[(i + a) * cols + j..][..nr].copy_from_slice(&q[..nr]);
                }
            },
        );
    });
}

/// [`simd::dot_nt`] of weight rows `rows` of `w` against `p`, or, with
/// `compressed` rows, its compressed-row twin.
fn dot(
    tier: KernelTier,
    w: &[Sm8],
    compressed: Option<&Compressed>,
    rows: Range<usize>,
    p: &[u8],
    [cols, len]: [usize; 2],
    block: impl FnMut(usize, usize, [usize; 2], &simd::DotSums),
) {
    match compressed {
        // SAFETY: only `conv2d_gemm_quant_into` attaches compressed rows —
        // built from these weights — and only on a supported AMX tier.
        #[cfg(target_arch = "x86_64")]
        Some(z) => unsafe { compressed::dot_rows(z, rows, p, [cols, len], block) },
        _ => simd::dot_nt(tier, &w[rows.start * len..rows.end * len], p, [rows.len(), cols, len], block),
    }
}

/// Integer-exact quantized convolution via lowering + output-stationary
/// GEMM at an explicit kernel tier — or, on the AMX tier, for a layer the
/// tiles take, on them, and on the AVX-512 and AMX tiers, for another
/// stride-1 layer with 16 or more output columns, via the direct kernel
/// (module docs) — writing into `out` (reshaped in place) with the patch
/// matrix borrowed from `ws`: allocation-free once both have grown to the
/// layer's size. With a `pool` the lowering is split by column range and
/// the GEMM (or the direct kernel, or the tiles) by output-channel range
/// over its workers, bit-identically at any worker count. Must agree
/// bit-for-bit with [`crate::conv::conv2d_quant_dense`]. On the AMX tier
/// the lowered GEMM never fetches a zero weight (the compressed stream);
/// everywhere else zero weights are multiplied like any other. The
/// hardware's zero-skipping is modelled by the stats pass, not by this
/// kernel.
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
    let s = input.shape();
    assert_eq!(s.c, weights.in_c, "input channels mismatch");
    let supported = tier.is_supported();
    #[cfg(target_arch = "x86_64")]
    match kernel(tier, s, weights.out_c, weights.k, stride, pad) {
        ConvKernel::Tiles if supported => return amx::conv_into(input, weights, stride, pad, pool, ws, out),
        ConvKernel::Direct if supported => return direct::conv_into(input, weights, pad, pool, ws, out),
        _ => {}
    }
    let (out_h, out_w, offset) = lower_into(input, weights.out_c, weights.k, stride, pad, pool, ws);
    out.reset(weights.out_c, out_h, out_w);
    let gemm = GemmWeights::of(weights);
    let gemm = if offset { gemm.offset() } else { gemm };
    #[cfg(target_arch = "x86_64")]
    let gemm = if tier == KernelTier::Amx && supported {
        GemmWeights { compressed: Some(weights.z_rows.get_or_init(|| compressed::rows(weights, pool))), ..gemm }
    } else {
        gemm
    };
    gemm_quant_into(tier, pool, gemm, &ws.patches, out_h * out_w, out.as_mut_slice());
}

/// The kernel [`conv2d_gemm_quant_into`] runs a conv layer on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvKernel {
    /// The AMX tiles (`amx`, docs/KERNELS.md "AMX tiles").
    Tiles,
    /// The direct convolution (`direct`, docs/KERNELS.md "Direct
    /// convolution").
    Direct,
    /// The lowering and `dot_nt`, or on the AMX tier its compressed-row
    /// twin (docs/KERNELS.md "Compressed weight stream").
    Lowered,
}

impl ConvKernel {
    /// Lower-case name, as `kernel_bench` prints it.
    pub fn name(self) -> &'static str {
        match self {
            ConvKernel::Tiles => "tiles",
            ConvKernel::Direct => "direct",
            ConvKernel::Lowered => "lowered",
        }
    }
}

/// What one call of [`conv2d_gemm_quant_into`] reads of a layer's weights
/// on `tier`: the kernel that takes the layer and the weight bytes it
/// streams. The rules are the tier's, whether or not this host runs it,
/// so the figure is the same on every host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightStream {
    pub kernel: ConvKernel,
    /// Bytes read per call: on the AMX tier, the lowered GEMM's
    /// compressed rows (a `u64` mask per 64 weights of a filter's row and
    /// its non-zero weights; docs/KERNELS.md "Compressed weight stream");
    /// the repacked channel quads for the direct kernel; the dense
    /// weights, one byte each, otherwise — the tiles' decoded panels
    /// included.
    pub bytes: usize,
}

/// The [`WeightStream`] of a `weights` layer at `stride` and `pad` over an
/// input of shape `s` on `tier`.
pub fn weight_stream(weights: &QuantConvWeights, s: Shape, stride: usize, pad: usize, tier: KernelTier) -> WeightStream {
    let (out_c, k) = (weights.out_c, weights.k);
    let len = weights.in_c * k * k;
    let nonzero = || weights.w.iter().filter(|v| !v.is_zero()).count();
    let kernel = kernel(tier, s, out_c, k, stride, pad);
    let bytes = match kernel {
        ConvKernel::Direct => out_c * weights.in_c.div_ceil(4) * k * k * 4,
        ConvKernel::Lowered if tier == KernelTier::Amx => out_c * len.div_ceil(64) * 8 + nonzero(),
        _ => weights.w.len(),
    };
    WeightStream { kernel, bytes }
}

/// The [`ConvKernel`] of a `k x k` layer of `out_c` filters over an input
/// of shape `s` on `tier`, were the host to run the tier: the tiles on the
/// AMX tier for a layer they fit, else the direct kernel on the AVX-512
/// and AMX tiers for a layer it fits, else the lowered GEMM.
fn kernel(tier: KernelTier, s: Shape, out_c: usize, k: usize, stride: usize, pad: usize) -> ConvKernel {
    #[cfg(target_arch = "x86_64")]
    if tier == KernelTier::Amx && amx::applies(s, out_c, k, stride, pad) {
        return ConvKernel::Tiles;
    }
    #[cfg(target_arch = "x86_64")]
    if tier >= KernelTier::Avx512 && direct::applies(s, k, stride, pad) {
        return ConvKernel::Direct;
    }
    ConvKernel::Lowered
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
    /// channel `c` at output `(oy, ox)`, zero in the padding — plus 128
    /// throughout when any input byte has its sign bit set.
    fn lowered_oracle(input: &Tensor<Sm8>, k: usize, stride: usize, pad: usize) -> Vec<u8> {
        let offset = if input.as_slice().iter().any(|v| v.to_bits() >= 0x80) { 128 } else { 0 };
        let padded = input.padded(pad);
        let s = padded.shape();
        let (out_h, out_w) = ((s.h - k) / stride + 1, (s.w - k) / stride + 1);
        let mut m = Vec::new();
        for (oy, ox) in (0..out_h).flat_map(|oy| (0..out_w).map(move |ox| (oy, ox))) {
            for (c, ky, kx) in (0..s.c).flat_map(|c| (0..k).flat_map(move |ky| (0..k).map(move |kx| (c, ky, kx)))) {
                m.push((padded[(c, oy * stride + ky, ox * stride + kx)].to_i32() + offset) as u8);
            }
        }
        m
    }

    #[test]
    fn im2col_shape_and_patch_content() {
        let input = ramp(2, 4, 4);
        let mut ws = GemmScratch::default();
        // The ramp starts at -127: offset patch bytes.
        assert_eq!(lower_into(&input, 1, 3, 1, 1, None, &mut ws), (4, 4, true));
        let len = 2 * 9;
        assert_eq!(ws.patches.len(), 16 * len);
        // Center kernel tap of channel 0 at output (1,1) is input (1,1).
        let r = 4; // (c=0, ky=1, kx=1)
        assert_eq!(ws.patches[5 * len + r] as i32, input[(0, 1, 1)].to_i32() + 128);
        // Top-left tap at output (0,0) is padding.
        assert_eq!(ws.patches[0], 128);
        assert_eq!(ws.patches, lowered_oracle(&input, 3, 1, 1));
    }

    #[test]
    fn lowering_matches_its_definition_on_a_dirty_workspace_at_any_pool_width() {
        // One workspace across geometries and both patch-byte forms: a
        // stale, larger plane or matrix, offset or not, must not leak into
        // a padded border, a strided sample or a 1x1 transpose. No input
        // value is zero — at pad 0 the border taps are real values — so a
        // window copy that overhung into the next patch row (another pool
        // run's, when the forced pools cut between rows) would leave a
        // visible wrong element there. k 2 takes the path of kernel sizes
        // without a constant one.
        let mut ws = GemmScratch::default();
        let pools: Vec<ConvPool> = (1..=4).map(ConvPool::forced).collect();
        let shapes = [(3, 7, 9), (2, 5, 5), (4, 2, 3), (1, 1, 1), (2, 9, 4), (5, 11, 13), (1, 8, 1)];
        for ((c, h, w), signed) in shapes.into_iter().flat_map(|s| [(s, true), (s, false)]) {
            let input = Tensor::from_fn(c, h, w, |c, y, x| {
                let i = (c * h + y) * w + x;
                let v = (i * 37 % 127 + 1) as i32;
                Sm8::from_i32_saturating(if signed && i % 2 == 1 { -v } else { v })
            });
            // A one-value input has no odd index to negate.
            let offset_want = signed && c * h * w > 1;
            for k in [1, 2, 3, 5, 7] {
                for (stride, pad) in (1..=3).flat_map(|s| (0..=3).map(move |p| (s, p))) {
                    if h + 2 * pad < k || w + 2 * pad < k {
                        continue;
                    }
                    let want = lowered_oracle(&input, k, stride, pad);
                    for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
                        let (.., offset) = lower_into(&input, 1, k, stride, pad, pool, &mut ws);
                        let what = format!("{c}x{h}x{w} signed {signed} k={k} stride={stride} pad={pad} pool={pool:?}");
                        assert_eq!(offset, offset_want, "{what}");
                        assert_eq!(ws.patches, want, "{what}");
                    }
                }
            }
        }
    }

    /// The requantizers the epilogue is held to `Requantizer` on: shift 0
    /// (plain and with the largest multiplier), the largest shift, exact
    /// halves (`mult` 1 or 3 over a small shift), a zero multiplier, and
    /// ratios a real layer gets.
    fn edge_requantizers() -> Vec<Requantizer> {
        let mut r = vec![
            Requantizer::IDENTITY,
            Requantizer { mult: 65535, shift: 0 },
            Requantizer { mult: 65535, shift: 63 },
            Requantizer { mult: 1, shift: 63 },
            Requantizer { mult: 0, shift: 4 },
        ];
        r.extend((1..=6).flat_map(|shift| [Requantizer { mult: 1, shift }, Requantizer { mult: 3, shift }]));
        r.extend([1.0 / 16.0, 0.37, 1.0 / 4096.0, 1e-9, 3.5].map(Requantizer::from_ratio));
        r
    }

    /// Accumulators around every rounding and saturation edge: small
    /// values of both signs, `±(m · 2^s ± 2^(s-1))` (exact halves and
    /// their neighbours, around the ±127 saturation too), the `i32` clamp
    /// bounds, and magnitudes whose product with a 16-bit multiplier still
    /// fits `i64`.
    fn edge_accs() -> Vec<i64> {
        let mut accs: Vec<i64> = (-300..=300).collect();
        for s in 1..=20 {
            for m in [0i64, 1, 2, 63, 64, 126, 127, 128, 1000] {
                for d in [-1, 0, 1] {
                    let v = (m << s) + (1 << (s - 1)) + d;
                    accs.extend([v, -v]);
                }
            }
        }
        for edge in [i32::MAX as i64, i32::MIN as i64, 1 << 40, 1 << 44] {
            accs.extend([edge - 1, edge, edge + 1, -edge - 1, -edge, 1 - edge]);
        }
        accs
    }

    #[test]
    fn epilogue_equals_the_requantizer_bit_for_bit() {
        for r in edge_requantizers() {
            for relu in [false, true] {
                let e = Epilogue::new(r, relu);
                for acc in edge_accs() {
                    let want = if relu { r.apply_relu(acc) } else { r.apply(acc) };
                    // Bits, not values: zero must come out `+0`, as the
                    // requantizer encodes it.
                    assert_eq!(e.apply(acc).to_bits(), want.to_bits(), "{r:?} relu {relu} acc {acc}");
                }
            }
        }
    }

    #[test]
    fn block_epilogue_equals_the_requantizer_on_every_tier() {
        // `len = 1` and unit weights make every sum `p[col]`, so output
        // `(o, col)` is the requantized `bias[o] + p[col]`: the edge
        // accumulators (both signs) as biases, offset by each column's
        // patch byte, its extremes included. 41 rows
        // (a ragged last row block) by 7 columns (a full column block and
        // three single columns), then the FC case of one column, on every
        // tier, inline and over a 3-worker pool (which cuts the bias
        // vector at run boundaries).
        let accs = edge_accs();
        let pool = ConvPool::forced(3);
        for r in edge_requantizers() {
            for relu in [false, true] {
                for chunk in accs.chunks(41) {
                    let w = vec![Sm8::from_i32_saturating(1); chunk.len()];
                    for p in [&[0u8, 1, 255, 127, 128, 2, 64][..], &[3]] {
                        let cols = p.len();
                        let want: Vec<u8> = chunk
                            .iter()
                            .flat_map(|&bias| p.iter().map(move |&v| bias + v as i64))
                            .map(|acc| if relu { r.apply_relu(acc) } else { r.apply(acc) }.to_bits())
                            .collect();
                        for tier in KernelTier::supported() {
                            for pool in [None, Some(&pool)] {
                                let mut out = vec![Sm8::from_bits(0x80); chunk.len() * cols];
                                let gemm = GemmWeights { w: &w, len: 1, bias_acc: chunk, offset_bias: &OnceLock::new(), requant: r, relu, compressed: None };
                                gemm_quant_into(tier, pool, gemm, p, cols, &mut out);
                                let got: Vec<u8> = out.iter().map(|v| v.to_bits()).collect();
                                assert_eq!(got, want, "{r:?} relu {relu} tier {tier} {cols} columns");
                            }
                        }
                    }
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

    /// `n` non-negative `Sm8` values, zeros among them, but for one
    /// sign-bit byte at `at` (none when `at >= n`): negative zero, or a
    /// negative value.
    fn one_sign_bit_byte(n: usize, at: usize, neg_zero: bool, seed: u64) -> Vec<Sm8> {
        let mut rng = zskip_fault::SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                let mag = (rng.next_u64() % 128) as u8;
                Sm8::from_bits(match (i == at, neg_zero) {
                    (false, _) => mag,
                    (true, true) => 0x80,
                    (true, false) => 0x80 | mag.max(1),
                })
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        // One sign-bit byte is enough to put a whole input on the offset
        // path, wherever it sits: the first value, the last, one next to
        // the border (every one of a channel's edge values is tried) or
        // any other. Checked against the oracles on every tier, inline and
        // over pools of 1-4, conv (k 1 and 3, stride 1 and 2, pad 0 and 1)
        // and FC alike — and the same input with no sign-bit byte at all
        // (`at == n`), which must take neither. An input read without its
        // offset, or an offset call without its bias correction, fails
        // here.
        #[test]
        fn a_single_sign_bit_byte_anywhere_is_offset_exactly(
            in_c in 1usize..4,
            h in 1usize..7,
            w in 1usize..7,
            out_c in 1usize..6,
            k_idx in 0usize..2,
            stride in 1usize..3,
            pad in 0usize..2,
            neg_zero in 0u8..2,
            seed in 0u64..1000,
        ) {
            let k = [1, 3][k_idx];
            prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
            let n = in_c * h * w;
            let channel = seed as usize % in_c * h * w;
            let mut at: Vec<usize> = vec![n, 0, n - 1, seed as usize * 7919 % n];
            let edge = |i: &usize| [0, h - 1].contains(&(i / w)) || [0, w - 1].contains(&(i % w));
            at.extend((0..h * w).filter(edge).map(|i| channel + i));
            let qw = quant_weights(out_c, in_c, k, seed);
            let fcw = quant_weights(out_c, n, 1, seed + 1);
            let fc = crate::fc::QuantFcWeights::new(out_c, n, fcw.w.clone(), fcw.bias_acc.clone(), fcw.requant, fcw.relu);
            let pools: Vec<ConvPool> = (1..=4).map(ConvPool::forced).collect();
            let (mut ws, mut out, mut fc_out) = (GemmScratch::default(), Tensor::zeros(1, 1, 1), Vec::new());
            for at in at {
                let values = one_sign_bit_byte(n, at, neg_zero == 1, seed);
                let input = Tensor::from_fn(in_c, h, w, |c, y, x| values[(c * h + y) * w + x]);
                let conv_want = conv2d_quant_dense(&input, &qw, stride, pad);
                let fc_want = crate::fc::fc_quant_oracle(&values, &fc);
                for tier in KernelTier::supported() {
                    for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
                        let what = format!("sign bit at {at}, tier {tier}, pool {pool:?}");
                        conv2d_gemm_quant_into(&input, &qw, stride, pad, tier, pool, &mut ws, &mut out);
                        prop_assert_eq!(&conv_want, &out, "conv, {}", what);
                        crate::fc::fc_quant_pool_into(&values, &fc, tier, pool, &mut ws, &mut fc_out);
                        prop_assert_eq!(&fc_want, &fc_out, "fc, {}", what);
                    }
                }
            }
        }
    }

    #[test]
    fn a_warm_arena_holds_one_byte_per_plane_and_patch_element() {
        // VGG-16-32 and ResNet-18-32 through a `Scratch`, then the GEMM
        // workspace against the largest plane (`c x (h + 2 pad) x (w + 2
        // pad)` — the same bytes channels innermost on the AMX tiles — or
        // `⌈c/4⌉ x 4` channels on the direct path) and patch matrix
        // (`out_h * out_w x c * k * k`, lowered layers only) any
        // conv layer asks for. A buffer grows to what a call asks for or
        // to twice its old capacity, whichever is more, so a byte buffer
        // ends at least as large as its largest request and short of twice
        // it, where an `i16` one would take at least twice as many bytes.
        use crate::{resnet::resnet18_spec, vgg16::vgg16_scaled_spec, LayerSpec, Network, Scratch};
        for spec in [vgg16_scaled_spec(32), resnet18_spec()] {
            let convs = spec.conv_layers();
            let density = zskip_quant::DensityProfile::uniform(convs.len(), 0.35);
            let config = crate::SyntheticModelConfig { seed: 1, density };
            let inputs = crate::eval::synthetic_inputs(2, 2, spec.input);
            let qnet = Network::synthetic(spec.clone(), &config).quantize(&inputs[..1]);
            let mut scratch = Scratch::new();
            qnet.forward_quant_scratch(&inputs[1], &mut scratch);
            let (plane, patches) = convs.iter().fold((0, 0), |(plane, patches), (_, layer, s)| {
                let &LayerSpec::Conv { out_c, k, stride, pad, .. } = *layer else { unreachable!("a conv layer") };
                let (hp, wp) = (s.h + 2 * pad, s.w + 2 * pad);
                match kernel(scratch.tier(), *s, out_c, k, stride, pad) {
                    ConvKernel::Tiles => return (plane.max(s.c * hp * wp), patches),
                    ConvKernel::Direct => return (plane.max(s.c.div_ceil(4) * 4 * hp * wp), patches),
                    ConvKernel::Lowered => {}
                }
                let cols = ((hp - k) / stride + 1) * ((wp - k) / stride + 1);
                (plane.max(s.c * hp * wp), patches.max(cols * s.c * k * k))
            });
            let ws = &scratch.gemm;
            let operand_bytes = ws.plane.capacity() + ws.patches.capacity();
            let elements = plane + patches;
            assert!(
                (elements..2 * elements).contains(&operand_bytes),
                "{}: {operand_bytes} workspace bytes for {elements} plane and patch elements",
                spec.name
            );
        }
    }
}
