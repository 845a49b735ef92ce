//! Convolution on AMX tiles, with no patch matrix (docs/KERNELS.md, "AMX
//! tiles").
//!
//! One `tdpbusd` multiplies a 16 x 64 tile of unsigned patch bytes by a
//! 64 x 16 tile of signed weights into a 16 x 16 tile of `i32` sums:
//! output-stationary over 16 positions x 16 filters x a 64-deep slice of
//! the reduction, with the same exact `u8 x s8` products as `vpdpbusd`.
//!
//! * **A** comes straight out of the layer's input, copied once into a
//!   bordered plane of patch bytes with the channels innermost, `[y][x][c]`.
//!   The reduction runs tap-major, `r = (ky, kx, c)`, so one reduction
//!   step — a tap and 64 channels — of output position `(oy, ox)` is the 64
//!   bytes at `(oy · stride + ky, ox · stride + kx, c..c + 64)`. Number the
//!   positions along the plane's bordered width instead of the output's,
//!   `m = oy · wp + ox`, and position `m` starts `stride · m · c` bytes past
//!   position 0: sixteen consecutive positions are one tile load with a
//!   row stride of `stride · c` bytes. The `wp - out_w` positions of each
//!   row past the output's edge are computed and never stored.
//! * **B** is the layer's weights, decoded to two's-complement `i8` once
//!   per layer ([`panels`]) into the tiles' VNNI layout: one 1 KiB tile per
//!   16 filters and reduction step, its row `q` holding the four weights of
//!   channels `4q..4q + 4` of each of the 16 filters.
//! * **C** rows are positions and its columns filters, so each finished
//!   tile is stored, transposed in registers and requantized sixteen
//!   positions of one filter at a time by the AVX-512 [`VecEpilogue`],
//!   whose bytes go out under a mask per output row.
//!
//! A register block is up to 2 x 2 tiles of C (`tmm0..tmm3`) against two
//! A (`tmm4`, `tmm5`) and two B tiles (`tmm6`, `tmm7`), each sum kept in
//! its tile from the first reduction step to the last. Every tile is
//! configured 16 rows of 64 bytes; a run loads the configuration on entry
//! and releases the tiles on exit, so no thread holds tile state between
//! layers. [`applies`] is the shape rule; every function with a
//! `#[target_feature]` or a tile instruction here is reached only through
//! [`conv_into`], which `conv2d_gemm_quant_into` calls only on a supported
//! AMX tier, for a layer [`applies`] holds for.

use super::x86::VecEpilogue;
use super::{for_each_run, offset_byte, split, Epilogue, GemmScratch, GemmWeights};
use crate::conv::QuantConvWeights;
use crate::par::{ConvPool, SendPtr};
use std::arch::asm;
use std::arch::x86_64::*;
use std::ops::Range;
use zskip_quant::Sm8;
use zskip_tensor::{Shape, Tensor};

/// Rows of a tile: positions of A and C, channel quads of B.
const TILE: usize = 16;
/// Bytes of a tile row: the channels of one reduction step.
const DEPTH: usize = 64;

/// Whether a `k x k` layer of `out_c` filters over an input of shape `s`
/// fits the tiles, which on the AMX tier then run it: whole filter tiles,
/// whole reduction steps (64 channels), at least one whole position tile,
/// and a sum that cannot leave `i32` — a tile has no `i64` flush, so each
/// C element adds all `c · k · k` products, each at most `255 · 127` in
/// magnitude, in one wrapping `i32`.
pub(super) fn applies(s: Shape, out_c: usize, k: usize, stride: usize, pad: usize) -> bool {
    let (hp, wp) = (s.h + 2 * pad, s.w + 2 * pad);
    out_c > 0
        && out_c.is_multiple_of(TILE)
        && s.c > 0
        && s.c.is_multiple_of(DEPTH)
        && k > 0
        && stride > 0
        && hp >= k
        && wp >= k
        && (hp - k) / stride * wp + (wp - k) / stride + 1 >= TILE
        && (s.c * k * k) as u64 * 255 * 127 <= i32::MAX as u64
}

/// `w`'s weights decoded to `i8` (negative zero to 0) in the B tiles'
/// layout: reduction step `t = (ky · k + kx) · c / 64 + c / 64` of filter
/// tile `o / 16` is the 1 KiB at `(o / 16 · steps + t) · 1024`, weight `(o,
/// c, ky, kx)` at byte `c % 64 / 4 · 64 + o % 16 · 4 + c % 4` of it.
///
/// A filter tile at a time: its 16 filters decoded tap-major, `[o][tap][c]`
/// — where reduction step `t` is the 64 bytes from `64 t` of each filter —
/// then each tile row gathered as one 4-byte word of each filter, so the
/// panels are written in order. Filter tiles are split over `pool` when
/// one is attached: a layer's first image pays the decode.
pub(super) fn panels(w: &QuantConvWeights, pool: Option<&ConvPool>) -> Vec<u8> {
    let (c, kk) = (w.in_c, w.k * w.k);
    let filter = c * kk;
    let (tiles, tile_bytes) = (w.out_c / TILE, TILE * filter);
    let mut out = vec![0u8; w.w.len()];
    let runs = pool.map_or(1, |pool| pool.runs(tiles, w.w.len() * DECODE_NS));
    let per = tiles.div_ceil(runs);
    let out_ptr = SendPtr::new(out.as_mut_ptr());
    for_each_run(pool, runs, &|run| {
        let (lo, hi) = ((run * per).min(tiles) * tile_bytes, ((run + 1) * per).min(tiles) * tile_bytes);
        // SAFETY: runs own disjoint filter-tile ranges of `out`.
        let out = unsafe { std::slice::from_raw_parts_mut(out_ptr.add(lo), hi - lo) };
        let mut taps = vec![0u8; tile_bytes];
        for (filters, panel) in w.w[lo..hi].chunks_exact(tile_bytes).zip(out.chunks_exact_mut(tile_bytes)) {
            for (src, dst) in filters.chunks_exact(filter).zip(taps.chunks_exact_mut(filter)) {
                for (tap, dst) in dst.chunks_exact_mut(c).enumerate() {
                    for (d, v) in dst.iter_mut().zip(src[tap..].iter().step_by(kk)) {
                        *d = v.decode_i16() as u8;
                    }
                }
            }
            for (t, step) in panel.chunks_exact_mut(TILE * DEPTH).enumerate() {
                for (q, row) in step.chunks_exact_mut(DEPTH).enumerate() {
                    for (n, word) in row.chunks_exact_mut(4).enumerate() {
                        word.copy_from_slice(&taps[n * filter + t * DEPTH + 4 * q..][..4]);
                    }
                }
            }
        }
    });
    out
}

/// Nanoseconds [`panels`] counts a weight at when it asks the pool for
/// runs: the single-core decode, the page faults of new panels included.
const DECODE_NS: usize = 2;

impl GemmScratch {
    /// Copies `input` into a `(h + 2 pad) x (w + 2 pad) x c` plane of patch
    /// bytes, channels innermost, as the tiles read it. The patch-byte
    /// contract is the lowering's (module docs of `gemm`, "Patch bytes"):
    /// when any input byte has its sign bit set, every value is stored
    /// `+128` and the border is 128, else the bytes go in as they are
    /// around a border of 0. Returns the bordered `(height, width)` and
    /// whether the plane is offset.
    ///
    /// The copy is a transpose of `c x (h · w)` bytes, done 16 channels by
    /// 16 pixels at a time in registers, each transposed vector — one
    /// pixel's 16 channels — stored where that pixel sits in the border;
    /// pixels past the last whole 16 go one byte at a time.
    fn fill_pixels(&mut self, input: &Tensor<Sm8>, pad: usize) -> ((usize, usize), bool) {
        let s = input.shape();
        let (hp, wp, pixels) = (s.h + 2 * pad, s.w + 2 * pad, s.h * s.w);
        let bytes = Sm8::as_bytes(input.as_slice());
        let offset = bytes.iter().fold(0, |any, &b| any | b) & 0x80 != 0;
        let d = &mut self.plane;
        d.clear();
        d.resize(hp * wp * s.c, if offset { 128 } else { 0 });
        let at = |p: usize| ((p / s.w + pad) * wp + p % s.w + pad) * s.c;
        let whole = pixels / TILE * TILE;
        // SAFETY: the tiles run only on a supported AMX tier, AVX-512
        // among its features.
        unsafe { transpose_pixels(bytes, s.c, whole, &at, d, offset) };
        for (c, channel) in bytes.chunks_exact(pixels).enumerate() {
            for (p, &b) in channel.iter().enumerate().skip(whole) {
                d[at(p) + c] = if offset { offset_byte(b) } else { b };
            }
        }
        ((hp, wp), offset)
    }
}

/// The whole-16 part of [`GemmScratch::fill_pixels`]: pixels `0..whole` of
/// the `c` channels of `bytes`, 16 channels by 16 pixels a transpose, each
/// pixel's channels stored at `d[at(pixel)..]`, as their patch bytes when
/// `offset`.
///
/// # Safety
/// The CPU must support the AVX-512 tier.
#[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq")]
unsafe fn transpose_pixels(bytes: &[u8], c: usize, whole: usize, at: &impl Fn(usize) -> usize, d: &mut [u8], offset: bool) {
    let pixels = bytes.len() / c;
    assert!(c.is_multiple_of(TILE) && whole <= pixels && bytes.len() == c * pixels, "channels are not whole 16-byte rows");
    for c0 in (0..c).step_by(TILE) {
        for p in (0..whole).step_by(TILE) {
            let rows = std::array::from_fn(|i| {
                let row = &bytes[(c0 + i) * pixels + p..][..TILE];
                super::direct::patch_bytes(_mm_loadu_si128(row.as_ptr() as *const __m128i), offset)
            });
            for (j, v) in transpose16x8(rows).into_iter().enumerate() {
                let dst = &mut d[at(p + j) + c0..][..TILE];
                _mm_storeu_si128(dst.as_mut_ptr() as *mut __m128i, v);
            }
        }
    }
}

/// The geometry of one tile call: a `k x k` kernel at `stride` over `c`
/// channels of a bordered plane `wp` wide, and the output plane.
#[derive(Clone, Copy)]
struct Geometry {
    c: usize,
    k: usize,
    stride: usize,
    wp: usize,
    out_h: usize,
    out_w: usize,
}

impl Geometry {
    /// Positions numbered along the bordered width, up to the last output:
    /// what the position tiles cover.
    fn positions(&self) -> usize {
        (self.out_h - 1) * self.wp + self.out_w
    }

    /// Position tiles. A last tile that would run past the last output
    /// starts 16 positions before it instead and overlaps the one before
    /// it: the overlapped outputs are computed twice, identically, and no
    /// load leaves the plane.
    fn tiles(&self) -> usize {
        self.positions().div_ceil(TILE)
    }

    /// The first position of tile `t`.
    fn tile_start(&self, t: usize) -> usize {
        (t * TILE).min(self.positions() - TILE)
    }

    /// Reduction steps: taps times 64-channel chunks.
    fn steps(&self) -> usize {
        self.k * self.k * self.c / DEPTH
    }
}

/// Convolution of `input` into `out` (reshaped in place) on the tiles,
/// filter tiles split over `pool` when one is attached, into as many runs
/// as the layer's lowered GEMM would be: each run owns a
/// contiguous range of output channels — every output of those channels,
/// computed and stored by the same loop as inline — so the result is
/// bit-identical at any worker count. The caller has checked [`applies`]
/// and that the host runs the AMX tier.
pub(super) fn conv_into(
    input: &Tensor<Sm8>,
    weights: &QuantConvWeights,
    stride: usize,
    pad: usize,
    pool: Option<&ConvPool>,
    ws: &mut GemmScratch,
    out: &mut Tensor<Sm8>,
) {
    let ((hp, wp), offset) = ws.fill_pixels(input, pad);
    let k = weights.k;
    let (out_h, out_w) = ((hp - k) / stride + 1, (wp - k) / stride + 1);
    let g = Geometry { c: weights.in_c, k, stride, wp, out_h, out_w };
    out.reset(weights.out_c, out_h, out_w);
    let gemm = GemmWeights::of(weights);
    let bias = if offset { gemm.offset() } else { gemm }.bias_acc;
    let wt = weights.tile_w.get_or_init(|| panels(weights, pool));
    let epilogue = Epilogue::new(weights.requant, weights.relu);
    let plane = &ws.plane[..];
    let outputs = out_h * out_w;
    // Cut where the lowered GEMM of the layer would be: the tiles gain
    // from a second core on every layer they take (docs/KERNELS.md, "AMX
    // tiles").
    let (runs, per) = split(pool, weights.out_c / TILE, [weights.out_c, outputs, g.c * k * k]);
    let per = per * TILE;
    let out_ptr = SendPtr::new(out.as_mut_slice().as_mut_ptr());
    for_each_run(pool, runs, &|run| {
        let filters = (run * per).min(weights.out_c)..((run + 1) * per).min(weights.out_c);
        // SAFETY: the caller verified the tier's features on this CPU; the
        // plane was filled for this geometry and `wt` / `bias` hold
        // `out_c` filters; runs own disjoint output-channel ranges of
        // `out`, which `reset` sized to `out_c` planes of `outputs`.
        unsafe { conv(g, plane, wt, bias, epilogue, filters.clone(), out_ptr.add(filters.start * outputs)) };
    });
}

/// The tile configuration every run loads: palette 1, all eight tiles 16
/// rows of 64 bytes.
#[repr(C, align(64))]
struct TileConfig([u8; 64]);

impl TileConfig {
    const ALL_16X64: TileConfig = {
        let mut c = [0u8; 64];
        c[0] = 1;
        let mut t = 0;
        while t < 8 {
            c[16 + 2 * t] = DEPTH as u8;
            c[48 + t] = TILE as u8;
            t += 1;
        }
        TileConfig(c)
    };
}

/// Filters `filters` of the layer over every output: register blocks of
/// up to two filter tiles by two position tiles, between one `ldtilecfg`
/// and one `tilerelease`. `out` is the output plane of filter
/// `filters.start`.
///
/// # Safety
/// `applies` must hold for `g`, the range must be whole filter tiles;
/// `plane` must hold the pixel plane of `g`, `wt` and `bias` the panels
/// and biases of at least `filters.end` filters, `out` room for
/// `filters.len()` output planes.
#[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq")]
unsafe fn conv(
    g: Geometry,
    plane: &[u8],
    wt: &[u8],
    bias: &[i64],
    epilogue: Epilogue,
    filters: Range<usize>,
    out: *mut Sm8,
) {
    let steps = g.steps();
    assert!(plane.len() >= ((g.out_h - 1) * g.stride + g.k) * g.wp * g.c, "pixel plane does not match the geometry");
    assert!(wt.len() >= filters.end * steps * DEPTH && bias.len() >= filters.end, "weights for too few filters");
    let e = VecEpilogue::new(epilogue);
    let config = TileConfig::ALL_16X64;
    asm!("ldtilecfg [{}]", in(reg) &config as *const TileConfig, options(nostack, readonly));
    let mut f = filters.start;
    while f < filters.end {
        let nf = ((filters.end - f) / TILE).min(2);
        let b = wt.as_ptr().add(f / TILE * steps * TILE * DEPTH);
        let outs = out.add((f - filters.start) * g.out_h * g.out_w);
        let mut t = 0;
        while t < g.tiles() {
            let np = (g.tiles() - t).min(2);
            let m = [t, t + np - 1].map(|t| g.tile_start(t));
            let block = Block { g: &g, plane: plane.as_ptr(), m, b, bias: bias.as_ptr().add(f), e: &e, out: outs };
            match (np, nf) {
                (2, 2) => block.run::<2, 2>(),
                (2, _) => block.run::<2, 1>(),
                (_, 2) => block.run::<1, 2>(),
                _ => block.run::<1, 1>(),
            }
            t += np;
        }
        f += nf * TILE;
    }
    asm!("tilerelease", options(nostack, nomem));
}

/// One register block: `MP` position tiles (first positions `m`) by `NF`
/// filter tiles (panels from `b`, biases from `bias`, output planes from
/// `out`).
struct Block<'a> {
    g: &'a Geometry,
    plane: *const u8,
    m: [usize; 2],
    b: *const u8,
    bias: *const i64,
    e: &'a VecEpilogue,
    out: *mut Sm8,
}

impl Block<'_> {
    /// Accumulates the block's C tiles over every reduction step, then
    /// hands each to [`Block::store`]. C tile `(i, n)` is `tmm(2i + n)`.
    /// Every load stays inside the plane: the last step of position `m`
    /// ends at byte `(stride · m + (k - 1) · (wp + 1) + 1) · c`, at most
    /// the plane's end for every `m` below [`Geometry::positions`].
    ///
    /// # Safety
    /// As for [`conv`], with the tiles configured.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq")]
    unsafe fn run<const MP: usize, const NF: usize>(&self) {
        let g = self.g;
        let row = g.stride * g.c;
        let a = self.m.map(|m| self.plane.add(m * row));
        let filter_tile = g.steps() * TILE * DEPTH;
        asm!("tilezero tmm0", "tilezero tmm1", "tilezero tmm2", "tilezero tmm3", options(nostack, nomem));
        let mut b0 = self.b;
        for ky in 0..g.k {
            for kx in 0..g.k {
                for chunk in (0..g.c).step_by(DEPTH) {
                    let at = (ky * g.wp + kx) * g.c + chunk;
                    asm!(
                        "tileloadd tmm4, [{a0} + {row} * 1]",
                        "tileloadd tmm6, [{b0} + {depth} * 1]",
                        "tdpbusd tmm0, tmm4, tmm6",
                        a0 = in(reg) a[0].add(at), b0 = in(reg) b0, row = in(reg) row, depth = in(reg) DEPTH,
                        options(nostack, readonly),
                    );
                    if NF == 2 {
                        asm!(
                            "tileloadd tmm7, [{b1} + {depth} * 1]",
                            "tdpbusd tmm1, tmm4, tmm7",
                            b1 = in(reg) b0.add(filter_tile), depth = in(reg) DEPTH,
                            options(nostack, readonly),
                        );
                    }
                    if MP == 2 {
                        asm!(
                            "tileloadd tmm5, [{a1} + {row} * 1]",
                            "tdpbusd tmm2, tmm5, tmm6",
                            a1 = in(reg) a[1].add(at), row = in(reg) row,
                            options(nostack, readonly),
                        );
                        if NF == 2 {
                            asm!("tdpbusd tmm3, tmm5, tmm7", options(nostack, nomem));
                        }
                    }
                    b0 = b0.add(TILE * DEPTH);
                }
            }
        }
        let mut c = CTile([[0; TILE]; TILE]);
        for i in 0..MP {
            for n in 0..NF {
                let dst = c.0.as_mut_ptr();
                match 2 * i + n {
                    0 => asm!("tilestored [{} + {} * 1], tmm0", in(reg) dst, in(reg) DEPTH, options(nostack)),
                    1 => asm!("tilestored [{} + {} * 1], tmm1", in(reg) dst, in(reg) DEPTH, options(nostack)),
                    2 => asm!("tilestored [{} + {} * 1], tmm2", in(reg) dst, in(reg) DEPTH, options(nostack)),
                    _ => asm!("tilestored [{} + {} * 1], tmm3", in(reg) dst, in(reg) DEPTH, options(nostack)),
                }
                self.store(&c, self.m[i], n);
            }
        }
    }

    /// Requantizes C tile `c` — positions `m..m + 16` by the block's filter
    /// tile `n` — and stores each filter's outputs among them: one masked
    /// store per output row the positions touch, the positions past the
    /// output's edge masked off.
    ///
    /// # Safety
    /// As for [`Block::run`].
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq")]
    unsafe fn store(&self, c: &CTile, m: usize, n: usize) {
        let g = self.g;
        // Output row `oy`'s outputs sit at `m + j - oy · (wp - out_w)` of
        // a filter's plane: one base and one lane mask per row.
        let mut rows = [(0isize, 0u64); TILE];
        let mut count = 0;
        for j in 0..TILE {
            let (oy, ox) = ((m + j) / g.wp, (m + j) % g.wp);
            if ox < g.out_w {
                let base = m as isize - (oy * (g.wp - g.out_w)) as isize;
                if count == 0 || rows[count - 1].0 != base {
                    rows[count] = (base, 0);
                    count += 1;
                }
                rows[count - 1].1 |= 1 << j;
            }
        }
        let plane = g.out_h * g.out_w;
        let sums: [__m512i; TILE] = std::array::from_fn(|i| _mm512_load_si512(c.0[i].as_ptr() as *const _));
        for (f, sums) in transpose16(sums).into_iter().enumerate() {
            let o = n * TILE + f;
            let q = _mm512_castsi128_si512(self.e.apply16(sums, *self.bias.add(o)));
            for &(base, mask) in &rows[..count] {
                // A lane's address is inside its filter's plane exactly
                // when the mask keeps it; the lanes masked off are never
                // written (nor faulted on), so the base itself may point
                // before the plane.
                let at = (self.out as *mut i8).wrapping_offset((o * plane) as isize + base);
                _mm512_mask_storeu_epi8(at, mask, q);
            }
        }
    }
}

/// The 16 x 16 byte transpose: `out[j]` byte `i` is `r[i]` byte `j`. Each
/// round interleaves row `i` with row `i + 8`, which rotates the 8-bit
/// `(row, column)` index left by one; four rounds swap its halves.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni,avx512dq")]
fn transpose16x8(mut r: [__m128i; TILE]) -> [__m128i; TILE] {
    for _ in 0..4 {
        r = std::array::from_fn(|i| {
            let (x, y) = (r[i / 2], r[i / 2 + 8]);
            if i % 2 == 0 {
                _mm_unpacklo_epi8(x, y)
            } else {
                _mm_unpackhi_epi8(x, y)
            }
        });
    }
    r
}

/// One C tile in memory, `[position][filter]`, aligned for its row loads.
#[repr(C, align(64))]
struct CTile([[i32; TILE]; TILE]);

/// The 16 x 16 `i32` transpose: `out[f]` lane `m` is `r[m]` lane `f`.
/// Four rounds of pairwise interleaves: `i32` and `i64` lanes within each
/// 128-bit lane, then the 128-bit lanes themselves twice.
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose16(r: [__m512i; TILE]) -> [__m512i; TILE] {
    // Lane L of `t[2i]` / `t[2i + 1]`: rows 2i, 2i + 1 at columns 4L, 4L + 1
    // / 4L + 2, 4L + 3, interleaved.
    let t: [__m512i; TILE] = std::array::from_fn(|i| {
        let (x, y) = (r[i & !1], r[i | 1]);
        if i % 2 == 0 {
            _mm512_unpacklo_epi32(x, y)
        } else {
            _mm512_unpackhi_epi32(x, y)
        }
    });
    // Lane L of `u[4g + c]`: column 4L + c of rows 4g..4g + 4.
    let u: [__m512i; TILE] = std::array::from_fn(|i| {
        let (g, c) = (i / 4, i % 4);
        let (x, y) = (t[4 * g + c / 2], t[4 * g + 2 + c / 2]);
        if c % 2 == 0 {
            _mm512_unpacklo_epi64(x, y)
        } else {
            _mm512_unpackhi_epi64(x, y)
        }
    });
    // `v[c]`: lanes 0 and 2 of `u[c]`, then of `u[4 + c]`; `v[4 + c]`:
    // their lanes 1 and 3; `v[8 + c]`, `v[12 + c]` the same of rows 8..16.
    let v: [__m512i; TILE] = std::array::from_fn(|i| {
        let (h, odd, c) = (i / 8, i / 4 % 2, i % 4);
        let (x, y) = (u[8 * h + c], u[8 * h + 4 + c]);
        if odd == 0 {
            _mm512_shuffle_i32x4::<0x88>(x, y)
        } else {
            _mm512_shuffle_i32x4::<0xdd>(x, y)
        }
    });
    // Column `4L + c`: lane L of every row quad, in row order.
    std::array::from_fn(|i| {
        let (l, c) = (i / 4, i % 4);
        let (x, y) = (v[l % 2 * 4 + c], v[8 + l % 2 * 4 + c]);
        if l < 2 {
            _mm512_shuffle_i32x4::<0x88>(x, y)
        } else {
            _mm512_shuffle_i32x4::<0xdd>(x, y)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d_quant_dense;
    use crate::simd::KernelTier;
    use crate::gemm::conv2d_gemm_quant_into;
    use zskip_quant::Requantizer;

    /// The longest reduction the tiles take: the last multiple of 64 whose
    /// sum of products of at most `255 · 127` fits `i32`.
    const MAX_LEN: usize = i32::MAX as usize / (255 * 127) / DEPTH * DEPTH;

    /// `conv2d_gemm_quant_into` on the AMX tier, inline and over pools
    /// forced to cut 1-3 runs, against the dense scan; the layer must
    /// reach the tiles.
    fn check(qw: &QuantConvWeights, x: &Tensor<Sm8>, stride: usize, pad: usize, what: &str) {
        assert!(applies(x.shape(), qw.out_c, qw.k, stride, pad), "{what} misses the tiles");
        let want = conv2d_quant_dense(x, qw, stride, pad);
        let pools: Vec<ConvPool> = (1..=3).map(ConvPool::forced).collect();
        let (mut ws, mut out) = (GemmScratch::default(), Tensor::from_fn(1, 2, 3, |_, _, _| Sm8::from_bits(0x80)));
        for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
            conv2d_gemm_quant_into(x, qw, stride, pad, KernelTier::Amx, pool, &mut ws, &mut out);
            assert_eq!(out, want, "{what}, pool {pool:?}");
        }
    }

    #[test]
    fn tiles_match_the_dense_scan_at_every_block_remainder() {
        if !KernelTier::Amx.is_supported() {
            return;
        }
        // One and three filter tiles (a 2-wide block, then a 1-wide one);
        // outputs of exactly one position tile (4x4 at k 1), of one and an
        // overlapping second (4x4 at k 3), of five (8x8) and of several
        // rows a tile (3x9, 7x7), at stride 1 and 2; 1x1 and 3x3 layers
        // over one and two 64-channel chunks; signed inputs (the offset
        // path) and ReLU outputs; weights over every bit pattern, negative
        // zero and +-127 among them.
        let mut seed = 0;
        let layers = [(64, 1, 1, 0), (128, 1, 1, 0), (64, 3, 1, 1), (128, 3, 1, 1), (64, 3, 2, 1), (64, 1, 2, 0)];
        for out_c in [16, 48] {
            for (h, w) in [(4, 4), (3, 9), (7, 7), (8, 8), (9, 12)] {
                for (in_c, k, stride, pad) in layers {
                    if !applies(Shape::new(in_c, h, w), out_c, k, stride, pad) {
                        continue;
                    }
                    for signed in [false, true] {
                        seed += 1;
                        let mut rng = zskip_fault::SplitMix64::new(seed);
                        let n = out_c * in_c * k * k;
                        let wv = (0..n).map(|_| Sm8::from_bits(rng.next_u64() as u8)).collect();
                        let bias = (0..out_c as i64).map(|o| (o - 8) * 900).collect();
                        let qw = QuantConvWeights::new(out_c, in_c, k, wv, bias, Requantizer { mult: 3, shift: 12 }, !signed);
                        let x = Tensor::from_fn(in_c, h, w, |_, _, _| {
                            let b = rng.next_u64() as u8;
                            Sm8::from_bits(if signed { b } else { b & 0x7f })
                        });
                        let what = format!("{out_c} filters, {in_c}x{h}x{w}, k {k}, stride {stride}, signed {signed}");
                        check(&qw, &x, stride, pad, &what);
                    }
                }
            }
        }
        assert!(seed >= 60, "only {seed} cases reached the tiles");
    }

    #[test]
    fn the_longest_tile_reduction_is_exact_and_one_step_more_leaves_the_tiles() {
        if !KernelTier::Amx.is_supported() {
            return;
        }
        assert!(MAX_LEN as u64 * 255 * 127 <= i32::MAX as u64);
        assert!((MAX_LEN + DEPTH) as u64 * 255 * 127 > i32::MAX as u64);
        let requant = Requantizer::from_ratio(1.0 / (1u64 << 25) as f64);
        let bias: Vec<i64> = (0..16).map(|o| o * 1000 - 8000).collect();
        for weight in [Sm8::MIN, Sm8::MAX] {
            // The tiles themselves on all-255 patch bytes against all -127
            // and all +127 weights at the longest reduction: every sum at
            // the `i32` bound, with the plain and the offset bias.
            let qw = QuantConvWeights::new(16, MAX_LEN, 1, vec![weight; 16 * MAX_LEN], bias.clone(), requant, false);
            let g = Geometry { c: MAX_LEN, k: 1, stride: 1, wp: 4, out_h: 4, out_w: 4 };
            let plane = vec![255u8; 16 * MAX_LEN];
            let sum = weight.to_i32() as i64 * 255 * MAX_LEN as i64;
            for offset in [false, true] {
                let gemm = GemmWeights::of(&qw);
                let bias = if offset { gemm.offset() } else { gemm }.bias_acc;
                let want: Vec<Sm8> = bias.iter().flat_map(|&b| [requant.apply(b + sum); 16]).collect();
                let mut out = vec![Sm8::ZERO; 16 * 16];
                // SAFETY: the tier is supported, `applies` holds for `g`
                // and the buffers are sized for it.
                unsafe { conv(g, &plane, &panels(&qw, None), bias, Epilogue::new(requant, false), 0..16, out.as_mut_ptr()) };
                assert_eq!(out, want, "weight {weight:?}, offset {offset}");
            }
            // The same bound through `conv2d_gemm_quant_into`, against the
            // dense scan, at the longest reduction and one step more:
            // inputs of 127 (patch bytes 127), then 127 but for one
            // negative zero, which makes every other patch byte 255. One
            // step more, a tile would wrap, so the exact answer there
            // shows the call took the AVX-512 path.
            for len in [MAX_LEN, MAX_LEN + DEPTH] {
                let tiles = applies(Shape::new(len, 4, 4), 16, 1, 1, 0);
                assert_eq!(tiles, len == MAX_LEN, "len {len}");
                for neg_zero in [false, true] {
                    let qw = QuantConvWeights::new(16, len, 1, vec![weight; 16 * len], bias.clone(), requant, false);
                    let x = Tensor::from_fn(len, 4, 4, |c, y, x| {
                        Sm8::from_bits(if neg_zero && (c, y, x) == (0, 0, 0) { 0x80 } else { 127 })
                    });
                    let want = conv2d_quant_dense(&x, &qw, 1, 0);
                    let mut out = Tensor::zeros(1, 1, 1);
                    conv2d_gemm_quant_into(&x, &qw, 1, 0, KernelTier::Amx, None, &mut GemmScratch::default(), &mut out);
                    assert_eq!(out, want, "len {len}, weight {weight:?}, negative zero {neg_zero}");
                    assert_eq!(qw.tile_w.get().is_some(), tiles, "len {len}: tile panels decoded");
                }
            }
        }
    }

    #[test]
    fn transpose16_moves_every_lane() {
        if !KernelTier::Avx512.is_supported() {
            return;
        }
        let m: [[i32; TILE]; TILE] = std::array::from_fn(|r| std::array::from_fn(|c| (r * 100 + c) as i32));
        // SAFETY: the AVX-512 tier's features are present.
        let got = unsafe {
            let rows = m.map(|row| _mm512_loadu_si512(row.as_ptr() as *const _));
            transpose16(rows).map(|v| std::mem::transmute::<__m512i, [i32; TILE]>(v))
        };
        for (f, col) in got.iter().enumerate() {
            for (r, &v) in col.iter().enumerate() {
                assert_eq!(v, m[r][f], "column {f}, row {r}");
            }
        }
    }

    #[test]
    fn panels_place_every_weight_where_its_tile_reads_it() {
        let (out_c, in_c, k) = (32, 128, 3);
        let w = (0..out_c * in_c * k * k).map(|i| Sm8::from_bits((i * 31 % 251) as u8)).collect();
        let qw = QuantConvWeights::new(out_c, in_c, k, w, vec![0; out_c], Requantizer::IDENTITY, false);
        let wt = panels(&qw, Some(&ConvPool::forced(3)));
        let steps = k * k * in_c / 64;
        for o in 0..out_c {
            for c in 0..in_c {
                for (ky, kx) in (0..k).flat_map(|ky| (0..k).map(move |kx| (ky, kx))) {
                    let step = (ky * k + kx) * (in_c / 64) + c / 64;
                    let at = (o / 16 * steps + step) * 1024 + c % 64 / 4 * 64 + o % 16 * 4 + c % 4;
                    assert_eq!(wt[at] as i8 as i16, qw.at(o, c, ky, kx).decode_i16(), "weight ({o}, {c}, {ky}, {kx})");
                }
            }
        }
    }
}
