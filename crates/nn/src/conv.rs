//! Convolution reference operators: float and integer-exact quantized.

use crate::gemm::{conv2d_gemm_quant_pool, conv2d_gemm_quant_tier, KernelForms};
use crate::par::{self, ConvPool, Split};
use crate::simd::{self, KernelTier};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use zskip_quant::cache::{CacheStats, Fingerprint};
use zskip_quant::{Requantizer, Sm8};
use zskip_tensor::Tensor;

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
/// A value: [`QuantConvWeights::new`] is the only way to build one, and
/// nothing changes it afterwards, so whatever is derived from it — the
/// nonzero counts, the fingerprint, the packed image and the kernels'
/// forms — is built once, on first use, and stays true.
#[derive(Debug, Clone)]
pub struct QuantConvWeights {
    /// Output channels.
    pub out_c: usize,
    /// Input channels.
    pub in_c: usize,
    /// Kernel edge length.
    pub k: usize,
    w: Vec<Sm8>,
    bias_acc: Vec<i64>,
    requant: Requantizer,
    relu: bool,
    /// Cached per-`(o, i)` nonzero counts, one scan of `w` on first use.
    /// Not part of the logical value: ignored by `PartialEq`.
    nnz: OnceLock<Vec<u32>>,
    /// Cached content fingerprint. Ignored by `PartialEq` like `nnz`.
    fp: OnceLock<u64>,
    /// The forms of `w` the kernels read (`crate::gemm`). Ignored by
    /// `PartialEq` like `nnz`.
    forms: KernelForms,
    /// The accelerator's packed image of this layer, the last packing
    /// asked for ([`QuantConvWeights::packed`]). Ignored by `PartialEq`
    /// like `nnz`.
    packed: PackedSlot,
}

/// A conv layer's weights as the accelerator stages them (paper §III-B):
/// the scratchpad byte images of all its OFM groups of `lanes` filters,
/// concatenated in group order, and the tile index over them — one
/// offset per `(group, ifm, lane)` tile, then the end. The host packs
/// it once (`zskip_core::weights::pack_groups`) and the layer's weights
/// hold it ([`QuantConvWeights::packed`]).
#[derive(Debug)]
pub struct PackedImage {
    /// Filter lanes per OFM group.
    pub lanes: usize,
    /// Whether zero weights were skipped (else every slot is packed).
    pub zero_skipping: bool,
    /// The scratchpad bytes, group after group.
    pub image: Vec<u8>,
    /// Where each `(group, ifm, lane)` tile starts in `image`, then its end.
    pub index: Vec<u32>,
}

/// [`QuantConvWeights`]' one-entry packed-image slot. A clone shares the
/// image (same content, same packing).
#[derive(Debug, Default)]
struct PackedSlot(Mutex<Option<Arc<PackedImage>>>);

impl Clone for PackedSlot {
    fn clone(&self) -> Self {
        PackedSlot(Mutex::new(self.0.lock().unwrap_or_else(PoisonError::into_inner).clone()))
    }
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
            forms: KernelForms::default(),
            packed: PackedSlot::default(),
        }
    }

    /// Quantized weights, `[o][i][ky][kx]` row-major.
    pub fn w(&self) -> &[Sm8] {
        &self.w
    }

    /// Bias in accumulator domain (already scaled by `1/(s_in * s_w)`).
    pub fn bias_acc(&self) -> &[i64] {
        &self.bias_acc
    }

    /// The multiply-shift requantizer for the output write-back.
    pub fn requant(&self) -> Requantizer {
        self.requant
    }

    /// Whether ReLU is fused before requantization.
    pub fn relu(&self) -> bool {
        self.relu
    }

    /// The forms of `w` the kernels read, built on their first use.
    pub(crate) fn forms(&self) -> &KernelForms {
        &self.forms
    }

    /// The layer's content fingerprint: a stable 64-bit digest of geometry,
    /// weight bits, bias, requantizer, and the ReLU flag — everything that
    /// determines the derived packing and the epilogue. Two instances with
    /// equal content (e.g. a network and its clone) share one fingerprint,
    /// so the cpu backend's per-session stats report, keyed by it, tells
    /// networks apart by content, not by address.
    pub fn fingerprint(&self) -> u64 {
        *self.fp.get_or_init(|| {
            Fingerprint::new()
                .u64(self.out_c as u64)
                .u64(self.in_c as u64)
                .u64(self.k as u64)
                .bytes(Sm8::as_bytes(&self.w))
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

    /// The layer's packed image for `lanes` filter lanes with or without
    /// zero-skipping: the slot's when it holds that packing, else `pack`'s
    /// (image and tile index), which then replaces it. Concurrent callers
    /// wait for one `pack` rather than each running their own.
    pub fn packed(
        &self,
        lanes: usize,
        zero_skipping: bool,
        pack: impl FnOnce() -> (Vec<u8>, Vec<u32>),
    ) -> Arc<PackedImage> {
        let mut slot = self.packed.0.lock().unwrap_or_else(PoisonError::into_inner);
        match &*slot {
            Some(p) if (p.lanes, p.zero_skipping) == (lanes, zero_skipping) => Arc::clone(p),
            _ => {
                let (image, index) = pack();
                Arc::clone(slot.insert(Arc::new(PackedImage { lanes, zero_skipping, image, index })))
            }
        }
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
/// order, every step rounded to `f32` (no fused multiply-add, no
/// reassociation): `Network::quantize` derives the activation scales —
/// and through them every requantizer of the model — from these values,
/// so the per-output order is part of the model's definition. What is
/// free is everything else. The convolution runs as a GEMM whose
/// reduction is walked in that order: one block of output positions at a
/// time is lowered into a per-run panel (`K = in_c·k²` rows in `(i, ky,
/// kx)` order, one column per position), and a register block of output
/// channels × 16-position lane chunks accumulates down the panel's rows.
/// On planes of 64 positions and more each filter walks only its non-zero
/// taps (the ≈65 % magnitude pruning removed — the paper's own trick);
/// smaller planes run every tap, eight filters at a time. Output
/// channels are split over the host's cores, and the kernel runs at the
/// process's [`simd::dispatch`] tier. A skipped tap would have added `±0`,
/// which can change only the sign of an exactly-zero result; the tests
/// hold this bit-for-bit, modulo that sign, to the naive per-output scan
/// on finite data (docs/KERNELS.md, "Float calibration").
pub fn conv2d_f32(input: &Tensor<f32>, weights: &ConvWeights, stride: usize, pad: usize, relu: bool) -> Tensor<f32> {
    conv2d_f32_split(input, weights, stride, pad, relu, Split::auto(), simd::dispatch())
}

/// Output positions per lane chunk of the float conv's register block.
const LANES: usize = 16;
/// Lane chunks of one filter's register block on a sparse plane: four
/// accumulator chains cover the add latency.
const SPARSE_CHUNKS: usize = 4;
/// Output positions of one sparse register block.
const SPARSE_COLS: usize = LANES * SPARSE_CHUNKS;
/// Filters per register block on a dense plane: eight accumulator chains
/// share each loaded lane chunk.
const DENSE_ROWS: usize = 8;
/// Taps per reduction chunk on a sparse plane: 128 panel rows of one
/// register block's 64 positions are 32 KiB, inside L1, and every filter
/// of the run walks them before the next chunk is touched.
const TAP_CHUNK: usize = 128;
/// Floats in one run's lowered panel (512 KiB, inside L2). A column block
/// is as many positions as fit, whatever the plane's size.
const PANEL_FLOATS: usize = 1 << 17;
/// Lane multiply-adds one core retires per nanosecond, roughly (≈ 20
/// GMAC/s on the 2-vCPU AVX-512 reference box): how [`Split`] weighs a
/// call's work against a thread's start-up.
const LANE_MACS_PER_NS: usize = 8;

/// The geometry of one float conv call.
#[derive(Clone, Copy)]
struct Geometry {
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    out_w: usize,
    /// Output positions, `out_h * out_w`.
    plane: usize,
    /// The reduction length, `in_c * k * k`.
    taps: usize,
}

/// [`conv2d_f32`] with an explicit split of the output channels and an
/// explicit kernel tier.
pub(crate) fn conv2d_f32_split(
    input: &Tensor<f32>,
    weights: &ConvWeights,
    stride: usize,
    pad: usize,
    relu: bool,
    split: Split,
    tier: KernelTier,
) -> Tensor<f32> {
    let s = input.shape();
    assert_eq!(s.c, weights.in_c, "input channels mismatch");
    let k = weights.k;
    let out_h = (s.h + 2 * pad - k) / stride + 1;
    let out_w = (s.w + 2 * pad - k) / stride + 1;
    let mut out = Tensor::zeros(weights.out_c, out_h, out_w);
    let g = Geometry { h: s.h, w: s.w, k, stride, pad, out_w, plane: out_h * out_w, taps: s.c * k * k };
    if g.plane == 0 {
        return out;
    }
    let sparse = g.plane >= SPARSE_COLS;
    let step = if sparse { SPARSE_COLS } else { LANES };
    let cols = (PANEL_FLOATS / g.taps / step * step).clamp(step, g.plane.next_multiple_of(step));
    let channels = split.run_len(weights.out_c, g.plane.next_multiple_of(LANES) * g.taps / LANE_MACS_PER_NS);
    // One panel and one set of parked sums per run, allocated here rather
    // than by the workers: memory a short-lived thread frees stays
    // resident in its allocator arena.
    let runs = weights.out_c.div_ceil(channels);
    let mut panels = vec![0f32; runs * g.taps * cols + LANES];
    // Each run's panel starts on a cache line, so no lane chunk of it
    // straddles two.
    let align = panels.as_ptr().align_offset(64);
    let mut partials: Vec<Acc<1, SPARSE_CHUNKS>> = vec![[[[0.0; LANES]; SPARSE_CHUNKS]]; runs * channels];
    let runs = out
        .as_mut_slice()
        .chunks_mut(channels * g.plane)
        .zip(panels[align..].chunks_exact_mut(g.taps * cols))
        .zip(partials.chunks_exact_mut(channels));
    par::scoped_map(runs.enumerate(), |(r, ((planes, panel), partial))| {
        let rows = r * channels..r * channels + planes.len() / g.plane;
        let w = &weights.w[rows.start * g.taps..rows.end * g.taps];
        let taps = TapLists::new(w, g.taps, sparse);
        for first in (0..g.plane).step_by(cols) {
            lower(input.as_slice(), g, first, cols, panel);
            let block = Block {
                w,
                bias: &weights.bias[rows.clone()],
                taps: &taps,
                panel,
                cols,
                first,
                valid: cols.min(g.plane - first),
                g,
                relu,
            };
            block.run(tier, partial, planes);
        }
    });
    out
}

/// The taps each filter of a run walks, in `(i, ky, kx)` order.
struct TapLists {
    /// Sparse: every filter's non-zero taps, filter after filter. Dense:
    /// every tap, once, for all filters.
    list: Vec<u32>,
    /// Sparse: where filter `o`'s taps in reduction chunk `kc` start in
    /// `list`, at `o * chunks + kc` (one entry past the last filter).
    starts: Vec<usize>,
    /// Reduction chunks of [`TAP_CHUNK`] taps (1 when dense).
    chunks: usize,
}

impl TapLists {
    /// The lists of the filters `w` (rows of `taps` weights); on a sparse
    /// plane a branch-free compaction of each row's non-zero taps.
    fn new(w: &[f32], taps: usize, sparse: bool) -> TapLists {
        if !sparse {
            return TapLists { list: (0..taps as u32).collect(), starts: Vec::new(), chunks: 1 };
        }
        let chunks = taps.div_ceil(TAP_CHUNK);
        let mut list = vec![0u32; w.len() + 1];
        let mut starts = Vec::with_capacity(w.len() / taps * chunks + 1);
        let mut n = 0;
        for row in w.chunks(taps) {
            for (kc, chunk) in row.chunks(TAP_CHUNK).enumerate() {
                starts.push(n);
                for (t, &v) in (kc * TAP_CHUNK..).zip(chunk) {
                    // SAFETY: `n` counts the non-zero weights before this
                    // one, so it is below `w.len() + 1`.
                    unsafe { *list.get_unchecked_mut(n) = t as u32 };
                    n += usize::from(v != 0.0);
                }
            }
        }
        starts.push(n);
        list.truncate(n);
        TapLists { list, starts, chunks }
    }

    fn sparse(&self) -> bool {
        !self.starts.is_empty()
    }

    /// Filter `o`'s taps in reduction chunk `kc` (sparse only).
    fn of(&self, o: usize, kc: usize) -> &[u32] {
        let at = o * self.chunks + kc;
        &self.list[self.starts[at]..self.starts[at + 1]]
    }
}

/// Lowers output positions `first..first + cols` into `panel`: row `t` of
/// the panel is tap `t = (i, ky, kx)`, column `j` what position
/// `first + j` reads through it — zero where that lands in the padding
/// or past the plane. Every value is written once, an output line's
/// segment at a time.
fn lower(input: &[f32], g: Geometry, first: usize, cols: usize, panel: &mut [f32]) {
    let end = (first + cols).min(g.plane);
    let mut rows = panel.chunks_exact_mut(cols);
    for in_plane in input.chunks_exact(g.h * g.w) {
        for ky in 0..g.k {
            let ys = tap_span(ky, g.pad, g.stride, g.h, g.plane / g.out_w);
            for kx in 0..g.k {
                let xs = tap_span(kx, g.pad, g.stride, g.w, g.out_w);
                let row = rows.next().expect("one panel row per tap");
                let (segments, past) = row.split_at_mut(end - first);
                past.fill(0.0);
                let mut p = first;
                while p < end {
                    let (y, lo) = (p / g.out_w, p % g.out_w);
                    let hi = (g.out_w - lo).min(end - p) + lo;
                    let dst = &mut segments[p - first..p - first + hi - lo];
                    p += hi - lo;
                    if !ys.contains(&y) {
                        dst.fill(0.0);
                        continue;
                    }
                    let x0 = xs.start.clamp(lo, hi);
                    let x1 = xs.end.clamp(x0, hi);
                    let (head, rest) = dst.split_at_mut(x0 - lo);
                    let (mid, tail) = rest.split_at_mut(x1 - x0);
                    head.fill(0.0);
                    tail.fill(0.0);
                    if mid.is_empty() {
                        continue;
                    }
                    let src = &in_plane[(y * g.stride + ky - g.pad) * g.w + x0 * g.stride + kx - g.pad..];
                    if g.stride == 1 {
                        mid.copy_from_slice(&src[..mid.len()]);
                    } else {
                        mid.iter_mut().zip(src.iter().step_by(g.stride)).for_each(|(d, &x)| *d = x);
                    }
                }
            }
        }
    }
}

/// The output positions `t` whose tap sample `t * stride + tap - pad`
/// lands inside `0..in_len`.
fn tap_span(tap: usize, pad: usize, stride: usize, in_len: usize, out_len: usize) -> std::ops::Range<usize> {
    let first = pad.saturating_sub(tap).div_ceil(stride);
    let end = (in_len + pad).saturating_sub(tap).div_ceil(stride).min(out_len);
    first..end.max(first)
}

/// One lowered column block of one run: the operands of every register
/// block the run computes over it.
struct Block<'a> {
    /// The run's filters, `g.taps` weights each.
    w: &'a [f32],
    bias: &'a [f32],
    taps: &'a TapLists,
    /// `g.taps` rows of `cols` values.
    panel: &'a [f32],
    cols: usize,
    /// The block's first output position and how many of its columns are
    /// positions of the plane.
    first: usize,
    valid: usize,
    g: Geometry,
    relu: bool,
}

/// The accumulators of one register block: `MR` filters × `NC` lane chunks.
type Acc<const MR: usize, const NC: usize> = [[[f32; LANES]; NC]; MR];

impl Block<'_> {
    /// Accumulates the block into `out` (the run's output planes) on
    /// `tier`'s instantiation of the one body, [`Block::body`].
    fn run(&self, tier: KernelTier, partial: &mut [Acc<1, SPARSE_CHUNKS>], out: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if tier.runs_avx512() {
            // SAFETY: the tier's features (AVX-512F among them) are present.
            return unsafe { self.body_avx512(partial, out) };
        }
        let _ = tier;
        self.body(partial, out);
    }

    /// [`Block::body`] on 512-bit registers.
    ///
    /// # Safety
    /// AVX-512F must be present.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn body_avx512(&self, partial: &mut [Acc<1, SPARSE_CHUNKS>], out: &mut [f32]) {
        self.body(partial, out);
    }

    /// Every register block of the column block. Sparse: one filter × 64
    /// positions over its non-zero taps, a reduction chunk at a time for
    /// every filter of the run, the running sums parked in `partial`
    /// between chunks (a stored `f32` reloads exactly). Dense:
    /// [`DENSE_ROWS`] filters × 16 positions over every tap, then the
    /// leftover filters one at a time.
    #[inline(always)]
    fn body(&self, partial: &mut [Acc<1, SPARSE_CHUNKS>], out: &mut [f32]) {
        let rows = self.bias.len();
        if self.taps.sparse() {
            let chunks = self.taps.chunks;
            for c in (0..self.valid).step_by(SPARSE_COLS) {
                for kc in 0..chunks {
                    for (o, partial) in partial[..rows].iter_mut().enumerate() {
                        let mut acc = if kc == 0 { self.bias_at(o) } else { *partial };
                        self.tile(self.taps.of(o, kc), o, c, &mut acc);
                        if kc + 1 == chunks {
                            self.store(o, c, &acc, out);
                        } else {
                            *partial = acc;
                        }
                    }
                }
            }
            return;
        }
        let full = rows / DENSE_ROWS * DENSE_ROWS;
        for o in (0..full).step_by(DENSE_ROWS) {
            for c in (0..self.valid).step_by(LANES) {
                let mut acc: Acc<DENSE_ROWS, 1> = self.bias_at(o);
                self.tile(&self.taps.list, o, c, &mut acc);
                self.store(o, c, &acc, out);
            }
        }
        for o in full..rows {
            for c in (0..self.valid).step_by(LANES) {
                let mut acc: Acc<1, 1> = self.bias_at(o);
                self.tile(&self.taps.list, o, c, &mut acc);
                self.store(o, c, &acc, out);
            }
        }
    }

    /// Filters `o..o + MR`'s biases in every lane.
    #[inline(always)]
    fn bias_at<const MR: usize, const NC: usize>(&self, o: usize) -> Acc<MR, NC> {
        std::array::from_fn(|r| [[self.bias[o + r]; LANES]; NC])
    }

    /// Writes the lanes of filters `o..o + MR` at columns `c..` that are
    /// positions of the plane, through ReLU if fused.
    #[inline(always)]
    fn store<const MR: usize, const NC: usize>(&self, o: usize, c: usize, acc: &Acc<MR, NC>, out: &mut [f32]) {
        let n = (self.valid - c).min(NC * LANES);
        for (r, acc) in acc.iter().enumerate() {
            let dst = &mut out[(o + r) * self.g.plane + self.first + c..][..n];
            for (d, &v) in dst.iter_mut().zip(acc.as_flattened()) {
                *d = if self.relu { v.max(0.0) } else { v };
            }
        }
    }

    /// The one accumulation: for each tap of `taps` in order, filters
    /// `o..o + MR` × columns `c..c + NC·16` take `acc += w * x`, every
    /// product and sum rounded on its own.
    #[inline(always)]
    fn tile<const MR: usize, const NC: usize>(&self, taps: &[u32], o: usize, c: usize, acc: &mut Acc<MR, NC>) {
        let (g, cols) = (self.g, self.cols);
        assert!((o + MR) * g.taps <= self.w.len() && c + NC * LANES <= cols && g.taps * cols <= self.panel.len());
        debug_assert!(taps.iter().all(|&t| (t as usize) < g.taps));
        let (w, panel) = (self.w[o * g.taps..].as_ptr(), self.panel.as_ptr());
        for &t in taps {
            let t = t as usize;
            // SAFETY: a listed tap is below `g.taps` (`TapLists` builds
            // the lists from row indices), so row `t` of the panel, read
            // at columns `c..c + NC·16 <= cols`, and tap `t` of the
            // block's `MR` filters are in bounds (asserted above).
            let x = unsafe { panel.add(t * cols + c).cast::<[[f32; LANES]; NC]>().read_unaligned() };
            for (r, acc) in acc.iter_mut().enumerate() {
                // SAFETY: as above.
                let w = unsafe { *w.add(r * g.taps + t) };
                for (acc, x) in acc.iter_mut().zip(&x) {
                    for (a, &x) in acc.iter_mut().zip(x) {
                        *a += w * x;
                    }
                }
            }
        }
    }
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

// Forwarders for the frozen `benchmark/` harness, which imports these three
// names; nothing inside the workspace calls them. ROADMAP item 1 deletes
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

/// `benchmark/`, the `core.exec.weight_cache_*` probes: the cache is gone
/// (a layer's packed image lives on its weights, [`QuantConvWeights::packed`]).
#[doc(hidden)]
pub fn weight_cache_stats() -> CacheStats {
    CacheStats::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use zskip_quant::QuantParams;
    use zskip_tensor::Shape;

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
    fn nnz_cache_survives_a_clone() {
        let layer = |w: Vec<Sm8>| QuantConvWeights::new(1, 2, 3, w, vec![0], Requantizer::IDENTITY, false);
        let qw = layer((0..18).map(|i| Sm8::from_i32_saturating(i % 3)).collect());
        assert_eq!(qw.filter_nnz(0, 0), 6);
        assert_eq!(qw.clone().filter_nnz(0, 1), 6);
        // Other weights are another layer, with counts of its own.
        let zeros = layer(vec![Sm8::ZERO; 18]);
        assert_eq!(zeros.output_filter_nnz(0), 0);
        assert_eq!(zeros.density(), 0.0);
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

/// A quantized conv layer is a value: no code outside this crate can write
/// its contents. Each block below assigns or mutably borrows one field of
/// [`QuantConvWeights`], and must fail to compile on that field's privacy
/// (E0616). Stable rustdoc passes a `compile_fail` block on any error, so
/// each has a compiling twin below it that names the same paths and
/// reaches the field through its accessor: a typo or a renamed path fails
/// the twin.
///
/// ```compile_fail,E0616
/// fn edit(q: &mut zskip_nn::conv::QuantConvWeights) {
///     q.w = Vec::new();
/// }
/// ```
///
/// ```
/// fn read(q: &zskip_nn::conv::QuantConvWeights) {
///     let _: Vec<zskip_quant::Sm8> = Vec::new();
///     let _ = q.w();
/// }
/// ```
///
/// ```compile_fail,E0616
/// fn edit(q: &mut zskip_nn::conv::QuantConvWeights) {
///     q.bias_acc.push(0);
/// }
/// ```
///
/// ```
/// fn read(q: &zskip_nn::conv::QuantConvWeights) {
///     q.bias_acc().to_vec().push(0);
/// }
/// ```
///
/// ```compile_fail,E0616
/// fn edit(q: &mut zskip_nn::conv::QuantConvWeights) {
///     q.requant = zskip_quant::Requantizer::IDENTITY;
/// }
/// ```
///
/// ```
/// fn read(q: &zskip_nn::conv::QuantConvWeights) {
///     let _ = (q.requant(), zskip_quant::Requantizer::IDENTITY);
/// }
/// ```
///
/// ```compile_fail,E0616
/// fn edit(q: &mut zskip_nn::conv::QuantConvWeights) {
///     let relu = &mut q.relu;
///     *relu = false;
/// }
/// ```
///
/// ```
/// fn read(q: &zskip_nn::conv::QuantConvWeights) {
///     let _: bool = q.relu();
/// }
/// ```
#[cfg(doctest)]
pub struct ImmutableLayer;
