//! The staged per-layer pipeline shared by every backend
//! ([`crate::exec::conv_pass`] routes each pass into it).
//!
//! One accelerator pass always runs the same stages, whatever executes
//! the arithmetic:
//!
//! 1. **stage** — serialize the tiled input FM and the packed group
//!    weights into the DDR model;
//! 2. **stripe** — for each planned stripe: DMA the IFM rows into banks,
//!    preload the scratchpad weights, issue the instruction batch to the
//!    instruction executor, then DMA the OFM rows back out;
//! 3. **collect** — merge per-instance cycles, DMA cycles and activity
//!    counters into a [`PassStats`].
//!
//! Because stripe plans, DMA descriptor sequences and instruction
//! streams are value-independent, two backends running this pipeline on
//! the same layer observe identical DDR traffic, identical injected DMA
//! faults and (for the closed-form executor) identical cycle counts —
//! the invariant `tests/backend_equivalence.rs` locks down.

use crate::bank::BankSet;
use crate::cycle;
use crate::driver::{Driver, DriverError};
use crate::exec::PassCtx;
use crate::isa::{ConvInstr, Instruction, PoolPadInstr, PoolPadOp};
use crate::layout::FmLayout;
use crate::model;
use crate::report::PassStats;
use crate::weights::{pack_groups, GroupWeights};
use std::sync::{Arc, OnceLock};
use zskip_fault::SharedFaultPlan;
use zskip_nn::conv::QuantConvWeights;
use zskip_nn::par::ConvPool;
use zskip_quant::cache::{CacheStats, Fingerprint, WeightCache};
use zskip_quant::grouping::FilterGrouping;
use zskip_quant::Sm8;
use zskip_sim::Counters;
use zskip_soc::ddr::DdrModel;
use zskip_soc::dma::{DmaController, TILE_BYTES};
use zskip_tensor::{Shape, Tensor, TiledFeatureMap, TILE_DIM};

/// DDR feature-map region stride: each execution-plan slot owns one
/// fixed region of this size, so a skip-branch activation stays resident
/// in DDR without the next pass's output overwriting it (the classic
/// linear chain degenerates to two regions — the old A/B ping-pong).
/// 32 MiB holds the largest tiled VGG-16 feature map with room to spare.
pub const DDR_FM_STRIDE: usize = 32 << 20;

/// Scratch region for the explicit pad pass's intermediate feature map.
/// The padded image is consumed immediately by the following conv pass,
/// so it never occupies a plan slot.
pub const DDR_FM_PAD: usize = 256 << 20;

const DDR_WEIGHTS: usize = 512 << 20;

/// Size of the DDR model, and with it of the weight window above
/// [`DDR_WEIGHTS`] a layer's packed image is staged in.
const DDR_BYTES: usize = 1 << 30;

/// Start of execution-plan slot `slot`'s DDR feature-map region.
///
/// # Panics
/// Panics if the slot's region would collide with the pad scratch region
/// (the driver checks a plan's slot count up front).
pub fn slot_addr(slot: usize) -> usize {
    let addr = slot * DDR_FM_STRIDE;
    assert!(addr + DDR_FM_STRIDE <= DDR_FM_PAD, "slot {slot} exceeds the DDR feature-map window");
    addr
}

/// Mutable SoC context threaded through a network run: the DDR model and
/// the DMA engine the staged pipeline moves feature maps with. Opaque to
/// callers; created per inference by the driver, or explicitly for the
/// single-pass benchmarking entry points ([`Driver::conv_pass`]).
pub struct SocHandle {
    pub(crate) ddr: DdrModel,
    pub(crate) dma: DmaController,
    /// Reused serialization buffer for staging FMs into DDR: grows to the
    /// largest FM of the network on the first image, then stops
    /// allocating (the DDR-staging analogue of the `Scratch` arena).
    staging: Vec<u8>,
}

impl SocHandle {
    /// Creates a fresh SoC context (1 GiB DDR, default timing).
    pub fn new() -> SocHandle {
        SocHandle::with_plan(None)
    }

    /// A SoC context with a fault plan attached to its DMA engine.
    pub fn with_faults(plan: SharedFaultPlan) -> SocHandle {
        SocHandle::with_plan(Some(plan))
    }

    pub(crate) fn with_plan(plan: Option<SharedFaultPlan>) -> SocHandle {
        // 1 GiB DDR4 region, default System I timing.
        let mut dma = DmaController::new();
        if let Some(plan) = plan {
            dma.set_fault_plan(plan);
        }
        SocHandle { ddr: DdrModel::new(DDR_BYTES), dma, staging: Vec::new() }
    }

    /// Total DDR traffic so far (reads + writes), in bytes.
    pub(crate) fn ddr_bytes(&self) -> u64 {
        self.ddr.bytes_read() + self.ddr.bytes_written()
    }

    /// DDR traffic so far as `(bytes_read, bytes_written)`.
    pub(crate) fn ddr_traffic(&self) -> (u64, u64) {
        (self.ddr.bytes_read(), self.ddr.bytes_written())
    }

    /// Credits the traffic of a replayed pass to the DDR byte counters
    /// (see [`DdrModel::credit_traffic`]).
    pub(crate) fn credit_ddr(&mut self, bytes_read: u64, bytes_written: u64) {
        self.ddr.credit_traffic(bytes_read, bytes_written);
    }

    /// Whether a fault plan is attached to the DMA engine.
    pub(crate) fn has_fault_plan(&self) -> bool {
        self.dma.has_fault_plan()
    }

    /// Serializes a tiled FM and writes it to DDR at `addr`, reusing the
    /// handle's staging buffer (allocation-free once warmed). The byte
    /// image and DDR traffic are identical to
    /// [`fm_to_bytes`] + `write_block`.
    fn stage_fm(&mut self, addr: usize, fm: &TiledFeatureMap<Sm8>) {
        self.staging.clear();
        self.staging.reserve(fm.tile_count() * TILE_BYTES);
        for t in fm.as_tiles() {
            for v in t.as_array() {
                self.staging.push(v.to_bits());
            }
        }
        self.ddr.write_block(addr, &self.staging);
    }
}

impl Default for SocHandle {
    fn default() -> Self {
        Self::new()
    }
}

/// Serializes a tiled FM into the DDR byte image (channel-major,
/// row-major tiles, 16 bytes per tile).
pub fn fm_to_bytes(fm: &TiledFeatureMap<Sm8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(fm.tile_count() * TILE_BYTES);
    for t in fm.as_tiles() {
        for v in t.as_array() {
            out.push(v.to_bits());
        }
    }
    out
}

/// Densifies a tiled FM into `out` at its logical extent, reusing the
/// allocation (the inverse of [`TiledFeatureMap::from_tensor`], which
/// re-zeroes the round-up region on the way back): the readback half of
/// the accelerator boundary in [`crate::exec::conv_pass`].
pub(crate) fn fm_to_tensor_into(fm: &TiledFeatureMap<Sm8>, out: &mut Tensor<Sm8>) {
    let s = fm.logical_shape();
    out.reset(s.c, s.h, s.w);
    let dense = out.as_mut_slice();
    // One `copy_from_slice` per tile row, clipped to the logical extent
    // on the right and bottom edges.
    for c in 0..s.c {
        for ty in 0..fm.tiles_y() {
            let y0 = ty * TILE_DIM;
            let rows = TILE_DIM.min(s.h - y0);
            for tx in 0..fm.tiles_x() {
                let x0 = tx * TILE_DIM;
                let n = TILE_DIM.min(s.w - x0);
                let tile = fm.tile(c, ty, tx).as_array();
                for iy in 0..rows {
                    let at = (c * s.h + y0 + iy) * s.w + x0;
                    dense[at..at + n].copy_from_slice(&tile[iy * TILE_DIM..iy * TILE_DIM + n]);
                }
            }
        }
    }
}

/// One conv layer's packed weights, staged once: the scratchpad byte
/// images of all its OFM groups concatenated in group order — what is
/// written to DDR as it stands — and the tile index over them (one
/// offset per `(group, ifm, lane)` tile, then the end). Packing a
/// VGG-scale layer is value-independent work; a [`WeightCache`] keyed by
/// the layer's content fingerprint makes it a first-image cost shared by
/// every driver in the process.
pub(crate) struct PackedLayerWeights {
    lanes: usize,
    ifm_count: usize,
    image: Vec<u8>,
    index: Vec<u32>,
}

impl PackedLayerWeights {
    fn build(qw: &QuantConvWeights, lanes: usize, zero_skipping: bool) -> PackedLayerWeights {
        let (image, index) = pack_groups(qw, 0, qw.out_c.div_ceil(lanes), lanes, zero_skipping);
        PackedLayerWeights { lanes, ifm_count: qw.in_c, image, index }
    }

    /// Number of OFM groups.
    fn groups(&self) -> usize {
        (self.index.len() - 1) / (self.ifm_count * self.lanes)
    }

    /// Group `gi`'s weights, borrowed, and where they start in the image.
    fn group(&self, gi: usize) -> (usize, GroupWeights<'_>) {
        let tiles = self.ifm_count * self.lanes;
        let index = &self.index[gi * tiles..=(gi + 1) * tiles];
        let start = index[0] as usize;
        (start, GroupWeights::from_index(&self.image[start..], index, self.ifm_count, self.lanes))
    }

    fn heap_bytes(&self) -> usize {
        self.image.capacity() + self.index.capacity() * std::mem::size_of::<u32>()
    }
}

/// The process-wide packed-group-weight cache. Keyed by the layer's
/// content fingerprint combined with the packing parameters (lanes,
/// zero-skipping), so two accelerator configurations never alias.
fn group_cache() -> &'static WeightCache<PackedLayerWeights> {
    static CACHE: OnceLock<WeightCache<PackedLayerWeights>> = OnceLock::new();
    CACHE.get_or_init(WeightCache::new)
}

/// Statistics of the process-wide packed-group-weight cache (entries,
/// hits, misses, resident bytes) — surfaced by `zskip analyze`.
pub fn weight_cache_stats() -> CacheStats {
    group_cache().stats()
}

/// Resolves (building on first use) the packed group weights for a conv
/// layer under the driver's packing parameters.
fn packed_groups(driver: &Driver, qw: &QuantConvWeights) -> Arc<PackedLayerWeights> {
    let lanes = driver.config.lanes;
    let key = Fingerprint::new()
        .u64(qw.fingerprint())
        .u64(lanes as u64)
        .u64(driver.zero_skipping as u64)
        .finish();
    group_cache().get_or_insert_with(
        key,
        || PackedLayerWeights::build(qw, lanes, driver.zero_skipping),
        PackedLayerWeights::heap_bytes,
    )
}

/// Which instruction executor a staged pass issues its batches to.
///
/// This is the *only* point where backends diverge inside the pipeline;
/// everything else (staging, striping, DMA) is shared.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Exec {
    /// Transaction-level model: closed-form cycles. With
    /// `functional: false` the arithmetic is skipped — cycle counts and
    /// counters are value-independent, so they are unchanged.
    Model {
        /// Run the functional arithmetic alongside the cycle model.
        functional: bool,
    },
    /// Cycle-exact simulation of all kernels.
    Cycle,
}

impl Exec {
    /// Executes an instruction batch on `banks` (the resident IFM stripe
    /// in, the OFM beside it out), returning its cycles.
    ///
    /// `groups` carries the weights of each conv instruction, in stream
    /// order. The model reads them in place. The cycle backend simulates
    /// the batch one instruction per engine run on `pool`'s participants
    /// ([`cycle::run_items`]; bit-identical at any width), each run's
    /// scratchpad its own group's byte stream at `wgt_base` 0, which its
    /// data-staging kernels consume like the hardware. Under a fault plan
    /// the batch stays one run — `fifo:` triggers are cycles of it — over
    /// the groups' streams back to back, where the batch's `wgt_base`
    /// fields point.
    fn run(
        &self,
        driver: &Driver,
        pool: Option<&ConvPool>,
        banks: &mut BankSet,
        instrs: &[Instruction],
        groups: &[GroupWeights<'_>],
        counters: &mut Counters,
    ) -> Result<u64, DriverError> {
        match self {
            Exec::Model { functional } => {
                Ok(model::run(&driver.config, banks, instrs, groups, counters, *functional).cycles)
            }
            Exec::Cycle => {
                let opts = cycle::RunOptions { fault_plan: driver.fault_plan().cloned(), ..Default::default() };
                let items = if opts.fault_plan.is_some() {
                    let scratchpad = groups.iter().map(GroupWeights::as_bytes).collect::<Vec<_>>().concat();
                    vec![cycle::WorkItem { instrs: instrs.to_vec(), scratchpad: scratchpad.into() }]
                } else {
                    let mut groups = groups.iter();
                    instrs
                        .iter()
                        .map(|instr| match *instr {
                            Instruction::Conv(conv) => cycle::WorkItem {
                                instrs: vec![Instruction::Conv(ConvInstr { wgt_base: 0, ..conv })],
                                scratchpad: groups.next().expect("one group per conv instruction").as_bytes().into(),
                            },
                            poolpad => cycle::WorkItem { instrs: vec![poolpad], scratchpad: Default::default() },
                        })
                        .collect()
                };
                let outcome =
                    cycle::run_items(&driver.config, banks, &items, pool, &opts).map_err(DriverError::Sim)?;
                counters.merge(&outcome.counters);
                Ok(outcome.cycles)
            }
        }
    }
}

/// Runs one staged convolution pass (input already padded; stride 1).
/// `ctx.src_addr`/`ctx.dst_addr` are the DDR regions the input is staged
/// in and the output is written back to — the plan slots' regions during
/// a network run ([`slot_addr`]).
pub(crate) fn conv_pass(
    ctx: &mut PassCtx<'_>,
    exec: Exec,
    name: &str,
    input: &TiledFeatureMap<Sm8>,
    qw: &QuantConvWeights,
    out_shape: Shape,
) -> Result<(TiledFeatureMap<Sm8>, PassStats), DriverError> {
    let (driver, pool, src_addr, dst_addr) = (ctx.driver, ctx.kernel.pool, ctx.src_addr, ctx.dst_addr);
    let soc = &mut *ctx.soc;
    // Optional future-work filter grouping: reorder output channels by
    // non-zero count so lockstep lanes balance; un-permuted on output.
    let grouping = if driver.filter_grouping {
        let nnz: Vec<usize> = (0..qw.out_c).map(|o| qw.output_filter_nnz(o)).collect();
        Some(FilterGrouping::by_nnz(&nnz, driver.config.lanes))
    } else {
        None
    };
    let permuted;
    let qw = if let Some(g) = &grouping {
        permuted = permute_filters(qw, &g.order);
        &permuted
    } else {
        qw
    };

    let in_rows = input.tiles_y();
    let out = TiledFeatureMap::<Sm8>::zeros(out_shape);
    let out_rows = out.tiles_y();
    let words_in = input.channels().div_ceil(4) * input.tiles_x();
    let words_out = out_shape.c.div_ceil(4) * out.tiles_x();
    let stripes =
        super::stripes::plan_stripes(name, None, out_rows, in_rows, words_in, words_out, driver.config.bank_tiles)?;

    // The DDR weight window bounds the layer's packed image (at most 33
    // bytes a tile), which also keeps it inside the 32-bit scratchpad
    // address space.
    let tiles = qw.out_c.next_multiple_of(driver.config.lanes) * qw.in_c;
    if tiles.saturating_mul(33) > DDR_BYTES - DDR_WEIGHTS {
        let reason = "its packed weights may exceed the DDR weight window".to_string();
        return Err(DriverError::Unsupported { layer: name.to_string(), reason });
    }

    // Stage activations and packed weights in DDR. Under a filter
    // grouping the permuted layer is image-local, so it bypasses the
    // shared cache (its fingerprint would be recomputed per image anyway).
    soc.stage_fm(src_addr, input);
    let packed = if grouping.is_some() {
        Arc::new(PackedLayerWeights::build(qw, driver.config.lanes, driver.zero_skipping))
    } else {
        packed_groups(driver, qw)
    };
    soc.ddr.write_block(DDR_WEIGHTS, &packed.image);

    let mut stats = PassStats {
        per_instance_cycles: vec![0; driver.config.instances],
        stripes: stripes.len(),
        striping_factor: stripes.iter().map(|s| s.in_hi - s.in_lo).sum::<usize>() as f64
            / in_rows.max(1) as f64,
        ..Default::default()
    };
    let mut out_fm = out;

    // Work distribution across instances: multi-stripe layers give each
    // instance separate stripes (the paper's "each instance operates
    // concurrently on separate stripes of FMs"); single-stripe layers
    // (deep, small-FM) instead replicate the IFM stripe into both
    // instances' banks and split the OFM groups between them.
    let split_groups = stripes.len() < driver.config.instances && driver.config.instances > 1;

    for (si, stripe) in stripes.iter().enumerate() {
        let in_layout = FmLayout {
            base: 0,
            channels: input.channels(),
            tiles_x: input.tiles_x(),
            tile_rows: stripe.in_hi - stripe.in_lo,
        };
        let out_layout = FmLayout {
            base: in_layout.end(),
            channels: out_shape.c,
            tiles_x: out_fm.tiles_x(),
            tile_rows: stripe.out_b - stripe.out_a,
        };

        let parts = if split_groups { driver.config.instances } else { 1 };
        let chunk = packed.groups().div_ceil(parts);
        for part in 0..parts {
            let instance = if split_groups { part } else { si % driver.config.instances };
            let group_range = (part * chunk)..((part + 1) * chunk).min(packed.groups());
            if group_range.is_empty() {
                continue;
            }
            let mut banks = BankSet::new(&driver.config);

            // DMA in: one descriptor per channel (replicated per part
            // when groups are split — both instances need the IFMs).
            stats.io_dma_cycles +=
                dma_fm_stripe(soc, src_addr, input, stripe.in_lo..stripe.in_hi, &in_layout, &mut banks, true)?;

            // Per-group: weight preload + conv instruction; `wgt_base`
            // counts the bytes preloaded before it.
            let mut groups = Vec::with_capacity(group_range.len());
            let mut wgt_base = 0;
            let mut instrs = Vec::with_capacity(group_range.len());
            for gi in group_range {
                let (start, group) = packed.group(gi);
                let (_, wcycles) = soc.ddr.read_block(DDR_WEIGHTS + start, group.total_bytes());
                stats.weight_dma_cycles += wcycles;
                let instr = ConvInstr::for_group(
                    qw,
                    gi * driver.config.lanes,
                    driver.config.lanes,
                    &in_layout,
                    stripe.out_a - stripe.in_lo,
                    &out_layout,
                    wgt_base,
                );
                instrs.push(Instruction::Conv(instr.map_err(|e| DriverError::field_overflow(name, e))?));
                wgt_base += group.total_bytes();
                groups.push(group);
            }

            stats.per_instance_cycles[instance] +=
                exec.run(driver, pool, &mut banks, &instrs, &groups, &mut stats.counters)?;

            // DMA out this part's OFM channels.
            out_layout.load_channels(
                &banks,
                &mut out_fm,
                stripe.out_a..stripe.out_b,
                (part * chunk * driver.config.lanes)
                    ..(((part + 1) * chunk * driver.config.lanes).min(out_shape.c)),
            );
            stats.io_dma_cycles +=
                dma_fm_stripe(soc, dst_addr, &out_fm, stripe.out_a..stripe.out_b, &out_layout, &mut banks, false)?;
        }
    }

    stats.finish();
    // Tile-aligned compute fills whole tiles; cells beyond the logical
    // extent are don't-cares that downstream boundary windows must
    // read as zero.
    out_fm.zero_round_up_region();
    // Undo the grouping permutation so downstream layers see model
    // channel order (host-side relabeling; free at DMA time).
    if let Some(g) = &grouping {
        out_fm = unpermute_channels(&out_fm, &g.order);
    }
    Ok((out_fm, stats))
}

/// Runs one staged pad or pool pass (DDR regions as in [`conv_pass`]).
pub(crate) fn poolpad_pass(
    ctx: &mut PassCtx<'_>,
    exec: Exec,
    name: &str,
    input: &TiledFeatureMap<Sm8>,
    op: PoolPadOp,
    out_shape: Shape,
) -> Result<(TiledFeatureMap<Sm8>, PassStats), DriverError> {
    let (driver, pool, src_addr, dst_addr) = (ctx.driver, ctx.kernel.pool, ctx.src_addr, ctx.dst_addr);
    let soc = &mut *ctx.soc;
    let in_rows = input.tiles_y();
    let mut out_fm = TiledFeatureMap::<Sm8>::zeros(out_shape);
    let out_rows = out_fm.tiles_y();
    let channels = input.channels();
    let words_in = channels.div_ceil(4) * input.tiles_x();
    let words_out = channels.div_ceil(4) * out_fm.tiles_x();
    let stripes = super::stripes::plan_stripes(
        name,
        Some(op),
        out_rows,
        in_rows,
        words_in,
        words_out,
        driver.config.bank_tiles,
    )?;

    soc.stage_fm(src_addr, input);

    let mut stats = PassStats {
        per_instance_cycles: vec![0; driver.config.instances],
        stripes: stripes.len(),
        striping_factor: stripes.iter().map(|s| s.in_hi - s.in_lo).sum::<usize>() as f64
            / in_rows.max(1) as f64,
        ..Default::default()
    };

    for (si, stripe) in stripes.iter().enumerate() {
        let instance = si % driver.config.instances;
        let mut banks = BankSet::new(&driver.config);
        let in_layout = FmLayout {
            base: 0,
            channels,
            tiles_x: input.tiles_x(),
            tile_rows: stripe.in_hi - stripe.in_lo,
        };
        let out_layout = FmLayout {
            base: in_layout.end(),
            channels,
            tiles_x: out_fm.tiles_x(),
            tile_rows: stripe.out_b - stripe.out_a,
        };
        stats.io_dma_cycles +=
            dma_fm_stripe(soc, src_addr, input, stripe.in_lo..stripe.in_hi, &in_layout, &mut banks, true)?;

        let instr = PoolPadInstr::for_stripe(op, &in_layout, stripe.in_lo, &out_layout, stripe.out_a)
            .map_err(|e| DriverError::field_overflow(name, e))?;
        stats.per_instance_cycles[instance] +=
            exec.run(driver, pool, &mut banks, &[Instruction::PoolPad(instr)], &[], &mut stats.counters)?;
        out_layout.load(&banks, &mut out_fm, stripe.out_a..stripe.out_b);
        stats.io_dma_cycles +=
            dma_fm_stripe(soc, dst_addr, &out_fm, stripe.out_a..stripe.out_b, &out_layout, &mut banks, false)?;
    }
    stats.finish();
    out_fm.zero_round_up_region();
    Ok((out_fm, stats))
}

/// Moves one FM stripe between DDR and banks via the DMA engine,
/// returning the cycle cost. `to_banks` selects the direction.
///
/// # Errors
/// [`DriverError::Dma`]: with a well-planned stripe this only happens
/// under injected faults (truncation, parity).
fn dma_fm_stripe(
    soc: &mut SocHandle,
    ddr_base: usize,
    fm: &TiledFeatureMap<Sm8>,
    rows: std::ops::Range<usize>,
    layout: &FmLayout,
    banks: &mut BankSet,
    to_banks: bool,
) -> Result<u64, DriverError> {
    use zskip_soc::dma::{DmaDescriptor, DmaDirection};
    let mut cycles = 0;
    let tiles_per_row = fm.tiles_x();
    let rows_per_channel = fm.tiles_y();
    for c in 0..fm.channels() {
        let ddr_addr = ddr_base + (c * rows_per_channel + rows.start) * tiles_per_row * TILE_BYTES;
        let desc = DmaDescriptor {
            direction: if to_banks { DmaDirection::DdrToBank } else { DmaDirection::BankToDdr },
            ddr_addr,
            bank: FmLayout::bank_of(c),
            bank_tile_index: layout.addr(c, 0, 0),
            tiles: rows.len() * tiles_per_row,
        };
        cycles += soc.dma.run(&desc, &mut soc.ddr, banks).map_err(DriverError::Dma)?;
    }
    Ok(cycles)
}

/// Reorders a layer's output filters (weights + bias) by `order`.
fn permute_filters(qw: &QuantConvWeights, order: &[usize]) -> QuantConvWeights {
    let kk = qw.k * qw.k;
    let per_filter = qw.in_c * kk;
    let mut w = Vec::with_capacity(qw.w.len());
    let mut bias = Vec::with_capacity(qw.bias_acc.len());
    for &o in order {
        w.extend_from_slice(&qw.w[o * per_filter..(o + 1) * per_filter]);
        bias.push(qw.bias_acc[o]);
    }
    QuantConvWeights::new(qw.out_c, qw.in_c, qw.k, w, bias, qw.requant, qw.relu)
}

/// Un-permutes channels of an FM produced under a filter grouping.
fn unpermute_channels(fm: &TiledFeatureMap<Sm8>, order: &[usize]) -> TiledFeatureMap<Sm8> {
    let mut out = TiledFeatureMap::zeros(fm.logical_shape());
    for (pos, &orig) in order.iter().enumerate() {
        for ty in 0..fm.tiles_y() {
            for tx in 0..fm.tiles_x() {
                *out.tile_mut(orig, ty, tx) = *fm.tile(pos, ty, tx);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(c: usize, h: usize, w: usize) -> Tensor<Sm8> {
        Tensor::from_fn(c, h, w, |c, y, x| Sm8::from_i32_saturating((c * 17 + y * 5 + x) as i32 - 30))
    }

    #[test]
    fn fm_round_trip_preserves_logical_extent() {
        let t = ramp(3, 7, 5);
        let fm = TiledFeatureMap::from_tensor(&t);
        let mut back = Tensor::zeros(1, 1, 1);
        fm_to_tensor_into(&fm, &mut back);
        assert_eq!(back, t);
    }

    #[test]
    fn fm_round_trip_at_every_edge_remainder() {
        // Width and height remainders 0..=3 against the 4-wide tile, on a
        // dirty destination (a warmed arena holds the previous layer).
        let mut back = ramp(2, 9, 9);
        for (h, w) in [(1, 1), (4, 8), (5, 6), (6, 5), (7, 11), (10, 3), (13, 9)] {
            let t = ramp(3, h, w);
            fm_to_tensor_into(&TiledFeatureMap::from_tensor(&t), &mut back);
            assert_eq!(back, t, "{h}x{w}");
        }
    }
}
