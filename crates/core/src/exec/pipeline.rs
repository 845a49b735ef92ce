//! The staged per-layer pipeline shared by every backend (the driver's
//! network walks and its single-layer entry points route each pass into
//! it).
//!
//! One accelerator pass always runs the same stages, whatever executes
//! the arithmetic:
//!
//! 1. **stage** — account the writes of the tiled input FM and the packed
//!    group weights into the DDR model;
//! 2. **stripe** — for each planned stripe: DMA the IFM rows into banks,
//!    preload the scratchpad weights, issue the instruction batch to the
//!    instruction executor, then DMA the OFM rows back out;
//! 3. **collect** — merge per-instance cycles, DMA cycles and activity
//!    counters into a [`PassStats`].
//!
//! Because stripe plans, DMA descriptor sequences and instruction
//! streams are value-independent, two executors running this pipeline on
//! the same layer observe identical DDR traffic, identical injected DMA
//! faults and (for the closed-form executor) identical cycle counts —
//! the invariant `tests/backend_equivalence.rs` locks down. Only the
//! cycle engine moves bytes (`Exec`): the transaction model issues the
//! same descriptors by shape alone, with no bank and no output map.

use crate::bank::BankSet;
use crate::config::AccelConfig;
use crate::cycle;
use crate::driver::{Driver, DriverError};
use crate::exec::PassCtx;
use crate::isa::{ConvInstr, Instruction, PoolPadInstr, PoolPadOp};
use crate::layout::FmLayout;
use crate::model;
use crate::report::PassStats;
use crate::weights::{packed_layer, GroupWeights};
use zskip_fault::SharedFaultPlan;
use zskip_nn::conv::QuantConvWeights;
use zskip_nn::par::ConvPool;
use zskip_quant::grouping::FilterGrouping;
use zskip_quant::Sm8;
use zskip_sim::Counters;
use zskip_soc::ddr::DdrModel;
use zskip_soc::dma::DmaDirection::{self, BankToDdr, DdrToBank};
use zskip_soc::dma::{BankGeometry, DataPlane, DmaController, DmaDescriptor, TILE_BYTES};
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

/// Mutable SoC context threaded through a network run: the DDR traffic
/// and timing model and the DMA engine the staged pipeline issues its
/// descriptors to. Opaque to callers; created per inference by the
/// driver, or explicitly for the single-pass benchmarking entry points
/// ([`Driver::conv_pass`]).
pub struct SocHandle {
    pub(crate) ddr: DdrModel,
    pub(crate) dma: DmaController,
}

impl SocHandle {
    /// Creates a fresh SoC context (1 GiB DDR, default timing).
    pub fn new() -> SocHandle {
        SocHandle::with_plan(None)
    }

    pub(crate) fn with_plan(plan: Option<SharedFaultPlan>) -> SocHandle {
        // 1 GiB DDR4 region, default System I timing.
        let mut dma = DmaController::new();
        if let Some(plan) = plan {
            dma.set_fault_plan(plan);
        }
        SocHandle { ddr: DdrModel::new(DDR_BYTES), dma }
    }

    /// Total DDR traffic so far (reads + writes), in bytes.
    pub(crate) fn ddr_bytes(&self) -> u64 {
        self.ddr.bytes_read() + self.ddr.bytes_written()
    }
}

impl Default for SocHandle {
    fn default() -> Self {
        Self::new()
    }
}

/// Densifies a tiled FM into `out` at its logical extent, reusing the
/// allocation (the inverse of [`TiledFeatureMap::from_tensor`], which
/// re-zeroes the round-up region on the way back): the readback half of
/// the accelerator boundary in `exec::staged`.
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

/// Which instruction executor a staged pass issues its batches to, with
/// the input feature map it reads.
///
/// This is the *only* point where backends diverge inside the pipeline;
/// everything else (striping, DDR accounting, DMA descriptors, weight
/// preloads) is shared.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Exec<'a> {
    /// Transaction-level model, on the input's shape alone: every DMA
    /// descriptor is validated and counted, every instruction batch
    /// costed in closed form; no byte moves, no bank is built and the
    /// pass has no output map.
    Model(Shape),
    /// Cycle-exact simulation of all kernels: the input's tiles are DMAed
    /// into banks, the engine runs on them and the host reads the OFM
    /// back out of the banks.
    Cycle(&'a TiledFeatureMap<Sm8>),
}

impl<'a> Exec<'a> {
    fn shape(&self) -> Shape {
        match self {
            Exec::Model(shape) => *shape,
            Exec::Cycle(map) => map.logical_shape(),
        }
    }

    /// The input map the DMA moves (`None` on the model).
    fn input(&self) -> Option<&'a TiledFeatureMap<Sm8>> {
        match self {
            Exec::Model(_) => None,
            Exec::Cycle(map) => Some(map),
        }
    }
}

/// Executes an instruction batch, returning its cycles: on the cycle
/// engine over `banks` (the resident IFM stripe in, the OFM beside it
/// out), on the transaction model — `banks` is `None` — in closed form.
///
/// `groups` carries the weights of each conv instruction, in stream
/// order. The model costs them in place. The cycle backend simulates
/// the batch one instruction per engine run on `pool`'s participants
/// ([`cycle::run_items`]; bit-identical at any width), each run's
/// scratchpad its own group's byte stream at `wgt_base` 0, which its
/// data-staging kernels consume like the hardware. Under a fault plan
/// the batch stays one run — `fifo:` triggers are cycles of it — over
/// the groups' streams back to back, where the batch's `wgt_base`
/// fields point.
fn execute(
    driver: &Driver,
    pool: Option<&ConvPool>,
    banks: Option<&mut BankSet>,
    instrs: &[Instruction],
    groups: &[GroupWeights<'_>],
    counters: &mut Counters,
) -> Result<u64, DriverError> {
    let Some(banks) = banks else {
        return Ok(model::run(&driver.config, instrs, groups, counters));
    };
    let opts = cycle::RunOptions { fault_plan: driver.fault_plan.clone(), ..Default::default() };
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
    let outcome = cycle::run_items(&driver.config, banks, &items, pool, &opts).map_err(DriverError::Sim)?;
    counters.merge(&outcome.counters);
    Ok(outcome.cycles)
}

/// A staged pass's result: the output map (the cycle engine's; `None` on
/// the transaction model) and its statistics.
pub(crate) type PassResult = Result<(Option<TiledFeatureMap<Sm8>>, PassStats), DriverError>;

/// Runs one staged convolution layer (stride 1), tiled in and tiled out.
/// `ctx.src_addr`/`ctx.dst_addr` are the DDR regions the input is staged
/// in and the output is written back to — the plan slots' regions during
/// a network run ([`slot_addr`]).
///
/// A padded layer is the hardware's two instructions back to back: the
/// pad pass writes the padded map to [`DDR_FM_PAD`] and the conv pass
/// reads it from there, tiled to tiled — the host never sees the padded
/// intermediate. Their statistics merge pad first.
pub(crate) fn conv_pass(
    ctx: &mut PassCtx<'_>,
    exec: Exec<'_>,
    name: &str,
    qw: &QuantConvWeights,
    pad: u8,
    out_shape: Shape,
) -> PassResult {
    if pad == 0 {
        return conv_stripes(ctx, exec, name, qw, out_shape);
    }
    let (s, p) = (exec.shape(), usize::from(pad));
    let dst_addr = std::mem::replace(&mut ctx.dst_addr, DDR_FM_PAD);
    let padded_shape = Shape::new(s.c, s.h + 2 * p, s.w + 2 * p);
    let op = PoolPadOp::Pad { amount: pad };
    let (padded, mut stats) = poolpad_pass(ctx, exec, &format!("{name}/pad"), op, padded_shape)?;
    (ctx.src_addr, ctx.dst_addr) = (DDR_FM_PAD, dst_addr);
    let exec = padded.as_ref().map_or(Exec::Model(padded_shape), Exec::Cycle);
    let (out, conv) = conv_stripes(ctx, exec, name, qw, out_shape)?;
    stats.merge(&conv);
    Ok((out, stats))
}

/// Tile rows and tile columns of a map of `shape`.
fn tile_grid(shape: Shape) -> (usize, usize) {
    (shape.h.div_ceil(TILE_DIM), shape.w.div_ceil(TILE_DIM))
}

/// One staged convolution pass over an already padded input.
fn conv_stripes(
    ctx: &mut PassCtx<'_>,
    exec: Exec<'_>,
    name: &str,
    qw: &QuantConvWeights,
    out_shape: Shape,
) -> PassResult {
    let (driver, pool) = (ctx.driver, ctx.pool);
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

    let in_shape = exec.shape();
    let ((in_rows, in_tiles_x), (out_rows, out_tiles_x)) = (tile_grid(in_shape), tile_grid(out_shape));
    let words_in = in_shape.c.div_ceil(4) * in_tiles_x;
    let words_out = out_shape.c.div_ceil(4) * out_tiles_x;
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

    // Stage activations and packed weights in DDR: the host's writes, as
    // traffic. The layer's weights hold its packed image (a permuted
    // layer's is image-local, packed afresh).
    ctx.soc.ddr.write_block(ctx.src_addr, in_shape.c * in_rows * in_tiles_x * TILE_BYTES);
    let packed = packed_layer(qw, driver.config.lanes, driver.zero_skipping);
    let group_count = qw.out_c.div_ceil(driver.config.lanes);
    ctx.soc.ddr.write_block(DDR_WEIGHTS, packed.image.len());

    let mut stats = PassStats {
        per_instance_cycles: vec![0; driver.config.instances],
        stripes: stripes.len(),
        striping_factor: stripes.iter().map(|s| s.in_hi - s.in_lo).sum::<usize>() as f64
            / in_rows.max(1) as f64,
        ..Default::default()
    };
    // The cycle engine's output map and, per stripe part, its banks.
    let mut out_fm = exec.input().map(|_| TiledFeatureMap::zeros(out_shape));

    // Work distribution across instances: multi-stripe layers give each
    // instance separate stripes (the paper's "each instance operates
    // concurrently on separate stripes of FMs"); single-stripe layers
    // (deep, small-FM) instead replicate the IFM stripe into both
    // instances' banks and split the OFM groups between them.
    let split_groups = stripes.len() < driver.config.instances && driver.config.instances > 1;

    for (si, stripe) in stripes.iter().enumerate() {
        let in_layout = FmLayout {
            base: 0,
            channels: in_shape.c,
            tiles_x: in_tiles_x,
            tile_rows: stripe.in_hi - stripe.in_lo,
        };
        let out_layout = FmLayout {
            base: in_layout.end(),
            channels: out_shape.c,
            tiles_x: out_tiles_x,
            tile_rows: stripe.out_b - stripe.out_a,
        };

        let parts = if split_groups { driver.config.instances } else { 1 };
        let chunk = group_count.div_ceil(parts);
        for part in 0..parts {
            let instance = if split_groups { part } else { si % driver.config.instances };
            let group_range = (part * chunk)..((part + 1) * chunk).min(group_count);
            if group_range.is_empty() {
                continue;
            }
            let mut banks = exec.input().map(|_| BankSet::new(&driver.config));

            // DMA in: one descriptor per channel (replicated per part
            // when groups are split — both instances need the IFMs).
            let data = exec.input().zip(banks.as_mut());
            stats.io_dma_cycles +=
                dma_fm_stripe(ctx, DdrToBank, in_shape, stripe.in_lo..stripe.in_hi, &in_layout, data)?;

            // Per-group: weight preload + conv instruction; `wgt_base`
            // counts the bytes preloaded before it.
            let mut groups = Vec::with_capacity(group_range.len());
            let mut wgt_base = 0;
            let mut instrs = Vec::with_capacity(group_range.len());
            for gi in group_range {
                let (start, group) = GroupWeights::from_packed(&packed, qw.in_c, gi);
                stats.weight_dma_cycles += ctx.soc.ddr.read_block(DDR_WEIGHTS + start, group.total_bytes());
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
                execute(driver, pool, banks.as_mut(), &instrs, &groups, &mut stats.counters)?;

            // DMA out this part's OFM channels: the host reads them out
            // of the banks, the descriptors carry the traffic.
            if let (Some(banks), Some(out)) = (&banks, &mut out_fm) {
                out_layout.load_channels(
                    banks,
                    out,
                    stripe.out_a..stripe.out_b,
                    (part * chunk * driver.config.lanes)
                        ..(((part + 1) * chunk * driver.config.lanes).min(out_shape.c)),
                );
            }
            stats.io_dma_cycles +=
                dma_fm_stripe(ctx, BankToDdr, out_shape, stripe.out_a..stripe.out_b, &out_layout, None)?;
        }
    }

    stats.finish();
    let out_fm = out_fm.map(|mut out| {
        // Tile-aligned compute fills whole tiles; cells beyond the logical
        // extent are don't-cares that downstream boundary windows must
        // read as zero.
        out.zero_round_up_region();
        // Undo the grouping permutation so downstream layers see model
        // channel order (host-side relabeling; free at DMA time).
        match &grouping {
            Some(g) => unpermute_channels(&out, &g.order),
            None => out,
        }
    });
    Ok((out_fm, stats))
}

/// Runs one staged pad or pool pass (DDR regions as in [`conv_pass`]).
pub(crate) fn poolpad_pass(
    ctx: &mut PassCtx<'_>,
    exec: Exec<'_>,
    name: &str,
    op: PoolPadOp,
    out_shape: Shape,
) -> PassResult {
    let (driver, pool) = (ctx.driver, ctx.pool);
    let in_shape = exec.shape();
    let ((in_rows, in_tiles_x), (out_rows, out_tiles_x)) = (tile_grid(in_shape), tile_grid(out_shape));
    let channels = in_shape.c;
    let words_in = channels.div_ceil(4) * in_tiles_x;
    let words_out = channels.div_ceil(4) * out_tiles_x;
    let stripes = super::stripes::plan_stripes(
        name,
        Some(op),
        out_rows,
        in_rows,
        words_in,
        words_out,
        driver.config.bank_tiles,
    )?;

    // The host's write of the tiled input, as traffic.
    ctx.soc.ddr.write_block(ctx.src_addr, channels * in_rows * in_tiles_x * TILE_BYTES);

    let mut stats = PassStats {
        per_instance_cycles: vec![0; driver.config.instances],
        stripes: stripes.len(),
        striping_factor: stripes.iter().map(|s| s.in_hi - s.in_lo).sum::<usize>() as f64
            / in_rows.max(1) as f64,
        ..Default::default()
    };
    let mut out_fm = exec.input().map(|_| TiledFeatureMap::zeros(out_shape));

    for (si, stripe) in stripes.iter().enumerate() {
        let instance = si % driver.config.instances;
        let mut banks = exec.input().map(|_| BankSet::new(&driver.config));
        let in_layout = FmLayout { base: 0, channels, tiles_x: in_tiles_x, tile_rows: stripe.in_hi - stripe.in_lo };
        let out_layout = FmLayout {
            base: in_layout.end(),
            channels,
            tiles_x: out_tiles_x,
            tile_rows: stripe.out_b - stripe.out_a,
        };
        let data = exec.input().zip(banks.as_mut());
        stats.io_dma_cycles +=
            dma_fm_stripe(ctx, DdrToBank, in_shape, stripe.in_lo..stripe.in_hi, &in_layout, data)?;

        let instr = PoolPadInstr::for_stripe(op, &in_layout, stripe.in_lo, &out_layout, stripe.out_a)
            .map_err(|e| DriverError::field_overflow(name, e))?;
        stats.per_instance_cycles[instance] +=
            execute(driver, pool, banks.as_mut(), &[Instruction::PoolPad(instr)], &[], &mut stats.counters)?;
        if let (Some(banks), Some(out)) = (&banks, &mut out_fm) {
            out_layout.load(banks, out, stripe.out_a..stripe.out_b);
        }
        stats.io_dma_cycles +=
            dma_fm_stripe(ctx, BankToDdr, out_shape, stripe.out_a..stripe.out_b, &out_layout, None)?;
    }
    stats.finish();
    if let Some(out) = &mut out_fm {
        out.zero_round_up_region();
    }
    Ok((out_fm, stats))
}

/// Moves tile rows `rows` of a FM of `shape` between the pass's DDR
/// region for `direction` and `layout` in the banks, one descriptor per
/// channel, returning the cycle cost. DDR→bank descriptors move the
/// tiles of `data` (the cycle engine's input map and banks) when it is
/// given; the rest is traffic alone — the host reads an OFM out of the
/// banks itself.
///
/// # Errors
/// [`DriverError::Dma`]: with a well-planned stripe this only happens
/// under injected faults (truncation, parity).
fn dma_fm_stripe(
    ctx: &mut PassCtx<'_>,
    direction: DmaDirection,
    shape: Shape,
    rows: std::ops::Range<usize>,
    layout: &FmLayout,
    data: Option<(&TiledFeatureMap<Sm8>, &mut BankSet)>,
) -> Result<u64, DriverError> {
    let ddr_base = match direction {
        DdrToBank => ctx.src_addr,
        BankToDdr => ctx.dst_addr,
    };
    let (fm, banks) = data.unzip();
    let tile = |i: usize| fm.expect("a data plane has its map").as_tiles()[i].as_array().map(Sm8::to_bits);
    let mut plane = banks.map(|banks| DataPlane { base: ddr_base, tile: &tile, banks });
    let geometry = BankGeometry { banks: AccelConfig::BANKS, capacity: ctx.driver.config.bank_tiles };
    let (rows_per_channel, tiles_per_row) = tile_grid(shape);
    let soc = &mut *ctx.soc;
    let mut cycles = 0;
    for c in 0..shape.c {
        let desc = DmaDescriptor {
            direction,
            ddr_addr: ddr_base + (c * rows_per_channel + rows.start) * tiles_per_row * TILE_BYTES,
            bank: FmLayout::bank_of(c),
            bank_tile_index: layout.addr(c, 0, 0),
            tiles: rows.len() * tiles_per_row,
        };
        cycles += soc.dma.run(&desc, &mut soc.ddr, geometry, plane.as_mut()).map_err(DriverError::Dma)?;
    }
    Ok(cycles)
}

/// Reorders a layer's output filters (weights + bias) by `order`.
fn permute_filters(qw: &QuantConvWeights, order: &[usize]) -> QuantConvWeights {
    let kk = qw.k * qw.k;
    let per_filter = qw.in_c * kk;
    let mut w = Vec::with_capacity(qw.w().len());
    let mut bias = Vec::with_capacity(qw.bias_acc().len());
    for &o in order {
        w.extend_from_slice(&qw.w()[o * per_filter..(o + 1) * per_filter]);
        bias.push(qw.bias_acc()[o]);
    }
    QuantConvWeights::new(qw.out_c, qw.in_c, qw.k, w, bias, qw.requant(), qw.relu())
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
