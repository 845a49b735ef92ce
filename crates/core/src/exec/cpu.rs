//! [`BackendKind::Cpu`]: host SIMD kernels with modelled cycles.
//!
//! The fastest functional path: layer arithmetic runs through the
//! `zskip-nn` `_into` kernels — on every tier the same ones the software
//! golden model runs (tier-dispatched, allocation-free on a warmed
//! [`Scratch`] arena) — from one dense plan slot straight into another,
//! while cycle counts, activity counters
//! and DDR traffic come from running the shared staged pipeline with
//! the closed-form model's arithmetic switched off — which is exact,
//! because those statistics are value-independent.
//!
//! For the same reason the stats pass is paid **once per (pass, config)**,
//! not once per image: zero-skipping depends on weights, never on
//! activations, so everything the pass reports is a pure function of the
//! layer's weights, its geometry and the accelerator configuration. The
//! first plan-free execution of a pass records its [`PassStats`] and DDR
//! byte delta in a process-wide memo ([`stats_memo_stats`]); every later
//! image replays the record, credits the bytes to the [`SocHandle`]'s
//! counters and goes straight to the kernel. The steady state is kernels
//! only: the input is tiled just for a pass that is really issued.
//!
//! The memo is bypassed — the real pass runs for every image — whenever
//! a fault plan is attached (the DMA descriptor sequence is where
//! `dma:*` injections fire, so it must actually be issued). Only `Ok`
//! results of plan-free runs are recorded.
//!
//! Since the golden model and this backend share their kernels, comparing
//! the two checks the driver around them — pad passes, slots, plan, stats
//! replay — not the arithmetic. That is held independently: every tier of
//! the conv kernel equals the scalar dense scan `conv2d_quant_dense`
//! (cross-tier property suite, `tests/kernel_tiers.rs`), and the golden
//! model and the Model backend's functional path equal a plan-free
//! interpreter over that scan (`tests/backend_equivalence.rs`). Because
//! a faulted driver's stats pass issues the very same DMA descriptor
//! sequence, injected `dma:*` faults fire and surface identically too.
//!
//! [`BackendKind::Cpu`]: crate::exec::BackendKind::Cpu
//! [`Scratch`]: zskip_nn::scratch::Scratch
//! [`SocHandle`]: crate::exec::SocHandle

use super::pipeline::{self, Exec};
use super::PassCtx;
use crate::driver::{Driver, DriverError};
use crate::isa::PoolPadOp;
use crate::report::PassStats;
use std::sync::OnceLock;
use zskip_nn::conv::QuantConvWeights;
use zskip_nn::gemm::conv2d_gemm_quant_into;
use zskip_nn::pool::maxpool_quant_into;
use zskip_nn::scratch::KernelBuffers;
use zskip_quant::cache::{CacheStats, Fingerprint, WeightCache};
use zskip_quant::Sm8;
use zskip_tensor::{Shape, Tensor, TiledFeatureMap};

/// The stats-only executor the CPU backend charges cycles with.
const STATS: Exec = Exec::Model { functional: false };

/// What one plan-free stats pass produced: everything a later image with
/// the same memo key would observe from re-running it.
struct PassRecord {
    stats: PassStats,
    /// DDR bytes the pass read (DMA in, weight preload).
    bytes_read: u64,
    /// DDR bytes the pass wrote (FM + weight staging, DMA out).
    bytes_written: u64,
}

/// The process-wide stats-pass memo, keyed by [`pass_key`]. Like the
/// packed-weight cache it never evicts: it holds one small record per
/// distinct (pass, config) pair, however many images are served.
fn stats_memo() -> &'static WeightCache<PassRecord> {
    static MEMO: OnceLock<WeightCache<PassRecord>> = OnceLock::new();
    MEMO.get_or_init(WeightCache::new)
}

/// Statistics of the CPU backend's process-wide stats-pass memo (entries,
/// hits, misses, resident bytes) — surfaced by `zskip analyze` and the
/// serve `stats` op. A warm image is all hits.
pub fn stats_memo_stats() -> CacheStats {
    stats_memo().stats()
}

/// Memo key of one pass: `pass` already carries the pass kind and its
/// parameters (conv: the weight fingerprint; pool: window and stride;
/// pad: amount); this appends everything else the statistics depend on —
/// the geometry, every configuration field that reaches the cycle model
/// or the stripe planner, and the two packing flags. Layer names and DDR
/// addresses are deliberately absent: they change no cycle or byte.
fn pass_key(driver: &Driver, pass: Fingerprint, input: Shape, out_shape: Shape) -> u64 {
    let c = &driver.config;
    [
        input.c,
        input.h,
        input.w,
        out_shape.c,
        out_shape.h,
        out_shape.w,
        c.units,
        c.lanes,
        c.instances,
        c.bank_tiles,
        c.fifo_depth,
        c.weight_bytes_per_cycle,
        c.scratchpad_bytes,
        driver.zero_skipping as usize,
        driver.filter_grouping as usize,
    ]
    .into_iter()
    .fold(pass, |fp, v| fp.u64(v as u64))
    .finish()
}

/// The statistics of one pass: replayed from the memo when a plan-free
/// execution under `key` has been recorded, otherwise from running
/// `pass` — the real staged pipeline — and recording its result.
fn stats_pass(
    ctx: &mut PassCtx<'_>,
    key: u64,
    pass: impl FnOnce(&mut PassCtx<'_>) -> Result<PassStats, DriverError>,
) -> Result<PassStats, DriverError> {
    // A fault plan anywhere forces the real descriptor sequence (and must
    // not poison the memo).
    if ctx.driver.fault_plan().is_some() || ctx.soc.has_fault_plan() {
        return pass(ctx);
    }
    let mut ran = false;
    let record = stats_memo().try_get_or_insert_with(
        key,
        || -> Result<PassRecord, DriverError> {
            ran = true;
            let (read, written) = ctx.soc.ddr_traffic();
            let stats = pass(ctx)?;
            let (read_after, written_after) = ctx.soc.ddr_traffic();
            Ok(PassRecord { stats, bytes_read: read_after - read, bytes_written: written_after - written })
        },
        |r| std::mem::size_of::<PassRecord>() + r.stats.per_instance_cycles.capacity() * std::mem::size_of::<u64>(),
    )?;
    if !ran {
        ctx.soc.credit_ddr(record.bytes_read, record.bytes_written);
    }
    Ok(record.stats.clone())
}

/// [`crate::exec::conv_pass`] on the host-SIMD backend (see module docs).
pub(crate) fn conv_pass(
    ctx: &mut PassCtx<'_>,
    name: &str,
    src: &Tensor<Sm8>,
    qw: &QuantConvWeights,
    out_shape: Shape,
    dst: &mut Tensor<Sm8>,
) -> Result<PassStats, DriverError> {
    // Cycles, counters, DDR traffic and fault behaviour from the
    // staged pipeline (its uncomputed output tiles are discarded), or
    // from the record of an earlier execution of the same pass.
    let key = pass_key(ctx.driver, Fingerprint::new().u64(0).u64(qw.fingerprint()), src.shape(), out_shape);
    let stats = stats_pass(ctx, key, |ctx| {
        let input = TiledFeatureMap::from_tensor(src);
        pipeline::conv_pass(ctx, STATS, name, &input, qw, out_shape).map(|(_, stats)| stats)
    })?;
    // The pipeline input is pre-padded by the explicit pad pass and
    // stride-1 by the driver's geometry checks, so pad = 0 here
    // yields exactly `out_shape`. With a worker pool attached the
    // output channels split across it — bit-exact at any width.
    let KernelBuffers { gemm, tier, pool } = &mut ctx.kernel;
    conv2d_gemm_quant_into(src, qw, 1, 0, *tier, *pool, gemm, dst);
    debug_assert_eq!(dst.shape(), out_shape);
    Ok(stats)
}

/// [`crate::exec::poolpad_pass`] on the host-SIMD backend.
pub(crate) fn poolpad_pass(
    ctx: &mut PassCtx<'_>,
    name: &str,
    src: &Tensor<Sm8>,
    op: PoolPadOp,
    out_shape: Shape,
    dst: &mut Tensor<Sm8>,
) -> Result<PassStats, DriverError> {
    let kind = match op {
        PoolPadOp::MaxPool { k, stride } => Fingerprint::new().u64(1).u64(u64::from(k)).u64(u64::from(stride)),
        PoolPadOp::Pad { amount } => Fingerprint::new().u64(2).u64(u64::from(amount)),
    };
    let key = pass_key(ctx.driver, kind, src.shape(), out_shape);
    let stats = stats_pass(ctx, key, |ctx| {
        let input = TiledFeatureMap::from_tensor(src);
        pipeline::poolpad_pass(ctx, STATS, name, &input, op, out_shape).map(|(_, stats)| stats)
    })?;
    match op {
        PoolPadOp::MaxPool { k, stride } => maxpool_quant_into(src, k as usize, stride as usize, dst),
        PoolPadOp::Pad { amount } => pad_into(src, amount as usize, dst),
    }
    debug_assert_eq!(dst.shape(), out_shape);
    Ok(stats)
}

/// Zero-pads `src` by `pad` on each spatial side into `dst`, reusing the
/// allocation (the in-place analogue of [`Tensor::padded`]): one
/// `copy_from_slice` per source row into the zeroed destination.
fn pad_into(src: &Tensor<Sm8>, pad: usize, dst: &mut Tensor<Sm8>) {
    let s = src.shape();
    let (dh, dw) = (s.h + 2 * pad, s.w + 2 * pad);
    dst.reset(s.c, dh, dw);
    let (from, to) = (src.as_slice(), dst.as_mut_slice());
    for c in 0..s.c {
        for y in 0..s.h {
            let (f, t) = ((c * s.h + y) * s.w, (c * dh + y + pad) * dw + pad);
            to[t..t + s.w].copy_from_slice(&from[f..f + s.w]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(c: usize, h: usize, w: usize) -> Tensor<Sm8> {
        Tensor::from_fn(c, h, w, |c, y, x| Sm8::from_i32_saturating((c * 17 + y * 5 + x) as i32 - 30))
    }

    #[test]
    fn pad_into_matches_padded() {
        let t = Tensor::from_fn(2, 6, 6, |c, y, x| Sm8::from_i32_saturating((c + y * 3 + x) as i32 - 8));
        let mut dst = Tensor::zeros(1, 1, 1);
        pad_into(&t, 2, &mut dst);
        assert_eq!(dst, t.padded(2));
    }

    #[test]
    fn pad_into_matches_padded_on_odd_extents() {
        let mut dst = ramp(1, 20, 20);
        for (h, w, pad) in [(1, 1, 1), (5, 7, 1), (7, 5, 2), (9, 3, 3), (6, 6, 0)] {
            let t = ramp(3, h, w);
            pad_into(&t, pad, &mut dst);
            assert_eq!(dst, t.padded(pad), "{h}x{w} pad {pad}");
        }
    }
}
