//! [`BackendKind::Cpu`]: the golden walk, with modelled statistics.
//!
//! A cpu-backend network run is two independent computations. Its output
//! is the software golden model's —
//! [`QuantizedNetwork::forward_quant_scratch`] on the caller's
//! [`Scratch`] arena, at the driver's kernel tier and worker count — so
//! the backend's arithmetic is the golden walk by construction. Its
//! report (every layer's cycles and activity counters, the DDR bytes) is
//! the model backend's with the arithmetic switched off: zero-skipping
//! depends on weights, never on activations, so every statistic is a pure
//! function of the network's weights, its geometry and the accelerator
//! configuration.
//!
//! The report is therefore paid **once per (network, configuration)**,
//! not once per image: the first run records it in a process-wide memo
//! ([`stats_memo_stats`]), and every later image is one lookup plus the
//! golden walk — no pass is staged and no simulated DDR is created.
//!
//! An attached fault plan bypasses the memo: the stats-only run is issued
//! for every image, because its DMA descriptor sequence is where `dma:*`
//! injections fire, and it returns any error before the golden walk
//! starts. Only `Ok`, fault-plan-free reports are recorded.
//!
//! [`BackendKind::Cpu`]: crate::exec::BackendKind::Cpu
//! [`Scratch`]: zskip_nn::scratch::Scratch

use crate::driver::{BackendKind, Driver, DriverError, InferenceReport, LayerReport};
use std::fmt::Write;
use std::sync::{Arc, OnceLock};
use zskip_nn::model::QuantizedNetwork;
use zskip_nn::scratch::Scratch;
use zskip_quant::cache::{CacheStats, Fingerprint, WeightCache};
use zskip_tensor::Tensor;

/// The process-wide stats memo, keyed by [`memo_key`]. Like the
/// packed-weight cache it never evicts: it holds one report per distinct
/// (network, configuration) pair, however many images are served.
fn stats_memo() -> &'static WeightCache<InferenceReport> {
    static MEMO: OnceLock<WeightCache<InferenceReport>> = OnceLock::new();
    MEMO.get_or_init(WeightCache::new)
}

/// Statistics of the cpu backend's process-wide stats memo (entries,
/// hits, misses, resident bytes) — surfaced by `zskip analyze` and the
/// serve `stats` op. A warm image is one hit.
pub fn stats_memo_stats() -> CacheStats {
    stats_memo().stats()
}

/// Memo key of one network run: every configuration field that reaches
/// the cycle model or the stripe planner, the two packing flags, the
/// input shape, each conv's weight fingerprint and the spec itself —
/// every layer's geometry and its name, which the report carries. DDR
/// addresses are absent: they move no cycle and no byte.
fn memo_key(driver: &Driver, qnet: &QuantizedNetwork, input: &Tensor<f32>) -> u64 {
    let (c, s) = (&driver.config, input.shape());
    let fields = [
        c.units,
        c.lanes,
        c.instances,
        c.bank_tiles,
        c.fifo_depth,
        c.weight_bytes_per_cycle,
        c.scratchpad_bytes,
        driver.zero_skipping as usize,
        driver.filter_grouping as usize,
        s.c,
        s.h,
        s.w,
    ];
    let fp = fields.into_iter().fold(Fingerprint::new(), |fp, v| fp.u64(v as u64));
    let mut digest = Digest(qnet.conv.iter().fold(fp, |fp, l| fp.u64(l.weights.fingerprint())));
    write!(digest, "{:?}", qnet.spec).expect("a digest accepts any text");
    digest.0.finish()
}

/// Absorbs formatted text into a [`Fingerprint`] without allocating it.
struct Digest(Fingerprint);

impl Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = std::mem::take(&mut self.0).bytes(s.as_bytes());
        Ok(())
    }
}

/// [`Driver::run_network_scratch`] on the cpu backend (see module docs).
pub(crate) fn run_network(
    driver: &Driver,
    qnet: &QuantizedNetwork,
    input: &Tensor<f32>,
    scratch: &mut Scratch,
) -> Result<InferenceReport, DriverError> {
    // The model backend's stats-only pass on its own throwaway arena; its
    // closed form has nothing to split across threads.
    let stats_only = || {
        let mut model = driver.clone();
        (model.backend, model.functional, model.threads) = (BackendKind::Model, false, 1);
        model.run_network(qnet, input)
    };
    let report = if driver.fault_plan().is_some() {
        Arc::new(stats_only()?)
    } else {
        stats_memo().try_get_or_insert_with(memo_key(driver, qnet, input), stats_only, |r| {
            std::mem::size_of::<InferenceReport>() + r.layers.capacity() * std::mem::size_of::<LayerReport>()
        })?
    };
    scratch.set_threads(driver.threads);
    scratch.set_tier(driver.kernel_tier);
    let output = qnet.forward_quant_scratch(input, scratch).to_vec();
    let InferenceReport { layers, total_cycles, ddr_bytes, .. } = &*report;
    Ok(InferenceReport { layers: layers.clone(), output, total_cycles: *total_cycles, ddr_bytes: *ddr_bytes })
}
