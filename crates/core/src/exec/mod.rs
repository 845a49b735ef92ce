//! Execution backends behind the driver: the staged stripe pipeline and
//! the [`conv_pass`] / [`poolpad_pass`] dispatch onto its interchangeable
//! targets. Both take and fill **dense** activations (the arena's plan
//! slots); a feature map is tiled only where a staged pass is issued.
//!
//! The paper's accelerator stack is multi-backend in spirit — the same
//! per-layer instructions drive a transaction-level model, a cycle-exact
//! simulation and (on the FPGA) the real engines. This module makes that
//! shape explicit:
//!
//! * [`pipeline`] — the staged per-layer pipeline every backend shares:
//!   stage FM + packed weights in DDR, execute stripes (DMA in →
//!   instruction batch → DMA out), collect [`PassStats`] and counters;
//! * [`sched`] — the multi-instance placement scheduler above the
//!   pipeline: stripe-parallel, image-parallel and layer-pipelined
//!   sharding across N instances, with the HLS-derived per-N cost model;
//! * `stripes` — pure stripe-planning geometry under bank capacity;
//! * [`BackendKind::Model`] — the pipeline issuing every instruction
//!   batch to the closed-form cycle model ([`crate::model`]), functional
//!   arithmetic from the golden reference (fast; the default);
//! * [`BackendKind::Cycle`] — the pipeline issuing them to the
//!   cycle-exact simulation of all kernels on the `zskip-sim` engine
//!   ([`crate::cycle`]; slow; for validation, and the only backend where
//!   `fifo:*` fault injections have a meaning);
//! * `cpu` — [`BackendKind::Cpu`]: a network run is the golden walk
//!   (the `zskip-nn` SIMD kernels on the per-session `Scratch` arena) plus
//!   the model backend's stats-only report — paid once per (network,
//!   config), then read from a process-wide memo (the fastest functional
//!   path). It issues no pass of its own: a cpu driver's single-layer
//!   passes run the model's functional executor.
//!
//! All backends are bit-identical in output and DMA-fault behaviour, and
//! Model/Cpu are cycle-identical — see `tests/backend_equivalence.rs`
//! and `docs/ARCHITECTURE.md` (which also documents how to add a
//! backend).

pub(crate) mod cpu;
pub mod pipeline;
pub mod sched;
pub(crate) mod stripes;

pub use pipeline::{fm_to_bytes, SocHandle};

use crate::driver::{Driver, DriverError};
use crate::isa::PoolPadOp;
use crate::report::PassStats;
use pipeline::{fm_to_tensor_into, Exec};
use zskip_nn::conv::QuantConvWeights;
use zskip_nn::par::ConvPool;
use zskip_quant::Sm8;
use zskip_tensor::{Shape, Tensor, TiledFeatureMap};

/// Which execution backend computes each stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Transaction-level model: closed-form cycles (fast; default).
    Model,
    /// Cycle-exact simulation of all kernels (slow; for validation).
    Cycle,
    /// Host SIMD kernels for the arithmetic, closed-form cycle model for
    /// the statistics (fastest functional path).
    Cpu,
}

impl BackendKind {
    /// All backends, in documentation order.
    pub const ALL: [BackendKind; 3] = [BackendKind::Model, BackendKind::Cycle, BackendKind::Cpu];

    /// The CLI/serialization name (`model` | `cycle` | `cpu`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Model => "model",
            BackendKind::Cycle => "cycle",
            BackendKind::Cpu => "cpu",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<BackendKind, String> {
        match s {
            "model" => Ok(BackendKind::Model),
            "cycle" => Ok(BackendKind::Cycle),
            "cpu" => Ok(BackendKind::Cpu),
            other => Err(format!("unknown backend '{other}' (use model | cycle | cpu)")),
        }
    }
}

/// Per-pass execution context [`conv_pass`] / [`poolpad_pass`] run against: the
/// driver configuration, the SoC models (DDR + DMA) shared across the
/// layers of one inference, and the arena's worker pool.
pub struct PassCtx<'a> {
    /// The driver (configuration, flags, fault plan).
    pub driver: &'a Driver,
    /// SoC context: DDR staging + DMA engine, shared across passes.
    pub soc: &'a mut SocHandle,
    /// The session arena's intra-image worker pool, which the cycle
    /// backend spreads a pass's engine runs over.
    pub pool: Option<&'a ConvPool>,
    /// DDR address of the region the pass's input feature map is staged
    /// in — the producing plan slot's region during a network run
    /// ([`pipeline::slot_addr`]).
    pub src_addr: usize,
    /// DDR address of the region the pass's output feature map is
    /// written back to.
    pub dst_addr: usize,
}

/// The instruction executor the driver's backend issues a staged pass to:
/// the one place a pass is routed to its executor. A cpu-backend network
/// run stages no pass (module `cpu`); a cpu driver's single-layer pass is
/// the model's functional one, whose output and statistics are the cpu
/// backend's by contract.
pub(crate) fn staged_exec(driver: &Driver) -> Exec {
    match driver.backend {
        BackendKind::Model | BackendKind::Cpu => Exec::Model { functional: driver.functional },
        BackendKind::Cycle => Exec::Cycle,
    }
}

/// The accelerator boundary of a staged pass, the paper's host
/// pre-processing ("reordering of data into tiled format", §IV-C): tiles
/// the dense `src`, runs `pass` on it and densifies its output into `dst`.
fn staged(
    src: &Tensor<Sm8>,
    dst: &mut Tensor<Sm8>,
    pass: impl FnOnce(&TiledFeatureMap<Sm8>) -> Result<(TiledFeatureMap<Sm8>, PassStats), DriverError>,
) -> Result<PassStats, DriverError> {
    let (out, stats) = pass(&TiledFeatureMap::from_tensor(src))?;
    fm_to_tensor_into(&out, dst);
    Ok(stats)
}

/// Runs one convolution layer (stride 1; a `pad > 0` layer is the pad
/// pass then the conv pass, tiled to tiled — [`pipeline`]) on the
/// driver's executor, from one dense activation into another.
///
/// The host keeps activations dense (the arena's plan slots); tiling
/// happens here, at the accelerator boundary. Whatever the executor, a
/// pass keeps three promises:
///
/// * **Bit-identical outputs.** `dst` equals the golden software
///   reference (`QuantizedNetwork::forward_quant`) exactly.
/// * **Shared pipeline.** Stripe planning, DDR staging and DMA issue go
///   through [`pipeline`] so DMA traffic and injected `dma:*` faults
///   behave identically across backends (fault detection is
///   value-independent).
/// * **Honest statistics.** `PassStats` cycles come from an actual
///   execution or a validated model of one — never fabricated.
///
/// See `docs/ARCHITECTURE.md` for how to add a backend.
///
/// # Errors
/// See [`Driver::run_network`](crate::driver::Driver::run_network).
pub fn conv_pass(
    ctx: &mut PassCtx<'_>,
    name: &str,
    src: &Tensor<Sm8>,
    qw: &QuantConvWeights,
    pad: u8,
    out_shape: Shape,
    dst: &mut Tensor<Sm8>,
) -> Result<PassStats, DriverError> {
    let exec = staged_exec(ctx.driver);
    staged(src, dst, |fm| pipeline::conv_pass(ctx, exec, name, fm, qw, pad, out_shape))
}

/// Runs one pad or max-pool pass on the driver's executor, under the same
/// contract as [`conv_pass`].
///
/// # Errors
/// See [`Driver::run_network`](crate::driver::Driver::run_network).
pub fn poolpad_pass(
    ctx: &mut PassCtx<'_>,
    name: &str,
    src: &Tensor<Sm8>,
    op: PoolPadOp,
    out_shape: Shape,
    dst: &mut Tensor<Sm8>,
) -> Result<PassStats, DriverError> {
    let exec = staged_exec(ctx.driver);
    staged(src, dst, |fm| pipeline::poolpad_pass(ctx, exec, name, fm, op, out_shape))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>(), Ok(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn unknown_backend_name_is_an_error() {
        let err = "gpu".parse::<BackendKind>().unwrap_err();
        assert!(err.contains("unknown backend 'gpu'"), "{err}");
        assert!(err.contains("model | cycle | cpu"), "{err}");
    }
}
