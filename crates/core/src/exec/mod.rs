//! Execution backends behind the driver: the staged stripe pipeline and
//! the accelerator boundary (`staged`) a network walk crosses into it.
//! A walk keeps activations **dense** (the arena's plan slots); a feature
//! map is tiled only where a staged pass on the cycle engine is issued.
//!
//! The paper's accelerator stack is multi-backend in spirit — the same
//! per-layer instructions drive a transaction-level model, a cycle-exact
//! simulation and (on the FPGA) the real engines. This module makes that
//! shape explicit:
//!
//! * [`pipeline`] — the staged per-layer pipeline every backend shares:
//!   account the FM + packed weights into DDR, execute stripes (DMA in →
//!   instruction batch → DMA out), collect [`PassStats`] and counters;
//! * [`sched`] — the multi-instance placement scheduler above the
//!   pipeline: stripe-parallel, image-parallel and layer-pipelined
//!   sharding across N instances, with the HLS-derived per-N cost model;
//! * `stripes` — pure stripe-planning geometry under bank capacity;
//! * `cpu` — [`BackendKind::Model`] and [`BackendKind::Cpu`], two names
//!   for one path (the default): a network run is the golden walk (the
//!   `zskip-nn` SIMD kernels on the per-session `Scratch` arena) plus the
//!   report of a stats-only walk over the plan's steps by shape, whose
//!   passes issue every DMA descriptor and instruction batch to the
//!   closed-form cycle model ([`crate::model`], cycles and counters; no
//!   byte moves, no arithmetic) — paid once per (network, config), then
//!   read from a process-wide memo;
//! * [`BackendKind::Cycle`] — the staged walk issuing every batch to the
//!   cycle-exact simulation of all kernels on the `zskip-sim` engine
//!   ([`crate::cycle`]; slow; the functional oracle for the accelerator's
//!   data movement, and the only backend where `fifo:*` fault injections
//!   have a meaning).
//!
//! Both paths are bit-identical in output and DMA-fault behaviour — see
//! `tests/backend_equivalence.rs` and `docs/ARCHITECTURE.md` (which also
//! documents how to add a backend).

pub(crate) mod cpu;
pub mod pipeline;
pub mod sched;
pub(crate) mod stripes;

pub use pipeline::SocHandle;

use crate::driver::{Driver, DriverError};
use crate::report::PassStats;
use pipeline::{fm_to_tensor_into, Exec, PassResult};
use zskip_nn::par::ConvPool;
use zskip_quant::Sm8;
use zskip_tensor::{Shape, Tensor, TiledFeatureMap};

/// Which execution backend computes each stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The golden walk for the output, the transaction-level model's
    /// closed-form cycles for the statistics (the default; the same path
    /// as [`BackendKind::Cpu`]).
    Model,
    /// Cycle-exact simulation of all kernels (slow; for validation).
    Cycle,
    /// The golden walk on the host SIMD kernels, with the closed-form
    /// statistics (the same path as [`BackendKind::Model`]).
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

/// Per-pass execution context the [`pipeline`] runs against: the driver
/// configuration, the SoC models (DDR traffic + DMA) shared across the
/// layers of one inference, and the arena's worker pool.
pub(crate) struct PassCtx<'a> {
    /// The driver (configuration, flags, fault plan).
    pub driver: &'a Driver,
    /// SoC context: DDR accounting + DMA engine, shared across passes.
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

/// The accelerator boundary of a staged pass. On the transaction model
/// (`io` is `None`) the pass runs on `in_shape` alone. On the cycle
/// engine it is the paper's host pre-processing ("reordering of data
/// into tiled format", §IV-C): the dense input of `io` is tiled, `pass`
/// runs on it and its output is densified into the dense output of `io`.
///
/// Whatever the executor, a pass keeps three promises:
///
/// * **Honest outputs.** On the cycle engine the output equals the golden
///   software reference (`QuantizedNetwork::forward_quant`) exactly; the
///   transaction model computes no output, so no caller takes one from it.
/// * **Shared pipeline.** Stripe planning, DDR accounting and DMA issue go
///   through [`pipeline`] so DMA traffic and injected `dma:*` faults
///   behave identically across backends (fault detection is
///   value-independent).
/// * **Honest statistics.** `PassStats` cycles come from an actual
///   execution or a validated model of one — never fabricated.
///
/// See `docs/ARCHITECTURE.md` for how to add a backend.
pub(crate) fn staged(
    in_shape: Shape,
    io: Option<(&Tensor<Sm8>, &mut Tensor<Sm8>)>,
    pass: impl FnOnce(Exec<'_>) -> PassResult,
) -> Result<PassStats, DriverError> {
    let Some((src, dst)) = io else {
        return Ok(pass(Exec::Model(in_shape))?.1);
    };
    let (out, stats) = pass(Exec::Cycle(&TiledFeatureMap::from_tensor(src)))?;
    fm_to_tensor_into(&out.expect("the cycle engine reads its output back"), dst);
    Ok(stats)
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
