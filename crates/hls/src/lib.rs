//! A model of the LegUp HLS flow: from kernel op inventories to clocked,
//! pipelined, resource-estimated FPGA designs.
//!
//! The paper's central methodological claim is that a *single* Pthreads C
//! source plus HLS/RTL **constraint changes alone** yields a family of
//! accelerator variants with different performance/area trade-offs (§IV-A,
//! §V). A real HLS flow is out of reach from Rust (see DESIGN.md), but the
//! properties the evaluation measures are reproducible from a model of
//! what HLS does:
//!
//! * [`ir`] — the operation-level IR of each streaming kernel's pipelined
//!   loop body (muxes, multipliers, adders, FIFO/memory ports, FSM decode);
//! * [`schedule`] — operation chaining under a clock-period constraint:
//!   tighter constraints produce deeper pipelines (more registers, higher
//!   fmax), looser ones produce shallow cheap pipelines — the opt/unopt
//!   axis;
//! * [`resource`] — ALM/DSP/M20K estimation from the op inventory, the
//!   structural driver behind Fig. 6's area breakdown;
//! * [`design`] — the accelerator's module inventory as a function of its
//!   architecture (conv units, lanes, instances, bank size) and
//!   [`design::synthesize`], producing fmax, per-module area and device
//!   utilization, including the congestion-derated fmax that capped the
//!   paper's 512-opt variant at 120 MHz;
//! * [`variants`] — the paper's three datapath variants and its four
//!   design points, each a (variant, instances) pair.

pub mod bitwidth;
pub mod design;
pub mod ir;
pub mod resource;
pub mod schedule;
pub mod variants;

pub use bitwidth::{minimize_widths, DatapathWidths, ValueRange};
pub use design::{synthesize, AccelArch, ModuleArea, SynthesisResult};
pub use ir::{ModuleKind, Op};
pub use resource::{Device, Resources, Utilization};
pub use schedule::{schedule_ops, HlsConstraints, PipelineSchedule};
pub use variants::{Variant, PAPER_POINTS};
