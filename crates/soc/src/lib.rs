//! System-on-chip integration: the fabric around the accelerator.
//!
//! The paper's system (Fig. 1, §III, §IV-D) couples the accelerator to a
//! Cortex-A9 hard processor system through two Qsys-generated networks:
//!
//! * **System I** — a high-bandwidth 256-bit bus performing DMA between
//!   system DRAM (DDR4) and the accelerator's on-FPGA SRAM banks;
//! * **System II** — Avalon memory-mapped interfaces from the ARM to
//!   control/status registers on the accelerator core and DMA unit.
//!
//! This crate models those pieces at transaction level with cycle
//! accounting:
//!
//! * [`avalon`] — the memory-mapped bus: address-ranged slaves, routing,
//!   transaction/wait-state statistics;
//! * [`csr`] — the accelerator's and DMA's control/status register maps;
//! * [`ddr`] — a DDR4 traffic and bandwidth/latency model behind the FPGA
//!   banks (it keeps no bytes);
//! * [`dma`] — the descriptor-driven DMA engine (the one hand-written RTL
//!   module in the paper);
//! * [`host`] — the embedded-ARM host: issues CSR writes, polls status,
//!   and accounts time for the software side of an inference.

pub mod avalon;
pub mod csr;
pub mod ddr;
pub mod dma;
pub mod host;

pub use avalon::{AvalonBus, BusError, MmSlave, SlaveHandle, BUS_TIMEOUT_CYCLES};
pub use csr::{AccelCsr, CsrFile, DMA_CSR_BASE, ACCEL_CSR_BASE};
pub use ddr::DdrModel;
pub use dma::{BankGeometry, DataPlane, DmaController, DmaDescriptor, DmaDirection, DmaError, TileStore};
pub use host::{DeviceFault, HostCpu, HostError};
