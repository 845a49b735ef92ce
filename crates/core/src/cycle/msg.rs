//! FIFO message payloads of the cycle-exact accelerator.
//!
//! Each variant corresponds to a hardware FIFO payload format; the enum
//! exists because the simulation engine carries one message type per
//! design (`zskip-sim` is generic over it).

use crate::isa::Instruction;
use crate::poolpad::MaxSel;
use zskip_quant::{PackedEntry, Sm8};
use zskip_tensor::Tile;

/// Per-instruction configuration for an accumulator lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccumCfg {
    /// Whether this lane's output channel exists (ragged final group).
    pub active: bool,
    /// Bias preloaded into the accumulators at each position.
    pub bias: i64,
    /// Requantizer multiplier.
    pub mult: u16,
    /// Requantizer shift.
    pub shift: u8,
    /// Fused ReLU.
    pub relu: bool,
    /// OFM tile positions this instruction computes.
    pub positions: u32,
    /// Number of convolution units feeding this lane (markers expected
    /// per position).
    pub units: u8,
    /// Destination bank for this lane's OFM tiles.
    pub out_bank: u8,
    /// Word address of the lane's first OFM tile (position 0).
    pub out_base: u32,
}

/// One cycle of convolution work from a data-staging unit: the current
/// quad region of one IFM plus one packed weight per filter lane. No wider
/// than [`Msg::Products`], so it travels by value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvWork {
    /// The four contiguous IFM tiles as an 8x8 row-major region
    /// (paper Fig. 4a).
    pub region: [Sm8; 64],
    /// One packed (offset, value) weight per lane; `None` lanes are
    /// pipeline bubbles from non-zero-count imbalance.
    pub lanes: [Option<PackedEntry>; 4],
}

/// One cycle of pool/pad work: an input tile plus MAX-unit selections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolWork {
    /// The input tile (zero tile when the address was out of range).
    pub input: Tile<Sm8>,
    /// The four MAX-unit selections for this cycle.
    pub sels: [MaxSel; 4],
    /// Whether this is the final micro-op of the current output tile.
    pub last: bool,
    /// Destination bank of the completed output tile.
    pub out_bank: u8,
    /// Destination word address of the completed output tile.
    pub out_addr: u32,
}

/// A message on some FIFO of the design.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Main controller -> staging: execute an instruction.
    Cmd(Instruction),
    /// Main controller -> accumulators: per-instruction configuration.
    Accum(AccumCfg),
    /// Main controller -> write units: expect this many output tiles.
    WriteExpect(u32),
    /// Main controller -> any unit: run ended, shut down.
    Shutdown,
    /// Staging -> conv: one weight-application cycle.
    ConvWork(ConvWork),
    /// Staging -> conv: all weights of the current tile position sent.
    EndPosition,
    /// Conv -> accumulator: 16 products for one lane.
    Products([i32; 16]),
    /// Conv -> accumulator: forwarded end-of-position marker.
    AccumEnd,
    /// Staging -> pool/pad: one micro-op with its input tile.
    PoolWork(PoolWork),
    /// Accumulator or pool/pad -> write unit: a completed OFM tile.
    OfmTile {
        /// Destination bank.
        bank: u8,
        /// Destination word address.
        addr: u32,
        /// The tile data.
        tile: Tile<Sm8>,
    },
    /// Write unit -> main controller: instruction's tiles all written.
    Done,
}
