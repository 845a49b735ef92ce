//! The DMA engine: descriptor-driven transfers between DDR4 and the
//! accelerator's SRAM banks over the 256-bit System I bus.
//!
//! In the paper this is the single hand-written RTL module; everything
//! else is HLS-generated. Its job here is the same: move tile-formatted
//! data in bulk, with cycle accounting, between the [`crate::DdrModel`]
//! and whatever implements [`TileStore`] (the accelerator's banks).

use crate::ddr::DdrModel;
use zskip_fault::{FaultKind, SharedFaultPlan};

/// Bytes per tile word (16 values x 8-bit).
pub const TILE_BYTES: usize = 16;

/// A bank-side target for DMA transfers: indexed tile-word storage.
///
/// Implemented by the accelerator's SRAM banks in `zskip-core`.
pub trait TileStore {
    /// Number of banks.
    fn banks(&self) -> usize;

    /// Capacity of each bank in tile words.
    fn bank_capacity(&self) -> usize;

    /// Writes one tile word.
    ///
    /// # Panics
    /// Implementations panic on out-of-range bank/index.
    fn write_tile_bytes(&mut self, bank: usize, index: usize, bytes: &[u8; TILE_BYTES]);

    /// Reads one tile word.
    fn read_tile_bytes(&self, bank: usize, index: usize) -> [u8; TILE_BYTES];
}

/// Transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaDirection {
    /// DDR to SRAM bank.
    DdrToBank,
    /// SRAM bank to DDR.
    BankToDdr,
}

/// One DMA descriptor: a contiguous run of tile words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaDescriptor {
    /// Transfer direction.
    pub direction: DmaDirection,
    /// DDR byte address (must be tile-aligned).
    pub ddr_addr: usize,
    /// Target bank.
    pub bank: usize,
    /// First tile index within the bank.
    pub bank_tile_index: usize,
    /// Number of tile words to move.
    pub tiles: usize,
}

/// Error queuing or executing a descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaError {
    /// DDR address not tile-aligned.
    Unaligned(usize),
    /// Bank index out of range.
    BadBank(usize),
    /// Transfer exceeds the bank capacity.
    BankOverflow {
        /// First out-of-range tile index.
        index: usize,
        /// Bank capacity in tiles.
        capacity: usize,
    },
    /// The transfer stopped early: the completion count disagrees with the
    /// descriptor (surfaced by an injected fault or a misbehaving device).
    Truncated {
        /// Tile words actually moved.
        moved: usize,
        /// Tile words the descriptor requested.
        expected: usize,
    },
    /// The bus parity check rejected a beat (data corruption in flight).
    Parity {
        /// Tile word whose parity failed.
        tile: usize,
    },
}

impl std::fmt::Display for DmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DmaError::Unaligned(a) => write!(f, "DDR address {a:#x} not tile-aligned"),
            DmaError::BadBank(b) => write!(f, "bank {b} out of range"),
            DmaError::BankOverflow { index, capacity } => {
                write!(f, "tile index {index} exceeds bank capacity {capacity}")
            }
            DmaError::Truncated { moved, expected } => {
                write!(f, "DMA transfer truncated: {moved} of {expected} tiles moved")
            }
            DmaError::Parity { tile } => {
                write!(f, "bus parity error on tile {tile}")
            }
        }
    }
}

impl std::error::Error for DmaError {}

/// The DMA controller: executes descriptors, accounting System I cycles.
#[derive(Debug, Clone, Default)]
pub struct DmaController {
    descriptors_run: u64,
    tiles_moved: u64,
    cycles: u64,
    fault_plan: Option<SharedFaultPlan>,
}

impl DmaController {
    /// Creates an idle controller.
    pub fn new() -> DmaController {
        DmaController::default()
    }

    /// Attaches a fault plan: `dma:xfer` injections fire on the nth
    /// descriptor executed (the plan's trigger ordinal counts
    /// descriptors, including faulted ones).
    pub fn set_fault_plan(&mut self, plan: SharedFaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Whether a fault plan is attached.
    pub fn has_fault_plan(&self) -> bool {
        self.fault_plan.is_some()
    }

    /// Executes one descriptor synchronously, returning its cycle cost.
    ///
    /// # Errors
    /// Returns [`DmaError`] for unaligned or out-of-range descriptors
    /// before touching any data; [`DmaError::Truncated`] or
    /// [`DmaError::Parity`] when an injected transfer fault fires (the
    /// partially moved or corrupted data has already landed, as it would
    /// in hardware).
    pub fn run(
        &mut self,
        desc: &DmaDescriptor,
        ddr: &mut DdrModel,
        banks: &mut dyn TileStore,
    ) -> Result<u64, DmaError> {
        if !desc.ddr_addr.is_multiple_of(TILE_BYTES) {
            return Err(DmaError::Unaligned(desc.ddr_addr));
        }
        if desc.bank >= banks.banks() {
            return Err(DmaError::BadBank(desc.bank));
        }
        let end = desc.bank_tile_index + desc.tiles;
        if end > banks.bank_capacity() {
            return Err(DmaError::BankOverflow { index: end - 1, capacity: banks.bank_capacity() });
        }

        let fault = self.fault_plan.as_ref().and_then(|p| {
            p.lock().unwrap_or_else(|e| e.into_inner()).fire("dma:xfer", self.descriptors_run)
        });
        let (moved, corrupt_xor) = match fault {
            Some(FaultKind::DmaTruncate { tiles }) => (tiles.min(desc.tiles), None),
            Some(FaultKind::DmaCorrupt { xor }) => (desc.tiles, Some(xor)),
            _ => (desc.tiles, None),
        };

        let bytes = moved * TILE_BYTES;
        let cycles = match desc.direction {
            DmaDirection::DdrToBank => {
                let (block, cycles) = ddr.read_block(desc.ddr_addr, bytes);
                let mut block = block.to_vec();
                if let (Some(xor), Some(first)) = (corrupt_xor, block.first_mut()) {
                    *first ^= xor;
                }
                for t in 0..moved {
                    let mut word = [0u8; TILE_BYTES];
                    word.copy_from_slice(&block[t * TILE_BYTES..(t + 1) * TILE_BYTES]);
                    banks.write_tile_bytes(desc.bank, desc.bank_tile_index + t, &word);
                }
                cycles
            }
            DmaDirection::BankToDdr => {
                let mut block = Vec::with_capacity(bytes);
                for t in 0..moved {
                    block.extend_from_slice(&banks.read_tile_bytes(desc.bank, desc.bank_tile_index + t));
                }
                if let (Some(xor), Some(first)) = (corrupt_xor, block.first_mut()) {
                    *first ^= xor;
                }
                ddr.write_block(desc.ddr_addr, &block)
            }
        };
        self.descriptors_run += 1;
        self.tiles_moved += moved as u64;
        self.cycles += cycles;
        if moved < desc.tiles {
            return Err(DmaError::Truncated { moved, expected: desc.tiles });
        }
        if corrupt_xor.is_some() {
            // The modeled System I bus carries per-beat parity; the
            // flipped bit trips it on the first tile.
            return Err(DmaError::Parity { tile: 0 });
        }
        Ok(cycles)
    }

    /// Descriptors executed.
    pub fn descriptors_run(&self) -> u64 {
        self.descriptors_run
    }

    /// Tile words moved.
    pub fn tiles_moved(&self) -> u64 {
        self.tiles_moved
    }

    /// Total System I cycles consumed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A simple in-memory TileStore for testing.
    struct TestBanks {
        data: Vec<Vec<[u8; TILE_BYTES]>>,
    }

    impl TestBanks {
        fn new(banks: usize, capacity: usize) -> Self {
            TestBanks { data: vec![vec![[0; TILE_BYTES]; capacity]; banks] }
        }
    }

    impl TileStore for TestBanks {
        fn banks(&self) -> usize {
            self.data.len()
        }
        fn bank_capacity(&self) -> usize {
            self.data[0].len()
        }
        fn write_tile_bytes(&mut self, bank: usize, index: usize, bytes: &[u8; TILE_BYTES]) {
            self.data[bank][index] = *bytes;
        }
        fn read_tile_bytes(&self, bank: usize, index: usize) -> [u8; TILE_BYTES] {
            self.data[bank][index]
        }
    }

    #[test]
    fn ddr_to_bank_and_back_round_trips() {
        let mut ddr = DdrModel::new(4096);
        let mut banks = TestBanks::new(4, 64);
        let mut dma = DmaController::new();
        let payload: Vec<u8> = (0..160).map(|i| i as u8).collect();
        ddr.write_block(0, &payload);

        let c1 = dma
            .run(
                &DmaDescriptor {
                    direction: DmaDirection::DdrToBank,
                    ddr_addr: 0,
                    bank: 2,
                    bank_tile_index: 5,
                    tiles: 10,
                },
                &mut ddr,
                &mut banks,
            )
            .unwrap();
        assert!(c1 > 0);
        assert_eq!(banks.read_tile_bytes(2, 5)[0], 0);
        assert_eq!(banks.read_tile_bytes(2, 6)[0], 16);

        dma.run(
            &DmaDescriptor {
                direction: DmaDirection::BankToDdr,
                ddr_addr: 1024,
                bank: 2,
                bank_tile_index: 5,
                tiles: 10,
            },
            &mut ddr,
            &mut banks,
        )
        .unwrap();
        let (copy, _) = ddr.read_block(1024, 160);
        assert_eq!(copy, &payload[..]);
        assert_eq!(dma.descriptors_run(), 2);
        assert_eq!(dma.tiles_moved(), 20);
    }

    #[test]
    fn validation_happens_before_side_effects() {
        let mut ddr = DdrModel::new(4096);
        let mut banks = TestBanks::new(2, 8);
        let mut dma = DmaController::new();
        let err = dma
            .run(
                &DmaDescriptor {
                    direction: DmaDirection::DdrToBank,
                    ddr_addr: 3, // unaligned
                    bank: 0,
                    bank_tile_index: 0,
                    tiles: 1,
                },
                &mut ddr,
                &mut banks,
            )
            .unwrap_err();
        assert_eq!(err, DmaError::Unaligned(3));
        assert_eq!(ddr.bytes_read(), 0, "no partial transfer");

        let err = dma
            .run(
                &DmaDescriptor {
                    direction: DmaDirection::DdrToBank,
                    ddr_addr: 0,
                    bank: 5,
                    bank_tile_index: 0,
                    tiles: 1,
                },
                &mut ddr,
                &mut banks,
            )
            .unwrap_err();
        assert_eq!(err, DmaError::BadBank(5));

        let err = dma
            .run(
                &DmaDescriptor {
                    direction: DmaDirection::DdrToBank,
                    ddr_addr: 0,
                    bank: 0,
                    bank_tile_index: 6,
                    tiles: 4,
                },
                &mut ddr,
                &mut banks,
            )
            .unwrap_err();
        assert_eq!(err, DmaError::BankOverflow { index: 9, capacity: 8 });
        assert_eq!(dma.descriptors_run(), 0);
    }

    #[test]
    fn injected_truncation_moves_partial_data_and_errors() {
        use zskip_fault::{FaultKind, FaultPlan};
        let mut ddr = DdrModel::new(4096);
        let mut banks = TestBanks::new(1, 64);
        let mut dma = DmaController::new();
        let plan = FaultPlan::new()
            .inject("dma:xfer", 1, FaultKind::DmaTruncate { tiles: 3 })
            .shared();
        dma.set_fault_plan(plan.clone());
        let payload: Vec<u8> = (0..160).map(|i| i as u8).collect();
        ddr.write_block(0, &payload);
        let desc = DmaDescriptor {
            direction: DmaDirection::DdrToBank,
            ddr_addr: 0,
            bank: 0,
            bank_tile_index: 0,
            tiles: 10,
        };
        // Descriptor 0 is healthy (trigger ordinal is 1).
        dma.run(&desc, &mut ddr, &mut banks).unwrap();
        let err = dma.run(&desc, &mut ddr, &mut banks).unwrap_err();
        assert_eq!(err, DmaError::Truncated { moved: 3, expected: 10 });
        // The three moved tiles landed; the device reports the shortfall.
        assert_eq!(banks.read_tile_bytes(0, 2)[0], 32);
        assert_eq!(dma.descriptors_run(), 2);
        assert_eq!(plan.lock().unwrap().fired().len(), 1);
        // One-shot: the next descriptor is healthy again.
        dma.run(&desc, &mut ddr, &mut banks).unwrap();
    }

    #[test]
    fn injected_corruption_trips_parity() {
        use zskip_fault::{FaultKind, FaultPlan};
        let mut ddr = DdrModel::new(4096);
        let mut banks = TestBanks::new(1, 64);
        let mut dma = DmaController::new();
        dma.set_fault_plan(
            FaultPlan::new().inject("dma:xfer", 0, FaultKind::DmaCorrupt { xor: 0x80 }).shared(),
        );
        ddr.write_block(0, &[0x01; 32]);
        let desc = DmaDescriptor {
            direction: DmaDirection::DdrToBank,
            ddr_addr: 0,
            bank: 0,
            bank_tile_index: 0,
            tiles: 2,
        };
        let err = dma.run(&desc, &mut ddr, &mut banks).unwrap_err();
        assert_eq!(err, DmaError::Parity { tile: 0 });
        // The corrupted byte landed before the parity check rejected it.
        assert_eq!(banks.read_tile_bytes(0, 0)[0], 0x81);
        assert_eq!(banks.read_tile_bytes(0, 1)[0], 0x01);
    }

    #[test]
    fn bulk_transfers_amortize() {
        let mut ddr = DdrModel::new(1 << 20);
        let mut banks = TestBanks::new(1, 4096);
        let mut dma = DmaController::new();
        let one = dma
            .run(
                &DmaDescriptor { direction: DmaDirection::DdrToBank, ddr_addr: 0, bank: 0, bank_tile_index: 0, tiles: 1 },
                &mut ddr,
                &mut banks,
            )
            .unwrap();
        let many = dma
            .run(
                &DmaDescriptor { direction: DmaDirection::DdrToBank, ddr_addr: 0, bank: 0, bank_tile_index: 0, tiles: 1000 },
                &mut ddr,
                &mut banks,
            )
            .unwrap();
        assert!((many as f64) < (one as f64) * 1000.0 / 10.0, "one={one} many={many}");
    }
}
