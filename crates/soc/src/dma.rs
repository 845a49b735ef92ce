//! The DMA engine: descriptor-driven transfers between DDR4 and the
//! accelerator's SRAM banks over the 256-bit System I bus.
//!
//! In the paper this is the single hand-written RTL module; everything
//! else is HLS-generated. Its job here is the same: validate and execute
//! descriptors over tile-formatted data in bulk, accounting every one
//! against the [`crate::DdrModel`]'s traffic and timing. The bytes
//! themselves move only when the caller simulates them and hands
//! [`DmaController::run`] a [`DataPlane`]; a caller that only counts
//! traffic hands it none.

use crate::ddr::DdrModel;
use zskip_fault::{FaultKind, SharedFaultPlan};

/// Bytes per tile word (16 values x 8-bit).
pub const TILE_BYTES: usize = 16;

/// A bank-side sink for DMA transfers: indexed tile-word storage.
///
/// Implemented by the accelerator's SRAM banks in `zskip-core`.
pub trait TileStore {
    /// Writes one tile word.
    ///
    /// # Panics
    /// Implementations panic on out-of-range bank/index.
    fn write_tile_bytes(&mut self, bank: usize, index: usize, bytes: &[u8; TILE_BYTES]);
}

/// The bank array descriptors are validated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankGeometry {
    /// Number of banks.
    pub banks: usize,
    /// Capacity of each bank in tile words.
    pub capacity: usize,
}

/// The data a DDR→bank descriptor moves, for a caller that simulates it:
/// the staged DDR region, tile word by tile word, and the banks the
/// words land in. A bank→DDR descriptor moves nothing: the host reads
/// results out of the banks itself.
pub struct DataPlane<'a> {
    /// DDR address of the staged region's first tile word.
    pub base: usize,
    /// Tile word `i` of the staged region: the bytes at
    /// `base + i * TILE_BYTES`.
    pub tile: &'a dyn Fn(usize) -> [u8; TILE_BYTES],
    /// Where the words land.
    pub banks: &'a mut dyn TileStore,
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

/// The DMA controller: executes descriptors, each one's System I cycles
/// accounted against the DDR model, and counts them (the `dma:xfer`
/// fault ordinal).
#[derive(Debug, Clone, Default)]
pub struct DmaController {
    descriptors_run: u64,
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

    /// Executes one descriptor synchronously, returning its cycle cost.
    /// With a `plane`, a DDR→bank descriptor writes the plane's tile words
    /// `(ddr_addr − base) / TILE_BYTES ..` into the banks.
    ///
    /// # Errors
    /// Returns [`DmaError`] for unaligned or out-of-range descriptors
    /// before touching any data; [`DmaError::Truncated`] or
    /// [`DmaError::Parity`] when an injected transfer fault fires (the
    /// partially moved or corrupted data has already landed, as it would
    /// in hardware).
    ///
    /// # Panics
    /// Panics if the transfer exceeds the DDR region, or a DDR→bank
    /// descriptor reads outside the plane's staged region.
    pub fn run(
        &mut self,
        desc: &DmaDescriptor,
        ddr: &mut DdrModel,
        banks: BankGeometry,
        plane: Option<&mut DataPlane<'_>>,
    ) -> Result<u64, DmaError> {
        if !desc.ddr_addr.is_multiple_of(TILE_BYTES) {
            return Err(DmaError::Unaligned(desc.ddr_addr));
        }
        if desc.bank >= banks.banks {
            return Err(DmaError::BadBank(desc.bank));
        }
        let end = desc.bank_tile_index + desc.tiles;
        if end > banks.capacity {
            return Err(DmaError::BankOverflow { index: end - 1, capacity: banks.capacity });
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
            DmaDirection::DdrToBank => ddr.read_block(desc.ddr_addr, bytes),
            DmaDirection::BankToDdr => ddr.write_block(desc.ddr_addr, bytes),
        };
        if let (DmaDirection::DdrToBank, Some(plane)) = (desc.direction, plane) {
            let first = (desc.ddr_addr - plane.base) / TILE_BYTES;
            for t in 0..moved {
                let mut word = (plane.tile)(first + t);
                if let (0, Some(xor)) = (t, corrupt_xor) {
                    word[0] ^= xor;
                }
                plane.banks.write_tile_bytes(desc.bank, desc.bank_tile_index + t, &word);
            }
        }
        self.descriptors_run += 1;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    const GEOMETRY: BankGeometry = BankGeometry { banks: 4, capacity: 64 };

    /// A simple in-memory TileStore for testing.
    struct TestBanks {
        data: Vec<Vec<[u8; TILE_BYTES]>>,
    }

    impl TestBanks {
        fn new() -> Self {
            TestBanks { data: vec![vec![[0; TILE_BYTES]; GEOMETRY.capacity]; GEOMETRY.banks] }
        }
    }

    impl TileStore for TestBanks {
        fn write_tile_bytes(&mut self, bank: usize, index: usize, bytes: &[u8; TILE_BYTES]) {
            self.data[bank][index] = *bytes;
        }
    }

    /// Tile word `i` of the staged region: every byte `i`.
    fn ramp(i: usize) -> [u8; TILE_BYTES] {
        [i as u8; TILE_BYTES]
    }

    fn to_bank(ddr_addr: usize, bank_tile_index: usize, tiles: usize) -> DmaDescriptor {
        DmaDescriptor { direction: DmaDirection::DdrToBank, ddr_addr, bank: 2, bank_tile_index, tiles }
    }

    #[test]
    fn ddr_to_bank_moves_the_planes_tiles_and_bank_to_ddr_only_counts() {
        let mut ddr = DdrModel::new(4096);
        let mut banks = TestBanks::new();
        let mut dma = DmaController::new();
        // The region staged at 0x100; the descriptor starts 3 words in.
        let mut plane = DataPlane { base: 0x100, tile: &ramp, banks: &mut banks };
        let c1 = dma.run(&to_bank(0x130, 5, 10), &mut ddr, GEOMETRY, Some(&mut plane)).unwrap();
        assert_eq!(c1, ddr.burst_cycles(160));
        let back = DmaDescriptor { direction: DmaDirection::BankToDdr, ..to_bank(1024, 5, 10) };
        let c2 = dma.run(&back, &mut ddr, GEOMETRY, None).unwrap();
        assert_eq!(c2, c1);
        assert_eq!((ddr.bytes_read(), ddr.bytes_written()), (160, 160));
        assert_eq!(dma.descriptors_run(), 2);
        assert_eq!(banks.data[2][4], [0; TILE_BYTES]);
        assert_eq!(banks.data[2][5], ramp(3));
        assert_eq!(banks.data[2][14], ramp(12));
        assert_eq!(banks.data[2][15], [0; TILE_BYTES]);
    }

    #[test]
    fn without_a_plane_a_descriptor_is_traffic_alone() {
        let mut ddr = DdrModel::new(4096);
        let mut dma = DmaController::new();
        let cycles = dma.run(&to_bank(0, 0, 10), &mut ddr, GEOMETRY, None).unwrap();
        assert_eq!((cycles, ddr.bytes_read(), dma.descriptors_run()), (ddr.burst_cycles(160), 160, 1));
    }

    #[test]
    fn validation_happens_before_side_effects() {
        let mut ddr = DdrModel::new(4096);
        let mut dma = DmaController::new();
        let geometry = BankGeometry { banks: 2, capacity: 8 };
        let err = dma.run(&to_bank(3, 0, 1), &mut ddr, geometry, None).unwrap_err();
        assert_eq!(err, DmaError::Unaligned(3));
        assert_eq!(ddr.bytes_read(), 0, "no partial transfer");

        let err = dma.run(&DmaDescriptor { bank: 5, ..to_bank(0, 0, 1) }, &mut ddr, geometry, None).unwrap_err();
        assert_eq!(err, DmaError::BadBank(5));

        let err =
            dma.run(&DmaDescriptor { bank: 0, ..to_bank(0, 6, 4) }, &mut ddr, geometry, None).unwrap_err();
        assert_eq!(err, DmaError::BankOverflow { index: 9, capacity: 8 });
        assert_eq!(dma.descriptors_run(), 0);
    }

    #[test]
    fn injected_truncation_moves_partial_data_and_errors() {
        use zskip_fault::{FaultKind, FaultPlan};
        let mut ddr = DdrModel::new(4096);
        let mut banks = TestBanks::new();
        let mut dma = DmaController::new();
        let plan = FaultPlan::new()
            .inject("dma:xfer", 1, FaultKind::DmaTruncate { tiles: 3 })
            .shared();
        dma.set_fault_plan(plan.clone());
        let mut plane = DataPlane { base: 0, tile: &ramp, banks: &mut banks };
        let desc = to_bank(0, 0, 10);
        // Descriptor 0 is healthy (trigger ordinal is 1).
        dma.run(&desc, &mut ddr, GEOMETRY, None).unwrap();
        let err = dma.run(&desc, &mut ddr, GEOMETRY, Some(&mut plane)).unwrap_err();
        assert_eq!(err, DmaError::Truncated { moved: 3, expected: 10 });
        // The three moved tiles landed; the device reports the shortfall.
        assert_eq!(banks.data[2][2], ramp(2));
        assert_eq!(banks.data[2][3], [0; TILE_BYTES]);
        assert_eq!(ddr.bytes_read(), 160 + 48, "the short transfer's bytes");
        assert_eq!(dma.descriptors_run(), 2);
        assert_eq!(plan.lock().unwrap().fired().len(), 1);
        // One-shot: the next descriptor is healthy again.
        dma.run(&desc, &mut ddr, GEOMETRY, None).unwrap();
    }

    #[test]
    fn injected_corruption_trips_parity() {
        use zskip_fault::{FaultKind, FaultPlan};
        let mut ddr = DdrModel::new(4096);
        let mut banks = TestBanks::new();
        let mut dma = DmaController::new();
        dma.set_fault_plan(
            FaultPlan::new().inject("dma:xfer", 0, FaultKind::DmaCorrupt { xor: 0x80 }).shared(),
        );
        let mut plane = DataPlane { base: 0, tile: &|_| [0x01; TILE_BYTES], banks: &mut banks };
        let err = dma.run(&to_bank(0, 0, 2), &mut ddr, GEOMETRY, Some(&mut plane)).unwrap_err();
        assert_eq!(err, DmaError::Parity { tile: 0 });
        // The corrupted byte landed before the parity check rejected it.
        assert_eq!(banks.data[2][0][..2], [0x81, 0x01]);
        assert_eq!(banks.data[2][1][0], 0x01);
    }

    #[test]
    fn bulk_transfers_amortize() {
        let mut ddr = DdrModel::new(1 << 20);
        let mut dma = DmaController::new();
        let geometry = BankGeometry { banks: 1, capacity: 4096 };
        let desc = |tiles| DmaDescriptor { bank: 0, ..to_bank(0, 0, tiles) };
        let one = dma.run(&desc(1), &mut ddr, geometry, None).unwrap();
        let many = dma.run(&desc(1000), &mut ddr, geometry, None).unwrap();
        assert!((many as f64) < (one as f64) * 1000.0 / 10.0, "one={one} many={many}");
    }
}
