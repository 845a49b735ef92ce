//! The four dual-port on-FPGA SRAM banks.
//!
//! "An entire tile of data (16 values) can be read from an SRAM bank in a
//! single cycle. The on-FPGA SRAM banks are dual-port: reads are from port
//! A; writes are to port B." (paper §III-A). The paper's RTL post-
//! processing step gave reads and writes exclusive ports precisely to
//! avoid arbitration; we enforce one read and one write per bank per cycle
//! and count violations as conflicts.

use crate::config::AccelConfig;
use zskip_quant::Sm8;
use zskip_soc::dma::{TileStore, TILE_BYTES};
use zskip_tensor::Tile;

/// Per-bank access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Port-A reads performed.
    pub reads: u64,
    /// Port-B writes performed.
    pub writes: u64,
    /// Read attempts refused because port A was busy this cycle.
    pub read_conflicts: u64,
    /// Write attempts refused because port B was busy this cycle.
    pub write_conflicts: u64,
}

/// A set of SRAM banks storing tile words of [`Sm8`] values.
///
/// Port exclusivity is tracked by stamping each port with the cycle of its
/// last grant instead of a flag cleared every cycle: a port is busy iff its
/// stamp equals the current cycle. This removes the need for any per-cycle
/// maintenance call, so an event-driven simulation can park every kernel
/// touching the banks without someone having to tick just to reset ports.
#[derive(Debug, Clone)]
pub struct BankSet {
    banks: Vec<Vec<Tile<Sm8>>>,
    read_stamp: Vec<u64>,
    write_stamp: Vec<u64>,
    stats: Vec<BankStats>,
}

impl BankSet {
    /// Creates zeroed banks per the configuration.
    pub fn new(config: &AccelConfig) -> BankSet {
        Self::with_geometry(AccelConfig::BANKS, config.bank_tiles)
    }

    /// Creates zeroed banks with explicit geometry.
    pub fn with_geometry(banks: usize, tiles_per_bank: usize) -> BankSet {
        BankSet {
            banks: vec![vec![Tile::zero(); tiles_per_bank]; banks],
            read_stamp: vec![u64::MAX; banks],
            write_stamp: vec![u64::MAX; banks],
            stats: vec![BankStats::default(); banks],
        }
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Capacity of each bank in tile words.
    pub fn capacity(&self) -> usize {
        self.banks.first().map_or(0, Vec::len)
    }

    /// Cycle-free read (host/DMA-side or model backend; no port
    /// accounting).
    ///
    /// # Panics
    /// Panics on out-of-range bank or address.
    pub fn peek(&self, bank: usize, addr: usize) -> Tile<Sm8> {
        self.banks[bank][addr]
    }

    /// Cycle-free write (host/DMA-side or model backend).
    pub fn poke(&mut self, bank: usize, addr: usize, tile: Tile<Sm8>) {
        self.banks[bank][addr] = tile;
    }

    /// Port-A read at the given cycle: succeeds at most once per bank per
    /// cycle.
    pub fn read_port_a(&mut self, bank: usize, addr: usize, cycle: u64) -> Option<Tile<Sm8>> {
        if self.read_stamp[bank] == cycle {
            self.stats[bank].read_conflicts += 1;
            return None;
        }
        self.read_stamp[bank] = cycle;
        self.stats[bank].reads += 1;
        Some(self.banks[bank][addr])
    }

    /// Port-B write at the given cycle: succeeds at most once per bank per
    /// cycle.
    pub fn write_port_b(&mut self, bank: usize, addr: usize, tile: Tile<Sm8>, cycle: u64) -> bool {
        if self.write_stamp[bank] == cycle {
            self.stats[bank].write_conflicts += 1;
            return false;
        }
        self.write_stamp[bank] = cycle;
        self.stats[bank].writes += 1;
        self.banks[bank][addr] = tile;
        true
    }

    /// Frees every port: a stamp is a cycle of the run that granted it,
    /// and the next run on this set counts its cycles from 0 again, so a
    /// grant left standing would refuse that run's first access of the
    /// port if it falls on the stamped cycle (two instructions that each
    /// write a bank once, at the same cycle, are enough).
    /// [`crate::cycle::run`] calls this where a run starts; data and
    /// statistics are kept.
    pub fn release_ports(&mut self) {
        self.read_stamp.fill(u64::MAX);
        self.write_stamp.fill(u64::MAX);
    }

    /// Copies words `words` of bank `bank` from `from` (host-side, no
    /// port accounting): how one engine's output reaches the bank set of
    /// the pass it belongs to.
    ///
    /// # Panics
    /// Panics on out-of-range bank or addresses in either set.
    pub fn copy_words_from(&mut self, from: &BankSet, bank: usize, words: std::ops::Range<usize>) {
        self.banks[bank][words.clone()].copy_from_slice(&from.banks[bank][words]);
    }

    /// Per-bank statistics.
    pub fn stats(&self) -> &[BankStats] {
        &self.stats
    }

    /// Total reads across banks.
    pub fn total_reads(&self) -> u64 {
        self.stats.iter().map(|s| s.reads).sum()
    }

    /// Total writes across banks.
    pub fn total_writes(&self) -> u64 {
        self.stats.iter().map(|s| s.writes).sum()
    }
}

impl TileStore for BankSet {
    fn banks(&self) -> usize {
        self.bank_count()
    }

    fn bank_capacity(&self) -> usize {
        self.capacity()
    }

    fn write_tile_bytes(&mut self, bank: usize, index: usize, bytes: &[u8; TILE_BYTES]) {
        let mut tile = Tile::zero();
        for (i, b) in bytes.iter().enumerate() {
            tile.as_mut_array()[i] = Sm8::from_bits(*b);
        }
        self.banks[bank][index] = tile;
    }

    fn read_tile_bytes(&self, bank: usize, index: usize) -> [u8; TILE_BYTES] {
        let tile = &self.banks[bank][index];
        let mut out = [0u8; TILE_BYTES];
        for (i, v) in tile.as_array().iter().enumerate() {
            out[i] = v.to_bits();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile_of(v: i32) -> Tile<Sm8> {
        Tile::from_fn(|_, _| Sm8::from_i32_saturating(v))
    }

    #[test]
    fn poke_peek_round_trip() {
        let mut b = BankSet::with_geometry(4, 8);
        b.poke(2, 3, tile_of(7));
        assert_eq!(b.peek(2, 3), tile_of(7));
        assert_eq!(b.peek(2, 4), Tile::zero());
    }

    #[test]
    fn one_read_per_bank_per_cycle() {
        let mut b = BankSet::with_geometry(4, 8);
        b.poke(0, 0, tile_of(1));
        b.poke(0, 1, tile_of(2));
        assert_eq!(b.read_port_a(0, 0, 0), Some(tile_of(1)));
        assert_eq!(b.read_port_a(0, 1, 0), None, "port A busy");
        // Other banks unaffected.
        assert!(b.read_port_a(1, 0, 0).is_some());
        // Next cycle: port free again.
        assert_eq!(b.read_port_a(0, 1, 1), Some(tile_of(2)));
        assert_eq!(b.stats()[0].read_conflicts, 1);
    }

    #[test]
    fn reads_and_writes_use_independent_ports() {
        let mut b = BankSet::with_geometry(4, 8);
        b.poke(0, 0, tile_of(5));
        // Same cycle: read port A and write port B on the same bank.
        assert!(b.read_port_a(0, 0, 0).is_some());
        assert!(b.write_port_b(0, 1, tile_of(9), 0));
        assert!(!b.write_port_b(0, 2, tile_of(9), 0), "port B busy");
        assert_eq!(b.peek(0, 1), tile_of(9));
        assert_eq!(b.stats()[0].write_conflicts, 1);
        assert_eq!(b.total_reads(), 1);
        assert_eq!(b.total_writes(), 1);
    }

    #[test]
    fn released_ports_forget_the_last_run_and_keep_data_and_stats() {
        let mut b = BankSet::with_geometry(4, 8);
        assert!(b.read_port_a(0, 0, 7).is_some());
        assert!(b.write_port_b(0, 1, tile_of(3), 7));
        b.release_ports();
        // The next run reaches cycle 7 too: no grant of the last one stands.
        assert!(b.read_port_a(0, 0, 7).is_some());
        assert!(b.write_port_b(0, 2, tile_of(4), 7));
        assert_eq!(b.peek(0, 1), tile_of(3));
        assert_eq!(b.stats()[0], BankStats { reads: 2, writes: 2, read_conflicts: 0, write_conflicts: 0 });
    }

    #[test]
    fn copy_words_moves_one_bank_range_only() {
        let mut from = BankSet::with_geometry(4, 8);
        for addr in 0..8 {
            from.poke(1, addr, tile_of(addr as i32 + 1));
            from.poke(2, addr, tile_of(50));
        }
        let mut to = BankSet::with_geometry(4, 8);
        to.copy_words_from(&from, 1, 2..5);
        for addr in 0..8 {
            let want = if (2..5).contains(&addr) { tile_of(addr as i32 + 1) } else { Tile::zero() };
            assert_eq!(to.peek(1, addr), want);
            assert_eq!(to.peek(2, addr), Tile::zero());
        }
    }

    #[test]
    fn tile_store_preserves_sign_magnitude_bits() {
        let mut b = BankSet::with_geometry(2, 4);
        let mut bytes = [0u8; TILE_BYTES];
        bytes[0] = 0x85; // -5 in sign+magnitude
        bytes[15] = 0x7f; // +127
        b.write_tile_bytes(1, 2, &bytes);
        assert_eq!(b.peek(1, 2).as_array()[0].to_i32(), -5);
        assert_eq!(b.peek(1, 2).as_array()[15].to_i32(), 127);
        assert_eq!(b.read_tile_bytes(1, 2), bytes);
    }
}
