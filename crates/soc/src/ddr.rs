//! Off-chip DDR4 model: bounds, traffic and bandwidth/latency accounting.
//!
//! The model keeps no bytes. What a transfer carries is the caller's
//! business (the DMA engine's data plane, [`crate::dma::DataPlane`]); the
//! DDR side of it is an address range to check, a byte count and a burst
//! to time.

/// A DDR4 memory region with transaction-level timing.
///
/// Timing model: each burst pays a fixed latency, then streams at the
/// configured bytes/cycle (the 256-bit System I bus moves 32 bytes per
/// fabric cycle when the DDR can feed it).
#[derive(Debug, Clone)]
pub struct DdrModel {
    size: usize,
    bytes_per_cycle: u64,
    burst_latency_cycles: u64,
    bytes_read: u64,
    bytes_written: u64,
}

impl DdrModel {
    /// Default burst latency (row activate + CAS, in fabric cycles).
    pub const DEFAULT_BURST_LATENCY: u64 = 30;
    /// Default stream bandwidth: the 256-bit System I bus width.
    pub const DEFAULT_BYTES_PER_CYCLE: u64 = 32;

    /// Creates a DDR region of `size` bytes with default timing.
    pub fn new(size: usize) -> DdrModel {
        DdrModel {
            size,
            bytes_per_cycle: Self::DEFAULT_BYTES_PER_CYCLE,
            burst_latency_cycles: Self::DEFAULT_BURST_LATENCY,
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    /// Cycles to transfer `len` bytes as one burst.
    pub fn burst_cycles(&self, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        self.burst_latency_cycles + (len as u64).div_ceil(self.bytes_per_cycle)
    }

    /// Accounts a read burst of `len` bytes at `addr`, returning its cycle
    /// cost.
    ///
    /// # Panics
    /// Panics if the range exceeds the region.
    pub fn read_block(&mut self, addr: usize, len: usize) -> u64 {
        assert!(addr + len <= self.size, "DDR read out of range");
        self.bytes_read += len as u64;
        self.burst_cycles(len)
    }

    /// Accounts a write burst of `len` bytes at `addr`, returning its
    /// cycle cost.
    ///
    /// # Panics
    /// Panics if the range exceeds the region.
    pub fn write_block(&mut self, addr: usize, len: usize) -> u64 {
        assert!(addr + len <= self.size, "DDR write out of range");
        self.bytes_written += len as u64;
        self.burst_cycles(len)
    }

    /// Total bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Total bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_timing_has_latency_plus_stream() {
        // The defaults: 32 bytes per cycle after a 30-cycle latency.
        let ddr = DdrModel::new(0);
        assert_eq!(ddr.burst_cycles(0), 0);
        assert_eq!(ddr.burst_cycles(1), 31);
        assert_eq!(ddr.burst_cycles(32), 31);
        assert_eq!(ddr.burst_cycles(33), 32);
        assert_eq!(ddr.burst_cycles(3200), 130);
    }

    #[test]
    fn large_bursts_amortize_latency() {
        let ddr = DdrModel::new(0);
        let per_byte_small = ddr.burst_cycles(64) as f64 / 64.0;
        let per_byte_big = ddr.burst_cycles(65536) as f64 / 65536.0;
        assert!(per_byte_big < per_byte_small / 5.0);
    }

    #[test]
    fn stats_accumulate() {
        let mut ddr = DdrModel::new(256);
        assert_eq!(ddr.write_block(0, 64), 32);
        assert_eq!(ddr.read_block(0, 64), 32);
        assert_eq!(ddr.read_block(64, 32), 31);
        assert_eq!(ddr.bytes_written(), 64);
        assert_eq!(ddr.bytes_read(), 96);
        // The last byte of the region is in range.
        ddr.write_block(255, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_read_panics() {
        let mut ddr = DdrModel::new(16);
        let _ = ddr.read_block(10, 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_write_panics() {
        let mut ddr = DdrModel::new(16);
        let _ = ddr.write_block(16, 1);
    }
}
