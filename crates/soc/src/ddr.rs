//! Off-chip DDR4 model: byte storage plus bandwidth/latency accounting.

/// A DDR4 memory region with transaction-level timing.
///
/// Timing model: each burst pays a fixed latency, then streams at the
/// configured bytes/cycle (the 256-bit System I bus moves 32 bytes per
/// fabric cycle when the DDR can feed it).
#[derive(Debug, Clone)]
pub struct DdrModel {
    data: Vec<u8>,
    bytes_per_cycle: u64,
    burst_latency_cycles: u64,
    bytes_read: u64,
    bytes_written: u64,
    busy_cycles: u64,
}

impl DdrModel {
    /// Default burst latency (row activate + CAS, in fabric cycles).
    pub const DEFAULT_BURST_LATENCY: u64 = 30;
    /// Default stream bandwidth: the 256-bit System I bus width.
    pub const DEFAULT_BYTES_PER_CYCLE: u64 = 32;

    /// Creates a DDR region of `size` bytes with default timing.
    pub fn new(size: usize) -> DdrModel {
        DdrModel {
            data: vec![0; size],
            bytes_per_cycle: Self::DEFAULT_BYTES_PER_CYCLE,
            burst_latency_cycles: Self::DEFAULT_BURST_LATENCY,
            bytes_read: 0,
            bytes_written: 0,
            busy_cycles: 0,
        }
    }

    /// Overrides the timing parameters.
    pub fn with_timing(mut self, bytes_per_cycle: u64, burst_latency_cycles: u64) -> DdrModel {
        assert!(bytes_per_cycle > 0, "bandwidth must be positive");
        self.bytes_per_cycle = bytes_per_cycle;
        self.burst_latency_cycles = burst_latency_cycles;
        self
    }

    /// Memory size in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Cycles to transfer `len` bytes as one burst.
    pub fn burst_cycles(&self, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        self.burst_latency_cycles + (len as u64).div_ceil(self.bytes_per_cycle)
    }

    /// Reads a block, returning `(bytes, cycles)`.
    ///
    /// # Panics
    /// Panics if the range exceeds the region.
    pub fn read_block(&mut self, addr: usize, len: usize) -> (&[u8], u64) {
        assert!(addr + len <= self.data.len(), "DDR read out of range");
        let cycles = self.burst_cycles(len);
        self.bytes_read += len as u64;
        self.busy_cycles += cycles;
        (&self.data[addr..addr + len], cycles)
    }

    /// Writes a block, returning the cycle cost.
    ///
    /// # Panics
    /// Panics if the range exceeds the region.
    pub fn write_block(&mut self, addr: usize, bytes: &[u8]) -> u64 {
        assert!(addr + bytes.len() <= self.data.len(), "DDR write out of range");
        self.data[addr..addr + bytes.len()].copy_from_slice(bytes);
        let cycles = self.burst_cycles(bytes.len());
        self.bytes_written += bytes.len() as u64;
        self.busy_cycles += cycles;
        cycles
    }

    /// Adds traffic to the byte counters without moving data or advancing
    /// the busy-cycle clock: how a caller that replays a recorded
    /// transaction sequence (instead of re-issuing it) keeps
    /// [`DdrModel::bytes_read`] / [`DdrModel::bytes_written`] exact.
    pub fn credit_traffic(&mut self, bytes_read: u64, bytes_written: u64) {
        self.bytes_read += bytes_read;
        self.bytes_written += bytes_written;
    }

    /// Total bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Total bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Total busy cycles across all transactions.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_data() {
        let mut ddr = DdrModel::new(1024);
        let payload: Vec<u8> = (0..100).collect();
        ddr.write_block(17, &payload);
        let (read, _) = ddr.read_block(17, 100);
        assert_eq!(read, &payload[..]);
    }

    #[test]
    fn burst_timing_has_latency_plus_stream() {
        let ddr = DdrModel::new(0).with_timing(32, 30);
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
        ddr.write_block(0, &[1; 64]);
        ddr.read_block(0, 64);
        ddr.read_block(64, 32);
        assert_eq!(ddr.bytes_written(), 64);
        assert_eq!(ddr.bytes_read(), 96);
        assert!(ddr.busy_cycles() > 0);
        let busy = ddr.busy_cycles();
        ddr.credit_traffic(4, 8);
        assert_eq!((ddr.bytes_read(), ddr.bytes_written(), ddr.busy_cycles()), (100, 72, busy));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_read_panics() {
        let mut ddr = DdrModel::new(16);
        let _ = ddr.read_block(10, 10);
    }
}
