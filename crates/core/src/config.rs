//! Runtime accelerator configuration derived from an HLS variant.

use zskip_hls::{AccelArch, Variant};

/// Configuration of one simulated accelerator (one instance of paper
/// Fig. 3, or its 16-MAC strawman).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Staging/conv unit pairs (4 in the full design, 1 in `16-unopt`).
    pub units: usize,
    /// Filter lanes per conv unit (4 full, 1 in `16-unopt`).
    pub lanes: usize,
    /// Accelerator instances scheduled over by the placement layer
    /// (any N >= 1; the paper ships 1 and 2, larger counts model the
    /// scale-out devices of [`crate::exec::sched::CostModel`]).
    pub instances: usize,
    /// Capacity of each SRAM bank in tile words.
    pub bank_tiles: usize,
    /// Operating clock in MHz (from HLS synthesis).
    pub clock_mhz: f64,
    /// Depth of the inter-kernel data FIFOs.
    pub fifo_depth: usize,
    /// Scratchpad weight-fetch bandwidth in bytes per cycle (how fast the
    /// data-staging unit unpacks weights and offsets).
    pub weight_bytes_per_cycle: usize,
    /// Scratchpad capacity in bytes for one group's packed weights. Not
    /// modelled: no executor reads it (docs/ARCHITECTURE.md).
    pub scratchpad_bytes: usize,
}

impl AccelConfig {
    /// Builds the runtime configuration for a named paper variant,
    /// synthesizing it to obtain the operating clock.
    pub fn for_variant(variant: Variant) -> AccelConfig {
        let synth = variant.synthesize();
        Self::from_arch(&variant.arch(), synth.operating_mhz)
    }

    /// Builds the runtime configuration for `instances` copies of a
    /// variant's datapath, with bank capacity dividing the fixed RAM
    /// budget and the operating clock taken from the scale-out cost
    /// model ([`crate::exec::sched::CostModel`]): the smallest device of
    /// the ladder that fits, congestion-derated. One and two instances
    /// reproduce [`AccelConfig::for_variant`] of the matching paper
    /// variants.
    ///
    /// # Panics
    /// When `instances` is zero (callers validate first; the driver
    /// builder rejects zero instances with `config.invalid`).
    pub fn for_variant_instances(variant: Variant, instances: usize) -> AccelConfig {
        let cm = crate::exec::sched::CostModel::for_instances(variant, instances);
        Self::from_arch(&cm.arch, cm.clock_mhz)
    }

    /// Builds a configuration from raw architecture parameters (used for
    /// ablations and what-if sweeps).
    pub fn from_arch(arch: &AccelArch, clock_mhz: f64) -> AccelConfig {
        AccelConfig {
            units: arch.conv_units,
            lanes: arch.lanes,
            instances: arch.instances,
            bank_tiles: arch.bank_tiles,
            clock_mhz,
            fifo_depth: 4,
            weight_bytes_per_cycle: 16,
            scratchpad_bytes: 64 * 1024,
        }
    }

    /// Peak MACs per cycle per instance.
    pub fn macs_per_cycle_per_instance(&self) -> u64 {
        (self.units * self.lanes * 16) as u64
    }

    /// Peak MACs per cycle across all instances.
    pub fn macs_per_cycle(&self) -> u64 {
        self.macs_per_cycle_per_instance() * self.instances as u64
    }

    /// Peak arithmetic throughput in GOPS (2 ops per MAC).
    pub fn peak_gops(&self) -> f64 {
        2.0 * self.macs_per_cycle() as f64 * self.clock_mhz * 1e6 / 1e9
    }

    /// Seconds per cycle.
    pub fn cycle_seconds(&self) -> f64 {
        1.0 / (self.clock_mhz * 1e6)
    }

    /// Banks per instance (fixed by the quad-fetch geometry).
    pub const BANKS: usize = 4;

    /// Fixed per-instruction dispatch overhead in cycles (CSR doorbell,
    /// instruction decode, FSM entry).
    pub const INSTR_OVERHEAD_CYCLES: u64 = 24;

    /// Pipeline fill/drain cycles charged per OFM tile position (depth of
    /// the staging->conv->accumulator->write chain).
    pub const POSITION_DRAIN_CYCLES: u64 = 6;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_configs_match_paper_macs() {
        assert_eq!(AccelConfig::for_variant(Variant::U16Unopt).macs_per_cycle(), 16);
        assert_eq!(AccelConfig::for_variant(Variant::U256Opt).macs_per_cycle(), 256);
        assert_eq!(AccelConfig::for_variant(Variant::U512Opt).macs_per_cycle(), 512);
    }

    #[test]
    fn peak_gops_of_512_opt_near_paper_ideal() {
        let c = AccelConfig::for_variant(Variant::U512Opt);
        // 512 MACs x 2 x ~118 MHz ~ 120 GOPS.
        assert!((100.0..=140.0).contains(&c.peak_gops()), "peak {}", c.peak_gops());
    }

    #[test]
    fn bank_capacity_divides_across_instances() {
        // The paper's pair first: 512-opt is two instances on half banks.
        let one = AccelConfig::for_variant(Variant::U256Opt);
        let two = AccelConfig::for_variant(Variant::U512Opt);
        assert_eq!(one.bank_tiles, 2 * two.bank_tiles);
        // And the generalized geometry: any N divides the same budget.
        for n in [1, 2, 4, 8] {
            let c = AccelConfig::for_variant_instances(Variant::U256Opt, n);
            assert_eq!(c.instances, n);
            assert_eq!(c.bank_tiles, one.bank_tiles / n);
            assert_eq!(c.macs_per_cycle(), 256 * n as u64);
        }
    }

    #[test]
    fn for_variant_instances_reproduces_paper_clocks() {
        let one = AccelConfig::for_variant_instances(Variant::U256Opt, 1);
        assert_eq!(one.clock_mhz, AccelConfig::for_variant(Variant::U256Opt).clock_mhz);
        let two = AccelConfig::for_variant_instances(Variant::U256Opt, 2);
        assert_eq!(two.clock_mhz, AccelConfig::for_variant(Variant::U512Opt).clock_mhz);
    }

    #[test]
    fn cycle_seconds_inverse_of_clock() {
        let c = AccelConfig::from_arch(&AccelArch::full(1), 100.0);
        assert!((c.cycle_seconds() - 1e-8).abs() < 1e-15);
    }
}
