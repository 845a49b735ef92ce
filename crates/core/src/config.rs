//! Runtime accelerator configuration derived from an HLS variant.

use zskip_hls::{AccelArch, Variant};

/// Configuration of the simulated accelerators: `instances` copies of one
/// datapath (paper Fig. 3, or its 16-MAC strawman) sharing one clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Staging/conv unit pairs (4 in the full design, 1 in `16-unopt`).
    pub units: usize,
    /// Filter lanes per conv unit (4 full, 1 in `16-unopt`).
    pub lanes: usize,
    /// Accelerator instances scheduled over by the placement layer
    /// (any N >= 1; the paper ships 1 and 2 — its 512-opt is 256-opt at
    /// 2 — larger counts model the scale-out devices of
    /// [`crate::exec::sched::CostModel`]).
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
    /// Builds the runtime configuration for `instances` copies of a
    /// variant's datapath ([`Variant::arch`]), with the operating clock
    /// taken from the scale-out cost model
    /// ([`crate::exec::sched::CostModel`]): the smallest device of the
    /// ladder that fits, congestion-derated. Every point of the paper's
    /// [`zskip_hls::PAPER_POINTS`] lands on its SX660, so its clock is
    /// that of [`Variant::synthesize`].
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
    use zskip_hls::PAPER_POINTS;

    #[test]
    fn paper_points_match_paper_macs() {
        let macs: Vec<u64> =
            PAPER_POINTS.iter().map(|&(_, v, n)| AccelConfig::for_variant_instances(v, n).macs_per_cycle()).collect();
        assert_eq!(macs, [16, 256, 256, 512]);
    }

    #[test]
    fn peak_gops_of_512_opt_near_paper_ideal() {
        let c = AccelConfig::for_variant_instances(Variant::U256Opt, 2);
        // 512 MACs x 2 x ~118 MHz ~ 120 GOPS.
        assert!((100.0..=140.0).contains(&c.peak_gops()), "peak {}", c.peak_gops());
    }

    #[test]
    fn bank_capacity_divides_across_instances() {
        // Any N divides the one instance's RAM budget, the paper's pair included.
        let one = AccelConfig::for_variant_instances(Variant::U256Opt, 1);
        for n in [1, 2, 4, 8] {
            let c = AccelConfig::for_variant_instances(Variant::U256Opt, n);
            assert_eq!(c.instances, n);
            assert_eq!(c.bank_tiles, one.bank_tiles / n);
            assert_eq!(c.macs_per_cycle(), 256 * n as u64);
        }
    }

    #[test]
    fn for_variant_instances_reproduces_paper_clocks() {
        for (label, variant, instances) in PAPER_POINTS {
            let c = AccelConfig::for_variant_instances(variant, instances);
            assert_eq!(c.clock_mhz, variant.synthesize(instances).operating_mhz, "{label}");
        }
    }

    #[test]
    fn cycle_seconds_inverse_of_clock() {
        let c = AccelConfig::from_arch(&Variant::U256Opt.arch(1), 100.0);
        assert!((c.cycle_seconds() - 1e-8).abs() < 1e-15);
    }
}
