//! The paper's three datapath variants and its four design points (§V).

use crate::design::{synthesize, AccelArch, SynthesisResult};
use crate::resource::Device;
use crate::schedule::HlsConstraints;

/// A datapath plus the HLS constraints it is synthesized under. How many
/// copies run is a separate count: see [`PAPER_POINTS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Variant {
    /// Simplified single conv sub-module, 16 MACs/cycle, 55 MHz.
    U16Unopt,
    /// One full accelerator (Fig. 3), 256 MACs/cycle, not performance
    /// optimized, 55 MHz.
    U256Unopt,
    /// One full accelerator, performance optimized, 150 MHz.
    U256Opt,
}

/// The paper's four design points as (label, variant, instances). Its
/// 512-opt is two 256-opt accelerators on separate stripes, 120 MHz
/// (congestion-limited).
pub const PAPER_POINTS: [(&str, Variant, usize); 4] = [
    ("16-unopt", Variant::U16Unopt, 1),
    ("256-unopt", Variant::U256Unopt, 1),
    ("256-opt", Variant::U256Opt, 1),
    ("512-opt", Variant::U256Opt, 2),
];

impl Variant {
    /// All three variants in the paper's order.
    pub fn all() -> [Variant; 3] {
        [Variant::U16Unopt, Variant::U256Unopt, Variant::U256Opt]
    }

    /// The paper's label.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::U16Unopt => "16-unopt",
            Variant::U256Unopt => "256-unopt",
            Variant::U256Opt => "256-opt",
        }
    }

    /// `instances` copies of this variant's datapath, bank capacity
    /// dividing the fixed RAM budget across them.
    ///
    /// # Panics
    /// When `instances` is zero.
    pub fn arch(&self, instances: usize) -> AccelArch {
        assert!(instances >= 1, "need at least one instance");
        let (conv_units, lanes) = match self {
            Variant::U16Unopt => (1, 1),
            Variant::U256Unopt | Variant::U256Opt => (4, 4),
        };
        AccelArch { conv_units, lanes, instances, bank_tiles: 32_768 / instances }
    }

    /// The HLS/RTL constraints applied.
    pub fn constraints(&self) -> HlsConstraints {
        match self {
            Variant::U16Unopt | Variant::U256Unopt => HlsConstraints::unoptimized_55mhz(),
            Variant::U256Opt => HlsConstraints::optimized_150mhz(),
        }
    }

    /// Synthesizes `instances` copies of this variant for the paper's
    /// device.
    pub fn synthesize(&self, instances: usize) -> SynthesisResult {
        synthesize(&self.arch(instances), &self.constraints(), &Device::arria10_sx660())
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_macs_match_paper() {
        let macs: Vec<u64> = PAPER_POINTS.iter().map(|(_, v, n)| v.arch(*n).macs_per_cycle()).collect();
        assert_eq!(macs, vec![16, 256, 256, 512]);
        let labels: Vec<&str> = Variant::all().iter().map(Variant::label).collect();
        assert_eq!(labels, vec!["16-unopt", "256-unopt", "256-opt"]);
        // A single-instance point carries its variant's own label.
        for (label, variant, instances) in PAPER_POINTS {
            assert_eq!(instances == 1, label == variant.label(), "{label}");
        }
    }

    #[test]
    fn synthesized_clock_ordering() {
        let clocks: Vec<f64> = PAPER_POINTS.iter().map(|(_, v, n)| v.synthesize(*n).operating_mhz).collect();
        // 55, 55, 150, ~120.
        assert!((clocks[0] - 55.0).abs() < 1.0);
        assert!((clocks[1] - 55.0).abs() < 1.0);
        assert!(clocks[2] > clocks[3] && clocks[3] > clocks[1]);
    }

    #[test]
    fn every_design_point_fits_the_device() {
        for (label, v, n) in PAPER_POINTS {
            let r = v.synthesize(n);
            assert!(r.utilization.fits(), "{label} does not fit: {}", r.utilization);
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = Variant::U256Opt.synthesize(2);
        let b = Variant::U256Opt.synthesize(2);
        assert_eq!(a.total, b.total);
        assert_eq!(a.operating_mhz, b.operating_mhz);
    }

    #[test]
    fn gt1150_carries_two_instances_at_full_clock() {
        // The paper: "on a larger Arria 10 FPGA family member (e.g.
        // GT1150), with nearly double the capacity, software changes alone
        // would allow us to scale out the design further."
        let v = Variant::U256Opt;
        let r = synthesize(&v.arch(2), &v.constraints(), &Device::arria10_gt1150());
        assert!(r.utilization.fits());
        assert!((r.operating_mhz - 150.0).abs() < 1.0, "no congestion derate at {:.0}%", r.utilization.alm * 100.0);
        assert_eq!(r.arch.macs_per_cycle(), 512);
    }

    #[test]
    fn sixteen_unopt_is_tiny() {
        // Compare compute-module area only; DMA and interconnect are fixed
        // infrastructure shared by every variant.
        use crate::ir::ModuleKind;
        let compute = |r: &SynthesisResult| {
            r.modules
                .iter()
                .filter(|m| !matches!(m.kind, ModuleKind::Dma | ModuleKind::Interconnect))
                .map(|m| m.resources.alms)
                .sum::<f64>()
        };
        let small = Variant::U16Unopt.synthesize(1);
        let big = Variant::U256Unopt.synthesize(1);
        assert!(compute(&small) < compute(&big) / 3.0, "{} vs {}", compute(&small), compute(&big));
    }
}
