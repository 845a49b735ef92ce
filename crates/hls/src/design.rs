//! The accelerator's module inventory and the synthesis entry point.
//!
//! Module inventories are *structural*: mux fan-ins, multiplier counts,
//! FSM state counts and register banks follow directly from the paper's
//! architecture (Figs. 3-5) as a function of the architecture parameters.
//! Synthesis schedules each module's loop body under the clock constraint,
//! sums resources, and derates fmax for routing congestion at high
//! utilization.

use crate::bitwidth::{minimize_widths, DatapathWidths, VGG16_MAX_ACCUM_TERMS};
use crate::ir::{ModuleKind, Op};
use crate::resource::{congestion_derate, Device, Resources, Utilization};
use crate::schedule::{schedule_ops, HlsConstraints, PipelineSchedule};

/// Architecture parameters of the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccelArch {
    /// Convolution units (and staging units) per accelerator instance:
    /// 4 in the full design of paper Fig. 3, 1 in the `16-unopt` strawman.
    pub conv_units: usize,
    /// Filter lanes per convolution unit (weights applied per cycle from
    /// distinct filters): 4 in the full design, 1 in `16-unopt`.
    pub lanes: usize,
    /// Accelerator instances (the paper's `512-opt` is `256-opt` at 2).
    pub instances: usize,
    /// Capacity of each on-FPGA SRAM bank, in 16-byte tile words.
    pub bank_tiles: usize,
}

impl AccelArch {
    /// Peak multiply-accumulates per clock cycle
    /// (`instances x conv_units x lanes x 16`).
    pub fn macs_per_cycle(&self) -> u64 {
        (self.instances * self.conv_units * self.lanes * 16) as u64
    }

    /// SRAM banks per instance (fixed at 4 by the tile/quad geometry).
    pub const BANKS_PER_INSTANCE: usize = 4;

    /// Total bank capacity in tiles across all banks of one instance.
    pub fn instance_bank_tiles(&self) -> usize {
        Self::BANKS_PER_INSTANCE * self.bank_tiles
    }
}

/// Synthesized area and timing of one module class.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleArea {
    /// Which module.
    pub kind: ModuleKind,
    /// Instances of this module across the whole design.
    pub count: usize,
    /// Total resources over all instances.
    pub resources: Resources,
    /// Pipeline schedule of the module's loop body (None for storage-only
    /// or hand-written modules).
    pub schedule: Option<PipelineSchedule>,
}

/// Result of synthesizing an architecture under constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisResult {
    /// The architecture synthesized.
    pub arch: AccelArch,
    /// The constraints applied.
    pub constraints: HlsConstraints,
    /// Target device.
    pub device: Device,
    /// Per-module areas.
    pub modules: Vec<ModuleArea>,
    /// Total resources.
    pub total: Resources,
    /// Device utilization.
    pub utilization: Utilization,
    /// Post-congestion achievable clock (MHz).
    pub achieved_fmax_mhz: f64,
    /// Operating clock: `min(requested, achieved)` (MHz).
    pub operating_mhz: f64,
}

impl SynthesisResult {
    /// Area entry for a module kind.
    pub fn module(&self, kind: ModuleKind) -> Option<&ModuleArea> {
        self.modules.iter().find(|m| m.kind == kind)
    }

    /// Peak arithmetic throughput in GOPS (2 ops per MAC) at the operating
    /// clock.
    pub fn peak_gops(&self) -> f64 {
        2.0 * self.arch.macs_per_cycle() as f64 * self.operating_mhz * 1e6 / 1e9
    }
}

/// FSM states of the (split) data-staging controllers. The paper's
/// monolithic controller synthesized to hundreds of states and was split
/// into a convolution FSM and a pad/pool FSM (§IV-A).
const CONV_FSM_STATES: usize = 160;
const POOL_FSM_STATES: usize = 120;

/// ALMs of fan-out buffering per FSM state (the "high-fanout stall logic").
const FSM_FANOUT_ALMS_PER_STATE: f64 = 14.0;

/// ALMs per flip-flop (each ALM provides two registers, but placement
/// rarely packs both).
const ALMS_PER_FF: f64 = 0.7;

/// Pipeline registers: extra ALMs per register stage, as a fraction of the
/// module's combinational ALMs (the area cost of the `-opt` variants).
const PIPELINE_REG_FRACTION: f64 = 0.22;

/// LUT-RAM FIFO cost: control plus MLAB storage (the paper forced FIFOs
/// into LUT RAM to save M20K blocks).
const FIFO_ALMS: f64 = 56.0;

/// Builds every module's op inventory and loop body for the architecture.
/// Returns `(kind, count, loop_body, area_ops, extra_alms)` tuples.
#[allow(clippy::type_complexity)]
fn module_inventories(
    arch: &AccelArch,
    widths: &DatapathWidths,
) -> Vec<(ModuleKind, usize, Vec<Op>, Vec<(Op, usize)>, f64)> {
    let inst = arch.instances;
    let units = arch.conv_units;
    let lanes = arch.lanes;
    let mults_per_conv = lanes * 16;
    let (pw, aw) = (widths.partial_bits, widths.accum_bits);

    let mut out = Vec::new();

    // Data-staging/control: split FSMs, address generation, weight
    // unpacking muxes, IFM tile double-buffers.
    out.push((
        ModuleKind::Staging,
        inst * units,
        vec![
            Op::FifoRead,
            Op::Decode { states: CONV_FSM_STATES },
            Op::Add { bits: 24 },
            Op::MemRead,
            Op::Mux { inputs: 8, bits: 16 },
            Op::FifoWrite,
        ],
        vec![
            (Op::Decode { states: CONV_FSM_STATES }, 1),
            (Op::Decode { states: POOL_FSM_STATES }, 1),
            (Op::Add { bits: 24 }, 6),                    // address generators
            (Op::Mux { inputs: 8, bits: 16 }, 2 * lanes), // packed-weight unpack
            (Op::Mux { inputs: 16, bits: 16 }, 2),        // bank word steering
            (Op::MemRead, 2),
            (Op::FifoWrite, 3),
            (Op::Cmp { bits: 16 }, 6),
        ],
        // IFM quad double-buffer: 2 x 4 tiles x 128 b of registers, plus
        // FSM fan-out buffering.
        2.0 * 4.0 * 128.0 * ALMS_PER_FF
            + (CONV_FSM_STATES + POOL_FSM_STATES) as f64 * FSM_FANOUT_ALMS_PER_STATE,
    ));

    // Convolution unit: per lane, 16 steering muxes (16:1 over the quad
    // region, Fig. 4b), 16 sign+magnitude multipliers.
    out.push((
        ModuleKind::Conv,
        inst * units,
        vec![
            Op::FifoRead,
            Op::Mux { inputs: 16, bits: 8 },
            Op::Mult { bits: 8 },
            Op::SignXor,
            Op::FifoWrite,
        ],
        vec![
            (Op::Mux { inputs: 16, bits: 8 }, mults_per_conv),
            (Op::Mult { bits: 8 }, mults_per_conv),
            (Op::SignXor, mults_per_conv),
            (Op::FifoRead, 2),
            (Op::FifoWrite, lanes),
        ],
        // Quad-region operand registers (8x8 bytes, double-buffered) and
        // weight/offset registers per lane.
        2.0 * 64.0 * 8.0 * ALMS_PER_FF + lanes as f64 * 16.0 * ALMS_PER_FF,
    ));

    // Accumulator unit: one OFM tile (16 values); products arrive from all
    // conv units. Partial-sum alignment muxes dominate ("heavy MUX'ing").
    let accum_count = inst * lanes;
    out.push((
        ModuleKind::Accum,
        accum_count,
        vec![
            Op::FifoRead,
            Op::Add { bits: pw },
            Op::Add { bits: pw },
            Op::Add { bits: aw },
            Op::FifoWrite,
        ],
        vec![
            (Op::Mux { inputs: 16, bits: aw }, 16),              // alignment muxes
            (Op::Add { bits: pw }, 16 * (units.saturating_sub(1)).max(1)), // product tree
            (Op::Add { bits: aw }, 16),                          // accumulate
            (Op::Mult { bits: 16 }, 16),                         // requant multiply
            (Op::Cmp { bits: 16 }, 4),                           // completion detect
            (Op::FifoRead, units),
            (Op::FifoWrite, 1),
        ],
        // Accumulator registers (range-analysis width) + tile output buffer.
        (16.0 * aw as f64 + 16.0 * 8.0) * ALMS_PER_FF,
    ));

    // Pool/pad unit: 4 MAX units (each selecting any of the 16 IFM values
    // via muxes and a compare tree), 16 output update muxes (Fig. 5). The
    // 16-unopt strawman instantiates a single unit alongside its single
    // conv sub-module.
    out.push((
        ModuleKind::PoolPad,
        inst * units,
        vec![
            Op::FifoRead,
            Op::Mux { inputs: 16, bits: 8 },
            Op::Max { bits: 8 },
            Op::Max { bits: 8 },
            Op::Mux { inputs: 5, bits: 8 },
            Op::FifoWrite,
        ],
        vec![
            (Op::Mux { inputs: 16, bits: 8 }, 4 * 4), // 4 MAX units x 4 input selects
            (Op::Max { bits: 8 }, 4 * 3),             // compare trees
            (Op::Mux { inputs: 5, bits: 8 }, 16),     // output update muxes
            (Op::Decode { states: 24 }, 1),           // micro-instruction decode
            (Op::FifoRead, 2),
            (Op::FifoWrite, 1),
        ],
        16.0 * 8.0 * 2.0 * ALMS_PER_FF, // OFM tile register + input stage
    ));

    // Write-to-memory unit.
    out.push((
        ModuleKind::Write,
        inst * units,
        vec![Op::FifoRead, Op::MemWrite],
        vec![(Op::FifoRead, 2), (Op::MemWrite, 1), (Op::Add { bits: 24 }, 2)],
        16.0,
    ));

    // Inter-kernel FIFOs: instruction + data queues per edge of Fig. 3.
    let fifo_count = inst
        * (units            // staging -> conv
            + units * lanes // conv -> accum (per-lane links)
            + lanes         // accum -> write
            + units         // staging -> pool/pad
            + units         // pool/pad -> write
            + units + 4); // instruction queues
    out.push((ModuleKind::Fifos, fifo_count, vec![Op::FifoRead, Op::FifoWrite], Vec::new(), FIFO_ALMS));

    // DMA engine: hand-written RTL, fixed cost, 256-bit datapath.
    out.push((ModuleKind::Dma, 1, vec![Op::MemRead, Op::MemWrite], Vec::new(), 3_200.0));

    // Qsys interconnect, CSRs, HPS bridges: fixed plus per-instance cost.
    out.push((
        ModuleKind::Interconnect,
        1,
        vec![Op::FifoRead, Op::FifoWrite],
        Vec::new(),
        11_500.0 + 4_500.0 * inst as f64,
    ));

    out
}

/// M20K blocks for the SRAM banks and weight scratchpads.
fn ram_blocks(arch: &AccelArch) -> f64 {
    // A bank reads one 128-bit tile word per cycle: four M20Ks in parallel
    // (40-bit max native width), each 512 words deep at that width.
    let blocks_per_bank = 4.0 * (arch.bank_tiles as f64 / 512.0).ceil();
    let banks = (arch.instances * AccelArch::BANKS_PER_INSTANCE) as f64;
    // Packed-weight scratchpads: 16 M20Ks per instance.
    banks * blocks_per_bank + 16.0 * arch.instances as f64
}

/// Synthesizes the architecture under the given constraints for a device,
/// with automated bitwidth minimization (the paper's §IV-A default) sized
/// for the deepest VGG-16 accumulation.
pub fn synthesize(arch: &AccelArch, constraints: &HlsConstraints, device: &Device) -> SynthesisResult {
    synthesize_with_widths(arch, constraints, device, &minimize_widths(VGG16_MAX_ACCUM_TERMS))
}

/// Synthesis with explicit datapath widths — pass
/// [`crate::bitwidth::conservative_widths`] to ablate the bitwidth-
/// minimization pass.
pub fn synthesize_with_widths(
    arch: &AccelArch,
    constraints: &HlsConstraints,
    device: &Device,
    widths: &DatapathWidths,
) -> SynthesisResult {
    let mut modules = Vec::new();
    let mut total = Resources::ZERO;
    let mut critical_ns = 0.0f64;

    for (kind, count, body, area_ops, extra_alms) in module_inventories(arch, widths) {
        let schedule = schedule_ops(&body, constraints);
        critical_ns = critical_ns.max(schedule.critical_path_ns);

        let mut alms = extra_alms;
        let mut dsps = 0.0;
        for (op, n) in &area_ops {
            alms += op.alms() * *n as f64;
            dsps += op.dsps() * *n as f64;
        }
        // Pipeline registers scale with depth (the -opt area cost).
        alms *= 1.0 + PIPELINE_REG_FRACTION * schedule.register_stages() as f64;

        let per_unit = Resources::new(alms, dsps, 0.0);
        let res = per_unit.scaled(count as f64);
        total += res;
        modules.push(ModuleArea { kind, count, resources: res, schedule: Some(schedule) });
    }

    // Bank + scratchpad RAM.
    let m20k = ram_blocks(arch);
    total += Resources::new(0.0, 0.0, m20k);
    if let Some(fifos) = modules.iter_mut().find(|m| m.kind == ModuleKind::Fifos) {
        // RAM is accounted at top level; FIFOs stay in LUT RAM by design.
        let _ = fifos;
    }

    let utilization = device.utilization(total);
    let raw_fmax = 1000.0 / critical_ns;
    let achieved = congestion_derate(raw_fmax, utilization.alm);
    let requested = 1000.0 / constraints.target_period_ns;

    SynthesisResult {
        arch: *arch,
        constraints: *constraints,
        device: *device,
        modules,
        total,
        utilization,
        achieved_fmax_mhz: achieved,
        operating_mhz: achieved.min(requested),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::Variant;

    #[test]
    fn macs_per_cycle_matches_paper() {
        assert_eq!(Variant::U16Unopt.arch(1).macs_per_cycle(), 16);
        assert_eq!(Variant::U256Opt.arch(1).macs_per_cycle(), 256);
        assert_eq!(Variant::U256Opt.arch(2).macs_per_cycle(), 512);
    }

    #[test]
    fn full_arch_halves_banks_when_doubled() {
        assert_eq!(Variant::U256Opt.arch(1).instance_bank_tiles(), 4 * 32_768);
        assert_eq!(Variant::U256Opt.arch(2).instance_bank_tiles(), 4 * 16_384);
    }

    #[test]
    fn synthesis_produces_all_modules() {
        let r = synthesize(&Variant::U256Opt.arch(1), &HlsConstraints::optimized_150mhz(), &Device::arria10_sx660());
        for kind in ModuleKind::all() {
            assert!(r.module(kind).is_some(), "missing {kind:?}");
        }
        assert!(r.total.alms > 0.0 && r.total.dsps > 0.0 && r.total.m20k > 0.0);
    }

    #[test]
    fn opt_variant_is_faster_but_larger_than_unopt() {
        let device = Device::arria10_sx660();
        let arch = Variant::U256Opt.arch(1);
        let unopt = synthesize(&arch, &HlsConstraints::unoptimized_55mhz(), &device);
        let opt = synthesize(&arch, &HlsConstraints::optimized_150mhz(), &device);
        assert!(opt.operating_mhz > unopt.operating_mhz);
        assert!(opt.total.alms > unopt.total.alms, "pipelining costs registers");
    }

    #[test]
    fn doubling_instances_derates_clock() {
        let device = Device::arria10_sx660();
        let one = synthesize(&Variant::U256Opt.arch(1), &HlsConstraints::optimized_150mhz(), &device);
        let two = synthesize(&Variant::U256Opt.arch(2), &HlsConstraints::optimized_150mhz(), &device);
        assert!(two.operating_mhz < one.operating_mhz, "congestion must bite: {} vs {}", two.operating_mhz, one.operating_mhz);
        assert!(two.utilization.alm > one.utilization.alm * 1.6);
        assert!(two.utilization.fits(), "512-opt must still fit: {}", two.utilization);
    }

    #[test]
    fn conv_accum_staging_dominate_area() {
        // The paper's Fig. 6: convolution, accumulator and
        // data-staging/control take most of the ALMs due to heavy muxing.
        let r = synthesize(&Variant::U256Opt.arch(1), &HlsConstraints::optimized_150mhz(), &Device::arria10_sx660());
        let alms = |k: ModuleKind| r.module(k).unwrap().resources.alms;
        let big = alms(ModuleKind::Conv) + alms(ModuleKind::Accum) + alms(ModuleKind::Staging);
        assert!(big / r.total.alms > 0.55, "big 3 fraction {}", big / r.total.alms);
        assert!(alms(ModuleKind::Write) < alms(ModuleKind::Conv) / 5.0);
    }

    #[test]
    fn utilization_bands_match_paper_256_opt() {
        // In-text: 256-opt uses 44% ALM / 25% DSP / 49% RAM. The model
        // should land in the same bands.
        let r = synthesize(&Variant::U256Opt.arch(1), &HlsConstraints::optimized_150mhz(), &Device::arria10_sx660());
        let u = r.utilization;
        assert!((0.36..=0.52).contains(&u.alm), "ALM {:.2}", u.alm);
        assert!((0.17..=0.33).contains(&u.dsp), "DSP {:.2}", u.dsp);
        assert!((0.41..=0.57).contains(&u.m20k), "M20K {:.2}", u.m20k);
    }

    #[test]
    fn operating_clocks_match_paper_bands() {
        let device = Device::arria10_sx660();
        let opt1 = synthesize(&Variant::U256Opt.arch(1), &HlsConstraints::optimized_150mhz(), &device);
        assert!((opt1.operating_mhz - 150.0).abs() < 1.0, "256-opt {:.0} MHz", opt1.operating_mhz);
        let opt2 = synthesize(&Variant::U256Opt.arch(2), &HlsConstraints::optimized_150mhz(), &device);
        assert!((105.0..=135.0).contains(&opt2.operating_mhz), "512-opt {:.0} MHz", opt2.operating_mhz);
        let unopt = synthesize(&Variant::U256Opt.arch(1), &HlsConstraints::unoptimized_55mhz(), &device);
        assert!((unopt.operating_mhz - 55.0).abs() < 1.0, "256-unopt {:.0} MHz", unopt.operating_mhz);
    }

    #[test]
    fn bitwidth_minimization_saves_area() {
        use crate::bitwidth::conservative_widths;
        let device = Device::arria10_sx660();
        let arch = Variant::U256Opt.arch(1);
        let c = HlsConstraints::optimized_150mhz();
        let minimized = synthesize(&arch, &c, &device);
        let conservative = synthesize_with_widths(&arch, &c, &device, &conservative_widths());
        assert!(
            minimized.total.alms < conservative.total.alms * 0.97,
            "range analysis must save ALMs: {:.0} vs {:.0}",
            minimized.total.alms,
            conservative.total.alms
        );
        // Savings concentrate in the accumulators (narrower adders/muxes).
        let acc_min = minimized.module(ModuleKind::Accum).unwrap().resources.alms;
        let acc_con = conservative.module(ModuleKind::Accum).unwrap().resources.alms;
        assert!(acc_min < acc_con);
    }

    #[test]
    fn peak_gops_scales_with_units_and_clock() {
        let device = Device::arria10_sx660();
        let r512 = synthesize(&Variant::U256Opt.arch(2), &HlsConstraints::optimized_150mhz(), &device);
        let r256 = synthesize(&Variant::U256Opt.arch(1), &HlsConstraints::optimized_150mhz(), &device);
        assert!(r512.peak_gops() > r256.peak_gops() * 1.4);
        // 512 MACs x 2 ops x ~120 MHz ~ 123 GOPS peak arithmetic.
        assert!((100.0..=160.0).contains(&r512.peak_gops()), "peak {}", r512.peak_gops());
    }
}
