//! The transaction-level backend: closed-form cycles and activity
//! counters, no arithmetic.
//!
//! Full VGG-16 inference is ~10^8 accelerator cycles — too slow to run at
//! cycle granularity for every sweep point. This backend costs the same
//! instruction streams as [`crate::cycle`] with a **closed-form cycle
//! cost** derived from the kernel implementations, and computes no output
//! bytes: the golden walk is the functional reference for every layer, and
//! the cycle engine is the functional oracle for the accelerator's data
//! movement (stripes, halos, DMA layout, bank addressing). The cost:
//!
//! * the data-staging unit is the steady-state bottleneck: every
//!   downstream unit sustains one item per cycle, inter-kernel FIFO slack
//!   hides the accumulate/finalize/barrier latency between positions, so
//!   the position cost is the *slowest staging unit's* phase sum — the
//!   lockstep filter imbalance and the 4-cycle quad-load floor appear
//!   exactly as in hardware;
//! * fixed per-instruction costs (decode, dispatch, pipeline fill, final
//!   drain) are small constants taken from the kernel structure.
//!
//! Cycle counts never depend on activation values — only on weight
//! sparsity and geometry — so a stream's cost is a pure function of its
//! instructions and weights. Property tests (`model_matches_cycle_backend`)
//! validate the cost formula against the cycle-exact backend on
//! randomized layers; see DESIGN.md §2 for the two-level-simulation
//! methodology.

use crate::config::AccelConfig;
use crate::isa::{ConvInstr, Instruction, PoolPadInstr};
use crate::weights::GroupWeights;
use zskip_sim::Counters;

/// Fixed cycles per conv instruction besides the position work:
/// controller decode + dispatch, staging command pop, quad pipeline fill,
/// and the end-of-instruction drain through conv -> accumulator ->
/// barrier -> write -> done. Derived from the kernel structure, validated
/// by the cross-backend property tests.
const CONV_FIXED_CYCLES: u64 = AccelConfig::INSTR_OVERHEAD_CYCLES + 2 + 1 + 4 + 10;

/// Fixed cycles per pool/pad instruction.
const POOL_FIXED_CYCLES: u64 = AccelConfig::INSTR_OVERHEAD_CYCLES + 2 + 1 + 6;

/// Costs an instruction stream at transaction level: its cycles, with
/// its activity counters added to `counters`. `groups[k]` is the packed
/// weights of the `k`-th conv instruction in stream order, read in place
/// (callers holding a scratchpad byte image index it once with
/// [`GroupWeights::from_bytes`]).
///
/// # Panics
/// Panics if `groups` has fewer entries than the stream has conv
/// instructions — the driver constructs both.
pub fn run(
    config: &AccelConfig,
    instructions: &[Instruction],
    groups: &[GroupWeights<'_>],
    counters: &mut Counters,
) -> u64 {
    let mut groups = groups.iter();
    let mut cycles = 0;
    for i in instructions {
        cycles += match i {
            Instruction::Conv(c) => {
                let weights = groups.next().expect("one group per conv instruction");
                run_conv(config, c, counters, weights)
            }
            Instruction::PoolPad(p) => run_poolpad(config, p, counters),
        };
    }
    // Shared per-run epilogue (shutdown propagation).
    cycles + 4
}

/// Closed-form cost of one conv instruction: its cycles and its idle
/// lane-slots (pipeline bubbles) per position.
///
/// One pass over the IFMs, each read once off the tile index: unit `u`
/// takes IFMs `u, u + units, ...`, each costing the larger of the 4-cycle
/// quad load, its lockstep steps and its weight fetch, and a wholly zero
/// IFM nothing; every unit then emits its end-of-position marker, and
/// the slowest unit sets the position's pace.
fn conv_cost(config: &AccelConfig, i: &ConvInstr, weights: &GroupWeights<'_>) -> (u64, u64) {
    let positions = i.ofm_tile_rows as u64 * i.ofm_tiles_x as u64;
    let (lanes, fetch) = (weights.lanes() as u64, config.weight_bytes_per_cycle as u64);
    let (mut worst_unit, mut bubbles) = (0u64, 0u64);
    for unit in 0..config.units {
        let mut work = 1; // the end-of-position marker; fully-skipped units still emit one
        for ifm in (unit..i.ifm_count as usize).step_by(config.units) {
            let w = weights.ifm_work(ifm);
            if w.steps > 0 {
                work += 4u64.max(w.steps as u64).max((w.bytes as u64).div_ceil(fetch));
                bubbles += w.steps as u64 * lanes - w.nnz as u64;
            }
        }
        worst_unit = worst_unit.max(work);
    }
    (CONV_FIXED_CYCLES + positions * worst_unit, bubbles)
}

fn run_conv(config: &AccelConfig, i: &ConvInstr, counters: &mut Counters, weights: &GroupWeights<'_>) -> u64 {
    let positions = i.ofm_tile_rows as u64 * i.ofm_tiles_x as u64;
    let (cycles, bubbles) = conv_cost(config, i, weights);

    // Activity counters (same definitions as the cycle kernels; a skipped
    // IFM has neither weights nor bubbles).
    let applied = weights.total_nnz() as u64;
    counters.add("weights_applied", applied * positions);
    counters.add("macs", applied * positions * 16);
    counters.add("bubble_lanes", bubbles * positions);
    counters.add("ofm_tiles_written", positions * (i.active_lanes as u64));
    cycles
}

fn run_poolpad(config: &AccelConfig, i: &PoolPadInstr, counters: &mut Counters) -> u64 {
    let positions = i.out_tile_rows as usize * i.out_tiles_x as usize;
    // Program lengths are channel-independent, so one channel's sum over
    // the positions is every channel's. Channel `c` runs on unit
    // `c % units`: the busiest unit runs `ceil(channels / units)` of them.
    let channels = i.channels as usize;
    let per_channel: u64 = (0..positions)
        .map(|pos| {
            let oty_local = pos / i.out_tiles_x as usize;
            let otx = pos % i.out_tiles_x as usize;
            (crate::poolpad::compile_tile_program(i.op, i.out_row_start as usize + oty_local, otx).len() as u64)
                .max(1)
        })
        .sum();
    counters.add("pool_microops", channels as u64 * per_channel);
    counters.add("ofm_tiles_written", (channels * positions) as u64);
    POOL_FIXED_CYCLES + channels.div_ceil(config.units) as u64 * per_channel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::BankSet;
    use crate::cycle;
    use crate::isa::PoolPadOp;
    use crate::layout::FmLayout;
    use proptest::prelude::*;
    use zskip_hls::{AccelArch, Variant};
    use zskip_nn::conv::QuantConvWeights;
    use zskip_quant::{Requantizer, Sm8};
    use zskip_tensor::{Shape, Tensor, TiledFeatureMap};

    fn config() -> AccelConfig {
        AccelConfig::from_arch(&AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 4096 }, 100.0)
    }

    /// Builds banks + scratchpad + instruction stream for a conv layer
    /// (mirrors the cycle-backend test helper).
    fn build_conv(
        cfg: &AccelConfig,
        qw: &QuantConvWeights,
        input: &Tensor<Sm8>,
    ) -> (BankSet, Vec<u8>, Vec<Instruction>) {
        let padded = input.padded(1);
        let tiled_in = TiledFeatureMap::from_tensor(&padded);
        let in_layout = FmLayout::full(0, padded.shape());
        let out_shape = Shape::new(qw.out_c, input.shape().h, input.shape().w);
        let out_layout = FmLayout::full(in_layout.end(), out_shape);
        let mut banks = BankSet::new(cfg);
        in_layout.store(&mut banks, &tiled_in, 0..tiled_in.tiles_y());
        let mut scratchpad = Vec::new();
        let mut instrs = Vec::new();
        for g in 0..qw.out_c.div_ceil(cfg.lanes) {
            let gw = GroupWeights::from_filters(qw, g * cfg.lanes, cfg.lanes);
            let instr =
                ConvInstr::for_group(qw, g * cfg.lanes, cfg.lanes, &in_layout, 0, &out_layout, scratchpad.len());
            instrs.push(Instruction::Conv(instr.expect("test geometry fits the instruction fields")));
            scratchpad.extend_from_slice(gw.as_bytes());
        }
        (banks, scratchpad, instrs)
    }

    /// The conv instructions' group weights, indexed once in the
    /// scratchpad image the cycle backend consumes.
    fn parse_groups<'a>(cfg: &AccelConfig, scratchpad: &'a [u8], instrs: &[Instruction]) -> Vec<GroupWeights<'a>> {
        instrs
            .iter()
            .filter_map(|i| match i {
                Instruction::Conv(c) => Some(
                    GroupWeights::from_bytes(&scratchpad[c.wgt_base as usize..], c.ifm_count as usize, cfg.lanes)
                        .expect("well-formed scratchpad image"),
                ),
                Instruction::PoolPad(_) => None,
            })
            .collect()
    }

    /// The cycle backend with default options.
    fn run_cycle(cfg: &AccelConfig, banks: BankSet, scratchpad: &[u8], instrs: &[Instruction]) -> cycle::CycleOutcome {
        cycle::run(cfg, banks, scratchpad, instrs, &Default::default()).expect("cycle run completes")
    }

    /// The model on the groups parsed from `scratchpad`: its cycles and
    /// the counters it filled.
    fn run_model(cfg: &AccelConfig, scratchpad: &[u8], instrs: &[Instruction]) -> (u64, Counters) {
        let mut counters = Counters::new();
        (run(cfg, instrs, &parse_groups(cfg, scratchpad, instrs), &mut counters), counters)
    }

    fn random_qw(out_c: usize, in_c: usize, seed: u64, density_pct: u64) -> QuantConvWeights {
        let w: Vec<Sm8> = (0..out_c * in_c * 9)
            .map(|i| {
                let h = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed) >> 33;
                if h % 100 < density_pct {
                    Sm8::from_i32_saturating((h % 255) as i32 - 127)
                } else {
                    Sm8::ZERO
                }
            })
            .collect();
        QuantConvWeights::new(
            out_c,
            in_c,
            3,
            w,
            (0..out_c as i64).map(|o| (o * 17) % 50 - 25).collect(),
            Requantizer::from_ratio(1.0 / 32.0),
            true,
        )
    }

    fn random_input(c: usize, h: usize, w: usize, seed: u64) -> Tensor<Sm8> {
        Tensor::from_fn(c, h, w, |ci, y, x| {
            let v = ((ci * 131 + y * 31 + x * 7) as u64).wrapping_mul(seed | 1) >> 17;
            Sm8::from_i32_saturating((v % 255) as i32 - 127)
        })
    }

    fn assert_cycles_close(model: u64, sim: u64, instrs: usize) {
        let diff = model.abs_diff(sim) as f64;
        let tol = 0.02 * sim as f64 + 48.0 * instrs as f64;
        assert!(diff <= tol, "model {model} vs sim {sim} (diff {diff}, tol {tol:.0})");
    }

    #[test]
    fn model_counters_match_cycle_counters() {
        let cfg = config();
        let qw = random_qw(8, 4, 7, 50);
        let input = random_input(4, 8, 8, 3);
        let (banks, scratch, instrs) = build_conv(&cfg, &qw, &input);
        let cyc = run_cycle(&cfg, banks, &scratch, &instrs);
        let (_, counters) = run_model(&cfg, &scratch, &instrs);
        for key in ["macs", "weights_applied", "bubble_lanes", "ofm_tiles_written"] {
            assert_eq!(counters.get(key), cyc.counters.get(key), "counter {key}");
        }
    }

    #[test]
    fn groups_parsed_from_bytes_run_like_the_groups_that_produced_them() {
        // The driver hands `run` the groups it packed; tests and benches
        // that hold a scratchpad image parse it. Same cycles and counters
        // either way.
        let cfg = config();
        let qw = random_qw(10, 6, 23, 40);
        let input = random_input(6, 8, 8, 4);
        let (_, scratch, instrs) = build_conv(&cfg, &qw, &input);
        let packed: Vec<GroupWeights<'_>> =
            (0..instrs.len()).map(|g| GroupWeights::from_filters(&qw, g * cfg.lanes, cfg.lanes)).collect();
        let parsed = parse_groups(&cfg, &scratch, &instrs);
        let (mut from_packed, mut from_parsed) = (Counters::new(), Counters::new());
        let packed_cycles = run(&cfg, &instrs, &packed, &mut from_packed);
        assert_eq!(packed_cycles, run(&cfg, &instrs, &parsed, &mut from_parsed));
        assert_eq!(from_packed, from_parsed);
    }

    #[test]
    fn model_cycles_match_cycle_backend_dense() {
        let cfg = config();
        let qw = random_qw(8, 8, 1, 100);
        let input = random_input(8, 16, 16, 5);
        let (banks, scratch, instrs) = build_conv(&cfg, &qw, &input);
        let n = instrs.len();
        let sim = run_cycle(&cfg, banks, &scratch, &instrs).cycles;
        let (model, _) = run_model(&cfg, &scratch, &instrs);
        assert_cycles_close(model, sim, n);
    }

    #[test]
    fn model_cycles_match_on_16_unopt() {
        let base = AccelConfig::from_arch(&Variant::U16Unopt.arch(1), 55.0);
        let cfg = AccelConfig { bank_tiles: 4096, ..base };
        let qw = random_qw(5, 3, 11, 70);
        let input = random_input(3, 8, 8, 2);
        let (banks, scratch, instrs) = build_conv(&cfg, &qw, &input);
        let n = instrs.len();
        let sim = run_cycle(&cfg, banks, &scratch, &instrs).cycles;
        let (model, _) = run_model(&cfg, &scratch, &instrs);
        assert_cycles_close(model, sim, n);
    }

    /// The per-unit costing the one-pass [`conv_cost`] replaced, as its
    /// oracle: unit by unit, every IFM filtered to its unit, and each
    /// lane's count byte read again for steps and again for bubbles.
    fn oracle_cost(config: &AccelConfig, i: &ConvInstr, weights: &GroupWeights<'_>) -> (u64, u64) {
        let positions = i.ofm_tile_rows as u64 * i.ofm_tiles_x as u64;
        let nnz = |ifm: usize| (0..weights.lanes()).map(move |l| weights.lane_tile(ifm, l).nnz() as u64);
        let steps = |ifm: usize| nnz(ifm).max().unwrap_or(0);
        let mut worst_unit = 0u64;
        for s in 0..config.units {
            let mut work = 0u64;
            for ifm in (0..i.ifm_count as usize).filter(|c| c % config.units == s) {
                if steps(ifm) == 0 {
                    continue;
                }
                let wfetch = (weights.ifm_bytes(ifm) as u64).div_ceil(config.weight_bytes_per_cycle as u64);
                work += 4u64.max(steps(ifm)).max(wfetch);
            }
            worst_unit = worst_unit.max(work + 1);
        }
        let bubbles = (0..i.ifm_count as usize).map(|ifm| nnz(ifm).map(|n| steps(ifm) - n).sum::<u64>()).sum();
        (CONV_FIXED_CYCLES + positions * worst_unit, bubbles)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One pass over the IFMs costs a group exactly as the per-unit
        /// oracle does, cycles and bubbles, for any unit count, lane
        /// count, weight fetch width and sparsity (wholly zero IFMs
        /// included).
        #[test]
        fn one_pass_cost_equals_the_per_unit_oracle(
            units in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
            lanes in prop_oneof![Just(1usize), Just(2), Just(3), Just(4), Just(8)],
            fetch in prop_oneof![Just(1usize), Just(2), Just(3), Just(8), Just(16), Just(64)],
            out_c in 1usize..12,
            in_c in 1usize..20,
            density in 0u64..=100,
            seed in 0u64..1000,
            rows in 1u16..4,
            cols in 1u16..4,
        ) {
            let config = AccelConfig { units, lanes, weight_bytes_per_cycle: fetch, ..config() };
            let qw = random_qw(out_c, in_c, seed, density);
            for first in (0..out_c).step_by(lanes) {
                let weights = GroupWeights::from_filters(&qw, first, lanes);
                let i = ConvInstr {
                    ofm_first: first as u16,
                    ifm_count: in_c as u16,
                    ifm_base: 0,
                    ifm_tiles_x: cols + 1,
                    ifm_tile_rows: rows + 1,
                    ifm_row_offset: 0,
                    ofm_base: 0,
                    ofm_tiles_x: cols,
                    ofm_tile_rows: rows,
                    wgt_base: 0,
                    bias: [0; 4],
                    requant_mult: 1,
                    requant_shift: 0,
                    relu: false,
                    active_lanes: lanes.min(out_c - first) as u8,
                };
                prop_assert_eq!(conv_cost(&config, &i, &weights), oracle_cost(&config, &i, &weights), "group at {}", first);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn model_matches_cycle_backend(
            out_c in 1usize..10,
            in_c in 1usize..9,
            hw in 1usize..3,
            density in 10u64..100,
            seed in 0u64..1000,
        ) {
            let cfg = config();
            let h = hw * 8;
            let qw = random_qw(out_c, in_c, seed, density);
            let input = random_input(in_c, h, h, seed ^ 0x55);
            let (banks, scratch, instrs) = build_conv(&cfg, &qw, &input);
            let cyc = run_cycle(&cfg, banks, &scratch, &instrs);
            let (model, _) = run_model(&cfg, &scratch, &instrs);

            // Cycle equivalence within tolerance.
            let diff = model.abs_diff(cyc.cycles) as f64;
            let tol = 0.02 * cyc.cycles as f64 + 48.0 * instrs.len() as f64;
            prop_assert!(diff <= tol, "model {} vs sim {} (tol {:.0})", model, cyc.cycles, tol);
        }
    }

    #[test]
    fn pool_model_matches_cycle_backend() {
        let cfg = config();
        let input = random_input(8, 16, 16, 77);
        let tiled_in = TiledFeatureMap::from_tensor(&input);
        let in_layout = FmLayout::full(0, input.shape());
        let out_shape = Shape::new(8, 8, 8);
        let out_layout = FmLayout::full(in_layout.end(), out_shape);
        let mut banks = BankSet::new(&cfg);
        in_layout.store(&mut banks, &tiled_in, 0..4);
        let instr = Instruction::PoolPad(PoolPadInstr {
            channels: 8,
            in_base: 0,
            in_tiles_x: 4,
            in_tile_rows: 4,
            in_row_start: 0,
            out_base: out_layout.base as u32,
            out_tiles_x: 2,
            out_tile_rows: 2,
            out_row_start: 0,
            op: PoolPadOp::MaxPool { k: 2, stride: 2 },
        });
        let cyc = run_cycle(&cfg, banks, &[], &[instr]);
        let (model, _) = run_model(&cfg, &[], &[instr]);
        assert_cycles_close(model, cyc.cycles, 1);
    }
}

#[cfg(test)]
mod pool_proptests {
    use super::*;
    use crate::bank::BankSet;
    use crate::cycle;
    use crate::isa::PoolPadOp;
    use crate::layout::FmLayout;
    use proptest::prelude::*;
    use zskip_hls::AccelArch;
    use zskip_quant::Sm8;
    use zskip_tensor::{Shape, Tensor, TiledFeatureMap};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn pool_backends_agree_for_arbitrary_geometry(
            k in 1u8..=3,
            stride in 1u8..=2,
            channels in 1usize..=6,
            seed in 0u64..100,
        ) {
            let cfg = AccelConfig::from_arch(
                &AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 2048 },
                100.0,
            );
            let hw = 12usize;
            prop_assume!(hw >= k as usize);
            let out_hw = (hw - k as usize) / stride as usize + 1;
            let input = Tensor::from_fn(channels, hw, hw, |c, y, x| {
                Sm8::from_i32_saturating((((c * 7 + y * 13 + x) as u64 ^ seed) % 255) as i32 - 127)
            });
            let tiled = TiledFeatureMap::from_tensor(&input);
            let in_layout = FmLayout::full(0, input.shape());
            let out_shape = Shape::new(channels, out_hw, out_hw);
            let out_fm = TiledFeatureMap::<Sm8>::zeros(out_shape);
            let out_layout = FmLayout {
                base: in_layout.end(),
                channels,
                tiles_x: out_fm.tiles_x(),
                tile_rows: out_fm.tiles_y(),
            };
            let mut banks = BankSet::new(&cfg);
            in_layout.store(&mut banks, &tiled, 0..tiled.tiles_y());
            let instr = Instruction::PoolPad(PoolPadInstr {
                channels: channels as u16,
                in_base: 0,
                in_tiles_x: in_layout.tiles_x as u16,
                in_tile_rows: in_layout.tile_rows as u16,
                in_row_start: 0,
                out_base: out_layout.base as u32,
                out_tiles_x: out_layout.tiles_x as u16,
                out_tile_rows: out_layout.tile_rows as u16,
                out_row_start: 0,
                op: PoolPadOp::MaxPool { k, stride },
            });
            let cyc = cycle::run(&cfg, banks, &[], &[instr], &Default::default()).unwrap();
            let model = run(&cfg, &[instr], &[], &mut Counters::new());

            // The cycle engine matches the software reference.
            let mut a = TiledFeatureMap::zeros(out_shape);
            out_layout.load(&cyc.banks, &mut a, 0..out_layout.tile_rows);
            let want = zskip_nn::pool::maxpool_quant(&input, k as usize, stride as usize);
            prop_assert_eq!(a.to_tensor().cropped(out_hw, out_hw), want);
            // Cycle tolerance.
            let diff = model.abs_diff(cyc.cycles) as f64;
            prop_assert!(diff <= 0.03 * cyc.cycles as f64 + 64.0, "model {} sim {}", model, cyc.cycles);
        }
    }
}
