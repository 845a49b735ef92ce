//! The transaction-level backend: closed-form cycles, functional results.
//!
//! Full VGG-16 inference is ~10^8 accelerator cycles — too slow to run at
//! cycle granularity for every sweep point. This backend executes the same
//! instruction streams as [`crate::cycle`] with identical functional
//! semantics (bit-exact bank contents) and a **closed-form cycle cost**
//! derived from the kernel implementations:
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
//! Property tests (`model_matches_cycle_backend`) validate the cost
//! formula against the cycle-exact backend on randomized layers; see
//! DESIGN.md §2 for the two-level-simulation methodology.

use crate::bank::BankSet;
use crate::config::AccelConfig;
use crate::isa::{ConvInstr, Instruction, PoolPadInstr};
use crate::layout::FmLayout;
use crate::poolpad::run_tile_program;
use crate::weights::GroupWeights;
use zskip_quant::{Requantizer, Sm8};
use zskip_sim::Counters;
use zskip_tensor::Tile;

/// Fixed cycles per conv instruction besides the position work:
/// controller decode + dispatch, staging command pop, quad pipeline fill,
/// and the end-of-instruction drain through conv -> accumulator ->
/// barrier -> write -> done. Derived from the kernel structure, validated
/// by the cross-backend property tests.
const CONV_FIXED_CYCLES: u64 = AccelConfig::INSTR_OVERHEAD_CYCLES + 2 + 1 + 4 + 10;

/// Fixed cycles per pool/pad instruction.
const POOL_FIXED_CYCLES: u64 = AccelConfig::INSTR_OVERHEAD_CYCLES + 2 + 1 + 6;

/// Outcome of the transaction-level execution of an instruction stream.
#[derive(Debug, Clone)]
pub struct ModelOutcome {
    /// Estimated cycles.
    pub cycles: u64,
    /// Activity counters with the same definitions as the cycle backend.
    pub counters: Counters,
}

/// Executes an instruction stream at transaction level. `groups[k]` is
/// the packed weights of the `k`-th conv instruction in stream order, read
/// in place (callers holding a scratchpad byte image index it once with
/// [`GroupWeights::from_bytes`]).
///
/// With `functional = false` only cycle costs and counters are produced
/// (bank contents untouched). Cycle counts never depend on activation
/// values — only on weight sparsity and geometry — so sweeps that report
/// throughput alone can skip the arithmetic.
///
/// # Panics
/// Panics if an instruction references data outside the banks or
/// `groups` has fewer entries than the stream has conv instructions —
/// the driver constructs both.
pub fn run(
    config: &AccelConfig,
    banks: &mut BankSet,
    instructions: &[Instruction],
    groups: &[GroupWeights<'_>],
    counters: &mut Counters,
    functional: bool,
) -> ModelOutcome {
    let mut groups = groups.iter();
    let mut cycles = 0;
    for i in instructions {
        cycles += match i {
            Instruction::Conv(c) => {
                let weights = groups.next().expect("one group per conv instruction");
                run_conv(config, banks, c, counters, functional, weights)
            }
            Instruction::PoolPad(p) => run_poolpad(config, banks, p, counters, functional),
        };
    }
    // Shared per-run epilogue (shutdown propagation).
    cycles += 4;
    ModelOutcome { cycles, counters: counters.clone() }
}

fn in_layout(i: &ConvInstr) -> FmLayout {
    FmLayout {
        base: i.ifm_base as usize,
        channels: i.ifm_count as usize,
        tiles_x: i.ifm_tiles_x as usize,
        tile_rows: i.ifm_tile_rows as usize,
    }
}

/// Assembles the 8x8 quad region of channel `ifm` anchored at output tile
/// `(ty, tx)` — identical addressing to the staging kernel.
fn quad_region(banks: &BankSet, i: &ConvInstr, ifm: usize, ty: usize, tx: usize) -> [Sm8; 64] {
    let layout = in_layout(i);
    let bank = FmLayout::bank_of(ifm);
    let mut region = [Sm8::ZERO; 64];
    for (r, c) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)] {
        let row = ty + i.ifm_row_offset as usize + r;
        let col = tx + c;
        let tile = if row >= i.ifm_tile_rows as usize || col >= i.ifm_tiles_x as usize {
            Tile::zero()
        } else {
            banks.peek(bank, layout.addr(ifm, row, col))
        };
        for y in 0..4 {
            for x in 0..4 {
                region[(r * 4 + y) * 8 + c * 4 + x] = tile[(y, x)];
            }
        }
    }
    region
}

/// Closed-form cycle count of one conv instruction (no functional work).
/// Shared by the functional executor and the driver's planning estimates.
pub fn conv_instruction_cycles(config: &AccelConfig, i: &ConvInstr, weights: &GroupWeights<'_>) -> u64 {
    let positions = i.ofm_tile_rows as u64 * i.ofm_tiles_x as u64;
    let mut worst_unit = 0u64;
    for s in 0..config.units {
        let mut work = 0u64;
        for ifm in (0..i.ifm_count as usize).filter(|c| c % config.units == s) {
            let steps = weights.steps(ifm) as u64;
            if steps == 0 {
                continue; // whole-channel zero skip
            }
            let wfetch = (weights.ifm_bytes(ifm) as u64).div_ceil(config.weight_bytes_per_cycle as u64);
            work += 4u64.max(steps).max(wfetch);
        }
        // End-of-position marker; fully-skipped units still emit one.
        work += 1;
        worst_unit = worst_unit.max(work);
    }
    CONV_FIXED_CYCLES + positions * worst_unit
}

fn run_conv(
    config: &AccelConfig,
    banks: &mut BankSet,
    i: &ConvInstr,
    counters: &mut Counters,
    functional: bool,
    weights: &GroupWeights<'_>,
) -> u64 {
    let positions = i.ofm_tile_rows as u64 * i.ofm_tiles_x as u64;
    let requant = Requantizer { mult: i.requant_mult as u32, shift: i.requant_shift as u32 };
    let cycles = conv_instruction_cycles(config, i, weights);

    // Activity counters (same definitions as the cycle kernels; a skipped
    // IFM has neither weights nor bubbles).
    let applied = weights.total_nnz() as u64;
    let bubbles: u64 = (0..i.ifm_count as usize).map(|ifm| weights.bubbles(ifm) as u64).sum();
    counters.add("weights_applied", applied * positions);
    counters.add("macs", applied * positions * 16);
    counters.add("bubble_lanes", bubbles * positions);

    if !functional {
        counters.add(
            "ofm_tiles_written",
            positions * (i.active_lanes as u64),
        );
        return cycles;
    }

    // Functional execution: output-stationary, per position.
    let out_planes = positions as usize;
    for pos in 0..positions as usize {
        let (ty, tx) = (pos / i.ofm_tiles_x as usize, pos % i.ofm_tiles_x as usize);
        let mut acc = vec![[0i64; 16]; config.lanes];
        for (lane, a) in acc.iter_mut().enumerate() {
            a.fill(i.bias[lane] as i64);
        }
        for ifm in 0..i.ifm_count as usize {
            if weights.steps(ifm) == 0 {
                continue;
            }
            let region = quad_region(banks, i, ifm, ty, tx);
            for (lane, a) in acc.iter_mut().enumerate() {
                for e in weights.lane_tile(ifm, lane).entries() {
                    let (dy, dx) = zskip_tensor::offset_to_dydx(e.offset);
                    for (j, slot) in a.iter_mut().enumerate() {
                        let v = region[(dy + j / 4) * 8 + (dx + j % 4)];
                        *slot += e.value.mul_exact(v) as i64;
                    }
                }
            }
        }
        for (lane, a) in acc.iter().enumerate() {
            if lane >= i.active_lanes as usize {
                continue;
            }
            let channel = i.ofm_first as usize + lane;
            let mut tile = Tile::zero();
            for (j, &v) in a.iter().enumerate() {
                tile.as_mut_array()[j] = if i.relu { requant.apply_relu(v) } else { requant.apply(v) };
            }
            let addr = i.ofm_base as usize + (channel / AccelConfig::BANKS) * out_planes + pos;
            banks.poke(FmLayout::bank_of(channel), addr, tile);
            counters.add("ofm_tiles_written", 1);
        }
    }
    cycles
}

fn run_poolpad(
    config: &AccelConfig,
    banks: &mut BankSet,
    i: &PoolPadInstr,
    counters: &mut Counters,
    functional: bool,
) -> u64 {
    let positions = i.out_tile_rows as usize * i.out_tiles_x as usize;
    let layout = FmLayout {
        base: i.in_base as usize,
        channels: i.channels as usize,
        tiles_x: i.in_tiles_x as usize,
        tile_rows: i.in_tile_rows as usize,
    };

    // Program lengths are channel-independent; compile once per position.
    let prog_len: Vec<u64> = (0..positions)
        .map(|pos| {
            let oty_local = pos / i.out_tiles_x as usize;
            let otx = pos % i.out_tiles_x as usize;
            (crate::poolpad::compile_tile_program(i.op, i.out_row_start as usize + oty_local, otx).len() as u64)
                .max(1)
        })
        .collect();

    let mut unit_work = vec![0u64; config.units];
    for c in 0..i.channels as usize {
        let bank = FmLayout::bank_of(c);
        for (pos, &plen) in prog_len.iter().enumerate() {
            unit_work[c % config.units] += plen;
            counters.add("pool_microops", plen);
            counters.add("ofm_tiles_written", 1);
            if !functional {
                continue;
            }
            let oty_local = pos / i.out_tiles_x as usize;
            let otx = pos % i.out_tiles_x as usize;
            let (tile, _) = run_tile_program(i.op, i.out_row_start as usize + oty_local, otx, |ty, tx| {
                let local_ty = ty - i.in_row_start as isize;
                if local_ty < 0 || tx < 0 || local_ty >= i.in_tile_rows as isize || tx >= i.in_tiles_x as isize {
                    Tile::zero()
                } else {
                    banks.peek(bank, layout.addr(c, local_ty as usize, tx as usize))
                }
            });
            let addr = i.out_base as usize + (c / AccelConfig::BANKS) * positions + pos;
            banks.poke(bank, addr, tile);
        }
    }
    POOL_FIXED_CYCLES + unit_work.iter().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle;
    use crate::isa::PoolPadOp;
    use proptest::prelude::*;
    use zskip_hls::AccelArch;
    use zskip_nn::conv::QuantConvWeights;
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
    ) -> (BankSet, Vec<u8>, Vec<Instruction>, FmLayout, Shape) {
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
        (banks, scratchpad, instrs, out_layout, out_shape)
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

    /// The cycle backend with default options on a preloaded stream.
    fn run_cycle(cfg: &AccelConfig, banks: BankSet, scratchpad: &[u8], instrs: &[Instruction]) -> cycle::CycleOutcome {
        cycle::run(cfg, banks, scratchpad, cycle::Feed::Preloaded(instrs.to_vec()), &Default::default())
            .expect("cycle run completes")
    }

    /// The functional model on the groups parsed from `scratchpad`.
    fn run_model(cfg: &AccelConfig, banks: &mut BankSet, scratchpad: &[u8], instrs: &[Instruction]) -> ModelOutcome {
        run(cfg, banks, instrs, &parse_groups(cfg, scratchpad, instrs), &mut Counters::new(), true)
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
    fn model_banks_match_cycle_banks_bit_exact() {
        let cfg = config();
        let qw = random_qw(8, 8, 42, 60);
        let input = random_input(8, 12, 12, 9);
        let (banks, scratch, instrs, out_layout, out_shape) = build_conv(&cfg, &qw, &input);

        let cyc = run_cycle(&cfg, banks.clone(), &scratch, &instrs);
        let mut model_banks = banks;
        run_model(&cfg, &mut model_banks, &scratch, &instrs);

        let mut a = TiledFeatureMap::zeros(out_shape);
        let mut b = TiledFeatureMap::zeros(out_shape);
        out_layout.load(&cyc.banks, &mut a, 0..out_layout.tile_rows);
        out_layout.load(&model_banks, &mut b, 0..out_layout.tile_rows);
        assert_eq!(a, b, "model and cycle backends must agree bit-for-bit");
    }

    #[test]
    fn model_counters_match_cycle_counters() {
        let cfg = config();
        let qw = random_qw(8, 4, 7, 50);
        let input = random_input(4, 8, 8, 3);
        let (banks, scratch, instrs, _, _) = build_conv(&cfg, &qw, &input);
        let cyc = run_cycle(&cfg, banks.clone(), &scratch, &instrs);
        let mut model_banks = banks;
        let counters = run_model(&cfg, &mut model_banks, &scratch, &instrs).counters;
        for key in ["macs", "weights_applied", "bubble_lanes", "ofm_tiles_written"] {
            assert_eq!(counters.get(key), cyc.counters.get(key), "counter {key}");
        }
    }

    #[test]
    fn groups_parsed_from_bytes_run_like_the_groups_that_produced_them() {
        // The driver hands `run` the groups it packed; tests and benches
        // that hold a scratchpad image parse it. Same cycles, counters
        // and banks either way, functional or stats-only.
        let cfg = config();
        let qw = random_qw(10, 6, 23, 40);
        let input = random_input(6, 8, 8, 4);
        let (banks, scratch, instrs, out_layout, out_shape) = build_conv(&cfg, &qw, &input);
        let output = |banks: &BankSet| {
            let mut fm = TiledFeatureMap::zeros(out_shape);
            out_layout.load(banks, &mut fm, 0..out_layout.tile_rows);
            fm
        };
        let packed: Vec<GroupWeights<'_>> =
            (0..instrs.len()).map(|g| GroupWeights::from_filters(&qw, g * cfg.lanes, cfg.lanes)).collect();
        let parsed = parse_groups(&cfg, &scratch, &instrs);
        for functional in [true, false] {
            let (mut a, mut b) = (banks.clone(), banks.clone());
            let from_packed = run(&cfg, &mut a, &instrs, &packed, &mut Counters::new(), functional);
            let from_parsed = run(&cfg, &mut b, &instrs, &parsed, &mut Counters::new(), functional);
            assert_eq!(from_packed.cycles, from_parsed.cycles, "functional={functional}");
            assert_eq!(from_packed.counters, from_parsed.counters, "functional={functional}");
            assert_eq!(output(&a), output(&b), "functional={functional}");
            assert_eq!(output(&a) == output(&banks), !functional, "stats-only leaves the banks untouched");
        }
    }

    #[test]
    fn model_cycles_match_cycle_backend_dense() {
        let cfg = config();
        let qw = random_qw(8, 8, 1, 100);
        let input = random_input(8, 16, 16, 5);
        let (banks, scratch, instrs, _, _) = build_conv(&cfg, &qw, &input);
        let n = instrs.len();
        let sim = run_cycle(&cfg, banks.clone(), &scratch, &instrs).cycles;
        let mut b = banks;
        let model = run_model(&cfg, &mut b, &scratch, &instrs).cycles;
        assert_cycles_close(model, sim, n);
    }

    #[test]
    fn model_cycles_match_on_16_unopt() {
        let base = AccelConfig::from_arch(&AccelArch::single_submodule(), 55.0);
        let cfg = AccelConfig { bank_tiles: 4096, ..base };
        let qw = random_qw(5, 3, 11, 70);
        let input = random_input(3, 8, 8, 2);
        let (banks, scratch, instrs, _, _) = build_conv(&cfg, &qw, &input);
        let n = instrs.len();
        let sim = run_cycle(&cfg, banks.clone(), &scratch, &instrs).cycles;
        let mut b = banks;
        let model = run_model(&cfg, &mut b, &scratch, &instrs).cycles;
        assert_cycles_close(model, sim, n);
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
            let (banks, scratch, instrs, out_layout, out_shape) = build_conv(&cfg, &qw, &input);
            let cyc = run_cycle(&cfg, banks.clone(), &scratch, &instrs);
            let mut model_banks = banks;
            let model = run_model(&cfg, &mut model_banks, &scratch, &instrs);

            // Functional equality.
            let mut a = TiledFeatureMap::zeros(out_shape);
            let mut b = TiledFeatureMap::zeros(out_shape);
            out_layout.load(&cyc.banks, &mut a, 0..out_layout.tile_rows);
            out_layout.load(&model_banks, &mut b, 0..out_layout.tile_rows);
            prop_assert_eq!(a, b);

            // Cycle equivalence within tolerance.
            let diff = model.cycles.abs_diff(cyc.cycles) as f64;
            let tol = 0.02 * cyc.cycles as f64 + 48.0 * instrs.len() as f64;
            prop_assert!(diff <= tol, "model {} vs sim {} (tol {:.0})", model.cycles, cyc.cycles, tol);
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
        let cyc = run_cycle(&cfg, banks.clone(), &[], &[instr]);
        let mut model_banks = banks;
        let model = run_model(&cfg, &mut model_banks, &[], &[instr]);

        let mut a = TiledFeatureMap::zeros(out_shape);
        let mut b = TiledFeatureMap::zeros(out_shape);
        out_layout.load(&cyc.banks, &mut a, 0..2);
        out_layout.load(&model_banks, &mut b, 0..2);
        assert_eq!(a, b);
        assert_cycles_close(model.cycles, cyc.cycles, 1);
    }
}

#[cfg(test)]
mod pool_proptests {
    use super::*;
    use crate::cycle;
    use crate::isa::PoolPadOp;
    use proptest::prelude::*;
    use zskip_hls::AccelArch;
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
            let feed = cycle::Feed::Preloaded(vec![instr]);
            let cyc = cycle::run(&cfg, banks.clone(), &[], feed, &Default::default()).unwrap();
            let mut model_banks = banks;
            let model = run(&cfg, &mut model_banks, &[instr], &[], &mut Counters::new(), true);

            let mut a = TiledFeatureMap::zeros(out_shape);
            let mut b = TiledFeatureMap::zeros(out_shape);
            out_layout.load(&cyc.banks, &mut a, 0..out_layout.tile_rows);
            out_layout.load(&model_banks, &mut b, 0..out_layout.tile_rows);
            prop_assert_eq!(a.to_tensor().cropped(out_hw, out_hw),
                            b.to_tensor().cropped(out_hw, out_hw));
            // And both match the software reference.
            let want = zskip_nn::pool::maxpool_quant(&input, k as usize, stride as usize);
            prop_assert_eq!(a.to_tensor().cropped(out_hw, out_hw), want);
            // Cycle tolerance.
            let diff = model.cycles.abs_diff(cyc.cycles) as f64;
            prop_assert!(diff <= 0.03 * cyc.cycles as f64 + 64.0, "model {} sim {}", model.cycles, cyc.cycles);
        }
    }
}
