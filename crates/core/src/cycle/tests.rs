//! Cycle-backend correctness tests: bit-exactness against the golden
//! software model, zero-skipping effects, pool/pad instructions.

use super::*;
use crate::isa::{ConvInstr, PoolPadInstr, PoolPadOp};
use crate::layout::FmLayout;
use crate::weights::GroupWeights;
use zskip_fault::{FaultKind, FaultPlan};
use zskip_hls::{AccelArch, Variant};
use zskip_nn::conv::{conv2d_quant_dense, QuantConvWeights};
use zskip_quant::{Requantizer, Sm8};
use zskip_tensor::{Shape, Tensor, TiledFeatureMap};

fn config() -> AccelConfig {
    AccelConfig::from_arch(&AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 4096 }, 100.0)
}

fn input_tensor(c: usize, h: usize, w: usize) -> Tensor<Sm8> {
    Tensor::from_fn(c, h, w, |c, y, x| Sm8::from_i32_saturating(((c * 37 + y * 11 + x * 5) % 200) as i32 - 100))
}

fn weights(out_c: usize, in_c: usize, zero_every: usize) -> QuantConvWeights {
    let w: Vec<Sm8> = (0..out_c * in_c * 9)
        .map(|i| {
            if i % zero_every == 0 {
                Sm8::ZERO
            } else {
                Sm8::from_i32_saturating((i % 15) as i32 - 7)
            }
        })
        .collect();
    QuantConvWeights::new(
        out_c,
        in_c,
        3,
        w,
        (0..out_c as i64).map(|o| o * 3 - 2).collect(),
        Requantizer::from_ratio(1.0 / 64.0),
        true,
    )
}

/// `qw` with its weights edited by `edit`: another layer, built through
/// `new`.
fn with_weights(qw: &QuantConvWeights, edit: impl FnOnce(&mut [Sm8])) -> QuantConvWeights {
    let mut w = qw.w().to_vec();
    edit(&mut w);
    QuantConvWeights::new(qw.out_c, qw.in_c, qw.k, w, qw.bias_acc().to_vec(), qw.requant(), qw.relu())
}

/// Builds the bank image, scratchpad and instruction stream for a conv
/// layer (pre-padded input resident, single stripe), runs the cycle
/// backend and returns (output tensor, cycles).
pub(super) fn run_conv(cfg: &AccelConfig, qw: &QuantConvWeights, input: &Tensor<Sm8>) -> (Tensor<Sm8>, u64) {
    let (outcome, out_layout) = run_conv_outcome(cfg, qw, input, &RunOptions::default());
    let (h, w) = (input.shape().h, input.shape().w);
    let out_shape = Shape::new(qw.out_c, h, w);
    let mut got = TiledFeatureMap::zeros(out_shape);
    out_layout.load(&outcome.banks, &mut got, 0..out_layout.tile_rows);
    (got.to_tensor().cropped(h, w), outcome.cycles)
}

/// Like [`run_conv`] but parameterized over the run options and returning
/// the full [`CycleOutcome`].
pub(super) fn run_conv_outcome(
    cfg: &AccelConfig,
    qw: &QuantConvWeights,
    input: &Tensor<Sm8>,
    opts: &RunOptions,
) -> (CycleOutcome, FmLayout) {
    let (banks, scratchpad, instrs, out_layout) = conv_workload(cfg, qw, input);
    let outcome = run(cfg, banks, &scratchpad, &instrs, opts).expect("run completes");
    (outcome, out_layout)
}

/// The bank image (pre-padded input resident, single stripe), scratchpad
/// and instruction stream — one instruction per OFM group — of a conv
/// layer, and where its output lands.
fn conv_workload(
    cfg: &AccelConfig,
    qw: &QuantConvWeights,
    input: &Tensor<Sm8>,
) -> (BankSet, Vec<u8>, Vec<Instruction>, FmLayout) {
    let (h, w) = (input.shape().h, input.shape().w);
    let padded = input.padded(1);
    let tiled_in = TiledFeatureMap::from_tensor(&padded);
    let in_layout = FmLayout::full(0, padded.shape());
    let out_shape = Shape::new(qw.out_c, h, w);
    let out_layout = FmLayout::full(in_layout.end(), out_shape);

    let mut banks = BankSet::new(cfg);
    in_layout.store(&mut banks, &tiled_in, 0..tiled_in.tiles_y());

    let mut scratchpad = Vec::new();
    let mut instrs = Vec::new();
    for g in 0..qw.out_c.div_ceil(cfg.lanes) {
        let gw = GroupWeights::from_filters(qw, g * cfg.lanes, cfg.lanes);
        let instr = ConvInstr::for_group(qw, g * cfg.lanes, cfg.lanes, &in_layout, 0, &out_layout, scratchpad.len());
        instrs.push(Instruction::Conv(instr.expect("test geometry fits the instruction fields")));
        scratchpad.extend_from_slice(gw.as_bytes());
    }
    (banks, scratchpad, instrs, out_layout)
}

/// A preloaded stream under `opts`.
fn run_stream(
    cfg: &AccelConfig,
    banks: BankSet,
    scratchpad: &[u8],
    instrs: &[Instruction],
    opts: &RunOptions,
) -> Result<CycleOutcome, SimError> {
    run(cfg, banks, scratchpad, instrs, opts)
}

/// A preloaded stream under the default options.
fn run_preloaded(cfg: &AccelConfig, banks: BankSet, scratchpad: &[u8], instrs: &[Instruction]) -> CycleOutcome {
    run_stream(cfg, banks, scratchpad, instrs, &RunOptions::default()).expect("run completes")
}

/// The conv output region of `outcome`'s banks, cropped to 8x8.
fn output_8x8(outcome: &CycleOutcome, layout: &FmLayout, out_c: usize) -> Tensor<Sm8> {
    let mut got = TiledFeatureMap::zeros(Shape::new(out_c, 8, 8));
    layout.load(&outcome.banks, &mut got, 0..layout.tile_rows);
    got.to_tensor().cropped(8, 8)
}

#[test]
fn an_injected_stall_costs_cycles_and_no_output_bit() {
    // A run with a transient FIFO stall: it delays the design and the
    // output is untouched.
    let cfg = config();
    let qw = weights(16, 3, 4);
    let input = input_tensor(3, 8, 8);
    let plan = FaultPlan::new().inject("fifo:work0:push", 40, FaultKind::FifoStall { cycles: 500 }).shared();
    let opts = RunOptions { fault_plan: Some(plan.clone()), ..RunOptions::default() };
    let (stalled, layout) = run_conv_outcome(&cfg, &qw, &input, &opts);
    assert_eq!(plan.lock().unwrap().fired().len(), 1, "the stall fired");
    let (clean, _) = run_conv_outcome(&cfg, &qw, &input, &RunOptions::default());
    assert!(stalled.cycles > clean.cycles, "the stall must cost cycles: {} vs {}", stalled.cycles, clean.cycles);
    assert_eq!(output_8x8(&stalled, &layout, qw.out_c), conv2d_quant_dense(&input, &qw, 1, 1));
}

#[test]
fn conv_matches_golden_model_bit_exact() {
    let cfg = config();
    let qw = weights(8, 8, 5);
    let input = input_tensor(8, 12, 12);
    let (got, _) = run_conv(&cfg, &qw, &input);
    assert_eq!(got, conv2d_quant_dense(&input, &qw, 1, 1));
}

#[test]
fn conv_matches_with_ragged_group() {
    // 10 OFMs: the final group has 2 active lanes.
    let cfg = config();
    let qw = weights(10, 5, 4);
    let input = input_tensor(5, 8, 8);
    let (got, _) = run_conv(&cfg, &qw, &input);
    assert_eq!(got, conv2d_quant_dense(&input, &qw, 1, 1));
}

#[test]
fn conv_matches_on_16_unopt_architecture() {
    let base = AccelConfig::from_arch(&Variant::U16Unopt.arch(1), 55.0);
    let cfg = AccelConfig { bank_tiles: 4096, ..base };
    let qw = weights(5, 3, 3);
    let input = input_tensor(3, 8, 8);
    let (got, _) = run_conv(&cfg, &qw, &input);
    assert_eq!(got, conv2d_quant_dense(&input, &qw, 1, 1));
}

#[test]
fn non_square_feature_maps_work() {
    let cfg = config();
    let qw = weights(4, 3, 6);
    let input = input_tensor(3, 6, 14);
    let (got, _) = run_conv(&cfg, &qw, &input);
    assert_eq!(got, conv2d_quant_dense(&input, &qw, 1, 1));
}

#[test]
fn pruned_weights_take_fewer_cycles_and_stay_exact() {
    let cfg = config();
    let input = input_tensor(8, 16, 16);

    let dense = weights(8, 8, usize::MAX); // nothing zeroed
    let (out_dense, dense_cycles) = run_conv(&cfg, &dense, &input);
    assert_eq!(out_dense, conv2d_quant_dense(&input, &dense, 1, 1));

    let sparse = weights(8, 8, 2); // roughly half the weights zero
    let (out_sparse, sparse_cycles) = run_conv(&cfg, &sparse, &input);
    assert_eq!(out_sparse, conv2d_quant_dense(&input, &sparse, 1, 1));

    assert!(
        sparse_cycles < dense_cycles,
        "zero-skipping must save cycles: sparse {sparse_cycles} vs dense {dense_cycles}"
    );
}

#[test]
fn four_cycle_floor_limits_sparse_speedup() {
    // With only 1 non-zero weight per tile, cycles are floored by the
    // 4-cycle IFM quad load: speedup over 8 nnz is at most 2x-ish, far
    // from 8x.
    let cfg = config();
    let input = input_tensor(4, 16, 16);

    // Keep exactly one non-zero weight per (o, i) filter.
    let nearly_empty = with_weights(&weights(4, 4, usize::MAX), |w| {
        for o in 0..4 {
            for i in 0..4 {
                for ky in 0..3 {
                    for kx in 0..3 {
                        if !(ky == 1 && kx == 1) {
                            let idx = ((o * 4 + i) * 3 + ky) * 3 + kx;
                            w[idx] = Sm8::ZERO;
                        }
                    }
                }
            }
        }
    });
    let (out1, one_cycles) = run_conv(&cfg, &nearly_empty, &input);
    assert_eq!(out1, conv2d_quant_dense(&input, &nearly_empty, 1, 1));

    let dense = weights(4, 4, usize::MAX); // 9 nnz per tile
    let (_, dense_cycles) = run_conv(&cfg, &dense, &input);

    let speedup = dense_cycles as f64 / one_cycles as f64;
    assert!(speedup < 3.0, "floor must cap the speedup, got {speedup:.2}x");
    assert!(speedup > 1.5, "sparse run should still be faster, got {speedup:.2}x");
}

#[test]
fn fully_pruned_group_writes_bias_only_tiles() {
    let cfg = config();
    let qw = QuantConvWeights::new(4, 4, 3, vec![Sm8::ZERO; 4 * 4 * 9], vec![7, -3, 0, 120], Requantizer::IDENTITY, false);
    let input = input_tensor(4, 8, 8);
    let (got, _) = run_conv(&cfg, &qw, &input);
    for o in 0..4 {
        for v in got.channel(o) {
            assert_eq!(v.to_i32() as i64, qw.bias_acc()[o]);
        }
    }
}

#[test]
fn pool_instruction_matches_reference() {
    let cfg = config();
    let input = input_tensor(8, 16, 16);
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
    let outcome = run_preloaded(&cfg, banks, &[], &[instr]);
    let mut got = TiledFeatureMap::zeros(out_shape);
    out_layout.load(&outcome.banks, &mut got, 0..2);
    assert_eq!(got.to_tensor().cropped(8, 8), zskip_nn::pool::maxpool_quant(&input, 2, 2));
}

#[test]
fn pad_instruction_matches_reference() {
    let cfg = config();
    let input = input_tensor(4, 8, 8);
    let tiled_in = TiledFeatureMap::from_tensor(&input);
    let in_layout = FmLayout::full(0, input.shape());
    let out_shape = Shape::new(4, 10, 10);
    let out_layout = FmLayout::full(in_layout.end(), out_shape);
    let mut banks = BankSet::new(&cfg);
    in_layout.store(&mut banks, &tiled_in, 0..2);
    let instr = Instruction::PoolPad(PoolPadInstr {
        channels: 4,
        in_base: 0,
        in_tiles_x: 2,
        in_tile_rows: 2,
        in_row_start: 0,
        out_base: out_layout.base as u32,
        out_tiles_x: 3,
        out_tile_rows: 3,
        out_row_start: 0,
        op: PoolPadOp::Pad { amount: 1 },
    });
    let outcome = run_preloaded(&cfg, banks, &[], &[instr]);
    let mut got = TiledFeatureMap::zeros(out_shape);
    out_layout.load(&outcome.banks, &mut got, 0..3);
    assert_eq!(got.to_tensor().cropped(10, 10), input.padded(1));
}

#[test]
fn empty_stream_finishes_quickly() {
    let cfg = config();
    let outcome = run_preloaded(&cfg, BankSet::new(&cfg), &[], &[]);
    assert!(outcome.cycles < 50, "cycles {}", outcome.cycles);
}

#[test]
fn counters_record_macs_and_bubbles() {
    let cfg = config();
    let qw = weights(8, 8, 3);
    let input = input_tensor(8, 8, 8);
    let padded = input.padded(1);
    let tiled_in = TiledFeatureMap::from_tensor(&padded);
    let in_layout = FmLayout::full(0, padded.shape());
    let out_layout = FmLayout::full(in_layout.end(), Shape::new(8, 8, 8));
    let mut banks = BankSet::new(&cfg);
    in_layout.store(&mut banks, &tiled_in, 0..tiled_in.tiles_y());
    let gw = GroupWeights::from_filters(&qw, 0, 4);
    let scratchpad = gw.as_bytes();
    let instr = Instruction::Conv(ConvInstr {
        ofm_first: 0,
        ifm_count: 8,
        ifm_base: 0,
        ifm_tiles_x: in_layout.tiles_x as u16,
        ifm_tile_rows: in_layout.tile_rows as u16,
        ifm_row_offset: 0,
        ofm_base: out_layout.base as u32,
        ofm_tiles_x: 2,
        ofm_tile_rows: 2,
        wgt_base: 0,
        bias: [0; 4],
        requant_mult: qw.requant().mult as u16,
        requant_shift: qw.requant().shift as u8,
        relu: true,
        active_lanes: 4,
    });
    let outcome = run_preloaded(&cfg, banks, scratchpad, &[instr]);
    // MACs: group nnz x 16 values x 4 positions.
    assert_eq!(outcome.counters.get("macs"), gw.total_nnz() as u64 * 16 * 4);
    // Bubbles appear because the filters have unequal nnz.
    assert!(outcome.counters.get("bubble_lanes") > 0);
    assert!(outcome.counters.get("ofm_tiles_written") == 16);
}

/// A mixed stream — pad, conv, pool back to back in one doorbell — on
/// [`config`]: the resident banks holding the input, the group's packed
/// weights, the stream, where the pooled output lands and what it must
/// read.
struct MixedStream {
    banks: BankSet,
    gw: GroupWeights<'static>,
    stream: Vec<Instruction>,
    pool_out: FmLayout,
    want: Tensor<Sm8>,
}

fn mixed_stream(cfg: &AccelConfig) -> MixedStream {
    let (c_in, h, w) = (4usize, 8usize, 8usize);
    let input = input_tensor(c_in, h, w);
    let qw = weights(4, c_in, 3);

    // Layouts: raw input -> padded -> conv output -> pooled output.
    let raw = FmLayout::full(0, input.shape());
    let padded_shape = Shape::new(c_in, h + 2, w + 2);
    let padded = FmLayout::full(raw.end(), padded_shape);
    let conv_shape = Shape::new(4, h, w);
    let conv_out = FmLayout::full(padded.end(), conv_shape);
    let pool_shape = Shape::new(4, h / 2, w / 2);
    let pool_out = FmLayout::full(conv_out.end(), pool_shape);

    let mut banks = BankSet::new(cfg);
    let tiled = TiledFeatureMap::from_tensor(&input);
    raw.store(&mut banks, &tiled, 0..tiled.tiles_y());

    let gw = GroupWeights::from_filters(&qw, 0, cfg.lanes);

    let stream = vec![
        Instruction::PoolPad(PoolPadInstr {
            channels: c_in as u16,
            in_base: raw.base as u32,
            in_tiles_x: raw.tiles_x as u16,
            in_tile_rows: raw.tile_rows as u16,
            in_row_start: 0,
            out_base: padded.base as u32,
            out_tiles_x: padded.tiles_x as u16,
            out_tile_rows: padded.tile_rows as u16,
            out_row_start: 0,
            op: PoolPadOp::Pad { amount: 1 },
        }),
        Instruction::Conv(ConvInstr {
            ofm_first: 0,
            ifm_count: c_in as u16,
            ifm_base: padded.base as u32,
            ifm_tiles_x: padded.tiles_x as u16,
            ifm_tile_rows: padded.tile_rows as u16,
            ifm_row_offset: 0,
            ofm_base: conv_out.base as u32,
            ofm_tiles_x: conv_out.tiles_x as u16,
            ofm_tile_rows: conv_out.tile_rows as u16,
            wgt_base: 0,
            bias: [1, -2, 3, -4],
            requant_mult: qw.requant().mult as u16,
            requant_shift: qw.requant().shift as u8,
            relu: true,
            active_lanes: 4,
        }),
        Instruction::PoolPad(PoolPadInstr {
            channels: 4,
            in_base: conv_out.base as u32,
            in_tiles_x: conv_out.tiles_x as u16,
            in_tile_rows: conv_out.tile_rows as u16,
            in_row_start: 0,
            out_base: pool_out.base as u32,
            out_tiles_x: pool_out.tiles_x as u16,
            out_tile_rows: pool_out.tile_rows as u16,
            out_row_start: 0,
            op: PoolPadOp::MaxPool { k: 2, stride: 2 },
        }),
    ];

    let qw_bias = QuantConvWeights::new(qw.out_c, qw.in_c, qw.k, qw.w().to_vec(), vec![1, -2, 3, -4], qw.requant(), qw.relu());
    let want = zskip_nn::pool::maxpool_quant(&conv2d_quant_dense(&input, &qw_bias, 1, 1), 2, 2);
    MixedStream { banks, gw, stream, pool_out, want }
}

/// The pooled output region of `banks`.
fn pooled(m: &MixedStream, banks: &BankSet) -> Tensor<Sm8> {
    let shape = m.want.shape();
    let mut got = TiledFeatureMap::zeros(shape);
    m.pool_out.load(banks, &mut got, 0..m.pool_out.tile_rows);
    got.to_tensor().cropped(shape.h, shape.w)
}

/// The mixed stream runs in order with correct dataflow between
/// instructions.
#[test]
fn mixed_instruction_stream_chains_correctly() {
    let cfg = config();
    let m = mixed_stream(&cfg);
    let outcome = run_preloaded(&cfg, m.banks.clone(), m.gw.as_bytes(), &m.stream);
    assert_eq!(pooled(&m, &outcome.banks), m.want);
}

/// The mixed stream's whole report on the real 21-kernel design, pinned
/// to the figures the simulator has always produced for it: a change to
/// how cycles are stepped must not move one cycle, one kernel-state count
/// or one counter.
#[test]
fn mixed_stream_report_is_pinned() {
    const KERNELS: [(&str, u64, u64, u64, u64); 21] = [
        // (name, busy, blocked, idle, done)
        ("staging0", 83, 2, 109, 1),
        ("staging1", 83, 2, 109, 1),
        ("staging2", 83, 2, 109, 1),
        ("staging3", 83, 2, 109, 1),
        ("conv0", 28, 7, 160, 0),
        ("conv1", 28, 7, 160, 0),
        ("conv2", 28, 7, 160, 0),
        ("conv3", 28, 7, 160, 0),
        ("accum0", 37, 9, 147, 2),
        ("accum1", 37, 9, 147, 2),
        ("accum2", 37, 9, 147, 2),
        ("accum3", 37, 9, 147, 2),
        ("poolpad0", 47, 0, 148, 0),
        ("poolpad1", 47, 0, 148, 0),
        ("poolpad2", 47, 0, 148, 0),
        ("poolpad3", 47, 0, 148, 0),
        ("write0", 20, 82, 91, 2),
        ("write1", 20, 83, 90, 2),
        ("write2", 20, 87, 86, 2),
        ("write3", 20, 90, 83, 2),
        ("main-ctrl", 91, 101, 0, 3),
    ];
    const COUNTERS: [(&str, u64); 7] = [
        ("accum_adds", 5504),
        ("bubble_lanes", 40),
        ("macs", 5504),
        ("max_ops", 548),
        ("ofm_tiles_written", 56),
        ("pool_microops", 188),
        ("weights_applied", 344),
    ];
    let cfg = config();
    let m = mixed_stream(&cfg);
    let outcome = run_preloaded(&cfg, m.banks.clone(), m.gw.as_bytes(), &m.stream);
    assert_eq!(outcome.cycles, 196);
    let kernels: Vec<_> =
        outcome.report.kernels.iter().map(|(n, s)| (n.as_str(), s.busy, s.blocked, s.idle, s.done)).collect();
    assert_eq!(kernels, KERNELS);
    assert_eq!(outcome.counters.iter().collect::<Vec<_>>(), COUNTERS);
    assert_eq!(pooled(&m, &outcome.banks), m.want);
}

/// A permanent `fifo:*:pop` stall on the real design, pinned: the cycle
/// the deadlock is declared at, the kernels it names as blocked and the
/// FIFO it blames.
#[test]
fn permanent_pop_stall_deadlock_is_pinned() {
    let cfg = config();
    let (banks, scratchpad, instrs, _) = conv_workload(&cfg, &weights(16, 3, 4), &input_tensor(3, 8, 8));
    let plan = FaultPlan::new().inject("fifo:work1:pop", 60, FaultKind::FifoStall { cycles: u64::MAX }).shared();
    let opts = RunOptions { fault_plan: Some(plan), ..RunOptions::default() };
    let err = run_stream(&cfg, banks, &scratchpad, &instrs, &opts).expect_err("the stall wedges the design");
    let SimError::Deadlock { cycle, blocked, .. } = &err else { panic!("expected a deadlock, got {err}") };
    assert_eq!(*cycle, 10_074);
    let every_kernel: Vec<String> = ["staging", "conv", "accum", "poolpad", "write"]
        .iter()
        .flat_map(|k| (0..4).map(move |i| format!("{k}{i}")))
        .chain(["main-ctrl".to_string()])
        .collect();
    assert_eq!(*blocked, every_kernel);
    let wedged = err.wedged().expect("a deadlock names a fifo");
    assert_eq!(
        *wedged,
        zskip_sim::FifoSnapshot {
            name: "work1".into(),
            occupancy: 4,
            capacity: 4,
            stalled: true,
            push_waiting: true,
            pop_waiting: true,
        }
    );
}

#[test]
fn a_bank_set_handed_back_by_one_run_serves_the_next() {
    // The same instruction twice on one set. One OFM position, so each
    // bank's port B is granted once a run, at the same cycle both times: a
    // grant outliving its run would refuse the second run's only write.
    // Both runs must read as the run on a fresh set does, and the set's
    // statistics as their sum.
    let cfg = config();
    let (banks, scratchpad, instrs, _) = conv_workload(&cfg, &weights(4, 8, 3), &input_tensor(8, 4, 4));
    let fresh = run_preloaded(&cfg, banks.clone(), &scratchpad, &instrs);
    let first = run_preloaded(&cfg, banks, &scratchpad, &instrs);
    assert_eq!((first.cycles, &first.counters, &first.report), (fresh.cycles, &fresh.counters, &fresh.report));
    let second = run_preloaded(&cfg, first.banks, &scratchpad, &instrs);
    assert_eq!((second.cycles, &second.counters, &second.report), (fresh.cycles, &fresh.counters, &fresh.report));
    for (twice, once) in second.banks.stats().iter().zip(fresh.banks.stats()) {
        assert_eq!((twice.reads, twice.writes), (2 * once.reads, 2 * once.writes));
        assert_eq!((twice.read_conflicts, twice.write_conflicts), (0, 0));
    }
}

/// Cuts a conv stream ([`conv_workload`]) into work items, one ending
/// after instruction `i` wherever bit `i` of `cuts` is set: an item's
/// scratchpad is its own groups' bytes and its `wgt_base` fields count
/// from there.
fn chunked<'a>(instrs: &[Instruction], scratchpad: &'a [u8], cuts: u32) -> Vec<WorkItem<'a>> {
    let conv = |i: &Instruction| match *i {
        Instruction::Conv(c) => c,
        Instruction::PoolPad(_) => unreachable!("a conv stream"),
    };
    let mut items = Vec::new();
    let mut start = 0;
    for end in 1..=instrs.len() {
        if end == instrs.len() || cuts >> (end - 1) & 1 == 1 {
            let from = conv(&instrs[start]).wgt_base;
            let to = instrs.get(end).map_or(scratchpad.len(), |i| conv(i).wgt_base as usize);
            let rebased = |i| Instruction::Conv(ConvInstr { wgt_base: conv(i).wgt_base - from, ..conv(i) });
            items.push(WorkItem {
                instrs: instrs[start..end].iter().map(rebased).collect(),
                scratchpad: scratchpad[from as usize..to].into(),
            });
            start = end;
        }
    }
    items
}

/// Every word of every bank.
fn words(banks: &BankSet) -> Vec<zskip_tensor::Tile<Sm8>> {
    (0..banks.bank_count()).flat_map(|b| (0..banks.capacity()).map(move |a| banks.peek(b, a))).collect()
}

#[test]
fn a_failed_item_fails_the_pass_with_its_own_error() {
    // Four instructions, the second alone over the cycle limit (the
    // others' groups are fully pruned: a marker per position and done).
    let cfg = config();
    let per_group = 4 * 8 * 9;
    let qw = with_weights(&weights(16, 8, usize::MAX), |w| {
        for (i, w) in w.iter_mut().enumerate() {
            if i / per_group != 1 {
                *w = Sm8::ZERO;
            }
        }
    });
    let (banks, scratchpad, instrs, _) = conv_workload(&cfg, &qw, &input_tensor(8, 8, 8));
    let items = chunked(&instrs, &scratchpad, u32::MAX);
    assert_eq!(items.len(), 4);
    let alone = |item: &WorkItem<'_>, opts: &RunOptions| {
        run(&cfg, banks.clone(), &item.scratchpad, &item.instrs, opts).map(|o| o.cycles)
    };
    let cheap = alone(&items[0], &RunOptions::default()).expect("runs");
    let costly = alone(&items[1], &RunOptions::default()).expect("runs");
    assert!(cheap + 50 < costly, "{cheap} vs {costly}");
    let opts = RunOptions { max_cycles: (cheap + costly) / 2, ..RunOptions::default() };
    let want = alone(&items[1], &opts).expect_err("over the limit");
    assert!(matches!(want, SimError::CycleLimit { .. }), "{want}");

    let before = words(&banks);
    for threads in 1..=3 {
        let pool = ConvPool::new(threads);
        for pool in [None, Some(&pool)] {
            let mut split = banks.clone();
            assert_eq!(run_items(&cfg, &mut split, &items, pool, &opts), Err(want.clone()), "{threads} threads");
            assert_eq!(words(&split), before, "a failed pass writes nothing back");
        }
    }
}

mod split_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// One engine run per work item against one run of the whole
        /// stream, for every way to cut the stream into contiguous items:
        /// the same cycles, counters and bank words — on every paper
        /// geometry, at any pool width, with a
        /// ragged last group and with a fully-pruned (marker-only) one.
        #[test]
        fn items_add_up_to_the_whole_stream(
            point in prop_oneof![
                Just((Variant::U16Unopt, 1)),
                Just((Variant::U256Opt, 1)),
                Just((Variant::U256Opt, 2)),
            ],
            groups in 1usize..=4,
            ragged in 0usize..4,
            in_c in 1usize..=5,
            h in 3usize..=9,
            w in 3usize..=9,
            pruned in 0usize..8,
            zero_every in 2usize..=6,
            threads in 1usize..=3,
        ) {
            let (variant, instances): (Variant, usize) = point;
            let cfg = AccelConfig::for_variant_instances(variant, instances);
            let out_c = (groups * cfg.lanes).saturating_sub(ragged % cfg.lanes).max(1);
            // `pruned` past the last group prunes none.
            let per_group = cfg.lanes * in_c * 9;
            let qw = with_weights(&weights(out_c, in_c, zero_every), |w| {
                w.iter_mut().skip(pruned * per_group).take(per_group).for_each(|w| *w = Sm8::ZERO)
            });
            let (banks, scratchpad, instrs, _) = conv_workload(&cfg, &qw, &input_tensor(in_c, h, w));
            let opts = RunOptions::default();
            let whole = run(&cfg, banks.clone(), &scratchpad, &instrs, &opts).expect("the whole stream runs");
            let whole_words = words(&whole.banks);

            let pool = ConvPool::new(threads);
            for cuts in 0..1u32 << (instrs.len() - 1) {
                let items = chunked(&instrs, &scratchpad, cuts);
                let mut split = banks.clone();
                let outcome = run_items(&cfg, &mut split, &items, Some(&pool), &opts).expect("the items run");
                prop_assert_eq!(outcome.cycles, whole.cycles, "cuts {:#b}", cuts);
                prop_assert_eq!(&outcome.counters, &whole.counters, "cuts {:#b}", cuts);
                prop_assert!(words(&split) == whole_words, "bank words differ at cuts {:#b}", cuts);
            }
        }
    }
}
