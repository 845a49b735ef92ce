//! Waveform gallery: cycle-exact activity traces of the 21 streaming
//! kernels under contrasting workloads — the debugging view HLS designers
//! live in, showing exactly where the architecture's documented behaviours
//! come from.
//!
//! * dense conv: staging units busy back-to-back, 9 steps per weight tile;
//! * sparse conv: the 4-cycle quad-load floor shows as staging idle slots;
//! * skewed filters: one staging unit runs long, accumulators convoy at
//!   the barrier;
//! * max-pooling: the pool/pad path lights up while conv units idle.
//!
//! ```sh
//! cargo run --release --example waveforms
//! ```

use zskip::accel::cycle::{self, CycleOutcome, Feed, RunOptions};
use zskip::accel::{AccelConfig, BankSet, ConvInstr, FmLayout, GroupWeights, Instruction, PoolPadInstr, PoolPadOp};
use zskip::hls::AccelArch;
use zskip::nn::conv::QuantConvWeights;
use zskip::quant::{Requantizer, Sm8};
use zskip::tensor::{Shape, Tensor, TiledFeatureMap};

/// Runs one instruction with a 120-cycle trace window.
fn run_traced(cfg: &AccelConfig, banks: BankSet, scratchpad: &[u8], instr: Instruction) -> CycleOutcome {
    let opts = RunOptions { max_cycles: 1_000_000, trace_cycles: Some(120), ..RunOptions::default() };
    cycle::run(cfg, banks, scratchpad, Feed::Preloaded(vec![instr]), &opts).expect("runs")
}

fn config() -> AccelConfig {
    AccelConfig::from_arch(&AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 1024 }, 100.0)
}

/// Builds weights where filter `o` keeps a weight at kernel position `i`
/// iff `keep(o, i)`.
fn weights(keep: impl Fn(usize, usize) -> bool) -> QuantConvWeights {
    QuantConvWeights::new(
        4,
        4,
        3,
        (0..4 * 4 * 9)
            .map(|idx| {
                let o = idx / 36;
                if keep(o, idx % 9) {
                    Sm8::from_i32_saturating((idx % 9) as i32 - 4)
                } else {
                    Sm8::ZERO
                }
            })
            .collect(),
        vec![0; 4],
        Requantizer::from_ratio(1.0 / 16.0),
        true,
    )
}

fn show_conv(title: &str, qw: &QuantConvWeights) {
    let cfg = config();
    let input = Tensor::from_fn(4, 8, 8, |c, y, x| Sm8::from_i32_saturating(((c + y + x) % 9) as i32 - 4)).padded(1);
    let tiled = TiledFeatureMap::from_tensor(&input);
    let in_layout = FmLayout::full(0, input.shape());
    let out_layout = FmLayout::full(in_layout.end(), Shape::new(4, 8, 8));
    let mut banks = BankSet::new(&cfg);
    in_layout.store(&mut banks, &tiled, 0..tiled.tiles_y());
    let gw = GroupWeights::from_filters(qw, 0, 4);
    let instr = ConvInstr::for_group(qw, 0, 4, &in_layout, 0, &out_layout, 0).expect("fits the instruction fields");
    let outcome = run_traced(&cfg, banks, gw.as_bytes(), Instruction::Conv(instr));
    println!("== {title} ({} cycles) ==", outcome.cycles);
    print!("{}", outcome.trace.expect("tracing was asked for").render(90));
}

fn show_pool() {
    let cfg = config();
    let input = Tensor::from_fn(4, 8, 8, |c, y, x| Sm8::from_i32_saturating(((c * 3 + y + x) % 120) as i32 - 60));
    let tiled = TiledFeatureMap::from_tensor(&input);
    let in_layout = FmLayout::full(0, input.shape());
    let out_layout = FmLayout::full(in_layout.end(), Shape::new(4, 4, 4));
    let mut banks = BankSet::new(&cfg);
    in_layout.store(&mut banks, &tiled, 0..2);
    let instr = Instruction::PoolPad(PoolPadInstr {
        channels: 4,
        in_base: 0,
        in_tiles_x: 2,
        in_tile_rows: 2,
        in_row_start: 0,
        out_base: out_layout.base as u32,
        out_tiles_x: 1,
        out_tile_rows: 1,
        out_row_start: 0,
        op: PoolPadOp::MaxPool { k: 2, stride: 2 },
    });
    let outcome = run_traced(&cfg, banks, &[], instr);
    println!("== 2x2/s2 max-pool ({} cycles): pool/pad path active, conv idle ==", outcome.cycles);
    print!("{}", outcome.trace.expect("tracing was asked for").render(90));
}

fn main() {
    println!("legend: '#' busy, 'x' blocked on FIFO, '.' idle, ' ' done\n");
    show_conv("dense 3x3 conv: 9 lockstep steps per weight tile", &weights(|_, _| true));
    show_conv("sparse conv (1 nnz/filter): the 4-cycle quad-load floor", &weights(|_, i| i == 4));
    show_conv(
        "skewed filters (filter 0 dense, rest sparse): lockstep bubbles",
        &weights(|o, i| o == 0 || i == 4),
    );
    show_pool();
}
