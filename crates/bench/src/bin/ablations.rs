//! Architecture ablations (DESIGN.md §8): isolate each design choice the
//! paper calls out by toggling it and measuring simulated cycles.
//!
//! 1. zero-weight skipping on/off across sparsity levels (the novel
//!    contribution; upper bound (16-4)/16 = 75% cycle reduction per
//!    (filter group, IFM) pair with a non-zero weight — a pair with none
//!    is skipped outright, and the share of such pairs is printed);
//! 2. lockstep filter lanes vs. nnz-sorted filter grouping (the paper's
//!    future work) on a skewed-sparsity layer;
//! 3. striping overhead vs. SRAM bank capacity (the "~15%" ideal
//!    inflation);
//! 4. packed-weight fetch bandwidth (the deep-layer unpack overhead).

use zskip_bench::{make_conv_layer, write_artifacts};
use zskip_core::{AccelConfig, LayerPackingStats, PassStats, Session, SessionBuilder, SocHandle};
use zskip_nn::conv::QuantConvWeights;
use zskip_quant::Sm8;
use zskip_tensor::{Shape, TiledFeatureMap};
use zskip_hls::AccelArch;
use zskip_json::{Json, ToJson};

#[derive(Default)]
struct Ablations {
    zero_skip: Vec<(f64, u64, u64, f64, f64)>, // density, skip, no-skip, speedup, skipped-pair share
    grouping: Vec<(String, u64)>,             // label, cycles
    striping: Vec<(usize, f64, u64)>,         // bank_tiles, striping factor, cycles
    weight_bandwidth: Vec<(usize, u64)>,      // bytes/cycle, cycles
    bitwidth: Vec<(String, f64)>,             // label, total ALMs
    fifo_depth: Vec<(usize, u64)>,            // depth, cycle-exact cycles
}

impl ToJson for Ablations {
    fn to_json(&self) -> Json {
        Json::obj([
            ("zero_skip", self.zero_skip.to_json()),
            ("grouping", self.grouping.to_json()),
            ("striping", self.striping.to_json()),
            ("weight_bandwidth", self.weight_bandwidth.to_json()),
            ("bitwidth", self.bitwidth.to_json()),
            ("fifo_depth", self.fifo_depth.to_json()),
        ])
    }
}

fn config(bank_tiles: usize, weight_bw: usize) -> AccelConfig {
    let cfg = AccelConfig::from_arch(&AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles }, 100.0);
    AccelConfig { weight_bytes_per_cycle: weight_bw, ..cfg }
}

/// A stats-only model session on [`config`].
fn stats_only(bank_tiles: usize, weight_bw: usize) -> SessionBuilder {
    Session::builder(config(bank_tiles, weight_bw)).functional(false)
}

/// One conv pass of `qw` over `input` on a session from `builder`.
fn conv(
    builder: SessionBuilder,
    name: &str,
    input: &TiledFeatureMap<Sm8>,
    qw: &QuantConvWeights,
    out_shape: Shape,
) -> PassStats {
    let session = builder.build().unwrap();
    session.driver().conv_pass(name, input, qw, out_shape, &mut SocHandle::new()).unwrap().1
}

fn main() {
    let mut out = Ablations::default();
    let mut text = String::new();

    // 1. Zero-skipping across sparsity.
    text.push_str("Ablation 1 — zero-weight skipping (conv3_2-like layer, 256 MACs/cycle)\n");
    text.push_str("  A (filter group, IFM) pair with no non-zero weight in any lane is skipped\n");
    text.push_str("  outright (0 cycles, as in the modelled hardware); the 16/4 = 4x bound holds\n");
    text.push_str("  only over the other pairs, so the sparsest rows read past it.\n");
    text.push_str("  density   with-skip      no-skip   speedup   pairs skipped\n");
    for density in [1.0, 0.75, 0.5, 0.35, 0.25, 0.1, 0.05] {
        let (qw, input, out_shape) = make_conv_layer(64, 64, 56, density, 42);
        let a = conv(stats_only(32768, 16), "skip", &input, &qw, out_shape);
        let b = conv(stats_only(32768, 16).zero_skipping(false), "noskip", &input, &qw, out_shape);
        let speedup = b.compute_cycles as f64 / a.compute_cycles as f64;
        let skipped = LayerPackingStats::analyze("skip", &qw, &config(32768, 16)).skipped_share();
        text.push_str(&format!(
            "  {:>7.2} {:>11} {:>12} {:>8.2}x {:>14.1}%\n",
            density,
            a.compute_cycles,
            b.compute_cycles,
            speedup,
            skipped * 100.0
        ));
        out.zero_skip.push((density, a.compute_cycles, b.compute_cycles, speedup, skipped));
    }

    // 2. Filter grouping on a skewed layer: half the filters dense, half
    // very sparse, interleaved (worst case for lockstep lanes).
    text.push_str("\nAblation 2 — lockstep lanes vs. nnz-sorted filter grouping (skewed sparsity)\n");
    {
        let (dense, input, out_shape) = make_conv_layer(64, 64, 28, 1.0, 7);
        // Interleave dense and ~10% filters.
        let per = 64 * 9;
        let w = dense.w().iter().enumerate()
            .map(|(j, &v)| {
                let (o, i) = (j / per, j % per);
                if o % 2 == 0 && (i * 31 + o) % 10 != 0 {
                    Sm8::ZERO
                } else {
                    v
                }
            })
            .collect();
        let qw = QuantConvWeights::new(64, 64, 3, w, dense.bias_acc().to_vec(), dense.requant(), dense.relu());
        for (label, grouping) in [("lockstep (paper baseline)", false), ("grouped by nnz (future work)", true)] {
            let stats = conv(stats_only(32768, 16).filter_grouping(grouping), "g", &input, &qw, out_shape);
            text.push_str(&format!("  {:<30} {:>10} cycles\n", label, stats.compute_cycles));
            out.grouping.push((label.to_string(), stats.compute_cycles));
        }
    }

    // 3. Striping overhead vs. bank capacity (conv2_2-like layer).
    text.push_str("\nAblation 3 — striping overhead vs. SRAM bank capacity\n");
    text.push_str("  bank tiles   striping factor   compute cycles\n");
    for bank_tiles in [32768usize, 16384, 8192, 4096, 3000] {
        let (qw, input, out_shape) = make_conv_layer(128, 128, 112, 1.0, 3);
        let stats = conv(stats_only(bank_tiles, 16), "s", &input, &qw, out_shape);
        text.push_str(&format!(
            "  {:>10} {:>17.3} {:>16}\n",
            bank_tiles, stats.striping_factor, stats.compute_cycles
        ));
        out.striping.push((bank_tiles, stats.striping_factor, stats.compute_cycles));
    }

    // 4. Weight-fetch bandwidth (deep, weight-heavy layer).
    text.push_str("\nAblation 4 — packed-weight fetch bandwidth (conv5-like layer)\n");
    text.push_str("  bytes/cycle   compute cycles\n");
    for bw in [2usize, 4, 8, 16, 32] {
        let (qw, input, out_shape) = make_conv_layer(512, 512, 16, 1.0, 9);
        let stats = conv(stats_only(32768, bw), "w", &input, &qw, out_shape);
        text.push_str(&format!("  {:>11} {:>16}\n", bw, stats.compute_cycles));
        out.weight_bandwidth.push((bw, stats.compute_cycles));
    }

    // 5. Bitwidth minimization (the paper's §IV-A range analysis).
    text.push_str("\nAblation 5 — automated bitwidth minimization (256-opt synthesis)\n");
    {
        use zskip_hls::bitwidth::conservative_widths;
        use zskip_hls::design::synthesize_with_widths;
        use zskip_hls::{Device, Variant};
        let v = Variant::U256Opt;
        let minimized = v.synthesize(1);
        let conservative =
            synthesize_with_widths(&v.arch(1), &v.constraints(), &Device::arria10_sx660(), &conservative_widths());
        for (label, r) in [("range-minimized (paper default)", &minimized), ("conservative 32-bit", &conservative)] {
            text.push_str(&format!("  {:<32} {:>9.0} ALMs  (ALM util {:>4.1}%)\n", label, r.total.alms, r.utilization.alm * 100.0));
            out.bitwidth.push((label.to_string(), r.total.alms));
        }
    }

    // 6. FIFO depth (cycle-exact backend; queue slack hides the
    // accumulator finalize/barrier latency between positions).
    text.push_str("\nAblation 6 — inter-kernel FIFO depth (cycle-exact small conv)\n");
    text.push_str("  depth   cycles\n");
    {
        use zskip_core::{cycle, BankSet, ConvInstr, FmLayout, GroupWeights, Instruction};
        use zskip_tensor::Tensor;
        let (qw, _, _) = make_conv_layer(8, 8, 16, 0.6, 4);
        let input = Tensor::from_fn(8, 16, 16, |c, y, x| {
            Sm8::from_i32_saturating(((c * 31 + y * 7 + x) % 200) as i32 - 100)
        })
        .padded(1);
        for depth in [1usize, 2, 4, 8, 16] {
            let cfg = AccelConfig { fifo_depth: depth, ..config(4096, 16) };
            let tiled = TiledFeatureMap::from_tensor(&input);
            let in_layout = FmLayout::full(0, input.shape());
            let out_layout = FmLayout::full(in_layout.end(), Shape::new(8, 16, 16));
            let mut banks = BankSet::new(&cfg);
            in_layout.store(&mut banks, &tiled, 0..tiled.tiles_y());
            let mut scratchpad = Vec::new();
            let mut instrs = Vec::new();
            for g in 0..2 {
                let gw = GroupWeights::from_filters(&qw, g * 4, 4);
                let instr = ConvInstr::for_group(&qw, g * 4, 4, &in_layout, 0, &out_layout, scratchpad.len());
                instrs.push(Instruction::Conv(instr.expect("ablation geometry fits the instruction fields")));
                scratchpad.extend_from_slice(gw.as_bytes());
            }
            let cycles = cycle::run(&cfg, banks, &scratchpad, &instrs, &Default::default())
                .expect("runs")
                .cycles;
            text.push_str(&format!("  {:>5} {:>8}\n", depth, cycles));
            out.fifo_depth.push((depth, cycles));
        }
    }

    print!("{text}");
    write_artifacts("ablations", &text, &out);
}
