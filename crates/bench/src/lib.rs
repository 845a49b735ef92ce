//! Shared benchmark harness: builds the paper's workloads and regenerates
//! every table and figure of the evaluation (§V).
//!
//! Binaries:
//! * `fig6_area` — ALM usage per accelerator module (paper Fig. 6);
//! * `fig7_efficiency` — cycle efficiency of each variant vs. the ideal
//!   (paper Fig. 7);
//! * `fig8_gops` — absolute effective GOPS across variants (paper Fig. 8);
//! * `table1_power` — power consumption and GOPS/W (paper Table I);
//! * `all_experiments` — everything above plus the in-text numbers,
//!   written to `experiments/` as text and JSON.

use zskip_json::{Json, ToJson};
use zskip_core::{AccelConfig, Driver, InferenceReport};
use zskip_hls::Variant;
use zskip_nn::model::{Network, QuantizedNetwork, SyntheticModelConfig};
use zskip_nn::vgg16_spec;
use zskip_quant::DensityProfile;
use zskip_tensor::Tensor;

/// Which VGG-16 model variant (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Reduced precision only (variant #1).
    ReducedPrecision,
    /// Reduced precision + pruning (variant #2, deep-compression profile).
    Pruned,
}

impl ModelKind {
    /// Paper-style suffix: pruned results are labelled `-pr`.
    pub fn suffix(&self) -> &'static str {
        match self {
            ModelKind::ReducedPrecision => "",
            ModelKind::Pruned => "-pr",
        }
    }

    /// The density profile for synthesizing this model.
    pub fn density(&self) -> DensityProfile {
        match self {
            ModelKind::ReducedPrecision => DensityProfile::dense(13),
            ModelKind::Pruned => DensityProfile::deep_compression_vgg16(),
        }
    }
}

/// Deterministic seed shared by every harness so results reproduce.
pub const HARNESS_SEED: u64 = 0x5aca_de01;

/// Builds the quantized VGG-16 model of the given kind (synthetic seeded
/// weights; see DESIGN.md §2 for the substitution rationale).
///
/// Activation scales are calibrated on a spatially scaled-down surrogate
/// (same channel structure) because a full 224x224 float forward is
/// needlessly expensive for scale calibration.
pub fn build_vgg16(kind: ModelKind) -> QuantizedNetwork {
    build_vgg16_with_density(kind.density())
}

/// Quantizes `net` with the given per-boundary activation scales (the same
/// arithmetic as `Network::quantize`, with scales supplied instead of
/// calibrated).
pub fn requantize_with_scales(net: &Network, scales: &[f32]) -> QuantizedNetwork {
    use zskip_nn::conv::QuantConvWeights;
    use zskip_nn::fc::QuantFcWeights;
    use zskip_nn::layer::LayerSpec;
    use zskip_nn::model::QuantizedConvLayer;
    use zskip_nn::plan::ExecPlan;
    use zskip_quant::{QuantParams, Requantizer};

    assert_eq!(scales.len(), net.spec.layers.len() + 1, "one scale per layer boundary");
    let mut conv = Vec::new();
    let mut fc = Vec::new();
    let mut conv_i = 0;
    let mut fc_i = 0;
    for (li, layer) in net.spec.layers.iter().enumerate() {
        let s_in = scales[li];
        let s_out = scales[li + 1];
        match layer {
            LayerSpec::Conv { relu, .. } => {
                let w = &net.conv_weights[conv_i];
                let wq = QuantParams::from_max_abs(&w.w);
                conv.push(QuantizedConvLayer {
                    layer_index: li,
                    weights: QuantConvWeights::new(
                        w.out_c,
                        w.in_c,
                        w.k,
                        w.w.iter().map(|&v| wq.quantize(v)).collect(),
                        w.bias.iter().map(|&b| (b / (s_in * wq.scale)).round() as i64).collect(),
                        Requantizer::from_ratio((s_in * wq.scale / s_out) as f64),
                        *relu,
                    ),
                    in_scale: s_in,
                    w_scale: wq.scale,
                    out_scale: s_out,
                });
                conv_i += 1;
            }
            LayerSpec::Fc { relu, .. } => {
                let w = &net.fc_weights[fc_i];
                let wq = QuantParams::from_max_abs(&w.w);
                fc.push(QuantFcWeights {
                    out_features: w.out_features,
                    in_features: w.in_features,
                    w: w.w.iter().map(|&v| wq.quantize(v)).collect(),
                    bias_acc: w.bias.iter().map(|&b| (b / (s_in * wq.scale)).round() as i64).collect(),
                    requant: Requantizer::from_ratio((s_in * wq.scale / s_out) as f64),
                    relu: *relu,
                });
                fc_i += 1;
            }
            _ => {}
        }
    }
    QuantizedNetwork {
        spec: net.spec.clone(),
        plan: ExecPlan::build(&net.spec).expect("network must be shape-valid"),
        input_params: QuantParams { scale: scales[0] },
        activation_scales: scales.to_vec(),
        conv,
        fc,
    }
}

/// One (variant, model) sweep point of the paper's evaluation.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Variant label (`"256-opt"` etc.).
    pub variant: String,
    /// Model label (`""` or `"-pr"`).
    pub model: String,
    /// Operating clock in MHz.
    pub clock_mhz: f64,
    /// Peak hardware MACs/cycle.
    pub macs_per_cycle: u64,
    /// Per-conv-layer results.
    pub layers: Vec<LayerPoint>,
}

/// Per-layer sweep data.
#[derive(Debug, Clone)]
pub struct LayerPoint {
    /// Layer name.
    pub name: String,
    /// Dense MACs.
    pub dense_macs: u64,
    /// Total cycles (compute + non-overlapped DMA).
    pub cycles: u64,
    /// Effective GOPS at the variant clock.
    pub effective_gops: f64,
    /// Efficiency vs. ideal (observed / ideal throughput, paper Fig. 7).
    pub efficiency: f64,
    /// Striping factor folded into the ideal (paper's "~15%").
    pub striping_factor: f64,
}

impl ToJson for SweepPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("variant", self.variant.to_json()),
            ("model", self.model.to_json()),
            ("clock_mhz", self.clock_mhz.to_json()),
            ("macs_per_cycle", self.macs_per_cycle.to_json()),
            ("layers", self.layers.to_json()),
        ])
    }
}

impl ToJson for LayerPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("dense_macs", self.dense_macs.to_json()),
            ("cycles", self.cycles.to_json()),
            ("effective_gops", self.effective_gops.to_json()),
            ("efficiency", self.efficiency.to_json()),
            ("striping_factor", self.striping_factor.to_json()),
        ])
    }
}

impl SweepPoint {
    /// Mean effective GOPS over conv layers (Fig. 8 bars).
    pub fn mean_gops(&self) -> f64 {
        self.layers.iter().map(|l| l.effective_gops).sum::<f64>() / self.layers.len().max(1) as f64
    }

    /// Peak (best single layer) effective GOPS.
    pub fn peak_gops(&self) -> f64 {
        self.layers.iter().map(|l| l.effective_gops).fold(0.0, f64::max)
    }

    /// Mean efficiency over conv layers.
    pub fn mean_efficiency(&self) -> f64 {
        self.layers.iter().map(|l| l.efficiency).sum::<f64>() / self.layers.len().max(1) as f64
    }

    /// Best single-layer efficiency.
    pub fn best_efficiency(&self) -> f64 {
        self.layers.iter().map(|l| l.efficiency).fold(0.0, f64::max)
    }

    /// Worst single-layer efficiency.
    pub fn worst_efficiency(&self) -> f64 {
        self.layers.iter().map(|l| l.efficiency).fold(f64::INFINITY, f64::min)
    }
}

/// Runs one (variant, model) sweep point: full VGG-16, stats-only model
/// backend (cycle counts are value-independent).
pub fn run_sweep_point(variant: Variant, kind: ModelKind, qnet: &QuantizedNetwork) -> SweepPoint {
    let config = AccelConfig::for_variant(variant);
    let driver =
        Driver::builder(config).functional(false).build().expect("sweep config is valid");
    let input = Tensor::<f32>::zeros(3, 224, 224);
    let report = driver.run_network(qnet, &input).expect("VGG-16 fits the planner");
    sweep_point_from_report(variant, kind, &config, &report)
}

/// Converts an inference report into sweep data.
pub fn sweep_point_from_report(
    variant: Variant,
    kind: ModelKind,
    config: &AccelConfig,
    report: &InferenceReport,
) -> SweepPoint {
    let layers = report
        .conv_layers()
        .map(|l| LayerPoint {
            name: l.name.clone(),
            dense_macs: l.dense_macs,
            cycles: l.stats.total_cycles,
            effective_gops: l.effective_gops(config),
            // Paper's ideal: dense computations inflated by the striping
            // overhead, at peak MACs/cycle (perf::efficiency).
            efficiency: zskip_perf::efficiency(
                l.dense_macs,
                l.stats.striping_factor,
                config.macs_per_cycle(),
                l.stats.total_cycles,
            ),
            striping_factor: l.stats.striping_factor,
        })
        .collect();
    SweepPoint {
        variant: variant.label().to_string(),
        model: kind.suffix().to_string(),
        clock_mhz: config.clock_mhz,
        macs_per_cycle: config.macs_per_cycle(),
        layers,
    }
}

/// Runs the full 4-variant x 2-model sweep of the paper's §V.
pub fn full_sweep() -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for kind in [ModelKind::ReducedPrecision, ModelKind::Pruned] {
        let qnet = build_vgg16(kind);
        for variant in Variant::all() {
            out.push(run_sweep_point(variant, kind, &qnet));
        }
    }
    out
}

/// Renders a horizontal ASCII bar.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max > 0.0 { ((value / max) * width as f64).round() as usize } else { 0 };
    "#".repeat(n.min(width))
}

/// Creates the `experiments/` output directory and returns its path.
pub fn experiments_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../experiments");
    std::fs::create_dir_all(&dir).expect("can create experiments dir");
    dir
}

/// Writes both a text and a JSON artifact for an experiment.
pub fn write_artifacts<T: ToJson>(name: &str, text: &str, data: &T) {
    let dir = experiments_dir();
    std::fs::write(dir.join(format!("{name}.txt")), text).expect("write text artifact");
    let json = zskip_json::to_string_pretty(data);
    std::fs::write(dir.join(format!("{name}.json")), json).expect("write json artifact");
}

/// Writes a `*_bench` bin's artifacts once each: the human-readable
/// rendering as `experiments/<name>.txt` and the machine-readable
/// trajectory point as `<bench_json>` (a `BENCH_*.json` name) at the
/// repository root.
pub fn write_bench_artifacts<T: ToJson>(name: &str, bench_json: &str, text: &str, data: &T) {
    std::fs::write(experiments_dir().join(format!("{name}.txt")), text).expect("write text artifact");
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::write(root.join(bench_json), zskip_json::to_string_pretty(data))
        .expect("write BENCH json artifact");
}

/// Builds a standalone quantized conv layer with uniform weight density —
/// the workload for single-layer ablations.
pub fn make_conv_layer(
    out_c: usize,
    in_c: usize,
    hw: usize,
    density: f64,
    seed: u64,
) -> (zskip_nn::conv::QuantConvWeights, zskip_tensor::TiledFeatureMap<zskip_quant::Sm8>, zskip_tensor::Shape) {
    use zskip_core::rng::SplitMix64;
    use zskip_quant::{Requantizer, Sm8};
    let n = out_c * in_c * 9;
    let mut rng = SplitMix64::new(seed);
    let w: Vec<Sm8> = (0..n)
        .map(|_| {
            let h = rng.next_u64();
            if (h >> 32) % 1000 < (density * 1000.0) as u64 {
                Sm8::from_i32_saturating(((h >> 17) % 253) as i32 - 126)
            } else {
                Sm8::ZERO
            }
        })
        .collect();
    let qw = zskip_nn::conv::QuantConvWeights::new(
        out_c,
        in_c,
        3,
        w,
        vec![0; out_c],
        Requantizer::from_ratio(1.0 / 64.0),
        true,
    );
    let input = zskip_tensor::Tensor::from_fn(in_c, hw, hw, |c, y, x| {
        Sm8::from_i32_saturating((((c * 31 + y * 7 + x) ^ seed as usize) % 200) as i32 - 100)
    })
    .padded(1);
    let tiled = zskip_tensor::TiledFeatureMap::from_tensor(&input);
    (qw, tiled, zskip_tensor::Shape::new(out_c, hw, hw))
}

/// Builds the bank image, scratchpad and instruction stream for one conv
/// layer followed by a 2x2 max-pool on the cycle-exact backend — a VGG-16
/// conv/pool block at engine level, shared by the scheduler benchmark
/// (`sim_bench`) and the `zskip analyze` scheduler section.
pub fn build_engine_workload(
    cfg: &AccelConfig,
    qw: &zskip_nn::conv::QuantConvWeights,
    input: &Tensor<zskip_quant::Sm8>,
) -> (zskip_core::BankSet, Vec<u8>, Vec<zskip_core::Instruction>) {
    use zskip_core::{BankSet, ConvInstr, FmLayout, GroupWeights, Instruction, PoolPadInstr, PoolPadOp};
    use zskip_tensor::{Shape, TiledFeatureMap};

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
        instrs.push(Instruction::Conv(instr.expect("workload geometry fits the instruction fields")));
        scratchpad.extend_from_slice(gw.as_bytes());
    }
    // 2x2 max-pool of the conv output, VGG-style.
    let pool_out = FmLayout::full(out_layout.end(), Shape::new(qw.out_c, h / 2, w / 2));
    let pool = PoolPadInstr::for_stripe(PoolPadOp::MaxPool { k: 2, stride: 2 }, &out_layout, 0, &pool_out, 0);
    instrs.push(Instruction::PoolPad(pool.expect("workload geometry fits the instruction fields")));
    (banks, scratchpad, instrs)
}

/// Builds a quantized full-size VGG-16 with an explicit density profile
/// (the `zskip analyze` CLI entry point).
pub fn build_vgg16_with_density(density: DensityProfile) -> QuantizedNetwork {
    let spec = vgg16_spec();
    let net = Network::synthetic(spec, &SyntheticModelConfig { seed: HARNESS_SEED, density: density.clone() });
    let surrogate = zskip_nn::vgg16::vgg16_scaled_spec(32);
    let snet = Network::synthetic(surrogate.clone(), &SyntheticModelConfig { seed: HARNESS_SEED, density });
    let calib = zskip_nn::eval::synthetic_inputs(HARNESS_SEED ^ 7, 1, surrogate.input);
    let qs = snet.quantize(&calib);
    requantize_with_scales(&net, &qs.activation_scales)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zskip_nn::eval::synthetic_inputs;
    use zskip_nn::layer::{conv3x3, NetworkSpec};
    use zskip_tensor::Shape;

    #[test]
    fn bar_scales_and_clamps() {
        assert_eq!(bar(0.0, 10.0, 20), "");
        assert_eq!(bar(5.0, 10.0, 20).len(), 10);
        assert_eq!(bar(10.0, 10.0, 20).len(), 20);
        assert_eq!(bar(50.0, 10.0, 20).len(), 20, "clamped at width");
        assert_eq!(bar(1.0, 0.0, 20), "", "zero max is safe");
    }

    #[test]
    fn model_kinds_have_distinct_profiles() {
        assert_eq!(ModelKind::ReducedPrecision.suffix(), "");
        assert_eq!(ModelKind::Pruned.suffix(), "-pr");
        assert!(ModelKind::Pruned.density().mean_density() < 0.5);
        assert_eq!(ModelKind::ReducedPrecision.density().mean_density(), 1.0);
    }

    #[test]
    fn requantize_with_scales_matches_calibrated_quantize() {
        // Quantizing with transferred scales must equal Network::quantize
        // when the scales come from the same calibration.
        let spec = NetworkSpec {
            name: "t".into(),
            input: Shape::new(3, 8, 8),
            layers: vec![conv3x3("c", 3, 4)],
        };
        let net = Network::synthetic(spec.clone(), &SyntheticModelConfig::default());
        let calib = synthetic_inputs(1, 2, spec.input);
        let direct = net.quantize(&calib);
        let transferred = requantize_with_scales(&net, &direct.activation_scales);
        assert_eq!(direct.conv[0].weights, transferred.conv[0].weights);
        assert_eq!(direct.input_params, transferred.input_params);
    }

    #[test]
    fn make_conv_layer_hits_requested_density() {
        let (qw, input, out_shape) = make_conv_layer(16, 16, 16, 0.3, 5);
        let d = qw.density();
        assert!((d - 0.3).abs() < 0.05, "density {d}");
        assert_eq!(out_shape, Shape::new(16, 16, 16));
        // Input is padded by 1.
        assert_eq!(input.logical_shape(), Shape::new(16, 18, 18));
    }

    #[test]
    #[should_panic(expected = "one scale per layer boundary")]
    fn requantize_validates_scale_count() {
        let spec = NetworkSpec {
            name: "t".into(),
            input: Shape::new(3, 8, 8),
            layers: vec![conv3x3("c", 3, 4)],
        };
        let net = Network::synthetic(spec, &SyntheticModelConfig::default());
        let _ = requantize_with_scales(&net, &[1.0]);
    }
}
