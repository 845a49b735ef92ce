//! Shared benchmark harness: builds the paper's workloads and regenerates
//! every table and figure of the evaluation (§V).
//!
//! Binaries:
//! * `fig6_area` — ALM usage per accelerator module (paper Fig. 6);
//! * `variant_sweep` — one sweep of the hls space over both VGG-16
//!   models, rendered as cycle efficiency vs. the ideal (paper Fig. 7),
//!   absolute effective GOPS (paper Fig. 8) and power consumption with
//!   GOPS/W (paper Table I);
//! * `ablations` — the design-choice ablations;
//! * `layer_detail` — the per-layer cycles, GOPS and efficiency behind
//!   Figs. 7–8 (printed only);
//! * `kernel_bench` — the host SIMD kernel tiers, `BENCH_kernels.json`;
//! * `batch_bench` — the batch engine, the serving daemon and sharding,
//!   `BENCH_batch.json`.
//!
//! The figure bins write their artifacts to `experiments/` as text and
//! JSON, the `*_bench` bins a `BENCH_*.json` point beside one.

use zskip_json::{Json, ToJson};
use zskip_core::{AccelConfig, InferenceReport};
use zskip_nn::model::{QuantizedNetwork, SyntheticModelConfig, WeightCode};
use zskip_nn::{vgg16_spec, Scales};
use zskip_quant::DensityProfile;

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
/// (same channel structure, same seed: its conv weights are the full
/// model's, since conv weights are drawn before any FC weight) because a
/// full 224x224 float forward is needlessly expensive for scale
/// calibration; the full model is quantized with the transferred scales.
/// Both are built layer by layer from the seed, so neither float network
/// is ever held whole.
pub fn build_vgg16(kind: ModelKind) -> QuantizedNetwork {
    let config = SyntheticModelConfig { seed: HARNESS_SEED, density: kind.density() };
    let surrogate = zskip_nn::vgg16::vgg16_scaled_spec(32);
    let calib = zskip_nn::eval::synthetic_inputs(HARNESS_SEED ^ 7, 1, surrogate.input);
    let scales =
        QuantizedNetwork::synthetic(&surrogate, &config, Scales::Calibrate(&calib), WeightCode::Int8).activation_scales;
    QuantizedNetwork::synthetic(&vgg16_spec(), &config, Scales::Given(&scales), WeightCode::Int8)
}

/// One (variant, model) sweep point of the paper's evaluation.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Design-point label (`"256-opt"`, `"512-opt"` etc.).
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

/// Converts an inference report into sweep data.
pub fn sweep_point_from_report(
    label: &str,
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
        variant: label.to_string(),
        model: kind.suffix().to_string(),
        clock_mhz: config.clock_mhz,
        macs_per_cycle: config.macs_per_cycle(),
        layers,
    }
}

/// Renders a horizontal ASCII bar.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max > 0.0 { ((value / max) * width as f64).round() as usize } else { 0 };
    "#".repeat(n.min(width))
}

/// Creates the `experiments/` output directory under the working
/// directory and returns its path. Outputs land where the bin is run —
/// the committed ones when run from the repository root — never in the
/// checkout the bin was built from, so a copy that shares its `target/`
/// cannot overwrite them.
pub fn experiments_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("experiments");
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
/// trajectory point as `<bench_json>` (a `BENCH_*.json` name), both under
/// the working directory (see [`experiments_dir`]).
pub fn write_bench_artifacts<T: ToJson>(name: &str, bench_json: &str, text: &str, data: &T) {
    std::fs::write(experiments_dir().join(format!("{name}.txt")), text).expect("write text artifact");
    std::fs::write(bench_json, zskip_json::to_string_pretty(data)).expect("write BENCH json artifact");
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
    use rand::{RngCore, SplitMix64};
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

#[cfg(test)]
mod tests {
    use super::*;
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
    fn make_conv_layer_hits_requested_density() {
        let (qw, input, out_shape) = make_conv_layer(16, 16, 16, 0.3, 5);
        let d = qw.density();
        assert!((d - 0.3).abs() < 0.05, "density {d}");
        assert_eq!(out_shape, Shape::new(16, 16, 16));
        // Input is padded by 1.
        assert_eq!(input.logical_shape(), Shape::new(16, 18, 18));
    }
}
