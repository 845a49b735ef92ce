//! The set-up's peak live heap. `QuantizedNetwork::synthetic` draws,
//! calibrates and codes one layer at a time, so at its peak it holds the
//! integer layers coded so far, the float layer in hand and little else:
//! never more than the finished `QuantizedNetwork` plus its two largest
//! layers' float weights, plus a small slack. Drawing the whole float
//! network first (`Network::synthetic` + `quantize`) must exceed that
//! bound, or the bound shows nothing.
//!
//! The counting allocator's high-water mark is process-wide, so the
//! binary's tests take turns through one lock.

mod common;

use common::{live_bytes, peak_bytes};
use std::sync::Mutex;
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::layer::{conv3x3, maxpool2x2, LayerRef, LayerSpec, NetworkSpec};
use zskip::nn::model::{Network, QuantizedNetwork, SyntheticModelConfig, WeightCode};
use zskip::nn::Scales;
use zskip::quant::DensityProfile;
use zskip::tensor::Shape;

/// What a streamed build may hold beyond the coded layers and two float
/// layers: the calibration activations (a 4×4 plane of 64 channels is
/// 4 KiB per image, two boundaries of it alive plus a kept skip), the
/// float conv's lowered input (576 taps × 16 positions, 36 KiB per
/// worker), the pruning pass's counts and bucket, the scales and the plan.
/// The whole float networks below are over 2 MiB, so the whole-network
/// set-up still lands well past the bound.
const SLACK: usize = 512 << 10;

static TURN: Mutex<()> = Mutex::new(());

/// Twenty equal 3×3 convs, 64 channels on a 4×4 plane: the float network
/// is ten times its two largest layers.
fn chain_spec() -> NetworkSpec {
    let mut layers = vec![conv3x3("c0", 3, 64)];
    layers.extend((1..20).map(|i| conv3x3(&format!("c{i}"), 64, 64)));
    layers.push(maxpool2x2("pool"));
    layers.push(LayerSpec::Fc { name: "fc".into(), in_features: 64 * 2 * 2, out_features: 10, relu: false });
    NetworkSpec { name: "chain".into(), input: Shape::new(3, 4, 4), layers }
}

/// Eight residual blocks of two batch-normed convs and an `Add`, a `Ref`
/// into the last join, global average pooling and an FC head.
fn residual_spec() -> NetworkSpec {
    let conv_bn = |layers: &mut Vec<LayerSpec>, name: String, in_c, relu| {
        layers.push(LayerSpec::Conv { name: name.clone(), in_c, out_c: 64, k: 3, stride: 1, pad: 1, relu: false });
        layers.push(LayerSpec::BatchNorm { name: format!("{name}_bn"), relu });
    };
    let mut layers = Vec::new();
    conv_bn(&mut layers, "stem".into(), 3, true);
    for b in 0..8 {
        let block_in = layers.len() - 1;
        conv_bn(&mut layers, format!("b{b}a"), 64, true);
        conv_bn(&mut layers, format!("b{b}b"), 64, false);
        layers.push(LayerSpec::Add { name: format!("b{b}_join"), from: LayerRef::Layer(block_in), relu: true });
    }
    let last_join = layers.len() - 1;
    layers.push(maxpool2x2("pool"));
    layers.push(LayerSpec::Ref { name: "skip".into(), from: LayerRef::Layer(last_join) });
    layers.push(LayerSpec::GlobalAvgPool { name: "gap".into() });
    layers.push(LayerSpec::Fc { name: "fc".into(), in_features: 64, out_features: 10, relu: false });
    NetworkSpec { name: "residual".into(), input: Shape::new(3, 4, 4), layers }
}

/// The float bytes of each weighted layer of `spec`.
fn float_layer_bytes(spec: &NetworkSpec) -> Vec<usize> {
    let floats = spec.layers.iter().filter_map(|l| match *l {
        LayerSpec::Conv { in_c, out_c, k, .. } => Some(out_c * in_c * k * k + out_c),
        LayerSpec::Fc { in_features, out_features, .. } => Some(out_features * in_features + out_features),
        _ => None,
    });
    floats.map(|n| n * std::mem::size_of::<f32>()).collect()
}

/// The bytes a build of `spec` leaves live, and its peak live heap.
fn measure(build: impl FnOnce() -> QuantizedNetwork) -> (QuantizedNetwork, usize, usize) {
    let start = live_bytes();
    let mut built = None;
    let peak = peak_bytes(|| built = Some(build()));
    let qnet = built.expect("built");
    let retained = live_bytes() - start;
    (qnet, retained, peak)
}

fn check(spec: &NetworkSpec, density: DensityProfile, calibration_images: usize) {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let config = SyntheticModelConfig { seed: 1, density };
    let calib = synthetic_inputs(2, calibration_images, spec.input);
    let (streamed, retained, peak) = measure(|| {
        QuantizedNetwork::synthetic(spec, &config, Scales::Calibrate(&calib), WeightCode::Int8)
    });
    let mut layers = float_layer_bytes(spec);
    layers.sort_unstable_by(|a, b| b.cmp(a));
    let bound = retained + layers[0] + layers[1] + SLACK;
    assert!(
        peak <= bound,
        "{}: streamed set-up peaked at {peak} B, over {bound} B ({retained} B coded + two float layers + slack)",
        spec.name
    );
    let (whole, _, whole_peak) = measure(|| Network::synthetic(spec.clone(), &config).quantize(&calib));
    println!("{}: streamed peak {peak} B, whole-network peak {whole_peak} B, bound {bound} B", spec.name);
    assert!(streamed == whole, "{}: the streamed build differs from Network::synthetic + quantize", spec.name);
    assert!(
        whole_peak > bound,
        "{}: the whole-network set-up peaked at {whole_peak} B, within the streamed bound {bound} B",
        spec.name
    );
}

#[test]
fn a_streamed_set_up_holds_at_most_two_float_layers() {
    let chain = chain_spec();
    check(&chain, DensityProfile::uniform(20, 0.35), 2);
    let residual = residual_spec();
    check(&residual, DensityProfile::uniform(17, 0.35), 2);
}

/// The CLI's VGG-16-32 recipe: fc7 (64 MiB of floats) and fc8 bound it.
#[test]
#[cfg_attr(debug_assertions, ignore = "two VGG-16-32 set-ups: run with --release (scripts/verify.sh does)")]
fn a_streamed_vgg16_32_set_up_holds_at_most_two_float_layers() {
    check(&zskip::nn::vgg16::vgg16_scaled_spec(32), DensityProfile::deep_compression_vgg16(), 1);
}
