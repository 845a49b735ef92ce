//! The padding/pooling unit is instruction-programmable: "with just a few
//! instructions, the padding/max-pooling unit is capable of realizing any
//! padding/max-pooling layer (e.g. a variety of max-pooling region sizes
//! or strides)" (paper §III-C).
//!
//! This example runs a non-VGG network — 3x3/stride-2 overlapping pooling
//! (AlexNet-style) and pad-2 convolutions — end to end on the simulated
//! accelerator, and cross-checks every activation against the software
//! reference.
//!
//! ```sh
//! cargo run --release --example custom_network
//! ```

use zskip::accel::{AccelConfig, BackendKind, Session};
use zskip::hls::Variant;
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::layer::{LayerSpec, NetworkSpec};
use zskip::nn::model::{QuantizedNetwork, SyntheticModelConfig, WeightCode};
use zskip::nn::Scales;
use zskip::quant::DensityProfile;
use zskip::tensor::Shape;

fn main() {
    // An AlexNet-flavoured little network: overlapping 3x3/s2 pools.
    // (The conv datapath is stride-1; pad 1 keeps dims, pooling shrinks.)
    let spec = NetworkSpec {
        name: "custom".into(),
        input: Shape::new(3, 31, 31),
        layers: vec![
            LayerSpec::Conv { name: "c1".into(), in_c: 3, out_c: 12, k: 3, stride: 1, pad: 1, relu: true },
            LayerSpec::MaxPool { name: "p1".into(), k: 3, stride: 2 }, // 31 -> 15, overlapping
            LayerSpec::Conv { name: "c2".into(), in_c: 12, out_c: 24, k: 3, stride: 1, pad: 1, relu: true },
            LayerSpec::MaxPool { name: "p2".into(), k: 3, stride: 2 }, // 15 -> 7
            LayerSpec::Conv { name: "c3".into(), in_c: 24, out_c: 24, k: 3, stride: 1, pad: 1, relu: true },
            LayerSpec::MaxPool { name: "p3".into(), k: 2, stride: 2 }, // 7 -> 3
            LayerSpec::Fc { name: "fc".into(), in_features: 24 * 3 * 3, out_features: 7, relu: false },
        ],
    };
    println!("network {}:", spec.name);
    let shapes = spec.shapes().expect("valid");
    for (layer, shape) in spec.layers.iter().zip(&shapes[1..]) {
        println!("  {:<4} -> {}", layer.name(), shape);
    }

    let qnet = QuantizedNetwork::synthetic(
        &spec,
        &SyntheticModelConfig { seed: 4, density: DensityProfile::uniform(3, 0.5) },
        Scales::Calibrate(&synthetic_inputs(1, 3, spec.input)),
        WeightCode::Int8,
    );
    let input = synthetic_inputs(2, 1, spec.input).pop().expect("one");

    // Run on both backends; the cycle-exact one simulates all 21 kernels.
    let config = AccelConfig::for_variant_instances(Variant::U256Opt, 1);
    let model = Session::builder(config).backend(BackendKind::Model).build().unwrap().infer(&qnet, &input).expect("fits");
    let cycle = Session::builder(config).backend(BackendKind::Cycle).build().unwrap().infer(&qnet, &input).expect("fits");
    let golden = qnet.forward_quant(&input);
    assert_eq!(model.output, golden, "model backend bit-exact");
    assert_eq!(cycle.output, golden, "cycle backend bit-exact");
    println!("\nboth backends bit-exact vs the software reference");
    println!(
        "cycle-exact backend: {} cycles; transaction model: {} cycles ({:+.2}%)",
        cycle.total_cycles,
        model.total_cycles,
        100.0 * (model.total_cycles as f64 - cycle.total_cycles as f64) / cycle.total_cycles as f64
    );
    println!("\nper-layer (cycle-exact):");
    for l in &cycle.layers {
        if l.stats.total_cycles > 0 {
            println!("  {:<4} {:>8} cycles  ({} stripes)", l.name, l.stats.total_cycles, l.stats.stripes);
        }
    }
    let top = zskip::nn::fc::argmax(&cycle.output).expect("non-empty");
    println!("\npredicted class: {top}");
}
