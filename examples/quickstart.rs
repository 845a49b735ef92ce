//! Quickstart: build a small CNN, quantize it to 8-bit sign+magnitude,
//! run it on the simulated zero-skipping accelerator, and check the result
//! against the software golden model bit-for-bit.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use zskip::hls::Variant;
use zskip::nn::eval::synthetic_inputs;
use zskip::prelude::*;
use zskip::nn::layer::{conv3x3, maxpool2x2, LayerSpec, NetworkSpec};
use zskip::nn::model::{QuantizedNetwork, SyntheticModelConfig, WeightCode};
use zskip::nn::Scales;
use zskip::quant::DensityProfile;
use zskip::tensor::Shape;

fn main() {
    // 1. Describe a small network (VGG-style blocks).
    let spec = NetworkSpec {
        name: "quickstart".into(),
        input: Shape::new(3, 32, 32),
        layers: vec![
            conv3x3("conv1", 3, 16),
            maxpool2x2("pool1"),
            conv3x3("conv2", 16, 32),
            maxpool2x2("pool2"),
            LayerSpec::Fc { name: "fc".into(), in_features: 32 * 8 * 8, out_features: 10, relu: false },
            LayerSpec::Softmax,
        ],
    };

    // 2. Synthesize float weights (seeded), prune 60%, and quantize with
    //    max-abs calibration — the stand-in for the paper's Caffe flow.
    //    The set-up walks the network layer by layer, so the float model
    //    never exists whole.
    let calib = synthetic_inputs(2, 4, spec.input);
    let qnet = QuantizedNetwork::synthetic(
        &spec,
        &SyntheticModelConfig { seed: 1, density: DensityProfile::uniform(2, 0.4) },
        Scales::Calibrate(&calib),
        WeightCode::Int8,
    );
    println!("network: {} ({} MMACs/inference)", spec.name, spec.total_macs() / 1_000_000);
    println!("conv weight densities after pruning+quantization: {:?}", qnet.conv_densities());

    // 3. Run inference on the simulated accelerator (256-opt variant:
    //    4 conv units x 4 filter lanes x 16 values = 256 MACs/cycle)
    //    through a Session — the same surface `zskip infer/batch/serve`
    //    use.
    let config = AccelConfig::for_variant_instances(Variant::U256Opt, 1);
    let session =
        Session::builder(config).backend(BackendKind::Model).build().expect("valid config");
    let input = synthetic_inputs(3, 1, spec.input).pop().expect("one input");
    let report = session.infer(&qnet, &input).expect("network fits the accelerator");

    // 4. The accelerator must agree with the integer golden model exactly.
    let golden = qnet.forward_quant(&input);
    assert_eq!(report.output, golden, "accelerator output is bit-exact vs the software model");
    println!("\naccelerator output matches the software golden model bit-for-bit");

    // 5. Performance summary.
    println!("\nper-layer accelerator cycles (at {:.0} MHz):", config.clock_mhz);
    for layer in &report.layers {
        if layer.stats.total_cycles > 0 {
            println!(
                "  {:<8} {:>9} cycles  {:>7.2} effective GOPS",
                layer.name,
                layer.stats.total_cycles,
                layer.effective_gops(&config)
            );
        } else {
            println!("  {:<8} host (ARM) execution", layer.name);
        }
    }
    println!(
        "\ntotal: {} cycles = {:.2} ms/inference, DDR traffic {} KiB",
        report.total_cycles,
        report.total_cycles as f64 * config.cycle_seconds() * 1e3,
        report.ddr_bytes / 1024
    );

    let top = zskip::nn::fc::argmax(&report.output).expect("non-empty output");
    println!("predicted class: {top}");
}
