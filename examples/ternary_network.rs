//! Ternary-weight networks on the zero-skipping accelerator — the paper's
//! future work (§VII: "other neural network styles, including binarized,
//! ternary and recurrent networks"), running on the *unmodified* datapath.
//!
//! Ternary weights are `{-w, 0, +w}` per layer. The `0` weights vanish
//! into the zero-skipping path; the `±1` magnitudes are exact in
//! sign+magnitude. Only the offline packing step changes, exactly as the
//! paper envisioned for the HLS-generated architecture.
//!
//! ```sh
//! cargo run --release --example ternary_network
//! ```

use zskip::accel::{AccelConfig, BackendKind, Session};
use zskip::hls::Variant;
use zskip::nn::eval::{compare, synthetic_inputs};
use zskip::nn::layer::{conv3x3, maxpool2x2, LayerSpec, NetworkSpec};
use zskip::nn::model::{Network, SyntheticModelConfig};
use zskip::tensor::Shape;

fn main() {
    let spec = NetworkSpec {
        name: "ternary-net".into(),
        input: Shape::new(3, 32, 32),
        layers: vec![
            conv3x3("conv1", 3, 16),
            conv3x3("conv2", 16, 16),
            maxpool2x2("pool1"),
            conv3x3("conv3", 16, 32),
            maxpool2x2("pool2"),
            LayerSpec::Fc { name: "fc".into(), in_features: 32 * 8 * 8, out_features: 10, relu: false },
        ],
    };
    let net = Network::synthetic(spec.clone(), &SyntheticModelConfig::default());
    let calib = synthetic_inputs(11, 4, spec.input);
    let q8 = net.quantize(&calib);
    let qt = net.quantize_ternary(&calib);

    println!("conv weight density:  8-bit {:?}", round3(&q8.conv_densities()));
    println!("                    ternary {:?}", round3(&qt.conv_densities()));

    let config = AccelConfig::for_variant_instances(Variant::U256Opt, 1);
    let session = Session::builder(config).backend(BackendKind::Model).build().unwrap();
    let input = synthetic_inputs(12, 1, spec.input).pop().expect("one");

    let r8 = session.infer(&q8, &input).expect("fits");
    let rt = session.infer(&qt, &input).expect("fits");
    assert_eq!(r8.output, q8.forward_quant(&input), "8-bit bit-exact");
    assert_eq!(rt.output, qt.forward_quant(&input), "ternary bit-exact");

    let c8: u64 = r8.conv_layers().map(|l| l.stats.total_cycles).sum();
    let ct: u64 = rt.conv_layers().map(|l| l.stats.total_cycles).sum();
    println!("\nconv cycles: 8-bit {c8}, ternary {ct} ({:.2}x faster, no hardware change)", c8 as f64 / ct as f64);

    let inputs = synthetic_inputs(13, 10, spec.input);
    println!("fidelity  8-bit: {}", compare(&net, &q8, &inputs));
    println!("fidelity ternary: {}", compare(&net, &qt, &inputs));
    println!("\n(ternary trades accuracy for the sparsity the zero-skipping path turns into cycles)");
}

fn round3(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 1000.0).round() / 1000.0).collect()
}
