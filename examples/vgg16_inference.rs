//! End-to-end VGG-16 inference on the simulated accelerator — the paper's
//! headline experiment.
//!
//! Two parts:
//! 1. **Numerics** at reduced spatial scale (VGG-16 structure, 64x64
//!    input): full functional inference through the accelerator, checked
//!    bit-exactly against the software golden model, with a fidelity
//!    report (float vs. quantized top-1 agreement) substituting for the
//!    paper's data-gated ImageNet accuracy.
//! 2. **Throughput** at full 224x224 scale (stats-only): per-layer cycles
//!    and effective GOPS on the 512-opt design point, for both the
//!    reduced-precision and the pruned model — the figure bins' models
//!    (`zskip_bench::build_vgg16`).
//!
//! ```sh
//! cargo run --release --example vgg16_inference
//! ```

use zskip::accel::{AccelConfig, BackendKind, Session};
use zskip::hls::Variant;
use zskip::nn::eval::{compare, synthetic_inputs};
use zskip::nn::model::{Network, SyntheticModelConfig};
use zskip::nn::vgg16::vgg16_scaled_spec;
use zskip::quant::DensityProfile;
use zskip_bench::{build_vgg16, ModelKind};

fn main() {
    // ---- Part 1: numerics on the scaled VGG-16 ----
    let spec = vgg16_scaled_spec(64);
    println!("== numerics: {} ({} layers, {:.1} GMACs) ==", spec.name, spec.layers.len(), spec.total_macs() as f64 / 1e9);
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed: 99, density: DensityProfile::deep_compression_vgg16() },
    );
    let calib = synthetic_inputs(7, 2, spec.input);
    let qnet = net.quantize(&calib);

    let config = AccelConfig::for_variant_instances(Variant::U256Opt, 1);
    let session = Session::builder(config).backend(BackendKind::Model).build().unwrap();
    let input = synthetic_inputs(8, 1, spec.input).pop().expect("one input");
    let report = session.infer(&qnet, &input).expect("fits");
    assert_eq!(report.output, qnet.forward_quant(&input), "bit-exact vs golden model");
    println!("accelerator output bit-exact vs software golden model");

    let inputs = synthetic_inputs(9, 8, spec.input);
    let fidelity = compare(&net, &qnet, &inputs);
    println!("quantization fidelity (ImageNet substitute): {fidelity}");

    // ---- Part 2: full-scale throughput (the paper's Figs. 7-8 data) ----
    for (label, kind) in
        [("reduced precision", ModelKind::ReducedPrecision), ("reduced precision + pruning", ModelKind::Pruned)]
    {
        println!("\n== throughput: VGG-16 224x224, 512-opt, {label} ==");
        let full = build_vgg16(kind);
        let config = AccelConfig::for_variant_instances(Variant::U256Opt, 2);
        let session = Session::builder(config).functional(false).build().unwrap();
        let input = zskip::tensor::Tensor::<f32>::zeros(3, 224, 224);
        let report = session.infer(&full, &input).expect("fits");
        println!("  layer      cycles        eff.GOPS");
        for l in report.conv_layers() {
            println!("  {:<9} {:>10} {:>12.1}", l.name, l.stats.total_cycles, l.effective_gops(&config));
        }
        println!(
            "  average {:.1} GOPS, peak {:.1} GOPS, whole network {:.1} ms/inference",
            report.mean_gops(&config),
            report.peak_gops(&config),
            report.total_cycles as f64 * config.cycle_seconds() * 1e3
        );
    }
    println!("\npaper reference (512-opt): 39.5/61 GOPS unpruned, 53.3/138 GOPS pruned.");
}

