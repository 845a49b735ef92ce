//! End-to-end integration: network inference through the full stack
//! (driver -> DMA/DDR -> striping -> instruction streams -> accelerator
//! backends) across the paper's design points.

use zskip::accel::{AccelConfig, BackendKind, Session};
use zskip::hls::{Variant, PAPER_POINTS};
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::layer::{conv3x3, maxpool2x2, LayerSpec, NetworkSpec};
use zskip::nn::model::{Network, QuantizedNetwork, SyntheticModelConfig};
use zskip::quant::DensityProfile;
use zskip::tensor::{Shape, Tensor};

fn testnet(seed: u64, density: f64) -> (QuantizedNetwork, Tensor<f32>) {
    let spec = NetworkSpec {
        name: "itest".into(),
        input: Shape::new(3, 16, 16),
        layers: vec![
            conv3x3("c1", 3, 8),
            maxpool2x2("p1"),
            conv3x3("c2", 8, 12),
            maxpool2x2("p2"),
            LayerSpec::Fc { name: "fc".into(), in_features: 12 * 4 * 4, out_features: 6, relu: false },
            LayerSpec::Softmax,
        ],
    };
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed, density: DensityProfile::uniform(2, density) },
    );
    let qnet = net.quantize(&synthetic_inputs(seed ^ 9, 3, spec.input));
    let input = synthetic_inputs(seed ^ 5, 1, spec.input).pop().expect("one");
    (qnet, input)
}

#[test]
fn every_variant_is_bit_exact_on_the_model_backend() {
    let (qnet, input) = testnet(1, 0.5);
    let golden = qnet.forward_quant(&input);
    for (label, variant, instances) in PAPER_POINTS {
        let config = AccelConfig::for_variant_instances(variant, instances);
        let report = Session::builder(config).backend(BackendKind::Model).build().unwrap().infer(&qnet, &input).expect("fits");
        assert_eq!(report.output, golden, "{label} output mismatch");
    }
}

#[test]
fn cycle_backend_matches_on_full_and_single_unit_variants() {
    let (qnet, input) = testnet(2, 0.4);
    let golden = qnet.forward_quant(&input);
    for variant in [Variant::U256Opt, Variant::U16Unopt] {
        let config = AccelConfig::for_variant_instances(variant, 1);
        let report = Session::builder(config).backend(BackendKind::Cycle).build().unwrap().infer(&qnet, &input).expect("fits");
        assert_eq!(report.output, golden, "{variant} cycle-backend mismatch");
    }
}

#[test]
fn runs_are_deterministic() {
    let (qnet, input) = testnet(3, 0.6);
    let config = AccelConfig::for_variant_instances(Variant::U256Opt, 1);
    let a = Session::builder(config).backend(BackendKind::Model).build().unwrap().infer(&qnet, &input).expect("fits");
    let b = Session::builder(config).backend(BackendKind::Model).build().unwrap().infer(&qnet, &input).expect("fits");
    assert_eq!(a.output, b.output);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.ddr_bytes, b.ddr_bytes);
}

#[test]
fn wider_datapath_is_faster() {
    let (qnet, input) = testnet(4, 1.0);
    let cycles = |v: Variant| {
        let config = AccelConfig::for_variant_instances(v, 1);
        Session::builder(config).backend(BackendKind::Model).build().unwrap()
            .infer(&qnet, &input)
            .expect("fits")
            .conv_layers()
            .map(|l| l.stats.compute_cycles)
            .sum::<u64>()
    };
    let c16 = cycles(Variant::U16Unopt);
    let c256 = cycles(Variant::U256Opt);
    assert!(c16 > c256 * 4, "16-MAC variant must be much slower: {c16} vs {c256}");
}

#[test]
fn effective_gops_never_exceeds_peak_for_dense_model() {
    let (qnet, input) = testnet(5, 1.0);
    for (label, variant, instances) in PAPER_POINTS {
        let config = AccelConfig::for_variant_instances(variant, instances);
        let report = Session::builder(config).backend(BackendKind::Model).build().unwrap().infer(&qnet, &input).expect("fits");
        let peak = config.peak_gops();
        for l in report.conv_layers() {
            assert!(
                l.effective_gops(&config) <= peak * 1.001,
                "{label}/{}: {} > {peak}",
                l.name,
                l.effective_gops(&config)
            );
        }
    }
}

#[test]
fn pruned_network_beats_dense_on_every_variant() {
    let (dense, input) = testnet(6, 1.0);
    let (pruned, _) = testnet(6, 0.3);
    for (label, variant, instances) in PAPER_POINTS {
        let config = AccelConfig::for_variant_instances(variant, instances);
        let d: u64 = Session::builder(config).backend(BackendKind::Model).build().unwrap()
            .infer(&dense, &input)
            .expect("fits")
            .conv_layers()
            .map(|l| l.stats.compute_cycles)
            .sum();
        let p: u64 = Session::builder(config).backend(BackendKind::Model).build().unwrap()
            .infer(&pruned, &input)
            .expect("fits")
            .conv_layers()
            .map(|l| l.stats.compute_cycles)
            .sum();
        assert!(p < d, "{label}: pruned {p} !< dense {d}");
    }
}

#[test]
fn zero_skip_ablation_changes_cycles_not_results() {
    let (qnet, input) = testnet(7, 0.3);
    let config = AccelConfig::for_variant_instances(Variant::U256Opt, 1);
    let with = Session::builder(config).backend(BackendKind::Model).build().unwrap();
    let without = Session::builder(config).backend(BackendKind::Model).zero_skipping(false).build().unwrap();
    let a = with.infer(&qnet, &input).expect("fits");
    let b = without.infer(&qnet, &input).expect("fits");
    assert_eq!(a.output, b.output, "zero-skipping must never change results");
    let ca: u64 = a.conv_layers().map(|l| l.stats.compute_cycles).sum();
    let cb: u64 = b.conv_layers().map(|l| l.stats.compute_cycles).sum();
    assert!(ca < cb, "skipping saves cycles: {ca} vs {cb}");
}

/// The paper's 512-opt, 256-opt at two instances, is bit-exact on the
/// cycle-exact backend too (each stripe/group batch simulates all 21
/// kernels).
#[test]
fn five_twelve_opt_cycle_backend_is_bit_exact() {
    let (qnet, input) = testnet(8, 0.5);
    let config = AccelConfig::for_variant_instances(Variant::U256Opt, 2);
    let report = Session::builder(config).backend(BackendKind::Cycle).build().unwrap().infer(&qnet, &input).expect("fits");
    assert_eq!(report.output, qnet.forward_quant(&input));
}
