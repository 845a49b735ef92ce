//! Randomized end-to-end property test: arbitrary small networks through
//! the full driver stack must match the software golden model bit-for-bit
//! on the fast backend, and the two backends must agree with each other.

use proptest::prelude::*;
use zskip::accel::{AccelConfig, BackendKind, Session};
use zskip::hls::AccelArch;
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::layer::{LayerSpec, NetworkSpec};
use zskip::nn::model::{Network, SyntheticModelConfig};
use zskip::quant::DensityProfile;
use zskip::tensor::Shape;

/// A random small network: 1-3 conv layers with random channel counts and
/// kernel sizes, optionally interleaved with pooling.
fn network_strategy() -> impl Strategy<Value = NetworkSpec> {
    let conv = (1usize..=3, 2usize..=8, prop::bool::ANY);
    (
        8usize..=19,                 // input h/w
        1usize..=3,                  // input channels
        prop::collection::vec(conv, 1..=3),
        prop::bool::ANY,             // pool after first conv
    )
        .prop_map(|(hw, in_c, convs, pool)| {
            let mut layers = Vec::new();
            let mut c = in_c;
            for (i, (k, out_c, relu)) in convs.into_iter().enumerate() {
                layers.push(LayerSpec::Conv {
                    name: format!("c{i}"),
                    in_c: c,
                    out_c,
                    k,
                    stride: 1,
                    pad: k / 2,
                    relu,
                });
                c = out_c;
                if i == 0 && pool && hw >= 8 {
                    layers.push(LayerSpec::MaxPool { name: "p".into(), k: 2, stride: 2 });
                }
            }
            NetworkSpec { name: "rand".into(), input: Shape::new(in_c, hw, hw), layers }
        })
        .prop_filter("kernel must fit every intermediate map", |spec| spec.shapes().is_ok())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn random_network_is_bit_exact_on_model_backend(
        spec in network_strategy(),
        density in 0.1f64..1.0,
        seed in 0u64..10_000,
    ) {
        let conv_count = spec.conv_layers().len();
        let net = Network::synthetic(
            spec.clone(),
            &SyntheticModelConfig { seed, density: DensityProfile::uniform(conv_count, density) },
        );
        let qnet = net.quantize(&synthetic_inputs(seed ^ 1, 1, spec.input));
        let input = synthetic_inputs(seed ^ 2, 1, spec.input).pop().expect("one");
        let config = AccelConfig::from_arch(
            &AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 2048 },
            100.0,
        );
        let report = Session::builder(config).backend(BackendKind::Model).build().unwrap()
            .infer(&qnet, &input)
            .expect("small networks always fit");
        prop_assert_eq!(report.output, qnet.forward_quant(&input));
    }
}

proptest! {
    // The cycle backend is ~100x slower; fewer cases, smaller nets.
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn random_network_backends_agree(
        hw in 6usize..=10,
        out_c in 2usize..=6,
        k in 1usize..=3,
        density in 0.2f64..1.0,
        seed in 0u64..1_000,
    ) {
        let spec = NetworkSpec {
            name: "rand2".into(),
            input: Shape::new(2, hw, hw),
            layers: vec![LayerSpec::Conv {
                name: "c".into(),
                in_c: 2,
                out_c,
                k,
                stride: 1,
                pad: k / 2,
                relu: true,
            }],
        };
        prop_assume!(spec.shapes().is_ok());
        let net = Network::synthetic(
            spec.clone(),
            &SyntheticModelConfig { seed, density: DensityProfile::uniform(1, density) },
        );
        let qnet = net.quantize(&synthetic_inputs(seed ^ 1, 1, spec.input));
        let input = synthetic_inputs(seed ^ 2, 1, spec.input).pop().expect("one");
        let config = AccelConfig::from_arch(
            &AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 1024 },
            100.0,
        );
        let a = Session::builder(config).backend(BackendKind::Model).build().unwrap().infer(&qnet, &input).expect("fits");
        let b = Session::builder(config).backend(BackendKind::Cycle).build().unwrap().infer(&qnet, &input).expect("fits");
        prop_assert_eq!(&a.output, &b.output);
        prop_assert_eq!(a.output, qnet.forward_quant(&input));
    }
}
