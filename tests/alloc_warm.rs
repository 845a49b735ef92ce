//! Counting-allocator proof that a warm cpu-backend image is the golden
//! walk plus one memo lookup: `Session::infer_scratch` on a warmed
//! [`Scratch`] makes no allocation larger than 1 KiB except the layer
//! list of the report it returns, copied once out of the stats memo. No
//! simulated DDR is created and no feature map is tiled, copied or
//! reallocated: the driver-level counterpart of `zskip-nn`'s
//! `tests/alloc_free.rs`.
//!
//! A binary of its own with a single `#[test]`, so no concurrent test
//! thread allocates inside the measured window.

mod common;

use common::{big_allocations, BIG};
use zskip::accel::{AccelConfig, BackendKind, LayerReport, Session};
use zskip::hls::Variant;
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::model::{Network, QuantizedNetwork, SyntheticModelConfig};
use zskip::nn::{NetworkSpec, Scratch};
use zskip::quant::DensityProfile;

/// A spec with seed-1 synthetic weights pruned to 35 % density, quantized
/// on one calibration image.
fn quantized(spec: NetworkSpec) -> QuantizedNetwork {
    let convs = spec.conv_layers().len();
    let density = DensityProfile::uniform(convs, 0.35);
    let net = Network::synthetic(spec.clone(), &SyntheticModelConfig { seed: 1, density });
    net.quantize(&synthetic_inputs(2, 1, spec.input))
}

#[test]
fn warm_cpu_image_allocates_no_feature_map() {
    let resnet18 = format!("{}/specs/resnet18.json", env!("CARGO_MANIFEST_DIR"));
    let resnet18 = std::fs::read_to_string(resnet18).expect("the in-repo spec");
    let specs =
        [zskip::nn::vgg16::vgg16_scaled_spec(32), NetworkSpec::from_json(&resnet18).expect("a valid spec")];
    let session = Session::builder(AccelConfig::for_variant_instances(Variant::U256Opt, 1))
        .backend(BackendKind::Cpu)
        .build()
        .expect("a valid session");
    for spec in specs {
        let qnet = quantized(spec);
        let images = synthetic_inputs(3, 3, qnet.spec.input);
        let mut scratch = Scratch::new();
        // Warm-up: grows the arena, packs the weights, records the
        // network's report in the stats memo.
        let warm = session.infer_scratch(&qnet, &images[0], &mut scratch).expect("runs");
        for image in &images[1..] {
            let mut report = None;
            let big = big_allocations(|| report = Some(session.infer_scratch(&qnet, image, &mut scratch)));
            let report = report.expect("ran").expect("runs");
            assert_eq!(report.total_cycles, warm.total_cycles, "{}", qnet.spec.name);
            let layer_list = report.layers.capacity() * std::mem::size_of::<LayerReport>();
            assert_eq!(
                big,
                [layer_list],
                "{}: a warm cpu image may allocate its report's layer list once \
                 ({layer_list} bytes) and nothing else above {BIG} bytes — no simulated DDR",
                qnet.spec.name
            );
        }
        assert_eq!(scratch.grow_events(), 1, "{}: the arena grew after warm-up", qnet.spec.name);
    }
}
