//! Pins the *artifact* of the model set-up, not just the equivalence of
//! two ways to compute it: the float weights `Network::synthetic` draws
//! and the integer model `Network::quantize` derives from them, for the
//! CLI's own recipe (`src/main.rs::build_network`) on `specs/resnet18.json`
//! and VGG-16-32 — and the same integer model from the entry point the
//! CLI calls, `QuantizedNetwork::synthetic`, which draws, calibrates and
//! codes one layer at a time.
//!
//! The digests were recorded before the set-up was vectorized and
//! parallelized (at commit f8feed6, the scalar ChaCha stream, one thread,
//! the naive float convolution). The benchmark holds the simulated
//! `accel_cycles` / `accel_ddr_bytes` of this model to an exact bound;
//! this fails first, in seconds, and says which stage moved.
//!
//! The digests were recorded through glibc's x86-64 FMA `logf` / `cosf`;
//! the draws now go through a bit-exact transcription of those two
//! functions (`crates/nn/src/boxmuller.rs`), so they hold on any platform.

use zskip_nn::eval::synthetic_inputs;
use zskip_nn::{Network, NetworkSpec, QuantizedNetwork, Scales, SyntheticModelConfig, WeightCode};
use zskip_quant::cache::Fingerprint;
use zskip_quant::DensityProfile;

/// `QuantConvWeights::fingerprint()` of the 20 conv layers, in layer order.
const CONV_FINGERPRINTS: [u64; 20] = [
    0x3be3_3305_b87c_91da,
    0xac97_3f2f_a8ec_559e,
    0x1b27_d73d_ef54_7cc1,
    0x0073_94e5_39f1_2caf,
    0xa0f7_6ed9_1deb_c322,
    0xa77d_534d_d91c_6409,
    0x76b8_f7a8_5373_51b2,
    0x21d1_1362_5fb0_e969,
    0xee82_7d41_5972_c553,
    0x2072_9ccd_299c_6b66,
    0x7a84_923a_8e60_96b6,
    0xfe09_1cf8_7b36_d28f,
    0x54ce_60fd_7d13_ec7f,
    0xbdb3_254c_ec92_6ae8,
    0x2ab8_e080_67ff_d606,
    0xb6ab_f27a_7038_c0e5,
    0x00f6_2955_6679_7384,
    0x3625_6582_e40c_f47a,
    0xa72e_91fa_a8df_b5d0,
    0x1a63_8f93_10c4_39d1,
];

// The `activation_scales` bit patterns below were recorded at commit
// 368fd5d, before the float calibration conv became a blocked GEMM. A
// cycle pin cannot see a moved scale until it moves a requantizer far
// enough to flip an activation; these name the first boundary that moved.

/// ResNet-18-32's, one per layer boundary (41).
const RESNET18_SCALE_BITS: [u32; 41] = [
    0x3c00fce8, 0x3ce8fd90, 0x3cce5071, 0x3ca89b3d, 0x3cdc900b, 0x3cd1380c, 0x3cdc994c, 0x3d1ce801,
    0x3d1ce801, 0x3d37e782, 0x3d6bd975, 0x3d1ce801, 0x3d1ce801, 0x3d9fdd87, 0x3d965294, 0x3d7b2b60,
    0x3d852079, 0x3df261c4, 0x3df261c4, 0x3dcf8dc9, 0x3df6eb73, 0x3df261c4, 0x3df261c4, 0x3e4554fc,
    0x3e14452e, 0x3df93186, 0x3dfd75fe, 0x3e315197, 0x3e315197, 0x3e5f5b47, 0x3e2e78ff, 0x3e315197,
    0x3e315197, 0x3e8a4f4e, 0x3eaef0ce, 0x3e637555, 0x3e537e87, 0x3ec861eb, 0x3e8e5735, 0x3e0efc63,
    0x3bff4178,
];

/// VGG-16-32's (dc density profile), one per layer boundary (23).
const VGG16_32_SCALE_BITS: [u32; 23] = [
    0x3c00fce8, 0x3cfcfd82, 0x3cc8b6fc, 0x3cc8b6fc, 0x3cf5590a, 0x3cfcbc88, 0x3cfcbc88, 0x3d250a1b,
    0x3ccc5b84, 0x3cd2673f, 0x3cd2673f, 0x3cbff43e, 0x3cb8fb96, 0x3c72af0e, 0x3c72af0e, 0x3c3f96ee,
    0x3bc15b61, 0x3b8172d3, 0x3b8172d3, 0x3bd62ed6, 0x3bd829f0, 0x3be89bf6, 0x3780ffc8,
];

fn digest_f32(fp: Fingerprint, values: &[f32]) -> Fingerprint {
    values.iter().fold(fp.u64(values.len() as u64), |fp, v| fp.u64(u64::from(v.to_bits())))
}

#[test]
fn resnet18_cli_recipe_artifact_is_pinned() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/resnet18.json");
    let spec = NetworkSpec::from_json(&std::fs::read_to_string(path).expect("spec file")).expect("valid spec");
    let convs = spec.layers.iter().filter(|l| matches!(l, zskip_nn::LayerSpec::Conv { .. })).count();
    let config = SyntheticModelConfig { seed: 1, density: DensityProfile::uniform(convs, 0.35) };
    let net = Network::synthetic(spec.clone(), &config);

    let mut fp = Fingerprint::new();
    for w in &net.conv_weights {
        fp = digest_f32(digest_f32(fp, &w.w), &w.bias);
    }
    for w in &net.fc_weights {
        fp = digest_f32(digest_f32(fp, &w.w), &w.bias);
    }
    for bn in &net.bn_weights {
        for v in [&bn.gamma, &bn.beta, &bn.mean, &bn.var] {
            fp = digest_f32(fp, v);
        }
    }
    assert_eq!(fp.finish(), 0x6f5d_5143_c1a7_b180, "float weights after Network::synthetic");

    let calib = synthetic_inputs(2, 1, spec.input);
    let streamed = QuantizedNetwork::synthetic(&spec, &config, Scales::Calibrate(&calib), WeightCode::Int8);
    for (qnet, how) in [(net.quantize(&calib), "Network::quantize"), (streamed, "QuantizedNetwork::synthetic")] {
        let conv_fps: Vec<u64> = qnet.conv.iter().map(|c| c.weights.fingerprint()).collect();
        let scale_bits: Vec<u32> = qnet.activation_scales.iter().map(|s| s.to_bits()).collect();
        assert_eq!(scale_bits, RESNET18_SCALE_BITS, "activation scale bits after {how}, per boundary");
        let scales = qnet.activation_scales.iter().fold(Fingerprint::new(), |fp, s| fp.u64(u64::from(s.to_bits())));
        assert_eq!(scales.finish(), 0x5c74_3bb5_3f01_8a1e, "activation scale bits after {how}");
        assert_eq!(conv_fps, CONV_FINGERPRINTS, "QuantConvWeights::fingerprint() per conv layer after {how}");
    }
}

/// The CLI recipe (weight seed 1, density `dc`, calibration
/// `synthetic_inputs(2, 1, …)`) on VGG-16-32, built both ways: the float
/// network quantized whole, and layer by layer from the seed. The two
/// must be equal; the pins below hold either.
fn vgg16_32_cli_recipe() -> QuantizedNetwork {
    let spec = zskip_nn::vgg16::vgg16_scaled_spec(32);
    let config = SyntheticModelConfig { seed: 1, density: DensityProfile::deep_compression_vgg16() };
    let calib = synthetic_inputs(2, 1, spec.input);
    let whole = Network::synthetic(spec.clone(), &config).quantize(&calib);
    let streamed = QuantizedNetwork::synthetic(&spec, &config, Scales::Calibrate(&calib), WeightCode::Int8);
    assert!(streamed == whole, "QuantizedNetwork::synthetic differs from Network::synthetic + quantize");
    streamed
}

/// Conv weights are drawn before any FC weight, so a VGG-16's conv layers
/// do not depend on its input size: `zskip analyze` prints the 224x224
/// model's packing table from VGG-16-32, and the figure bins calibrate
/// the 224x224 model's scales on VGG-16-32.
#[test]
#[cfg_attr(debug_assertions, ignore = "two VGG-16 syntheses: run with --release (scripts/verify.sh does)")]
fn vgg16_conv_weights_do_not_depend_on_the_input_size() {
    let config = SyntheticModelConfig { seed: 1, density: DensityProfile::deep_compression_vgg16() };
    let at = |hw| Network::synthetic(zskip_nn::vgg16::vgg16_scaled_spec(hw), &config).conv_weights;
    assert!(at(32) == at(64), "conv weights of VGG-16-32 and VGG-16-64");
}

/// The CLI recipe on VGG-16-32: its activation scales.
#[test]
#[cfg_attr(debug_assertions, ignore = "a VGG-16-32 calibration pass: run with --release (scripts/verify.sh does)")]
fn vgg16_32_cli_recipe_scales_are_pinned() {
    let qnet = vgg16_32_cli_recipe();
    let scale_bits: Vec<u32> = qnet.activation_scales.iter().map(|s| s.to_bits()).collect();
    assert_eq!(scale_bits, VGG16_32_SCALE_BITS, "activation scale bits after Network::quantize, per boundary");
}

/// The same recipe's conv weight stream on the AMX tier, per image: the
/// bytes each conv layer's kernel reads (`zskip_nn::gemm::weight_stream`):
/// the tiles' dense panels, the direct kernel's channel quads (conv1_1)
/// and the lowered GEMM's compressed rows (conv5_x), against the layers'
/// dense weights.
#[test]
#[cfg_attr(debug_assertions, ignore = "a VGG-16-32 calibration pass: run with --release (scripts/verify.sh does)")]
fn vgg16_32_amx_conv_weight_stream_is_pinned() {
    use zskip_nn::gemm::weight_stream;
    use zskip_nn::simd::KernelTier;
    let spec = zskip_nn::vgg16::vgg16_scaled_spec(32);
    let qnet = vgg16_32_cli_recipe();
    let (mut dense, mut streams) = (0, Vec::new());
    for (layer, (_, l, s)) in qnet.conv.iter().zip(spec.conv_layers()) {
        let &zskip_nn::LayerSpec::Conv { stride, pad, .. } = l else { unreachable!("a conv layer") };
        let stream = weight_stream(&layer.weights, s, stride, pad, KernelTier::Amx);
        dense += layer.weights.w().len();
        streams.push((stream.kernel.name(), stream.bytes));
    }
    let want = [
        ("direct", 2_304),
        ("tiles", 36_864),
        ("tiles", 73_728),
        ("tiles", 147_456),
        ("tiles", 294_912),
        ("tiles", 589_824),
        ("tiles", 589_824),
        ("tiles", 1_179_648),
        ("tiles", 2_359_296),
        ("tiles", 2_359_296),
        ("lowered", 1_120_666),
        ("lowered", 979_108),
        ("lowered", 1_144_259),
    ];
    assert_eq!(streams, want, "kernel and weight bytes per conv layer");
    assert_eq!(dense, 14_710_464, "dense conv weights");
    assert_eq!(streams.iter().map(|(_, b)| b).sum::<usize>(), 10_877_185, "conv weight bytes per image");
    // conv5_x: the compressed rows are under half their dense weights.
    assert_eq!(streams[10..].iter().map(|(_, b)| b).sum::<usize>(), 3_244_033);
    assert_eq!(qnet.conv[10..].iter().map(|l| l.weights.w().len()).sum::<usize>(), 7_077_888);
}
