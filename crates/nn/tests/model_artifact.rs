//! Pins the *artifact* of the model set-up, not just the equivalence of
//! two ways to compute it: the float weights `Network::synthetic` draws
//! and the integer model `Network::quantize` derives from them, for the
//! CLI's own recipe (`src/main.rs::build_network`) on `specs/resnet18.json`.
//!
//! The digests were recorded before the set-up was vectorized and
//! parallelized (at commit f8feed6, the scalar ChaCha stream, one thread,
//! the naive float convolution). The benchmark holds the simulated
//! `accel_cycles` / `accel_ddr_bytes` of this model to an exact bound;
//! this fails first, in seconds, and says which stage moved.
//!
//! The floats go through the platform's `logf` / `cosf`; the digests hold
//! for the libm they were recorded with (glibc, x86-64).

use zskip_nn::eval::synthetic_inputs;
use zskip_nn::{Network, NetworkSpec, SyntheticModelConfig};
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

    let qnet = net.quantize(&synthetic_inputs(2, 1, spec.input));
    let conv_fps: Vec<u64> = qnet.conv.iter().map(|c| c.weights.fingerprint()).collect();
    let scales = qnet.activation_scales.iter().fold(Fingerprint::new(), |fp, s| fp.u64(u64::from(s.to_bits())));
    assert_eq!(scales.finish(), 0x5c74_3bb5_3f01_8a1e, "activation scale bits after Network::quantize");
    assert_eq!(conv_fps, CONV_FINGERPRINTS, "QuantConvWeights::fingerprint() per conv layer after quantize");
}
