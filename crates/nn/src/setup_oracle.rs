//! The sequential oracles of the model set-up, and the bit-identity suite
//! that holds [`Network::synthetic`] / [`Network::quantize`] and the float
//! kernels under them to these oracles.
//!
//! The oracles are the code the set-up ran before it was vectorized and
//! parallelized, kept word for word: one Box–Muller draw at a time from
//! one generator, the per-output naive float convolution, one thread.
//! Test-only — nothing outside this module calls them.

use crate::conv::{conv2d_f32_split, ConvWeights, QuantConvWeights};
use crate::eltwise::{add_f32, batchnorm_f32, global_avgpool_f32, BnWeights};
use crate::fc::{fc_f32_split, softmax, FcWeights, QuantFcWeights};
use crate::gaussian::{ChaChaWords, WordSource};
use crate::layer::{conv1x1, conv3x3, maxpool2x2, LayerRef, LayerSpec, NetworkSpec};
use crate::model::{Network, QuantizedConvLayer, QuantizedNetwork, SyntheticModelConfig};
use crate::par::Split;
use crate::plan::ExecPlan;
use crate::pool::maxpool_f32;
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use zskip_quant::{prune_to_density, DensityProfile, QuantParams, Requantizer};
use zskip_tensor::{Shape, Tensor};

/// Worker counts every comparison runs at: inline, the reference box's
/// two cores, a count that divides nothing, and more workers than cores.
const WORKERS: [usize; 4] = [1, 2, 3, 8];

// ---------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------

/// Standard Gaussian via Box-Muller, one draw at a time.
fn gaussian(rng: &mut impl Rng) -> f32 {
    loop {
        let u1: f32 = rng.gen::<f32>();
        let u2: f32 = rng.gen::<f32>();
        if u1 > f32::EPSILON {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        }
    }
}

/// `Network::synthetic`, sequentially, from any generator.
fn synthetic_sequential(spec: NetworkSpec, config: &SyntheticModelConfig, rng: &mut impl Rng) -> Network {
    let shapes = spec.shapes().expect("network must be shape-valid");
    let mut conv_weights = Vec::new();
    let mut fc_weights = Vec::new();
    let mut bn_weights = Vec::new();
    let mut conv_idx = 0;
    for (li, layer) in spec.layers.iter().enumerate() {
        match layer {
            LayerSpec::Conv { in_c, out_c, k, .. } => {
                let fan_in = in_c * k * k;
                let std = (2.0 / fan_in as f32).sqrt();
                let mut w = ConvWeights::zeros(*out_c, *in_c, *k);
                for v in w.w.iter_mut() {
                    *v = gaussian(rng) * std;
                }
                for b in w.bias.iter_mut() {
                    *b = gaussian(rng) * 0.01;
                }
                prune_to_density(&mut w.w, config.density.density(conv_idx));
                conv_idx += 1;
                conv_weights.push(w);
            }
            LayerSpec::Fc { in_features, out_features, .. } => {
                let std = (2.0 / *in_features as f32).sqrt();
                let mut w = FcWeights::zeros(*out_features, *in_features);
                for v in w.w.iter_mut() {
                    *v = gaussian(rng) * std;
                }
                for b in w.bias.iter_mut() {
                    *b = gaussian(rng) * 0.01;
                }
                fc_weights.push(w);
            }
            LayerSpec::BatchNorm { .. } => {
                let c = shapes[li].c;
                let mut bn = BnWeights::identity(c);
                for i in 0..c {
                    bn.gamma[i] = 1.0 + gaussian(rng) * 0.1;
                    bn.beta[i] = gaussian(rng) * 0.05;
                    bn.mean[i] = gaussian(rng) * 0.05;
                    bn.var[i] = (1.0 + gaussian(rng) * 0.25).abs().max(0.05);
                }
                bn_weights.push(bn);
            }
            LayerSpec::MaxPool { .. }
            | LayerSpec::Softmax
            | LayerSpec::Ref { .. }
            | LayerSpec::Add { .. }
            | LayerSpec::GlobalAvgPool { .. } => {}
        }
    }
    Network { spec, conv_weights, fc_weights, bn_weights }
}

/// The naive float convolution: one output at a time, every tap —
/// padding and zero weights included — in `(i, ky, kx)` order.
fn conv2d_f32_naive(input: &Tensor<f32>, weights: &ConvWeights, stride: usize, pad: usize, relu: bool) -> Tensor<f32> {
    let s = input.shape();
    assert_eq!(s.c, weights.in_c, "input channels mismatch");
    let out_h = (s.h + 2 * pad - weights.k) / stride + 1;
    let out_w = (s.w + 2 * pad - weights.k) / stride + 1;
    let mut out = Tensor::zeros(weights.out_c, out_h, out_w);
    for o in 0..weights.out_c {
        for y in 0..out_h {
            for x in 0..out_w {
                let mut acc = weights.bias[o];
                for i in 0..s.c {
                    for ky in 0..weights.k {
                        for kx in 0..weights.k {
                            let iy = (y * stride + ky) as isize - pad as isize;
                            let ix = (x * stride + kx) as isize - pad as isize;
                            acc += weights.at(o, i, ky, kx) * input.get_or(i, iy, ix, 0.0);
                        }
                    }
                }
                out[(o, y, x)] = if relu { acc.max(0.0) } else { acc };
            }
        }
    }
    out
}

/// `fc_f32`, row after row on one thread.
fn fc_f32_sequential(input: &[f32], weights: &FcWeights, relu: bool) -> Vec<f32> {
    assert_eq!(input.len(), weights.in_features, "fc input length mismatch");
    (0..weights.out_features)
        .map(|o| {
            let row = &weights.w[o * weights.in_features..(o + 1) * weights.in_features];
            let acc = weights.bias[o] + row.iter().zip(input).map(|(w, x)| w * x).sum::<f32>();
            if relu {
                acc.max(0.0)
            } else {
                acc
            }
        })
        .collect()
}

/// `Network::forward_f32_with` over the naive convolution and the
/// sequential FC (the other operators were not touched).
fn forward_f32_sequential(net: &Network, input: &Tensor<f32>, mut visit: impl FnMut(usize, &Tensor<f32>)) -> Vec<f32> {
    visit(0, input);
    let mut acts: Vec<Tensor<f32>> = vec![input.clone()];
    let (mut conv_i, mut fc_i, mut bn_i) = (0, 0, 0);
    for (li, layer) in net.spec.layers.iter().enumerate() {
        let next = {
            let prev = acts.last().expect("non-empty");
            let resolve = |r: &LayerRef| match r {
                LayerRef::Input => &acts[0],
                LayerRef::Layer(j) => &acts[j + 1],
            };
            match layer {
                LayerSpec::Conv { stride, pad, relu, .. } => {
                    conv_i += 1;
                    conv2d_f32_naive(prev, &net.conv_weights[conv_i - 1], *stride, *pad, *relu)
                }
                LayerSpec::MaxPool { k, stride, .. } => maxpool_f32(prev, *k, *stride),
                LayerSpec::Fc { relu, .. } => {
                    fc_i += 1;
                    let out = fc_f32_sequential(prev.as_slice(), &net.fc_weights[fc_i - 1], *relu);
                    Tensor::from_vec(out.len(), 1, 1, out)
                }
                LayerSpec::Softmax => {
                    let out = softmax(prev.as_slice());
                    Tensor::from_vec(out.len(), 1, 1, out)
                }
                LayerSpec::Ref { from, .. } => resolve(from).clone(),
                LayerSpec::Add { from, relu, .. } => add_f32(prev, resolve(from), *relu),
                LayerSpec::GlobalAvgPool { .. } => global_avgpool_f32(prev),
                LayerSpec::BatchNorm { relu, .. } => {
                    bn_i += 1;
                    batchnorm_f32(prev, &net.bn_weights[bn_i - 1], *relu)
                }
            }
        };
        visit(li + 1, &next);
        acts.push(next);
    }
    acts.pop().expect("non-empty").into_vec()
}

/// `Network::quantize`, sequentially: calibration through the oracle
/// forward pass, serial max-abs scans and rounding.
fn quantize_sequential(net: &Network, calibration: &[Tensor<f32>]) -> QuantizedNetwork {
    if net.spec.has_batchnorm() {
        return quantize_sequential(&net.fold_batchnorm(), calibration);
    }
    let boundaries = net.spec.layers.len() + 1;
    let mut max_abs = vec![0f32; boundaries];
    for input in calibration {
        forward_f32_sequential(net, input, |i, act| {
            let m = act.as_slice().iter().fold(0f32, |m, &v| m.max(v.abs()));
            max_abs[i] = max_abs[i].max(m);
        });
    }
    let scales: Vec<f32> = max_abs.iter().map(|&m| if m > 0.0 { m / 127.0 } else { 1.0 }).collect();

    let mut conv = Vec::new();
    let mut fc = Vec::new();
    let mut conv_i = 0;
    let mut fc_i = 0;
    for (li, layer) in net.spec.layers.iter().enumerate() {
        let s_in = scales[li];
        let s_out = scales[li + 1];
        match layer {
            LayerSpec::Conv { relu, .. } => {
                let w = &net.conv_weights[conv_i];
                let wq = QuantParams::from_max_abs(&w.w);
                conv.push(QuantizedConvLayer {
                    layer_index: li,
                    weights: QuantConvWeights::new(
                        w.out_c,
                        w.in_c,
                        w.k,
                        w.w.iter().map(|&v| wq.quantize(v)).collect(),
                        w.bias.iter().map(|&b| (b / (s_in * wq.scale)).round() as i64).collect(),
                        Requantizer::from_ratio((s_in * wq.scale / s_out) as f64),
                        *relu,
                    ),
                    in_scale: s_in,
                    w_scale: wq.scale,
                    out_scale: s_out,
                });
                conv_i += 1;
            }
            LayerSpec::Fc { relu, .. } => {
                let w = &net.fc_weights[fc_i];
                let wq = QuantParams::from_max_abs(&w.w);
                fc.push(QuantFcWeights {
                    out_features: w.out_features,
                    in_features: w.in_features,
                    w: w.w.iter().map(|&v| wq.quantize(v)).collect(),
                    bias_acc: w.bias.iter().map(|&b| (b / (s_in * wq.scale)).round() as i64).collect(),
                    requant: Requantizer::from_ratio((s_in * wq.scale / s_out) as f64),
                    relu: *relu,
                });
                fc_i += 1;
            }
            LayerSpec::MaxPool { .. }
            | LayerSpec::Softmax
            | LayerSpec::Ref { .. }
            | LayerSpec::Add { .. }
            | LayerSpec::GlobalAvgPool { .. } => {}
            LayerSpec::BatchNorm { .. } => unreachable!("folded above"),
        }
    }
    QuantizedNetwork {
        spec: net.spec.clone(),
        plan: ExecPlan::build(&net.spec).expect("network must be shape-valid"),
        input_params: QuantParams { scale: scales[0] },
        activation_scales: scales,
        conv,
        fc,
    }
}

/// `Network::quantize_ternary` over the sequential 8-bit oracle (the
/// ternary rewrite itself is serial code the set-up did not touch).
fn quantize_ternary_sequential(net: &Network, calibration: &[Tensor<f32>]) -> QuantizedNetwork {
    if net.spec.has_batchnorm() {
        return quantize_ternary_sequential(&net.fold_batchnorm(), calibration);
    }
    let mut q = quantize_sequential(net, calibration);
    net.ternarize(&mut q);
    q
}

// ---------------------------------------------------------------------
// Random specs
// ---------------------------------------------------------------------

/// Knobs of one random spec; see [`SpecKnobs::spec`].
#[derive(Debug, Clone)]
struct SpecKnobs {
    residual: bool,
    in_c: usize,
    hw: (usize, usize),
    c1: usize,
    c2: usize,
    classes: usize,
    k: usize,
    bn: [bool; 4],
}

impl SpecKnobs {
    /// Either a residual block touching every layer type (conv with and
    /// without batch-norm, `Add`, `Ref`, 1×1 projection, GAP, FC) or a
    /// VGG-style conv / pool / FC / FC chain.
    fn spec(&self) -> NetworkSpec {
        let SpecKnobs { in_c, hw: (h, w), c1, c2, classes, k, bn, .. } = *self;
        let conv = |name: &str, in_c, out_c, k: usize, relu| LayerSpec::Conv {
            name: name.into(),
            in_c,
            out_c,
            k,
            stride: 1,
            pad: k / 2,
            relu,
        };
        let mut layers = Vec::new();
        if self.residual {
            let push_conv = |layers: &mut Vec<LayerSpec>, name: &str, in_c, out_c, k, with_bn: bool, relu: bool| {
                layers.push(conv(name, in_c, out_c, k, relu && !with_bn));
                if with_bn {
                    layers.push(LayerSpec::BatchNorm { name: format!("{name}_bn"), relu });
                }
            };
            push_conv(&mut layers, "stem", in_c, c1, k, bn[0], true);
            // The layer whose output the residual join reads.
            let stem_out = layers.len() - 1;
            push_conv(&mut layers, "c1", c1, c1, 3, bn[1], true);
            push_conv(&mut layers, "c2", c1, c1, k, bn[2], false);
            layers.push(LayerSpec::Add { name: "join".into(), from: LayerRef::Layer(stem_out), relu: true });
            let join = layers.len() - 1;
            layers.push(maxpool2x2("pool"));
            layers.push(LayerSpec::Ref { name: "skip".into(), from: LayerRef::Layer(join) });
            layers.push(conv1x1("proj", c1, c2));
            if bn[3] {
                layers.push(LayerSpec::BatchNorm { name: "proj_bn".into(), relu: false });
            }
            layers.push(LayerSpec::GlobalAvgPool { name: "gap".into() });
            layers.push(LayerSpec::Fc { name: "fc".into(), in_features: c2, out_features: classes, relu: false });
        } else {
            layers.push(conv3x3("c1", in_c, c1));
            layers.push(maxpool2x2("p1"));
            layers.push(conv("c2", c1, c2, k, true));
            let flat = c2 * (h / 2) * (w / 2);
            layers.push(LayerSpec::Fc { name: "fc1".into(), in_features: flat, out_features: 2 * classes, relu: true });
            layers.push(LayerSpec::Fc { name: "fc2".into(), in_features: 2 * classes, out_features: classes, relu: false });
        }
        layers.push(LayerSpec::Softmax);
        let spec = NetworkSpec { name: "setup-prop".into(), input: Shape::new(in_c, h, w), layers };
        spec.shapes().expect("generated spec is shape-valid");
        spec
    }

    fn convs(&self) -> usize {
        self.spec().layers.iter().filter(|l| matches!(l, LayerSpec::Conv { .. })).count()
    }
}

fn spec_knobs() -> impl Strategy<Value = SpecKnobs> {
    (
        (proptest::bool::ANY, prop_oneof![Just(1usize), Just(3usize)]),
        1usize..4,
        (4usize..10, 4usize..10),
        (1usize..6, 1usize..7),
        2usize..6,
        proptest::array::uniform4(proptest::bool::ANY),
    )
        .prop_map(|((residual, k), in_c, hw, (c1, c2), classes, bn)| SpecKnobs {
            residual,
            in_c,
            hw,
            c1,
            c2,
            classes,
            k,
            bn,
        })
}

fn density() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(0.35), Just(1.0)]
}

fn image(shape: Shape, seed: u64) -> Tensor<f32> {
    Tensor::from_fn(shape.c, shape.h, shape.w, |c, y, x| {
        (((c * shape.h * shape.w + y * shape.w + x) as f32 + seed as f32) * 0.618).sin()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Network::synthetic` is `==` to the sequential oracle on random
    /// specs with every layer type, at densities 0 / 0.35 / 1 and every
    /// worker count (forced splits cut even 3-value bias fills, so run
    /// starts land off ChaCha block boundaries).
    #[test]
    fn synthetic_equals_the_sequential_oracle(knobs in spec_knobs(), density in density(), seed in 0u64..u64::MAX) {
        let config = SyntheticModelConfig { seed, density: DensityProfile::uniform(knobs.convs(), density) };
        let want = synthetic_sequential(knobs.spec(), &config, &mut ChaCha8Rng::seed_from_u64(seed));
        prop_assert_eq!(&Network::synthetic(knobs.spec(), &config), &want);
        for workers in WORKERS {
            let got = Network::synthetic_from(knobs.spec(), &config, &ChaChaWords::new(seed), Split::forced(workers));
            prop_assert_eq!(&got, &want, "workers {}", workers);
        }
    }

    /// `Network::quantize` and `quantize_ternary` are `==` to the
    /// sequential oracles (naive convolution, serial scans) on the same
    /// specs, with 0, 1 and 2 calibration images.
    #[test]
    fn quantize_equals_the_sequential_oracle(
        knobs in spec_knobs(),
        density in density(),
        seed in 0u64..1000,
        images in 0usize..3,
    ) {
        let spec = knobs.spec();
        let config = SyntheticModelConfig { seed, density: DensityProfile::uniform(knobs.convs(), density) };
        let net = Network::synthetic(spec.clone(), &config);
        let calib: Vec<Tensor<f32>> = (0..images as u64).map(|i| image(spec.input, seed + i)).collect();
        let want = quantize_sequential(&net, &calib);
        let want_ternary = quantize_ternary_sequential(&net, &calib);
        prop_assert_eq!(&net.quantize(&calib), &want);
        prop_assert_eq!(&net.quantize_ternary(&calib), &want_ternary);
        for workers in WORKERS {
            prop_assert_eq!(&net.quantize_split(&calib, Split::forced(workers)), &want, "workers {}", workers);
            prop_assert_eq!(
                &net.quantize_ternary_split(&calib, Split::forced(workers)),
                &want_ternary,
                "ternary, workers {}", workers
            );
        }
    }
}

// ---------------------------------------------------------------------
// Forced retry
// ---------------------------------------------------------------------

/// A scripted stream: attempt `p`'s four words are a hash of `p`, except
/// that the attempts in `rejected` carry `u1 = 0` — the `u1 <= EPSILON`
/// case the real stream hits about 3 times in 2²⁴.
struct ScriptedWords {
    rejected: Vec<u64>,
}

impl WordSource for ScriptedWords {
    fn words(&self, first: u64, out: &mut [u32]) {
        for (a, words) in out.chunks_exact_mut(4).enumerate() {
            let p = first + a as u64;
            let mut mix = rand::SplitMix64::new(p);
            let (lo, hi) = (mix.next_u64(), mix.next_u64());
            // Keep u1's own bits well above EPSILON so only the scripted
            // attempts are rejected.
            words.copy_from_slice(&[lo as u32, (lo >> 32) as u32 | 0x8000_0000, hi as u32, (hi >> 32) as u32]);
            if self.rejected.contains(&p) {
                words[1] = 0;
            }
        }
    }
}

/// Reads a [`WordSource`] word after word, as the generator the
/// sequential oracle draws from.
struct SequentialReader<'a> {
    src: &'a ScriptedWords,
    /// Next unread word of the stream.
    word: u64,
}

impl RngCore for SequentialReader<'_> {
    fn next_u64(&mut self) -> u64 {
        assert_eq!(self.word % 2, 0, "the oracle reads whole u64s");
        let mut attempt = [0u32; 4];
        self.src.words(self.word / 4, &mut attempt);
        let at = (self.word % 4) as usize;
        self.word += 2;
        u64::from(attempt[at]) | u64::from(attempt[at + 1]) << 32
    }
}

/// A conv (54 weights + 3 biases), its batch-norm (3 × 4 draws), a
/// second conv (27 + 1) and an FC (16 + 4): [`RETRY_SPEC_DRAWS`] draws,
/// every kind of consumer directly after another.
const RETRY_SPEC_DRAWS: usize = 54 + 3 + 12 + 27 + 1 + 16 + 4;

fn retry_spec() -> NetworkSpec {
    NetworkSpec {
        name: "retry".into(),
        input: Shape::new(2, 2, 2),
        layers: vec![
            LayerSpec::Conv { name: "c1".into(), in_c: 2, out_c: 3, k: 3, stride: 1, pad: 1, relu: false },
            LayerSpec::BatchNorm { name: "c1_bn".into(), relu: true },
            conv3x3("c2", 3, 1),
            LayerSpec::Fc { name: "fc".into(), in_features: 4, out_features: 4, relu: false },
        ],
    }
}

/// Every placement of one retry, and of two in a row, in that model: inside a run, on either side of every run boundary (the runs
/// of 54 weights at 2 / 3 / 8 workers are 27 / 18 / 7 long), on a layer's
/// last weight (the top-up then takes the attempt the bias would have
/// had), on a bias or batch-norm draw right after a retried weight, and
/// inside the top-up itself.
#[test]
fn a_forced_retry_anywhere_matches_the_sequential_oracle() {
    let spec = retry_spec();
    let config = SyntheticModelConfig { seed: 0, density: DensityProfile::uniform(2, 0.35) };
    let draws = RETRY_SPEC_DRAWS;
    let clean = ScriptedWords { rejected: vec![] };
    let baseline = synthetic_sequential(spec.clone(), &config, &mut SequentialReader { src: &clean, word: 0 });
    for first in 0..draws as u64 + 2 {
        for rejected in [vec![first], vec![first, first + 1]] {
            // A scripted rejection costs one more attempt if the stream
            // gets as far as reaching it.
            let attempts = rejected.iter().fold(draws as u64, |n, &p| n + u64::from(p < n));
            let words = ScriptedWords { rejected };
            let mut reader = SequentialReader { src: &words, word: 0 };
            let want = synthetic_sequential(spec.clone(), &config, &mut reader);
            assert_eq!(reader.word / 4, attempts, "rejected {:?}", words.rejected);
            if attempts > draws as u64 {
                assert_ne!(want, baseline, "rejected {:?}", words.rejected);
            }
            for workers in WORKERS {
                let got = Network::synthetic_from(spec.clone(), &config, &words, Split::forced(workers));
                assert_eq!(got, want, "rejected {:?}, workers {workers}", words.rejected);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Float convolution and FC
// ---------------------------------------------------------------------

/// Bit-for-bit, except that `+0.0` and `-0.0` count as equal: a skipped
/// zero or padding tap would have added a signed zero.
fn same_bits_mod_zero_sign(a: &Tensor<f32>, b: &Tensor<f32>) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits() || (*x == 0.0 && *y == 0.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `conv2d_f32` equals the naive oracle over strides 1–2, pads 0–2,
    /// k 1 / 3 / 4, 1×1 and non-square planes, pruned weights and
    /// all-zero filters, at every worker count.
    #[test]
    fn float_conv_equals_the_naive_oracle(
        channels in (1usize..4, 1usize..6),
        plane in (1usize..10, 1usize..10),
        k in prop_oneof![Just(1usize), Just(3usize), Just(4usize)],
        stride in 1usize..3,
        pad in 0usize..3,
        relu in proptest::bool::ANY,
        zero_share in prop_oneof![Just(0.0f32), Just(0.65f32), Just(1.0f32)],
        seed in 0u64..u64::MAX,
    ) {
        let ((in_c, out_c), (h, w)) = (channels, plane);
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut weights = ConvWeights::zeros(out_c, in_c, k);
        for v in weights.w.iter_mut() {
            *v = if rng.gen::<f32>() < zero_share { 0.0 } else { rng.gen_range(-1.0f32..1.0) };
        }
        // One output channel whose whole filter bank is zero.
        let o = rng.gen_range(0..out_c);
        weights.w[o * in_c * k * k..(o + 1) * in_c * k * k].fill(0.0);
        for b in weights.bias.iter_mut() {
            *b = rng.gen_range(-0.1f32..0.1);
        }
        let input = Tensor::from_fn(in_c, h, w, |_, _, _| rng.gen_range(-1.0f32..1.0));
        let want = conv2d_f32_naive(&input, &weights, stride, pad, relu);
        prop_assert!(same_bits_mod_zero_sign(&crate::conv::conv2d_f32(&input, &weights, stride, pad, relu), &want));
        for workers in WORKERS {
            let got = conv2d_f32_split(&input, &weights, stride, pad, relu, Split::forced(workers));
            prop_assert!(same_bits_mod_zero_sign(&got, &want), "workers {}: {:?} vs {:?}", workers, got, want);
        }
    }

    /// `fc_f32` equals the row-after-row oracle bit for bit.
    #[test]
    fn float_fc_equals_the_sequential_oracle(
        features in (1usize..40, 1usize..12),
        relu in proptest::bool::ANY,
        seed in 0u64..u64::MAX,
    ) {
        let (inputs, outputs) = features;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut weights = FcWeights::zeros(outputs, inputs);
        weights.w.iter_mut().for_each(|v| *v = rng.gen_range(-1.0f32..1.0));
        weights.bias.iter_mut().for_each(|v| *v = rng.gen_range(-0.1f32..0.1));
        let input: Vec<f32> = (0..inputs).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let want = fc_f32_sequential(&input, &weights, relu);
        for workers in WORKERS {
            let got = fc_f32_split(&input, &weights, relu, Split::forced(workers));
            prop_assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "workers {}", workers
            );
        }
    }
}
