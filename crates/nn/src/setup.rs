//! The model set-up: one walk over a spec that turns float weights into a
//! [`QuantizedNetwork`] layer by layer.
//!
//! For each layer of the batch-norm-folded spec the walk takes the layer's
//! float weights from a `FloatLayers` source (folding a following
//! batch-norm into a conv), pushes the calibration activations through it
//! to take the next boundary's max-abs scale, codes it to integers, and
//! drops its floats before it moves on. Two sources feed the walk:
//!
//! * `Drawn` draws each layer from the seeded positional stream when the
//!   walk reaches it, and prunes it: a set-up from a seed
//!   ([`QuantizedNetwork::synthetic`]) never holds more than one layer's
//!   floats, the way the paper's host holds no float model at all;
//! * `Borrowed` lends the layers of a [`Network`] ([`Network::quantize`]).
//!
//! [`Network::synthetic`] is the drawn source alone, every layer kept.

use crate::conv::{ConvWeights, QuantConvWeights};
use crate::eltwise::BnWeights;
use crate::fc::{FcWeights, QuantFcWeights};
use crate::gaussian::{fill_gaussian, WordSource};
use crate::layer::{LayerRef, LayerSpec, NetworkSpec};
use crate::model::{float_layer, FloatWeights, Network, QuantizedConvLayer, QuantizedNetwork, WeightCode};
use crate::par::{self, Split};
use crate::plan::ExecPlan;
use crate::simd::{self, KernelTier};
use crate::weight_quant;
use std::borrow::Cow;
use zskip_quant::{prune_to_density_in_runs, DensityProfile, QuantParams, Requantizer, Sm8, TernaryParams};
use zskip_tensor::Tensor;

/// Where the set-up walk takes each layer boundary's activation scale from.
#[derive(Debug, Clone, Copy)]
pub enum Scales<'a> {
    /// Max-abs calibration on these float inputs: `m / 127` for a boundary
    /// whose largest magnitude is `m`; 1.0 where it is 0, and everywhere
    /// with no inputs. Calibration sees the batch-norm-folded activations.
    Calibrate(&'a [Tensor<f32>]),
    /// One scale per boundary of the batch-norm-folded spec (the figure
    /// bins transfer a surrogate network's).
    Given(&'a [f32]),
}

/// A network's float weights, handed out one layer at a time in spec
/// order: conv, then its batch-norm when one follows, and so on.
pub(crate) trait FloatLayers<'a> {
    /// The next conv layer's weights (`out_c` filters of `in_c × k × k`).
    fn conv(&mut self, in_c: usize, out_c: usize, k: usize) -> Cow<'a, ConvWeights>;
    /// The next FC layer's weights.
    fn fc(&mut self, in_features: usize, out_features: usize) -> Cow<'a, FcWeights>;
    /// The next batch-norm layer's statistics over `c` channels.
    fn bn(&mut self, c: usize) -> Cow<'a, BnWeights>;
}

/// Draws every layer from one positional Gaussian stream, in spec order:
/// He-scaled weights (`std = sqrt(2 / fan_in)`), small biases, each conv
/// magnitude-pruned to its density.
pub(crate) struct Drawn<'s, W> {
    words: &'s W,
    /// Next unread Box–Muller attempt of the stream.
    pos: u64,
    density: &'s DensityProfile,
    /// Conv layers drawn so far: the next one's index in `density`.
    convs: usize,
    split: Split,
}

impl<'s, W: WordSource> Drawn<'s, W> {
    pub(crate) fn new(words: &'s W, density: &'s DensityProfile, split: Split) -> Self {
        Drawn { words, pos: 0, density, convs: 0, split }
    }

    fn draw(&mut self, out: &mut [f32], scale: f32) {
        fill_gaussian(self.words, &mut self.pos, out, scale, self.split);
    }
}

/// Rough cost of pruning one weight (count, select, sweep).
const NS_PER_PRUNED_WEIGHT: usize = 3;

impl<'a, W: WordSource> FloatLayers<'a> for Drawn<'_, W> {
    fn conv(&mut self, in_c: usize, out_c: usize, k: usize) -> Cow<'a, ConvWeights> {
        let std = (2.0 / (in_c * k * k) as f32).sqrt();
        let mut w = ConvWeights::zeros(out_c, in_c, k);
        self.draw(&mut w.w, std);
        self.draw(&mut w.bias, 0.01);
        // Pruning reads no stream words; its passes run on all host cores.
        let run_len = self.split.run_len(w.w.len(), NS_PER_PRUNED_WEIGHT);
        prune_to_density_in_runs(&mut w.w, self.density.density(self.convs), run_len);
        self.convs += 1;
        Cow::Owned(w)
    }

    fn fc(&mut self, in_features: usize, out_features: usize) -> Cow<'a, FcWeights> {
        let std = (2.0 / in_features as f32).sqrt();
        let mut w = FcWeights::zeros(out_features, in_features);
        self.draw(&mut w.w, std);
        self.draw(&mut w.bias, 0.01);
        Cow::Owned(w)
    }

    fn bn(&mut self, c: usize) -> Cow<'a, BnWeights> {
        // Realistic inference statistics: gamma near 1, small beta/mean,
        // variance strictly positive near 1. The stream order is per
        // channel: gamma, beta, mean, var.
        let mut g = vec![0f32; 4 * c];
        self.draw(&mut g, 1.0);
        let mut bn = BnWeights::identity(c);
        for (i, g) in g.chunks_exact(4).enumerate() {
            bn.gamma[i] = 1.0 + g[0] * 0.1;
            bn.beta[i] = g[1] * 0.05;
            bn.mean[i] = g[2] * 0.05;
            bn.var[i] = (1.0 + g[3] * 0.25).abs().max(0.05);
        }
        Cow::Owned(bn)
    }
}

/// Lends the layers of a float [`Network`].
pub(crate) struct Borrowed<'a> {
    convs: std::slice::Iter<'a, ConvWeights>,
    fcs: std::slice::Iter<'a, FcWeights>,
    bns: std::slice::Iter<'a, BnWeights>,
}

impl<'a> Borrowed<'a> {
    pub(crate) fn new(net: &'a Network) -> Self {
        Borrowed { convs: net.conv_weights.iter(), fcs: net.fc_weights.iter(), bns: net.bn_weights.iter() }
    }
}

impl<'a> FloatLayers<'a> for Borrowed<'a> {
    fn conv(&mut self, _: usize, _: usize, _: usize) -> Cow<'a, ConvWeights> {
        Cow::Borrowed(self.convs.next().expect("one weight set per conv"))
    }

    fn fc(&mut self, _: usize, _: usize) -> Cow<'a, FcWeights> {
        Cow::Borrowed(self.fcs.next().expect("one weight set per FC"))
    }

    fn bn(&mut self, _: usize) -> Cow<'a, BnWeights> {
        Cow::Borrowed(self.bns.next().expect("statistics per BN"))
    }
}

/// `spec` with every batch-norm folded into the conv before it — the
/// BN's fused ReLU moves onto the conv, and every `Ref` / `Add` reference
/// is remapped to the compacted indices — and, per folded layer, whether
/// it absorbed a batch-norm.
///
/// # Panics
/// If a batch-norm does not follow a conv (shape validation rules it out).
pub(crate) fn fold_spec(spec: &NetworkSpec) -> (NetworkSpec, Vec<bool>) {
    let mut layers: Vec<LayerSpec> = Vec::with_capacity(spec.layers.len());
    let mut absorbs_bn = Vec::with_capacity(spec.layers.len());
    // Old layer index -> index of the layer producing the same value in
    // the folded spec (a BN maps to its host conv).
    let mut index_map = vec![usize::MAX; spec.layers.len()];
    for (i, layer) in spec.layers.iter().enumerate() {
        match layer {
            LayerSpec::BatchNorm { relu, .. } => {
                match layers.last_mut() {
                    Some(LayerSpec::Conv { relu: conv_relu, .. }) => *conv_relu = *relu,
                    _ => unreachable!("validated: BN follows its conv"),
                }
                *absorbs_bn.last_mut().expect("a host conv") = true;
            }
            _ => {
                let mut l = layer.clone();
                if let LayerSpec::Ref { from: LayerRef::Layer(j), .. } | LayerSpec::Add { from: LayerRef::Layer(j), .. } =
                    &mut l
                {
                    *j = index_map[*j];
                }
                layers.push(l);
                absorbs_bn.push(false);
            }
        }
        index_map[i] = layers.len() - 1;
    }
    (NetworkSpec { name: spec.name.clone(), input: spec.input, layers }, absorbs_bn)
}

/// Folds a batch-norm into the conv before it, in f32 — the standard
/// inference-time transform: output channel `o`'s filters scale by
/// `gamma[o] / sqrt(var[o] + eps)` and its bias maps through the same
/// per-channel affine.
pub(crate) fn fold_bn(w: &mut ConvWeights, bn: &BnWeights) {
    let affine = bn.affine();
    assert_eq!(affine.len(), w.out_c, "one affine per conv output channel");
    let per_filter = w.in_c * w.k * w.k;
    for (o, &(a, b)) in affine.iter().enumerate() {
        for v in &mut w.w[o * per_filter..(o + 1) * per_filter] {
            *v *= a;
        }
        w.bias[o] = a * w.bias[o] + b;
    }
}

/// The set-up walk: codes the network `spec` describes, its float
/// weights taken from `src` one layer at a time, its activation scales
/// calibrated or given as `scales` says. Conv weights are coded as `code`
/// says, FC weights always 8-bit; each layer's floats are dropped as soon
/// as it is coded. Bit-identical at any `split`.
///
/// # Panics
/// If `spec` is not shape-valid, or given scales are not one per
/// boundary of the folded spec.
pub(crate) fn build<'a>(
    spec: &NetworkSpec,
    src: &mut impl FloatLayers<'a>,
    scales: Scales<'_>,
    code: WeightCode,
    split: Split,
) -> QuantizedNetwork {
    spec.shapes().expect("network must be shape-valid");
    let (spec, absorbs_bn) = fold_spec(spec);
    let tier = simd::dispatch();
    let (mut calibration, mut scales) = match scales {
        Scales::Calibrate(inputs) => {
            let calibration = Calibration::new(&spec, inputs);
            let input_scale = calibration.scale();
            (Some(calibration), vec![input_scale])
        }
        Scales::Given(scales) => {
            assert_eq!(scales.len(), spec.layers.len() + 1, "one scale per layer boundary");
            (None, scales.to_vec())
        }
    };
    // Pushes the calibration images through layer `li` (when calibrating)
    // and returns the scales at its two boundaries.
    let mut advance = |li: usize, layer: &LayerSpec, weights: FloatWeights<'_>| {
        if let Some(calibration) = &mut calibration {
            calibration.step(li, layer, weights, split, tier);
            scales.push(calibration.scale());
        }
        (scales[li], scales[li + 1])
    };
    let (mut conv, mut fc) = (Vec::new(), Vec::new());
    for (li, layer) in spec.layers.iter().enumerate() {
        match *layer {
            LayerSpec::Conv { in_c, out_c, k, relu, .. } => {
                let mut w = src.conv(in_c, out_c, k);
                if absorbs_bn[li] {
                    fold_bn(w.to_mut(), &src.bn(out_c));
                }
                let (s_in, s_out) = advance(li, layer, FloatWeights::Conv(&w));
                conv.push(code_conv(&w, s_in, s_out, relu, code, split));
            }
            LayerSpec::Fc { in_features, out_features, relu, .. } => {
                let w = src.fc(in_features, out_features);
                let (s_in, s_out) = advance(li, layer, FloatWeights::Fc(&w));
                fc.push(code_fc(&w, s_in, s_out, relu, split));
            }
            // Ref/Add/GAP carry no weights: their requantizers derive from
            // the activation scales on demand (see
            // [`QuantizedNetwork::add_requantizers`]).
            _ => {
                advance(li, layer, FloatWeights::None);
            }
        }
    }
    QuantizedNetwork {
        plan: ExecPlan::build(&spec).expect("network must be shape-valid"),
        spec,
        activation_scales: scales,
        conv,
        fc,
    }
}

/// The calibration images' float activations as the walk advances: the
/// current boundary's, and the ones a later `Ref` / `Add` reads, each
/// kept until its last reader.
struct Calibration {
    /// One activation per image at the current boundary.
    acts: Vec<Tensor<f32>>,
    /// Per boundary: the activations kept for a later `Ref` / `Add`.
    kept: Vec<Vec<Tensor<f32>>>,
    /// Per boundary: the last layer that reads it through a `Ref` / `Add`.
    last_read: Vec<Option<usize>>,
}

/// The boundary a layer reference names (0 is the network input).
fn boundary(r: &LayerRef) -> usize {
    match r {
        LayerRef::Input => 0,
        LayerRef::Layer(j) => j + 1,
    }
}

impl Calibration {
    fn new(spec: &NetworkSpec, inputs: &[Tensor<f32>]) -> Calibration {
        let mut last_read = vec![None; spec.layers.len() + 1];
        for (li, layer) in spec.layers.iter().enumerate() {
            if let LayerSpec::Ref { from, .. } | LayerSpec::Add { from, .. } = layer {
                last_read[boundary(from)] = Some(li);
            }
        }
        let kept = vec![Vec::new(); last_read.len()];
        let mut calibration = Calibration { acts: inputs.to_vec(), kept, last_read };
        calibration.keep(0);
        calibration
    }

    fn keep(&mut self, boundary: usize) {
        if self.last_read[boundary].is_some() {
            self.kept[boundary] = self.acts.clone();
        }
    }

    /// The current boundary's max-abs scale over every image.
    fn scale(&self) -> f32 {
        let m = self.acts.iter().flat_map(|a| a.as_slice()).fold(0f32, |m, &v| m.max(v.abs()));
        if m > 0.0 {
            m / 127.0
        } else {
            1.0
        }
    }

    /// Pushes every image through layer `li`.
    fn step(&mut self, li: usize, layer: &LayerSpec, weights: FloatWeights<'_>, split: Split, tier: KernelTier) {
        let from = match layer {
            LayerSpec::Ref { from, .. } | LayerSpec::Add { from, .. } => Some(&self.kept[boundary(from)]),
            _ => None,
        };
        self.acts = (self.acts.iter().enumerate())
            .map(|(i, prev)| float_layer(layer, weights, prev, from.map(|f| &f[i]), split, tier))
            .collect();
        self.keep(li + 1);
        for (kept, last) in self.kept.iter_mut().zip(&self.last_read) {
            if *last == Some(li) {
                *kept = Vec::new();
            }
        }
    }
}

/// A layer's integer bias and output requantizer, from its weight scale
/// and the scales at its two boundaries.
fn integer(bias: &[f32], s_in: f32, s_w: f32, s_out: f32) -> (Vec<i64>, Requantizer) {
    let bias_acc = bias.iter().map(|&b| (b / (s_in * s_w)).round() as i64).collect();
    (bias_acc, Requantizer::from_ratio((s_in * s_w / s_out) as f64))
}

fn code_conv(w: &ConvWeights, s_in: f32, s_out: f32, relu: bool, code: WeightCode, split: Split) -> QuantizedConvLayer {
    let (s_w, w_q) = match code {
        WeightCode::Int8 => {
            let (wq, w_q) = quantize_weights(&w.w, split);
            (wq.scale, w_q)
        }
        WeightCode::Ternary => {
            let t = TernaryParams::from_weights(&w.w);
            (t.scale, t.quantize_all(&w.w))
        }
    };
    let (bias_acc, requant) = integer(&w.bias, s_in, s_w, s_out);
    QuantizedConvLayer { weights: QuantConvWeights::new(w.out_c, w.in_c, w.k, w_q, bias_acc, requant, relu) }
}

fn code_fc(w: &FcWeights, s_in: f32, s_out: f32, relu: bool, split: Split) -> QuantFcWeights {
    let (wq, w_q) = quantize_weights(&w.w, split);
    let (bias_acc, requant) = integer(&w.bias, s_in, wq.scale, s_out);
    QuantFcWeights::new(w.out_features, w.in_features, w_q, bias_acc, requant, relu)
}

/// Max-abs 8-bit quantization of one layer's weights: the scale
/// [`QuantParams::from_max_abs`] picks and the values
/// [`QuantParams::quantize`] rounds to, with both passes cut into runs and
/// run by the kernel tier's body ([`weight_quant`]). `max` is exact and
/// order-free, so the maximum of the per-run maxima is the serial scan's;
/// rounding is per element.
fn quantize_weights(w: &[f32], split: Split) -> (QuantParams, Vec<Sm8>) {
    let tier = simd::dispatch();
    let run_len = split.run_len(w.len(), weight_quant::ns_per_weight(tier));
    let maxima = par::scoped_map(w.chunks(run_len), |run| weight_quant::max_abs(tier, run));
    let params = QuantParams::from_max_abs(&maxima);
    let mut q = Sm8::zeroed_vec(w.len());
    par::scoped_map(q.chunks_mut(run_len).zip(w.chunks(run_len)), |(q, w)| {
        weight_quant::quantize(tier, params, w, q)
    });
    (params, q)
}
