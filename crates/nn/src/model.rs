//! Networks with weights: synthetic generation, quantization, inference.
//!
//! This module is the Rust stand-in for the paper's Caffe flow (§IV-B/C):
//! start from a trained float model, prune to a sparsity profile, reduce to
//! 8-bit sign+magnitude by scaling, and hand the result to the accelerator
//! driver. Trained VGG-16 weights and ImageNet are data-gated (see
//! DESIGN.md), so float models are generated synthetically with seeded,
//! realistically-scaled distributions — everything downstream (sparsity
//! structure, zero-skipping, cycle counts, bit-exactness) is faithful.

use crate::conv::{conv2d_f32_split, ConvWeights, QuantConvWeights};
use crate::eltwise::{
    add_f32, add_quant_phase1, add_quant_phase2, batchnorm_f32, global_avgpool_f32,
    global_avgpool_quant_into, BnWeights,
};
use crate::fc::{fc_f32_split, fc_quant_pool_into, softmax, FcWeights, QuantFcWeights};
use crate::gaussian::{fill_gaussian, ChaChaWords, WordSource};
use crate::gemm::conv2d_gemm_quant_into;
use crate::layer::{LayerRef, LayerSpec, NetworkSpec};
use crate::par::{self, Split};
use crate::plan::{ExecPlan, PlanStep};
use crate::pool::{maxpool_f32, maxpool_quant_into};
use crate::scratch::{slot_pair, KernelBuffers, Scratch};
use std::convert::Infallible;
use zskip_quant::{prune_to_density, DensityProfile, QuantParams, Requantizer, Sm8};
use zskip_tensor::Tensor;

/// A float network: a spec plus per-layer weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    /// The layer graph.
    pub spec: NetworkSpec,
    /// Weights for each conv layer, in layer order.
    pub conv_weights: Vec<ConvWeights>,
    /// Weights for each FC layer, in layer order.
    pub fc_weights: Vec<FcWeights>,
    /// Weights for each batch-norm layer, in layer order (empty for
    /// BN-free networks; folded away by [`Network::fold_batchnorm`]).
    pub bn_weights: Vec<BnWeights>,
}

/// Configuration for synthetic model generation.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticModelConfig {
    /// RNG seed; identical seeds generate identical models.
    pub seed: u64,
    /// Per-conv-layer density profile applied by magnitude pruning.
    pub density: DensityProfile,
}

impl Default for SyntheticModelConfig {
    fn default() -> Self {
        SyntheticModelConfig { seed: 0x5eed, density: DensityProfile::dense(0) }
    }
}

impl Network {
    /// Generates a synthetic float model for a network spec: He-scaled
    /// Gaussian weights (`std = sqrt(2 / fan_in)`), small biases, then
    /// magnitude pruning per the density profile.
    ///
    /// Every value is a draw from one ChaCha8 stream of `config.seed`, in
    /// layer order. The draws are evaluated on all host cores at once
    /// (see `gaussian.rs`) and each conv layer is pruned while the
    /// next one fills; the model is bit-identical to drawing them one by
    /// one on one thread, which the tests keep as the oracle.
    pub fn synthetic(spec: NetworkSpec, config: &SyntheticModelConfig) -> Network {
        Self::synthetic_from(spec, config, &ChaChaWords::new(config.seed), Split::auto())
    }

    /// [`Network::synthetic`] over an explicit word source and split.
    pub(crate) fn synthetic_from(
        spec: NetworkSpec,
        config: &SyntheticModelConfig,
        words: &impl WordSource,
        split: Split,
    ) -> Network {
        let shapes = spec.shapes().expect("network must be shape-valid");
        // Next unread Box–Muller attempt of the stream.
        let mut pos = 0u64;
        let mut draw = |out: &mut [f32], scale: f32| fill_gaussian(words, &mut pos, out, scale, split);
        let mut fc_weights = Vec::new();
        let mut bn_weights = Vec::new();
        let conv_weights = std::thread::scope(|s| {
            /// A conv layer's weights, or the thread still pruning them.
            enum Pruned<'s> {
                Done(ConvWeights),
                Running(std::thread::ScopedJoinHandle<'s, ConvWeights>),
            }
            // One entry per conv layer, in layer order.
            let mut convs = Vec::new();
            for (li, layer) in spec.layers.iter().enumerate() {
                match layer {
                    LayerSpec::Conv { in_c, out_c, k, .. } => {
                        let fan_in = in_c * k * k;
                        let std = (2.0 / fan_in as f32).sqrt();
                        let mut w = ConvWeights::zeros(*out_c, *in_c, *k);
                        draw(&mut w.w, std);
                        draw(&mut w.bias, 0.01);
                        let density = config.density.density(convs.len());
                        // Pruning reads no stream words, so a big layer is
                        // pruned beside the next layer's fill.
                        convs.push(if split.runs(w.w.len(), NS_PER_PRUNED_WEIGHT) > 1 {
                            Pruned::Running(s.spawn(move || {
                                prune_to_density(&mut w.w, density);
                                w
                            }))
                        } else {
                            prune_to_density(&mut w.w, density);
                            Pruned::Done(w)
                        });
                    }
                    LayerSpec::Fc { in_features, out_features, .. } => {
                        let std = (2.0 / *in_features as f32).sqrt();
                        let mut w = FcWeights::zeros(*out_features, *in_features);
                        draw(&mut w.w, std);
                        draw(&mut w.bias, 0.01);
                        fc_weights.push(w);
                    }
                    LayerSpec::BatchNorm { .. } => {
                        // Realistic inference statistics: gamma near 1, small
                        // beta/mean, variance strictly positive near 1. The
                        // stream order is per channel: gamma, beta, mean, var.
                        let c = shapes[li].c;
                        let mut g = vec![0f32; 4 * c];
                        draw(&mut g, 1.0);
                        let mut bn = BnWeights::identity(c);
                        for (i, g) in g.chunks_exact(4).enumerate() {
                            bn.gamma[i] = 1.0 + g[0] * 0.1;
                            bn.beta[i] = g[1] * 0.05;
                            bn.mean[i] = g[2] * 0.05;
                            bn.var[i] = (1.0 + g[3] * 0.25).abs().max(0.05);
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
            convs
                .into_iter()
                .map(|w| match w {
                    Pruned::Done(w) => w,
                    Pruned::Running(h) => h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)),
                })
                .collect()
        });
        Network { spec, conv_weights, fc_weights, bn_weights }
    }

    /// Folds every batch-norm layer into its preceding convolution's
    /// weights in f32 — the standard inference-time transform: scale
    /// output-channel `o`'s filters by `gamma[o] / sqrt(var[o] + eps)`
    /// and map the bias through the same per-channel affine. The BN layer
    /// disappears from the spec (its fused ReLU moves onto the conv) and
    /// every `Ref`/`Add` reference is remapped to the compacted indices.
    ///
    /// [`Network::quantize`] calls this first when the spec carries
    /// batch-norm, which pins the fold order: fold in f32, then quantize.
    pub fn fold_batchnorm(&self) -> Network {
        if !self.spec.has_batchnorm() {
            return self.clone();
        }
        let mut layers: Vec<LayerSpec> = Vec::with_capacity(self.spec.layers.len());
        // Old layer index -> index of the layer producing the same value
        // in the folded spec (a BN maps to its host conv).
        let mut index_map = vec![usize::MAX; self.spec.layers.len()];
        let mut conv_weights = self.conv_weights.clone();
        let mut conv_i = 0;
        let mut bn_i = 0;
        for (i, layer) in self.spec.layers.iter().enumerate() {
            match layer {
                LayerSpec::BatchNorm { relu, .. } => {
                    let bn = &self.bn_weights[bn_i];
                    bn_i += 1;
                    let w = &mut conv_weights[conv_i - 1];
                    let affine = bn.affine();
                    assert_eq!(affine.len(), w.out_c, "one affine per conv output channel");
                    let per_filter = w.in_c * w.k * w.k;
                    for (o, &(a, b)) in affine.iter().enumerate() {
                        for v in &mut w.w[o * per_filter..(o + 1) * per_filter] {
                            *v *= a;
                        }
                        w.bias[o] = a * w.bias[o] + b;
                    }
                    let host = layers.last_mut().expect("validated: BN follows its conv");
                    match host {
                        LayerSpec::Conv { relu: conv_relu, .. } => *conv_relu = *relu,
                        _ => unreachable!("validated: BN follows its conv"),
                    }
                    index_map[i] = layers.len() - 1;
                }
                _ => {
                    let mut l = layer.clone();
                    match &mut l {
                        LayerSpec::Ref { from, .. } | LayerSpec::Add { from, .. } => {
                            if let LayerRef::Layer(j) = from {
                                *from = LayerRef::Layer(index_map[*j]);
                            }
                        }
                        LayerSpec::Conv { .. } => conv_i += 1,
                        _ => {}
                    }
                    layers.push(l);
                    index_map[i] = layers.len() - 1;
                }
            }
        }
        let spec = NetworkSpec { name: self.spec.name.clone(), input: self.spec.input, layers };
        debug_assert!(spec.shapes().is_ok(), "folding preserves validity");
        Network { spec, conv_weights, fc_weights: self.fc_weights.clone(), bn_weights: Vec::new() }
    }

    /// Float forward pass, invoking `visit(layer_index, activation)` after
    /// every layer (index 0 receives the input). Returns the final
    /// activation flattened.
    pub fn forward_f32_with(&self, input: &Tensor<f32>, visit: impl FnMut(usize, &Tensor<f32>)) -> Vec<f32> {
        self.forward_f32_split(input, Split::auto(), visit)
    }

    /// [`Network::forward_f32_with`] with an explicit conv / FC split.
    fn forward_f32_split(
        &self,
        input: &Tensor<f32>,
        split: Split,
        mut visit: impl FnMut(usize, &Tensor<f32>),
    ) -> Vec<f32> {
        visit(0, input);
        // The float oracle favours clarity over memory: every boundary
        // activation is kept so `Ref`/`Add` can reach back into the DAG
        // (`acts[0]` is the input, `acts[i + 1]` the output of layer `i`).
        let mut acts: Vec<Tensor<f32>> = Vec::with_capacity(self.spec.layers.len() + 1);
        acts.push(input.clone());
        let mut conv_i = 0;
        let mut fc_i = 0;
        let mut bn_i = 0;
        for (li, layer) in self.spec.layers.iter().enumerate() {
            let next = {
                let prev = acts.last().expect("non-empty");
                let resolve = |r: &LayerRef| match r {
                    LayerRef::Input => &acts[0],
                    LayerRef::Layer(j) => &acts[j + 1],
                };
                match layer {
                    LayerSpec::Conv { stride, pad, relu, .. } => {
                        let out =
                            conv2d_f32_split(prev, &self.conv_weights[conv_i], *stride, *pad, *relu, split);
                        conv_i += 1;
                        out
                    }
                    LayerSpec::MaxPool { k, stride, .. } => maxpool_f32(prev, *k, *stride),
                    LayerSpec::Fc { relu, .. } => {
                        let out = fc_f32_split(prev.as_slice(), &self.fc_weights[fc_i], *relu, split);
                        fc_i += 1;
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
                        let out = batchnorm_f32(prev, &self.bn_weights[bn_i], *relu);
                        bn_i += 1;
                        out
                    }
                }
            };
            visit(li + 1, &next);
            acts.push(next);
        }
        acts.pop().expect("non-empty").into_vec()
    }

    /// Float forward pass.
    pub fn forward_f32(&self, input: &Tensor<f32>) -> Vec<f32> {
        self.forward_f32_with(input, |_, _| {})
    }

    /// Quantizes this network to 8-bit sign+magnitude using the given
    /// calibration inputs to set activation scales (max-abs calibration).
    /// With no calibration inputs, all activation scales default to 1.0.
    ///
    /// Batch-norm folds **before** quantization ([`Network::fold_batchnorm`]
    /// runs first when the spec carries BN), so the returned network's
    /// spec is BN-free; calibration then sees the folded activations.
    ///
    /// The calibration passes and each layer's max-abs scan and rounding
    /// run on all host cores; the result is bit-identical to the
    /// one-thread, naive-convolution computation the tests keep as oracle.
    pub fn quantize(&self, calibration: &[Tensor<f32>]) -> QuantizedNetwork {
        self.quantize_split(calibration, Split::auto())
    }

    /// [`Network::quantize`] with an explicit split.
    pub(crate) fn quantize_split(&self, calibration: &[Tensor<f32>], split: Split) -> QuantizedNetwork {
        if self.spec.has_batchnorm() {
            return self.fold_batchnorm().quantize_split(calibration, split);
        }
        let boundaries = self.spec.layers.len() + 1;
        let mut max_abs = vec![0f32; boundaries];
        for input in calibration {
            self.forward_f32_split(input, split, |i, act| {
                let m = act.as_slice().iter().fold(0f32, |m, &v| m.max(v.abs()));
                max_abs[i] = max_abs[i].max(m);
            });
        }
        let scales: Vec<f32> =
            max_abs.iter().map(|&m| if m > 0.0 { m / 127.0 } else { 1.0 }).collect();

        let mut conv = Vec::new();
        let mut fc = Vec::new();
        let mut conv_i = 0;
        let mut fc_i = 0;
        for (li, layer) in self.spec.layers.iter().enumerate() {
            let s_in = scales[li];
            let s_out = scales[li + 1];
            match layer {
                LayerSpec::Conv { relu, .. } => {
                    let w = &self.conv_weights[conv_i];
                    let (wq, w_q) = quantize_weights(&w.w, split);
                    conv.push(QuantizedConvLayer {
                        layer_index: li,
                        weights: QuantConvWeights::new(
                            w.out_c,
                            w.in_c,
                            w.k,
                            w_q,
                            w.bias
                                .iter()
                                .map(|&b| (b / (s_in * wq.scale)).round() as i64)
                                .collect(),
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
                    let w = &self.fc_weights[fc_i];
                    let (wq, w_q) = quantize_weights(&w.w, split);
                    fc.push(QuantFcWeights {
                        out_features: w.out_features,
                        in_features: w.in_features,
                        w: w_q,
                        bias_acc: w
                            .bias
                            .iter()
                            .map(|&b| (b / (s_in * wq.scale)).round() as i64)
                            .collect(),
                        requant: Requantizer::from_ratio((s_in * wq.scale / s_out) as f64),
                        relu: *relu,
                    });
                    fc_i += 1;
                }
                // Ref/Add/GAP carry no weights: their requantizers derive
                // from the activation scales on demand (see
                // [`QuantizedNetwork::add_requantizers`]).
                LayerSpec::MaxPool { .. }
                | LayerSpec::Softmax
                | LayerSpec::Ref { .. }
                | LayerSpec::Add { .. }
                | LayerSpec::GlobalAvgPool { .. } => {}
                LayerSpec::BatchNorm { .. } => unreachable!("folded above"),
            }
        }
        QuantizedNetwork {
            spec: self.spec.clone(),
            plan: ExecPlan::build(&self.spec).expect("network must be shape-valid"),
            input_params: QuantParams { scale: scales[0] },
            activation_scales: scales,
            conv,
            fc,
        }
    }
}

impl Network {
    /// Quantizes this network with **ternary** conv weights (the paper's
    /// future-work network style): each conv layer's weights become
    /// `{-1, 0, +1}` with a per-layer scale, inducing 30-60% sparsity that
    /// the zero-skipping hardware exploits directly. FC layers stay 8-bit.
    pub fn quantize_ternary(&self, calibration: &[Tensor<f32>]) -> QuantizedNetwork {
        self.quantize_ternary_split(calibration, Split::auto())
    }

    /// [`Network::quantize_ternary`] with an explicit split.
    pub(crate) fn quantize_ternary_split(&self, calibration: &[Tensor<f32>], split: Split) -> QuantizedNetwork {
        if self.spec.has_batchnorm() {
            // Fold first so the layer walk below sees the same spec the
            // 8-bit quantization produced.
            return self.fold_batchnorm().quantize_ternary_split(calibration, split);
        }
        // Start from the 8-bit quantization for activation scales and FC.
        let mut q = self.quantize_split(calibration, split);
        self.ternarize(&mut q);
        q
    }

    /// Replaces the conv layers of `q` — this (batch-norm-free) network's
    /// 8-bit quantization — with their ternary form.
    pub(crate) fn ternarize(&self, q: &mut QuantizedNetwork) {
        use zskip_quant::TernaryParams;
        let mut conv_i = 0;
        for (li, layer) in self.spec.layers.iter().enumerate() {
            if let LayerSpec::Conv { relu, .. } = layer {
                let w = &self.conv_weights[conv_i];
                let s_in = q.activation_scales[li];
                let s_out = q.activation_scales[li + 1];
                let t = TernaryParams::from_weights(&w.w);
                let ql = &mut q.conv[conv_i];
                ql.weights.w = t.quantize_all(&w.w);
                ql.weights.bias_acc =
                    w.bias.iter().map(|&b| (b / (s_in * t.scale)).round() as i64).collect();
                ql.weights.requant = t.requantizer(s_in, s_out);
                ql.weights.relu = *relu;
                ql.weights.invalidate_caches();
                ql.w_scale = t.scale;
                conv_i += 1;
            }
        }
    }
}

/// Rough cost of pruning one weight (count, select, sweep).
const NS_PER_PRUNED_WEIGHT: usize = 3;
/// Rough cost of scanning and rounding one weight to 8 bits.
const NS_PER_QUANTIZED_WEIGHT: usize = 6;

/// Max-abs 8-bit quantization of one layer's weights: the scale
/// [`QuantParams::from_max_abs`] picks and the values
/// [`QuantParams::quantize`] rounds to, with both passes cut into runs.
/// `max` is exact and order-free, so the maximum of the per-run maxima is
/// the serial scan's; rounding is per element.
fn quantize_weights(w: &[f32], split: Split) -> (QuantParams, Vec<Sm8>) {
    let run_len = split.run_len(w.len(), NS_PER_QUANTIZED_WEIGHT);
    let maxima = par::scoped_map(w.chunks(run_len), |run| run.iter().fold(0f32, |m, &v| m.max(v.abs())));
    let params = QuantParams::from_max_abs(&maxima);
    let mut q = vec![Sm8::ZERO; w.len()];
    par::scoped_map(q.chunks_mut(run_len).zip(w.chunks(run_len)), |(q, w)| {
        for (q, &v) in q.iter_mut().zip(w) {
            *q = params.quantize(v);
        }
    });
    (params, q)
}

/// One quantized conv layer with its scale bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedConvLayer {
    /// Index of this layer in the network spec.
    pub layer_index: usize,
    /// The integer operands (what the accelerator consumes).
    pub weights: QuantConvWeights,
    /// Input activation scale.
    pub in_scale: f32,
    /// Weight scale.
    pub w_scale: f32,
    /// Output activation scale.
    pub out_scale: f32,
}

/// A fully quantized network: the artifact handed to the accelerator driver.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedNetwork {
    /// The layer graph (shared with the float model; batch-norm-free —
    /// quantization folds BN away).
    pub spec: NetworkSpec,
    /// The DAG execution plan (slot assignment and liveness) the scratch
    /// forward pass and the accelerator driver both walk.
    pub plan: ExecPlan,
    /// Quantizer for network inputs.
    pub input_params: QuantParams,
    /// Activation scale at every layer boundary (len = layers + 1).
    pub activation_scales: Vec<f32>,
    /// Quantized conv layers, in order.
    pub conv: Vec<QuantizedConvLayer>,
    /// Quantized FC layers, in order.
    pub fc: Vec<QuantFcWeights>,
}

/// One accelerator step of [`QuantizedNetwork::run_plan`]: everything its
/// `accel` callback needs to execute a `Conv` or `MaxPool` layer from one
/// dense plan slot into another.
#[derive(Debug)]
pub struct AccelStep<'a> {
    /// The layer to execute: [`LayerSpec::Conv`] or [`LayerSpec::MaxPool`].
    pub layer: &'a LayerSpec,
    /// The layer's quantized weights (`Some` exactly for a conv).
    pub weights: Option<&'a QuantConvWeights>,
    /// Plan slot `src` lives in.
    pub src_slot: usize,
    /// Plan slot `dst` lives in.
    pub dst_slot: usize,
    /// The input activation.
    pub src: &'a Tensor<Sm8>,
    /// Receives the output activation (reshaped in place).
    pub dst: &'a mut Tensor<Sm8>,
    /// Arena tensor for an explicit pad pass's intermediate.
    pub padded: &'a mut Tensor<Sm8>,
    /// The arena's kernel working set.
    pub kernel: KernelBuffers<'a>,
}

impl QuantizedNetwork {
    /// Integer-exact forward pass (the software golden model). Returns the
    /// final quantized activations.
    ///
    /// Convenience wrapper over [`QuantizedNetwork::forward_quant_scratch`]
    /// with a throwaway arena; streaming callers should hold a [`Scratch`]
    /// and call the `_scratch` variant so steady-state images allocate
    /// nothing.
    pub fn forward_quant(&self, input: &Tensor<f32>) -> Vec<Sm8> {
        let mut scratch = Scratch::new();
        self.forward_quant_scratch(input, &mut scratch).to_vec()
    }

    /// Integer-exact forward pass through a caller-owned buffer arena.
    /// Returns a borrow of the final quantized activations inside the
    /// arena (copy it out before the next image).
    ///
    /// This is [`QuantizedNetwork::run_plan`] with the `zskip-nn` kernels
    /// standing in for the accelerator. The first image through a network
    /// grows the arena and warms the per-layer weight caches; after that
    /// the whole pass performs zero heap allocations (`tests/alloc_free.rs`
    /// asserts this with a counting allocator). Kernels run at
    /// [`Scratch::tier`].
    pub fn forward_quant_scratch<'s>(&self, input: &Tensor<f32>, scratch: &'s mut Scratch) -> &'s [Sm8] {
        let golden = |step: AccelStep<'_>| -> Result<(), Infallible> {
            let AccelStep { layer, weights, src, dst, kernel: KernelBuffers { gemm, tier, pool }, .. } = step;
            match (layer, weights) {
                (LayerSpec::Conv { stride, pad, .. }, Some(w)) => {
                    conv2d_gemm_quant_into(src, w, *stride, *pad, tier, pool, gemm, dst)
                }
                (LayerSpec::MaxPool { k, stride, .. }, _) => maxpool_quant_into(src, *k, *stride, dst),
                _ => unreachable!("run_plan hands over conv and pool steps only"),
            }
            Ok(())
        };
        match self.run_plan(input, scratch, golden) {
            Ok(output) => output,
            Err(never) => match never {},
        }
    }

    /// The one quantized plan walk, shared by the golden model and the
    /// accelerator driver: quantizes `input` into slot 0, executes every
    /// host-side step (`Ref`, `Add`, `GlobalAvgPool`, `Fc`, `Softmax`) on
    /// the arena's dense slots and FC vectors, and hands each `Conv` /
    /// `MaxPool` step to `accel`. Returns a borrow of the final quantized
    /// activations, or the first error `accel` reports (the walk stops
    /// there). Allocation-free on a warmed arena when `accel` is.
    ///
    /// # Errors
    /// Whatever `accel` returns.
    pub fn run_plan<'s, E>(
        &self,
        input: &Tensor<f32>,
        scratch: &'s mut Scratch,
        mut accel: impl FnMut(AccelStep<'_>) -> Result<(), E>,
    ) -> Result<&'s [Sm8], E> {
        let before = scratch.capacity_bytes();
        let tier = scratch.tier();
        scratch.ensure_slots(self.plan.slots.max(1));
        let mut flat_cur: Option<usize> = None;
        {
            let Scratch { slots, acc, gemm, padded, flat, pool, .. } = scratch;
            // The plan always places the network input in slot 0.
            input.map_into(&mut slots[0], |v| self.input_params.quantize(v));
            let mut convs = self.conv.iter();
            let mut fcs = self.fc.iter();
            for step in &self.plan.steps {
                let layer = &self.spec.layers[step.layer];
                match layer {
                    LayerSpec::Conv { .. } | LayerSpec::MaxPool { .. } => {
                        let (src_slot, dst_slot) =
                            (step.src.expect("conv/pool reads a slot"), step.dst.expect("conv/pool writes a slot"));
                        let (src, dst) = slot_pair(slots, src_slot, dst_slot);
                        let weights = match layer {
                            LayerSpec::Conv { .. } => convs.next().map(|c| &c.weights),
                            _ => None,
                        };
                        let kernel = KernelBuffers { gemm, tier, pool: pool.as_deref() };
                        accel(AccelStep { layer, weights, src_slot, dst_slot, src, dst, padded, kernel })?;
                    }
                    // A Ref is a pure alias: its plan step re-emits the
                    // source slot (`dst == src`), no data moves.
                    LayerSpec::Ref { .. } => {}
                    // Both operands are rescaled to the output scale and
                    // summed in i64 before the single saturation.
                    LayerSpec::Add { relu, .. } => {
                        let (ra, rb) = self.add_requantizers(step);
                        add_quant_phase1(&slots[step.src.expect("add reads a slot")], ra, acc);
                        let (b, dst) = slot_pair(slots, step.operand.expect("add has an operand"), step.dst.expect("add writes a slot"));
                        add_quant_phase2(b, rb, *relu, acc, dst);
                    }
                    LayerSpec::GlobalAvgPool { .. } => {
                        let (src, dst) = slot_pair(slots, step.src.expect("gap reads a slot"), step.dst.expect("gap writes a slot"));
                        let r = self.gap_requantizer(step, src.shape().h * src.shape().w);
                        global_avgpool_quant_into(src, r, dst);
                    }
                    LayerSpec::Fc { .. } => {
                        let w = fcs.next().expect("one quantized FC per Fc layer");
                        match flat_cur {
                            Some(fi) => {
                                let (lo, hi) = flat.split_at_mut(1);
                                let (src, dst) =
                                    if fi == 0 { (&lo[0], &mut hi[0]) } else { (&hi[0], &mut lo[0]) };
                                fc_quant_pool_into(src, w, tier, pool.as_deref(), gemm, dst);
                                flat_cur = Some(1 - fi);
                            }
                            None => {
                                let src = &slots[step.src.expect("first fc reads a slot")];
                                fc_quant_pool_into(src.as_slice(), w, tier, pool.as_deref(), gemm, &mut flat[0]);
                                flat_cur = Some(0);
                            }
                        }
                    }
                    LayerSpec::Softmax => {
                        // Softmax is monotone; the quantized path carries logits
                        // through (classification by argmax is unchanged).
                    }
                    LayerSpec::BatchNorm { .. } => {
                        unreachable!("quantize() folds batch-norm before execution")
                    }
                }
            }
        }
        if scratch.capacity_bytes() != before {
            scratch.grow_events += 1;
        }
        Ok(match flat_cur {
            Some(fi) => &scratch.flat[fi],
            None => scratch.slots[self.plan.output_slot.unwrap_or(0)].as_slice(),
        })
    }

    /// Requantizers bringing an [`LayerSpec::Add`] step's two operands to
    /// the layer's output scale (`s_operand / s_out` each): applied raw
    /// (to `i32`), summed, then saturated once — the shared definition of
    /// the quantized residual join for oracle and driver.
    pub fn add_requantizers(&self, step: &PlanStep) -> (Requantizer, Requantizer) {
        let s_out = self.activation_scales[step.layer + 1];
        let ra = self.boundary_scale(step.src_layer) / s_out;
        let rb = self.boundary_scale(step.operand_layer) / s_out;
        (Requantizer::from_ratio(ra as f64), Requantizer::from_ratio(rb as f64))
    }

    /// Requantizer for a [`LayerSpec::GlobalAvgPool`] step over `n`
    /// spatial positions: the `1/n` mean divisor folds into the scale
    /// ratio, so the exact `i64` channel sum requantizes in one step.
    pub fn gap_requantizer(&self, step: &PlanStep, n: usize) -> Requantizer {
        let s_in = self.boundary_scale(step.src_layer);
        let s_out = self.activation_scales[step.layer + 1];
        Requantizer::from_ratio(s_in as f64 / (s_out as f64 * n as f64))
    }

    /// The activation scale at a plan step's input boundary (`None` = the
    /// network input).
    fn boundary_scale(&self, layer: Option<usize>) -> f32 {
        match layer {
            None => self.activation_scales[0],
            Some(j) => self.activation_scales[j + 1],
        }
    }

    /// Forward pass returning dequantized (approximate float) logits.
    pub fn forward_dequant(&self, input: &Tensor<f32>) -> Vec<f32> {
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        self.forward_dequant_into(input, &mut scratch, &mut out);
        out
    }

    /// [`QuantizedNetwork::forward_dequant`] through a caller-owned arena,
    /// writing the logits into a reused vector (fidelity sweeps call this
    /// per input without allocating on the quantized side).
    pub fn forward_dequant_into(&self, input: &Tensor<f32>, scratch: &mut Scratch, out: &mut Vec<f32>) {
        // The last non-softmax boundary scale applies to the logits.
        let scale = self
            .spec
            .layers
            .iter()
            .rposition(|l| !matches!(l, LayerSpec::Softmax))
            .map(|i| self.activation_scales[i + 1])
            .unwrap_or(1.0);
        let q = self.forward_quant_scratch(input, scratch);
        out.clear();
        out.extend(q.iter().map(|&v| v.to_i32() as f32 * scale));
    }

    /// Per-conv-layer weight density, in layer order.
    pub fn conv_densities(&self) -> Vec<f64> {
        self.conv.iter().map(|c| c.weights.density()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{conv3x3, maxpool2x2};
    use zskip_quant::sparsity;
    use zskip_tensor::Shape;

    fn tiny_spec() -> NetworkSpec {
        NetworkSpec {
            name: "tiny".into(),
            input: Shape::new(3, 8, 8),
            layers: vec![
                conv3x3("c1", 3, 8),
                maxpool2x2("p1"),
                conv3x3("c2", 8, 16),
                maxpool2x2("p2"),
                LayerSpec::Fc { name: "fc".into(), in_features: 16 * 2 * 2, out_features: 10, relu: false },
                LayerSpec::Softmax,
            ],
        }
    }

    fn tiny_input(seed: u64) -> Tensor<f32> {
        Tensor::from_fn(3, 8, 8, |c, y, x| {
            (((c * 64 + y * 8 + x) as f32 + seed as f32) * 0.618).sin()
        })
    }

    #[test]
    fn synthetic_is_deterministic() {
        let cfg = SyntheticModelConfig { seed: 7, density: DensityProfile::dense(2) };
        let a = Network::synthetic(tiny_spec(), &cfg);
        let b = Network::synthetic(tiny_spec(), &cfg);
        assert_eq!(a, b);
        let c = Network::synthetic(tiny_spec(), &SyntheticModelConfig { seed: 8, ..cfg });
        assert_ne!(a, c);
    }

    #[test]
    fn synthetic_respects_density_profile() {
        let cfg = SyntheticModelConfig { seed: 1, density: DensityProfile::uniform(2, 0.25) };
        let net = Network::synthetic(tiny_spec(), &cfg);
        for w in &net.conv_weights {
            let s = sparsity(&w.w);
            assert!((s - 0.75).abs() < 0.02, "sparsity {s}");
        }
    }

    #[test]
    fn forward_produces_distribution_after_softmax() {
        let net = Network::synthetic(tiny_spec(), &SyntheticModelConfig::default());
        let out = net.forward_f32(&tiny_input(0));
        assert_eq!(out.len(), 10);
        assert!((out.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(out.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn quantized_forward_agrees_with_float_argmax() {
        let net = Network::synthetic(tiny_spec(), &SyntheticModelConfig::default());
        let calib: Vec<Tensor<f32>> = (0..4).map(tiny_input).collect();
        let qnet = net.quantize(&calib);
        let mut agree = 0;
        let n = 8;
        for i in 0..n {
            let input = tiny_input(100 + i);
            let f = net.forward_f32(&input);
            let q = qnet.forward_dequant(&input);
            assert_eq!(q.len(), 10);
            if crate::fc::argmax(&f) == crate::fc::argmax(&q) {
                agree += 1;
            }
        }
        // 8-bit quantization should agree on most random inputs.
        assert!(agree >= n * 3 / 4, "agreement {agree}/{n}");
    }

    #[test]
    fn quantized_network_preserves_density() {
        let cfg = SyntheticModelConfig { seed: 3, density: DensityProfile::uniform(2, 0.3) };
        let net = Network::synthetic(tiny_spec(), &cfg);
        let qnet = net.quantize(&[tiny_input(0)]);
        for d in qnet.conv_densities() {
            // Quantization can only add zeros (small weights round to 0).
            assert!(d <= 0.32, "density {d}");
        }
    }

    #[test]
    fn scratch_forward_matches_allocating_forward_and_stops_growing() {
        let net = Network::synthetic(tiny_spec(), &SyntheticModelConfig::default());
        let qnet = net.quantize(&[tiny_input(0)]);
        let mut scratch = Scratch::new();
        for i in 0..4 {
            let input = tiny_input(200 + i);
            let fresh = qnet.forward_quant(&input);
            let reused = qnet.forward_quant_scratch(&input, &mut scratch).to_vec();
            assert_eq!(fresh, reused, "image {i}");
        }
        // Same-shaped images: only the first pass may grow the arena.
        assert_eq!(scratch.grow_events(), 1);
    }

    #[test]
    fn scratch_forward_is_tier_independent() {
        let net = Network::synthetic(tiny_spec(), &SyntheticModelConfig::default());
        let qnet = net.quantize(&[tiny_input(0)]);
        let input = tiny_input(42);
        let mut base = Scratch::with_tier(crate::simd::KernelTier::Scalar);
        let want = qnet.forward_quant_scratch(&input, &mut base).to_vec();
        for tier in crate::simd::KernelTier::supported() {
            let mut s = Scratch::with_tier(tier);
            assert_eq!(qnet.forward_quant_scratch(&input, &mut s), &want[..], "tier {tier}");
        }
    }

    /// A residual block with batch-norm, a projection shortcut, global
    /// average pooling, and an FC head — every new layer type at once.
    fn residual_spec() -> NetworkSpec {
        use crate::layer::{conv1x1, LayerRef};
        NetworkSpec {
            name: "res-tiny".into(),
            input: Shape::new(3, 8, 8),
            layers: vec![
                LayerSpec::Conv { name: "stem".into(), in_c: 3, out_c: 4, k: 3, stride: 1, pad: 1, relu: false },
                LayerSpec::BatchNorm { name: "stem_bn".into(), relu: true },
                LayerSpec::Conv { name: "c1".into(), in_c: 4, out_c: 4, k: 3, stride: 1, pad: 1, relu: false },
                LayerSpec::BatchNorm { name: "c1_bn".into(), relu: true },
                LayerSpec::Conv { name: "c2".into(), in_c: 4, out_c: 4, k: 3, stride: 1, pad: 1, relu: false },
                LayerSpec::BatchNorm { name: "c2_bn".into(), relu: false },
                LayerSpec::Add { name: "join".into(), from: LayerRef::Layer(1), relu: true },
                maxpool2x2("pool"),
                LayerSpec::Ref { name: "skip".into(), from: LayerRef::Layer(6) },
                conv1x1("proj", 4, 6),
                LayerSpec::BatchNorm { name: "proj_bn".into(), relu: false },
                LayerSpec::GlobalAvgPool { name: "gap".into() },
                LayerSpec::Fc { name: "fc".into(), in_features: 6, out_features: 5, relu: false },
                LayerSpec::Softmax,
            ],
        }
    }

    #[test]
    fn fold_batchnorm_matches_the_float_bn_oracle() {
        let net = Network::synthetic(residual_spec(), &SyntheticModelConfig { seed: 11, ..Default::default() });
        let folded = net.fold_batchnorm();
        assert!(!folded.spec.has_batchnorm());
        assert!(folded.bn_weights.is_empty());
        assert_eq!(folded.spec.layers.len(), net.spec.layers.len() - 4);
        for i in 0..4 {
            let input = tiny_input(300 + i);
            let a = net.forward_f32(&input);
            let b = folded.forward_f32(&input);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-4, "fold drifted: {x} vs {y}");
            }
        }
    }

    #[test]
    fn residual_quantized_forward_agrees_with_float_argmax() {
        let net = Network::synthetic(residual_spec(), &SyntheticModelConfig { seed: 5, ..Default::default() });
        let calib: Vec<Tensor<f32>> = (0..4).map(tiny_input).collect();
        let qnet = net.quantize(&calib);
        assert!(!qnet.spec.has_batchnorm(), "quantization folds BN away");
        assert_eq!(qnet.plan.slots, 3, "skip branch holds a third slot");
        let mut agree = 0;
        let n = 8;
        for i in 0..n {
            let input = tiny_input(400 + i);
            let f = net.forward_f32(&input);
            let q = qnet.forward_dequant(&input);
            if crate::fc::argmax(&f) == crate::fc::argmax(&q) {
                agree += 1;
            }
        }
        assert!(agree >= n * 3 / 4, "agreement {agree}/{n}");
    }

    #[test]
    fn residual_scratch_forward_is_warm_allocation_stable_and_tier_independent() {
        let net = Network::synthetic(residual_spec(), &SyntheticModelConfig::default());
        let qnet = net.quantize(&[tiny_input(0)]);
        let mut scratch = Scratch::with_tier(crate::simd::KernelTier::Scalar);
        let mut want = Vec::new();
        for i in 0..4 {
            let input = tiny_input(500 + i);
            let fresh = qnet.forward_quant(&input);
            let reused = qnet.forward_quant_scratch(&input, &mut scratch).to_vec();
            assert_eq!(fresh, reused, "image {i}");
            if i == 0 {
                want = fresh;
            }
        }
        assert_eq!(scratch.grow_events(), 1, "skip slots must reuse after warmup");
        let input = tiny_input(500);
        for tier in crate::simd::KernelTier::supported() {
            let mut s = Scratch::with_tier(tier);
            assert_eq!(qnet.forward_quant_scratch(&input, &mut s), &want[..], "tier {tier}");
        }
    }

    #[test]
    fn visit_sees_every_boundary() {
        let net = Network::synthetic(tiny_spec(), &SyntheticModelConfig::default());
        let mut seen = Vec::new();
        net.forward_f32_with(&tiny_input(0), |i, act| seen.push((i, act.shape())));
        assert_eq!(seen.len(), 7);
        assert_eq!(seen[0].1, Shape::new(3, 8, 8));
        assert_eq!(seen[6].1, Shape::new(10, 1, 1));
    }
}

#[cfg(test)]
mod fold_order_tests {
    use super::*;
    use crate::layer::conv3x3;
    use proptest::prelude::*;
    use zskip_tensor::Shape;

    fn bn_spec() -> NetworkSpec {
        NetworkSpec {
            name: "bn-prop".into(),
            input: Shape::new(2, 6, 6),
            layers: vec![
                LayerSpec::Conv { name: "c1".into(), in_c: 2, out_c: 3, k: 3, stride: 1, pad: 1, relu: false },
                LayerSpec::BatchNorm { name: "c1_bn".into(), relu: true },
                conv3x3("c2", 3, 3),
                LayerSpec::Add { name: "join".into(), from: LayerRef::Layer(1), relu: false },
            ],
        }
    }

    fn input(seed: u64) -> Tensor<f32> {
        Tensor::from_fn(2, 6, 6, |c, y, x| (((c * 36 + y * 6 + x) as f32 + seed as f32) * 0.41).sin())
    }

    proptest! {
        /// Pins the fold order: quantizing a BN-carrying network is
        /// bit-identical to folding batch-norm in f32 first and then
        /// quantizing, across random BN statistics and epsilons. Any
        /// future change that quantizes first and folds integer weights
        /// afterwards must reproduce this exactly.
        #[test]
        fn quantizing_with_bn_equals_folding_then_quantizing(
            seed in 0u64..500,
            gamma in proptest::collection::vec(0.2f32..3.0, 3),
            beta in proptest::collection::vec(-0.5f32..0.5, 3),
            mean in proptest::collection::vec(-0.5f32..0.5, 3),
            var in proptest::collection::vec(0.05f32..4.0, 3),
            eps in prop_oneof![Just(1e-5f32), Just(1e-3f32), Just(0.1f32)],
        ) {
            let mut net = Network::synthetic(
                bn_spec(),
                &SyntheticModelConfig { seed, ..Default::default() },
            );
            net.bn_weights = vec![BnWeights { gamma, beta, mean, var, eps }];
            let calib: Vec<Tensor<f32>> = (0..2).map(input).collect();
            let with_bn = net.quantize(&calib);
            let folded_first = net.fold_batchnorm().quantize(&calib);
            prop_assert_eq!(&with_bn, &folded_first);
            let x = input(seed + 1000);
            prop_assert_eq!(with_bn.forward_quant(&x), folded_first.forward_quant(&x));
        }
    }
}

#[cfg(test)]
mod ternary_tests {
    use super::*;
    use crate::layer::{conv3x3, maxpool2x2, NetworkSpec};
    use zskip_tensor::Shape;

    fn spec() -> NetworkSpec {
        NetworkSpec {
            name: "t".into(),
            input: Shape::new(3, 8, 8),
            layers: vec![
                conv3x3("c1", 3, 8),
                maxpool2x2("p1"),
                LayerSpec::Fc { name: "fc".into(), in_features: 8 * 4 * 4, out_features: 4, relu: false },
            ],
        }
    }

    fn input(seed: u64) -> Tensor<f32> {
        Tensor::from_fn(3, 8, 8, |c, y, x| (((c * 64 + y * 8 + x) as f32 + seed as f32) * 0.37).sin())
    }

    #[test]
    fn ternary_weights_are_three_valued_and_sparse() {
        let net = Network::synthetic(spec(), &SyntheticModelConfig::default());
        let q = net.quantize_ternary(&[input(0)]);
        for layer in &q.conv {
            for w in &layer.weights.w {
                assert!(w.to_i32().abs() <= 1);
            }
            let d = layer.weights.density();
            assert!((0.2..0.85).contains(&d), "density {d}");
        }
    }

    #[test]
    fn ternary_network_still_classifies_like_float() {
        let net = Network::synthetic(spec(), &SyntheticModelConfig::default());
        let calib: Vec<Tensor<f32>> = (0..3).map(input).collect();
        let q = net.quantize_ternary(&calib);
        // Ternary is lossier than 8-bit; demand majority agreement only.
        let mut agree = 0;
        let n = 10;
        for i in 0..n {
            let x = input(50 + i);
            let f = net.forward_f32(&x);
            let t = q.forward_dequant(&x);
            if crate::fc::argmax(&f) == crate::fc::argmax(&t) {
                agree += 1;
            }
        }
        assert!(agree * 2 >= n, "agreement {agree}/{n}");
    }

    #[test]
    fn ternary_is_sparser_than_eight_bit() {
        let net = Network::synthetic(spec(), &SyntheticModelConfig::default());
        let q8 = net.quantize(&[input(0)]);
        let qt = net.quantize_ternary(&[input(0)]);
        for (a, b) in q8.conv.iter().zip(&qt.conv) {
            assert!(b.weights.density() < a.weights.density());
        }
    }
}
