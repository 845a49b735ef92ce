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
    add_f32, add_quant_into, batchnorm_f32, global_avgpool_f32, global_avgpool_quant_into, BnWeights,
};
use crate::fc::{fc_f32_split, fc_quant_pool_into, softmax, FcWeights, QuantFcWeights};
use crate::gaussian::{ChaChaWords, WordSource};
use crate::gemm::conv2d_gemm_quant_into;
use crate::layer::{LayerRef, LayerSpec, NetworkSpec};
use crate::par::Split;
use crate::plan::{ExecPlan, PlanStep};
use crate::pool::{maxpool_f32, maxpool_quant_tier_into};
use crate::scratch::{slot_join, slot_pair, KernelBuffers, Scratch};
use crate::setup::{self, Borrowed, Drawn, FloatLayers, Scales};
use crate::simd::{self, KernelTier};
use std::convert::Infallible;
use zskip_quant::{DensityProfile, QuantParams, Requantizer, Sm8};
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
    /// BN-free networks; folded away by quantization).
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
    /// layer order: the set-up walk's drawn source ([`crate::setup`]) with
    /// every layer kept. The draws and each conv layer's pruning run on
    /// all host cores (see `gaussian.rs`); the model is bit-identical to
    /// drawing them one by one on one thread, which the tests keep as the
    /// oracle. [`QuantizedNetwork::synthetic`] draws the same layers
    /// without ever holding them all.
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
        let mut src = Drawn::new(words, &config.density, split);
        let (mut conv_weights, mut fc_weights, mut bn_weights) = (Vec::new(), Vec::new(), Vec::new());
        for (li, layer) in spec.layers.iter().enumerate() {
            match *layer {
                LayerSpec::Conv { in_c, out_c, k, .. } => conv_weights.push(src.conv(in_c, out_c, k).into_owned()),
                LayerSpec::Fc { in_features, out_features, .. } => {
                    fc_weights.push(src.fc(in_features, out_features).into_owned())
                }
                LayerSpec::BatchNorm { .. } => bn_weights.push(src.bn(shapes[li].c).into_owned()),
                LayerSpec::MaxPool { .. }
                | LayerSpec::Softmax
                | LayerSpec::Ref { .. }
                | LayerSpec::Add { .. }
                | LayerSpec::GlobalAvgPool { .. } => {}
            }
        }
        Network { spec, conv_weights, fc_weights, bn_weights }
    }

    /// Folds every batch-norm layer into its preceding convolution's
    /// weights in f32 — the standard inference-time transform: scale
    /// output-channel `o`'s filters by `gamma[o] / sqrt(var[o] + eps)`
    /// and map the bias through the same per-channel affine. The BN layer
    /// disappears from the spec (its fused ReLU moves onto the conv) and
    /// every `Ref`/`Add` reference is remapped to the compacted indices.
    ///
    /// The whole-network form of what the set-up walk does one conv at a
    /// time before it quantizes (fold in f32, then quantize): the tests'
    /// oracles fold with it.
    #[cfg(test)]
    pub(crate) fn fold_batchnorm(&self) -> Network {
        use crate::setup::{fold_bn, fold_spec};
        let (spec, absorbs_bn) = fold_spec(&self.spec);
        let mut src = Borrowed::new(self);
        let mut conv_weights = Vec::new();
        for (layer, &absorbs) in spec.layers.iter().zip(&absorbs_bn) {
            if let LayerSpec::Conv { in_c, out_c, k, .. } = *layer {
                let mut w = src.conv(in_c, out_c, k).into_owned();
                if absorbs {
                    fold_bn(&mut w, &src.bn(out_c));
                }
                conv_weights.push(w);
            }
        }
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
        let tier = simd::dispatch();
        visit(0, input);
        // The float oracle favours clarity over memory: every boundary
        // activation is kept so `Ref`/`Add` can reach back into the DAG
        // (`acts[0]` is the input, `acts[i + 1]` the output of layer `i`).
        let mut acts: Vec<Tensor<f32>> = Vec::with_capacity(self.spec.layers.len() + 1);
        acts.push(input.clone());
        let (mut convs, mut fcs, mut bns) = (self.conv_weights.iter(), self.fc_weights.iter(), self.bn_weights.iter());
        for (li, layer) in self.spec.layers.iter().enumerate() {
            let weights = match layer {
                LayerSpec::Conv { .. } => FloatWeights::Conv(convs.next().expect("one weight set per conv")),
                LayerSpec::Fc { .. } => FloatWeights::Fc(fcs.next().expect("one weight set per FC")),
                LayerSpec::BatchNorm { .. } => FloatWeights::Bn(bns.next().expect("statistics per BN")),
                _ => FloatWeights::None,
            };
            let from = match layer {
                LayerSpec::Ref { from, .. } | LayerSpec::Add { from, .. } => Some(match from {
                    LayerRef::Input => &acts[0],
                    LayerRef::Layer(j) => &acts[j + 1],
                }),
                _ => None,
            };
            let next = float_layer(layer, weights, acts.last().expect("non-empty"), from, split, tier);
            visit(li + 1, &next);
            acts.push(next);
        }
        acts.pop().expect("non-empty").into_vec()
    }

    /// Float forward pass.
    pub fn forward_f32(&self, input: &Tensor<f32>) -> Vec<f32> {
        self.forward_f32_with(input, |_, _| {})
    }

    /// Quantizes this network to 8-bit sign+magnitude, its activation
    /// scales calibrated on `calibration` ([`Scales::Calibrate`]).
    ///
    /// The calibration passes and each layer's max-abs scan and rounding
    /// run on all host cores; the result is bit-identical to the
    /// one-thread, naive-convolution computation the tests keep as oracle.
    pub fn quantize(&self, calibration: &[Tensor<f32>]) -> QuantizedNetwork {
        self.quantize_split(Scales::Calibrate(calibration), WeightCode::Int8, Split::auto())
    }

    /// [`Network::quantize`] with **ternary** conv weights (the paper's
    /// future-work network style): each conv layer's weights become
    /// `{-1, 0, +1}` with a per-layer scale, inducing 30-60% sparsity that
    /// the zero-skipping hardware exploits directly. FC layers stay 8-bit.
    pub fn quantize_ternary(&self, calibration: &[Tensor<f32>]) -> QuantizedNetwork {
        self.quantize_split(Scales::Calibrate(calibration), WeightCode::Ternary, Split::auto())
    }

    /// Quantizes with given activation scales, one per boundary of the
    /// batch-norm-folded spec ([`Scales::Given`]): folds batch-norm, codes
    /// each conv layer's weights as `code` says and each FC layer's as
    /// 8-bit, and derives every integer bias and requantizer from `scales`.
    ///
    /// # Panics
    /// If `scales` does not hold one scale per layer boundary.
    pub fn quantize_with_scales(&self, scales: &[f32], code: WeightCode) -> QuantizedNetwork {
        self.quantize_split(Scales::Given(scales), code, Split::auto())
    }

    /// The set-up walk over this network's layers, with an explicit split.
    pub(crate) fn quantize_split(&self, scales: Scales<'_>, code: WeightCode, split: Split) -> QuantizedNetwork {
        setup::build(&self.spec, &mut Borrowed::new(self), scales, code, split)
    }
}

/// The weights one float layer step reads.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FloatWeights<'w> {
    /// A conv layer's.
    Conv(&'w ConvWeights),
    /// An FC layer's.
    Fc(&'w FcWeights),
    /// A batch-norm layer's statistics.
    Bn(&'w BnWeights),
    /// None: the layer carries no weights.
    None,
}

/// One layer of the float forward pass: `prev` is the layer's input and
/// `from` the activation a `Ref` / `Add` reaches back to.
pub(crate) fn float_layer(
    layer: &LayerSpec,
    weights: FloatWeights<'_>,
    prev: &Tensor<f32>,
    from: Option<&Tensor<f32>>,
    split: Split,
    tier: KernelTier,
) -> Tensor<f32> {
    let from = || from.expect("a Ref / Add reads a second activation");
    match (layer, weights) {
        (LayerSpec::Conv { stride, pad, relu, .. }, FloatWeights::Conv(w)) => {
            conv2d_f32_split(prev, w, *stride, *pad, *relu, split, tier)
        }
        (LayerSpec::MaxPool { k, stride, .. }, _) => maxpool_f32(prev, *k, *stride),
        (LayerSpec::Fc { relu, .. }, FloatWeights::Fc(w)) => {
            let out = fc_f32_split(prev.as_slice(), w, *relu, split);
            Tensor::from_vec(out.len(), 1, 1, out)
        }
        (LayerSpec::Softmax, _) => {
            let out = softmax(prev.as_slice());
            Tensor::from_vec(out.len(), 1, 1, out)
        }
        (LayerSpec::Ref { .. }, _) => from().clone(),
        (LayerSpec::Add { relu, .. }, _) => add_f32(prev, from(), *relu),
        (LayerSpec::GlobalAvgPool { .. }, _) => global_avgpool_f32(prev),
        (LayerSpec::BatchNorm { relu, .. }, FloatWeights::Bn(bn)) => batchnorm_f32(prev, bn, *relu),
        _ => unreachable!("a conv, FC or batch-norm layer comes with its weights"),
    }
}

/// How the set-up codes conv weights; FC weights are always 8-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightCode {
    /// 8-bit sign+magnitude, max-abs scaled per layer (the paper's
    /// reduced precision, §IV-B).
    Int8,
    /// `{-1, 0, +1}` with a per-layer scale (the paper's future work, §VII).
    Ternary,
}

/// One quantized conv layer.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedConvLayer {
    /// The integer operands (what the accelerator consumes).
    pub weights: QuantConvWeights,
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
    /// Activation scale at every layer boundary (len = layers + 1); the
    /// first is the network input's quantizer.
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
    /// The arena's kernel working set.
    pub kernel: KernelBuffers<'a>,
}

impl QuantizedNetwork {
    /// Builds the quantized network [`Network::synthetic`] followed by
    /// [`Network::quantize`] (or `quantize_ternary`, or
    /// `quantize_with_scales`) builds, bit for bit, without ever holding
    /// the float network: each layer is drawn from the seeded stream when
    /// the set-up walk reaches it, pruned, folded with a following
    /// batch-norm, pushed the calibration activations through, coded as
    /// `code` says, and dropped ([`crate::setup`]). At most the layer in
    /// hand is alive as floats beside the integer layers already coded.
    ///
    /// # Panics
    /// If `spec` is not shape-valid, or given scales are not one per
    /// boundary of the batch-norm-folded spec.
    pub fn synthetic(
        spec: &NetworkSpec,
        config: &SyntheticModelConfig,
        scales: Scales<'_>,
        code: WeightCode,
    ) -> QuantizedNetwork {
        Self::synthetic_from(spec, config, &ChaChaWords::new(config.seed), Split::auto(), scales, code)
    }

    /// [`QuantizedNetwork::synthetic`] over an explicit word source and split.
    pub(crate) fn synthetic_from(
        spec: &NetworkSpec,
        config: &SyntheticModelConfig,
        words: &impl WordSource,
        split: Split,
        scales: Scales<'_>,
        code: WeightCode,
    ) -> QuantizedNetwork {
        setup::build(spec, &mut Drawn::new(words, &config.density, split), scales, code, split)
    }

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
                (LayerSpec::MaxPool { k, stride, .. }, _) => maxpool_quant_tier_into(src, *k, *stride, tier, dst),
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
            let Scratch { slots, gemm, flat, pool, .. } = scratch;
            // The plan always places the network input in slot 0.
            let s = input.shape();
            slots[0].reset(s.c, s.h, s.w);
            let quantizer = QuantParams { scale: self.activation_scales[0] };
            crate::weight_quant::quantize(tier, quantizer, input.as_slice(), slots[0].as_mut_slice());
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
                        accel(AccelStep { layer, weights, src_slot, dst_slot, src, dst, kernel })?;
                    }
                    // A Ref is a pure alias: its plan step re-emits the
                    // source slot (`dst == src`), no data moves.
                    LayerSpec::Ref { .. } => {}
                    // Both operands are rescaled to the output scale and
                    // summed in i64 before the single saturation.
                    LayerSpec::Add { relu, .. } => {
                        let (ra, rb) = self.add_requantizers(step);
                        let (a, b, dst) = slot_join(
                            slots,
                            [step.src.expect("add reads a slot"), step.operand.expect("add has an operand")],
                            step.dst.expect("add writes a slot"),
                        );
                        add_quant_into(a, b, ra, rb, *relu, tier, dst);
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
    fn calibrating_then_quantizing_with_the_scales_is_quantize() {
        // Batch-norm folds inside both calls; the scales index the folded spec.
        let net = Network::synthetic(residual_spec(), &SyntheticModelConfig { seed: 9, ..Default::default() });
        let calib: Vec<Tensor<f32>> = (0..2).map(tiny_input).collect();
        let scales = net.quantize(&calib).activation_scales;
        assert_eq!(scales.len(), net.fold_batchnorm().spec.layers.len() + 1);
        assert_eq!(net.quantize_with_scales(&scales, WeightCode::Int8), net.quantize(&calib));
        assert_eq!(net.quantize_with_scales(&scales, WeightCode::Ternary), net.quantize_ternary(&calib));
    }

    #[test]
    #[should_panic(expected = "one scale per layer boundary")]
    fn quantize_with_scales_validates_scale_count() {
        let net = Network::synthetic(tiny_spec(), &SyntheticModelConfig::default());
        let _ = net.quantize_with_scales(&[1.0], WeightCode::Int8);
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
            for w in layer.weights.w() {
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
