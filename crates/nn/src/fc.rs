//! Fully connected layers and softmax.
//!
//! In the paper's system, FC layers run as software on the embedded ARM
//! processor ("We do not focus on fully connected layers, since it is
//! essentially matrix multiplication"); here they run as host-side Rust,
//! with both a float and an integer-exact quantized path so the end-to-end
//! quantized pipeline stays self-consistent.

use crate::gemm::{gemm_quant_into, GemmScratch, GemmWeights, KernelForms};
use crate::par::{self, ConvPool, Split};
use crate::simd::{self, KernelTier};
use zskip_quant::{Requantizer, Sm8};

/// Float fully connected weights: `w[out][in]` row-major plus bias.
#[derive(Debug, Clone, PartialEq)]
pub struct FcWeights {
    /// Output features.
    pub out_features: usize,
    /// Input features.
    pub in_features: usize,
    /// Weights, `out_features * in_features` entries.
    pub w: Vec<f32>,
    /// Per-output bias.
    pub bias: Vec<f32>,
}

impl FcWeights {
    /// All-zero weights of the given geometry.
    pub fn zeros(out_features: usize, in_features: usize) -> Self {
        FcWeights { out_features, in_features, w: vec![0.0; out_features * in_features], bias: vec![0.0; out_features] }
    }
}

/// Quantized fully connected weights (host-side integer path). A value
/// like [`crate::conv::QuantConvWeights`]: built by
/// [`QuantFcWeights::new`] and never changed afterwards.
#[derive(Debug, Clone)]
pub struct QuantFcWeights {
    /// Output features.
    pub out_features: usize,
    /// Input features.
    pub in_features: usize,
    w: Vec<Sm8>,
    bias_acc: Vec<i64>,
    requant: Requantizer,
    relu: bool,
    /// The forms of `w` the GEMM reads (`crate::gemm`). Not part of the
    /// logical value: ignored by `PartialEq`.
    forms: KernelForms,
}

impl PartialEq for QuantFcWeights {
    fn eq(&self, other: &Self) -> bool {
        self.out_features == other.out_features
            && self.in_features == other.in_features
            && self.w == other.w
            && self.bias_acc == other.bias_acc
            && self.requant == other.requant
            && self.relu == other.relu
    }
}

impl QuantFcWeights {
    /// Builds a quantized FC layer, validating geometry.
    pub fn new(
        out_features: usize,
        in_features: usize,
        w: Vec<Sm8>,
        bias_acc: Vec<i64>,
        requant: Requantizer,
        relu: bool,
    ) -> Self {
        assert_eq!(w.len(), out_features * in_features, "weight count mismatch");
        assert_eq!(bias_acc.len(), out_features, "bias count mismatch");
        QuantFcWeights { out_features, in_features, w, bias_acc, requant, relu, forms: KernelForms::default() }
    }

    /// Quantized weights, `[out][in]` row-major.
    pub fn w(&self) -> &[Sm8] {
        &self.w
    }

    /// Bias in accumulator domain.
    pub fn bias_acc(&self) -> &[i64] {
        &self.bias_acc
    }

    /// Output requantizer.
    pub fn requant(&self) -> Requantizer {
        self.requant
    }

    /// Whether ReLU is fused.
    pub fn relu(&self) -> bool {
        self.relu
    }
}

/// Float FC forward: `out = W x + b`, optional ReLU. Each output is
/// `bias + Σ`, the sum one sequential pass down its row from `-0.0` (what
/// `Iterator::sum` folds from), every step rounded; eight rows
/// accumulate side by side, so their adds' latencies overlap, and runs of
/// rows are split over the host's cores. Neither changes a bit. A sum's
/// order leaves no lanes to vectorize across, so there is no tier: every
/// tier runs this one body, bound by the stream of weights.
pub fn fc_f32(input: &[f32], weights: &FcWeights, relu: bool) -> Vec<f32> {
    fc_f32_split(input, weights, relu, Split::auto())
}

/// Rows of one [`fc_f32`] register block.
const FC_ROWS: usize = 8;

/// [`fc_f32`] with an explicit split of the output rows.
pub(crate) fn fc_f32_split(input: &[f32], weights: &FcWeights, relu: bool, split: Split) -> Vec<f32> {
    assert_eq!(input.len(), weights.in_features, "fc input length mismatch");
    let mut out = vec![0f32; weights.out_features];
    let rows = split.run_len(weights.out_features, weights.in_features);
    par::scoped_map(out.chunks_mut(rows).enumerate(), |(r, run)| {
        let full = run.len() / FC_ROWS * FC_ROWS;
        let (blocks, rest) = run.split_at_mut(full);
        for (b, out) in blocks.chunks_exact_mut(FC_ROWS).enumerate() {
            fc_rows::<FC_ROWS>(input, weights, r * rows + b * FC_ROWS, relu, out);
        }
        for (j, out) in rest.chunks_exact_mut(1).enumerate() {
            fc_rows::<1>(input, weights, r * rows + full + j, relu, out);
        }
    });
    out
}

/// Rows `o..o + R` of [`fc_f32`], each its own sequential sum.
fn fc_rows<const R: usize>(x: &[f32], weights: &FcWeights, o: usize, relu: bool, out: &mut [f32]) {
    let n = x.len();
    let rows: [&[f32]; R] = std::array::from_fn(|r| &weights.w[(o + r) * n..][..n]);
    let mut acc = [-0.0f32; R];
    for (j, &x) in x.iter().enumerate() {
        for (a, row) in acc.iter_mut().zip(&rows) {
            *a += row[j] * x;
        }
    }
    for ((d, &b), a) in out.iter_mut().zip(&weights.bias[o..]).zip(acc) {
        let v = b + a;
        *d = if relu { v.max(0.0) } else { v };
    }
}

/// Integer-exact quantized FC forward.
pub fn fc_quant(input: &[Sm8], weights: &QuantFcWeights) -> Vec<Sm8> {
    let mut out = Vec::new();
    fc_quant_into(input, weights, &mut out);
    out
}

/// [`fc_quant`] writing into a caller-owned vector, refilled in place so
/// its allocation is reused across calls: [`fc_quant_pool_into`] on the
/// calling thread at the process's dispatched tier, with a throwaway
/// workspace.
pub fn fc_quant_into(input: &[Sm8], weights: &QuantFcWeights, out: &mut Vec<Sm8>) {
    fc_quant_pool_into(input, weights, simd::dispatch(), None, &mut GemmScratch::default(), out);
}

/// The tier- and pool-aware FC forward of the scratch-arena inference
/// path: the one-column case of the conv layers' GEMM
/// (`out[o] = requant(bias[o] + W[o] · x)`, `W`'s rows being contiguous
/// along the reduction already), with the input's patch bytes borrowed
/// from `ws` when it has a sign-bit byte (`crate::gemm`, "Patch bytes")
/// and the output rows split over `pool` when one is attached.
/// Allocation-free once `ws` and `out` have grown to the layer's size;
/// bit-identical on every tier and at any worker count.
pub fn fc_quant_pool_into(
    input: &[Sm8],
    weights: &QuantFcWeights,
    tier: KernelTier,
    pool: Option<&ConvPool>,
    ws: &mut GemmScratch,
    out: &mut Vec<Sm8>,
) {
    assert_eq!(input.len(), weights.in_features, "fc input length mismatch");
    out.resize(weights.out_features, Sm8::ZERO);
    let gemm = GemmWeights {
        w: &weights.w,
        len: weights.in_features,
        bias_acc: &weights.bias_acc,
        forms: &weights.forms,
        requant: weights.requant,
        relu: weights.relu,
        compressed: None,
    };
    let (p, gemm) = ws.row_operands(input, gemm);
    gemm_quant_into(tier, pool, gemm, p, 1, out);
}

/// Numerically-stable softmax.
pub fn softmax(input: &[f32]) -> Vec<f32> {
    if input.is_empty() {
        return Vec::new();
    }
    let max = input.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    let exps: Vec<f32> = input.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.iter().map(|&e| e / sum).collect()
}

/// Index of the largest element (top-1 class). Ties break to the lower
/// index. Returns `None` for empty input.
pub fn argmax<T: PartialOrd + Copy>(values: &[T]) -> Option<usize> {
    if values.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, v) in values.iter().enumerate().skip(1) {
        if *v > values[best] {
            best = i;
        }
    }
    Some(best)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The scalar definition of the quantized FC forward — one sign+magnitude
    /// product at a time — kept as the oracle the GEMM form is pinned to.
    pub(crate) fn fc_quant_oracle(input: &[Sm8], weights: &QuantFcWeights) -> Vec<Sm8> {
        assert_eq!(input.len(), weights.in_features, "fc input length mismatch");
        (0..weights.out_features)
            .map(|o| {
                let row = &weights.w[o * weights.in_features..(o + 1) * weights.in_features];
                let acc: i64 = weights.bias_acc[o]
                    + row.iter().zip(input).map(|(w, x)| w.mul_exact(*x) as i64).sum::<i64>();
                if weights.relu {
                    weights.requant.apply_relu(acc)
                } else {
                    weights.requant.apply(acc)
                }
            })
            .collect()
    }

    #[test]
    fn fc_computes_matvec_plus_bias() {
        let mut w = FcWeights::zeros(2, 3);
        w.w = vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        w.bias = vec![0.5, -0.5];
        let out = fc_f32(&[1.0, 1.0, 1.0], &w, false);
        assert_eq!(out, vec![6.5, -0.5]);
        let out_relu = fc_f32(&[1.0, 1.0, 1.0], &w, true);
        assert_eq!(out_relu, vec![6.5, 0.0]);
    }

    #[test]
    fn quant_fc_is_integer_exact() {
        let qw = QuantFcWeights::new(
            2,
            2,
            [3, -2, 1, 4].iter().map(|&v| Sm8::from_i32_saturating(v)).collect(),
            vec![10, -10],
            Requantizer::IDENTITY,
            false,
        );
        let input: Vec<Sm8> = [5, 7].iter().map(|&v| Sm8::from_i32_saturating(v)).collect();
        let out = fc_quant(&input, &qw);
        assert_eq!(out[0].to_i32(), 10 + 3 * 5 - 2 * 7);
        assert_eq!(out[1].to_i32(), -10 + 5 + 28);
    }

    #[test]
    fn quant_fc_matches_the_scalar_oracle_on_every_tier_and_pool_width() {
        // Input lengths around every tier's lane count (and one past an
        // FC-sized row), an odd row count, ReLU both ways; one dirty
        // workspace and output vector across all of it.
        let mut rng = zskip_fault::SplitMix64::new(5);
        let mut sm8s = |n: usize| -> Vec<Sm8> { (0..n).map(|_| Sm8::from_bits(rng.next_u64() as u8)).collect() };
        let pools: Vec<ConvPool> = (1..=4).map(ConvPool::forced).collect();
        let mut ws = GemmScratch::default();
        let mut out = vec![Sm8::MAX; 40];
        for in_features in [1, 7, 8, 31, 33, 100, 4099] {
            for (out_features, relu) in [(1, false), (2, true), (7, true), (7, false)] {
                let qw = QuantFcWeights::new(
                    out_features,
                    in_features,
                    sm8s(out_features * in_features),
                    (0..out_features as i64).map(|o| o * 1000 - 2500).collect(),
                    Requantizer::from_ratio(1.0 / 512.0),
                    relu,
                );
                let input = sm8s(in_features);
                let want = fc_quant_oracle(&input, &qw);
                assert_eq!(fc_quant(&input, &qw), want, "{in_features} -> {out_features}");
                for tier in KernelTier::supported() {
                    for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
                        fc_quant_pool_into(&input, &qw, tier, pool, &mut ws, &mut out);
                        assert_eq!(out, want, "{in_features} -> {out_features}, tier {tier}, pool {pool:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let p = softmax(&[1000.0, 1001.0]);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_empty_is_empty() {
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn argmax_basics() {
        assert_eq!(argmax::<f32>(&[]), None);
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        // Ties break low.
        assert_eq!(argmax(&[5, 5, 1]), Some(0));
    }
}

/// A quantized FC layer is a value: no code outside this crate can write
/// its contents. Each block below assigns or mutably borrows one field of
/// [`QuantFcWeights`], and must fail to compile on that field's privacy
/// (E0616). Stable rustdoc passes a `compile_fail` block on any error, so
/// each has a compiling twin below it that names the same paths and
/// reaches the field through its accessor: a typo or a renamed path fails
/// the twin.
///
/// ```compile_fail,E0616
/// fn edit(q: &mut zskip_nn::fc::QuantFcWeights) {
///     q.w.clear();
/// }
/// ```
///
/// ```
/// fn read(q: &zskip_nn::fc::QuantFcWeights) {
///     q.w().to_vec().clear();
/// }
/// ```
///
/// ```compile_fail,E0616
/// fn edit(q: &mut zskip_nn::fc::QuantFcWeights) {
///     q.bias_acc = vec![0; q.out_features];
/// }
/// ```
///
/// ```
/// fn read(q: &zskip_nn::fc::QuantFcWeights) {
///     let _ = (q.bias_acc(), vec![0; q.out_features]);
/// }
/// ```
///
/// ```compile_fail,E0616
/// fn edit(q: &mut zskip_nn::fc::QuantFcWeights) {
///     let requant = &mut q.requant;
///     requant.mult = 1;
/// }
/// ```
///
/// ```
/// fn read(q: &zskip_nn::fc::QuantFcWeights) {
///     let mut requant = q.requant();
///     requant.mult = 1;
///     let _ = requant;
/// }
/// ```
///
/// ```compile_fail,E0616
/// fn edit(q: &mut zskip_nn::fc::QuantFcWeights) {
///     q.relu = true;
/// }
/// ```
///
/// ```
/// fn read(q: &zskip_nn::fc::QuantFcWeights) {
///     let _: bool = q.relu();
/// }
/// ```
#[cfg(doctest)]
pub struct ImmutableLayer;
