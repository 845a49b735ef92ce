//! Cross-tier bit-exactness: every SIMD kernel tier reachable on the host
//! must reproduce the scalar dense oracle exactly, over random shapes
//! (including non-multiple-of-4 spatial dims that exercise the vector
//! tails), kernel sizes 1/3/5/7, strides 1/2, and densities 0.0–1.0.
//! The pooled (intra-image multithreaded) kernels must match the same
//! oracle at every worker count — panel decomposition never reorders the
//! integer accumulation within an output channel.

use proptest::prelude::*;
use zskip_nn::conv::{conv2d_quant_dense, QuantConvWeights};
use zskip_nn::gemm::{conv2d_gemm_quant_into, conv2d_gemm_quant_pool, conv2d_gemm_quant_tier, GemmScratch};
use zskip_nn::par::ConvPool;
use zskip_nn::simd::{KernelTier, DOT_FLUSH_STEPS};
use zskip_quant::{Requantizer, Sm8};
use zskip_tensor::Tensor;

/// Seeded weights with a target fraction of nonzero taps, drawn from the
/// workspace-wide `SplitMix64` stream.
fn synthetic_qw(out_c: usize, in_c: usize, k: usize, density: f64, seed: u64, relu: bool) -> QuantConvWeights {
    let mut rng = zskip_fault::SplitMix64::new(seed);
    QuantConvWeights::new(
        out_c,
        in_c,
        k,
        (0..out_c * in_c * k * k)
            .map(|_| {
                let h = rng.next_u64();
                if ((h >> 16) % 1000) as f64 >= density * 1000.0 {
                    Sm8::ZERO
                } else {
                    Sm8::from_i32_saturating(((h >> 40) % 255) as i32 - 127)
                }
            })
            .collect(),
        (0..out_c as i64).map(|o| o * 17 - 40).collect(),
        Requantizer::from_ratio(1.0 / 8.0),
        relu,
    )
}

/// A GEMM workspace left dirty by a larger, fully dense layer: nothing of
/// it may show in a later layer's output.
fn dirty_workspace() -> GemmScratch {
    let mut ws = GemmScratch::default();
    let qw = synthetic_qw(2, 4, 3, 1.0, 5, false);
    conv2d_gemm_quant_into(&synthetic_input(4, 20, 20, 5), &qw, 1, 1, KernelTier::Scalar, None, &mut ws, &mut Tensor::zeros(1, 1, 1));
    ws
}

fn synthetic_input(in_c: usize, h: usize, w: usize, seed: u64) -> Tensor<Sm8> {
    Tensor::from_fn(in_c, h, w, |c, y, x| {
        Sm8::from_i32_saturating((((c * 131 + y * 17 + x * 3) as u64 ^ seed) % 255) as i32 - 127)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn conv_tiers_are_bit_exact_vs_dense_oracle(
        out_c in 1usize..4,
        in_c in 1usize..4,
        h in 3usize..13, // deliberately crosses non-multiple-of-4 sizes
        w in 3usize..19, // and non-multiple-of-8/16 rows (SIMD tails)
        k_idx in 0usize..4,
        stride in 1usize..3,
        pad in 0usize..3,
        density_ppt in 0u64..=1000, // permille: spans 0.0..=1.0 density
        seed in 0u64..1000,
    ) {
        let k = [1usize, 3, 5, 7][k_idx];
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let qw = synthetic_qw(out_c, in_c, k, density_ppt as f64 / 1000.0, seed, seed % 2 == 0);
        let input = synthetic_input(in_c, h, w, seed);
        let oracle = conv2d_quant_dense(&input, &qw, stride, pad);
        let mut ws = dirty_workspace();
        let mut out = Tensor::zeros(1, 1, 1);
        for tier in KernelTier::supported() {
            conv2d_gemm_quant_into(&input, &qw, stride, pad, tier, None, &mut ws, &mut out);
            prop_assert_eq!(&oracle, &out, "tier {} diverged from dense oracle", tier);
        }
    }

    // The drawn layers are far too small to be worth a worker's wake-up,
    // so every pool runs them inline; the test after this block takes the
    // same check to layers a pool does cut.
    #[test]
    fn pooled_kernels_are_bit_exact_at_every_worker_count(
        out_c in 1usize..6,
        in_c in 1usize..4,
        h in 3usize..11,
        w in 3usize..15,
        k_idx in 0usize..3,
        workers in 1usize..8,
        density_ppt in 0u64..=1000,
        seed in 0u64..1000,
    ) {
        let k = [1usize, 3, 5][k_idx];
        prop_assume!(h + 2 * (k / 2) >= k && w + 2 * (k / 2) >= k);
        let qw = synthetic_qw(out_c, in_c, k, density_ppt as f64 / 1000.0, seed, seed % 2 == 0);
        pooled_kernels_match_the_dense_oracle(&qw, &synthetic_input(in_c, h, w, seed), &ConvPool::new(workers));
    }
}

/// `qw` over `input` on `pool`, on every tier, against the dense oracle.
fn pooled_kernels_match_the_dense_oracle(qw: &QuantConvWeights, input: &Tensor<Sm8>, pool: &ConvPool) {
    let pad = qw.k / 2;
    let oracle = conv2d_quant_dense(input, qw, 1, pad);
    let mut ws = dirty_workspace();
    let mut out = Tensor::zeros(1, 1, 1);
    for tier in KernelTier::supported() {
        let workers = pool.threads();
        let shape = input.shape();
        let what = format!("{}x{}, tier {tier}, {workers} workers", shape.h, shape.w);
        conv2d_gemm_quant_into(input, qw, 1, pad, tier, Some(pool), &mut ws, &mut out);
        assert_eq!(oracle, out, "pooled kernel on a dirty workspace, {what}");
        let gemm = conv2d_gemm_quant_pool(input, qw, 1, pad, tier, pool);
        assert_eq!(oracle, gemm, "pooled gemm kernel, {what}");
        let single = conv2d_gemm_quant_tier(input, qw, 1, pad, tier);
        assert_eq!(oracle, single, "gemm kernel, {what}");
    }
}

#[test]
fn pooled_kernels_are_bit_exact_on_each_side_of_the_split_threshold() {
    // A pool cuts a layer into runs by its estimated time (`ConvPool::new`,
    // docs/KERNELS.md "Intra-image threads"): 32 MACs a nanosecond plus 6 ns
    // an output, 131 us a run. These pointwise layers are all epilogue:
    // 39 200 outputs stay one run on any pool, 45 000 make two, 89 888
    // make four on a pool that wide.
    for (hw, workers) in [(70, 2), (75, 2), (75, 3), (106, 7)] {
        let qw = synthetic_qw(8, 1, 1, 0.7, hw as u64, true);
        let input = synthetic_input(1, hw, hw, 9);
        pooled_kernels_match_the_dense_oracle(&qw, &input, &ConvPool::new(workers));
    }
}

#[test]
fn gemm_reduction_longer_than_one_i32_chunk_is_bit_exact_on_every_tier() {
    // Fully dense 3x3 filters over enough input channels that the
    // reduction outruns one i32 chunk of the widest tier (DOT_FLUSH_STEPS
    // steps of 32 lanes) by a ragged tail: the mid-reduction i32 -> i64
    // flush, the tail step and the final flush all run — several times
    // over on the narrower tiers, the scalar one included (it shares the
    // blocking) — and must lose or double-count nothing.
    let in_c = DOT_FLUSH_STEPS * 32 / 9 + 3;
    assert!(in_c * 9 > DOT_FLUSH_STEPS * 32 && !(in_c * 9).is_multiple_of(32));
    // Requantized finely enough that the ~1e6-sized sums do not all
    // saturate: a lost or doubled chunk has to show in the output.
    let w = synthetic_qw(3, in_c, 3, 1.0, 21, false).w;
    let qw = QuantConvWeights::new(3, in_c, 3, w, vec![40_000, -9, 0], Requantizer::from_ratio(1.0 / 32768.0), false);
    let input = synthetic_input(in_c, 4, 5, 21);
    let oracle = conv2d_quant_dense(&input, &qw, 1, 0);
    let unsaturated = oracle.as_slice().iter().filter(|v| v.to_i32().abs() < 127).count();
    assert!(unsaturated * 2 > oracle.as_slice().len(), "only {unsaturated} outputs short of saturation");
    let pool = ConvPool::new(2);
    for tier in KernelTier::supported() {
        assert_eq!(oracle, conv2d_gemm_quant_tier(&input, &qw, 1, 0, tier), "tier {tier}");
        assert_eq!(oracle, conv2d_gemm_quant_pool(&input, &qw, 1, 0, tier, &pool), "pooled, tier {tier}");
    }
}

#[test]
fn all_zero_weights_yield_bias_only_output_on_every_tier() {
    // Regression: a layer whose filters are entirely zero must still emit
    // the requantized bias on every tier (and nothing of the dirty
    // workspace or of another output channel).
    let qw = QuantConvWeights::new(
        3,
        2,
        3,
        vec![Sm8::ZERO; 3 * 2 * 3 * 3],
        vec![5, -9, 127],
        Requantizer::IDENTITY,
        false,
    );
    let input = synthetic_input(2, 6, 7, 99);
    let mut ws = dirty_workspace();
    let mut out = Tensor::zeros(1, 1, 1);
    for tier in KernelTier::supported() {
        conv2d_gemm_quant_into(&input, &qw, 1, 1, tier, None, &mut ws, &mut out);
        for o in 0..3usize {
            let want = qw.requant.apply(qw.bias_acc[o]).to_i32();
            for &v in out.channel(o) {
                assert_eq!(v.to_i32(), want, "tier {tier}, channel {o}");
            }
        }
    }
}

#[test]
fn reused_scratch_buffers_do_not_leak_between_layers() {
    // The same (workspace, out) pair driven through two layers of different
    // geometry must give the same answers as fresh buffers — guards the
    // reset/reshape discipline the arena relies on.
    let qw_a = synthetic_qw(4, 2, 3, 0.6, 7, true);
    let qw_b = synthetic_qw(2, 4, 1, 0.9, 8, false);
    let input_a = synthetic_input(2, 9, 9, 1);
    let mut ws = dirty_workspace();
    let mut out = Tensor::zeros(1, 1, 1);
    for tier in KernelTier::supported() {
        conv2d_gemm_quant_into(&input_a, &qw_a, 1, 1, tier, None, &mut ws, &mut out);
        let mid = out.clone();
        assert_eq!(mid, conv2d_quant_dense(&input_a, &qw_a, 1, 1), "tier {tier} layer A");
        // Feed layer A's output into layer B using the same buffers.
        let mut out_b = Tensor::zeros(1, 1, 1);
        conv2d_gemm_quant_into(&mid, &qw_b, 2, 0, tier, None, &mut ws, &mut out_b);
        assert_eq!(out_b, conv2d_quant_dense(&mid, &qw_b, 2, 0), "tier {tier} layer B");
    }
}
