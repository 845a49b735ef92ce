//! Cross-tier bit-exactness: every SIMD kernel tier reachable on the host
//! must reproduce the scalar dense oracle exactly, over random shapes
//! (including non-multiple-of-4 spatial dims that exercise the vector
//! tails), kernel sizes 1/3/5/7, strides 1/2, and densities 0.0–1.0.
//! The pooled (intra-image multithreaded) kernels must match the same
//! oracle at every worker count — panel decomposition never reorders the
//! integer accumulation within an output channel.

use proptest::prelude::*;
use zskip_nn::conv::{conv2d_quant_dense, QuantConvWeights};
use zskip_nn::eval::synthetic_inputs;
use zskip_nn::gemm::{conv2d_gemm_quant_into, conv2d_gemm_quant_pool, conv2d_gemm_quant_tier, ConvKernel, GemmScratch};
use zskip_nn::par::ConvPool;
use zskip_nn::simd::{dot_nt, KernelTier, DOT_FLUSH_STEPS};
use zskip_nn::{LayerSpec, Network, NetworkSpec, Scratch, SyntheticModelConfig};
use zskip_quant::{DensityProfile, Requantizer, Sm8};
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

/// `x` with its negative values zeroed.
fn relu(x: &Tensor<Sm8>) -> Tensor<Sm8> {
    let s = x.shape();
    Tensor::from_fn(s.c, s.h, s.w, |c, y, i| Sm8::from_i32_saturating(x[(c, y, i)].to_i32().max(0)))
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
        // Every third input is a ReLU output's: patch bytes without the
        // +128 offset the signed ones take.
        let input = synthetic_input(in_c, h, w, seed);
        let input = if seed % 3 == 0 { relu(&input) } else { input };
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    // The draws above are too small for the AMX tiles (whole 16-filter
    // tiles, 64-channel reduction steps, 16 positions): the same check on
    // layers that reach them, 1x1 and 3x3, at 4x4 to 8x8 and stride 1 or
    // 2, with signed (offset) and ReLU inputs.
    #[test]
    fn tile_shaped_layers_are_bit_exact_at_every_worker_count(
        filter_tiles in 1usize..4,
        channel_steps in 1usize..3,
        h in 4usize..9,
        w in 4usize..9,
        k_idx in 0usize..2,
        stride in 1usize..3,
        workers in 1usize..5,
        density_ppt in 0u64..=1000,
        seed in 0u64..1000,
    ) {
        let (k, in_c) = ([1usize, 3][k_idx], 64 * channel_steps);
        let qw = synthetic_qw(16 * filter_tiles, in_c, k, density_ppt as f64 / 1000.0, seed, seed % 2 == 0);
        let input = synthetic_input(in_c, h, w, seed);
        let input = if seed % 3 == 0 { relu(&input) } else { input };
        let oracle = conv2d_quant_dense(&input, &qw, stride, k / 2);
        let pool = ConvPool::new(workers);
        let mut ws = dirty_workspace();
        let mut out = Tensor::zeros(1, 1, 1);
        for tier in KernelTier::supported() {
            conv2d_gemm_quant_into(&input, &qw, stride, k / 2, tier, Some(&pool), &mut ws, &mut out);
            prop_assert_eq!(&oracle, &out, "tier {}, {} workers", tier, workers);
        }
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
    // docs/KERNELS.md "Intra-image threads"), 131 us a run. These pointwise
    // layers are all per-output work. Lowered (every tier but AVX-512): 48
    // MACs a nanosecond plus 5 ns an output, so 51 200 outputs stay one run
    // on any pool, 53 792 make two, 105 800 make four on a pool that wide.
    // Direct (AVX-512, which runs all of these): 320 MACs a nanosecond plus
    // half a nanosecond an output, so 500 000 outputs stay one run, 524 288
    // make two and 1 048 576 four.
    let cases = [(8, 80, 2), (8, 82, 2), (8, 82, 3), (8, 115, 7), (8, 250, 2), (8, 256, 2), (16, 256, 4)];
    for (out_c, hw, workers) in cases {
        let qw = synthetic_qw(out_c, 1, 1, 0.7, hw as u64, true);
        let input = synthetic_input(1, hw, hw, 9);
        pooled_kernels_match_the_dense_oracle(&qw, &input, &ConvPool::new(workers));
    }
}

#[test]
fn gemm_reduction_longer_than_one_i32_chunk_is_bit_exact_on_every_tier() {
    // Fully dense 3x3 filters over enough input channels that the
    // reduction outruns one i32 chunk of the widest tier (DOT_FLUSH_STEPS
    // steps of 64 bytes) by a ragged tail: the mid-reduction i32 -> i64
    // flush, the tail step and the final flush all run — several times
    // over on the narrower tiers, the scalar one included (it shares the
    // blocking) — and must lose or double-count nothing.
    let in_c = DOT_FLUSH_STEPS * 64 / 9 + 3;
    assert!(in_c * 9 > DOT_FLUSH_STEPS * 64 && !(in_c * 9).is_multiple_of(64));
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

/// `n` weight or activation bytes in which the values a decode can get
/// wrong are common: an eighth each of `0`, negative zero `0x80`, `+127`
/// and `-127`, the other half any bit pattern.
fn edge_heavy_sm8(n: usize, seed: u64) -> Vec<Sm8> {
    let mut rng = zskip_fault::SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let h = rng.next_u64();
            match h % 8 {
                0 => Sm8::ZERO,
                1 => Sm8::NEG_ZERO,
                2 => Sm8::MAX,
                3 => Sm8::MIN,
                _ => Sm8::from_bits((h >> 32) as u8),
            }
        })
        .collect()
}

/// Every finished sum of [`dot_nt`] at `dims`, row-major.
fn dot_sums(tier: KernelTier, w: &[Sm8], p: &[u8], dims: [usize; 3]) -> Vec<i64> {
    let [rows, cols, _] = dims;
    let mut out = vec![0i64; rows * cols];
    dot_nt(tier, w, p, dims, |i, j, [mr, nr], sums| {
        for (a, sums) in sums.iter().enumerate().take(mr) {
            for (b, &sum) in sums.iter().enumerate().take(nr) {
                out[(i + a) * cols + j + b] = sum;
            }
        }
    });
    out
}

#[test]
fn vgg16_32_deepest_shapes_are_bit_exact_on_every_tier() {
    // The GEMMs of VGG-16-32's conv4_2 (512 -> 512 at 4x4), a conv5_x
    // layer (2x2: four patch columns) and fc7 (4096 x 4096), at their real
    // reduction lengths, on weights full of the decode's edge values and
    // patch bytes full of the operand range's (0, 127, 128 and 255: the
    // same generator's bit patterns). The raw sums are compared, not
    // requantized outputs, which saturation and rounding would let a wrong
    // sum hide in.
    for (what, [rows, cols, len]) in
        [("conv4_2", [512, 16, 4608]), ("conv5_x", [512, 4, 4608]), ("fc7", [4096, 1, 4096])]
    {
        let w = edge_heavy_sm8(rows * len, 1);
        let p: Vec<u8> = edge_heavy_sm8(cols * len, 2).iter().map(|v| v.to_bits()).collect();
        let want = dot_sums(KernelTier::Scalar, &w, &p, [rows, cols, len]);
        for tier in KernelTier::supported() {
            assert!(dot_sums(tier, &w, &p, [rows, cols, len]) == want, "{what} sums, tier {tier}");
        }
    }
}

#[test]
fn resnet18_network_is_bit_exact_on_every_tier() {
    // The whole `specs/resnet18.json` DAG as the CLI builds it, with edge
    // values salted into every conv and FC layer's weights.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/resnet18.json");
    let spec = NetworkSpec::from_json(&std::fs::read_to_string(path).expect("spec file")).expect("valid spec");
    let convs = spec.layers.iter().filter(|l| matches!(l, LayerSpec::Conv { .. })).count();
    let config = SyntheticModelConfig { seed: 1, density: DensityProfile::uniform(convs, 0.35) };
    let mut qnet = Network::synthetic(spec.clone(), &config).quantize(&synthetic_inputs(2, 1, spec.input));
    let salt = |w: &mut [Sm8], seed: u64| {
        let edges = edge_heavy_sm8(w.len(), seed);
        for (w, e) in w.iter_mut().zip(edges).step_by(5) {
            *w = e;
        }
    };
    for (n, layer) in qnet.conv.iter_mut().enumerate() {
        let q = &layer.weights;
        let mut w = q.w.clone();
        salt(&mut w, 100 + n as u64);
        layer.weights = QuantConvWeights::new(q.out_c, q.in_c, q.k, w, q.bias_acc.clone(), q.requant, q.relu);
    }
    for (n, fc) in qnet.fc.iter_mut().enumerate() {
        salt(&mut fc.w, 200 + n as u64);
    }
    for input in synthetic_inputs(7, 2, spec.input) {
        let want = qnet.forward_quant_scratch(&input, &mut Scratch::with_tier(KernelTier::Scalar)).to_vec();
        for tier in KernelTier::supported() {
            assert_eq!(qnet.forward_quant_scratch(&input, &mut Scratch::with_tier(tier)), &want[..], "tier {tier}");
        }
    }
}

/// `n` weights, each non-zero with probability `density` (any magnitude
/// but zero, either sign), else a zero that is `0x00` or negative zero
/// `0x80` alike: the compressed stream must count both as zeros.
fn weights_with_negative_zeros(n: usize, density: f64, seed: u64) -> Vec<Sm8> {
    let mut rng = zskip_fault::SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let h = rng.next_u64();
            if ((h >> 16) % 1000) as f64 >= density * 1000.0 {
                if h & 1 == 0 { Sm8::ZERO } else { Sm8::NEG_ZERO }
            } else {
                Sm8::from_bits((h >> 40) as u8 | 1)
            }
        })
        .collect()
}

/// The lowered layers of the AMX tier — fewer than 16 output columns, or
/// channels that are not whole 64-channel steps — read their weights
/// compressed (docs/KERNELS.md, "Compressed weight stream"). Held to the
/// dense scan bit for bit at density 0, sparse and 1.0 with negative
/// zeros among the zeros; at reduction lengths short of one group (27),
/// of whole groups (64, 4608) and ragged (333, 1152 + 9); on offset
/// (signed) and ReLU inputs; over filter counts that leave every row
/// remainder of the four-row step (1, 2, 3, 5, 7); inline and on 2
/// workers, which cut the widest layer in two. One dirty workspace
/// throughout.
#[test]
fn compressed_rows_are_bit_exact_at_every_density_and_length() {
    if !KernelTier::Amx.is_supported() {
        return;
    }
    let pool = ConvPool::new(2);
    let mut ws = dirty_workspace();
    let mut out = Tensor::zeros(1, 1, 1);
    // (in_c, k, h, w, pad): 2x2 to 4x5 planes, none reaching the tiles or
    // the direct kernel.
    let layers = [(3, 3, 4, 5, 1), (64, 1, 2, 2, 0), (37, 3, 4, 4, 1), (129, 3, 3, 3, 1), (512, 3, 2, 2, 1)];
    let mut seed = 0;
    for (in_c, k, h, w, pad) in layers {
        // 250 filters of the widest layer are worth two runs on the pool
        // (docs/KERNELS.md, "Intra-image threading": 250 · 4608 · 6 / 48
        // ns), each 125 rows: a four-row remainder of one.
        let wide = if in_c == 512 { &[250][..] } else { &[] };
        for &out_c in [1, 2, 3, 5, 7].iter().chain(wide) {
            for density in [0.0, 0.3, 1.0] {
                for signed in [false, true] {
                    seed += 1;
                    let wv = weights_with_negative_zeros(out_c * in_c * k * k, density, seed);
                    let bias = (0..out_c as i64).map(|o| o * 37 - 60).collect();
                    let qw = QuantConvWeights::new(out_c, in_c, k, wv, bias, Requantizer::from_ratio(1.0 / 512.0), !signed);
                    let input = synthetic_input(in_c, h, w, seed);
                    let input = if signed { input } else { relu(&input) };
                    let stream = zskip_nn::gemm::weight_stream(&qw, input.shape(), 1, pad, KernelTier::Amx);
                    assert_eq!(stream.kernel, ConvKernel::Lowered, "{in_c}x{h}x{w}, k {k}");
                    let want = conv2d_quant_dense(&input, &qw, 1, pad);
                    for pool in [None, Some(&pool)] {
                        conv2d_gemm_quant_into(&input, &qw, 1, pad, KernelTier::Amx, pool, &mut ws, &mut out);
                        let what = format!("{out_c} filters, {in_c}x{h}x{w}, k {k}, density {density}, signed {signed}");
                        assert_eq!(out, want, "{what}, pool {}", pool.is_some());
                    }
                }
            }
        }
    }
}

/// The compressed rows are a cache of the weights, like every derived
/// form: after a warm call on the AMX tier, the layer's weights are
/// ternarized in place. Until `invalidate_caches` the lowered GEMM still
/// reads the rows it compressed — the old weights' output — and after
/// it, the new weights'.
#[test]
fn ternarizing_after_a_warm_call_needs_invalidate_caches_to_drop_the_compressed_rows() {
    if !KernelTier::Amx.is_supported() {
        return;
    }
    let mut qw = synthetic_qw(32, 512, 3, 0.29, 11, true);
    let input = relu(&synthetic_input(512, 2, 2, 11));
    let old = conv2d_quant_dense(&input, &qw, 1, 1);
    let pool = ConvPool::new(2);
    let (mut ws, mut out) = (GemmScratch::default(), Tensor::zeros(1, 1, 1));
    conv2d_gemm_quant_into(&input, &qw, 1, 1, KernelTier::Amx, Some(&pool), &mut ws, &mut out);
    assert_eq!(out, old, "warm call");
    for w in &mut qw.w {
        let v = w.to_i32();
        *w = if v.abs() > 48 { Sm8::from_i32_saturating(v.signum() * 64) } else { Sm8::ZERO };
    }
    let new = conv2d_quant_dense(&input, &qw, 1, 1);
    assert_ne!(new, old, "ternarizing moved no output");
    conv2d_gemm_quant_into(&input, &qw, 1, 1, KernelTier::Amx, Some(&pool), &mut ws, &mut out);
    assert_eq!(out, old, "before invalidate_caches: the rows compressed from the old weights");
    qw.invalidate_caches();
    conv2d_gemm_quant_into(&input, &qw, 1, 1, KernelTier::Amx, Some(&pool), &mut ws, &mut out);
    assert_eq!(out, new, "after invalidate_caches: the ternary weights");
}
