//! Cross-tier bit-exactness: every SIMD kernel tier reachable on the host
//! must reproduce the scalar dense oracle exactly, over random shapes
//! (including non-multiple-of-4 spatial dims that exercise the vector
//! tails), kernel sizes 1/3/5/7, strides 1/2, and densities 0.0–1.0.
//! The pooled (intra-image multithreaded) kernels must match the same
//! oracle at every worker count — panel decomposition never reorders the
//! integer accumulation within an output channel.

use proptest::prelude::*;
use zskip_nn::conv::{conv2d_quant_dense, QuantConvWeights};
use zskip_nn::eltwise::{add_quant_into, add_quant_phase1, add_quant_phase2};
use zskip_nn::fc::QuantFcWeights;
use zskip_nn::eval::synthetic_inputs;
use zskip_nn::gemm::{conv2d_gemm_quant_into, conv2d_gemm_quant_pool, conv2d_gemm_quant_tier, ConvKernel, GemmScratch};
use zskip_nn::par::ConvPool;
use zskip_nn::pool::{maxpool_quant, maxpool_quant_tier_into};
use zskip_nn::simd::{dot_nt, KernelTier, DOT_FLUSH_STEPS};
use zskip_nn::{LayerSpec, Network, NetworkSpec, QuantizedNetwork, Scales, Scratch, SyntheticModelConfig, WeightCode};
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
    let w = synthetic_qw(3, in_c, 3, 1.0, 21, false).w().to_vec();
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
            let want = qw.requant().apply(qw.bias_acc()[o]).to_i32();
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
        let mut w = q.w().to_vec();
        salt(&mut w, 100 + n as u64);
        layer.weights = QuantConvWeights::new(q.out_c, q.in_c, q.k, w, q.bias_acc().to_vec(), q.requant(), q.relu());
    }
    for (n, fc) in qnet.fc.iter_mut().enumerate() {
        let mut w = fc.w().to_vec();
        salt(&mut w, 200 + n as u64);
        *fc = QuantFcWeights::new(fc.out_features, fc.in_features, w, fc.bias_acc().to_vec(), fc.requant(), fc.relu());
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

/// A layer is a value: the forms the kernels derive from its weights —
/// the offset bias, the direct kernel's quad repack, the tile panels and
/// the compressed rows — are built on its first call and belong to it.
/// Three 3x3 layers of an 8-bit net, over a 16x16 plane (direct, and
/// tiles for the 64-channel, 16-filter third) and a 2x2 one (lowered,
/// compressed on the AMX tier), on signed (offset) and ReLU inputs, are
/// run on every tier first; then three kinds of layer that a stale form
/// would give away are held to the dense scan on every tier, inline and
/// on 2 workers: the same net's ternary layers, a clone of each warmed
/// layer, and a layer of each warmed one's geometry, with other weights,
/// built after the warmed one is dropped.
#[test]
fn a_layer_built_after_warm_layers_reads_only_its_own_forms() {
    let conv = |name: &str, in_c, out_c| LayerSpec::Conv { name: name.into(), in_c, out_c, k: 3, stride: 1, pad: 1, relu: true };
    let spec = NetworkSpec {
        name: "t16".into(),
        input: zskip_tensor::Shape::new(3, 16, 16),
        layers: vec![conv("c1", 3, 8), conv("c2", 8, 64), conv("c3", 64, 16)],
    };
    let x = Tensor::from_fn(3, 16, 16, |c, y, x| (((c * 256 + y * 16 + x) as f32) * 0.37).sin());
    let net = Network::synthetic(spec, &SyntheticModelConfig::default());
    let eight = net.quantize(std::slice::from_ref(&x));
    let ternary = net.quantize_ternary(&[x]);
    let inputs = |c: usize| {
        [16, 2].into_iter().flat_map(move |hw| {
            let signed = synthetic_input(c, hw, hw, hw as u64);
            [relu(&signed), signed]
        })
    };
    let pool = ConvPool::new(2);
    let held = |qw: &QuantConvWeights, what: &str| {
        for input in inputs(qw.in_c) {
            let want = conv2d_quant_dense(&input, qw, 1, 1);
            let hw = input.shape().w;
            for tier in KernelTier::supported() {
                assert_eq!(conv2d_gemm_quant_tier(&input, qw, 1, 1, tier), want, "{what}, {hw}x{hw}, tier {tier}");
                assert_eq!(conv2d_gemm_quant_pool(&input, qw, 1, 1, tier, &pool), want, "{what}, {hw}x{hw}, tier {tier}, pool");
            }
        }
    };
    for (layer, tiles) in eight.conv.iter().zip([false, false, true]) {
        let [wide, narrow] = [16, 2].map(|hw| zskip_tensor::Shape::new(layer.weights.in_c, hw, hw));
        let kernel = |s, tier| zskip_nn::gemm::weight_stream(&layer.weights, s, 1, 1, tier).kernel;
        assert_eq!(kernel(wide, KernelTier::Amx), if tiles { ConvKernel::Tiles } else { ConvKernel::Direct });
        assert_eq!(kernel(wide, KernelTier::Avx512), ConvKernel::Direct);
        assert_eq!(kernel(narrow, KernelTier::Amx), ConvKernel::Lowered);
        held(&layer.weights, "the warm call");
    }
    for (layer, t) in eight.conv.iter().zip(&ternary.conv) {
        assert_ne!(layer.weights.w(), t.weights.w());
        held(&t.weights, "the same net's ternary layer");
        held(&layer.weights.clone(), "a clone of a warmed layer");
    }
    for layer in eight.conv {
        let q = layer.weights;
        let ternarized = q.w().iter().map(|w| w.to_i32()).map(|v| if v.abs() > 48 { v.signum() * 64 } else { 0 });
        let w = ternarized.map(Sm8::from_i32_saturating).collect();
        let (out_c, in_c, k, bias, requant, fused) = (q.out_c, q.in_c, q.k, q.bias_acc().to_vec(), q.requant(), q.relu());
        drop(q);
        held(&QuantConvWeights::new(out_c, in_c, k, w, bias, requant, fused), "a layer built after a warmed one was dropped");
    }
}

/// The max-pool's row kernel on every tier against the indexed oracle
/// `maxpool_quant`: k and stride 1–3, every width 1–130 (the vector
/// passes' 64-column steps, their masked tails and the rows a pass packs
/// side by side), heights that leave window rows over (at `k == stride`
/// too, where each plane's leftover rows must be skipped) and that tile
/// the planes (which then run as one plane), on 1 and 3 channels. The
/// inputs cycle through all 256 bit patterns, negative zero and -127
/// included, at a per-shape offset; a zero maximum must come out `+0`,
/// never `0x80`.
#[test]
fn maxpool_rows_match_the_oracle_on_every_tier() {
    let tiers = KernelTier::supported();
    let mut out = Tensor::from_fn(2, 3, 3, |_, _, _| Sm8::from_bits(0x33));
    for k in 1..=3 {
        for stride in 1..=3 {
            for w in k..=130 {
                for (c, h) in [(1, k), (3, 2 * stride + k), (3, 2 * stride + k + 1), (3, 3 * k)] {
                    let input = Tensor::from_fn(c, h, w, |c, y, x| Sm8::from_bits(((c * h + y) * w + x + 7 * w + 3 * k) as u8));
                    let want = maxpool_quant(&input, k, stride);
                    for &tier in &tiers {
                        maxpool_quant_tier_into(&input, k, stride, tier, &mut out);
                        assert_eq!(out, want, "{c}x{h}x{w} k={k} stride={stride} tier {tier}");
                        assert!(out.as_slice().iter().all(|v| v.to_bits() != 0x80), "zero encoded 0x80, tier {tier}");
                    }
                }
            }
        }
    }
}

/// The residual join on every tier against its two-phase definition, on
/// all 256 × 256 operand bit-pattern pairs, ReLU on and off, for every
/// pair of requantizers drawn from ratios 2⁻⁸ to 2⁸, the last ratios
/// whose table fits `i16` (127 · 258 = 32766; 65535 / 2⁸ rounds 127 ·
/// that to 32512) and the first past it (127 · 259 = 32893; 33026 / 2⁷:
/// 32768 exactly), and the multiplier's extremes. A pair with one table
/// past `i16` takes the `i32` path whole.
#[test]
fn residual_join_matches_the_two_phases_on_every_tier() {
    let a = Tensor::from_fn(1, 256, 256, |_, y, _| Sm8::from_bits(y as u8));
    let b = Tensor::from_fn(1, 256, 256, |_, _, x| Sm8::from_bits(x as u8));
    let mut requants: Vec<Requantizer> = [-8, -3, -1, 0, 1, 4, 8].map(|e| Requantizer::from_ratio(2f64.powi(e))).into();
    requants.push(Requantizer::from_ratio(1.37));
    requants.extend([(258, 0), (65535, 8), (259, 0), (33026, 7), (65535, 0), (65535, 63), (1, 1)].map(|(mult, shift)| Requantizer { mult, shift }));
    let bits = |t: &Tensor<Sm8>| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let tiers = KernelTier::supported();
    let (mut acc, mut want, mut got) = (Vec::new(), Tensor::zeros(1, 1, 1), Tensor::from_fn(1, 3, 3, |_, _, _| Sm8::MAX));
    for &ra in &requants {
        add_quant_phase1(&a, ra, &mut acc);
        for &rb in &requants {
            for relu in [false, true] {
                add_quant_phase2(&b, rb, relu, &acc, &mut want);
                let want = bits(&want);
                for &tier in &tiers {
                    add_quant_into(&a, &b, ra, rb, relu, tier, &mut got);
                    assert!(bits(&got) == want, "{ra:?} + {rb:?}, relu {relu}, tier {tier}");
                }
            }
        }
    }
}

/// VGG-16-32 as the CLI builds it, through `forward_quant_scratch` on
/// every tier: the input quantizer, GEMMs, pools and FCs of each tier
/// give the scalar tier's bytes.
#[test]
#[cfg_attr(debug_assertions, ignore = "a VGG-16-32 synthesis and six forward passes: run with --release (scripts/verify.sh does)")]
fn vgg16_network_is_bit_exact_on_every_tier() {
    let spec = zskip_nn::vgg16::vgg16_scaled_spec(32);
    let convs = spec.layers.iter().filter(|l| matches!(l, LayerSpec::Conv { .. })).count();
    let config = SyntheticModelConfig { seed: 1, density: DensityProfile::uniform(convs, 0.35) };
    let calib = synthetic_inputs(2, 1, spec.input);
    let qnet = QuantizedNetwork::synthetic(&spec, &config, Scales::Calibrate(&calib), WeightCode::Int8);
    for input in synthetic_inputs(3, 2, spec.input) {
        let want = qnet.forward_quant_scratch(&input, &mut Scratch::with_tier(KernelTier::Scalar)).to_vec();
        for tier in KernelTier::supported() {
            assert_eq!(qnet.forward_quant_scratch(&input, &mut Scratch::with_tier(tier)), &want[..], "tier {tier}");
        }
    }
}
