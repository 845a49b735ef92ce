//! Robustness and failure injection: striping under extreme bank
//! pressure, minimal FIFO depths, capacity errors, degenerate networks.

use proptest::prelude::*;
use zskip::accel::serve::wire;
use zskip::accel::{AccelConfig, BackendKind, Driver, GroupWeights};
use zskip::hls::AccelArch;
use zskip::json::Json;
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::layer::{conv3x3, maxpool2x2, LayerSpec, NetworkSpec};
use zskip::nn::conv::QuantConvWeights;
use zskip::nn::model::{Network, QuantizedNetwork, SyntheticModelConfig};
use zskip::quant::pack::PackDecodeError;
use zskip::quant::{DensityProfile, Requantizer, Sm8};
use zskip::tensor::{Shape, Tensor};

fn net(input_hw: usize, seed: u64) -> (QuantizedNetwork, Tensor<f32>) {
    let spec = NetworkSpec {
        name: "robust".into(),
        input: Shape::new(3, input_hw, input_hw),
        layers: vec![conv3x3("c1", 3, 8), maxpool2x2("p1"), conv3x3("c2", 8, 8)],
    };
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed, density: DensityProfile::uniform(2, 0.5) },
    );
    let qnet = net.quantize(&synthetic_inputs(seed, 2, spec.input));
    let input = synthetic_inputs(seed ^ 3, 1, spec.input).pop().expect("one");
    (qnet, input)
}

fn config_with(bank_tiles: usize, fifo_depth: usize) -> AccelConfig {
    let base = AccelConfig::from_arch(
        &AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles },
        100.0,
    );
    AccelConfig { fifo_depth, ..base }
}

/// Sweeping bank capacity down to the minimum keeps results bit-exact —
/// the striping planner and the halo bookkeeping never corrupt data.
#[test]
fn extreme_striping_pressure_is_bit_exact() {
    let (qnet, input) = net(16, 1);
    let golden = qnet.forward_quant(&input);
    for bank_tiles in [4096, 256, 64, 40, 24] {
        let driver = Driver::builder(config_with(bank_tiles, 4)).backend(BackendKind::Model).build().unwrap();
        match driver.run_network(&qnet, &input) {
            Ok(report) => assert_eq!(report.output, golden, "bank_tiles={bank_tiles}"),
            Err(e) => panic!("bank_tiles={bank_tiles} should stripe, got {e}"),
        }
    }
}

/// Depth-1 FIFOs throttle throughput but must not deadlock or corrupt —
/// the classic streaming-hardware failure mode.
#[test]
fn depth_one_fifos_complete_without_deadlock() {
    let (qnet, input) = net(8, 2);
    let golden = qnet.forward_quant(&input);
    let fast = Driver::builder(config_with(2048, 4)).backend(BackendKind::Cycle).build().unwrap().run_network(&qnet, &input).expect("runs");
    let slow = Driver::builder(config_with(2048, 1)).backend(BackendKind::Cycle).build().unwrap().run_network(&qnet, &input).expect("runs");
    assert_eq!(fast.output, golden);
    assert_eq!(slow.output, golden);
    // Registered FIFOs sustain one transfer per cycle even at depth 1 when
    // the consumer keeps pace, so depth can only ever add cycles.
    assert!(
        slow.total_cycles >= fast.total_cycles,
        "depth-1 FIFOs may not be faster: {} vs {}",
        slow.total_cycles,
        fast.total_cycles
    );
}

/// Capacity exhaustion surfaces as a structured error naming the layer.
#[test]
fn impossible_capacity_is_a_clean_error() {
    let (qnet, input) = net(16, 3);
    let err = Driver::builder(config_with(4, 4)).backend(BackendKind::Model).build().unwrap().run_network(&qnet, &input).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("stripe") && msg.contains("capacity"), "unhelpful error: {msg}");
}

/// A conv-only network (no pool, no FC) and a pool-only network both run.
#[test]
fn degenerate_layer_mixes_run() {
    let conv_only = NetworkSpec {
        name: "conv-only".into(),
        input: Shape::new(4, 8, 8),
        layers: vec![conv3x3("c", 4, 4)],
    };
    let pool_only = NetworkSpec {
        name: "pool-only".into(),
        input: Shape::new(4, 8, 8),
        layers: vec![maxpool2x2("p")],
    };
    for spec in [conv_only, pool_only] {
        let net = Network::synthetic(spec.clone(), &SyntheticModelConfig::default());
        let qnet = net.quantize(&synthetic_inputs(1, 1, spec.input));
        let input = synthetic_inputs(2, 1, spec.input).pop().expect("one");
        let report = Driver::builder(config_with(2048, 4)).backend(BackendKind::Model).build().unwrap()
            .run_network(&qnet, &input)
            .expect("degenerate net runs");
        assert_eq!(report.output, qnet.forward_quant(&input), "{}", spec.name);
    }
}

/// Single-channel input exercises the staging-unit imbalance path
/// (three of four units idle).
#[test]
fn single_input_channel_is_correct_despite_imbalance() {
    let spec = NetworkSpec {
        name: "mono".into(),
        input: Shape::new(1, 12, 12),
        layers: vec![conv3x3("c", 1, 8)],
    };
    let net = Network::synthetic(spec.clone(), &SyntheticModelConfig::default());
    let qnet = net.quantize(&synthetic_inputs(4, 1, spec.input));
    let input = synthetic_inputs(5, 1, spec.input).pop().expect("one");
    for backend in [BackendKind::Model, BackendKind::Cycle] {
        let report = Driver::builder(config_with(2048, 4)).backend(backend).build().unwrap().run_network(&qnet, &input).expect("runs");
        assert_eq!(report.output, qnet.forward_quant(&input));
    }
}

/// 1x1 kernels (a degenerate weight tile with one occupied slot) work.
#[test]
fn one_by_one_kernels_work() {
    let spec = NetworkSpec {
        name: "1x1".into(),
        input: Shape::new(4, 8, 8),
        layers: vec![LayerSpec::Conv { name: "pw".into(), in_c: 4, out_c: 6, k: 1, stride: 1, pad: 0, relu: true }],
    };
    let net = Network::synthetic(spec.clone(), &SyntheticModelConfig::default());
    let qnet = net.quantize(&synthetic_inputs(6, 1, spec.input));
    let input = synthetic_inputs(7, 1, spec.input).pop().expect("one");
    for backend in [BackendKind::Model, BackendKind::Cycle] {
        let report = Driver::builder(config_with(2048, 4)).backend(backend).build().unwrap().run_network(&qnet, &input).expect("runs");
        assert_eq!(report.output, qnet.forward_quant(&input));
    }
}

/// Odd, non-multiple-of-4 spatial dims through conv + overlapping pool —
/// regression for the round-up-region contamination bug.
#[test]
fn odd_dims_with_overlapping_pool_are_bit_exact() {
    let spec = NetworkSpec {
        name: "odd".into(),
        input: Shape::new(3, 19, 23),
        layers: vec![
            conv3x3("c1", 3, 8),
            LayerSpec::MaxPool { name: "p1".into(), k: 3, stride: 2 },
            conv3x3("c2", 8, 8),
        ],
    };
    let net = Network::synthetic(spec.clone(), &SyntheticModelConfig::default());
    let qnet = net.quantize(&synthetic_inputs(8, 2, spec.input));
    let input = synthetic_inputs(9, 1, spec.input).pop().expect("one");
    for backend in [BackendKind::Model, BackendKind::Cycle] {
        let report = Driver::builder(config_with(2048, 4)).backend(backend).build().unwrap().run_network(&qnet, &input).expect("runs");
        assert_eq!(report.output, qnet.forward_quant(&input));
    }
}

/// Kernel sizes 2 and 4 (the full range a 4x4 weight tile admits) run
/// bit-exactly on both backends.
#[test]
fn kernel_sizes_two_and_four_are_bit_exact() {
    for (k, pad) in [(2usize, 1usize), (4, 2)] {
        let spec = NetworkSpec {
            name: format!("k{k}"),
            input: Shape::new(3, 12, 12),
            layers: vec![LayerSpec::Conv {
                name: format!("c{k}"),
                in_c: 3,
                out_c: 6,
                k,
                stride: 1,
                pad,
                relu: true,
            }],
        };
        let net = Network::synthetic(spec.clone(), &SyntheticModelConfig::default());
        let qnet = net.quantize(&synthetic_inputs(k as u64, 1, spec.input));
        let input = synthetic_inputs(k as u64 + 9, 1, spec.input).pop().expect("one");
        for backend in [BackendKind::Model, BackendKind::Cycle] {
            let report = Driver::builder(config_with(4096, 4)).backend(backend).build().unwrap().run_network(&qnet, &input).expect("runs");
            assert_eq!(report.output, qnet.forward_quant(&input), "k={k} {backend:?}");
        }
    }
}

/// Unsupported geometries are typed errors, not panics.
#[test]
fn unsupported_geometry_is_a_typed_error() {
    for (k, stride, needle) in [(5usize, 1usize, "weight tile"), (3, 2, "stride")] {
        let spec = NetworkSpec {
            name: "bad".into(),
            input: Shape::new(3, 16, 16),
            layers: vec![LayerSpec::Conv {
                name: "c".into(),
                in_c: 3,
                out_c: 4,
                k,
                stride,
                pad: 0,
                relu: false,
            }],
        };
        let net = Network::synthetic(spec.clone(), &SyntheticModelConfig::default());
        let qnet = net.quantize(&synthetic_inputs(1, 1, spec.input));
        let input = synthetic_inputs(2, 1, spec.input).pop().expect("one");
        let err = Driver::builder(config_with(4096, 4)).backend(BackendKind::Model).build().unwrap()
            .run_network(&qnet, &input)
            .unwrap_err();
        assert!(err.to_string().contains(needle), "{err}");
    }
}

/// A value too wide for its instruction field is a typed error naming the
/// layer and the field — on the model backend, which used to compute a
/// wrong output from the wrapped field, and on the cpu backend, whose
/// stats pass used to charge cycles for the truncated stream.
#[test]
fn geometry_wider_than_an_instruction_field_is_a_typed_error() {
    let conv = |out_c, pad| LayerSpec::Conv { name: "c".into(), in_c: 3, out_c, k: 1, stride: 1, pad, relu: true };
    let cases = [
        (Shape::new(3, 4, 4), conv(65_540, 0), "ofm_first = 65536"),
        (Shape::new(3, 2, 2), conv(4, 256), "pad = 256"),
        (Shape::new(1, 300, 300), LayerSpec::MaxPool { name: "c".into(), k: 300, stride: 300 }, "k = 300"),
    ];
    for (input, layer, needle) in cases {
        let spec = NetworkSpec { name: "wide".into(), input, layers: vec![layer] };
        let net = Network::synthetic(spec.clone(), &SyntheticModelConfig::default());
        let qnet = net.quantize(&synthetic_inputs(1, 1, spec.input));
        let input = synthetic_inputs(2, 1, spec.input).pop().expect("one");
        for backend in [BackendKind::Model, BackendKind::Cpu] {
            let driver = Driver::builder(config_with(32_768, 4)).backend(backend).build().unwrap();
            let err = driver.run_network(&qnet, &input).unwrap_err();
            assert!(err.to_string().contains("layer c") && err.to_string().contains(needle), "{backend:?}: {err}");
            assert_eq!(zskip::Error::from(err).code(), "driver.unsupported", "{backend:?}");
        }
    }
}

/// `GroupWeights::from_bytes` on `bytes`: a decode error, or a group whose
/// stream is a prefix of the input and whose every tile reads back inside
/// it.
fn group_parse_never_panics(
    bytes: &[u8],
    ifm_count: usize,
    lanes: usize,
) -> Result<Result<(), PackDecodeError>, String> {
    let group = match GroupWeights::from_bytes(bytes, ifm_count, lanes) {
        Ok(group) => group,
        Err(e) => return Ok(Err(e)),
    };
    if !bytes.starts_with(group.as_bytes()) || group.as_bytes().len() != group.total_bytes() {
        return Err(format!("{} stream bytes are not a prefix of the input", group.total_bytes()));
    }
    let (mut walked, mut nnz) = (0, 0);
    for ifm in 0..ifm_count {
        for lane in 0..lanes {
            let tile = group.lane_tile(ifm, lane);
            if tile.nnz() > 16 || tile.nnz() > group.steps(ifm) || tile.entries().any(|e| e.offset > 15) {
                return Err(format!("tile ({ifm}, {lane}) holds an entry the reader should have refused"));
            }
            walked += tile.byte_len();
            nnz += tile.entries().len();
        }
        if group.ifm_bytes(ifm) != (0..lanes).map(|l| group.lane_tile(ifm, l).byte_len()).sum::<usize>() {
            return Err(format!("ifm {ifm}: ifm_bytes disagrees with its tiles"));
        }
    }
    if (walked, nnz) != (group.total_bytes(), group.total_nnz()) {
        return Err(format!("tiles cover {walked} bytes / {nnz} weights of {}", group.total_bytes()));
    }
    Ok(Ok(()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bytes, every truncation and every single bit-flip of a
    /// valid group image never panic the scratchpad stream reader or index
    /// out of range, whatever group shape it is told to expect.
    #[test]
    fn arbitrary_bytes_never_panic_the_weight_stream_reader(
        bytes in prop::collection::vec(prop_oneof![0u8..=17, 0u8..=255], 0..96),
        claimed in (0usize..6, 0usize..=4),
        out_c in 1usize..=5,
        in_c in 1usize..=4,
        k in 1usize..=3,
        lanes in 1usize..=4,
        seed in 0u64..10_000,
    ) {
        let verdict = group_parse_never_panics(&bytes, claimed.0, claimed.1);
        prop_assert!(verdict.is_ok(), "{verdict:?}: {bytes:?} as {claimed:?}");

        let w = (0..out_c * in_c * k * k)
            .map(|i| {
                let h = (i as u64 + 1).wrapping_mul(seed | 1).wrapping_add(seed >> 3);
                if h.is_multiple_of(3) { Sm8::ZERO } else { Sm8::from_i32_saturating((h % 255) as i32 - 127) }
            })
            .collect();
        let qw = QuantConvWeights::new(out_c, in_c, k, w, vec![0; out_c], Requantizer::IDENTITY, false);
        let group = GroupWeights::from_filters(&qw, 0, lanes);
        let image = group.as_bytes();
        prop_assert_eq!(group_parse_never_panics(image, in_c, lanes), Ok(Ok(())));
        for cut in 0..image.len() {
            let verdict = group_parse_never_panics(&image[..cut], in_c, lanes);
            prop_assert_eq!(verdict, Ok(Err(PackDecodeError::Truncated)), "cut at {} of {}", cut, image.len());
        }
        let mut flipped = image.to_vec();
        for bit in 0..image.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let verdict = group_parse_never_panics(&flipped, in_c, lanes);
            prop_assert!(verdict.is_ok(), "{verdict:?}: bit {bit} of {image:?}");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

/// What a hostile client sends most of: JSON punctuation, the wire
/// protocol's own field names, and fragments that start a string, an
/// escape, a surrogate pair or an out-of-range number and never finish.
const WIRE_TOKENS: [&str; 24] = [
    "{", "}", "[", "]", ":", ",", "\"op\"", "\"infer\"", "\"stats\"", "\"shutdown\"", "\"id\"", "\"seed\"",
    "\"image\"", "0", "-", "1e999", "18446744073709551616", "0.5", "null", "true", "\"", "\\u", "\\ud800", " ",
];

/// `Json::parse` and `wire::parse_request` on `text`: a value / request, or
/// an error with an offset inside the input / one of the two wire codes.
fn parse_never_panics(text: &str) -> Result<(), String> {
    if let Err(e) = Json::parse(text) {
        if e.offset > text.len() {
            return Err(format!("JSON error offset {} past the {}-byte input", e.offset, text.len()));
        }
    }
    if let Err(e) = wire::parse_request(text) {
        let code = zskip::Error::from(e.error).code();
        if code != "serve.protocol" && code != "serve.bad-request" {
            return Err(format!("wire error carries code {code}"));
        }
    }
    Ok(())
}

proptest! {
    /// Arbitrary strings, and arbitrary bytes through `from_utf8_lossy`
    /// (the daemon's own decoding of a line), never panic either parser.
    #[test]
    fn arbitrary_text_never_panics_the_json_and_wire_parsers(
        bytes in prop::collection::vec(0u8..=255, 0..64),
        tokens in prop::collection::vec(0usize..WIRE_TOKENS.len(), 0..48),
    ) {
        // Raw bytes rarely get past the first character; token soup does.
        let soup: String = tokens.iter().map(|&t| WIRE_TOKENS[t]).collect();
        for text in [String::from_utf8_lossy(&bytes).into_owned(), soup] {
            let verdict = parse_never_panics(&text);
            prop_assert!(verdict.is_ok(), "{verdict:?}: {text:?}");
        }
    }
}

/// Nesting depth and line length, up to the longest line the daemon
/// buffers: an error (or a value), not a stack overflow or a stall.
#[test]
fn deep_nesting_and_long_lines_never_panic_the_json_and_wire_parsers() {
    let n = wire::MAX_LINE_BYTES;
    let started = std::time::Instant::now();
    for text in [
        "[".repeat(n),
        "{\"a\":".repeat(n / 5),
        format!("{}{}", "[".repeat(n / 2), "]".repeat(n / 2)),
        format!("{{\"op\":\"infer\",\"id\":1,\"image\":{}1{}}}", "[".repeat(n / 4), "]".repeat(n / 4)),
        format!("\"{}\"", "a".repeat(n - 2)),
        format!("\"{}", "\u{e9}".repeat(n / 2)),
        format!("{{\"op\":\"infer\",\"id\":\"{}\",\"seed\":1}}", "x".repeat(n / 2)),
        "1".repeat(n),
        format!("-0.{}e-{}", "9".repeat(n / 2), "9".repeat(n / 4)),
        format!("[{}1]", "1,".repeat(n / 2 - 2)),
        " ".repeat(n),
    ] {
        parse_never_panics(&text).unwrap_or_else(|why| panic!("{why} ({} bytes)", text.len()));
    }
    assert!(started.elapsed().as_secs() < 60, "a 4 MiB line must parse in time linear in its length");
}
