//! Cross-backend differential harness: the Model, Cycle and Cpu backends
//! must be interchangeable. Model and Cpu are two names for one path (the
//! golden walk plus the memoized report of a stats-only staged walk), so
//! the comparisons that mean something are that path against the cycle
//! engine and against the golden operators.
//!
//! * **Outputs**: bit-identical to each other and to the software golden
//!   model (`forward_quant`) on random `NetworkSpec`s — and the golden
//!   model, whose plan walk the driver shares, to a plan-free interpreter.
//! * **Statistics**: Cycle agrees with the closed-form model within the
//!   documented tolerance, and its DDR byte counts are equal.
//! * **Memoized statistics**: the memo key must separate every
//!   configuration knob that moves a statistic and every layer name the
//!   report carries (the replay itself is held to an uncached walk in
//!   `exec::cpu`'s unit tests).
//! * **Transient faults**: the staged pipeline issues the same DMA
//!   descriptor sequence on every backend, and DMA fault detection is
//!   value-independent — an injected `dma:*` fault must surface as the
//!   same structured error everywhere.

use proptest::prelude::*;
use zskip::accel::{
    AccelConfig, BackendKind, DriverError, Error, InferenceReport, PassStats, Placement, PoolPadOp,
    Session, SessionBuilder, SocHandle,
};
use zskip::fault::{FaultKind, FaultPlan, FiredFault};
use zskip::hls::AccelArch;
use zskip::nn::conv::conv2d_quant_dense;
use zskip::nn::eltwise::{add_quant, global_avgpool_quant_into};
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::fc::fc_quant;
use zskip::nn::layer::{conv3x3, maxpool2x2, LayerSpec, NetworkSpec};
use zskip::nn::model::{Network, QuantizedNetwork, SyntheticModelConfig};
use zskip::nn::pool::maxpool_quant;
use zskip::quant::{DensityProfile, Sm8};
use zskip::soc::dma::DmaError;
use zskip::tensor::{Shape, Tensor, TiledFeatureMap};

fn config(bank_tiles: usize, instances: usize) -> AccelConfig {
    AccelConfig::from_arch(&AccelArch { conv_units: 4, lanes: 4, instances, bank_tiles }, 100.0)
}

fn tiny_spec() -> NetworkSpec {
    NetworkSpec {
        name: "tiny".into(),
        input: Shape::new(3, 12, 12),
        layers: vec![
            conv3x3("c1", 3, 6),
            maxpool2x2("p1"),
            conv3x3("c2", 6, 9),
            maxpool2x2("p2"),
            LayerSpec::Fc { name: "fc".into(), in_features: 9 * 3 * 3, out_features: 5, relu: false },
        ],
    }
}

fn quantized(density: f64, seed: u64) -> (QuantizedNetwork, Tensor<f32>) {
    let spec = tiny_spec();
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed, density: DensityProfile::uniform(2, density) },
    );
    let calib = synthetic_inputs(seed ^ 1, 2, spec.input);
    let qnet = net.quantize(&calib);
    let input = synthetic_inputs(seed ^ 2, 1, spec.input).pop().expect("one input");
    (qnet, input)
}

/// A random small network: 1-3 padded conv layers with random channel
/// counts and kernel sizes, optionally pooled, optionally FC-capped.
fn network_strategy() -> impl Strategy<Value = NetworkSpec> {
    let conv = (1usize..=3, 2usize..=8, prop::bool::ANY);
    (
        8usize..=19,                 // input h/w
        1usize..=3,                  // input channels
        prop::collection::vec(conv, 1..=3),
        prop::bool::ANY,             // pool after first conv
        prop::bool::ANY,             // fc head
    )
        .prop_map(|(hw, in_c, convs, pool, fc)| {
            let mut layers = Vec::new();
            let mut c = in_c;
            for (i, (k, out_c, relu)) in convs.into_iter().enumerate() {
                layers.push(LayerSpec::Conv {
                    name: format!("c{i}"),
                    in_c: c,
                    out_c,
                    k,
                    stride: 1,
                    pad: k / 2,
                    relu,
                });
                c = out_c;
                if i == 0 && pool && hw >= 8 {
                    layers.push(LayerSpec::MaxPool { name: "p".into(), k: 2, stride: 2 });
                }
            }
            let mut spec = NetworkSpec { name: "rand".into(), input: Shape::new(in_c, hw, hw), layers };
            if fc {
                if let Ok(shapes) = spec.shapes() {
                    let s = shapes.last().copied().expect("non-empty");
                    spec.layers.push(LayerSpec::Fc {
                        name: "fc".into(),
                        in_features: s.c * s.h * s.w,
                        out_features: 4,
                        relu: false,
                    });
                }
            }
            spec
        })
        .prop_filter("kernel must fit every intermediate map", |spec| spec.shapes().is_ok())
}

/// Builds one residual block: `w_in -> w_out` with an optional
/// downsampling maxpool and 1x1-projection skip, optional batch-norm
/// (folded into the convs at quantization time).
fn push_residual_block(
    layers: &mut Vec<LayerSpec>,
    b: usize,
    w_in: usize,
    w_out: usize,
    bn: bool,
    down: bool,
    join_relu: bool,
) {
    let conv = |name: String, in_c: usize, out_c: usize, k: usize, relu: bool| LayerSpec::Conv {
        name,
        in_c,
        out_c,
        k,
        stride: 1,
        pad: k / 2,
        relu,
    };
    // `block_in` is the layer whose output both branches consume (or the
    // network input when the block opens the network).
    let block_in = match layers.len() {
        0 => zskip::nn::LayerRef::Input,
        n => zskip::nn::LayerRef::Layer(n - 1),
    };
    if down {
        layers.push(LayerSpec::MaxPool { name: format!("b{b}_pool"), k: 2, stride: 2 });
    }
    layers.push(conv(format!("b{b}_c1"), w_in, w_out, 3, !bn));
    if bn {
        layers.push(LayerSpec::BatchNorm { name: format!("b{b}_bn1"), relu: true });
    }
    layers.push(conv(format!("b{b}_c2"), w_out, w_out, 3, false));
    if bn {
        layers.push(LayerSpec::BatchNorm { name: format!("b{b}_bn2"), relu: false });
    }
    if down || w_in != w_out {
        // Projection skip: re-open the block input, mirror the pooling,
        // project to the new width with a 1x1 conv.
        let main_end = zskip::nn::LayerRef::Layer(layers.len() - 1);
        layers.push(LayerSpec::Ref { name: format!("b{b}_skip"), from: block_in });
        if down {
            layers.push(LayerSpec::MaxPool { name: format!("b{b}_skip_pool"), k: 2, stride: 2 });
        }
        layers.push(conv(format!("b{b}_proj"), w_in, w_out, 1, false));
        if bn {
            layers.push(LayerSpec::BatchNorm { name: format!("b{b}_proj_bn"), relu: false });
        }
        layers.push(LayerSpec::Add { name: format!("b{b}_add"), from: main_end, relu: join_relu });
    } else {
        layers.push(LayerSpec::Add { name: format!("b{b}_add"), from: block_in, relu: join_relu });
    }
}

/// A random residual (DAG) network: stem conv, 1-2 residual blocks
/// (identity joins, or a downsampling block whose skip branch is a
/// maxpool + 1x1 projection), optional batch-norm everywhere, optional
/// global-average-pool + FC head.
fn dag_network_strategy() -> impl Strategy<Value = NetworkSpec> {
    (
        (
            8usize..=14, // input h/w
            1usize..=3,  // input channels
            2usize..=5,  // block width
            1usize..=2,  // residual blocks
        ),
        (
            prop::bool::ANY, // batch-norm
            prop::bool::ANY, // downsample + project in the last block
            prop::bool::ANY, // gap + fc head
            prop::bool::ANY, // relu at the joins
        ),
    )
        .prop_map(|((hw, in_c, w, blocks), (bn, down, head, join_relu))| {
            let mut layers = vec![LayerSpec::Conv {
                name: "stem".into(),
                in_c,
                out_c: w,
                k: 3,
                stride: 1,
                pad: 1,
                relu: !bn,
            }];
            if bn {
                layers.push(LayerSpec::BatchNorm { name: "stem_bn".into(), relu: true });
            }
            let mut width = w;
            for b in 0..blocks {
                let last = b + 1 == blocks;
                let w_out = if last && down { width * 2 } else { width };
                push_residual_block(&mut layers, b, width, w_out, bn, last && down, join_relu);
                width = w_out;
            }
            if head {
                layers.push(LayerSpec::GlobalAvgPool { name: "gap".into() });
                layers.push(LayerSpec::Fc {
                    name: "fc".into(),
                    in_features: width,
                    out_features: 4,
                    relu: false,
                });
            }
            NetworkSpec { name: "rand-dag".into(), input: Shape::new(in_c, hw, hw), layers }
        })
        .prop_filter("every shape must fit", |spec| spec.shapes().is_ok())
}

fn quantize_spec(spec: &NetworkSpec, density: f64, seed: u64) -> (QuantizedNetwork, Tensor<f32>) {
    let conv_count = spec.conv_layers().len();
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed, density: DensityProfile::uniform(conv_count, density) },
    );
    let qnet = net.quantize(&synthetic_inputs(seed ^ 1, 1, spec.input));
    let input = synthetic_inputs(seed ^ 2, 1, spec.input).pop().expect("one");
    (qnet, input)
}

/// Every observable of two reports must agree: the output, the totals,
/// and per layer every `PassStats` field down to each activity counter.
fn assert_same_report(got: &InferenceReport, want: &InferenceReport, what: &str) {
    assert_eq!(got.output, want.output, "{what}: output");
    assert_eq!(got.total_cycles, want.total_cycles, "{what}: total_cycles");
    assert_eq!(got.ddr_bytes, want.ddr_bytes, "{what}: ddr_bytes");
    assert_eq!(got.layers.len(), want.layers.len(), "{what}: layer count");
    for (g, w) in got.layers.iter().zip(&want.layers) {
        assert_same_stats(&g.stats, &w.stats, &format!("{what}: layer {}", w.name));
    }
}

/// Every `PassStats` field, down to each activity counter.
fn assert_same_stats(g: &PassStats, w: &PassStats, what: &str) {
    assert_eq!(g.per_instance_cycles, w.per_instance_cycles, "{what}");
    assert_eq!(g.compute_cycles, w.compute_cycles, "{what}");
    assert_eq!(g.io_dma_cycles, w.io_dma_cycles, "{what}");
    assert_eq!(g.weight_dma_cycles, w.weight_dma_cycles, "{what}");
    assert_eq!(g.total_cycles, w.total_cycles, "{what}");
    assert_eq!(g.stripes, w.stripes, "{what}");
    assert_eq!(g.striping_factor.to_bits(), w.striping_factor.to_bits(), "{what}");
    assert_eq!(g.counters.iter().collect::<Vec<_>>(), w.counters.iter().collect::<Vec<_>>(), "{what}");
}

/// The single-layer entry points on every backend: on a conv over a
/// pre-padded input, a pad and a max-pool — under tiny banks, so every
/// pass is striped — the model, cpu and cycle outputs all equal the
/// golden operator's (`conv2d_quant_dense`, the pad, `maxpool_quant`),
/// and every `PassStats` field of a cpu driver's pass a model driver's.
#[test]
fn cpu_single_layer_passes_equal_the_model_backend() {
    let (qnet, _) = quantized(0.5, 99);
    let qw = &qnet.conv[0].weights;
    let input = Tensor::from_fn(3, 24, 24, |c, y, x| Sm8::from_i32_saturating(((c * 7 + y * 3 + x) % 41) as i32 - 20));
    let raw = TiledFeatureMap::from_tensor(&input);
    let padded = TiledFeatureMap::from_tensor(&input.padded(1));
    let golden = [
        conv2d_quant_dense(&input, qw, 1, 1),
        input.padded(1),
        maxpool_quant(&input, 2, 2),
    ]
    .map(|t| TiledFeatureMap::from_tensor(&t));
    let passes = |backend| {
        let session = Session::builder(config(32, 1)).backend(backend).build().expect("valid config");
        let (d, soc) = (session.driver(), &mut SocHandle::new());
        [
            d.conv_pass("c", &padded, qw, Shape::new(qw.out_c, 24, 24), soc),
            d.poolpad_pass("p", &raw, PoolPadOp::Pad { amount: 1 }, Shape::new(3, 26, 26), soc),
            d.poolpad_pass("m", &raw, PoolPadOp::MaxPool { k: 2, stride: 2 }, Shape::new(3, 12, 12), soc),
        ]
        .map(|pass| pass.expect("fits"))
    };
    let [model, cycle, cpu] = [BackendKind::Model, BackendKind::Cycle, BackendKind::Cpu].map(passes);
    for (i, (((m_fm, m_stats), (y_fm, y_stats)), (c_fm, c_stats))) in model.into_iter().zip(cycle).zip(cpu).enumerate() {
        let what = ["conv", "pad", "pool"][i];
        assert_eq!(m_fm, golden[i], "{what}: model vs golden");
        assert_eq!(y_fm, golden[i], "{what}: cycle vs golden");
        assert_eq!(c_fm, golden[i], "{what}: cpu vs golden");
        assert!(c_stats.stripes > 1, "{what}: striped");
        assert_eq!(y_stats.stripes, m_stats.stripes, "{what}: cycle stripes");
        assert_same_stats(&c_stats, &m_stats, what);
    }
}

/// A session records one stats-only report and replays it while its key
/// — every knob that moves a statistic, the network's weights and spec,
/// the input shape — stays the same, on the session and on the clones
/// that share its record. Per knob below (each differs from the base in
/// exactly one field) one cpu session records and replays, each run equal
/// to a fresh model session's walk, and the knob really moves a
/// statistic. Then on one session another network (the same weights
/// under renamed layers) replaces the record and hands it back — a key
/// blind to names would replay a stale record into the other's run —
/// and on another `infer` and image-placed batches take turns on the
/// two-instance driver and its single-instance view.
#[test]
fn stats_memo_key_separates_every_knob_that_moves_a_statistic() {
    let (qnet, input) = quantized(0.5, 4242);
    let with = |f: fn(&mut AccelConfig)| {
        let mut cfg = config(20, 1);
        f(&mut cfg);
        cfg
    };
    type Knob = fn(SessionBuilder) -> SessionBuilder;
    let plain: Knob = |b| b;
    let variants: [(&str, AccelConfig, Knob); 8] = [
        ("base", config(20, 1), plain),
        ("instances", config(20, 2), plain),
        ("bank_tiles", config(4096, 1), plain),
        ("zero_skipping", config(20, 1), |b| b.zero_skipping(false)),
        ("filter_grouping", config(20, 1), |b| b.filter_grouping(true)),
        ("units", with(|c| c.units = 2), plain),
        ("lanes", with(|c| c.lanes = 2), plain),
        ("weight_bytes_per_cycle", with(|c| c.weight_bytes_per_cycle = 4), plain),
    ];
    let mut base: Option<InferenceReport> = None;
    for (knob, cfg, apply) in variants {
        let build = |backend| apply(Session::builder(cfg).backend(backend)).build().expect("valid config");
        let model = build(BackendKind::Model).infer(&qnet, &input).expect("fits");
        let cpu = build(BackendKind::Cpu);
        for pass in ["record", "replay"] {
            assert_same_report(&cpu.infer(&qnet, &input).expect("fits"), &model, &format!("{knob} ({pass})"));
        }
        match &base {
            None => base = Some(model),
            // The knob really moves something, or this row proves nothing.
            Some(b) => {
                let stats = |r: &InferenceReport| format!("{:?}", r.layers.iter().map(|l| &l.stats).collect::<Vec<_>>());
                assert_ne!(stats(&model), stats(b), "{knob} changes no statistic on this network");
            }
        }
    }
    // The report carries layer names, so two specs that differ only in
    // names each read their own, in turn on one session.
    let mut renamed = qnet.clone();
    for layer in &mut renamed.spec.layers {
        if let LayerSpec::Conv { name, .. } | LayerSpec::MaxPool { name, .. } | LayerSpec::Fc { name, .. } = layer {
            name.insert_str(0, "renamed_");
        }
    }
    let cpu = Session::builder(config(20, 1)).backend(BackendKind::Cpu).build().expect("valid config");
    for net in [&qnet, &renamed, &qnet] {
        let report = cpu.infer(net, &input).expect("fits");
        let names: Vec<&str> = report.layers.iter().map(|l| l.name.as_str()).collect();
        let want: Vec<&str> = net.spec.layers.iter().map(LayerSpec::name).collect();
        assert_eq!(names, want, "each spec reports its own layer names");
    }
    // `infer` runs the two-instance driver, an image-placed batch its
    // single-instance view.
    let two = |backend| {
        let builder = Session::builder(config(20, 2)).backend(backend).placement(Placement::Image);
        builder.build().expect("valid config")
    };
    let batch = |session: &Session| session.run_batch(&qnet, std::slice::from_ref(&input)).expect("fits").items.remove(0);
    let model = two(BackendKind::Model);
    let (on_two, on_view) = (model.infer(&qnet, &input).expect("fits"), batch(&model));
    assert_ne!(on_two.layers[0].stats.per_instance_cycles, on_view.layers[0].stats.per_instance_cycles);
    let cpu = two(BackendKind::Cpu);
    for pass in ["record", "replay"] {
        assert_same_report(&cpu.infer(&qnet, &input).expect("fits"), &on_two, &format!("two instances ({pass})"));
        assert_same_report(&batch(&cpu), &on_view, &format!("single-instance view ({pass})"));
    }
}

proptest! {
    // The cycle backend is ~100x slower; fewer cases, smaller nets.
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// All three backends produce bit-identical outputs on random specs.
    #[test]
    fn all_three_backends_agree_on_random_specs(
        hw in 6usize..=10,
        out_c in 2usize..=6,
        k in 1usize..=3,
        density in 0.2f64..1.0,
        seed in 0u64..1_000,
    ) {
        let spec = NetworkSpec {
            name: "rand3".into(),
            input: Shape::new(2, hw, hw),
            layers: vec![LayerSpec::Conv {
                name: "c".into(),
                in_c: 2,
                out_c,
                k,
                stride: 1,
                pad: k / 2,
                relu: true,
            }],
        };
        prop_assume!(spec.shapes().is_ok());
        let (qnet, input) = quantize_spec(&spec, density, seed);
        let cfg = config(1024, 1);
        let golden = qnet.forward_quant(&input);
        for backend in BackendKind::ALL {
            let report = Session::builder(cfg).backend(backend).build().unwrap().infer(&qnet, &input).expect("fits");
            prop_assert_eq!(&report.output, &golden, "backend {}", backend);
        }
    }

    /// All three backends on small random residual blocks: bit-identical
    /// outputs, and per-layer structure/work statistics agree everywhere
    /// (cycle counts are pinned exactly between Model and Cpu only — the
    /// cycle-exact engine has its own documented tolerance).
    #[test]
    fn all_three_backends_agree_on_dag_specs(
        hw in 6usize..=8,
        w in 2usize..=3,
        bn in prop::bool::ANY,
        down in prop::bool::ANY,
        density in 0.2f64..1.0,
        seed in 0u64..1_000,
    ) {
        let mut layers = vec![LayerSpec::Conv {
            name: "stem".into(), in_c: 2, out_c: w, k: 3, stride: 1, pad: 1, relu: true,
        }];
        push_residual_block(&mut layers, 0, w, if down { w * 2 } else { w }, bn, down, true);
        let spec = NetworkSpec { name: "dag3".into(), input: Shape::new(2, hw, hw), layers };
        prop_assume!(spec.shapes().is_ok());
        let (qnet, input) = quantize_spec(&spec, density, seed);
        let cfg = config(1024, 1);
        let golden = qnet.forward_quant(&input);
        let reports: Vec<_> = BackendKind::ALL
            .iter()
            .map(|&b| Session::builder(cfg).backend(b).build().unwrap().infer(&qnet, &input).expect("fits"))
            .collect();
        let (model, cycle, cpu) = (&reports[0], &reports[1], &reports[2]);
        for (r, b) in reports.iter().zip(BackendKind::ALL) {
            prop_assert_eq!(&r.output, &golden, "backend {}", b);
            prop_assert_eq!(r.layers.len(), model.layers.len(), "backend {}", b);
            for (l, m) in r.layers.iter().zip(&model.layers) {
                prop_assert_eq!(&l.name, &m.name, "backend {}", b);
                prop_assert_eq!(l.stats.stripes, m.stats.stripes, "backend {}", b);
                prop_assert_eq!(
                    l.stats.counters.get("macs"), m.stats.counters.get("macs"),
                    "backend {} layer {}", b, &l.name
                );
            }
        }
        prop_assert_eq!(cpu.total_cycles, model.total_cycles);
        prop_assert_eq!(cpu.ddr_bytes, model.ddr_bytes);
        prop_assert_eq!(cycle.ddr_bytes, model.ddr_bytes);
    }
}

/// A fixed residual network (downsampling block, projection skip, folded
/// batch-norm) for the fault-equivalence test below.
fn residual_fixture(seed: u64) -> (QuantizedNetwork, Tensor<f32>) {
    let mut layers = vec![LayerSpec::Conv {
        name: "stem".into(), in_c: 2, out_c: 3, k: 3, stride: 1, pad: 1, relu: true,
    }];
    push_residual_block(&mut layers, 0, 3, 3, true, false, true);
    push_residual_block(&mut layers, 1, 3, 6, true, true, true);
    let spec = NetworkSpec { name: "res-fixture".into(), input: Shape::new(2, 12, 12), layers };
    quantize_spec(&spec, 0.6, seed)
}

/// The DAG plan walk must not change fault equivalence: on a residual
/// network, one injected DMA fault surfaces as the same structured error
/// on every backend.
#[test]
fn transient_dma_faults_surface_identically_on_dag_networks() {
    let (qnet, input) = residual_fixture(21);
    assert_dma_faults_surface_identically(&qnet, &input);
}

/// One image on `backend` with a `kind` fault injected at `dma:xfer`
/// ordinal `at`: its result and the plan's fired log.
fn faulted_run(
    backend: BackendKind,
    qnet: &QuantizedNetwork,
    input: &Tensor<f32>,
    at: u64,
    kind: FaultKind,
) -> (Result<(), Error>, Vec<FiredFault>) {
    let plan = FaultPlan::new().inject("dma:xfer", at, kind).shared();
    let session = Session::builder(config(4096, 1))
        .backend(backend)
        .fault_plan(plan.clone())
        .build()
        .expect("valid config");
    let result = session.infer(qnet, input).map(|_| ());
    let fired = plan.lock().unwrap().fired().to_vec();
    (result, fired)
}

/// Each fault kind at the first descriptors and at the image's last one
/// (one below the first ordinal a fault no longer reaches): the same
/// error value — `Truncated { moved, expected }`, `Parity { tile }` — and
/// the same fired log on every backend.
fn assert_dma_faults_surface_identically(qnet: &QuantizedNetwork, input: &Tensor<f32>) {
    let truncate = FaultKind::DmaTruncate { tiles: 1 };
    let total = (0u64..)
        .find(|&at| faulted_run(BackendKind::Model, qnet, input, at, truncate).0.is_ok())
        .expect("finite descriptor sequence");
    assert!(total > 7, "ordinal 7 is reached, got {total} descriptors");
    for (kind, want_code) in [(truncate, "dma.truncated"), (FaultKind::DmaCorrupt { xor: 0x40 }, "dma.parity")] {
        for at in [0, 2, 7, total - 1] {
            let runs = BackendKind::ALL.map(|backend| faulted_run(backend, qnet, input, at, kind));
            for (backend, (result, fired)) in BackendKind::ALL.iter().zip(&runs) {
                let err = result.as_ref().expect_err("the fault fires");
                assert!(err.is_transient(), "{backend}: DMA faults are transient");
                assert_eq!(err.code(), want_code, "{backend}: fault {kind:?} at {at}");
                let dma = match err {
                    Error::Driver(DriverError::Dma(dma)) => dma,
                    other => panic!("{backend}: expected a DMA error, got {other:?}"),
                };
                assert!(matches!(dma, DmaError::Truncated { moved: 1, .. } | DmaError::Parity { tile: 0 }), "{dma:?}");
                assert_eq!(fired.len(), 1, "{backend}: exactly one fault fired");
                assert_eq!(fired[0].at, at, "{backend}");
            }
            for (backend, run) in BackendKind::ALL.iter().zip(&runs).skip(1) {
                assert_eq!(run, &runs[0], "{backend} vs {}: fault {kind:?} at {at}", BackendKind::ALL[0]);
            }
        }
    }
}

/// The cycle backend simulates a pass one engine run per instruction and
/// hands the runs to `threads` workers. Which worker ran which
/// instruction must show nowhere: the whole report — output, totals, every
/// layer's `PassStats` and counters, DDR bytes — is that of one thread, on
/// a shrunk VGG stack (a ragged group, one-position layers) and on the
/// ResNet-18 DAG, and with two instances, whose `split_groups` halves go
/// through the same path.
#[test]
fn cycle_backend_report_does_not_depend_on_the_thread_count() {
    let vgg = NetworkSpec {
        name: "vgg-shrunk".into(),
        input: Shape::new(3, 16, 16),
        layers: vec![
            conv3x3("c1_1", 3, 8),
            conv3x3("c1_2", 8, 8),
            maxpool2x2("p1"),
            conv3x3("c2_1", 8, 16),
            conv3x3("c2_2", 16, 14),
            maxpool2x2("p2"),
            conv3x3("c3_1", 14, 32),
            maxpool2x2("p3"),
            conv3x3("c4_1", 32, 32),
            LayerSpec::Fc { name: "fc".into(), in_features: 32 * 2 * 2, out_features: 5, relu: false },
        ],
    };
    let resnet18 = format!("{}/specs/resnet18.json", env!("CARGO_MANIFEST_DIR"));
    let resnet18 = NetworkSpec::from_json(&std::fs::read_to_string(resnet18).expect("the in-repo spec"));
    for spec in [vgg, resnet18.expect("a valid spec")] {
        let (qnet, input) = quantize_spec(&spec, 0.4, 7);
        for instances in [1, 2] {
            let run = |threads| {
                Session::builder(config(4096, instances))
                    .backend(BackendKind::Cycle)
                    .threads(threads)
                    .build()
                    .expect("valid config")
                    .infer(&qnet, &input)
                    .expect("runs")
            };
            let want = run(1);
            assert_eq!(want.output, qnet.forward_quant(&input), "{}", spec.name);
            for threads in [2, 3] {
                let what = format!("{}, {instances} instance(s), {threads} threads", spec.name);
                assert_same_report(&run(threads), &want, &what);
            }
        }
    }
}

#[test]
fn every_backend_matches_software_reference_bit_exact() {
    let (qnet, input) = quantized(0.6, 11);
    let golden = qnet.forward_quant(&input);
    for backend in BackendKind::ALL {
        let report = Session::builder(config(4096, 1)).backend(backend).build().unwrap().infer(&qnet, &input).expect("runs");
        assert_eq!(report.output, golden, "backend {backend}");
        assert!(report.total_cycles > 0);
        assert!(report.ddr_bytes > 0);
        assert_eq!(report.conv_layers().count(), 2);
    }
}

#[test]
fn model_and_cycle_backends_agree_on_cycles_within_tolerance() {
    let (qnet, input) = quantized(0.4, 33);
    let model = Session::builder(config(4096, 1)).backend(BackendKind::Model).build().unwrap().infer(&qnet, &input).unwrap();
    let cycle = Session::builder(config(4096, 1)).backend(BackendKind::Cycle).build().unwrap().infer(&qnet, &input).unwrap();
    assert_eq!(model.output, cycle.output, "functional equality");
    let diff = model.total_cycles.abs_diff(cycle.total_cycles) as f64;
    assert!(
        diff <= 0.03 * cycle.total_cycles as f64 + 400.0,
        "model {} vs cycle {}",
        model.total_cycles,
        cycle.total_cycles
    );
}

#[test]
fn striping_preserves_results_on_every_backend() {
    let (qnet, input) = quantized(0.7, 44);
    let golden = qnet.forward_quant(&input);
    for backend in [BackendKind::Model, BackendKind::Cpu] {
        // Tiny banks: forces multiple stripes per layer.
        let striped = Session::builder(config(20, 1)).backend(backend).build().unwrap().infer(&qnet, &input).unwrap();
        assert_eq!(striped.output, golden, "backend {backend}");
        let roomy = Session::builder(config(8192, 1)).backend(backend).build().unwrap().infer(&qnet, &input).unwrap();
        let stripes_tight: usize = striped.layers.iter().map(|l| l.stats.stripes).sum();
        let stripes_roomy: usize = roomy.layers.iter().map(|l| l.stats.stripes).sum();
        assert!(stripes_tight > stripes_roomy, "{stripes_tight} vs {stripes_roomy}");
        // Halo re-fetch shows up as striping factor > 1 on conv layers.
        assert!(striped.conv_layers().any(|l| l.stats.striping_factor > 1.01));
    }
}

#[test]
fn two_instances_cut_compute_on_striped_layers() {
    let (qnet, input) = quantized(1.0, 55);
    for backend in [BackendKind::Model, BackendKind::Cpu] {
        let one = Session::builder(config(20, 1)).backend(backend).build().unwrap().infer(&qnet, &input).unwrap();
        let two = Session::builder(config(20, 2)).backend(backend).build().unwrap().infer(&qnet, &input).unwrap();
        assert_eq!(two.output, qnet.forward_quant(&input));
        let c1: u64 = one.conv_layers().map(|l| l.stats.compute_cycles).sum();
        let c2: u64 = two.conv_layers().map(|l| l.stats.compute_cycles).sum();
        assert!(c2 < c1, "scale-out must reduce busiest-instance compute: {c2} vs {c1}");
    }
}

#[test]
fn filter_grouping_keeps_results_and_not_slower() {
    let (qnet, input) = quantized(0.3, 66);
    for backend in [BackendKind::Model, BackendKind::Cpu] {
        let plain = Session::builder(config(4096, 1)).backend(backend).build().unwrap();
        let grouped =
            Session::builder(config(4096, 1)).backend(backend).filter_grouping(true).build().unwrap();
        let a = plain.infer(&qnet, &input).unwrap();
        let b = grouped.infer(&qnet, &input).unwrap();
        assert_eq!(a.output, b.output, "grouping must not change results ({backend})");
        let ca: u64 = a.conv_layers().map(|l| l.stats.compute_cycles).sum();
        let cb: u64 = b.conv_layers().map(|l| l.stats.compute_cycles).sum();
        assert!(cb <= ca + ca / 50, "grouping should not slow down: {cb} vs {ca}");
    }
}

#[test]
fn pruned_network_runs_faster_than_dense() {
    let (dense, input) = quantized(1.0, 77);
    let (pruned, _) = quantized(0.3, 77);
    for backend in [BackendKind::Model, BackendKind::Cpu] {
        let session = Session::builder(config(4096, 1)).backend(backend).build().unwrap();
        let d = session.infer(&dense, &input).unwrap();
        let p = session.infer(&pruned, &input).unwrap();
        let cd: u64 = d.conv_layers().map(|l| l.stats.compute_cycles).sum();
        let cp: u64 = p.conv_layers().map(|l| l.stats.compute_cycles).sum();
        assert!(cp < cd, "zero-skipping must help: pruned {cp} vs dense {cd}");
    }
}

#[test]
fn layer_too_large_is_reported_identically() {
    let (qnet, input) = quantized(1.0, 88);
    for backend in BackendKind::ALL {
        let err = Session::builder(config(8, 1)).backend(backend).build().unwrap().infer(&qnet, &input).unwrap_err();
        match err {
            Error::Driver(DriverError::LayerTooLarge { needed, capacity, .. }) => {
                assert!(needed > capacity);
            }
            other => panic!("expected LayerTooLarge on {backend}, got {other:?}"),
        }
    }
}

#[test]
fn gops_reporting_is_consistent() {
    let (qnet, input) = quantized(1.0, 99);
    let cfg = config(4096, 1);
    for backend in [BackendKind::Model, BackendKind::Cpu] {
        let report = Session::builder(cfg).backend(backend).build().unwrap().infer(&qnet, &input).unwrap();
        let mean = report.mean_gops(&cfg);
        let peak = report.peak_gops(&cfg);
        assert!(peak >= mean && mean > 0.0, "peak {peak} mean {mean}");
        // Effective GOPS can never exceed peak arithmetic throughput for a
        // dense (unpruned) network.
        assert!(peak <= cfg.peak_gops() * 1.001, "peak {peak} vs hw {}", cfg.peak_gops());
    }
}

/// One injected DMA fault must surface as the same structured error on
/// every backend: the staged pipeline issues the identical descriptor
/// sequence, and DMA fault detection is value-independent.
#[test]
fn transient_dma_faults_surface_identically_across_backends() {
    let (qnet, input) = quantized(0.6, 11);
    assert_dma_faults_surface_identically(&qnet, &input);
}

#[test]
fn injected_dma_truncation_surfaces_as_structured_error() {
    let (qnet, input) = quantized(0.6, 11);
    let plan = FaultPlan::new().inject("dma:xfer", 2, FaultKind::DmaTruncate { tiles: 1 }).shared();
    let session = Session::builder(config(4096, 1)).fault_plan(plan.clone()).build().expect("valid config");
    let err = session.infer(&qnet, &input).unwrap_err();
    assert!(
        matches!(err, Error::Driver(DriverError::Dma(DmaError::Truncated { .. }))),
        "expected truncation, got {err:?}"
    );
    assert_eq!(plan.lock().unwrap().fired().len(), 1, "exactly one fault fired");
}

/// A plan-free quantized interpreter — the second, independently written
/// walk `forward_quant` is held to now that the golden model and the
/// driver share one (`QuantizedNetwork::run_plan`). It has no slots and no
/// liveness: every boundary activation is kept (`acts[0]` the input,
/// `acts[i + 1]` layer `i`'s output), `Ref` / `Add` resolve by layer
/// index, and each operator is the allocating reference one.
fn interpret_quant(qnet: &QuantizedNetwork, input: &Tensor<f32>) -> Vec<Sm8> {
    use zskip::nn::LayerRef;
    use zskip::quant::{QuantParams, Requantizer};
    let scales = &qnet.activation_scales;
    let boundary = |r: &LayerRef| match r {
        LayerRef::Input => 0,
        LayerRef::Layer(j) => j + 1,
    };
    let quantizer = QuantParams { scale: scales[0] };
    let mut acts = vec![input.map(|v| quantizer.quantize(v))];
    let (mut convs, mut fcs) = (qnet.conv.iter(), qnet.fc.iter());
    for (li, layer) in qnet.spec.layers.iter().enumerate() {
        let prev = &acts[li];
        let flat = |v: Vec<Sm8>| Tensor::from_vec(v.len(), 1, 1, v);
        let next = match layer {
            LayerSpec::Conv { stride, pad, .. } => {
                conv2d_quant_dense(prev, &convs.next().expect("a conv per Conv layer").weights, *stride, *pad)
            }
            LayerSpec::MaxPool { k, stride, .. } => maxpool_quant(prev, *k, *stride),
            LayerSpec::Ref { from, .. } => acts[boundary(from)].clone(),
            LayerSpec::Add { from, relu, .. } => {
                let to_out = |b: usize| Requantizer::from_ratio((scales[b] / scales[li + 1]) as f64);
                add_quant(prev, &acts[boundary(from)], to_out(li), to_out(boundary(from)), *relu)
            }
            LayerSpec::GlobalAvgPool { .. } => {
                let n = prev.shape().h * prev.shape().w;
                let mean = Requantizer::from_ratio(scales[li] as f64 / (scales[li + 1] as f64 * n as f64));
                let mut out = Tensor::zeros(1, 1, 1);
                global_avgpool_quant_into(prev, mean, &mut out);
                out
            }
            LayerSpec::Fc { .. } => flat(fc_quant(prev.as_slice(), fcs.next().expect("an fc per Fc layer"))),
            // Monotone: the quantized path carries the logits through.
            LayerSpec::Softmax => prev.clone(),
            LayerSpec::BatchNorm { .. } => unreachable!("quantization folds batch-norm away"),
        };
        acts.push(next);
    }
    acts.pop().expect("the input at least").into_vec()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Slot bookkeeping against none at all, on linear chains (the
    /// two-slot ping-pong, the flat FC head).
    #[test]
    fn golden_model_matches_the_plan_free_interpreter_on_random_specs(
        spec in network_strategy(),
        density in 0.1f64..1.0,
        seed in 0u64..10_000,
    ) {
        let (qnet, input) = quantize_spec(&spec, density, seed);
        prop_assert_eq!(qnet.forward_quant(&input), interpret_quant(&qnet, &input));
    }

    /// ... and on DAGs: skip slots held across a branch body, aliasing
    /// `Ref`s, joins, GAP heads.
    #[test]
    fn golden_model_matches_the_plan_free_interpreter_on_dag_specs(
        spec in dag_network_strategy(),
        density in 0.1f64..1.0,
        seed in 0u64..10_000,
    ) {
        let (qnet, input) = quantize_spec(&spec, density, seed);
        prop_assert_eq!(qnet.forward_quant(&input), interpret_quant(&qnet, &input));
    }
}
