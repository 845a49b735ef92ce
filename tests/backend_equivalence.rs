//! Cross-backend differential harness: the Model, Cycle and Cpu backends
//! must be interchangeable.
//!
//! * **Outputs**: bit-identical to each other and to the software golden
//!   model (`forward_quant`) on random `NetworkSpec`s — and the golden
//!   model, whose plan walk the driver shares, to a plan-free interpreter.
//! * **Statistics**: Model and Cpu charge cycles with the same
//!   closed-form model, so their cycle counts and DDR byte counts are
//!   *equal*, not merely close; Cycle agrees within the documented
//!   tolerance.
//! * **Memoized statistics**: the Cpu backend pays its stats pass once per
//!   (pass, config) and replays the record on later images; the replayed
//!   reports must equal Model's in every field, and the memo key must
//!   separate every configuration knob that moves a statistic.
//! * **Transient faults**: the staged pipeline issues the same DMA
//!   descriptor sequence on every backend, and DMA fault detection is
//!   value-independent — an injected `dma:*` fault must surface as the
//!   same structured error everywhere.

use proptest::prelude::*;
use zskip::accel::{
    stats_memo_stats, AccelConfig, BackendKind, Driver, DriverBuilder, DriverError, Error,
    InferenceReport, Placement, Session,
};
use zskip::fault::{FaultKind, FaultPlan};
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
use zskip::tensor::{Shape, Tensor};

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
        let what = format!("{what}: layer {}", w.name);
        let (g, w) = (&g.stats, &w.stats);
        assert_eq!(g.per_instance_cycles, w.per_instance_cycles, "{what}");
        assert_eq!(g.compute_cycles, w.compute_cycles, "{what}");
        assert_eq!(g.io_dma_cycles, w.io_dma_cycles, "{what}");
        assert_eq!(g.weight_dma_cycles, w.weight_dma_cycles, "{what}");
        assert_eq!(g.total_cycles, w.total_cycles, "{what}");
        assert_eq!(g.stripes, w.stripes, "{what}");
        assert_eq!(g.striping_factor.to_bits(), w.striping_factor.to_bits(), "{what}");
        assert_eq!(g.counters.iter().collect::<Vec<_>>(), w.counters.iter().collect::<Vec<_>>(), "{what}");
    }
}

/// Layers that issue accelerator passes: each costs a warm cpu image at
/// least one memo hit.
fn accel_layers(r: &InferenceReport) -> u64 {
    r.layers.iter().filter(|l| l.stats.stripes > 0).count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The stats-pass memo end to end: two *different* images through one
    /// cpu session — the first records every pass, the second replays
    /// them — on random linear and DAG specs. Both reports must equal the
    /// Model backend's in every statistic, single- and multi-threaded.
    /// (Other tests share the process-wide memo, so its hit counter is
    /// only bounded from below.)
    #[test]
    fn memoized_stats_replay_equals_the_model_backend(
        spec in prop_oneof![network_strategy(), dag_network_strategy()],
        density in 0.1f64..1.0,
        seed in 0u64..10_000,
    ) {
        let (qnet, first) = quantize_spec(&spec, density, seed);
        let second = synthetic_inputs(seed ^ 3, 1, spec.input).pop().expect("one");
        let cfg = config(2048, 1);
        let model = Session::builder(cfg).backend(BackendKind::Model).build().expect("valid config");
        let want = [model.infer(&qnet, &first).expect("fits"), model.infer(&qnet, &second).expect("fits")];
        for threads in [1, 3] {
            let cpu = Session::builder(cfg).backend(BackendKind::Cpu).threads(threads).build().expect("valid config");
            let mut scratch = zskip::nn::Scratch::new();
            let miss = cpu.infer_scratch(&qnet, &first, &mut scratch).expect("fits");
            let hits = stats_memo_stats().hits;
            let hit = cpu.infer_scratch(&qnet, &second, &mut scratch).expect("fits");
            prop_assert!(stats_memo_stats().hits - hits >= accel_layers(&hit), "the second image replays");
            assert_same_report(&miss, &want[0], &format!("first image, {threads} thread(s)"));
            assert_same_report(&hit, &want[1], &format!("second image, {threads} thread(s)"));
        }
    }
}

/// The memo key must cover every knob that moves a statistic: in one
/// process, on one set of weights, each variant below differs from the
/// base configuration in exactly one field. The base runs first, so a
/// field missing from the key would replay the base's record into the
/// variant and fail the comparison with the variant's own Model run.
#[test]
fn stats_memo_key_separates_every_knob_that_moves_a_statistic() {
    let (qnet, input) = quantized(0.5, 4242);
    let with = |f: fn(&mut AccelConfig)| {
        let mut cfg = config(20, 1);
        f(&mut cfg);
        cfg
    };
    type Knob = fn(DriverBuilder) -> DriverBuilder;
    let plain: Knob = |b| b;
    let variants: [(&str, AccelConfig, Knob); 9] = [
        ("base", config(20, 1), plain),
        ("instances", config(20, 2), plain),
        ("bank_tiles", config(4096, 1), plain),
        ("zero_skipping", config(20, 1), |b| b.zero_skipping(false)),
        ("filter_grouping", config(20, 1), |b| b.filter_grouping(true)),
        ("units", with(|c| c.units = 2), plain),
        ("lanes", with(|c| c.lanes = 2), plain),
        ("weight_bytes_per_cycle", with(|c| c.weight_bytes_per_cycle = 4), plain),
        // Same knobs as the base again, after every variant has recorded.
        ("base again", config(20, 1), plain),
    ];
    let mut base: Option<InferenceReport> = None;
    for (knob, cfg, apply) in variants {
        let run = |backend| apply(Driver::builder(cfg).backend(backend)).build().expect("valid config").run_network(&qnet, &input).expect("fits");
        let model = run(BackendKind::Model);
        // Twice: the recording run and the replay.
        for pass in ["miss", "hit"] {
            assert_same_report(&run(BackendKind::Cpu), &model, &format!("{knob} ({pass})"));
        }
        match &base {
            None => base = Some(model),
            // The knob really moves something, or this row proves nothing.
            Some(b) if !knob.starts_with("base") => {
                let stats = |r: &InferenceReport| format!("{:?}", r.layers.iter().map(|l| &l.stats).collect::<Vec<_>>());
                assert_ne!(stats(&model), stats(b), "{knob} changes no statistic on this network");
            }
            Some(_) => {}
        }
    }
}

/// Sharded execution goes through the same cpu passes: with three images
/// per placement the later ones replay the memo (stripe placement under
/// its two-instance key, image/pipeline under the single-instance view),
/// and every per-image report and the placement timeline still equal the
/// Model backend's.
#[test]
fn sharded_placements_replay_the_memo_and_match_model() {
    let (qnet, _) = quantized(0.6, 777);
    let inputs = synthetic_inputs(778, 3, tiny_spec().input);
    for placement in [Placement::Stripe, Placement::Image, Placement::Pipeline] {
        let run = |backend| {
            Session::builder(config(20, 2))
                .backend(backend)
                .threads(3)
                .placement(placement)
                .build()
                .expect("valid config")
                .run_sharded(&qnet, &inputs)
                .expect("fits")
        };
        let model = run(BackendKind::Model);
        let hits = stats_memo_stats().hits;
        let cpu = run(BackendKind::Cpu);
        let replayed = stats_memo_stats().hits - hits;
        assert!(replayed >= 2 * accel_layers(&cpu.items[0]), "{placement}: {replayed} memo hits");
        assert_eq!(cpu.items.len(), model.items.len());
        for (i, (c, m)) in cpu.items.iter().zip(&model.items).enumerate() {
            assert_same_report(c, m, &format!("{placement}, image {i}"));
        }
        assert_eq!(cpu.makespan_cycles, model.makespan_cycles, "{placement}");
        assert_eq!(cpu.serial_cycles, model.serial_cycles, "{placement}");
        assert_eq!(cpu.per_instance_busy, model.per_instance_busy, "{placement}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Model and Cpu: bit-identical outputs AND identical statistics on
    /// random specs (both run the same staged pipeline and closed-form
    /// cycle model; only the functional arithmetic engine differs).
    #[test]
    fn cpu_and_model_backends_are_equivalent_on_random_specs(
        spec in network_strategy(),
        density in 0.1f64..1.0,
        seed in 0u64..10_000,
    ) {
        let (qnet, input) = quantize_spec(&spec, density, seed);
        let cfg = config(2048, 1);
        let model = Driver::builder(cfg).backend(BackendKind::Model).build().unwrap().run_network(&qnet, &input).expect("fits");
        let cpu = Driver::builder(cfg).backend(BackendKind::Cpu).build().unwrap().run_network(&qnet, &input).expect("fits");
        // Intra-image multithreaded cpu backend: panel decomposition over a
        // 3-worker pool must not change outputs or statistics either.
        let mt = Driver::builder(cfg)
            .backend(BackendKind::Cpu)
            .threads(3)
            .build()
            .expect("valid config")
            .run_network(&qnet, &input)
            .expect("fits");
        prop_assert_eq!(&model.output, &qnet.forward_quant(&input));
        prop_assert_eq!(&cpu.output, &model.output);
        prop_assert_eq!(&mt.output, &model.output);
        prop_assert_eq!(cpu.total_cycles, model.total_cycles);
        prop_assert_eq!(mt.total_cycles, model.total_cycles);
        prop_assert_eq!(cpu.ddr_bytes, model.ddr_bytes);
        prop_assert_eq!(mt.ddr_bytes, model.ddr_bytes);
        prop_assert_eq!(cpu.layers.len(), model.layers.len());
        for (c, m) in cpu.layers.iter().zip(&model.layers) {
            prop_assert_eq!(&c.name, &m.name);
            prop_assert_eq!(c.stats.total_cycles, m.stats.total_cycles);
            prop_assert_eq!(c.stats.compute_cycles, m.stats.compute_cycles);
            prop_assert_eq!(c.stats.io_dma_cycles, m.stats.io_dma_cycles);
            prop_assert_eq!(c.stats.weight_dma_cycles, m.stats.weight_dma_cycles);
            prop_assert_eq!(c.stats.stripes, m.stats.stripes);
            prop_assert_eq!(c.stats.counters.get("macs"), m.stats.counters.get("macs"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Model and Cpu on random *DAG* specs — skip connections, 1x1
    /// projections, folded batch-norm, GAP heads: bit-identical outputs
    /// and identical per-layer statistics, single- and multi-threaded.
    #[test]
    fn cpu_and_model_backends_are_equivalent_on_dag_specs(
        spec in dag_network_strategy(),
        density in 0.1f64..1.0,
        seed in 0u64..10_000,
    ) {
        let (qnet, input) = quantize_spec(&spec, density, seed);
        let cfg = config(2048, 1);
        let model = Driver::builder(cfg).backend(BackendKind::Model).build().unwrap().run_network(&qnet, &input).expect("fits");
        let cpu = Driver::builder(cfg).backend(BackendKind::Cpu).build().unwrap().run_network(&qnet, &input).expect("fits");
        let mt = Driver::builder(cfg)
            .backend(BackendKind::Cpu)
            .threads(3)
            .build()
            .expect("valid config")
            .run_network(&qnet, &input)
            .expect("fits");
        prop_assert_eq!(&model.output, &qnet.forward_quant(&input));
        prop_assert_eq!(&cpu.output, &model.output);
        prop_assert_eq!(&mt.output, &model.output);
        prop_assert_eq!(cpu.total_cycles, model.total_cycles);
        prop_assert_eq!(mt.total_cycles, model.total_cycles);
        prop_assert_eq!(cpu.ddr_bytes, model.ddr_bytes);
        prop_assert_eq!(cpu.layers.len(), model.layers.len());
        for (c, m) in cpu.layers.iter().zip(&model.layers) {
            prop_assert_eq!(&c.name, &m.name);
            prop_assert_eq!(c.stats.total_cycles, m.stats.total_cycles);
            prop_assert_eq!(c.stats.compute_cycles, m.stats.compute_cycles);
            prop_assert_eq!(c.stats.io_dma_cycles, m.stats.io_dma_cycles);
            prop_assert_eq!(c.stats.weight_dma_cycles, m.stats.weight_dma_cycles);
            prop_assert_eq!(c.stats.stripes, m.stats.stripes);
            prop_assert_eq!(c.stats.counters.get("macs"), m.stats.counters.get("macs"));
        }
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
            let report = Driver::builder(cfg).backend(backend).build().unwrap().run_network(&qnet, &input).expect("fits");
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
            .map(|&b| Driver::builder(cfg).backend(b).build().unwrap().run_network(&qnet, &input).expect("fits"))
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
/// with the same stable code on every backend.
#[test]
fn transient_dma_faults_surface_identically_on_dag_networks() {
    let (qnet, input) = residual_fixture(21);
    for (kind, want_code) in [
        (FaultKind::DmaTruncate { tiles: 1 }, "dma.truncated"),
        (FaultKind::DmaCorrupt { xor: 0x40 }, "dma.parity"),
    ] {
        for at in [0, 2, 7] {
            let mut codes = Vec::new();
            for backend in BackendKind::ALL {
                let plan = FaultPlan::new().inject("dma:xfer", at, kind).shared();
                let driver = Driver::builder(config(4096, 1))
                    .backend(backend)
                    .fault_plan(plan.clone())
                    .build()
                    .expect("valid config");
                let err = driver.run_network(&qnet, &input).unwrap_err();
                assert!(err.is_transient(), "{backend}: DMA faults are transient");
                assert_eq!(plan.lock().unwrap().fired().len(), 1, "{backend}: exactly one fault fired");
                codes.push(Error::from(err).code());
            }
            assert_eq!(codes, vec![want_code; 3], "fault {kind:?} at {at}");
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
                Driver::builder(config(4096, instances))
                    .backend(BackendKind::Cycle)
                    .threads(threads)
                    .build()
                    .expect("valid config")
                    .run_network(&qnet, &input)
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
        let report = Driver::builder(config(4096, 1)).backend(backend).build().unwrap().run_network(&qnet, &input).expect("runs");
        assert_eq!(report.output, golden, "backend {backend}");
        assert!(report.total_cycles > 0);
        assert!(report.ddr_bytes > 0);
        assert_eq!(report.conv_layers().count(), 2);
    }
}

#[test]
fn model_and_cycle_backends_agree_on_cycles_within_tolerance() {
    let (qnet, input) = quantized(0.4, 33);
    let model = Driver::builder(config(4096, 1)).backend(BackendKind::Model).build().unwrap().run_network(&qnet, &input).unwrap();
    let cycle = Driver::builder(config(4096, 1)).backend(BackendKind::Cycle).build().unwrap().run_network(&qnet, &input).unwrap();
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
        let striped = Driver::builder(config(20, 1)).backend(backend).build().unwrap().run_network(&qnet, &input).unwrap();
        assert_eq!(striped.output, golden, "backend {backend}");
        let roomy = Driver::builder(config(8192, 1)).backend(backend).build().unwrap().run_network(&qnet, &input).unwrap();
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
        let one = Driver::builder(config(20, 1)).backend(backend).build().unwrap().run_network(&qnet, &input).unwrap();
        let two = Driver::builder(config(20, 2)).backend(backend).build().unwrap().run_network(&qnet, &input).unwrap();
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
        let plain = Driver::builder(config(4096, 1)).backend(backend).build().unwrap();
        let grouped =
            Driver::builder(config(4096, 1)).backend(backend).filter_grouping(true).build().unwrap();
        let a = plain.run_network(&qnet, &input).unwrap();
        let b = grouped.run_network(&qnet, &input).unwrap();
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
        let driver = Driver::builder(config(4096, 1)).backend(backend).build().unwrap();
        let d = driver.run_network(&dense, &input).unwrap();
        let p = driver.run_network(&pruned, &input).unwrap();
        let cd: u64 = d.conv_layers().map(|l| l.stats.compute_cycles).sum();
        let cp: u64 = p.conv_layers().map(|l| l.stats.compute_cycles).sum();
        assert!(cp < cd, "zero-skipping must help: pruned {cp} vs dense {cd}");
    }
}

#[test]
fn layer_too_large_is_reported_identically() {
    let (qnet, input) = quantized(1.0, 88);
    for backend in BackendKind::ALL {
        let err = Driver::builder(config(8, 1)).backend(backend).build().unwrap().run_network(&qnet, &input).unwrap_err();
        match err {
            DriverError::LayerTooLarge { needed, capacity, .. } => {
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
        let report = Driver::builder(cfg).backend(backend).build().unwrap().run_network(&qnet, &input).unwrap();
        let mean = report.mean_gops(&cfg);
        let peak = report.peak_gops(&cfg);
        assert!(peak >= mean && mean > 0.0, "peak {peak} mean {mean}");
        // Effective GOPS can never exceed peak arithmetic throughput for a
        // dense (unpruned) network.
        assert!(peak <= cfg.peak_gops() * 1.001, "peak {peak} vs hw {}", cfg.peak_gops());
    }
}

/// One injected DMA fault must surface as the same structured error with
/// the same stable code on every backend: the staged pipeline issues the
/// identical descriptor sequence, and DMA fault detection is
/// value-independent.
#[test]
fn transient_dma_faults_surface_identically_across_backends() {
    let (qnet, input) = quantized(0.6, 11);
    for (kind, want_code) in [
        (FaultKind::DmaTruncate { tiles: 1 }, "dma.truncated"),
        (FaultKind::DmaCorrupt { xor: 0x40 }, "dma.parity"),
    ] {
        for at in [0, 2, 7] {
            let mut codes = Vec::new();
            for backend in BackendKind::ALL {
                let plan = FaultPlan::new().inject("dma:xfer", at, kind).shared();
                let driver = Driver::builder(config(4096, 1))
                    .backend(backend)
                    .fault_plan(plan.clone())
                    .build()
                    .expect("valid config");
                let err = driver.run_network(&qnet, &input).unwrap_err();
                assert!(err.is_transient(), "{backend}: DMA faults are transient");
                assert_eq!(plan.lock().unwrap().fired().len(), 1, "{backend}: exactly one fault fired");
                codes.push(Error::from(err).code());
            }
            assert_eq!(codes, vec![want_code; 3], "fault {kind:?} at {at}");
        }
    }
}

#[test]
fn injected_dma_truncation_surfaces_as_structured_error() {
    let (qnet, input) = quantized(0.6, 11);
    let plan = FaultPlan::new().inject("dma:xfer", 2, FaultKind::DmaTruncate { tiles: 1 }).shared();
    let driver =
        Driver::builder(config(4096, 1)).fault_plan(plan.clone()).build().expect("valid config");
    let err = driver.run_network(&qnet, &input).unwrap_err();
    assert!(
        matches!(err, DriverError::Dma(DmaError::Truncated { .. })),
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
    use zskip::quant::Requantizer;
    let scales = &qnet.activation_scales;
    let boundary = |r: &LayerRef| match r {
        LayerRef::Input => 0,
        LayerRef::Layer(j) => j + 1,
    };
    let mut acts = vec![input.map(|v| qnet.input_params.quantize(v))];
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
