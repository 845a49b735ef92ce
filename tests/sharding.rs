//! Placement-differential harness: stripe-, image- and layer-pipelined
//! sharding must be bit-identical to single-instance execution.
//!
//! * **Outputs**: every placement's per-image outputs equal an
//!   `instances: 1` run of the same configuration, on random
//!   `NetworkSpec`s across the Model and Cpu backends (and the Cycle
//!   backend on a reduced deterministic case — it is ~100x slower).
//! * **Statistics**: image- and layer-pipelined placements execute each
//!   image through a single-instance view, so their per-layer stats are
//!   *equal* to the reference, not merely close; the stripe placement
//!   preserves work totals (MACs, weight DMA) while distributing them.
//! * **Faults**: an injected `dma:xfer` fault surfaces as the same
//!   stable `Error::code()` whatever the placement, because placement
//!   never changes the DMA descriptor prefix of the first image.
//! * **Coverage**: an explicit stripe placement is accepted only when
//!   some layer kept every instance busy in the run itself.
//! * **Workers**: the batch engine's worker count never shows in the
//!   per-image reports or in the placement's timeline.

use proptest::prelude::*;
use zskip::accel::{
    AccelConfig, BackendKind, BatchReport, DriverError, Error, InferenceReport, Placement, Session,
    SessionBuilder,
};
use zskip::fault::{FaultKind, FaultPlan};
use zskip::hls::AccelArch;
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::layer::{conv3x3, maxpool2x2, LayerSpec, NetworkSpec};
use zskip::nn::model::{Network, QuantizedNetwork, SyntheticModelConfig};
use zskip::quant::DensityProfile;
use zskip::tensor::{Shape, Tensor};

fn config(bank_tiles: usize, instances: usize) -> AccelConfig {
    AccelConfig::from_arch(&AccelArch { conv_units: 4, lanes: 4, instances, bank_tiles }, 100.0)
}

/// A batch scheduled under `placement` on a session from `builder`.
fn run_placed(
    builder: &SessionBuilder,
    qnet: &QuantizedNetwork,
    inputs: &[Tensor<f32>],
    placement: Placement,
) -> Result<BatchReport, Error> {
    builder.clone().placement(placement).build().expect("valid config").run_batch(qnet, inputs)
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

fn quantized(density: f64, seed: u64, images: usize) -> (QuantizedNetwork, Vec<Tensor<f32>>) {
    let spec = tiny_spec();
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed, density: DensityProfile::uniform(2, density) },
    );
    let calib = synthetic_inputs(seed ^ 1, 2, spec.input);
    let qnet = net.quantize(&calib);
    let inputs = synthetic_inputs(seed ^ 2, images, spec.input);
    (qnet, inputs)
}

/// A random small network, as in `backend_equivalence.rs`.
fn network_strategy() -> impl Strategy<Value = NetworkSpec> {
    let conv = (1usize..=3, 2usize..=8, prop::bool::ANY);
    (
        8usize..=19,
        1usize..=3,
        prop::collection::vec(conv, 1..=3),
        prop::bool::ANY,
        prop::bool::ANY,
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

fn quantize_spec(
    spec: &NetworkSpec,
    density: f64,
    seed: u64,
    images: usize,
) -> (QuantizedNetwork, Vec<Tensor<f32>>) {
    let conv_count = spec.conv_layers().len();
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed, density: DensityProfile::uniform(conv_count, density) },
    );
    let qnet = net.quantize(&synthetic_inputs(seed ^ 1, 1, spec.input));
    let inputs = synthetic_inputs(seed ^ 2, images, spec.input);
    (qnet, inputs)
}

fn macs_total(r: &InferenceReport) -> u64 {
    r.layers.iter().map(|l| l.stats.counters.get("macs")).sum()
}

fn weight_dma_total(r: &InferenceReport) -> u64 {
    r.layers.iter().map(|l| l.stats.weight_dma_cycles).sum()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Every placement is bit-identical to `instances: 1` on random
    /// specs (Model and Cpu backends): outputs always; full per-layer
    /// stats for image/pipeline placements (they run a single-instance
    /// view); work totals for the stripe placement (it distributes the
    /// same instruction batches).
    #[test]
    fn placements_match_single_instance_on_random_specs(
        spec in network_strategy(),
        density in 0.1f64..1.0,
        seed in 0u64..10_000,
        images in 1usize..=3,
        instances in (0usize..2).prop_map(|i| if i == 0 { 2usize } else { 4 }),
    ) {
        let (qnet, inputs) = quantize_spec(&spec, density, seed, images);
        for backend in [BackendKind::Model, BackendKind::Cpu] {
            let reference: Vec<InferenceReport> = {
                let d = Session::builder(config(2048, 1)).backend(backend).build().unwrap();
                inputs.iter().map(|i| d.infer(&qnet, i).expect("fits")).collect()
            };
            let sharded = Session::builder(config(2048, instances)).backend(backend);
            for placement in [Placement::Stripe, Placement::Image, Placement::Pipeline, Placement::Auto] {
                let report = match run_placed(&sharded, &qnet, &inputs, placement) {
                    Ok(r) => r,
                    Err(e @ Error::Driver(DriverError::InvalidConfig(_))) => {
                        // An explicit stripe placement may reject shallow
                        // specs whose stripes cannot cover every instance
                        // — with the stable config code, never a panic.
                        prop_assert_eq!(placement, Placement::Stripe);
                        prop_assert_eq!(e.code(), "config.invalid");
                        continue;
                    }
                    Err(other) => panic!("unexpected error under {placement}: {other}"),
                };
                prop_assert_eq!(report.instances, instances);
                prop_assert_ne!(report.placement, Placement::Auto, "resolve() ran");
                if placement == Placement::Stripe {
                    // Accepted only because the run kept every instance
                    // busy on some layer.
                    for item in &report.items {
                        prop_assert!(
                            item.layers.iter().any(|l| l.stats.per_instance_cycles.iter().filter(|&&c| c > 0).count() == instances),
                            "stripe placement accepted with an idle instance on every layer"
                        );
                    }
                }
                prop_assert_eq!(report.items.len(), inputs.len());
                for (item, want) in report.items.iter().zip(&reference) {
                    prop_assert_eq!(&item.output, &want.output,
                        "{} outputs must be bit-identical ({})", report.placement, backend);
                    prop_assert_eq!(macs_total(item), macs_total(want));
                    prop_assert_eq!(weight_dma_total(item), weight_dma_total(want));
                    if matches!(report.placement, Placement::Image | Placement::Pipeline) {
                        // Single-instance view: stats equal, not just close.
                        prop_assert_eq!(item.total_cycles, want.total_cycles);
                        prop_assert_eq!(item.ddr_bytes, want.ddr_bytes);
                        for (a, b) in item.layers.iter().zip(&want.layers) {
                            prop_assert_eq!(&a.name, &b.name);
                            prop_assert_eq!(a.stats.total_cycles, b.stats.total_cycles);
                            prop_assert_eq!(a.stats.io_dma_cycles, b.stats.io_dma_cycles);
                            prop_assert_eq!(a.stats.weight_dma_cycles, b.stats.weight_dma_cycles);
                            prop_assert_eq!(a.stats.stripes, b.stats.stripes);
                        }
                    }
                }
                prop_assert!(report.makespan_cycles > 0);
                prop_assert!(report.per_instance_busy.iter().sum::<u64>() > 0);
            }
        }
    }
}

/// The cycle backend agrees too — one deterministic case (it is ~100x
/// slower than the model, so no random sweep).
#[test]
fn placements_match_single_instance_on_cycle_backend() {
    let (qnet, inputs) = quantized(0.6, 21, 2);
    let reference: Vec<InferenceReport> = {
        let d = Session::builder(config(2048, 1)).backend(BackendKind::Cycle).build().unwrap();
        inputs.iter().map(|i| d.infer(&qnet, i).expect("fits")).collect()
    };
    let sharded = Session::builder(config(2048, 2)).backend(BackendKind::Cycle);
    for placement in [Placement::Image, Placement::Pipeline] {
        let report = run_placed(&sharded, &qnet, &inputs, placement).expect("runs");
        for (item, want) in report.items.iter().zip(&reference) {
            assert_eq!(item.output, want.output, "{placement}");
            assert_eq!(item.total_cycles, want.total_cycles, "{placement}");
        }
    }
}

/// Stripe placement on a genuinely striped workload: tiny banks force
/// multi-stripe layers, all instances get work, and the distributed
/// compute totals match the single-instance run exactly.
#[test]
fn stripe_placement_distributes_real_stripes() {
    let (qnet, inputs) = quantized(1.0, 55, 2);
    for backend in [BackendKind::Model, BackendKind::Cpu] {
        let one = Session::builder(config(20, 1)).backend(backend).build().unwrap();
        let reference: Vec<InferenceReport> =
            inputs.iter().map(|i| one.infer(&qnet, i).expect("fits")).collect();
        let sharded = Session::builder(config(20, 2)).backend(backend);
        let report = run_placed(&sharded, &qnet, &inputs, Placement::Stripe).expect("covers");
        assert_eq!(report.placement, Placement::Stripe);
        for (item, want) in report.items.iter().zip(&reference) {
            assert_eq!(item.output, want.output, "{backend}");
            assert_eq!(macs_total(item), macs_total(want));
        }
        // Both instances genuinely busy, and the makespan is just the
        // images run back to back.
        assert!(report.per_instance_busy.iter().all(|&b| b > 0), "{:?}", report.per_instance_busy);
        let total: u64 = report.items.iter().map(|r| r.total_cycles).sum();
        assert_eq!(report.makespan_cycles, total);
        // The distributed schedule never loses to the serial
        // reconstruction (at tiny banks the layers are DMA-bound, so
        // the win can be slim), and at least one layer's critical path
        // genuinely shrank from the split.
        assert!(report.speedup() >= 1.0, "speedup {}", report.speedup());
        let shrunk = report.items.iter().flat_map(|r| r.layers.iter()).any(|l| {
            let max = l.stats.per_instance_cycles.iter().copied().max().unwrap_or(0);
            let sum: u64 = l.stats.per_instance_cycles.iter().sum();
            max < sum
        });
        assert!(shrunk, "no layer distributed compute across instances");
    }
}

/// An explicit stripe placement that cannot occupy every instance is a
/// clean `config.invalid`, with Auto never tripping it.
#[test]
fn uncoverable_stripe_placement_is_config_invalid() {
    // One conv layer, 2 output channels => 1 OFM group at 4 lanes, and
    // roomy banks => a single stripe: coverage 1 of 4.
    let spec = NetworkSpec {
        name: "shallow".into(),
        input: Shape::new(2, 8, 8),
        layers: vec![LayerSpec::Conv {
            name: "only".into(),
            in_c: 2,
            out_c: 2,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        }],
    };
    let (qnet, inputs) = quantize_spec(&spec, 0.8, 3, 2);
    let shards = Session::builder(config(4096, 4));
    let err = run_placed(&shards, &qnet, &inputs, Placement::Stripe).unwrap_err();
    assert!(
        matches!(err, Error::Driver(DriverError::InvalidConfig(ref r))
            if r.contains("cannot cover 4 instances") && r.contains("image | pipeline")),
        "got {err:?}"
    );
    assert_eq!(err.code(), "config.invalid");
    // Auto picks a covering placement instead of erroring.
    let auto = run_placed(&shards, &qnet, &inputs, Placement::Auto).expect("auto never errors");
    assert_ne!(auto.placement, Placement::Stripe);
}

/// Coverage is read from the run, not re-planned: a single-stripe conv
/// whose 5 (or 6) OFM groups split into `div_ceil(groups, 4) = 2`-group
/// chunks occupies only 3 of 4 instances, so an explicit stripe
/// placement must be rejected naming that real count.
#[test]
fn stripe_coverage_counts_the_instances_the_group_split_really_occupies() {
    for out_c in [20, 24] {
        let spec = NetworkSpec {
            name: "split".into(),
            input: Shape::new(2, 8, 8),
            layers: vec![LayerSpec::Conv { name: "wide".into(), in_c: 2, out_c, k: 3, stride: 1, pad: 1, relu: true }],
        };
        let (qnet, inputs) = quantize_spec(&spec, 0.8, 5, 2);
        let shards = Session::builder(config(4096, 4));
        let err = run_placed(&shards, &qnet, &inputs, Placement::Stripe).unwrap_err();
        assert_eq!(err.code(), "config.invalid", "{out_c} channels: {err}");
        let msg = err.to_string();
        assert!(
            msg.contains("cannot cover 4 instances") && msg.contains("('wide') occupies only 3"),
            "{out_c} channels: {msg}"
        );
        // The same layer on the image placement runs, on every instance.
        let image = run_placed(&shards, &qnet, &inputs, Placement::Image).expect("runs");
        assert_eq!(image.items.len(), inputs.len());
    }
}

/// The batch engine's worker count is invisible: under every placement,
/// one worker and three give the same per-image reports and the same
/// timeline.
#[test]
fn worker_count_never_shows_in_items_or_timeline() {
    let (qnet, inputs) = quantized(0.7, 88, 5);
    let timeline = |r: &BatchReport| {
        (
            r.placement,
            r.instances,
            r.makespan_cycles,
            r.serial_cycles,
            r.per_instance_busy.clone(),
            r.layer_bubbles.clone(),
            r.staging_exposed_cycles,
            r.staging_hidden_cycles,
        )
    };
    for backend in [BackendKind::Model, BackendKind::Cpu] {
        for placement in [Placement::Stripe, Placement::Image, Placement::Pipeline, Placement::Auto] {
            let run = |workers| {
                let builder = Session::builder(config(20, 2)).backend(backend).batch_workers(workers);
                run_placed(&builder, &qnet, &inputs, placement).expect("runs")
            };
            let (one, three) = (run(1), run(3));
            assert_eq!((one.workers, three.workers), (1, 3), "{backend}/{placement}");
            assert_eq!(format!("{:?}", one.items), format!("{:?}", three.items), "{backend}/{placement}");
            assert_eq!(timeline(&one), timeline(&three), "{backend}/{placement}");
        }
    }
}

/// Image-parallel throughput: a batch sharded over N instances finishes
/// in ~1/N the serial cycles (same per-image work, parallel lanes).
#[test]
fn image_placement_scales_throughput() {
    let (qnet, inputs) = quantized(0.7, 33, 8);
    let shards = Session::builder(config(2048, 4));
    let report = run_placed(&shards, &qnet, &inputs, Placement::Image).expect("runs");
    assert_eq!(report.placement, Placement::Image);
    let total: u64 = report.items.iter().map(|r| r.total_cycles).sum();
    // 8 equal images over 4 lanes: exactly 2 images per lane.
    assert_eq!(report.makespan_cycles * 4, total);
    assert!(report.speedup() > 3.9, "speedup {}", report.speedup());
    assert!(report.utilization() > 0.9, "utilization {}", report.utilization());
}

/// Layer-pipelined latency: resident block weights pull the downstream
/// weight staging off the critical path, so a single image finishes
/// earlier than on one instance (which is what image placement degrades
/// to at batch 1).
#[test]
fn pipeline_placement_beats_image_on_single_image_latency() {
    let (qnet, inputs) = quantized(0.7, 44, 1);
    let shards = Session::builder(config(2048, 2));
    let image = run_placed(&shards, &qnet, &inputs, Placement::Image).expect("runs");
    let pipeline = run_placed(&shards, &qnet, &inputs, Placement::Pipeline).expect("runs");
    assert!(
        pipeline.makespan_cycles < image.makespan_cycles,
        "pipeline {} vs image {}",
        pipeline.makespan_cycles,
        image.makespan_cycles
    );
    assert!(pipeline.staging_hidden_cycles > 0);
    assert_eq!(pipeline.layer_bubbles.len(), 2, "one bubble entry per stage");
}

/// Streaming a batch through the pipeline hides per-image weight
/// staging entirely after the fill: hidden staging grows with the batch
/// while exposed staging stays the fill cost.
#[test]
fn pipeline_placement_hides_weight_staging_across_a_batch() {
    let (qnet, inputs) = quantized(0.7, 66, 6);
    let shards = Session::builder(config(2048, 2));
    let report = run_placed(&shards, &qnet, &inputs, Placement::Pipeline).expect("runs");
    let staged_serial: u64 = report.items.iter().map(weight_dma_total).sum();
    assert_eq!(report.staging_exposed_cycles + report.staging_hidden_cycles, staged_serial);
    assert!(report.staging_hidden_cycles > report.staging_exposed_cycles);
    assert!(report.speedup() > 1.0, "speedup {}", report.speedup());
    // The timeline is self-consistent: no instance is busy longer than
    // the makespan.
    for &b in &report.per_instance_busy {
        assert!(b <= report.makespan_cycles);
    }
}

/// One injected `dma:xfer` fault surfaces as the same stable code under
/// every placement and backend: placement never changes the first
/// image's descriptor prefix, and fault detection is value-independent.
#[test]
fn dma_faults_surface_identically_across_placements() {
    let (qnet, inputs) = quantized(0.6, 11, 2);
    for (kind, want_code) in [
        (FaultKind::DmaTruncate { tiles: 1 }, "dma.truncated"),
        (FaultKind::DmaCorrupt { xor: 0x40 }, "dma.parity"),
    ] {
        for at in [0, 2, 5] {
            for backend in BackendKind::ALL {
                let mut codes = Vec::new();
                for placement in [Placement::Stripe, Placement::Image, Placement::Pipeline] {
                    let plan = FaultPlan::new().inject("dma:xfer", at, kind).shared();
                    let shards = Session::builder(config(2048, 2)).backend(backend).fault_plan(plan.clone());
                    let err = run_placed(&shards, &qnet, &inputs, placement).unwrap_err();
                    assert!(err.is_transient(), "{backend}/{placement}: DMA faults are transient");
                    assert_eq!(
                        plan.lock().unwrap().fired().len(),
                        1,
                        "{backend}/{placement}: exactly one fault fired"
                    );
                    codes.push(err.code());
                }
                assert_eq!(codes, vec![want_code; 3], "fault {kind:?} at {at} on {backend}");
            }
        }
    }
}

/// The session surface routes placement and instance count end to end.
#[test]
fn session_run_batch_matches_infer() {
    let (qnet, inputs) = quantized(0.5, 77, 3);
    let session =
        Session::builder(config(1024, 2)).placement(Placement::Pipeline).build().expect("valid config");
    assert_eq!(session.batch_config().placement, Placement::Pipeline);
    assert_eq!(session.driver().config.instances, 2);
    let report = session.run_batch(&qnet, &inputs).expect("runs");
    assert_eq!(report.placement, Placement::Pipeline);
    assert_eq!(report.instances, 2);
    // Bit-identical to the one-at-a-time session surface on one instance
    // of the same banks.
    let single = Session::builder(config(1024, 1)).build().expect("valid config");
    for (item, input) in report.items.iter().zip(&inputs) {
        let want = single.infer(&qnet, input).expect("runs");
        assert_eq!(item.output, want.output);
        assert_eq!(item.total_cycles, want.total_cycles);
    }
}
