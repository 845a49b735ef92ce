//! Per-layer probes of the traced run: each times (or reads counts
//! around) calls into one layer's public functions from outside, records
//! spans for them, and sets that layer's metrics. Nothing here runs with
//! tracing off.

use zskip::accel::driver::SocHandle;
use zskip::accel::serve::wire::{self, WireRequest};
use zskip::accel::{
    weight_cache_stats, BackendKind, GroupWeights, InferenceReport, PoolPadOp, RequestStats,
    ServeReply, Session, TunedConfig,
};
use zskip::nn::conv::{conv2d_quant_into, conv2d_quant_into_pool, QuantConvWeights};
use zskip::nn::eltwise::{add_quant_phase1, add_quant_phase2, global_avgpool_quant_into};
use zskip::nn::fc::{fc_quant_into, QuantFcWeights};
use zskip::nn::gemm::{conv2d_gemm_quant_pool, conv2d_gemm_quant_tier};
use zskip::nn::model::QuantizedNetwork;
use zskip::nn::pool::maxpool_quant_into;
use zskip::nn::{ExecPlan, KernelTier, LayerSpec, NetworkSpec, PlanStep, Scratch};
use zskip::quant::Sm8;
use zskip::tensor::{Shape, Tensor, TiledFeatureMap};

use crate::contract::Layers;
use crate::net;
use crate::spans::{Recorder, Track};
use crate::stats::median;

/// Repetitions of a cheap probe; its metric is the median.
const REPS: usize = 5;

fn ms(us: f64) -> f64 {
    us / 1e3
}

/// Set-up with a span per stage: spec load (when `spec_json` is given),
/// weight synthesis, quantization, plan build, session build. The plan
/// is built a second time to time it — `quantize` already built one.
pub fn traced_setup(
    rec: &mut Recorder,
    layers: &mut Layers,
    spec_json: Option<&str>,
    backend: BackendKind,
) -> Result<(QuantizedNetwork, Session), String> {
    let root = rec.enter("setup", "", None);
    let spec = match spec_json {
        Some(text) => {
            let (spec, us) = rec.time("nn.spec_io.load", "", None, || NetworkSpec::from_json(text));
            layers.set("nn.spec_io.load_ms", ms(us));
            spec.map_err(|e| format!("{}: {e}", net::RESNET18_SPEC))?
        }
        None => net::vgg16_spec(),
    };
    let (float_net, us) = rec.time("nn.model.synthetic", "", None, || net::synthesize(&spec));
    layers.set("nn.model.synthetic_s", us / 1e6);
    let (qnet, us) = rec.time("nn.model.quantize", "", None, || net::quantize(float_net));
    layers.set("nn.model.quantize_s", us / 1e6);
    let (plan, us) = rec.time("nn.plan.build", "", None, || ExecPlan::build(&qnet.spec));
    plan.map_err(|e| format!("plan build failed: {e}"))?;
    layers.set("nn.plan.build_us", us);
    let (session, us) = rec.time("core.session.build", "", None, || net::session(backend));
    layers.set("core.session.build_us", us);
    rec.exit(root);
    Ok((qnet, session?))
}

/// A stats-only session (model backend, arithmetic off) of the default
/// variant: what the cpu backend charges cycles with. One thread: the
/// model backend computes nothing on the host, and `Driver::conv_pass`
/// would otherwise start a worker pool per call.
fn stats_session(zero_skipping: bool) -> Result<Session, String> {
    TunedConfig {
        backend: BackendKind::Model,
        threads: 1,
        ..TunedConfig::default()
    }
    .session()
    .functional(false)
    .zero_skipping(zero_skipping)
    .build()
    .map_err(|e| format!("stats-only session build failed: {e}"))
}

/// The modelled design's own figures for one image, read from the
/// inference report; each network layer also becomes a span on the
/// simulated-accelerator track carrying its counts as args.
pub fn accel(
    rec: &mut Recorder,
    layers: &mut Layers,
    qnet: &QuantizedNetwork,
    image: &Tensor<f32>,
) -> Result<(), String> {
    let session = stats_session(true)?;
    let report = session
        .infer(qnet, image)
        .map_err(|e| format!("stats-only inference failed: {e}"))?;
    let no_skip = stats_session(false)?
        .infer(qnet, image)
        .map_err(|e| format!("no-skip stats-only inference failed: {e}"))?;
    let config = &session.driver().config;
    let sum = |f: fn(&zskip::accel::PassStats) -> u64| {
        report.layers.iter().map(|l| f(&l.stats)).sum::<u64>() as f64
    };
    layers.set("accel.compute_cycles", sum(|s| s.compute_cycles));
    layers.set("accel.io_dma_cycles", sum(|s| s.io_dma_cycles));
    layers.set("accel.weight_dma_cycles", sum(|s| s.weight_dma_cycles));
    layers.set("accel.stripes", sum(|s| s.stripes as u64));
    layers.set("accel.mac_utilization", report.mean_mac_activity(config));
    layers.set(
        "accel.zero_skip_speedup",
        no_skip.total_cycles as f64 / report.total_cycles as f64,
    );

    let us_per_cycle = config.cycle_seconds() * 1e6;
    let mut at = rec.now_us();
    for l in &report.layers {
        let dur = l.stats.total_cycles as f64 * us_per_cycle;
        let id = rec.add("accel.layer", &l.name, at, at + dur, None, None);
        let span = rec.span_mut(id);
        span.track = Track::Accel;
        span.args = vec![
            ("total_cycles".into(), l.stats.total_cycles as f64),
            ("compute_cycles".into(), l.stats.compute_cycles as f64),
            ("io_dma_cycles".into(), l.stats.io_dma_cycles as f64),
            ("weight_dma_cycles".into(), l.stats.weight_dma_cycles as f64),
            ("stripes".into(), l.stats.stripes as f64),
            ("dense_macs".into(), l.dense_macs as f64),
        ];
        at += dur;
    }
    Ok(())
}

/// Packs every OFM group of every conv layer the way the first image
/// does on a weight-cache miss.
pub fn pack_all(rec: &mut Recorder, layers: &mut Layers, qnet: &QuantizedNetwork, lanes: usize) {
    let ((), us) = rec.time("quant.pack_all", "", None, || {
        for conv in &qnet.conv {
            for first in (0..conv.weights.out_c).step_by(lanes) {
                std::hint::black_box(GroupWeights::from_filters(&conv.weights, first, lanes));
            }
        }
    });
    layers.set("quant.pack_all_ms", ms(us));
}

/// What a plan step makes the cpu backend do, with inputs of the right
/// shape ready: the accelerator passes it issues (each pays a stats pass
/// and a tiled <-> dense round trip) and the kernel it dispatches.
struct StepWork<'a> {
    step: &'a PlanStep,
    layer: &'a LayerSpec,
    /// Index into [`KERNEL_SPANS`] of the kernel it dispatches.
    kernel: usize,
    /// Conv: the pre-padded input. Others: the layer's input.
    input: Tensor<Sm8>,
    /// Second operand of an `Add`.
    operand: Option<Tensor<Sm8>>,
    /// Quantized weights of a conv layer.
    conv: Option<&'a QuantConvWeights>,
    /// Quantized weights of an FC layer.
    fc: Option<&'a QuantFcWeights>,
    /// `(input, op, output shape)` of each accelerator pass; `op` is
    /// `None` for the conv pass itself.
    passes: Vec<(TiledFeatureMap<Sm8>, Option<PoolPadOp>, Shape)>,
}

/// Span names of the kernel buckets; the metric of each is its name
/// with `_ms` appended.
const KERNEL_SPANS: [&str; 5] = [
    "nn.kernels.conv",
    "nn.kernels.conv1x1",
    "nn.kernels.pool",
    "nn.kernels.fc",
    "nn.kernels.eltwise",
];

/// The [`KERNEL_SPANS`] bucket of the kernel a layer dispatches to, or
/// `None` for layers that run no kernel (`Ref`, `Softmax`).
fn kernel_bucket(layer: &LayerSpec) -> Option<usize> {
    match layer {
        LayerSpec::Conv { k: 1, .. } => Some(1),
        LayerSpec::Conv { .. } => Some(0),
        LayerSpec::MaxPool { .. } => Some(2),
        LayerSpec::Fc { .. } => Some(3),
        LayerSpec::Add { .. } | LayerSpec::GlobalAvgPool { .. } => Some(4),
        LayerSpec::Ref { .. } | LayerSpec::Softmax | LayerSpec::BatchNorm { .. } => None,
    }
}

fn step_work(qnet: &QuantizedNetwork) -> Result<Vec<StepWork<'_>>, String> {
    let shapes = qnet
        .spec
        .shapes()
        .map_err(|e| format!("shape propagation failed: {e}"))?;
    let mut rng = net::SplitMix64(0x6b65_726e);
    let (mut conv_i, mut fc_i) = (0, 0);
    let mut work = Vec::new();
    for step in &qnet.plan.steps {
        let layer = &qnet.spec.layers[step.layer];
        let Some(kernel) = kernel_bucket(layer) else {
            continue;
        };
        let (in_shape, out_shape) = (shapes[step.layer], shapes[step.layer + 1]);
        let input = net::activation(&mut rng, in_shape);
        let tiled = TiledFeatureMap::from_tensor;
        let mut w = StepWork {
            step,
            layer,
            kernel,
            input,
            operand: None,
            conv: None,
            fc: None,
            passes: Vec::new(),
        };
        match layer {
            LayerSpec::Conv { pad, .. } => {
                w.conv = Some(&qnet.conv[conv_i].weights);
                conv_i += 1;
                if *pad > 0 {
                    let padded = w.input.padded(*pad);
                    w.passes.push((
                        tiled(&w.input),
                        Some(PoolPadOp::Pad { amount: *pad as u8 }),
                        padded.shape(),
                    ));
                    w.input = padded;
                }
                w.passes.push((tiled(&w.input), None, out_shape));
            }
            LayerSpec::MaxPool { k, stride, .. } => {
                w.passes.push((
                    tiled(&w.input),
                    Some(PoolPadOp::MaxPool {
                        k: *k as u8,
                        stride: *stride as u8,
                    }),
                    out_shape,
                ));
            }
            LayerSpec::Fc { .. } => {
                w.fc = Some(&qnet.fc[fc_i]);
                fc_i += 1;
            }
            LayerSpec::Add { .. } => w.operand = Some(net::activation(&mut rng, in_shape)),
            _ => {}
        }
        work.push(w);
    }
    Ok(work)
}

/// Runs `sweep` [`REPS`] times; each call returns per-bucket µs sums.
/// Returns the per-bucket medians in ms.
fn median_sweep<const N: usize>(
    mut sweep: impl FnMut() -> Result<[f64; N], String>,
) -> Result<[f64; N], String> {
    let mut sums = Vec::new();
    for _ in 0..REPS {
        sums.push(sweep()?);
    }
    Ok(std::array::from_fn(|b| {
        ms(median(&sums.iter().map(|s| s[b]).collect::<Vec<_>>()))
    }))
}

/// Decomposes the cpu backend's warm per-image time `image_ms`: the
/// value-independent stats pass behind every accelerator pass, one call
/// per network layer to the kernel the backend dispatches at the
/// session's tier, and the tiled <-> dense layout conversion around
/// every pass. What is left is `core.exec.cpu.unattributed_ms` (reported
/// as measured, never clamped).
pub fn cpu_decomposition(
    rec: &mut Recorder,
    layers: &mut Layers,
    qnet: &QuantizedNetwork,
    session: &Session,
    image: &Tensor<f32>,
    image_ms: f64,
) -> Result<(), String> {
    let root = rec.enter("probe.cpu_decomposition", "", None);
    let infer_err = |e| format!("probe inference failed: {e}");

    // One warm image through the session under test: how often it finds
    // its packed group weights in the process-wide cache.
    let mut warm = Scratch::new();
    session
        .infer_scratch(qnet, image, &mut warm)
        .map_err(infer_err)?;
    let before = weight_cache_stats();
    session
        .infer_scratch(qnet, image, &mut warm)
        .map_err(infer_err)?;
    let after = weight_cache_stats();
    layers.set(
        "core.exec.weight_cache_hits",
        (after.hits - before.hits) as f64,
    );
    layers.set(
        "core.exec.weight_cache_misses",
        (after.misses - before.misses) as f64,
    );

    let work = step_work(qnet)?;

    // The stats pass: every accelerator pass through the staged pipeline
    // with its arithmetic off, exactly what the cpu backend charges
    // cycles with.
    let stats = stats_session(true)?;
    let [stats_ms] = median_sweep(|| {
        let mut soc = SocHandle::new();
        let mut sum = 0.0;
        for w in &work {
            for (input, op, out_shape) in &w.passes {
                let (r, us) = rec.time("core.exec.stats_pass", w.layer.name(), None, || match op {
                    Some(op) => stats.driver().poolpad_pass(
                        w.layer.name(),
                        input,
                        *op,
                        *out_shape,
                        &mut soc,
                    ),
                    None => stats.driver().conv_pass(
                        w.layer.name(),
                        input,
                        w.conv.expect("conv pass"),
                        *out_shape,
                        &mut soc,
                    ),
                });
                r.map_err(|e| format!("stats pass of {} failed: {e}", w.layer.name()))?;
                sum += us;
            }
        }
        Ok([sum])
    })?;
    layers.set("core.exec.stats_pass_ms", stats_ms);

    // The kernels, summed per KERNEL_SPANS bucket.
    let driver = session.driver();
    let mut arena = Scratch::with_tier(driver.kernel_tier);
    arena.set_threads(driver.threads);
    let mut fc_out = Vec::new();
    let kernel_ms = median_sweep(|| {
        let mut sum = [0.0; KERNEL_SPANS.len()];
        for w in &work {
            let (_, dst, acc, tier, pool) = arena.pass_buffers_pool();
            let ((), us) = rec.time(KERNEL_SPANS[w.kernel], w.layer.name(), None, || {
                match w.layer {
                    LayerSpec::Conv { .. } => {
                        let qw = w.conv.expect("conv layer");
                        if tier == KernelTier::Scalar {
                            match pool {
                                Some(p) => {
                                    conv2d_quant_into_pool(&w.input, qw, 1, 0, tier, p, acc, dst)
                                }
                                None => conv2d_quant_into(&w.input, qw, 1, 0, tier, acc, dst),
                            }
                        } else {
                            std::hint::black_box(match pool {
                                Some(p) => conv2d_gemm_quant_pool(&w.input, qw, 1, 0, tier, p),
                                None => conv2d_gemm_quant_tier(&w.input, qw, 1, 0, tier),
                            });
                        }
                    }
                    LayerSpec::MaxPool { k, stride, .. } => {
                        maxpool_quant_into(&w.input, *k, *stride, dst)
                    }
                    LayerSpec::Fc { .. } => {
                        fc_quant_into(w.input.as_slice(), w.fc.expect("fc layer"), &mut fc_out)
                    }
                    LayerSpec::Add { relu, .. } => {
                        let (ra, rb) = qnet.add_requantizers(w.step);
                        add_quant_phase1(&w.input, ra, acc);
                        add_quant_phase2(
                            w.operand.as_ref().expect("add has an operand"),
                            rb,
                            *relu,
                            acc,
                            dst,
                        );
                    }
                    LayerSpec::GlobalAvgPool { .. } => {
                        let s = w.input.shape();
                        global_avgpool_quant_into(
                            &w.input,
                            qnet.gap_requantizer(w.step, s.h * s.w),
                            dst,
                        );
                    }
                    _ => unreachable!("step_work keeps kernel layers only"),
                }
            });
            sum[w.kernel] += us;
        }
        Ok(sum)
    })?;
    for (span, ms) in KERNEL_SPANS.iter().zip(kernel_ms) {
        layers.set(&format!("{span}_ms"), ms);
    }
    let conv_macs: u64 = work
        .iter()
        .filter(|w| w.conv.is_some())
        .map(|w| w.layer.macs(w.passes[0].0.logical_shape()))
        .sum();
    layers.set(
        "nn.kernels.gmacs_per_s",
        conv_macs as f64 / 1e9 / ((kernel_ms[0] + kernel_ms[1]) / 1e3),
    );

    // Layout conversion: tiled -> dense on each pass's input, dense ->
    // tiled on its output.
    let [tile_ms] = median_sweep(|| {
        let mut sum = 0.0;
        for w in &work {
            for (input, _, out_shape) in &w.passes {
                let dense_out = Tensor::<Sm8>::zeros(out_shape.c, out_shape.h, out_shape.w);
                let ((), us) = rec.time("tensor.tile_convert", w.layer.name(), None, || {
                    std::hint::black_box(input.to_tensor());
                    std::hint::black_box(TiledFeatureMap::from_tensor(&dense_out));
                });
                sum += us;
            }
        }
        Ok([sum])
    })?;
    layers.set("tensor.tile_convert_ms", tile_ms);

    layers.set("core.exec.cpu.image_ms", image_ms);
    let kernels_ms: f64 = kernel_ms.iter().sum();
    layers.set(
        "core.exec.cpu.unattributed_ms",
        image_ms - (stats_ms + kernels_ms + tile_ms),
    );
    rec.exit(root);
    Ok(())
}

/// Steady-state cost of the software golden model on one image: the
/// floor under the cpu backend's warm per-image time.
pub fn golden_warm(
    rec: &mut Recorder,
    layers: &mut Layers,
    qnet: &QuantizedNetwork,
    session: &Session,
    image: &Tensor<f32>,
) {
    let mut scratch = Scratch::with_tier(session.kernel_tier());
    scratch.set_threads(session.driver().threads);
    let _ = qnet.forward_quant_scratch(image, &mut scratch);
    let us: Vec<f64> = (0..REPS)
        .map(|_| {
            rec.time("nn.model.golden_warm", "", None, || {
                std::hint::black_box(qnet.forward_quant_scratch(image, &mut scratch).len());
            })
            .1
        })
        .collect();
    layers.set("nn.model.golden_warm_ms", ms(median(&us)));
}

/// Cycle backend against the model backend on one image: how much host
/// time the detailed simulation costs, and how far the closed-form
/// model's cycle count is from it. `cycle_ms` and `cycle_report` come
/// from the traced cycle-backend loop.
pub fn sim(
    rec: &mut Recorder,
    layers: &mut Layers,
    qnet: &QuantizedNetwork,
    image: &Tensor<f32>,
    cycle_ms: f64,
    cycle_report: &InferenceReport,
) -> Result<(), String> {
    let model = net::session(BackendKind::Model)?;
    let mut scratch = Scratch::new();
    let mut us = Vec::new();
    let mut model_cycles = 0;
    for _ in 0..REPS {
        let (r, t) = rec.time("core.exec.model.image", "", None, || {
            model.infer_scratch(qnet, image, &mut scratch)
        });
        model_cycles = r
            .map_err(|e| format!("model-backend inference failed: {e}"))?
            .total_cycles;
        us.push(t);
    }
    layers.set("sim.host_ms_per_image", cycle_ms);
    layers.set("sim.slowdown_vs_model", cycle_ms / ms(median(&us)));
    let reference = cycle_report.total_cycles as f64;
    layers.set(
        "accel.model_error_ppm",
        (model_cycles as f64 - reference).abs() / reference * 1e6,
    );
    Ok(())
}

/// The raw batch engine on the workload's images, in process: the
/// ceiling the daemon's saturation throughput is held against.
pub fn batch(
    rec: &mut Recorder,
    layers: &mut Layers,
    qnet: &QuantizedNetwork,
    session: &Session,
    images: &[Tensor<f32>],
) -> Result<(), String> {
    let mut rates = Vec::new();
    let mut steals = 0;
    for _ in 0..REPS {
        let (report, us) = rec.time("core.batch.run", "", None, || {
            session.run_batch_resilient(qnet, images)
        });
        if report.succeeded() != images.len() {
            return Err(format!(
                "batch probe: {} of {} images failed",
                images.len() - report.succeeded(),
                images.len()
            ));
        }
        rates.push(images.len() as f64 / (us / 1e6));
        steals = report.steals;
    }
    layers.set("core.batch.images_per_s", median(&rates));
    layers.set("core.batch.steals", steals as f64);
    Ok(())
}

/// The wire layer on one raw-image request and one reply: parse, tensor
/// materialization, reply rendering.
pub fn wire(
    rec: &mut Recorder,
    layers: &mut Layers,
    request_line: &str,
    shape: Shape,
    report: &InferenceReport,
) -> Result<(), String> {
    const WIRE_REPS: usize = 25;
    let line = request_line.trim_end();
    layers.set("wire.request_bytes", request_line.len() as f64);
    let mut parse_us = Vec::new();
    let mut tensor_us = Vec::new();
    let mut render_us = Vec::new();
    let reply = ServeReply {
        id: "probe".into(),
        result: Ok(report.clone()),
        stats: RequestStats {
            queue_us: 1,
            batch_us: 1,
            batch_size: 1,
        },
    };
    for _ in 0..WIRE_REPS {
        let (parsed, us) = rec.time("wire.parse_request", "", None, || wire::parse_request(line));
        parse_us.push(us);
        let Ok(WireRequest::Infer { input, .. }) = parsed else {
            return Err("wire probe: the harness's own request line did not parse as infer".into());
        };
        let (tensor, us) = rec.time("wire.request_tensor", "", None, || {
            wire::request_tensor(&input, shape)
        });
        tensor.map_err(|e| format!("wire probe: {e}"))?;
        tensor_us.push(us);
        let (text, us) = rec.time("wire.render_reply", "", None, || wire::render_reply(&reply));
        std::hint::black_box(text);
        render_us.push(us);
    }
    layers.set("wire.parse_request_us", median(&parse_us));
    layers.set("wire.request_tensor_us", median(&tensor_us));
    layers.set("wire.render_reply_us", median(&render_us));
    Ok(())
}

/// Median warm per-image time (ms) of `session` over `images`, in
/// process — the figure [`cpu_decomposition`] splits up when the
/// workload itself is not an in-process loop.
pub fn warm_image_ms(
    rec: &mut Recorder,
    qnet: &QuantizedNetwork,
    session: &Session,
    images: &[Tensor<f32>],
) -> Result<f64, String> {
    let mut scratch = Scratch::new();
    let mut us = Vec::new();
    for (i, image) in images.iter().cycle().take(2 + 2 * images.len()).enumerate() {
        let (r, dur) = rec.time("core.exec.cpu.image", "", Some(i as u64), || {
            session.infer_scratch(qnet, image, &mut scratch)
        });
        r.map_err(|e| format!("probe inference failed: {e}"))?;
        if i >= 2 {
            us.push(dur);
        }
    }
    Ok(ms(median(&us)))
}
