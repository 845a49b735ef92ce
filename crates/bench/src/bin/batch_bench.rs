//! Batch + serve + sharding benchmark — emits `BENCH_batch.json`.
//!
//! Three measurements. The first two run the ResNet-18 DAG
//! (`specs/resnet18.json`) on the cpu backend — a ≈ 5 ms image, so the
//! engine's own structure (queue, threads, arenas) is a visible share and
//! a daemon that wastes a millisecond per request shows; the third runs
//! the scaled VGG-16 on the model backend, in simulated time:
//!
//! 1. **Batch engine**: a batch of inferences through the worker loop
//!    vs. the same inputs run sequentially — images/sec and
//!    simulated-cycles/sec.
//! 2. **Serving daemon**: the same workload offered to a `ServeEngine`
//!    at *paced* arrival rates (fractions of the measured capacity) —
//!    served images/sec and p50/p99 request latency per point, plus the
//!    efficiency of the saturated point against the raw batch engine.
//!    Pacing matters: a burst submitted all at once makes p50 half the
//!    burst's wall; spacing arrivals at the stated rate makes the
//!    percentiles measure queueing + service, which is what an operator
//!    sizes against.
//! 3. **Multi-accelerator sharding**: the placement scheduler
//!    (`docs/SCHEDULER.md`) over N simulated instances in simulated
//!    time — image-parallel images/s scaling at N = 1/2/4/8 with the
//!    cost model's device and derated clock per point, and the
//!    layer-pipelined placement's single-image latency and hidden
//!    weight-staging against image-parallel at N = 4.
//!
//! The batch and serve figures are medians over ten pairs of a raw batch
//! round and a served round, alternating which goes first, each round
//! repeating its 48-image burst for 0.1 s (and a sequential round behind
//! each pair): one ≈ 25 ms burst per figure swung by a fifth from run to
//! run. The paced points are one burst each.
//!
//! Kernel-level timings live in `kernel_bench` / `BENCH_kernels.json`.
//!
//! ```sh
//! cargo run --release --bin batch_bench            # full benchmark
//! cargo run --release --bin batch_bench -- --check # regression guard
//! ```
//!
//! `--check` runs a reduced workload and exits nonzero if (a) the
//! serving layer (bounded queue + resident workers) delivers less than
//! 0.9x the raw batch engine's throughput on the cpu-backend ResNet-18
//! workload — the median of ten served / raw ratios, each from a pair of
//! back-to-back rounds whose order alternates —, or (b) the sharding scheduler misses
//! its floors: 4-instance image-parallel >= 2.5x single-instance
//! simulated images/s, pipeline beating image-parallel on single-image
//! latency, and nonzero hidden weight staging. The sharding gates run in
//! simulated time, so they are deterministic and strict. This is the
//! guard wired into `scripts/verify.sh`.
//!
//! Writes `BENCH_batch.json` plus the `experiments/batch_bench.txt` rendering under the
//! working directory: run it from the repository root to update the
//! committed ones.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use zskip_bench::write_bench_artifacts;
use zskip_core::{
    AccelConfig, BackendKind, CostModel, Placement, ServeEngine, ServeReply, Session,
};
use zskip_hls::Variant;
use zskip_json::{Json, ToJson};
use zskip_nn::eval::synthetic_inputs;
use zskip_nn::model::{QuantizedNetwork, SyntheticModelConfig, WeightCode};
use zskip_nn::vgg16::vgg16_scaled_spec;
use zskip_nn::{NetworkSpec, Scales};
use zskip_quant::DensityProfile;
use zskip_tensor::Tensor;

struct BatchResult {
    images: usize,
    workers: usize,
    wall_s: f64,
    images_per_s: f64,
    sim_cycles_per_s: f64,
    sequential_wall_s: f64,
    sequential_images_per_s: f64,
    parallel_speedup: f64,
}

impl ToJson for BatchResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("images", self.images.to_json()),
            ("workers", self.workers.to_json()),
            ("wall_s", self.wall_s.to_json()),
            ("images_per_s", self.images_per_s.to_json()),
            ("sim_cycles_per_s", self.sim_cycles_per_s.to_json()),
            ("sequential_wall_s", self.sequential_wall_s.to_json()),
            ("sequential_images_per_s", self.sequential_images_per_s.to_json()),
            ("parallel_speedup", self.parallel_speedup.to_json()),
        ])
    }
}

/// One offered-load point of the serving sweep: `offered` requests
/// arriving at `offered_per_s` against a fresh engine.
struct ServePoint {
    offered: usize,
    /// Paced arrival rate; `f64::INFINITY` marks an unpaced burst
    /// (saturation point).
    offered_per_s: f64,
    wall_s: f64,
    images_per_s: f64,
    p50_us: u64,
    p99_us: u64,
}

impl ToJson for ServePoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("offered", self.offered.to_json()),
            (
                "offered_per_s",
                if self.offered_per_s.is_finite() {
                    self.offered_per_s.to_json()
                } else {
                    Json::Str("saturated".into())
                },
            ),
            ("wall_s", self.wall_s.to_json()),
            ("images_per_s", self.images_per_s.to_json()),
            ("p50_us", self.p50_us.to_json()),
            ("p99_us", self.p99_us.to_json()),
        ])
    }
}

struct ServeResult {
    points: Vec<ServePoint>,
    best_images_per_s: f64,
    raw_images_per_s: f64,
    /// The median of the paired rounds' served / raw ratios (what
    /// `--check` gates).
    efficiency: f64,
}

impl ToJson for ServeResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("points", self.points.to_json()),
            ("best_images_per_s", self.best_images_per_s.to_json()),
            ("raw_images_per_s", self.raw_images_per_s.to_json()),
            ("efficiency", self.efficiency.to_json()),
        ])
    }
}

/// One image-parallel scaling point: N instances of the 256-opt
/// datapath, bank RAM divided, clock from the scale-out cost model.
struct ShardPoint {
    instances: usize,
    placement: String,
    device: String,
    clock_mhz: f64,
    images: usize,
    makespan_cycles: u64,
    sim_images_per_s: f64,
    /// Simulated images/s over the 1-instance point's.
    scaling: f64,
    /// Mean busy fraction across instances.
    utilization: f64,
}

impl ToJson for ShardPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("instances", self.instances.to_json()),
            ("placement", self.placement.to_json()),
            ("device", self.device.to_json()),
            ("clock_mhz", self.clock_mhz.to_json()),
            ("images", self.images.to_json()),
            ("makespan_cycles", self.makespan_cycles.to_json()),
            ("sim_images_per_s", self.sim_images_per_s.to_json()),
            ("scaling", self.scaling.to_json()),
            ("utilization", self.utilization.to_json()),
        ])
    }
}

/// The sharding section: image-parallel scaling sweep plus the
/// layer-pipelined placement's latency and staging numbers at N = 4.
struct ShardingResult {
    image_points: Vec<ShardPoint>,
    /// 4-instance image-parallel simulated images/s over 1-instance;
    /// the `--check` gate requires >= 2.5.
    scaling_at_4: f64,
    /// Single-image makespans at N = 4: pipeline must beat image
    /// (which degrades to one instance at batch 1).
    pipeline_latency_cycles: u64,
    image_latency_cycles: u64,
    latency_gain: f64,
    /// Weight staging across an 8-image pipelined batch: cycles the
    /// serial schedule pays per image that the pipeline hides behind
    /// upstream compute vs. the fill cost it still exposes.
    staging_hidden_cycles: u64,
    staging_exposed_cycles: u64,
}

impl ToJson for ShardingResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("image_points", self.image_points.to_json()),
            ("scaling_at_4", self.scaling_at_4.to_json()),
            ("pipeline_latency_cycles", self.pipeline_latency_cycles.to_json()),
            ("image_latency_cycles", self.image_latency_cycles.to_json()),
            ("latency_gain", self.latency_gain.to_json()),
            ("staging_hidden_cycles", self.staging_hidden_cycles.to_json()),
            ("staging_exposed_cycles", self.staging_exposed_cycles.to_json()),
        ])
    }
}

struct Bench {
    batch: BatchResult,
    serve: ServeResult,
    sharding: ShardingResult,
}

impl ToJson for Bench {
    fn to_json(&self) -> Json {
        Json::obj([
            ("batch", self.batch.to_json()),
            ("serve", self.serve.to_json()),
            ("sharding", self.sharding.to_json()),
        ])
    }
}

/// `spec` with seed-1 synthetic weights at `density`, quantized on one
/// calibration image, and a burst of inputs.
fn workload(spec: NetworkSpec, density: DensityProfile, images: usize) -> (Arc<QuantizedNetwork>, Vec<Tensor<f32>>) {
    let calib = synthetic_inputs(2, 1, spec.input);
    let qnet =
        QuantizedNetwork::synthetic(&spec, &SyntheticModelConfig { seed: 1, density }, Scales::Calibrate(&calib), WeightCode::Int8);
    (Arc::new(qnet), synthetic_inputs(3, images, spec.input))
}

/// The sharding measurement's workload: the scaled VGG-16, model backend.
fn vgg16_workload(images: usize) -> (Arc<QuantizedNetwork>, Vec<Tensor<f32>>) {
    workload(vgg16_scaled_spec(32), DensityProfile::deep_compression_vgg16(), images)
}

/// The batch, serve and `--check` workload: the in-repo ResNet-18 spec as
/// `zskip serve --network specs/resnet18.json` builds it, cpu backend.
fn resnet18_workload(images: usize) -> (Arc<QuantizedNetwork>, Vec<Tensor<f32>>) {
    let spec = NetworkSpec::from_json(include_str!("../../../../specs/resnet18.json")).expect("the in-repo spec");
    let density = DensityProfile::uniform(spec.conv_layers().len(), 0.35);
    workload(spec, density, images)
}

fn cpu_session() -> Session {
    Session::builder(AccelConfig::for_variant_instances(Variant::U256Opt, 1)).backend(BackendKind::Cpu).build().expect("valid config")
}

/// The batch section from the paired rounds: the raw engine's and the
/// sequential loop's median round, and the one burst's simulated cycles.
/// The batch's outputs must equal the sequential ones.
fn bench_batch(qnet: &QuantizedNetwork, inputs: &[Tensor<f32>], rounds: &mut Rounds) -> BatchResult {
    let images = inputs.len();
    let session = cpu_session();
    let report = session.run_batch(qnet, inputs).expect("fits");
    for (par, input) in report.items.iter().zip(inputs) {
        assert_eq!(par.output, session.infer(qnet, input).expect("fits").output, "batch must be bit-identical to sequential");
    }
    let images_per_s = median(&mut rounds.raw);
    let sequential_images_per_s = median(&mut rounds.sequential);
    BatchResult {
        images,
        workers: report.workers,
        wall_s: images as f64 / images_per_s,
        images_per_s,
        sim_cycles_per_s: report.total_cycles() as f64 * images_per_s / images as f64,
        sequential_wall_s: images as f64 / sequential_images_per_s,
        sequential_images_per_s,
        parallel_speedup: images_per_s / sequential_images_per_s,
    }
}

/// Offers `offered` requests to a fresh engine, paced at `offered_per_s`,
/// and measures served throughput and latency percentiles. Pacing is what
/// makes p50/p99 meaningful: a burst submitted in a tight loop makes the
/// median latency half the burst's wall time, whereas spaced arrivals
/// measure what each request actually waited (queueing + service).
fn serve_point(
    qnet: &Arc<QuantizedNetwork>,
    inputs: &[Tensor<f32>],
    offered: usize,
    offered_per_s: f64,
) -> ServePoint {
    let engine = ServeEngine::start(cpu_session(), Arc::clone(qnet));
    let handle = engine.handle();
    let (tx, rx) = mpsc::channel();
    let gap = Duration::from_secs_f64(1.0 / offered_per_s);
    let t0 = Instant::now();
    for i in 0..offered {
        // Pace against the absolute schedule, not the previous submit:
        // submit() returning late must not push every later arrival.
        let due = gap * i as u32;
        if let Some(wait) = due.checked_sub(t0.elapsed()) {
            std::thread::sleep(wait);
        }
        handle
            .submit(format!("b{i}"), inputs[i % inputs.len()].clone(), tx.clone())
            .expect("admitted");
    }
    drop(tx);
    let replies: Vec<ServeReply> = rx.iter().collect();
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(replies.len(), offered, "every offered request completes");
    assert!(replies.iter().all(|r| r.result.is_ok()), "serve bench requests must succeed");
    let stats = engine.join();
    ServePoint {
        offered,
        offered_per_s,
        wall_s,
        images_per_s: offered as f64 / wall_s,
        p50_us: stats.p50_us(),
        p99_us: stats.p99_us(),
    }
}

/// Offered-load sweep: paced arrivals at 0.5x and 0.9x of the raw batch
/// engine's median round (where latency percentiles measure queueing),
/// plus the saturation point, the served side of the paired rounds
/// (medians), whose median ratio to the raw side is the efficiency.
fn bench_serve(qnet: &Arc<QuantizedNetwork>, inputs: &[Tensor<f32>], rounds: &mut Rounds) -> ServeResult {
    let raw_images_per_s = median(&mut rounds.raw);
    let mut points: Vec<ServePoint> =
        [0.5, 0.9].into_iter().map(|frac| serve_point(qnet, inputs, inputs.len(), raw_images_per_s * frac)).collect();
    let saturated = median(&mut rounds.served);
    points.push(ServePoint {
        offered: inputs.len(),
        offered_per_s: f64::INFINITY,
        wall_s: inputs.len() as f64 / saturated,
        images_per_s: saturated,
        p50_us: median(&mut rounds.p50_us) as u64,
        p99_us: median(&mut rounds.p99_us) as u64,
    });
    let best_images_per_s = points.iter().map(|p| p.images_per_s).fold(0.0, f64::max);
    ServeResult { points, best_images_per_s, raw_images_per_s, efficiency: median(&mut rounds.ratios) }
}

/// Runs the placement scheduler over N simulated instances and reports
/// the simulated-time scaling. Everything here is deterministic: makespan
/// is simulated cycles at the cost model's clock, not host wall time.
fn bench_sharding(qnet: &QuantizedNetwork, inputs: &[Tensor<f32>]) -> ShardingResult {
    let sharded = |n: usize, placement: Placement, inputs: &[Tensor<f32>]| {
        let session = Session::builder(AccelConfig::for_variant_instances(Variant::U256Opt, n))
            .backend(BackendKind::Model)
            .placement(placement)
            .build()
            .expect("valid config");
        let report = session.run_batch(qnet, inputs).expect("fits");
        (report, session.driver().config)
    };
    let mut image_points = Vec::new();
    let mut one_images_per_s = 0.0f64;
    for n in [1usize, 2, 4, 8] {
        let cost = CostModel::for_instances(Variant::U256Opt, n);
        let (report, config) = sharded(n, Placement::Image, inputs);
        let sim_images_per_s = report.images_per_s(&config);
        if n == 1 {
            one_images_per_s = sim_images_per_s;
        }
        image_points.push(ShardPoint {
            instances: n,
            placement: report.placement.to_string(),
            device: cost.device.to_string(),
            clock_mhz: cost.clock_mhz,
            images: inputs.len(),
            makespan_cycles: report.makespan_cycles,
            sim_images_per_s,
            scaling: sim_images_per_s / one_images_per_s,
            utilization: report.utilization(),
        })
    }
    let scaling_at_4 =
        image_points.iter().find(|p| p.instances == 4).map(|p| p.scaling).unwrap_or(0.0);

    let single = &inputs[..1];
    let (image_lat, _) = sharded(4, Placement::Image, single);
    let (pipe_lat, _) = sharded(4, Placement::Pipeline, single);
    let (pipe_batch, _) = sharded(4, Placement::Pipeline, inputs);

    ShardingResult {
        image_points,
        scaling_at_4,
        pipeline_latency_cycles: pipe_lat.makespan_cycles,
        image_latency_cycles: image_lat.makespan_cycles,
        latency_gain: image_lat.makespan_cycles as f64 / pipe_lat.makespan_cycles as f64,
        staging_hidden_cycles: pipe_batch.staging_hidden_cycles,
        staging_exposed_cycles: pipe_batch.staging_exposed_cycles,
    }
}

/// The deterministic sharding floors of `--check`; returns the failures.
fn sharding_gate(s: &ShardingResult) -> Vec<String> {
    let mut fails = Vec::new();
    if s.scaling_at_4 < 2.5 {
        fails.push(format!(
            "4-instance image-parallel scaled {:.2}x over single-instance (need >= 2.5x)",
            s.scaling_at_4
        ));
    }
    if s.pipeline_latency_cycles >= s.image_latency_cycles {
        fails.push(format!(
            "pipeline single-image makespan {} did not beat image-parallel {}",
            s.pipeline_latency_cycles, s.image_latency_cycles
        ));
    }
    if s.staging_hidden_cycles == 0 {
        fails.push("pipelined batch hid zero weight-staging cycles".into());
    }
    fails
}

/// Least wall time of one `--check` round. A 48-image ResNet-18-32 burst
/// takes ≈ 15 ms on a 2-core host, so a single scheduler hiccup or
/// neighbour burst would be a large share of it; each round repeats its
/// burst until this much time has passed.
const ROUND_S: f64 = 0.1;

/// Runs `burst`, which completes `images` images, back to back until
/// [`ROUND_S`] has passed; returns the round's images per second.
fn timed_round(images: usize, mut burst: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut done = 0;
    while done == 0 || t0.elapsed().as_secs_f64() < ROUND_S {
        burst();
        done += images;
    }
    done as f64 / t0.elapsed().as_secs_f64()
}

/// One served round: the whole burst submitted to one resident engine
/// and drained, again and again for [`ROUND_S`]. Returns the round's
/// images per second and its p50 and p99 request latencies.
fn served_round(qnet: &Arc<QuantizedNetwork>, inputs: &[Tensor<f32>]) -> (f64, u64, u64) {
    let engine = ServeEngine::start(cpu_session(), Arc::clone(qnet));
    let handle = engine.handle();
    let images_per_s = timed_round(inputs.len(), || {
        let (tx, rx) = mpsc::channel();
        for (i, input) in inputs.iter().enumerate() {
            handle.submit(format!("b{i}"), input.clone(), tx.clone()).expect("admitted");
        }
        drop(tx);
        let replies: Vec<ServeReply> = rx.iter().collect();
        assert_eq!(replies.len(), inputs.len(), "every submitted request completes");
        assert!(replies.iter().all(|r| r.result.is_ok()), "check requests must succeed");
    });
    let stats = engine.join();
    (images_per_s, stats.p50_us(), stats.p99_us())
}

/// Pairs of rounds [`paired_rounds`] runs.
const PAIRS: usize = 10;

/// Per-round figures of [`paired_rounds`], in pair order.
#[derive(Default)]
struct Rounds {
    /// The raw batch engine's images per second.
    raw: Vec<f64>,
    /// The serving daemon's images per second, p50 and p99 latencies.
    served: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    /// Each pair's served / raw.
    ratios: Vec<f64>,
    /// The one-image-at-a-time loop's images per second, a round after
    /// each pair (none under `--check`).
    sequential: Vec<f64>,
}

/// [`PAIRS`] pairs of a raw batch round and a served round on `inputs`,
/// alternating which goes first, each round repeating its burst for
/// [`ROUND_S`] (and, with `sequential`, a round of one `infer` after
/// another behind each pair). The two rounds of a pair run back to back,
/// so a change in the host's speed between pairs moves both sides of a
/// ratio; the figures recorded are medians over the pairs. The layers'
/// packed images and the stats record are warmed first, so no round pays
/// them.
fn paired_rounds(qnet: &Arc<QuantizedNetwork>, inputs: &[Tensor<f32>], sequential: bool) -> Rounds {
    let session = cpu_session();
    session.infer(qnet, &inputs[0]).expect("fits");
    let raw_round = || {
        timed_round(inputs.len(), || {
            session.run_batch(qnet, inputs).expect("fits");
        })
    };
    let mut rounds = Rounds::default();
    for pair in 0..PAIRS {
        let ((served, p50, p99), raw) = if pair % 2 == 0 {
            let raw = raw_round();
            (served_round(qnet, inputs), raw)
        } else {
            (served_round(qnet, inputs), raw_round())
        };
        rounds.raw.push(raw);
        rounds.served.push(served);
        rounds.p50_us.push(p50 as f64);
        rounds.p99_us.push(p99 as f64);
        rounds.ratios.push(served / raw);
        if sequential {
            rounds.sequential.push(timed_round(inputs.len(), || {
                for input in inputs {
                    session.infer(qnet, input).expect("fits");
                }
            }));
        }
    }
    rounds
}

/// The median of `values`, which it sorts.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    (values[(n - 1) / 2] + values[n / 2]) / 2.0
}

/// Fast regression guard for `scripts/verify.sh`: exit nonzero if the
/// serving layer (bounded queue + resident workers) delivers less than
/// 0.9x the raw batch engine's throughput on a burst of cpu-backend
/// ResNet-18 images, in the median of ten alternated pairs of rounds, or
/// the sharding scheduler misses its simulated-time floors. Both sides
/// of the serve comparison run the same worker loop, so what the bound
/// holds is the daemon's own cost per request (the queue, the input
/// copy, the reply); the sharding floors are deterministic.
fn check() -> ! {
    // A burst the default queue depth (64) admits whole. Gated on the
    // median of the pairs' served / raw ratios: best against best
    // compared rounds from different moments, and the raw side's best
    // moves by a third from run to run with the host.
    let (qnet, inputs) = resnet18_workload(48);
    let Rounds { mut raw, mut served, mut p99_us, mut ratios, .. } = paired_rounds(&qnet, &inputs, false);
    let listed: Vec<String> = ratios.iter().map(|r| format!("{r:.2}")).collect();
    println!("check: served / raw batch per pair, raw first in even pairs: {}", listed.join(" "));
    let efficiency = median(&mut ratios);
    println!(
        "check: medians raw batch {:.1} images/s, served {:.1} images/s, p99 {:.0} us; median pair {efficiency:.2}x",
        median(&mut raw),
        median(&mut served),
        median(&mut p99_us)
    );
    let mut fails = Vec::new();
    if efficiency < 0.9 {
        fails.push(format!(
            "served throughput {efficiency:.2}x of the raw batch engine, median of ten pairs (need >= 0.9x)"
        ));
    }
    let (vgg16, images) = vgg16_workload(4);
    let sharding = bench_sharding(&vgg16, &images);
    println!(
        "check: sharding image-parallel x4 {:.2}x, pipeline/image latency {}/{} cycles, staging hidden {}",
        sharding.scaling_at_4,
        sharding.pipeline_latency_cycles,
        sharding.image_latency_cycles,
        sharding.staging_hidden_cycles
    );
    fails.extend(sharding_gate(&sharding));
    if !fails.is_empty() {
        for f in &fails {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        check();
    }

    let (qnet, inputs) = resnet18_workload(48);
    let mut rounds = paired_rounds(&qnet, &inputs, true);
    let batch = bench_batch(&qnet, &inputs, &mut rounds);
    let serve = bench_serve(&qnet, &inputs, &mut rounds);
    let (vgg16, images) = vgg16_workload(8);
    let sharding = bench_sharding(&vgg16, &images);
    let bench = Bench { batch, serve, sharding };

    let mut text = String::new();
    text.push_str("Batch + serve + sharding throughput\n\n");
    let b = &bench.batch;
    text.push_str(&format!(
        "batch: {} x resnet18-32 (cpu backend), {} worker(s): {:.1} images/s, {:.1}M sim cycles/s (medians of {PAIRS} rounds)\n",
        b.images,
        b.workers,
        b.images_per_s,
        b.sim_cycles_per_s / 1e6,
    ));
    text.push_str(&format!(
        "       sequential {:.1} images/s -> parallel speedup {:.2}x\n\n",
        b.sequential_images_per_s, b.parallel_speedup
    ));
    text.push_str("serve: paced offered-load sweep through the daemon, same workload\n");
    for p in &bench.serve.points {
        let rate = if p.offered_per_s.is_finite() {
            format!("{:.1}/s", p.offered_per_s)
        } else {
            "burst".into()
        };
        text.push_str(&format!(
            "       {:>2} offered at {:>7}: {:.1} images/s, p50 {} us, p99 {} us\n",
            p.offered, rate, p.images_per_s, p.p50_us, p.p99_us
        ));
    }
    text.push_str(&format!(
        "       saturated best {:.1} images/s; served / raw batch engine {:.2}x (median of {PAIRS} paired rounds)\n\n",
        bench.serve.best_images_per_s, bench.serve.efficiency
    ));
    text.push_str("sharding: placement scheduler over N instances (vgg16-32, simulated time)\n");
    for p in &bench.sharding.image_points {
        text.push_str(&format!(
            "       {} x 256-opt ({}, {:.0} MHz): {:.1} sim images/s, {:.2}x scaling, {:.0}% utilization\n",
            p.instances,
            p.device,
            p.clock_mhz,
            p.sim_images_per_s,
            p.scaling,
            p.utilization * 100.0
        ));
    }
    let s = &bench.sharding;
    text.push_str(&format!(
        "       pipeline vs image at 4 instances, 1 image: {} vs {} cycles ({:.2}x latency gain)\n",
        s.pipeline_latency_cycles, s.image_latency_cycles, s.latency_gain
    ));
    text.push_str(&format!(
        "       pipelined batch weight staging: {} cycles hidden, {} exposed\n",
        s.staging_hidden_cycles, s.staging_exposed_cycles
    ));
    print!("{text}");

    write_bench_artifacts("batch_bench", "BENCH_batch.json", &text, &bench);
}
