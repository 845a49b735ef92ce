//! SIMD kernel-tier benchmark — emits `BENCH_kernels.json`.
//!
//! Measures the quantized datapath kernels at every CPU tier reachable on
//! this host (scalar / SSE2 / AVX2, see `docs/KERNELS.md`):
//!
//! * **GEMM**: `conv2d_gemm_quant_tier` per tier on five VGG-16-shaped
//!   conv layers at deep-compression densities — from a 32x32 plane down
//!   to the 4x4 and 2x2 planes of conv4_x / conv5_x — plus an fc7-shaped
//!   FC layer through the same body (`fc_quant_pool_into`), with the
//!   dense-equivalent GMAC/s of every row. Every tier runs the same
//!   output-stationary blocking (scalar with a portable dot); all tiers
//!   must be bit-identical (asserted here and property-tested in
//!   `crates/nn`).
//! * **Allocations per image**: heap allocations of one quantized forward
//!   pass through the allocating API vs. the [`Scratch`] arena after
//!   warm-up, counted by a counting global allocator. Steady state must
//!   be zero.
//! * **Driver backends**: end-to-end images/s through
//!   `Driver::run_network_scratch` on the scaled VGG-16 spec, per
//!   execution backend (model vs cpu). The cpu backend replaces the
//!   transaction model's per-tile functional sweep with the SIMD `_into`
//!   kernels and replays its memoized statistics on warm images, so it
//!   must be at least [`CPU_VS_MODEL_FLOOR`] times faster.
//! * **Intra-image threading**: cpu-backend latency at 1/2/4/8 workers
//!   (counts above the host's cores are reported `skipped`, not timed)
//!   plus the packed-group cache's hit/miss counters. Outputs are
//!   bit-identical at every width (asserted here; property-tested in
//!   `tests/kernel_tiers.rs`).
//! * **ResNet block**: the 1x1 projection conv (its lowering is a
//!   transpose of the input) on a bottleneck-reduce shape, plus the
//!   quantized residual-add cost relative to that conv.
//!
//! `--check` exits nonzero if any SIMD tier is slower than scalar on a
//! reference shape, any SIMD tier's GEMM is under 3x scalar on the two
//! deep conv shapes or the FC (the shapes whose columns are too few to
//! fill a vector), the steady-state pass allocates, the cpu backend is
//! under the floor against the model backend, or the auto-width
//! multithreaded latency regresses past the single-threaded one — wired
//! into `scripts/verify.sh`.
//!
//! Writes `BENCH_kernels.json` at the repository root plus the
//! `experiments/kernel_bench.txt` rendering.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use zskip_bench::{make_conv_layer, write_bench_artifacts};
use zskip_core::config::AccelConfig;
use zskip_core::driver::{BackendKind, Driver};
use zskip_core::weight_cache_stats;
use zskip_hls::Variant;
use zskip_json::{Json, ToJson};
use zskip_nn::eval::synthetic_inputs;
use zskip_nn::fc::{fc_quant_pool_into, QuantFcWeights};
use zskip_nn::gemm::{conv2d_gemm_quant_tier, GemmScratch};
use zskip_nn::model::{Network, QuantizedNetwork, SyntheticModelConfig};
use zskip_nn::simd::KernelTier;
use zskip_nn::vgg16::vgg16_scaled_spec;
use zskip_nn::{ConvPool, Scratch};
use zskip_quant::cache::CacheStats;
use zskip_quant::{DensityProfile, Requantizer, Sm8};
use zskip_tensor::Tensor;

/// Counts heap allocations so the zero-allocation contract is measurable
/// from a release binary, not just the counting-allocator test.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; only adds a counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One kernel × tier timing.
struct TierTiming {
    tier: &'static str,
    ms: f64,
    /// Scalar time over this tier's time (1.0 for scalar itself).
    speedup: f64,
    /// The layer's dense MAC count (zero weights included, whether or not
    /// the kernel skips them) per second of this timing.
    gmacs_per_s: f64,
}

impl ToJson for TierTiming {
    fn to_json(&self) -> Json {
        Json::obj([
            ("tier", self.tier.to_json()),
            ("ms", self.ms.to_json()),
            ("speedup", self.speedup.to_json()),
            ("gmacs_per_s", self.gmacs_per_s.to_json()),
        ])
    }
}

/// Times `run` at every supported tier (best of 5), asserting each tier's
/// output equal to the scalar tier's.
fn time_tiers<T: PartialEq + std::fmt::Debug>(
    what: &str,
    macs: usize,
    mut run: impl FnMut(KernelTier) -> T,
) -> Vec<TierTiming> {
    let mut timings: Vec<TierTiming> = Vec::new();
    let mut oracle = None;
    for tier in KernelTier::supported() {
        let (s, out) = time_best(|| run(tier));
        match &oracle {
            None => oracle = Some(out),
            Some(o) => assert_eq!(o, &out, "{what}: tier {tier} diverged from scalar"),
        }
        let ms = s * 1e3;
        let scalar_ms = timings.first().map_or(ms, |t| t.ms);
        timings.push(TierTiming { tier: tier.name(), ms, speedup: scalar_ms / ms, gmacs_per_s: macs as f64 / s / 1e9 });
    }
    timings
}

struct ShapeResult {
    layer: String,
    out_c: usize,
    in_c: usize,
    /// Output plane edge (1 for the FC row).
    hw: usize,
    density: f64,
    gemm: Vec<TierTiming>,
    best_tier: &'static str,
    /// Scalar-tier GEMM time over the best SIMD tier's.
    best_gemm_speedup: f64,
}

impl ShapeResult {
    fn new(layer: &str, (out_c, in_c, hw, density): (usize, usize, usize, f64), gemm: Vec<TierTiming>) -> Self {
        let best = gemm.iter().skip(1).min_by(|a, b| a.ms.total_cmp(&b.ms));
        let (best_tier, best_gemm_speedup) = best.map_or(("scalar", 1.0), |t| (t.tier, t.speedup));
        ShapeResult { layer: layer.to_string(), out_c, in_c, hw, density, gemm, best_tier, best_gemm_speedup }
    }

    /// Whether `--check` holds every SIMD tier's GEMM to
    /// [`DEEP_GEMM_FLOOR`] here: an output plane of at most 16 positions
    /// (conv4_x, conv5_x, FC), where a kernel vectorized along the plane
    /// would run in its scalar tail.
    fn is_deep(&self) -> bool {
        self.hw * self.hw <= 16
    }
}

impl ToJson for ShapeResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("layer", self.layer.to_json()),
            ("out_c", self.out_c.to_json()),
            ("in_c", self.in_c.to_json()),
            ("hw", self.hw.to_json()),
            ("density", self.density.to_json()),
            ("gemm", self.gemm.to_json()),
            ("best_tier", self.best_tier.to_json()),
            ("best_gemm_speedup", self.best_gemm_speedup.to_json()),
        ])
    }
}

struct AllocResult {
    /// Allocations for one image through the allocating `forward_quant`.
    allocating_per_image: u64,
    /// Allocations for one steady-state image through the scratch arena.
    scratch_steady_per_image: u64,
    /// Arena grow events after streaming several images (1 = warm-up only).
    grow_events: u64,
    /// Arena footprint after warm-up.
    arena_bytes: usize,
}

impl ToJson for AllocResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("allocating_per_image", self.allocating_per_image.to_json()),
            ("scratch_steady_per_image", self.scratch_steady_per_image.to_json()),
            ("grow_events", self.grow_events.to_json()),
            ("arena_bytes", self.arena_bytes.to_json()),
        ])
    }
}

/// One driver backend's end-to-end throughput on the scaled VGG spec.
struct BackendTiming {
    backend: &'static str,
    ms_per_image: f64,
    images_per_s: f64,
}

impl ToJson for BackendTiming {
    fn to_json(&self) -> Json {
        Json::obj([
            ("backend", self.backend.to_json()),
            ("ms_per_image", self.ms_per_image.to_json()),
            ("images_per_s", self.images_per_s.to_json()),
        ])
    }
}

struct CpuBackendResult {
    /// Input height/width of the scaled VGG-16 spec the backends ran.
    hw: usize,
    backends: Vec<BackendTiming>,
    /// Cpu images/s over model images/s (the `--check` acceptance
    /// number: must be >= [`CPU_VS_MODEL_FLOOR`]).
    cpu_speedup_vs_model: f64,
}

impl ToJson for CpuBackendResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("hw", self.hw.to_json()),
            ("backends", self.backends.to_json()),
            ("cpu_speedup_vs_model", self.cpu_speedup_vs_model.to_json()),
        ])
    }
}

fn cache_to_json(s: &CacheStats) -> Json {
    Json::obj([
        ("entries", s.entries.to_json()),
        ("hits", s.hits.to_json()),
        ("misses", s.misses.to_json()),
        ("bytes", s.bytes.to_json()),
    ])
}

/// Cpu-backend latency at one intra-image worker count; `None` when the
/// host has fewer cores than workers (the extra threads would only
/// time-slice, so the figure would say nothing about scaling).
struct WorkerTiming {
    workers: usize,
    ms_per_image: Option<f64>,
}

impl ToJson for WorkerTiming {
    fn to_json(&self) -> Json {
        let outcome = match self.ms_per_image {
            Some(ms) => ("ms_per_image", ms.to_json()),
            None => ("skipped", true.to_json()),
        };
        Json::obj([("workers", self.workers.to_json()), outcome])
    }
}

struct IntraImageResult {
    /// The host's available parallelism (`--threads 0`).
    auto_workers: usize,
    timings: Vec<WorkerTiming>,
    /// Auto-width latency over single-threaded latency; `--check`
    /// requires it to stay within a small noise tolerance of 1.
    mt_vs_single: f64,
    group_cache: CacheStats,
}

impl ToJson for IntraImageResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("auto_workers", self.auto_workers.to_json()),
            ("timings", self.timings.to_json()),
            ("mt_vs_single", self.mt_vs_single.to_json()),
            ("group_cache", cache_to_json(&self.group_cache)),
        ])
    }
}

/// The residual-block section: the 1x1 projection conv plus the
/// quantized residual-add overhead.
struct ResnetBlockResult {
    out_c: usize,
    in_c: usize,
    hw: usize,
    density: f64,
    tier: String,
    /// The pointwise GEMM (lowering = transpose of the input).
    pointwise_ms: f64,
    /// Quantized residual add of the two branch outputs.
    add_ms: f64,
    /// `add_ms / pointwise_ms` — the join cost relative to the conv.
    add_overhead_vs_conv: f64,
}

impl ToJson for ResnetBlockResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("out_c", self.out_c.to_json()),
            ("in_c", self.in_c.to_json()),
            ("hw", self.hw.to_json()),
            ("density", self.density.to_json()),
            ("tier", self.tier.to_json()),
            ("pointwise_ms", self.pointwise_ms.to_json()),
            ("add_ms", self.add_ms.to_json()),
            ("add_overhead_vs_conv", self.add_overhead_vs_conv.to_json()),
        ])
    }
}

struct Bench {
    host_tiers: Vec<String>,
    dispatch_tier: String,
    shapes: Vec<ShapeResult>,
    allocs: AllocResult,
    cpu_backend: CpuBackendResult,
    intra_image: IntraImageResult,
    resnet_block: ResnetBlockResult,
    /// Best SIMD GEMM speedup on the conv3_2-like shape (the acceptance
    /// number: must be >= 2x).
    conv3_2_gemm_speedup: f64,
}

impl ToJson for Bench {
    fn to_json(&self) -> Json {
        Json::obj([
            ("host_tiers", self.host_tiers.to_json()),
            ("dispatch_tier", self.dispatch_tier.to_json()),
            ("shapes", self.shapes.to_json()),
            ("allocs", self.allocs.to_json()),
            ("cpu_backend", self.cpu_backend.to_json()),
            ("intra_image", self.intra_image.to_json()),
            ("resnet_block", self.resnet_block.to_json()),
            ("conv3_2_gemm_speedup", self.conv3_2_gemm_speedup.to_json()),
        ])
    }
}

/// Best-of-5 wall time of `f`, in seconds.
fn time_best<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..5 {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        result = Some(r);
    }
    (best, result.expect("ran at least once"))
}

fn bench_shapes() -> Vec<ShapeResult> {
    let layers: [(&str, usize, usize, usize, f64); 5] = [
        ("conv1_1-like", 64, 3, 32, 0.58),
        ("conv2_2-like", 128, 128, 16, 0.36),
        ("conv3_2-like", 256, 256, 8, 0.29),
        ("conv4_2-like", 512, 512, 4, 0.27),
        ("conv5_2-like", 512, 512, 2, 0.29),
    ];
    let mut shapes: Vec<ShapeResult> = layers
        .into_iter()
        .map(|(name, out_c, in_c, hw, density)| {
            let (qw, tiled, _) = make_conv_layer(out_c, in_c, hw, density, 7);
            let input = tiled.to_tensor();
            let macs = out_c * in_c * 9 * hw * hw;
            let gemm = time_tiers(name, macs, |tier| conv2d_gemm_quant_tier(&input, &qw, 1, 0, tier));
            ShapeResult::new(name, (out_c, in_c, hw, density), gemm)
        })
        .collect();

    // fc7: the conv layers' GEMM body at one column, unpruned weights.
    let (out_features, in_features) = (4096, 4096);
    let mut rng = zskip_core::rng::SplitMix64::new(7);
    let mut sm8s = |n: usize| -> Vec<Sm8> {
        (0..n).map(|_| Sm8::from_i32_saturating((rng.next_u64() % 253) as i32 - 126)).collect()
    };
    let fc = QuantFcWeights {
        out_features,
        in_features,
        w: sm8s(out_features * in_features),
        bias_acc: vec![0; out_features],
        requant: Requantizer::from_ratio(1.0 / 4096.0),
        relu: true,
    };
    let input = sm8s(in_features);
    let mut ws = GemmScratch::default();
    let mut out = Vec::new();
    let gemm = time_tiers("fc7-like", out_features * in_features, |tier| {
        fc_quant_pool_into(&input, &fc, tier, None, &mut ws, &mut out);
        out.clone()
    });
    shapes.push(ShapeResult::new("fc7-like", (out_features, in_features, 1, 1.0), gemm));
    shapes
}

fn bench_allocs() -> AllocResult {
    let spec = vgg16_scaled_spec(32);
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed: 1, density: DensityProfile::deep_compression_vgg16() },
    );
    let qnet = net.quantize(&synthetic_inputs(2, 1, spec.input));
    let inputs = synthetic_inputs(3, 4, spec.input);

    let mut scratch = Scratch::new();
    // Warm-up image: grows the arena and fills the lazy weight caches.
    let _ = qnet.forward_quant_scratch(&inputs[0], &mut scratch);
    let arena_bytes = scratch.capacity_bytes();

    // Allocating API (one already-warm image, so only per-layer tensors).
    let before = ALLOCS.load(Ordering::Relaxed);
    let _ = qnet.forward_quant(&inputs[1]);
    let allocating_per_image = ALLOCS.load(Ordering::Relaxed) - before;

    // Scratch arena steady state over the remaining images.
    let mut scratch_steady_per_image = 0;
    for input in &inputs[1..] {
        let before = ALLOCS.load(Ordering::Relaxed);
        let _ = qnet.forward_quant_scratch(input, &mut scratch);
        scratch_steady_per_image = (ALLOCS.load(Ordering::Relaxed) - before).max(scratch_steady_per_image);
    }

    AllocResult {
        allocating_per_image,
        scratch_steady_per_image,
        grow_events: scratch.grow_events(),
        arena_bytes,
    }
}

/// The scaled VGG-16 end-to-end workload shared by the driver benches.
fn vgg_workload(hw: usize) -> (QuantizedNetwork, Vec<Tensor<f32>>, AccelConfig) {
    let spec = vgg16_scaled_spec(hw);
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed: 1, density: DensityProfile::deep_compression_vgg16() },
    );
    let qnet = net.quantize(&synthetic_inputs(2, 1, spec.input));
    let inputs = synthetic_inputs(5, 2, spec.input);
    (qnet, inputs, AccelConfig::for_variant(Variant::U256Opt))
}

/// Best-of-5 ms/image of `driver` over `inputs` on a warmed scratch,
/// returning the warm-up image's output for bit-identity checks.
fn drive_ms_per_image(
    driver: &Driver,
    qnet: &QuantizedNetwork,
    inputs: &[Tensor<f32>],
) -> (f64, Vec<Sm8>) {
    let mut scratch = Scratch::new();
    // Warm-up image: grows the arena, the worker pool and the caches.
    let out = driver.run_network_scratch(qnet, &inputs[0], &mut scratch).expect("runs").output;
    let (s, ()) = time_best(|| {
        for input in inputs {
            driver.run_network_scratch(qnet, input, &mut scratch).expect("runs");
        }
    });
    (s * 1e3 / inputs.len() as f64, out)
}

fn bench_cpu_backend(
    qnet: &QuantizedNetwork,
    inputs: &[Tensor<f32>],
    config: AccelConfig,
) -> CpuBackendResult {
    let mut backends = Vec::new();
    let mut golden: Option<Vec<Sm8>> = None;
    for backend in [BackendKind::Model, BackendKind::Cpu] {
        let driver = Driver::builder(config).backend(backend).build().unwrap();
        let (ms_per_image, out) = drive_ms_per_image(&driver, qnet, inputs);
        match &golden {
            None => golden = Some(out),
            Some(g) => assert_eq!(g, &out, "{backend}: backend diverged from model"),
        }
        backends.push(BackendTiming {
            backend: backend.name(),
            ms_per_image,
            images_per_s: 1e3 / ms_per_image,
        });
    }
    let per_s = |name: &str| {
        backends.iter().find(|b| b.backend == name).map(|b| b.images_per_s).unwrap_or(f64::NAN)
    };
    let cpu_speedup_vs_model = per_s("cpu") / per_s("model");
    CpuBackendResult { hw: 32, backends, cpu_speedup_vs_model }
}

fn bench_intra_image(
    qnet: &QuantizedNetwork,
    inputs: &[Tensor<f32>],
    config: AccelConfig,
) -> IntraImageResult {
    let auto_workers = ConvPool::auto_threads();
    let mut timings = Vec::new();
    let mut golden: Option<Vec<Sm8>> = None;
    for workers in [1usize, 2, 4, 8] {
        if workers > auto_workers {
            timings.push(WorkerTiming { workers, ms_per_image: None });
            continue;
        }
        let driver = Driver::builder(config)
            .backend(BackendKind::Cpu)
            .threads(workers)
            .build()
            .expect("valid config");
        let (ms_per_image, out) = drive_ms_per_image(&driver, qnet, inputs);
        match &golden {
            None => golden = Some(out),
            Some(g) => assert_eq!(g, &out, "{workers} workers: output diverged from 1 worker"),
        }
        timings.push(WorkerTiming { workers, ms_per_image: Some(ms_per_image) });
    }
    // The widest measured count not above `w`.
    let ms_at = |w: usize| {
        let mut measured = timings.iter().filter(|t| t.workers <= w).filter_map(|t| t.ms_per_image);
        measured.next_back().unwrap_or(f64::NAN)
    };
    IntraImageResult {
        auto_workers,
        mt_vs_single: ms_at(auto_workers) / ms_at(1),
        timings,
        group_cache: weight_cache_stats(),
    }
}

fn bench_resnet_block() -> ResnetBlockResult {
    use zskip_core::rng::SplitMix64;
    use zskip_nn::eltwise::add_quant;

    // Bottleneck-reduce-like 1x1 projection: 256 channels down to 64,
    // the shape where the lowering is largest relative to the GEMM.
    let (out_c, in_c, hw, density) = (64usize, 256usize, 28usize, 0.45);
    let mut rng = SplitMix64::new(11);
    let w: Vec<Sm8> = (0..out_c * in_c)
        .map(|_| {
            let h = rng.next_u64();
            if (h >> 32) % 1000 < (density * 1000.0) as u64 {
                Sm8::from_i32_saturating(((h >> 17) % 253) as i32 - 126)
            } else {
                Sm8::ZERO
            }
        })
        .collect();
    let qw = zskip_nn::conv::QuantConvWeights::new(
        out_c,
        in_c,
        1,
        w,
        vec![0; out_c],
        Requantizer::from_ratio(1.0 / 64.0),
        false,
    );
    let input = Tensor::from_fn(in_c, hw, hw, |c, y, x| {
        Sm8::from_i32_saturating(((c * 31 + y * 7 + x) % 200) as i32 - 100)
    });
    let tier = zskip_nn::dispatch();

    let fast = conv2d_gemm_quant_tier(&input, &qw, 1, 0, tier);

    const REPS: usize = 8;
    let mut pointwise_ms = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..REPS {
            let _ = conv2d_gemm_quant_tier(&input, &qw, 1, 0, tier);
        }
        pointwise_ms = pointwise_ms.min(t0.elapsed().as_secs_f64() * 1e3 / REPS as f64);
    }

    // The residual join: quantized elementwise add of the branch outputs.
    let skip = Tensor::from_fn(out_c, hw, hw, |c, y, x| {
        Sm8::from_i32_saturating(((c * 13 + y * 5 + x * 3) % 200) as i32 - 100)
    });
    let (s, _) = time_best(|| {
        for _ in 0..REPS {
            let _ = add_quant(&fast, &skip, Requantizer::IDENTITY, Requantizer::IDENTITY, true);
        }
    });
    let add_ms = s * 1e3 / REPS as f64;

    ResnetBlockResult {
        out_c,
        in_c,
        hw,
        density,
        tier: tier.name().to_string(),
        pointwise_ms,
        add_ms,
        add_overhead_vs_conv: add_ms / pointwise_ms,
    }
}

fn render(bench: &Bench) -> String {
    let mut text = String::new();
    text.push_str(&format!(
        "SIMD kernel tiers (host: {}; dispatch: {})\n\n",
        bench.host_tiers.join(", "),
        bench.dispatch_tier
    ));
    text.push_str(&format!(
        "{:<14} {:>8} {:<8} {:>11} {:>9} {:>8}\n",
        "layer", "density", "tier", "gemm ms", "speedup", "GMAC/s"
    ));
    for s in &bench.shapes {
        for g in &s.gemm {
            text.push_str(&format!(
                "{:<14} {:>8.2} {:<8} {:>11.2} {:>8.2}x {:>8.1}\n",
                s.layer, s.density, g.tier, g.ms, g.speedup, g.gmacs_per_s
            ));
        }
    }
    text.push('\n');
    for s in &bench.shapes {
        text.push_str(&format!(
            "{}: best SIMD GEMM tier {} at {:.2}x over scalar\n",
            s.layer, s.best_tier, s.best_gemm_speedup
        ));
    }
    let a = &bench.allocs;
    text.push_str(&format!(
        "\nallocations/image: {} (allocating API) -> {} (scratch arena, steady state)\n",
        a.allocating_per_image, a.scratch_steady_per_image
    ));
    text.push_str(&format!(
        "arena: {} grow event(s), {} KiB footprint after warm-up\n",
        a.grow_events,
        a.arena_bytes / 1024
    ));
    let c = &bench.cpu_backend;
    text.push_str(&format!("\ndriver backends (vgg16-{}, bit-identical outputs):\n", c.hw));
    for b in &c.backends {
        text.push_str(&format!(
            "  {:<6} {:>8.2} ms/image  {:>7.2} images/s\n",
            b.backend, b.ms_per_image, b.images_per_s
        ));
    }
    text.push_str(&format!("  cpu backend at {:.2}x model throughput\n", c.cpu_speedup_vs_model));
    let ii = &bench.intra_image;
    text.push_str(&format!("\nintra-image workers (auto = {}):\n", ii.auto_workers));
    for t in &ii.timings {
        match t.ms_per_image {
            Some(ms) => text.push_str(&format!("  {:>2} workers {ms:>8.2} ms/image\n", t.workers)),
            None => text.push_str(&format!("  {:>2} workers  skipped (more workers than cores)\n", t.workers)),
        }
    }
    text.push_str(&format!(
        "  group cache: {} entries, {} hits / {} misses, {} KiB\n",
        ii.group_cache.entries,
        ii.group_cache.hits,
        ii.group_cache.misses,
        ii.group_cache.bytes / 1024,
    ));
    let rb = &bench.resnet_block;
    text.push_str(&format!(
        "\nresnet block (1x1 projection {}->{} @ {}x{}, tier {}):\n",
        rb.in_c, rb.out_c, rb.hw, rb.hw, rb.tier
    ));
    text.push_str(&format!("  pointwise GEMM {:.3} ms\n", rb.pointwise_ms));
    text.push_str(&format!(
        "  residual add {:.3} ms ({:.2}x of the 1x1 conv)\n",
        rb.add_ms, rb.add_overhead_vs_conv
    ));
    text
}

/// `--check` floor on warm cpu-backend throughput over the model
/// backend's: half of the ≈ 20x recorded on the 2-vCPU reference box with
/// the output-stationary GEMM (17-22x across runs; 2.1x with the
/// row-panel kernel, 1.74x before the stats-pass memo).
const CPU_VS_MODEL_FLOOR: f64 = 10.0;

/// `--check` floor on every SIMD tier's GEMM over scalar on the deep
/// shapes ([`ShapeResult::is_deep`]).
const DEEP_GEMM_FLOOR: f64 = 3.0;

/// `--check` policy: every SIMD tier must beat scalar on every reference
/// shape — by [`DEEP_GEMM_FLOOR`] on the deep shapes — and steady state
/// must not allocate.
fn check(bench: &Bench) -> Result<(), String> {
    for s in &bench.shapes {
        for t in s.gemm.iter().filter(|t| t.tier != "scalar") {
            if t.speedup < 1.0 {
                return Err(format!(
                    "{}: tier {} is {:.2}x vs scalar (slower)",
                    s.layer, t.tier, t.speedup
                ));
            }
        }
        if s.is_deep() {
            if let Some(t) = s.gemm.iter().find(|t| t.tier != "scalar" && t.speedup < DEEP_GEMM_FLOOR) {
                return Err(format!(
                    "{}: GEMM tier {} is {:.2}x vs scalar (need >= {DEEP_GEMM_FLOOR}x)",
                    s.layer, t.tier, t.speedup
                ));
            }
        }
    }
    if bench.allocs.scratch_steady_per_image != 0 {
        return Err(format!(
            "steady-state forward pass performed {} allocations",
            bench.allocs.scratch_steady_per_image
        ));
    }
    if bench.cpu_backend.cpu_speedup_vs_model < CPU_VS_MODEL_FLOOR {
        return Err(format!(
            "cpu backend is {:.2}x the model backend's functional sweep (need >= {CPU_VS_MODEL_FLOOR}x)",
            bench.cpu_backend.cpu_speedup_vs_model
        ));
    }
    // Auto-width multithreading must not be worse than single-threaded
    // (10% tolerance for timer noise; on a single-core host auto == 1 and
    // this compares a config with itself).
    if bench.intra_image.mt_vs_single > 1.10 {
        return Err(format!(
            "multithreaded single-image latency regressed: {:.2}x the single-threaded latency",
            bench.intra_image.mt_vs_single
        ));
    }
    Ok(())
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let (qnet, inputs, config) = vgg_workload(32);
    let bench = Bench {
        host_tiers: KernelTier::supported().iter().map(|t| t.name().to_string()).collect(),
        dispatch_tier: zskip_nn::dispatch().name().to_string(),
        shapes: bench_shapes(),
        allocs: bench_allocs(),
        cpu_backend: bench_cpu_backend(&qnet, &inputs, config),
        intra_image: bench_intra_image(&qnet, &inputs, config),
        resnet_block: bench_resnet_block(),
        conv3_2_gemm_speedup: 0.0,
    };
    let conv3_2 = bench
        .shapes
        .iter()
        .find(|s| s.layer == "conv3_2-like")
        .map(|s| s.best_gemm_speedup)
        .unwrap_or(0.0);
    let bench = Bench { conv3_2_gemm_speedup: conv3_2, ..bench };

    let text = render(&bench);
    print!("{text}");

    write_bench_artifacts("kernel_bench", "BENCH_kernels.json", &text, &bench);

    if check_mode {
        if let Err(msg) = check(&bench) {
            eprintln!("kernel_bench --check FAILED: {msg}");
            std::process::exit(1);
        }
        println!("kernel_bench --check OK");
    }
}
