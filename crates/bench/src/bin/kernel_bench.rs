//! SIMD kernel-tier benchmark — emits `BENCH_kernels.json`.
//!
//! Measures the quantized datapath kernels at every CPU tier reachable on
//! this host (scalar / SSE2 / AVX2 / AVX-512 / AMX, see `docs/KERNELS.md`;
//! a tier the host lacks reads `skipped`):
//!
//! * **GEMM**: `conv2d_gemm_quant_into` per tier on five VGG-16-shaped
//!   conv layers at deep-compression densities — from a 32x32 plane down
//!   to the 4x4 and 2x2 planes of conv4_x / conv5_x — and four
//!   ResNet-18-32-shaped ones (the stem, a 16-channel 32x32 block conv, a
//!   32-channel 16x16 one and the 1x1 projection into it), plus an
//!   fc7-shaped FC layer and one small enough to stay in L2 through the
//!   same body (`fc_quant_pool_into`), with the dense-equivalent GMAC/s of
//!   every row. A network's first layer reads signed activations (the
//!   +128 patch-byte offset), every other row a ReLU's non-negative ones,
//!   as in the networks. Every tier but AVX-512 and AMX runs the same
//!   output-stationary blocking (scalar with a portable dot); AVX-512 runs
//!   the direct kernel on the planes 16 and more wide, AMX the tiles on
//!   every conv of whole 64-channel steps and 16-filter tiles, and reads
//!   a lowered layer's weights compressed. All tiers must be
//!   bit-identical (asserted here and property-tested in `crates/nn`).
//!   Every row shows the weight bytes its kernel reads per call
//!   (`gemm::weight_stream`).
//! * **Cache flushed**: the conv4_2- and conv5_2-like rows again, with
//!   64 MiB of other data written between calls, as a whole image leaves
//!   the cache for its deep layers: the AVX-512 tier's dense weights
//!   against the AMX tier's stream. No `--check` floor reads them.
//! * **Conv weight stream**: the bytes the AMX tier reads per VGG-16-32
//!   image (the CLI's recipe, `--density dc`), per conv layer and in
//!   total, against the dense weights.
//! * **Allocations per image**: heap allocations of one quantized forward
//!   pass through the allocating API vs. the [`Scratch`] arena after
//!   warm-up, at the dispatched tier, counted by a counting global
//!   allocator. Steady state must be zero.
//! * **Driver backends**: end-to-end images/s through
//!   `Session::infer_scratch` on the scaled VGG-16 spec, per
//!   execution backend name (model and cpu), and the check that the
//!   default `model` backend takes the cpu path: every warm image's
//!   output on a model session equals the cpu session's (that a warm
//!   image replays the session's one recorded stats walk is a
//!   `zskip-core` unit test, `exec::cpu`).
//! * **Intra-image threading**: cpu-backend latency at 1/2/4/8 workers
//!   (counts above the host's cores are reported `skipped`, not timed).
//!   Outputs are
//!   bit-identical at every width (asserted here; property-tested in
//!   `tests/kernel_tiers.rs`).
//! * **ResNet block**: the 1x1 projection conv (its lowering is a
//!   transpose of the input) on a bottleneck-reduce shape, plus the
//!   quantized residual-add cost relative to that conv.
//!
//! `--check` exits nonzero if any SIMD tier is slower than scalar on a
//! reference shape, the avx2, avx512 or amx GEMM is under 3x scalar on the two
//! deep conv shapes or the FCs (the shapes whose columns are too few to
//! fill a vector), the sse2 GEMM is under 0.47x the avx2 tier's
//! throughput on the L2-resident FC, the avx512 tier's GEMM is under 2x the avx2 tier's
//! or the amx tier's conv under 1.5x the avx512 tier's on the conv3_2- and
//! conv4_2-like shapes (when the host has both), the
//! steady-state pass allocates, a warm model-backend image departs from
//! the cpu backend's output, or the auto-width
//! multithreaded latency regresses past the single-threaded one — wired
//! into `scripts/verify.sh`.
//!
//! Writes `BENCH_kernels.json` plus the `experiments/kernel_bench.txt` rendering under the
//! working directory: run it from the repository root to update the
//! committed ones.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::{RngCore, SplitMix64};
use zskip_bench::{make_conv_layer, write_bench_artifacts};
use zskip_core::config::AccelConfig;
use zskip_core::{BackendKind, Session};
use zskip_hls::Variant;
use zskip_json::{Json, ToJson};
use zskip_nn::eval::synthetic_inputs;
use zskip_nn::conv::QuantConvWeights;
use zskip_nn::fc::{fc_quant_pool_into, QuantFcWeights};
use zskip_nn::gemm::{conv2d_gemm_quant_into, conv2d_gemm_quant_tier, weight_stream, GemmScratch};
use zskip_nn::model::{QuantizedNetwork, SyntheticModelConfig, WeightCode};
use zskip_nn::simd::KernelTier;
use zskip_nn::vgg16::vgg16_scaled_spec;
use zskip_nn::{ConvPool, LayerSpec, NetworkSpec, Scales, Scratch};
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

/// One kernel × tier row: its timing, or `None` — the row reads
/// `skipped` — where the host lacks the tier.
struct TierTiming {
    tier: &'static str,
    /// Weight bytes the tier's kernel reads per call.
    weight_bytes: usize,
    timing: Option<Timing>,
}

struct Timing {
    ms: f64,
    /// Scalar time over this tier's time (1.0 for scalar itself).
    speedup: f64,
    /// The layer's dense MAC count (zero weights included, whether or not
    /// the kernel skips them) per second of this timing.
    gmacs_per_s: f64,
}

impl ToJson for TierTiming {
    fn to_json(&self) -> Json {
        match &self.timing {
            Some(t) => Json::obj([
                ("tier", self.tier.to_json()),
                ("weight_bytes", self.weight_bytes.to_json()),
                ("ms", t.ms.to_json()),
                ("speedup", t.speedup.to_json()),
                ("gmacs_per_s", t.gmacs_per_s.to_json()),
            ]),
            None => Json::obj([
                ("tier", self.tier.to_json()),
                ("weight_bytes", self.weight_bytes.to_json()),
                ("skipped", true.to_json()),
            ]),
        }
    }
}

/// Rounds [`time_tiers`] takes the best of.
const TIER_ROUNDS: usize = 25;

/// Times `run` at every supported tier, asserting each tier's output equal
/// to the scalar tier's: the best of [`TIER_ROUNDS`] rounds that each call
/// every tier once, so that a burst of load from elsewhere on the host
/// hits all tiers alike rather than the one it lands on; `before` runs
/// ahead of each call, outside its timing. A tier the host lacks gets a
/// `skipped` row. `weight_bytes(tier)` is what the tier's kernel reads.
fn time_tiers<T: PartialEq + std::fmt::Debug>(
    what: &str,
    macs: usize,
    weight_bytes: impl Fn(KernelTier) -> usize,
    mut before: impl FnMut(),
    mut run: impl FnMut(KernelTier) -> T,
) -> Vec<TierTiming> {
    let tiers = KernelTier::supported();
    let mut best = vec![f64::INFINITY; tiers.len()];
    let mut oracle = None;
    for _ in 0..TIER_ROUNDS {
        for (&tier, best) in tiers.iter().zip(&mut best) {
            before();
            let t0 = Instant::now();
            let out = run(tier);
            *best = best.min(t0.elapsed().as_secs_f64());
            match &oracle {
                None => oracle = Some(out),
                Some(o) => assert_eq!(o, &out, "{what}: tier {tier} diverged from scalar"),
            }
        }
    }
    let scalar_s = best[0];
    KernelTier::ALL
        .iter()
        .map(|&tier| TierTiming {
            tier: tier.name(),
            weight_bytes: weight_bytes(tier),
            timing: tiers.iter().position(|&t| t == tier).map(|i| Timing {
                ms: best[i] * 1e3,
                speedup: scalar_s / best[i],
                gmacs_per_s: macs as f64 / best[i] / 1e9,
            }),
        })
        .collect()
}

struct ShapeResult {
    layer: String,
    out_c: usize,
    in_c: usize,
    /// Output plane edge (1 for the FC row).
    hw: usize,
    /// Kernel edge (1 for the FC row).
    k: usize,
    density: f64,
    /// Timed with 64 MiB of other data written ahead of each call.
    flushed: bool,
    gemm: Vec<TierTiming>,
    best_tier: &'static str,
    /// Scalar-tier GEMM time over the best SIMD tier's.
    best_gemm_speedup: f64,
}

impl ShapeResult {
    fn new(layer: &str, (out_c, in_c, hw, k, density): (usize, usize, usize, usize, f64), gemm: Vec<TierTiming>) -> Self {
        let timed = gemm.iter().skip(1).filter_map(|t| Some((t.tier, t.timing.as_ref()?)));
        let best = timed.min_by(|a, b| a.1.ms.total_cmp(&b.1.ms));
        let (best_tier, best_gemm_speedup) = best.map_or(("scalar", 1.0), |(tier, t)| (tier, t.speedup));
        let layer = layer.to_string();
        ShapeResult { layer, out_c, in_c, hw, k, density, flushed: false, gemm, best_tier, best_gemm_speedup }
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
            ("k", self.k.to_json()),
            ("density", self.density.to_json()),
            ("flushed", self.flushed.to_json()),
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
    /// Warm images the one-path check ran on a model session.
    model_images: usize,
    /// Whether each of those images' output equals the cpu session's
    /// (`--check`: all of them).
    model_outputs_match_cpu: bool,
}

impl ToJson for CpuBackendResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("hw", self.hw.to_json()),
            ("backends", self.backends.to_json()),
            ("model_images", self.model_images.to_json()),
            ("model_outputs_match_cpu", self.model_outputs_match_cpu.to_json()),
        ])
    }
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
}

impl ToJson for IntraImageResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("auto_workers", self.auto_workers.to_json()),
            ("timings", self.timings.to_json()),
            ("mt_vs_single", self.mt_vs_single.to_json()),
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
    /// The fused quantized residual add (`add_quant_into`) of the two
    /// branch outputs.
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

/// One conv layer's weight stream on the AMX tier: the kernel that takes
/// it and the bytes it reads per image, against its dense weights.
struct StreamRow {
    layer: String,
    kernel: &'static str,
    dense_bytes: usize,
    bytes: usize,
}

impl ToJson for StreamRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("layer", self.layer.to_json()),
            ("kernel", self.kernel.to_json()),
            ("dense_bytes", self.dense_bytes.to_json()),
            ("bytes", self.bytes.to_json()),
        ])
    }
}

/// [`StreamRow`]s of every conv layer of `qnet`.
fn conv_stream(qnet: &QuantizedNetwork) -> Vec<StreamRow> {
    let spec = &qnet.spec;
    qnet.conv
        .iter()
        .zip(spec.conv_layers())
        .map(|(layer, (_, l, s))| {
            let &LayerSpec::Conv { ref name, stride, pad, .. } = l else { unreachable!("a conv layer") };
            let w = &layer.weights;
            let stream = weight_stream(w, s, stride, pad, KernelTier::Amx);
            let kernel = stream.kernel.name();
            StreamRow { layer: name.clone(), kernel, dense_bytes: w.w().len(), bytes: stream.bytes }
        })
        .collect()
}

struct Bench {
    host_tiers: Vec<String>,
    dispatch_tier: String,
    shapes: Vec<ShapeResult>,
    /// The AMX tier's conv weight stream per VGG-16-32 image.
    conv_stream: Vec<StreamRow>,
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
            ("conv_stream", self.conv_stream.to_json()),
            (
                "conv_stream_total",
                Json::obj([
                    ("dense_bytes", self.conv_stream.iter().map(|r| r.dense_bytes).sum::<usize>().to_json()),
                    ("bytes", self.conv_stream.iter().map(|r| r.bytes).sum::<usize>().to_json()),
                ]),
            ),
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

/// `x` with its negative values (and negative zeros) zeroed: a layer's
/// input after a ReLU, the patch bytes every conv but a network's first
/// reads as they are.
fn relu(x: &Tensor<Sm8>) -> Tensor<Sm8> {
    let s = x.shape();
    Tensor::from_fn(s.c, s.h, s.w, |c, y, i| Sm8::from_i32_saturating(x[(c, y, i)].to_i32().max(0)))
}

/// A 1x1 projection (no ReLU) like `make_conv_layer`'s 3x3 layers:
/// `density` of its weights non-zero, and an `in_c x hw x hw` non-negative
/// input, a ReLU's output as a projection's input is.
fn pointwise_layer(out_c: usize, in_c: usize, hw: usize, density: f64, seed: u64) -> (QuantConvWeights, Tensor<Sm8>) {
    let mut rng = SplitMix64::new(seed);
    let w = (0..out_c * in_c)
        .map(|_| {
            let h = rng.next_u64();
            if (h >> 32) % 1000 < (density * 1000.0) as u64 {
                Sm8::from_i32_saturating(((h >> 17) % 253) as i32 - 126)
            } else {
                Sm8::ZERO
            }
        })
        .collect();
    let qw = QuantConvWeights::new(out_c, in_c, 1, w, vec![0; out_c], Requantizer::from_ratio(1.0 / 64.0), false);
    let input = Tensor::from_fn(in_c, hw, hw, |c, y, x| Sm8::from_i32_saturating(((c * 31 + y * 7 + x) % 128) as i32));
    (qw, input)
}

/// The mean of the deep-compression profile: the uniform density `--density
/// dc` gives a network other than VGG-16.
const RESNET_DENSITY: f64 = 0.35;

/// The rows timed a second time with the cache flushed.
const FLUSHED_SHAPES: [&str; 2] = ["conv4_2-like", "conv5_2-like"];

/// Bytes written between the calls of a flushed row: more than this
/// host's last-level cache keeps for one process.
const FLUSH_BYTES: usize = 64 << 20;

/// Writes every cache line of `flush`, evicting what the last call left in
/// the caches.
fn flush_caches(flush: &mut [u8]) {
    for (i, line) in flush.iter_mut().step_by(64).enumerate() {
        *line = line.wrapping_add(i as u8);
    }
    std::hint::black_box(flush);
}

/// One conv row: `(name, out_c, in_c, output plane edge, kernel, density,
/// first layer)` timed per tier into a warm workspace and output, as the
/// network runs a layer (no page faults in the timing) — and, when
/// `flushed`, with [`flush_caches`] ahead of every call.
fn conv_row(
    (name, out_c, in_c, hw, k, density, first): (&str, usize, usize, usize, usize, f64, bool),
    flushed: bool,
    flush: &mut [u8],
) -> ShapeResult {
    let (qw, input) = if k == 1 {
        pointwise_layer(out_c, in_c, hw, density, 7)
    } else {
        let (qw, tiled, _) = make_conv_layer(out_c, in_c, hw, density, 7);
        let input = tiled.to_tensor();
        (qw, if first { input } else { relu(&input) })
    };
    let macs = out_c * in_c * k * k * hw * hw;
    let (mut ws, mut out) = (GemmScratch::default(), Tensor::zeros(1, 1, 1));
    let bytes = |tier| weight_stream(&qw, input.shape(), 1, 0, tier).bytes;
    let before = || {
        if flushed {
            flush_caches(flush);
        }
    };
    let gemm = time_tiers(name, macs, bytes, before, |tier| {
        conv2d_gemm_quant_into(&input, &qw, 1, 0, tier, None, &mut ws, &mut out);
        out.clone()
    });
    ShapeResult { flushed, ..ShapeResult::new(name, (out_c, in_c, hw, k, density), gemm) }
}

fn bench_shapes() -> Vec<ShapeResult> {
    // (name, out_c, in_c, output plane edge, kernel, density, first layer):
    // a first layer reads the signed quantized image, every other layer a
    // ReLU's non-negative output.
    let layers: [(&str, usize, usize, usize, usize, f64, bool); 9] = [
        ("conv1_1-like", 64, 3, 32, 3, 0.58, true),
        ("conv2_2-like", 128, 128, 16, 3, 0.36, false),
        ("conv3_2-like", 256, 256, 8, 3, 0.29, false),
        ("conv4_2-like", 512, 512, 4, 3, 0.27, false),
        ("conv5_2-like", 512, 512, 2, 3, 0.29, false),
        ("resnet-stem-like", 16, 3, 32, 3, RESNET_DENSITY, true),
        ("resnet-b1-like", 16, 16, 32, 3, RESNET_DENSITY, false),
        ("resnet-b2-like", 32, 32, 16, 3, RESNET_DENSITY, false),
        ("resnet-proj-like", 32, 16, 16, 1, RESNET_DENSITY, false),
    ];
    let mut flush = vec![0u8; FLUSH_BYTES];
    let mut shapes: Vec<ShapeResult> = layers
        .into_iter()
        .map(|layer| conv_row(layer, false, &mut flush))
        .collect();
    // The deep rows again, the cache flushed between calls.
    for layer in layers.into_iter().filter(|(name, ..)| FLUSHED_SHAPES.contains(name)) {
        shapes.push(conv_row(layer, true, &mut flush));
    }

    // fc7: the conv layers' GEMM body at one column, unpruned weights;
    // then an FC whose 512 KiB of weights stay in L2, run 64 times a
    // round, where no tier waits on memory and each runs at the rate its
    // weight decode allows (the sse2 gate's row).
    let mut rng = SplitMix64::new(7);
    for (layer, out_features, in_features, calls) in [("fc7-like", 4096, 4096, 1), (SSE2_GATE_SHAPE, 512, 1024, 64)] {
        let mut sm8s = |n: usize| -> Vec<Sm8> {
            (0..n).map(|_| Sm8::from_i32_saturating((rng.next_u64() % 253) as i32 - 126)).collect()
        };
        let fc = QuantFcWeights::new(
            out_features,
            in_features,
            sm8s(out_features * in_features),
            vec![0; out_features],
            Requantizer::from_ratio(1.0 / 4096.0),
            true,
        );
        // A ReLU's output, as every FC layer's input is.
        let input: Vec<Sm8> = sm8s(in_features).iter().map(|v| Sm8::from_i32_saturating(v.to_i32().max(0))).collect();
        let mut ws = GemmScratch::default();
        let mut out = Vec::new();
        let gemm = time_tiers(layer, calls * out_features * in_features, |_| fc.w().len(), || {}, |tier| {
            for _ in 0..calls {
                fc_quant_pool_into(&input, &fc, tier, None, &mut ws, &mut out);
            }
            out.clone()
        });
        shapes.push(ShapeResult::new(layer, (out_features, in_features, 1, 1, 1.0), gemm));
    }
    shapes
}

fn bench_allocs() -> AllocResult {
    let spec = vgg16_scaled_spec(32);
    let qnet = cli_recipe(&spec);
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

/// `spec` as the CLI builds it: weight seed 1, the dc density profile,
/// one calibration image.
fn cli_recipe(spec: &NetworkSpec) -> QuantizedNetwork {
    let config = SyntheticModelConfig { seed: 1, density: DensityProfile::deep_compression_vgg16() };
    QuantizedNetwork::synthetic(spec, &config, Scales::Calibrate(&synthetic_inputs(2, 1, spec.input)), WeightCode::Int8)
}

/// The scaled VGG-16 end-to-end workload shared by the driver benches.
fn vgg_workload(hw: usize) -> (QuantizedNetwork, Vec<Tensor<f32>>, AccelConfig) {
    let spec = vgg16_scaled_spec(hw);
    let qnet = cli_recipe(&spec);
    let inputs = synthetic_inputs(5, 2, spec.input);
    (qnet, inputs, AccelConfig::for_variant(Variant::U256Opt))
}

/// Best-of-5 ms/image of `session` over `inputs` on a warmed scratch,
/// returning the warm-up image's output for bit-identity checks.
fn drive_ms_per_image(
    session: &Session,
    qnet: &QuantizedNetwork,
    inputs: &[Tensor<f32>],
) -> (f64, Vec<Sm8>) {
    let mut scratch = Scratch::new();
    // Warm-up image: grows the arena, the worker pool and the caches.
    let out = session.infer_scratch(qnet, &inputs[0], &mut scratch).expect("runs").output;
    let (s, ()) = time_best(|| {
        for input in inputs {
            session.infer_scratch(qnet, input, &mut scratch).expect("runs");
        }
    });
    (s * 1e3 / inputs.len() as f64, out)
}

fn bench_cpu_backend(
    qnet: &QuantizedNetwork,
    inputs: &[Tensor<f32>],
    config: AccelConfig,
) -> CpuBackendResult {
    let [model, cpu] = [BackendKind::Model, BackendKind::Cpu]
        .map(|backend| (backend, Session::builder(config).backend(backend).build().unwrap()));
    let backends = [&model, &cpu]
        .map(|(backend, session)| {
            let (ms_per_image, _) = drive_ms_per_image(session, qnet, inputs);
            BackendTiming { backend: backend.name(), ms_per_image, images_per_s: 1e3 / ms_per_image }
        })
        .into();
    // The one-path check, on sessions the timing warmed: each model
    // image's output is the cpu session's.
    let mut scratch = Scratch::new();
    let mut run = |session: &Session| -> Vec<Vec<Sm8>> {
        inputs.iter().map(|i| session.infer_scratch(qnet, i, &mut scratch).expect("runs").output).collect()
    };
    let model_outputs = run(&model.1);
    CpuBackendResult {
        hw: 32,
        backends,
        model_images: inputs.len(),
        model_outputs_match_cpu: model_outputs == run(&cpu.1),
    }
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
        let session = Session::builder(config)
            .backend(BackendKind::Cpu)
            .threads(workers)
            .build()
            .expect("valid config");
        let (ms_per_image, out) = drive_ms_per_image(&session, qnet, inputs);
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
    }
}

fn bench_resnet_block() -> ResnetBlockResult {
    use zskip_nn::eltwise::add_quant_into;

    // Bottleneck-reduce-like 1x1 projection: 256 channels down to 64,
    // the shape where the lowering is largest relative to the GEMM.
    let (out_c, in_c, hw, density) = (64usize, 256usize, 28usize, 0.45);
    let (qw, input) = pointwise_layer(out_c, in_c, hw, density, 11);
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

    // The residual join: the fused quantized add of the branch outputs,
    // into a warm output as the plan walk runs it.
    let skip = Tensor::from_fn(out_c, hw, hw, |c, y, x| {
        Sm8::from_i32_saturating(((c * 13 + y * 5 + x * 3) % 200) as i32 - 100)
    });
    let mut joined = Tensor::zeros(1, 1, 1);
    let (s, _) = time_best(|| {
        for _ in 0..REPS {
            add_quant_into(&fast, &skip, Requantizer::IDENTITY, Requantizer::IDENTITY, true, &mut joined);
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
    let header = format!(
        "{:<17} {:>8} {:<8} {:>11} {:>9} {:>8} {:>12}\n",
        "layer", "density", "tier", "gemm ms", "speedup", "GMAC/s", "weight KiB"
    );
    text.push_str(&header);
    let rows = |text: &mut String, flushed: bool| {
        for s in bench.shapes.iter().filter(|s| s.flushed == flushed) {
            for g in &s.gemm {
                let kib = g.weight_bytes as f64 / 1024.0;
                match &g.timing {
                    Some(t) => text.push_str(&format!(
                        "{:<17} {:>8.2} {:<8} {:>11.3} {:>8.2}x {:>8.1} {kib:>12.1}\n",
                        s.layer, s.density, g.tier, t.ms, t.speedup, t.gmacs_per_s
                    )),
                    None => text.push_str(&format!(
                        "{:<17} {:>8.2} {:<8} {:>11} {:>9} {:>8} {kib:>12.1}\n",
                        s.layer, s.density, g.tier, "skipped", "", ""
                    )),
                }
            }
        }
    };
    rows(&mut text, false);
    text.push_str(&format!("\ncache flushed ({} MiB written) ahead of every call:\n{header}", FLUSH_BYTES >> 20));
    rows(&mut text, true);
    text.push_str("\nconv weight stream per VGG-16-32 image on the amx tier (density dc):\n");
    text.push_str(&format!("{:<9} {:<8} {:>12} {:>12} {:>7}\n", "layer", "kernel", "dense bytes", "bytes", "ratio"));
    let ratio = |bytes: usize, dense: usize| bytes as f64 / dense as f64;
    for r in &bench.conv_stream {
        text.push_str(&format!(
            "{:<9} {:<8} {:>12} {:>12} {:>7.3}\n",
            r.layer,
            r.kernel,
            r.dense_bytes,
            r.bytes,
            ratio(r.bytes, r.dense_bytes)
        ));
    }
    let (dense, bytes) = bench.conv_stream.iter().fold((0, 0), |(d, b), r| (d + r.dense_bytes, b + r.bytes));
    text.push_str(&format!("{:<9} {:<8} {dense:>12} {bytes:>12} {:>7.3}\n", "total", "", ratio(bytes, dense)));
    text.push('\n');
    for s in bench.shapes.iter().filter(|s| !s.flushed) {
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
    text.push_str(&format!(
        "  model backend on the cpu path: {} warm images, outputs {} the cpu backend's\n",
        c.model_images,
        if c.model_outputs_match_cpu { "equal to" } else { "DIFFERENT from" }
    ));
    let ii = &bench.intra_image;
    text.push_str(&format!("\nintra-image workers (auto = {}):\n", ii.auto_workers));
    for t in &ii.timings {
        match t.ms_per_image {
            Some(ms) => text.push_str(&format!("  {:>2} workers {ms:>8.2} ms/image\n", t.workers)),
            None => text.push_str(&format!("  {:>2} workers  skipped (more workers than cores)\n", t.workers)),
        }
    }
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

/// `--check` floor on the avx2 and avx512 tiers' GEMM over scalar on the
/// deep shapes ([`ShapeResult::is_deep`]). Not on sse2: the scalar tier
/// is compiled for the same SSE2 baseline, and the compiler vectorizes
/// its byte loads, so sse2 over scalar measures the compiler as much as
/// the SSE2 body (2.4-3.1x recorded on the deep rows) — the SSE2 body has
/// [`SSE2_OVER_AVX2_FLOOR`] instead.
const DEEP_GEMM_FLOOR: f64 = 3.0;

/// `--check` floor on the sse2 tier's GEMM throughput as a share of the
/// avx2 tier's on [`SSE2_GATE_SHAPE`], where the host runs both: two
/// hand-written bodies timed in the same rounds, so neighbour load and
/// the compiler's treatment of the scalar tier cancel out. A step of 16
/// weights is two 8-lane `pmaddwd` and a byte-lane decode for sse2, one
/// 16-lane `vpmaddwd` for avx2, so sse2 sits near half: 0.54-0.59
/// recorded on the 2-vCPU AVX-512 reference box. The SSE2 body stepping
/// 8 values instead of 16 reads 0.39-0.44 there, and the scalar body
/// dispatched as sse2 0.16.
const SSE2_OVER_AVX2_FLOOR: f64 = 0.47;
/// The shape [`SSE2_OVER_AVX2_FLOOR`] holds on: an FC whose weights stay
/// in L2, so both tiers are bound by their own instructions, not by
/// memory (fc7's 16 MiB stream holds avx2 to memory speed).
const SSE2_GATE_SHAPE: &str = "fc-l2-like";

/// `--check` floor on the avx512 tier's GEMM over the avx2 tier's on the
/// [`AVX512_OVER_AVX2_SHAPES`]: a 2x4 block step is 12 vector µops over 64
/// reduction values on two ports for avx512 (two 2-op weight decodes, 8
/// `vpdpbusd`), 26 over 16 values on three for avx2 (two 3-op decodes, 4
/// patch widenings, 8 `vpmaddwd`, 8 `vpaddd`). 2.7-3.5x recorded on the
/// reference box; 1.6-1.7x with the 16-bit `vpdpwssd` body, 1.3x before
/// VNNI.
const AVX512_OVER_AVX2_FLOOR: f64 = 2.0;
/// The shapes [`AVX512_OVER_AVX2_FLOOR`] holds on: enough columns and a
/// long enough reduction that the GEMM's inner loop is the layer's time.
const AVX512_OVER_AVX2_SHAPES: [&str; 2] = ["conv3_2-like", "conv4_2-like"];

/// `--check` floor on the amx tier's conv over the avx512 tier's on the
/// [`AVX512_OVER_AVX2_SHAPES`], where the host runs both: the 8x8 and 4x4
/// planes, whose lowered `dot_nt` the tiles replace. 3.4-5.1x recorded on
/// the 2-vCPU reference box; the tiles behind a patch matrix (the lowering
/// kept, its rows loaded as A) read 2.2-2.3x.
const AMX_OVER_AVX512_FLOOR: f64 = 1.5;

/// `--check` policy: every SIMD tier must beat scalar on every reference
/// shape — avx2, avx512 and amx by [`DEEP_GEMM_FLOOR`] on the deep shapes
/// — sse2 must hold [`SSE2_OVER_AVX2_FLOOR`] of avx2, avx512 must beat
/// avx2 by [`AVX512_OVER_AVX2_FLOOR`] and amx avx512 by
/// [`AMX_OVER_AVX512_FLOOR`] where the host runs both, steady state must
/// not allocate, and the model backend must take the cpu path. Returns
/// every floor the run missed, so one failure does not hide the next.
fn check(bench: &Bench) -> Vec<String> {
    let mut failed = Vec::new();
    for s in bench.shapes.iter().filter(|s| !s.flushed) {
        let ms = |tier: &str| s.gemm.iter().find(|t| t.tier == tier).and_then(|t| t.timing.as_ref()).map(|t| t.ms);
        let gated = AVX512_OVER_AVX2_SHAPES.contains(&s.layer.as_str());
        for (wide, narrow, floor) in
            [("avx512", "avx2", AVX512_OVER_AVX2_FLOOR), ("amx", "avx512", AMX_OVER_AVX512_FLOOR)]
        {
            if let (true, Some(n), Some(w)) = (gated, ms(narrow), ms(wide)) {
                if n / w < floor {
                    failed.push(format!("{}: GEMM tier {wide} is {:.2}x {narrow} (need >= {floor}x)", s.layer, n / w));
                }
            }
        }
        if let (true, Some(sse2), Some(avx2)) = (s.layer == SSE2_GATE_SHAPE, ms("sse2"), ms("avx2")) {
            if avx2 / sse2 < SSE2_OVER_AVX2_FLOOR {
                failed.push(format!(
                    "{}: GEMM tier sse2 runs at {:.2}x the avx2 tier's throughput (need >= {SSE2_OVER_AVX2_FLOOR}x)",
                    s.layer,
                    avx2 / sse2
                ));
            }
        }
        for (tier, t) in s.gemm.iter().filter(|t| t.tier != "scalar").filter_map(|t| Some((t.tier, t.timing.as_ref()?))) {
            if t.speedup < 1.0 {
                failed.push(format!("{}: tier {tier} is {:.2}x vs scalar (slower)", s.layer, t.speedup));
            } else if s.is_deep() && tier != "sse2" && t.speedup < DEEP_GEMM_FLOOR {
                failed.push(format!(
                    "{}: GEMM tier {tier} is {:.2}x vs scalar (need >= {DEEP_GEMM_FLOOR}x)",
                    s.layer, t.speedup
                ));
            }
        }
    }
    if bench.allocs.scratch_steady_per_image != 0 {
        failed.push(format!(
            "steady-state forward pass performed {} allocations",
            bench.allocs.scratch_steady_per_image
        ));
    }
    // Two names, one path: a warm model image returns the golden walk.
    let c = &bench.cpu_backend;
    if !c.model_outputs_match_cpu {
        failed.push("model backend: a warm image's output differs from the cpu backend's".to_string());
    }
    // Auto-width multithreading must not be worse than single-threaded
    // (10% tolerance for timer noise; on a single-core host auto == 1 and
    // this compares a config with itself).
    if bench.intra_image.mt_vs_single > 1.10 {
        failed.push(format!(
            "multithreaded single-image latency regressed: {:.2}x the single-threaded latency",
            bench.intra_image.mt_vs_single
        ));
    }
    failed
}

fn main() {
    let check_mode = std::env::args().any(|a| a == "--check");
    let (qnet, inputs, config) = vgg_workload(32);
    let bench = Bench {
        host_tiers: KernelTier::supported().iter().map(|t| t.name().to_string()).collect(),
        dispatch_tier: zskip_nn::dispatch().name().to_string(),
        shapes: bench_shapes(),
        conv_stream: conv_stream(&qnet),
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
        let failed = check(&bench);
        for msg in &failed {
            eprintln!("kernel_bench --check FAILED: {msg}");
        }
        if !failed.is_empty() {
            std::process::exit(1);
        }
        println!("kernel_bench --check OK");
    }
}
