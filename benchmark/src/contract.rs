//! The naming contract: every workload and metric this benchmark emits,
//! with unit and direction. `BENCHMARK.json` at the repo root lists the
//! same names (a self-test keeps the two in lockstep); later issues cite
//! these names, so renaming one is a benchmark change, not a refactor.

use std::collections::BTreeMap;

use zskip::json::Json;

use Better::{Higher, Lower};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: a name and the one-line reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Latency limit behind `within_limit_share`, in milliseconds.
    pub limit_ms: f64,
}

pub const VGG16_COLD: &str = "vgg16_cold";
pub const VGG16_WARM: &str = "vgg16_warm";
pub const VGG16_CYCLE: &str = "vgg16_cycle";
pub const RESNET18_SERVE: &str = "resnet18_serve";

/// The four workloads. The limits are generous (3x the median measured
/// when the benchmark was defined, 250 ms for the daemon as the issue
/// fixed it): `within_limit_share` reads 1.0 unless a tail blows up.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: VGG16_COLD,
        why: "spawns 'zskip infer --hw 32 --backend cpu' per sample: process start to verified result; ~80% is weight synthesis + quantization + first-touch packing, warm kernels <5%",
        limit_ms: 9000.0,
    },
    WorkloadDef {
        name: VGG16_WARM,
        why: "in-process Session::infer_scratch on the cpu backend, closed loop, 8 images: exec::cpu + nn kernels + layout conversion + per-image stats pass do all the work, model set-up none",
        limit_ms: 400.0,
    },
    WorkloadDef {
        name: VGG16_CYCLE,
        why: "same loop on the cycle-exact backend: sim::engine + core::cycle dominate, SIMD kernels idle; reference cycle count for model/cpu (absolute cycles unvalidated against silicon)",
        limit_ms: 5000.0,
    },
    WorkloadDef {
        name: RESNET18_SERVE,
        why: "'zskip serve' daemon on the ResNet-18 DAG spec over TCP: open loop at 12 req/s then closed loop with 8 outstanding; small layers make json/wire, queueing and batching a visible share",
        limit_ms: 250.0,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One metric: name, unit, direction, and (end-to-end only) the relative
/// worsening that counts as a regression.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The simulated metrics repeat exactly; their bound only has to be a
/// positive number smaller than one cycle / one byte in a million.
pub const EXACT: f64 = 1e-7;

/// End-to-end metrics, measured with tracing off. Every workload emits
/// every one of them (see README.md for what each means per workload).
/// The host-time ones are reported at undisturbed host speed (`calib`);
/// README.md, "Bounds", holds the spreads the bounds were set against.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("latency_ms", "ms", Better::Lower, 0.25),
    e2e("images_per_s", "img/s", Better::Higher, 0.25),
    e2e("within_limit_share", "share", Better::Higher, 0.05),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.20),
    e2e("accel_cycles", "count", Better::Lower, EXACT),
    e2e("accel_ddr_bytes", "count", Better::Lower, EXACT),
];

/// Per-layer metrics, measured by the traced run from outside each
/// layer's public functions. A workload that does not cross a layer
/// reports 0 for it.
pub const PER_LAYER: [MetricDef; 55] = [
    layer("cli.process_overhead_s", "s", Lower),
    layer("nn.spec_io.load_ms", "ms", Lower),
    layer("nn.model.synthetic_s", "s", Lower),
    layer("nn.model.quantize_s", "s", Lower),
    layer("nn.model.golden_cold_ms", "ms", Lower),
    layer("nn.model.golden_warm_ms", "ms", Lower),
    layer("nn.plan.build_us", "us", Lower),
    layer("quant.pack_all_ms", "ms", Lower),
    layer("quant.tap_cache_misses", "count", Lower),
    layer("quant.tap_cache_hits", "count", Higher),
    layer("core.session.build_us", "us", Lower),
    layer("core.driver.first_infer_ms", "ms", Lower),
    layer("core.exec.stats_pass_ms", "ms", Lower),
    layer("core.exec.weight_cache_hits", "count", Higher),
    layer("core.exec.weight_cache_misses", "count", Lower),
    layer("core.exec.cpu.image_ms", "ms", Lower),
    layer("core.exec.cpu.unattributed_ms", "ms", Lower),
    layer("nn.kernels.conv_ms", "ms", Lower),
    layer("nn.kernels.conv1x1_ms", "ms", Lower),
    layer("nn.kernels.pool_ms", "ms", Lower),
    layer("nn.kernels.fc_ms", "ms", Lower),
    layer("nn.kernels.eltwise_ms", "ms", Lower),
    layer("nn.kernels.gmacs_per_s", "GMAC/s", Higher),
    layer("tensor.tile_convert_ms", "ms", Lower),
    layer("sim.host_ms_per_image", "ms", Lower),
    layer("sim.slowdown_vs_model", "x", Lower),
    layer("accel.compute_cycles", "count", Lower),
    layer("accel.io_dma_cycles", "count", Lower),
    layer("accel.weight_dma_cycles", "count", Lower),
    layer("accel.stripes", "count", Lower),
    layer("accel.mac_utilization", "share", Higher),
    layer("accel.zero_skip_speedup", "x", Higher),
    layer("accel.model_error_ppm", "ppm", Lower),
    layer("core.batch.images_per_s", "img/s", Higher),
    layer("core.batch.steals", "count", Lower),
    layer("core.serve.queue_wait_us_p50", "us", Lower),
    layer("core.serve.queue_wait_us_p95", "us", Lower),
    layer("core.serve.batch_wall_us_p50", "us", Lower),
    layer("core.serve.batch_size_mean_rate", "count", Lower),
    layer("core.serve.batch_size_mean_sat", "count", Higher),
    layer("core.serve.rejected", "count", Lower),
    layer("core.serve.stats_op_us", "us", Lower),
    layer("core.serve.rss_growth_kib", "KiB", Lower),
    layer("core.serve.efficiency", "share", Higher),
    layer("wire.parse_request_us", "us", Lower),
    layer("wire.request_tensor_us", "us", Lower),
    layer("wire.render_reply_us", "us", Lower),
    layer("wire.request_bytes", "count", Lower),
    layer("client.latency_ms_p50", "ms", Lower),
    layer("client.images_per_s", "img/s", Higher),
    layer("client.overhead_ms_p50", "ms", Lower),
    layer("client.serve_p95_ms", "ms", Lower),
    layer("client.late_max_ms", "ms", Lower),
    layer("client.warm_image_p90_ms", "ms", Lower),
    layer("host.slowdown", "x", Lower),
];

/// The per-layer values of one traced run: every [`PER_LAYER`] name,
/// 0 until a probe sets it.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Layers {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }
}

impl Layers {
    /// Sets one per-layer metric.
    ///
    /// # Panics
    /// On a name that is not in [`PER_LAYER`]: a probe must not invent
    /// metrics the contract does not list.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("'{name}' is not a per-layer metric"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    /// Every metric in [`PER_LAYER`] order.
    pub fn values(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER.iter().map(|m| (m.name, self.0[m.name])).collect()
    }
}

/// What one run of one workload reports on its last stdout line.
pub struct Outcome {
    /// Operations attempted (spawns, images, requests).
    pub attempted: u64,
    /// Non-zero exits, `ok:false`, rejections, timeouts, golden mismatches.
    pub failed: u64,
    /// `(name, value)` for every end-to-end metric (`--trace 0`) or every
    /// per-layer metric (`--trace 1`).
    pub metrics: Vec<(&'static str, f64)>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .unwrap_or_else(|| panic!("'{name}' is not in the metric contract"))
}

impl Outcome {
    /// The one-line JSON result the driver reads. Values print with all
    /// their digits (`f64` shortest round-trip form).
    ///
    /// # Panics
    /// On a non-finite value: a metric that could not be measured is a
    /// harness bug, not a number to report.
    pub fn to_json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                let entry = Json::obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(unit_of(name).into())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string_compact()
    }
}
