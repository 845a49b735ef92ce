//! Simulator scheduler benchmark: dense stepper vs. event-driven engine
//! on VGG-16 engine-level conv/pool blocks. Emits `BENCH_sim.json` at the
//! repository root plus the `experiments/sim_bench.txt` rendering.
//!
//! Both schedulers run the identical workload and the reports are asserted
//! bit-identical before any timing is reported — a speedup over a wrong
//! simulation would be worthless.
//!
//! ```sh
//! cargo run --release --bin sim_bench            # full benchmark
//! cargo run --release --bin sim_bench -- --check # fast regression guard
//! ```
//!
//! `--check` runs a reduced workload and exits nonzero if the event-driven
//! scheduler produces different results or a lower cycles/s than the dense
//! stepper — the cargo-bench-free timing regression guard wired into
//! `scripts/verify.sh`.

use std::time::Instant;
use zskip_bench::{build_engine_workload, make_conv_layer, write_bench_artifacts, HARNESS_SEED};
use zskip_core::cycle::{self, CycleOutcome, Feed, HostLayer, HostModel, RunOptions};
use zskip_core::{AccelConfig, BankSet, Instruction};
use zskip_hls::AccelArch;
use zskip_json::{Json, ToJson};
use zskip_quant::Sm8;
use zskip_sim::{Fifo, SchedMode};
use zskip_soc::{DdrModel, HostCpu};
use zskip_tensor::Tensor;

fn config() -> AccelConfig {
    AccelConfig::from_arch(&AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 8192 }, 100.0)
}

/// One workload measured under both schedulers.
struct WorkloadResult {
    name: &'static str,
    density: f64,
    cycles: u64,
    dense_wall_s: f64,
    dense_cycles_per_s: f64,
    event_wall_s: f64,
    event_cycles_per_s: f64,
    speedup: f64,
    parks: u64,
    wakes: u64,
    executed_cycles: u64,
    idle_jumped: u64,
    lean_cycles: u64,
}

impl ToJson for WorkloadResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("density", self.density.to_json()),
            ("cycles", self.cycles.to_json()),
            ("dense_wall_s", self.dense_wall_s.to_json()),
            ("dense_cycles_per_s", self.dense_cycles_per_s.to_json()),
            ("event_wall_s", self.event_wall_s.to_json()),
            ("event_cycles_per_s", self.event_cycles_per_s.to_json()),
            ("speedup", self.speedup.to_json()),
            ("parks", self.parks.to_json()),
            ("wakes", self.wakes.to_json()),
            ("executed_cycles", self.executed_cycles.to_json()),
            ("idle_jumped", self.idle_jumped.to_json()),
            ("lean_cycles", self.lean_cycles.to_json()),
        ])
    }
}

struct Bench {
    workloads: Vec<WorkloadResult>,
    fifo_ops_per_s: f64,
}

impl ToJson for Bench {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workloads", self.workloads.to_json()),
            ("fifo_ops_per_s", self.fifo_ops_per_s.to_json()),
        ])
    }
}

fn input(c: usize, hw: usize) -> Tensor<Sm8> {
    Tensor::from_fn(c, hw, hw, |ch, y, x| Sm8::from_i32_saturating(((ch * 31 + y * 7 + x) % 200) as i32 - 100))
}

/// Best-of-`n` wall time of `f`, in seconds, plus the last result.
fn time_best<T>(n: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..n {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        result = Some(r);
    }
    (best, result.expect("ran at least once"))
}

/// Times both schedulers on the same workload, asserts bit-identity, and
/// folds the timings plus the event run's scheduler counters into one row.
fn measure(
    name: &'static str,
    density: f64,
    reps: usize,
    run: impl Fn(SchedMode) -> CycleOutcome,
) -> WorkloadResult {
    let (dense_wall_s, dense) = time_best(reps, || run(SchedMode::Dense));
    let (event_wall_s, event) = time_best(reps, || run(SchedMode::EventDriven));

    assert_eq!(dense.cycles, event.cycles, "{name}: cycle counts diverged");
    assert_eq!(dense.report, event.report, "{name}: kernel stats or counters diverged");
    assert_eq!(dense.banks.stats(), event.banks.stats(), "{name}: bank traffic diverged");

    let sched = event.report.sched;
    WorkloadResult {
        name,
        density,
        cycles: event.cycles,
        dense_wall_s,
        dense_cycles_per_s: dense.cycles as f64 / dense_wall_s,
        event_wall_s,
        event_cycles_per_s: event.cycles as f64 / event_wall_s,
        speedup: dense_wall_s / event_wall_s,
        parks: sched.parks,
        wakes: sched.wakes,
        executed_cycles: sched.executed_cycles,
        idle_jumped: sched.idle_jumped,
        lean_cycles: sched.lean_cycles,
    }
}

/// One run of the workload under `sched`, everything else at the defaults.
fn run_sched(cfg: &AccelConfig, banks: &BankSet, scratch: &[u8], feed: Feed, sched: SchedMode) -> CycleOutcome {
    let opts = RunOptions { sched, ..RunOptions::default() };
    cycle::run(cfg, banks.clone(), scratch, feed, &opts).expect("workload runs")
}

fn bench_workload(name: &'static str, density: f64, hw: usize, reps: usize) -> WorkloadResult {
    let cfg = config();
    let (qw, _, _) = make_conv_layer(64, 64, hw, density, HARNESS_SEED);
    let (banks, scratch, instrs): (BankSet, Vec<u8>, Vec<Instruction>) =
        build_engine_workload(&cfg, &qw, &input(64, hw));

    measure(name, density, reps, |sched| run_sched(&cfg, &banks, &scratch, Feed::Preloaded(instrs.clone()), sched))
}

/// ARM-side pre-processing (tiling, padding, quantization, weight
/// packing) costs roughly 30 A9 cycles per staged byte; the HPS runs
/// ~6.7x the fabric clock, so ≈ 4.5 fabric cycles per byte.
fn preproc_fabric_cycles(bytes: u64) -> u64 {
    bytes * 9 / 2
}

/// The hosted system workload (paper §IV-C): the host kernel stages each
/// layer's weights and feature maps over DDR, pre-processes them on the
/// ARM, dispatches the layer's instructions, and polls for quiescence.
/// Staging latencies come from the SoC-level DDR burst model and host
/// driver constants applied to the actual staged byte counts, so the
/// engine-level schedule matches what the SoC backend would charge. The
/// design spends most of its cycles fully quiescent — the workload class
/// where the event scheduler's idle jump dominates.
fn bench_hosted_workload(name: &'static str, density: f64, hw: usize, n_layers: usize, reps: usize) -> WorkloadResult {
    let cfg = config();
    let (qw, _, _) = make_conv_layer(64, 64, hw, density, HARNESS_SEED);
    let (banks, scratch, instrs): (BankSet, Vec<u8>, Vec<Instruction>) =
        build_engine_workload(&cfg, &qw, &input(64, hw));

    let ddr = DdrModel::new(0);
    let host = HostCpu::new();
    // Each dispatch batch stages its own slice of the weight scratchpad
    // plus the layer's full feature-map traffic: the SoC flow DMAs the
    // IFM in and the OFM back around every layer launch.
    let ifm_bytes = 64 * (hw + 2) * (hw + 2);
    let ofm_bytes = 64 * hw * hw;
    let layer_bytes = (scratch.len() / n_layers + ifm_bytes + ofm_bytes) as u64;
    let staging_cycles = ddr.burst_cycles(layer_bytes as usize)
        + preproc_fabric_cycles(layer_bytes)
        + host.sw_overhead_cycles
        + host.bridge_cycles;

    let per_chunk = instrs.len().div_ceil(n_layers);
    let model = HostModel {
        poll_interval: host.poll_interval_cycles(),
        layers: instrs.chunks(per_chunk).map(|c| HostLayer { staging_cycles, instrs: c.to_vec() }).collect(),
    };

    measure(name, density, reps, |sched| run_sched(&cfg, &banks, &scratch, Feed::Hosted(model.clone()), sched))
}

/// Raw ring-buffer throughput: steady-state push+pop pairs per second
/// through one registered FIFO, including the per-cycle `end_cycle`
/// commit. Isolates the queue from the scheduler.
fn bench_fifo_ops() -> f64 {
    let mut f: Fifo<u64> = Fifo::new("bench", 8);
    // Prefill so steady state has both a push and a pop every cycle.
    for i in 0..4u64 {
        f.try_push(i).expect("room");
        f.end_cycle();
    }
    let iters = 4_000_000u64;
    let t0 = Instant::now();
    let mut sum = 0u64;
    for i in 0..iters {
        if let Some(v) = f.try_pop() {
            sum = sum.wrapping_add(v);
        }
        f.try_push(i).expect("pop freed a slot");
        f.end_cycle();
    }
    let wall = t0.elapsed().as_secs_f64();
    assert!(sum > 0, "pops must have observed data");
    iters as f64 * 2.0 / wall
}

fn render(bench: &Bench) -> String {
    let mut text = String::new();
    text.push_str("Simulator scheduler: dense stepper vs. event-driven engine\n\n");
    text.push_str(&format!(
        "{:<24} {:>8} {:>10} {:>11} {:>11} {:>8} {:>9} {:>9} {:>9}\n",
        "workload", "density", "cycles", "dense Mc/s", "event Mc/s", "speedup", "parks", "wakes", "jumped"
    ));
    for w in &bench.workloads {
        text.push_str(&format!(
            "{:<24} {:>8.2} {:>10} {:>11.2} {:>11.2} {:>7.2}x {:>9} {:>9} {:>9}\n",
            w.name,
            w.density,
            w.cycles,
            w.dense_cycles_per_s / 1e6,
            w.event_cycles_per_s / 1e6,
            w.speedup,
            w.parks,
            w.wakes,
            w.idle_jumped,
        ));
    }
    text.push_str(&format!(
        "\nring-buffer FIFO: {:.1}M ops/s (steady-state push+pop)\n",
        bench.fifo_ops_per_s / 1e6
    ));
    text
}

/// Fast regression guard for `scripts/verify.sh`: a reduced hosted
/// workload, exit nonzero if the event scheduler diverges, fails to park,
/// fails to jump the staging gaps, or falls below the dense stepper. The
/// hosted design is mostly quiescent, so the event win is structural
/// (idle cycles are jumped, not ground through) and the guard holds even
/// on a noisy box.
fn check() -> ! {
    let w = bench_hosted_workload("check_hosted_block", 0.35, 16, 2, 2);
    println!(
        "check: {} cycles ({} jumped), dense {:.2}M cycles/s, event {:.2}M cycles/s ({:.2}x), {} parks",
        w.cycles,
        w.idle_jumped,
        w.dense_cycles_per_s / 1e6,
        w.event_cycles_per_s / 1e6,
        w.speedup,
        w.parks
    );
    if w.parks == 0 {
        eprintln!("FAIL: event run parked nothing — scheduler not engaging");
        std::process::exit(1);
    }
    if w.idle_jumped < w.cycles / 2 {
        eprintln!("FAIL: event run ground through quiescent cycles instead of jumping them");
        std::process::exit(1);
    }
    if w.event_cycles_per_s < w.dense_cycles_per_s {
        eprintln!("FAIL: event-driven scheduler regressed below the dense stepper");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        check();
    }

    let workloads = vec![
        // The headline: the full system view with the host kernel staging
        // each layer over DDR and polling for quiescence. The design is
        // quiescent for most of its lifetime and the event scheduler
        // jumps those stretches wholesale.
        bench_hosted_workload("vgg16_hosted_system", 0.35, 32, 4, 3),
        // Dense weights: every lane streams full 9-entry filters, the
        // datapath is saturated — the scheduler's worst case.
        bench_workload("vgg_block_dense_weights", 1.0, 32, 3),
        // Deep-compression-grade pruning: the 4-cycle quad-load floor and
        // lockstep bubbles leave most kernels blocked most cycles — the
        // scheduler's home turf.
        bench_workload("vgg_block_pruned", 0.35, 32, 3),
        bench_workload("vgg_block_heavily_pruned", 0.15, 32, 3),
    ];
    let bench = Bench { workloads, fifo_ops_per_s: bench_fifo_ops() };

    let text = render(&bench);
    print!("{text}");
    write_bench_artifacts("sim_bench", "BENCH_sim.json", &text, &bench);
    println!("wrote BENCH_sim.json");
}
