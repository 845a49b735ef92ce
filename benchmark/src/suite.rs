//! The one command a person runs: every workload, `--repeat K` sets with
//! the workloads interleaved (A B C D, B C D A, ...), one traced run per
//! workload, and a verdict per end-to-end metric against the committed
//! `benchmark/baseline.json`. Each run is a child of this binary invoked
//! exactly as the driver invokes it, so there is one measuring path.

use std::collections::BTreeMap;
use std::time::Duration;

use zskip::json::Json;

use crate::child::{capture, out_path, Spawned};
use crate::contract::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, min_max, quartile_spread};

/// The committed numbers of one full run on the reference box.
pub const BASELINE: &str = "benchmark/baseline.json";
/// The driver's cap on one run.
const RUN_TIMEOUT: Duration = Duration::from_secs(180);

pub struct SuiteOpts {
    pub seed: u64,
    pub seconds: f64,
    /// Full sets of untraced runs.
    pub repeat: usize,
    /// `Some(false)`: untraced runs only; `Some(true)`: traced only;
    /// `None`: both.
    pub trace: Option<bool>,
}

/// How a metric compares with its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread between sets exceeds the bound: not known to be
    /// unchanged, not known to be worse.
    Unresolved,
    NoBaseline,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBaseline => "no-baseline",
        }
    }
}

/// The spread between sets as the driver takes it: first to third
/// quartile as a share of the median (for three sets that is min to
/// max); 0 for a single set.
pub fn set_spread(values: &[f64]) -> f64 {
    if values.len() < 2 || median(values) == 0.0 {
        0.0
    } else {
        quartile_spread(values)
    }
}

/// Judges the per-set `values` of one metric against `baseline` with the
/// metric's fixed bound.
pub fn verdict(def: &MetricDef, baseline: Option<f64>, values: &[f64]) -> Verdict {
    let (Some(base), Some(bound)) = (baseline, def.bound) else {
        return Verdict::NoBaseline;
    };
    let worse_by = |v: f64| match def.better {
        Better::Lower => (v - base) / base,
        Better::Higher => (base - v) / base,
    };
    if values.iter().all(|&v| worse_by(v) <= 0.0) {
        Verdict::Ok
    } else if set_spread(values) > bound {
        Verdict::Unresolved
    } else if worse_by(median(values)) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One child run's result line, parsed.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot find the harness binary: {e}"))?;
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let args = [
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        if trace { "1" } else { "0" },
    ];
    let mut child = Spawned::spawn(&exe, &args, &format!("suite-{workload}"), RUN_TIMEOUT)?;
    let (status, wall) = child
        .wait(|_| {})
        .map_err(|e| format!("{workload}: {e}\n{}", child.stderr()))?;
    eprint!("{}", child.stderr());
    if !status.success() {
        return Err(format!("{workload}: run exited {status}"));
    }
    let stdout = child.stdout();
    let doc = Json::parse(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("{workload}: no result line: {e}"))?;
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(fields)) = doc.get("metrics") {
        for (name, m) in fields {
            metrics.insert(
                name.clone(),
                m.get("value")
                    .and_then(Json::as_f64)
                    .ok_or(format!("{workload}: metric {name} has no value"))?,
            );
        }
    }
    eprintln!("{workload}: run took {:.1} s wall", wall.as_secs_f64());
    Ok(RunResult {
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false),
        attempted: doc.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: doc.get("failed").and_then(Json::as_u64).unwrap_or(0),
        metrics,
    })
}

/// `workloads.<w>.<metric>` of the committed baseline, if there is one.
fn load_baseline() -> Option<Json> {
    Json::parse(&std::fs::read_to_string(BASELINE).ok()?).ok()
}

/// The host descriptor printed above every report and kept with the
/// medians (fields are best effort: `unknown` outside a git checkout).
struct Host {
    nproc: usize,
    kernel_tier: String,
    rustc: String,
    commit: String,
}

impl Host {
    fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            kernel_tier: zskip::nn::dispatch().to_string(),
            rustc: capture("rustc", &["--version"]),
            commit: capture("git", &["rev-parse", "--short", "HEAD"]),
        }
    }
}

fn print_header(opts: &SuiteOpts, host: &Host) {
    println!("zskip benchmark: cold start, warm image, cycle simulator, serve daemon (VGG-16 + ResNet-18 at --hw 32)");
    println!(
        "host: nproc {} | kernel tier {} | {} | commit {} | seed {} (+1 per set) | {} s per run | {} set(s)",
        host.nproc, host.kernel_tier, host.rustc, host.commit, opts.seed, opts.seconds, opts.repeat,
    );
    println!("simulated figures (accel_*) repeat exactly; the cycle backend is the detailed reference for model/cpu.");
    println!(
        "no silicon reference exists in the repo: absolute cycles unvalidated against silicon."
    );
    println!("setup_s, latency_ms and images_per_s are at undisturbed host speed: the raw reading over the host's slowdown");
    println!("during that phase, measured by the harness's calibration kernel (raw values on stderr; README, \"Host-speed calibration\").");
    println!("how the metrics interact:");
    println!(
        "  - one client, nothing contending: a faster layer saves at most its share of latency_ms;"
    );
    println!("    in resnet18_serve's closed loop both cores are busy, so freed CPU raises images_per_s by more than its share.");
    println!("  - a larger core.serve.batch_size_mean raises images_per_s and lengthens latency_ms on resnet18_serve.");
    println!("  - work moved from per-image into set-up lowers latency_ms on vgg16_warm but must show in setup_s / vgg16_cold.");
    println!(
        "  - a simulator-only speed-up must leave accel_cycles and accel_ddr_bytes identical."
    );
}

/// Runs the suite; returns whether every run was correct and no metric
/// regressed.
pub fn run(opts: &SuiteOpts) -> Result<bool, String> {
    let host = Host::probe();
    print_header(opts, &host);
    let baseline = load_baseline();
    let mut all_good = true;
    // workload -> metric -> one value per set.
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut counts: BTreeMap<&str, (u64, u64)> = BTreeMap::new();

    if opts.trace != Some(true) {
        for set in 0..opts.repeat {
            // Rotate which workload goes first so no workload always
            // inherits the same neighbour's cache and thermal state.
            for k in 0..WORKLOADS.len() {
                let w = &WORKLOADS[(set + k) % WORKLOADS.len()];
                // Another seed per set, as the driver runs it: the spread
                // then covers the images too, and the simulated figures
                // must not move with them.
                let seed = opts.seed + set as u64;
                eprintln!(
                    "--- set {} of {}: {} (seed {seed}) ---",
                    set + 1,
                    opts.repeat,
                    w.name
                );
                let r = run_child(w.name, seed, opts.seconds, false)?;
                all_good &= r.correct;
                let c = counts.entry(w.name).or_default();
                *c = (c.0 + r.attempted, c.1 + r.failed);
                for (name, v) in r.metrics {
                    values
                        .entry(w.name)
                        .or_default()
                        .entry(name)
                        .or_default()
                        .push(v);
                }
            }
        }
        println!("\nend-to-end metrics (tracing off; median over {} set(s), each value itself a median over the run's samples)", opts.repeat);
        println!(
            "{:<15} {:<19} {:>14} {:<6} {:>6} {:>12} {:>12} {:>8} {:>8}  verdict",
            "workload", "metric", "median", "unit", "sets", "min", "max", "spread", "bound"
        );
        for w in &WORKLOADS {
            let (attempted, failed) = counts[w.name];
            for def in &END_TO_END {
                let v = &values[w.name][def.name];
                let base = baseline
                    .as_ref()
                    .and_then(|b| b.get("workloads")?.get(w.name)?.get(def.name)?.as_f64());
                let verdict = verdict(def, base, v);
                all_good &= verdict != Verdict::Regressed;
                let bound = def.bound.expect("end-to-end metrics have bounds");
                let (min, max) = min_max(v);
                println!(
                    "{:<15} {:<19} {:>14.4} {:<6} {:>6} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}%  {}{}",
                    w.name,
                    def.name,
                    median(v),
                    def.unit,
                    v.len(),
                    min,
                    max,
                    set_spread(v) * 100.0,
                    bound * 100.0,
                    verdict.as_str(),
                    if opts.repeat > 1 && set_spread(v) > bound {
                        " (spread outside bound)"
                    } else {
                        ""
                    },
                );
            }
            println!(
                "{:<15} failed_share {:.4} ({failed} failed of {attempted} attempted)",
                w.name,
                failed as f64 / attempted.max(1) as f64
            );
        }
        write_result(opts, &host, &values)?;
    }

    if opts.trace != Some(false) {
        println!("\nper-layer metrics (one traced run per workload; 0 = the workload does not cross that layer)");
        let mut traced: Vec<RunResult> = Vec::new();
        for w in &WORKLOADS {
            eprintln!("--- traced: {} ---", w.name);
            let r = run_child(w.name, opts.seed, opts.seconds, true)?;
            all_good &= r.correct;
            traced.push(r);
        }
        println!(
            "{:<34} {:<7} {:>15} {:>15} {:>15} {:>15}",
            "metric",
            "unit",
            WORKLOADS[0].name,
            WORKLOADS[1].name,
            WORKLOADS[2].name,
            WORKLOADS[3].name
        );
        for def in &PER_LAYER {
            let cells: Vec<String> = traced
                .iter()
                .map(|r| {
                    format!(
                        "{:>15.4}",
                        r.metrics.get(def.name).copied().unwrap_or(f64::NAN)
                    )
                })
                .collect();
            println!("{:<34} {:<7} {}", def.name, def.unit, cells.join(" "));
        }
        for (w, r) in WORKLOADS.iter().zip(&traced) {
            if let Some(untraced) = values.get(w.name).and_then(|m| m.get("latency_ms")) {
                let traced_ms = r
                    .metrics
                    .get("client.latency_ms_p50")
                    .copied()
                    .unwrap_or(f64::NAN);
                println!(
                    "tracing overhead on {}: traced latency {:.3} ms - untraced {:.3} ms = {:+.3} ms",
                    w.name,
                    traced_ms,
                    median(untraced),
                    traced_ms - median(untraced)
                );
            }
        }
        println!(
            "spans: {}/trace-<workload>.json (Chrome trace; see benchmark/README.md)",
            crate::child::OUT_DIR
        );
    }
    Ok(all_good)
}

/// Writes the medians of this invocation to `benchmark/out/result.json`
/// in the format of `benchmark/baseline.json` (committing a copy of it
/// re-anchors the baseline).
fn write_result(
    opts: &SuiteOpts,
    host: &Host,
    values: &BTreeMap<&str, BTreeMap<String, Vec<f64>>>,
) -> Result<(), String> {
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            let medians = END_TO_END
                .iter()
                .map(|def| (def.name, Json::Num(median(&values[w.name][def.name]))));
            (w.name.to_string(), Json::obj(medians))
        })
        .collect();
    let doc = Json::obj([
        (
            "note",
            Json::Str(
                "medians of one full run of the suite; absolute cycles unvalidated against silicon"
                    .into(),
            ),
        ),
        ("commit", Json::Str(host.commit.clone())),
        ("rustc", Json::Str(host.rustc.clone())),
        ("nproc", Json::Num(host.nproc as f64)),
        ("kernel_tier", Json::Str(host.kernel_tier.clone())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("sets", Json::Num(opts.repeat as f64)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let text = doc.to_string_pretty() + "\n";
    let path = out_path("result.json")?;
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "medians written to {} (baseline: {BASELINE})",
        path.display()
    );
    Ok(())
}
