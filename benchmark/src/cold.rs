//! `vgg16_cold`: one `zskip infer --hw 32 --backend cpu` process per
//! sample, spawn to verified result. The traced run alternates the real
//! CLI with a fresh child of the harness that mirrors `src/main.rs::infer`
//! stage by stage under spans.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use zskip::accel::{weight_cache_stats, BackendKind};
use zskip::json::Json;
use zskip::nn::conv::tap_cache_stats;
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::fc::argmax;
use zskip::nn::ExecPlan;

use crate::calib::HostSpeed;
use crate::child::{proc_status_kib, Spawned, INFER_TIMEOUT};
use crate::contract::{workload, Layers, Outcome, VGG16_COLD};
use crate::spans::{Recorder, Track};
use crate::stats::{median, min_max};
use crate::{net, probes, Opts, SETUP_REPS};

/// What the CLI must print for the image of `--seed`.
struct Expected {
    cycles: u64,
    ddr_bytes: u64,
    class: usize,
}

/// One `zskip infer` run as the harness saw it.
struct Sample {
    wall_ms: f64,
    peak_rss_kib: u64,
    /// Why the sample failed, if it did.
    failure: Option<String>,
}

/// The number right before `marker` on the line that contains it.
fn number_before(stdout: &str, marker: &str) -> Option<u64> {
    let line = stdout.lines().find(|l| l.contains(marker))?;
    line[..line.find(marker)?]
        .split_whitespace()
        .last()?
        .parse()
        .ok()
}

/// The number right after `marker` on the line that contains it.
fn number_after(stdout: &str, marker: &str) -> Option<u64> {
    let line = stdout.lines().find(|l| l.contains(marker))?;
    line[line.find(marker)? + marker.len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Checks one CLI run's output against the in-process reference.
fn verify(stdout: &str, want: &Expected) -> Result<(), String> {
    if !stdout.contains("bit-exact vs the software golden model") {
        return Err("no 'bit-exact vs the software golden model' line".into());
    }
    let check = |what: &str, got: Option<u64>, want: u64| match got {
        Some(g) if g == want => Ok(()),
        Some(g) => Err(format!(
            "{what}: CLI printed {g}, in-process reference is {want}"
        )),
        None => Err(format!("{what}: not found in the CLI output")),
    };
    check("cycles", number_before(stdout, " cycles = "), want.cycles)?;
    check(
        "DDR MiB",
        number_after(stdout, "DDR "),
        want.ddr_bytes >> 20,
    )?;
    check(
        "predicted class",
        number_after(stdout, "predicted class: "),
        want.class as u64,
    )
}

fn spawn_cli(cli: &Path, seed: u64, want: &Expected) -> Result<Sample, String> {
    let seed = seed.to_string();
    let mut child = Spawned::spawn(
        cli,
        &["infer", "--hw", "32", "--backend", "cpu", "--seed", &seed],
        "cold-infer",
        INFER_TIMEOUT,
    )?;
    let mut peak_rss_kib = 0;
    let waited = child.wait(|pid| {
        peak_rss_kib = proc_status_kib(pid, "VmHWM").unwrap_or(0).max(peak_rss_kib);
    });
    let (failure, wall_ms) = match waited {
        Ok((status, wall)) => {
            let failure = if status.success() {
                verify(&child.stdout(), want).err()
            } else {
                Some(format!("exit {status}"))
            };
            (failure, wall.as_secs_f64() * 1e3)
        }
        Err(e) => (Some(e), INFER_TIMEOUT.as_secs_f64() * 1e3),
    };
    if let Some(why) = &failure {
        eprintln!(
            "vgg16_cold: sample failed: {why}\n--- stderr of zskip infer ---\n{}",
            child.stderr()
        );
    }
    Ok(Sample {
        wall_ms,
        peak_rss_kib,
        failure,
    })
}

/// Builds the CLI's network and session in process and runs the image of
/// `--seed` once: the values every spawned CLI run is checked against.
/// Returns them with the set-up time (network + session build).
fn reference(seed: u64) -> Result<(Expected, f64), String> {
    let t = Instant::now();
    let qnet = net::build_network(&net::vgg16_spec());
    let session = net::session(BackendKind::Cpu)?;
    let setup_s = t.elapsed().as_secs_f64();
    let image = synthetic_inputs(seed, 1, qnet.spec.input).remove(0);
    let report = session
        .infer(&qnet, &image)
        .map_err(|e| format!("reference inference failed: {e}"))?;
    let class = argmax(&report.output).ok_or("reference output is empty")?;
    Ok((
        Expected {
            cycles: report.total_cycles,
            ddr_bytes: report.ddr_bytes,
            class,
        },
        setup_s,
    ))
}

pub fn run(cli: &Path, opts: &Opts) -> Result<Outcome, String> {
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let host = HostSpeed::start();
    let setup_from = Instant::now();
    let mut references = (0..reps)
        .map(|_| reference(opts.seed))
        .collect::<Result<Vec<_>, _>>()?;
    let setups: Vec<f64> = references.iter().map(|(_, setup_s)| *setup_s).collect();
    let (want, _) = references.pop().expect("set up at least once");
    let setup_to = Instant::now();
    if opts.trace {
        return run_traced(cli, opts, &want, host);
    }

    let limit_ms = workload(VGG16_COLD).expect("defined").limit_ms;
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.is_empty() || t0.elapsed().as_secs_f64() < opts.seconds {
        samples.push(spawn_cli(cli, opts.seed, &want)?);
    }
    let loop_end = Instant::now();
    let wall_s = loop_end.duration_since(t0).as_secs_f64();
    let speed = host.stop();
    let slow_setup = speed.slowdown(setup_from, setup_to);
    let slow = speed.slowdown(t0, loop_end);

    let walls: Vec<f64> = samples.iter().map(|s| s.wall_ms).collect();
    let failed = samples.iter().filter(|s| s.failure.is_some()).count();
    let within = samples
        .iter()
        .filter(|s| s.failure.is_none() && s.wall_ms / slow <= limit_ms)
        .count();
    let peak_kib = samples.iter().map(|s| s.peak_rss_kib).max().unwrap_or(0);
    let (min, max) = min_max(&walls);
    eprintln!(
        "vgg16_cold: n={} raw spawn->exit ms: median {:.1} min {min:.1} max {max:.1}; {failed} failed",
        samples.len(),
        median(&walls),
    );
    eprintln!(
        "vgg16_cold: host slowdown {slow:.3} over the loop ({slow_setup:.3} over set-up), {}: at undisturbed host speed median {:.1} ms",
        speed.describe(),
        median(&walls) / slow,
    );
    Ok(Outcome {
        attempted: samples.len() as u64,
        failed: failed as u64,
        metrics: vec![
            ("setup_s", median(&setups) / slow_setup),
            ("latency_ms", median(&walls) / slow),
            ("images_per_s", samples.len() as f64 / wall_s * slow),
            ("within_limit_share", within as f64 / samples.len() as f64),
            ("peak_rss_mib", peak_kib as f64 / 1024.0),
            ("accel_cycles", want.cycles as f64),
            ("accel_ddr_bytes", want.ddr_bytes as f64),
        ],
    })
}

/// Stage spans of the cold path, in the order `src/main.rs::infer` runs
/// them; their sum is held against the real CLI's wall time.
const COLD_STAGES: [&str; 6] = [
    "nn.model.synthetic",
    "nn.model.quantize",
    "nn.eval.synthetic_inputs",
    "core.session.build",
    "core.driver.first_infer",
    "nn.model.golden_cold",
];

fn run_traced(
    cli: &Path,
    opts: &Opts,
    want: &Expected,
    host: HostSpeed,
) -> Result<Outcome, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot find the harness binary: {e}"))?;
    let seed = opts.seed.to_string();
    let mut rec = Recorder::default();
    let mut cli_ms = Vec::new();
    let mut cli_windows = Vec::new();
    let mut failed = 0;
    // Over the children: each layer metric's values, and the sums of the
    // stage spans.
    let mut child_layers: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut stage_sums_s = Vec::new();
    let t0 = Instant::now();
    let mut round = 0u64;
    while round == 0 || t0.elapsed().as_secs_f64() < opts.seconds {
        let id = rec.enter("cli.zskip_infer", "spawn to exit", Some(round));
        let spawned = Instant::now();
        let sample = spawn_cli(cli, opts.seed, want)?;
        rec.exit(id);
        failed += u64::from(sample.failure.is_some());
        cli_ms.push(sample.wall_ms);
        cli_windows.push((spawned, Instant::now()));

        let id = rec.enter(
            "cold.child",
            "harness child mirroring src/main.rs::infer",
            Some(round),
        );
        let mut child = Spawned::spawn(
            &exe,
            &["--child", "cold-trace", "--seed", &seed],
            "cold-trace",
            INFER_TIMEOUT,
        )?;
        let offset_us = rec.at(child.started());
        let waited = child.wait(|_| {});
        rec.exit(id);
        let status = waited
            .map_err(|e| format!("cold-trace child: {e}\n{}", child.stderr()))?
            .0;
        if !status.success() {
            return Err(format!(
                "cold-trace child exited {status}\n{}",
                child.stderr()
            ));
        }
        let doc = Json::parse(child.stdout().lines().last().unwrap_or(""))
            .map_err(|e| format!("cold-trace child printed no JSON: {e}"))?;
        let mut stage_sum_us = 0.0;
        for s in doc.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
            let field = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let name = s.get("name").and_then(Json::as_str).unwrap_or("?");
            rec.add(
                name,
                "",
                offset_us + field("start_us"),
                offset_us + field("end_us"),
                Some(id),
                Some(round),
            );
            if COLD_STAGES.contains(&name) {
                stage_sum_us += field("end_us") - field("start_us");
            }
        }
        stage_sums_s.push(stage_sum_us / 1e6);
        if let Some(Json::Obj(fields)) = doc.get("layers") {
            for (name, value) in fields {
                let value = value.as_f64().unwrap_or(0.0);
                child_layers.entry(name.clone()).or_default().push(value);
            }
        }
        round += 1;
    }
    // The host's slowdown while the real CLI ran (not while the child
    // did, which runs probes of its own after the mirrored path).
    let speed = host.stop();
    let slows: Vec<f64> = cli_windows
        .iter()
        .map(|&(from, to)| speed.slowdown(from, to))
        .collect();
    let slow = median(&slows);

    let mut layers = Layers::default();
    for (name, values) in &child_layers {
        layers.set(name, median(values));
    }
    layers.set("host.slowdown", slow);
    layers.set("client.latency_ms_p50", median(&cli_ms) / slow);
    layers.set("client.images_per_s", 1e3 / median(&cli_ms) * slow);
    layers.set(
        "cli.process_overhead_s",
        median(&cli_ms) / 1e3 - median(&stage_sums_s),
    );
    crate::finish_trace(&rec, VGG16_COLD)?;
    Ok(Outcome {
        attempted: round,
        failed,
        metrics: layers.values(),
    })
}

/// `--child cold-trace`: mirrors `src/main.rs::infer` for `--hw 32
/// --backend cpu` in a fresh process, one span per stage, then probes
/// what only a process that has just paid the cold path can show (cache
/// counters of the first inference). Prints spans and layer values as
/// one JSON line.
pub fn child_main(seed: u64) -> Result<(), String> {
    let mut rec = Recorder::default();
    let mut layers = Layers::default();
    let spec = net::vgg16_spec();
    let (float_net, us) = rec.time(COLD_STAGES[0], "", None, || net::synthesize(&spec));
    layers.set("nn.model.synthetic_s", us / 1e6);
    // `quantize` drops the float network before returning, as main.rs
    // does before its first inference.
    let (qnet, us) = rec.time(COLD_STAGES[1], "", None, || net::quantize(float_net));
    layers.set("nn.model.quantize_s", us / 1e6);
    let (image, _) = rec.time(COLD_STAGES[2], "", None, || {
        synthetic_inputs(seed, 1, qnet.spec.input).remove(0)
    });
    let (session, us) = rec.time(COLD_STAGES[3], "", None, || net::session(BackendKind::Cpu));
    let session = session?;
    layers.set("core.session.build_us", us);

    let (taps, groups) = (tap_cache_stats(), weight_cache_stats());
    let (report, us) = rec.time(COLD_STAGES[4], "", None, || session.infer(&qnet, &image));
    let report = report.map_err(|e| format!("first inference failed: {e}"))?;
    layers.set("core.driver.first_infer_ms", us / 1e3);
    let groups_after = weight_cache_stats();
    layers.set(
        "core.exec.weight_cache_misses",
        (groups_after.misses - groups.misses) as f64,
    );
    layers.set(
        "core.exec.weight_cache_hits",
        (groups_after.hits - groups.hits) as f64,
    );

    let (golden, us) = rec.time(COLD_STAGES[5], "", None, || qnet.forward_quant(&image));
    layers.set("nn.model.golden_cold_ms", us / 1e3);
    // The packed-tap cache over the whole cold path (first inference and
    // golden check): whichever stage packs the taps pays the misses.
    let taps_after = tap_cache_stats();
    layers.set(
        "quant.tap_cache_misses",
        (taps_after.misses - taps.misses) as f64,
    );
    layers.set("quant.tap_cache_hits", (taps_after.hits - taps.hits) as f64);
    if report.output != golden {
        return Err("cold-trace child: output differs from the software golden model".into());
    }

    // Past the mirrored path: stand-alone timings of pieces it contains.
    let (plan, us) = rec.time("nn.plan.build", "", None, || ExecPlan::build(&qnet.spec));
    plan.map_err(|e| format!("plan build failed: {e}"))?;
    layers.set("nn.plan.build_us", us);
    probes::pack_all(&mut rec, &mut layers, &qnet, session.driver().config.lanes);
    probes::accel(&mut rec, &mut layers, &qnet, &image)?;

    let spans = rec
        .spans()
        .iter()
        .filter(|s| s.track == Track::Host)
        .map(|s| {
            Json::obj([
                ("name", Json::Str(s.name.clone())),
                ("start_us", Json::Num(s.start_us)),
                ("end_us", Json::Num(s.end_us)),
            ])
        })
        .collect();
    let values = layers
        .values()
        .into_iter()
        .filter(|(_, v)| *v != 0.0)
        .map(|(k, v)| (k, Json::Num(v)));
    let doc = Json::obj([("spans", Json::Arr(spans)), ("layers", Json::obj(values))]);
    println!("{}", doc.to_string_compact());
    Ok(())
}
