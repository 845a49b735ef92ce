//! `zskip-benchmark`: see `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--repeat K]
//! ```
//!
//! With `--workload` (how the driver calls it): one run of one workload;
//! the last stdout line is the JSON result. Without: the whole suite with
//! a report for people.

use std::process::ExitCode;

use zskip_benchmark::suite::{self, SuiteOpts};
use zskip_benchmark::{cold, run_workload, Opts};

/// Default image seed.
const DEFAULT_SEED: u64 = 11;
/// Default length of one run's timed phase; `run_seconds` in
/// `BENCHMARK.json` is the same number.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: zskip-benchmark [--workload vgg16_cold|vgg16_warm|vgg16_cycle|resnet18_serve] \
[--seed N] [--seconds S] [--trace 0|1] [--repeat K]\n\
  with --workload: one run; the last stdout line is the JSON result (end-to-end metrics at --trace 0, per-layer at --trace 1)\n\
  without: the whole suite (K sets, default 1), one traced run per workload unless --trace 0, verdicts against benchmark/baseline.json";

struct Args {
    workload: Option<String>,
    child: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        child: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--child" => args.child = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                })
            }
            "--repeat" => {
                args.repeat = value()?
                    .parse()
                    .map_err(|_| "--repeat takes a whole number")?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if let Some(child) = &args.child {
        return match child.as_str() {
            "cold-trace" => cold::child_main(args.seed).map(|()| true),
            other => Err(format!("unknown --child '{other}'")),
        };
    }
    match &args.workload {
        Some(name) => {
            let opts = Opts {
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace.unwrap_or(false),
            };
            let outcome = run_workload(name, &opts)?;
            println!("{}", outcome.to_json_line());
            Ok(true)
        }
        None => suite::run(&SuiteOpts {
            seed: args.seed,
            seconds: args.seconds,
            repeat: args.repeat,
            trace: args.trace,
        }),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "zskip-benchmark: a run was incorrect or a metric regressed (see the report above)"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("zskip-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
