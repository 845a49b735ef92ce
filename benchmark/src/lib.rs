//! The repo's one end-to-end + per-layer benchmark: cold start, warm
//! image, cycle simulator and serve daemon on VGG-16 and ResNet-18.
//! `README.md` beside this crate is the user-facing contract;
//! `../BENCHMARK.json` is the driver-facing one.

pub mod calib;
pub mod child;
pub mod cold;
pub mod contract;
pub mod inproc;
pub mod net;
pub mod probes;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod suite;

use zskip::accel::BackendKind;

use contract::{Outcome, RESNET18_SERVE, VGG16_COLD, VGG16_CYCLE, VGG16_WARM};

/// Times a workload sets up in one untraced run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// What one run of one workload is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seed of the generated images.
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    /// `false`: end-to-end metrics, no spans. `true`: per-layer metrics
    /// from spans and probes, written to `benchmark/out/trace-<workload>.json`.
    pub trace: bool,
}

/// Runs one workload once.
///
/// # Errors
/// When the workload could not be measured at all (the program does not
/// build, a child cannot be spawned, the daemon never listens). Failed
/// operations inside a measurable run are counted in the outcome instead.
pub fn run_workload(name: &str, opts: &Opts) -> Result<Outcome, String> {
    let cli = net::build_cli()?;
    match name {
        VGG16_COLD => cold::run(&cli, opts),
        VGG16_WARM => inproc::run(BackendKind::Cpu, opts),
        VGG16_CYCLE => inproc::run(BackendKind::Cycle, opts),
        RESNET18_SERVE => serve::run(&cli, opts),
        other => Err(format!(
            "unknown workload '{other}' (use {})",
            contract::WORKLOADS.map(|w| w.name).join(" | ")
        )),
    }
}

/// Ends a traced run: prints the per-layer table (self time = span minus
/// children) and writes the spans as Chrome-trace JSON.
pub(crate) fn finish_trace(rec: &spans::Recorder, workload: &str) -> Result<(), String> {
    eprintln!(
        "{workload}: per-layer spans of the traced run\n{}",
        rec.render_table()
    );
    let path = child::out_path(&format!("trace-{workload}.json"))?;
    std::fs::write(&path, rec.to_chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "{workload}: {} spans written to {}",
        rec.spans().len(),
        path.display()
    );
    Ok(())
}
