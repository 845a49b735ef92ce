//! The built-in fault-injection campaign behind `zskip faults`.
//!
//! Injects one fault per trial — each at a different site of the stack —
//! and classifies how the system degrades. A robust stack never panics
//! and never hangs: every trial must end in one of
//!
//! * **identical** — the run absorbed the fault (e.g. a transient FIFO
//!   stall only delays the pipeline) and produced bit-identical output;
//! * **recovered** — the first attempt failed with a structured error,
//!   and a retry (the one-shot fault is consumed) produced bit-identical
//!   output;
//! * **structured-error** — the failure is permanent but was reported as
//!   a typed [`Error`] with a stable [`code`](Error::code), never a
//!   panic. Deadlocks additionally name the wedged FIFO.
//!
//! A trial whose fault never fires, or that completes with *wrong*
//! output and no error, is **vulnerable** — [`CampaignReport::survived`]
//! fails and the CLI exits non-zero.

use crate::config::AccelConfig;
use crate::driver::{BackendKind, DriverError};
use crate::error::Error;
use crate::session::Session;
use zskip_fault::{FaultKind, FaultPlan};
use zskip_hls::AccelArch;
use zskip_json::Json;
use zskip_nn::eval::synthetic_inputs;
use zskip_nn::layer::{conv3x3, maxpool2x2, NetworkSpec};
use zskip_nn::model::{QuantizedNetwork, SyntheticModelConfig, WeightCode};
use zskip_nn::Scales;
use zskip_quant::{DensityProfile, Sm8};
use zskip_sim::SimError;
use zskip_soc::csr::{status, AccelCsr, CsrFile, ACCEL_CSR_BASE, CSR_BLOCK_LEN};
use zskip_soc::{AvalonBus, HostCpu};
use zskip_tensor::{Shape, Tensor};

/// How one fault trial ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialOutcome {
    /// The run completed with bit-identical output despite the fault.
    Identical,
    /// The first attempt failed with a structured error; a retry
    /// completed with bit-identical output.
    Recovered,
    /// The failure is permanent but surfaced as a typed error.
    StructuredError,
    /// The fault never fired, or the run silently produced wrong output.
    Vulnerable,
}

impl TrialOutcome {
    /// Stable label for the JSON report.
    pub fn label(self) -> &'static str {
        match self {
            TrialOutcome::Identical => "identical",
            TrialOutcome::Recovered => "recovered",
            TrialOutcome::StructuredError => "structured-error",
            TrialOutcome::Vulnerable => "VULNERABLE",
        }
    }
}

/// One row of the survivability matrix.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// Injection site (see `zskip_fault` docs for the naming scheme).
    pub site: String,
    /// The fault injected there (its `Display` form).
    pub fault: String,
    /// How the trial ended.
    pub outcome: TrialOutcome,
    /// Stable error code ([`Error::code`]) when an error was observed.
    pub code: Option<&'static str>,
    /// Human-readable account of what happened.
    pub detail: String,
    /// Whether the injected fault actually fired.
    pub fired: bool,
}

/// The survivability matrix of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// One row per trial.
    pub trials: Vec<TrialResult>,
}

impl CampaignReport {
    /// `true` when every trial fired its fault and degraded gracefully.
    pub fn survived(&self) -> bool {
        self.trials.iter().all(|t| t.fired && t.outcome != TrialOutcome::Vulnerable)
    }

    /// Trial count per outcome: `(identical, recovered, errors, vulnerable)`.
    pub fn tally(&self) -> (usize, usize, usize, usize) {
        let count = |o| self.trials.iter().filter(|t| t.outcome == o).count();
        (
            count(TrialOutcome::Identical),
            count(TrialOutcome::Recovered),
            count(TrialOutcome::StructuredError),
            count(TrialOutcome::Vulnerable),
        )
    }

    /// The JSON survivability report `zskip faults --json` emits.
    pub fn to_json(&self) -> Json {
        let (identical, recovered, errors, vulnerable) = self.tally();
        Json::obj([
            ("survived", Json::Bool(self.survived())),
            ("trials", Json::Num(self.trials.len() as f64)),
            ("identical", Json::Num(identical as f64)),
            ("recovered", Json::Num(recovered as f64)),
            ("structured_errors", Json::Num(errors as f64)),
            ("vulnerable", Json::Num(vulnerable as f64)),
            (
                "matrix",
                Json::Arr(
                    self.trials
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("site", Json::Str(t.site.clone())),
                                ("fault", Json::Str(t.fault.clone())),
                                ("outcome", Json::Str(t.outcome.label().into())),
                                (
                                    "code",
                                    t.code.map(|c| Json::Str(c.into())).unwrap_or(Json::Null),
                                ),
                                ("fired", Json::Bool(t.fired)),
                                ("detail", Json::Str(t.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Campaign parameters. The defaults are the fast configuration
/// `scripts/verify.sh` runs; larger inputs only make the same faults fire
/// deeper into the run.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Input height/width of the synthetic network the trials run.
    pub hw: usize,
    /// Seed for synthetic weights and inputs.
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig { hw: 8, seed: 7 }
    }
}

fn campaign_net(cfg: &CampaignConfig) -> (QuantizedNetwork, Vec<Tensor<f32>>) {
    let spec = NetworkSpec {
        name: "fault-campaign".into(),
        input: Shape::new(3, cfg.hw, cfg.hw),
        layers: vec![conv3x3("c1", 3, 6), maxpool2x2("p1"), conv3x3("c2", 6, 4)],
    };
    let calib = synthetic_inputs(cfg.seed ^ 1, 2, spec.input);
    let qnet = QuantizedNetwork::synthetic(
        &spec,
        &SyntheticModelConfig { seed: cfg.seed, density: DensityProfile::uniform(2, 0.5) },
        Scales::Calibrate(&calib),
        WeightCode::Int8,
    );
    let inputs = synthetic_inputs(cfg.seed ^ 2, 4, spec.input);
    (qnet, inputs)
}

fn accel_config() -> AccelConfig {
    AccelConfig::from_arch(&AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 4096 }, 100.0)
}

/// Runs one inference trial: inject `kind` at `site`, run, retry once on
/// a transient error (the one-shot fault is consumed by then), and
/// compare against the fault-free output.
fn inference_trial(
    site: &str,
    at: u64,
    kind: FaultKind,
    backend: BackendKind,
    qnet: &QuantizedNetwork,
    input: &Tensor<f32>,
    clean: &[Sm8],
) -> TrialResult {
    let plan = FaultPlan::new().inject(site, at, kind).shared();
    let session = match Session::builder(accel_config()).backend(backend).fault_plan(plan.clone()).build() {
        Ok(s) => s,
        Err(e) => {
            return TrialResult {
                site: site.into(),
                fault: kind.to_string(),
                outcome: TrialOutcome::Vulnerable,
                code: None,
                detail: format!("driver construction failed: {e}"),
                fired: false,
            }
        }
    };
    let first = session.infer(qnet, input);
    let fired = !plan.lock().unwrap_or_else(|e| e.into_inner()).fired().is_empty();
    let (outcome, code, detail) = match first {
        Ok(report) if report.output == clean => {
            (TrialOutcome::Identical, None, "completed with bit-identical output".to_string())
        }
        Ok(_) => (
            TrialOutcome::Vulnerable,
            None,
            "completed with WRONG output and no error".to_string(),
        ),
        Err(e) => classify_failed_attempt(e, &session, qnet, input, clean),
    };
    TrialResult { site: site.into(), fault: kind.to_string(), outcome, code, detail, fired }
}

/// A first attempt failed with `e`: retry (transient errors only) and
/// classify.
fn classify_failed_attempt(
    e: Error,
    session: &Session,
    qnet: &QuantizedNetwork,
    input: &Tensor<f32>,
    clean: &[Sm8],
) -> (TrialOutcome, Option<&'static str>, String) {
    let wedged = match &e {
        Error::Driver(DriverError::Sim(s @ SimError::Deadlock { .. })) => {
            s.wedged().map(|w| format!("; wedged fifo: {}", w.name))
        }
        _ => None,
    };
    let code = e.code();
    if !e.is_transient() {
        return (TrialOutcome::StructuredError, Some(code), format!("{e}{}", wedged.unwrap_or_default()));
    }
    match session.infer(qnet, input) {
        Ok(report) if report.output == clean => (
            TrialOutcome::Recovered,
            Some(code),
            format!("first attempt: {e}; retry completed bit-identical"),
        ),
        Ok(_) => (TrialOutcome::Vulnerable, Some(code), format!("retry after '{e}' produced WRONG output")),
        Err(e2) => (
            TrialOutcome::StructuredError,
            Some(e2.code()),
            format!("{e}; retry also failed: {e2}{}", wedged.unwrap_or_default()),
        ),
    }
}

/// Runs one host-protocol trial on a bus + CSR + host system: launch,
/// device-side completion, quiesce-wait — with `kind` injected at `site`.
fn host_trial(site: &str, at: u64, kind: FaultKind) -> TrialResult {
    let plan = FaultPlan::new().inject(site, at, kind).shared();
    let mut bus = AvalonBus::new();
    bus.set_fault_plan(plan.clone());
    let mut csr = CsrFile::new();
    csr.set_fault_plan(plan.clone());
    let handle = bus.map("accel-csr", ACCEL_CSR_BASE, CSR_BLOCK_LEN, Box::new(csr));
    let mut host = HostCpu::new();
    host.set_fault_plan(plan.clone());

    let run = |host: &mut HostCpu, bus: &mut AvalonBus| -> Result<u32, Error> {
        host.launch(bus, 0x40, 4)?;
        // Device side: the accelerator consumes the doorbell and quiesces.
        bus.slave_mut(handle).mm_write(AccelCsr::Status as u32, status::DONE);
        Ok(host.wait_quiescent(bus, 64)?)
    };

    let first = run(&mut host, &mut bus);
    let fired = !plan.lock().unwrap_or_else(|e| e.into_inner()).fired().is_empty();
    let (outcome, code, detail) = match first {
        Ok(_) => (TrialOutcome::Identical, None, "protocol completed".to_string()),
        Err(e) => {
            let code = e.code();
            // A hung accelerator stays hung: re-polling cannot recover it.
            if code == "host.unresponsive" {
                (TrialOutcome::StructuredError, Some(code), e.to_string())
            } else {
                match run(&mut host, &mut bus) {
                    Ok(_) => (
                        TrialOutcome::Recovered,
                        Some(code),
                        format!("first attempt: {e}; retry completed"),
                    ),
                    Err(e2) => (
                        TrialOutcome::StructuredError,
                        Some(e2.code()),
                        format!("{e}; retry also failed: {e2}"),
                    ),
                }
            }
        }
    };
    TrialResult { site: site.into(), fault: kind.to_string(), outcome, code, detail, fired }
}

/// A resilient-batch trial: one poisoned item of a small batch must not
/// take the others down, and the survivors must match the fault-free run.
fn batch_trial(qnet: &QuantizedNetwork, inputs: &[Tensor<f32>], clean: &[Vec<Sm8>]) -> TrialResult {
    let site = "dma:xfer";
    let kind = FaultKind::DmaCorrupt { xor: 0x20 };
    let plan = FaultPlan::new().inject(site, 4, kind).shared();
    let session = Session::builder(accel_config())
        .fault_plan(plan.clone())
        .batch_workers(2)
        .build()
        .expect("campaign config is valid");
    let report = session.run_batch_resilient(qnet, inputs);
    let fired = !plan.lock().unwrap_or_else(|e| e.into_inner()).fired().is_empty();
    let ok = report.succeeded() == inputs.len()
        && report
            .items
            .iter()
            .zip(clean)
            .all(|(item, want)| item.result.as_ref().map(|r| &r.output == want).unwrap_or(false));
    let (outcome, detail) = if ok && report.retries() >= 1 {
        (
            TrialOutcome::Recovered,
            format!(
                "batch of {}: 1 item absorbed the fault, {} retry, all outputs bit-identical",
                inputs.len(),
                report.retries()
            ),
        )
    } else if ok {
        (TrialOutcome::Vulnerable, "fault did not perturb the batch".to_string())
    } else {
        (
            TrialOutcome::Vulnerable,
            format!("batch degraded: {} of {} succeeded", report.succeeded(), inputs.len()),
        )
    };
    TrialResult {
        site: format!("{site} (batch)"),
        fault: kind.to_string(),
        outcome,
        code: None,
        detail,
        fired,
    }
}

/// Runs the built-in fault matrix and returns the survivability report.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let (qnet, inputs) = campaign_net(cfg);
    let input = &inputs[0];
    let clean_session = Session::builder(accel_config())
        .backend(BackendKind::Model)
        .build()
        .expect("campaign config is valid");
    let clean = clean_session.infer(&qnet, input).expect("fault-free run succeeds").output;
    let clean_cycle = Session::builder(accel_config())
        .backend(BackendKind::Cycle)
        .build()
        .expect("campaign config is valid")
        .infer(&qnet, input)
        .expect("fault-free cycle run succeeds")
        .output;
    let clean_batch: Vec<Vec<Sm8>> = inputs
        .iter()
        .map(|i| clean_session.infer(&qnet, i).expect("fault-free run succeeds").output)
        .collect();

    let mut trials = Vec::new();
    // DMA faults on the cpu path (model's too: one path, two names) and
    // on the cycle backend, whose staged walk moves the bytes the engine
    // computes on. The DMA path is backend-agnostic, so the same fault
    // fires at the same descriptor on both.
    for (backend, clean) in [(BackendKind::Cycle, &clean_cycle), (BackendKind::Cpu, &clean)] {
        for kind in [FaultKind::DmaTruncate { tiles: 1 }, FaultKind::DmaCorrupt { xor: 0x40 }] {
            let mut trial = inference_trial("dma:xfer", 2, kind, backend, &qnet, input, clean);
            trial.site = format!("dma:xfer ({backend})");
            trials.push(trial);
        }
    }
    // FIFO faults on the cycle backend. The `done` queue is load-bearing
    // in every pass, so a stall there always lands: a bounded stall only
    // delays the pipeline, an unbounded one wedges it.
    trials.push(inference_trial(
        "fifo:done:pop",
        10,
        FaultKind::FifoStall { cycles: 200 },
        BackendKind::Cycle,
        &qnet,
        input,
        &clean_cycle,
    ));
    trials.push(inference_trial(
        "fifo:done:pop",
        10,
        FaultKind::FifoStall { cycles: u64::MAX },
        BackendKind::Cycle,
        &qnet,
        input,
        &clean_cycle,
    ));
    // Host driver-protocol faults.
    trials.push(host_trial("avalon:write", 1, FaultKind::BusTimeout));
    trials.push(host_trial("avalon:read", 0, FaultKind::BusTimeout));
    trials.push(host_trial("csr:status", 0, FaultKind::CsrBitFlip { bit: 2 }));
    trials.push(host_trial("accel:quiesce", 0, FaultKind::Hang));
    // Batch-level degradation.
    trials.push(batch_trial(&qnet, &inputs, &clean_batch));

    CampaignReport { trials }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_survives_every_single_fault() {
        let report = run_campaign(&CampaignConfig::default());
        assert!(report.trials.len() >= 8);
        for t in &report.trials {
            assert!(t.fired, "fault at {} never fired", t.site);
            assert_ne!(t.outcome, TrialOutcome::Vulnerable, "{}: {}", t.site, t.detail);
        }
        assert!(report.survived());
        // At least five distinct sites are exercised.
        let sites: std::collections::BTreeSet<&str> =
            report.trials.iter().map(|t| t.site.as_str()).collect();
        assert!(sites.len() >= 5, "sites: {sites:?}");
        // DMA faults land on both executors: the cpu path and the cycle
        // engine.
        for site in ["dma:xfer (cpu)", "dma:xfer (cycle)"] {
            assert!(sites.contains(site), "sites: {sites:?}");
        }
    }

    #[test]
    fn deadlock_trial_names_the_wedged_fifo() {
        let report = run_campaign(&CampaignConfig::default());
        let deadlock = report
            .trials
            .iter()
            .find(|t| t.code == Some("sim.deadlock"))
            .expect("the permanent FIFO stall must deadlock");
        // The injected stall is one-shot, so the retry recovers; the
        // first attempt's deadlock still names the wedged FIFO.
        assert_eq!(deadlock.outcome, TrialOutcome::Recovered);
        assert!(deadlock.detail.contains("wedged fifo: done"), "detail: {}", deadlock.detail);
    }

    #[test]
    fn json_report_round_trips_the_verdict() {
        let report = run_campaign(&CampaignConfig::default());
        let json = report.to_json().to_string_pretty();
        assert!(json.contains("\"survived\": true"), "{json}");
        assert!(json.contains("\"site\": \"accel:quiesce\""));
        assert!(json.contains("\"code\": \"host.unresponsive\""));
    }
}
