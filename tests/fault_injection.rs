//! Fault-injection robustness: any single injected fault must degrade
//! gracefully — either the run completes bit-identical to the clean run,
//! or it returns a structured error with a stable code. Never a panic,
//! never a hang past the deadlock window.

use proptest::prelude::*;
use zskip::accel::{AccelConfig, BackendKind, Error, InferenceReport, Session};
use zskip::fault::{FaultKind, FaultPlan, FiredFault};
use zskip::hls::AccelArch;
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::layer::{conv3x3, maxpool2x2, NetworkSpec};
use zskip::nn::model::{Network, QuantizedNetwork, SyntheticModelConfig};
use zskip::quant::DensityProfile;
use zskip::soc::csr::{AccelCsr, CsrFile, ACCEL_CSR_BASE, CSR_BLOCK_LEN};
use zskip::soc::{AvalonBus, BusError, HostCpu};
use zskip::tensor::{Shape, Tensor};

fn small_net(hw: usize) -> (QuantizedNetwork, Tensor<f32>) {
    let spec = NetworkSpec {
        name: "fi".into(),
        input: Shape::new(3, hw, hw),
        layers: vec![conv3x3("c1", 3, 4), maxpool2x2("p1"), conv3x3("c2", 4, 4)],
    };
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed: 11, density: DensityProfile::uniform(2, 0.5) },
    );
    let qnet = net.quantize(&synthetic_inputs(12, 2, spec.input));
    let input = synthetic_inputs(13, 1, spec.input).pop().expect("one");
    (qnet, input)
}

fn config() -> AccelConfig {
    AccelConfig::from_arch(&AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 4096 }, 100.0)
}

/// The FIFOs that exist in the 4-unit design (`crates/core/src/cycle`).
/// A stall injected on any of them, at any cycle, in either direction,
/// must never escape the deadlock detector.
const FIFO_NAMES: &[&str] = &[
    "cmd0", "cmd3", "work1", "pwork2", "prod0_0", "prod3_3", "acfg0", "acfg2", "aout1", "aout3",
    "pout0", "pout2", "wcmd1", "done",
];

proptest! {
    // The cycle backend is slow; keep the case count modest — each case
    // still covers a distinct (fifo, direction, cycle, duration) corner.
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Property: one injected FIFO stall — any site, any trigger cycle,
    /// finite or permanent — either leaves the output bit-identical or
    /// surfaces as a structured error that converts into `zskip::Error`.
    /// The test completing at all proves the deadlock window bounds every
    /// permanent stall.
    #[test]
    fn single_fifo_stall_degrades_gracefully(
        fifo_idx in 0usize..FIFO_NAMES.len(),
        pop_side in prop::bool::ANY,
        at in 0u64..20_000,
        forever in prop::bool::ANY,
        cycles in 1u64..2_000,
    ) {
        let (qnet, input) = small_net(8);
        let golden = qnet.forward_quant(&input);
        let site = format!(
            "fifo:{}:{}",
            FIFO_NAMES[fifo_idx],
            if pop_side { "pop" } else { "push" }
        );
        let stall = FaultKind::FifoStall { cycles: if forever { u64::MAX } else { cycles } };
        let plan = FaultPlan::new().inject(site.clone(), at, stall).shared();
        let session = Session::builder(config())
            .backend(BackendKind::Cycle)
            .fault_plan(plan)
            .build()
            .expect("valid config");
        match session.infer(&qnet, &input) {
            Ok(report) => prop_assert_eq!(report.output, golden, "fault at {} corrupted output", site),
            Err(e) => {
                let code = e.code();
                prop_assert!(!code.is_empty(), "error without a stable code at {}", site);
            }
        }
    }
}

/// A permanent stall on the load-bearing `done` queue deadlocks, and the
/// error names that exact FIFO.
#[test]
fn deadlock_error_names_the_wedged_fifo() {
    let (qnet, input) = small_net(8);
    let plan = FaultPlan::new()
        .inject("fifo:done:pop", 10, FaultKind::FifoStall { cycles: u64::MAX })
        .shared();
    let session = Session::builder(config())
        .backend(BackendKind::Cycle)
        .fault_plan(plan)
        .build()
        .expect("valid config");
    let err = session.infer(&qnet, &input).expect_err("permanent stall deadlocks");
    let msg = err.to_string();
    assert!(msg.contains("deadlock"), "not a deadlock: {msg}");
    assert!(msg.contains("wedged fifo: done"), "wedged fifo not named: {msg}");
    assert_eq!(err.code(), "sim.deadlock");
}

/// DMA truncation surfaces as a typed `dma.truncated` error through the
/// full driver stack, and a retry (the injection is one-shot) recovers
/// bit-identically.
#[test]
fn dma_truncation_is_structured_and_retry_recovers() {
    let (qnet, input) = small_net(8);
    let golden = qnet.forward_quant(&input);
    let plan = FaultPlan::new().inject("dma:xfer", 1, FaultKind::DmaTruncate { tiles: 0 }).shared();
    let session = Session::builder(config()).fault_plan(plan.clone()).build().expect("valid config");

    let err = session.infer(&qnet, &input).expect_err("truncation is an error");
    assert_eq!(err.code(), "dma.truncated");
    assert!(err.is_transient(), "DMA faults are retryable");
    assert_eq!(plan.lock().expect("unpoisoned").fired().len(), 1);

    let retry = session.infer(&qnet, &input).expect("one-shot fault is consumed");
    assert_eq!(retry.output, golden);
}

/// One faulted run: the error and the plan's fired log.
fn faulted_run(
    backend: BackendKind,
    qnet: &QuantizedNetwork,
    input: &Tensor<f32>,
    at: u64,
    kind: FaultKind,
) -> (Result<(), Error>, Vec<FiredFault>) {
    let plan = FaultPlan::new().inject("dma:xfer", at, kind).shared();
    let session = Session::builder(config())
        .backend(backend)
        .fault_plan(plan.clone())
        .build()
        .expect("valid config");
    let result = session.infer(qnet, input).map(|_| ());
    let fired = plan.lock().expect("unpoisoned").fired().to_vec();
    (result, fired)
}

/// The model / cpu path reads a network's statistics from the session's
/// recorded stats-only walk on plan-free runs; an attached fault plan
/// must force that walk for every image of a session, however many clean
/// images warmed it — otherwise `dma:*` injections would have no
/// descriptor to fire on. A faulted run is held to the cycle backend's,
/// whose staged walk issues the same descriptor sequence.
#[test]
fn cpu_backend_faults_bypass_the_warm_stats_memo() {
    let build = |backend: BackendKind| Session::builder(config()).backend(backend);
    // The uncached reference: a plan that injects nothing still walks,
    // so this is the stats-only walk itself.
    let uncached = |qnet: &QuantizedNetwork, input: &Tensor<f32>| {
        let session = build(BackendKind::Model).fault_plan(FaultPlan::new().shared()).build().unwrap();
        session.infer(qnet, input).unwrap()
    };
    let same = |r: &InferenceReport, want: &InferenceReport, what: &str| {
        let facts = |r: &InferenceReport| (r.total_cycles, r.ddr_bytes, r.output.clone());
        assert_eq!(facts(r), facts(want), "{what}");
    };
    let (qnet, input) = small_net(8);
    let model = uncached(&qnet, &input);
    assert_eq!(model.output, qnet.forward_quant(&input));

    // Plan-free: the first image records the network's report, the
    // second replays it.
    let cpu = build(BackendKind::Cpu).build().unwrap();
    for pass in ["record", "replay"] {
        same(&cpu.infer(&qnet, &input).expect("clean run"), &model, pass);
    }

    // Descriptors per image: the first ordinal no longer reached.
    let truncate = FaultKind::DmaTruncate { tiles: 1 };
    let total = (0u64..)
        .find(|&at| faulted_run(BackendKind::Model, &qnet, &input, at, truncate).0.is_ok())
        .expect("finite descriptor sequence");
    assert!(total > 8, "several layers' worth of descriptors, got {total}");

    // One session with a plan: before each injection a clean image warms
    // it, then the injection set on its plan fires — first, a middle and
    // the last layer; both fault kinds: same error, same code, fired at
    // the same descriptor ordinal as the cycle backend.
    let plan = FaultPlan::new().shared();
    let faulted = build(BackendKind::Cpu).fault_plan(plan.clone()).build().unwrap();
    for (kind, code) in [(truncate, "dma.truncated"), (FaultKind::DmaCorrupt { xor: 0x40 }, "dma.parity")] {
        for at in [0, total / 2, total - 1] {
            same(&faulted.infer(&qnet, &input).expect("nothing pending"), &model, "the warm-up image");
            *plan.lock().expect("unpoisoned") = FaultPlan::new().inject("dma:xfer", at, kind);
            let c_err = faulted.infer(&qnet, &input).map(|_| ()).expect_err("the fault must fire on a warm session");
            let c_fired = plan.lock().expect("unpoisoned").fired().to_vec();
            let (m_err, m_fired) = faulted_run(BackendKind::Cycle, &qnet, &input, at, kind);
            assert_eq!(c_err, m_err.unwrap_err(), "{kind:?} at {at}");
            assert_eq!(c_err.code(), code);
            assert_eq!(c_fired, m_fired, "{kind:?} at {at}");
            assert_eq!(c_fired.len(), 1);
            assert_eq!(c_fired[0].at, at);
        }
    }
    // A plan that never fires still forces the real pass and reports
    // the uncached walk's numbers.
    *plan.lock().expect("unpoisoned") = FaultPlan::new().inject("dma:xfer", total + 100, truncate);
    same(&faulted.infer(&qnet, &input).expect("no fault fires"), &model, "an idle plan");

    // The plan-free session tells networks apart: another network
    // replaces its record, and the first one's comes back on its next
    // image.
    let (fresh, fresh_input) = small_net(12);
    same(&cpu.infer(&fresh, &fresh_input).expect("clean run"), &uncached(&fresh, &fresh_input), "a fresh network");
    same(&cpu.infer(&qnet, &input).expect("clean run"), &model, "the first network again");

    // Retry semantics on a warm session: the one-shot fault costs image 0
    // one retry with one backoff; every image ends bit-identical to a
    // clean run.
    let inputs = synthetic_inputs(13, 3, Shape::new(3, 8, 8));
    for backend in [BackendKind::Model, BackendKind::Cpu] {
        let plan = FaultPlan::new().inject("dma:xfer", total / 2, truncate).shared();
        let session = build(backend).fault_plan(plan).batch_workers(1).build().unwrap();
        let report = session.run_batch_resilient(&qnet, &inputs);
        assert_eq!((report.succeeded(), report.retries()), (3, 1), "{backend}");
        let attempts: Vec<_> = report.items.iter().map(|i| (i.attempts, i.backoff_cycles)).collect();
        assert_eq!(attempts, [(2, 1024), (1, 0), (1, 0)], "{backend}");
        for (item, input) in report.items.iter().zip(&inputs) {
            let r = item.result.as_ref().expect("succeeded");
            assert_eq!(r.output, qnet.forward_quant(input), "{backend}");
            assert_eq!((r.total_cycles, r.ddr_bytes), (model.total_cycles, model.ddr_bytes), "{backend}");
        }
    }
}

/// An Avalon bus timeout is a typed `bus.timeout` error at the SoC layer,
/// and the next access (counters only advance on success) goes through.
#[test]
fn avalon_timeout_is_structured_and_transient() {
    let plan = FaultPlan::new().inject("avalon:write", 0, FaultKind::BusTimeout).shared();
    let mut bus = AvalonBus::new();
    bus.set_fault_plan(plan);
    let mut csr = CsrFile::new();
    csr.set_fault_plan(FaultPlan::new().shared());
    bus.map("accel-csr", ACCEL_CSR_BASE, CSR_BLOCK_LEN, Box::new(csr));
    let mut host = HostCpu::new();

    let err = host.write_csr(&mut bus, AccelCsr::InstrAddr, 0x40).expect_err("times out");
    assert!(matches!(err, BusError::Timeout(_)), "wrong error: {err}");
    assert_eq!(zskip::Error::from(err).code(), "bus.timeout");

    host.write_csr(&mut bus, AccelCsr::InstrAddr, 0x40).expect("retry succeeds");
    assert_eq!(host.read_csr(&mut bus, AccelCsr::InstrAddr).expect("reads"), 0x40);
}
