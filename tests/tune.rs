//! Autotuner integration: the contracts `zskip tune` ships on.
//!
//! * The versioned `TunedConfig` artifact round-trips through its JSON
//!   text **byte-identically** over randomized configs (proptest) — the
//!   canonical form is a serialization fixed point.
//! * `zskip tune` writes the first minimum of the sweep's rows, which is
//!   no worse than the default and than each paper design point, and two runs
//!   on one workload write byte-identical artifacts.
//! * `SessionBuilder::from_tuned` applies every artifact knob, and
//!   explicit builder overrides layered on top win — the precedence rule
//!   the CLI's `--config` + flags combination relies on.
//! * A sweep row's score equals a direct model-backend `run_batch` and a
//!   direct cycle-exact run (re-asserting the model ≡ cycle equivalence
//!   the score's cheapness depends on).
//! * One artifact drives `infer`, `run_batch` and the serving daemon end
//!   to end, each bit-identical to the software golden model.

use std::sync::{mpsc, Arc};

use proptest::prelude::*;
use zskip::accel::tune::{first_minimum, sweep, Provenance, SearchSpace, TunedConfig};
use zskip::hls::{Variant, PAPER_POINTS};
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::layer::{conv3x3, maxpool2x2, NetworkSpec};
use zskip::nn::model::{Network, QuantizedNetwork, SyntheticModelConfig};
use zskip::nn::simd::KernelTier;
use zskip::prelude::*;
use zskip::quant::DensityProfile;
use zskip::tensor::Shape;

fn small_spec(hw: usize) -> NetworkSpec {
    NetworkSpec {
        name: "tune-it".into(),
        input: Shape::new(3, hw, hw),
        layers: vec![conv3x3("c1", 3, 4), maxpool2x2("p1"), conv3x3("c2", 4, 4)],
    }
}

fn small_net(hw: usize) -> QuantizedNetwork {
    let spec = small_spec(hw);
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed: 23, density: DensityProfile::uniform(2, 0.5) },
    );
    net.quantize(&synthetic_inputs(24, 2, spec.input))
}

/// Arbitrary artifact: every knob drawn independently, provenance
/// optional. Scores are dyadic so the float is exact in decimal — the
/// byte-identity contract is about canonical serialization, not about
/// repairing lossy float formatting. The provenance may name a space
/// this build's tuner does not have: the name is a label.
fn arb_config() -> impl Strategy<Value = TunedConfig> {
    // The vendored proptest has no Option strategy: optional knobs pair a
    // presence bool with the value range.
    let hardware = (0usize..3, 1usize..5, 0usize..4);
    let software = (0usize..3, 0usize..5, (prop::bool::ANY, 0usize..4));
    let pool = (0usize..5, 1usize..129);
    let provenance = (prop::bool::ANY, 0u64..(1 << 20), 1u64..1000);
    (hardware, software, pool, provenance).prop_map(
        |(
            (v, instances, pl),
            (b, threads, (has_kernel, k)),
            (batch_workers, queue_depth),
            (has_provenance, score_bits, points),
        )| {
            TunedConfig {
                variant: Variant::all()[v],
                instances,
                backend: BackendKind::ALL[b],
                threads,
                kernel: if has_kernel { Some(KernelTier::ALL[k]) } else { None },
                placement: Placement::ALL[pl],
                batch_workers,
                queue_depth,
                provenance: if has_provenance {
                    Some(Provenance {
                        space: "full".into(),
                        // Dyadic: exact in f64 and in decimal.
                        score: score_bits as f64 * (1.0 / (1u64 << 20) as f64),
                        points,
                    })
                } else {
                    None
                },
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn artifact_json_round_trip_is_byte_identical(config in arb_config()) {
        let text = config.to_json_string();
        let back = TunedConfig::from_json_str(&text).expect("canonical text parses");
        prop_assert_eq!(&back, &config, "structural round trip");
        prop_assert_eq!(back.to_json_string(), text, "byte-identical fixed point");
    }
}

#[test]
fn the_artifact_is_the_first_minimum_and_no_worse_than_the_default_or_any_paper_variant() {
    let qnet = small_net(8);
    let inputs = synthetic_inputs(5, 1, qnet.spec.input);
    let space = SearchSpace::hls();
    let rows = sweep(&space, &qnet, &inputs[0]);
    let best = first_minimum(&rows);
    let first = rows.iter().position(|r| r.score == best.score).expect("the minimum is a row");
    assert!(std::ptr::eq(best, &rows[first]), "ties go to the earlier point");
    assert!(rows.iter().all(|r| best.score <= r.score));
    let artifact = best.artifact(&space);
    assert_eq!(TunedConfig { provenance: None, ..artifact.clone() }, best.config);
    let provenance = artifact.provenance.expect("provenance embedded");
    assert_eq!((provenance.space.as_str(), provenance.score, provenance.points), ("hls", best.score, 36));
    // The paper's hand-picked design points are rows of the space.
    let score_of = |config: &TunedConfig| rows.iter().find(|r| &r.config == config).expect("a row").score;
    assert!(best.score <= score_of(&TunedConfig::default()));
    for (label, variant, instances) in PAPER_POINTS {
        let hand = score_of(&TunedConfig { variant, instances, ..TunedConfig::default() });
        assert!(hand.is_finite() && best.score <= hand, "{label}: tuned {} > hand-picked {hand}", best.score);
    }
}

/// `zskip tune` on a spec file: two runs write the same bytes, and those
/// bytes are the library sweep's first minimum on the CLI's recipe
/// (weights seed 1, calibration seed 2, input seed 3).
#[test]
fn two_tune_runs_on_one_workload_write_byte_identical_artifacts() {
    let dir = std::env::temp_dir().join(format!("zskip-tune-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = small_spec(8);
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, spec.to_json()).expect("write spec");
    let tune = |out: &str| {
        let out = dir.join(out);
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_zskip"))
            .args(["tune", "--density", "0.5", "--network"])
            .arg(&spec_path)
            .arg("--out")
            .arg(&out)
            .stdout(std::process::Stdio::null())
            .status()
            .expect("zskip runs");
        assert!(status.success(), "zskip tune: {status}");
        std::fs::read_to_string(out).expect("artifact written")
    };
    let first = tune("a.json");
    assert_eq!(first, tune("b.json"), "one workload, one artifact");

    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed: 1, density: DensityProfile::uniform(2, 0.5) },
    );
    let qnet = net.quantize(&synthetic_inputs(2, 1, spec.input));
    let input = synthetic_inputs(3, 1, spec.input).remove(0);
    let space = SearchSpace::hls();
    let rows = sweep(&space, &qnet, &input);
    assert_eq!(first, first_minimum(&rows).artifact(&space).to_json_string());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn from_tuned_applies_knobs_and_explicit_overrides_win() {
    let dir = std::env::temp_dir().join(format!("zskip-tune-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("precedence.json");
    let artifact = TunedConfig {
        backend: BackendKind::Cpu,
        threads: 2,
        kernel: Some(KernelTier::Scalar),
        placement: Placement::Image,
        queue_depth: 5,
        ..TunedConfig::default()
    };
    artifact.save(&path).expect("saves");

    // The artifact's knobs land on the built session...
    let session = SessionBuilder::from_tuned(&path).expect("loads").build().expect("valid");
    assert_eq!(session.driver().backend, BackendKind::Cpu);
    assert_eq!(session.driver().threads, 2);
    assert_eq!(session.driver().kernel_tier, KernelTier::Scalar);
    assert_eq!(session.batch_config().placement, Placement::Image);
    assert_eq!(session.batch_config().queue_depth, 5);

    // ...and a later explicit override beats the artifact (the CLI's
    // `--config` + explicit-flag precedence, at the library layer).
    let overridden = SessionBuilder::from_tuned(&path)
        .expect("loads")
        .backend(BackendKind::Model)
        .queue_depth(9)
        .build()
        .expect("valid");
    assert_eq!(overridden.driver().backend, BackendKind::Model);
    assert_eq!(overridden.batch_config().queue_depth, 9);
    assert_eq!(overridden.driver().threads, 2, "untouched knobs keep the tuned value");

    // A missing or malformed artifact fails with the stable code.
    let missing = SessionBuilder::from_tuned(dir.join("absent.json")).unwrap_err();
    assert_eq!(missing.code(), "config.invalid");
    std::fs::write(dir.join("bad.json"), "{]").expect("write");
    let bad = SessionBuilder::from_tuned(dir.join("bad.json")).unwrap_err();
    assert_eq!(bad.code(), "config.invalid");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cycles_score_matches_direct_model_and_cycle_runs() {
    let qnet = small_net(8);
    let inputs = synthetic_inputs(5, 1, qnet.spec.input);
    let config = TunedConfig { instances: 2, ..TunedConfig::default() };
    let rows = sweep(&SearchSpace::hls(), &qnet, &inputs[0]);
    let row = rows.iter().find(|r| r.config == config).expect("a row of the hls space");

    // Direct stats-only model run, same knobs: identical simulated time.
    let session =
        config.session().backend(BackendKind::Model).functional(false).build().expect("valid");
    let report = session.run_batch(&qnet, &inputs[..1]).expect("runs");
    let direct = report.makespan_cycles as f64 * session.driver().config.cycle_seconds();
    assert_eq!(row.score, direct, "a row's score is the direct measurement");
    let swept = row.result.as_ref().expect("the row ran");
    assert_eq!(swept.makespan_cycles, report.makespan_cycles);

    // Cycle-exact backend, same knobs: the makespan the score stands in
    // for. This re-pins the model == cycle equivalence the sweep's speed
    // depends on.
    let cycle_session = config.session().backend(BackendKind::Cycle).build().expect("valid");
    let cycle_report = cycle_session.run_batch(&qnet, &inputs[..1]).expect("runs");
    assert_eq!(
        report.makespan_cycles, cycle_report.makespan_cycles,
        "transaction model and cycle-exact engine must agree on the makespan"
    );
}

#[test]
fn one_artifact_drives_infer_batch_and_serve_bit_exactly() {
    let dir = std::env::temp_dir().join(format!("zskip-tune-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("deployed.json");
    TunedConfig {
        backend: BackendKind::Cpu,
        threads: 1,
        kernel: Some(KernelTier::Scalar),
        ..TunedConfig::default()
    }
    .save(&path)
    .expect("saves");

    let qnet = small_net(8);
    let inputs = synthetic_inputs(6, 3, qnet.spec.input);
    let golden: Vec<_> = inputs.iter().map(|i| qnet.forward_quant(i)).collect();

    // infer
    let session = SessionBuilder::from_tuned(&path).expect("loads").build().expect("valid");
    let report = session.infer(&qnet, &inputs[0]).expect("infers");
    assert_eq!(report.output, golden[0], "infer path");

    // batch
    let session = SessionBuilder::from_tuned(&path).expect("loads").build().expect("valid");
    let batch = session.run_batch(&qnet, &inputs).expect("batches");
    for (r, want) in batch.items.iter().zip(&golden) {
        assert_eq!(&r.output, want, "batch path");
    }

    // serve
    let session = SessionBuilder::from_tuned(&path).expect("loads").build().expect("valid");
    let engine = ServeEngine::start(session, Arc::new(qnet.clone()));
    let handle = engine.handle();
    let (tx, rx) = mpsc::channel();
    for (i, input) in inputs.iter().enumerate() {
        handle.submit(format!("req-{i}"), input.clone(), tx.clone()).expect("admitted");
    }
    drop(tx);
    for _ in 0..inputs.len() {
        let reply = rx.recv().expect("answered");
        let report = reply.result.expect("request succeeds");
        let idx: usize = reply.id.strip_prefix("req-").unwrap().parse().unwrap();
        assert_eq!(report.output, golden[idx], "serve path");
    }
    handle.shutdown();
    let stats = engine.join();
    assert_eq!(stats.served, inputs.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}
