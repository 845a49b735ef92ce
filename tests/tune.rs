//! Autotuner integration: the contracts `zskip tune` ships on.
//!
//! * The versioned `TunedConfig` artifact round-trips through its JSON
//!   text **byte-identically** over randomized configs (proptest) — the
//!   canonical form is a serialization fixed point.
//! * Same seed + space + budget produce a byte-identical artifact, across
//!   randomized seeds and budgets (proptest), including the embedded
//!   provenance score.
//! * `SessionBuilder::from_tuned` applies every artifact knob, and
//!   explicit builder overrides layered on top win — the precedence rule
//!   the CLI's `--config` + flags combination relies on.
//! * The evaluator's score equals a direct model-backend
//!   `run_batch` and a direct cycle-exact run (re-asserting the
//!   model ≡ cycle equivalence the score's cheapness depends on).
//! * One artifact drives `infer`, `run_batch` and the serving daemon end
//!   to end, each bit-identical to the software golden model.

use std::sync::{mpsc, Arc};

use proptest::prelude::*;
use zskip::accel::tune::{Evaluator, Provenance, SearchSpace, TunedConfig, Tuner};
use zskip::hls::Variant;
use zskip::nn::eval::synthetic_inputs;
use zskip::nn::layer::{conv3x3, maxpool2x2, NetworkSpec};
use zskip::nn::model::{Network, QuantizedNetwork, SyntheticModelConfig};
use zskip::nn::simd::KernelTier;
use zskip::prelude::*;
use zskip::quant::DensityProfile;
use zskip::tensor::Shape;

fn small_net(hw: usize) -> QuantizedNetwork {
    let spec = NetworkSpec {
        name: "tune-it".into(),
        input: Shape::new(3, hw, hw),
        layers: vec![conv3x3("c1", 3, 4), maxpool2x2("p1"), conv3x3("c2", 4, 4)],
    };
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed: 23, density: DensityProfile::uniform(2, 0.5) },
    );
    net.quantize(&synthetic_inputs(24, 2, spec.input))
}

/// Arbitrary artifact: every knob drawn independently, provenance
/// optional. Scores are dyadic so the float is exact in decimal — the
/// byte-identity contract is about canonical serialization, not about
/// repairing lossy float formatting. The provenance names a space and a
/// searcher this build's tuner no longer has: a version-4 artifact an
/// earlier build wrote with them must still load.
fn arb_config() -> impl Strategy<Value = TunedConfig> {
    // The vendored proptest has no Option strategy: optional knobs pair a
    // presence bool with the value range.
    let hardware = (0usize..4, 1usize..5, 0usize..4);
    let software = (0usize..3, 0usize..5, (prop::bool::ANY, 0usize..4));
    let pool = (0usize..5, 1usize..129);
    let provenance = (prop::bool::ANY, 0u64..1_000_000, 0u64..1000, 0u64..(1 << 20), 0u64..200);
    (hardware, software, pool, provenance).prop_map(
        |(
            (v, instances, pl),
            (b, threads, (has_kernel, k)),
            (batch_workers, queue_depth),
            (has_provenance, seed, budget, score_bits, evals),
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
                        seed,
                        budget,
                        objective: "cycles".into(),
                        space: "full".into(),
                        searcher: "spsa".into(),
                        // Dyadic: exact in f64 and in decimal.
                        score: score_bits as f64 * (1.0 / (1u64 << 20) as f64),
                        evals,
                        cache_hits: evals / 2,
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

proptest! {
    // Each case runs two full (small-budget) searches; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn same_seed_space_budget_give_byte_identical_artifacts(
        seed in 0u64..1000,
        budget in 1u64..10,
    ) {
        let qnet = small_net(8);
        let inputs = synthetic_inputs(5, 1, qnet.spec.input);
        let run = || {
            Tuner::new(SearchSpace::hls(), &qnet, &inputs[0])
                .seed(seed)
                .budget(budget)
                .run()
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(
            a.best.to_json_string(),
            b.best.to_json_string(),
            "same seed+space+budget must reproduce the artifact byte for byte"
        );
        prop_assert_eq!(a.best_score, b.best_score);
    }
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
    let eval = Evaluator::new(&qnet, &inputs[0]);
    let score = eval.measure(&config).expect("scores");

    // Direct stats-only model run, same knobs: identical simulated time.
    let session =
        config.session().backend(BackendKind::Model).functional(false).build().expect("valid");
    let report = session.run_batch(&qnet, &inputs[..1]).expect("runs");
    let direct = report.makespan_cycles as f64 * session.driver().config.cycle_seconds();
    assert_eq!(score, direct, "evaluator is the direct measurement, cached not re-derived");

    // Cycle-exact backend, same knobs: the makespan the score stands in
    // for. This re-pins the model == cycle equivalence the evaluator's
    // speed depends on.
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
