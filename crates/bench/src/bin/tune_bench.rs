//! Autotuner benchmark — emits `BENCH_tune.json`.
//!
//! Runs `zskip tune`'s library core once per objective at the default
//! budget and records what the search found against three baselines:
//!
//! 1. **Default config**: the stock 256-opt session every objective's
//!    search starts from (the tuner evaluates it first, so
//!    `best <= default` is structural; the *margin* is the datum).
//! 2. **Hand-picked variants**: the paper's four HLS design points,
//!    scored under the deterministic `cycles` objective. The tuner
//!    searches a space that embeds all four, so it must match or beat
//!    the best of them.
//! 3. **Itself**: the `cycles` search reruns with the same seed and must
//!    reproduce the artifact byte for byte.
//!
//! ```sh
//! cargo run --release --bin tune_bench            # full benchmark (VGG-16-32)
//! cargo run --release --bin tune_bench -- --check # regression guard
//! ```
//!
//! `--check` runs the same gates on a small network so every evaluation
//! is cheap: (a) each objective's tuned score <= its default score;
//! (b) the `cycles` search matches or beats the best hand-picked
//! variant; (c) at least one software objective improves on the default
//! by >= 10% (the backend/threads/batch knobs must buy something real);
//! (d) the same-seed rerun is byte-identical. This is the guard wired
//! into `scripts/verify.sh`.
//!
//! Writes `BENCH_tune.json` at the repository root plus the
//! `experiments/tune_bench.txt` rendering.

use zskip_bench::write_bench_artifacts;
use zskip_core::tune::{Evaluator, Objective, SearchSpace, SpaceKind, TunedConfig, Tuner, DEFAULT_BUDGET, DEFAULT_SEED};
use zskip_hls::Variant;
use zskip_json::{Json, ToJson};
use zskip_nn::eval::synthetic_inputs;
use zskip_nn::layer::{conv3x3, maxpool2x2, NetworkSpec};
use zskip_nn::model::{Network, QuantizedNetwork, SyntheticModelConfig};
use zskip_nn::vgg16::vgg16_scaled_spec;
use zskip_quant::DensityProfile;
use zskip_tensor::{Shape, Tensor};

/// One objective's search outcome vs. its default baseline.
struct ObjectiveResult {
    objective: &'static str,
    space: &'static str,
    budget: u64,
    default_score: f64,
    best_score: f64,
    /// `default_score / best_score` — lower-is-better scores, so > 1 is
    /// an improvement.
    speedup: f64,
    evals: u64,
    cache_hits: u64,
    cache_hit_rate: f64,
    best: TunedConfig,
}

impl ToJson for ObjectiveResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("objective", self.objective.to_json()),
            ("space", self.space.to_json()),
            ("budget", self.budget.to_json()),
            ("default_score", self.default_score.to_json()),
            ("best_score", self.best_score.to_json()),
            ("speedup", self.speedup.to_json()),
            ("evals", self.evals.to_json()),
            ("cache_hits", self.cache_hits.to_json()),
            ("cache_hit_rate", self.cache_hit_rate.to_json()),
            ("best", self.best.to_json()),
        ])
    }
}

/// The paper's four hand-picked variants scored under `cycles`, and how
/// the tuned config compares. `tuned_vs_best_variant <= 1` is the gate.
struct VariantBaseline {
    scores: Vec<(String, f64)>,
    best_variant: String,
    best_variant_score: f64,
    tuned_score: f64,
    tuned_vs_best_variant: f64,
}

impl ToJson for VariantBaseline {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "scores",
                Json::Arr(
                    self.scores
                        .iter()
                        .map(|(v, s)| Json::obj([("variant", v.to_json()), ("score", s.to_json())]))
                        .collect(),
                ),
            ),
            ("best_variant", self.best_variant.to_json()),
            ("best_variant_score", self.best_variant_score.to_json()),
            ("tuned_score", self.tuned_score.to_json()),
            ("tuned_vs_best_variant", self.tuned_vs_best_variant.to_json()),
        ])
    }
}

struct Bench {
    workload: String,
    seed: u64,
    objectives: Vec<ObjectiveResult>,
    variants: VariantBaseline,
    /// Same seed + space + budget reran byte-identically.
    rerun_identical: bool,
    /// Best `speedup` across the software (wall-clock) objectives; the
    /// `--check` gate requires >= 1.1.
    best_software_speedup: f64,
}

impl ToJson for Bench {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", self.workload.to_json()),
            ("seed", self.seed.to_json()),
            ("objectives", self.objectives.to_json()),
            ("variants", self.variants.to_json()),
            ("rerun_identical", self.rerun_identical.to_json()),
            ("best_software_speedup", self.best_software_speedup.to_json()),
        ])
    }
}

/// The full-mode workload: the scaled VGG-16 the CLI subcommands run.
fn vgg_workload() -> (QuantizedNetwork, Vec<Tensor<f32>>) {
    let spec = vgg16_scaled_spec(32);
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed: 1, density: DensityProfile::deep_compression_vgg16() },
    );
    let qnet = net.quantize(&synthetic_inputs(2, 1, spec.input));
    let inputs = synthetic_inputs(3, 4, spec.input);
    (qnet, inputs)
}

/// The `--check` workload: small enough that one evaluation costs
/// milliseconds, so the full default-budget search stays fast.
fn small_workload() -> (QuantizedNetwork, Vec<Tensor<f32>>) {
    let spec = NetworkSpec {
        name: "tune-check".into(),
        input: Shape::new(3, 16, 16),
        layers: vec![conv3x3("c1", 3, 8), maxpool2x2("p1"), conv3x3("c2", 8, 8)],
    };
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed: 29, density: DensityProfile::uniform(2, 0.5) },
    );
    let qnet = net.quantize(&synthetic_inputs(30, 2, spec.input));
    let inputs = synthetic_inputs(31, 4, spec.input);
    (qnet, inputs)
}

/// Each objective searches the space where its knobs live: `cycles` is a
/// hardware property (variant/instances/placement), the wall-clock
/// objectives are software properties (backend/threads/kernel/batch).
fn space_for(objective: Objective) -> SpaceKind {
    match objective {
        Objective::Cycles => SpaceKind::Hls,
        _ => SpaceKind::Software,
    }
}

fn run_objective(
    objective: Objective,
    qnet: &QuantizedNetwork,
    inputs: &[Tensor<f32>],
    budget: u64,
) -> ObjectiveResult {
    let kind = space_for(objective);
    let outcome = Tuner::new(SearchSpace::named(kind), objective, qnet, inputs)
        .seed(DEFAULT_SEED)
        .budget(budget)
        .run();
    let total = outcome.evals + outcome.cache_hits;
    ObjectiveResult {
        objective: objective.name(),
        space: kind.name(),
        budget,
        default_score: outcome.default_score,
        best_score: outcome.best_score,
        speedup: outcome.speedup(),
        evals: outcome.evals,
        cache_hits: outcome.cache_hits,
        cache_hit_rate: if total > 0 { outcome.cache_hits as f64 / total as f64 } else { 0.0 },
        best: outcome.best,
    }
}

/// Scores the four hand-picked variants under `cycles` and compares the
/// tuned score against the best of them.
fn variant_baseline(
    qnet: &QuantizedNetwork,
    inputs: &[Tensor<f32>],
    tuned_score: f64,
) -> VariantBaseline {
    let mut eval = Evaluator::new(Objective::Cycles, qnet, inputs);
    let scores: Vec<(String, f64)> = Variant::all()
        .into_iter()
        .map(|v| {
            let config = TunedConfig { variant: v, ..TunedConfig::default() };
            (v.label().to_string(), eval.score(&config))
        })
        .collect();
    let (best_variant, best_variant_score) = scores
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(v, s)| (v.clone(), *s))
        .expect("four variants scored");
    VariantBaseline {
        scores,
        best_variant,
        best_variant_score,
        tuned_score,
        tuned_vs_best_variant: tuned_score / best_variant_score,
    }
}

fn run_bench(qnet: &QuantizedNetwork, inputs: &[Tensor<f32>], workload: &str) -> Bench {
    let objectives: Vec<ObjectiveResult> = Objective::ALL
        .into_iter()
        .map(|o| run_objective(o, qnet, inputs, DEFAULT_BUDGET))
        .collect();
    let cycles = objectives
        .iter()
        .find(|r| r.objective == Objective::Cycles.name())
        .expect("cycles objective ran");
    let variants = variant_baseline(qnet, inputs, cycles.best_score);

    // Determinism: the same seed + space + budget must reproduce the
    // artifact byte for byte (cycles is the deterministic objective).
    let rerun = run_objective(Objective::Cycles, qnet, inputs, DEFAULT_BUDGET);
    let rerun_identical = rerun.best.to_json_string() == cycles.best.to_json_string();

    let best_software_speedup = objectives
        .iter()
        .filter(|r| r.objective != Objective::Cycles.name())
        .map(|r| r.speedup)
        .fold(0.0, f64::max);

    Bench {
        workload: workload.to_string(),
        seed: DEFAULT_SEED,
        objectives,
        variants,
        rerun_identical,
        best_software_speedup,
    }
}

/// The `--check` gates; returns the failures.
fn gate(bench: &Bench) -> Vec<String> {
    let mut fails = Vec::new();
    for r in &bench.objectives {
        if r.best_score > r.default_score {
            fails.push(format!(
                "{}: tuned score {:.3e} worse than default {:.3e}",
                r.objective, r.best_score, r.default_score
            ));
        }
    }
    if bench.variants.tuned_vs_best_variant > 1.0 {
        fails.push(format!(
            "cycles: tuned {:.3e} did not match/beat best hand-picked variant {} at {:.3e}",
            bench.variants.tuned_score,
            bench.variants.best_variant,
            bench.variants.best_variant_score
        ));
    }
    if bench.best_software_speedup < 1.1 {
        fails.push(format!(
            "no software objective improved >= 10% over default (best {:.2}x)",
            bench.best_software_speedup
        ));
    }
    if !bench.rerun_identical {
        fails.push("same-seed cycles rerun was not byte-identical".into());
    }
    fails
}

fn render(bench: &Bench) -> String {
    let mut text = String::new();
    text.push_str(&format!(
        "Design-space autotuner on {} (seed {:#x}, budget {} fresh evals/objective)\n\n",
        bench.workload, bench.seed, DEFAULT_BUDGET
    ));
    text.push_str(&format!(
        "{:<11} {:<9} {:>13} {:>13} {:>8} {:>6} {:>11}\n",
        "objective", "space", "default s", "best s", "speedup", "evals", "cache hits"
    ));
    for r in &bench.objectives {
        text.push_str(&format!(
            "{:<11} {:<9} {:>13.3e} {:>13.3e} {:>7.2}x {:>6} {:>4} ({:>3.0}%)\n",
            r.objective,
            r.space,
            r.default_score,
            r.best_score,
            r.speedup,
            r.evals,
            r.cache_hits,
            r.cache_hit_rate * 100.0
        ));
    }
    text.push_str("\nhand-picked variants under cycles:\n");
    for (v, s) in &bench.variants.scores {
        let marker = if *v == bench.variants.best_variant { "  <- best hand-picked" } else { "" };
        text.push_str(&format!("  {v:<11} {s:.3e} s{marker}\n"));
    }
    text.push_str(&format!(
        "  tuned       {:.3e} s ({:.3}x of best hand-picked)\n",
        bench.variants.tuned_score, bench.variants.tuned_vs_best_variant
    ));
    text.push_str(&format!(
        "\nsame-seed rerun byte-identical: {}\nbest software-objective speedup: {:.2}x\n",
        bench.rerun_identical, bench.best_software_speedup
    ));
    text
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let (qnet, inputs, workload) = if check {
        let (q, i) = small_workload();
        (q, i, "tune-check (small)")
    } else {
        let (q, i) = vgg_workload();
        (q, i, "vgg16-32")
    };
    let bench = run_bench(&qnet, &inputs, workload);
    print!("{}", render(&bench));

    if check {
        let fails = gate(&bench);
        if !fails.is_empty() {
            for f in &fails {
                eprintln!("FAIL: {f}");
            }
            std::process::exit(1);
        }
        println!("check: all tuner gates passed");
        return;
    }

    write_bench_artifacts("tune_bench", "BENCH_tune.json", &render(&bench), &bench);
}
