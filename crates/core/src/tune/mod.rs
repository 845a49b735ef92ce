//! The design-space autotuner behind `zskip tune`.
//!
//! The paper's Figs. 6–8 are a hand-run exploration over four HLS
//! variants; this module automates it: seeded coordinate descent over the
//! [`SearchSpace::hls`] space (variant × instances × placement), scoring
//! each point by its simulated seconds per image through a
//! fingerprint-cached [`Evaluator`], and emitting a versioned
//! [`TunedConfig`] artifact that
//! [`SessionBuilder::from_tuned`](crate::session::SessionBuilder::from_tuned)
//! and the CLI's `--config` flag load back.
//!
//! ```
//! use zskip_core::tune::{SearchSpace, Tuner};
//! # use zskip_nn::eval::synthetic_inputs;
//! # let qnet = zskip_core::tune::doctest_qnet();
//! let inputs = synthetic_inputs(1, 1, qnet.spec.input);
//! let outcome = Tuner::new(SearchSpace::hls(), &qnet, &inputs[0])
//!     .seed(1)
//!     .budget(16)
//!     .run();
//! assert!(outcome.best_score <= outcome.default_score);
//! assert_eq!(outcome.best.provenance.as_ref().unwrap().seed, 1);
//! ```
//!
//! Determinism contract: the same seed, space and budget produce a
//! byte-identical artifact — the search draws every choice from one
//! [`SplitMix64`](crate::rng::SplitMix64) stream and the evaluator is a
//! pure function of the config. See docs/TUNING.md.

mod artifact;
mod evaluator;
mod search;
mod space;

pub use artifact::{Provenance, TunedConfig, ARTIFACT_VERSION};
pub use evaluator::Evaluator;
pub use space::{
    cli_defaults, resolve, Axis, FlagGroup, Knob, KnobFlag, KnobValue, Point, SearchSpace, KNOBS,
};

use zskip_nn::model::QuantizedNetwork;
use zskip_tensor::Tensor;

/// Default fresh-evaluation budget (`zskip tune --budget`): enough for
/// several coordinate-descent sweeps over the hls space.
pub const DEFAULT_BUDGET: u64 = 96;

/// Default tuner seed. Arbitrary but fixed: artifacts produced with the
/// defaults are reproducible across machines and releases.
pub const DEFAULT_SEED: u64 = 0x5aca_de09;

/// One configured tuning run: space + seed + budget over a workload.
/// Build with [`Tuner::new`], adjust with the builder methods, then
/// [`Tuner::run`].
#[derive(Debug)]
pub struct Tuner<'a> {
    space: SearchSpace,
    seed: u64,
    budget: u64,
    evaluator: Evaluator<'a>,
}

/// What a tuning run produced: the best artifact (provenance embedded)
/// plus the numbers reports and gates compare.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// Best configuration found, with [`Provenance`] filled in.
    pub best: TunedConfig,
    /// Its score in simulated seconds (lower is better).
    pub best_score: f64,
    /// The default configuration's score on the same workload.
    pub default_score: f64,
    /// Fresh evaluations spent.
    pub evals: u64,
    /// Evaluations answered by the fingerprint cache.
    pub cache_hits: u64,
}

impl TuneOutcome {
    /// best/default improvement as a ratio (> 1 means the tuned config
    /// is better; 1.10 = 10% better). Infinity-scored defaults (which
    /// the hls space never produces) yield NaN, which fails every `>=`
    /// gate — the conservative direction.
    pub fn speedup(&self) -> f64 {
        self.default_score / self.best_score
    }
}

impl<'a> Tuner<'a> {
    /// A tuner over `space` simulating `qnet` on `input`, with
    /// [`DEFAULT_SEED`] and [`DEFAULT_BUDGET`].
    pub fn new(space: SearchSpace, qnet: &'a QuantizedNetwork, input: &'a Tensor<f32>) -> Tuner<'a> {
        Tuner {
            space,
            seed: DEFAULT_SEED,
            budget: DEFAULT_BUDGET,
            evaluator: Evaluator::new(qnet, input),
        }
    }

    /// Seeds the search's random stream.
    pub fn seed(mut self, seed: u64) -> Tuner<'a> {
        self.seed = seed;
        self
    }

    /// Caps fresh evaluations (cache hits are free).
    pub fn budget(mut self, budget: u64) -> Tuner<'a> {
        self.budget = budget;
        self
    }

    /// Runs the search and packages the best point as an artifact with
    /// provenance.
    pub fn run(mut self) -> TuneOutcome {
        let result =
            search::coordinate_descent(&self.space, &mut self.evaluator, self.seed, self.budget);
        let mut best = self.space.config_at(&result.best_point);
        best.provenance = Some(Provenance {
            seed: self.seed,
            budget: self.budget,
            objective: "cycles".to_string(),
            space: self.space.name().to_string(),
            searcher: "cd".to_string(),
            score: result.best_score,
            evals: self.evaluator.fresh_evals(),
            cache_hits: self.evaluator.cache_hits(),
        });
        TuneOutcome {
            best,
            best_score: result.best_score,
            default_score: result.default_score,
            evals: self.evaluator.fresh_evals(),
            cache_hits: self.evaluator.cache_hits(),
        }
    }
}

/// A tiny quantized network for the module's doctest. Hidden from docs;
/// real callers bring their own workload.
#[doc(hidden)]
pub fn doctest_qnet() -> QuantizedNetwork {
    use zskip_nn::eval::synthetic_inputs;
    use zskip_nn::layer::{LayerSpec, NetworkSpec};
    use zskip_nn::model::{Network, SyntheticModelConfig};
    use zskip_quant::DensityProfile;
    use zskip_tensor::Shape;
    let spec = NetworkSpec {
        name: "tune-doctest".into(),
        input: Shape::new(2, 8, 8),
        layers: vec![LayerSpec::Conv {
            name: "c0".into(),
            in_c: 2,
            out_c: 4,
            k: 3,
            stride: 1,
            pad: 1,
            relu: true,
        }],
    };
    let net = Network::synthetic(
        spec.clone(),
        &SyntheticModelConfig { seed: 9, density: DensityProfile::uniform(1, 0.5) },
    );
    let calib = synthetic_inputs(2, 1, spec.input);
    net.quantize(&calib)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::tests::tiny_qnet;
    use zskip_nn::eval::synthetic_inputs;

    #[test]
    fn tuner_embeds_full_provenance() {
        let qnet = tiny_qnet(8);
        let inputs = synthetic_inputs(1, 1, qnet.spec.input);
        let outcome = Tuner::new(SearchSpace::hls(), &qnet, &inputs[0]).seed(11).budget(12).run();
        let p = outcome.best.provenance.as_ref().expect("provenance embedded");
        assert_eq!(p.seed, 11);
        assert_eq!(p.budget, 12);
        assert_eq!(p.objective, "cycles");
        assert_eq!(p.space, "hls");
        assert_eq!(p.searcher, "cd");
        assert_eq!(p.score, outcome.best_score);
        assert_eq!(p.evals, outcome.evals);
        assert_eq!(p.cache_hits, outcome.cache_hits);
        assert!(outcome.evals <= 12);
        assert!(outcome.speedup() >= 1.0);
    }

    #[test]
    fn same_seed_same_artifact_bytes() {
        let qnet = tiny_qnet(8);
        let inputs = synthetic_inputs(1, 1, qnet.spec.input);
        let run = || {
            Tuner::new(SearchSpace::hls(), &qnet, &inputs[0])
                .seed(3)
                .budget(32)
                .run()
                .best
                .to_json_string()
        };
        assert_eq!(run(), run());
    }
}
