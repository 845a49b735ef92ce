//! The tuner's one objective and the cached evaluator the search calls.
//!
//! A config scores its *simulated* seconds for one image: the placement
//! scheduler's makespan in cycles × the variant's cycle time, lower is
//! better and fully deterministic. It is evaluated in stats-only mode —
//! the memoized transaction-level report, no golden walk — whose makespan
//! tracks the cycle-exact simulation's (equal on `tests/tune.rs`'s
//! network, within 3 % on `tests/backend_equivalence.rs`'s), so scoring a
//! point costs milliseconds instead of seconds.

use std::collections::HashMap;

use crate::driver::BackendKind;
use crate::tune::TunedConfig;
use zskip_nn::model::QuantizedNetwork;
use zskip_tensor::Tensor;

/// The cached scoring oracle: owns the fingerprint → score map, so a
/// point revisited by the coordinate-descent sweep (re-checking its
/// incumbent, say) is free and does not burn budget.
///
/// A config that fails to build or run scores [`f64::INFINITY`]: the
/// search treats structural invalidity (a placement that cannot cover
/// the instance count, say) as "maximally bad", not fatal, so one bad
/// corner of a space never aborts a search.
pub struct Evaluator<'a> {
    qnet: &'a QuantizedNetwork,
    input: &'a Tensor<f32>,
    cache: HashMap<String, f64>,
    fresh_evals: u64,
    cache_hits: u64,
}

impl<'a> Evaluator<'a> {
    /// An evaluator simulating `qnet` on `input`. One image is enough:
    /// simulated time per image is input-independent on this accelerator
    /// (cycle counts depend on geometry and weights, not on activations).
    pub fn new(qnet: &'a QuantizedNetwork, input: &'a Tensor<f32>) -> Evaluator<'a> {
        Evaluator { qnet, input, cache: HashMap::new(), fresh_evals: 0, cache_hits: 0 }
    }

    /// Scores a config, consulting the fingerprint cache first. Returns
    /// [`f64::INFINITY`] for configs that fail to build or run.
    pub fn score(&mut self, config: &TunedConfig) -> f64 {
        let key = config.fingerprint();
        if let Some(&score) = self.cache.get(&key) {
            self.cache_hits += 1;
            return score;
        }
        self.fresh_evals += 1;
        let score = self.measure(config).unwrap_or(f64::INFINITY);
        self.cache.insert(key, score);
        score
    }

    /// Scores a config with no caching — the raw measurement
    /// (`tests/tune.rs` compares this against direct
    /// [`Session`](crate::session::Session) runs): simulated seconds for
    /// one image under the config's variant/instances/placement, from the
    /// transaction model's report in stats-only mode.
    ///
    /// # Errors
    /// Whatever building or running the session fails with;
    /// [`Evaluator::score`] maps these to infinity.
    pub fn measure(&self, config: &TunedConfig) -> Result<f64, crate::Error> {
        let session = config
            .session()
            .backend(BackendKind::Model)
            .functional(false)
            .build()?;
        let report = session.run_batch(self.qnet, std::slice::from_ref(self.input))?;
        Ok(report.makespan_cycles as f64 * session.driver().config.cycle_seconds())
    }

    /// Fresh (cache-missing) evaluations performed so far.
    pub fn fresh_evals(&self) -> u64 {
        self.fresh_evals
    }

    /// Evaluations answered from the cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }
}

impl std::fmt::Debug for Evaluator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Evaluator")
            .field("cached", &self.cache.len())
            .field("fresh_evals", &self.fresh_evals)
            .field("cache_hits", &self.cache_hits)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::tests::tiny_qnet;
    use zskip_nn::eval::synthetic_inputs;

    #[test]
    fn cycles_score_is_deterministic_and_cached() {
        let qnet = tiny_qnet(8);
        let inputs = synthetic_inputs(1, 1, qnet.spec.input);
        let mut eval = Evaluator::new(&qnet, &inputs[0]);
        let config = TunedConfig::default();
        let a = eval.score(&config);
        let b = eval.score(&config);
        assert_eq!(a, b);
        assert!(a.is_finite() && a > 0.0);
        assert_eq!(eval.fresh_evals(), 1, "second score hits the cache");
        assert_eq!(eval.cache_hits(), 1);
        // A second evaluator reproduces the score exactly.
        let mut eval2 = Evaluator::new(&qnet, &inputs[0]);
        assert_eq!(eval2.score(&config), a);
    }

    #[test]
    fn invalid_config_scores_infinity_not_error() {
        let qnet = tiny_qnet(8);
        let inputs = synthetic_inputs(1, 1, qnet.spec.input);
        let mut eval = Evaluator::new(&qnet, &inputs[0]);
        let bad = TunedConfig { queue_depth: 0, ..TunedConfig::default() };
        assert_eq!(eval.score(&bad), f64::INFINITY);
    }
}
