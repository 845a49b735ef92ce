//! Pluggable objectives and the cached evaluator the searchers call.
//!
//! Every objective scores a [`TunedConfig`] as **lower is better**, in
//! seconds, so searchers and reports never branch on direction:
//!
//! * [`Objective::Latency`] — wall-clock seconds for one image;
//! * [`Objective::Throughput`] — wall-clock seconds *per image* over a
//!   batch (the reciprocal of images/s);
//! * [`Objective::ServeP99`] — 99th-percentile request latency in
//!   seconds through the serving daemon under a request burst;
//! * [`Objective::Cycles`] — *simulated* seconds for one image
//!   (makespan cycles × the variant's cycle time), fully deterministic.
//!
//! The first three measure the tuning host and carry its noise; `cycles`
//! is the deterministic objective the byte-identical-artifact contract
//! is pinned on. It is evaluated through the transaction-level model in
//! stats-only mode, whose makespan equals the cycle-exact simulation's on
//! the backends' differential tests — a fact the `tests/tune.rs` suite
//! re-asserts — so scoring a point costs
//! milliseconds instead of minutes.

use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use crate::driver::BackendKind;
use crate::tune::TunedConfig;
use zskip_nn::model::QuantizedNetwork;
use zskip_tensor::Tensor;

/// What the tuner optimizes. See the module docs for units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Single-image wall-clock latency.
    Latency,
    /// Batch throughput (scored as seconds per image).
    Throughput,
    /// Serving-daemon p99 request latency.
    ServeP99,
    /// Simulated single-image time on the modeled hardware
    /// (deterministic).
    Cycles,
}

impl Objective {
    /// All objectives, in documentation order.
    pub const ALL: [Objective; 4] =
        [Objective::Latency, Objective::Throughput, Objective::ServeP99, Objective::Cycles];

    /// The CLI/serialization name.
    pub fn name(self) -> &'static str {
        match self {
            Objective::Latency => "latency",
            Objective::Throughput => "throughput",
            Objective::ServeP99 => "p99",
            Objective::Cycles => "cycles",
        }
    }

    /// Whether the score is a pure function of the config (no wall
    /// clock). Only deterministic objectives can honor the
    /// byte-identical-artifact contract including the provenance score.
    pub fn is_deterministic(self) -> bool {
        matches!(self, Objective::Cycles)
    }
}

impl std::str::FromStr for Objective {
    type Err = String;

    fn from_str(s: &str) -> Result<Objective, String> {
        match s {
            "latency" => Ok(Objective::Latency),
            "throughput" => Ok(Objective::Throughput),
            "p99" => Ok(Objective::ServeP99),
            "cycles" => Ok(Objective::Cycles),
            other => {
                Err(format!("unknown objective '{other}' (use latency | throughput | p99 | cycles)"))
            }
        }
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The cached scoring oracle: owns the fingerprint → score map, so a
/// point revisited by any searcher (or by the coordinate-descent sweep
/// re-checking its incumbent) is free and does not burn budget.
///
/// A config that fails to build or run scores [`f64::INFINITY`]: the
/// searchers treat structural invalidity (a placement that cannot cover
/// the instance count, say) as "maximally bad", not fatal, so one bad
/// corner of a space never aborts a search.
pub struct Evaluator<'a> {
    objective: Objective,
    qnet: &'a QuantizedNetwork,
    inputs: &'a [Tensor<f32>],
    cache: HashMap<String, f64>,
    fresh_evals: u64,
    cache_hits: u64,
}

impl<'a> Evaluator<'a> {
    /// An evaluator scoring `objective` on `qnet` over `inputs`.
    /// Wall-clock objectives use every input (latency uses the first);
    /// `cycles` simulates the first input only — simulated time per image
    /// is input-independent on this accelerator (cycle counts are
    /// value-independent; only geometry matters).
    ///
    /// # Panics
    /// When `inputs` is empty — there is nothing to score.
    pub fn new(
        objective: Objective,
        qnet: &'a QuantizedNetwork,
        inputs: &'a [Tensor<f32>],
    ) -> Evaluator<'a> {
        assert!(!inputs.is_empty(), "evaluator needs at least one input");
        Evaluator {
            objective,
            qnet,
            inputs,
            cache: HashMap::new(),
            fresh_evals: 0,
            cache_hits: 0,
        }
    }

    /// The objective being scored.
    pub fn objective(&self) -> Objective {
        self.objective
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
    /// [`Session`](crate::session::Session) runs).
    ///
    /// # Errors
    /// Whatever building or running the session fails with;
    /// [`Evaluator::score`] maps these to infinity.
    pub fn measure(&self, config: &TunedConfig) -> Result<f64, crate::Error> {
        match self.objective {
            Objective::Cycles => self.measure_cycles(config),
            Objective::Latency => {
                let session = config.session().build()?;
                // One warmup run primes the packed-weight cache and the
                // scratch arena, then the best of two timed runs scores
                // the steady state (min is the noise-robust statistic
                // for a lower-bound-shaped distribution).
                let input = &self.inputs[0];
                session.infer(self.qnet, input)?;
                let mut best = f64::INFINITY;
                for _ in 0..2 {
                    let t = Instant::now();
                    session.infer(self.qnet, input)?;
                    best = best.min(t.elapsed().as_secs_f64());
                }
                Ok(best)
            }
            Objective::Throughput => {
                let session = config.session().build()?;
                session.run_batch(self.qnet, self.inputs)?; // warmup
                let t = Instant::now();
                session.run_batch(self.qnet, self.inputs)?;
                Ok(t.elapsed().as_secs_f64() / self.inputs.len() as f64)
            }
            Objective::ServeP99 => {
                let session = config.session().build()?;
                let engine =
                    crate::serve::ServeEngine::start(session, Arc::new(self.qnet.clone()));
                let handle = engine.handle();
                let (tx, rx) = mpsc::channel();
                let mut submitted = 0u64;
                for (i, input) in self.inputs.iter().enumerate() {
                    // A rejected submit (admission control under a tiny
                    // queue_depth candidate) is part of the config's
                    // behavior, not an evaluation failure; the p99 of
                    // what was admitted still scores it.
                    if handle.submit(format!("tune-{i}"), input.clone(), tx.clone()).is_ok() {
                        submitted += 1;
                    }
                }
                drop(tx);
                for _ in 0..submitted {
                    let reply = rx.recv().expect("serve loop answers every admitted request");
                    reply.result?;
                }
                handle.shutdown();
                let stats = engine.join();
                if stats.served == 0 {
                    return Ok(f64::INFINITY);
                }
                Ok(stats.p99_us() as f64 * 1e-6)
            }
        }
    }

    /// The deterministic hardware objective: simulated seconds for one
    /// image under the config's variant/instances/placement, via the
    /// transaction model in stats-only mode (the cycle-exact
    /// simulation's makespan; see the module docs).
    fn measure_cycles(&self, config: &TunedConfig) -> Result<f64, crate::Error> {
        let session = config
            .session()
            .backend(BackendKind::Model)
            .functional(false)
            .build()?;
        let report = session.run_sharded(self.qnet, &self.inputs[..1])?;
        let seconds = report.makespan_cycles as f64 * session.driver().config.cycle_seconds();
        Ok(seconds)
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
            .field("objective", &self.objective)
            .field("cached", &self.cache.len())
            .field("fresh_evals", &self.fresh_evals)
            .field("cache_hits", &self.cache_hits)
            .finish()
    }
}

/// A convenience used by reports: a [`Session`](crate::session::Session)
/// is not needed to know the deterministic score of the default config —
/// build one evaluator, score [`TunedConfig::default`].
pub fn default_score(
    objective: Objective,
    qnet: &QuantizedNetwork,
    inputs: &[Tensor<f32>],
) -> f64 {
    Evaluator::new(objective, qnet, inputs).score(&TunedConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::tests::tiny_qnet;
    use zskip_nn::eval::synthetic_inputs;

    #[test]
    fn objective_names_round_trip() {
        for o in Objective::ALL {
            assert_eq!(o.name().parse::<Objective>(), Ok(o));
        }
        assert!("speed".parse::<Objective>().is_err());
        assert!(Objective::Cycles.is_deterministic());
        assert!(!Objective::Latency.is_deterministic());
    }

    #[test]
    fn cycles_score_is_deterministic_and_cached() {
        let qnet = tiny_qnet(8);
        let inputs = synthetic_inputs(1, 5, qnet.spec.input);
        let mut eval = Evaluator::new(Objective::Cycles, &qnet, &inputs);
        let config = TunedConfig::default();
        let a = eval.score(&config);
        let b = eval.score(&config);
        assert_eq!(a, b);
        assert!(a.is_finite() && a > 0.0);
        assert_eq!(eval.fresh_evals(), 1, "second score hits the cache");
        assert_eq!(eval.cache_hits(), 1);
        // A second evaluator reproduces the score exactly.
        let mut eval2 = Evaluator::new(Objective::Cycles, &qnet, &inputs);
        assert_eq!(eval2.score(&config), a);
    }

    #[test]
    fn invalid_config_scores_infinity_not_error() {
        let qnet = tiny_qnet(8);
        let inputs = synthetic_inputs(1, 5, qnet.spec.input);
        let mut eval = Evaluator::new(Objective::Cycles, &qnet, &inputs);
        let bad = TunedConfig { queue_depth: 0, ..TunedConfig::default() };
        assert_eq!(eval.score(&bad), f64::INFINITY);
    }
}
