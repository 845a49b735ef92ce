//! The seeded-deterministic searchers: coordinate descent and SPSA.
//!
//! Both walk a [`SearchSpace`] by per-knob candidate *index*, draw every
//! random choice from one [`SplitMix64`] stream seeded by the caller,
//! and spend a budget counted in **fresh** evaluations — points answered
//! by the evaluator's fingerprint cache are free. Same seed, same space,
//! same budget → the same sequence of evaluations and the same best
//! point, bit for bit; `tests/tune.rs` pins that with a property test.
//!
//! Coordinate descent is exhaustive per dimension: starting from the
//! default point it sweeps every candidate of one knob while holding the
//! others, keeps the argmin, and repeats over seeded-shuffled knob
//! orders until a full sweep improves nothing. Because the first sweep
//! of the `variant` knob evaluates all four paper variants, a
//! coordinate-descent run over the `hls` space can never do worse than
//! the best hand-picked variant — the Fig. 6/7/8 guarantee.
//!
//! SPSA (simultaneous perturbation stochastic approximation) probes
//! `x + Δ` and `x - Δ` for a random sign vector Δ, steps each knob
//! opposite the estimated gradient sign, and accepts greedily. Two
//! evaluations per iteration regardless of dimensionality — the right
//! trade when the space is wide and the objective noisy (Grail tunes
//! its NNUE the same way).

use crate::rng::SplitMix64;
use crate::tune::objective::Evaluator;
use crate::tune::space::{Point, SearchSpace};

/// Which search algorithm to run (`--searcher`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Searcher {
    /// Exhaustive per-knob sweeps to a local optimum (default).
    CoordinateDescent,
    /// Two-point stochastic gradient estimation.
    Spsa,
}

impl Searcher {
    /// All searchers, in documentation order.
    pub const ALL: [Searcher; 2] = [Searcher::CoordinateDescent, Searcher::Spsa];

    /// The CLI/serialization name.
    pub fn name(self) -> &'static str {
        match self {
            Searcher::CoordinateDescent => "cd",
            Searcher::Spsa => "spsa",
        }
    }
}

impl std::str::FromStr for Searcher {
    type Err = String;

    fn from_str(s: &str) -> Result<Searcher, String> {
        match s {
            "cd" => Ok(Searcher::CoordinateDescent),
            "spsa" => Ok(Searcher::Spsa),
            other => Err(format!("unknown searcher '{other}' (use cd | spsa)")),
        }
    }
}

impl std::fmt::Display for Searcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a search found.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The best point visited.
    pub best_point: Point,
    /// Its score (lower is better).
    pub best_score: f64,
    /// The default point's score — the baseline every report compares
    /// against. Evaluated first, unconditionally (it is fresh eval #1
    /// and counts toward the budget; a zero budget still measures it).
    pub default_score: f64,
}

impl Searcher {
    /// Runs the search over `space`, spending at most `budget` fresh
    /// evaluations from `evaluator` (cache hits are free). Deterministic
    /// in (`seed`, space, budget) given a deterministic objective.
    pub fn run(
        self,
        space: &SearchSpace,
        evaluator: &mut Evaluator<'_>,
        seed: u64,
        budget: u64,
    ) -> SearchResult {
        match self {
            Searcher::CoordinateDescent => coordinate_descent(space, evaluator, seed, budget),
            Searcher::Spsa => spsa(space, evaluator, seed, budget),
        }
    }
}

/// Seeded Fisher–Yates over the knob indices.
fn shuffled_dims(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

fn coordinate_descent(
    space: &SearchSpace,
    evaluator: &mut Evaluator<'_>,
    seed: u64,
    budget: u64,
) -> SearchResult {
    let mut rng = SplitMix64::new(seed);
    let mut current = space.default_point();
    let default_score = evaluator.score(&space.config_at(&current));
    let mut best_score = default_score;
    loop {
        let mut improved = false;
        for dim in shuffled_dims(space.axes().len(), &mut rng) {
            for idx in 0..space.axes()[dim].candidates.len() {
                if idx == current[dim] {
                    continue;
                }
                if evaluator.fresh_evals() >= budget {
                    return SearchResult { best_point: current, best_score, default_score };
                }
                let mut cand = current.clone();
                cand[dim] = idx;
                let score = evaluator.score(&space.config_at(&cand));
                // Strict improvement only: ties keep the incumbent, so
                // flat dimensions (a host-side knob under `cycles`) stay
                // at their defaults and runs stay deterministic.
                if score < best_score {
                    best_score = score;
                    current = cand;
                    improved = true;
                }
            }
        }
        if !improved {
            return SearchResult { best_point: current, best_score, default_score };
        }
    }
}

fn spsa(
    space: &SearchSpace,
    evaluator: &mut Evaluator<'_>,
    seed: u64,
    budget: u64,
) -> SearchResult {
    let mut rng = SplitMix64::new(seed);
    let dims = space.axes().len();
    let clamp = |dim: usize, idx: i64| -> usize {
        idx.clamp(0, space.axes()[dim].candidates.len() as i64 - 1) as usize
    };
    let mut current = space.default_point();
    let default_score = evaluator.score(&space.config_at(&current));
    let mut current_score = default_score;
    let mut best_point = current.clone();
    let mut best_score = default_score;
    // The cache makes revisited points free, so budget alone cannot
    // bound the loop once the walk starts cycling through known points;
    // the iteration cap does.
    let max_iters = budget.saturating_mul(4).max(16);
    for _ in 0..max_iters {
        if evaluator.fresh_evals() >= budget {
            break;
        }
        let delta: Vec<i64> = (0..dims).map(|_| rng.next_sign()).collect();
        let probe = |signs: i64, pt: &Point| -> Point {
            pt.iter()
                .enumerate()
                .map(|(d, &i)| clamp(d, i as i64 + signs * delta[d]))
                .collect()
        };
        let plus = probe(1, &current);
        let minus = probe(-1, &current);
        let sp = evaluator.score(&space.config_at(&plus));
        if sp < best_score {
            best_score = sp;
            best_point = plus.clone();
        }
        if evaluator.fresh_evals() >= budget {
            break;
        }
        let sm = evaluator.score(&space.config_at(&minus));
        if sm < best_score {
            best_score = sm;
            best_point = minus.clone();
        }
        // Step each knob one index opposite the estimated gradient sign.
        // Infinite probes (invalid corners) carry no usable gradient.
        let diff = sp - sm;
        let mut cand: Point = if diff.is_finite() && diff != 0.0 {
            current
                .iter()
                .enumerate()
                .map(|(d, &i)| {
                    let g_sign = if diff > 0.0 { delta[d] } else { -delta[d] };
                    clamp(d, i as i64 - g_sign)
                })
                .collect()
        } else {
            current.clone()
        };
        if cand == current {
            // Flat (or unusable) estimate: kick one random knob so the
            // walk keeps exploring instead of stalling.
            let dim = rng.next_below(dims as u64) as usize;
            cand[dim] = rng.next_below(space.axes()[dim].candidates.len() as u64) as usize;
        }
        if evaluator.fresh_evals() >= budget {
            break;
        }
        let sc = evaluator.score(&space.config_at(&cand));
        if sc < best_score {
            best_score = sc;
            best_point = cand.clone();
        }
        if sc < current_score {
            current_score = sc;
            current = cand;
        }
    }
    SearchResult { best_point, best_score, default_score }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::tests::tiny_qnet;
    use crate::tune::Objective;
    use zskip_nn::eval::synthetic_inputs;

    #[test]
    fn searcher_names_round_trip() {
        for s in Searcher::ALL {
            assert_eq!(s.name().parse::<Searcher>(), Ok(s));
        }
        assert!("greedy".parse::<Searcher>().is_err());
    }

    #[test]
    fn shuffle_is_seeded_and_a_permutation() {
        let mut a = SplitMix64::new(3);
        let mut b = SplitMix64::new(3);
        let pa = shuffled_dims(8, &mut a);
        let pb = shuffled_dims(8, &mut b);
        assert_eq!(pa, pb);
        let mut sorted = pa.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        let mut c = SplitMix64::new(4);
        // Different seeds give a different order for 8 elements almost
        // surely; this seed pair does (pinned by determinism).
        assert_ne!(shuffled_dims(8, &mut c), pa);
    }

    #[test]
    fn cd_over_hls_space_beats_every_hand_picked_variant() {
        let qnet = tiny_qnet(8);
        let inputs = synthetic_inputs(1, 5, qnet.spec.input);
        let space = SearchSpace::hls();
        let mut evaluator = Evaluator::new(Objective::Cycles, &qnet, &inputs);
        let result =
            Searcher::CoordinateDescent.run(&space, &mut evaluator, 1, 64);
        // The variant sweep covers all four paper variants, so the best
        // found can never be worse than the best of the four.
        for variant in zskip_hls::Variant::all() {
            let hand = crate::tune::TunedConfig {
                variant,
                ..crate::tune::TunedConfig::default()
            };
            let hand_score = evaluator.score(&hand);
            assert!(
                result.best_score <= hand_score,
                "{}: tuned {} > hand-picked {}",
                variant,
                result.best_score,
                hand_score
            );
        }
        assert!(result.best_score <= result.default_score);
    }

    #[test]
    fn both_searchers_are_seed_deterministic() {
        let qnet = tiny_qnet(8);
        let inputs = synthetic_inputs(1, 5, qnet.spec.input);
        let space = SearchSpace::hls();
        for searcher in Searcher::ALL {
            let mut e1 = Evaluator::new(Objective::Cycles, &qnet, &inputs);
            let mut e2 = Evaluator::new(Objective::Cycles, &qnet, &inputs);
            let r1 = searcher.run(&space, &mut e1, 42, 24);
            let r2 = searcher.run(&space, &mut e2, 42, 24);
            assert_eq!(r1, r2, "{searcher}");
            assert_eq!(e1.fresh_evals(), e2.fresh_evals(), "{searcher}");
        }
    }

    #[test]
    fn budget_caps_fresh_evaluations() {
        let qnet = tiny_qnet(8);
        let inputs = synthetic_inputs(1, 5, qnet.spec.input);
        let space = SearchSpace::hls();
        for searcher in Searcher::ALL {
            let mut evaluator = Evaluator::new(Objective::Cycles, &qnet, &inputs);
            let _ = searcher.run(&space, &mut evaluator, 7, 5);
            assert!(evaluator.fresh_evals() <= 5, "{searcher}: {}", evaluator.fresh_evals());
        }
    }
}
