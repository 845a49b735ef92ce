//! The tuner's one objective and the enumeration that scores it.
//!
//! A config scores its *simulated* seconds for one image: the placement
//! scheduler's makespan in cycles × the session's cycle time, lower is
//! better and fully deterministic. It is evaluated in stats-only mode —
//! the transaction-level report, no golden walk — whose makespan
//! tracks the cycle-exact simulation's (equal on `tests/tune.rs`'s
//! network, within 3 % on `tests/backend_equivalence.rs`'s), so scoring a
//! point costs milliseconds and every point of a space is scored.

use crate::batch::BatchReport;
use crate::config::AccelConfig;
use crate::driver::BackendKind;
use crate::error::Error;
use crate::session::Session;
use crate::tune::{Provenance, SearchSpace, TunedConfig};
use zskip_nn::model::QuantizedNetwork;
use zskip_tensor::Tensor;

/// One scored point of a [`sweep`].
#[derive(Debug)]
pub struct SweepRow {
    /// The config the point denotes.
    pub config: TunedConfig,
    /// Its stats-only one-image `run_batch` report, or what building or
    /// running the session failed with (a placement that cannot cover
    /// its instance count, say).
    pub result: Result<BatchReport, Error>,
    /// Simulated seconds for the image: the report's makespan × the
    /// session's cycle time; [`f64::INFINITY`] for a point that failed,
    /// so one bad corner of a space never wins and never aborts a sweep.
    pub score: f64,
}

impl SweepRow {
    /// This row's config as the artifact `zskip tune` writes, with
    /// [`Provenance`] naming `space`, the row's score and the number of
    /// points swept.
    pub fn artifact(&self, space: &SearchSpace) -> TunedConfig {
        let provenance = Provenance {
            space: space.name().to_string(),
            score: self.score,
            points: space.cardinality() as u64,
        };
        TunedConfig { provenance: Some(provenance), ..self.config.clone() }
    }
}

/// Scores every point of `space` simulating `qnet` on `input`, in axis
/// order (the last axis fastest), one row per point. One image is
/// enough: simulated time per image is input-independent on this
/// accelerator (cycle counts depend on geometry and weights, not on
/// activations).
pub fn sweep(space: &SearchSpace, qnet: &QuantizedNetwork, input: &Tensor<f32>) -> Vec<SweepRow> {
    // Points whose drivers differ at most in the clock (which only scales
    // the score) run on the first such point's session, under their own
    // batch knobs, so they share its recorded stats walks.
    let mut sessions: Vec<((AccelConfig, TunedConfig), Session)> = Vec::new();
    let mut run = |config: &TunedConfig| -> Result<(BatchReport, f64), Error> {
        let built = config.session().backend(BackendKind::Model).functional(false).build()?;
        let cycle_seconds = built.driver().config.cycle_seconds();
        let d = TunedConfig::default();
        let (variant, placement, batch_workers, queue_depth) = (d.variant, d.placement, d.batch_workers, d.queue_depth);
        let key = (
            AccelConfig { clock_mhz: 0.0, ..built.driver().config },
            TunedConfig { variant, placement, batch_workers, queue_depth, ..config.clone() },
        );
        let session = match sessions.iter().find(|(k, _)| *k == key) {
            Some((_, first)) => first.with_batch(*built.batch_config()),
            None => {
                sessions.push((key, built.clone()));
                built
            }
        };
        let report = session.run_batch(qnet, std::slice::from_ref(input))?;
        let score = report.makespan_cycles as f64 * cycle_seconds;
        Ok((report, score))
    };
    let mut row = |config: TunedConfig| match run(&config) {
        Ok((report, score)) => SweepRow { config, result: Ok(report), score },
        Err(e) => SweepRow { config, result: Err(e), score: f64::INFINITY },
    };
    space.points().map(|point| row(space.config_at(&point))).collect()
}

/// The first row with the least score — the point `zskip tune` keeps:
/// ties go to the point earlier in axis order.
///
/// # Panics
/// On an empty slice (a sweep has at least one row: every space holds
/// its default point).
pub fn first_minimum(rows: &[SweepRow]) -> &SweepRow {
    rows.iter().min_by(|a, b| a.score.total_cmp(&b.score)).expect("a sweep has rows")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::sched::Placement;
    use crate::session::tests::tiny_qnet;
    use zskip_nn::eval::synthetic_inputs;

    #[test]
    fn every_point_is_scored_in_axis_order() {
        let qnet = tiny_qnet(8);
        let inputs = synthetic_inputs(1, 1, qnet.spec.input);
        let space = SearchSpace::hls();
        let rows = sweep(&space, &qnet, &inputs[0]);
        assert_eq!(rows.len() as u128, space.cardinality());
        let configs: Vec<_> = space.points().map(|p| space.config_at(&p)).collect();
        assert!(rows.iter().map(|r| &r.config).eq(&configs));
        // The last axis is the fastest.
        assert_eq!((rows[0].config.placement, rows[1].config.placement), (Placement::ALL[0], Placement::ALL[1]));
        assert_eq!(rows[0].config.variant, rows[1].config.variant);
        for row in &rows {
            assert_eq!(row.result.is_ok(), row.score.is_finite(), "{:?}", row.config);
        }
        let default = rows.iter().find(|r| r.config == TunedConfig::default()).expect("default row");
        assert!(default.score.is_finite() && default.score > 0.0);
    }

    #[test]
    fn an_invalid_point_scores_infinity_keeps_its_error_and_never_wins() {
        // One output-channel group cannot stripe over 4 instances.
        let qnet = tiny_qnet(8);
        let inputs = synthetic_inputs(1, 1, qnet.spec.input);
        let rows = sweep(&SearchSpace::hls(), &qnet, &inputs[0]);
        let config = TunedConfig { instances: 4, placement: Placement::Stripe, ..TunedConfig::default() };
        let row = rows.iter().find(|r| r.config == config).expect("a row of the hls space");
        assert_eq!(row.score, f64::INFINITY);
        let err = row.result.as_ref().expect_err("stripe cannot cover 4 instances");
        assert_eq!(err.code(), "config.invalid");
        assert!(first_minimum(&rows).score.is_finite());
    }

    #[test]
    fn first_minimum_keeps_the_earlier_of_two_equal_scores() {
        let row = |threads, score| SweepRow {
            config: TunedConfig { threads, ..TunedConfig::default() },
            result: Err(Error::InvalidConfig("unused".into())),
            score,
        };
        let rows = [row(1, 2.0), row(2, 1.0), row(3, 1.0), row(4, f64::INFINITY)];
        assert_eq!(first_minimum(&rows).config.threads, 2);
    }
}
