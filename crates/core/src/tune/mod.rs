//! The design-space autotuner behind `zskip tune`.
//!
//! The paper's Figs. 6–8 are a hand-run exploration over four HLS
//! design points; this module automates it: [`sweep`] scores every point of
//! a [`SearchSpace`] — the [`SearchSpace::hls`] space is variant ×
//! instances × placement — by its simulated seconds per image, and
//! [`first_minimum`] picks the point a versioned [`TunedConfig`]
//! artifact records, which
//! [`SessionBuilder::from_tuned`](crate::session::SessionBuilder::from_tuned)
//! and the CLI's `--config` flag load back.
//!
//! ```
//! use zskip_core::tune::{first_minimum, sweep, SearchSpace, TunedConfig};
//! # use zskip_nn::eval::synthetic_inputs;
//! # let qnet = zskip_core::tune::doctest_qnet();
//! let inputs = synthetic_inputs(1, 1, qnet.spec.input);
//! let space = SearchSpace::hls();
//! let rows = sweep(&space, &qnet, &inputs[0]);
//! let best = first_minimum(&rows);
//! let default = rows.iter().find(|r| r.config == TunedConfig::default()).unwrap();
//! assert!(best.score <= default.score);
//! assert_eq!(best.artifact(&space).provenance.unwrap().points, 36);
//! ```
//!
//! Determinism contract: enumeration, and the first minimum in axis
//! order — the scores are a pure function of the config and the
//! workload, so one workload gives one byte-identical artifact. See
//! docs/TUNING.md.

mod artifact;
mod space;
mod sweep;

pub use artifact::{Provenance, TunedConfig, ARTIFACT_VERSION};
pub use space::{
    cli_defaults, resolve, Axis, FlagGroup, Knob, KnobFlag, KnobValue, Point, SearchSpace, KNOBS,
};
pub use sweep::{first_minimum, sweep, SweepRow};

use zskip_nn::model::QuantizedNetwork;

/// A tiny quantized network for the module's doctest. Hidden from docs;
/// real callers bring their own workload.
#[doc(hidden)]
pub fn doctest_qnet() -> QuantizedNetwork {
    use zskip_nn::eval::synthetic_inputs;
    use zskip_nn::layer::{LayerSpec, NetworkSpec};
    use zskip_nn::model::{SyntheticModelConfig, WeightCode};
    use zskip_nn::Scales;
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
    let calib = synthetic_inputs(2, 1, spec.input);
    QuantizedNetwork::synthetic(
        &spec,
        &SyntheticModelConfig { seed: 9, density: DensityProfile::uniform(1, 0.5) },
        Scales::Calibrate(&calib),
        WeightCode::Int8,
    )
}
