//! Facade crate for the zskip workspace: a simulated FPGA CNN inference
//! accelerator with zero-weight skipping, reproducing Kim et al.,
//! "FPGA-Based CNN Inference Accelerator Synthesized from Multi-Threaded C
//! Software" (SOCC 2017).
//!
//! Re-exports every workspace crate under one roof so examples and
//! integration tests have a single dependency:
//!
//! * [`tensor`] — tiles and CHW tensors (paper Fig. 2)
//! * [`quant`] — 8-bit sign+magnitude, pruning, packed zero-skip weights
//! * [`nn`] — software reference CNN and the VGG-16 network
//! * [`sim`] — cycle-level streaming-kernel simulation framework
//! * [`hls`] — LegUp-style HLS model (scheduling, fmax, resources)
//! * [`soc`] — Avalon bus, DMA, DDR4 and host models (paper Fig. 1)
//! * [`accel`] — the accelerator itself (paper Figs. 3-5)
//! * [`perf`] — area/power/efficiency models (Fig. 6, Table I)
//! * [`fault`] — deterministic fault injection for robustness testing
//!
//! [`Error`] is the workspace-wide unified error type: every fallible
//! public API's error converts into it via `From`, and
//! [`Error::code`](zskip_core::Error::code) gives a stable string for
//! machine-readable reports (see `docs/ERRORS.md`).

pub use zskip_core as accel;
pub use zskip_core::Error;

/// The curated public surface: everything a host application needs to
/// configure and run inference — interactively, in batches, or as a
/// serving daemon — in one import.
///
/// ```
/// use zskip::prelude::*;
/// # use zskip::hls::Variant;
/// let session = Session::builder(AccelConfig::for_variant_instances(Variant::U256Opt, 1))
///     .backend(BackendKind::Cpu)
///     .kernel(KernelTier::Scalar)
///     .build()
///     .expect("valid config");
/// assert_eq!(session.kernel_tier(), KernelTier::Scalar);
/// ```
///
/// Construction goes through [`Session::builder`](prelude::Session::builder)
/// alone, whose `build()` returns [`prelude::Error`] with the stable code
/// `config.invalid`; the session is also the only way to run an image or
/// a batch, on one instance or N.
pub mod prelude {
    pub use zskip_core::batch::RetryPolicy;
    pub use zskip_core::serve::wire;
    pub use zskip_core::{
        AccelConfig, BackendKind, BatchConfig, BatchReport, CostModel, Driver, Error, Placement,
        SearchSpace, ServeEngine, ServeError, ServeHandle, ServeReply, ServeStats, Session,
        SessionBuilder, TunedConfig,
    };
    pub use zskip_nn::simd::KernelTier;
}
pub use zskip_fault as fault;
pub use zskip_hls as hls;
pub use zskip_json as json;
pub use zskip_nn as nn;
pub use zskip_perf as perf;
pub use zskip_quant as quant;
pub use zskip_sim as sim;
pub use zskip_soc as soc;
pub use zskip_tensor as tensor;
