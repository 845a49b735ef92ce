//! The zero-weight-skipping CNN inference accelerator (paper Figs. 3-5).
//!
//! This crate is the paper's primary contribution, rebuilt as a simulated
//! microarchitecture:
//!
//! * [`config`] — runtime configuration tying an HLS variant (clock,
//!   MACs/cycle, bank capacity) to the simulated accelerator;
//! * [`isa`] — the instruction set the ARM host issues (convolution,
//!   padding, max-pooling) with a binary encoding;
//! * [`bank`] — the four dual-port on-FPGA SRAM banks (one tile word per
//!   port per cycle);
//! * [`layout`] — how tiled feature maps map onto banks (channel `c` lives
//!   in bank `c mod 4`, giving each data-staging unit private read access
//!   to its quarter of the IFMs);
//! * [`weights`] — packed zero-skip weight streams for an OFM group, in
//!   scratchpad byte format, with lockstep lane iteration;
//! * [`poolpad`] — the micro-op programs that drive the generic
//!   padding/max-pooling unit (any window, stride or pad amount);
//! * [`cycle`] — the **cycle-exact backend**: 20 streaming kernels
//!   (4 each of data-staging/control, convolution, accumulator, pool/pad,
//!   write-to-memory) plus a main controller, connected by FIFOs on the
//!   `zskip-sim` engine, synchronized by a Pthreads-style barrier;
//! * [`model`] — the **transaction-level model**: closed-form cycle
//!   costs and activity counters (validated against [`cycle`] by property
//!   tests), no arithmetic — the statistics of the default backend, whose
//!   outputs come from the `zskip-nn` golden walk; fast enough for full
//!   VGG-16 sweeps;
//! * [`exec`] — the execution-backend layer: the staged per-layer stripe
//!   pipeline (planning under bank capacity, weight packing, instruction
//!   generation, DMA orchestration, multi-instance scale-out) on the
//!   transaction model (shapes and traffic, no bytes) or the cycle
//!   simulation, the model / cpu path (the golden walk plus a stats-only
//!   walk the session records once), and the
//!   [`exec::sched`] multi-instance placement scheduler (stripe-,
//!   image- and layer-pipelined sharding with an HLS-derived cost model);
//! * [`driver`] — the host-side driver: layer walking, geometry checks,
//!   backend dispatch, host FC/softmax fallback, reporting;
//! * [`session`] — the curated host-facing surface: a validated
//!   [`Session`] bundling one driver configuration with the shared batch
//!   knobs, built by the one builder ([`SessionBuilder`]) and the one way
//!   to run an image or a batch, on one instance or N; every CLI
//!   subcommand routes through it;
//! * [`serve`] — the inference serving daemon: a bounded submission
//!   queue feeding the batch engine's resident workers, plus the
//!   newline-delimited JSON wire protocol (`zskip serve`);
//! * [`tune`] — the design-space autotuner (`zskip tune`): typed search
//!   spaces over the session and HLS-variant knobs, a sweep that scores
//!   every point, and the versioned
//!   [`TunedConfig`] artifact that
//!   [`SessionBuilder::from_tuned`](session::SessionBuilder::from_tuned)
//!   loads.

pub mod analysis;
pub mod bank;
pub mod batch;
pub mod config;
pub mod cycle;
pub mod driver;
pub mod error;
pub mod exec;
pub mod fault;
pub mod isa;
pub mod layout;
pub mod model;
pub mod poolpad;
pub mod report;
pub mod serve;
pub mod session;
pub mod tune;
pub mod weights;

pub use analysis::{packed_weight_bytes, LayerPackingStats};
pub use bank::BankSet;
pub use batch::{BatchItemReport, BatchReport, ResilientBatchReport, RetryPolicy};
pub use config::AccelConfig;
pub use driver::{
    BackendKind, Driver, DriverError, InferenceReport, LayerReport, PassStats, SocHandle,
};
#[doc(hidden)]
pub use zskip_nn::conv::weight_cache_stats;
pub use error::Error;
pub use exec::sched::{CostModel, Placement};
pub use fault::{run_campaign, CampaignConfig, CampaignReport, TrialOutcome, TrialResult};
pub use isa::{ConvInstr, Instruction, PoolPadInstr, PoolPadOp};
pub use layout::FmLayout;
pub use serve::{
    RequestStats, ServeEngine, ServeError, ServeHandle, ServeReply, ServeStats,
};
pub use session::{BatchConfig, Session, SessionBuilder};
pub use tune::{Provenance, SearchSpace, TunedConfig};
pub use weights::GroupWeights;
