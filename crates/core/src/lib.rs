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
//! * [`model`] — the **transaction-level backend**: closed-form cycle
//!   costs (validated cycle-for-cycle against [`cycle`] by property tests)
//!   with functional results from the `zskip-nn` golden reference, fast
//!   enough for full VGG-16 sweeps;
//! * [`exec`] — the execution-backend layer: the staged per-layer stripe
//!   pipeline (planning under bank capacity, weight packing, instruction
//!   generation, DMA orchestration, multi-instance scale-out), the
//!   [`exec::conv_pass`] / [`exec::poolpad_pass`] dispatch onto the
//!   interchangeable targets — transaction model, cycle simulation, host
//!   SIMD — and the [`exec::sched`] multi-instance placement scheduler (stripe-,
//!   image- and layer-pipelined sharding with an HLS-derived cost model);
//! * [`driver`] — the host-side driver: layer walking, geometry checks,
//!   backend dispatch, host FC/softmax fallback, reporting;
//! * [`session`] — the curated host-facing surface: a validated
//!   [`Session`] bundling one driver configuration with the shared batch
//!   knobs, which every CLI subcommand routes through;
//! * [`serve`] — the inference serving daemon: a bounded submission
//!   queue with adaptive batching over the batch engine, plus the
//!   newline-delimited JSON wire protocol (`zskip serve`);
//! * [`rng`] — the workspace-wide seeded [`SplitMix64`](rng::SplitMix64)
//!   generator, the one idiom behind every "seeded-deterministic"
//!   contract in the repo;
//! * [`tune`] — the design-space autotuner (`zskip tune`): typed search
//!   spaces over the session and HLS-variant knobs, seeded coordinate
//!   descent and SPSA searchers, cached evaluation, and the versioned
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
pub mod rng;
pub mod serve;
pub mod session;
pub mod tune;
pub mod weights;

pub use analysis::LayerPackingStats;
pub use bank::BankSet;
pub use batch::{
    run_batch, run_batch_resilient, BatchItemReport, BatchReport, ResilientBatchReport, RetryPolicy,
};
pub use config::AccelConfig;
pub use driver::{
    BackendKind, Driver, DriverBuilder, DriverError, InferenceReport, LayerReport, PassStats,
    SocHandle,
};
pub use exec::cpu::stats_memo_stats;
pub use exec::pipeline::weight_cache_stats;
pub use error::Error;
pub use exec::sched::{run_sharded, CostModel, Placement, ShardReport};
pub use exec::PassCtx;
pub use fault::{run_campaign, CampaignConfig, CampaignReport, TrialOutcome, TrialResult};
pub use isa::{ConvInstr, Instruction, PoolPadInstr, PoolPadOp};
pub use layout::FmLayout;
pub use serve::{
    RequestStats, ServeEngine, ServeError, ServeHandle, ServeReply, ServeStats,
};
pub use session::{BatchConfig, Session, SessionBuilder};
pub use tune::{
    Objective, Provenance, SearchSpace, Searcher, SpaceKind, TuneOutcome, TunedConfig, Tuner,
};
pub use weights::GroupWeights;
