//! Reduced-precision arithmetic and zero-weight packing for the SOCC'17
//! accelerator.
//!
//! The paper's accelerator computes in **8-bit magnitude-plus-sign** format
//! (§IV-B), obtained from a trained float model by scaling, and exploits
//! weight sparsity (from pruning, after Han et al. deep compression) with a
//! **packed non-zero weight format**: each non-zero weight is stored with
//! its intra-tile offset so that the convolution unit spends no cycles on
//! zero weights (§III-B).
//!
//! This crate provides:
//!
//! * [`Sm8`] — the sign+magnitude 8-bit number,
//! * [`quantize`] — float→Sm8 scaling and the fixed-point requantizer used
//!   when an accumulated OFM tile is written back,
//! * [`prune`] — magnitude pruning to per-layer density profiles,
//! * [`pack`] — the packed (offset, value) weight-tile byte stream: its one
//!   encoder, its validating reader and the borrowed tile view over it,
//! * [`grouping`] — the paper's *future work*: grouping filters by non-zero
//!   count so concurrently-applied filters have balanced work,
//! * [`cache`] — the content [`Fingerprint`] of a weight set.

pub mod cache;
pub mod grouping;
pub mod pack;
pub mod prune;
pub mod quantize;
pub mod sm8;
pub mod ternary;

pub use cache::{CacheStats, Fingerprint};
pub use pack::{PackedEntry, PackedTile};
pub use prune::{prune_to_density, prune_to_density_in_runs, sparsity, DensityProfile};
pub use quantize::{QuantParams, Requantizer};
pub use sm8::Sm8;
pub use ternary::TernaryParams;
