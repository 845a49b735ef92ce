//! Software reference CNN: float and integer-exact quantized inference.
//!
//! The paper's design methodology rests on the software implementation
//! behaving exactly like the synthesized hardware ("The software behavior
//! closely resembles the synthesized hardware, easing design and
//! debugging"). This crate is that software side:
//!
//! * [`layer`] — layer specifications and shape inference,
//! * [`conv`], [`pool`], [`fc`] — float reference operators *and*
//!   integer-exact quantized operators (the golden model the simulated
//!   accelerator must match bit-for-bit),
//! * [`eltwise`] — host-side elementwise operators: residual add, global
//!   average pooling and batch-norm folding, float and quantized,
//! * [`model`] — networks, synthetic seeded weight generation, pruning and
//!   quantization (the stand-in for the paper's Caffe flow),
//! * [`setup`] — the one set-up walk that draws (or borrows), folds,
//!   calibrates and codes a network layer by layer,
//! * [`plan`] — DAG execution planning: topological walk order, activation
//!   liveness, and slot assignment, walked by
//!   [`QuantizedNetwork::run_plan`] for the oracle and the driver alike,
//! * [`vgg16`] — the VGG-16 network used as the paper's test vehicle,
//! * [`resnet`] — residual networks (skip connections, 1×1 convs,
//!   batch-norm folding, global average pooling),
//! * [`spec_io`] — the JSON network-spec loader so new topologies need no
//!   Rust code,
//! * [`eval`] — fidelity metrics substituting for the data-gated ImageNet
//!   accuracy comparison (top-1 agreement, SQNR),
//! * [`simd`] — SIMD kernel tiers (SSE2/AVX2/AVX-512) for the quantized
//!   inner loops with runtime dispatch, scalar kept as the bit-exact
//!   oracle,
//! * [`par`] — the intra-image worker pool splitting one image's conv
//!   layers across cores by output-channel panels, bit-exact at any
//!   worker count,
//! * [`scratch`] — reusable buffer arena making the steady-state forward
//!   pass allocation-free.

mod boxmuller;
pub mod conv;
pub mod eltwise;
pub mod eval;
pub mod fc;
mod gaussian;
pub mod gemm;
pub mod layer;
pub mod model;
pub mod par;
pub mod plan;
pub mod pool;
pub mod resnet;
pub mod scratch;
pub mod setup;
#[cfg(test)]
mod setup_oracle;
pub mod simd;
pub mod spec_io;
pub mod vgg16;
mod weight_quant;

pub use eltwise::BnWeights;
pub use layer::{LayerRef, LayerSpec, NetworkSpec};
pub use model::{AccelStep, Network, QuantizedConvLayer, QuantizedNetwork, SyntheticModelConfig, WeightCode};
pub use par::ConvPool;
pub use plan::{ExecPlan, PlanStep};
pub use resnet::{resnet18_spec, resnet34_spec};
pub use scratch::{KernelBuffers, Scratch};
pub use setup::Scales;
pub use simd::{dispatch, select_tier, KernelTier, KERNEL_ENV};
pub use spec_io::SpecError;
pub use vgg16::{vgg16_spec, VGG16_CONV_NAMES};
