//! The host-side driver: what the paper's ARM software does.
//!
//! "Software executing on the on-chip ARM processor handles the loading
//! and pre-processing of network weights, biases and test images.
//! Pre-processing includes the reordering of data into tiled format for
//! our accelerator. The framework sends the instruction and calls the
//! hardware driver for inference." (paper §IV-C)
//!
//! Responsibilities:
//!
//! * **layer walking**: the network's activations live dense in the
//!   scratch arena's plan slots and the walk is the golden model's
//!   ([`QuantizedNetwork::run_plan`]: FC layers, residual joins and
//!   softmax on the host (ARM), as in the paper); the driver supplies the
//!   accelerator steps — geometry checks, then each layer's passes (a
//!   padded convolution is the pad pass and the conv pass);
//! * **backend dispatch**: the model and cpu backends (one path) run the
//!   golden walk itself and read their statistics from a memoized
//!   stats-only walk (`exec::cpu`) over the plan's steps by shape, every
//!   accelerator step on the transaction-level model, which counts DMA
//!   traffic and costs instructions but moves no bytes; the cycle backend
//!   walks the plan with data, each accelerator step tiled only at the
//!   accelerator boundary and run on the cycle-exact simulation;
//! * **reporting**: per-layer [`PassStats`] roll up into an
//!   [`InferenceReport`].
//!
//! The staged per-layer pipeline itself (striping, weight packing, DMA
//! orchestration, multi-instance scale-out) lives in [`crate::exec`].

use crate::config::AccelConfig;
use crate::exec::pipeline::{self, slot_addr, Exec, DDR_FM_PAD, DDR_FM_STRIDE};
use crate::exec::{self, PassCtx};
use crate::isa::{narrow, FieldOverflow, PoolPadOp};
use zskip_fault::SharedFaultPlan;
use zskip_nn::conv::QuantConvWeights;
use zskip_nn::gemm::conv2d_gemm_quant_tier;
use zskip_nn::layer::{LayerSpec, NetworkSpec};
use zskip_nn::model::{AccelStep, QuantizedNetwork};
use zskip_nn::par::ConvPool;
use zskip_nn::pool::maxpool_quant_into;
use zskip_nn::scratch::Scratch;
use zskip_nn::simd::KernelTier;
use zskip_quant::Sm8;
use zskip_sim::SimError;
use zskip_soc::dma::DmaError;
use zskip_tensor::{Shape, Tensor, TiledFeatureMap};

pub use crate::exec::{BackendKind, SocHandle};
pub use crate::report::{InferenceReport, LayerReport, PassStats};

/// The inference driver.
#[derive(Debug, Clone)]
pub struct Driver {
    /// The accelerator configuration.
    pub config: AccelConfig,
    /// Stripe execution backend.
    pub backend: BackendKind,
    /// Enable the paper's future-work filter grouping (sort filters by
    /// non-zero count before forming lockstep groups).
    pub filter_grouping: bool,
    /// When `false`, skip the golden walk: a run returns its report (cycle
    /// counts and counters, which are value-independent) with an empty
    /// `output`, and a single-layer pass the zero map. Throughput sweeps
    /// over full VGG-16 use this. Model backend only (the cpu name always
    /// asks for the golden walk).
    pub functional: bool,
    /// When `false`, pack every weight slot (zeros included): the ablation
    /// baseline without the paper's zero-weight skipping.
    pub zero_skipping: bool,
    /// Intra-image worker count (resolved — never 0; 1 means
    /// single-threaded): the cpu backend's conv panels, the cycle
    /// backend's per-instruction engine runs. See
    /// [`SessionBuilder::threads`](crate::session::SessionBuilder::threads).
    pub threads: usize,
    /// SIMD kernel tier this session's forward passes run with (resolved
    /// — always host-supported). See
    /// [`SessionBuilder::kernel`](crate::session::SessionBuilder::kernel).
    pub kernel_tier: KernelTier,
    /// Fault plan threaded into the SoC models and the cycle backend.
    pub(crate) fault_plan: Option<SharedFaultPlan>,
}

/// Driver-level failure.
#[derive(Debug, Clone, PartialEq)]
pub enum DriverError {
    /// A stripe of even one output tile row cannot fit the banks.
    LayerTooLarge {
        /// Layer name.
        layer: String,
        /// Words needed for the minimal stripe.
        needed: usize,
        /// Bank capacity in words.
        capacity: usize,
    },
    /// The cycle backend failed (deadlock/limit) — an RTL-level bug or an
    /// injected fault. Carries the structured [`SimError`], so a deadlock
    /// still names the wedged FIFO (see [`SimError::wedged`]).
    Sim(SimError),
    /// A DMA descriptor failed (bad plan, truncation or parity fault).
    Dma(DmaError),
    /// The layer uses geometry the accelerator does not implement.
    Unsupported {
        /// Layer name.
        layer: String,
        /// What is unsupported.
        reason: String,
    },
    /// The network spec is inconsistent (shape propagation failed).
    InvalidNetwork(String),
    /// The driver configuration is invalid: an explicit stripe placement
    /// cannot occupy every instance (see
    /// [`Session::run_batch`](crate::session::Session::run_batch)).
    InvalidConfig(String),
    /// The image panicked on its worker (a bug in this program, or an
    /// input no caller validated); the worker loop caught it — see
    /// [`crate::batch`]. Carries the panic message.
    Panicked(String),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::LayerTooLarge { layer, needed, capacity } => {
                write!(f, "layer {layer}: minimal stripe needs {needed} words/bank, capacity {capacity}")
            }
            DriverError::Sim(e) => write!(f, "cycle backend failed: {e}"),
            DriverError::Dma(e) => write!(f, "DMA transfer failed: {e}"),
            DriverError::Unsupported { layer, reason } => {
                write!(f, "layer {layer}: unsupported geometry ({reason})")
            }
            DriverError::InvalidNetwork(reason) => write!(f, "invalid network: {reason}"),
            DriverError::InvalidConfig(reason) => write!(f, "invalid driver configuration: {reason}"),
            DriverError::Panicked(message) => write!(f, "the image panicked on its worker: {message}"),
        }
    }
}

impl DriverError {
    /// Whether a retry could plausibly succeed. Transfer and simulation
    /// failures are transient (an injected one-shot fault, a wedged run);
    /// structural errors — geometry, capacity, configuration — are
    /// deterministic and retrying them only wastes work.
    pub fn is_transient(&self) -> bool {
        matches!(self, DriverError::Sim(_) | DriverError::Dma(_))
    }

    /// Layer `layer`'s geometry does not fit the instruction encoding.
    pub(crate) fn field_overflow(layer: &str, overflow: FieldOverflow) -> DriverError {
        DriverError::Unsupported { layer: layer.to_string(), reason: overflow.to_string() }
    }
}

impl std::error::Error for DriverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DriverError::Sim(e) => Some(e),
            DriverError::Dma(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for DriverError {
    fn from(e: SimError) -> DriverError {
        DriverError::Sim(e)
    }
}

impl From<DmaError> for DriverError {
    fn from(e: DmaError) -> DriverError {
        DriverError::Dma(e)
    }
}

impl Driver {
    /// Runs full network inference on the simulated SoC, on a
    /// caller-owned [`Scratch`]: the arena's dense plan slots hold the
    /// network's activations and its kernel buffers serve the CPU
    /// backend's golden walk. The batch engine keeps one arena per worker
    /// thread so streaming inference stops re-allocating those buffers per
    /// image. [`Session::infer`](crate::session::Session::infer) and
    /// [`Session::infer_scratch`](crate::session::Session::infer_scratch)
    /// are the public entry points.
    ///
    /// On the model and cpu backends (one path, `exec::cpu`) the output
    /// is the golden walk's and the report a stats-only
    /// [`staged walk`](Driver::run_staged)'s, memoized per network and
    /// configuration. On the cycle backend the run is the staged walk on
    /// the cycle engine.
    ///
    /// # Errors
    /// [`DriverError::LayerTooLarge`] when a layer cannot be striped into
    /// the banks; [`DriverError::Sim`] on cycle-backend failures;
    /// [`DriverError::Dma`] on DMA faults; [`DriverError::InvalidNetwork`]
    /// when the spec's shapes do not propagate.
    pub(crate) fn run_network_scratch(
        &self,
        qnet: &QuantizedNetwork,
        input: &Tensor<f32>,
        scratch: &mut Scratch,
    ) -> Result<InferenceReport, DriverError> {
        match self.backend {
            BackendKind::Model | BackendKind::Cpu => exec::cpu::run_network(self, qnet, input, scratch),
            BackendKind::Cycle => {
                // Attach the intra-image worker pool (a warmup cost on the
                // first image; a no-op when the arena already has this
                // width) and pin the session's kernel tier on the arena.
                scratch.set_threads(self.threads);
                scratch.set_tier(self.kernel_tier);
                self.run_staged(qnet, input, Some(scratch))
            }
        }
    }

    /// A staged walk: every `Conv` / `MaxPool` plan step issued to the
    /// simulated SoC ([`Driver::accel_step`]), one report per plan step.
    ///
    /// With a `scratch` it is the cycle backend's walk:
    /// [`QuantizedNetwork::run_plan`] — the golden model's — with each
    /// accelerator step on the cycle engine instead of the `zskip-nn`
    /// kernels; FC layers, residual joins and global average pooling run
    /// on the host (the paper's ARM) inside the walk and cost no
    /// accelerator cycles. The walk runs at `scratch`'s width and tier.
    ///
    /// Without one it is the stats-only walk of the model and cpu
    /// backends: the plan's steps by shape, each accelerator step on the
    /// transaction model — the same descriptors, weight reads and
    /// instruction batches, with no bank, no tiled map and no arithmetic
    /// — and no host step run. Its report's `output` is empty.
    ///
    /// # Errors
    /// As [`Driver::run_network_scratch`].
    pub(crate) fn run_staged(
        &self,
        qnet: &QuantizedNetwork,
        input: &Tensor<f32>,
        scratch: Option<&mut Scratch>,
    ) -> Result<InferenceReport, DriverError> {
        let mut soc = SocHandle::with_plan(self.fault_plan.clone());
        // Each plan slot maps to a fixed DDR feature-map region, so a
        // skip-branch activation stays resident across the branch body.
        let plan = &qnet.plan;
        if plan.slots.max(1) * DDR_FM_STRIDE > DDR_FM_PAD {
            return Err(DriverError::InvalidNetwork(format!(
                "plan needs {} activation slots; the DDR feature-map window holds {}",
                plan.slots,
                DDR_FM_PAD / DDR_FM_STRIDE
            )));
        }
        let mut passes = Vec::with_capacity(plan.steps.len());
        let output = match scratch {
            Some(scratch) => qnet
                .run_plan(input, scratch, |step| {
                    let AccelStep { layer, weights, src_slot, dst_slot, src, dst, kernel } = step;
                    let mut ctx = self.pass_ctx(&mut soc, kernel.pool, (src_slot, dst_slot));
                    passes.push(self.accel_step(&mut ctx, layer, weights, src.shape(), Some((src, dst)))?);
                    Ok::<_, DriverError>(())
                })?
                .to_vec(),
            None => {
                // The shapes at the input as given, like the golden walk's.
                let spec = NetworkSpec { input: input.shape(), ..qnet.spec.clone() };
                let shapes = spec.shapes().map_err(|e| DriverError::InvalidNetwork(e.to_string()))?;
                let mut convs = qnet.conv.iter().map(|c| &c.weights);
                for step in plan.steps.iter().filter(|step| qnet.spec.layers[step.layer].on_accelerator()) {
                    let layer = &qnet.spec.layers[step.layer];
                    let weights = if matches!(layer, LayerSpec::Conv { .. }) { convs.next() } else { None };
                    let slots = step.src.zip(step.dst).expect("conv/pool steps read and write slots");
                    let mut ctx = self.pass_ctx(&mut soc, None, slots);
                    passes.push(self.accel_step(&mut ctx, layer, weights, shapes[step.layer], None)?);
                }
                Vec::new()
            }
        };
        // One report per plan step, in plan order: the accelerator's as
        // measured, host steps with zero statistics. Softmax is monotone
        // (argmax unchanged on logits) and reports nothing.
        let mut passes = passes.into_iter();
        let mut layers = Vec::with_capacity(plan.steps.len());
        layers.extend(plan.steps.iter().filter_map(|step| match &qnet.spec.layers[step.layer] {
            LayerSpec::Softmax => None,
            layer if layer.on_accelerator() => passes.next(),
            layer => Some(LayerReport {
                name: layer.name().to_string(),
                is_conv: false,
                // Of the host layers only FC multiplies, and its count
                // does not depend on the input shape.
                dense_macs: layer.macs(qnet.spec.input),
                stats: PassStats::default(),
            }),
        }));
        let total_cycles = layers.iter().map(|l| l.stats.total_cycles).sum();
        Ok(InferenceReport { layers, output, total_cycles, ddr_bytes: soc.ddr_bytes() })
    }

    /// One `Conv` / `MaxPool` plan step on the simulated SoC: geometry
    /// checks, then the layer's passes from `ctx`'s source region to its
    /// destination — on the transaction model by `in_shape` alone (`io`
    /// is `None`), else on the cycle engine from the dense slots `io`
    /// ([`exec::staged`]).
    fn accel_step(
        &self,
        ctx: &mut PassCtx<'_>,
        layer: &LayerSpec,
        weights: Option<&QuantConvWeights>,
        in_shape: Shape,
        io: Option<(&Tensor<Sm8>, &mut Tensor<Sm8>)>,
    ) -> Result<LayerReport, DriverError> {
        let out_shape =
            layer.output_shape(in_shape).map_err(|e| DriverError::InvalidNetwork(e.to_string()))?;
        let stats = match (layer, weights) {
            (LayerSpec::Conv { name, stride, pad, k, .. }, Some(qw)) => {
                if *stride != 1 {
                    return Err(DriverError::Unsupported {
                        layer: name.clone(),
                        reason: format!("conv stride {stride}; the datapath is stride-1 (VGG-style)"),
                    });
                }
                if *k > zskip_tensor::TILE_DIM {
                    return Err(DriverError::Unsupported {
                        layer: name.clone(),
                        reason: format!("kernel {k}x{k} exceeds the 4x4 weight tile"),
                    });
                }
                let pad = narrow("pad", *pad).map_err(|e| DriverError::field_overflow(name, e))?;
                exec::staged(in_shape, io, |exec| pipeline::conv_pass(ctx, exec, name, qw, pad, out_shape))?
            }
            (LayerSpec::MaxPool { name, k, stride }, _) => {
                let field = |field, value| narrow(field, value).map_err(|e| DriverError::field_overflow(name, e));
                let op = PoolPadOp::MaxPool { k: field("k", *k)?, stride: field("stride", *stride)? };
                exec::staged(in_shape, io, |exec| pipeline::poolpad_pass(ctx, exec, name, op, out_shape))?
            }
            // Both walks issue `on_accelerator()` layers only: a conv
            // with its weights, or a max-pool.
            _ => unreachable!("only conv and pool steps reach the accelerator"),
        };
        Ok(LayerReport {
            name: layer.name().to_string(),
            is_conv: weights.is_some(),
            dense_macs: layer.macs(in_shape),
            stats,
        })
    }

    /// Single-layer conv entry point for benches/ablations (`input`
    /// already padded): the staged pass alone, tiled in, tiled out. On the
    /// cycle backend the pass is the engine's, output and statistics. On
    /// model and cpu the statistics are the stats-only pass's and the
    /// output the golden `zskip-nn` kernel's on the densified input (the
    /// zero map under [`functional`](Driver::functional) `false`).
    ///
    /// # Errors
    /// See [`Session::infer`](crate::session::Session::infer).
    pub fn conv_pass(
        &self,
        name: &str,
        input: &TiledFeatureMap<Sm8>,
        qw: &QuantConvWeights,
        out_shape: Shape,
        soc: &mut SocHandle,
    ) -> Result<(TiledFeatureMap<Sm8>, PassStats), DriverError> {
        // Only the cycle engine spreads a pass over workers.
        let cycle = self.backend == BackendKind::Cycle;
        let pool = (cycle && self.threads > 1).then(|| ConvPool::new(self.threads));
        let mut ctx = self.pass_ctx(soc, pool.as_ref(), (0, 1));
        let exec = if cycle { Exec::Cycle(input) } else { Exec::Model(input.logical_shape()) };
        let pass = pipeline::conv_pass(&mut ctx, exec, name, qw, 0, out_shape)?;
        Ok(self.golden_output(pass, input, out_shape, |dense| {
            conv2d_gemm_quant_tier(dense, qw, 1, 0, self.kernel_tier)
        }))
    }

    /// Single-layer pool/pad entry point for benches/ablations, on this
    /// driver's backend (see [`Driver::conv_pass`]).
    ///
    /// # Errors
    /// See [`Session::infer`](crate::session::Session::infer).
    pub fn poolpad_pass(
        &self,
        name: &str,
        input: &TiledFeatureMap<Sm8>,
        op: PoolPadOp,
        out_shape: Shape,
        soc: &mut SocHandle,
    ) -> Result<(TiledFeatureMap<Sm8>, PassStats), DriverError> {
        let mut ctx = self.pass_ctx(soc, None, (0, 1));
        let cycle = self.backend == BackendKind::Cycle;
        let exec = if cycle { Exec::Cycle(input) } else { Exec::Model(input.logical_shape()) };
        let pass = pipeline::poolpad_pass(&mut ctx, exec, name, op, out_shape)?;
        Ok(self.golden_output(pass, input, out_shape, |dense| match op {
            PoolPadOp::Pad { amount } => dense.padded(amount.into()),
            PoolPadOp::MaxPool { k, stride } => {
                let mut out = Tensor::zeros(1, 1, 1);
                maxpool_quant_into(dense, k.into(), stride.into(), &mut out);
                out
            }
        }))
    }

    /// A single-layer pass's result on this driver: the cycle engine's
    /// output as it stands; on the transaction model, which has none,
    /// `golden` run on `input`, densified — or the zero map of
    /// `out_shape` with arithmetic off.
    fn golden_output(
        &self,
        (out, stats): (Option<TiledFeatureMap<Sm8>>, PassStats),
        input: &TiledFeatureMap<Sm8>,
        out_shape: Shape,
        golden: impl FnOnce(&Tensor<Sm8>) -> Tensor<Sm8>,
    ) -> (TiledFeatureMap<Sm8>, PassStats) {
        let out = out.unwrap_or_else(|| {
            if !self.functional {
                return TiledFeatureMap::zeros(out_shape);
            }
            let mut dense = Tensor::zeros(1, 1, 1);
            pipeline::fm_to_tensor_into(input, &mut dense);
            TiledFeatureMap::from_tensor(&golden(&dense))
        });
        (out, stats)
    }

    /// The context of a pass from plan slot `src`'s DDR region to `dst`'s
    /// (a single-layer pass: slot 0 to slot 1).
    fn pass_ctx<'a>(
        &'a self,
        soc: &'a mut SocHandle,
        pool: Option<&'a ConvPool>,
        (src, dst): (usize, usize),
    ) -> PassCtx<'a> {
        PassCtx { driver: self, soc, pool, src_addr: slot_addr(src), dst_addr: slot_addr(dst) }
    }
}
