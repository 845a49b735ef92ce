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
//!   accelerator steps — geometry checks and the explicit pad pass before
//!   each padded convolution;
//! * **backend dispatch**: each accelerator pass goes through
//!   [`exec::conv_pass`] / [`exec::poolpad_pass`] to the session's
//!   backend — the transaction-level model, the cycle-exact simulation,
//!   or the host SIMD path ([`BackendKind`]) — and is tiled only there,
//!   at the accelerator boundary;
//! * **reporting**: per-layer [`PassStats`] roll up into an
//!   [`InferenceReport`].
//!
//! The staged per-layer pipeline itself (striping, weight packing, DMA
//! orchestration, multi-instance scale-out) lives in [`crate::exec`].

use crate::config::AccelConfig;
use crate::exec::pipeline::{self, slot_addr, DDR_FM_PAD, DDR_FM_STRIDE};
use crate::exec::{self, PassCtx};
use crate::isa::{narrow, FieldOverflow, PoolPadOp};
use zskip_fault::SharedFaultPlan;
use zskip_nn::conv::QuantConvWeights;
use zskip_nn::layer::LayerSpec;
use zskip_nn::model::{AccelStep, QuantizedNetwork};
use zskip_nn::scratch::Scratch;
use zskip_nn::simd::KernelTier;
use zskip_quant::Sm8;
use zskip_sim::SimError;
use zskip_soc::dma::DmaError;
use zskip_tensor::{Shape, Tensor, TiledFeatureMap};

pub use crate::exec::{fm_to_bytes, BackendKind, SocHandle};
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
    /// When `false`, skip the functional arithmetic and produce cycle
    /// counts and counters only (cycle counts are value-independent).
    /// Throughput sweeps over full VGG-16 use this. Model backend only.
    pub functional: bool,
    /// When `false`, pack every weight slot (zeros included): the ablation
    /// baseline without the paper's zero-weight skipping.
    pub zero_skipping: bool,
    /// Intra-image worker count (resolved — never 0; 1 means
    /// single-threaded): the cpu backend's conv panels, the cycle
    /// backend's per-instruction engine runs. See
    /// [`DriverBuilder::threads`].
    pub threads: usize,
    /// SIMD kernel tier this session's forward passes run with (resolved
    /// — always host-supported). See [`DriverBuilder::kernel`].
    pub kernel_tier: KernelTier,
    /// Fault plan threaded into the SoC models and the cycle backend.
    fault_plan: Option<SharedFaultPlan>,
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
    /// The driver configuration is invalid (see [`DriverBuilder::build`]).
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

/// Validating builder for [`Driver`]. This is the preferred construction
/// path: it rejects degenerate configurations up front instead of letting
/// them surface as panics deep in a pass.
///
/// ```
/// # use zskip_core::{AccelConfig, BackendKind, Driver};
/// # use zskip_hls::AccelArch;
/// let config = AccelConfig::from_arch(
///     &AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 4096 },
///     100.0,
/// );
/// let driver = Driver::builder(config).backend(BackendKind::Cpu).build().unwrap();
/// assert!(driver.functional);
/// ```
#[derive(Debug, Clone)]
pub struct DriverBuilder {
    config: AccelConfig,
    backend: BackendKind,
    filter_grouping: bool,
    functional: bool,
    zero_skipping: bool,
    threads: usize,
    instances: Option<usize>,
    kernel: Option<KernelTier>,
    fault_plan: Option<SharedFaultPlan>,
}

impl DriverBuilder {
    /// Starts a builder from a configuration, with the defaults: model
    /// backend, functional, zero-skipping on.
    pub fn new(config: AccelConfig) -> DriverBuilder {
        DriverBuilder {
            config,
            backend: BackendKind::Model,
            filter_grouping: false,
            functional: true,
            zero_skipping: true,
            threads: 1,
            instances: None,
            kernel: None,
            fault_plan: None,
        }
    }

    /// Overrides the configuration's instance count, rescaling bank
    /// capacity so the total simulated SRAM budget
    /// (`bank_tiles x instances`) is preserved — the same geometry rule
    /// `AccelArch::full` applies between the paper's 256-opt and
    /// 512-opt. How the instances are occupied is the placement
    /// scheduler's job ([`crate::exec::sched`]).
    pub fn instances(mut self, instances: usize) -> DriverBuilder {
        self.instances = Some(instances);
        self
    }

    /// Selects the execution backend.
    pub fn backend(mut self, backend: BackendKind) -> DriverBuilder {
        self.backend = backend;
        self
    }

    /// Enables the future-work filter grouping.
    pub fn filter_grouping(mut self, on: bool) -> DriverBuilder {
        self.filter_grouping = on;
        self
    }

    /// When `false`, skip functional arithmetic (stats-only sweeps).
    pub fn functional(mut self, on: bool) -> DriverBuilder {
        self.functional = on;
        self
    }

    /// When `false`, pack every weight slot (the no-skipping ablation).
    pub fn zero_skipping(mut self, on: bool) -> DriverBuilder {
        self.zero_skipping = on;
        self
    }

    /// Intra-image worker count: `1` (the default) is single-threaded,
    /// larger values split the work of one image across that many
    /// threads — on the cpu backend each conv layer's output channels
    /// (see `zskip-nn`'s `par` module), on the cycle backend each pass's
    /// instructions, one engine run apiece ([`crate::cycle::run_items`]).
    /// Either way the report is bit-identical at any width. `0` resolves
    /// to the host's available parallelism at [`DriverBuilder::build`]
    /// time. The model backend's closed form has nothing to split and
    /// ignores this.
    pub fn threads(mut self, threads: usize) -> DriverBuilder {
        self.threads = threads;
        self
    }

    /// Pins the session's SIMD kernel tier. The default (`None`) is the
    /// process-wide dispatch choice (`ZSKIP_KERNEL` override, else the
    /// widest tier the host supports); an explicitly requested tier the
    /// host cannot execute clamps to the best supported one, mirroring
    /// [`zskip_nn::simd::select_tier`]'s stale-override policy. Check
    /// [`Driver::kernel_tier`] after build to see what was resolved.
    pub fn kernel(mut self, tier: KernelTier) -> DriverBuilder {
        self.kernel = Some(tier);
        self
    }

    /// Attaches a fault plan: the driver threads it into the DMA engine
    /// and (on the cycle backend) the simulation engine, so `dma:*` and
    /// `fifo:*` injections fire during [`Driver::run_network`].
    pub fn fault_plan(mut self, plan: SharedFaultPlan) -> DriverBuilder {
        self.fault_plan = Some(plan);
        self
    }

    /// Validates the configuration and builds the driver.
    ///
    /// # Errors
    /// [`DriverError::InvalidConfig`] when a structural parameter is zero,
    /// when `units != lanes` on the cycle backend (accumulator lanes map
    /// 1:1 onto write units), when stats-only mode is requested off the
    /// model backend (the cycle simulation cannot switch its arithmetic
    /// off, and the CPU backend *is* the arithmetic), or when an
    /// [`instances`](DriverBuilder::instances) override is zero or leaves
    /// zero bank capacity after the RAM-preserving rescale.
    pub fn build(mut self) -> Result<Driver, DriverError> {
        if self.instances.unwrap_or(self.config.instances) == 0 {
            return Err(DriverError::InvalidConfig("instances must be nonzero".into()));
        }
        if let Some(n) = self.instances {
            let total = self.config.bank_tiles * self.config.instances;
            self.config.instances = n;
            self.config.bank_tiles = total / n;
            if self.config.bank_tiles == 0 {
                return Err(DriverError::InvalidConfig(format!(
                    "{n} instances leave zero bank capacity \
                     (total budget {total} tile words)"
                )));
            }
        }
        let c = &self.config;
        for (name, v) in [
            ("units", c.units),
            ("lanes", c.lanes),
            ("bank_tiles", c.bank_tiles),
            ("fifo_depth", c.fifo_depth),
        ] {
            if v == 0 {
                return Err(DriverError::InvalidConfig(format!("{name} must be nonzero")));
            }
        }
        if self.backend == BackendKind::Cycle && c.units != c.lanes {
            return Err(DriverError::InvalidConfig(format!(
                "cycle backend requires units == lanes (got {} units, {} lanes)",
                c.units, c.lanes
            )));
        }
        if self.backend != BackendKind::Model && !self.functional {
            return Err(DriverError::InvalidConfig(
                "stats-only mode requires the model backend".into(),
            ));
        }
        Ok(Driver {
            config: self.config,
            backend: self.backend,
            filter_grouping: self.filter_grouping,
            functional: self.functional,
            zero_skipping: self.zero_skipping,
            threads: if self.threads == 0 {
                zskip_nn::par::ConvPool::auto_threads()
            } else {
                self.threads
            },
            kernel_tier: match self.kernel {
                Some(t) if t.is_supported() => t,
                Some(_) => KernelTier::best_supported(),
                None => zskip_nn::dispatch(),
            },
            fault_plan: self.fault_plan,
        })
    }
}

impl Driver {
    /// Starts a validating [`DriverBuilder`] for this configuration.
    pub fn builder(config: AccelConfig) -> DriverBuilder {
        DriverBuilder::new(config)
    }

    /// The attached fault plan, if any.
    pub(crate) fn fault_plan(&self) -> Option<&SharedFaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Runs full network inference on the simulated SoC.
    ///
    /// # Errors
    /// [`DriverError::LayerTooLarge`] when a layer cannot be striped into
    /// the banks; [`DriverError::Sim`] on cycle-backend failures;
    /// [`DriverError::Dma`] on DMA faults; [`DriverError::InvalidNetwork`]
    /// when the spec's shapes do not propagate.
    pub fn run_network(
        &self,
        qnet: &QuantizedNetwork,
        input: &Tensor<f32>,
    ) -> Result<InferenceReport, DriverError> {
        let mut scratch = Scratch::new();
        self.run_network_scratch(qnet, input, &mut scratch)
    }

    /// [`Driver::run_network`] on a caller-owned [`Scratch`]: the arena's
    /// dense plan slots hold the network's activations and its kernel
    /// buffers serve the CPU backend's passes. The batch engine keeps one
    /// arena per worker thread so streaming inference stops re-allocating
    /// those buffers per image.
    ///
    /// The walk is [`QuantizedNetwork::run_plan`] — the golden model's —
    /// with every `Conv` / `MaxPool` step issued to the simulated SoC
    /// instead of the `zskip-nn` kernels; FC layers, residual joins and
    /// global average pooling run on the host (the paper's ARM) inside
    /// the walk and cost no accelerator cycles.
    ///
    /// # Errors
    /// Same as [`Driver::run_network`].
    pub fn run_network_scratch(
        &self,
        qnet: &QuantizedNetwork,
        input: &Tensor<f32>,
        scratch: &mut Scratch,
    ) -> Result<InferenceReport, DriverError> {
        let mut soc = SocHandle::with_plan(self.fault_plan.clone());
        // Attach the intra-image worker pool (a warmup cost on the first
        // image; a no-op when the arena already has this width) and pin
        // the session's kernel tier on the arena.
        scratch.set_threads(self.threads);
        scratch.set_tier(self.kernel_tier);
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
        let output = qnet
            .run_plan(input, scratch, |step| self.accel_step(&mut soc, step).map(|report| passes.push(report)))?
            .to_vec();
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
    /// checks, the explicit pad pass, then the layer's own pass on this
    /// driver's backend, slot `src_slot`'s DDR region to `dst_slot`'s.
    fn accel_step(&self, soc: &mut SocHandle, step: AccelStep<'_>) -> Result<LayerReport, DriverError> {
        let AccelStep { layer, weights, src_slot, dst_slot, src, dst, padded, kernel } = step;
        let in_shape = src.shape();
        let out_shape =
            layer.output_shape(in_shape).map_err(|e| DriverError::InvalidNetwork(e.to_string()))?;
        let mut ctx =
            PassCtx { driver: self, soc, kernel, src_addr: slot_addr(src_slot), dst_addr: slot_addr(dst_slot) };
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
                let mut stats = PassStats::default();
                let mut src = src;
                // Explicit pad pass (hardware pad instruction); the
                // padded intermediate lives in the DDR pad region,
                // never in a plan slot.
                if *pad > 0 {
                    ctx.dst_addr = DDR_FM_PAD;
                    stats.merge(&exec::poolpad_pass(
                        &mut ctx,
                        &format!("{name}/pad"),
                        src,
                        PoolPadOp::Pad { amount: narrow("pad", *pad).map_err(|e| DriverError::field_overflow(name, e))? },
                        Shape::new(in_shape.c, in_shape.h + 2 * pad, in_shape.w + 2 * pad),
                        padded,
                    )?);
                    (ctx.src_addr, ctx.dst_addr) = (DDR_FM_PAD, slot_addr(dst_slot));
                    src = padded;
                }
                stats.merge(&exec::conv_pass(&mut ctx, name, src, qw, out_shape, dst)?);
                stats
            }
            (LayerSpec::MaxPool { name, k, stride }, _) => {
                let field = |field, value| narrow(field, value).map_err(|e| DriverError::field_overflow(name, e));
                let op = PoolPadOp::MaxPool { k: field("k", *k)?, stride: field("stride", *stride)? };
                exec::poolpad_pass(&mut ctx, name, src, op, out_shape, dst)?
            }
            // `QuantizedNetwork::run_plan` calls back for `on_accelerator()`
            // layers only: a conv with its weights, or a max-pool.
            _ => unreachable!("run_plan hands over conv and pool steps only"),
        };
        Ok(LayerReport {
            name: layer.name().to_string(),
            is_conv: weights.is_some(),
            dense_macs: layer.macs(in_shape),
            stats,
        })
    }

    /// Single-layer conv entry point for benches/ablations, on this
    /// driver's backend: tiled in, tiled out. The model and cycle
    /// backends run the staged pass alone (no layout conversion); the
    /// cpu backend computes dense, as in a network run.
    ///
    /// # Errors
    /// See [`Driver::run_network`].
    pub fn conv_pass(
        &self,
        name: &str,
        input: &TiledFeatureMap<Sm8>,
        qw: &QuantConvWeights,
        out_shape: Shape,
        soc: &mut SocHandle,
    ) -> Result<(TiledFeatureMap<Sm8>, PassStats), DriverError> {
        let mut scratch = Scratch::with_tier(self.kernel_tier);
        scratch.set_threads(self.threads);
        let mut ctx = self.single_pass_ctx(soc, &mut scratch);
        match exec::staged_exec(self) {
            Some(exec) => pipeline::conv_pass(&mut ctx, exec, name, input, qw, out_shape),
            None => exec::on_host(input, |src, dst| exec::conv_pass(&mut ctx, name, src, qw, out_shape, dst)),
        }
    }

    /// Single-layer pool/pad entry point for benches/ablations, on this
    /// driver's backend (see [`Driver::conv_pass`]).
    ///
    /// # Errors
    /// See [`Driver::run_network`].
    pub fn poolpad_pass(
        &self,
        name: &str,
        input: &TiledFeatureMap<Sm8>,
        op: PoolPadOp,
        out_shape: Shape,
        soc: &mut SocHandle,
    ) -> Result<(TiledFeatureMap<Sm8>, PassStats), DriverError> {
        let mut scratch = Scratch::with_tier(self.kernel_tier);
        let mut ctx = self.single_pass_ctx(soc, &mut scratch);
        match exec::staged_exec(self) {
            Some(exec) => pipeline::poolpad_pass(&mut ctx, exec, name, input, op, out_shape),
            None => exec::on_host(input, |src, dst| exec::poolpad_pass(&mut ctx, name, src, op, out_shape, dst)),
        }
    }

    /// The context of a single-layer pass: slot 0's DDR region to slot 1's.
    fn single_pass_ctx<'a>(&'a self, soc: &'a mut SocHandle, scratch: &'a mut Scratch) -> PassCtx<'a> {
        PassCtx { driver: self, soc, kernel: scratch.kernel_buffers(), src_addr: slot_addr(0), dst_addr: slot_addr(1) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use zskip_hls::AccelArch;

    fn config(bank_tiles: usize, instances: usize) -> AccelConfig {
        AccelConfig::from_arch(
            &AccelArch { conv_units: 4, lanes: 4, instances, bank_tiles },
            100.0,
        )
    }

    #[test]
    fn builder_validates_configuration() {
        let err = Driver::builder(config(0, 1)).build().unwrap_err();
        assert_eq!(err, DriverError::InvalidConfig("bank_tiles must be nonzero".into()));
        assert_eq!(Error::from(err).code(), "config.invalid");

        let mut cfg = config(4096, 1);
        cfg.lanes = 2; // units stays 4: illegal on the cycle backend.
        let err = Driver::builder(cfg).backend(BackendKind::Cycle).build().unwrap_err();
        assert!(matches!(err, DriverError::InvalidConfig(ref r) if r.contains("units == lanes")));
        assert_eq!(Error::from(err).code(), "config.invalid");
        // The same geometry is fine on the model and CPU backends.
        assert!(Driver::builder(cfg).build().is_ok());
        assert!(Driver::builder(cfg).backend(BackendKind::Cpu).build().is_ok());

        // Stats-only mode exists only on the model backend: the cycle
        // simulation cannot switch its arithmetic off, and the CPU
        // backend is the arithmetic.
        for backend in [BackendKind::Cycle, BackendKind::Cpu] {
            let err = Driver::builder(config(4096, 1)).backend(backend).functional(false).build().unwrap_err();
            assert!(matches!(err, DriverError::InvalidConfig(ref r) if r.contains("stats-only")));
            assert_eq!(Error::from(err).code(), "config.invalid");
        }
    }

    #[test]
    fn every_zero_parameter_is_named_in_its_error() {
        for (field, cfg) in [
            ("units", {
                let mut c = config(4096, 1);
                c.units = 0;
                c
            }),
            ("lanes", {
                let mut c = config(4096, 1);
                c.lanes = 0;
                c
            }),
            ("instances", config(4096, 0)),
            ("bank_tiles", config(0, 1)),
            ("fifo_depth", {
                let mut c = config(4096, 1);
                c.fifo_depth = 0;
                c
            }),
        ] {
            let err = Driver::builder(cfg).build().unwrap_err();
            assert!(
                matches!(err, DriverError::InvalidConfig(ref r) if r.contains(field)),
                "{field}: got {err:?}"
            );
            assert_eq!(Error::from(err).code(), "config.invalid");
        }
    }

    #[test]
    fn instances_override_rescales_bank_capacity() {
        let d = Driver::builder(config(4096, 1)).instances(4).build().unwrap();
        assert_eq!(d.config.instances, 4);
        assert_eq!(d.config.bank_tiles, 1024, "RAM budget is preserved, not replicated");
        // Rescaling down restores the budget.
        let mut cfg = d.config;
        cfg.clock_mhz = 100.0;
        let back = Driver::builder(cfg).instances(1).build().unwrap();
        assert_eq!(back.config.bank_tiles, 4096);

        let err = Driver::builder(config(4096, 1)).instances(0).build().unwrap_err();
        assert!(matches!(err, DriverError::InvalidConfig(ref r) if r.contains("instances")));
        assert_eq!(Error::from(err).code(), "config.invalid");

        let err = Driver::builder(config(2, 1)).instances(4).build().unwrap_err();
        assert!(matches!(err, DriverError::InvalidConfig(ref r) if r.contains("bank capacity")));
        assert_eq!(Error::from(err).code(), "config.invalid");
    }

    #[test]
    fn kernel_tier_resolves_and_clamps() {
        use zskip_nn::simd::KernelTier;
        // Default: the process-wide dispatch choice.
        let d = Driver::builder(config(4096, 1)).build().unwrap();
        assert_eq!(d.kernel_tier, zskip_nn::dispatch());
        // Scalar is supported everywhere and pins exactly.
        let d = Driver::builder(config(4096, 1)).kernel(KernelTier::Scalar).build().unwrap();
        assert_eq!(d.kernel_tier, KernelTier::Scalar);
        // An unsupported request clamps to the best supported tier.
        let d = Driver::builder(config(4096, 1)).kernel(KernelTier::Avx512).build().unwrap();
        assert!(d.kernel_tier.is_supported());
    }
}
