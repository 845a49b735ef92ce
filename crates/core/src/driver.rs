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
//! * **layer walking**: shape propagation, geometry checks, the explicit
//!   pad pass before each padded convolution, and host (ARM) execution
//!   of FC layers and softmax, as in the paper;
//! * **backend dispatch**: each accelerator pass goes through
//!   [`exec::conv_pass`] / [`exec::poolpad_pass`] to the session's
//!   backend — the transaction-level model, the cycle-exact simulation,
//!   or the host SIMD path ([`BackendKind`]);
//! * **reporting**: per-layer [`PassStats`] roll up into an
//!   [`InferenceReport`].
//!
//! The staged per-layer pipeline itself (striping, weight packing, DMA
//! orchestration, multi-instance scale-out) lives in [`crate::exec`].

use crate::config::AccelConfig;
use crate::exec::pipeline::{fm_to_tensor_into, slot_addr, DDR_FM_PAD, DDR_FM_STRIDE};
use crate::exec::{self, PassCtx};
use crate::isa::PoolPadOp;
use zskip_fault::SharedFaultPlan;
use zskip_nn::conv::QuantConvWeights;
use zskip_nn::eltwise::{add_quant_phase1, add_quant_phase2, global_avgpool_quant_into};
use zskip_nn::fc::fc_quant_into;
use zskip_nn::simd::KernelTier;
use zskip_nn::layer::LayerSpec;
use zskip_nn::model::QuantizedNetwork;
use zskip_nn::scratch::Scratch;
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
    /// Intra-image worker count for the CPU backend's conv kernels
    /// (resolved — never 0; 1 means single-threaded). See
    /// [`DriverBuilder::threads`].
    pub threads: usize,
    /// SIMD kernel tier this session's forward passes run with (resolved
    /// — always host-supported). See [`DriverBuilder::kernel`].
    pub kernel_tier: KernelTier,
    /// Event-scheduler park hysteresis for the cycle backend (`None` =
    /// the engine default). Simulator wall-time only; simulated cycle
    /// counts are bit-identical for every value. See
    /// [`DriverBuilder::park_hysteresis`].
    pub park_hysteresis: Option<u32>,
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
    park_hysteresis: Option<u32>,
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
            park_hysteresis: None,
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

    /// Intra-image worker count for the CPU backend's conv kernels:
    /// `1` (the default) is single-threaded, larger values split each
    /// conv layer's output channels across that many threads — bit-exact
    /// at any width (see `zskip-nn`'s `par` module). `0` resolves to the
    /// host's available parallelism at [`DriverBuilder::build`] time.
    /// Other backends compute on the simulated accelerator and ignore
    /// this.
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

    /// Park hysteresis for the cycle backend's event scheduler: blocked
    /// kernels park after this many consecutive quiescent ticks (see
    /// [`zskip_sim::EngineBuilder::park_hysteresis`]). Affects simulator
    /// wall time only — simulated cycle counts and results are
    /// bit-identical for every value. Other backends ignore it.
    pub fn park_hysteresis(mut self, ticks: u32) -> DriverBuilder {
        self.park_hysteresis = Some(ticks);
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
        if self.park_hysteresis == Some(0) {
            return Err(DriverError::InvalidConfig(
                "park_hysteresis must be nonzero (1 parks on the first blocked tick)".into(),
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
            park_hysteresis: self.park_hysteresis,
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

    /// [`Driver::run_network`] reusing a caller-owned [`Scratch`] for the
    /// host-side buffers (input quantization, FC ping-pong) and — on the
    /// CPU backend — the per-pass compute buffers. The batch engine keeps
    /// one arena per worker thread so streaming inference stops
    /// re-allocating those buffers per image.
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
        let shapes =
            qnet.spec.shapes().map_err(|e| DriverError::InvalidNetwork(e.to_string()))?;
        // The execution plan (topological order, activation liveness,
        // slot assignment) is shared with the software golden model; the
        // driver maps each slot to a fixed DDR feature-map region, so a
        // skip-branch activation stays resident across the branch body.
        let plan = &qnet.plan;
        if plan.slots.max(1) * DDR_FM_STRIDE > DDR_FM_PAD {
            return Err(DriverError::InvalidNetwork(format!(
                "plan needs {} activation slots; the DDR feature-map window holds {}",
                plan.slots,
                DDR_FM_PAD / DDR_FM_STRIDE
            )));
        }
        // Host-side mirror of each slot's resident activation (`None` =
        // slot free). The plan's liveness pass decides when an entry is
        // dropped; the input always starts in slot 0.
        let mut slot_fms: Vec<Option<TiledFeatureMap<Sm8>>> =
            (0..plan.slots.max(1)).map(|_| None).collect();
        {
            let (act_q, _, _) = scratch.host_buffers();
            input.map_into(act_q, |v| qnet.input_params.quantize(v));
            slot_fms[0] = Some(TiledFeatureMap::from_tensor(act_q));
        }
        let mut layers = Vec::new();
        let mut conv_i = 0;
        let mut fc_i = 0;
        // Which FC ping-pong buffer holds the newest activations.
        let mut flat: Option<bool> = None;

        for step in &plan.steps {
            let li = step.layer;
            let layer = &qnet.spec.layers[li];
            match layer {
                LayerSpec::Conv { name, stride, pad, k, .. } => {
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
                    let src_slot = step.src.expect("conv reads a slot");
                    let dst_slot = step.dst.expect("conv writes a slot");
                    let qw = &qnet.conv[conv_i].weights;
                    let mut stats = PassStats::default();
                    let src_fm = slot_fms[src_slot].as_ref().expect("producer already ran");
                    let mut src_addr = slot_addr(src_slot);
                    // Explicit pad pass (hardware pad instruction); the
                    // padded intermediate lives in the DDR pad region,
                    // never in a plan slot.
                    let padded;
                    let src_fm = if *pad > 0 {
                        let s = src_fm.logical_shape();
                        let (p, pad_stats) = exec::poolpad_pass(
                            &mut PassCtx {
                                driver: self,
                                soc: &mut soc,
                                scratch: &mut *scratch,
                                src_addr,
                                dst_addr: DDR_FM_PAD,
                            },
                            &format!("{name}/pad"),
                            src_fm,
                            PoolPadOp::Pad { amount: *pad as u8 },
                            Shape::new(s.c, s.h + 2 * pad, s.w + 2 * pad),
                        )?;
                        stats.merge(&pad_stats);
                        src_addr = DDR_FM_PAD;
                        padded = p;
                        &padded
                    } else {
                        src_fm
                    };
                    let (out, conv_stats) = exec::conv_pass(
                        &mut PassCtx {
                            driver: self,
                            soc: &mut soc,
                            scratch: &mut *scratch,
                            src_addr,
                            dst_addr: slot_addr(dst_slot),
                        },
                        name,
                        src_fm,
                        qw,
                        shapes[li + 1],
                    )?;
                    stats.merge(&conv_stats);
                    layers.push(LayerReport {
                        name: name.clone(),
                        is_conv: true,
                        dense_macs: layer.macs(shapes[li]),
                        stats,
                    });
                    slot_fms[dst_slot] = Some(out);
                    conv_i += 1;
                }
                LayerSpec::MaxPool { name, k, stride } => {
                    let src_slot = step.src.expect("pool reads a slot");
                    let dst_slot = step.dst.expect("pool writes a slot");
                    let src_fm = slot_fms[src_slot].as_ref().expect("producer already ran");
                    let (out, stats) = exec::poolpad_pass(
                        &mut PassCtx {
                            driver: self,
                            soc: &mut soc,
                            scratch: &mut *scratch,
                            src_addr: slot_addr(src_slot),
                            dst_addr: slot_addr(dst_slot),
                        },
                        name,
                        src_fm,
                        PoolPadOp::MaxPool { k: *k as u8, stride: *stride as u8 },
                        shapes[li + 1],
                    )?;
                    layers.push(LayerReport { name: name.clone(), is_conv: false, dense_macs: 0, stats });
                    slot_fms[dst_slot] = Some(out);
                }
                // A Ref is a pure alias: its plan step re-emits the
                // source slot, no data moves and no pass is issued.
                LayerSpec::Ref { name, .. } => {
                    layers.push(LayerReport {
                        name: name.clone(),
                        is_conv: false,
                        dense_macs: 0,
                        stats: PassStats::default(),
                    });
                }
                LayerSpec::Add { name, relu, .. } => {
                    // Host-side (ARM) residual join, like the FC layers:
                    // both operands are rescaled to the output scale and
                    // summed in i64 before the single saturation — the
                    // exact order of the golden model's oracle.
                    let (ra, rb) = qnet.add_requantizers(step);
                    let dst_slot = step.dst.expect("add writes a slot");
                    let a_fm = slot_fms[step.src.expect("add reads a slot")]
                        .as_ref()
                        .expect("producer already ran");
                    let b_fm = slot_fms[step.operand.expect("add has an operand")]
                        .as_ref()
                        .expect("operand still resident");
                    let (src_t, dst_t, acc, _) = scratch.pass_buffers();
                    fm_to_tensor_into(a_fm, src_t);
                    add_quant_phase1(src_t, ra, acc);
                    fm_to_tensor_into(b_fm, src_t);
                    add_quant_phase2(src_t, rb, *relu, acc, dst_t);
                    let out = TiledFeatureMap::from_tensor(dst_t);
                    layers.push(LayerReport {
                        name: name.clone(),
                        is_conv: false,
                        dense_macs: 0,
                        stats: PassStats::default(),
                    });
                    slot_fms[dst_slot] = Some(out);
                }
                LayerSpec::GlobalAvgPool { name } => {
                    // Host-side: exact i64 channel sums, one requantize.
                    let src_slot = step.src.expect("gap reads a slot");
                    let dst_slot = step.dst.expect("gap writes a slot");
                    let src_fm = slot_fms[src_slot].as_ref().expect("producer already ran");
                    let s = src_fm.logical_shape();
                    let r = qnet.gap_requantizer(step, s.h * s.w);
                    let (src_t, dst_t, _, _) = scratch.pass_buffers();
                    fm_to_tensor_into(src_fm, src_t);
                    global_avgpool_quant_into(src_t, r, dst_t);
                    let out = TiledFeatureMap::from_tensor(dst_t);
                    layers.push(LayerReport {
                        name: name.clone(),
                        is_conv: false,
                        dense_macs: 0,
                        stats: PassStats::default(),
                    });
                    slot_fms[dst_slot] = Some(out);
                }
                LayerSpec::BatchNorm { .. } => {
                    unreachable!("quantization folds batch-norm into the preceding conv")
                }
                LayerSpec::Fc { name, .. } => {
                    // Host-side (ARM) execution, as in the paper; the arena's
                    // FC buffers alternate so nothing is copied or allocated.
                    if flat.is_none() {
                        // Entering the flat head: densify the last
                        // feature map out of its slot.
                        let src_fm = slot_fms[step.src.expect("first fc reads a slot")]
                            .as_ref()
                            .expect("producer already ran");
                        let (act_q, _, _) = scratch.host_buffers();
                        fm_to_tensor_into(src_fm, act_q);
                    }
                    let (act_q, flat_a, flat_b) = scratch.host_buffers();
                    flat = Some(match flat {
                        None => {
                            fc_quant_into(act_q.as_slice(), &qnet.fc[fc_i], flat_a);
                            false
                        }
                        Some(false) => {
                            fc_quant_into(flat_a, &qnet.fc[fc_i], flat_b);
                            true
                        }
                        Some(true) => {
                            fc_quant_into(flat_b, &qnet.fc[fc_i], flat_a);
                            false
                        }
                    });
                    fc_i += 1;
                    layers.push(LayerReport {
                        name: name.clone(),
                        is_conv: false,
                        dense_macs: layer.macs(shapes[li]),
                        stats: PassStats::default(),
                    });
                }
                LayerSpec::Softmax => {
                    // Monotone; host applies it for probabilities, argmax
                    // unchanged on logits.
                }
            }
            // The liveness pass retires slots whose activations have no
            // further consumer: their DDR regions (and host mirrors) are
            // free for reuse from the next step on.
            for &f in &step.frees {
                slot_fms[f] = None;
            }
        }

        let output = match flat {
            None => {
                let fm = slot_fms[plan.output_slot.unwrap_or(0)]
                    .as_ref()
                    .expect("final activation stays resident");
                let (act_q, _, _) = scratch.host_buffers();
                fm_to_tensor_into(fm, act_q);
                act_q.as_slice().to_vec()
            }
            Some(false) => scratch.host_buffers().1.clone(),
            Some(true) => scratch.host_buffers().2.clone(),
        };
        let total_cycles = layers.iter().map(|l| l.stats.total_cycles).sum();
        Ok(InferenceReport { layers, output, total_cycles, ddr_bytes: soc.ddr_bytes() })
    }

    /// Single-layer conv entry point for benches/ablations, on this
    /// driver's backend.
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
        exec::conv_pass(
            &mut PassCtx {
                driver: self,
                soc,
                scratch: &mut scratch,
                src_addr: slot_addr(0),
                dst_addr: slot_addr(1),
            },
            name,
            input,
            qw,
            out_shape,
        )
    }

    /// Single-layer pool/pad entry point for benches/ablations, on this
    /// driver's backend.
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
        exec::poolpad_pass(
            &mut PassCtx {
                driver: self,
                soc,
                scratch: &mut scratch,
                src_addr: slot_addr(0),
                dst_addr: slot_addr(1),
            },
            name,
            input,
            op,
            out_shape,
        )
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
