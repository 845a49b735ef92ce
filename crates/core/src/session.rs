//! The curated library surface a host application holds: a validated
//! [`Session`] wrapping one driver configuration plus the worker-pool knobs
//! every consumer of the accelerator shares.
//!
//! [`SessionBuilder`] is the only way to configure a run and `Session`'s
//! methods the only way to run one — an image or a batch, on one
//! instance or N. The CLI's `infer`, `batch` and `serve` subcommands all route
//! through this type, so a daemon, a one-shot inference and a benchmark
//! are guaranteed to configure the stack identically: backend,
//! intra-image threads, SIMD kernel tier and the worker pool live in
//! exactly one builder. The serving daemon
//! ([`ServeEngine`](crate::serve::ServeEngine)) is a thin protocol layer
//! over a `Session`.
//!
//! ```
//! # use zskip_core::{AccelConfig, BackendKind, Session};
//! # use zskip_hls::AccelArch;
//! let config = AccelConfig::from_arch(
//!     &AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 4096 },
//!     100.0,
//! );
//! let session = Session::builder(config).backend(BackendKind::Cpu).build().unwrap();
//! assert!(session.driver().functional);
//! ```

use crate::batch::{run_batch_resilient, BatchReport, ResilientBatchReport, RetryPolicy};
use crate::config::AccelConfig;
use crate::driver::{BackendKind, Driver, InferenceReport};
use crate::error::Error;
use crate::exec::sched::{self, Placement};
use zskip_fault::SharedFaultPlan;
use zskip_nn::model::QuantizedNetwork;
use zskip_nn::par::ConvPool;
use zskip_nn::simd::KernelTier;
use zskip_nn::Scratch;
use zskip_tensor::Tensor;

/// Default admission-control queue depth ([`BatchConfig::queue_depth`]).
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// Worker-pool and admission-control knobs shared by the batch engine
/// entry points and the serving daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Worker threads, each taking one image at a time (0 = host auto):
    /// a batch's for the length of the call, the daemon's for its life.
    pub workers: usize,
    /// Bounded submission-queue depth: admission control. A submit
    /// against a full queue is rejected with
    /// [`ServeError::Overloaded`](crate::serve::ServeError::Overloaded)
    /// instead of growing without bound — an overloaded server degrades
    /// to explicit backpressure, never collapse.
    pub queue_depth: usize,
    /// Per-request retry policy for transient faults.
    pub retry: RetryPolicy,
    /// Multi-instance placement [`Session::run_batch`] schedules a batch
    /// under; `Auto` resolves per workload (see [`Placement::resolve`]).
    pub placement: Placement,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            workers: 0,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            retry: RetryPolicy::default(),
            placement: Placement::Auto,
        }
    }
}

/// The most threads one knob may ask for: `threads` (intra-image) and
/// `batch_workers` (the worker pool) are each rejected above this, so a
/// stray count fails as `config.invalid` instead of exhausting the host's
/// threads at spawn time. `0` (host auto) is always accepted.
pub const MAX_THREADS: usize = 1024;

/// Validating builder for [`Session`], the one construction path: it
/// rejects degenerate configurations up front instead of letting them
/// surface as panics deep in a pass. See the module docs for an example.
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    config: AccelConfig,
    backend: BackendKind,
    filter_grouping: bool,
    functional: bool,
    zero_skipping: bool,
    threads: usize,
    instances: Option<usize>,
    kernel: Option<KernelTier>,
    fault_plan: Option<SharedFaultPlan>,
    batch: BatchConfig,
}

impl SessionBuilder {
    /// Starts a builder from an accelerator configuration with the
    /// defaults: model backend, functional, zero-skipping on, one
    /// intra-image thread, the process-wide kernel tier and
    /// [`BatchConfig::default`].
    pub fn new(config: AccelConfig) -> SessionBuilder {
        SessionBuilder {
            config,
            backend: BackendKind::Model,
            filter_grouping: false,
            functional: true,
            zero_skipping: true,
            threads: 1,
            instances: None,
            kernel: None,
            fault_plan: None,
            batch: BatchConfig::default(),
        }
    }

    /// Starts a builder from a [`TunedConfig`](crate::tune::TunedConfig)
    /// artifact on disk (the output of `zskip tune`; the CLI's
    /// `--config <file>` flag routes through this). Every knob of the
    /// artifact is applied; callers may layer explicit overrides on the
    /// returned builder before `build()` — that is how CLI flags win
    /// over the artifact.
    ///
    /// # Errors
    /// `config.invalid` when the file cannot be read or is not a valid
    /// versioned artifact (see
    /// [`TunedConfig::load`](crate::tune::TunedConfig::load)).
    pub fn from_tuned(path: impl AsRef<std::path::Path>) -> Result<SessionBuilder, Error> {
        Ok(crate::tune::TunedConfig::load(path)?.session())
    }

    /// Selects the execution backend.
    pub fn backend(mut self, backend: BackendKind) -> SessionBuilder {
        self.backend = backend;
        self
    }

    /// Intra-image worker count: `1` (the default) is single-threaded,
    /// larger values split the work of one image across that many
    /// threads — on the model and cpu backends (one path) the golden
    /// walk's conv layers, split by output channels (see `zskip-nn`'s
    /// `par` module), on the cycle backend each pass's instructions, one
    /// engine run apiece ([`crate::cycle::run_items`]). Either way the
    /// report is bit-identical at any width. `0` resolves to the host's
    /// available parallelism at [`SessionBuilder::build`] time; at most
    /// [`MAX_THREADS`].
    pub fn threads(mut self, threads: usize) -> SessionBuilder {
        self.threads = threads;
        self
    }

    /// Pins the session's SIMD kernel tier. The default (unset) is the
    /// process-wide dispatch choice (`ZSKIP_KERNEL` override, else the
    /// widest tier the host supports); an explicitly requested tier the
    /// host cannot execute clamps to the best supported one, mirroring
    /// [`zskip_nn::simd::select_tier`]'s stale-override policy. Check
    /// [`Session::kernel_tier`] after build to see what was resolved.
    pub fn kernel(mut self, tier: KernelTier) -> SessionBuilder {
        self.kernel = Some(tier);
        self
    }

    /// Overrides the configuration's instance count, rescaling bank
    /// capacity so the total simulated SRAM budget
    /// (`bank_tiles x instances`) is preserved — the same geometry rule
    /// `AccelArch::full` applies between the paper's 256-opt and
    /// 512-opt. How the instances are occupied is the placement
    /// scheduler's job ([`crate::exec::sched`]).
    pub fn instances(mut self, instances: usize) -> SessionBuilder {
        self.instances = Some(instances);
        self
    }

    /// Multi-instance placement for [`Session::run_batch`]
    /// (see [`BatchConfig::placement`]).
    pub fn placement(mut self, placement: Placement) -> SessionBuilder {
        self.batch.placement = placement;
        self
    }

    /// Enables the paper's future-work filter grouping (sort filters by
    /// non-zero count before forming lockstep groups).
    pub fn filter_grouping(mut self, on: bool) -> SessionBuilder {
        self.filter_grouping = on;
        self
    }

    /// When `false`, skip the golden walk: a run returns only its report
    /// (cycles and counters, recorded per network and configuration) with
    /// an empty `output`, and a single-layer pass the zero map
    /// (stats-only sweeps; model backend only).
    pub fn functional(mut self, on: bool) -> SessionBuilder {
        self.functional = on;
        self
    }

    /// When `false`, pack every weight slot (the no-skipping ablation).
    pub fn zero_skipping(mut self, on: bool) -> SessionBuilder {
        self.zero_skipping = on;
        self
    }

    /// Attaches a fault plan: the driver threads it into the DMA engine
    /// and (on the cycle backend) the simulation engine, so `dma:*` and
    /// `fifo:*` injections fire during [`Session::infer`].
    pub fn fault_plan(mut self, plan: SharedFaultPlan) -> SessionBuilder {
        self.fault_plan = Some(plan);
        self
    }

    /// Replaces the whole batch configuration.
    pub fn batch_config(mut self, batch: BatchConfig) -> SessionBuilder {
        self.batch = batch;
        self
    }

    /// Batch-pool worker threads (0 = host auto; at most [`MAX_THREADS`]).
    pub fn batch_workers(mut self, workers: usize) -> SessionBuilder {
        self.batch.workers = workers;
        self
    }

    /// Admission-control queue depth (see [`BatchConfig::queue_depth`]).
    pub fn queue_depth(mut self, depth: usize) -> SessionBuilder {
        self.batch.queue_depth = depth;
        self
    }

    /// Per-request transient-fault retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> SessionBuilder {
        self.batch.retry = retry;
        self
    }

    /// Validates the configuration and builds the session.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] (`config.invalid`, naming the field) when
    /// a structural parameter is zero, when an
    /// [`instances`](SessionBuilder::instances) override leaves zero bank
    /// capacity after the RAM-preserving rescale, when `units != lanes`
    /// on the cycle backend (accumulator lanes map 1:1 onto write units),
    /// when stats-only mode is requested off the model backend (the cycle
    /// simulation cannot switch its arithmetic off, and the cpu name
    /// always asks for the golden walk), when `queue_depth` is zero (the daemon would
    /// admit nothing), or when `threads` or `batch_workers` exceeds
    /// [`MAX_THREADS`].
    pub fn build(self) -> Result<Session, Error> {
        let invalid = |reason: String| Err(Error::InvalidConfig(reason));
        let mut config = self.config;
        if self.instances.unwrap_or(config.instances) == 0 {
            return invalid("instances must be nonzero".into());
        }
        if let Some(n) = self.instances {
            let total = config.bank_tiles * config.instances;
            config.instances = n;
            config.bank_tiles = total / n;
            if config.bank_tiles == 0 {
                return invalid(format!(
                    "{n} instances leave zero bank capacity (total budget {total} tile words)"
                ));
            }
        }
        for (name, v) in [
            ("units", config.units),
            ("lanes", config.lanes),
            ("bank_tiles", config.bank_tiles),
            ("fifo_depth", config.fifo_depth),
            ("queue_depth", self.batch.queue_depth),
        ] {
            if v == 0 {
                return invalid(format!("{name} must be nonzero"));
            }
        }
        for (name, v) in [("threads", self.threads), ("batch_workers", self.batch.workers)] {
            if v > MAX_THREADS {
                return invalid(format!("{name} must be at most {MAX_THREADS} (0 = auto), got {v}"));
            }
        }
        if self.backend == BackendKind::Cycle && config.units != config.lanes {
            return invalid(format!(
                "cycle backend requires units == lanes (got {} units, {} lanes)",
                config.units, config.lanes
            ));
        }
        if self.backend != BackendKind::Model && !self.functional {
            return invalid("stats-only mode requires the model backend".into());
        }
        let driver = Driver {
            config,
            backend: self.backend,
            filter_grouping: self.filter_grouping,
            functional: self.functional,
            zero_skipping: self.zero_skipping,
            threads: if self.threads == 0 { ConvPool::auto_threads() } else { self.threads },
            kernel_tier: match self.kernel {
                Some(t) if t.is_supported() => t,
                Some(_) => KernelTier::best_supported(),
                None => zskip_nn::dispatch(),
            },
            fault_plan: self.fault_plan,
            stats: Default::default(),
        };
        Ok(Session { view: sched::single_instance_view(&driver), driver, batch: self.batch })
    }
}

/// A validated, reusable inference session: one driver configuration plus
/// the batch knobs. Cheap to clone (the driver is plain data plus Arcs).
#[derive(Debug, Clone)]
pub struct Session {
    driver: Driver,
    /// The single-instance view image and pipeline placements run on.
    view: Driver,
    batch: BatchConfig,
}

impl Session {
    /// Starts a validating [`SessionBuilder`] for this configuration.
    pub fn builder(config: AccelConfig) -> SessionBuilder {
        SessionBuilder::new(config)
    }

    /// The underlying driver.
    pub fn driver(&self) -> &Driver {
        &self.driver
    }

    /// The session's batch configuration.
    pub fn batch_config(&self) -> &BatchConfig {
        &self.batch
    }

    /// This session under another batch configuration, on the same
    /// drivers — so with the same recorded stats walks.
    pub(crate) fn with_batch(&self, batch: BatchConfig) -> Session {
        Session { batch, ..self.clone() }
    }

    /// The resolved SIMD kernel tier this session computes with.
    pub fn kernel_tier(&self) -> KernelTier {
        self.driver.kernel_tier
    }

    /// Runs one inference on a fresh arena.
    ///
    /// # Errors
    /// `driver.layer-too-large` when a layer cannot be striped into the
    /// banks, `sim.*` on cycle-backend failures, `dma.*` on DMA faults,
    /// `driver.unsupported` for geometry the datapath lacks and
    /// `driver.invalid-network` when the spec's shapes do not propagate
    /// (see [`Error::code`]).
    pub fn infer(
        &self,
        qnet: &QuantizedNetwork,
        input: &Tensor<f32>,
    ) -> Result<InferenceReport, Error> {
        self.infer_scratch(qnet, input, &mut Scratch::new())
    }

    /// [`Session::infer`] reusing a caller-owned arena (streaming use):
    /// the arena's dense plan slots hold the network's activations and its
    /// kernel buffers serve the cpu backend's golden walk, so a warm
    /// image re-allocates neither.
    ///
    /// # Errors
    /// See [`Session::infer`].
    pub fn infer_scratch(
        &self,
        qnet: &QuantizedNetwork,
        input: &Tensor<f32>,
        scratch: &mut Scratch,
    ) -> Result<InferenceReport, Error> {
        Ok(self.driver.run_network_scratch(qnet, input, scratch)?)
    }

    /// Runs a batch — the one way to run many images, on one instance or
    /// N. Every input runs on the batch engine ([`crate::batch`]) with this
    /// session's worker count; the reports are then scheduled onto the
    /// configured instances under [`BatchConfig::placement`] (resolved
    /// per [`Placement::resolve`]; see [`crate::exec::sched`]). A stripe
    /// placement runs the images on the N-instance driver, image and
    /// pipeline placements on a single-instance view of it, so every
    /// output is bit-identical to [`Session::infer`] on one instance. The
    /// batch succeeds only if every input does.
    ///
    /// # Errors
    /// The failing input's error — the lowest-index one when several
    /// fail, so the error is deterministic too — or `config.invalid` when
    /// an explicit stripe placement left some instance idle on every
    /// layer.
    pub fn run_batch(
        &self,
        qnet: &QuantizedNetwork,
        inputs: &[Tensor<f32>],
    ) -> Result<BatchReport, Error> {
        let n = self.driver.config.instances.max(1);
        let placement = self.batch.placement.resolve(n, inputs.len(), sched::accel_layer_count(qnet));
        let driver = if placement == Placement::Stripe { &self.driver } else { &self.view };
        let ResilientBatchReport { items, workers, per_worker_jobs, steals: _ } =
            run_batch_resilient(driver, qnet, inputs, self.batch.workers, RetryPolicy::none());
        let items = items.into_iter().map(|item| item.result).collect::<Result<Vec<_>, _>>()?;
        if self.batch.placement == Placement::Stripe && n > 1 {
            sched::check_stripe_coverage(n, &items)?;
        }
        let sched::Timeline {
            makespan_cycles,
            serial_cycles,
            per_instance_busy,
            layer_bubbles,
            staging_exposed_cycles,
            staging_hidden_cycles,
        } = sched::schedule(placement, n, &items);
        Ok(BatchReport {
            placement,
            instances: n,
            items,
            makespan_cycles,
            serial_cycles,
            per_instance_busy,
            layer_bubbles,
            staging_exposed_cycles,
            staging_hidden_cycles,
            workers,
            per_worker_jobs,
        })
    }

    /// Runs a batch where each input carries its own `Result`, with this
    /// session's worker count and retry policy — the worker loop the
    /// serving daemon keeps resident. Images run on the session's driver
    /// as configured; no placement is scheduled.
    pub fn run_batch_resilient(
        &self,
        qnet: &QuantizedNetwork,
        inputs: &[Tensor<f32>],
    ) -> ResilientBatchReport {
        run_batch_resilient(&self.driver, qnet, inputs, self.batch.workers, self.batch.retry)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use zskip_hls::AccelArch;
    use zskip_nn::eval::synthetic_inputs;
    use zskip_nn::layer::{LayerSpec, NetworkSpec};
    use zskip_nn::model::{Network, SyntheticModelConfig};
    use zskip_quant::DensityProfile;
    use zskip_tensor::Shape;

    fn config() -> AccelConfig {
        AccelConfig::from_arch(
            &AccelArch { conv_units: 4, lanes: 4, instances: 1, bank_tiles: 4096 },
            100.0,
        )
    }

    pub(crate) fn tiny_qnet(hw: usize) -> QuantizedNetwork {
        let layers = vec![
            LayerSpec::Conv { name: "c0".into(), in_c: 2, out_c: 4, k: 3, stride: 1, pad: 1, relu: true },
            LayerSpec::MaxPool { name: "p".into(), k: 2, stride: 2 },
        ];
        let spec = NetworkSpec { name: "session-test".into(), input: Shape::new(2, hw, hw), layers };
        let net = Network::synthetic(
            spec.clone(),
            &SyntheticModelConfig { seed: 9, density: DensityProfile::uniform(1, 0.5) },
        );
        let calib = synthetic_inputs(2, 1, spec.input);
        net.quantize(&calib)
    }

    /// The builder is the only construction path, so every rejection, the
    /// defaults and what `build()` resolves are pinned here, in one table.
    #[test]
    fn builder_rejects_invalid_configs_naming_the_field_and_resolves_the_rest() {
        let with = |f: fn(&mut AccelConfig)| {
            let mut c = config();
            f(&mut c);
            Session::builder(c)
        };
        let b = || Session::builder(config());
        let cases: Vec<(&str, SessionBuilder)> = vec![
            ("units", with(|c| c.units = 0)),
            ("lanes", with(|c| c.lanes = 0)),
            ("bank_tiles", with(|c| c.bank_tiles = 0)),
            ("fifo_depth", with(|c| c.fifo_depth = 0)),
            ("instances", with(|c| c.instances = 0)),
            ("instances", b().instances(0)),
            ("bank capacity", with(|c| c.bank_tiles = 2).instances(4)),
            ("units == lanes", with(|c| c.lanes = 2).backend(BackendKind::Cycle)),
            ("stats-only", b().backend(BackendKind::Cpu).functional(false)),
            ("stats-only", b().backend(BackendKind::Cycle).functional(false)),
            ("queue_depth", b().queue_depth(0)),
            ("threads", b().threads(MAX_THREADS + 1)),
            ("threads", b().threads(100_000)),
            ("batch_workers", b().batch_workers(MAX_THREADS + 1)),
            ("batch_workers", b().batch_config(BatchConfig { workers: 100_000, ..BatchConfig::default() })),
        ];
        for (field, builder) in cases {
            let err = builder.build().unwrap_err();
            assert_eq!(err.code(), "config.invalid", "{field}: {err}");
            assert!(err.to_string().contains(field), "{field}: {err}");
        }

        // Defaults: model backend, functional, zero-skipping, one thread,
        // the process-wide kernel tier, the default batch knobs.
        let d = b().build().unwrap();
        assert_eq!(d.driver().backend, BackendKind::Model);
        assert!(d.driver().functional && d.driver().zero_skipping && !d.driver().filter_grouping);
        assert_eq!(d.driver().threads, 1);
        assert_eq!(d.kernel_tier(), zskip_nn::dispatch());
        assert_eq!(*d.batch_config(), BatchConfig::default());
        // What the rejections leave legal: units != lanes off the cycle
        // backend, stats-only on the model backend, the caps themselves,
        // `0` (auto) for both thread counts.
        assert!(with(|c| c.lanes = 2).backend(BackendKind::Cpu).build().is_ok());
        assert!(!b().functional(false).build().unwrap().driver().functional);
        let capped = b().threads(MAX_THREADS).batch_workers(MAX_THREADS).build().unwrap();
        assert_eq!((capped.driver().threads, capped.batch_config().workers), (MAX_THREADS, MAX_THREADS));
        assert!(b().threads(0).batch_workers(0).build().unwrap().driver().threads >= 1, "0 resolves to auto");

        // The instance override preserves the RAM budget, both ways.
        let four = b().instances(4).build().unwrap();
        assert_eq!((four.driver().config.instances, four.driver().config.bank_tiles), (4, 1024));
        let back = Session::builder(four.driver().config).instances(1).build().unwrap();
        assert_eq!(back.driver().config.bank_tiles, 4096);

        // Kernel tier: scalar pins exactly, an unsupported request clamps.
        assert_eq!(b().kernel(KernelTier::Scalar).build().unwrap().kernel_tier(), KernelTier::Scalar);
        assert!(b().kernel(KernelTier::Avx512).build().unwrap().kernel_tier().is_supported());
        let pinned = b().queue_depth(5).batch_workers(2).retry(RetryPolicy::none()).build().unwrap();
        assert_eq!(
            *pinned.batch_config(),
            BatchConfig { workers: 2, queue_depth: 5, retry: RetryPolicy::none(), ..BatchConfig::default() }
        );
    }

    #[test]
    fn session_infer_matches_the_batch_paths() {
        let qnet = tiny_qnet(8);
        let inputs = synthetic_inputs(4, 3, qnet.spec.input);
        let session = Session::builder(config()).backend(BackendKind::Model).build().unwrap();
        let direct: Vec<_> = inputs.iter().map(|i| session.infer(&qnet, i).expect("runs")).collect();
        let batch = session.run_batch(&qnet, &inputs).expect("runs");
        let resilient = session.run_batch_resilient(&qnet, &inputs);
        for ((b, r), want) in batch.items.iter().zip(&resilient.items).zip(&direct) {
            assert_eq!(b.output, want.output);
            assert_eq!(r.result.as_ref().expect("succeeds").output, want.output);
        }
    }
}
