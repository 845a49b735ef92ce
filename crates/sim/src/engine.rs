//! The cycle-stepped simulation engine.
//!
//! Two schedulers share one set of semantics (see `docs/SIMULATOR.md`):
//!
//! * the **dense stepper** ([`SchedMode::Dense`]) ticks every kernel every
//!   cycle — simple, obviously correct, kept as the oracle;
//! * the **event-driven scheduler** ([`SchedMode::EventDriven`]) parks
//!   kernels that are blocked on FIFO state on those FIFOs' wait lists and
//!   only re-enqueues them on an occupancy edge (a pop freeing room, a
//!   staged push committing, an injected stall expiring) or a
//!   [`Horizon::Sleep`] timer, so per-cycle work collapses to
//!   O(runnable kernels) and whole quiescent stretches are jumped over.
//!
//! Both produce bit-identical [`RunReport`]s, traces, deadlock attribution
//! and fault behavior (property-tested); only [`SchedStats`] — which
//! records *how* the run was computed — differs.

use crate::fifo::{Fifo, FifoId, PushError, StallPort};
use crate::stats::{CounterId, Counters, KernelStats, SchedStats};
use crate::trace::Trace;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use zskip_fault::{FaultKind, SharedFaultPlan};

/// What a kernel accomplished in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// Performed work this cycle.
    Busy,
    /// Wanted to work but a FIFO was full/empty.
    Blocked,
    /// Nothing to do this cycle.
    Idle,
    /// Finished all work; will not be ticked again.
    Done,
}

/// How far ahead a kernel's behavior is predictable while its inputs are
/// unchanged. Drives parking under the event-driven scheduler: only
/// non-[`Opaque`] kernels may be parked, because their contract
/// guarantees the skipped ticks would have been pure no-ops.
///
/// [`Opaque`]: Horizon::Opaque
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Horizon {
    /// The engine cannot predict this kernel: tick it every cycle. The
    /// default — always safe.
    Opaque,
    /// The kernel only reacts to FIFO state: while its FIFOs are
    /// unchanged, its tick returns the same [`Progress`], mutates no
    /// kernel state, touches no [`Ctx::counters`].
    Reactive,
    /// As [`Reactive`](Horizon::Reactive) until the given absolute cycle,
    /// at which point the kernel may act on its own (e.g. a modeled
    /// host-polling interval or DMA completion latency).
    Sleep(u64),
}

/// A streaming hardware kernel (one synthesized Pthread).
///
/// `M` is the message type carried by the design's FIFOs; a design defines
/// one enum covering all its queue payloads, mirroring how each hardware
/// FIFO has a fixed bit-level payload format.
pub trait Kernel<M> {
    /// Display name for reports.
    fn name(&self) -> &str;

    /// Advances the kernel by one clock cycle.
    fn tick(&mut self, ctx: &mut Ctx<'_, M>) -> Progress;

    /// Declares how far the kernel is predictable during quiescence.
    /// Defaults to [`Horizon::Opaque`] (never parked).
    fn horizon(&self) -> Horizon {
        Horizon::Opaque
    }
}

/// Receives per-cycle progress events. Monomorphized into the run loop so
/// the untraced configuration ([`NullObserver`]) compiles to straight-line
/// code with no per-tick branch on an `Option<Trace>`.
pub trait Observer {
    /// One kernel's progress for one cycle.
    fn record(&mut self, kernel: usize, cycle: u64, progress: Progress);
    /// One kernel's progress for `n` consecutive cycles starting at
    /// `cycle` (parked stretches and trailing done cycles).
    fn record_span(&mut self, kernel: usize, cycle: u64, n: u64, progress: Progress);
}

/// Observer for untraced runs: every hook is an empty inline body.
pub struct NullObserver;

impl Observer for NullObserver {
    #[inline(always)]
    fn record(&mut self, _kernel: usize, _cycle: u64, _progress: Progress) {}
    #[inline(always)]
    fn record_span(&mut self, _kernel: usize, _cycle: u64, _n: u64, _progress: Progress) {}
}

/// Observer that records into a waveform [`Trace`].
pub struct TraceObserver<'a> {
    /// The trace being written.
    pub trace: &'a mut Trace,
}

impl Observer for TraceObserver<'_> {
    #[inline]
    fn record(&mut self, kernel: usize, cycle: u64, progress: Progress) {
        self.trace.record(kernel, cycle, progress);
    }
    #[inline]
    fn record_span(&mut self, kernel: usize, cycle: u64, n: u64, progress: Progress) {
        self.trace.record_span(kernel, cycle, n, progress);
    }
}

/// Per-tick / per-cycle FIFO access tracking, reused across cycles.
///
/// The event scheduler needs three things from a tick: the *watch set*
/// (every FIFO the kernel looked at — a parked kernel must wake when any
/// of them changes), the *success set* (FIFOs whose occupancy edge must
/// wake waiters), and the *touched set* (FIFOs needing an
/// [`Fifo::end_cycle`] commit this cycle). The success and touched sets
/// are stamp-deduped index lists (they are consumed every tick / cycle);
/// the watch set is stamps only — it is read at most once per tick, at
/// park time, which is rare enough that a scan over all FIFO stamps beats
/// maintaining a list on the hot path.
#[derive(Debug, Default)]
struct FifoScratch {
    /// Current tick stamp (bumped per kernel tick).
    tick: u64,
    /// Current cycle stamp (bumped per executed cycle).
    cstamp: u64,
    /// Tick stamp of each FIFO's last access (read or port op).
    accessed_stamp: Vec<u64>,
    /// FIFOs with a successful push/pop in the current tick.
    succeeded: Vec<u32>,
    succeeded_stamp: Vec<u64>,
    /// FIFOs with a port-op attempt this cycle (need `end_cycle`).
    touched: Vec<u32>,
    touched_stamp: Vec<u64>,
    /// Whether the current tick accessed any FIFO at all.
    any_access: bool,
    /// Whether the current tick performed any successful push/pop.
    any_success: bool,
    /// Whether any tick this cycle performed a successful push/pop.
    cycle_any_success: bool,
    /// Cycle stamp of the last successful push/pop per FIFO. The event
    /// scheduler refuses to park a kernel whose watch set includes a FIFO
    /// stamped this cycle: the success's waiter pass may already have run,
    /// so the park would miss its `t + 1` wake. The refused kernel stays
    /// runnable and re-ticks next cycle — exactly the wake it would have
    /// received.
    succ_cycle_stamp: Vec<u64>,
    /// Tick stamp of the last failed (Full / empty) push and pop per FIFO,
    /// for recording *why* a kernel parked.
    push_fail_stamp: Vec<u64>,
    pop_fail_stamp: Vec<u64>,
    /// Absolute cycle of the last actually-executed failed push/pop per
    /// FIFO, for deadlock snapshots (`u64::MAX` = never).
    push_fail_cycle: Vec<u64>,
    pop_fail_cycle: Vec<u64>,
}

impl FifoScratch {
    fn ensure(&mut self, nfifos: usize) {
        self.accessed_stamp.resize(nfifos, 0);
        self.succeeded_stamp.resize(nfifos, 0);
        self.succ_cycle_stamp.resize(nfifos, 0);
        self.touched_stamp.resize(nfifos, 0);
        self.push_fail_stamp.resize(nfifos, 0);
        self.pop_fail_stamp.resize(nfifos, 0);
        self.push_fail_cycle.resize(nfifos, u64::MAX);
        self.pop_fail_cycle.resize(nfifos, u64::MAX);
        if self.tick == 0 {
            self.tick = 1;
            self.cstamp = 1;
        }
    }

    #[inline]
    fn begin_cycle(&mut self) {
        self.cstamp += 1;
        self.touched.clear();
        self.cycle_any_success = false;
    }

    #[inline]
    fn begin_tick(&mut self) {
        self.tick += 1;
        self.succeeded.clear();
        self.any_access = false;
        self.any_success = false;
    }

    #[inline]
    fn mark_access(&mut self, f: usize) {
        self.any_access = true;
        self.accessed_stamp[f] = self.tick;
    }

    #[inline]
    fn mark_touched(&mut self, f: usize) {
        if self.touched_stamp[f] != self.cstamp {
            self.touched_stamp[f] = self.cstamp;
            self.touched.push(f as u32);
        }
    }

    #[inline]
    fn mark_success(&mut self, f: usize) {
        self.any_success = true;
        self.cycle_any_success = true;
        self.succ_cycle_stamp[f] = self.cstamp;
        if self.succeeded_stamp[f] != self.tick {
            self.succeeded_stamp[f] = self.tick;
            self.succeeded.push(f as u32);
        }
    }
}

/// Access to the design's FIFOs during a tick, with port-semantics
/// enforcement delegated to each [`Fifo`]. Every access — reads included —
/// is recorded in the engine's watch set so the event scheduler knows
/// which FIFOs a parked kernel depends on.
pub struct FifoSet<'a, M> {
    fifos: &'a mut [Fifo<M>],
    cycle: u64,
    scratch: &'a mut FifoScratch,
}

impl<'a, M> FifoSet<'a, M> {
    /// Attempts to push onto FIFO `id` this cycle.
    ///
    /// # Errors
    /// Propagates the FIFO's [`PushError`].
    pub fn try_push(&mut self, id: FifoId, value: M) -> Result<(), PushError> {
        let i = id.0;
        self.scratch.mark_access(i);
        self.scratch.mark_touched(i);
        let f = &mut self.fifos[i];
        f.sync(self.cycle);
        match f.try_push(value) {
            Ok(()) => {
                self.scratch.mark_success(i);
                Ok(())
            }
            Err(PushError::Full) => {
                self.scratch.push_fail_stamp[i] = self.scratch.tick;
                self.scratch.push_fail_cycle[i] = self.cycle;
                Err(PushError::Full)
            }
            Err(e) => Err(e),
        }
    }

    /// Attempts to pop from FIFO `id` this cycle.
    pub fn try_pop(&mut self, id: FifoId) -> Option<M> {
        let i = id.0;
        self.scratch.mark_access(i);
        self.scratch.mark_touched(i);
        let f = &mut self.fifos[i];
        f.sync(self.cycle);
        let port_was_used = f.pop_port_used();
        match f.try_pop() {
            Some(v) => {
                self.scratch.mark_success(i);
                Some(v)
            }
            None => {
                // A port conflict is not a stall: the earlier pop this
                // cycle already counts as the FIFO's activity.
                if !port_was_used {
                    self.scratch.pop_fail_stamp[i] = self.scratch.tick;
                    self.scratch.pop_fail_cycle[i] = self.cycle;
                }
                None
            }
        }
    }

    /// Peeks at FIFO `id` without consuming.
    pub fn peek(&mut self, id: FifoId) -> Option<&M> {
        self.scratch.mark_access(id.0);
        self.fifos[id.0].peek()
    }

    /// Number of poppable elements in FIFO `id`.
    pub fn len(&mut self, id: FifoId) -> usize {
        self.scratch.mark_access(id.0);
        self.fifos[id.0].len()
    }

    /// Whether FIFO `id` has no poppable elements.
    #[allow(clippy::wrong_self_convention)] // reads join the watch set
    pub fn is_empty(&mut self, id: FifoId) -> bool {
        self.scratch.mark_access(id.0);
        self.fifos[id.0].is_empty()
    }

    /// Whether FIFO `id` has room for a push this cycle.
    pub fn has_room(&mut self, id: FifoId) -> bool {
        self.scratch.mark_access(id.0);
        self.fifos[id.0].occupancy() < self.fifos[id.0].capacity()
    }
}

/// Per-tick context handed to kernels.
pub struct Ctx<'a, M> {
    /// Current cycle number.
    pub cycle: u64,
    /// The design's FIFOs.
    pub fifos: FifoSet<'a, M>,
    /// Shared activity counters (MACs, bank reads, ...) for the power model.
    pub counters: &'a mut Counters,
}

/// Which scheduler [`Engine::run`] uses. Both produce bit-identical
/// results; see the module docs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedMode {
    /// Tick every kernel every cycle (the oracle). The default.
    #[default]
    Dense,
    /// Park blocked kernels on FIFO wait lists; only tick the runnable
    /// set; jump over cycles where nothing is runnable.
    EventDriven,
}

/// The simulation engine: owns kernels and FIFOs, steps cycles.
pub struct Engine<M> {
    fifos: Vec<Fifo<M>>,
    kernels: Vec<KernelSlot<M>>,
    counters: Counters,
    cycle: u64,
    deadlock_window: u64,
    trace: Option<Trace>,
    fault_plan: Option<SharedFaultPlan>,
    /// `fifo:` injections resolved to indices at run start, pending
    /// application at their trigger cycle.
    armed: Vec<ArmedStall>,
    sched_mode: SchedMode,
    sched: SchedStats,
    scratch: FifoScratch,
    park_hysteresis: u32,
}

/// Default consecutive-quiescent-tick threshold before a
/// [`Horizon::Reactive`] kernel is parked. A park plus its wake costs more
/// than re-running a handful of pure FIFO probes, so kernels blocked in a
/// short rhythm (e.g. a consumer waiting out a multi-cycle producer loop)
/// are cheaper to keep ticking; only stretches that outlast this threshold
/// are worth the wait-list round trip. Sleep-horizon parks bypass the
/// threshold — their wake cycle is exact, so they never thrash.
pub const DEFAULT_PARK_HYSTERESIS: u32 = 8;

/// A resolved `fifo:<name>:push|pop` injection awaiting its trigger cycle.
#[derive(Clone)]
struct ArmedStall {
    site: String,
    at: u64,
    fifo: usize,
    port: StallPort,
    cycles: u64,
}

struct KernelSlot<M> {
    kernel: Box<dyn Kernel<M>>,
    stats: KernelStats,
    done: bool,
    /// Progress of the most recent tick, replayed over skipped cycles.
    last: Progress,
}

/// Outcome of a completed run.
///
/// Equality ignores [`sched`](RunReport::sched): scheduler statistics
/// describe how the run was computed, and two bit-identical simulations
/// (dense vs. event-driven) legitimately differ there.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Per-kernel statistics, in registration order, `(name, stats)`.
    pub kernels: Vec<(String, KernelStats)>,
    /// Aggregated activity counters.
    pub counters: Counters,
    /// Scheduler accounting (all zero under the dense stepper).
    pub sched: SchedStats,
}

impl PartialEq for RunReport {
    fn eq(&self, other: &Self) -> bool {
        self.cycles == other.cycles
            && self.kernels == other.kernels
            && self.counters == other.counters
    }
}

impl Eq for RunReport {}

impl RunReport {
    /// Stats for the kernel with the given name, if present.
    pub fn kernel(&self, name: &str) -> Option<&KernelStats> {
        self.kernels.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Renders a per-kernel utilization table (busy/blocked/idle shares of
    /// pre-completion cycles), sorted as registered.
    pub fn render_utilization(&self) -> String {
        let name_w = self.kernels.iter().map(|(n, _)| n.len()).max().unwrap_or(6).max(6);
        let mut out = format!("{:<name_w$} {:>7} {:>9} {:>7} {:>7}\n", "kernel", "busy%", "blocked%", "idle%", "cycles");
        for (name, s) in &self.kernels {
            let alive = (s.busy + s.blocked + s.idle).max(1) as f64;
            out.push_str(&format!(
                "{:<name_w$} {:>6.1}% {:>8.1}% {:>6.1}% {:>7}\n",
                name,
                s.busy as f64 / alive * 100.0,
                s.blocked as f64 / alive * 100.0,
                s.idle as f64 / alive * 100.0,
                s.total(),
            ));
        }
        out
    }
}

/// State of one FIFO at the moment a deadlock was declared, captured so
/// the error can name *which* queue wedged the design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FifoSnapshot {
    /// FIFO display name.
    pub name: String,
    /// Occupancy (stored + staged elements) at deadlock time.
    pub occupancy: usize,
    /// Configured capacity.
    pub capacity: usize,
    /// Whether an injected fault stall was still pinning a port.
    pub stalled: bool,
    /// Whether a producer failed a push in the last executed cycle.
    pub push_waiting: bool,
    /// Whether a consumer failed a pop in the last executed cycle.
    pub pop_waiting: bool,
}

impl fmt::Display for FifoSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}/{} occupied", self.name, self.occupancy, self.capacity)?;
        if self.stalled {
            write!(f, ", fault-stalled")?;
        }
        if self.push_waiting {
            write!(f, ", producer waiting")?;
        }
        if self.pop_waiting {
            write!(f, ", consumer waiting")?;
        }
        write!(f, ")")
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No kernel made progress and no FIFO moved data for the deadlock
    /// window; lists kernels still blocked.
    Deadlock {
        /// Cycle at which the deadlock was declared.
        cycle: u64,
        /// Names of kernels blocked on FIFOs.
        blocked: Vec<String>,
        /// Per-FIFO occupancy snapshot at declaration time; see
        /// [`SimError::wedged`] for the prime suspect.
        fifos: Vec<FifoSnapshot>,
    },
    /// The cycle limit elapsed before all kernels finished.
    CycleLimit {
        /// The limit that was hit.
        limit: u64,
        /// Names of kernels not yet done.
        unfinished: Vec<String>,
    },
}

impl SimError {
    /// For a deadlock, the FIFO most likely responsible for the wedge:
    /// an injected stall with a waiting peer beats any other stalled FIFO,
    /// then a full FIFO whose producer is waiting (back-pressure source),
    /// then an empty FIFO whose consumer is waiting (starvation point),
    /// then any FIFO with a waiting peer.
    pub fn wedged(&self) -> Option<&FifoSnapshot> {
        let SimError::Deadlock { fifos, .. } = self else {
            return None;
        };
        fifos
            .iter()
            .find(|s| s.stalled && (s.push_waiting || s.pop_waiting))
            .or_else(|| fifos.iter().find(|s| s.stalled))
            .or_else(|| fifos.iter().find(|s| s.push_waiting && s.occupancy == s.capacity))
            .or_else(|| fifos.iter().find(|s| s.pop_waiting && s.occupancy == 0))
            .or_else(|| fifos.iter().find(|s| s.push_waiting || s.pop_waiting))
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { cycle, blocked, .. } => {
                write!(f, "deadlock at cycle {cycle}; blocked kernels: {}", blocked.join(", "))?;
                if let Some(w) = self.wedged() {
                    write!(f, "; wedged fifo: {w}")?;
                }
                Ok(())
            }
            SimError::CycleLimit { limit, unfinished } => {
                write!(f, "cycle limit {limit} reached; unfinished kernels: {}", unfinished.join(", "))
            }
        }
    }
}

impl std::error::Error for SimError {}

impl<M> Default for Engine<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// Validated construction parameters for an [`Engine`]. Obtained via
/// [`Engine::builder`]; [`build`](EngineBuilder::build) checks the
/// configuration instead of panicking or silently clamping.
#[derive(Debug, Default)]
pub struct EngineBuilder {
    trace_capacity: Option<usize>,
    deadlock_window: Option<u64>,
    fault_plan: Option<SharedFaultPlan>,
    scheduler: SchedMode,
    park_hysteresis: Option<u32>,
}

/// Invalid engine configuration reported by [`EngineBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A trace window of zero cycles records nothing.
    ZeroTraceCapacity,
    /// A zero-cycle deadlock window would flag every idle cycle.
    ZeroDeadlockWindow,
    /// A zero park threshold would park kernels that never even ticked.
    ZeroParkHysteresis,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroTraceCapacity => write!(f, "trace capacity must be at least 1 cycle"),
            ConfigError::ZeroDeadlockWindow => {
                write!(f, "deadlock window must be at least 1 cycle")
            }
            ConfigError::ZeroParkHysteresis => {
                write!(f, "park hysteresis must be at least 1 quiescent tick")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl EngineBuilder {
    /// Starts from the defaults (`Engine::new()` semantics: no trace,
    /// dense scheduler, 10 000-cycle deadlock window, no fault plan).
    pub fn new() -> Self {
        EngineBuilder::default()
    }

    /// Records a waveform trace with a window of `capacity` cycles.
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Selects the scheduler (dense oracle vs. event-driven).
    pub fn scheduler(mut self, mode: SchedMode) -> Self {
        self.scheduler = mode;
        self
    }

    /// Sets the deadlock-detection window: cycles of global inactivity
    /// before declaring deadlock (default 10 000).
    pub fn deadlock_window(mut self, cycles: u64) -> Self {
        self.deadlock_window = Some(cycles);
        self
    }

    /// Attaches a fault plan; its `fifo:` injections are armed when
    /// [`Engine::run`] starts.
    pub fn fault_plan(mut self, plan: SharedFaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the park hysteresis: the number of consecutive quiescent
    /// ticks a [`Horizon::Reactive`] kernel must accumulate before the
    /// event scheduler parks it. `1` parks on the first blocked tick
    /// (maximum parking, maximum wait-list churn); the default
    /// [`DEFAULT_PARK_HYSTERESIS`] keeps short blocking rhythms live.
    /// Purely a scheduling-cost knob — results are bit-identical for
    /// every value.
    pub fn park_hysteresis(mut self, ticks: u32) -> Self {
        self.park_hysteresis = Some(ticks);
        self
    }

    /// Validates the configuration and builds an empty engine.
    ///
    /// # Errors
    /// [`ConfigError`] when the trace capacity or deadlock window is zero.
    pub fn build<M>(self) -> Result<Engine<M>, ConfigError> {
        if self.trace_capacity == Some(0) {
            return Err(ConfigError::ZeroTraceCapacity);
        }
        if self.deadlock_window == Some(0) {
            return Err(ConfigError::ZeroDeadlockWindow);
        }
        if self.park_hysteresis == Some(0) {
            return Err(ConfigError::ZeroParkHysteresis);
        }
        let mut engine = Engine::new();
        if let Some(capacity) = self.trace_capacity {
            engine.trace = Some(Trace::new(capacity));
        }
        if let Some(window) = self.deadlock_window {
            engine.deadlock_window = window;
        }
        engine.fault_plan = self.fault_plan;
        engine.sched_mode = self.scheduler;
        if let Some(ticks) = self.park_hysteresis {
            engine.park_hysteresis = ticks;
        }
        Ok(engine)
    }
}

/// Per-run state of the event-driven scheduler.
struct EvState {
    /// Bitset of kernels to tick this cycle.
    runnable: Vec<u64>,
    parked: Vec<bool>,
    /// Cycle of a parked kernel's last executed tick.
    parked_at: Vec<u64>,
    /// Consecutive quiescent (blocked/idle, no transfer) ticks per kernel,
    /// reset on any productive tick. A Reactive kernel parks only once
    /// this reaches the engine's park hysteresis — and is deliberately
    /// *not* reset by a park or wake, so a spuriously woken kernel that
    /// quiesces again re-parks on its first tick instead of re-earning
    /// the threshold.
    streak: Vec<u32>,
    /// Bumped on every park *and* wake, invalidating stale wait-list and
    /// sleep-heap entries (lazy deletion).
    epoch: Vec<u64>,
    /// Cycle at which each kernel returned [`Progress::Done`].
    done_at: Vec<u64>,
    /// Per-FIFO wait lists of parked kernels.
    waiters: Vec<Vec<Waiter>>,
    /// Min-heap of pending `Horizon::Sleep` wake-ups `(cycle, kernel, epoch)`.
    sleep: BinaryHeap<Reverse<(u64, u32, u64)>>,
    /// Min-heap of injected-stall expiries `(cycle, fifo)`.
    expiry: BinaryHeap<Reverse<(u64, u32)>>,
    /// FIFOs with at least one successful transfer this cycle.
    succ_cycle: Vec<u32>,
    succ_stamp: Vec<u64>,
    cstamp: u64,
}

/// One wait-list entry: which kernel is parked, under which epoch, and
/// which port operations failed in its parking tick (for deadlock
/// snapshots — a parked producer keeps "virtually" failing its push every
/// cycle, exactly as it would under the dense stepper).
#[derive(Debug, Clone, Copy)]
struct Waiter {
    kernel: u32,
    epoch: u64,
    push_fail: bool,
    pop_fail: bool,
}

impl EvState {
    fn new(nkernels: usize, nfifos: usize) -> EvState {
        EvState {
            runnable: vec![0u64; nkernels.div_ceil(64).max(1)],
            parked: vec![false; nkernels],
            parked_at: vec![0; nkernels],
            streak: vec![0; nkernels],
            epoch: vec![0; nkernels],
            done_at: vec![0; nkernels],
            waiters: (0..nfifos).map(|_| Vec::new()).collect(),
            sleep: BinaryHeap::new(),
            expiry: BinaryHeap::new(),
            succ_cycle: Vec::new(),
            succ_stamp: vec![0; nfifos],
            cstamp: 1,
        }
    }

    #[inline]
    fn mark_cycle_success(&mut self, f: usize) {
        if self.succ_stamp[f] != self.cstamp {
            self.succ_stamp[f] = self.cstamp;
            self.succ_cycle.push(f as u32);
        }
    }

    #[inline]
    fn waiter_valid(&self, w: Waiter) -> bool {
        let k = w.kernel as usize;
        self.parked[k] && self.epoch[k] == w.epoch
    }
}

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1u64 << (i % 64);
}

#[inline]
fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1u64 << (i % 64));
}

#[inline]
fn popcount(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// First set bit at index `from` or later, scanning word-wise.
#[inline]
fn next_set_bit(words: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    if w >= words.len() {
        return None;
    }
    let mut cur = words[w] & (!0u64 << (from % 64));
    loop {
        if cur != 0 {
            return Some(w * 64 + cur.trailing_zeros() as usize);
        }
        w += 1;
        if w >= words.len() {
            return None;
        }
        cur = words[w];
    }
}

impl<M> Engine<M> {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Engine {
            fifos: Vec::new(),
            kernels: Vec::new(),
            counters: Counters::new(),
            cycle: 0,
            deadlock_window: 10_000,
            trace: None,
            fault_plan: None,
            armed: Vec::new(),
            sched_mode: SchedMode::Dense,
            sched: SchedStats::default(),
            park_hysteresis: DEFAULT_PARK_HYSTERESIS,
            scratch: FifoScratch::default(),
        }
    }

    /// Starts a validated builder — the one way to configure an engine
    /// (trace, scheduler, deadlock window, fault plan, park hysteresis).
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Scheduler accounting for the most recent runs (all zero under the
    /// dense stepper).
    pub fn sched_stats(&self) -> SchedStats {
        self.sched
    }

    /// Interns a counter name for string-free hot-path updates via
    /// [`Counters::add_id`]. Kernels should intern at construction time.
    pub fn intern_counter(&mut self, name: &'static str) -> CounterId {
        self.counters.intern(name)
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Registers a FIFO, returning its handle.
    pub fn add_fifo(&mut self, fifo: Fifo<M>) -> FifoId {
        self.fifos.push(fifo);
        FifoId(self.fifos.len() - 1)
    }

    /// Registers a kernel. Kernels tick in registration order within a
    /// cycle; combined with registered-FIFO semantics, results do not
    /// depend on that order across cycles.
    pub fn add_kernel(&mut self, kernel: Box<dyn Kernel<M>>) {
        if let Some(t) = &mut self.trace {
            t.add_kernel(kernel.name());
        }
        self.kernels.push(KernelSlot { kernel, stats: KernelStats::default(), done: false, last: Progress::Idle });
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Immutable access to a FIFO (for wiring assertions in tests).
    pub fn fifo(&self, id: FifoId) -> &Fifo<M> {
        &self.fifos[id.0]
    }

    /// Runs until every kernel reports [`Progress::Done`].
    ///
    /// # Errors
    /// [`SimError::Deadlock`] when nothing moves for the deadlock window;
    /// [`SimError::CycleLimit`] when `max_cycles` elapses first.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunReport, SimError> {
        self.arm_fifo_faults();
        self.scratch.ensure(self.fifos.len());
        // The trace is moved out so the observer can borrow it while the
        // run loop borrows the engine; monomorphizing over the observer
        // compiles the untraced hot path with zero tracing overhead.
        let mut trace = self.trace.take();
        let result = match (&mut trace, self.sched_mode) {
            (Some(t), SchedMode::Dense) => self.run_dense(&mut TraceObserver { trace: t }, max_cycles),
            (None, SchedMode::Dense) => self.run_dense(&mut NullObserver, max_cycles),
            (Some(t), SchedMode::EventDriven) => self.run_event(&mut TraceObserver { trace: t }, max_cycles),
            (None, SchedMode::EventDriven) => self.run_event(&mut NullObserver, max_cycles),
        };
        self.trace = trace;
        result
    }

    /// The dense oracle: ticks every kernel every cycle.
    fn run_dense<O: Observer>(&mut self, obs: &mut O, max_cycles: u64) -> Result<RunReport, SimError> {
        let mut last_activity = self.cycle;
        while self.kernels.iter().any(|k| !k.done) {
            if self.cycle >= max_cycles {
                return Err(SimError::CycleLimit { limit: max_cycles, unfinished: self.unfinished_names() });
            }
            self.apply_armed_faults(None);
            let any_busy = self.step_dense(obs);
            let fifo_activity = self.fifos.iter().any(Fifo::active_this_cycle);
            for f in self.fifos.iter_mut() {
                f.end_cycle();
            }
            self.cycle += 1;
            if any_busy || fifo_activity {
                last_activity = self.cycle;
            } else if self.cycle - last_activity > self.deadlock_window {
                return Err(SimError::Deadlock {
                    cycle: self.cycle,
                    blocked: self.unfinished_names(),
                    fifos: self.fifo_snapshots(),
                });
            }
        }
        Ok(self.report())
    }

    /// Ticks every unfinished kernel once. Returns whether any was busy.
    fn step_dense<O: Observer>(&mut self, obs: &mut O) -> bool {
        let mut any_busy = false;
        for (k, slot) in self.kernels.iter_mut().enumerate() {
            if slot.done {
                slot.stats.done += 1;
                obs.record(k, self.cycle, Progress::Done);
                continue;
            }
            let mut ctx = Ctx {
                cycle: self.cycle,
                fifos: FifoSet { fifos: &mut self.fifos, cycle: self.cycle, scratch: &mut self.scratch },
                counters: &mut self.counters,
            };
            let progress = slot.kernel.tick(&mut ctx);
            obs.record(k, self.cycle, progress);
            slot.last = progress;
            match progress {
                Progress::Busy => {
                    slot.stats.busy += 1;
                    any_busy = true;
                }
                Progress::Blocked => slot.stats.blocked += 1,
                Progress::Idle => slot.stats.idle += 1,
                Progress::Done => {
                    slot.done = true;
                    any_busy = true; // state change counts as progress
                }
            }
        }
        any_busy
    }

    /// The event-driven scheduler: parks blocked kernels, wakes them on
    /// FIFO occupancy edges, and jumps over cycles with nothing runnable.
    fn run_event<O: Observer>(&mut self, obs: &mut O, max_cycles: u64) -> Result<RunReport, SimError> {
        let nk = self.kernels.len();
        let mut ev = EvState::new(nk, self.fifos.len());
        let mut alive = 0usize;
        for (k, slot) in self.kernels.iter().enumerate() {
            if slot.done {
                // Pre-finished kernels accrue nothing more at finalize.
                ev.done_at[k] = self.cycle.saturating_sub(1);
            } else {
                alive += 1;
                set_bit(&mut ev.runnable, k);
            }
        }
        let mut last_activity = self.cycle;
        let mut to_wake: Vec<u32> = Vec::new();

        while alive > 0 {
            if self.cycle >= max_cycles {
                self.finalize_event(&ev, obs);
                return Err(SimError::CycleLimit { limit: max_cycles, unfinished: self.unfinished_names() });
            }
            // Sleep timers due this cycle.
            while let Some(&Reverse((c, k, ep))) = ev.sleep.peek() {
                if c > self.cycle {
                    break;
                }
                ev.sleep.pop();
                let k = k as usize;
                if ev.parked[k] && ev.epoch[k] == ep {
                    self.wake_kernel(&mut ev, obs, k, self.cycle);
                }
            }
            // Injected-stall expiries: the port starts accepting transfers
            // again, so everyone parked on the FIFO must re-run.
            while let Some(&Reverse((c, f))) = ev.expiry.peek() {
                if c > self.cycle {
                    break;
                }
                ev.expiry.pop();
                let f = f as usize;
                to_wake.clear();
                for w in &ev.waiters[f] {
                    if ev.waiter_valid(*w) {
                        to_wake.push(w.kernel);
                    }
                }
                ev.waiters[f].clear();
                for &q in &to_wake {
                    self.wake_kernel(&mut ev, obs, q as usize, self.cycle);
                }
            }
            self.apply_armed_faults(Some(&mut ev.expiry));
            // Nothing runnable: jump straight to the next event. The
            // target is provably > the current cycle (due timers and
            // expiries were just processed; the limit check above and the
            // deadlock invariant bound the rest).
            if popcount(&ev.runnable) == 0 {
                let deadlock_at = last_activity.saturating_add(self.deadlock_window).saturating_add(1);
                let mut target = deadlock_at.min(max_cycles);
                while let Some(&Reverse((c, k, ep))) = ev.sleep.peek() {
                    let ku = k as usize;
                    if ev.parked[ku] && ev.epoch[ku] == ep {
                        target = target.min(c);
                        break;
                    }
                    ev.sleep.pop();
                }
                if let Some(&Reverse((c, _))) = ev.expiry.peek() {
                    target = target.min(c);
                }
                if let Some(at) = self.armed.iter().map(|a| a.at).min() {
                    target = target.min(at);
                }
                debug_assert!(target > self.cycle);
                let n = target - self.cycle;
                self.cycle = target;
                self.sched.idle_jumped += n;
                if self.cycle - last_activity > self.deadlock_window {
                    self.finalize_event(&ev, obs);
                    let fifos = self.event_fifo_snapshots(&ev);
                    return Err(SimError::Deadlock { cycle: self.cycle, blocked: self.unfinished_names(), fifos });
                }
                continue;
            }

            // Execute cycle `t` for the runnable set.
            let t = self.cycle;
            self.sched.executed_cycles += 1;
            if (popcount(&ev.runnable) as usize) < nk {
                self.sched.lean_cycles += 1;
            }
            self.scratch.begin_cycle();
            ev.cstamp = self.scratch.cstamp;
            let mut any_busy = false;
            let mut scan = 0usize;
            // Live bitset scan: a kernel woken by an earlier kernel's pop
            // this cycle (index above the popper) is picked up in the same
            // pass, matching the dense in-cycle tick order.
            while let Some(p) = next_set_bit(&ev.runnable, scan) {
                scan = p + 1;
                self.scratch.begin_tick();
                let progress = {
                    let slot = &mut self.kernels[p];
                    let mut ctx = Ctx {
                        cycle: t,
                        fifos: FifoSet { fifos: &mut self.fifos, cycle: t, scratch: &mut self.scratch },
                        counters: &mut self.counters,
                    };
                    slot.kernel.tick(&mut ctx)
                };
                obs.record(p, t, progress);
                let slot = &mut self.kernels[p];
                slot.last = progress;
                match progress {
                    Progress::Busy => {
                        slot.stats.busy += 1;
                        any_busy = true;
                    }
                    Progress::Blocked => slot.stats.blocked += 1,
                    Progress::Idle => slot.stats.idle += 1,
                    Progress::Done => {
                        slot.done = true;
                        ev.done_at[p] = t;
                        alive -= 1;
                        clear_bit(&mut ev.runnable, p);
                        any_busy = true; // state change counts as progress
                    }
                }
                // Successful transfers: record the occupancy edge and wake
                // later-indexed waiters immediately — under dense order
                // they tick after `p` this very cycle and already see a
                // pop's freed slot. Earlier-indexed waiters (and staged
                // pushes, which commit at end of cycle) wake at `t + 1`.
                // FIFOs nobody waits on skip the whole pass: `park`
                // refuses any later same-cycle park on them (see
                // `succ_cycle_stamp`), so no wake can be owed.
                let mut i = 0;
                while i < self.scratch.succeeded.len() {
                    let f = self.scratch.succeeded[i] as usize;
                    i += 1;
                    if ev.waiters[f].is_empty() {
                        continue;
                    }
                    ev.mark_cycle_success(f);
                    to_wake.clear();
                    {
                        let mut j = 0;
                        while j < ev.waiters[f].len() {
                            let w = ev.waiters[f][j];
                            if !ev.waiter_valid(w) {
                                ev.waiters[f].swap_remove(j);
                                continue;
                            }
                            if w.kernel as usize > p {
                                to_wake.push(w.kernel);
                                ev.waiters[f].swap_remove(j);
                                continue;
                            }
                            j += 1;
                        }
                    }
                    for &q in &to_wake {
                        self.wake_kernel(&mut ev, obs, q as usize, t);
                    }
                }
                // Park? Only when the tick was a pure failure (no state
                // mutated: nothing succeeded, progress is Blocked/Idle)
                // and the kernel's horizon guarantees the skipped re-runs
                // would be no-ops. An empty watch set with no timer means
                // nothing could ever wake it — keep it ticking (e.g.
                // barrier spinners between FIFO interactions). Reactive
                // kernels additionally wait out the park hysteresis:
                // short blocking rhythms are cheaper to re-poll than to
                // route through the wait lists. Sleep parks are exact
                // (the kernel names its wake cycle) and skip the wait.
                if !self.scratch.any_success && matches!(progress, Progress::Blocked | Progress::Idle) {
                    match self.kernels[p].kernel.horizon() {
                        Horizon::Opaque => {}
                        Horizon::Reactive => {
                            if self.scratch.any_access {
                                ev.streak[p] = ev.streak[p].saturating_add(1);
                                if ev.streak[p] >= self.park_hysteresis {
                                    self.park(&mut ev, p, t, None);
                                }
                            }
                        }
                        Horizon::Sleep(c) if c > t => self.park(&mut ev, p, t, Some(c)),
                        Horizon::Sleep(_) => {} // expired timer: stay live
                    }
                } else {
                    ev.streak[p] = 0;
                }
            }
            // Commit only the FIFOs that saw a port operation this cycle;
            // untouched FIFOs settle their statistics lazily via `sync`.
            {
                let mut i = 0;
                while i < self.scratch.touched.len() {
                    let f = self.scratch.touched[i] as usize;
                    i += 1;
                    self.fifos[f].end_cycle();
                }
            }
            let fifo_activity = self.scratch.cycle_any_success;
            self.cycle = t + 1;
            // Staged pushes just committed; remaining waiters of every
            // FIFO with a transfer this cycle re-run from the next cycle.
            {
                let mut i = 0;
                while i < ev.succ_cycle.len() {
                    let f = ev.succ_cycle[i] as usize;
                    i += 1;
                    to_wake.clear();
                    for w in &ev.waiters[f] {
                        if ev.waiter_valid(*w) {
                            to_wake.push(w.kernel);
                        }
                    }
                    ev.waiters[f].clear();
                    for &q in &to_wake {
                        self.wake_kernel(&mut ev, obs, q as usize, t + 1);
                    }
                }
                ev.succ_cycle.clear();
            }
            if any_busy || fifo_activity {
                last_activity = self.cycle;
            } else if self.cycle - last_activity > self.deadlock_window {
                self.finalize_event(&ev, obs);
                let fifos = self.event_fifo_snapshots(&ev);
                return Err(SimError::Deadlock { cycle: self.cycle, blocked: self.unfinished_names(), fifos });
            }
        }
        self.finalize_event(&ev, obs);
        Ok(self.report())
    }

    /// Parks kernel `p` after its tick at cycle `t`: it leaves the
    /// runnable set and joins the wait list of every FIFO it accessed
    /// (plus the sleep heap when a timer is pending).
    fn park(&mut self, ev: &mut EvState, p: usize, t: u64, timer: Option<u64>) {
        // The watch set is enumerated by scanning the per-FIFO access
        // stamps: parks are rare, so paying O(nfifos) here is cheaper than
        // keeping an index list current on every hot-path access.
        //
        // First pass — refuse when any watched FIFO already transferred
        // this cycle: the success's waiter pass ran before this kernel
        // parked (or was skipped because the FIFO had no waiters), so
        // parking now would miss the `t + 1` wake the dense order owes.
        // Staying runnable and re-ticking next cycle is that wake, minus
        // the park/wake churn.
        let tick = self.scratch.tick;
        for f in 0..self.scratch.accessed_stamp.len() {
            if self.scratch.accessed_stamp[f] == tick
                && self.scratch.succ_cycle_stamp[f] == self.scratch.cstamp
            {
                return;
            }
        }
        ev.parked[p] = true;
        ev.parked_at[p] = t;
        ev.epoch[p] += 1;
        let ep = ev.epoch[p];
        clear_bit(&mut ev.runnable, p);
        for f in 0..self.scratch.accessed_stamp.len() {
            if self.scratch.accessed_stamp[f] != tick {
                continue;
            }
            ev.waiters[f].push(Waiter {
                kernel: p as u32,
                epoch: ep,
                push_fail: self.scratch.push_fail_stamp[f] == tick,
                pop_fail: self.scratch.pop_fail_stamp[f] == tick,
            });
        }
        if let Some(c) = timer {
            ev.sleep.push(Reverse((c, p as u32, ep)));
        }
        self.sched.parks += 1;
    }

    /// Wakes kernel `q` so it ticks again at cycle `at`, replaying the
    /// parked stretch (its last [`Progress`], repeated — exactly what the
    /// dense stepper would have observed, by the [`Horizon::Reactive`]
    /// contract) into stats and trace.
    fn wake_kernel<O: Observer>(&mut self, ev: &mut EvState, obs: &mut O, q: usize, at: u64) {
        if !ev.parked[q] {
            return;
        }
        debug_assert!(at > ev.parked_at[q]);
        ev.parked[q] = false;
        ev.epoch[q] += 1;
        set_bit(&mut ev.runnable, q);
        let n = at - 1 - ev.parked_at[q];
        if n > 0 {
            let slot = &mut self.kernels[q];
            match slot.last {
                Progress::Blocked => slot.stats.blocked += n,
                Progress::Idle => slot.stats.idle += n,
                _ => debug_assert!(false, "parked kernels are Blocked or Idle"),
            }
            obs.record_span(q, ev.parked_at[q] + 1, n, slot.last);
        }
        self.sched.wakes += 1;
    }

    /// Settles everything the event scheduler deferred, up to (but not
    /// including) `self.cycle`: parked kernels' replayed stretches, done
    /// kernels' trailing `done` cycles, and untouched FIFOs' occupancy
    /// statistics. Runs on every exit path (success, deadlock, limit) so
    /// reports and traces always match the dense oracle.
    fn finalize_event<O: Observer>(&mut self, ev: &EvState, obs: &mut O) {
        let end = self.cycle;
        for (k, slot) in self.kernels.iter_mut().enumerate() {
            if slot.done {
                let n = end.saturating_sub(ev.done_at[k].saturating_add(1));
                if n > 0 {
                    slot.stats.done += n;
                    obs.record_span(k, ev.done_at[k] + 1, n, Progress::Done);
                }
            } else if ev.parked[k] {
                let n = end.saturating_sub(ev.parked_at[k].saturating_add(1));
                if n > 0 {
                    match slot.last {
                        Progress::Blocked => slot.stats.blocked += n,
                        Progress::Idle => slot.stats.idle += n,
                        _ => debug_assert!(false, "parked kernels are Blocked or Idle"),
                    }
                    obs.record_span(k, ev.parked_at[k] + 1, n, slot.last);
                }
            }
        }
        for f in self.fifos.iter_mut() {
            f.sync(end);
        }
    }

    /// Names of kernels not yet done, in registration order.
    fn unfinished_names(&self) -> Vec<String> {
        self.kernels.iter().filter(|k| !k.done).map(|k| k.kernel.name().to_string()).collect()
    }

    /// Captures every FIFO's state for a dense-mode deadlock report.
    fn fifo_snapshots(&self) -> Vec<FifoSnapshot> {
        self.fifos
            .iter()
            .map(|f| FifoSnapshot {
                name: f.name().to_string(),
                occupancy: f.occupancy(),
                capacity: f.capacity(),
                stalled: f.forced_stall_remaining() > 0,
                push_waiting: f.last_push_stalled(),
                pop_waiting: f.last_pop_stalled(),
            })
            .collect()
    }

    /// Event-mode deadlock snapshots. A waiting producer/consumer is one
    /// that failed a push/pop in the last executed cycle — either an
    /// actual attempt one cycle ago, or a parked kernel whose frozen tick
    /// keeps virtually re-failing (the dense stepper would re-run it every
    /// cycle with the same outcome).
    fn event_fifo_snapshots(&mut self, ev: &EvState) -> Vec<FifoSnapshot> {
        let cycle = self.cycle;
        let last_exec = cycle.wrapping_sub(1);
        let scratch = &self.scratch;
        let mut out = Vec::with_capacity(self.fifos.len());
        for (i, f) in self.fifos.iter_mut().enumerate() {
            f.sync(cycle);
            let mut push_waiting = scratch.push_fail_cycle[i] == last_exec;
            let mut pop_waiting = scratch.pop_fail_cycle[i] == last_exec;
            for w in &ev.waiters[i] {
                if ev.waiter_valid(*w) {
                    push_waiting |= w.push_fail;
                    pop_waiting |= w.pop_fail;
                }
            }
            out.push(FifoSnapshot {
                name: f.name().to_string(),
                occupancy: f.occupancy(),
                capacity: f.capacity(),
                stalled: f.forced_stall_remaining() > 0,
                push_waiting,
                pop_waiting,
            });
        }
        out
    }

    /// Pulls `fifo:<name>:push|pop` injections out of the fault plan and
    /// resolves the names against the registered FIFOs. Injections naming
    /// an unknown FIFO or carrying a non-stall kind are dropped (they show
    /// up as never-fired in the plan's log, which is what a campaign
    /// reports).
    fn arm_fifo_faults(&mut self) {
        let Some(plan) = &self.fault_plan else {
            return;
        };
        let drained = plan.lock().unwrap_or_else(|e| e.into_inner()).drain_prefix("fifo:");
        for inj in drained {
            let rest = &inj.site["fifo:".len()..];
            let (name, port) = match rest.rsplit_once(':') {
                Some((n, "push")) => (n, StallPort::Push),
                Some((n, "pop")) => (n, StallPort::Pop),
                _ => continue,
            };
            let FaultKind::FifoStall { cycles } = inj.kind else {
                continue;
            };
            if let Some(idx) = self.fifos.iter().position(|f| f.name() == name) {
                self.armed.push(ArmedStall { site: inj.site.clone(), at: inj.at, fifo: idx, port, cycles });
            }
        }
    }

    /// Applies every armed stall whose trigger cycle has arrived, logging
    /// it as fired in the shared plan. In event mode (`expiry` present)
    /// each finite stall also registers its expiry as a wake event.
    fn apply_armed_faults(&mut self, mut expiry: Option<&mut BinaryHeap<Reverse<(u64, u32)>>>) {
        if self.armed.is_empty() {
            return;
        }
        let cycle = self.cycle;
        let mut due = Vec::new();
        self.armed.retain(|a| {
            if a.at <= cycle {
                due.push(a.clone());
                false
            } else {
                true
            }
        });
        for a in due {
            let f = &mut self.fifos[a.fifo];
            f.sync(cycle);
            f.inject_stall(a.port, a.cycles);
            if a.cycles != u64::MAX {
                if let Some(heap) = expiry.as_deref_mut() {
                    heap.push(Reverse((cycle.saturating_add(a.cycles), a.fifo as u32)));
                }
            }
            if let Some(plan) = &self.fault_plan {
                plan.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .log_fired(a.site, cycle, FaultKind::FifoStall { cycles: a.cycles });
            }
        }
    }

    /// Builds the final report.
    fn report(&self) -> RunReport {
        RunReport {
            cycles: self.cycle,
            kernels: self
                .kernels
                .iter()
                .map(|k| (k.kernel.name().to_string(), k.stats))
                .collect(),
            counters: self.counters.clone(),
            sched: self.sched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Emits `count` values then finishes.
    struct Source {
        out: FifoId,
        next: u32,
        count: u32,
    }

    impl Kernel<u32> for Source {
        fn name(&self) -> &str {
            "source"
        }
        fn tick(&mut self, ctx: &mut Ctx<'_, u32>) -> Progress {
            if self.next == self.count {
                return Progress::Done;
            }
            match ctx.fifos.try_push(self.out, self.next) {
                Ok(()) => {
                    self.next += 1;
                    ctx.counters.add("emitted", 1);
                    Progress::Busy
                }
                Err(_) => Progress::Blocked,
            }
        }
    }

    /// Collects `count` values (checking order) then finishes.
    struct Sink {
        inp: FifoId,
        expect_next: u32,
        count: u32,
    }

    impl Kernel<u32> for Sink {
        fn name(&self) -> &str {
            "sink"
        }
        fn tick(&mut self, ctx: &mut Ctx<'_, u32>) -> Progress {
            if self.expect_next == self.count {
                return Progress::Done;
            }
            match ctx.fifos.try_pop(self.inp) {
                Some(v) => {
                    assert_eq!(v, self.expect_next, "values must arrive in order");
                    self.expect_next += 1;
                    Progress::Busy
                }
                None => Progress::Blocked,
            }
        }
    }

    /// Pass-through stage: pops from `inp`, pushes to `out` next cycle.
    struct Stage {
        inp: FifoId,
        out: FifoId,
        held: Option<u32>,
        forwarded: u32,
        count: u32,
    }

    impl Kernel<u32> for Stage {
        fn name(&self) -> &str {
            "stage"
        }
        fn tick(&mut self, ctx: &mut Ctx<'_, u32>) -> Progress {
            if self.forwarded == self.count && self.held.is_none() {
                return Progress::Done;
            }
            let mut progress = Progress::Idle;
            if let Some(v) = self.held {
                match ctx.fifos.try_push(self.out, v) {
                    Ok(()) => {
                        self.held = None;
                        self.forwarded += 1;
                        progress = Progress::Busy;
                    }
                    Err(_) => return Progress::Blocked,
                }
            }
            if self.held.is_none() && self.forwarded + u32::from(self.held.is_some()) < self.count {
                if let Some(v) = ctx.fifos.try_pop(self.inp) {
                    self.held = Some(v);
                    progress = Progress::Busy;
                }
            }
            if progress == Progress::Idle && self.held.is_none() {
                Progress::Blocked
            } else {
                progress
            }
        }
    }

    #[test]
    fn producer_consumer_transfers_all_values_in_order() {
        let mut e = Engine::new();
        let q = e.add_fifo(Fifo::new("q", 4));
        e.add_kernel(Box::new(Source { out: q, next: 0, count: 100 }));
        e.add_kernel(Box::new(Sink { inp: q, expect_next: 0, count: 100 }));
        let r = e.run(10_000).unwrap();
        assert_eq!(r.counters.get("emitted"), 100);
        // 1 cycle FIFO latency: sink finishes shortly after source.
        assert!(r.cycles >= 101 && r.cycles < 120, "cycles {}", r.cycles);
        assert!(r.kernel("source").unwrap().busy == 100);
    }

    #[test]
    fn three_stage_pipeline_reaches_steady_state() {
        let mut e = Engine::new();
        let q1 = e.add_fifo(Fifo::new("q1", 2));
        let q2 = e.add_fifo(Fifo::new("q2", 2));
        e.add_kernel(Box::new(Source { out: q1, next: 0, count: 50 }));
        e.add_kernel(Box::new(Stage { inp: q1, out: q2, held: None, forwarded: 0, count: 50 }));
        e.add_kernel(Box::new(Sink { inp: q2, expect_next: 0, count: 50 }));
        let r = e.run(10_000).unwrap();
        // Pipeline adds a few cycles of latency but sustains ~1 value/cycle.
        assert!(r.cycles < 80, "cycles {}", r.cycles);
    }

    #[test]
    fn backpressure_throttles_producer() {
        let mut e = Engine::new();
        let q = e.add_fifo(Fifo::new("q", 1));
        e.add_kernel(Box::new(Source { out: q, next: 0, count: 20 }));
        e.add_kernel(Box::new(SlowSink { inp: q, received: 0, count: 20, phase: 0 }));
        let r = e.run(10_000).unwrap();
        let source = r.kernel("source").unwrap();
        assert!(source.blocked > 0, "producer must have stalled");
        // Sink pops every 3rd cycle: run length ~3x value count.
        assert!(r.cycles >= 60, "cycles {}", r.cycles);
    }

    /// Pops only every third cycle. Mutates its phase on every tick, so it
    /// is *not* reactive and must keep the default Opaque horizon.
    struct SlowSink {
        inp: FifoId,
        received: u32,
        count: u32,
        phase: u8,
    }

    impl Kernel<u32> for SlowSink {
        fn name(&self) -> &str {
            "slow-sink"
        }
        fn tick(&mut self, ctx: &mut Ctx<'_, u32>) -> Progress {
            if self.received == self.count {
                return Progress::Done;
            }
            self.phase = (self.phase + 1) % 3;
            if self.phase != 0 {
                return Progress::Idle;
            }
            match ctx.fifos.try_pop(self.inp) {
                Some(_) => {
                    self.received += 1;
                    Progress::Busy
                }
                None => Progress::Blocked,
            }
        }
    }

    #[test]
    fn deadlock_is_detected() {
        // A sink waiting on a FIFO nobody feeds.
        let mut e = Engine::<u32>::builder().deadlock_window(50).build().unwrap();
        let q = e.add_fifo(Fifo::new("q", 1));
        e.add_kernel(Box::new(Sink { inp: q, expect_next: 0, count: 1 }));
        match e.run(100_000) {
            Err(SimError::Deadlock { blocked, .. }) => assert_eq!(blocked, vec!["sink".to_string()]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn cycle_limit_is_reported() {
        let mut e = Engine::new();
        let q = e.add_fifo(Fifo::new("q", 1));
        e.add_kernel(Box::new(Source { out: q, next: 0, count: 1000 }));
        e.add_kernel(Box::new(SlowSink { inp: q, received: 0, count: 1000, phase: 0 }));
        match e.run(10) {
            Err(SimError::CycleLimit { limit: 10, unfinished }) => {
                assert_eq!(unfinished.len(), 2);
            }
            other => panic!("expected cycle limit, got {other:?}"),
        }
    }

    /// Emits one value every `period` cycles (a modeled host-polling or
    /// DMA-latency interval), declaring a [`Horizon::Sleep`] so the
    /// engine can jump the gaps.
    struct SlowSource {
        out: FifoId,
        period: u64,
        next_emit: u64,
        emitted: u32,
        count: u32,
    }

    impl Kernel<u32> for SlowSource {
        fn name(&self) -> &str {
            "slow-source"
        }
        fn tick(&mut self, ctx: &mut Ctx<'_, u32>) -> Progress {
            if self.emitted == self.count {
                return Progress::Done;
            }
            if ctx.cycle < self.next_emit {
                return Progress::Idle;
            }
            match ctx.fifos.try_push(self.out, self.emitted) {
                Ok(()) => {
                    self.emitted += 1;
                    self.next_emit = ctx.cycle + self.period;
                    ctx.counters.add("emitted", 1);
                    Progress::Busy
                }
                Err(_) => Progress::Blocked,
            }
        }
        fn horizon(&self) -> Horizon {
            Horizon::Sleep(self.next_emit)
        }
    }

    /// A sink that is a pure function of its input FIFO.
    struct ReactiveSink {
        inp: FifoId,
        expect_next: u32,
        count: u32,
    }

    impl Kernel<u32> for ReactiveSink {
        fn name(&self) -> &str {
            "reactive-sink"
        }
        fn tick(&mut self, ctx: &mut Ctx<'_, u32>) -> Progress {
            if self.expect_next == self.count {
                return Progress::Done;
            }
            match ctx.fifos.try_pop(self.inp) {
                Some(v) => {
                    assert_eq!(v, self.expect_next);
                    self.expect_next += 1;
                    Progress::Busy
                }
                None => Progress::Blocked,
            }
        }
        fn horizon(&self) -> Horizon {
            Horizon::Reactive
        }
    }

    #[test]
    fn builder_validates_config() {
        let bad: Result<Engine<u32>, _> = Engine::<u32>::builder().trace(0).build();
        assert_eq!(bad.err(), Some(ConfigError::ZeroTraceCapacity));
        let bad: Result<Engine<u32>, _> = Engine::<u32>::builder().deadlock_window(0).build();
        assert_eq!(bad.err(), Some(ConfigError::ZeroDeadlockWindow));
        let ok: Result<Engine<u32>, _> =
            Engine::<u32>::builder().trace(16).deadlock_window(500).build();
        assert!(ok.is_ok());
    }

    #[test]
    fn injected_transient_stall_delays_but_completes() {
        use zskip_fault::{FaultKind, FaultPlan};
        let baseline = {
            let mut e = Engine::new();
            let q = e.add_fifo(Fifo::new("q", 4));
            e.add_kernel(Box::new(Source { out: q, next: 0, count: 100 }));
            e.add_kernel(Box::new(Sink { inp: q, expect_next: 0, count: 100 }));
            e.run(10_000).unwrap().cycles
        };
        let plan =
            FaultPlan::new().inject("fifo:q:push", 10, FaultKind::FifoStall { cycles: 50 }).shared();
        let mut e: Engine<u32> =
            Engine::<u32>::builder().fault_plan(plan.clone()).build().unwrap();
        let q = e.add_fifo(Fifo::new("q", 4));
        e.add_kernel(Box::new(Source { out: q, next: 0, count: 100 }));
        e.add_kernel(Box::new(Sink { inp: q, expect_next: 0, count: 100 }));
        let r = e.run(10_000).expect("transient stall must not be fatal");
        assert_eq!(r.counters.get("emitted"), 100, "all values still delivered");
        assert!(r.cycles >= baseline + 45, "stall visible: {} vs {baseline}", r.cycles);
        let p = plan.lock().unwrap();
        assert_eq!(p.fired().len(), 1, "injection must be logged as fired");
        assert_eq!(p.fired()[0].site, "fifo:q:push");
    }

    #[test]
    fn permanent_stall_deadlocks_and_names_wedged_fifo() {
        use zskip_fault::{FaultKind, FaultPlan};
        let plan = FaultPlan::new()
            .inject("fifo:q:pop", 5, FaultKind::FifoStall { cycles: u64::MAX })
            .shared();
        let mut e: Engine<u32> = Engine::<u32>::builder()
            .fault_plan(plan)
            .deadlock_window(100)
            .build()
            .unwrap();
        let q = e.add_fifo(Fifo::new("q", 4));
        e.add_kernel(Box::new(Source { out: q, next: 0, count: 100 }));
        e.add_kernel(Box::new(Sink { inp: q, expect_next: 0, count: 100 }));
        let err = e.run(100_000).unwrap_err();
        let wedged = err.wedged().expect("deadlock must name a fifo");
        assert_eq!(wedged.name, "q");
        assert!(wedged.stalled, "the injected stall is the suspect");
        assert!(err.to_string().contains("wedged fifo: q"), "{err}");
    }

    #[test]
    fn report_tracks_done_cycles() {
        let mut e = Engine::new();
        let q = e.add_fifo(Fifo::new("q", 8));
        e.add_kernel(Box::new(Source { out: q, next: 0, count: 5 }));
        e.add_kernel(Box::new(SlowSink { inp: q, received: 0, count: 5, phase: 0 }));
        let r = e.run(1_000).unwrap();
        let source = r.kernel("source").unwrap();
        assert!(source.done > 0, "source finishes before sink and accrues done cycles");
    }

    // ---- event-driven scheduler vs. dense oracle ----

    /// Delegating wrapper that upgrades a kernel's horizon to
    /// [`Horizon::Reactive`] — valid for the helpers above whose blocked
    /// and idle paths are pure FIFO reads (`SlowSink` is NOT one: it
    /// mutates its phase every tick and must stay Opaque).
    struct Reactivize<K>(K);

    impl<K: Kernel<u32>> Kernel<u32> for Reactivize<K> {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn tick(&mut self, ctx: &mut Ctx<'_, u32>) -> Progress {
            self.0.tick(ctx)
        }
        fn horizon(&self) -> Horizon {
            Horizon::Reactive
        }
    }

    #[test]
    fn event_matches_dense_on_pipeline() {
        let run = |mode: SchedMode| {
            // Startup stalls last only a few cycles: park on the first
            // quiescent tick so this test exercises the wait lists.
            let mut e = Engine::<u32>::builder().scheduler(mode).park_hysteresis(1).build().unwrap();
            let q1 = e.add_fifo(Fifo::new("q1", 2));
            let q2 = e.add_fifo(Fifo::new("q2", 2));
            e.add_kernel(Box::new(Reactivize(Source { out: q1, next: 0, count: 50 })));
            e.add_kernel(Box::new(Reactivize(Stage {
                inp: q1,
                out: q2,
                held: None,
                forwarded: 0,
                count: 50,
            })));
            e.add_kernel(Box::new(Reactivize(Sink { inp: q2, expect_next: 0, count: 50 })));
            let r = e.run(10_000).unwrap();
            (r, e.sched_stats())
        };
        let (a, dense_sched) = run(SchedMode::Dense);
        let (b, sched) = run(SchedMode::EventDriven);
        assert_eq!(a, b, "event-driven run must be bit-identical");
        assert_eq!(dense_sched.parks, 0, "dense stepper never parks");
        assert!(sched.parks > 0, "startup blocking must park: {sched:?}");
        assert_eq!(sched.executed_cycles + sched.idle_jumped, b.cycles);
    }

    #[test]
    fn event_matches_dense_under_backpressure() {
        let run = |mode: SchedMode| {
            // The sink pops every other cycle: the producer's stalls are
            // too short for the default hysteresis, so pin it to 1.
            let mut e = Engine::<u32>::builder().scheduler(mode).park_hysteresis(1).build().unwrap();
            let q = e.add_fifo(Fifo::new("q", 1));
            e.add_kernel(Box::new(Reactivize(Source { out: q, next: 0, count: 20 })));
            e.add_kernel(Box::new(SlowSink { inp: q, received: 0, count: 20, phase: 0 }));
            let r = e.run(10_000).unwrap();
            (r, e.sched_stats())
        };
        let (a, _) = run(SchedMode::Dense);
        let (b, sched) = run(SchedMode::EventDriven);
        assert_eq!(a, b);
        assert!(sched.parks > 0, "producer parks while the slow sink drains: {sched:?}");
        assert!(sched.wakes >= sched.parks, "every park eventually wakes (run completed)");
    }

    #[test]
    fn event_trace_matches_dense() {
        let build = |mode: SchedMode| {
            let mut e: Engine<u32> =
                Engine::<u32>::builder().trace(256).scheduler(mode).deadlock_window(100).build().unwrap();
            let q = e.add_fifo(Fifo::new("q", 2));
            e.add_kernel(Box::new(SlowSource { out: q, period: 13, next_emit: 0, emitted: 0, count: 4 }));
            e.add_kernel(Box::new(ReactiveSink { inp: q, expect_next: 0, count: 4 }));
            e.run(10_000).expect("completes");
            e.trace().expect("tracing on").render(80)
        };
        assert_eq!(build(SchedMode::Dense), build(SchedMode::EventDriven));
    }

    #[test]
    fn event_jumps_idle_stretches_and_matches_dense() {
        let run = |mode: SchedMode| {
            let mut e = Engine::<u32>::builder().scheduler(mode).deadlock_window(10_000).build().unwrap();
            let q = e.add_fifo(Fifo::new("q", 2));
            e.add_kernel(Box::new(SlowSource { out: q, period: 5_000, next_emit: 0, emitted: 0, count: 10 }));
            e.add_kernel(Box::new(ReactiveSink { inp: q, expect_next: 0, count: 10 }));
            let r = e.run(1_000_000).expect("completes");
            (r, e.sched_stats())
        };
        let (a, _) = run(SchedMode::Dense);
        let (b, sched) = run(SchedMode::EventDriven);
        assert_eq!(a, b);
        assert!(sched.idle_jumped > 40_000, "sleep gaps jumped: {sched:?}");
        assert_eq!(sched.executed_cycles + sched.idle_jumped, b.cycles);
    }

    #[test]
    fn event_preserves_deadlock_attribution() {
        let run = |mode: SchedMode| {
            let mut e = Engine::<u32>::builder().scheduler(mode).deadlock_window(5_000).build().unwrap();
            let q = e.add_fifo(Fifo::new("q", 1));
            e.add_kernel(Box::new(ReactiveSink { inp: q, expect_next: 0, count: 1 }));
            e.run(1_000_000)
        };
        let (a, b) = (run(SchedMode::Dense), run(SchedMode::EventDriven));
        assert!(matches!(a, Err(SimError::Deadlock { .. })));
        assert_eq!(a, b, "same deadlock cycle, blocked set and FIFO snapshots");
    }

    #[test]
    fn event_preserves_cycle_limit() {
        let run = |mode: SchedMode| {
            let mut e = Engine::<u32>::builder().scheduler(mode).deadlock_window(2_000_000).build().unwrap();
            let q = e.add_fifo(Fifo::new("q", 2));
            e.add_kernel(Box::new(SlowSource { out: q, period: 900_000, next_emit: 0, emitted: 0, count: 5 }));
            e.add_kernel(Box::new(ReactiveSink { inp: q, expect_next: 0, count: 5 }));
            e.run(100_000)
        };
        let (a, b) = (run(SchedMode::Dense), run(SchedMode::EventDriven));
        assert!(matches!(a, Err(SimError::CycleLimit { limit: 100_000, .. })));
        assert_eq!(a, b);
    }

    #[test]
    fn event_matches_dense_with_transient_stall() {
        use zskip_fault::{FaultKind, FaultPlan};
        let run = |mode: SchedMode| {
            let plan = FaultPlan::new()
                .inject("fifo:q:pop", 30, FaultKind::FifoStall { cycles: 50 })
                .shared();
            let mut e: Engine<u32> =
                Engine::<u32>::builder().scheduler(mode).fault_plan(plan).build().unwrap();
            let q = e.add_fifo(Fifo::new("q", 4));
            e.add_kernel(Box::new(Reactivize(Source { out: q, next: 0, count: 100 })));
            e.add_kernel(Box::new(Reactivize(Sink { inp: q, expect_next: 0, count: 100 })));
            e.run(10_000).expect("transient stall must not be fatal")
        };
        // The stall parks both ends; its expiry must wake them on the
        // exact cycle the dense stepper sees the port reopen.
        assert_eq!(run(SchedMode::Dense), run(SchedMode::EventDriven));
    }

    #[test]
    fn event_matches_dense_with_permanent_stall() {
        use zskip_fault::{FaultKind, FaultPlan};
        let run = |mode: SchedMode| {
            let plan = FaultPlan::new()
                .inject("fifo:q:pop", 5, FaultKind::FifoStall { cycles: u64::MAX })
                .shared();
            let mut e: Engine<u32> = Engine::<u32>::builder()
                .scheduler(mode)
                .fault_plan(plan)
                .deadlock_window(100)
                .build()
                .unwrap();
            let q = e.add_fifo(Fifo::new("q", 4));
            e.add_kernel(Box::new(Reactivize(Source { out: q, next: 0, count: 100 })));
            e.add_kernel(Box::new(Reactivize(Sink { inp: q, expect_next: 0, count: 100 })));
            e.run(100_000)
        };
        let (a, b) = (run(SchedMode::Dense), run(SchedMode::EventDriven));
        assert!(matches!(a, Err(SimError::Deadlock { .. })));
        assert_eq!(a, b, "wedged-FIFO attribution must survive parking");
        assert_eq!(a.unwrap_err().wedged().expect("names a fifo").name, "q");
    }

    #[test]
    fn event_ticks_barrier_style_spinners() {
        // A kernel that idles without touching any FIFO (empty watch set)
        // can never be woken by an occupancy edge, so the event scheduler
        // must keep ticking it even though it is Reactive-labeled.
        struct Spinner {
            countdown: u32,
        }
        impl Kernel<u32> for Spinner {
            fn name(&self) -> &str {
                "spinner"
            }
            fn tick(&mut self, _ctx: &mut Ctx<'_, u32>) -> Progress {
                if self.countdown == 0 {
                    return Progress::Done;
                }
                self.countdown -= 1;
                Progress::Busy
            }
            fn horizon(&self) -> Horizon {
                Horizon::Reactive
            }
        }
        let run = |mode: SchedMode| {
            let mut e = Engine::<u32>::builder().scheduler(mode).build().unwrap();
            e.add_kernel(Box::new(Spinner { countdown: 100 }));
            e.run(10_000).unwrap()
        };
        assert_eq!(run(SchedMode::Dense), run(SchedMode::EventDriven));
    }
}

#[cfg(test)]
mod report_tests {
    use super::*;

    #[test]
    fn utilization_table_renders_shares() {
        let report = RunReport {
            cycles: 100,
            kernels: vec![
                ("alpha".into(), KernelStats { busy: 75, blocked: 20, idle: 5, done: 0 }),
                ("b".into(), KernelStats { busy: 0, blocked: 0, idle: 0, done: 100 }),
            ],
            counters: Counters::new(),
            sched: SchedStats::default(),
        };
        let t = report.render_utilization();
        assert!(t.contains("alpha"), "{t}");
        assert!(t.contains("75.0%"), "{t}");
        assert!(t.contains("20.0%"), "{t}");
        // The all-done kernel renders without dividing by zero.
        assert!(t.lines().count() == 3, "{t}");
    }
}
