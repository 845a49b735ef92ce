//! The cycle-stepped simulation engine.
//!
//! Every cycle the engine ticks each unfinished kernel once, in
//! registration order, then commits the FIFOs pushed in that cycle
//! (their staged values become visible). Ports are freed by the clock
//! itself: a port is busy only in the cycle its stamp names. A kernel
//! that finished accrues `done` cycles until the run ends. See
//! `docs/SIMULATOR.md` for the cycle semantics and deadlock detection.

use crate::fifo::{Fifo, FifoId, PushError, StallPort};
use crate::stats::{Counters, KernelStats};
use crate::trace::Trace;
use std::fmt;
use std::num::NonZeroUsize;
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
}

/// Receives per-cycle progress events. Monomorphized into the run loop so
/// the untraced configuration ([`NullObserver`]) compiles to straight-line
/// code with no per-tick branch on an `Option<Trace>`.
pub trait Observer {
    /// One kernel's progress for one cycle.
    fn record(&mut self, kernel: usize, cycle: u64, progress: Progress);
}

/// Observer for untraced runs: the hook is an empty inline body.
pub struct NullObserver;

impl Observer for NullObserver {
    #[inline(always)]
    fn record(&mut self, _kernel: usize, _cycle: u64, _progress: Progress) {}
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
}

/// Access to the design's FIFOs during one cycle, with port-semantics
/// enforcement delegated to each [`Fifo`]. It records which FIFOs were
/// pushed, so the end of the cycle commits those and no others.
pub struct FifoSet<'a, M> {
    fifos: &'a mut [Fifo<M>],
    cycle: u64,
    /// FIFOs pushed this cycle, each at most once (one write port).
    pushed: &'a mut Vec<usize>,
    /// Whether some pop succeeded this cycle.
    popped: bool,
}

impl<M> FifoSet<'_, M> {
    /// Attempts to push onto FIFO `id` this cycle.
    ///
    /// # Errors
    /// Propagates the FIFO's [`PushError`].
    #[inline]
    pub fn try_push(&mut self, id: FifoId, value: M) -> Result<(), PushError> {
        self.fifos[id.0].try_push(self.cycle, value)?;
        self.pushed.push(id.0);
        Ok(())
    }

    /// Attempts to pop from FIFO `id` this cycle.
    #[inline]
    pub fn try_pop(&mut self, id: FifoId) -> Option<M> {
        let v = self.fifos[id.0].try_pop(self.cycle);
        self.popped |= v.is_some();
        v
    }

    /// Peeks at FIFO `id` without consuming.
    pub fn peek(&self, id: FifoId) -> Option<&M> {
        self.fifos[id.0].peek()
    }

    /// Number of poppable elements in FIFO `id`.
    pub fn len(&self, id: FifoId) -> usize {
        self.fifos[id.0].len()
    }

    /// Whether FIFO `id` has no poppable elements.
    pub fn is_empty(&self, id: FifoId) -> bool {
        self.fifos[id.0].is_empty()
    }

    /// Whether FIFO `id` has room for a push this cycle.
    pub fn has_room(&self, id: FifoId) -> bool {
        self.fifos[id.0].occupancy() < self.fifos[id.0].capacity()
    }

    /// Ends the cycle: every pushed FIFO's staged value joins its ring.
    /// Returns whether any FIFO moved data this cycle.
    fn commit(&mut self) -> bool {
        let moved = self.popped || !self.pushed.is_empty();
        for &i in self.pushed.iter() {
            self.fifos[i].commit();
        }
        self.pushed.clear();
        moved
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

/// The simulation engine: owns kernels and FIFOs, steps cycles.
pub struct Engine<M> {
    fifos: Vec<Fifo<M>>,
    kernels: Vec<KernelSlot<M>>,
    /// Kernels not yet [`Progress::Done`].
    live: usize,
    /// Scratch for [`FifoSet`]'s pushed list, kept across cycles.
    pushed: Vec<usize>,
    counters: Counters,
    cycle: u64,
    deadlock_window: u64,
    trace: Option<Trace>,
    fault_plan: Option<SharedFaultPlan>,
    /// `fifo:` injections resolved to indices at run start, pending
    /// application at their trigger cycle.
    armed: Vec<ArmedStall>,
}

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
}

/// Outcome of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Per-kernel statistics, in registration order, `(name, stats)`.
    pub kernels: Vec<(String, KernelStats)>,
    /// Aggregated activity counters.
    pub counters: Counters,
}

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
    trace_capacity: Option<NonZeroUsize>,
    deadlock_window: Option<u64>,
    fault_plan: Option<SharedFaultPlan>,
}

/// Invalid engine configuration reported by [`EngineBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A zero-cycle deadlock window would flag every idle cycle.
    ZeroDeadlockWindow,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroDeadlockWindow => {
                write!(f, "deadlock window must be at least 1 cycle")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl EngineBuilder {
    /// Starts from the defaults (`Engine::new()` semantics: no trace,
    /// 10 000-cycle deadlock window, no fault plan).
    pub fn new() -> Self {
        EngineBuilder::default()
    }

    /// Records a waveform trace with a window of `capacity` cycles.
    pub fn trace(mut self, capacity: NonZeroUsize) -> Self {
        self.trace_capacity = Some(capacity);
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

    /// Validates the configuration and builds an empty engine.
    ///
    /// # Errors
    /// [`ConfigError`] when the deadlock window is zero.
    pub fn build<M>(self) -> Result<Engine<M>, ConfigError> {
        if self.deadlock_window == Some(0) {
            return Err(ConfigError::ZeroDeadlockWindow);
        }
        let mut engine = Engine::new();
        engine.trace = self.trace_capacity.map(Trace::new);
        if let Some(window) = self.deadlock_window {
            engine.deadlock_window = window;
        }
        engine.fault_plan = self.fault_plan;
        Ok(engine)
    }
}

impl<M> Engine<M> {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Engine {
            fifos: Vec::new(),
            kernels: Vec::new(),
            live: 0,
            pushed: Vec::new(),
            counters: Counters::new(),
            cycle: 0,
            deadlock_window: 10_000,
            trace: None,
            fault_plan: None,
            armed: Vec::new(),
        }
    }

    /// Starts a validated builder — the one way to configure an engine
    /// (trace, deadlock window, fault plan).
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
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
        self.kernels.push(KernelSlot { kernel, stats: KernelStats::default(), done: false });
        self.live += 1;
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
        // The trace is moved out so the observer can borrow it while the
        // run loop borrows the engine; monomorphizing over the observer
        // compiles the untraced hot path with zero tracing overhead.
        let mut trace = self.trace.take();
        let result = match &mut trace {
            Some(t) => self.run_with(&mut TraceObserver { trace: t }, max_cycles),
            None => self.run_with(&mut NullObserver, max_cycles),
        };
        self.trace = trace;
        result
    }

    /// The run loop: one [`step`](Engine::step) per cycle.
    fn run_with<O: Observer>(&mut self, obs: &mut O, max_cycles: u64) -> Result<RunReport, SimError> {
        let mut last_activity = self.cycle;
        while self.live > 0 {
            if self.cycle >= max_cycles {
                return Err(SimError::CycleLimit { limit: max_cycles, unfinished: self.unfinished_names() });
            }
            self.apply_armed_faults();
            let active = self.step(obs);
            self.cycle += 1;
            if active {
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

    /// Ticks every unfinished kernel once, then commits the FIFOs pushed
    /// in the cycle. Returns whether the cycle was active: some kernel
    /// was busy or finished, or some FIFO moved data.
    fn step<O: Observer>(&mut self, obs: &mut O) -> bool {
        let mut any_busy = false;
        let mut ctx = Ctx {
            cycle: self.cycle,
            fifos: FifoSet { fifos: &mut self.fifos, cycle: self.cycle, pushed: &mut self.pushed, popped: false },
            counters: &mut self.counters,
        };
        for (k, slot) in self.kernels.iter_mut().enumerate() {
            if slot.done {
                slot.stats.done += 1;
                obs.record(k, self.cycle, Progress::Done);
                continue;
            }
            let progress = slot.kernel.tick(&mut ctx);
            obs.record(k, self.cycle, progress);
            match progress {
                Progress::Busy => {
                    slot.stats.busy += 1;
                    any_busy = true;
                }
                Progress::Blocked => slot.stats.blocked += 1,
                Progress::Idle => slot.stats.idle += 1,
                Progress::Done => {
                    slot.done = true;
                    self.live -= 1;
                    any_busy = true; // state change counts as progress
                }
            }
        }
        let moved = ctx.fifos.commit();
        any_busy || moved
    }

    /// Names of kernels not yet done, in registration order.
    fn unfinished_names(&self) -> Vec<String> {
        self.kernels.iter().filter(|k| !k.done).map(|k| k.kernel.name().to_string()).collect()
    }

    /// Captures every FIFO's state for a deadlock report.
    fn fifo_snapshots(&self) -> Vec<FifoSnapshot> {
        self.fifos
            .iter()
            .map(|f| FifoSnapshot {
                name: f.name().to_string(),
                occupancy: f.occupancy(),
                capacity: f.capacity(),
                stalled: f.forced_stall_remaining(self.cycle) > 0,
                push_waiting: f.last_push_stalled(self.cycle),
                pop_waiting: f.last_pop_stalled(self.cycle),
            })
            .collect()
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
    /// it as fired in the shared plan.
    fn apply_armed_faults(&mut self) {
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
            self.fifos[a.fifo].inject_stall(cycle, a.port, a.cycles);
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

    /// Pops only every third cycle.
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

    #[test]
    fn builder_validates_config() {
        let bad: Result<Engine<u32>, _> = Engine::<u32>::builder().deadlock_window(0).build();
        assert_eq!(bad.err(), Some(ConfigError::ZeroDeadlockWindow));
        let ok: Result<Engine<u32>, _> =
            Engine::<u32>::builder().trace(NonZeroUsize::new(16).unwrap()).deadlock_window(500).build();
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

    /// Pushes into a FIFO nobody drains. Once a push is refused it stops
    /// touching the FIFO, unless `retry`, when it retries every cycle.
    struct GiveUp {
        out: FifoId,
        retry: bool,
        refused: bool,
    }

    impl Kernel<u32> for GiveUp {
        fn name(&self) -> &str {
            "give-up"
        }
        fn tick(&mut self, ctx: &mut Ctx<'_, u32>) -> Progress {
            if self.refused && !self.retry {
                return Progress::Blocked;
            }
            match ctx.fifos.try_push(self.out, 0) {
                Ok(()) => Progress::Busy,
                Err(_) => {
                    self.refused = true;
                    Progress::Blocked
                }
            }
        }
    }

    #[test]
    fn a_push_refused_before_the_last_cycle_is_not_a_waiting_producer() {
        for retry in [false, true] {
            let mut e = Engine::<u32>::builder().deadlock_window(20).build().unwrap();
            let q = e.add_fifo(Fifo::new("q", 1));
            e.add_kernel(Box::new(GiveUp { out: q, retry, refused: false }));
            // Cycle 0 fills the FIFO, cycle 1's push is refused; without
            // `retry` nothing touches the FIFO after that.
            let Err(SimError::Deadlock { fifos, .. }) = e.run(1_000) else {
                panic!("a producer with no consumer must deadlock");
            };
            assert_eq!((fifos[0].occupancy, fifos[0].stalled), (1, false));
            assert_eq!(fifos[0].push_waiting, retry, "retry = {retry}");
            assert!(!fifos[0].pop_waiting);
        }
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
        };
        let t = report.render_utilization();
        assert!(t.contains("alpha"), "{t}");
        assert!(t.contains("75.0%"), "{t}");
        assert!(t.contains("20.0%"), "{t}");
        // The all-done kernel renders without dividing by zero.
        assert!(t.lines().count() == 3, "{t}");
    }
}
