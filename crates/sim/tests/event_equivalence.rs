//! Property test: the event-driven scheduler is bit-identical to the
//! dense oracle.
//!
//! Random pipeline topologies (source → stages → sink with random FIFO
//! capacities), random kernel horizons (Reactive stages, Sleep-horizon
//! throttled sources, Opaque decimating sinks), random cycle limits and
//! random one-shot fault plans (transient and permanent port stalls —
//! including stalls whose expiry must wake parked kernels) are run through
//! both schedulers built from the same spec. Everything observable must
//! match: the `Result<RunReport, SimError>` (cycle counts, per-kernel
//! stats, counters, deadlock cycle + per-FIFO attribution, cycle-limit
//! culprits) and the rendered trace window.

use proptest::prelude::*;
use zskip_fault::{FaultKind, FaultPlan};
use zskip_sim::{Ctx, Engine, Fifo, FifoId, Horizon, Kernel, Progress, RunReport, SchedMode, SimError};

/// Emits `count` values back-to-back. Reactive: a refused push is a pure
/// probe of the output FIFO.
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
    fn horizon(&self) -> Horizon {
        Horizon::Reactive
    }
}

/// Emits one value every `period` cycles, advertising the next emission
/// cycle through a Sleep horizon so the scheduler can park it on a timer.
struct SleepySource {
    out: FifoId,
    period: u64,
    next_emit: u64,
    emitted: u32,
    count: u32,
}

impl Kernel<u32> for SleepySource {
    fn name(&self) -> &str {
        "source"
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

/// Pass-through stage with a one-element hold register. Reactive.
struct Stage {
    name: String,
    inp: FifoId,
    out: FifoId,
    held: Option<u32>,
    forwarded: u32,
    count: u32,
}

impl Kernel<u32> for Stage {
    fn name(&self) -> &str {
        &self.name
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
        if self.held.is_none() && self.forwarded < self.count {
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
    fn horizon(&self) -> Horizon {
        Horizon::Reactive
    }
}

/// Consumes `count` values in order. Reactive.
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
    fn horizon(&self) -> Horizon {
        Horizon::Reactive
    }
}

/// Pops only every `stride`-th cycle, mutating its phase on *every* tick —
/// not reactive, so it keeps the default Opaque horizon and must never be
/// parked. Exercises the mixed Opaque/Reactive schedule.
struct DecimatingSink {
    inp: FifoId,
    stride: u8,
    phase: u8,
    received: u32,
    count: u32,
}

impl Kernel<u32> for DecimatingSink {
    fn name(&self) -> &str {
        "sink"
    }
    fn tick(&mut self, ctx: &mut Ctx<'_, u32>) -> Progress {
        if self.received == self.count {
            return Progress::Done;
        }
        self.phase = (self.phase + 1) % self.stride;
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

/// Everything needed to build the same design twice.
#[derive(Debug, Clone)]
struct PipeSpec {
    /// FIFO capacity per hop; `len() - 1` pass-through stages.
    capacities: Vec<usize>,
    count: u32,
    /// `Some(period)` replaces the eager source with a Sleep-horizon one.
    sleepy: Option<u64>,
    /// `Some(stride)` replaces the reactive sink with an Opaque decimator.
    decimate: Option<u8>,
    /// `(hop, push_port, at, stall_cycles)`; `u64::MAX` stall wedges the
    /// port permanently.
    fault: Option<(usize, bool, u64, u64)>,
    max_cycles: u64,
    trace: usize,
    /// Park hysteresis — a pure scheduling-cost knob, so every value must
    /// yield the same results (1 = maximum parking/thrash).
    hysteresis: u32,
}

fn build(spec: &PipeSpec, mode: SchedMode) -> Engine<u32> {
    let mut builder =
        Engine::<u32>::builder().scheduler(mode).park_hysteresis(spec.hysteresis).deadlock_window(64);
    if spec.trace > 0 {
        builder = builder.trace(spec.trace);
    }
    if let Some((hop, push, at, cycles)) = spec.fault {
        let port = if push { "push" } else { "pop" };
        let plan = FaultPlan::new()
            .inject(format!("fifo:q{hop}:{port}"), at, FaultKind::FifoStall { cycles })
            .shared();
        builder = builder.fault_plan(plan);
    }
    let mut e: Engine<u32> = builder.build().expect("nonzero windows");
    let fifos: Vec<FifoId> =
        spec.capacities.iter().enumerate().map(|(i, &c)| e.add_fifo(Fifo::new(format!("q{i}"), c))).collect();
    match spec.sleepy {
        Some(period) => e.add_kernel(Box::new(SleepySource {
            out: fifos[0],
            period,
            next_emit: 0,
            emitted: 0,
            count: spec.count,
        })),
        None => e.add_kernel(Box::new(Source { out: fifos[0], next: 0, count: spec.count })),
    }
    for (i, pair) in fifos.windows(2).enumerate() {
        e.add_kernel(Box::new(Stage {
            name: format!("stage{i}"),
            inp: pair[0],
            out: pair[1],
            held: None,
            forwarded: 0,
            count: spec.count,
        }));
    }
    let last = *fifos.last().expect("at least one hop");
    match spec.decimate {
        Some(stride) => e.add_kernel(Box::new(DecimatingSink {
            inp: last,
            stride,
            phase: 0,
            received: 0,
            count: spec.count,
        })),
        None => e.add_kernel(Box::new(Sink { inp: last, expect_next: 0, count: spec.count })),
    }
    e
}

fn run(spec: &PipeSpec, mode: SchedMode) -> (Result<RunReport, SimError>, Option<String>) {
    let mut e = build(spec, mode);
    let result = e.run(spec.max_cycles);
    let rendered = e.trace().map(|t| t.render(72));
    (result, rendered)
}

fn spec_strategy() -> impl Strategy<Value = PipeSpec> {
    let capacities = prop::collection::vec(1usize..5, 1..4);
    // The vendored proptest has no `prop::option`: model "30% Some"
    // with an explicit dice roll.
    let sleepy = (0u32..10, 2u64..9).prop_map(|(roll, v)| (roll < 3).then_some(v));
    let decimate = (0u32..10, 2u8..5).prop_map(|(roll, v)| (roll < 3).then_some(v));
    let fault = (0u32..10, 0usize..3, prop::bool::ANY, 1u64..120, prop_oneof![1u64..80, Just(u64::MAX)])
        .prop_map(|(roll, hop, push, at, cycles)| (roll < 5).then_some((hop, push, at, cycles)));
    (
        (capacities, 1u32..60),
        (sleepy, decimate, fault),
        prop_oneof![60u64..200, Just(100_000)],
        0usize..96,
        1u32..7,
    )
        .prop_map(|((capacities, count), (sleepy, decimate, fault), max_cycles, trace, hysteresis)| {
            let fault = fault.map(|(hop, push, at, cycles)| (hop % capacities.len(), push, at, cycles));
            PipeSpec { capacities, count, sleepy, decimate, fault, max_cycles, trace, hysteresis }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn event_scheduler_is_bit_identical_to_dense(spec in spec_strategy()) {
        let (dense, dense_trace) = run(&spec, SchedMode::Dense);
        let (event, event_trace) = run(&spec, SchedMode::EventDriven);
        // Reports, errors (deadlock cycle + FIFO attribution, cycle-limit
        // culprits) and trace windows must all be indistinguishable.
        prop_assert_eq!(&dense, &event, "spec: {:?}", &spec);
        prop_assert_eq!(&dense_trace, &event_trace, "trace diverged for spec: {:?}", &spec);
        if let Ok(report) = &dense {
            prop_assert_eq!(report.sched.parks, 0, "dense run must not park");
        }
    }
}
