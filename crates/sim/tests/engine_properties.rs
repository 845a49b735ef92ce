//! Property test: what the engine's one stepper must keep on any design.
//!
//! Random pipeline topologies (source → stages → sink with random FIFO
//! capacities), eager or throttled sources, eager or decimating sinks,
//! random cycle limits, random trace windows and random one-shot fault
//! plans (transient and permanent port stalls). Every run must hold:
//!
//! * on `Ok`, every value is delivered, in order;
//! * every kernel is accounted for every cycle: on `Ok`, its
//!   [`KernelStats::total`] is [`RunReport::cycles`] less the one cycle in
//!   which it reported [`Progress::Done`], which no bucket counts;
//! * on `Ok`, every FIFO is drained: its occupancy is 0;
//! * a deadlock only happens under an injected stall, and names that
//!   stall's FIFO through [`SimError::wedged`];
//! * the trace window holds `min(cycles, capacity)` columns.
//!
//! [`KernelStats::total`]: zskip_sim::KernelStats::total

use proptest::prelude::*;
use std::cell::RefCell;
use std::num::NonZeroUsize;
use std::rc::Rc;
use zskip_fault::{FaultKind, FaultPlan};
use zskip_sim::{Ctx, Engine, Fifo, FifoId, Kernel, Progress, RunReport, SimError};

/// Values a sink received, in arrival order.
type Delivered = Rc<RefCell<Vec<u32>>>;

/// Emits `count` values, one every `period` cycles (1 = back-to-back).
struct Source {
    out: FifoId,
    period: u64,
    next_emit: u64,
    emitted: u32,
    count: u32,
}

impl Kernel<u32> for Source {
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
}

/// Pass-through stage with a one-element hold register.
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
}

/// Receives `count` values, attempting a pop only every `stride`-th cycle
/// (1 = every cycle), and records them.
struct Sink {
    inp: FifoId,
    stride: u8,
    phase: u8,
    count: u32,
    delivered: Delivered,
}

impl Kernel<u32> for Sink {
    fn name(&self) -> &str {
        "sink"
    }
    fn tick(&mut self, ctx: &mut Ctx<'_, u32>) -> Progress {
        if self.delivered.borrow().len() == self.count as usize {
            return Progress::Done;
        }
        self.phase = (self.phase + 1) % self.stride;
        if self.phase != 0 {
            return Progress::Idle;
        }
        match ctx.fifos.try_pop(self.inp) {
            Some(v) => {
                self.delivered.borrow_mut().push(v);
                Progress::Busy
            }
            None => Progress::Blocked,
        }
    }
}

#[derive(Debug, Clone)]
struct PipeSpec {
    /// FIFO capacity per hop; `len() - 1` pass-through stages.
    capacities: Vec<usize>,
    count: u32,
    /// Cycles between the source's emissions (1 = eager).
    period: u64,
    /// Cycles between the sink's pop attempts (1 = eager).
    stride: u8,
    /// `(hop, push_port, at, stall_cycles)`; `u64::MAX` stall wedges the
    /// port permanently.
    fault: Option<(usize, bool, u64, u64)>,
    max_cycles: u64,
    /// Trace window; 0 = untraced.
    trace: usize,
}

/// Builds the design, returning the engine, its FIFOs and the sink's log.
fn build(spec: &PipeSpec) -> (Engine<u32>, Vec<FifoId>, Delivered) {
    let mut builder = Engine::<u32>::builder().deadlock_window(64);
    if let Some(capacity) = NonZeroUsize::new(spec.trace) {
        builder = builder.trace(capacity);
    }
    if let Some((hop, push, at, cycles)) = spec.fault {
        let port = if push { "push" } else { "pop" };
        let plan = FaultPlan::new()
            .inject(format!("fifo:q{hop}:{port}"), at, FaultKind::FifoStall { cycles })
            .shared();
        builder = builder.fault_plan(plan);
    }
    let mut e: Engine<u32> = builder.build().expect("nonzero deadlock window");
    let fifos: Vec<FifoId> =
        spec.capacities.iter().enumerate().map(|(i, &c)| e.add_fifo(Fifo::new(format!("q{i}"), c))).collect();
    e.add_kernel(Box::new(Source { out: fifos[0], period: spec.period, next_emit: 0, emitted: 0, count: spec.count }));
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
    let delivered = Delivered::default();
    let last = *fifos.last().expect("at least one hop");
    e.add_kernel(Box::new(Sink {
        inp: last,
        stride: spec.stride,
        phase: 0,
        count: spec.count,
        delivered: Rc::clone(&delivered),
    }));
    (e, fifos, delivered)
}

fn spec_strategy() -> impl Strategy<Value = PipeSpec> {
    let capacities = prop::collection::vec(1usize..5, 1..4);
    // The vendored proptest has no `prop::option`: model "30% throttled"
    // and "50% faulted" with explicit dice rolls.
    let period = (0u32..10, 2u64..9).prop_map(|(roll, v)| if roll < 3 { v } else { 1 });
    let stride = (0u32..10, 2u8..5).prop_map(|(roll, v)| if roll < 3 { v } else { 1 });
    let fault = (0u32..10, 0usize..3, prop::bool::ANY, 1u64..120, prop_oneof![1u64..80, Just(u64::MAX)])
        .prop_map(|(roll, hop, push, at, cycles)| (roll < 5).then_some((hop, push, at, cycles)));
    ((capacities, 1u32..60), (period, stride, fault), prop_oneof![60u64..200, Just(100_000)], 0usize..96).prop_map(
        |((capacities, count), (period, stride, fault), max_cycles, trace)| {
            let fault = fault.map(|(hop, push, at, cycles)| (hop % capacities.len(), push, at, cycles));
            PipeSpec { capacities, count, period, stride, fault, max_cycles, trace }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn one_stepper_keeps_the_engine_invariants(spec in spec_strategy()) {
        let (mut e, fifos, delivered) = build(&spec);
        let result: Result<RunReport, SimError> = e.run(spec.max_cycles);
        let cycles = e.cycle();
        match &result {
            Ok(report) => {
                prop_assert_eq!(report.cycles, cycles);
                for &f in &fifos {
                    prop_assert_eq!(e.fifo(f).occupancy(), 0, "fifo {} drained", e.fifo(f).name());
                }
                let want: Vec<u32> = (0..spec.count).collect();
                prop_assert_eq!(&*delivered.borrow(), &want, "every value, in order");
                prop_assert_eq!(report.counters.get("emitted"), u64::from(spec.count));
                for (name, stats) in &report.kernels {
                    prop_assert_eq!(stats.total() + 1, cycles, "kernel {} accounted every cycle", name);
                }
            }
            Err(SimError::CycleLimit { limit, unfinished }) => {
                prop_assert_eq!(*limit, spec.max_cycles);
                prop_assert_eq!(cycles, spec.max_cycles);
                prop_assert!(!unfinished.is_empty());
            }
            Err(err @ SimError::Deadlock { cycle, .. }) => {
                prop_assert_eq!(*cycle, cycles);
                prop_assert!(spec.fault.is_some(), "deadlock without a fault: {}", err);
                let (hop, ..) = spec.fault.expect("checked above");
                let wedged = err.wedged().expect("a deadlock names a fifo");
                prop_assert_eq!(&wedged.name, &format!("q{hop}"), "{}", err);
                prop_assert!(wedged.stalled, "{}", err);
            }
        }
        if let Some(trace) = e.trace() {
            let columns = cycles.min(spec.trace as u64) as usize;
            prop_assert_eq!(trace.len(), columns, "trace window");
            prop_assert_eq!(trace.is_truncated(), cycles > spec.trace as u64);
        }
    }
}
