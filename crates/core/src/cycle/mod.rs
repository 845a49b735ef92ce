//! The cycle-exact accelerator backend.
//!
//! Assembles the paper's Fig. 3 microarchitecture on the `zskip-sim`
//! engine: per instance, `units` data-staging/control kernels, `units`
//! convolution kernels, `lanes` accumulator kernels synchronized by a
//! Pthreads-style barrier, `units` pool/pad kernels and `units`
//! write-to-memory kernels, plus a main controller — 21 kernels for the
//! full 256-MAC configuration, every one a streaming unit fed by FIFOs
//! exactly as LegUp synthesizes Pthreads threads.

pub mod accum;
pub mod conv;
pub mod ctrl;
pub mod host;
pub mod msg;
pub mod poolpad_unit;
pub mod staging;
pub mod write;

pub use host::{HostLayer, HostModel};

use crate::bank::BankSet;
use crate::config::AccelConfig;
use crate::isa::Instruction;
use msg::Msg;
use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use zskip_fault::SharedFaultPlan;
use zskip_nn::par::ConvPool;
use zskip_sim::{Barrier, Counters, Engine, Fifo, RunReport, SchedMode, SimError, Trace};

/// Result of running an instruction stream on the cycle-exact backend.
#[derive(Debug)]
pub struct CycleOutcome {
    /// Total cycles from dispatch of the first instruction to completion
    /// of the last write.
    pub cycles: u64,
    /// The banks after execution (OFM data written in place).
    pub banks: BankSet,
    /// Activity counters (MACs, bank traffic, bubbles) for the power
    /// model.
    pub counters: Counters,
    /// Full per-kernel statistics.
    pub report: RunReport,
    /// The activity waveform, when [`RunOptions::trace_cycles`] asked for
    /// one (see [`zskip_sim::Trace`]).
    pub trace: Option<Trace>,
}

/// How the main controller receives its instruction stream.
#[derive(Debug, Clone)]
pub enum Feed {
    /// The full stream is preloaded into the controller (accelerator-only
    /// designs; the paper's measurement setup after staging).
    Preloaded(Vec<Instruction>),
    /// A [`host::HostKernel`] stages and dispatches the stream layer by
    /// layer and polls for completion (the paper's §IV-C system view).
    /// Long host-side staging and polling gaps quiesce the whole design,
    /// so this is where the event-driven scheduler beats the dense
    /// stepper by the widest margin.
    Hosted(HostModel),
}

/// Everything a [`run`] takes besides the design, its data and its feed.
/// `RunOptions::default()` is the product configuration: no cycle limit,
/// no trace, no faults, the event-driven scheduler.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Cycle limit; exceeding it is [`SimError::CycleLimit`].
    pub max_cycles: u64,
    /// Record an activity waveform of up to this many cycles into
    /// [`CycleOutcome::trace`].
    pub trace_cycles: Option<usize>,
    /// Fault plan whose `fifo:*` injections are armed on the engine.
    pub fault_plan: Option<SharedFaultPlan>,
    /// The scheduler. [`SchedMode::Dense`] ticks every kernel every cycle
    /// — slower, but the semantics are defined by inspection, so it is
    /// the oracle [`SchedMode::EventDriven`] (kernels blocked on a FIFO
    /// park on its wait list) is pinned bit-identical to.
    pub sched: SchedMode,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            max_cycles: u64::MAX,
            trace_cycles: None,
            fault_plan: None,
            sched: SchedMode::EventDriven,
        }
    }
}

/// Runs an instruction stream to completion on one accelerator instance.
///
/// `banks` must hold the resident IFM stripe in the layout the
/// instructions reference — it may be the set an earlier run handed back,
/// whose port grants are released here; `scratchpad` holds the packed
/// weight image (copied: the kernels own what they read).
///
/// # Errors
/// Propagates [`SimError`] (deadlock or cycle limit) — either indicates a
/// malformed instruction stream, an RTL-level bug or an injected fault.
///
/// # Panics
/// Panics if `opts` asks for a zero-cycle trace window, which
/// [`zskip_sim::EngineBuilder`] rejects.
pub fn run(
    config: &AccelConfig,
    mut banks: BankSet,
    scratchpad: &[u8],
    feed: Feed,
    opts: &RunOptions,
) -> Result<CycleOutcome, SimError> {
    assert_eq!(config.units, config.lanes, "accumulator lanes map 1:1 onto write units");
    let units = config.units;
    banks.release_ports();
    let banks = Rc::new(RefCell::new(banks));
    let scratchpad: Rc<[u8]> = scratchpad.into();
    let barrier = Rc::new(RefCell::new(Barrier::new(config.lanes)));
    let mut builder = Engine::<Msg>::builder().scheduler(opts.sched);
    if let Some(capacity) = opts.trace_cycles {
        builder = builder.trace(capacity);
    }
    if let Some(plan) = &opts.fault_plan {
        builder = builder.fault_plan(plan.clone());
    }
    if let Feed::Hosted(model) = &feed {
        // The longest legal quiescent stretch is a staging sleep or a
        // poll gap; give the deadlock detector room beyond both.
        let longest_gap =
            model.layers.iter().map(|l| l.staging_cycles).max().unwrap_or(0).max(model.poll_interval);
        builder = builder.deadlock_window(longest_gap.saturating_add(10_000));
    }
    let mut engine: Engine<Msg> = builder.build().expect("nonzero trace window");

    // FIFOs. Command/config queues are depth-2 (dispatch is one message
    // deep plus shutdown); data queues use the configured depth.
    let depth = config.fifo_depth;
    let staging_cmds: Vec<_> = (0..units).map(|s| engine.add_fifo(Fifo::new(format!("cmd{s}"), 2))).collect();
    let conv_work: Vec<_> = (0..units).map(|s| engine.add_fifo(Fifo::new(format!("work{s}"), depth))).collect();
    let pool_work: Vec<_> = (0..units).map(|s| engine.add_fifo(Fifo::new(format!("pwork{s}"), depth))).collect();
    // lane_fifos[s][o]: conv unit s -> accumulator o.
    let lane_fifos: Vec<Vec<_>> = (0..units)
        .map(|s| (0..config.lanes).map(|o| engine.add_fifo(Fifo::new(format!("prod{s}_{o}"), depth))).collect())
        .collect();
    let accum_cfgs: Vec<_> = (0..config.lanes).map(|o| engine.add_fifo(Fifo::new(format!("acfg{o}"), 2))).collect();
    let accum_out: Vec<_> = (0..config.lanes).map(|o| engine.add_fifo(Fifo::new(format!("aout{o}"), 2))).collect();
    let pool_out: Vec<_> = (0..units).map(|s| engine.add_fifo(Fifo::new(format!("pout{s}"), 2))).collect();
    let write_cmds: Vec<_> = (0..units).map(|s| engine.add_fifo(Fifo::new(format!("wcmd{s}"), 2))).collect();
    let done = engine.add_fifo(Fifo::new("done", units.max(2)));

    // Kernels, in Fig. 3 order.
    for s in 0..units {
        engine.add_kernel(Box::new(staging::StagingKernel::new(
            s,
            config,
            Rc::clone(&banks),
            Rc::clone(&scratchpad),
            staging_cmds[s],
            conv_work[s],
            pool_work[s],
        )));
    }
    for s in 0..units {
        let lanes: Rc<[_]> = lane_fifos[s].clone().into();
        engine.add_kernel(Box::new(conv::ConvKernel::new(s, conv_work[s], lanes)));
    }
    for o in 0..config.lanes {
        let inputs: Rc<[_]> = (0..units).map(|s| lane_fifos[s][o]).collect::<Vec<_>>().into();
        engine.add_kernel(Box::new(accum::AccumKernel::new(
            o,
            accum_cfgs[o],
            inputs,
            accum_out[o],
            Rc::clone(&barrier),
        )));
    }
    for s in 0..units {
        engine.add_kernel(Box::new(poolpad_unit::PoolPadKernel::new(s, pool_work[s], pool_out[s])));
    }
    for s in 0..units {
        engine.add_kernel(Box::new(write::WriteKernel::new(
            s,
            Rc::clone(&banks),
            write_cmds[s],
            vec![accum_out[s], pool_out[s]],
            done,
        )));
    }
    // Controller last among the accelerator's kernels, matching the
    // paper's dispatch topology (it feeds every cmd FIFO, so its pushes
    // land after all consumers ticked). In hosted mode the host CPU
    // registers after it, outside the accelerator proper.
    match feed {
        Feed::Preloaded(instructions) => {
            engine.add_kernel(Box::new(ctrl::CtrlKernel::new(
                *config,
                instructions,
                staging_cmds,
                accum_cfgs,
                write_cmds,
                done,
            )));
        }
        Feed::Hosted(model) => {
            let instr_q = engine.add_fifo(Fifo::new("hinstr", 2));
            let done_cap = model.layers.iter().map(|l| l.instrs.len()).max().unwrap_or(1).max(2);
            let host_done = engine.add_fifo(Fifo::new("hdone", done_cap));
            engine.add_kernel(Box::new(ctrl::CtrlKernel::new_hosted(
                *config,
                instr_q,
                host_done,
                staging_cmds,
                accum_cfgs,
                write_cmds,
                done,
            )));
            engine.add_kernel(Box::new(host::HostKernel::new(model, instr_q, host_done)));
        }
    }

    let report = engine.run(opts.max_cycles)?;
    let trace = engine.trace().cloned();
    drop(engine);
    let banks = Rc::try_unwrap(banks).expect("engine dropped, sole owner").into_inner();
    Ok(CycleOutcome { cycles: report.cycles, banks, counters: report.counters.clone(), report, trace })
}

/// One independently simulated piece of a pass ([`run_items`]): a run of
/// consecutive instructions and the scratchpad image their `wgt_base`
/// fields index.
#[derive(Debug, Clone)]
pub struct WorkItem<'a> {
    /// The piece of the stream, in stream order.
    pub instrs: Vec<Instruction>,
    /// The packed weights of its convolutions.
    pub scratchpad: Cow<'a, [u8]>,
}

/// What a pass's work items add up to: the figures one run of the whole
/// stream reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassOutcome {
    /// Cycles from dispatch of the first instruction to completion of the
    /// last write.
    pub cycles: u64,
    /// Activity counters, merged in stream order.
    pub counters: Counters,
}

/// Runs the instruction stream of one pass — `items`, in stream order —
/// as one engine run per item, and leaves in `banks` (the resident IFM
/// stripe on entry) what one run of the whole stream would.
///
/// The main controller dispatches an instruction only once every write
/// unit has confirmed the one before ([`ctrl`]'s `WaitDone`), so between
/// two instructions every FIFO is empty and every kernel idle: what an
/// instruction costs does not depend on what ran before it, and the
/// stream costs the sum of its pieces less the shutdown tail that every
/// piece but one paid again (the cycles of an empty stream, measured
/// here, not assumed). The pieces must not read each other's output — a
/// pass's instructions read the IFM stripe and write disjoint OFM
/// channels.
///
/// `pool`'s participants claim the items by atomic index, each simulating
/// on its own copy of `banks`; an item's output channels are copied back
/// in stream order. The set of simulations is the same at any width —
/// only who runs which differs — so cycles, counters and banks are
/// bit-identical for any `pool`, `None` included. Per-kernel statistics
/// ([`RunReport`]) and traces are per run and are dropped, not summed: a
/// kernel idle through one item's shutdown would be counted once per item.
///
/// `opts.max_cycles` bounds each item's run. A fault plan's `fifo:`
/// triggers are cycles of one engine run, so a plan may only be armed on
/// a pass that is a single item.
///
/// # Errors
/// The [`SimError`] of the first item in stream order that failed; no
/// run starts after a failure. `banks` is then unchanged.
///
/// # Panics
/// Panics if `opts` arms a fault plan on more than one item.
pub fn run_items(
    config: &AccelConfig,
    banks: &mut BankSet,
    items: &[WorkItem<'_>],
    pool: Option<&ConvPool>,
    opts: &RunOptions,
) -> Result<PassOutcome, SimError> {
    assert!(opts.fault_plan.is_none() || items.len() <= 1, "a fault plan's triggers are cycles of one run");
    let ifm = &*banks;
    // Per participant, the bank set it simulates on: cloned from the
    // resident stripe at its first item, then handed from run to run.
    let copies: Vec<Mutex<Option<BankSet>>> =
        (0..pool.map_or(1, ConvPool::threads)).map(|_| Mutex::new(None)).collect();
    // Per item: who ran it, its cycles and its counters.
    type ItemResult = Result<(usize, u64, Counters), SimError>;
    let results: Mutex<Vec<Option<ItemResult>>> = Mutex::new(items.iter().map(|_| None).collect());
    // Relaxed: only a hint to start no more runs; the error itself
    // travels through `results`.
    let failed = AtomicBool::new(false);
    let simulate = |worker: usize, i: usize| {
        if failed.load(Ordering::Relaxed) {
            return;
        }
        let mut copy = copies[worker].lock().expect("no run panicked holding its banks");
        let own = copy.take().unwrap_or_else(|| ifm.clone());
        let feed = Feed::Preloaded(items[i].instrs.clone());
        let result = run(config, own, &items[i].scratchpad, feed, opts).map(|outcome| {
            *copy = Some(outcome.banks);
            (worker, outcome.cycles, outcome.counters)
        });
        if result.is_err() {
            failed.store(true, Ordering::Relaxed);
        }
        results.lock().expect("no run panicked holding the results")[i] = Some(result);
    };
    match pool {
        Some(pool) => pool.run(items.len(), &simulate),
        None => (0..items.len()).for_each(|i| simulate(0, i)),
    }

    // Claims ascend, so a run skipped after a failure lies behind it: the
    // first error in stream order is met before any empty slot.
    let results = results.into_inner().expect("no run panicked holding the results");
    let results: Vec<(usize, u64, Counters)> = results
        .into_iter()
        .map(|slot| slot.expect("no earlier item failed, so this one ran"))
        .collect::<Result<_, _>>()?;
    let copies: Vec<Option<BankSet>> =
        copies.into_iter().map(|copy| copy.into_inner().expect("no run panicked holding its banks")).collect();

    let mut total = PassOutcome { cycles: 0, counters: Counters::new() };
    for (item, (worker, cycles, counters)) in items.iter().zip(&results) {
        total.cycles += cycles;
        total.counters.merge(counters);
        let from = copies[*worker].as_ref().expect("a finished run hands its banks back");
        for instr in &item.instrs {
            let (layout, channels) = instr.output();
            layout.copy_channels(from, banks, channels);
        }
    }
    if items.len() != 1 {
        let tail_opts = RunOptions { sched: opts.sched, ..RunOptions::default() };
        let no_banks = BankSet::with_geometry(AccelConfig::BANKS, 0);
        let tail = run(config, no_banks, &[], Feed::Preloaded(Vec::new()), &tail_opts)?.cycles;
        total.cycles = total.cycles + tail - items.len() as u64 * tail;
    }
    Ok(total)
}

#[cfg(test)]
mod tests;
