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
use std::cell::RefCell;
use std::rc::Rc;
use zskip_fault::SharedFaultPlan;
use zskip_sim::{Barrier, Counters, Engine, Fifo, RunReport, SchedMode, SimError};

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
}

/// Runs an instruction stream to completion on one accelerator instance.
///
/// `banks` must hold the resident IFM stripe in the layout the
/// instructions reference; `scratchpad` holds the packed weight image.
///
/// Uses the event-driven scheduler: kernels blocked on a FIFO park on its
/// wait list instead of being re-polled every cycle. The result is
/// bit-identical to the dense stepper ([`run_instructions_dense`] is the
/// oracle; a property test pins the equivalence).
///
/// # Errors
/// Propagates [`SimError`] (deadlock or cycle limit) — either indicates a
/// malformed instruction stream or an RTL-level bug.
pub fn run_instructions(
    config: &AccelConfig,
    banks: BankSet,
    scratchpad: Vec<u8>,
    instructions: &[Instruction],
    max_cycles: u64,
) -> Result<CycleOutcome, SimError> {
    let (outcome, _) = run_instructions_inner(
        config,
        banks,
        scratchpad,
        Feed::Preloaded(instructions.to_vec()),
        max_cycles,
        None,
        None,
        SchedMode::EventDriven,
        None,
    )?;
    Ok(outcome)
}

/// [`run_instructions`] on the dense stepper: every kernel ticks every
/// cycle. Slower, but the semantics are defined by inspection — this is
/// the oracle the event-driven scheduler is checked against.
///
/// # Errors
/// See [`run_instructions`].
pub fn run_instructions_dense(
    config: &AccelConfig,
    banks: BankSet,
    scratchpad: Vec<u8>,
    instructions: &[Instruction],
    max_cycles: u64,
) -> Result<CycleOutcome, SimError> {
    let (outcome, _) = run_instructions_inner(
        config,
        banks,
        scratchpad,
        Feed::Preloaded(instructions.to_vec()),
        max_cycles,
        None,
        None,
        SchedMode::Dense,
        None,
    )?;
    Ok(outcome)
}

/// The session-configurable entry point the exec pipeline uses: an
/// optional fault plan plus an optional park-hysteresis override for the
/// event scheduler (see [`zskip_sim::EngineBuilder::park_hysteresis`]).
/// `None` for both is exactly [`run_instructions`]. The hysteresis is a
/// scheduling-cost knob only — cycle counts and bank contents are
/// bit-identical for every value (the `tune` module exploits this: it
/// searches the knob for simulator wall time without perturbing the
/// simulated score).
///
/// # Errors
/// See [`run_instructions`].
pub fn run_instructions_configured(
    config: &AccelConfig,
    banks: BankSet,
    scratchpad: Vec<u8>,
    instructions: &[Instruction],
    max_cycles: u64,
    plan: Option<SharedFaultPlan>,
    park_hysteresis: Option<u32>,
) -> Result<CycleOutcome, SimError> {
    let (outcome, _) = run_instructions_inner(
        config,
        banks,
        scratchpad,
        Feed::Preloaded(instructions.to_vec()),
        max_cycles,
        None,
        plan,
        SchedMode::EventDriven,
        park_hysteresis,
    )?;
    Ok(outcome)
}

/// Like [`run_instructions`], additionally recording an activity waveform
/// of up to `trace_cycles` cycles (see [`zskip_sim::Trace`]).
///
/// # Errors
/// See [`run_instructions`].
pub fn run_instructions_traced(
    config: &AccelConfig,
    banks: BankSet,
    scratchpad: Vec<u8>,
    instructions: &[Instruction],
    max_cycles: u64,
    trace_cycles: usize,
) -> Result<(CycleOutcome, zskip_sim::Trace), SimError> {
    let (outcome, trace) = run_instructions_inner(
        config,
        banks,
        scratchpad,
        Feed::Preloaded(instructions.to_vec()),
        max_cycles,
        Some(trace_cycles),
        None,
        SchedMode::EventDriven,
        None,
    )?;
    Ok((outcome, trace.expect("tracing was enabled")))
}

/// Runs a hosted system design: the accelerator instance plus the
/// [`host::HostKernel`] that stages, dispatches and polls each layer.
/// Long host-side staging and polling gaps quiesce the whole design, so
/// the event-driven scheduler jumps them — this is the workload class
/// where it beats the dense stepper by the widest margin, and a property
/// test pins the two bit-identical ([`run_hosted_dense`] is the oracle).
///
/// # Errors
/// See [`run_instructions`].
pub fn run_hosted(
    config: &AccelConfig,
    banks: BankSet,
    scratchpad: Vec<u8>,
    host: HostModel,
    max_cycles: u64,
) -> Result<CycleOutcome, SimError> {
    let (outcome, _) = run_instructions_inner(
        config,
        banks,
        scratchpad,
        Feed::Hosted(host),
        max_cycles,
        None,
        None,
        SchedMode::EventDriven,
        None,
    )?;
    Ok(outcome)
}

/// [`run_hosted`] on the dense stepper — the oracle for hosted designs.
///
/// # Errors
/// See [`run_instructions`].
pub fn run_hosted_dense(
    config: &AccelConfig,
    banks: BankSet,
    scratchpad: Vec<u8>,
    host: HostModel,
    max_cycles: u64,
) -> Result<CycleOutcome, SimError> {
    let (outcome, _) = run_instructions_inner(
        config,
        banks,
        scratchpad,
        Feed::Hosted(host),
        max_cycles,
        None,
        None,
        SchedMode::Dense,
        None,
    )?;
    Ok(outcome)
}

/// How the main controller receives its instruction stream.
enum Feed {
    /// The full stream is preloaded into the controller (accelerator-only
    /// designs; the paper's measurement setup after staging).
    Preloaded(Vec<Instruction>),
    /// A host kernel stages and dispatches the stream layer by layer.
    Hosted(HostModel),
}

#[allow(clippy::too_many_arguments)]
fn run_instructions_inner(
    config: &AccelConfig,
    banks: BankSet,
    scratchpad: Vec<u8>,
    feed: Feed,
    max_cycles: u64,
    trace_cycles: Option<usize>,
    fault_plan: Option<SharedFaultPlan>,
    sched: SchedMode,
    park_hysteresis: Option<u32>,
) -> Result<(CycleOutcome, Option<zskip_sim::Trace>), SimError> {
    assert_eq!(config.units, config.lanes, "accumulator lanes map 1:1 onto write units");
    let units = config.units;
    let banks = Rc::new(RefCell::new(banks));
    let scratchpad = Rc::new(scratchpad);
    let barrier = Rc::new(RefCell::new(Barrier::new(config.lanes)));
    let mut engine: Engine<Msg> = Engine::new();
    engine.set_scheduler(sched);
    if let Some(ticks) = park_hysteresis {
        engine.set_park_hysteresis(ticks);
    }
    if let Some(capacity) = trace_cycles {
        engine.enable_trace(capacity);
    }
    if let Some(plan) = fault_plan {
        engine.set_fault_plan(plan);
    }

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
            // The longest legal quiescent stretch is a staging sleep or a
            // poll gap; give the deadlock detector room beyond both.
            let longest_gap = model
                .layers
                .iter()
                .map(|l| l.staging_cycles)
                .max()
                .unwrap_or(0)
                .max(model.poll_interval);
            engine.set_deadlock_window(longest_gap.saturating_add(10_000));
            engine.add_kernel(Box::new(host::HostKernel::new(model, instr_q, host_done)));
        }
    }

    let report = engine.run(max_cycles)?;
    let trace = engine.trace().cloned();
    drop(engine);
    let banks = Rc::try_unwrap(banks).expect("engine dropped, sole owner").into_inner();
    Ok((CycleOutcome { cycles: report.cycles, banks, counters: report.counters.clone(), report }, trace))
}

#[cfg(test)]
mod tests;
