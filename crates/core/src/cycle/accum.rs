//! The accumulator unit kernel.
//!
//! "Each accumulator unit is responsible for maintaining the values of one
//! tile (16 values) in an OFM" (paper §III-A). It sums products arriving
//! from every convolution unit into 16 wide accumulators initialized with
//! the bias; end-of-position markers from all units trigger the fused
//! ReLU + requantization epilogue and the tile's dispatch to the
//! write-to-memory unit. "The completion of all four OFM tiles at a given
//! x/y tile position is synchronized using a Pthreads barrier" (§III-B1) —
//! here a polled [`Barrier`] shared by the accumulator lanes.

use super::msg::{AccumCfg, Msg};
use crate::config::AccelConfig;
use std::cell::RefCell;
use std::rc::Rc;
use zskip_quant::{Requantizer, Sm8};
use zskip_sim::{Barrier, CounterId, Ctx, FifoId, Kernel, Progress};
use zskip_tensor::Tile;

#[derive(Debug)]
struct Run {
    cfg: AccumCfg,
    acc: [i64; 16],
    /// Per-conv-unit end-of-position marker for the current position
    /// (units divide the bank count, so there are at most that many).
    marked: [bool; AccelConfig::BANKS],
    pos: u32,
    /// Finalized tile waiting for FIFO room.
    pending: Option<Tile<Sm8>>,
    at_barrier: bool,
}

// `Run` dominates the size (16 wide accumulators + an aligned tile), but
// the enum lives once per long-lived kernel and `Run` is the state every
// tick touches — boxing it would put a pointer chase in the hot path.
#[allow(clippy::large_enum_variant)]
enum State {
    Idle,
    Run(Run),
    Finished,
}

/// The accumulator kernel for one filter lane.
pub struct AccumKernel {
    name: String,
    cfg_in: FifoId,
    ports: Ports,
    state: State,
}

/// Everything a running lane touches besides its [`Run`], kept apart so
/// a tick borrows the two side by side instead of copying the `Run` out.
struct Ports {
    lane: usize,
    /// One products FIFO per convolution unit.
    inputs: Rc<[FifoId]>,
    out: FifoId,
    barrier: Rc<RefCell<Barrier>>,
    /// Interned `accum_adds` id — fires on every product pop.
    adds_counter: Option<CounterId>,
}

impl AccumKernel {
    /// Creates accumulator lane `lane`.
    pub fn new(
        lane: usize,
        cfg_in: FifoId,
        inputs: Rc<[FifoId]>,
        out: FifoId,
        barrier: Rc<RefCell<Barrier>>,
    ) -> AccumKernel {
        AccumKernel {
            name: format!("accum{lane}"),
            cfg_in,
            ports: Ports { lane, inputs, out, barrier, adds_counter: None },
            state: State::Idle,
        }
    }
}

impl Run {
    /// The position's tile: the fused ReLU + requantization epilogue.
    fn finalize(&self) -> Tile<Sm8> {
        let requant = Requantizer { mult: self.cfg.mult as u32, shift: self.cfg.shift as u32 };
        let mut t = Tile::zero();
        for (i, &acc) in self.acc.iter().enumerate() {
            t.as_mut_array()[i] = if self.cfg.relu { requant.apply_relu(acc) } else { requant.apply(acc) };
        }
        t
    }
}

impl Ports {
    fn tick_run(&mut self, run: &mut Run, ctx: &mut Ctx<'_, Msg>) -> (Progress, bool) {
        // Stage 3: synchronized position handoff.
        if run.at_barrier {
            if self.barrier.borrow_mut().arrive_and_poll(self.lane) {
                run.at_barrier = false;
                run.pos += 1;
                if run.pos == run.cfg.positions {
                    return (Progress::Busy, true); // instruction complete
                }
                run.acc = [run.cfg.bias; 16];
                run.marked = [false; AccelConfig::BANKS];
                return (Progress::Busy, false);
            }
            return (Progress::Blocked, false);
        }

        // Stage 2: ship the finalized tile.
        if let Some(tile) = run.pending.take() {
            let addr = run.cfg.out_base + run.pos;
            match ctx.fifos.try_push(self.out, Msg::OfmTile { bank: run.cfg.out_bank, addr, tile }) {
                Ok(()) => {
                    run.at_barrier = true;
                    return (Progress::Busy, false);
                }
                Err(_) => {
                    run.pending = Some(tile);
                    return (Progress::Blocked, false);
                }
            }
        }

        // Stage 1: drain products from every conv unit not yet at its
        // position marker.
        let mut progress = Progress::Idle;
        for u in 0..run.cfg.units as usize {
            if run.marked[u] {
                continue;
            }
            match ctx.fifos.try_pop(self.inputs[u]) {
                Some(Msg::Products(p)) => {
                    for (a, v) in run.acc.iter_mut().zip(p) {
                        *a += v as i64;
                    }
                    let adds =
                        *self.adds_counter.get_or_insert_with(|| ctx.counters.intern("accum_adds"));
                    ctx.counters.add_id(adds, 16);
                    progress = Progress::Busy;
                }
                Some(Msg::AccumEnd) => {
                    run.marked[u] = true;
                    progress = Progress::Busy;
                }
                Some(other) => panic!("accumulator received unexpected message {other:?}"),
                None => {
                    if progress == Progress::Idle {
                        progress = Progress::Blocked;
                    }
                }
            }
        }
        if run.marked.iter().take(run.cfg.units as usize).all(|&m| m) {
            // Position complete: requantize; inactive lanes (ragged final
            // group) skip the write but still hit the barrier.
            if run.cfg.active {
                run.pending = Some(run.finalize());
            } else {
                run.at_barrier = true;
            }
            progress = Progress::Busy;
        }
        (progress, false)
    }
}

impl Kernel<Msg> for AccumKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Ctx<'_, Msg>) -> Progress {
        match &mut self.state {
            State::Finished => Progress::Done,
            State::Idle => match ctx.fifos.try_pop(self.cfg_in) {
                Some(Msg::Accum(cfg)) => {
                    if cfg.positions == 0 {
                        return Progress::Busy; // degenerate instruction
                    }
                    self.state = State::Run(Run {
                        acc: [cfg.bias; 16],
                        marked: [false; AccelConfig::BANKS],
                        pos: 0,
                        pending: None,
                        at_barrier: false,
                        cfg,
                    });
                    Progress::Busy
                }
                Some(Msg::Shutdown) => {
                    self.state = State::Finished;
                    Progress::Done
                }
                Some(other) => panic!("accumulator received unexpected message {other:?}"),
                None => Progress::Idle,
            },
            State::Run(run) => {
                let (progress, complete) = self.ports.tick_run(run, ctx);
                if complete {
                    self.state = State::Idle;
                }
                progress
            }
        }
    }
}
