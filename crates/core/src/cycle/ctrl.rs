//! The main controller kernel.
//!
//! Models the instruction dispatch path of paper Fig. 3's "main
//! controller": receives the instruction stream (already fetched via DMA),
//! configures the staging, accumulator and write units for each
//! instruction, and waits for the write units to confirm completion before
//! dispatching the next. Bank port arbitration is cycle-stamped inside
//! [`crate::bank::BankSet`], so the controller carries no bank handle.

use super::msg::{AccumCfg, Msg};
use crate::config::AccelConfig;
use crate::isa::{ConvInstr, Instruction};
use std::collections::VecDeque;
use zskip_sim::{Ctx, FifoId, Kernel, Progress};

enum State {
    /// Instruction-decode latency countdown.
    Decode(u64),
    /// Push configuration to all units.
    Dispatch,
    /// Await per-write-unit completion.
    WaitDone {
        remaining: usize,
    },
    /// Broadcast shutdown.
    Shutdown,
    Finished,
}

/// The main controller.
pub struct CtrlKernel {
    config: AccelConfig,
    instrs: VecDeque<Instruction>,
    staging_cmds: Vec<FifoId>,
    accum_cfgs: Vec<FifoId>,
    write_cmds: Vec<FifoId>,
    done_in: FifoId,
    state: State,
}

impl CtrlKernel {
    /// Creates the controller with the full instruction stream.
    pub fn new(
        config: AccelConfig,
        instrs: &[Instruction],
        staging_cmds: Vec<FifoId>,
        accum_cfgs: Vec<FifoId>,
        write_cmds: Vec<FifoId>,
        done_in: FifoId,
    ) -> CtrlKernel {
        CtrlKernel {
            config,
            instrs: instrs.iter().copied().collect(),
            staging_cmds,
            accum_cfgs,
            write_cmds,
            done_in,
            state: State::Decode(AccelConfig::INSTR_OVERHEAD_CYCLES),
        }
    }

    fn accum_cfg(&self, i: &ConvInstr, lane: usize) -> AccumCfg {
        let channel = i.ofm_first as u32 + lane as u32;
        let positions = i.ofm_tile_rows as u32 * i.ofm_tiles_x as u32;
        AccumCfg {
            active: lane < i.active_lanes as usize,
            bias: i.bias[lane] as i64,
            mult: i.requant_mult,
            shift: i.requant_shift,
            relu: i.relu,
            positions,
            units: self.config.units as u8,
            out_bank: (channel % AccelConfig::BANKS as u32) as u8,
            out_base: i.ofm_base + (channel / AccelConfig::BANKS as u32) * positions,
        }
    }

    fn write_expect(&self, instr: &Instruction, unit: usize) -> u32 {
        match instr {
            Instruction::Conv(i) => {
                let positions = i.ofm_tile_rows as u32 * i.ofm_tiles_x as u32;
                if unit < i.active_lanes as usize {
                    positions
                } else {
                    0
                }
            }
            Instruction::PoolPad(i) => {
                let positions = i.out_tile_rows as u32 * i.out_tiles_x as u32;
                let channels = (0..i.channels as usize).filter(|c| c % self.config.units == unit).count() as u32;
                channels * positions
            }
        }
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_, Msg>) -> Progress {
        let instr = *self.instrs.front().expect("dispatch with an instruction pending");
        // All pushes target distinct FIFOs: legal in one cycle.
        for s in 0..self.config.units {
            ctx.fifos.try_push(self.staging_cmds[s], Msg::Cmd(instr)).expect("cmd FIFO sized for dispatch");
        }
        if let Instruction::Conv(ref c) = instr {
            for lane in 0..self.config.lanes {
                ctx.fifos
                    .try_push(self.accum_cfgs[lane], Msg::Accum(self.accum_cfg(c, lane)))
                    .expect("cfg FIFO sized for dispatch");
            }
        }
        for unit in 0..self.config.units {
            ctx.fifos
                .try_push(self.write_cmds[unit], Msg::WriteExpect(self.write_expect(&instr, unit)))
                .expect("cmd FIFO sized for dispatch");
        }
        self.state = State::WaitDone { remaining: self.config.units };
        Progress::Busy
    }
}

impl Kernel<Msg> for CtrlKernel {
    fn name(&self) -> &str {
        "main-ctrl"
    }

    fn tick(&mut self, ctx: &mut Ctx<'_, Msg>) -> Progress {
        match &mut self.state {
            State::Finished => Progress::Done,
            State::Decode(left) => {
                if self.instrs.is_empty() {
                    self.state = State::Shutdown;
                    Progress::Busy
                } else if *left > 0 {
                    *left -= 1;
                    Progress::Busy
                } else {
                    self.state = State::Dispatch;
                    Progress::Busy
                }
            }
            State::Dispatch => self.dispatch(ctx),
            State::WaitDone { remaining } => match ctx.fifos.try_pop(self.done_in) {
                Some(Msg::Done) => {
                    *remaining -= 1;
                    if *remaining == 0 {
                        self.instrs.pop_front();
                        self.state = State::Decode(AccelConfig::INSTR_OVERHEAD_CYCLES);
                    }
                    Progress::Busy
                }
                Some(other) => panic!("controller received unexpected message {other:?}"),
                None => Progress::Blocked,
            },
            State::Shutdown => {
                for s in 0..self.config.units {
                    ctx.fifos.try_push(self.staging_cmds[s], Msg::Shutdown).expect("cmd FIFO has room at shutdown");
                    ctx.fifos.try_push(self.write_cmds[s], Msg::Shutdown).expect("cmd FIFO has room at shutdown");
                }
                for lane in 0..self.config.lanes {
                    ctx.fifos.try_push(self.accum_cfgs[lane], Msg::Shutdown).expect("cfg FIFO has room at shutdown");
                }
                self.state = State::Finished;
                Progress::Done
            }
        }
    }
}
