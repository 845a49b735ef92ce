//! The data-staging/control kernel.
//!
//! Each staging unit manages its subset of the IFM channels and their
//! packed weights. For convolution it iterates OFM tile positions; per
//! position it streams each active IFM's packed weight entries (one per
//! cycle, four lanes in lockstep) together with the quad region of IFM
//! tiles, while prefetching the next quad from its SRAM bank — the source
//! of the 4-cycle-per-weight-tile floor ("at least four clock cycles must
//! be spent processing a weight tile", paper §III-B1). For pad/pool it
//! streams micro-ops to the pool/pad unit. The paper split this
//! controller's FSM into separate convolution and pad/pool functions; the
//! two `State` arms mirror that split.

use super::msg::{ConvWork, Msg, PoolWork};
use crate::bank::BankSet;
use crate::config::AccelConfig;
use crate::isa::{ConvInstr, Instruction, PoolPadInstr};
use crate::layout::FmLayout;
use crate::poolpad::{compile_tile_program, MicroOp};
use crate::weights::GroupWeights;
use std::cell::RefCell;
use std::rc::Rc;
use zskip_quant::pack::index_tiles;
use zskip_quant::{PackedEntry, PackedTile, Sm8};
use zskip_sim::{CounterId, Ctx, FifoId, Kernel, Progress};
use zskip_tensor::Tile;

/// One (position, IFM) phase of a convolution instruction.
#[derive(Debug, Clone)]
struct Phase {
    /// Position index (row-major over the OFM stripe).
    pos: u32,
    /// Global IFM channel.
    ifm: u32,
    /// Lockstep steps (max lane nnz; > 0, zero-step IFMs are skipped).
    steps: u32,
    /// Cycle budget: `max(4, steps, weight-fetch cycles)`.
    budget: u32,
    /// Whether this is the last phase of its position.
    last_of_pos: bool,
}

#[derive(Debug)]
enum State {
    /// Waiting for a command.
    Idle,
    /// Executing a convolution instruction. Boxed: the two quad regions
    /// make this variant an order of magnitude larger than the rest, and
    /// `tick_conv` moves the state out and back every cycle.
    Conv(Box<ConvState>),
    /// Executing a pool/pad instruction.
    Pool(PoolState),
    /// Forwarding shutdown to the conv and pool/pad units downstream.
    Finishing {
        /// Shutdown delivered to the conv unit.
        conv_sent: bool,
        /// Shutdown delivered to the pool/pad unit.
        pool_sent: bool,
    },
    /// Shut down.
    Finished,
}

#[derive(Debug)]
struct ConvState {
    instr: ConvInstr,
    /// Where each `(ifm, lane)` packed tile of the instruction's group
    /// starts in the scratchpad, counted from `instr.wgt_base`.
    tile_index: Vec<u32>,
    phases: Vec<Phase>,
    phase_idx: usize,
    /// Cycle within the current phase.
    t: u32,
    /// Quad region for the current phase (prefetched).
    region: [Sm8; 64],
    /// Quad region being prefetched for the next phase.
    next_region: [Sm8; 64],
    /// Initial 4-cycle fill countdown (pipeline prologue).
    fill: u32,
    /// Pending end-of-position marker.
    marker: bool,
    /// Marker-only positions remaining (fully-pruned group).
    marker_only_positions: u32,
}

#[derive(Debug)]
struct PoolState {
    instr: PoolPadInstr,
    /// Channels handled by this unit.
    channels: Vec<u32>,
    ch_idx: usize,
    /// Output tile index, row-major over the stripe.
    tile_idx: u32,
    program: Vec<MicroOp>,
    op_idx: usize,
}

/// The data-staging/control kernel.
pub struct StagingKernel {
    name: String,
    index: usize,
    units: usize,
    lanes: usize,
    weight_bytes_per_cycle: usize,
    banks: Rc<RefCell<BankSet>>,
    scratchpad: Rc<[u8]>,
    cmd: FifoId,
    conv_out: FifoId,
    pool_out: FifoId,
    state: State,
    /// Interned (`weights_applied`, `macs`, `bubble_lanes`) ids — these
    /// fire every streaming cycle, so the name lookup is paid once.
    conv_counters: Option<(CounterId, CounterId, CounterId)>,
    pool_counter: Option<CounterId>,
}

impl StagingKernel {
    /// Creates staging unit `index` of `units`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        index: usize,
        config: &AccelConfig,
        banks: Rc<RefCell<BankSet>>,
        scratchpad: Rc<[u8]>,
        cmd: FifoId,
        conv_out: FifoId,
        pool_out: FifoId,
    ) -> StagingKernel {
        assert!(AccelConfig::BANKS.is_multiple_of(config.units), "units must divide the bank count");
        StagingKernel {
            name: format!("staging{index}"),
            index,
            units: config.units,
            lanes: config.lanes,
            weight_bytes_per_cycle: config.weight_bytes_per_cycle,
            banks,
            scratchpad,
            cmd,
            conv_out,
            pool_out,
            state: State::Idle,
            conv_counters: None,
            pool_counter: None,
        }
    }

    /// IFM channels this unit manages for a channel count.
    fn my_channels(&self, channels: u32) -> Vec<u32> {
        (0..channels).filter(|c| (*c as usize) % self.units == self.index).collect()
    }

    /// Builds the phase list for a conv instruction.
    fn build_conv(&self, instr: ConvInstr) -> ConvState {
        let group = &self.scratchpad[instr.wgt_base as usize..];
        let tile_index = index_tiles(group, instr.ifm_count as usize * self.lanes)
            .expect("driver wrote a well-formed scratchpad image");
        let weights = GroupWeights::from_index(group, &tile_index, instr.ifm_count as usize, self.lanes);
        let positions = instr.ofm_tile_rows as u32 * instr.ofm_tiles_x as u32;
        let my_ifms: Vec<u32> = self
            .my_channels(instr.ifm_count as u32)
            .into_iter()
            .filter(|&i| weights.steps(i as usize) > 0)
            .collect();
        let mut phases = Vec::with_capacity(positions as usize * my_ifms.len());
        for pos in 0..positions {
            for (k, &ifm) in my_ifms.iter().enumerate() {
                let steps = weights.steps(ifm as usize) as u32;
                let wfetch = (weights.ifm_bytes(ifm as usize) as u32).div_ceil(self.weight_bytes_per_cycle as u32);
                phases.push(Phase {
                    pos,
                    ifm,
                    steps,
                    budget: 4u32.max(steps).max(wfetch),
                    last_of_pos: k + 1 == my_ifms.len(),
                });
            }
        }
        let marker_only_positions = if my_ifms.is_empty() { positions } else { 0 };
        ConvState {
            instr,
            tile_index,
            phases,
            phase_idx: 0,
            t: 0,
            region: [Sm8::ZERO; 64],
            next_region: [Sm8::ZERO; 64],
            fill: 4,
            marker: false,
            marker_only_positions,
        }
    }

    /// Reads one tile of the quad of phase `p` through port A, charging
    /// the read; out-of-range tiles are zero without a bank access.
    fn fetch_quad_tile(&self, instr: &ConvInstr, p: &Phase, quad_idx: u32, cycle: u64) -> Tile<Sm8> {
        let (r, c) = ((quad_idx / 2) as usize, (quad_idx % 2) as usize);
        let positions_x = instr.ofm_tiles_x as usize;
        let (ty, tx) = ((p.pos as usize) / positions_x, (p.pos as usize) % positions_x);
        let row = ty + instr.ifm_row_offset as usize + r;
        let col = tx + c;
        if row >= instr.ifm_tile_rows as usize || col >= instr.ifm_tiles_x as usize {
            return Tile::zero();
        }
        let layout = FmLayout {
            base: instr.ifm_base as usize,
            channels: instr.ifm_count as usize,
            tiles_x: instr.ifm_tiles_x as usize,
            tile_rows: instr.ifm_tile_rows as usize,
        };
        let bank = FmLayout::bank_of(p.ifm as usize);
        let addr = layout.addr(p.ifm as usize, row, col);
        self.banks
            .borrow_mut()
            .read_port_a(bank, addr, cycle)
            .expect("staging unit owns port A of its bank(s)")
    }

    fn place_quad_tile(region: &mut [Sm8; 64], quad_idx: u32, tile: &Tile<Sm8>) {
        let (r, c) = ((quad_idx / 2) as usize, (quad_idx % 2) as usize);
        for y in 0..4 {
            for x in 0..4 {
                region[(r * 4 + y) * 8 + c * 4 + x] = tile[(y, x)];
            }
        }
    }

    /// The `t`-th packed entry of each lane's tile for channel `ifm`, read
    /// out of the scratchpad stream; `None` past a lane's non-zero count.
    fn lane_entries(&self, st: &ConvState, ifm: u32, t: u32) -> [Option<PackedEntry>; 4] {
        let group = &self.scratchpad[st.instr.wgt_base as usize..];
        let tiles = &st.tile_index[ifm as usize * self.lanes..][..self.lanes];
        std::array::from_fn(|lane| PackedTile::at(group, *tiles.get(lane)? as usize).entry(t as usize))
    }

    fn tick_conv(&mut self, ctx: &mut Ctx<'_, Msg>) -> Progress {
        // Take the state out to sidestep borrow conflicts with &self.
        let State::Conv(mut st) = std::mem::replace(&mut self.state, State::Idle) else {
            unreachable!("tick_conv called in conv state");
        };
        let progress = self.tick_conv_inner(&mut st, ctx);
        self.state = if conv_finished(&st) { State::Idle } else { State::Conv(st) };
        progress
    }

    fn tick_conv_inner(&mut self, st: &mut ConvState, ctx: &mut Ctx<'_, Msg>) -> Progress {
        // Fully-pruned group: emit one end-of-position marker per position.
        if st.marker_only_positions > 0 {
            return match ctx.fifos.try_push(self.conv_out, Msg::EndPosition) {
                Ok(()) => {
                    st.marker_only_positions -= 1;
                    Progress::Busy
                }
                Err(_) => Progress::Blocked,
            };
        }
        if st.phases.is_empty() {
            return Progress::Busy; // zero-position instruction; finishes immediately
        }

        // Pipeline prologue: fill the first quad, 1 tile per cycle.
        if st.fill > 0 {
            let quad_idx = 4 - st.fill;
            let tile = self.fetch_quad_tile(&st.instr, &st.phases[0], quad_idx, ctx.cycle);
            Self::place_quad_tile(&mut st.region, quad_idx, &tile);
            st.fill -= 1;
            return Progress::Busy;
        }

        // Pending end-of-position marker occupies its own FIFO slot.
        if st.marker {
            return match ctx.fifos.try_push(self.conv_out, Msg::EndPosition) {
                Ok(()) => {
                    st.marker = false;
                    Progress::Busy
                }
                Err(_) => Progress::Blocked,
            };
        }

        let phase = st.phases[st.phase_idx].clone();

        // Work push first: if the FIFO is full we stall the whole cycle
        // (prefetch shares the stall, as in hardware where the pipeline
        // enable gates both).
        if st.t < phase.steps {
            let lanes = self.lane_entries(st, phase.ifm, st.t);
            let work = Msg::ConvWork(ConvWork { region: st.region, lanes });
            if ctx.fifos.try_push(self.conv_out, work).is_err() {
                return Progress::Blocked;
            }
            let active = lanes.iter().filter(|l| l.is_some()).count() as u64;
            let (applied, macs, bubbles) = *self.conv_counters.get_or_insert_with(|| {
                (
                    ctx.counters.intern("weights_applied"),
                    ctx.counters.intern("macs"),
                    ctx.counters.intern("bubble_lanes"),
                )
            });
            ctx.counters.add_id(applied, active);
            ctx.counters.add_id(macs, active * 16);
            ctx.counters.add_id(bubbles, self.lanes as u64 - active);
        }

        // Prefetch one tile of the next phase's quad during cycles 0..4.
        if st.t < 4 {
            if let Some(next) = st.phases.get(st.phase_idx + 1) {
                let tile = self.fetch_quad_tile(&st.instr, next, st.t, ctx.cycle);
                Self::place_quad_tile(&mut st.next_region, st.t, &tile);
            }
        }

        st.t += 1;
        if st.t == phase.budget {
            // Phase complete: rotate the prefetched quad in.
            st.t = 0;
            st.phase_idx += 1;
            st.region = st.next_region;
            if phase.last_of_pos {
                st.marker = true;
            }
        }
        Progress::Busy
    }

    fn build_pool(&self, instr: PoolPadInstr) -> PoolState {
        PoolState {
            instr,
            channels: self.my_channels(instr.channels as u32),
            ch_idx: 0,
            tile_idx: 0,
            program: Vec::new(),
            op_idx: 0,
        }
    }

    fn tick_pool(&mut self, ctx: &mut Ctx<'_, Msg>) -> Progress {
        let State::Pool(mut st) = std::mem::replace(&mut self.state, State::Idle) else {
            unreachable!("tick_pool called in pool state");
        };
        let progress = self.tick_pool_inner(&mut st, ctx);
        let finished = st.ch_idx >= st.channels.len();
        self.state = if finished { State::Idle } else { State::Pool(st) };
        progress
    }

    fn tick_pool_inner(&mut self, st: &mut PoolState, ctx: &mut Ctx<'_, Msg>) -> Progress {
        let instr = st.instr;
        let positions = instr.out_tile_rows as u32 * instr.out_tiles_x as u32;
        if st.channels.is_empty() || positions == 0 {
            st.ch_idx = st.channels.len();
            return Progress::Busy;
        }
        let c = st.channels[st.ch_idx] as usize;

        // (Re)compile the program at each output-tile boundary.
        if st.op_idx == 0 && st.program.is_empty() {
            let oty_local = (st.tile_idx / instr.out_tiles_x as u32) as usize;
            let otx = (st.tile_idx % instr.out_tiles_x as u32) as usize;
            st.program = compile_tile_program(instr.op, instr.out_row_start as usize + oty_local, otx);
            // A fully-border output tile (possible only in degenerate
            // geometries) still costs one cycle to write zeros.
            if st.program.is_empty() {
                st.program.push(MicroOp {
                    in_ty: -1,
                    in_tx: -1,
                    sels: [crate::poolpad::MaxSel::IDLE; 4],
                });
            }
        }

        let mop = st.program[st.op_idx];
        // Fetch the input tile (global coords -> stripe-local).
        let local_ty = mop.in_ty - instr.in_row_start as isize;
        let input = if local_ty < 0
            || mop.in_tx < 0
            || local_ty >= instr.in_tile_rows as isize
            || mop.in_tx >= instr.in_tiles_x as isize
        {
            Tile::zero()
        } else {
            let layout = FmLayout {
                base: instr.in_base as usize,
                channels: instr.channels as usize,
                tiles_x: instr.in_tiles_x as usize,
                tile_rows: instr.in_tile_rows as usize,
            };
            let addr = layout.addr(c, local_ty as usize, mop.in_tx as usize);
            self.banks
                .borrow_mut()
                .read_port_a(FmLayout::bank_of(c), addr, ctx.cycle)
                .expect("staging unit owns port A of its bank(s)")
        };

        let last = st.op_idx + 1 == st.program.len();
        let oty_local = st.tile_idx / instr.out_tiles_x as u32;
        let otx = st.tile_idx % instr.out_tiles_x as u32;
        let out_addr = instr.out_base
            + (c as u32 / AccelConfig::BANKS as u32)
                * instr.out_tile_rows as u32
                * instr.out_tiles_x as u32
            + oty_local * instr.out_tiles_x as u32
            + otx;
        let msg = Msg::PoolWork(PoolWork {
            input,
            sels: mop.sels,
            last,
            out_bank: FmLayout::bank_of(c) as u8,
            out_addr,
        });
        if ctx.fifos.try_push(self.pool_out, msg).is_err() {
            // The fetched read is replayed next cycle; hardware would gate
            // the read enable, so un-charge is not needed (the retry is a
            // second read, matching a stalled pipeline holding its request).
            return Progress::Blocked;
        }
        let pool_ops = *self.pool_counter.get_or_insert_with(|| ctx.counters.intern("pool_microops"));
        ctx.counters.add_id(pool_ops, 1);

        st.op_idx += 1;
        if st.op_idx == st.program.len() {
            st.op_idx = 0;
            st.program.clear();
            st.tile_idx += 1;
            if st.tile_idx == positions {
                st.tile_idx = 0;
                st.ch_idx += 1;
            }
        }
        Progress::Busy
    }
}

fn conv_finished(st: &ConvState) -> bool {
    st.marker_only_positions == 0 && !st.marker && (st.phases.is_empty() || st.phase_idx >= st.phases.len())
}

impl Kernel<Msg> for StagingKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Ctx<'_, Msg>) -> Progress {
        match &self.state {
            State::Finished => Progress::Done,
            State::Idle => match ctx.fifos.try_pop(self.cmd) {
                Some(Msg::Cmd(Instruction::Conv(i))) => {
                    self.state = State::Conv(Box::new(self.build_conv(i)));
                    Progress::Busy
                }
                Some(Msg::Cmd(Instruction::PoolPad(i))) => {
                    self.state = State::Pool(self.build_pool(i));
                    Progress::Busy
                }
                Some(Msg::Shutdown) => {
                    self.state = State::Finishing { conv_sent: false, pool_sent: false };
                    Progress::Busy
                }
                Some(other) => panic!("staging received unexpected message {other:?}"),
                None => Progress::Idle,
            },
            State::Finishing { conv_sent, pool_sent } => {
                let (mut conv_sent, mut pool_sent) = (*conv_sent, *pool_sent);
                if !conv_sent && ctx.fifos.try_push(self.conv_out, Msg::Shutdown).is_ok() {
                    conv_sent = true;
                }
                if !pool_sent && ctx.fifos.try_push(self.pool_out, Msg::Shutdown).is_ok() {
                    pool_sent = true;
                }
                if conv_sent && pool_sent {
                    self.state = State::Finished;
                    Progress::Done
                } else {
                    self.state = State::Finishing { conv_sent, pool_sent };
                    Progress::Blocked
                }
            }
            State::Conv(_) => self.tick_conv(ctx),
            State::Pool(_) => self.tick_pool(ctx),
        }
    }
}
