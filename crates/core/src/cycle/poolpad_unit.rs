//! The padding/max-pooling unit kernel (paper Fig. 5).
//!
//! Holds one OFM tile of output registers; each cycle applies one micro-op
//! (four MAX-unit selections over the incoming IFM tile, routed to the
//! output registers through the update muxes). When the micro-op marked
//! `last` lands, the completed tile ships to the write-to-memory unit and
//! the registers clear.

use super::msg::Msg;
use crate::poolpad::apply_micro_op;
use crate::poolpad::MicroOp;
use zskip_quant::Sm8;
use zskip_sim::{CounterId, Ctx, FifoId, Kernel, Progress};
use zskip_tensor::Tile;

/// The pool/pad unit.
pub struct PoolPadKernel {
    name: String,
    input: FifoId,
    out: FifoId,
    reg: Tile<Sm8>,
    finished: bool,
    /// Interned `max_ops` id — fires on every micro-op.
    max_ops_counter: Option<CounterId>,
}

impl PoolPadKernel {
    /// Creates pool/pad unit `index`.
    pub fn new(index: usize, input: FifoId, out: FifoId) -> PoolPadKernel {
        PoolPadKernel {
            name: format!("poolpad{index}"),
            input,
            out,
            reg: Tile::zero(),
            finished: false,
            max_ops_counter: None,
        }
    }
}

impl Kernel<Msg> for PoolPadKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Ctx<'_, Msg>) -> Progress {
        if self.finished {
            return Progress::Done;
        }
        // Hold off when the output FIFO cannot take a completed tile; the
        // whole unit stalls (one pipeline enable, as in hardware).
        if !ctx.fifos.has_room(self.out) {
            return if ctx.fifos.is_empty(self.input) { Progress::Idle } else { Progress::Blocked };
        }
        match ctx.fifos.try_pop(self.input) {
            Some(Msg::PoolWork(work)) => {
                let mop = MicroOp { in_ty: 0, in_tx: 0, sels: work.sels };
                apply_micro_op(&mut self.reg, &work.input, &mop);
                let max_ops =
                    *self.max_ops_counter.get_or_insert_with(|| ctx.counters.intern("max_ops"));
                ctx.counters.add_id(max_ops, work.sels.iter().filter(|s| s.mask != 0).count() as u64);
                if work.last {
                    let tile = std::mem::replace(&mut self.reg, Tile::zero());
                    ctx.fifos
                        .try_push(self.out, Msg::OfmTile { bank: work.out_bank, addr: work.out_addr, tile })
                        .expect("room checked above");
                }
                Progress::Busy
            }
            Some(Msg::Shutdown) => {
                self.finished = true;
                Progress::Done
            }
            Some(other) => panic!("pool/pad unit received unexpected message {other:?}"),
            None => Progress::Idle,
        }
    }
}
