//! The convolution unit kernel.
//!
//! Each cycle it accepts one [`ConvWork`] item: a quad region of IFM data
//! and up to four packed weights (one per filter lane). For each present
//! lane it performs 16 sign+magnitude multiplies — the weight's intra-tile
//! offset steers which 4x4 window of the quad region feeds the multipliers
//! (paper Fig. 4b) — and forwards the 16 products to that lane's
//! accumulator. 4 lanes x 16 = 64 multiplies per cycle per unit; four
//! units give the paper's 256 multiplications per cycle.

use super::msg::{ConvWork, Msg};
use std::rc::Rc;
use zskip_sim::{Ctx, FifoId, Kernel, Progress};
use zskip_tensor::offset_to_dydx;

/// The convolution unit.
pub struct ConvKernel {
    name: String,
    /// Work/marker input from the staging unit.
    input: FifoId,
    /// One output FIFO per accumulator lane.
    lane_out: Rc<[FifoId]>,
}

impl ConvKernel {
    /// Creates conv unit `index` with its lane output FIFOs.
    pub fn new(index: usize, input: FifoId, lane_out: Rc<[FifoId]>) -> ConvKernel {
        ConvKernel { name: format!("conv{index}"), input, lane_out }
    }

    /// The steering network + multipliers for one lane (Fig. 4b).
    fn multiply(work: &ConvWork, lane: usize) -> Option<[i32; 16]> {
        let entry = work.lanes[lane]?;
        let (dy, dx) = offset_to_dydx(entry.offset);
        let mut products = [0i32; 16];
        for (j, p) in products.iter_mut().enumerate() {
            let (jy, jx) = (j / 4, j % 4);
            // The weight's offset selects the 4x4 window of the 8x8 quad
            // region that aligns with the OFM tile.
            let v = work.region[(dy + jy) * 8 + (dx + jx)];
            *p = entry.value.mul_exact(v);
        }
        Some(products)
    }
}

impl Kernel<Msg> for ConvKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Ctx<'_, Msg>) -> Progress {
        // Structural hazard check: every lane FIFO must have room before
        // we commit to popping (the hardware pipeline stalls as a whole).
        for &f in self.lane_out.iter() {
            if !ctx.fifos.has_room(f) {
                return if ctx.fifos.is_empty(self.input) { Progress::Idle } else { Progress::Blocked };
            }
        }
        match ctx.fifos.try_pop(self.input) {
            Some(Msg::ConvWork(work)) => {
                for (lane, &f) in self.lane_out.iter().enumerate() {
                    if let Some(products) = Self::multiply(&work, lane) {
                        ctx.fifos.try_push(f, Msg::Products(products)).expect("room checked above");
                    }
                }
                Progress::Busy
            }
            Some(Msg::EndPosition) => {
                for &f in self.lane_out.iter() {
                    ctx.fifos.try_push(f, Msg::AccumEnd).expect("room checked above");
                }
                Progress::Busy
            }
            Some(Msg::Shutdown) => Progress::Done,
            Some(other) => panic!("conv unit received unexpected message {other:?}"),
            None => Progress::Idle,
        }
    }
}
