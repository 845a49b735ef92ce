//! The write-to-memory unit kernel.
//!
//! Drains completed OFM tiles (from its accumulator lane and its pool/pad
//! unit) into the SRAM banks through port B, one tile per cycle, and
//! reports instruction completion to the main controller once the expected
//! number of tiles has landed.

use super::msg::Msg;
use crate::bank::BankSet;
use std::cell::RefCell;
use std::rc::Rc;
use zskip_sim::{CounterId, Ctx, FifoId, Kernel, Progress};

/// The write-to-memory unit.
pub struct WriteKernel {
    name: String,
    banks: Rc<RefCell<BankSet>>,
    cmd: FifoId,
    /// Tile inputs: accumulator lane output and pool/pad output.
    inputs: Vec<FifoId>,
    done_out: FifoId,
    expected: Option<u32>,
    written: u32,
    finished: bool,
    /// Interned `ofm_tiles_written` id — fires on every tile landed.
    tiles_counter: Option<CounterId>,
}

impl WriteKernel {
    /// Creates write unit `index` draining the given tile FIFOs.
    pub fn new(
        index: usize,
        banks: Rc<RefCell<BankSet>>,
        cmd: FifoId,
        inputs: Vec<FifoId>,
        done_out: FifoId,
    ) -> WriteKernel {
        WriteKernel {
            name: format!("write{index}"),
            banks,
            cmd,
            inputs,
            done_out,
            expected: None,
            written: 0,
            finished: false,
            tiles_counter: None,
        }
    }
}

impl Kernel<Msg> for WriteKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut Ctx<'_, Msg>) -> Progress {
        if self.finished {
            return Progress::Done;
        }
        let Some(expected) = self.expected else {
            return match ctx.fifos.try_pop(self.cmd) {
                Some(Msg::WriteExpect(n)) => {
                    self.expected = Some(n);
                    self.written = 0;
                    Progress::Busy
                }
                Some(Msg::Shutdown) => {
                    self.finished = true;
                    Progress::Done
                }
                Some(other) => panic!("write unit received unexpected message {other:?}"),
                None => Progress::Idle,
            };
        };

        if self.written == expected {
            return match ctx.fifos.try_push(self.done_out, Msg::Done) {
                Ok(()) => {
                    self.expected = None;
                    Progress::Busy
                }
                Err(_) => Progress::Blocked,
            };
        }

        // One tile write per cycle: take the first available input.
        for &f in &self.inputs {
            match ctx.fifos.try_pop(f) {
                Some(Msg::OfmTile { bank, addr, tile }) => {
                    let ok =
                        self.banks.borrow_mut().write_port_b(bank as usize, addr as usize, tile, ctx.cycle);
                    assert!(ok, "write unit owns port B of its bank(s)");
                    let tiles = *self
                        .tiles_counter
                        .get_or_insert_with(|| ctx.counters.intern("ofm_tiles_written"));
                    ctx.counters.add_id(tiles, 1);
                    self.written += 1;
                    return Progress::Busy;
                }
                Some(other) => panic!("write unit received unexpected message {other:?}"),
                None => continue,
            }
        }
        Progress::Blocked
    }
}
