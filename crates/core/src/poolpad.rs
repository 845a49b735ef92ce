//! Micro-op programs for the padding/max-pooling unit (paper Fig. 5).
//!
//! The unit holds one OFM tile of output registers, four MAX units that
//! each select the maximum over any subset of the 16 values of the
//! incoming IFM tile, and 16 output muxes that either update a value from
//! a MAX unit or retain it. "With just a few instructions, the
//! padding/max-pooling unit is capable of realizing any padding/max-pooling
//! layer (e.g. a variety of max-pooling region sizes or strides)."
//!
//! A [`MicroOp`] is one such instruction: an input tile address plus up to
//! four (mask, destination, merge) selections. [`compile_tile_program`]
//! compiles the geometry of a pooling or padding layer into the micro-op
//! sequence for one output tile; the same program drives the cycle-exact
//! kernel and the transaction-level model, and its length is the cycle
//! cost.

use crate::isa::PoolPadOp;
use zskip_quant::Sm8;
use zskip_tensor::{Tile, TILE_DIM, TILE_ELEMS};

/// One MAX-unit selection within a micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxSel {
    /// Bitmask over the 16 input-tile values (bit `i` = row-major index
    /// `i`). Zero means this MAX unit idles this cycle.
    pub mask: u16,
    /// Output register (0..16) to update.
    pub out_idx: u8,
    /// `true`: output takes `max(old, new)`; `false`: overwrite.
    pub merge: bool,
}

impl MaxSel {
    /// An idle MAX-unit slot.
    pub const IDLE: MaxSel = MaxSel { mask: 0, out_idx: 0, merge: false };
}

/// One cycle of the pool/pad unit: read one input tile, fire up to four
/// MAX units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroOp {
    /// Input tile row (in the input tile grid; may be out of range, which
    /// reads as a zero tile).
    pub in_ty: isize,
    /// Input tile column.
    pub in_tx: isize,
    /// The four MAX-unit selections.
    pub sels: [MaxSel; 4],
}

/// Applies one micro-op to an output tile given the fetched input tile.
pub fn apply_micro_op(out: &mut Tile<Sm8>, input: &Tile<Sm8>, op: &MicroOp) {
    for sel in &op.sels {
        if sel.mask == 0 {
            continue;
        }
        let mut m: Option<Sm8> = None;
        for i in 0..TILE_ELEMS {
            if sel.mask & (1 << i) != 0 {
                let v = input.as_array()[i];
                m = Some(match m {
                    None => v,
                    Some(cur) => cur.max(v),
                });
            }
        }
        let v = m.expect("non-zero mask has at least one value");
        let slot = &mut out.as_mut_array()[sel.out_idx as usize];
        *slot = if sel.merge { (*slot).max(v) } else { v };
    }
}

/// Compiles the micro-op program computing output tile `(oty, otx)` of a
/// pooling or padding layer. Input tile coordinates in the returned ops
/// are global to the input tile grid; out-of-range tiles read as zero.
///
/// The program length is the unit's cycle cost for this output tile.
///
/// # Panics
/// Panics on degenerate geometry (`k == 0` or `stride == 0`).
pub fn compile_tile_program(op: PoolPadOp, oty: usize, otx: usize) -> Vec<MicroOp> {
    // For each output value j (0..16), the list of (input tile, cell mask)
    // contributions.
    let mut contributions: Vec<Vec<((isize, isize), u16)>> = vec![Vec::new(); TILE_ELEMS];

    for (j, contribution) in contributions.iter_mut().enumerate() {
        let jy = j / TILE_DIM;
        let jx = j % TILE_DIM;
        let oy = (oty * TILE_DIM + jy) as isize;
        let ox = (otx * TILE_DIM + jx) as isize;
        let cells: Vec<(isize, isize)> = match op {
            PoolPadOp::MaxPool { k, stride } => {
                assert!(k > 0 && stride > 0, "degenerate pooling geometry");
                let (k, s) = (k as isize, stride as isize);
                (0..k).flat_map(|dy| (0..k).map(move |dx| (oy * s + dy, ox * s + dx))).collect()
            }
            PoolPadOp::Pad { amount } => {
                let a = amount as isize;
                let iy = oy - a;
                let ix = ox - a;
                if iy < 0 || ix < 0 {
                    Vec::new() // border: output register stays zero
                } else {
                    vec![(iy, ix)]
                }
            }
        };
        for (iy, ix) in cells {
            if iy < 0 || ix < 0 {
                continue; // out-of-range input reads as zero; max with 0 is
                          // wrong for negatives, so simply skip the cell —
                          // pooling windows in valid layers never hang off
                          // the top/left edge.
            }
            let t = (iy / TILE_DIM as isize, ix / TILE_DIM as isize);
            let cell = (iy % TILE_DIM as isize) * TILE_DIM as isize + ix % TILE_DIM as isize;
            match contribution.iter_mut().find(|(tile, _)| *tile == t) {
                Some((_, mask)) => *mask |= 1 << cell,
                None => contribution.push((t, 1u16 << cell)),
            }
        }
    }

    // Flatten to (tile, j, mask, merge) slots: the first contribution per
    // output value overwrites, the rest merge.
    let mut slots: Vec<((isize, isize), MaxSel)> = Vec::new();
    for (j, contribs) in contributions.iter().enumerate() {
        for (n, (tile, mask)) in contribs.iter().enumerate() {
            slots.push((*tile, MaxSel { mask: *mask, out_idx: j as u8, merge: n > 0 }));
        }
    }

    // Pack slots into micro-ops: group by input tile (preserving the
    // merge-after-overwrite order per output value), four slots per cycle.
    // Sort stably by tile so each tile's slots are contiguous.
    slots.sort_by_key(|(tile, _)| *tile);
    let mut ops = Vec::new();
    let mut i = 0;
    while i < slots.len() {
        let tile = slots[i].0;
        let mut sels = [MaxSel::IDLE; 4];
        let mut n = 0;
        while i < slots.len() && slots[i].0 == tile && n < 4 {
            sels[n] = slots[i].1;
            n += 1;
            i += 1;
        }
        ops.push(MicroOp { in_ty: tile.0, in_tx: tile.1, sels });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use zskip_nn::pool::maxpool_quant;
    use zskip_tensor::{Tensor, TiledFeatureMap};

    /// Executes the full program for one output tile, fetching input tiles via
    /// the closure: the micro-op semantics the cycle kernel executes against
    /// the banks one cycle at a time, held here to `maxpool_quant`.
    fn run_tile_program(
        op: PoolPadOp,
        oty: usize,
        otx: usize,
        mut fetch: impl FnMut(isize, isize) -> Tile<Sm8>,
    ) -> (Tile<Sm8>, usize) {
        let program = compile_tile_program(op, oty, otx);
        let cycles = program.len();
        let mut out = Tile::zero();
        for mop in &program {
            let input = fetch(mop.in_ty, mop.in_tx);
            apply_micro_op(&mut out, &input, mop);
        }
        (out, cycles)
    }

    fn quantize(t: &Tensor<i32>) -> Tensor<Sm8> {
        t.map(Sm8::from_i32_saturating)
    }

    fn run_layer(input: &Tensor<Sm8>, op: PoolPadOp, out_h: usize, out_w: usize) -> Tensor<Sm8> {
        let tiled = TiledFeatureMap::from_tensor(input);
        let out_tiles_y = out_h.div_ceil(TILE_DIM);
        let out_tiles_x = out_w.div_ceil(TILE_DIM);
        let mut out = TiledFeatureMap::zeros(zskip_tensor::Shape::new(input.shape().c, out_h, out_w));
        for c in 0..input.shape().c {
            for oty in 0..out_tiles_y {
                for otx in 0..out_tiles_x {
                    let (tile, _) = run_tile_program(op, oty, otx, |ty, tx| tiled.tile_or_zero(c, ty, tx));
                    *out.tile_mut(c, oty, otx) = tile;
                }
            }
        }
        out.to_tensor().cropped(out_h, out_w)
    }

    #[test]
    fn pool_2x2_matches_reference_and_costs_4_cycles_per_tile() {
        let input = quantize(&Tensor::from_fn(2, 16, 16, |c, y, x| ((c * 97 + y * 17 + x * 3) % 255) as i32 - 127));
        let got = run_layer(&input, PoolPadOp::MaxPool { k: 2, stride: 2 }, 8, 8);
        let want = maxpool_quant(&input, 2, 2);
        assert_eq!(got, want);
        // Cost: 2x2/s2 output tile reads 4 input tiles, 1 cycle each.
        let prog = compile_tile_program(PoolPadOp::MaxPool { k: 2, stride: 2 }, 0, 0);
        assert_eq!(prog.len(), 4);
    }

    #[test]
    fn pool_3x3_stride_2_matches_reference() {
        let input = quantize(&Tensor::from_fn(1, 19, 19, |_, y, x| ((y * 19 + x) % 250) as i32 - 125));
        // out = (19 - 3)/2 + 1 = 9.
        let got = run_layer(&input, PoolPadOp::MaxPool { k: 3, stride: 2 }, 9, 9);
        let want = maxpool_quant(&input, 3, 2);
        assert_eq!(got, want);
    }

    #[test]
    fn pool_handles_all_negative_inputs() {
        // Regression guard: output registers initialize to zero, so merge
        // order must ensure the first contribution overwrites.
        let input = quantize(&Tensor::from_fn(1, 8, 8, |_, y, x| -((y * 8 + x) as i32) - 1));
        let got = run_layer(&input, PoolPadOp::MaxPool { k: 2, stride: 2 }, 4, 4);
        let want = maxpool_quant(&input, 2, 2);
        assert_eq!(got, want);
        assert!(got.as_slice().iter().all(|v| v.to_i32() < 0));
    }

    #[test]
    fn pad_matches_reference() {
        let input = quantize(&Tensor::from_fn(2, 6, 6, |c, y, x| (c as i32 + 1) * ((y * 6 + x) as i32 - 17)));
        let got = run_layer(&input, PoolPadOp::Pad { amount: 1 }, 8, 8);
        let want = input.padded(1);
        assert_eq!(got, want);
    }

    #[test]
    fn pad_2_matches_reference() {
        let input = quantize(&Tensor::from_fn(1, 5, 7, |_, y, x| (y * 7 + x) as i32 - 10));
        let got = run_layer(&input, PoolPadOp::Pad { amount: 2 }, 9, 11);
        let want = input.padded(2);
        assert_eq!(got, want);
    }

    #[test]
    fn interior_pad_tile_costs_few_cycles() {
        // A pad-by-1 output tile draws from at most 4 input tiles with
        // 1+3+3+9 values: ceil costs 1+1+1+3 = 6 cycles.
        let prog = compile_tile_program(PoolPadOp::Pad { amount: 1 }, 1, 1);
        assert!(prog.len() <= 6, "prog len {}", prog.len());
    }

    #[test]
    fn max_units_never_exceed_four_per_cycle() {
        for op in [PoolPadOp::MaxPool { k: 3, stride: 1 }, PoolPadOp::MaxPool { k: 2, stride: 2 }, PoolPadOp::Pad { amount: 1 }] {
            for oty in 0..3 {
                for otx in 0..3 {
                    for mop in compile_tile_program(op, oty, otx) {
                        let active = mop.sels.iter().filter(|s| s.mask != 0).count();
                        assert!((1..=4).contains(&active));
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn arbitrary_pooling_matches_reference(
            vals in proptest::collection::vec(-127i32..=127, 144),
            k in 1u8..=4,
            stride in 1u8..=3,
        ) {
            let input = quantize(&Tensor::from_vec(1, 12, 12, vals));
            let out_h = (12 - k as usize) / stride as usize + 1;
            let got = run_layer(&input, PoolPadOp::MaxPool { k, stride }, out_h, out_h);
            let want = maxpool_quant(&input, k as usize, stride as usize);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn arbitrary_padding_matches_reference(
            vals in proptest::collection::vec(-127i32..=127, 36),
            amount in 1u8..=3,
        ) {
            let input = quantize(&Tensor::from_vec(1, 6, 6, vals));
            let a = amount as usize;
            let got = run_layer(&input, PoolPadOp::Pad { amount }, 6 + 2 * a, 6 + 2 * a);
            prop_assert_eq!(got, input.padded(a));
        }
    }
}
