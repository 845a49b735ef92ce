//! The accelerator instruction set.
//!
//! The ARM host "issues instructions to the DMA and accelerator by writing
//! to the memory mapped address" (paper §III); the data-staging/control
//! units "receive an instruction from the ARM processor to perform
//! convolution, padding, or max-pooling" (§III-A). Instructions are
//! fixed-size 48-byte records with a binary encoding so the stream can be
//! staged through DDR and DMA like any other data.

use crate::layout::FmLayout;
use std::fmt;
use zskip_nn::conv::QuantConvWeights;

/// A value too wide for the instruction field it was meant for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldOverflow {
    /// The field's name.
    pub field: &'static str,
    /// The value that does not fit.
    pub value: usize,
}

impl fmt::Display for FieldOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {} does not fit its instruction field", self.field, self.value)
    }
}

impl std::error::Error for FieldOverflow {}

/// Narrows `value` to the width of instruction field `field`.
pub(crate) fn narrow<T: TryFrom<usize>>(field: &'static str, value: usize) -> Result<T, FieldOverflow> {
    T::try_from(value).map_err(|_| FieldOverflow { field, value })
}

/// A convolution instruction: compute a stripe of one OFM group
/// (`lanes` consecutive output channels) to completion, output-stationary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvInstr {
    /// First output channel of the group (a multiple of the lane count).
    pub ofm_first: u16,
    /// Number of input channels.
    pub ifm_count: u16,
    /// IFM stripe: base word address within each bank.
    pub ifm_base: u32,
    /// IFM tiles per row (padded layout).
    pub ifm_tiles_x: u16,
    /// IFM tile rows resident (stripe height incl. halo).
    pub ifm_tile_rows: u16,
    /// First IFM tile row (stripe-local) anchoring output row 0.
    pub ifm_row_offset: u16,
    /// OFM stripe: base word address within each bank.
    pub ofm_base: u32,
    /// OFM tiles per row.
    pub ofm_tiles_x: u16,
    /// OFM tile rows computed by this instruction.
    pub ofm_tile_rows: u16,
    /// Scratchpad byte offset of the group's packed weights.
    pub wgt_base: u32,
    /// Per-lane bias, in accumulator domain.
    pub bias: [i32; 4],
    /// Requantizer multiplier (16-bit).
    pub requant_mult: u16,
    /// Requantizer right-shift.
    pub requant_shift: u8,
    /// Whether ReLU is fused before requantization.
    pub relu: bool,
    /// Number of active lanes (< lane count only for the ragged final
    /// group of a layer whose output-channel count is not a multiple of
    /// the lane count).
    pub active_lanes: u8,
}

impl ConvInstr {
    /// The instruction computing the OFM group `[ofm_first, ofm_first +
    /// lanes)` of layer `qw` over the resident stripe `ifm` into `ofm`,
    /// with the group's packed weights at scratchpad byte `wgt_base`:
    /// bias (clamped to the 32-bit field), requantizer and ReLU come from
    /// the layer, `active_lanes` from what is left of `out_c`.
    ///
    /// # Errors
    /// [`FieldOverflow`] names the first value wider than its field — a
    /// wrapped field would silently address other channels or tiles.
    pub fn for_group(
        qw: &QuantConvWeights,
        ofm_first: usize,
        lanes: usize,
        ifm: &FmLayout,
        ifm_row_offset: usize,
        ofm: &FmLayout,
        wgt_base: usize,
    ) -> Result<ConvInstr, FieldOverflow> {
        let active = lanes.min(qw.out_c.saturating_sub(ofm_first));
        let mut bias = [0i32; 4];
        for (b, &acc) in bias.iter_mut().take(active).zip(qw.bias_acc().iter().skip(ofm_first)) {
            *b = acc.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
        }
        Ok(ConvInstr {
            ofm_first: narrow("ofm_first", ofm_first)?,
            ifm_count: narrow("ifm_count", qw.in_c)?,
            ifm_base: narrow("ifm_base", ifm.base)?,
            ifm_tiles_x: narrow("ifm_tiles_x", ifm.tiles_x)?,
            ifm_tile_rows: narrow("ifm_tile_rows", ifm.tile_rows)?,
            ifm_row_offset: narrow("ifm_row_offset", ifm_row_offset)?,
            ofm_base: narrow("ofm_base", ofm.base)?,
            ofm_tiles_x: narrow("ofm_tiles_x", ofm.tiles_x)?,
            ofm_tile_rows: narrow("ofm_tile_rows", ofm.tile_rows)?,
            wgt_base: narrow("wgt_base", wgt_base)?,
            bias,
            requant_mult: narrow("requant_mult", qw.requant().mult as usize)?,
            requant_shift: narrow("requant_shift", qw.requant().shift as usize)?,
            relu: qw.relu(),
            active_lanes: narrow("active_lanes", active)?,
        })
    }
}

/// Pool/pad operation selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolPadOp {
    /// Max-pooling with a `k x k` window and the given stride.
    MaxPool {
        /// Window edge length.
        k: u8,
        /// Stride.
        stride: u8,
    },
    /// Zero-pad the perimeter by `amount` elements.
    Pad {
        /// Padding on each side.
        amount: u8,
    },
}

/// A padding or max-pooling instruction over all channels of a stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolPadInstr {
    /// Number of channels.
    pub channels: u16,
    /// Input stripe base word address within each bank.
    pub in_base: u32,
    /// Input tiles per row.
    pub in_tiles_x: u16,
    /// Input tile rows resident.
    pub in_tile_rows: u16,
    /// Global input tile row resident at stripe-local row 0.
    pub in_row_start: u16,
    /// Output stripe base word address within each bank.
    pub out_base: u32,
    /// Output tiles per row.
    pub out_tiles_x: u16,
    /// Output tile rows produced by this instruction.
    pub out_tile_rows: u16,
    /// Global output tile row of stripe-local output row 0 (the pool/pad
    /// micro-op compiler works in global coordinates because the tile
    /// mapping of a strided window is not affine in tile space).
    pub out_row_start: u16,
    /// The operation.
    pub op: PoolPadOp,
}

impl PoolPadInstr {
    /// The instruction running `op` over all `input.channels` channels of
    /// the resident stripe `input` (whose local row 0 is global tile row
    /// `in_row_start`) into `output` (likewise `out_row_start`).
    ///
    /// # Errors
    /// [`FieldOverflow`] names the first value wider than its field.
    pub fn for_stripe(
        op: PoolPadOp,
        input: &FmLayout,
        in_row_start: usize,
        output: &FmLayout,
        out_row_start: usize,
    ) -> Result<PoolPadInstr, FieldOverflow> {
        Ok(PoolPadInstr {
            channels: narrow("channels", input.channels)?,
            in_base: narrow("in_base", input.base)?,
            in_tiles_x: narrow("in_tiles_x", input.tiles_x)?,
            in_tile_rows: narrow("in_tile_rows", input.tile_rows)?,
            in_row_start: narrow("in_row_start", in_row_start)?,
            out_base: narrow("out_base", output.base)?,
            out_tiles_x: narrow("out_tiles_x", output.tiles_x)?,
            out_tile_rows: narrow("out_tile_rows", output.tile_rows)?,
            out_row_start: narrow("out_row_start", out_row_start)?,
            op,
        })
    }
}

/// One accelerator instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instruction {
    /// Convolution over one OFM group stripe.
    Conv(ConvInstr),
    /// Padding or pooling over all channels of a stripe.
    PoolPad(PoolPadInstr),
}

impl Instruction {
    /// Where the instruction writes: the OFM stripe's layout and which of
    /// its channels — all a pool/pad instruction's, one group's for a
    /// convolution. It writes no other bank word.
    pub fn output(&self) -> (FmLayout, std::ops::Range<usize>) {
        match *self {
            Instruction::Conv(i) => {
                let channels = i.ofm_first as usize..i.ofm_first as usize + i.active_lanes as usize;
                let layout = FmLayout {
                    base: i.ofm_base as usize,
                    channels: channels.end,
                    tiles_x: i.ofm_tiles_x as usize,
                    tile_rows: i.ofm_tile_rows as usize,
                };
                (layout, channels)
            }
            Instruction::PoolPad(i) => {
                let layout = FmLayout {
                    base: i.out_base as usize,
                    channels: i.channels as usize,
                    tiles_x: i.out_tiles_x as usize,
                    tile_rows: i.out_tile_rows as usize,
                };
                (layout, 0..i.channels as usize)
            }
        }
    }
}

/// Encoded instruction size in bytes.
pub const INSTR_BYTES: usize = 48;

/// Instruction decode error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer than [`INSTR_BYTES`] bytes available.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Unknown pool/pad sub-operation.
    BadPoolOp(u8),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "instruction stream truncated"),
            DecodeError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DecodeError::BadPoolOp(op) => write!(f, "unknown pool/pad sub-op {op:#04x}"),
        }
    }
}

impl std::error::Error for DecodeError {}

struct Cursor<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn put_u8(&mut self, v: u8) {
        self.buf[self.pos] = v;
        self.pos += 1;
    }
    fn put_u16(&mut self, v: u16) {
        self.buf[self.pos..self.pos + 2].copy_from_slice(&v.to_le_bytes());
        self.pos += 2;
    }
    fn put_u32(&mut self, v: u32) {
        self.buf[self.pos..self.pos + 4].copy_from_slice(&v.to_le_bytes());
        self.pos += 4;
    }
    fn put_i32(&mut self, v: i32) {
        self.put_u32(v as u32);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> u8 {
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }
    fn u16(&mut self) -> u16 {
        let v = u16::from_le_bytes([self.buf[self.pos], self.buf[self.pos + 1]]);
        self.pos += 2;
        v
    }
    fn u32(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().expect("4 bytes"));
        self.pos += 4;
        v
    }
    fn i32(&mut self) -> i32 {
        self.u32() as i32
    }
}

impl Instruction {
    /// Encodes into the fixed 48-byte record.
    pub fn encode(&self) -> [u8; INSTR_BYTES] {
        let mut out = [0u8; INSTR_BYTES];
        let mut c = Cursor { buf: &mut out, pos: 0 };
        match self {
            Instruction::Conv(i) => {
                c.put_u8(1);
                c.put_u8(u8::from(i.relu));
                c.put_u16(i.ofm_first);
                c.put_u16(i.ifm_count);
                c.put_u32(i.ifm_base);
                c.put_u16(i.ifm_tiles_x);
                c.put_u16(i.ifm_tile_rows);
                c.put_u16(i.ifm_row_offset);
                c.put_u32(i.ofm_base);
                c.put_u16(i.ofm_tiles_x);
                c.put_u16(i.ofm_tile_rows);
                c.put_u32(i.wgt_base);
                for b in i.bias {
                    c.put_i32(b);
                }
                c.put_u16(i.requant_mult);
                c.put_u8(i.requant_shift);
                c.put_u8(i.active_lanes);
            }
            Instruction::PoolPad(i) => {
                c.put_u8(2);
                match i.op {
                    PoolPadOp::MaxPool { k, stride } => {
                        c.put_u8(1);
                        c.put_u8(k);
                        c.put_u8(stride);
                    }
                    PoolPadOp::Pad { amount } => {
                        c.put_u8(2);
                        c.put_u8(amount);
                        c.put_u8(0);
                    }
                }
                c.put_u16(i.channels);
                c.put_u32(i.in_base);
                c.put_u16(i.in_tiles_x);
                c.put_u16(i.in_tile_rows);
                c.put_u16(i.in_row_start);
                c.put_u32(i.out_base);
                c.put_u16(i.out_tiles_x);
                c.put_u16(i.out_tile_rows);
                c.put_u16(i.out_row_start);
            }
        }
        out
    }

    /// Decodes one instruction from the head of `bytes`.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on truncation or invalid opcodes.
    pub fn decode(bytes: &[u8]) -> Result<Instruction, DecodeError> {
        if bytes.len() < INSTR_BYTES {
            return Err(DecodeError::Truncated);
        }
        let mut r = Reader { buf: bytes, pos: 0 };
        match r.u8() {
            1 => {
                let relu = r.u8() != 0;
                let ofm_first = r.u16();
                let ifm_count = r.u16();
                let ifm_base = r.u32();
                let ifm_tiles_x = r.u16();
                let ifm_tile_rows = r.u16();
                let ifm_row_offset = r.u16();
                let ofm_base = r.u32();
                let ofm_tiles_x = r.u16();
                let ofm_tile_rows = r.u16();
                let wgt_base = r.u32();
                let bias = [r.i32(), r.i32(), r.i32(), r.i32()];
                let requant_mult = r.u16();
                let requant_shift = r.u8();
                let active_lanes = r.u8();
                Ok(Instruction::Conv(ConvInstr {
                    ofm_first,
                    ifm_count,
                    ifm_base,
                    ifm_tiles_x,
                    ifm_tile_rows,
                    ifm_row_offset,
                    ofm_base,
                    ofm_tiles_x,
                    ofm_tile_rows,
                    wgt_base,
                    bias,
                    requant_mult,
                    requant_shift,
                    relu,
                    active_lanes,
                }))
            }
            2 => {
                let sub = r.u8();
                let a = r.u8();
                let b = r.u8();
                let op = match sub {
                    1 => PoolPadOp::MaxPool { k: a, stride: b },
                    2 => PoolPadOp::Pad { amount: a },
                    other => return Err(DecodeError::BadPoolOp(other)),
                };
                Ok(Instruction::PoolPad(PoolPadInstr {
                    channels: r.u16(),
                    in_base: r.u32(),
                    in_tiles_x: r.u16(),
                    in_tile_rows: r.u16(),
                    in_row_start: r.u16(),
                    out_base: r.u32(),
                    out_tiles_x: r.u16(),
                    out_tile_rows: r.u16(),
                    out_row_start: r.u16(),
                    op,
                }))
            }
            other => Err(DecodeError::BadOpcode(other)),
        }
    }

    /// Encodes a whole instruction stream.
    pub fn encode_stream(instrs: &[Instruction]) -> Vec<u8> {
        let mut out = Vec::with_capacity(instrs.len() * INSTR_BYTES);
        for i in instrs {
            out.extend_from_slice(&i.encode());
        }
        out
    }

    /// Decodes a whole instruction stream.
    ///
    /// # Errors
    /// Returns the first [`DecodeError`] encountered.
    pub fn decode_stream(bytes: &[u8]) -> Result<Vec<Instruction>, DecodeError> {
        if !bytes.len().is_multiple_of(INSTR_BYTES) {
            return Err(DecodeError::Truncated);
        }
        bytes.chunks(INSTR_BYTES).map(Instruction::decode).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_conv() -> Instruction {
        Instruction::Conv(ConvInstr {
            ofm_first: 12,
            ifm_count: 64,
            ifm_base: 0x100,
            ifm_tiles_x: 57,
            ifm_tile_rows: 10,
            ifm_row_offset: 1,
            ofm_base: 0x4000,
            ofm_tiles_x: 56,
            ofm_tile_rows: 8,
            wgt_base: 0x20,
            bias: [1, -2, 3, -4],
            requant_mult: 40_000,
            requant_shift: 21,
            relu: true,
            active_lanes: 4,
        })
    }

    fn sample_pool() -> Instruction {
        Instruction::PoolPad(PoolPadInstr {
            channels: 64,
            in_base: 0,
            in_tiles_x: 56,
            in_tile_rows: 56,
            in_row_start: 0,
            out_base: 0x8000,
            out_tiles_x: 28,
            out_tile_rows: 28,
            out_row_start: 0,
            op: PoolPadOp::MaxPool { k: 2, stride: 2 },
        })
    }

    #[test]
    fn conv_round_trips() {
        let i = sample_conv();
        assert_eq!(Instruction::decode(&i.encode()).unwrap(), i);
    }

    #[test]
    fn pool_and_pad_round_trip() {
        let p = sample_pool();
        assert_eq!(Instruction::decode(&p.encode()).unwrap(), p);
        let pad = Instruction::PoolPad(PoolPadInstr {
            op: PoolPadOp::Pad { amount: 1 },
            ..match p {
                Instruction::PoolPad(pi) => pi,
                _ => unreachable!(),
            }
        });
        assert_eq!(Instruction::decode(&pad.encode()).unwrap(), pad);
    }

    #[test]
    fn stream_round_trips() {
        let stream = vec![sample_conv(), sample_pool(), sample_conv()];
        let bytes = Instruction::encode_stream(&stream);
        assert_eq!(bytes.len(), 3 * INSTR_BYTES);
        assert_eq!(Instruction::decode_stream(&bytes).unwrap(), stream);
    }

    #[test]
    fn constructors_check_every_narrowing() {
        use zskip_quant::{Requantizer, Sm8};
        let qw = |out_c: usize, bias: Vec<i64>| {
            QuantConvWeights::new(out_c, 1, 1, vec![Sm8::ZERO; out_c], bias, Requantizer::from_ratio(0.5), true)
        };
        let fm = FmLayout { base: 0, channels: 1, tiles_x: 2, tile_rows: 2 };
        // A ragged last group: two active lanes, bias clamped into i32,
        // the idle lanes' bias zero.
        let i = ConvInstr::for_group(&qw(6, vec![0, 0, 0, 0, i64::MAX, -7]), 4, 4, &fm, 1, &fm, 96).unwrap();
        assert_eq!((i.ofm_first, i.active_lanes, i.wgt_base, i.ifm_row_offset), (4, 2, 96, 1));
        assert_eq!(i.bias, [i32::MAX, -7, 0, 0]);
        // Each too-wide value is refused by name, not wrapped.
        let wide = qw(65_540, vec![0; 65_540]);
        let overflow = ConvInstr::for_group(&wide, 65_536, 4, &fm, 0, &fm, 0).unwrap_err();
        assert_eq!(overflow, FieldOverflow { field: "ofm_first", value: 65_536 });
        let tall = FmLayout { tile_rows: 70_000, ..fm };
        assert_eq!(ConvInstr::for_group(&wide, 0, 4, &tall, 0, &fm, 0).unwrap_err().field, "ifm_tile_rows");
        assert_eq!(ConvInstr::for_group(&wide, 0, 4, &fm, 0, &fm, 1 << 32).unwrap_err().field, "wgt_base");
        let op = PoolPadOp::Pad { amount: 1 };
        assert_eq!(PoolPadInstr::for_stripe(op, &fm, 0, &tall, 0).unwrap_err().field, "out_tile_rows");
        assert_eq!(PoolPadInstr::for_stripe(op, &fm, 1 << 16, &fm, 0).unwrap_err().field, "in_row_start");
        assert_eq!(PoolPadInstr::for_stripe(op, &fm, 3, &fm, 2).unwrap().in_row_start, 3);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Instruction::decode(&[0u8; 10]).unwrap_err(), DecodeError::Truncated);
        let mut bad = sample_conv().encode();
        bad[0] = 9;
        assert_eq!(Instruction::decode(&bad).unwrap_err(), DecodeError::BadOpcode(9));
        let mut badpool = sample_pool().encode();
        badpool[1] = 7;
        assert_eq!(Instruction::decode(&badpool).unwrap_err(), DecodeError::BadPoolOp(7));
        assert!(Instruction::decode_stream(&[0u8; INSTR_BYTES + 1]).is_err());
    }

    proptest! {
        #[test]
        fn conv_encoding_is_bijective(
            ofm_first in 0u16..1024,
            ifm_count in 1u16..1024,
            ifm_base in 0u32..1_000_000,
            tiles in 1u16..256,
            rows in 1u16..256,
            bias in proptest::array::uniform4(-1_000_000i32..1_000_000),
            mult in 1u16..=u16::MAX,
            shift in 0u8..32,
            relu in proptest::bool::ANY,
        ) {
            let i = Instruction::Conv(ConvInstr {
                ofm_first, ifm_count, ifm_base,
                ifm_tiles_x: tiles, ifm_tile_rows: rows, ifm_row_offset: rows / 2,
                ofm_base: ifm_base / 2, ofm_tiles_x: tiles, ofm_tile_rows: rows,
                wgt_base: 64, bias, requant_mult: mult, requant_shift: shift, relu,
                active_lanes: (ofm_first % 4 + 1) as u8,
            });
            prop_assert_eq!(Instruction::decode(&i.encode()).unwrap(), i);
        }
    }
}

impl std::fmt::Display for Instruction {
    /// Disassembly form, one instruction per line.
    ///
    /// ```text
    /// conv  ofm[0..4) ifm x64 @0x0 57x10+0 -> @0x4000 56x8 wgt@0x20 requant 40000>>21 relu
    /// pool  max2x2/2 ch64 @0x0 56x56 r0 -> @0x8000 28x28 r0
    /// ```
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Instruction::Conv(i) => write!(
                f,
                "conv  ofm[{}..{}) ifm x{} @{:#x} {}x{}+{} -> @{:#x} {}x{} wgt@{:#x} requant {}>>{}{}",
                i.ofm_first,
                i.ofm_first + i.active_lanes as u16,
                i.ifm_count,
                i.ifm_base,
                i.ifm_tiles_x,
                i.ifm_tile_rows,
                i.ifm_row_offset,
                i.ofm_base,
                i.ofm_tiles_x,
                i.ofm_tile_rows,
                i.wgt_base,
                i.requant_mult,
                i.requant_shift,
                if i.relu { " relu" } else { "" },
            ),
            Instruction::PoolPad(i) => {
                match i.op {
                    PoolPadOp::MaxPool { k, stride } => write!(f, "pool  max{k}x{k}/{stride}")?,
                    PoolPadOp::Pad { amount } => write!(f, "pad   +{amount}")?,
                }
                write!(
                    f,
                    " ch{} @{:#x} {}x{} r{} -> @{:#x} {}x{} r{}",
                    i.channels,
                    i.in_base,
                    i.in_tiles_x,
                    i.in_tile_rows,
                    i.in_row_start,
                    i.out_base,
                    i.out_tiles_x,
                    i.out_tile_rows,
                    i.out_row_start,
                )
            }
        }
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn disassembly_is_readable_and_distinct() {
        let conv = Instruction::Conv(ConvInstr {
            ofm_first: 8,
            ifm_count: 64,
            ifm_base: 0x100,
            ifm_tiles_x: 57,
            ifm_tile_rows: 10,
            ifm_row_offset: 0,
            ofm_base: 0x4000,
            ofm_tiles_x: 56,
            ofm_tile_rows: 8,
            wgt_base: 0x20,
            bias: [0; 4],
            requant_mult: 40_000,
            requant_shift: 21,
            relu: true,
            active_lanes: 4,
        });
        let text = conv.to_string();
        assert!(text.starts_with("conv"), "{text}");
        assert!(text.contains("ofm[8..12)") && text.contains("relu") && text.contains("40000>>21"), "{text}");

        let pool = Instruction::PoolPad(PoolPadInstr {
            channels: 64,
            in_base: 0,
            in_tiles_x: 56,
            in_tile_rows: 56,
            in_row_start: 0,
            out_base: 0x8000,
            out_tiles_x: 28,
            out_tile_rows: 28,
            out_row_start: 0,
            op: PoolPadOp::MaxPool { k: 2, stride: 2 },
        });
        assert!(pool.to_string().contains("max2x2/2"), "{pool}");

        let pad = Instruction::PoolPad(PoolPadInstr {
            op: PoolPadOp::Pad { amount: 1 },
            ..match pool {
                Instruction::PoolPad(p) => p,
                _ => unreachable!(),
            }
        });
        assert!(pad.to_string().starts_with("pad   +1"), "{pad}");
    }
}
