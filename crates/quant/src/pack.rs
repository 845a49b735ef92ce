//! The packed non-zero weight format behind zero-weight skipping
//! (paper §III-B).
//!
//! For a given CNN model "the non-zero weights and their intra-tile offsets
//! are packed offline in advance in software. ... During inference, the
//! accelerator receives the weight values and their intra-tile offsets in a
//! packed format that is read directly into scratchpad memory. One non-zero
//! weight is applied per clock cycle; no cycles are spent on weights having
//! a value of 0."
//!
//! That scratchpad byte stream is the only representation of packed
//! weights: one 4x4 weight tile is a count byte followed by `count`
//! `[offset, value-bits]` pairs in ascending offset order, and tiles are
//! simply concatenated (docs/ISA.md "Weight scratchpad" is the normative
//! description). [`encode_tile`] is the one encoder, [`PackedTile::parse`]
//! / [`index_tiles`] the one validating reader, and [`PackedTile`] a
//! borrowed view of one tile's bytes — nothing is inflated per tile.
//! The hardware applies one weight from each of four filters per cycle,
//! so a filter with fewer non-zeros idles (a pipeline bubble) until the
//! slowest lane finishes, exactly the imbalance the paper reports and its
//! future-work filter grouping (see [`crate::grouping`]) mitigates.

use crate::Sm8;
use zskip_tensor::{Tile, TILE_ELEMS};

/// One packed weight: a non-zero value plus its intra-tile offset (0..16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedEntry {
    /// Intra-tile offset, row-major (0..16). Decoded by the convolution
    /// unit's steering muxes into an (dy, dx) window select.
    pub offset: u8,
    /// The weight value (non-zero by construction).
    pub value: Sm8,
}

/// Appends one packed weight tile to a scratchpad stream: a count byte,
/// then an `[offset, value-bits]` pair per entry. This is the stream the
/// DMA writes and the data-staging unit unpacks at some entries/cycle
/// bandwidth.
///
/// The packer hands over a tile's non-zero weights in ascending offset
/// order — or all 16 slots, zeros included, for the ablation baseline
/// that spends a cycle on every weight slot.
///
/// # Panics
/// Panics on more than 16 entries or an offset above 15 (a packer bug:
/// the stream would not parse back).
pub fn encode_tile(out: &mut Vec<u8>, entries: impl Iterator<Item = (u8, Sm8)>) {
    let head = out.len();
    out.push(0);
    for (offset, value) in entries {
        assert!((offset as usize) < TILE_ELEMS, "packed weight offset {offset} exceeds 15");
        out.push(offset);
        out.push(value.to_bits());
    }
    let count = (out.len() - head - 1) / 2;
    assert!(count <= TILE_ELEMS, "packed tile count {count} exceeds 16");
    out[head] = count as u8;
}

/// One packed weight tile, borrowed from the scratchpad stream it lies in.
///
/// # Example
/// ```
/// use zskip_quant::pack::{encode_tile, PackedTile};
/// use zskip_quant::Sm8;
/// use zskip_tensor::Tile;
/// let mut tile = Tile::<Sm8>::zero();
/// tile[(1, 1)] = Sm8::from_i32_saturating(5);
/// tile[(2, 3)] = Sm8::from_i32_saturating(-3);
/// let mut stream = Vec::new();
/// encode_tile(&mut stream, tile.iter_offsets().filter(|(_, v)| !v.is_zero()));
/// let packed = PackedTile::parse(&stream).unwrap();
/// assert_eq!(packed.nnz(), 2);
/// assert_eq!(packed.byte_len(), stream.len());
/// assert_eq!(packed.unpack(), tile);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedTile<'a> {
    /// Exactly the tile's bytes: the count byte and its pairs.
    bytes: &'a [u8],
}

impl<'a> PackedTile<'a> {
    /// Validates the tile at the head of `bytes` (trailing bytes are the
    /// following tiles'); [`PackedTile::byte_len`] says how many it took.
    ///
    /// # Errors
    /// Returns [`PackDecodeError`] on truncated input, a count above 16
    /// or an offset above 15.
    pub fn parse(bytes: &'a [u8]) -> Result<PackedTile<'a>, PackDecodeError> {
        let &count = bytes.first().ok_or(PackDecodeError::Truncated)?;
        let count = count as usize;
        if count > TILE_ELEMS {
            return Err(PackDecodeError::BadCount(count));
        }
        let bytes = bytes.get(..1 + 2 * count).ok_or(PackDecodeError::Truncated)?;
        match bytes[1..].iter().step_by(2).find(|&&offset| offset as usize >= TILE_ELEMS) {
            Some(&offset) => Err(PackDecodeError::BadOffset(offset)),
            None => Ok(PackedTile { bytes }),
        }
    }

    /// The tile starting at byte `start` of a stream [`index_tiles`] has
    /// already validated (`start` being one of the offsets it returned).
    ///
    /// # Panics
    /// Panics if the tile runs past the end of `stream`, which a validated
    /// stream and index rule out.
    pub fn at(stream: &'a [u8], start: usize) -> PackedTile<'a> {
        PackedTile { bytes: &stream[start..start + 1 + 2 * stream[start] as usize] }
    }

    /// Number of packed weights (cycles the convolution unit spends on
    /// this tile, before the 4-cycle IFM-load floor).
    pub fn nnz(&self) -> usize {
        self.bytes[0] as usize
    }

    /// The packed entries in ascending offset order.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = PackedEntry> + 'a {
        self.bytes[1..].chunks_exact(2).map(|pair| PackedEntry { offset: pair[0], value: Sm8::from_bits(pair[1]) })
    }

    /// Size in bytes of the tile within its stream.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Reconstructs the dense 4x4 tile.
    pub fn unpack(&self) -> Tile<Sm8> {
        let mut tile = Tile::zero();
        for e in self.entries() {
            tile.as_mut_array()[e.offset as usize] = e.value;
        }
        tile
    }
}

/// Validates the `tiles` consecutive packed tiles at the head of `bytes`
/// and returns their index: the byte offset of each tile, then the offset
/// one past the last (`tiles + 1` entries). Trailing bytes are permitted —
/// the stream may be a window into a larger scratchpad image. Offsets are
/// 32-bit like the scratchpad addresses of the ISA (`wgt_base`), so only
/// the first 4 GiB of `bytes` are addressable.
///
/// # Errors
/// The first tile's [`PackDecodeError`]; a stream holding fewer than
/// `tiles` tiles is [`PackDecodeError::Truncated`].
pub fn index_tiles(bytes: &[u8], tiles: usize) -> Result<Vec<u32>, PackDecodeError> {
    let bytes = &bytes[..bytes.len().min(u32::MAX as usize)];
    // Every tile takes at least its count byte, which bounds the index by
    // the input however large a `tiles` the caller was handed.
    let mut index = Vec::with_capacity(tiles.min(bytes.len()) + 1);
    let mut pos = 0;
    for _ in 0..tiles {
        index.push(pos as u32);
        pos += PackedTile::parse(&bytes[pos..])?.byte_len();
    }
    index.push(pos as u32);
    Ok(index)
}

/// Error decoding a packed weight stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackDecodeError {
    /// The byte stream ended mid-tile.
    Truncated,
    /// The count byte exceeds 16.
    BadCount(usize),
    /// An offset byte exceeds 15.
    BadOffset(u8),
}

impl std::fmt::Display for PackDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackDecodeError::Truncated => write!(f, "packed weight stream truncated"),
            PackDecodeError::BadCount(c) => write!(f, "packed tile count {c} exceeds 16"),
            PackDecodeError::BadOffset(o) => write!(f, "packed weight offset {o} exceeds 15"),
        }
    }
}

impl std::error::Error for PackDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tile_from_i32(vals: [i32; 16]) -> Tile<Sm8> {
        let mut t = Tile::zero();
        for (i, v) in vals.iter().enumerate() {
            t.as_mut_array()[i] = Sm8::from_i32_saturating(*v);
        }
        t
    }

    /// The tile's non-zero weights packed into a fresh stream.
    fn pack(tile: &Tile<Sm8>) -> Vec<u8> {
        let mut out = Vec::new();
        encode_tile(&mut out, tile.iter_offsets().filter(|(_, v)| !v.is_zero()));
        out
    }

    /// The owned form of one tile — the oracle the byte view is held to.
    fn oracle_entries(tile: &Tile<Sm8>) -> Vec<PackedEntry> {
        tile.iter_offsets().filter(|(_, v)| !v.is_zero()).map(|(offset, value)| PackedEntry { offset, value }).collect()
    }

    #[test]
    fn packs_only_nonzeros_in_offset_order() {
        let t = tile_from_i32([0, 5, 0, 0, -3, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 1]);
        let stream = pack(&t);
        let five = Sm8::from_i32_saturating(5).to_bits();
        let minus_three = Sm8::from_i32_saturating(-3).to_bits();
        assert_eq!(stream, [4, 1, five, 4, minus_three, 10, 7, 15, 1], "the hand-written stream");
        let p = PackedTile::parse(&stream).unwrap();
        assert_eq!(p.nnz(), 4);
        assert_eq!(p.entries().map(|e| e.offset).collect::<Vec<_>>(), vec![1, 4, 10, 15]);
        assert_eq!(p.unpack(), t);
    }

    #[test]
    fn negative_zero_is_skipped() {
        let mut t = Tile::<Sm8>::zero();
        t.as_mut_array()[3] = Sm8::NEG_ZERO;
        let stream = pack(&t);
        assert_eq!(stream, [0]);
        assert_eq!(PackedTile::parse(&stream).unwrap().nnz(), 0);
    }

    #[test]
    fn dense_packing_keeps_every_slot() {
        let t = tile_from_i32([1, 0, -2, 0, 3, 0, -4, 0, 5, 0, -6, 0, 7, 0, -8, 0]);
        let mut stream = Vec::new();
        encode_tile(&mut stream, t.iter_offsets());
        let p = PackedTile::parse(&stream).unwrap();
        assert_eq!((p.nnz(), p.byte_len()), (16, 33));
        assert_eq!(p.unpack(), t);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(PackedTile::parse(&[]).unwrap_err(), PackDecodeError::Truncated);
        assert_eq!(PackedTile::parse(&[17]).unwrap_err(), PackDecodeError::BadCount(17));
        assert_eq!(PackedTile::parse(&[1, 16, 0]).unwrap_err(), PackDecodeError::BadOffset(16));
        assert_eq!(PackedTile::parse(&[2, 0, 1]).unwrap_err(), PackDecodeError::Truncated);
        assert_eq!(index_tiles(&[0, 0], 3).unwrap_err(), PackDecodeError::Truncated);
    }

    #[test]
    #[should_panic(expected = "exceeds 16")]
    fn encoder_rejects_a_seventeenth_entry() {
        encode_tile(&mut Vec::new(), (0..17).map(|_| (0, Sm8::ZERO)));
    }

    #[test]
    fn index_lists_every_tile_start_and_the_end() {
        let a = tile_from_i32([1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let mut stream = pack(&a);
        stream.extend(pack(&Tile::zero()));
        stream.extend(pack(&a));
        stream.extend([9, 9]); // trailing bytes of a larger image
        let index = index_tiles(&stream, 3).unwrap();
        assert_eq!(index, [0, 7, 8, 15]);
        assert_eq!(PackedTile::at(&stream, 7).nnz(), 0);
        assert_eq!(PackedTile::at(&stream, 8), PackedTile::parse(&stream).unwrap());
        assert_eq!(index_tiles(&stream, 0).unwrap(), [0]);
    }

    proptest! {
        #[test]
        fn the_byte_view_matches_the_owned_oracle(vals in proptest::array::uniform16(-127i32..=127)) {
            let t = tile_from_i32(vals);
            let stream = pack(&t);
            let p = PackedTile::parse(&stream).unwrap();
            prop_assert_eq!(p.byte_len(), stream.len());
            prop_assert_eq!(p.entries().collect::<Vec<_>>(), oracle_entries(&t));
            prop_assert_eq!(p.unpack(), t);
            prop_assert_eq!(p.nnz(), vals.iter().filter(|&&v| v != 0).count());
        }
    }
}
