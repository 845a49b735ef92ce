//! Packed zero-skip weight streams for an OFM group.
//!
//! Offline, the host packs each filter's weights into (offset, value)
//! pairs per weight tile (paper §III-B); a group bundles `lanes` filters
//! (4 in the full design) whose packed tiles are streamed in lockstep by
//! the data-staging unit. This module owns the group-level format — the
//! scratchpad byte image itself (per IFM, the `lanes` tiles concatenated;
//! docs/ISA.md "Weight scratchpad") plus a tile index beside it — and the
//! per-IFM step counts that determine cycle cost. The image is the only
//! representation: the packer writes it, the DMA moves it, and the model
//! and the staging kernels read it in place.

use std::borrow::Cow;
use std::sync::Arc;
use zskip_nn::conv::{PackedImage, QuantConvWeights};
use zskip_nn::par::{scoped_map, Split};
use zskip_quant::pack::{encode_tile, index_tiles, PackDecodeError, PackedTile, TILE_OFFSETS};
use zskip_quant::Sm8;
use zskip_tensor::{dydx_to_offset, offset_to_dydx, TILE_DIM, TILE_ELEMS};

/// What one IFM of a group costs the lockstep lanes
/// ([`GroupWeights::ifm_work`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IfmWork {
    /// The slowest lane's non-zero count: the IFM's lockstep steps, zero
    /// when every lane is empty and the IFM is skipped outright.
    pub steps: usize,
    /// Non-zero weights over all lanes; `steps * lanes - nnz` lane-slots
    /// idle (pipeline bubbles).
    pub nnz: usize,
    /// Scratchpad bytes of the IFM's lane tiles.
    pub bytes: usize,
}

/// Packed weights of one OFM group (up to `lanes` filters) over all IFMs:
/// the group's scratchpad bytes and the byte offset of each
/// `(ifm, lane)` tile in them. Either part may be borrowed — a group
/// parsed from a scratchpad image or cut from a layer's image owns no
/// bytes.
#[derive(Debug, Clone)]
pub struct GroupWeights<'a> {
    lanes: usize,
    ifm_count: usize,
    /// The group's scratchpad bytes, nothing before or after.
    image: Cow<'a, [u8]>,
    /// `index[ifm * lanes + lane]` is where that tile starts, counted from
    /// `index[0]` (non-zero for a group cut from a longer image); one more
    /// entry marks the end.
    index: Cow<'a, [u32]>,
}

/// Rough cost of encoding one weight tile (≈ 10 ns for a 3x3 kernel on
/// a 2-vCPU AVX-512 Xeon, its index entry included).
const NS_PER_PACKED_TILE: usize = 10;

/// Packs `groups` consecutive OFM groups, from filter `ofm_first` on, into
/// one scratchpad image (per group and IFM, one tile per lane; lanes past
/// `out_c` pack as empty tiles) and its tile index. With `skip_zeros` off
/// every slot of a real filter's tile is packed, zeros included.
///
/// A layer big enough to repay the threads is cut into runs of whole
/// groups, one per host core, packed side by side and concatenated.
///
/// # Panics
/// Panics if the kernel does not fit a 4x4 weight tile (`k > 4`), or if
/// the image outgrows the 32-bit scratchpad address space.
pub(crate) fn pack_groups(
    qw: &QuantConvWeights,
    ofm_first: usize,
    groups: usize,
    lanes: usize,
    skip_zeros: bool,
) -> (Vec<u8>, Vec<u32>) {
    // A lone group is never worth a thread, so it does not ask the host
    // for its core count (which allocates).
    let run_len = match groups {
        0 | 1 => 1,
        _ => Split::auto().run_len(groups, qw.in_c * lanes * NS_PER_PACKED_TILE),
    };
    pack_group_runs(qw, ofm_first, groups, lanes, skip_zeros, run_len)
}

/// `qw`'s packed image at `lanes` lanes, with or without zero-skipping:
/// the one its weights hold ([`QuantConvWeights::packed`]), every OFM
/// group [`pack_groups`] packs on first use.
pub(crate) fn packed_layer(qw: &QuantConvWeights, lanes: usize, zero_skipping: bool) -> Arc<PackedImage> {
    qw.packed(lanes, zero_skipping, || pack_groups(qw, 0, qw.out_c.div_ceil(lanes), lanes, zero_skipping))
}

/// [`pack_groups`] cut into runs of `run_len` groups: each run encodes its
/// own image and index on a thread of its own, then the pieces are
/// appended in order, each piece's index rebased to where it lands.
fn pack_group_runs(
    qw: &QuantConvWeights,
    ofm_first: usize,
    groups: usize,
    lanes: usize,
    skip_zeros: bool,
    run_len: usize,
) -> (Vec<u8>, Vec<u32>) {
    assert!(qw.k <= TILE_DIM, "kernel {k}x{k} does not fit a 4x4 weight tile", k = qw.k);
    let encode = |first: usize, len: usize| encode_groups(qw, ofm_first + first * lanes, len, lanes, skip_zeros);
    let (mut image, index) = if run_len >= groups {
        encode(0, groups)
    } else {
        let runs = (0..groups).step_by(run_len).map(|first| (first, run_len.min(groups - first)));
        let mut pieces = scoped_map(runs, |(first, len)| encode(first, len)).into_iter();
        let (mut image, mut index) = pieces.next().expect("a layer with groups has a run");
        for (part, part_index) in pieces {
            let base = index.pop().expect("an index ends with the image's end");
            u32::try_from(image.len() + part.len()).expect("packed weights stay under 4 GiB");
            index.extend(part_index.iter().map(|&at| base + at));
            image.extend_from_slice(&part);
        }
        (image, index)
    };
    image.shrink_to_fit();
    debug_assert_eq!(index.last().map(|&end| end as usize), Some(image.len()));
    (image, index)
}

/// Encodes `groups` OFM groups from filter `ofm_first` on: the image and
/// its index, the end included. Every tile goes through [`encode_tile`]
/// into an image sized for the densest packing, cut to length at the end.
/// With `skip_zeros` a tile's slots are the filter's `k x k` taps; without,
/// all 16 slots of the zero-padded weight tile, every one kept.
fn encode_groups(
    qw: &QuantConvWeights,
    ofm_first: usize,
    groups: usize,
    lanes: usize,
    skip_zeros: bool,
) -> (Vec<u8>, Vec<u32>) {
    let k = qw.k;
    // The scratchpad offset of each tap, in the filter's row-major order.
    let taps: [u8; TILE_ELEMS] = std::array::from_fn(|i| if i < k * k { dydx_to_offset(i / k, i % k) } else { 0 });
    let (offsets, slots) = if skip_zeros { (&taps[..k * k], k * k) } else { (&TILE_OFFSETS[..], TILE_ELEMS) };
    let tiles = groups * qw.in_c * lanes;
    let mut image = vec![0u8; tiles * (1 + 2 * slots)];
    let mut index = Vec::with_capacity(tiles + 1);
    let mut at = 0;
    for first in (0..groups).map(|group| ofm_first + group * lanes) {
        for ifm in 0..qw.in_c {
            for o in first..first + lanes {
                index.push(at as u32);
                let dense: [Sm8; TILE_ELEMS];
                let values = if o >= qw.out_c {
                    &[][..]
                } else if skip_zeros {
                    qw.filter(o, ifm)
                } else {
                    let filter = qw.filter(o, ifm);
                    dense = std::array::from_fn(|slot| {
                        let (dy, dx) = offset_to_dydx(slot as u8);
                        if dy < k && dx < k { filter[dy * k + dx] } else { Sm8::ZERO }
                    });
                    &dense[..]
                };
                at += encode_tile(&mut image[at..], offsets, values, !skip_zeros);
            }
        }
    }
    // Every offset pushed above is at most the end, so one check covers them.
    index.push(u32::try_from(at).expect("packed weights stay under 4 GiB"));
    image.truncate(at);
    (image, index)
}

impl<'a> GroupWeights<'a> {
    /// Packs the filters `[ofm_first, ofm_first + lanes)` of a quantized
    /// conv layer. Lanes past `out_c` pack as empty (all-zero) tiles.
    ///
    /// # Panics
    /// Panics if the kernel does not fit a 4x4 weight tile (`k > 4`); the
    /// paper's tiling targets the ubiquitous 3x3 (and smaller) filters.
    pub fn from_filters(qw: &QuantConvWeights, ofm_first: usize, lanes: usize) -> GroupWeights<'static> {
        Self::from_filters_with_skipping(qw, ofm_first, lanes, true)
    }

    /// Like [`GroupWeights::from_filters`], with zero-skipping optionally
    /// disabled (every weight slot packed, zeros included) — the ablation
    /// baseline quantifying the paper's novel contribution.
    pub fn from_filters_with_skipping(
        qw: &QuantConvWeights,
        ofm_first: usize,
        lanes: usize,
        skip_zeros: bool,
    ) -> GroupWeights<'static> {
        let (image, index) = pack_groups(qw, ofm_first, 1, lanes, skip_zeros);
        GroupWeights { lanes, ifm_count: qw.in_c, image: image.into(), index: index.into() }
    }

    /// Indexes the group at the head of a scratchpad stream, borrowing its
    /// bytes. Trailing bytes are permitted — the stream may be a window
    /// into a larger scratchpad image holding several groups.
    ///
    /// # Errors
    /// Propagates packed-tile decode errors.
    pub fn from_bytes(bytes: &'a [u8], ifm_count: usize, lanes: usize) -> Result<GroupWeights<'a>, PackDecodeError> {
        let index = index_tiles(bytes, ifm_count.saturating_mul(lanes))?;
        let end = index[index.len() - 1] as usize;
        Ok(GroupWeights { lanes, ifm_count, image: bytes[..end].into(), index: index.into() })
    }

    /// A group over bytes and an index validated earlier: `index` holds
    /// `ifm_count * lanes + 1` consecutive offsets [`index_tiles`] returned
    /// for a stream that `image` is the window of starting at `index[0]`.
    pub(crate) fn from_index(image: &'a [u8], index: &'a [u32], ifm_count: usize, lanes: usize) -> GroupWeights<'a> {
        debug_assert_eq!(index.len(), ifm_count * lanes + 1);
        let len = (index[index.len() - 1] - index[0]) as usize;
        GroupWeights { lanes, ifm_count, image: image[..len].into(), index: index.into() }
    }

    /// Group `gi` of a layer's packed image over `ifm_count` IFMs,
    /// borrowed, and where it starts in the image.
    pub(crate) fn from_packed(packed: &'a PackedImage, ifm_count: usize, gi: usize) -> (usize, GroupWeights<'a>) {
        let tiles = ifm_count * packed.lanes;
        let index = &packed.index[gi * tiles..=(gi + 1) * tiles];
        let start = index[0] as usize;
        (start, GroupWeights::from_index(&packed.image[start..], index, ifm_count, packed.lanes))
    }

    /// Number of filter lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of IFM channels covered.
    pub fn ifm_count(&self) -> usize {
        self.ifm_count
    }

    /// The packed tile for `(ifm, lane)`.
    pub fn lane_tile(&self, ifm: usize, lane: usize) -> PackedTile<'_> {
        PackedTile::at(&self.image, (self.index[ifm * self.lanes + lane] - self.index[0]) as usize)
    }

    /// Lockstep steps for one IFM: the maximum lane non-zero count. Zero
    /// means every lane is empty and the IFM is skipped outright.
    pub fn steps(&self, ifm: usize) -> usize {
        self.ifm_work(ifm).steps
    }

    /// One IFM's lockstep work, read off the tile index alone (a tile is
    /// its count byte plus two bytes a weight).
    pub fn ifm_work(&self, ifm: usize) -> IfmWork {
        let starts = &self.index[ifm * self.lanes..=(ifm + 1) * self.lanes];
        let steps = starts.windows(2).map(|t| (t[1] - t[0]) as usize / 2).max().unwrap_or(0);
        let bytes = (starts[self.lanes] - starts[0]) as usize;
        IfmWork { steps, nnz: (bytes - self.lanes) / 2, bytes }
    }

    /// Total packed weights across the group: every tile is its count
    /// byte plus two bytes per weight.
    pub fn total_nnz(&self) -> usize {
        (self.image.len() - self.ifm_count * self.lanes) / 2
    }

    /// Scratchpad bytes for one IFM's lane tiles.
    pub fn ifm_bytes(&self, ifm: usize) -> usize {
        (self.index[(ifm + 1) * self.lanes] - self.index[ifm * self.lanes]) as usize
    }

    /// Total scratchpad bytes for the group.
    pub fn total_bytes(&self) -> usize {
        self.image.len()
    }

    /// The scratchpad stream: per IFM, the `lanes` packed tiles
    /// concatenated.
    pub fn as_bytes(&self) -> &[u8] {
        &self.image
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zskip_quant::Requantizer;
    use zskip_tensor::Tile;

    /// The tile-at-a-time packer the flat encoder replaced, as the oracle
    /// for its bytes: build each `(ifm, lane)` weight tile, collect its
    /// entries, serialize count byte then pairs.
    fn oracle_bytes(qw: &QuantConvWeights, ofm_first: usize, lanes: usize, skip_zeros: bool) -> Vec<u8> {
        let mut out = Vec::new();
        for ifm in 0..qw.in_c {
            for o in ofm_first..ofm_first + lanes {
                let mut entries: Vec<(u8, Sm8)> = Vec::new();
                if o < qw.out_c {
                    let mut t = Tile::<Sm8>::zero();
                    for ky in 0..qw.k {
                        for kx in 0..qw.k {
                            t.as_mut_array()[dydx_to_offset(ky, kx) as usize] = qw.at(o, ifm, ky, kx);
                        }
                    }
                    entries = t.iter_offsets().filter(|(_, v)| !skip_zeros || !v.is_zero()).collect();
                }
                out.push(entries.len() as u8);
                for (offset, value) in entries {
                    out.extend([offset, value.to_bits()]);
                }
            }
        }
        out
    }

    /// A quantized layer with deterministic per-filter sparsity.
    fn layer(out_c: usize, in_c: usize, k: usize) -> QuantConvWeights {
        let w: Vec<Sm8> = (0..out_c * in_c * k * k)
            .map(|i| {
                // Filter o keeps weights where (i + o) % 3 != 0, giving
                // different densities per filter.
                let o = i / (in_c * k * k);
                if (i + o).is_multiple_of(3) {
                    Sm8::ZERO
                } else {
                    Sm8::from_i32_saturating((i % 13) as i32 - 6)
                }
            })
            .collect();
        QuantConvWeights::new(out_c, in_c, k, w, vec![0; out_c], Requantizer::IDENTITY, false)
    }

    #[test]
    fn packs_filters_at_kernel_offsets() {
        let qw = layer(4, 2, 3);
        let g = GroupWeights::from_filters(&qw, 0, 4);
        assert_eq!(g.ifm_count(), 2);
        // Every packed entry's offset decodes within the 3x3 area.
        for ifm in 0..2 {
            for lane in 0..4 {
                for e in g.lane_tile(ifm, lane).entries() {
                    let (dy, dx) = zskip_tensor::offset_to_dydx(e.offset);
                    assert!(dy < 3 && dx < 3, "offset ({dy},{dx}) outside 3x3");
                }
            }
        }
    }

    #[test]
    fn unpacked_tiles_match_source_weights() {
        let qw = layer(4, 3, 3);
        let g = GroupWeights::from_filters(&qw, 0, 4);
        for ifm in 0..3 {
            for lane in 0..4 {
                let t = g.lane_tile(ifm, lane).unpack();
                for ky in 0..3 {
                    for kx in 0..3 {
                        assert_eq!(t[(ky, kx)], qw.at(lane, ifm, ky, kx));
                    }
                }
            }
        }
    }

    #[test]
    fn steps_is_max_lane_nnz() {
        let qw = layer(4, 2, 3);
        let g = GroupWeights::from_filters(&qw, 0, 4);
        for ifm in 0..2 {
            let max = (0..4).map(|l| g.lane_tile(ifm, l).nnz()).max().unwrap();
            let nnz = (0..4).map(|l| g.lane_tile(ifm, l).nnz()).sum::<usize>();
            assert_eq!(g.ifm_work(ifm), IfmWork { steps: max, nnz, bytes: g.ifm_bytes(ifm) });
        }
    }

    #[test]
    fn ragged_group_pads_with_empty_lanes() {
        // 6 filters, group starting at 4: lanes 2,3 are past out_c.
        let qw = layer(6, 2, 3);
        let g = GroupWeights::from_filters(&qw, 4, 4);
        assert_eq!(g.lane_tile(0, 2).nnz(), 0);
        assert_eq!(g.lane_tile(0, 3).nnz(), 0);
        assert!(g.lane_tile(0, 0).nnz() > 0);
    }

    #[test]
    fn bytes_round_trip() {
        let qw = layer(4, 5, 3);
        let g = GroupWeights::from_filters(&qw, 0, 4);
        assert_eq!(g.as_bytes().len(), g.total_bytes());
        assert_eq!((0..5).map(|i| g.ifm_bytes(i)).sum::<usize>(), g.total_bytes());
        // Trailing bytes (the next group of a scratchpad image) are not
        // part of the group.
        let mut image = g.as_bytes().to_vec();
        image.extend([3, 0, 1]);
        let h = GroupWeights::from_bytes(&image, 5, 4).unwrap();
        assert_eq!(h.as_bytes(), g.as_bytes());
        assert_eq!((h.lanes(), h.ifm_count()), (4, 5));
    }

    #[test]
    fn stream_is_the_documented_layout() {
        // Two filters over two IFMs, 1x1 kernels: per IFM one tile per
        // lane, each a count byte then [offset, bits] pairs; a zero weight
        // and the lanes past `out_c` are bare count bytes.
        let w = [5, 0, -3, 7].map(Sm8::from_i32_saturating).to_vec();
        let qw = QuantConvWeights::new(2, 2, 1, w, vec![0; 2], Requantizer::IDENTITY, false);
        let bits = |v: i32| Sm8::from_i32_saturating(v).to_bits();
        let g = GroupWeights::from_filters(&qw, 0, 4);
        #[rustfmt::skip]
        let want = [
            1, 0, bits(5),  1, 0, bits(-3),  0,  0, // ifm 0: filters 0, 1, two ragged lanes
            0,              1, 0, bits(7),   0,  0, // ifm 1: filter 0's weight is zero
        ];
        assert_eq!(g.as_bytes(), want);
        assert_eq!((g.steps(0), g.steps(1), g.total_nnz()), (1, 1, 3));
        assert_eq!((g.ifm_bytes(0), g.ifm_bytes(1)), (8, 6));
        // Without zero-skipping a real filter's tile spends all 16 slots.
        let dense = GroupWeights::from_filters_with_skipping(&qw, 0, 4, false);
        assert_eq!(dense.as_bytes().len(), 2 * (2 * 33 + 2));
        assert_eq!(dense.as_bytes()[..3], [16, 0, bits(5)]);
    }

    #[test]
    fn decode_errors_are_the_tile_readers() {
        let qw = layer(4, 2, 3);
        let g = GroupWeights::from_filters(&qw, 0, 4);
        let bytes = g.as_bytes();
        assert_eq!(GroupWeights::from_bytes(&bytes[..bytes.len() - 1], 2, 4).unwrap_err(), PackDecodeError::Truncated);
        assert_eq!(GroupWeights::from_bytes(bytes, 3, 4).unwrap_err(), PackDecodeError::Truncated);
        let mut bad = bytes.to_vec();
        bad[0] = 17;
        assert_eq!(GroupWeights::from_bytes(&bad, 2, 4).unwrap_err(), PackDecodeError::BadCount(17));
        let mut bad = bytes.to_vec();
        assert!(bad[0] > 0, "the first tile has an entry to corrupt");
        bad[1] = 16;
        assert_eq!(GroupWeights::from_bytes(&bad, 2, 4).unwrap_err(), PackDecodeError::BadOffset(16));
    }

    #[test]
    fn all_zero_ifm_reports_zero_steps() {
        let qw = QuantConvWeights::new(4, 1, 3, vec![Sm8::ZERO; 36], vec![0; 4], Requantizer::IDENTITY, false);
        let g = GroupWeights::from_filters(&qw, 0, 4);
        assert_eq!(g.steps(0), 0);
        assert_eq!(g.total_nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn rejects_wide_kernels() {
        let qw = layer(4, 1, 5);
        let _ = GroupWeights::from_filters(&qw, 0, 4);
    }

    mod packer_properties {
        use super::*;
        use proptest::prelude::*;

        /// A random quantized layer over every kernel size a weight tile
        /// holds — including the 1x1 projection convs of skip branches,
        /// whose weight tiles occupy a single offset.
        fn layer_strategy() -> impl Strategy<Value = QuantConvWeights> {
            (1usize..=9, 1usize..=6, 1usize..=TILE_DIM, 0u64..10_000)
                .prop_map(|(out_c, in_c, k, seed)| {
                    let w: Vec<Sm8> = (0..out_c * in_c * k * k)
                        .map(|i| {
                            let h = (i as u64).wrapping_mul(seed | 1).wrapping_add(seed >> 3);
                            if h.is_multiple_of(3) {
                                Sm8::ZERO
                            } else {
                                Sm8::from_i32_saturating((h % 255) as i32 - 127)
                            }
                        })
                        .collect();
                    QuantConvWeights::new(out_c, in_c, k, w, vec![0; out_c], Requantizer::IDENTITY, false)
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The packer against the scalar weights as oracle: for any
            /// group over any kernel size (1x1 projections included),
            /// every lane tile unpacks to exactly the source filter, the
            /// scratchpad byte stream round-trips, and the lockstep step
            /// count is the slowest lane's non-zero count.
            #[test]
            fn packed_groups_agree_with_scalar_weights(
                qw in layer_strategy(),
                group in 0usize..3,
            ) {
                let lanes = 4;
                let ofm_first = group * lanes;
                prop_assume!(ofm_first < qw.out_c);
                let g = GroupWeights::from_filters(&qw, ofm_first, lanes);
                prop_assert_eq!(g.ifm_count(), qw.in_c);
                for ifm in 0..qw.in_c {
                    let mut max_nnz = 0;
                    for lane in 0..lanes {
                        let tile = g.lane_tile(ifm, lane);
                        let dense = tile.unpack();
                        let o = ofm_first + lane;
                        let mut nnz = 0;
                        for ky in 0..TILE_DIM {
                            for kx in 0..TILE_DIM {
                                let want = if o < qw.out_c && ky < qw.k && kx < qw.k {
                                    qw.at(o, ifm, ky, kx)
                                } else {
                                    Sm8::ZERO
                                };
                                prop_assert_eq!(dense[(ky, kx)], want, "lane {} ifm {} ({},{})", lane, ifm, ky, kx);
                                if !want.is_zero() {
                                    nnz += 1;
                                }
                            }
                        }
                        prop_assert_eq!(tile.nnz(), nnz);
                        max_nnz = max_nnz.max(nnz);
                    }
                    prop_assert_eq!(g.steps(ifm), max_nnz);
                }
                let back = GroupWeights::from_bytes(g.as_bytes(), qw.in_c, lanes).expect("round-trip");
                prop_assert_eq!(back.as_bytes(), g.as_bytes());
                prop_assert_eq!(g.total_nnz(), (0..qw.in_c * lanes).map(|t| g.lane_tile(t / lanes, t % lanes).nnz()).sum::<usize>());
            }

            /// The stream is bit-identical to the tile-at-a-time packer's
            /// for every kernel size, a ragged last group, and with
            /// zero-skipping on and off.
            #[test]
            fn encoder_bytes_equal_the_tile_at_a_time_oracle(
                qw in layer_strategy(),
                skip_zeros in proptest::bool::ANY,
            ) {
                let lanes = 4;
                for group in 0..qw.out_c.div_ceil(lanes) {
                    let g = GroupWeights::from_filters_with_skipping(&qw, group * lanes, lanes, skip_zeros);
                    prop_assert_eq!(g.as_bytes(), &oracle_bytes(&qw, group * lanes, lanes, skip_zeros)[..], "group {}", group);
                }
            }

            /// The layer packer against the tile-at-a-time oracle, group
            /// by group: any lane count (dividing `out_c` or not), a first
            /// filter past 0, skipping on and off, and the layer cut into
            /// runs of every length — a split at every group boundary
            /// included — as well as the host's own split. Image and
            /// index both match.
            #[test]
            fn layer_packs_equal_the_oracle_at_every_split(
                qw in layer_strategy(),
                lanes in prop_oneof![Just(1usize), Just(2), Just(3), Just(4), Just(8)],
                first in 0usize..9,
                skip_zeros in proptest::bool::ANY,
            ) {
                let ofm_first = first % qw.out_c;
                let groups = (qw.out_c - ofm_first).div_ceil(lanes);
                let image: Vec<u8> =
                    (0..groups).flat_map(|g| oracle_bytes(&qw, ofm_first + g * lanes, lanes, skip_zeros)).collect();
                let index = index_tiles(&image, groups * qw.in_c * lanes).expect("the oracle's stream parses");
                for run_len in 1..=groups {
                    let packed = pack_group_runs(&qw, ofm_first, groups, lanes, skip_zeros, run_len);
                    prop_assert_eq!(&packed.0, &image, "runs of {}", run_len);
                    prop_assert_eq!(&packed.1, &index, "runs of {}", run_len);
                }
                prop_assert_eq!(pack_groups(&qw, ofm_first, groups, lanes, skip_zeros), (image, index));
            }

            /// Zero-skipping never changes what the tiles decode to — the
            /// dense (ablation) packing and the skipped packing unpack
            /// identically, and skipping only removes work.
            #[test]
            fn skipping_is_a_pure_compression(qw in layer_strategy()) {
                let skip = GroupWeights::from_filters_with_skipping(&qw, 0, 4, true);
                let dense = GroupWeights::from_filters_with_skipping(&qw, 0, 4, false);
                for ifm in 0..qw.in_c {
                    for lane in 0..4 {
                        prop_assert_eq!(
                            skip.lane_tile(ifm, lane).unpack(),
                            dense.lane_tile(ifm, lane).unpack()
                        );
                    }
                    prop_assert!(skip.steps(ifm) <= dense.steps(ifm));
                }
                prop_assert!(skip.total_bytes() <= dense.total_bytes());
            }
        }
    }
}
