//! Packed weights are flat: packing a layer allocates per OFM group — a
//! byte image and a tile index — never per 4x4 weight tile, and indexing
//! a group back out of a scratchpad image allocates the index alone.
//!
//! The binary holds this one test: the counting allocator's window must
//! not see another test thread.

mod common;

use common::allocation_count;
use zskip::accel::GroupWeights;
use zskip::nn::conv::QuantConvWeights;
use zskip::quant::{Requantizer, Sm8};

#[test]
fn packing_allocates_per_group_not_per_tile() {
    let (out_c, in_c, k, lanes) = (64, 64, 3, 4);
    let w = (0..out_c * in_c * k * k)
        .map(|i| if i % 3 == 0 { Sm8::ZERO } else { Sm8::from_i32_saturating((i % 13) as i32 - 6) })
        .collect();
    let qw = QuantConvWeights::new(out_c, in_c, k, w, vec![0; out_c], Requantizer::IDENTITY, false);
    let groups = out_c / lanes;
    let tiles = groups * in_c * lanes;

    let mut packed = Vec::with_capacity(groups);
    let packing = allocation_count(|| packed.extend((0..groups).map(|g| GroupWeights::from_filters(&qw, g * lanes, lanes))));
    // Image, index, and the image's trim to size.
    assert!(packing <= 3 * groups, "{packing} allocations packing {groups} groups of {tiles} tiles");

    let image = packed[5].as_bytes();
    let mut parsed = None;
    let parsing = allocation_count(|| parsed = Some(GroupWeights::from_bytes(image, in_c, lanes).expect("parses")));
    assert_eq!(parsing, 1, "indexing a group allocates its tile index, nothing per tile");
    assert_eq!(parsed.expect("parsed").as_bytes().as_ptr_range(), image.as_ptr_range(), "read in place");
}
