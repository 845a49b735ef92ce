//! Feature-map layout on the SRAM banks.
//!
//! Channel `c` of a feature map lives entirely in bank `c mod 4`. Each
//! data-staging unit `s` manages the IFM channels congruent to `s` and so
//! reads only its own bank — no port contention; each accumulator lane `o`
//! produces OFM channels congruent to `o`, so write-to-memory units also
//! get private write ports. Within a bank, a channel's tiles are row-major
//! (paper Fig. 2) and channels are stored consecutively.

use crate::config::AccelConfig;
use zskip_quant::Sm8;
use zskip_tensor::{Shape, TiledFeatureMap, TILE_DIM};

/// Where a (stripe of a) tiled feature map lives in the banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FmLayout {
    /// Base word address within every bank.
    pub base: usize,
    /// Number of channels.
    pub channels: usize,
    /// Tiles per row.
    pub tiles_x: usize,
    /// Tile rows resident.
    pub tile_rows: usize,
}

impl FmLayout {
    /// Layout for a full (unstriped) feature map of the given shape.
    pub fn full(base: usize, shape: Shape) -> FmLayout {
        FmLayout {
            base,
            channels: shape.c,
            tiles_x: shape.w.div_ceil(TILE_DIM),
            tile_rows: shape.h.div_ceil(TILE_DIM),
        }
    }

    /// The bank holding channel `c`.
    #[inline]
    pub fn bank_of(c: usize) -> usize {
        c % AccelConfig::BANKS
    }

    /// Word address of tile `(c, ty, tx)`; `ty` is stripe-local.
    ///
    /// # Panics
    /// Debug-panics on out-of-range coordinates.
    #[inline]
    pub fn addr(&self, c: usize, ty: usize, tx: usize) -> usize {
        debug_assert!(c < self.channels && ty < self.tile_rows && tx < self.tiles_x,
            "tile ({c},{ty},{tx}) outside layout {self:?}");
        self.channel_words(c).start + ty * self.tiles_x + tx
    }

    /// The words channel `c` occupies in its bank ([`FmLayout::bank_of`]).
    pub fn channel_words(&self, c: usize) -> std::ops::Range<usize> {
        let plane = self.tile_rows * self.tiles_x;
        let start = self.base + (c / AccelConfig::BANKS) * plane;
        start..start + plane
    }

    /// Words occupied per bank (worst bank: ceil(channels / banks) planes).
    pub fn words_per_bank(&self) -> usize {
        self.channels.div_ceil(AccelConfig::BANKS) * self.tile_rows * self.tiles_x
    }

    /// First word address past this layout in every bank.
    pub fn end(&self) -> usize {
        self.base + self.words_per_bank()
    }

    /// Loads a tiled feature map (or a band of its tile rows) into banks
    /// via host-side pokes. `row_range` selects the stripe (global tile
    /// rows); the layout's `tile_rows` must equal its length.
    ///
    /// # Panics
    /// Panics if geometry disagrees or the bank would overflow.
    pub fn store(
        &self,
        banks: &mut crate::bank::BankSet,
        fm: &TiledFeatureMap<Sm8>,
        row_range: std::ops::Range<usize>,
    ) {
        assert_eq!(self.channels, fm.channels(), "channel mismatch");
        assert_eq!(self.tiles_x, fm.tiles_x(), "tiles_x mismatch");
        assert_eq!(self.tile_rows, row_range.len(), "stripe height mismatch");
        assert!(row_range.end <= fm.tiles_y(), "stripe beyond feature map");
        assert!(self.end() <= banks.capacity(), "layout overflows bank capacity");
        for c in 0..self.channels {
            for (local, ty) in row_range.clone().enumerate() {
                for tx in 0..self.tiles_x {
                    banks.poke(Self::bank_of(c), self.addr(c, local, tx), *fm.tile(c, ty, tx));
                }
            }
        }
    }

    /// Reads a band of tile rows back from the banks into a tiled feature
    /// map at the given global row range.
    ///
    /// # Panics
    /// Panics if geometry disagrees.
    pub fn load(
        &self,
        banks: &crate::bank::BankSet,
        fm: &mut TiledFeatureMap<Sm8>,
        row_range: std::ops::Range<usize>,
    ) {
        self.load_channels(banks, fm, row_range, 0..self.channels);
    }

    /// Like [`FmLayout::load`] but restricted to a channel range — used
    /// when two accelerator instances each produced half the output
    /// channels of the same stripe.
    ///
    /// # Panics
    /// Panics if geometry disagrees or the channel range is out of bounds.
    pub fn load_channels(
        &self,
        banks: &crate::bank::BankSet,
        fm: &mut TiledFeatureMap<Sm8>,
        row_range: std::ops::Range<usize>,
        channels: std::ops::Range<usize>,
    ) {
        assert_eq!(self.channels, fm.channels(), "channel mismatch");
        assert_eq!(self.tiles_x, fm.tiles_x(), "tiles_x mismatch");
        assert_eq!(self.tile_rows, row_range.len(), "stripe height mismatch");
        assert!(channels.end <= self.channels, "channel range out of bounds");
        for c in channels {
            for (local, ty) in row_range.clone().enumerate() {
                for tx in 0..self.tiles_x {
                    *fm.tile_mut(c, ty, tx) = banks.peek(Self::bank_of(c), self.addr(c, local, tx));
                }
            }
        }
    }

    /// Copies the given channels of this layout from one bank set to
    /// another of the same geometry (host-side, no port accounting).
    ///
    /// # Panics
    /// Panics if the channel range or the layout exceeds either set.
    pub fn copy_channels(
        &self,
        from: &crate::bank::BankSet,
        to: &mut crate::bank::BankSet,
        channels: std::ops::Range<usize>,
    ) {
        assert!(channels.end <= self.channels, "channel range out of bounds");
        for c in channels {
            to.copy_words_from(from, Self::bank_of(c), self.channel_words(c));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::BankSet;
    use zskip_tensor::Tensor;

    fn fm(c: usize, h: usize, w: usize) -> TiledFeatureMap<Sm8> {
        let t = Tensor::from_fn(c, h, w, |c, y, x| Sm8::from_i32_saturating(((c * 31 + y * 7 + x) % 120) as i32 - 60));
        TiledFeatureMap::from_tensor(&t)
    }

    #[test]
    fn addresses_are_unique_within_a_bank() {
        let l = FmLayout::full(10, Shape::new(8, 16, 16));
        let mut seen = std::collections::HashSet::new();
        for c in 0..8 {
            for ty in 0..4 {
                for tx in 0..4 {
                    assert!(seen.insert((FmLayout::bank_of(c), l.addr(c, ty, tx))));
                }
            }
        }
        assert_eq!(seen.len(), 8 * 16);
    }

    #[test]
    fn channels_mod_banks_share_no_bank() {
        assert_eq!(FmLayout::bank_of(0), FmLayout::bank_of(4));
        assert_ne!(FmLayout::bank_of(1), FmLayout::bank_of(2));
    }

    #[test]
    fn store_load_round_trip_full_map() {
        let f = fm(6, 12, 8);
        let l = FmLayout::full(0, Shape::new(6, 12, 8));
        let mut banks = BankSet::with_geometry(4, 64);
        l.store(&mut banks, &f, 0..3);
        let mut g = TiledFeatureMap::zeros(Shape::new(6, 12, 8));
        l.load(&banks, &mut g, 0..3);
        assert_eq!(f, g);
    }

    #[test]
    fn store_load_round_trip_stripe() {
        let f = fm(4, 32, 8);
        let stripe = FmLayout { base: 5, channels: 4, tiles_x: 2, tile_rows: 3 };
        let mut banks = BankSet::with_geometry(4, 64);
        stripe.store(&mut banks, &f, 2..5);
        let mut g = TiledFeatureMap::zeros(Shape::new(4, 32, 8));
        stripe.load(&banks, &mut g, 2..5);
        for c in 0..4 {
            for ty in 2..5 {
                for tx in 0..2 {
                    assert_eq!(g.tile(c, ty, tx), f.tile(c, ty, tx));
                }
            }
        }
        // Rows outside the stripe stay zero.
        assert_eq!(*g.tile(0, 0, 0), zskip_tensor::Tile::zero());
    }

    #[test]
    fn copy_channels_moves_those_channels_and_no_other() {
        let f = fm(6, 8, 8);
        let l = FmLayout::full(3, Shape::new(6, 8, 8));
        let mut from = BankSet::with_geometry(4, 64);
        l.store(&mut from, &f, 0..2);
        let mut to = BankSet::with_geometry(4, 64);
        l.copy_channels(&from, &mut to, 1..5);
        let mut g = TiledFeatureMap::zeros(Shape::new(6, 8, 8));
        l.load(&to, &mut g, 0..2);
        for c in 0..6 {
            for ty in 0..2 {
                for tx in 0..2 {
                    let want = if (1..5).contains(&c) { *f.tile(c, ty, tx) } else { zskip_tensor::Tile::zero() };
                    assert_eq!(*g.tile(c, ty, tx), want, "channel {c}");
                }
            }
        }
    }

    #[test]
    fn words_per_bank_covers_worst_bank() {
        // 5 channels over 4 banks: bank 0 holds 2 planes.
        let l = FmLayout::full(0, Shape::new(5, 8, 8));
        assert_eq!(l.words_per_bank(), 2 * 2 * 2);
        assert_eq!(l.end(), 8);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn store_checks_capacity() {
        let f = fm(4, 64, 64);
        let l = FmLayout::full(0, Shape::new(4, 64, 64));
        let mut banks = BankSet::with_geometry(4, 16);
        l.store(&mut banks, &f, 0..16);
    }
}
