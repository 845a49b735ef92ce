//! Feature maps re-laid-out as row-major 4x4 tiles (paper Fig. 2).

use crate::{Shape, Tensor, Tile, TILE_DIM};

/// A CHW feature-map volume stored as row-major tiles per channel.
///
/// Spatial dimensions are rounded up to a multiple of [`TILE_DIM`]; the
/// round-up region is filled with the element default (zero). Tiles within a
/// channel are stored row-major (the coloured layout on the right of paper
/// Fig. 2), and channels are stored consecutively.
///
/// # Example
/// ```
/// use zskip_tensor::{Tensor, TiledFeatureMap};
/// let t = Tensor::from_fn(2, 6, 6, |c, y, x| (c * 36 + y * 6 + x) as i32);
/// let tiled = TiledFeatureMap::from_tensor(&t);
/// assert_eq!(tiled.tiles_y(), 2);
/// assert_eq!(tiled.tiles_x(), 2);
/// // Element (0, 5, 5) lives in tile (1, 1) at intra-tile (1, 1).
/// assert_eq!(tiled.tile(0, 1, 1)[(1, 1)], 35);
/// assert_eq!(tiled.to_tensor().cropped(6, 6), t);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TiledFeatureMap<T> {
    /// Original (un-rounded) shape, kept so `to_tensor` consumers can crop.
    logical: Shape,
    tiles_y: usize,
    tiles_x: usize,
    channels: usize,
    tiles: Vec<Tile<T>>,
}

impl<T: Copy + Default> TiledFeatureMap<T> {
    /// Creates an all-zero tiled volume for a logical shape.
    pub fn zeros(shape: Shape) -> Self {
        let tiles_y = shape.h.div_ceil(TILE_DIM);
        let tiles_x = shape.w.div_ceil(TILE_DIM);
        TiledFeatureMap {
            logical: shape,
            tiles_y,
            tiles_x,
            channels: shape.c,
            tiles: vec![Tile::zero(); shape.c * tiles_y * tiles_x],
        }
    }

    /// Re-lays-out a dense tensor into tiles (the host pre-processing step
    /// the paper runs on the ARM: "reordering of data into tiled format").
    pub fn from_tensor(t: &Tensor<T>) -> Self {
        let mut out = Self::zeros(t.shape());
        let Shape { c: _, h, w } = out.logical;
        let dense = t.as_slice();
        // One `copy_from_slice` per tile row, clipped to the logical extent
        // on the right and bottom edges; the round-up region stays zero.
        for c in 0..out.channels {
            for ty in 0..out.tiles_y {
                let y0 = ty * TILE_DIM;
                let rows = TILE_DIM.min(h - y0);
                for tx in 0..out.tiles_x {
                    let x0 = tx * TILE_DIM;
                    let n = TILE_DIM.min(w - x0);
                    let tile = out.tile_mut(c, ty, tx).as_mut_array();
                    for iy in 0..rows {
                        let at = (c * h + y0 + iy) * w + x0;
                        tile[iy * TILE_DIM..iy * TILE_DIM + n].copy_from_slice(&dense[at..at + n]);
                    }
                }
            }
        }
        out
    }

    /// Converts back to a dense tensor of the *rounded-up* shape.
    ///
    /// Crop with [`Tensor::cropped`] to recover the logical extent.
    pub fn to_tensor(&self) -> Tensor<T> {
        let h = self.tiles_y * TILE_DIM;
        let w = self.tiles_x * TILE_DIM;
        Tensor::from_fn(self.channels, h, w, |c, y, x| {
            self.tile(c, y / TILE_DIM, x / TILE_DIM)[(y % TILE_DIM, x % TILE_DIM)]
        })
    }

    /// Logical (pre-round-up) shape.
    pub fn logical_shape(&self) -> Shape {
        self.logical
    }

    /// Number of tile rows per channel.
    pub fn tiles_y(&self) -> usize {
        self.tiles_y
    }

    /// Number of tile columns per channel.
    pub fn tiles_x(&self) -> usize {
        self.tiles_x
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Total number of tiles across all channels.
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Linear tile index of tile `(c, ty, tx)` — the SRAM word address
    /// offset used by the bank layout.
    #[inline]
    pub fn tile_index(&self, c: usize, ty: usize, tx: usize) -> usize {
        debug_assert!(c < self.channels && ty < self.tiles_y && tx < self.tiles_x);
        (c * self.tiles_y + ty) * self.tiles_x + tx
    }

    /// Borrow tile `(c, ty, tx)`.
    #[inline]
    pub fn tile(&self, c: usize, ty: usize, tx: usize) -> &Tile<T> {
        &self.tiles[self.tile_index(c, ty, tx)]
    }

    /// Mutably borrow tile `(c, ty, tx)`.
    #[inline]
    pub fn tile_mut(&mut self, c: usize, ty: usize, tx: usize) -> &mut Tile<T> {
        let i = self.tile_index(c, ty, tx);
        &mut self.tiles[i]
    }

    /// Tile at `(c, ty, tx)`, or an all-zero tile when the coordinates fall
    /// outside the map. Models fetching beyond the feature-map boundary,
    /// which the hardware satisfies with zero data.
    pub fn tile_or_zero(&self, c: usize, ty: isize, tx: isize) -> Tile<T> {
        if ty < 0 || tx < 0 || ty as usize >= self.tiles_y || tx as usize >= self.tiles_x {
            Tile::zero()
        } else {
            *self.tile(c, ty as usize, tx as usize)
        }
    }

    /// Zeroes every cell beyond the logical extent (the round-up region).
    ///
    /// Tile-aligned producers (convolution, pooling) compute whole tiles,
    /// so the cells past the logical height/width of an output feature map
    /// hold don't-care values; consumers that window across the boundary
    /// (padding, overlapping pooling) require them to read as zero. The
    /// host driver applies this mask after every accelerator pass.
    pub fn zero_round_up_region(&mut self) {
        let Shape { c: _, h, w } = self.logical;
        for c in 0..self.channels {
            for ty in 0..self.tiles_y {
                for tx in 0..self.tiles_x {
                    let (y0, x0) = (ty * TILE_DIM, tx * TILE_DIM);
                    if y0 + TILE_DIM <= h && x0 + TILE_DIM <= w {
                        continue; // fully interior tile
                    }
                    let idx = self.tile_index(c, ty, tx);
                    let tile = &mut self.tiles[idx];
                    for y in 0..TILE_DIM {
                        for x in 0..TILE_DIM {
                            if y0 + y >= h || x0 + x >= w {
                                tile[(y, x)] = T::default();
                            }
                        }
                    }
                }
            }
        }
    }

    /// All tiles in row-major `(c, ty, tx)` order — the bank memory image.
    pub fn as_tiles(&self) -> &[Tile<T>] {
        &self.tiles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_exact_multiple() {
        let t = Tensor::from_fn(3, 8, 8, |c, y, x| (c * 64 + y * 8 + x) as i32);
        let tiled = TiledFeatureMap::from_tensor(&t);
        assert_eq!(tiled.to_tensor(), t);
    }

    #[test]
    fn round_trip_with_round_up() {
        let t = Tensor::from_fn(2, 7, 5, |c, y, x| (c * 100 + y * 10 + x) as i32 + 1);
        let tiled = TiledFeatureMap::from_tensor(&t);
        assert_eq!(tiled.tiles_y(), 2);
        assert_eq!(tiled.tiles_x(), 2);
        let dense = tiled.to_tensor();
        assert_eq!(dense.shape(), Shape::new(2, 8, 8));
        assert_eq!(dense.cropped(7, 5), t);
        // Round-up region is zero.
        assert_eq!(dense[(0, 7, 7)], 0);
    }

    #[test]
    fn from_tensor_matches_the_per_cell_definition_at_every_edge_remainder() {
        // Width and height remainders 0..=3 against the 4-wide tile: cell
        // (y, x) of tile (ty, tx) is the tensor's element there, or zero
        // beyond the logical extent.
        for (h, w) in [(1, 1), (4, 8), (5, 6), (6, 5), (7, 11), (10, 3), (13, 9)] {
            let t = Tensor::from_fn(3, h, w, |c, y, x| (c * 1000 + y * 20 + x) as i32 + 1);
            let tiled = TiledFeatureMap::from_tensor(&t);
            assert_eq!((tiled.tiles_y(), tiled.tiles_x()), (h.div_ceil(4), w.div_ceil(4)), "{h}x{w}");
            for c in 0..3 {
                for ty in 0..tiled.tiles_y() {
                    for tx in 0..tiled.tiles_x() {
                        let want = Tile::from_fn(|y, x| {
                            t.get_or(c, (ty * TILE_DIM + y) as isize, (tx * TILE_DIM + x) as isize, 0)
                        });
                        assert_eq!(tiled.tile(c, ty, tx), &want, "{h}x{w} tile ({c}, {ty}, {tx})");
                    }
                }
            }
        }
    }

    #[test]
    fn tile_index_is_dense_and_unique() {
        let tiled = TiledFeatureMap::<i32>::zeros(Shape::new(3, 9, 13));
        let mut seen = std::collections::HashSet::new();
        for c in 0..3 {
            for ty in 0..tiled.tiles_y() {
                for tx in 0..tiled.tiles_x() {
                    assert!(seen.insert(tiled.tile_index(c, ty, tx)));
                }
            }
        }
        assert_eq!(seen.len(), tiled.tile_count());
    }
}

#[cfg(test)]
mod round_up_tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn zero_round_up_region_clears_only_outside() {
        let t = Tensor::from_fn(2, 6, 7, |c, y, x| (c * 100 + y * 10 + x) as i32 + 1);
        let mut tiled = TiledFeatureMap::from_tensor(&t);
        // Scribble junk into the round-up cells.
        for c in 0..2 {
            tiled.tile_mut(c, 1, 1)[(3, 3)] = -99; // (7,7): outside 6x7
            tiled.tile_mut(c, 0, 1)[(0, 3)] = -77; // (0,7): outside width
        }
        tiled.zero_round_up_region();
        assert_eq!(tiled.to_tensor().cropped(6, 7), t, "logical region untouched");
        assert_eq!(tiled.tile(0, 1, 1)[(3, 3)], 0);
        assert_eq!(tiled.tile(1, 0, 1)[(0, 3)], 0);
    }

    #[test]
    fn zero_round_up_region_is_noop_on_aligned_maps() {
        let t = Tensor::from_fn(1, 8, 8, |_, y, x| (y * 8 + x) as i32);
        let mut tiled = TiledFeatureMap::from_tensor(&t);
        let before = tiled.clone();
        tiled.zero_round_up_region();
        assert_eq!(tiled, before);
    }
}
