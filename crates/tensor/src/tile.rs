//! The 4x4 tile: the accelerator's unit of storage and transfer.
//!
//! One tile (16 values) is one SRAM word — an entire tile can be read from a
//! bank in a single cycle (paper §III-A).

use std::fmt;
use std::ops::{Index, IndexMut};

/// Tile edge length in elements.
pub const TILE_DIM: usize = 4;
/// Number of elements in a tile (one SRAM word).
pub const TILE_ELEMS: usize = TILE_DIM * TILE_DIM;

/// One 4x4 tile of feature-map or weight data.
///
/// Values are stored row-major: index `i` holds the element at
/// `(y, x) = (i / 4, i % 4)`, matching the `X0..XF` labelling of paper
/// Fig. 2.
///
/// # Example
/// ```
/// use zskip_tensor::Tile;
/// let t = Tile::from_fn(|y, x| (y * 4 + x) as i32);
/// assert_eq!(t[(2, 3)], 11);
/// assert_eq!(t.as_array()[11], 11);
/// ```
/// 16-byte alignment: an `Sm8` tile then occupies exactly one aligned
/// 16-byte line, so SIMD kernels can treat a tile row (or a whole byte
/// tile) as one aligned vector load — the software mirror of the paper's
/// one-SRAM-word-per-cycle tile read.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
#[repr(align(16))]
pub struct Tile<T>([T; TILE_ELEMS]);

impl<T: fmt::Debug> fmt::Debug for Tile<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tile[")?;
        for y in 0..TILE_DIM {
            writeln!(f, "  {:?}", &self.0[y * TILE_DIM..(y + 1) * TILE_DIM])?;
        }
        write!(f, "]")
    }
}

impl<T: Copy + Default> Default for Tile<T> {
    fn default() -> Self {
        Tile([T::default(); TILE_ELEMS])
    }
}

impl<T: Copy + Default> Tile<T> {
    /// A tile of all-default (zero) values.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Builds a tile from a generator over intra-tile `(y, x)`.
    pub fn from_fn(mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut vals = [T::default(); TILE_ELEMS];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = f(i / TILE_DIM, i % TILE_DIM);
        }
        Tile(vals)
    }

    /// The tile contents as a row-major array reference.
    pub fn as_array(&self) -> &[T; TILE_ELEMS] {
        &self.0
    }

    /// Mutable access to the row-major contents.
    pub fn as_mut_array(&mut self) -> &mut [T; TILE_ELEMS] {
        &mut self.0
    }

    /// Iterates `(intra-tile offset, value)` pairs in row-major order.
    ///
    /// The offset is the 0..16 index used by the packed-weight format
    /// (`zskip-quant::pack`).
    pub fn iter_offsets(&self) -> impl Iterator<Item = (u8, T)> + '_ {
        self.0.iter().enumerate().map(|(i, &v)| (i as u8, v))
    }

    /// Applies a function element-wise.
    pub fn map<U: Copy + Default>(&self, mut f: impl FnMut(T) -> U) -> Tile<U> {
        let mut out = Tile::default();
        for i in 0..TILE_ELEMS {
            out.0[i] = f(self.0[i]);
        }
        out
    }
}

impl<T: Copy + Default + PartialEq> Tile<T> {
    /// Number of values equal to `zero` — used by the zero-weight packer.
    pub fn count_eq(&self, zero: T) -> usize {
        self.0.iter().filter(|&&v| v == zero).count()
    }
}

impl<T> Index<(usize, usize)> for Tile<T> {
    type Output = T;
    #[inline]
    fn index(&self, (y, x): (usize, usize)) -> &T {
        debug_assert!(y < TILE_DIM && x < TILE_DIM);
        &self.0[y * TILE_DIM + x]
    }
}

impl<T> IndexMut<(usize, usize)> for Tile<T> {
    #[inline]
    fn index_mut(&mut self, (y, x): (usize, usize)) -> &mut T {
        debug_assert!(y < TILE_DIM && x < TILE_DIM);
        &mut self.0[y * TILE_DIM + x]
    }
}

/// Decomposes an intra-tile offset (0..16) into `(dy, dx)`.
///
/// This is the decoding the convolution unit's steering muxes perform on the
/// packed weight offset (paper Fig. 4b).
#[inline]
pub const fn offset_to_dydx(offset: u8) -> (usize, usize) {
    ((offset as usize) / TILE_DIM, (offset as usize) % TILE_DIM)
}

/// Composes `(dy, dx)` into an intra-tile offset.
#[inline]
pub const fn dydx_to_offset(dy: usize, dx: usize) -> u8 {
    (dy * TILE_DIM + dx) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_layout_matches_paper_figure() {
        // Fig. 2 labels the tile X0..XF row-major.
        let t = Tile::from_fn(|y, x| y * 4 + x);
        for off in 0..16u8 {
            let (dy, dx) = offset_to_dydx(off);
            assert_eq!(t[(dy, dx)], off as usize);
            assert_eq!(dydx_to_offset(dy, dx), off);
        }
    }

    #[test]
    fn count_eq_counts_zeros() {
        let t = Tile::from_fn(|y, x| if (y + x) % 2 == 0 { 0i32 } else { 7 });
        assert_eq!(t.count_eq(0), 8);
        assert_eq!(Tile::<i32>::zero().count_eq(0), 16);
    }

    #[test]
    fn iter_offsets_is_row_major() {
        let t = Tile::from_fn(|y, x| (y * 4 + x) as i32);
        let collected: Vec<_> = t.iter_offsets().collect();
        assert_eq!(collected[5], (5, 5));
        assert_eq!(collected.len(), 16);
    }

    #[test]
    fn map_is_elementwise() {
        let t = Tile::from_fn(|y, x| (y + x) as i32);
        let doubled = t.map(|v| v * 2);
        assert_eq!(doubled[(3, 3)], 12);
    }
}
