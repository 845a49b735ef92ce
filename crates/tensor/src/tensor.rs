//! Dense CHW tensor container.

use crate::Shape;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense tensor in CHW (channel, row, column) order.
///
/// This is the reference-side container used by the software model
/// (`zskip-nn`) and by the host driver before data is re-laid-out into the
/// accelerator's tiled format.
///
/// # Example
/// ```
/// use zskip_tensor::Tensor;
/// let mut t = Tensor::<f32>::zeros(1, 2, 2);
/// t[(0, 1, 1)] = 3.5;
/// assert_eq!(t[(0, 1, 1)], 3.5);
/// assert_eq!(t.shape().len(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tensor<T> {
    shape: Shape,
    data: Vec<T>,
}

impl<T: fmt::Debug> fmt::Debug for Tensor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({} ", self.shape)?;
        if self.data.len() <= 32 {
            write!(f, "{:?})", self.data)
        } else {
            write!(f, "[{} elements])", self.data.len())
        }
    }
}

impl<T: Copy + Default> Tensor<T> {
    /// Creates a tensor filled with `T::default()` (zero for numeric types).
    pub fn zeros(c: usize, h: usize, w: usize) -> Self {
        let shape = Shape::new(c, h, w);
        Tensor { shape, data: vec![T::default(); shape.len()] }
    }

    /// Creates a tensor from a generator function over `(c, y, x)`.
    pub fn from_fn(c: usize, h: usize, w: usize, mut f: impl FnMut(usize, usize, usize) -> T) -> Self {
        let shape = Shape::new(c, h, w);
        let mut data = Vec::with_capacity(shape.len());
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    data.push(f(ci, y, x));
                }
            }
        }
        Tensor { shape, data }
    }

    /// Creates a tensor from existing CHW-ordered data.
    ///
    /// # Panics
    /// Panics if `data.len() != c * h * w`.
    pub fn from_vec(c: usize, h: usize, w: usize, data: Vec<T>) -> Self {
        let shape = Shape::new(c, h, w);
        assert_eq!(data.len(), shape.len(), "data length does not match shape {shape}");
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Borrow the underlying CHW-ordered data.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the underlying CHW-ordered data.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the tensor, returning the underlying data.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Reshapes in place to `c x h x w`, filling every element with
    /// `T::default()`. The backing allocation is reused (and never shrunk),
    /// so repeated resets across layers of differing shapes stop allocating
    /// once the buffer has grown to the largest shape — the contract the
    /// scratch-arena inference path (`zskip-nn`) relies on.
    pub fn reset(&mut self, c: usize, h: usize, w: usize) {
        let shape = Shape::new(c, h, w);
        self.shape = shape;
        self.data.clear();
        self.data.resize(shape.len(), T::default());
    }

    /// Capacity of the backing allocation in elements (>= `shape().len()`).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Applies `f` elementwise into an existing tensor, reshaping it to
    /// match `self` and reusing its allocation — the zero-allocation
    /// counterpart of [`Tensor::map`].
    pub fn map_into<U: Copy + Default>(&self, out: &mut Tensor<U>, mut f: impl FnMut(T) -> U) {
        out.shape = self.shape;
        out.data.clear();
        out.data.extend(self.data.iter().map(|&v| f(v)));
    }

    /// Element accessor returning `default` outside the bounds.
    ///
    /// This models reading from a zero-padded halo without materializing
    /// the padding. Coordinates are signed so callers can probe `y-1` etc.
    #[inline]
    pub fn get_or(&self, c: usize, y: isize, x: isize, default: T) -> T {
        if y < 0 || x < 0 || y as usize >= self.shape.h || x as usize >= self.shape.w {
            default
        } else {
            self.data[self.shape.index(c, y as usize, x as usize)]
        }
    }

    /// One channel plane as a slice.
    pub fn channel(&self, c: usize) -> &[T] {
        let p = self.shape.plane();
        &self.data[c * p..(c + 1) * p]
    }

    /// Returns a new tensor zero-padded (`T::default()`) by `pad` on each
    /// spatial side. This is the software-reference analogue of the
    /// accelerator's pad instruction.
    pub fn padded(&self, pad: usize) -> Tensor<T> {
        let s = self.shape;
        Tensor::from_fn(s.c, s.h + 2 * pad, s.w + 2 * pad, |c, y, x| {
            self.get_or(c, y as isize - pad as isize, x as isize - pad as isize, T::default())
        })
    }

    /// Returns a copy cropped to `h x w` starting at the spatial origin.
    ///
    /// Used to strip the round-up-to-tile padding after fetching results
    /// back from the accelerator.
    ///
    /// # Panics
    /// Panics if the crop region exceeds the tensor bounds.
    pub fn cropped(&self, h: usize, w: usize) -> Tensor<T> {
        assert!(h <= self.shape.h && w <= self.shape.w, "crop larger than tensor");
        Tensor::from_fn(self.shape.c, h, w, |c, y, x| self[(c, y, x)])
    }

    /// Applies a function to every element, producing a new tensor.
    pub fn map<U: Copy + Default>(&self, mut f: impl FnMut(T) -> U) -> Tensor<U> {
        Tensor {
            shape: self.shape,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

}

impl<T: Copy + Default> Index<(usize, usize, usize)> for Tensor<T> {
    type Output = T;
    #[inline]
    fn index(&self, (c, y, x): (usize, usize, usize)) -> &T {
        &self.data[self.shape.index(c, y, x)]
    }
}

impl<T: Copy + Default> IndexMut<(usize, usize, usize)> for Tensor<T> {
    #[inline]
    fn index_mut(&mut self, (c, y, x): (usize, usize, usize)) -> &mut T {
        &mut self.data[self.shape.index(c, y, x)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_index_agree() {
        let t = Tensor::from_fn(2, 3, 4, |c, y, x| (c * 12 + y * 4 + x) as i32);
        // CHW order: the flat index is the value itself.
        for c in 0..2 {
            for y in 0..3 {
                for x in 0..4 {
                    assert_eq!(t[(c, y, x)], (c * 12 + y * 4 + x) as i32);
                }
            }
        }
        assert_eq!(t.as_slice(), (0..24).collect::<Vec<i32>>());
    }

    #[test]
    fn get_or_returns_default_outside() {
        let t = Tensor::from_fn(1, 2, 2, |_, y, x| (y * 2 + x) as i32 + 1);
        assert_eq!(t.get_or(0, -1, 0, 0), 0);
        assert_eq!(t.get_or(0, 0, 2, 0), 0);
        assert_eq!(t.get_or(0, 1, 1, 0), 4);
    }

    #[test]
    fn padded_places_original_at_offset() {
        let t = Tensor::from_fn(1, 2, 2, |_, y, x| (y * 2 + x) as i32 + 1);
        let p = t.padded(1);
        assert_eq!(p.shape(), Shape::new(1, 4, 4));
        assert_eq!(p[(0, 0, 0)], 0);
        assert_eq!(p[(0, 1, 1)], 1);
        assert_eq!(p[(0, 2, 2)], 4);
        assert_eq!(p[(0, 3, 3)], 0);
    }

    #[test]
    fn cropped_inverts_round_up_padding() {
        let t = Tensor::from_fn(2, 5, 6, |c, y, x| (c + y * 10 + x) as i32);
        let grown = Tensor::from_fn(2, 8, 8, |c, y, x| t.get_or(c, y as isize, x as isize, 0));
        assert_eq!(grown.cropped(5, 6), t);
    }

    #[test]
    fn channel_slices_are_disjoint_planes() {
        let t = Tensor::from_fn(3, 2, 2, |c, _, _| c as i32);
        assert!(t.channel(0).iter().all(|&v| v == 0));
        assert!(t.channel(2).iter().all(|&v| v == 2));
    }

    #[test]
    fn map_preserves_shape() {
        let t = Tensor::from_fn(1, 2, 2, |_, y, x| (y + x) as i32);
        let m = t.map(|v| v as f32 * 0.5);
        assert_eq!(m.shape(), t.shape());
        assert_eq!(m[(0, 1, 1)], 1.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_validates_length() {
        let _ = Tensor::from_vec(1, 2, 2, vec![0i32; 5]);
    }

    #[test]
    fn reset_reuses_capacity_and_zeroes() {
        let mut t = Tensor::from_fn(2, 4, 4, |_, _, _| 7i32);
        let cap = t.capacity();
        t.reset(1, 2, 2);
        assert_eq!(t.shape(), Shape::new(1, 2, 2));
        assert!(t.as_slice().iter().all(|&v| v == 0));
        assert_eq!(t.capacity(), cap, "shrinking reset must keep the allocation");
        // Growing past capacity is allowed (and grows capacity).
        t.reset(4, 4, 4);
        assert_eq!(t.shape().len(), 64);
        assert!(t.capacity() >= 64);
    }

    #[test]
    fn map_into_matches_map_and_reuses_buffer() {
        let t = Tensor::from_fn(2, 3, 3, |c, y, x| (c * 9 + y * 3 + x) as i32);
        let mut out = Tensor::<f32>::zeros(5, 5, 5); // wrong shape, gets reshaped
        let cap = out.capacity();
        t.map_into(&mut out, |v| v as f32 * 0.5);
        assert_eq!(out, t.map(|v| v as f32 * 0.5));
        assert_eq!(out.capacity(), cap, "smaller map_into must not reallocate");
    }
}
