//! Feature-map shapes and geometry helpers.

use std::fmt;

/// Shape of a CHW feature-map volume (channels, height, width).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Shape {
    /// Number of channels (feature maps).
    pub c: usize,
    /// Height in elements.
    pub h: usize,
    /// Width in elements.
    pub w: usize,
}

impl Shape {
    /// Creates a new shape.
    ///
    /// # Example
    /// ```
    /// let s = zskip_tensor::Shape::new(64, 224, 224);
    /// assert_eq!(s.len(), 64 * 224 * 224);
    /// ```
    pub const fn new(c: usize, h: usize, w: usize) -> Self {
        Shape { c, h, w }
    }

    /// Total number of elements in the volume.
    pub const fn len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Whether the volume is empty (any dimension zero).
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of elements in one channel plane.
    pub const fn plane(&self) -> usize {
        self.h * self.w
    }

    /// Linear CHW index of element `(c, y, x)`.
    ///
    /// # Panics
    /// Panics in debug builds if the coordinates are out of range.
    #[inline]
    pub fn index(&self, c: usize, y: usize, x: usize) -> usize {
        debug_assert!(c < self.c && y < self.h && x < self.w, "({c},{y},{x}) out of {self}");
        (c * self.h + y) * self.w + x
    }

    /// Shape after zero-padding the perimeter by `pad` elements on each side.
    pub const fn padded(&self, pad: usize) -> Shape {
        Shape::new(self.c, self.h + 2 * pad, self.w + 2 * pad)
    }

    /// Shape rounded up so height and width are multiples of `m`.
    pub const fn round_up_to(&self, m: usize) -> Shape {
        Shape::new(self.c, self.h.div_ceil(m) * m, self.w.div_ceil(m) * m)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.c, self.h, self.w)
    }
}

/// Output spatial size of a convolution/pool window sweep.
///
/// `out = (in + 2*pad - k) / stride + 1`, the standard formula. Returns
/// `None` when the window does not fit even once, or is empty (`k == 0`)
/// or never advances (`stride == 0`).
pub fn conv_out_dim(input: usize, k: usize, stride: usize, pad: usize) -> Option<usize> {
    let padded = input + 2 * pad;
    if padded < k || k == 0 || stride == 0 {
        return None;
    }
    Some((padded - k) / stride + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_chw_row_major() {
        let s = Shape::new(2, 3, 4);
        assert_eq!(s.index(0, 0, 0), 0);
        assert_eq!(s.index(0, 0, 3), 3);
        assert_eq!(s.index(0, 1, 0), 4);
        assert_eq!(s.index(1, 0, 0), 12);
        assert_eq!(s.index(1, 2, 3), 23);
        assert_eq!(s.len(), 24);
    }

    #[test]
    fn padded_grows_spatial_dims_only() {
        let s = Shape::new(3, 10, 12).padded(1);
        assert_eq!(s, Shape::new(3, 12, 14));
    }

    #[test]
    fn round_up_is_idempotent() {
        let s = Shape::new(3, 10, 12).round_up_to(4);
        assert_eq!(s, Shape::new(3, 12, 12));
        assert_eq!(s.round_up_to(4), s);
    }

    #[test]
    fn conv_out_dim_matches_vgg_layers() {
        // VGG-16: 3x3 conv stride 1 pad 1 preserves dims.
        assert_eq!(conv_out_dim(224, 3, 1, 1), Some(224));
        // 2x2 max-pool stride 2 halves dims.
        assert_eq!(conv_out_dim(224, 2, 2, 0), Some(112));
        assert_eq!(conv_out_dim(14, 2, 2, 0), Some(7));
    }

    #[test]
    fn conv_out_dim_rejects_too_small_input() {
        assert_eq!(conv_out_dim(2, 3, 1, 0), None);
        assert_eq!(conv_out_dim(2, 3, 0, 1), None);
        assert_eq!(conv_out_dim(8, 0, 1, 0), None, "an empty window sweeps nothing");
    }
}
