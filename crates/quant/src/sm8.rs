//! The 8-bit magnitude-plus-sign number format (paper §IV-B).

use std::cmp::Ordering;
use std::fmt;

/// An 8-bit sign+magnitude value: bit 7 is the sign, bits 6..0 the
/// magnitude. Representable range is `-127..=127`; note that, unlike
/// two's complement, the format has both `+0` and `-0` encodings — the two
/// encodings compare equal and hash identically.
///
/// Sign+magnitude was chosen by the paper because the multiplier then
/// reduces to an unsigned 7x7 multiply plus an XOR of the signs, which maps
/// compactly onto FPGA DSP blocks.
///
/// # Example
/// ```
/// use zskip_quant::Sm8;
/// let a = Sm8::from_i32_saturating(-5);
/// let b = Sm8::from_i32_saturating(7);
/// assert_eq!(a.to_i32() * b.to_i32(), -35);
/// assert_eq!(Sm8::from_i32_saturating(1000).to_i32(), 127);
/// assert!(Sm8::NEG_ZERO == Sm8::ZERO);
/// ```
#[derive(Clone, Copy)]
#[repr(transparent)]
pub struct Sm8(u8);

impl Sm8 {
    /// Positive zero (all bits clear).
    pub const ZERO: Sm8 = Sm8(0);
    /// Negative zero (sign bit set, zero magnitude). Equal to [`Sm8::ZERO`].
    pub const NEG_ZERO: Sm8 = Sm8(0x80);
    /// Largest representable value, +127.
    pub const MAX: Sm8 = Sm8(0x7f);
    /// Smallest representable value, -127.
    pub const MIN: Sm8 = Sm8(0xff);

    /// Builds from raw sign+magnitude bits.
    pub const fn from_bits(bits: u8) -> Sm8 {
        Sm8(bits)
    }

    /// The raw sign+magnitude bit pattern.
    pub const fn to_bits(self) -> u8 {
        self.0
    }

    /// Builds from sign and magnitude parts.
    ///
    /// # Panics
    /// Panics if `magnitude > 127`.
    pub fn new(negative: bool, magnitude: u8) -> Sm8 {
        assert!(magnitude <= 127, "magnitude {magnitude} exceeds 7 bits");
        Sm8(if negative { 0x80 | magnitude } else { magnitude })
    }

    /// Converts to a full-width integer (the value injected into the
    /// accelerator's 32-bit accumulators).
    #[inline]
    pub const fn to_i32(self) -> i32 {
        let mag = (self.0 & 0x7f) as i32;
        if self.0 & 0x80 != 0 {
            -mag
        } else {
            mag
        }
    }

    /// Saturating conversion from a full-width integer; values outside
    /// `-127..=127` clamp to the range limits.
    #[inline]
    pub const fn from_i32_saturating(v: i32) -> Sm8 {
        let neg = v < 0;
        let mag = v.unsigned_abs();
        let mag = if mag > 127 { 127 } else { mag as u8 };
        Sm8(if neg { 0x80 | mag } else { mag })
    }

    /// The magnitude part (0..=127).
    #[inline]
    pub const fn magnitude(self) -> u8 {
        self.0 & 0x7f
    }

    /// Whether the sign bit is set. Note `-0` reports `true` here while
    /// still comparing equal to `+0`.
    #[inline]
    pub const fn sign_bit(self) -> bool {
        self.0 & 0x80 != 0
    }

    /// Whether the value is zero (either encoding).
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 & 0x7f == 0
    }

    /// The product with another value, exact in `i32`. Models the
    /// accelerator's multiplier: unsigned 7x7 multiply, XOR sign.
    #[inline]
    pub const fn mul_exact(self, rhs: Sm8) -> i32 {
        let mag = (self.magnitude() as i32) * (rhs.magnitude() as i32);
        if self.sign_bit() != rhs.sign_bit() {
            -mag
        } else {
            mag
        }
    }

    /// Branch-free decode to `i16`: `(mag ^ neg) - neg` where `neg` is the
    /// sign bit arithmetically smeared to `0` or `-1`. Identical to
    /// [`Sm8::to_i32`] for every bit pattern (including `-0`), but maps
    /// 1:1 onto the lane-parallel form SIMD kernels use, so the scalar and
    /// vector datapaths share one decode definition.
    #[inline]
    pub const fn decode_i16(self) -> i16 {
        let mag = (self.0 & 0x7f) as i16;
        // Shift the sign bit (bit 7) to bit 15, then arithmetic-shift it
        // across the lane: 0x00.. for positive, 0xff.. for negative.
        let neg = ((self.0 as i16) << 8) >> 15;
        (mag ^ neg) - neg
    }

    /// The raw bit patterns of a slice, borrowed in place.
    #[inline]
    pub fn as_bytes(values: &[Sm8]) -> &[u8] {
        // SAFETY: `Sm8` is `#[repr(transparent)]` over `u8`, so the slice's
        // buffer is `values.len()` valid, initialized bytes.
        unsafe { std::slice::from_raw_parts(values.as_ptr() as *const u8, values.len()) }
    }

    /// `n` zeros from a zeroed allocation: a large one maps pages the
    /// kernel zeroes on first touch, so whoever writes the vector first
    /// pays its page faults, once, instead of a fill loop before it
    /// (`vec![Sm8::ZERO; n]` writes every byte).
    pub fn zeroed_vec(n: usize) -> Vec<Sm8> {
        let mut bytes = std::mem::ManuallyDrop::new(vec![0u8; n]);
        // SAFETY: `Sm8` is `#[repr(transparent)]` over `u8` — same size
        // and alignment, and any byte is a valid `Sm8` — and `bytes` gives
        // up its buffer, which the new vector owns with the same length
        // and capacity.
        unsafe { Vec::from_raw_parts(bytes.as_mut_ptr().cast::<Sm8>(), bytes.len(), bytes.capacity()) }
    }
}

impl Default for Sm8 {
    fn default() -> Self {
        Sm8::ZERO
    }
}

impl PartialEq for Sm8 {
    fn eq(&self, other: &Self) -> bool {
        self.to_i32() == other.to_i32()
    }
}

impl Eq for Sm8 {}

impl PartialOrd for Sm8 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sm8 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.to_i32().cmp(&other.to_i32())
    }
}

impl std::hash::Hash for Sm8 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.to_i32().hash(state);
    }
}

impl std::ops::Neg for Sm8 {
    type Output = Sm8;
    fn neg(self) -> Sm8 {
        Sm8(self.0 ^ 0x80)
    }
}

impl From<Sm8> for i32 {
    fn from(v: Sm8) -> i32 {
        v.to_i32()
    }
}

impl TryFrom<i32> for Sm8 {
    type Error = OutOfRangeError;

    fn try_from(v: i32) -> Result<Sm8, OutOfRangeError> {
        if (-127..=127).contains(&v) {
            Ok(Sm8::from_i32_saturating(v))
        } else {
            Err(OutOfRangeError(v))
        }
    }
}

/// Error: an integer does not fit the sign+magnitude 8-bit range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfRangeError(pub i32);

impl fmt::Display for OutOfRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "value {} outside sign+magnitude 8-bit range -127..=127", self.0)
    }
}

impl std::error::Error for OutOfRangeError {}

impl fmt::Debug for Sm8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sm8({})", self.to_i32())
    }
}

impl fmt::Display for Sm8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_i32())
    }
}

impl fmt::Binary for Sm8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::LowerHex for Sm8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Sm8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeroed_vec_is_n_positive_zeros() {
        for n in [0, 1, 17, 1 << 20] {
            let v = Sm8::zeroed_vec(n);
            assert_eq!(v.len(), n);
            assert!(v.iter().all(|&x| x.to_bits() == 0), "n {n}");
        }
    }

    #[test]
    fn round_trips_all_in_range_values() {
        for v in -127..=127 {
            assert_eq!(Sm8::from_i32_saturating(v).to_i32(), v);
            assert_eq!(Sm8::try_from(v).unwrap().to_i32(), v);
        }
    }

    #[test]
    fn saturates_out_of_range() {
        assert_eq!(Sm8::from_i32_saturating(128).to_i32(), 127);
        assert_eq!(Sm8::from_i32_saturating(-128).to_i32(), -127);
        assert_eq!(Sm8::from_i32_saturating(i32::MIN).to_i32(), -127);
        assert!(Sm8::try_from(128).is_err());
        assert_eq!(Sm8::try_from(200).unwrap_err(), OutOfRangeError(200));
    }

    #[test]
    fn both_zeros_equal_and_hash_alike() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        assert_eq!(Sm8::ZERO, Sm8::NEG_ZERO);
        assert!(Sm8::NEG_ZERO.is_zero());
        let h = |v: Sm8| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(Sm8::ZERO), h(Sm8::NEG_ZERO));
    }

    #[test]
    fn neg_flips_sign_bit_only() {
        let v = Sm8::from_i32_saturating(42);
        assert_eq!((-v).to_i32(), -42);
        assert_eq!((-(-v)).to_i32(), 42);
        assert_eq!((-Sm8::ZERO), Sm8::ZERO);
    }

    #[test]
    fn ordering_is_by_value() {
        let mut vals: Vec<Sm8> = [3, -7, 0, 127, -127].iter().map(|&v| Sm8::from_i32_saturating(v)).collect();
        vals.sort();
        let ints: Vec<i32> = vals.iter().map(|v| v.to_i32()).collect();
        assert_eq!(ints, vec![-127, -7, 0, 3, 127]);
    }

    #[test]
    fn formatting_exposes_bits() {
        let v = Sm8::new(true, 5);
        assert_eq!(format!("{v:x}"), "85");
        assert_eq!(format!("{v:X}"), "85");
        assert_eq!(format!("{v:b}"), "10000101");
        assert_eq!(format!("{v}"), "-5");
        assert_eq!(format!("{v:?}"), "Sm8(-5)");
    }

    #[test]
    #[should_panic(expected = "magnitude")]
    fn new_rejects_wide_magnitude() {
        let _ = Sm8::new(false, 200);
    }

    proptest! {
        #[test]
        fn mul_exact_matches_i32_multiply(a in -127i32..=127, b in -127i32..=127) {
            let sa = Sm8::from_i32_saturating(a);
            let sb = Sm8::from_i32_saturating(b);
            prop_assert_eq!(sa.mul_exact(sb), a * b);
        }

        #[test]
        fn bits_round_trip(bits in 0u8..=255) {
            let v = Sm8::from_bits(bits);
            prop_assert_eq!(v.to_bits(), bits);
            // Value always in range.
            prop_assert!((-127..=127).contains(&v.to_i32()));
        }

        #[test]
        fn neg_is_involution(v in -127i32..=127) {
            let s = Sm8::from_i32_saturating(v);
            prop_assert_eq!(-(-s), s);
        }

        #[test]
        fn branchfree_decode_matches_to_i32_for_all_bit_patterns(bits in 0u8..=255) {
            let v = Sm8::from_bits(bits);
            prop_assert_eq!(v.decode_i16() as i32, v.to_i32());
        }

        #[test]
        fn as_bytes_borrows_the_bit_patterns(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
            let src: Vec<Sm8> = bytes.iter().map(|&b| Sm8::from_bits(b)).collect();
            prop_assert_eq!(Sm8::as_bytes(&src), &bytes[..]);
        }
    }
}
