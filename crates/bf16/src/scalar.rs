//! The [`Bf16`] scalar type: bit layout, conversions, and arithmetic.

use std::cmp::Ordering;
use std::error::Error;
use std::fmt;
use std::iter::{Product, Sum};
use std::num::ParseFloatError;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// A 16-bit brain floating point number (1 sign, 8 exponent, 7 mantissa bits).
///
/// `Bf16` is a bit-exact storage format: the upper half of an IEEE-754
/// `f32`. Conversions from `f32` use round-to-nearest-even, matching the
/// rounding performed by bf16 hardware datapaths. Arithmetic operators
/// compute in `f32` and round the result back to `Bf16`, which models a
/// hardware unit with wide internal precision and a bf16 result register —
/// exactly the shape of Newton's per-bank multiply/adder-tree datapath.
///
/// # Example
///
/// ```
/// use newton_bf16::Bf16;
///
/// let a = Bf16::from_f32(1.5);
/// let b = Bf16::from_f32(2.25);
/// assert_eq!((a * b).to_f32(), 3.375);
/// // bf16 has only 8 significand bits, so fine detail rounds away:
/// assert_eq!(Bf16::from_f32(1.0 + 1.0 / 512.0), Bf16::ONE);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct Bf16(u16);

impl Bf16 {
    /// Positive zero.
    pub const ZERO: Bf16 = Bf16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: Bf16 = Bf16(0x8000);
    /// One.
    pub const ONE: Bf16 = Bf16(0x3F80);
    /// Positive infinity.
    pub const INFINITY: Bf16 = Bf16(0x7F80);
    /// Negative infinity.
    pub const NEG_INFINITY: Bf16 = Bf16(0xFF80);
    /// A quiet NaN.
    pub const NAN: Bf16 = Bf16(0x7FC0);
    /// The largest finite value, `(2 - 2^-7) * 2^127` ≈ 3.3895e38.
    pub const MAX: Bf16 = Bf16(0x7F7F);
    /// The smallest finite value (`-MAX`).
    pub const MIN: Bf16 = Bf16(0xFF7F);

    /// Creates a `Bf16` from its raw bit pattern.
    ///
    /// # Example
    ///
    /// ```
    /// use newton_bf16::Bf16;
    /// assert_eq!(Bf16::from_bits(0x3F80), Bf16::ONE);
    /// ```
    #[inline]
    #[must_use]
    pub const fn from_bits(bits: u16) -> Bf16 {
        Bf16(bits)
    }

    /// Returns the raw bit pattern.
    ///
    /// # Example
    ///
    /// ```
    /// use newton_bf16::Bf16;
    /// assert_eq!(Bf16::ONE.to_bits(), 0x3F80);
    /// ```
    #[inline]
    #[must_use]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to `Bf16` with round-to-nearest-even.
    ///
    /// NaN inputs map to a quiet NaN (the payload's top mantissa bit is
    /// forced so the result stays a NaN after truncation). Values whose
    /// magnitude exceeds [`Bf16::MAX`] round to infinity, as in IEEE-754.
    ///
    /// # Example
    ///
    /// ```
    /// use newton_bf16::Bf16;
    /// // Exactly halfway between two bf16 values rounds to the even one.
    /// let halfway = f32::from_bits(0x3F80_8000); // 1.00390625
    /// assert_eq!(Bf16::from_f32(halfway), Bf16::ONE);
    /// ```
    #[inline]
    #[must_use]
    pub fn from_f32(value: f32) -> Bf16 {
        let bits = value.to_bits();
        if value.is_nan() {
            // Preserve sign and signal a quiet NaN; keep some payload bits.
            return Bf16(((bits >> 16) as u16) | 0x0040);
        }
        // Round to nearest, ties to even: add 0x7FFF plus the parity of the
        // bit that will become the LSB.
        let round_bias = 0x7FFF + ((bits >> 16) & 1);
        Bf16(((bits + round_bias) >> 16) as u16)
    }

    /// Converts to `f32` exactly (every `Bf16` value is representable).
    ///
    /// # Example
    ///
    /// ```
    /// use newton_bf16::Bf16;
    /// assert_eq!(Bf16::from_f32(-2.5).to_f32(), -2.5);
    /// ```
    #[inline]
    #[must_use]
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// Converts to `f64` exactly.
    #[inline]
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// Converts an `f64` to `Bf16` (via `f32`, then round-to-nearest-even).
    ///
    /// Double rounding through `f32` is exact for bf16 because `f32` keeps
    /// 24 significand bits — more than twice bf16's 8 — so no value lands on
    /// a new tie.
    #[inline]
    #[must_use]
    pub fn from_f64(value: f64) -> Bf16 {
        Bf16::from_f32(value as f32)
    }

    /// The little-endian byte encoding used by DRAM row storage.
    #[inline]
    #[must_use]
    pub const fn to_le_bytes(self) -> [u8; 2] {
        self.0.to_le_bytes()
    }

    /// Decodes from the little-endian byte encoding.
    #[inline]
    #[must_use]
    pub const fn from_le_bytes(bytes: [u8; 2]) -> Bf16 {
        Bf16(u16::from_le_bytes(bytes))
    }

    /// Returns `true` if this value is neither infinite nor NaN.
    #[inline]
    #[must_use]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7F80) != 0x7F80
    }

    /// Returns the absolute value.
    #[inline]
    #[must_use]
    pub fn abs(self) -> Bf16 {
        Bf16(self.0 & 0x7FFF)
    }

    /// Fused multiply-round: computes `self * rhs` in `f32` and rounds the
    /// product to bf16 — the operation one Newton multiplier performs per
    /// COMP step before the adder tree.
    #[inline]
    #[must_use]
    pub fn mul_round(self, rhs: Bf16) -> Bf16 {
        Bf16::from_f32(self.to_f32() * rhs.to_f32())
    }

    /// Result-latch accumulation: adds a wide (`f32`) partial sum into a
    /// bf16 accumulator register, rounding on every step. This models
    /// Newton's per-bank "single scalar bfloat16 register" that accumulates
    /// the adder-tree output over the 32 COMP rounds of a DRAM row.
    #[inline]
    #[must_use]
    pub fn accumulate_wide(self, partial: f32) -> Bf16 {
        Bf16::from_f32(self.to_f32() + partial)
    }

    /// Total ordering over bit patterns (IEEE-754 `totalOrder`), mirroring
    /// [`f32::total_cmp`]. Useful for sorting buffers that may contain NaN.
    #[inline]
    #[must_use]
    pub fn total_cmp(&self, other: &Bf16) -> Ordering {
        let mut l = self.0 as i16;
        let mut r = other.0 as i16;
        l ^= (((l >> 15) as u16) >> 1) as i16;
        r ^= (((r >> 15) as u16) >> 1) as i16;
        l.cmp(&r)
    }
}

impl fmt::Debug for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bf16({})", self.to_f32())
    }
}

impl fmt::Display for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl fmt::LowerHex for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl fmt::Octal for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Octal::fmt(&self.0, f)
    }
}

impl PartialOrd for Bf16 {
    #[inline]
    fn partial_cmp(&self, other: &Bf16) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl From<Bf16> for f32 {
    #[inline]
    fn from(value: Bf16) -> f32 {
        value.to_f32()
    }
}

impl From<Bf16> for f64 {
    #[inline]
    fn from(value: Bf16) -> f64 {
        value.to_f64()
    }
}

impl From<i8> for Bf16 {
    #[inline]
    fn from(value: i8) -> Bf16 {
        Bf16::from_f32(value as f32)
    }
}

impl From<u8> for Bf16 {
    #[inline]
    fn from(value: u8) -> Bf16 {
        Bf16::from_f32(value as f32)
    }
}

/// An error parsing a [`Bf16`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBf16Error(ParseFloatError);

impl fmt::Display for ParseBf16Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid bfloat16 literal: {}", self.0)
    }
}

impl Error for ParseBf16Error {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.0)
    }
}

impl FromStr for Bf16 {
    type Err = ParseBf16Error;

    /// Parses a decimal literal and rounds it to bf16.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBf16Error`] when the input is not a valid float
    /// literal (same grammar as [`f32::from_str`]).
    fn from_str(s: &str) -> Result<Bf16, ParseBf16Error> {
        s.parse::<f32>().map(Bf16::from_f32).map_err(ParseBf16Error)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl $trait for Bf16 {
            type Output = Bf16;
            #[inline]
            fn $method(self, rhs: Bf16) -> Bf16 {
                Bf16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }

        impl $assign_trait for Bf16 {
            #[inline]
            fn $assign_method(&mut self, rhs: Bf16) {
                *self = *self $op rhs;
            }
        }
    };
}

impl_binop!(Add, add, AddAssign, add_assign, +);
impl_binop!(Sub, sub, SubAssign, sub_assign, -);
impl_binop!(Mul, mul, MulAssign, mul_assign, *);
impl_binop!(Div, div, DivAssign, div_assign, /);

impl Neg for Bf16 {
    type Output = Bf16;
    #[inline]
    fn neg(self) -> Bf16 {
        Bf16(self.0 ^ 0x8000)
    }
}

impl Sum for Bf16 {
    /// Sequential left-to-right sum with bf16 rounding at each step.
    ///
    /// Note: Newton hardware reduces through a *tree*; use
    /// [`crate::reduce`] when tree semantics matter.
    fn sum<I: Iterator<Item = Bf16>>(iter: I) -> Bf16 {
        iter.fold(Bf16::ZERO, |acc, x| acc + x)
    }
}

impl Product for Bf16 {
    fn product<I: Iterator<Item = Bf16>>(iter: I) -> Bf16 {
        iter.fold(Bf16::ONE, |acc, x| acc * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_reference_values() {
        assert_eq!(Bf16::ZERO.to_f32(), 0.0);
        assert!(Bf16::ZERO.to_f32().is_sign_positive());
        assert!(Bf16::NEG_ZERO.to_f32().is_sign_negative());
        assert_eq!(Bf16::ONE.to_f32(), 1.0);
        assert_eq!(Bf16::INFINITY.to_f32(), f32::INFINITY);
        assert_eq!(Bf16::NEG_INFINITY.to_f32(), f32::NEG_INFINITY);
        assert!(Bf16::NAN.to_f32().is_nan());
        assert_eq!(Bf16::MAX.to_f32(), 3.389_531_4e38);
        assert_eq!(Bf16::MIN.to_f32(), -Bf16::MAX.to_f32());
    }

    #[test]
    fn round_to_nearest_even_at_ties() {
        // 1.0 + 2^-9 is exactly halfway between 1.0 and 1.0 + 2^-8 in a
        // hypothetical 9-bit significand; in bf16 the tie is between
        // 1.0 (even LSB) and 1.0078125.
        let halfway_down = f32::from_bits(0x3F80_8000);
        assert_eq!(Bf16::from_f32(halfway_down), Bf16::from_bits(0x3F80));
        // Halfway above an odd LSB rounds up to the even neighbor.
        let halfway_up = f32::from_bits(0x3F81_8000);
        assert_eq!(Bf16::from_f32(halfway_up), Bf16::from_bits(0x3F82));
        // Just below/above the tie round toward the nearer value.
        assert_eq!(
            Bf16::from_f32(f32::from_bits(0x3F80_7FFF)),
            Bf16::from_bits(0x3F80)
        );
        assert_eq!(
            Bf16::from_f32(f32::from_bits(0x3F80_8001)),
            Bf16::from_bits(0x3F81)
        );
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        let just_above_max = f32::from_bits(0x7F7F_8000); // tie toward inf
        assert_eq!(Bf16::from_f32(just_above_max), Bf16::INFINITY);
        assert_eq!(Bf16::from_f32(f32::MAX), Bf16::INFINITY);
        assert_eq!(Bf16::from_f32(-f32::MAX), Bf16::NEG_INFINITY);
    }

    #[test]
    fn nan_conversion_stays_nan_and_keeps_sign() {
        let neg_nan = f32::from_bits(0xFF80_0001);
        let converted = Bf16::from_f32(neg_nan);
        assert!(converted.to_f32().is_nan());
        assert!(converted.to_f32().is_sign_negative());
        // A NaN whose payload lives only in the low 16 bits must not
        // truncate to infinity.
        let low_payload_nan = f32::from_bits(0x7F80_0001);
        assert!(Bf16::from_f32(low_payload_nan).to_f32().is_nan());
    }

    #[test]
    fn roundtrip_through_f32_is_identity_for_non_nan() {
        for bits in 0..=u16::MAX {
            let x = Bf16::from_bits(bits);
            if x.to_f32().is_nan() {
                assert!(Bf16::from_f32(x.to_f32()).to_f32().is_nan());
            } else {
                assert_eq!(Bf16::from_f32(x.to_f32()), x, "bits {bits:#06x}");
            }
        }
    }

    #[test]
    fn arithmetic_matches_f32_then_round() {
        let a = Bf16::from_f32(3.25);
        let b = Bf16::from_f32(-1.5);
        assert_eq!((a + b).to_f32(), 1.75);
        assert_eq!((a - b).to_f32(), 4.75);
        assert_eq!((a * b).to_f32(), -4.875);
        assert_eq!((a / b).to_f32(), Bf16::from_f32(3.25 / -1.5).to_f32());
        assert_eq!((-a).to_f32(), -3.25);
    }

    #[test]
    fn classification_predicates() {
        assert!(!Bf16::INFINITY.is_finite() && !Bf16::NAN.is_finite());
        assert!(Bf16::ONE.is_finite() && Bf16::NEG_ZERO.is_finite());
        assert_eq!(Bf16::from_f32(-7.0).abs(), Bf16::from_f32(7.0));
    }

    #[test]
    fn total_cmp_orders_like_f32_total_cmp() {
        let samples = [
            Bf16::NEG_INFINITY,
            Bf16::MIN,
            -Bf16::ONE,
            Bf16::NEG_ZERO,
            Bf16::ZERO,
            Bf16::from_bits(0x0080),
            Bf16::ONE,
            Bf16::MAX,
            Bf16::INFINITY,
        ];
        for w in samples.windows(2) {
            assert_eq!(
                w[0].total_cmp(&w[1]),
                Ordering::Less,
                "{:?} < {:?}",
                w[0],
                w[1]
            );
        }
        assert_eq!(Bf16::NAN.total_cmp(&Bf16::NAN), Ordering::Equal);
    }

    #[test]
    fn byte_encoding_is_little_endian() {
        let x = Bf16::from_bits(0xABCD);
        assert_eq!(x.to_le_bytes(), [0xCD, 0xAB]);
        assert_eq!(Bf16::from_le_bytes([0xCD, 0xAB]), x);
    }

    #[test]
    fn parse_rounds_decimal_literals() {
        assert_eq!("1.5".parse::<Bf16>().unwrap(), Bf16::from_f32(1.5));
        assert_eq!("-0.3359375".parse::<Bf16>().unwrap().to_f32(), -0.3359375);
        let err = "not-a-number".parse::<Bf16>().unwrap_err();
        assert!(err.to_string().contains("invalid bfloat16 literal"));
    }

    #[test]
    fn sum_and_product_fold_sequentially() {
        let xs: Vec<Bf16> = (1..=4).map(|i| Bf16::from_f32(i as f32)).collect();
        assert_eq!(xs.iter().copied().sum::<Bf16>().to_f32(), 10.0);
        assert_eq!(xs.iter().copied().product::<Bf16>().to_f32(), 24.0);
    }

    #[test]
    fn subnormal_f32_rounds_toward_zero_or_min_subnormal() {
        // f32 subnormals sit far below bf16's subnormal range floor only
        // in mantissa precision; the smallest f32 subnormal rounds to +0,
        // while values near bf16's own subnormal steps round to them.
        let tiny = f32::from_bits(1); // smallest positive f32 subnormal
        assert_eq!(Bf16::from_f32(tiny), Bf16::ZERO);
        // Smallest positive bf16 subnormal is 2^-133 (bits 0x0001).
        let bf_min_sub = Bf16::from_bits(0x0001);
        assert_eq!(Bf16::from_f32(bf_min_sub.to_f32()), bf_min_sub);
        // Halfway between 0 and the min subnormal rounds to even (zero).
        let halfway = bf_min_sub.to_f32() / 2.0;
        assert_eq!(Bf16::from_f32(halfway), Bf16::ZERO);
        // Negative side mirrors.
        assert_eq!(Bf16::from_f32(-tiny), Bf16::NEG_ZERO);
    }

    #[test]
    fn arithmetic_saturates_to_infinity_not_garbage() {
        let big = Bf16::MAX;
        assert_eq!(big + big, Bf16::INFINITY);
        assert_eq!(big * big, Bf16::INFINITY);
        assert_eq!(-big - big, Bf16::NEG_INFINITY);
        // inf - inf is NaN, propagated.
        assert!((Bf16::INFINITY - Bf16::INFINITY).to_f32().is_nan());
        // Division by zero follows IEEE.
        assert_eq!(Bf16::ONE / Bf16::ZERO, Bf16::INFINITY);
        assert!((Bf16::ZERO / Bf16::ZERO).to_f32().is_nan());
    }

    #[test]
    fn mul_round_and_accumulate_wide_model_the_datapath() {
        let w = Bf16::from_f32(1.0078125); // 1 + 2^-7
        let v = Bf16::from_f32(1.0078125);
        // Product 1.01563... rounds to nearest bf16.
        let p = w.mul_round(v);
        assert_eq!(p.to_f32(), Bf16::from_f32(1.0157471).to_f32());
        let latch = Bf16::from_f32(100.0);
        // Adding a partial too small to register leaves the latch unchanged,
        // demonstrating the rounding the result latch really performs.
        assert_eq!(latch.accumulate_wide(0.001), latch);
        assert_eq!(latch.accumulate_wide(1.0).to_f32(), 101.0);
    }
}
