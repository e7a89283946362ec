//! Property-based tests for the bf16 scalar and reduction semantics.

use newton_bf16::{reduce, slice, Bf16};
use proptest::prelude::*;

/// Strategy producing finite, "reasonable magnitude" f32 values that stay
/// finite in bf16 (|x| <= 2^30), covering zero, subnormals-after-rounding,
/// and both signs.
fn finite_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        5 => -1.0e9_f32..1.0e9_f32,
        1 => -1.0_f32..1.0_f32,
        1 => Just(0.0_f32),
        1 => Just(-0.0_f32),
    ]
}

fn finite_bf16() -> impl Strategy<Value = Bf16> {
    finite_f32().prop_map(Bf16::from_f32)
}

proptest! {
    /// from_f32 always returns the nearest representable bf16: the error is
    /// at most half the gap to either neighboring representable value.
    #[test]
    fn conversion_is_nearest(x in finite_f32()) {
        let r = Bf16::from_f32(x);
        prop_assume!(r.is_finite());
        let down = Bf16::from_bits(r.to_bits().wrapping_sub(1));
        let up = Bf16::from_bits(r.to_bits().wrapping_add(1));
        let err = (r.to_f64() - x as f64).abs();
        if down.is_finite() && down.to_bits() & 0x7FFF != 0x7FFF {
            let alt = (down.to_f64() - x as f64).abs();
            prop_assert!(err <= alt + f64::EPSILON * err.max(1.0));
        }
        if up.is_finite() {
            let alt = (up.to_f64() - x as f64).abs();
            prop_assert!(err <= alt + f64::EPSILON * err.max(1.0));
        }
    }

    /// Round-trip bf16 -> f32 -> bf16 is the identity for non-NaN values.
    #[test]
    fn f32_roundtrip_identity(bits in any::<u16>()) {
        let x = Bf16::from_bits(bits);
        prop_assume!(!x.to_f32().is_nan());
        prop_assert_eq!(Bf16::from_f32(x.to_f32()), x);
    }

    /// Addition and multiplication are commutative (they reduce to f32 ops).
    #[test]
    fn add_mul_commutative(a in finite_bf16(), b in finite_bf16()) {
        let s1 = a + b;
        let s2 = b + a;
        prop_assert!(s1 == s2 || (s1.to_f32().is_nan() && s2.to_f32().is_nan()));
        let p1 = a * b;
        let p2 = b * a;
        prop_assert!(p1 == p2 || (p1.to_f32().is_nan() && p2.to_f32().is_nan()));
    }

    /// Negation is exact and an involution.
    #[test]
    fn neg_involution(a in finite_bf16()) {
        prop_assert_eq!(-(-a), a);
        prop_assert_eq!((-a).to_f32(), -(a.to_f32()));
    }

    /// x + 0 == x and x * 1 == x exactly (identity elements survive
    /// rounding because the result is already representable). The one IEEE
    /// exception: (-0) + (+0) is +0, so zeros compare by value only.
    #[test]
    fn identities(a in finite_bf16()) {
        if a.to_f32() == 0.0 {
            prop_assert!((a + Bf16::ZERO).to_f32() == 0.0);
        } else {
            prop_assert_eq!(a + Bf16::ZERO, a);
        }
        prop_assert_eq!(a * Bf16::ONE, a);
    }

    /// Conversion is monotonic: x <= y implies bf16(x) <= bf16(y).
    #[test]
    fn conversion_monotonic(x in finite_f32(), y in finite_f32()) {
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        prop_assert!(Bf16::from_f32(lo) <= Bf16::from_f32(hi));
    }

    /// total_cmp agrees with f32::total_cmp on the widened values.
    #[test]
    fn total_cmp_matches_f32(a in any::<u16>(), b in any::<u16>()) {
        let x = Bf16::from_bits(a);
        let y = Bf16::from_bits(b);
        prop_assert_eq!(x.total_cmp(&y), x.to_f32().total_cmp(&y.to_f32()));
    }

    /// Wide tree reduction equals the f64 pairwise sum up to f32 rounding
    /// of the inputs (the tree itself carries f32 which is exact for
    /// sums of <= 2^15 bf16 values of bounded magnitude).
    #[test]
    fn wide_tree_close_to_exact(xs in prop::collection::vec(-100.0f32..100.0, 0..64)) {
        let bf: Vec<Bf16> = xs.iter().copied().map(Bf16::from_f32).collect();
        let exact: f64 = bf.iter().map(|v| v.to_f64()).sum();
        let got = reduce::tree_reduce_wide(&bf) as f64;
        // f32 tree error bound: tiny relative to the magnitude involved.
        let mag: f64 = bf.iter().map(|v| v.to_f64().abs()).sum::<f64>().max(1.0);
        prop_assert!((got - exact).abs() <= mag * 1e-5);
    }

    /// dot_chunk_wide equals the exact f64 dot of the *rounded products*
    /// up to f32 tree arithmetic error.
    #[test]
    fn dot_chunk_wide_matches_rounded_products(
        pairs in prop::collection::vec((-16.0f32..16.0, -16.0f32..16.0), 16)
    ) {
        let w: Vec<Bf16> = pairs.iter().map(|(a, _)| Bf16::from_f32(*a)).collect();
        let v: Vec<Bf16> = pairs.iter().map(|(_, b)| Bf16::from_f32(*b)).collect();
        let exact: f64 = w.iter().zip(&v).map(|(a, b)| a.mul_round(*b).to_f64()).sum();
        let got = reduce::dot_chunk_wide(&w, &v) as f64;
        prop_assert!((got - exact).abs() <= exact.abs().max(1.0) * 1e-5);
    }

    /// pack/unpack round-trips arbitrary bit patterns (including NaNs —
    /// storage must be bit-exact even for non-numeric payloads).
    #[test]
    fn pack_unpack_bit_exact(bits in prop::collection::vec(any::<u16>(), 0..256)) {
        let vals: Vec<Bf16> = bits.iter().copied().map(Bf16::from_bits).collect();
        let bytes = slice::pack(&vals);
        let back = slice::unpack(&bytes).unwrap();
        prop_assert_eq!(vals, back);
    }
}
