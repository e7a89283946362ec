//! The per-channel neural-activation look-up table.
//!
//! In the Newton-no-reuse variant "the neural network activation functions
//! are implemented as look-up tables. Newton employs a single look up table
//! per channel" (Sec. III-C). A bf16 input has only 2^16 bit patterns, so
//! the table is exact by construction: we precompute the activation for
//! every pattern, which is precisely what the hardware table holds.

use newton_bf16::Bf16;

/// The activation functions the workloads use (Sec. II-B: "ReLU, sigmoid,
/// and tanh"), plus identity for raw partial-sum readout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ActivationKind {
    /// No transformation.
    #[default]
    Identity,
    /// `max(0, x)`.
    Relu,
    /// `1 / (1 + e^-x)`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl ActivationKind {
    /// Applies the function in `f32` (the host-side reference path).
    #[must_use]
    pub(crate) fn apply_f32(self, x: f32) -> f32 {
        match self {
            ActivationKind::Identity => x,
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            ActivationKind::Tanh => x.tanh(),
        }
    }
}

/// An exact bf16-to-bf16 activation table (one per channel in hardware).
#[derive(Clone)]
pub struct ActivationLut {
    kind: ActivationKind,
    table: Box<[u16; 65536]>,
}

impl std::fmt::Debug for ActivationLut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActivationLut")
            .field("kind", &self.kind)
            .field("entries", &65536usize)
            .finish()
    }
}

impl ActivationLut {
    /// Builds the table for `kind` by evaluating every bf16 bit pattern.
    #[must_use]
    pub(crate) fn new(kind: ActivationKind) -> ActivationLut {
        let mut table = Box::new([0u16; 65536]);
        for (bits, slot) in table.iter_mut().enumerate() {
            let x = Bf16::from_bits(bits as u16);
            *slot = Bf16::from_f32(kind.apply_f32(x.to_f32())).to_bits();
        }
        ActivationLut { kind, table }
    }

    /// Looks up the activation of `x` (exact for every input).
    #[must_use]
    pub(crate) fn apply(&self, x: Bf16) -> Bf16 {
        Bf16::from_bits(self.table[x.to_bits() as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_bit_exact() {
        let lut = ActivationLut::new(ActivationKind::Identity);
        for bits in [0u16, 0x3F80, 0xBF80, 0x7F80, 0x0001] {
            assert_eq!(lut.apply(Bf16::from_bits(bits)).to_bits(), bits);
        }
        assert_eq!(lut.kind, ActivationKind::Identity);
    }

    #[test]
    fn relu_clamps_negatives_exactly() {
        let lut = ActivationLut::new(ActivationKind::Relu);
        assert_eq!(lut.apply(Bf16::from_f32(-3.5)), Bf16::ZERO);
        assert_eq!(lut.apply(Bf16::from_f32(3.5)), Bf16::from_f32(3.5));
        assert_eq!(lut.apply(Bf16::NEG_INFINITY), Bf16::ZERO);
        assert_eq!(lut.apply(Bf16::INFINITY), Bf16::INFINITY);
    }

    #[test]
    fn sigmoid_and_tanh_match_f32_reference_for_all_patterns() {
        for kind in [ActivationKind::Sigmoid, ActivationKind::Tanh] {
            let lut = ActivationLut::new(kind);
            // Exhaustive: the table must equal rounding the f32 reference.
            for bits in (0..=u16::MAX).step_by(97) {
                let x = Bf16::from_bits(bits);
                let expect = Bf16::from_f32(kind.apply_f32(x.to_f32()));
                let got = lut.apply(x);
                if expect.to_f32().is_nan() {
                    assert!(got.to_f32().is_nan());
                } else {
                    assert_eq!(got, expect, "bits {bits:#06x}");
                }
            }
        }
    }

    #[test]
    fn sigmoid_saturates_and_centers() {
        let lut = ActivationLut::new(ActivationKind::Sigmoid);
        assert_eq!(lut.apply(Bf16::ZERO).to_f32(), 0.5);
        assert_eq!(lut.apply(Bf16::from_f32(100.0)).to_f32(), 1.0);
        assert_eq!(lut.apply(Bf16::from_f32(-100.0)).to_f32(), 0.0);
    }
}
