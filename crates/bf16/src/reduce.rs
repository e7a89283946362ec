//! Adder-tree reduction semantics for Newton's per-bank compute unit.
//!
//! Each Newton bank multiplies a 16-element matrix sub-chunk by the matching
//! 16 input-vector elements and reduces the products "through a pipelined
//! adder tree" (paper Fig. 4): a 16-to-1 tree needs 15 adders plus one more
//! for accumulation into the result latch. The tree modelled here
//! ([`dot_chunk_wide`], [`tree_reduce_wide`]) is the device's: the
//! multipliers round products to bf16, the tree carries `f32` (wide
//! carry-save adders), and only the result latch, the paper's "one scalar
//! bfloat16 register", rounds back to bf16.
//!
//! The tree reduces in *tree order* (pairwise), which differs from a
//! sequential sum once rounding is involved.

use crate::Bf16;

/// Hardware arity of the adder tree: 16 multipliers feed a 16-to-1 tree
/// (Fig. 4). The [`simd`](crate::simd) kernels fold sub-chunks of exactly
/// this many elements.
pub const TREE_ARITY: usize = 16;

/// The widest sub-chunk (column I/O, in elements) the device model
/// accepts: four tree passes worth of elements. It sizes the fixed stack
/// scratch of one sub-chunk: a global-buffer slot being written or read
/// back, and the production fold's operands at widths other than
/// [`TREE_ARITY`].
pub const MAX_CHUNK: usize = 64;

/// The adder tree's precision discipline, which has one value: products
/// rounded to bf16, a tree that carries `f32`, and a result latch that
/// rounds. [`comp_subchunks16_multi`](crate::simd::comp_subchunks16_multi)
/// still takes it and ignores it; ROADMAP 1(c) deletes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TreePrecision {
    /// Products rounded to bf16; tree carries `f32`; result latch rounds.
    #[default]
    Wide,
}

/// Reduces values pairwise (tree order) carrying `f32` through the tree.
///
/// For a non-power-of-two length the trailing element of an odd level is
/// carried to the next level unchanged, as a hardware tree with a bypassed
/// lane would do.
///
/// # Example
///
/// ```
/// use newton_bf16::{Bf16, reduce};
/// let xs: Vec<Bf16> = (1..=5).map(|i| Bf16::from_f32(i as f32)).collect();
/// assert_eq!(reduce::tree_reduce_wide(&xs), 15.0);
/// ```
#[must_use]
pub fn tree_reduce_wide(values: &[Bf16]) -> f32 {
    if values.is_empty() {
        return 0.0;
    }
    let mut level: Vec<f32> = values.iter().map(|v| v.to_f32()).collect();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            next.push(if pair.len() == 2 {
                pair[0] + pair[1]
            } else {
                pair[0]
            });
        }
        level = next;
    }
    level[0]
}

/// The tree half of one COMP step: multiply element-wise (rounding
/// each product to bf16, as the 16 multipliers do), then tree-reduce in
/// `f32`. Returns the wide partial sum destined for the result latch.
///
/// # Panics
///
/// Panics if `weights` and `inputs` have different lengths.
///
/// # Example
///
/// ```
/// use newton_bf16::{Bf16, reduce};
/// let w = vec![Bf16::from_f32(2.0); 16];
/// let v = vec![Bf16::from_f32(3.0); 16];
/// assert_eq!(reduce::dot_chunk_wide(&w, &v), 96.0);
/// ```
#[must_use]
pub fn dot_chunk_wide(weights: &[Bf16], inputs: &[Bf16]) -> f32 {
    assert_eq!(
        weights.len(),
        inputs.len(),
        "dot_chunk_wide: weight/input length mismatch"
    );
    let products: Vec<Bf16> = weights
        .iter()
        .zip(inputs)
        .map(|(w, v)| w.mul_round(*v))
        .collect();
    tree_reduce_wide(&products)
}

/// One COMP step, returning the new result-latch value after
/// accumulating the wide tree sum into `latch` (bf16 rounding at the
/// latch, per the paper's "single scalar bfloat16 register").
///
/// # Panics
///
/// Panics if `weights` and `inputs` have different lengths.
///
/// # Example
///
/// ```
/// use newton_bf16::{Bf16, reduce::comp_step};
/// let w = vec![Bf16::ONE; 16];
/// let v = vec![Bf16::ONE; 16];
/// let latch = comp_step(Bf16::ZERO, &w, &v);
/// assert_eq!(latch.to_f32(), 16.0);
/// ```
#[must_use]
pub fn comp_step(latch: Bf16, weights: &[Bf16], inputs: &[Bf16]) -> Bf16 {
    latch.accumulate_wide(dot_chunk_wide(weights, inputs))
}

/// Upper bound on the absolute error of a bf16 dot product of length `n`
/// against an exact (`f64`) reference, assuming wide-tree semantics.
///
/// Derivation: each of `n` products incurs at most half a ULP of relative
/// error (2^-9 relative bound for bf16's 8-bit significand), the `f32`
/// tree adds negligible error at these lengths, and each of the
/// `ceil(n / chunk)` latch accumulations rounds once more. The bound is
/// expressed relative to the accumulated magnitude `magnitude`.
///
/// This is deliberately loose (a safety envelope for tests), not a tight
/// numerical-analysis bound.
#[must_use]
pub fn dot_error_bound(n: usize, chunk: usize, magnitude: f64) -> f64 {
    let product_rounds = n as f64;
    let latch_rounds = (n as f64 / chunk.max(1) as f64).ceil();
    let ulp_rel = 2.0_f64.powi(-8); // one full ULP per rounding, conservative
    (product_rounds + latch_rounds) * ulp_rel * magnitude
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bf(v: f32) -> Bf16 {
        Bf16::from_f32(v)
    }

    #[test]
    fn empty_reductions_are_zero() {
        assert_eq!(tree_reduce_wide(&[]), 0.0);
    }

    #[test]
    fn single_element_passes_through() {
        assert_eq!(tree_reduce_wide(&[bf(7.5)]), 7.5);
    }

    #[test]
    fn sixteen_ones_sum_exactly() {
        let xs = vec![Bf16::ONE; 16];
        assert_eq!(tree_reduce_wide(&xs), 16.0);
    }

    #[test]
    fn odd_lengths_carry_the_tail() {
        let xs: Vec<Bf16> = (1..=7).map(|i| bf(i as f32)).collect();
        assert_eq!(tree_reduce_wide(&xs), 28.0);
    }

    #[test]
    fn dot_chunk_wide_matches_manual_expansion() {
        let w: Vec<Bf16> = (0..16).map(|i| bf(i as f32 * 0.25)).collect();
        let v: Vec<Bf16> = (0..16).map(|i| bf((15 - i) as f32 * 0.5)).collect();
        let manual: f32 = w
            .iter()
            .zip(&v)
            .map(|(a, b)| a.mul_round(*b).to_f32())
            .sum();
        // All values here are exact in f32, so tree order == sequential.
        assert_eq!(dot_chunk_wide(&w, &v), manual);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_chunk_rejects_mismatched_lengths() {
        let _ = dot_chunk_wide(&[Bf16::ONE; 16], &[Bf16::ONE; 8]);
    }

    #[test]
    fn comp_step_accumulates_into_latch() {
        let w = vec![bf(0.5); 16];
        let v = vec![bf(2.0); 16];
        let mut latch = Bf16::ZERO;
        for _ in 0..4 {
            latch = comp_step(latch, &w, &v);
        }
        assert_eq!(latch.to_f32(), 64.0);
    }

    #[test]
    fn error_bound_scales_with_length_and_magnitude() {
        assert!(dot_error_bound(1024, 16, 1.0) > dot_error_bound(16, 16, 1.0));
        assert!(dot_error_bound(16, 16, 10.0) > dot_error_bound(16, 16, 1.0));
        assert!(dot_error_bound(0, 16, 1.0) >= 0.0);
    }
}
