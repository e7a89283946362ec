//! Adder-tree reduction semantics for Newton's per-bank compute unit.
//!
//! Each Newton bank multiplies a 16-element matrix sub-chunk by the matching
//! 16 input-vector elements and reduces the products "through a pipelined
//! adder tree" (paper Fig. 4): a 16-to-1 tree needs 15 adders plus one more
//! for accumulation into the result latch. This module provides the tree in
//! the two precision disciplines a hardware implementation might use:
//!
//! * **Wide** ([`dot_chunk_wide`], [`tree_reduce_wide`]): multipliers round
//!   products to bf16 but the tree carries `f32` (wide carry-save adders),
//!   rounding only at the result latch. This is the simulator's default.
//! * **Per-stage** (`dot_chunk_bf16`, [`tree_reduce_bf16`]): every adder
//!   output is rounded back to bf16, the most conservative hardware model.
//!
//! Both disciplines reduce in *tree order* (pairwise), which differs from a
//! sequential sum once rounding is involved; tests pin the distinction.

use crate::Bf16;

/// Hardware arity of the adder tree: 16 multipliers feed a 16-to-1 tree
/// (Fig. 4). The [`simd`](crate::simd) kernels fold sub-chunks of exactly
/// this many elements.
pub const TREE_ARITY: usize = 16;

/// Upper bound on the sub-chunk width any caller may reduce through the
/// stack-only kernels ([`comp_step_noalloc`] and the `MacUnit` hot path):
/// four tree passes worth of elements, matching the widest column I/O the
/// device model accepts.
pub const MAX_CHUNK: usize = 64;

/// Precision discipline for the adder tree.
///
/// See the [module docs](self) for the hardware interpretation of each mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TreePrecision {
    /// Products rounded to bf16; tree carries `f32`; result latch rounds.
    #[default]
    Wide,
    /// Every tree stage rounds its output to bf16.
    PerStage,
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

/// Reduces values pairwise (tree order) rounding each stage to bf16.
///
/// # Example
///
/// ```
/// use newton_bf16::{Bf16, reduce};
/// let xs = vec![Bf16::ONE; 16];
/// assert_eq!(reduce::tree_reduce_bf16(&xs).to_f32(), 16.0);
/// ```
#[must_use]
pub fn tree_reduce_bf16(values: &[Bf16]) -> Bf16 {
    if values.is_empty() {
        return Bf16::ZERO;
    }
    let mut level: Vec<Bf16> = values.to_vec();
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

/// In-place, allocation-free form of [`tree_reduce_wide`]: reduces
/// `level[..]` pairwise in tree order, reusing the slice as the scratch
/// for every tree stage. Bit-exact with the reference for every length
/// (the pairing — including the bypassed odd-tail lane — is identical).
///
/// The slice contents are clobbered. Returns the root of the tree, `0.0`
/// for an empty slice.
///
/// # Example
///
/// ```
/// use newton_bf16::reduce;
/// let mut buf = [1.0f32, 2.0, 3.0, 4.0, 5.0];
/// assert_eq!(reduce::tree_reduce_wide_into(&mut buf), 15.0);
/// ```
#[must_use]
pub fn tree_reduce_wide_into(level: &mut [f32]) -> f32 {
    let mut n = level.len();
    if n == 0 {
        return 0.0;
    }
    while n > 1 {
        let mut read = 0;
        let mut write = 0;
        while read + 1 < n {
            level[write] = level[read] + level[read + 1];
            read += 2;
            write += 1;
        }
        if read < n {
            // Odd tail: the bypassed lane carries to the next stage.
            level[write] = level[read];
            write += 1;
        }
        n = write;
    }
    level[0]
}

/// In-place, allocation-free form of [`tree_reduce_bf16`]: every stage
/// rounds to bf16, reusing `level` as the scratch. Bit-exact with the
/// reference; clobbers the slice. Returns [`Bf16::ZERO`] for an empty
/// slice.
#[must_use]
pub fn tree_reduce_bf16_into(level: &mut [Bf16]) -> Bf16 {
    let mut n = level.len();
    if n == 0 {
        return Bf16::ZERO;
    }
    while n > 1 {
        let mut read = 0;
        let mut write = 0;
        while read + 1 < n {
            level[write] = level[read] + level[read + 1];
            read += 2;
            write += 1;
        }
        if read < n {
            level[write] = level[read];
            write += 1;
        }
        n = write;
    }
    level[0]
}

/// Allocation-free form of [`comp_step`] for chunks up to [`MAX_CHUNK`]
/// elements: identical semantics (bf16 products, tree reduction in the
/// chosen discipline, bf16 rounding at the result latch) with all scratch
/// on the stack. Bit-exact with the reference on every input.
///
/// # Panics
///
/// Panics if the lengths differ or exceed [`MAX_CHUNK`].
#[must_use]
pub fn comp_step_noalloc(
    latch: Bf16,
    weights: &[Bf16],
    inputs: &[Bf16],
    precision: TreePrecision,
) -> Bf16 {
    assert_eq!(
        weights.len(),
        inputs.len(),
        "comp_step_noalloc: weight/input length mismatch"
    );
    assert!(
        weights.len() <= MAX_CHUNK,
        "comp_step_noalloc: {} elements exceed MAX_CHUNK {MAX_CHUNK}",
        weights.len()
    );
    let n = weights.len();
    match precision {
        TreePrecision::Wide => {
            let mut products = [0.0f32; MAX_CHUNK];
            for (p, (w, v)) in products.iter_mut().zip(weights.iter().zip(inputs)) {
                *p = w.mul_round(*v).to_f32();
            }
            latch.accumulate_wide(tree_reduce_wide_into(&mut products[..n]))
        }
        TreePrecision::PerStage => {
            let mut products = [Bf16::ZERO; MAX_CHUNK];
            for (p, (w, v)) in products.iter_mut().zip(weights.iter().zip(inputs)) {
                *p = w.mul_round(*v);
            }
            latch + tree_reduce_bf16_into(&mut products[..n])
        }
    }
}

/// One COMP step in the wide discipline: multiply element-wise (rounding
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

/// One COMP step in the per-stage discipline: bf16 products, bf16 adders.
///
/// # Panics
///
/// Panics if `weights` and `inputs` have different lengths.
#[must_use]
fn dot_chunk_bf16(weights: &[Bf16], inputs: &[Bf16]) -> Bf16 {
    assert_eq!(
        weights.len(),
        inputs.len(),
        "dot_chunk_bf16: weight/input length mismatch"
    );
    let products: Vec<Bf16> = weights
        .iter()
        .zip(inputs)
        .map(|(w, v)| w.mul_round(*v))
        .collect();
    tree_reduce_bf16(&products)
}

/// One COMP step under either discipline, returning the new result-latch
/// value after accumulating into `latch` (bf16 rounding at the latch in
/// both cases, per the paper's "single scalar bfloat16 register").
///
/// # Panics
///
/// Panics if `weights` and `inputs` have different lengths.
///
/// # Example
///
/// ```
/// use newton_bf16::{Bf16, reduce::{comp_step, TreePrecision}};
/// let w = vec![Bf16::ONE; 16];
/// let v = vec![Bf16::ONE; 16];
/// let latch = comp_step(Bf16::ZERO, &w, &v, TreePrecision::Wide);
/// assert_eq!(latch.to_f32(), 16.0);
/// ```
#[must_use]
pub fn comp_step(latch: Bf16, weights: &[Bf16], inputs: &[Bf16], precision: TreePrecision) -> Bf16 {
    match precision {
        TreePrecision::Wide => latch.accumulate_wide(dot_chunk_wide(weights, inputs)),
        TreePrecision::PerStage => latch + dot_chunk_bf16(weights, inputs),
    }
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
        assert_eq!(tree_reduce_bf16(&[]), Bf16::ZERO);
    }

    #[test]
    fn single_element_passes_through() {
        assert_eq!(tree_reduce_wide(&[bf(7.5)]), 7.5);
        assert_eq!(tree_reduce_bf16(&[bf(-7.5)]), bf(-7.5));
    }

    #[test]
    fn sixteen_ones_sum_exactly() {
        let xs = vec![Bf16::ONE; 16];
        assert_eq!(tree_reduce_wide(&xs), 16.0);
        assert_eq!(tree_reduce_bf16(&xs).to_f32(), 16.0);
    }

    #[test]
    fn odd_lengths_carry_the_tail() {
        let xs: Vec<Bf16> = (1..=7).map(|i| bf(i as f32)).collect();
        assert_eq!(tree_reduce_wide(&xs), 28.0);
        assert_eq!(tree_reduce_bf16(&xs).to_f32(), 28.0);
    }

    #[test]
    fn tree_order_differs_from_sequential_under_rounding() {
        // 256 + 1 + 1 + 1: sequentially in bf16, each +1 is absorbed
        // (256 + 1 rounds back to 256); the tree pairs (256+1) and (1+1),
        // and 2 is large enough to register against 257-rounded-to-256...
        // Construct a case where the results provably differ.
        let xs = [bf(256.0), bf(1.0), bf(1.0), bf(1.0)];
        let sequential: Bf16 = xs.iter().copied().sum();
        let tree = tree_reduce_bf16(&xs);
        // Sequential: 256+1=257->256(RNE ties-to-even), +1 -> 256, +1 -> 256.
        assert_eq!(sequential.to_f32(), 256.0);
        // Tree: (256+1)->256, (1+1)=2, 256+2=258 representable.
        assert_eq!(tree.to_f32(), 258.0);
    }

    #[test]
    fn wide_tree_is_more_accurate_than_per_stage() {
        let xs: Vec<Bf16> = (0..16).map(|i| bf(1.0 + i as f32 / 128.0)).collect();
        let exact: f64 = xs.iter().map(|x| x.to_f64()).sum();
        let wide = tree_reduce_wide(&xs) as f64;
        let staged = tree_reduce_bf16(&xs).to_f64();
        assert!((wide - exact).abs() <= (staged - exact).abs() + 1e-9);
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
            latch = comp_step(latch, &w, &v, TreePrecision::Wide);
        }
        assert_eq!(latch.to_f32(), 64.0);
        let staged = comp_step(Bf16::ZERO, &w, &v, TreePrecision::PerStage);
        assert_eq!(staged.to_f32(), 16.0);
    }

    #[test]
    fn into_reducers_match_reference_on_selected_lengths() {
        // Powers of two, odd tails, and the full MAX_CHUNK width.
        for n in [0usize, 1, 2, 3, 5, 7, 8, 13, 15, 16, 17, 31, 33, 63, 64] {
            let xs: Vec<Bf16> = (0..n).map(|i| bf((i as f32 - 7.3) * 0.37)).collect();
            let mut wide_buf: Vec<f32> = xs.iter().map(|x| x.to_f32()).collect();
            assert_eq!(
                tree_reduce_wide_into(&mut wide_buf).to_bits(),
                tree_reduce_wide(&xs).to_bits(),
                "wide mismatch at n={n}"
            );
            let mut bf_buf: Vec<Bf16> = xs.clone();
            assert_eq!(
                tree_reduce_bf16_into(&mut bf_buf),
                tree_reduce_bf16(&xs),
                "per-stage mismatch at n={n}"
            );
        }
    }

    #[test]
    fn comp_step_noalloc_matches_comp_step() {
        // Every bypass-lane pattern of one 16-to-1 tree, then wider chunks.
        for n in (0usize..=17).chain([48, 64]) {
            let w: Vec<Bf16> = (0..n).map(|i| bf((i as f32).sin() * 3.0)).collect();
            let v: Vec<Bf16> = (0..n).map(|i| bf((i as f32).cos() * 2.0)).collect();
            for precision in [TreePrecision::Wide, TreePrecision::PerStage] {
                let latch = bf(1.625);
                assert_eq!(
                    comp_step_noalloc(latch, &w, &v, precision),
                    comp_step(latch, &w, &v, precision),
                    "mismatch at n={n}, {precision:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceed MAX_CHUNK")]
    fn comp_step_noalloc_rejects_oversized_chunks() {
        let _ = comp_step_noalloc(
            Bf16::ZERO,
            &[Bf16::ONE; 65],
            &[Bf16::ONE; 65],
            TreePrecision::Wide,
        );
    }

    #[test]
    fn error_bound_scales_with_length_and_magnitude() {
        assert!(dot_error_bound(1024, 16, 1.0) > dot_error_bound(16, 16, 1.0));
        assert!(dot_error_bound(16, 16, 10.0) > dot_error_bound(16, 16, 1.0));
        assert!(dot_error_bound(0, 16, 1.0) >= 0.0);
    }
}
