//! Host-side output post-processing: the top-k selection the host applies
//! to Newton's reduced output vector after the final layer to rank
//! recommendation scores (DLRM).
//!
//! It runs on the host CPU in both the Newton and baseline systems (a
//! tiny vector op, not a matrix product), so it affects neither side of
//! any speedup; the examples use it to produce human-readable results.

/// Indices of the `k` largest values, descending (the recommendation
/// ranking step). Returns fewer than `k` when the input is shorter.
#[must_use]
pub fn top_k(values: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    // total_cmp keeps the comparator a total order even if NaN slips in
    // (NaN sorts above +inf and therefore ranks first, visibly).
    idx.sort_by(|&a, &b| values[b].total_cmp(&values[a]).then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_orders_descending_with_stable_ties() {
        let v = [0.1, 0.9, 0.5, 0.9, 0.2];
        assert_eq!(top_k(&v, 3), vec![1, 3, 2]);
        assert_eq!(top_k(&v, 10).len(), 5);
        assert!(top_k(&[], 3).is_empty());
    }

    #[test]
    fn top_k_does_not_panic_on_nan() {
        let v = [0.5, f32::NAN, 0.9];
        let ranked = top_k(&v, 3);
        assert_eq!(ranked.len(), 3);
        assert_eq!(
            ranked[0], 1,
            "NaN ranks first (total_cmp), visibly wrong rather than a panic"
        );
    }
}
