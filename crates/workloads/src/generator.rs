//! Deterministic synthetic data generation.
//!
//! Real model weights are not required to reproduce the paper's
//! performance results (the dense MV schedule is data-independent), but
//! the simulator computes real numbers, so we generate reproducible
//! weights scaled like trained networks: uniform in
//! `[-1/sqrt(n), 1/sqrt(n)]` (Xavier-style), keeping chained layer outputs
//! O(1) so bf16 accumulation error stays analyzable.
//!
//! Element `k` of every buffer is a pure function of `(seed, k)` via the
//! counter-based [`CounterRng`], so large fills run on parallel host
//! threads (honoring `NEWTON_THREADS`) while producing bytes identical to
//! a serial fill — the generation half of the simulator's bit-exact
//! parallelism contract.

use newton_bf16::Bf16;
use newton_core::parallel::{par_map_mut, ParallelPolicy};

use crate::suite::MvShape;
use newton_dram::faults::CounterRng;

/// Element count below which a fill stays serial (thread spawn would
/// dominate).
const PAR_FILL_MIN_ELEMS: usize = 1 << 18;

/// Fills `len` bf16 values where element `k = f(rng, k)`, splitting the
/// index space across the workers `policy` allows. Identical output for
/// every thread count by construction. The thread budget is resolved
/// only for a fill large enough to split: resolving it asks the
/// environment and the operating system.
fn fill(len: usize, policy: ParallelPolicy, f: impl Fn(u64) -> Bf16 + Sync) -> Vec<Bf16> {
    let mut out = vec![Bf16::ZERO; len];
    let threads = if len < PAR_FILL_MIN_ELEMS {
        1
    } else {
        policy.threads()
    };
    if threads <= 1 {
        for (k, x) in out.iter_mut().enumerate() {
            *x = f(k as u64);
        }
        return out;
    }
    let chunk = len.div_ceil(threads);
    let mut chunks: Vec<(usize, &mut [Bf16])> = out
        .chunks_mut(chunk)
        .enumerate()
        .map(|(ci, part)| (ci * chunk, part))
        .collect();
    par_map_mut(&mut chunks, threads, |_, (start, part)| {
        for (j, x) in part.iter_mut().enumerate() {
            *x = f((*start + j) as u64);
        }
    });
    out
}

/// Generates an `m x n` row-major bf16 matrix with Xavier-style scaling.
///
/// Large matrices fill on parallel host threads (the default
/// [`ParallelPolicy`], so `NEWTON_THREADS` applies); the bytes are
/// identical for every thread count.
///
/// # Example
///
/// ```
/// use newton_workloads::{generator, MvShape};
/// let w = generator::matrix(MvShape::new(4, 8), 42);
/// assert_eq!(w.len(), 32);
/// // Deterministic for a given seed.
/// assert_eq!(w, generator::matrix(MvShape::new(4, 8), 42));
/// ```
#[must_use]
pub fn matrix(shape: MvShape, seed: u64) -> Vec<Bf16> {
    let rng = CounterRng::new(seed);
    let scale = 1.0 / (shape.n as f32).sqrt();
    fill(shape.m * shape.n, ParallelPolicy::default(), |k| {
        Bf16::from_f32(rng.range_f32_at(k, -scale, scale))
    })
}

/// Generates a length-`n` bf16 input vector with entries in `[-1, 1]`.
#[must_use]
pub fn vector(n: usize, seed: u64) -> Vec<Bf16> {
    let rng = CounterRng::new(seed ^ 0x5eed_0000_0000_0001);
    fill(n, ParallelPolicy::default(), |k| {
        Bf16::from_f32(rng.range_f32_at(k, -1.0, 1.0))
    })
}

/// Generates a `k`-way batch of distinct input vectors (Figs. 11/12
/// sweeps).
#[must_use]
pub fn batch(n: usize, k: usize, seed: u64) -> Vec<Vec<Bf16>> {
    (0..k)
        .map(|i| vector(n, seed.wrapping_add(i as u64 + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrices_are_deterministic_and_scaled() {
        let shape = MvShape::new(16, 1024);
        let a = matrix(shape, 7);
        let b = matrix(shape, 7);
        assert_eq!(a, b);
        let c = matrix(shape, 8);
        assert_ne!(a, c);
        let bound = 1.0 / (1024f32).sqrt() + 1e-3;
        assert!(a.iter().all(|x| x.to_f32().abs() <= bound));
        // Not degenerate: plenty of distinct values.
        let distinct: std::collections::HashSet<u16> = a.iter().map(|x| x.to_bits()).collect();
        assert!(distinct.len() > 100);
    }

    #[test]
    fn batches_are_distinct_and_deterministic() {
        let b = batch(64, 4, 9);
        assert_eq!(b.len(), 4);
        assert_eq!(b, batch(64, 4, 9));
        for w in b.windows(2) {
            assert_ne!(w[0], w[1], "batch items must differ");
        }
        assert!(batch(64, 0, 9).is_empty());
    }

    #[test]
    fn vectors_are_deterministic_and_bounded() {
        let v = vector(512, 3);
        assert_eq!(v.len(), 512);
        assert_eq!(v, vector(512, 3));
        assert!(v.iter().all(|x| x.to_f32().abs() <= 1.0));
        // Vector seed space is decoupled from the matrix seed space.
        let w = matrix(MvShape::new(1, 512), 3);
        assert_ne!(v, w);
    }

    #[test]
    fn parallel_fill_is_bit_identical_to_serial() {
        // Above the parallel threshold, any thread count must produce
        // the same bytes (element k depends only on k).
        let rng = CounterRng::new(77);
        let len = PAR_FILL_MIN_ELEMS + 1234;
        let gen = |k: u64| Bf16::from_f32(rng.range_f32_at(k, -0.5, 0.5));
        let serial = fill(len, ParallelPolicy::exact(1), gen);
        for threads in [2, 3, 8] {
            let policy = ParallelPolicy::exact(threads);
            assert_eq!(fill(len, policy, gen), serial, "threads={threads}");
        }
        // Below the threshold the serial path is taken; same function,
        // same bytes.
        assert_eq!(
            fill(100, ParallelPolicy::exact(8), gen),
            fill(100, ParallelPolicy::exact(1), gen)
        );
    }
}
