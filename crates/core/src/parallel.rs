//! Deterministic parallel execution for the simulator's data plane and
//! evaluation harness.
//!
//! Newton's channels are architecturally independent — "with multiple
//! (pseudo) channels, Newton's per-channel operation and timing are simply
//! repeated in parallel across the (pseudo) channels" (Sec. III-D) — so
//! simulating them on parallel host threads is legal. The contract this
//! module enforces is **bit-exactness**: every helper merges results by
//! item index, never by completion order, so an N-thread run produces
//! byte-identical outputs, cycle counts, statistics, and traces to a
//! serial run. Work is only handed to `std::thread::scope` workers; no
//! external thread-pool dependency is introduced (see `shims/README.md`
//! for the offline dependency policy).
//!
//! [`ParallelPolicy`] decides *how many* threads to use. It lives in
//! [`NewtonConfig`](crate::config::NewtonConfig) and honors the
//! `NEWTON_THREADS` environment variable by default (`NEWTON_THREADS=1`
//! forces fully serial execution; helpers then spawn no threads at all).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Name of the environment variable that overrides the thread count.
const THREADS_ENV: &str = "NEWTON_THREADS";

/// Work threshold (in per-channel MAC operations) below which layer
/// simulation stays serial by default: thread spawn and cache effects
/// dominate for small layers.
const DEFAULT_MIN_CHANNEL_MACS: usize = 1_000_000;

/// Reads `NEWTON_THREADS`, returning `Some(n)` for a valid positive
/// integer and `None` otherwise (unset, empty, unparsable, or `0`).
#[must_use]
fn env_threads() -> Option<usize> {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// The host's available parallelism (1 when it cannot be determined):
/// the cap on every width that is not pinned. A system call plus, on
/// Linux, cgroup file reads — ask once and keep the number, never per
/// unit of work.
#[must_use]
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// How (and whether) independent simulation work spreads across host
/// threads.
///
/// The policy only ever changes *wall-clock* behavior. Simulated results
/// are bit-identical for every thread count — asserted by the
/// cross-thread determinism suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ParallelPolicy {
    /// `NEWTON_THREADS` when it is set, otherwise the host's available
    /// parallelism, capped at the host's either way; items below one
    /// million per-channel MACs (or elements, for loads) run serially.
    #[default]
    Auto,
    /// Exactly this many workers (at least one), whatever the
    /// environment, the host or the size of the work.
    Exact(usize),
}

impl ParallelPolicy {
    /// A policy pinned to exactly `n` worker threads regardless of the
    /// environment or work size (the determinism suite compares
    /// `exact(1)`, `exact(2)`, `exact(8)` runs bit-for-bit).
    #[must_use]
    pub fn exact(n: usize) -> ParallelPolicy {
        ParallelPolicy::Exact(n.max(1))
    }

    /// The resolved thread budget.
    ///
    /// A pinned width ([`ParallelPolicy::exact`]) is returned untouched,
    /// without asking the environment or the operating system anything;
    /// the determinism suite deliberately oversubscribes to prove
    /// scheduling cannot leak into results. [`ParallelPolicy::Auto`]
    /// reads `NEWTON_THREADS` and caps it, or the auto-detected width, at
    /// the host's available parallelism: oversubscribing scoped workers
    /// cannot help cycle-granular simulation and measurably hurts (a
    /// 1-core host ran `--threads 8` 2.4x slower than serial before this
    /// cap).
    ///
    /// Resolve once and keep the number, as
    /// [`NewtonSystem`](crate::system::NewtonSystem) does at construction:
    /// [`host_threads`] is not free.
    #[must_use]
    pub fn threads(&self) -> usize {
        match *self {
            ParallelPolicy::Exact(n) => n.max(1),
            ParallelPolicy::Auto => {
                let host = host_threads();
                env_threads().unwrap_or(host).clamp(1, host)
            }
        }
    }

    /// The most workers `items` independent tasks can use when the
    /// largest performs `max_item_work` units: 1 (serial) when there is
    /// at most one item or, under [`ParallelPolicy::Auto`], the work is
    /// below one million units; otherwise `items`. The minimum of this
    /// and a resolved budget is the width to run at.
    #[must_use]
    pub(crate) fn useful_workers(&self, items: usize, max_item_work: usize) -> usize {
        let min_work = match self {
            ParallelPolicy::Auto => DEFAULT_MIN_CHANNEL_MACS,
            ParallelPolicy::Exact(_) => 0,
        };
        if items <= 1 || max_item_work < min_work {
            1
        } else {
            items
        }
    }
}

/// Maps `f` over `items` with mutable access, on up to `threads` scoped
/// worker threads, returning results **in item order** (index-merged, so
/// the output is independent of scheduling). `f` receives the item's
/// global index. With `threads <= 1` no thread is spawned.
///
/// # Panics
///
/// Propagates panics from `f` (the worker's panic aborts the map).
pub fn par_map_mut<I, T, F>(items: &mut [I], threads: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, &mut I) -> T + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let chunk = items.len().div_ceil(threads.min(items.len()));
    let per_chunk: Vec<Vec<T>> = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, part)| {
                scope.spawn(move || {
                    part.iter_mut()
                        .enumerate()
                        .map(|(j, item)| f(ci * chunk + j, item))
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    per_chunk.into_iter().flatten().collect()
}

/// Computes `f(0..n)` on up to `threads` scoped workers pulling indices
/// from a shared atomic queue (good load balance for uneven work),
/// returning results **in index order** regardless of completion order.
/// With `threads <= 1` no thread is spawned.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn par_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let next = &next;
        let f = &f;
        let handles: Vec<_> = (0..threads.min(n))
            .map(|_| {
                scope.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        got.push((i, f(i)));
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, v) in parts.into_iter().flatten() {
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index produced exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_pins_thread_count_and_ignores_env() {
        assert_eq!(ParallelPolicy::exact(4).threads(), 4);
        assert_eq!(ParallelPolicy::exact(0).threads(), 1);
        assert_eq!(ParallelPolicy::exact(1).threads(), 1);
    }

    #[test]
    fn useful_workers_respects_items_and_threshold() {
        let p = ParallelPolicy::exact(8);
        assert_eq!(p.threads().min(p.useful_workers(24, 1)), 8);
        assert_eq!(p.threads().min(p.useful_workers(3, 1)), 3);
        assert_eq!(p.useful_workers(24, 0), 24);
        assert_eq!(p.useful_workers(1, usize::MAX), 1);
        assert_eq!(p.useful_workers(0, usize::MAX), 1);

        let auto = ParallelPolicy::Auto;
        assert_eq!(auto.useful_workers(24, 999_999), 1);
        assert_eq!(auto.useful_workers(24, 1_000_000), 24);
        assert_eq!(auto.useful_workers(1, usize::MAX), 1);
    }

    #[test]
    fn default_policy_is_auto() {
        assert_eq!(ParallelPolicy::default(), ParallelPolicy::Auto);
        assert!(ParallelPolicy::default().threads() >= 1);
    }

    #[test]
    fn auto_reads_the_environment_capped_at_host_parallelism() {
        // Reads `NEWTON_THREADS` but never sets it (the environment is
        // process-global; the determinism suite owns the mutating test),
        // so the expectation is stated for the value found.
        let host = host_threads();
        let expected = env_threads().unwrap_or(host).min(host);
        assert_eq!(ParallelPolicy::Auto.threads(), expected);
        // Pinned exact() still oversubscribes on purpose.
        assert_eq!(ParallelPolicy::exact(host * 4).threads(), host * 4);
    }

    #[test]
    fn par_map_mut_is_index_ordered_for_any_thread_count() {
        let serial: Vec<usize> = {
            let mut items: Vec<usize> = (0..37).collect();
            par_map_mut(&mut items, 1, |i, v| {
                *v += 1;
                i * 100 + *v
            })
        };
        for threads in [2, 3, 8, 64] {
            let mut items: Vec<usize> = (0..37).collect();
            let got = par_map_mut(&mut items, threads, |i, v| {
                *v += 1;
                i * 100 + *v
            });
            assert_eq!(got, serial, "threads={threads}");
            assert_eq!(items, (1..38).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_indexed_is_index_ordered_for_any_thread_count() {
        let serial: Vec<u64> = par_map_indexed(41, 1, |i| (i as u64).wrapping_mul(0x9e37));
        for threads in [2, 5, 16] {
            let got = par_map_indexed(41, threads, |i| (i as u64).wrapping_mul(0x9e37));
            assert_eq!(got, serial, "threads={threads}");
        }
        assert!(par_map_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn empty_and_single_item_maps_stay_serial() {
        let mut none: Vec<u32> = Vec::new();
        assert!(par_map_mut(&mut none, 8, |_, v| *v).is_empty());
        let mut one = vec![7u32];
        assert_eq!(par_map_mut(&mut one, 8, |i, v| (i, *v)), vec![(0, 7)]);
    }
}
