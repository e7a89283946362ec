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

/// The counter-based generator a bit-exact parallel fill draws from:
/// element `k` is a pure function of `(seed, k)`, so the bytes do not
/// depend on how an index space is cut across workers. Defined in
/// `newton-dram`, whose fault campaigns draw from it too, and named here
/// for the generators above this crate (`newton_workloads::rng`).
pub use newton_dram::faults::{mix64, CounterRng};

/// Name of the environment variable that overrides the thread count.
pub const THREADS_ENV: &str = "NEWTON_THREADS";

/// Work threshold (in per-channel MAC operations) below which layer
/// simulation stays serial by default: thread spawn and cache effects
/// dominate for small layers.
pub const DEFAULT_MIN_CHANNEL_MACS: usize = 1_000_000;

/// Reads `NEWTON_THREADS`, returning `Some(n)` for a valid positive
/// integer and `None` otherwise (unset, empty, unparsable, or `0`).
#[must_use]
pub fn env_threads() -> Option<usize> {
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelPolicy {
    /// Upper bound on worker threads. `None` uses the host's available
    /// parallelism.
    pub max_threads: Option<usize>,
    /// Minimum per-item work (in MAC operations, or elements for loads)
    /// before threads are spawned; smaller work runs serially.
    pub min_channel_macs: usize,
    /// Whether `NEWTON_THREADS` overrides `max_threads`. Tests that pin
    /// an exact thread count set this to `false`.
    pub respect_env: bool,
}

impl Default for ParallelPolicy {
    /// Environment-respecting policy with the historical serial
    /// threshold of one million per-channel MACs.
    fn default() -> ParallelPolicy {
        ParallelPolicy {
            max_threads: None,
            min_channel_macs: DEFAULT_MIN_CHANNEL_MACS,
            respect_env: true,
        }
    }
}

impl ParallelPolicy {
    /// A policy pinned to exactly `n` worker threads regardless of the
    /// environment or work size (the determinism suite compares
    /// `exact(1)`, `exact(2)`, `exact(8)` runs bit-for-bit).
    #[must_use]
    pub fn exact(n: usize) -> ParallelPolicy {
        ParallelPolicy {
            max_threads: Some(n.max(1)),
            min_channel_macs: 0,
            respect_env: false,
        }
    }

    /// A policy that never spawns threads.
    #[must_use]
    pub fn serial() -> ParallelPolicy {
        ParallelPolicy::exact(1)
    }

    /// The resolved thread budget, from the first of three sources that
    /// applies: a *pinned* width, `NEWTON_THREADS`, the `max_threads`
    /// hint (the host's available parallelism when there is none).
    ///
    /// A policy pinned to an explicit width — `respect_env == false`
    /// with `max_threads` set, i.e. [`ParallelPolicy::exact`] — returns
    /// that width untouched, without asking the environment or the
    /// operating system anything; the determinism suite deliberately
    /// oversubscribes to prove scheduling cannot leak into results. Every
    /// other source (`NEWTON_THREADS` when respected, a `max_threads`
    /// hint, auto-detection) is capped at the host's available
    /// parallelism: oversubscribing scoped workers cannot help
    /// cycle-granular simulation and measurably hurts (a 1-core host ran
    /// `--threads 8` 2.4x slower than serial before this cap).
    ///
    /// Resolve once and keep the number, as
    /// [`NewtonSystem`](crate::system::NewtonSystem) does at construction:
    /// [`host_threads`] is not free.
    #[must_use]
    pub fn threads(&self) -> usize {
        if let (false, Some(n)) = (self.respect_env, self.max_threads) {
            return n.max(1);
        }
        let host = host_threads();
        let asked = self.respect_env.then(env_threads).flatten();
        asked.or(self.max_threads).unwrap_or(host).clamp(1, host)
    }

    /// The most workers `items` independent tasks can use when the
    /// largest performs `max_item_work` units: 1 (serial) when there is
    /// at most one item or the work is below
    /// [`ParallelPolicy::min_channel_macs`], otherwise `items`. The
    /// minimum of this and a resolved budget is the width to run at.
    #[must_use]
    pub fn useful_workers(&self, items: usize, max_item_work: usize) -> usize {
        if items <= 1 || max_item_work < self.min_channel_macs {
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
        let p = ParallelPolicy::exact(4);
        assert_eq!(p.threads(), 4);
        assert!(!p.respect_env);
        assert_eq!(p.min_channel_macs, 0);
        assert_eq!(ParallelPolicy::exact(0).threads(), 1);
        assert_eq!(ParallelPolicy::serial().threads(), 1);
    }

    #[test]
    fn useful_workers_respects_items_and_threshold() {
        let p = ParallelPolicy::exact(8);
        assert_eq!(p.threads().min(p.useful_workers(24, 1)), 8);
        assert_eq!(p.threads().min(p.useful_workers(3, 1)), 3);
        assert_eq!(p.useful_workers(1, usize::MAX), 1);
        assert_eq!(p.useful_workers(0, usize::MAX), 1);

        let gated = ParallelPolicy {
            max_threads: Some(8),
            min_channel_macs: 1_000_000,
            respect_env: false,
        };
        assert_eq!(gated.useful_workers(24, 999_999), 1);
        assert_eq!(gated.useful_workers(24, 1_000_000), 24);
    }

    #[test]
    fn default_policy_keeps_historical_threshold() {
        let p = ParallelPolicy::default();
        assert_eq!(p.min_channel_macs, DEFAULT_MIN_CHANNEL_MACS);
        assert!(p.respect_env);
        assert!(p.threads() >= 1);
    }

    #[test]
    fn non_pinned_widths_are_capped_at_host_parallelism() {
        let host = host_threads();
        // Auto-detection resolves to the host width exactly.
        let auto = ParallelPolicy {
            max_threads: None,
            min_channel_macs: 0,
            respect_env: false,
        };
        assert_eq!(auto.threads(), host);
        // An oversubscribed hint is capped (whether or not NEWTON_THREADS
        // is set in the test environment, the result never exceeds host).
        let hinted = ParallelPolicy {
            max_threads: Some(host * 4),
            min_channel_macs: 0,
            respect_env: true,
        };
        assert!(hinted.threads() <= host);
        assert!(ParallelPolicy::default().threads() <= host);
        // Pinned exact() still oversubscribes on purpose.
        assert_eq!(ParallelPolicy::exact(host * 4).threads(), host * 4);
    }

    #[test]
    fn resolution_order_is_pinned_then_env_then_hint() {
        // Reads `NEWTON_THREADS` but never sets it (the environment is
        // process-global; the determinism suite owns the mutating test),
        // so each expectation is stated for the value found.
        let host = host_threads();
        let policy = |max_threads, respect_env| ParallelPolicy {
            max_threads,
            min_channel_macs: 0,
            respect_env,
        };
        // 1. A pinned width wins over everything and is never capped.
        assert_eq!(policy(Some(host + 3), false).threads(), host + 3);
        // 2. Then the environment, when the policy respects it: it beats
        //    the hint in either direction, capped at the host.
        for hint in [Some(1), Some(host + 3), None] {
            let expected = env_threads().or(hint).unwrap_or(host).min(host);
            assert_eq!(policy(hint, true).threads(), expected, "hint {hint:?}");
        }
        // 3. Then the hint, capped at the host; no hint is the host.
        assert_eq!(policy(None, false).threads(), host);
        if env_threads().is_none() {
            assert_eq!(policy(Some(1), true).threads(), 1);
            assert_eq!(policy(Some(host + 3), true).threads(), host);
        }
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
