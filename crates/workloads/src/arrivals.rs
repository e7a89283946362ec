//! Deterministic open-loop arrival traces for online serving.
//!
//! The serving layer (`newton-serve`) replays these traces against a
//! [`NewtonSystem`]: each arrival timestamp is the simulated nanosecond at
//! which a query enters the admission queue, independent of how fast the
//! system drains it (open-loop, so overload actually builds a backlog
//! instead of silently self-throttling as a closed loop would).
//!
//! All three patterns are inhomogeneous Poisson processes generated by
//! *thinning* (Lewis & Shedler): candidate points are drawn from a
//! homogeneous Poisson process at the pattern's peak rate `λ_max`
//! (exponential gaps), and candidate `k` at time `t` is kept with
//! probability `λ(t) / λ_max`. Both the gap draw and the acceptance draw
//! for candidate `k` are pure functions of `(seed, k)` via
//! [`CounterRng`], so the draw arrays can be filled on parallel host
//! threads in any chunking while producing bit-identical traces — the
//! same contract as [`crate::generator`]. Only the O(candidates) prefix
//! sum of gaps is serial, and it is cheap.
//!
//! [`NewtonSystem`]: https://docs.rs/newton-core

use newton_core::parallel::{par_map_mut, ParallelPolicy};

use newton_dram::faults::CounterRng;

/// Seed-space tag so arrival streams never collide with weight/input
/// generation streams derived from the same user seed.
const ARRIVAL_STREAM: u64 = 0x5eed_0000_0000_0002;

/// Candidate count below which draw fills stay serial (thread spawn
/// would dominate).
const PAR_DRAW_MIN: usize = 1 << 16;

/// An open-loop arrival-rate pattern. Rates are in queries per simulated
/// microsecond; times are simulated nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Steady traffic: a homogeneous Poisson process at a fixed rate.
    Poisson {
        /// Mean arrival rate, queries per microsecond.
        rate_per_us: f64,
    },
    /// Square-wave bursts: `burst_fraction` of every period at
    /// `peak_rate_per_us`, the rest at `base_rate_per_us`. Models the
    /// batch-vs-interactive tension of Fig. 11/12: burst peaks are where
    /// batching wins and shedding decisions bite.
    Bursty {
        /// Rate outside bursts, queries per microsecond.
        base_rate_per_us: f64,
        /// Rate inside bursts, queries per microsecond.
        peak_rate_per_us: f64,
        /// Burst cycle length in microseconds.
        period_us: f64,
        /// Fraction of each period spent at the peak rate, in `(0, 1)`.
        burst_fraction: f64,
    },
    /// Slow sinusoidal swell: `mean · (1 + amplitude · sin(2πt/period))`.
    /// A compressed stand-in for the day/night load cycle of a serving
    /// fleet.
    Diurnal {
        /// Mean arrival rate, queries per microsecond.
        mean_rate_per_us: f64,
        /// Relative swing around the mean, in `[0, 1)`.
        amplitude: f64,
        /// Cycle length in microseconds.
        period_us: f64,
    },
}

impl ArrivalPattern {
    /// The instantaneous rate `λ(t)` in queries per nanosecond.
    #[must_use]
    pub fn rate_per_ns_at(&self, t_ns: f64) -> f64 {
        match *self {
            ArrivalPattern::Poisson { rate_per_us } => rate_per_us / 1000.0,
            ArrivalPattern::Bursty {
                base_rate_per_us,
                peak_rate_per_us,
                period_us,
                burst_fraction,
            } => {
                let period_ns = period_us * 1000.0;
                let phase = (t_ns / period_ns).fract();
                if phase < burst_fraction {
                    peak_rate_per_us / 1000.0
                } else {
                    base_rate_per_us / 1000.0
                }
            }
            ArrivalPattern::Diurnal {
                mean_rate_per_us,
                amplitude,
                period_us,
            } => {
                let period_ns = period_us * 1000.0;
                let s = (core::f64::consts::TAU * (t_ns / period_ns)).sin();
                mean_rate_per_us / 1000.0 * (1.0 + amplitude * s)
            }
        }
    }

    /// The peak rate `λ_max` in queries per nanosecond (the thinning
    /// envelope).
    #[must_use]
    fn peak_rate_per_ns(&self) -> f64 {
        match *self {
            ArrivalPattern::Poisson { rate_per_us } => rate_per_us / 1000.0,
            ArrivalPattern::Bursty {
                base_rate_per_us,
                peak_rate_per_us,
                ..
            } => base_rate_per_us.max(peak_rate_per_us) / 1000.0,
            ArrivalPattern::Diurnal {
                mean_rate_per_us,
                amplitude,
                ..
            } => mean_rate_per_us / 1000.0 * (1.0 + amplitude.abs()),
        }
    }

    /// The time-averaged rate in queries per microsecond (what an
    /// empirical-rate check should converge to over whole periods).
    #[must_use]
    pub(crate) fn mean_rate_per_us(&self) -> f64 {
        match *self {
            ArrivalPattern::Poisson { rate_per_us } => rate_per_us,
            ArrivalPattern::Bursty {
                base_rate_per_us,
                peak_rate_per_us,
                burst_fraction,
                ..
            } => burst_fraction * peak_rate_per_us + (1.0 - burst_fraction) * base_rate_per_us,
            ArrivalPattern::Diurnal {
                mean_rate_per_us, ..
            } => mean_rate_per_us,
        }
    }

    /// Validates the pattern parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: all rates
    /// must be finite and non-negative with a strictly positive peak,
    /// periods strictly positive, `burst_fraction` in `(0, 1)`, and
    /// diurnal `amplitude` in `[0, 1)` (so `λ(t)` never goes negative).
    pub fn validate(&self) -> Result<(), String> {
        let finite_rate = |name: &str, r: f64| {
            if !r.is_finite() || r < 0.0 {
                Err(format!("{name} must be finite and >= 0, got {r}"))
            } else {
                Ok(())
            }
        };
        match *self {
            ArrivalPattern::Poisson { rate_per_us } => finite_rate("rate_per_us", rate_per_us)?,
            ArrivalPattern::Bursty {
                base_rate_per_us,
                peak_rate_per_us,
                period_us,
                burst_fraction,
            } => {
                finite_rate("base_rate_per_us", base_rate_per_us)?;
                finite_rate("peak_rate_per_us", peak_rate_per_us)?;
                if !(period_us.is_finite() && period_us > 0.0) {
                    return Err(format!("period_us must be finite and > 0, got {period_us}"));
                }
                if !(burst_fraction > 0.0 && burst_fraction < 1.0) {
                    return Err(format!(
                        "burst_fraction must be in (0, 1), got {burst_fraction}"
                    ));
                }
            }
            ArrivalPattern::Diurnal {
                mean_rate_per_us,
                amplitude,
                period_us,
            } => {
                finite_rate("mean_rate_per_us", mean_rate_per_us)?;
                if !(period_us.is_finite() && period_us > 0.0) {
                    return Err(format!("period_us must be finite and > 0, got {period_us}"));
                }
                if !(0.0..1.0).contains(&amplitude) {
                    return Err(format!("amplitude must be in [0, 1), got {amplitude}"));
                }
            }
        }
        if self.peak_rate_per_ns() <= 0.0 {
            return Err("peak rate must be > 0 (pattern would never arrive)".to_string());
        }
        Ok(())
    }

    /// Generates the first `count` arrival timestamps (simulated
    /// nanoseconds, non-decreasing), filling draw arrays on the default
    /// [`ParallelPolicy`] (so `NEWTON_THREADS` applies). Bit-identical
    /// for every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`validate`](ArrivalPattern::validate)'s error for
    /// malformed patterns.
    pub fn arrival_times_ns(&self, seed: u64, count: usize) -> Result<Vec<u64>, String> {
        self.arrival_times_ns_with_threads(seed, count, ParallelPolicy::default().threads())
    }

    /// [`arrival_times_ns`](ArrivalPattern::arrival_times_ns) with an
    /// explicit worker-thread count — the width-invariance test surface.
    ///
    /// # Errors
    ///
    /// Returns [`validate`](ArrivalPattern::validate)'s error for
    /// malformed patterns.
    pub fn arrival_times_ns_with_threads(
        &self,
        seed: u64,
        count: usize,
        threads: usize,
    ) -> Result<Vec<u64>, String> {
        self.validate()?;
        let rng = CounterRng::new(seed ^ ARRIVAL_STREAM);
        let lambda_max = self.peak_rate_per_ns();
        let mean = self.mean_rate_per_us() / 1000.0;
        let mut out = Vec::with_capacity(count);
        let mut t_ns = 0.0f64;
        // Candidate index: each candidate consumes draws 2k (gap) and
        // 2k + 1 (acceptance), pure in k, so block boundaries are
        // unobservable.
        let mut next_k = 0u64;
        while out.len() < count {
            let remaining = count - out.len();
            // Expected candidates per accepted arrival is λ_max/mean̄;
            // over-provision ~10% plus slack so one block usually
            // suffices.
            let est = if mean > 0.0 {
                ((remaining as f64) * lambda_max / mean * 1.1).ceil() as usize + 64
            } else {
                // Mean rate 0 with positive peak (e.g. bursty with zero
                // base): candidates thin heavily; still terminates
                // because the peak windows accept.
                remaining * 16 + 64
            };
            let draws = fill_draws(&rng, next_k, est, threads);
            next_k += est as u64;
            for [gap_u, accept_u] in draws {
                // gap_u ∈ [0, 1) so 1 − gap_u ∈ (0, 1] and ln is finite.
                let gap = -(1.0 - gap_u).ln() / lambda_max;
                t_ns += gap;
                if accept_u * lambda_max <= self.rate_per_ns_at(t_ns) {
                    out.push(t_ns.round() as u64);
                    if out.len() == count {
                        break;
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Fills `len` candidate draw pairs starting at candidate `start`, each a
/// pure function of its index, chunked across `threads` workers.
fn fill_draws(rng: &CounterRng, start: u64, len: usize, threads: usize) -> Vec<[f64; 2]> {
    let mut out = vec![[0.0f64; 2]; len];
    let pair = |k: u64| [rng.unit_f64_at(2 * k), rng.unit_f64_at(2 * k + 1)];
    if threads <= 1 || len < PAR_DRAW_MIN {
        for (j, d) in out.iter_mut().enumerate() {
            *d = pair(start + j as u64);
        }
        return out;
    }
    let chunk = len.div_ceil(threads);
    let mut chunks: Vec<(usize, &mut [[f64; 2]])> = out
        .chunks_mut(chunk)
        .enumerate()
        .map(|(ci, part)| (ci * chunk, part))
        .collect();
    par_map_mut(&mut chunks, threads, |_, (off, part)| {
        for (j, d) in part.iter_mut().enumerate() {
            *d = pair(start + (*off + j) as u64);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_sorted_and_deterministic() {
        let p = ArrivalPattern::Poisson { rate_per_us: 2.0 };
        let a = p.arrival_times_ns(42, 500).unwrap();
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
        assert_eq!(a, p.arrival_times_ns(42, 500).unwrap());
        assert_ne!(a, p.arrival_times_ns(43, 500).unwrap());
        // Prefix property: asking for fewer arrivals yields a prefix.
        assert_eq!(a[..100], p.arrival_times_ns(42, 100).unwrap()[..]);
    }

    #[test]
    fn bursty_peaks_cluster_in_burst_windows() {
        let p = ArrivalPattern::Bursty {
            base_rate_per_us: 0.1,
            peak_rate_per_us: 10.0,
            period_us: 100.0,
            burst_fraction: 0.2,
        };
        let a = p.arrival_times_ns(7, 2000).unwrap();
        let in_burst = a
            .iter()
            .filter(|&&t| (t as f64 / 100_000.0).fract() < 0.2)
            .count();
        // 20% of time carries ~95% of load at these rates.
        assert!(
            in_burst as f64 > 0.8 * a.len() as f64,
            "bursts should dominate: {in_burst}/{}",
            a.len()
        );
    }

    #[test]
    fn diurnal_rate_never_negative_and_mean_matches() {
        let p = ArrivalPattern::Diurnal {
            mean_rate_per_us: 1.0,
            amplitude: 0.9,
            period_us: 1000.0,
        };
        for i in 0..100 {
            assert!(p.rate_per_ns_at(i as f64 * 17_000.0) >= 0.0);
        }
        assert!((p.mean_rate_per_us() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn malformed_patterns_are_rejected() {
        assert!(ArrivalPattern::Poisson { rate_per_us: 0.0 }
            .arrival_times_ns(1, 10)
            .is_err());
        assert!(ArrivalPattern::Poisson {
            rate_per_us: f64::NAN
        }
        .validate()
        .is_err());
        assert!(ArrivalPattern::Bursty {
            base_rate_per_us: 1.0,
            peak_rate_per_us: 1.0,
            period_us: 0.0,
            burst_fraction: 0.5,
        }
        .validate()
        .is_err());
        assert!(ArrivalPattern::Diurnal {
            mean_rate_per_us: 1.0,
            amplitude: 1.0,
            period_us: 10.0,
        }
        .validate()
        .is_err());
    }

    #[test]
    fn zero_count_is_empty() {
        let p = ArrivalPattern::Poisson { rate_per_us: 1.0 };
        assert!(p.arrival_times_ns(5, 0).unwrap().is_empty());
    }
}
