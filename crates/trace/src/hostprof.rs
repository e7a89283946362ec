//! Host-phase self-profiling: where the *wall clock* goes.
//!
//! The simulator's other instruments all measure simulated time; this one
//! measures the host. A [`HostProfiler`] is a tiny fixed-order registry
//! of named phases (encode / drain / comp / merge / snapshot in the
//! system simulator), each accumulating a call count and elapsed
//! nanoseconds. Call counts are functions of the workload alone, so they
//! are part of the determinism contract (byte-identical at every thread
//! width — see [`HostProfiler::digest`]); nanosecond totals are
//! host-dependent by nature and are only ever *reported*, never compared.
//!
//! The registry is deliberately dumb — a `Vec` in registration order, no
//! globals, no interior mutability.

/// One named host phase: how often it ran and how long it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostPhase {
    /// Phase name (stable identifier, e.g. `"drain"`).
    pub name: &'static str,
    /// Times the phase executed.
    pub calls: u64,
    /// Total host wall-clock spent in the phase, nanoseconds.
    pub nanos: u64,
}

/// A fixed-order registry of host phases.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostProfiler {
    phases: Vec<HostPhase>,
}

impl HostProfiler {
    /// A profiler with the given phases pre-registered (all zero), fixing
    /// the report order up front.
    #[must_use]
    pub fn new(names: &[&'static str]) -> HostProfiler {
        HostProfiler {
            phases: names
                .iter()
                .map(|&name| HostPhase {
                    name,
                    calls: 0,
                    nanos: 0,
                })
                .collect(),
        }
    }

    /// Accumulates `calls` executions totalling `nanos` into `name`
    /// (registering the phase at the end of the order if it is new).
    pub fn add(&mut self, name: &'static str, calls: u64, nanos: u64) {
        match self.phases.iter_mut().find(|p| p.name == name) {
            Some(p) => {
                p.calls += calls;
                p.nanos += nanos;
            }
            None => self.phases.push(HostPhase { name, calls, nanos }),
        }
    }

    /// The phases, in registration order.
    #[must_use]
    pub fn phases(&self) -> &[HostPhase] {
        &self.phases
    }

    /// The simulation-deterministic part of the report — phase names and
    /// call counts, in order, with wall-clock omitted. Byte-identical at
    /// every `NEWTON_THREADS` width for the same workload.
    #[must_use]
    pub fn digest(&self) -> String {
        let mut s = String::new();
        for p in &self.phases {
            if !s.is_empty() {
                s.push(';');
            }
            s.push_str(p.name);
            s.push(':');
            s.push_str(&p.calls.to_string());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_in_registration_order() {
        let mut p = HostProfiler::new(&["encode", "drain", "merge"]);
        p.add("drain", 1, 500);
        p.add("drain", 2, 1500);
        p.add("encode", 1, 100);
        p.add("late", 1, 9);
        let names: Vec<&str> = p.phases().iter().map(|x| x.name).collect();
        assert_eq!(names, ["encode", "drain", "merge", "late"]);
        assert_eq!(p.phases()[1].calls, 3);
        assert_eq!(p.phases()[1].nanos, 2000);
        assert_eq!(p.phases()[0].nanos, 100);
        assert_eq!(p.phases()[3].nanos, 9);
    }

    #[test]
    fn digest_covers_calls_but_not_wall_clock() {
        let mut a = HostProfiler::new(&["encode", "drain"]);
        let mut b = HostProfiler::new(&["encode", "drain"]);
        a.add("drain", 3, 111);
        b.add("drain", 3, 999_999);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.digest(), "encode:0;drain:3");
        b.add("drain", 1, 0);
        assert_ne!(a.digest(), b.digest());
    }
}
