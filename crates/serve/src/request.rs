//! Request lifecycle vocabulary: queries, deadlines, and the typed
//! errors a resilient server is allowed to answer with.
//!
//! The admission-control contract is that every offered query ends in
//! exactly one of four accounted outcomes — completed, shed at
//! admission, expired in queue, or lost to a fatal substrate error —
//! and the first three are *normal operation* under overload, reported
//! with typed errors rather than silently dropped.

use newton_core::AimError;

/// One inference query in flight: admitted at `arrival_cycle`, due by
/// `deadline_cycle`, carrying the index of its canonical input vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Monotonic query id (trace order).
    pub id: u64,
    /// Simulated cycle the query entered the admission queue.
    pub(crate) arrival_cycle: u64,
    /// Simulated cycle after which completing the query no longer meets
    /// its SLO.
    pub(crate) deadline_cycle: u64,
    /// Index into the server's canonical input set.
    pub input: usize,
}

/// Typed serving errors. Deadline misses and load shedding are expected
/// overload outcomes; `Fatal` means the resilience ladder itself was
/// exhausted (the run cannot continue).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The query sat in the admission queue past its deadline and was
    /// expired before dispatch.
    DeadlineExceeded {
        /// Query id.
        id: u64,
        /// The missed deadline, in simulated cycles.
        deadline_cycle: u64,
        /// How late the scheduler noticed, in cycles past the deadline.
        lateness_cycles: u64,
    },
    /// The admission queue was full when the query arrived; admission
    /// control shed it explicitly.
    Shed {
        /// Query id.
        id: u64,
        /// Queue depth at the shed decision (== configured capacity).
        queue_depth: usize,
    },
    /// The substrate failed in a way the scrub → retry → retirement
    /// ladder could not absorb; serving cannot continue.
    Fatal(AimError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::DeadlineExceeded {
                id,
                deadline_cycle,
                lateness_cycles,
            } => write!(
                f,
                "query {id} expired in queue: deadline cycle {deadline_cycle} \
                 missed by {lateness_cycles} cycles"
            ),
            ServeError::Shed { id, queue_depth } => write!(
                f,
                "query {id} shed at admission: queue full at depth {queue_depth}"
            ),
            ServeError::Fatal(e) => write!(f, "fatal substrate error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Fatal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AimError> for ServeError {
    fn from(e: AimError) -> ServeError {
        ServeError::Fatal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_their_accounting() {
        let d = ServeError::DeadlineExceeded {
            id: 7,
            deadline_cycle: 100,
            lateness_cycles: 12,
        };
        assert!(d.to_string().contains("query 7"));
        assert!(d.to_string().contains("12 cycles"));
        let s = ServeError::Shed {
            id: 9,
            queue_depth: 64,
        };
        assert!(s.to_string().contains("depth 64"));
        let f = ServeError::Fatal(AimError::InvalidConfig("x".into()));
        assert!(std::error::Error::source(&f).is_some());
        assert!(std::error::Error::source(&s).is_none());
    }
}
