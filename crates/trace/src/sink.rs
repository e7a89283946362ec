//! The instrumentation event vocabulary: [`TraceEvent`] and its parts.
//!
//! Events have one consumer, the windowed [`TimeSeries`]. The DRAM
//! channel folds every command, bank-state change, data burst,
//! queue-latency sample, ECC event and energy attribution into its series
//! while telemetry is on and builds no event at all while it is off; the
//! serving layer records its [`TraceEvent::Request`] series the same way.
//!
//! [`TimeSeries`]: crate::timeseries::TimeSeries

use crate::residency::BankClass;

/// Which command bus carried a traced command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceBus {
    /// The row-command bus (ACT, PRE, REF).
    Row,
    /// The column-command bus (RD, WR and the AiM column-class commands).
    Column,
}

impl TraceBus {
    /// Stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceBus::Row => "row",
            TraceBus::Column => "column",
        }
    }
}

/// One instrumentation event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A command occupied a command-bus slot.
    Command {
        /// Issue cycle.
        cycle: u64,
        /// The bus that carried it.
        bus: TraceBus,
        /// Mnemonic (e.g. `"ACT"`, `"G_ACT"`, `"COMP"`).
        label: &'static str,
        /// Bank operations performed under this one slot (1 for plain
        /// commands, up to the bank count for ganged ones).
        bank_ops: u32,
    },
    /// A bank entered a residency class.
    BankState {
        /// Transition cycle.
        cycle: u64,
        /// Bank index.
        bank: u32,
        /// The class entered.
        class: BankClass,
    },
    /// A burst crossed the external data bus.
    DataBurst {
        /// Cycle the burst started.
        cycle: u64,
        /// Bytes moved.
        bytes: u64,
    },
    /// A scheduler issued a request that had waited in its queue.
    QueueLatency {
        /// Issue cycle.
        cycle: u64,
        /// Cycles between arrival and issue.
        waited: u64,
    },
    /// The SECDED scrub corrected single-bit errors in a row.
    EccCorrected {
        /// Cycle of the access that triggered the scrub.
        cycle: u64,
        /// Bank holding the row.
        bank: u32,
        /// The corrected row.
        row: u32,
        /// Number of corrected 64-bit words.
        bits: u32,
    },
    /// The SECDED scrub detected an uncorrectable multi-bit error.
    EccUncorrectable {
        /// Cycle of the access that detected the error.
        cycle: u64,
        /// Bank holding the row.
        bank: u32,
        /// The damaged row.
        row: u32,
    },
    /// Energy attributed to a command at issue time (emitted only when
    /// telemetry is enabled; fixed-point so the stream stays integral).
    CommandEnergy {
        /// Issue cycle of the command the energy belongs to.
        cycle: u64,
        /// The command's mnemonic (`"ACT"`, `"COMP"`, `"READRES"`,
        /// `"REF"`, ...).
        label: &'static str,
        /// Attributed energy in milli-picojoules.
        milli_pj: u64,
    },
    /// A serving-layer request event (arrival, admission, shed, deadline
    /// miss, retry), emitted by the online scheduler in `newton-serve`.
    Request {
        /// Simulated cycle the event happened at.
        cycle: u64,
        /// What happened to the request.
        class: RequestClass,
    },
}

/// What happened to one serving-layer request (see
/// [`TraceEvent::Request`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// The request arrived at the server.
    Arrival,
    /// Admission control accepted it into the queue.
    Admission,
    /// Admission control shed it (queue over capacity) — counted, never
    /// silently dropped.
    Shed,
    /// The request's deadline passed (either expired in the queue or
    /// completed late).
    DeadlineMiss,
    /// A run attempt failed on an uncorrectable fault and was retried.
    Retry,
}

impl RequestClass {
    /// Stable lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RequestClass::Arrival => "arrival",
            RequestClass::Admission => "admission",
            RequestClass::Shed => "shed",
            RequestClass::DeadlineMiss => "deadline_miss",
            RequestClass::Retry => "retry",
        }
    }
}

impl TraceEvent {
    /// The event's cycle stamp.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Command { cycle, .. }
            | TraceEvent::BankState { cycle, .. }
            | TraceEvent::DataBurst { cycle, .. }
            | TraceEvent::QueueLatency { cycle, .. }
            | TraceEvent::EccCorrected { cycle, .. }
            | TraceEvent::EccUncorrectable { cycle, .. }
            | TraceEvent::CommandEnergy { cycle, .. }
            | TraceEvent::Request { cycle, .. } => cycle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Command {
                cycle: 0,
                bus: TraceBus::Row,
                label: "ACT",
                bank_ops: 1,
            },
            TraceEvent::BankState {
                cycle: 0,
                bank: 3,
                class: BankClass::RowOpen,
            },
            TraceEvent::DataBurst {
                cycle: 20,
                bytes: 32,
            },
            TraceEvent::QueueLatency {
                cycle: 20,
                waited: 6,
            },
        ]
    }

    #[test]
    fn event_cycles_are_reported() {
        assert_eq!(sample()[2].cycle(), 20);
    }
}
