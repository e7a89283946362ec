//! The instrumentation event vocabulary: [`TraceEvent`] and its parts.
//!
//! Events have one consumer, the windowed [`TimeSeries`]. The DRAM
//! channel folds every command, row open and close, data burst and energy
//! attribution into its series while telemetry is on and builds no event
//! at all while it is off.
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
}
