//! Typed errors of the ISA layer.
//!
//! The fuzzer's contract is that malformed or out-of-range programs are
//! rejected with one of these variants — never a panic or abort — so
//! every variant names the offending value and its legal bound.

use std::fmt;

use newton_core::AimError;
use newton_dram::DramError;

/// Everything that can go wrong parsing, validating, or executing an
/// `.aim` trace.
#[derive(Debug)]
#[non_exhaustive]
pub enum IsaError {
    /// A line failed to parse (1-based line number of the trace text).
    Parse {
        /// 1-based source line.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
    /// A GPR index exceeded the register file.
    GprOutOfRange {
        /// Offending index.
        gpr: usize,
        /// Registers available.
        count: usize,
    },
    /// A CFR index exceeded the register file.
    CfrOutOfRange {
        /// Offending index.
        idx: usize,
        /// Registers available.
        count: usize,
    },
    /// A channel mask addressed channels beyond the configured count.
    ChannelMaskOutOfRange {
        /// Offending mask.
        mask: u64,
        /// Channels configured.
        channels: usize,
    },
    /// A bank index exceeded the per-channel bank count.
    BankOutOfRange {
        /// Offending bank.
        bank: usize,
        /// Banks per channel.
        banks: usize,
    },
    /// A DRAM row index exceeded the addressable rows.
    RowOutOfRange {
        /// Offending row.
        row: usize,
        /// Rows available.
        rows: usize,
    },
    /// A column index exceeded the columns of one row.
    ColOutOfRange {
        /// Offending column.
        col: usize,
        /// Columns per row.
        cols: usize,
    },
    /// A result-latch index exceeded the per-bank latch count.
    LatchOutOfRange {
        /// Offending latch.
        latch: usize,
        /// Latches per bank.
        latches: usize,
    },
    /// A global-buffer sub-chunk offset exceeded the buffer.
    GbOffsetOutOfRange {
        /// Offending sub-chunk offset.
        offset: usize,
        /// Sub-chunks in the global buffer.
        subchunks: usize,
    },
    /// The trace declared no (or an inconsistent) geometry header.
    Geometry(String),
    /// The trace's `MAC_ABK` / `RD_MAC` stream disagrees with the
    /// schedule the declared geometry implies — the conformance teeth of
    /// the MV path.
    ScheduleMismatch {
        /// Position of the first offending instruction in the stream.
        index: usize,
        /// What differed.
        detail: String,
    },
    /// The trace is not a recognizable lowered matrix–vector program.
    NotMv(String),
    /// An error surfaced from the simulated substrate.
    Core(AimError),
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            IsaError::GprOutOfRange { gpr, count } => {
                write!(f, "GPR {gpr} out of range (register file has {count})")
            }
            IsaError::CfrOutOfRange { idx, count } => {
                write!(f, "CFR {idx} out of range (register file has {count})")
            }
            IsaError::ChannelMaskOutOfRange { mask, channels } => write!(
                f,
                "channel mask {mask:#x} addresses channels beyond the configured {channels}"
            ),
            IsaError::BankOutOfRange { bank, banks } => {
                write!(f, "bank {bank} out of range ({banks} banks per channel)")
            }
            IsaError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range ({rows} rows addressable)")
            }
            IsaError::ColOutOfRange { col, cols } => {
                write!(f, "column {col} out of range ({cols} columns per row)")
            }
            IsaError::LatchOutOfRange { latch, latches } => {
                write!(f, "latch {latch} out of range ({latches} latches per bank)")
            }
            IsaError::GbOffsetOutOfRange { offset, subchunks } => write!(
                f,
                "global-buffer sub-chunk {offset} out of range ({subchunks} sub-chunks)"
            ),
            IsaError::Geometry(detail) => write!(f, "trace geometry error: {detail}"),
            IsaError::ScheduleMismatch { index, detail } => {
                write!(
                    f,
                    "MAC_ABK stream mismatch at instruction {index}: {detail}"
                )
            }
            IsaError::NotMv(detail) => write!(f, "not a lowered MV trace: {detail}"),
            IsaError::Core(e) => write!(f, "substrate error: {e}"),
        }
    }
}

impl std::error::Error for IsaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IsaError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AimError> for IsaError {
    fn from(e: AimError) -> IsaError {
        IsaError::Core(e)
    }
}

impl From<DramError> for IsaError {
    fn from(e: DramError) -> IsaError {
        IsaError::Core(AimError::from(e))
    }
}
