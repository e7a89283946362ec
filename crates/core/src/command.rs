//! The AiM command set (Table I) and command tracing.
//!
//! Newton's host issues these through the ordinary DRAM command interface —
//! "to the host, Newton's interface is indistinguishable from regular
//! DRAM". Ganged commands drive many banks from one command-bus slot;
//! complex commands fuse broadcast + column-read + multiply-add. When the
//! corresponding optimizations are disabled (Fig. 9 ablation), the
//! controller expands each step into the simple per-bank commands listed
//! here too.

use std::fmt;

use newton_dram::timing::Cycle;

/// One AiM (or supporting DRAM) command as it appears on the command bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AimCommand {
    /// `GWRITE#`: write one sub-chunk of the input vector into the
    /// channel's global buffer (Table I).
    Gwrite {
        /// Sub-chunk index within the DRAM-row-wide buffer.
        index: usize,
    },
    /// `G_ACT#`: ganged activation of one 4-bank cluster (Table I).
    GAct {
        /// Cluster index (banks `4*cluster .. 4*cluster+4`).
        cluster: usize,
        /// DRAM row to open.
        row: usize,
    },
    /// Plain per-bank activation (used when ganged activation is off).
    Act {
        /// Bank index.
        bank: usize,
        /// DRAM row to open.
        row: usize,
    },
    /// `COMP#`: ganged multiply of one sub-chunk in all banks (Table I).
    /// With complex commands enabled this single command broadcasts the
    /// input sub-chunk, column-reads the matrix sub-chunk, and
    /// multiply-adds.
    Comp {
        /// Sub-chunk (column I/O) index.
        subchunk: usize,
    },
    /// Per-bank compute (ganged compute off).
    CompBank {
        /// Bank index.
        bank: usize,
        /// Sub-chunk index.
        subchunk: usize,
    },
    /// Simple-command expansion step 1: broadcast the input sub-chunk from
    /// the global buffer (complex commands off).
    BroadcastInput {
        /// Sub-chunk index.
        subchunk: usize,
    },
    /// Simple-command expansion step 2: column-read of the matrix
    /// sub-chunk (ganged across banks or per bank).
    ColumnRead {
        /// Sub-chunk index.
        subchunk: usize,
        /// Bank, when not ganged.
        bank: Option<usize>,
    },
    /// Simple-command expansion step 3: the multiply-add trigger.
    MultiplyAdd {
        /// Sub-chunk index.
        subchunk: usize,
        /// Bank, when not ganged.
        bank: Option<usize>,
    },
    /// `READRES`: read the result latches of all banks, concatenated
    /// (Table I).
    ReadRes,
    /// Per-bank result read (ganged readout off).
    ReadResBank {
        /// Bank index.
        bank: usize,
    },
    /// Precharge-all between row-sets.
    PreAll,
    /// All-bank refresh interposed by the controller.
    Refresh,
}

impl fmt::Display for AimCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AimCommand::Gwrite { index } => write!(f, "GWRITE{index}"),
            AimCommand::GAct { cluster, row } => write!(f, "G_ACT{cluster} row={row}"),
            AimCommand::Act { bank, row } => write!(f, "ACT bank={bank} row={row}"),
            AimCommand::Comp { subchunk } => write!(f, "COMP{subchunk}"),
            AimCommand::CompBank { bank, subchunk } => {
                write!(f, "COMP{subchunk} bank={bank}")
            }
            AimCommand::BroadcastInput { subchunk } => write!(f, "BCAST{subchunk}"),
            AimCommand::ColumnRead {
                subchunk,
                bank: Some(b),
            } => {
                write!(f, "RD{subchunk} bank={b}")
            }
            AimCommand::ColumnRead {
                subchunk,
                bank: None,
            } => write!(f, "RD{subchunk} all-banks"),
            AimCommand::MultiplyAdd {
                subchunk,
                bank: Some(b),
            } => {
                write!(f, "MAC{subchunk} bank={b}")
            }
            AimCommand::MultiplyAdd {
                subchunk,
                bank: None,
            } => write!(f, "MAC{subchunk} all-banks"),
            AimCommand::ReadRes => write!(f, "READRES"),
            AimCommand::ReadResBank { bank } => write!(f, "READRES bank={bank}"),
            AimCommand::PreAll => write!(f, "PRE_ALL"),
            AimCommand::Refresh => write!(f, "REF"),
        }
    }
}

/// A timestamped command log, used to render Fig. 7-style timing diagrams
/// and to assert command counts in tests.
#[derive(Debug, Clone, Default)]
pub struct CommandTrace {
    entries: Vec<(Cycle, AimCommand)>,
    enabled: bool,
}

impl CommandTrace {
    /// Creates a disabled (zero-cost) trace.
    #[must_use]
    pub fn new() -> CommandTrace {
        CommandTrace::default()
    }

    /// Creates an enabled trace.
    #[must_use]
    pub fn enabled() -> CommandTrace {
        CommandTrace {
            entries: Vec::new(),
            enabled: true,
        }
    }

    /// Whether recording is active.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a command at a cycle (no-op when disabled).
    pub fn record(&mut self, cycle: Cycle, cmd: AimCommand) {
        if self.enabled {
            self.entries.push((cycle, cmd));
        }
    }

    /// Records the `count` commands of a train at
    /// `start, start + step, ...` (no-op when disabled).
    pub fn record_train(
        &mut self,
        start: Cycle,
        step: Cycle,
        count: usize,
        cmd: impl Fn(usize) -> AimCommand,
    ) {
        if self.enabled {
            self.entries
                .extend((0..count).map(|i| (start + i as Cycle * step, cmd(i))));
        }
    }

    /// The recorded `(cycle, command)` pairs in issue order.
    #[must_use]
    pub fn entries(&self) -> &[(Cycle, AimCommand)] {
        &self.entries
    }

    /// Counts commands matching a predicate.
    #[must_use]
    pub fn count(&self, pred: impl Fn(&AimCommand) -> bool) -> usize {
        self.entries.iter().filter(|(_, c)| pred(c)).count()
    }

    /// Renders a compact textual timeline (one line per command), the
    /// shape of the paper's Fig. 7.
    #[must_use]
    pub fn render(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        for (cycle, cmd) in &self.entries {
            let _ = writeln!(out, "{cycle:>8}  {cmd}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_table_i_vocabulary() {
        assert_eq!(AimCommand::Gwrite { index: 3 }.to_string(), "GWRITE3");
        assert_eq!(
            AimCommand::GAct {
                cluster: 1,
                row: 42
            }
            .to_string(),
            "G_ACT1 row=42"
        );
        assert_eq!(AimCommand::Comp { subchunk: 31 }.to_string(), "COMP31");
        assert_eq!(AimCommand::ReadRes.to_string(), "READRES");
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = CommandTrace::new();
        t.record(5, AimCommand::ReadRes);
        assert!(t.entries().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_records_and_counts() {
        let mut t = CommandTrace::enabled();
        t.record(0, AimCommand::GAct { cluster: 0, row: 0 });
        t.record(4, AimCommand::Comp { subchunk: 0 });
        t.record(8, AimCommand::Comp { subchunk: 1 });
        assert_eq!(t.entries().len(), 3);
        assert_eq!(t.count(|c| matches!(c, AimCommand::Comp { .. })), 2);
        let rendered = t.render();
        assert!(rendered.contains("G_ACT0"));
        assert!(rendered.contains("COMP1"));
    }
}
