//! The AiM command set (Table I): the names a channel's command log
//! ([`crate::audit`]) gives what the AiM controller issues through the
//! ordinary DRAM command interface — "to the host, Newton's interface is
//! indistinguishable from regular DRAM". Ganged commands drive many banks
//! from one command-bus slot; complex commands fuse broadcast +
//! column-read + multiply-add. With those optimizations off (Fig. 9
//! ablation) the controller issues the simple per-bank steps listed here.

use std::fmt;

/// One AiM (or supporting DRAM) command as it appears on the command bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
            AimCommand::CompBank { bank, subchunk } => write!(f, "COMP{subchunk} bank={bank}"),
            AimCommand::BroadcastInput { subchunk } => write!(f, "BCAST{subchunk}"),
            AimCommand::ColumnRead { subchunk, bank } => write!(f, "RD{subchunk} {}", Banks(*bank)),
            AimCommand::MultiplyAdd { subchunk, bank } => {
                write!(f, "MAC{subchunk} {}", Banks(*bank))
            }
            AimCommand::ReadRes => write!(f, "READRES"),
            AimCommand::ReadResBank { bank } => write!(f, "READRES bank={bank}"),
            AimCommand::PreAll => write!(f, "PRE_ALL"),
            AimCommand::Refresh => write!(f, "REF"),
        }
    }
}

/// A simple step's target: `bank=b`, or `all-banks` when ganged.
struct Banks(Option<usize>);

impl fmt::Display for Banks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(b) => write!(f, "bank={b}"),
            None => f.write_str("all-banks"),
        }
    }
}

impl AimCommand {
    /// The command `i` places after `self` in a run (`self` for `i == 0`):
    /// the next GWRITE index, the next G_ACT cluster of the same row, the
    /// next COMP sub-chunk. `None` when the command does not run.
    pub(crate) fn nth_in_run(self, i: usize) -> Option<AimCommand> {
        match self {
            AimCommand::Gwrite { index } => Some(AimCommand::Gwrite {
                index: index.checked_add(i)?,
            }),
            AimCommand::GAct { cluster, row } => Some(AimCommand::GAct {
                cluster: cluster.checked_add(i)?,
                row,
            }),
            AimCommand::Comp { subchunk } => Some(AimCommand::Comp {
                subchunk: subchunk.checked_add(i)?,
            }),
            _ => (i == 0).then_some(self),
        }
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
        let rd = AimCommand::ColumnRead {
            subchunk: 2,
            bank: Some(5),
        };
        assert_eq!(rd.to_string(), "RD2 bank=5");
        let mac = AimCommand::MultiplyAdd {
            subchunk: 3,
            bank: None,
        };
        assert_eq!(mac.to_string(), "MAC3 all-banks");
    }

    #[test]
    fn runs_step_through_indices_and_stop_where_commands_do_not_run() {
        let comp = AimCommand::Comp { subchunk: 2 };
        assert_eq!(comp.nth_in_run(3), Some(AimCommand::Comp { subchunk: 5 }));
        let gact = AimCommand::GAct { cluster: 1, row: 9 };
        assert_eq!(
            gact.nth_in_run(2),
            Some(AimCommand::GAct { cluster: 3, row: 9 })
        );
        assert_eq!(AimCommand::ReadRes.nth_in_run(0), Some(AimCommand::ReadRes));
        assert_eq!(AimCommand::ReadRes.nth_in_run(1), None);
        let last = AimCommand::Gwrite { index: usize::MAX };
        assert_eq!(last.nth_in_run(1), None);
    }
}
