//! The AiM command set (Table I), re-exported from `newton-dram`, and
//! the command trace.

pub use newton_dram::command::AimCommand;

use newton_dram::audit::Audit;
use newton_dram::timing::Cycle;

/// The AiM command trace of a channel, used to render Fig. 7-style timing
/// diagrams and to assert command counts in tests.
///
/// A view, not a store: the trace reads the records the controller named
/// in the channel's one command log ([`newton_dram::audit`]) and expands
/// each train into its commands. It keeps nothing of its own, so tracing
/// an audited channel costs nothing more, and a row-set is the log's
/// eight records whatever its width.
#[derive(Debug, Clone, Copy)]
pub struct CommandTrace<'a> {
    /// The log, or `None` while tracing is off.
    log: Option<&'a Audit>,
}

impl<'a> CommandTrace<'a> {
    /// The trace of `log`; disabled (and empty) for `None`.
    pub(crate) fn new(log: Option<&'a Audit>) -> CommandTrace<'a> {
        CommandTrace { log }
    }

    /// The recorded `(cycle, command)` pairs in recording order, trains
    /// expanded.
    pub fn entries(self) -> impl Iterator<Item = (Cycle, AimCommand)> + 'a {
        self.log.into_iter().flat_map(Audit::aim_commands)
    }

    /// Renders a compact textual timeline (one line per command), the
    /// shape of the paper's Fig. 7.
    #[must_use]
    pub fn render(self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (cycle, cmd) in self.entries() {
            let _ = writeln!(out, "{cycle:>8}  {cmd}");
        }
        out
    }
}

/// Channels whose command logs hold a given list of AiM commands, for the
/// tests of the trace's readers.
#[cfg(test)]
pub(crate) mod fixture {
    use super::AimCommand;
    use newton_dram::timing::Cycle;
    use newton_dram::{Channel, DramConfig};

    /// A channel that issued `entries`, each named as given: the row-bus
    /// commands (G_ACT, ACT, PRE_ALL, REF) as bank-less precharge-alls,
    /// the rest as control commands. The cycles must be legal on each bus.
    pub(crate) fn logged(entries: &[(Cycle, AimCommand)]) -> Channel {
        let mut ch = Channel::new(DramConfig::hbm2e_like()).expect("channel");
        ch.enable_command_log();
        for &(cycle, cmd) in entries {
            let row_bus = matches!(
                cmd,
                AimCommand::GAct { .. }
                    | AimCommand::Act { .. }
                    | AimCommand::PreAll
                    | AimCommand::Refresh
            );
            ch.issue_as(cmd, |ch| {
                if row_bus {
                    ch.issue_precharge_all(cycle)
                } else {
                    ch.issue_control_command(cycle)
                }
            })
            .expect("legal fixture cycles");
        }
        ch
    }
}

#[cfg(test)]
mod tests {
    use super::fixture::logged;
    use super::*;

    #[test]
    fn a_disabled_trace_is_empty() {
        let trace = CommandTrace::new(None);
        assert!(trace.log.is_none());
        assert_eq!(trace.entries().count(), 0);
        assert_eq!(trace.render(), "");
    }

    #[test]
    fn the_trace_lists_the_named_commands_in_issue_order() {
        let entries = [
            (0, AimCommand::GAct { cluster: 0, row: 0 }),
            (4, AimCommand::Comp { subchunk: 0 }),
            (8, AimCommand::Comp { subchunk: 1 }),
            (12, AimCommand::ReadRes),
            (8, AimCommand::PreAll),
        ];
        let mut ch = logged(&entries);
        // Conventional traffic is in the log, not in the trace.
        ch.issue_precharge_all(20).expect("PREA");
        let trace = CommandTrace::new(ch.command_log());
        assert!(trace.entries().eq(entries));
        let rendered = trace.render();
        assert_eq!(rendered.lines().count(), 5);
        assert!(rendered.contains("G_ACT0"));
        assert!(rendered.contains("COMP1"));
        // The two COMPs continue one run: they share a record.
        assert_eq!(ch.command_log().map(|log| log.records()), Some(5));
    }
}
