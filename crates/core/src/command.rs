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

impl AimCommand {
    /// The command `i` places after `self` in a run (`self` for `i == 0`):
    /// the next GWRITE index, the next G_ACT cluster of the same row, the
    /// next COMP sub-chunk. `None` when the command does not run.
    fn nth_in_run(self, i: usize) -> Option<AimCommand> {
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

/// A timestamped command log, used to render Fig. 7-style timing diagrams
/// and to assert command counts in tests.
///
/// **Storage.** The log keeps runs, not commands: one record per run of
/// commands `first, next(first), ...` (see `AimCommand::nth_in_run`)
/// issued at `start, start + step, ...`. A command extends the last run
/// when it is that run's next command at the run's step (a run of one
/// takes the step of its second command), and otherwise opens a run; a
/// train is recorded as the commands it stands for would be, in O(1).
/// The records are thus a function of the recorded sequence alone, so a
/// trace of singles equals (`==`) a trace of trains of the same commands,
/// and a Newton row-set — a GWRITE train, four G_ACTs, the COMP train, a
/// READRES, a precharge-all — is about five records whatever its width.
/// Records sit in fixed-size chunks, so appending never moves what is
/// already logged. [`CommandTrace::entries`] always speaks of the
/// expanded sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommandTrace {
    /// The records; `None` while recording is off.
    chunks: Option<Vec<Vec<Run>>>,
    /// Expanded command count.
    len: usize,
}

/// Records per [`CommandTrace`] chunk.
const TRACE_CHUNK: usize = 2048;

/// One run of the trace: command `i` is `first.nth_in_run(i)` at
/// `start + i * step`. A run of one has step 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    start: Cycle,
    step: u32,
    count: u32,
    first: AimCommand,
}

impl Run {
    fn entry(&self, i: u32) -> (Cycle, AimCommand) {
        let cmd = self.first.nth_in_run(i as usize);
        (
            self.start + Cycle::from(i) * Cycle::from(self.step),
            cmd.expect("a run holds only commands that exist"),
        )
    }

    /// Extends the run by `cmd` at `cycle` if that is its next command at
    /// its step; says whether it did.
    fn extend(&mut self, cycle: Cycle, cmd: AimCommand) -> bool {
        if self.count == u32::MAX || self.first.nth_in_run(self.count as usize) != Some(cmd) {
            return false;
        }
        if self.count == 1 {
            match cycle.checked_sub(self.start).map(u32::try_from) {
                Some(Ok(step)) => self.step = step,
                _ => return false,
            }
        } else if cycle != self.start + Cycle::from(self.count) * Cycle::from(self.step) {
            return false;
        }
        self.count += 1;
        true
    }
}

impl CommandTrace {
    /// Creates a disabled (zero-cost) trace.
    #[must_use]
    pub(crate) fn new() -> CommandTrace {
        CommandTrace::default()
    }

    /// Creates an enabled trace.
    #[must_use]
    pub(crate) fn enabled() -> CommandTrace {
        CommandTrace {
            chunks: Some(Vec::new()),
            len: 0,
        }
    }

    /// Whether recording is active.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.chunks.is_some()
    }

    fn last_run(&mut self) -> Option<&mut Run> {
        self.chunks.as_mut()?.last_mut()?.last_mut()
    }

    /// Records a command at a cycle (no-op when disabled).
    pub(crate) fn record(&mut self, cycle: Cycle, cmd: AimCommand) {
        if !self.is_enabled() {
            return;
        }
        self.len += 1;
        if self.last_run().is_some_and(|run| run.extend(cycle, cmd)) {
            return;
        }
        let run = Run {
            start: cycle,
            step: 0,
            count: 1,
            first: cmd,
        };
        let chunks = self.chunks.as_mut().expect("enabled");
        match chunks.last_mut() {
            Some(chunk) if chunk.len() < TRACE_CHUNK => chunk.push(run),
            _ => {
                let mut chunk = Vec::with_capacity(TRACE_CHUNK);
                chunk.push(run);
                chunks.push(chunk);
            }
        }
    }

    /// Records the train of `count` commands `first, next(first), ...`
    /// at `start, start + step, ...` (no-op when disabled): the records
    /// `count` calls of [`CommandTrace::record`] would leave, in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `count > 1` and `first` does not run (a GWRITE, a G_ACT
    /// or a COMP does).
    pub(crate) fn record_train(
        &mut self,
        start: Cycle,
        step: Cycle,
        count: usize,
        first: AimCommand,
    ) {
        if !self.is_enabled() {
            return;
        }
        assert!(
            first.nth_in_run(count.saturating_sub(1)).is_some(),
            "a train's commands run"
        );
        let nth = |i: usize| first.nth_in_run(i).expect("checked above");
        for i in 0..count.min(2) {
            self.record(start + i as Cycle * step, nth(i));
        }
        let rest = count.saturating_sub(2);
        if rest == 0 {
            return;
        }
        // The second command either continued a run, whose step is then
        // `step`, so the rest continue it too; or opened one (a step past
        // `u32`, a full run), which the rest extend one at a time.
        let run = self.last_run().expect("just recorded");
        match u32::try_from(rest) {
            Ok(more) if run.count >= 2 && run.count.checked_add(more).is_some() => {
                run.count += more;
                self.len += rest;
            }
            _ => {
                for i in 2..count {
                    self.record(start + i as Cycle * step, nth(i));
                }
            }
        }
    }

    /// The recorded `(cycle, command)` pairs in recording order, expanded
    /// from the runs the trace stores.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = (Cycle, AimCommand)> + '_ {
        Expanded {
            inner: self
                .chunks
                .iter()
                .flatten()
                .flatten()
                .flat_map(|run| (0..run.count).map(|i| run.entry(i))),
            len: self.len,
        }
    }

    /// How many runs the trace stores.
    #[cfg(test)]
    pub(crate) fn runs(&self) -> usize {
        self.chunks.iter().flatten().map(Vec::len).sum()
    }

    /// Renders a compact textual timeline (one line per command), the
    /// shape of the paper's Fig. 7.
    #[must_use]
    pub fn render(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        for (cycle, cmd) in self.entries() {
            let _ = writeln!(out, "{cycle:>8}  {cmd}");
        }
        out
    }
}

/// An iterator that knows how many items its inner one has left.
struct Expanded<I> {
    inner: I,
    len: usize,
}

impl<I: Iterator> Iterator for Expanded<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next()?;
        self.len -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len, Some(self.len))
    }
}

impl<I: Iterator> ExactSizeIterator for Expanded<I> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        t.record_train(6, 2, 4, AimCommand::Comp { subchunk: 0 });
        assert_eq!(t.entries().len(), 0);
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_records_and_counts() {
        let mut t = CommandTrace::enabled();
        t.record(0, AimCommand::GAct { cluster: 0, row: 0 });
        t.record(4, AimCommand::Comp { subchunk: 0 });
        t.record(8, AimCommand::Comp { subchunk: 1 });
        assert_eq!(t.entries().len(), 3);
        let comps = t
            .entries()
            .filter(|(_, c)| matches!(c, AimCommand::Comp { .. }));
        assert_eq!(comps.count(), 2);
        let rendered = t.render();
        assert!(rendered.contains("G_ACT0"));
        assert!(rendered.contains("COMP1"));
    }

    /// The records one Fig. 7 row-set leaves: a GWRITE train, four G_ACTs
    /// at tFAW, the COMP train, READRES and a precharge-all recorded after
    /// it at an earlier cycle.
    #[test]
    fn a_row_set_is_five_runs() {
        let mut t = CommandTrace::enabled();
        t.record_train(0, 2, 32, AimCommand::Gwrite { index: 0 });
        for cluster in 0..4 {
            t.record(
                10 + 22 * cluster as Cycle,
                AimCommand::GAct { cluster, row: 7 },
            );
        }
        t.record_train(100, 2, 32, AimCommand::Comp { subchunk: 0 });
        t.record(170, AimCommand::ReadRes);
        t.record(164, AimCommand::PreAll);
        assert_eq!(t.runs(), 5);
        assert_eq!(t.entries().len(), 32 + 4 + 32 + 2);
        let tail: Vec<_> = t.entries().skip(32 + 4 + 30).collect();
        assert_eq!(
            tail,
            [
                (160, AimCommand::Comp { subchunk: 30 }),
                (162, AimCommand::Comp { subchunk: 31 }),
                (170, AimCommand::ReadRes),
                (164, AimCommand::PreAll),
            ]
        );
    }

    /// One step of a generated recording: `(kind, skip, dt, count, step)`.
    /// `kind` picks a GWRITE, G_ACT or COMP, as a train of `count` (which
    /// may be 0) or as a single, or a command that does not run; `skip`
    /// skips an index of its kind; `dt` moves the cycle by -2..=5, so
    /// cycles repeat and go backwards. A G_ACT's row is its cluster / 4,
    /// so clusters 3 and 4 are not one run.
    type Op = (u8, bool, i64, usize, Cycle);

    /// Records `ops` after `prefix` singles that do not run, into `plain`
    /// one command at a time and into the returned trace with `record_train`
    /// for trains (`trains`) or with every train split into singles.
    fn replay(
        prefix: usize,
        ops: &[Op],
        trains: bool,
        plain: &mut impl Extend<(Cycle, AimCommand)>,
    ) -> CommandTrace {
        let mut t = CommandTrace::enabled();
        let mut cycle: Cycle = 0;
        for _ in 0..prefix {
            cycle += 3;
            plain.extend([(cycle, AimCommand::ReadRes)]);
            t.record(cycle, AimCommand::ReadRes);
        }
        let mut next = [0usize; 3];
        for &(kind, skip, dt, count, step) in ops {
            cycle = cycle.saturating_add_signed(dt);
            let i = next[usize::from(kind % 3)] + usize::from(skip);
            let first = match kind {
                0 | 3 => AimCommand::Gwrite { index: i },
                1 | 4 => AimCommand::GAct {
                    cluster: i,
                    row: i / 4,
                },
                2 | 5 => AimCommand::Comp { subchunk: i },
                6 => AimCommand::PreAll,
                _ => AimCommand::ReadRes,
            };
            let count = if kind < 3 { count } else { 1 };
            let cmds = (0..count).map(|k| {
                let cmd = first.nth_in_run(k).expect("runs");
                (cycle + k as Cycle * step, cmd)
            });
            plain.extend(cmds.clone());
            if trains && count != 1 {
                t.record_train(cycle, step, count, first);
            } else {
                for (c, cmd) in cmds {
                    t.record(c, cmd);
                }
            }
            if kind < 6 {
                next[usize::from(kind % 3)] = i + count;
            }
            cycle += count.saturating_sub(1) as Cycle * step;
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The folded trace expands to what a plain recorder holds, and
        /// is the same value however its commands were grouped into
        /// trains; a prefix near a chunk's size puts runs on a chunk
        /// boundary.
        #[test]
        fn the_fold_expands_to_the_recorded_sequence(
            near_chunk in any::<bool>(),
            offset in 0usize..6,
            ops in prop::collection::vec(
                (0u8..8, any::<bool>(), -2i64..6, 0usize..5, 0u64..4),
                0..120,
            ),
        ) {
            let prefix = if near_chunk { TRACE_CHUNK - 3 + offset } else { offset };
            let mut plain = Vec::new();
            let trains = replay(prefix, &ops, true, &mut plain);
            let singles = replay(prefix, &ops, false, &mut Vec::new());
            prop_assert_eq!(trains.entries().len(), plain.len());
            prop_assert!(trains.entries().eq(plain.iter().copied()));
            prop_assert!(trains == singles);
        }
    }
}
