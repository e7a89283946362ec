//! A channel's command log, and the independent post-hoc timing audit
//! that reads it.
//!
//! The channel's constraint engine computes earliest-legal cycles
//! incrementally and applies whole command trains in closed form; the
//! audit re-derives every constraint from the log, one event at a time.
//! The two share no code, so agreement is strong evidence the
//! incremental engine — closed forms included — is right.
//!
//! **Storage.** One log per channel records each issued command or train
//! once, as a folded record: `start`, `step`, `count`, the bank list in
//! issue order and what each listed bank does. A single command, ganged
//! or not, is a train of one. A record the AiM controller issued also
//! names its [`AimCommand`] (a train: its first; the rest follow by
//! index); conventional traffic (ACT, PRE, RD, WR, REF) is unnamed.
//! Records sit in fixed-size chunks and bank lists and names are kept
//! once each, so a Newton row-set — a GWRITE train, four G_ACTs, the
//! COMP train, a READRES, a precharge-all — is eight records whatever
//! its width. A train whose step or count does not fit a record's 32-bit
//! fields is stored as several records. Single events
//! ([`Audit::record`]) are kept as they come.
//!
//! **Reading.** Two views read the log. The audit's lowers command `i`
//! of a record to an [`AuditEvent::Slot`] at `start + i * step` and one
//! event per listed bank (a [`AuditEvent::ColRd`], [`AuditEvent::ColWr`],
//! [`AuditEvent::Act`] or [`AuditEvent::Pre`]; after a refresh's slot, an
//! [`AuditEvent::Ref`]). [`Audit::events`] lists that expanded
//! sequence, so a log written folded is indistinguishable
//! from one written event by event. The AiM view,
//! [`Audit::aim_commands`], lists the named records' commands in
//! recording order; the command trace of `newton-core` is that view.
//!
//! **Checking.** Validation visits the expanded events in cycle order —
//! ties broken by recording order, except that a refresh precedes
//! whatever shares its cycle, because a refresh blocks an activation at
//! its own cycle whichever was recorded first — through a lazy merge of
//! the records: an index of the records sorted by first cycle plus a heap
//! of the trains currently open, so row-bus singles that fall inside a
//! column-bus train, and a GWRITE train that overlaps the activation
//! chain, come out where a stable sort of the expanded log would put
//! them. Every event feeds one checker (last slot per bus, the last four
//! activations, per-bank `last_act / last_col / last_rd / last_wr /
//! last_pre / open`, the refreshes still inside tRFC, the tREFI
//! deadline). All the audit takes on trust from a train is the
//! arithmetic `start + i * step`; every expanded event is still checked
//! singly against its neighbours, so a wrong closed form in the channel
//! surfaces as a tRTP / tRAS / tCCD / tCMD violation between a train's
//! events and what came before or after.
//!
//! **Two entry points, one checker.** [`Audit::validate`] is the full
//! pass from a fresh checker. [`Audit::validate_new`] carries the
//! checker between calls and feeds it only the records added since the
//! last one, so a long audited run checks every event once; it verifies
//! rather than assumes that the cut is clean — a new event ordered before
//! one already checked discards the carried state and re-runs the full
//! pass — so a verdict never depends on where the cuts fell.

use crate::command::AimCommand;
use crate::timing::{Cycle, Timing};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// One primitive device event, as recorded at issue time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditEvent {
    /// Row activation on `bank`.
    Act {
        /// Bank index.
        bank: usize,
        /// Row opened.
        row: usize,
        /// Issue cycle.
        cycle: Cycle,
    },
    /// Precharge on `bank`.
    Pre {
        /// Bank index.
        bank: usize,
        /// Issue cycle.
        cycle: Cycle,
    },
    /// Column read on `bank` (`external` = data crossed the PHY).
    ColRd {
        /// Bank index.
        bank: usize,
        /// Issue cycle.
        cycle: Cycle,
        /// Whether the data used the external bus.
        external: bool,
    },
    /// Column write on `bank`.
    ColWr {
        /// Bank index.
        bank: usize,
        /// Issue cycle.
        cycle: Cycle,
    },
    /// All-bank refresh.
    Ref {
        /// Issue cycle.
        cycle: Cycle,
    },
    /// A command-bus slot was consumed (one per command, ganged or not).
    Slot {
        /// Issue cycle.
        cycle: Cycle,
        /// Which command bus carried the command.
        bus: BusKind,
    },
}

/// Which of the two HBM command buses a command used (HBM splits row
/// commands — ACT/PRE/REF — from column commands — RD/WR and the AiM
/// column-class commands).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusKind {
    /// The row-command bus (ACT, PRE, REF).
    Row,
    /// The column-command bus (RD, WR, COMP, GWRITE, READRES).
    Column,
}

impl AuditEvent {
    /// Where the event sorts in the audit's reading order, up to
    /// recording order: by cycle, a refresh first within its cycle.
    fn position(&self) -> (Cycle, bool) {
        (self.cycle(), !matches!(self, AuditEvent::Ref { .. }))
    }

    fn cycle(&self) -> Cycle {
        match *self {
            AuditEvent::Act { cycle, .. }
            | AuditEvent::Pre { cycle, .. }
            | AuditEvent::ColRd { cycle, .. }
            | AuditEvent::ColWr { cycle, .. }
            | AuditEvent::Ref { cycle }
            | AuditEvent::Slot { cycle, .. } => cycle,
        }
    }
}

/// A violation found by the audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Name of the violated constraint.
    pub constraint: &'static str,
    /// Description with the cycles involved.
    pub detail: String,
}

/// One entry of the log, as recorded.
#[derive(Debug, Clone, Copy)]
enum Record {
    Event(AuditEvent),
    Command(Command),
}

/// A folded record: `count` commands, command `i` at `start + i * step`,
/// each one bus slot followed by one `op` event on every bank of list
/// `banks` (an index into [`Audit::bank_lists`]), named by
/// [`Audit::names`]`[name]` or [`UNNAMED`].
#[derive(Debug, Clone, Copy)]
struct Command {
    start: Cycle,
    step: u32,
    count: u32,
    banks: u32,
    name: u32,
    op: BankOp,
}

/// The `name` of a record that carries no [`AimCommand`].
const UNNAMED: u32 = u32::MAX;

/// What every listed bank does under each slot of a [`Command`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BankOp {
    /// A column read, `external` over the PHY; column bus (COMP, RD; a
    /// GWRITE, READRES or control command lists no banks).
    Read { external: bool },
    /// A column write; column bus (WR).
    Write,
    /// An activation of `row`; row bus (ACT, G_ACT).
    Activate { row: u32 },
    /// A precharge; row bus (PRE, precharge-all).
    Precharge,
    /// An all-bank refresh after the slot; row bus, no banks listed.
    Refresh,
}

impl Command {
    fn cycle(&self, command: usize) -> Cycle {
        self.start + command as Cycle * Cycle::from(self.step)
    }
}

impl Record {
    /// Where the record's first event sorts, up to recording order.
    fn first(&self) -> (Cycle, bool) {
        match self {
            Record::Event(e) => e.position(),
            Record::Command(c) => (c.start, c.op != BankOp::Refresh),
        }
    }
}

/// The record store: fixed-size chunks, so appending never moves what is
/// already logged. (A `Vec` that doubles copies the whole log each time
/// it grows; on a long watched run those copies, not the log, are most
/// of the fresh memory the log touches.)
#[derive(Debug, Default)]
struct Log {
    chunks: Vec<Vec<Record>>,
    len: usize,
}

/// Records per [`Log`] chunk.
const LOG_CHUNK: usize = 2048;

impl Log {
    fn push(&mut self, record: Record) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < LOG_CHUNK => chunk.push(record),
            _ => {
                let mut chunk = Vec::with_capacity(LOG_CHUNK);
                chunk.push(record);
                self.chunks.push(chunk);
            }
        }
        self.len += 1;
    }

    fn get(&self, index: usize) -> Record {
        self.chunks[index / LOG_CHUNK][index % LOG_CHUNK]
    }

    fn get_mut(&mut self, index: usize) -> &mut Record {
        &mut self.chunks[index / LOG_CHUNK][index % LOG_CHUNK]
    }

    /// Drops the last record.
    fn pop(&mut self) {
        if let Some(chunk) = self.chunks.last_mut() {
            chunk.pop();
            self.len -= 1;
        }
    }

    /// The records from `index` on, in recording order.
    fn iter_from(&self, index: usize) -> impl Iterator<Item = &Record> {
        self.chunks[(index / LOG_CHUNK).min(self.chunks.len())..]
            .iter()
            .flatten()
            .skip(index % LOG_CHUNK)
    }
}

/// Where an expanded event sorts in the merged order: by cycle, a
/// refresh before anything else at its cycle, then in recording order
/// (record index, command index within a train — the events of one
/// command share a cycle and stay together).
type Key = (Cycle, bool, usize, usize);

/// A channel's command log, and the timing audit over it: collects
/// commands and events and re-validates them against the raw constraint
/// definitions.
#[derive(Debug, Default)]
pub struct Audit {
    records: Log,
    /// The bank lists of the folded records: the banks back to back, and
    /// where each distinct list starts and how long it is.
    bank_pool: Vec<usize>,
    bank_lists: Vec<(usize, usize)>,
    /// The distinct AiM commands records are named by, and where each is.
    names: Vec<AimCommand>,
    name_index: HashMap<AimCommand, u32>,
    /// The incremental check's state: the checker as the first `checked`
    /// records left it.
    carried: Checker,
    checked: usize,
}

impl Audit {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Audit {
        Audit::default()
    }

    /// Records one event.
    pub fn record(&mut self, event: AuditEvent) {
        self.records.push(Record::Event(event));
    }

    /// Records a train of `count` column-bus commands, command `i` at
    /// `start + i * step`, each reading one column internally on every
    /// bank of `banks` (in that order; empty for a bank-less command such
    /// as GWRITE) — the same log as recording, per command, a column-bus
    /// [`AuditEvent::Slot`] and then one internal [`AuditEvent::ColRd`]
    /// per bank.
    pub fn record_train(&mut self, start: Cycle, step: Cycle, count: usize, banks: &[usize]) {
        let op = BankOp::Read { external: false };
        self.fold(start, step, count, op, banks.iter().copied());
    }

    /// Records a ganged activation: one row-bus slot at `cycle` and an
    /// ACT per `(bank, row)` pair under it — the same log as recording
    /// the [`AuditEvent::Slot`] and then each [`AuditEvent::Act`].
    pub fn record_ganged_activate(&mut self, cycle: Cycle, pairs: &[(usize, usize)]) {
        let row = pairs.first().map_or(0, |p| p.1);
        match u32::try_from(row) {
            // One record when the gang opens one row, as a G_ACT does.
            Ok(row) if pairs.iter().all(|p| p.1 == row as usize) => {
                let op = BankOp::Activate { row };
                self.fold(cycle, 0, 1, op, pairs.iter().map(|p| p.0));
            }
            _ => {
                self.record(AuditEvent::Slot {
                    cycle,
                    bus: BusKind::Row,
                });
                for &(bank, row) in pairs {
                    self.record(AuditEvent::Act { bank, row, cycle });
                }
            }
        }
    }

    /// Records a precharge-all: one row-bus slot at `cycle` and a PRE on
    /// every bank of `banks` under it — the same log as recording the
    /// [`AuditEvent::Slot`] and then each [`AuditEvent::Pre`].
    pub fn record_precharge_all(&mut self, cycle: Cycle, banks: impl IntoIterator<Item = usize>) {
        self.fold(cycle, 0, 1, BankOp::Precharge, banks);
    }

    /// Records `count` commands, command `i` at `start + i * step`: its
    /// slot, then `op` on each bank of `banks`.
    pub(crate) fn fold(
        &mut self,
        start: Cycle,
        step: Cycle,
        count: usize,
        op: BankOp,
        banks: impl IntoIterator<Item = usize>,
    ) {
        if count == 0 {
            return;
        }
        // A run names the same few bank lists over and over (the gang of
        // a COMP stream and of the precharge-all after it, the four G_ACT
        // clusters): look among the latest before keeping another copy.
        const LATEST: usize = 8;
        let at = self.bank_pool.len();
        self.bank_pool.extend(banks);
        let listed = self.bank_pool.len() - at;
        let known = self
            .bank_lists
            .iter()
            .rev()
            .take(LATEST)
            .position(|&(a, n)| self.bank_pool[a..a + n] == self.bank_pool[at..]);
        let list = match known {
            Some(back) => {
                self.bank_pool.truncate(at);
                self.bank_lists.len() - 1 - back
            }
            None => {
                self.bank_lists.push((at, listed));
                self.bank_lists.len() - 1
            }
        };
        let banks = u32::try_from(list).expect("invariant: a log holds fewer than 2^32 bank lists");
        // A step past 32 bits stores the train command by command, a
        // count past 32 bits in pieces.
        let (step32, piece) = u32::try_from(step).map_or((0, 1), |s| (s, u32::MAX as usize));
        for done in (0..count).step_by(piece) {
            self.records.push(Record::Command(Command {
                start: start + done as Cycle * step,
                step: step32,
                count: (count - done).min(piece) as u32,
                banks,
                name: UNNAMED,
                op,
            }));
        }
    }

    /// Number of records the log holds: one a train or single command,
    /// several for a train too wide for one.
    #[must_use]
    pub fn records(&self) -> usize {
        self.records.len
    }

    /// Names the commands recorded since the log held `from` records as
    /// the run of AiM commands `first, next(first), ...` (past the run's
    /// end, `first`); single events stay unnamed. One named command that
    /// continues the record before it, unread by the incremental check,
    /// folds into it: the oracle's one-at-a-time GWRITEs and COMPs log as
    /// the trains production issues.
    pub(crate) fn name_since(&mut self, from: usize, first: AimCommand) {
        let mut done = 0;
        for r in from..self.records.len {
            if let Record::Command(c) = self.records.get(r) {
                let cmd = first.nth_in_run(done).unwrap_or(first);
                let next = u32::try_from(self.names.len())
                    .expect("invariant: a log names fewer than 2^32 commands");
                let name = *self.name_index.entry(cmd).or_insert_with(|| {
                    self.names.push(cmd);
                    next
                });
                if let Record::Command(c) = self.records.get_mut(r) {
                    c.name = name;
                }
                done += c.count as usize;
            }
        }
        if self.records.len == from + 1
            && from > self.checked
            && self.extend(from - 1, self.records.get(from))
        {
            self.records.pop();
        }
    }

    /// Folds `record`, one named command, into record `prev` if it is
    /// that record's next command at its step (a record of one takes the
    /// step of its second command); says whether it did.
    fn extend(&mut self, prev: usize, record: Record) -> bool {
        let (Record::Command(p), Record::Command(c)) = (self.records.get(prev), record) else {
            return false;
        };
        let step = match p.count {
            1 => c
                .start
                .checked_sub(p.start)
                .and_then(|s| u32::try_from(s).ok()),
            _ => (c.start == p.cycle(p.count as usize)).then_some(p.step),
        };
        let continues = c.count == 1
            && p.count < u32::MAX
            && (p.op, p.banks) == (c.op, c.banks)
            && p.name != UNNAMED
            && self.names[p.name as usize].nth_in_run(p.count as usize)
                == Some(self.names[c.name as usize]);
        match (step, self.records.get_mut(prev)) {
            (Some(step), Record::Command(p)) if continues => {
                p.step = step;
                p.count += 1;
                true
            }
            _ => false,
        }
    }

    /// Recorded events in issue order, trains expanded.
    pub fn events(&self) -> impl Iterator<Item = AuditEvent> + '_ {
        self.records.iter_from(0).flat_map(move |record| {
            let (single, command) = match *record {
                Record::Event(e) => (Some(e), None),
                Record::Command(c) => (None, Some(c)),
            };
            let expanded = command.into_iter().flat_map(move |c| {
                (0..c.count as usize).flat_map(move |i| self.command_events(c, i))
            });
            single.into_iter().chain(expanded)
        })
    }

    /// The AiM commands of the log in recording order, each named record
    /// expanded into its `(cycle, command)` pairs.
    pub fn aim_commands(&self) -> impl Iterator<Item = (Cycle, AimCommand)> + '_ {
        self.records.iter_from(0).flat_map(move |record| {
            let named = match *record {
                Record::Command(c) if c.name != UNNAMED => Some(c),
                _ => None,
            };
            named.into_iter().flat_map(move |c| {
                let first = self.names[c.name as usize];
                (0..c.count as usize)
                    .map(move |i| (c.cycle(i), first.nth_in_run(i).unwrap_or(first)))
            })
        })
    }

    /// The one place a folded record is expanded: the events of its
    /// command `command`, a slot, one event per listed bank and, for a
    /// refresh, the refresh.
    fn command_events(
        &self,
        record: Command,
        command: usize,
    ) -> impl Iterator<Item = AuditEvent> + '_ {
        let cycle = record.cycle(command);
        let (at, listed) = self.bank_lists[record.banks as usize];
        let bus = match record.op {
            BankOp::Read { .. } | BankOp::Write => BusKind::Column,
            BankOp::Activate { .. } | BankOp::Precharge | BankOp::Refresh => BusKind::Row,
        };
        let slot = AuditEvent::Slot { cycle, bus };
        let per_bank = self.bank_pool[at..at + listed]
            .iter()
            .filter_map(move |&bank| match record.op {
                BankOp::Read { external } => Some(AuditEvent::ColRd {
                    bank,
                    cycle,
                    external,
                }),
                BankOp::Write => Some(AuditEvent::ColWr { bank, cycle }),
                BankOp::Activate { row } => Some(AuditEvent::Act {
                    bank,
                    row: row as usize,
                    cycle,
                }),
                BankOp::Precharge => Some(AuditEvent::Pre { bank, cycle }),
                BankOp::Refresh => None,
            });
        let refresh = (record.op == BankOp::Refresh).then_some(AuditEvent::Ref { cycle });
        std::iter::once(slot).chain(per_bank).chain(refresh)
    }

    /// Expanded events the incremental check has visited over the log's
    /// life. Equal to the number of [`Audit::events`] after a
    /// [`Audit::validate_new`] as long as every cut so far was clean;
    /// larger once a fallback re-ran the full pass.
    #[must_use]
    pub fn events_visited(&self) -> u64 {
        self.carried.fed
    }

    /// Re-validates every recorded event from a fresh checker. Returns
    /// all violations found (empty = clean), grouped by constraint: tCMD
    /// on the row bus, tCMD on the column bus, tFAW, tRRD, the per-bank
    /// constraints in bank order, tRFC, tREFI.
    #[must_use]
    pub fn validate(&self, t: &Timing) -> Vec<AuditViolation> {
        let mut checker = Checker::default();
        self.feed_in_cycle_order(0, t, &mut checker);
        checker.take_found()
    }

    /// Checks the records added since the last call (all of them on the
    /// first) against the state the earlier ones left behind, and returns
    /// the violations they add, grouped as [`Audit::validate`] groups
    /// them. Every event is visited once — unless a new event sorts
    /// before one already checked (the cut was not clean in cycle
    /// order): then the carried state is discarded and the call re-runs
    /// the full pass and returns its whole verdict.
    pub fn validate_new(&mut self, t: &Timing) -> Vec<AuditViolation> {
        let mut checker = std::mem::take(&mut self.carried);
        let earliest = self
            .records
            .iter_from(self.checked)
            .map(Record::first)
            .min();
        if matches!((earliest, checker.last), (Some(new), Some(checked)) if new < checked) {
            checker = Checker {
                fed: checker.fed,
                ..Checker::default()
            };
            self.checked = 0;
        }
        self.feed_in_cycle_order(self.checked, t, &mut checker);
        self.checked = self.records.len;
        let found = checker.take_found();
        self.carried = checker;
        found
    }

    /// Feeds `checker` the expanded events of `records[from..]` in merged
    /// order, without materialising them: the records are visited by
    /// first cycle, and a train stays open on a heap until the records
    /// that start inside it have been interleaved.
    fn feed_in_cycle_order(&self, from: usize, t: &Timing, checker: &mut Checker) {
        let mut order: Vec<usize> = (from..self.records.len).collect();
        order.sort_by_key(|&r| self.records.get(r).first());
        let mut open: BinaryHeap<Reverse<Key>> = BinaryHeap::new();
        for r in order {
            let (cycle, not_refresh) = self.records.get(r).first();
            self.drain_open(&mut open, Some((cycle, not_refresh, r, 0)), t, checker);
            match self.records.get(r) {
                Record::Event(e) => checker.feed(e, t),
                // Its first command is next in line; the rest wait their
                // turn on the heap.
                Record::Command(command) => {
                    for event in self.command_events(command, 0) {
                        checker.feed(event, t);
                    }
                    if command.count > 1 {
                        open.push(Reverse((command.cycle(1), true, r, 1)));
                    }
                }
            }
        }
        self.drain_open(&mut open, None, t, checker);
    }

    /// Feeds `checker` the commands of the open trains that sort before
    /// `until` (all of them when `None`).
    fn drain_open(
        &self,
        open: &mut BinaryHeap<Reverse<Key>>,
        until: Option<Key>,
        t: &Timing,
        checker: &mut Checker,
    ) {
        while let Some(&Reverse(next)) = open.peek() {
            if until.is_some_and(|u| next >= u) {
                return;
            }
            open.pop();
            // This train runs until another open one, or `until`, is due.
            let bound = open
                .peek()
                .map(|other| other.0)
                .into_iter()
                .chain(until)
                .min();
            let (_, _, r, first) = next;
            let Record::Command(command) = self.records.get(r) else {
                unreachable!("only trains are held open");
            };
            for i in first..command.count as usize {
                let key = (command.cycle(i), true, r, i);
                if i > first && bound.is_some_and(|b| key >= b) {
                    open.push(Reverse(key));
                    break;
                }
                for event in self.command_events(command, i) {
                    checker.feed(event, t);
                }
            }
        }
    }
}

/// What the checker remembers of one bank, and what it found there.
#[derive(Debug, Default)]
struct BankTrack {
    last_act: Option<Cycle>,
    last_col: Option<Cycle>,
    last_rd: Option<Cycle>,
    last_wr: Option<Cycle>,
    last_pre: Option<Cycle>,
    open: bool,
    found: Vec<AuditViolation>,
}

/// The audit's one checker: a state machine fed expanded events in
/// merged order. Violations collect per constraint group so that
/// [`Checker::take_found`] reports them in the documented order however
/// the events interleaved.
#[derive(Debug, Default)]
struct Checker {
    /// Last command slot per bus (`BusKind as usize`) and the tCMD
    /// violations found on it.
    last_slot: [Option<Cycle>; 2],
    slot_found: [Vec<AuditViolation>; 2],
    /// The last four activations, oldest first.
    recent_acts: VecDeque<Cycle>,
    faw_found: Vec<AuditViolation>,
    rrd_found: Vec<AuditViolation>,
    banks: Vec<BankTrack>,
    /// Refreshes an activation could still fall inside (ordinal, cycle),
    /// and the tRFC violations by the ordinal of the refresh violated.
    live_refs: VecDeque<(usize, Cycle)>,
    refs_seen: usize,
    rfc_found: Vec<(usize, AuditViolation)>,
    /// The refresh deadline once a refresh has been seen (tREFI before).
    deadline: Option<Cycle>,
    refi_found: Vec<AuditViolation>,
    /// Position of the last event fed, up to recording order.
    last: Option<(Cycle, bool)>,
    /// Events fed over the checker's life.
    fed: u64,
}

impl Checker {
    fn feed(&mut self, event: AuditEvent, t: &Timing) {
        self.last = Some(event.position());
        self.fed += 1;
        match event {
            AuditEvent::Slot { cycle, bus } => {
                let kind = bus as usize;
                if let Some(prev) = self.last_slot[kind] {
                    if cycle < prev + t.t_cmd {
                        self.slot_found[kind].push(AuditViolation {
                            constraint: "tCMD",
                            detail: format!(
                                "{bus:?}-bus command slots at {prev} and {cycle} closer than tCMD={}",
                                t.t_cmd
                            ),
                        });
                    }
                }
                self.last_slot[kind] = Some(cycle);
            }
            AuditEvent::Act { bank, cycle, .. } => {
                self.check_activation_spacing(cycle, t);
                self.check_refresh(cycle, t);
                self.bank(bank).activate(bank, cycle, t);
            }
            AuditEvent::Pre { bank, cycle } => self.bank(bank).precharge(bank, cycle, t),
            AuditEvent::ColRd { bank, cycle, .. } => {
                let track = self.bank(bank);
                track.column(bank, cycle, t);
                track.last_rd = Some(cycle);
            }
            AuditEvent::ColWr { bank, cycle } => {
                let track = self.bank(bank);
                track.column(bank, cycle, t);
                track.last_wr = Some(cycle);
            }
            AuditEvent::Ref { cycle } => {
                if t.t_refi != 0 {
                    self.live_refs.push_back((self.refs_seen, cycle));
                    self.refs_seen += 1;
                    // Pull-in semantics: the next deadline is one tREFI
                    // after this refresh; a late refresh itself is legal.
                    self.deadline = Some(cycle + t.t_refi);
                }
            }
        }
    }

    fn bank(&mut self, bank: usize) -> &mut BankTrack {
        if bank >= self.banks.len() {
            self.banks.resize_with(bank + 1, BankTrack::default);
        }
        &mut self.banks[bank]
    }

    /// tFAW and tRRD, rank-wide.
    fn check_activation_spacing(&mut self, cycle: Cycle, t: &Timing) {
        // tFAW: any 5 consecutive activations must span at least tFAW.
        if self.recent_acts.len() == 4 {
            let first = self.recent_acts[0];
            if cycle < first + t.t_faw {
                self.faw_found.push(AuditViolation {
                    constraint: "tFAW",
                    detail: format!(
                        "5th activation at {cycle} within tFAW={} of activation at {first}",
                        t.t_faw
                    ),
                });
            }
            self.recent_acts.pop_front();
        }
        // tRRD between activations at *different* cycles (ganged
        // activations share a cycle by design).
        if let Some(&prev) = self.recent_acts.back() {
            if cycle != prev && cycle < prev + t.t_rrd {
                self.rrd_found.push(AuditViolation {
                    constraint: "tRRD",
                    detail: format!(
                        "activations at {prev} and {cycle} closer than tRRD={}",
                        t.t_rrd
                    ),
                });
            }
        }
        self.recent_acts.push_back(cycle);
    }

    /// tRFC and the tREFI deadline for an activation at `cycle`.
    fn check_refresh(&mut self, cycle: Cycle, t: &Timing) {
        if t.t_refi == 0 {
            return;
        }
        // During tRFC after a refresh, no activation may occur. Refreshes
        // expire in the order they arrived (one tRFC for all).
        while self
            .live_refs
            .front()
            .is_some_and(|&(_, r)| cycle >= r + t.t_rfc)
        {
            self.live_refs.pop_front();
        }
        for &(ordinal, r) in &self.live_refs {
            self.rfc_found.push((
                ordinal,
                AuditViolation {
                    constraint: "tRFC",
                    detail: format!(
                        "activation at {cycle} during refresh [{r}, {})",
                        r + t.t_rfc
                    ),
                },
            ));
        }
        // tREFI deadline: mirroring the channel's rule, an activation may
        // not be issued after the current refresh deadline has passed.
        let deadline = self.deadline.unwrap_or(t.t_refi);
        if cycle > deadline {
            self.refi_found.push(AuditViolation {
                constraint: "tREFI",
                detail: format!("activation at {cycle} after refresh deadline {deadline}"),
            });
        }
    }

    /// Everything found since the last call, in the documented order.
    fn take_found(&mut self) -> Vec<AuditViolation> {
        let mut out = Vec::new();
        for found in &mut self.slot_found {
            out.append(found);
        }
        out.append(&mut self.faw_found);
        out.append(&mut self.rrd_found);
        for track in &mut self.banks {
            out.append(&mut track.found);
        }
        // Activations arrive in cycle order; the report lists tRFC
        // violations refresh by refresh.
        self.rfc_found.sort_by_key(|&(ordinal, _)| ordinal);
        out.extend(self.rfc_found.drain(..).map(|(_, v)| v));
        out.append(&mut self.refi_found);
        out
    }
}

impl BankTrack {
    fn activate(&mut self, bank: usize, cycle: Cycle, t: &Timing) {
        if self.open {
            self.found.push(AuditViolation {
                constraint: "ACT-on-open",
                detail: format!("bank {bank}: activate at {cycle} while a row is open"),
            });
        }
        if let Some(p) = self.last_pre {
            if cycle < p + t.t_rp {
                self.found.push(AuditViolation {
                    constraint: "tRP",
                    detail: format!("bank {bank}: ACT at {cycle} < PRE {p} + tRP {}", t.t_rp),
                });
            }
        }
        if let Some(a) = self.last_act {
            if cycle < a + t.t_rc() {
                self.found.push(AuditViolation {
                    constraint: "tRC",
                    detail: format!("bank {bank}: ACT at {cycle} < ACT {a} + tRC {}", t.t_rc()),
                });
            }
        }
        self.last_act = Some(cycle);
        self.open = true;
    }

    fn precharge(&mut self, bank: usize, cycle: Cycle, t: &Timing) {
        if !self.open {
            self.found.push(AuditViolation {
                constraint: "PRE-on-idle",
                detail: format!("bank {bank}: precharge at {cycle} with no open row"),
            });
        }
        if let Some(a) = self.last_act {
            if cycle < a + t.t_ras {
                self.found.push(AuditViolation {
                    constraint: "tRAS",
                    detail: format!("bank {bank}: PRE at {cycle} < ACT {a} + tRAS {}", t.t_ras),
                });
            }
        }
        if let Some(r) = self.last_rd {
            if cycle < r + t.t_rtp {
                self.found.push(AuditViolation {
                    constraint: "tRTP",
                    detail: format!("bank {bank}: PRE at {cycle} < RD {r} + tRTP {}", t.t_rtp),
                });
            }
        }
        if let Some(w) = self.last_wr {
            if cycle < w + t.t_aa + t.t_wr {
                self.found.push(AuditViolation {
                    constraint: "tWR",
                    detail: format!(
                        "bank {bank}: PRE at {cycle} < WR {w} + tAA+tWR {}",
                        t.t_aa + t.t_wr
                    ),
                });
            }
        }
        self.last_pre = Some(cycle);
        self.open = false;
        self.last_col = None;
        self.last_rd = None;
        self.last_wr = None;
    }

    /// The checks common to column reads and writes.
    fn column(&mut self, bank: usize, cycle: Cycle, t: &Timing) {
        if !self.open {
            self.found.push(AuditViolation {
                constraint: "COL-on-idle",
                detail: format!("bank {bank}: column access at {cycle} with no open row"),
            });
        }
        if let Some(a) = self.last_act {
            if cycle < a + t.t_rcd {
                self.found.push(AuditViolation {
                    constraint: "tRCD",
                    detail: format!(
                        "bank {bank}: column at {cycle} < ACT {a} + tRCD {}",
                        t.t_rcd
                    ),
                });
            }
        }
        if let Some(c) = self.last_col {
            if cycle < c + t.t_ccd {
                self.found.push(AuditViolation {
                    constraint: "tCCD",
                    detail: format!(
                        "bank {bank}: column at {cycle} < column {c} + tCCD {}",
                        t.t_ccd
                    ),
                });
            }
        }
        self.last_col = Some(cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingParams;

    fn timing() -> Timing {
        TimingParams::hbm2e_like().to_cycles().unwrap()
    }

    #[test]
    fn clean_sequence_passes() {
        let t = timing();
        let mut audit = Audit::new();
        audit.record(AuditEvent::Slot {
            cycle: 0,
            bus: BusKind::Row,
        });
        audit.record(AuditEvent::Act {
            bank: 0,
            row: 0,
            cycle: 0,
        });
        audit.record(AuditEvent::Slot {
            cycle: t.t_rcd,
            bus: BusKind::Column,
        });
        audit.record(AuditEvent::ColRd {
            bank: 0,
            cycle: t.t_rcd,
            external: true,
        });
        audit.record(AuditEvent::Slot {
            cycle: t.t_ras,
            bus: BusKind::Row,
        });
        audit.record(AuditEvent::Pre {
            bank: 0,
            cycle: t.t_ras,
        });
        assert_eq!(audit.validate(&t), vec![]);
        assert_eq!(audit.events().count(), 6);
    }

    #[test]
    fn trcd_violation_detected() {
        let t = timing();
        let mut audit = Audit::new();
        audit.record(AuditEvent::Act {
            bank: 0,
            row: 0,
            cycle: 0,
        });
        audit.record(AuditEvent::ColRd {
            bank: 0,
            cycle: t.t_rcd - 1,
            external: false,
        });
        let v = audit.validate(&t);
        assert!(v.iter().any(|x| x.constraint == "tRCD"), "{v:?}");
    }

    #[test]
    fn faw_violation_detected() {
        let t = timing();
        let mut audit = Audit::new();
        for i in 0..5 {
            audit.record(AuditEvent::Act {
                bank: i,
                row: 0,
                cycle: (i as Cycle) * t.t_rrd,
            });
        }
        let v = audit.validate(&t);
        assert!(v.iter().any(|x| x.constraint == "tFAW"), "{v:?}");
    }

    #[test]
    fn ganged_acts_at_same_cycle_do_not_trip_trrd() {
        let t = timing();
        let mut audit = Audit::new();
        for bank in 0..4 {
            audit.record(AuditEvent::Act {
                bank,
                row: 0,
                cycle: 100,
            });
        }
        let v = audit.validate(&t);
        assert!(v.iter().all(|x| x.constraint != "tRRD"), "{v:?}");
    }

    #[test]
    fn command_slot_crowding_detected() {
        let t = timing();
        let mut audit = Audit::new();
        audit.record(AuditEvent::Slot {
            cycle: 0,
            bus: BusKind::Column,
        });
        audit.record(AuditEvent::Slot {
            cycle: 1,
            bus: BusKind::Column,
        });
        let v = audit.validate(&t);
        assert!(v.iter().any(|x| x.constraint == "tCMD"), "{v:?}");
        // Different buses never contend for slots.
        let mut audit = Audit::new();
        audit.record(AuditEvent::Slot {
            cycle: 0,
            bus: BusKind::Row,
        });
        audit.record(AuditEvent::Slot {
            cycle: 1,
            bus: BusKind::Column,
        });
        assert!(audit.validate(&t).is_empty());
    }

    #[test]
    fn activation_during_refresh_detected() {
        let t = timing();
        let mut audit = Audit::new();
        audit.record(AuditEvent::Ref { cycle: 1000 });
        audit.record(AuditEvent::Act {
            bank: 0,
            row: 0,
            cycle: 1000 + t.t_rfc - 1,
        });
        let v = audit.validate(&t);
        assert!(v.iter().any(|x| x.constraint == "tRFC"), "{v:?}");
    }

    #[test]
    fn column_on_idle_bank_detected() {
        let t = timing();
        let mut audit = Audit::new();
        audit.record(AuditEvent::ColRd {
            bank: 0,
            cycle: 50,
            external: true,
        });
        let v = audit.validate(&t);
        assert!(v.iter().any(|x| x.constraint == "COL-on-idle"), "{v:?}");
    }

    /// The same log written event by event and with its trains folded:
    /// a row-bus activation chain that falls inside a bank-less GWRITE
    /// train, then a COMP train with a row-bus single (another bank's
    /// ACT) in the middle of it.
    fn log_with_trains(t: &Timing, folded: bool) -> Audit {
        let step = t.t_ccd.max(t.t_cmd);
        let mut audit = Audit::new();
        let train = |audit: &mut Audit, start: Cycle, count: usize, banks: &[usize]| {
            if folded {
                audit.record_train(start, step, count, banks);
                return;
            }
            for i in 0..count as Cycle {
                let cycle = start + i * step;
                audit.record(AuditEvent::Slot {
                    cycle,
                    bus: BusKind::Column,
                });
                for &bank in banks {
                    audit.record(AuditEvent::ColRd {
                        bank,
                        cycle,
                        external: false,
                    });
                }
            }
        };
        train(&mut audit, 0, 8, &[]);
        audit.record(AuditEvent::Slot {
            cycle: 2,
            bus: BusKind::Row,
        });
        for bank in [0, 1] {
            audit.record(AuditEvent::Act {
                bank,
                row: 5,
                cycle: 2,
            });
        }
        let comp = (8 * step).max(2 + t.t_rcd);
        train(&mut audit, comp, 6, &[0, 1]);
        audit.record(AuditEvent::Slot {
            cycle: comp + step + 1,
            bus: BusKind::Row,
        });
        audit.record(AuditEvent::Act {
            bank: 2,
            row: 5,
            cycle: comp + step + 1,
        });
        audit
    }

    #[test]
    fn a_folded_train_reads_as_its_expansion() {
        let t = timing();
        let singly = log_with_trains(&t, false);
        let folded = log_with_trains(&t, true);
        assert_eq!(folded.events().count(), 8 + 3 + 6 * 3 + 2);
        assert!(folded.events().eq(singly.events()));
        assert_eq!(folded.validate(&t), vec![]);
        assert_eq!(singly.validate(&t), vec![]);
        // Squeeze the COMP train's step below tCCD on both: every event
        // is still checked singly, so the two verdicts stay equal.
        let squeeze = |folded: bool| {
            let mut audit = log_with_trains(&t, folded);
            let start = audit.events().map(|e| e.cycle()).max().unwrap() + 100;
            for bank in [3, 4] {
                audit.record(AuditEvent::Act {
                    bank,
                    row: 0,
                    cycle: start,
                });
            }
            let first = start + t.t_rcd;
            if folded {
                audit.record_train(first, t.t_ccd - 1, 3, &[3, 4]);
            } else {
                for i in 0..3 {
                    let cycle = first + i * (t.t_ccd - 1);
                    audit.record(AuditEvent::Slot {
                        cycle,
                        bus: BusKind::Column,
                    });
                    for bank in [3, 4] {
                        audit.record(AuditEvent::ColRd {
                            bank,
                            cycle,
                            external: false,
                        });
                    }
                }
            }
            audit.validate(&t)
        };
        let found = squeeze(true);
        assert_eq!(found, squeeze(false));
        assert_eq!(
            found.iter().filter(|v| v.constraint == "tCCD").count(),
            4,
            "{found:?}"
        );
    }

    #[test]
    fn every_event_is_checked_once_and_a_dirty_cut_falls_back_to_the_full_pass() {
        let t = timing();
        let mut audit = log_with_trains(&t, true);
        assert_eq!(audit.validate_new(&t), vec![]);
        assert_eq!(audit.events_visited(), audit.events().count() as u64);
        assert_eq!(audit.validate_new(&t), vec![], "nothing new, nothing fed");
        assert_eq!(audit.events_visited(), audit.events().count() as u64);

        // A clean cut: later events only. One of them closes bank 0 inside
        // tRTP of the COMP train's last read, which only the state carried
        // across the cut can show.
        let last_read = audit.events().map(|e| e.cycle()).max().unwrap();
        audit.record(AuditEvent::Pre {
            bank: 0,
            cycle: last_read + t.t_rtp - 1,
        });
        let added = audit.validate_new(&t);
        assert_eq!(added.len(), 1, "{added:?}");
        assert_eq!(added[0].constraint, "tRTP");
        assert_eq!(added, audit.validate(&t));
        assert_eq!(audit.events_visited(), audit.events().count() as u64);

        // A dirty cut: an event recorded now that belongs before ones
        // already checked. Fed to the carried state it would look like a
        // read on a closed bank; the audit notices the cycle, starts over
        // and returns what the full pass returns.
        audit.record(AuditEvent::ColRd {
            bank: 0,
            cycle: 2 + t.t_rcd - 1,
            external: false,
        });
        let visited = audit.events_visited();
        let verdict = audit.validate_new(&t);
        assert_eq!(verdict, audit.validate(&t));
        assert!(
            verdict.iter().any(|v| v.constraint == "tRCD"),
            "{verdict:?}"
        );
        assert!(
            verdict.iter().all(|v| v.constraint != "COL-on-idle"),
            "{verdict:?}"
        );
        assert_eq!(
            audit.events_visited(),
            visited + audit.events().count() as u64,
            "the fallback re-read the whole log"
        );
        // And the state it leaves is the full pass's: the next clean cut
        // is incremental again.
        audit.record(AuditEvent::Ref {
            cycle: last_read + 1000,
        });
        assert_eq!(audit.validate_new(&t), vec![]);
        assert_eq!(
            audit.events_visited(),
            visited + audit.events().count() as u64
        );
    }

    #[test]
    fn the_report_keeps_its_order_whatever_order_the_log_was_written_in() {
        // Recorded back to front. The comparison suites write one log
        // several ways, which cannot see the order of the report, so it
        // is pinned here: tCMD on the row bus, tCMD on the column bus,
        // tFAW, tRRD, each bank's findings in bank order, tRFC refresh
        // by refresh, tREFI.
        let t = timing();
        assert!(t.t_refi > 2 * t.t_rfc + 100 && t.t_rfc > 20 && t.t_faw > 16);
        let late = t.t_refi + t.t_rfc + 100;
        let mut audit = Audit::new();
        audit.record(AuditEvent::Act {
            bank: 3,
            row: 0,
            cycle: late + t.t_refi + 1,
        });
        // An activation at a refresh's own cycle is inside it, and under
        // its deadline, even when it was recorded first.
        audit.record(AuditEvent::Act {
            bank: 2,
            row: 0,
            cycle: late,
        });
        audit.record(AuditEvent::Ref { cycle: late });
        audit.record(AuditEvent::Pre {
            bank: 1,
            cycle: 1010,
        });
        audit.record(AuditEvent::ColRd {
            bank: 0,
            cycle: 1005,
            external: false,
        });
        let acts = [(6, 1018), (5, 1014), (4, 1010), (1, 1003), (0, 1002)];
        for (bank, cycle) in acts {
            audit.record(AuditEvent::Act {
                bank,
                row: 0,
                cycle,
            });
        }
        audit.record(AuditEvent::Ref { cycle: 1001 });
        audit.record(AuditEvent::Ref { cycle: 1000 });
        for bus in [BusKind::Column, BusKind::Row] {
            audit.record(AuditEvent::Slot { cycle: 1, bus });
            audit.record(AuditEvent::Slot { cycle: 0, bus });
        }

        let found = audit.validate(&t);
        let names: Vec<&str> = found.iter().map(|v| v.constraint).collect();
        let mut expected = vec!["tCMD", "tCMD", "tFAW", "tRRD", "tRCD", "tRAS"];
        expected.extend(["tRFC"; 11]);
        expected.push("tREFI");
        assert_eq!(names, expected, "{found:#?}");
        assert!(
            found[0].detail.starts_with("Row-bus"),
            "{}",
            found[0].detail
        );
        assert!(
            found[1].detail.starts_with("Column-bus"),
            "{}",
            found[1].detail
        );
        assert!(found[4].detail.starts_with("bank 0"), "{}", found[4].detail);
        assert!(found[5].detail.starts_with("bank 1"), "{}", found[5].detail);
        let during: Vec<String> = [1000, 1001]
            .iter()
            .flat_map(|r| {
                acts.iter().rev().map(move |(_, a)| {
                    format!("activation at {a} during refresh [{r}, {})", r + t.t_rfc)
                })
            })
            .chain([format!(
                "activation at {late} during refresh [{late}, {})",
                late + t.t_rfc
            )])
            .collect();
        let reported: Vec<&str> = found[6..17].iter().map(|v| v.detail.as_str()).collect();
        assert_eq!(reported, during);
        assert_eq!(
            found[17].detail,
            format!(
                "activation at {} after refresh deadline {}",
                late + t.t_refi + 1,
                late + t.t_refi
            )
        );
    }

    #[test]
    fn ganged_row_commands_fold_into_one_record_each_and_expand_in_place() {
        let t = timing();
        let mut folded = Audit::new();
        let mut singly = Audit::new();
        let record_gang = |audit: &mut Audit, cycle: Cycle, events: &[AuditEvent]| {
            audit.record(AuditEvent::Slot {
                cycle,
                bus: BusKind::Row,
            });
            events.iter().for_each(|e| audit.record(*e));
        };
        let mut cycle = 0;
        for row in 0..6 {
            for cluster in [[0, 1], [2, 3]] {
                let pairs = cluster.map(|bank| (bank, row));
                folded.record_ganged_activate(cycle, &pairs);
                let acts = cluster.map(|bank| AuditEvent::Act { bank, row, cycle });
                record_gang(&mut singly, cycle, &acts);
                cycle += t.t_rrd.max(t.t_cmd);
            }
            cycle += t.t_ras;
            folded.record_precharge_all(cycle, 0..4);
            let pres = [0, 1, 2, 3].map(|bank| AuditEvent::Pre { bank, cycle });
            record_gang(&mut singly, cycle, &pres);
            cycle += t.t_rp;
        }
        // A gang that opens two different rows cannot share one record's
        // row; it is logged event by event and reads the same.
        folded.record_ganged_activate(cycle, &[(0, 8), (1, 9)]);
        let acts = [(0, 8), (1, 9)].map(|(bank, row)| AuditEvent::Act { bank, row, cycle });
        record_gang(&mut singly, cycle, &acts);

        assert!(folded.events().eq(singly.events()));
        assert_eq!(folded.validate(&t), singly.validate(&t));
        assert_eq!(folded.validate(&t), vec![]);
        assert_eq!(folded.records.len, 6 * 3 + 3, "one record a gang");
        assert_eq!(
            folded.bank_lists.len(),
            3,
            "two clusters and the full gang, each listed once"
        );
    }

    #[test]
    fn a_train_too_wide_for_one_record_is_stored_as_several() {
        // A step past 32 bits: one record a command.
        let mut audit = Audit::new();
        audit.record_train(0, 1 << 33, 3, &[]);
        assert_eq!(audit.records(), 3);
        let slots: Vec<Cycle> = audit.events().map(|e| e.cycle()).collect();
        assert_eq!(slots, [0, 1 << 33, 2 << 33]);
        // A count past 32 bits: pieces of at most `u32::MAX` commands.
        let count = (1usize << 32) + 5;
        let mut audit = Audit::new();
        audit.record_train(0, 1, count, &[]);
        assert_eq!(audit.records(), 2);
        let stored: usize = audit
            .records
            .iter_from(0)
            .map(|r| match r {
                Record::Command(c) => c.count as usize,
                Record::Event(_) => 1,
            })
            .sum();
        assert_eq!(stored, count);
        audit.name_since(0, AimCommand::Gwrite { index: 0 });

        // The second piece starts where the first left off, and is named
        // by its place in the run.
        let Record::Command(second) = audit.records.get(1) else {
            panic!("a train is a command record");
        };
        let index = u32::MAX as usize;
        assert_eq!((second.start, second.count), (index as Cycle, 6));
        let name = audit.names[second.name as usize];
        assert_eq!(name, AimCommand::Gwrite { index });
    }

    /// One step of a generated recording: `(kind, skip, dt, count, step)`.
    /// `kind` picks a GWRITE, G_ACT or COMP, as a train of `count` (which
    /// may be 0) or as singles, or a command that does not run, or
    /// conventional traffic; `skip` skips an index of its kind; `dt`
    /// moves the cycle by -2..=5, so cycles repeat and go backwards. A
    /// G_ACT's row is its cluster / 4, so clusters 3 and 4 are not one
    /// run.
    type Op = (u8, bool, i64, usize, Cycle);

    /// Records `ops` after `prefix` READRES singles into a log, naming
    /// each as it goes, with `record_train` for trains (`trains`) or with
    /// every train split into singles; `plain` collects the named
    /// commands one by one.
    fn replay(
        prefix: usize,
        ops: &[Op],
        trains: bool,
        plain: &mut impl Extend<(Cycle, AimCommand)>,
    ) -> Audit {
        let mut log = Audit::new();
        let mut cycle: Cycle = 0;
        let slot = BankOp::Read { external: false };
        for _ in 0..prefix {
            cycle += 3;
            plain.extend([(cycle, AimCommand::ReadRes)]);
            let from = log.records();
            log.fold(cycle, 0, 1, slot, []);
            log.name_since(from, AimCommand::ReadRes);
        }
        let mut next = [0usize; 3];
        for &(kind, skip, dt, count, step) in ops {
            cycle = cycle.saturating_add_signed(dt);
            if kind == 8 {
                // A host PRE: in the log, not in the AiM view.
                log.fold(cycle, 0, 1, BankOp::Precharge, [1]);
                continue;
            }
            let i = next[usize::from(kind % 3)] + usize::from(skip);
            let (first, op) = match kind {
                0 | 3 => (AimCommand::Gwrite { index: i }, slot),
                1 | 4 => {
                    let cmd = AimCommand::GAct {
                        cluster: i,
                        row: i / 4,
                    };
                    (cmd, BankOp::Activate { row: 0 })
                }
                2 | 5 => (AimCommand::Comp { subchunk: i }, slot),
                6 => (AimCommand::PreAll, BankOp::Precharge),
                _ => (AimCommand::ReadRes, slot),
            };
            let count = if kind < 3 { count } else { 1 };
            plain.extend((0..count).map(|k| {
                let cmd = first.nth_in_run(k).expect("runs");
                (cycle + k as Cycle * step, cmd)
            }));
            if trains && count != 1 {
                let from = log.records();
                log.fold(cycle, step, count, op, [0, 1]);
                log.name_since(from, first);
            } else {
                for k in 0..count {
                    let from = log.records();
                    log.fold(cycle + k as Cycle * step, 0, 1, op, [0, 1]);
                    log.name_since(from, first.nth_in_run(k).expect("runs"));
                }
            }
            if kind < 6 {
                next[usize::from(kind % 3)] = i + count;
            }
            cycle += count.saturating_sub(1) as Cycle * step;
        }
        log
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The AiM view expands to the named commands as recorded, and
        /// the audit's view is the same log whether the commands came as
        /// trains or as singles folded into runs when named; a prefix
        /// near a chunk's size puts the folding on a chunk boundary.
        #[test]
        fn the_views_read_the_same_log_however_its_commands_were_grouped(
            near_chunk in proptest::prelude::any::<bool>(),
            offset in 0usize..6,
            ops in proptest::collection::vec(
                (0u8..9, proptest::prelude::any::<bool>(), -2i64..6, 0usize..5, 0u64..4),
                0..120,
            ),
        ) {
            let prefix = if near_chunk { LOG_CHUNK - 3 + offset } else { offset };
            let mut plain = Vec::new();
            let trains = replay(prefix, &ops, true, &mut plain);
            let singles = replay(prefix, &ops, false, &mut Vec::new());
            proptest::prop_assert_eq!(trains.aim_commands().count(), plain.len());
            proptest::prop_assert!(trains.aim_commands().eq(plain.iter().copied()));
            proptest::prop_assert!(singles.aim_commands().eq(plain.iter().copied()));
            proptest::prop_assert!(singles.events().eq(trains.events()));
        }
    }

    /// A record keeps the 40 bytes a single event takes: naming the AiM
    /// commands costs the log no space.
    #[test]
    fn a_record_is_forty_bytes() {
        assert_eq!(std::mem::size_of::<Record>(), 40);
    }

    /// A Newton row-set is eight records: the GWRITE train, four G_ACTs,
    /// the COMP train, a READRES and the precharge-all; the oracle's
    /// single GWRITEs and COMPs fold into the same eight as they are
    /// named.
    #[test]
    fn a_row_set_is_eight_records_however_it_was_issued() {
        let t = timing();
        for singles in [false, true] {
            let mut log = Audit::new();
            let step = t.col_step();
            let named = |log: &mut Audit, first: AimCommand, record: &dyn Fn(&mut Audit)| {
                let from = log.records();
                record(log);
                log.name_since(from, first);
            };
            let slot = BankOp::Read { external: false };
            for (first, start, banks) in [
                (AimCommand::Gwrite { index: 0 }, 0, &[][..]),
                (
                    AimCommand::Comp { subchunk: 0 },
                    200,
                    &[0, 1, 2, 3, 4, 5, 6, 7][..],
                ),
            ] {
                if first == (AimCommand::Comp { subchunk: 0 }) {
                    for cluster in 0..4 {
                        let pairs: Vec<_> =
                            (2 * cluster..2 * cluster + 2).map(|b| (b, 7)).collect();
                        let gact = AimCommand::GAct { cluster, row: 7 };
                        named(&mut log, gact, &|log| {
                            log.record_ganged_activate(10 + 30 * cluster as Cycle, &pairs)
                        });
                    }
                }
                if singles {
                    for i in 0..32 {
                        let cmd = first.nth_in_run(i).expect("runs");
                        let at = start + i as Cycle * step;
                        named(&mut log, cmd, &|log| {
                            log.fold(at, 0, 1, slot, banks.iter().copied())
                        });
                    }
                } else {
                    named(&mut log, first, &|log| {
                        log.record_train(start, step, 32, banks)
                    });
                }
            }
            named(&mut log, AimCommand::ReadRes, &|log| {
                log.fold(400, 0, 1, slot, [])
            });
            named(&mut log, AimCommand::PreAll, &|log| {
                log.record_precharge_all(380, 0..8)
            });
            assert_eq!(log.records(), 8, "singles: {singles}");
            assert_eq!(log.aim_commands().count(), 32 + 4 + 32 + 2);
            assert_eq!(log.validate(&t), vec![], "singles: {singles}");
        }
    }
}
