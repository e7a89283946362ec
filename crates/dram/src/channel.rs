//! The assembled DRAM channel: banks + buses + storage + refresh + stats.
//!
//! The channel exposes a *query/issue* API: `earliest_*` methods report the
//! first legal cycle for an operation given every constraint the channel
//! tracks, and `issue_*` methods validate and apply the operation at an
//! explicit cycle. Controllers (the Newton controller in `newton-core`, the
//! streaming reader in [`crate::stream`]) decide *when*; the channel
//! enforces *legality*. Ganged issue paths perform several bank operations
//! under a single command-bus slot — the mechanism behind Newton's G_ACT
//! and all-bank COMP/READRES commands.
//!
//! As in HBM, the command interface is split into a **row-command bus**
//! (ACT, PRE, REF) and a **column-command bus** (RD, WR and the AiM
//! column-class commands). Column traffic therefore never starves row
//! commands, which is what lets both the Ideal Non-PIM stream and Newton
//! overlap activations with data movement. Each bus issues at most one
//! command per tCMD slot; commands on one bus must be issued in
//! non-decreasing time order.

use crate::audit::{Audit, AuditEvent, AuditViolation, BusKind};
use crate::bank::Bank;
use crate::bus::{CommandBus, DataBus};
use crate::config::DramConfig;
use crate::ecc::EccCounters;
use crate::error::DramError;
use crate::faw::FawTracker;
use crate::stats::{ChannelStats, RunSummary};
use crate::storage::Storage;
use crate::timing::{Cycle, Timing};
use newton_trace::energy::to_milli_pj;
use newton_trace::{BankClass, EnergyModel, Log2Histogram, TimeSeries, TraceBus, TraceEvent};

/// Streaming-telemetry state: the windowed series plus the energy model
/// consulted at command-issue time. Boxed in the channel so the disabled
/// path costs one pointer and one branch per event site.
#[derive(Debug)]
struct TelemetryState {
    series: TimeSeries,
    energy: EnergyModel,
}

/// One DRAM (pseudo-)channel with full timing and functional state.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Channel {
    config: DramConfig,
    timing: Timing,
    banks: Vec<Bank>,
    faw: FawTracker,
    row_bus: CommandBus,
    col_bus: CommandBus,
    data_bus: DataBus,
    storage: Storage,
    stats: ChannelStats,
    /// Cycle at which the next all-bank refresh falls due.
    next_refresh_due: Cycle,
    refresh_enabled: bool,
    /// Cycle of the most recent all-bank refresh (0 before the first one);
    /// the staleness anchor for retention-decay fault campaigns.
    last_refresh: Cycle,
    /// Per-bank ECC event counters (all zero while ECC is off).
    ecc: EccCounters,
    audit: Option<Audit>,
    /// Optional windowed telemetry collector + per-command energy model.
    telemetry: Option<Box<TelemetryState>>,
    /// Cycle of the first command issued, if any (drives the summary's
    /// activity span).
    first_activity: Option<Cycle>,
    /// Cycle of the most recent ACT on any bank.
    last_act: Option<Cycle>,
    /// Gaps between consecutive activates (any bank).
    act_gaps: Log2Histogram,
    /// Queue latencies reported by scheduling controllers.
    queue_latency: Log2Histogram,
}

impl Channel {
    /// Creates a channel in the reset state.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(config: DramConfig) -> Result<Channel, DramError> {
        config.validate()?;
        let timing = config.timing.to_cycles()?;
        Ok(Channel {
            banks: (0..config.banks).map(Bank::new).collect(),
            faw: FawTracker::new(),
            row_bus: CommandBus::new(),
            col_bus: CommandBus::new(),
            data_bus: DataBus::new(),
            storage: Storage::new(&config),
            stats: ChannelStats::default(),
            next_refresh_due: timing.t_refi,
            refresh_enabled: true,
            last_refresh: 0,
            ecc: EccCounters::new(config.banks),
            audit: None,
            telemetry: None,
            first_activity: None,
            last_act: None,
            act_gaps: Log2Histogram::new(),
            queue_latency: Log2Histogram::new(),
            config,
            timing,
        })
    }

    /// The channel's configuration.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Derived integer-cycle timing.
    #[must_use]
    pub fn timing(&self) -> &Timing {
        &self.timing
    }

    /// Event counters so far.
    #[must_use]
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Functional storage (read side).
    #[must_use]
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Functional storage (write side) — host-initiated backing-store
    /// writes, e.g. loading a matrix before timing simulation starts.
    pub fn storage_mut(&mut self) -> &mut Storage {
        &mut self.storage
    }

    /// Enables post-hoc timing auditing (see [`crate::audit`]): every
    /// event from here on is logged — a command train, a ganged
    /// activation or a precharge-all as one folded record — without
    /// changing which code issues it. The log grows with the commands
    /// issued outside trains (eight records per Newton row-set), not
    /// with the bank accesses under them.
    pub fn enable_audit(&mut self) {
        self.audit = Some(Audit::new());
    }

    /// The audit log, if auditing is enabled.
    #[must_use]
    pub fn audit(&self) -> Option<&Audit> {
        self.audit.as_ref()
    }

    /// Audits the events logged since the last call against this
    /// channel's timing ([`Audit::validate_new`]): the violations they
    /// add, or `None` when auditing is off.
    pub fn audit_new_events(&mut self) -> Option<Vec<AuditViolation>> {
        self.audit.as_mut().map(|a| a.validate_new(&self.timing))
    }

    /// Disables refresh-deadline tracking (for micro-tests that span less
    /// than one tREFI or deliberately study refresh-free behaviour).
    pub fn disable_refresh(&mut self) {
        self.refresh_enabled = false;
    }

    /// Whether refresh tracking is enabled.
    #[must_use]
    pub fn refresh_enabled(&self) -> bool {
        self.refresh_enabled
    }

    /// The cycle by which the next all-bank refresh must be issued.
    /// `Cycle::MAX` when refresh is disabled.
    #[must_use]
    pub fn refresh_due(&self) -> Cycle {
        if self.refresh_enabled {
            self.next_refresh_due
        } else {
            Cycle::MAX
        }
    }

    /// The open row of `bank`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn open_row(&self, bank: usize) -> Option<usize> {
        self.banks[bank].state().open_row()
    }

    /// Cycle of the most recent all-bank refresh (0 before the first).
    #[must_use]
    pub(crate) fn last_refresh(&self) -> Cycle {
        self.last_refresh
    }

    /// Scrubs an entire row against its SECDED check bytes on activation
    /// (the row-buffer fill is where a real on-die ECC engine sees the
    /// whole row). No-op while ECC is off.
    fn ecc_scrub_row(&mut self, cycle: Cycle, bank: usize, row: usize) -> Result<(), DramError> {
        if !self.storage.ecc_enabled() {
            return Ok(());
        }
        match self.storage.scrub_row(bank, row) {
            Ok(0) => Ok(()),
            Ok(n) => {
                self.note_ecc_corrected(cycle, bank, row, n);
                Ok(())
            }
            Err(e) => {
                self.note_ecc_uncorrectable(cycle, bank, row, &e);
                Err(e)
            }
        }
    }

    /// Checks the words backing one column on a read or COMP operand
    /// fetch. No-op while ECC is off.
    fn ecc_check_column(
        &mut self,
        cycle: Cycle,
        bank: usize,
        row: usize,
        col: usize,
    ) -> Result<(), DramError> {
        if !self.storage.ecc_enabled() {
            return Ok(());
        }
        match self.storage.check_column(bank, row, col) {
            Ok(0) => Ok(()),
            Ok(n) => {
                self.note_ecc_corrected(cycle, bank, row, n);
                Ok(())
            }
            Err(e) => {
                self.note_ecc_uncorrectable(cycle, bank, row, &e);
                Err(e)
            }
        }
    }

    fn note_ecc_corrected(&mut self, cycle: Cycle, bank: usize, row: usize, words: u32) {
        self.stats.ecc_corrected += u64::from(words);
        self.ecc.corrected[bank] += u64::from(words);
        self.emit(TraceEvent::EccCorrected {
            cycle,
            bank: bank as u32,
            row: row as u32,
            bits: words,
        });
    }

    fn note_ecc_uncorrectable(&mut self, cycle: Cycle, bank: usize, row: usize, err: &DramError) {
        if matches!(err, DramError::Uncorrectable { .. }) {
            self.stats.ecc_uncorrectable += 1;
            self.ecc.uncorrectable[bank] += 1;
            self.emit(TraceEvent::EccUncorrectable {
                cycle,
                bank: bank as u32,
                row: row as u32,
            });
        }
    }

    fn check_bank(&self, bank: usize) -> Result<(), DramError> {
        if bank >= self.banks.len() {
            return Err(DramError::AddressOutOfRange {
                kind: "bank",
                index: bank,
                limit: self.banks.len(),
            });
        }
        Ok(())
    }

    fn record(&mut self, event: AuditEvent) {
        if let Some(a) = &mut self.audit {
            a.record(event);
        }
    }

    /// Enables streaming telemetry: every subsequent event also folds
    /// into a windowed [`TimeSeries`], and energy-bearing commands emit
    /// [`TraceEvent::CommandEnergy`] attributions priced by the Fig. 13
    /// [`EnergyModel`]. `window_cycles` of 0 is promoted to 1.
    pub fn enable_telemetry(&mut self, window_cycles: u64) {
        self.telemetry = Some(Box::new(TelemetryState {
            series: TimeSeries::new(window_cycles, self.config.banks),
            energy: EnergyModel::new(),
        }));
    }

    /// The telemetry series accumulated so far, if enabled.
    #[must_use]
    pub fn telemetry(&self) -> Option<&TimeSeries> {
        self.telemetry.as_deref().map(|t| &t.series)
    }

    /// Whether telemetry is on — the gate the per-command instrumentation
    /// sites check before they build any event.
    #[inline]
    fn tracing(&self) -> bool {
        self.telemetry.is_some()
    }

    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        if let Some(t) = &mut self.telemetry {
            t.series.record(&event);
        }
    }

    /// Prices one issued command with the energy model and emits the
    /// attribution (telemetry only; commands with zero attributed energy
    /// — PRE, CTRL — stay silent). `label` must match the command's
    /// traced mnemonic so windowed energy lands beside its counts.
    #[inline]
    fn emit_energy(&mut self, cycle: Cycle, label: &'static str, bank_ops: u32, data_bytes: u64) {
        let Some(t) = &self.telemetry else { return };
        let pj = if label == "REF" {
            t.energy.refresh_pj(bank_ops)
        } else {
            t.energy.command_pj(label, bank_ops, data_bytes)
        };
        let milli_pj = to_milli_pj(pj);
        if milli_pj > 0 {
            self.emit(TraceEvent::CommandEnergy {
                cycle,
                label,
                milli_pj,
            });
        }
    }

    /// Marks `cycle` as simulation activity (for the activity-span start).
    #[inline]
    fn note_activity(&mut self, cycle: Cycle) {
        if self.first_activity.is_none() {
            self.first_activity = Some(cycle);
        }
    }

    /// Reports that a scheduling controller issued a request at `cycle`
    /// after it waited `waited` cycles in queue. Folded into the summary's
    /// queue-latency histogram and into telemetry when it is on.
    pub(crate) fn record_queue_latency(&mut self, cycle: Cycle, waited: Cycle) {
        self.queue_latency.record(waited);
        self.emit(TraceEvent::QueueLatency { cycle, waited });
    }

    // ------------------------------------------------------------------
    // Activation (row bus)
    // ------------------------------------------------------------------

    /// Earliest legal cycle to activate a row in `bank` (single ACT).
    #[must_use]
    pub fn earliest_activate(&self, bank: usize) -> Cycle {
        let b = self.banks[bank].earliest_activate();
        let f = self.faw.earliest_activate(b, 1, &self.timing);
        self.row_bus.earliest_slot(f, &self.timing)
    }

    /// Earliest legal cycle for a ganged activation of the given banks
    /// (Newton's G_ACT; at most 4 banks, per the tFAW window).
    ///
    /// # Panics
    ///
    /// Panics if `banks` is empty or has more than 4 entries.
    #[must_use]
    pub fn earliest_ganged_activate(&self, banks: &[usize]) -> Cycle {
        assert!(
            !banks.is_empty() && banks.len() <= 4,
            "ganged activation must cover 1..=4 banks"
        );
        let mut hint = 0;
        for &b in banks {
            hint = hint.max(self.banks[b].earliest_activate());
        }
        let f = self.faw.earliest_activate(hint, banks.len(), &self.timing);
        self.row_bus.earliest_slot(f, &self.timing)
    }

    /// Issues a single-bank ACT at `cycle`. Returns `cycle` for chaining.
    ///
    /// # Errors
    ///
    /// Any constraint violation ([`DramError::Timing`]), bank-state error,
    /// or out-of-range index.
    pub fn issue_activate(
        &mut self,
        cycle: Cycle,
        bank: usize,
        row: usize,
    ) -> Result<Cycle, DramError> {
        self.issue_ganged_activate(cycle, &[(bank, row)])
    }

    /// Issues a ganged ACT of up to four `(bank, row)` pairs at `cycle`,
    /// consuming one row-bus command slot. Returns `cycle`.
    ///
    /// # Errors
    ///
    /// Any constraint violation, bank-state error, or out-of-range index.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty or longer than 4.
    pub fn issue_ganged_activate(
        &mut self,
        cycle: Cycle,
        pairs: &[(usize, usize)],
    ) -> Result<Cycle, DramError> {
        self.issue_ganged_activate_inner(cycle, pairs, true)
    }

    /// [`Channel::issue_ganged_activate`] without the row-buffer-fill ECC
    /// scrub. Only legal when every activated row is verified
    /// ([`Storage::row_verified`]): a scrub of a verified row finds
    /// nothing and changes nothing, so skipping it is byte-identical
    /// while avoiding the per-row syndrome sweep.
    ///
    /// # Errors
    ///
    /// Same constraint/bank-state/range errors as the scrubbing form.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty or longer than 4.
    pub fn issue_ganged_activate_prescrubbed(
        &mut self,
        cycle: Cycle,
        pairs: &[(usize, usize)],
    ) -> Result<Cycle, DramError> {
        self.issue_ganged_activate_inner(cycle, pairs, false)
    }

    fn issue_ganged_activate_inner(
        &mut self,
        cycle: Cycle,
        pairs: &[(usize, usize)],
        scrub: bool,
    ) -> Result<Cycle, DramError> {
        assert!(
            !pairs.is_empty() && pairs.len() <= 4,
            "ganged activation must cover 1..=4 banks"
        );
        for &(bank, row) in pairs {
            self.check_bank(bank)?;
            if row >= self.config.rows_per_bank {
                return Err(DramError::AddressOutOfRange {
                    kind: "row",
                    index: row,
                    limit: self.config.rows_per_bank,
                });
            }
        }
        self.check_refresh_not_overdue(cycle)?;
        let faw_earliest = self.faw.earliest_activate(0, pairs.len(), &self.timing);
        if cycle < faw_earliest {
            return Err(DramError::Timing {
                constraint: "tRRD/tFAW (activate)",
                issued: cycle,
                earliest: faw_earliest,
                bank: None,
            });
        }
        // Validate all banks before mutating any (atomic gang).
        for &(bank, _) in pairs {
            let earliest = self.banks[bank].earliest_activate();
            if cycle < earliest {
                return Err(DramError::Timing {
                    constraint: "tRP/tRC (activate)",
                    issued: cycle,
                    earliest,
                    bank: Some(bank),
                });
            }
        }
        self.row_bus.issue(cycle, &self.timing)?;
        for &(bank, row) in pairs {
            self.banks[bank].activate(cycle, row, &self.timing)?;
        }
        if let Some(a) = &mut self.audit {
            a.record_ganged_activate(cycle, pairs);
        }
        self.faw.record(cycle, pairs.len());
        self.stats.activates += pairs.len() as u64;
        if pairs.len() > 1 {
            self.stats.ganged_commands += 1;
        }
        self.note_activity(cycle);
        if let Some(last) = self.last_act {
            self.act_gaps.record(cycle - last);
        }
        self.last_act = Some(cycle);
        if self.tracing() {
            self.emit(TraceEvent::Command {
                cycle,
                bus: TraceBus::Row,
                label: if pairs.len() > 1 { "G_ACT" } else { "ACT" },
                bank_ops: pairs.len() as u32,
            });
            for &(bank, _) in pairs {
                self.emit(TraceEvent::BankState {
                    cycle,
                    bank: bank as u32,
                    class: BankClass::RowOpen,
                });
            }
            self.emit_energy(
                cycle,
                if pairs.len() > 1 { "G_ACT" } else { "ACT" },
                pairs.len() as u32,
                0,
            );
        }
        // Row-buffer-fill scrub: with ECC on, the whole activated row is
        // checked/corrected as it enters the row buffer.
        if scrub {
            for &(bank, row) in pairs {
                self.ecc_scrub_row(cycle, bank, row)?;
            }
        }
        Ok(cycle)
    }

    // ------------------------------------------------------------------
    // Column access (column bus)
    // ------------------------------------------------------------------

    /// Earliest legal cycle `>= after` for an *external* column read on
    /// `bank` (column-bus slot + bank tRCD/tCCD + external data bus at
    /// `cycle + tAA`).
    #[must_use]
    pub fn earliest_column_read(&self, after: Cycle, bank: usize) -> Cycle {
        let b = self.banks[bank].earliest_column().max(after);
        let slot = self.col_bus.earliest_slot(b, &self.timing);
        // Data appears tAA after the command; find the first slot whose
        // data beat clears the bus.
        let bus_free = self.data_bus.earliest_transfer(slot + self.timing.t_aa);
        slot.max(bus_free.saturating_sub(self.timing.t_aa))
    }

    /// Earliest legal cycle `>= after` for a ganged *internal* column read
    /// (Newton COMP path: no external bus involvement).
    #[must_use]
    pub fn earliest_ganged_column_read(&self, after: Cycle, banks: &[usize]) -> Cycle {
        let mut hint = after;
        for &b in banks {
            hint = hint.max(self.banks[b].earliest_column());
        }
        self.col_bus.earliest_slot(hint, &self.timing)
    }

    /// Issues an external column read at `cycle`; returns the issue cycle
    /// and the data (available to the host at `cycle + tAA`).
    ///
    /// # Errors
    ///
    /// Constraint violations, bank-state errors, or bad indices.
    pub fn issue_column_read_external(
        &mut self,
        cycle: Cycle,
        bank: usize,
        col: usize,
    ) -> Result<(Cycle, Vec<u8>), DramError> {
        self.check_bank(bank)?;
        self.col_bus.issue(cycle, &self.timing)?;
        self.record(AuditEvent::Slot {
            cycle,
            bus: BusKind::Column,
        });
        let row = self.banks[bank].column_access(cycle, false, &self.timing)?;
        self.data_bus.transfer(
            cycle + self.timing.t_aa,
            self.config.col_bytes(),
            &self.timing,
        )?;
        self.record(AuditEvent::ColRd {
            bank,
            cycle,
            external: true,
        });
        self.stats.col_reads_external += 1;
        self.note_activity(cycle);
        if self.tracing() {
            self.emit(TraceEvent::Command {
                cycle,
                bus: TraceBus::Column,
                label: "RD",
                bank_ops: 1,
            });
            self.emit(TraceEvent::DataBurst {
                cycle: cycle + self.timing.t_aa,
                bytes: self.config.col_bytes() as u64,
            });
            self.emit_energy(cycle, "RD", 1, self.config.col_bytes() as u64);
        }
        self.ecc_check_column(cycle, bank, row, col)?;
        let data = self.storage.column(bank, row, col)?.to_vec();
        Ok((cycle, data))
    }

    /// Issues an external column write at `cycle`.
    ///
    /// # Errors
    ///
    /// Constraint violations, bank-state errors, bad indices, or wrong
    /// data size.
    pub fn issue_column_write_external(
        &mut self,
        cycle: Cycle,
        bank: usize,
        col: usize,
        data: &[u8],
    ) -> Result<Cycle, DramError> {
        self.check_bank(bank)?;
        self.col_bus.issue(cycle, &self.timing)?;
        self.record(AuditEvent::Slot {
            cycle,
            bus: BusKind::Column,
        });
        let row = self.banks[bank].column_access(cycle, true, &self.timing)?;
        self.data_bus
            .transfer(cycle + self.timing.t_aa, data.len(), &self.timing)?;
        self.record(AuditEvent::ColWr { bank, cycle });
        self.stats.col_writes_external += 1;
        self.note_activity(cycle);
        if self.tracing() {
            self.emit(TraceEvent::Command {
                cycle,
                bus: TraceBus::Column,
                label: "WR",
                bank_ops: 1,
            });
            self.emit(TraceEvent::DataBurst {
                cycle: cycle + self.timing.t_aa,
                bytes: data.len() as u64,
            });
            self.emit_energy(cycle, "WR", 1, data.len() as u64);
        }
        self.storage.write_column(bank, row, col, data)?;
        Ok(cycle)
    }

    /// Issues a ganged *internal* column read at `cycle` under a single
    /// column-bus slot: every `(bank, col)` pair reads one column from its
    /// open row, and `sink(bank, data)` receives each bank's bytes (this
    /// is the data path into Newton's per-bank multipliers).
    ///
    /// # Errors
    ///
    /// Constraint violations, bank-state errors, or bad indices. Banks are
    /// validated before any state mutates.
    pub fn issue_ganged_column_read_internal(
        &mut self,
        cycle: Cycle,
        pairs: &[(usize, usize)],
        mut sink: impl FnMut(usize, &[u8]),
    ) -> Result<Cycle, DramError> {
        for &(bank, col) in pairs {
            self.check_bank(bank)?;
            if col >= self.config.cols_per_row {
                return Err(DramError::AddressOutOfRange {
                    kind: "column",
                    index: col,
                    limit: self.config.cols_per_row,
                });
            }
            let earliest = self.banks[bank].earliest_column();
            if cycle < earliest {
                return Err(DramError::Timing {
                    constraint: "tRCD/tCCD (column)",
                    issued: cycle,
                    earliest,
                    bank: Some(bank),
                });
            }
        }
        self.col_bus.issue(cycle, &self.timing)?;
        self.record(AuditEvent::Slot {
            cycle,
            bus: BusKind::Column,
        });
        let audit_on = self.audit.is_some();
        for &(bank, col) in pairs {
            let row = self.banks[bank].column_access(cycle, false, &self.timing)?;
            self.banks[bank].note_internal_access(cycle, &self.timing);
            if audit_on {
                self.record(AuditEvent::ColRd {
                    bank,
                    cycle,
                    external: false,
                });
            }
            self.ecc_check_column(cycle, bank, row, col)?;
            let data = self.storage.column(bank, row, col)?;
            sink(bank, data);
        }
        self.stats.col_reads_internal += pairs.len() as u64;
        if pairs.len() > 1 {
            self.stats.ganged_commands += 1;
        }
        self.note_activity(cycle);
        if self.tracing() {
            self.emit(TraceEvent::Command {
                cycle,
                bus: TraceBus::Column,
                label: "COMP",
                bank_ops: pairs.len() as u32,
            });
            for &(bank, _) in pairs {
                self.emit(TraceEvent::BankState {
                    cycle,
                    bank: bank as u32,
                    class: BankClass::Computing,
                });
            }
            self.emit_energy(cycle, "COMP", pairs.len() as u32, 0);
        }
        Ok(cycle)
    }

    /// Issues a train of `count` ganged internal column reads (Newton's
    /// COMP stream for one row-set): command `i` lands at
    /// `start + i * step` and reads column `i` of the open row on every
    /// bank in `banks`. Observably identical to `count` sequential
    /// [`Channel::issue_ganged_column_read_internal`] calls with a no-op
    /// sink — data is *not* delivered; callers on this path read the open
    /// rows from their own decoded copy. Returns the cycle of the last
    /// command.
    ///
    /// Observers are told, not obeyed: the train applies closed-form,
    /// O(1) in `count * banks`, whatever is attached. The telemetry
    /// collector takes it as one fold into its windows and an audit log
    /// as one folded record ([`Audit::record_train`]). The one condition that expands the train into single-command
    /// calls is ECC on without `rows_clean`: there the per-column checks
    /// do real work and can fail at a particular command. `rows_clean`
    /// is the caller's proof that the open rows hold no error — their
    /// activation scrub (or the verified flags that let it be skipped)
    /// found nothing, and nothing has written them since — under which
    /// every such check would be a no-op `Ok(0)`.
    ///
    /// # Errors
    ///
    /// Constraint violations, bank-state errors, or bad indices: the
    /// whole train is validated before either leg mutates anything. An
    /// ECC detection on the expanding leg still surfaces at the command
    /// that hit it, as it would on hardware.
    pub fn issue_comp_train(
        &mut self,
        start: Cycle,
        step: Cycle,
        count: usize,
        banks: &[usize],
        rows_clean: bool,
    ) -> Result<Cycle, DramError> {
        if count == 0 {
            return Ok(start);
        }
        if count > self.config.cols_per_row {
            return Err(DramError::AddressOutOfRange {
                kind: "column",
                index: count,
                limit: self.config.cols_per_row,
            });
        }
        for &bank in banks {
            self.check_bank(bank)?;
            self.banks[bank].check_comp_burst(start, step, count, &self.timing)?;
        }
        self.col_bus.check_train(start, step, count, &self.timing)?;
        let last = start + (count as Cycle - 1) * step;
        if self.storage.ecc_enabled() && !rows_clean {
            let mut pairs: Vec<(usize, usize)> = banks.iter().map(|&b| (b, 0)).collect();
            for i in 0..count {
                for p in &mut pairs {
                    p.1 = i;
                }
                self.issue_ganged_column_read_internal(
                    start + i as Cycle * step,
                    &pairs,
                    |_, _| {},
                )?;
            }
            return Ok(last);
        }
        self.col_bus
            .issue_train(start, step, count, &self.timing)
            .expect("pre-flighted column-bus train");
        for &bank in banks {
            self.banks[bank]
                .comp_burst(start, step, count, &self.timing)
                .expect("pre-flighted comp burst");
        }
        self.stats.col_reads_internal += (count * banks.len()) as u64;
        if banks.len() > 1 {
            self.stats.ganged_commands += count as u64;
        }
        self.note_activity(start);
        if let Some(a) = &mut self.audit {
            a.record_train(start, step, count, banks);
        }
        if let Some(t) = &mut self.telemetry {
            let milli_pj = to_milli_pj(t.energy.command_pj("COMP", banks.len() as u32, 0));
            t.series.record_command_train(
                start,
                step,
                count as u64,
                "COMP",
                banks.len() as u32,
                milli_pj,
            );
            for &bank in banks {
                t.series.record_bank_comp_train(bank, count as u64);
            }
        }
        Ok(last)
    }

    /// Issues a train of `count` broadcast writes of `bytes` each
    /// (Newton's GWRITE stream for one input chunk) at
    /// `start, start + step, ...`. Observably identical to the sequential
    /// [`Channel::issue_broadcast_write`] loop. Like
    /// [`Channel::issue_comp_train`] it always applies closed-form and
    /// tells whatever is attached — telemetry takes one fold, an audit
    /// log one bank-less train record — and since a GWRITE touches no
    /// bank, nothing ever expands it. Returns the cycle of the last command.
    ///
    /// # Errors
    ///
    /// Command-bus or data-bus violations; the whole train is validated
    /// before anything mutates.
    pub fn issue_broadcast_write_train(
        &mut self,
        start: Cycle,
        step: Cycle,
        count: usize,
        bytes: usize,
    ) -> Result<Cycle, DramError> {
        if count == 0 {
            return Ok(start);
        }
        let burst0 = start + self.timing.t_aa;
        self.col_bus.check_train(start, step, count, &self.timing)?;
        self.data_bus
            .check_train(burst0, step, count, &self.timing)?;
        let last = start + (count as Cycle - 1) * step;
        self.col_bus
            .issue_train(start, step, count, &self.timing)
            .expect("pre-flighted column-bus train");
        self.data_bus
            .transfer_train(burst0, step, count, bytes, &self.timing)
            .expect("pre-flighted data-bus train");
        self.stats.broadcast_bytes += (count * bytes) as u64;
        self.note_activity(start);
        if let Some(a) = &mut self.audit {
            a.record_train(start, step, count, &[]);
        }
        if let Some(t) = &mut self.telemetry {
            let milli_pj = to_milli_pj(t.energy.command_pj("GWRITE", 0, bytes as u64));
            t.series
                .record_command_train(start, step, count as u64, "GWRITE", 0, milli_pj);
            t.series
                .record_burst_train(burst0, step, count as u64, bytes as u64);
        }
        Ok(last)
    }

    /// Issues a broadcast-class command (e.g. Newton GWRITE): consumes one
    /// column-bus slot and moves `bytes` over the external bus at
    /// `cycle + tAA`, but touches no bank array.
    ///
    /// # Errors
    ///
    /// Command-bus or data-bus violations.
    pub fn issue_broadcast_write(
        &mut self,
        cycle: Cycle,
        bytes: usize,
    ) -> Result<Cycle, DramError> {
        self.col_bus.issue(cycle, &self.timing)?;
        self.record(AuditEvent::Slot {
            cycle,
            bus: BusKind::Column,
        });
        self.data_bus
            .transfer(cycle + self.timing.t_aa, bytes, &self.timing)?;
        self.stats.broadcast_bytes += bytes as u64;
        self.note_activity(cycle);
        if self.tracing() {
            self.emit(TraceEvent::Command {
                cycle,
                bus: TraceBus::Column,
                label: "GWRITE",
                bank_ops: 0,
            });
            self.emit(TraceEvent::DataBurst {
                cycle: cycle + self.timing.t_aa,
                bytes: bytes as u64,
            });
            self.emit_energy(cycle, "GWRITE", 0, bytes as u64);
        }
        Ok(cycle)
    }

    /// Earliest cycle `>= after` for a broadcast-class command.
    #[must_use]
    pub fn earliest_broadcast_write(&self, after: Cycle) -> Cycle {
        let slot = self.col_bus.earliest_slot(after, &self.timing);
        let bus_free = self.data_bus.earliest_transfer(slot + self.timing.t_aa);
        slot.max(bus_free.saturating_sub(self.timing.t_aa))
    }

    /// Issues a result-readout-class command (e.g. Newton READRES): one
    /// column-bus slot, `bytes` over the external bus toward the host, no
    /// bank array access.
    ///
    /// # Errors
    ///
    /// Command-bus or data-bus violations.
    pub fn issue_result_read(&mut self, cycle: Cycle, bytes: usize) -> Result<Cycle, DramError> {
        self.col_bus.issue(cycle, &self.timing)?;
        self.record(AuditEvent::Slot {
            cycle,
            bus: BusKind::Column,
        });
        self.data_bus
            .transfer(cycle + self.timing.t_aa, bytes, &self.timing)?;
        self.note_activity(cycle);
        if self.tracing() {
            self.emit(TraceEvent::Command {
                cycle,
                bus: TraceBus::Column,
                label: "READRES",
                bank_ops: 0,
            });
            self.emit(TraceEvent::DataBurst {
                cycle: cycle + self.timing.t_aa,
                bytes: bytes as u64,
            });
            self.emit_energy(cycle, "READRES", 0, bytes as u64);
        }
        Ok(cycle)
    }

    /// Earliest cycle `>= after` for a result-readout-class command.
    #[must_use]
    pub fn earliest_result_read(&self, after: Cycle) -> Cycle {
        self.earliest_broadcast_write(after)
    }

    /// Issues a control-only command at `cycle`: consumes one column-bus
    /// slot, touches no bank and no data bus. Used to model the *simple*
    /// command expansion of an AiM compute step (broadcast trigger /
    /// multiply-add trigger) when complex commands are disabled.
    ///
    /// # Errors
    ///
    /// Command-bus violations.
    pub fn issue_control_command(&mut self, cycle: Cycle) -> Result<Cycle, DramError> {
        self.col_bus.issue(cycle, &self.timing)?;
        self.record(AuditEvent::Slot {
            cycle,
            bus: BusKind::Column,
        });
        self.note_activity(cycle);
        self.emit(TraceEvent::Command {
            cycle,
            bus: TraceBus::Column,
            label: "CTRL",
            bank_ops: 0,
        });
        Ok(cycle)
    }

    /// Earliest cycle `>= after` for a control-only command.
    #[must_use]
    pub fn earliest_control_command(&self, after: Cycle) -> Cycle {
        self.col_bus.earliest_slot(after, &self.timing)
    }

    // ------------------------------------------------------------------
    // Precharge (row bus)
    // ------------------------------------------------------------------

    /// Earliest legal cycle to precharge `bank`.
    #[must_use]
    pub fn earliest_precharge(&self, bank: usize) -> Cycle {
        self.row_bus
            .earliest_slot(self.banks[bank].earliest_precharge(), &self.timing)
    }

    /// Earliest legal cycle for precharge-all (every open bank's gate).
    #[must_use]
    pub fn earliest_precharge_all(&self) -> Cycle {
        let mut hint = 0;
        for b in &self.banks {
            if b.state().open_row().is_some() {
                hint = hint.max(b.earliest_precharge());
            }
        }
        self.row_bus.earliest_slot(hint, &self.timing)
    }

    /// Issues a single-bank PRE at `cycle`.
    ///
    /// # Errors
    ///
    /// Constraint violations or bank-state errors.
    pub fn issue_precharge(&mut self, cycle: Cycle, bank: usize) -> Result<Cycle, DramError> {
        self.check_bank(bank)?;
        self.row_bus.issue(cycle, &self.timing)?;
        self.record(AuditEvent::Slot {
            cycle,
            bus: BusKind::Row,
        });
        self.banks[bank].precharge(cycle, &self.timing)?;
        self.record(AuditEvent::Pre { bank, cycle });
        self.stats.precharges += 1;
        self.note_activity(cycle);
        if self.tracing() {
            self.emit(TraceEvent::Command {
                cycle,
                bus: TraceBus::Row,
                label: "PRE",
                bank_ops: 1,
            });
            self.emit(TraceEvent::BankState {
                cycle,
                bank: bank as u32,
                class: BankClass::Precharging,
            });
        }
        Ok(cycle)
    }

    /// Issues a precharge-all at `cycle`: closes every open bank under one
    /// row-bus slot (a standard DRAM PREA command).
    ///
    /// # Errors
    ///
    /// Constraint violations; banks are validated before any mutates.
    pub fn issue_precharge_all(&mut self, cycle: Cycle) -> Result<Cycle, DramError> {
        for b in &self.banks {
            if b.state().open_row().is_some() && cycle < b.earliest_precharge() {
                return Err(DramError::Timing {
                    constraint: "tRAS/tRTP/tWR (precharge-all)",
                    issued: cycle,
                    earliest: b.earliest_precharge(),
                    bank: None,
                });
            }
        }
        self.row_bus.issue(cycle, &self.timing)?;
        if let Some(a) = &mut self.audit {
            let open = self.banks.iter().enumerate();
            let open = open.filter(|(_, b)| b.state().open_row().is_some());
            a.record_precharge_all(cycle, open.map(|(bank, _)| bank));
        }
        let mut closed = 0;
        for bank in 0..self.banks.len() {
            if self.banks[bank].state().open_row().is_some() {
                self.banks[bank].precharge(cycle, &self.timing)?;
                if self.tracing() {
                    self.emit(TraceEvent::BankState {
                        cycle,
                        bank: bank as u32,
                        class: BankClass::Precharging,
                    });
                }
                closed += 1;
            }
        }
        self.stats.precharges += closed;
        if closed > 1 {
            self.stats.ganged_commands += 1;
        }
        self.note_activity(cycle);
        self.emit(TraceEvent::Command {
            cycle,
            bus: TraceBus::Row,
            label: "PREA",
            bank_ops: closed as u32,
        });
        Ok(cycle)
    }

    // ------------------------------------------------------------------
    // Refresh (row bus)
    // ------------------------------------------------------------------

    fn check_refresh_not_overdue(&self, cycle: Cycle) -> Result<(), DramError> {
        if self.refresh_enabled && cycle > self.next_refresh_due {
            return Err(DramError::RefreshOverdue {
                deadline: self.next_refresh_due,
                observed: cycle,
            });
        }
        Ok(())
    }

    /// Issues an all-bank refresh at `cycle`. All banks must be idle; they
    /// are blocked until `cycle + tRFC`. The next deadline is one tREFI
    /// after this refresh (pull-in semantics).
    ///
    /// # Errors
    ///
    /// Bank-state errors if any bank has an open row; command-bus
    /// violations.
    pub fn issue_refresh_all(&mut self, cycle: Cycle) -> Result<Cycle, DramError> {
        for (i, b) in self.banks.iter().enumerate() {
            if let Some(row) = b.state().open_row() {
                return Err(DramError::BankState {
                    bank: i,
                    attempted: "refresh-all",
                    actual: format!("Active {{ row: {row} }}"),
                });
            }
        }
        self.row_bus.issue(cycle, &self.timing)?;
        self.record(AuditEvent::Slot {
            cycle,
            bus: BusKind::Row,
        });
        self.record(AuditEvent::Ref { cycle });
        let until = cycle + self.timing.t_rfc;
        for b in &mut self.banks {
            b.block_for_refresh(cycle, until)?;
        }
        self.stats.refreshes += 1;
        self.next_refresh_due = cycle + self.timing.t_refi;
        self.last_refresh = cycle;
        self.note_activity(cycle);
        if self.tracing() {
            let banks = self.banks.len();
            self.emit(TraceEvent::Command {
                cycle,
                bus: TraceBus::Row,
                label: "REF",
                bank_ops: banks as u32,
            });
            for bank in 0..banks {
                self.emit(TraceEvent::BankState {
                    cycle,
                    bank: bank as u32,
                    class: BankClass::Refreshing,
                });
            }
            self.emit_energy(cycle, "REF", banks as u32, 0);
        }
        Ok(cycle)
    }

    // ------------------------------------------------------------------
    // Summary
    // ------------------------------------------------------------------

    /// Snapshot of counters, per-bank cycle attribution, and latency
    /// histograms for the span through `end_cycle`. Its cost does not
    /// depend on the channel's age: the telemetry series in it shares
    /// storage with the live one ([`TimeSeries::sampled`]) rather than
    /// copying it.
    #[must_use]
    pub fn summary(&self, end_cycle: Cycle) -> RunSummary {
        RunSummary {
            stats: self.stats,
            commands: self.row_bus.issued() + self.col_bus.issued(),
            external_bytes: self.data_bus.bytes(),
            bank_open_cycles: self.banks.iter().map(Bank::open_cycles).sum(),
            activity_start: self.first_activity.unwrap_or(0),
            end_cycle,
            tck_ns: self.timing.tck_ns,
            residency: self.banks.iter().map(|b| b.residency(end_cycle)).collect(),
            queue_latency: self.queue_latency.clone(),
            row_slot_gaps: self.row_bus.slot_gaps().clone(),
            col_slot_gaps: self.col_bus.slot_gaps().clone(),
            act_gaps: self.act_gaps.clone(),
            ecc: self.ecc.clone(),
            telemetry: self.telemetry.as_ref().map(|t| t.series.sampled(end_cycle)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingParams;

    fn channel() -> Channel {
        let mut ch = Channel::new(DramConfig::hbm2e_like()).unwrap();
        ch.enable_audit();
        ch
    }

    fn timing() -> Timing {
        TimingParams::hbm2e_like().to_cycles().unwrap()
    }

    #[test]
    fn activate_read_precharge_roundtrip_with_audit() {
        let mut ch = channel();
        let t = timing();
        let row: Vec<u8> = (0..1024).map(|i| (i * 7 % 256) as u8).collect();
        ch.storage_mut().write_row(2, 9, &row).unwrap();

        let a = ch.earliest_activate(2);
        ch.issue_activate(a, 2, 9).unwrap();
        assert_eq!(ch.open_row(2), Some(9));

        let r = ch.earliest_column_read(a, 2);
        assert_eq!(r, a + t.t_rcd);
        let (_, data) = ch.issue_column_read_external(r, 2, 4).unwrap();
        assert_eq!(data, &row[128..160]);

        let p = ch.earliest_precharge(2);
        ch.issue_precharge(p, 2).unwrap();
        assert_eq!(ch.open_row(2), None);

        assert_eq!(ch.audit().unwrap().validate(&t), vec![]);
        let s = ch.summary(p);
        assert_eq!(s.stats.activates, 1);
        assert_eq!(s.stats.col_reads_external, 1);
        assert_eq!(s.stats.precharges, 1);
        assert_eq!(s.external_bytes, 32);
        assert_eq!(s.commands, 3);
    }

    #[test]
    fn ganged_activate_uses_one_slot_and_counts_four_acts() {
        let mut ch = channel();
        let t = timing();
        let pairs = [(0, 1), (1, 1), (2, 1), (3, 1)];
        let c = ch.earliest_ganged_activate(&[0, 1, 2, 3]);
        ch.issue_ganged_activate(c, &pairs).unwrap();
        let s = ch.summary(c);
        assert_eq!(s.stats.activates, 4);
        assert_eq!(s.stats.ganged_commands, 1);
        assert_eq!(s.commands, 1);
        // Next gang must wait tFAW.
        assert_eq!(ch.earliest_ganged_activate(&[4, 5, 6, 7]), c + t.t_faw);
        assert_eq!(ch.audit().unwrap().validate(&t), vec![]);
    }

    #[test]
    fn ganged_internal_read_hits_all_banks_in_one_slot() {
        let mut ch = channel();
        let t = timing();
        for bank in 0..4 {
            let row: Vec<u8> = vec![bank as u8; 1024];
            ch.storage_mut().write_row(bank, 0, &row).unwrap();
        }
        let c = ch
            .issue_ganged_activate(0, &[(0, 0), (1, 0), (2, 0), (3, 0)])
            .unwrap();
        let rd = ch.earliest_ganged_column_read(c, &[0, 1, 2, 3]);
        assert_eq!(rd, c + t.t_rcd);
        let mut seen = Vec::new();
        ch.issue_ganged_column_read_internal(
            rd,
            &[(0, 5), (1, 5), (2, 5), (3, 5)],
            |bank, data| {
                seen.push((bank, data[0]));
            },
        )
        .unwrap();
        assert_eq!(seen, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
        let s = ch.summary(rd);
        assert_eq!(s.stats.col_reads_internal, 4);
        assert_eq!(s.external_bytes, 0, "internal reads never touch the PHY");
        assert_eq!(s.commands, 2);
        assert_eq!(ch.audit().unwrap().validate(&t), vec![]);
    }

    /// What is attached to both channels of a train-vs-loop comparison.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Observer {
        None,
        Telemetry,
        /// ECC and telemetry on, the caller passing the clean-rows proof.
        TelemetryEccProof,
        /// ECC on, no proof: the train must expand and run every check.
        EccNoProof,
        Audit,
        /// Both at once: telemetry must count each command once and the
        /// audit must log the same events as under the loop.
        TelemetryAudit,
    }

    const OBSERVERS: [Observer; 6] = [
        Observer::None,
        Observer::Telemetry,
        Observer::TelemetryEccProof,
        Observer::EccNoProof,
        Observer::Audit,
        Observer::TelemetryAudit,
    ];

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Train {
        Comp,
        Gwrite,
    }

    const TRAIN_BANKS: [usize; 4] = [0, 1, 2, 3];

    /// A channel with `observer` attached, banks 0..4 open on row 3 and
    /// both buses already used once.
    fn train_setup(observer: Observer) -> Channel {
        let mut ch = Channel::new(DramConfig::hbm2e_like()).unwrap();
        match observer {
            Observer::None => {}
            Observer::Telemetry => ch.enable_telemetry(64),
            Observer::TelemetryEccProof => {
                ch.storage_mut().enable_ecc().unwrap();
                ch.enable_telemetry(64);
            }
            Observer::EccNoProof => ch.storage_mut().enable_ecc().unwrap(),
            Observer::Audit => ch.enable_audit(),
            Observer::TelemetryAudit => {
                ch.enable_telemetry(64);
                ch.enable_audit();
            }
        }
        for &bank in &TRAIN_BANKS {
            ch.storage_mut()
                .write_row(bank, 3, &vec![bank as u8 + 1; 1024])
                .unwrap();
        }
        ch.issue_broadcast_write(0, 32).unwrap();
        ch.issue_ganged_activate(0, &[(0, 3), (1, 3), (2, 3), (3, 3)])
            .unwrap();
        if observer == Observer::EccNoProof {
            // A correctable fault the activation scrub has not seen: only
            // a per-column check on the expanding leg can find it.
            ch.storage_mut().flip_bit(1, 3, 64 * 5 + 9).unwrap();
        }
        ch
    }

    /// Everything a train may touch, in comparable form. The `earliest_*`
    /// answers stand for the bank gates, the bus slots, the data bus and
    /// the tFAW window the next command would be checked against.
    #[derive(Debug, PartialEq)]
    struct TrainSurface {
        summary: RunSummary,
        earliest_activate: Vec<Cycle>,
        earliest_ganged_column_read: Cycle,
        earliest_broadcast_write: Cycle,
        earliest_precharge_all: Cycle,
        audit: Option<Vec<AuditEvent>>,
        verified: Vec<bool>,
    }

    fn train_surface(ch: &Channel, end: Cycle) -> TrainSurface {
        TrainSurface {
            summary: ch.summary(end),
            earliest_activate: TRAIN_BANKS
                .iter()
                .map(|&b| ch.earliest_activate(b))
                .collect(),
            earliest_ganged_column_read: ch.earliest_ganged_column_read(0, &TRAIN_BANKS),
            earliest_broadcast_write: ch.earliest_broadcast_write(0),
            earliest_precharge_all: ch.earliest_precharge_all(),
            audit: ch.audit().map(|a| a.events().collect()),
            verified: TRAIN_BANKS
                .iter()
                .map(|&b| ch.storage().row_verified(b, 3))
                .collect(),
        }
    }

    /// Runs `count` commands as a sequential single-command loop on one
    /// channel and as one train on its twin, and compares every surface —
    /// counters, `earliest_*` answers, telemetry series and audit events —
    /// right after the train and again after closing the row set.
    fn assert_train_matches_loop(train: Train, observer: Observer, count: usize) {
        let what = format!("{train:?} {observer:?} count={count}");
        let mut looped = train_setup(observer);
        let mut trained = train_setup(observer);
        let step = looped.timing().col_step();
        let earliest = |ch: &Channel, after: Cycle| match train {
            Train::Comp => ch.earliest_ganged_column_read(after, &TRAIN_BANKS),
            Train::Gwrite => ch.earliest_broadcast_write(after),
        };
        let t0 = earliest(&looped, 7);
        let mut last = t0;
        for i in 0..count {
            let c = earliest(&looped, if i == 0 { 7 } else { 0 });
            assert_eq!(c, t0 + i as Cycle * step, "{what}: cursor invariant");
            match train {
                Train::Comp => {
                    let pairs: Vec<(usize, usize)> = TRAIN_BANKS.iter().map(|&b| (b, i)).collect();
                    looped
                        .issue_ganged_column_read_internal(c, &pairs, |_, _| {})
                        .unwrap();
                }
                Train::Gwrite => {
                    looped.issue_broadcast_write(c, 32).unwrap();
                }
            }
            last = c;
        }
        let train_last = match train {
            Train::Comp => trained.issue_comp_train(
                t0,
                step,
                count,
                &TRAIN_BANKS,
                observer == Observer::TelemetryEccProof,
            ),
            Train::Gwrite => trained.issue_broadcast_write_train(t0, step, count, 32),
        }
        .unwrap();
        assert_eq!(train_last, last, "{what}: last command cycle");
        let end = last + 100;
        assert_eq!(
            train_surface(&looped, end),
            train_surface(&trained, end),
            "{what}"
        );
        if observer == Observer::EccNoProof && train == Train::Comp && count > 1 {
            assert_eq!(trained.stats().ecc_corrected, 1, "{what}: check ran");
        }
        if observer == Observer::Audit && train == Train::Comp {
            let col_reads = trained.audit().unwrap().events().filter(|e| {
                matches!(
                    e,
                    AuditEvent::ColRd {
                        external: false,
                        ..
                    }
                )
            });
            assert_eq!(col_reads.count(), count * TRAIN_BANKS.len(), "{what}");
            assert_eq!(trained.audit().unwrap().validate(&timing()), vec![]);
        }
        // Future behavior matches: close the row set on both.
        let p = looped.earliest_precharge_all();
        looped.issue_precharge_all(p).unwrap();
        trained.issue_precharge_all(p).unwrap();
        assert_eq!(
            train_surface(&looped, p + 50),
            train_surface(&trained, p + 50),
            "{what}: after precharge"
        );
    }

    #[test]
    fn trains_match_the_sequential_loop_under_every_observer() {
        for train in [Train::Comp, Train::Gwrite] {
            for observer in OBSERVERS {
                for count in [1usize, 2, 32] {
                    assert_train_matches_loop(train, observer, count);
                }
            }
        }
    }

    #[test]
    fn a_train_that_cannot_issue_whole_leaves_the_channel_untouched() {
        // Same error and no side effect whatever is attached.
        let mut errors = Vec::new();
        for observer in [Observer::Audit, Observer::None] {
            let mut ch = train_setup(observer);
            let step = ch.timing().col_step();
            let cols = ch.config().cols_per_row;
            let t0 = ch.earliest_ganged_column_read(0, &TRAIN_BANKS);
            let g0 = ch.earliest_broadcast_write(0);
            let before = train_surface(&ch, 1000);
            let stats = *ch.stats();
            let too_long = ch
                .issue_comp_train(t0, step, cols + 1, &TRAIN_BANKS, false)
                .unwrap_err();
            assert_eq!(
                too_long,
                DramError::AddressOutOfRange {
                    kind: "column",
                    index: cols + 1,
                    limit: cols
                }
            );
            let too_early = ch
                .issue_comp_train(t0 - 1, step, 8, &TRAIN_BANKS, false)
                .unwrap_err();
            assert!(matches!(too_early, DramError::Timing { .. }));
            let too_dense = ch
                .issue_comp_train(t0, 1, 8, &TRAIN_BANKS, false)
                .unwrap_err();
            let gwrite_early = ch
                .issue_broadcast_write_train(g0 - 1, step, 4, 32)
                .unwrap_err();
            let gwrite_dense = ch.issue_broadcast_write_train(g0, 1, 4, 32).unwrap_err();
            assert_eq!(*ch.stats(), stats, "{observer:?}");
            assert_eq!(train_surface(&ch, 1000), before, "{observer:?}");
            errors.push((too_long, too_early, too_dense, gwrite_early, gwrite_dense));
        }
        assert_eq!(errors[0], errors[1]);
    }

    #[test]
    fn prescrubbed_activate_matches_scrubbing_activate_on_verified_rows() {
        let mk = || {
            let mut ch = Channel::new(DramConfig::hbm2e_like()).unwrap();
            ch.storage_mut().enable_ecc().unwrap();
            ch.enable_telemetry(64);
            for bank in [0, 1] {
                let storage = ch.storage_mut();
                storage.write_row(bank, 5, &vec![9u8; 1024]).unwrap();
                assert_eq!(storage.scrub_row(bank, 5), Ok(0));
            }
            ch
        };
        let mut scrubbed = mk();
        let mut pristine = mk();
        scrubbed
            .issue_ganged_activate(0, &[(0, 5), (1, 5)])
            .unwrap();
        pristine
            .issue_ganged_activate_prescrubbed(0, &[(0, 5), (1, 5)])
            .unwrap();
        assert_eq!(scrubbed.summary(100), pristine.summary(100));
        for ch in [&scrubbed, &pristine] {
            assert!(ch.storage().row_verified(0, 5) && ch.storage().row_verified(1, 5));
        }
    }

    #[test]
    fn early_commands_are_rejected_not_clamped() {
        let mut ch = channel();
        let t = timing();
        ch.issue_activate(0, 0, 0).unwrap();
        let err = ch
            .issue_column_read_external(t.t_rcd - 1, 0, 0)
            .unwrap_err();
        assert!(matches!(err, DramError::Timing { .. }));
        // Row bus slot / tRRD also enforced: second ACT at the same cycle.
        let err = ch.issue_activate(0, 1, 0).unwrap_err();
        assert!(matches!(err, DramError::Timing { .. }));
    }

    #[test]
    fn row_and_column_buses_are_independent() {
        let mut ch = channel();
        let t = timing();
        ch.issue_activate(0, 0, 0).unwrap();
        // A column command may share cycle tRCD with a row command on the
        // other bus.
        ch.issue_activate(t.t_rrd.max(t.t_cmd), 1, 0).unwrap();
        // Column read on bank 0 at tRCD: row bus just used nearby, but the
        // column bus is free.
        ch.issue_column_read_external(t.t_rcd, 0, 0).unwrap();
        assert_eq!(ch.audit().unwrap().validate(&t), vec![]);
    }

    #[test]
    fn precharge_all_closes_every_open_bank() {
        let mut ch = channel();
        let t = timing();
        let c0 = ch
            .issue_ganged_activate(0, &[(0, 3), (1, 3), (2, 3), (3, 3)])
            .unwrap();
        let p = ch.earliest_precharge_all();
        assert!(p >= c0 + t.t_ras);
        ch.issue_precharge_all(p).unwrap();
        for bank in 0..4 {
            assert_eq!(ch.open_row(bank), None);
        }
        assert_eq!(ch.summary(p).stats.precharges, 4);
        assert_eq!(ch.audit().unwrap().validate(&t), vec![]);
    }

    #[test]
    fn refresh_blocks_activation_for_trfc_and_resets_deadline() {
        let mut ch = channel();
        let t = timing();
        assert_eq!(ch.refresh_due(), t.t_refi);
        ch.issue_refresh_all(100).unwrap();
        assert_eq!(ch.refresh_due(), 100 + t.t_refi);
        let a = ch.earliest_activate(0);
        assert_eq!(a, 100 + t.t_rfc);
        ch.issue_activate(a, 0, 0).unwrap();
        assert_eq!(ch.audit().unwrap().validate(&t), vec![]);
    }

    #[test]
    fn refresh_requires_idle_banks() {
        let mut ch = channel();
        ch.issue_activate(0, 0, 0).unwrap();
        assert!(matches!(
            ch.issue_refresh_all(1000),
            Err(DramError::BankState { .. })
        ));
    }

    #[test]
    fn overdue_refresh_blocks_new_activations() {
        let mut ch = channel();
        let t = timing();
        let late = t.t_refi + 1;
        let err = ch.issue_activate(late, 0, 0).unwrap_err();
        assert!(matches!(err, DramError::RefreshOverdue { .. }));
        // With refresh disabled, the same activation succeeds.
        let mut ch = channel();
        ch.disable_refresh();
        assert_eq!(ch.refresh_due(), Cycle::MAX);
        ch.issue_activate(late, 0, 0).unwrap();
    }

    #[test]
    fn broadcast_and_result_commands_use_slot_and_phy_only() {
        let mut ch = channel();
        let t = timing();
        let c = ch.issue_broadcast_write(0, 32).unwrap();
        let c2 = ch.earliest_broadcast_write(c);
        assert_eq!(c2, c + t.t_cmd);
        ch.issue_broadcast_write(c2, 32).unwrap();
        let c3 = ch.earliest_result_read(c2);
        ch.issue_result_read(c3, 32).unwrap();
        let s = ch.summary(c3);
        assert_eq!(s.stats.broadcast_bytes, 64);
        assert_eq!(s.external_bytes, 96);
        assert_eq!(s.stats.activates, 0);
    }

    #[test]
    fn out_of_range_addresses_rejected_everywhere() {
        let mut ch = channel();
        assert!(ch.issue_activate(0, 16, 0).is_err());
        assert!(ch.issue_activate(0, 0, 40_000).is_err());
        ch.issue_activate(0, 0, 0).unwrap();
        let t = *ch.timing();
        assert!(ch
            .issue_ganged_column_read_internal(t.t_rcd, &[(0, 99)], |_, _| {})
            .is_err());
    }

    #[test]
    fn sixteen_bank_staggered_activation_respects_faw_audit() {
        // Activate all 16 banks as fast as legality allows, then audit.
        let mut ch = channel();
        let t = timing();
        for bank in 0..16 {
            let c = ch.earliest_activate(bank);
            ch.issue_activate(c, bank, 0).unwrap();
        }
        assert_eq!(ch.audit().unwrap().validate(&t), vec![]);
        // 16 singles: groups of 4 fit per tFAW window; the 16th lands at
        // >= 3 * tFAW.
        let acts: Vec<_> = ch
            .audit()
            .unwrap()
            .events()
            .filter_map(|e| match e {
                AuditEvent::Act { cycle, .. } => Some(cycle),
                _ => None,
            })
            .collect();
        assert_eq!(acts.len(), 16);
        assert!(acts[15] >= 3 * t.t_faw);
    }

    #[test]
    fn telemetry_series_mirrors_the_stat_counters() {
        use newton_trace::EnergyModel;
        let mut ch = channel();
        let t = timing();
        ch.enable_telemetry(64);
        assert!(ch.telemetry().is_some());
        for bank in 0..4 {
            ch.storage_mut()
                .write_row(bank, 0, &vec![1u8; 1024])
                .unwrap();
        }
        let a = ch
            .issue_ganged_activate(0, &[(0, 0), (1, 0), (2, 0), (3, 0)])
            .unwrap();
        ch.issue_ganged_column_read_internal(
            a + t.t_rcd,
            &[(0, 0), (1, 0), (2, 0), (3, 0)],
            |_, _| {},
        )
        .unwrap();
        ch.issue_result_read(a + t.t_rcd + t.t_ccd, 32).unwrap();
        let p = ch.earliest_precharge_all();
        ch.issue_precharge_all(p).unwrap();
        let end = p + t.t_rp;
        let s = ch.summary(end);
        let series = s.telemetry.as_ref().expect("telemetry in summary");
        let totals = series.totals();
        // Event counts must equal the postprocessed stat counters —
        // this is what makes streamed energy match the Fig. 13 model.
        assert_eq!(totals.activates, s.stats.activates);
        assert_eq!(totals.comp_ops, s.stats.col_reads_internal);
        assert_eq!(
            totals.array_accesses,
            s.stats.col_reads_internal + s.stats.col_reads_external + s.stats.col_writes_external
        );
        assert_eq!(totals.bus_bytes, s.external_bytes);
        assert_eq!(totals.bank_open_cycles, s.bank_open_cycles);
        assert_eq!(totals.ganged_act_banks, 4);
        // Streamed fixed-point energy agrees with the coefficients.
        let m = EnergyModel::new();
        let expect_pj = m.act_pj(4) + m.comp_pj(4) + m.phy_pj(32);
        assert_eq!(totals.energy_milli_pj, (expect_pj * 1000.0).round() as u64);
        assert_eq!(series.dynamic_energy_pj(&m), m.window_pj(&totals));
        // Per-bank attribution saw the four activates and COMPs.
        assert_eq!(series.per_bank()[0].activates, 1);
        assert_eq!(series.per_bank()[0].comp_ops, 1);
        assert_eq!(series.per_bank()[8].activates, 0);
        // Windows pad to the end cycle.
        assert_eq!(series.windows().len(), (end as usize).div_ceil(64));
    }

    #[test]
    fn summary_residency_sums_to_elapsed_for_every_bank() {
        let mut ch = channel();
        let t = timing();
        ch.issue_ganged_activate(0, &[(0, 0), (1, 0), (2, 0), (3, 0)])
            .unwrap();
        ch.issue_ganged_column_read_internal(t.t_rcd, &[(0, 0), (1, 0), (2, 0), (3, 0)], |_, _| {})
            .unwrap();
        let p = ch.earliest_precharge_all();
        ch.issue_precharge_all(p).unwrap();
        let end = p + t.t_rp + 50;
        let s = ch.summary(end);
        assert_eq!(s.residency.len(), 16);
        for (bank, r) in s.residency.iter().enumerate() {
            assert_eq!(r.total(), end, "bank {bank} residency must sum to elapsed");
        }
        // The four touched banks computed for one tCCD each.
        for r in &s.residency[..4] {
            assert_eq!(r.computing, t.t_ccd);
            assert_eq!(r.precharging, t.t_rp);
        }
        // Untouched banks were idle the whole time.
        assert_eq!(s.residency[8].idle, end);
        // Activity metadata: first command at cycle 0, gaps recorded.
        assert_eq!(s.activity_start, 0);
        assert_eq!(s.row_slot_gaps.count(), 1);
        assert_eq!(s.col_slot_gaps.count(), 0);
    }

    #[test]
    fn external_read_stream_saturates_at_tccd() {
        // Back-to-back reads from two banks reach one column per tCCD —
        // the external-bandwidth ceiling the Ideal Non-PIM model assumes.
        let mut ch = channel();
        let t = timing();
        ch.issue_activate(0, 0, 0).unwrap();
        ch.issue_activate(t.t_rrd.max(t.t_cmd), 1, 0).unwrap();
        let mut c = t.t_rcd;
        let n = 64;
        for i in 0..n {
            let bank = (i % 2) as usize;
            let rd = ch.earliest_column_read(c, bank);
            ch.issue_column_read_external(rd, bank, (i / 2 % 32) as usize)
                .unwrap();
            c = rd;
        }
        // First read at tRCD, each subsequent exactly tCCD later.
        assert_eq!(c, t.t_rcd + (n - 1) * t.t_ccd);
        assert_eq!(ch.audit().unwrap().validate(&t), vec![]);
    }
}
