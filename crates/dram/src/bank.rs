//! Per-bank state machine and same-bank timing constraints.
//!
//! Each bank tracks its open row plus the earliest legal cycle for each
//! command class, updated as commands are applied. Cross-bank constraints
//! (tRRD, tFAW, command bus, data bus) live in [`crate::faw`] and
//! [`crate::bus`]; the channel combines all of them.

use crate::error::DramError;
use crate::timing::{Cycle, Timing};
use newton_trace::{BankClass, Residency, ResidencyTracker};

/// The row-buffer state of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// All rows closed (precharged).
    Idle,
    /// The given row is open in the bank's sense amplifiers.
    Active {
        /// The open row index.
        row: usize,
    },
}

impl BankState {
    /// The open row, if any.
    #[must_use]
    pub(crate) fn open_row(self) -> Option<usize> {
        match self {
            BankState::Idle => None,
            BankState::Active { row } => Some(row),
        }
    }
}

/// One DRAM bank: FSM state plus earliest-legal-cycle bookkeeping for
/// same-bank constraints (tRCD, tRP, tRAS, tRC, tCCD, tRTP, tWR).
///
/// The bank is a *mechanism*: it validates and applies commands at given
/// cycles but never chooses times itself — that is the controller's job.
#[derive(Debug, Clone)]
pub struct Bank {
    index: usize,
    state: BankState,
    /// Cycle of the most recent ACT (drives tRAS/tRC).
    last_act: Option<Cycle>,
    /// Earliest legal cycle for the next ACT (tRP after PRE, tRC after ACT,
    /// tRFC after refresh).
    earliest_act: Cycle,
    /// Earliest legal cycle for the next column command (tRCD after ACT,
    /// tCCD after a column command).
    earliest_col: Cycle,
    /// Earliest legal cycle for PRE (tRAS after ACT, tRTP after READ,
    /// tWR after write data).
    earliest_pre: Cycle,
    /// Total cycles this bank has spent with a row open (energy accounting;
    /// the open interval in progress is added at precharge time).
    open_cycles: Cycle,
    /// Cycle-attribution across idle/row-open/precharging/refreshing/
    /// computing states; every cycle lands in exactly one class.
    residency: ResidencyTracker,
}

impl Bank {
    /// Creates an idle bank with the given index (used in error reports).
    #[must_use]
    pub(crate) fn new(index: usize) -> Bank {
        Bank {
            index,
            state: BankState::Idle,
            last_act: None,
            earliest_act: 0,
            earliest_col: 0,
            earliest_pre: 0,
            open_cycles: 0,
            residency: ResidencyTracker::new(),
        }
    }

    /// Current FSM state.
    #[must_use]
    pub(crate) fn state(&self) -> BankState {
        self.state
    }

    /// Cycles spent with a row open, up to the last precharge.
    #[must_use]
    pub(crate) fn open_cycles(&self) -> Cycle {
        self.open_cycles
    }

    /// Cycle attribution from cycle 0 through `end`, with every cycle in
    /// exactly one [`BankClass`] (so the classes sum to `end`).
    #[must_use]
    pub(crate) fn residency(&self, end: Cycle) -> Residency {
        self.residency.snapshot(end)
    }

    /// Earliest legal cycle for an ACT, assuming the bank is idle.
    #[must_use]
    pub(crate) fn earliest_activate(&self) -> Cycle {
        self.earliest_act
    }

    /// Earliest legal cycle for a column command (the bank must be active).
    #[must_use]
    pub(crate) fn earliest_column(&self) -> Cycle {
        self.earliest_col
    }

    /// Earliest legal cycle for a PRE.
    #[must_use]
    pub(crate) fn earliest_precharge(&self) -> Cycle {
        self.earliest_pre
    }

    /// Applies an ACT at `cycle` opening `row`.
    ///
    /// # Errors
    ///
    /// [`DramError::BankState`] if a row is already open;
    /// [`DramError::Timing`] if `cycle` precedes the earliest legal ACT.
    pub(crate) fn activate(
        &mut self,
        cycle: Cycle,
        row: usize,
        t: &Timing,
    ) -> Result<(), DramError> {
        if let BankState::Active { row: open } = self.state {
            return Err(DramError::BankState {
                bank: self.index,
                attempted: "activate",
                actual: format!("Active {{ row: {open} }}"),
            });
        }
        if cycle < self.earliest_act {
            return Err(DramError::Timing {
                constraint: "tRP/tRC (activate)",
                issued: cycle,
                earliest: self.earliest_act,
                bank: Some(self.index),
            });
        }
        self.state = BankState::Active { row };
        self.residency.transition(cycle, BankClass::RowOpen);
        self.last_act = Some(cycle);
        self.earliest_col = cycle + t.t_rcd;
        self.earliest_pre = cycle + t.t_ras;
        // tRC lower-bounds the next ACT even if PRE comes early.
        self.earliest_act = cycle + t.t_rc();
        Ok(())
    }

    /// Applies a column read at `cycle`. Returns the open row index so the
    /// caller can fetch data from storage.
    ///
    /// `is_write` selects the write-recovery constraint for the following
    /// precharge instead of read-to-precharge.
    ///
    /// # Errors
    ///
    /// [`DramError::BankState`] if no row is open; [`DramError::Timing`]
    /// if tRCD/tCCD would be violated.
    pub(crate) fn column_access(
        &mut self,
        cycle: Cycle,
        is_write: bool,
        t: &Timing,
    ) -> Result<usize, DramError> {
        let row = match self.state {
            BankState::Active { row } => row,
            BankState::Idle => {
                return Err(DramError::BankState {
                    bank: self.index,
                    attempted: if is_write {
                        "column write"
                    } else {
                        "column read"
                    },
                    actual: "Idle".into(),
                })
            }
        };
        if cycle < self.earliest_col {
            return Err(DramError::Timing {
                constraint: "tRCD/tCCD (column)",
                issued: cycle,
                earliest: self.earliest_col,
                bank: Some(self.index),
            });
        }
        self.earliest_col = cycle + t.t_ccd;
        let pre_gate = if is_write {
            // Write data lands tAA after the command; recovery runs from
            // the end of the burst (approximated as the data beat).
            cycle + t.t_aa + t.t_wr
        } else {
            cycle + t.t_rtp
        };
        self.earliest_pre = self.earliest_pre.max(pre_gate);
        Ok(row)
    }

    /// Applies a PRE at `cycle`, closing the open row.
    ///
    /// Precharging an idle bank is a no-op in real DRAM; we reject it to
    /// surface controller bugs early.
    ///
    /// # Errors
    ///
    /// [`DramError::BankState`] if no row is open; [`DramError::Timing`]
    /// if tRAS/tRTP/tWR would be violated.
    pub(crate) fn precharge(&mut self, cycle: Cycle, t: &Timing) -> Result<(), DramError> {
        match self.state {
            BankState::Active { .. } => {}
            BankState::Idle => {
                return Err(DramError::BankState {
                    bank: self.index,
                    attempted: "precharge",
                    actual: "Idle".into(),
                })
            }
        }
        if cycle < self.earliest_pre {
            return Err(DramError::Timing {
                constraint: "tRAS/tRTP/tWR (precharge)",
                issued: cycle,
                earliest: self.earliest_pre,
                bank: Some(self.index),
            });
        }
        if let Some(act) = self.last_act {
            self.open_cycles += cycle - act;
        }
        self.state = BankState::Idle;
        self.residency.transient(
            cycle,
            BankClass::Precharging,
            cycle + t.t_rp,
            BankClass::Idle,
        );
        self.earliest_act = self.earliest_act.max(cycle + t.t_rp);
        Ok(())
    }

    /// Blocks the bank from `cycle` until `until` (used for all-bank
    /// refresh: the bank must already be idle; the next ACT may not start
    /// before tRFC ends).
    ///
    /// # Errors
    ///
    /// [`DramError::BankState`] if a row is open when refresh starts.
    pub(crate) fn block_for_refresh(
        &mut self,
        cycle: Cycle,
        until: Cycle,
    ) -> Result<(), DramError> {
        if let BankState::Active { row } = self.state {
            return Err(DramError::BankState {
                bank: self.index,
                attempted: "refresh",
                actual: format!("Active {{ row: {row} }}"),
            });
        }
        self.residency
            .transient(cycle, BankClass::Refreshing, until, BankClass::Idle);
        self.earliest_act = self.earliest_act.max(until);
        Ok(())
    }

    /// Marks an AiM-internal column access (COMP/MAC) at `cycle`: the bank
    /// counts as *computing* for the tCCD burst, then returns to row-open.
    /// Called by the channel after a successful internal `column_access`.
    pub(crate) fn note_internal_access(&mut self, cycle: Cycle, t: &Timing) {
        self.residency.transient(
            cycle,
            BankClass::Computing,
            cycle + t.t_ccd,
            BankClass::RowOpen,
        );
    }

    /// Validates a [`comp_burst`](Bank::comp_burst) without applying it:
    /// every error that call can raise, with no state change. Lets the
    /// channel pre-flight a whole gang before committing any bank.
    ///
    /// # Errors
    ///
    /// As [`comp_burst`](Bank::comp_burst).
    pub(crate) fn check_comp_burst(
        &self,
        start: Cycle,
        step: Cycle,
        count: usize,
        t: &Timing,
    ) -> Result<usize, DramError> {
        let row = match self.state {
            BankState::Active { row } => row,
            BankState::Idle => {
                return Err(DramError::BankState {
                    bank: self.index,
                    attempted: "column read",
                    actual: "Idle".into(),
                })
            }
        };
        if count == 0 {
            return Ok(row);
        }
        if start < self.earliest_col {
            return Err(DramError::Timing {
                constraint: "tRCD/tCCD (column)",
                issued: start,
                earliest: self.earliest_col,
                bank: Some(self.index),
            });
        }
        if count > 1 && step < t.t_ccd {
            return Err(DramError::Timing {
                constraint: "tRCD/tCCD (column)",
                issued: start + step,
                earliest: start + t.t_ccd,
                bank: Some(self.index),
            });
        }
        Ok(row)
    }

    /// Applies `count` internal column reads at `start, start + step, ...`
    /// in one call. State-equivalent to `count` iterations of
    /// `column_access(cycle, false, t)` + `note_internal_access(cycle, t)`,
    /// but O(1) in `count`. Returns the open row index.
    ///
    /// # Errors
    ///
    /// [`DramError::BankState`] if no row is open; [`DramError::Timing`]
    /// if the first access is before tRCD/tCCD allows or (for multi-access
    /// trains) `step` is below tCCD. Unlike the loop, nothing is applied on
    /// failure.
    pub(crate) fn comp_burst(
        &mut self,
        start: Cycle,
        step: Cycle,
        count: usize,
        t: &Timing,
    ) -> Result<usize, DramError> {
        let row = self.check_comp_burst(start, step, count, t)?;
        if count == 0 {
            return Ok(row);
        }
        let last = start + (count as Cycle - 1) * step;
        self.earliest_col = last + t.t_ccd;
        // tRTP gates run from each access; the last one dominates because
        // the train is monotone.
        self.earliest_pre = self.earliest_pre.max(last + t.t_rtp);
        self.residency.pulse_train(
            start,
            step,
            count as u64,
            BankClass::Computing,
            t.t_ccd,
            BankClass::RowOpen,
        );
        Ok(row)
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
    fn activate_then_read_then_precharge_cycle() {
        let t = timing();
        let mut b = Bank::new(0);
        assert_eq!(b.state(), BankState::Idle);
        b.activate(0, 42, &t).unwrap();
        assert_eq!(b.state().open_row(), Some(42));

        // Column before tRCD is rejected.
        let err = b.column_access(t.t_rcd - 1, false, &t).unwrap_err();
        assert!(matches!(err, DramError::Timing { constraint, .. } if constraint.contains("tRCD")));

        let row = b.column_access(t.t_rcd, false, &t).unwrap();
        assert_eq!(row, 42);

        // Back-to-back column must wait tCCD.
        assert_eq!(b.earliest_column(), t.t_rcd + t.t_ccd);

        // Precharge gated by tRAS.
        assert!(b.precharge(t.t_ras - 1, &t).is_err());
        b.precharge(t.t_ras, &t).unwrap();
        assert_eq!(b.state(), BankState::Idle);
        assert_eq!(b.open_cycles(), t.t_ras);

        // Next activate gated by tRP (and tRC, which is equal here).
        assert_eq!(b.earliest_activate(), t.t_ras + t.t_rp);
        assert!(b.activate(t.t_ras + t.t_rp - 1, 1, &t).is_err());
        b.activate(t.t_ras + t.t_rp, 1, &t).unwrap();
    }

    #[test]
    fn double_activate_is_a_state_error() {
        let t = timing();
        let mut b = Bank::new(7);
        b.activate(0, 5, &t).unwrap();
        let err = b.activate(1000, 6, &t).unwrap_err();
        assert!(matches!(err, DramError::BankState { bank: 7, .. }));
    }

    #[test]
    fn column_on_idle_bank_is_a_state_error() {
        let t = timing();
        let mut b = Bank::new(2);
        assert!(b.column_access(100, false, &t).is_err());
        assert!(b.precharge(100, &t).is_err());
    }

    #[test]
    fn read_to_precharge_extends_pre_gate() {
        let t = timing();
        let mut b = Bank::new(0);
        b.activate(0, 0, &t).unwrap();
        // Read late in the tRAS window: tRTP now dominates.
        let late = t.t_ras - 2;
        // Walk earliest_col forward legally.
        let mut c = t.t_rcd;
        while c < late {
            b.column_access(c, false, &t).unwrap();
            c += t.t_ccd;
        }
        b.column_access(c, false, &t).unwrap();
        assert_eq!(b.earliest_precharge(), c + t.t_rtp);
    }

    #[test]
    fn write_recovery_gates_precharge_longer_than_read() {
        let t = timing();
        let mut b = Bank::new(0);
        b.activate(0, 0, &t).unwrap();
        b.column_access(t.t_rcd, true, &t).unwrap();
        assert_eq!(
            b.earliest_precharge(),
            (t.t_rcd + t.t_aa + t.t_wr).max(t.t_ras)
        );
    }

    #[test]
    fn trc_gates_next_activate_even_after_early_pre() {
        let t = timing();
        let mut b = Bank::new(0);
        b.activate(0, 0, &t).unwrap();
        b.precharge(t.t_ras, &t).unwrap();
        // tRC = tRAS + tRP equals the PRE + tRP path here; verify both gates.
        assert_eq!(b.earliest_activate(), t.t_rc());
    }

    #[test]
    fn refresh_blocks_until_trfc_and_requires_idle() {
        let t = timing();
        let mut b = Bank::new(0);
        b.block_for_refresh(100, 500).unwrap();
        assert_eq!(b.earliest_activate(), 500);
        b.activate(500, 0, &t).unwrap();
        assert!(b.block_for_refresh(600, 700).is_err());
    }

    #[test]
    fn residency_classes_sum_to_elapsed() {
        let t = timing();
        let mut b = Bank::new(0);
        b.activate(10, 0, &t).unwrap();
        b.column_access(10 + t.t_rcd, false, &t).unwrap();
        b.precharge(10 + t.t_ras, &t).unwrap();
        let end = 10 + t.t_ras + t.t_rp + 25;
        let r = b.residency(end);
        assert_eq!(r.total(), end);
        assert_eq!(r.get(BankClass::RowOpen), t.t_ras);
        assert_eq!(r.get(BankClass::Precharging), t.t_rp);
        assert_eq!(r.get(BankClass::Idle), end - t.t_ras - t.t_rp);
    }

    #[test]
    fn internal_access_counts_as_computing() {
        let t = timing();
        let mut b = Bank::new(0);
        b.activate(0, 0, &t).unwrap();
        b.column_access(t.t_rcd, false, &t).unwrap();
        b.note_internal_access(t.t_rcd, &t);
        let end = t.t_rcd + 10 * t.t_ccd;
        let r = b.residency(end);
        assert_eq!(r.get(BankClass::Computing), t.t_ccd);
        assert_eq!(r.get(BankClass::RowOpen), end - t.t_ccd);
        assert_eq!(r.total(), end);
    }
}
