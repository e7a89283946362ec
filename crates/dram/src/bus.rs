//! The command bus and the external data bus.
//!
//! The command bus is the scarce resource at the heart of the paper's
//! interface optimizations: every command — conventional or AiM — occupies
//! one slot, and slots are spaced by the inter-command delay ("DRAM
//! commands must be separated by a specified delay (e.g., 4 cycles)",
//! Sec. III-D). Ganged commands (G_ACT, all-bank COMP, READRES) perform
//! many bank operations but still consume a *single* slot, which is exactly
//! how Newton saves the 16× and 3× command bandwidth the paper reports.
//!
//! The external data bus models the serialized path from the banks through
//! the global bus to the host (Sec. II-A). AiM-internal column accesses do
//! *not* occupy it — that is PIM's bandwidth advantage.

use crate::error::DramError;
use crate::timing::{Cycle, Timing};
use newton_trace::Log2Histogram;

/// The shared command bus: one command per slot, slots spaced by tCMD.
#[derive(Debug, Clone, Default)]
pub struct CommandBus {
    last_issue: Option<Cycle>,
    issued: u64,
    /// Distribution of gaps between consecutive slots (in cycles); a bus
    /// pinned at tCMD is saturated, long tails are idle command bandwidth.
    gaps: Log2Histogram,
}

impl CommandBus {
    /// Creates an idle command bus.
    #[must_use]
    pub(crate) fn new() -> CommandBus {
        CommandBus::default()
    }

    /// Earliest cycle `>= hint` at which the next command may issue.
    #[must_use]
    pub(crate) fn earliest_slot(&self, hint: Cycle, t: &Timing) -> Cycle {
        hint.max(self.slot_floor(t))
    }

    /// The hint-independent slot floor: the first cycle the bus itself
    /// allows a command (0 when the bus has never issued). Schedulers
    /// comparing many candidates fold this in once per round instead of
    /// calling [`CommandBus::earliest_slot`] per candidate.
    #[must_use]
    fn slot_floor(&self, t: &Timing) -> Cycle {
        match self.last_issue {
            Some(last) => last + t.t_cmd,
            None => 0,
        }
    }

    /// Claims the slot at `cycle`.
    ///
    /// # Errors
    ///
    /// [`DramError::Timing`] if `cycle` is earlier than the slot spacing
    /// allows or would reorder the command stream.
    pub(crate) fn issue(&mut self, cycle: Cycle, t: &Timing) -> Result<(), DramError> {
        let earliest = self.earliest_slot(0, t);
        if cycle < earliest {
            return Err(DramError::Timing {
                constraint: "tCMD (command bus slot)",
                issued: cycle,
                earliest,
                bank: None,
            });
        }
        if let Some(last) = self.last_issue {
            self.gaps.record(cycle - last);
        }
        self.last_issue = Some(cycle);
        self.issued += 1;
        Ok(())
    }

    /// Whether `count` slots at `start, start + step, ...` could be
    /// claimed right now: the validation half of
    /// [`CommandBus::issue_train`], so a caller can pre-flight a train
    /// before mutating anything.
    ///
    /// # Errors
    ///
    /// [`DramError::Timing`] if the first slot is earlier than the bus
    /// allows or (for multi-slot trains) `step` is below tCMD.
    pub(crate) fn check_train(
        &self,
        start: Cycle,
        step: Cycle,
        count: usize,
        t: &Timing,
    ) -> Result<(), DramError> {
        if count == 0 {
            return Ok(());
        }
        let earliest = self.earliest_slot(0, t);
        if start < earliest {
            return Err(DramError::Timing {
                constraint: "tCMD (command bus slot)",
                issued: start,
                earliest,
                bank: None,
            });
        }
        if count > 1 && step < t.t_cmd {
            return Err(DramError::Timing {
                constraint: "tCMD (command bus slot)",
                issued: start + step,
                earliest: start + t.t_cmd,
                bank: None,
            });
        }
        Ok(())
    }

    /// Claims `count` slots at `start, start + step, ...` in one call.
    /// State-equivalent to `count` sequential [`CommandBus::issue`] calls
    /// at those cycles, but O(1): the regular spacing folds into a single
    /// histogram update.
    ///
    /// # Errors
    ///
    /// As [`CommandBus::check_train`]. Unlike the sequential loop,
    /// nothing is recorded on failure.
    pub(crate) fn issue_train(
        &mut self,
        start: Cycle,
        step: Cycle,
        count: usize,
        t: &Timing,
    ) -> Result<(), DramError> {
        self.check_train(start, step, count, t)?;
        if count == 0 {
            return Ok(());
        }
        if let Some(last) = self.last_issue {
            self.gaps.record(start - last);
        }
        self.gaps.record_n(step, count as u64 - 1);
        self.last_issue = Some(start + (count as Cycle - 1) * step);
        self.issued += count as u64;
        Ok(())
    }

    /// Total commands issued (the denominator of command-bandwidth
    /// utilization).
    #[must_use]
    pub(crate) fn issued(&self) -> u64 {
        self.issued
    }

    /// Distribution of inter-slot gaps (cycles between consecutive
    /// commands). Empty until at least two commands have issued.
    #[must_use]
    pub(crate) fn slot_gaps(&self) -> &Log2Histogram {
        &self.gaps
    }
}

/// The external data bus (global bus + PHY): one burst at a time.
#[derive(Debug, Clone, Default)]
pub struct DataBus {
    busy_until: Cycle,
    bytes: u64,
}

impl DataBus {
    /// Creates an idle data bus.
    #[must_use]
    pub(crate) fn new() -> DataBus {
        DataBus::default()
    }

    /// Earliest cycle `>= hint` at which a new burst may start.
    #[must_use]
    pub(crate) fn earliest_transfer(&self, hint: Cycle) -> Cycle {
        hint.max(self.busy_until)
    }

    /// Occupies the bus for one burst of `bytes` starting at `start`;
    /// the burst lasts tCCD (the column cadence — the bus is saturated when
    /// bursts are back to back).
    ///
    /// # Errors
    ///
    /// [`DramError::Timing`] if the bus is still busy at `start`.
    pub(crate) fn transfer(
        &mut self,
        start: Cycle,
        bytes: usize,
        t: &Timing,
    ) -> Result<(), DramError> {
        if start < self.busy_until {
            return Err(DramError::Timing {
                constraint: "data bus busy",
                issued: start,
                earliest: self.busy_until,
                bank: None,
            });
        }
        self.busy_until = start + t.t_ccd;
        self.bytes += bytes as u64;
        Ok(())
    }

    /// Whether `count` bursts at `start, start + step, ...` could occupy
    /// the bus right now: the validation half of
    /// [`DataBus::transfer_train`].
    ///
    /// # Errors
    ///
    /// [`DramError::Timing`] if the bus is still busy at `start` or (for
    /// multi-burst trains) `step` is below tCCD, which would make later
    /// bursts overlap.
    pub(crate) fn check_train(
        &self,
        start: Cycle,
        step: Cycle,
        count: usize,
        t: &Timing,
    ) -> Result<(), DramError> {
        if count == 0 {
            return Ok(());
        }
        if start < self.busy_until {
            return Err(DramError::Timing {
                constraint: "data bus busy",
                issued: start,
                earliest: self.busy_until,
                bank: None,
            });
        }
        if count > 1 && step < t.t_ccd {
            return Err(DramError::Timing {
                constraint: "data bus busy",
                issued: start + step,
                earliest: start + t.t_ccd,
                bank: None,
            });
        }
        Ok(())
    }

    /// Occupies the bus for `count` bursts of `bytes` each, starting at
    /// `start, start + step, ...`. State-equivalent to `count` sequential
    /// [`DataBus::transfer`] calls at those cycles, but O(1).
    ///
    /// # Errors
    ///
    /// As [`DataBus::check_train`]. Nothing is recorded on failure.
    pub(crate) fn transfer_train(
        &mut self,
        start: Cycle,
        step: Cycle,
        count: usize,
        bytes: usize,
        t: &Timing,
    ) -> Result<(), DramError> {
        self.check_train(start, step, count, t)?;
        if count == 0 {
            return Ok(());
        }
        self.busy_until = start + (count as Cycle - 1) * step + t.t_ccd;
        self.bytes += (count * bytes) as u64;
        Ok(())
    }

    /// Total bytes moved over the external interface.
    #[must_use]
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
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
    fn command_slots_are_spaced_by_tcmd() {
        let t = timing();
        let mut bus = CommandBus::new();
        assert_eq!(bus.earliest_slot(0, &t), 0);
        bus.issue(0, &t).unwrap();
        assert_eq!(bus.earliest_slot(0, &t), t.t_cmd);
        assert!(bus.issue(t.t_cmd - 1, &t).is_err());
        bus.issue(t.t_cmd, &t).unwrap();
        assert_eq!(bus.issued(), 2);
        assert_eq!(bus.last_issue, Some(t.t_cmd));
    }

    #[test]
    fn slot_floor_is_the_hint_independent_gate() {
        let t = timing();
        let mut bus = CommandBus::new();
        assert_eq!(bus.slot_floor(&t), 0);
        bus.issue(100, &t).unwrap();
        assert_eq!(bus.slot_floor(&t), 100 + t.t_cmd);
        for hint in [0, 50, 100 + t.t_cmd, 10_000] {
            assert_eq!(bus.earliest_slot(hint, &t), hint.max(bus.slot_floor(&t)));
        }
    }

    #[test]
    fn command_slots_may_be_late_but_not_early() {
        let t = timing();
        let mut bus = CommandBus::new();
        bus.issue(100, &t).unwrap();
        // A gap larger than tCMD is always fine.
        bus.issue(100 + 10 * t.t_cmd, &t).unwrap();
    }

    #[test]
    fn slot_gaps_record_inter_command_spacing() {
        let t = timing();
        let mut bus = CommandBus::new();
        bus.issue(0, &t).unwrap();
        bus.issue(t.t_cmd, &t).unwrap();
        bus.issue(t.t_cmd + 100, &t).unwrap();
        let gaps = bus.slot_gaps();
        assert_eq!(gaps.count(), 2); // first issue has no predecessor
        assert_eq!(gaps.sum(), t.t_cmd + 100);
        assert_eq!(gaps.max(), 100);
    }

    #[test]
    fn issue_train_matches_sequential_issues() {
        let t = timing();
        for (start, step, count) in [
            (100, t.t_cmd, 32usize),
            (100, t.t_cmd + 3, 32),
            (10 + t.t_cmd, t.t_cmd, 1),
            (50, 1000, 2),
        ] {
            let mut looped = CommandBus::new();
            looped.issue(10, &t).unwrap();
            let mut batched = looped.clone();
            for i in 0..count {
                looped.issue(start + i as Cycle * step, &t).unwrap();
            }
            batched.issue_train(start, step, count, &t).unwrap();
            assert_eq!(looped.issued(), batched.issued());
            assert_eq!(looped.last_issue, batched.last_issue);
            assert_eq!(looped.slot_gaps(), batched.slot_gaps());
        }
        // Trains on a virgin bus record no leading gap, like the loop.
        let mut looped = CommandBus::new();
        let mut batched = CommandBus::new();
        looped.issue(0, &t).unwrap();
        looped.issue(t.t_cmd, &t).unwrap();
        batched.issue_train(0, t.t_cmd, 2, &t).unwrap();
        assert_eq!(looped.slot_gaps(), batched.slot_gaps());
        // Under-spaced trains are rejected whole.
        let mut bus = CommandBus::new();
        assert!(bus.issue_train(0, t.t_cmd - 1, 2, &t).is_err());
        assert_eq!(bus.issued(), 0);
    }

    #[test]
    fn data_bus_serializes_bursts() {
        let t = timing();
        let mut bus = DataBus::new();
        bus.transfer(10, 32, &t).unwrap();
        assert_eq!(bus.busy_until, 10 + t.t_ccd);
        assert!(bus.transfer(10 + t.t_ccd - 1, 32, &t).is_err());
        bus.transfer(10 + t.t_ccd, 32, &t).unwrap();
        assert_eq!(bus.bytes(), 64);
    }

    #[test]
    fn transfer_train_matches_sequential_transfers() {
        let t = timing();
        for (start, step, count) in [
            (100, t.t_ccd, 32usize),
            (100, t.t_ccd + 7, 32),
            (10 + t.t_ccd, t.t_ccd, 1),
            (50, 1000, 2),
        ] {
            let mut looped = DataBus::new();
            looped.transfer(10, 32, &t).unwrap();
            let mut batched = looped.clone();
            for i in 0..count {
                looped.transfer(start + i as Cycle * step, 32, &t).unwrap();
            }
            batched.transfer_train(start, step, count, 32, &t).unwrap();
            assert_eq!(looped.bytes(), batched.bytes());
            assert_eq!(looped.busy_until, batched.busy_until);
        }
        // Under-spaced or early trains are rejected whole.
        let mut bus = DataBus::new();
        bus.transfer(10, 32, &t).unwrap();
        assert!(bus.transfer_train(10, t.t_ccd, 4, 32, &t).is_err());
        assert!(bus.transfer_train(100, t.t_ccd - 1, 4, 32, &t).is_err());
        assert_eq!(bus.bytes(), 32);
    }

    #[test]
    fn back_to_back_bursts_reach_peak_bandwidth() {
        let t = timing();
        let mut bus = DataBus::new();
        let mut c = 0;
        for _ in 0..100 {
            c = bus.earliest_transfer(c);
            bus.transfer(c, 32, &t).unwrap();
        }
        // 100 bursts x tCCD, ending exactly at 100 * tCCD.
        assert_eq!(bus.busy_until, 100 * t.t_ccd);
        assert_eq!(bus.bytes(), 3200);
    }
}
