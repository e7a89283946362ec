//! Per-bank state-residency accounting.
//!
//! Every cycle of a simulated run is attributed to exactly one of five
//! bank states, so "where did the time go" questions (the heart of the
//! paper's Figs. 7–13 analysis) have a well-defined answer:
//!
//! * **idle** — precharged, no constraint pending;
//! * **row-open** — a row is latched in the sense amplifiers;
//! * **precharging** — the tRP window after a PRE;
//! * **refreshing** — the tRFC window after a REF;
//! * **computing** — an internal (AiM COMP-class) column access is
//!   occupying the bank's MAC datapath (the tCCD window after the access).
//!
//! The tracker is driven by *transitions*: permanent ones (`transition`)
//! and self-expiring ones (`transient`, e.g. precharging reverts to idle
//! after tRP without further input). Because every cycle between
//! transitions is credited to whichever state was live, the invariant
//! `sum(all classes) == elapsed cycles` holds by construction — and is
//! enforced by property tests at the workspace level.

/// The residency class a bank occupies at some cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankClass {
    /// Precharged and unconstrained.
    Idle,
    /// A row is open (streaming or awaiting column commands).
    RowOpen,
    /// Inside the tRP window after a precharge.
    Precharging,
    /// Inside the tRFC window after an all-bank refresh.
    Refreshing,
    /// Inside the tCCD window after an internal (in-DRAM compute) column
    /// access.
    Computing,
}

impl BankClass {
    /// All classes, in reporting order.
    pub const ALL: [BankClass; 5] = [
        BankClass::Idle,
        BankClass::RowOpen,
        BankClass::Precharging,
        BankClass::Refreshing,
        BankClass::Computing,
    ];

    /// Stable lowercase name (used in snapshots and trace tracks).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BankClass::Idle => "idle",
            BankClass::RowOpen => "row_open",
            BankClass::Precharging => "precharging",
            BankClass::Refreshing => "refreshing",
            BankClass::Computing => "computing",
        }
    }
}

/// Accumulated cycles per residency class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Residency {
    /// Cycles precharged and unconstrained.
    pub idle: u64,
    /// Cycles with a row open.
    pub row_open: u64,
    /// Cycles inside tRP windows.
    pub precharging: u64,
    /// Cycles inside tRFC windows.
    pub refreshing: u64,
    /// Cycles inside internal-access tCCD windows.
    pub computing: u64,
}

impl Residency {
    /// Cycles attributed to `class`.
    #[must_use]
    pub fn get(&self, class: BankClass) -> u64 {
        match class {
            BankClass::Idle => self.idle,
            BankClass::RowOpen => self.row_open,
            BankClass::Precharging => self.precharging,
            BankClass::Refreshing => self.refreshing,
            BankClass::Computing => self.computing,
        }
    }

    /// Adds `cycles` to `class`.
    pub(crate) fn add(&mut self, class: BankClass, cycles: u64) {
        match class {
            BankClass::Idle => self.idle += cycles,
            BankClass::RowOpen => self.row_open += cycles,
            BankClass::Precharging => self.precharging += cycles,
            BankClass::Refreshing => self.refreshing += cycles,
            BankClass::Computing => self.computing += cycles,
        }
    }

    /// Total attributed cycles (equals elapsed cycles when produced by a
    /// correctly driven [`ResidencyTracker`]).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.idle + self.row_open + self.precharging + self.refreshing + self.computing
    }

    /// Folds another residency into this one.
    pub fn merge(&mut self, other: &Residency) {
        for class in BankClass::ALL {
            self.add(class, other.get(class));
        }
    }
}

/// Attributes a bank's timeline to [`BankClass`]es from a stream of
/// transitions at non-decreasing cycles.
#[derive(Debug, Clone)]
pub struct ResidencyTracker {
    current: BankClass,
    since: u64,
    /// A pending self-expiry: at cycle `.0`, the current (transient) state
    /// gives way to state `.1` unless a transition happens first.
    revert: Option<(u64, BankClass)>,
    totals: Residency,
}

impl Default for ResidencyTracker {
    fn default() -> ResidencyTracker {
        ResidencyTracker::new()
    }
}

impl ResidencyTracker {
    /// A tracker starting idle at cycle 0.
    #[must_use]
    pub fn new() -> ResidencyTracker {
        ResidencyTracker {
            current: BankClass::Idle,
            since: 0,
            revert: None,
            totals: Residency::default(),
        }
    }

    /// Resolves a due self-expiry at or before `cycle`.
    fn settle(&mut self, cycle: u64) {
        if let Some((at, then)) = self.revert {
            if at <= cycle {
                self.totals.add(self.current, at.saturating_sub(self.since));
                self.current = then;
                self.since = self.since.max(at);
                self.revert = None;
            }
        }
    }

    /// Enters `class` at `cycle` (clamped to be non-decreasing).
    pub fn transition(&mut self, cycle: u64, class: BankClass) {
        self.settle(cycle);
        let cycle = cycle.max(self.since);
        self.totals.add(self.current, cycle - self.since);
        self.current = class;
        self.since = cycle;
        self.revert = None;
    }

    /// Enters the transient `class` at `cycle`; unless a later transition
    /// intervenes, the bank reverts to `then` at cycle `until`.
    pub fn transient(&mut self, cycle: u64, class: BankClass, until: u64, then: BankClass) {
        self.transition(cycle, class);
        if until > self.since {
            self.revert = Some((until, then));
        } else {
            self.transition(self.since, then);
        }
    }

    /// A regular train of `count` transient pulses: equivalent to calling
    /// [`ResidencyTracker::transient`] at `start + i * step` for each
    /// `i in 0..count`, with each pulse holding `class` for `hold` cycles
    /// before reverting to `then`. The common case (`step > 0`, `hold > 0`,
    /// pulses strictly ordered) is folded in constant time; degenerate
    /// trains fall back to the literal loop.
    pub fn pulse_train(
        &mut self,
        start: u64,
        step: u64,
        count: u64,
        class: BankClass,
        hold: u64,
        then: BankClass,
    ) {
        if count == 0 {
            return;
        }
        // First pulse goes through the ordinary path (it interacts with
        // whatever state/revert was live before the train).
        self.transient(start, class, start + hold, then);
        let extra = count - 1;
        if extra == 0 {
            return;
        }
        if step == 0 || hold == 0 || start < self.since {
            // Degenerate spacing (or a clamped first pulse): replay
            // literally rather than reasoning about overlaps.
            for i in 1..count {
                let at = start + i * step;
                self.transient(at, class, at + hold, then);
            }
            return;
        }
        // Steady state: each later pulse credits `min(hold, step)` cycles
        // to `class` and any remainder of the period to `then`.
        let in_class = hold.min(step);
        self.totals.add(class, extra * in_class);
        self.totals.add(then, extra * (step - in_class));
        self.current = class;
        self.since = start + extra * step;
        self.revert = Some((self.since + hold, then));
    }

    /// Attribution through `end` (resolves pending expiries; the tracker
    /// itself is unchanged). The returned totals sum to `end` when `end`
    /// is at or after the last transition.
    #[must_use]
    pub fn snapshot(&self, end: u64) -> Residency {
        let mut copy = self.clone();
        copy.settle(end);
        let end = end.max(copy.since);
        copy.totals.add(copy.current, end - copy.since);
        copy.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_from_start_to_end() {
        let t = ResidencyTracker::new();
        let r = t.snapshot(100);
        assert_eq!(r.idle, 100);
        assert_eq!(r.total(), 100);
    }

    #[test]
    fn open_close_cycle_attributes_every_cycle() {
        let mut t = ResidencyTracker::new();
        t.transition(10, BankClass::RowOpen); // ACT at 10
        t.transient(40, BankClass::Precharging, 54, BankClass::Idle); // PRE, tRP = 14
        let r = t.snapshot(100);
        assert_eq!(r.idle, 10 + (100 - 54));
        assert_eq!(r.row_open, 30);
        assert_eq!(r.precharging, 14);
        assert_eq!(r.total(), 100);
    }

    #[test]
    fn transient_interrupted_by_transition() {
        let mut t = ResidencyTracker::new();
        // Refresh until 350, but (hypothetically) a transition at 200.
        t.transient(100, BankClass::Refreshing, 350, BankClass::Idle);
        t.transition(200, BankClass::RowOpen);
        let r = t.snapshot(300);
        assert_eq!(r.refreshing, 100);
        assert_eq!(r.row_open, 100);
        assert_eq!(r.idle, 100);
        assert_eq!(r.total(), 300);
    }

    #[test]
    fn computing_reverts_to_row_open() {
        let mut t = ResidencyTracker::new();
        t.transition(0, BankClass::RowOpen);
        t.transient(10, BankClass::Computing, 12, BankClass::RowOpen);
        t.transient(12, BankClass::Computing, 14, BankClass::RowOpen);
        let r = t.snapshot(20);
        assert_eq!(r.computing, 4, "back-to-back COMPs chain seamlessly");
        assert_eq!(r.row_open, 16);
        assert_eq!(r.total(), 20);
    }

    #[test]
    fn snapshot_is_non_destructive_and_repeatable() {
        let mut t = ResidencyTracker::new();
        t.transition(5, BankClass::RowOpen);
        assert_eq!(t.snapshot(50), t.snapshot(50));
        assert_eq!(t.snapshot(50).total(), 50);
        assert_eq!(t.snapshot(80).total(), 80);
    }

    #[test]
    fn zero_length_transient_lands_in_follow_state() {
        let mut t = ResidencyTracker::new();
        t.transient(10, BankClass::Precharging, 10, BankClass::Idle);
        let r = t.snapshot(20);
        assert_eq!(r.precharging, 0);
        assert_eq!(r.idle, 20);
    }

    #[test]
    fn pulse_train_matches_literal_transient_loop() {
        // Cover gapless (hold == step), gapped (hold < step), overlapping
        // (hold > step), single-pulse, and degenerate (step == 0) trains.
        for (start, step, count, hold) in [
            (10, 4, 32, 4),
            (10, 6, 32, 4),
            (10, 3, 32, 4),
            (10, 4, 1, 4),
            (10, 0, 5, 4),
            (0, 4, 7, 4),
        ] {
            let mut seed = ResidencyTracker::new();
            seed.transition(5.min(start), BankClass::RowOpen);
            let mut looped = seed.clone();
            for i in 0..count {
                let at = start + i * step;
                looped.transient(at, BankClass::Computing, at + hold, BankClass::RowOpen);
            }
            let mut batched = seed.clone();
            batched.pulse_train(
                start,
                step,
                count,
                BankClass::Computing,
                hold,
                BankClass::RowOpen,
            );
            let end = start + count * step + hold + 100;
            assert_eq!(
                looped.snapshot(end),
                batched.snapshot(end),
                "start={start} step={step} count={count} hold={hold}"
            );
            // Future behavior must match too: drive both onward.
            looped.transient(end, BankClass::Precharging, end + 14, BankClass::Idle);
            batched.transient(end, BankClass::Precharging, end + 14, BankClass::Idle);
            assert_eq!(looped.snapshot(end + 50), batched.snapshot(end + 50));
        }
    }

    #[test]
    fn totals_and_merge() {
        let mut a = Residency::default();
        a.add(BankClass::Idle, 25);
        a.add(BankClass::RowOpen, 75);
        let mut b = Residency::default();
        b.add(BankClass::Computing, 100);
        a.merge(&b);
        assert_eq!(a.total(), 200);
        assert_eq!(a.get(BankClass::Computing), 100);
    }
}
