//! Rank-level activation-rate constraints: tRRD and the rolling
//! four-activation window (tFAW).
//!
//! The tFAW window exists because "many concurrent ACT command operations
//! cause severe internal voltage drop ... requiring long delays to recover"
//! (paper Sec. III-D, Fig. 6). Newton's G_ACT command gangs four bank
//! activations into one command *within tFAW constraints*, so the tracker
//! must support placing `n` simultaneous activations — successive G_ACTs
//! then end up spaced by `max(tRRD, tFAW)` exactly as the paper's
//! performance model assumes.

use crate::timing::{Cycle, Timing};

/// Maximum activations allowed inside one tFAW window.
const FAW_LIMIT: usize = 4;

/// Sliding-window tracker for rank-wide activation constraints.
#[derive(Debug, Clone, Default)]
pub struct FawTracker {
    /// Timestamps of the most recent activations, oldest first. At most
    /// [`FAW_LIMIT`] entries are ever relevant.
    recent: Vec<Cycle>,
    /// Timestamp of the most recent activation (drives tRRD).
    last_act: Option<Cycle>,
}

impl FawTracker {
    /// Creates a tracker with no activation history.
    #[must_use]
    pub(crate) fn new() -> FawTracker {
        FawTracker::default()
    }

    /// Earliest cycle `>= hint` at which `n` simultaneous activations may
    /// issue without violating tRRD or tFAW.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 4` (no DRAM allows more than four
    /// activations per window, so requesting more can never succeed).
    #[must_use]
    pub(crate) fn earliest_activate(&self, hint: Cycle, n: usize, t: &Timing) -> Cycle {
        assert!(
            (1..=FAW_LIMIT).contains(&n),
            "activation gang size must be 1..=4, got {n}"
        );
        let mut earliest = hint;
        if let Some(last) = self.last_act {
            earliest = earliest.max(last + t.t_rrd);
        }
        // After placing `n` activations at cycle `c`, the window
        // (c - tFAW, c] must contain at most FAW_LIMIT - n prior
        // activations. The entries are sorted; the newest `FAW_LIMIT - n`
        // may stay inside the window, so the `(len - (FAW_LIMIT - n))`-th
        // newest must have fallen out: c >= that_entry + tFAW.
        let allowed_inside = FAW_LIMIT - n;
        if self.recent.len() > allowed_inside {
            let must_expire_idx = self.recent.len() - allowed_inside - 1;
            earliest = earliest.max(self.recent[must_expire_idx] + t.t_faw);
        }
        earliest
    }

    /// Records `n` simultaneous activations at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 4`, or if `cycle` precedes an already
    /// recorded activation (history must be appended in time order).
    pub(crate) fn record(&mut self, cycle: Cycle, n: usize) {
        assert!(
            (1..=FAW_LIMIT).contains(&n),
            "activation gang size must be 1..=4, got {n}"
        );
        if let Some(&last) = self.recent.last() {
            assert!(
                cycle >= last,
                "activations must be recorded in time order ({cycle} < {last})"
            );
        }
        for _ in 0..n {
            self.recent.push(cycle);
        }
        let len = self.recent.len();
        if len > FAW_LIMIT {
            self.recent.drain(..len - FAW_LIMIT);
        }
        self.last_act = Some(cycle);
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
    fn trrd_spaces_individual_activations() {
        let t = timing();
        let mut faw = FawTracker::new();
        assert_eq!(faw.earliest_activate(0, 1, &t), 0);
        faw.record(0, 1);
        assert_eq!(faw.earliest_activate(0, 1, &t), t.t_rrd);
        faw.record(t.t_rrd, 1);
        assert_eq!(faw.last_act, Some(t.t_rrd));
    }

    #[test]
    fn fifth_activation_waits_for_the_window() {
        let t = timing();
        let mut faw = FawTracker::new();
        // Four activations as fast as tRRD allows.
        let mut c = 0;
        for _ in 0..4 {
            c = faw.earliest_activate(c, 1, &t);
            faw.record(c, 1);
            assert!(c < t.t_faw, "first four fit inside the window");
        }
        // The fifth must wait until the first leaves the window.
        assert_eq!(faw.earliest_activate(0, 1, &t), t.t_faw);
    }

    #[test]
    fn ganged_activations_consume_the_whole_window() {
        let t = timing();
        let mut faw = FawTracker::new();
        faw.record(0, 4);
        // Any further activation — even a single one — waits a full tFAW.
        assert_eq!(faw.earliest_activate(0, 1, &t), t.t_faw);
        assert_eq!(faw.earliest_activate(0, 4, &t), t.t_faw);
        // Successive G_ACTs are spaced by max(tRRD, tFAW) = tFAW,
        // matching the paper's Sec. III-F model term.
        faw.record(t.t_faw, 4);
        assert_eq!(faw.earliest_activate(0, 4, &t), 2 * t.t_faw);
    }

    #[test]
    fn mixed_gang_sizes_share_the_window() {
        let t = timing();
        let mut faw = FawTracker::new();
        faw.record(0, 2);
        // Two more fit immediately (subject to tRRD).
        assert_eq!(faw.earliest_activate(0, 2, &t), t.t_rrd);
        faw.record(t.t_rrd, 2);
        // Window now holds 4; a gang of 2 must wait for the *second
        // newest* pair to age out: the pair at cycle 0.
        assert_eq!(faw.earliest_activate(0, 2, &t), t.t_faw);
    }

    #[test]
    #[should_panic(expected = "gang size")]
    fn zero_gang_rejected() {
        let t = timing();
        let _ = FawTracker::new().earliest_activate(0, 0, &t);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_recording_rejected() {
        let mut faw = FawTracker::new();
        faw.record(100, 1);
        faw.record(50, 1);
    }

    #[test]
    fn hint_is_respected() {
        let t = timing();
        let faw = FawTracker::new();
        assert_eq!(faw.earliest_activate(12345, 4, &t), 12345);
    }
}
