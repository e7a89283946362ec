//! Event counters for performance and energy accounting.

use crate::ecc::EccCounters;
use crate::timing::Cycle;
use newton_trace::{Log2Histogram, Residency, TimeSeries};

/// Raw event counts accumulated by a [`crate::Channel`].
///
/// These are mechanical counts; derived metrics (bandwidth, average power)
/// are computed by `newton-model` from these counters plus elapsed time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Row activations (each bank counted, even when ganged).
    pub activates: u64,
    /// Row precharges (each bank counted, even in precharge-all).
    pub precharges: u64,
    /// External column reads (data crossed the channel PHY).
    pub col_reads_external: u64,
    /// External column writes.
    pub col_writes_external: u64,
    /// Internal column reads (consumed by in-DRAM compute; each bank
    /// counted, even when ganged).
    pub col_reads_internal: u64,
    /// All-bank refresh operations.
    pub refreshes: u64,
    /// Commands that ganged multiple bank operations into one slot.
    pub ganged_commands: u64,
    /// Bytes written into on-die buffers via broadcast-class commands
    /// (e.g. Newton's GWRITE); counted separately from column writes
    /// because they do not touch bank arrays.
    pub broadcast_bytes: u64,
    /// SECDED-corrected single-bit errors (64-bit words corrected), total
    /// across banks. Zero while the ECC model is off.
    pub ecc_corrected: u64,
    /// Detected-uncorrectable ECC errors, total across banks.
    pub ecc_uncorrectable: u64,
}

/// A completed-run summary: counters plus the time span they cover.
///
/// Holds per-bank cycle attribution and latency histograms, so it is
/// `Clone` rather than `Copy`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunSummary {
    /// Event counts.
    pub stats: ChannelStats,
    /// Total commands issued on the command bus.
    pub commands: u64,
    /// Bytes moved over the external data bus.
    pub external_bytes: u64,
    /// Aggregate bank-open time (sum over banks), in cycles.
    pub bank_open_cycles: Cycle,
    /// Cycle of the first command issued (0 when nothing ran).
    pub activity_start: Cycle,
    /// Completion cycle of the measured activity.
    pub end_cycle: Cycle,
    /// Command-clock period, for converting to wall-clock.
    pub tck_ns: f64,
    /// Per-bank cycle attribution from cycle 0 to `end_cycle`; one entry
    /// per bank, each summing to `end_cycle`.
    pub residency: Vec<Residency>,
    /// Distribution of request queue latencies (issue − arrival), in
    /// cycles, over requests drained by a scheduling controller.
    pub queue_latency: Log2Histogram,
    /// Inter-slot gaps on the row command bus.
    pub row_slot_gaps: Log2Histogram,
    /// Inter-slot gaps on the column command bus.
    pub col_slot_gaps: Log2Histogram,
    /// Gaps between consecutive activate commands (any bank).
    pub act_gaps: Log2Histogram,
    /// Per-bank ECC correction/detection counters (empty vectors in a
    /// default summary; one entry per bank when produced by a channel).
    pub ecc: EccCounters,
    /// Windowed telemetry series sampled through `end_cycle`; present
    /// only when the channel ran with streaming telemetry enabled.
    /// Cumulative since the channel's birth and zero-padded through
    /// `end_cycle`. The snapshot shares its windows with the channel's
    /// live series, all but the newest few (`newton_trace::Windows`), so
    /// it costs the same however old the channel is, and nothing the
    /// channel records later shows in it.
    pub telemetry: Option<TimeSeries>,
}

impl RunSummary {
    /// Elapsed simulated time in nanoseconds.
    #[must_use]
    pub fn elapsed_ns(&self) -> f64 {
        self.end_cycle as f64 * self.tck_ns
    }

    /// Cycles between the first command and completion — the span actual
    /// work occupied, excluding any leading idle prefix.
    #[must_use]
    fn activity_span(&self) -> Cycle {
        self.end_cycle.saturating_sub(self.activity_start)
    }

    /// Achieved external bandwidth in bytes per nanosecond, measured over
    /// the activity span (first command to completion) rather than from
    /// cycle 0, so a late-starting run is not under-reported.
    #[must_use]
    pub fn external_bandwidth(&self) -> f64 {
        let span = self.activity_span();
        if span == 0 {
            0.0
        } else {
            self.external_bytes as f64 / (span as f64 * self.tck_ns)
        }
    }

    /// Mean fraction of bank-cycles spent with a row open: aggregate open
    /// time divided by `banks × end_cycle`. Zero when no time elapsed or
    /// the summary carries no per-bank data.
    #[must_use]
    pub fn bank_utilization(&self) -> f64 {
        let banks = self.residency.len() as u64;
        if banks == 0 || self.end_cycle == 0 {
            return 0.0;
        }
        self.bank_open_cycles as f64 / (banks * self.end_cycle) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_bandwidth() {
        let summary = RunSummary {
            commands: 50,
            external_bytes: 4800,
            end_cycle: 600,
            tck_ns: 1.0,
            ..RunSummary::default()
        };
        assert_eq!(summary.elapsed_ns(), 600.0);
        assert_eq!(summary.external_bandwidth(), 8.0);
    }

    #[test]
    fn bandwidth_uses_activity_span_not_cycle_zero() {
        // Work starts at cycle 400 and ends at 600: 4800 bytes over a
        // 200-cycle span, not the 600-cycle wall.
        let summary = RunSummary {
            external_bytes: 4800,
            activity_start: 400,
            end_cycle: 600,
            tck_ns: 1.0,
            ..RunSummary::default()
        };
        assert_eq!(summary.activity_span(), 200);
        assert_eq!(summary.external_bandwidth(), 24.0);
    }

    #[test]
    fn zero_time_bandwidth_is_zero() {
        let summary = RunSummary {
            tck_ns: 1.0,
            ..RunSummary::default()
        };
        assert_eq!(summary.external_bandwidth(), 0.0);
        // A degenerate span (start == end) is also zero, not a div-by-zero.
        let degenerate = RunSummary {
            external_bytes: 100,
            activity_start: 500,
            end_cycle: 500,
            tck_ns: 1.0,
            ..RunSummary::default()
        };
        assert_eq!(degenerate.external_bandwidth(), 0.0);
    }

    #[test]
    fn bank_utilization_handles_zero_elapsed_and_empty_banks() {
        use newton_trace::Residency;
        // No banks, no time: both degenerate cases return 0.0.
        assert_eq!(RunSummary::default().bank_utilization(), 0.0);
        let no_time = RunSummary {
            bank_open_cycles: 100,
            residency: vec![Residency::default(); 4],
            ..RunSummary::default()
        };
        assert_eq!(no_time.bank_utilization(), 0.0);
        // 2 banks, 100 cycles each, 50 aggregate open cycles = 25%.
        let busy = RunSummary {
            bank_open_cycles: 50,
            end_cycle: 100,
            residency: vec![Residency::default(); 2],
            ..RunSummary::default()
        };
        assert_eq!(busy.bank_utilization(), 0.25);
    }
}
