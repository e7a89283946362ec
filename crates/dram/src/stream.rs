//! Streaming full-row reads at external-bandwidth: the machinery behind
//! the paper's *Ideal Non-PIM* baseline.
//!
//! Ideal Non-PIM (Sec. IV) is "an ideal non-PIM host with unlimited compute
//! bandwidth ... limited only by the DRAM's external bandwidth". Its
//! execution time is the time to stream the matrix over the channel PHY.
//! [`StreamReader`] reads a sequence of `(bank, row)` pairs front to back:
//!
//! * column reads proceed back-to-back at the tCCD cadence (the external
//!   bus ceiling);
//! * the next row's activation is issued on the row bus *during* the
//!   current row's reads, so tRCD/tRP are hidden exactly as the paper's
//!   model assumes ("the long latency of retrieving the entire DRAM row
//!   completely hides the activation latency of a DRAM row in the next
//!   bank");
//! * refresshes are interposed when they fall due, which is the effect the
//!   paper notes makes measured Ideal Non-PIM slightly *slower* than the
//!   analytical model.

use crate::channel::Channel;
use crate::error::DramError;
use crate::timing::Cycle;

/// Outcome of a streaming run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Cycle at which the last data beat completes.
    pub end_cycle: Cycle,
    /// Refreshes interposed during the stream.
    pub refreshes: u64,
}

/// Streams whole rows out of a channel at peak external bandwidth.
#[derive(Debug)]
pub struct StreamReader<'a> {
    channel: &'a mut Channel,
    /// Rows already activated ahead of their read turn.
    activated_ahead: Option<usize>,
}

impl<'a> StreamReader<'a> {
    /// Creates a reader over `channel`.
    pub fn new(channel: &'a mut Channel) -> StreamReader<'a> {
        StreamReader {
            channel,
            activated_ahead: None,
        }
    }

    /// Reads every row in `rows` (in order), delivering each column's bytes
    /// to `sink(row_index, col, data)`. Starts no earlier than `start`.
    ///
    /// Consecutive entries should name different banks for full pipelining
    /// (the bank-interleaved layout guarantees this); same-bank neighbors
    /// still work but expose tRC.
    ///
    /// # Errors
    ///
    /// Propagates any [`DramError`] — with a correct controller (this one)
    /// the only expected sources are out-of-range rows in the input.
    pub fn read_rows(
        &mut self,
        start: Cycle,
        rows: &[(usize, usize)],
        mut sink: impl FnMut(usize, usize, &[u8]),
    ) -> Result<StreamOutcome, DramError> {
        let t = *self.channel.timing();
        let cols = self.channel.config().cols_per_row;
        let refreshes_before = self.channel.stats().refreshes;
        let mut now = start;
        let mut end = start;
        self.activated_ahead = None;

        // Cycles one fully-pipelined row read takes: used as the refresh
        // look-ahead window.
        let row_cycles = cols as Cycle * t.t_ccd;

        let mut i = 0;
        while i < rows.len() {
            // Refresh policy (paper Sec. III-E): if the pending refresh
            // would mature inside the upcoming operation, service it first.
            if self.channel.refresh_due() <= now + row_cycles {
                now = self.service_refresh(now)?;
            }

            let (bank, row) = rows[i];
            // Activate the current row unless a previous iteration already
            // activated it ahead of time.
            if self.activated_ahead != Some(i) {
                let a = self.channel.earliest_activate(bank).max(now);
                self.channel.issue_activate(a, bank, row)?;
                now = now.max(a);
            }
            self.activated_ahead = None;

            // Activate the *next* row now, so its tRCD hides under our
            // column reads — unless it's the same bank (must wait for our
            // precharge) or a refresh will interpose first.
            if let Some(&(nbank, nrow)) = rows.get(i + 1) {
                if nbank != bank && self.channel.refresh_due() > now + 2 * row_cycles {
                    let a = self.channel.earliest_activate(nbank).max(now);
                    self.channel.issue_activate(a, nbank, nrow)?;
                    self.activated_ahead = Some(i + 1);
                }
            }

            // Stream all columns of the current row.
            let mut rd = now;
            for col in 0..cols {
                rd = self.channel.earliest_column_read(rd, bank);
                let (_, data) = self.channel.issue_column_read_external(rd, bank, col)?;
                sink(i, col, &data);
            }
            end = rd + t.t_aa + t.t_ccd; // last data beat completes
            now = rd;

            // Precharge the row we just finished; tRP overlaps the next
            // row's reads (different bank).
            let p = self.channel.earliest_precharge(bank).max(now);
            self.channel.issue_precharge(p, bank)?;

            i += 1;
        }
        // Close any row left open by look-ahead (refresh interposed).
        if self.activated_ahead.is_some() {
            let p = self.channel.earliest_precharge_all();
            self.channel.issue_precharge_all(p)?;
            self.activated_ahead = None;
        }

        Ok(StreamOutcome {
            end_cycle: end,
            refreshes: self.channel.stats().refreshes - refreshes_before,
        })
    }

    /// Precharges everything and services one all-bank refresh; returns the
    /// cycle at which banks become usable again.
    fn service_refresh(&mut self, now: Cycle) -> Result<Cycle, DramError> {
        let t = *self.channel.timing();
        let any_open = (0..self.channel.config().banks).any(|b| self.channel.open_row(b).is_some());
        let mut at = now;
        if any_open {
            let p = self.channel.earliest_precharge_all().max(now);
            self.channel.issue_precharge_all(p)?;
            at = p + t.t_rp;
        }
        self.activated_ahead = None;
        let r = at.max(now);
        // The row bus needs a free slot.
        let r = self
            .channel
            .issue_refresh_all(r.max(self.refresh_slot_hint(r)))?;
        Ok(r + t.t_rfc)
    }

    fn refresh_slot_hint(&self, hint: Cycle) -> Cycle {
        // earliest_precharge_all doubles as "earliest row-bus slot" here:
        // with all banks idle it returns just the bus constraint.
        self.channel.earliest_precharge_all().max(hint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;
    use crate::timing::TimingParams;

    fn channel() -> Channel {
        let mut ch = Channel::new(DramConfig::hbm2e_like()).unwrap();
        ch.enable_audit();
        ch
    }

    #[test]
    fn single_row_takes_trcd_plus_col_reads() {
        let mut ch = channel();
        let t = TimingParams::hbm2e_like().to_cycles().unwrap();
        let mut reader = StreamReader::new(&mut ch);
        let out = reader.read_rows(0, &[(0, 0)], |_, _, _| {}).unwrap();
        // ACT at 0, first RD at tRCD, last RD at tRCD + 31*tCCD, data done
        // tAA + tCCD later.
        assert_eq!(out.end_cycle, t.t_rcd + 31 * t.t_ccd + t.t_aa + t.t_ccd);
        assert_eq!(ch.audit().unwrap().validate(&t), vec![]);
    }

    #[test]
    fn pipelined_rows_hit_external_bandwidth_ceiling() {
        let mut ch = channel();
        // 32 rows x 128 ns > tREFI would interpose a refresh; disable it to
        // measure the pure bandwidth ceiling.
        ch.disable_refresh();
        let t = TimingParams::hbm2e_like().to_cycles().unwrap();
        let rows: Vec<(usize, usize)> = (0..32).map(|i| (i % 16, i / 16)).collect();
        let mut reader = StreamReader::new(&mut ch);
        let out = reader.read_rows(0, &rows, |_, _, _| {}).unwrap();
        // Ideal model: col * tCCD per row once the pipeline fills. Allow
        // the one-time tRCD fill and data-drain tail.
        let ideal = 32 * 32 * t.t_ccd;
        let overhead = out.end_cycle - ideal;
        assert!(
            overhead <= t.t_rcd + t.t_aa + t.t_ccd,
            "overhead {overhead} exceeds fill+drain"
        );
        assert_eq!(ch.audit().unwrap().validate(&t), vec![]);
    }

    #[test]
    fn data_is_delivered_in_order() {
        let mut ch = channel();
        for bank in 0..2 {
            let row: Vec<u8> = (0..1024).map(|i| (bank * 100 + i / 512) as u8).collect();
            ch.storage_mut().write_row(bank, 0, &row).unwrap();
        }
        let mut got = Vec::new();
        let mut reader = StreamReader::new(&mut ch);
        reader
            .read_rows(0, &[(0, 0), (1, 0)], |row_idx, col, data| {
                got.push((row_idx, col, data[0]));
            })
            .unwrap();
        assert_eq!(got.len(), 64);
        assert_eq!(got[0], (0, 0, 0));
        assert_eq!(got[31], (0, 31, 1));
        assert_eq!(got[32], (1, 0, 100));
        assert_eq!(got[63], (1, 31, 101));
    }

    #[test]
    fn long_stream_interposes_refreshes() {
        let mut ch = channel();
        let t = TimingParams::hbm2e_like().to_cycles().unwrap();
        // 64 row-reads ≈ 64 * 128 ns = 8.2 µs > 2 * tREFI: at least 2
        // refreshes must occur.
        let rows: Vec<(usize, usize)> = (0..64).map(|i| (i % 16, i / 16)).collect();
        let mut reader = StreamReader::new(&mut ch);
        let out = reader.read_rows(0, &rows, |_, _, _| {}).unwrap();
        assert!(out.refreshes >= 2, "got {} refreshes", out.refreshes);
        assert_eq!(ch.audit().unwrap().validate(&t), vec![]);
        // Refresh must have cost time: end beyond the no-refresh ideal
        // by at least refreshes * tRFC.
        let ideal = 64 * 32 * t.t_ccd;
        assert!(out.end_cycle >= ideal + out.refreshes * t.t_rfc);
    }

    #[test]
    fn same_bank_consecutive_rows_expose_trc_but_stay_legal() {
        let mut ch = channel();
        let t = TimingParams::hbm2e_like().to_cycles().unwrap();
        let mut reader = StreamReader::new(&mut ch);
        reader
            .read_rows(0, &[(0, 0), (0, 1)], |_, _, _| {})
            .unwrap();
        assert_eq!(ch.audit().unwrap().validate(&t), vec![]);
    }

    #[test]
    fn starts_no_earlier_than_start_cycle() {
        let mut ch = channel();
        let t = TimingParams::hbm2e_like().to_cycles().unwrap();
        let mut reader = StreamReader::new(&mut ch);
        let out = reader.read_rows(500, &[(0, 0)], |_, _, _| {}).unwrap();
        assert!(out.end_cycle >= 500 + t.t_rcd);
    }
}
