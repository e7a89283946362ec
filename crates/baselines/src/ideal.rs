//! The Ideal Non-PIM baseline, measured on the DRAM simulator.
//!
//! "To model an upper-bound on performance of any non-PIM architecture
//! ... Ideal Non-PIM assumes infinite compute bandwidth and is limited
//! only by the DRAM's external bandwidth. Thus its execution time is
//! modeled as the time to transfer DRAM data to the host." (Sec. IV.)
//!
//! The matrix is bank-interleaved so consecutive rows come from different
//! banks, activations hide under column streaming, and the channel's
//! external bus runs at its ceiling; refresh interposes exactly as for
//! Newton. Channels are symmetric: the system time is the worst channel's
//! time (the channel holding `ceil(m / channels)` matrix rows).

use newton_dram::stream::StreamReader;
use newton_dram::{Channel, DramConfig, DramError};

/// The Ideal Non-PIM system: infinite compute over the same DRAM.
#[derive(Debug, Clone)]
pub struct IdealNonPim {
    dram: DramConfig,
    channels: usize,
}

/// Outcome of an Ideal Non-PIM measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdealOutcome {
    /// Wall-clock time for one inference, in nanoseconds.
    pub time_ns: f64,
    /// DRAM rows streamed in the measured (worst) channel.
    rows_streamed: usize,
    /// Refreshes interposed in the measured channel.
    pub refreshes: u64,
}

impl IdealNonPim {
    /// Creates the baseline over `channels` channels of `dram`.
    #[must_use]
    pub fn new(dram: DramConfig, channels: usize) -> IdealNonPim {
        IdealNonPim {
            dram,
            channels: channels.max(1),
        }
    }

    /// The paper's configuration: 24 channels of the Table III device.
    #[must_use]
    pub fn paper_default() -> IdealNonPim {
        IdealNonPim::new(DramConfig::hbm2e_like(), 24)
    }

    /// DRAM rows the worst channel must stream for an `m x n` bf16 matrix.
    fn rows_for(&self, m: usize, n: usize) -> usize {
        let m_c = m.div_ceil(self.channels);
        let bytes = m_c * n * 2;
        bytes.div_ceil(self.dram.row_bytes())
    }

    /// Builds the bank-interleaved row list for a streaming run starting
    /// at `base_row`.
    fn row_list(&self, rows: usize, base_row: usize) -> Vec<(usize, usize)> {
        (0..rows)
            .map(|i| (i % self.dram.banks, base_row + i / self.dram.banks))
            .collect()
    }

    /// Measures one matrix–vector inference (`m x n` matrix) on the
    /// simulator.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (configuration problems; a correct
    /// stream cannot otherwise fail).
    pub fn run_layer(&self, m: usize, n: usize) -> Result<IdealOutcome, DramError> {
        Ok(self.run_layer_detailed(m, n)?.0)
    }

    /// Like [`IdealNonPim::run_layer`], additionally returning the
    /// measured channel's DRAM summary (for power accounting — the
    /// "conventional DRAM" baseline of Fig. 13).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run_layer_detailed(
        &self,
        m: usize,
        n: usize,
    ) -> Result<(IdealOutcome, newton_dram::stats::RunSummary), DramError> {
        let mut channel = Channel::new(self.dram.clone())?;
        let rows = self.rows_for(m, n);
        let list = self.row_list(rows, 0);
        let mut reader = StreamReader::new(&mut channel);
        let out = reader.read_rows(0, &list, |_, _, _| {})?;
        let summary = channel.summary(out.end_cycle);
        Ok((
            IdealOutcome {
                time_ns: out.end_cycle as f64 * self.dram.timing.tck_ns,
                rows_streamed: rows,
                refreshes: out.refreshes,
            },
            summary,
        ))
    }

    /// Per-inference time with `batch`-way batching: the matrix streams
    /// once per batch (infinite compute exploits the k-way reuse
    /// perfectly, so performance scales linearly with k — Fig. 11).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn per_inference_ns(&self, m: usize, n: usize, batch: usize) -> Result<f64, DramError> {
        Ok(self.run_layer(m, n)?.time_ns / batch.max(1) as f64)
    }

    /// Measures an end-to-end sequence of layers (matrices resident at
    /// stacked rows, refresh state carried across layers).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (e.g. capacity exhaustion).
    pub fn run_model(&self, shapes: &[(usize, usize)]) -> Result<IdealOutcome, DramError> {
        let mut channel = Channel::new(self.dram.clone())?;
        let mut base_row = 0;
        let mut start = 0;
        let mut total_rows = 0;
        let mut refreshes = 0;
        let mut end = 0;
        for &(m, n) in shapes {
            let rows = self.rows_for(m, n);
            let list = self.row_list(rows, base_row);
            let mut reader = StreamReader::new(&mut channel);
            let out = reader.read_rows(start, &list, |_, _, _| {})?;
            start = out.end_cycle;
            end = out.end_cycle;
            base_row += rows.div_ceil(self.dram.banks);
            total_rows += rows;
            refreshes += out.refreshes;
        }
        Ok(IdealOutcome {
            time_ns: end as f64 * self.dram.timing.tck_ns,
            rows_streamed: total_rows,
            refreshes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_time_close_to_but_above_analytic_bound() {
        let ideal = IdealNonPim::paper_default();
        // GNMTs1-sized layer.
        let out = ideal.run_layer(4096, 1024).unwrap();
        // The closed-form bound `bytes / external bandwidth`: Sec.
        // III-F's `col * tCCD` per row.
        let rows = ideal.rows_for(4096, 1024);
        let bound = rows as f64 * ideal.dram.cols_per_row as f64 * ideal.dram.timing.t_ccd_ns;
        assert!(out.time_ns >= bound, "{} < {}", out.time_ns, bound);
        // Within a few percent: pipeline fill + refresh only.
        assert!(out.time_ns <= bound * 1.15, "{} vs {}", out.time_ns, bound);
    }

    #[test]
    fn long_streams_see_refresh() {
        let ideal = IdealNonPim::paper_default();
        // AlexNetL6: ~459 µs of streaming per channel >> tREFI.
        let out = ideal.run_layer(21632, 2048).unwrap();
        assert!(out.refreshes > 50, "{}", out.refreshes);
    }

    #[test]
    fn batching_scales_linearly() {
        let ideal = IdealNonPim::paper_default();
        let t1 = ideal.per_inference_ns(1024, 1024, 1).unwrap();
        let t8 = ideal.per_inference_ns(1024, 1024, 8).unwrap();
        assert!((t1 / t8 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn more_channels_is_proportionally_faster() {
        let a = IdealNonPim::new(DramConfig::hbm2e_like(), 1);
        let b = IdealNonPim::new(DramConfig::hbm2e_like(), 24);
        let ta = a.run_layer(4096, 1024).unwrap().time_ns;
        let tb = b.run_layer(4096, 1024).unwrap().time_ns;
        let ratio = ta / tb;
        assert!((20.0..28.0).contains(&ratio), "{ratio}");
    }

    #[test]
    fn model_run_sums_layers_and_carries_refresh() {
        let ideal = IdealNonPim::paper_default();
        let single = ideal.run_layer(4096, 1024).unwrap();
        let model = ideal.run_model(&[(4096, 1024), (4096, 1024)]).unwrap();
        assert!(model.time_ns >= 1.9 * single.time_ns);
        assert_eq!(model.rows_streamed, 2 * single.rows_streamed);
    }

    #[test]
    fn tiny_layers_round_up_to_whole_rows() {
        let ideal = IdealNonPim::paper_default();
        // DLRM: 512x256 over 24 channels = 22 matrix rows x 512 B = 11 KB
        // -> 11 DRAM rows.
        let out = ideal.run_layer(512, 256).unwrap();
        assert_eq!(out.rows_streamed, 11);
    }
}
