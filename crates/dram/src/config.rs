//! Channel geometry configuration and validation.

use crate::error::DramError;
use crate::timing::TimingParams;

/// Geometry and timing of one DRAM (pseudo-)channel.
///
/// The paper's configuration (Table III): 16 banks per channel, 32 K rows
/// per bank, 32 column I/Os per row at 256 bits each (1 KB rows = 512
/// bfloat16 elements).
///
/// # Example
///
/// ```
/// use newton_dram::DramConfig;
/// let cfg = DramConfig::hbm2e_like();
/// assert_eq!(cfg.banks, 16);
/// assert_eq!(cfg.row_bytes(), 1024);
/// assert_eq!(cfg.col_bytes(), 32);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of banks in the channel.
    pub banks: usize,
    /// Number of DRAM rows per bank.
    pub rows_per_bank: usize,
    /// Number of column I/O accesses that cover one row.
    pub cols_per_row: usize,
    /// Width of one column I/O in bits (256 in Table III).
    pub col_io_bits: usize,
    /// Timing parameters (nanoseconds).
    pub timing: TimingParams,
}

impl DramConfig {
    /// The paper's HBM2E-like channel (Table III) with baseline tFAW.
    #[must_use]
    pub fn hbm2e_like() -> DramConfig {
        DramConfig {
            banks: 16,
            rows_per_bank: 32_768,
            cols_per_row: 32,
            col_io_bits: 256,
            timing: TimingParams::hbm2e_like(),
        }
    }

    /// The HBM2E-like channel with Newton's aggressive tFAW (Sec. III-D).
    #[must_use]
    pub fn hbm2e_like_aggressive_tfaw() -> DramConfig {
        DramConfig {
            timing: TimingParams::hbm2e_like_aggressive_tfaw(),
            ..DramConfig::hbm2e_like()
        }
    }

    /// Same geometry with a different bank count (Fig. 10 sweeps 8/16/32).
    #[must_use]
    pub fn with_banks(mut self, banks: usize) -> DramConfig {
        self.banks = banks;
        self
    }

    /// A GDDR6-like channel: 16 banks, 2 KB rows consumed as 64 column
    /// I/Os of 256 bits at a 2 ns cadence (Sec. III-E: Newton's ideas
    /// apply to "other DRAM families such as LPDDR, DDR, and GDDR").
    #[must_use]
    pub fn gddr6_like() -> DramConfig {
        DramConfig {
            banks: 16,
            rows_per_bank: 16_384,
            cols_per_row: 64,
            col_io_bits: 256,
            timing: TimingParams::gddr6_like(),
        }
    }

    /// An LPDDR4-like channel: 8 banks, 2 KB rows at an 8 ns column
    /// cadence.
    #[must_use]
    pub fn lpddr4_like() -> DramConfig {
        DramConfig {
            banks: 8,
            rows_per_bank: 32_768,
            cols_per_row: 64,
            col_io_bits: 256,
            timing: TimingParams::lpddr4_like(),
        }
    }

    /// A DDR4-like channel: 16 banks, 1 KB rows at a 5 ns column cadence.
    #[must_use]
    pub fn ddr4_like() -> DramConfig {
        DramConfig {
            banks: 16,
            rows_per_bank: 65_536,
            cols_per_row: 32,
            col_io_bits: 256,
            timing: TimingParams::ddr4_like(),
        }
    }

    /// Bytes per column I/O access.
    #[must_use]
    pub fn col_bytes(&self) -> usize {
        self.col_io_bits / 8
    }

    /// Bytes per DRAM row.
    #[must_use]
    pub fn row_bytes(&self) -> usize {
        self.cols_per_row * self.col_bytes()
    }

    /// Peak external data bandwidth in bytes per nanosecond: one column I/O
    /// per tCCD through the single global bus (Sec. II-A: "the data
    /// retrieval from different banks are serialized through the global
    /// bus").
    #[must_use]
    pub fn external_bandwidth_bytes_per_ns(&self) -> f64 {
        self.col_bytes() as f64 / self.timing.t_ccd_ns
    }

    /// Validates geometry and timing.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] when any dimension is zero, the
    /// column width is not a positive multiple of 8 bits, or the timing
    /// parameters are inconsistent.
    pub fn validate(&self) -> Result<(), DramError> {
        if self.banks == 0 {
            return Err(DramError::InvalidConfig("banks must be > 0".into()));
        }
        if self.rows_per_bank == 0 {
            return Err(DramError::InvalidConfig("rows_per_bank must be > 0".into()));
        }
        if self.cols_per_row == 0 {
            return Err(DramError::InvalidConfig("cols_per_row must be > 0".into()));
        }
        if self.col_io_bits == 0 || !self.col_io_bits.is_multiple_of(8) {
            return Err(DramError::InvalidConfig(format!(
                "col_io_bits must be a positive multiple of 8, got {}",
                self.col_io_bits
            )));
        }
        self.timing.to_cycles().map(|_| ())
    }
}

impl Default for DramConfig {
    /// Defaults to [`DramConfig::hbm2e_like`].
    fn default() -> DramConfig {
        DramConfig::hbm2e_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_geometry() {
        let cfg = DramConfig::hbm2e_like();
        assert_eq!(cfg.banks, 16);
        assert_eq!(cfg.rows_per_bank, 32_768);
        assert_eq!(cfg.cols_per_row, 32);
        assert_eq!(cfg.col_io_bits, 256);
        // 1 KB rows, 32 B column accesses, 512 bf16 elements per row.
        assert_eq!(cfg.row_bytes(), 1024);
        assert_eq!(cfg.col_bytes(), 32);
        assert_eq!(cfg.row_bytes() / 2, 512);
        // Per-channel capacity: 16 banks x 32 K rows x 1 KB = 512 MiB.
        assert_eq!(cfg.banks * cfg.rows_per_bank * cfg.row_bytes(), 512 << 20);
        cfg.validate().unwrap();
    }

    #[test]
    fn external_bandwidth_is_one_column_per_tccd() {
        let cfg = DramConfig::hbm2e_like();
        assert_eq!(cfg.external_bandwidth_bytes_per_ns(), 8.0); // 32 B / 4 ns
    }

    #[test]
    fn with_banks_rescales_geometry() {
        let cfg = DramConfig::hbm2e_like().with_banks(32);
        assert_eq!(cfg.banks, 32);
        cfg.validate().unwrap();
    }

    #[test]
    fn zero_dimensions_rejected() {
        for mutate in [
            (|c: &mut DramConfig| c.banks = 0) as fn(&mut DramConfig),
            |c| c.rows_per_bank = 0,
            |c| c.cols_per_row = 0,
            |c| c.col_io_bits = 0,
            |c| c.col_io_bits = 12,
        ] {
            let mut cfg = DramConfig::hbm2e_like();
            mutate(&mut cfg);
            assert!(cfg.validate().is_err(), "{cfg:?} should be invalid");
        }
    }

    #[test]
    fn default_is_hbm2e() {
        assert_eq!(DramConfig::default(), DramConfig::hbm2e_like());
    }

    #[test]
    fn other_dram_families_validate_and_differ_sensibly() {
        let gddr6 = DramConfig::gddr6_like();
        let lpddr4 = DramConfig::lpddr4_like();
        let ddr4 = DramConfig::ddr4_like();
        for cfg in [&gddr6, &lpddr4, &ddr4] {
            cfg.validate().unwrap();
            assert_eq!(
                cfg.col_bytes(),
                32,
                "all families keep 16 bf16 per column I/O"
            );
        }
        // GDDR6 is the fastest per channel, LPDDR4 the slowest.
        assert!(gddr6.external_bandwidth_bytes_per_ns() > ddr4.external_bandwidth_bytes_per_ns());
        assert!(ddr4.external_bandwidth_bytes_per_ns() > lpddr4.external_bandwidth_bytes_per_ns());
        // Row sizes: GDDR6/LPDDR4 2 KB, DDR4 1 KB.
        assert_eq!(gddr6.row_bytes(), 2048);
        assert_eq!(lpddr4.row_bytes(), 2048);
        assert_eq!(ddr4.row_bytes(), 1024);
    }
}
