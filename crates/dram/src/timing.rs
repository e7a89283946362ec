//! DRAM timing parameters and their cycle-domain derivation.
//!
//! Parameters are specified in nanoseconds (the unit DRAM datasheets and the
//! paper's Table III use) and converted to integer [`Cycle`]s of the command
//! clock with ceiling rounding, as a real memory controller does.
//!
//! Table III of the paper discloses tRP = tRCD = 14 ns, tRAS = 33 ns, and a
//! tAA range of 22–29 ns; the remaining values are proprietary. The
//! [`TimingParams::hbm2e_like`] preset fills the gaps with public
//! HBM2/HBM2E-class values chosen so the paper's own analytical model
//! (Sec. III-F) reproduces its published 9.8× speedup prediction — see
//! DESIGN.md §2 for the derivation.

use crate::error::DramError;

/// A point in simulated time, in integer command-clock cycles.
pub type Cycle = u64;

/// DRAM timing parameters in nanoseconds.
///
/// Use [`TimingParams::hbm2e_like`] for the paper's configuration, then
/// derive integer-cycle values with [`TimingParams::to_cycles`].
///
/// # Example
///
/// ```
/// use newton_dram::TimingParams;
/// let t = TimingParams::hbm2e_like();
/// let cyc = t.to_cycles().unwrap();
/// assert_eq!(cyc.t_rcd, 14);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimingParams {
    /// Command-clock period. All other parameters are ceiling-divided by
    /// this to obtain cycles.
    pub tck_ns: f64,
    /// Row-to-column delay: ACT to first column command on the same bank.
    pub t_rcd_ns: f64,
    /// Row precharge time: PRE to ACT on the same bank.
    pub t_rp_ns: f64,
    /// Row active time: ACT to PRE on the same bank.
    pub t_ras_ns: f64,
    /// Column-to-column delay: successive column accesses on the same bank
    /// group / channel (the data-burst cadence).
    pub t_ccd_ns: f64,
    /// Activate-to-activate delay between *different* banks.
    pub t_rrd_ns: f64,
    /// Four-activation window: at most four ACTs in any window of this
    /// length (rank-wide power constraint, Sec. III-D).
    pub t_faw_ns: f64,
    /// Read-to-precharge delay on the same bank.
    pub t_rtp_ns: f64,
    /// Write recovery: end of write data to PRE on the same bank.
    pub t_wr_ns: f64,
    /// Column access latency (CAS latency / tAA): column command to first
    /// data beat.
    pub t_aa_ns: f64,
    /// Average periodic refresh interval.
    pub t_refi_ns: f64,
    /// Refresh cycle time: duration an all-bank refresh occupies the rank.
    pub t_rfc_ns: f64,
    /// Command-bus slot: minimum spacing between any two commands
    /// ("DRAM commands must be separated by a specified delay (e.g., 4
    /// cycles)", Sec. III-D). Expressed in nanoseconds for symmetry.
    pub t_cmd_ns: f64,
}

impl TimingParams {
    /// The paper's HBM2E-like configuration (Table III plus public
    /// HBM2E-class values for undisclosed parameters).
    ///
    /// * Disclosed by Table III: tRP = tRCD = 14 ns, tRAS = 33 ns,
    ///   tAA ∈ [22, 29] ns (we use 25 ns, mid-range).
    /// * Chosen (public HBM2E class): tCK = 1 ns, tCCD = 4 ns per 256-bit
    ///   column I/O, tRRD = 4 ns, tFAW = 30 ns, tRTP = 6 ns, tWR = 15 ns,
    ///   tREFI = 3900 ns, tRFC = 350 ns, command slot = 4 ns.
    #[must_use]
    pub fn hbm2e_like() -> TimingParams {
        TimingParams {
            tck_ns: 1.0,
            t_rcd_ns: 14.0,
            t_rp_ns: 14.0,
            t_ras_ns: 33.0,
            t_ccd_ns: 4.0,
            t_rrd_ns: 4.0,
            t_faw_ns: 30.0,
            t_rtp_ns: 6.0,
            t_wr_ns: 15.0,
            t_aa_ns: 25.0,
            t_refi_ns: 3900.0,
            t_rfc_ns: 350.0,
            t_cmd_ns: 4.0,
        }
    }

    /// The same configuration with Newton's aggressive tFAW reduction
    /// (Sec. III-D: stronger internal voltage generators shorten recovery;
    /// "improving tFAW comes with the cost of higher die area").
    ///
    /// 22 ns reproduces the paper's analytical-model speedup of ≈ 9.8×
    /// over Ideal Non-PIM at 16 banks (see `newton-model::perf`).
    #[must_use]
    pub(crate) fn hbm2e_like_aggressive_tfaw() -> TimingParams {
        TimingParams {
            t_faw_ns: 22.0,
            ..TimingParams::hbm2e_like()
        }
    }

    /// A GDDR6-class device (the family SK hynix's production AiM chip,
    /// GDDR6-AiM, eventually shipped in). Shorter column cadence and
    /// command slot, slightly longer core timings than HBM2E.
    ///
    /// Values are public-datasheet-class, for the Sec. III-E "other DRAM
    /// families" what-if — not a calibrated GDDR6-AiM model.
    #[must_use]
    pub(crate) fn gddr6_like() -> TimingParams {
        TimingParams {
            tck_ns: 1.0,
            t_rcd_ns: 18.0,
            t_rp_ns: 18.0,
            t_ras_ns: 32.0,
            t_ccd_ns: 2.0,
            t_rrd_ns: 6.0,
            t_faw_ns: 24.0,
            t_rtp_ns: 8.0,
            t_wr_ns: 18.0,
            t_aa_ns: 20.0,
            t_refi_ns: 1900.0,
            t_rfc_ns: 280.0,
            t_cmd_ns: 2.0,
        }
    }

    /// An LPDDR4-class device: fewer banks, slower column cadence, longer
    /// activation-rate windows (mobile power limits).
    #[must_use]
    pub(crate) fn lpddr4_like() -> TimingParams {
        TimingParams {
            tck_ns: 1.0,
            t_rcd_ns: 18.0,
            t_rp_ns: 21.0,
            t_ras_ns: 42.0,
            t_ccd_ns: 8.0,
            t_rrd_ns: 10.0,
            t_faw_ns: 40.0,
            t_rtp_ns: 8.0,
            t_wr_ns: 18.0,
            t_aa_ns: 28.0,
            t_refi_ns: 3904.0,
            t_rfc_ns: 210.0,
            t_cmd_ns: 8.0,
        }
    }

    /// A DDR4-class device.
    #[must_use]
    pub(crate) fn ddr4_like() -> TimingParams {
        TimingParams {
            tck_ns: 1.0,
            t_rcd_ns: 14.0,
            t_rp_ns: 14.0,
            t_ras_ns: 32.0,
            t_ccd_ns: 5.0,
            t_rrd_ns: 5.0,
            t_faw_ns: 30.0,
            t_rtp_ns: 8.0,
            t_wr_ns: 15.0,
            t_aa_ns: 14.0,
            t_refi_ns: 7800.0,
            t_rfc_ns: 350.0,
            t_cmd_ns: 5.0,
        }
    }

    /// Converts all parameters to integer cycles with ceiling rounding.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] if any parameter is negative,
    /// non-finite, or if `tck_ns`, tCCD, tRRD or tCMD is not strictly
    /// positive, or if derived relationships are inconsistent (e.g.
    /// `t_ras < t_rcd`).
    pub fn to_cycles(&self) -> Result<Timing, DramError> {
        if !(self.tck_ns.is_finite() && self.tck_ns > 0.0) {
            return Err(DramError::InvalidConfig(format!(
                "tCK must be positive and finite, got {}",
                self.tck_ns
            )));
        }
        let conv = |name: &str, ns: f64| -> Result<Cycle, DramError> {
            if !ns.is_finite() || ns < 0.0 {
                return Err(DramError::InvalidConfig(format!(
                    "{name} must be non-negative and finite, got {ns}"
                )));
            }
            Ok((ns / self.tck_ns).ceil() as Cycle)
        };
        // The spacing between two column commands, two activations or two
        // command-bus slots: zero would let both share a cycle. Any
        // positive value rounds up to at least one cycle.
        let spacing = |name: &str, ns: f64| -> Result<Cycle, DramError> {
            match conv(name, ns)? {
                0 => Err(DramError::InvalidConfig(format!(
                    "{name} must be positive, got {ns}"
                ))),
                cycles => Ok(cycles),
            }
        };
        let t = Timing {
            t_rcd: conv("tRCD", self.t_rcd_ns)?,
            t_rp: conv("tRP", self.t_rp_ns)?,
            t_ras: conv("tRAS", self.t_ras_ns)?,
            t_ccd: spacing("tCCD", self.t_ccd_ns)?,
            t_rrd: spacing("tRRD", self.t_rrd_ns)?,
            t_faw: conv("tFAW", self.t_faw_ns)?,
            t_rtp: conv("tRTP", self.t_rtp_ns)?,
            t_wr: conv("tWR", self.t_wr_ns)?,
            t_aa: conv("tAA", self.t_aa_ns)?,
            t_refi: conv("tREFI", self.t_refi_ns)?,
            t_rfc: conv("tRFC", self.t_rfc_ns)?,
            t_cmd: spacing("tCMD", self.t_cmd_ns)?,
            tck_ns: self.tck_ns,
        };
        if t.t_ras < t.t_rcd {
            return Err(DramError::InvalidConfig(format!(
                "tRAS ({}) must be >= tRCD ({})",
                t.t_ras, t.t_rcd
            )));
        }
        if t.t_faw < t.t_rrd {
            return Err(DramError::InvalidConfig(format!(
                "tFAW ({}) must be >= tRRD ({})",
                t.t_faw, t.t_rrd
            )));
        }
        if t.t_refi > 0 && t.t_rfc >= t.t_refi {
            return Err(DramError::InvalidConfig(format!(
                "tRFC ({}) must be < tREFI ({})",
                t.t_rfc, t.t_refi
            )));
        }
        Ok(t)
    }
}

impl Default for TimingParams {
    /// Defaults to the paper's HBM2E-like configuration.
    fn default() -> TimingParams {
        TimingParams::hbm2e_like()
    }
}

/// Integer-cycle timing values derived from [`TimingParams`].
///
/// Field meanings match the corresponding `*_ns` fields of
/// [`TimingParams`]; see those docs.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)]
pub struct Timing {
    pub t_rcd: Cycle,
    pub t_rp: Cycle,
    pub t_ras: Cycle,
    pub t_ccd: Cycle,
    pub t_rrd: Cycle,
    pub t_faw: Cycle,
    pub t_rtp: Cycle,
    pub t_wr: Cycle,
    pub t_aa: Cycle,
    pub t_refi: Cycle,
    pub t_rfc: Cycle,
    pub t_cmd: Cycle,
    /// Command-clock period in nanoseconds (for converting results back to
    /// wall-clock time).
    pub tck_ns: f64,
}

impl Timing {
    /// Row cycle time tRC = tRAS + tRP: minimum ACT-to-ACT on one bank.
    #[must_use]
    pub fn t_rc(&self) -> Cycle {
        self.t_ras + self.t_rp
    }

    /// Cadence of a saturated internal column stream: successive ganged
    /// COMP-style column commands are spaced by the larger of the bank
    /// column cadence (tCCD) and the command-bus slot (tCMD). This is the
    /// event-skipping cursor step for the AiM COMP fast path.
    #[must_use]
    pub fn col_step(&self) -> Cycle {
        self.t_ccd.max(self.t_cmd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm2e_preset_matches_table_iii_disclosures() {
        let t = TimingParams::hbm2e_like();
        assert_eq!(t.t_rcd_ns, 14.0);
        assert_eq!(t.t_rp_ns, 14.0);
        assert_eq!(t.t_ras_ns, 33.0);
        assert!(
            (22.0..=29.0).contains(&t.t_aa_ns),
            "tAA within Table III range"
        );
    }

    #[test]
    fn aggressive_tfaw_only_changes_tfaw() {
        let base = TimingParams::hbm2e_like();
        let aggr = TimingParams::hbm2e_like_aggressive_tfaw();
        assert!(aggr.t_faw_ns < base.t_faw_ns);
        assert_eq!(aggr.t_rcd_ns, base.t_rcd_ns);
        assert_eq!(aggr.t_ccd_ns, base.t_ccd_ns);
    }

    #[test]
    fn conversion_uses_ceiling_rounding() {
        let mut p = TimingParams::hbm2e_like();
        p.tck_ns = 0.8;
        let t = p.to_cycles().unwrap();
        // 14 / 0.8 = 17.5 -> 18
        assert_eq!(t.t_rcd, 18);
        // 33 / 0.8 = 41.25 -> 42
        assert_eq!(t.t_ras, 42);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let mut p = TimingParams::hbm2e_like();
        p.tck_ns = 0.0;
        assert!(p.to_cycles().is_err());

        let mut p = TimingParams::hbm2e_like();
        p.t_rcd_ns = -1.0;
        assert!(p.to_cycles().is_err());

        let mut p = TimingParams::hbm2e_like();
        p.t_ras_ns = 5.0; // < tRCD
        assert!(p.to_cycles().is_err());

        let mut p = TimingParams::hbm2e_like();
        p.t_faw_ns = 1.0; // < tRRD
        assert!(p.to_cycles().is_err());

        let mut p = TimingParams::hbm2e_like();
        p.t_rfc_ns = 5000.0; // >= tREFI
        assert!(p.to_cycles().is_err());
    }

    #[test]
    fn zero_command_spacings_are_errors_not_one_cycle() {
        let base = TimingParams::hbm2e_like();
        for (name, p) in [
            (
                "tCCD",
                TimingParams {
                    t_ccd_ns: 0.0,
                    ..base
                },
            ),
            (
                "tRRD",
                TimingParams {
                    t_rrd_ns: 0.0,
                    ..base
                },
            ),
            (
                "tCMD",
                TimingParams {
                    t_cmd_ns: 0.0,
                    ..base
                },
            ),
        ] {
            match p.to_cycles() {
                Err(DramError::InvalidConfig(msg)) => assert!(msg.contains(name), "{msg}"),
                other => panic!("{name} = 0 ns must be rejected, got {other:?}"),
            }
        }
        // The smallest positive spacing is one cycle, not an error.
        let mut p = TimingParams::hbm2e_like();
        p.t_cmd_ns = 1e-3;
        assert_eq!(p.to_cycles().unwrap().t_cmd, 1);
    }

    #[test]
    fn derived_trc() {
        let t = TimingParams::hbm2e_like().to_cycles().unwrap();
        assert_eq!(t.t_rc(), t.t_ras + t.t_rp);
    }

    #[test]
    fn default_is_hbm2e_like() {
        assert_eq!(TimingParams::default(), TimingParams::hbm2e_like());
    }
}
