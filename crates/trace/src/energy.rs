//! Per-command energy attribution: the Fig. 13 coefficients as a model
//! consulted at command-issue time.
//!
//! The paper's Section IV power analysis decomposes Newton's draw into
//! background, open-bank standby, activation, bank-array, PHY, and MAC
//! components. `newton-model` owns the *average-power* view (postprocessed
//! from run summaries); this module owns the same coefficients as
//! *per-command energies* so the DRAM channel can attribute picojoules to
//! every ACT/COMP/READRES/refresh as it issues, feeding the windowed
//! [`TimeSeries`](crate::timeseries::TimeSeries).
//!
//! Units: energies are picojoules in the paper-normalized unit system
//! (conventional peak-read streaming power ≡ 1.0, so 1 pJ here is one
//! baseline-power·ns). The two views stay numerically consistent by
//! construction: `newton_model::power::PowerModel::default()` reads its
//! constants from [`EnergyModel::default`], and a property test asserts
//! streamed counts reproduce the postprocessed totals bit-for-bit.

/// Command labels whose bank operations are row activations.
const ACT_LABELS: [&str; 2] = ["ACT", "G_ACT"];

/// Fig. 13 energy coefficients (see module docs for units and
/// calibration; the constants are solved from the paper's two anchors:
/// conventional peak streaming ≡ 1.0, COMP phase ≡ 4.0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Static background power (baseline fraction; ∝ elapsed time).
    pub p_background: f64,
    /// Open-bank standby power per bank (baseline fraction; ∝ bank·ns).
    pub p_open_per_bank: f64,
    /// Energy per row activation, pJ.
    pub e_act: f64,
    /// Energy per bank-array column access (internal or external), pJ.
    pub e_array: f64,
    /// Energy per column-I/O worth of bytes crossing the PHY, pJ.
    pub e_phy: f64,
    /// Energy per per-bank COMP operation (multipliers + adder tree), pJ.
    pub e_mac: f64,
    /// Bytes per column I/O (PHY energy granularity).
    pub col_bytes: f64,
}

impl Default for EnergyModel {
    fn default() -> EnergyModel {
        EnergyModel {
            p_background: 0.25,
            p_open_per_bank: 0.01,
            e_act: 4.0,
            e_array: 0.7,
            e_phy: 2.095,
            e_mac: 0.197,
            col_bytes: 32.0,
        }
    }
}

impl EnergyModel {
    /// The calibrated model.
    #[must_use]
    pub fn new() -> EnergyModel {
        EnergyModel::default()
    }

    /// Energy of an activation command covering `bank_ops` banks, pJ.
    #[must_use]
    pub(crate) fn act_pj(&self, bank_ops: u32) -> f64 {
        self.e_act * f64::from(bank_ops)
    }

    /// Energy of an all-bank COMP covering `bank_ops` banks: one internal
    /// array read plus one MAC per bank, pJ.
    #[must_use]
    pub(crate) fn comp_pj(&self, bank_ops: u32) -> f64 {
        (self.e_array + self.e_mac) * f64::from(bank_ops)
    }

    /// PHY energy for `bytes` crossing the external interface, pJ.
    #[must_use]
    pub(crate) fn phy_pj(&self, bytes: u64) -> f64 {
        self.e_phy * (bytes as f64 / self.col_bytes)
    }

    /// Energy of an all-bank refresh touching `banks` banks, pJ.
    ///
    /// The postprocessed Fig. 13 model carries no refresh component (the
    /// paper folds it into background), so this is approximated as one
    /// activation per refreshed bank and accounted *separately* from the
    /// model-comparable dynamic energy (see
    /// [`WindowMetrics::refresh_milli_pj`](crate::WindowMetrics::refresh_milli_pj)).
    #[must_use]
    pub fn refresh_pj(&self, banks: u32) -> f64 {
        self.e_act * f64::from(banks)
    }

    /// Dynamic energy attributed to a command at issue time, pJ: the
    /// array/MAC/activation component by mnemonic plus the PHY component
    /// for `data_bytes` the command moves over the external bus. Commands
    /// with no energy-bearing work (PRE, CTRL, ...) return 0.
    #[must_use]
    pub fn command_pj(&self, label: &str, bank_ops: u32, data_bytes: u64) -> f64 {
        let core = if ACT_LABELS.contains(&label) {
            self.act_pj(bank_ops)
        } else if label == "COMP" {
            self.comp_pj(bank_ops)
        } else if label == "RD" || label == "WR" {
            // One external bank-array column access; the PHY part rides
            // on `data_bytes`.
            self.e_array
        } else {
            // READRES / GWRITE move data without touching bank arrays;
            // PRE / PREA / CTRL / REF carry no dynamic energy here (REF
            // goes through `refresh_pj` so it stays separable).
            0.0
        };
        core + self.phy_pj(data_bytes)
    }
}

/// Converts pJ to the fixed-point milli-pJ carried by trace events
/// (keeps the event stream integral, hashable, and `Eq`).
#[must_use]
pub fn to_milli_pj(pj: f64) -> u64 {
    if pj <= 0.0 {
        0
    } else {
        (pj * 1000.0).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_command_energies_follow_the_coefficients() {
        let m = EnergyModel::new();
        assert_eq!(m.act_pj(4), 16.0);
        assert_eq!(m.comp_pj(16), (0.7 + 0.197) * 16.0);
        assert_eq!(m.phy_pj(64), 2.095 * 2.0);
        assert_eq!(m.refresh_pj(16), 64.0);
    }

    #[test]
    fn command_pj_dispatches_on_mnemonic() {
        let m = EnergyModel::new();
        assert_eq!(m.command_pj("ACT", 1, 0), m.e_act);
        assert_eq!(m.command_pj("G_ACT", 4, 0), 4.0 * m.e_act);
        assert_eq!(m.command_pj("COMP", 16, 0), m.comp_pj(16));
        assert_eq!(m.command_pj("RD", 1, 32), m.e_array + m.e_phy);
        assert_eq!(m.command_pj("READRES", 0, 32), m.e_phy);
        assert_eq!(m.command_pj("GWRITE", 0, 64), m.phy_pj(64));
        assert_eq!(m.command_pj("PRE", 1, 0), 0.0);
        assert_eq!(m.command_pj("REF", 16, 0), 0.0, "REF is separable");
    }

    #[test]
    fn milli_pj_rounds_and_clamps() {
        assert_eq!(to_milli_pj(0.0), 0);
        assert_eq!(to_milli_pj(-1.0), 0);
        assert_eq!(to_milli_pj(4.0), 4000);
        assert_eq!(to_milli_pj(0.0004), 0);
        assert_eq!(to_milli_pj(0.0006), 1);
    }
}
