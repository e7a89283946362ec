//! The Sec. III-F analytical performance model.
//!
//! For one DRAM row processed across all `n` banks:
//!
//! ```text
//! t_ideal-non-PIM = col * tCCD
//! t_newton        = max(tRRD, tFAW) * (n/4 - 1) + tACT + col * tCCD
//! o               = (max(tRRD, tFAW) * (n/4 - 1) + tACT) / (col * tCCD)
//! speedup         = n / (o + 1)
//! ```
//!
//! The paper reports the model predicts 9.8× at 16 banks, within 2% of
//! its simulator's 10×. Our simulator additionally exposes the
//! read-to-precharge + precharge turnaround between consecutive row-sets
//! in the same banks (the paper's model folds this away); the *refined*
//! model adds that term so model-vs-simulator agreement can be verified
//! tightly here too.

use newton_dram::DramConfig;

/// Closed-form Newton performance model over a DRAM configuration.
#[derive(Debug, Clone)]
pub struct PerfModel {
    dram: DramConfig,
}

impl PerfModel {
    /// Creates the model for a channel configuration.
    #[must_use]
    pub fn new(dram: DramConfig) -> PerfModel {
        PerfModel { dram }
    }

    /// The paper's configuration with Newton's aggressive tFAW.
    #[must_use]
    pub fn paper_default() -> PerfModel {
        PerfModel::new(DramConfig::hbm2e_like_aggressive_tfaw())
    }

    /// `t_ideal` per DRAM row: `col * tCCD`, in nanoseconds.
    #[must_use]
    fn t_ideal_ns(&self) -> f64 {
        self.dram.cols_per_row as f64 * self.dram.timing.t_ccd_ns
    }

    /// The activation-phase overhead `max(tRRD, tFAW) * (n/4 - 1) + tACT`
    /// in nanoseconds (tACT = tRCD: last G_ACT to first column command).
    #[must_use]
    fn activation_overhead_ns(&self) -> f64 {
        let t = &self.dram.timing;
        let gangs = (self.dram.banks as f64 / 4.0).ceil();
        t.t_rrd_ns.max(t.t_faw_ns) * (gangs - 1.0) + t.t_rcd_ns
    }

    /// `t_newton` per DRAM row across all banks (paper formula), ns.
    #[must_use]
    fn t_newton_ns(&self) -> f64 {
        self.activation_overhead_ns() + self.t_ideal_ns()
    }

    /// The overhead ratio `o`.
    #[must_use]
    fn overhead_ratio(&self) -> f64 {
        self.activation_overhead_ns() / self.t_ideal_ns()
    }

    /// Predicted speedup over Ideal Non-PIM: `n / (o + 1)`.
    #[must_use]
    pub fn speedup_vs_ideal(&self) -> f64 {
        self.dram.banks as f64 / (self.overhead_ratio() + 1.0)
    }

    /// Refined per-row-set time: the paper formula plus the
    /// read-to-precharge and precharge turnaround (`tRTP + tRP - tCCD`)
    /// that consecutive row-sets in the same banks expose in a
    /// non-double-buffered design.
    #[must_use]
    fn t_newton_refined_ns(&self) -> f64 {
        let t = &self.dram.timing;
        self.t_newton_ns() + t.t_rtp_ns + t.t_rp_ns - t.t_ccd_ns
    }

    /// Refined speedup prediction.
    #[must_use]
    pub fn speedup_vs_ideal_refined(&self) -> f64 {
        self.dram.banks as f64 * self.t_ideal_ns() / self.t_newton_refined_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_predict_close_to_ten_x() {
        let model = PerfModel::paper_default();
        // col*tCCD = 32*4 = 128 ns; overhead = 22*3 + 14 = 80 ns.
        assert_eq!(model.t_ideal_ns(), 128.0);
        assert_eq!(model.activation_overhead_ns(), 80.0);
        assert_eq!(model.t_newton_ns(), 208.0);
        let s = model.speedup_vs_ideal();
        assert!(
            (9.5..10.1).contains(&s),
            "paper-model speedup {s} should be ~9.8"
        );
    }

    #[test]
    fn refined_model_charges_the_precharge_turnaround() {
        let model = PerfModel::paper_default();
        // + tRTP(6) + tRP(14) - tCCD(4) = +16 ns.
        assert_eq!(model.t_newton_refined_ns(), 224.0);
        let s = model.speedup_vs_ideal_refined();
        assert!((8.9..9.4).contains(&s), "refined speedup {s}");
        assert!(s < model.speedup_vs_ideal());
    }

    #[test]
    fn amdahl_dampens_bank_scaling() {
        let model = PerfModel::paper_default();
        let s8 = PerfModel::new(model.dram.clone().with_banks(8)).speedup_vs_ideal();
        let s16 = PerfModel::new(model.dram.clone().with_banks(16)).speedup_vs_ideal();
        let s32 = PerfModel::new(model.dram.clone().with_banks(32)).speedup_vs_ideal();
        assert!(s8 < s16 && s16 < s32);
        // Sub-linear: doubling banks less than doubles speedup.
        assert!(s16 / s8 < 2.0);
        assert!(s32 / s16 < 2.0);
    }

    #[test]
    fn baseline_tfaw_is_slower() {
        let aggressive = PerfModel::paper_default();
        let baseline = PerfModel::new(DramConfig::hbm2e_like());
        assert!(baseline.speedup_vs_ideal() < aggressive.speedup_vs_ideal());
    }

    #[test]
    fn overhead_ratio_definition() {
        let model = PerfModel::paper_default();
        let o = model.overhead_ratio();
        assert!((o - 80.0 / 128.0).abs() < 1e-12);
        assert!((model.speedup_vs_ideal() - 16.0 / (o + 1.0)).abs() < 1e-12);
    }
}
