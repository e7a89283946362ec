//! Newton device configuration and the optimization flags of the paper's
//! evaluation.
//!
//! Figure 9 of the paper isolates five optimizations by progressively
//! enabling them on top of `Non-opt-Newton`:
//!
//! 1. **gang** — one COMP command drives all banks (vs. one per bank);
//! 2. **complex** — one command performs broadcast + column-read +
//!    multiply-add (vs. three simple commands);
//! 3. **reuse** — the chunk-interleaved matrix layout with column-major
//!    tile traversal that fully reuses each input chunk (vs.
//!    Newton-no-reuse's row-major traversal with input refetch);
//! 4. **four-bank** — G_ACT gangs four activations into one command;
//! 5. **aggressive tFAW** — stronger voltage generators shorten tFAW.
//!
//! [`OptFlags`] holds the five switches independently; [`OptLevel`] is the
//! exact cumulative ladder of Fig. 9.

use newton_dram::timing::Cycle;
use newton_dram::DramConfig;

use crate::error::AimError;
use crate::parallel::ParallelPolicy;

/// Streaming-telemetry configuration for a Newton system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TelemetryConfig {
    /// Telemetry window width in command-clock cycles.
    pub window_cycles: u64,
}

impl Default for TelemetryConfig {
    /// The default window of [`newton_trace::DEFAULT_WINDOW_CYCLES`].
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            window_cycles: newton_trace::DEFAULT_WINDOW_CYCLES,
        }
    }
}

/// Which of the simulator's two paths a [`NewtonChannel`] runs: the
/// production path or the oracle it is checked against. Both produce
/// byte-identical command streams, cycles, statistics and outputs; they
/// differ only in host-side work per command.
///
/// [`NewtonChannel`]: crate::controller::NewtonChannel
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TimingEngine {
    /// Production: each GWRITE and ganged COMP stream issues as one
    /// closed-form train, activations skip the scrub of rows the storage
    /// marks verified, and COMP folds the stored weight rows in place
    /// through the SIMD kernel. The default.
    #[default]
    EventSkipping,
    /// The oracle: every command issued and checked singly after its
    /// `earliest_*` query, every activation scrubbed, and every COMP
    /// computed by the scalar kernels from the bytes its column read
    /// returned.
    Reference,
}

/// The five independently switchable Newton optimizations (Sec. V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptFlags {
    /// One COMP command gangs the compute in all banks.
    pub(crate) ganged_comp: bool,
    /// COMP is a single complex command (broadcast + column read +
    /// multiply-add) instead of three simple ones.
    pub(crate) complex_comp: bool,
    /// Chunk-interleaved layout + column-major tile traversal (full input
    /// reuse). When false, the Newton-no-reuse layout/schedule is used.
    pub interleaved_reuse: bool,
    /// G_ACT gangs four bank activations into one command.
    pub(crate) ganged_act: bool,
    /// Aggressive tFAW from beefed-up internal voltage generation.
    pub(crate) aggressive_tfaw: bool,
}

impl OptFlags {
    /// All optimizations on — full Newton.
    #[must_use]
    pub(crate) fn all() -> OptFlags {
        OptFlags {
            ganged_comp: true,
            complex_comp: true,
            interleaved_reuse: true,
            ganged_act: true,
            aggressive_tfaw: true,
        }
    }

    /// All optimizations off — the paper's `Non-opt-Newton`.
    #[must_use]
    pub(crate) fn none() -> OptFlags {
        OptFlags {
            ganged_comp: false,
            complex_comp: false,
            interleaved_reuse: false,
            ganged_act: false,
            aggressive_tfaw: false,
        }
    }
}

impl Default for OptFlags {
    /// Defaults to full Newton.
    fn default() -> OptFlags {
        OptFlags::all()
    }
}

/// The cumulative optimization ladder of Figure 9.
///
/// Each level enables everything the previous level did plus one more
/// optimization, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OptLevel {
    /// No optimizations (`Non-opt-Newton`).
    NonOpt,
    /// + all-bank ganged compute commands.
    Gang,
    /// + complex multi-step compute commands.
    Complex,
    /// + interleaved layout / tiling reuse.
    Reuse,
    /// + four-bank ganged activations.
    FourBank,
    /// + aggressive tFAW = full Newton.
    Full,
}

impl OptLevel {
    /// The ladder in evaluation order.
    #[must_use]
    pub fn ladder() -> [OptLevel; 6] {
        [
            OptLevel::NonOpt,
            OptLevel::Gang,
            OptLevel::Complex,
            OptLevel::Reuse,
            OptLevel::FourBank,
            OptLevel::Full,
        ]
    }

    /// The flag set this level corresponds to.
    #[must_use]
    pub fn flags(self) -> OptFlags {
        let mut f = OptFlags::none();
        if self >= OptLevel::Gang {
            f.ganged_comp = true;
        }
        if self >= OptLevel::Complex {
            f.complex_comp = true;
        }
        if self >= OptLevel::Reuse {
            f.interleaved_reuse = true;
        }
        if self >= OptLevel::FourBank {
            f.ganged_act = true;
        }
        if self >= OptLevel::Full {
            f.aggressive_tfaw = true;
        }
        f
    }

    /// Display label matching the paper's Figure 9 x-axis.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::NonOpt => "Non-opt-Newton",
            OptLevel::Gang => "+gang",
            OptLevel::Complex => "+complex",
            OptLevel::Reuse => "+reuse",
            OptLevel::FourBank => "+four-bank",
            OptLevel::Full => "+tFAW (full Newton)",
        }
    }
}

/// Complete configuration of a Newton system.
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonConfig {
    /// Per-channel DRAM geometry and baseline timing. The `aggressive_tfaw`
    /// flag overrides tFAW; see [`NewtonConfig::effective_dram`].
    pub dram: DramConfig,
    /// Optimization switches.
    pub opts: OptFlags,
    /// Number of (pseudo-)channels in the system (the paper's GPU-class
    /// configuration uses 24).
    pub channels: usize,
    /// Latency of the pipelined adder tree from last column access to a
    /// readable result latch, in cycles. The tree's initiation interval is
    /// tCCD (it accepts a new set every column access); the paper notes
    /// the completion latency exceeds the 4-cycle command spacing, so the
    /// controller delays READRES by this amount.
    pub(crate) adder_tree_latency: Cycle,
    /// Result latches per bank: 1 in Newton proper; 4 in the explored
    /// "option in between" of Sec. III-C.
    pub result_latches_per_bank: usize,
    /// Host-side exposed latency (ns) for normalizing the first tile of a
    /// layer's output before the next layer can start (Sec. III-C batch
    /// normalization pipelining; the rest is hidden under compute).
    pub batch_norm_first_tile_ns: f64,
    /// How channel simulation and matrix loading spread across host
    /// threads. Affects wall-clock only: results are bit-identical for
    /// every thread count (see [`crate::parallel`]).
    pub parallel: ParallelPolicy,
    /// Enables the SECDED (72,64) on-die ECC model: rows carry check
    /// bytes, activations scrub, and every read / COMP operand fetch is
    /// checked. Off by default — the paper's evaluation assumes perfect
    /// cells, and fault campaigns opt in explicitly.
    pub ecc: bool,
    /// Streaming telemetry: `Some` makes every channel collect a windowed
    /// time series (and per-command energy attributions) with the given
    /// window width. `None` (the default) collects nothing.
    pub telemetry: Option<TelemetryConfig>,
    /// Production or oracle ([`TimingEngine`]): the event-skipping
    /// default runs trains, skips verified scrubs and computes COMP with
    /// the SIMD kernel; [`TimingEngine::Reference`] issues every command
    /// singly, scrubs every activation and computes COMP with the scalar
    /// kernels. Both produce identical results.
    pub engine: TimingEngine,
    /// Attaches the post-hoc timing audit to every channel: each logs
    /// its command stream (trains folded) and, at the end of every run,
    /// checks what that run added against the raw timing constraints; a
    /// violation fails the run with [`AimError::AuditFailed`]. It does
    /// not change which code runs — trains stay closed-form — so the
    /// audited run is the run users get. Off by default: the log
    /// grows with the single commands issued.
    pub audit: bool,
}

impl NewtonConfig {
    /// The paper's evaluation configuration: 24 channels of the Table III
    /// HBM2E-like device, all optimizations on. Each bank has one
    /// multiplier per bf16 element of a column I/O (16 for 256-bit
    /// columns), rate-matched to the column-access bandwidth.
    #[must_use]
    pub fn paper_default() -> NewtonConfig {
        NewtonConfig {
            dram: DramConfig::hbm2e_like(),
            opts: OptFlags::all(),
            channels: 24,
            adder_tree_latency: 12,
            result_latches_per_bank: 1,
            batch_norm_first_tile_ns: 100.0,
            parallel: ParallelPolicy::default(),
            ecc: false,
            telemetry: None,
            engine: TimingEngine::EventSkipping,
            audit: false,
        }
    }

    /// A GDDR6/AiM-like configuration: the Table III GDDR6-like device
    /// (16 banks, 2 KB rows, 256-bit column I/O) across 16 channels —
    /// the geometry SK hynix's productized GDDR6-AiM descendant of
    /// Newton ships with. All optimizations stay on and the per-bank
    /// compute is unchanged (16 multipliers rate-matched to the column
    /// I/O); only the DRAM substrate and channel count differ, so the
    /// same `.aim` trace can execute on both device models for an
    /// apples-to-apples comparison.
    #[must_use]
    pub fn gddr6_aim() -> NewtonConfig {
        NewtonConfig {
            dram: DramConfig::gddr6_like(),
            channels: 16,
            ..NewtonConfig::paper_default()
        }
    }

    /// Same configuration at a given optimization level (Fig. 9 ladder).
    #[must_use]
    pub fn at_level(level: OptLevel) -> NewtonConfig {
        NewtonConfig {
            opts: level.flags(),
            ..NewtonConfig::paper_default()
        }
    }

    /// The DRAM configuration with the tFAW choice implied by the flags.
    ///
    /// The aggressive option shortens tFAW by the same factor the paper's
    /// HBM2E design achieves (30 ns → 22 ns) through stronger internal
    /// voltage generation; the factor generalizes to the other DRAM
    /// family presets.
    #[must_use]
    pub fn effective_dram(&self) -> DramConfig {
        let mut dram = self.dram.clone();
        if self.opts.aggressive_tfaw {
            dram.timing.t_faw_ns *= 22.0 / 30.0;
        }
        dram
    }

    /// Elements of one DRAM row (the chunk width), assuming bf16 storage.
    #[must_use]
    pub fn row_elems(&self) -> usize {
        self.dram.row_bytes() / 2
    }

    /// Elements of one column I/O (the sub-chunk width), which is also
    /// the number of multipliers per bank.
    #[must_use]
    pub fn subchunk_elems(&self) -> usize {
        self.dram.col_bytes() / 2
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`AimError::InvalidConfig`] when a field is zero, the
    /// result-latch count is not 1 or 4 (the two design points the paper
    /// discusses), a column does not hold whole bf16 elements, or `ecc` is
    /// on and a column does not hold whole 64-bit SECDED words.
    pub(crate) fn validate(&self) -> Result<(), AimError> {
        self.dram
            .validate()
            .map_err(|e| AimError::InvalidConfig(e.to_string()))?;
        let col_bits = self.dram.col_io_bits;
        if !col_bits.is_multiple_of(16) {
            return Err(AimError::InvalidConfig(format!(
                "a {col_bits}-bit column does not hold whole bf16 elements: col_io_bits must be a multiple of 16"
            )));
        }
        if self.ecc && !col_bits.is_multiple_of(64) {
            return Err(AimError::InvalidConfig(format!(
                "ECC protects 64-bit words: with ecc on, col_io_bits must be a multiple of 64, got {col_bits}"
            )));
        }
        if self.channels == 0 {
            return Err(AimError::InvalidConfig("channels must be > 0".into()));
        }
        if !matches!(self.result_latches_per_bank, 1 | 4) {
            return Err(AimError::InvalidConfig(format!(
                "result_latches_per_bank must be 1 (Newton) or 4 (Sec. III-C option), got {}",
                self.result_latches_per_bank
            )));
        }
        if self.adder_tree_latency == 0 {
            return Err(AimError::InvalidConfig(
                "adder_tree_latency must be > 0 (the tree takes more than 4 cycles)".into(),
            ));
        }
        if self.telemetry.is_some_and(|t| t.window_cycles == 0) {
            return Err(AimError::InvalidConfig(
                "telemetry window_cycles must be > 0".into(),
            ));
        }
        if self.opts.ganged_act && !self.dram.banks.is_multiple_of(4) {
            return Err(AimError::InvalidConfig(format!(
                "ganged 4-bank activation requires a bank count divisible by 4, got {}",
                self.dram.banks
            )));
        }
        Ok(())
    }
}

impl Default for NewtonConfig {
    fn default() -> NewtonConfig {
        NewtonConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid_and_matches_table_iii() {
        let cfg = NewtonConfig::paper_default();
        cfg.validate().unwrap();
        assert_eq!(cfg.channels, 24);
        assert_eq!(cfg.row_elems(), 512);
        assert_eq!(cfg.subchunk_elems(), 16);
    }

    #[test]
    fn ladder_is_cumulative_in_paper_order() {
        let ladder = OptLevel::ladder();
        assert_eq!(ladder[0].flags(), OptFlags::none());
        assert_eq!(ladder[5].flags(), OptFlags::all());
        // Each step adds exactly one flag.
        let count = |f: OptFlags| {
            [
                f.ganged_comp,
                f.complex_comp,
                f.interleaved_reuse,
                f.ganged_act,
                f.aggressive_tfaw,
            ]
            .iter()
            .filter(|&&b| b)
            .count()
        };
        for (i, level) in ladder.iter().enumerate() {
            assert_eq!(count(level.flags()), i, "{level:?}");
        }
        // Order matches the paper: gang, complex, reuse, four-bank, tFAW.
        assert!(ladder[1].flags().ganged_comp);
        assert!(ladder[2].flags().complex_comp);
        assert!(ladder[3].flags().interleaved_reuse);
        assert!(ladder[4].flags().ganged_act);
        assert!(ladder[5].flags().aggressive_tfaw);
    }

    #[test]
    fn effective_dram_applies_tfaw_flag() {
        let mut cfg = NewtonConfig::paper_default();
        cfg.opts.aggressive_tfaw = false;
        assert_eq!(cfg.effective_dram().timing.t_faw_ns, 30.0);
        cfg.opts.aggressive_tfaw = true;
        assert_eq!(cfg.effective_dram().timing.t_faw_ns, 22.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = NewtonConfig::paper_default();
        cfg.channels = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = NewtonConfig::paper_default();
        cfg.result_latches_per_bank = 2;
        assert!(cfg.validate().is_err());

        let mut cfg = NewtonConfig::paper_default();
        cfg.adder_tree_latency = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = NewtonConfig::paper_default();
        cfg.dram.banks = 6; // not divisible by 4 with ganged_act
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_width_telemetry_window_is_an_error_not_one_cycle() {
        let mut cfg = NewtonConfig::paper_default();
        cfg.telemetry = Some(TelemetryConfig { window_cycles: 0 });
        match cfg.validate() {
            Err(AimError::InvalidConfig(msg)) => assert!(msg.contains("window_cycles"), "{msg}"),
            other => panic!("a 0-cycle window must be rejected, got {other:?}"),
        }
        cfg.telemetry = Some(TelemetryConfig { window_cycles: 1 });
        cfg.validate().unwrap();
    }

    #[test]
    fn labels_cover_the_ladder() {
        for level in OptLevel::ladder() {
            assert!(!level.label().is_empty());
        }
        assert_eq!(OptLevel::NonOpt.label(), "Non-opt-Newton");
    }

    #[test]
    fn at_level_sets_only_flags() {
        let cfg = NewtonConfig::at_level(OptLevel::Gang);
        assert!(cfg.opts.ganged_comp && !cfg.opts.complex_comp);
        assert_eq!(cfg.channels, NewtonConfig::paper_default().channels);
    }
}
