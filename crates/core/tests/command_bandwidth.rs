//! The paper's command-bandwidth arithmetic, verified from command
//! traces: "The ganged computation strategy ... reduces command bandwidth
//! requirements by 16x ... The use of complex commands offers an
//! additional 3x reduction" (Sec. V-B).

use newton_bf16::Bf16;
use newton_core::config::{NewtonConfig, OptLevel};
use newton_core::controller::NewtonChannel;
use newton_core::layout::MatrixMapping;
use newton_core::lut::ActivationKind;
use newton_core::tiling::{Schedule, ScheduleKind};

/// Runs one full-bank row-set at `level` and returns (compute commands,
/// total column-bus commands observed via stats).
fn compute_commands(level: OptLevel) -> u64 {
    let mut cfg = NewtonConfig::at_level(level);
    cfg.channels = 1;
    // Force the interleaved layout for every level so only the command
    // structure differs (reuse is about GWRITE traffic, not COMP count).
    cfg.opts.interleaved_reuse = true;
    let kind = ScheduleKind::InterleavedFullReuse;
    let mapping = MatrixMapping::new(kind.layout(), 16, 512, 16, 512, 0).unwrap();
    let schedule = Schedule::build(kind, &mapping);
    let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).unwrap();
    ch.load_matrix(&mapping, &vec![Bf16::ONE; 16 * 512])
        .unwrap();
    let run = ch
        .run_mv(&mapping, &schedule, &vec![Bf16::ONE; 512], false)
        .unwrap();
    run.stats.compute_commands
}

#[test]
fn ganging_reduces_compute_commands_sixteen_fold() {
    let non_ganged = compute_commands(OptLevel::NonOpt); // 16 banks x 32 cols x 3 steps
    let ganged = compute_commands(OptLevel::Gang); // 32 cols x 3 steps
    assert_eq!(non_ganged, 16 * 32 * 3);
    assert_eq!(ganged, 32 * 3);
    assert_eq!(non_ganged / ganged, 16, "the paper's 16x");
}

#[test]
fn complex_commands_reduce_a_further_three_fold() {
    let simple = compute_commands(OptLevel::Gang);
    let complex = compute_commands(OptLevel::Complex);
    assert_eq!(complex, 32);
    assert_eq!(simple / complex, 3, "the paper's additional 3x");
}

#[test]
fn full_newton_consumes_a_row_in_exactly_col_commands() {
    // 1 KB row = 32 column I/Os = 32 COMP commands, rate-matched to the
    // internal bandwidth (Sec. III-D).
    assert_eq!(compute_commands(OptLevel::Full), 32);
}

#[test]
fn readres_gangs_sixteen_bank_reads_into_one_command() {
    for (ganged, expect) in [(true, 1u64), (false, 16u64)] {
        let mut cfg = NewtonConfig::paper_default();
        cfg.channels = 1;
        // +gang adds the ganged COMP (and READRES) to Non-opt and
        // nothing else.
        let level = if ganged {
            OptLevel::Gang
        } else {
            OptLevel::NonOpt
        };
        cfg.opts = level.flags();
        let kind = ScheduleKind::InterleavedFullReuse;
        let mapping = MatrixMapping::new(kind.layout(), 16, 512, 16, 512, 0).unwrap();
        let schedule = Schedule::build(kind, &mapping);
        let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).unwrap();
        ch.load_matrix(&mapping, &vec![Bf16::ONE; 16 * 512])
            .unwrap();
        let run = ch
            .run_mv(&mapping, &schedule, &vec![Bf16::ONE; 512], false)
            .unwrap();
        assert_eq!(run.stats.readres_commands, expect);
    }
}

#[test]
fn gact_quarters_the_activation_commands() {
    for (ganged, expect) in [(true, 4u64), (false, 16u64)] {
        let mut cfg = NewtonConfig::paper_default();
        cfg.channels = 1;
        // +four-bank adds G_ACT to +reuse and nothing else.
        let level = if ganged {
            OptLevel::FourBank
        } else {
            OptLevel::Reuse
        };
        cfg.opts = level.flags();
        let kind = ScheduleKind::InterleavedFullReuse;
        let mapping = MatrixMapping::new(kind.layout(), 16, 512, 16, 512, 0).unwrap();
        let schedule = Schedule::build(kind, &mapping);
        let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).unwrap();
        ch.load_matrix(&mapping, &vec![Bf16::ONE; 16 * 512])
            .unwrap();
        let run = ch
            .run_mv(&mapping, &schedule, &vec![Bf16::ONE; 512], false)
            .unwrap();
        assert_eq!(run.stats.activate_commands, expect);
    }
}

#[test]
fn partial_final_subchunk_issues_fewer_comps() {
    // n = 700: chunk 0 has 32 sub-chunks, chunk 1 has ceil(188/16) = 12.
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 1;
    let kind = ScheduleKind::InterleavedFullReuse;
    let mapping = MatrixMapping::new(kind.layout(), 16, 700, 16, 512, 0).unwrap();
    let schedule = Schedule::build(kind, &mapping);
    let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).unwrap();
    ch.load_matrix(&mapping, &vec![Bf16::ONE; 16 * 700])
        .unwrap();
    let run = ch
        .run_mv(&mapping, &schedule, &vec![Bf16::ONE; 700], false)
        .unwrap();
    assert_eq!(run.stats.compute_commands, 32 + 12);
    assert_eq!(run.stats.gwrite_commands, 32 + 12);
    // The math still comes out right (ones everywhere => sum = n).
    assert!(run.outputs.iter().all(|&v| v == 700.0));
}
