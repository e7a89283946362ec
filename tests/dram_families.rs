//! Integration coverage for the Sec. III-E "other DRAM families"
//! extension: the full Newton stack (layout, schedule, controller,
//! numerics, timing audit) must work unchanged on GDDR6-, LPDDR4-, and
//! DDR4-like channels, and on devices loaded from INI text. A geometry the
//! stack cannot hold (a column of part bf16 elements, or of part SECDED
//! words with ECC on) is a typed config error from `NewtonSystem::new`.

use newton_aim::bf16::reduce::dot_error_bound;
use newton_aim::core::config::NewtonConfig;
use newton_aim::core::system::NewtonSystem;
use newton_aim::core::AimError;
use newton_aim::dram::{ini, DramConfig};
use newton_aim::workloads::{generator, reference, MvShape};

fn run_family(dram: DramConfig, shape: MvShape) {
    let mut cfg = NewtonConfig::paper_default();
    cfg.dram = dram;
    cfg.channels = 1;
    let matrix = generator::matrix(shape, 31);
    let vector = generator::vector(shape.n, 31);
    let mut sys = NewtonSystem::new(cfg).expect("config valid for family");
    for ch in sys.channels_mut() {
        ch.channel_mut().enable_audit();
    }
    let run = sys.run_mv(&matrix, shape.m, shape.n, &vector).expect("run");
    let expect = reference::mv_f64(&matrix, shape.m, shape.n, &vector);
    for (got, want) in run.output.iter().zip(&expect) {
        let bound = dot_error_bound(shape.n, 16, want.abs().max(1.0));
        assert!((*got as f64 - want).abs() <= bound);
    }
    for ch in sys.channels() {
        let t = *ch.channel().timing();
        assert_eq!(ch.channel().audit().unwrap().validate(&t), vec![]);
    }
}

#[test]
fn gddr6_like_runs_newton_correctly() {
    // 2 KB rows: chunks are 1024 elements wide.
    run_family(DramConfig::gddr6_like(), MvShape::new(40, 1500));
}

#[test]
fn lpddr4_like_runs_newton_correctly() {
    // 8 banks: validates the 4-bank clustering on the smaller device.
    run_family(DramConfig::lpddr4_like(), MvShape::new(20, 1100));
}

#[test]
fn ddr4_like_runs_newton_correctly() {
    run_family(DramConfig::ddr4_like(), MvShape::new(33, 700));
}

#[test]
fn ini_loaded_device_runs_newton_correctly() {
    let dram = ini::parse_config(
        "; a custom 8-bank device with a slow column path\n\
         NUM_BANKS=8\n\
         tCCD=6\n\
         tCMD=6\n\
         tFAW=36\n",
    )
    .unwrap();
    run_family(dram, MvShape::new(24, 600));
}

#[test]
fn family_speedup_ordering_follows_bank_count() {
    // The PIM advantage is bounded by banks/channel; LPDDR4's 8 banks
    // must yield less speedup over its own external bound than HBM2E's
    // 16, on the same workload.
    let measure = |dram: DramConfig| {
        let mut cfg = NewtonConfig::paper_default();
        cfg.dram = dram.clone();
        cfg.channels = 1;
        let shape = MvShape::new(dram.banks * 8, dram.row_bytes() / 2);
        let matrix = generator::matrix(shape, 1);
        let vector = generator::vector(shape.n, 1);
        let mut sys = NewtonSystem::new(cfg).unwrap();
        for ch in sys.channels_mut() {
            ch.channel_mut().disable_refresh();
        }
        let run = sys.run_mv(&matrix, shape.m, shape.n, &vector).unwrap();
        let rows = (shape.m * shape.n * 2) / dram.row_bytes();
        let ideal = rows as f64 * dram.cols_per_row as f64 * dram.timing.t_ccd_ns;
        ideal / run.elapsed_ns
    };
    let hbm = measure(DramConfig::hbm2e_like());
    let lp = measure(DramConfig::lpddr4_like());
    assert!(hbm > lp, "hbm {hbm} vs lpddr {lp}");
    assert!(lp > 4.0, "even LPDDR4 keeps a solid PIM advantage: {lp}");
}

/// `NewtonSystem::new` on a one-channel paper device whose columns are
/// `col_io_bits` wide, with ECC on or off.
fn new_with_columns(col_io_bits: usize, ecc: bool) -> Result<NewtonSystem, AimError> {
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 1;
    cfg.dram.col_io_bits = col_io_bits;
    cfg.ecc = ecc;
    NewtonSystem::new(cfg)
}

fn assert_invalid_config(result: Result<NewtonSystem, AimError>, needle: &str) {
    match result {
        Err(AimError::InvalidConfig(msg)) => assert!(msg.contains(needle), "{msg}"),
        Err(other) => panic!("expected InvalidConfig naming {needle:?}, got {other}"),
        Ok(_) => panic!("expected InvalidConfig naming {needle:?}, got a system"),
    }
}

#[test]
fn a_column_narrower_than_one_bf16_element_is_a_config_error() {
    assert_invalid_config(new_with_columns(8, false), "bf16");
}

#[test]
fn a_column_of_one_and_a_half_bf16_elements_is_a_config_error() {
    assert_invalid_config(new_with_columns(24, false), "bf16");
}

#[test]
fn ecc_on_a_column_of_part_words_is_a_config_error() {
    assert_invalid_config(new_with_columns(32, true), "64-bit");
    // The same column without ECC holds two whole elements and runs.
    let mut sys = new_with_columns(32, false).expect("two bf16 elements a column");
    let shape = MvShape::new(8, 64);
    let run = sys
        .run_mv(
            &generator::matrix(shape, 3),
            shape.m,
            shape.n,
            &generator::vector(shape.n, 3),
        )
        .expect("run");
    assert_eq!(run.output.len(), shape.m);
}
