//! Cross-crate numerical correctness: the simulated Newton device must
//! compute the same matrix–vector products as the f64 reference, within
//! the bf16 error envelope, under every optimization level, layout, and
//! latch configuration.

use newton_aim::bf16::reduce::dot_error_bound;
use newton_aim::core::config::{NewtonConfig, OptLevel};
use newton_aim::core::system::NewtonSystem;
use newton_aim::workloads::{generator, reference, Benchmark, MvShape};

fn check_mv(cfg: NewtonConfig, shape: MvShape, seed: u64) {
    let matrix = generator::matrix(shape, seed);
    let vector = generator::vector(shape.n, seed);
    let mut sys = NewtonSystem::new(cfg).expect("config");
    let run = sys.run_mv(&matrix, shape.m, shape.n, &vector).expect("run");
    let expect = reference::mv_f64(&matrix, shape.m, shape.n, &vector);
    assert_eq!(run.output.len(), shape.m);
    for (i, (&got, want)) in run.output.iter().zip(&expect).enumerate() {
        let bound = dot_error_bound(shape.n, 16, want.abs().max(1.0));
        assert!(
            (got as f64 - want).abs() <= bound,
            "row {i}: got {got}, want {want}, bound {bound}"
        );
    }
}

#[test]
fn dlrm_layer_exact_shape_all_opt_levels() {
    // DLRM is small enough to run at every opt level even in debug builds.
    let shape = Benchmark::DlrmS1.shape();
    for level in OptLevel::ladder() {
        let mut cfg = NewtonConfig::at_level(level);
        cfg.channels = 4;
        check_mv(cfg, shape, 11);
    }
}

#[test]
fn ragged_shapes_all_schedule_kinds() {
    // Shapes that exercise partial chunks, partial row groups, and
    // trailing idle banks.
    let shapes = [
        MvShape::new(1, 1),
        MvShape::new(17, 513),
        MvShape::new(33, 100),
        MvShape::new(64, 1200),
        MvShape::new(5, 2048),
    ];
    for shape in shapes {
        // Interleaved full reuse.
        let mut cfg = NewtonConfig::paper_default();
        cfg.channels = 2;
        check_mv(cfg, shape, 3);
        // No-reuse.
        let mut cfg = NewtonConfig::paper_default();
        cfg.channels = 2;
        cfg.opts.interleaved_reuse = false;
        check_mv(cfg, shape, 3);
        // Four-latch option.
        let mut cfg = NewtonConfig::paper_default();
        cfg.channels = 2;
        cfg.result_latches_per_bank = 4;
        check_mv(cfg, shape, 3);
    }
}

#[test]
fn channel_counts_do_not_change_results() {
    let shape = MvShape::new(40, 700);
    let matrix = generator::matrix(shape, 9);
    let vector = generator::vector(shape.n, 9);
    let mut outputs = Vec::new();
    for channels in [1usize, 2, 5, 24] {
        let mut cfg = NewtonConfig::paper_default();
        cfg.channels = channels;
        let mut sys = NewtonSystem::new(cfg).unwrap();
        let run = sys.run_mv(&matrix, shape.m, shape.n, &vector).unwrap();
        outputs.push(run.output);
    }
    // Same bf16 datapath, same per-row computation order -> identical
    // results regardless of channel distribution.
    for o in &outputs[1..] {
        assert_eq!(o, &outputs[0]);
    }
}

#[test]
fn bank_counts_do_not_change_results() {
    let shape = MvShape::new(48, 512);
    let matrix = generator::matrix(shape, 5);
    let vector = generator::vector(shape.n, 5);
    let mut outputs = Vec::new();
    for banks in [8usize, 16, 32] {
        let mut cfg = NewtonConfig::paper_default();
        cfg.channels = 1;
        cfg.dram = cfg.dram.with_banks(banks);
        let mut sys = NewtonSystem::new(cfg).unwrap();
        let run = sys.run_mv(&matrix, shape.m, shape.n, &vector).unwrap();
        outputs.push(run.output);
    }
    for o in &outputs[1..] {
        assert_eq!(o, &outputs[0]);
    }
}
