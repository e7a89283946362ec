//! Workspace-level timing legality: every command stream the Newton
//! controller emits — at any optimization level, layout, bank count, or
//! latch configuration — must pass the independent post-hoc DRAM timing
//! audit (tCMD, tRRD, tFAW, tRCD, tCCD, tRAS, tRTP, tWR, tRP, tRC, tRFC).

use newton_aim::core::config::{NewtonConfig, OptLevel};
use newton_aim::core::system::NewtonSystem;
use newton_aim::workloads::{generator, MvShape};

fn run_audited(mut cfg: NewtonConfig, shape: MvShape) {
    cfg.channels = 1;
    let matrix = generator::matrix(shape, 21);
    let vector = generator::vector(shape.n, 21);
    let mut sys = NewtonSystem::new(cfg).expect("config");
    for ch in sys.channels_mut() {
        ch.channel_mut().enable_audit();
    }
    sys.run_mv(&matrix, shape.m, shape.n, &vector).expect("run");
    for ch in sys.channels() {
        let t = *ch.channel().timing();
        let violations = ch.channel().audit().expect("audit on").validate(&t);
        assert_eq!(violations, vec![], "timing violations found");
    }
}

#[test]
fn every_opt_level_is_timing_legal() {
    for level in OptLevel::ladder() {
        run_audited(NewtonConfig::at_level(level), MvShape::new(40, 700));
    }
}

#[test]
fn no_reuse_and_four_latch_are_timing_legal() {
    let mut cfg = NewtonConfig::paper_default();
    cfg.opts.interleaved_reuse = false;
    run_audited(cfg, MvShape::new(40, 1100));

    let mut cfg = NewtonConfig::paper_default();
    cfg.result_latches_per_bank = 4;
    cfg.opts.interleaved_reuse = false;
    run_audited(cfg, MvShape::new(16 * 9, 1100));
}

#[test]
fn bank_sweep_is_timing_legal() {
    for banks in [8usize, 16, 32] {
        let mut cfg = NewtonConfig::paper_default();
        cfg.dram = cfg.dram.with_banks(banks);
        run_audited(cfg, MvShape::new(64, 512));
    }
}

#[test]
fn long_run_with_refresh_is_timing_legal() {
    // > 2 refresh windows of AiM work in one channel.
    run_audited(NewtonConfig::paper_default(), MvShape::new(16 * 45, 512));
}

#[test]
fn baseline_tfaw_is_timing_legal() {
    let mut cfg = NewtonConfig::paper_default();
    // Full Newton but for the aggressive tFAW.
    cfg.opts = OptLevel::FourBank.flags();
    run_audited(cfg, MvShape::new(64, 512));
}

#[test]
fn model_chain_is_timing_legal() {
    use newton_aim::bench::to_activation_kind;
    use newton_aim::core::system::MvProblem;
    use newton_aim::workloads::reference::Activation;
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 1;
    let w1 = generator::matrix(MvShape::new(64, 128), 1);
    let w2 = generator::matrix(MvShape::new(32, 64), 2);
    let layers = [
        MvProblem {
            matrix: &w1,
            m: 64,
            n: 128,
            activation: to_activation_kind(Activation::Relu),
            batch_norm: true,
            output_keep: None,
        },
        MvProblem {
            matrix: &w2,
            m: 32,
            n: 64,
            activation: to_activation_kind(Activation::Tanh),
            batch_norm: false,
            output_keep: None,
        },
    ];
    let mut sys = NewtonSystem::new(cfg).unwrap();
    for ch in sys.channels_mut() {
        ch.channel_mut().enable_audit();
    }
    let input = generator::vector(128, 3);
    sys.run_model(&layers, &input).unwrap();
    for ch in sys.channels() {
        let t = *ch.channel().timing();
        assert_eq!(ch.channel().audit().unwrap().validate(&t), vec![]);
    }
}
