//! One trace, many backends — and the byte-identity core claim.
//!
//! The same lowered `.aim` trace executes on the cycle-accurate
//! Newton-HBM2E system (physical byte replay), a Newton-on-GDDR6
//! system (logical relayout), and the two analytic baselines. The
//! HBM2E replay must be **byte-identical** to the API-driven
//! `run_mv` path: outputs, cycles, stats, per-channel summaries.

use newton_core::config::NewtonConfig;
use newton_core::system::NewtonSystem;
use newton_isa::backend::{self, Backend};
use newton_isa::{generate, harness, mv};
use newton_workloads::{generator, MvShape};

fn lowered(m: usize, n: usize, channels: usize, seed: u64) -> (NewtonConfig, mv::MvTrace) {
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = channels;
    let shape = MvShape::new(m, n);
    let matrix = generator::matrix(shape, seed);
    let vector = generator::vector(n, seed + 1);
    let program = generate::lower_mv(&cfg, &matrix, m, n, &vector).unwrap();
    // The text round trip is part of the contract: parse(render(p)) == p.
    let reparsed = newton_isa::Program::parse(&program.render()).unwrap();
    assert_eq!(reparsed, program);
    (cfg, mv::recognize(&reparsed).unwrap())
}

#[test]
fn trace_replay_is_byte_identical_to_api_path() {
    let (cfg, trace) = lowered(48, 160, 4, 11);
    let (m, n) = (trace.geometry.m, trace.geometry.n);

    let mut sys_trace = NewtonSystem::new(cfg.clone()).unwrap();
    let loaded = trace.apply_physical(&mut sys_trace).unwrap();
    let run_trace = sys_trace.run_resident(&loaded, &trace.vector).unwrap();

    let mut sys_api = NewtonSystem::new(cfg).unwrap();
    let run_api = sys_api.run_mv(&trace.matrix, m, n, &trace.vector).unwrap();

    // Bit-exact outputs, not approximately-equal outputs.
    let bits = |o: &[f32]| o.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&run_trace.output), bits(&run_api.output));
    assert_eq!(run_trace.cycles, run_api.cycles);
    assert_eq!(run_trace.stats, run_api.stats);
    assert_eq!(run_trace.channel_summaries, run_api.channel_summaries);
    assert_eq!(
        harness::conformance_snapshot(&run_trace).render(),
        harness::conformance_snapshot(&run_api).render()
    );
}

#[test]
fn same_trace_runs_on_at_least_three_backends() {
    let (_cfg, trace) = lowered(32, 96, 4, 5);
    // Note: geometry declares 4 channels, so the stock HBM2E backend
    // (8 channels) exercises the relayout path while a matched-config
    // backend exercises physical replay.
    let mut matched_cfg = NewtonConfig::paper_default();
    matched_cfg.channels = 4;
    let mut backends: Vec<Box<dyn Backend>> = vec![
        Box::new(backend::NewtonBackend::with_config(
            "newton-hbm2e-4ch",
            matched_cfg,
        )),
        Box::new(backend::NewtonBackend::hbm2e()),
        Box::new(backend::NewtonBackend::gddr6()),
        Box::new(backend::IdealBackend::paper_default()),
        Box::new(backend::GpuBackend::titan_v()),
    ];
    let report = harness::run_backends(&trace, &mut backends).unwrap();
    assert_eq!(report.runs.len(), 5);
    for (run, err) in report.runs.iter().zip(&report.max_abs_err) {
        assert_eq!(run.outputs.len(), 32, "{}", run.backend);
        assert!(run.elapsed_ns > 0.0, "{}", run.backend);
        // bf16 accumulation tolerance for n=96 dot products.
        assert!(*err < 0.25, "{}: max_abs_err {err}", run.backend);
    }
    // Cycle-accurate backends report cycles+stats; analytic ones don't.
    assert!(report.runs[0].cycles.is_some());
    assert!(report.runs[3].cycles.is_none());
    let snap = report.snapshot(&trace).render();
    assert!(snap.contains("isa_backends"));
    assert!(snap.contains("newton-gddr6"));
}

#[test]
fn foreign_geometry_falls_back_to_relayout() {
    // Trace lowered for 4-channel HBM2E, replayed on 16-channel GDDR6.
    let (_cfg, trace) = lowered(64, 128, 4, 3);
    assert!(!trace.geometry.matches(&NewtonConfig::gddr6_aim()));
    let mut b = backend::NewtonBackend::gddr6();
    let run = b.run(&trace).unwrap();
    assert_eq!(run.outputs.len(), 64);
    // Same operands, different silicon: outputs agree to bf16 tolerance.
    let reference: Vec<f32> = {
        let vector: Vec<f32> = trace.vector.iter().map(|v| v.to_f32()).collect();
        (0..64)
            .map(|i| {
                trace.matrix[i * 128..(i + 1) * 128]
                    .iter()
                    .zip(&vector)
                    .map(|(w, x)| w.to_f32() * x)
                    .sum()
            })
            .collect()
    };
    for (o, r) in run.outputs.iter().zip(&reference) {
        assert!((o - r).abs() < 0.25, "{o} vs {r}");
    }
}

#[test]
fn tampered_mac_stream_is_rejected() {
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 2;
    let matrix = generator::matrix(MvShape::new(8, 64), 1);
    let vector = generator::vector(64, 2);
    let mut program = generate::lower_mv(&cfg, &matrix, 8, 64, &vector).unwrap();
    // Corrupt the first MAC_ABK's row: the schedule checker must notice.
    for instr in &mut program.instrs {
        if let newton_isa::Instr::MacAbk { row, .. } = instr {
            *row += 1;
            break;
        }
    }
    match mv::recognize(&program) {
        Err(newton_isa::IsaError::ScheduleMismatch { .. }) => {}
        other => panic!("expected ScheduleMismatch, got {other:?}"),
    }
}

/// A lowered trace reads each row-set's latches right after its
/// `MAC_ABK`; a readout dropped, moved past the next row-set or aimed at
/// another latch is a schedule mismatch at the readout's position.
#[test]
fn tampered_readout_stream_is_rejected() {
    use newton_isa::Instr;
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 2;
    let matrix = generator::matrix(MvShape::new(64, 64), 3);
    let vector = generator::vector(64, 4);
    let lowered = generate::lower_mv(&cfg, &matrix, 64, 64, &vector).unwrap();
    let first_read = lowered
        .instrs
        .iter()
        .position(|i| matches!(i, Instr::RdMac { .. }))
        .unwrap();
    assert!(matches!(
        lowered.instrs[first_read - 1],
        Instr::MacAbk { .. }
    ));
    let mut dropped = lowered.clone();
    dropped.instrs.remove(first_read);
    let mut moved = lowered.clone();
    moved.instrs.swap(first_read, first_read + 1);
    let mut relatched = lowered.clone();
    if let Instr::RdMac { latch, .. } = &mut relatched.instrs[first_read] {
        *latch = 1;
    }
    for (what, program) in [
        ("dropped", dropped),
        ("moved", moved),
        ("relatched", relatched),
    ] {
        match mv::recognize(&program) {
            Err(newton_isa::IsaError::ScheduleMismatch { index: 1, .. }) => {}
            other => panic!("{what}: expected ScheduleMismatch at 1, got {other:?}"),
        }
    }
    assert_eq!(mv::recognize(&lowered).unwrap().mac_sets, 2);
}
