//! The one oracle-vs-production comparison. The oracle is
//! `TimingEngine::Reference`: scalar kernels over the bytes each column
//! read returns, every command issued and checked singly, every
//! activation scrubbed. Production is what a
//! user gets from the same config by default: the SIMD kernel on the
//! event-skipping engine, GWRITE and COMP trains, no scrub of a row the
//! storage marks verified. Every simulated surface must agree bit for
//! bit, with plain `==`.

// Each suite that includes this file uses part of it.
#![allow(dead_code)]

use newton_aim::bf16::Bf16;
use newton_aim::core::config::NewtonConfig;
use newton_aim::core::config::TimingEngine;
use newton_aim::core::controller::NewtonChannel;
use newton_aim::core::system::{LoadedMatrix, NewtonSystem, SystemRun};
use newton_serve::ServeReport;

/// `[oracle, production]`, each built from `cfg` by `build`: the oracle
/// on `TimingEngine::Reference`, production on the engine `cfg` names.
pub fn pair_with<T>(cfg: &NewtonConfig, build: impl Fn(NewtonConfig) -> T) -> [T; 2] {
    let mut oracle = cfg.clone();
    oracle.engine = TimingEngine::Reference;
    [build(oracle), build(cfg.clone())]
}

/// `[oracle, production]` systems from one config.
pub fn pair(cfg: &NewtonConfig) -> [NewtonSystem; 2] {
    pair_with(cfg, |c| NewtonSystem::new(c).expect("system"))
}

/// A run's output bits.
pub fn bits(run: &SystemRun) -> Vec<u32> {
    run.output.iter().map(|v| v.to_bits()).collect()
}

/// Makes `matrix` resident on both legs.
pub fn load(
    systems: &mut [NewtonSystem; 2],
    matrix: &[Bf16],
    m: usize,
    n: usize,
) -> [LoadedMatrix; 2] {
    systems
        .each_mut()
        .map(|s| s.load_matrix(matrix, m, n).expect("load"))
}

/// One resident run on both legs.
pub fn run_resident(
    systems: &mut [NewtonSystem; 2],
    loaded: &[LoadedMatrix; 2],
    vector: &[Bf16],
) -> [SystemRun; 2] {
    let [a, b] = systems;
    [(a, &loaded[0]), (b, &loaded[1])]
        .map(|(s, l)| s.run_resident(l, vector).expect("run_resident"))
}

/// Asserts the two legs' latest runs agree on every simulated surface —
/// output bits, cycles, `elapsed_ns`, every `RunSummary`, the merged
/// telemetry and `AimStats`, and, on every channel where both legs keep
/// one, the command trace and the audit log and its verdict.
pub fn assert_conformant(what: &str, systems: &[NewtonSystem; 2], runs: &[SystemRun; 2]) {
    let [oracle, production] = runs;
    assert_eq!(bits(oracle), bits(production), "{what}: output bits");
    assert_eq!(oracle.cycles, production.cycles, "{what}: cycles");
    assert_eq!(
        oracle.elapsed_ns.to_bits(),
        production.elapsed_ns.to_bits(),
        "{what}: elapsed_ns"
    );
    assert_eq!(
        oracle.channel_summaries, production.channel_summaries,
        "{what}: channel summaries"
    );
    assert_eq!(oracle.stats, production.stats, "{what}: AimStats");
    let [a, b] = systems.each_ref().map(NewtonSystem::channels);
    for (ch, (a, b)) in a.iter().zip(b).enumerate() {
        assert_observers_agree(&format!("{what}, channel {ch}"), a, b);
    }
}

/// The command trace and the audit of one channel on both legs, wherever
/// both keep one, and which stored rows each leg's storage marks verified:
/// the oracle scrubs every activation, so a row production skipped must
/// be one whose scrub would have found nothing.
fn assert_observers_agree(what: &str, a: &NewtonChannel, b: &NewtonChannel) {
    let verified = |ch: &NewtonChannel| {
        let storage = ch.channel().storage();
        let rows = storage.allocated_row_indices();
        rows.into_iter()
            .filter(|&(bank, row)| storage.row_verified(bank, row))
            .collect::<Vec<_>>()
    };
    assert_eq!(verified(a), verified(b), "{what}: verified rows");
    let (ta, tb) = (a.trace(), b.trace());
    if !ta.entries().eq(tb.entries()) {
        let i = ta
            .entries()
            .zip(tb.entries())
            .position(|(x, y)| x != y)
            .unwrap_or(ta.entries().count().min(tb.entries().count()));
        panic!(
            "{what}: command traces diverge at entry {i}: oracle {:?}, production {:?}",
            ta.entries().nth(i),
            tb.entries().nth(i)
        );
    }
    if let (Some(la), Some(lb)) = (a.channel().audit(), b.channel().audit()) {
        assert!(
            la.events().eq(lb.events()),
            "{what}: audit event streams differ"
        );
        assert_eq!(a.validate_audit(), Ok(()), "{what}: oracle audit");
        assert_eq!(b.validate_audit(), Ok(()), "{what}: production audit");
    }
}

/// [`assert_conformant`] for serving: the two reports agree.
pub fn assert_serve_conformant(what: &str, reports: &[ServeReport; 2]) {
    assert_eq!(reports[0], reports[1], "{what}: serve reports");
}
