//! Tier-1 differential smoke: the two paths the simulator keeps must not
//! diverge. One side is the oracle — `FunctionalMode::Reference` on
//! `TimingEngine::Reference`: scalar kernels over the bytes each column
//! read returns, every command issued and checked singly, nothing ever
//! replayed. The other is what a user gets by default — the SIMD kernel
//! on the event-skipping engine: GWRITE and COMP trains, schedule replay
//! for resident matrices. ECC and telemetry are on everywhere, so the
//! trains' closed-form telemetry fold and the clean-rows proof are on the
//! compared path. Every surface must agree bit for bit except the replay
//! cache's own counters, which must show that the two sides really took
//! different paths — also when a command trace and the timing audit are
//! watching: observers are told what happened, they do not change which
//! code runs, so the production side still replays under them and the
//! two logs still read the same.

use newton_aim::core::config::{NewtonConfig, TelemetryConfig};
use newton_aim::core::controller::{FunctionalMode, NewtonChannel};
use newton_aim::core::system::{NewtonSystem, SystemRun};
use newton_aim::dram::faults::CampaignSpec;
use newton_aim::dram::TimingEngine;
use newton_aim::isa::{generate, mv, Program};
use newton_aim::workloads::arrivals::ArrivalPattern;
use newton_aim::workloads::{generator, MvShape};
use newton_serve::{ChaosAction, ChaosEvent, ChaosPlan, ServeReport, Server, TrafficConfig};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Side {
    Oracle,
    Production,
}

const SIDES: [Side; 2] = [Side::Oracle, Side::Production];

fn config(side: Side, channels: usize) -> NewtonConfig {
    NewtonConfig {
        channels,
        ecc: true,
        telemetry: Some(TelemetryConfig::default()),
        engine: match side {
            Side::Oracle => TimingEngine::Reference,
            Side::Production => TimingEngine::EventSkipping,
        },
        ..NewtonConfig::paper_default()
    }
}

/// Puts the functional half of `sys` on `side` too.
fn set_mode(sys: &mut NewtonSystem, side: Side) {
    if side == Side::Oracle {
        sys.set_functional_mode(FunctionalMode::Reference);
    }
}

fn system(side: Side, channels: usize) -> NewtonSystem {
    let mut sys = NewtonSystem::new(config(side, channels)).expect("system");
    set_mode(&mut sys, side);
    sys
}

/// Asserts `[oracle, production]` agree on everything but the replay
/// cache's counters, that the oracle never replayed, and returns the
/// production side's `(hits, misses, invalidations)`.
fn assert_same(runs: &[SystemRun], what: &str) -> (u64, u64, u64) {
    let (oracle, production) = (&runs[0], &runs[1]);
    let bits = |r: &SystemRun| r.output.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(oracle), bits(production), "{what}: output bits");
    assert_eq!(oracle.cycles, production.cycles, "{what}: cycles");
    assert_eq!(
        oracle.stats.sans_schedule_cache(),
        production.stats.sans_schedule_cache(),
        "{what}: AimStats"
    );
    let telemetry = |r: &SystemRun| {
        r.merged_telemetry()
            .expect("telemetry on")
            .sans_schedule_cache()
    };
    assert_eq!(
        telemetry(oracle),
        telemetry(production),
        "{what}: merged telemetry"
    );
    for (a, b) in oracle
        .channel_summaries
        .iter()
        .zip(&production.channel_summaries)
    {
        let (mut a, mut b) = (a.clone(), b.clone());
        a.telemetry = a.telemetry.map(|t| t.sans_schedule_cache());
        b.telemetry = b.telemetry.map(|t| t.sans_schedule_cache());
        assert_eq!(a, b, "{what}: channel summaries");
    }
    assert_eq!(
        (oracle.stats.schedule_hits, oracle.stats.replayed_commands),
        (0, 0),
        "{what}: the oracle must never replay"
    );
    let s = &production.stats;
    (s.schedule_hits, s.schedule_misses, s.schedule_invalidations)
}

#[test]
fn ragged_run_mv_agrees() {
    let shape = MvShape::new(50, 700);
    let matrix = generator::matrix(shape, 21);
    let vector = generator::vector(shape.n, 22);
    let runs = SIDES.map(|side| {
        system(side, 3)
            .run_mv(&matrix, shape.m, shape.n, &vector)
            .expect("run_mv")
    });
    // A matrix reloaded per query has nothing to replay on either side.
    assert_eq!(assert_same(&runs, "run_mv 50x700"), (0, 3, 0));
}

/// Load, run, run, weight write, run, run on both sides; with `watched`,
/// a command trace and an audit log are attached to every channel and
/// compared after every run as well.
fn resident_runs_through_a_weight_write(watched: bool) {
    let (channels, shape) = (2, MvShape::new(32, 512));
    let matrix = generator::matrix(shape, 23);
    let mut systems = SIDES.map(|side| system(side, channels));
    if watched {
        for ch in systems.iter_mut().flat_map(|sys| sys.channels_mut()) {
            ch.enable_trace();
            ch.channel_mut().enable_audit();
        }
    }
    let loaded = [0, 1].map(|i| {
        systems[i]
            .load_matrix(&matrix, shape.m, shape.n)
            .expect("load")
    });
    let row: Vec<u8> = (0..systems[0].config().row_elems() * 2)
        .map(|i| (i % 7) as u8)
        .collect();
    let c = channels as u64;
    // Production: miss, hit, invalidation + miss, hit — on every channel.
    let expected = [(0, c, 0), (c, 0, 0), (0, c, c), (c, 0, 0)];
    for (token, want) in expected.iter().enumerate() {
        if token == 2 {
            for sys in &mut systems {
                for ch in sys.channels_mut() {
                    ch.channel_mut()
                        .storage_mut()
                        .write_row(0, 0, &row)
                        .expect("write_row");
                }
            }
        }
        let vector = generator::vector(shape.n, 30 + token as u64);
        let runs = [0, 1].map(|i| {
            systems[i]
                .run_resident(&loaded[i], &vector)
                .expect("run_resident")
        });
        let what = format!("resident token {token}, watched {watched}");
        assert_eq!(assert_same(&runs, &what), *want, "{what}: cache counters");
        if watched {
            let [oracle, production] = &systems;
            for (a, b) in oracle.channels().iter().zip(production.channels()) {
                assert!(!a.trace().entries().is_empty(), "{what}: traced");
                assert_eq!(a.trace().render(), b.trace().render(), "{what}: trace");
                let log = |ch: &NewtonChannel| {
                    let audit = ch.channel().audit().expect("audit on");
                    (audit.len(), audit.events().collect::<Vec<_>>())
                };
                assert_eq!(log(a), log(b), "{what}: audit log");
                assert_eq!(a.validate_audit(), Ok(()), "{what}: oracle audit");
                assert_eq!(b.validate_audit(), Ok(()), "{what}: production audit");
            }
        }
    }
    assert_eq!(
        loaded[0].compiled_channels(),
        0,
        "the oracle never captures"
    );
    assert_eq!(loaded[1].compiled_channels(), channels);
}

#[test]
fn resident_runs_agree_through_a_weight_write() {
    resident_runs_through_a_weight_write(false);
}

#[test]
fn watched_resident_runs_agree_and_still_replay() {
    resident_runs_through_a_weight_write(true);
}

#[test]
fn lowered_trace_replay_agrees() {
    let (channels, shape) = (4, MvShape::new(64, 128));
    let matrix = generator::matrix(shape, 3);
    let vector = generator::vector(shape.n, 4);
    let lowered = generate::lower_mv(
        &config(Side::Production, channels),
        &matrix,
        shape.m,
        shape.n,
        &vector,
    )
    .expect("lower");
    let program = Program::parse(&lowered.render()).expect("reparse");
    let trace = mv::recognize(&program).expect("recognize");

    let mut systems = SIDES.map(|side| system(side, channels));
    let loaded = [0, 1].map(|i| trace.apply_physical(&mut systems[i]).expect("apply"));
    let c = channels as u64;
    for (token, want) in [(0, c, 0), (c, 0, 0)].iter().enumerate() {
        let runs = [0, 1].map(|i| {
            systems[i]
                .run_resident(&loaded[i], &trace.vector)
                .expect("trace run")
        });
        let what = format!("trace token {token}");
        assert_eq!(assert_same(&runs, &what), *want, "{what}: cache counters");
    }
}

/// A 25-request bursty cell with mid-traffic BER faults and a stuck word:
/// scrub, retry, bank retirement and re-plan all execute.
fn chaos_cell(side: Side) -> ServeReport {
    let shape = MvShape::new(32, 512);
    let matrix = generator::matrix(shape, 31);
    let mut server = Server::new(config(side, 4), matrix, shape.m, shape.n, 3, 33).expect("server");
    set_mode(server.system_mut(), side);
    let traffic = TrafficConfig {
        pattern: ArrivalPattern::Bursty {
            base_rate_per_us: 0.01,
            peak_rate_per_us: 2.0,
            period_us: 100.0,
            burst_fraction: 0.25,
        },
        requests: 25,
        seed: 35,
        deadline_ns: 100_000.0,
        queue_capacity: 16,
        max_batch: 4,
        retry_backoff_cycles: 256,
        conventional: None,
    };
    let chaos = ChaosPlan {
        events: vec![
            ChaosEvent {
                after_completed: 4,
                action: ChaosAction::Faults(CampaignSpec {
                    seed: 37,
                    single_bit_flips: 6,
                    double_bit_words: 2,
                    stuck_cells: 0,
                    retention: None,
                }),
            },
            ChaosEvent {
                after_completed: 10,
                action: ChaosAction::StuckWord {
                    channel: 1,
                    bank: 3,
                },
            },
        ],
    };
    server.serve(&traffic, &chaos).expect("serves")
}

#[test]
fn chaos_serving_cell_agrees() {
    let oracle = chaos_cell(Side::Oracle);
    let production = chaos_cell(Side::Production);
    assert_eq!(
        oracle.sans_schedule_cache(),
        production.sans_schedule_cache(),
        "serve reports"
    );
    assert!(
        !production.recovery.retired_banks.is_empty(),
        "the stuck word must retire a bank"
    );
    assert_eq!(production.sdc, 0, "ECC on: zero silent corruption");
    assert!(production.schedule_hits > 0, "production must replay");
    assert!(
        production.schedule_invalidations > 0,
        "chaos must invalidate"
    );
    assert_eq!(
        (oracle.schedule_hits, oracle.replayed_commands),
        (0, 0),
        "the oracle must never replay"
    );
}
