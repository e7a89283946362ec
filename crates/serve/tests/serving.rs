//! Integration suite for the serving layer (PR 8): correct accounting
//! under load, typed overload outcomes, resilience under live faults,
//! graceful degradation after retirement, and the AiM-vs-conventional
//! serialization rule.

use newton_core::config::NewtonConfig;
use newton_core::TelemetryConfig;
use newton_dram::faults::CampaignSpec;
use newton_serve::{
    ChaosAction, ChaosEvent, ChaosPlan, ConventionalTraffic, ServeError, Server, TrafficConfig,
};
use newton_trace::EnergyModel;
use newton_workloads::arrivals::ArrivalPattern;
use newton_workloads::{generator, MvShape};

const M: usize = 32;
const N: usize = 256;

/// A steady-Poisson config with serving defaults: 100 µs deadline,
/// queue of 64, batches of 8, 256-cycle base backoff, no conventional
/// traffic.
fn poisson(rate_per_us: f64, requests: usize, seed: u64) -> TrafficConfig {
    TrafficConfig {
        pattern: ArrivalPattern::Poisson { rate_per_us },
        requests,
        seed,
        deadline_ns: 100_000.0,
        queue_capacity: 64,
        max_batch: 8,
        retry_backoff_cycles: 256,
        conventional: None,
    }
}

fn server(channels: usize, ecc: bool) -> Server {
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = channels;
    cfg.ecc = ecc;
    cfg.telemetry = Some(TelemetryConfig::default());
    let matrix = generator::matrix(MvShape::new(M, N), 11);
    Server::new(cfg, matrix, M, N, 4, 22).expect("server builds")
}

#[test]
fn fault_free_serving_completes_everything() {
    let mut s = server(2, true);
    // Slow arrivals relative to service time: nothing sheds or expires.
    let t = TrafficConfig {
        deadline_ns: 1e9,
        ..poisson(0.001, 40, 3)
    };
    let r = s.serve(&t, &ChaosPlan::none()).expect("serves");
    assert_eq!(r.offered, 40);
    assert_eq!(r.completed, 40);
    assert_eq!(r.shed, 0);
    assert_eq!(r.expired, 0);
    assert_eq!(r.sdc, 0, "clean run must match goldens bit-exactly");
    assert_eq!(r.retries, 0);
    assert!(r.p50_ns > 0.0 && r.p99_ns >= r.p50_ns && r.p999_ns >= r.p99_ns);
    assert!(r.max_ns >= r.p999_ns);
    assert!(r.qps > 0.0);
    assert!(r.energy_pj > 0.0, "telemetry on: energy must be attributed");
    assert!(r.joules_per_query > 0.0);
    assert!((r.recovery.capacity_fraction - 1.0).abs() < 1e-12);
}

#[test]
fn overload_sheds_explicitly_and_accounts_for_every_query() {
    let mut s = server(2, true);
    // Arrivals far faster than service, tiny queue: shedding is the
    // designed outcome, and the books must still balance.
    let t = TrafficConfig {
        pattern: ArrivalPattern::Poisson { rate_per_us: 50.0 },
        queue_capacity: 4,
        max_batch: 2,
        deadline_ns: 1e9,
        ..poisson(50.0, 120, 5)
    };
    let r = s.serve(&t, &ChaosPlan::none()).expect("serves");
    assert!(r.shed > 0, "overload must shed");
    assert_eq!(r.offered, r.completed + r.shed + r.expired);
    assert_eq!(r.offered - r.shed, r.completed + r.expired);
    assert_eq!(r.sdc, 0);
    assert!(
        r.errors
            .iter()
            .any(|e| matches!(e, ServeError::Shed { .. })),
        "sheds surface as typed errors"
    );
}

#[test]
fn tight_deadlines_expire_with_typed_errors() {
    let mut s = server(2, true);
    // Deadline far below one batch's service time: queued queries beyond
    // the first dispatches expire rather than run uselessly late.
    let t = TrafficConfig {
        pattern: ArrivalPattern::Bursty {
            base_rate_per_us: 0.01,
            peak_rate_per_us: 40.0,
            period_us: 50.0,
            burst_fraction: 0.3,
        },
        deadline_ns: 2_000.0,
        queue_capacity: 64,
        max_batch: 2,
        ..poisson(1.0, 80, 7)
    };
    let r = s.serve(&t, &ChaosPlan::none()).expect("serves");
    assert!(
        r.expired > 0 || r.late_completions > 0,
        "a 2 µs SLO must be missed somewhere: {r:?}"
    );
    assert_eq!(r.offered, r.completed + r.shed + r.expired);
    if r.expired > 0 {
        assert!(r
            .errors
            .iter()
            .any(|e| matches!(e, ServeError::DeadlineExceeded { .. })));
    }
}

#[test]
fn transient_faults_retry_scrub_and_never_corrupt() {
    let mut s = server(2, true);
    let spec = CampaignSpec {
        seed: 99,
        single_bit_flips: 24,
        double_bit_words: 6,
        stuck_cells: 0,
        retention: None,
    };
    let t = TrafficConfig {
        deadline_ns: 1e9,
        retry_backoff_cycles: 128,
        ..poisson(0.001, 30, 9)
    };
    let r = s
        .serve(&t, &ChaosPlan::faults_after(5, spec))
        .expect("ladder absorbs transient faults");
    assert_eq!(r.completed, 30, "all queries complete despite faults");
    assert_eq!(r.sdc, 0, "ECC on: zero silent corruption");
    assert!(r.injected_faults > 0);
    assert!(
        r.retries > 0 && r.recovery.scrub_rewrites > 0,
        "double-bit words must drive the scrub rung: {r:?}"
    );
    assert!(
        r.recovery.retired_banks.is_empty(),
        "transient faults scrub clean; nothing retires"
    );
}

#[test]
fn stuck_cells_retire_banks_and_serving_degrades_gracefully() {
    let mut s = server(2, true);
    let t = TrafficConfig {
        deadline_ns: 1e9,
        retry_backoff_cycles: 128,
        ..poisson(0.001, 30, 13)
    };
    let plan = ChaosPlan {
        events: vec![ChaosEvent {
            after_completed: 5,
            action: ChaosAction::StuckWord {
                channel: 0,
                bank: 2,
            },
        }],
    };
    let r = s.serve(&t, &plan).expect("retirement absorbs hard faults");
    assert_eq!(r.completed, 30, "serving continues after retirement");
    assert_eq!(r.sdc, 0, "degraded outputs still match goldens bit-exactly");
    assert!(
        !r.recovery.retired_banks.is_empty(),
        "stuck cells survive scrubs and must retire: {r:?}"
    );
    assert!(r.replans > 0, "retirement must trigger a re-plan");
    assert!(
        r.recovery.capacity_fraction < 1.0,
        "capacity shrinks after retirement"
    );
    // The report lists each retired bank once, and the list agrees with
    // the capacity the system itself has lost.
    let mut distinct = r.recovery.retired_banks.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), r.recovery.retired_banks.len(), "{r:?}");
    let cfg = s.system().config();
    let total = (cfg.channels * cfg.dram.banks) as f64;
    assert_eq!(
        s.system().capacity_fraction(),
        (total - r.recovery.retired_banks.len() as f64) / total
    );
}

#[test]
fn conventional_traffic_serializes_and_inflates_latency() {
    let base = TrafficConfig {
        deadline_ns: 1e9,
        ..poisson(0.002, 30, 17)
    };
    let mut alone = server(2, true);
    let quiet = alone.serve(&base, &ChaosPlan::none()).expect("serves");
    let mut mixed = server(2, true);
    let t = TrafficConfig {
        conventional: Some(ConventionalTraffic {
            interval_ns: 5_000.0,
            burst_requests: 32,
        }),
        ..base
    };
    let busy = mixed.serve(&t, &ChaosPlan::none()).expect("serves");
    assert!(busy.conventional_bursts > 0);
    assert_eq!(busy.completed, 30);
    assert!(
        busy.p99_ns > quiet.p99_ns,
        "serialized conventional bursts must inflate the tail: {} vs {}",
        busy.p99_ns,
        quiet.p99_ns
    );
}

#[test]
fn idle_gaps_accrue_refresh_and_still_serve() {
    let mut s = server(2, true);
    let t = TrafficConfig {
        deadline_ns: 1e9,
        ..poisson(0.001, 20, 19)
    };
    let plan = ChaosPlan {
        events: vec![ChaosEvent {
            after_completed: 3,
            action: ChaosAction::IdleGap { cycles: 2_000_000 },
        }],
    };
    let r = s.serve(&t, &plan).expect("serves across the gap");
    assert_eq!(r.completed, 20);
    assert_eq!(r.sdc, 0, "refresh debt after the gap must not corrupt");
}

#[test]
fn reports_are_deterministic_across_runs() {
    let t = TrafficConfig {
        deadline_ns: 1e9,
        ..poisson(0.005, 25, 23)
    };
    let spec = CampaignSpec {
        seed: 5,
        single_bit_flips: 8,
        double_bit_words: 2,
        stuck_cells: 0,
        retention: None,
    };
    let plan = ChaosPlan::faults_after(4, spec);
    let mut a = server(2, true);
    let mut b = server(2, true);
    let ra = a.serve(&t, &plan).expect("a");
    let rb = b.serve(&t, &plan).expect("b");
    assert_eq!(ra, rb, "same config, same chaos: byte-identical reports");
}

/// Streamed DRAM energy of the server's system since its birth, milli-pJ.
fn lifetime_energy_milli_pj(s: &Server) -> u64 {
    s.system()
        .channels()
        .iter()
        .map(|ch| {
            let t = ch.channel().telemetry().expect("telemetry on").totals();
            t.energy_milli_pj + t.refresh_milli_pj
        })
        .sum()
}

#[test]
fn a_second_serve_reports_its_own_energy_not_the_servers_lifetime() {
    let mut s = server(2, true);
    let t = TrafficConfig {
        deadline_ns: 1e9,
        ..poisson(0.001, 40, 3)
    };
    let first = s.serve(&t, &ChaosPlan::none()).expect("first");
    let after_first = lifetime_energy_milli_pj(&s);
    let second = s.serve(&t, &ChaosPlan::none()).expect("second");
    let after_second = lifetime_energy_milli_pj(&s);

    // A load issues no DRAM commands, so the first call starts from zero.
    assert_eq!(first.energy_pj, after_first as f64 / 1000.0);
    assert_eq!(
        second.energy_pj,
        (after_second - after_first) as f64 / 1000.0,
        "the second call reports the difference of the lifetime totals"
    );
    // The same traffic spends the same energy, up to where the refresh
    // schedule falls against the call's span: one all-bank refresh a
    // channel. (The lifetime reading would be twice the first call's.)
    let cfg = s.system().config();
    let one_refresh_each =
        EnergyModel::new().refresh_pj(cfg.dram.banks as u32) * cfg.channels as f64;
    assert!(
        (second.energy_pj - first.energy_pj).abs() <= one_refresh_each,
        "first {} pJ, second {} pJ",
        first.energy_pj,
        second.energy_pj
    );
    assert_eq!(second.completed, 40);
}
