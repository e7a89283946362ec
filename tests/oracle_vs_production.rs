//! The two paths the simulator keeps must not diverge: the oracle and
//! production legs of `common/conformance.rs` run the same work — ragged
//! and Table II-sized layers, a ragged layer at every column width and
//! Fig. 9 rung, resident matrices through weight writes, fault flips and
//! a row-set that fails, random write / COMP interleavings, a lowered
//! BERT trace replayed and interpreted, serving under chaos and under
//! conventional traffic — at pool widths 1, 2 and 8, and every simulated
//! surface must agree bit for bit, under a command trace and the timing
//! audit too (observers are told what happened, they do not change which
//! code runs). Production skips the activation scrub of rows the storage
//! marks verified and the oracle never does, so the tests also pin when a
//! row is verified.

#[path = "common/conformance.rs"]
mod conformance;

use conformance::{
    assert_conformant, assert_serve_conformant, bits, load, pair, pair_with, run_resident,
};
use newton_aim::core::config::{NewtonConfig, OptLevel, TelemetryConfig, TimingEngine};
use newton_aim::core::controller::NewtonChannel;
use newton_aim::core::layout::MatrixMapping;
use newton_aim::core::lut::ActivationKind;
use newton_aim::core::system::{NewtonSystem, SystemRun};
use newton_aim::core::tiling::{Schedule, ScheduleKind};
use newton_aim::core::{AimError, ParallelPolicy};
use newton_aim::dram::faults::CampaignSpec;
use newton_aim::dram::DramError;
use newton_aim::isa::{generate, interp, mv, Program};
use newton_aim::workloads::arrivals::ArrivalPattern;
use newton_aim::workloads::{generator, Benchmark, DecodeStreamSpec, MvShape};
use newton_serve::{
    ChaosAction, ChaosEvent, ChaosPlan, ConventionalTraffic, ServeReport, Server, TrafficConfig,
};
use proptest::prelude::*;

/// The pool widths every multi-width case runs at.
const WIDTHS: [usize; 3] = [1, 2, 8];

/// ECC and telemetry on, so the trains' closed-form telemetry fold and
/// the clean-rows proof are on the compared path.
fn config(channels: usize, threads: usize) -> NewtonConfig {
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = channels;
    cfg.ecc = true;
    cfg.telemetry = Some(TelemetryConfig::default());
    cfg.parallel = ParallelPolicy::exact(threads);
    cfg
}

#[test]
fn ragged_run_mv_agrees() {
    let shape = MvShape::new(50, 700);
    let matrix = generator::matrix(shape, 21);
    let vector = generator::vector(shape.n, 22);
    let mut systems = pair(&config(3, 1));
    let runs = systems.each_mut().map(|s| {
        s.run_mv(&matrix, shape.m, shape.n, &vector)
            .expect("run_mv")
    });
    assert_conformant("run_mv 50x700", &systems, &runs);
}

/// Every column width from 32 to 1024 bits at every rung of the Fig. 9
/// ladder, with ECC on wherever a column holds whole 64-bit words: the
/// flags change which commands issue and the width changes which fold
/// production runs, and neither may change a simulated bit.
#[test]
fn every_column_width_and_rung_agrees() {
    let shape = MvShape::new(40, 900);
    let matrix = generator::matrix(shape, 61);
    let vector = generator::vector(shape.n, 62);
    for col_io_bits in [32, 64, 128, 256, 512, 1024] {
        for level in OptLevel::ladder() {
            let mut cfg = config(2, 1);
            cfg.opts = level.flags();
            cfg.dram.col_io_bits = col_io_bits;
            cfg.ecc = col_io_bits % 64 == 0;
            let mut systems = pair(&cfg);
            let runs = systems.each_mut().map(|s| {
                s.run_mv(&matrix, shape.m, shape.n, &vector)
                    .expect("run_mv")
            });
            let what = format!("{col_io_bits}-bit columns, {level:?}");
            assert_conformant(&what, &systems, &runs);
        }
    }
}

/// Sticks bits `bit` and `bit + 1` of `(bank, row)` of `ch` at the
/// opposite of what they hold: a double-bit fault in one word that no
/// rewrite heals.
fn stick_two_bits(ch: &mut NewtonChannel, bank: usize, row: usize, bit: usize) {
    let storage = ch.channel_mut().storage_mut();
    let bytes = storage.row(bank, row).expect("row");
    for b in [bit, bit + 1] {
        let held = bytes[b / 8] >> (b % 8) & 1 == 1;
        storage.set_stuck(bank, row, b, !held).expect("set_stuck");
    }
}

/// A row-set that fails: two stuck bits in one word of bank 2's weight
/// row make every activation of that row uncorrectable. At three rungs,
/// `run_resident_resilient` scrub-rewrites, fails again and retires the
/// bank alike on both legs, with the same outputs, stats and observers;
/// and `open_row_set` on that row returns the same error on both.
#[test]
fn a_failing_row_set_recovers_alike() {
    let shape = MvShape::new(32, 512);
    let matrix = generator::matrix(shape, 71);
    let vector = generator::vector(shape.n, 72);
    for level in [OptLevel::NonOpt, OptLevel::Gang, OptLevel::Full] {
        let mut cfg = config(2, 1);
        cfg.opts = level.flags();
        let mut systems = pair(&cfg);
        let loaded = load(&mut systems, &matrix, shape.m, shape.n);
        for sys in &mut systems {
            stick_two_bits(&mut sys.channels_mut()[0], 2, 0, 16);
        }
        let [a, b] = &mut systems;
        let outcomes = [(a, &loaded[0]), (b, &loaded[1])].map(|(s, l)| {
            s.run_resident_resilient(l, &matrix, &vector)
                .expect("recovers")
        });
        let what = format!("{level:?} resilient run");
        let [(oracle, oracle_report), (production, report)] = outcomes;
        assert_eq!(oracle_report, report, "{what}: recovery reports");
        assert_eq!(report.scrub_rewrites, 1, "{what}: {report:?}");
        assert_eq!(report.retired_banks, vec![(0, 2)], "{what}: {report:?}");
        assert_conformant(&what, &systems, &[oracle, production]);

        let kind = ScheduleKind::InterleavedFullReuse;
        let per_channel = MvShape::new(16, shape.n);
        let mapping = MatrixMapping::new(
            kind.layout(),
            per_channel.m,
            per_channel.n,
            cfg.dram.banks,
            cfg.row_elems(),
            0,
        )
        .expect("mapping");
        let schedule = Schedule::build(kind, &mapping);
        let rs = &schedule.row_sets()[0];
        assert!(rs.dram_row == 0 && rs.work.iter().any(|w| w.bank == 2));
        let base = rs.chunk * mapping.row_elems();
        let input = &vector[base..base + mapping.chunk_elems(rs.chunk)];
        let weights = generator::matrix(per_channel, 73);
        let errors = pair_with(&cfg, |c| {
            let mut ch = NewtonChannel::new(&c, ActivationKind::Identity).expect("channel");
            ch.load_matrix(&mapping, &weights).expect("load");
            stick_two_bits(&mut ch, 2, 0, 16);
            let n_sub = input.len().div_ceil(c.subchunk_elems());
            let err = ch
                .open_row_set(rs, input, n_sub)
                .expect_err("uncorrectable");
            (err, *ch.channel().stats(), ch.now())
        });
        assert!(
            matches!(
                errors[1].0,
                AimError::Dram(DramError::Uncorrectable { bank: 2, row: 0 })
            ),
            "{level:?}: {:?}",
            errors[1].0
        );
        assert_eq!(errors[0], errors[1], "{level:?} open_row_set");
    }
}

/// Load, run, run, weight write, run, run on both legs; with `watched`,
/// a command trace and an audit log are attached to every channel.
fn resident_runs_through_a_weight_write(watched: bool) {
    let (channels, shape) = (2, MvShape::new(32, 512));
    let matrix = generator::matrix(shape, 23);
    let mut systems = pair(&config(channels, 1));
    if watched {
        for ch in systems.iter_mut().flat_map(|sys| sys.channels_mut()) {
            ch.enable_trace();
            ch.channel_mut().enable_audit();
        }
    }
    let loaded = load(&mut systems, &matrix, shape.m, shape.n);
    let row: Vec<u8> = (0..systems[0].config().row_elems() * 2)
        .map(|i| (i % 7) as u8)
        .collect();
    for token in 0..4 {
        if token == 2 {
            for ch in systems.iter_mut().flat_map(|sys| sys.channels_mut()) {
                let storage = ch.channel_mut().storage_mut();
                storage.write_row(0, 0, &row).expect("write_row");
                assert!(!storage.row_verified(0, 0), "a write unverifies");
            }
        }
        let vector = generator::vector(shape.n, 30 + token as u64);
        let runs = run_resident(&mut systems, &loaded, &vector);
        let what = format!("resident token {token}, watched {watched}");
        assert_conformant(&what, &systems, &runs);
        for ch in systems.iter().flat_map(NewtonSystem::channels) {
            let storage = ch.channel().storage();
            assert!(storage.row_verified(0, 0), "{what}: a clean run verifies");
        }
        if watched {
            let ch = &systems[0].channels()[0];
            assert!(ch.trace().entries().next().is_some(), "{what}: traced");
            assert!(
                ch.channel()
                    .audit()
                    .is_some_and(|a| a.events().next().is_some()),
                "{what}: audited"
            );
        }
    }
}

#[test]
fn resident_runs_agree_through_a_weight_write() {
    resident_runs_through_a_weight_write(false);
}

#[test]
fn watched_resident_runs_agree() {
    resident_runs_through_a_weight_write(true);
}

/// A decode stream through the edges of the verified flags at each width:
/// a weight flip on one channel unverifies its row, the next run corrects
/// it and leaves it unverified, the one after verifies it again; then
/// production runs on the oracle engine and back. Without ECC no row is
/// ever verified, not even after a raw row rewrite and a run.
#[test]
fn flip_and_engine_switch_edges_agree() {
    let spec = DecodeStreamSpec::new(32, 512, 8, 41);
    let matrix = spec.matrix();
    let inputs = spec.token_inputs();
    let token = |systems: &mut [NewtonSystem; 2], loaded: &_, what: &str, t: usize| {
        let runs = run_resident(systems, loaded, &inputs[t]);
        assert_conformant(&format!("{what}, token {t}"), systems, &runs);
        let storage = systems[1].channels()[0].channel().storage();
        (runs[1].stats.ecc_corrected, storage.row_verified(1, 0))
    };
    for threads in WIDTHS {
        let mut systems = pair(&config(2, threads));
        let loaded = load(&mut systems, &matrix, 32, 512);
        let what = format!("threads {threads}");
        assert_eq!(token(&mut systems, &loaded, &what, 0), (0, true));
        for sys in &mut systems {
            let storage = sys.channels_mut()[0].channel_mut().storage_mut();
            storage.flip_bit(1, 0, 3).expect("flip");
        }
        let flipped = token(&mut systems, &loaded, &what, 1);
        assert_eq!(flipped, (1, false), "{what}: the flip is corrected");
        assert_eq!(token(&mut systems, &loaded, &what, 2), (0, true));
        systems[1].set_timing_engine(TimingEngine::Reference);
        assert_eq!(token(&mut systems, &loaded, &what, 3), (0, true));
        systems[1].set_timing_engine(TimingEngine::EventSkipping);
        assert_eq!(token(&mut systems, &loaded, &what, 4), (0, true));
    }

    let mut cfg = config(2, 1);
    cfg.ecc = false;
    let mut systems = pair(&cfg);
    let loaded = load(&mut systems, &matrix, 32, 512);
    assert_eq!(token(&mut systems, &loaded, "ecc off", 0), (0, false));
    let row_bytes = systems[0].config().row_elems() * 2;
    let data: Vec<u8> = (0..row_bytes).map(|i| (i as u8).wrapping_mul(7)).collect();
    for sys in &mut systems {
        sys.channels_mut()[0]
            .channel_mut()
            .storage_mut()
            .write_row(0, 0, &data)
            .expect("rewrite");
    }
    assert_eq!(token(&mut systems, &loaded, "ecc off", 1), (0, false));
}

/// No stale weight: on a resident one-channel BERT S1 with ECC off, a bit
/// flipped in storage between two production runs reaches the second
/// run, which equals the oracle's run on the same storage bit for bit.
/// Nothing tells production that a weight changed; it reads the rows
/// where they are stored.
#[test]
fn a_flipped_weight_bit_reaches_the_next_resident_run() {
    let shape = Benchmark::BertS1.shape();
    let matrix = generator::matrix(shape, 7);
    let vector = generator::vector(shape.n, 8);
    let mut cfg = config(1, 1);
    cfg.ecc = false;
    cfg.telemetry = None;
    let mut sys = NewtonSystem::new(cfg).expect("config");
    let loaded = sys.load_matrix(&matrix, shape.m, shape.n).expect("load");
    let before = sys.run_resident(&loaded, &vector).expect("run");
    // The lowest exponent bit of element 37 of (bank 3, row 5): that
    // weight doubles or halves.
    let storage = sys.channels_mut()[0].channel_mut().storage_mut();
    storage.flip_bit(3, 5, 37 * 16 + 7).expect("flip");
    let production = sys.run_resident(&loaded, &vector).expect("run");
    sys.set_timing_engine(TimingEngine::Reference);
    let oracle = sys.run_resident(&loaded, &vector).expect("run");
    assert_eq!(
        bits(&production),
        bits(&oracle),
        "the flip reached both engines"
    );
    let changed = bits(&before)
        .iter()
        .zip(bits(&production))
        .filter(|(a, b)| **a != *b)
        .count();
    assert_eq!(changed, 1, "exactly the flipped weight's output moved");
}

/// A Table II layer lowered to `.aim` text, parsed back and physically
/// replayed agrees on both legs at each width, twice, and its first run
/// equals the API-driven `run_mv` of the same layer.
#[test]
fn lowered_trace_replay_agrees() {
    let b = Benchmark::BertS1;
    let (shape, channels) = (b.shape(), 8);
    let matrix = generator::matrix(shape, b.seed());
    let vector = generator::vector(shape.n, b.seed() + 1);
    let lowered = generate::lower_mv(&config(channels, 1), &matrix, shape.m, shape.n, &vector)
        .expect("lower");
    // The trace under test is the parsed artifact, not the original.
    let program = Program::parse(&lowered.render()).expect("reparse");
    assert_eq!(program, lowered, "parse(render(p)) must be p");
    let trace = mv::recognize(&program).expect("recognize");
    assert_eq!(trace.matrix, matrix, "trace must carry the exact matrix");
    assert_eq!(trace.vector, vector, "trace must carry the exact vector");

    for threads in WIDTHS {
        let mut systems = pair(&config(channels, threads));
        let loaded = systems
            .each_mut()
            .map(|s| trace.apply_physical(s).expect("apply"));
        let first = run_resident(&mut systems, &loaded, &trace.vector);
        let what = format!("trace, threads {threads}");
        assert_conformant(&what, &systems, &first);
        let runs = run_resident(&mut systems, &loaded, &trace.vector);
        assert_conformant(&what, &systems, &runs);

        let mut api = pair(&config(channels, threads));
        let api_runs = api.each_mut().map(|s| {
            s.run_mv(&matrix, shape.m, shape.n, &vector)
                .expect("run_mv")
        });
        assert_conformant(&format!("api, threads {threads}"), &api, &api_runs);
        for (t, a) in first.iter().zip(&api_runs) {
            assert_eq!(bits(t), bits(a), "{what}: trace vs API outputs");
            assert_eq!(t.cycles, a.cycles, "{what}: trace vs API cycles");
            assert_eq!(t.stats, a.stats, "{what}: trace vs API stats");
            assert_eq!(
                t.channel_summaries, a.channel_summaries,
                "{what}: trace vs API summaries"
            );
        }
    }
}

/// Interpreting a lowered trace is the resident run of the recognised
/// one, because the interpreter issues through the controller's row-set
/// operations: on each leg and each channel, the same audit event stream
/// (which validates) and the same end cycle; and the `RD_MAC` values,
/// summed per matrix row in row-set order, are `run_mv`'s output bits.
/// This holds when every channel's schedule equals channel 0's (the
/// trace carries channel 0's `MAC_ABK` stream to every channel) and
/// every row-set works all banks (a `MAC_ABK` does): BERT S1's 1024 rows
/// fill every row group of both channels.
#[test]
fn interpreted_lowered_trace_is_the_resident_run() {
    let b = Benchmark::BertS1;
    let (shape, channels) = (b.shape(), 2);
    let matrix = generator::matrix(shape, b.seed());
    let vector = generator::vector(shape.n, b.seed() + 1);
    let mut cfg = config(channels, 1);
    cfg.audit = true;
    let program = generate::lower_mv(&cfg, &matrix, shape.m, shape.n, &vector).expect("lower");
    let trace = mv::recognize(&program).expect("recognize");
    let mut api = NewtonSystem::new(cfg.clone()).expect("system");
    let api = api
        .run_mv(&matrix, shape.m, shape.n, &vector)
        .expect("run_mv");

    let interpreted = pair_with(&cfg, |c| interp::interpret(&program, c).expect("interpret"));
    let resident = pair_with(&cfg, |c| {
        let mut sys = NewtonSystem::new(c).expect("system");
        let loaded = trace.apply_physical(&mut sys).expect("apply");
        let run = sys
            .run_resident(&loaded, &trace.vector)
            .expect("run_resident");
        (sys, run)
    });
    // Every channel's schedule, as the system plans a loaded matrix:
    // rows dealt round-robin, each channel's share mapped from row 0.
    let kind = ScheduleKind::InterleavedFullReuse;
    let schedules: Vec<Schedule> = (0..channels)
        .map(|ch| {
            let rows = shape.m / channels + usize::from(shape.m % channels > ch);
            let (banks, row_elems) = (cfg.dram.banks, cfg.row_elems());
            let mapping = MatrixMapping::new(kind.layout(), rows, shape.n, banks, row_elems, 0)
                .expect("mapping");
            Schedule::build(kind, &mapping)
        })
        .collect();
    for (leg, (run, (sys, resident))) in ["oracle", "production"]
        .iter()
        .zip(interpreted.iter().zip(&resident))
    {
        let interp_sys = run.system.as_ref().expect("the trace reaches the device");
        let mut sums = vec![0.0f32; shape.m];
        for ch in 0..channels {
            let what = format!("{leg}, channel {ch}");
            let (a, b) = (&interp_sys.channels()[ch], &sys.channels()[ch]);
            assert_eq!(a.validate_audit(), Ok(()), "{what}: interpreter audit");
            let (la, lb) = (a.channel().audit(), b.channel().audit());
            let (la, lb) = (la.expect("audited"), lb.expect("audited"));
            assert!(
                la.events().eq(lb.events()),
                "{what}: audit event streams differ"
            );
            assert_eq!(run.end_cycles[ch], resident.cycles, "{what}: end cycle");

            let prefix = format!("RD_MAC ch={ch} ");
            let mut lines = run.log.lines().filter(|l| l.starts_with(&prefix));
            for rs in schedules[ch].row_sets() {
                for reads in rs.read_after.chunk_by(|a, b| a.latch == b.latch) {
                    let values = latch_values(lines.next().expect("an RD_MAC per readout"));
                    for r in reads {
                        sums[ch + r.matrix_row * channels] += values[r.bank];
                    }
                }
            }
            assert_eq!(lines.next(), None, "{what}: RD_MAC past the schedule");
        }
        let sums: Vec<u32> = sums.iter().map(|v| v.to_bits()).collect();
        assert_eq!(sums, bits(&api), "{leg}: RD_MAC sums vs run_mv output bits");
    }
}

/// The `values=[...]` list of an interpreter readout line.
fn latch_values(line: &str) -> Vec<f32> {
    let list = line.split("values=[").nth(1).expect("values list");
    list.trim_end_matches(']')
        .split(", ")
        .map(|v| v.parse().expect("f32"))
        .collect()
}

/// One serving cell on both legs.
fn serve(
    cfg: &NewtonConfig,
    (matrix_seed, input_seed): (u64, u64),
    traffic: &TrafficConfig,
    chaos: &ChaosPlan,
) -> [ServeReport; 2] {
    let shape = MvShape::new(32, 512);
    let matrix = generator::matrix(shape, matrix_seed);
    let servers = pair_with(cfg, |c| {
        Server::new(c, matrix.clone(), shape.m, shape.n, 3, input_seed).expect("server")
    });
    servers.map(|mut s| s.serve(traffic, chaos).expect("serves"))
}

/// A 25-request bursty cell with mid-traffic BER faults and a stuck word:
/// scrub, retry, bank retirement and re-plan all execute, at each width;
/// each leg's report is the same at every width.
#[test]
fn chaos_serving_cell_agrees() {
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
    let serial = serve(&config(4, 1), (31, 33), &traffic, &chaos);
    assert_serve_conformant("chaos cell", &serial);
    let r = &serial[1];
    assert!(r.retries > 0, "chaos must force retries");
    assert!(
        !r.recovery.retired_banks.is_empty(),
        "the stuck word must retire a bank"
    );
    assert_eq!(r.sdc, 0, "ECC on: zero silent corruption");
    assert_eq!(r.offered, r.completed + r.shed + r.expired);
    for threads in &WIDTHS[1..] {
        let reports = serve(&config(4, *threads), (31, 33), &traffic, &chaos);
        assert_eq!(reports, serial, "threads {threads}");
    }
}

/// Conventional-DRAM bursts interleaved between AiM batches: the
/// controller advances clocks between batches and the trains'
/// first-command scans absorb that.
#[test]
fn conventional_traffic_serving_agrees() {
    let mut traffic = TrafficConfig {
        pattern: ArrivalPattern::Poisson { rate_per_us: 0.05 },
        requests: 24,
        seed: 51,
        deadline_ns: 100_000.0,
        queue_capacity: 64,
        max_batch: 8,
        retry_backoff_cycles: 256,
        conventional: None,
    };
    traffic.conventional = Some(ConventionalTraffic {
        interval_ns: 4_000.0,
        burst_requests: 16,
    });
    let reports = serve(&config(2, 1), (47, 49), &traffic, &ChaosPlan::none());
    assert_serve_conformant("conventional traffic", &reports);
    assert!(
        reports[1].conventional_bursts > 0,
        "cell must interleave bursts"
    );
}

/// One step of a random interleaving, applied identically to every system.
#[derive(Debug, Clone)]
enum Mutation {
    WriteRow {
        channel: usize,
        bank: usize,
        seed: u8,
    },
    FlipBit {
        channel: usize,
        bank: usize,
        bit: usize,
    },
    /// Host-side storage readback of one row.
    Read {
        channel: usize,
        bank: usize,
    },
    Comp,
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        2 => (0usize..8, 0usize..16, any::<u8>())
            .prop_map(|(channel, bank, seed)| Mutation::WriteRow { channel, bank, seed }),
        1 => (0usize..8, 0usize..16, 0usize..4096)
            .prop_map(|(channel, bank, bit)| Mutation::FlipBit { channel, bank, bit }),
        1 => (0usize..8, 0usize..16)
            .prop_map(|(channel, bank)| Mutation::Read { channel, bank }),
        3 => Just(Mutation::Comp),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random write / flip / read / COMP interleavings against a resident
    /// matrix, on a pair per width with ECC, telemetry and command traces
    /// on, and on a bare pair (no ECC, trace or telemetry). 64x4096 makes
    /// each run 2.2k-2.8k cycles, so a case's at least three runs cross
    /// tREFI (3.9k cycles) and refreshes land in about half of them, at a
    /// different point of the run each time.
    #[test]
    fn random_interleavings_agree(ops in prop::collection::vec(mutation(), 1..10)) {
        let (m, n) = (64, 4096);
        let matrix = generator::matrix(MvShape::new(m, n), 29);
        let vector = generator::vector(n, 29);

        let mut pairs: Vec<[NewtonSystem; 2]> = WIDTHS
            .iter()
            .map(|&threads| {
                let mut systems = pair(&config(8, threads));
                for ch in systems.iter_mut().flat_map(|s| s.channels_mut()) {
                    ch.enable_trace();
                }
                systems
            })
            .collect();
        let mut cfg = NewtonConfig::paper_default();
        cfg.channels = 8;
        cfg.parallel = ParallelPolicy::exact(1);
        pairs.push(pair(&cfg));
        let loaded: Vec<_> = pairs.iter_mut().map(|p| load(p, &matrix, m, n)).collect();
        let row_bytes = pairs[0][0].config().row_elems() * 2;

        let mut refreshes = [0u64; 4];
        let mut compare = |pairs: &mut Vec<[NewtonSystem; 2]>| {
            let mut observed: Vec<SystemRun> = Vec::new();
            for (i, (systems, loaded)) in pairs.iter_mut().zip(&loaded).enumerate() {
                let runs = run_resident(systems, loaded, &vector);
                assert_conformant(&format!("pair {i}"), systems, &runs);
                let [_, production] = runs;
                refreshes[i] += production.stats.refreshes;
                if i < WIDTHS.len() {
                    observed.push(production);
                }
            }
            // Production at every width is the machine it is at width 1.
            for (i, run) in observed.iter().enumerate().skip(1) {
                let what = format!("threads {}", WIDTHS[i]);
                assert_eq!(bits(run), bits(&observed[0]), "{what}: output bits");
                assert_eq!(run.stats, observed[0].stats, "{what}: AimStats");
                assert_eq!(
                    run.channel_summaries, observed[0].channel_summaries,
                    "{what}: channel summaries"
                );
                for (a, b) in pairs[i][1].channels().iter().zip(pairs[0][1].channels()) {
                    assert!(
                        a.trace().entries().eq(b.trace().entries()),
                        "{what}: trace"
                    );
                }
            }
        };

        for op in &ops {
            match *op {
                Mutation::Read { channel, bank } => {
                    let rows: Vec<Option<Vec<u8>>> = pairs
                        .iter()
                        .flatten()
                        .map(|s| {
                            let storage = s.channels()[channel].channel().storage();
                            storage.row(bank, 0).ok()
                        })
                        .collect();
                    prop_assert!(rows.windows(2).all(|w| w[0] == w[1]));
                }
                Mutation::WriteRow { channel, bank, seed } => {
                    let data: Vec<u8> =
                        (0..row_bytes).map(|i| (i as u8).wrapping_mul(seed)).collect();
                    // A write may land on an unallocated row; what matters
                    // is that every system agrees.
                    let outcomes: Vec<bool> = pairs
                        .iter_mut()
                        .flatten()
                        .map(|s| {
                            let storage = s.channels_mut()[channel].channel_mut().storage_mut();
                            storage.write_row(bank, 0, &data).is_ok()
                        })
                        .collect();
                    prop_assert!(outcomes.windows(2).all(|w| w[0] == w[1]));
                }
                Mutation::FlipBit { channel, bank, bit } => {
                    let outcomes: Vec<bool> = pairs
                        .iter_mut()
                        .flatten()
                        .map(|s| {
                            let storage = s.channels_mut()[channel].channel_mut().storage_mut();
                            storage.flip_bit(bank, 0, bit).is_ok()
                        })
                        .collect();
                    prop_assert!(outcomes.windows(2).all(|w| w[0] == w[1]));
                }
                Mutation::Comp => compare(&mut pairs),
            }
        }
        // Three more runs on untouched weights: whatever the ops did, the
        // first scrubs what it finds unverified, so the later ones skip
        // those scrubs everywhere — traced, with telemetry and ECC on.
        for _ in 0..3 {
            compare(&mut pairs);
        }
        prop_assert!(refreshes.iter().all(|&r| r > 0), "every pair refreshes: {:?}", refreshes);
    }
}
