//! Cross-layer determinism suite (PR 4): N-thread execution must be
//! bit-exact against the serial reference at every observable surface —
//! outputs, cycle counts, AiM stats, per-channel DRAM summaries, command
//! traces, and rendered snapshot JSON — including across random
//! interleavings of storage writes and COMPs.
//!
//! Every system here pins its pool width with [`ParallelPolicy::exact`],
//! which ignores `NEWTON_THREADS`, so the suite passes identically under
//! `NEWTON_THREADS=1` (the CI serial leg) and the default environment.

use newton_bf16::Bf16;
use newton_core::config::NewtonConfig;
use newton_core::parallel::{env_threads, ParallelPolicy, THREADS_ENV};
use newton_core::system::{LoadedMatrix, NewtonSystem, SystemRun};
use newton_core::{RecoveryReport, TelemetryConfig};
use newton_dram::faults::{self, CampaignSpec, InjectedFault};
use newton_dram::TimingEngine;
use newton_model::power::ActivityCounts;
use newton_trace::{EnergyModel, MetricsSnapshot};
use newton_workloads::{generator, Benchmark, MvShape};
use proptest::prelude::*;

/// An 8-channel system with the worker-pool width pinned to `threads`.
fn system(threads: usize) -> NewtonSystem {
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 8;
    cfg.parallel = ParallelPolicy::exact(threads);
    NewtonSystem::new(cfg).expect("system")
}

/// Everything observable about one traced run, rendered to comparable
/// form: the run itself, every channel's command trace, and a snapshot
/// document built from the run's metrics.
fn observe(run: &SystemRun, traces: Vec<String>) -> (Vec<u32>, u64, u64, String, Vec<String>) {
    let bits: Vec<u32> = run.output.iter().map(|v| v.to_bits()).collect();
    let mut snap = MetricsSnapshot::new("determinism_probe");
    snap.count("cycles", run.cycles)
        .count("gwrites", run.stats.gwrite_commands)
        .count("comps", run.stats.compute_commands)
        .count("readres", run.stats.readres_commands)
        .count("activates", run.stats.activate_commands)
        .count("row_sets", run.stats.row_sets)
        .count("refreshes", run.stats.refreshes)
        .scalar("elapsed_ns", run.elapsed_ns);
    for (i, s) in run.channel_summaries.iter().enumerate() {
        snap.count(&format!("ch{i}/commands"), s.commands);
    }
    (
        bits,
        run.cycles,
        run.stats.compute_commands,
        snap.render(),
        traces,
    )
}

/// Runs one Table II layer (DLRM s1, the smallest paper shape) with
/// tracing on and returns the full observation.
fn traced_layer_run(threads: usize) -> (Vec<u32>, u64, u64, String, Vec<String>) {
    let b = Benchmark::DlrmS1;
    let shape = b.shape();
    let matrix = generator::matrix(shape, b.seed());
    let vector = generator::vector(shape.n, b.seed());
    let mut sys = system(threads);
    for ch in sys.channels_mut() {
        ch.enable_trace();
    }
    let run = sys
        .run_mv(&matrix, shape.m, shape.n, &vector)
        .expect("layer run");
    let traces: Vec<String> = sys
        .channels_mut()
        .iter()
        .map(|ch| ch.trace().render())
        .collect();
    observe(&run, traces)
}

#[test]
fn table_ii_layer_is_bit_exact_across_thread_counts() {
    let serial = traced_layer_run(1);
    assert!(!serial.0.is_empty());
    assert_eq!(serial.4.len(), 8, "one trace per channel");
    for threads in [2, 8] {
        let par = traced_layer_run(threads);
        assert_eq!(par.0, serial.0, "output bits, threads={threads}");
        assert_eq!(par.1, serial.1, "cycles, threads={threads}");
        assert_eq!(par.2, serial.2, "COMP count, threads={threads}");
        assert_eq!(par.3, serial.3, "snapshot JSON, threads={threads}");
        assert_eq!(par.4, serial.4, "command traces, threads={threads}");
    }
}

#[test]
fn idle_channels_stay_bit_exact_across_thread_counts() {
    // Fewer matrix rows than channels: the trailing channels get no
    // mapping, spawn no work, and must still appear in the summaries at
    // the common end cycle.
    let (m, n) = (3, 64);
    let matrix = generator::matrix(MvShape::new(m, n), 11);
    let vector = generator::vector(n, 11);
    let run_with = |threads: usize| {
        let mut sys = system(threads);
        let run = sys.run_mv(&matrix, m, n, &vector).expect("idle run");
        assert_eq!(run.channel_summaries.len(), 8);
        assert_eq!(run.output.len(), m);
        run
    };
    let serial = run_with(1);
    for threads in [2, 8] {
        let par = run_with(threads);
        let a: Vec<u32> = serial.output.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = par.output.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "threads={threads}");
        assert_eq!(serial.cycles, par.cycles, "threads={threads}");
        assert_eq!(serial.stats, par.stats, "threads={threads}");
        assert_eq!(
            serial.channel_summaries, par.channel_summaries,
            "threads={threads}"
        );
    }
}

/// A system resolves its policy to a thread budget once, when it is
/// built. Pinned widths and the default policy — whatever
/// `NEWTON_THREADS` and the host make of it — must agree on everything
/// observable, on a layer large enough (2^20 MACs a channel) for the
/// default policy's work threshold to let threads spawn.
#[test]
fn default_policy_matches_every_pinned_width() {
    let (m, n) = (1024, 2048);
    let matrix = generator::matrix(MvShape::new(m, n), 13);
    let vector = generator::vector(n, 13);
    let run_under = |policy: ParallelPolicy| {
        let mut cfg = NewtonConfig::paper_default();
        cfg.channels = 2;
        cfg.parallel = policy;
        let mut sys = NewtonSystem::new(cfg).expect("system");
        let loaded = sys.load_matrix(&matrix, m, n).expect("load");
        sys.run_resident(&loaded, &vector).expect("run")
    };
    let serial = run_under(ParallelPolicy::exact(1));
    let bits = |run: &SystemRun| run.output.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for policy in [
        ParallelPolicy::exact(2),
        ParallelPolicy::exact(8),
        ParallelPolicy::default(),
    ] {
        let run = run_under(policy);
        assert_eq!(bits(&run), bits(&serial), "{policy:?}");
        assert_eq!(run.cycles, serial.cycles, "{policy:?}");
        assert_eq!(run.stats, serial.stats, "{policy:?}");
        assert_eq!(
            run.channel_summaries, serial.channel_summaries,
            "{policy:?}"
        );
    }
}

/// `NEWTON_THREADS` parsing and precedence, in one test (env mutation is
/// process-global, so it is not spread across parallel test threads).
#[test]
fn newton_threads_env_controls_default_policy_only() {
    let host = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let old = std::env::var(THREADS_ENV).ok();
    std::env::set_var(THREADS_ENV, "3");
    assert_eq!(env_threads(), Some(3));
    // Environment requests are capped at the host's cores; only exact()
    // may oversubscribe.
    assert_eq!(ParallelPolicy::default().threads(), 3.min(host));
    // exact() pins the width regardless of the environment or the host.
    assert_eq!(ParallelPolicy::exact(2).threads(), 2);
    assert_eq!(ParallelPolicy::exact(host * 4).threads(), host * 4);
    std::env::set_var(THREADS_ENV, "1");
    assert_eq!(env_threads(), Some(1));
    assert_eq!(ParallelPolicy::default().threads(), 1);
    // Unparseable or zero values fall back to auto-detection.
    std::env::set_var(THREADS_ENV, "0");
    assert_eq!(env_threads(), None);
    std::env::set_var(THREADS_ENV, "lots");
    assert_eq!(env_threads(), None);
    match old {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
}

/// An 8-channel system with streaming telemetry enabled and the pool
/// width pinned to `threads`.
fn telemetry_system(threads: usize) -> NewtonSystem {
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 8;
    cfg.parallel = ParallelPolicy::exact(threads);
    cfg.telemetry = Some(TelemetryConfig::default());
    NewtonSystem::new(cfg).expect("system")
}

/// Everything simulation-deterministic about one telemetry-enabled run:
/// the merged time series (windows, counts, energy), its rendered JSON
/// export, and the host-phase digest (phase names and call counts; wall
/// nanoseconds are host-dependent and excluded by design).
fn telemetry_observation(threads: usize) -> (newton_trace::TimeSeries, String, u64, u64, String) {
    let b = Benchmark::DlrmS1;
    let shape = b.shape();
    let matrix = generator::matrix(shape, b.seed());
    let vector = generator::vector(shape.n, b.seed());
    let mut sys = telemetry_system(threads);
    let run = sys
        .run_mv(&matrix, shape.m, shape.n, &vector)
        .expect("telemetry run");
    let merged = run.merged_telemetry().expect("telemetry enabled");
    let model = EnergyModel::new();
    let json = merged
        .to_json(run.channel_summaries[0].tck_ns, &model)
        .render();
    let totals = merged.totals();
    let digest = sys.host_phases().digest();
    (
        merged,
        json,
        totals.energy_milli_pj,
        totals.refresh_milli_pj,
        digest,
    )
}

#[test]
fn telemetry_is_bit_exact_across_thread_counts() {
    let serial = telemetry_observation(1);
    assert!(!serial.0.windows().is_empty(), "series must have windows");
    assert!(serial.2 > 0, "a COMP workload must attribute energy");
    for threads in [2, 8] {
        let par = telemetry_observation(threads);
        assert_eq!(par.0, serial.0, "merged time series, threads={threads}");
        assert_eq!(par.1, serial.1, "telemetry JSON, threads={threads}");
        assert_eq!(par.2, serial.2, "energy totals, threads={threads}");
        assert_eq!(par.3, serial.3, "refresh energy, threads={threads}");
        assert_eq!(par.4, serial.4, "host-phase digest, threads={threads}");
    }
}

/// Everything observable about one fault campaign: the concrete fault
/// list, output bits, stats, recovery report, and per-channel
/// (corrected, uncorrectable) ECC counters.
type CampaignObservation = (
    Vec<InjectedFault>,
    Vec<u32>,
    newton_core::controller::AimStats,
    RecoveryReport,
    Vec<(u64, u64)>,
);

/// A full fault-injection campaign — load, deterministic injection from
/// a seeded [`CampaignSpec`], ECC-resilient run — observed end to end.
fn campaign_run(threads: usize, seed: u64) -> CampaignObservation {
    let (m, n) = (32, 1024);
    let matrix = generator::matrix(MvShape::new(m, n), 31);
    let vector = generator::vector(n, 31);
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 8;
    cfg.ecc = true;
    cfg.parallel = ParallelPolicy::exact(threads);
    let mut sys = NewtonSystem::new(cfg).expect("system");
    let loaded = sys.load_matrix(&matrix, m, n).expect("load");

    let spec = CampaignSpec {
        seed,
        single_bit_flips: 5,
        double_bit_words: 1,
        stuck_cells: 0,
        retention: None,
    };
    let mut faults = Vec::new();
    for ch in 0..8 {
        let per_channel = spec.for_channel(ch);
        let now = sys.channels()[ch].now();
        faults.extend(
            faults::inject(sys.channels_mut()[ch].channel_mut(), now, &per_channel)
                .expect("inject"),
        );
    }

    let (run, report) = sys
        .run_resident_resilient(&loaded, &matrix, &vector)
        .expect("resilient run");
    let ecc: Vec<(u64, u64)> = sys
        .channels()
        .iter()
        .map(|c| {
            let s = c.channel().stats();
            (s.ecc_corrected, s.ecc_uncorrectable)
        })
        .collect();
    let bits = run.output.iter().map(|v| v.to_bits()).collect();
    (faults, bits, run.stats, report, ecc)
}

#[test]
fn fault_campaigns_are_bit_exact_across_thread_counts() {
    // Same seed => byte-identical injected faults, corrected/uncorrectable
    // counters, recovery reports and output bits at 1, 2 and 8 workers.
    let serial = campaign_run(1, 0xFA17);
    assert!(!serial.0.is_empty(), "campaign must inject something");
    assert!(
        serial.4.iter().map(|(c, _)| c).sum::<u64>() > 0,
        "ECC must correct the injected single-bit faults"
    );
    for threads in [2, 8] {
        let par = campaign_run(threads, 0xFA17);
        assert_eq!(par.0, serial.0, "fault list, threads={threads}");
        assert_eq!(par.1, serial.1, "output bits, threads={threads}");
        assert_eq!(par.2, serial.2, "stats, threads={threads}");
        assert_eq!(par.3, serial.3, "recovery report, threads={threads}");
        assert_eq!(par.4, serial.4, "ECC counters, threads={threads}");
    }
    // A different seed must produce a different campaign (the stream is
    // counter-based, not degenerate).
    let other = campaign_run(1, 0x5EED);
    assert_ne!(other.0, serial.0, "distinct seeds, distinct fault lists");
}

/// One step of the random interleaving, applied identically to every
/// system under comparison.
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
    /// Host-side storage readback of one row — must agree byte-for-byte
    /// across every system under comparison.
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

    /// The streamed (windowed) energy attribution must agree with the
    /// postprocessed Fig. 13 power model on arbitrary layer shapes: the
    /// underlying activity counts bit-for-bit, and the picojoule totals
    /// within the per-command milli-pJ rounding budget (0.1%).
    #[test]
    fn streamed_energy_matches_postprocessed_model(
        m in 1usize..24,
        n_pow in 6u32..10,
        seed in 0u64..1024,
    ) {
        let n = 1usize << n_pow;
        let matrix = generator::matrix(MvShape::new(m, n), seed);
        let vector = generator::vector(n, seed);
        let mut sys = telemetry_system(1);
        let run = sys.run_mv(&matrix, m, n, &vector).expect("telemetry run");

        let streamed = ActivityCounts::from_aim_telemetry(&run.channel_summaries)
            .expect("telemetry enabled on every channel");
        let post = ActivityCounts::from_aim_summaries(&run.channel_summaries);
        prop_assert_eq!(streamed, post, "streamed counts must equal postprocessed counts");

        let model = EnergyModel::new();
        let merged = run.merged_telemetry().expect("telemetry enabled");
        let streamed_pj = merged.totals().energy_milli_pj as f64 / 1000.0;
        let model_pj = merged.dynamic_energy_pj(&model);
        if model_pj > 0.0 {
            let divergence = (streamed_pj - model_pj).abs() / model_pj;
            prop_assert!(
                divergence <= 1e-3,
                "streamed {} pJ vs model {} pJ (divergence {})",
                streamed_pj, model_pj, divergence
            );
        }
    }

    /// Random interleavings of storage writes and COMPs against a
    /// resident matrix: systems at 1, 2 and 8 workers stay bit-identical
    /// at every COMP (writes go through the same storage paths; the only
    /// degree of freedom is the pool width, which must not be
    /// observable).
    #[test]
    fn random_write_comp_interleavings_are_thread_invariant(
        ops in prop::collection::vec(mutation(), 1..16)
    ) {
        let (m, n) = (32, 256);
        let matrix = generator::matrix(MvShape::new(m, n), 23);
        let vector = generator::vector(n, 23);

        let mut systems: Vec<NewtonSystem> = [1usize, 2, 8].iter().map(|&t| system(t)).collect();
        let loaded: Vec<_> = systems
            .iter_mut()
            .map(|s| s.load_matrix(&matrix, m, n).expect("load"))
            .collect();
        let row_bytes = systems[0].config().row_elems() * 2;

        let compare = |systems: &mut Vec<NewtonSystem>, loaded: &[newton_core::system::LoadedMatrix], vector: &[Bf16]| {
            let runs: Vec<SystemRun> = systems
                .iter_mut()
                .zip(loaded)
                .map(|(s, l)| s.run_resident(l, vector).expect("resident run"))
                .collect();
            let bits: Vec<Vec<u32>> = runs
                .iter()
                .map(|r| r.output.iter().map(|v| v.to_bits()).collect())
                .collect();
            for r in &runs[1..] {
                assert_eq!(
                    bits[0],
                    r.output.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
                );
                assert_eq!(runs[0].cycles, r.cycles);
                assert_eq!(runs[0].stats, r.stats);
                assert_eq!(runs[0].channel_summaries, r.channel_summaries);
            }
        };

        for op in &ops {
            match op {
                Mutation::Read { channel, bank } => {
                    let rows: Vec<Option<Vec<u8>>> = systems
                        .iter()
                        .map(|s| {
                            s.channels()[*channel]
                                .channel()
                                .storage()
                                .row(*bank, 0)
                                .ok()
                                .map(<[u8]>::to_vec)
                        })
                        .collect();
                    prop_assert!(rows.windows(2).all(|w| w[0] == w[1]));
                }
                Mutation::WriteRow { channel, bank, seed } => {
                    let data: Vec<u8> =
                        (0..row_bytes).map(|i| (i as u8).wrapping_mul(*seed)).collect();
                    // A write may legitimately land on an unallocated row;
                    // what matters is that every system agrees.
                    let outcomes: Vec<bool> = systems
                        .iter_mut()
                        .map(|s| {
                            s.channels_mut()[*channel]
                                .channel_mut()
                                .storage_mut()
                                .write_row(*bank, 0, &data)
                                .is_ok()
                        })
                        .collect();
                    prop_assert!(outcomes.windows(2).all(|w| w[0] == w[1]));
                }
                Mutation::FlipBit { channel, bank, bit } => {
                    let outcomes: Vec<bool> = systems
                        .iter_mut()
                        .map(|s| {
                            s.channels_mut()[*channel]
                                .channel_mut()
                                .storage_mut()
                                .flip_bit(*bank, 0, *bit)
                                .is_ok()
                        })
                        .collect();
                    prop_assert!(outcomes.windows(2).all(|w| w[0] == w[1]));
                }
                Mutation::Comp => compare(&mut systems, &loaded, &vector),
            }
        }
        // Always end on a COMP so trailing writes are exercised.
        compare(&mut systems, &loaded, &vector);
    }

    /// PR 7 tentpole gate: the event-skipping timing engine must be
    /// byte-identical to the reference (full-rescan, never-replayed) oracle on random
    /// write/COMP/read interleavings — with ECC enabled, refresh
    /// interposition in flight, streaming telemetry and command traces on,
    /// at pool widths 1, 2 and 8 — across *every* observable surface:
    /// output bits, cycle counts, AiM stats, rendered traces, telemetry
    /// windows, and energy totals (modulo the replay cache's own
    /// counters: the observed event-skipping systems replay under their
    /// observers, the oracle never does). A second engine pair runs bare
    /// (no ECC/trace/telemetry) and is compared the same way.
    #[test]
    fn timing_engines_byte_identical_under_random_interleavings(
        ops in prop::collection::vec(mutation(), 1..10)
    ) {
        // 64x8192 makes each resident run ~4.8k cycles — past the tREFI
        // window, so refresh interposition is live in every comparison.
        let (m, n) = (64, 8192);
        let matrix = generator::matrix(MvShape::new(m, n), 29);
        let vector = generator::vector(n, 29);

        let engines = [TimingEngine::EventSkipping, TimingEngine::Reference];
        // Fully-observed systems: engines x widths, ECC + telemetry + traces.
        let mut observed: Vec<NewtonSystem> = Vec::new();
        for &engine in &engines {
            for &threads in &[1usize, 2, 8] {
                let mut cfg = NewtonConfig::paper_default();
                cfg.channels = 8;
                cfg.ecc = true;
                cfg.parallel = ParallelPolicy::exact(threads);
                cfg.telemetry = Some(TelemetryConfig::default());
                cfg.engine = engine;
                let mut sys = NewtonSystem::new(cfg).expect("system");
                for ch in sys.channels_mut() {
                    ch.enable_trace();
                }
                observed.push(sys);
            }
        }
        // Bare systems: engine pair with trains and replay armed.
        let mut bare: Vec<NewtonSystem> = engines
            .iter()
            .map(|&engine| {
                let mut sys = system(1);
                sys.set_timing_engine(engine);
                sys
            })
            .collect();

        let loaded_obs: Vec<LoadedMatrix> = observed
            .iter_mut()
            .map(|s| s.load_matrix(&matrix, m, n).expect("load"))
            .collect();
        let loaded_bare: Vec<LoadedMatrix> = bare
            .iter_mut()
            .map(|s| s.load_matrix(&matrix, m, n).expect("load"))
            .collect();
        let row_bytes = observed[0].config().row_elems() * 2;

        // Replay hits per observed system over the whole case.
        let mut observed_hits = vec![0u64; observed.len()];
        let mut compare_all = |observed: &mut Vec<NewtonSystem>,
                           bare: &mut Vec<NewtonSystem>,
                           loaded_obs: &[LoadedMatrix],
                           loaded_bare: &[LoadedMatrix],
                           vector: &[Bf16]| {
            type Surface = (Vec<u32>, u64, newton_core::controller::AimStats,
                            Vec<String>, newton_trace::TimeSeries, u64, u64);
            let surfaces: Vec<Surface> = observed
                .iter_mut()
                .zip(loaded_obs)
                .map(|(s, l)| {
                    let run = s.run_resident(l, vector).expect("observed run");
                    let traces: Vec<String> = s
                        .channels_mut()
                        .iter()
                        .map(|ch| ch.trace().render())
                        .collect();
                    let merged = run.merged_telemetry().expect("telemetry enabled");
                    let totals = merged.totals();
                    assert!(run.stats.refreshes >= 1, "run must cross a tREFI window");
                    (
                        run.output.iter().map(|v| v.to_bits()).collect(),
                        run.cycles,
                        run.stats,
                        traces,
                        merged.sans_schedule_cache(),
                        totals.energy_milli_pj,
                        totals.refresh_milli_pj,
                    )
                })
                .collect();
            for (hits, s) in observed_hits.iter_mut().zip(&surfaces) {
                *hits += s.2.schedule_hits;
            }
            let surfaces: Vec<Surface> = surfaces
                .into_iter()
                .map(|mut s| {
                    s.2 = s.2.sans_schedule_cache();
                    s
                })
                .collect();
            for (i, s) in surfaces.iter().enumerate().skip(1) {
                assert_eq!(s.0, surfaces[0].0, "output bits, system {i}");
                assert_eq!(s.1, surfaces[0].1, "cycles, system {i}");
                assert_eq!(s.2, surfaces[0].2, "AiM stats, system {i}");
                assert_eq!(s.3, surfaces[0].3, "command traces, system {i}");
                assert_eq!(s.4, surfaces[0].4, "telemetry windows, system {i}");
                assert_eq!(s.5, surfaces[0].5, "energy totals, system {i}");
                assert_eq!(s.6, surfaces[0].6, "refresh energy, system {i}");
            }
            let bare_runs: Vec<SystemRun> = bare
                .iter_mut()
                .zip(loaded_bare)
                .map(|(s, l)| s.run_resident(l, vector).expect("bare run"))
                .collect();
            let (fast, oracle) = (&bare_runs[0], &bare_runs[1]);
            assert_eq!(
                fast.output.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
                oracle.output.iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
                "fast-path output bits"
            );
            assert_eq!(fast.cycles, oracle.cycles, "fast-path cycles");
            assert_eq!(
                fast.stats.sans_schedule_cache(),
                oracle.stats.sans_schedule_cache(),
                "fast-path stats"
            );
            assert_eq!(oracle.stats.schedule_hits, 0, "the oracle never replays");
            assert_eq!(
                fast.channel_summaries, oracle.channel_summaries,
                "fast-path channel summaries"
            );
        };

        for op in &ops {
            match op {
                Mutation::Read { channel, bank } => {
                    let rows: Vec<Option<Vec<u8>>> = observed
                        .iter()
                        .chain(bare.iter())
                        .map(|s| {
                            s.channels()[*channel]
                                .channel()
                                .storage()
                                .row(*bank, 0)
                                .ok()
                                .map(<[u8]>::to_vec)
                        })
                        .collect();
                    prop_assert!(rows.windows(2).all(|w| w[0] == w[1]));
                }
                Mutation::WriteRow { channel, bank, seed } => {
                    let data: Vec<u8> =
                        (0..row_bytes).map(|i| (i as u8).wrapping_mul(*seed)).collect();
                    let outcomes: Vec<bool> = observed
                        .iter_mut()
                        .chain(bare.iter_mut())
                        .map(|s| {
                            s.channels_mut()[*channel]
                                .channel_mut()
                                .storage_mut()
                                .write_row(*bank, 0, &data)
                                .is_ok()
                        })
                        .collect();
                    prop_assert!(outcomes.windows(2).all(|w| w[0] == w[1]));
                }
                Mutation::FlipBit { channel, bank, bit } => {
                    let outcomes: Vec<bool> = observed
                        .iter_mut()
                        .chain(bare.iter_mut())
                        .map(|s| {
                            s.channels_mut()[*channel]
                                .channel_mut()
                                .storage_mut()
                                .flip_bit(*bank, 0, *bit)
                                .is_ok()
                        })
                        .collect();
                    prop_assert!(outcomes.windows(2).all(|w| w[0] == w[1]));
                }
                Mutation::Comp => compare_all(
                    &mut observed,
                    &mut bare,
                    &loaded_obs,
                    &loaded_bare,
                    &vector,
                ),
            }
        }
        compare_all(&mut observed, &mut bare, &loaded_obs, &loaded_bare, &vector);
        // Two more runs on untouched weights: whatever the ops did, the
        // first drains clean and captures on every channel that has not
        // yet, so the second replays everywhere — traced, with telemetry
        // and ECC on.
        compare_all(&mut observed, &mut bare, &loaded_obs, &loaded_bare, &vector);
        compare_all(&mut observed, &mut bare, &loaded_obs, &loaded_bare, &vector);
        // Observed systems: three widths on the event-skipping engine,
        // then three on the oracle.
        for (i, &hits) in observed_hits.iter().enumerate() {
            if i < 3 {
                prop_assert!(hits > 0, "observed system {i} must replay under its observers");
            } else {
                prop_assert_eq!(hits, 0, "oracle system {} never replays", i);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Serving path (PR 8): the deadline scheduler, admission control, chaos
// injection, and the recovery ladder must produce byte-identical
// BENCH_pr8-style snapshots at every thread width, and across the two
// timing engines on everything but the replay cache's own counters —
// latency percentiles, shed/retry counters, energy, all of it.
// ---------------------------------------------------------------------

/// One serving cell under an explicit engine and pool width: mid-traffic
/// BER faults plus a hard stuck word (so scrub, retry, backoff, AND the
/// retirement/re-plan rungs all execute), rendered to the same snapshot
/// form the `serve` bench bin writes.
fn serving_observation(
    engine: TimingEngine,
    threads: usize,
) -> (newton_serve::ServeReport, String) {
    use newton_serve::{ChaosAction, ChaosEvent, ChaosPlan, Server, TrafficConfig};
    use newton_workloads::arrivals::ArrivalPattern;

    let (m, n) = (32, 512);
    let matrix = generator::matrix(MvShape::new(m, n), 31);
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 4;
    cfg.ecc = true;
    cfg.parallel = ParallelPolicy::exact(threads);
    cfg.telemetry = Some(TelemetryConfig::default());
    cfg.engine = engine;
    let mut server = Server::new(cfg, matrix, m, n, 3, 33).expect("server");

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
    let report = server.serve(&traffic, &chaos).expect("serves");
    let mut snap = MetricsSnapshot::new("serving_determinism");
    report.record_into(&mut snap, "serve");
    let rendered = snap.render();
    (report, rendered)
}

#[test]
fn serving_reports_byte_identical_across_engines_and_widths() {
    // The reference engine is the never-cached oracle of the chaos cell
    // (BER faults + stuck word -> scrub, retry, retirement, re-plan); the
    // production engine must match it modulo the cache counters, and each
    // engine must match itself exactly at every width.
    let cell = |engine| -> Vec<(newton_serve::ServeReport, String)> {
        [1usize, 2, 8]
            .iter()
            .map(|&threads| serving_observation(engine, threads))
            .collect()
    };
    let production = cell(TimingEngine::EventSkipping);
    let oracle = cell(TimingEngine::Reference);
    let (first_report, _) = &production[0];
    // The cell must actually exercise the interesting machinery, or the
    // equality below proves nothing.
    assert!(first_report.retries > 0, "chaos must force retries");
    assert!(
        !first_report.recovery.retired_banks.is_empty(),
        "the stuck word must retire a bank mid-chaos"
    );
    assert_eq!(first_report.sdc, 0, "ECC on: zero silent corruption");
    assert_eq!(
        first_report.offered,
        first_report.completed + first_report.shed + first_report.expired
    );
    assert!(
        first_report.schedule_hits > 0,
        "resident serving must hit the replay cache"
    );
    assert!(
        first_report.schedule_invalidations > 0,
        "chaos must invalidate compiled entries"
    );
    assert_eq!(oracle[0].0.schedule_hits, 0, "the oracle never replays");
    assert_eq!(oracle[0].0.replayed_commands, 0, "the oracle never replays");
    for (engine, runs) in [("event-skipping", &production), ("reference", &oracle)] {
        for (i, (report, rendered)) in runs.iter().enumerate().skip(1) {
            assert_eq!(report, &runs[0].0, "{engine}: report diverged at width {i}");
            assert_eq!(
                rendered, &runs[0].1,
                "{engine}: rendered snapshot diverged at width {i}"
            );
        }
    }
    assert_eq!(
        oracle[0].0.sans_schedule_cache(),
        first_report.sans_schedule_cache(),
        "sanitized reports across engines"
    );
}

// ---------------------------------------------------------------------
// Compiled-schedule replay cache (PR 9): the production engine (trains, replay)
// must be byte-identical to the reference engine (the never-cached
// oracle) on every observable surface — at thread widths {1, 2, 8},
// through invalidation edges (weight writes, retirement mid-chaos, ECC
// on/off), engine flips, attached audit logs and interleaved
// conventional traffic.
// ---------------------------------------------------------------------

/// A resident-matrix pair: the same config on the reference engine (the
/// oracle, index 0) and on the event-skipping engine (production, index
/// 1). Both systems see identical mutations through the returned handles.
fn engine_pair(
    ecc: bool,
    threads: usize,
    m: usize,
    n: usize,
    matrix: &[Bf16],
) -> (Vec<NewtonSystem>, Vec<LoadedMatrix>) {
    let mut systems: Vec<NewtonSystem> = [TimingEngine::Reference, TimingEngine::EventSkipping]
        .iter()
        .map(|&engine| {
            let mut cfg = NewtonConfig::paper_default();
            cfg.channels = 2;
            cfg.ecc = ecc;
            cfg.parallel = ParallelPolicy::exact(threads);
            cfg.telemetry = Some(TelemetryConfig::default());
            cfg.engine = engine;
            NewtonSystem::new(cfg).expect("system")
        })
        .collect();
    let loaded: Vec<LoadedMatrix> = systems
        .iter_mut()
        .map(|s| s.load_matrix(matrix, m, n).expect("load"))
        .collect();
    (systems, loaded)
}

/// Runs one vector through both systems of a pair and asserts every
/// surface agrees modulo the schedule-cache counters; returns the
/// production run for counter assertions.
fn assert_engines_identical(
    systems: &mut [NewtonSystem],
    loaded: &[LoadedMatrix],
    vector: &[Bf16],
    what: &str,
) -> SystemRun {
    let runs: Vec<SystemRun> = systems
        .iter_mut()
        .zip(loaded)
        .map(|(s, l)| s.run_resident(l, vector).expect("resident run"))
        .collect();
    let (oracle, production) = (&runs[0], &runs[1]);
    let bits = |r: &SystemRun| r.output.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(oracle), bits(production), "{what}: output bits");
    assert_eq!(oracle.cycles, production.cycles, "{what}: cycles");
    assert_eq!(
        oracle.stats.sans_schedule_cache(),
        production.stats.sans_schedule_cache(),
        "{what}: stats"
    );
    assert_eq!(
        (oracle.stats.schedule_hits, oracle.stats.replayed_commands),
        (0, 0),
        "{what}: the oracle must never replay"
    );
    for (a, b) in oracle
        .channel_summaries
        .iter()
        .zip(&production.channel_summaries)
    {
        let mut a = a.clone();
        let mut b = b.clone();
        a.telemetry = a.telemetry.map(|t| t.sans_schedule_cache());
        b.telemetry = b.telemetry.map(|t| t.sans_schedule_cache());
        assert_eq!(a, b, "{what}: channel summaries");
    }
    runs.into_iter().nth(1).expect("two runs")
}

#[test]
fn replay_invalidation_edges_stay_live_and_byte_identical() {
    use newton_workloads::DecodeStreamSpec;

    let spec = DecodeStreamSpec::new(32, 512, 8, 41);
    let matrix = spec.matrix();
    for threads in [1usize, 2, 8] {
        let (mut systems, loaded) = engine_pair(true, threads, 32, 512, &matrix);
        let what = format!("threads {threads}");

        // Warm: capture, then hit.
        assert_engines_identical(&mut systems, &loaded, &spec.token_input(0), &what);
        let run = assert_engines_identical(&mut systems, &loaded, &spec.token_input(1), &what);
        assert_eq!(run.stats.schedule_hits, 2, "{what}: steady stream hits");

        // Weight rewrite mid-stream (correctable single-bit flip on
        // channel 0, applied identically to both systems): the next
        // token must fall back to a cold drain, stay byte-identical,
        // and report the invalidation.
        for sys in &mut systems {
            sys.channels_mut()[0]
                .channel_mut()
                .storage_mut()
                .flip_bit(1, 0, 3)
                .expect("flip");
        }
        let run = assert_engines_identical(&mut systems, &loaded, &spec.token_input(2), &what);
        assert_eq!(run.stats.schedule_invalidations, 1, "{what}: weight write");
        assert_eq!(run.stats.schedule_hits, 1, "{what}: untouched channel hits");
        assert!(run.stats.ecc_corrected > 0, "{what}: cold drain corrects");

        // The dirty drain must not have captured; the next clean one
        // does, and the stream returns to full hits.
        let run = assert_engines_identical(&mut systems, &loaded, &spec.token_input(3), &what);
        assert_eq!(run.stats.schedule_misses, 1, "{what}: re-capture drain");
        let run = assert_engines_identical(&mut systems, &loaded, &spec.token_input(4), &what);
        assert_eq!(run.stats.schedule_hits, 2, "{what}: recovered");

        // Engine flip mid-stream: on the reference engine the production
        // system bypasses (a miss, nothing dropped, nothing replayed);
        // flipped back, the kept entries hit at once.
        systems[1].set_timing_engine(TimingEngine::Reference);
        let run = assert_engines_identical(&mut systems, &loaded, &spec.token_input(5), &what);
        assert_eq!(run.stats.schedule_hits, 0, "{what}: flipped to the oracle");
        assert_eq!(
            run.stats.replayed_commands, 0,
            "{what}: flipped to the oracle"
        );
        assert_eq!(run.stats.schedule_misses, 2, "{what}: a bypass is a miss");
        assert_eq!(
            run.stats.schedule_invalidations, 0,
            "{what}: a bypass keeps"
        );
        assert_eq!(loaded[1].compiled_channels(), 2, "{what}: entries kept");
        systems[1].set_timing_engine(TimingEngine::EventSkipping);
        let run = assert_engines_identical(&mut systems, &loaded, &spec.token_input(6), &what);
        assert_eq!(
            run.stats.schedule_hits, 2,
            "{what}: hits after flipping back"
        );
        assert_eq!(
            run.stats.schedule_invalidations, 0,
            "{what}: nothing dropped"
        );
    }

    // ECC-off toggle (a construction-time config change): a fresh pair
    // without ECC must agree the same way, including through a raw
    // mid-stream row rewrite (no check words to stay consistent with).
    let (mut systems, loaded) = engine_pair(false, 1, 32, 512, &matrix);
    assert_engines_identical(&mut systems, &loaded, &spec.token_input(0), "ecc off");
    let run = assert_engines_identical(&mut systems, &loaded, &spec.token_input(1), "ecc off");
    assert_eq!(run.stats.schedule_hits, 2, "ecc off: hits");
    let row_bytes = systems[0].config().row_elems() * 2;
    let data: Vec<u8> = (0..row_bytes).map(|i| (i as u8).wrapping_mul(7)).collect();
    for sys in &mut systems {
        sys.channels_mut()[0]
            .channel_mut()
            .storage_mut()
            .write_row(0, 0, &data)
            .expect("rewrite");
    }
    let run = assert_engines_identical(&mut systems, &loaded, &spec.token_input(2), "ecc off");
    assert_eq!(run.stats.schedule_invalidations, 1, "ecc off: row rewrite");
}

#[test]
fn replay_stays_armed_under_audit_and_conventional_traffic() {
    use newton_serve::{ChaosPlan, ConventionalTraffic, Server, TrafficConfig};

    // Audit log attached: nothing changes. The event-skipping side
    // misses, captures and then hits; the oracle never does; and the
    // audit sees the same command history on both — the production log
    // holds folded trains and prescrubbed activations where the oracle's
    // holds single events, and they expand to the same sequence.
    let (m, n) = (32, 512);
    let matrix = generator::matrix(MvShape::new(m, n), 43);
    let vector = generator::vector(n, 43);
    let (mut systems, loaded) = engine_pair(true, 1, m, n, &matrix);
    for sys in &mut systems {
        for ch in sys.channels_mut() {
            ch.channel_mut().enable_audit();
        }
    }
    let run = assert_engines_identical(&mut systems, &loaded, &vector, "audit, cold");
    assert_eq!(run.stats.schedule_misses, 2, "first audited run captures");
    let run = assert_engines_identical(&mut systems, &loaded, &vector, "audit, warm");
    assert_eq!(
        run.stats.schedule_hits, 2,
        "an audit log does not disarm replay"
    );
    let audit_of = |s: &NewtonSystem| -> Vec<Vec<newton_dram::audit::AuditEvent>> {
        s.channels()
            .iter()
            .map(|c| {
                let audit = c.channel().audit().expect("audit on");
                let events: Vec<_> = audit.events().collect();
                assert_eq!(events.len(), audit.len(), "len counts expanded events");
                c.validate_audit().expect("audit is clean");
                events
            })
            .collect()
    };
    let (oracle_log, production_log) = (audit_of(&systems[0]), audit_of(&systems[1]));
    assert!(
        oracle_log.iter().all(|log| !log.is_empty()),
        "audit must record"
    );
    assert_eq!(oracle_log, production_log, "audit event streams must agree");

    // Conventional-DRAM traffic interleaving at the serving layer: the
    // controller advances clocks between AiM batches; replay's per-train
    // first-command scans absorb that, so the cache stays hot and the
    // reports agree byte-for-byte.
    let run_conv = |engine: TimingEngine| {
        let mut cfg = NewtonConfig::paper_default();
        cfg.channels = 2;
        cfg.ecc = true;
        cfg.parallel = ParallelPolicy::exact(1);
        cfg.telemetry = Some(TelemetryConfig::default());
        cfg.engine = engine;
        let matrix = generator::matrix(MvShape::new(m, n), 47);
        let mut server = Server::new(cfg, matrix, m, n, 3, 49).expect("server");
        let mut traffic = TrafficConfig::poisson(0.05, 24, 51);
        traffic.conventional = Some(ConventionalTraffic {
            interval_ns: 4_000.0,
            burst_cycles: 64,
        });
        server.serve(&traffic, &ChaosPlan::none()).expect("serves")
    };
    let oracle = run_conv(TimingEngine::Reference);
    let production = run_conv(TimingEngine::EventSkipping);
    assert_eq!(
        oracle.sans_schedule_cache(),
        production.sans_schedule_cache(),
        "conventional-traffic reports"
    );
    assert!(
        production.conventional_bursts > 0,
        "cell must interleave bursts"
    );
    assert!(
        production.schedule_hits > 0,
        "replay stays hot across bursts"
    );
    assert_eq!(oracle.schedule_hits, 0, "the oracle never replays");
}

// ---------------------------------------------------------------------
// Trace-driven ISA frontend (PR 10): a Table II layer lowered to `.aim`
// text, parsed back, and physically replayed must be byte-identical to
// the API-driven `run_mv` path — outputs, cycles, AiM stats, per-channel
// summaries, and merged telemetry — across both timing engines and pool
// widths {1, 2, 8}.
// ---------------------------------------------------------------------

#[test]
fn lowered_bert_trace_is_byte_identical_across_engines_and_widths() {
    use newton_isa::{generate, harness, mv, Program};

    let b = Benchmark::BertS1;
    let shape = b.shape();
    let mut base = NewtonConfig::paper_default();
    base.channels = 8;

    // Lower once, round-trip through text once: the trace under test is
    // the *parsed* artifact, not the in-memory original.
    let matrix = generator::matrix(shape, b.seed());
    let vector = generator::vector(shape.n, b.seed() + 1);
    let program = generate::lower_mv(&base, &matrix, shape.m, shape.n, &vector).expect("lower");
    let program = Program::parse(&program.render()).expect("round trip");
    let trace = mv::recognize(&program).expect("recognize");
    assert_eq!(trace.matrix, matrix, "trace must carry the exact matrix");
    assert_eq!(trace.vector, vector, "trace must carry the exact vector");

    for engine in [TimingEngine::Reference, TimingEngine::EventSkipping] {
        for threads in [1usize, 2, 8] {
            let what = format!("engine {engine:?} threads {threads}");
            let build = || {
                let mut cfg = base.clone();
                cfg.parallel = ParallelPolicy::exact(threads);
                cfg.telemetry = Some(TelemetryConfig::default());
                cfg.engine = engine;
                NewtonSystem::new(cfg).expect("system")
            };

            let mut sys_trace = build();
            let loaded = trace.apply_physical(&mut sys_trace).expect("replay");
            let run_trace = sys_trace
                .run_resident(&loaded, &trace.vector)
                .expect("trace run");

            let mut sys_api = build();
            let run_api = sys_api
                .run_mv(&matrix, shape.m, shape.n, &vector)
                .expect("api run");

            let bits = |r: &SystemRun| r.output.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            assert_eq!(bits(&run_trace), bits(&run_api), "{what}: output bits");
            assert_eq!(run_trace.cycles, run_api.cycles, "{what}: cycles");
            assert_eq!(run_trace.stats, run_api.stats, "{what}: AiM stats");
            assert_eq!(
                run_trace.channel_summaries, run_api.channel_summaries,
                "{what}: channel summaries"
            );
            assert_eq!(
                run_trace.merged_telemetry(),
                run_api.merged_telemetry(),
                "{what}: merged telemetry"
            );
            assert_eq!(
                harness::conformance_snapshot(&run_trace).render(),
                harness::conformance_snapshot(&run_api).render(),
                "{what}: conformance snapshot"
            );
        }
    }
}
