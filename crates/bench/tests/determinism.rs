//! Width invariance: N-thread execution must be bit-exact against the
//! serial run at every observable surface — outputs, cycle counts, AiM
//! stats, per-channel DRAM summaries, command traces, telemetry, fault
//! campaigns and rendered snapshot JSON — including across random
//! interleavings of storage writes and COMPs. Whether production agrees
//! with the oracle is `tests/oracle_vs_production.rs`'s question.
//!
//! Every system here pins its pool width with [`ParallelPolicy::exact`],
//! which ignores `NEWTON_THREADS`, so the suite passes identically under
//! `NEWTON_THREADS=1` (the CI serial leg) and the default environment.

use newton_bf16::Bf16;
use newton_core::config::NewtonConfig;
use newton_core::parallel::ParallelPolicy;
use newton_core::system::{NewtonSystem, SystemRun};
use newton_core::{RecoveryReport, TelemetryConfig};
use newton_dram::faults::{self, CampaignSpec, InjectedFault};
use newton_model::power::ActivityCounts;
use newton_trace::{EnergyModel, MetricsSnapshot, TimeSeries, WindowMetrics};
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
    const THREADS_ENV: &str = "NEWTON_THREADS";
    let old = std::env::var(THREADS_ENV).ok();
    std::env::set_var(THREADS_ENV, "3");
    // Environment requests are capped at the host's cores; only exact()
    // may oversubscribe.
    assert_eq!(ParallelPolicy::default().threads(), 3.min(host));
    // exact() pins the width regardless of the environment or the host.
    assert_eq!(ParallelPolicy::exact(2).threads(), 2);
    assert_eq!(ParallelPolicy::exact(host * 4).threads(), host * 4);
    std::env::set_var(THREADS_ENV, "1");
    assert_eq!(ParallelPolicy::default().threads(), 1);
    // Unparseable or zero values fall back to auto-detection.
    for value in ["0", "lots"] {
        std::env::set_var(THREADS_ENV, value);
        assert_eq!(ParallelPolicy::default().threads(), host, "{value:?}");
    }
    match old {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
}

/// Every channel's telemetry series, in channel order.
fn telemetry(run: &SystemRun) -> Vec<TimeSeries> {
    run.channel_summaries
        .iter()
        .map(|s| s.telemetry.clone().expect("telemetry enabled"))
        .collect()
}

/// `field` of every channel's telemetry totals, summed.
fn total(series: &[TimeSeries], field: fn(&WindowMetrics) -> u64) -> u64 {
    series.iter().map(|s| field(&s.totals())).sum()
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
/// every channel's time series (windows, counts, energy) and the host
/// phases' names and call counts (wall nanoseconds are host-dependent and
/// excluded by design).
type TelemetryObservation = (Vec<TimeSeries>, u64, u64, Vec<(&'static str, u64)>);

fn telemetry_observation(threads: usize) -> TelemetryObservation {
    let b = Benchmark::DlrmS1;
    let shape = b.shape();
    let matrix = generator::matrix(shape, b.seed());
    let vector = generator::vector(shape.n, b.seed());
    let mut sys = telemetry_system(threads);
    let run = sys
        .run_mv(&matrix, shape.m, shape.n, &vector)
        .expect("telemetry run");
    let series = telemetry(&run);
    let phases = sys
        .host_phases()
        .phases()
        .iter()
        .map(|p| (p.name, p.calls))
        .collect();
    let energy = total(&series, |t| t.energy_milli_pj);
    let refresh = total(&series, |t| t.refresh_milli_pj);
    (series, energy, refresh, phases)
}

#[test]
fn telemetry_is_bit_exact_across_thread_counts() {
    let serial = telemetry_observation(1);
    assert!(
        serial.0.iter().all(|s| !s.windows().is_empty()),
        "every series must have windows"
    );
    assert!(serial.1 > 0, "a COMP workload must attribute energy");
    for threads in [2, 8] {
        let par = telemetry_observation(threads);
        assert_eq!(par.0, serial.0, "time series, threads={threads}");
        assert_eq!(par.1, serial.1, "energy totals, threads={threads}");
        assert_eq!(par.2, serial.2, "refresh energy, threads={threads}");
        assert_eq!(par.3, serial.3, "host-phase calls, threads={threads}");
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
        let series = telemetry(&run);
        let count = |field: fn(&WindowMetrics) -> u64| total(&series, field) as f64;
        let streamed_pj = count(|t| t.energy_milli_pj) / 1000.0;
        // The Fig. 13 model's dynamic components, refresh excluded.
        let model_pj = model.e_act * count(|t| t.activates)
            + model.e_array * count(|t| t.array_accesses)
            + model.e_mac * count(|t| t.comp_ops)
            + model.e_phy * (count(|t| t.bus_bytes) / model.col_bytes);
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
}
