//! Smoke tests for the experiment harness: the cheap experiments run in
//! debug builds and reproduce the paper's headline *shapes* (full-scale
//! numbers, and every shape assertion, come from the `reproduce` binary
//! in release).

use newton_aim::bench;
use newton_aim::core::config::{NewtonConfig, OptLevel};
use newton_aim::workloads::Benchmark;

#[test]
fn model_validation_refined_matches_simulator() {
    let v = bench::model_validation().expect("model validation");
    assert!((9.0..10.5).contains(&v.paper_model_x), "{v:?}");
    assert!(v.refined_model_x < v.paper_model_x);
    let rel = (v.refined_model_x - v.measured_x).abs() / v.measured_x;
    assert!(rel < 0.03, "refined model off by {:.1}%", rel * 100.0);
}

#[test]
fn fig07_trace_has_the_table_i_commands() {
    let trace = bench::fig07_command_trace_with(&NewtonConfig::paper_default()).expect("trace");
    for needle in ["GWRITE", "G_ACT", "COMP", "READRES"] {
        assert!(trace.contains(needle), "missing {needle} in:\n{trace}");
    }
}

#[test]
fn dlrm_layer_measurement_shape() {
    // DLRM is the cheapest benchmark; check the Fig. 8 orderings.
    let m =
        bench::measure_layer(&NewtonConfig::paper_default(), Benchmark::DlrmS1).expect("measure");
    assert!(m.numerics_ok, "numeric error out of bounds");
    assert!(m.newton_ns < m.ideal_ns, "Newton beats Ideal Non-PIM");
    assert!(m.ideal_ns < m.gpu_ns, "Ideal Non-PIM beats the GPU");
    // DLRM fits inside one refresh window (Sec. V-A).
    let refreshes: u64 = m.newton_summaries.iter().map(|s| s.stats.refreshes).sum();
    assert_eq!(refreshes, 0);
}

#[test]
fn nonopt_is_much_slower_but_correct() {
    let full = bench::measure_layer(&NewtonConfig::paper_default(), Benchmark::DlrmS1).unwrap();
    let non =
        bench::measure_layer(&NewtonConfig::at_level(OptLevel::NonOpt), Benchmark::DlrmS1).unwrap();
    assert!(non.numerics_ok);
    assert!(
        non.newton_ns > 5.0 * full.newton_ns,
        "non-opt {} vs full {}",
        non.newton_ns,
        full.newton_ns
    );
}

#[test]
fn power_model_yields_plausible_dlrm_ratio() {
    use newton_aim::model::power::{ActivityCounts, PowerModel};
    let m = bench::measure_layer(&NewtonConfig::paper_default(), Benchmark::DlrmS1).unwrap();
    let newton = ActivityCounts::from_aim_summaries(&m.newton_summaries);
    let conventional =
        ActivityCounts::from_conventional_summaries(std::slice::from_ref(&m.ideal_summary));
    let r = PowerModel::new().normalized(&newton, &conventional);
    assert!((1.0..4.2).contains(&r), "normalized power {r}");
}

#[test]
fn batch_scaling_directions() {
    use newton_aim::baselines::{IdealNonPim, TitanVModel};
    let cfg = NewtonConfig::paper_default();
    let shape = Benchmark::DlrmS1.shape();
    let ideal = IdealNonPim::new(cfg.dram.clone(), cfg.channels);
    let gpu = TitanVModel::new();
    // Both baselines improve with batching; Newton would not.
    let i1 = ideal.per_inference_ns(shape.m, shape.n, 1).unwrap();
    let i16 = ideal.per_inference_ns(shape.m, shape.n, 16).unwrap();
    assert!((i1 / i16 - 16.0).abs() < 1e-9);
    let g1 = gpu.per_inference_ns(shape, 1);
    let g64 = gpu.per_inference_ns(shape, 64);
    assert!(g64 < g1 / 10.0);
}

// ---------------------------------------------------------------------
// Seed-era triage (PR 10): audited the whole workspace for `#[ignore]`d
// or flaky carve-outs from the original seed — `grep -rn '#\[ignore'`
// over src/ and tests/ finds none, and the tier-1 suite reports
// "0 ignored" on every crate. Nothing is left to re-enable, so the
// audit's artifact is the trace-replay smoke below: the newest frontend
// (the `.aim` ISA layer) exercised end to end in the tier-1 run.
// ---------------------------------------------------------------------

#[test]
fn trace_frontend_replay_smoke() {
    use newton_aim::core::system::NewtonSystem;
    use newton_aim::isa::{generate, mv, Program};
    use newton_aim::workloads::{generator, MvShape};

    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 4;
    let (m, n) = (64, 128);
    let matrix = generator::matrix(MvShape::new(m, n), 3);
    let vector = generator::vector(n, 4);

    // Lower -> render -> parse -> recognize -> physical replay.
    let program = generate::lower_mv(&cfg, &matrix, m, n, &vector).expect("lower");
    let trace = mv::recognize(&Program::parse(&program.render()).expect("parse")).expect("mv");
    let mut sys = NewtonSystem::new(cfg.clone()).expect("system");
    let loaded = trace.apply_physical(&mut sys).expect("replay");
    let replayed = sys.run_resident(&loaded, &trace.vector).expect("run");

    let mut api = NewtonSystem::new(cfg).expect("system");
    let direct = api.run_mv(&matrix, m, n, &vector).expect("run");
    let bits = |o: &[f32]| o.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(&replayed.output), bits(&direct.output));
    assert_eq!(replayed.cycles, direct.cycles);
    assert_eq!(replayed.stats, direct.stats);
}

#[test]
fn campaign_and_serving_run_through_the_harness() {
    use newton_aim::bench::harness::{run_experiments, HarnessOptions};

    // Both sweeps assert their own guarantees (zero SDC with ECC on,
    // balanced admission, a bank retired yet serving completed); what is
    // pinned here are values the EXPERIMENTS.md tables quote.
    let reports = run_experiments(&HarnessOptions {
        filter: vec!["campaign".into(), "serving".into()],
        ..HarnessOptions::default()
    })
    .expect("sweeps");
    let [campaign, serving] = &reports[..] else {
        panic!("two reports, got {}", reports.len());
    };
    let scalar = |report: &newton_aim::bench::harness::ExperimentReport, key: &str| {
        report
            .snapshot
            .to_json()
            .get("scalars")
            .and_then(|scalars| scalars.get(key))
            .and_then(newton_aim::trace::JsonValue::as_f64)
            .unwrap_or_else(|| panic!("{}: no scalar {key}", report.snapshot.experiment()))
    };
    assert_eq!(campaign.snapshot.experiment(), "campaign");
    assert_eq!(scalar(campaign, "rate_1e-4/ecc_on/sdc"), 0.0);
    assert_eq!(scalar(campaign, "rate_1e-4/ecc_off/sdc"), 33.0);
    assert_eq!(serving.snapshot.experiment(), "serving");
    assert_eq!(scalar(serving, "degraded/stuck_ecc/completed"), 160.0);
    assert_eq!(scalar(serving, "degraded/stuck_ecc/offered"), 160.0);
    assert_eq!(
        scalar(serving, "degraded/stuck_ecc/recovery/retired_banks"),
        1.0
    );
    assert_eq!(scalar(serving, "poisson/no_fault/p99_ns"), 1942.0);
}
