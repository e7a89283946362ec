//! End-to-end model execution across crates: chained layers on the
//! simulated device vs the chained f64 reference, plus the paper's
//! qualitative end-to-end effects (refresh interposition, AlexNet
//! Amdahl).

use newton_aim::baselines::TitanVModel;
use newton_aim::bench::to_activation_kind;
use newton_aim::core::config::NewtonConfig;
use newton_aim::core::system::{MvProblem, NewtonSystem};
use newton_aim::workloads::models::EndToEndModel;
use newton_aim::workloads::reference::{self, Activation, RefLayer};
use newton_aim::workloads::{generator, MvShape};

/// The Fig. 8 end-to-end model called `name`.
fn model(name: &str) -> EndToEndModel {
    EndToEndModel::all()
        .into_iter()
        .find(|m| m.name == name)
        .expect("a Fig. 8 model")
}

#[test]
fn three_layer_mlp_matches_chained_reference() {
    let shapes = [
        MvShape::new(48, 96),
        MvShape::new(24, 48),
        MvShape::new(8, 24),
    ];
    let acts = [Activation::Relu, Activation::Tanh, Activation::Identity];
    let norms = [true, false, false];
    let mats: Vec<_> = shapes
        .iter()
        .enumerate()
        .map(|(i, s)| generator::matrix(*s, 100 + i as u64))
        .collect();

    let problems: Vec<MvProblem<'_>> = (0..3)
        .map(|i| MvProblem {
            matrix: &mats[i],
            m: shapes[i].m,
            n: shapes[i].n,
            activation: to_activation_kind(acts[i]),
            batch_norm: norms[i],
            output_keep: None,
        })
        .collect();
    let ref_layers: Vec<RefLayer<'_>> = (0..3)
        .map(|i| RefLayer {
            matrix: &mats[i],
            m: shapes[i].m,
            n: shapes[i].n,
            activation: acts[i],
            batch_norm: norms[i],
            output_keep: None,
        })
        .collect();

    let input = generator::vector(96, 55);
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 3;
    let mut sys = NewtonSystem::new(cfg).unwrap();
    let run = sys.run_model(&problems, &input).unwrap();
    let expect = reference::run_model_f64(&ref_layers, &input);

    assert_eq!(run.output.len(), expect.len());
    for (i, (&got, want)) in run.output.iter().zip(&expect).enumerate() {
        // Chained bf16 error compounds; allow a loose but bounded window.
        assert!(
            (got as f64 - want).abs() <= want.abs().max(0.5) * 0.1,
            "output {i}: {got} vs {want}"
        );
    }
}

#[test]
fn dlrm_end_to_end_runs_and_sees_normalization_exposure() {
    let model = EndToEndModel::dlrm();
    let mats: Vec<_> = model
        .layers
        .iter()
        .map(|l| generator::matrix(l.shape, l.benchmark.seed()))
        .collect();
    let problems: Vec<MvProblem<'_>> = model
        .layers
        .iter()
        .zip(&mats)
        .map(|(l, w)| MvProblem {
            matrix: w,
            m: l.shape.m,
            n: l.shape.n,
            activation: to_activation_kind(l.activation),
            batch_norm: l.batch_norm,
            output_keep: l.output_keep,
        })
        .collect();
    let input = generator::vector(model.input_len(), 1);

    let run = |bn_ns: f64| {
        let mut cfg = NewtonConfig::paper_default();
        cfg.channels = 2;
        cfg.batch_norm_first_tile_ns = bn_ns;
        let mut sys = NewtonSystem::new(cfg).unwrap();
        sys.run_model(&problems, &input).unwrap()
    };
    let fast = run(0.0);
    let slow = run(500.0);
    // Six normalized layers, each exposing the first-tile latency.
    assert!(
        slow.cycles >= fast.cycles + 6 * 500,
        "normalization exposure missing: {} vs {}",
        slow.cycles,
        fast.cycles
    );
    // ReLU output is non-negative.
    assert!(fast.output.iter().all(|&x| x >= 0.0));
}

#[test]
fn gnmt_gate_folding_chains() {
    let model = model("GNMT");
    // Two layers are enough to prove the 4096 -> 2048 folding works on
    // the device (full model is exercised by the benches in release).
    let mats: Vec<_> = model.layers[..2]
        .iter()
        .map(|l| generator::matrix(l.shape, l.benchmark.seed()))
        .collect();
    let problems: Vec<MvProblem<'_>> = model.layers[..2]
        .iter()
        .zip(&mats)
        .map(|(l, w)| MvProblem {
            matrix: w,
            m: l.shape.m,
            n: l.shape.n,
            activation: to_activation_kind(l.activation),
            batch_norm: l.batch_norm,
            output_keep: l.output_keep,
        })
        .collect();
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 24;
    let mut sys = NewtonSystem::new(cfg).unwrap();
    let input = generator::vector(model.input_len(), 2);
    let run = sys.run_model(&problems, &input).unwrap();
    assert_eq!(run.output.len(), 2048, "gate folding keeps 2048 of 4096");
    // tanh clamps to [-1, 1].
    assert!(run.output.iter().all(|&x| (-1.0..=1.0).contains(&x)));
}

#[test]
fn alexnet_end_to_end_speedup_is_amdahl_limited() {
    // The conv-dominated fraction bounds the AlexNet end-to-end speedup
    // near 1/(0.85) ≈ 1.18 no matter how fast Newton runs the FC layers.
    let gpu = TitanVModel::new();
    let model = model("AlexNet");
    let gpu_total = gpu.model_time_ns(&model, 1);
    let non_fc = gpu.non_fc_time_ns(&model, 1);
    let newton_fc = 0.0; // infinitely fast FC
    let bound = gpu_total / (newton_fc + non_fc);
    assert!((1.17..1.19).contains(&bound), "Amdahl bound {bound}");
}

#[test]
fn chrome_trace_export_golden_roundtrip() {
    // A real (small) GEMV run, traced and exported for Perfetto: the JSON
    // must parse, and the bus track must carry one slice per recorded
    // command.
    use newton_aim::core::controller::NewtonChannel;
    use newton_aim::core::export::export_chrome_trace;
    use newton_aim::core::layout::MatrixMapping;
    use newton_aim::core::lut::ActivationKind;
    use newton_aim::core::tiling::{Schedule, ScheduleKind};
    use newton_aim::trace::JsonValue;

    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 1;
    let (m, n) = (16, 512);
    let matrix = generator::matrix(MvShape::new(m, n), 7);
    let vector = generator::vector(n, 7);
    let mapping = MatrixMapping::new(
        ScheduleKind::InterleavedFullReuse.layout(),
        m,
        n,
        cfg.dram.banks,
        cfg.row_elems(),
        0,
    )
    .unwrap();
    let schedule = Schedule::build(ScheduleKind::InterleavedFullReuse, &mapping);
    let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).unwrap();
    ch.enable_trace();
    ch.load_matrix(&mapping, &matrix).unwrap();
    ch.run_mv(&mapping, &schedule, &vector, false).unwrap();

    let recorded = ch.trace().entries().count();
    assert!(recorded > 0, "trace recorded nothing");
    let json = export_chrome_trace(&ch.trace(), ch.channel().timing(), cfg.dram.banks);
    let doc = JsonValue::parse(&json).expect("export must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    let bus_slices = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(JsonValue::as_str) == Some("X")
                && e.get("pid").and_then(JsonValue::as_f64) == Some(1.0)
        })
        .count();
    assert_eq!(bus_slices, recorded, "one bus slice per recorded command");
}
