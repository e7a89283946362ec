//! One function per evaluated table/figure.
//!
//! Experiment index (see DESIGN.md §4):
//!
//! | paper | function |
//! |-------|----------|
//! | Fig. 7 | [`fig07_command_trace_with`] |
//! | Fig. 8 (layers) | `fig08_layers_with` |
//! | Fig. 8 (end-to-end) | `fig08_end_to_end_with` |
//! | Fig. 9 | `fig09_ladder_with` |
//! | Fig. 10 | `fig10_bank_sweep_with` |
//! | Fig. 11 | `fig11_batch_vs_ideal` |
//! | Fig. 12 | `fig12_batch_vs_gpu` |
//! | Fig. 13 | `fig13_power` |
//! | Sec. III-F / Table III | `model_validation_with` |
//! | Sec. III-C ablations | `ablation_layout_with`, `ablation_latches_with` |
//! | Sec. III-E / V-C extensions | `ext_dram_families_with`, `ext_channel_sweep_with` |
//! | Fault campaign (BER x ECC) | `campaign_with` |
//! | Serving chaos sweep | `serving_with` |
//!
//! Every `_with` function derives its systems from the base
//! [`NewtonConfig`] the harness hands down and spreads its independent
//! simulations over an explicit worker count; results are bit-identical
//! for every count.

use newton_baselines::{IdealNonPim, TitanVModel};
use newton_bf16::Bf16;
use newton_core::config::{NewtonConfig, OptLevel, TelemetryConfig};
use newton_core::lut::ActivationKind;
use newton_core::parallel;
use newton_core::system::{LoadedMatrix, MvProblem, NewtonSystem};
use newton_core::{AimError, RecoveryReport};
use newton_dram::faults::{self, mix64, CampaignSpec};
use newton_dram::stats::RunSummary;
use newton_model::power::ActivityCounts;
use newton_model::{PerfModel, PowerModel};
use newton_serve::{
    ChaosAction, ChaosEvent, ChaosPlan, ServeError, ServeReport, Server, TrafficConfig,
};
use newton_workloads::arrivals::ArrivalPattern;
use newton_workloads::models::EndToEndModel;
use newton_workloads::reference::{self, Activation};
use newton_workloads::{generator, Benchmark};
use std::rc::Rc;

use crate::report::geomean;

/// Runs `f(0..n)` on up to `threads` workers and collects index-ordered
/// results. Merging by index (never completion order) plus surfacing the
/// lowest-index error makes the outcome identical to a serial loop for
/// every thread count — the determinism contract every experiment here
/// relies on.
fn try_par_indexed<T: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(usize) -> Result<T, AimError> + Sync,
) -> Result<Vec<T>, AimError> {
    parallel::par_map_indexed(n, threads, f)
        .into_iter()
        .collect()
}

/// Converts a workloads activation to the core device's kind.
#[must_use]
pub fn to_activation_kind(a: Activation) -> ActivationKind {
    match a {
        Activation::Identity => ActivationKind::Identity,
        Activation::Relu => ActivationKind::Relu,
        Activation::Sigmoid => ActivationKind::Sigmoid,
        Activation::Tanh => ActivationKind::Tanh,
    }
}

/// One fully measured Table II layer.
#[derive(Debug, Clone)]
pub struct LayerMeasurement {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Newton single-inference time (measured, cycle simulator), ns.
    pub newton_ns: f64,
    /// Ideal Non-PIM time (measured, cycle simulator), ns.
    pub ideal_ns: f64,
    /// Titan-V-like GPU time (calibrated model), ns.
    pub gpu_ns: f64,
    /// Largest |simulated − reference| over the output vector.
    pub(crate) max_numeric_error: f64,
    /// Whether the numeric error stayed within the bf16 error envelope.
    pub numerics_ok: bool,
    /// Per-channel DRAM summaries from the Newton run (power model input).
    pub newton_summaries: Vec<RunSummary>,
    /// DRAM summary of the Ideal Non-PIM (conventional) stream.
    pub ideal_summary: RunSummary,
}

/// Measures one Table II layer on a Newton configuration.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn measure_layer(cfg: &NewtonConfig, b: Benchmark) -> Result<LayerMeasurement, AimError> {
    let shape = b.shape();
    let matrix = generator::matrix(shape, b.seed());
    let vector = generator::vector(shape.n, b.seed());

    let mut sys = NewtonSystem::new(cfg.clone())?;
    let run = sys.run_mv(&matrix, shape.m, shape.n, &vector)?;

    // Numerical verification against the f64 reference.
    let expect = reference::mv_f64(&matrix, shape.m, shape.n, &vector);
    let mut max_err = 0.0f64;
    let mut ok = true;
    for (got, want) in run.output.iter().zip(&expect) {
        let err = (*got as f64 - want).abs();
        max_err = max_err.max(err);
        let bound = newton_bf16::reduce::dot_error_bound(shape.n, 16, want.abs().max(1.0));
        ok &= err <= bound;
    }

    let ideal = IdealNonPim::new(cfg.dram.clone(), cfg.channels);
    let (ideal_out, ideal_summary) = ideal.run_layer_detailed(shape.m, shape.n)?;
    let gpu = TitanVModel::new();

    Ok(LayerMeasurement {
        benchmark: b,
        newton_ns: run.elapsed_ns,
        ideal_ns: ideal_out.time_ns,
        gpu_ns: gpu.mv_time_ns(shape, 1),
        max_numeric_error: max_err,
        numerics_ok: ok,
        newton_summaries: run.channel_summaries.clone(),
        ideal_summary,
    })
}

/// Measures all Table II layers under `cfg`. Results are bit-identical
/// for every `threads` value (layers are independent simulations merged
/// in benchmark order).
///
/// # Errors
///
/// Propagates simulator errors.
pub(crate) fn measure_all_layers_with(
    cfg: &NewtonConfig,
    threads: usize,
) -> Result<Vec<LayerMeasurement>, AimError> {
    let all = Benchmark::all();
    try_par_indexed(all.len(), threads, |i| measure_layer(cfg, all[i]))
}

// ----------------------------------------------------------------------
// Figure 8
// ----------------------------------------------------------------------

/// One bar group of Fig. 8: speedups over the GPU.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Workload name.
    pub name: String,
    /// Full Newton speedup over the GPU.
    pub(crate) newton_x: f64,
    /// Ideal Non-PIM speedup over the GPU.
    pub(crate) ideal_x: f64,
    /// Non-opt-Newton speedup over the GPU.
    pub(crate) nonopt_x: f64,
}

/// Fig. 8, left section: per-layer speedups over the Titan-V-like GPU
/// for Newton, Non-opt-Newton and Ideal Non-PIM. The final row is the
/// geometric mean.
///
/// Takes pre-computed full-Newton measurements (from
/// [`measure_all_layers_with`]) so the expensive cycle simulations are
/// shared with the other figures; the Non-opt runs (the only simulations
/// this figure adds) derive from `base`, are measured in parallel and
/// merged in layer order.
///
/// # Errors
///
/// Propagates simulator errors.
pub(crate) fn fig08_layers_with(
    base: &NewtonConfig,
    layers: &[LayerMeasurement],
    threads: usize,
) -> Result<Vec<SpeedupRow>, AimError> {
    let mut nonopt = base.clone();
    nonopt.opts = OptLevel::NonOpt.flags();
    let nons = try_par_indexed(layers.len(), threads, |i| {
        measure_layer(&nonopt, layers[i].benchmark)
    })?;
    let mut rows = Vec::new();
    let (mut sn, mut si, mut so) = (Vec::new(), Vec::new(), Vec::new());
    for (m, non) in layers.iter().zip(&nons) {
        let row = SpeedupRow {
            name: m.benchmark.name().to_string(),
            newton_x: m.gpu_ns / m.newton_ns,
            ideal_x: m.gpu_ns / m.ideal_ns,
            nonopt_x: non.gpu_ns / non.newton_ns,
        };
        sn.push(row.newton_x);
        si.push(row.ideal_x);
        so.push(row.nonopt_x);
        rows.push(row);
    }
    rows.push(SpeedupRow {
        name: "geomean".into(),
        newton_x: geomean(&sn),
        ideal_x: geomean(&si),
        nonopt_x: geomean(&so),
    });
    Ok(rows)
}

/// One prepared layer: the weight matrix plus the `MvProblem` fields
/// (m, n, activation, batch-norm, output-keep).
type LayerProblem = (Rc<Vec<Bf16>>, usize, usize, Activation, bool, Option<usize>);

/// Builds the `MvProblem` list (and matrices) for an end-to-end model.
/// Layers of one benchmark share one weight matrix (the timing is
/// identical; host memory stays bounded): BERT's 144 layers hold three.
fn model_problems(model: &EndToEndModel) -> Vec<LayerProblem> {
    let mut shared: Vec<(Benchmark, Rc<Vec<Bf16>>)> = Vec::new();
    model
        .layers
        .iter()
        .map(|l| {
            let matrix = match shared.iter().find(|(b, _)| *b == l.benchmark) {
                Some((_, m)) => Rc::clone(m),
                None => {
                    let m = Rc::new(generator::matrix(l.shape, l.benchmark.seed()));
                    shared.push((l.benchmark, Rc::clone(&m)));
                    m
                }
            };
            (
                matrix,
                l.shape.m,
                l.shape.n,
                l.activation,
                l.batch_norm,
                l.output_keep,
            )
        })
        .collect()
}

/// Runs one end-to-end model on Newton (measured, on `cfg`) and composes
/// the GPU/Ideal comparisons, applying Amdahl's law for the non-FC
/// fraction.
///
/// `nonopt_layer_times` maps Table II benchmarks to their measured
/// Non-opt-Newton layer times (running the 144-layer BERT at 48x command
/// traffic end-to-end is composed from per-layer measurements instead of
/// simulated, which is exact because layers are serialized anyway).
///
/// # Errors
///
/// Propagates simulator errors.
fn measure_end_to_end(
    cfg: &NewtonConfig,
    model: &EndToEndModel,
    nonopt_layer_times: &[(Benchmark, f64)],
) -> Result<SpeedupRow, AimError> {
    let mut sys = NewtonSystem::new(cfg.clone())?;
    let problems = model_problems(model);
    let mv: Vec<MvProblem<'_>> = problems
        .iter()
        .map(|(w, m, n, act, bn, keep)| MvProblem {
            matrix: w,
            m: *m,
            n: *n,
            activation: to_activation_kind(*act),
            batch_norm: *bn,
            output_keep: *keep,
        })
        .collect();
    let input = generator::vector(model.input_len(), 0xE2E);
    let run = sys.run_model(&mv, &input)?;

    let gpu = TitanVModel::new();
    let gpu_total = gpu.model_time_ns(model, 1);
    let non_fc = gpu.non_fc_time_ns(model, 1);

    // Newton executes the FC layers; the non-FC portion still runs on the
    // host GPU (Sec. IV: AlexNet's conv layers are compute-bound and
    // unsuited for any PIM).
    let newton_total = run.elapsed_ns + non_fc;

    // Ideal Non-PIM end-to-end: stream every layer's matrix.
    let ideal = IdealNonPim::new(cfg.dram.clone(), cfg.channels);
    let shapes: Vec<(usize, usize)> = model
        .layers
        .iter()
        .map(|l| (l.shape.m, l.shape.n))
        .collect();
    let ideal_total = ideal.run_model(&shapes)?.time_ns + non_fc;

    // Non-opt Newton end-to-end: serialized per-layer times.
    let nonopt_fc: f64 = model
        .layers
        .iter()
        .map(|l| {
            nonopt_layer_times
                .iter()
                .find(|(b, _)| *b == l.benchmark)
                .map_or(0.0, |(_, t)| *t)
        })
        .sum();
    let nonopt_total = nonopt_fc + non_fc;

    Ok(SpeedupRow {
        name: model.name.to_string(),
        newton_x: gpu_total / newton_total,
        ideal_x: gpu_total / ideal_total,
        nonopt_x: gpu_total / nonopt_total,
    })
}

/// Fig. 8, right section: end-to-end speedups for GNMT, BERT, AlexNet and
/// DLRM, plus the overall mean and the key-target (BERT/GNMT/DLRM) mean.
///
/// The Non-opt layer times and the four end-to-end models are measured
/// in parallel and merged in their canonical order.
///
/// # Errors
///
/// Propagates simulator errors.
pub(crate) fn fig08_end_to_end_with(
    base: &NewtonConfig,
    threads: usize,
) -> Result<Vec<SpeedupRow>, AimError> {
    let mut nonopt = base.clone();
    nonopt.opts = OptLevel::NonOpt.flags();
    let all = Benchmark::all();
    let nonopt_times: Vec<(Benchmark, f64)> = try_par_indexed(all.len(), threads, |i| {
        measure_layer(&nonopt, all[i]).map(|m| (all[i], m.newton_ns))
    })?;

    let models = EndToEndModel::all();
    let measured = try_par_indexed(models.len(), threads, |i| {
        measure_end_to_end(base, &models[i], &nonopt_times)
    })?;
    let mut rows = Vec::new();
    let (mut all_n, mut all_i, mut all_o, mut key_n) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (model, row) in models.iter().zip(measured) {
        all_n.push(row.newton_x);
        all_i.push(row.ideal_x);
        all_o.push(row.nonopt_x);
        if model.name != "AlexNet" {
            key_n.push(row.newton_x);
        }
        rows.push(row);
    }
    rows.push(SpeedupRow {
        name: "mean (all)".into(),
        newton_x: geomean(&all_n),
        ideal_x: geomean(&all_i),
        nonopt_x: geomean(&all_o),
    });
    rows.push(SpeedupRow {
        name: "mean (key targets)".into(),
        newton_x: geomean(&key_n),
        ideal_x: 0.0,
        nonopt_x: 0.0,
    });
    Ok(rows)
}

// ----------------------------------------------------------------------
// Figure 9
// ----------------------------------------------------------------------

/// One rung of the Fig. 9 optimization ladder.
#[derive(Debug, Clone)]
pub struct LadderRow {
    /// The cumulative optimization level.
    pub level: OptLevel,
    /// Geomean speedup over the GPU across the Table II layers.
    pub(crate) speedup_x: f64,
}

/// Fig. 9: isolating Newton's optimizations by progressively enabling
/// them (geomean over the Table II layers at each rung). All
/// `ladder-rung x layer` simulations run in parallel (48 independent
/// measurements) and fold into per-rung geomeans in ladder order.
///
/// # Errors
///
/// Propagates simulator errors.
pub(crate) fn fig09_ladder_with(
    base: &NewtonConfig,
    threads: usize,
) -> Result<Vec<LadderRow>, AimError> {
    let levels = OptLevel::ladder();
    let benches = Benchmark::all();
    let speedups = try_par_indexed(levels.len() * benches.len(), threads, |k| {
        let mut cfg = base.clone();
        cfg.opts = levels[k / benches.len()].flags();
        let m = measure_layer(&cfg, benches[k % benches.len()])?;
        Ok(m.gpu_ns / m.newton_ns)
    })?;
    Ok(levels
        .iter()
        .zip(speedups.chunks(benches.len()))
        .map(|(&level, per_layer)| LadderRow {
            level,
            speedup_x: geomean(per_layer),
        })
        .collect())
}

// ----------------------------------------------------------------------
// Figure 10
// ----------------------------------------------------------------------

/// One bank-count column of Fig. 10.
#[derive(Debug, Clone)]
pub struct BankSweepRow {
    /// Benchmark name (or "geomean").
    pub name: String,
    /// Speedup over the GPU at 8, 16 and 32 banks per channel.
    pub(crate) speedup_x: [f64; 3],
}

/// Fig. 10: sensitivity to the number of banks per channel (8/16/32).
/// All `bank-count x layer` simulations run in parallel and fold into
/// the sweep rows in the serial (bank-count outer, layer inner) order.
///
/// # Errors
///
/// Propagates simulator errors.
pub(crate) fn fig10_bank_sweep_with(
    base: &NewtonConfig,
    threads: usize,
) -> Result<Vec<BankSweepRow>, AimError> {
    let bank_counts = [8usize, 16, 32];
    let benches = Benchmark::all();
    let speedups = try_par_indexed(bank_counts.len() * benches.len(), threads, |idx| {
        let mut cfg = base.clone();
        cfg.dram = cfg.dram.with_banks(bank_counts[idx / benches.len()]);
        let m = measure_layer(&cfg, benches[idx % benches.len()])?;
        Ok(m.gpu_ns / m.newton_ns)
    })?;
    let mut per_bench: Vec<BankSweepRow> = benches
        .iter()
        .map(|b| BankSweepRow {
            name: b.name().to_string(),
            speedup_x: [0.0; 3],
        })
        .collect();
    let mut means = [Vec::new(), Vec::new(), Vec::new()];
    for (k, mean) in means.iter_mut().enumerate() {
        for (j, row) in per_bench.iter_mut().enumerate() {
            let s = speedups[k * benches.len() + j];
            row.speedup_x[k] = s;
            mean.push(s);
        }
    }
    per_bench.push(BankSweepRow {
        name: "geomean".into(),
        speedup_x: [geomean(&means[0]), geomean(&means[1]), geomean(&means[2])],
    });
    Ok(per_bench)
}

// ----------------------------------------------------------------------
// Figures 11 & 12
// ----------------------------------------------------------------------

/// The batch sizes both batch figures sweep.
pub(crate) const BATCH_SIZES: [usize; 6] = [1, 2, 4, 8, 16, 64];

/// One benchmark's batch sweep: performance normalized to the GPU at
/// batch 1 (higher is better), for Newton and a comparison architecture.
#[derive(Debug, Clone)]
pub struct BatchRow {
    /// Benchmark name.
    pub name: String,
    /// Newton normalized performance per batch size (constant in k —
    /// Newton cannot exploit batch reuse, Sec. V-D).
    pub newton: Vec<f64>,
    /// Comparison architecture normalized performance per batch size.
    pub other: Vec<f64>,
}

/// Fig. 11: batch-size sensitivity against Ideal Non-PIM.
///
/// # Errors
///
/// Propagates simulator errors.
pub(crate) fn fig11_batch_vs_ideal(layers: &[LayerMeasurement]) -> Result<Vec<BatchRow>, AimError> {
    let cfg = NewtonConfig::paper_default();
    let ideal = IdealNonPim::new(cfg.dram.clone(), cfg.channels);
    let mut rows = Vec::new();
    for m in layers {
        let shape = m.benchmark.shape();
        let newton: Vec<f64> = BATCH_SIZES.iter().map(|_| m.gpu_ns / m.newton_ns).collect();
        let other: Vec<f64> = BATCH_SIZES
            .iter()
            .map(|&k| Ok(m.gpu_ns / ideal.per_inference_ns(shape.m, shape.n, k)?))
            .collect::<Result<_, newton_dram::DramError>>()?;
        rows.push(BatchRow {
            name: m.benchmark.name().to_string(),
            newton,
            other,
        });
    }
    Ok(rows)
}

/// Fig. 12: batch-size sensitivity against the Titan-V-like GPU.
#[must_use]
pub(crate) fn fig12_batch_vs_gpu(layers: &[LayerMeasurement]) -> Vec<BatchRow> {
    let gpu = TitanVModel::new();
    layers
        .iter()
        .map(|m| {
            let shape = m.benchmark.shape();
            BatchRow {
                name: m.benchmark.name().to_string(),
                newton: BATCH_SIZES.iter().map(|_| m.gpu_ns / m.newton_ns).collect(),
                other: BATCH_SIZES
                    .iter()
                    .map(|&k| m.gpu_ns / gpu.per_inference_ns(shape, k))
                    .collect(),
            }
        })
        .collect()
}

// ----------------------------------------------------------------------
// Figure 13
// ----------------------------------------------------------------------

/// One bar of Fig. 13.
#[derive(Debug, Clone)]
pub struct PowerRow {
    /// Benchmark name (or "mean").
    pub name: String,
    /// Newton average power normalized to conventional DRAM at the same
    /// workload.
    pub(crate) normalized_power: f64,
}

/// Fig. 13: Newton's average power normalized to conventional DRAM.
#[must_use]
pub(crate) fn fig13_power(layers: &[LayerMeasurement]) -> Vec<PowerRow> {
    let model = PowerModel::new();
    let mut rows = Vec::new();
    let mut vals = Vec::new();
    for m in layers {
        let newton = ActivityCounts::from_aim_summaries(&m.newton_summaries);
        let conventional =
            ActivityCounts::from_conventional_summaries(std::slice::from_ref(&m.ideal_summary));
        let r = model.normalized(&newton, &conventional);
        vals.push(r);
        rows.push(PowerRow {
            name: m.benchmark.name().to_string(),
            normalized_power: r,
        });
    }
    rows.push(PowerRow {
        name: "mean".into(),
        normalized_power: vals.iter().sum::<f64>() / vals.len().max(1) as f64,
    });
    rows
}

/// One row of the streamed-vs-postprocessed energy validation: the
/// windowed per-command energy accumulated at issue time against the same
/// quantity recomputed from the end-of-run counters through the Fig. 13
/// model.
#[derive(Debug, Clone)]
pub struct EnergyValidationRow {
    /// Benchmark name.
    pub name: String,
    /// Streamed dynamic energy (sum of per-command milli-pJ attributions
    /// over every window and channel), pJ.
    pub(crate) streamed_pj: f64,
    /// The same dynamic energy recomputed from the postprocessed activity
    /// counts with the Fig. 13 coefficients, pJ.
    pub(crate) model_pj: f64,
    /// `|streamed - model| / model` (0 when the model energy is 0).
    pub(crate) divergence: f64,
    /// Whether the streamed event *counts* equal the postprocessed
    /// counters bit-for-bit (the stronger guarantee behind the pJ
    /// comparison; the pJ themselves differ only by per-command
    /// milli-pJ rounding).
    pub(crate) counts_bit_exact: bool,
}

/// Validates the streamed per-command energy attribution against the
/// postprocessed Fig. 13 model for every measured layer. Returns `None`
/// when the measurements carry no telemetry (the harness ran without
/// `--telemetry`).
#[must_use]
pub(crate) fn fig13_energy_validation(
    layers: &[LayerMeasurement],
) -> Option<Vec<EnergyValidationRow>> {
    let model = newton_trace::EnergyModel::new();
    let mut rows = Vec::new();
    for m in layers {
        let streamed_counts = ActivityCounts::from_aim_telemetry(&m.newton_summaries)?;
        let post_counts = ActivityCounts::from_aim_summaries(&m.newton_summaries);
        let streamed_pj = m
            .newton_summaries
            .iter()
            .filter_map(|s| s.telemetry.as_ref())
            .map(|t| t.totals().energy_milli_pj)
            .sum::<u64>() as f64
            / 1000.0;
        let model_pj = model.e_act * post_counts.activates
            + model.e_array * post_counts.array_accesses
            + model.e_mac * post_counts.mac_ops
            + model.e_phy * post_counts.phy_bytes / model.col_bytes;
        let divergence = if model_pj == 0.0 {
            0.0
        } else {
            (streamed_pj - model_pj).abs() / model_pj
        };
        rows.push(EnergyValidationRow {
            name: m.benchmark.name().to_string(),
            streamed_pj,
            model_pj,
            divergence,
            counts_bit_exact: streamed_counts == post_counts,
        });
    }
    Some(rows)
}

// ----------------------------------------------------------------------
// Sec. III-F model validation (Table III configuration)
// ----------------------------------------------------------------------

/// Analytical-model-vs-simulator comparison (Sec. III-F / Sec. V-A).
#[derive(Debug, Clone, Copy)]
pub struct ModelValidation {
    /// Paper-formula predicted speedup over Ideal Non-PIM.
    pub paper_model_x: f64,
    /// Refined-formula prediction (adds the precharge turnaround the
    /// cycle simulator faithfully exposes).
    pub refined_model_x: f64,
    /// Measured speedup over Ideal Non-PIM (cycle simulator, large
    /// single-chunk layer, refresh disabled to match the model's scope).
    pub measured_x: f64,
}

/// Validates the Sec. III-F analytical model against the simulator.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn model_validation() -> Result<ModelValidation, AimError> {
    model_validation_with(&NewtonConfig::paper_default())
}

/// [`model_validation`] with the simulator side derived from `base`.
///
/// # Errors
///
/// Propagates simulator errors.
pub(crate) fn model_validation_with(base: &NewtonConfig) -> Result<ModelValidation, AimError> {
    let model = PerfModel::paper_default();

    // A large single-chunk matrix on one channel isolates the steady-state
    // row-set period the model describes.
    let mut cfg = base.clone();
    cfg.channels = 1;
    let (m, n) = (16 * 64, 512);
    let matrix = generator::matrix(newton_workloads::MvShape::new(m, n), 1);
    let vector = generator::vector(n, 1);

    let mut sys = NewtonSystem::new(cfg.clone())?;
    for ch in sys.channels_mut() {
        ch.channel_mut().disable_refresh();
    }
    let run = sys.run_mv(&matrix, m, n, &vector)?;

    // Ideal bound for the same data: the analytic col*tCCD per row (the
    // model's denominator), measured refresh-free.
    let rows = (m * n * 2) / 1024;
    let ideal_ns = rows as f64 * cfg.dram.cols_per_row as f64 * cfg.dram.timing.t_ccd_ns;

    Ok(ModelValidation {
        paper_model_x: model.speedup_vs_ideal(),
        refined_model_x: model.speedup_vs_ideal_refined(),
        measured_x: ideal_ns / run.elapsed_ns,
    })
}

// ----------------------------------------------------------------------
// Fig. 7 command trace
// ----------------------------------------------------------------------

/// Renders the Fig. 7-style command timeline for one DRAM row across all
/// banks (GWRITEs, 4 G_ACTs, 32 COMPs, READRES) on a channel derived
/// from `base`.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig07_command_trace_with(base: &NewtonConfig) -> Result<String, AimError> {
    let mut cfg = base.clone();
    cfg.channels = 1;
    let (m, n) = (16, 512);
    let matrix = generator::matrix(newton_workloads::MvShape::new(m, n), 7);
    let vector = generator::vector(n, 7);

    use newton_core::controller::NewtonChannel;
    use newton_core::layout::MatrixMapping;
    use newton_core::tiling::{Schedule, ScheduleKind};
    let mapping = MatrixMapping::new(
        ScheduleKind::InterleavedFullReuse.layout(),
        m,
        n,
        cfg.dram.banks,
        cfg.row_elems(),
        0,
    )?;
    let schedule = Schedule::build(ScheduleKind::InterleavedFullReuse, &mapping);
    let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity)?;
    ch.enable_trace();
    ch.load_matrix(&mapping, &matrix)?;
    ch.run_mv(&mapping, &schedule, &vector, false)?;
    Ok(ch.trace().render())
}

// ----------------------------------------------------------------------
// Ablations (Sec. III-C design alternatives)
// ----------------------------------------------------------------------

/// One ablation comparison row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Benchmark name.
    pub name: String,
    /// Baseline (full Newton) time, ns.
    pub newton_ns: f64,
    /// Variant time, ns.
    pub(crate) variant_ns: f64,
}

impl AblationRow {
    /// Variant slowdown relative to full Newton (>1 = variant slower).
    #[must_use]
    pub(crate) fn slowdown(&self) -> f64 {
        self.variant_ns / self.newton_ns
    }
}

/// Sec. III-C: full-reuse interleaved layout vs Newton-no-reuse (the
/// input-refetch traffic dominates the output-traffic savings).
///
/// # Errors
///
/// Propagates simulator errors.
pub(crate) fn ablation_layout_with(
    base: &NewtonConfig,
    threads: usize,
) -> Result<Vec<AblationRow>, AimError> {
    let mut no_reuse = base.clone();
    no_reuse.opts.interleaved_reuse = false;
    ablation_with(base, &no_reuse, threads)
}

/// Measures every Table II layer under `full` (full Newton) and under
/// `variant`, pairing the times per layer. Layer pairs run in parallel
/// and merge in benchmark order.
fn ablation_with(
    full: &NewtonConfig,
    variant: &NewtonConfig,
    threads: usize,
) -> Result<Vec<AblationRow>, AimError> {
    let benches = Benchmark::all();
    try_par_indexed(benches.len(), threads, |i| {
        let b = benches[i];
        let newton = measure_layer(full, b)?;
        let var = measure_layer(variant, b)?;
        Ok(AblationRow {
            name: b.name().to_string(),
            newton_ns: newton.newton_ns,
            variant_ns: var.newton_ns,
        })
    })
}

/// One row of the DRAM-family what-if (Sec. III-E extension).
#[derive(Debug, Clone)]
pub struct FamilyRow {
    /// Family label.
    pub name: &'static str,
    /// Banks per channel.
    pub banks: usize,
    /// Measured speedup over the external-bandwidth bound for the probe
    /// layer (single channel).
    pub measured_x: f64,
    /// Refined-model prediction for this family.
    pub(crate) predicted_x: f64,
}

/// Sec. III-E extension: Newton's internal-vs-external bandwidth
/// advantage on other DRAM families (GDDR6-, LPDDR4-, DDR4-like), with
/// the refined analytical model's prediction alongside the measurement.
/// The four family probes run in parallel and merge in the fixed family
/// order.
///
/// # Errors
///
/// Propagates simulator errors.
pub(crate) fn ext_dram_families_with(
    base: &NewtonConfig,
    threads: usize,
) -> Result<Vec<FamilyRow>, AimError> {
    use newton_dram::DramConfig;
    use newton_model::PerfModel;
    let families: [(&'static str, DramConfig); 4] = [
        ("HBM2E-like", DramConfig::hbm2e_like()),
        ("GDDR6-like", DramConfig::gddr6_like()),
        ("LPDDR4-like", DramConfig::lpddr4_like()),
        ("DDR4-like", DramConfig::ddr4_like()),
    ];
    try_par_indexed(families.len(), threads, |i| {
        let (name, dram) = &families[i];
        let mut cfg = base.clone();
        cfg.dram = dram.clone();
        cfg.channels = 1;
        let banks = dram.banks;
        // Probe: a single-chunk matrix spanning many row groups, refresh
        // disabled so the steady-state period is isolated.
        let n = cfg.row_elems();
        let m = banks * 48;
        let matrix = generator::matrix(newton_workloads::MvShape::new(m, n), 3);
        let vector = generator::vector(n, 3);
        let mut sys = NewtonSystem::new(cfg.clone())?;
        for ch in sys.channels_mut() {
            ch.channel_mut().disable_refresh();
        }
        let run = sys.run_mv(&matrix, m, n, &vector)?;
        let rows_needed = (m * n * 2) / dram.row_bytes();
        let ideal_ns = rows_needed as f64 * dram.cols_per_row as f64 * dram.timing.t_ccd_ns;
        let model = PerfModel::new(cfg.effective_dram());
        Ok(FamilyRow {
            name,
            banks,
            measured_x: ideal_ns / run.elapsed_ns,
            predicted_x: model.speedup_vs_ideal_refined(),
        })
    })
}

/// One row of the channel-scaling extension (the paper's Sec. V-C note
/// that "adding channels remains an option" free of the Amdahl effect).
#[derive(Debug, Clone)]
pub struct ChannelSweepRow {
    /// Channel count.
    pub channels: usize,
    /// Measured layer time, ns.
    pub newton_ns: f64,
    /// Parallel efficiency vs linear scaling from 8 channels.
    pub efficiency: f64,
}

/// Channel-count scaling for one layer (GNMTs1): unlike the bank sweep
/// of Fig. 10, channel scaling avoids the activation-overhead Amdahl
/// bottleneck and stays near-linear. The channel-count points are
/// simulated in parallel; scaling/efficiency (relative to the first
/// point) are derived afterwards, so the rows match a serial sweep
/// exactly.
///
/// # Errors
///
/// Propagates simulator errors.
pub(crate) fn ext_channel_sweep_with(
    base: &NewtonConfig,
    threads: usize,
) -> Result<Vec<ChannelSweepRow>, AimError> {
    let shape = Benchmark::GnmtS1.shape();
    let matrix = generator::matrix(shape, 5);
    let vector = generator::vector(shape.n, 5);
    let counts = [8usize, 16, 24, 32, 48];
    let times = try_par_indexed(counts.len(), threads, |i| {
        let mut cfg = base.clone();
        cfg.channels = counts[i];
        let mut sys = NewtonSystem::new(cfg)?;
        Ok(sys.run_mv(&matrix, shape.m, shape.n, &vector)?.elapsed_ns)
    })?;
    let base = times.first().copied().unwrap_or(0.0);
    Ok(counts
        .iter()
        .zip(&times)
        .map(|(&channels, &newton_ns)| {
            let scaling = base / newton_ns;
            let linear = channels as f64 / counts[0] as f64;
            ChannelSweepRow {
                channels,
                newton_ns,
                efficiency: scaling / linear,
            }
        })
        .collect())
}

/// Sec. III-C: the four-result-latch "option in between" vs full Newton
/// (the paper found them virtually similar and kept the single latch).
///
/// # Errors
///
/// Propagates simulator errors.
pub(crate) fn ablation_latches_with(
    base: &NewtonConfig,
    threads: usize,
) -> Result<Vec<AblationRow>, AimError> {
    let mut four = base.clone();
    four.result_latches_per_bank = 4;
    four.opts.interleaved_reuse = false; // four-latch runs the grouped layout
    ablation_with(base, &four, threads)
}

// ----------------------------------------------------------------------
// Fault campaign: raw bit-error rate vs silent data corruption
// ----------------------------------------------------------------------

/// Shape `(m, n)` of the resident matrix the campaign and serving sweeps
/// run against.
pub(crate) const SWEEP_SHAPE: (usize, usize) = (64, 1024);
/// Channels of the systems the campaign and serving sweeps build.
pub(crate) const SWEEP_CHANNELS: usize = 2;

/// The raw bit-error rates the campaign sweeps, as (label, rate) pairs.
const CAMPAIGN_RATES: [(&str, f64); 4] =
    [("0", 0.0), ("1e-6", 1e-6), ("1e-5", 1e-5), ("1e-4", 1e-4)];

/// Seed of the campaign's fault streams.
pub(crate) const CAMPAIGN_SEED: u64 = 5;

/// One cell of the fault campaign. The recovery ladder's work is kept as
/// a full [`RecoveryReport`] so the snapshot goes through its shared
/// `record_into` serialiser.
#[derive(Debug, Clone)]
pub struct CampaignRow {
    /// Label of the raw bit-error rate (a `CAMPAIGN_RATES` entry).
    pub rate: &'static str,
    /// Whether SECDED ECC was on.
    pub ecc: bool,
    /// Faults injected into the resident matrix.
    pub injected: u64,
    /// Output elements whose bits differ from the fault-free golden run
    /// (silent data corruption).
    pub sdc: u64,
    /// ECC single-bit corrections, summed over channels.
    pub corrected: u64,
    /// ECC uncorrectable detections, summed over channels.
    pub uncorrectable: u64,
    /// What the resilient run path had to do.
    pub report: RecoveryReport,
}

/// Deterministic pseudo-random bf16 in roughly [-2, 2): the campaign's
/// operand stream.
fn det_bf16(seed: u64, i: u64) -> Bf16 {
    let h = (seed ^ i)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(31)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let frac = (h >> 40) as f32 / (1u64 << 24) as f32;
    Bf16::from_f32(frac * 4.0 - 2.0)
}

/// The fixed workload every campaign cell runs, with the golden output
/// bits of its fault-free run.
struct CampaignWorkload {
    matrix: Vec<Bf16>,
    vector: Vec<Bf16>,
    golden: Vec<u32>,
}

fn campaign_system(
    base: &NewtonConfig,
    ecc: bool,
    matrix: &[Bf16],
) -> Result<(NewtonSystem, LoadedMatrix), AimError> {
    let mut cfg = base.clone();
    (cfg.channels, cfg.ecc) = (SWEEP_CHANNELS, ecc);
    let mut sys = NewtonSystem::new(cfg)?;
    let loaded = sys.load_matrix(matrix, SWEEP_SHAPE.0, SWEEP_SHAPE.1)?;
    Ok((sys, loaded))
}

fn campaign_cell(
    base: &NewtonConfig,
    (label, rate): (&'static str, f64),
    ecc: bool,
    cell_seed: u64,
    w: &CampaignWorkload,
) -> Result<CampaignRow, AimError> {
    let (mut sys, loaded) = campaign_system(base, ecc, &w.matrix)?;
    let mut injected = 0u64;
    for ch in 0..sys.channels().len() {
        // The fault universe the rate applies to: this channel's resident
        // matrix bits.
        let storage = sys.channels()[ch].channel().storage();
        let bits = (storage.allocated_row_indices().len() * storage.row_bytes() * 8) as u64;
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "flip counts are tiny (rate <= 1e-4 of a few Mbit)"
        )]
        let singles = (rate * bits as f64).round() as usize;
        // A slice of the error budget lands as double-bit words, so the
        // uncorrectable path is exercised at realistic rates too.
        let doubles = singles / 8;
        let spec = CampaignSpec {
            seed: cell_seed,
            single_bit_flips: singles - 2 * doubles,
            double_bit_words: doubles,
            stuck_cells: 0,
            retention: None,
        }
        .for_channel(ch);
        let now = sys.channels()[ch].now();
        let faults = faults::inject(sys.channels_mut()[ch].channel_mut(), now, &spec)?;
        injected += faults.len() as u64;
    }

    let (run, report) = if ecc {
        sys.run_resident_resilient(&loaded, &w.matrix, &w.vector)?
    } else {
        // Without ECC nothing is detected, so the ladder never engages:
        // one attempt, nothing scrubbed or retired.
        let run = sys.run_resident(&loaded, &w.vector)?;
        (
            run,
            RecoveryReport {
                attempts: 1,
                scrub_rewrites: 0,
                retired_banks: Vec::new(),
                capacity_fraction: 1.0,
            },
        )
    };

    let sdc = run
        .output
        .iter()
        .zip(&w.golden)
        .filter(|(v, &g)| v.to_bits() != g)
        .count() as u64;
    let (mut corrected, mut uncorrectable) = (0u64, 0u64);
    for ch in sys.channels() {
        corrected += ch.channel().stats().ecc_corrected;
        uncorrectable += ch.channel().stats().ecc_uncorrectable;
    }

    // The campaign's headline guarantees, enforced, not implied.
    if ecc {
        assert_eq!(
            sdc, 0,
            "rate {label}: ECC must never let corrupted data reach an output"
        );
    }
    if !ecc && rate >= 1e-5 {
        assert!(
            sdc > 0,
            "rate {label}: without ECC the campaign must measure nonzero SDC"
        );
    }
    if rate == 0.0 {
        assert_eq!(injected, 0, "rate 0 injects nothing");
        assert_eq!(sdc, 0, "fault-free runs match golden bit for bit");
    }
    Ok(CampaignRow {
        rate: label,
        ecc,
        injected,
        sdc,
        corrected,
        uncorrectable,
        report,
    })
}

/// The fault-injection campaign: for each raw bit-error rate, a
/// deterministic set of faults (single-bit flips plus a proportion of
/// double-bit words, from the counter stream in [`newton_dram::faults`])
/// is injected into the resident 64 x 1024 matrix of a freshly loaded
/// 2-channel system, the same inference runs with SECDED ECC off and on,
/// and the output bits are compared against the fault-free golden run.
/// Rows come in [`CAMPAIGN_RATES`] order, ECC off before on.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// If a cell breaks a guarantee of the simulated machine: any SDC with
/// ECC on, no SDC without it at 1e-5 and above, or a fault-free cell that
/// differs from the golden run.
pub(crate) fn campaign_with(
    base: &NewtonConfig,
    threads: usize,
) -> Result<Vec<CampaignRow>, AimError> {
    let (m, n) = SWEEP_SHAPE;
    let matrix: Vec<Bf16> = (0..m * n).map(|i| det_bf16(2, i as u64)).collect();
    let vector: Vec<Bf16> = (0..n).map(|i| det_bf16(3, i as u64)).collect();
    // ECC on a clean system is output-invariant, so one golden serves
    // both columns.
    let (mut sys, loaded) = campaign_system(base, false, &matrix)?;
    let golden = sys
        .run_resident(&loaded, &vector)?
        .output
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let w = CampaignWorkload {
        matrix,
        vector,
        golden,
    };
    try_par_indexed(CAMPAIGN_RATES.len() * 2, threads, |k| {
        let ecc = k % 2 == 1;
        campaign_cell(
            base,
            CAMPAIGN_RATES[k / 2],
            ecc,
            mix64(CAMPAIGN_SEED ^ k as u64),
            &w,
        )
    })
}

// ----------------------------------------------------------------------
// Serving chaos sweep: open-loop traffic, live faults, deadline SLOs
// ----------------------------------------------------------------------

/// Seed of the serving sweep's weight, input, arrival and fault streams.
pub(crate) const SERVING_SEED: u64 = 8;
/// Queries offered to each serving cell.
pub(crate) const SERVING_REQUESTS: usize = 160;
/// The completion deadline every serving cell runs under, ns.
pub(crate) const SERVING_DEADLINE_NS: f64 = 100_000.0;

/// One cell of the serving sweep.
#[derive(Debug, Clone)]
pub struct ServingRow {
    /// Cell name, `<arrivals>/<chaos>`.
    pub name: &'static str,
    /// The server's full accounting of the cell.
    pub report: ServeReport,
}

/// One serving cell: a traffic shape plus a chaos plan, and what the
/// cell must be seen to do.
struct ServingCell {
    name: &'static str,
    traffic: TrafficConfig,
    chaos: ChaosPlan,
    expects_faults: bool,
    expects_retirement: bool,
}

fn serving_cell(
    cell: &ServingCell,
    cfg: &NewtonConfig,
    matrix: &[Bf16],
) -> Result<ServingRow, AimError> {
    let (m, n) = SWEEP_SHAPE;
    let mut server = Server::new(cfg.clone(), matrix.to_vec(), m, n, 4, mix64(SERVING_SEED))?;
    let report = server
        .serve(&cell.traffic, &cell.chaos)
        .map_err(|e| match e {
            ServeError::Fatal(e) => e,
            // Sheds and deadline misses are outcomes in the report;
            // `serve` never returns them.
            other => AimError::InvalidConfig(other.to_string()),
        })?;
    let name = cell.name;

    // Guarantees of the simulated machine, enforced per cell.
    assert_eq!(
        report.sdc, 0,
        "{name}: ECC on — silent data corruption must be zero"
    );
    assert_eq!(
        report.offered,
        report.completed + report.shed + report.expired,
        "{name}: admission accounting must balance"
    );
    if cell.expects_faults {
        assert!(
            report.injected_faults > 0,
            "{name}: chaos cell must inject faults"
        );
    } else {
        assert_eq!(report.injected_faults, 0, "{name}: clean cell");
        assert_eq!(report.retries, 0, "{name}: clean cell never retries");
    }
    if cell.expects_retirement {
        assert!(
            !report.recovery.retired_banks.is_empty(),
            "{name}: hard fault must retire a bank"
        );
        assert!(
            report.recovery.capacity_fraction < 1.0,
            "{name}: retirement must shrink capacity"
        );
        assert!(
            report.completed > report.offered / 2,
            "{name}: the degraded system must keep serving (completed {} of {})",
            report.completed,
            report.offered
        );
    }
    Ok(ServingRow { name, report })
}

/// The online-serving chaos sweep: open-loop traffic against a resident
/// 64 x 1024 matrix on 2 channels, SECDED ECC and streaming telemetry on,
/// under a 100 us deadline with a bounded queue, batched dispatch and
/// exponential retry backoff. Five cells — steady Poisson and square
/// bursts, each fault-free and with a BER 1e-5 campaign fired mid-traffic,
/// plus a Poisson cell where a hard stuck word forces a bank retirement.
///
/// # Errors
///
/// Propagates simulator errors.
///
/// # Panics
///
/// If a cell breaks a guarantee: any SDC, unbalanced admission
/// accounting, a chaos cell that injects nothing, a clean cell that
/// retries, or a degraded cell that retires no bank or stops serving.
pub(crate) fn serving_with(
    base: &NewtonConfig,
    threads: usize,
) -> Result<Vec<ServingRow>, AimError> {
    let (m, n) = SWEEP_SHAPE;
    let mut cfg = base.clone();
    (cfg.channels, cfg.ecc) = (SWEEP_CHANNELS, true);
    cfg.telemetry = Some(TelemetryConfig::default());
    let matrix = generator::matrix(
        newton_workloads::MvShape::new(m, n),
        mix64(SERVING_SEED ^ 0xA),
    );

    let traffic = |pattern: ArrivalPattern, seed: u64| TrafficConfig {
        pattern,
        requests: SERVING_REQUESTS,
        seed,
        deadline_ns: SERVING_DEADLINE_NS,
        queue_capacity: 32,
        max_batch: 8,
        retry_backoff_cycles: 256,
        conventional: None,
    };
    let poisson = ArrivalPattern::Poisson { rate_per_us: 0.05 };
    let bursty = ArrivalPattern::Bursty {
        base_rate_per_us: 0.01,
        peak_rate_per_us: 1.0,
        period_us: 200.0,
        burst_fraction: 0.2,
    };
    let fault_after = (SERVING_REQUESTS / 8) as u64;
    // BER 1e-5 over the resident data bits of one channel (the matrix's
    // bf16 payload split evenly), with a floor of one double-bit word so
    // the scrub/retry rung is exercised.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "a handful of flips"
    )]
    let singles = (1e-5 * (m * n * 16 / SWEEP_CHANNELS) as f64).round() as usize;
    let doubles = (singles / 8).max(1);
    let ber_1e5 = CampaignSpec {
        seed: mix64(SERVING_SEED ^ 0xB),
        single_bit_flips: singles.saturating_sub(2 * doubles),
        double_bit_words: doubles,
        stuck_cells: 0,
        retention: None,
    };

    let cells = [
        ServingCell {
            name: "poisson/no_fault",
            traffic: traffic(poisson, SERVING_SEED ^ 1),
            chaos: ChaosPlan::none(),
            expects_faults: false,
            expects_retirement: false,
        },
        ServingCell {
            name: "poisson/ber_1e5_ecc",
            traffic: traffic(poisson, SERVING_SEED ^ 1),
            chaos: ChaosPlan::faults_after(fault_after, ber_1e5),
            expects_faults: true,
            expects_retirement: false,
        },
        ServingCell {
            name: "bursty/no_fault",
            traffic: traffic(bursty, SERVING_SEED ^ 2),
            chaos: ChaosPlan::none(),
            expects_faults: false,
            expects_retirement: false,
        },
        ServingCell {
            name: "bursty/ber_1e5_ecc",
            traffic: traffic(bursty, SERVING_SEED ^ 2),
            chaos: ChaosPlan::faults_after(fault_after, ber_1e5),
            expects_faults: true,
            expects_retirement: false,
        },
        ServingCell {
            name: "degraded/stuck_ecc",
            traffic: traffic(poisson, SERVING_SEED ^ 3),
            chaos: ChaosPlan {
                events: vec![ChaosEvent {
                    after_completed: fault_after,
                    action: ChaosAction::StuckWord {
                        channel: 0,
                        bank: 2,
                    },
                }],
            },
            expects_faults: true,
            expects_retirement: true,
        },
    ];
    try_par_indexed(cells.len(), threads, |i| {
        serving_cell(&cells[i], &cfg, &matrix)
    })
}
