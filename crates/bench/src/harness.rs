//! The deterministic parallel experiment harness behind the `reproduce`
//! binary: the one place an experiment is rendered, asserted and
//! snapshotted.
//!
//! Each table/figure of the evaluation is an independent job: it renders
//! its printed text into a [`String`] and collects its metrics into a
//! [`MetricsSnapshot`] instead of writing to stdout directly, and it
//! checks the shape claim the paper makes about it (Fig. 9: every
//! optimization helps and ganging helps most; Fig. 10: sub-linear in
//! banks; …) on the rows it just rendered — a violated claim aborts the
//! run, so every `reproduce` enforces every claim. Jobs run on
//! a bounded worker pool ([`newton_core::parallel`]) and their reports
//! are merged back in the canonical [`EXPERIMENTS`] order — never in
//! completion order — so the printed output, the snapshot files, and any
//! error surfaced are byte-identical for every worker count (including
//! `NEWTON_THREADS=1`, the fully serial reference).
//!
//! Shared heavy work is hoisted: the full-Newton Table II layer
//! measurements feed Figs. 8/11/12/13 and are computed once (themselves
//! in parallel, one layer per worker) before the job pool starts.

use std::fmt::Write as _;

use newton_core::config::{NewtonConfig, TelemetryConfig, TimingEngine};
use newton_core::parallel::{self, ParallelPolicy};
use newton_core::AimError;
use newton_trace::MetricsSnapshot;
use newton_workloads::Benchmark;

use crate::experiments::{
    ablation_latches_with, ablation_layout_with, campaign_with, ext_channel_sweep_with,
    ext_dram_families_with, fig07_command_trace_with, fig08_end_to_end_with, fig08_layers_with,
    fig09_ladder_with, fig10_bank_sweep_with, fig11_batch_vs_ideal, fig12_batch_vs_gpu,
    fig13_energy_validation, fig13_power, measure_all_layers_with, model_validation_with,
    serving_with, AblationRow, BankSweepRow, BatchRow, ChannelSweepRow, FamilyRow, LadderRow,
    LayerMeasurement, ModelValidation, PowerRow, BATCH_SIZES, CAMPAIGN_SEED, SERVING_DEADLINE_NS,
    SERVING_REQUESTS, SERVING_SEED, SWEEP_CHANNELS, SWEEP_SHAPE,
};
use crate::report::{fns, fx, geomean, Table};
use crate::snapshot::add_table;

/// Every experiment name, in the canonical report order.
pub const EXPERIMENTS: &[&str] = &[
    "table2",
    "table3",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "ablations",
    "extensions",
    "campaign",
    "serving",
];

/// Returns `Err` with a formatted reason from a shape check unless `cond`
/// holds.
macro_rules! ensure {
    ($cond:expr, $($why:tt)+) => {
        // A NaN fails every comparison, and so the check.
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($why)+));
        }
    };
}

/// Aborts the run when a paper-shape check failed: like the numerics
/// gate of [`run_experiments`], a claim the evaluation makes is enforced
/// where the experiment is run, not implied.
fn enforce(claim: &str, verdict: Result<(), String>) {
    if let Err(why) = verdict {
        panic!("{claim} shape claim violated: {why}");
    }
}

/// One experiment's rendered output: the text that would previously have
/// gone straight to stdout, plus the versioned metrics snapshot.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// The canonical experiment name (an [`EXPERIMENTS`] entry).
    pub name: &'static str,
    /// The printed report, exactly as the serial harness would emit it.
    pub text: String,
    /// The metrics snapshot (`<snapshot-dir>/<name>.json`).
    pub snapshot: MetricsSnapshot,
}

/// Harness selection, worker-pool and simulator options: everything the
/// `reproduce` command line sets, resolved once here and handed down as
/// one base [`NewtonConfig`].
#[derive(Debug, Clone, Default)]
pub struct HarnessOptions {
    /// Substring filters over [`EXPERIMENTS`]; empty selects everything.
    pub filter: Vec<String>,
    /// Worker-pool width. `None` resolves through the default
    /// [`ParallelPolicy`], so `NEWTON_THREADS` applies; `Some(n)` pins
    /// the width regardless of the environment.
    pub threads: Option<usize>,
    /// The engine every experiment runs on (`reproduce --engine`):
    /// production or the oracle, COMP kernel included; reports and
    /// snapshots are byte-identical for both.
    pub engine: TimingEngine,
    /// Run every experiment with the channel timing audit enabled
    /// (`reproduce --audit`): each channel logs its command stream and,
    /// at the end of every run, checks what the run added against the
    /// raw timing constraints; any violation aborts the experiment with
    /// [`AimError::AuditFailed`].
    /// Reports and snapshots are byte-identical with and without it.
    pub audit: bool,
    /// Run every experiment with streaming telemetry enabled
    /// (`reproduce --telemetry`): each channel collects a windowed
    /// time series with per-command energy attribution, and Fig. 13
    /// additionally validates the streamed energy against the
    /// postprocessed model (counts bit-for-bit, pJ within 0.1%).
    pub telemetry: bool,
}

impl HarnessOptions {
    /// Whether `name` passes the filter.
    #[must_use]
    fn wants(&self, name: &str) -> bool {
        self.filter.is_empty() || self.filter.iter().any(|f| name.contains(f.as_str()))
    }

    /// The selected experiments, always in canonical order (the filter
    /// narrows the set; it never reorders).
    #[must_use]
    pub fn selected(&self) -> Vec<&'static str> {
        EXPERIMENTS
            .iter()
            .copied()
            .filter(|e| self.wants(e))
            .collect()
    }

    /// The configuration every experiment derives its systems from: the
    /// paper's evaluation point with this run's engine, audit and
    /// telemetry choices.
    #[must_use]
    pub(crate) fn base_config(&self) -> NewtonConfig {
        NewtonConfig {
            engine: self.engine,
            audit: self.audit,
            telemetry: self.telemetry.then(TelemetryConfig::default),
            ..NewtonConfig::paper_default()
        }
    }

    /// The resolved worker-pool width. Explicit `--threads` requests are
    /// capped at the host's available parallelism — oversubscribing the
    /// job pool cannot help and measurably hurts on small hosts (the
    /// determinism suite, which *wants* oversubscription, pins widths
    /// through [`ParallelPolicy::exact`] instead).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
            .unwrap_or_else(|| ParallelPolicy::default().threads())
            .clamp(1, parallel::host_threads())
    }
}

/// Runs the selected experiments on a bounded worker pool and returns
/// their reports in canonical order.
///
/// Determinism contract: for a fixed repository state the returned
/// reports (text bytes, snapshot contents, and error — if any — in
/// index order) are identical for every `threads` value.
///
/// # Errors
///
/// Propagates the lowest-canonical-order simulator error.
///
/// # Panics
///
/// Panics if a Table II layer fails its numeric check against the `f64`
/// reference, if an experiment's rows violate the shape claim the paper
/// makes about them, or if a `campaign` / `serving` cell breaks a
/// guarantee of the simulated machine (see
/// `campaign_with` and `serving_with` in [`crate::experiments`]).
pub fn run_experiments(opts: &HarnessOptions) -> Result<Vec<ExperimentReport>, AimError> {
    let base = &opts.base_config();
    let names = opts.selected();
    let threads = opts.threads();

    // Figs. 8/11/12/13 share the full-Newton layer measurements; compute
    // them once, before the job pool, layer-parallel.
    let needs_layers = names
        .iter()
        .any(|n| matches!(*n, "fig08" | "fig11" | "fig12" | "fig13"));
    let layers = if needs_layers {
        let layers = measure_all_layers_with(base, threads)?;
        for m in &layers {
            assert!(
                m.numerics_ok,
                "{}: numeric error {} out of bounds",
                m.benchmark.name(),
                m.max_numeric_error
            );
        }
        layers
    } else {
        Vec::new()
    };
    let layers: &[LayerMeasurement] = &layers;

    type Job<'a> = Box<dyn Fn() -> Result<ExperimentReport, AimError> + Sync + 'a>;
    let jobs: Vec<Job<'_>> = names
        .iter()
        .map(|&name| -> Job<'_> {
            match name {
                "table2" => Box::new(report_table2),
                "table3" => Box::new(move || report_table3(base)),
                "fig07" => Box::new(move || report_fig07(base)),
                "fig08" => Box::new(move || report_fig08(base, layers, threads)),
                "fig09" => Box::new(move || report_fig09(base, threads)),
                "fig10" => Box::new(move || report_fig10(base, threads)),
                "fig11" => Box::new(move || report_fig11(layers)),
                "fig12" => Box::new(move || report_fig12(layers)),
                "fig13" => Box::new(move || report_fig13(base, layers)),
                "ablations" => Box::new(move || report_ablations(base, threads)),
                "extensions" => Box::new(move || report_extensions(base, threads)),
                "campaign" => Box::new(move || report_campaign(base, threads)),
                "serving" => Box::new(move || report_serving(base, threads)),
                other => unreachable!("unknown experiment {other}"),
            }
        })
        .collect();
    parallel::par_map_indexed(jobs.len(), threads, |i| jobs[i]())
        .into_iter()
        .collect()
}

fn report_table2() -> Result<ExperimentReport, AimError> {
    let mut t = Table::new(&["Table II workload", "matrix", "vector", "weights"]);
    for b in Benchmark::all() {
        let s = b.shape();
        t.row(&[
            b.name().into(),
            format!("{} x {}", s.m, s.n),
            format!("{} x 1", s.n),
            format!("{:.1} MB", s.matrix_bytes() as f64 / 1e6),
        ]);
    }
    let mut text = String::new();
    let _ = writeln!(text, "{}", t.render());
    let mut snap = MetricsSnapshot::new("table2");
    snap.count("workloads", Benchmark::all().len() as u64);
    add_table(&mut snap, "Table II: workloads", &t);
    Ok(ExperimentReport {
        name: "table2",
        text,
        snapshot: snap,
    })
}

/// Sec. III-F: the paper's formula predicts about 9.8x over Ideal
/// Non-PIM, and the refined model (which adds the precharge turnaround
/// the cycle simulator exposes) matches the simulator within 3 %.
fn check_table3(v: &ModelValidation) -> Result<(), String> {
    let rel = (v.refined_model_x - v.measured_x).abs() / v.measured_x;
    ensure!(
        rel < 0.03,
        "refined model {:.3}x is {:.1}% off the simulator's {:.3}x",
        v.refined_model_x,
        rel * 100.0,
        v.measured_x
    );
    ensure!(
        (9.0..10.5).contains(&v.paper_model_x),
        "paper formula predicts {:.3}x, outside 9.0..10.5",
        v.paper_model_x
    );
    Ok(())
}

fn report_table3(base: &NewtonConfig) -> Result<ExperimentReport, AimError> {
    let mv = model_validation_with(base)?;
    enforce("Table III", check_table3(&mv));
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Sec. III-F model vs simulator (speedup over Ideal Non-PIM):"
    );
    let _ = writeln!(text, "  paper formula : {}", fx(mv.paper_model_x));
    let _ = writeln!(text, "  refined model : {}", fx(mv.refined_model_x));
    let _ = writeln!(text, "  measured      : {}\n", fx(mv.measured_x));
    let mut snap = MetricsSnapshot::new("table3");
    snap.scalar("paper_model_x", mv.paper_model_x)
        .scalar("refined_model_x", mv.refined_model_x)
        .scalar("measured_x", mv.measured_x);
    Ok(ExperimentReport {
        name: "table3",
        text,
        snapshot: snap,
    })
}

/// Fig. 7's structure: a 512-element chunk loads in 32 GWRITEs, four
/// ganged activations cover 16 banks, one COMP per column I/O of the row
/// streams at the tCCD cadence, and one ganged READRES ends the row-set.
fn check_fig07(trace: &str) -> Result<(), String> {
    let with = |needle: &'static str| trace.lines().filter(move |l| l.contains(needle));
    for (needle, want) in [("GWRITE", 32), ("G_ACT", 4), ("COMP", 32), ("READRES", 1)] {
        let got = with(needle).count();
        ensure!(got == want, "{got} {needle} commands, expected {want}");
    }
    let comp_cycles: Option<Vec<u64>> = with("COMP")
        .map(|l| l.split_whitespace().next()?.parse().ok())
        .collect();
    let Some(comp_cycles) = comp_cycles else {
        return Err("a COMP line does not start with its issue cycle".into());
    };
    ensure!(
        comp_cycles.windows(2).all(|w| w[1] - w[0] == 4),
        "COMPs must issue tCCD (4 cycles) apart: {comp_cycles:?}"
    );
    Ok(())
}

fn report_fig07(base: &NewtonConfig) -> Result<ExperimentReport, AimError> {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Fig. 7 command timeline (one DRAM row across all banks, first 44 commands):"
    );
    let trace = fig07_command_trace_with(base)?;
    enforce("Fig. 7", check_fig07(&trace));
    for line in trace.lines().take(44) {
        let _ = writeln!(text, "  {line}");
    }
    let _ = writeln!(text);
    let mut snap = MetricsSnapshot::new("fig07");
    snap.count("commands", trace.lines().count() as u64);
    Ok(ExperimentReport {
        name: "fig07",
        text,
        snapshot: snap,
    })
}

fn report_fig08(
    base: &NewtonConfig,
    layers: &[LayerMeasurement],
    threads: usize,
) -> Result<ExperimentReport, AimError> {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Fig. 8 (left): per-layer speedup over the Titan-V-like GPU"
    );
    let rows = fig08_layers_with(base, layers, threads)?;
    let mut snap = MetricsSnapshot::new("fig08");
    snap.scalar(
        "geomean_newton_x",
        geomean(&rows.iter().map(|r| r.newton_x).collect::<Vec<_>>()),
    )
    .scalar(
        "geomean_ideal_x",
        geomean(&rows.iter().map(|r| r.ideal_x).collect::<Vec<_>>()),
    );
    let mut t = Table::new(&["layer", "Newton", "Ideal Non-PIM", "Non-opt-Newton"]);
    for r in &rows {
        t.row(&[
            r.name.clone(),
            fx(r.newton_x),
            fx(r.ideal_x),
            fx(r.nonopt_x),
        ]);
    }
    let _ = writeln!(text, "{}", t.render());
    let _ = writeln!(
        text,
        "paper: geomean Newton 54x, Ideal 5.4x, Non-opt 1.48x\n"
    );
    add_table(&mut snap, "Fig. 8 (left): per-layer speedup vs GPU", &t);

    // Cycle attribution behind the speedups: where Newton's banks spend
    // their time, and the bandwidth the Ideal stream actually sustained.
    let mut attr = Table::new(&[
        "layer",
        "Newton bank util",
        "Newton acts",
        "Ideal ext BW (B/ns)",
    ]);
    for m in layers {
        let util = if m.newton_summaries.is_empty() {
            0.0
        } else {
            m.newton_summaries
                .iter()
                .map(newton_dram::stats::RunSummary::bank_utilization)
                .sum::<f64>()
                / m.newton_summaries.len() as f64
        };
        let acts: u64 = m.newton_summaries.iter().map(|s| s.stats.activates).sum();
        attr.row(&[
            m.benchmark.name().into(),
            format!("{util:.3}"),
            acts.to_string(),
            format!("{:.2}", m.ideal_summary.external_bandwidth()),
        ]);
    }
    add_table(
        &mut snap,
        "Attribution: Newton vs Ideal DRAM activity",
        &attr,
    );

    let _ = writeln!(
        text,
        "Fig. 8 (right): end-to-end speedup over the Titan-V-like GPU"
    );
    let rows = fig08_end_to_end_with(base, threads)?;
    let mut t = Table::new(&["model", "Newton", "Ideal Non-PIM", "Non-opt-Newton"]);
    for r in &rows {
        t.row(&[
            r.name.clone(),
            fx(r.newton_x),
            fx(r.ideal_x),
            fx(r.nonopt_x),
        ]);
    }
    let _ = writeln!(text, "{}", t.render());
    let _ = writeln!(
        text,
        "paper: DLRM 47x, AlexNet 1.2x, mean(all) 20x, mean(key targets) 49x\n"
    );
    add_table(&mut snap, "Fig. 8 (right): end-to-end speedup vs GPU", &t);
    Ok(ExperimentReport {
        name: "fig08",
        text,
        snapshot: snap,
    })
}

/// Fig. 9: every optimization helps, and ganged compute (the first
/// rung's 16x command-bandwidth reduction) is the largest single step.
fn check_fig09(rows: &[LadderRow]) -> Result<(), String> {
    for w in rows.windows(2) {
        ensure!(
            w[1].speedup_x >= w[0].speedup_x * 0.999,
            "{:?} ({:.3}x) regressed vs {:?} ({:.3}x)",
            w[1].level,
            w[1].speedup_x,
            w[0].level,
            w[0].speedup_x
        );
    }
    let gains: Vec<f64> = rows
        .windows(2)
        .map(|w| w[1].speedup_x / w[0].speedup_x)
        .collect();
    let max = gains.iter().copied().fold(0.0f64, f64::max);
    ensure!(
        gains.first().is_some_and(|g| (g - max).abs() < 1e-9),
        "gang should be the largest step: {gains:?}"
    );
    Ok(())
}

fn report_fig09(base: &NewtonConfig, threads: usize) -> Result<ExperimentReport, AimError> {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Fig. 9: isolating Newton's optimizations (geomean over layers)"
    );
    let rows = fig09_ladder_with(base, threads)?;
    enforce("Fig. 9", check_fig09(&rows));
    let mut t = Table::new(&["configuration", "speedup vs GPU"]);
    for r in &rows {
        t.row(&[r.level.label().into(), fx(r.speedup_x)]);
    }
    let _ = writeln!(text, "{}", t.render());
    let mut snap = MetricsSnapshot::new("fig09");
    add_table(&mut snap, "Fig. 9: optimization ladder", &t);
    Ok(ExperimentReport {
        name: "fig09",
        text,
        snapshot: snap,
    })
}

/// Fig. 10: the geomean speedup grows with the bank count but
/// sub-linearly — doubling the banks less than doubles it (Amdahl's law
/// on the activation overheads, Sec. III-F's `o`).
fn check_fig10(rows: &[BankSweepRow]) -> Result<(), String> {
    let Some(g) = rows.last().map(|r| r.speedup_x) else {
        return Err("no geomean row".into());
    };
    ensure!(
        g[0] < g[1] && g[1] < g[2],
        "speedup must grow with banks: {g:?}"
    );
    ensure!(
        g[1] / g[0] < 2.0 && g[2] / g[1] < 2.0,
        "doubling banks must less than double the speedup: {g:?}"
    );
    Ok(())
}

fn report_fig10(base: &NewtonConfig, threads: usize) -> Result<ExperimentReport, AimError> {
    let mut text = String::new();
    let _ = writeln!(text, "Fig. 10: sensitivity to banks per channel");
    let rows = fig10_bank_sweep_with(base, threads)?;
    enforce("Fig. 10", check_fig10(&rows));
    let mut t = Table::new(&["layer", "8 banks", "16 banks", "32 banks"]);
    for r in &rows {
        t.row(&[
            r.name.clone(),
            fx(r.speedup_x[0]),
            fx(r.speedup_x[1]),
            fx(r.speedup_x[2]),
        ]);
    }
    let _ = writeln!(text, "{}", t.render());
    let _ = writeln!(text, "paper: geomean 28x / 54x / 96x\n");
    let mut snap = MetricsSnapshot::new("fig10");
    add_table(&mut snap, "Fig. 10: banks-per-channel sensitivity", &t);
    Ok(ExperimentReport {
        name: "fig10",
        text,
        snapshot: snap,
    })
}

fn batch_header() -> Vec<String> {
    ["layer", "arch"]
        .iter()
        .map(|s| (*s).to_string())
        .chain(BATCH_SIZES.iter().map(|k| format!("k={k}")))
        .collect()
}

/// Geomean over the layers of `other / newton` at batch size `k` (a
/// [`BATCH_SIZES`] entry): above 1 the comparison architecture has
/// passed Newton.
fn batch_ratio_at(rows: &[BatchRow], k: usize) -> f64 {
    let i = BATCH_SIZES
        .iter()
        .position(|&b| b == k)
        .expect("a swept batch size");
    geomean(
        &rows
            .iter()
            .map(|r| r.other[i] / r.newton[i])
            .collect::<Vec<_>>(),
    )
}

/// Fig. 11: Ideal Non-PIM is far behind Newton at batch 1 and has passed
/// it by batch 16.
fn check_fig11(rows: &[BatchRow]) -> Result<(), String> {
    let (at1, at16) = (batch_ratio_at(rows, 1), batch_ratio_at(rows, 16));
    ensure!(at1 < 0.5, "at k=1 Ideal should be far behind Newton: {at1}");
    ensure!(
        at16 > 1.0,
        "at k=16 Ideal should have passed Newton: {at16}"
    );
    Ok(())
}

/// Fig. 12: Newton still beats the GPU at batch 8; the GPU needs batch 64
/// to pass it.
fn check_fig12(rows: &[BatchRow]) -> Result<(), String> {
    let (at8, at64) = (batch_ratio_at(rows, 8), batch_ratio_at(rows, 64));
    ensure!(at8 < 1.0, "at k=8 Newton should still win: {at8}");
    ensure!(
        at64 > 1.0,
        "at k=64 the GPU should have passed Newton: {at64}"
    );
    Ok(())
}

fn report_fig11(layers: &[LayerMeasurement]) -> Result<ExperimentReport, AimError> {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Fig. 11: batch sensitivity vs Ideal Non-PIM (perf normalized to GPU @ k=1)"
    );
    let rows = fig11_batch_vs_ideal(layers)?;
    enforce("Fig. 11", check_fig11(&rows));
    let header = batch_header();
    let hrefs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&hrefs);
    for r in &rows {
        let mut newton = vec![r.name.clone(), "Newton".into()];
        newton.extend(r.newton.iter().map(|v| fx(*v)));
        t.row(&newton);
        let mut ideal = vec![String::new(), "Ideal".into()];
        ideal.extend(r.other.iter().map(|v| fx(*v)));
        t.row(&ideal);
    }
    let _ = writeln!(text, "{}", t.render());
    let _ = writeln!(
        text,
        "paper: Ideal nearly catches Newton at k=8, ~1.6x ahead at k=16\n"
    );
    let mut snap = MetricsSnapshot::new("fig11");
    add_table(&mut snap, "Fig. 11: batch sensitivity vs Ideal Non-PIM", &t);
    Ok(ExperimentReport {
        name: "fig11",
        text,
        snapshot: snap,
    })
}

fn report_fig12(layers: &[LayerMeasurement]) -> Result<ExperimentReport, AimError> {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Fig. 12: batch sensitivity vs GPU (perf normalized to GPU @ k=1)"
    );
    let rows = fig12_batch_vs_gpu(layers);
    enforce("Fig. 12", check_fig12(&rows));
    let header = batch_header();
    let hrefs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&hrefs);
    for r in &rows {
        let mut newton = vec![r.name.clone(), "Newton".into()];
        newton.extend(r.newton.iter().map(|v| fx(*v)));
        t.row(&newton);
        let mut gpu = vec![String::new(), "GPU".into()];
        gpu.extend(r.other.iter().map(|v| fx(*v)));
        t.row(&gpu);
    }
    let _ = writeln!(text, "{}", t.render());
    let _ = writeln!(text, "paper: the GPU needs batch 64 to outperform Newton\n");
    let mut snap = MetricsSnapshot::new("fig12");
    add_table(&mut snap, "Fig. 12: batch sensitivity vs GPU", &t);
    Ok(ExperimentReport {
        name: "fig12",
        text,
        snapshot: snap,
    })
}

/// Fig. 13: the mean stays in a band around the paper's ~2.8x (the
/// calibration anchors pin the synthetic steady state to 2.4..3.1; real
/// Table II layers include readout/turnaround slack, so the band here is
/// a little wider), and no workload exceeds the 4x COMP-streaming
/// ceiling — overheads only dilute power.
fn check_fig13(rows: &[PowerRow]) -> Result<(), String> {
    let mean = rows
        .iter()
        .find(|r| r.name == "mean")
        .map_or(0.0, |r| r.normalized_power);
    ensure!(
        (2.0..=3.4).contains(&mean),
        "mean normalized power {mean:.3} left the validated 2.0..=3.4 band"
    );
    for r in rows {
        ensure!(
            r.normalized_power < 4.2,
            "{}: normalized power {:.3} above the COMP-streaming ceiling",
            r.name,
            r.normalized_power
        );
    }
    Ok(())
}

fn report_fig13(
    base: &NewtonConfig,
    layers: &[LayerMeasurement],
) -> Result<ExperimentReport, AimError> {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Fig. 13: Newton average power normalized to conventional DRAM"
    );
    let rows = fig13_power(layers);
    enforce("Fig. 13", check_fig13(&rows));
    let mut t = Table::new(&["workload", "normalized power"]);
    for r in &rows {
        t.row(&[r.name.clone(), format!("{:.2}x", r.normalized_power)]);
    }
    let _ = writeln!(text, "{}", t.render());
    let _ = writeln!(text, "paper: ~2.8x mean\n");
    let mut snap = MetricsSnapshot::new("fig13");
    snap.scalar(
        "mean_normalized_power",
        rows.iter().map(|r| r.normalized_power).sum::<f64>() / rows.len().max(1) as f64,
    );
    add_table(&mut snap, "Fig. 13: normalized power", &t);

    // With --telemetry the layers carry windowed series: validate the
    // streamed per-command energy against the postprocessed model. The
    // event *counts* must agree bit-for-bit; the pJ totals differ only by
    // per-command milli-pJ rounding, bounded at 0.1%.
    let validation = fig13_energy_validation(layers);
    if base.telemetry.is_some() {
        assert!(
            validation.as_ref().is_some_and(|v| !v.is_empty()),
            "telemetry is on but no workload carried a series to validate energy against"
        );
    }
    if let Some(validation) = validation {
        let _ = writeln!(
            text,
            "Energy validation: streamed per-command attribution vs postprocessed model"
        );
        let mut vt = Table::new(&["workload", "streamed pJ", "model pJ", "divergence"]);
        let mut worst = 0.0f64;
        for r in &validation {
            assert!(
                r.counts_bit_exact,
                "{}: streamed activity counts diverge from the run counters",
                r.name
            );
            worst = worst.max(r.divergence);
            vt.row(&[
                r.name.clone(),
                format!("{:.1}", r.streamed_pj),
                format!("{:.1}", r.model_pj),
                format!("{:.2e}", r.divergence),
            ]);
        }
        assert!(
            worst <= 1e-3,
            "streamed energy diverges from the postprocessed model by {worst:.2e} (> 0.1%)"
        );
        let _ = writeln!(text, "{}", vt.render());
        let _ = writeln!(text, "counts bit-exact; worst divergence {worst:.2e}\n");
        snap.scalar("max_energy_divergence", worst)
            .count("energy_validated_workloads", validation.len() as u64);
        add_table(
            &mut snap,
            "Energy validation: streamed vs postprocessed",
            &vt,
        );
    }
    Ok(ExperimentReport {
        name: "fig13",
        text,
        snapshot: snap,
    })
}

fn geomean_slowdown(rows: &[AblationRow]) -> f64 {
    geomean(&rows.iter().map(AblationRow::slowdown).collect::<Vec<_>>())
}

/// Sec. III-C, layout: dropping input reuse costs noticeably overall,
/// and no layer gets meaningfully faster (a single-chunk layer such as
/// DLRM has nothing to refetch and loses little). The penalty is milder
/// than the paper's "significant drop" because the split row/column
/// command buses let GWRITE reloads overlap the activation chain — see
/// EXPERIMENTS.md.
fn check_ablation_layout(rows: &[AblationRow]) -> Result<(), String> {
    let g = geomean_slowdown(rows);
    ensure!(g > 1.05, "no-reuse should cost noticeably overall, got {g}");
    for r in rows {
        ensure!(
            r.slowdown() > 0.95,
            "{}: no-reuse cannot be meaningfully faster ({})",
            r.name,
            r.slowdown()
        );
    }
    Ok(())
}

/// Sec. III-C, latches: the four-latch option performs "virtually
/// similarly" to full Newton.
fn check_ablation_latches(rows: &[AblationRow]) -> Result<(), String> {
    let g = geomean_slowdown(rows);
    ensure!(
        (0.8..1.6).contains(&g),
        "the 4-latch option should be roughly comparable to full Newton, got {g}"
    );
    Ok(())
}

fn report_ablations(base: &NewtonConfig, threads: usize) -> Result<ExperimentReport, AimError> {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Ablation (Sec. III-C): interleaved full-reuse vs Newton-no-reuse"
    );
    let rows = ablation_layout_with(base, threads)?;
    enforce("Ablation (layout)", check_ablation_layout(&rows));
    let mut snap = MetricsSnapshot::new("ablations");
    let mut t = Table::new(&["layer", "Newton", "no-reuse", "slowdown"]);
    let mut slow = Vec::new();
    for r in &rows {
        slow.push(r.slowdown());
        t.row(&[
            r.name.clone(),
            fns(r.newton_ns),
            fns(r.variant_ns),
            fx(r.slowdown()),
        ]);
    }
    t.row(&[
        "geomean".into(),
        String::new(),
        String::new(),
        fx(geomean(&slow)),
    ]);
    let _ = writeln!(text, "{}", t.render());
    snap.scalar("no_reuse_geomean_slowdown", geomean(&slow));
    add_table(
        &mut snap,
        "Ablation: interleaved full-reuse vs no-reuse",
        &t,
    );

    let _ = writeln!(
        text,
        "Ablation (Sec. III-C): four result latches per bank vs full Newton"
    );
    let rows = ablation_latches_with(base, threads)?;
    enforce("Ablation (latches)", check_ablation_latches(&rows));
    let mut t = Table::new(&["layer", "Newton", "4-latch", "ratio"]);
    for r in &rows {
        t.row(&[
            r.name.clone(),
            fns(r.newton_ns),
            fns(r.variant_ns),
            fx(r.slowdown()),
        ]);
    }
    let _ = writeln!(text, "{}", t.render());
    add_table(&mut snap, "Ablation: four result latches per bank", &t);
    Ok(ExperimentReport {
        name: "ablations",
        text,
        snapshot: snap,
    })
}

/// Sec. III-E: on every DRAM family the measurement is within 10 % of
/// that family's refined model and shows a clear PIM advantage; LPDDR's
/// slow column cadence hides more of the activation overhead, so its
/// speedup over its own ideal is the closest to its bank count.
fn check_ext_dram_families(rows: &[FamilyRow]) -> Result<(), String> {
    for r in rows {
        let rel = (r.measured_x - r.predicted_x).abs() / r.predicted_x;
        ensure!(
            rel < 0.10,
            "{}: measured {} vs model {}",
            r.name,
            r.measured_x,
            r.predicted_x
        );
        ensure!(
            r.measured_x > 2.0,
            "{}: no clear PIM advantage ({})",
            r.name,
            r.measured_x
        );
    }
    let per_bank = |family: &str| {
        rows.iter()
            .find(|r| r.name.starts_with(family))
            .map(|r| r.measured_x / r.banks as f64)
            .ok_or(format!("no {family} row"))
    };
    let (lp, hbm) = (per_bank("LPDDR")?, per_bank("HBM")?);
    ensure!(
        lp > hbm,
        "LPDDR should sit closer to its bank count than HBM: {lp} vs {hbm}"
    );
    Ok(())
}

/// Sec. V-C: channel scaling is near-linear — six times the channels
/// keep at least 70 % parallel efficiency (the residue is row-group
/// quantization, not an Amdahl term) — and monotone.
fn check_ext_channel_sweep(rows: &[ChannelSweepRow]) -> Result<(), String> {
    let Some(last) = rows.last() else {
        return Err("no rows".into());
    };
    ensure!(
        last.efficiency > 0.7,
        "channel scaling efficiency {:.2} at {} channels",
        last.efficiency,
        last.channels
    );
    for w in rows.windows(2) {
        ensure!(
            w[1].newton_ns <= w[0].newton_ns * 1.001,
            "{} channels slower than {}",
            w[1].channels,
            w[0].channels
        );
    }
    Ok(())
}

fn report_extensions(base: &NewtonConfig, threads: usize) -> Result<ExperimentReport, AimError> {
    let mut text = String::new();
    let _ = writeln!(text, "Extension (Sec. III-E): Newton across DRAM families");
    let rows = ext_dram_families_with(base, threads)?;
    enforce("Extension (DRAM families)", check_ext_dram_families(&rows));
    let mut snap = MetricsSnapshot::new("extensions");
    let mut t = Table::new(&["family", "banks", "measured", "model"]);
    for r in &rows {
        t.row(&[
            r.name.into(),
            r.banks.to_string(),
            fx(r.measured_x),
            fx(r.predicted_x),
        ]);
    }
    let _ = writeln!(text, "{}", t.render());
    add_table(&mut snap, "Extension: DRAM families", &t);

    let _ = writeln!(text, "Extension (Sec. V-C): channel scaling (GNMTs1)");
    let rows = ext_channel_sweep_with(base, threads)?;
    enforce(
        "Extension (channel scaling)",
        check_ext_channel_sweep(&rows),
    );
    let mut t = Table::new(&["channels", "layer time", "efficiency"]);
    for r in &rows {
        t.row(&[
            r.channels.to_string(),
            fns(r.newton_ns),
            format!("{:.0}%", r.efficiency * 100.0),
        ]);
    }
    let _ = writeln!(text, "{}", t.render());
    add_table(&mut snap, "Extension: channel scaling", &t);
    Ok(ExperimentReport {
        name: "extensions",
        text,
        snapshot: snap,
    })
}

/// Starts the snapshot of a sweep over the shared resident matrix with
/// the scalars that say what ran.
fn sweep_snapshot(experiment: &str, workload: &str, seed: u64) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::new(experiment);
    snap.text("workload", workload)
        .count("seed", seed)
        .count("channels", SWEEP_CHANNELS as u64)
        .count("matrix_rows", SWEEP_SHAPE.0 as u64)
        .count("matrix_cols", SWEEP_SHAPE.1 as u64);
    snap
}

fn report_campaign(base: &NewtonConfig, threads: usize) -> Result<ExperimentReport, AimError> {
    let workload = format!(
        "{}x{}, {SWEEP_CHANNELS} channels",
        SWEEP_SHAPE.0, SWEEP_SHAPE.1
    );
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Fault campaign: raw bit-error rate vs silent data corruption, SECDED ECC off/on \
         ({workload}, seed {CAMPAIGN_SEED})"
    );
    let rows = campaign_with(base, threads)?;
    let mut snap = sweep_snapshot("campaign", &workload, CAMPAIGN_SEED);
    let mut t = Table::new(&[
        "rate",
        "ecc",
        "injected",
        "sdc",
        "corrected",
        "uncorr",
        "attempts",
        "scrubs",
        "retired",
    ]);
    for r in &rows {
        let ecc = if r.ecc { "on" } else { "off" };
        let p = format!("rate_{}/ecc_{ecc}", r.rate);
        snap.count(&format!("{p}/injected"), r.injected)
            .count(&format!("{p}/sdc"), r.sdc)
            .count(&format!("{p}/corrected"), r.corrected)
            .count(&format!("{p}/uncorrectable"), r.uncorrectable);
        r.report.record_into(&mut snap, &p);
        t.row(&[
            r.rate.into(),
            ecc.into(),
            r.injected.to_string(),
            r.sdc.to_string(),
            r.corrected.to_string(),
            r.uncorrectable.to_string(),
            r.report.attempts.to_string(),
            r.report.scrub_rewrites.to_string(),
            r.report.retired_banks.len().to_string(),
        ]);
    }
    let _ = writeln!(text, "{}", t.render());
    add_table(&mut snap, "Fault campaign: BER sweep, ECC off/on", &t);
    Ok(ExperimentReport {
        name: "campaign",
        text,
        snapshot: snap,
    })
}

fn report_serving(base: &NewtonConfig, threads: usize) -> Result<ExperimentReport, AimError> {
    let workload = format!(
        "{}x{}, {SWEEP_CHANNELS} channels, {SERVING_REQUESTS} q/cell",
        SWEEP_SHAPE.0, SWEEP_SHAPE.1
    );
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Serving sweep: arrivals x chaos, ECC on, {:.0} us deadline ({workload}, seed {SERVING_SEED})",
        SERVING_DEADLINE_NS / 1e3
    );
    let rows = serving_with(base, threads)?;
    let mut snap = sweep_snapshot("serving", &workload, SERVING_SEED);
    snap.count("requests_per_cell", SERVING_REQUESTS as u64)
        .scalar("slo_deadline_ns", SERVING_DEADLINE_NS);
    let mut t = Table::new(&[
        "cell",
        "completed",
        "shed",
        "expired",
        "retries",
        "retired",
        "sdc",
        "p50_ns",
        "p99_ns",
        "p999_ns",
        "qps",
        "j_per_q",
    ]);
    for row in &rows {
        let r = &row.report;
        r.record_into(&mut snap, row.name);
        t.row(&[
            row.name.into(),
            r.completed.to_string(),
            r.shed.to_string(),
            r.expired.to_string(),
            r.retries.to_string(),
            r.recovery.retired_banks.len().to_string(),
            r.sdc.to_string(),
            format!("{:.0}", r.p50_ns),
            format!("{:.0}", r.p99_ns),
            format!("{:.0}", r.p999_ns),
            format!("{:.0}", r.qps),
            format!("{:.3e}", r.joules_per_query),
        ]);
    }
    let _ = writeln!(text, "{}", t.render());
    add_table(
        &mut snap,
        "Serving sweep: arrivals x chaos, ECC on, 100 us SLO",
        &t,
    );
    Ok(ExperimentReport {
        name: "serving",
        text,
        snapshot: snap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_canonical_order_and_substring_matched() {
        let all = HarnessOptions::default();
        assert_eq!(all.selected(), EXPERIMENTS);
        let figs = HarnessOptions {
            filter: vec!["fig1".into()],
            ..HarnessOptions::default()
        };
        assert_eq!(figs.selected(), ["fig10", "fig11", "fig12", "fig13"]);
        // Filter order never reorders the canonical sequence.
        let rev = HarnessOptions {
            filter: vec!["table3".into(), "table2".into()],
            ..HarnessOptions::default()
        };
        assert_eq!(rev.selected(), ["table2", "table3"]);
        assert!(!rev.wants("fig08"));
    }

    #[test]
    fn shape_checks_refuse_rows_that_break_the_claim() {
        use newton_core::config::OptLevel;
        let ladder = |speedups: [f64; 6]| -> Vec<LadderRow> {
            OptLevel::ladder()
                .into_iter()
                .zip(speedups)
                .map(|(level, speedup_x)| LadderRow { level, speedup_x })
                .collect()
        };
        assert_eq!(
            check_fig09(&ladder([1.5, 12.0, 30.0, 40.0, 48.0, 54.0])),
            Ok(())
        );
        let dip = check_fig09(&ladder([1.5, 12.0, 30.0, 28.0, 48.0, 54.0])).unwrap_err();
        assert!(dip.contains("Reuse") && dip.contains("regressed"), "{dip}");
        let late = check_fig09(&ladder([1.5, 3.0, 30.0, 40.0, 48.0, 54.0])).unwrap_err();
        assert!(late.contains("gang should be the largest step"), "{late}");

        let sweep = |geomean: [f64; 3]| {
            vec![
                BankSweepRow {
                    name: "GNMTs1".into(),
                    speedup_x: [1.0, 5.0, 2.0],
                },
                BankSweepRow {
                    name: "geomean".into(),
                    speedup_x: geomean,
                },
            ]
        };
        assert_eq!(check_fig10(&sweep([28.0, 54.0, 96.0])), Ok(()));
        let superlinear = check_fig10(&sweep([28.0, 54.0, 110.0])).unwrap_err();
        assert!(superlinear.contains("less than double"), "{superlinear}");
        assert!(check_fig10(&sweep([28.0, 27.0, 50.0])).is_err());
        assert!(check_fig10(&[]).is_err());
    }

    #[test]
    fn reports_are_identical_across_worker_counts() {
        // table2, fig07 and campaign are cheap enough for a debug test
        // and exercise a pure-table job, a simulation-backed job and one
        // that spreads its own cells over the pool.
        let run = |threads: usize| {
            let opts = HarnessOptions {
                filter: vec!["table2".into(), "fig07".into(), "campaign".into()],
                threads: Some(threads),
                ..HarnessOptions::default()
            };
            run_experiments(&opts).expect("harness run")
        };
        let serial = run(1);
        let names: Vec<&str> = serial.iter().map(|r| r.name).collect();
        assert_eq!(names, ["table2", "fig07", "campaign"]);
        for threads in [2, 8] {
            let par = run(threads);
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.text, b.text, "text differs at {threads} threads");
                assert_eq!(
                    a.snapshot.render(),
                    b.snapshot.render(),
                    "snapshot differs at {threads} threads"
                );
            }
        }
    }
}
