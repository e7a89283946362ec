//! Isolated probes: one layer's public function called directly on
//! workload-sized inputs, so a per-layer cost has a number of its own.

use std::hint::black_box;
use std::time::Instant;

use crate::api::{
    comp_subchunks16_multi, generator, model_validation, reference, Bf16, IdealNonPim, MvShape,
    NewtonSystem, TreePrecision,
};
use crate::stats::{geomean, median};
use crate::workloads::{out_of_bound, Workload};

/// What set-up learns by running each of the workload's GEMV shapes once,
/// cold, beside the Ideal Non-PIM baseline on the same DRAM.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpeedupProbe {
    /// Geomean of ideal time over cold `run_mv` time.
    pub speedup_vs_ideal: f64,
    /// Mean Ideal Non-PIM simulated time per query.
    pub ideal_ns_per_query: f64,
    /// GEMVs probed, and how many of their outputs fell outside the bf16
    /// error bound of the exact reference.
    pub cases: u64,
    pub failed: u64,
    pub wall_s: f64,
}

/// Runs the probe.
///
/// # Errors
///
/// Library errors from the baseline or the system.
pub fn speedup_vs_ideal(w: &dyn Workload) -> Result<SpeedupProbe, String> {
    let started = Instant::now();
    let cfg = w.config();
    let ideal = IdealNonPim::new(cfg.dram.clone(), cfg.channels);
    let mut ratios = Vec::new();
    let mut ideal_ns = Vec::new();
    let mut failed = 0;
    for case in w.probe_cases() {
        let MvShape { m, n } = case.shape;
        let base = ideal
            .run_layer(m, n)
            .map_err(|e| format!("ideal baseline: {e}"))?;
        let mut sys = NewtonSystem::new(cfg.clone()).map_err(|e| format!("system: {e}"))?;
        let run = sys
            .run_mv(case.matrix, m, n, case.vector)
            .map_err(|e| format!("cold run_mv: {e}"))?;
        let want = reference::mv_f64(case.matrix, m, n, case.vector);
        failed += u64::from(out_of_bound(&run.output, &want, n));
        ratios.push(base.time_ns / run.elapsed_ns);
        ideal_ns.push(base.time_ns);
    }
    Ok(SpeedupProbe {
        speedup_vs_ideal: geomean(&ratios),
        ideal_ns_per_query: ideal_ns.iter().sum::<f64>() / ideal_ns.len().max(1) as f64,
        cases: ideal_ns.len() as u64,
        failed,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// BERT S1's weight plane as the COMP kernel reads it: 1024 x 1024 f32.
const STREAM_ELEMS: usize = 1 << 20;

/// Streaming f32 sum over a 4 MiB buffer, in GB/s: what this host can
/// read, to put beside what the COMP kernel reads.
#[must_use]
pub fn host_stream_gbytes_per_s() -> f64 {
    let buf: Vec<f32> = (0..STREAM_ELEMS).map(|i| (i % 251) as f32).collect();
    let ns = median_ns(25, || {
        let mut lanes = [0f32; 16];
        for chunk in black_box(&buf).chunks_exact(16) {
            for (l, v) in lanes.iter_mut().zip(chunk) {
                *l += v;
            }
        }
        black_box(lanes);
    });
    (STREAM_ELEMS * 4) as f64 / ns
}

/// One row-set of the COMP kernel: 16 bank planes of 512 elements against
/// one input plane.
const COMP_BANKS: usize = 16;
const COMP_ROW_ELEMS: usize = 512;
const COMP_CALLS_PER_REP: usize = 256;

/// `comp_subchunks16_multi` on one row-set: (ns per call, GB/s). The bytes
/// are computed from the plane sizes (17 f32 planes of 512), not measured.
#[must_use]
pub fn comp_multi(seed: u64) -> (f64, f64) {
    // One buffer, each plane a cache line further into its 2 KiB than the
    // one before: 17 separately allocated planes land wherever the heap
    // puts them, and when they alias in L1 the same call takes twice as
    // long, which says nothing about the kernel.
    const STRIDE: usize = COMP_ROW_ELEMS + 16;
    let mut buf = vec![0f32; (COMP_BANKS + 1) * STRIDE];
    for (k, plane) in buf.chunks_exact_mut(STRIDE).enumerate() {
        let values = generator::vector(COMP_ROW_ELEMS, seed.wrapping_add(k as u64));
        for (dst, src) in plane.iter_mut().zip(&values) {
            *dst = src.to_f32();
        }
    }
    let mut rows = buf.chunks_exact(STRIDE).map(|p| &p[..COMP_ROW_ELEMS]);
    let planes: Vec<&[f32]> = rows.by_ref().take(COMP_BANKS).collect();
    let inputs = rows.next().expect("one plane beyond the banks");
    let ns = median_ns(15, || {
        let mut latches = [Bf16::ZERO; COMP_BANKS];
        for _ in 0..COMP_CALLS_PER_REP {
            comp_subchunks16_multi(
                &mut latches,
                black_box(&planes),
                black_box(inputs),
                TreePrecision::Wide,
            );
        }
        black_box(latches);
    }) / COMP_CALLS_PER_REP as f64;
    let bytes = ((COMP_BANKS + 1) * COMP_ROW_ELEMS * 4) as f64;
    (ns, bytes / ns)
}

/// Host nanoseconds per simulated command when every command issues live:
/// Ideal Non-PIM streaming BERT S1 through one channel.
///
/// # Errors
///
/// Library errors from the baseline.
pub fn ideal_ns_per_command() -> Result<f64, String> {
    let ideal = IdealNonPim::paper_default();
    let mut commands = 0;
    let mut failure = None;
    let ns = median_ns(5, || match ideal.run_layer_detailed(1024, 1024) {
        Ok((_, summary)) => commands = summary.commands,
        Err(e) => failure = Some(format!("ideal baseline: {e}")),
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(ns / commands.max(1) as f64),
    }
}

/// `generator::matrix` on a BERT S1 sized matrix, nanoseconds per element.
#[must_use]
pub fn generate_ns_per_elem(seed: u64) -> f64 {
    let shape = MvShape::new(1024, 1024);
    median_ns(3, || {
        black_box(generator::matrix(shape, black_box(seed)));
    }) / shape.macs() as f64
}

/// |measured - refined model| / refined model, in percent (Sec. III-F).
///
/// # Errors
///
/// Library errors from the simulator.
pub fn refined_speedup_error_pct() -> Result<f64, String> {
    let v = model_validation().map_err(|e| format!("model validation: {e}"))?;
    Ok(100.0 * (v.measured_x - v.refined_model_x).abs() / v.refined_model_x)
}
