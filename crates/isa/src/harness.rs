//! The comparison harness: one trace, many backends, versioned snapshots.
//!
//! Two snapshot shapes ship:
//!
//! * [`run_backends`] — the multi-backend comparison (`isa_backends`):
//!   one table row per backend plus the max absolute error of each
//!   backend's outputs against a host f64 reference.
//! * [`conformance_snapshot`] — the byte-identity probe
//!   (`isa_conformance`): cycles, every `AimStats` counter, and an
//!   FNV-1a digest of the output bits. The CLI's `diff` subcommand
//!   renders this snapshot for the trace-driven and API-driven paths
//!   into two directories and `diff -r` proves them identical.

use newton_core::system::SystemRun;
use newton_trace::MetricsSnapshot;

use crate::backend::{Backend, BackendRun};
use crate::error::IsaError;
use crate::mv::MvTrace;

/// All backends' runs of one trace, plus host-reference error bounds.
#[derive(Debug)]
pub struct BackendReport {
    /// One run per backend, in execution order.
    pub runs: Vec<BackendRun>,
    /// Per-backend max absolute error vs the reference.
    pub max_abs_err: Vec<f64>,
}

/// Runs `trace` on every backend and collects error bounds.
///
/// # Errors
///
/// The first backend failure aborts the report.
pub fn run_backends(
    trace: &MvTrace,
    backends: &mut [Box<dyn Backend>],
) -> Result<BackendReport, IsaError> {
    let (m, n) = (trace.geometry.m, trace.geometry.n);
    let vector: Vec<f64> = trace.vector.iter().map(|v| f64::from(v.to_f32())).collect();
    let reference: Vec<f64> = (0..m)
        .map(|i| {
            trace.matrix[i * n..(i + 1) * n]
                .iter()
                .zip(&vector)
                .map(|(w, x)| f64::from(w.to_f32()) * x)
                .sum()
        })
        .collect();
    let mut runs = Vec::with_capacity(backends.len());
    let mut max_abs_err = Vec::with_capacity(backends.len());
    for backend in backends {
        let run = backend.run(trace)?;
        let err = run
            .outputs
            .iter()
            .zip(&reference)
            .map(|(o, r)| (f64::from(*o) - r).abs())
            .fold(0.0_f64, f64::max);
        max_abs_err.push(err);
        runs.push(run);
    }
    Ok(BackendReport { runs, max_abs_err })
}

impl BackendReport {
    /// The versioned multi-backend comparison snapshot.
    #[must_use]
    pub fn snapshot(&self, trace: &MvTrace) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new("isa_backends");
        snap.count("m", trace.geometry.m as u64)
            .count("n", trace.geometry.n as u64)
            .count("backends", self.runs.len() as u64)
            .count("mac_sets", trace.mac_sets as u64);
        let columns: Vec<String> = ["backend", "elapsed_ns", "cycles", "max_abs_err"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let rows: Vec<Vec<String>> = self
            .runs
            .iter()
            .zip(&self.max_abs_err)
            .map(|(run, err)| {
                vec![
                    run.backend.clone(),
                    format!("{:.3}", run.elapsed_ns),
                    run.cycles.map_or_else(|| "-".into(), |c| c.to_string()),
                    format!("{err:.6e}"),
                ]
            })
            .collect();
        snap.table("backend comparison", &columns, &rows);
        snap
    }
}

/// FNV-1a 64-bit over the exact little-endian f32 bit patterns.
#[must_use]
fn output_digest(outputs: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for v in outputs {
        for b in v.to_bits().to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The byte-identity snapshot for one `SystemRun`: identical runs render
/// identical snapshots, so `diff -r` over two snapshot directories is a
/// conformance check.
#[must_use]
pub fn conformance_snapshot(run: &SystemRun) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::new("isa_conformance");
    let s = &run.stats;
    snap.count("cycles", run.cycles)
        .scalar("elapsed_ns", run.elapsed_ns)
        .count("outputs", run.output.len() as u64)
        .text(
            "output_digest",
            &format!("{:016x}", output_digest(&run.output)),
        )
        .count("gwrite_commands", s.gwrite_commands)
        .count("compute_commands", s.compute_commands)
        .count("readres_commands", s.readres_commands)
        .count("activate_commands", s.activate_commands)
        .count("row_sets", s.row_sets)
        .count("refreshes", s.refreshes)
        .count("ecc_corrected", s.ecc_corrected)
        .count("ecc_uncorrectable", s.ecc_uncorrectable)
        .count("channels", run.channel_summaries.len() as u64);
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_bit_sensitive() {
        let a = output_digest(&[1.0, 2.0]);
        let b = output_digest(&[1.0, 2.000_000_2]);
        assert_ne!(a, b);
        assert_eq!(a, output_digest(&[1.0, 2.0]));
        // +0.0 and -0.0 compare equal but are different bit patterns —
        // the digest must see through float equality.
        assert_ne!(output_digest(&[0.0]), output_digest(&[-0.0]));
    }
}
