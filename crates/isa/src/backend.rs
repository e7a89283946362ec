//! The multi-backend execution surface for lowered MV traces.
//!
//! A [`Backend`] consumes one recognized [`MvTrace`] and produces a
//! [`BackendRun`]. Three families ship:
//!
//! * [`NewtonBackend`] — the cycle-accurate simulator. When the trace's
//!   declared geometry matches the backend's configuration, the stored
//!   bytes are replayed **physically** (byte-identical to the API path);
//!   otherwise the recovered logical matrix is re-laid-out for the
//!   backend's own geometry (e.g. replaying an HBM2E trace on GDDR6).
//! * [`IdealBackend`] — the Ideal Non-PIM roofline (analytic timing,
//!   host-computed f32 reference outputs).
//! * [`GpuBackend`] — the calibrated Titan V model (analytic timing,
//!   host-computed outputs).

use newton_baselines::{IdealNonPim, TitanVModel};
use newton_core::config::NewtonConfig;
use newton_core::system::NewtonSystem;
use newton_dram::timing::Cycle;
use newton_workloads::MvShape;

use crate::error::IsaError;
use crate::mv::MvTrace;

/// One backend's execution of a trace.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// Which backend produced this run.
    pub backend: String,
    /// The output vector (raw accumulator sums, host precision).
    pub outputs: Vec<f32>,
    /// Modeled wall-clock time in nanoseconds.
    pub elapsed_ns: f64,
    /// End-to-end cycles (cycle-accurate backends only).
    pub cycles: Option<Cycle>,
}

/// Anything that can execute a recognized MV trace.
pub trait Backend {
    /// Stable display name (used in snapshots and reports).
    fn name(&self) -> &str;

    /// Executes the trace.
    ///
    /// # Errors
    ///
    /// Backend-specific shape or substrate errors.
    fn run(&mut self, trace: &MvTrace) -> Result<BackendRun, IsaError>;
}

impl std::fmt::Debug for dyn Backend + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Backend({})", self.name())
    }
}

/// The cycle-accurate Newton simulator as a trace backend.
#[derive(Debug)]
pub struct NewtonBackend {
    name: String,
    config: NewtonConfig,
}

impl NewtonBackend {
    /// The paper-default Newton-on-HBM2E system.
    #[must_use]
    pub fn hbm2e() -> NewtonBackend {
        NewtonBackend::with_config("newton-hbm2e", NewtonConfig::paper_default())
    }

    /// Newton mapped onto a GDDR6-like device (16 channels, 2 KiB rows).
    #[must_use]
    pub fn gddr6() -> NewtonBackend {
        NewtonBackend::with_config("newton-gddr6", NewtonConfig::gddr6_aim())
    }

    /// Any configuration under any display name.
    #[must_use]
    pub fn with_config(name: &str, config: NewtonConfig) -> NewtonBackend {
        NewtonBackend {
            name: name.to_string(),
            config,
        }
    }
}

impl Backend for NewtonBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&mut self, trace: &MvTrace) -> Result<BackendRun, IsaError> {
        let mut system = NewtonSystem::new(self.config.clone())?;
        let run = if trace.geometry.matches(&self.config) {
            // Same geometry: replay the trace's stored bytes physically.
            let loaded = trace.apply_physical(&mut system)?;
            system.run_resident(&loaded, &trace.vector)?
        } else {
            // Foreign geometry: re-lay-out the recovered logical matrix.
            let loaded = system.load_matrix(&trace.matrix, trace.geometry.m, trace.geometry.n)?;
            system.run_resident(&loaded, &trace.vector)?
        };
        Ok(BackendRun {
            backend: self.name.clone(),
            outputs: run.output,
            elapsed_ns: run.elapsed_ns,
            cycles: Some(run.cycles),
        })
    }
}

/// Host-side f32 reference product (what the analytic backends emit).
fn host_outputs(trace: &MvTrace) -> Vec<f32> {
    let (m, n) = (trace.geometry.m, trace.geometry.n);
    let vector: Vec<f32> = trace.vector.iter().map(|v| v.to_f32()).collect();
    (0..m)
        .map(|i| {
            trace.matrix[i * n..(i + 1) * n]
                .iter()
                .zip(&vector)
                .map(|(w, x)| w.to_f32() * x)
                .sum()
        })
        .collect()
}

/// The Ideal Non-PIM roofline as a trace backend.
#[derive(Debug)]
pub struct IdealBackend {
    model: IdealNonPim,
}

impl IdealBackend {
    /// The paper-default roofline.
    #[must_use]
    pub fn paper_default() -> IdealBackend {
        IdealBackend {
            model: IdealNonPim::paper_default(),
        }
    }
}

impl Backend for IdealBackend {
    fn name(&self) -> &str {
        "ideal-non-pim"
    }

    fn run(&mut self, trace: &MvTrace) -> Result<BackendRun, IsaError> {
        let outcome = self
            .model
            .run_layer(trace.geometry.m, trace.geometry.n)
            .map_err(IsaError::from)?;
        Ok(BackendRun {
            backend: self.name().to_string(),
            outputs: host_outputs(trace),
            elapsed_ns: outcome.time_ns,
            cycles: None,
        })
    }
}

/// The calibrated Titan V GPU model as a trace backend.
#[derive(Debug)]
pub struct GpuBackend {
    model: TitanVModel,
}

impl GpuBackend {
    /// The published-calibration model.
    #[must_use]
    pub fn titan_v() -> GpuBackend {
        GpuBackend {
            model: TitanVModel::new(),
        }
    }
}

impl Backend for GpuBackend {
    fn name(&self) -> &str {
        "gpu-titan-v"
    }

    fn run(&mut self, trace: &MvTrace) -> Result<BackendRun, IsaError> {
        let shape = MvShape::new(trace.geometry.m, trace.geometry.n);
        Ok(BackendRun {
            backend: self.name().to_string(),
            outputs: host_outputs(trace),
            elapsed_ns: self.model.mv_time_ns(shape, 1),
            cycles: None,
        })
    }
}

/// The default comparison fleet: Newton-HBM2E, Newton-GDDR6, the Ideal
/// Non-PIM roofline, and the Titan V model.
#[must_use]
pub fn default_backends() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(NewtonBackend::hbm2e()),
        Box::new(NewtonBackend::gddr6()),
        Box::new(IdealBackend::paper_default()),
        Box::new(GpuBackend::titan_v()),
    ]
}
