//! Newton: a DRAM-maker's accelerator-in-memory (AiM) for machine learning
//! — the architecture model at the heart of this reproduction.
//!
//! Newton (MICRO 2020) places *minimal* compute next to every DRAM bank —
//! 16 bf16 multipliers feeding a pipelined adder tree and a single bf16
//! result latch — plus one DRAM-row-wide global input-vector buffer shared
//! by the whole channel, and drives it all with DRAM-*like* commands
//! (Table I: `GWRITE#`, `G_ACT#`, `COMP#`, `READRES`). This crate models
//! that device bit-exactly (real bf16 arithmetic on real row bytes) and
//! cycle-accurately (every command validated by the `newton-dram`
//! constraint engine).
//!
//! Module map:
//!
//! * [`config`]: the optimization flags of Sec. III-D/V-B (ganged compute,
//!   complex commands, interleaved reuse, 4-bank ganged activation,
//!   aggressive tFAW) and the Fig. 9 cumulative ladder.
//! * [`command`]: the AiM command set and command traces (Fig. 7).
//! * [`device`]: the per-channel compute state — global buffer, per-bank
//!   MAC units with result latches, activation LUT.
//! * [`layout`]: the DRAM-row-wide chunk-interleaved matrix layout
//!   (Sec. III-A, Fig. 3) and the Newton-no-reuse alternative (Sec. III-C).
//! * [`tiling`]: the tiled iteration-space schedule of Algorithm 1.
//! * [`controller`]: the host memory controller — generates the timed
//!   command stream for one channel under any optimization configuration,
//!   with refresh interposition.
//! * [`parallel`]: the deterministic host-thread execution layer —
//!   [`ParallelPolicy`], the `NEWTON_THREADS`
//!   override, and index-ordered scoped-thread map helpers.
//! * [`plan`]: one channel's share of a loaded matrix — its mapping and
//!   tiled schedule, built once per resident matrix.
//! * [`system`]: multi-channel execution, layer and end-to-end model runs,
//!   host-side reduction/activation/batch-norm.
//! * [`export`]: Chrome trace-event (Perfetto) export of command traces.
//!
//! # Example: one fully-optimized matrix–vector product
//!
//! ```
//! use newton_core::{config::NewtonConfig, system::NewtonSystem};
//! use newton_bf16::Bf16;
//!
//! // A small 32 x 64 matrix on a 1-channel Newton device.
//! let mut cfg = NewtonConfig::paper_default();
//! cfg.channels = 1;
//! let m = 32;
//! let n = 64;
//! let matrix: Vec<Bf16> = (0..m * n).map(|i| Bf16::from_f32((i % 7) as f32 * 0.25)).collect();
//! let vector: Vec<Bf16> = (0..n).map(|i| Bf16::from_f32(1.0 + (i % 3) as f32)).collect();
//!
//! let mut system = NewtonSystem::new(cfg)?;
//! let run = system.run_mv(&matrix, m, n, &vector)?;
//! // The simulated device computed the real product:
//! let expect: f32 = (0..n).map(|j| matrix[j].to_f32() * vector[j].to_f32()).sum();
//! assert!((run.output[0] - expect).abs() < 0.5);
//! # Ok::<(), newton_core::AimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod command;
pub mod config;
pub mod controller;
pub mod device;
pub mod error;
pub mod export;
pub mod layout;
pub mod lut;
pub mod parallel;
pub mod plan;
pub mod system;
pub mod tiling;
pub mod timeline;

pub use config::{NewtonConfig, OptFlags, OptLevel, TelemetryConfig};
pub use error::AimError;
pub use export::export_chrome_trace;
pub use parallel::ParallelPolicy;
pub use system::RecoveryReport;
