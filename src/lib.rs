//! # newton-aim
//!
//! A from-scratch Rust reproduction of **Newton: A DRAM-maker's
//! Accelerator-in-Memory (AiM) Architecture for Machine Learning**
//! (MICRO 2020) — the architecture that became SK hynix's GDDR6-AiM
//! product line.
//!
//! This umbrella crate re-exports the whole system:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`bf16`] | software bfloat16 arithmetic + adder-tree semantics |
//! | [`dram`] | cycle-accurate HBM2E-like DRAM channel simulator |
//! | [`core`] | the Newton AiM device, command set, layouts, controller |
//! | [`workloads`] | Table II benchmarks + end-to-end model graphs |
//! | [`baselines`] | Ideal Non-PIM and a Titan-V-like GPU model |
//! | [`model`] | Sec. III-F performance model + Fig. 13 power model |
//! | [`mod@bench`] | one experiment function per table/figure |
//! | [`isa`] | `.aim` text-trace frontend + multi-backend conformance |
//!
//! # Quickstart
//!
//! ```
//! use newton_aim::core::config::NewtonConfig;
//! use newton_aim::core::system::NewtonSystem;
//! use newton_aim::workloads::{generator, MvShape};
//!
//! // Simulate one matrix-vector product on a 2-channel Newton device.
//! let mut cfg = NewtonConfig::paper_default();
//! cfg.channels = 2;
//! let shape = MvShape::new(64, 512);
//! let matrix = generator::matrix(shape, 1);
//! let vector = generator::vector(shape.n, 1);
//!
//! let mut system = NewtonSystem::new(cfg)?;
//! let run = system.run_mv(&matrix, shape.m, shape.n, &vector)?;
//! println!("computed {} outputs in {:.0} ns", run.output.len(), run.elapsed_ns);
//! # Ok::<(), newton_aim::core::AimError>(())
//! ```
//!
//! Run `cargo run --release -p newton-bench --bin reproduce` to regenerate
//! every table and figure of the paper's evaluation (`-- --only fig09`
//! for one). See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for paper-vs-measured results.

#![forbid(unsafe_code)]

pub use newton_baselines as baselines;
pub use newton_bench as bench;
pub use newton_bf16 as bf16;
pub use newton_core as core;
pub use newton_dram as dram;
pub use newton_isa as isa;
pub use newton_model as model;
pub use newton_trace as trace;
pub use newton_workloads as workloads;
