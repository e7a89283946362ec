//! Trace-driven AiM ISA frontend for the Newton reproduction.
//!
//! Every workload so far drove the controller through Rust APIs. This
//! crate speaks the *instruction set* instead: the ISR layer of SK
//! hynix's AiM simulator (the productized descendant of Newton) — host
//! instructions like `WR_SBK`, `WR_ABK`, `WR_GB`, `WR_BIAS`, `RD_MAC`,
//! `RD_AF` carrying 256-bit GPR payloads, channel masks, and CFR
//! configuration writes — serialized as line-oriented `.aim` text
//! traces.
//!
//! Module map:
//!
//! * [`instr`]: the typed [`Instr`] enum, its canonical
//!   text rendering, and the lossless line parser.
//! * [`program`]: whole-trace parsing ([`Program`])
//!   and the CFR-declared trace geometry.
//! * [`mv`]: recognition of a lowered matrix–vector trace
//!   ([`MvTrace`](mv::MvTrace)) and its *physical* replay into channel
//!   storage — the path that is byte-identical to the API-driven
//!   `NewtonSystem::run_mv`.
//! * [`interp`]: the free-form timed interpreter (`newton run`): MAC,
//!   readout and COPY instructions map onto the `newton-core`
//!   controller's row-set operations, the ones the API path's drain
//!   runs, so refresh, `OptFlags` and the engine are the controller's;
//!   it honors the AiM-vs-conventional serialization rule modeled in
//!   `newton-serve` (queued conventional requests drain before the next
//!   AiM instruction may issue).
//! * [`generate`]: the trace-generation library — lowers Table II
//!   workloads (seeded by `CounterRng`) to `.aim` traces and builds
//!   random well-formed programs for the fuzzer.
//! * [`backend`]: the [`Backend`](backend::Backend) trait plus four
//!   implementations — Newton-HBM2E, GDDR6/AiM, Ideal Non-PIM, and the
//!   Titan-V-like GPU — so one trace executes on every device model.
//! * [`harness`]: the comparison harness emitting versioned
//!   [`MetricsSnapshot`](newton_trace::MetricsSnapshot)s.
//!
//! # Conformance methodology
//!
//! Matrix residency is untimed in the API path (`load_matrix` writes
//! storage; only the drain spends cycles), so a trace whose `WR_SBK`
//! stream deposits byte-identical rows, followed by
//! `NewtonSystem::plan_resident` + `run_resident`, executes the *same*
//! command stream as `run_mv` — outputs, cycles, `AimStats`, channel
//! summaries, and telemetry are all byte-identical, for both timing
//! engines and every host-thread width. The differential suite in
//! `tests/oracle_vs_production.rs` proves exactly that on the Table II
//! BERT layer.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod backend;
pub mod error;
pub mod generate;
pub mod harness;
pub mod instr;
pub mod interp;
pub mod mv;
pub mod program;

pub use error::IsaError;
pub use instr::Instr;
pub use program::{Program, TraceGeometry};
