//! Benchmark suite for the Newton AiM reproduction.
//!
//! Table II of the paper evaluates eight matrix–vector layers drawn from
//! GNMT (neural machine translation), BERT (language understanding),
//! AlexNet's fully-connected layers, and DLRM (recommendation). This crate
//! provides:
//!
//! * [`suite`]: the Table II layers, exactly as published;
//! * [`models`]: end-to-end model graphs for the right half of Fig. 8
//!   (layer sequences with activations, normalization, and — for AlexNet —
//!   the conv-dominated non-FC fraction Newton does not accelerate);
//! * [`generator`]: deterministic, seeded synthetic weights and inputs
//!   (performance is data-independent; numerics are checked against
//!   references), built on the splittable counter-based
//!   `newton_dram::faults::CounterRng` so parallel generation is
//!   bit-identical to serial;
//! * [`mod@reference`]: `f64`/`f32` reference implementations of the MV
//!   product, activations, normalization, and chained model execution;
//! * [`arrivals`]: deterministic open-loop arrival traces
//!   (Poisson/bursty/diurnal via thinning) for the online serving layer;
//! * [`decode`]: autoregressive decode streams — N per-token GEMVs
//!   against one resident matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod arrivals;
pub mod decode;
pub mod generator;
pub mod models;
pub mod postprocess;
pub mod reference;
pub mod suite;

pub use arrivals::ArrivalPattern;
pub use decode::DecodeStreamSpec;
pub use suite::{Benchmark, MvShape};
