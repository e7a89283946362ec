//! The simulator's public surface, as the benchmark uses it.
//!
//! Every other file of the benchmark imports simulator items from here and
//! from nowhere else, so a refactor behind these entry points needs no
//! change under `benchmark/`. Engine, functional mode and schedule replay
//! are left at the library's defaults on purpose: the benchmark measures
//! what a user gets.

pub use newton_baselines::ideal::IdealNonPim;
pub use newton_bench::model_validation;
pub use newton_bf16::reduce::{dot_error_bound, TreePrecision};
pub use newton_bf16::simd::comp_subchunks16_multi;
pub use newton_bf16::Bf16;
pub use newton_core::config::{NewtonConfig, TelemetryConfig};
pub use newton_core::parallel::ParallelPolicy;
pub use newton_core::system::{NewtonSystem, SystemRun};
pub use newton_dram::faults::{mix64, CampaignSpec};
pub use newton_isa::generate::lower_mv;
pub use newton_isa::{interp, mv, Program};
pub use newton_serve::{ChaosAction, ChaosEvent, ChaosPlan, ServeReport, Server, TrafficConfig};
pub use newton_trace::json::JsonValue;
pub use newton_workloads::arrivals::ArrivalPattern;
pub use newton_workloads::{generator, reference, Benchmark, DecodeStreamSpec, MvShape};
