//! Comparison architectures for the Newton evaluation.
//!
//! * [`ideal`]: **Ideal Non-PIM** (Sec. IV) — a host with infinite compute
//!   limited only by the DRAM's external bandwidth. Its time is *measured*
//!   on the same cycle-accurate DRAM simulator Newton runs on (streaming
//!   full rows through the serialized global bus, refresh included),
//!   which is exactly how the paper models it; the paper notes measured
//!   Ideal Non-PIM is slightly slower than the analytic `col * tCCD`
//!   bound because of refresh.
//! * [`gpu`]: a **Titan-V-like GPU** — the paper uses GPGPUsim 4.0 +
//!   Cutlass 1.3 with constant kernel overheads factored out. We replace
//!   the cycle-level GPU with a calibrated analytical model (see
//!   DESIGN.md §2): achieved-bandwidth efficiency as a function of working
//!   set, a compute roofline for batching, and a small residual kernel
//!   cost. The single calibration target is the published 5.4× geomean
//!   gap between Ideal Non-PIM and the GPU; everything else is emergent.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod gpu;
pub mod ideal;

pub use gpu::TitanVModel;
pub use ideal::IdealNonPim;
