//! Observability layer for the Newton AiM reproduction.
//!
//! The paper's whole evaluation (Secs. IV–V) is an exercise in cycle
//! attribution: how many command-bus slots, bank-state cycles, and data
//! beats each design variant spends per inference. This crate provides the
//! plumbing every other crate uses to answer those questions:
//!
//! * [`event`] — the [`TraceEvent`] vocabulary (commands, bank states,
//!   data bursts, energy) that [`timeseries`] folds into windows.
//!   Nothing is built per event while telemetry is off.
//! * [`residency`] — per-bank cycle attribution across five states (idle,
//!   row-open, precharging, refreshing, computing) with a
//!   sum-equals-elapsed invariant.
//! * [`histogram`] — dependency-free log2-bucket histograms for latency
//!   and occupancy distributions.
//! * [`chrome`] — Chrome trace-event JSON export, loadable in Perfetto or
//!   `chrome://tracing` (one track per bank, one per command bus).
//! * [`timeseries`] — fixed-width simulated-time windows of integer event
//!   counters (commands, bus bytes, bank-open time, activations, COMPs,
//!   array accesses, energy), one series per channel, deterministic under
//!   any thread width.
//! * [`energy`] — the Fig. 13 coefficients as per-command energies,
//!   consulted at command-issue time by the DRAM channel.
//! * [`hostprof`] — a host wall-clock phase registry (encode / drain /
//!   comp / merge / snapshot), so benchmark snapshots record where the
//!   *host* time went alongside simulated throughput.
//! * [`snapshot`] — versioned metrics-snapshot JSON written by the
//!   `reproduce` harness alongside every figure/table.
//! * [`json`] — the minimal JSON document model (writer + parser) backing
//!   the exporters; no external dependencies.
//!
//! This crate sits at the bottom of the workspace dependency graph (it
//! depends on nothing), so `newton-dram`, `newton-core`, the baselines,
//! and the bench harness can all share one vocabulary of events and
//! metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod chrome;
pub mod energy;
pub mod event;
pub mod histogram;
pub mod hostprof;
pub mod json;
pub mod residency;
pub mod snapshot;
pub mod timeseries;

pub use chrome::ChromeTraceBuilder;
pub use energy::EnergyModel;
pub use event::{TraceBus, TraceEvent};
pub use histogram::Log2Histogram;
pub use hostprof::{HostPhase, HostProfiler};
pub use json::{JsonError, JsonValue};
pub use residency::{BankClass, Residency, ResidencyTracker};
pub use snapshot::MetricsSnapshot;
pub use timeseries::{TimeSeries, WindowMetrics, Windows, DEFAULT_WINDOW_CYCLES};
