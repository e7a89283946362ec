//! The experiment harness: one function per table/figure of the Newton
//! paper's evaluation ([`experiments`]), and the one runner that renders,
//! asserts and snapshots them ([`harness`], behind the `reproduce`
//! binary).
//!
//! Every experiment returns plain data rows; [`harness`] prints them,
//! checks the shape claim the paper makes about them and serializes them,
//! and the integration tests call the row functions directly. See
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record produced by these functions.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod experiments;
pub mod harness;
pub mod report;
pub mod snapshot;

pub use experiments::*;
