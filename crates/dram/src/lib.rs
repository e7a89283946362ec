//! Cycle-accurate, event-driven DRAM channel simulator — the substrate the
//! Newton AiM model is built on.
//!
//! The Newton paper (MICRO 2020, Sec. IV) evaluates on a simulator "based on
//! the cycle-level DRAMsim2 simulator" configured as an HBM2E-like device
//! (Table III). This crate rebuilds that substrate from scratch in Rust:
//!
//! * [`timing`]: DRAM timing parameters in nanoseconds and their
//!   cycle-domain derivation, with an HBM2E-like preset matching Table III
//!   (16 banks, 32 column I/Os of 256 bits per 1 KB row, tRP = tRCD = 14 ns,
//!   tRAS = 33 ns, tAA in the published 22–29 ns range).
//! * [`config`]: channel geometry (banks, rows, columns) and validation.
//! * [`bank`]: per-bank state machines with the full inter-command
//!   constraint set (tRCD, tRP, tRAS, tRC, tCCD, tRTP, tWR).
//! * [`faw`]: the rolling four-activation-window (tFAW) tracker, including
//!   the ganged multi-activation accounting Newton's G_ACT command needs.
//! * [`bus`]: the command bus (one command per command slot — the scarce
//!   resource Newton's ganged/complex commands conserve) and the external
//!   data bus.
//! * [`channel`]: the assembled channel: banks + storage + refresh +
//!   statistics, with both *query* (earliest legal issue cycle) and *issue*
//!   (validated, stateful) APIs, plus ganged issue paths that consume a
//!   single command slot.
//! * [`storage`]: functional row storage (lazily allocated; rows hold real
//!   bytes so compute-in-memory models produce real numbers).
//! * [`controller`]: the one conventional scheduler, FR-FCFS (open or
//!   closed page, refresh interposed), for host traffic beside the AiM
//!   stream.
//! * [`stream`]: a streaming read controller used to model the paper's
//!   *Ideal Non-PIM* baseline (external-bandwidth-bound, activations hidden).
//! * [`audit`]: the channel's one command log, and an independent
//!   post-hoc validator that rechecks every issued command against the
//!   raw constraint definitions (used throughout the test suite).
//! * [`command`]: the AiM command set (Table I), which names the log's
//!   records for the AiM command trace.
//! * [`ecc`]: a SECDED (72,64) on-die ECC model — check bytes per 64-bit
//!   word, scrub on activation, check on every read and COMP operand fetch.
//! * [`faults`]: deterministic fault-injection campaigns (bit flips,
//!   stuck-at cells, retention decay) over resident rows.
//!
//! This crate knows nothing about machine learning: it exposes banks,
//! timing, and buses. The AiM commands name what the channel issues, as
//! the paper argues AiM should be: DRAM-like commands. Their semantics
//! (the global buffer, the MAC units) live in `newton-core`.
//!
//! # Example
//!
//! ```
//! use newton_dram::{Channel, DramConfig};
//!
//! let mut ch = Channel::new(DramConfig::hbm2e_like())?;
//! // Write a row, read a column back, with full timing accounting.
//! let row_bytes = vec![0xA5u8; ch.config().row_bytes()];
//! ch.storage_mut().write_row(0, 10, &row_bytes)?;
//! let t_act = ch.earliest_activate(0);
//! let t_act = ch.issue_activate(t_act, 0, 10)?;
//! let t_rd = ch.earliest_column_read(t_act, 0);
//! let (t_rd, data) = ch.issue_column_read_external(t_rd, 0, 3)?;
//! assert!(t_rd > t_act);
//! assert_eq!(data, vec![0xA5u8; ch.config().col_bytes()]);
//! # Ok::<(), newton_dram::DramError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod audit;
pub mod bank;
pub mod bus;
pub mod channel;
pub mod command;
pub mod config;
pub mod controller;
pub mod ecc;
pub mod error;
pub mod faults;
pub mod faw;
pub mod stats;
pub mod storage;
pub mod stream;
pub mod timing;

pub use channel::Channel;
pub use config::DramConfig;
pub use ecc::{EccCounters, Secded};
pub use error::DramError;
pub use faults::{CampaignSpec, FaultKind, InjectedFault, RetentionSpec};
pub use storage::Storage;
pub use timing::{Cycle, TimingParams};
