//! Software `bfloat16` arithmetic for the Newton AiM simulator.
//!
//! The Newton paper (MICRO 2020) computes matrix–vector products in 16-bit
//! floating point: "1 KB = 8 Kb = 512 x 16 bits = 512 bfloat16 elements per
//! DRAM row" (Sec. III-C), with 16 multipliers per bank feeding a pipelined
//! adder tree whose result is held in "one scalar bfloat16 register" per bank.
//! This crate provides that number format from scratch — no external float
//! crates — together with the reduction semantics the per-bank compute unit
//! needs:
//!
//! * [`Bf16`]: the storage type (1 sign, 8 exponent, 7 mantissa bits) with
//!   round-to-nearest-even conversions and arithmetic implemented by
//!   computing in `f32` and rounding back (the standard software model for
//!   bf16 hardware datapaths, which keep wide internal products).
//! * [`reduce`]: the 16-input adder tree the device computes (bf16
//!   products, a tree that carries `f32`), plus the result-latch
//!   accumulation step that rounds back to bf16.
//! * [`simd`]: explicit-width, branch-free variants of the COMP kernels
//!   over fixed lane arrays the autovectorizer can lower to SIMD, proven
//!   bit-exact against the scalar oracles above; the production kernel
//!   runs a build compiled for the host's widest vector unit.
//! * [`mod@slice`]: bulk conversions and the little-endian byte packing used by
//!   the DRAM row storage in `newton-dram`.
//!
//! # Example
//!
//! ```
//! use newton_bf16::{Bf16, reduce};
//!
//! let weights: Vec<Bf16> = (0..16).map(|i| Bf16::from_f32(i as f32)).collect();
//! let inputs = vec![Bf16::from_f32(0.5); 16];
//! // One COMP step of a Newton bank: 16 products reduced through the tree.
//! let partial = reduce::dot_chunk_wide(&weights, &inputs);
//! assert_eq!(partial, (0..16).map(|i| i as f32 * 0.5).sum::<f32>());
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod scalar;

pub mod reduce;
pub mod simd;
pub mod slice;

pub use scalar::{Bf16, ParseBf16Error};
