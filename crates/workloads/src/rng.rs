//! The splittable counter-based random number generator the workload,
//! arrival and trace generators draw from.
//!
//! [`CounterRng`] makes element `k` a *pure function* of `(seed, k)`, so
//! any partition of the index space onto any number of threads produces
//! identical bytes — the foundation of the deterministic parallel
//! workload generation contract (see `newton_core::parallel`). It is
//! defined once, in `newton_dram::faults`, beside the fault campaigns
//! that draw from the same stream; this module is its path for everything
//! above the simulator.

pub use newton_core::parallel::{mix64, CounterRng};
