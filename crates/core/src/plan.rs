//! Channel plans: what a loaded matrix keeps per channel so that no run
//! rebuilds it.
//!
//! Serving-shaped workloads (batched GEMV, autoregressive decode) issue
//! the *same* command schedule for every query against a resident matrix
//! — only the input-vector bits change (Sec. III-D). A [`ChannelPlan`]
//! therefore holds the bank mapping and the tiled [`Schedule`], built
//! once when the matrix is loaded, plus whether it will be run again.
//! Nothing in it changes afterwards: what a run may skip because the
//! stored rows are known clean is a fact about the rows, kept by the
//! storage layer (`newton_dram::Storage::row_verified`).

use crate::cache::Residency;
use crate::layout::MatrixMapping;
use crate::tiling::{Schedule, ScheduleKind};

/// One channel's share of a loaded matrix: the bank mapping, the tiled
/// schedule (built once, reused across runs), and whether the plan will
/// be run again.
#[derive(Debug)]
pub struct ChannelPlan {
    map: MatrixMapping,
    schedule: Schedule,
    residency: Residency,
}

impl ChannelPlan {
    /// Builds the plan for `map` under traversal `kind` (the one
    /// `Schedule::build` for this matrix's lifetime on this channel).
    /// `residency` says whether the plan will be run again: a
    /// [`Residency::SingleUse`] plan (`NewtonSystem::run_mv` /
    /// `run_model`) keeps no decoded weight row a later run could reuse.
    ///
    /// # Panics
    ///
    /// As [`Schedule::build`]: if `map.layout()` mismatches the kind.
    #[must_use]
    pub fn new(kind: ScheduleKind, map: MatrixMapping, residency: Residency) -> ChannelPlan {
        let schedule = Schedule::build(kind, &map);
        ChannelPlan {
            map,
            schedule,
            residency,
        }
    }

    /// Whether this plan will be run again ([`Residency::Resident`]) or
    /// is dropped after one run.
    #[must_use]
    pub(crate) fn residency(&self) -> Residency {
        self.residency
    }

    /// The channel-local matrix mapping.
    #[must_use]
    pub(crate) fn map(&self) -> &MatrixMapping {
        &self.map
    }

    /// The tiled schedule (built at plan construction).
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }
}
