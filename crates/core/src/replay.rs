//! The compiled-schedule replay cache: plan once, replay many.
//!
//! Serving-shaped workloads (batched GEMV, autoregressive decode) issue
//! the *same* command schedule for every query against a resident matrix
//! — only the input-vector bits change. A [`ChannelPlan`] therefore
//! builds the tiled [`Schedule`] once per resident matrix (not once per
//! run) and carries a lazily-captured [`CompiledSchedule`]: the
//! shape-static structure of the command train — ganged-ACT clusters
//! and refresh look-ahead estimates — plus the validity stamp that makes
//! replaying it byte-identical to a cold drain. A plan built for one run and dropped
//! ([`Residency::SingleUse`]: `NewtonSystem::run_mv`, `run_model`) never
//! captures — nothing would be left to replay it.
//!
//! Replay is what a resident plan does on the
//! [`TimingEngine::EventSkipping`](newton_dram::TimingEngine) engine; it
//! has no switch of its own. A hit runs the same row-set loop as a cold
//! drain (`NewtonChannel::drain`) and the same two channel trains
//! (`issue_broadcast_write_train` / `issue_comp_train`), differing in
//! three places only: the refresh look-ahead estimate and the G_ACT
//! clusters come from the capture instead of being recomputed,
//! activations skip the row-buffer-fill scrub, and the COMP train
//! carries the clean-rows proof so it stays closed-form with ECC on.
//! Everything else — the first command of each train found by a real
//! `earliest_*` scan, READRES, refresh interposition, precharges, the
//! data-dependent SIMD COMP kernels — is the live code.
//!
//! Invalidation rides the storage layer's data epoch
//! ([`Storage::write_epoch`](newton_dram::Storage::write_epoch)): any
//! weight write, fault injection, or ECC scrub-correction moves the
//! epoch and drops the compiled entry; bank retirement rebuilds mappings
//! and with them fresh (cold) plans. With ECC on, an entry is only
//! captured from a correction-free drain, so skipping the per-command
//! checks on a hit is observationally identical (a clean check mutates
//! nothing).
//!
//! Replay never arms when an observer could diverge: command traces,
//! audit logs, trace sinks, queued host (non-AiM) traffic, non-SIMD or
//! non-ganged configurations, and the `Reference` engine (the oracle
//! never executes a folded train) all take the cold drain, counted as a
//! cache miss. A bypass keeps the captured entry: it is a pure function
//! of shape, bank map and timing.

use std::sync::{Mutex, MutexGuard};

use newton_dram::timing::Cycle;

use crate::cache::Residency;
use crate::layout::MatrixMapping;
use crate::tiling::{Schedule, ScheduleKind};

/// One channel's share of a loaded matrix: the bank mapping, the tiled
/// schedule (built once, reused across runs), whether the plan will be
/// run again, and the lazily-captured compiled command train.
#[derive(Debug)]
pub struct ChannelPlan {
    map: MatrixMapping,
    schedule: Schedule,
    residency: Residency,
    compiled: Mutex<ReplaySlot>,
}

impl ChannelPlan {
    /// Builds the plan for `map` under traversal `kind` (the one
    /// `Schedule::build` for this matrix's lifetime on this channel).
    /// `residency` says whether the plan will be run again: a
    /// [`Residency::SingleUse`] plan (`NewtonSystem::run_mv` /
    /// `run_model`) keeps nothing a later run could reuse — neither decoded
    /// weight rows nor the compiled command train.
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
            compiled: Mutex::new(ReplaySlot::Cold),
        }
    }

    /// Whether this plan will be run again ([`Residency::Resident`]) or
    /// is dropped after one run.
    #[must_use]
    pub fn residency(&self) -> Residency {
        self.residency
    }

    /// The channel-local matrix mapping.
    #[must_use]
    pub fn map(&self) -> &MatrixMapping {
        &self.map
    }

    /// The tiled schedule (built at plan construction).
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Whether a compiled command train is currently captured.
    #[must_use]
    pub fn is_compiled(&self) -> bool {
        matches!(*self.slot(), ReplaySlot::Ready(_))
    }

    /// Drops the compiled entry (the next run re-captures from a cold
    /// drain and reports the invalidation).
    pub fn invalidate(&self) {
        let mut slot = self.slot();
        if matches!(*slot, ReplaySlot::Ready(_)) {
            *slot = ReplaySlot::Invalidated;
        }
    }

    /// Drops any captured or tombstoned entry because the plan is being
    /// replaced by a recovery re-plan (scrub-rewrite or bank
    /// retirement), returning 1 if an entry was actually dropped so the
    /// caller can report the invalidation — the replacement plans start
    /// cold and the old ones are never run again, so this is the last
    /// chance to account for the drop.
    pub(crate) fn purge_for_replan(&self) -> u64 {
        let mut slot = self.slot();
        match *slot {
            ReplaySlot::Cold => 0,
            ReplaySlot::Ready(_) | ReplaySlot::Invalidated => {
                *slot = ReplaySlot::Cold;
                1
            }
        }
    }

    /// Locks the replay slot. The lock is uncontended in practice — each
    /// channel's plan is driven by exactly one worker thread per run —
    /// and exists so `&ChannelPlan` can be shared across scoped threads.
    pub(crate) fn slot(&self) -> MutexGuard<'_, ReplaySlot> {
        self.compiled
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The capture state of a plan's compiled command train.
#[derive(Debug)]
pub(crate) enum ReplaySlot {
    /// Never captured: the next armed run drains live and captures.
    Cold,
    /// Captured and replayable while the validity stamps hold.
    Ready(CompiledSchedule),
    /// A `Ready` entry was dropped (stale stamps or explicit
    /// invalidation) but the drop has not yet been *reported* in a
    /// completed run's stats. The tombstone survives runs that abort
    /// mid-drain (e.g. an uncorrectable ECC error), so the first run
    /// that returns stats counts the invalidation exactly once and
    /// then collapses the slot to `Cold` or a fresh capture.
    Invalidated,
}

/// The immutable capture of one channel's fully-timed command train,
/// compiled from the schedule after a clean live drain. Everything here
/// is a pure function of (shape, schedule kind, bank map, timing config)
/// — per-train *first-command* cycles are intentionally absent: they are
/// scanned live on each replay so the train lands correctly whatever
/// bus/refresh state the run entered with, and every subsequent command
/// follows at the structural `col_step` spacing.
#[derive(Debug)]
pub(crate) struct CompiledSchedule {
    /// Storage data epoch at capture; any weight mutation moves it.
    pub data_epoch: u64,
    /// Commands applied via folded trains per replay (GWRITEs + COMPs)
    /// — the `replayed_commands` accounting unit.
    pub train_commands: u64,
    /// Per-row-set static structure, parallel to `schedule.row_sets()`.
    pub row_sets: Vec<CompiledRowSet>,
}

/// What a hit reuses of one row-set instead of recomputing it.
#[derive(Debug)]
pub(crate) struct CompiledRowSet {
    /// Refresh look-ahead: conservative cycle bound of this row-set.
    pub estimate: Cycle,
    /// Ganged-activation clusters: `(bank, dram_row)` pairs per G_ACT.
    pub clusters: Vec<Vec<(usize, usize)>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;

    #[test]
    fn plan_builds_schedule_once_and_tracks_compile_state() {
        let map = MatrixMapping::new(Layout::ChunkInterleaved, 32, 512, 16, 512, 0).unwrap();
        let plan = ChannelPlan::new(ScheduleKind::InterleavedFullReuse, map, Residency::Resident);
        assert_eq!(plan.schedule().kind(), ScheduleKind::InterleavedFullReuse);
        assert_eq!(plan.map().m(), 32);
        assert!(!plan.is_compiled());
        *plan.slot() = ReplaySlot::Ready(CompiledSchedule {
            data_epoch: 0,
            train_commands: 0,
            row_sets: Vec::new(),
        });
        assert!(plan.is_compiled());
        plan.invalidate();
        assert!(!plan.is_compiled());
    }
}
