//! The tiled iteration-space schedule of Algorithm 1 and its variants.
//!
//! Newton's computation "may be viewed as imposing a tiling on the
//! iteration space of the matrix-vector product" (Sec. III-C). The
//! schedule enumerates *row-sets*: one DRAM row opened across the active
//! banks, consumed sub-chunk by sub-chunk by COMP commands. Three
//! traversals are modeled:
//!
//! * [`ScheduleKind::InterleavedFullReuse`] — Algorithm 1: column-major
//!   tile traversal over the chunk-interleaved layout; each input chunk is
//!   loaded once and fully reused; results are read once per row-set.
//! * [`ScheduleKind::NoReuse`] — row-major traversal over the no-reuse
//!   layout; the result latch accumulates a full matrix row across chunks
//!   (lower output traffic) but every chunk is re-fetched per row group
//!   (much higher input traffic) — the paper's Newton-no-reuse.
//! * [`ScheduleKind::FourLatch`] — the Sec. III-C "option in between":
//!   four result latches per bank let four row groups share one input
//!   fetch.

use crate::layout::{Layout, MatrixMapping};

/// Which tiled traversal to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    /// Algorithm 1: full input reuse via chunk interleaving.
    InterleavedFullReuse,
    /// Newton-no-reuse: full output reuse, input refetched per row group.
    NoReuse,
    /// Four result latches per bank: input fetched once per four groups.
    FourLatch,
}

impl ScheduleKind {
    /// The matrix layout this traversal requires.
    #[must_use]
    pub fn layout(self) -> Layout {
        match self {
            ScheduleKind::InterleavedFullReuse => Layout::ChunkInterleaved,
            ScheduleKind::NoReuse | ScheduleKind::FourLatch => Layout::NoReuse,
        }
    }
}

/// The work one bank performs in a row-set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankWork {
    /// Physical bank index within the channel (after any retirement
    /// remapping in the [`MatrixMapping`]'s bank map).
    pub bank: usize,
    /// The (channel-local) matrix row whose chunk this bank holds.
    pub matrix_row: usize,
}

/// A result readout performed after a row-set completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOut {
    /// Bank to read.
    pub bank: usize,
    /// Latch within the bank.
    pub latch: usize,
    /// Matrix row the value contributes to.
    pub matrix_row: usize,
}

/// One row-set: a DRAM row opened in the active banks and consumed by
/// COMP commands against one input chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowSet {
    /// Input-vector chunk the global buffer must hold.
    pub chunk: usize,
    /// DRAM row to activate in every active bank.
    pub dram_row: usize,
    /// Result latch COMP accumulates into.
    pub latch: usize,
    /// Whether the latch must be cleared before the first COMP (start of
    /// a new accumulation scope).
    pub reset_latch: bool,
    /// Whether the global buffer must be (re)loaded with `chunk` before
    /// this row-set (GWRITE traffic).
    pub load_chunk: bool,
    /// Active banks and their matrix rows.
    pub work: Vec<BankWork>,
    /// Latches to read out (READRES) after this row-set, each latch's
    /// readouts together and latches in ascending order; empty when the
    /// accumulation continues into the next row-set.
    pub read_after: Vec<ReadOut>,
}

/// The full schedule for one channel's share of an MV product.
#[derive(Debug, Clone)]
pub struct Schedule {
    row_sets: Vec<RowSet>,
}

impl Schedule {
    /// Builds the schedule for `mapping` under traversal `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `mapping.layout()` does not match `kind.layout()` — the
    /// schedule would read garbage rows; this is a programming error, not
    /// a runtime condition.
    #[must_use]
    pub fn build(kind: ScheduleKind, mapping: &MatrixMapping) -> Schedule {
        assert_eq!(
            mapping.layout(),
            kind.layout(),
            "schedule {kind:?} requires layout {:?}",
            kind.layout()
        );
        let row_sets = match kind {
            ScheduleKind::InterleavedFullReuse => Self::build_interleaved(mapping),
            ScheduleKind::NoReuse => Self::build_no_reuse(mapping),
            ScheduleKind::FourLatch => Self::build_four_latch(mapping),
        };
        Schedule { row_sets }
    }

    fn active_work(mapping: &MatrixMapping, g: usize, banks: usize) -> Vec<BankWork> {
        (0..banks)
            .filter_map(|bank| {
                mapping.matrix_row_for(g, bank).map(|matrix_row| BankWork {
                    bank: mapping.physical_bank(bank),
                    matrix_row,
                })
            })
            .collect()
    }

    fn build_interleaved(mapping: &MatrixMapping) -> Vec<RowSet> {
        let banks = mapping.banks();
        let mut out = Vec::new();
        let mut prev_chunk = usize::MAX;
        for c in 0..mapping.num_chunks() {
            for g in 0..mapping.row_groups() {
                let work = Self::active_work(mapping, g, banks);
                let read_after = work
                    .iter()
                    .map(|w| ReadOut {
                        bank: w.bank,
                        latch: 0,
                        matrix_row: w.matrix_row,
                    })
                    .collect();
                out.push(RowSet {
                    chunk: c,
                    dram_row: mapping.group_dram_row(g, c),
                    latch: 0,
                    reset_latch: true,
                    load_chunk: c != prev_chunk,
                    work,
                    read_after,
                });
                prev_chunk = c;
            }
        }
        out
    }

    fn build_no_reuse(mapping: &MatrixMapping) -> Vec<RowSet> {
        let banks = mapping.banks();
        let mut out = Vec::new();
        let mut prev_chunk = usize::MAX;
        for g in 0..mapping.row_groups() {
            let work = Self::active_work(mapping, g, banks);
            for c in 0..mapping.num_chunks() {
                let last = c + 1 == mapping.num_chunks();
                let read_after = if last {
                    work.iter()
                        .map(|w| ReadOut {
                            bank: w.bank,
                            latch: 0,
                            matrix_row: w.matrix_row,
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                out.push(RowSet {
                    chunk: c,
                    dram_row: mapping.group_dram_row(g, c),
                    latch: 0,
                    reset_latch: c == 0,
                    load_chunk: c != prev_chunk,
                    work: work.clone(),
                    read_after,
                });
                prev_chunk = c;
            }
        }
        out
    }

    fn build_four_latch(mapping: &MatrixMapping) -> Vec<RowSet> {
        let banks = mapping.banks();
        let mut out = Vec::new();
        let mut prev_chunk = usize::MAX;
        let groups = mapping.row_groups();
        let mut g0 = 0;
        while g0 < groups {
            let span = (groups - g0).min(4);
            for c in 0..mapping.num_chunks() {
                for sub in 0..span {
                    let g = g0 + sub;
                    let work = Self::active_work(mapping, g, banks);
                    let last = c + 1 == mapping.num_chunks() && sub + 1 == span;
                    let read_after = if last {
                        // Read every latch of the super-group.
                        (0..span)
                            .flat_map(|s| {
                                Self::active_work(mapping, g0 + s, banks).into_iter().map(
                                    move |w| ReadOut {
                                        bank: w.bank,
                                        latch: s,
                                        matrix_row: w.matrix_row,
                                    },
                                )
                            })
                            .collect()
                    } else {
                        Vec::new()
                    };
                    out.push(RowSet {
                        chunk: c,
                        dram_row: mapping.group_dram_row(g, c),
                        latch: sub,
                        reset_latch: c == 0,
                        load_chunk: c != prev_chunk,
                        work,
                        read_after,
                    });
                    prev_chunk = c;
                }
            }
            g0 += span;
        }
        out
    }

    /// The row-sets in execution order.
    #[must_use]
    pub fn row_sets(&self) -> &[RowSet] {
        &self.row_sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::MatrixMapping;

    /// GWRITE chunk loads the schedule performs (input traffic).
    fn chunk_loads(sched: &Schedule) -> usize {
        sched.row_sets().iter().filter(|r| r.load_chunk).count()
    }

    /// Result readouts (output traffic, in latch reads).
    fn total_readouts(sched: &Schedule) -> usize {
        sched.row_sets().iter().map(|r| r.read_after.len()).sum()
    }

    fn map(kind: ScheduleKind, m: usize, n: usize) -> MatrixMapping {
        MatrixMapping::new(kind.layout(), m, n, 16, 512, 0).unwrap()
    }

    /// Every (matrix_row, chunk) pair must be computed exactly once —
    /// the fundamental coverage invariant of the tiling.
    fn assert_covers_iteration_space(kind: ScheduleKind, m: usize, n: usize) {
        let mapping = map(kind, m, n);
        let sched = Schedule::build(kind, &mapping);
        let chunks = mapping.num_chunks();
        let mut seen = vec![0u32; m * chunks];
        for rs in sched.row_sets() {
            for w in &rs.work {
                seen[w.matrix_row * chunks + rs.chunk] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "{kind:?} {m}x{n}: some (row, chunk) not covered exactly once"
        );
        // And every matrix row is read out exactly once per accumulation
        // scope: interleaved reads per (row, chunk); the others per row.
        let mut reads = vec![0u32; m];
        for rs in sched.row_sets() {
            assert!(
                rs.read_after.is_sorted_by_key(|r| r.latch),
                "{kind:?}: one READRES per latch needs each latch's readouts together"
            );
            for r in &rs.read_after {
                reads[r.matrix_row] += 1;
            }
        }
        let expected_reads = match kind {
            ScheduleKind::InterleavedFullReuse => chunks as u32,
            _ => 1,
        };
        assert!(
            reads.iter().all(|&c| c == expected_reads),
            "{kind:?}: readout counts wrong: {reads:?}"
        );
    }

    #[test]
    fn coverage_invariant_across_kinds_and_ragged_shapes() {
        for kind in [
            ScheduleKind::InterleavedFullReuse,
            ScheduleKind::NoReuse,
            ScheduleKind::FourLatch,
        ] {
            for (m, n) in [
                (16, 512),
                (20, 700),
                (1, 1),
                (100, 1536),
                (7, 512),
                (64, 513),
            ] {
                assert_covers_iteration_space(kind, m, n);
            }
        }
    }

    #[test]
    fn interleaved_loads_each_chunk_once() {
        let kind = ScheduleKind::InterleavedFullReuse;
        let mapping = map(kind, 64, 1024);
        let sched = Schedule::build(kind, &mapping);
        assert_eq!(chunk_loads(&sched), 2, "one GWRITE phase per chunk");
        // Column-major: all groups of chunk 0, then all of chunk 1.
        let chunks: Vec<usize> = sched.row_sets().iter().map(|r| r.chunk).collect();
        assert_eq!(chunks, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        // Every row-set resets and reads (full input reuse = one partial
        // output per DRAM row).
        assert!(sched.row_sets().iter().all(|r| r.reset_latch));
        assert!(sched.row_sets().iter().all(|r| !r.read_after.is_empty()));
    }

    #[test]
    fn no_reuse_reloads_input_per_group() {
        let kind = ScheduleKind::NoReuse;
        let mapping = map(kind, 64, 1024);
        let sched = Schedule::build(kind, &mapping);
        // Row-major: group 0 chunks 0,1; group 1 chunks 0,1; ...
        let chunks: Vec<usize> = sched.row_sets().iter().map(|r| r.chunk).collect();
        assert_eq!(chunks, vec![0, 1, 0, 1, 0, 1, 0, 1]);
        // Input reloaded on every chunk switch: 8 loads vs interleaved's 2.
        assert_eq!(chunk_loads(&sched), 8);
        // Latch resets only at group starts; reads only at group ends.
        let resets: Vec<bool> = sched.row_sets().iter().map(|r| r.reset_latch).collect();
        assert_eq!(
            resets,
            vec![true, false, true, false, true, false, true, false]
        );
        assert_eq!(total_readouts(&sched), 64);
    }

    #[test]
    fn no_reuse_single_chunk_keeps_buffer() {
        // With one chunk there is nothing to churn: the buffer is loaded
        // once even in the no-reuse traversal.
        let kind = ScheduleKind::NoReuse;
        let mapping = map(kind, 64, 512);
        let sched = Schedule::build(kind, &mapping);
        assert_eq!(chunk_loads(&sched), 1);
    }

    #[test]
    fn four_latch_amortizes_input_over_four_groups() {
        let kind = ScheduleKind::FourLatch;
        let mapping = map(kind, 16 * 8, 1024); // 8 groups = 2 super-groups
        let sched = Schedule::build(kind, &mapping);
        // Per super-group: chunks loaded once each => 2 chunks x 2
        // super-groups = 4 loads (vs 16 for plain no-reuse).
        assert_eq!(chunk_loads(&sched), 4);
        // Latches rotate 0..4 within a super-group.
        let latches: Vec<usize> = sched.row_sets().iter().take(8).map(|r| r.latch).collect();
        assert_eq!(latches, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // Readout happens once per super-group, covering 4 groups x 16
        // banks = 64 latches.
        let nonempty: Vec<usize> = sched
            .row_sets()
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.read_after.is_empty())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(nonempty.len(), 2);
        assert_eq!(sched.row_sets()[nonempty[0]].read_after.len(), 64);
    }

    #[test]
    fn four_latch_handles_partial_super_group() {
        let kind = ScheduleKind::FourLatch;
        let mapping = map(kind, 16 * 5, 512); // 5 groups: one full + one partial super-group
        let sched = Schedule::build(kind, &mapping);
        assert_covers_iteration_space(kind, 16 * 5, 512);
        let max_latch = sched.row_sets().iter().map(|r| r.latch).max().unwrap();
        assert_eq!(max_latch, 3);
    }

    #[test]
    fn schedule_routes_work_around_retired_banks() {
        // A bank map that skips physical bank 3 (retired): the schedule
        // must never touch it, yet still cover the iteration space.
        let kind = ScheduleKind::InterleavedFullReuse;
        let bank_map: Vec<usize> = (0..16).filter(|&b| b != 3).collect();
        let m = 30;
        let n = 700;
        let mapping = MatrixMapping::with_bank_map(kind.layout(), m, n, bank_map, 512, 0).unwrap();
        let sched = Schedule::build(kind, &mapping);
        let chunks = mapping.num_chunks();
        let mut seen = vec![0u32; m * chunks];
        for rs in sched.row_sets() {
            for w in &rs.work {
                assert_ne!(w.bank, 3, "retired bank must receive no work");
                seen[w.matrix_row * chunks + rs.chunk] += 1;
            }
            for r in &rs.read_after {
                assert_ne!(r.bank, 3, "retired bank must not be read");
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    #[should_panic(expected = "requires layout")]
    fn layout_mismatch_panics() {
        let mapping = MatrixMapping::new(Layout::NoReuse, 16, 512, 16, 512, 0).unwrap();
        let _ = Schedule::build(ScheduleKind::InterleavedFullReuse, &mapping);
    }
}
