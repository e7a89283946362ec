//! A conventional FR-FCFS memory controller over the channel model.
//!
//! The Newton paper's host still performs ordinary reads and writes
//! (inputs, outputs, the non-AiM data that may share banks with the
//! matrix), and its Ideal Non-PIM baseline is "any non-PIM architecture"
//! fed by a real memory controller. This module provides the classic
//! First-Ready, First-Come-First-Served scheduler over [`Channel`]:
//!
//! * requests that *hit* an open row go first (first-ready);
//! * among equals, the oldest request wins (FCFS);
//! * open-page or closed-page row-buffer management;
//! * refresh interposed at its deadline;
//! * per-request latency accounting and row-buffer hit statistics.
//!
//! The scheduler issues one primitive per step — always the pending
//! primitive with the earliest feasible cycle — so activations in one
//! bank naturally overlap column bursts in another, exactly the
//! bank-level parallelism conventional DRAM offers (Sec. II-A).
//!
//! Each scheduling round rescans the whole queue and asks the channel's
//! `earliest_*` queries for every candidate's next primitive: one
//! scheduler, with no second implementation to agree with.

use std::collections::VecDeque;

use crate::channel::Channel;
use crate::error::DramError;
use crate::timing::Cycle;

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PagePolicy {
    /// Leave rows open after access (bet on locality).
    #[default]
    Open,
    /// Precharge as soon as the access completes (bet against it).
    Closed,
}

/// One host memory request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Caller-chosen identifier, echoed in the [`Completion`].
    pub id: u64,
    /// Bank to access.
    pub bank: usize,
    /// Row within the bank.
    pub row: usize,
    /// Column I/O index.
    pub col: usize,
    /// `Some(data)` writes the column; `None` reads it.
    pub write: Option<Vec<u8>>,
    /// Cycle the request becomes visible to the controller.
    pub arrival: Cycle,
}

/// A completed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The request id.
    pub id: u64,
    /// Cycle the column command issued.
    pub issue_cycle: Cycle,
    /// Cycle the data beat completed (read data valid / write data
    /// consumed).
    pub data_cycle: Cycle,
    /// Read data (empty for writes).
    pub data: Vec<u8>,
    /// Whether the access hit an already-open row.
    pub row_hit: bool,
}

/// Scheduler statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses that opened a row in an idle bank.
    pub row_misses: u64,
    /// Accesses that had to close a different row first.
    pub row_conflicts: u64,
    /// Refreshes interposed while draining.
    pub refreshes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Precharge,
    Activate,
    Column,
}

/// A queued request plus its first-touch classification (hit / miss /
/// conflict), fixed the first time the scheduler issues a primitive for
/// it.
#[derive(Debug, Clone)]
struct Pending {
    req: Request,
    first_step: Option<Step>,
}

/// The FR-FCFS controller. Owns its request queue; borrows the channel
/// per drain call so callers can interleave other uses.
#[derive(Debug, Default)]
pub struct FrFcfs {
    policy: PagePolicy,
    queue: VecDeque<Pending>,
    stats: SchedulerStats,
}

impl FrFcfs {
    /// Creates a controller with the given page policy.
    #[must_use]
    pub fn new(policy: PagePolicy) -> FrFcfs {
        FrFcfs {
            policy,
            ..FrFcfs::default()
        }
    }

    /// Enqueues a request.
    pub fn enqueue(&mut self, request: Request) {
        self.queue.push_back(Pending {
            req: request,
            first_step: None,
        });
    }

    /// Scheduler statistics so far.
    #[must_use]
    pub fn stats(&self) -> &SchedulerStats {
        &self.stats
    }

    /// The next primitive a request needs given the bank state, and
    /// whether the eventual column access will be a row hit.
    fn next_step(channel: &Channel, r: &Request) -> (Step, bool) {
        match channel.open_row(r.bank) {
            Some(open) if open == r.row => (Step::Column, true),
            Some(_) => (Step::Precharge, false),
            None => (Step::Activate, false),
        }
    }

    /// Earliest feasible cycle for a primitive on a bank (request-
    /// independent; the caller folds in arrival and the floor).
    fn earliest(channel: &Channel, bank: usize, step: Step) -> Cycle {
        match step {
            Step::Precharge => channel.earliest_precharge(bank),
            Step::Activate => channel.earliest_activate(bank),
            Step::Column => channel.earliest_column_read(0, bank),
        }
    }

    /// Drains every queued request, returning completions in finish
    /// order. `start` lower-bounds all activity.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors (bad addresses; a correct scheduler
    /// cannot otherwise fail).
    pub fn drain(
        &mut self,
        channel: &mut Channel,
        start: Cycle,
    ) -> Result<Vec<Completion>, DramError> {
        let t = *channel.timing();
        let mut completions = Vec::with_capacity(self.queue.len());
        let mut floor = start;

        while !self.queue.is_empty() {
            // Pick the pending primitive with the earliest feasible cycle;
            // FR-FCFS tie-break: row hits first, then queue (arrival)
            // order.
            let mut best: Option<(usize, Step, Cycle, bool)> = None;
            for (idx, p) in self.queue.iter().enumerate() {
                let (step, hit) = Self::next_step(channel, &p.req);
                let e = Self::earliest(channel, p.req.bank, step);
                let at = e.max(p.req.arrival).max(floor);
                let better = match &best {
                    None => true,
                    Some((best_idx, _, best_at, best_hit)) => {
                        (at, !hit, idx) < (*best_at, !best_hit, *best_idx)
                    }
                };
                if better {
                    best = Some((idx, step, at, hit));
                }
            }
            let (idx, step, at, _) = best.expect("queue is non-empty");

            // Refresh first if the deadline would mature inside this
            // request's worst-case service window (Sec. III-E policy).
            let margin = t.t_rp + t.t_rc() + 8 * t.t_cmd;
            if channel.refresh_due() <= at + margin {
                let any_open = (0..channel.config().banks).any(|b| channel.open_row(b).is_some());
                let ready = if any_open {
                    let p = channel.earliest_precharge_all().max(floor);
                    channel.issue_precharge_all(p)?;
                    p + t.t_rp
                } else {
                    channel.earliest_precharge_all().max(floor)
                };
                let r = ready.max(channel.refresh_due());
                channel.issue_refresh_all(r)?;
                self.stats.refreshes += 1;
                floor = r + t.t_rfc;
                continue;
            }
            // First-touch classification drives the hit/miss statistics.
            if self.queue[idx].first_step.is_none() {
                self.queue[idx].first_step = Some(step);
                match step {
                    Step::Precharge => self.stats.row_conflicts += 1,
                    Step::Activate => self.stats.row_misses += 1,
                    Step::Column => self.stats.row_hits += 1,
                }
            }
            // Precharge/activate need only Copy fields; the Column step
            // takes ownership of the entry, so the write payload is moved
            // — never cloned — into the substrate.
            match step {
                Step::Precharge => {
                    let bank = self.queue[idx].req.bank;
                    channel.issue_precharge(at, bank)?;
                }
                Step::Activate => {
                    let (bank, row) = {
                        let r = &self.queue[idx].req;
                        (r.bank, r.row)
                    };
                    channel.issue_activate(at, bank, row)?;
                }
                Step::Column => {
                    let pending = self.queue.remove(idx).expect("idx is in range");
                    let r = pending.req;
                    let (issue_cycle, data) = match &r.write {
                        Some(data) => {
                            let c = channel.issue_column_write_external(at, r.bank, r.col, data)?;
                            (c, Vec::new())
                        }
                        None => channel.issue_column_read_external(at, r.bank, r.col)?,
                    };
                    channel.record_queue_latency(issue_cycle, issue_cycle - r.arrival);
                    completions.push(Completion {
                        id: r.id,
                        issue_cycle,
                        data_cycle: issue_cycle + t.t_aa + t.t_ccd,
                        data,
                        row_hit: pending.first_step == Some(Step::Column),
                    });
                    if self.policy == PagePolicy::Closed {
                        let p = channel.earliest_precharge(r.bank);
                        channel.issue_precharge(p, r.bank)?;
                    }
                }
            }
        }
        Ok(completions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;
    use crate::stats::ChannelStats;

    fn channel() -> Channel {
        let mut ch = Channel::new(DramConfig::hbm2e_like()).unwrap();
        ch.enable_audit();
        ch
    }

    fn read(id: u64, bank: usize, row: usize, col: usize) -> Request {
        Request {
            id,
            bank,
            row,
            col,
            write: None,
            arrival: 0,
        }
    }

    #[test]
    fn pin_mixed_trace_order_and_cycles() {
        let mut ch = channel();
        let mut mc = FrFcfs::new(PagePolicy::Open);
        // Mixed trace: hits (same row re-reads), misses (idle banks),
        // conflicts (other row, same bank), staggered arrivals.
        let reqs = [
            (0u64, 0usize, 5usize, 0usize, 0u64),
            (1, 0, 5, 1, 0),
            (2, 0, 9, 0, 0),
            (3, 1, 3, 2, 0),
            (4, 0, 5, 2, 10),
            (5, 2, 7, 0, 40),
            (6, 1, 4, 0, 40),
            (7, 2, 7, 3, 60),
            (8, 0, 9, 1, 80),
            (9, 3, 1, 0, 200),
        ];
        for &(id, bank, row, col, arrival) in &reqs {
            mc.enqueue(Request {
                id,
                bank,
                row,
                col,
                write: None,
                arrival,
            });
        }
        let done = mc.drain(&mut ch, 0).unwrap();
        let got: Vec<(u64, u64, bool)> = done
            .iter()
            .map(|c| (c.id, c.issue_cycle, c.row_hit))
            .collect();
        // Captured from this full-queue rescan before any optimisation:
        // the completion order, every issue cycle, every hit flag, and
        // the statistics exactly.
        assert_eq!(
            got,
            vec![
                (0, 14, false),
                (1, 18, true),
                (3, 22, false),
                (4, 26, true),
                (5, 54, false),
                (7, 60, true),
                (2, 64, false),
                (6, 72, false),
                (8, 80, true),
                (9, 214, false),
            ]
        );
        assert_eq!(
            mc.stats(),
            &SchedulerStats {
                row_hits: 4,
                row_misses: 4,
                row_conflicts: 2,
                refreshes: 0,
            }
        );
        assert_eq!(ch.audit().unwrap().validate(ch.timing()), vec![]);
    }

    /// Deterministic splitmix64 for reproducible mixed workloads.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_mixed_requests(seed: u64, n: usize) -> Vec<Request> {
        let mut s = seed;
        let mut arrival = 0u64;
        (0..n as u64)
            .map(|id| {
                let r = mix(&mut s);
                arrival += r % 7; // slowly advancing, frequently equal
                Request {
                    id,
                    bank: (r >> 8) as usize % 16,
                    row: (r >> 16) as usize % 6,
                    col: (r >> 24) as usize % 32,
                    write: if r & 1 == 0 {
                        Some(vec![(r >> 32) as u8; 32])
                    } else {
                        None
                    },
                    arrival,
                }
            })
            .collect()
    }

    /// FNV-1a over everything a drain decides: each completion (id, issue
    /// and data cycle, hit flag, data), the scheduler statistics and the
    /// channel's event counters.
    fn outcome_digest(done: &[Completion], stats: &SchedulerStats, ch: &ChannelStats) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
            }
        };
        for c in done {
            let head = [c.id, c.issue_cycle, c.data_cycle, u64::from(c.row_hit)];
            for v in head.into_iter().chain([c.data.len() as u64]) {
                eat(v);
            }
            for &b in &c.data {
                eat(u64::from(b));
            }
        }
        let SchedulerStats {
            row_hits,
            row_misses,
            row_conflicts,
            refreshes,
        } = *stats;
        for v in [row_hits, row_misses, row_conflicts, refreshes] {
            eat(v);
        }
        let ChannelStats {
            activates,
            precharges,
            col_reads_external,
            col_writes_external,
            col_reads_internal,
            refreshes,
            ganged_commands,
            broadcast_bytes,
            ecc_corrected,
            ecc_uncorrectable,
        } = *ch;
        for v in [
            activates,
            precharges,
            col_reads_external,
            col_writes_external,
            col_reads_internal,
            refreshes,
            ganged_commands,
            broadcast_bytes,
            ecc_corrected,
            ecc_uncorrectable,
        ] {
            eat(v);
        }
        h
    }

    /// A long mixed read/write queue with refresh interposition, pinned
    /// per (policy, seed) to the digest the scheduler produced when a
    /// memoized rescan and an event-skipping drain both existed and
    /// agreed on every cell.
    #[test]
    fn long_mixed_read_write_queue_is_pinned() {
        let pinned = [
            (PagePolicy::Open, 1u64, 0x570e_61db_a938_44e0u64),
            (PagePolicy::Open, 42, 0xd2c6_bc1e_a5d0_88b3),
            (PagePolicy::Open, 9_000_000_000, 0x0797_3cb3_0c8e_6656),
            (PagePolicy::Closed, 1, 0x8b0c_b95e_9cc6_c453),
            (PagePolicy::Closed, 42, 0x325f_d42d_75b9_7d38),
            (PagePolicy::Closed, 9_000_000_000, 0x28d3_c496_6407_9b80),
        ];
        for (policy, seed, digest) in pinned {
            let mut ch = channel();
            let mut mc = FrFcfs::new(policy);
            for r in random_mixed_requests(seed, 1500) {
                mc.enqueue(r);
            }
            let done = mc.drain(&mut ch, 0).unwrap();
            assert_eq!(done.len(), 1500);
            assert_eq!(ch.audit().unwrap().validate(ch.timing()), vec![]);
            assert_eq!(
                outcome_digest(&done, mc.stats(), ch.stats()),
                digest,
                "policy {policy:?} seed {seed}"
            );
            assert!(
                mc.stats().refreshes >= 1,
                "long queues must interpose refresh: {:?}",
                mc.stats()
            );
        }
    }

    #[test]
    fn single_read_completes_with_miss_latency() {
        let mut ch = channel();
        let t = *ch.timing();
        let mut mc = FrFcfs::new(PagePolicy::Open);
        mc.enqueue(read(1, 0, 10, 3));
        let done = mc.drain(&mut ch, 0).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 1);
        assert!(!done[0].row_hit);
        assert_eq!(done[0].issue_cycle, t.t_rcd, "ACT at 0, RD at tRCD");
        assert_eq!(mc.stats().row_misses, 1);
        assert_eq!(ch.audit().unwrap().validate(&t), vec![]);
    }

    #[test]
    fn fr_fcfs_prefers_row_hits_over_older_conflicts() {
        let mut ch = channel();
        let t = *ch.timing();
        let mut mc = FrFcfs::new(PagePolicy::Open);
        // Oldest: row 5. Then a conflict (row 9, same bank). Then another
        // row-5 access that FR-FCFS should promote over the conflict.
        mc.enqueue(read(1, 0, 5, 0));
        mc.enqueue(read(2, 0, 9, 0));
        mc.enqueue(read(3, 0, 5, 1));
        let done = mc.drain(&mut ch, 0).unwrap();
        let order: Vec<u64> = done.iter().map(|c| c.id).collect();
        assert_eq!(order, vec![1, 3, 2], "row hit promoted: {order:?}");
        assert_eq!(mc.stats().row_hits, 1);
        assert_eq!(mc.stats().row_conflicts, 1);
        assert_eq!(ch.audit().unwrap().validate(&t), vec![]);
    }

    #[test]
    fn bank_parallelism_beats_same_bank_serialization() {
        let run = |banks: [usize; 4]| {
            let mut ch = channel();
            let mut mc = FrFcfs::new(PagePolicy::Open);
            for (i, &b) in banks.iter().enumerate() {
                mc.enqueue(read(i as u64, b, i, 0));
            }
            let done = mc.drain(&mut ch, 0).unwrap();
            done.iter().map(|c| c.data_cycle).max().unwrap()
        };
        let parallel = run([0, 1, 2, 3]);
        let serial = run([0, 0, 0, 0]); // four different rows, one bank
        assert!(
            serial > 2 * parallel,
            "same-bank conflicts must serialize: {serial} vs {parallel}"
        );
    }

    #[test]
    fn closed_page_precharges_after_each_access() {
        let mut ch = channel();
        let mut mc = FrFcfs::new(PagePolicy::Closed);
        mc.enqueue(read(1, 2, 7, 0));
        mc.drain(&mut ch, 0).unwrap();
        assert_eq!(ch.open_row(2), None);
        // Open page would have left it open.
        let mut ch = channel();
        let mut mc = FrFcfs::new(PagePolicy::Open);
        mc.enqueue(read(1, 2, 7, 0));
        mc.drain(&mut ch, 0).unwrap();
        assert_eq!(ch.open_row(2), Some(7));
    }

    #[test]
    fn writes_store_data_and_reads_return_it() {
        let mut ch = channel();
        let mut mc = FrFcfs::new(PagePolicy::Open);
        mc.enqueue(Request {
            id: 1,
            bank: 4,
            row: 2,
            col: 6,
            write: Some(vec![0xABu8; 32]),
            arrival: 0,
        });
        mc.enqueue(read(2, 4, 2, 6));
        let done = mc.drain(&mut ch, 0).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(done[1].data, vec![0xABu8; 32]);
        assert!(done[1].row_hit, "the read hits the row the write opened");
        assert_eq!(ch.audit().unwrap().validate(ch.timing()), vec![]);
    }

    #[test]
    fn long_drains_interpose_refresh_and_stay_legal() {
        let mut ch = channel();
        let t = *ch.timing();
        let mut mc = FrFcfs::new(PagePolicy::Closed);
        // 1000 row misses: even with 16-bank parallelism (tFAW-limited
        // to ~4 activations per 30 ns) this spans > tREFI.
        for i in 0..1000u64 {
            mc.enqueue(read(i, (i % 16) as usize, (i / 16) as usize, 0));
        }
        let done = mc.drain(&mut ch, 0).unwrap();
        assert_eq!(done.len(), 1000);
        assert!(mc.stats().refreshes >= 1, "{:?}", mc.stats());
        assert_eq!(ch.audit().unwrap().validate(&t), vec![]);
    }

    #[test]
    fn arrival_times_gate_issue() {
        let mut ch = channel();
        let mut mc = FrFcfs::new(PagePolicy::Open);
        mc.enqueue(Request {
            id: 1,
            bank: 0,
            row: 0,
            col: 0,
            write: None,
            arrival: 5000,
        });
        let done = mc.drain(&mut ch, 0).unwrap();
        assert!(done[0].issue_cycle >= 5000);
    }

    #[test]
    fn back_to_back_hits_stream_at_tccd() {
        let mut ch = channel();
        let t = *ch.timing();
        let mut mc = FrFcfs::new(PagePolicy::Open);
        for i in 0..8u64 {
            mc.enqueue(read(i, 0, 0, i as usize));
        }
        let done = mc.drain(&mut ch, 0).unwrap();
        let issues: Vec<Cycle> = done.iter().map(|c| c.issue_cycle).collect();
        for w in issues.windows(2) {
            assert_eq!(w[1] - w[0], t.t_ccd, "hits stream at the column cadence");
        }
        assert_eq!(mc.stats().row_hits, 7);
    }

    #[test]
    fn drain_records_queue_latency_per_completion() {
        let mut ch = channel();
        let mut mc = FrFcfs::new(PagePolicy::Open);
        for i in 0..8u64 {
            mc.enqueue(read(i, 0, 0, i as usize));
        }
        let done = mc.drain(&mut ch, 0).unwrap();
        let s = ch.summary(done.iter().map(|c| c.data_cycle).max().unwrap());
        assert_eq!(s.queue_latency.count(), 8);
        // Every request arrived at 0, so waited == issue cycle; later
        // requests waited strictly longer than the first.
        assert_eq!(
            s.queue_latency.max(),
            done.iter().map(|c| c.issue_cycle).max().unwrap()
        );
    }
}
