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
//! # Timing engines
//!
//! Two schedulers produce that stream, selected by [`TimingEngine`] and
//! proven byte-identical against each other:
//!
//! * [`TimingEngine::Reference`]: the original full-queue rescan, with a
//!   persistent per-(bank, step) memo of `earliest_*` results that is
//!   invalidated *selectively* — an issue clears only the entries whose
//!   channel inputs it moved (the issuing bank; every bank's PRE/ACT
//!   after a row-bus slot, which also covers the tFAW window; every
//!   bank's column gate after a column-bus/data-bus slot).
//! * [`TimingEngine::EventSkipping`] (the default): a next-event
//!   structure. Per-bank candidate lists are maintained incrementally in
//!   arrival order; each round computes the shared scheduling floors
//!   once ([`Channel::scheduling_floors`]) and finds each bank's best
//!   candidate per primitive class with an early-exit scan, so a round
//!   costs O(banks) instead of O(queue).
//!
//! The engine is chosen by whoever constructs the controller
//! ([`FrFcfs::with_engine`]; `NewtonConfig::engine` in `newton-core`):
//! nothing process-wide selects it.

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

/// Which drain algorithm the FR-FCFS controller runs. Both engines emit
/// byte-identical command streams, completions, and statistics; they
/// differ only in host-side work per scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TimingEngine {
    /// Next-event scheduling: shared floors computed once per round plus
    /// per-bank candidate lists with early-exit scans. The default.
    #[default]
    EventSkipping,
    /// The original full-queue rescan (with memoized `earliest_*`
    /// queries), kept as the byte-identity oracle.
    Reference,
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

impl Step {
    /// Dense index for the per-(bank, step) memo table.
    fn index(self) -> usize {
        match self {
            Step::Precharge => 0,
            Step::Activate => 1,
            Step::Column => 2,
        }
    }
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
    engine: TimingEngine,
    queue: VecDeque<Pending>,
    stats: SchedulerStats,
    /// Per-(bank, step) memo of `earliest_*` results for the reference
    /// drain, persistent across scheduling rounds: entries stay valid
    /// until an issue moves one of their channel inputs, at which point
    /// exactly the affected `(bank, step)` slots are cleared. Reused
    /// across drains to keep the loop allocation-free.
    earliest_memo: Vec<[Option<Cycle>; 3]>,
}

impl FrFcfs {
    /// Creates a controller with the given page policy and the default
    /// timing engine ([`TimingEngine::EventSkipping`]).
    #[must_use]
    pub fn new(policy: PagePolicy) -> FrFcfs {
        FrFcfs {
            policy,
            ..FrFcfs::default()
        }
    }

    /// Creates a controller with an explicit timing engine.
    #[must_use]
    pub fn with_engine(policy: PagePolicy, engine: TimingEngine) -> FrFcfs {
        FrFcfs {
            policy,
            engine,
            ..FrFcfs::default()
        }
    }

    /// The page policy in use.
    #[must_use]
    pub fn policy(&self) -> PagePolicy {
        self.policy
    }

    /// The timing engine in use.
    #[must_use]
    pub fn engine(&self) -> TimingEngine {
        self.engine
    }

    /// Enqueues a request.
    pub fn enqueue(&mut self, request: Request) {
        self.queue.push_back(Pending {
            req: request,
            first_step: None,
        });
    }

    /// Pending request count.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
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
    fn earliest_raw(channel: &Channel, bank: usize, step: Step) -> Cycle {
        match step {
            Step::Precharge => channel.earliest_precharge(bank),
            Step::Activate => channel.earliest_activate(bank),
            Step::Column => channel.earliest_column_read(0, bank),
        }
    }

    /// Invalidates memo entries after a row-bus command on `bank`: the
    /// row-bus slot gates PRE and ACT on *every* bank (and an ACT also
    /// moves the tFAW window, which the same entries carry), while the
    /// issuing bank's own gates all moved.
    fn invalidate_row_bus(memo: &mut [[Option<Cycle>; 3]], bank: usize) {
        for m in memo.iter_mut() {
            m[Step::Precharge.index()] = None;
            m[Step::Activate.index()] = None;
        }
        memo[bank] = [None; 3];
    }

    /// Invalidates memo entries after a column command on `bank`: the
    /// column-bus slot and the data bus gate every bank's column access,
    /// and the issuing bank's own gates (tCCD, tRTP/tWR) moved.
    fn invalidate_column(memo: &mut [[Option<Cycle>; 3]], bank: usize) {
        for m in memo.iter_mut() {
            m[Step::Column.index()] = None;
        }
        memo[bank] = [None; 3];
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
        match self.engine {
            TimingEngine::Reference => self.drain_reference(channel, start),
            TimingEngine::EventSkipping => self.drain_event_skipping(channel, start),
        }
    }

    /// The reference drain: full-queue rescan per round with a
    /// persistent, selectively invalidated `earliest_*` memo.
    fn drain_reference(
        &mut self,
        channel: &mut Channel,
        start: Cycle,
    ) -> Result<Vec<Completion>, DramError> {
        let t = *channel.timing();
        let mut completions = Vec::with_capacity(self.queue.len());
        let mut floor = start;
        self.earliest_memo.clear();
        self.earliest_memo.resize(channel.config().banks, [None; 3]);

        while !self.queue.is_empty() {
            // Pick the pending primitive with the earliest feasible cycle;
            // FR-FCFS tie-break: row hits first, then queue (arrival)
            // order. Memo entries persist across rounds — the issue arms
            // below clear exactly the (bank, step) slots they move.
            let memo = &mut self.earliest_memo;
            let mut best: Option<(usize, Step, Cycle, bool)> = None;
            for (idx, p) in self.queue.iter().enumerate() {
                let (step, hit) = Self::next_step(channel, &p.req);
                let slot = &mut memo[p.req.bank][step.index()];
                let e = match *slot {
                    Some(e) => e,
                    None => {
                        let e = Self::earliest_raw(channel, p.req.bank, step);
                        *slot = Some(e);
                        e
                    }
                };
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
                for m in &mut self.earliest_memo {
                    *m = [None; 3];
                }
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
                    Self::invalidate_row_bus(&mut self.earliest_memo, bank);
                }
                Step::Activate => {
                    let (bank, row) = {
                        let r = &self.queue[idx].req;
                        (r.bank, r.row)
                    };
                    channel.issue_activate(at, bank, row)?;
                    Self::invalidate_row_bus(&mut self.earliest_memo, bank);
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
                    Self::invalidate_column(&mut self.earliest_memo, r.bank);
                    if self.policy == PagePolicy::Closed {
                        let p = channel.earliest_precharge(r.bank);
                        channel.issue_precharge(p, r.bank)?;
                        Self::invalidate_row_bus(&mut self.earliest_memo, r.bank);
                    }
                }
            }
        }
        Ok(completions)
    }

    /// The event-skipping drain. The queue moves into a slab indexed in
    /// arrival order; per-bank member lists keep those indices sorted, so
    /// the FCFS tie-break is a plain index comparison (the reference
    /// queue preserves relative order on removal, so slab-index
    /// comparisons reproduce its queue-index comparisons exactly). Each
    /// round computes the shared floors once, then every bank nominates
    /// its best candidate per primitive class: within a (bank, class)
    /// group the earliest cycle and the row-hit flag are shared, so the
    /// first member in arrival order whose arrival is at or below the
    /// shared base is unbeatable and the scan exits there.
    fn drain_event_skipping(
        &mut self,
        channel: &mut Channel,
        start: Cycle,
    ) -> Result<Vec<Completion>, DramError> {
        let t = *channel.timing();
        let n_banks = channel.config().banks;
        let mut completions = Vec::with_capacity(self.queue.len());
        let mut floor = start;

        let mut slab: Vec<Option<Pending>> = self.queue.drain(..).map(Some).collect();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_banks];
        for (seq, slot) in slab.iter().enumerate() {
            members[slot.as_ref().expect("freshly filled").req.bank].push(seq);
        }
        let mut remaining = slab.len();

        while remaining > 0 {
            let floors = channel.scheduling_floors();
            let mut best: Option<(usize, Step, Cycle, bool)> = None;
            let mut merge = |cand: Option<(Cycle, usize)>, step: Step, hit: bool| {
                if let Some((at, seq)) = cand {
                    let better = match &best {
                        None => true,
                        Some((best_seq, _, best_at, best_hit)) => {
                            (at, !hit, seq) < (*best_at, !best_hit, *best_seq)
                        }
                    };
                    if better {
                        best = Some((seq, step, at, hit));
                    }
                }
            };
            for (bank, list) in members.iter().enumerate() {
                if list.is_empty() {
                    continue;
                }
                let (act_gate, col_gate, pre_gate) = channel.bank_gates(bank);
                match channel.open_row(bank) {
                    None => {
                        // Idle bank: every member wants Activate.
                        let base = act_gate.max(floors.act[0]).max(floors.row_slot).max(floor);
                        let mut cand: Option<(Cycle, usize)> = None;
                        for &seq in list {
                            let arrival = slab[seq].as_ref().expect("member is live").req.arrival;
                            if arrival <= base {
                                cand = Some((base, seq));
                                break;
                            }
                            if cand.is_none_or(|(c_at, _)| arrival < c_at) {
                                cand = Some((arrival, seq));
                            }
                        }
                        merge(cand, Step::Activate, false);
                    }
                    Some(open) => {
                        // Open bank: members split into row hits (Column)
                        // and conflicts (Precharge).
                        let col_base = col_gate
                            .max(floors.col_slot)
                            .max(floors.col_data)
                            .max(floor);
                        let pre_base = pre_gate.max(floors.row_slot).max(floor);
                        let mut col: Option<(Cycle, usize)> = None;
                        let mut col_done = false;
                        let mut pre: Option<(Cycle, usize)> = None;
                        let mut pre_done = false;
                        for &seq in list {
                            let req = &slab[seq].as_ref().expect("member is live").req;
                            if req.row == open {
                                if col_done {
                                    continue;
                                }
                                if req.arrival <= col_base {
                                    col = Some((col_base, seq));
                                    col_done = true;
                                } else if col.is_none_or(|(at, _)| req.arrival < at) {
                                    col = Some((req.arrival, seq));
                                }
                            } else {
                                if pre_done {
                                    continue;
                                }
                                if req.arrival <= pre_base {
                                    pre = Some((pre_base, seq));
                                    pre_done = true;
                                } else if pre.is_none_or(|(at, _)| req.arrival < at) {
                                    pre = Some((req.arrival, seq));
                                }
                            }
                            if col_done && pre_done {
                                break;
                            }
                        }
                        merge(col, Step::Column, true);
                        merge(pre, Step::Precharge, false);
                    }
                }
            }
            let (seq, step, at, _) = best.expect("remaining > 0 members exist");
            let bank = slab[seq].as_ref().expect("chosen member is live").req.bank;
            debug_assert_eq!(
                at,
                Self::earliest_raw(channel, bank, step)
                    .max(
                        slab[seq]
                            .as_ref()
                            .expect("chosen member is live")
                            .req
                            .arrival
                    )
                    .max(floor),
                "floor decomposition must reproduce the channel's earliest_* query"
            );

            // Refresh interposition: identical policy to the reference.
            let margin = t.t_rp + t.t_rc() + 8 * t.t_cmd;
            if channel.refresh_due() <= at + margin {
                let any_open = (0..n_banks).any(|b| channel.open_row(b).is_some());
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
            let pending = slab[seq].as_mut().expect("chosen member is live");
            if pending.first_step.is_none() {
                pending.first_step = Some(step);
                match step {
                    Step::Precharge => self.stats.row_conflicts += 1,
                    Step::Activate => self.stats.row_misses += 1,
                    Step::Column => self.stats.row_hits += 1,
                }
            }
            match step {
                Step::Precharge => {
                    channel.issue_precharge(at, bank)?;
                }
                Step::Activate => {
                    let row = pending.req.row;
                    channel.issue_activate(at, bank, row)?;
                }
                Step::Column => {
                    let pending = slab[seq].take().expect("chosen member is live");
                    let list = &mut members[bank];
                    let pos = list
                        .iter()
                        .position(|&s| s == seq)
                        .expect("member list tracks the slab");
                    list.remove(pos);
                    remaining -= 1;
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

    const ENGINES: [TimingEngine; 2] = [TimingEngine::Reference, TimingEngine::EventSkipping];

    #[test]
    fn pin_mixed_trace_order_and_cycles() {
        for engine in ENGINES {
            let mut ch = channel();
            let mut mc = FrFcfs::with_engine(PagePolicy::Open, engine);
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
            // Captured from the pre-optimization scheduler: both engines
            // must reproduce this completion order, every issue cycle,
            // every hit flag, and the statistics exactly.
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
                ],
                "engine {engine:?}"
            );
            assert_eq!(
                mc.stats(),
                &SchedulerStats {
                    row_hits: 4,
                    row_misses: 4,
                    row_conflicts: 2,
                    refreshes: 0,
                },
                "engine {engine:?}"
            );
            assert_eq!(ch.audit().unwrap().validate(ch.timing()), vec![]);
        }
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

    /// Satellite regression for the memoized reference drain and the
    /// event-skipping engine: on a long mixed read/write queue (with
    /// refresh interposition) every engine produces identical
    /// completions, cycles, data, scheduler stats, substrate stats, and
    /// a clean audit.
    #[test]
    fn engines_identical_on_long_mixed_read_write_queue() {
        for policy in [PagePolicy::Open, PagePolicy::Closed] {
            for seed in [1u64, 42, 9_000_000_000] {
                let mut results = Vec::new();
                for engine in ENGINES {
                    let mut ch = channel();
                    let mut mc = FrFcfs::with_engine(policy, engine);
                    for r in random_mixed_requests(seed, 1500) {
                        mc.enqueue(r);
                    }
                    let done = mc.drain(&mut ch, 0).unwrap();
                    assert_eq!(done.len(), 1500);
                    assert_eq!(ch.audit().unwrap().validate(ch.timing()), vec![]);
                    results.push((done, *mc.stats(), *ch.stats()));
                }
                let (ref_done, ref_stats, ref_ch) = &results[0];
                let (ev_done, ev_stats, ev_ch) = &results[1];
                assert_eq!(ref_done, ev_done, "policy {policy:?} seed {seed}");
                assert_eq!(ref_stats, ev_stats, "policy {policy:?} seed {seed}");
                assert_eq!(ref_ch, ev_ch, "policy {policy:?} seed {seed}");
                assert!(
                    ref_stats.refreshes >= 1,
                    "long queues must interpose refresh: {ref_stats:?}"
                );
            }
        }
    }

    #[test]
    fn with_engine_overrides_the_default() {
        let mc = FrFcfs::with_engine(PagePolicy::Open, TimingEngine::Reference);
        assert_eq!(mc.engine(), TimingEngine::Reference);
        let mc = FrFcfs::with_engine(PagePolicy::Closed, TimingEngine::EventSkipping);
        assert_eq!(mc.engine(), TimingEngine::EventSkipping);
        assert_eq!(
            FrFcfs::new(PagePolicy::Open).engine(),
            TimingEngine::EventSkipping
        );
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
        for engine in ENGINES {
            let mut ch = channel();
            let t = *ch.timing();
            let mut mc = FrFcfs::with_engine(PagePolicy::Open, engine);
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
        for engine in ENGINES {
            let mut ch = channel();
            let mut mc = FrFcfs::with_engine(PagePolicy::Closed, engine);
            mc.enqueue(read(1, 2, 7, 0));
            mc.drain(&mut ch, 0).unwrap();
            assert_eq!(ch.open_row(2), None);
            // Open page would have left it open.
            let mut ch = channel();
            let mut mc = FrFcfs::with_engine(PagePolicy::Open, engine);
            mc.enqueue(read(1, 2, 7, 0));
            mc.drain(&mut ch, 0).unwrap();
            assert_eq!(ch.open_row(2), Some(7));
        }
    }

    #[test]
    fn writes_store_data_and_reads_return_it() {
        for engine in ENGINES {
            let mut ch = channel();
            let mut mc = FrFcfs::with_engine(PagePolicy::Open, engine);
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
    }

    #[test]
    fn long_drains_interpose_refresh_and_stay_legal() {
        for engine in ENGINES {
            let mut ch = channel();
            let t = *ch.timing();
            let mut mc = FrFcfs::with_engine(PagePolicy::Closed, engine);
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
    }

    #[test]
    fn arrival_times_gate_issue() {
        for engine in ENGINES {
            let mut ch = channel();
            let mut mc = FrFcfs::with_engine(PagePolicy::Open, engine);
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
    }

    #[test]
    fn back_to_back_hits_stream_at_tccd() {
        for engine in ENGINES {
            let mut ch = channel();
            let t = *ch.timing();
            let mut mc = FrFcfs::with_engine(PagePolicy::Open, engine);
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
