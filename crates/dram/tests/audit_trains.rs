//! The audit's three ways of being written must be one log.
//!
//! Random logs — Newton-shaped row-sets (a GWRITE train over the ganged
//! activations, a COMP train, a precharge-all, now and then a refresh),
//! perturbed by train- and event-level mutations, with stray items and
//! out-of-order recording thrown in, so legal and illegal — are written
//! three ways: event by event, folded (trains, ganged activations and
//! precharge-alls as one record each), and folded with the incremental
//! check called at cut points along the way.
//! All three must agree on `events()` and on the full
//! `validate` vector; the incremental results must add up to that vector
//! whenever the cuts were clean in cycle order, and a dirty cut must
//! return the full pass's verdict on the spot.
//!
//! The comparison is between recordings, never between implementations:
//! the audit has one checker, and the only expansion of a folded record
//! besides the audit's own is the test suites' (`common::Item::expand`).

mod common;

use common::Item;
use newton_dram::audit::{Audit, AuditEvent, AuditViolation, BusKind};
use newton_dram::timing::{Cycle, Timing, TimingParams};
use proptest::prelude::*;

fn timing() -> Timing {
    TimingParams::hbm2e_like()
        .to_cycles()
        .expect("hbm2e_like timing converts")
}

impl Item {
    /// Moves the item in time (saturating at cycle 0).
    fn shift(&mut self, delta: i64) {
        let bump = |c: &mut Cycle| *c = c.saturating_add_signed(delta);
        match self {
            Item::Train { start, .. } => bump(start),
            Item::Activate { cycle, .. } | Item::PrechargeAll { cycle, .. } => bump(cycle),
            Item::Event(
                AuditEvent::Act { cycle, .. }
                | AuditEvent::Pre { cycle, .. }
                | AuditEvent::ColRd { cycle, .. }
                | AuditEvent::ColWr { cycle, .. }
                | AuditEvent::Ref { cycle }
                | AuditEvent::Slot { cycle, .. },
            ) => bump(cycle),
        }
    }
}

/// Where an event sorts in the audit's documented reading order, up to
/// recording order: by cycle, a refresh first within its cycle.
fn position(e: &AuditEvent) -> (Cycle, bool) {
    match *e {
        AuditEvent::Ref { cycle } => (cycle, false),
        AuditEvent::Act { cycle, .. }
        | AuditEvent::Pre { cycle, .. }
        | AuditEvent::ColRd { cycle, .. }
        | AuditEvent::ColWr { cycle, .. }
        | AuditEvent::Slot { cycle, .. } => (cycle, true),
    }
}

const BANKS: usize = 4;

/// `row_sets` legal Newton row-sets on banks `0..BANKS`, each item tagged
/// with its row-set. Row-sets are `slack` cycles further apart than they
/// need be, so small shifts keep them apart.
fn newton_log(
    t: &Timing,
    row_sets: usize,
    gwrites: usize,
    comps: usize,
    refresh_after: Option<usize>,
    slack: Cycle,
) -> Vec<(usize, Item)> {
    let step = t.t_ccd.max(t.t_cmd);
    let mut items = Vec::new();
    let mut now = slack;
    for rs in 0..row_sets {
        let mut push = |item: Item| items.push((rs, item));
        push(Item::Train {
            start: now,
            step,
            count: gwrites,
            banks: Vec::new(),
        });
        push(Item::Activate {
            cycle: now,
            pairs: (0..BANKS).map(|bank| (bank, rs)).collect(),
        });
        let comp = (now + gwrites as Cycle * step).max(now + t.t_rcd);
        push(Item::Train {
            start: comp,
            step,
            count: comps,
            banks: (0..BANKS).collect(),
        });
        let last = comp + (comps as Cycle - 1) * step;
        push(Item::Event(AuditEvent::Slot {
            cycle: last + step,
            bus: BusKind::Column,
        }));
        let close = (now + t.t_ras).max(last + t.t_rtp);
        push(Item::PrechargeAll {
            cycle: close,
            banks: (0..BANKS).collect(),
        });
        now = (close + t.t_rp).max(last + 2 * step) + slack;
        if refresh_after == Some(rs) {
            push(Item::Event(AuditEvent::Slot {
                cycle: now,
                bus: BusKind::Row,
            }));
            push(Item::Event(AuditEvent::Ref { cycle: now }));
            now += t.t_rfc + slack;
        }
    }
    items
}

/// One perturbation of one item, chosen by `pick % items`.
#[derive(Debug, Clone)]
enum Mutation {
    Shift {
        pick: usize,
        delta: i64,
    },
    Step {
        pick: usize,
        step: Cycle,
    },
    Lengthen {
        pick: usize,
        by: usize,
    },
    /// Record the item a second time, `delta` cycles away: for a train,
    /// a second train overlapping the first.
    Repeat {
        pick: usize,
        delta: i64,
    },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        4 => (0usize..1000, -6i64..7).prop_map(|(pick, delta)| Mutation::Shift { pick, delta }),
        2 => (0usize..1000, 0u64..6).prop_map(|(pick, step)| Mutation::Step { pick, step }),
        1 => (0usize..1000, 1usize..4).prop_map(|(pick, by)| Mutation::Lengthen { pick, by }),
        1 => (0usize..1000, -3i64..4).prop_map(|(pick, delta)| Mutation::Repeat { pick, delta }),
    ]
}

fn mutate(items: &mut Vec<(usize, Item)>, mutation: &Mutation) {
    let len = items.len();
    let at = |pick: usize| pick % len;
    match *mutation {
        Mutation::Shift { pick, delta } => items[at(pick)].1.shift(delta),
        Mutation::Step { pick, step: to } => {
            // The nearest train at or after the pick, if any.
            let from = at(pick);
            if let Some(Item::Train { step, .. }) = items[from..]
                .iter_mut()
                .map(|(_, item)| item)
                .find(|item| matches!(item, Item::Train { .. }))
            {
                *step = to;
            }
        }
        Mutation::Lengthen { pick, by } => {
            let from = at(pick);
            if let Some(Item::Train { count, .. }) = items[from..]
                .iter_mut()
                .map(|(_, item)| item)
                .find(|item| matches!(item, Item::Train { .. }))
            {
                *count += by;
            }
        }
        Mutation::Repeat { pick, delta } => {
            let (rs, mut twin) = items[at(pick)].clone();
            twin.shift(delta);
            items.insert(at(pick) + 1, (rs, twin));
        }
    }
}

/// A stray item with no regard for legality or for where in time the
/// log has got to: recorded out of order by construction.
fn stray(horizon: Cycle) -> impl Strategy<Value = Item> {
    let event = (0u8..6, 0usize..BANKS + 1, 0..horizon).prop_map(|(kind, bank, cycle)| {
        Item::Event(match kind {
            0 => AuditEvent::Act {
                bank,
                row: 99,
                cycle,
            },
            1 => AuditEvent::Pre { bank, cycle },
            2 => AuditEvent::ColRd {
                bank,
                cycle,
                external: true,
            },
            3 => AuditEvent::ColWr { bank, cycle },
            4 => AuditEvent::Ref { cycle },
            _ => AuditEvent::Slot {
                cycle,
                bus: if bank % 2 == 0 {
                    BusKind::Row
                } else {
                    BusKind::Column
                },
            },
        })
    });
    let train = (0..horizon, 0u64..6, 1usize..5, 0usize..BANKS + 1, 0usize..3).prop_map(
        |(start, step, count, first, len)| Item::Train {
            start,
            step,
            count,
            // Descending, so issue order is not bank order.
            banks: (0..len)
                .map(|k| (first + BANKS - k) % (BANKS + 1))
                .collect(),
        },
    );
    // A gang that opens one row folds into one record; one that opens
    // several is recorded event by event — both must read the same.
    let activate = (0..horizon, 0usize..BANKS + 1, 0usize..4, any::<bool>()).prop_map(
        |(cycle, first, len, one_row)| Item::Activate {
            cycle,
            pairs: (0..len)
                .map(|k| ((first + k) % (BANKS + 1), if one_row { 7 } else { k }))
                .collect(),
        },
    );
    let precharge = (0..horizon, 0usize..BANKS + 1, 0usize..4).prop_map(|(cycle, first, len)| {
        Item::PrechargeAll {
            cycle,
            banks: (0..len).map(|k| (first + 2 * k) % (BANKS + 1)).collect(),
        }
    });
    prop_oneof![4 => event, 2 => train, 1 => activate, 1 => precharge]
}

/// By constraint and detail: the order the incremental results are
/// compared in, since each call groups its own findings by constraint.
fn sorted(mut found: Vec<AuditViolation>) -> Vec<AuditViolation> {
    found.sort_by(|a, b| (a.constraint, &a.detail).cmp(&(b.constraint, &b.detail)));
    found
}

/// Writes `items` the three ways, checking after every item whose index
/// is in `cuts`, and compares. Returns whether every cut was clean.
fn three_writings_agree(items: &[Item], cuts: &[usize], t: &Timing) -> Result<bool, TestCaseError> {
    let mut singly = Audit::new();
    let mut folded = Audit::new();
    let mut cut_up = Audit::new();
    // What the incremental results add up to since the last dirty cut
    // (whose own result is the whole verdict to date).
    let mut added: Vec<AuditViolation> = Vec::new();
    let mut all_clean = true;
    let mut checked_up_to: Option<(Cycle, bool)> = None;
    let mut unchecked: Vec<(Cycle, bool)> = Vec::new();
    for (i, item) in items.iter().enumerate() {
        item.record(&mut singly, false);
        item.record(&mut folded, true);
        item.record(&mut cut_up, true);
        unchecked.extend(item.expand().iter().map(position));
        if !cuts.contains(&i) && i + 1 != items.len() {
            continue;
        }
        // This file's own reading of "clean": nothing new sorts before
        // something already checked.
        let clean = unchecked.iter().min().copied() >= checked_up_to || unchecked.is_empty();
        checked_up_to = checked_up_to.max(unchecked.drain(..).max());
        let visited = cut_up.events_visited();
        let result = cut_up.validate_new(t);
        if clean {
            added.extend(result);
        } else {
            all_clean = false;
            prop_assert_eq!(&result, &cut_up.validate(t), "dirty cut after item {}", i);
            prop_assert_eq!(
                cut_up.events_visited(),
                visited + cut_up.events().count() as u64,
                "a dirty cut re-reads the log"
            );
            added = result;
        }
    }
    let expanded: Vec<AuditEvent> = items.iter().flat_map(Item::expand).collect();
    for audit in [&singly, &folded, &cut_up] {
        prop_assert_eq!(audit.events().collect::<Vec<_>>(), expanded.clone());
    }
    let full = singly.validate(t);
    prop_assert_eq!(&folded.validate(t), &full, "folded");
    prop_assert_eq!(
        &cut_up.validate(t),
        &full,
        "folded, after incremental checks"
    );
    prop_assert_eq!(sorted(added), sorted(full), "incremental results add up");
    if all_clean {
        prop_assert_eq!(
            cut_up.events_visited(),
            cut_up.events().count() as u64,
            "each event once"
        );
    }
    Ok(all_clean)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Anything goes: mutations, stray items, swapped recording order,
    /// cuts anywhere (so most cuts that fall inside a row-set are dirty).
    #[test]
    fn logs_agree_however_they_are_written_and_wherever_they_are_cut(
        shape in (1usize..4, 1usize..5, 1usize..7, 0usize..6),
        mutations in prop::collection::vec(mutation(), 0..4),
        strays in prop::collection::vec((0usize..1000, stray(400)), 0..5),
        swaps in prop::collection::vec(0usize..1000, 0..6),
        cuts in prop::collection::vec(0usize..48, 0..6),
    ) {
        let t = timing();
        let (row_sets, gwrites, comps, refresh) = shape;
        let refresh_after = (refresh < row_sets).then_some(refresh);
        let mut items = newton_log(&t, row_sets, gwrites, comps, refresh_after, 0);
        for m in &mutations {
            mutate(&mut items, m);
        }
        let mut items: Vec<Item> = items.into_iter().map(|(_, item)| item).collect();
        for (pick, item) in strays {
            items.insert(pick % (items.len() + 1), item);
        }
        for pick in swaps {
            let i = pick % items.len();
            if i + 1 < items.len() {
                items.swap(i, i + 1);
            }
        }
        three_writings_agree(&items, &cuts, &t)?;
    }

    /// Cuts at row-set boundaries of a log whose mutations stay inside
    /// their row-set — the shape of the controller's per-run check — are
    /// clean: every event is visited once and the incremental results add
    /// up to the full verdict.
    #[test]
    fn cuts_at_row_set_boundaries_check_every_event_once(
        shape in (2usize..5, 1usize..5, 1usize..7, 0usize..6),
        mutations in prop::collection::vec(mutation(), 0..4),
        swaps in prop::collection::vec(0usize..1000, 0..6),
        keep in prop::collection::vec(any::<bool>(), 4),
    ) {
        let t = timing();
        let (row_sets, gwrites, comps, refresh) = shape;
        let refresh_after = (refresh < row_sets).then_some(refresh);
        // Mutations move things by at most 6 cycles or 3 commands.
        let slack = 8 + 3 * t.t_ccd.max(t.t_cmd);
        let mut items = newton_log(&t, row_sets, gwrites, comps, refresh_after, slack);
        for m in &mutations {
            mutate(&mut items, m);
        }
        for pick in swaps {
            let i = pick % items.len();
            if i + 1 < items.len() && items[i].0 == items[i + 1].0 {
                items.swap(i, i + 1);
            }
        }
        let cuts: Vec<usize> = (0..items.len() - 1)
            .filter(|&i| items[i].0 != items[i + 1].0 && keep[items[i].0 % keep.len()])
            .collect();
        let items: Vec<Item> = items.into_iter().map(|(_, item)| item).collect();
        let all_clean = three_writings_agree(&items, &cuts, &t)?;
        prop_assert!(all_clean, "row-set boundaries are clean cuts");
    }
}
