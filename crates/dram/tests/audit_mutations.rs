//! Adversarial mutation corpus for the post-hoc timing audit.
//!
//! Each test starts from a *legal* command-stream event log (verified
//! clean), applies exactly one adversarial perturbation — the kind of
//! off-by-a-few-cycles bug a scheduler regression would introduce — and
//! asserts the audit rejects it, naming the right constraint. A
//! validator that waves mutated logs through would make every timing
//! number in the repo untrustworthy, so each mutation must fail loudly.
//!
//! The audit stores command trains folded and expands them when it reads
//! the log, so every case runs twice: once written event by event and
//! once with the column events recorded as trains wherever they form one.
//! The two verdicts must be equal, violation for violation. A second
//! corpus starts from a Newton-shaped log — a GWRITE train over the
//! activation chain, a COMP train, a precharge-all — and perturbs the
//! trains themselves. Its ganged activations and precharge-alls are
//! recorded the way the channel records them, one folded record each.

mod common;

use common::Item;
use newton_dram::audit::{Audit, AuditEvent, BusKind};
use newton_dram::timing::{Cycle, Timing, TimingParams};

fn timing() -> Timing {
    TimingParams::hbm2e_like()
        .to_cycles()
        .expect("hbm2e_like timing converts")
}

/// A legal two-bank open/read/close sequence followed by an on-time
/// refresh and a post-refresh reopen. Every mutation below edits one
/// event of this log.
fn legal_log(t: &Timing) -> Vec<AuditEvent> {
    let mut ev = Vec::new();
    let slot = |ev: &mut Vec<AuditEvent>, cycle: Cycle, bus: BusKind| {
        ev.push(AuditEvent::Slot { cycle, bus });
    };

    // Bank 0: ACT, two reads spaced tCCD, PRE after tRAS/tRTP.
    slot(&mut ev, 0, BusKind::Row);
    ev.push(AuditEvent::Act {
        bank: 0,
        row: 7,
        cycle: 0,
    });
    let rd0 = t.t_rcd;
    slot(&mut ev, rd0, BusKind::Column);
    ev.push(AuditEvent::ColRd {
        bank: 0,
        cycle: rd0,
        external: true,
    });
    let rd1 = rd0 + t.t_ccd;
    slot(&mut ev, rd1, BusKind::Column);
    ev.push(AuditEvent::ColRd {
        bank: 0,
        cycle: rd1,
        external: true,
    });
    let wr0 = rd1 + t.t_ccd;
    slot(&mut ev, wr0, BusKind::Column);
    ev.push(AuditEvent::ColWr {
        bank: 0,
        cycle: wr0,
    });
    let pre0 = (t.t_ras).max(wr0 + t.t_aa + t.t_wr);
    slot(&mut ev, pre0, BusKind::Row);
    ev.push(AuditEvent::Pre {
        bank: 0,
        cycle: pre0,
    });

    // Bank 0 again: legal re-activation after tRP (and tRC).
    let act2 = (pre0 + t.t_rp).max(t.t_rc());
    slot(&mut ev, act2, BusKind::Row);
    ev.push(AuditEvent::Act {
        bank: 0,
        row: 9,
        cycle: act2,
    });
    let pre2 = act2 + t.t_ras;
    slot(&mut ev, pre2, BusKind::Row);
    ev.push(AuditEvent::Pre {
        bank: 0,
        cycle: pre2,
    });

    // An on-time refresh, then a reopen after tRFC.
    let rf = pre2 + t.t_rp;
    assert!(rf <= t.t_refi, "legal log must refresh before the deadline");
    slot(&mut ev, rf, BusKind::Row);
    ev.push(AuditEvent::Ref { cycle: rf });
    let act3 = rf + t.t_rfc;
    slot(&mut ev, act3, BusKind::Row);
    ev.push(AuditEvent::Act {
        bank: 1,
        row: 0,
        cycle: act3,
    });
    let pre3 = act3 + t.t_ras;
    slot(&mut ev, pre3, BusKind::Row);
    ev.push(AuditEvent::Pre {
        bank: 1,
        cycle: pre3,
    });
    ev
}

/// Folds into trains the column events of `events` that form one: a
/// command is a column-bus slot followed by the column reads at its
/// cycle, a train a maximal run of evenly spaced commands on one bank
/// list. Reads fold whether or not they were external — the audit never
/// looks at that flag — so the folded log's verdict is comparable to the
/// original's, not its event list.
fn fold(events: &[AuditEvent]) -> Vec<Item> {
    let mut items: Vec<Item> = Vec::new();
    let mut i = 0;
    while i < events.len() {
        let AuditEvent::Slot {
            cycle,
            bus: BusKind::Column,
        } = events[i]
        else {
            items.push(Item::Event(events[i]));
            i += 1;
            continue;
        };
        i += 1;
        let mut read_banks = Vec::new();
        while let Some(&AuditEvent::ColRd { bank, cycle: c, .. }) = events.get(i) {
            if c != cycle {
                break;
            }
            read_banks.push(bank);
            i += 1;
        }
        if let Some(Item::Train {
            start,
            step,
            count,
            banks,
        }) = items.last_mut()
        {
            let next = *start + *count as Cycle * *step;
            if *banks == read_banks && cycle >= *start && (*count == 1 || cycle == next) {
                if *count == 1 {
                    *step = cycle - *start;
                }
                *count += 1;
                continue;
            }
        }
        items.push(Item::Train {
            start: cycle,
            step: 0,
            count: 1,
            banks: read_banks,
        });
    }
    items
}

fn write(items: &[Item], folded: bool) -> Audit {
    let mut audit = Audit::new();
    for item in items {
        item.record(&mut audit, folded);
    }
    audit
}

/// The verdict on `items`, which must not depend on whether the trains
/// were recorded folded or event by event.
fn verdict(items: &[Item], t: &Timing) -> Vec<&'static str> {
    let (folded, singly) = (write(items, true), write(items, false));
    assert!(folded.events().eq(singly.events()), "expanded events");
    let found = folded.validate(t);
    assert_eq!(found, singly.validate(t), "folded and expanded verdicts");
    found.into_iter().map(|v| v.constraint).collect()
}

fn validate(events: &[AuditEvent], t: &Timing) -> Vec<&'static str> {
    let mut audit = Audit::new();
    for e in events {
        audit.record(*e);
    }
    let found: Vec<&str> = audit
        .validate(t)
        .into_iter()
        .map(|v| v.constraint)
        .collect();
    // The second run of the case: the same log, trains folded.
    assert_eq!(
        found,
        verdict(&fold(events), t),
        "verdict with trains folded"
    );
    found
}

#[test]
fn the_single_event_corpus_really_folds() {
    // Bank 0's two reads are one two-command train; the write's slot is
    // a bank-less command of its own (a `ColWr` is not a train event).
    let t = timing();
    let items = fold(&legal_log(&t));
    assert_eq!(
        items[2],
        Item::Train {
            start: t.t_rcd,
            step: t.t_ccd,
            count: 2,
            banks: vec![0],
        }
    );
    assert!(matches!(&items[3], Item::Train { count: 1, banks, .. } if banks.is_empty()));
    let expanded: usize = items.iter().map(|item| item.expand().len()).sum();
    assert_eq!(expanded, legal_log(&t).len());
}

/// Applies `mutate` to the legal log and asserts the audit reports
/// `constraint` (and reported nothing before the mutation).
fn assert_mutation_caught(constraint: &str, mutate: impl FnOnce(&Timing, &mut Vec<AuditEvent>)) {
    let t = timing();
    let mut events = legal_log(&t);
    assert_eq!(
        validate(&events, &t),
        Vec::<&str>::new(),
        "baseline log must be clean"
    );
    mutate(&t, &mut events);
    let found = validate(&events, &t);
    assert!(
        found.contains(&constraint),
        "mutation should trip {constraint}, audit reported {found:?}"
    );
}

/// Shifts the cycle of the `n`-th event matching `select` by `delta`.
fn shift_nth(
    events: &mut [AuditEvent],
    n: usize,
    delta: i64,
    select: impl Fn(&AuditEvent) -> bool,
) {
    let idx = events
        .iter()
        .enumerate()
        .filter(|(_, e)| select(e))
        .map(|(i, _)| i)
        .nth(n)
        .expect("selector matches");
    let bump = |c: Cycle| -> Cycle {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let shifted = (c as i64 + delta) as Cycle;
        shifted
    };
    match &mut events[idx] {
        AuditEvent::Act { cycle, .. }
        | AuditEvent::Pre { cycle, .. }
        | AuditEvent::ColRd { cycle, .. }
        | AuditEvent::ColWr { cycle, .. }
        | AuditEvent::Ref { cycle }
        | AuditEvent::Slot { cycle, .. } => *cycle = bump(*cycle),
    }
}

fn is_act(e: &AuditEvent) -> bool {
    matches!(e, AuditEvent::Act { .. })
}

fn is_bank0_act(e: &AuditEvent) -> bool {
    matches!(e, AuditEvent::Act { bank: 0, .. })
}

#[test]
fn act_before_trp_elapsed_is_rejected() {
    // Pull bank 0's re-activation one cycle inside the precharge window.
    assert_mutation_caught("tRP", |_, ev| {
        shift_nth(ev, 1, -1, is_bank0_act);
    });
}

#[test]
fn fifth_act_inside_tfaw_is_rejected() {
    // Add a burst of 4 more ACTs legally spaced by tRRD, then a 5th
    // pulled one cycle inside the tFAW window of the burst's first.
    let t = timing();
    let mut events = legal_log(&t);
    // Periodic refreshes keep the tREFI deadline satisfied out where the
    // burst runs.
    for k in 1..=10 {
        events.push(AuditEvent::Ref {
            cycle: k * t.t_refi,
        });
    }
    let start = 10 * t.t_refi + t.t_rfc;
    let mut cycle = start;
    for bank in 2..6 {
        events.push(AuditEvent::Act {
            bank,
            row: 0,
            cycle,
        });
        cycle += t.t_rrd;
    }
    assert_eq!(
        validate(&events, &t),
        Vec::<&str>::new(),
        "the 4-activation burst itself is legal"
    );
    // 5th activation of the burst: legal would be start + tFAW; issue it
    // one cycle early instead.
    events.push(AuditEvent::Act {
        bank: 6,
        row: 0,
        cycle: start + t.t_faw - 1,
    });
    let found = validate(&events, &t);
    assert!(found.contains(&"tFAW"), "audit reported {found:?}");
}

#[test]
fn read_before_trcd_is_rejected() {
    // Pull the first column read under the activate-to-column latency.
    assert_mutation_caught("tRCD", |_, ev| {
        shift_nth(ev, 0, -1, |e| {
            matches!(e, AuditEvent::ColRd { bank: 0, .. })
        });
    });
}

#[test]
fn missed_refresh_deadline_is_rejected() {
    // Model a controller that skipped the refresh entirely and kept
    // activating: drop the REF and push bank 1's activity past the
    // (now stale) tREFI deadline. A late refresh itself is legal
    // (pull-in semantics), so the miss must be expressed as an
    // activation with no refresh before it.
    assert_mutation_caught("tREFI", |t, ev| {
        ev.retain(|e| !matches!(e, AuditEvent::Ref { .. }));
        #[allow(clippy::cast_possible_wrap)]
        let late = 2 * t.t_refi as i64;
        shift_nth(ev, 0, late, |e| {
            matches!(e, AuditEvent::Act { bank: 1, .. })
        });
        shift_nth(ev, 0, late, |e| {
            matches!(e, AuditEvent::Pre { bank: 1, .. })
        });
    });
}

#[test]
fn act_during_trfc_is_rejected() {
    // Pull the post-refresh activation into the refresh recovery window.
    assert_mutation_caught("tRFC", |_, ev| {
        shift_nth(ev, 0, -1, |e| matches!(e, AuditEvent::Act { bank: 1, .. }));
    });
}

#[test]
fn premature_precharge_violates_tras() {
    // Close bank 1 before the row has been open tRAS cycles. Bank 1 has
    // no reads, so tRAS is the only closing constraint in play.
    assert_mutation_caught("tRAS", |_, ev| {
        shift_nth(ev, 0, -1, |e| matches!(e, AuditEvent::Pre { bank: 1, .. }));
    });
}

#[test]
fn back_to_back_columns_inside_tccd_are_rejected() {
    // Pull the second read of bank 0 into the first read's burst window.
    assert_mutation_caught("tCCD", |_, ev| {
        shift_nth(ev, 1, -1, |e| {
            matches!(e, AuditEvent::ColRd { bank: 0, .. })
        });
    });
}

#[test]
fn staggered_acts_inside_trrd_are_rejected() {
    let t = timing();
    let mut events = legal_log(&t);
    // Two different-bank ACTs closer than tRRD but not at the same
    // cycle (same-cycle is a legal ganged activation).
    let last = events
        .iter()
        .map(|e| match *e {
            AuditEvent::Act { cycle, .. } | AuditEvent::Pre { cycle, .. } => cycle,
            _ => 0,
        })
        .max()
        .unwrap_or(0);
    events.push(AuditEvent::Act {
        bank: 8,
        row: 0,
        cycle: last + t.t_rp,
    });
    events.push(AuditEvent::Act {
        bank: 9,
        row: 0,
        cycle: last + t.t_rp + t.t_rrd - 1,
    });
    let found = validate(&events, &t);
    assert!(found.contains(&"tRRD"), "audit reported {found:?}");
}

#[test]
fn early_reactivation_violates_trc() {
    let t = timing();
    // With tRC = tRAS + tRP this perturbation trips tRP as well; the
    // audit must report tRC among the violations regardless.
    let mut events = vec![
        AuditEvent::Act {
            bank: 0,
            row: 0,
            cycle: 0,
        },
        AuditEvent::Pre {
            bank: 0,
            cycle: t.t_ras,
        },
        AuditEvent::Act {
            bank: 0,
            row: 1,
            cycle: t.t_rc(),
        },
    ];
    assert_eq!(validate(&events, &t), Vec::<&str>::new());
    if let AuditEvent::Act { cycle, .. } = &mut events[2] {
        *cycle -= 1;
    }
    let found = validate(&events, &t);
    assert!(found.contains(&"tRC"), "audit reported {found:?}");
}

#[test]
fn write_recovery_cut_short_is_rejected() {
    // Pull bank 0's precharge inside the write-recovery window of the
    // preceding column write.
    assert_mutation_caught("tWR", |_, ev| {
        shift_nth(ev, 0, -1, |e| matches!(e, AuditEvent::Pre { bank: 0, .. }));
    });
}

#[test]
fn crowded_command_slots_are_rejected() {
    // Squeeze two column-bus command slots into adjacent cycles.
    assert_mutation_caught("tCMD", |_, ev| {
        shift_nth(ev, 1, -(3), |e| {
            matches!(
                e,
                AuditEvent::Slot {
                    bus: BusKind::Column,
                    ..
                }
            )
        });
    });
}

#[test]
fn structural_mutations_are_rejected() {
    let t = timing();
    // Activation while the row is already open.
    let mut events = legal_log(&t);
    events.push(AuditEvent::Act {
        bank: 1,
        row: 3,
        cycle: events
            .iter()
            .map(|e| match *e {
                AuditEvent::Act { bank: 1, cycle, .. } => cycle + 1,
                _ => 0,
            })
            .max()
            .unwrap_or(0),
    });
    // That ACT lands between bank 1's ACT and PRE, i.e. on an open row.
    let found = validate(&events, &t);
    assert!(found.contains(&"ACT-on-open"), "audit reported {found:?}");

    // Column access on a bank that was never opened.
    let mut events = legal_log(&t);
    events.push(AuditEvent::ColRd {
        bank: 5,
        cycle: 40,
        external: false,
    });
    let found = validate(&events, &t);
    assert!(found.contains(&"COL-on-idle"), "audit reported {found:?}");

    // Precharge on a bank with no open row.
    let mut events = legal_log(&t);
    events.push(AuditEvent::Pre { bank: 5, cycle: 40 });
    let found = validate(&events, &t);
    assert!(found.contains(&"PRE-on-idle"), "audit reported {found:?}");
}

#[test]
fn every_act_shift_back_is_caught_by_some_constraint() {
    // Sweep: pulling ANY activation (other than the one at cycle 0,
    // which cannot move earlier) 1..=3 cycles early must trip at least
    // one constraint — the legal log has no slack anywhere an ACT sits.
    // This is the corpus's closing net: no single-event perturbation of
    // an activation goes unnoticed.
    let t = timing();
    let baseline = legal_log(&t);
    let act_count = baseline.iter().filter(|e| is_act(e)).count();
    for n in 1..act_count {
        for delta in 1..=3i64 {
            let mut events = baseline.clone();
            shift_nth(&mut events, n, -delta, is_act);
            let found = validate(&events, &t);
            assert!(
                !found.is_empty(),
                "ACT #{n} shifted {delta} cycles early must violate something"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Train-level mutations: the log is Newton-shaped and the perturbation
// is applied to a folded train, not to one of its events.
// ---------------------------------------------------------------------

const GANG: [usize; 4] = [0, 1, 2, 3];

/// A G_ACT of `row` (`Some`) or a precharge-all (`None`) on the gang.
fn gang(cycle: Cycle, row: Option<usize>) -> Item {
    match row {
        Some(row) => Item::Activate {
            cycle,
            pairs: GANG.iter().map(|&bank| (bank, row)).collect(),
        },
        None => Item::PrechargeAll {
            cycle,
            banks: GANG.to_vec(),
        },
    }
}

/// Positions in [`legal_train_log`] the mutations edit.
const GWRITE: usize = 0;
const COMP: usize = 2;
const PRE_ALL: usize = 4;
const SECOND_COMP: usize = 6;

/// Two Newton row-sets on one gang of four banks: a GWRITE train that
/// overlaps the ganged activation on the other bus, a COMP train long
/// enough that tRTP (not tRAS) gates the precharge-all, a READRES slot,
/// the precharge-all; then the gang reopens and computes again.
fn legal_train_log(t: &Timing) -> Vec<Item> {
    let step = t.t_ccd.max(t.t_cmd);
    let mut items = vec![
        Item::Train {
            start: 0,
            step,
            count: 4,
            banks: Vec::new(),
        },
        gang(0, Some(3)),
    ];
    let comp = (4 * step).max(t.t_rcd);
    let count = (t.t_ras / step) as usize + 1;
    items.push(Item::Train {
        start: comp,
        step,
        count,
        banks: GANG.to_vec(),
    });
    let last = comp + (count as Cycle - 1) * step;
    assert!(last + t.t_rtp > t.t_ras, "tRTP must gate the precharge");
    items.push(Item::Event(AuditEvent::Slot {
        cycle: last + step,
        bus: BusKind::Column,
    }));
    let close = last + t.t_rtp;
    items.push(gang(close, None));
    let reopen = close + t.t_rp;
    items.push(gang(reopen, Some(4)));
    let comp2 = (last + 2 * step).max(reopen + t.t_rcd);
    items.push(Item::Train {
        start: comp2,
        step,
        count: 4,
        banks: GANG.to_vec(),
    });
    items.push(gang(
        (reopen + t.t_ras).max(comp2 + 3 * step + t.t_rtp),
        None,
    ));
    assert!(matches!(&items[GWRITE], Item::Train { banks, .. } if banks.is_empty()));
    assert!(matches!(&items[COMP], Item::Train { banks, .. } if banks[..] == GANG));
    assert_eq!(items[PRE_ALL], gang(close, None));
    assert!(matches!(&items[SECOND_COMP], Item::Train { count: 4, .. }));
    items
}

/// Applies `mutate` to the Newton-shaped log and asserts the audit
/// reports `constraint` — with the train folded and, equally, with the
/// train written out event by event (its expanded twin).
fn assert_train_mutation_caught(constraint: &str, mutate: impl FnOnce(&Timing, &mut Vec<Item>)) {
    let t = timing();
    let mut items = legal_train_log(&t);
    assert_eq!(
        verdict(&items, &t),
        Vec::<&str>::new(),
        "baseline log must be clean"
    );
    mutate(&t, &mut items);
    let found = verdict(&items, &t);
    assert!(
        found.contains(&constraint),
        "mutation should trip {constraint}, audit reported {found:?}"
    );
}

fn train_mut(item: &mut Item) -> (&mut Cycle, &mut Cycle, &mut usize, &mut Vec<usize>) {
    match item {
        Item::Train {
            start,
            step,
            count,
            banks,
        } => (start, step, count, banks),
        other => panic!("expected a train, found {other:?}"),
    }
}

#[test]
fn train_step_below_tccd_is_rejected() {
    assert_train_mutation_caught("tCCD", |t, items| {
        *train_mut(&mut items[COMP]).1 = t.t_ccd - 1;
    });
}

#[test]
fn bankless_train_step_below_tcmd_is_rejected() {
    assert_train_mutation_caught("tCMD", |t, items| {
        *train_mut(&mut items[GWRITE]).1 = t.t_cmd - 1;
    });
}

#[test]
fn train_starting_inside_trcd_is_rejected() {
    assert_train_mutation_caught("tRCD", |t, items| {
        // Make room on the column bus first, so that tRCD is what the
        // early start violates.
        *train_mut(&mut items[GWRITE]).2 = 1;
        *train_mut(&mut items[COMP]).0 = t.t_rcd - 1;
    });
}

#[test]
fn precharge_inside_trtp_of_a_trains_last_command_is_rejected() {
    assert_train_mutation_caught("tRTP", |_, items| {
        // One more command on the train: its last read now lands one
        // step later, inside tRTP of the unchanged precharge-all.
        *train_mut(&mut items[COMP]).2 += 1;
        // Keep the column bus legal: the READRES slot gives way.
        items.remove(COMP + 1);
    });
}

#[test]
fn train_on_a_precharged_bank_is_rejected() {
    assert_train_mutation_caught("COL-on-idle", |_, items| {
        train_mut(&mut items[SECOND_COMP]).3.push(9);
    });
}

#[test]
fn a_second_train_overlapping_the_first_on_the_column_bus_is_rejected() {
    assert_train_mutation_caught("tCMD", |_, items| {
        let (start, step, _, _) = train_mut(&mut items[COMP]);
        let overlapping = Item::Train {
            start: *start + 1,
            step: *step,
            count: 3,
            banks: Vec::new(),
        };
        items.push(overlapping);
    });
}

#[test]
fn a_train_running_past_the_precharge_is_rejected() {
    // The closed form the channel applies to a train must agree with the
    // precharge that follows it; a train three commands too long reads
    // closed banks, and trips tRTP on the way.
    assert_train_mutation_caught("COL-on-idle", |_, items| {
        *train_mut(&mut items[COMP]).2 += 3;
        items.remove(COMP + 1);
    });
}

#[test]
fn ganged_reactivation_inside_trp_of_the_precharge_all_is_rejected() {
    // A gang is a folded record too, if a short one: pull the second
    // G_ACT one cycle into the precharge-all's recovery window.
    assert_train_mutation_caught("tRP", |_, items| match &mut items[PRE_ALL + 1] {
        Item::Activate { cycle, .. } => *cycle -= 1,
        other => panic!("expected the second G_ACT, found {other:?}"),
    });
}
