//! What the audit test suites write logs from: one entry of a log as a
//! controller would record it, with this side's own expansion of the
//! folded forms — written against the documented format, not shared with
//! the audit — so that a log can be recorded folded or event by event.

use newton_dram::audit::{Audit, AuditEvent, BusKind};
use newton_dram::timing::Cycle;

/// One entry of a log as a controller would record it.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    Event(AuditEvent),
    /// `count` column-bus commands from `start`, `step` apart, each an
    /// internal read on every bank of `banks`.
    Train {
        start: Cycle,
        step: Cycle,
        count: usize,
        banks: Vec<usize>,
    },
    /// One row-bus slot and an ACT per `(bank, row)` under it.
    Activate {
        cycle: Cycle,
        pairs: Vec<(usize, usize)>,
    },
    /// One row-bus slot and a PRE per bank under it.
    PrechargeAll {
        cycle: Cycle,
        banks: Vec<usize>,
    },
}

impl Item {
    /// The event sequence the item stands for.
    pub fn expand(&self) -> Vec<AuditEvent> {
        let row_slot = |cycle| AuditEvent::Slot {
            cycle,
            bus: BusKind::Row,
        };
        match self {
            Item::Event(e) => vec![*e],
            Item::Train {
                start,
                step,
                count,
                banks,
            } => (0..*count as Cycle)
                .flat_map(|i| {
                    let cycle = start + i * step;
                    let slot = AuditEvent::Slot {
                        cycle,
                        bus: BusKind::Column,
                    };
                    let reads = banks.iter().map(move |&bank| AuditEvent::ColRd {
                        bank,
                        cycle,
                        external: false,
                    });
                    std::iter::once(slot).chain(reads)
                })
                .collect(),
            Item::Activate { cycle, pairs } => std::iter::once(row_slot(*cycle))
                .chain(pairs.iter().map(|&(bank, row)| AuditEvent::Act {
                    bank,
                    row,
                    cycle: *cycle,
                }))
                .collect(),
            Item::PrechargeAll { cycle, banks } => std::iter::once(row_slot(*cycle))
                .chain(banks.iter().map(|&bank| AuditEvent::Pre {
                    bank,
                    cycle: *cycle,
                }))
                .collect(),
        }
    }

    /// Records the item the way the channel does (`folded`: a train, a
    /// ganged activation and a precharge-all as one record each) or
    /// event by event.
    pub fn record(&self, audit: &mut Audit, folded: bool) {
        match self {
            _ if !folded => self.expand().into_iter().for_each(|e| audit.record(e)),
            Item::Event(e) => audit.record(*e),
            Item::Train {
                start,
                step,
                count,
                banks,
            } => audit.record_train(*start, *step, *count, banks),
            Item::Activate { cycle, pairs } => audit.record_ganged_activate(*cycle, pairs),
            Item::PrechargeAll { cycle, banks } => {
                audit.record_precharge_all(*cycle, banks.iter().copied());
            }
        }
    }
}
