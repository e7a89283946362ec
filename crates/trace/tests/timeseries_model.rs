//! Model-based check of the chunked, structurally shared window storage
//! behind [`TimeSeries`]: random interleavings of every recording call
//! with `sampled` and `clone`, snapshots kept alive across later writes,
//! against a flat `Vec<WindowMetrics>` model that copies where the
//! series shares. The series must read the
//! same as the model through every accessor and `Debug`, and a snapshot
//! must still read as the model's copy taken at the same point however
//! far the live series has moved on — including when a bank-open span
//! closes back into windows the snapshot shares.
//!
//! Window width 8 keeps cycles small: a chunk (a few tens of windows, the
//! length is private to the series) is a few hundred cycles.

use newton_trace::{BankClass, TimeSeries, TraceBus, TraceEvent, WindowMetrics};
use proptest::prelude::*;

const W: u64 = 8;
const BANKS: usize = 4;
const LABELS: [&str; 7] = ["ACT", "G_ACT", "COMP", "RD", "WR", "REF", "PRE"];

/// Every counter of a window, in declaration order.
fn counters(w: &mut WindowMetrics) -> [&mut u64; 8] {
    [
        &mut w.commands,
        &mut w.bus_bytes,
        &mut w.bank_open_cycles,
        &mut w.activates,
        &mut w.comp_ops,
        &mut w.array_accesses,
        &mut w.energy_milli_pj,
        &mut w.refresh_milli_pj,
    ]
}

fn add(dst: &mut WindowMetrics, src: &WindowMetrics) {
    let mut src = *src;
    for (d, s) in counters(dst).into_iter().zip(counters(&mut src)) {
        *d += *s;
    }
}

/// The reference: one flat vector of windows, every event folded one at a
/// time, every snapshot a full copy.
#[derive(Debug, Clone, PartialEq)]
struct Flat {
    windows: Vec<WindowMetrics>,
    open_since: Vec<Option<u64>>,
}

impl Flat {
    fn new() -> Flat {
        Flat {
            windows: Vec::new(),
            open_since: vec![None; BANKS],
        }
    }

    fn at(&mut self, cycle: u64) -> &mut WindowMetrics {
        let idx = (cycle / W) as usize;
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, WindowMetrics::default());
        }
        &mut self.windows[idx]
    }

    fn record(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Command {
                cycle,
                label,
                bank_ops,
                ..
            } => {
                let ops = u64::from(bank_ops);
                let w = self.at(cycle);
                w.commands += 1;
                match label {
                    "ACT" | "G_ACT" => w.activates += ops,
                    "COMP" => {
                        w.comp_ops += ops;
                        w.array_accesses += ops;
                    }
                    "RD" | "WR" => w.array_accesses += 1,
                    _ => {}
                }
            }
            TraceEvent::BankState { cycle, bank, class } => {
                let b = bank as usize;
                if b >= BANKS {
                    return;
                }
                match class {
                    BankClass::RowOpen => {
                        self.open_since[b].get_or_insert(cycle);
                    }
                    BankClass::Computing | BankClass::Refreshing => {}
                    BankClass::Precharging | BankClass::Idle => {
                        if let Some(from) = self.open_since[b].take() {
                            for c in from..cycle {
                                self.at(c).bank_open_cycles += 1;
                            }
                        }
                    }
                }
            }
            TraceEvent::DataBurst { cycle, bytes } => self.at(cycle).bus_bytes += bytes,
            TraceEvent::CommandEnergy {
                cycle,
                label,
                milli_pj,
            } => {
                let w = self.at(cycle);
                if label == "REF" {
                    w.refresh_milli_pj += milli_pj;
                } else {
                    w.energy_milli_pj += milli_pj;
                }
            }
        }
    }

    fn sampled(&self, end_cycle: u64) -> Flat {
        let mut s = self.clone();
        let n = end_cycle.div_ceil(W).max(1) as usize;
        if n > s.windows.len() {
            s.windows.resize(n, WindowMetrics::default());
        }
        s
    }

    fn totals(&self) -> WindowMetrics {
        let mut t = WindowMetrics::default();
        for w in &self.windows {
            add(&mut t, w);
        }
        t
    }
}

/// Every accessor of `series` reads what the model holds.
fn check_reads(series: &TimeSeries, model: &Flat, what: &str) -> Result<(), TestCaseError> {
    let windows = series.windows();
    prop_assert_eq!(windows.len(), model.windows.len(), "{}: len", what);
    prop_assert_eq!(windows.is_empty(), model.windows.is_empty());
    for (i, w) in model.windows.iter().enumerate() {
        prop_assert_eq!(&windows[i], w, "{}: window {}", what, i);
    }
    let iterated: Vec<WindowMetrics> = windows.iter().copied().collect();
    prop_assert_eq!(&iterated, &model.windows, "{}: iter", what);
    prop_assert_eq!(series.totals(), model.totals(), "{}: totals", what);
    Ok(())
}

/// `Debug` lists the model's windows, in order.
fn check_debug(series: &TimeSeries, model: &Flat, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        format!("{:?}", series.windows()),
        format!("{:?}", model.windows),
        "{}: Debug",
        what
    );
    Ok(())
}

/// One step of an interleaving, decoded from four raw draws so that a
/// failing case prints as plain numbers.
type RawOp = (u8, u64, u64, u64);

/// A series under test, paired with the model of what it must read as.
type Pair = (TimeSeries, Flat);

fn apply(op: RawOp, live: &mut Pair, kept: &mut Vec<Pair>) {
    let (kind, a, b, c) = op;
    // Cycles span many chunks; most writes reach back into sealed ones.
    let cycle = a % 3000;
    let label = LABELS[(b % 7) as usize];
    let bank = (b % (BANKS as u64 + 1)) as u32; // one bank out of range
    let event = match kind {
        0 => Some(TraceEvent::Command {
            cycle,
            bus: TraceBus::Column,
            label,
            bank_ops: (c % 17) as u32,
        }),
        1 => Some(TraceEvent::BankState {
            cycle,
            bank,
            class: BankClass::ALL[(c % 5) as usize],
        }),
        2 => Some(TraceEvent::DataBurst {
            cycle,
            bytes: b % 100,
        }),
        3 => Some(TraceEvent::CommandEnergy {
            cycle,
            label,
            milli_pj: c % 5000,
        }),
        _ => None,
    };
    if let Some(event) = event {
        live.0.record(&event);
        live.1.record(&event);
        return;
    }
    let (step, count) = (b % 40, c % 50);
    match kind {
        4 => {
            let (bank_ops, milli_pj) = ((a % 17) as u32, (a >> 8) % 3 * 700);
            live.0
                .record_command_train(cycle, step, count, label, bank_ops, milli_pj);
            for i in 0..count {
                let cycle = cycle + i * step;
                live.1.record(&TraceEvent::Command {
                    cycle,
                    bus: TraceBus::Column,
                    label,
                    bank_ops,
                });
                if milli_pj > 0 {
                    live.1.record(&TraceEvent::CommandEnergy {
                        cycle,
                        label,
                        milli_pj,
                    });
                }
            }
        }
        5 => {
            live.0.record_burst_train(cycle, step, count, 32);
            for i in 0..count {
                live.1.record(&TraceEvent::DataBurst {
                    cycle: cycle + i * step,
                    bytes: 32,
                });
            }
        }
        6..=8 => {
            let end = a % 4000; // often past the last window: zero padding
            kept.push((live.0.sampled(end), live.1.sampled(end)));
        }
        9 => kept.push(live.clone()),
        // Carry on recording into a former snapshot (a series that only
        // holds shared chunks); keep the former live series as the
        // snapshot.
        10 if !kept.is_empty() => {
            let i = (a % kept.len() as u64) as usize;
            std::mem::swap(live, &mut kept[i]);
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shared_storage_reads_as_the_flat_model(
        ops in prop::collection::vec((0u8..11, any::<u64>(), any::<u64>(), any::<u64>()), 1..80),
    ) {
        let mut live: Pair = (TimeSeries::new(W, BANKS), Flat::new());
        let mut kept: Vec<Pair> = Vec::new();
        for op in ops {
            apply(op, &mut live, &mut kept);
            prop_assert!(live.0.windows().iter().eq(&live.1.windows), "live after {:?}", op);
            kept.truncate(6);
        }
        // The live series has moved on; every snapshot still reads as the
        // model's copy taken when it was.
        check_reads(&live.0, &live.1, "live")?;
        check_debug(&live.0, &live.1, "live")?;
        for (i, (snapshot, model)) in kept.iter().enumerate() {
            let what = format!("snapshot {i}");
            check_reads(snapshot, model, &what)?;
            check_debug(snapshot, model, &what)?;
        }
        // Equality is by value: two paths to the same windows agree.
        for (a, ma) in &kept {
            for (b, mb) in &kept {
                prop_assert_eq!(a == b, ma == mb);
            }
        }
    }
}

#[test]
fn a_span_closing_across_chunk_boundaries_leaves_the_snapshot_alone() {
    let mut live: Pair = (TimeSeries::new(W, BANKS), Flat::new());
    let record = |pair: &mut Pair, event: TraceEvent| {
        pair.0.record(&event);
        pair.1.record(&event);
    };
    let bank_state = |cycle, class| TraceEvent::BankState {
        cycle,
        bank: 1,
        class,
    };
    // The row opens in window 62 ...
    record(&mut live, bank_state(500, BankClass::RowOpen));
    // ... commands carry the series to window 137, chunks further on ...
    for cycle in [520, 700, 1100] {
        record(
            &mut live,
            TraceEvent::Command {
                cycle,
                bus: TraceBus::Column,
                label: "COMP",
                bank_ops: 4,
            },
        );
    }
    // ... where a snapshot is taken, sharing every chunk but the newest.
    let snapshot = (live.0.sampled(1200), live.1.sampled(1200));
    assert_eq!(snapshot.0.totals().bank_open_cycles, 0);
    // The precharge attributes 650 cycles back across every boundary
    // between them, into chunks the snapshot holds.
    record(&mut live, bank_state(1150, BankClass::Precharging));
    assert_eq!(live.0.totals().bank_open_cycles, 650);
    assert_eq!(live.0.windows()[62].bank_open_cycles, 4);
    assert_eq!(live.0.windows()[63].bank_open_cycles, 8);
    assert_eq!(live.0.windows()[64].bank_open_cycles, 8);
    assert_eq!(live.0.windows()[143].bank_open_cycles, 6);
    check_reads(&live.0, &live.1, "live").unwrap();
    check_reads(&snapshot.0, &snapshot.1, "snapshot").unwrap();
    check_debug(&snapshot.0, &snapshot.1, "snapshot").unwrap();
    assert_eq!(snapshot.0.totals().bank_open_cycles, 0);
    assert_eq!(snapshot.0.windows().len(), 150);
}
