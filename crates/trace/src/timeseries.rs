//! Windowed time-series telemetry over the trace-event stream.
//!
//! A [`TimeSeries`] folds the [`TraceEvent`]s a DRAM channel emits while
//! telemetry is on into fixed-width simulated-time windows (default
//! [`DEFAULT_WINDOW_CYCLES`]) of pure integer counters, answering "what
//! were the commands, bus bytes, bank-open time, activations, COMPs,
//! array accesses and energy at simulated time *t*". Because every
//! accumulated field is a `u64` event count (energy in fixed-point
//! milli-pJ), a series is bit-identical for any host thread count — the
//! same determinism contract the rest of the simulator keeps.
//!
//! Window semantics: an event at `cycle` lands in window
//! `cycle / window_cycles`. Bank-open time follows the DRAM bank's own
//! accounting — a span is attributed (split across the windows it covers)
//! when the *precharge* closes the row, and a row still open at the end
//! of a run contributes nothing, exactly like
//! `Bank::open_cycles`. Totals therefore match run-summary counters
//! field-for-field, which the energy property tests rely on.
//!
//! Storage: the windows live in fixed-length chunks, all but the newest
//! behind [`Arc`] and mutated copy-on-write (see [`Windows`]). A clone or
//! a [`TimeSeries::sampled`] snapshot therefore costs the same whatever
//! the series' age, and a later write — including a bank-open span
//! attributed back into old windows — copies only the chunk it lands in,
//! leaving every snapshot already handed out as it was.

use std::ops::Index;
use std::sync::Arc;

use crate::event::TraceEvent;
use crate::residency::BankClass;

/// Version of the telemetry schema, the `telemetry_schema_version` key
/// snapshots carry. Bump only for breaking shape changes; consumers must
/// ignore unknown keys.
///
/// v3: the replay cache's counters (added in v2) are gone — they describe
/// the simulator process, not the simulated machine, and live on
/// `AimStats` / `ServeReport` per run.
pub(crate) const TELEMETRY_SCHEMA_VERSION: u64 = 3;

/// Default telemetry window width, in command-clock cycles.
pub const DEFAULT_WINDOW_CYCLES: u64 = 1024;

/// Integer event counters for one telemetry window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowMetrics {
    /// Commands issued (any bus, any mnemonic).
    pub commands: u64,
    /// Bytes that crossed the external data bus.
    pub bus_bytes: u64,
    /// Bank-open cycles attributed to this window (closed spans only).
    pub bank_open_cycles: u64,
    /// Row activations (each bank counted, even when ganged).
    pub activates: u64,
    /// Per-bank COMP operations (internal array reads into MACs).
    pub comp_ops: u64,
    /// Bank-array column accesses (internal + external).
    pub array_accesses: u64,
    /// Streamed dynamic energy (fixed-point milli-pJ) from
    /// [`TraceEvent::CommandEnergy`], refresh excluded.
    pub energy_milli_pj: u64,
    /// Streamed refresh energy (milli-pJ), kept separable because the
    /// postprocessed Fig. 13 model has no refresh component.
    pub refresh_milli_pj: u64,
}

impl WindowMetrics {
    /// The empty window; equal to `WindowMetrics::default()`.
    const ZERO: WindowMetrics = WindowMetrics {
        commands: 0,
        bus_bytes: 0,
        bank_open_cycles: 0,
        activates: 0,
        comp_ops: 0,
        array_accesses: 0,
        energy_milli_pj: 0,
        refresh_milli_pj: 0,
    };

    /// Element-wise accumulate.
    fn add(&mut self, o: &WindowMetrics) {
        self.commands += o.commands;
        self.bus_bytes += o.bus_bytes;
        self.bank_open_cycles += o.bank_open_cycles;
        self.activates += o.activates;
        self.comp_ops += o.comp_ops;
        self.array_accesses += o.array_accesses;
        self.energy_milli_pj += o.energy_milli_pj;
        self.refresh_milli_pj += o.refresh_milli_pj;
    }
}

/// Windows per storage chunk: 32 x 64 B = 2 KiB. A snapshot copies the
/// newest chunk and nothing else, so shorter is cheaper per run; the
/// list of sealed chunks is rebuilt once per chunk while a snapshot is
/// held, so longer is cheaper per window. One run of a small resident
/// matrix spans one or two windows.
const CHUNK_WINDOWS: usize = 32;

type Chunk = [WindowMetrics; CHUNK_WINDOWS];

/// What a chunk nobody has written to reads as.
const ZERO_CHUNK: &Chunk = &[WindowMetrics::ZERO; CHUNK_WINDOWS];

/// The windows of a [`TimeSeries`] (index `i` covers cycles
/// `i*W .. (i+1)*W`), borrowed through [`TimeSeries::windows`].
///
/// Windows `32*c .. 32*(c+1)` live in chunk `c`. The newest chunk is
/// owned, so recording into it — nearly every write, several per
/// command when each command is observed — is a plain store. Once a
/// window past it exists it is sealed behind an [`Arc`] and from then on
/// shared between a series and its clones, as is the list of sealed
/// chunks itself: a clone costs two pointers and a copy of the newest
/// chunk, however long the series. Only a write reaching back into a
/// sealed chunk (a bank-open span closing at precharge) pays
/// for uniqueness, copying the list and the chunk if a clone still
/// holds them. A sealed `None` is a chunk of zeros, so padding and idle
/// gaps cost a pointer each and no windows.
///
/// `sealed.len() == len.saturating_sub(1) / CHUNK_WINDOWS`, and slots of
/// `newest` at or past `len` are never written and stay zero.
#[derive(Clone)]
pub struct Windows {
    sealed: Arc<Vec<Option<Arc<Chunk>>>>,
    newest: Box<Chunk>,
    len: usize,
}

fn chunk_ref(chunk: &Option<Arc<Chunk>>) -> &Chunk {
    chunk.as_deref().unwrap_or(ZERO_CHUNK)
}

impl Default for Windows {
    fn default() -> Windows {
        Windows {
            sealed: Arc::default(),
            newest: Box::new(*ZERO_CHUNK),
            len: 0,
        }
    }
}

impl Windows {
    /// Number of windows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the series has no window yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The windows in time order.
    pub fn iter(&self) -> impl Iterator<Item = &WindowMetrics> {
        self.chunks().flatten().take(self.len)
    }

    fn chunks(&self) -> impl Iterator<Item = &Chunk> {
        let newest: &Chunk = &self.newest;
        self.sealed.iter().map(chunk_ref).chain([newest])
    }

    /// Zero-pads to at least `n` windows, sealing the newest chunk when
    /// the last window moves past it.
    fn pad_to(&mut self, n: usize) {
        if n <= self.len {
            return;
        }
        let last_chunk = (n - 1) / CHUNK_WINDOWS;
        if last_chunk > self.sealed.len() {
            let written = *self.newest != *ZERO_CHUNK;
            let sealed = Arc::make_mut(&mut self.sealed);
            sealed.push(written.then(|| Arc::new(*self.newest)));
            sealed.resize(last_chunk, None);
            *self.newest = *ZERO_CHUNK;
        }
        self.len = n;
    }

    /// Sealed chunk `c` for writing, unshared first.
    #[cold]
    fn sealed_mut(&mut self, c: usize) -> &mut Chunk {
        let chunk = &mut Arc::make_mut(&mut self.sealed)[c];
        Arc::make_mut(chunk.get_or_insert_with(|| Arc::new(*ZERO_CHUNK)))
    }

    /// Chunk `c` (at most the newest) for writing. Which one is the
    /// newest is read off `len`, not `sealed`, to keep the list out of
    /// the recording path.
    #[inline]
    fn chunk_mut(&mut self, c: usize) -> &mut Chunk {
        if c == self.len.saturating_sub(1) / CHUNK_WINDOWS {
            &mut self.newest
        } else {
            self.sealed_mut(c)
        }
    }

    /// Window `idx` for writing, padding up to it.
    #[inline]
    fn slot_mut(&mut self, idx: usize) -> &mut WindowMetrics {
        if idx >= self.len {
            self.pad_to(idx + 1);
        }
        &mut self.chunk_mut(idx / CHUNK_WINDOWS)[idx % CHUNK_WINDOWS]
    }
}

impl Index<usize> for Windows {
    type Output = WindowMetrics;

    fn index(&self, idx: usize) -> &WindowMetrics {
        assert!(
            idx < self.len,
            "window index {idx} out of range for {} windows",
            self.len
        );
        let chunk = match self.sealed.get(idx / CHUNK_WINDOWS) {
            None => &self.newest,
            Some(chunk) => chunk_ref(chunk),
        };
        &chunk[idx % CHUNK_WINDOWS]
    }
}

/// By value: chunk sharing and how the zeros came about do not matter.
impl PartialEq for Windows {
    fn eq(&self, other: &Windows) -> bool {
        self.len == other.len
            && self
                .chunks()
                .zip(other.chunks())
                .all(|(a, b)| std::ptr::eq(a, b) || a == b)
    }
}

/// Renders as the list of windows.
impl std::fmt::Debug for Windows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A windowed telemetry series for one channel.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    window_cycles: u64,
    windows: Windows,
    /// Open-row start cycle per bank (span attributed at precharge).
    open_since: Vec<Option<u64>>,
}

impl TimeSeries {
    /// An empty series with `banks` banks and the given window width
    /// (`0` is promoted to 1 so indexing never divides by zero).
    #[must_use]
    pub fn new(window_cycles: u64, banks: usize) -> TimeSeries {
        TimeSeries {
            window_cycles: window_cycles.max(1),
            windows: Windows::default(),
            open_since: vec![None; banks],
        }
    }

    /// The windows accumulated so far (index `i` covers cycles
    /// `i*W .. (i+1)*W`).
    #[must_use]
    pub fn windows(&self) -> &Windows {
        &self.windows
    }

    /// The index of the window holding `cycle`. Events nearly always land
    /// in the newest window, whose index the series already keeps, so the
    /// division runs only for an event outside it.
    #[inline]
    fn locate(&self, cycle: u64) -> usize {
        let newest = self.windows.len().saturating_sub(1);
        // Wraps for a cycle before the newest window's start.
        if cycle.wrapping_sub(newest as u64 * self.window_cycles) < self.window_cycles {
            newest
        } else {
            (cycle / self.window_cycles) as usize
        }
    }

    fn window_mut(&mut self, cycle: u64) -> &mut WindowMetrics {
        let idx = self.locate(cycle);
        self.windows.slot_mut(idx)
    }

    /// Attributes a closed bank-open span, split across the windows it
    /// covers.
    fn add_open_span(&mut self, from: u64, to: u64) {
        let mut a = from;
        while a < to {
            let idx = self.locate(a);
            let b = ((idx as u64 + 1) * self.window_cycles).min(to);
            self.windows.slot_mut(idx).bank_open_cycles += b - a;
            a = b;
        }
    }

    /// Folds one trace event into the series. The mnemonic contract
    /// matches `newton-dram`'s command labels (`ACT`/`G_ACT`, `COMP`,
    /// `RD`/`WR`, `REF`); unknown labels still count as commands.
    pub fn record(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Command {
                cycle,
                label,
                bank_ops,
                ..
            } => {
                let w = self.window_mut(cycle);
                w.commands += 1;
                match label {
                    "ACT" | "G_ACT" => w.activates += u64::from(bank_ops),
                    "COMP" => {
                        w.comp_ops += u64::from(bank_ops);
                        w.array_accesses += u64::from(bank_ops);
                    }
                    "RD" | "WR" => w.array_accesses += 1,
                    _ => {}
                }
            }
            TraceEvent::BankState { cycle, bank, class } => {
                let b = bank as usize;
                match class {
                    BankClass::RowOpen => {
                        if let Some(s) = self.open_since.get_mut(b) {
                            s.get_or_insert(cycle);
                        }
                    }
                    BankClass::Precharging | BankClass::Idle => {
                        if let Some(from) = self.open_since.get_mut(b).and_then(Option::take) {
                            self.add_open_span(from, cycle);
                        }
                    }
                    BankClass::Computing | BankClass::Refreshing => {}
                }
            }
            TraceEvent::DataBurst { cycle, bytes } => self.window_mut(cycle).bus_bytes += bytes,
            TraceEvent::CommandEnergy {
                cycle,
                label,
                milli_pj,
            } => {
                let w = self.window_mut(cycle);
                if label == "REF" {
                    w.refresh_milli_pj += milli_pj;
                } else {
                    w.energy_milli_pj += milli_pj;
                }
            }
        }
    }

    /// Applies `f(window, k)` once per window overlapped by the regular
    /// event train `start, start + step, ...` (`count` events total),
    /// where `k` is the number of train events landing in that window.
    fn fold_train(
        &mut self,
        start: u64,
        step: u64,
        count: u64,
        mut f: impl FnMut(&mut WindowMetrics, u64),
    ) {
        if count == 0 {
            return;
        }
        if step == 0 {
            f(self.window_mut(start), count);
            return;
        }
        let mut i = 0u64;
        while i < count {
            let idx = self.locate(start + i * step);
            let window_end = (idx as u64 + 1) * self.window_cycles;
            // First train index at or past the window boundary.
            let bound = (window_end - start).div_ceil(step).min(count);
            f(self.windows.slot_mut(idx), bound - i);
            i = bound;
        }
    }

    /// Folds a regular train of `count` command events (label semantics
    /// identical to [`TraceEvent::Command`] in [`TimeSeries::record`]),
    /// each optionally carrying `milli_pj` of streamed command energy, in
    /// O(windows touched) instead of O(count) — the closed-form telemetry
    /// leg of a channel command train. Value-equivalent to recording each
    /// `Command` (and, when `milli_pj > 0`, each `CommandEnergy`) event.
    pub fn record_command_train(
        &mut self,
        start: u64,
        step: u64,
        count: u64,
        label: &'static str,
        bank_ops: u32,
        milli_pj: u64,
    ) {
        self.fold_train(start, step, count, |w, k| {
            w.commands += k;
            match label {
                "ACT" | "G_ACT" => w.activates += k * u64::from(bank_ops),
                "COMP" => {
                    w.comp_ops += k * u64::from(bank_ops);
                    w.array_accesses += k * u64::from(bank_ops);
                }
                "RD" | "WR" => w.array_accesses += k,
                _ => {}
            }
            if milli_pj > 0 {
                if label == "REF" {
                    w.refresh_milli_pj += k * milli_pj;
                } else {
                    w.energy_milli_pj += k * milli_pj;
                }
            }
        });
    }

    /// Folds a regular train of `count` data-bus bursts of `bytes` each —
    /// value-equivalent to recording each [`TraceEvent::DataBurst`].
    pub fn record_burst_train(&mut self, start: u64, step: u64, count: u64, bytes: u64) {
        self.fold_train(start, step, count, |w, k| w.bus_bytes += k * bytes);
    }

    /// A snapshot of the series covering `0..end_cycle`: windows padded
    /// with zeros up to the window containing the last cycle, so two runs
    /// ending at the same cycle render byte-identically regardless of
    /// where their final events fell. Open rows stay unattributed,
    /// mirroring the bank counters. The snapshot shares every sealed
    /// chunk of windows with this series and copies the newest; padding
    /// stores no windows; nothing recorded here afterwards shows in it.
    #[must_use]
    pub fn sampled(&self, end_cycle: u64) -> TimeSeries {
        let mut s = self.clone();
        s.windows
            .pad_to(end_cycle.div_ceil(s.window_cycles).max(1) as usize);
        s
    }

    /// Sum of every window (grand totals for the run).
    #[must_use]
    pub fn totals(&self) -> WindowMetrics {
        let mut t = WindowMetrics::default();
        for w in self.windows.iter() {
            t.add(w);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceBus;

    fn act(cycle: u64, bank_ops: u32) -> TraceEvent {
        TraceEvent::Command {
            cycle,
            bus: TraceBus::Row,
            label: if bank_ops > 1 { "G_ACT" } else { "ACT" },
            bank_ops,
        }
    }

    #[test]
    fn events_land_in_their_windows() {
        let mut ts = TimeSeries::new(100, 2);
        ts.record(&act(5, 4));
        ts.record(&TraceEvent::Command {
            cycle: 250,
            bus: TraceBus::Column,
            label: "COMP",
            bank_ops: 2,
        });
        ts.record(&TraceEvent::DataBurst {
            cycle: 250,
            bytes: 32,
        });
        assert_eq!(ts.windows().len(), 3);
        assert_eq!(ts.windows()[0].activates, 4);
        assert_eq!(ts.windows()[1], WindowMetrics::default());
        assert_eq!(ts.windows()[2].comp_ops, 2);
        assert_eq!(ts.windows()[2].array_accesses, 2);
        assert_eq!(ts.windows()[2].bus_bytes, 32);
        let t = ts.totals();
        assert_eq!(t.commands, 2);
        assert_eq!(t.activates, 4);
    }

    /// Cycles that stay in the newest window, step back into an earlier
    /// one, land on a window's first and last cycle, and skip windows:
    /// each event still lands in window `cycle / 100`.
    #[test]
    fn events_land_in_their_windows_in_any_order() {
        let cycles = [5, 99, 100, 7, 199, 0, 450, 399, 400, 250, 251, 1000];
        let mut ts = TimeSeries::new(100, 1);
        let mut want = [0u64; 11];
        for cycle in cycles {
            ts.record(&act(cycle, 1));
            want[(cycle / 100) as usize] += 1;
        }
        let got: Vec<u64> = ts.windows().iter().map(|w| w.activates).collect();
        assert_eq!(got, want);
        assert_eq!(ts, {
            let mut fresh = TimeSeries::new(100, 1);
            cycles.iter().rev().for_each(|&c| fresh.record(&act(c, 1)));
            fresh
        });
    }

    #[test]
    fn bank_open_spans_split_across_windows_at_precharge() {
        let mut ts = TimeSeries::new(100, 1);
        ts.record(&TraceEvent::BankState {
            cycle: 50,
            bank: 0,
            class: BankClass::RowOpen,
        });
        // Still open: nothing attributed yet (mirrors Bank::open_cycles).
        assert_eq!(ts.totals().bank_open_cycles, 0);
        ts.record(&TraceEvent::BankState {
            cycle: 250,
            bank: 0,
            class: BankClass::Precharging,
        });
        assert_eq!(ts.windows()[0].bank_open_cycles, 50);
        assert_eq!(ts.windows()[1].bank_open_cycles, 100);
        assert_eq!(ts.windows()[2].bank_open_cycles, 50);
        assert_eq!(ts.totals().bank_open_cycles, 200);
    }

    #[test]
    fn sampled_pads_to_the_end_cycle() {
        let mut ts = TimeSeries::new(100, 1);
        ts.record(&act(5, 1));
        let s = ts.sampled(950);
        assert_eq!(s.windows().len(), 10);
        assert_eq!(s.totals(), ts.totals());
        // Sampling an empty series still yields one window.
        assert_eq!(TimeSeries::new(100, 1).sampled(0).windows().len(), 1);
    }

    #[test]
    fn consecutive_snapshots_share_every_sealed_chunk() {
        let mut ts = TimeSeries::new(1, 1);
        for cycle in 0..(3 * CHUNK_WINDOWS as u64 + 5) {
            ts.record(&act(cycle, 1));
        }
        let first = ts.sampled(0);
        // A run later: a few more windows in the newest chunk, and a span
        // attributed back into the oldest one.
        ts.record(&TraceEvent::BankState {
            cycle: 3,
            bank: 0,
            class: BankClass::RowOpen,
        });
        ts.record(&TraceEvent::BankState {
            cycle: 6,
            bank: 0,
            class: BankClass::Precharging,
        });
        ts.record(&act(3 * CHUNK_WINDOWS as u64 + 9, 1));
        let second = ts.sampled(0);
        let third = ts.sampled(0);

        let shared = |a: &TimeSeries, b: &TimeSeries, c: usize| match (
            &a.windows.sealed[c],
            &b.windows.sealed[c],
        ) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        assert_eq!(first.windows.sealed.len(), 3);
        assert_eq!(second.windows.sealed.len(), 3);
        // Only the chunk the span reached back into was copied, and the
        // earlier snapshot kept the original.
        assert!(!shared(&first, &second, 0));
        assert_eq!(first.windows()[3].bank_open_cycles, 0);
        assert_eq!(second.windows()[3].bank_open_cycles, 1);
        assert!(shared(&first, &second, 1) && shared(&first, &second, 2));
        // Nothing was written between these two: every sealed chunk is
        // one allocation, shared with the live series too, and so is the
        // list of them — what makes a snapshot cost the same at any age.
        for c in 0..3 {
            assert!(shared(&second, &third, c) && shared(&third, &ts, c));
        }
        assert!(Arc::ptr_eq(&second.windows.sealed, &third.windows.sealed));
        assert!(Arc::ptr_eq(&third.windows.sealed, &ts.windows.sealed));
        assert!(!Arc::ptr_eq(&first.windows.sealed, &second.windows.sealed));
        // Recording on in the newest chunk leaves the list shared.
        ts.record(&act(3 * CHUNK_WINDOWS as u64 + 11, 1));
        assert!(Arc::ptr_eq(&third.windows.sealed, &ts.windows.sealed));
    }

    #[test]
    fn equality_is_by_value_whatever_the_sharing_and_padding_history() {
        let w = CHUNK_WINDOWS as u64;
        // One series written straight through ...
        let mut straight = TimeSeries::new(1, 1);
        for cycle in [2, w + 1, 4 * w + 7] {
            straight.record(&act(cycle, 2));
        }
        // ... and one that was snapshotted, padded past two idle chunks,
        // then written backwards into them.
        let mut padded = TimeSeries::new(1, 1);
        padded.record(&act(2, 2));
        let held = padded.sampled(3 * w);
        let mut padded = padded.sampled(4 * w + 8);
        padded.record(&act(4 * w + 7, 2));
        padded.record(&act(w + 1, 2));

        assert_eq!(straight, padded);
        assert_eq!(format!("{straight:?}"), format!("{padded:?}"));
        // An untouched chunk and a chunk of written zeros read the same.
        assert_ne!(straight, held);
        assert_eq!(held, {
            let mut s = TimeSeries::new(1, 1);
            s.record(&act(2, 2));
            s.record_burst_train(3 * w - 1, 0, 1, 0);
            s.record_burst_train(w + 5, 0, 1, 0);
            assert!(s.windows.sealed[1].is_some() && held.windows.sealed[1].is_none());
            s
        });
        assert_eq!(WindowMetrics::ZERO, WindowMetrics::default());
    }

    #[test]
    fn train_folds_match_per_event_records() {
        // Any (start, step, count) train must fold to exactly the series
        // the per-event path produces, across window-straddling shapes.
        for (start, step, count) in [
            (0u64, 4u64, 1u64),
            (5, 4, 32),
            (95, 4, 64),
            (99, 1, 300),
            (0, 100, 5),
            (250, 97, 40),
            (7, 0, 3),
            (1023, 4, 256),
        ] {
            let mut looped = TimeSeries::new(100, 4);
            let mut folded = TimeSeries::new(100, 4);
            for i in 0..count {
                let cycle = start + i * step;
                looped.record(&TraceEvent::Command {
                    cycle,
                    bus: TraceBus::Column,
                    label: "COMP",
                    bank_ops: 16,
                });
                looped.record(&TraceEvent::CommandEnergy {
                    cycle,
                    label: "COMP",
                    milli_pj: 1234,
                });
                looped.record(&TraceEvent::DataBurst { cycle, bytes: 32 });
            }
            folded.record_command_train(start, step, count, "COMP", 16, 1234);
            folded.record_burst_train(start, step, count, 32);
            assert_eq!(looped, folded, "start={start} step={step} count={count}");
        }
        // GWRITE trains count commands + energy only, like record().
        let mut looped = TimeSeries::new(100, 1);
        let mut folded = TimeSeries::new(100, 1);
        for i in 0..40u64 {
            looped.record(&TraceEvent::Command {
                cycle: 90 + i * 4,
                bus: TraceBus::Column,
                label: "GWRITE",
                bank_ops: 0,
            });
            looped.record(&TraceEvent::CommandEnergy {
                cycle: 90 + i * 4,
                label: "GWRITE",
                milli_pj: 55,
            });
        }
        folded.record_command_train(90, 4, 40, "GWRITE", 0, 55);
        assert_eq!(looped, folded);
        // Zero energy folds no CommandEnergy, matching the channel's
        // emit-only-when-priced behavior.
        let mut a = TimeSeries::new(100, 1);
        let mut b2 = TimeSeries::new(100, 1);
        a.record(&TraceEvent::Command {
            cycle: 10,
            bus: TraceBus::Column,
            label: "GWRITE",
            bank_ops: 0,
        });
        b2.record_command_train(10, 4, 1, "GWRITE", 0, 0);
        assert_eq!(a, b2);
    }

    #[test]
    fn command_energy_events_accumulate_with_refresh_separated() {
        let mut ts = TimeSeries::new(100, 1);
        ts.record(&TraceEvent::CommandEnergy {
            cycle: 10,
            label: "ACT",
            milli_pj: 4000,
        });
        ts.record(&TraceEvent::CommandEnergy {
            cycle: 10,
            label: "REF",
            milli_pj: 64000,
        });
        assert_eq!(ts.windows()[0].energy_milli_pj, 4000);
        assert_eq!(ts.windows()[0].refresh_milli_pj, 64000);
    }
}
