//! Chrome trace-event export of AiM command traces.
//!
//! Renders a [`CommandTrace`] into the Chrome trace-event JSON that
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing` open
//! directly: one track per command bus under a "command buses" process,
//! and one track per bank under a "banks" process, with every command a
//! duration slice. Drag the exported file into the UI to see the Fig. 7
//! timing diagram zoomable and cycle-stamped.

use crate::command::{AimCommand, CommandTrace};
use newton_dram::timing::Timing;
use newton_trace::{ChromeTraceBuilder, JsonValue};

/// Process id for the two command-bus tracks.
const PID_BUSES: u64 = 1;
/// Process id for the per-bank tracks.
const PID_BANKS: u64 = 2;
/// Thread id of the row-bus track inside [`PID_BUSES`].
const TID_ROW_BUS: u64 = 0;
/// Thread id of the column-bus track inside [`PID_BUSES`].
const TID_COL_BUS: u64 = 1;

/// Whether the command rides the row bus (ACT/PRE/REF class) rather than
/// the column bus.
fn is_row_bus(cmd: &AimCommand) -> bool {
    matches!(
        cmd,
        AimCommand::GAct { .. } | AimCommand::Act { .. } | AimCommand::PreAll | AimCommand::Refresh
    )
}

/// The banks a command touches, as a range of indices (`None` = no bank
/// array involvement, e.g. GWRITE into the global buffer).
fn banks_of(cmd: &AimCommand, banks: usize) -> Option<(usize, usize)> {
    match *cmd {
        AimCommand::Gwrite { .. } | AimCommand::BroadcastInput { .. } => None,
        AimCommand::GAct { cluster, .. } => {
            let lo = 4 * cluster;
            Some((lo, (lo + 4).min(banks)))
        }
        AimCommand::Act { bank, .. }
        | AimCommand::CompBank { bank, .. }
        | AimCommand::ReadResBank { bank } => Some((bank, bank + 1)),
        AimCommand::ColumnRead { bank: Some(b), .. }
        | AimCommand::MultiplyAdd { bank: Some(b), .. } => Some((b, b + 1)),
        AimCommand::Comp { .. }
        | AimCommand::ColumnRead { bank: None, .. }
        | AimCommand::MultiplyAdd { bank: None, .. }
        | AimCommand::ReadRes
        | AimCommand::PreAll
        | AimCommand::Refresh => Some((0, banks)),
    }
}

/// How long the command's effect occupies a bank, in cycles (for slice
/// widths on the bank tracks; the bus slot itself is always tCMD).
fn bank_duration(cmd: &AimCommand, t: &Timing) -> u64 {
    match cmd {
        AimCommand::GAct { .. } | AimCommand::Act { .. } => t.t_rcd,
        AimCommand::PreAll => t.t_rp,
        AimCommand::Refresh => t.t_rfc,
        _ => t.t_ccd,
    }
}

/// Exports `trace` as a Chrome trace-event JSON document.
///
/// `timing` supplies the cycle-to-nanosecond conversion and slice widths;
/// `banks` is the channel's bank count (track layout). Every command the
/// trace expands to becomes exactly one slice on its bus track (so the
/// `"X"` events with `pid == 1` are as many as [`CommandTrace::entries`]
/// yields), plus one slice per touched bank on the bank tracks.
#[must_use]
pub fn export_chrome_trace(trace: &CommandTrace, timing: &Timing, banks: usize) -> String {
    let mut b = ChromeTraceBuilder::new(timing.tck_ns);
    b.process_name(PID_BUSES, "command buses");
    b.thread_name(PID_BUSES, TID_ROW_BUS, "row bus");
    b.thread_name(PID_BUSES, TID_COL_BUS, "column bus");
    b.process_name(PID_BANKS, "banks");
    for bank in 0..banks {
        b.thread_name(PID_BANKS, bank as u64, &format!("bank {bank}"));
    }

    for (cycle, cmd) in trace.entries() {
        let label = cmd.to_string();
        let tid = if is_row_bus(&cmd) {
            TID_ROW_BUS
        } else {
            TID_COL_BUS
        };
        b.complete(
            PID_BUSES,
            tid,
            &label,
            cycle,
            timing.t_cmd,
            &[("cycle", JsonValue::from(cycle))],
        );
        if let Some((lo, hi)) = banks_of(&cmd, banks) {
            let dur = bank_duration(&cmd, timing);
            for bank in lo..hi {
                b.complete(PID_BANKS, bank as u64, &label, cycle, dur, &[]);
            }
        }
    }
    b.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::fixture::logged;
    use newton_dram::timing::TimingParams;
    use newton_dram::Channel;
    use newton_trace::JsonValue;

    fn timing() -> Timing {
        TimingParams::hbm2e_like().to_cycles().unwrap()
    }

    /// A channel that logged one small row-set.
    fn sample_channel() -> Channel {
        logged(&[
            (0, AimCommand::Gwrite { index: 0 }),
            (4, AimCommand::GAct { cluster: 0, row: 3 }),
            (20, AimCommand::Comp { subchunk: 0 }),
            (24, AimCommand::ReadRes),
            (40, AimCommand::PreAll),
        ])
    }

    fn sample_export() -> String {
        let ch = sample_channel();
        export_chrome_trace(&CommandTrace::new(ch.command_log()), &timing(), 16)
    }

    #[test]
    fn export_parses_and_roundtrips_command_count() {
        let ch = sample_channel();
        let tr = CommandTrace::new(ch.command_log());
        let text = export_chrome_trace(&tr, &timing(), 16);
        let doc = JsonValue::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let bus_slices = events
            .iter()
            .filter(|e| {
                e.get("ph").map(JsonValue::as_str) == Some(Some("X"))
                    && e.get("pid").and_then(JsonValue::as_f64) == Some(PID_BUSES as f64)
            })
            .count();
        assert_eq!(bus_slices, tr.entries().count());
    }

    #[test]
    fn tracks_exist_for_buses_and_every_bank() {
        let text = sample_export();
        let doc = JsonValue::parse(&text).unwrap();
        let names: Vec<String> = doc
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e.get("name").map(JsonValue::as_str) == Some(Some("thread_name")))
            .filter_map(|e| e.get("args")?.get("name")?.as_str().map(String::from))
            .collect();
        assert!(names.contains(&"row bus".to_string()));
        assert!(names.contains(&"column bus".to_string()));
        for bank in 0..16 {
            assert!(names.contains(&format!("bank {bank}")));
        }
    }

    #[test]
    fn row_and_column_commands_land_on_their_buses() {
        let text = sample_export();
        let doc = JsonValue::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let tid_of = |label: &str| -> f64 {
            events
                .iter()
                .find(|e| {
                    e.get("ph").map(JsonValue::as_str) == Some(Some("X"))
                        && e.get("pid").and_then(JsonValue::as_f64) == Some(PID_BUSES as f64)
                        && e.get("name")
                            .and_then(|n| n.as_str())
                            .is_some_and(|n| n.starts_with(label))
                })
                .and_then(|e| e.get("tid").and_then(JsonValue::as_f64))
                .unwrap()
        };
        assert_eq!(tid_of("G_ACT"), TID_ROW_BUS as f64);
        assert_eq!(tid_of("PRE_ALL"), TID_ROW_BUS as f64);
        assert_eq!(tid_of("GWRITE"), TID_COL_BUS as f64);
        assert_eq!(tid_of("COMP"), TID_COL_BUS as f64);
    }
}
