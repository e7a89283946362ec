//! ASCII Gantt rendering of AiM command traces — the shape of the
//! paper's Fig. 7 ("Newton computation timing: one DRAM row across all
//! banks"), with one lane per command class and one column per command
//! slot.

use crate::command::{AimCommand, CommandTrace};
use newton_dram::timing::Cycle;

/// Lane assignment for the Gantt chart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Gwrite,
    Activate,
    Compute,
    ReadRes,
    RowMaint,
}

const LANES: [(Lane, &str); 5] = [
    (Lane::Gwrite, "GWRITE "),
    (Lane::Activate, "G_ACT  "),
    (Lane::Compute, "COMP   "),
    (Lane::ReadRes, "READRES"),
    (Lane::RowMaint, "PRE/REF"),
];

fn lane_of(cmd: &AimCommand) -> (Lane, char) {
    match cmd {
        AimCommand::Gwrite { .. } => (Lane::Gwrite, 'W'),
        AimCommand::GAct { cluster, .. } => (
            Lane::Activate,
            char::from_digit(*cluster as u32 % 10, 10).unwrap_or('A'),
        ),
        AimCommand::Act { .. } => (Lane::Activate, 'a'),
        AimCommand::Comp { .. } | AimCommand::CompBank { .. } => (Lane::Compute, 'C'),
        AimCommand::BroadcastInput { .. } => (Lane::Compute, 'b'),
        AimCommand::ColumnRead { .. } => (Lane::Compute, 'r'),
        AimCommand::MultiplyAdd { .. } => (Lane::Compute, 'm'),
        AimCommand::ReadRes | AimCommand::ReadResBank { .. } => (Lane::ReadRes, 'R'),
        AimCommand::PreAll => (Lane::RowMaint, 'P'),
        AimCommand::Refresh => (Lane::RowMaint, 'F'),
    }
}

/// Renders a command trace as an ASCII Gantt chart.
///
/// Each column covers `slot_cycles` cycles (use the command-slot width,
/// typically 4); each lane shows one command class. Later commands in
/// the same cell overwrite earlier ones (cells are slot-exclusive per
/// bus, so this only merges same-class commands).
///
/// # Panics
///
/// Panics if `slot_cycles` is zero.
#[must_use]
pub fn render_gantt(trace: &CommandTrace, slot_cycles: Cycle, max_width: usize) -> String {
    assert!(slot_cycles > 0, "slot width must be positive");
    let cycles = || trace.entries().map(|(c, _)| c);
    let (Some(start), Some(end)) = (cycles().min(), cycles().max()) else {
        return String::from("(empty trace)\n");
    };
    let total_slots = ((end - start) / slot_cycles + 1) as usize;
    let width = total_slots.min(max_width.max(1));

    let mut rows: Vec<Vec<char>> = vec![vec!['.'; width]; LANES.len()];
    let mut clipped = false;
    for (cycle, cmd) in trace.entries() {
        let slot = ((cycle - start) / slot_cycles) as usize;
        if slot >= width {
            clipped = true;
            continue;
        }
        let (lane, ch) = lane_of(&cmd);
        let lane_idx = LANES.iter().position(|(l, _)| *l == lane).expect("lane");
        rows[lane_idx][slot] = ch;
    }

    let mut out = String::new();
    out.push_str(&format!(
        "cycles {start}..{end} ({} per column)\n",
        slot_cycles
    ));
    for ((_, label), row) in LANES.iter().zip(&rows) {
        out.push_str(label);
        out.push(' ');
        out.extend(row.iter());
        out.push('\n');
    }
    if clipped {
        out.push_str(&format!("(clipped to {width} of {total_slots} slots)\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::fixture::logged;
    use newton_dram::audit::Audit;
    use newton_dram::Channel;

    /// A channel that logged one row-set's commands.
    fn demo_channel() -> Channel {
        let gwrites = (0..4).map(|i| (4 * i as Cycle, AimCommand::Gwrite { index: i }));
        let gacts = (0..4).map(|c| (22 * c as Cycle, AimCommand::GAct { cluster: c, row: 0 }));
        let comps = (0..8).map(|s| (80 + 4 * s as Cycle, AimCommand::Comp { subchunk: s }));
        let tail = [(124, AimCommand::ReadRes), (120, AimCommand::PreAll)];
        let entries: Vec<_> = gwrites.chain(gacts).chain(comps).chain(tail).collect();
        logged(&entries)
    }

    fn demo_chart(max_width: usize) -> String {
        let ch = demo_channel();
        render_gantt(&CommandTrace::new(ch.command_log()), 4, max_width)
    }

    #[test]
    fn lanes_show_the_fig7_structure() {
        let chart = demo_chart(200);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 6, "header + 5 lanes");
        let gwrite = lines[1];
        let gact = lines[2];
        let comp = lines[3];
        assert!(gwrite.starts_with("GWRITE"));
        // Count marks in the body only (the label itself contains a 'W').
        assert_eq!(gwrite["GWRITE  ".len()..].matches('W').count(), 4);
        // Cluster digits 0..3 appear in the activate lane.
        for d in ['0', '1', '2', '3'] {
            assert!(gact.contains(d), "missing cluster {d} in {gact}");
        }
        // Lane labels are 8 characters ("NAME    "); count body marks only.
        assert_eq!(comp[8..].matches('C').count(), 8);
        assert!(lines[4][8..].contains('R'));
        assert!(lines[5][8..].contains('P'));
    }

    #[test]
    fn gacts_land_in_tfaw_spaced_columns() {
        let chart = demo_chart(200);
        let gact_lane = chart.lines().nth(2).unwrap();
        let body = &gact_lane["G_ACT   ".len()..];
        let positions: Vec<usize> = body
            .char_indices()
            .filter(|(_, c)| c.is_ascii_digit())
            .map(|(i, _)| i)
            .collect();
        // 22-cycle spacing at 4 cycles/col: columns 0, 5, 11, 16.
        assert_eq!(positions, vec![0, 5, 11, 16]);
    }

    #[test]
    fn clipping_reports_hidden_slots() {
        let chart = demo_chart(10);
        assert!(chart.contains("clipped to 10"));
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let log = Audit::new();
        assert_eq!(
            render_gantt(&CommandTrace::new(Some(&log)), 4, 80),
            "(empty trace)\n"
        );
    }

    #[test]
    #[should_panic(expected = "slot width")]
    fn zero_slot_width_panics() {
        let _ = render_gantt(&CommandTrace::new(None), 0, 80);
    }

    #[test]
    fn simple_command_expansion_uses_distinct_glyphs() {
        let ch = logged(&[
            (0, AimCommand::BroadcastInput { subchunk: 0 }),
            (
                4,
                AimCommand::ColumnRead {
                    subchunk: 0,
                    bank: None,
                },
            ),
            (
                8,
                AimCommand::MultiplyAdd {
                    subchunk: 0,
                    bank: None,
                },
            ),
        ]);
        let chart = render_gantt(&CommandTrace::new(ch.command_log()), 4, 80);
        let comp = chart.lines().nth(3).unwrap();
        assert!(comp.contains('b') && comp.contains('r') && comp.contains('m'));
    }
}
