//! Whole-trace parsing and the CFR-declared geometry header.
//!
//! An `.aim` file is line-oriented text: `#` starts a comment, blank
//! lines are ignored, and the first effective line must be the magic
//! `AIM 1`. Everything after is one instruction per line
//! (see [`crate::instr`] for the lexical grammar).

use std::fmt;
use std::str::FromStr;

use newton_core::config::NewtonConfig;
use newton_core::layout::MatrixMapping;
use newton_core::tiling::ScheduleKind;

use crate::error::IsaError;
use crate::instr::{cfr, Instr, Lexer, CFR_COUNT};

/// Trace format magic and version.
pub(crate) const MAGIC: &str = "AIM 1";

/// A parsed `.aim` program.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// The instruction stream, in source order.
    pub instrs: Vec<Instr>,
}

impl Program {
    /// Parses trace text.
    ///
    /// # Errors
    ///
    /// [`IsaError::Parse`] with the 1-based source line of the first
    /// malformed line (or a missing/wrong magic header).
    pub fn parse(text: &str) -> Result<Program, IsaError> {
        let mut lex = Lexer::new(text);
        let mut line = 1;
        loop {
            let header = lex.rest_of_line();
            if !header.is_empty() {
                if header != MAGIC {
                    return Err(IsaError::Parse {
                        line,
                        msg: format!("expected header {MAGIC:?}, got {header:?}"),
                    });
                }
                break;
            }
            if !lex.next_line() {
                return Err(IsaError::Parse {
                    line: 1,
                    msg: format!("empty trace: expected header {MAGIC:?}"),
                });
            }
            line += 1;
        }
        let mut instrs = Vec::new();
        while lex.next_line() {
            line += 1;
            if let Some(op) = lex.token() {
                instrs.push(Instr::lex(op, &mut lex).map_err(|msg| IsaError::Parse { line, msg })?);
            }
        }
        Ok(Program { instrs })
    }

    /// Renders the program back to canonical trace text (parse ∘ render
    /// is the identity; property-tested by the fuzzer).
    #[must_use]
    pub fn render(&self) -> String {
        // The text is measured first, so the one buffer never grows.
        let len = MAGIC.len() + 1 + self.instrs.iter().map(|i| i.text_len() + 1).sum::<usize>();
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(MAGIC.as_bytes());
        out.push(b'\n');
        for i in &self.instrs {
            i.write_text(&mut out);
            out.push(b'\n');
        }
        debug_assert_eq!(out.len(), len, "text_len disagrees with write_text");
        String::from_utf8(out).expect("canonical text is ASCII")
    }

    /// The geometry declared by the leading `WR_CFR` header, if all six
    /// geometry registers were written (later writes win, matching CFR
    /// register semantics).
    ///
    /// # Errors
    ///
    /// [`IsaError::Geometry`] when a required register is missing or
    /// holds an unrepresentable value.
    pub(crate) fn geometry(&self) -> Result<TraceGeometry, IsaError> {
        let mut cfrs = [None::<u64>; CFR_COUNT];
        for i in &self.instrs {
            if let Instr::WrCfr { idx, value } = i {
                if *idx >= CFR_COUNT {
                    return Err(IsaError::CfrOutOfRange {
                        idx: *idx,
                        count: CFR_COUNT,
                    });
                }
                cfrs[*idx] = Some(*value);
            }
        }
        let need = |idx: usize, name: &str| -> Result<usize, IsaError> {
            let v = cfrs[idx]
                .ok_or_else(|| IsaError::Geometry(format!("CFR {idx} ({name}) never written")))?;
            usize::try_from(v)
                .map_err(|_| IsaError::Geometry(format!("CFR {idx} ({name}) = {v} overflows")))
        };
        let schedule = match need(cfr::SCHEDULE, "SCHEDULE")? {
            0 => ScheduleKind::InterleavedFullReuse,
            1 => ScheduleKind::NoReuse,
            2 => ScheduleKind::FourLatch,
            other => {
                return Err(IsaError::Geometry(format!(
                    "CFR {} (SCHEDULE) = {other} is not 0/1/2",
                    cfr::SCHEDULE
                )))
            }
        };
        let g = TraceGeometry {
            m: need(cfr::M, "M")?,
            n: need(cfr::N, "N")?,
            channels: need(cfr::CHANNELS, "CHANNELS")?,
            banks: need(cfr::BANKS, "BANKS")?,
            row_elems: need(cfr::ROW_ELEMS, "ROW_ELEMS")?,
            schedule,
        };
        g.validate()?;
        Ok(g)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl FromStr for Program {
    type Err = IsaError;

    fn from_str(s: &str) -> Result<Program, IsaError> {
        Program::parse(s)
    }
}

/// The device geometry a lowered trace was generated against, declared
/// through the CFR header so any backend can reconstruct the logical
/// workload (and the origin backend can replay the physical bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceGeometry {
    /// Matrix rows.
    pub m: usize,
    /// Matrix columns.
    pub n: usize,
    /// Channels of the origin device.
    pub channels: usize,
    /// Banks per channel.
    pub banks: usize,
    /// Elements per DRAM row.
    pub row_elems: usize,
    /// The tiled traversal the trace's MAC stream encodes.
    pub schedule: ScheduleKind,
}

impl TraceGeometry {
    /// The geometry a configuration implies for an `m x n` workload.
    #[must_use]
    pub(crate) fn from_config(cfg: &NewtonConfig, m: usize, n: usize) -> TraceGeometry {
        TraceGeometry {
            m,
            n,
            channels: cfg.channels,
            banks: cfg.dram.banks,
            row_elems: cfg.row_elems(),
            schedule: config_schedule_kind(cfg),
        }
    }

    /// The CFR header encoding this geometry (render these first).
    #[must_use]
    pub(crate) fn header(&self) -> Vec<Instr> {
        let sched = match self.schedule {
            ScheduleKind::InterleavedFullReuse => 0,
            ScheduleKind::NoReuse => 1,
            ScheduleKind::FourLatch => 2,
        };
        [
            (cfr::M, self.m as u64),
            (cfr::N, self.n as u64),
            (cfr::CHANNELS, self.channels as u64),
            (cfr::BANKS, self.banks as u64),
            (cfr::ROW_ELEMS, self.row_elems as u64),
            (cfr::SCHEDULE, sched),
        ]
        .into_iter()
        .map(|(idx, value)| Instr::WrCfr { idx, value })
        .collect()
    }

    /// Whether `cfg` has this exact device geometry (the precondition
    /// for physical byte replay rather than relayout).
    #[must_use]
    pub fn matches(&self, cfg: &NewtonConfig) -> bool {
        self.channels == cfg.channels
            && self.banks == cfg.dram.banks
            && self.row_elems == cfg.row_elems()
            && self.schedule == config_schedule_kind(cfg)
    }

    /// The channel mask naming every channel.
    #[must_use]
    pub(crate) fn all_channels(&self) -> u64 {
        u64::MAX >> (64 - self.channels.clamp(1, 64))
    }

    /// Matrix rows assigned to `channel` (round-robin, exactly as
    /// `NewtonSystem` distributes them).
    #[must_use]
    pub(crate) fn channel_rows(&self, channel: usize) -> usize {
        self.m / self.channels + usize::from(self.m % self.channels > channel)
    }

    /// The channel-local matrix mapping at base row 0 (`None` for idle
    /// trailing channels of a short matrix) — bit-compatible with the
    /// mapping `NewtonSystem` builds for the same geometry.
    ///
    /// # Errors
    ///
    /// Shape errors from the layout layer.
    pub(crate) fn mapping(&self, channel: usize) -> Result<Option<MatrixMapping>, IsaError> {
        let local_m = self.channel_rows(channel);
        if local_m == 0 {
            return Ok(None);
        }
        let bank_map: Vec<usize> = (0..self.banks).collect();
        MatrixMapping::with_bank_map(
            self.schedule.layout(),
            local_m,
            self.n,
            bank_map,
            self.row_elems,
            0,
        )
        .map(Some)
        .map_err(IsaError::from)
    }

    fn validate(&self) -> Result<(), IsaError> {
        if self.m == 0 || self.n == 0 {
            return Err(IsaError::Geometry("M and N must be positive".into()));
        }
        if self.channels == 0 || self.channels > 64 {
            return Err(IsaError::Geometry(format!(
                "CHANNELS = {} must be in 1..=64 (channel masks are 64-bit)",
                self.channels
            )));
        }
        if self.banks == 0 {
            return Err(IsaError::Geometry("BANKS must be positive".into()));
        }
        if self.row_elems == 0 || !self.row_elems.is_multiple_of(16) {
            return Err(IsaError::Geometry(format!(
                "ROW_ELEMS = {} must be a positive multiple of 16",
                self.row_elems
            )));
        }
        Ok(())
    }
}

/// The schedule kind a configuration implies (mirrors
/// `NewtonSystem::schedule_kind`, usable without constructing a system).
#[must_use]
fn config_schedule_kind(cfg: &NewtonConfig) -> ScheduleKind {
    if cfg.result_latches_per_bank == 4 {
        ScheduleKind::FourLatch
    } else if cfg.opts.interleaved_reuse {
        ScheduleKind::InterleavedFullReuse
    } else {
        ScheduleKind::NoReuse
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_requires_magic() {
        assert!(matches!(
            Program::parse("WR_CFR 0 1\n"),
            Err(IsaError::Parse { line: 1, .. })
        ));
        assert!(Program::parse("# comment\nAIM 1\nEOC\n").is_ok());
    }

    #[test]
    fn parse_reports_line_numbers() {
        for (text, bad_line) in [
            ("AIM 1\nWR_CFR 0 8\nBOGUS\n", 3),
            ("AIM 1\r\nWR_CFR 0 8\r\nBOGUS\r\n", 3),
            (
                "# comment only\n\n \t\nAIM 1 # magic\r\n\tWR_CFR\t0  8# trailing\n#\nBOGUS",
                7,
            ),
        ] {
            match Program::parse(text) {
                Err(IsaError::Parse { line, .. }) => assert_eq!(line, bad_line, "{text:?}"),
                other => panic!("{text:?}: {other:?}"),
            }
            let good = text.replace("BOGUS", "EOC # done");
            assert_eq!(
                Program::parse(&good).unwrap().instrs,
                [Instr::WrCfr { idx: 0, value: 8 }, Instr::Eoc],
                "{good:?}"
            );
        }
    }

    #[test]
    fn geometry_round_trips_through_header() {
        let cfg = NewtonConfig::paper_default();
        let g = TraceGeometry::from_config(&cfg, 96, 1024);
        let mut p = Program::default();
        p.instrs.extend(g.header());
        p.instrs.push(Instr::Eoc);
        assert_eq!(p.geometry().unwrap(), g);
        assert!(g.matches(&cfg));
        // Round-robin row split matches the system's distribution.
        let total: usize = (0..g.channels).map(|c| g.channel_rows(c)).sum();
        assert_eq!(total, g.m);
    }

    #[test]
    fn geometry_missing_register_is_typed() {
        let p = Program::parse("AIM 1\nWR_CFR 0 8\nEOC\n").unwrap();
        assert!(matches!(p.geometry(), Err(IsaError::Geometry(_))));
    }
}
