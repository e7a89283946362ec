//! Property-based ISA fuzzing (satellite of the trace frontend).
//!
//! Four contracts, seeded through the offline proptest shim's
//! counter-mode RNG so every failure reproduces from its case number:
//!
//! 1. Well-formed random programs round-trip `Instr -> text -> Instr`
//!    losslessly.
//! 2. The decoder/interpreter never panics: any outcome is `Ok` or a
//!    typed [`IsaError`].
//! 3. Out-of-range operands (banks, rows, columns, GPRs, latches,
//!    channel masks, a declared vector length the device cannot hold, a
//!    chunk whose staged-vector offset overflows) are rejected with the
//!    matching typed variant.
//! 4. Programs that run past several tREFI deadlines interpret without a
//!    refresh falling overdue.

use newton_core::config::NewtonConfig;
use newton_core::AimError;
use newton_dram::DramError;
use newton_isa::instr::cfr;
use newton_isa::{generate, interp, Instr, IsaError, Program};
use proptest::prelude::*;

fn small_config() -> NewtonConfig {
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 2;
    cfg
}

/// A trace with the geometry header plus one arbitrary instruction.
fn one_instr_program(instr: Instr) -> Program {
    instrs_program(vec![instr])
}

/// A trace with the geometry header plus `instrs`, in order.
fn instrs_program(instrs: Vec<Instr>) -> Program {
    let cfg = small_config();
    let mut program = generate::random_program(&cfg, 0, 0);
    // random_program ends with EOC; splice the probes before it.
    let eoc = program.instrs.len() - 1;
    program.instrs.splice(eoc..eoc, instrs);
    program
}

/// Elements the device's rows can hold: 32,768 rows of 512 per bank.
const MAX_VECTOR_ELEMS: u64 = 32_768 * 512;

proptest! {
    /// Random well-formed programs survive render -> parse unchanged.
    #[test]
    fn render_parse_round_trip(seed in any::<u64>(), len in 1usize..48) {
        let program = generate::random_program(&small_config(), seed, len);
        let text = program.render();
        let reparsed = Program::parse(&text).unwrap();
        prop_assert_eq!(reparsed, program);
    }

    /// Interpretation of any well-formed random program terminates
    /// without panicking (typed errors allowed, aborts are not).
    #[test]
    fn interpreter_never_panics(seed in any::<u64>(), len in 1usize..32) {
        let cfg = small_config();
        let program = generate::random_program(&cfg, seed, len);
        let _ = interp::interpret(&program, cfg);
    }

    /// Truncating or corrupting any single instruction line yields a
    /// typed parse error carrying that line's number — never a panic.
    #[test]
    fn corrupted_lines_fail_typed(seed in any::<u64>(), len in 2usize..24) {
        let program = generate::random_program(&small_config(), seed, len);
        let text = program.render();
        let lines: Vec<&str> = text.lines().collect();
        // An instruction line (never the magic) cut in half with an ASCII tail.
        let victim = 1 + (seed as usize % (lines.len() - 1));
        let cut = format!("{}garbage!", &lines[victim][..lines[victim].len() / 2]);
        // A 3-byte character overwriting payload bytes in place, so the
        // payload keeps its 64-byte length (any line when no WR_GPR exists).
        let target = lines.iter().rposition(|l| l.starts_with("WR_GPR")).unwrap_or(victim);
        let line = lines[target];
        let first = line.len().saturating_sub(64);
        let at = first + seed as usize % (line.len() - 2 - first);
        let spliced = format!("{}€{}", &line[..at], &line[at + 3..]);
        for (bad, replacement) in [(victim, cut), (target, spliced)] {
            let mut mutated: Vec<&str> = lines.clone();
            mutated[bad] = &replacement;
            match Program::parse(&mutated.join("\n")) {
                Err(IsaError::Parse { line, .. }) => prop_assert_eq!(line, bad + 1),
                // '!' and '€' parse nowhere, so the line cannot stay valid.
                other => prop_assert!(false, "{replacement:?}: expected a parse error, got {other:?}"),
            }
        }
    }

    /// Out-of-range banks are a typed rejection.
    #[test]
    fn bank_out_of_range_is_typed(bank in 16usize..256) {
        let p = one_instr_program(Instr::WrSbk { gpr: 0, channels: 0x1, bank, row: 0, col: 0 });
        match interp::interpret(&p, small_config()) {
            Err(IsaError::BankOutOfRange { bank: b, banks: 16 }) => assert_eq!(b, bank),
            other => panic!("expected BankOutOfRange, got {other:?}"),
        }
    }

    /// Out-of-range rows are a typed rejection.
    #[test]
    fn row_out_of_range_is_typed(row in 32_768usize..100_000) {
        let p = one_instr_program(Instr::MacSbk { channels: 0x1, bank: 0, row, n_sub: 1 });
        match interp::interpret(&p, small_config()) {
            Err(IsaError::RowOutOfRange { row: r, .. }) => assert_eq!(r, row),
            other => panic!("expected RowOutOfRange, got {other:?}"),
        }
    }

    /// Out-of-range columns are a typed rejection.
    #[test]
    fn col_out_of_range_is_typed(col in 32usize..1000) {
        let p = one_instr_program(Instr::RdSbk { gpr: 0, channels: 0x1, bank: 0, row: 0, col });
        match interp::interpret(&p, small_config()) {
            Err(IsaError::ColOutOfRange { col: c, cols: 32 }) => assert_eq!(c, col),
            other => panic!("expected ColOutOfRange, got {other:?}"),
        }
    }

    /// Conventional `WR` / `RD` to a bank, row or column outside the
    /// geometry are a typed rejection, not a request the scheduler sees.
    #[test]
    fn host_address_out_of_range_is_typed(
        bank in 16usize..256,
        row in 32_768usize..100_000,
        col in 32usize..1000,
        write in any::<bool>(),
    ) {
        let host = |bank, row, col| {
            let instr = if write {
                Instr::WrHost { gpr: 0, channels: 0x1, bank, row, col }
            } else {
                Instr::RdHost { channels: 0x1, bank, row, col }
            };
            interp::interpret(&one_instr_program(instr), small_config())
        };
        match host(bank, 0, 0) {
            Err(IsaError::BankOutOfRange { bank: b, banks: 16 }) => assert_eq!(b, bank),
            other => panic!("expected BankOutOfRange, got {other:?}"),
        }
        match host(0, row, 0) {
            Err(IsaError::RowOutOfRange { row: r, .. }) => assert_eq!(r, row),
            other => panic!("expected RowOutOfRange, got {other:?}"),
        }
        match host(0, 0, col) {
            Err(IsaError::ColOutOfRange { col: c, cols: 32 }) => assert_eq!(c, col),
            other => panic!("expected ColOutOfRange, got {other:?}"),
        }
    }

    /// Out-of-range GPRs are a typed rejection.
    #[test]
    fn gpr_out_of_range_is_typed(gpr in 64usize..1024) {
        let p = one_instr_program(Instr::WrGpr { gpr, data: [0; 32] });
        match interp::interpret(&p, small_config()) {
            Err(IsaError::GprOutOfRange { gpr: g, count: 64 }) => assert_eq!(g, gpr),
            other => panic!("expected GprOutOfRange, got {other:?}"),
        }
    }

    /// Channel masks addressing unconfigured channels are rejected.
    #[test]
    fn channel_mask_out_of_range_is_typed(extra in 2u32..63) {
        let mask = 1u64 << extra; // config has 2 channels
        let p = one_instr_program(Instr::RdMac { gpr: 0, channels: mask, latch: 0 });
        match interp::interpret(&p, small_config()) {
            Err(IsaError::ChannelMaskOutOfRange { channels: 2, .. }) => {}
            other => panic!("expected ChannelMaskOutOfRange, got {other:?}"),
        }
    }

    /// A declared vector length (CFR N) longer than the device can hold is
    /// a typed rejection at the `WR_GB` that would stage it, even at the
    /// last offset that length implies — never a staging buffer sized by
    /// an unchecked register.
    #[test]
    fn declared_n_out_of_range_is_typed(n in MAX_VECTOR_ELEMS + 1..u64::MAX) {
        let offset = usize::try_from(n.div_ceil(16) - 1).unwrap();
        let p = instrs_program(vec![
            Instr::WrCfr { idx: cfr::N, value: n },
            Instr::WrGb { gpr: 0, channels: 0x1, offset },
        ]);
        match interp::interpret(&p, small_config()) {
            Err(IsaError::Geometry(msg)) => assert!(msg.contains(&n.to_string()), "{msg}"),
            other => panic!("expected Geometry, got {other:?}"),
        }
    }

    /// A `MAC_ABK` chunk whose staged-vector offset (`chunk * row_elems`)
    /// overflows is a typed rejection, not a wrapped offset that
    /// broadcasts zeros.
    #[test]
    fn chunk_offset_overflow_is_typed(chunk in usize::MAX / 512 + 1..usize::MAX) {
        let p = instrs_program(vec![
            Instr::WrGb { gpr: 0, channels: 0x1, offset: 0 },
            Instr::MacAbk {
                channels: 0x1,
                row: 5,
                chunk,
                latch: 0,
                n_sub: 1,
                load_chunk: true,
                reset_latch: true,
            },
        ]);
        match interp::interpret(&p, small_config()) {
            Err(IsaError::Geometry(msg)) => assert!(msg.contains(&chunk.to_string()), "{msg}"),
            other => panic!("expected Geometry, got {other:?}"),
        }
    }

    /// Out-of-range result latches are rejected.
    #[test]
    fn latch_out_of_range_is_typed(latch in 1usize..64) {
        // paper_default has a single result latch per bank.
        let p = one_instr_program(Instr::RdMac { gpr: 0, channels: 0x1, latch });
        match interp::interpret(&p, small_config()) {
            Err(IsaError::LatchOutOfRange { latch: l, latches: 1 }) => assert_eq!(l, latch),
            other => panic!("expected LatchOutOfRange, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A program that runs past two tREFI deadlines or more never lets a
    /// refresh fall overdue: MACs and conventional traffic both reach the
    /// channel through the controller, which interposes the refresh.
    #[test]
    fn long_programs_never_miss_a_refresh(seed in any::<u64>()) {
        let cfg = small_config();
        let t_refi = cfg.dram.timing.to_cycles().unwrap().t_refi;
        let program = generate::random_program(&cfg, seed, 512);
        match interp::interpret(&program, cfg) {
            Ok(run) => {
                let end = run.end_cycles.iter().copied().max().unwrap_or(0);
                prop_assert!(end > 2 * t_refi, "ends at {end}, under 2 x tREFI = {t_refi}");
            }
            Err(IsaError::Core(AimError::Dram(e @ DramError::RefreshOverdue { .. }))) => {
                prop_assert!(false, "seed {seed}: {e}");
            }
            Err(e) => prop_assert!(false, "seed {seed}: unexpected {e}"),
        }
    }
}
