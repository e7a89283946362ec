//! Trace generation: lowering matrix–vector workloads to `.aim` text.
//!
//! `lower_mv` is the inverse of [`crate::mv::recognize`]: it emits the
//! CFR geometry header, the per-channel `WR_GPR`/`WR_SBK` matrix
//! residency stream in **exactly** the order `MatrixMapping::load_strided`
//! writes storage (so physical replay is byte-identical to the API
//! path), the `WR_GB` vector staging stream, the `MAC_ABK` stream read
//! off the same `Schedule` the system compiles, each row-set followed by
//! one `RD_MAC` per latch it reads out, and `EOC`.
//!
//! `random_program` derives well-formed-but-arbitrary instruction
//! sequences from a [`CounterRng`] seed for the fuzzer and the CLI's
//! `fuzz` subcommand.

use newton_bf16::{slice, Bf16};
use newton_core::config::NewtonConfig;
use newton_core::layout::MatrixMapping;
use newton_core::tiling::Schedule;
use newton_workloads::generator;
use newton_workloads::rng::CounterRng;
use newton_workloads::Benchmark;

use crate::error::IsaError;
use crate::instr::{Instr, GPR_BYTES, GPR_COUNT};
use crate::mv::GPR_ELEMS;
use crate::program::{Program, TraceGeometry};

/// Packs up to 16 elements into a zero-padded 32-byte GPR image.
fn gpr_image(elems: &[Bf16]) -> [u8; GPR_BYTES] {
    let mut out = [0u8; GPR_BYTES];
    slice::pack_into(&elems[..elems.len().min(GPR_ELEMS)], &mut out);
    out
}

/// Lowers one `m x n` matrix–vector workload against `cfg` to a trace.
///
/// The emitted program satisfies [`crate::mv::recognize`] and, replayed
/// on a system with the same geometry, produces byte-identical outputs,
/// cycle counts, and stats to `NewtonSystem::run_mv` on the same
/// operands (the differential conformance suite pins this). Interpreted,
/// it issues the same commands too, wherever every channel's schedule
/// equals channel 0's and every row-set works all banks.
///
/// # Errors
///
/// Shape/geometry errors when the operands don't fit the configuration.
pub fn lower_mv(
    cfg: &NewtonConfig,
    matrix: &[Bf16],
    m: usize,
    n: usize,
    vector: &[Bf16],
) -> Result<Program, IsaError> {
    if matrix.len() != m * n {
        return Err(IsaError::Geometry(format!(
            "matrix has {} elements, expected {m}x{n}",
            matrix.len()
        )));
    }
    if vector.len() != n {
        return Err(IsaError::Geometry(format!(
            "vector has {} elements, expected {n}",
            vector.len()
        )));
    }
    if cfg.dram.col_bytes() != GPR_BYTES {
        return Err(IsaError::Geometry(format!(
            "trace lowering requires {GPR_BYTES}-byte column IO, config has {}",
            cfg.dram.col_bytes()
        )));
    }
    let geometry = TraceGeometry::from_config(cfg, m, n);
    let mut instrs = geometry.header();
    let mut gpr = 0usize;
    let mut alloc_gpr = || {
        let g = gpr;
        gpr = (gpr + 1) % GPR_COUNT;
        g
    };

    // Matrix residency, one channel at a time, mirroring load_strided's
    // (local row, chunk) write order so storage bytes match the API path.
    let row_elems = geometry.row_elems;
    for ch in 0..geometry.channels {
        let Some(mapping) = geometry.mapping(ch)? else {
            continue;
        };
        let mask = 1u64 << ch;
        for li in 0..mapping.m() {
            let gi = ch + li * geometry.channels;
            for c in 0..mapping.num_chunks() {
                let (bank, dram_row, _) = mapping.location(li, c * row_elems)?;
                let len = mapping.chunk_elems(c);
                let src = &matrix[gi * n + c * row_elems..][..len];
                for (col, piece) in src.chunks(GPR_ELEMS).enumerate() {
                    let g = alloc_gpr();
                    instrs.push(Instr::WrGpr {
                        gpr: g,
                        data: gpr_image(piece),
                    });
                    instrs.push(Instr::WrSbk {
                        gpr: g,
                        channels: mask,
                        bank,
                        row: dram_row,
                        col,
                    });
                }
            }
        }
    }

    // Vector staging, broadcast to every channel.
    let all = geometry.all_channels();
    for (offset, piece) in vector.chunks(GPR_ELEMS).enumerate() {
        let g = alloc_gpr();
        instrs.push(Instr::WrGpr {
            gpr: g,
            data: gpr_image(piece),
        });
        instrs.push(Instr::WrGb {
            gpr: g,
            channels: all,
            offset,
        });
    }

    // MAC stream: read the row-sets off the same schedule the system
    // compiles for channel 0 (all channels share it at base row 0).
    let mapping0 = geometry
        .mapping(0)?
        .ok_or_else(|| IsaError::Geometry("channel 0 has no rows".into()))?;
    instrs.extend(mac_stream(&geometry, &mapping0));
    instrs.push(Instr::Eoc);
    Ok(Program { instrs })
}

/// The compute stream of a lowered trace: each row-set of the schedule
/// `mapping0` implies, as a `MAC_ABK` to every channel followed by one
/// `RD_MAC` (into GPR 0) per latch the row-set reads out.
/// [`crate::mv::recognize`] requires a trace to carry exactly this.
pub(crate) fn mac_stream(geometry: &TraceGeometry, mapping0: &MatrixMapping) -> Vec<Instr> {
    let channels = geometry.all_channels();
    let mut stream = Vec::new();
    for rs in Schedule::build(geometry.schedule, mapping0).row_sets() {
        stream.push(Instr::MacAbk {
            channels,
            row: rs.dram_row,
            chunk: rs.chunk,
            latch: rs.latch,
            n_sub: mapping0.chunk_elems(rs.chunk).div_ceil(GPR_ELEMS),
            load_chunk: rs.load_chunk,
            reset_latch: rs.reset_latch,
        });
        let latches = rs.read_after.chunk_by(|a, b| a.latch == b.latch);
        stream.extend(latches.map(|reads| Instr::RdMac {
            gpr: 0,
            channels,
            latch: reads[0].latch,
        }));
    }
    stream
}

/// Lowers one Table II benchmark with its canonical seeded operands.
///
/// # Errors
///
/// Propagates [`lower_mv`] errors.
pub fn lower_benchmark(bench: Benchmark, cfg: &NewtonConfig) -> Result<Program, IsaError> {
    let shape = bench.shape();
    let matrix = generator::matrix(shape, bench.seed());
    let vector = generator::vector(shape.n, bench.seed() + 1);
    lower_mv(cfg, &matrix, shape.m, shape.n, &vector)
}

/// Derives a well-formed random program from a counter-mode seed: every
/// operand lands inside `cfg`'s geometry, so interpretation must not
/// panic (the fuzzer's contract), and rendering round-trips losslessly.
#[must_use]
pub fn random_program(cfg: &NewtonConfig, seed: u64, len: usize) -> Program {
    let rng = CounterRng::new(seed);
    let g = TraceGeometry::from_config(cfg, 16, cfg.row_elems());
    let mut instrs = g.header();
    let banks = cfg.dram.banks;
    let rows = cfg.dram.rows_per_bank.min(64);
    let cols = cfg.dram.cols_per_row;
    let subchunks = cfg.row_elems() / GPR_ELEMS;
    let latches = cfg.result_latches_per_bank;
    let mask_all = g.all_channels();
    let mut k = 0u64;
    let mut next = |modulus: u64| -> u64 {
        let v = rng.u64_at(k);
        k += 1;
        if modulus == 0 {
            v
        } else {
            v % modulus
        }
    };
    for _ in 0..len {
        let mask = (next(0) & mask_all).max(1);
        let gpr = next(GPR_COUNT as u64) as usize;
        let bank = next(banks as u64) as usize;
        let row = next(rows as u64) as usize;
        let col = next(cols as u64) as usize;
        let latch = next(latches as u64) as usize;
        let n_sub = next(subchunks as u64) as usize + 1;
        let offset = next(subchunks as u64) as usize;
        let mut data = [0u8; GPR_BYTES];
        for b in &mut data {
            *b = (next(256)) as u8;
        }
        let instr = match next(12) {
            0 => Instr::WrGpr { gpr, data },
            1 => Instr::WrSbk {
                gpr,
                channels: mask,
                bank,
                row,
                col,
            },
            2 => Instr::WrAbk {
                gpr,
                channels: mask,
                row,
                col,
            },
            3 => Instr::WrGb {
                gpr,
                channels: mask,
                offset,
            },
            4 => Instr::WrBias {
                gpr,
                channels: mask,
            },
            5 => Instr::MacSbk {
                channels: mask,
                bank,
                row,
                n_sub,
            },
            6 => Instr::MacAbk {
                channels: mask,
                row,
                chunk: 0,
                latch,
                n_sub,
                load_chunk: next(2) == 1,
                reset_latch: next(2) == 1,
            },
            7 => Instr::RdMac {
                gpr,
                channels: mask,
                latch,
            },
            8 => Instr::RdAf {
                gpr,
                channels: mask,
                latch,
            },
            9 => Instr::RdSbk {
                gpr,
                channels: mask,
                bank,
                row,
                col,
            },
            10 => Instr::WrHost {
                gpr,
                channels: mask,
                bank,
                row,
                col,
            },
            _ => Instr::RdHost {
                channels: mask,
                bank,
                row,
                col,
            },
        };
        instrs.push(instr);
    }
    instrs.push(Instr::Eoc);
    Program { instrs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mv;

    #[test]
    fn lowered_trace_is_recognizable() {
        let mut cfg = NewtonConfig::paper_default();
        cfg.channels = 2;
        let shape = newton_workloads::MvShape::new(8, 96);
        let matrix = generator::matrix(shape, 7);
        let vector = generator::vector(shape.n, 8);
        let p = lower_mv(&cfg, &matrix, shape.m, shape.n, &vector).unwrap();
        let mv = mv::recognize(&p).unwrap();
        assert_eq!(mv.geometry.m, 8);
        assert_eq!(mv.geometry.n, 96);
        assert_eq!(mv.matrix, matrix);
        assert_eq!(mv.vector, vector);
        assert!(mv.mac_sets > 0);
    }

    #[test]
    fn lowered_trace_round_trips_as_text() {
        let mut cfg = NewtonConfig::paper_default();
        cfg.channels = 2;
        let matrix = generator::matrix(newton_workloads::MvShape::new(4, 32), 1);
        let vector = generator::vector(32, 2);
        let p = lower_mv(&cfg, &matrix, 4, 32, &vector).unwrap();
        let text = p.render();
        assert_eq!(Program::parse(&text).unwrap(), p);
    }

    #[test]
    fn random_programs_render_and_parse() {
        let cfg = NewtonConfig::paper_default();
        for seed in 0..4 {
            let p = random_program(&cfg, seed, 24);
            assert_eq!(Program::parse(&p.render()).unwrap(), p);
        }
    }
}
