//! Recognition and replay of a lowered matrix–vector trace.
//!
//! [`crate::generate::lower_mv`] emits a canonical instruction sequence:
//! a CFR geometry header, a `WR_GPR`/`WR_SBK` stream depositing the
//! matrix, a `WR_GPR`/`WR_GB` stream carrying the input vector, the
//! `MAC_ABK` row-set stream with one `RD_MAC` after each row-set per
//! latch it reads out, then `EOC`. This module walks that sequence back
//! into an executable workload:
//!
//! * the **physical** path ([`MvTrace::apply_physical`]) deposits the
//!   trace's bytes into channel storage in exactly the order and
//!   granularity of `MatrixMapping::load_strided`, then plans with
//!   `NewtonSystem::plan_resident` — so a subsequent `run_resident` is
//!   byte-identical to the API-driven `run_mv` (outputs, cycles, stats,
//!   summaries, telemetry);
//! * the **logical** recovery ([`MvTrace::matrix`]/[`MvTrace::vector`])
//!   reconstructs the row-major workload through the origin mapping, so
//!   backends with *different* geometry (GDDR6/AiM, Ideal, GPU) can run
//!   the same trace.
//!
//! Recognition also re-verifies the trace's `MAC_ABK` / `RD_MAC` stream
//! against the one `lower_mv` derives from a freshly built schedule for
//! the declared geometry — a trace whose compute or readout stream
//! disagrees with what the controller would issue is rejected with
//! [`IsaError::ScheduleMismatch`].

use newton_bf16::{slice, Bf16};
use newton_core::layout::MatrixMapping;
use newton_core::system::{LoadedMatrix, NewtonSystem};

use crate::error::IsaError;
use crate::generate;
use crate::instr::{Instr, GPR_BYTES, GPR_COUNT};
use crate::program::{Program, TraceGeometry};

/// Sub-chunk elements carried by one GPR (16 bf16 in 256 bits).
pub const GPR_ELEMS: usize = GPR_BYTES / 2;

/// A recognized matrix–vector trace.
#[derive(Debug, Clone)]
pub struct MvTrace {
    /// The declared origin geometry.
    pub geometry: TraceGeometry,
    /// Deposited row bytes, one table per channel; rows never written
    /// stay zero (fresh DRAM arrays materialize zero rows, and
    /// `load_strided` zero-fills its staging buffer).
    rows: Vec<RowTable>,
    /// The recovered logical `m x n` matrix (row-major).
    pub matrix: Vec<Bf16>,
    /// The recovered input vector (length `n`).
    pub vector: Vec<Bf16>,
    /// Row-sets carried by the `MAC_ABK` stream (after verification).
    pub mac_sets: usize,
}

/// The row bytes one channel's `WR_SBK` stream deposits, dense over
/// `(bank, dram_row)` for the rows the channel's mapping uses.
#[derive(Debug, Clone)]
struct RowTable {
    rows_per_bank: usize,
    row_bytes: usize,
    bytes: Vec<u8>,
}

impl RowTable {
    fn new(banks: usize, rows_per_bank: usize, row_bytes: usize) -> Result<RowTable, IsaError> {
        let len = banks
            .checked_mul(rows_per_bank)
            .and_then(|rows| rows.checked_mul(row_bytes))
            .ok_or_else(|| IsaError::Geometry("row table size overflows".into()))?;
        Ok(RowTable {
            rows_per_bank,
            row_bytes,
            bytes: vec![0; len],
        })
    }

    fn row(&self, bank: usize, row: usize) -> &[u8] {
        let at = (bank * self.rows_per_bank + row) * self.row_bytes;
        &self.bytes[at..at + self.row_bytes]
    }

    fn row_mut(&mut self, bank: usize, row: usize) -> &mut [u8] {
        let at = (bank * self.rows_per_bank + row) * self.row_bytes;
        &mut self.bytes[at..at + self.row_bytes]
    }
}

/// Rejects a mask naming a channel at or beyond `channels`.
fn check_mask(mask: u64, channels: usize) -> Result<(), IsaError> {
    if channels < 64 && mask >> channels != 0 {
        return Err(IsaError::ChannelMaskOutOfRange { mask, channels });
    }
    Ok(())
}

/// Recognizes a lowered MV program.
///
/// # Errors
///
/// Typed [`IsaError`]s for missing geometry, out-of-range addresses,
/// instructions outside the canonical MV vocabulary
/// ([`IsaError::NotMv`]), or a compute stream that disagrees with the
/// rebuilt schedule ([`IsaError::ScheduleMismatch`]).
pub fn recognize(program: &Program) -> Result<MvTrace, IsaError> {
    let geometry = program.geometry()?;
    let row_bytes = geometry.row_elems * 2;
    let cols_per_row = row_bytes / GPR_BYTES;
    let mut mappings: Vec<Option<MatrixMapping>> = Vec::with_capacity(geometry.channels);
    let mut rows = Vec::with_capacity(geometry.channels);
    for ch in 0..geometry.channels {
        let mapping = geometry.mapping(ch)?;
        let rows_per_bank = mapping.as_ref().map_or(0, MatrixMapping::rows_per_bank);
        rows.push(RowTable::new(geometry.banks, rows_per_bank, row_bytes)?);
        mappings.push(mapping);
    }

    let mut gprs = vec![[0u8; GPR_BYTES]; GPR_COUNT];
    let mut vector = vec![Bf16::ZERO; geometry.n];
    let mut mac_stream: Vec<&Instr> = Vec::new();
    for (index, instr) in program.instrs.iter().enumerate() {
        match instr {
            Instr::WrCfr { .. } => {}
            Instr::WrGpr { gpr, data } => {
                if *gpr >= GPR_COUNT {
                    return Err(IsaError::GprOutOfRange {
                        gpr: *gpr,
                        count: GPR_COUNT,
                    });
                }
                gprs[*gpr] = *data;
            }
            Instr::WrSbk {
                gpr,
                channels,
                bank,
                row,
                col,
            } => {
                if *gpr >= GPR_COUNT {
                    return Err(IsaError::GprOutOfRange {
                        gpr: *gpr,
                        count: GPR_COUNT,
                    });
                }
                if *bank >= geometry.banks {
                    return Err(IsaError::BankOutOfRange {
                        bank: *bank,
                        banks: geometry.banks,
                    });
                }
                if *col >= cols_per_row {
                    return Err(IsaError::ColOutOfRange {
                        col: *col,
                        cols: cols_per_row,
                    });
                }
                check_mask(*channels, geometry.channels)?;
                let mut mask = *channels;
                while mask != 0 {
                    let table = &mut rows[mask.trailing_zeros() as usize];
                    mask &= mask - 1;
                    if *row >= table.rows_per_bank {
                        return Err(IsaError::RowOutOfRange {
                            row: *row,
                            rows: table.rows_per_bank,
                        });
                    }
                    table.row_mut(*bank, *row)[col * GPR_BYTES..][..GPR_BYTES]
                        .copy_from_slice(&gprs[*gpr]);
                }
            }
            Instr::WrGb {
                gpr,
                channels,
                offset,
            } => {
                if *gpr >= GPR_COUNT {
                    return Err(IsaError::GprOutOfRange {
                        gpr: *gpr,
                        count: GPR_COUNT,
                    });
                }
                check_mask(*channels, geometry.channels)?;
                let subchunks = geometry.n.div_ceil(GPR_ELEMS);
                if *offset >= subchunks {
                    return Err(IsaError::GbOffsetOutOfRange {
                        offset: *offset,
                        subchunks,
                    });
                }
                let elems = slice::unpack(&gprs[*gpr])
                    .map_err(|e| IsaError::Geometry(format!("GPR payload: {e:?}")))?;
                let start = offset * GPR_ELEMS;
                let len = GPR_ELEMS.min(geometry.n - start);
                vector[start..start + len].copy_from_slice(&elems[..len]);
            }
            Instr::MacAbk { .. } | Instr::RdMac { .. } => mac_stream.push(instr),
            Instr::Eoc => break,
            other => {
                return Err(IsaError::NotMv(format!(
                    "instruction {index} ({other}) is outside the lowered-MV vocabulary"
                )))
            }
        }
    }

    let mapping0 = mappings[0]
        .as_ref()
        .ok_or_else(|| IsaError::Geometry("channel 0 has no rows".into()))?;
    let want = generate::mac_stream(&geometry, mapping0);
    let show = |instr: Option<&Instr>| instr.map_or_else(|| "nothing".into(), Instr::to_string);
    let len = mac_stream.len().max(want.len());
    if let Some(index) = (0..len).find(|&i| mac_stream.get(i).copied() != want.get(i)) {
        return Err(IsaError::ScheduleMismatch {
            index,
            detail: format!(
                "trace has {}, the schedule implies {}",
                show(mac_stream.get(index).copied()),
                show(want.get(index))
            ),
        });
    }
    let matrix = recover_matrix(&geometry, &mappings, &rows)?;
    Ok(MvTrace {
        geometry,
        rows,
        matrix,
        vector,
        mac_sets: want
            .iter()
            .filter(|i| matches!(i, Instr::MacAbk { .. }))
            .count(),
    })
}

/// Rebuilds the logical row-major matrix from the deposited bytes
/// through the origin mapping (the inverse of `load_strided`).
fn recover_matrix(
    geometry: &TraceGeometry,
    mappings: &[Option<MatrixMapping>],
    rows: &[RowTable],
) -> Result<Vec<Bf16>, IsaError> {
    let (m, n, c) = (geometry.m, geometry.n, geometry.channels);
    let mut matrix = vec![Bf16::ZERO; m * n];
    for (ch, (mapping, table)) in mappings.iter().zip(rows).enumerate() {
        let Some(map) = mapping else { continue };
        for li in 0..map.m() {
            let gi = ch + li * c;
            for chunk in 0..map.num_chunks() {
                let (bank, dram_row, offset) = map.location(li, chunk * map.row_elems())?;
                let bytes = table.row(bank, dram_row);
                let len = map.chunk_elems(chunk);
                let elems = slice::unpack(&bytes[offset * 2..(offset + len) * 2])
                    .map_err(|e| IsaError::Geometry(format!("stored row bytes: {e:?}")))?;
                matrix[gi * n + chunk * map.row_elems()..][..len].copy_from_slice(&elems);
            }
        }
    }
    Ok(matrix)
}

impl MvTrace {
    /// Deposits the trace's physical bytes into `system`'s channel
    /// storage and returns the resident-matrix plan — the byte-exact
    /// mirror of `NewtonSystem::load_matrix`.
    ///
    /// Rows are written whole, zero-padded, in the `(local row, chunk)`
    /// order of `MatrixMapping::load_strided`, so storage contents (and
    /// write-epoch counts) match the API path exactly; running the
    /// returned plan with `run_resident` is then byte-identical to
    /// `run_mv` on the same inputs.
    ///
    /// # Errors
    ///
    /// [`IsaError::Geometry`] when `system`'s geometry differs from the
    /// trace's (use the logical [`MvTrace::matrix`] + `load_matrix`
    /// relayout path instead); substrate errors otherwise.
    pub fn apply_physical(&self, system: &mut NewtonSystem) -> Result<LoadedMatrix, IsaError> {
        if !self.geometry.matches(system.config()) {
            return Err(IsaError::Geometry(format!(
                "trace geometry ({} ch, {} banks, {} row elems) does not match the system \
                 ({} ch, {} banks, {} row elems) — relayout through MvTrace::matrix instead",
                self.geometry.channels,
                self.geometry.banks,
                self.geometry.row_elems,
                system.config().channels,
                system.config().dram.banks,
                system.config().row_elems()
            )));
        }
        for (ch, table) in self.rows.iter().enumerate() {
            let Some(map) = self.geometry.mapping(ch)? else {
                continue;
            };
            let channel = &mut system.channels_mut()[ch];
            for li in 0..map.m() {
                for chunk in 0..map.num_chunks() {
                    let (bank, dram_row, _) = map.location(li, chunk * map.row_elems())?;
                    channel.channel_mut().storage_mut().write_row(
                        bank,
                        dram_row,
                        table.row(bank, dram_row),
                    )?;
                }
            }
        }
        system
            .plan_resident(self.geometry.m, self.geometry.n)
            .map_err(IsaError::from)
    }
}
