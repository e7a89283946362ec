//! The free-form timed interpreter behind `newton run`.
//!
//! Executes an arbitrary (not necessarily MV-shaped) `.aim` program on a
//! `NewtonSystem` by mapping each instruction onto the controller's
//! row-set operations, the code the API path's drain runs:
//!
//! * `MAC_ABK` / `MAC_SBK` open a row-set
//!   (`NewtonChannel::open_row_set`) over all banks or one bank; the
//!   `RD_MAC` / `RD_AF` instructions right after a MAC are its row-set's
//!   readouts, which size the refresh look-ahead;
//! * `RD_MAC` / `RD_AF` read a latch (`NewtonChannel::read_latch`);
//! * `COPY_BKGB` / `COPY_GBBK` are the controller's COPY operations;
//! * an open row-set is closed before queued conventional traffic drains
//!   and at `EOC` (`close_row_set`, `finish`).
//!
//! Command order, refresh interposition, `OptFlags` and
//! `NewtonConfig::engine` are therefore the controller's, and a lowered
//! matrix–vector trace interprets to the command stream `run_resident`
//! issues for it. The **serialization rule** modeled in `newton-serve`
//! is honored literally: conventional `WR`/`RD` requests queue on their
//! channels and drain through FR-FCFS (closed page, refresh interposed)
//! before the next AiM instruction may issue.
//!
//! Register/storage deposits (`WR_GPR`, `WR_SBK`, `WR_GB`, `WR_BIAS`,
//! `RD_SBK`) are *untimed*, mirroring the API path where matrix
//! residency is not part of any measured experiment (see
//! `newton_core::layout`); only MAC/READRES/COPY/host traffic spends
//! cycles.
//!
//! Every readout appends a deterministic log line; golden traces under
//! `tests/traces/` pin these logs byte-for-byte on both timing engines.

use std::fmt::Write as _;
use std::ops::Range;

use newton_bf16::{slice, Bf16};
use newton_core::config::NewtonConfig;
use newton_core::controller::NewtonChannel;
use newton_core::system::NewtonSystem;
use newton_core::tiling::{BankWork, ReadOut, RowSet};
use newton_dram::controller::Request;
use newton_dram::timing::Cycle;

use crate::error::IsaError;
use crate::instr::{cfr, hex32, Instr, CFR_COUNT, GPR_BYTES, GPR_COUNT};
use crate::mv::GPR_ELEMS;
use crate::program::Program;

/// Outcome of interpreting one program.
#[derive(Debug)]
pub struct InterpRun {
    /// The deterministic readout log, one event per line.
    pub log: String,
    /// Final cycle cursor of every channel: when everything it issued
    /// has completed.
    pub end_cycles: Vec<Cycle>,
    /// AiM-class instructions executed.
    pub aim_ops: u64,
    /// The system the program ran on, with every channel's stats, audit
    /// and command trace; `None` when no instruction reached a device.
    pub system: Option<NewtonSystem>,
}

/// Interprets `program` on a system derived from `base`: if the trace
/// writes `WR_CFR 2` (CHANNELS) before its first device instruction,
/// that channel count overrides `base.channels`, so checked-in traces
/// pin their own system size.
///
/// # Errors
///
/// Typed [`IsaError`]s for out-of-range operands; substrate errors from
/// the command stream. Never panics on malformed input.
pub fn interpret(program: &Program, base: NewtonConfig) -> Result<InterpRun, IsaError> {
    Interp::new(base).run(program)
}

struct Interp {
    base: NewtonConfig,
    system: Option<NewtonSystem>,
    gprs: Vec<[u8; GPR_BYTES]>,
    cfrs: [u64; CFR_COUNT],
    /// Logical input-vector staging written by `WR_GB`; `MAC_ABK`'s `L`
    /// flag GWRITEs the addressed chunk's slice into the physical global
    /// buffer (exactly what the API path's chunk broadcast does).
    staged: Vec<Bf16>,
    pending_hosts: bool,
    log: String,
    aim_ops: u64,
    host_ops: u64,
}

impl Interp {
    fn new(base: NewtonConfig) -> Interp {
        Interp {
            base,
            system: None,
            gprs: vec![[0u8; GPR_BYTES]; GPR_COUNT],
            cfrs: [0; CFR_COUNT],
            staged: Vec::new(),
            pending_hosts: false,
            log: String::new(),
            aim_ops: 0,
            host_ops: 0,
        }
    }

    /// The system, built on first use (CFR channel override applies) and
    /// borrowed in place after that.
    fn system(&mut self) -> Result<&mut NewtonSystem, IsaError> {
        if self.system.is_none() {
            self.system = Some(self.build_system()?);
        }
        Ok(self.system.as_mut().expect("the system is built above"))
    }

    fn build_system(&mut self) -> Result<NewtonSystem, IsaError> {
        let mut cfg = self.base.clone();
        let declared = self.cfrs[cfr::CHANNELS];
        if declared != 0 {
            if declared > 64 {
                return Err(IsaError::Geometry(format!(
                    "CFR CHANNELS = {declared} must be in 1..=64"
                )));
            }
            cfg.channels = declared as usize;
        }
        if cfg.dram.col_bytes() != GPR_BYTES {
            return Err(IsaError::Geometry(format!(
                "ISA frontend requires {GPR_BYTES}-byte column IO, config has {}",
                cfg.dram.col_bytes()
            )));
        }
        NewtonSystem::new(cfg).map_err(IsaError::from)
    }

    /// The channels `mask` names, lowest first, once every one of them
    /// is checked to exist.
    fn channels_of(&mut self, mask: u64) -> Result<impl Iterator<Item = usize>, IsaError> {
        let n = self.system()?.config().channels;
        if n < 64 && mask >> n != 0 {
            return Err(IsaError::ChannelMaskOutOfRange { mask, channels: n });
        }
        let mut rest = mask;
        Ok(std::iter::from_fn(move || {
            let ch = rest.trailing_zeros() as usize;
            rest &= rest.wrapping_sub(1);
            (ch < 64).then_some(ch)
        }))
    }

    fn check_gpr(&self, gpr: usize) -> Result<(), IsaError> {
        if gpr >= GPR_COUNT {
            return Err(IsaError::GprOutOfRange {
                gpr,
                count: GPR_COUNT,
            });
        }
        Ok(())
    }

    fn check_latch(&mut self, latch: usize) -> Result<(), IsaError> {
        let latches = self.system()?.config().result_latches_per_bank;
        if latch >= latches {
            return Err(IsaError::LatchOutOfRange { latch, latches });
        }
        Ok(())
    }

    /// Validates a (bank, row, col) triple against the device geometry.
    fn check_addr(
        &mut self,
        bank: usize,
        row: Option<usize>,
        col: Option<usize>,
    ) -> Result<(), IsaError> {
        let dram = &self.system()?.config().dram;
        let (banks, rows, cols) = (dram.banks, dram.rows_per_bank, dram.cols_per_row);
        if bank >= banks {
            return Err(IsaError::BankOutOfRange { bank, banks });
        }
        if let Some(row) = row {
            if row >= rows {
                return Err(IsaError::RowOutOfRange { row, rows });
            }
        }
        if let Some(col) = col {
            if col >= cols {
                return Err(IsaError::ColOutOfRange { col, cols });
            }
        }
        Ok(())
    }

    /// The serialization fence: every channel's open row-set closes and
    /// every queued conventional request drains through FR-FCFS before an
    /// AiM instruction may issue; each completion logs a `HOST` line.
    fn fence(&mut self) -> Result<(), IsaError> {
        if !self.pending_hosts {
            return Ok(());
        }
        self.pending_hosts = false;
        for ch in 0..self.system()?.config().channels {
            let nc = &mut self.system()?.channels_mut()[ch];
            nc.close_row_set()?;
            nc.service_host_requests()?;
            for done in nc.take_host_responses() {
                self.host_ops += 1;
                let r = &done.request;
                let kind = if r.write.is_some() { "WR" } else { "RD" };
                let mut line = format!(
                    "HOST ch={ch} {kind} bank={} row={} col={} cycle={}",
                    r.bank, r.row, r.col, done.issue_cycle
                );
                if !done.data.is_empty() {
                    let mut fixed = [0u8; GPR_BYTES];
                    let n = done.data.len().min(GPR_BYTES);
                    fixed[..n].copy_from_slice(&done.data[..n]);
                    let _ = write!(line, " data={}", hex32(&fixed));
                }
                line.push('\n');
                self.log.push_str(&line);
            }
        }
        Ok(())
    }

    fn gpr_elems(&self, gpr: usize) -> [Bf16; GPR_ELEMS] {
        let bytes = &self.gprs[gpr];
        std::array::from_fn(|i| Bf16::from_le_bytes([bytes[2 * i], bytes[2 * i + 1]]))
    }

    /// Logs one channel's readout into `gpr`; the first channel's
    /// (`first`) also lands in the GPR.
    fn readout(&mut self, op: &str, ch: usize, gpr: usize, values: &[Bf16], first: bool) {
        let floats: Vec<f32> = values.iter().map(|v| v.to_f32()).collect();
        let mut fixed = [0u8; GPR_BYTES];
        slice::pack_into(&values[..GPR_ELEMS.min(values.len())], &mut fixed);
        let _ = writeln!(
            self.log,
            "{op} ch={ch} gpr={gpr} data={} values={floats:?}",
            hex32(&fixed)
        );
        if first {
            self.gprs[gpr] = fixed;
        }
    }

    fn run(mut self, program: &Program) -> Result<InterpRun, IsaError> {
        for (i, instr) in program.instrs.iter().enumerate() {
            if instr.is_aim() {
                self.fence()?;
                self.aim_ops += 1;
            }
            self.step(instr, &program.instrs[i + 1..])?;
            if matches!(instr, Instr::Eoc) {
                break;
            }
        }
        self.fence()?;
        let end_cycles = match &mut self.system {
            Some(system) => system
                .channels_mut()
                .iter_mut()
                .map(NewtonChannel::finish)
                .collect::<Result<_, _>>()?,
            None => Vec::new(),
        };
        let _ = writeln!(
            self.log,
            "EOC cycles={end_cycles:?} aim_ops={} host_ops={}",
            self.aim_ops, self.host_ops
        );
        Ok(InterpRun {
            log: self.log,
            end_cycles,
            aim_ops: self.aim_ops,
            system: self.system,
        })
    }

    /// Executes `instr`; `next` is the program after it.
    #[allow(clippy::too_many_lines)]
    fn step(&mut self, instr: &Instr, next: &[Instr]) -> Result<(), IsaError> {
        match instr {
            Instr::WrCfr { idx, value } => {
                if *idx >= CFR_COUNT {
                    return Err(IsaError::CfrOutOfRange {
                        idx: *idx,
                        count: CFR_COUNT,
                    });
                }
                if self.system.is_some() && *idx == cfr::CHANNELS {
                    return Err(IsaError::Geometry(
                        "WR_CFR CHANNELS after the first device instruction".into(),
                    ));
                }
                self.cfrs[*idx] = *value;
            }
            Instr::WrGpr { gpr, data } => {
                self.check_gpr(*gpr)?;
                self.gprs[*gpr] = *data;
            }
            Instr::WrSbk {
                gpr,
                channels,
                bank,
                row,
                col,
            } => {
                self.check_gpr(*gpr)?;
                self.check_addr(*bank, Some(*row), Some(*col))?;
                let data = self.gprs[*gpr];
                for ch in self.channels_of(*channels)? {
                    self.system()?.channels_mut()[ch]
                        .channel_mut()
                        .storage_mut()
                        .write_column(*bank, *row, *col, &data)?;
                }
            }
            Instr::WrAbk {
                gpr,
                channels,
                row,
                col,
            } => {
                self.check_gpr(*gpr)?;
                self.check_addr(0, Some(*row), Some(*col))?;
                let data = self.gprs[*gpr];
                let banks = self.system()?.config().dram.banks;
                for ch in self.channels_of(*channels)? {
                    let storage = self.system()?.channels_mut()[ch]
                        .channel_mut()
                        .storage_mut();
                    for bank in 0..banks {
                        storage.write_column(bank, *row, *col, &data)?;
                    }
                }
            }
            Instr::WrGb {
                gpr,
                channels,
                offset,
            } => {
                self.check_gpr(*gpr)?;
                let cfg = self.system()?.config();
                let row_elems = cfg.row_elems();
                let subchunks = row_elems / GPR_ELEMS;
                // Staging may extend past one physical GB window when the
                // trace declares a wider logical vector (CFR N); the MAC
                // `L` flag later broadcasts the right slice per chunk. No
                // vector is longer than one chunk per row of a bank.
                let limit = cfg.dram.rows_per_bank * row_elems;
                let declared_n = self.cfrs[cfr::N];
                let declared_n = usize::try_from(declared_n)
                    .ok()
                    .filter(|&n| n <= limit)
                    .ok_or_else(|| {
                        IsaError::Geometry(format!(
                            "CFR N = {declared_n} exceeds the {limit} elements a bank's rows hold"
                        ))
                    })?;
                let bound = subchunks.max(declared_n.div_ceil(GPR_ELEMS));
                if *offset >= bound {
                    return Err(IsaError::GbOffsetOutOfRange {
                        offset: *offset,
                        subchunks: bound,
                    });
                }
                let elems = self.gpr_elems(*gpr);
                if self.staged.len() < (*offset + 1) * GPR_ELEMS {
                    self.staged.resize((*offset + 1) * GPR_ELEMS, Bf16::ZERO);
                }
                self.staged[*offset * GPR_ELEMS..(*offset + 1) * GPR_ELEMS].copy_from_slice(&elems);
                if *offset < subchunks {
                    for ch in self.channels_of(*channels)? {
                        self.system()?.channels_mut()[ch]
                            .device_mut()
                            .global_buffer_mut()
                            .write_subchunk(*offset, &elems)?;
                    }
                }
            }
            Instr::WrBias { gpr, channels } => {
                self.check_gpr(*gpr)?;
                let banks = self.system()?.config().dram.banks;
                let elems = self.gpr_elems(*gpr);
                for ch in self.channels_of(*channels)? {
                    let device = self.system()?.channels_mut()[ch].device_mut();
                    for (bank, &bias) in elems.iter().take(banks).enumerate() {
                        device.preload_bias(bank, 0, bias);
                    }
                }
            }
            Instr::MacSbk {
                channels,
                bank,
                row,
                n_sub,
            } => {
                self.check_addr(*bank, Some(*row), None)?;
                self.check_span(0, *n_sub)?;
                let rs = row_set(*bank..*bank + 1, *row);
                self.mac(*channels, rs, &[], *n_sub, next)?;
            }
            Instr::MacAbk {
                channels,
                row,
                chunk,
                latch,
                n_sub,
                load_chunk,
                reset_latch,
            } => {
                self.check_addr(0, Some(*row), None)?;
                self.check_span(0, *n_sub)?;
                self.check_latch(*latch)?;
                let banks = self.system()?.config().dram.banks;
                let input = if *load_chunk {
                    self.staged_chunk(*chunk, *n_sub)?
                } else {
                    Vec::new()
                };
                let rs = RowSet {
                    chunk: *chunk,
                    latch: *latch,
                    reset_latch: *reset_latch,
                    load_chunk: *load_chunk,
                    ..row_set(0..banks, *row)
                };
                self.mac(*channels, rs, &input, *n_sub, next)?;
            }
            Instr::RdMac {
                gpr,
                channels,
                latch,
            }
            | Instr::RdAf {
                gpr,
                channels,
                latch,
            } => {
                let through_lut = matches!(instr, Instr::RdAf { .. });
                let op = if through_lut { "RD_AF" } else { "RD_MAC" };
                self.check_gpr(*gpr)?;
                self.check_latch(*latch)?;
                let banks = self.system()?.config().dram.banks;
                for (i, ch) in self.channels_of(*channels)?.enumerate() {
                    let nc = &mut self.system()?.channels_mut()[ch];
                    let values = nc.read_latch(0..banks, *latch, through_lut)?.to_vec();
                    self.readout(op, ch, *gpr, &values, i == 0);
                }
            }
            Instr::RdSbk {
                gpr,
                channels,
                bank,
                row,
                col,
            } => {
                self.check_gpr(*gpr)?;
                self.check_addr(*bank, Some(*row), Some(*col))?;
                for (i, ch) in self.channels_of(*channels)?.enumerate() {
                    let storage = self.system()?.channels()[ch].channel().storage();
                    let mut column = [0u8; GPR_BYTES];
                    storage.read_column(*bank, *row, *col, &mut column)?;
                    let values = slice::unpack(&column)
                        .map_err(|e| IsaError::Geometry(format!("stored column: {e:?}")))?;
                    self.readout("RD_SBK", ch, *gpr, &values, i == 0);
                }
            }
            Instr::CopyBkGb {
                channels,
                bank,
                row,
                offset,
                n_sub,
            } => {
                self.check_addr(*bank, Some(*row), None)?;
                self.check_span(*offset, *n_sub)?;
                for ch in self.channels_of(*channels)? {
                    self.system()?.channels_mut()[ch]
                        .copy_row_to_buffer(*bank, *row, *offset, *n_sub)?;
                }
            }
            Instr::CopyGbBk {
                channels,
                bank,
                row,
                offset,
                n_sub,
            } => {
                self.check_addr(*bank, Some(*row), None)?;
                self.check_span(*offset, *n_sub)?;
                for ch in self.channels_of(*channels)? {
                    self.system()?.channels_mut()[ch]
                        .copy_buffer_to_row(*bank, *row, *offset, *n_sub)?;
                }
            }
            Instr::WrHost {
                channels,
                bank,
                row,
                col,
                ..
            }
            | Instr::RdHost {
                channels,
                bank,
                row,
                col,
            } => {
                let write = match instr {
                    Instr::WrHost { gpr, .. } => {
                        self.check_gpr(*gpr)?;
                        Some(self.gprs[*gpr].to_vec())
                    }
                    _ => None,
                };
                self.check_addr(*bank, Some(*row), Some(*col))?;
                for ch in self.channels_of(*channels)? {
                    // Arrives at the channel's cursor; drains at the next fence.
                    let nc = &mut self.system()?.channels_mut()[ch];
                    nc.enqueue_host_request(Request {
                        id: 0,
                        bank: *bank,
                        row: *row,
                        col: *col,
                        write: write.clone(),
                        arrival: nc.now(),
                    });
                }
                self.pending_hosts = true;
            }
            Instr::Eoc => {}
        }
        Ok(())
    }

    /// Rejects an empty run of `n_sub` global-buffer sub-chunks from
    /// `offset`, or one past the buffer's end (MACs start at 0).
    fn check_span(&mut self, offset: usize, n_sub: usize) -> Result<(), IsaError> {
        let subchunks = self.system()?.config().row_elems() / GPR_ELEMS;
        let end = offset.saturating_add(n_sub);
        if n_sub == 0 || end > subchunks {
            return Err(IsaError::GbOffsetOutOfRange {
                offset: end,
                subchunks,
            });
        }
        Ok(())
    }

    /// The `L` flag's GWRITE payload: the first `n_sub` sub-chunks of
    /// staged-vector chunk `chunk`, zero past the staged vector's end.
    fn staged_chunk(&mut self, chunk: usize, n_sub: usize) -> Result<Vec<Bf16>, IsaError> {
        let row_elems = self.system()?.config().row_elems();
        let len = n_sub * GPR_ELEMS;
        let base = chunk
            .checked_mul(row_elems)
            .filter(|base| base.checked_add(len).is_some())
            .ok_or_else(|| {
                IsaError::Geometry(format!(
                    "MAC_ABK chunk {chunk} has no staged-vector offset \
                     ({row_elems} elements a chunk)"
                ))
            })?;
        Ok((base..base + len)
            .map(|i| self.staged.get(i).copied().unwrap_or_default())
            .collect())
    }

    /// Opens row-set `rs` (COMP of `n_sub` sub-chunks, after a GWRITE of
    /// `input` when `rs.load_chunk`) on every channel of `mask`. The
    /// `RD_MAC` / `RD_AF` instructions right after it in `next` that name
    /// a channel are that channel's readouts of the row-set, one per
    /// bank each: they size the controller's refresh look-ahead exactly
    /// as a schedule's `read_after` does.
    fn mac(
        &mut self,
        mask: u64,
        mut rs: RowSet,
        input: &[Bf16],
        n_sub: usize,
        next: &[Instr],
    ) -> Result<(), IsaError> {
        let banks = self.system()?.config().dram.banks;
        for ch in self.channels_of(mask)? {
            rs.read_after = next
                .iter()
                .map_while(|instr| match instr {
                    Instr::RdMac {
                        channels, latch, ..
                    }
                    | Instr::RdAf {
                        channels, latch, ..
                    } => Some((*channels, *latch)),
                    _ => None,
                })
                .filter(|(channels, _)| channels >> ch & 1 == 1)
                .flat_map(|(_, latch)| {
                    (0..banks).map(move |bank| ReadOut {
                        bank,
                        latch,
                        matrix_row: 0,
                    })
                })
                .collect();
            self.system()?.channels_mut()[ch].open_row_set(&rs, input, n_sub)?;
        }
        Ok(())
    }
}

/// A row-set opening `dram_row` in `banks` into latch 0, with neither a
/// GWRITE nor a latch reset: a `MAC_SBK`, and a `MAC_ABK` before its
/// operands. It works no matrix row; the interpreter reads latches.
fn row_set(banks: Range<usize>, dram_row: usize) -> RowSet {
    RowSet {
        chunk: 0,
        dram_row,
        latch: 0,
        reset_latch: false,
        load_chunk: false,
        work: banks
            .map(|bank| BankWork {
                bank,
                matrix_row: 0,
            })
            .collect(),
        read_after: Vec::new(),
    }
}
