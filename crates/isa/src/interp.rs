//! The free-form timed interpreter behind `newton run`.
//!
//! Executes an arbitrary (not necessarily MV-shaped) `.aim` program on a
//! `NewtonSystem`, unrolling each instruction into the existing command
//! stream: MAC instructions issue real ACT / ganged-column-read /
//! precharge commands through the DRAM constraint engine, result reads
//! spend READRES slots, and conventional `WR`/`RD` requests ride the
//! controller's host queue. The **serialization rule** modeled in
//! `newton-serve` is honored literally: queued conventional requests
//! drain (timed, with refresh interposition) before the next AiM
//! instruction may issue.
//!
//! Register/storage deposits (`WR_GPR`, `WR_SBK`, `WR_GB`, `WR_BIAS`,
//! `RD_SBK`) are *untimed*, mirroring the API path where matrix
//! residency is not part of any measured experiment (see
//! `newton_core::layout`); only MAC/READRES/COPY/host traffic spends
//! cycles.
//!
//! Every readout appends a deterministic log line; golden traces under
//! `tests/traces/` pin these logs byte-for-byte.

use std::fmt::Write as _;

use newton_bf16::{slice, Bf16};
use newton_core::config::NewtonConfig;
use newton_core::controller::HostRequest;
use newton_core::system::NewtonSystem;
use newton_dram::timing::Cycle;

use crate::error::IsaError;
use crate::instr::{cfr, hex32, Instr, CFR_COUNT, GPR_BYTES, GPR_COUNT};
use crate::mv::GPR_ELEMS;
use crate::program::Program;

/// Outcome of interpreting one program.
#[derive(Debug, Clone)]
pub struct InterpRun {
    /// The deterministic readout log, one event per line.
    pub log: String,
    /// Final cycle cursor of every channel.
    pub end_cycles: Vec<Cycle>,
    /// AiM-class instructions executed.
    pub aim_ops: u64,
    /// Conventional host requests serviced.
    pub host_ops: u64,
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
    /// Per-channel command cursor for directly issued commands.
    cursors: Vec<Cycle>,
    gprs: Vec<[u8; GPR_BYTES]>,
    cfrs: [u64; CFR_COUNT],
    /// Logical input-vector staging written by `WR_GB`; `MAC_ABK`'s `L`
    /// flag broadcasts the addressed chunk's slice into the physical
    /// global buffer (exactly what the API path's chunk broadcast does).
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
            cursors: Vec::new(),
            gprs: vec![[0u8; GPR_BYTES]; GPR_COUNT],
            cfrs: [0; CFR_COUNT],
            staged: Vec::new(),
            pending_hosts: false,
            log: String::new(),
            aim_ops: 0,
            host_ops: 0,
        }
    }

    /// The system, built on first use (CFR channel override applies).
    fn system(&mut self) -> Result<&mut NewtonSystem, IsaError> {
        let system = match self.system.take() {
            Some(system) => system,
            None => self.build_system()?,
        };
        Ok(self.system.get_or_insert(system))
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
        let system = NewtonSystem::new(cfg).map_err(IsaError::from)?;
        self.cursors = system.channels().iter().map(|c| c.now()).collect();
        Ok(system)
    }

    fn channels_of(&mut self, mask: u64) -> Result<Vec<usize>, IsaError> {
        let n = self.system()?.config().channels;
        if n < 64 && mask >> n != 0 {
            return Err(IsaError::ChannelMaskOutOfRange { mask, channels: n });
        }
        Ok((0..n.min(64)).filter(|c| mask >> c & 1 == 1).collect())
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

    /// Validates a (bank, row, col) triple against the device geometry.
    fn check_addr(
        &mut self,
        bank: usize,
        row: Option<usize>,
        col: Option<usize>,
    ) -> Result<(), IsaError> {
        let cfg = self.system()?.config().dram.clone();
        if bank >= cfg.banks {
            return Err(IsaError::BankOutOfRange {
                bank,
                banks: cfg.banks,
            });
        }
        if let Some(row) = row {
            if row >= cfg.rows_per_bank {
                return Err(IsaError::RowOutOfRange {
                    row,
                    rows: cfg.rows_per_bank,
                });
            }
        }
        if let Some(col) = col {
            if col >= cfg.cols_per_row {
                return Err(IsaError::ColOutOfRange {
                    col,
                    cols: cfg.cols_per_row,
                });
            }
        }
        Ok(())
    }

    /// The serialization fence: every queued conventional request drains
    /// (timed) before an AiM instruction may issue.
    fn fence(&mut self) -> Result<(), IsaError> {
        if !self.pending_hosts {
            return Ok(());
        }
        self.pending_hosts = false;
        for ch in 0..self.system()?.config().channels {
            let cursor = self.cursors[ch];
            let nc = &mut self.system()?.channels_mut()[ch];
            nc.advance_to(cursor);
            nc.service_host_requests()?;
            let (responses, now) = (nc.take_host_responses(), nc.now());
            for resp in responses {
                self.host_ops += 1;
                let kind = if resp.request.write.is_some() {
                    "WR"
                } else {
                    "RD"
                };
                let mut line = format!(
                    "HOST ch={ch} {kind} bank={} row={} col={} cycle={}",
                    resp.request.bank, resp.request.row, resp.request.col, resp.cycle
                );
                if !resp.data.is_empty() {
                    let mut fixed = [0u8; GPR_BYTES];
                    let n = resp.data.len().min(GPR_BYTES);
                    fixed[..n].copy_from_slice(&resp.data[..n]);
                    let _ = write!(line, " data={}", hex32(&fixed));
                }
                line.push('\n');
                self.log.push_str(&line);
            }
            self.cursors[ch] = self.cursors[ch].max(now);
        }
        Ok(())
    }

    fn gpr_elems(&self, gpr: usize) -> [Bf16; GPR_ELEMS] {
        let bytes = &self.gprs[gpr];
        std::array::from_fn(|i| Bf16::from_le_bytes([bytes[2 * i], bytes[2 * i + 1]]))
    }

    fn log_readout(&mut self, op: &str, ch: usize, gpr: usize, values: &[Bf16]) {
        let floats: Vec<f32> = values.iter().map(|v| v.to_f32()).collect();
        let mut fixed = [0u8; GPR_BYTES];
        slice::pack_into(&values[..GPR_ELEMS.min(values.len())], &mut fixed);
        let _ = writeln!(
            self.log,
            "{op} ch={ch} gpr={gpr} data={} values={floats:?}",
            hex32(&fixed)
        );
    }

    fn run(mut self, program: &Program) -> Result<InterpRun, IsaError> {
        for instr in &program.instrs {
            if instr.is_aim() {
                self.fence()?;
                self.aim_ops += 1;
            }
            self.step(instr)?;
            if matches!(instr, Instr::Eoc) {
                break;
            }
        }
        self.fence()?;
        let end_cycles = match &self.system {
            Some(system) => system
                .channels()
                .iter()
                .zip(&self.cursors)
                .map(|(c, cur)| c.now().max(*cur))
                .collect(),
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
            host_ops: self.host_ops,
        })
    }

    #[allow(clippy::too_many_lines)]
    fn step(&mut self, instr: &Instr) -> Result<(), IsaError> {
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
                self.check_subchunks(*n_sub)?;
                for ch in self.channels_of(*channels)? {
                    self.mac_banks(ch, &[*bank], *row, 0, 0, *n_sub, false, false)?;
                }
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
                self.check_subchunks(*n_sub)?;
                let cfg = self.system()?.config();
                let banks: Vec<usize> = (0..cfg.dram.banks).collect();
                let latches = cfg.result_latches_per_bank;
                if *latch >= latches {
                    return Err(IsaError::LatchOutOfRange {
                        latch: *latch,
                        latches,
                    });
                }
                for ch in self.channels_of(*channels)? {
                    self.mac_banks(
                        ch,
                        &banks,
                        *row,
                        *chunk,
                        *latch,
                        *n_sub,
                        *load_chunk,
                        *reset_latch,
                    )?;
                }
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
                self.check_gpr(*gpr)?;
                let cfg = self.system()?.config();
                let banks = cfg.dram.banks;
                let latches = cfg.result_latches_per_bank;
                if *latch >= latches {
                    return Err(IsaError::LatchOutOfRange {
                        latch: *latch,
                        latches,
                    });
                }
                let targets = self.channels_of(*channels)?;
                let mut first = true;
                for ch in targets {
                    let cur = self.cursors[ch];
                    let nc = &mut self.system()?.channels_mut()[ch];
                    let at = nc.channel().earliest_result_read(cur);
                    let end = nc.channel_mut().issue_result_read(at, banks * 2)?;
                    nc.advance_to(end);
                    let values: Vec<Bf16> = (0..banks)
                        .map(|b| nc.device().read_result(b, *latch, through_lut))
                        .collect();
                    self.cursors[ch] = end;
                    if first {
                        let mut fixed = [0u8; GPR_BYTES];
                        slice::pack_into(&values[..GPR_ELEMS.min(values.len())], &mut fixed);
                        self.gprs[*gpr] = fixed;
                        first = false;
                    }
                    let op = if through_lut { "RD_AF" } else { "RD_MAC" };
                    self.log_readout(op, ch, *gpr, &values);
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
                let targets = self.channels_of(*channels)?;
                let mut first = true;
                for ch in targets {
                    let bytes = self.system()?.channels()[ch]
                        .channel()
                        .storage()
                        .column(*bank, *row, *col)?
                        .to_vec();
                    let values = slice::unpack(&bytes)
                        .map_err(|e| IsaError::Geometry(format!("stored column: {e:?}")))?;
                    if first {
                        let mut fixed = [0u8; GPR_BYTES];
                        let n = bytes.len().min(GPR_BYTES);
                        fixed[..n].copy_from_slice(&bytes[..n]);
                        self.gprs[*gpr] = fixed;
                        first = false;
                    }
                    self.log_readout("RD_SBK", ch, *gpr, &values);
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
                self.check_copy_span(*offset, *n_sub)?;
                for ch in self.channels_of(*channels)? {
                    self.copy_bk_gb(ch, *bank, *row, *offset, *n_sub)?;
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
                self.check_copy_span(*offset, *n_sub)?;
                for ch in self.channels_of(*channels)? {
                    self.copy_gb_bk(ch, *bank, *row, *offset, *n_sub)?;
                }
            }
            Instr::WrHost {
                gpr,
                channels,
                bank,
                row,
                col,
            } => {
                self.check_gpr(*gpr)?;
                self.check_addr(*bank, Some(*row), Some(*col))?;
                let data = self.gprs[*gpr].to_vec();
                for ch in self.channels_of(*channels)? {
                    self.system()?.channels_mut()[ch].enqueue_host_request(HostRequest {
                        bank: *bank,
                        row: *row,
                        col: *col,
                        write: Some(data.clone()),
                    });
                }
                self.pending_hosts = true;
            }
            Instr::RdHost {
                channels,
                bank,
                row,
                col,
            } => {
                self.check_addr(*bank, Some(*row), Some(*col))?;
                for ch in self.channels_of(*channels)? {
                    self.system()?.channels_mut()[ch].enqueue_host_request(HostRequest {
                        bank: *bank,
                        row: *row,
                        col: *col,
                        write: None,
                    });
                }
                self.pending_hosts = true;
            }
            Instr::Eoc => {}
        }
        Ok(())
    }

    fn check_subchunks(&mut self, n_sub: usize) -> Result<(), IsaError> {
        let subchunks = self.system()?.config().row_elems() / GPR_ELEMS;
        if n_sub == 0 || n_sub > subchunks {
            return Err(IsaError::GbOffsetOutOfRange {
                offset: n_sub,
                subchunks,
            });
        }
        Ok(())
    }

    fn check_copy_span(&mut self, offset: usize, n_sub: usize) -> Result<(), IsaError> {
        let subchunks = self.system()?.config().row_elems() / GPR_ELEMS;
        if n_sub == 0 || offset + n_sub > subchunks {
            return Err(IsaError::GbOffsetOutOfRange {
                offset: offset + n_sub,
                subchunks,
            });
        }
        Ok(())
    }

    /// One timed COMP row-set over `banks`: activate (ganged in 4-bank
    /// clusters when the config gangs activations), stream `n_sub`
    /// ganged internal column reads, precharge — then fold the
    /// functional MACs against the global buffer. The `L` flag first
    /// broadcasts chunk `chunk` of the staged vector into the GB.
    #[allow(clippy::too_many_arguments)]
    fn mac_banks(
        &mut self,
        ch: usize,
        banks: &[usize],
        row: usize,
        chunk: usize,
        latch: usize,
        n_sub: usize,
        load_chunk: bool,
        reset_latch: bool,
    ) -> Result<(), IsaError> {
        let row_elems = self.system()?.config().row_elems();
        // The `L` flag's broadcast: the chunk's staged vector slice, zero
        // past its end.
        let broadcast: Vec<[Bf16; GPR_ELEMS]> = if load_chunk && !self.staged.is_empty() {
            let base = chunk
                .checked_mul(row_elems)
                .filter(|base| base.checked_add(n_sub * GPR_ELEMS).is_some())
                .ok_or_else(|| {
                    IsaError::Geometry(format!(
                        "MAC_ABK chunk {chunk} has no staged-vector offset \
                         ({row_elems} elements a chunk)"
                    ))
                })?;
            (0..n_sub)
                .map(|sub| {
                    let start = base + sub * GPR_ELEMS;
                    std::array::from_fn(|k| self.staged.get(start + k).copied().unwrap_or_default())
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut cur = self.cursors[ch];
        let system = self.system()?;
        let ganged_act = system.config().opts.ganged_act && banks.len() > 1;
        let nc = &mut system.channels_mut()[ch];

        // Functional operands first (storage reads don't touch timing).
        let mut rows: Vec<Vec<u8>> = Vec::with_capacity(banks.len());
        for &bank in banks {
            rows.push(nc.channel().storage().row(bank, row)?.to_vec());
        }

        let timing = *nc.channel().timing();
        let channel = nc.channel_mut();
        if load_chunk {
            for _ in 0..n_sub {
                let t = channel.earliest_broadcast_write(cur);
                channel.issue_broadcast_write(t, GPR_BYTES)?;
                cur = t;
            }
        }
        if ganged_act {
            for cluster in banks.chunks(4) {
                let t = channel.earliest_ganged_activate(cluster).max(cur);
                let pairs: Vec<(usize, usize)> = cluster.iter().map(|&b| (b, row)).collect();
                channel.issue_ganged_activate(t, &pairs)?;
                cur = t;
            }
        } else {
            for &bank in banks {
                let t = channel.earliest_activate(bank).max(cur);
                channel.issue_activate(t, bank, row)?;
                cur = t;
            }
        }
        let mut last_col = cur;
        for sub in 0..n_sub {
            let pairs: Vec<(usize, usize)> = banks.iter().map(|&b| (b, sub)).collect();
            let t = channel.earliest_ganged_column_read(cur, banks);
            channel.issue_ganged_column_read_internal(t, &pairs, |_, _| {})?;
            cur = t;
            last_col = t;
        }
        let p = channel
            .earliest_precharge_all()
            .max(last_col + timing.t_rtp);
        channel.issue_precharge_all(p)?;
        cur = p + timing.t_rp;
        nc.advance_to(cur);

        // Functional fold: each bank multiply-accumulates its row's
        // sub-chunks against the global buffer into `latch`, after the
        // `L` flag's broadcast.
        let device = nc.device_mut();
        for (sub, inputs) in broadcast.iter().enumerate() {
            device.global_buffer_mut().write_subchunk(sub, inputs)?;
        }
        for (&bank, bytes) in banks.iter().zip(&rows) {
            if reset_latch {
                device.reset_latch(bank, latch);
            }
            for sub in 0..n_sub {
                device.comp_bank(
                    bank,
                    latch,
                    sub,
                    &bytes[sub * GPR_BYTES..(sub + 1) * GPR_BYTES],
                );
            }
        }
        self.cursors[ch] = cur;
        Ok(())
    }

    /// Timed bank-row → global-buffer copy (internal column reads).
    fn copy_bk_gb(
        &mut self,
        ch: usize,
        bank: usize,
        row: usize,
        offset: usize,
        n_sub: usize,
    ) -> Result<(), IsaError> {
        let mut cur = self.cursors[ch];
        let nc = &mut self.system()?.channels_mut()[ch];
        let bytes = nc.channel().storage().row(bank, row)?.to_vec();
        let timing = *nc.channel().timing();
        let channel = nc.channel_mut();
        let t = channel.earliest_activate(bank).max(cur);
        channel.issue_activate(t, bank, row)?;
        cur = t;
        for sub in 0..n_sub {
            let t = channel.earliest_ganged_column_read(cur, &[bank]);
            channel.issue_ganged_column_read_internal(t, &[(bank, sub)], |_, _| {})?;
            cur = t;
        }
        let p = channel.earliest_precharge(bank).max(cur + timing.t_rtp);
        channel.issue_precharge(p, bank)?;
        cur = p + timing.t_rp;
        nc.advance_to(cur);
        let device = nc.device_mut();
        for sub in 0..n_sub {
            let elems = slice::unpack(&bytes[sub * GPR_BYTES..(sub + 1) * GPR_BYTES])
                .map_err(|e| IsaError::Geometry(format!("stored row bytes: {e:?}")))?;
            device
                .global_buffer_mut()
                .write_subchunk(offset + sub, &elems)?;
        }
        self.cursors[ch] = cur;
        Ok(())
    }

    /// Timed global-buffer → bank-row copy (external column writes).
    fn copy_gb_bk(
        &mut self,
        ch: usize,
        bank: usize,
        row: usize,
        offset: usize,
        n_sub: usize,
    ) -> Result<(), IsaError> {
        let mut cur = self.cursors[ch];
        let nc = &mut self.system()?.channels_mut()[ch];
        let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(n_sub);
        for sub in 0..n_sub {
            payloads.push(slice::pack(
                nc.device().global_buffer().subchunk(offset + sub),
            ));
        }
        let timing = *nc.channel().timing();
        let channel = nc.channel_mut();
        let t = channel.earliest_activate(bank).max(cur);
        channel.issue_activate(t, bank, row)?;
        cur = t;
        for (sub, data) in payloads.iter().enumerate() {
            let t = channel.earliest_column_read(cur, bank);
            channel.issue_column_write_external(t, bank, sub, data)?;
            cur = t;
        }
        let p = channel.earliest_precharge(bank).max(cur + timing.t_wr);
        channel.issue_precharge(p, bank)?;
        cur = p + timing.t_rp;
        nc.advance_to(cur);
        self.cursors[ch] = cur;
        Ok(())
    }
}
