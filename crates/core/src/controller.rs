//! The host memory controller for one Newton channel: turns a tiled
//! schedule into a timed, constraint-legal AiM command stream.
//!
//! The controller is where every evaluated mechanism of the paper meets
//! the timing substrate:
//!
//! * **Ganged compute** ([`OptFlags::ganged_comp`]): one `COMP#` drives
//!   all banks under a single column-bus slot; disabled, each bank gets
//!   its own command — 16× the command traffic (Sec. V-B).
//! * **Complex commands** ([`OptFlags::complex_comp`]): `COMP#` fuses
//!   broadcast + column read + multiply-add; disabled, each step is a
//!   separate simple command — 3× the traffic.
//! * **Ganged activation** ([`OptFlags::ganged_act`]): `G_ACT#` opens a
//!   4-bank cluster per row-bus slot within tFAW; disabled, banks activate
//!   one by one.
//! * **Refresh interposition** (Sec. III-E): if the pending refresh would
//!   mature inside the deterministic latency of the next row-set, the
//!   controller waits for it to mature, refreshes, then proceeds.
//!
//! All data movement is real: COMP performs bf16 arithmetic on the bytes
//! the banks return, so every timing experiment doubles as a numerical
//! correctness check.
//!
//! AiM commands reach the channel only through the row-set operations
//! ([`NewtonChannel::open_row_set`], [`NewtonChannel::read_latch`],
//! [`NewtonChannel::close_row_set`], [`NewtonChannel::finish`]) and the
//! two COPY operations beside them. The drain behind
//! [`NewtonChannel::run_mv`] calls them in schedule order; the ISA
//! interpreter of `newton-isa` maps instructions onto them, so both get
//! the same command order, refresh interposition and optimizations.
//!
//! [`OptFlags::ganged_comp`]: crate::config::OptFlags::ganged_comp
//! [`OptFlags::complex_comp`]: crate::config::OptFlags::complex_comp
//! [`OptFlags::ganged_act`]: crate::config::OptFlags::ganged_act

use newton_bf16::Bf16;
use newton_dram::audit::AuditViolation;
use newton_dram::timing::Cycle;
use newton_dram::Channel;

use crate::cache::{DecodedWeightCache, Residency};
use crate::command::{AimCommand, CommandTrace};
use crate::config::{NewtonConfig, TimingEngine};
use crate::device::NewtonDevice;
use crate::error::AimError;
use crate::layout::MatrixMapping;
use crate::lut::ActivationKind;
use crate::plan::ChannelPlan;
use crate::tiling::{RowSet, Schedule};

/// AiM-specific command counters for one channel run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AimStats {
    /// GWRITE commands issued (input-vector loads).
    pub gwrite_commands: u64,
    /// Compute commands issued on the column bus (COMP or its simple
    /// expansion steps, ganged or per bank).
    pub compute_commands: u64,
    /// Result-readout commands issued.
    pub readres_commands: u64,
    /// Activation commands issued (G_ACT or ACT).
    pub activate_commands: u64,
    /// Row-sets executed.
    pub row_sets: u64,
    /// Refreshes interposed during AiM operation.
    pub refreshes: u64,
    /// ECC-corrected 64-bit words during this run (scrubs and COMP
    /// operand fetches; zero when ECC is off).
    pub ecc_corrected: u64,
    /// Uncorrectable ECC detections during this run. Nonzero only when an
    /// error variant also surfaced — the run never silently continues.
    pub ecc_uncorrectable: u64,
    /// Always 0, deleted by the `benchmark` PR (ROADMAP 1).
    pub schedule_hits: u64,
    /// Always 0, deleted by the `benchmark` PR (ROADMAP 1).
    pub schedule_misses: u64,
    /// Always 0, deleted by the `benchmark` PR (ROADMAP 1).
    pub schedule_invalidations: u64,
    /// Always 0, deleted by the `benchmark` PR (ROADMAP 1).
    pub replayed_commands: u64,
}

impl AimStats {
    /// Accumulates another run's counters into this one (the system layer
    /// merges per-channel stats in channel-index order).
    pub(crate) fn merge(&mut self, other: &AimStats) {
        self.gwrite_commands += other.gwrite_commands;
        self.compute_commands += other.compute_commands;
        self.readres_commands += other.readres_commands;
        self.activate_commands += other.activate_commands;
        self.row_sets += other.row_sets;
        self.refreshes += other.refreshes;
        self.ecc_corrected += other.ecc_corrected;
        self.ecc_uncorrectable += other.ecc_uncorrectable;
    }
}

/// The outcome of one channel-local matrix–vector run.
#[derive(Debug, Clone)]
pub struct MvRun {
    /// Host-reduced outputs, one per channel-local matrix row (partial
    /// chunk results accumulated in `f32` by the host, as the paper's
    /// host-side reduction does).
    pub outputs: Vec<f32>,
    /// Cycle at which the last result reached the host.
    pub end_cycle: Cycle,
    /// Cycle at which the run started.
    pub start_cycle: Cycle,
    /// AiM command counters for this run.
    pub stats: AimStats,
}

/// A host (non-AiM) memory request queued against a Newton channel.
///
/// Sec. III-D: AiM and non-AiM data may share a bank but never a DRAM
/// row; non-AiM commands are "guaranteed to access a different row than
/// the AiM commands", so a precharge separates them, "in which time the
/// AiM operations are guaranteed to complete". The controller services
/// queued host requests at row-set boundaries, where every bank is
/// precharged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostRequest {
    /// Bank to access.
    pub bank: usize,
    /// DRAM row (must not be an AiM matrix row; the controller checks
    /// nothing here — the *allocator* keeps regions disjoint, as in the
    /// paper).
    pub row: usize,
    /// Column I/O index.
    pub col: usize,
    /// `Some(data)` writes the column; `None` reads it.
    pub write: Option<Vec<u8>>,
}

/// A completed host request: the issue cycle and, for reads, the data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostResponse {
    /// The request that completed.
    pub request: HostRequest,
    /// Cycle the column command issued at.
    pub cycle: Cycle,
    /// Read data (empty for writes).
    pub data: Vec<u8>,
}

/// One Newton channel: the DRAM substrate plus the AiM device state plus
/// this controller's scheduling cursor.
#[derive(Debug)]
pub struct NewtonChannel {
    channel: Channel,
    device: NewtonDevice,
    config: NewtonConfig,
    now: Cycle,
    trace: CommandTrace,
    host_queue: Vec<HostRequest>,
    host_responses: Vec<HostResponse>,
    weight_cache: DecodedWeightCache,
    /// The issue cycle of the last COMP of the row-set
    /// [`NewtonChannel::open_row_set`] left open, if one is open.
    open_comp: Option<Cycle>,
    /// When the adder tree has drained the latest COMP: the earliest a
    /// READRES may read its latch.
    tree_done: Cycle,
    /// The cycle every READRES data burst and row-set precharge issued so
    /// far has completed by.
    done: Cycle,
    /// What the row-set operations issued since the current run began.
    tally: AimStats,
    /// Reusable scratch for the per-row-set command loops (ganged
    /// activate clusters, the ganged COMP stream, the latch values one
    /// READRES returns), so the steady state issues no per-row-set
    /// allocations.
    scratch_pairs: Vec<(usize, usize)>,
    scratch_banks: Vec<usize>,
    scratch_values: Vec<Bf16>,
    /// Host-side self-profiling of the COMP phase: calls to and wall-clock
    /// nanoseconds spent inside `compute_row_set` (the MAC hot path).
    /// Drained by the system layer via
    /// [`NewtonChannel::take_comp_profile`]; purely observational, never
    /// part of simulated results.
    comp_calls: u64,
    comp_nanos: u64,
}

impl NewtonChannel {
    /// Creates a channel with the given activation function in its LUT.
    ///
    /// # Errors
    ///
    /// [`AimError::InvalidConfig`] if the configuration fails validation.
    pub fn new(
        config: &NewtonConfig,
        activation: ActivationKind,
    ) -> Result<NewtonChannel, AimError> {
        config.validate()?;
        let dram = config.effective_dram();
        let mut channel = Channel::new(dram)?;
        if config.ecc {
            channel.storage_mut().enable_ecc()?;
        }
        if config.audit {
            channel.enable_audit();
        }
        if let Some(t) = config.telemetry {
            channel.enable_telemetry(t.window_cycles);
        }
        let device = NewtonDevice::new(
            config.dram.banks,
            config.row_elems(),
            config.subchunk_elems(),
            config.result_latches_per_bank,
            config.tree_precision,
            activation,
        )?;
        let weight_cache = DecodedWeightCache::new(config.dram.banks, config.row_elems());
        Ok(NewtonChannel {
            channel,
            device,
            config: config.clone(),
            now: 0,
            trace: CommandTrace::new(),
            host_queue: Vec::new(),
            host_responses: Vec::new(),
            weight_cache,
            open_comp: None,
            tree_done: 0,
            done: 0,
            tally: AimStats::default(),
            scratch_pairs: Vec::new(),
            scratch_banks: Vec::new(),
            scratch_values: Vec::new(),
            comp_calls: 0,
            comp_nanos: 0,
        })
    }

    /// Drains the accumulated COMP-phase host-time counters:
    /// `(calls, wall_nanos)` spent inside the MAC hot path since the last
    /// call. Wall time is host-side observability only — it never feeds
    /// back into simulated state.
    pub(crate) fn take_comp_profile(&mut self) -> (u64, u64) {
        let out = (self.comp_calls, self.comp_nanos);
        self.comp_calls = 0;
        self.comp_nanos = 0;
        out
    }

    /// Changes [`NewtonConfig::engine`] for subsequent runs: production
    /// (trains, skipped scrubs of verified rows, the SIMD kernel) or the
    /// oracle (single commands after their `earliest_*` queries, a scrub
    /// on every activation, the scalar kernels). Both produce
    /// byte-identical command streams and results; the choice only
    /// affects host-side work per command.
    pub(crate) fn set_timing_engine(&mut self, engine: TimingEngine) {
        self.config.engine = engine;
    }

    /// The decoded-weight cache (hit/decode counters for perf reporting).
    #[must_use]
    pub fn weight_cache(&self) -> &DecodedWeightCache {
        &self.weight_cache
    }

    /// Queues a host (non-AiM) request. It is serviced at the next
    /// row-set boundary ([`NewtonChannel::open_row_set`] or a COPY, with
    /// all banks precharged — Sec. III-D's interleaving rule), or
    /// immediately by [`NewtonChannel::service_host_requests`] when the
    /// channel is idle.
    pub fn enqueue_host_request(&mut self, request: HostRequest) {
        self.host_queue.push(request);
    }

    /// Completed host requests since the last call (drains the response
    /// buffer).
    pub fn take_host_responses(&mut self) -> Vec<HostResponse> {
        std::mem::take(&mut self.host_responses)
    }

    /// Services every queued host request right now (channel idle between
    /// AiM operations). Each request activates its row, performs the
    /// column access over the external bus, and precharges so the bank is
    /// AiM-ready again.
    ///
    /// # Errors
    ///
    /// Substrate errors (bad addresses, capacity).
    pub fn service_host_requests(&mut self) -> Result<(), AimError> {
        let queue = std::mem::take(&mut self.host_queue);
        for request in queue {
            let t = *self.channel.timing();
            // Respect the refresh deadline exactly like AiM row-sets do.
            let estimate = t.t_rcd + t.t_ccd + t.t_rtp + t.t_rp + 4 * t.t_cmd;
            if self.channel.refresh_due() <= self.now + estimate {
                self.interpose_refresh()?;
            }
            let a = self.channel.earliest_activate(request.bank).max(self.now);
            self.channel.issue_activate(a, request.bank, request.row)?;
            let c = self.channel.earliest_column_read(a, request.bank);
            let (cycle, data) = match &request.write {
                Some(data) => {
                    let c = self.channel.issue_column_write_external(
                        c,
                        request.bank,
                        request.col,
                        data,
                    )?;
                    (c, Vec::new())
                }
                None => self
                    .channel
                    .issue_column_read_external(c, request.bank, request.col)?,
            };
            let p = self.channel.earliest_precharge(request.bank).max(cycle);
            self.channel.issue_precharge(p, request.bank)?;
            self.now = self.now.max(cycle);
            self.host_responses.push(HostResponse {
                request,
                cycle,
                data,
            });
        }
        Ok(())
    }

    /// The underlying DRAM channel (stats, storage, audit).
    #[must_use]
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// Mutable access to the DRAM channel (e.g. to enable auditing or
    /// disable refresh in tests).
    pub fn channel_mut(&mut self) -> &mut Channel {
        &mut self.channel
    }

    /// Mutable access to the AiM device state (the trace frontend's
    /// `WR_GB` / `WR_BIAS` data paths write the global buffer and MAC
    /// latches directly from host GPRs).
    pub fn device_mut(&mut self) -> &mut NewtonDevice {
        &mut self.device
    }

    /// The scheduling cursor (current simulated cycle).
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Advances the cursor (models exposed host latency between layers,
    /// e.g. first-tile batch normalization).
    pub(crate) fn advance_to(&mut self, cycle: Cycle) {
        self.now = self.now.max(cycle);
    }

    /// Enables command tracing (Fig. 7-style timelines).
    pub fn enable_trace(&mut self) {
        self.trace = CommandTrace::enabled();
    }

    /// The recorded command trace.
    #[must_use]
    pub fn trace(&self) -> &CommandTrace {
        &self.trace
    }

    /// Loads a matrix into DRAM per `mapping` (functional path; the matrix
    /// is resident across inputs and its load time is not part of any
    /// experiment).
    ///
    /// # Errors
    ///
    /// Shape/capacity/storage errors from [`MatrixMapping::load`].
    pub fn load_matrix(
        &mut self,
        mapping: &MatrixMapping,
        matrix: &[Bf16],
    ) -> Result<(), AimError> {
        mapping.load(&mut self.channel, matrix)
    }

    /// Loads this channel's rows of a *shared* row-major matrix (local
    /// row `li` is global row `offset + li * stride`) without staging a
    /// per-channel copy — the multi-channel scatter path of
    /// [`MatrixMapping::load_strided`].
    ///
    /// # Errors
    ///
    /// Shape/capacity/storage errors from [`MatrixMapping::load_strided`].
    pub(crate) fn load_matrix_strided(
        &mut self,
        mapping: &MatrixMapping,
        matrix: &[Bf16],
        offset: usize,
        stride: usize,
    ) -> Result<(), AimError> {
        mapping.load_strided(&mut self.channel, matrix, offset, stride)
    }

    /// Runs one matrix–vector product under `schedule`.
    ///
    /// `lut_readout` applies the channel's activation LUT to results as
    /// they are read (legal only when each readout is a *final* value —
    /// the no-reuse and four-latch schedules; the system layer decides).
    ///
    /// # Errors
    ///
    /// [`AimError::Shape`] if `vector.len() != mapping.n()`; any
    /// substrate error otherwise (indicating a controller bug — surfaced,
    /// never swallowed).
    pub fn run_mv(
        &mut self,
        mapping: &MatrixMapping,
        schedule: &Schedule,
        vector: &[Bf16],
        lut_readout: bool,
    ) -> Result<MvRun, AimError> {
        // A caller holding its own mapping and schedule can run them
        // again: decoded rows are retained.
        self.drain(mapping, schedule, vector, lut_readout, Residency::Resident)
    }

    /// The one row-set loop behind [`NewtonChannel::run_mv`] and
    /// [`NewtonChannel::run_planned`]: each row-set of `schedule` opened,
    /// its latches read, and the last one closed by
    /// [`NewtonChannel::finish`]. `residency` only decides whether decoded
    /// weight rows outlive their row-set.
    fn drain(
        &mut self,
        mapping: &MatrixMapping,
        schedule: &Schedule,
        vector: &[Bf16],
        lut_readout: bool,
        residency: Residency,
    ) -> Result<MvRun, AimError> {
        if vector.len() != mapping.n() {
            return Err(AimError::Shape {
                what: "input vector",
                detail: format!("expected {} elements, got {}", mapping.n(), vector.len()),
            });
        }
        let start_cycle = self.now;
        // A run ends when what it issues has completed.
        self.done = self.now;
        self.tally = AimStats::default();
        let refreshes_before = self.channel.stats().refreshes;
        let ecc_corrected_before = self.channel.stats().ecc_corrected;
        let ecc_uncorrectable_before = self.channel.stats().ecc_uncorrectable;
        let mut outputs = vec![0.0f32; mapping.m()];

        self.device.reset_latches();

        let sub = self.config.subchunk_elems();
        for rs in schedule.row_sets() {
            let base = rs.chunk * mapping.row_elems();
            let input = &vector[base..base + mapping.chunk_elems(rs.chunk)];
            self.open_row_set(rs, input, input.len().div_ceil(sub), residency)?;
            for reads in rs.read_after.chunk_by(|a, b| a.latch == b.latch) {
                let banks = reads.iter().map(|r| r.bank);
                let values = self.read_latch(banks, reads[0].latch, lut_readout)?;
                for (r, v) in reads.iter().zip(values) {
                    outputs[r.matrix_row] += v.to_f32();
                }
            }
        }
        let end = self.finish()?;

        let mut stats = std::mem::take(&mut self.tally);
        stats.refreshes = self.channel.stats().refreshes - refreshes_before;
        stats.ecc_corrected = self.channel.stats().ecc_corrected - ecc_corrected_before;
        stats.ecc_uncorrectable = self.channel.stats().ecc_uncorrectable - ecc_uncorrectable_before;
        Ok(MvRun {
            outputs,
            end_cycle: end,
            start_cycle,
            stats,
        })
    }

    /// Opens row-set `rs`, the one way AiM compute reaches the channel:
    /// closes any open row-set, services queued host requests while every
    /// bank is precharged (Sec. III-D), interposes the pending refresh if
    /// it would mature inside the row-set, GWRITEs `input` into the global
    /// buffer when `rs.load_chunk`, clears latch `rs.latch` of the working
    /// banks when `rs.reset_latch`, activates `rs.dram_row` in every bank
    /// of `rs.work`, and streams `n_sub` COMPs into `rs.latch`.
    /// `rs.read_after` only sizes the refresh look-ahead; its latches are
    /// read by [`NewtonChannel::read_latch`]. The row-set stays open until
    /// [`NewtonChannel::close_row_set`] or the next row-set boundary.
    ///
    /// # Errors
    ///
    /// [`AimError::Shape`] if `input` does not fit the global buffer;
    /// substrate errors (addresses, ECC, timing) otherwise.
    pub fn open_row_set(
        &mut self,
        rs: &RowSet,
        input: &[Bf16],
        n_sub: usize,
        residency: Residency,
    ) -> Result<(), AimError> {
        self.boundary(self.row_set_estimate(rs, n_sub))?;

        // The GWRITE phase (column bus) and the activation chain (row
        // bus) use disjoint buses and disjoint resources, so they
        // overlap; COMP waits for both via the bank/bus gates.
        let row_cursor = self.now;
        if rs.load_chunk {
            self.tally.gwrite_commands += self.gwrite_phase(input)?;
        }
        if rs.reset_latch {
            for w in &rs.work {
                self.device.reset_latch(w.bank, rs.latch);
            }
        }

        let corrected = self.channel.stats().ecc_corrected;
        self.tally.activate_commands += self.activate_row_set(rs, row_cursor)?;
        // Every open row was scrubbed clean or verified, and nothing
        // writes storage inside a row-set.
        let rows_clean = self.channel.stats().ecc_corrected == corrected;
        let comp_started = std::time::Instant::now();
        let (comp_cmds, last_comp) = self.compute_row_set(rs, n_sub, residency, rows_clean)?;
        self.comp_calls += 1;
        self.comp_nanos += comp_started.elapsed().as_nanos() as u64;
        self.tally.compute_commands += comp_cmds;
        self.open_comp = Some(last_comp);
        self.tree_done = last_comp + self.config.adder_tree_latency;
        Ok(())
    }

    /// Reads result latch `latch` of `banks`, in that order, once the
    /// adder tree has drained the latest COMP: one ganged READRES carries
    /// every bank's latch, or, with ganged compute off, each bank takes a
    /// READRES of its own. `through_lut` applies the channel's activation
    /// LUT. Returns the values in `banks` order.
    ///
    /// # Errors
    ///
    /// Command- or data-bus violations (a controller bug — surfaced).
    pub fn read_latch(
        &mut self,
        banks: impl IntoIterator<Item = usize>,
        latch: usize,
        through_lut: bool,
    ) -> Result<&[Bf16], AimError> {
        // One READRES moves every bank's 16-bit latch when ganged.
        let ganged = self.config.opts.ganged_comp;
        self.scratch_values.clear();
        if ganged {
            self.result_read(self.config.dram.banks * 2, AimCommand::ReadRes)?;
        }
        for bank in banks {
            if !ganged {
                self.result_read(2, AimCommand::ReadResBank { bank })?;
            }
            let value = self.device.read_result(bank, latch, through_lut);
            self.scratch_values.push(value);
        }
        Ok(&self.scratch_values)
    }

    /// One READRES of `bytes` at the earliest slot after the adder tree.
    fn result_read(&mut self, bytes: usize, cmd: AimCommand) -> Result<(), AimError> {
        let t = *self.channel.timing();
        let at = self
            .channel
            .earliest_result_read(self.now.max(self.tree_done));
        self.channel.issue_result_read(at, bytes)?;
        self.trace.record(at, cmd);
        self.now = at;
        self.done = self.done.max(at + t.t_aa + t.t_ccd);
        self.tally.readres_commands += 1;
        Ok(())
    }

    /// Closes the open row-set, if one is open: precharge-all once the
    /// last COMP allows it (tRTP), with the cursor moved to last COMP +
    /// tCCD so the next row-set's GWRITE and activation chain overlap the
    /// precharge.
    ///
    /// # Errors
    ///
    /// Substrate errors from the precharge (a controller bug — surfaced).
    pub fn close_row_set(&mut self) -> Result<(), AimError> {
        let Some(last_comp) = self.open_comp.take() else {
            return Ok(());
        };
        let t = *self.channel.timing();
        let p = self
            .channel
            .earliest_precharge_all()
            .max(last_comp + t.t_rtp);
        self.channel.issue_precharge_all(p)?;
        self.trace.record(p, AimCommand::PreAll);
        self.now = last_comp + t.t_ccd;
        self.done = self.done.max(p + t.t_rp);
        self.tally.row_sets += 1;
        Ok(())
    }

    /// Closes any open row-set and moves the cursor to the cycle every
    /// READRES burst and precharge issued so far has completed by, then,
    /// under [`NewtonConfig::audit`], checks what the audit logged since
    /// its last check. Returns the cursor.
    ///
    /// # Errors
    ///
    /// [`AimError::AuditFailed`] on a violation; substrate errors from
    /// the precharge.
    pub fn finish(&mut self) -> Result<Cycle, AimError> {
        self.close_row_set()?;
        self.now = self.now.max(self.done);
        if self.config.audit {
            // Every event is checked once: only what was logged since the
            // last check is fed to the audit's carried checker (which
            // falls back to the full pass by itself should a boundary
            // ever fail to be a clean cut in cycle order).
            let added = self.channel.audit_new_events().unwrap_or_default();
            self.audit_verdict(added)?;
        }
        Ok(self.now)
    }

    /// `COPY_BKGB`: copies columns `0..n_sub` of `(bank, row)` into
    /// global-buffer sub-chunks `offset..offset + n_sub` through internal
    /// column reads, at a row-set boundary: activate, read, precharge.
    ///
    /// # Errors
    ///
    /// [`AimError::Shape`] when the sub-chunks run past the global
    /// buffer; substrate errors for bad addresses.
    pub fn copy_row_to_buffer(
        &mut self,
        bank: usize,
        row: usize,
        offset: usize,
        n_sub: usize,
    ) -> Result<(), AimError> {
        let t = *self.channel.timing();
        self.copy_boundary(offset, n_sub)?;
        let mut cur = self.channel.earliest_activate(bank).max(self.now);
        self.channel.issue_activate(cur, bank, row)?;
        let mut bytes = Vec::with_capacity(n_sub * self.config.dram.col_bytes());
        for sub in 0..n_sub {
            cur = self.channel.earliest_ganged_column_read(cur, &[bank]);
            self.channel
                .issue_ganged_column_read_internal(cur, &[(bank, sub)], |_, data| {
                    bytes.extend_from_slice(data);
                })?;
        }
        self.precharge_bank(bank, cur + t.t_rtp)?;
        let gb = self.device.global_buffer_mut();
        for (sub, column) in bytes.chunks(self.config.dram.col_bytes()).enumerate() {
            let elems: Vec<Bf16> = column
                .chunks_exact(2)
                .map(|b| Bf16::from_le_bytes([b[0], b[1]]))
                .collect();
            gb.write_subchunk(offset + sub, &elems)?;
        }
        Ok(())
    }

    /// `COPY_GBBK`: copies global-buffer sub-chunks `offset..offset +
    /// n_sub` into columns `0..n_sub` of `(bank, row)` through external
    /// column writes, at a row-set boundary: activate, write, precharge.
    ///
    /// # Errors
    ///
    /// As [`NewtonChannel::copy_row_to_buffer`].
    pub fn copy_buffer_to_row(
        &mut self,
        bank: usize,
        row: usize,
        offset: usize,
        n_sub: usize,
    ) -> Result<(), AimError> {
        let t = *self.channel.timing();
        self.copy_boundary(offset, n_sub)?;
        let payloads: Vec<Vec<u8>> = (offset..offset + n_sub)
            .map(|s| newton_bf16::slice::pack(self.device.global_buffer().subchunk(s)))
            .collect();
        let mut cur = self.channel.earliest_activate(bank).max(self.now);
        self.channel.issue_activate(cur, bank, row)?;
        for (col, data) in payloads.iter().enumerate() {
            cur = self.channel.earliest_column_read(cur, bank);
            self.channel
                .issue_column_write_external(cur, bank, col, data)?;
        }
        self.precharge_bank(bank, cur + t.t_wr)
    }

    /// Closes the one bank a COPY opened, no earlier than `after`; the
    /// cursor waits out tRP.
    fn precharge_bank(&mut self, bank: usize, after: Cycle) -> Result<(), AimError> {
        let p = self.channel.earliest_precharge(bank).max(after);
        self.channel.issue_precharge(p, bank)?;
        self.now = p + self.channel.timing().t_rp;
        self.done = self.done.max(self.now);
        Ok(())
    }

    /// A row-set boundary: closes any open row-set, services queued host
    /// (non-AiM) requests while every bank is precharged (Sec. III-D),
    /// and, if the pending refresh matures within the `estimate` cycles
    /// the next AiM operation occupies, waits for it and refreshes first.
    fn boundary(&mut self, estimate: Cycle) -> Result<(), AimError> {
        self.close_row_set()?;
        if !self.host_queue.is_empty() {
            self.service_host_requests()?;
        }
        if self.channel.refresh_due() <= self.now + estimate {
            self.interpose_refresh()?;
        }
        Ok(())
    }

    /// Runs one matrix–vector product through a [`ChannelPlan`]: its
    /// mapping and schedule, and its [`Residency`] — a single-use plan
    /// drains the same commands but streams its weight rows through the
    /// decode scratch instead of keeping them. Results are read raw: the
    /// host applies each layer's activation.
    ///
    /// # Errors
    ///
    /// As [`NewtonChannel::run_mv`].
    pub fn run_planned(&mut self, plan: &ChannelPlan, vector: &[Bf16]) -> Result<MvRun, AimError> {
        self.drain(plan.map(), plan.schedule(), vector, false, plan.residency())
    }

    /// Loads input chunk `input` into the global buffer, one GWRITE per
    /// sub-chunk. Returns the number of commands issued.
    fn gwrite_phase(&mut self, input: &[Bf16]) -> Result<u64, AimError> {
        let sub = self.config.subchunk_elems();
        let n_gwrites = input.len().div_ceil(sub);
        let col_bytes = self.config.dram.col_bytes();
        if self.config.engine == TimingEngine::EventSkipping {
            // Nothing else touches the column or data bus inside a GWRITE
            // phase, so after the first scanned slot every GWRITE lands
            // exactly one `col_step` (max(tCCD, tCMD)) later: one train.
            let col_step = self.channel.timing().col_step();
            let t0 = self.channel.earliest_broadcast_write(self.now);
            let last = self
                .channel
                .issue_broadcast_write_train(t0, col_step, n_gwrites, col_bytes)?;
            self.trace
                .record_train(t0, col_step, n_gwrites, AimCommand::Gwrite { index: 0 });
            self.now = self.now.max(last);
        } else {
            for g in 0..n_gwrites {
                let t = self.channel.earliest_broadcast_write(self.now);
                self.channel.issue_broadcast_write(t, col_bytes)?;
                self.trace.record(t, AimCommand::Gwrite { index: g });
                self.now = self.now.max(t);
            }
        }
        for (g, piece) in input.chunks(sub).enumerate() {
            self.device.global_buffer_mut().write_subchunk(g, piece)?;
        }
        // Zero any stale tail sub-chunks from a previous (longer) chunk.
        for g in n_gwrites..self.device.global_buffer().subchunks() {
            self.device.global_buffer_mut().write_subchunk(g, &[])?;
        }
        Ok(n_gwrites as u64)
    }

    /// Opens `rs.dram_row` in every active bank, ganged or staggered,
    /// starting no earlier than `cursor` (which may precede `self.now`
    /// when a concurrent GWRITE phase runs on the column bus). On the
    /// event-skipping engine a G_ACT whose rows are all verified skips
    /// the row-buffer-fill scrub, which would find nothing. Returns the
    /// number of activation commands issued.
    fn activate_row_set(&mut self, rs: &RowSet, cursor: Cycle) -> Result<u64, AimError> {
        let mut cmds = 0;
        if self.config.opts.ganged_act {
            let skip_verified = self.config.engine == TimingEngine::EventSkipping;
            // Banks 4c..4c + 4 share one G_ACT; `rs.work` is in ascending
            // bank order because every bank map is.
            for cluster in rs.work.chunk_by(|a, b| a.bank / 4 == b.bank / 4) {
                self.scratch_pairs.clear();
                self.scratch_pairs
                    .extend(cluster.iter().map(|w| (w.bank, rs.dram_row)));
                self.scratch_banks.clear();
                self.scratch_banks.extend(cluster.iter().map(|w| w.bank));
                let t = self
                    .channel
                    .earliest_ganged_activate(&self.scratch_banks)
                    .max(cursor);
                let storage = self.channel.storage();
                if skip_verified
                    && self
                        .scratch_pairs
                        .iter()
                        .all(|&(bank, row)| storage.row_verified(bank, row))
                {
                    self.channel
                        .issue_ganged_activate_prescrubbed(t, &self.scratch_pairs)?;
                } else {
                    self.channel.issue_ganged_activate(t, &self.scratch_pairs)?;
                }
                self.trace.record(
                    t,
                    AimCommand::GAct {
                        cluster: cluster[0].bank / 4,
                        row: rs.dram_row,
                    },
                );
                cmds += 1;
            }
        } else {
            for w in &rs.work {
                let t = self.channel.earliest_activate(w.bank).max(cursor);
                self.channel.issue_activate(t, w.bank, rs.dram_row)?;
                self.trace.record(
                    t,
                    AimCommand::Act {
                        bank: w.bank,
                        row: rs.dram_row,
                    },
                );
                cmds += 1;
            }
        }
        Ok(cmds)
    }

    /// Streams the `n_sub` COMP commands of a row-set. `rows_clean` says
    /// the row-set's activation corrected nothing, which proves the open
    /// rows hold no error. Returns (commands issued, issue cycle of the
    /// last column access).
    fn compute_row_set(
        &mut self,
        rs: &RowSet,
        n_sub: usize,
        residency: Residency,
        rows_clean: bool,
    ) -> Result<(u64, Cycle), AimError> {
        let sub_elems = self.config.subchunk_elems();
        self.scratch_banks.clear();
        self.scratch_banks.extend(rs.work.iter().map(|w| w.bank));
        let engine = self.config.engine;
        if engine == TimingEngine::EventSkipping {
            // Pin every active (bank, row) as a decoded plane before the
            // COMP stream. Nothing writes storage inside a row-set, so the
            // pinned decodes stay current until the next boundary.
            for i in 0..self.scratch_banks.len() {
                let bank = self.scratch_banks[i];
                self.weight_cache.ensure_row(
                    self.channel.storage(),
                    bank,
                    rs.dram_row,
                    residency,
                )?;
            }
        }
        let row = rs.dram_row;
        let latch = rs.latch;
        let mut cmds = 0u64;
        let mut last_col = self.now;

        // Batched SIMD fast path: under ganged complex COMP with the
        // paper's 16-wide sub-chunks, the command stream of a row-set is
        // n_sub ganged column reads whose *functional* work factors into
        // one independent fold per bank. Inside that stream no other
        // command touches the column bus or these banks, so after the
        // first scanned slot every successive COMP lands exactly one
        // `col_step` later: issue it as one train (same cycles, stats,
        // audit records, ECC checks and telemetry as the per-command
        // loop), then fold each bank's whole row against the global
        // buffer's plane in one batched kernel pass. Bit-exact because
        // nothing inside a row-set observes device latch state, per-bank
        // sub-chunk order is preserved, and the batched kernel equals the
        // per-sub steps (`newton_bf16::simd::comp_row_set`).
        if engine == TimingEngine::EventSkipping
            && self.config.opts.ganged_comp
            && self.config.opts.complex_comp
            && sub_elems == newton_bf16::reduce::TREE_ARITY
        {
            let col_step = self.channel.timing().col_step();
            let t0 = self
                .channel
                .earliest_ganged_column_read(self.now, &self.scratch_banks);
            let last = self.channel.issue_comp_train(
                t0,
                col_step,
                n_sub,
                &self.scratch_banks,
                rows_clean,
            )?;
            self.trace
                .record_train(t0, col_step, n_sub, AimCommand::Comp { subchunk: 0 });
            self.now = last;
            last_col = last;
            cmds += n_sub as u64;
            // Whole-gang fold: the device takes all banks' planes at once
            // so their (independent) serial latch chains interleave
            // instead of running back to back.
            let cache = &self.weight_cache;
            self.device
                .comp_banks_row_simd(&self.scratch_banks, latch, n_sub, |bank| {
                    cache.lanes(bank, row)
                });
            return Ok((cmds, last_col));
        }

        for sub in 0..n_sub {
            if self.config.opts.ganged_comp {
                if !self.config.opts.complex_comp {
                    // Simple expansion step 1: broadcast the input
                    // sub-chunk from the global buffer.
                    let t = self.channel.earliest_control_command(self.now);
                    self.channel.issue_control_command(t)?;
                    self.trace
                        .record(t, AimCommand::BroadcastInput { subchunk: sub });
                    self.now = t;
                    cmds += 1;
                }
                // Column read (+ multiply-add when complex).
                self.scratch_pairs.clear();
                self.scratch_pairs
                    .extend(self.scratch_banks.iter().map(|&b| (b, sub)));
                let t = self
                    .channel
                    .earliest_ganged_column_read(self.now, &self.scratch_banks);
                let device = &mut self.device;
                let cache = &self.weight_cache;
                self.channel.issue_ganged_column_read_internal(
                    t,
                    &self.scratch_pairs,
                    |bank, data| {
                        functional_comp(
                            device, cache, engine, sub_elems, row, latch, sub, bank, data,
                        );
                    },
                )?;
                self.trace.record(
                    t,
                    if self.config.opts.complex_comp {
                        AimCommand::Comp { subchunk: sub }
                    } else {
                        AimCommand::ColumnRead {
                            subchunk: sub,
                            bank: None,
                        }
                    },
                );
                self.now = t;
                last_col = t;
                cmds += 1;
                if !self.config.opts.complex_comp {
                    // Simple expansion step 3: the multiply-add trigger.
                    let t = self.channel.earliest_control_command(self.now);
                    self.channel.issue_control_command(t)?;
                    self.trace.record(
                        t,
                        AimCommand::MultiplyAdd {
                            subchunk: sub,
                            bank: None,
                        },
                    );
                    self.now = t;
                    cmds += 1;
                }
            } else {
                // No ganging: every bank needs its own command set.
                for w in &rs.work {
                    if !self.config.opts.complex_comp {
                        let t = self.channel.earliest_control_command(self.now);
                        self.channel.issue_control_command(t)?;
                        self.trace
                            .record(t, AimCommand::BroadcastInput { subchunk: sub });
                        self.now = t;
                        cmds += 1;
                    }
                    let pair = [(w.bank, sub)];
                    let t = self
                        .channel
                        .earliest_ganged_column_read(self.now, &[w.bank]);
                    let device = &mut self.device;
                    let cache = &self.weight_cache;
                    self.channel
                        .issue_ganged_column_read_internal(t, &pair, |bank, data| {
                            functional_comp(
                                device, cache, engine, sub_elems, row, latch, sub, bank, data,
                            );
                        })?;
                    self.trace.record(
                        t,
                        AimCommand::CompBank {
                            bank: w.bank,
                            subchunk: sub,
                        },
                    );
                    self.now = t;
                    last_col = last_col.max(t);
                    cmds += 1;
                    if !self.config.opts.complex_comp {
                        let t = self.channel.earliest_control_command(self.now);
                        self.channel.issue_control_command(t)?;
                        self.trace.record(
                            t,
                            AimCommand::MultiplyAdd {
                                subchunk: sub,
                                bank: Some(w.bank),
                            },
                        );
                        self.now = t;
                        cmds += 1;
                    }
                }
            }
        }
        Ok((cmds, last_col))
    }

    /// Waits for the pending refresh to mature, issues it, and advances
    /// past tRFC (paper Sec. III-E policy).
    fn interpose_refresh(&mut self) -> Result<(), AimError> {
        let t = *self.channel.timing();
        // Banks are idle at a row-set boundary, unless an error abandoned
        // the last row-set.
        self.precharge_open_banks()?;
        // Wait until the refresh matures (periodic refresh, no pull-in),
        // bounded below by the row-bus slot and our cursor.
        let due = self.channel.refresh_due();
        let at = self
            .channel
            .earliest_precharge_all() // just the row-bus slot when idle
            .max(self.now)
            .max(due);
        self.channel.issue_refresh_all(at)?;
        self.trace.record(at, AimCommand::Refresh);
        self.now = at + t.t_rfc;
        Ok(())
    }

    /// Re-validates the whole recorded command stream against the raw
    /// timing constraints, from a fresh checker (runs under
    /// `NewtonConfig::audit` check only what each run adds; both go
    /// through the audit's one checker). tREFI violations are ignored
    /// when periodic refresh is disabled on the channel — an experiment
    /// that disables refresh makes the deadline unmeetable by
    /// construction, not through a controller bug. The reported channel
    /// index is `0`; the system layer rewrites it to the real index when
    /// propagating.
    ///
    /// # Errors
    ///
    /// [`AimError::AuditFailed`] when violations remain. No-op when the
    /// channel has no audit attached.
    pub fn validate_audit(&self) -> Result<(), AimError> {
        let Some(audit) = self.channel.audit() else {
            return Ok(());
        };
        self.audit_verdict(audit.validate(self.channel.timing()))
    }

    /// Turns what the audit found into this controller's verdict.
    fn audit_verdict(&self, found: Vec<AuditViolation>) -> Result<(), AimError> {
        let refresh_enabled = self.channel.refresh_enabled();
        let violations: Vec<_> = found
            .into_iter()
            .filter(|v| refresh_enabled || v.constraint != "tREFI")
            .collect();
        if let Some(first) = violations.first() {
            return Err(AimError::AuditFailed {
                channel: 0,
                violations: violations.len(),
                first: format!("{}: {}", first.constraint, first.detail),
            });
        }
        Ok(())
    }

    /// Returns the channel to a quiescent, all-banks-precharged state
    /// after an error abandoned a run mid-row-set, and invalidates the
    /// decoded-weight cache (a recovery rewrite changes row contents).
    /// Used by `NewtonSystem::run_resident_resilient` between retry
    /// attempts.
    ///
    /// # Errors
    ///
    /// Substrate errors from the precharge (none are expected: the cycle
    /// is chosen at the earliest legal slot).
    pub(crate) fn recover(&mut self) -> Result<(), AimError> {
        self.precharge_open_banks()?;
        self.open_comp = None;
        self.weight_cache.clear();
        Ok(())
    }

    /// Closes every open bank with one PREA; the cursor waits out tRP.
    fn precharge_open_banks(&mut self) -> Result<(), AimError> {
        if (0..self.config.dram.banks).any(|b| self.channel.open_row(b).is_some()) {
            let p = self.channel.earliest_precharge_all().max(self.now);
            self.channel.issue_precharge_all(p)?;
            self.now = p + self.channel.timing().t_rp;
        }
        Ok(())
    }

    /// Conservative upper bound on the cycles the next row-set occupies
    /// (for the refresh look-ahead). Overestimating only refreshes one
    /// row-set earlier; underestimating would trip the overdue check.
    fn row_set_estimate(&self, rs: &RowSet, n_sub: usize) -> Cycle {
        let t = self.channel.timing();
        let opts = &self.config.opts;
        let banks = rs.work.len().max(1) as Cycle;
        let n_sub = n_sub as Cycle;

        let gwrite = if rs.load_chunk {
            (self.config.row_elems() as Cycle / self.config.subchunk_elems() as Cycle) * t.t_cmd
        } else {
            0
        };
        let act = if opts.ganged_act {
            banks.div_ceil(4) * t.t_faw + t.t_rcd
        } else {
            banks.div_ceil(4) * t.t_faw + banks * t.t_cmd + t.t_rcd
        };
        let per_comp_cmds =
            if opts.complex_comp { 1 } else { 3 } * if opts.ganged_comp { 1 } else { banks };
        let comp = n_sub * per_comp_cmds * t.t_cmd.max(t.t_ccd);
        let reads = rs.read_after.len() as Cycle * t.t_cmd + self.config.adder_tree_latency;
        gwrite + act + comp + reads + t.t_rtp + t.t_rp + 4 * t.t_cmd
    }

    /// The row-set boundary before a COPY of global-buffer sub-chunks
    /// `offset..offset + n_sub`, which must exist, through one bank; the
    /// refresh look-ahead bounds it like a row-set.
    fn copy_boundary(&mut self, offset: usize, n_sub: usize) -> Result<(), AimError> {
        let subchunks = self.device.global_buffer().subchunks();
        if offset.saturating_add(n_sub) > subchunks {
            return Err(AimError::Shape {
                what: "COPY global-buffer span",
                detail: format!("{n_sub} sub-chunks from {offset} exceed {subchunks}"),
            });
        }
        let t = self.channel.timing();
        let estimate =
            t.t_rcd + n_sub as Cycle * t.col_step() + t.t_wr.max(t.t_rtp) + t.t_rp + 4 * t.t_cmd;
        self.boundary(estimate)
    }
}

/// The functional half of one COMP, with the kernel the engine implies.
/// `data` is the raw column-read payload the timing model produced: the
/// oracle decodes it through the allocating scalar kernels, production
/// ignores it (the cache holds the same bytes decoded as a plane), so the
/// column read — and with it all timing, stats, audit, and trace
/// behavior — happens identically on both engines.
#[expect(clippy::too_many_arguments, reason = "flat hot-path dispatch")]
fn functional_comp(
    device: &mut NewtonDevice,
    cache: &DecodedWeightCache,
    engine: TimingEngine,
    sub_elems: usize,
    row: usize,
    latch: usize,
    sub: usize,
    bank: usize,
    data: &[u8],
) {
    match engine {
        TimingEngine::Reference => device.comp_bank_reference(bank, latch, sub, data),
        // Per-sub-chunk step over the decoded row: the configurations the
        // batched fast path in `compute_row_set` does not cover
        // (non-ganged or simple commands, sub-chunk widths other than the
        // 16-wide MAC tree).
        TimingEngine::EventSkipping => {
            // `NewtonDevice::new` bounds the sub-chunk width by MAX_CHUNK.
            let mut weights = [Bf16::ZERO; newton_bf16::reduce::MAX_CHUNK];
            let weights = &mut weights[..sub_elems];
            cache.lanes(bank, row).read(sub * sub_elems, weights);
            device.comp_bank_decoded(bank, latch, sub, weights);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NewtonConfig, OptLevel};
    use crate::layout::MatrixMapping;
    use crate::tiling::{Schedule, ScheduleKind};
    use newton_bf16::Bf16;

    fn cfg1(level: OptLevel) -> NewtonConfig {
        let mut c = NewtonConfig::at_level(level);
        c.channels = 1;
        c
    }

    fn bf(v: f32) -> Bf16 {
        Bf16::from_f32(v)
    }

    /// Runs a small MV at a given opt level and checks the numbers.
    fn run_and_check(level: OptLevel, m: usize, n: usize) -> (MvRun, NewtonChannel) {
        let cfg = cfg1(level);
        let kind = if cfg.opts.interleaved_reuse {
            ScheduleKind::InterleavedFullReuse
        } else {
            ScheduleKind::NoReuse
        };
        let mapping = MatrixMapping::new(kind.layout(), m, n, 16, 512, 0).unwrap();
        let schedule = Schedule::build(kind, &mapping);
        let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).unwrap();
        ch.channel_mut().enable_audit();

        let matrix: Vec<Bf16> = (0..m * n)
            .map(|k| bf(((k % 13) as f32 - 6.0) / 4.0))
            .collect();
        let vector: Vec<Bf16> = (0..n).map(|k| bf(((k % 7) as f32 - 3.0) / 2.0)).collect();
        ch.load_matrix(&mapping, &matrix).unwrap();
        let run = ch.run_mv(&mapping, &schedule, &vector, false).unwrap();

        // Audit every constraint.
        let violations = ch
            .channel()
            .audit()
            .unwrap()
            .validate(ch.channel().timing());
        assert_eq!(violations, vec![], "{level:?}");

        // Numerical check against f64 reference.
        for i in 0..m {
            let expect: f64 = (0..n)
                .map(|j| matrix[i * n + j].to_f64() * vector[j].to_f64())
                .sum();
            let got = run.outputs[i] as f64;
            let bound = newton_bf16::reduce::dot_error_bound(n, 16, expect.abs().max(4.0));
            assert!(
                (got - expect).abs() <= bound,
                "{level:?} row {i}: got {got}, expect {expect}, bound {bound}"
            );
        }
        (run, ch)
    }

    #[test]
    fn full_newton_computes_correctly_small() {
        let (run, _) = run_and_check(OptLevel::Full, 16, 512);
        assert_eq!(run.stats.row_sets, 1);
        assert_eq!(run.stats.compute_commands, 32);
        assert_eq!(run.stats.gwrite_commands, 32);
        assert_eq!(run.stats.readres_commands, 1);
        assert_eq!(run.stats.activate_commands, 4);
    }

    #[test]
    fn full_newton_multi_chunk_multi_group() {
        let (run, _) = run_and_check(OptLevel::Full, 40, 1200);
        // 3 chunks x 3 groups = 9 row-sets; GWRITE once per chunk.
        assert_eq!(run.stats.row_sets, 9);
        assert_eq!(
            run.stats.gwrite_commands,
            32 + 32 + 11 /* 176-elem tail */
        );
    }

    #[test]
    fn every_opt_level_is_numerically_identical_and_legal() {
        for level in OptLevel::ladder() {
            let (_, _) = run_and_check(level, 20, 700);
        }
    }

    #[test]
    fn non_opt_uses_many_more_commands_than_full() {
        let (full, _) = run_and_check(OptLevel::Full, 16, 512);
        let (non, _) = run_and_check(OptLevel::NonOpt, 16, 512);
        // Gang (16x) and complex (3x): 32 -> 1536 compute commands.
        assert_eq!(non.stats.compute_commands, 32 * 16 * 3);
        assert_eq!(full.stats.compute_commands, 32);
        assert_eq!(non.stats.readres_commands, 16);
        assert_eq!(non.stats.activate_commands, 16);
        // And it is far slower.
        let full_t = full.end_cycle - full.start_cycle;
        let non_t = non.end_cycle - non.start_cycle;
        assert!(non_t > 10 * full_t, "non-opt {non_t} vs full {full_t}");
    }

    #[test]
    fn steady_state_row_set_period_matches_paper_model_shape() {
        // Large single-chunk matrix: many row-sets; the period should be
        // close to the paper's Sec. III-F model:
        //   max(tRRD, tFAW) * (n/4 - 1) + tACT + col * tCCD
        // plus the precharge turnaround our simulator faithfully exposes.
        let cfg = cfg1(OptLevel::Full);
        let mapping = MatrixMapping::new(
            crate::layout::Layout::ChunkInterleaved,
            16 * 20,
            512,
            16,
            512,
            0,
        )
        .unwrap();
        let schedule = Schedule::build(ScheduleKind::InterleavedFullReuse, &mapping);
        let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).unwrap();
        ch.channel_mut().disable_refresh();
        let matrix = vec![bf(1.0); 16 * 20 * 512];
        let vector = vec![bf(1.0); 512];
        ch.load_matrix(&mapping, &matrix).unwrap();
        let run = ch.run_mv(&mapping, &schedule, &vector, false).unwrap();
        let total = run.end_cycle - run.start_cycle;
        let period = total as f64 / 20.0;
        // Paper model: 3*22 + 14 + 32*4 = 208; with exposed tRTP+tRP the
        // honest period is ~228. Accept 200..250.
        assert!(
            (200.0..250.0).contains(&period),
            "steady-state period {period} outside expected window"
        );
    }

    #[test]
    fn refresh_interposes_on_long_runs_and_is_periodic() {
        let cfg = cfg1(OptLevel::Full);
        let mapping = MatrixMapping::new(
            crate::layout::Layout::ChunkInterleaved,
            16 * 40,
            512,
            16,
            512,
            0,
        )
        .unwrap();
        let schedule = Schedule::build(ScheduleKind::InterleavedFullReuse, &mapping);
        let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).unwrap();
        ch.channel_mut().enable_audit();
        let matrix = vec![bf(0.5); 16 * 40 * 512];
        let vector = vec![bf(1.0); 512];
        ch.load_matrix(&mapping, &matrix).unwrap();
        let run = ch.run_mv(&mapping, &schedule, &vector, false).unwrap();
        // 40 row-sets x ~228 cycles ≈ 9.1 µs: at least 2 refreshes.
        assert!(run.stats.refreshes >= 2, "{}", run.stats.refreshes);
        let violations = ch
            .channel()
            .audit()
            .unwrap()
            .validate(ch.channel().timing());
        assert_eq!(violations, vec![]);
    }

    #[test]
    fn lut_readout_applies_activation_in_no_reuse_mode() {
        let mut cfg = cfg1(OptLevel::Full);
        cfg.opts.interleaved_reuse = false;
        let mapping =
            MatrixMapping::new(crate::layout::Layout::NoReuse, 16, 512, 16, 512, 0).unwrap();
        let schedule = Schedule::build(ScheduleKind::NoReuse, &mapping);
        let mut ch = NewtonChannel::new(&cfg, ActivationKind::Relu).unwrap();
        // All-negative matrix => all outputs clamp to zero through the LUT.
        let matrix = vec![bf(-1.0); 16 * 512];
        let vector = vec![bf(1.0); 512];
        ch.load_matrix(&mapping, &matrix).unwrap();
        let run = ch.run_mv(&mapping, &schedule, &vector, true).unwrap();
        assert!(run.outputs.iter().all(|&v| v == 0.0));
        // Without the LUT the raw sums are -512.
        let mut ch = NewtonChannel::new(&cfg, ActivationKind::Relu).unwrap();
        ch.load_matrix(&mapping, &matrix).unwrap();
        let run = ch.run_mv(&mapping, &schedule, &vector, false).unwrap();
        assert!(run.outputs.iter().all(|&v| v == -512.0));
    }

    #[test]
    fn host_traffic_interleaves_at_row_set_boundaries() {
        // Sec. III-D: non-AiM requests to different rows of AiM banks are
        // serviced between row-sets, and the whole stream stays legal.
        let cfg = cfg1(OptLevel::Full);
        let mapping =
            MatrixMapping::new(crate::layout::Layout::ChunkInterleaved, 48, 512, 16, 512, 0)
                .unwrap();
        let schedule = Schedule::build(ScheduleKind::InterleavedFullReuse, &mapping);
        let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).unwrap();
        ch.channel_mut().enable_audit();
        let matrix = vec![bf(1.0); 48 * 512];
        let vector = vec![bf(0.5); 512];
        ch.load_matrix(&mapping, &matrix).unwrap();

        // Pre-write non-AiM data into a row far from the matrix region.
        ch.channel_mut()
            .storage_mut()
            .write_column(3, 1000, 7, &[0xEEu8; 32])
            .unwrap();
        ch.enqueue_host_request(HostRequest {
            bank: 3,
            row: 1000,
            col: 7,
            write: None,
        });
        ch.enqueue_host_request(HostRequest {
            bank: 5,
            row: 1001,
            col: 0,
            write: Some(vec![0x55u8; 32]),
        });

        let run = ch.run_mv(&mapping, &schedule, &vector, false).unwrap();
        // AiM results unaffected by the interleaved traffic.
        assert!(run.outputs.iter().all(|&v| v == 256.0));

        let responses = ch.take_host_responses();
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].data, vec![0xEEu8; 32]);
        assert!(responses[1].data.is_empty());
        assert_eq!(
            ch.channel().storage().column(5, 1001, 0).unwrap(),
            &[0x55u8; 32][..]
        );
        // Responses drained.
        assert!(ch.take_host_responses().is_empty());

        let violations = ch
            .channel()
            .audit()
            .unwrap()
            .validate(ch.channel().timing());
        assert_eq!(violations, vec![]);
    }

    #[test]
    fn host_requests_service_immediately_when_idle() {
        let cfg = cfg1(OptLevel::Full);
        let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).unwrap();
        ch.channel_mut().enable_audit();
        ch.enqueue_host_request(HostRequest {
            bank: 0,
            row: 5,
            col: 0,
            write: None,
        });
        ch.service_host_requests().unwrap();
        let responses = ch.take_host_responses();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].data, vec![0u8; 32], "unwritten row reads zero");
        assert_eq!(
            ch.channel().open_row(0),
            None,
            "bank precharged after service"
        );
        let violations = ch
            .channel()
            .audit()
            .unwrap()
            .validate(ch.channel().timing());
        assert_eq!(violations, vec![]);
    }

    #[test]
    fn host_traffic_delays_but_does_not_corrupt_long_runs() {
        let cfg = cfg1(OptLevel::Full);
        let mapping = MatrixMapping::new(
            crate::layout::Layout::ChunkInterleaved,
            16 * 8,
            512,
            16,
            512,
            0,
        )
        .unwrap();
        let schedule = Schedule::build(ScheduleKind::InterleavedFullReuse, &mapping);
        let run_with = |n_host: usize| {
            let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).unwrap();
            let matrix = vec![bf(0.25); 16 * 8 * 512];
            let vector = vec![bf(1.0); 512];
            ch.load_matrix(&mapping, &matrix).unwrap();
            for i in 0..n_host {
                ch.enqueue_host_request(HostRequest {
                    bank: i % 16,
                    row: 2000 + i,
                    col: 0,
                    write: None,
                });
            }
            let run = ch.run_mv(&mapping, &schedule, &vector, false).unwrap();
            (run.end_cycle - run.start_cycle, run.outputs)
        };
        let (t0, out0) = run_with(0);
        let (t8, out8) = run_with(8);
        assert!(t8 > t0, "host traffic must cost time: {t8} vs {t0}");
        assert_eq!(out0, out8, "host traffic must not corrupt AiM results");
    }

    #[test]
    fn vector_length_mismatch_is_rejected() {
        let cfg = cfg1(OptLevel::Full);
        let mapping =
            MatrixMapping::new(crate::layout::Layout::ChunkInterleaved, 16, 512, 16, 512, 0)
                .unwrap();
        let schedule = Schedule::build(ScheduleKind::InterleavedFullReuse, &mapping);
        let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).unwrap();
        let err = ch
            .run_mv(&mapping, &schedule, &[bf(1.0); 100], false)
            .unwrap_err();
        assert!(matches!(err, AimError::Shape { .. }));
    }

    #[test]
    fn ecc_corrects_single_bit_faults_to_golden_outputs() {
        let mut cfg = cfg1(OptLevel::Full);
        cfg.ecc = true;
        let mapping =
            MatrixMapping::new(crate::layout::Layout::ChunkInterleaved, 16, 512, 16, 512, 0)
                .unwrap();
        let schedule = Schedule::build(ScheduleKind::InterleavedFullReuse, &mapping);
        let matrix: Vec<Bf16> = (0..16 * 512)
            .map(|k| bf(((k % 13) as f32 - 6.0) / 4.0))
            .collect();
        let vector: Vec<Bf16> = (0..512).map(|k| bf(((k % 7) as f32 - 3.0) / 2.0)).collect();

        let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).unwrap();
        ch.load_matrix(&mapping, &matrix).unwrap();
        let golden = ch.run_mv(&mapping, &schedule, &vector, false).unwrap();
        assert_eq!(golden.stats.ecc_corrected, 0, "fault-free run is clean");

        let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).unwrap();
        ch.load_matrix(&mapping, &matrix).unwrap();
        // One bit flipped in each of three banks, all in distinct words.
        for (bank, bit) in [(0, 5), (7, 64 * 3 + 17), (15, 64 * 20)] {
            ch.channel_mut()
                .storage_mut()
                .flip_bit(bank, 0, bit)
                .unwrap();
        }
        let run = ch.run_mv(&mapping, &schedule, &vector, false).unwrap();
        assert_eq!(run.outputs, golden.outputs, "single-bit faults corrected");
        assert_eq!(run.stats.ecc_corrected, 3);
        assert_eq!(run.stats.ecc_uncorrectable, 0);
    }

    #[test]
    fn ecc_surfaces_double_bit_faults_instead_of_computing() {
        let mut cfg = cfg1(OptLevel::Full);
        cfg.ecc = true;
        let mapping =
            MatrixMapping::new(crate::layout::Layout::ChunkInterleaved, 16, 512, 16, 512, 0)
                .unwrap();
        let schedule = Schedule::build(ScheduleKind::InterleavedFullReuse, &mapping);
        let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).unwrap();
        ch.load_matrix(&mapping, &vec![bf(1.0); 16 * 512]).unwrap();
        ch.channel_mut().storage_mut().flip_bit(4, 0, 10).unwrap();
        ch.channel_mut().storage_mut().flip_bit(4, 0, 11).unwrap();
        let err = ch
            .run_mv(&mapping, &schedule, &vec![bf(1.0); 512], false)
            .unwrap_err();
        assert_eq!(
            err,
            AimError::Dram(newton_dram::DramError::Uncorrectable { bank: 4, row: 0 })
        );
        assert_eq!(ch.channel().stats().ecc_uncorrectable, 1);
    }

    #[test]
    fn recover_precharges_and_allows_a_clean_rerun() {
        let mut cfg = cfg1(OptLevel::Full);
        cfg.ecc = true;
        let mapping =
            MatrixMapping::new(crate::layout::Layout::ChunkInterleaved, 16, 512, 16, 512, 0)
                .unwrap();
        let schedule = Schedule::build(ScheduleKind::InterleavedFullReuse, &mapping);
        let matrix = vec![bf(0.5); 16 * 512];
        let vector = vec![bf(1.0); 512];
        let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).unwrap();
        ch.load_matrix(&mapping, &matrix).unwrap();
        ch.channel_mut().storage_mut().flip_bit(2, 0, 40).unwrap();
        ch.channel_mut().storage_mut().flip_bit(2, 0, 41).unwrap();
        ch.run_mv(&mapping, &schedule, &vector, false).unwrap_err();
        // Host-side scrub: rewrite the matrix (re-encodes the checks),
        // recover the channel, retry.
        ch.recover().unwrap();
        ch.load_matrix(&mapping, &matrix).unwrap();
        let run = ch.run_mv(&mapping, &schedule, &vector, false).unwrap();
        assert!(run.outputs.iter().all(|&v| v == 256.0));
        assert_eq!(run.stats.ecc_uncorrectable, 0);
    }

    #[test]
    fn single_use_plan_drains_the_same_but_keeps_nothing() {
        let cfg = cfg1(OptLevel::Full);
        let matrix: Vec<Bf16> = (0..32 * 512).map(|k| bf((k % 9) as f32 / 4.0)).collect();
        let vector = vec![bf(0.5); 512];
        let run = |residency| {
            let mapping =
                MatrixMapping::new(crate::layout::Layout::ChunkInterleaved, 32, 512, 16, 512, 0)
                    .unwrap();
            let plan = ChannelPlan::new(ScheduleKind::InterleavedFullReuse, mapping, residency);
            let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).unwrap();
            ch.load_matrix(plan.map(), &matrix).unwrap();
            let run = ch.run_planned(&plan, &vector).unwrap();
            let decodes = ch.weight_cache().decode_count();
            // A second touch of the same rows tells the two apart.
            ch.run_mv(plan.map(), plan.schedule(), &vector, false)
                .unwrap();
            let hits = ch.weight_cache().hit_count();
            (run, hits, decodes)
        };
        let (resident, hits, decodes) = run(Residency::Resident);
        assert!(hits == 32 && decodes == 32);
        let (single, hits, decodes) = run(Residency::SingleUse);
        assert!(hits == 0 && decodes == 32);
        assert_eq!(single.stats, resident.stats);
        assert_eq!(single.outputs, resident.outputs);
        assert_eq!(single.end_cycle, resident.end_cycle);
    }

    #[test]
    fn copies_round_trip_and_reject_spans_past_the_global_buffer() {
        let cfg = cfg1(OptLevel::Full);
        let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).unwrap();
        ch.channel_mut().enable_audit();
        let elems: Vec<Bf16> = (0..16).map(|i| bf(i as f32 - 3.5)).collect();
        let gb = ch.device_mut().global_buffer_mut();
        gb.write_subchunk(30, &elems).unwrap();
        ch.copy_buffer_to_row(2, 7, 30, 2).unwrap();
        let stored = ch.channel().storage().column(2, 7, 0).unwrap();
        assert_eq!(stored, &newton_bf16::slice::pack(&elems)[..]);
        ch.copy_row_to_buffer(2, 7, 0, 1).unwrap();
        assert_eq!(ch.device.global_buffer().subchunk(0), &elems[..]);

        let (now, audited) = (ch.now(), ch.channel().audit().unwrap().len());
        for err in [
            ch.copy_buffer_to_row(2, 7, 31, 2),
            ch.copy_row_to_buffer(2, 7, usize::MAX, 1),
        ] {
            assert!(matches!(err, Err(AimError::Shape { .. })), "{err:?}");
        }
        assert_eq!(ch.now(), now, "a rejected COPY issues nothing");
        assert_eq!(ch.channel().audit().unwrap().len(), audited);
        assert_eq!(ch.validate_audit(), Ok(()));
    }

    /// The trace of a watched BERT S1 (1024 x 1024) channel holds runs,
    /// not commands: at most five records a row-set, on both engines.
    #[test]
    fn a_traced_row_set_is_at_most_five_records() {
        for engine in [TimingEngine::EventSkipping, TimingEngine::Reference] {
            let mut cfg = cfg1(OptLevel::Full);
            cfg.engine = engine;
            cfg.telemetry = Some(crate::config::TelemetryConfig::default());
            let (m, n) = (1024, 1024);
            let mapping = MatrixMapping::new(
                ScheduleKind::InterleavedFullReuse.layout(),
                m,
                n,
                cfg.dram.banks,
                cfg.row_elems(),
                0,
            )
            .unwrap();
            let schedule = Schedule::build(ScheduleKind::InterleavedFullReuse, &mapping);
            let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).unwrap();
            ch.enable_trace();
            ch.channel_mut().enable_audit();
            ch.load_matrix(&mapping, &vec![bf(0.5); m * n]).unwrap();
            let mut row_sets = 0;
            for _ in 0..2 {
                let run = ch.run_mv(&mapping, &schedule, &vec![bf(1.0); n], false);
                row_sets += run.unwrap().stats.row_sets as usize;
            }
            let records = ch.trace().runs();
            assert!(records <= 5 * row_sets, "{engine:?}: {records} records");
        }
    }

    #[test]
    fn trace_records_the_fig7_command_sequence() {
        let cfg = cfg1(OptLevel::Full);
        let mapping =
            MatrixMapping::new(crate::layout::Layout::ChunkInterleaved, 16, 512, 16, 512, 0)
                .unwrap();
        let schedule = Schedule::build(ScheduleKind::InterleavedFullReuse, &mapping);
        let mut ch = NewtonChannel::new(&cfg, ActivationKind::Identity).unwrap();
        ch.enable_trace();
        ch.load_matrix(&mapping, &vec![bf(1.0); 16 * 512]).unwrap();
        ch.run_mv(&mapping, &schedule, &vec![bf(1.0); 512], false)
            .unwrap();
        let trace = ch.trace();
        let count =
            |pred: fn(&AimCommand) -> bool| trace.entries().filter(|(_, c)| pred(c)).count();
        assert_eq!(count(|c| matches!(c, AimCommand::Gwrite { .. })), 32);
        assert_eq!(count(|c| matches!(c, AimCommand::GAct { .. })), 4);
        assert_eq!(count(|c| matches!(c, AimCommand::Comp { .. })), 32);
        assert_eq!(count(|c| matches!(c, AimCommand::ReadRes)), 1);
        // Commands appear in nondecreasing time order per kind, G_ACTs
        // spaced by tFAW.
        let gacts: Vec<_> = trace
            .entries()
            .filter(|(_, c)| matches!(c, AimCommand::GAct { .. }))
            .map(|(t, _)| t)
            .collect();
        let t_faw = ch.channel().timing().t_faw;
        for w in gacts.windows(2) {
            assert_eq!(w[1] - w[0], t_faw);
        }
    }
}
