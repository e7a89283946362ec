//! Multi-channel Newton execution: distributes matrix rows across
//! channels, runs each channel's command stream, and performs the
//! host-side reduction, activation, and batch-normalization pipeline.
//!
//! Channels operate independently and in parallel — "with multiple
//! (pseudo) channels, Newton's per-channel operation and timing are simply
//! repeated in parallel across the (pseudo) channels" (Sec. III-D). Matrix
//! rows are round-robined across channels so every channel carries an
//! equal share (±1 row group); a layer completes when the slowest channel
//! finishes.

use std::collections::BTreeSet;
use std::sync::Arc;

use newton_bf16::{slice, Bf16};
use newton_dram::stats::RunSummary;
use newton_dram::timing::Cycle;
use newton_dram::DramError;
use newton_trace::{HostProfiler, TimeSeries};

use crate::cache::Residency;
use crate::config::{NewtonConfig, TimingEngine};
use crate::controller::{AimStats, NewtonChannel};
use crate::error::AimError;
use crate::layout::MatrixMapping;
use crate::lut::ActivationKind;
use crate::parallel;
use crate::plan::ChannelPlan;
use crate::tiling::ScheduleKind;

/// One matrix–vector problem for [`NewtonSystem::run_model`].
#[derive(Debug, Clone, Copy)]
pub struct MvProblem<'a> {
    /// Row-major `m x n` matrix.
    pub matrix: &'a [Bf16],
    /// Output dimension (matrix rows).
    pub m: usize,
    /// Input dimension (matrix columns).
    pub n: usize,
    /// Activation applied to the layer output.
    pub activation: ActivationKind,
    /// Whether batch normalization runs on the output (its first-tile
    /// latency is exposed between layers, Sec. III-C).
    pub batch_norm: bool,
    /// Keep only the first `k` outputs as the next layer's input (models
    /// host-side elementwise gate folding in LSTM cells, where the 4
    /// stacked gate rows collapse to one hidden vector). `None` keeps all.
    pub output_keep: Option<usize>,
}

/// Result of a system-level run (one layer or one model).
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// The computed output vector (host-reduced, post-activation for
    /// model runs; raw sums for [`NewtonSystem::run_mv`]).
    pub output: Vec<f32>,
    /// Cycles from run start to the last channel's completion.
    pub cycles: Cycle,
    /// Wall-clock equivalent of `cycles`.
    pub elapsed_ns: f64,
    /// AiM command counters summed over channels.
    pub stats: AimStats,
    /// Per-channel DRAM summaries (for bandwidth/power accounting).
    pub channel_summaries: Vec<RunSummary>,
}

impl SystemRun {
    /// The system-wide telemetry series: every channel's windowed series
    /// merged elementwise, in channel order (deterministic for any thread
    /// count). `None` when telemetry was not enabled.
    ///
    /// # Panics
    ///
    /// If channels ran with different window widths (impossible through
    /// [`NewtonSystem`], which configures every channel identically).
    #[must_use]
    pub fn merged_telemetry(&self) -> Option<TimeSeries> {
        let mut merged: Option<TimeSeries> = None;
        for s in &self.channel_summaries {
            if let Some(t) = &s.telemetry {
                match &mut merged {
                    Some(m) => m.merge(t),
                    None => merged = Some(t.clone()),
                }
            }
        }
        merged
    }
}

/// A matrix made resident in channel DRAM by
/// [`NewtonSystem::load_matrix`], reusable across inputs without
/// reloading (run it with [`NewtonSystem::run_resident`]).
///
/// The handle carries one [`ChannelPlan`] per channel: the bank mapping
/// and tiled schedule, built once here rather than once per run. Clones
/// share the plans through an [`Arc`].
#[derive(Debug, Clone)]
pub struct LoadedMatrix {
    plans: Arc<Vec<Option<ChannelPlan>>>,
    m: usize,
    n: usize,
}

impl LoadedMatrix {
    /// Per-channel plans (`None` for idle trailing channels).
    #[must_use]
    pub fn plans(&self) -> &[Option<ChannelPlan>] {
        &self.plans
    }
}

// The parallel data plane hands `&mut NewtonChannel` to scoped worker
// threads; keep that guarantee checked at compile time.
const _: () = {
    const fn require_send<T: Send>() {}
    require_send::<NewtonChannel>()
};

/// What [`NewtonSystem::run_resident_resilient`] had to do to produce a
/// clean result in the presence of uncorrectable ECC errors.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Full run attempts, including the successful one.
    pub attempts: u64,
    /// Host-side scrub-rewrites (matrix reloaded from the clean non-AiM
    /// copy, re-encoding every check word — Sec. III-E's reload policy).
    pub scrub_rewrites: u64,
    /// Banks retired as `(channel, bank)` after a scrub-rewrite failed to
    /// clear the fault (a hard fault: stuck cells survive rewrites).
    pub retired_banks: Vec<(usize, usize)>,
    /// Surviving fraction of the system's bank capacity in `0.0..=1.0`
    /// (`1.0` when nothing is retired).
    pub capacity_fraction: f64,
}

impl RecoveryReport {
    /// Serializes the report into `snap` under `prefix` so resilient runs
    /// are auditable from the snapshot JSON alone: `<prefix>/attempts`,
    /// `<prefix>/scrub_rewrites`, `<prefix>/retired_banks` (count),
    /// `<prefix>/retired_bank_list` (text, `ch:bank` pairs in order) and
    /// `<prefix>/capacity_fraction`.
    pub fn record_into(&self, snap: &mut newton_trace::MetricsSnapshot, prefix: &str) {
        let list = self
            .retired_banks
            .iter()
            .map(|(ch, b)| format!("{ch}:{b}"))
            .collect::<Vec<_>>()
            .join(",");
        snap.count(&format!("{prefix}/attempts"), self.attempts)
            .count(&format!("{prefix}/scrub_rewrites"), self.scrub_rewrites)
            .count(
                &format!("{prefix}/retired_banks"),
                self.retired_banks.len() as u64,
            )
            .text(&format!("{prefix}/retired_bank_list"), &list)
            .scalar(
                &format!("{prefix}/capacity_fraction"),
                self.capacity_fraction,
            );
    }
}

/// A multi-channel Newton system.
#[derive(Debug)]
pub struct NewtonSystem {
    config: NewtonConfig,
    channels: Vec<NewtonChannel>,
    /// Per-channel sets of retired (physically failed) banks; mappings
    /// built by [`channel_mapping`](NewtonSystem::channel_mapping) route
    /// around them.
    retired: Vec<BTreeSet<usize>>,
    /// `config.parallel` resolved to a thread budget at construction, so
    /// that no run asks the environment or the operating system for it:
    /// the policy cannot change under a live system, and neither do
    /// `NEWTON_THREADS` or the host's parallelism.
    threads: usize,
    /// Host-phase self-profiling: wall-clock time this process spent in
    /// each simulation phase (encode / drain / comp / merge / snapshot).
    /// Accumulates across runs; purely observational. Call counts are
    /// simulation-deterministic, nanoseconds are host wall-clock.
    profiler: HostProfiler,
}

/// Host-phase names registered by every [`NewtonSystem`], in reporting
/// order: matrix encode (load/scatter into DRAM), command-stream drain
/// (channel simulation), the COMP MAC hot path (a sub-span of drain),
/// index-ordered result merge, and end-of-run summary snapshotting.
const HOST_PHASES: [&str; 5] = ["encode", "drain", "comp", "merge", "snapshot"];

impl NewtonSystem {
    /// Creates the system with identity activation in the channel LUTs:
    /// every layer's activation runs on the host.
    ///
    /// # Errors
    ///
    /// [`AimError::InvalidConfig`] on configuration errors.
    pub fn new(config: NewtonConfig) -> Result<NewtonSystem, AimError> {
        config.validate()?;
        let channels = (0..config.channels)
            .map(|_| NewtonChannel::new(&config, ActivationKind::Identity))
            .collect::<Result<Vec<_>, _>>()?;
        let retired = vec![BTreeSet::new(); config.channels];
        Ok(NewtonSystem {
            threads: config.parallel.threads(),
            config,
            channels,
            retired,
            profiler: HostProfiler::new(&HOST_PHASES),
        })
    }

    /// The accumulated host-phase profile (encode / drain / comp / merge
    /// / snapshot wall-clock time since construction).
    #[must_use]
    pub fn host_phases(&self) -> &HostProfiler {
        &self.profiler
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &NewtonConfig {
        &self.config
    }

    /// Per-channel access (tests, audits).
    #[must_use]
    pub fn channels(&self) -> &[NewtonChannel] {
        &self.channels
    }

    /// Mutable per-channel access (e.g. enabling audits).
    pub fn channels_mut(&mut self) -> &mut [NewtonChannel] {
        &mut self.channels
    }

    /// Changes [`NewtonConfig::engine`] on the system and every channel
    /// (command streams, cycles, and results are byte-identical across
    /// engines; see [`TimingEngine`]).
    pub fn set_timing_engine(&mut self, engine: TimingEngine) {
        self.config.engine = engine;
        for ch in &mut self.channels {
            ch.set_timing_engine(engine);
        }
    }

    /// The schedule kind the configuration implies.
    #[must_use]
    fn schedule_kind(&self) -> ScheduleKind {
        if self.config.result_latches_per_bank == 4 {
            ScheduleKind::FourLatch
        } else if self.config.opts.interleaved_reuse {
            ScheduleKind::InterleavedFullReuse
        } else {
            ScheduleKind::NoReuse
        }
    }

    /// Matrix rows assigned to `channel` out of `m` (round-robin).
    fn channel_rows(&self, channel: usize, m: usize) -> usize {
        let c = self.config.channels;
        m / c + usize::from(m % c > channel)
    }

    /// Builds the channel-local mapping for an `m x n` matrix at
    /// `base_row`.
    fn channel_mapping(
        &self,
        channel: usize,
        m: usize,
        n: usize,
        base_row: usize,
    ) -> Result<Option<MatrixMapping>, AimError> {
        let local_m = self.channel_rows(channel, m);
        if local_m == 0 {
            return Ok(None);
        }
        let kind = self.schedule_kind();
        let retired = &self.retired[channel];
        let bank_map: Vec<usize> = (0..self.config.dram.banks)
            .filter(|b| !retired.contains(b))
            .collect();
        MatrixMapping::with_bank_map(
            kind.layout(),
            local_m,
            n,
            bank_map,
            self.config.row_elems(),
            base_row,
        )
        .map(Some)
    }

    /// Loads a matrix into every channel at `base_row`; returns the
    /// per-channel mappings and the rows consumed per bank.
    ///
    /// Each channel's rows scatter *directly* from the shared row-major
    /// matrix via [`NewtonChannel::load_matrix_strided`] (offset =
    /// channel index, stride = channel count) — no per-channel staging
    /// copy — and channels encode on parallel host threads per the
    /// configured [`parallel::ParallelPolicy`]. DRAM contents are
    /// bit-identical for every thread count (channels touch disjoint
    /// storage).
    fn load_matrix_at(
        &mut self,
        matrix: &[Bf16],
        m: usize,
        n: usize,
        base_row: usize,
    ) -> Result<(Vec<Option<MatrixMapping>>, usize), AimError> {
        if matrix.len() != m * n {
            return Err(AimError::Shape {
                what: "matrix buffer",
                detail: format!("expected {} elements, got {}", m * n, matrix.len()),
            });
        }
        let c = self.config.channels;
        let mut mappings = Vec::with_capacity(c);
        for ch in 0..c {
            mappings.push(self.channel_mapping(ch, m, n, base_row)?);
        }
        let max_rows = mappings
            .iter()
            .flatten()
            .map(MatrixMapping::rows_per_bank)
            .max()
            .unwrap_or(0);
        let encode_started = std::time::Instant::now();
        let results = {
            let mut active: Vec<(usize, &mut NewtonChannel, &MatrixMapping)> = self
                .channels
                .iter_mut()
                .zip(&mappings)
                .enumerate()
                .filter_map(|(ch, (channel, mapping))| {
                    mapping.as_ref().map(|map| (ch, channel, map))
                })
                .collect();
            let per_channel_elems = active
                .iter()
                .map(|(_, _, map)| map.m() * map.n())
                .max()
                .unwrap_or(0);
            let threads = self.threads.min(
                self.config
                    .parallel
                    .useful_workers(active.len(), per_channel_elems),
            );
            parallel::par_map_mut(&mut active, threads, |_, (ch, channel, map)| {
                channel.load_matrix_strided(map, matrix, *ch, c)
            })
        };
        self.profiler
            .add("encode", 1, encode_started.elapsed().as_nanos() as u64);
        // Index-ordered merge: the first failing channel's error wins,
        // exactly as the old serial loop reported it.
        for r in results {
            r?;
        }
        Ok((mappings, max_rows))
    }

    /// Builds one [`ChannelPlan`] per channel from freshly-built mappings
    /// — the single `Schedule::build` site for a loaded matrix (every
    /// run path goes through plans; none rebuilds the schedule per run).
    /// The caller knows whether it will run the plans more than once, and
    /// says so with `residency`.
    fn build_plans(
        &self,
        mappings: Vec<Option<MatrixMapping>>,
        residency: Residency,
    ) -> Vec<Option<ChannelPlan>> {
        let kind = self.schedule_kind();
        mappings
            .into_iter()
            .map(|m| m.map(|map| ChannelPlan::new(kind, map, residency)))
            .collect()
    }

    /// Runs one layer given pre-built channel plans; returns raw (pre-
    /// activation) sums and updates every channel's cursor.
    ///
    /// Channels are architecturally independent (Sec. III-D), so their
    /// command streams simulate on parallel host threads; results merge
    /// deterministically by channel index, so every thread count — the
    /// configured [`parallel::ParallelPolicy`] decides, with
    /// `NEWTON_THREADS=1` forcing fully serial — produces bit-identical
    /// outputs, cycles, stats, summaries, and traces. Channels whose
    /// plan is `None` (idle trailing channels of a short matrix) get
    /// no thread and no work; the end-of-layer barrier advances them.
    fn run_loaded(
        &mut self,
        plans: &[Option<ChannelPlan>],
        m: usize,
        vector: &[Bf16],
    ) -> Result<SystemRun, AimError> {
        let c = self.config.channels;
        // All channels start together (barrier at layer entry).
        let start = self
            .channels
            .iter()
            .map(NewtonChannel::now)
            .max()
            .unwrap_or(0);

        let drain_started = std::time::Instant::now();
        let runs: Vec<(usize, Result<crate::controller::MvRun, AimError>)> = {
            let mut active: Vec<(usize, &mut NewtonChannel, &ChannelPlan)> = self
                .channels
                .iter_mut()
                .zip(plans)
                .enumerate()
                .filter_map(|(ch, (channel, plan))| plan.as_ref().map(|p| (ch, channel, p)))
                .collect();
            // Threads pay off only when each channel simulates
            // substantial work; the policy keeps small layers serial.
            let per_channel_macs = active
                .iter()
                .map(|(_, _, plan)| plan.map().m() * plan.map().n())
                .max()
                .unwrap_or(0);
            let threads = self.threads.min(
                self.config
                    .parallel
                    .useful_workers(active.len(), per_channel_macs),
            );
            parallel::par_map_mut(&mut active, threads, |_, (ch, channel, plan)| {
                channel.advance_to(start);
                (*ch, channel.run_planned(plan, vector))
            })
        };
        self.profiler
            .add("drain", 1, drain_started.elapsed().as_nanos() as u64);
        // The COMP hot path is a sub-span of drain, measured inside each
        // channel and drained here in channel order (deterministic call
        // counts: one per row-set).
        for ch in &mut self.channels {
            let (calls, nanos) = ch.take_comp_profile();
            self.profiler.add("comp", calls, nanos);
        }

        let merge_started = std::time::Instant::now();
        let mut output = vec![0.0f32; m];
        let mut stats = AimStats::default();
        let mut end = start;
        for (ch, run) in runs {
            // Lowest-index channel's failure wins (runs are in channel
            // order), so error propagation is thread-count independent.
            let run = match run {
                Ok(run) => run,
                Err(AimError::Dram(DramError::Uncorrectable { bank, row })) => {
                    return Err(AimError::Uncorrectable {
                        channel: ch,
                        bank,
                        row,
                    })
                }
                Err(AimError::AuditFailed {
                    violations, first, ..
                }) => {
                    return Err(AimError::AuditFailed {
                        channel: ch,
                        violations,
                        first,
                    })
                }
                Err(e) => return Err(e),
            };
            for (li, v) in run.outputs.iter().enumerate() {
                output[li * c + ch] = *v;
            }
            stats.merge(&run.stats);
            end = end.max(run.end_cycle);
        }
        self.profiler
            .add("merge", 1, merge_started.elapsed().as_nanos() as u64);
        // Barrier: the layer is done when the slowest channel is done.
        let snapshot_started = std::time::Instant::now();
        let mut summaries = Vec::with_capacity(c);
        for ch in &mut self.channels {
            ch.advance_to(end);
            summaries.push(ch.channel().summary(end));
        }
        self.profiler
            .add("snapshot", 1, snapshot_started.elapsed().as_nanos() as u64);
        let tck = self.config.dram.timing.tck_ns;
        Ok(SystemRun {
            output,
            cycles: end - start,
            elapsed_ns: (end - start) as f64 * tck,
            stats,
            channel_summaries: summaries,
        })
    }

    /// Loads an `m x n` row-major matrix at DRAM row 0 and returns a
    /// handle for repeated inference against the resident copy (the
    /// matrix stays resident across inputs, Sec. III-E; loading is the
    /// parallel strided-scatter data plane of `load_matrix_at`).
    ///
    /// # Errors
    ///
    /// Shape errors for inconsistent `matrix`/`m`/`n`; capacity/storage
    /// errors otherwise.
    pub fn load_matrix(
        &mut self,
        matrix: &[Bf16],
        m: usize,
        n: usize,
    ) -> Result<LoadedMatrix, AimError> {
        let (mappings, _) = self.load_matrix_at(matrix, m, n, 0)?;
        Ok(LoadedMatrix {
            plans: Arc::new(self.build_plans(mappings, Residency::Resident)),
            m,
            n,
        })
    }

    /// Builds the per-channel plans for an `m x n` matrix *already
    /// resident* in channel storage at DRAM row 0 — the planning half of
    /// [`NewtonSystem::load_matrix`] without the data movement.
    ///
    /// The trace frontend (`newton-isa`) deposits matrix bytes through
    /// explicit `WR_SBK` instructions and then needs the same
    /// [`LoadedMatrix`] handle the API path would have produced; because
    /// this goes through the identical `channel_mapping` +
    /// `build_plans` pipeline, a subsequent
    /// [`NewtonSystem::run_resident`] is byte-identical to the API-driven
    /// [`NewtonSystem::run_mv`] whenever the deposited bytes match.
    ///
    /// # Errors
    ///
    /// Shape/capacity errors if the matrix geometry does not fit the
    /// configured channels.
    pub fn plan_resident(&self, m: usize, n: usize) -> Result<LoadedMatrix, AimError> {
        let c = self.config.channels;
        let mut mappings = Vec::with_capacity(c);
        for ch in 0..c {
            mappings.push(self.channel_mapping(ch, m, n, 0)?);
        }
        Ok(LoadedMatrix {
            plans: Arc::new(self.build_plans(mappings, Residency::Resident)),
            m,
            n,
        })
    }

    /// Runs one inference against a matrix previously made resident by
    /// [`NewtonSystem::load_matrix`], returning raw host-reduced sums
    /// (the repeated-inference path: no reload between inputs).
    ///
    /// # Errors
    ///
    /// [`AimError::Shape`] if `vector.len()` differs from the loaded
    /// matrix's `n`; substrate errors otherwise.
    pub fn run_resident(
        &mut self,
        loaded: &LoadedMatrix,
        vector: &[Bf16],
    ) -> Result<SystemRun, AimError> {
        if vector.len() != loaded.n {
            return Err(AimError::Shape {
                what: "input vector",
                detail: format!("expected {} elements, got {}", loaded.n, vector.len()),
            });
        }
        self.run_loaded(&loaded.plans, loaded.m, vector)
    }

    /// Runs a single matrix–vector product (matrix loaded at row 0) and
    /// returns the raw host-reduced sums.
    ///
    /// # Errors
    ///
    /// Shape errors for inconsistent `matrix`/`m`/`n`/`vector`; substrate
    /// errors otherwise.
    pub fn run_mv(
        &mut self,
        matrix: &[Bf16],
        m: usize,
        n: usize,
        vector: &[Bf16],
    ) -> Result<SystemRun, AimError> {
        let (mappings, _) = self.load_matrix_at(matrix, m, n, 0)?;
        // The plans die with this call and the next call rewrites the
        // weights: nothing decoded here is worth keeping.
        let plans = self.build_plans(mappings, Residency::SingleUse);
        self.run_loaded(&plans, m, vector)
    }

    /// The system's current simulated time: the furthest channel clock
    /// (channels re-synchronize at every run barrier). The serving
    /// scheduler uses this as its wall clock.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.channels
            .iter()
            .map(NewtonChannel::now)
            .max()
            .unwrap_or(0)
    }

    /// Advances every channel to `cycle` (no-op for channels already
    /// past it). Models host-visible idle time — waiting for the next
    /// request arrival, a retry backoff, or a serialized conventional
    /// DRAM drain. Refresh obligations keep accruing across the gap and
    /// are made up when the next command stream issues, so long idle
    /// periods collide with tREFI exactly like live traffic does.
    pub fn advance_all_to(&mut self, cycle: Cycle) {
        for ch in &mut self.channels {
            ch.advance_to(cycle);
        }
    }

    /// Quiesces every channel after an aborted run (banks precharged,
    /// decoded-weight caches dropped); see `NewtonChannel::recover`.
    ///
    /// # Errors
    ///
    /// Substrate errors from the recovery precharge (none expected).
    fn recover_all(&mut self) -> Result<(), AimError> {
        for ch in &mut self.channels {
            ch.recover()?;
        }
        Ok(())
    }

    /// Permanently retires `bank` on `channel`: mappings built afterwards
    /// (any `load_matrix*` call) route around it, shrinking the channel's
    /// usable capacity. Used by the resilience ladder when a fault
    /// survives a scrub-rewrite (a hard fault), and exposed so external
    /// schedulers (`newton-serve`) can drive the same escalation with
    /// their own retry policy.
    ///
    /// # Errors
    ///
    /// [`AimError::InvalidConfig`] if the indices are out of range or the
    /// retirement would leave the channel without any usable bank (the
    /// system refuses to retire itself to death; callers surface the
    /// original fault instead).
    fn retire_bank(&mut self, channel: usize, bank: usize) -> Result<(), AimError> {
        if channel >= self.config.channels || bank >= self.config.dram.banks {
            return Err(AimError::InvalidConfig(format!(
                "cannot retire bank {bank} on channel {channel}: out of range"
            )));
        }
        let set = &mut self.retired[channel];
        if set.contains(&bank) {
            return Ok(());
        }
        if set.len() + 1 >= self.config.dram.banks {
            return Err(AimError::InvalidConfig(format!(
                "refusing to retire bank {bank}: channel {channel} would have no banks left"
            )));
        }
        set.insert(bank);
        Ok(())
    }

    /// Banks retired so far, as `(channel, bank)` pairs in order.
    #[must_use]
    pub fn retired_banks(&self) -> Vec<(usize, usize)> {
        self.retired
            .iter()
            .enumerate()
            .flat_map(|(ch, set)| set.iter().map(move |&b| (ch, b)))
            .collect()
    }

    /// Surviving fraction of the system's bank capacity (`1.0` when no
    /// bank is retired).
    #[must_use]
    pub fn capacity_fraction(&self) -> f64 {
        let total = (self.config.channels * self.config.dram.banks) as f64;
        let lost: usize = self.retired.iter().map(BTreeSet::len).sum();
        (total - lost as f64) / total
    }

    /// Runs a resident matrix–vector product with graceful degradation:
    /// an uncorrectable ECC error triggers a host-side scrub-rewrite of
    /// the matrix (reloading re-encodes every check word, clearing
    /// transient faults) and one retry; a fault that survives the rewrite
    /// is hard (stuck cells), so the affected bank is retired, the matrix
    /// is remapped around it, and the run retries on the reduced
    /// capacity. Retirement is sticky: later runs on this system keep
    /// routing around retired banks.
    ///
    /// The run starts against the *current* (possibly fault-injected)
    /// DRAM contents and only touches `matrix` — the clean host-side copy
    /// — for scrub-rewrites. This is the campaign path: inject faults
    /// into the resident copy, then run.
    ///
    /// If the report lists retired banks, `loaded`'s mappings are stale;
    /// reload before reusing the handle.
    ///
    /// # Errors
    ///
    /// Shape errors if `vector` or `matrix` do not match `loaded`; the
    /// last [`AimError::Uncorrectable`] if retries are exhausted (a
    /// channel down to banks that cannot hold its share, or faults
    /// appearing faster than retirement can contain them).
    pub fn run_resident_resilient(
        &mut self,
        loaded: &LoadedMatrix,
        matrix: &[Bf16],
        vector: &[Bf16],
    ) -> Result<(SystemRun, RecoveryReport), AimError> {
        let (m, n) = (loaded.m, loaded.n);
        if vector.len() != n {
            return Err(AimError::Shape {
                what: "input vector",
                detail: format!("expected {n} elements, got {}", vector.len()),
            });
        }
        if matrix.len() != m * n {
            return Err(AimError::Shape {
                what: "clean matrix copy",
                detail: format!("expected {} elements, got {}", m * n, matrix.len()),
            });
        }
        let mut report = RecoveryReport {
            attempts: 0,
            scrub_rewrites: 0,
            retired_banks: Vec::new(),
            capacity_fraction: 1.0,
        };
        let mut scrubbed: BTreeSet<(usize, usize)> = BTreeSet::new();
        let banks = self.config.dram.banks;
        // Every (channel, bank) pair fails at most twice (scrub, then
        // retire), so this bound is unreachable without a logic error.
        let max_attempts = (1 + 2 * self.config.channels * banks) as u64;
        // The happy path runs straight off the handle's shared plans; only
        // a recovery re-plan allocates.
        let mut replans: Option<Vec<Option<ChannelPlan>>> = None;
        loop {
            report.attempts += 1;
            let plans = replans.as_deref().unwrap_or(&loaded.plans);
            match self.run_loaded(plans, m, vector) {
                Ok(run) => {
                    report.capacity_fraction = self.capacity_fraction();
                    return Ok((run, report));
                }
                Err(err @ AimError::Uncorrectable { channel, bank, .. }) => {
                    if report.attempts >= max_attempts {
                        return Err(err);
                    }
                    // Quiesce all channels: the failing one aborted
                    // mid-row-set with banks open.
                    self.recover_all()?;
                    if scrubbed.insert((channel, bank)) {
                        report.scrub_rewrites += 1;
                    } else {
                        // Scrub already tried: hard fault. Retire the bank;
                        // if nothing would be left to remap onto, surface
                        // the original fault.
                        if self.retire_bank(channel, bank).is_err() {
                            return Err(err);
                        }
                        report.retired_banks.push((channel, bank));
                    }
                    // The scrub-rewrite: reload the clean copy under the
                    // current (possibly reduced) bank mapping and re-plan.
                    // Rewriting re-encodes every check word, clearing
                    // transient faults; stuck cells reassert and fail
                    // again.
                    let mappings = self.load_matrix_at(matrix, m, n, 0)?.0;
                    replans = Some(self.build_plans(mappings, Residency::Resident));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Time to re-load an `m x n` matrix from a non-AiM copy, in ns —
    /// the ECC strategy of Sec. III-E ("re-loading the matrix, and
    /// thereby discarding any errors, from a non-AiM copy every so
    /// often"). The reload streams the matrix over the external bus once
    /// to read the clean copy and once to write the AiM region; channels
    /// reload in parallel.
    #[must_use]
    fn matrix_reload_ns(&self, m: usize, n: usize) -> f64 {
        let m_c = m.div_ceil(self.config.channels);
        let bytes = (m_c * n * 2) as f64;
        2.0 * bytes / self.config.dram.external_bandwidth_bytes_per_ns()
    }

    /// Amortized ECC-reload bandwidth overhead: the fraction of device
    /// time spent reloading when the matrix is refreshed from its clean
    /// copy once every `inputs_per_reload` inferences, each of which
    /// takes `inference_ns`. The paper argues this is small (e.g. once
    /// per 1000 inputs).
    #[must_use]
    pub fn reload_overhead_fraction(
        &self,
        m: usize,
        n: usize,
        inference_ns: f64,
        inputs_per_reload: u64,
    ) -> f64 {
        if inputs_per_reload == 0 || inference_ns <= 0.0 {
            return 0.0;
        }
        let reload = self.matrix_reload_ns(m, n);
        reload / (reload + inference_ns * inputs_per_reload as f64)
    }

    /// Runs a sequence of layers end-to-end: every layer's matrix is
    /// resident (stacked at increasing DRAM rows), each layer's output
    /// feeds the next layer's input, host activation/normalization latency
    /// is pipelined per Sec. III-C (only the first tile's normalization is
    /// exposed), and refresh state carries across layers.
    ///
    /// # Errors
    ///
    /// Shape errors if a layer's `n` does not match the incoming vector
    /// length, or if the stacked matrices exceed bank capacity.
    pub fn run_model(
        &mut self,
        layers: &[MvProblem<'_>],
        input: &[Bf16],
    ) -> Result<SystemRun, AimError> {
        if layers.is_empty() {
            return Err(AimError::Shape {
                what: "model",
                detail: "no layers".into(),
            });
        }
        // Load every layer's matrix up front (all resident in DRAM,
        // Sec. III-E), planning each once. Each layer's plans run once
        // and are dropped on return, so they are single-use.
        let mut base_row = 0;
        let mut all_plans = Vec::with_capacity(layers.len());
        for layer in layers {
            let (mappings, rows) = self.load_matrix_at(layer.matrix, layer.m, layer.n, base_row)?;
            base_row += rows;
            all_plans.push(self.build_plans(mappings, Residency::SingleUse));
        }

        let start = self
            .channels
            .iter()
            .map(NewtonChannel::now)
            .max()
            .unwrap_or(0);
        let mut vector: Vec<Bf16> = input.to_vec();
        let mut stats = AimStats::default();
        let mut final_output = Vec::new();
        let tck = self.config.dram.timing.tck_ns;

        for (layer, plans) in layers.iter().zip(&all_plans) {
            if vector.len() != layer.n {
                return Err(AimError::Shape {
                    what: "layer input",
                    detail: format!("expected {} elements, got {}", layer.n, vector.len()),
                });
            }
            let run = self.run_loaded(plans, layer.m, &vector)?;
            stats.merge(&run.stats);

            // Host post-processing: batch norm (range scaling) and
            // activation; only the first tile's normalization latency is
            // exposed before the next layer starts (Sec. III-C).
            let mut out = run.output;
            if layer.batch_norm {
                let max_abs = out.iter().fold(0.0f32, |a, &x| a.max(x.abs()));
                if max_abs > 0.0 {
                    for x in &mut out {
                        *x /= max_abs;
                    }
                }
                let exposure = (self.config.batch_norm_first_tile_ns / tck).ceil() as Cycle;
                let now = self
                    .channels
                    .iter()
                    .map(NewtonChannel::now)
                    .max()
                    .unwrap_or(0);
                for ch in &mut self.channels {
                    ch.advance_to(now + exposure);
                }
            }
            for x in &mut out {
                *x = layer.activation.apply_f32(*x);
            }
            if let Some(k) = layer.output_keep {
                out.truncate(k);
            }
            vector = slice::from_f32(&out);
            final_output = out;
        }

        let end = self
            .channels
            .iter()
            .map(NewtonChannel::now)
            .max()
            .unwrap_or(0);
        let snapshot_started = std::time::Instant::now();
        let summaries = self
            .channels
            .iter()
            .map(|c| c.channel().summary(end))
            .collect();
        self.profiler
            .add("snapshot", 1, snapshot_started.elapsed().as_nanos() as u64);
        Ok(SystemRun {
            output: final_output,
            cycles: end - start,
            elapsed_ns: (end - start) as f64 * tck,
            stats,
            channel_summaries: summaries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptLevel;

    fn bf(v: f32) -> Bf16 {
        Bf16::from_f32(v)
    }

    fn small_cfg(channels: usize) -> NewtonConfig {
        let mut c = NewtonConfig::paper_default();
        c.channels = channels;
        c
    }

    fn reference(matrix: &[Bf16], m: usize, n: usize, vector: &[Bf16]) -> Vec<f64> {
        (0..m)
            .map(|i| {
                (0..n)
                    .map(|j| matrix[i * n + j].to_f64() * vector[j].to_f64())
                    .sum()
            })
            .collect()
    }

    #[test]
    fn multi_channel_matches_reference_and_single_channel_output() {
        let (m, n) = (50, 700);
        let matrix: Vec<Bf16> = (0..m * n)
            .map(|k| bf(((k % 17) as f32 - 8.0) / 8.0))
            .collect();
        let vector: Vec<Bf16> = (0..n).map(|k| bf(((k % 5) as f32 - 2.0) / 2.0)).collect();
        let expect = reference(&matrix, m, n, &vector);

        for channels in [1, 3, 24] {
            let mut sys = NewtonSystem::new(small_cfg(channels)).unwrap();
            let run = sys.run_mv(&matrix, m, n, &vector).unwrap();
            assert_eq!(run.output.len(), m);
            for (i, (&got, &want)) in run.output.iter().zip(&expect).enumerate() {
                let bound = newton_bf16::reduce::dot_error_bound(n, 16, want.abs().max(8.0));
                assert!(
                    (got as f64 - want).abs() <= bound,
                    "channels={channels} row {i}"
                );
            }
        }
    }

    #[test]
    fn more_channels_is_faster() {
        let (m, n) = (96, 512);
        let matrix = vec![bf(1.0); m * n];
        let vector = vec![bf(1.0); n];
        let mut t = Vec::new();
        for channels in [1, 2, 4] {
            let mut sys = NewtonSystem::new(small_cfg(channels)).unwrap();
            let run = sys.run_mv(&matrix, m, n, &vector).unwrap();
            t.push(run.cycles);
        }
        assert!(t[0] > t[1] && t[1] > t[2], "{t:?}");
    }

    #[test]
    fn rows_distribute_round_robin() {
        let sys = NewtonSystem::new(small_cfg(24)).unwrap();
        assert_eq!(sys.channel_rows(0, 50), 3);
        assert_eq!(sys.channel_rows(1, 50), 3);
        assert_eq!(sys.channel_rows(2, 50), 2);
        assert_eq!(sys.channel_rows(23, 50), 2);
        let total: usize = (0..24).map(|c| sys.channel_rows(c, 50)).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn schedule_kind_follows_config() {
        let mut cfg = small_cfg(1);
        assert_eq!(
            NewtonSystem::new(cfg.clone()).unwrap().schedule_kind(),
            ScheduleKind::InterleavedFullReuse
        );
        cfg.opts.interleaved_reuse = false;
        assert_eq!(
            NewtonSystem::new(cfg.clone()).unwrap().schedule_kind(),
            ScheduleKind::NoReuse
        );
        cfg.result_latches_per_bank = 4;
        assert_eq!(
            NewtonSystem::new(cfg).unwrap().schedule_kind(),
            ScheduleKind::FourLatch
        );
    }

    #[test]
    fn model_run_chains_layers_numerically() {
        let mut sys = NewtonSystem::new(small_cfg(2)).unwrap();
        let (m1, n1) = (32, 64);
        let (m2, n2) = (16, 32);
        let w1: Vec<Bf16> = (0..m1 * n1)
            .map(|k| bf(((k % 9) as f32 - 4.0) / 16.0))
            .collect();
        let w2: Vec<Bf16> = (0..m2 * n2)
            .map(|k| bf(((k % 11) as f32 - 5.0) / 16.0))
            .collect();
        let input: Vec<Bf16> = (0..n1).map(|k| bf((k % 3) as f32 / 2.0)).collect();

        let layers = [
            MvProblem {
                matrix: &w1,
                m: m1,
                n: n1,
                activation: ActivationKind::Relu,
                batch_norm: false,
                output_keep: None,
            },
            MvProblem {
                matrix: &w2,
                m: m2,
                n: n2,
                activation: ActivationKind::Identity,
                batch_norm: false,
                output_keep: None,
            },
        ];
        let run = sys.run_model(&layers, &input).unwrap();
        assert_eq!(run.output.len(), m2);

        // f64 reference of the chained computation (with bf16 re-rounding
        // of the intermediate vector, as the system does).
        let h1 = reference(&w1, m1, n1, &input);
        let h1: Vec<Bf16> = h1.iter().map(|&x| Bf16::from_f64(x.max(0.0))).collect();
        let expect = reference(&w2, m2, n2, &h1);
        for (i, (&got, &want)) in run.output.iter().zip(&expect).enumerate() {
            assert!(
                (got as f64 - want).abs()
                    <= newton_bf16::reduce::dot_error_bound(n2, 16, want.abs().max(8.0)) + 0.25,
                "row {i}: {got} vs {want}"
            );
        }
        assert!(run.cycles > 0);
    }

    #[test]
    fn batch_norm_exposes_first_tile_latency() {
        let mut cfg = small_cfg(1);
        cfg.batch_norm_first_tile_ns = 1000.0;
        let (m, n) = (16, 32);
        let w = vec![bf(0.5); m * n];
        let input = vec![bf(1.0); n];
        let mk = |bn: bool| {
            [MvProblem {
                matrix: &w,
                m,
                n,
                activation: ActivationKind::Identity,
                batch_norm: bn,
                output_keep: None,
            }]
        };
        let mut sys = NewtonSystem::new(cfg.clone()).unwrap();
        let without = sys.run_model(&mk(false), &input).unwrap().cycles;
        let mut sys = NewtonSystem::new(cfg).unwrap();
        let with = sys.run_model(&mk(true), &input).unwrap().cycles;
        assert!(with >= without + 1000, "with={with} without={without}");
    }

    #[test]
    fn ecc_reload_overhead_is_small_at_the_papers_cadence() {
        // Sec. III-E: reload once per 1000 inputs => small overhead.
        let sys = NewtonSystem::new(small_cfg(24)).unwrap();
        let (m, n) = (4096, 1024); // GNMTs1
        let reload = sys.matrix_reload_ns(m, n);
        assert!(reload > 0.0);
        // A Newton inference of this layer takes ~5-6 us; at 1/1000 the
        // overhead must be well under 1%.
        let frac = sys.reload_overhead_fraction(m, n, 5_500.0, 1000);
        assert!(frac < 0.02, "reload overhead {frac}");
        // Degenerate inputs.
        assert_eq!(sys.reload_overhead_fraction(m, n, 5_500.0, 0), 0.0);
        assert_eq!(sys.reload_overhead_fraction(m, n, 0.0, 10), 0.0);
        // Reloading every input would dominate.
        assert!(sys.reload_overhead_fraction(m, n, 5_500.0, 1) > 0.5);
    }

    #[test]
    fn layer_shape_mismatch_rejected() {
        let mut sys = NewtonSystem::new(small_cfg(1)).unwrap();
        let w = vec![bf(1.0); 16 * 32];
        let layers = [MvProblem {
            matrix: &w,
            m: 16,
            n: 32,
            activation: ActivationKind::Identity,
            batch_norm: false,
            output_keep: None,
        }];
        assert!(sys.run_model(&layers, &[bf(1.0); 33]).is_err());
        assert!(sys.run_model(&[], &[bf(1.0); 32]).is_err());
        assert!(sys.run_mv(&w, 16, 33, &[bf(1.0); 33]).is_err());
    }

    #[test]
    fn idle_channels_skip_work_but_reach_the_barrier() {
        // 3 rows on 8 channels: channels 3..8 have no mapping, get no
        // thread and no commands, yet still sit at the layer-end barrier.
        let mut sys = NewtonSystem::new(small_cfg(8)).unwrap();
        let (m, n) = (3, 64);
        let matrix = vec![bf(1.0); m * n];
        let vector = vec![bf(1.0); n];
        let run = sys.run_mv(&matrix, m, n, &vector).unwrap();
        assert_eq!(run.output, vec![n as f32; m]);
        assert_eq!(run.channel_summaries.len(), 8);
        let end = sys.channels()[0].now();
        assert!(sys.channels().iter().all(|c| c.now() == end));
        // Idle channels issued nothing.
        assert_eq!(run.channel_summaries[7].commands, 0);
    }

    #[test]
    fn thread_count_never_changes_results() {
        let (m, n) = (48, 300);
        let matrix: Vec<Bf16> = (0..m * n)
            .map(|k| bf(((k % 23) as f32 - 11.0) / 8.0))
            .collect();
        let vector: Vec<Bf16> = (0..n).map(|k| bf(((k % 9) as f32 - 4.0) / 4.0)).collect();
        let run_with = |threads: usize| {
            let mut cfg = small_cfg(6);
            cfg.parallel = crate::parallel::ParallelPolicy::exact(threads);
            let mut sys = NewtonSystem::new(cfg).unwrap();
            sys.run_mv(&matrix, m, n, &vector).unwrap()
        };
        let baseline = run_with(1);
        let bits = |r: &SystemRun| r.output.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for threads in [2, 8] {
            let run = run_with(threads);
            assert_eq!(bits(&run), bits(&baseline), "threads={threads}");
            assert_eq!(run.cycles, baseline.cycles, "threads={threads}");
            assert_eq!(run.stats, baseline.stats, "threads={threads}");
            assert_eq!(
                run.channel_summaries, baseline.channel_summaries,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn resident_matrix_reruns_without_reload() {
        let mut sys = NewtonSystem::new(small_cfg(2)).unwrap();
        let (m, n) = (8, 64);
        let matrix = vec![bf(0.5); m * n];
        let loaded = sys.load_matrix(&matrix, m, n).unwrap();
        assert_eq!((loaded.m, loaded.n), (m, n));
        let a = sys.run_resident(&loaded, &vec![bf(1.0); n]).unwrap();
        let b = sys.run_resident(&loaded, &vec![bf(2.0); n]).unwrap();
        assert!(a.output.iter().all(|&v| v == 32.0));
        assert!(b.output.iter().all(|&v| v == 64.0));
        // Wrong input length is rejected up front.
        assert!(sys.run_resident(&loaded, &vec![bf(1.0); n + 1]).is_err());
    }

    #[test]
    fn resilient_run_scrubs_transient_double_faults_back_to_golden() {
        let mut cfg = small_cfg(2);
        cfg.ecc = true;
        let (m, n) = (32, 512);
        let matrix: Vec<Bf16> = (0..m * n)
            .map(|k| bf(((k % 13) as f32 - 6.0) / 4.0))
            .collect();
        let vector: Vec<Bf16> = (0..n).map(|k| bf(((k % 7) as f32 - 3.0) / 2.0)).collect();

        let mut sys = NewtonSystem::new(cfg.clone()).unwrap();
        let golden = sys.run_mv(&matrix, m, n, &vector).unwrap();

        let mut sys = NewtonSystem::new(cfg).unwrap();
        let loaded = sys.load_matrix(&matrix, m, n).unwrap();
        // A transient double-bit fault: uncorrectable, but a rewrite
        // clears it.
        let storage = sys.channels_mut()[0].channel_mut().storage_mut();
        storage.flip_bit(0, 0, 3).unwrap();
        storage.flip_bit(0, 0, 5).unwrap();
        let (run, report) = sys
            .run_resident_resilient(&loaded, &matrix, &vector)
            .unwrap();
        assert_eq!(run.output, golden.output, "scrub-retry restores golden");
        assert_eq!(report.attempts, 2);
        assert_eq!(report.scrub_rewrites, 1);
        assert!(report.retired_banks.is_empty());
        assert_eq!(report.capacity_fraction, 1.0);
        assert!(run.stats.ecc_uncorrectable == 0, "final run is clean");
    }

    #[test]
    fn resilient_run_retires_banks_with_stuck_cells() {
        let mut cfg = small_cfg(2);
        cfg.ecc = true;
        let (m, n) = (32, 512);
        let matrix = vec![bf(1.0); m * n];
        let vector = vec![bf(1.0); n];
        let mut sys = NewtonSystem::new(cfg).unwrap();
        let loaded = sys.load_matrix(&matrix, m, n).unwrap();
        // bf16(1.0) = 0x3F80 stored LE, so bits 0 and 1 of every word are
        // 0; sticking them at 1 is a hard double-bit fault that survives
        // every rewrite.
        let storage = sys.channels_mut()[0].channel_mut().storage_mut();
        storage.set_stuck(2, 0, 0, true).unwrap();
        storage.set_stuck(2, 0, 1, true).unwrap();
        let (run, report) = sys
            .run_resident_resilient(&loaded, &matrix, &vector)
            .unwrap();
        assert!(run.output.iter().all(|&v| v == 512.0), "exact after remap");
        assert_eq!(report.attempts, 3, "fail, scrub+fail, retire+succeed");
        assert_eq!(report.scrub_rewrites, 1);
        assert_eq!(report.retired_banks, vec![(0, 2)]);
        assert_eq!(report.capacity_fraction, 31.0 / 32.0);
        assert_eq!(sys.retired_banks(), vec![(0, 2)]);
        // Retirement is sticky: the next plain run routes around bank 2
        // and stays clean.
        let run = sys.run_mv(&matrix, m, n, &vector).unwrap();
        assert!(run.output.iter().all(|&v| v == 512.0));
        assert_eq!(run.stats.ecc_uncorrectable, 0);
    }

    #[test]
    fn scheduler_hooks_expose_clock_and_retirement() {
        let mut sys = NewtonSystem::new(small_cfg(2)).unwrap();
        assert_eq!(sys.now(), 0);
        sys.advance_all_to(500);
        assert_eq!(sys.now(), 500);
        assert!(sys.channels().iter().all(|c| c.now() == 500));
        // Advancing never rewinds a channel clock.
        sys.advance_all_to(100);
        assert_eq!(sys.now(), 500);
        sys.recover_all().unwrap();

        sys.retire_bank(0, 3).unwrap();
        sys.retire_bank(0, 3).unwrap(); // idempotent
        assert_eq!(sys.retired_banks(), vec![(0, 3)]);
        assert!(sys.capacity_fraction() < 1.0);
        assert!(sys.retire_bank(2, 0).is_err(), "channel out of range");
        assert!(sys.retire_bank(0, 999).is_err(), "bank out of range");
        // The last usable bank of a channel can never be retired.
        let banks = sys.config().dram.banks;
        for b in 0..banks - 1 {
            sys.retire_bank(1, b).unwrap();
        }
        assert!(sys.retire_bank(1, banks - 1).is_err());
        // Retirement is visible to mappings: a run still works on the
        // reduced capacity of channel 0.
        let (m, n) = (8, 64);
        let matrix = vec![bf(1.0); m * n];
        let run = sys.run_mv(&matrix, m, n, &vec![bf(1.0); n]).unwrap();
        assert!(run.output.iter().all(|&v| v == 64.0));
    }

    #[test]
    fn recovery_report_serializes_into_snapshots() {
        let report = RecoveryReport {
            attempts: 3,
            scrub_rewrites: 1,
            retired_banks: vec![(0, 2), (1, 7)],
            capacity_fraction: 30.0 / 32.0,
        };
        let mut snap = newton_trace::MetricsSnapshot::new("probe");
        report.record_into(&mut snap, "recovery");
        let doc = newton_trace::JsonValue::parse(&snap.render()).unwrap();
        let scalars = doc.get("scalars").unwrap();
        assert_eq!(
            scalars.get("recovery/attempts").unwrap().as_f64(),
            Some(3.0)
        );
        assert_eq!(
            scalars.get("recovery/scrub_rewrites").unwrap().as_f64(),
            Some(1.0)
        );
        assert_eq!(
            scalars.get("recovery/retired_banks").unwrap().as_f64(),
            Some(2.0)
        );
        assert_eq!(
            scalars.get("recovery/retired_bank_list").unwrap().as_str(),
            Some("0:2,1:7")
        );
        assert_eq!(
            scalars.get("recovery/capacity_fraction").unwrap().as_f64(),
            Some(30.0 / 32.0)
        );
    }

    #[test]
    fn uncorrectable_errors_carry_the_channel_index() {
        let mut cfg = small_cfg(3);
        cfg.ecc = true;
        let (m, n) = (48, 512);
        let matrix = vec![bf(1.0); m * n];
        let vector = vec![bf(1.0); n];
        let mut sys = NewtonSystem::new(cfg).unwrap();
        let loaded = sys.load_matrix(&matrix, m, n).unwrap();
        let storage = sys.channels_mut()[1].channel_mut().storage_mut();
        storage.flip_bit(5, 0, 8).unwrap();
        storage.flip_bit(5, 0, 9).unwrap();
        let err = sys.run_resident(&loaded, &vector).unwrap_err();
        assert_eq!(
            err,
            AimError::Uncorrectable {
                channel: 1,
                bank: 5,
                row: 0
            }
        );
    }

    #[test]
    fn telemetry_flows_from_channels_to_merged_system_series() {
        let (m, n) = (48, 300);
        let matrix: Vec<Bf16> = (0..m * n)
            .map(|k| bf(((k % 23) as f32 - 11.0) / 8.0))
            .collect();
        let vector: Vec<Bf16> = (0..n).map(|k| bf(((k % 9) as f32 - 4.0) / 4.0)).collect();
        let mut cfg = small_cfg(4);
        cfg.telemetry = Some(crate::config::TelemetryConfig { window_cycles: 256 });
        let mut sys = NewtonSystem::new(cfg).unwrap();
        let run = sys.run_mv(&matrix, m, n, &vector).unwrap();

        // Every channel carries a sampled series; the merged series sums
        // their event counts exactly.
        let merged = run.merged_telemetry().expect("telemetry enabled");
        assert_eq!(merged.window_cycles(), 256);
        let mut activates = 0;
        for s in &run.channel_summaries {
            let t = s.telemetry.as_ref().expect("per-channel series");
            assert_eq!(t.totals().commands, s.commands);
            activates += t.totals().activates;
        }
        assert_eq!(merged.totals().activates, activates);
        assert_eq!(
            merged.totals().activates,
            run.channel_summaries
                .iter()
                .map(|s| s.stats.activates)
                .sum::<u64>()
        );
        assert!(merged.totals().energy_milli_pj > 0);

        // Host phases registered and exercised; COMP call counts are
        // simulation-deterministic (one per row-set per channel).
        let phases = sys.host_phases();
        let by_name: Vec<_> = phases.phases().iter().map(|p| p.name).collect();
        assert_eq!(by_name, HOST_PHASES);
        let comp = phases.phases().iter().find(|p| p.name == "comp").unwrap();
        assert_eq!(comp.calls, run.stats.row_sets);
        assert!(phases
            .phases()
            .iter()
            .all(|p| p.name == "comp" || p.calls == 1));

        // Telemetry off by default: no series.
        let mut plain = NewtonSystem::new(small_cfg(4)).unwrap();
        let run = plain.run_mv(&matrix, m, n, &vector).unwrap();
        assert!(run.merged_telemetry().is_none());
    }

    /// Which rows a run may skip scrubbing is a fact the storage keeps;
    /// byte-identity with the oracle is `tests/oracle_vs_production.rs`'s
    /// job.
    #[test]
    fn clean_runs_verify_the_matrix_rows_and_writes_unverify_theirs() {
        let (m, n) = (32, 512);
        let matrix: Vec<Bf16> = (0..m * n)
            .map(|k| bf(((k % 13) as f32 - 6.0) / 4.0))
            .collect();
        let vector: Vec<Bf16> = (0..n).map(|k| bf(((k % 5) as f32 - 2.0) / 2.0)).collect();
        let mut cfg = small_cfg(2);
        cfg.ecc = true;
        let mut sys = NewtonSystem::new(cfg).unwrap();
        let loaded = sys.load_matrix(&matrix, m, n).unwrap();
        let verified = |sys: &NewtonSystem, ch: usize| {
            let storage = sys.channels()[ch].channel().storage();
            let rows = storage.allocated_row_indices();
            rows.iter()
                .filter(|&&(b, r)| storage.row_verified(b, r))
                .count()
        };
        assert_eq!((verified(&sys, 0), verified(&sys, 1)), (0, 0), "loading");
        let clean = sys.run_resident(&loaded, &vector).unwrap();
        assert_eq!(clean.stats.ecc_corrected, 0);
        assert_eq!((verified(&sys, 0), verified(&sys, 1)), (16, 16));

        // A flip unverifies its row only; the next run corrects it, and the
        // one after that verifies it again.
        let storage = sys.channels_mut()[0].channel_mut().storage_mut();
        storage.flip_bit(1, 0, 7).unwrap();
        assert!(!storage.row_verified(1, 0));
        assert_eq!((verified(&sys, 0), verified(&sys, 1)), (15, 16));
        let run = sys.run_resident(&loaded, &vector).unwrap();
        assert_eq!(run.stats.ecc_corrected, 1, "the flipped row is scrubbed");
        assert_eq!(run.output, clean.output);
        assert!(!sys.channels()[0].channel().storage().row_verified(1, 0));
        let run = sys.run_resident(&loaded, &vector).unwrap();
        assert_eq!((run.stats.ecc_corrected, verified(&sys, 0)), (0, 16));

        // The oracle engine scrubs every row and keeps them verified; a
        // host write unverifies the row it lands in, not the matrix's.
        sys.set_timing_engine(TimingEngine::Reference);
        let run = sys.run_resident(&loaded, &vector).unwrap();
        assert_eq!((run.output, verified(&sys, 0)), (clean.output.clone(), 16));
        sys.set_timing_engine(TimingEngine::EventSkipping);
        sys.channels_mut()[0].enqueue_host_request(crate::controller::HostRequest {
            bank: 3,
            row: 4000,
            col: 0,
            write: Some(vec![0x5A; 32]),
        });
        let run = sys.run_resident(&loaded, &vector).unwrap();
        assert_eq!(run.output, clean.output);
        let storage = sys.channels()[0].channel().storage();
        assert!(!storage.row_verified(3, 4000) && storage.row_verified(3, 0));
    }

    #[test]
    fn opt_ladder_is_monotonically_faster() {
        let (m, n) = (64, 1024);
        let matrix = vec![bf(1.0); m * n];
        let vector = vec![bf(1.0); n];
        let mut times = Vec::new();
        for level in OptLevel::ladder() {
            let mut cfg = NewtonConfig::at_level(level);
            cfg.channels = 1;
            let mut sys = NewtonSystem::new(cfg).unwrap();
            let run = sys.run_mv(&matrix, m, n, &vector).unwrap();
            times.push((level, run.cycles));
        }
        for w in times.windows(2) {
            assert!(
                w[1].1 <= w[0].1,
                "{:?} ({}) should not be slower than {:?} ({})",
                w[1].0,
                w[1].1,
                w[0].0,
                w[0].1
            );
        }
        // And the full config is much faster than non-opt.
        assert!(times[0].1 > 5 * times[5].1, "{times:?}");
    }
}
