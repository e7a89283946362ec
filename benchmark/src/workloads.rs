//! The seven workloads.
//!
//! A workload is built once per process from the seed (input generation,
//! timed as the one-time part of `setup_s`) and then run in rounds. Every
//! round builds a fresh system, so what a round measures depends on the
//! code and the seed and never on how long the process has been alive.
//! Inside a round, `setup` (system build, weight load, warm-up) and `body`
//! (the queries) are timed separately; counters are read and outputs are
//! checked outside both timers.

use std::time::Instant;

use crate::api::{
    dot_error_bound, generator, interp, lower_mv, mix64, mv, reference, ArrivalPattern, Benchmark,
    Bf16, CampaignSpec, ChaosAction, ChaosEvent, ChaosPlan, DecodeStreamSpec, MvShape,
    NewtonConfig, NewtonSystem, ParallelPolicy, Program, ServeReport, Server, SystemRun,
    TelemetryConfig, TrafficConfig,
};
use crate::spans::Tracer;
use crate::stats::{median, percentile_nearest_rank, Fnv};

/// Full size, or streams cut to a tenth for `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    fn cut(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 10).max(1),
        }
    }
}

/// Host-phase nanoseconds read from `NewtonSystem::host_phases`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Phases {
    pub encode: u64,
    /// Drain with the COMP kernel's time taken out (the registry records
    /// comp as a sub-span of drain).
    pub drain: u64,
    pub comp: u64,
    pub merge: u64,
    pub snapshot: u64,
}

impl Phases {
    #[must_use]
    pub fn total(&self) -> u64 {
        self.encode + self.drain + self.comp + self.merge + self.snapshot
    }
}

/// Cumulative counters of a system, read through `Channel::summary` and
/// `host_phases`; a round reports the difference across its body.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    now: u64,
    tck_ns: f64,
    commands: u64,
    refreshes: u64,
    ecc_corrected: u64,
    ecc_uncorrectable: u64,
    bank_open_cycles: u64,
    banks: u64,
    telemetry_windows: u64,
    phases: Phases,
}

impl Counters {
    fn read(sys: &NewtonSystem) -> Counters {
        let now = sys.now();
        let mut c = Counters {
            now,
            ..Counters::default()
        };
        for ch in sys.channels() {
            let s = ch.channel().summary(now);
            c.tck_ns = s.tck_ns;
            c.commands += s.commands;
            c.refreshes += s.stats.refreshes;
            c.ecc_corrected += s.stats.ecc_corrected;
            c.ecc_uncorrectable += s.stats.ecc_uncorrectable;
            c.bank_open_cycles += s.bank_open_cycles;
            c.banks += s.residency.len() as u64;
            let windows = s.telemetry.map_or(0, |t| t.windows().len() as u64);
            c.telemetry_windows = c.telemetry_windows.max(windows);
        }
        let nanos = |name: &str| {
            sys.host_phases()
                .phases()
                .iter()
                .find(|p| p.name == name)
                .map_or(0, |p| p.nanos)
        };
        let comp = nanos("comp");
        c.phases = Phases {
            encode: nanos("encode"),
            drain: nanos("drain").saturating_sub(comp),
            comp,
            merge: nanos("merge"),
            snapshot: nanos("snapshot"),
        };
        c
    }
}

/// AiM command counts of the body's queries, from `SystemRun::stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Commands {
    pub act: u64,
    pub comp: u64,
    pub gwrite: u64,
    pub readres: u64,
    pub row_sets: u64,
}

/// Schedule-replay counters of the body's queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Replay {
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub replayed_commands: u64,
}

/// What `Server::serve` reported, beyond the end-to-end numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeObs {
    pub shed: u64,
    pub expired: u64,
    pub late: u64,
    pub retries: u64,
    pub replans: u64,
    pub sdc: u64,
    pub capacity_fraction: f64,
    pub p50_ns: f64,
    pub p999_ns: f64,
    pub energy_pj: f64,
}

/// Instruction counts of one `isa_trace` round, for the rates per second.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IsaObs {
    pub parsed_instrs: u64,
    pub interpreted_instrs: u64,
}

/// One round of a workload.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub setup_s: f64,
    pub body_s: f64,
    pub offered: u64,
    pub completed: u64,
    pub failed: u64,
    /// Simulated DRAM commands issued during the body, all channels.
    pub commands: u64,
    /// Simulated cycles the system advanced during the body.
    pub sim_cycles: u64,
    pub sim_span_ns: f64,
    pub sim_p99_ns: f64,
    /// FNV-1a over output bits, per-query cycles and command counts.
    pub digest: u64,
    pub phases: Phases,
    pub aim: Commands,
    pub replay: Replay,
    pub refreshes: u64,
    pub ecc_corrected: u64,
    pub ecc_uncorrectable: u64,
    pub bank_open_share: f64,
    pub telemetry_windows: u64,
    pub validate_audit_ms: Option<f64>,
    pub serve: Option<ServeObs>,
    pub isa: Option<IsaObs>,
}

impl Round {
    fn add_counters(&mut self, before: &Counters, after: &Counters) {
        self.commands = after.commands - before.commands;
        self.sim_cycles = after.now - before.now;
        self.refreshes = after.refreshes - before.refreshes;
        self.ecc_corrected = after.ecc_corrected - before.ecc_corrected;
        self.ecc_uncorrectable = after.ecc_uncorrectable - before.ecc_uncorrectable;
        self.bank_open_share = if after.banks == 0 || after.now == 0 {
            0.0
        } else {
            after.bank_open_cycles as f64 / (after.banks * after.now) as f64
        };
        self.telemetry_windows = after.telemetry_windows;
        self.phases = Phases {
            encode: after.phases.encode - before.phases.encode,
            drain: after.phases.drain - before.phases.drain,
            comp: after.phases.comp - before.phases.comp,
            merge: after.phases.merge - before.phases.merge,
            snapshot: after.phases.snapshot - before.phases.snapshot,
        };
    }
}

/// A GEMV the set-up probe runs cold against Ideal Non-PIM.
pub struct ProbeCase<'a> {
    pub shape: MvShape,
    pub matrix: &'a [Bf16],
    pub vector: &'a [Bf16],
}

pub trait Workload {
    fn config(&self) -> &NewtonConfig;
    /// The workload's GEMV shapes with operands, for `sim_speedup_vs_ideal`.
    fn probe_cases(&self) -> Vec<ProbeCase<'_>>;
    /// Runs one round on a fresh system. `first` asks for the checks that
    /// run once per process (`validate_audit`).
    fn round(&mut self, t: &mut Tracer, first: bool) -> Result<Round, String>;
    /// Per-layer values the rounds do not give: ones that need runs of
    /// their own, or that building the workload measured (traced pass only).
    fn extras(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(Vec::new())
    }
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn config(channels: usize, ecc: bool, telemetry: bool) -> NewtonConfig {
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = channels;
    cfg.ecc = ecc;
    cfg.telemetry = telemetry.then(TelemetryConfig::default);
    cfg.parallel = ParallelPolicy::exact(1);
    cfg
}

/// Independent generator seeds drawn from the run's seed.
fn sub_seed(seed: u64, salt: u64) -> u64 {
    mix64(mix64(seed) ^ salt)
}

/// Whether an output misses the bf16 error bound against the exact
/// reference.
pub fn out_of_bound(output: &[f32], want: &[f64], n: usize) -> bool {
    output.len() != want.len()
        || output.iter().zip(want).any(|(got, want)| {
            (f64::from(*got) - want).abs() > dot_error_bound(n, 16, want.abs().max(1.0))
        })
}

/// Outputs, cycles and AiM counters of the body's queries, kept so that
/// hashing and checking happen after the timer stops.
#[derive(Default)]
struct QueryLog {
    outputs: Vec<Vec<f32>>,
    elapsed_ns: Vec<f64>,
    cycles: Vec<u64>,
    aim: Commands,
    replay: Replay,
}

impl QueryLog {
    fn with_capacity(n: usize) -> QueryLog {
        QueryLog {
            outputs: Vec::with_capacity(n),
            elapsed_ns: Vec::with_capacity(n),
            cycles: Vec::with_capacity(n),
            ..QueryLog::default()
        }
    }

    fn record(&mut self, run: SystemRun) {
        let s = &run.stats;
        self.aim.act += s.activate_commands;
        self.aim.comp += s.compute_commands;
        self.aim.gwrite += s.gwrite_commands;
        self.aim.readres += s.readres_commands;
        self.aim.row_sets += s.row_sets;
        self.replay.hits += s.schedule_hits;
        self.replay.misses += s.schedule_misses;
        self.replay.invalidations += s.schedule_invalidations;
        self.replay.replayed_commands += s.replayed_commands;
        self.cycles.push(run.cycles);
        self.elapsed_ns.push(run.elapsed_ns);
        self.outputs.push(run.output);
    }

    /// Fills the round's simulated numbers and its digest.
    fn finish(self, round: &mut Round) {
        let mut h = Fnv::default();
        for (out, cycles) in self.outputs.iter().zip(&self.cycles) {
            h.f32s(out);
            h.u64(*cycles);
        }
        for v in [
            round.commands,
            self.aim.act,
            self.aim.comp,
            self.aim.gwrite,
            self.aim.readres,
            self.aim.row_sets,
            round.refreshes,
        ] {
            h.u64(v);
        }
        round.digest = h.finish();
        round.sim_p99_ns = percentile_nearest_rank(&self.elapsed_ns, 0.99);
        round.aim = self.aim;
        round.replay = self.replay;
    }
}

// ---------------------------------------------------------------------
// bert_resident, bert_observed, decode_stream: a stream of run_resident
// calls against one resident matrix.
// ---------------------------------------------------------------------

pub struct ResidentStream {
    cfg: NewtonConfig,
    shape: MvShape,
    matrix: Vec<Bf16>,
    /// Distinct inputs; query `q` uses input `q % inputs.len()`.
    inputs: Vec<Vec<Bf16>>,
    references: Vec<Vec<f64>>,
    warm: usize,
    body: usize,
    /// Attach command trace and timing audit to every channel.
    observed: bool,
}

impl ResidentStream {
    fn new(
        cfg: NewtonConfig,
        shape: MvShape,
        matrix: Vec<Bf16>,
        inputs: Vec<Vec<Bf16>>,
        warm: usize,
        body: usize,
    ) -> ResidentStream {
        ResidentStream {
            cfg,
            shape,
            matrix,
            inputs,
            references: Vec::new(),
            warm,
            body,
            observed: false,
        }
    }

    /// Exact references, computed outside `setup_s`: they serve the check,
    /// not the program.
    fn with_references(mut self) -> ResidentStream {
        self.references = self
            .inputs
            .iter()
            .map(|v| reference::mv_f64(&self.matrix, self.shape.m, self.shape.n, v))
            .collect();
        self
    }

    /// The stream `extras` measures this one against: the same queries with
    /// the observers (`bert_observed`) or the telemetry (`decode_stream`)
    /// taken away.
    fn twin(&self) -> Option<(&'static str, ResidentStream)> {
        let name = if self.observed {
            "core.controller.observed_slowdown"
        } else if self.cfg.telemetry.is_some() {
            "trace.telemetry_overhead_pct"
        } else {
            return None;
        };
        let mut cfg = self.cfg.clone();
        cfg.telemetry = None;
        let mut twin = ResidentStream::new(
            cfg,
            self.shape,
            self.matrix.clone(),
            self.inputs.clone(),
            self.warm,
            self.body,
        );
        twin.references = self.references.clone();
        Some((name, twin))
    }

    /// Median host microseconds per query over `rounds` untraced rounds.
    fn median_us_per_query(&mut self, rounds: usize) -> Result<f64, String> {
        let mut t = Tracer::new();
        let mut samples = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let r = self.round(&mut t, false)?;
            samples.push(r.body_s * 1e6 / r.completed.max(1) as f64);
        }
        Ok(median(&samples))
    }
}

impl Workload for ResidentStream {
    fn config(&self) -> &NewtonConfig {
        &self.cfg
    }

    fn probe_cases(&self) -> Vec<ProbeCase<'_>> {
        vec![ProbeCase {
            shape: self.shape,
            matrix: &self.matrix,
            vector: &self.inputs[0],
        }]
    }

    fn round(&mut self, t: &mut Tracer, first: bool) -> Result<Round, String> {
        let MvShape { m, n } = self.shape;
        let inputs = &self.inputs;

        let setup = t.begin("bench.setup", 0);
        let started = Instant::now();
        let s = t.begin("core.system.new", 0);
        let mut sys = NewtonSystem::new(self.cfg.clone()).map_err(err("system"))?;
        t.end(s);
        if self.observed {
            for ch in sys.channels_mut() {
                ch.enable_trace();
                ch.channel_mut().enable_audit();
            }
        }
        let s = t.begin("core.system.load_matrix", 0);
        let loaded = sys.load_matrix(&self.matrix, m, n).map_err(err("load"))?;
        t.end(s);
        for w in 0..self.warm {
            sys.run_resident(&loaded, &inputs[w % inputs.len()])
                .map_err(err("warm-up"))?;
        }
        let setup_s = started.elapsed().as_secs_f64();
        t.end(setup);

        let before = Counters::read(&sys);
        let mut log = QueryLog::with_capacity(self.body);
        let body = t.begin("bench.body", 0);
        let started = Instant::now();
        for q in 0..self.body {
            let s = t.begin("core.system.run_resident", q as u32);
            let run = sys.run_resident(&loaded, &inputs[q % inputs.len()]);
            t.end(s);
            log.record(run.map_err(err("run_resident"))?);
        }
        let body_s = started.elapsed().as_secs_f64();
        t.end(body);
        let after = Counters::read(&sys);

        let mut round = Round {
            setup_s,
            body_s,
            offered: self.body as u64,
            completed: self.body as u64,
            sim_span_ns: (after.now - before.now) as f64 * after.tck_ns,
            ..Round::default()
        };
        round.add_counters(&before, &after);
        round.failed = log
            .outputs
            .iter()
            .enumerate()
            .filter(|(q, out)| out_of_bound(out, &self.references[q % inputs.len()], n))
            .count() as u64;
        if self.observed && first {
            let started = Instant::now();
            let audit: Result<(), String> = sys
                .channels()
                .iter()
                .try_for_each(|ch| ch.validate_audit().map_err(err("validate_audit")));
            round.validate_audit_ms = Some(started.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = audit {
                eprintln!("{e}");
                round.failed = round.offered;
            }
        }
        log.finish(&mut round);
        Ok(round)
    }

    fn extras(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        let Some((name, mut twin)) = self.twin() else {
            return Ok(Vec::new());
        };
        let own = self.median_us_per_query(3)?;
        let other = twin.median_us_per_query(3)?;
        let value = if self.observed {
            own / other
        } else {
            100.0 * (own - other) / other
        };
        Ok(vec![(name, value)])
    }
}

fn bert(seed: u64, scale: Scale, observed: bool) -> ResidentStream {
    let shape = Benchmark::BertS1.shape();
    let matrix = generator::matrix(shape, sub_seed(seed, 0xB1));
    let inputs = generator::batch(shape.n, 4, sub_seed(seed, 0xB2));
    if !observed {
        return ResidentStream::new(
            config(1, false, false),
            shape,
            matrix,
            inputs,
            4,
            scale.cut(160),
        );
    }
    let mut w = ResidentStream::new(
        config(1, false, true),
        shape,
        matrix,
        inputs,
        4,
        scale.cut(32),
    );
    w.observed = true;
    w
}

fn decode_stream(seed: u64, scale: Scale) -> ResidentStream {
    let tokens = scale.cut(1920);
    let spec = DecodeStreamSpec::new(64, 1024, tokens, mix64(seed));
    let shape = MvShape::new(spec.m, spec.n);
    // Set-up is the load plus one token, which captures the schedule.
    ResidentStream::new(
        config(2, true, true),
        shape,
        spec.matrix(),
        spec.token_inputs(),
        1,
        tokens,
    )
}

// ---------------------------------------------------------------------
// serve_poisson, serve_chaos: one Server::serve call per round.
// ---------------------------------------------------------------------

const SERVE_SHAPE: MvShape = MvShape::new(64, 1024);
const SERVE_DISTINCT_INPUTS: usize = 4;
/// The arrival trace and the fault coordinates belong to the workload's
/// definition, like its rate and its deadline: the run's seed draws the
/// weights and the inputs, not the schedule. Simulated latency is then the
/// same for every seed, so the driver, which compares medians over seeds,
/// can hold it to a tight bound; a p99 over 2000 Poisson arrivals drawn
/// afresh per seed moved by 10 to 15 % from seed to seed.
const ARRIVAL_SEED: u64 = 0x0A11_71AF_F1C0_0001;
const CAMPAIGN_SEED: u64 = 0x0FA0_17C0_0D1E_0001;
/// Rates of the simulated ladder, queries per simulated microsecond.
pub const LADDER_RATES: [f64; 6] = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2];

pub struct ServeCell {
    cfg: NewtonConfig,
    matrix: Vec<Bf16>,
    input_seed: u64,
    /// The server's first canonical input, for the set-up probe.
    probe_vector: Vec<Bf16>,
    traffic: TrafficConfig,
    chaos: ChaosPlan,
    ladder_requests: usize,
}

fn traffic(rate_per_us: f64, requests: usize, seed: u64) -> TrafficConfig {
    TrafficConfig {
        pattern: ArrivalPattern::Poisson { rate_per_us },
        requests,
        seed,
        deadline_ns: 100_000.0,
        queue_capacity: 32,
        max_batch: 8,
        retry_backoff_cycles: 256,
        conventional: None,
    }
}

/// The BER 1e-5 campaign of the `serve` bin, sized to the resident matrix
/// with a floor of one double-bit word so the scrub / retry rung runs.
fn ber_1e5(seed: u64, shape: MvShape, channels: usize) -> CampaignSpec {
    let bits_per_channel = (shape.m * shape.n * 16 / channels) as f64;
    let singles = (1e-5 * bits_per_channel).round() as usize;
    let doubles = (singles / 8).max(1);
    CampaignSpec {
        seed,
        single_bit_flips: singles.saturating_sub(2 * doubles),
        double_bit_words: doubles,
        stuck_cells: 0,
        retention: None,
    }
}

fn serve(seed: u64, scale: Scale, chaos: bool) -> ServeCell {
    let cfg = config(2, true, true);
    let requests = scale.cut(2000);
    let chaos = if chaos {
        ChaosPlan {
            events: vec![
                ChaosEvent {
                    after_completed: (requests / 8) as u64,
                    action: ChaosAction::Faults(ber_1e5(CAMPAIGN_SEED, SERVE_SHAPE, cfg.channels)),
                },
                ChaosEvent {
                    after_completed: (requests / 2) as u64,
                    action: ChaosAction::StuckWord {
                        channel: 0,
                        bank: 2,
                    },
                },
            ],
        }
    } else {
        ChaosPlan::none()
    };
    let input_seed = sub_seed(seed, 0x5C);
    ServeCell {
        cfg,
        matrix: generator::matrix(SERVE_SHAPE, sub_seed(seed, 0x5A)),
        input_seed,
        probe_vector: generator::vector(SERVE_SHAPE.n, input_seed),
        traffic: traffic(0.4, requests, ARRIVAL_SEED),
        chaos,
        ladder_requests: scale.cut(600),
    }
}

impl ServeCell {
    fn server(&self) -> Result<Server, String> {
        Server::new(
            self.cfg.clone(),
            self.matrix.clone(),
            SERVE_SHAPE.m,
            SERVE_SHAPE.n,
            SERVE_DISTINCT_INPUTS,
            self.input_seed,
        )
        .map_err(err("server"))
    }
}

/// Requests that did not get a correct answer in time.
fn serve_failures(r: &ServeReport) -> u64 {
    (r.shed + r.expired + r.late_completions + r.sdc.min(r.completed)).min(r.offered)
}

impl Workload for ServeCell {
    fn config(&self) -> &NewtonConfig {
        &self.cfg
    }

    fn probe_cases(&self) -> Vec<ProbeCase<'_>> {
        vec![ProbeCase {
            shape: SERVE_SHAPE,
            matrix: &self.matrix,
            vector: &self.probe_vector,
        }]
    }

    fn round(&mut self, t: &mut Tracer, _first: bool) -> Result<Round, String> {
        let setup = t.begin("bench.setup", 0);
        let started = Instant::now();
        let s = t.begin("serve.server.new", 0);
        let mut server = self.server()?;
        t.end(s);
        let setup_s = started.elapsed().as_secs_f64();
        t.end(setup);

        let before = Counters::read(server.system());
        let body = t.begin("bench.body", 0);
        let started = Instant::now();
        let s = t.begin("serve.server.serve", 0);
        let report = server.serve(&self.traffic, &self.chaos);
        t.end(s);
        let body_s = started.elapsed().as_secs_f64();
        t.end(body);
        let r = report.map_err(err("serve"))?;
        let after = Counters::read(server.system());

        let mut round = Round {
            setup_s,
            body_s,
            offered: r.offered,
            completed: r.completed,
            failed: serve_failures(&r),
            sim_span_ns: r.span_ns,
            sim_p99_ns: r.p99_ns,
            replay: Replay {
                hits: r.schedule_hits,
                misses: r.schedule_misses,
                invalidations: r.schedule_invalidations,
                replayed_commands: r.replayed_commands,
            },
            serve: Some(ServeObs {
                shed: r.shed,
                expired: r.expired,
                late: r.late_completions,
                retries: r.retries,
                replans: r.replans,
                sdc: r.sdc,
                capacity_fraction: r.recovery.capacity_fraction,
                p50_ns: r.p50_ns,
                p999_ns: r.p999_ns,
                energy_pj: r.energy_pj,
            }),
            ..Round::default()
        };
        round.add_counters(&before, &after);
        let mut h = Fnv::default();
        for v in [
            r.offered,
            r.completed,
            r.shed,
            r.expired,
            r.late_completions,
            r.retries,
            r.replans,
            r.injected_faults,
            r.sdc,
            r.recovery.scrub_rewrites,
            r.recovery.retired_banks.len() as u64,
            round.commands,
            round.refreshes,
            round.ecc_corrected,
            round.ecc_uncorrectable,
        ] {
            h.u64(v);
        }
        for v in [
            r.p50_ns,
            r.p99_ns,
            r.p999_ns,
            r.max_ns,
            r.span_ns,
            r.energy_pj,
        ] {
            h.f64(v);
        }
        round.digest = h.finish();
        Ok(round)
    }

    /// The simulated rate ladder: p99 at each rate and the highest rate at
    /// which nothing is shed, expired or late. Arrivals are simulated, so
    /// the generator cannot run late.
    fn extras(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        let mut out = Vec::new();
        let mut max_rate = 0.0;
        let mut unbroken = true;
        for rate in LADDER_RATES {
            let mut server = self.server()?;
            let rung = traffic(rate, self.ladder_requests, self.traffic.seed);
            let r = server.serve(&rung, &self.chaos).map_err(err("ladder"))?;
            unbroken &= r.shed + r.expired + r.late_completions == 0;
            if unbroken {
                max_rate = rate;
            }
            for (at, name) in [
                (0.2, "serve.sim_p99_ns_at_0.2"),
                (0.8, "serve.sim_p99_ns_at_0.8"),
                (1.2, "serve.sim_p99_ns_at_1.2"),
            ] {
                if rate == at {
                    out.push((name, r.p99_ns));
                }
            }
        }
        out.push(("serve.sim_max_rate_per_us", max_rate));
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// table2_cold: the paper's eight layers, each by run_mv.
// ---------------------------------------------------------------------

struct Layer {
    shape: MvShape,
    matrix: Vec<Bf16>,
    vector: Vec<Bf16>,
    reference: Vec<f64>,
}

pub struct Table2Cold {
    cfg: NewtonConfig,
    layers: Vec<Layer>,
}

fn table2_cold(seed: u64) -> Table2Cold {
    let layers = Benchmark::all()
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let shape = b.shape();
            Layer {
                shape,
                matrix: generator::matrix(shape, sub_seed(seed, 0x7200 + i as u64)),
                vector: generator::vector(shape.n, sub_seed(seed, 0x7300 + i as u64)),
                reference: Vec::new(),
            }
        })
        .collect();
    let mut cfg = NewtonConfig::paper_default();
    cfg.parallel = ParallelPolicy::exact(1);
    Table2Cold { cfg, layers }
}

impl Workload for Table2Cold {
    fn config(&self) -> &NewtonConfig {
        &self.cfg
    }

    fn probe_cases(&self) -> Vec<ProbeCase<'_>> {
        self.layers
            .iter()
            .map(|l| ProbeCase {
                shape: l.shape,
                matrix: &l.matrix,
                vector: &l.vector,
            })
            .collect()
    }

    fn round(&mut self, t: &mut Tracer, _first: bool) -> Result<Round, String> {
        let setup = t.begin("bench.setup", 0);
        let started = Instant::now();
        let s = t.begin("core.system.new", 0);
        let mut sys = NewtonSystem::new(self.cfg.clone()).map_err(err("system"))?;
        t.end(s);
        let setup_s = started.elapsed().as_secs_f64();
        t.end(setup);

        let before = Counters::read(&sys);
        let mut log = QueryLog::with_capacity(self.layers.len());
        let body = t.begin("bench.body", 0);
        let started = Instant::now();
        for (q, l) in self.layers.iter().enumerate() {
            let s = t.begin("core.system.run_mv", q as u32);
            let run = sys.run_mv(&l.matrix, l.shape.m, l.shape.n, &l.vector);
            t.end(s);
            log.record(run.map_err(err("run_mv"))?);
        }
        let body_s = started.elapsed().as_secs_f64();
        t.end(body);
        let after = Counters::read(&sys);

        let mut round = Round {
            setup_s,
            body_s,
            offered: self.layers.len() as u64,
            completed: self.layers.len() as u64,
            sim_span_ns: (after.now - before.now) as f64 * after.tck_ns,
            ..Round::default()
        };
        round.add_counters(&before, &after);
        round.failed = log
            .outputs
            .iter()
            .zip(&self.layers)
            .filter(|(out, l)| out_of_bound(out, &l.reference, l.shape.n))
            .count() as u64;
        log.finish(&mut round);
        Ok(round)
    }
}

// ---------------------------------------------------------------------
// isa_trace: text trace -> parse -> recognise -> replay, plus interpret.
// ---------------------------------------------------------------------

pub struct IsaTrace {
    cfg: NewtonConfig,
    shape: MvShape,
    matrix: Vec<Bf16>,
    vector: Vec<Bf16>,
    /// The lowered BERT S1 trace as `.aim` text.
    text: String,
    text_instrs: u64,
    /// Output bits of `run_mv` on the same operands.
    golden: Vec<u32>,
    small_shape: MvShape,
    small_matrix: Vec<Bf16>,
    small_vector: Vec<Bf16>,
    small: Program,
    /// The interpreter's readout log of the first round.
    small_log: Option<String>,
    lower_ms: f64,
    render_ms: f64,
}

fn isa_trace(seed: u64, scale: Scale) -> Result<IsaTrace, String> {
    let cfg = config(2, false, false);
    let shape = match scale {
        Scale::Full => Benchmark::BertS1.shape(),
        Scale::Smoke => MvShape::new(128, 1024),
    };
    let matrix = generator::matrix(shape, sub_seed(seed, 0x15A1));
    let vector = generator::vector(shape.n, sub_seed(seed, 0x15A2));
    let started = Instant::now();
    let program = lower_mv(&cfg, &matrix, shape.m, shape.n, &vector).map_err(err("lower_mv"))?;
    let lower_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let text = program.render();
    let render_ms = started.elapsed().as_secs_f64() * 1e3;

    // `interpret` of the lowered BERT S1 trace fails today with
    // RefreshOverdue (recorded in the README), so the interpreter leg runs
    // a smaller trace.
    let small_shape = MvShape::new(scale.cut(256).max(32), 1024);
    let small_matrix = generator::matrix(small_shape, sub_seed(seed, 0x15A3));
    let small_vector = generator::vector(small_shape.n, sub_seed(seed, 0x15A4));
    let small = lower_mv(
        &cfg,
        &small_matrix,
        small_shape.m,
        small_shape.n,
        &small_vector,
    )
    .map_err(err("lower_mv"))?;
    Ok(IsaTrace {
        cfg,
        shape,
        matrix,
        vector,
        text,
        text_instrs: program.instrs.len() as u64,
        golden: Vec::new(),
        small_shape,
        small_matrix,
        small_vector,
        small,
        small_log: None,
        lower_ms,
        render_ms,
    })
}

impl Workload for IsaTrace {
    fn config(&self) -> &NewtonConfig {
        &self.cfg
    }

    fn probe_cases(&self) -> Vec<ProbeCase<'_>> {
        vec![
            ProbeCase {
                shape: self.shape,
                matrix: &self.matrix,
                vector: &self.vector,
            },
            ProbeCase {
                shape: self.small_shape,
                matrix: &self.small_matrix,
                vector: &self.small_vector,
            },
        ]
    }

    fn round(&mut self, t: &mut Tracer, _first: bool) -> Result<Round, String> {
        let body = t.begin("bench.body", 0);
        let started = Instant::now();
        let s = t.begin("isa.program.parse", 0);
        let program = Program::parse(&self.text);
        t.end(s);
        let program = program.map_err(err("parse"))?;
        let s = t.begin("isa.mv.recognize", 0);
        let trace = mv::recognize(&program);
        t.end(s);
        let trace = trace.map_err(err("recognize"))?;
        let s = t.begin("core.system.new", 0);
        let mut sys = NewtonSystem::new(self.cfg.clone()).map_err(err("system"))?;
        t.end(s);
        let s = t.begin("isa.mv.apply_physical", 0);
        let loaded = trace.apply_physical(&mut sys);
        t.end(s);
        let loaded = loaded.map_err(err("apply_physical"))?;
        let s = t.begin("core.system.run_resident", 0);
        let run = sys.run_resident(&loaded, &trace.vector);
        t.end(s);
        let run = run.map_err(err("run_resident"))?;
        let s = t.begin("isa.interp.interpret", 0);
        let interpreted = interp::interpret(&self.small, self.cfg.clone());
        t.end(s);
        let interpreted = interpreted.map_err(err("interpret"))?;
        let body_s = started.elapsed().as_secs_f64();
        t.end(body);

        // The replayed system starts at cycle 0, so its counters are the
        // round's; the interpreter's own system is not visible from here.
        let after = Counters::read(&sys);
        let interp_cycles = interpreted.end_cycles.iter().copied().max().unwrap_or(0);
        let mut round = Round {
            body_s,
            offered: 1,
            completed: 1,
            sim_span_ns: run.elapsed_ns,
            isa: Some(IsaObs {
                parsed_instrs: program.instrs.len() as u64,
                interpreted_instrs: self.small.instrs.len() as u64,
            }),
            ..Round::default()
        };
        round.add_counters(&Counters::default(), &after);
        round.sim_cycles += interp_cycles;

        let bits: Vec<u32> = run.output.iter().map(|x| x.to_bits()).collect();
        let log_matches = match &self.small_log {
            Some(first) => *first == interpreted.log,
            None => {
                self.small_log = Some(interpreted.log.clone());
                true
            }
        };
        round.failed = u64::from(
            bits != self.golden || !log_matches || program.instrs.len() as u64 != self.text_instrs,
        );
        let mut log = QueryLog::with_capacity(1);
        log.record(run);
        log.finish(&mut round);
        let mut h = Fnv::default();
        h.u64(round.digest);
        h.bytes(interpreted.log.as_bytes());
        h.u64(interp_cycles);
        h.u64(interpreted.aim_ops);
        round.digest = h.finish();
        Ok(round)
    }

    fn extras(&mut self) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(vec![
            ("isa.lower_ms", self.lower_ms),
            ("isa.render_ms", self.render_ms),
        ])
    }
}

/// A workload's inputs, generated from the seed; what `setup_s` counts as
/// one-time input generation is the time `generate` takes.
pub enum Inputs {
    Resident(ResidentStream),
    Serve(ServeCell),
    Table2(Table2Cold),
    Isa(Box<IsaTrace>),
}

/// Generates the inputs of workload `name` from `seed`.
///
/// # Errors
///
/// An unknown name, or a library error while lowering the ISA traces.
pub fn generate(name: &str, seed: u64, scale: Scale) -> Result<Inputs, String> {
    Ok(match name {
        "bert_resident" => Inputs::Resident(bert(seed, scale, false)),
        "bert_observed" => Inputs::Resident(bert(seed, scale, true)),
        "decode_stream" => Inputs::Resident(decode_stream(seed, scale)),
        "serve_poisson" => Inputs::Serve(serve(seed, scale, false)),
        "serve_chaos" => Inputs::Serve(serve(seed, scale, true)),
        "table2_cold" => Inputs::Table2(table2_cold(seed)),
        "isa_trace" => Inputs::Isa(Box::new(isa_trace(seed, scale)?)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

impl Inputs {
    /// Adds what the output check needs (exact references, the `run_mv`
    /// golden); this serves the check, not the program, so it is not part
    /// of `setup_s`.
    ///
    /// # Errors
    ///
    /// Library errors from the golden run.
    pub fn into_workload(self) -> Result<Box<dyn Workload>, String> {
        Ok(match self {
            Inputs::Resident(r) => Box::new(r.with_references()),
            Inputs::Serve(s) => Box::new(s),
            Inputs::Table2(mut t) => {
                for l in &mut t.layers {
                    l.reference = reference::mv_f64(&l.matrix, l.shape.m, l.shape.n, &l.vector);
                }
                Box::new(t)
            }
            Inputs::Isa(mut i) => {
                let mut sys = NewtonSystem::new(i.cfg.clone()).map_err(err("system"))?;
                let run = sys
                    .run_mv(&i.matrix, i.shape.m, i.shape.n, &i.vector)
                    .map_err(err("run_mv"))?;
                i.golden = run.output.iter().map(|x| x.to_bits()).collect();
                i
            }
        })
    }
}
