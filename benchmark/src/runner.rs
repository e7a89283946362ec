//! Runs one workload in this process and turns its rounds into metrics.
//!
//! Untraced (`--trace 0`): rounds until the time is up, end-to-end metrics.
//! Host metrics are medians over rounds; simulated metrics must be the
//! same in every round or the run aborts. Traced (`--trace 1`): rounds
//! alternate between spans off and spans on, so the tracing overhead is
//! measured inside the run, and the per-layer metrics come from the traced
//! rounds, the library's host-phase registry and the isolated probes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::api::JsonValue;
use crate::probes;
use crate::spans::{self, Tracer};
use crate::spec::{self, Kind};
use crate::stats::{digest_hex, median, percentile_nearest_rank, quartiles, spread};
use crate::workloads::{generate, Inputs, Round, Scale};
use crate::Options;

/// One reported metric. Host metrics carry the per-round samples they are
/// the median of; exact metrics carry none.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: Vec::new(),
        }
    }

    fn median_of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            value: median(&samples),
            samples,
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: usize,
    pub wall_s: f64,
    pub config_digest: String,
    pub sim_digest: String,
    pub metrics: Vec<Metric>,
}

/// How often an untraced run generates its inputs: once before the first
/// round and then at even intervals through the measured time, so that the
/// one-time part of `setup_s` is a median over the same seconds the rounds
/// are. Three generations at the start of a run read 0.18 s and 0.25 s in
/// two back-to-back runs of `table2_cold` while a neighbour of this virtual
/// machine was busy.
const GENERATE_SAMPLES: u32 = 11;

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn us_per_query(r: &Round) -> f64 {
    r.body_s * 1e6 / r.completed.max(1) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs the workload and computes its metrics.
///
/// # Errors
///
/// Library errors, or simulated results that differ between rounds.
pub fn run(args: &Options, workload: &str) -> Result<Outcome, String> {
    let wall = Instant::now();
    let decl = spec::workload(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let timed_generate = || -> Result<(Inputs, f64), String> {
        let t = Instant::now();
        let inputs = generate(decl.name, args.seed, args.scale)?;
        Ok((inputs, t.elapsed().as_secs_f64()))
    };
    let (inputs, first_generate_s) = timed_generate()?;
    let mut generate_s = vec![first_generate_s];
    let t = Instant::now();
    let mut workload = inputs.into_workload()?;
    let check_s = t.elapsed().as_secs_f64();
    let probe = probes::speedup_vs_ideal(workload.as_ref())?;
    let config_digest = digest_hex(&format!("{:?}", workload.config()));
    println!(
        "{}: seed {}, inputs {first_generate_s:.3} s, references {check_s:.3} s, \
         ideal probe {:.3} s, config {config_digest}",
        decl.name, args.seed, probe.wall_s
    );

    let started = Instant::now();
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    if args.trace {
        layer.extend(workload.extras()?);
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let min_rounds = match (args.scale, args.trace) {
        (Scale::Smoke, false) => 1,
        (Scale::Smoke, true) => 2,
        (Scale::Full, false) => 3,
        (Scale::Full, true) => 4,
    };
    let mut tracer = Tracer::new();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let index = rounds.len();
        tracer.start_round(index as u32, args.trace && index % 2 == 1);
        let root = tracer.begin("bench.round", 0);
        let round = workload.round(&mut tracer, index == 0);
        tracer.end(root);
        let round = round?;
        if let Some(first) = rounds.first() {
            let same = first.digest == round.digest
                && first.sim_span_ns.to_bits() == round.sim_span_ns.to_bits()
                && first.sim_p99_ns.to_bits() == round.sim_p99_ns.to_bits()
                && (first.offered, first.completed, first.failed)
                    == (round.offered, round.completed, round.failed);
            if !same {
                return Err(format!(
                    "{}: round {index} diverged from round 0 (digest {:016x} vs {:016x}); \
                     simulated results must be a function of the code and the seed",
                    decl.name, round.digest, first.digest
                ));
            }
        }
        rounds.push(round);
        let elapsed = started.elapsed();
        if rounds.len() >= min_rounds && (args.scale == Scale::Smoke || elapsed >= budget) {
            break;
        }
        let due = budget * generate_s.len() as u32 / GENERATE_SAMPLES;
        if !args.trace && args.scale == Scale::Full && elapsed >= due {
            generate_s.push(timed_generate()?.1);
        }
    }

    let first = &rounds[0];
    let attempted = rounds.iter().map(|r| r.offered).sum::<u64>() + probe.cases;
    let failed = rounds.iter().map(|r| r.failed).sum::<u64>() + probe.failed;
    let metrics = if args.trace {
        per_layer(&rounds, &tracer, &probe, layer, args.seed)?
    } else {
        end_to_end(
            &rounds,
            median(&generate_s),
            &probe,
            ratio(failed as f64, attempted as f64),
        )
    };
    if args.trace {
        let path = args.out_dir.join(format!("trace-{}.json", decl.name));
        std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| {
                std::fs::write(&path, spans::to_json(decl.name, tracer.spans()).render())
            })
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    Ok(Outcome {
        workload: decl.name,
        seed: args.seed,
        traced: args.trace,
        correct: failed == 0,
        attempted,
        failed,
        rounds: rounds.len(),
        wall_s: wall.elapsed().as_secs_f64(),
        config_digest,
        sim_digest: format!("{:016x}", first.digest),
        metrics,
    })
}

fn end_to_end(
    rounds: &[Round],
    generate_s: f64,
    probe: &probes::SpeedupProbe,
    failed_share: f64,
) -> Vec<Metric> {
    let first = &rounds[0];
    let host = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    spec::END_TO_END
        .iter()
        .map(|m| match m.name {
            spec::SETUP_S => Metric::median_of(m.name, m.unit, host(&|r| generate_s + r.setup_s)),
            spec::HOST_US_PER_QUERY => Metric::median_of(m.name, m.unit, host(&us_per_query)),
            spec::HOST_NS_PER_COMMAND => Metric::median_of(
                m.name,
                m.unit,
                host(&|r| r.body_s * 1e9 / r.commands.max(1) as f64),
            ),
            spec::SIM_MCYCLES_PER_HOST_S => Metric::median_of(
                m.name,
                m.unit,
                host(&|r| r.sim_cycles as f64 / r.body_s / 1e6),
            ),
            spec::PEAK_RSS_MIB => Metric::exact(m.name, m.unit, peak_rss_mib()),
            spec::SIM_NS_PER_QUERY => Metric::exact(
                m.name,
                m.unit,
                first.sim_span_ns / first.completed.max(1) as f64,
            ),
            spec::SIM_P99_LATENCY_NS => Metric::exact(m.name, m.unit, first.sim_p99_ns),
            spec::SIM_SPEEDUP_VS_IDEAL => Metric::exact(m.name, m.unit, probe.speedup_vs_ideal),
            spec::FAILED_SHARE => Metric::exact(m.name, m.unit, failed_share),
            other => unreachable!("end-to-end metric {other} has no definition"),
        })
        .collect()
}

/// Spans whose sum is the time spent inside the system (or the server).
const RUN_SPANS: [&str; 3] = [
    "core.system.run_resident",
    "core.system.run_mv",
    "serve.server.serve",
];

fn per_layer(
    rounds: &[Round],
    tracer: &Tracer,
    probe: &probes::SpeedupProbe,
    mut v: BTreeMap<&'static str, f64>,
    seed: u64,
) -> Result<Vec<Metric>, String> {
    let first = &rounds[0];
    let serving = first.serve.is_some();
    let untraced: Vec<f64> = rounds.iter().step_by(2).map(us_per_query).collect();
    let traced: Vec<f64> = rounds.iter().skip(1).step_by(2).map(us_per_query).collect();
    let host_us = median(&untraced);

    // Context for every host number.
    let stream = probes::host_stream_gbytes_per_s();
    v.insert("bench.host_stream_gbytes_per_s", stream);
    v.insert("bench.round_spread_pct", 100.0 * spread(&untraced));
    v.insert(
        "bench.tracing_overhead_pct",
        100.0 * ratio(median(&traced) - host_us, host_us),
    );
    v.insert(
        "workloads.generate_ns_per_elem",
        probes::generate_ns_per_elem(seed),
    );

    // Counts: the same in every round, so the first round speaks for all.
    let q = first.completed.max(1) as f64;
    let (comp_ns, comp_gbs) = probes::comp_multi(seed);
    v.insert("bf16.comp_commands_per_query", first.aim.comp as f64 / q);
    v.insert("bf16.comp_multi_ns_per_call", comp_ns);
    v.insert("bf16.comp_gbytes_per_s", comp_gbs);
    v.insert("bf16.stream_fraction", ratio(comp_gbs, stream));
    v.insert(
        "bf16.est_share",
        ratio(comp_ns * first.aim.row_sets as f64 / q, host_us * 1e3),
    );
    v.insert("dram.ideal_ns_per_command", probes::ideal_ns_per_command()?);
    v.insert("dram.commands_per_query", first.commands as f64 / q);
    v.insert("dram.act_per_query", first.aim.act as f64 / q);
    v.insert("dram.comp_per_query", first.aim.comp as f64 / q);
    v.insert("dram.gwrite_per_query", first.aim.gwrite as f64 / q);
    v.insert("dram.readres_per_query", first.aim.readres as f64 / q);
    v.insert("dram.refresh_per_query", first.refreshes as f64 / q);
    v.insert("dram.bank_open_share", first.bank_open_share);
    v.insert("dram.ecc_corrected", first.ecc_corrected as f64);
    v.insert("dram.ecc_uncorrectable", first.ecc_uncorrectable as f64);
    let replay = first.replay;
    v.insert(
        "core.replay.hit_rate",
        ratio(replay.hits as f64, (replay.hits + replay.misses) as f64),
    );
    v.insert("core.replay.invalidations", replay.invalidations as f64);
    v.insert(
        "core.replay.replayed_command_share",
        ratio(replay.replayed_commands as f64, first.commands as f64),
    );
    v.insert("trace.telemetry_windows", first.telemetry_windows as f64);
    v.insert(
        "core.controller.validate_audit_ms",
        first.validate_audit_ms.unwrap_or(0.0),
    );
    if let Some(s) = first.serve {
        let offered = first.offered.max(1) as f64;
        v.insert("serve.shed_share", s.shed as f64 / offered);
        v.insert("serve.expired_share", s.expired as f64 / offered);
        v.insert("serve.late_share", s.late as f64 / offered);
        v.insert("serve.retries_per_query", s.retries as f64 / q);
        v.insert("serve.replans", s.replans as f64);
        v.insert("serve.sdc", s.sdc as f64);
        v.insert("serve.capacity_fraction", s.capacity_fraction);
        v.insert("serve.sim_p50_ns", s.p50_ns);
        v.insert("serve.sim_p999_ns", s.p999_ns);
        v.insert("serve.pj_per_query", s.energy_pj / q);
    }

    // Host time by layer: one value per traced round, then the median.
    let mut per_round: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut all_runs_us: Vec<f64> = Vec::new();
    for (index, r) in rounds.iter().enumerate().skip(1).step_by(2) {
        let mut put =
            |name: &'static str, value: f64| per_round.entry(name).or_default().push(value);
        let runs: Vec<f64> = RUN_SPANS
            .iter()
            .flat_map(|name| tracer.durations(index as u32, name))
            .collect();
        let inside: f64 = runs.iter().sum();
        let p = r.phases;
        put("core.system.encode_share", ratio(p.encode as f64, inside));
        put("core.system.drain_share", ratio(p.drain as f64, inside));
        put("core.system.comp_share", ratio(p.comp as f64, inside));
        put("core.system.merge_share", ratio(p.merge as f64, inside));
        put(
            "core.system.snapshot_share",
            ratio(p.snapshot as f64, inside),
        );
        // Through `Server::serve` the system's own per-query fixed cost and
        // the server's cannot be told apart; the sum is charged to serve.
        let rest = ratio((inside - p.total() as f64).max(0.0), inside);
        put(
            "core.system.unattributed_share",
            if serving { 0.0 } else { rest },
        );
        put("serve.self_share", if serving { rest } else { 0.0 });
        put(
            "core.controller.drain_ns_per_command",
            ratio(p.drain as f64, r.commands as f64),
        );
        if let Some(ms) = tracer
            .durations(index as u32, "core.system.load_matrix")
            .first()
        {
            put("core.system.load_matrix_ms", ms / 1e6);
        }
        if !serving {
            // Cost that grows with the system's simulated age: the last
            // tenth of a round's queries against the first tenth.
            let tenth = runs.len() / 10;
            if tenth >= 2 {
                let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
                put(
                    "core.system.age_slowdown",
                    mean(&runs[runs.len() - tenth..]) / mean(&runs[..tenth]),
                );
            }
            all_runs_us.extend(runs.iter().map(|ns| ns / 1e3));
        }
        if let Some(isa) = r.isa {
            let ns = |name: &str| tracer.durations(index as u32, name).iter().sum::<f64>();
            put(
                "isa.parse_minstr_per_s",
                ratio(isa.parsed_instrs as f64 * 1e3, ns("isa.program.parse")),
            );
            put("isa.recognize_ms", ns("isa.mv.recognize") / 1e6);
            put("isa.apply_physical_ms", ns("isa.mv.apply_physical") / 1e6);
            put("isa.replay_run_ms", ns("core.system.run_resident") / 1e6);
            put(
                "isa.interpret_minstr_per_s",
                ratio(
                    isa.interpreted_instrs as f64 * 1e3,
                    ns("isa.interp.interpret"),
                ),
            );
        }
    }
    for (name, samples) in per_round {
        v.insert(name, median(&samples));
    }
    v.insert("core.system.run_p50_us", quartiles(&all_runs_us).1);
    v.insert(
        "core.system.run_p99_us",
        percentile_nearest_rank(&all_runs_us, 0.99),
    );

    // Accuracy beside the speedup.
    v.insert("baselines.ideal_ns_per_query", probe.ideal_ns_per_query);
    v.insert(
        "baselines.speedup_gap_vs_paper_pct",
        100.0 * (probe.speedup_vs_ideal - spec::PAPER_SPEEDUP_VS_IDEAL)
            / spec::PAPER_SPEEDUP_VS_IDEAL,
    );
    v.insert(
        "model.refined_speedup_error_pct",
        probes::refined_speedup_error_pct()?,
    );

    Ok(spec::PER_LAYER
        .iter()
        .map(|m| Metric::exact(m.name, m.unit, v.get(m.name).copied().unwrap_or(0.0)))
        .collect())
}

impl Outcome {
    /// The one line the driver reads: `correct`, `attempted`, `failed` and
    /// the declared metrics.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .filter(|m| self.traced || spec::declared_end_to_end().any(|d| d.name == m.name))
            .map(|m| {
                (
                    m.name.to_string(),
                    JsonValue::Object(vec![
                        ("value".into(), JsonValue::Num(m.value)),
                        ("unit".into(), JsonValue::from(m.unit)),
                    ]),
                )
            })
            .collect();
        JsonValue::Object(vec![
            ("correct".into(), JsonValue::from(self.correct)),
            ("attempted".into(), JsonValue::from(self.attempted)),
            ("failed".into(), JsonValue::from(self.failed)),
            ("metrics".into(), JsonValue::Object(metrics)),
        ])
        .render()
    }

    /// Everything about the run, for the result file of `bench run`.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), JsonValue::Num(m.value)),
                    ("unit".to_string(), JsonValue::from(m.unit)),
                ];
                if !m.samples.is_empty() {
                    let (q1, _, q3) = quartiles(&m.samples);
                    fields.push(("q1".into(), JsonValue::Num(q1)));
                    fields.push(("q3".into(), JsonValue::Num(q3)));
                    fields.push((
                        "samples".into(),
                        JsonValue::Array(m.samples.iter().map(|s| JsonValue::Num(*s)).collect()),
                    ));
                }
                (m.name.to_string(), JsonValue::Object(fields))
            })
            .collect();
        JsonValue::Object(vec![
            ("workload".into(), JsonValue::from(self.workload)),
            ("seed".into(), JsonValue::from(self.seed)),
            ("traced".into(), JsonValue::from(self.traced)),
            ("correct".into(), JsonValue::from(self.correct)),
            ("attempted".into(), JsonValue::from(self.attempted)),
            ("failed".into(), JsonValue::from(self.failed)),
            ("rounds".into(), JsonValue::from(self.rounds)),
            ("wall_s".into(), JsonValue::Num(self.wall_s)),
            (
                "config_digest".into(),
                JsonValue::from(self.config_digest.as_str()),
            ),
            (
                "sim_digest".into(),
                JsonValue::from(self.sim_digest.as_str()),
            ),
            ("metrics".into(), JsonValue::Object(metrics)),
        ])
    }

    /// Every metric by name with its unit, for people.
    pub fn print(&self) {
        println!(
            "{} ({}): {} rounds, {} of {} queries failed, sim_digest {}, {:.1} s",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.rounds,
            self.failed,
            self.attempted,
            self.sim_digest,
            self.wall_s
        );
        for m in &self.metrics {
            let note = match spec::end_to_end(m.name) {
                Some(d) if d.name == spec::SIM_SPEEDUP_VS_IDEAL => {
                    format!("  exact; paper {}x", spec::PAPER_SPEEDUP_VS_IDEAL)
                }
                Some(d) if d.kind == Kind::Exact => "  exact".to_string(),
                _ if m.samples.len() > 1 => {
                    let (q1, _, q3) = quartiles(&m.samples);
                    format!(
                        "  median of {} rounds, quartiles {q1:.6} .. {q3:.6}",
                        m.samples.len()
                    )
                }
                _ => String::new(),
            };
            println!("  {:<40} {:>16.6} {}{note}", m.name, m.value, m.unit);
        }
        if self.workload.starts_with("serve_") && !self.traced {
            println!(
                "  (open loop in simulated time: latency runs from each query's scheduled \
                 arrival; arrivals are simulated, so the generator cannot run late)"
            );
        }
    }
}
