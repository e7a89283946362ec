//! What the benchmark declares: its workloads and its metrics.
//!
//! `BENCHMARK.json` at the root of the repository and every result file are
//! checked against these tables (`bench validate`), so a name that is
//! printed, written or compared is spelled in exactly one place.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a value comes about, which decides how two runs are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host wall clock or memory: median over rounds, compared within a
    /// bound.
    Host,
    /// A function of the code and the seed only: identical in every round
    /// and between two runs of one commit.
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDecl {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDecl; 7] = [
    WorkloadDecl {
        name: "bert_resident",
        why: "Table II BERT 1024x1024 resident on 1 channel, no observers: the production fast path (event skipping, SIMD COMP kernel, schedule replay)",
    },
    WorkloadDecl {
        name: "bert_observed",
        why: "same matrix with telemetry, command trace and timing audit attached: observers disarm the train path and replay, so every command issues live",
    },
    WorkloadDecl {
        name: "decode_stream",
        why: "1920-token decode stream on a small resident matrix, 2 channels, ECC and telemetry: per-query fixed cost and cost that grows with system age",
    },
    WorkloadDecl {
        name: "serve_poisson",
        why: "open-loop Poisson serving at 0.4 q/us in simulated time, 2000 requests: admission, batching and replay at about half the knee",
    },
    WorkloadDecl {
        name: "serve_chaos",
        why: "the same serving cell with a BER 1e-5 campaign and a stuck word: scrub rewrites, retries, replay invalidation, bank retirement, re-plan",
    },
    WorkloadDecl {
        name: "table2_cold",
        why: "all eight Table II layers on 24 channels by run_mv, weights reloaded every query: write path, layout, channel merge, replay bypassed",
    },
    WorkloadDecl {
        name: "isa_trace",
        why: "parse, recognise and replay a lowered BERT trace (6 MB of text) and interpret a small one: the only workload where newton-isa does most of the work",
    },
];

pub const SETUP_S: &str = "setup_s";
pub const HOST_US_PER_QUERY: &str = "host_us_per_query";
pub const HOST_NS_PER_COMMAND: &str = "host_ns_per_command";
pub const SIM_MCYCLES_PER_HOST_S: &str = "sim_mcycles_per_host_s";
pub const PEAK_RSS_MIB: &str = "peak_rss_mib";
pub const SIM_NS_PER_QUERY: &str = "sim_ns_per_query";
pub const SIM_P99_LATENCY_NS: &str = "sim_p99_latency_ns";
pub const SIM_SPEEDUP_VS_IDEAL: &str = "sim_speedup_vs_ideal";
pub const FAILED_SHARE: &str = "failed_share";

/// Bound of the host-time metrics. Ten runs of a workload spread (quartile
/// range over median) by 1.4 to 7 % here, and by 8 % on `decode_stream` and
/// 14 % on `bert_observed` while a neighbour of this virtual machine is
/// busy; the median of ten runs of `table2_cold`, which allocates the most,
/// read 27.7 ms one hour and 33.9 ms the next (+22 %) on the same code. A
/// bound has to sit above that or the host's noise reads as a regression,
/// so it is the widest the driver accepts.
const HOST_TIME_BOUND: f64 = 0.25;

/// Bound the driver applies to the simulated, exact metrics. `bench
/// compare` asks for equality; the driver takes a share of the median, and
/// one per cent keeps a change of the modelled design from slipping by
/// while leaving room for a bound of exactly 0 not being accepted.
const EXACT_BOUND: f64 = 0.01;

pub const END_TO_END: [EndToEnd; 9] = [
    // One-time input generation + median per-round system build, weight load and warm-up.
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        kind: Kind::Host,
        bound: 0.25,
    },
    // Round wall time / queries completed (query = one GEMV, token, request or trace).
    EndToEnd {
        name: HOST_US_PER_QUERY,
        unit: "us",
        better: Better::Lower,
        kind: Kind::Host,
        bound: HOST_TIME_BOUND,
    },
    // Round wall time / simulated DRAM commands issued in the round.
    EndToEnd {
        name: HOST_NS_PER_COMMAND,
        unit: "ns",
        better: Better::Lower,
        kind: Kind::Host,
        bound: HOST_TIME_BOUND,
    },
    // Simulated cycles advanced / round wall time (legacy headline; moves with workload shape).
    EndToEnd {
        name: SIM_MCYCLES_PER_HOST_S,
        unit: "Mcycles/s",
        better: Better::Higher,
        kind: Kind::Host,
        bound: HOST_TIME_BOUND,
    },
    // VmHWM of the workload's process.
    EndToEnd {
        name: PEAK_RSS_MIB,
        unit: "MiB",
        better: Better::Lower,
        kind: Kind::Host,
        // Ten runs of `serve_chaos` spread by 4.3 % (0.7 of 17 MiB).
        bound: 0.15,
    },
    // Simulated span / completed queries.
    EndToEnd {
        name: SIM_NS_PER_QUERY,
        unit: "sim_ns",
        better: Better::Lower,
        kind: Kind::Exact,
        bound: EXACT_BOUND,
    },
    // Nearest-rank p99 of per-query simulated latency (arrival to completion when serving).
    EndToEnd {
        name: SIM_P99_LATENCY_NS,
        unit: "sim_ns",
        better: Better::Lower,
        kind: Kind::Exact,
        bound: EXACT_BOUND,
    },
    // Geomean over the workload's GEMV shapes of Ideal Non-PIM time / one cold run_mv time (paper: 10x).
    EndToEnd {
        name: SIM_SPEEDUP_VS_IDEAL,
        unit: "x",
        better: Better::Higher,
        kind: Kind::Exact,
        bound: EXACT_BOUND,
    },
    // Queries that errored, were shed, expired, late, corrupted, out of numeric bound or diverged, over queries offered.
    EndToEnd {
        name: FAILED_SHARE,
        unit: "ratio",
        better: Better::Lower,
        kind: Kind::Exact,
        bound: 0.0,
    },
];

/// The end-to-end metrics `BENCHMARK.json` declares: all of them but
/// `failed_share`, which is 0 on every workload (the driver's contract
/// asks for metrics that are never 0) and travels as `failed` /
/// `attempted` in the result line instead.
pub fn declared_end_to_end() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END.iter().filter(|m| m.name != FAILED_SHARE)
}

const fn row(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Per-layer metrics, from the traced pass. A layer is a crate or module;
/// a metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [PerLayer; 62] = [
    row("bench.host_stream_gbytes_per_s", "GB/s", Higher),
    row("bench.round_spread_pct", "%", Lower),
    row("bench.tracing_overhead_pct", "%", Lower),
    row("workloads.generate_ns_per_elem", "ns", Lower),
    row("bf16.comp_commands_per_query", "count", Lower),
    row("bf16.comp_multi_ns_per_call", "ns", Lower),
    row("bf16.comp_gbytes_per_s", "GB/s", Higher),
    row("bf16.stream_fraction", "ratio", Higher),
    row("bf16.est_share", "ratio", Lower),
    row("dram.ideal_ns_per_command", "ns", Lower),
    row("dram.commands_per_query", "count", Lower),
    row("dram.act_per_query", "count", Lower),
    row("dram.comp_per_query", "count", Lower),
    row("dram.gwrite_per_query", "count", Lower),
    row("dram.readres_per_query", "count", Lower),
    row("dram.refresh_per_query", "count", Lower),
    row("dram.bank_open_share", "ratio", Lower),
    row("dram.ecc_corrected", "count", Lower),
    row("dram.ecc_uncorrectable", "count", Lower),
    row("core.system.encode_share", "ratio", Lower),
    row("core.system.drain_share", "ratio", Lower),
    row("core.system.comp_share", "ratio", Lower),
    row("core.system.merge_share", "ratio", Lower),
    row("core.system.snapshot_share", "ratio", Lower),
    row("core.system.unattributed_share", "ratio", Lower),
    row("core.system.run_p50_us", "us", Lower),
    row("core.system.run_p99_us", "us", Lower),
    row("core.system.age_slowdown", "ratio", Lower),
    row("core.system.load_matrix_ms", "ms", Lower),
    row("core.controller.drain_ns_per_command", "ns", Lower),
    row("core.controller.validate_audit_ms", "ms", Lower),
    row("core.controller.observed_slowdown", "ratio", Lower),
    row("core.replay.hit_rate", "ratio", Higher),
    row("core.replay.invalidations", "count", Lower),
    row("core.replay.replayed_command_share", "ratio", Higher),
    row("trace.telemetry_overhead_pct", "%", Lower),
    row("trace.telemetry_windows", "count", Lower),
    row("serve.self_share", "ratio", Lower),
    row("serve.shed_share", "ratio", Lower),
    row("serve.expired_share", "ratio", Lower),
    row("serve.late_share", "ratio", Lower),
    row("serve.retries_per_query", "ratio", Lower),
    row("serve.replans", "count", Lower),
    row("serve.sdc", "count", Lower),
    row("serve.capacity_fraction", "ratio", Higher),
    row("serve.sim_p50_ns", "sim_ns", Lower),
    row("serve.sim_p999_ns", "sim_ns", Lower),
    row("serve.pj_per_query", "pJ", Lower),
    row("serve.sim_p99_ns_at_0.2", "sim_ns", Lower),
    row("serve.sim_p99_ns_at_0.8", "sim_ns", Lower),
    row("serve.sim_p99_ns_at_1.2", "sim_ns", Lower),
    row("serve.sim_max_rate_per_us", "1/us", Higher),
    row("isa.lower_ms", "ms", Lower),
    row("isa.render_ms", "ms", Lower),
    row("isa.parse_minstr_per_s", "Minstr/s", Higher),
    row("isa.recognize_ms", "ms", Lower),
    row("isa.apply_physical_ms", "ms", Lower),
    row("isa.replay_run_ms", "ms", Lower),
    row("isa.interpret_minstr_per_s", "Minstr/s", Higher),
    row("baselines.ideal_ns_per_query", "sim_ns", Lower),
    row("baselines.speedup_gap_vs_paper_pct", "%", Higher),
    row("model.refined_speedup_error_pct", "%", Lower),
];

/// The paper's headline speedup over Ideal Non-PIM (Fig. 8), printed
/// beside `sim_speedup_vs_ideal`.
pub const PAPER_SPEEDUP_VS_IDEAL: f64 = 10.0;

#[must_use]
pub fn workload(name: &str) -> Option<&'static WorkloadDecl> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[must_use]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[must_use]
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Names and units are limited to what the driver's contract accepts.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn declared_names_and_units_are_legal_and_unique() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} declared twice", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
        }
        assert!(end_to_end(SETUP_S).is_some_and(|m| m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn name_rules() {
        assert!(valid_name("serve.sim_p99_ns_at_0.2"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("reproduce/threads_1/wall_seconds"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("Mcycles/s") && valid_unit("%"));
        assert!(!valid_unit("M cycles/s") && !valid_unit(""));
    }
}
