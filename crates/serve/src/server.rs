//! The open-loop deadline scheduler over a [`NewtonSystem`].
//!
//! One [`Server`] owns a system with a resident weight matrix, a clean
//! host-side copy of that matrix (the scrub-rewrite source), a small set
//! of canonical input vectors, and golden outputs computed once on a
//! pristine twin. [`Server::serve`] then replays an arrival trace
//! against it:
//!
//! 1. **Admission.** Arrivals land in a bounded queue; when it is full
//!    the query is *shed* — counted, surfaced as a typed
//!    [`ServeError::Shed`], never silently dropped.
//! 2. **Batching.** Up to `max_batch` queued queries dispatch back to
//!    back against the resident matrix (the Fig. 11/12 regime: per-query
//!    DRAM time is batch-size-flat, so batching bounds queue wait
//!    rather than amortizing compute).
//! 3. **Deadlines.** Queries whose deadline passes while queued are
//!    expired with [`ServeError::DeadlineExceeded`]; queries that
//!    complete late are counted separately (`late_completions`) — the
//!    SLO report distinguishes "never ran" from "ran late".
//! 4. **Resilience.** Each dispatch runs through
//!    `run_resident_resilient`, so an uncorrectable ECC error escalates
//!    scrub-rewrite → retry → bank retirement (PR 5 ladder). Every extra
//!    attempt costs exponential backoff in simulated time, and a
//!    retirement triggers a *re-plan*: the matrix reloads onto the
//!    surviving banks and serving continues at reduced
//!    [`capacity_fraction`](NewtonSystem::capacity_fraction).
//! 5. **Serialization.** The memory controller serializes AiM and
//!    conventional request streams (the SK hynix AiM scheduling rule):
//!    conventional bursts due since the last batch drain *before* the
//!    next AiM batch may issue, inflating tail latency under mixed
//!    traffic.
//!
//! All scheduling state advances in simulated command-clock cycles via
//! [`NewtonSystem::now`] / [`NewtonSystem::advance_all_to`], so reports
//! are byte-identical across timing engines and thread widths.

use std::collections::VecDeque;

use newton_bf16::Bf16;
use newton_core::config::NewtonConfig;
use newton_core::system::{LoadedMatrix, NewtonSystem};
use newton_core::{AimError, RecoveryReport};
use newton_dram::faults::{self, CampaignSpec};
use newton_trace::event::{RequestClass, TraceEvent};
use newton_trace::{MetricsSnapshot, TimeSeries, DEFAULT_WINDOW_CYCLES};
use newton_workloads::arrivals::ArrivalPattern;
use newton_workloads::generator;

use crate::chaos::{ChaosAction, ChaosPlan};
use crate::request::{Request, ServeError};

/// Typed-error samples kept in the report (counters stay authoritative;
/// the samples make failures debuggable without unbounded growth).
const ERROR_SAMPLE_CAP: usize = 32;

/// Background conventional-DRAM traffic sharing the channels with AiM
/// work. The controller serializes the two request classes, so each due
/// burst stalls the next AiM batch for `burst_cycles`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConventionalTraffic {
    /// One burst becomes due every `interval_ns` of simulated time.
    pub interval_ns: f64,
    /// Serialized drain cost per burst, in command-clock cycles.
    pub burst_cycles: u64,
}

/// One serving experiment: the arrival process, SLO, and scheduler
/// knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Open-loop arrival pattern.
    pub pattern: ArrivalPattern,
    /// Total queries offered.
    pub requests: usize,
    /// Arrival-trace seed.
    pub seed: u64,
    /// Per-query deadline (SLO), simulated nanoseconds from arrival.
    pub deadline_ns: f64,
    /// Admission-queue bound; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Maximum queries dispatched per batch.
    pub max_batch: usize,
    /// Base backoff per retry attempt, command-clock cycles (doubles per
    /// extra attempt within one query's recovery).
    pub retry_backoff_cycles: u64,
    /// Optional conventional-DRAM traffic serialized against AiM work.
    pub conventional: Option<ConventionalTraffic>,
}

impl TrafficConfig {
    /// A steady-Poisson config with serving defaults: 100 µs deadline,
    /// queue of 64, batches of 8, 256-cycle base backoff, no
    /// conventional traffic.
    #[must_use]
    pub fn poisson(rate_per_us: f64, requests: usize, seed: u64) -> TrafficConfig {
        TrafficConfig {
            pattern: ArrivalPattern::Poisson { rate_per_us },
            requests,
            seed,
            deadline_ns: 100_000.0,
            queue_capacity: 64,
            max_batch: 8,
            retry_backoff_cycles: 256,
            conventional: None,
        }
    }

    fn validate(&self) -> Result<(), String> {
        self.pattern.validate()?;
        if !(self.deadline_ns.is_finite() && self.deadline_ns > 0.0) {
            return Err(format!(
                "deadline_ns must be finite and > 0, got {}",
                self.deadline_ns
            ));
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be >= 1".to_string());
        }
        if self.max_batch == 0 {
            return Err("max_batch must be >= 1".to_string());
        }
        if let Some(c) = self.conventional {
            if !(c.interval_ns.is_finite() && c.interval_ns > 0.0) {
                return Err(format!(
                    "conventional interval_ns must be finite and > 0, got {}",
                    c.interval_ns
                ));
            }
        }
        Ok(())
    }
}

/// Everything a serving run is accountable for. The admission invariant
/// `offered == completed + shed + expired` holds for every successful
/// run (checked in [`Server::serve`]); nothing is dropped off the books.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Queries in the arrival trace.
    pub offered: u64,
    /// Queries accepted into the queue.
    pub admitted: u64,
    /// Queries refused at admission (queue full).
    pub shed: u64,
    /// Queries expired in queue past their deadline (never dispatched).
    pub expired: u64,
    /// Queries that ran to completion.
    pub completed: u64,
    /// Completed queries that finished after their deadline.
    pub late_completions: u64,
    /// Extra full-run attempts spent in the recovery ladder.
    pub retries: u64,
    /// Conventional-DRAM bursts serialized against AiM batches.
    pub conventional_bursts: u64,
    /// Faults injected by the chaos plan.
    pub injected_faults: u64,
    /// Matrix re-plans after bank retirements.
    pub replans: u64,
    /// Always 0, deleted by the `benchmark` PR (ROADMAP 1).
    pub schedule_hits: u64,
    /// Always 0, deleted by the `benchmark` PR (ROADMAP 1).
    pub schedule_misses: u64,
    /// Always 0, deleted by the `benchmark` PR (ROADMAP 1).
    pub schedule_invalidations: u64,
    /// Always 0, deleted by the `benchmark` PR (ROADMAP 1).
    pub replayed_commands: u64,
    /// Output words differing from the pristine golden (silent data
    /// corruption; must be 0 with ECC on).
    pub sdc: u64,
    /// Median completion latency, simulated nanoseconds.
    pub p50_ns: f64,
    /// 99th-percentile completion latency, simulated nanoseconds.
    pub p99_ns: f64,
    /// 99.9th-percentile completion latency, simulated nanoseconds.
    pub p999_ns: f64,
    /// Worst completion latency, simulated nanoseconds.
    pub max_ns: f64,
    /// Completed queries per simulated second.
    pub qps: f64,
    /// Simulated span of the whole run, nanoseconds.
    pub span_ns: f64,
    /// DRAM energy (dynamic + refresh) this call spent, in picojoules:
    /// the system's streamed telemetry totals at exit less those at entry,
    /// so refreshes of an idle stretch count and an earlier call on the
    /// same server does not; 0 when telemetry is disabled.
    pub energy_pj: f64,
    /// `energy_pj` per completed query, in joules.
    pub joules_per_query: f64,
    /// Aggregated recovery ladder outcome (attempts, scrubs, retired
    /// banks, final capacity fraction).
    pub recovery: RecoveryReport,
    /// Per-window request-event series (arrivals, admissions, sheds,
    /// deadline misses, retries) for JSON/Perfetto export.
    pub request_series: TimeSeries,
    /// The first typed errors (at most `ERROR_SAMPLE_CAP`), in occurrence
    /// order.
    pub errors: Vec<ServeError>,
}

impl ServeReport {
    /// Serializes the report into `snap` under `prefix`, including the
    /// nested [`RecoveryReport`], so serving runs are auditable from
    /// snapshot JSON alone.
    pub fn record_into(&self, snap: &mut MetricsSnapshot, prefix: &str) {
        snap.count(&format!("{prefix}/offered"), self.offered)
            .count(&format!("{prefix}/admitted"), self.admitted)
            .count(&format!("{prefix}/shed"), self.shed)
            .count(&format!("{prefix}/expired"), self.expired)
            .count(&format!("{prefix}/completed"), self.completed)
            .count(&format!("{prefix}/late_completions"), self.late_completions)
            .count(&format!("{prefix}/retries"), self.retries)
            .count(
                &format!("{prefix}/conventional_bursts"),
                self.conventional_bursts,
            )
            .count(&format!("{prefix}/injected_faults"), self.injected_faults)
            .count(&format!("{prefix}/replans"), self.replans)
            .count(&format!("{prefix}/sdc"), self.sdc)
            .scalar(&format!("{prefix}/p50_ns"), self.p50_ns)
            .scalar(&format!("{prefix}/p99_ns"), self.p99_ns)
            .scalar(&format!("{prefix}/p999_ns"), self.p999_ns)
            .scalar(&format!("{prefix}/max_ns"), self.max_ns)
            .scalar(&format!("{prefix}/qps"), self.qps)
            .scalar(&format!("{prefix}/span_ns"), self.span_ns)
            .scalar(&format!("{prefix}/energy_pj"), self.energy_pj)
            .scalar(&format!("{prefix}/joules_per_query"), self.joules_per_query);
        self.recovery
            .record_into(snap, &format!("{prefix}/recovery"));
    }
}

/// Streamed DRAM energy (dynamic + refresh) since the system's birth, in
/// milli-pJ, summed over channels; 0 when telemetry is disabled.
fn streamed_energy_milli_pj(sys: &NewtonSystem) -> u64 {
    sys.channels()
        .iter()
        .filter_map(|ch| ch.channel().telemetry())
        .map(|series| {
            let t = series.totals();
            t.energy_milli_pj + t.refresh_milli_pj
        })
        .sum()
}

/// Nearest-rank percentile of an ascending-sorted slice; 0 for empty.
fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// An online inference server: a [`NewtonSystem`] with resident weights,
/// the clean weight copy, canonical inputs, and pristine goldens.
#[derive(Debug)]
pub struct Server {
    sys: NewtonSystem,
    matrix: Vec<Bf16>,
    m: usize,
    n: usize,
    loaded: LoadedMatrix,
    inputs: Vec<Vec<Bf16>>,
    goldens: Vec<Vec<u32>>,
}

impl Server {
    /// Builds a server: loads the `m x n` matrix resident, generates
    /// `distinct_inputs` canonical input vectors from `input_seed`, and
    /// computes golden outputs on a pristine twin system (same config,
    /// no faults) so silent corruption is detectable bit-exactly for the
    /// rest of the server's life — including after re-plans, whose
    /// outputs are mapping-invariant.
    ///
    /// # Errors
    ///
    /// Configuration, shape, or capacity errors from system construction
    /// and matrix loading.
    pub fn new(
        config: NewtonConfig,
        matrix: Vec<Bf16>,
        m: usize,
        n: usize,
        distinct_inputs: usize,
        input_seed: u64,
    ) -> Result<Server, AimError> {
        if distinct_inputs == 0 {
            return Err(AimError::InvalidConfig(
                "distinct_inputs must be >= 1".to_string(),
            ));
        }
        let inputs: Vec<Vec<Bf16>> = (0..distinct_inputs)
            .map(|i| generator::vector(n, input_seed.wrapping_add(i as u64)))
            .collect();
        let mut twin = NewtonSystem::new(config.clone())?;
        let twin_loaded = twin.load_matrix(&matrix, m, n)?;
        let mut goldens = Vec::with_capacity(distinct_inputs);
        for v in &inputs {
            let run = twin.run_resident(&twin_loaded, v)?;
            goldens.push(run.output.iter().map(|x| x.to_bits()).collect());
        }
        let mut sys = NewtonSystem::new(config)?;
        let loaded = sys.load_matrix(&matrix, m, n)?;
        Ok(Server {
            sys,
            matrix,
            m,
            n,
            loaded,
            inputs,
            goldens,
        })
    }

    /// The underlying system (for inspection: clocks, retired banks,
    /// capacity).
    #[must_use]
    pub fn system(&self) -> &NewtonSystem {
        &self.sys
    }

    /// Injects a fault campaign into every channel at the current
    /// simulated time (chaos path; also usable out of band).
    ///
    /// # Errors
    ///
    /// Fault-plane errors from [`faults::inject`].
    fn inject_faults(&mut self, spec: &CampaignSpec) -> Result<u64, AimError> {
        let mut injected = 0u64;
        for ch in 0..self.sys.config().channels {
            let per = spec.for_channel(ch);
            let now = self.sys.channels()[ch].now();
            let faults = faults::inject(self.sys.channels_mut()[ch].channel_mut(), now, &per)?;
            injected += faults.len() as u64;
        }
        Ok(injected)
    }

    /// Plants a hard double-bit fault in `(channel, bank)`: bits 0 and 1
    /// of the first allocated row are stuck at the complement of their
    /// stored values, so the word is uncorrectable under SECDED and
    /// survives every scrub-rewrite — forcing the retirement rung.
    /// Returns the number of cells planted (always 2).
    ///
    /// # Errors
    ///
    /// [`AimError::InvalidConfig`] when the bank holds no allocated rows;
    /// storage errors for out-of-range targets.
    fn plant_stuck_word(&mut self, channel: usize, bank: usize) -> Result<u64, AimError> {
        if channel >= self.sys.config().channels {
            return Err(AimError::InvalidConfig(format!(
                "stuck-word channel {channel} out of range"
            )));
        }
        let storage = self.sys.channels_mut()[channel].channel_mut().storage_mut();
        let row = storage
            .allocated_row_indices()
            .into_iter()
            .find_map(|(b, r)| (b == bank).then_some(r))
            .ok_or_else(|| {
                AimError::InvalidConfig(format!(
                    "stuck-word target bank {bank} on channel {channel} has no allocated rows"
                ))
            })?;
        let byte0 = storage.row(bank, row)?[0];
        storage.set_stuck(bank, row, 0, byte0 & 0x01 == 0)?;
        storage.set_stuck(bank, row, 1, byte0 & 0x02 == 0)?;
        Ok(2)
    }

    /// Replays an arrival trace through the deadline scheduler and
    /// returns the full accounting. See the module docs for the loop's
    /// five obligations.
    ///
    /// # Errors
    ///
    /// [`ServeError::Fatal`] when configuration is malformed or the
    /// resilience ladder is exhausted mid-run. Sheds and deadline misses
    /// are *not* errors; they are reported outcomes.
    ///
    /// # Panics
    ///
    /// If the admission accounting invariant
    /// `offered == completed + shed + expired` is violated (a scheduler
    /// logic error, not an input condition).
    pub fn serve(
        &mut self,
        traffic: &TrafficConfig,
        chaos: &ChaosPlan,
    ) -> Result<ServeReport, ServeError> {
        traffic
            .validate()
            .map_err(|e| ServeError::Fatal(AimError::InvalidConfig(e)))?;
        let cfg = self.sys.config();
        let tck = cfg.dram.timing.tck_ns;
        let window = cfg
            .telemetry
            .as_ref()
            .map_or(DEFAULT_WINDOW_CYCLES, |t| t.window_cycles);
        let mut series = TimeSeries::new(window, cfg.dram.banks);

        let arrivals_ns = traffic
            .pattern
            .arrival_times_ns(traffic.seed, traffic.requests)
            .map_err(|e| ServeError::Fatal(AimError::InvalidConfig(e)))?;
        let origin = self.sys.now();
        let energy_at_origin = streamed_energy_milli_pj(&self.sys);
        let arr: Vec<u64> = arrivals_ns
            .iter()
            .map(|&ns| origin + (ns as f64 / tck).ceil() as u64)
            .collect();
        let deadline_cycles = ((traffic.deadline_ns / tck).ceil() as u64).max(1);
        let conv = traffic.conventional.map(|c| {
            let interval = ((c.interval_ns / tck).ceil() as u64).max(1);
            (interval, c.burst_cycles)
        });
        let mut next_conv_due = conv.map(|(interval, _)| origin + interval);

        let mut queue: VecDeque<Request> = VecDeque::new();
        let mut next = 0usize;
        let mut fired = vec![false; chaos.events.len()];
        let mut errors: Vec<ServeError> = Vec::new();
        let mut latencies: Vec<u64> = Vec::with_capacity(traffic.requests);

        let (mut shed, mut expired, mut completed, mut late, mut retries) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let (mut attempts_total, mut scrub_rewrites, mut replans) = (0u64, 0u64, 0u64);
        let mut retired: Vec<(usize, usize)> = Vec::new();
        let (mut conventional_bursts, mut injected_faults, mut sdc) = (0u64, 0u64, 0u64);

        loop {
            let now = self.sys.now();

            // 1. Admission: ingest every arrival due by `now`.
            while next < arr.len() && arr[next] <= now {
                let id = next as u64;
                let cycle = arr[next];
                series.record(&TraceEvent::Request {
                    cycle,
                    class: RequestClass::Arrival,
                });
                if queue.len() >= traffic.queue_capacity {
                    shed += 1;
                    series.record(&TraceEvent::Request {
                        cycle,
                        class: RequestClass::Shed,
                    });
                    if errors.len() < ERROR_SAMPLE_CAP {
                        errors.push(ServeError::Shed {
                            id,
                            queue_depth: queue.len(),
                        });
                    }
                } else {
                    series.record(&TraceEvent::Request {
                        cycle,
                        class: RequestClass::Admission,
                    });
                    queue.push_back(Request {
                        id,
                        arrival_cycle: cycle,
                        deadline_cycle: cycle + deadline_cycles,
                        input: (id as usize) % self.inputs.len(),
                    });
                }
                next += 1;
            }

            // 2. Idle: nothing queued — advance to the next arrival so
            // refresh obligations accrue across the gap, or finish.
            if queue.is_empty() {
                if next >= arr.len() {
                    break;
                }
                self.sys.advance_all_to(arr[next]);
                continue;
            }

            // 3. Chaos actions whose completed-count threshold crossed.
            for (i, ev) in chaos.events.iter().enumerate() {
                if !fired[i] && completed >= ev.after_completed {
                    fired[i] = true;
                    match ev.action {
                        ChaosAction::Faults(spec) => {
                            injected_faults +=
                                self.inject_faults(&spec).map_err(ServeError::Fatal)?;
                        }
                        ChaosAction::StuckWord { channel, bank } => {
                            injected_faults += self
                                .plant_stuck_word(channel, bank)
                                .map_err(ServeError::Fatal)?;
                        }
                        ChaosAction::IdleGap { cycles } => {
                            let cur = self.sys.now();
                            self.sys.advance_all_to(cur + cycles);
                        }
                    }
                }
            }

            // 4. AiM-vs-conventional serialization: drain every due
            // conventional burst before the next AiM batch may issue.
            if let (Some((interval, burst_cycles)), Some(due)) = (conv, next_conv_due.as_mut()) {
                while *due <= self.sys.now() {
                    let cur = self.sys.now();
                    self.sys.advance_all_to(cur + burst_cycles);
                    conventional_bursts += 1;
                    *due += interval;
                }
            }

            // 5. Expire queued queries already past deadline (FIFO queue
            // + uniform deadline ⇒ expirees sit at the front).
            let now = self.sys.now();
            while let Some(r) = queue.front() {
                if r.deadline_cycle >= now {
                    break;
                }
                let r = queue.pop_front().expect("front checked");
                expired += 1;
                series.record(&TraceEvent::Request {
                    cycle: now,
                    class: RequestClass::DeadlineMiss,
                });
                if errors.len() < ERROR_SAMPLE_CAP {
                    errors.push(ServeError::DeadlineExceeded {
                        id: r.id,
                        deadline_cycle: r.deadline_cycle,
                        lateness_cycles: now - r.deadline_cycle,
                    });
                }
            }

            // 6. Dispatch one batch through the resilience ladder.
            let batch_len = queue.len().min(traffic.max_batch);
            for _ in 0..batch_len {
                let r = queue.pop_front().expect("batch_len <= queue.len()");
                let input = &self.inputs[r.input];
                let (run, rep) = self
                    .sys
                    .run_resident_resilient(&self.loaded, &self.matrix, input)
                    .map_err(ServeError::Fatal)?;
                attempts_total += rep.attempts;
                scrub_rewrites += rep.scrub_rewrites;
                if rep.attempts > 1 {
                    let extra = rep.attempts - 1;
                    retries += extra;
                    let cycle = self.sys.now();
                    for _ in 0..extra {
                        series.record(&TraceEvent::Request {
                            cycle,
                            class: RequestClass::Retry,
                        });
                    }
                    // Exponential backoff: base · (2^extra − 1) cycles of
                    // simulated cool-down, shift-capped against overflow.
                    let shift = extra.min(16) as u32;
                    let backoff = traffic
                        .retry_backoff_cycles
                        .saturating_mul((1u64 << shift) - 1);
                    self.sys.advance_all_to(cycle + backoff);
                }
                if !rep.retired_banks.is_empty() {
                    // Graceful degradation: the resident mapping is stale
                    // after retirement — re-plan onto surviving banks and
                    // keep serving at reduced capacity.
                    retired.extend(rep.retired_banks.iter().copied());
                    self.loaded = self
                        .sys
                        .load_matrix(&self.matrix, self.m, self.n)
                        .map_err(ServeError::Fatal)?;
                    replans += 1;
                }
                let done = self.sys.now();
                latencies.push(done - r.arrival_cycle);
                if done > r.deadline_cycle {
                    late += 1;
                    series.record(&TraceEvent::Request {
                        cycle: done,
                        class: RequestClass::DeadlineMiss,
                    });
                }
                sdc += run
                    .output
                    .iter()
                    .zip(&self.goldens[r.input])
                    .filter(|(v, &g)| v.to_bits() != g)
                    .count() as u64;
                completed += 1;
            }
        }

        let offered = arr.len() as u64;
        assert_eq!(
            offered,
            completed + shed + expired,
            "admission accounting must balance"
        );
        let span_cycles = self.sys.now() - origin;
        let span_ns = span_cycles as f64 * tck;
        latencies.sort_unstable();
        let to_ns = |c: u64| c as f64 * tck;
        let energy_pj = (streamed_energy_milli_pj(&self.sys) - energy_at_origin) as f64 / 1000.0;
        let qps = if span_ns > 0.0 {
            completed as f64 / (span_ns * 1e-9)
        } else {
            0.0
        };
        let joules_per_query = if completed > 0 {
            energy_pj * 1e-12 / completed as f64
        } else {
            0.0
        };
        Ok(ServeReport {
            offered,
            admitted: offered - shed,
            shed,
            expired,
            completed,
            late_completions: late,
            retries,
            conventional_bursts,
            injected_faults,
            replans,
            schedule_hits: 0,
            schedule_misses: 0,
            schedule_invalidations: 0,
            replayed_commands: 0,
            sdc,
            p50_ns: to_ns(percentile_sorted(&latencies, 0.50)),
            p99_ns: to_ns(percentile_sorted(&latencies, 0.99)),
            p999_ns: to_ns(percentile_sorted(&latencies, 0.999)),
            max_ns: to_ns(latencies.last().copied().unwrap_or(0)),
            qps,
            span_ns,
            energy_pj,
            joules_per_query,
            recovery: RecoveryReport {
                attempts: attempts_total,
                scrub_rewrites,
                retired_banks: retired,
                capacity_fraction: self.sys.capacity_fraction(),
            },
            request_series: series,
            errors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(percentile_sorted(&[], 0.5), 0);
        let one = [42u64];
        assert_eq!(percentile_sorted(&one, 0.5), 42);
        assert_eq!(percentile_sorted(&one, 0.999), 42);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 0.999), 100);
    }

    #[test]
    fn traffic_validation_rejects_nonsense() {
        let mut t = TrafficConfig::poisson(1.0, 10, 1);
        assert!(t.validate().is_ok());
        t.deadline_ns = 0.0;
        assert!(t.validate().is_err());
        t.deadline_ns = 1000.0;
        t.queue_capacity = 0;
        assert!(t.validate().is_err());
        t.queue_capacity = 4;
        t.max_batch = 0;
        assert!(t.validate().is_err());
        t.max_batch = 2;
        t.conventional = Some(ConventionalTraffic {
            interval_ns: f64::NAN,
            burst_cycles: 10,
        });
        assert!(t.validate().is_err());
    }
}
