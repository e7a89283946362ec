//! AiM and conventional requests never overlap (Sec. III-D; the SK hynix
//! AiM controller's scheduling rule), checked on real commands: in each
//! channel's one command log, no unnamed activation, column access or
//! precharge — conventional traffic — lies between a row-set's first
//! named activation and its `PreAll`. Checked on both timing engines,
//! for `.aim` host traffic to several banks and for a serving cell whose
//! conventional bursts drain between AiM batches.

use newton_aim::core::config::{NewtonConfig, TimingEngine};
use newton_aim::dram::audit::{Audit, AuditEvent, BusKind};
use newton_aim::dram::command::AimCommand;
use newton_aim::dram::timing::Cycle;
use newton_aim::dram::Channel;
use newton_aim::isa::{interp, Program};
use newton_aim::workloads::arrivals::ArrivalPattern;
use newton_aim::workloads::{generator, MvShape};
use newton_serve::{ChaosPlan, ConventionalTraffic, Server, TrafficConfig};

const ENGINES: [TimingEngine; 2] = [TimingEngine::Reference, TimingEngine::EventSkipping];

/// What one log says about the rule: how many row-sets it holds, how
/// many unnamed bank events (activations, column accesses, precharges)
/// it holds, and the unnamed ones that fall inside a row-set.
struct Verdict {
    row_sets: usize,
    unnamed: usize,
    intruders: Vec<AuditEvent>,
}

fn verdict(audit: &Audit) -> Verdict {
    let is_row = |cmd: AimCommand| {
        matches!(
            cmd,
            AimCommand::GAct { .. }
                | AimCommand::Act { .. }
                | AimCommand::PreAll
                | AimCommand::Refresh
        )
    };
    // A command is its bus slot: no bus carries two commands in a cycle.
    let mut named: Vec<(Cycle, bool)> = Vec::new();
    let mut row_sets: Vec<(Cycle, Cycle)> = Vec::new();
    let mut open = None;
    for (cycle, cmd) in audit.aim_commands() {
        named.push((cycle, is_row(cmd)));
        match cmd {
            AimCommand::GAct { .. } | AimCommand::Act { .. } => {
                open.get_or_insert(cycle);
            }
            AimCommand::PreAll => row_sets.extend(open.take().map(|first| (first, cycle))),
            _ => {}
        }
    }
    named.sort_unstable();
    let mut slot = None;
    let mut unnamed = 0;
    let mut intruders = Vec::new();
    for event in audit.events() {
        let cycle = match event {
            AuditEvent::Slot { cycle, bus } => {
                slot = Some((cycle, bus == BusKind::Row));
                continue;
            }
            AuditEvent::Ref { .. } => continue,
            AuditEvent::Act { cycle, .. }
            | AuditEvent::Pre { cycle, .. }
            | AuditEvent::ColRd { cycle, .. }
            | AuditEvent::ColWr { cycle, .. } => cycle,
        };
        if slot.is_some_and(|s| named.binary_search(&s).is_ok()) {
            continue;
        }
        unnamed += 1;
        if row_sets.iter().any(|&(a, b)| (a..=b).contains(&cycle)) {
            intruders.push(event);
        }
    }
    Verdict {
        row_sets: row_sets.len(),
        unnamed,
        intruders,
    }
}

fn assert_serialized(what: &str, channel: &Channel) {
    let v = verdict(channel.audit().expect("audit on"));
    assert!(v.row_sets > 0, "{what}: no row-set in the log");
    assert!(v.unnamed > 0, "{what}: no conventional traffic in the log");
    assert_eq!(
        v.intruders,
        vec![],
        "{what}: conventional commands inside a row-set"
    );
}

/// Host writes and reads to five banks, fenced by a MAC: FR-FCFS drains
/// them before the row-set opens.
#[test]
fn host_traffic_to_many_banks_stays_outside_row_sets() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/isa/tests/traces");
    let trace = std::fs::read_to_string(format!("{dir}/mixed_host_banks.aim")).expect("trace");
    let program = Program::parse(&trace).expect("parses");
    for engine in ENGINES {
        let mut cfg = NewtonConfig::paper_default();
        cfg.engine = engine;
        cfg.audit = true;
        let run = interp::interpret(&program, cfg).expect("interprets");
        let sys = run.system.expect("the trace reaches a device");
        assert_serialized(&format!("{engine:?}"), sys.channels()[0].channel());
    }
}

/// A 2-channel serving cell with conventional bursts between batches:
/// every burst is real external column reads, drained outside row-sets.
#[test]
fn serving_bursts_issue_reads_outside_row_sets() {
    let shape = MvShape::new(32, 512);
    let matrix = generator::matrix(shape, 47);
    let traffic = TrafficConfig {
        pattern: ArrivalPattern::Poisson { rate_per_us: 0.05 },
        requests: 12,
        seed: 51,
        deadline_ns: 100_000.0,
        queue_capacity: 64,
        max_batch: 4,
        retry_backoff_cycles: 256,
        conventional: Some(ConventionalTraffic {
            interval_ns: 4_000.0,
            burst_requests: 16,
        }),
    };
    for engine in ENGINES {
        let mut cfg = NewtonConfig::paper_default();
        cfg.channels = 2;
        cfg.engine = engine;
        cfg.audit = true;
        let mut server = Server::new(cfg, matrix.clone(), shape.m, shape.n, 3, 49).expect("server");
        let report = server.serve(&traffic, &ChaosPlan::none()).expect("serves");
        assert!(report.conventional_bursts > 0, "{engine:?}: no burst");
        for (ch, nc) in server.system().channels().iter().enumerate() {
            assert!(
                nc.channel().stats().col_reads_external > 0,
                "{engine:?} channel {ch}: bursts issued no read"
            );
            assert_serialized(&format!("{engine:?} channel {ch}"), nc.channel());
        }
    }
}
