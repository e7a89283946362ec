//! Tier-1 check that a run costs what its own work costs: the heap bytes
//! a `run_resident` allocates must not grow with how long the system has
//! been alive. The per-channel telemetry series in every `RunSummary` is
//! cumulative since the channel's birth; it shares its windows with the
//! live series chunk by chunk, so a summary allocates one chunk, never
//! the series. The same goes for a watched system: with a command trace
//! and the timing audit attached a run allocates for the entries it adds
//! to the two logs and for checking those entries, not for the logs.
//!
//! The first query on a freshly loaded resident matrix is the exception
//! by design: it decodes every weight row into the plane the decoded-weight
//! cache keeps, and what that costs is pinned here too.
//!
//! A count, not a timing: under `ParallelPolicy::exact(1)` everything
//! runs on the calling thread and its allocations repeat exactly. The
//! counter is thread-local, so the tests in this file do not see each
//! other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use newton_aim::core::config::NewtonConfig;
use newton_aim::core::parallel::ParallelPolicy;
use newton_aim::core::system::{NewtonSystem, SystemRun};
use newton_aim::core::TelemetryConfig;
use newton_aim::trace::WindowMetrics;
use newton_aim::workloads::{generator, Benchmark, MvShape};

/// Counts the bytes each thread asks the system allocator for.
struct CountingAlloc;

thread_local! {
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates every operation unchanged to the system allocator;
// the only addition is a thread-local byte counter with no destructor
// (`try_with` covers a thread that is being torn down).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED_BYTES.try_with(|b| b.set(b.get() + layout.size() as u64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap bytes this thread allocated while running `f`.
fn alloc_delta<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATED_BYTES.with(Cell::get);
    let r = f();
    (ALLOCATED_BYTES.with(Cell::get) - before, r)
}

const SHAPE: MvShape = MvShape { m: 64, n: 1024 };
const EARLY: usize = 20;
const LATE: usize = 2000;

/// One storage chunk of the telemetry series (32 windows): the most a
/// late run may allocate beyond an early one.
const ONE_CHUNK: u64 = 32 * std::mem::size_of::<WindowMetrics>() as u64;

/// Heap bytes allocated by the `EARLY`th and the `LATE`th `run_resident`
/// on one 2-channel, ECC-on system, with the previous run's result
/// either dropped before each call or held across it (the serving
/// loop's shape: the snapshot it holds shares chunks with the live
/// series, which must then copy what it writes to).
fn early_and_late_bytes(telemetry: bool, hold_previous: bool) -> (u64, u64) {
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 2;
    cfg.ecc = true;
    cfg.telemetry = telemetry.then(TelemetryConfig::default);
    cfg.parallel = ParallelPolicy::exact(1);
    let mut sys = NewtonSystem::new(cfg).expect("config");
    let matrix = generator::matrix(SHAPE, 7);
    let loaded = sys.load_matrix(&matrix, SHAPE.m, SHAPE.n).expect("load");
    let input = generator::vector(SHAPE.n, 8);

    let mut previous: Option<SystemRun> = None;
    let (mut early, mut late) = (0, 0);
    for i in 1..=LATE {
        if !hold_previous {
            drop(previous.take());
        }
        let (bytes, run) = alloc_delta(|| sys.run_resident(&loaded, &input).expect("run"));
        if i == EARLY {
            early = bytes;
        }
        if i == LATE {
            late = bytes;
        }
        previous = Some(run);
    }
    let last = previous.expect("ran");
    assert_eq!(
        last.channel_summaries[0].telemetry.is_some(),
        telemetry,
        "the summary carries the series exactly when telemetry is on"
    );
    (early, late)
}

#[test]
fn a_late_run_allocates_no_more_than_an_early_one_plus_a_chunk() {
    let (early, late) = early_and_late_bytes(true, false);
    assert!(
        late <= early + ONE_CHUNK,
        "run {EARLY} allocated {early} B, run {LATE} {late} B"
    );
}

#[test]
fn the_same_holds_while_the_previous_run_is_kept_alive() {
    let (early, late) = early_and_late_bytes(true, true);
    assert!(
        late <= early + ONE_CHUNK,
        "run {EARLY} allocated {early} B, run {LATE} {late} B"
    );
}

#[test]
fn without_telemetry_every_run_allocates_the_same() {
    let (early, late) = early_and_late_bytes(false, false);
    assert_eq!(early, late);
}

/// Heap bytes allocated by each of the first `LATE` runs of the same
/// system with everything watching it: telemetry, a command trace on
/// every channel (unless `trace` is off), and `NewtonConfig::audit`,
/// which logs every command and checks what each run added before the
/// run returns.
fn watched_bytes_per_run(trace: bool) -> Vec<u64> {
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 2;
    cfg.ecc = true;
    cfg.audit = true;
    cfg.telemetry = Some(TelemetryConfig::default());
    cfg.parallel = ParallelPolicy::exact(1);
    let mut sys = NewtonSystem::new(cfg).expect("config");
    if trace {
        for ch in sys.channels_mut() {
            ch.enable_trace();
        }
    }
    let matrix = generator::matrix(SHAPE, 7);
    let loaded = sys.load_matrix(&matrix, SHAPE.m, SHAPE.n).expect("load");
    let input = generator::vector(SHAPE.n, 8);
    let bytes: Vec<u64> = (0..LATE)
        .map(|_| alloc_delta(|| sys.run_resident(&loaded, &input).expect("run")).0)
        .collect();
    for ch in sys.channels() {
        let audit = ch.channel().audit().expect("audit on");
        assert_eq!(
            audit.events_visited(),
            audit.len() as u64,
            "every run boundary was a clean cut: each event checked once"
        );
    }
    bytes
}

/// What runs 21..=40 of [`watched_bytes_per_run`] allocated before the
/// audit folded trains and checked incrementally (PR 19's tree, same
/// test body): one `AuditEvent` per slot and per bank access, and a
/// clone of the whole log to validate it after every run.
const WATCHED_RUNS_21_TO_40_BEFORE: u64 = 206_476_064;

#[test]
fn a_watched_run_allocates_for_what_it_adds_to_the_logs_not_for_the_logs() {
    let bytes = watched_bytes_per_run(true);
    let window: u64 = bytes[EARLY..2 * EARLY].iter().sum();
    assert!(
        window <= WATCHED_RUNS_21_TO_40_BEFORE / 4,
        "runs 21..=40 allocated {window} B, a quarter of {WATCHED_RUNS_21_TO_40_BEFORE} B is the limit"
    );
    // A run in which a log grows its storage pays for that growth (the
    // trace and the audit add a chunk); no five runs in a row do, so the
    // cheapest of five is what a run costs by itself.
    let steady = |last: usize| *bytes[last - 5..last].iter().min().expect("five runs");
    let (early, late) = (steady(EARLY), steady(LATE));
    assert!(
        late <= early + ONE_CHUNK,
        "around run {EARLY} a run allocates {early} B, around run {LATE} {late} B"
    );
}

/// What the command traces of [`watched_bytes_per_run`] allocated over
/// all `LATE` runs (the bytes with them minus the bytes without) when a
/// trace kept one 40-byte entry per command in a doubling `Vec` (this
/// test body, run on that tree).
const WATCHED_TRACE_BYTES_BEFORE: u64 = 83_883_520;

#[test]
fn a_command_trace_allocates_for_its_runs_not_its_commands() {
    let traced: u64 = watched_bytes_per_run(true).iter().sum();
    let untraced: u64 = watched_bytes_per_run(false).iter().sum();
    let trace = traced - untraced;
    assert!(
        trace <= WATCHED_TRACE_BYTES_BEFORE / 5,
        "the traces allocated {trace} B over {LATE} runs, a fifth of {WATCHED_TRACE_BYTES_BEFORE} B is the limit"
    );
}

/// Heap bytes the first `run_resident` allocates on a freshly loaded
/// one-channel BERT S1 (1024 x 1024, 2,048 DRAM rows). That query decodes
/// every weight row into the plane the decoded-weight cache retains.
fn first_resident_bert_query_bytes() -> u64 {
    let mut cfg = NewtonConfig::paper_default();
    cfg.channels = 1;
    cfg.parallel = ParallelPolicy::exact(1);
    let mut sys = NewtonSystem::new(cfg).expect("config");
    let shape = Benchmark::BertS1.shape();
    let matrix = generator::matrix(shape, 7);
    let loaded = sys.load_matrix(&matrix, shape.m, shape.n).expect("load");
    let input = generator::vector(shape.n, 8);
    alloc_delta(|| sys.run_resident(&loaded, &input).expect("run")).0
}

/// What [`first_resident_bert_query_bytes`] measured when a retained plane
/// widened every weight to a 4-byte `f32` (this test body, run on that
/// tree).
const FIRST_RESIDENT_BERT_QUERY_BYTES_BEFORE: u64 = 4_304_256;

#[test]
fn retained_planes_cost_two_bytes_a_weight() {
    let bytes = first_resident_bert_query_bytes();
    let limit = FIRST_RESIDENT_BERT_QUERY_BYTES_BEFORE * 55 / 100;
    assert!(
        bytes <= limit,
        "the first query allocated {bytes} B, 55 % of {FIRST_RESIDENT_BERT_QUERY_BYTES_BEFORE} B is the limit"
    );
}
