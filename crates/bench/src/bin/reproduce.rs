//! Regenerates every table and figure of the Newton (MICRO 2020)
//! evaluation in one run. See EXPERIMENTS.md for the paper-vs-measured
//! record.
//!
//! Usage:
//!
//! ```sh
//! reproduce                        # everything (~35 s in release)
//! reproduce --list                 # list experiment names
//! reproduce --only fig09          # any subset, by substring (comma-separated)
//! reproduce --threads N           # worker-pool width (default: NEWTON_THREADS or host cores)
//! reproduce --engine E            # timing engine: event-skipping (default) or reference
//! reproduce --snapshot-dir DIR    # where metrics snapshots go (default target/snapshots)
//! reproduce --no-snapshots        # skip snapshot files
//! reproduce --audit               # timing-audit every channel's command stream
//! reproduce --telemetry           # windowed time-series + energy attribution
//! ```
//!
//! With `--engine reference`, every experiment runs on the oracle engine
//! (each command issued and checked singly, nothing replayed); reports
//! and snapshots are byte-identical to the default engine's.
//!
//! With `--telemetry`, every channel collects a windowed time series
//! (bandwidth, bank utilization, queue depth, ganged-ACT width, ECC
//! corrections) with per-command energy attribution, and the Fig. 13
//! experiment validates the streamed energy against the postprocessed
//! power model: event counts bit-for-bit, picojoules within 0.1%.
//!
//! With `--audit`, every channel records its full command stream and
//! re-validates it against the raw timing constraints (tRCD, tRP, tRAS,
//! tCCD, tRRD, tFAW, tRTP, tWR, tRFC, tREFI) at the end of each run; a
//! violation aborts the experiment with a typed error instead of
//! producing silently-wrong timing numbers.
//!
//! The experiments run on a bounded worker pool
//! (`newton_bench::harness`); reports and snapshot files are merged in
//! the canonical order, so the output is byte-identical for every
//! `--threads` value (`--threads 1` is the fully serial reference).
//!
//! Besides the printed tables, every experiment writes a versioned JSON
//! metrics snapshot (`<snapshot-dir>/<experiment>.json`, schema version
//! `newton_trace::SNAPSHOT_SCHEMA_VERSION`) so results diff across
//! commits.

use newton_bench::harness::{run_experiments, HarnessOptions, EXPERIMENTS};
use newton_bench::snapshot::SnapshotWriter;
use newton_dram::TimingEngine;
use std::path::PathBuf;

struct Args {
    opts: HarnessOptions,
    snapshot_dir: Option<PathBuf>,
}

impl Args {
    fn from_env() -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--list") {
            println!("experiments: {}", EXPERIMENTS.join(", "));
            std::process::exit(0);
        }
        let mut only = Vec::new();
        let mut threads = None;
        let mut engine = TimingEngine::default();
        let mut audit = false;
        let mut telemetry = false;
        let mut snapshot_dir = Some(PathBuf::from("target/snapshots"));
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--only" => match it.next() {
                    Some(v) => only.extend(v.split(',').map(|s| s.trim().to_string())),
                    None => {
                        eprintln!("error: --only requires a value (try --list)");
                        std::process::exit(2);
                    }
                },
                "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => threads = Some(n),
                    _ => {
                        eprintln!("error: --threads requires a positive integer");
                        std::process::exit(2);
                    }
                },
                "--engine" => match it.next().as_deref() {
                    Some("reference") => engine = TimingEngine::Reference,
                    Some("event-skipping") => engine = TimingEngine::EventSkipping,
                    _ => {
                        eprintln!("error: --engine requires `reference` or `event-skipping`");
                        std::process::exit(2);
                    }
                },
                "--snapshot-dir" => match it.next() {
                    Some(v) => snapshot_dir = Some(PathBuf::from(v)),
                    None => {
                        eprintln!("error: --snapshot-dir requires a path");
                        std::process::exit(2);
                    }
                },
                "--no-snapshots" => snapshot_dir = None,
                "--audit" => audit = true,
                "--telemetry" => telemetry = true,
                _ => {}
            }
        }
        // Reject filters that match nothing rather than silently running
        // an empty evaluation.
        for f in &only {
            if !EXPERIMENTS.iter().any(|e| e.contains(f.as_str())) {
                eprintln!("error: no experiment matches {f:?} (try --list)");
                std::process::exit(2);
            }
        }
        Args {
            opts: HarnessOptions {
                filter: only,
                threads,
                engine,
                audit,
                telemetry,
            },
            snapshot_dir,
        }
    }
}

fn main() {
    let args = Args::from_env();
    let t0 = std::time::Instant::now();
    println!("Newton (MICRO 2020) reproduction\n");

    let reports = match run_experiments(&args.opts) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    // Reports arrive in canonical order regardless of the pool width:
    // print, then persist, in that same order.
    let mut snapshots = SnapshotWriter::new(args.snapshot_dir.as_deref());
    for r in &reports {
        print!("{}", r.text);
        if let Err(e) = snapshots.write(&r.snapshot) {
            eprintln!(
                "warning: snapshot {} not written: {e}",
                r.snapshot.experiment()
            );
        }
    }

    if !snapshots.written().is_empty() {
        println!(
            "metrics snapshots: {} file(s) in {}",
            snapshots.written().len(),
            args.snapshot_dir
                .as_deref()
                .map(|p| p.display().to_string())
                .unwrap_or_default()
        );
    }
    println!(
        "workers: {} thread(s); total wall time: {:.1} s",
        args.opts.threads(),
        t0.elapsed().as_secs_f64()
    );
}
