//! Regenerates every table and figure of the Newton (MICRO 2020)
//! evaluation in one run. See EXPERIMENTS.md for the paper-vs-measured
//! record.
//!
//! Usage:
//!
//! ```sh
//! reproduce                        # everything (~20 s in release)
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
//! An argument that is not in this list exits 2 naming it, and so does an
//! `--only` value matching no experiment or naming none (empty names
//! between commas are dropped); a simulator error or a snapshot
//! that cannot be written exits 1. Every experiment checks the shape
//! claim the paper makes about it on the rows it renders (and `campaign`
//! / `serving` their zero-SDC and accounting guarantees): a violated
//! claim panics, so a clean exit is the check.
//!
//! With `--engine reference`, every experiment runs on the oracle (each
//! command issued and checked singly, every activation scrubbed, every
//! COMP computed by the scalar kernels); reports and snapshots are
//! byte-identical to the default engine's.
//!
//! With `--telemetry`, every channel collects a windowed time series
//! (bandwidth, bank utilization, queue depth, ganged-ACT width, ECC
//! corrections) with per-command energy attribution, and the Fig. 13
//! experiment validates the streamed energy against the postprocessed
//! power model: event counts bit-for-bit, picojoules within 0.1%.
//!
//! With `--audit`, every channel logs its command stream and, at the end
//! of each run, checks what the run added against the raw timing
//! constraints (tRCD, tRP, tRAS, tCCD, tRRD, tFAW, tRTP, tWR, tRFC,
//! tREFI); a violation aborts the experiment with a typed error instead
//! of producing silently-wrong timing numbers. The audit watches the
//! path that serves traffic — trains stay closed-form — so reports and
//! snapshots are byte-identical with and without it.
//!
//! The experiments run on a bounded worker pool
//! (`newton_bench::harness`); reports and snapshot files are merged in
//! the canonical order, so the output is byte-identical for every
//! `--threads` value (`--threads 1` is the fully serial reference).
//!
//! Besides the printed tables, every experiment writes a versioned JSON
//! metrics snapshot (`<snapshot-dir>/<experiment>.json`, with a
//! `schema_version` key) so results diff across commits.

use newton_bench::harness::{run_experiments, HarnessOptions, EXPERIMENTS};
use newton_bench::snapshot::SnapshotWriter;
use newton_core::config::TimingEngine;
use std::path::PathBuf;

/// What the command line asked for.
#[derive(Debug)]
enum Command {
    /// `--list`: print the experiment names and stop.
    List,
    /// Run the selected experiments.
    Run {
        opts: HarnessOptions,
        snapshot_dir: Option<PathBuf>,
    },
}

/// Parses the arguments after the program name. Anything not recognised
/// is an error naming it: a misspelt flag must never run the defaults.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut opts = HarnessOptions::default();
    let mut snapshot_dir = Some(PathBuf::from("target/snapshots"));
    let mut list = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => list = true,
            "--only" => {
                let v = it.next().ok_or("--only requires a value (try --list)")?;
                // An empty name is a substring of every experiment's.
                let names: Vec<String> = v
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
                if names.is_empty() {
                    return Err(format!("--only {v:?} names no experiment (try --list)"));
                }
                opts.filter.extend(names);
            }
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => opts.threads = Some(n),
                _ => return Err("--threads requires a positive integer".into()),
            },
            "--engine" => match it.next().as_deref() {
                Some("reference") => opts.engine = TimingEngine::Reference,
                Some("event-skipping") => opts.engine = TimingEngine::EventSkipping,
                _ => return Err("--engine requires `reference` or `event-skipping`".into()),
            },
            "--snapshot-dir" => {
                let v = it.next().ok_or("--snapshot-dir requires a path")?;
                snapshot_dir = Some(PathBuf::from(v));
            }
            "--no-snapshots" => snapshot_dir = None,
            "--audit" => opts.audit = true,
            "--telemetry" => opts.telemetry = true,
            other => {
                return Err(format!(
                    "unknown argument {other:?} (known: --list, --only, --threads, --engine, \
                     --snapshot-dir, --no-snapshots, --audit, --telemetry)"
                ))
            }
        }
    }
    // Reject filters that match nothing rather than silently running
    // an empty evaluation.
    for f in &opts.filter {
        if !EXPERIMENTS.iter().any(|e| e.contains(f.as_str())) {
            return Err(format!("no experiment matches {f:?} (try --list)"));
        }
    }
    Ok(if list {
        Command::List
    } else {
        Command::Run { opts, snapshot_dir }
    })
}

fn main() {
    let (opts, snapshot_dir) = match parse_args(std::env::args().skip(1)) {
        Ok(Command::List) => {
            println!("experiments: {}", EXPERIMENTS.join(", "));
            return;
        }
        Ok(Command::Run { opts, snapshot_dir }) => (opts, snapshot_dir),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let t0 = std::time::Instant::now();
    println!("Newton (MICRO 2020) reproduction\n");

    let reports = match run_experiments(&opts) {
        Ok(reports) => reports,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    // Reports arrive in canonical order regardless of the pool width:
    // print, then persist, in that same order.
    let mut snapshots = SnapshotWriter::new(snapshot_dir.as_deref());
    for r in &reports {
        print!("{}", r.text);
        if let Err(e) = snapshots.write(&r.snapshot) {
            eprintln!(
                "error: snapshot {} not written: {e}",
                r.snapshot.experiment()
            );
            std::process::exit(1);
        }
    }

    if !snapshots.written().is_empty() {
        println!(
            "metrics snapshots: {} file(s) in {}",
            snapshots.written().len(),
            snapshot_dir
                .as_deref()
                .map(|p| p.display().to_string())
                .unwrap_or_default()
        );
    }
    println!(
        "workers: {} thread(s); total wall time: {:.1} s",
        opts.threads(),
        t0.elapsed().as_secs_f64()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn whatever_is_not_recognised_is_refused_by_name() {
        // Each of these ran the defaults and exited 0 before.
        for stray in ["--engine=reference", "--telemetery", "--quick", "fig09"] {
            let err = parse(&[stray]).expect_err(stray);
            assert!(err.contains(stray), "{err}");
        }
        assert!(parse(&["--only", "fig09", "--quick"]).is_err());
    }

    #[test]
    fn options_that_take_a_value_need_a_valid_one() {
        for args in [
            &["--engine"][..],
            &["--engine", "fast"],
            &["--only"],
            &["--threads"],
            &["--threads", "0"],
            &["--snapshot-dir"],
        ] {
            assert!(parse(args).is_err(), "{args:?}");
        }
    }

    #[test]
    fn a_filter_matching_nothing_is_refused() {
        let err = parse(&["--only", "fig09,fig99"]).expect_err("fig99");
        assert!(err.contains("fig99") && err.contains("--list"), "{err}");
        // Each of these matched every experiment and exited 0 before.
        for empty in ["", ",", " , "] {
            let err = parse(&["--only", empty]).expect_err(empty);
            assert!(err.contains("--list"), "{err}");
        }
        // A trailing comma adds no empty name that would match them all.
        let Ok(Command::Run { opts, .. }) = parse(&["--only", "fig13,"]) else {
            panic!("fig13, names fig13");
        };
        assert_eq!(opts.filter, ["fig13"]);
    }

    #[test]
    fn the_accepted_set_lands_in_the_options() {
        let Ok(Command::Run { opts, snapshot_dir }) = parse(&[
            "--only",
            "fig09, table3",
            "--threads",
            "3",
            "--engine",
            "reference",
            "--snapshot-dir",
            "out",
            "--audit",
            "--telemetry",
        ]) else {
            panic!("accepted arguments");
        };
        assert_eq!(opts.filter, ["fig09", "table3"]);
        assert_eq!(opts.threads, Some(3));
        assert_eq!(opts.engine, TimingEngine::Reference);
        assert!(opts.audit && opts.telemetry);
        assert_eq!(snapshot_dir, Some(PathBuf::from("out")));

        let Ok(Command::Run { opts, snapshot_dir }) = parse(&["--no-snapshots"]) else {
            panic!("accepted arguments");
        };
        assert!(opts.filter.is_empty(), "no filter selects everything");
        assert_eq!(opts.engine, TimingEngine::EventSkipping);
        assert_eq!(snapshot_dir, None);
        assert!(matches!(parse(&["--list"]), Ok(Command::List)));
        assert!(matches!(parse(&[]), Ok(Command::Run { .. })));
    }
}
