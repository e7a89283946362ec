//! `bench`: the repository's benchmark.
//!
//! ```text
//! bench --workload NAME --seed N --seconds S --trace 0|1   one workload, in this process
//! bench run [--seed N] [--seconds S] [--smoke]             all seven, untraced then traced
//! bench compare A.json B.json                              regressed / improved / unresolved
//! bench validate FILE...                                   schema check, duplicate keys rejected
//! ```
//!
//! See `benchmark/README.md` for what the workloads and metrics are and
//! why they were chosen.

mod api;
mod probes;
mod report;
mod runner;
mod spans;
mod spec;
mod stats;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Scale;

const USAGE: &str = "usage:
  bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
  bench run [--seed N] [--seconds S] [--smoke] [--out-dir DIR]
  bench compare A.json B.json
  bench validate FILE...";

/// Options shared by the single-workload form and `bench run`.
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub out_dir: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 11,
        seconds: 15.0,
        trace: false,
        scale: Scale::Full,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.to_string()),
            "--seed" => {
                o.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                o.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds needs a number of seconds from 0 to 3600")?;
            }
            "--trace" => {
                o.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--smoke" => o.scale = Scale::Smoke,
            "--out-dir" => o.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn single(o: &Options, workload: &str) -> Result<ExitCode, String> {
    let outcome = runner::run(o, workload)?;
    outcome.print();
    // `bench run` picks the full outcome up from here; the last line of
    // standard output is the part the driver reads.
    let path = suite::outcome_path(&o.out_dir, workload, o.trace);
    std::fs::create_dir_all(&o.out_dir)
        .and_then(|()| std::fs::write(&path, outcome.to_json().render_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{}", outcome.result_line());
    Ok(ExitCode::SUCCESS)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => suite::run_all(&parse_options(&args[1..])?),
        Some("compare") => {
            let [a, b] = &args[1..] else {
                return Err("compare needs two result files".into());
            };
            let cmp = report::compare(&read(a)?, &read(b)?)?;
            suite::print_comparison(&cmp);
            Ok(if cmp.regressions() == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("validate") => {
            if args.len() < 2 {
                return Err("validate needs at least one file".into());
            }
            let mut sound = true;
            for path in &args[1..] {
                let problems = report::validate(&read(path)?);
                println!(
                    "{path}: {}",
                    if problems.is_empty() { "ok" } else { "invalid" }
                );
                for p in &problems {
                    println!("  {p}");
                }
                sound &= problems.is_empty();
            }
            Ok(if sound {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some(flag) if flag.starts_with("--") => {
            let o = parse_options(args)?;
            let workload = o.workload.clone().ok_or("--workload is required")?;
            single(&o, &workload)
        }
        _ => Err(format!("no command given\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    // The library reads a few NEWTON_* variables (threads, engine, replay);
    // the benchmark measures the defaults, whatever the caller's shell has
    // set. Nothing else runs yet, so changing the environment is safe.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("NEWTON_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
