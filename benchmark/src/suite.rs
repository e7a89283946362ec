//! `bench run`: every workload one after another, each in a process of its
//! own, first untraced and then traced, gathered into one result file.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use crate::api::JsonValue;
use crate::report::{Comparison, Verdict, RESULT_SCHEMA};
use crate::workloads::Scale;
use crate::{spec, Options};

/// Where a single-workload run leaves its full outcome.
#[must_use]
pub fn outcome_path(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
    let pass = if traced { "traced" } else { "untraced" };
    out_dir.join(format!("run-{workload}-{pass}.json"))
}

/// The checked-out revision, read from `.git` without running git.
fn git_revision() -> String {
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(dir) = [".git", "../.git"]
        .iter()
        .map(PathBuf::from)
        .find(|p| p.is_dir())
    else {
        return "unknown".into();
    };
    let Some(head) = read(dir.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(dir.join(reference))
        .or_else(|| {
            read(dir.join("packed-refs"))?.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// Runs one workload in a child process and reads back its outcome.
fn child(o: &Options, workload: &str, traced: bool) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&o.out_dir);
    if o.scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    // `status` waits for the child to end.
    let status = cmd
        .status()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{workload} ({}) ended with {status}",
            if traced { "traced" } else { "untraced" }
        ));
    }
    let path = outcome_path(&o.out_dir, workload, traced);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn field(v: &JsonValue, key: &str) -> JsonValue {
    v.get(key).cloned().unwrap_or(JsonValue::Null)
}

/// `bench run`.
///
/// # Errors
///
/// A child that fails, or a result file that cannot be written.
pub fn run_all(o: &Options) -> Result<ExitCode, String> {
    let started = Instant::now();
    let load_start = loadavg();
    let mut passes: Vec<(JsonValue, JsonValue)> = Vec::new();
    for w in &spec::WORKLOADS {
        passes.push((child(o, w.name, false)?, JsonValue::Null));
    }
    for (w, pass) in spec::WORKLOADS.iter().zip(&mut passes) {
        pass.1 = child(o, w.name, true)?;
    }

    let mut failed = 0u64;
    let workloads = spec::WORKLOADS
        .iter()
        .zip(&passes)
        .map(|(w, (untraced, traced))| {
            failed += [untraced, traced]
                .iter()
                .filter_map(|p| p.get("failed").and_then(JsonValue::as_f64))
                .sum::<f64>() as u64;
            JsonValue::Object(vec![
                ("name".into(), JsonValue::from(w.name)),
                ("why".into(), JsonValue::from(w.why)),
                ("config_digest".into(), field(untraced, "config_digest")),
                ("sim_digest".into(), field(untraced, "sim_digest")),
                ("correct".into(), field(untraced, "correct")),
                ("attempted".into(), field(untraced, "attempted")),
                ("failed".into(), field(untraced, "failed")),
                ("rounds".into(), field(untraced, "rounds")),
                ("wall_s".into(), field(untraced, "wall_s")),
                ("traced_rounds".into(), field(traced, "rounds")),
                ("traced_wall_s".into(), field(traced, "wall_s")),
                ("traced_failed".into(), field(traced, "failed")),
                ("end_to_end".into(), field(untraced, "metrics")),
                ("per_layer".into(), field(traced, "metrics")),
            ])
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let manifest = JsonValue::Object(vec![
        ("git_revision".into(), JsonValue::from(git_revision())),
        ("rustc".into(), JsonValue::from(rustc_version())),
        ("host_cores".into(), JsonValue::from(cores)),
        ("cpu_model".into(), JsonValue::from(cpu_model())),
        ("loadavg_start".into(), JsonValue::from(load_start)),
        ("loadavg_end".into(), JsonValue::from(loadavg())),
        ("seed".into(), JsonValue::from(o.seed)),
        ("seconds_per_run".into(), JsonValue::Num(o.seconds)),
        ("smoke".into(), JsonValue::from(o.scale == Scale::Smoke)),
        ("threads_per_workload".into(), JsonValue::from(1u64)),
        (
            "wall_s".into(),
            JsonValue::Num(started.elapsed().as_secs_f64()),
        ),
    ]);
    let doc = JsonValue::Object(vec![
        ("schema".into(), JsonValue::from(RESULT_SCHEMA)),
        ("manifest".into(), manifest),
        ("workloads".into(), JsonValue::Array(workloads)),
    ]);
    let path = o.out_dir.join("result.json");
    std::fs::write(&path, doc.render_pretty() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "wrote {} ({} workloads, {failed} failed queries, {:.1} s)",
        path.display(),
        spec::WORKLOADS.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

pub fn print_comparison(cmp: &Comparison) {
    println!(
        "{:<14} {:<24} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "worse by"
    );
    for c in &cmp.cells {
        println!(
            "{:<14} {:<24} {:>16.6} {:>16.6} {:>+8.2}%  {}",
            c.workload,
            c.metric,
            c.a,
            c.b,
            100.0 * c.worse_by,
            c.verdict.as_str()
        );
    }
    for n in &cmp.notes {
        println!("note: {n}");
    }
    let count = |v: Verdict| cmp.cells.iter().filter(|c| c.verdict == v).count();
    println!(
        "{} regressed, {} improved, {} unresolved, {} held, {} equal",
        count(Verdict::Regressed),
        count(Verdict::Improved),
        count(Verdict::Unresolved),
        count(Verdict::Held),
        count(Verdict::Equal)
    );
}
