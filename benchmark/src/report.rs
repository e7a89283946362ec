//! Result files: checking them (`bench validate`) and comparing two of
//! them (`bench compare`).

use std::collections::BTreeSet;

use crate::api::JsonValue;
use crate::spec::{self, Better, Kind};
use crate::stats::spread;

pub const RESULT_SCHEMA: &str = "newton-benchmark-result/1";

fn object(v: &JsonValue) -> Option<&[(String, JsonValue)]> {
    match v {
        JsonValue::Object(entries) => Some(entries),
        _ => None,
    }
}

/// Every object key that occurs twice, with the path to it. A plain
/// `get` returns the first occurrence and hides the second, which is how
/// `BENCH_pr7.json` came to carry one key twice.
fn duplicate_keys(v: &JsonValue, path: &str, out: &mut Vec<String>) {
    match v {
        JsonValue::Object(entries) => {
            let mut seen = BTreeSet::new();
            for (k, child) in entries {
                let here = format!("{path}/{k}");
                if !seen.insert(k.as_str()) {
                    out.push(format!("duplicate key {here}"));
                }
                duplicate_keys(child, &here, out);
            }
        }
        JsonValue::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                duplicate_keys(child, &format!("{path}[{i}]"), out);
            }
        }
        _ => {}
    }
}

fn exact_keys(v: &JsonValue, want: &[&str], path: &str, out: &mut Vec<String>) {
    let Some(entries) = object(v) else {
        out.push(format!("{path} is not an object"));
        return;
    };
    for key in want {
        if !entries.iter().any(|(k, _)| k == key) {
            out.push(format!("{path} lacks key {key:?}"));
        }
    }
    for (k, _) in entries {
        if !want.contains(&k.as_str()) {
            out.push(format!("{path} has unknown key {k:?}"));
        }
    }
}

fn check_direction(v: &JsonValue, want: Better, path: &str, out: &mut Vec<String>) {
    if v.get("better").and_then(JsonValue::as_str) != Some(want.as_str()) {
        out.push(format!("{path}: better must be {:?}", want.as_str()));
    }
}

fn check_benchmark_json(doc: &JsonValue, out: &mut Vec<String>) {
    exact_keys(
        doc,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        "BENCHMARK.json",
        out,
    );
    let list = |key: &str| doc.get(key).and_then(JsonValue::as_array).unwrap_or(&[]);
    if list("command").is_empty() || list("command").iter().any(|c| c.as_str().is_none()) {
        out.push("command must be a non-empty list of strings".into());
    }
    if list("paths").is_empty() {
        out.push("paths must name at least one directory".into());
    }
    match doc.get("run_seconds") {
        Some(JsonValue::UInt(1..=60)) => {}
        _ => out.push("run_seconds must be a whole number from 1 to 60".into()),
    }

    let mut names = BTreeSet::new();
    let mut named = |v: &JsonValue, path: &str, out: &mut Vec<String>| -> Option<String> {
        let name = v.get("name").and_then(JsonValue::as_str)?;
        if !spec::valid_name(name) {
            out.push(format!("{path}: name {name:?} is outside [A-Za-z0-9_.-]"));
        }
        if !names.insert(name.to_string()) {
            out.push(format!("{path}: name {name:?} is used twice"));
        }
        Some(name.to_string())
    };
    if !(2..=8).contains(&list("workloads").len()) {
        out.push("workloads must hold 2 to 8 entries".into());
    }
    for (i, w) in list("workloads").iter().enumerate() {
        let path = format!("workloads[{i}]");
        exact_keys(w, &["name", "why"], &path, out);
        if let Some(name) = named(w, &path, out) {
            if spec::workload(&name).is_none() {
                out.push(format!("{path}: unknown workload {name:?}"));
            }
        }
        let why = w.get("why").and_then(JsonValue::as_str).unwrap_or("");
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            out.push(format!(
                "{path}: why must be one line of at most 200 characters"
            ));
        }
    }
    let mut has_setup = false;
    for (i, m) in list("end_to_end").iter().enumerate() {
        let path = format!("end_to_end[{i}]");
        exact_keys(m, &["name", "unit", "better", "bound"], &path, out);
        let Some(name) = named(m, &path, out) else {
            continue;
        };
        let Some(decl) = spec::end_to_end(&name) else {
            out.push(format!("{path}: unknown end-to-end metric {name:?}"));
            continue;
        };
        has_setup |= name == spec::SETUP_S;
        if m.get("unit").and_then(JsonValue::as_str) != Some(decl.unit) {
            out.push(format!("{path}: unit must be {:?}", decl.unit));
        }
        check_direction(m, decl.better, &path, out);
        if m.get("bound").and_then(JsonValue::as_f64) != Some(decl.bound) {
            out.push(format!("{path}: bound must be {}", decl.bound));
        }
    }
    if !has_setup {
        out.push("end_to_end must declare setup_s".into());
    }
    if !(1..=128).contains(&list("per_layer").len()) {
        out.push("per_layer must hold 1 to 128 entries".into());
    }
    for (i, m) in list("per_layer").iter().enumerate() {
        let path = format!("per_layer[{i}]");
        exact_keys(m, &["name", "unit", "better"], &path, out);
        let Some(name) = named(m, &path, out) else {
            continue;
        };
        let Some(decl) = spec::per_layer(&name) else {
            out.push(format!("{path}: unknown per-layer metric {name:?}"));
            continue;
        };
        if m.get("unit").and_then(JsonValue::as_str) != Some(decl.unit) {
            out.push(format!("{path}: unit must be {:?}", decl.unit));
        }
        check_direction(m, decl.better, &path, out);
    }
}

fn check_metric_map(
    v: Option<&JsonValue>,
    declared: &[(&str, &str)],
    path: &str,
    out: &mut Vec<String>,
) {
    let Some(entries) = v.and_then(object) else {
        out.push(format!("{path} is not an object"));
        return;
    };
    for (name, metric) in entries {
        if !spec::valid_name(name) {
            out.push(format!("{path}: name {name:?} is outside [A-Za-z0-9_.-]"));
        }
        match declared.iter().find(|(n, _)| n == name) {
            None => out.push(format!("{path}: unknown metric {name:?}")),
            Some((_, unit)) => {
                if metric.get("unit").and_then(JsonValue::as_str) != Some(unit) {
                    out.push(format!("{path}/{name}: unit must be {unit:?}"));
                }
                if !metric
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .is_some_and(f64::is_finite)
                {
                    out.push(format!("{path}/{name}: value must be a finite number"));
                }
            }
        }
    }
    for (name, _) in declared {
        let count = entries.iter().filter(|(n, _)| n == name).count();
        if count != 1 {
            out.push(format!(
                "{path}: metric {name:?} appears {count} times, expected once"
            ));
        }
    }
}

fn check_result(doc: &JsonValue, out: &mut Vec<String>) {
    for key in [
        "git_revision",
        "rustc",
        "cpu_model",
        "loadavg_start",
        "loadavg_end",
    ] {
        if doc
            .get("manifest")
            .and_then(|m| m.get(key))
            .and_then(JsonValue::as_str)
            .is_none()
        {
            out.push(format!("manifest lacks text field {key:?}"));
        }
    }
    for key in ["host_cores", "seed"] {
        if doc
            .get("manifest")
            .and_then(|m| m.get(key))
            .and_then(JsonValue::as_f64)
            .is_none()
        {
            out.push(format!("manifest lacks number {key:?}"));
        }
    }
    let end_to_end: Vec<(&str, &str)> = spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let per_layer: Vec<(&str, &str)> = spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    let workloads = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    if workloads.is_empty() {
        out.push("result holds no workloads".into());
    }
    let mut seen = BTreeSet::new();
    for w in workloads {
        let name = w.get("name").and_then(JsonValue::as_str).unwrap_or("");
        if spec::workload(name).is_none() {
            out.push(format!("unknown workload {name:?}"));
        }
        if !seen.insert(name) {
            out.push(format!("workload {name:?} appears twice"));
        }
        for key in ["config_digest", "sim_digest"] {
            if w.get(key).and_then(JsonValue::as_str).is_none() {
                out.push(format!("{name}: lacks {key}"));
            }
        }
        for key in ["rounds", "wall_s", "attempted", "failed"] {
            if w.get(key).and_then(JsonValue::as_f64).is_none() {
                out.push(format!("{name}: lacks number {key}"));
            }
        }
        check_metric_map(
            w.get("end_to_end"),
            &end_to_end,
            &format!("{name}/end_to_end"),
            out,
        );
        check_metric_map(
            w.get("per_layer"),
            &per_layer,
            &format!("{name}/per_layer"),
            out,
        );
    }
}

/// Checks the text of `BENCHMARK.json`, of a result file or of a trace
/// file; returns what is wrong with it (nothing when it is sound).
#[must_use]
pub fn validate(text: &str) -> Vec<String> {
    let doc = match JsonValue::parse(text) {
        Ok(doc) => doc,
        Err(e) => return vec![e.to_string()],
    };
    let mut out = Vec::new();
    duplicate_keys(&doc, "", &mut out);
    if doc.get("command").is_some() {
        check_benchmark_json(&doc, &mut out);
    } else {
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some(RESULT_SCHEMA) => check_result(&doc, &mut out),
            Some("newton-benchmark-trace/1") => {}
            other => out.push(format!("unknown schema {other:?}")),
        }
    }
    out
}

/// What `compare` says about one workload x metric cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse by more than the bound (or an exact metric that got worse).
    Regressed,
    /// Better by more than the bound (or an exact metric that got better).
    Improved,
    /// Within the bound, and the spread is narrow enough to say so.
    Held,
    /// The run-to-run spread is wider than the bound: nothing can be said.
    Unresolved,
    /// An exact metric, equal in both files.
    Equal,
}

impl Verdict {
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Held => "held",
            Verdict::Unresolved => "unresolved",
            Verdict::Equal => "equal",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// Signed share of `a` by which `b` is worse (negative: better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// One side of a comparison: the median and the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Side {
    fn from_json(metric: &JsonValue) -> Option<Side> {
        Some(Side {
            value: metric.get("value")?.as_f64()?,
            samples: metric
                .get("samples")
                .and_then(JsonValue::as_array)
                .map(|s| s.iter().filter_map(JsonValue::as_f64).collect())
                .unwrap_or_default(),
        })
    }
}

/// Compares one cell under the metric's rule.
#[must_use]
pub fn judge(decl: &spec::EndToEnd, a: &Side, b: &Side) -> (f64, Verdict) {
    let sign = match decl.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = if a.value == 0.0 {
        sign * (b.value - a.value)
    } else {
        sign * (b.value - a.value) / a.value.abs()
    };
    if decl.kind == Kind::Exact {
        let verdict = if a.value.to_bits() == b.value.to_bits() {
            Verdict::Equal
        } else if worse_by > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Improved
        };
        return (worse_by, verdict);
    }
    // Every run of one side beating every run of the other settles the
    // direction whatever the spread.
    let worse = |x: f64, y: f64| sign * (x - y) > 0.0;
    let all = |f: &dyn Fn(f64, f64) -> bool| {
        !a.samples.is_empty()
            && !b.samples.is_empty()
            && b.samples
                .iter()
                .all(|&y| a.samples.iter().all(|&x| f(y, x)))
    };
    let verdict = if spread(&a.samples).max(spread(&b.samples)) > decl.bound {
        if all(&|y, x| worse(y, x)) && worse_by > decl.bound {
            Verdict::Regressed
        } else if all(&|y, x| worse(x, y)) {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > decl.bound {
        Verdict::Regressed
    } else if worse_by < -decl.bound {
        Verdict::Improved
    } else {
        Verdict::Held
    };
    (worse_by, verdict)
}

/// The comparison of two result files.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    pub cells: Vec<Cell>,
    /// Workloads whose `sim_digest` differs, or that one file lacks.
    pub notes: Vec<String>,
}

impl Comparison {
    #[must_use]
    pub fn regressions(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.verdict == Verdict::Regressed)
            .count()
    }
}

/// Compares result file `b` against `a`, workload by workload and metric
/// by metric.
///
/// # Errors
///
/// Either text is not a result file.
pub fn compare(a: &str, b: &str) -> Result<Comparison, String> {
    let parse = |text: &str, which: &str| -> Result<JsonValue, String> {
        let problems = validate(text);
        if !problems.is_empty() {
            return Err(format!(
                "{which} is not a sound result file: {}",
                problems.join("; ")
            ));
        }
        JsonValue::parse(text).map_err(|e| e.to_string())
    };
    let (a, b) = (parse(a, "A")?, parse(b, "B")?);
    let workloads = |doc: &JsonValue| -> Vec<JsonValue> {
        doc.get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
            .to_vec()
    };
    let name = |w: &JsonValue| {
        w.get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string()
    };
    let b_workloads = workloads(&b);
    let mut out = Comparison::default();
    for wa in workloads(&a) {
        let workload = name(&wa);
        let Some(wb) = b_workloads.iter().find(|w| name(w) == workload) else {
            out.notes.push(format!("{workload}: missing from B"));
            continue;
        };
        let digest = |w: &JsonValue| {
            w.get("sim_digest")
                .and_then(JsonValue::as_str)
                .map(String::from)
        };
        if digest(&wa) != digest(wb) {
            out.notes.push(format!(
                "{workload}: sim_digest differs ({} vs {}): some simulated statistic changed",
                digest(&wa).unwrap_or_default(),
                digest(wb).unwrap_or_default()
            ));
        }
        for decl in &spec::END_TO_END {
            let side = |w: &JsonValue| {
                w.get("end_to_end")
                    .and_then(|m| m.get(decl.name))
                    .and_then(Side::from_json)
            };
            let (Some(sa), Some(sb)) = (side(&wa), side(wb)) else {
                continue;
            };
            let (worse_by, verdict) = judge(decl, &sa, &sb);
            out.cells.push(Cell {
                workload: workload.clone(),
                metric: decl.name,
                a: sa.value,
                b: sb.value,
                worse_by,
                verdict,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_keys_are_rejected_at_any_depth() {
        // The BENCH_pr7.json failure mode: one key written twice.
        let text = r#"{"schema": "newton-benchmark-trace/1",
            "a": {"reproduce_wall_seconds": 1.0, "x": [{"k": 1, "k": 2}], "reproduce_wall_seconds": 2.0}}"#;
        let problems = validate(text);
        assert!(
            problems
                .iter()
                .any(|p| p == "duplicate key /a/reproduce_wall_seconds"),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p == "duplicate key /a/x[0]/k"),
            "{problems:?}"
        );
        assert!(validate(r#"{"schema": "newton-benchmark-trace/1", "spans": []}"#).is_empty());
    }

    #[test]
    fn benchmark_json_rejects_unknown_and_illegal_names() {
        let doc = |workload: &str, metric: &str| {
            format!(
                r#"{{"command": ["cargo"], "paths": ["benchmark"], "run_seconds": 10,
                "workloads": [{{"name": "{workload}", "why": "w"}}, {{"name": "isa_trace", "why": "w"}}],
                "end_to_end": [{{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}}],
                "per_layer": [{{"name": "{metric}", "unit": "ratio", "better": "higher"}}]}}"#
            )
        };
        assert_eq!(
            validate(&doc("bert_resident", "core.replay.hit_rate")),
            Vec::<String>::new()
        );
        let p = validate(&doc("bert_resident", "core.replay.hits"));
        assert!(
            p.iter().any(|p| p.contains("unknown per-layer metric")),
            "{p:?}"
        );
        let p = validate(&doc("bert resident", "core.replay.hit_rate"));
        assert!(
            p.iter().any(|p| p.contains("outside [A-Za-z0-9_.-]")),
            "{p:?}"
        );
        assert!(p.iter().any(|p| p.contains("unknown workload")), "{p:?}");
        let p = validate(&doc("isa_trace", "core.replay.hit_rate"));
        assert!(p.iter().any(|p| p.contains("used twice")), "{p:?}");
    }

    fn side(value: f64, samples: &[f64]) -> Side {
        Side {
            value,
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn host_cells_are_regressed_improved_held_or_unresolved() {
        let decl = spec::end_to_end(spec::HOST_US_PER_QUERY).unwrap();
        let tight = |m: f64| side(m, &[m * 0.99, m, m * 1.01, m, m]);
        let by = |share: f64| tight(100.0 * (1.0 + share * decl.bound));
        assert_eq!(judge(decl, &tight(100.0), &by(1.5)).1, Verdict::Regressed);
        assert_eq!(judge(decl, &tight(100.0), &by(-1.5)).1, Verdict::Improved);
        assert_eq!(judge(decl, &tight(100.0), &by(0.4)).1, Verdict::Held);
        // Spread wider than the bound: never "held".
        let wide = |m: f64| side(m, &[m * 0.7, m * 0.9, m, m * 1.1, m * 1.3]);
        assert_eq!(
            judge(decl, &wide(100.0), &wide(104.0)).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(decl, &wide(100.0), &wide(115.0)).1,
            Verdict::Unresolved
        );
        // ... unless every run of one side beats every run of the other.
        assert_eq!(judge(decl, &wide(100.0), &wide(40.0)).1, Verdict::Improved);
        assert_eq!(
            judge(decl, &wide(100.0), &wide(300.0)).1,
            Verdict::Regressed
        );
        // Higher is better for throughput.
        let decl = spec::end_to_end(spec::SIM_MCYCLES_PER_HOST_S).unwrap();
        assert_eq!(judge(decl, &tight(100.0), &by(-1.5)).1, Verdict::Regressed);
        assert_eq!(judge(decl, &tight(100.0), &by(1.5)).1, Verdict::Improved);
    }

    #[test]
    fn exact_cells_must_be_equal() {
        let decl = spec::end_to_end(spec::SIM_NS_PER_QUERY).unwrap();
        assert_eq!(
            judge(decl, &side(10.0, &[]), &side(10.0, &[])).1,
            Verdict::Equal
        );
        assert_eq!(
            judge(decl, &side(10.0, &[]), &side(10.001, &[])).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(decl, &side(10.0, &[]), &side(9.0, &[])).1,
            Verdict::Improved
        );
        let decl = spec::end_to_end(spec::FAILED_SHARE).unwrap();
        assert_eq!(
            judge(decl, &side(0.0, &[]), &side(0.0, &[])).1,
            Verdict::Equal
        );
        assert_eq!(
            judge(decl, &side(0.0, &[]), &side(0.01, &[])).1,
            Verdict::Regressed
        );
    }
}
