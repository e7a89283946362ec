//! Versioned metrics snapshots.
//!
//! Every experiment the `reproduce` harness runs can emit one snapshot: a
//! small JSON document with a schema-version field, the experiment name,
//! free-form scalar metrics, and the rendered result table. Snapshots are
//! diffable across commits, so performance PRs can prove their wins and
//! regressions show up as JSON diffs rather than eyeballed table output.
//!
//! Schema (version 1):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "telemetry_schema_version": 3,
//!   "experiment": "fig07",
//!   "generator": "newton-bench",
//!   "scalars": {"geomean_speedup": 9.8},
//!   "tables": [
//!     {"title": "...", "columns": ["workload", "speedup"],
//!      "rows": [["GNMTs1", "10.1"]]}
//!   ]
//! }
//! ```
//!
//! Consumers must ignore unknown keys; producers may only add keys
//! without bumping `schema_version`.

use crate::json::JsonValue;
use crate::timeseries::TELEMETRY_SCHEMA_VERSION;

/// Current snapshot schema version. Bump only for breaking shape changes.
pub(crate) const SNAPSHOT_SCHEMA_VERSION: u64 = 1;

/// One experiment's metrics, ready to serialize.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    experiment: String,
    scalars: Vec<(String, JsonValue)>,
    tables: Vec<SnapshotTable>,
}

/// A rendered result table inside a snapshot.
#[derive(Debug, Clone)]
struct SnapshotTable {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MetricsSnapshot {
    /// An empty snapshot for `experiment`.
    #[must_use]
    pub fn new(experiment: &str) -> MetricsSnapshot {
        MetricsSnapshot {
            experiment: experiment.to_string(),
            scalars: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// The experiment name.
    #[must_use]
    pub fn experiment(&self) -> &str {
        &self.experiment
    }

    /// Adds a named numeric metric.
    pub fn scalar(&mut self, key: &str, value: f64) -> &mut Self {
        self.scalars.push((key.to_string(), JsonValue::from(value)));
        self
    }

    /// Adds a named integer metric (exact up to `u64::MAX`).
    pub fn count(&mut self, key: &str, value: u64) -> &mut Self {
        self.scalars.push((key.to_string(), JsonValue::from(value)));
        self
    }

    /// Adds a named text metric.
    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        self.scalars.push((key.to_string(), JsonValue::from(value)));
        self
    }

    /// Adds a result table.
    pub fn table(&mut self, title: &str, columns: &[String], rows: &[Vec<String>]) -> &mut Self {
        self.tables.push(SnapshotTable {
            title: title.to_string(),
            columns: columns.to_vec(),
            rows: rows.to_vec(),
        });
        self
    }

    /// Serializes to the versioned JSON document.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "schema_version".into(),
                JsonValue::from(SNAPSHOT_SCHEMA_VERSION),
            ),
            // Additive (consumers ignore unknown keys): which telemetry
            // document shape this generator emits, so downstream
            // validators can dispatch without sniffing.
            (
                "telemetry_schema_version".into(),
                JsonValue::from(TELEMETRY_SCHEMA_VERSION),
            ),
            (
                "experiment".into(),
                JsonValue::from(self.experiment.as_str()),
            ),
            ("generator".into(), JsonValue::from("newton-bench")),
            ("scalars".into(), JsonValue::Object(self.scalars.clone())),
            (
                "tables".into(),
                JsonValue::Array(
                    self.tables
                        .iter()
                        .map(|t| {
                            JsonValue::Object(vec![
                                ("title".into(), JsonValue::from(t.title.as_str())),
                                (
                                    "columns".into(),
                                    JsonValue::Array(
                                        t.columns
                                            .iter()
                                            .map(|c| JsonValue::from(c.as_str()))
                                            .collect(),
                                    ),
                                ),
                                (
                                    "rows".into(),
                                    JsonValue::Array(
                                        t.rows
                                            .iter()
                                            .map(|r| {
                                                JsonValue::Array(
                                                    r.iter()
                                                        .map(|c| JsonValue::from(c.as_str()))
                                                        .collect(),
                                                )
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Pretty-rendered JSON, ending in a newline (file-friendly).
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = self.to_json().render_pretty();
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_shape_and_version() {
        let mut snap = MetricsSnapshot::new("fig07");
        snap.scalar("geomean_speedup", 10.4)
            .count("workloads", 6)
            .text("note", "per-layer GEMV")
            .table(
                "Fig. 7",
                &["workload".to_string(), "speedup".to_string()],
                &[vec!["GNMTs1".to_string(), "10.1".to_string()]],
            );
        let doc = JsonValue::parse(&snap.render()).unwrap();
        assert_eq!(
            doc.get("schema_version").unwrap().as_f64(),
            Some(SNAPSHOT_SCHEMA_VERSION as f64)
        );
        assert_eq!(
            doc.get("telemetry_schema_version").unwrap().as_f64(),
            Some(TELEMETRY_SCHEMA_VERSION as f64)
        );
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("fig07"));
        let scalars = doc.get("scalars").unwrap();
        assert_eq!(scalars.get("geomean_speedup").unwrap().as_f64(), Some(10.4));
        assert_eq!(scalars.get("workloads").unwrap().as_f64(), Some(6.0));
        let tables = doc.get("tables").unwrap().as_array().unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(
            tables[0].get("rows").unwrap().as_array().unwrap()[0]
                .as_array()
                .unwrap()[0]
                .as_str(),
            Some("GNMTs1")
        );
    }

    #[test]
    fn empty_snapshot_is_still_valid() {
        let snap = MetricsSnapshot::new("table2");
        let doc = JsonValue::parse(&snap.render()).unwrap();
        assert!(doc.get("tables").unwrap().as_array().unwrap().is_empty());
        assert_eq!(snap.experiment(), "table2");
    }
}
