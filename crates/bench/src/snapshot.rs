//! Metrics-snapshot writing for the `reproduce` harness.
//!
//! Every experiment `reproduce` runs can be captured as a versioned JSON
//! document ([`newton_trace::MetricsSnapshot`], with a
//! `schema_version` key) next to its printed
//! figure/table, so results diff across commits instead of being
//! eyeballed from terminal output.

use crate::report::Table;
use newton_trace::MetricsSnapshot;
use std::io;
use std::path::{Path, PathBuf};

/// Adds a rendered [`Table`] to `snap` under `title`.
pub(crate) fn add_table(snap: &mut MetricsSnapshot, title: &str, table: &Table) {
    snap.table(title, table.header(), table.rows());
}

/// Writes one snapshot file per experiment into a directory.
#[derive(Debug)]
pub struct SnapshotWriter {
    dir: Option<PathBuf>,
    written: Vec<PathBuf>,
}

impl SnapshotWriter {
    /// A writer targeting `dir`; `None` disables writing entirely.
    #[must_use]
    pub fn new(dir: Option<&Path>) -> SnapshotWriter {
        SnapshotWriter {
            dir: dir.map(Path::to_path_buf),
            written: Vec::new(),
        }
    }

    /// Serializes `snap` to `<dir>/<experiment>.json` (creating the
    /// directory on first use). A disabled writer is a no-op.
    ///
    /// # Errors
    ///
    /// I/O errors from directory creation or the file write.
    pub fn write(&mut self, snap: &MetricsSnapshot) -> io::Result<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", snap.experiment()));
        std::fs::write(&path, snap.render())?;
        self.written.push(path);
        Ok(())
    }

    /// Paths written so far, in write order.
    #[must_use]
    pub fn written(&self) -> &[PathBuf] {
        &self.written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use newton_trace::JsonValue;

    #[test]
    fn disabled_writer_writes_nothing() {
        let mut w = SnapshotWriter::new(None);
        w.write(&MetricsSnapshot::new("x")).unwrap();
        assert!(w.written().is_empty());
    }

    #[test]
    fn writes_versioned_json_per_experiment() {
        let dir = std::env::temp_dir().join("newton-snapshot-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut w = SnapshotWriter::new(Some(&dir));

        let mut table = Table::new(&["workload", "speedup"]);
        table.row(&["GNMTs1".into(), "10.00x".into()]);
        let mut snap = MetricsSnapshot::new("fig99");
        snap.scalar("geomean", 10.0);
        add_table(&mut snap, "Fig. 99", &table);
        w.write(&snap).unwrap();

        assert_eq!(w.written().len(), 1);
        let text = std::fs::read_to_string(&w.written()[0]).unwrap();
        let doc = JsonValue::parse(&text).unwrap();
        assert_eq!(
            doc.get("schema_version"),
            MetricsSnapshot::new("fig99")
                .to_json()
                .get("schema_version")
        );
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("fig99"));
        let tables = doc.get("tables").unwrap().as_array().unwrap();
        assert_eq!(
            tables[0].get("columns").unwrap().as_array().unwrap()[0].as_str(),
            Some("workload")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
