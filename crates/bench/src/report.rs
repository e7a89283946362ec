//! Table rendering and small statistics helpers for experiment output.

/// Geometric mean of positive values; 0 for an empty slice.
#[must_use]
pub(crate) fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// A plain-text table builder with right-aligned numeric columns.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub(crate) fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub(crate) fn row(&mut self, cells: &[String]) -> &mut Table {
        self.rows.push(cells.to_vec());
        self
    }

    /// The column headers.
    #[must_use]
    pub(crate) fn header(&self) -> &[String] {
        &self.header
    }

    /// The rows appended so far.
    #[must_use]
    pub(crate) fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders with column alignment: first column left, rest right.
    #[must_use]
    pub(crate) fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    line.push_str(&format!("{:<w$}", c, w = widths[0]));
                } else {
                    line.push_str(&format!("  {:>w$}", c, w = widths[i]));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Formats a speedup as `12.3x`.
#[must_use]
pub(crate) fn fx(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats nanoseconds with an adaptive unit.
#[must_use]
pub(crate) fn fns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-9);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["alpha".into(), "1.0x".into()]);
        t.row(&["b".into(), "123.4x".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Right alignment: both value cells end at the same column.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(fx(10.0), "10.00x");
        assert_eq!(fns(500.0), "500 ns");
        assert_eq!(fns(5_000.0), "5.00 us");
        assert_eq!(fns(5_000_000.0), "5.00 ms");
    }
}
