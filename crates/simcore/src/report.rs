//! Plain-text table and CSV rendering for the experiment binaries.
//!
//! Every figure/table regenerator in `soc-bench` prints its data through
//! [`Table`], so the output format (aligned columns for humans, CSV for
//! scripts) is consistent across the whole evaluation.

use std::fmt::Write as _;

/// A simple column-aligned table builder.
///
/// ```
/// use simcore::report::Table;
///
/// let mut t = Table::new(&["system", "p99 (ms)"]);
/// t.row(&["Baseline".to_string(), format!("{:.2}", 12.5)]);
/// let text = t.render();
/// assert!(text.contains("Baseline"));
/// assert!(text.contains("12.50"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    ///
    /// # Panics
    /// Panics if `headers` is empty.
    pub fn new(headers: &[&str]) -> Table {
        assert!(!headers.is_empty(), "a table needs at least one column");
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned, human-readable text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:<width$}", cell, width = widths[i]);
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let rule_len = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(rule_len));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Render as CSV (RFC-4180-style quoting for cells containing commas,
    /// quotes, or newlines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |cell: &str| -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut write_row = |cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| esc(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.headers);
        for row in &self.rows {
            write_row(row);
        }
        out
    }
}

/// Format a float with fixed precision, rendering NaN as `-`.
pub fn fmt_f64(x: f64, precision: usize) -> String {
    if x.is_nan() {
        "-".to_string()
    } else {
        format!("{:.*}", precision, x)
    }
}

/// Format a ratio as a percentage string, e.g. `0.123 -> "12.3%"`.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["b".into(), "22222".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[0], "name   value");
        assert_eq!(lines[2], "alpha  1");
        assert_eq!(lines[3], "b      22222");
    }

    #[test]
    #[should_panic(expected = "row width must match")]
    fn rejects_mismatched_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["x,y".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().nth(1).unwrap(), "\"x,y\",\"say \"\"hi\"\"\"");
    }

    #[test]
    fn csv_quotes_newlines_and_leaves_plain_cells_bare() {
        let mut t = Table::new(&["k", "v"]);
        t.row(&["line1\nline2".into(), "plain".into()]);
        let csv = t.to_csv();
        // The embedded newline is preserved inside one quoted field, so the
        // record spans two physical lines; the plain cell stays unquoted.
        assert!(csv.contains("\"line1\nline2\",plain\n"));
        assert_eq!(csv.lines().next().unwrap(), "k,v");
    }

    #[test]
    fn csv_header_cells_are_escaped_too() {
        let mut t = Table::new(&["name, unit", "v"]);
        t.row(&["x".into(), "1".into()]);
        assert_eq!(t.to_csv().lines().next().unwrap(), "\"name, unit\",v");
    }

    #[test]
    fn empty_table_renders_headers_and_rule_only() {
        let t = Table::new(&["only"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines, vec!["only", "----"]);
        assert_eq!(t.to_csv(), "only\n");
    }

    #[test]
    fn render_pads_to_widest_cell_not_header() {
        let mut t = Table::new(&["h", "x"]);
        t.row(&["wide-cell".into(), "1".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        // Header column is padded out to the widest data cell.
        assert_eq!(lines[0], "h          x");
        assert_eq!(lines[1].len(), "wide-cell".len() + 2 + 1);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
        assert_eq!(fmt_f64(f64::NAN, 2), "-");
        assert_eq!(fmt_pct(0.3041), "30.4%");
    }
}
