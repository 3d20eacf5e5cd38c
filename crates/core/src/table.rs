//! Minimal aligned-text and CSV table emission for experiment drivers.
//!
//! The bench binaries must "print the same rows the paper reports"; this
//! keeps that presentable without pulling a serialization crate.

/// A simple table: a header row plus data rows of equal arity.
#[derive(Debug, Default, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; panics if the arity differs from the header.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned monospace table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, (c, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{c:<w$}", w = *w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Render as CSV (RFC-4180-style quoting for cells containing commas
    /// or quotes).
    pub fn to_csv(&self) -> String {
        fn esc(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_alignment() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["sessionization".into(), "76".into()]);
        t.row(&["pf".into(), "40".into()]);
        let s = t.to_text();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
        assert!(lines[1].starts_with("name"));
        assert!(lines[3].starts_with("sessionization  76"));
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(&["x,y".into(), "he said \"hi\"".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn empty_table_renders() {
        let t = Table::new("t", &["c"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.to_text().contains('c'));
        assert_eq!(t.to_csv(), "c\n");
    }
}
