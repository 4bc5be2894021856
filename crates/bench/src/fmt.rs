//! Markdown table rendering for experiment output.

/// A simple aligned markdown table builder.
#[derive(Debug, Default)]
pub struct TableFmt {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl TableFmt {
    /// Starts a table with a title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, header: &[&str]) -> TableFmt {
        TableFmt {
            title: title.into(),
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (cells stringified by the caller).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity mismatch in table '{}'",
            self.title
        );
        self.rows.push(cells);
        self
    }

    /// Appends a footnote line below the table.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the table as aligned markdown.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n\n", self.title));
        let fmt_row = |cells: &[String]| {
            let mut line = String::from("|");
            for i in 0..cols {
                line.push_str(&format!(" {:<w$} |", cells[i], w = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{:-<w$}|", "", w = w + 2));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        for n in &self.notes {
            out.push_str(&format!("\n> {n}\n"));
        }
        out.push('\n');
        out
    }
}

/// Formats a f64 with `digits` decimals.
#[must_use]
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Formats a packet rate in Mpps.
#[must_use]
pub fn mpps(pps: f64) -> String {
    format!("{:.1}Mpps", pps / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = TableFmt::new("Demo", &["a", "long-header", "c"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        t.row(vec!["100".into(), "x".into(), "yy".into()]);
        t.note("a note");
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("| a   | long-header | c  |"), "{s}");
        assert!(s.contains("| 100 | x           | yy |"), "{s}");
        assert!(s.contains("> a note"));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let mut t = TableFmt::new("t", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(mpps(59_523_809.0), "59.5Mpps");
    }
}
