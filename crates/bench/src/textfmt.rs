//! Minimal fixed-width text table rendering for the experiment printouts.

use std::fmt::Write as _;

/// A simple left-aligned text table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub(crate) fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub(crate) fn row<S: Into<String>, I: IntoIterator<Item = S>>(
        &mut self,
        cells: I,
    ) -> &mut Self {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Renders the table.
    pub(crate) fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate().take(ncols) {
                let _ = write!(out, "| {:<width$} ", c, width = widths[i]);
            }
            out.push_str("|\n");
        };
        line(&mut out, &self.header);
        let mut sep = String::new();
        for w in &widths {
            let _ = write!(sep, "|{}", "-".repeat(w + 2));
        }
        sep.push_str("|\n");
        out.push_str(&sep);
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// Formats seconds as picoseconds with one decimal.
pub(crate) fn ps(t: f64) -> String {
    format!("{:.1} ps", t * 1e12)
}

/// Formats seconds as nanoseconds with three decimals.
pub(crate) fn ns(t: f64) -> String {
    format!("{:.3} ns", t * 1e9)
}

/// Formats hertz as gigahertz.
pub(crate) fn ghz(f: f64) -> String {
    format!("{:.3} GHz", f / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["a", "long-header"]);
        t.row(["1", "2"]).row(["333333", "4"]);
        let s = t.render();
        assert!(s.contains("| a      | long-header |"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn unit_formatters() {
        assert_eq!(ps(140e-12), "140.0 ps");
        assert_eq!(ns(1.5e-9), "1.500 ns");
        assert_eq!(ghz(2.25e9), "2.250 GHz");
    }
}
