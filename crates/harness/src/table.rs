use core::fmt;
use std::io::Write as _;
use std::path::Path;

/// A rendered experiment result: headers plus string rows, emitted as
/// GitHub-flavored markdown (for EXPERIMENTS.md) or CSV (for plotting).
///
/// ```rust
/// use minsync_harness::Table;
///
/// let mut t = Table::new("demo", ["n", "rounds"]);
/// t.push_row(["4", "2"]);
/// let md = t.to_markdown();
/// assert!(md.contains("| n | rounds |"));
/// assert!(md.contains("| 4 | 2 |"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New empty table.
    pub fn new(
        title: impl Into<String>,
        headers: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        Table {
            title: title.into(),
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// All data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header row.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = impl Into<String>>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row arity must match headers"
        );
        self.rows.push(row);
    }

    /// Renders GitHub-flavored markdown (title as a heading).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Renders CSV (no title; headers first).
    pub fn to_csv(&self) -> String {
        let escape = |s: &String| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(escape)
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(escape).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV rendering to `path` (creating parent directories).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_csv(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_csv().as_bytes())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("x", ["a", "b"]);
        t.push_row(["1", "2"]);
        let md = t.to_markdown();
        assert!(md.starts_with("### x"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("x", ["a", "b"]);
        t.push_row(["with,comma", "with\"quote"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", ["a", "b"]);
        t.push_row(["1"]);
    }

    #[test]
    fn save_csv_roundtrip() {
        let mut t = Table::new("x", ["a"]);
        t.push_row(["1"]);
        let dir = std::env::temp_dir().join("minsync-table-test");
        let path = dir.join("t.csv");
        t.save_csv(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, "a\n1\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
