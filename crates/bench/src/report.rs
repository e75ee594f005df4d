//! The one report type: an experiment's table, declared once.
//!
//! A [`Report`] is an experiment name, a title, the measured rows, an
//! ordered column list and trailing note lines.  Each column is declared
//! exactly once — its JSON key, its printed header and the closure that
//! turns a row into a [`Cell`] — and the report renders both outputs from
//! that one list: the aligned text table the harness prints (column widths
//! come from the cells) and the `BENCH_<experiment>.json` artifact CI
//! archives and gates on:
//!
//! ```text
//! {"experiment": "...", "scale": N, "rows": [{"<key>": <cell>, ...}, ...]}
//! ```
//!
//! A column can be printed only ([`Report::text_only`] — ratios derived for
//! a figure) or archived only ([`Report::json_only`] — raw counters too
//! wide for the table).  Because a column *is* the closure producing its
//! cell, every row carries every column by construction.  The format is
//! hand-rolled (the workspace has no serde dependency): strings are escaped
//! per RFC 8259 and non-finite floats are written as `null`.

use std::fmt::Write as _;
use std::path::Path;

/// One table cell: the value archived in JSON plus how the table prints it.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An unsigned integer.
    Int(u64),
    /// A float: printed with `decimals` places and a `unit` suffix
    /// (`"x"`, `"%"` or none), archived with six places.
    Float {
        /// The measured value.
        value: f64,
        /// Decimal places in the printed table.
        decimals: usize,
        /// Suffix in the printed table.
        unit: &'static str,
    },
    /// A string.
    Text(String),
}

/// A float cell printed with `decimals` places.
pub fn num(value: f64, decimals: usize) -> Cell {
    num_unit(value, decimals, "")
}

/// A float cell printed with `decimals` places and a `unit` suffix.
pub fn num_unit(value: f64, decimals: usize, unit: &'static str) -> Cell {
    Cell::Float {
        value,
        decimals,
        unit,
    }
}

impl Cell {
    fn text(&self) -> String {
        match self {
            Cell::Int(v) => v.to_string(),
            Cell::Float {
                value,
                decimals,
                unit,
            } => format!("{value:.decimals$}{unit}"),
            Cell::Text(v) => v.clone(),
        }
    }

    fn push_json(&self, out: &mut String) {
        match self {
            Cell::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Cell::Float { value, .. } if value.is_finite() => {
                let _ = write!(out, "{value:.6}");
            }
            Cell::Float { .. } => out.push_str("null"),
            Cell::Text(v) => push_json_string(out, v),
        }
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Int(v)
    }
}
impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Int(v as u64)
    }
}
impl From<u32> for Cell {
    fn from(v: u32) -> Self {
        Cell::Int(u64::from(v))
    }
}
impl From<&str> for Cell {
    fn from(v: &str) -> Self {
        Cell::Text(v.to_string())
    }
}
impl From<String> for Cell {
    fn from(v: String) -> Self {
        Cell::Text(v)
    }
}

/// Appends `s` as a JSON string literal (RFC 8259 §7: `"`, `\` and every
/// control character below U+0020 are escaped; the rest is UTF-8 as is).
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Column<'a, R> {
    key: Option<&'static str>,
    header: Option<&'static str>,
    cell: Box<dyn Fn(&R) -> Cell + 'a>,
}

/// One experiment's table over `rows`; see the module docs.
pub struct Report<'a, R> {
    experiment: &'static str,
    title: String,
    rows: &'a [R],
    columns: Vec<Column<'a, R>>,
    notes: Vec<String>,
}

impl<'a, R> Report<'a, R> {
    /// A report over `rows`, archived as `BENCH_<experiment>.json` and
    /// printed under `== title ==`.
    pub fn new(experiment: &'static str, title: impl Into<String>, rows: &'a [R]) -> Self {
        Report {
            experiment,
            title: title.into(),
            rows,
            columns: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn push(
        mut self,
        key: Option<&'static str>,
        header: Option<&'static str>,
        cell: impl Fn(&R) -> Cell + 'a,
    ) -> Self {
        self.columns.push(Column {
            key,
            header,
            cell: Box::new(cell),
        });
        self
    }

    /// A column both printed (under `header`) and archived (as `key`).
    pub fn column(
        self,
        key: &'static str,
        header: &'static str,
        cell: impl Fn(&R) -> Cell + 'a,
    ) -> Self {
        self.push(Some(key), Some(header), cell)
    }

    /// A column archived as `key` and left out of the printed table.
    pub fn json_only(self, key: &'static str, cell: impl Fn(&R) -> Cell + 'a) -> Self {
        self.push(Some(key), None, cell)
    }

    /// A column printed under `header` and left out of the artifact.
    pub fn text_only(self, header: &'static str, cell: impl Fn(&R) -> Cell + 'a) -> Self {
        self.push(None, Some(header), cell)
    }

    /// A line printed under the table (legends, summary sentences).
    pub fn note(mut self, line: impl Into<String>) -> Self {
        self.notes.push(line.into());
        self
    }

    /// The printed form: title, right-aligned header and rows, notes and a
    /// closing blank line.
    pub fn text(&self) -> String {
        let printed: Vec<_> = self
            .columns
            .iter()
            .filter_map(|c| Some((c.header?, c)))
            .collect();
        let mut lines: Vec<Vec<String>> = vec![printed
            .iter()
            .map(|(header, _)| header.to_string())
            .collect()];
        for row in self.rows {
            lines.push(printed.iter().map(|(_, c)| (c.cell)(row).text()).collect());
        }
        let widths: Vec<usize> = (0..printed.len())
            .map(|i| {
                lines
                    .iter()
                    .map(|l| l[i].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = format!("== {} ==\n", self.title);
        for line in &lines {
            let cells: Vec<String> = line
                .iter()
                .zip(&widths)
                .map(|(cell, &width)| format!("{cell:>width$}"))
                .collect();
            out.push_str(&cells.join("  "));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out.push('\n');
        out
    }

    /// The archived form, recording the `--scale` the rows were measured at.
    pub fn json(&self, scale: usize) -> String {
        let mut out = String::from("{\n  \"experiment\": ");
        push_json_string(&mut out, self.experiment);
        let _ = write!(out, ",\n  \"scale\": {scale},\n  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {");
            let keyed = self.columns.iter().filter_map(|c| Some((c.key?, c)));
            for (j, (key, column)) in keyed.enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                push_json_string(&mut out, key);
                out.push_str(": ");
                (column.cell)(row).push_json(&mut out);
            }
            out.push_str(if i + 1 < self.rows.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Prints the table (when any column is printed) and, given a
    /// `--json-dir`, writes `BENCH_<experiment>.json` into it (when any
    /// column is archived), creating the directory if needed.
    ///
    /// # Panics
    ///
    /// Panics, naming the experiment, if the artifact cannot be written.
    pub fn emit(&self, scale: usize, json_dir: Option<&Path>) {
        if self.columns.iter().any(|c| c.header.is_some()) {
            print!("{}", self.text());
        }
        let archived = self.columns.iter().any(|c| c.key.is_some());
        if let (Some(dir), true) = (json_dir, archived) {
            let path = dir.join(format!("BENCH_{}.json", self.experiment));
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, self.json(scale)))
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            println!("wrote {}\n", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Row {
        class: &'static str,
        n: u64,
        ms: f64,
        base_ms: f64,
    }

    const ROWS: [Row; 2] = [
        Row {
            class: "trie",
            n: 10,
            ms: 1.5,
            base_ms: 6.0,
        },
        Row {
            class: "kd-tree",
            n: 2000,
            ms: f64::NAN,
            base_ms: 0.25,
        },
    ];

    fn smoke(rows: &[Row]) -> Report<'_, Row> {
        Report::new("smoke", "Smoke: a table", rows)
            .column("class", "class", |r| r.class.into())
            .column("n", "keys", |r| r.n.into())
            .column("ms", "time (ms)", |r| num(r.ms, 2))
            .json_only("base_ms", |r| num(r.base_ms, 2))
            .text_only("speedup", |r| num_unit(r.base_ms / r.ms, 1, "x"))
            .note("(speedup = base / time)")
    }

    #[test]
    fn golden_text_and_json() {
        let text = [
            "== Smoke: a table ==",
            "  class  keys  time (ms)  speedup",
            "   trie    10       1.50     4.0x",
            "kd-tree  2000        NaN     NaNx",
            "(speedup = base / time)",
            "",
            "",
        ];
        assert_eq!(smoke(&ROWS).text(), text.join("\n"));
        let json = [
            "{",
            r#"  "experiment": "smoke","#,
            r#"  "scale": 3,"#,
            r#"  "rows": ["#,
            r#"    {"class": "trie", "n": 10, "ms": 1.500000, "base_ms": 6.000000},"#,
            r#"    {"class": "kd-tree", "n": 2000, "ms": null, "base_ms": 0.250000}"#,
            "  ]",
            "}",
            "",
        ];
        assert_eq!(smoke(&ROWS).json(3), json.join("\n"));
        let empty = "{\n  \"experiment\": \"smoke\",\n  \"scale\": 1,\n  \"rows\": [\n  ]\n}\n";
        assert_eq!(smoke(&[]).json(1), empty);
    }

    #[test]
    fn strings_are_escaped_per_rfc_8259() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\te\u{1}f\u{1f}é");
        assert_eq!(out, r#""a\"b\\c\nd\te\u0001f\u001fé""#);
    }

    #[test]
    fn non_finite_floats_are_null() {
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut out = String::new();
            num(value, 1).push_json(&mut out);
            assert_eq!(out, "null");
        }
    }

    #[test]
    fn emit_writes_the_archived_columns_and_nothing_for_a_text_only_view() {
        let dir = std::env::temp_dir().join(format!("spgist-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        smoke(&ROWS).emit(3, Some(&dir));
        let written = std::fs::read_to_string(dir.join("BENCH_smoke.json")).expect("artifact");
        assert_eq!(written, smoke(&ROWS).json(3));
        assert!(!written.contains("speedup"));

        Report::new("view", "A figure over the same rows", &ROWS)
            .text_only("keys", |r| r.n.into())
            .emit(3, Some(&dir));
        assert!(!dir.join("BENCH_view.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
