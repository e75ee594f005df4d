//! Table 7: lines of code of the external methods versus the SP-GiST core.
//!
//! The paper reports that each index's external methods are under 10 % of the
//! total index code, the rest being the shared SP-GiST core.  This module
//! recomputes the same table for this repository by counting non-blank,
//! non-comment-only lines of the instantiation files against the shared
//! crates.
//!
//! The paper's extensibility argument *is* a line count, so the same count
//! is applied to this repository as a whole: [`crate_report`] gives every
//! crate's counted lines split into production and test code, and a test
//! holds each crate's production count under the ceiling committed in
//! `crates/bench/loc_budget.txt`.

use std::path::{Path, PathBuf};

/// One row of Table 7.
#[derive(Debug, Clone, PartialEq)]
pub struct LocRow {
    /// Index name (trie, kd-tree, point quadtree, PMR quadtree, suffix tree).
    pub index: String,
    /// Lines of external-method code for this index.
    pub external_lines: usize,
    /// Percentage of the total (external + shared core) code.
    pub percent_of_total: f64,
}

/// Whether a line counts: non-blank and not a pure `//` comment.
fn is_counted(line: &str) -> bool {
    let line = line.trim();
    !line.is_empty() && !line.starts_with("//")
}

/// Counts the meaningful lines of one Rust source file (non-blank lines that
/// are not pure `//` comments).
pub fn count_lines(source: &str) -> usize {
    source.lines().filter(|l| is_counted(l)).count()
}

/// Counted lines of one crate, split by whether they ship.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrateLoc {
    /// Directory name under `crates/`.
    pub name: String,
    /// Counted lines outside `tests/` directories and before a file's
    /// `#[cfg(test)]` module.
    pub production: usize,
    /// Counted lines under `tests/` directories and from a file's
    /// `#[cfg(test)]` line on.
    pub test: usize,
}

/// Splits one source file's counted lines into `(production, test)`:
/// everything from the first line starting `#[cfg(test)]` on is test code
/// (unit-test modules close their file throughout this workspace).
pub fn split_lines(source: &str) -> (usize, usize) {
    let lines: Vec<&str> = source.lines().collect();
    let test_start = lines
        .iter()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
        .unwrap_or(lines.len());
    let (production, test) = lines.split_at(test_start);
    (
        production.iter().filter(|l| is_counted(l)).count(),
        test.iter().filter(|l| is_counted(l)).count(),
    )
}

/// Counted `(production, test)` lines of every `.rs` file under `dir`;
/// everything below a `tests/` directory is test code.
fn dir_loc(dir: &Path, in_tests: bool) -> (usize, usize) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .map(|path| {
            if path.is_dir() {
                dir_loc(&path, in_tests || path.ends_with("tests"))
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let (production, test) =
                    split_lines(&std::fs::read_to_string(&path).unwrap_or_default());
                if in_tests {
                    (0, production + test)
                } else {
                    (production, test)
                }
            } else {
                (0, 0)
            }
        })
        .fold((0, 0), |(p, t), (dp, dt)| (p + dp, t + dt))
}

/// Counted lines of every crate under `crates/`, sorted by crate name.
pub fn crate_report() -> Vec<CrateLoc> {
    let Ok(entries) = std::fs::read_dir(workspace_root().join("crates")) else {
        return Vec::new();
    };
    let mut report: Vec<CrateLoc> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .map(|p| {
            let (production, test) = dir_loc(&p, false);
            CrateLoc {
                name: p.file_name().unwrap_or_default().to_string_lossy().into(),
                production,
                test,
            }
        })
        .collect();
    report.sort_by(|a, b| a.name.cmp(&b.name));
    report
}

fn file_lines(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .map(|s| count_lines(&s))
        .unwrap_or(0)
}

/// All counted lines (production and test) under `dir`.
fn dir_lines(dir: &Path) -> usize {
    let (production, test) = dir_loc(dir, false);
    production + test
}

/// Locates the workspace root relative to this crate's manifest.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("bench crate lives two levels below the workspace root")
        .to_path_buf()
}

/// Computes Table 7 for this repository.
pub fn table7() -> Vec<LocRow> {
    let root = workspace_root();
    let indexes = root.join("crates/indexes/src");
    // Shared code every instantiation reuses: the SP-GiST core (internal
    // methods, clustering, NN search) and the storage substrate.
    let core_lines =
        dir_lines(&root.join("crates/core/src")) + dir_lines(&root.join("crates/storage/src"));
    let files = [
        ("trie", "trie.rs"),
        ("kd-tree", "kdtree.rs"),
        ("point quadtree", "quadtree.rs"),
        ("PMR quadtree", "pmr.rs"),
        ("suffix tree", "suffix.rs"),
    ];
    files
        .iter()
        .map(|(name, file)| {
            let external = file_lines(&indexes.join(file));
            LocRow {
                index: (*name).to_string(),
                external_lines: external,
                percent_of_total: external as f64 / (external + core_lines) as f64 * 100.0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_lines_skips_blanks_and_comments() {
        let src = "fn f() {\n\n// comment\n  let x = 1; // trailing\n}\n";
        assert_eq!(count_lines(src), 3);
    }

    #[test]
    fn split_lines_separates_the_unit_test_module() {
        let src = "fn f() {}\n// note\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        assert_eq!(split_lines(src), (1, 4));
        assert_eq!(split_lines("fn f() {}\n"), (1, 0));
    }

    /// The line-count ratchet: no crate's production code may outgrow the
    /// ceiling committed in `loc_budget.txt`.
    #[test]
    fn no_crate_exceeds_its_line_budget() {
        let budget_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("loc_budget.txt");
        let budget = std::fs::read_to_string(&budget_path).expect("loc_budget.txt is committed");
        let ceiling = |name: &str| {
            budget
                .lines()
                .filter_map(|line| line.split_once(' '))
                .find(|(krate, _)| *krate == name)
                .map(|(_, lines)| lines.trim().parse::<usize>().expect("ceiling is a number"))
        };
        let report = crate_report();
        assert!(!report.is_empty(), "no crates found under crates/");
        for loc in &report {
            let Some(ceiling) = ceiling(&loc.name) else {
                panic!(
                    "crate `{}` has no line in crates/bench/loc_budget.txt; add \
                     `{} {}` (its current production line count)",
                    loc.name, loc.name, loc.production
                );
            };
            assert!(
                loc.production <= ceiling,
                "crate `{}` has {} counted production lines, over its ceiling of {}.  \
                 If the growth is intended, raise the ceiling in \
                 crates/bench/loc_budget.txt in the same PR and give the reason in the \
                 PR description; otherwise find what to delete.",
                loc.name,
                loc.production,
                ceiling
            );
        }
    }

    #[test]
    fn table7_reports_each_instantiation_as_a_small_fraction() {
        let rows = table7();
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(row.external_lines > 0, "{} has no code?", row.index);
            assert!(
                row.percent_of_total < 10.0,
                "{} external methods are {}% of total — the shared core should dominate",
                row.index,
                row.percent_of_total
            );
        }
    }
}
