//! The crate's module layering, enforced.
//!
//! The executable layer is eight modules whose dependency arrows point one
//! way (see the crate docs):
//!
//! ```text
//! value ← query ← physical ← table ← database ← { checkpoint, recovery, txn }
//! ```
//!
//! on top of the older leaves `cost ← operator ← am ← planner` and
//! `durable`.  This test reads `src/*.rs` and fails if the production part
//! of any module names (`crate::…`) a module that is not strictly earlier
//! in that order — so recovery and checkpointing stay readable without the
//! planner, and the index seam stays ignorant of tables.

use std::path::Path;

/// Every module of the crate with its rank; a module may only name modules
/// of strictly lower rank.  The three protocols on top share a rank: they
/// depend on `database`, never on each other.
const ORDER: [(&str, u32); 13] = [
    ("cost", 0),
    ("operator", 1),
    ("am", 2),
    ("planner", 3),
    ("durable", 4),
    ("value", 5),
    ("query", 6),
    ("physical", 7),
    ("table", 8),
    ("database", 9),
    ("checkpoint", 10),
    ("recovery", 10),
    ("txn", 10),
];

fn rank(module: &str) -> Option<u32> {
    ORDER
        .iter()
        .find(|(name, _)| *name == module)
        .map(|(_, rank)| *rank)
}

/// The modules `source` names through `crate::` paths in its production
/// part: everything before the first `#[cfg(test)]`, comment lines skipped
/// (unit tests may reach for the facade; doc links are not dependencies).
fn named_modules(source: &str) -> Vec<String> {
    let mut found = Vec::new();
    for line in source.lines().map(str::trim) {
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        if line.starts_with("//") {
            continue;
        }
        for (at, _) in line.match_indices("crate::") {
            let rest = &line[at + "crate::".len()..];
            let ident: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            found.push(ident);
        }
    }
    found
}

#[test]
fn module_dependencies_point_one_way() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut seen = Vec::new();
    let mut violations = Vec::new();
    for entry in std::fs::read_dir(&src).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|ext| ext != "rs") {
            continue;
        }
        let module = path.file_stem().unwrap().to_str().unwrap().to_string();
        if module == "lib" {
            continue; // the crate root names everything by design
        }
        let Some(own) = rank(&module) else {
            panic!("module `{module}` is not in the dependency order; add it to ORDER");
        };
        let source = std::fs::read_to_string(&path).unwrap();
        for named in named_modules(&source) {
            match rank(&named) {
                Some(other) if other >= own => {
                    violations.push(format!("`{module}` names `crate::{named}`"))
                }
                _ => {}
            }
        }
        seen.push(module);
    }
    assert!(
        violations.is_empty(),
        "dependency arrows must point from later modules to earlier ones:\n  {}",
        violations.join("\n  ")
    );
    for (module, _) in ORDER {
        assert!(
            seen.iter().any(|m| m == module),
            "module `{module}` is in ORDER but src/{module}.rs does not exist"
        );
    }
}

#[test]
fn the_scanner_sees_through_paths_and_skips_comments_and_tests() {
    let source = "\
//! [`Database`]: crate::database::Database
use crate::value::{Datum, KeyType};
fn f() -> crate::query::Query { crate::cost::x() }
#[cfg(test)]
mod tests { use crate::txn::Transaction; }
";
    assert_eq!(named_modules(source), ["value", "query", "cost"]);
}
