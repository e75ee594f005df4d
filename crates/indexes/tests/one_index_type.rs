//! One index type, enforced.
//!
//! A class is its `SpGistOps`: `SpGistIndex<O>` in `spindex.rs` is the only
//! index that owns a tree, and every class reaches its tree through it —
//! the patricia trie, kd-tree, point quadtree and PMR quadtree are aliases
//! of it, the suffix tree holds one.  This test reads every source file of
//! the crate and fails if any but `spindex.rs` constructs a tree
//! (`SpGistTree::create` / `SpGistTree::open`): that would be a second,
//! per-class index type.

use std::path::Path;

/// The one file allowed to construct a tree.
const ALLOWED: &str = "spindex.rs";

/// The calls that construct a tree.
const CONSTRUCTORS: [&str; 2] = ["SpGistTree::create", "SpGistTree::open"];

/// The lines of `source` that construct a tree, comment lines skipped.
fn tree_constructions(source: &str) -> Vec<usize> {
    source
        .lines()
        .map(str::trim)
        .enumerate()
        .filter(|(_, line)| {
            !line.starts_with("//") && CONSTRUCTORS.iter().any(|call| line.contains(call))
        })
        .map(|(i, _)| i + 1)
        .collect()
}

#[test]
fn only_the_generic_index_constructs_a_tree() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = 0;
    let mut violations = Vec::new();
    for entry in std::fs::read_dir(&src).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        if !name.ends_with(".rs") {
            continue;
        }
        files += 1;
        if name == ALLOWED {
            continue;
        }
        let source = std::fs::read_to_string(&path).unwrap();
        for line in tree_constructions(&source) {
            violations.push(format!("crates/indexes/src/{name}:{line}"));
        }
    }
    assert!(files >= 8, "the scan found the crate's sources");
    assert!(
        violations.is_empty(),
        "a class is its `SpGistOps`: build its index as `SpGistIndex<Ops>` \
         (`with_ops` / `open_with_ops`), not over a tree of its own:\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn the_scanner_skips_comments() {
    let source = "\
//! `SpGistTree::create` in a doc comment builds nothing.
fn f() { let t = SpGistTree::open(pool, ops, meta, pages); }
    // SpGistTree::create(pool, ops)
fn g() { Arc::new(SpGistTree::create(pool, ops)?) }
";
    assert_eq!(tree_constructions(source), vec![2, 4]);
}
