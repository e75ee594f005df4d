//! One index type, enforced.
//!
//! A class is its `SpGistOps`: `SpGistIndex<O>` in `spindex.rs` is the only
//! index that owns a tree, and every class reaches its tree through it —
//! the patricia trie, suffix tree, kd-tree, point quadtree and PMR quadtree
//! are all aliases of it.  These tests read the sources and fail if any
//! file but `spindex.rs` constructs a tree (`SpGistTree::create` /
//! `SpGistTree::open`) or implements `SpIndex` / `SpGistBacked`: either
//! would be a second, per-class index type.

use std::path::{Path, PathBuf};

/// The one file allowed to construct a tree or implement the index traits.
const ALLOWED: &str = "spindex.rs";

/// The calls that construct a tree.
const CONSTRUCTORS: [&str; 2] = ["SpGistTree::create", "SpGistTree::open"];

/// The traits whose impls make an index type.
const INDEX_TRAITS: [&str; 2] = ["SpIndex for ", "SpGistBacked for "];

/// The lines of `source` that `hit`, comment lines skipped.
fn lines_where(source: &str, hit: impl Fn(&str) -> bool) -> Vec<usize> {
    source
        .lines()
        .map(str::trim)
        .enumerate()
        .filter(|(_, line)| !line.starts_with("//") && hit(line))
        .map(|(i, _)| i + 1)
        .collect()
}

/// The lines of `source` that construct a tree.
fn tree_constructions(source: &str) -> Vec<usize> {
    lines_where(source, |line| {
        CONSTRUCTORS.iter().any(|call| line.contains(call))
    })
}

/// The lines of `source` that implement an index trait.
fn index_impls(source: &str) -> Vec<usize> {
    lines_where(source, |line| {
        line.starts_with("impl") && INDEX_TRAITS.iter().any(|t| line.contains(t))
    })
}

/// Every `.rs` file under `dir`, recursively.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// `file:line` of every line `find` reports in the files under `dir`
/// other than [`ALLOWED`], and how many files were read.
fn violations(dir: &Path, find: fn(&str) -> Vec<usize>) -> (usize, Vec<String>) {
    let mut files = Vec::new();
    sources(dir, &mut files);
    let mut found = Vec::new();
    for path in &files {
        if path.file_name().unwrap() == ALLOWED {
            continue;
        }
        let source = std::fs::read_to_string(path).unwrap();
        for line in find(&source) {
            found.push(format!("{}:{line}", path.display()));
        }
    }
    (files.len(), found)
}

#[test]
fn only_the_generic_index_constructs_a_tree() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let (files, violations) = violations(&src, tree_constructions);
    assert!(files >= 8, "the scan found the crate's sources");
    assert!(
        violations.is_empty(),
        "a class is its `SpGistOps`: build its index as `SpGistIndex<Ops>` \
         (`with_ops` / `open_with_ops`), not over a tree of its own:\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn only_the_generic_index_implements_the_index_traits() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let (files, violations) = violations(crates, index_impls);
    assert!(files >= 50, "the scan found the workspace's sources");
    assert!(
        violations.is_empty(),
        "`SpGistIndex<O>` is the one `SpIndex` / `SpGistBacked`: give a class \
         its behaviour through `SpGistOps` (`entries`, `REPLICATES`, …), not \
         an index type of its own:\n  {}",
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
// impl SpIndex for Commented {}
\x69mpl SpIndex for Wrapper {
\x69mpl<O: SpGistOps> SpGistBacked for Other<O> {
";
    assert_eq!(tree_constructions(source), vec![2, 4]);
    assert_eq!(index_impls(source), vec![6, 7]);
}
