//! Integration of the catalog/planner layer with real indexes: the planner's
//! choice is driven by statistics measured from actually-built indexes, and
//! the chosen access path returns the same rows as a scan.

use spgist::catalog::planner::AvailableIndex;
use spgist::catalog::AccessPath;
use spgist::datagen::words;
use spgist::prelude::*;

fn build_table(
    n: usize,
) -> (
    Vec<String>,
    TrieIndex,
    BPlusTree,
    SuffixTreeIndex,
    TableStats,
) {
    let data = words(n, 77);
    let trie = TrieIndex::create(BufferPool::in_memory()).unwrap();
    let mut btree = BPlusTree::create(BufferPool::in_memory()).unwrap();
    let suffix = SuffixTreeIndex::create(BufferPool::in_memory()).unwrap();
    for (row, w) in data.iter().enumerate() {
        trie.insert(w, row as RowId).unwrap();
        btree.insert_str(w, row as RowId).unwrap();
        suffix.insert(w, row as RowId).unwrap();
    }
    let mut distinct = data.clone();
    distinct.sort();
    distinct.dedup();
    let stats = TableStats {
        rows: data.len() as u64,
        heap_pages: (data.len() as u64 / 300).max(1),
        distinct_values: distinct.len() as u64,
    };
    (data, trie, btree, suffix, stats)
}

fn available(trie: &TrieIndex, btree: &BPlusTree, suffix: &SuffixTreeIndex) -> Vec<AvailableIndex> {
    let trie_stats = trie.stats().unwrap();
    let btree_stats = btree.stats().unwrap();
    let suffix_stats = suffix.stats().unwrap();
    vec![
        AvailableIndex {
            name: "sp_trie_index".into(),
            operator_class: "SP_GiST_trie".into(),
            pages: trie_stats.pages,
            page_height: trie_stats.max_page_height,
            returns_keys: <TrieIndex as SpIndex>::RETURNS_KEYS,
        },
        AvailableIndex {
            name: "btree_index".into(),
            operator_class: "btree_varchar".into(),
            pages: btree_stats.pages,
            page_height: btree_stats.height,
            returns_keys: true,
        },
        AvailableIndex {
            name: "sp_suffix_index".into(),
            operator_class: "SP_GiST_suffix".into(),
            pages: suffix_stats.pages,
            page_height: suffix_stats.max_page_height,
            returns_keys: <SuffixTreeIndex as SpIndex>::RETURNS_KEYS,
        },
    ]
}

#[test]
fn planner_routes_each_operator_to_an_index_that_supports_it() {
    let (_, trie, btree, suffix, stats) = build_table(6_000);
    let catalog = Catalog::with_paper_defaults();
    let planner = Planner::new(&catalog);
    let indexes = available(&trie, &btree, &suffix);

    // Regular-expression queries can only use the trie operator class.
    let path = planner.plan(&QueryPredicate::new("?=", "VARCHAR"), &stats, &indexes);
    match path {
        AccessPath::IndexScan { index, .. } => assert_eq!(index, "sp_trie_index"),
        other => panic!("expected trie index scan, got {other:?}"),
    }

    // Substring queries can only use the suffix tree.
    let path = planner.plan(&QueryPredicate::new("@=", "VARCHAR"), &stats, &indexes);
    match path {
        AccessPath::IndexScan { index, .. } => assert_eq!(index, "sp_suffix_index"),
        other => panic!("expected suffix index scan, got {other:?}"),
    }

    // Equality is supported by both string indexes; some index must win over
    // the sequential scan on a selective predicate.
    let path = planner.plan(&QueryPredicate::new("=", "VARCHAR"), &stats, &indexes);
    assert!(matches!(path, AccessPath::IndexScan { .. }));

    // A spatial operator over a VARCHAR column has no matching class.
    let path = planner.plan(&QueryPredicate::new("^", "VARCHAR"), &stats, &indexes);
    assert!(matches!(path, AccessPath::SeqScan { .. }));
}

#[test]
fn planned_index_scan_returns_the_same_rows_as_executing_the_query() {
    let (data, trie, btree, suffix, stats) = build_table(6_000);
    let catalog = Catalog::with_paper_defaults();
    let planner = Planner::new(&catalog);
    let indexes = available(&trie, &btree, &suffix);

    let query_word = data[123].clone();
    let path = planner.plan(&QueryPredicate::new("=", "VARCHAR"), &stats, &indexes);
    let rows = match path {
        AccessPath::IndexScan { index, .. } => match index.as_str() {
            "sp_trie_index" => trie.equals(&query_word).unwrap(),
            "btree_index" => btree.search_str(&query_word).unwrap(),
            other => panic!("unexpected index {other}"),
        },
        other => panic!("a selective equality query should use an index scan, got {other:?}"),
    };
    let mut rows = rows;
    rows.sort_unstable();
    let expected: Vec<RowId> = data
        .iter()
        .enumerate()
        .filter(|(_, w)| **w == query_word)
        .map(|(i, _)| i as RowId)
        .collect();
    assert_eq!(rows, expected);
}
