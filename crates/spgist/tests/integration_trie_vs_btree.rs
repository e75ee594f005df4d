//! Cross-crate integration: the SP-GiST trie, the B⁺-tree baseline, and the
//! suffix tree must return exactly the same answers for every string query
//! type of the paper's Table 3.

use spgist::datagen::{words, QueryWorkload};
use spgist::prelude::*;

fn build(n: usize, seed: u64) -> (Vec<String>, TrieIndex, BPlusTree, SuffixTreeIndex) {
    let data = words(n, seed);
    let trie = TrieIndex::create(BufferPool::in_memory()).unwrap();
    let mut btree = BPlusTree::create(BufferPool::in_memory()).unwrap();
    let suffix = SuffixTreeIndex::create(BufferPool::in_memory()).unwrap();
    for (row, w) in data.iter().enumerate() {
        trie.insert(w.clone(), row as RowId).unwrap();
        btree.insert_str(w, row as RowId).unwrap();
        suffix.insert(w.clone(), row as RowId).unwrap();
    }
    (data, trie, btree, suffix)
}

#[test]
fn equality_queries_agree_between_trie_and_btree() {
    let (data, trie, btree, _) = build(8_000, 1);
    for q in QueryWorkload::existing(&data, 100, 2) {
        let mut a = trie.equals(&q).unwrap();
        let mut b = btree.search_str(&q).unwrap();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "equality mismatch for {q:?}");
        assert!(!a.is_empty(), "an existing key must be found");
    }
    // Missing keys are found by neither.
    assert!(trie.equals("notaword123").unwrap().is_empty());
    assert!(btree.search_str("notaword123").unwrap().is_empty());
}

#[test]
fn prefix_queries_agree_between_trie_and_btree() {
    let (data, trie, btree, _) = build(8_000, 3);
    for q in QueryWorkload::prefixes(&data, 100, 1, 4) {
        let mut a: Vec<RowId> = trie
            .prefix(&q)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        let mut b: Vec<RowId> = btree
            .prefix_search(q.as_bytes())
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "prefix mismatch for {q:?}");
    }
}

#[test]
fn regex_queries_agree_between_trie_and_btree_and_scan() {
    let (data, trie, btree, _) = build(8_000, 5);
    for q in QueryWorkload::regexes(&data, 100, 2, 6) {
        let mut a: Vec<RowId> = trie
            .regex(&q)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        let mut b: Vec<RowId> = btree
            .regex_search(&q)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        let mut scan: Vec<RowId> = data
            .iter()
            .enumerate()
            .filter(|(_, w)| {
                w.len() == q.len()
                    && q.bytes()
                        .zip(w.bytes())
                        .all(|(pc, wc)| pc == b'?' || pc == wc)
            })
            .map(|(i, _)| i as RowId)
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        scan.sort_unstable();
        assert_eq!(a, scan, "trie regex mismatch for {q:?}");
        assert_eq!(b, scan, "btree regex mismatch for {q:?}");
    }
}

#[test]
fn substring_queries_agree_between_suffix_tree_and_scan() {
    let (data, _, _, suffix) = build(4_000, 7);
    for q in QueryWorkload::substrings(&data, 60, 3, 8) {
        let expected: Vec<RowId> = data
            .iter()
            .enumerate()
            .filter(|(_, w)| w.contains(q.as_str()))
            .map(|(i, _)| i as RowId)
            .collect();
        assert_eq!(
            suffix.substring(&q).unwrap(),
            expected,
            "substring mismatch for {q:?}"
        );
    }
}

#[test]
fn trie_nn_results_are_sorted_and_complete() {
    let (data, trie, _, _) = build(2_000, 9);
    let target = &data[17];
    let nn = trie.nearest(target, 20).unwrap();
    assert_eq!(nn.len(), 20);
    assert_eq!(nn[0].2, 0.0, "the word itself is its own nearest neighbour");
    assert!(nn.windows(2).all(|w| w[0].2 <= w[1].2));
}
