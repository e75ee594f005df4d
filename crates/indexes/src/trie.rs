//! The disk-based patricia trie (paper Table 1, Section 6).
//!
//! Strings are decomposed character by character; with
//! `PathShrink = TreeShrink` an inner node additionally carries the common
//! prefix of all keys below it (the patricia optimization of Figure 1(c)),
//! and with `NodeShrink = OmitEmpty` empty partitions are not materialized
//! (the forest-trie optimization of Figure 2(b)).
//!
//! The registered operators follow the paper's Table 4: `=` (equality),
//! `#=` (prefix match), `?=` (regular-expression match with the
//! single-character wildcard `?`), and `@@` (incremental nearest neighbour
//! under the Hamming-style distance).

use std::sync::Arc;

use spgist_core::{
    Choose, NodeShrink, PathShrink, PickSplit, RowId, SpGistConfig, SpGistOps, SpGistTree,
};
use spgist_storage::{BufferPool, PageId, StorageResult};

use crate::query::{hamming_distance, StringQuery};
use crate::spindex::{SpGistBacked, SpIndex};

/// Entry predicate marking "the key ends at this position" (the paper's
/// *blank* predicate).  Zero never collides with real characters.
pub const BLANK: u8 = 0;

/// External methods of the SP-GiST trie.
#[derive(Debug, Clone)]
pub struct TrieOps {
    config: SpGistConfig,
}

impl Default for TrieOps {
    fn default() -> Self {
        Self::patricia()
    }
}

impl TrieOps {
    /// The patricia trie used throughout the paper's evaluation:
    /// `PathShrink = TreeShrink`, `NodeShrink = OmitEmpty`.
    pub fn patricia() -> Self {
        TrieOps {
            config: SpGistConfig {
                partitions: 27,
                bucket_size: 16,
                resolution: 128,
                path_shrink: PathShrink::TreeShrink,
                node_shrink: NodeShrink::OmitEmpty,
                split_once: false,
            },
        }
    }

    /// A plain dictionary trie without path shrinking (Figure 1(a)); used by
    /// the trie-variant ablation benchmark.
    pub fn never_shrink() -> Self {
        let mut ops = Self::patricia();
        ops.config.path_shrink = PathShrink::NeverShrink;
        ops
    }

    /// Builds the ops from an explicit configuration.
    pub fn with_config(config: SpGistConfig) -> Self {
        TrieOps { config }
    }

    fn tree_shrink(&self) -> bool {
        self.config.path_shrink == PathShrink::TreeShrink
    }

    fn pred_at(key: &str, pos: usize) -> u8 {
        key.as_bytes().get(pos).copied().unwrap_or(BLANK)
    }

    /// The string the query navigates or ranks by.
    fn target(query: &StringQuery) -> &str {
        match query {
            StringQuery::Equals(s)
            | StringQuery::Prefix(s)
            | StringQuery::Regex(s)
            | StringQuery::Substring(s)
            | StringQuery::Nearest(s) => s,
        }
    }
}

impl SpGistOps for TrieOps {
    type Key = String;
    type Prefix = String;
    type Pred = u8;
    type Query = StringQuery;
    type Context = ();

    fn config(&self) -> SpGistConfig {
        self.config
    }

    fn key_query(&self, key: &String) -> StringQuery {
        StringQuery::Equals(key.clone())
    }

    fn consistent(
        &self,
        prefix: Option<&String>,
        pred: &u8,
        query: &StringQuery,
        level: u32,
    ) -> bool {
        let pos = level as usize + prefix.map_or(0, String::len);
        match query {
            StringQuery::Equals(s) => {
                if *pred == BLANK {
                    s.len() == pos
                } else {
                    s.as_bytes().get(pos) == Some(pred)
                }
            }
            StringQuery::Prefix(p) => {
                if pos >= p.len() {
                    // The whole query prefix is already matched; every
                    // partition below may contain matching keys.
                    true
                } else if *pred == BLANK {
                    false
                } else {
                    p.as_bytes()[pos] == *pred
                }
            }
            StringQuery::Regex(r) => {
                if *pred == BLANK {
                    r.len() == pos
                } else {
                    pos < r.len() && (r.as_bytes()[pos] == b'?' || r.as_bytes()[pos] == *pred)
                }
            }
            // The plain trie cannot prune substring queries; the suffix tree
            // handles them (paper Table 3).
            StringQuery::Substring(_) | StringQuery::Nearest(_) => true,
        }
    }

    fn prefix_consistent(&self, prefix: &String, query: &StringQuery, level: u32) -> bool {
        let start = level as usize;
        let pb = prefix.as_bytes();
        match query {
            StringQuery::Equals(s) => {
                let sb = s.as_bytes();
                sb.len() >= start + pb.len() && &sb[start..start + pb.len()] == pb
            }
            StringQuery::Prefix(p) => {
                let qb = p.as_bytes();
                pb.iter().enumerate().all(|(i, c)| {
                    let pos = start + i;
                    pos >= qb.len() || qb[pos] == *c
                })
            }
            StringQuery::Regex(r) => {
                let rb = r.as_bytes();
                pb.iter().enumerate().all(|(i, c)| {
                    let pos = start + i;
                    pos < rb.len() && (rb[pos] == b'?' || rb[pos] == *c)
                })
            }
            StringQuery::Substring(_) | StringQuery::Nearest(_) => true,
        }
    }

    fn leaf_consistent(&self, key: &String, query: &StringQuery, _level: u32) -> bool {
        query.matches(key)
    }

    fn descend_levels(&self, prefix: Option<&String>) -> u32 {
        1 + prefix.map_or(0, |p| p.len() as u32)
    }

    fn choose(
        &self,
        prefix: Option<&String>,
        preds: &[u8],
        key: &String,
        level: u32,
    ) -> Choose<u8, String> {
        let mut pos = level as usize;
        if let Some(pfx) = prefix {
            let pb = pfx.as_bytes();
            let kb = key.as_bytes();
            let rest = &kb[pos.min(kb.len())..];
            let common = pb.iter().zip(rest).take_while(|(a, b)| a == b).count();
            if common < pb.len() {
                // The new key disagrees with the stored prefix: split it.
                return Choose::SplitPrefix {
                    upper_prefix: (common > 0).then(|| pfx[..common].to_string()),
                    lower_pred: pb[common],
                    lower_prefix: (common + 1 < pb.len()).then(|| pfx[common + 1..].to_string()),
                };
            }
            pos += pb.len();
        }
        let c = Self::pred_at(key, pos);
        match preds.iter().position(|p| *p == c) {
            Some(idx) => Choose::Descend(vec![idx]),
            None => Choose::AddEntry(c),
        }
    }

    fn picksplit(&self, items: &[String], level: u32, _ctx: &()) -> PickSplit<String, u8> {
        let start = level as usize;
        // TreeShrink: extract the longest prefix common to all keys past
        // `start` (paper Table 1: "Find a common prefix among words in P").
        let common = if self.tree_shrink() {
            let mut common: Option<&[u8]> = None;
            for item in items {
                let kb = item.as_bytes();
                let rest = &kb[start.min(kb.len())..];
                common = Some(match common {
                    None => rest,
                    Some(current) => {
                        let len = current.iter().zip(rest).take_while(|(a, b)| a == b).count();
                        &current[..len]
                    }
                });
            }
            common.unwrap_or_default()
        } else {
            &[]
        };
        let pos = start + common.len();
        let mut partitions: Vec<(u8, Vec<usize>)> = Vec::new();
        for (idx, item) in items.iter().enumerate() {
            let pred = Self::pred_at(item, pos);
            match partitions.iter_mut().find(|(p, _)| *p == pred) {
                Some((_, list)) => list.push(idx),
                None => partitions.push((pred, vec![idx])),
            }
        }
        PickSplit {
            prefix: (!common.is_empty()).then(|| String::from_utf8_lossy(common).into_owned()),
            partitions,
        }
    }

    fn bulk_prepare(&self, items: &mut [(String, RowId)], level: u32, _ctx: &()) {
        // Sort-based build: ordering the key set once at the root keeps
        // sibling runs contiguous for the whole build — a partition of a
        // sorted set is itself sorted, because `picksplit` groups by the
        // character at a single position and preserves relative order.
        if level == 0 {
            items.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        }
    }

    fn inner_distance(
        &self,
        prefix: Option<&String>,
        pred: &u8,
        query: &StringQuery,
        parent_dist: f64,
        level: u32,
    ) -> f64 {
        let target = Self::target(query).as_bytes();
        let mut pos = level as usize;
        let mut dist = parent_dist;
        if let Some(pfx) = prefix {
            for c in pfx.as_bytes() {
                if target.get(pos) != Some(c) {
                    dist += 1.0;
                }
                pos += 1;
            }
        }
        if *pred == BLANK {
            // Keys below this entry end here; the remaining target characters
            // each contribute one mismatch.
            dist += target.len().saturating_sub(pos) as f64;
        } else if target.get(pos) != Some(pred) {
            dist += 1.0;
        }
        dist
    }

    fn leaf_distance(&self, key: &String, query: &StringQuery) -> f64 {
        hamming_distance(key, Self::target(query))
    }
}

/// A disk-based patricia-trie index over strings.
///
/// This is the user-facing wrapper combining [`TrieOps`] with the generalized
/// [`SpGistTree`]; it exposes the operators of the paper's `SP_GiST_trie`
/// operator class.  The uniform surface — `open` / `insert` / `delete` /
/// `execute` / `cursor` / `len` / `stats` / `repack` — comes from the
/// [`SpIndex`] trait; the inherent methods below are thin operator sugar
/// (`=`, `#=`, `?=`, `@@`) plus `&str`-taking shims kept for source
/// compatibility with the pre-`SpIndex` API.
pub struct TrieIndex {
    tree: Arc<SpGistTree<TrieOps>>,
}

impl SpGistBacked for TrieIndex {
    type Ops = TrieOps;

    const ORDERED_SCANS: bool = true;

    fn backing(&self) -> &Arc<SpGistTree<TrieOps>> {
        &self.tree
    }

    fn into_backing_tree(self) -> Arc<SpGistTree<TrieOps>> {
        self.tree
    }

    fn open_default(pool: Arc<BufferPool>) -> StorageResult<Self> {
        Self::create(pool)
    }
}

impl TrieIndex {
    /// Creates a patricia trie on `pool`.
    pub fn create(pool: Arc<BufferPool>) -> StorageResult<Self> {
        Self::with_ops(pool, TrieOps::patricia())
    }

    /// Creates a trie with explicit external-method parameters (used by the
    /// trie-variant ablation).
    pub fn with_ops(pool: Arc<BufferPool>, ops: TrieOps) -> StorageResult<Self> {
        Ok(TrieIndex {
            tree: Arc::new(SpGistTree::create(pool, ops)?),
        })
    }

    /// Re-opens a trie previously created on the file behind `pool` from its
    /// persisted identity: the tree's meta page, its owned-page list, and
    /// the external-method parameters it was created with (the durable
    /// catalog round-trips all three).
    pub fn open_with_ops(
        pool: Arc<BufferPool>,
        ops: TrieOps,
        meta_page: PageId,
        pages: Vec<PageId>,
    ) -> StorageResult<Self> {
        Ok(TrieIndex {
            tree: Arc::new(SpGistTree::open(pool, ops, meta_page, pages)?),
        })
    }

    /// Inserts a word pointing at heap row `row` (borrowed-`str` shim over
    /// [`SpIndex::insert`]).
    pub fn insert(&self, word: &str, row: RowId) -> StorageResult<()> {
        SpIndex::insert(self, word.to_string(), row)
    }

    /// Deletes one `(word, row)` entry; returns whether something was
    /// removed (borrowed-`str` shim over [`SpIndex::delete`]).
    pub fn delete(&self, word: &str, row: RowId) -> StorageResult<bool> {
        SpIndex::delete(self, &word.to_string(), row)
    }

    /// `=` operator: rows whose key equals `word`.
    pub fn equals(&self, word: &str) -> StorageResult<Vec<RowId>> {
        self.cursor(&StringQuery::Equals(word.to_string()))?.rows()
    }

    /// `#=` operator: `(key, row)` pairs whose key starts with `prefix`.
    pub fn prefix(&self, prefix: &str) -> StorageResult<Vec<(String, RowId)>> {
        self.execute(&StringQuery::Prefix(prefix.to_string()))
    }

    /// `?=` operator: `(key, row)` pairs matching a `?`-wildcard pattern.
    pub fn regex(&self, pattern: &str) -> StorageResult<Vec<(String, RowId)>> {
        self.execute(&StringQuery::Regex(pattern.to_string()))
    }

    /// `@@` operator: the `k` nearest keys to `word` under the Hamming-style
    /// distance, nearest first.
    pub fn nearest(&self, word: &str, k: usize) -> StorageResult<Vec<(String, RowId, f64)>> {
        self.tree
            .nn_search(StringQuery::Nearest(word.to_string()), k)
    }

    /// The underlying generalized tree (internally concurrent; share the
    /// `Arc` to read or write from any thread).
    pub fn tree(&self) -> &Arc<SpGistTree<TrieOps>> {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_with(words: &[&str]) -> TrieIndex {
        let index = TrieIndex::create(BufferPool::in_memory()).unwrap();
        for (i, w) in words.iter().enumerate() {
            index.insert(w, i as RowId).unwrap();
        }
        index
    }

    const PAPER_WORDS: &[&str] = &[
        "star", "space", "spade", "blue", "bit", "take", "top", "zero",
    ];

    #[test]
    fn equality_matches_exactly_one_word() {
        let index = index_with(PAPER_WORDS);
        assert_eq!(index.equals("space").unwrap(), vec![1]);
        assert_eq!(index.equals("star").unwrap(), vec![0]);
        assert!(index.equals("spac").unwrap().is_empty());
        assert!(index.equals("spaces").unwrap().is_empty());
        assert!(index.equals("").unwrap().is_empty());
    }

    #[test]
    fn prefix_search_returns_all_words_with_prefix() {
        let index = index_with(PAPER_WORDS);
        let mut hits: Vec<String> = index
            .prefix("sp")
            .unwrap()
            .into_iter()
            .map(|(w, _)| w)
            .collect();
        hits.sort();
        assert_eq!(hits, vec!["space", "spade"]);
        assert_eq!(index.prefix("star").unwrap().len(), 1);
        assert_eq!(index.prefix("").unwrap().len(), PAPER_WORDS.len());
        assert!(index.prefix("q").unwrap().is_empty());
    }

    #[test]
    fn regex_search_uses_wildcards() {
        let index = index_with(PAPER_WORDS);
        let hits: Vec<String> = index
            .regex("spa?e")
            .unwrap()
            .into_iter()
            .map(|(w, _)| w)
            .collect();
        let mut hits = hits;
        hits.sort();
        assert_eq!(hits, vec!["space", "spade"]);
        // Leading wildcard still narrows on later characters.
        let hits: Vec<String> = index
            .regex("?it")
            .unwrap()
            .into_iter()
            .map(|(w, _)| w)
            .collect();
        assert_eq!(hits, vec!["bit"]);
        assert!(index.regex("??").unwrap().is_empty());
    }

    #[test]
    fn nearest_neighbours_are_ordered_by_hamming_distance() {
        let index = index_with(PAPER_WORDS);
        let nn = index.nearest("spate", 3).unwrap();
        // "spade" and "space" are both at Hamming distance 1 of "spate".
        assert_eq!(nn[0].2, 1.0);
        assert_eq!(nn[1].2, 1.0);
        let two_closest: Vec<&str> = nn[..2].iter().map(|(w, _, _)| w.as_str()).collect();
        assert!(two_closest.contains(&"spade"));
        assert!(two_closest.contains(&"space"));
        assert!(nn.windows(2).all(|w| w[0].2 <= w[1].2));
    }

    #[test]
    fn duplicates_and_deletes() {
        let index = index_with(&[]);
        index.insert("echo", 1).unwrap();
        index.insert("echo", 2).unwrap();
        let mut rows = index.equals("echo").unwrap();
        rows.sort_unstable();
        assert_eq!(rows, vec![1, 2]);
        assert!(index.delete("echo", 1).unwrap());
        assert_eq!(index.equals("echo").unwrap(), vec![2]);
        assert!(!index.delete("echo", 1).unwrap());
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn large_vocabulary_exact_and_prefix() {
        // Enough synthetic words to force many splits and prefix splits.
        let words: Vec<String> = (0..3000u32)
            .map(|i| {
                let mut w = String::new();
                let mut n = i;
                for _ in 0..5 {
                    w.push(char::from(b'a' + (n % 26) as u8));
                    n /= 26;
                }
                w
            })
            .collect();
        let index = TrieIndex::create(BufferPool::in_memory()).unwrap();
        for (i, w) in words.iter().enumerate() {
            index.insert(w, i as RowId).unwrap();
        }
        // Every word can be found again (words repeat, so count >= 1).
        for (i, w) in words.iter().enumerate().step_by(197) {
            let rows = index.equals(w).unwrap();
            assert!(rows.contains(&(i as RowId)), "word {w} row {i} missing");
        }
        // Prefix count agrees with a linear scan.
        let expected = words.iter().filter(|w| w.starts_with("ba")).count();
        assert_eq!(index.prefix("ba").unwrap().len(), expected);
        let stats = index.stats().unwrap();
        assert_eq!(stats.items, 3000);
        assert!(stats.max_page_height <= stats.max_node_height);
    }

    #[test]
    fn patricia_prefix_split_preserves_existing_keys() {
        // "romane", "romanus", "romulus" share prefixes and then diverge —
        // the classic patricia example that exercises SplitPrefix.
        let index = index_with(&["romane", "romanus", "romulus"]);
        index.insert("rubens", 10).unwrap();
        index.insert("ruber", 11).unwrap();
        index.insert("r", 12).unwrap();
        for (word, row) in [
            ("romane", 0),
            ("romanus", 1),
            ("romulus", 2),
            ("rubens", 10),
            ("ruber", 11),
            ("r", 12),
        ] {
            assert_eq!(index.equals(word).unwrap(), vec![row], "lookup of {word}");
        }
        assert_eq!(index.prefix("rom").unwrap().len(), 3);
        assert_eq!(index.prefix("r").unwrap().len(), 6);
    }

    #[test]
    fn never_shrink_variant_answers_the_same_queries() {
        let pool_a = BufferPool::in_memory();
        let pool_b = BufferPool::in_memory();
        let patricia = TrieIndex::with_ops(pool_a, TrieOps::patricia()).unwrap();
        let plain = TrieIndex::with_ops(pool_b, TrieOps::never_shrink()).unwrap();
        for (i, w) in PAPER_WORDS.iter().enumerate() {
            patricia.insert(w, i as RowId).unwrap();
            plain.insert(w, i as RowId).unwrap();
        }
        for q in ["spade", "take", "zzz"] {
            assert_eq!(patricia.equals(q).unwrap(), plain.equals(q).unwrap());
        }
        let mut a = patricia.prefix("t").unwrap();
        let mut b = plain.prefix("t").unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // The patricia variant needs no more nodes than the plain trie.
        let pa = patricia.stats().unwrap();
        let pl = plain.stats().unwrap();
        assert!(pa.total_nodes() <= pl.total_nodes());
    }

    #[test]
    fn empty_string_keys_are_supported() {
        let index = index_with(&["", "a", "ab"]);
        assert_eq!(index.equals("").unwrap(), vec![0]);
        assert_eq!(index.prefix("").unwrap().len(), 3);
        assert!(index.delete("", 0).unwrap());
        assert!(index.equals("").unwrap().is_empty());
    }
}
