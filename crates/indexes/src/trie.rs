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

use spgist_core::{
    Choose, NodeShrink, PathShrink, PickSplit, RowId, SpGistConfig, SpGistOps, MAX_NODE_BYTES,
};
use spgist_storage::{StorageError, StorageResult};

use crate::query::{hamming_distance, StringQuery};
use crate::spindex::{SpGistBacked, SpGistIndex, SpIndex};
use crate::suffix::Suffixes;

/// Entry predicate marking "the key ends at this position" (the paper's
/// *blank* predicate).  Zero never collides with real characters.
pub const BLANK: u8 = 0;

/// The longest key the trie stores, in bytes: the longest prefix with
/// which an inner node of full fan-out — [`BLANK`] and 26 letters — still
/// fits one record, as PostgreSQL's text class bounds an inner tuple's
/// prefix (`SPGIST_MAX_PREFIX_LENGTH`).  Such a node holds its tag, the
/// prefix's presence byte and two-byte length, its entry count, and 27
/// entries of a predicate byte and a 6-byte child.  A longer key is
/// refused with [`StorageError::RecordTooLarge`] naming this limit.
pub const MAX_KEY_LEN: usize = MAX_NODE_BYTES - (1 + 1 + 2 + 1 + 27 * 7);

/// External methods of the SP-GiST trie: [`TrieOps`] (`SUFFIXES` false) is
/// the patricia trie, [`SuffixOps`](crate::SuffixOps) (`SUFFIXES` true) the
/// suffix tree — the same trie storing a word as its suffixes
/// ([`SpGistOps::MULTI_ENTRY`]).
///
/// A trie leaf stores the whole key, so a cursor yields the indexed value
/// and a scan can answer without the heap.  A suffix-tree leaf stores only
/// what the path has not spelled: at depth `level` a suffix keeps its bytes
/// from `level` on.  `leaf_consistent` compares that rest with the query
/// past `level`, whose earlier characters `consistent` and
/// `prefix_consistent` checked on the way down — which holds for `=`, `#=`
/// and `?=` (and `@@` matches all), and for `@=`, which the suffix tree
/// reads as `#=` over its suffixes.
#[derive(Debug, Clone)]
pub struct Trie<const SUFFIXES: bool> {
    config: SpGistConfig,
}

/// External methods of the patricia trie.
pub type TrieOps = Trie<false>;

impl<const SUFFIXES: bool> Default for Trie<SUFFIXES> {
    fn default() -> Self {
        Self::patricia()
    }
}

impl<const SUFFIXES: bool> Trie<SUFFIXES> {
    /// The patricia trie used throughout the paper's evaluation:
    /// `PathShrink = TreeShrink`, `NodeShrink = OmitEmpty`.
    pub fn patricia() -> Self {
        Self::with_config(SpGistConfig {
            partitions: 27,
            bucket_size: 16,
            resolution: 128,
            path_shrink: PathShrink::TreeShrink,
            node_shrink: NodeShrink::OmitEmpty,
            split_once: false,
        })
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
        Trie { config }
    }

    /// The bytes of a key that its leaf at depth `level` no longer holds.
    fn spelled(level: u32) -> usize {
        if SUFFIXES {
            level as usize
        } else {
            0
        }
    }

    fn tree_shrink(&self) -> bool {
        self.config.path_shrink == PathShrink::TreeShrink
    }

    /// The predicate `key` is filed under at byte `pos`: its byte there, or
    /// [`BLANK`] past its end.
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

impl<const SUFFIXES: bool> SpGistOps for Trie<SUFFIXES> {
    type Key = String;
    type Prefix = Vec<u8>;
    type Pred = u8;
    type Query = StringQuery;
    type Context = ();
    const MULTI_ENTRY: bool = SUFFIXES;

    fn config(&self) -> SpGistConfig {
        self.config
    }

    fn key_query(&self, key: &String) -> StringQuery {
        StringQuery::Equals(key.clone())
    }

    /// A word is stored as itself, or as each of its suffixes.  A word past
    /// [`MAX_KEY_LEN`] is refused.  The suffix tree cuts suffixes and rests
    /// at byte positions, so it refuses a word that is not ASCII.
    fn entries(&self, word: &String) -> StorageResult<impl Iterator<Item = String>> {
        if word.len() > MAX_KEY_LEN {
            return Err(StorageError::RecordTooLarge {
                size: word.len(),
                max: MAX_KEY_LEN,
            });
        }
        if SUFFIXES && !word.is_ascii() {
            return Err(StorageError::Unsupported(format!(
                "the suffix tree indexes ASCII words only, not {word:?}"
            )));
        }
        Ok(Suffixes::of(word, SUFFIXES))
    }

    fn consistent(
        &self,
        prefix: Option<&Vec<u8>>,
        pred: &u8,
        query: &StringQuery,
        level: u32,
    ) -> bool {
        let pos = level as usize + prefix.map_or(0, Vec::len);
        match query {
            // The plain trie cannot prune substring queries (paper Table 3);
            // the suffix tree reads them as prefix queries over suffixes.
            StringQuery::Substring(_) if !SUFFIXES => true,
            StringQuery::Equals(s) => {
                if *pred == BLANK {
                    s.len() == pos
                } else {
                    s.as_bytes().get(pos) == Some(pred)
                }
            }
            StringQuery::Prefix(p) | StringQuery::Substring(p) => {
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
            StringQuery::Nearest(_) => true,
        }
    }

    fn prefix_consistent(&self, prefix: &Vec<u8>, query: &StringQuery, level: u32) -> bool {
        let start = level as usize;
        match query {
            StringQuery::Substring(_) if !SUFFIXES => true,
            StringQuery::Equals(s) => {
                let sb = s.as_bytes();
                sb.len() >= start + prefix.len() && sb[start..start + prefix.len()] == prefix[..]
            }
            StringQuery::Prefix(p) | StringQuery::Substring(p) => {
                let qb = p.as_bytes();
                prefix.iter().enumerate().all(|(i, c)| {
                    let pos = start + i;
                    pos >= qb.len() || qb[pos] == *c
                })
            }
            StringQuery::Regex(r) => {
                let rb = r.as_bytes();
                prefix.iter().enumerate().all(|(i, c)| {
                    let pos = start + i;
                    pos < rb.len() && (rb[pos] == b'?' || rb[pos] == *c)
                })
            }
            StringQuery::Nearest(_) => true,
        }
    }

    fn leaf_consistent(&self, key: &String, query: &StringQuery, level: u32) -> bool {
        let spelled = Self::spelled(level);
        match query {
            // A suffix matches `@=` where it starts with the needle.
            StringQuery::Substring(s) if SUFFIXES => {
                let needle = s.as_bytes().get(spelled..).unwrap_or_default();
                key.as_bytes().starts_with(needle)
            }
            _ => query.matches_rest(key, spelled),
        }
    }

    fn leaf_key(&self, key: &mut String, consumed: u32) {
        // Byte-indexed like the suffixes themselves (ASCII words only); the
        // rest slides to the front of the key's own buffer.
        key.drain(..Self::spelled(consumed).min(key.len()));
    }

    fn descend_levels(&self, prefix: Option<&Vec<u8>>) -> u32 {
        1 + prefix.map_or(0, |p| p.len() as u32)
    }

    fn choose(
        &self,
        prefix: Option<&Vec<u8>>,
        preds: &[u8],
        key: &String,
        level: u32,
    ) -> Choose<u8, Vec<u8>> {
        let mut pos = level as usize;
        if let Some(pfx) = prefix {
            let kb = key.as_bytes();
            let rest = &kb[pos.min(kb.len())..];
            let common = pfx.iter().zip(rest).take_while(|(a, b)| a == b).count();
            if common < pfx.len() {
                // The new key disagrees with the stored prefix: split it.
                return Choose::SplitPrefix {
                    upper_prefix: (common > 0).then(|| pfx[..common].to_vec()),
                    lower_pred: pfx[common],
                    lower_prefix: (common + 1 < pfx.len()).then(|| pfx[common + 1..].to_vec()),
                };
            }
            pos += pfx.len();
        }
        let c = Self::pred_at(key, pos);
        match preds.iter().position(|p| *p == c) {
            Some(idx) => Choose::Descend(idx),
            None => Choose::AddEntry(c),
        }
    }

    fn picksplit(
        &self,
        items: &[(String, RowId)],
        level: u32,
        _ctx: &(),
    ) -> PickSplit<Vec<u8>, u8> {
        // A rest starts where the path ends.
        let start = level as usize - Self::spelled(level);
        // TreeShrink: extract the longest prefix common to all keys past
        // `start` (paper Table 1: "Find a common prefix among words in P").
        let common = if self.tree_shrink() {
            let mut common: Option<&[u8]> = None;
            for (key, _) in items {
                let kb = key.as_bytes();
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
        for (idx, (key, _)) in items.iter().enumerate() {
            let pred = Self::pred_at(key, pos);
            // Newest first: a sorted partition (the bulk build's) meets its
            // predicate in the partition it opened last.
            match partitions.iter_mut().rev().find(|(p, _)| *p == pred) {
                Some((_, list)) => list.push(idx),
                None => partitions.push((pred, vec![idx])),
            }
        }
        PickSplit {
            prefix: (!common.is_empty()).then(|| common.to_vec()),
            partitions,
        }
    }

    fn bulk_prepare(&self, items: &mut [(String, RowId)], level: u32, _ctx: &()) {
        // Sort-based build: ordering the key set once at the root keeps
        // sibling runs contiguous for the whole build — a partition of a
        // sorted set is itself sorted, because `picksplit` groups by the
        // character at a single position and preserves relative order.
        // The order is total, `(key, row)`, so a build depends only on the
        // item set, and a partition sorted on its own is exactly the
        // whole-set order restricted to it (the suffix tree's partitioned
        // build relies on this).
        if level == 0 {
            items.sort_unstable();
        }
    }

    fn inner_distance(
        &self,
        prefix: Option<&Vec<u8>>,
        pred: &u8,
        query: &StringQuery,
        parent_dist: f64,
        level: u32,
    ) -> f64 {
        let target = Self::target(query).as_bytes();
        let mut pos = level as usize;
        let mut dist = parent_dist;
        if let Some(pfx) = prefix {
            for c in pfx {
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

/// A disk-based patricia-trie index over strings: the paper's
/// `SP_GiST_trie` operator class.  The uniform surface comes from
/// [`SpIndex`]; the inherent methods below are operator sugar (`=`, `#=`,
/// `?=`, `@@`).
pub type TrieIndex = SpGistIndex<TrieOps>;

impl TrieIndex {
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
        self.backing()
            .nn_search(StringQuery::Nearest(word.to_string()), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgist_storage::BufferPool;

    fn index_with(words: &[&str]) -> TrieIndex {
        let index = TrieIndex::create(BufferPool::in_memory()).unwrap();
        for (i, w) in words.iter().enumerate() {
            index.insert(w.to_string(), i as RowId).unwrap();
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
        index.insert("echo".into(), 1).unwrap();
        index.insert("echo".into(), 2).unwrap();
        let mut rows = index.equals("echo").unwrap();
        rows.sort_unstable();
        assert_eq!(rows, vec![1, 2]);
        assert!(index.delete(&"echo".into(), 1).unwrap());
        assert_eq!(index.equals("echo").unwrap(), vec![2]);
        assert!(!index.delete(&"echo".into(), 1).unwrap());
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
            index.insert(w.to_string(), i as RowId).unwrap();
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
        index.insert("rubens".into(), 10).unwrap();
        index.insert("ruber".into(), 11).unwrap();
        index.insert("r".into(), 12).unwrap();
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
            patricia.insert(w.to_string(), i as RowId).unwrap();
            plain.insert(w.to_string(), i as RowId).unwrap();
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
    fn a_full_inner_node_with_the_longest_prefix_fills_one_record() {
        use spgist_core::node::{Entry, Node, NodeId};
        let child = NodeId::new(1, 1);
        let full = Node::<TrieOps>::Inner {
            prefix: Some(vec![b'q'; MAX_KEY_LEN]),
            entries: (0..27).map(|pred| Entry { pred, child }).collect(),
        };
        assert_eq!(full.encode().len(), MAX_NODE_BYTES);
        assert_eq!(MAX_KEY_LEN, 7_989);
    }

    #[test]
    fn non_ascii_keys_split_inside_a_character() {
        // "é" and "è" share their first byte: a split's common prefix ends
        // inside the character, and `choose` compares bytes after it.
        let words: Vec<(String, RowId)> = (0..40)
            .map(|i| (format!("{}{i}", if i % 2 == 0 { 'é' } else { 'è' }), i))
            .collect();
        let looped = index_with(&[]);
        for (word, row) in &words {
            looped.insert(word.clone(), *row).unwrap();
        }
        let bulk = TrieIndex::create(BufferPool::in_memory()).unwrap();
        bulk.bulk_build(words.clone()).unwrap();
        for index in [&looped, &bulk] {
            for (word, row) in &words {
                assert_eq!(index.equals(word).unwrap(), vec![*row], "{word}");
            }
            assert_eq!(index.prefix("é").unwrap().len(), 20);
        }
    }

    #[test]
    fn empty_string_keys_are_supported() {
        let index = index_with(&["", "a", "ab"]);
        assert_eq!(index.equals("").unwrap(), vec![0]);
        assert_eq!(index.prefix("").unwrap().len(), 3);
        assert!(index.delete(&"".into(), 0).unwrap());
        assert!(index.equals("").unwrap().is_empty());
    }
}
