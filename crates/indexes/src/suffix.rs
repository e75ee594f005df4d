//! The disk-based suffix tree for substring matching (paper Section 6,
//! Figure 16).
//!
//! Substring search on a trie becomes prefix search over *suffixes*: for
//! every indexed string, all of its suffixes are inserted into a patricia
//! trie, each pointing back at the original row.  A substring query `@=` is
//! answered as a prefix query over the suffix trie, deduplicated by row id —
//! which is why the paper can compare the suffix tree only against sequential
//! scanning: none of the other access methods supports substring match.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spgist_core::{RowId, SpGistTree, TreeStats};
use spgist_storage::{BufferPool, PageId, StorageResult};

use crate::query::StringQuery;
use crate::spindex::{SpGistBacked, SpIndex};
use crate::trie::{TrieIndex, TrieOps};

/// Every stored suffix of `word`, paired with `row` — the empty word has one
/// suffix, itself.
/// Suffixes are byte-indexed (the paper's word datasets are ASCII); the one
/// place to change when adding non-ASCII support.
fn suffix_items(word: &str, row: RowId) -> Vec<(String, RowId)> {
    (0..word.len().max(1))
        .map(|start| (word[start..].to_string(), row))
        .collect()
}

/// A disk-based suffix-tree index over strings (the paper's
/// `SP_GiST_suffix` operator class with its `@=` substring operator).
///
/// One logical item (a word) is stored as all of its suffixes, so the
/// [`SpIndex`] hooks expand inserts and deletes accordingly, report the
/// word count (not the suffix count) from [`SpIndex::len`], and
/// deduplicate query results by row id.  [`StringQuery::Substring`]
/// queries are rewritten into prefix queries over the stored suffixes —
/// the trick that lets the paper answer `@=` with trie navigation.
///
/// The backing trie is internally concurrent: the suffixes of one word are
/// inserted one after another, so a cursor opened mid-insert may observe a
/// word through only some of its suffixes.  Substring queries deduplicate
/// by row id, so the row surfaces at most once either way; statement-level
/// atomicity is the catalog executor's job (its per-table DML lock).
pub struct SuffixTreeIndex {
    trie: TrieIndex,
    /// Number of original strings indexed (not suffixes); atomic so `len()`
    /// is a plain load.
    strings: AtomicU64,
}

impl SpGistBacked for SuffixTreeIndex {
    type Ops = TrieOps;

    const DEDUPE_ROWS: bool = true;
    /// A cursor yields the matching *suffix*; the word lives in the heap.
    const RETURNS_KEYS: bool = false;

    fn backing(&self) -> &Arc<SpGistTree<TrieOps>> {
        self.trie.backing()
    }

    fn into_backing_tree(self) -> Arc<SpGistTree<TrieOps>> {
        self.trie.into_backing_tree()
    }

    fn open_default(pool: Arc<BufferPool>) -> StorageResult<Self> {
        Self::create(pool)
    }

    fn insert_key(&self, word: String, row: RowId) -> StorageResult<()> {
        self.insert_batch_keys(vec![(word, row)])
    }

    /// Removes every suffix entry of `word` for `row`, or nothing.
    ///
    /// The caller must pass the word originally indexed for that row (the
    /// `spgist-catalog` executor reads it back from the heap).  Passing a
    /// *different* word cannot be detected in general — a stored suffix of
    /// the indexed word is indistinguishable from a suffix of the requested
    /// one — but the common misuses are contained: every suffix is located
    /// *before* anything is removed ([`SpGistTree::delete_batch`], one pass
    /// under one write gate), so a word that was never indexed deletes
    /// nothing and returns `false`, and the word counter never underflows.
    /// A suffix shared by thousands of rows costs what any other does: the
    /// descent follows `row` through the row nodes to one small leaf.
    fn delete_key(&self, word: &String, row: RowId) -> StorageResult<bool> {
        let removed = self.backing().delete_batch(&suffix_items(word, row))?;
        if removed {
            let _ = self
                .strings
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    Some(n.saturating_sub(1))
                });
        }
        Ok(removed)
    }

    /// Inserts a batch of words — all suffixes of all words, the write gate,
    /// the item count and reclamation paid once per word.  Suffixes land one
    /// by one; cursor-level atomicity of the batch is the catalog executor's
    /// job.
    fn insert_batch_keys(&self, items: Vec<(String, RowId)>) -> StorageResult<()> {
        for (word, row) in &items {
            self.backing().insert_all(suffix_items(word, *row))?;
            self.strings.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Bulk build: the words are expanded into the full suffix set *before*
    /// the backing trie is built, so the sort-based trie build sees every
    /// suffix at once and sibling runs of shared suffixes are contiguous.
    fn bulk_build_keys(&self, items: Vec<(String, RowId)>) -> StorageResult<TreeStats> {
        let words = items.len() as u64;
        let total: usize = items.iter().map(|(w, _)| w.len().max(1)).sum();
        let mut expanded = Vec::with_capacity(total);
        for (word, row) in &items {
            expanded.extend(suffix_items(word, *row));
        }
        let stats = self.backing().bulk_build(expanded)?;
        self.strings.fetch_add(words, Ordering::Relaxed);
        Ok(stats)
    }

    fn translate_query(&self, query: &StringQuery) -> StringQuery {
        match query {
            // Substring match over words = prefix match over suffixes.
            StringQuery::Substring(needle) => StringQuery::Prefix(needle.clone()),
            other => other.clone(),
        }
    }

    fn item_count(&self) -> u64 {
        self.strings.load(Ordering::Relaxed)
    }
}

impl SuffixTreeIndex {
    /// Creates a suffix-tree index on `pool`.
    pub fn create(pool: Arc<BufferPool>) -> StorageResult<Self> {
        Ok(SuffixTreeIndex {
            trie: TrieIndex::with_ops(pool, TrieOps::patricia())?,
            strings: AtomicU64::new(0),
        })
    }

    /// Re-opens a suffix tree previously created on the file behind `pool`
    /// from its persisted identity.  On top of the backing trie's meta page,
    /// owned-page list and configuration, the suffix tree persists its
    /// logical word count (`strings`) — the trie's own item count is the
    /// *suffix* count.
    pub fn open_with_ops(
        pool: Arc<BufferPool>,
        ops: TrieOps,
        meta_page: PageId,
        pages: Vec<PageId>,
        strings: u64,
    ) -> StorageResult<Self> {
        Ok(SuffixTreeIndex {
            trie: TrieIndex::open_with_ops(pool, ops, meta_page, pages)?,
            strings: AtomicU64::new(strings),
        })
    }

    /// Indexes `word`: every suffix of the word is inserted, pointing at
    /// heap row `row` (borrowed-`str` shim over [`SpIndex::insert`]).
    pub fn insert(&self, word: &str, row: RowId) -> StorageResult<()> {
        SpIndex::insert(self, word.to_string(), row)
    }

    /// Removes the word previously indexed for `row`; returns whether
    /// anything was removed (borrowed-`str` shim over [`SpIndex::delete`]).
    pub fn delete(&self, word: &str, row: RowId) -> StorageResult<bool> {
        SpIndex::delete(self, &word.to_string(), row)
    }

    /// `@=` operator: rows whose key contains `needle` as a substring.
    pub fn substring(&self, needle: &str) -> StorageResult<Vec<RowId>> {
        let mut rows = self
            .cursor(&StringQuery::Substring(needle.to_string()))?
            .rows()?;
        rows.sort_unstable();
        Ok(rows)
    }

    /// Number of suffix entries stored in the underlying trie.
    pub fn suffix_count(&self) -> u64 {
        self.backing().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_with(words: &[&str]) -> SuffixTreeIndex {
        let index = SuffixTreeIndex::create(BufferPool::in_memory()).unwrap();
        for (i, w) in words.iter().enumerate() {
            index.insert(w, i as RowId).unwrap();
        }
        index
    }

    #[test]
    fn substring_finds_matches_anywhere_in_the_word() {
        let index = index_with(&["database", "partition", "tree", "substring"]);
        assert_eq!(index.substring("base").unwrap(), vec![0]);
        assert_eq!(index.substring("art").unwrap(), vec![1]);
        assert_eq!(index.substring("tri").unwrap(), vec![3]);
        assert_eq!(index.substring("t").unwrap(), vec![0, 1, 2, 3]);
        assert!(index.substring("zzz").unwrap().is_empty());
    }

    #[test]
    fn each_row_reported_once_despite_repeated_substrings() {
        let index = index_with(&["banana"]);
        // "an" occurs twice in "banana" but the row must be reported once.
        assert_eq!(index.substring("an").unwrap(), vec![0]);
        assert_eq!(index.substring("a").unwrap(), vec![0]);
    }

    #[test]
    fn suffix_count_is_sum_of_lengths() {
        let index = index_with(&["abc", "de"]);
        assert_eq!(index.suffix_count(), 5);
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn agreement_with_sequential_contains_scan() {
        let words = [
            "space",
            "partitioning",
            "trees",
            "postgresql",
            "realization",
            "performance",
            "quadtree",
            "kdtree",
            "suffix",
            "patricia",
        ];
        let index = index_with(&words);
        for needle in ["a", "tr", "ti", "on", "qu", "zz", "post"] {
            let expected: Vec<RowId> = words
                .iter()
                .enumerate()
                .filter(|(_, w)| w.contains(needle))
                .map(|(i, _)| i as RowId)
                .collect();
            assert_eq!(
                index.substring(needle).unwrap(),
                expected,
                "needle {needle}"
            );
        }
    }

    #[test]
    fn whole_word_is_a_substring_of_itself() {
        let index = index_with(&["hello"]);
        assert_eq!(index.substring("hello").unwrap(), vec![0]);
        assert!(index.substring("helloo").unwrap().is_empty());
    }

    #[test]
    fn delete_removes_every_suffix_of_the_word() {
        let index = index_with(&["database", "base"]);
        assert_eq!(index.substring("base").unwrap(), vec![0, 1]);
        assert!(index.delete("database", 0).unwrap());
        assert_eq!(index.substring("base").unwrap(), vec![1]);
        assert!(index.substring("data").unwrap().is_empty());
        assert_eq!(index.len(), 1);
        // Suffixes of the surviving word are untouched.
        assert_eq!(index.suffix_count(), 4);
        // Deleting again (or a word never indexed) removes nothing.
        assert!(!index.delete("database", 0).unwrap());
        assert!(!index.delete("tree", 7).unwrap());
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn deleting_an_unindexed_word_leaves_overlapping_suffixes_intact() {
        let index = index_with(&["database"]);
        // "xbase" was never indexed; its tail suffixes collide with stored
        // suffixes of "database", but every suffix is verified present
        // before anything is removed, so nothing is deleted.
        assert!(!index.delete("xbase", 0).unwrap());
        assert_eq!(index.substring("base").unwrap(), vec![0]);
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn empty_word_roundtrip() {
        let index = index_with(&[]);
        index.insert("", 3).unwrap();
        assert_eq!(index.len(), 1);
        assert_eq!(index.substring("").unwrap(), vec![3]);
        assert!(index.delete("", 3).unwrap());
        assert!(index.is_empty());
    }
}
