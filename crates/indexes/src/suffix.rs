//! The disk-based suffix tree for substring matching (paper Section 6,
//! Figure 16).
//!
//! Substring search on a trie becomes prefix search over *suffixes*: for
//! every indexed string, all of its suffixes are inserted into a patricia
//! trie, each pointing back at the original row.  A substring query `@=` is
//! answered as a prefix query over the suffix trie, deduplicated by row id —
//! which is why the paper can compare the suffix tree only against sequential
//! scanning: none of the other access methods supports substring match.
//!
//! A leaf keeps only the rest of a suffix, the bytes its path has not
//! spelled ([`LeafMode::Rest`](crate::LeafMode::Rest)), as PostgreSQL's
//! SP-GiST text class does: an `L`-byte word costs `L` suffixes, but not
//! `L²/2` bytes of them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spgist_core::{RowId, SearchCursor, SpGistOps, SpGistTree, TreeStats};
use spgist_storage::{BufferPool, PageId, StorageResult};

use crate::query::StringQuery;
use crate::spindex::{Cursor, SpGistBacked, SpIndex};
use crate::trie::{TrieIndex, TrieOps};

/// Every stored suffix of `word` — the empty word has one suffix, itself.
/// Suffixes are byte-indexed (the paper's word datasets are ASCII); the one
/// place to change when adding non-ASCII support.
fn suffixes(word: &str) -> impl Iterator<Item = &str> {
    (0..word.len().max(1)).map(move |start| &word[start..])
}

/// Every stored suffix of `word`, paired with `row`.
fn suffix_items(word: &str, row: RowId) -> Vec<(String, RowId)> {
    suffixes(word).map(|s| (s.to_string(), row)).collect()
}

/// A disk-based suffix-tree index over strings (the paper's
/// `SP_GiST_suffix` operator class with its `@=` substring operator).
///
/// One logical item (a word) is stored as all of its suffixes, so the
/// [`SpIndex`] impl expands inserts and deletes accordingly, reports the
/// word count (not the suffix count) from [`SpIndex::len`], and
/// deduplicates query results by row id.  [`StringQuery::Substring`]
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

    fn backing(&self) -> &Arc<SpGistTree<TrieOps>> {
        self.trie.backing()
    }
}

impl SpIndex for SuffixTreeIndex {
    type Key = String;
    type Query = StringQuery;

    /// A cursor yields what the leaf stored of the matching suffix — its
    /// rest past the path ([`LeafMode::Rest`](crate::LeafMode::Rest)); the
    /// word lives in the heap.
    const RETURNS_KEYS: bool = false;

    fn insert(&self, word: String, row: RowId) -> StorageResult<()> {
        self.insert_batch(vec![(word, row)])
    }

    /// Inserts a batch of words — all suffixes of all words, the write gate,
    /// the item count and reclamation paid once per word.  Suffixes land one
    /// by one; cursor-level atomicity of the batch is the catalog executor's
    /// job.
    fn insert_batch(&self, items: Vec<(String, RowId)>) -> StorageResult<()> {
        for (word, row) in &items {
            self.backing().insert_all(suffix_items(word, *row))?;
            self.strings.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Bulk build, one root partition of suffixes at a time: the suffix set
    /// is never expanded whole.  A pass over the words finds the least and
    /// the greatest suffix; the root's predicates are the bytes suffixes
    /// hold just past the prefix those two share, and a second pass keeps
    /// one suffix of each as the sample the root is split on.  Each child is
    /// then built from one more pass that materializes only its partition's
    /// suffixes, sorted as the trie's `bulk_prepare` sorts the whole set —
    /// so the tree is byte for byte the whole set's.
    fn bulk_build(&self, items: Vec<(String, RowId)>) -> StorageResult<TreeStats> {
        let all = || {
            items
                .iter()
                .flat_map(|(word, row)| suffixes(word).map(move |s| (s, *row)))
        };
        let (Some(min), Some(max)) = (all().min(), all().max()) else {
            return self.backing().bulk_build(Vec::new());
        };
        let split_at = min
            .0
            .bytes()
            .zip(max.0.bytes())
            .take_while(|(a, b)| a == b)
            .count();
        let pred = |suffix: &str| TrieOps::pred_at(suffix, split_at);
        // Per root predicate: one of its suffixes and how many there are.
        let mut partitions: BTreeMap<u8, ((&str, RowId), usize)> = BTreeMap::new();
        for item in all() {
            partitions.entry(pred(item.0)).or_insert((item, 0)).1 += 1;
        }
        let owned = |(s, row): (&str, RowId)| (s.to_string(), row);
        let sample = [min, max]
            .into_iter()
            .chain(partitions.values().map(|(item, _)| *item))
            .map(owned)
            .collect();
        let len = partitions.values().map(|(_, count)| count).sum();
        let stats = self
            .backing()
            .bulk_build_by_partition(len, sample, |root_pred| {
                let Some(&p) = root_pred else {
                    return Ok(all().map(owned).collect());
                };
                let mut run = Vec::with_capacity(partitions.get(&p).map_or(0, |(_, n)| *n));
                run.extend(all().filter(|(s, _)| pred(s) == p).map(owned));
                self.backing().ops().bulk_prepare(&mut run, 0, &());
                Ok(run)
            })?;
        self.strings
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        Ok(stats)
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
    fn delete(&self, word: &String, row: RowId) -> StorageResult<bool> {
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

    fn cursor(&self, query: &StringQuery) -> StorageResult<Cursor<'_, String>> {
        let query = match query {
            // Substring match over words = prefix match over suffixes.
            StringQuery::Substring(needle) => StringQuery::Prefix(needle.clone()),
            other => other.clone(),
        };
        // A word surfaces once per matching suffix: report each row once.
        let inner = SearchCursor::over(Arc::clone(self.backing()), query);
        Ok(Cursor::deduplicated(inner))
    }

    /// No ordered scans: a distance to a stored suffix says nothing about
    /// the word it came from.
    fn ordered_cursor(&self, _query: &StringQuery) -> StorageResult<Option<Cursor<'_, String>>> {
        Ok(None)
    }

    fn len(&self) -> u64 {
        self.strings.load(Ordering::Relaxed)
    }
}

impl SuffixTreeIndex {
    /// Creates a suffix-tree index on `pool`.
    pub fn create(pool: Arc<BufferPool>) -> StorageResult<Self> {
        Ok(SuffixTreeIndex {
            trie: TrieIndex::with_ops(pool, TrieOps::patricia().storing_rest())?,
            strings: AtomicU64::new(0),
        })
    }

    /// Re-opens a suffix tree previously created on the file behind `pool`
    /// from its persisted identity.  On top of the backing trie's meta page,
    /// owned-page list and configuration, the suffix tree persists its
    /// logical word count (`strings`) — the trie's own item count is the
    /// *suffix* count.  Whatever `ops` say, the leaves hold rests
    /// ([`LeafMode::Rest`](crate::LeafMode::Rest)): the mode is the
    /// class's, not a parameter.
    pub fn open_with_ops(
        pool: Arc<BufferPool>,
        ops: TrieOps,
        meta_page: PageId,
        pages: Vec<PageId>,
        strings: u64,
    ) -> StorageResult<Self> {
        let ops = ops.storing_rest();
        Ok(SuffixTreeIndex {
            trie: TrieIndex::open_with_ops(pool, ops, meta_page, pages)?,
            strings: AtomicU64::new(strings),
        })
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
            index.insert(w.to_string(), i as RowId).unwrap();
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
        assert!(index.delete(&"database".into(), 0).unwrap());
        assert_eq!(index.substring("base").unwrap(), vec![1]);
        assert!(index.substring("data").unwrap().is_empty());
        assert_eq!(index.len(), 1);
        // Suffixes of the surviving word are untouched.
        assert_eq!(index.suffix_count(), 4);
        // Deleting again (or a word never indexed) removes nothing.
        assert!(!index.delete(&"database".into(), 0).unwrap());
        assert!(!index.delete(&"tree".into(), 7).unwrap());
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn deleting_an_unindexed_word_leaves_overlapping_suffixes_intact() {
        let index = index_with(&["database"]);
        // "xbase" was never indexed; its tail suffixes collide with stored
        // suffixes of "database", but every suffix is verified present
        // before anything is removed, so nothing is deleted.
        assert!(!index.delete(&"xbase".into(), 0).unwrap());
        assert_eq!(index.substring("base").unwrap(), vec![0]);
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn empty_word_roundtrip() {
        let index = index_with(&[]);
        index.insert("".into(), 3).unwrap();
        assert_eq!(index.len(), 1);
        assert_eq!(index.substring("").unwrap(), vec![3]);
        assert!(index.delete(&"".into(), 3).unwrap());
        assert!(index.is_empty());
    }
}
