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
//! The class is its external methods, as the paper argues: [`SuffixOps`] is
//! the trie's ([`TrieOps`](crate::TrieOps)) storing a word as its suffixes
//! ([`SpGistOps::entries`](spgist_core::SpGistOps::entries)) and reading
//! `@=` as `#=`, and the index is the generic [`SpGistIndex`], which inserts,
//! builds and deletes a word as all of its suffixes, counts it once, and
//! reports each row once.  A leaf keeps only the rest of a suffix, the bytes
//! its path has not spelled ([`LeafMode::Rest`](crate::LeafMode::Rest)), as
//! PostgreSQL's SP-GiST text class does: an `L`-byte word costs `L`
//! suffixes, but not `L²/2` bytes of them.  Suffixes and rests are cut at
//! byte positions, so the class refuses a word that is not ASCII.

use spgist_core::RowId;
use spgist_storage::StorageResult;

use crate::query::StringQuery;
use crate::spindex::{SpGistIndex, SpIndex};
use crate::trie::Trie;

/// External methods of the suffix tree (the paper's `SP_GiST_suffix`
/// operator class with its `@=` substring operator).
pub type SuffixOps = Trie<true>;

/// A disk-based suffix-tree index over strings.
pub type SuffixTreeIndex = SpGistIndex<SuffixOps>;

impl SuffixTreeIndex {
    /// `@=` operator: rows whose key contains `needle` as a substring.
    pub fn substring(&self, needle: &str) -> StorageResult<Vec<RowId>> {
        let mut rows = self
            .cursor(&StringQuery::Substring(needle.to_string()))?
            .rows()?;
        rows.sort_unstable();
        Ok(rows)
    }
}

/// The entries a trie stores a word as, each made only when taken: the word
/// itself, or every suffix of it (the empty word has one, itself).  `nth`
/// skips suffixes without making them.
pub(crate) struct Suffixes<'w> {
    word: &'w str,
    next: usize,
    end: usize,
}

impl<'w> Suffixes<'w> {
    /// The whole `word` only, or with `all` each of its suffixes.
    pub(crate) fn of(word: &'w str, all: bool) -> Self {
        let end = if all { word.len().max(1) } else { 1 };
        Suffixes { word, next: 0, end }
    }
}

impl Iterator for Suffixes<'_> {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.nth(0)
    }

    fn nth(&mut self, n: usize) -> Option<String> {
        let start = self.next.saturating_add(n).min(self.end);
        self.next = (start + 1).min(self.end);
        (start < self.end).then(|| self.word[start..].to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgist_storage::BufferPool;

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
        assert_eq!(index.stats().unwrap().items, 5);
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
        assert_eq!(index.stats().unwrap().items, 4);
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
