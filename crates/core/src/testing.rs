//! A miniature SP-GiST instantiation used by this crate's unit tests and doc
//! examples.
//!
//! [`DigitTrieOps`] indexes `u32` keys by the decimal digits of their value —
//! a dictionary trie over the alphabet `0..=9` with an explicit end-of-key
//! partition, `NodeShrink = OmitEmpty`, and a small bucket size so that
//! splits are exercised by tiny datasets.  [`DigitSuffixOps`] stores a
//! number under each of its decimal suffixes, the multi-entry path without
//! strings.  Both are intentionally simple; the production-grade
//! instantiations live in the `spgist-indexes` crate.

use spgist_storage::StorageResult;

use crate::config::{NodeShrink, PathShrink, SpGistConfig};
use crate::ops::{Choose, PickSplit, SpGistOps};
use crate::RowId;

/// Partition predicate of the digit trie: a decimal digit, or
/// [`DIGIT_END`] marking "the key ends at this level".
pub const DIGIT_END: u8 = 10;

/// SP-GiST external methods for a dictionary trie over the decimal digits of
/// `u32` keys, storing each number as itself ([`DigitTrieOps`]) or, with
/// `SUFFIXES`, as each of its decimal suffixes ([`DigitSuffixOps`]).
#[derive(Debug, Clone)]
pub struct Digits<const SUFFIXES: bool> {
    config: SpGistConfig,
}

/// The digit trie.
pub type DigitTrieOps = Digits<false>;

/// The digit trie storing a number as each of its decimal suffixes
/// ([`SpGistOps::MULTI_ENTRY`]): 4242 as 4242, 242, 42 and 2, so a query for
/// 42 finds every number ending in 42, each row once.
pub type DigitSuffixOps = Digits<true>;

impl<const SUFFIXES: bool> Default for Digits<SUFFIXES> {
    fn default() -> Self {
        Digits {
            config: SpGistConfig {
                partitions: 11,
                bucket_size: 4,
                resolution: 12,
                path_shrink: PathShrink::NeverShrink,
                node_shrink: NodeShrink::OmitEmpty,
                split_once: false,
            },
        }
    }
}

impl<const SUFFIXES: bool> Digits<SUFFIXES> {
    fn digits(key: u32) -> Vec<u8> {
        key.to_string().bytes().map(|b| b - b'0').collect()
    }

    fn digit_at(key: u32, level: u32) -> u8 {
        let digits = Self::digits(key);
        digits.get(level as usize).copied().unwrap_or(DIGIT_END)
    }
}

impl<const SUFFIXES: bool> SpGistOps for Digits<SUFFIXES> {
    type Key = u32;
    type Prefix = u32;
    type Pred = u8;
    type Query = u32;
    type Context = ();
    const MULTI_ENTRY: bool = SUFFIXES;

    fn entries(&self, value: &u32) -> StorageResult<impl Iterator<Item = u32>> {
        let (value, digits) = (*value, Self::digits(*value).len() as u32);
        let shortest = if SUFFIXES { 1 } else { digits };
        Ok((shortest..=digits)
            .rev()
            .map(move |d| (u64::from(value) % 10u64.pow(d)) as u32))
    }

    fn config(&self) -> SpGistConfig {
        self.config
    }

    fn key_query(&self, key: &u32) -> u32 {
        *key
    }

    fn consistent(&self, _prefix: Option<&u32>, pred: &u8, query: &u32, level: u32) -> bool {
        *pred == Self::digit_at(*query, level)
    }

    fn leaf_consistent(&self, key: &u32, query: &u32, _level: u32) -> bool {
        key == query
    }

    fn choose(
        &self,
        _prefix: Option<&u32>,
        preds: &[u8],
        key: &u32,
        level: u32,
    ) -> Choose<u8, u32> {
        let digit = Self::digit_at(*key, level);
        match preds.iter().position(|p| *p == digit) {
            Some(idx) => Choose::Descend(idx),
            None => Choose::AddEntry(digit),
        }
    }

    fn picksplit(&self, items: &[(u32, RowId)], level: u32, _ctx: &()) -> PickSplit<u32, u8> {
        let mut partitions: Vec<(u8, Vec<usize>)> = Vec::new();
        for (idx, (key, _)) in items.iter().enumerate() {
            let digit = Self::digit_at(*key, level);
            match partitions.iter_mut().find(|(p, _)| *p == digit) {
                Some((_, list)) => list.push(idx),
                None => partitions.push((digit, vec![idx])),
            }
        }
        PickSplit {
            prefix: None,
            partitions,
        }
    }

    fn leaf_distance(&self, key: &u32, query: &u32) -> f64 {
        (f64::from(*key) - f64::from(*query)).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_extraction() {
        assert_eq!(DigitTrieOps::digit_at(123, 0), 1);
        assert_eq!(DigitTrieOps::digit_at(123, 1), 2);
        assert_eq!(DigitTrieOps::digit_at(123, 2), 3);
        assert_eq!(DigitTrieOps::digit_at(123, 3), DIGIT_END);
    }

    #[test]
    fn picksplit_groups_by_digit() {
        let ops = DigitTrieOps::default();
        let split = ops.picksplit(&[(10, 0), (11, 1), (20, 2), (2, 3)], 0, &());
        assert_eq!(split.partitions.len(), 2);
        let ones = split.partitions.iter().find(|(p, _)| *p == 1).unwrap();
        assert_eq!(ones.1, vec![0, 1]);
        let twos = split.partitions.iter().find(|(p, _)| *p == 2).unwrap();
        assert_eq!(twos.1, vec![2, 3]);
    }

    #[test]
    fn choose_adds_missing_partitions() {
        let ops = DigitTrieOps::default();
        assert_eq!(ops.choose(None, &[1, 2], &305, 0), Choose::AddEntry(3));
        assert_eq!(ops.choose(None, &[1, 3], &305, 0), Choose::Descend(1));
    }
}
