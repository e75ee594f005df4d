//! The suffix tree keeps in each leaf only the rest of a suffix — the bytes
//! its root-to-leaf path has not spelled — and must answer exactly like a
//! trie that keeps every suffix whole.
//!
//! The reference is a plain `TrieIndex` (whole keys) holding the same
//! `(suffix, row)` pairs.  Both suffix-tree loading paths (bulk build and
//! insert loop) go through churn — deletes of a third of the words, then
//! fresh inserts — and a durable close/reopen, and after each step every
//! `StringQuery` kind the suffix index accepts must report the same row
//! set as the reference.  The word list includes what lands under the
//! terminator partition (words that are prefixes of other words, so some
//! suffix ends exactly where a path does), one-letter words and the empty
//! word.

use std::sync::Arc;

use spgist::datagen::{words, QueryWorkload};
use spgist::indexes::SpGistBacked;
use spgist::prelude::*;

const SEED: u64 = 0x5afe_7e57;

/// Whether the class of `ops` stores a value as several entries, as the
/// suffix tree stores a word as its suffixes, each leaf keeping the rest.
fn multi_entry<O: SpGistOps>(_: &O) -> bool {
    O::MULTI_ENTRY
}

/// Every suffix of `word` (the empty word has one, itself), with `row`.
fn suffixes(word: &str, row: RowId) -> Vec<(String, RowId)> {
    (0..word.len().max(1))
        .map(|start| (word[start..].to_string(), row))
        .collect()
}

/// Random words, then words that end where longer ones go on, one-letter
/// words and the empty word.
fn vocabulary() -> Vec<String> {
    let mut ws = words(1_500, SEED);
    for family in ["car", "ban", "qu", "x"] {
        for tail in ["", "t", "ton", "tons", "a", "ana", "anas"] {
            ws.push(format!("{family}{tail}"));
        }
    }
    ws.extend(["a", "b", "z", "q", "", "aa", "aaa", "aaaa"].map(String::from));
    ws
}

/// Every query kind the suffix index accepts, over `ws`.
fn queries(ws: &[String]) -> Vec<StringQuery> {
    let mut qs = Vec::new();
    for len in [1, 2, 3, 5] {
        let subs = QueryWorkload::substrings(ws, 12, len, SEED + len as u64);
        qs.extend(subs.iter().cloned().map(StringQuery::Substring));
        qs.extend(subs.iter().cloned().map(StringQuery::Prefix));
        qs.extend(subs.into_iter().map(StringQuery::Equals));
    }
    for pattern in QueryWorkload::regexes(ws, 12, 2, SEED) {
        qs.push(StringQuery::Regex(pattern.clone()));
        // The pattern's tail: a suffix of some word matches it.
        qs.push(StringQuery::Regex(pattern[pattern.len() / 2..].to_string()));
    }
    let fixed = [
        "", "a", "aa", "aaaa", "car", "cart", "ton", "t", "s", "q", "qu", "x", "zzzz",
    ];
    for s in fixed.map(String::from) {
        qs.push(StringQuery::Substring(s.clone()));
        qs.push(StringQuery::Prefix(s.clone()));
        qs.push(StringQuery::Equals(s.clone()));
    }
    qs.extend(["?", "??", "?a", "c?r", "?on", "?a?a"].map(|r| StringQuery::Regex(r.into())));
    qs.push(StringQuery::Nearest("car".into()));
    qs
}

fn rows<I: SpIndex<Query = StringQuery>>(index: &I, query: &StringQuery) -> Vec<RowId> {
    let mut rows = index.cursor(query).unwrap().rows().unwrap();
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// Both suffix trees answer every query with the reference's row set.
fn assert_agree(step: &str, trees: &[&SuffixTreeIndex], reference: &TrieIndex, qs: &[StringQuery]) {
    let mut matched = 0;
    for query in qs {
        let expected = rows(reference, query);
        matched += expected.len();
        for (i, tree) in trees.iter().enumerate() {
            assert_eq!(rows(*tree, query), expected, "{step}, tree {i}: {query:?}");
        }
    }
    assert!(matched > 1_000, "{step}: the queries match something");
}

#[test]
fn rest_leaves_answer_like_whole_suffixes_through_churn_and_reopen() {
    let ws = vocabulary();
    let items: Vec<(String, RowId)> = ws.iter().cloned().zip(0..).collect();
    let qs = queries(&ws);

    let dir = std::env::temp_dir().join(format!("spgist-suffix-rest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("suffix.pages");
    let pool = Arc::new(BufferPool::new(
        Arc::new(FilePager::create(&path).unwrap()),
        BufferPoolConfig {
            capacity: 512,
            ..Default::default()
        },
    ));
    let bulk = SuffixTreeIndex::create(Arc::clone(&pool)).unwrap();
    bulk.bulk_build(items.clone()).unwrap();
    let looped = SuffixTreeIndex::create(BufferPool::in_memory()).unwrap();
    for (word, row) in &items {
        looped.insert(word.clone(), *row).unwrap();
    }
    let reference = TrieIndex::create(BufferPool::in_memory()).unwrap();
    let all: Vec<_> = items.iter().flat_map(|(w, r)| suffixes(w, *r)).collect();
    reference.bulk_build(all.clone()).unwrap();
    assert!(multi_entry(bulk.backing().ops()));
    assert!(!multi_entry(reference.backing().ops()));
    assert_agree("loaded", &[&bulk, &looped], &reference, &qs);

    // What the rests save: the same suffixes in a tenth fewer pages at
    // least (16 against 19 for this vocabulary, whose words are short).
    let (rest_pages, whole_pages) = (
        bulk.stats().unwrap().pages,
        reference.stats().unwrap().pages,
    );
    assert!(
        rest_pages * 10 < whole_pages * 9,
        "rests {rest_pages} pages, whole suffixes {whole_pages}"
    );

    // Churn: every third word goes, from all three; then new rows arrive,
    // among them words already present and the awkward ones again.
    for (word, row) in items.iter().step_by(3) {
        assert!(bulk.delete(word, *row).unwrap(), "bulk: {word:?}");
        assert!(looped.delete(word, *row).unwrap(), "looped: {word:?}");
        for (suffix, row) in suffixes(word, *row) {
            assert!(reference.delete(&suffix, row).unwrap());
        }
    }
    let first = items.len() as RowId;
    let fresh: Vec<(String, RowId)> = ws
        .iter()
        .rev()
        .step_by(5)
        .chain(&ws[ws.len() - 36..])
        .cloned()
        .zip(first..)
        .collect();
    for (word, row) in &fresh {
        bulk.insert(word.clone(), *row).unwrap();
        looped.insert(word.clone(), *row).unwrap();
        for (suffix, row) in suffixes(word, *row) {
            reference.insert(suffix, row).unwrap();
        }
    }
    assert_eq!(bulk.len(), looped.len());
    assert_agree("churned", &[&bulk, &looped], &reference, &qs);

    // A reopen restores the mode from the class, not from the file.
    let identity = (
        bulk.config(),
        bulk.meta_page(),
        bulk.owned_pages(),
        bulk.len(),
    );
    pool.flush_all().unwrap();
    drop(bulk);
    drop(pool);
    let pool = Arc::new(BufferPool::new(
        Arc::new(FilePager::open(&path).unwrap()),
        BufferPoolConfig {
            capacity: 512,
            ..Default::default()
        },
    ));
    let (config, meta, pages, len) = identity;
    let ops = SuffixOps::with_config(config);
    let reopened = SuffixTreeIndex::open_with_ops(pool, ops, meta, pages).unwrap();
    assert_eq!(reopened.len(), len);
    assert!(multi_entry(reopened.backing().ops()));
    assert_agree("reopened", &[&reopened, &looped], &reference, &qs);
    // Deletes find their suffixes by the rest too.
    for (word, row) in fresh.iter().step_by(2) {
        assert!(reopened.delete(word, *row).unwrap(), "reopened: {word:?}");
        assert!(looped.delete(word, *row).unwrap());
        for (suffix, row) in suffixes(word, *row) {
            assert!(reference.delete(&suffix, row).unwrap());
        }
    }
    assert_agree(
        "reopened and churned",
        &[&reopened, &looped],
        &reference,
        &qs,
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
