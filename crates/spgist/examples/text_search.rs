//! Text search workload: the trie against the B⁺-tree baseline, plus the
//! suffix tree for substring queries — a miniature of the paper's Figures
//! 6, 7 and 16.
//!
//! ```text
//! cargo run --release --example text_search
//! ```

use std::time::Instant;

use spgist::datagen::{words, QueryWorkload};
use spgist::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = words(20_000, 7);
    println!(
        "indexing {} words (uniform length 1..=15, letters a..z)",
        data.len()
    );

    let trie = TrieIndex::create(BufferPool::in_memory())?;
    let mut btree = BPlusTree::create(BufferPool::in_memory())?;
    let suffix = SuffixTreeIndex::create(BufferPool::in_memory())?;
    for (row, word) in data.iter().enumerate() {
        trie.insert(word.clone(), row as RowId)?;
        btree.insert_str(word, row as RowId)?;
        suffix.insert(word.clone(), row as RowId)?;
    }

    // Regular-expression search: the trie uses every literal character, the
    // B+-tree only the prefix before the first wildcard.
    let patterns = QueryWorkload::regexes(&data, 200, 2, 3);
    let start = Instant::now();
    let trie_hits: usize = patterns.iter().map(|p| trie.regex(p).unwrap().len()).sum();
    let trie_time = start.elapsed();
    let start = Instant::now();
    let btree_hits: usize = patterns
        .iter()
        .map(|p| btree.regex_search(p).unwrap().len())
        .sum();
    let btree_time = start.elapsed();
    assert_eq!(
        trie_hits, btree_hits,
        "both access paths agree on the result"
    );
    println!(
        "regex '?': trie {:.1} ms vs B+-tree {:.1} ms ({} hits, {:.0}x)",
        trie_time.as_secs_f64() * 1e3,
        btree_time.as_secs_f64() * 1e3,
        trie_hits,
        btree_time.as_secs_f64() / trie_time.as_secs_f64()
    );

    // Substring search: only the suffix tree can prune; everyone else scans.
    let needles = QueryWorkload::substrings(&data, 50, 4, 11);
    let start = Instant::now();
    let sub_hits: usize = needles
        .iter()
        .map(|n| suffix.substring(n).unwrap().len())
        .sum();
    let suffix_time = start.elapsed();
    let start = Instant::now();
    let scan_hits: usize = needles
        .iter()
        .map(|n| data.iter().filter(|w| w.contains(n.as_str())).count())
        .sum();
    let scan_time = start.elapsed();
    assert_eq!(sub_hits, scan_hits);
    println!(
        "substring: suffix tree {:.1} ms vs scan {:.1} ms ({} hits)",
        suffix_time.as_secs_f64() * 1e3,
        scan_time.as_secs_f64() * 1e3,
        sub_hits
    );
    Ok(())
}
