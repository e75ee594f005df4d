//! Quickstart: the executable query layer end to end — create a table,
//! build SP-GiST indexes on it, and let the catalog + planner route each
//! operator to the right physical index (or the heap), streaming results
//! through a cursor.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use spgist::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A database bundles a buffer pool, the paper's catalog registrations
    // (access methods + operator classes) and named tables.
    let mut db = Database::in_memory();
    db.create_table("words", KeyType::Varchar)?;

    // The words of the paper's Figure 2, padded with a synthetic vocabulary
    // large enough that selective predicates favour the indexes over a
    // sequential scan (on a handful of rows the heap always wins — the
    // planner is honest about that).
    let table = db.table_mut("words").unwrap();
    for word in [
        "blue", "bit", "take", "top", "zero", "space", "spade", "star",
    ] {
        table.insert(word)?;
    }
    for word in spgist::datagen::words(6_000, 42) {
        table.insert(word)?;
    }

    // CREATE INDEX: the planner's statistics are derived automatically from
    // the built trees.
    table.create_index("words_trie", IndexSpec::Trie)?;
    table.create_index("words_suffix", IndexSpec::SuffixTree)?;

    // Every engine counter in one snapshot; the delta around the queries
    // below is what they cost (counters subtract, gauges keep their value).
    let before = db.metrics();

    // One entry point, four operators; the catalog decides the access path.
    for (label, predicate) in [
        ("=  'space'", Predicate::str_equals("space")),
        ("#= 'sp'   ", Predicate::str_prefix("sp")),
        ("?= 't??'  ", Predicate::str_regex("t??")),
        ("@= 'pa'   ", Predicate::str_substring("pa")),
    ] {
        let mut cursor = db.query("words", &predicate)?;
        let source = match cursor.source() {
            ScanSource::Heap => "seq scan".to_string(),
            ScanSource::Index { name } => format!("index {name}"),
            other => format!("{other:?}"),
        };
        // The cursor streams: pull the first few matches lazily, then count
        // the rest without materializing them.
        let mut preview = Vec::new();
        for item in cursor.by_ref().take(4) {
            let (row, datum) = item?;
            match datum {
                Datum::Text(w) => preview.push(format!("{w}({row})")),
                other => preview.push(format!("{other:?}")),
            }
        }
        let remaining = cursor.count();
        println!("{label} -> via {source:<18} -> {preview:?} … and {remaining} more");
    }

    // Predicates compose: `(prefix AND regex) OR equals`, LIMIT pushed into
    // the plan — index scans + residual filter, streaming at most 5 rows.
    let composed = Predicate::str_prefix("sp")
        .and(Predicate::str_regex("spa??"))
        .or(Predicate::str_equals("space"))
        .limit(5);
    let cursor = db.query("words", composed)?;
    println!("(#='sp' AND ?='spa??') OR ='space' LIMIT 5");
    println!("  plan: {:?}", cursor.path());
    for item in cursor {
        let (row, datum) = item?;
        println!("  row {row}: {datum:?}");
    }
    // What the queries above cost, one `name value` line per metric.
    print!("{}", db.metrics().delta_since(&before));

    // The same indexes are usable directly through the uniform SpIndex
    // trait — `insert / delete / execute / cursor / len / stats / repack`
    // on every index kind.
    let trie = TrieIndex::create(BufferPool::in_memory())?;
    for (row, word) in ["space", "spade", "spate"].iter().enumerate() {
        trie.insert(word.to_string(), row as RowId)?;
    }
    let streamed: Vec<(String, RowId)> = trie
        .cursor(&StringQuery::Prefix("spa".into()))?
        .collect::<Result<_, _>>()?;
    println!("SpIndex cursor over trie: {streamed:?}");

    let stats = trie.stats()?;
    println!(
        "trie stats: {} items, {} nodes over {} pages, node height {}, page height {}",
        stats.items,
        stats.total_nodes(),
        stats.pages,
        stats.max_node_height,
        stats.max_page_height
    );
    Ok(())
}
