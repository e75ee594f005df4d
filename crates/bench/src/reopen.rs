//! Reopen experiment: cold-open latency vs. rebuild-from-scratch.
//!
//! The paper's setting presumes a persistent DBMS: an SP-GiST index
//! survives restarts like any PostgreSQL relation, and nobody re-inserts
//! 32 M keys after every backend restart.  With the durable catalog
//! (`Database::create` / `close` / `open`) that tradeoff is finally
//! measurable here: this experiment builds a word table with a trie index,
//! closes it, and compares
//!
//! * **reopen** — `Database::open` on the closed file (catalog chain + tree
//!   meta pages; zero rebuild scans), and
//! * **rebuild** — recreating the table and index from raw data by
//!   re-inserting every row,
//!
//! reporting wall-clock time, the physical page reads each path performs,
//! and the first-query latency after each (the reopen path pays its data
//! page faults lazily, on first touch — the honest cost of a cold cache).

use std::path::PathBuf;
use std::time::Instant;

use spgist_catalog::{Database, IndexSpec, KeyType, Predicate};
use spgist_core::RowId;
use spgist_datagen::words;

/// One row of the reopen experiment.
#[derive(Debug, Clone)]
pub struct ReopenRow {
    /// Number of rows in the table.
    pub rows: usize,
    /// Pages in the database file after the clean close.
    pub file_pages: u32,
    /// Wall-clock milliseconds to build the table + index from scratch.
    pub rebuild_ms: f64,
    /// Wall-clock milliseconds for `Database::open` on the closed file.
    pub open_ms: f64,
    /// Physical page reads performed by the open (catalog + meta only).
    pub open_reads: u64,
    /// Pool hit rate over the open plus the cold first query, in `[0, 1]`.
    pub cold_hit_rate: f64,
    /// First-query latency after the cold open, milliseconds.
    pub first_query_ms: f64,
    /// First-query latency on the freshly rebuilt (warm) database,
    /// milliseconds.
    pub warm_query_ms: f64,
    /// Rows the probe query returned (work checksum; identical on both
    /// paths).
    pub query_rows: usize,
}

fn scratch_path(rows: usize) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("spgist-bench-reopen-{}-{rows}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join("db.pages")
}

fn build(path: &PathBuf, data: &[String]) -> Database {
    let mut db = Database::create(path).expect("create database");
    db.create_table("words", KeyType::Varchar)
        .expect("create table");
    let table = db.table_handle("words").expect("table handle");
    for (row, w) in data.iter().enumerate() {
        let got = table.insert(w.as_str()).expect("insert");
        assert_eq!(got, row as RowId);
    }
    drop(table);
    db.create_index("words", "words_trie", IndexSpec::Trie)
        .expect("create index");
    db
}

/// Runs one close/reopen cycle per size in `sizes` and reports the
/// reopen-vs-rebuild comparison.
pub fn run_reopen_experiment(sizes: &[usize], seed: u64) -> Vec<ReopenRow> {
    sizes
        .iter()
        .map(|&rows| {
            let data = words(rows, seed);
            let path = scratch_path(rows);
            let probe = Predicate::str_prefix(&data[rows / 2][..2.min(data[rows / 2].len())]);

            // Build from scratch (this *is* the rebuild measurement) and
            // measure a warm first query before closing.
            let rebuild_started = Instant::now();
            let db = build(&path, &data);
            let rebuild_ms = rebuild_started.elapsed().as_secs_f64() * 1e3;
            let warm_started = Instant::now();
            let query_rows = db
                .query("words", &probe)
                .expect("warm query")
                .rows()
                .expect("warm rows")
                .len();
            let warm_query_ms = warm_started.elapsed().as_secs_f64() * 1e3;
            db.close().expect("clean close");

            // Cold open.
            let open_started = Instant::now();
            let db = Database::open(&path).expect("reopen");
            let open_ms = open_started.elapsed().as_secs_f64() * 1e3;
            let open_reads = db.pool().stats().physical_reads;
            let file_pages = db.pool().page_count();

            // First query on the cold cache: pays the lazy page faults.
            let first_started = Instant::now();
            let cold_rows = db
                .query("words", &probe)
                .expect("cold query")
                .rows()
                .expect("cold rows")
                .len();
            let first_query_ms = first_started.elapsed().as_secs_f64() * 1e3;
            assert_eq!(cold_rows, query_rows, "reopen must not change answers");
            let cold_hit_rate = db.pool().hit_rate();

            drop(db);
            let _ = std::fs::remove_dir_all(path.parent().expect("scratch dir"));
            ReopenRow {
                rows,
                file_pages,
                rebuild_ms,
                open_ms,
                open_reads,
                cold_hit_rate,
                first_query_ms,
                warm_query_ms,
                query_rows,
            }
        })
        .collect()
}
