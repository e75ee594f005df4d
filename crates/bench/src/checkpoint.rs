//! Checkpoint experiment: incremental checkpoints versus the full-rewrite
//! baseline.
//!
//! The durable catalog (SPGC v3) stores each table's row and heap
//! directories as fixed-size chunked segments and tracks which chunks DML
//! touched, so `checkpoint()` rewrites only the root, mutated tables'
//! metadata, and the dirty chunks.  This experiment measures what that
//! buys: for each database size, a `points` table (with a kd-tree index)
//! is bulk-loaded, folded into a baseline checkpoint, and then a sweep of
//! *mutation fractions* (0.1% – 100% of the table's row chunks) runs two
//! checkpoints per fraction:
//!
//! * **incremental** — the default `checkpoint()`, with a concurrent
//!   writer hammering a second table so the quiesce window shows up as a
//!   writer stall p99;
//! * **full** — `checkpoint_full()`, which marks every table fully dirty
//!   first: the pre-incremental behaviour (rewrite the whole catalog), on
//!   an identical mutation load.
//!
//! The headline column is `io_ratio_vs_full`: total checkpoint I/O bytes
//! (journal + catalog + flushed data pages) of the full rewrite divided by
//! the incremental checkpoint's.  The paper's realization argument is that
//! index maintenance must not cost more than the work done since the last
//! maintenance — at 1 M rows with ≤ 1% mutated the incremental path must
//! do ≥ 10× less I/O (asserted by CI on the emitted JSON).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use spgist_catalog::durable::ROWS_PER_CHUNK;
use spgist_catalog::{Database, IndexSpec, KeyType};
use spgist_datagen::points;
use spgist_storage::PAGE_SIZE;

use crate::stats::{p99_ms, timed};

/// Mutation fractions swept, in percent of the table's row chunks.
pub const MUTATION_FRACTIONS_PCT: [f64; 4] = [0.1, 1.0, 10.0, 100.0];

/// How many rows each `insert_many` batch of the bulk load carries.
const LOAD_BATCH: usize = 10_000;

/// One measured checkpoint: a `(rows, fraction, mode)` combination.
#[derive(Debug, Clone)]
pub struct CheckpointRow {
    /// Rows in the `points` table.
    pub rows: usize,
    /// Fraction of the table's row chunks mutated before the checkpoint,
    /// in percent.
    pub pct_mutated: f64,
    /// Row chunks actually mutated (≥ 1).
    pub chunks_mutated: usize,
    /// `incremental` (plain `checkpoint()`) or `full` (`checkpoint_full()`).
    pub mode: &'static str,
    /// Wall-clock milliseconds for the checkpoint call.
    pub wall_ms: f64,
    /// Catalog chunks rewritten by this checkpoint.
    pub chunks_written: u64,
    /// Catalog chunks skipped as unchanged.
    pub chunks_skipped: u64,
    /// Catalog content bytes written.
    pub catalog_bytes: u64,
    /// Pre-image journal bytes written.
    pub journal_bytes: u64,
    /// Dirty data pages flushed.
    pub data_pages_flushed: u64,
    /// Microseconds the checkpoint held every table's DML lock.
    pub quiesce_us: f64,
    /// 99th-percentile latency (µs) of a concurrent writer's inserts into
    /// a *different* table while the checkpoint ran (0 for `full` mode,
    /// which runs without the writer).
    pub stall_p99_us: f64,
    /// Total checkpoint I/O: journal + catalog + flushed data pages.
    pub io_bytes: u64,
    /// `full` io_bytes ÷ this row's io_bytes (1.0 for the full row itself).
    pub io_ratio_vs_full: f64,
}

/// Evenly spaced chunk indices: `count` chunks out of `chunk_count`.
fn spaced_chunks(chunk_count: usize, count: usize) -> Vec<usize> {
    let count = count.clamp(1, chunk_count);
    (0..count).map(|i| i * chunk_count / count).collect()
}

/// Dirties the selected row chunks of `table` with one delete each.
/// `pass` picks a distinct in-chunk offset per call so repeated passes
/// always find a live row to delete.
fn mutate_chunks(db: &Database, table: &str, chunks: &[usize], rows: usize, pass: u64) {
    let handle = db.table_handle(table).expect("table exists");
    for &chunk in chunks {
        let row = (chunk as u64 * ROWS_PER_CHUNK + pass).min(rows as u64 - 1);
        handle.delete(row).expect("delete row");
    }
}

/// Runs the fraction sweep for one database size.  `with_index` controls
/// whether the points table carries a kd-tree (the experiment does; the
/// fast unit test skips it).
fn run_one_size(n: usize, seed: u64, with_index: bool) -> Vec<CheckpointRow> {
    let dir = std::env::temp_dir().join(format!("spgist-ckpt-bench-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let path = dir.join("db.pages");

    let mut db = Database::create(&path).expect("create database");
    db.create_table("points", KeyType::Point)
        .expect("create points");
    if with_index {
        db.create_index("points", "points_kd", IndexSpec::KdTree)
            .expect("create kd-tree");
    }
    db.create_table("side", KeyType::Varchar)
        .expect("create side");

    let data = points(n, seed);
    {
        let handle = db.table_handle("points").expect("points handle");
        for batch in data.chunks(LOAD_BATCH) {
            handle
                .insert_many(batch.iter().copied())
                .expect("bulk load batch");
        }
    }
    drop(data);
    // Fold the load into the baseline image; everything after this is the
    // cost of checkpointing *mutations*, not the initial load.
    db.checkpoint().expect("baseline checkpoint");

    let chunk_count = n.div_ceil(ROWS_PER_CHUNK as usize);
    let mut rows_out = Vec::new();

    for (pass, &pct) in MUTATION_FRACTIONS_PCT.iter().enumerate() {
        let target = ((pct / 100.0) * chunk_count as f64).ceil() as usize;
        let chunks = spaced_chunks(chunk_count, target);

        // --- incremental: mutate, checkpoint under a concurrent writer ---
        mutate_chunks(&db, "points", &chunks, n, 2 * pass as u64);
        let before = db.checkpoint_stats();
        let stop = AtomicBool::new(false);
        let side = db.table_handle("side").expect("side handle");
        let (wall, mut stalls) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut latencies = Vec::new();
                let mut i = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let started = Instant::now();
                    side.insert(format!("s{i:012}")).expect("side insert");
                    latencies.push(started.elapsed());
                    i += 1;
                }
                latencies
            });
            let (_, wall) = timed(|| db.checkpoint().expect("incremental checkpoint"));
            stop.store(true, Ordering::Release);
            (wall, writer.join().expect("writer thread"))
        });
        let incr = db.checkpoint_stats().delta_since(&before);
        let incr_io =
            incr.journal_bytes + incr.catalog_bytes + incr.data_pages_flushed * PAGE_SIZE as u64;
        rows_out.push(CheckpointRow {
            rows: n,
            pct_mutated: pct,
            chunks_mutated: chunks.len(),
            mode: "incremental",
            wall_ms: wall.as_secs_f64() * 1e3,
            chunks_written: incr.chunks_written,
            chunks_skipped: incr.chunks_skipped,
            catalog_bytes: incr.catalog_bytes,
            journal_bytes: incr.journal_bytes,
            data_pages_flushed: incr.data_pages_flushed,
            quiesce_us: incr.quiesce_nanos as f64 / 1e3,
            stall_p99_us: p99_ms(&mut stalls) * 1e3,
            io_bytes: incr_io,
            io_ratio_vs_full: 0.0, // patched below once the full row exists
        });

        // --- full baseline: identical mutation load, whole-catalog rewrite ---
        mutate_chunks(&db, "points", &chunks, n, 2 * pass as u64 + 1);
        let before = db.checkpoint_stats();
        let (_, wall) = timed(|| db.checkpoint_full().expect("full checkpoint"));
        let full = db.checkpoint_stats().delta_since(&before);
        let full_io =
            full.journal_bytes + full.catalog_bytes + full.data_pages_flushed * PAGE_SIZE as u64;
        rows_out.push(CheckpointRow {
            rows: n,
            pct_mutated: pct,
            chunks_mutated: chunks.len(),
            mode: "full",
            wall_ms: wall.as_secs_f64() * 1e3,
            chunks_written: full.chunks_written,
            chunks_skipped: full.chunks_skipped,
            catalog_bytes: full.catalog_bytes,
            journal_bytes: full.journal_bytes,
            data_pages_flushed: full.data_pages_flushed,
            quiesce_us: full.quiesce_nanos as f64 / 1e3,
            stall_p99_us: 0.0,
            io_bytes: full_io,
            io_ratio_vs_full: 1.0,
        });
        let last = rows_out.len() - 2;
        rows_out[last].io_ratio_vs_full = full_io as f64 / rows_out[last].io_bytes.max(1) as f64;
    }

    db.close().expect("close database");
    let _ = std::fs::remove_dir_all(&dir);
    rows_out
}

/// Runs the full size × mutation-fraction sweep on a file-backed database.
pub fn run_checkpoint_experiment(sizes: &[usize], seed: u64) -> Vec<CheckpointRow> {
    sizes
        .iter()
        .flat_map(|&n| run_one_size(n, seed, true))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spaced_chunks_cover_the_requested_count() {
        assert_eq!(spaced_chunks(10, 1), vec![0]);
        assert_eq!(spaced_chunks(10, 2), vec![0, 5]);
        assert_eq!(spaced_chunks(10, 100).len(), 10);
        let spread = spaced_chunks(1000, 10);
        assert_eq!(spread.len(), 10);
        assert!(spread.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn incremental_checkpoint_beats_full_rewrite_by_10x_at_one_percent() {
        // 60k rows → 60 row chunks; 1% → one dirty chunk.  The acceptance
        // bar (≥ 10× less I/O at ≤ 1% mutated) must already hold at this
        // CI-friendly size — the gap only widens with scale.
        let rows = run_one_size(60_000, 0xC0FFEE, false);
        let one_pct_incr = rows
            .iter()
            .find(|r| r.pct_mutated == 1.0 && r.mode == "incremental")
            .expect("1% incremental row");
        let one_pct_full = rows
            .iter()
            .find(|r| r.pct_mutated == 1.0 && r.mode == "full")
            .expect("1% full row");
        assert_eq!(one_pct_incr.chunks_mutated, 1);
        assert!(
            one_pct_incr.io_ratio_vs_full >= 10.0,
            "incremental checkpoint I/O must be ≥10x smaller than the full \
             rewrite at 1% mutated: incr {} bytes vs full {} bytes (ratio {:.1})",
            one_pct_incr.io_bytes,
            one_pct_full.io_bytes,
            one_pct_incr.io_ratio_vs_full
        );
        // The 100% sweep converges: mutating every chunk makes incremental
        // do (roughly) the full rewrite's work.
        let all_incr = rows
            .iter()
            .find(|r| r.pct_mutated == 100.0 && r.mode == "incremental")
            .expect("100% incremental row");
        assert!(
            all_incr.io_ratio_vs_full < 4.0,
            "at 100% mutated the incremental path should approach the full \
             rewrite, got ratio {:.1}",
            all_incr.io_ratio_vs_full
        );
        for r in &rows {
            assert!(r.chunks_written > 0, "{r:?} wrote no chunks");
            assert!(r.io_bytes > 0, "{r:?} measured no I/O");
        }
    }
}
