//! WAL commit-throughput experiment: what group commit amortizes.
//!
//! Every acknowledged DML statement waits for its log record to be
//! durable, so commit throughput is bounded by how many commits each
//! `fsync` amortizes.  This experiment drives 1→N writer threads inserting
//! into one table: writers submit and block on their LSN while a single
//! flusher thread batches everything queued behind one `fsync`.
//!
//! With one writer every commit pays its own sync (there is nobody to
//! share it with); as writers pile up, commits-per-sync climbs and
//! throughput follows.  The rows carry the measured sync counts so the
//! mechanism — not just the wall clock — is visible in the output.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use spgist_catalog::{Database, KeyType};

use crate::stats::{mean_ms, p99_ms};

/// One row of the commit-throughput experiment: `threads` writers.
#[derive(Debug, Clone)]
pub struct WalRow {
    /// Number of concurrent writer threads.
    pub threads: usize,
    /// Total commits (acknowledged inserts) across all threads.
    pub commits: usize,
    /// Wall-clock time for the whole workload, milliseconds.
    pub elapsed_ms: f64,
    /// Aggregate commit throughput, commits per second.
    pub throughput_cps: f64,
    /// Mean per-commit latency, milliseconds.
    pub mean_ms: f64,
    /// 99th-percentile per-commit latency, milliseconds.
    pub p99_ms: f64,
    /// Log `fsync` calls spent on the workload.
    pub syncs: u64,
    /// Commits amortized per `fsync` — the group-commit batching factor.
    pub commits_per_sync: f64,
}

fn scratch_dir(threads: usize) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("spgist-bench-wal-{threads}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    dir
}

/// Runs `commits_per_thread` acknowledged inserts on each of `threads`
/// writer threads against a fresh durable database, returning the
/// measured row.
fn run_one(threads: usize, commits_per_thread: usize) -> WalRow {
    let dir = scratch_dir(threads);
    let path = dir.join("db.pages");
    let mut db = Database::create(&path).expect("create bench database");
    db.create_table("commits", KeyType::Varchar)
        .expect("create table");

    let syncs_before = db.wal().expect("durable db has a wal").sync_count();
    let started = Instant::now();
    let per_thread: Vec<Vec<Duration>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let table = db.table_handle("commits").expect("table handle");
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(commits_per_thread);
                    for i in 0..commits_per_thread {
                        let begun = Instant::now();
                        table
                            .insert(format!("w{t:02}-{i:06}"))
                            .expect("acknowledged insert");
                        latencies.push(begun.elapsed());
                    }
                    latencies
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();
    let syncs = db.wal().expect("wal").sync_count() - syncs_before;

    let mut latencies: Vec<Duration> = per_thread.into_iter().flatten().collect();
    let commits = latencies.len();
    db.close().expect("close bench database");
    let _ = std::fs::remove_dir_all(&dir);

    let elapsed_ms = elapsed.as_secs_f64() * 1e3;
    WalRow {
        threads,
        commits,
        elapsed_ms,
        throughput_cps: commits as f64 / elapsed.as_secs_f64().max(1e-9),
        mean_ms: mean_ms(&latencies),
        p99_ms: p99_ms(&mut latencies),
        syncs,
        commits_per_sync: commits as f64 / (syncs.max(1)) as f64,
    }
}

/// Runs the commit-throughput experiment: `commits_per_thread`
/// acknowledged inserts per writer at each thread count.
pub fn run_wal_experiment(thread_counts: &[usize], commits_per_thread: usize) -> Vec<WalRow> {
    thread_counts
        .iter()
        .map(|&threads| run_one(threads.max(1), commits_per_thread))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_experiment_measures_group_commit() {
        let rows = run_wal_experiment(&[1, 2], 25);
        assert_eq!(rows.len(), 2);
        for (row, threads) in rows.iter().zip([1, 2]) {
            assert_eq!(row.threads, threads);
            assert_eq!(row.commits, threads * 25);
            assert!(row.syncs >= 1 && row.syncs <= row.commits as u64);
            assert!(row.commits_per_sync >= 1.0);
            assert!(row.throughput_cps > 0.0);
        }
    }
}
