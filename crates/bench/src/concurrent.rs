//! Concurrent-access experiment: one shared index under multi-threaded
//! reader and writer load.
//!
//! The paper's setting is SP-GiST trees serving live PostgreSQL traffic,
//! where many backends read and write the same index at once.  This
//! experiment measures that directly on the shared-access `SpIndex`
//! surface: a kd-tree behind an `Arc`, readers running window queries
//! through epoch-pinned cursors, writers crabbing per-page latches.
//! Three workloads are reported:
//!
//! * **read scaling** — the same total query workload split across 1, 2, 4…
//!   reader threads; throughput should rise with the thread count on
//!   multi-core hardware because readers never contend;
//! * **mixed** — N writer threads inserting bursts while M reader threads
//!   query; reports per-side throughput and p99 latency, the numbers that
//!   show writers stalling readers (or not);
//! * **hot-writer read scaling** — the tentpole measurement: 1→8 reader
//!   threads while one writer inserts *continuously* for the whole window.
//!   Under the old one-RwLock-per-tree design the writer serialized every
//!   cursor and reader throughput stayed flat; with epoch-pinned reads it
//!   must scale.  Each row also carries the tree's latch/epoch counters
//!   (latch waits, pin durations, retired-page backlog) over the window.
//!
//! All workloads are deterministic (seeded); wall-clock numbers are
//! hardware-dependent as always, so the rows also carry the work counts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spgist_core::{ConcurrencyStats, RowId};
use spgist_datagen::{points, QueryWorkload};
use spgist_indexes::query::PointQuery;
use spgist_indexes::{KdTreeIndex, SpIndex};

use crate::experiments::experiment_pool;
use crate::stats::{mean_ms, p99_ms};

/// One row of the read-scaling experiment: the same query workload served
/// by `threads` reader threads.
#[derive(Debug, Clone)]
pub struct ReadScalingRow {
    /// Number of concurrent reader threads.
    pub threads: usize,
    /// Total queries executed across all threads.
    pub total_queries: usize,
    /// Total rows reported by all queries — a per-row work checksum.  It
    /// grows with the thread count (each thread runs its own seeded
    /// workload of `queries_per_thread` queries), so compare it across
    /// runs for the *same* thread count, not across rows.
    pub total_rows: u64,
    /// Wall-clock time for the whole workload, milliseconds.
    pub elapsed_ms: f64,
    /// Aggregate throughput in queries per second.
    pub throughput_qps: f64,
    /// Mean per-query latency, milliseconds.
    pub mean_ms: f64,
    /// 99th-percentile per-query latency, milliseconds.
    pub p99_ms: f64,
}

/// One row of the mixed reader/writer experiment.
#[derive(Debug, Clone)]
pub struct MixedRow {
    /// Number of concurrent reader threads.
    pub readers: usize,
    /// Number of concurrent writer threads.
    pub writers: usize,
    /// Queries executed across all readers.
    pub reads: usize,
    /// Items inserted across all writers.
    pub writes: usize,
    /// Wall-clock time for the whole workload, milliseconds.
    pub elapsed_ms: f64,
    /// Reader throughput, queries per second.
    pub read_qps: f64,
    /// Writer throughput, inserts per second.
    pub write_ips: f64,
    /// 99th-percentile query latency, milliseconds.
    pub read_p99_ms: f64,
    /// 99th-percentile insert latency, milliseconds.
    pub write_p99_ms: f64,
}

/// One row of the hot-writer read-scaling experiment: `threads` readers
/// querying while one writer inserts continuously.
#[derive(Debug, Clone)]
pub struct HotWriterRow {
    /// Number of concurrent reader threads (the writer is always 1).
    pub threads: usize,
    /// Queries executed across all readers.
    pub total_queries: usize,
    /// Total rows reported by all queries — a per-row work checksum.
    pub total_rows: u64,
    /// Inserts the continuous writer landed during the reader window.
    pub writer_inserts: usize,
    /// Wall-clock time for the whole workload, milliseconds.
    pub elapsed_ms: f64,
    /// Aggregate reader throughput in queries per second.
    pub throughput_qps: f64,
    /// Reader throughput relative to the 1-reader row of the same run.
    pub speedup: f64,
    /// Mean per-query latency, milliseconds.
    pub mean_ms: f64,
    /// 99th-percentile per-query latency, milliseconds.
    pub p99_ms: f64,
    /// Writer throughput, inserts per second.
    pub write_ips: f64,
    /// Latch/epoch counters accumulated by the tree over this row's window.
    pub concurrency: ConcurrencyStats,
}

/// Builds the shared kd-tree the concurrency workloads run against.
fn shared_kdtree(n_points: usize, seed: u64) -> Arc<KdTreeIndex> {
    let data = points(n_points, seed);
    let index = KdTreeIndex::create(experiment_pool()).expect("create kd-tree");
    for (i, p) in data.iter().enumerate() {
        index.insert(*p, i as RowId).expect("insert point");
    }
    Arc::new(index)
}

/// Runs the read-scaling workload: `queries_per_thread × threads` window
/// queries against a shared kd-tree over `n_points` points, once per entry
/// in `thread_counts`.
///
/// Every thread count serves a workload of the same *per-thread* size, so
/// the throughput column is comparable: perfect read scaling doubles QPS
/// when the thread count doubles.
pub fn run_read_scaling(
    n_points: usize,
    thread_counts: &[usize],
    queries_per_thread: usize,
    seed: u64,
) -> Vec<ReadScalingRow> {
    let index = shared_kdtree(n_points, seed);
    thread_counts
        .iter()
        .map(|&threads| {
            let threads = threads.max(1);
            let started = Instant::now();
            let per_thread: Vec<(u64, Vec<Duration>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let index = Arc::clone(&index);
                        scope.spawn(move || {
                            let windows = QueryWorkload::windows(
                                queries_per_thread,
                                5.0,
                                seed ^ (0xC0 + t as u64),
                            );
                            let mut rows = 0u64;
                            let mut latencies = Vec::with_capacity(windows.len());
                            for w in &windows {
                                let t0 = Instant::now();
                                let matched = index
                                    .cursor(&PointQuery::InRect(*w))
                                    .expect("window cursor")
                                    .rows()
                                    .expect("drain cursor");
                                latencies.push(t0.elapsed());
                                rows += matched.len() as u64;
                            }
                            (rows, latencies)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("reader thread panicked"))
                    .collect()
            });
            let elapsed = started.elapsed();
            let total_queries = threads * queries_per_thread;
            let total_rows = per_thread.iter().map(|(rows, _)| rows).sum();
            let mut latencies: Vec<Duration> =
                per_thread.into_iter().flat_map(|(_, lat)| lat).collect();
            ReadScalingRow {
                threads,
                total_queries,
                total_rows,
                elapsed_ms: elapsed.as_secs_f64() * 1e3,
                throughput_qps: total_queries as f64 / elapsed.as_secs_f64().max(1e-9),
                mean_ms: mean_ms(&latencies),
                p99_ms: p99_ms(&mut latencies),
            }
        })
        .collect()
}

/// Runs the hot-writer read-scaling workload: for each entry in
/// `thread_counts`, `queries_per_thread × threads` window queries run
/// against a shared kd-tree while **one writer inserts continuously** until
/// the last reader finishes.
///
/// Every thread count serves the same *per-thread* workload, so perfect
/// read scaling doubles QPS when the thread count doubles even though the
/// writer never pauses — the measurement the epoch-read design exists for.
/// The `speedup` column is each row's throughput over the 1-reader row;
/// each row also snapshots the tree's latch/epoch counters across its
/// window.
pub fn run_hot_writer_scaling(
    n_points: usize,
    thread_counts: &[usize],
    queries_per_thread: usize,
    seed: u64,
) -> Vec<HotWriterRow> {
    let index = shared_kdtree(n_points, seed);
    let mut rows: Vec<HotWriterRow> = Vec::with_capacity(thread_counts.len());
    for (writer_generation, &threads) in thread_counts.iter().enumerate() {
        let writer_generation = writer_generation as u64;
        let threads = threads.max(1);
        let stats_before = index.tree().concurrency_stats();
        let stop = AtomicBool::new(false);
        let started = Instant::now();
        let (per_thread, writer_inserts) = std::thread::scope(|scope| {
            let writer = {
                let index = Arc::clone(&index);
                let stop = &stop;
                let generation = writer_generation;
                scope.spawn(move || {
                    // Fresh keys arrive in small seeded chunks (generating
                    // them all upfront would delay the first insert past a
                    // short reader window); row ids are offset far past the
                    // preloaded range, per generation so rows never collide.
                    let base = (n_points as RowId + 1) * 1_000_003 * (generation + 1);
                    let mut chunk_seed = seed ^ (0xF0 + generation);
                    let mut landed = 0usize;
                    'window: loop {
                        let fresh = points(1_024, chunk_seed);
                        chunk_seed = chunk_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                        for p in &fresh {
                            // Always land at least one insert so every row
                            // really measures readers-under-writer.
                            if landed > 0 && stop.load(Ordering::Relaxed) {
                                break 'window;
                            }
                            index
                                .insert(*p, base + landed as RowId)
                                .expect("hot insert");
                            landed += 1;
                        }
                    }
                    landed
                })
            };
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let index = Arc::clone(&index);
                    scope.spawn(move || {
                        let windows = QueryWorkload::windows(
                            queries_per_thread,
                            5.0,
                            seed ^ (0xA0 + t as u64),
                        );
                        let mut rows = 0u64;
                        let mut latencies = Vec::with_capacity(windows.len());
                        for w in &windows {
                            let t0 = Instant::now();
                            let matched = index
                                .cursor(&PointQuery::InRect(*w))
                                .expect("window cursor")
                                .rows()
                                .expect("drain cursor");
                            latencies.push(t0.elapsed());
                            rows += matched.len() as u64;
                        }
                        (rows, latencies)
                    })
                })
                .collect();
            let per_thread: Vec<(u64, Vec<Duration>)> = handles
                .into_iter()
                .map(|h| h.join().expect("reader thread panicked"))
                .collect();
            stop.store(true, Ordering::Relaxed);
            (per_thread, writer.join().expect("writer thread panicked"))
        });
        let elapsed = started.elapsed();
        let total_queries = threads * queries_per_thread;
        let total_rows = per_thread.iter().map(|(rows, _)| rows).sum();
        let mut latencies: Vec<Duration> =
            per_thread.into_iter().flat_map(|(_, lat)| lat).collect();
        let throughput_qps = total_queries as f64 / elapsed.as_secs_f64().max(1e-9);
        let baseline = rows.first().map_or(throughput_qps, |r| r.throughput_qps);
        rows.push(HotWriterRow {
            threads,
            total_queries,
            total_rows,
            writer_inserts,
            elapsed_ms: elapsed.as_secs_f64() * 1e3,
            throughput_qps,
            speedup: throughput_qps / baseline.max(1e-9),
            mean_ms: mean_ms(&latencies),
            p99_ms: p99_ms(&mut latencies),
            write_ips: writer_inserts as f64 / elapsed.as_secs_f64().max(1e-9),
            concurrency: index.tree().concurrency_stats().delta_since(&stats_before),
        });
    }
    rows
}

/// Runs the mixed workload: `writers` threads each inserting
/// `inserts_per_writer` fresh points in bursts while `readers` threads each
/// run `queries_per_reader` window queries against the same kd-tree.
pub fn run_mixed_workload(
    n_points: usize,
    readers: usize,
    writers: usize,
    queries_per_reader: usize,
    inserts_per_writer: usize,
    seed: u64,
) -> MixedRow {
    let index = shared_kdtree(n_points, seed);
    let readers = readers.max(1);
    let started = Instant::now();
    let (read_latencies, write_latencies): (Vec<Vec<Duration>>, Vec<Vec<Duration>>) =
        std::thread::scope(|scope| {
            let read_handles: Vec<_> = (0..readers)
                .map(|t| {
                    let index = Arc::clone(&index);
                    scope.spawn(move || {
                        let windows = QueryWorkload::windows(
                            queries_per_reader,
                            5.0,
                            seed ^ (0xD0 + t as u64),
                        );
                        let mut latencies = Vec::with_capacity(windows.len());
                        for w in &windows {
                            let t0 = Instant::now();
                            index
                                .cursor(&PointQuery::InRect(*w))
                                .expect("window cursor")
                                .rows()
                                .expect("drain cursor");
                            latencies.push(t0.elapsed());
                        }
                        latencies
                    })
                })
                .collect();
            let write_handles: Vec<_> = (0..writers)
                .map(|t| {
                    let index = Arc::clone(&index);
                    scope.spawn(move || {
                        let fresh = points(inserts_per_writer, seed ^ (0xE0 + t as u64));
                        let base = (n_points * (t + 1)) as RowId * 1_000_003;
                        let mut latencies = Vec::with_capacity(fresh.len());
                        for (i, p) in fresh.iter().enumerate() {
                            let t0 = Instant::now();
                            index.insert(*p, base + i as RowId).expect("insert point");
                            latencies.push(t0.elapsed());
                        }
                        latencies
                    })
                })
                .collect();
            (
                read_handles
                    .into_iter()
                    .map(|h| h.join().expect("reader thread panicked"))
                    .collect(),
                write_handles
                    .into_iter()
                    .map(|h| h.join().expect("writer thread panicked"))
                    .collect(),
            )
        });
    let elapsed = started.elapsed();
    let mut reads: Vec<Duration> = read_latencies.into_iter().flatten().collect();
    let mut writes: Vec<Duration> = write_latencies.into_iter().flatten().collect();
    MixedRow {
        readers,
        writers,
        reads: reads.len(),
        writes: writes.len(),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        read_qps: reads.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        write_ips: writes.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        read_p99_ms: p99_ms(&mut reads),
        write_p99_ms: p99_ms(&mut writes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_scaling_rows_report_identical_work() {
        let rows = run_read_scaling(2_000, &[1, 2], 20, 42);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].threads, 1);
        assert_eq!(rows[1].threads, 2);
        assert_eq!(rows[0].total_queries, 20);
        assert_eq!(rows[1].total_queries, 40);
        for row in &rows {
            assert!(row.throughput_qps > 0.0);
            assert!(row.p99_ms >= row.mean_ms * 0.5);
            assert!(row.total_rows > 0, "window queries must match something");
        }
    }

    #[test]
    fn mixed_workload_completes_all_reads_and_writes() {
        let row = run_mixed_workload(1_000, 2, 2, 15, 50, 7);
        assert_eq!(row.reads, 30);
        assert_eq!(row.writes, 100);
        assert!(row.read_qps > 0.0);
        assert!(row.write_ips > 0.0);
    }

    #[test]
    fn hot_writer_scaling_reports_work_and_counters() {
        let rows = run_hot_writer_scaling(2_000, &[1, 2], 15, 11);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].threads, 1);
        assert_eq!(rows[1].threads, 2);
        assert!(
            (rows[0].speedup - 1.0).abs() < 1e-9,
            "row 0 is its own baseline"
        );
        for row in &rows {
            assert_eq!(row.total_queries, row.threads * 15);
            assert!(row.writer_inserts > 0, "the hot writer must land inserts");
            assert!(row.throughput_qps > 0.0);
            assert!(row.concurrency.epoch_pins >= row.total_queries as u64);
            assert!(row.concurrency.latch_acquisitions > 0);
            assert_eq!(row.concurrency.active_pins, 0, "no pin outlives its window");
        }
    }
}
