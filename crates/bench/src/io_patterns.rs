//! I/O-pattern experiment: the buffer pool under a larger-than-memory read
//! path.
//!
//! The paper's evaluation (Section 6) runs on a PostgreSQL installation
//! whose shared-buffer pool is far smaller than the 2M–32M-key indexes, so
//! every reported number is shaped by what the pool can hold as much as by
//! the tree.  This experiment makes that dimension explicit: one kd-tree
//! over uniform points is built once, then re-opened cold at pool sizes from
//! 5% to 100% of the index's pages, and four query mixes are replayed over
//! identical traces:
//!
//! * **point** — Zipf-ranked exact-match lookups (a hot set exists);
//! * **range** — small window queries centered on Zipf-ranked points;
//! * **knn** — `@@`-style 10-nearest-neighbour queries at Zipf anchors;
//! * **scan+point** — the scan-resistance probe: the same Zipf point
//!   lookups with a full sequential scan of the backing heap table (the
//!   `AccessHint::Scan`-tagged one-touch pattern the executor's seq
//!   scans emit) injected every eighth query — the access mix that
//!   flushes a hint-oblivious pool's index hot set.
//!
//! Each cell warms the pool with one pass of the trace, resets the
//! counters, and measures a second pass: steady-state hit rate, physical
//! reads, evictions, wall-clock and per-query p99.

use std::sync::Arc;
use std::time::Instant;

use spgist_datagen::rng::DetRng;
use spgist_datagen::{points, WORLD_MAX};
use spgist_indexes::geom::{Point, Rect};
use spgist_indexes::{KdTreeIndex, KdTreeOps, SpIndex};
use spgist_storage::{BufferPool, BufferPoolConfig, FilePager, HeapFile, MemPager, PageId, Pager};

use crate::stats::{p99_ms, timed};

/// Where the experiment's pages live: an in-memory pager (fast, measures
/// replacement behaviour in isolation) or a real file (`FilePager`), where
/// a pool smaller than the file pays actual kernel I/O per miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoBackend {
    /// `MemPager`: page "disk" is a `Vec` behind a lock.
    Mem,
    /// `FilePager` on a scratch file under the OS temp directory.
    File,
}

impl IoBackend {
    /// Parses a `--backend` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "mem" => Some(IoBackend::Mem),
            "file" => Some(IoBackend::File),
            _ => None,
        }
    }

    /// The name the row reports.
    pub fn name(self) -> &'static str {
        match self {
            IoBackend::Mem => "mem",
            IoBackend::File => "file",
        }
    }
}

/// Pool sizes exercised, as percentages of the index's page count.
pub const POOL_FRACTIONS_PCT: [usize; 5] = [5, 10, 25, 50, 100];

/// Window-query side length (world units; the world is `[0, 100]²`).
const RANGE_SIDE: f64 = 4.0;

/// Neighbours per k-NN query.
const KNN_K: usize = 10;

/// One op in `queries` of the scan+point mix is a full-index sweep.
const SCAN_EVERY: usize = 8;

/// One measured cell: a `(pool size, workload)` combination.
#[derive(Debug, Clone)]
pub struct IoPatternRow {
    /// Pager backend the cell ran on (`mem` or `file`).
    pub backend: &'static str,
    /// Pool size as a percentage of the index's pages.
    pub pool_pct: usize,
    /// Pool frames the cell ran with.
    pub frames: usize,
    /// Pages the index occupies (the working set a 100% pool holds).
    pub data_pages: usize,
    /// Workload name (`point`, `range`, `knn`, `scan+point`).
    pub workload: &'static str,
    /// Queries in the measured pass.
    pub queries: usize,
    /// Logical page reads during the measured pass.
    pub logical_reads: u64,
    /// Physical page reads during the measured pass.
    pub physical_reads: u64,
    /// Frames evicted during the measured pass.
    pub evictions: u64,
    /// Steady-state hit rate of the measured pass, in `[0, 1]`.
    pub hit_rate: f64,
    /// Wall-clock milliseconds for the measured pass.
    pub elapsed_ms: f64,
    /// 99th-percentile single-query latency, milliseconds.
    pub p99_ms: f64,
    /// Total rows every query of the pass reported (work checksum —
    /// identical across pool sizes, or the cell measured different work).
    pub result_rows: u64,
}

/// One pre-generated query of a workload trace.  Traces are generated once
/// per workload and replayed verbatim at every pool size, so cells differ
/// only in the pool under test.
#[derive(Debug, Clone)]
enum Op {
    PointLookup(Point),
    Range(Rect),
    Knn(Point),
    FullScan,
}

/// Zipf(s=1) sampler over ranks `0..n` via the cumulative harmonic weights.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / (rank as f64 + 1.0);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut DetRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty domain");
        let u = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= u)
    }
}

fn window_around(center: Point) -> Rect {
    let half = RANGE_SIDE / 2.0;
    Rect::new(
        (center.x - half).max(0.0),
        (center.y - half).max(0.0),
        (center.x + half).min(WORLD_MAX),
        (center.y + half).min(WORLD_MAX),
    )
}

/// Generates the trace of one workload: Zipf ranks index into `data`, so
/// the hot set of the trace is a hot set of stored keys (and therefore of
/// leaf pages).
fn make_trace(
    workload: &'static str,
    data: &[Point],
    zipf: &Zipf,
    queries: usize,
    seed: u64,
) -> Vec<Op> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..queries)
        .map(|i| match workload {
            "point" => Op::PointLookup(data[zipf.sample(&mut rng)]),
            "range" => Op::Range(window_around(data[zipf.sample(&mut rng)])),
            "knn" => Op::Knn(data[zipf.sample(&mut rng)]),
            "scan+point" => {
                if i % SCAN_EVERY == SCAN_EVERY - 1 {
                    Op::FullScan
                } else {
                    Op::PointLookup(data[zipf.sample(&mut rng)])
                }
            }
            other => unreachable!("unknown workload {other}"),
        })
        .collect()
}

/// Runs one op, returning the number of rows it reported.
fn run_op(kd: &KdTreeIndex, heap: &HeapFile, op: &Op) -> u64 {
    match op {
        Op::PointLookup(p) => kd.equals(*p).expect("point lookup").len() as u64,
        Op::Range(rect) => kd.range(*rect).expect("range query").len() as u64,
        Op::Knn(anchor) => kd.nearest(*anchor, KNN_K).expect("knn query").len() as u64,
        // The sweep is the executor's table scan: every heap page touched
        // exactly once.  [`HeapFile::scan`] tags its fetches Scan, so the
        // pool keeps the index's hot set resident.
        Op::FullScan => {
            let mut rows = 0u64;
            heap.scan(|_, _| rows += 1).expect("heap scan");
            rows
        }
    }
}

/// Heap record width: a plausible tuple (two coordinates plus payload), so
/// the scanned table occupies a meaningful number of pages.
const HEAP_RECORD_BYTES: usize = 64;

fn heap_record(p: Point) -> [u8; HEAP_RECORD_BYTES] {
    let mut rec = [0u8; HEAP_RECORD_BYTES];
    rec[..8].copy_from_slice(&p.x.to_le_bytes());
    rec[8..16].copy_from_slice(&p.y.to_le_bytes());
    rec
}

/// The durable identity of the built dataset: the shared pager plus what
/// every cold pool needs to reopen the same physical index and heap.
struct Dataset {
    pager: Arc<dyn Pager>,
    meta: PageId,
    index_pages: Vec<PageId>,
    heap_pages: Vec<PageId>,
    heap_records: u64,
    /// Scratch directory backing a [`IoBackend::File`] dataset; removed on
    /// drop so repeated runs don't accumulate multi-gigabyte files.
    scratch: Option<std::path::PathBuf>,
}

impl Drop for Dataset {
    fn drop(&mut self) {
        if let Some(dir) = self.scratch.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Builds the kd-tree and its backing heap table once on a throwaway pool
/// and flushes both — every measurement cell then re-opens the *same
/// physical data* under a cold pool.
fn build_dataset(data: &[Point], backend: IoBackend) -> Dataset {
    let (pager, scratch): (Arc<dyn Pager>, Option<std::path::PathBuf>) = match backend {
        IoBackend::Mem => (Arc::new(MemPager::new()), None),
        IoBackend::File => {
            let dir = std::env::temp_dir().join(format!(
                "spgist-io-patterns-{}-{}",
                std::process::id(),
                data.len()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create scratch dir");
            let pager = FilePager::create(dir.join("dataset.pages")).expect("create file pager");
            (Arc::new(pager), Some(dir))
        }
    };
    let pool = Arc::new(BufferPool::new(
        Arc::clone(&pager),
        BufferPoolConfig {
            capacity: 4096,
            ..Default::default()
        },
    ));
    let kd = KdTreeIndex::create(Arc::clone(&pool)).expect("create kd-tree");
    kd.bulk_build(
        data.iter()
            .enumerate()
            .map(|(row, p)| (*p, row as u64))
            .collect(),
    )
    .expect("bulk build");
    let mut heap = HeapFile::create(Arc::clone(&pool)).expect("create heap");
    for p in data {
        heap.insert(&heap_record(*p)).expect("insert heap record");
    }
    let dataset = Dataset {
        pager: Arc::clone(&pager),
        meta: kd.meta_page(),
        index_pages: kd.owned_pages(),
        heap_pages: heap.pages().to_vec(),
        heap_records: heap.record_count(),
        scratch,
    };
    pool.flush_all().expect("flush built dataset");
    dataset
}

/// Runs the full pool-size × workload grid over `n` points with
/// `queries` queries per trace, on the in-memory backend.
pub fn run_io_patterns(n: usize, queries: usize, seed: u64) -> Vec<IoPatternRow> {
    run_io_patterns_on(n, queries, seed, IoBackend::Mem)
}

/// [`run_io_patterns`] with an explicit backend.  With [`IoBackend::File`]
/// the dataset lives in a real file under the OS temp directory and every
/// pool miss is a kernel read — the configuration the paper's evaluation
/// ran in, where the shared-buffer pool is far smaller than the index.
pub fn run_io_patterns_on(
    n: usize,
    queries: usize,
    seed: u64,
    backend: IoBackend,
) -> Vec<IoPatternRow> {
    let data = points(n, seed);
    let dataset = build_dataset(&data, backend);
    // The tree's meta page is read when the index opens: it is part of
    // the working set too.
    let data_pages = dataset.index_pages.len() + 1 + dataset.heap_pages.len();
    let zipf = Zipf::new(data.len());

    let workloads: [&'static str; 4] = ["point", "range", "knn", "scan+point"];
    let traces: Vec<(&'static str, Vec<Op>)> = workloads
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            (
                w,
                make_trace(w, &data, &zipf, queries, seed ^ (i as u64 + 1)),
            )
        })
        .collect();

    let mut rows = Vec::new();
    for &pct in &POOL_FRACTIONS_PCT {
        let frames = (data_pages * pct / 100).max(8);
        for (workload, trace) in &traces {
            // A cold pool per cell: every cell starts from the same flushed
            // on-"disk" state and replays the same trace.
            let pool = Arc::new(BufferPool::new(
                Arc::clone(&dataset.pager),
                BufferPoolConfig {
                    capacity: frames,
                    ..Default::default()
                },
            ));
            let kd = KdTreeIndex::open_with_ops(
                Arc::clone(&pool),
                KdTreeOps::default(),
                dataset.meta,
                dataset.index_pages.clone(),
            )
            .expect("reopen kd-tree");
            let heap = HeapFile::open(
                Arc::clone(&pool),
                dataset.heap_pages.clone(),
                dataset.heap_records,
            )
            .expect("reopen heap");

            // Warm pass: reach the pool's steady state, then measure.
            for op in trace {
                run_op(&kd, &heap, op);
            }
            let before = pool.stats();

            let mut latencies = Vec::with_capacity(trace.len());
            let mut result_rows = 0u64;
            let (_, elapsed) = timed(|| {
                for op in trace {
                    let started = Instant::now();
                    result_rows += run_op(&kd, &heap, op);
                    latencies.push(started.elapsed());
                }
            });
            let stats = pool.stats().delta_since(&before);
            rows.push(IoPatternRow {
                backend: backend.name(),
                pool_pct: pct,
                frames,
                data_pages,
                workload,
                queries: trace.len(),
                logical_reads: stats.logical_reads,
                physical_reads: stats.physical_reads,
                evictions: stats.evictions,
                hit_rate: stats.hit_ratio(),
                elapsed_ms: elapsed.as_secs_f64() * 1e3,
                p99_ms: p99_ms(&mut latencies),
                result_rows,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(1000);
        let mut rng = DetRng::seed_from_u64(9);
        let mut low = 0usize;
        for _ in 0..2000 {
            if zipf.sample(&mut rng) < 100 {
                low += 1;
            }
        }
        // The first 10% of ranks carry ~62% of Zipf(1) mass over 1000 ranks.
        assert!(low > 1000, "only {low}/2000 samples hit the hot 10%");
    }

    #[test]
    fn grid_covers_every_cell_and_checksums_agree() {
        let rows = run_io_patterns(600, 24, 42);
        assert_eq!(rows.len(), POOL_FRACTIONS_PCT.len() * 4);
        // Identical traces must do identical logical work regardless of
        // pool size: group by workload and compare checksums.
        for workload in ["point", "range", "knn", "scan+point"] {
            let checksums: Vec<u64> = rows
                .iter()
                .filter(|r| r.workload == workload)
                .map(|r| r.result_rows)
                .collect();
            assert!(
                checksums.windows(2).all(|w| w[0] == w[1]),
                "{workload}: pool sizes disagreed on results: {checksums:?}"
            );
        }
        for r in &rows {
            assert!(r.logical_reads > 0, "{r:?} measured nothing");
            assert!((0.0..=1.0).contains(&r.hit_rate));
            // At a full-size pool the warmed second pass misses nothing.
            if r.pool_pct == 100 {
                assert_eq!(
                    r.physical_reads, 0,
                    "{}: full-size pool must serve the warmed pass from memory",
                    r.workload
                );
            }
        }
    }

    #[test]
    fn file_backend_pays_real_reads_on_a_starved_pool() {
        // Large enough that the 5% pool (floored at 8 frames) is smaller
        // than the page set — a starved pool over a real file must miss.
        let rows = run_io_patterns_on(6_000, 16, 42, IoBackend::File);
        assert!(rows.iter().all(|r| r.backend == "file"));
        assert!(
            rows.iter()
                .all(|r| r.pool_pct < 100 || r.frames >= r.data_pages),
            "100% pool should hold the whole dataset"
        );
        // A pool at 5% of the file must miss: physical reads come from the
        // actual file, not a Vec.
        let starved: u64 = rows
            .iter()
            .filter(|r| r.pool_pct == 5 && r.frames < r.data_pages)
            .map(|r| r.physical_reads)
            .sum();
        assert!(starved > 0, "5% pools on a real file never touched disk?");
        // Work checksums agree with the mem backend: the backend changes
        // where pages live, not what the queries compute.
        let mem = run_io_patterns(6_000, 16, 42);
        for (f, m) in rows.iter().zip(mem.iter()) {
            assert_eq!(
                f.result_rows, m.result_rows,
                "{}@{}%",
                f.workload, f.pool_pct
            );
        }
    }
}
