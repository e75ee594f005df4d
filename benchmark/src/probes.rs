//! Unit-cost probes of a traced run: costs the `Database` façade hides,
//! measured after the rounds by calling each layer directly — standalone
//! `SpIndex` trees, `HeapFile` and `Wal` in the run's scratch directory,
//! a bare `BufferPool` over the database file itself — plus the paper's own
//! baseline comparisons (B⁺-tree, R-tree, sequential scan).

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use spgist_baselines::{BPlusTree, RTree, SeqScanTable};
use spgist_catalog::{Database, Datum, Wal, WalConfig};
use spgist_core::RowId;
use spgist_datagen::rng::DetRng;
use spgist_indexes::{
    KdTreeIndex, PmrQuadtreeIndex, Point, PointQuadtreeIndex, PointQuery, Segment, SegmentQuery,
    SpGistBacked, SpIndex, StringQuery, SuffixTreeIndex, TrieIndex,
};
use spgist_storage::{
    BufferPool, BufferPoolConfig, ConcurrencyStats, FilePager, HeapFile, PageId, Pager,
    StorageResult,
};
use spgist_wal::{WalRecord, AUTOCOMMIT};

use crate::config::{Scale, QUERY_LIMIT};
use crate::data::{self, Dataset, POINTS, SEGMENTS, TABLES, WORDS};
use crate::metrics::Values;
use crate::ops::{skewed_index, window, Op};

fn mean_us(started: Instant, n: usize) -> f64 {
    started.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64
}

/// `planner.plan_us`: `Database::plan` over the leading queries of `ops`.
pub fn planner(values: &mut Values, db: &Database, ops: &[Op], scale: &Scale) {
    let queries: Vec<_> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Query { kind, query } => Some((TABLES[kind.table()].name, query)),
            _ => None,
        })
        .take(scale.probe_ops)
        .collect();
    let started = Instant::now();
    for (table, query) in &queries {
        let _ = black_box(db.plan(table, *query));
    }
    values.set("planner.plan_us", mean_us(started, queries.len()));
}

/// A pool over a fresh scratch file, large enough never to evict.
fn scratch_pool(file: &Path) -> StorageResult<Arc<BufferPool>> {
    let _ = std::fs::remove_file(file);
    let pager: Arc<dyn Pager> = Arc::new(FilePager::create(file)?);
    Ok(Arc::new(BufferPool::new(
        pager,
        BufferPoolConfig {
            capacity: 1 << 22,
            ..BufferPoolConfig::default()
        },
    )))
}

fn texts(rows: &[Datum]) -> Vec<String> {
    rows.iter()
        .filter_map(|d| match d {
            Datum::Text(s) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

fn points(rows: &[Datum]) -> Vec<Point> {
    rows.iter()
        .filter_map(|d| match d {
            Datum::Point(p) => Some(*p),
            _ => None,
        })
        .collect()
}

fn segments(rows: &[Datum]) -> Vec<Segment> {
    rows.iter()
        .filter_map(|d| match d {
            Datum::Segment(s) => Some(*s),
            _ => None,
        })
        .collect()
}

fn with_rows<K>(keys: Vec<K>, first_row: RowId) -> Vec<(K, RowId)> {
    keys.into_iter()
        .enumerate()
        .map(|(i, k)| (k, first_row + i as RowId))
        .collect()
}

/// Running sums of the epoch / latch counters over every probed tree.
#[derive(Default)]
struct EpochSums {
    writes: u64,
    queries: u64,
    stats: ConcurrencyStats,
    backlog_max: u64,
}

/// Bulk-builds `index` from `items` (the set-up's `create_index` does the
/// same, so the tree has the database's shape), then times point work on
/// it: `queries` through cursors, `fresh` inserted and deleted again,
/// `nn` through ordered cursors.
#[allow(clippy::too_many_arguments)]
fn probe_index<I: SpIndex + SpGistBacked>(
    values: &mut Values,
    epoch: &mut EpochSums,
    class: &str,
    index: &I,
    pool: &BufferPool,
    items: Vec<(I::Key, RowId)>,
    queries: &[I::Query],
    fresh: Vec<(I::Key, RowId)>,
    nn: &[I::Query],
) -> StorageResult<()> {
    index.bulk_build(items)?;
    let conc_before = index.backing().concurrency_stats();

    let io_before = pool.stats();
    let started = Instant::now();
    for query in queries {
        for item in index.cursor(query)? {
            black_box(item?);
        }
    }
    values.set(
        format!("indexes.cursor_us.{class}"),
        mean_us(started, queries.len()),
    );
    let io = pool.stats().delta_since(&io_before);
    values.set(
        format!("core.pages_per_lookup.{class}"),
        io.logical_reads as f64 / queries.len().max(1) as f64,
    );

    let started = Instant::now();
    for (key, row) in &fresh {
        index.insert(key.clone(), *row)?;
    }
    values.set(
        format!("indexes.insert_us.{class}"),
        mean_us(started, fresh.len()),
    );
    epoch.backlog_max = epoch
        .backlog_max
        .max(index.backing().concurrency_stats().retired_backlog);
    let started = Instant::now();
    for (key, row) in &fresh {
        index.delete(key, *row)?;
    }
    values.set(
        format!("indexes.delete_us.{class}"),
        mean_us(started, fresh.len()),
    );
    epoch.backlog_max = epoch
        .backlog_max
        .max(index.backing().concurrency_stats().retired_backlog);

    if !nn.is_empty() {
        let started = Instant::now();
        for query in nn {
            if let Some(cursor) = index.ordered_cursor(query)? {
                for item in cursor.take(QUERY_LIMIT) {
                    black_box(item?);
                }
            }
        }
        values.set(format!("indexes.nn_us.{class}"), mean_us(started, nn.len()));
    }

    let conc = index
        .backing()
        .concurrency_stats()
        .delta_since(&conc_before);
    epoch.writes += 2 * fresh.len() as u64;
    epoch.queries += (queries.len() + nn.len()) as u64;
    epoch.stats.latch_acquisitions += conc.latch_acquisitions;
    epoch.stats.latch_waits += conc.latch_waits;
    epoch.stats.epoch_pins += conc.epoch_pins;
    epoch.stats.epoch_pin_nanos += conc.epoch_pin_nanos;
    Ok(())
}

/// `indexes.*`, `core.pages_per_lookup.*`, `epoch.*`, `heap.*`, `buffer.*`
/// fetch costs and the `wal.*` unit costs.
pub fn layers(
    values: &mut Values,
    dir: &Path,
    db_path: &Path,
    dataset: &Dataset,
    scale: &Scale,
    seed: u64,
) -> StorageResult<()> {
    let n = scale.probe_ops;
    let mut rng = DetRng::seed_from_u64(seed ^ 0x5EED_0F9A_0BE5);
    let words = texts(&dataset.rows[WORDS]);
    let pts = points(&dataset.rows[POINTS]);
    let segs = segments(&dataset.rows[SEGMENTS]);
    let fresh_words = texts(&data::generate(WORDS, n, rng.next_u64()));
    let fresh_pts = points(&data::generate(POINTS, n, rng.next_u64()));
    let fresh_segs = segments(&data::generate(SEGMENTS, n, rng.next_u64()));

    let word_eq: Vec<StringQuery> = (0..n)
        .map(|_| StringQuery::Equals(words[skewed_index(&mut rng, words.len())].clone()))
        .collect();
    let word_sub: Vec<StringQuery> = (0..n)
        .map(|_| loop {
            let w = &words[skewed_index(&mut rng, words.len())];
            if w.len() >= 4 {
                break StringQuery::Substring(w[w.len() - 4..].to_string());
            }
        })
        .collect();
    let anchors: Vec<Point> = (0..n)
        .map(|_| pts[skewed_index(&mut rng, pts.len())])
        .collect();
    let point_eq: Vec<PointQuery> = anchors.iter().map(|p| PointQuery::Equals(*p)).collect();
    let point_nn: Vec<PointQuery> = anchors.iter().map(|p| PointQuery::Nearest(*p)).collect();
    let seg_win: Vec<SegmentQuery> = (0..n)
        .map(|_| SegmentQuery::InRect(window(segs[skewed_index(&mut rng, segs.len())].a, 1.0)))
        .collect();
    let seg_nn: Vec<SegmentQuery> = anchors.iter().map(|p| SegmentQuery::Nearest(*p)).collect();

    let pool = scratch_pool(&dir.join("probe.pages"))?;
    let mut epoch = EpochSums::default();
    let at = |len: usize| len as RowId;
    probe_index(
        values,
        &mut epoch,
        "trie",
        &TrieIndex::create(Arc::clone(&pool))?,
        &pool,
        with_rows(words.clone(), 0),
        &word_eq,
        with_rows(fresh_words.clone(), at(words.len())),
        &[],
    )?;
    probe_index(
        values,
        &mut epoch,
        "kdtree",
        &KdTreeIndex::create(Arc::clone(&pool))?,
        &pool,
        with_rows(pts.clone(), 0),
        &point_eq,
        with_rows(fresh_pts.clone(), at(pts.len())),
        &point_nn,
    )?;
    probe_index(
        values,
        &mut epoch,
        "pquadtree",
        &PointQuadtreeIndex::create(Arc::clone(&pool))?,
        &pool,
        with_rows(pts.clone(), 0),
        &point_eq,
        with_rows(fresh_pts, at(pts.len())),
        &[],
    )?;
    probe_index(
        values,
        &mut epoch,
        "pmr",
        &PmrQuadtreeIndex::create(Arc::clone(&pool), spgist_datagen::world())?,
        &pool,
        with_rows(segs.clone(), 0),
        &seg_win,
        with_rows(fresh_segs, at(segs.len())),
        &seg_nn,
    )?;
    probe_index(
        values,
        &mut epoch,
        "suffix",
        &SuffixTreeIndex::create(Arc::clone(&pool))?,
        &pool,
        with_rows(words.clone(), 0),
        &word_sub,
        with_rows(fresh_words, at(words.len())),
        &[],
    )?;
    let per = |total: u64, n: u64| total as f64 / n.max(1) as f64;
    values.set(
        "epoch.latch_acquisitions_per_write",
        per(epoch.stats.latch_acquisitions, epoch.writes),
    );
    values.set("epoch.latch_waits", epoch.stats.latch_waits as f64);
    values.set(
        "epoch.pins_per_query",
        per(epoch.stats.epoch_pins, epoch.queries),
    );
    values.set("epoch.retired_backlog_max", epoch.backlog_max as f64);
    values.set(
        "epoch.pin_us_mean",
        per(epoch.stats.epoch_pin_nanos, epoch.stats.epoch_pins) / 1e3,
    );

    // Heap: append and fetch 16-byte records.
    let mut heap = HeapFile::create(Arc::clone(&pool))?;
    let record = [7u8; 16];
    let started = Instant::now();
    let mut rids = Vec::with_capacity(n);
    for _ in 0..n {
        rids.push(heap.insert(&record)?);
    }
    values.set("heap.insert_ns", mean_us(started, n) * 1e3);
    let started = Instant::now();
    for rid in &rids {
        black_box(heap.get(*rid)?);
    }
    values.set("heap.get_ns", mean_us(started, n) * 1e3);
    drop(heap);
    drop(pool);

    // Buffer pool over the database file itself (the OS page cache serves
    // the reads): every fetch a hit, then every fetch a miss with eviction.
    let file: Arc<dyn Pager> = Arc::new(FilePager::open(db_path)?);
    let pages = file.page_count().min(4096);
    let resident = (pages / 4).max(1);
    let fetch_all = |pool: &BufferPool, ids: std::ops::Range<PageId>| -> StorageResult<()> {
        for id in ids {
            pool.with_page(id, |page| {
                black_box(page);
            })?;
        }
        Ok(())
    };
    let pool = BufferPool::new(
        Arc::clone(&file),
        BufferPoolConfig {
            capacity: resident as usize,
            ..BufferPoolConfig::default()
        },
    );
    fetch_all(&pool, 0..resident)?;
    let started = Instant::now();
    for _ in 0..4 {
        fetch_all(&pool, 0..resident)?;
    }
    values.set(
        "buffer.hit_fetch_ns",
        mean_us(started, 4 * resident as usize) * 1e3,
    );
    // Cycling through four times the capacity defeats every policy.
    fetch_all(&pool, 0..pages)?;
    let started = Instant::now();
    fetch_all(&pool, 0..pages)?;
    values.set(
        "buffer.miss_fetch_ns",
        mean_us(started, pages as usize) * 1e3,
    );

    // WAL in the scratch directory: the in-memory hand-over, then the full
    // round trip to an acknowledged fsync.
    let wal = Wal::create(dir.join("probe.wal"), WalConfig::default())?;
    let record = |row: u64| WalRecord::Insert {
        table: "probe".into(),
        row,
        datum: vec![7u8; 16],
        txn: AUTOCOMMIT,
    };
    let started = Instant::now();
    let mut last = 0;
    for row in 0..n as u64 {
        last = wal.submit(&record(row))?;
    }
    values.set("wal.submit_us", mean_us(started, n));
    wal.wait_durable(last)?;
    let round_trips = (n / 10).max(1);
    let started = Instant::now();
    for row in 0..round_trips as u64 {
        wal.append(&record(row))?;
    }
    values.set("wal.durable_wait_us", mean_us(started, round_trips));
    Ok(())
}

/// k-NN on an R-tree that has no distance-ordered search: window queries of
/// doubling radius until `k` points fall inside the inscribed circle.
fn rtree_knn(
    rtree: &RTree,
    anchor: Point,
    k: usize,
    first_radius: f64,
) -> StorageResult<Vec<RowId>> {
    let mut radius = first_radius;
    loop {
        let mut hits: Vec<(f64, RowId)> = rtree
            .window(window(anchor, 2.0 * radius))?
            .into_iter()
            .map(|(mbr, row)| (anchor.distance(&Point::new(mbr.min_x, mbr.min_y)), row))
            .filter(|(d, _)| *d <= radius)
            .collect();
        if hits.len() >= k || radius > 2.0 * spgist_datagen::WORLD_MAX {
            hits.sort_by(|a, b| a.0.total_cmp(&b.0));
            hits.truncate(k);
            return Ok(hits.into_iter().map(|(_, row)| row).collect());
        }
        radius *= 2.0;
    }
}

/// Times `f` over `n` calls, µs per call.
fn timed(n: usize, mut f: impl FnMut(usize) -> StorageResult<()>) -> StorageResult<f64> {
    let started = Instant::now();
    for i in 0..n {
        f(i)?;
    }
    Ok(mean_us(started, n))
}

/// `baselines.*`: the paper's comparisons on the first `baseline_rows` rows
/// of each table, every structure on the same scratch file and pool.  Each
/// value is baseline time ÷ SP-GiST index time for the same queries, so a
/// value above 1 means the index wins.
pub fn baselines(
    values: &mut Values,
    dir: &Path,
    dataset: &Dataset,
    scale: &Scale,
    seed: u64,
) -> StorageResult<()> {
    let rows = scale.baseline_rows;
    let n = scale.probe_ops.min(500);
    let mut rng = DetRng::seed_from_u64(seed ^ 0xBA5E_11E5);
    let words: Vec<String> = texts(&dataset.rows[WORDS]).into_iter().take(rows).collect();
    let pts: Vec<Point> = points(&dataset.rows[POINTS])
        .into_iter()
        .take(rows)
        .collect();
    let segs: Vec<Segment> = segments(&dataset.rows[SEGMENTS])
        .into_iter()
        .take(rows)
        .collect();
    let pool = scratch_pool(&dir.join("baseline.pages"))?;

    // Strings: trie against B+-tree, suffix tree against sequential scan.
    let trie = TrieIndex::create(Arc::clone(&pool))?;
    trie.bulk_build(with_rows(words.clone(), 0))?;
    let suffix = SuffixTreeIndex::create(Arc::clone(&pool))?;
    suffix.bulk_build(with_rows(words.clone(), 0))?;
    let mut btree = BPlusTree::create(Arc::clone(&pool))?;
    let mut heap = SeqScanTable::create(Arc::clone(&pool))?;
    for (row, word) in words.iter().enumerate() {
        btree.insert_str(word, row as RowId)?;
        heap.insert(word, row as RowId)?;
    }
    let long_words: Vec<&String> = (0..n)
        .map(|_| loop {
            let w = &words[skewed_index(&mut rng, words.len())];
            if w.len() >= 4 {
                break w;
            }
        })
        .collect();
    let index = timed(n, |i| {
        trie.equals(long_words[i]).map(|r| drop(black_box(r)))
    })?;
    let base = timed(n, |i| {
        btree.search_str(long_words[i]).map(|r| drop(black_box(r)))
    })?;
    values.set("baselines.btree_over_trie_exact", base / index);
    let index = timed(n, |i| {
        trie.prefix(&long_words[i][..3]).map(|r| drop(black_box(r)))
    })?;
    let base = timed(n, |i| {
        btree
            .prefix_search(&long_words[i].as_bytes()[..3])
            .map(|r| drop(black_box(r)))
    })?;
    values.set("baselines.btree_over_trie_prefix", base / index);
    // The scan is three orders of magnitude slower; a tenth of the queries
    // prices it well enough.
    let few = (n / 10).max(1);
    let index = timed(few, |i| {
        suffix
            .substring(&long_words[i][..4])
            .map(|r| drop(black_box(r)))
    })?;
    let base = timed(few, |i| {
        heap.substring(&long_words[i][..4])
            .map(|r| drop(black_box(r)))
    })?;
    values.set("baselines.seqscan_over_suffix_substring", base / index);

    // Points: kd-tree against R-tree, window and 10-NN.
    let kd = KdTreeIndex::create(Arc::clone(&pool))?;
    kd.bulk_build(with_rows(pts.clone(), 0))?;
    let mut rtree = RTree::create(Arc::clone(&pool))?;
    for (row, p) in pts.iter().enumerate() {
        rtree.insert_point(*p, row as RowId)?;
    }
    let anchors: Vec<Point> = (0..n)
        .map(|_| pts[skewed_index(&mut rng, pts.len())])
        .collect();
    let index = timed(n, |i| {
        kd.execute(&PointQuery::InRect(window(anchors[i], 3.0)))
            .map(|r| drop(black_box(r)))
    })?;
    let base = timed(n, |i| {
        rtree
            .window(window(anchors[i], 3.0))
            .map(|r| drop(black_box(r)))
    })?;
    values.set("baselines.rtree_over_kdtree_window", base / index);
    // First radius: the circle expected to hold k points at this density.
    let density = pts.len() as f64 / (spgist_datagen::WORLD_MAX * spgist_datagen::WORLD_MAX);
    let first_radius = (QUERY_LIMIT as f64 / (std::f64::consts::PI * density)).sqrt();
    let index = timed(n, |i| {
        kd.nearest(anchors[i], QUERY_LIMIT)
            .map(|r| drop(black_box(r)))
    })?;
    let base = timed(n, |i| {
        rtree_knn(&rtree, anchors[i], QUERY_LIMIT, first_radius).map(|r| drop(black_box(r)))
    })?;
    values.set("baselines.rtree_over_kdtree_nn", base / index);

    // Segments: PMR quadtree against an R-tree over the segments' boxes
    // (which reports candidates by box, without the exact refinement).
    let pmr = PmrQuadtreeIndex::create(Arc::clone(&pool), spgist_datagen::world())?;
    pmr.bulk_build(with_rows(segs.clone(), 0))?;
    let mut rtree = RTree::create(Arc::clone(&pool))?;
    for (row, s) in segs.iter().enumerate() {
        rtree.insert_segment(*s, row as RowId)?;
    }
    let centers: Vec<Point> = (0..n)
        .map(|_| segs[skewed_index(&mut rng, segs.len())].a)
        .collect();
    let index = timed(n, |i| {
        pmr.window(window(centers[i], 3.0))
            .map(|r| drop(black_box(r)))
    })?;
    let base = timed(n, |i| {
        rtree
            .window(window(centers[i], 3.0))
            .map(|r| drop(black_box(r)))
    })?;
    values.set("baselines.rtree_over_pmr_window", base / index);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::scratch_dir;

    #[test]
    fn expanding_window_knn_finds_the_true_nearest_points() {
        let dir = scratch_dir("probe-knn").unwrap();
        let pool = scratch_pool(&dir.join("knn.pages")).unwrap();
        let pts = spgist_datagen::points(2_000, 5);
        let mut rtree = RTree::create(Arc::clone(&pool)).unwrap();
        for (row, p) in pts.iter().enumerate() {
            rtree.insert_point(*p, row as RowId).unwrap();
        }
        for anchor in [
            Point::new(50.0, 50.0),
            Point::new(0.0, 0.0),
            Point::new(99.0, 1.0),
        ] {
            let got = rtree_knn(&rtree, anchor, 10, 0.5).unwrap();
            let mut want: Vec<(f64, RowId)> = pts
                .iter()
                .enumerate()
                .map(|(row, p)| (anchor.distance(p), row as RowId))
                .collect();
            want.sort_by(|a, b| a.0.total_cmp(&b.0));
            let want: Vec<RowId> = want.into_iter().take(10).map(|(_, row)| row).collect();
            assert_eq!(got, want);
        }
        drop(rtree);
        drop(pool);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
