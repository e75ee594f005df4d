//! Builders and runners for the paper's experiments (Figures 6–17).

use std::sync::Arc;
use std::time::Duration;

use spgist_baselines::{BPlusTree, RTree, SeqScanTable};
use spgist_core::{RowId, SpGistOps};
use spgist_datagen::{points, segments, words, world, QueryWorkload};
use spgist_indexes::geom::{Point, Segment};
use spgist_indexes::{
    KdTreeIndex, PmrQuadtreeIndex, PointQuadtreeIndex, SpIndex, SuffixTreeIndex, TrieIndex, TrieOps,
};
use spgist_storage::{BufferPool, BufferPoolConfig, MemPager};

use crate::stats::{mean_ms, stddev_ms, timed};

/// Buffer-pool capacity used by the experiments: deliberately small relative
/// to the datasets so that eviction and page I/O are exercised, as they would
/// be inside PostgreSQL.
pub const EXPERIMENT_POOL_PAGES: usize = 2_048;

/// Creates the buffer pool every experiment index is built on.
pub fn experiment_pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(
        Arc::new(MemPager::new()),
        BufferPoolConfig {
            capacity: EXPERIMENT_POOL_PAGES,
            ..Default::default()
        },
    ))
}

/// Dataset sizes for the string experiments.  The paper uses 2 M – 32 M keys;
/// these are the same five-point doubling series scaled down by 1000×, and
/// `scale` multiplies them back up.
pub fn word_sizes(scale: usize) -> Vec<usize> {
    [2_000, 4_000, 8_000, 16_000, 32_000]
        .into_iter()
        .map(|s| s * scale.max(1))
        .collect()
}

/// Dataset sizes for the point and segment experiments (paper: 250 K – 4 M).
pub fn point_sizes(scale: usize) -> Vec<usize> {
    [2_500, 5_000, 10_000, 20_000, 40_000]
        .into_iter()
        .map(|s| s * scale.max(1))
        .collect()
}

/// Dataset sizes for the suffix-tree substring experiment (paper Figure 16,
/// 250 K – 4 M strings).  Smaller than the other string experiments because a
/// suffix tree stores every suffix of every word, and leaves of *identical*
/// one-character suffixes are bounded by a single page (see README
/// limitations).
pub fn substring_sizes(scale: usize) -> Vec<usize> {
    [1_500, 3_000, 6_000, 12_000]
        .into_iter()
        .map(|s| s * scale.max(1))
        .collect()
}

/// Numbers of requested neighbours for the NN experiment (paper Figure 17).
pub const NN_KS: [usize; 8] = [8, 16, 32, 64, 128, 256, 512, 1024];

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

/// Builds a patricia trie over `data`, returning the index and the total
/// insertion time.
pub fn build_trie(data: &[String]) -> (TrieIndex, Duration) {
    let index = TrieIndex::create(experiment_pool()).expect("create trie");
    let (_, elapsed) = timed(|| {
        for (i, w) in data.iter().enumerate() {
            index.insert(w.clone(), i as RowId).expect("insert word");
        }
    });
    (index, elapsed)
}

/// Builds a B⁺-tree over `data`, returning the index and the insertion time.
pub fn build_btree(data: &[String]) -> (BPlusTree, Duration) {
    let mut tree = BPlusTree::create(experiment_pool()).expect("create btree");
    let (_, elapsed) = timed(|| {
        for (i, w) in data.iter().enumerate() {
            tree.insert_str(w, i as RowId).expect("insert word");
        }
    });
    (tree, elapsed)
}

/// Builds a kd-tree over `data`, returning the index and the insertion time.
pub fn build_kdtree(data: &[Point]) -> (KdTreeIndex, Duration) {
    let index = KdTreeIndex::create(experiment_pool()).expect("create kd-tree");
    let (_, elapsed) = timed(|| {
        for (i, p) in data.iter().enumerate() {
            index.insert(*p, i as RowId).expect("insert point");
        }
    });
    (index, elapsed)
}

/// Builds a point quadtree over `data`.
pub fn build_pquadtree(data: &[Point]) -> (PointQuadtreeIndex, Duration) {
    let index = PointQuadtreeIndex::create(experiment_pool()).expect("create quadtree");
    let (_, elapsed) = timed(|| {
        for (i, p) in data.iter().enumerate() {
            index.insert(*p, i as RowId).expect("insert point");
        }
    });
    (index, elapsed)
}

/// Builds an R-tree over points.
pub fn build_rtree_points(data: &[Point]) -> (RTree, Duration) {
    let mut tree = RTree::create(experiment_pool()).expect("create r-tree");
    let (_, elapsed) = timed(|| {
        for (i, p) in data.iter().enumerate() {
            tree.insert_point(*p, i as RowId).expect("insert point");
        }
    });
    (tree, elapsed)
}

/// Builds a PMR quadtree over segments.
pub fn build_pmr(data: &[Segment]) -> (PmrQuadtreeIndex, Duration) {
    let index = PmrQuadtreeIndex::create(experiment_pool(), world()).expect("create pmr");
    let (_, elapsed) = timed(|| {
        for (i, s) in data.iter().enumerate() {
            index.insert(*s, i as RowId).expect("insert segment");
        }
    });
    (index, elapsed)
}

/// Builds an R-tree over segments (by their MBRs).
pub fn build_rtree_segments(data: &[Segment]) -> (RTree, Duration) {
    let mut tree = RTree::create(experiment_pool()).expect("create r-tree");
    let (_, elapsed) = timed(|| {
        for (i, s) in data.iter().enumerate() {
            tree.insert_segment(*s, i as RowId).expect("insert segment");
        }
    });
    (tree, elapsed)
}

/// Builds a suffix-tree index over `data`.
pub fn build_suffix(data: &[String]) -> (SuffixTreeIndex, Duration) {
    let index = SuffixTreeIndex::create(experiment_pool()).expect("create suffix tree");
    let (_, elapsed) = timed(|| {
        for (i, w) in data.iter().enumerate() {
            index.insert(w.clone(), i as RowId).expect("insert word");
        }
    });
    (index, elapsed)
}

/// Builds a heap table scanned sequentially.
pub fn build_seqscan(data: &[String]) -> (SeqScanTable, Duration) {
    let mut table = SeqScanTable::create(experiment_pool()).expect("create heap");
    let (_, elapsed) = timed(|| {
        for (i, w) in data.iter().enumerate() {
            table.insert(w, i as RowId).expect("insert tuple");
        }
    });
    (table, elapsed)
}

// ---------------------------------------------------------------------------
// Figures 6–12: trie vs. B+-tree on strings
// ---------------------------------------------------------------------------

/// One per-dataset-size row covering Figures 6–12.
#[derive(Debug, Clone)]
pub struct StringRow {
    /// Number of indexed words.
    pub size: usize,
    /// Mean exact-match query time, trie (ms).
    pub trie_exact_ms: f64,
    /// Mean exact-match query time, B⁺-tree (ms).
    pub btree_exact_ms: f64,
    /// Standard deviation of the trie exact-match times (Figure 8).
    pub trie_exact_stddev_ms: f64,
    /// Mean prefix-match time, trie (ms).
    pub trie_prefix_ms: f64,
    /// Mean prefix-match time, B⁺-tree (ms).
    pub btree_prefix_ms: f64,
    /// Mean regular-expression-match time, trie (ms).
    pub trie_regex_ms: f64,
    /// Mean regular-expression-match time, B⁺-tree (ms).
    pub btree_regex_ms: f64,
    /// Total insertion time, trie (ms).
    pub trie_insert_ms: f64,
    /// Total insertion time, B⁺-tree (ms).
    pub btree_insert_ms: f64,
    /// Index size in pages, trie.
    pub trie_pages: u64,
    /// Index size in pages, B⁺-tree.
    pub btree_pages: u64,
    /// Maximum tree height in nodes, trie (Figure 11).
    pub trie_node_height: u32,
    /// Maximum tree height in pages, trie (Figure 12).
    pub trie_page_height: u32,
    /// B⁺-tree height (nodes = pages).
    pub btree_height: u32,
}

/// Runs the trie-vs-B⁺-tree string experiments for the given dataset sizes.
pub fn run_string_experiments(sizes: &[usize], queries: usize, seed: u64) -> Vec<StringRow> {
    sizes
        .iter()
        .map(|&size| {
            let data = words(size, seed);
            let (trie, trie_insert) = build_trie(&data);
            let (btree, btree_insert) = build_btree(&data);

            let exact_queries = QueryWorkload::existing(&data, queries, seed ^ 0x51);
            let prefix_queries = QueryWorkload::prefixes(&data, queries, 2, seed ^ 0x52);
            let regex_queries = QueryWorkload::regexes(&data, queries, 2, seed ^ 0x53);

            // Exact match (Figure 6) and its per-query deviation (Figure 8).
            let mut trie_exact = Vec::with_capacity(queries);
            let mut btree_exact = Vec::with_capacity(queries);
            for q in &exact_queries {
                trie_exact.push(timed(|| trie.equals(q).expect("trie equals")).1);
                btree_exact.push(timed(|| btree.search_str(q).expect("btree equals")).1);
            }
            // Prefix match (Figure 6).
            let mut trie_prefix = Vec::with_capacity(queries);
            let mut btree_prefix = Vec::with_capacity(queries);
            for q in &prefix_queries {
                trie_prefix.push(timed(|| trie.prefix(q).expect("trie prefix")).1);
                btree_prefix
                    .push(timed(|| btree.prefix_search(q.as_bytes()).expect("btree prefix")).1);
            }
            // Regular-expression match (Figure 7).
            let mut trie_regex = Vec::with_capacity(queries);
            let mut btree_regex = Vec::with_capacity(queries);
            for q in &regex_queries {
                trie_regex.push(timed(|| trie.regex(q).expect("trie regex")).1);
                btree_regex.push(timed(|| btree.regex_search(q).expect("btree regex")).1);
            }

            let trie_stats = trie.stats().expect("trie stats");
            let btree_stats = btree.stats().expect("btree stats");
            StringRow {
                size,
                trie_exact_ms: mean_ms(&trie_exact),
                btree_exact_ms: mean_ms(&btree_exact),
                trie_exact_stddev_ms: stddev_ms(&trie_exact),
                trie_prefix_ms: mean_ms(&trie_prefix),
                btree_prefix_ms: mean_ms(&btree_prefix),
                trie_regex_ms: mean_ms(&trie_regex),
                btree_regex_ms: mean_ms(&btree_regex),
                trie_insert_ms: trie_insert.as_secs_f64() * 1e3,
                btree_insert_ms: btree_insert.as_secs_f64() * 1e3,
                trie_pages: trie_stats.pages,
                btree_pages: btree_stats.pages,
                trie_node_height: trie_stats.max_node_height,
                trie_page_height: trie_stats.max_page_height,
                btree_height: btree_stats.height,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figures 13–14: kd-tree vs. R-tree on points
// ---------------------------------------------------------------------------

/// One per-dataset-size row covering Figures 13 and 14.
#[derive(Debug, Clone)]
pub struct PointRow {
    /// Number of indexed points.
    pub size: usize,
    /// Total insertion time, kd-tree (ms).
    pub kd_insert_ms: f64,
    /// Total insertion time, R-tree (ms).
    pub rtree_insert_ms: f64,
    /// Mean point-match query time, kd-tree (ms).
    pub kd_point_ms: f64,
    /// Mean point-match query time, R-tree (ms).
    pub rtree_point_ms: f64,
    /// Mean range-query time, kd-tree (ms).
    pub kd_range_ms: f64,
    /// Mean range-query time, R-tree (ms).
    pub rtree_range_ms: f64,
    /// Index size in pages, kd-tree.
    pub kd_pages: u64,
    /// Index size in pages, R-tree.
    pub rtree_pages: u64,
}

/// Runs the kd-tree-vs-R-tree point experiments.
pub fn run_point_experiments(sizes: &[usize], queries: usize, seed: u64) -> Vec<PointRow> {
    sizes
        .iter()
        .map(|&size| {
            let data = points(size, seed);
            let (kd, kd_insert) = build_kdtree(&data);
            let (rt, rt_insert) = build_rtree_points(&data);

            let point_queries = QueryWorkload::existing(&data, queries, seed ^ 0x61);
            let windows = QueryWorkload::windows(queries, 5.0, seed ^ 0x62);

            let mut kd_point = Vec::with_capacity(queries);
            let mut rt_point = Vec::with_capacity(queries);
            for q in &point_queries {
                kd_point.push(timed(|| kd.equals(*q).expect("kd equals")).1);
                rt_point.push(timed(|| rt.point_match(*q).expect("rtree point")).1);
            }
            let mut kd_range = Vec::with_capacity(queries);
            let mut rt_range = Vec::with_capacity(queries);
            for w in &windows {
                kd_range.push(timed(|| kd.range(*w).expect("kd range")).1);
                rt_range.push(timed(|| rt.window(*w).expect("rtree window")).1);
            }

            PointRow {
                size,
                kd_insert_ms: kd_insert.as_secs_f64() * 1e3,
                rtree_insert_ms: rt_insert.as_secs_f64() * 1e3,
                kd_point_ms: mean_ms(&kd_point),
                rtree_point_ms: mean_ms(&rt_point),
                kd_range_ms: mean_ms(&kd_range),
                rtree_range_ms: mean_ms(&rt_range),
                kd_pages: kd.stats().expect("kd stats").pages,
                rtree_pages: rt.stats().pages,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 15: PMR quadtree vs. R-tree on line segments
// ---------------------------------------------------------------------------

/// One per-dataset-size row covering Figure 15.
#[derive(Debug, Clone)]
pub struct SegmentRow {
    /// Number of indexed segments.
    pub size: usize,
    /// Total insertion time, PMR quadtree (ms).
    pub pmr_insert_ms: f64,
    /// Total insertion time, R-tree (ms).
    pub rtree_insert_ms: f64,
    /// Mean exact-match query time, PMR quadtree (ms).
    pub pmr_exact_ms: f64,
    /// Mean exact-match query time, R-tree (ms).
    pub rtree_exact_ms: f64,
    /// Mean window-query time, PMR quadtree (ms).
    pub pmr_window_ms: f64,
    /// Mean window-query time, R-tree (ms).
    pub rtree_window_ms: f64,
    /// Index size in pages, PMR quadtree.
    pub pmr_pages: u64,
    /// Index size in pages, R-tree.
    pub rtree_pages: u64,
}

/// Runs the PMR-quadtree-vs-R-tree segment experiments.
pub fn run_segment_experiments(sizes: &[usize], queries: usize, seed: u64) -> Vec<SegmentRow> {
    sizes
        .iter()
        .map(|&size| {
            let data = segments(size, 10.0, seed);
            let (pmr, pmr_insert) = build_pmr(&data);
            let (rt, rt_insert) = build_rtree_segments(&data);

            let exact_queries = QueryWorkload::existing(&data, queries, seed ^ 0x71);
            let windows = QueryWorkload::windows(queries, 5.0, seed ^ 0x72);

            let mut pmr_exact = Vec::with_capacity(queries);
            let mut rt_exact = Vec::with_capacity(queries);
            for q in &exact_queries {
                pmr_exact.push(timed(|| pmr.equals(*q).expect("pmr equals")).1);
                rt_exact.push(timed(|| rt.segment_match(*q).expect("rtree segment")).1);
            }
            let mut pmr_window = Vec::with_capacity(queries);
            let mut rt_window = Vec::with_capacity(queries);
            for w in &windows {
                pmr_window.push(timed(|| pmr.window(*w).expect("pmr window")).1);
                rt_window.push(timed(|| rt.window(*w).expect("rtree window")).1);
            }

            SegmentRow {
                size,
                pmr_insert_ms: pmr_insert.as_secs_f64() * 1e3,
                rtree_insert_ms: rt_insert.as_secs_f64() * 1e3,
                pmr_exact_ms: mean_ms(&pmr_exact),
                rtree_exact_ms: mean_ms(&rt_exact),
                pmr_window_ms: mean_ms(&pmr_window),
                rtree_window_ms: mean_ms(&rt_window),
                pmr_pages: pmr.stats().expect("pmr stats").pages,
                rtree_pages: rt.stats().pages,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 16: suffix tree vs. sequential scan
// ---------------------------------------------------------------------------

/// One per-dataset-size row covering Figure 16.
#[derive(Debug, Clone)]
pub struct SubstringRow {
    /// Number of indexed strings.
    pub size: usize,
    /// Mean substring-match time over the suffix tree (ms).
    pub suffix_ms: f64,
    /// Mean substring-match time by sequential scan (ms).
    pub seqscan_ms: f64,
}

/// Runs the suffix-tree-vs-sequential-scan substring experiments.
pub fn run_substring_experiments(sizes: &[usize], queries: usize, seed: u64) -> Vec<SubstringRow> {
    sizes
        .iter()
        .map(|&size| {
            let data = words(size, seed);
            let (suffix, _) = build_suffix(&data);
            let (table, _) = build_seqscan(&data);
            let needles = QueryWorkload::substrings(&data, queries, 4, seed ^ 0x81);

            let mut suffix_times = Vec::with_capacity(queries);
            let mut scan_times = Vec::with_capacity(queries);
            for needle in &needles {
                suffix_times.push(timed(|| suffix.substring(needle).expect("suffix")).1);
                scan_times.push(timed(|| table.substring(needle).expect("seqscan")).1);
            }
            SubstringRow {
                size,
                suffix_ms: mean_ms(&suffix_times),
                seqscan_ms: mean_ms(&scan_times),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 17: incremental NN search
// ---------------------------------------------------------------------------

/// One per-`k` row covering Figure 17.
#[derive(Debug, Clone)]
pub struct NnRow {
    /// Number of neighbours requested.
    pub k: usize,
    /// Mean time to retrieve `k` neighbours from the kd-tree (ms).
    pub kd_ms: f64,
    /// Mean time to retrieve `k` neighbours from the point quadtree (ms).
    pub quad_ms: f64,
    /// Mean time to retrieve `k` neighbours from the trie (ms).
    pub trie_ms: f64,
}

/// Runs the NN experiments: `n` tuples per index, `k` varied over `ks`.
pub fn run_nn_experiments(n: usize, ks: &[usize], queries: usize, seed: u64) -> Vec<NnRow> {
    let point_data = points(n, seed);
    let word_data = words(n, seed ^ 0x91);
    let (kd, _) = build_kdtree(&point_data);
    let (quad, _) = build_pquadtree(&point_data);
    let (trie, _) = build_trie(&word_data);

    let nn_points = QueryWorkload::nn_points(queries, seed ^ 0x92);
    let nn_words = QueryWorkload::existing(&word_data, queries, seed ^ 0x93);

    ks.iter()
        .map(|&k| {
            let mut kd_times = Vec::with_capacity(queries);
            let mut quad_times = Vec::with_capacity(queries);
            let mut trie_times = Vec::with_capacity(queries);
            for q in &nn_points {
                kd_times.push(timed(|| kd.nearest(*q, k).expect("kd nn")).1);
                quad_times.push(timed(|| quad.nearest(*q, k).expect("quad nn")).1);
            }
            for q in &nn_words {
                trie_times.push(timed(|| trie.nearest(q, k).expect("trie nn")).1);
            }
            NnRow {
                k,
                kd_ms: mean_ms(&kd_times),
                quad_ms: mean_ms(&quad_times),
                trie_ms: mean_ms(&trie_times),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// One row of the trie-variant ablation (PathShrink / bucket size).
#[derive(Debug, Clone)]
pub struct TrieVariantRow {
    /// Human-readable variant name.
    pub variant: String,
    /// Total nodes in the tree.
    pub nodes: u64,
    /// Maximum height in nodes.
    pub node_height: u32,
    /// Number of pages.
    pub pages: u64,
    /// Mean exact-match query time (ms).
    pub exact_ms: f64,
}

/// Ablation of the trie interface parameters (paper Figures 1 and 2): the
/// patricia (TreeShrink) trie versus the plain NeverShrink trie at two bucket
/// sizes.
pub fn run_trie_variant_ablation(size: usize, queries: usize, seed: u64) -> Vec<TrieVariantRow> {
    let data = words(size, seed);
    let exact_queries = QueryWorkload::existing(&data, queries, seed ^ 0xb1);
    let variants: Vec<(String, TrieOps)> = vec![
        (
            "patricia (TreeShrink, bucket 16)".to_string(),
            TrieOps::patricia(),
        ),
        (
            "plain (NeverShrink, bucket 16)".to_string(),
            TrieOps::never_shrink(),
        ),
        (
            "patricia (TreeShrink, bucket 1)".to_string(),
            TrieOps::with_config(TrieOps::patricia().config().with_bucket_size(1)),
        ),
    ];
    variants
        .into_iter()
        .map(|(name, ops)| {
            let index = TrieIndex::with_ops(experiment_pool(), ops).expect("create trie");
            for (i, w) in data.iter().enumerate() {
                index.insert(w.clone(), i as RowId).expect("insert");
            }
            let stats = index.stats().expect("stats");
            let mut times = Vec::with_capacity(queries);
            for q in &exact_queries {
                times.push(timed(|| index.equals(q).expect("equals")).1);
            }
            TrieVariantRow {
                variant: name,
                nodes: stats.total_nodes(),
                node_height: stats.max_node_height,
                pages: stats.pages,
                exact_ms: mean_ms(&times),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_experiment_shapes_match_the_paper_on_a_small_run() {
        let rows = run_string_experiments(&[2_000], 40, 42);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        // Figure 7 shape: the trie wins regular-expression match decisively.
        assert!(
            row.trie_regex_ms < row.btree_regex_ms,
            "trie regex {} ms should beat btree {} ms",
            row.trie_regex_ms,
            row.btree_regex_ms
        );
        // Prefix, exact and insert timings exist (their ratios are too noisy
        // to assert at this tiny scale).
        assert!(row.btree_prefix_ms > 0.0 && row.trie_prefix_ms > 0.0);
        assert!(row.btree_insert_ms > 0.0 && row.trie_insert_ms > 0.0);
        // Figures 11–12 shape: clustering keeps the page height no larger
        // than the node height (they coincide at this tiny dataset size and
        // diverge as the trie deepens).
        assert!(row.trie_node_height >= row.trie_page_height);
    }

    #[test]
    fn nn_rows_cover_all_requested_ks() {
        let rows = run_nn_experiments(1_000, &[8, 16], 5, 7);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.kd_ms >= 0.0 && r.trie_ms >= 0.0));
    }
}
