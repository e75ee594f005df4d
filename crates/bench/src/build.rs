//! Build experiment: insert-loop loading vs. the `spgistbuild` bulk build
//! (paper Section 4).
//!
//! For each of the five index classes the same data set is loaded twice on
//! identical eviction-bounded buffer pools:
//!
//! * **insert loop** — one [`SpIndex::insert`] per item, the pre-`bulk_build`
//!   status quo: every key walks from the root and hot pages are re-dirtied
//!   (and, once the pool is smaller than the tree, written back) over and
//!   over as splits reshape them;
//! * **bulk build** — one [`SpIndex::bulk_build`] call: the whole set is
//!   partitioned top-down with `picksplit` and every node is allocated and
//!   written once.
//!
//! Reported per side: wall-clock, physical page writes (including the final
//! flush — the deterministic component of the comparison), resulting pages,
//! tree height in pages, and page fill.  The pool is deliberately smaller
//! than the built indexes ([`BUILD_POOL_PAGES`]) so the numbers show
//! *eviction-bounded* builds — the regime the 2M–32M-key experiments live
//! in.

use std::sync::Arc;

use spgist_core::RowId;
use spgist_datagen::{points, segments, words, world};
use spgist_indexes::{
    KdTreeIndex, PmrQuadtreeIndex, PointQuadtreeIndex, SpIndex, SuffixTreeIndex, TrieIndex,
};
use spgist_storage::{BufferPool, BufferPoolConfig, MemPager};

use crate::stats::timed;

/// Buffer-pool frames for the build experiment: deliberately smaller than
/// every index built even at `--scale 1`, so both sides pay eviction
/// write-backs — the regime a full-scale (2M–32M-key) build lives in, where
/// no pool holds the tree.
pub const BUILD_POOL_PAGES: usize = 16;

/// One measured load (either side of the comparison).
#[derive(Debug, Clone, Copy)]
pub struct BuildSide {
    /// Wall-clock milliseconds for the whole load.
    pub ms: f64,
    /// Physical page writes during the load, including the final flush.
    pub writes: u64,
    /// Buffer-pool hit rate over the whole load, in `[0, 1]`.
    pub hit_rate: f64,
    /// Pages of the resulting tree.
    pub pages: u64,
    /// Resulting maximum tree height in pages.
    pub page_height: u32,
    /// Resulting page fill (fraction of page bytes holding node data).
    pub fill: f64,
}

/// One class's insert-loop vs. bulk-build comparison.
#[derive(Debug, Clone)]
pub struct BuildRow {
    /// Index class under test.
    pub class: &'static str,
    /// Number of logical items loaded.
    pub rows: usize,
    /// The insert-loop side.
    pub insert: BuildSide,
    /// The bulk-build side.
    pub bulk: BuildSide,
}

impl BuildRow {
    /// Wall-clock speedup of the bulk build over the insert loop.
    pub fn speedup(&self) -> f64 {
        self.insert.ms / self.bulk.ms.max(1e-9)
    }
}

fn bounded_pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(
        Arc::new(MemPager::new()),
        BufferPoolConfig {
            capacity: BUILD_POOL_PAGES,
            ..Default::default()
        },
    ))
}

fn measure<I: SpIndex>(
    pool: &Arc<BufferPool>,
    index: &I,
    items: Vec<(I::Key, RowId)>,
    bulk: bool,
) -> BuildSide {
    pool.reset_stats();
    let (_, elapsed) = timed(|| {
        if bulk {
            index.bulk_build(items).expect("bulk build");
        } else {
            for (key, row) in items {
                index.insert(key, row).expect("insert");
            }
        }
    });
    pool.flush_all().expect("flush");
    let io = pool.stats();
    let stats = index.stats().expect("stats");
    BuildSide {
        ms: elapsed.as_secs_f64() * 1e3,
        writes: io.physical_writes,
        hit_rate: io.hit_ratio(),
        pages: stats.pages,
        page_height: stats.max_page_height,
        fill: stats.utilization,
    }
}

fn compare<I: SpIndex>(class: &'static str, items: Vec<(I::Key, RowId)>) -> BuildRow {
    let rows = items.len();
    let insert_pool = bounded_pool();
    let insert_ix = I::open(Arc::clone(&insert_pool)).expect("open index");
    let insert = measure(&insert_pool, &insert_ix, items.clone(), false);
    let bulk_pool = bounded_pool();
    let bulk_ix = I::open(Arc::clone(&bulk_pool)).expect("open index");
    let bulk = measure(&bulk_pool, &bulk_ix, items, true);
    assert_eq!(
        insert_ix.len(),
        bulk_ix.len(),
        "{class}: both loads hold the same logical item count"
    );
    BuildRow {
        class,
        rows,
        insert,
        bulk,
    }
}

/// Runs the build comparison for all five index classes at `--scale`-scaled
/// sizes.  [`PmrQuadtreeIndex`]'s default world is the paper's `[0, 100]²`
/// space, matching the segment generator's [`world`].
pub fn run_build_experiment(scale: usize, seed: u64) -> Vec<BuildRow> {
    let scale = scale.max(1);
    // A real assert: the experiment runs in release, and a diverged world
    // would silently park every segment as out-of-world on the PMR side.
    assert_eq!(
        spgist_indexes::pmr::DEFAULT_WORLD,
        world(),
        "segment data must live inside the PMR default world"
    );
    let word_items = |n: usize, seed| -> Vec<(String, RowId)> {
        words(n, seed)
            .into_iter()
            .enumerate()
            .map(|(row, w)| (w, row as RowId))
            .collect()
    };
    let point_items: Vec<_> = points(10_000 * scale, seed ^ 0xb1)
        .into_iter()
        .enumerate()
        .map(|(row, p)| (p, row as RowId))
        .collect();
    let segment_items: Vec<_> = segments(4_000 * scale, 10.0, seed ^ 0xb2)
        .into_iter()
        .enumerate()
        .map(|(row, s)| (s, row as RowId))
        .collect();
    vec![
        compare::<TrieIndex>("trie", word_items(8_000 * scale, seed)),
        compare::<SuffixTreeIndex>("suffix", word_items(2_000 * scale, seed ^ 0xb0)),
        compare::<KdTreeIndex>("kdtree", point_items.clone()),
        compare::<PointQuadtreeIndex>("pquadtree", point_items),
        compare::<PmrQuadtreeIndex>("pmr", segment_items),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_experiment_shapes_hold_at_tiny_scale() {
        let rows = run_build_experiment(1, 42);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.rows > 0);
            assert!(r.insert.writes > 0 && r.bulk.writes > 0);
            assert!(
                r.bulk.writes < r.insert.writes,
                "{}: bulk build must write fewer pages ({} vs {})",
                r.class,
                r.bulk.writes,
                r.insert.writes
            );
            assert!(r.bulk.page_height >= 1 && r.insert.page_height >= 1);
        }
    }
}
