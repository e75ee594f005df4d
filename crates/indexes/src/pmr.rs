//! The disk-based PMR quadtree over line segments (paper Section 6,
//! Figure 15).
//!
//! The PMR quadtree is *space-driven*: the world rectangle is recursively
//! quartered regardless of the data distribution, a segment is stored in
//! every leaf quadrant it intersects, and a leaf is split **once** when an
//! insertion pushes it past the splitting threshold (children may remain
//! temporarily over the threshold — the PMR splitting rule, expressed here
//! through `SpGistConfig::split_once`).
//!
//! The node's region is not stored in the tree; it is reconstructed during
//! descent through the [`SpGistOps::Context`] traversal value, exactly like
//! PostgreSQL SP-GiST reconstructs quadrant boxes.

use std::sync::Arc;

use spgist_core::{Choose, NodeShrink, PathShrink, PickSplit, RowId, SpGistConfig, SpGistOps};
use spgist_storage::{BufferPool, StorageResult};

use crate::geom::{Point, Rect, Segment};
use crate::query::SegmentQuery;
use crate::spindex::{SpGistBacked, SpGistIndex, SpIndex};

/// Default PMR splitting threshold (maximum segments per leaf quadrant
/// before a split is triggered).
pub const DEFAULT_SPLITTING_THRESHOLD: usize = 8;

/// The `[0, 100]²` world rectangle of the paper's spatial experiments, for
/// [`PmrQuadtreeIndex::create`].
pub const DEFAULT_WORLD: Rect = Rect {
    min_x: 0.0,
    min_y: 0.0,
    max_x: 100.0,
    max_y: 100.0,
};

/// External methods of the SP-GiST PMR quadtree.
#[derive(Debug, Clone)]
pub struct PmrQuadtreeOps {
    config: SpGistConfig,
    world: Rect,
}

impl PmrQuadtreeOps {
    /// Creates the ops for segments inside `world` with the default
    /// splitting threshold.
    pub fn new(world: Rect) -> Self {
        Self::with_threshold(world, DEFAULT_SPLITTING_THRESHOLD)
    }

    /// Creates the ops with an explicit splitting threshold.
    pub fn with_threshold(world: Rect, threshold: usize) -> Self {
        PmrQuadtreeOps {
            config: SpGistConfig {
                partitions: 4,
                bucket_size: threshold.max(1),
                resolution: 16,
                path_shrink: PathShrink::NeverShrink,
                node_shrink: NodeShrink::KeepEmpty,
                split_once: true,
            },
            world,
        }
    }

    /// The world rectangle this index decomposes.
    pub fn world(&self) -> Rect {
        self.world
    }

    /// Rebuilds the ops from a persisted `(world, config)` pair — the
    /// durable catalog's config round-trip (the splitting threshold lives in
    /// `config.bucket_size`).
    pub fn with_config(world: Rect, config: SpGistConfig) -> Self {
        PmrQuadtreeOps { config, world }
    }
}

impl SpGistOps for PmrQuadtreeOps {
    type Key = Segment;
    type Prefix = Rect;
    type Pred = Rect;
    type Query = SegmentQuery;
    type Context = Rect;

    const REPLICATES: bool = true;

    fn config(&self) -> SpGistConfig {
        self.config
    }

    fn root_context(&self) -> Rect {
        self.world
    }

    fn child_context(&self, _ctx: &Rect, _prefix: Option<&Rect>, pred: &Rect, _level: u32) -> Rect {
        // The entry predicate *is* the child quadrant.
        *pred
    }

    fn key_query(&self, key: &Segment) -> SegmentQuery {
        SegmentQuery::Equals(*key)
    }

    fn consistent(
        &self,
        _prefix: Option<&Rect>,
        pred: &Rect,
        query: &SegmentQuery,
        _level: u32,
    ) -> bool {
        // A query argument reaching beyond the world rectangle cannot
        // prune: segments beyond the world are *parked* under the first
        // quadrant (see [`PmrQuadtreeOps::choose`]) rather than placed
        // geometrically, so quadrant tests say nothing about where their
        // matches live — and any query poking past the world boundary (even
        // one that also overlaps it) may match such a parked segment.
        // Descending everywhere keeps them reachable; the leaf re-check
        // still applies the exact predicate.  Queries whose argument lies
        // entirely inside the world prune normally: a parked segment
        // intersects no part of the world, so it cannot match them.
        match query {
            SegmentQuery::Equals(s) => {
                s.intersects_rect(pred) || !self.world.contains_rect(&s.mbr())
            }
            SegmentQuery::InRect(r) => r.intersects(pred) || !self.world.contains_rect(r),
            SegmentQuery::Nearest(_) => true,
        }
    }

    fn leaf_consistent(&self, key: &Segment, query: &SegmentQuery, _level: u32) -> bool {
        query.matches(key)
    }

    fn choose(
        &self,
        _prefix: Option<&Rect>,
        preds: &[Rect],
        key: &Segment,
        _level: u32,
    ) -> Choose<Rect, Rect> {
        // A segment descends into every quadrant it intersects.
        let indices: Vec<usize> = preds
            .iter()
            .enumerate()
            .filter(|(_, quadrant)| key.intersects_rect(quadrant))
            .map(|(idx, _)| idx)
            .collect();
        if indices.is_empty() {
            // The segment lies outside the world bounds; keep it reachable by
            // storing it under the first quadrant (its leaf re-check still
            // applies the exact predicate).
            Choose::Descend(vec![0])
        } else {
            Choose::Descend(indices)
        }
    }

    fn picksplit(&self, items: &[(Segment, RowId)], _: u32, ctx: &Rect) -> PickSplit<Rect, Rect> {
        let quadrants = ctx.quadrants();
        let partitions = quadrants
            .iter()
            .map(|quadrant| {
                let members: Vec<usize> = items
                    .iter()
                    .enumerate()
                    .filter(|(_, (s, _))| s.intersects_rect(quadrant))
                    .map(|(idx, _)| idx)
                    .collect();
                (*quadrant, members)
            })
            .collect();
        PickSplit {
            prefix: None,
            partitions,
        }
    }

    fn inner_distance(
        &self,
        _prefix: Option<&Rect>,
        pred: &Rect,
        query: &SegmentQuery,
        parent_dist: f64,
        _level: u32,
    ) -> f64 {
        let SegmentQuery::Nearest(q) = query else {
            return parent_dist;
        };
        // The entry predicate is the child quadrant: no segment stored
        // inside it can be closer to the anchor than the quadrant itself.
        // Segments lying entirely outside the world rectangle are parked
        // under the first quadrant, where this bound is not admissible —
        // their NN order is only exact for in-world data (see
        // [`PmrQuadtreeIndex::nearest`]).
        parent_dist.max(pred.min_distance(q))
    }

    fn leaf_distance(&self, key: &Segment, query: &SegmentQuery) -> f64 {
        match query {
            SegmentQuery::Nearest(q) => key.distance_to_point(q),
            SegmentQuery::Equals(_) | SegmentQuery::InRect(_) => 0.0,
        }
    }
}

/// A disk-based PMR quadtree index over line segments.
///
/// A segment is replicated in every quadrant it crosses
/// ([`PmrQuadtreeOps::REPLICATES`](SpGistOps::REPLICATES)), so the
/// [`SpIndex`] cursor deduplicates results by row id, and
/// [`SpIndex::delete`] removes every replica of the `(segment, row)` item
/// while counting one logical removal.
///
/// [`SpIndex::bulk_build`] replicates every segment into the world
/// partitions as it recursively quarters the space (the space-oriented
/// packing of the space-driven quadtree: partition membership is decided by
/// geometry, so no [`SpGistOps::bulk_prepare`] hint is needed), decomposing
/// quadrants past the splitting threshold all the way down instead of
/// once-per-insert — segments entirely outside the world rectangle are
/// parked in the first quadrant exactly as the insert path parks them.
pub type PmrQuadtreeIndex = SpGistIndex<PmrQuadtreeOps>;

impl PmrQuadtreeIndex {
    /// Creates a PMR quadtree decomposing `world` with the default splitting
    /// threshold.
    pub fn create(pool: Arc<BufferPool>, world: Rect) -> StorageResult<Self> {
        Self::with_ops(pool, PmrQuadtreeOps::new(world))
    }

    /// The world rectangle this index decomposes (persisted by the durable
    /// catalog).
    pub fn world(&self) -> Rect {
        self.backing().ops().world()
    }

    /// Exact-match query: rows whose segment equals `segment`.
    pub fn equals(&self, segment: Segment) -> StorageResult<Vec<RowId>> {
        let mut rows = self.cursor(&SegmentQuery::Equals(segment))?.rows()?;
        rows.sort_unstable();
        Ok(rows)
    }

    /// Window (range) query: `(segment, row)` pairs intersecting `rect`,
    /// deduplicated by row id.
    pub fn window(&self, rect: Rect) -> StorageResult<Vec<(Segment, RowId)>> {
        self.execute(&SegmentQuery::InRect(rect))
    }

    /// `@@` operator: the `k` segments nearest to `query` (minimum Euclidean
    /// distance from the anchor point to the segment), nearest first and
    /// deduplicated by row id.
    ///
    /// Exact for segments inside the index's world rectangle; segments
    /// stored entirely outside it carry no usable quadrant bound and may
    /// surface out of order.
    pub fn nearest(&self, query: Point, k: usize) -> StorageResult<Vec<(Segment, RowId, f64)>> {
        let ordered = self.ordered_cursor(&SegmentQuery::Nearest(query))?;
        ordered
            .expect("every SpGistIndex scans in distance order")
            .take(k)
            .map(|item| item.map(|(s, row)| (s, row, s.distance_to_point(&query))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Point;

    const WORLD: Rect = Rect {
        min_x: 0.0,
        min_y: 0.0,
        max_x: 100.0,
        max_y: 100.0,
    };

    fn segments() -> Vec<Segment> {
        vec![
            Segment::new(Point::new(5.0, 5.0), Point::new(20.0, 15.0)),
            Segment::new(Point::new(50.0, 50.0), Point::new(90.0, 90.0)),
            Segment::new(Point::new(10.0, 80.0), Point::new(30.0, 60.0)),
            Segment::new(Point::new(0.0, 50.0), Point::new(100.0, 50.0)), // spans the world
            Segment::new(Point::new(75.0, 10.0), Point::new(75.0, 40.0)),
        ]
    }

    fn index() -> PmrQuadtreeIndex {
        let index = PmrQuadtreeIndex::create(BufferPool::in_memory(), WORLD).unwrap();
        for (i, s) in segments().iter().enumerate() {
            index.insert(*s, i as RowId).unwrap();
        }
        index
    }

    #[test]
    fn exact_match_finds_each_segment_once() {
        let index = index();
        for (i, s) in segments().iter().enumerate() {
            assert_eq!(index.equals(*s).unwrap(), vec![i as RowId]);
        }
        let missing = Segment::new(Point::new(1.0, 1.0), Point::new(2.0, 1.0));
        assert!(index.equals(missing).unwrap().is_empty());
    }

    #[test]
    fn window_query_matches_scan_and_deduplicates() {
        let index = index();
        let window = Rect::new(40.0, 40.0, 80.0, 80.0);
        let mut hits: Vec<RowId> = index
            .window(window)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        hits.sort_unstable();
        let expected: Vec<RowId> = segments()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.intersects_rect(&window))
            .map(|(i, _)| i as RowId)
            .collect();
        assert_eq!(hits, expected);
    }

    #[test]
    fn many_segments_force_quadrant_splits() {
        let mut state = 7u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / u32::MAX as f64) * 100.0
        };
        let mut segs = Vec::new();
        for _ in 0..800 {
            let a = Point::new(next(), next());
            let b = Point::new(
                (a.x + next() / 10.0).min(100.0),
                (a.y + next() / 10.0).min(100.0),
            );
            segs.push(Segment::new(a, b));
        }
        let index = PmrQuadtreeIndex::create(BufferPool::in_memory(), WORLD).unwrap();
        for (i, s) in segs.iter().enumerate() {
            index.insert(*s, i as RowId).unwrap();
        }
        let stats = index.stats().unwrap();
        assert!(
            stats.inner_nodes > 0,
            "splitting threshold must trigger splits"
        );
        assert_eq!(index.len(), 800);

        // Window query agrees with a scan.
        let window = Rect::new(25.0, 25.0, 45.0, 55.0);
        let expected = segs.iter().filter(|s| s.intersects_rect(&window)).count();
        assert_eq!(index.window(window).unwrap().len(), expected);

        // Exact match for a sample of segments.
        for (i, s) in segs.iter().enumerate().step_by(97) {
            assert_eq!(index.equals(*s).unwrap(), vec![i as RowId]);
        }
    }

    #[test]
    fn segment_outside_world_is_still_searchable() {
        let index = index();
        let outside = Segment::new(Point::new(150.0, 150.0), Point::new(160.0, 160.0));
        index.insert(outside, 99).unwrap();
        assert_eq!(index.equals(outside).unwrap(), vec![99]);
    }

    #[test]
    fn segment_outside_world_stays_reachable_after_splits() {
        // Regression: once the root has decomposed, quadrant pruning used to
        // hide parked out-of-world segments from every search — `consistent`
        // must stop pruning for query arguments beyond the world.
        let index = PmrQuadtreeIndex::create(BufferPool::in_memory(), WORLD).unwrap();
        let outside = Segment::new(Point::new(150.0, 150.0), Point::new(160.0, 160.0));
        index.insert(outside, 999).unwrap();
        for (i, s) in segments().iter().cycle().take(60).enumerate() {
            index.insert(*s, i as RowId).unwrap();
        }
        let stats = index.stats().unwrap();
        assert!(stats.inner_nodes > 0, "the tree must actually have split");
        assert_eq!(index.equals(outside).unwrap(), vec![999]);
        let window = Rect::new(140.0, 140.0, 170.0, 170.0);
        assert_eq!(
            index
                .window(window)
                .unwrap()
                .into_iter()
                .map(|(_, r)| r)
                .collect::<Vec<_>>(),
            vec![999],
            "an out-of-world window finds the parked segment"
        );
        // A window *straddling* the world boundary may match parked
        // segments too; pruning by quadrants would hide them (this window
        // overlaps the world but avoids the NW quadrant where strays park).
        let straddling = Rect::new(60.0, 0.0, 170.0, 170.0);
        let rows: Vec<RowId> = index
            .window(straddling)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert!(
            rows.contains(&999),
            "a boundary-straddling window finds the parked segment (got {rows:?})"
        );
        assert!(index.delete(&outside, 999).unwrap());
        assert!(index.equals(outside).unwrap().is_empty());
    }

    #[test]
    fn delete_removes_every_replica_of_a_segment() {
        let index = PmrQuadtreeIndex::create(BufferPool::in_memory(), WORLD).unwrap();
        // Enough segments to force quadrant splits, so the world-spanning
        // segment is replicated across several leaves.
        let mut segs = segments();
        for i in 0..40 {
            let t = f64::from(i);
            segs.push(Segment::new(
                Point::new(t * 2.0, 5.0),
                Point::new(t * 2.0 + 5.0, 95.0),
            ));
        }
        for (i, s) in segs.iter().enumerate() {
            index.insert(*s, i as RowId).unwrap();
        }
        let spanning = segs[3]; // (0,50)-(100,50): crosses every column
        assert_eq!(index.equals(spanning).unwrap(), vec![3]);
        assert!(index.delete(&spanning, 3).unwrap());
        assert!(index.equals(spanning).unwrap().is_empty());
        assert_eq!(index.len(), segs.len() as u64 - 1);
        // A window query over the whole world no longer reports row 3.
        let rows: Vec<RowId> = index
            .window(WORLD)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert!(!rows.contains(&3));
        // Second delete finds nothing and the count is untouched.
        assert!(!index.delete(&spanning, 3).unwrap());
        assert_eq!(index.len(), segs.len() as u64 - 1);
    }

    #[test]
    fn nearest_segments_match_brute_force() {
        let index = index();
        let anchor = Point::new(60.0, 55.0);
        let nn = index.nearest(anchor, 3).unwrap();
        assert_eq!(nn.len(), 3);
        assert!(nn.windows(2).all(|w| w[0].2 <= w[1].2));
        let mut brute: Vec<f64> = segments()
            .iter()
            .map(|s| s.distance_to_point(&anchor))
            .collect();
        brute.sort_by(f64::total_cmp);
        for (i, (_, _, d)) in nn.iter().enumerate() {
            assert!((d - brute[i]).abs() < 1e-9, "k={i} distance mismatch");
        }
        // A replicated segment (the world spanner) is reported once.
        let all = index.nearest(anchor, 100).unwrap();
        assert_eq!(all.len(), segments().len());
        let mut rows: Vec<RowId> = all.iter().map(|(_, r, _)| *r).collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn duplicate_segments_report_each_row() {
        let index = PmrQuadtreeIndex::create(BufferPool::in_memory(), WORLD).unwrap();
        let s = Segment::new(Point::new(10.0, 10.0), Point::new(60.0, 60.0));
        for row in 0..4 {
            index.insert(s, row).unwrap();
        }
        assert_eq!(index.equals(s).unwrap(), vec![0, 1, 2, 3]);
        let window_hits = index.window(Rect::new(0.0, 0.0, 100.0, 100.0)).unwrap();
        assert_eq!(window_hits.len(), 4);
    }
}
