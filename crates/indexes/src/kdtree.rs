//! The disk-based kd-tree (paper Table 1, Figure 3(b)).
//!
//! Every inner node stores one data point (the *old point* of the paper's
//! PickSplit description) as its prefix; entries discriminate on the x
//! coordinate at even levels and on the y coordinate at odd levels:
//! `Left` (strictly smaller), `Right` (greater or equal), and `Here` (the
//! split point itself — the paper's *blank* predicate).  `BucketSize = 1` and
//! `NoOfSpacePartitions = 2`, as in Table 1.
//!
//! Registered operators (paper Table 4): `@` point equality, `^` range
//! (inside a box), and `@@` incremental NN under the Euclidean distance.

use spgist_core::{Choose, NodeShrink, PathShrink, PickSplit, RowId, SpGistConfig, SpGistOps};
use spgist_storage::{Codec, StorageError, StorageResult};

use crate::geom::{Point, Rect};
use crate::query::PointQuery;
use crate::spindex::{SpGistBacked, SpGistIndex, SpIndex};

/// Partition predicate of the kd-tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KdSide {
    /// Coordinate strictly smaller than the split point's.
    Left,
    /// Coordinate greater than or equal to the split point's.
    Right,
    /// The split point itself (the paper's *blank* child).
    Here,
}

impl Codec for KdSide {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            KdSide::Left => 0,
            KdSide::Right => 1,
            KdSide::Here => 2,
        };
        tag.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> StorageResult<Self> {
        match u8::decode(buf)? {
            0 => Ok(KdSide::Left),
            1 => Ok(KdSide::Right),
            2 => Ok(KdSide::Here),
            other => Err(StorageError::Decode(format!("invalid KdSide tag {other}"))),
        }
    }
}

/// External methods of the SP-GiST kd-tree.
#[derive(Debug, Clone)]
pub struct KdTreeOps {
    config: SpGistConfig,
}

impl Default for KdTreeOps {
    fn default() -> Self {
        KdTreeOps {
            config: SpGistConfig {
                partitions: 2,
                bucket_size: 1,
                resolution: 64,
                path_shrink: PathShrink::NeverShrink,
                node_shrink: NodeShrink::KeepEmpty,
                split_once: false,
            },
        }
    }
}

impl KdTreeOps {
    /// Builds the ops from an explicit configuration (larger bucket sizes
    /// make a bucketed kd-tree; the paper's configuration uses 1).
    pub fn with_config(config: SpGistConfig) -> Self {
        KdTreeOps { config }
    }

    fn side_of(split: &Point, p: &Point, level: u32) -> KdSide {
        if p == split {
            KdSide::Here
        } else if p.coord(level) < split.coord(level) {
            KdSide::Left
        } else {
            KdSide::Right
        }
    }
}

impl SpGistOps for KdTreeOps {
    type Key = Point;
    type Prefix = Point;
    type Pred = KdSide;
    type Query = PointQuery;
    type Context = ();

    fn config(&self) -> SpGistConfig {
        self.config
    }

    fn key_query(&self, key: &Point) -> PointQuery {
        PointQuery::Equals(*key)
    }

    fn consistent(
        &self,
        prefix: Option<&Point>,
        pred: &KdSide,
        query: &PointQuery,
        level: u32,
    ) -> bool {
        let Some(split) = prefix else {
            // An inner kd-tree node always carries its split point; be
            // conservative if it is missing.
            return true;
        };
        let c = split.coord(level);
        match query {
            PointQuery::Equals(p) => match pred {
                KdSide::Left => p.coord(level) < c,
                KdSide::Right => p.coord(level) >= c,
                KdSide::Here => p == split,
            },
            PointQuery::InRect(r) => {
                let (lo, hi) = if level.is_multiple_of(2) {
                    (r.min_x, r.max_x)
                } else {
                    (r.min_y, r.max_y)
                };
                match pred {
                    KdSide::Left => lo < c,
                    KdSide::Right => hi >= c,
                    KdSide::Here => r.contains_point(split),
                }
            }
            PointQuery::Nearest(_) => true,
        }
    }

    fn leaf_consistent(&self, key: &Point, query: &PointQuery, _level: u32) -> bool {
        query.matches(key)
    }

    fn choose(
        &self,
        prefix: Option<&Point>,
        preds: &[KdSide],
        key: &Point,
        level: u32,
    ) -> Choose<KdSide, Point> {
        let side = match prefix {
            // The paper routes new points left or right only; `Here` is
            // reserved for the split point stored at PickSplit time, and
            // exact duplicates of it go right.
            Some(split) => {
                if key.coord(level) < split.coord(level) {
                    KdSide::Left
                } else {
                    KdSide::Right
                }
            }
            None => KdSide::Right,
        };
        match preds.iter().position(|p| *p == side) {
            Some(idx) => Choose::Descend(vec![idx]),
            None => Choose::AddEntry(side),
        }
    }

    fn picksplit(&self, items: &[(Point, RowId)], level: u32, _: &()) -> PickSplit<Point, KdSide> {
        // "Put the old point in a child node with predicate blank" — the
        // first item of the overfull node plays the role of the old point.
        let split = items[0].0;
        let mut partitions = vec![
            (KdSide::Left, Vec::new()),
            (KdSide::Right, Vec::new()),
            (KdSide::Here, vec![0]),
        ];
        for (idx, (p, _)) in items.iter().enumerate().skip(1) {
            match Self::side_of(&split, p, level) {
                KdSide::Left => partitions[0].1.push(idx),
                KdSide::Right | KdSide::Here => partitions[1].1.push(idx),
            }
        }
        PickSplit {
            prefix: Some(split),
            partitions,
        }
    }

    fn bulk_prepare(&self, items: &mut [(Point, RowId)], level: u32, _ctx: &()) {
        // STR-flavored median split: `picksplit` discriminates on the first
        // item (the paper's "old point"), so moving the median in this
        // level's coordinate to the front makes every bulk-build split cut
        // the partition in half — a balanced kd-tree instead of whatever
        // insertion order would have produced.
        if items.len() < 2 {
            return;
        }
        let mid = items.len() / 2;
        items.select_nth_unstable_by(mid, |a, b| a.0.coord(level).total_cmp(&b.0.coord(level)));
        items.swap(0, mid);
    }

    fn inner_distance(
        &self,
        prefix: Option<&Point>,
        pred: &KdSide,
        query: &PointQuery,
        parent_dist: f64,
        level: u32,
    ) -> f64 {
        let (PointQuery::Nearest(q) | PointQuery::Equals(q)) = query else {
            return parent_dist;
        };
        let Some(split) = prefix else {
            return parent_dist;
        };
        let c = split.coord(level);
        let qc = q.coord(level);
        let plane_dist = match pred {
            KdSide::Left => {
                if qc < c {
                    0.0
                } else {
                    qc - c
                }
            }
            KdSide::Right => {
                if qc >= c {
                    0.0
                } else {
                    c - qc
                }
            }
            KdSide::Here => split.distance(q),
        };
        parent_dist.max(plane_dist)
    }

    fn leaf_distance(&self, key: &Point, query: &PointQuery) -> f64 {
        match query {
            PointQuery::Nearest(q) | PointQuery::Equals(q) => key.distance(q),
            PointQuery::InRect(r) => r.min_distance(key),
        }
    }
}

/// A disk-based kd-tree index over 2-D points (the paper's `SP_GiST_kdtree`
/// operator class).
pub type KdTreeIndex = SpGistIndex<KdTreeOps>;

/// The operators both point classes register (paper Table 4) — the kd-tree
/// and the point quadtree — as sugar over [`SpIndex`].
impl<O: SpGistOps<Key = Point, Query = PointQuery>> SpGistIndex<O> {
    /// `@` operator: rows whose point equals `point`.
    pub fn equals(&self, point: Point) -> StorageResult<Vec<RowId>> {
        self.cursor(&PointQuery::Equals(point))?.rows()
    }

    /// `^` operator: `(point, row)` pairs inside the box.
    pub fn range(&self, rect: Rect) -> StorageResult<Vec<(Point, RowId)>> {
        self.execute(&PointQuery::InRect(rect))
    }

    /// `@@` operator: the `k` nearest points to `query`, nearest first.
    pub fn nearest(&self, query: Point, k: usize) -> StorageResult<Vec<(Point, RowId, f64)>> {
        self.backing().nn_search(PointQuery::Nearest(query), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgist_storage::BufferPool;

    /// The city points of the paper's Figure 3.
    fn cities() -> Vec<(&'static str, Point)> {
        vec![
            ("Chicago", Point::new(35.0, 42.0)),
            ("Mobile", Point::new(52.0, 10.0)),
            ("Toronto", Point::new(62.0, 77.0)),
            ("Buffalo", Point::new(82.0, 65.0)),
            ("Denver", Point::new(5.0, 45.0)),
            ("Omaha", Point::new(27.0, 35.0)),
            ("Atlanta", Point::new(85.0, 15.0)),
        ]
    }

    fn city_index() -> KdTreeIndex {
        let index = KdTreeIndex::create(BufferPool::in_memory()).unwrap();
        for (i, (_, p)) in cities().iter().enumerate() {
            index.insert(*p, i as RowId).unwrap();
        }
        index
    }

    #[test]
    fn point_match_finds_each_city() {
        let index = city_index();
        for (i, (_, p)) in cities().iter().enumerate() {
            assert_eq!(index.equals(*p).unwrap(), vec![i as RowId]);
        }
        assert!(index.equals(Point::new(1.0, 1.0)).unwrap().is_empty());
    }

    #[test]
    fn range_query_matches_linear_scan() {
        let index = city_index();
        let rect = Rect::new(20.0, 20.0, 70.0, 80.0);
        let mut hits: Vec<RowId> = index
            .range(rect)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        hits.sort_unstable();
        let expected: Vec<RowId> = cities()
            .iter()
            .enumerate()
            .filter(|(_, (_, p))| rect.contains_point(p))
            .map(|(i, _)| i as RowId)
            .collect();
        assert_eq!(hits, expected);
        assert!(!hits.is_empty());
    }

    #[test]
    fn nearest_neighbours_in_euclidean_order() {
        let index = city_index();
        let query = Point::new(30.0, 40.0);
        let nn = index.nearest(query, cities().len()).unwrap();
        assert_eq!(nn.len(), cities().len());
        assert!(nn.windows(2).all(|w| w[0].2 <= w[1].2));
        // Brute-force closest.
        let brute = cities()
            .iter()
            .map(|(_, p)| p.distance(&query))
            .fold(f64::INFINITY, f64::min);
        assert!((nn[0].2 - brute).abs() < 1e-9);
    }

    #[test]
    fn large_uniform_dataset_queries_match_scan() {
        // Deterministic pseudo-random points via a small LCG.
        let mut state = 12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / u32::MAX as f64) * 100.0
        };
        let points: Vec<Point> = (0..4000).map(|_| Point::new(next(), next())).collect();
        let index = KdTreeIndex::create(BufferPool::in_memory()).unwrap();
        for (i, p) in points.iter().enumerate() {
            index.insert(*p, i as RowId).unwrap();
        }
        // Exact match.
        for (i, p) in points.iter().enumerate().step_by(331) {
            assert!(index.equals(*p).unwrap().contains(&(i as RowId)));
        }
        // Range query vs. scan.
        let rect = Rect::new(25.0, 25.0, 40.0, 60.0);
        let expected = points.iter().filter(|p| rect.contains_point(p)).count();
        assert_eq!(index.range(rect).unwrap().len(), expected);
        // Stats: bucket size 1 means at least as many leaves as points.
        let stats = index.stats().unwrap();
        assert_eq!(stats.items, 4000);
        assert!(stats.max_node_height > 10, "kd-tree is a deep binary tree");
        assert!(
            stats.max_page_height < stats.max_node_height,
            "online clustering must keep page height below node height"
        );
    }

    #[test]
    fn duplicate_points_are_retrievable_and_deletable() {
        let index = KdTreeIndex::create(BufferPool::in_memory()).unwrap();
        let p = Point::new(10.0, 20.0);
        for row in 0..5 {
            index.insert(p, row).unwrap();
        }
        assert_eq!(index.equals(p).unwrap().len(), 5);
        assert!(index.delete(&p, 3).unwrap());
        let rows = index.equals(p).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(!rows.contains(&3));
    }

    #[test]
    fn nn_on_empty_index_is_empty() {
        let index = KdTreeIndex::create(BufferPool::in_memory()).unwrap();
        assert!(index.nearest(Point::new(0.0, 0.0), 5).unwrap().is_empty());
        assert!(index.is_empty());
    }
}
