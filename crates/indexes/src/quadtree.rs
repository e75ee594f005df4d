//! The disk-based point quadtree (paper Figure 3(a)).
//!
//! Each inner node stores one data point that splits the plane into four
//! quadrants (`NoOfSpacePartitions = 4`); the point itself lives under the
//! *here* (blank) predicate.  This is the data-driven quadtree of the paper,
//! as opposed to the space-driven PMR quadtree in [`crate::pmr`].

use spgist_core::{Choose, NodeShrink, PathShrink, PickSplit, RowId, SpGistConfig, SpGistOps};
use spgist_storage::{Codec, StorageError, StorageResult};

use crate::geom::Point;
use crate::query::PointQuery;
use crate::spindex::SpGistIndex;

/// Partition predicate of the point quadtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quadrant {
    /// x < split.x, y ≥ split.y
    NorthWest,
    /// x ≥ split.x, y ≥ split.y
    NorthEast,
    /// x < split.x, y < split.y
    SouthWest,
    /// x ≥ split.x, y < split.y
    SouthEast,
    /// The split point itself (the *blank* child).
    Here,
}

impl Codec for Quadrant {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            Quadrant::NorthWest => 0,
            Quadrant::NorthEast => 1,
            Quadrant::SouthWest => 2,
            Quadrant::SouthEast => 3,
            Quadrant::Here => 4,
        };
        tag.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> StorageResult<Self> {
        match u8::decode(buf)? {
            0 => Ok(Quadrant::NorthWest),
            1 => Ok(Quadrant::NorthEast),
            2 => Ok(Quadrant::SouthWest),
            3 => Ok(Quadrant::SouthEast),
            4 => Ok(Quadrant::Here),
            other => Err(StorageError::Decode(format!(
                "invalid Quadrant tag {other}"
            ))),
        }
    }
}

impl Quadrant {
    /// Quadrant of `p` relative to `split` (never `Here`).
    fn of(split: &Point, p: &Point) -> Quadrant {
        match (p.x < split.x, p.y < split.y) {
            (true, false) => Quadrant::NorthWest,
            (false, false) => Quadrant::NorthEast,
            (true, true) => Quadrant::SouthWest,
            (false, true) => Quadrant::SouthEast,
        }
    }
}

/// External methods of the SP-GiST point quadtree.
#[derive(Debug, Clone)]
pub struct PointQuadtreeOps {
    config: SpGistConfig,
}

impl Default for PointQuadtreeOps {
    fn default() -> Self {
        PointQuadtreeOps {
            config: SpGistConfig {
                partitions: 4,
                bucket_size: 1,
                resolution: 64,
                path_shrink: PathShrink::NeverShrink,
                node_shrink: NodeShrink::KeepEmpty,
                split_once: false,
            },
        }
    }
}

impl PointQuadtreeOps {
    /// Builds the ops from an explicit configuration.
    pub fn with_config(config: SpGistConfig) -> Self {
        PointQuadtreeOps { config }
    }
}

impl SpGistOps for PointQuadtreeOps {
    type Key = Point;
    type Prefix = Point;
    type Pred = Quadrant;
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
        pred: &Quadrant,
        query: &PointQuery,
        _level: u32,
    ) -> bool {
        let Some(split) = prefix else {
            return true;
        };
        match query {
            PointQuery::Equals(p) => match pred {
                Quadrant::Here => p == split,
                // Duplicates of the split point are routed to the north-east
                // child, so the quadrant test alone (without excluding the
                // split point) keeps them reachable.
                q => Quadrant::of(split, p) == *q,
            },
            PointQuery::InRect(r) => match pred {
                Quadrant::Here => r.contains_point(split),
                Quadrant::NorthWest => r.min_x < split.x && r.max_y >= split.y,
                Quadrant::NorthEast => r.max_x >= split.x && r.max_y >= split.y,
                Quadrant::SouthWest => r.min_x < split.x && r.min_y < split.y,
                Quadrant::SouthEast => r.max_x >= split.x && r.min_y < split.y,
            },
            PointQuery::Nearest(_) => true,
        }
    }

    fn leaf_consistent(&self, key: &Point, query: &PointQuery, _level: u32) -> bool {
        query.matches(key)
    }

    fn choose(
        &self,
        prefix: Option<&Point>,
        preds: &[Quadrant],
        key: &Point,
        _level: u32,
    ) -> Choose<Quadrant, Point> {
        let quadrant = match prefix {
            Some(split) => Quadrant::of(split, key),
            None => Quadrant::NorthEast,
        };
        match preds.iter().position(|p| *p == quadrant) {
            Some(idx) => Choose::Descend(idx),
            None => Choose::AddEntry(quadrant),
        }
    }

    fn picksplit(&self, items: &[(Point, RowId)], _: u32, _: &()) -> PickSplit<Point, Quadrant> {
        let split = items[0].0;
        let mut partitions = vec![
            (Quadrant::NorthWest, Vec::new()),
            (Quadrant::NorthEast, Vec::new()),
            (Quadrant::SouthWest, Vec::new()),
            (Quadrant::SouthEast, Vec::new()),
            (Quadrant::Here, vec![0]),
        ];
        for (idx, (p, _)) in items.iter().enumerate().skip(1) {
            let slot = match Quadrant::of(&split, p) {
                Quadrant::NorthWest => 0,
                Quadrant::NorthEast => 1,
                Quadrant::SouthWest => 2,
                Quadrant::SouthEast => 3,
                Quadrant::Here => 1,
            };
            partitions[slot].1.push(idx);
        }
        PickSplit {
            prefix: Some(split),
            partitions,
        }
    }

    fn bulk_prepare(&self, items: &mut [(Point, RowId)], _level: u32, _ctx: &()) {
        // Tile-median split: `picksplit` quarters the plane at the first
        // item, so moving the point nearest the (median x, median y) center
        // to the front spreads the partition across all four quadrants
        // instead of replaying insertion order.
        if items.len() < 2 {
            return;
        }
        let mid = items.len() / 2;
        let mut xs: Vec<f64> = items.iter().map(|(p, _)| p.x).collect();
        let mut ys: Vec<f64> = items.iter().map(|(p, _)| p.y).collect();
        xs.select_nth_unstable_by(mid, f64::total_cmp);
        ys.select_nth_unstable_by(mid, f64::total_cmp);
        let (cx, cy) = (xs[mid], ys[mid]);
        let nearest_center = items
            .iter()
            .enumerate()
            .min_by(|(_, (a, _)), (_, (b, _))| {
                let da = (a.x - cx).powi(2) + (a.y - cy).powi(2);
                let db = (b.x - cx).powi(2) + (b.y - cy).powi(2);
                da.total_cmp(&db)
            })
            .map(|(idx, _)| idx)
            .unwrap_or(0);
        items.swap(0, nearest_center);
    }

    fn inner_distance(
        &self,
        prefix: Option<&Point>,
        pred: &Quadrant,
        query: &PointQuery,
        parent_dist: f64,
        _level: u32,
    ) -> f64 {
        let (PointQuery::Nearest(q) | PointQuery::Equals(q)) = query else {
            return parent_dist;
        };
        let Some(split) = prefix else {
            return parent_dist;
        };
        let dist = match pred {
            Quadrant::Here => split.distance(q),
            quadrant => {
                let (west, south) = match quadrant {
                    Quadrant::NorthWest => (true, false),
                    Quadrant::NorthEast => (false, false),
                    Quadrant::SouthWest => (true, true),
                    Quadrant::SouthEast => (false, true),
                    Quadrant::Here => unreachable!("handled above"),
                };
                let dx = if west {
                    (q.x - split.x).max(0.0)
                } else {
                    (split.x - q.x).max(0.0)
                };
                let dy = if south {
                    (q.y - split.y).max(0.0)
                } else {
                    (split.y - q.y).max(0.0)
                };
                (dx * dx + dy * dy).sqrt()
            }
        };
        parent_dist.max(dist)
    }

    fn leaf_distance(&self, key: &Point, query: &PointQuery) -> f64 {
        match query {
            PointQuery::Nearest(q) | PointQuery::Equals(q) => key.distance(q),
            PointQuery::InRect(r) => r.min_distance(key),
        }
    }
}

/// A disk-based point-quadtree index over 2-D points (the paper's
/// `SP_GiST_pquadtree` operator class); its operators (`@`, `^`, `@@`) are
/// the point sugar it shares with [`KdTreeIndex`](crate::KdTreeIndex).
pub type PointQuadtreeIndex = SpGistIndex<PointQuadtreeOps>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Rect;
    use crate::spindex::SpIndex;
    use spgist_storage::BufferPool;

    fn points() -> Vec<Point> {
        vec![
            Point::new(35.0, 42.0),
            Point::new(52.0, 10.0),
            Point::new(62.0, 77.0),
            Point::new(82.0, 65.0),
            Point::new(5.0, 45.0),
            Point::new(27.0, 35.0),
            Point::new(85.0, 15.0),
        ]
    }

    fn index() -> PointQuadtreeIndex {
        let index = PointQuadtreeIndex::create(BufferPool::in_memory()).unwrap();
        for (i, p) in points().iter().enumerate() {
            index.insert(*p, i as RowId).unwrap();
        }
        index
    }

    #[test]
    fn exact_match_finds_each_point() {
        let index = index();
        for (i, p) in points().iter().enumerate() {
            assert_eq!(index.equals(*p).unwrap(), vec![i as RowId]);
        }
        assert!(index.equals(Point::new(0.0, 0.0)).unwrap().is_empty());
    }

    #[test]
    fn range_query_matches_scan() {
        let index = index();
        let rect = Rect::new(20.0, 20.0, 70.0, 80.0);
        let mut hits: Vec<RowId> = index
            .range(rect)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        hits.sort_unstable();
        let expected: Vec<RowId> = points()
            .iter()
            .enumerate()
            .filter(|(_, p)| rect.contains_point(p))
            .map(|(i, _)| i as RowId)
            .collect();
        assert_eq!(hits, expected);
    }

    #[test]
    fn nearest_neighbour_matches_brute_force() {
        let index = index();
        let q = Point::new(60.0, 60.0);
        let nn = index.nearest(q, 3).unwrap();
        assert!(nn.windows(2).all(|w| w[0].2 <= w[1].2));
        let mut brute: Vec<f64> = points().iter().map(|p| p.distance(&q)).collect();
        brute.sort_by(f64::total_cmp);
        for (i, (_, _, d)) in nn.iter().enumerate() {
            assert!((d - brute[i]).abs() < 1e-9, "k={i} distance mismatch");
        }
    }

    #[test]
    fn larger_dataset_consistency_with_kdtree_semantics() {
        let mut state = 99u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / u32::MAX as f64) * 100.0
        };
        let pts: Vec<Point> = (0..2500).map(|_| Point::new(next(), next())).collect();
        let quad = PointQuadtreeIndex::create(BufferPool::in_memory()).unwrap();
        for (i, p) in pts.iter().enumerate() {
            quad.insert(*p, i as RowId).unwrap();
        }
        let rect = Rect::new(10.0, 40.0, 35.0, 90.0);
        let expected = pts.iter().filter(|p| rect.contains_point(p)).count();
        assert_eq!(quad.range(rect).unwrap().len(), expected);
        for (i, p) in pts.iter().enumerate().step_by(407) {
            assert!(quad.equals(*p).unwrap().contains(&(i as RowId)));
        }
        let stats = quad.stats().unwrap();
        assert_eq!(stats.items, 2500);
        assert!(stats.max_page_height < stats.max_node_height);
    }
}
