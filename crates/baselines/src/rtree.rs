//! A disk-based R-tree (Guttman, quadratic split).
//!
//! This is the baseline spatial index of the paper's point and line-segment
//! experiments (Figures 13–15).  Every node occupies one 8 KiB page; leaf
//! entries store the indexed object's minimum bounding rectangle (a
//! degenerate rectangle for points) and its row id.

use std::sync::Arc;

use spgist_core::RowId;
use spgist_indexes::geom::{Point, Rect, Segment};
use spgist_storage::{BufferPool, Codec, PageId, StorageError, StorageResult};

/// Maximum number of entries per node (fits comfortably in one page:
/// 32 bytes of rectangle + 8 bytes of pointer per entry).
pub const MAX_ENTRIES: usize = 100;
/// Minimum number of entries per node after a split (Guttman recommends
/// 30–50 % of the maximum).
pub const MIN_ENTRIES: usize = 40;

#[derive(Debug, Clone)]
enum RNode {
    Internal { entries: Vec<(Rect, PageId)> },
    Leaf { entries: Vec<(Rect, RowId)> },
}

const TAG_INTERNAL: u8 = 0;
const TAG_LEAF: u8 = 1;

impl RNode {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            RNode::Internal { entries } => {
                out.push(TAG_INTERNAL);
                (entries.len() as u32).encode(&mut out);
                for (rect, child) in entries {
                    rect.encode(&mut out);
                    child.encode(&mut out);
                }
            }
            RNode::Leaf { entries } => {
                out.push(TAG_LEAF);
                (entries.len() as u32).encode(&mut out);
                for (rect, row) in entries {
                    rect.encode(&mut out);
                    row.encode(&mut out);
                }
            }
        }
        out
    }

    fn decode(bytes: &[u8]) -> StorageResult<Self> {
        let mut buf = bytes;
        let tag = u8::decode(&mut buf)?;
        let n = u32::decode(&mut buf)? as usize;
        match tag {
            TAG_INTERNAL => {
                let mut entries = Vec::with_capacity(n.min(buf.len()));
                for _ in 0..n {
                    entries.push((Rect::decode(&mut buf)?, PageId::decode(&mut buf)?));
                }
                Ok(RNode::Internal { entries })
            }
            TAG_LEAF => {
                let mut entries = Vec::with_capacity(n.min(buf.len()));
                for _ in 0..n {
                    entries.push((Rect::decode(&mut buf)?, RowId::decode(&mut buf)?));
                }
                Ok(RNode::Leaf { entries })
            }
            other => Err(StorageError::Decode(format!(
                "unknown r-tree node tag {other}"
            ))),
        }
    }
}

/// Statistics of an R-tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RTreeStats {
    /// Tree height in nodes (equals height in pages).
    pub height: u32,
    /// Number of pages (nodes).
    pub pages: u64,
    /// Total size in bytes.
    pub size_bytes: u64,
    /// Number of stored entries.
    pub items: u64,
}

/// A disk-based R-tree over rectangles (points and segments are indexed by
/// their MBRs).
pub struct RTree {
    pool: Arc<BufferPool>,
    root: PageId,
    height: u32,
    pages: u64,
    items: u64,
}

impl RTree {
    /// Creates an empty R-tree on `pool`.
    pub fn create(pool: Arc<BufferPool>) -> StorageResult<Self> {
        let root = pool.allocate_page()?;
        let node = RNode::Leaf {
            entries: Vec::new(),
        };
        pool.with_page_mut(root, |p| p.insert(&node.encode()))??;
        Ok(RTree {
            pool,
            root,
            height: 1,
            pages: 1,
            items: 0,
        })
    }

    fn read(&self, page: PageId) -> StorageResult<RNode> {
        self.pool
            .with_page(page, |p| p.get(0).map(RNode::decode))??
    }

    fn write(&self, page: PageId, node: &RNode) -> StorageResult<()> {
        let bytes = node.encode();
        let ok = self.pool.with_page_mut(page, |p| p.update(0, &bytes))??;
        if !ok {
            return Err(StorageError::Corrupt(
                "r-tree node exceeded its page; MAX_ENTRIES is too large".into(),
            ));
        }
        Ok(())
    }

    fn alloc(&mut self, node: &RNode) -> StorageResult<PageId> {
        let page = self.pool.allocate_page()?;
        self.pool
            .with_page_mut(page, |p| p.insert(&node.encode()))??;
        self.pages += 1;
        Ok(page)
    }

    /// Inserts a rectangle pointing at heap row `row`.
    pub fn insert(&mut self, rect: Rect, row: RowId) -> StorageResult<()> {
        if let Some((left_mbr, right_mbr, right_page)) = self.insert_rec(self.root, rect, row)? {
            let old_root = self.root;
            let new_root = self.alloc(&RNode::Internal {
                entries: vec![(left_mbr, old_root), (right_mbr, right_page)],
            })?;
            self.root = new_root;
            self.height += 1;
        }
        self.items += 1;
        Ok(())
    }

    /// Inserts a point (as a degenerate rectangle).
    pub fn insert_point(&mut self, point: Point, row: RowId) -> StorageResult<()> {
        self.insert(Rect::from_points(point, point), row)
    }

    /// Inserts a line segment by its MBR.
    pub fn insert_segment(&mut self, segment: Segment, row: RowId) -> StorageResult<()> {
        self.insert(segment.mbr(), row)
    }

    /// Recursive insert.  Returns `(left MBR, right MBR, right page)` when the
    /// child split and the parent must add an entry.
    fn insert_rec(
        &mut self,
        page: PageId,
        rect: Rect,
        row: RowId,
    ) -> StorageResult<Option<(Rect, Rect, PageId)>> {
        match self.read(page)? {
            RNode::Leaf { mut entries } => {
                entries.push((rect, row));
                if entries.len() <= MAX_ENTRIES {
                    self.write(page, &RNode::Leaf { entries })?;
                    return Ok(None);
                }
                let (left, right) = quadratic_split(entries);
                let left_mbr = mbr_of(&left);
                let right_mbr = mbr_of(&right);
                let right_page = self.alloc(&RNode::Leaf { entries: right })?;
                self.write(page, &RNode::Leaf { entries: left })?;
                Ok(Some((left_mbr, right_mbr, right_page)))
            }
            RNode::Internal { mut entries } => {
                // Guttman ChooseSubtree: least enlargement, ties by area.
                let chosen = entries
                    .iter()
                    .enumerate()
                    .min_by(|(_, (a, _)), (_, (b, _))| {
                        let ea = a.enlargement(&rect);
                        let eb = b.enlargement(&rect);
                        ea.partial_cmp(&eb)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(
                                a.area()
                                    .partial_cmp(&b.area())
                                    .unwrap_or(std::cmp::Ordering::Equal),
                            )
                    })
                    .map(|(i, _)| i)
                    .ok_or_else(|| StorageError::Corrupt("empty internal r-tree node".into()))?;
                let child_page = entries[chosen].1;
                let split = self.insert_rec(child_page, rect, row)?;
                match split {
                    None => {
                        entries[chosen].0 = entries[chosen].0.union(&rect);
                        self.write(page, &RNode::Internal { entries })?;
                        Ok(None)
                    }
                    Some((left_mbr, right_mbr, right_page)) => {
                        entries[chosen] = (left_mbr, child_page);
                        entries.push((right_mbr, right_page));
                        if entries.len() <= MAX_ENTRIES {
                            self.write(page, &RNode::Internal { entries })?;
                            return Ok(None);
                        }
                        let (left, right) = quadratic_split(entries);
                        let left_mbr = mbr_of(&left);
                        let right_mbr = mbr_of(&right);
                        let new_right = self.alloc(&RNode::Internal { entries: right })?;
                        self.write(page, &RNode::Internal { entries: left })?;
                        Ok(Some((left_mbr, right_mbr, new_right)))
                    }
                }
            }
        }
    }

    /// Window query: row ids of entries whose MBR intersects `window`.
    pub fn window(&self, window: Rect) -> StorageResult<Vec<(Rect, RowId)>> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            match self.read(page)? {
                RNode::Internal { entries } => {
                    for (rect, child) in entries {
                        if rect.intersects(&window) {
                            stack.push(child);
                        }
                    }
                }
                RNode::Leaf { entries } => {
                    for (rect, row) in entries {
                        if rect.intersects(&window) {
                            out.push((rect, row));
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Point-match query: row ids of entries whose MBR equals the degenerate
    /// rectangle of `point` (exact point match for point data).
    pub fn point_match(&self, point: Point) -> StorageResult<Vec<RowId>> {
        let target = Rect::from_points(point, point);
        let mut rows = Vec::new();
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            match self.read(page)? {
                RNode::Internal { entries } => {
                    for (rect, child) in entries {
                        if rect.contains_point(&point) {
                            stack.push(child);
                        }
                    }
                }
                RNode::Leaf { entries } => {
                    for (rect, row) in entries {
                        if rect == target {
                            rows.push(row);
                        }
                    }
                }
            }
        }
        Ok(rows)
    }

    /// Exact segment match by MBR equality (the stored geometry is the MBR, so
    /// callers holding the original segments re-check if needed).
    pub fn segment_match(&self, segment: Segment) -> StorageResult<Vec<RowId>> {
        let target = segment.mbr();
        let mut rows = Vec::new();
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            match self.read(page)? {
                RNode::Internal { entries } => {
                    for (rect, child) in entries {
                        if rect.contains_rect(&target) {
                            stack.push(child);
                        }
                    }
                }
                RNode::Leaf { entries } => {
                    for (rect, row) in entries {
                        if rect == target {
                            rows.push(row);
                        }
                    }
                }
            }
        }
        Ok(rows)
    }

    /// Number of stored entries.
    pub fn len(&self) -> u64 {
        self.items
    }

    /// True if the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Size and height statistics.
    pub fn stats(&self) -> RTreeStats {
        RTreeStats {
            height: self.height,
            pages: self.pages,
            size_bytes: self.pages * spgist_storage::PAGE_SIZE as u64,
            items: self.items,
        }
    }
}

fn mbr_of<T>(entries: &[(Rect, T)]) -> Rect {
    entries
        .iter()
        .map(|(r, _)| *r)
        .reduce(|a, b| a.union(&b))
        .unwrap_or_default()
}

/// Guttman's quadratic split: pick the pair of entries that would waste the
/// most area together as seeds, then assign the rest by least enlargement,
/// respecting the minimum fill factor.
#[allow(clippy::type_complexity)]
fn quadratic_split<T: Copy>(entries: Vec<(Rect, T)>) -> (Vec<(Rect, T)>, Vec<(Rect, T)>) {
    debug_assert!(entries.len() > 2);
    // PickSeeds.
    let (mut seed_a, mut seed_b, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len() {
            let waste = entries[i].0.union(&entries[j].0).area()
                - entries[i].0.area()
                - entries[j].0.area();
            if waste > worst {
                worst = waste;
                seed_a = i;
                seed_b = j;
            }
        }
    }
    let mut left = vec![entries[seed_a]];
    let mut right = vec![entries[seed_b]];
    let mut left_mbr = entries[seed_a].0;
    let mut right_mbr = entries[seed_b].0;
    let remaining: Vec<(Rect, T)> = entries
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i != seed_a && *i != seed_b)
        .map(|(_, e)| e)
        .collect();
    let total = remaining.len() + 2;
    for (idx, entry) in remaining.iter().enumerate() {
        let left_needs = MIN_ENTRIES.saturating_sub(left.len());
        let right_needs = MIN_ENTRIES.saturating_sub(right.len());
        let left_over = remaining.len() - idx;
        // Force assignment if one side must take all remaining entries to
        // reach the minimum fill.
        if left_needs >= left_over {
            left.push(*entry);
            left_mbr = left_mbr.union(&entry.0);
            continue;
        }
        if right_needs >= left_over {
            right.push(*entry);
            right_mbr = right_mbr.union(&entry.0);
            continue;
        }
        let grow_left = left_mbr.enlargement(&entry.0);
        let grow_right = right_mbr.enlargement(&entry.0);
        if grow_left < grow_right || (grow_left == grow_right && left.len() <= right.len()) {
            left.push(*entry);
            left_mbr = left_mbr.union(&entry.0);
        } else {
            right.push(*entry);
            right_mbr = right_mbr.union(&entry.0);
        }
    }
    debug_assert_eq!(left.len() + right.len(), total);
    (left, right)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / u32::MAX as f64) * 100.0
        }
    }

    #[test]
    fn lying_lengths_are_decode_errors_not_allocations() {
        for tag in [TAG_INTERNAL, TAG_LEAF] {
            assert!(RNode::decode(&[tag, 0xFF, 0xFF, 0xFF, 0xFF]).is_err());
        }
    }

    #[test]
    fn point_match_and_window_on_small_tree() {
        let mut tree = RTree::create(BufferPool::in_memory()).unwrap();
        let points = [
            Point::new(10.0, 10.0),
            Point::new(20.0, 80.0),
            Point::new(55.0, 55.0),
            Point::new(90.0, 5.0),
        ];
        for (i, p) in points.iter().enumerate() {
            tree.insert_point(*p, i as RowId).unwrap();
        }
        assert_eq!(tree.point_match(points[2]).unwrap(), vec![2]);
        assert!(tree.point_match(Point::new(1.0, 1.0)).unwrap().is_empty());
        let window = Rect::new(0.0, 0.0, 30.0, 100.0);
        let mut rows: Vec<RowId> = tree
            .window(window)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![0, 1]);
    }

    #[test]
    fn large_point_set_queries_match_scan() {
        let mut next = lcg(42);
        let points: Vec<Point> = (0..5000).map(|_| Point::new(next(), next())).collect();
        let mut tree = RTree::create(BufferPool::in_memory()).unwrap();
        for (i, p) in points.iter().enumerate() {
            tree.insert_point(*p, i as RowId).unwrap();
        }
        let stats = tree.stats();
        assert!(stats.height >= 2);
        assert_eq!(stats.items, 5000);

        for (i, p) in points.iter().enumerate().step_by(733) {
            assert!(tree.point_match(*p).unwrap().contains(&(i as RowId)));
        }
        let window = Rect::new(20.0, 30.0, 45.0, 70.0);
        let expected = points.iter().filter(|p| window.contains_point(p)).count();
        assert_eq!(tree.window(window).unwrap().len(), expected);
    }

    #[test]
    fn segments_window_query_uses_mbrs() {
        let mut next = lcg(7);
        let mut tree = RTree::create(BufferPool::in_memory()).unwrap();
        let mut segments = Vec::new();
        for i in 0..2000u64 {
            let a = Point::new(next(), next());
            let b = Point::new(
                (a.x + next() / 20.0).min(100.0),
                (a.y + next() / 20.0).min(100.0),
            );
            let s = Segment::new(a, b);
            segments.push(s);
            tree.insert_segment(s, i).unwrap();
        }
        let window = Rect::new(40.0, 40.0, 60.0, 60.0);
        let got = tree.window(window).unwrap().len();
        let expected_mbr = segments
            .iter()
            .filter(|s| s.mbr().intersects(&window))
            .count();
        assert_eq!(got, expected_mbr, "R-tree reports MBR intersections");
        // Exact segment match.
        assert_eq!(tree.segment_match(segments[100]).unwrap(), vec![100]);
    }

    #[test]
    fn quadratic_split_respects_minimum_fill() {
        let mut next = lcg(3);
        let entries: Vec<(Rect, u64)> = (0..(MAX_ENTRIES as u64 + 1))
            .map(|i| {
                let p = Point::new(next(), next());
                (Rect::from_points(p, p), i)
            })
            .collect();
        let (left, right) = quadratic_split(entries);
        assert!(left.len() >= MIN_ENTRIES);
        assert!(right.len() >= MIN_ENTRIES);
        assert_eq!(left.len() + right.len(), MAX_ENTRIES + 1);
    }

    #[test]
    fn duplicate_points_all_reported() {
        let mut tree = RTree::create(BufferPool::in_memory()).unwrap();
        let p = Point::new(42.0, 24.0);
        for row in 0..7 {
            tree.insert_point(p, row).unwrap();
        }
        assert_eq!(tree.point_match(p).unwrap().len(), 7);
    }

    #[test]
    fn empty_tree_queries() {
        let tree = RTree::create(BufferPool::in_memory()).unwrap();
        assert!(tree.is_empty());
        assert!(tree
            .window(Rect::new(0.0, 0.0, 100.0, 100.0))
            .unwrap()
            .is_empty());
        assert_eq!(tree.stats().height, 1);
    }
}
