//! The unified index interface: one typed trait served by all five
//! space-partitioning indexes.
//!
//! The paper's thesis is that one extensible framework can serve many
//! space-partitioning indexes; [`SpIndex`] is that idea carried up to the
//! wrapper layer.  Every instantiation — patricia trie, suffix tree,
//! kd-tree, point quadtree, PMR quadtree — exposes the same typed surface
//! (`open` / `insert` / `delete` / `execute` / `cursor` / `len` / `stats` /
//! `repack`), so generic code (the `spgist-catalog` executor, benchmarks,
//! tests) is written once against the trait instead of five times against
//! divergent wrappers.
//!
//! The implementation collapses the former per-wrapper boilerplate into a
//! single blanket impl over [`SpGistBacked`]: a wrapper only states how to
//! reach its [`SpGistTree`] and overrides the few hooks where its semantics
//! differ (the suffix tree expands words into suffixes; replicating indexes
//! deduplicate result rows).
//!
//! **Shared access.** Every index is usable from many threads through a
//! plain `&self`: the backing [`SpGistTree`] is itself concurrent — writers
//! crab per-page latches down the tree and run in parallel on disjoint
//! subtrees, while queries take *no* latch at all.  A returned [`Cursor`]
//! pins a reclamation epoch for its lifetime: every record it can reach
//! stays readable while concurrent writers proceed, and writers never wait
//! for cursors.  Reads are snapshot-ish, not serializable — a long scan
//! always sees a valid tree but may observe some effects of writes that
//! committed after it started; a cursor opened after a write sees it.
//! Statement-level atomicity across several indexes of one table is the
//! catalog layer's job, not the wrapper's.
//!
//! Query results stream through a [`Cursor`] — an iterator over
//! `StorageResult<(key, row)>` — rather than a materialized `Vec`, so an
//! executor can stop pulling early.

use std::collections::HashSet;
use std::sync::Arc;

use spgist_core::{NnIter, RowId, SearchCursor, SpGistConfig, SpGistOps, SpGistTree, TreeStats};
use spgist_storage::{BufferPool, PageId, StorageResult};

/// A streaming query result: an iterator of `(key, row)` items.
///
/// Page reads can fail mid-scan, so every item is a [`StorageResult`].
/// Cursors over replicating indexes (PMR quadtree, suffix tree) deduplicate
/// by row id while streaming.
pub struct Cursor<'c, K> {
    inner: Box<dyn Iterator<Item = StorageResult<(K, RowId)>> + 'c>,
    seen: Option<HashSet<RowId>>,
}

impl<'c, K> Cursor<'c, K> {
    /// Wraps a raw item iterator.
    pub fn new(inner: impl Iterator<Item = StorageResult<(K, RowId)>> + 'c) -> Self {
        Cursor {
            inner: Box::new(inner),
            seen: None,
        }
    }

    /// Wraps a raw item iterator, reporting each row id at most once (for
    /// indexes that replicate one logical item across partitions).
    pub fn deduplicated(inner: impl Iterator<Item = StorageResult<(K, RowId)>> + 'c) -> Self {
        Cursor {
            inner: Box::new(inner),
            seen: Some(HashSet::new()),
        }
    }

    /// Drains the cursor into the row ids of every match.
    pub fn rows(self) -> StorageResult<Vec<RowId>> {
        self.map(|item| item.map(|(_, row)| row)).collect()
    }
}

impl<K> Iterator for Cursor<'_, K> {
    type Item = StorageResult<(K, RowId)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let item = self.inner.next()?;
            if let (Ok((_, row)), Some(seen)) = (&item, &mut self.seen) {
                if !seen.insert(*row) {
                    continue;
                }
            }
            return Some(item);
        }
    }
}

impl<K> std::fmt::Debug for Cursor<'_, K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cursor")
            .field("deduplicating", &self.seen.is_some())
            .finish()
    }
}

/// The unified interface of every space-partitioning index.
///
/// All five wrappers implement this trait (through the [`SpGistBacked`]
/// blanket impl), so one generic function can build, maintain and query any
/// of them.  Every method takes `&self`: the backing tree crabs page
/// latches for updates and serves queries latch-free under epoch
/// protection, so an index shared behind an `Arc` serves concurrent
/// readers and writers without blocking reads.
///
/// ```
/// use spgist_indexes::{SpIndex, TrieIndex, StringQuery};
/// use spgist_storage::BufferPool;
///
/// fn count_matches<I: SpIndex>(index: &I, query: &I::Query) -> u64 {
///     index.cursor(query).unwrap().count() as u64
/// }
///
/// let trie = TrieIndex::open(BufferPool::in_memory()).unwrap();
/// trie.insert("space", 1).unwrap();
/// trie.insert("spade", 2).unwrap();
/// assert_eq!(count_matches(&trie, &StringQuery::Prefix("sp".into())), 2);
/// ```
pub trait SpIndex {
    /// Key type stored by the index (the paper's *KeyType*).
    type Key: Clone;
    /// Query predicate type of the operators registered for the index.
    type Query: Clone;

    /// Whether a cursor's key is the indexed value itself, so a caller
    /// holding heap rows need not fetch one to learn it (see
    /// [`SpGistBacked::RETURNS_KEYS`]).
    const RETURNS_KEYS: bool;

    /// Opens a fresh index with default parameters on `pool`.
    fn open(pool: Arc<BufferPool>) -> StorageResult<Self>
    where
        Self: Sized;

    /// Inserts one `(key, row)` item (page latches crabbed internally).
    fn insert(&self, key: Self::Key, row: RowId) -> StorageResult<()>;

    /// Inserts a batch of `(key, row)` items — the DML-statement form of
    /// [`SpIndex::insert`].  The batch is *not* atomic with respect to
    /// concurrent cursors (readers are never blocked); callers needing
    /// statement atomicity serialize at a higher layer, as the catalog's
    /// per-table DML lock does.
    fn insert_batch(&self, items: Vec<(Self::Key, RowId)>) -> StorageResult<()>;

    /// Builds the index from the full `(key, row)` set in one pass — the
    /// paper's `spgistbuild` (Section 4) carried to the wrapper layer.
    ///
    /// The backing tree's [`spgist_core::BulkBuilder`] partitions the whole
    /// set top-down with `picksplit` and writes each node exactly once;
    /// wrappers with expanded representations translate first (the suffix
    /// tree turns words into suffixes).  Requires an **empty** index and
    /// excludes other writers for the whole build.  Returns the
    /// [`TreeStats`] accumulated during the build.
    ///
    /// Query results are identical to loading the same items through
    /// [`SpIndex::insert`]; the tree shape is usually better (median splits
    /// for data-driven classes, full decomposition for split-once classes).
    fn bulk_build(&self, items: Vec<(Self::Key, RowId)>) -> StorageResult<TreeStats>;

    /// Deletes one `(key, row)` item; returns whether something was removed
    /// (other writers are excluded internally; readers proceed).
    fn delete(&self, key: &Self::Key, row: RowId) -> StorageResult<bool>;

    /// Runs `query`, returning a streaming [`Cursor`] over the matches.
    ///
    /// The cursor takes no latch: it pins a reclamation epoch on the
    /// backing tree for its lifetime, so concurrent cursors and writers all
    /// proceed.  A live cursor only delays *physical reclamation* of
    /// records retired after it opened, so drop (or fully drain) cursors
    /// reasonably promptly to bound that backlog.
    fn cursor(&self, query: &Self::Query) -> StorageResult<Cursor<'_, Self::Key>>;

    /// Runs `query` as an *ordered* scan: a streaming [`Cursor`] that yields
    /// items in non-decreasing distance from the query's anchor, driven by
    /// the incremental NN search ([`spgist_core::NnIter`]).  Each pull does
    /// just enough work to report the next-closest item, so `LIMIT k` stops
    /// after `k` reported items.  Returns `None` for indexes that register no
    /// distance functions (their operator classes have no `@@` operator).
    fn ordered_cursor(&self, query: &Self::Query) -> StorageResult<Option<Cursor<'_, Self::Key>>>;

    /// Runs `query`, materializing every match (the eager counterpart of
    /// [`SpIndex::cursor`]).
    fn execute(&self, query: &Self::Query) -> StorageResult<Vec<(Self::Key, RowId)>> {
        self.cursor(query)?.collect()
    }

    /// Number of logical items in the index.
    fn len(&self) -> u64;

    /// True if the index holds no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Structural statistics (heights, pages, size) gathered from the
    /// backing tree.
    fn stats(&self) -> StorageResult<TreeStats>;

    /// The planner's `(pages, page_height)` view of the backing tree — an
    /// O(1) read that writes keep current, unlike the full walk of
    /// [`SpIndex::stats`] (see [`SpGistTree::planner_stats`]).
    fn planner_stats(&self) -> StorageResult<(u64, u32)>;

    /// The meta page identifying the backing tree on its pager — one half of
    /// the index's durable identity (persist it, plus
    /// [`SpIndex::owned_pages`], and the index reopens from disk).
    fn meta_page(&self) -> PageId;

    /// The pages the backing tree owns, in allocation order.  The durable
    /// catalog persists this list so a reopened index keeps full statistics
    /// and can free its pages on `DROP INDEX`.
    fn owned_pages(&self) -> Vec<PageId>;

    /// The interface parameters the backing tree runs with (persisted by the
    /// durable catalog so reopening round-trips the configuration).
    fn config(&self) -> SpGistConfig;

    /// Re-clusters the backing tree into fresh pages to minimize page
    /// height (see [`SpGistTree::repack`]); other writers are excluded for
    /// the whole rewrite, while readers keep traversing the old layout
    /// until the root flips.
    fn repack(&self) -> StorageResult<()>;

    /// Consumes the index and releases every page it owns back to the
    /// pager's free list (`DROP INDEX`).
    fn destroy(self) -> StorageResult<()>
    where
        Self: Sized;
}

/// Glue between a concrete wrapper and the [`SpIndex`] blanket impl.
///
/// A wrapper states how to reach its backing [`SpGistTree`] (held in an
/// `Arc`, since cursors keep their own handle) and overrides only the hooks
/// where its semantics differ from plain tree delegation.  Everything else
/// — cursor construction, statistics, repacking — is written once in the
/// blanket impl.
pub trait SpGistBacked {
    /// External methods of the backing tree.
    type Ops: SpGistOps;

    /// Whether one logical item may surface several times in a raw tree
    /// search (replicating indexes); cursors then deduplicate by row id.
    const DEDUPE_ROWS: bool = false;

    /// Whether the instantiation registers NN distance functions
    /// (`inner_distance` / `leaf_distance`), making ordered scans through
    /// [`SpIndex::ordered_cursor`] available (the `@@` operator).
    const ORDERED_SCANS: bool = false;

    /// Whether the key a cursor yields *is* the value that was indexed
    /// (PostgreSQL SP-GiST's `canReturnData`), so a scan can answer without
    /// visiting the heap.  False only where one indexed value is stored as
    /// several derived keys (the suffix tree yields suffixes, not words).
    const RETURNS_KEYS: bool = true;

    /// The backing generalized tree.  The tree is internally concurrent
    /// (crabbing writers, epoch-protected readers), so no external latch
    /// wraps it.
    fn backing(&self) -> &Arc<SpGistTree<Self::Ops>>;

    /// Consumes the wrapper, returning the backing tree handle (for
    /// [`SpIndex::destroy`]).
    fn into_backing_tree(self) -> Arc<SpGistTree<Self::Ops>>
    where
        Self: Sized;

    /// Opens a fresh index with this wrapper's default parameters.
    fn open_default(pool: Arc<BufferPool>) -> StorageResult<Self>
    where
        Self: Sized;

    /// Inserts one logical item.  The default inserts the key as-is; the
    /// suffix tree overrides it to insert every suffix of the word.
    fn insert_key(&self, key: <Self::Ops as SpGistOps>::Key, row: RowId) -> StorageResult<()> {
        self.backing().insert(key, row)
    }

    /// Deletes one logical item.  The default removes a single physical
    /// occurrence; replicating or expanding indexes override it.
    fn delete_key(&self, key: &<Self::Ops as SpGistOps>::Key, row: RowId) -> StorageResult<bool> {
        self.backing().delete(key, row)
    }

    /// Inserts a batch of logical items.  The default loops
    /// [`SpGistTree::insert`]; expanding indexes override it (the suffix
    /// tree inserts every suffix of every word).
    fn insert_batch_keys(
        &self,
        items: Vec<(<Self::Ops as SpGistOps>::Key, RowId)>,
    ) -> StorageResult<()> {
        let tree = self.backing();
        for (key, row) in items {
            tree.insert(key, row)?;
        }
        Ok(())
    }

    /// Bulk-builds the backing tree from the full logical item set.  The
    /// default hands the items to [`SpGistTree::bulk_build`] unchanged;
    /// expanding indexes override it to translate the representation first.
    fn bulk_build_keys(
        &self,
        items: Vec<(<Self::Ops as SpGistOps>::Key, RowId)>,
    ) -> StorageResult<TreeStats> {
        self.backing().bulk_build(items)
    }

    /// Rewrites a query into the form the backing tree executes (the suffix
    /// tree answers substring queries as prefix queries over suffixes).
    fn translate_query(
        &self,
        query: &<Self::Ops as SpGistOps>::Query,
    ) -> <Self::Ops as SpGistOps>::Query {
        query.clone()
    }

    /// Number of logical items (the suffix tree counts indexed words, not
    /// stored suffixes).
    fn item_count(&self) -> u64 {
        self.backing().len()
    }
}

impl<T: SpGistBacked> SpIndex for T {
    type Key = <T::Ops as SpGistOps>::Key;
    type Query = <T::Ops as SpGistOps>::Query;

    const RETURNS_KEYS: bool = T::RETURNS_KEYS;

    fn open(pool: Arc<BufferPool>) -> StorageResult<Self> {
        T::open_default(pool)
    }

    fn insert(&self, key: Self::Key, row: RowId) -> StorageResult<()> {
        self.insert_key(key, row)
    }

    fn insert_batch(&self, items: Vec<(Self::Key, RowId)>) -> StorageResult<()> {
        self.insert_batch_keys(items)
    }

    fn bulk_build(&self, items: Vec<(Self::Key, RowId)>) -> StorageResult<TreeStats> {
        self.bulk_build_keys(items)
    }

    fn delete(&self, key: &Self::Key, row: RowId) -> StorageResult<bool> {
        self.delete_key(key, row)
    }

    fn cursor(&self, query: &Self::Query) -> StorageResult<Cursor<'_, Self::Key>> {
        let translated = self.translate_query(query);
        // The cursor carries its own Arc on the tree plus an epoch pin; it
        // holds no latch, so writers proceed while it is open.
        let inner = SearchCursor::over(Arc::clone(self.backing()), translated);
        Ok(if T::DEDUPE_ROWS {
            Cursor::deduplicated(inner)
        } else {
            Cursor::new(inner)
        })
    }

    fn ordered_cursor(&self, query: &Self::Query) -> StorageResult<Option<Cursor<'_, Self::Key>>> {
        if !T::ORDERED_SCANS {
            return Ok(None);
        }
        let translated = self.translate_query(query);
        let inner = NnIter::over(Arc::clone(self.backing()), translated)
            .map(|item| item.map(|(key, row, _)| (key, row)));
        Ok(Some(if T::DEDUPE_ROWS {
            Cursor::deduplicated(inner)
        } else {
            Cursor::new(inner)
        }))
    }

    fn len(&self) -> u64 {
        self.item_count()
    }

    fn stats(&self) -> StorageResult<TreeStats> {
        self.backing().stats()
    }

    fn planner_stats(&self) -> StorageResult<(u64, u32)> {
        self.backing().planner_stats()
    }

    fn meta_page(&self) -> PageId {
        self.backing().meta_page()
    }

    fn owned_pages(&self) -> Vec<PageId> {
        self.backing().owned_pages()
    }

    fn config(&self) -> SpGistConfig {
        self.backing().ops().config()
    }

    fn repack(&self) -> StorageResult<()> {
        self.backing().repack()
    }

    fn destroy(self) -> StorageResult<()> {
        // Destruction frees the index's pages, so it must be the sole owner:
        // wait out any cursor still holding a clone of the handle.
        let mut arc = self.into_backing_tree();
        loop {
            match Arc::try_unwrap(arc) {
                Ok(tree) => return tree.destroy(),
                Err(shared) => {
                    arc = shared;
                    std::thread::yield_now();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point, Rect, Segment};
    use crate::query::{PointQuery, SegmentQuery, StringQuery};
    use crate::{KdTreeIndex, PmrQuadtreeIndex, PointQuadtreeIndex, SuffixTreeIndex, TrieIndex};
    use spgist_storage::BufferPool;

    /// Exercises the whole trait surface through a generic function — the
    /// point of the redesign is that this compiles once for all five
    /// indexes.
    fn exercise<I: SpIndex>(
        index: I,
        items: Vec<(I::Key, RowId)>,
        query: I::Query,
        expected_rows: &[RowId],
    ) {
        assert!(index.is_empty());
        let total = items.len() as u64;
        for (key, row) in &items {
            index.insert(key.clone(), *row).unwrap();
        }
        assert_eq!(index.len(), total);

        // Streaming and eager execution agree.
        let eager = index.execute(&query).unwrap();
        let streamed: Vec<_> = index
            .cursor(&query)
            .unwrap()
            .collect::<StorageResult<_>>()
            .unwrap();
        assert_eq!(eager.len(), streamed.len());
        let mut rows: Vec<RowId> = eager.iter().map(|(_, r)| *r).collect();
        rows.sort_unstable();
        assert_eq!(rows, expected_rows);

        // Stats and repack work uniformly.
        let stats = index.stats().unwrap();
        assert!(stats.items > 0);
        index.repack().unwrap();
        assert_eq!(
            index.cursor(&query).unwrap().rows().unwrap().len(),
            expected_rows.len()
        );

        // Uniform delete: removing the first item makes it unfindable.
        let (key, row) = &items[0];
        assert!(index.delete(key, *row).unwrap());
        assert!(!index.delete(key, *row).unwrap());
        assert_eq!(index.len(), total - 1);
    }

    #[test]
    fn trie_implements_spindex() {
        let index = TrieIndex::open(BufferPool::in_memory()).unwrap();
        exercise(
            index,
            vec![
                ("star".to_string(), 0),
                ("space".to_string(), 1),
                ("spade".to_string(), 2),
            ],
            StringQuery::Prefix("sp".into()),
            &[1, 2],
        );
    }

    #[test]
    fn suffix_tree_implements_spindex() {
        let index = SuffixTreeIndex::open(BufferPool::in_memory()).unwrap();
        exercise(
            index,
            vec![
                ("database".to_string(), 0),
                ("base".to_string(), 1),
                ("tree".to_string(), 2),
            ],
            StringQuery::Substring("base".into()),
            &[0, 1],
        );
    }

    #[test]
    fn kdtree_implements_spindex() {
        let index = KdTreeIndex::open(BufferPool::in_memory()).unwrap();
        exercise(
            index,
            vec![
                (Point::new(1.0, 1.0), 0),
                (Point::new(5.0, 5.0), 1),
                (Point::new(9.0, 9.0), 2),
            ],
            PointQuery::InRect(Rect::new(0.0, 0.0, 6.0, 6.0)),
            &[0, 1],
        );
    }

    #[test]
    fn quadtree_implements_spindex() {
        let index = PointQuadtreeIndex::open(BufferPool::in_memory()).unwrap();
        exercise(
            index,
            vec![
                (Point::new(1.0, 1.0), 0),
                (Point::new(5.0, 5.0), 1),
                (Point::new(9.0, 9.0), 2),
            ],
            PointQuery::InRect(Rect::new(4.0, 4.0, 10.0, 10.0)),
            &[1, 2],
        );
    }

    #[test]
    fn pmr_quadtree_implements_spindex() {
        let index = PmrQuadtreeIndex::open(BufferPool::in_memory()).unwrap();
        exercise(
            index,
            vec![
                (
                    Segment::new(Point::new(5.0, 5.0), Point::new(20.0, 15.0)),
                    0,
                ),
                (
                    Segment::new(Point::new(40.0, 40.0), Point::new(90.0, 90.0)),
                    1,
                ),
                (
                    Segment::new(Point::new(10.0, 80.0), Point::new(30.0, 60.0)),
                    2,
                ),
            ],
            SegmentQuery::InRect(Rect::new(0.0, 0.0, 30.0, 30.0)),
            &[0],
        );
    }

    /// Bulk build vs. insert loop vs. one-latch batch: identical answers,
    /// identical logical counts, and a second bulk load is refused —
    /// compiled once, exercised for all five indexes.
    fn exercise_bulk<I: SpIndex>(
        make: impl Fn() -> I,
        items: Vec<(I::Key, RowId)>,
        query: I::Query,
    ) {
        let bulk = make();
        let stats = bulk.bulk_build(items.clone()).unwrap();
        assert!(stats.items >= 1);
        let looped = make();
        for (key, row) in items.clone() {
            looped.insert(key, row).unwrap();
        }
        let batched = make();
        batched.insert_batch(items.clone()).unwrap();

        let rows = |ix: &I| {
            let mut rows = ix.cursor(&query).unwrap().rows().unwrap();
            rows.sort_unstable();
            rows
        };
        let expected = rows(&looped);
        assert_eq!(rows(&bulk), expected, "bulk build answers like the loop");
        assert_eq!(
            rows(&batched),
            expected,
            "batch insert answers like the loop"
        );
        assert_eq!(bulk.len(), looped.len());
        assert_eq!(batched.len(), looped.len());
        assert!(
            bulk.bulk_build(items).is_err(),
            "bulk build refuses a populated index"
        );
    }

    #[test]
    fn bulk_build_matches_insert_loop_on_all_five_indexes() {
        let words = || {
            [
                "star", "space", "spade", "blue", "bit", "take", "top", "zero",
            ]
            .iter()
            .enumerate()
            .map(|(row, w)| (w.to_string(), row as RowId))
            .collect::<Vec<_>>()
        };
        exercise_bulk(
            || TrieIndex::open(BufferPool::in_memory()).unwrap(),
            words(),
            StringQuery::Prefix("sp".into()),
        );
        exercise_bulk(
            || SuffixTreeIndex::open(BufferPool::in_memory()).unwrap(),
            words(),
            StringQuery::Substring("a".into()),
        );
        let points = || {
            (0..40)
                .map(|i| {
                    let t = f64::from(i);
                    (
                        Point::new((t * 13.7) % 100.0, (t * 31.1) % 100.0),
                        i as RowId,
                    )
                })
                .collect::<Vec<_>>()
        };
        exercise_bulk(
            || KdTreeIndex::open(BufferPool::in_memory()).unwrap(),
            points(),
            PointQuery::InRect(Rect::new(10.0, 10.0, 70.0, 70.0)),
        );
        exercise_bulk(
            || PointQuadtreeIndex::open(BufferPool::in_memory()).unwrap(),
            points(),
            PointQuery::InRect(Rect::new(10.0, 10.0, 70.0, 70.0)),
        );
        let segments = || {
            (0..30)
                .map(|i| {
                    let t = f64::from(i);
                    let a = Point::new((t * 11.3) % 100.0, (t * 23.9) % 100.0);
                    let b = Point::new((a.x + 9.0).min(100.0), (a.y + 5.0).min(100.0));
                    (Segment::new(a, b), i as RowId)
                })
                .collect::<Vec<_>>()
        };
        exercise_bulk(
            || PmrQuadtreeIndex::open(BufferPool::in_memory()).unwrap(),
            segments(),
            SegmentQuery::InRect(Rect::new(0.0, 0.0, 60.0, 60.0)),
        );
    }

    #[test]
    fn ordered_cursor_streams_in_distance_order() {
        let kd = KdTreeIndex::open(BufferPool::in_memory()).unwrap();
        let pts = [
            Point::new(10.0, 10.0),
            Point::new(50.0, 50.0),
            Point::new(51.0, 49.0),
            Point::new(90.0, 90.0),
        ];
        for (row, p) in pts.iter().enumerate() {
            kd.insert(*p, row as RowId).unwrap();
        }
        let anchor = PointQuery::Nearest(Point::new(45.0, 45.0));
        let ordered: Vec<(Point, RowId)> = kd
            .ordered_cursor(&anchor)
            .unwrap()
            .expect("kd-tree registers distance functions")
            .collect::<StorageResult<_>>()
            .unwrap();
        assert_eq!(ordered.len(), pts.len());
        assert_eq!(ordered[0].1, 1);
        assert_eq!(ordered[1].1, 2);
        assert_eq!(ordered[3].1, 3);

        // The suffix tree registers no distance functions: no ordered scan.
        let suffix = SuffixTreeIndex::open(BufferPool::in_memory()).unwrap();
        assert!(suffix
            .ordered_cursor(&StringQuery::Nearest("abc".into()))
            .unwrap()
            .is_none());
    }

    #[test]
    fn cursor_deduplicates_rows_while_streaming() {
        let items = || {
            vec![
                ("a".to_string(), 1),
                ("b".to_string(), 1),
                ("c".to_string(), 2),
            ]
            .into_iter()
            .map(StorageResult::Ok)
        };
        let plain: Vec<_> = Cursor::new(items()).collect::<StorageResult<_>>().unwrap();
        assert_eq!(plain.len(), 3);
        let deduped: Vec<_> = Cursor::deduplicated(items())
            .collect::<StorageResult<_>>()
            .unwrap();
        assert_eq!(deduped.len(), 2);
        assert_eq!(deduped[0].1, 1);
        assert_eq!(deduped[1].1, 2);
    }
}
