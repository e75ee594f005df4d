//! The unified index interface, and the one index type every class shares.
//!
//! The paper's thesis is that one extensible framework can serve many
//! space-partitioning indexes: a class is its external methods.  Here that
//! holds up to the index layer.  [`SpGistIndex<O>`] is the index over any
//! [`SpGistOps`] class `O`; the patricia trie, suffix tree, kd-tree, point
//! quadtree and PMR quadtree are type aliases of it, and a new class needs
//! no index code of its own.  The per-class facts the generic code reads
//! are two: [`SpGistOps::REPLICATES`] (one key copied into several leaves
//! by the descent, the PMR quadtree's) and [`SpGistOps::MULTI_ENTRY`] (one
//! value stored as several entries, the suffix tree's).  Either gets
//! row-deduplicating cursors; a multi-entry class's cursors also yield no
//! keys and it offers no ordered scan.
//!
//! [`SpIndex`] is the typed surface generic code is written against — the
//! `spgist-catalog` executor, benchmarks, tests (`insert` / `delete` /
//! `execute` / `cursor` / `len` / `stats` / `repack`).  [`SpGistIndex<O>`]
//! is its one implementation.
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
//! catalog layer's job, not the index's.
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
/// Cursors over replicating and multi-entry indexes (PMR quadtree, suffix
/// tree) deduplicate by row id while streaming.
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
/// Implemented by [`SpGistIndex<O>`] for every class, so one generic
/// function can build, maintain and query any of them.  Every method takes `&self`: the backing tree crabs page latches
/// for updates and serves queries latch-free under epoch protection, so an
/// index shared behind an `Arc` serves concurrent readers and writers
/// without blocking reads.
///
/// ```
/// use spgist_indexes::{SpIndex, TrieIndex, StringQuery};
/// use spgist_storage::BufferPool;
///
/// fn count_matches<I: SpIndex>(index: &I, query: &I::Query) -> u64 {
///     index.cursor(query).unwrap().count() as u64
/// }
///
/// let trie = TrieIndex::create(BufferPool::in_memory()).unwrap();
/// trie.insert("space".into(), 1).unwrap();
/// trie.insert("spade".into(), 2).unwrap();
/// assert_eq!(count_matches(&trie, &StringQuery::Prefix("sp".into())), 2);
/// ```
pub trait SpIndex: SpGistBacked {
    /// Key type stored by the index (the paper's *KeyType*).
    type Key: Clone;
    /// Query predicate type of the operators registered for the index.
    type Query: Clone;

    /// Whether the key a cursor yields *is* the value that was indexed
    /// (PostgreSQL SP-GiST's `canReturnData`), so a caller holding heap
    /// rows need not fetch one to learn it.  False only where one indexed
    /// value is stored as several entries ([`SpGistOps::MULTI_ENTRY`]: the
    /// suffix tree yields suffixes, not words).
    const RETURNS_KEYS: bool = true;

    /// Inserts one `(key, row)` item (page latches crabbed internally).
    fn insert(&self, key: Self::Key, row: RowId) -> StorageResult<()>;

    /// Inserts a batch of `(key, row)` items — the DML-statement form of
    /// [`SpIndex::insert`].  The batch is *not* atomic with respect to
    /// concurrent cursors (readers are never blocked); callers needing
    /// statement atomicity serialize at a higher layer, as the catalog's
    /// per-table DML lock does.
    fn insert_batch(&self, items: Vec<(Self::Key, RowId)>) -> StorageResult<()>;

    /// Builds the index from the full `(key, row)` set in one pass — the
    /// paper's `spgistbuild` (Section 4) carried to the index layer.
    ///
    /// The backing tree's [`spgist_core::BulkBuilder`] partitions the whole
    /// set top-down with `picksplit` and writes each node exactly once; a
    /// class storing a value as several entries is built one root partition
    /// of entries at a time (the suffix tree's suffixes).  Requires an
    /// **empty** index and
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
    /// after `k` reported items.  Returns `None` where distance says nothing
    /// about the indexed value ([`SpGistOps::MULTI_ENTRY`]: the suffix tree,
    /// whose operator class has no `@@` operator).
    fn ordered_cursor(&self, query: &Self::Query) -> StorageResult<Option<Cursor<'_, Self::Key>>>;

    /// Runs `query`, materializing every match (the eager counterpart of
    /// [`SpIndex::cursor`]).
    fn execute(&self, query: &Self::Query) -> StorageResult<Vec<(Self::Key, RowId)>> {
        self.cursor(query)?.collect()
    }

    /// Number of values in the index (a value stored as several entries
    /// counts once).
    fn len(&self) -> u64;

    /// Refuses, before anything changes, a value the class cannot store
    /// (see [`SpGistOps::entries`]).
    fn admits(&self, key: &Self::Key) -> StorageResult<()>;

    /// True if the index holds no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Structural statistics (heights, pages, size) gathered from the
    /// backing tree.
    fn stats(&self) -> StorageResult<TreeStats> {
        self.backing().stats()
    }

    /// The planner's `(pages, page_height)` view of the backing tree — an
    /// O(1) read that writes keep current, unlike the full walk of
    /// [`SpIndex::stats`] (see [`SpGistTree::planner_stats`]).
    fn planner_stats(&self) -> StorageResult<(u64, u32)> {
        self.backing().planner_stats()
    }

    /// The meta page identifying the backing tree on its pager — one half of
    /// the index's durable identity (persist it, plus
    /// [`SpIndex::owned_pages`], and the index reopens from disk).
    fn meta_page(&self) -> PageId {
        self.backing().meta_page()
    }

    /// The pages the backing tree owns, in allocation order.  The durable
    /// catalog persists this list so a reopened index keeps full statistics
    /// and can free its pages on `DROP INDEX`.
    fn owned_pages(&self) -> Vec<PageId> {
        self.backing().owned_pages()
    }

    /// The interface parameters the backing tree runs with (persisted by the
    /// durable catalog so reopening round-trips the configuration).
    fn config(&self) -> SpGistConfig {
        self.backing().ops().config()
    }

    /// Re-clusters the backing tree into fresh pages to minimize page
    /// height (see [`SpGistTree::repack`]); other writers are excluded for
    /// the whole rewrite, while readers keep traversing the old layout
    /// until the root flips.
    fn repack(&self) -> StorageResult<()> {
        self.backing().repack()
    }

    /// Consumes the index and releases every page it owns back to the
    /// pager's free list (`DROP INDEX`).
    fn destroy(self) -> StorageResult<()>
    where
        Self: Sized,
    {
        // Destruction frees the index's pages, so it must be the sole owner:
        // wait out any cursor still holding a clone of the handle.
        let mut arc = Arc::clone(self.backing());
        drop(self);
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

/// An index's backing generalized tree.
pub trait SpGistBacked {
    /// External methods of the backing tree.
    type Ops: SpGistOps;

    /// The backing generalized tree, held in an `Arc` since cursors keep
    /// their own handle.  The tree is internally concurrent (crabbing
    /// writers, epoch-protected readers), so no external latch wraps it.
    fn backing(&self) -> &Arc<SpGistTree<Self::Ops>>;
}

/// The index over an SP-GiST class: [`SpGistOps`] `O` on a [`SpGistTree`].
///
/// The uniform surface comes from [`SpIndex`]; each class adds only
/// operator sugar (the trie's `=` / `#=`, the PMR quadtree's window query)
/// to its alias ([`TrieIndex`](crate::TrieIndex),
/// [`KdTreeIndex`](crate::KdTreeIndex), …).
pub struct SpGistIndex<O: SpGistOps> {
    tree: Arc<SpGistTree<O>>,
}

impl<O: SpGistOps> SpGistIndex<O> {
    /// Creates an empty index of class `ops` on `pool`.
    pub fn with_ops(pool: Arc<BufferPool>, ops: O) -> StorageResult<Self> {
        Ok(SpGistIndex {
            tree: Arc::new(SpGistTree::create(pool, ops)?),
        })
    }

    /// Re-opens an index previously created on the file behind `pool` from
    /// its persisted identity: the tree's meta page, its owned-page list,
    /// and the external-method parameters it was created with (the durable
    /// catalog round-trips all three).
    pub fn open_with_ops(
        pool: Arc<BufferPool>,
        ops: O,
        meta_page: PageId,
        pages: Vec<PageId>,
    ) -> StorageResult<Self> {
        Ok(SpGistIndex {
            tree: Arc::new(SpGistTree::open(pool, ops, meta_page, pages)?),
        })
    }

    /// Wraps raw tree items, deduplicating rows where the class meets a
    /// value more than once.
    fn stream<'c>(
        inner: impl Iterator<Item = StorageResult<(O::Key, RowId)>> + 'c,
    ) -> Cursor<'c, O::Key> {
        if O::REPLICATES || O::MULTI_ENTRY {
            Cursor::deduplicated(inner)
        } else {
            Cursor::new(inner)
        }
    }
}

impl<O: SpGistOps + Default> SpGistIndex<O> {
    /// Creates an empty index of the class's default parameters on `pool`.
    pub fn create(pool: Arc<BufferPool>) -> StorageResult<Self> {
        Self::with_ops(pool, O::default())
    }
}

impl<O: SpGistOps> SpGistBacked for SpGistIndex<O> {
    type Ops = O;

    fn backing(&self) -> &Arc<SpGistTree<O>> {
        &self.tree
    }
}

impl<O: SpGistOps> SpIndex for SpGistIndex<O> {
    type Key = O::Key;
    type Query = O::Query;
    const RETURNS_KEYS: bool = !O::MULTI_ENTRY;

    fn insert(&self, key: O::Key, row: RowId) -> StorageResult<()> {
        self.tree.insert(key, row)
    }

    fn insert_batch(&self, items: Vec<(O::Key, RowId)>) -> StorageResult<()> {
        self.tree.insert_all(items)
    }

    fn bulk_build(&self, items: Vec<(O::Key, RowId)>) -> StorageResult<TreeStats> {
        self.tree.bulk_build(items)
    }

    fn delete(&self, key: &O::Key, row: RowId) -> StorageResult<bool> {
        self.tree.delete(key, row)
    }

    fn cursor(&self, query: &O::Query) -> StorageResult<Cursor<'_, O::Key>> {
        // The cursor carries its own Arc on the tree plus an epoch pin; it
        // holds no latch, so writers proceed while it is open.
        let inner = SearchCursor::over(Arc::clone(&self.tree), query.clone());
        Ok(Self::stream(inner))
    }

    fn ordered_cursor(&self, query: &O::Query) -> StorageResult<Option<Cursor<'_, O::Key>>> {
        if O::MULTI_ENTRY {
            return Ok(None);
        }
        let inner = NnIter::over(Arc::clone(&self.tree), query.clone())
            .map(|item| item.map(|(key, row, _)| (key, row)));
        Ok(Some(Self::stream(inner)))
    }

    fn len(&self) -> u64 {
        self.tree.len()
    }

    fn admits(&self, key: &O::Key) -> StorageResult<()> {
        self.tree.ops().entries(key).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point, Rect, Segment};
    use crate::pmr::DEFAULT_WORLD;
    use crate::query::{PointQuery, SegmentQuery, StringQuery};
    use crate::{KdTreeIndex, PmrQuadtreeIndex, PointQuadtreeIndex, SuffixTreeIndex, TrieIndex};
    use spgist_core::testing::{DigitSuffixOps, DigitTrieOps};

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
        let index = TrieIndex::create(BufferPool::in_memory()).unwrap();
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
        let index = SuffixTreeIndex::create(BufferPool::in_memory()).unwrap();
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
        let index = KdTreeIndex::create(BufferPool::in_memory()).unwrap();
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
        let index = PointQuadtreeIndex::create(BufferPool::in_memory()).unwrap();
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
        let index = PmrQuadtreeIndex::create(BufferPool::in_memory(), DEFAULT_WORLD).unwrap();
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
            || TrieIndex::create(BufferPool::in_memory()).unwrap(),
            words(),
            StringQuery::Prefix("sp".into()),
        );
        exercise_bulk(
            || SuffixTreeIndex::create(BufferPool::in_memory()).unwrap(),
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
            || KdTreeIndex::create(BufferPool::in_memory()).unwrap(),
            points(),
            PointQuery::InRect(Rect::new(10.0, 10.0, 70.0, 70.0)),
        );
        exercise_bulk(
            || PointQuadtreeIndex::create(BufferPool::in_memory()).unwrap(),
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
            || PmrQuadtreeIndex::create(BufferPool::in_memory(), DEFAULT_WORLD).unwrap(),
            segments(),
            SegmentQuery::InRect(Rect::new(0.0, 0.0, 60.0, 60.0)),
        );
    }

    /// A class is its external methods: the digit trie of `spgist_core`'s
    /// own tests has no index code anywhere, yet is a full index.
    #[test]
    fn a_class_with_no_index_code_is_a_full_index() {
        let make = || SpGistIndex::<DigitTrieOps>::create(BufferPool::in_memory()).unwrap();
        exercise(
            make(),
            vec![(42, 0), (7, 1), (420, 2), (42, 3), (4242, 4)],
            42,
            &[0, 3],
        );
        // Fifty keys, four rows each: enough for the bucket of four to split.
        let items = (0..200u32).map(|k| (k % 50 * 7, RowId::from(k))).collect();
        exercise_bulk(make, items, 21);
    }

    /// Storing a value as several entries is a class fact, not the suffix
    /// tree's: a digit trie storing a number as its decimal suffixes is a
    /// full index too, counting values and reporting each row once.
    #[test]
    fn a_class_storing_a_value_as_several_entries_is_a_full_index() {
        let make = || SpGistIndex::<DigitSuffixOps>::create(BufferPool::in_memory()).unwrap();
        // 42 is an entry of 42, 4242 and 142, once each.
        let items = vec![(42, 0), (7, 1), (4242, 2), (142, 3), (5, 4)];
        exercise(make(), items, 42, &[0, 2, 3]);
        let items: Vec<_> = (0..300u32)
            .map(|k| (k * 37 % 1000, RowId::from(k)))
            .collect();
        exercise_bulk(make, items.clone(), 7);
        let index = make();
        index.bulk_build(items).unwrap();
        assert_eq!(index.len(), 300);
        assert!(index.stats().unwrap().items > 600, "every value's entries");
        // 9042 was never indexed for row 0: its entry 42 may be, 9042 not.
        assert!(!index.delete(&9042, 0).unwrap());
        assert_eq!(index.len(), 300);
        let rows = |ix: &SpGistIndex<DigitSuffixOps>| ix.cursor(&7).unwrap().rows().unwrap();
        let ends_in_7 = rows(&index);
        assert_eq!(ends_in_7.len(), 30, "each row once");
        // The count survives a reopen: the meta record counts values.
        let pool = Arc::clone(index.backing().pool());
        let (meta, pages) = (index.meta_page(), index.owned_pages());
        drop(index);
        let reopened = SpGistIndex::open_with_ops(pool, DigitSuffixOps::default(), meta, pages);
        let reopened = reopened.unwrap();
        assert_eq!(reopened.len(), 300);
        assert_eq!(rows(&reopened), ends_in_7);
    }

    #[test]
    fn ordered_cursor_streams_in_distance_order() {
        let kd = KdTreeIndex::create(BufferPool::in_memory()).unwrap();
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
        let suffix = SuffixTreeIndex::create(BufferPool::in_memory()).unwrap();
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
