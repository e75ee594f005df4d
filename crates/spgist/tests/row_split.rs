//! Row nodes — leaves that keys cannot separate, fanned out by row id — for
//! all five index classes on DetRng-seeded data: correctness against a
//! multiset oracle at sizes on both sides of the byte budget, the three
//! loading paths, repack, a durable close/reopen, the planner's height hint,
//! concurrent writers under a scanning cursor, replicated deletes; and the
//! point of the node kind, its cost, by counters rather than clocks.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use spgist::core::node::ROW_SPLIT_BYTES;
use spgist::datagen::rng::DetRng;
use spgist::datagen::{points, segments, words, world};
use spgist::indexes::query::hamming_distance;
use spgist::indexes::{KdTreeOps, PmrQuadtreeOps, PointQuadtreeOps, SpGistBacked};
use spgist::prelude::*;
use spgist::storage::{Codec, PageId};

const SEED: u64 = 0x0520_5057;

/// One index class under test: how to make it, a key to pile rows under,
/// and the class's own idea of "equal" and "near".
trait Class {
    type Index: SpIndex;
    const TAG: &'static str;
    fn create(pool: Arc<BufferPool>) -> Self::Index;
    fn reopen(
        pool: Arc<BufferPool>,
        config: SpGistConfig,
        meta: PageId,
        pages: Vec<PageId>,
        len: u64,
    ) -> Self::Index;
    /// The key every duplicate row is stored under.
    fn hot() -> Key<Self>;
    /// `n` background keys, none of which [`Class::hits`].
    fn others(n: usize, seed: u64) -> Vec<Key<Self>>;
    /// The query that finds the hot rows, and every row at all.
    fn hot_query() -> Query<Self>;
    fn all_query() -> Query<Self>;
    /// Whether a row stored under `key` answers [`Class::hot_query`].
    fn hits(key: &Key<Self>) -> bool {
        Self::distance(key) == 0.0
    }
    /// The ordered-scan query anchored at the hot key, where the class has
    /// one, and a key's distance from that anchor.
    fn nearest() -> Option<Query<Self>>;
    fn distance(key: &Key<Self>) -> f64;
    /// Hot rows that fill the byte budget of one leaf.
    fn budget_rows() -> usize
    where
        Key<Self>: Codec,
    {
        // Leaf header: tag + item count; per item: key + row id.
        (ROW_SPLIT_BYTES - 5) / (Self::hot().to_bytes().len() + 8)
    }
}
type Key<C> = <<C as Class>::Index as SpIndex>::Key;
type Query<C> = <<C as Class>::Index as SpIndex>::Query;

struct Trie;
impl Class for Trie {
    type Index = TrieIndex;
    const TAG: &'static str = "trie";
    fn create(pool: Arc<BufferPool>) -> TrieIndex {
        TrieIndex::create(pool).unwrap()
    }
    fn reopen(
        pool: Arc<BufferPool>,
        config: SpGistConfig,
        meta: PageId,
        pages: Vec<PageId>,
        _: u64,
    ) -> TrieIndex {
        TrieIndex::open_with_ops(pool, TrieOps::with_config(config), meta, pages).unwrap()
    }
    fn hot() -> String {
        "q".into()
    }
    fn others(n: usize, seed: u64) -> Vec<String> {
        let mut keys = words(n, seed);
        keys.retain(|w| w != "q");
        keys
    }
    fn hot_query() -> StringQuery {
        StringQuery::Equals(Self::hot())
    }
    fn all_query() -> StringQuery {
        StringQuery::Prefix(String::new())
    }
    fn nearest() -> Option<StringQuery> {
        Some(StringQuery::Nearest(Self::hot()))
    }
    fn distance(key: &String) -> f64 {
        hamming_distance(key, "q")
    }
}

struct Suffix;
impl Class for Suffix {
    type Index = SuffixTreeIndex;
    const TAG: &'static str = "suffix";
    fn create(pool: Arc<BufferPool>) -> SuffixTreeIndex {
        SuffixTreeIndex::create(pool).unwrap()
    }
    fn reopen(
        pool: Arc<BufferPool>,
        config: SpGistConfig,
        meta: PageId,
        pages: Vec<PageId>,
        len: u64,
    ) -> SuffixTreeIndex {
        let ops = TrieOps::with_config(config);
        SuffixTreeIndex::open_with_ops(pool, ops, meta, pages, len).unwrap()
    }
    /// Both suffixes of the word, `"xq"` and `"q"`, pile up.
    fn hot() -> String {
        "xq".into()
    }
    fn others(n: usize, seed: u64) -> Vec<String> {
        let mut keys = words(n, seed);
        keys.retain(|w| !w.contains("xq"));
        keys
    }
    fn hot_query() -> StringQuery {
        StringQuery::Substring(Self::hot())
    }
    fn all_query() -> StringQuery {
        StringQuery::Substring(String::new())
    }
    fn hits(key: &String) -> bool {
        key.contains("xq")
    }
    fn nearest() -> Option<StringQuery> {
        None
    }
    fn distance(_: &String) -> f64 {
        unreachable!("the suffix tree registers no distance functions")
    }
    fn budget_rows() -> usize {
        (ROW_SPLIT_BYTES - 5) / ("q".to_string().to_bytes().len() + 8)
    }
}

fn hot_point() -> Point {
    Point::new(37.5, 62.25)
}

fn other_points(n: usize, seed: u64) -> Vec<Point> {
    let mut keys = points(n, seed);
    keys.retain(|p| *p != hot_point());
    keys
}

struct Kd;
impl Class for Kd {
    type Index = KdTreeIndex;
    const TAG: &'static str = "kdtree";
    fn create(pool: Arc<BufferPool>) -> KdTreeIndex {
        KdTreeIndex::create(pool).unwrap()
    }
    fn reopen(
        pool: Arc<BufferPool>,
        config: SpGistConfig,
        meta: PageId,
        pages: Vec<PageId>,
        _: u64,
    ) -> KdTreeIndex {
        KdTreeIndex::open_with_ops(pool, KdTreeOps::with_config(config), meta, pages).unwrap()
    }
    fn hot() -> Point {
        hot_point()
    }
    fn others(n: usize, seed: u64) -> Vec<Point> {
        other_points(n, seed)
    }
    fn hot_query() -> PointQuery {
        PointQuery::Equals(hot_point())
    }
    fn all_query() -> PointQuery {
        PointQuery::InRect(world())
    }
    fn nearest() -> Option<PointQuery> {
        Some(PointQuery::Nearest(hot_point()))
    }
    fn distance(key: &Point) -> f64 {
        key.distance(&hot_point())
    }
}

struct PQuad;
impl Class for PQuad {
    type Index = PointQuadtreeIndex;
    const TAG: &'static str = "pquadtree";
    fn create(pool: Arc<BufferPool>) -> PointQuadtreeIndex {
        PointQuadtreeIndex::create(pool).unwrap()
    }
    fn reopen(
        pool: Arc<BufferPool>,
        config: SpGistConfig,
        meta: PageId,
        pages: Vec<PageId>,
        _: u64,
    ) -> PointQuadtreeIndex {
        let ops = PointQuadtreeOps::with_config(config);
        PointQuadtreeIndex::open_with_ops(pool, ops, meta, pages).unwrap()
    }
    fn hot() -> Point {
        hot_point()
    }
    fn others(n: usize, seed: u64) -> Vec<Point> {
        other_points(n, seed)
    }
    fn hot_query() -> PointQuery {
        PointQuery::Equals(hot_point())
    }
    fn all_query() -> PointQuery {
        PointQuery::InRect(world())
    }
    fn nearest() -> Option<PointQuery> {
        Some(PointQuery::Nearest(hot_point()))
    }
    fn distance(key: &Point) -> f64 {
        key.distance(&hot_point())
    }
}

/// A segment short enough to sit in one cell down to the PMR resolution
/// except at `x = 50`, a cell boundary at every level: exactly two replicas,
/// both in leaves no quadrant split can shrink.
fn hot_segment() -> Segment {
    Segment::new(Point::new(49.9999, 30.00001), Point::new(50.0001, 30.00002))
}

struct Pmr;
impl Class for Pmr {
    type Index = PmrQuadtreeIndex;
    const TAG: &'static str = "pmr";
    fn create(pool: Arc<BufferPool>) -> PmrQuadtreeIndex {
        PmrQuadtreeIndex::create(pool, world()).unwrap()
    }
    fn reopen(
        pool: Arc<BufferPool>,
        config: SpGistConfig,
        meta: PageId,
        pages: Vec<PageId>,
        _: u64,
    ) -> PmrQuadtreeIndex {
        let ops = PmrQuadtreeOps::with_config(world(), config);
        PmrQuadtreeIndex::open_with_ops(pool, ops, meta, pages).unwrap()
    }
    fn hot() -> Segment {
        hot_segment()
    }
    fn others(n: usize, seed: u64) -> Vec<Segment> {
        let mut keys = segments(n, 2.0, seed);
        keys.retain(|s| s.distance_to_point(&hot_segment().a) > 0.0);
        keys
    }
    fn hot_query() -> SegmentQuery {
        SegmentQuery::Equals(hot_segment())
    }
    fn all_query() -> SegmentQuery {
        SegmentQuery::InRect(world())
    }
    fn hits(key: &Segment) -> bool {
        *key == hot_segment()
    }
    fn nearest() -> Option<SegmentQuery> {
        Some(SegmentQuery::Nearest(hot_segment().a))
    }
    fn distance(key: &Segment) -> f64 {
        key.distance_to_point(&hot_segment().a)
    }
}

/// The oracle: the live `(row, key)` pairs, a multiset of keys by
/// construction (rows are unique).
type Oracle<C> = BTreeMap<RowId, Key<C>>;

fn rows_of<C: Class>(index: &C::Index, query: &Query<C>) -> Vec<RowId> {
    let mut rows = index.cursor(query).unwrap().rows().unwrap();
    rows.sort_unstable();
    rows
}

fn expect_contents<C: Class>(index: &C::Index, oracle: &Oracle<C>, what: &str) {
    let hot: Vec<RowId> = oracle
        .iter()
        .filter(|(_, key)| C::hits(key))
        .map(|(row, _)| *row)
        .collect();
    assert_eq!(
        rows_of::<C>(index, &C::hot_query()),
        hot,
        "{}: {what}: hot rows",
        C::TAG
    );
    let all: Vec<RowId> = oracle.keys().copied().collect();
    assert_eq!(
        rows_of::<C>(index, &C::all_query()),
        all,
        "{}: {what}: all rows",
        C::TAG
    );
    assert_eq!(index.len(), oracle.len() as u64, "{}: {what}: len", C::TAG);
}

/// The first `take` rows of the ordered scan are live, distinct, in
/// non-decreasing distance, and exactly as near as the oracle's nearest.
fn expect_nearest<C: Class>(index: &C::Index, oracle: &Oracle<C>, take: usize) {
    let Some(query) = C::nearest() else { return };
    let mut expected: Vec<f64> = oracle.values().map(C::distance).collect();
    expected.sort_by(f64::total_cmp);
    expected.truncate(take);
    let got: Vec<(Key<C>, RowId)> = index
        .ordered_cursor(&query)
        .unwrap()
        .expect("class registers distance functions")
        .take(take)
        .collect::<Result<_, _>>()
        .unwrap();
    let distinct: BTreeSet<RowId> = got.iter().map(|(_, row)| *row).collect();
    assert_eq!(distinct.len(), got.len(), "{}: NN repeats a row", C::TAG);
    assert_eq!(got.len(), expected.len(), "{}: NN came up short", C::TAG);
    for ((_, row), want) in got.iter().zip(&expected) {
        let key = oracle.get(row).expect("NN reported a dead row");
        let dist = C::distance(key);
        assert!(
            (dist - want).abs() < 1e-9,
            "{}: NN out of distance order: row {row} at {dist}, oracle has {want}",
            C::TAG
        );
    }
}

/// Interleaved insert / delete / search / `LIMIT` / NN over `n` rows under
/// one key plus a background of distinct keys, against the oracle.
fn model<C: Class>(n: usize, ops: usize)
where
    Key<C>: Codec,
{
    let mut rng = DetRng::seed_from_u64(SEED ^ n as u64);
    let index = C::create(BufferPool::in_memory());
    let mut oracle: Oracle<C> = BTreeMap::new();
    let mut next_row: RowId = 0;
    let mut add = |oracle: &mut Oracle<C>, key: Key<C>| {
        // Scatter the row ids: consecutive ones would fill the row-node
        // children in lockstep.
        next_row += 1 + next_row % 7;
        oracle.insert(next_row, key.clone());
        (key, next_row)
    };
    // Upper bound of every row id `add` can hand out in this run.
    let row_space = ((600 + n + ops) * 7) as RowId;
    // Background first, through the bulk builder when the pile is large so
    // DML lands on both a built and a grown shape.
    let background: Vec<_> = C::others(600, SEED)
        .into_iter()
        .map(|key| add(&mut oracle, key))
        .collect();
    let pile: Vec<_> = (0..n).map(|_| add(&mut oracle, C::hot())).collect();
    if n >= 5_000 {
        let mut items = background;
        items.extend(pile);
        index.bulk_build(items).unwrap();
    } else {
        index.insert_batch(background).unwrap();
        for (key, row) in pile {
            index.insert(key, row).unwrap();
        }
    }
    expect_contents::<C>(&index, &oracle, &format!("n={n} loaded"));
    expect_nearest::<C>(&index, &oracle, 12);

    let spare = C::others(ops, SEED ^ 0xbeef);
    for (step, spare_key) in spare.into_iter().enumerate().take(ops) {
        match rng.gen_range(0..100u32) {
            0..=39 => {
                let (key, row) = add(&mut oracle, C::hot());
                index.insert(key, row).unwrap();
            }
            40..=49 => {
                let (key, row) = add(&mut oracle, spare_key);
                index.insert(key, row).unwrap();
            }
            50..=84 => {
                // Delete a random live row: hot ones dominate the oracle.
                let at = rng.gen_range(0..row_space);
                let Some((&row, key)) = oracle.range(at..).next() else {
                    continue;
                };
                let key = key.clone();
                assert!(index.delete(&key, row).unwrap(), "{} n={n}: delete", C::TAG);
                assert!(!index.delete(&key, row).unwrap(), "{} n={n}: twice", C::TAG);
                oracle.remove(&row);
            }
            85..=94 => {
                // LIMIT: an early-terminated cursor yields live hot rows.
                let taken: Vec<RowId> = index
                    .cursor(&C::hot_query())
                    .unwrap()
                    .take(5)
                    .map(|item| item.unwrap().1)
                    .collect();
                let hot_live = oracle.values().filter(|k| C::hits(k)).count();
                assert_eq!(taken.len(), hot_live.min(5), "{} n={n}: LIMIT", C::TAG);
                let distinct: BTreeSet<_> = taken.iter().collect();
                assert_eq!(distinct.len(), taken.len(), "{} n={n}: LIMIT", C::TAG);
                assert!(taken.iter().all(|row| C::hits(&oracle[row])));
            }
            _ => expect_nearest::<C>(&index, &oracle, 8),
        }
        if step % (ops / 4).max(1) == 0 {
            expect_contents::<C>(&index, &oracle, &format!("n={n} step {step}"));
        }
    }
    expect_contents::<C>(&index, &oracle, &format!("n={n} done"));
    expect_nearest::<C>(&index, &oracle, 40);
    let stats = index.stats().unwrap();
    assert!(
        stats.items >= oracle.len() as u64,
        "{} n={n}: stats count every stored item",
        C::TAG
    );
}

fn model_at_every_size<C: Class>()
where
    Key<C>: Codec,
{
    let budget = C::budget_rows();
    for n in [1, budget - 1, budget, budget + 1] {
        model::<C>(n, 240);
    }
    model::<C>(5_000, 400);
    model::<C>(50_000, 400);
}

#[test]
fn trie_matches_the_oracle_at_every_pile_size() {
    model_at_every_size::<Trie>();
}

#[test]
fn suffix_tree_matches_the_oracle_at_every_pile_size() {
    model_at_every_size::<Suffix>();
}

#[test]
fn kdtree_matches_the_oracle_at_every_pile_size() {
    model_at_every_size::<Kd>();
}

#[test]
fn point_quadtree_matches_the_oracle_at_every_pile_size() {
    model_at_every_size::<PQuad>();
}

#[test]
fn pmr_quadtree_matches_the_oracle_at_every_pile_size() {
    model_at_every_size::<Pmr>();
}

/// A shuffled load, 60 % of it under one key.
fn heavy_duplicates<C: Class>(total: usize, seed: u64) -> Vec<(Key<C>, RowId)> {
    let mut keys = C::others(total * 2 / 5, seed);
    keys.resize(total, C::hot());
    let mut rng = DetRng::seed_from_u64(seed);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..=i));
    }
    keys.into_iter().zip(0..).collect()
}

fn file_pool(path: &std::path::Path, create: bool) -> Arc<BufferPool> {
    let pager = if create {
        FilePager::create(path).unwrap()
    } else {
        FilePager::open(path).unwrap()
    };
    Arc::new(BufferPool::new(
        Arc::new(pager),
        BufferPoolConfig {
            capacity: 512,
            ..Default::default()
        },
    ))
}

/// Bulk build ≡ insert loop ≡ `insert_batch`; then, on a file: the planner's
/// height hint stays within one page of the exact walk while the pile grows,
/// `repack` and a close → reopen preserve the contents, and the reopened
/// tree keeps taking DML.
fn loads_agree_and_survive_repack_and_reopen<C: Class>() {
    let items = heavy_duplicates::<C>(4_000, SEED ^ 7);
    let oracle: Oracle<C> = items.iter().map(|(key, row)| (*row, key.clone())).collect();

    let looped = C::create(BufferPool::in_memory());
    for (key, row) in items.clone() {
        looped.insert(key, row).unwrap();
    }
    expect_contents::<C>(&looped, &oracle, "insert loop");
    let batched = C::create(BufferPool::in_memory());
    batched.insert_batch(items.clone()).unwrap();
    expect_contents::<C>(&batched, &oracle, "insert_batch");
    assert_eq!(
        batched.owned_pages().len(),
        looped.owned_pages().len(),
        "{}: insert_batch reuses retired records like the insert loop",
        C::TAG
    );

    let dir = std::env::temp_dir().join(format!("spgist-rows-{}-{}", C::TAG, std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.pages");
    let pool = file_pool(&path, true);
    let index = C::create(Arc::clone(&pool));
    let built = index.bulk_build(items).unwrap();
    expect_contents::<C>(&index, &oracle, "bulk build");
    let walked = index.stats().unwrap();
    assert_eq!(built, walked, "{}: build-time stats match the walk", C::TAG);
    assert!(
        walked.inner_nodes > looped.stats().unwrap().inner_nodes / 4,
        "{}: the builder emits row nodes like the insert path",
        C::TAG
    );
    let exact = |index: &C::Index| {
        let stats = index.stats().unwrap();
        (stats.pages, stats.max_page_height)
    };
    assert_eq!(
        index.planner_stats().unwrap(),
        exact(&index),
        "{}: hint",
        C::TAG
    );

    // Grow the pile on the built shape; sample the hint against the walk.
    let mut oracle = oracle;
    let mut worst = 0;
    for i in 0..2_000u64 {
        let row = 1_000_000 + i * 3;
        index.insert(C::hot(), row).unwrap();
        oracle.insert(row, C::hot());
        if i % 100 == 99 {
            let (pages, hint) = index.planner_stats().unwrap();
            let (exact_pages, height) = exact(&index);
            assert_eq!(pages, exact_pages, "{}: pages", C::TAG);
            worst = worst.max(hint.abs_diff(height));
        }
    }
    assert!(worst <= 1, "{}: hint drifted by {worst}", C::TAG);
    expect_contents::<C>(&index, &oracle, "grown");

    let grown = index.stats().unwrap();
    index.repack().unwrap();
    expect_contents::<C>(&index, &oracle, "repacked");
    assert_eq!(
        index.planner_stats().unwrap(),
        exact(&index),
        "{}: hint after repack",
        C::TAG
    );
    let repacked = index.stats().unwrap();
    assert_eq!(
        (repacked.items, repacked.inner_nodes, repacked.leaf_nodes),
        (grown.items, grown.inner_nodes, grown.leaf_nodes),
        "{}: repack moves nodes, it does not reshape the tree",
        C::TAG
    );

    let identity = (
        index.config(),
        index.meta_page(),
        index.owned_pages(),
        index.len(),
    );
    pool.flush_all().unwrap();
    drop(index);
    drop(pool);
    let (config, meta, pages, len) = identity;
    let reopened = C::reopen(file_pool(&path, false), config, meta, pages, len);
    expect_contents::<C>(&reopened, &oracle, "reopened");
    for row in (1_000_000..1_000_900).step_by(3) {
        assert!(
            reopened.delete(&C::hot(), row).unwrap(),
            "{}: delete after reopen",
            C::TAG
        );
        oracle.remove(&row);
    }
    reopened.insert(C::hot(), 77_777_777).unwrap();
    oracle.insert(77_777_777, C::hot());
    expect_contents::<C>(&reopened, &oracle, "reopened + DML");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trie_loads_agree_and_survive_repack_and_reopen() {
    loads_agree_and_survive_repack_and_reopen::<Trie>();
}

#[test]
fn suffix_tree_loads_agree_and_survive_repack_and_reopen() {
    loads_agree_and_survive_repack_and_reopen::<Suffix>();
}

#[test]
fn kdtree_loads_agree_and_survive_repack_and_reopen() {
    loads_agree_and_survive_repack_and_reopen::<Kd>();
}

#[test]
fn point_quadtree_loads_agree_and_survive_repack_and_reopen() {
    loads_agree_and_survive_repack_and_reopen::<PQuad>();
}

#[test]
fn pmr_quadtree_loads_agree_and_survive_repack_and_reopen() {
    loads_agree_and_survive_repack_and_reopen::<Pmr>();
}

/// `SpGistTree::insert_all` pays gate, meta write and reclamation once per
/// small chunk, not once per call: a long batch must end on about the pages
/// the insert loop ends on (deferring reclamation to the end of an 8 000-key
/// batch left the trie at seven times the pages).
fn insert_all_reuses_pages_like_the_insert_loop<C: Class>()
where
    C::Index: SpGistBacked,
    <C::Index as SpGistBacked>::Ops: SpGistOps<Key = Key<C>>,
{
    let items = heavy_duplicates::<C>(8_000, SEED ^ 11);
    let looped = C::create(BufferPool::in_memory());
    for (key, row) in items.clone() {
        looped.backing().insert(key, row).unwrap();
    }
    let batched = C::create(BufferPool::in_memory());
    batched.backing().insert_all(items).unwrap();
    assert_eq!(batched.backing().len(), looped.backing().len());
    let (batched, looped) = (batched.owned_pages().len(), looped.owned_pages().len());
    assert!(
        batched * 10 <= looped * 11,
        "{}: insert_all ended on {batched} pages, the insert loop on {looped}",
        C::TAG
    );
}

#[test]
fn insert_all_reuses_pages_like_the_insert_loop_in_trie_and_kdtree() {
    insert_all_reuses_pages_like_the_insert_loop::<Trie>();
    insert_all_reuses_pages_like_the_insert_loop::<Kd>();
}

#[test]
fn two_writers_on_one_key_under_a_scanning_cursor_lose_and_duplicate_nothing() {
    const PRELOADED: u64 = 500;
    const PER_WRITER: u64 = 3_000;
    let index = Arc::new(TrieIndex::create(BufferPool::in_memory()).unwrap());
    for row in 0..PRELOADED {
        index.insert("q", row).unwrap();
    }
    // Both writers and the scanner leave the barrier together; the scanner
    // keeps opening cursors until both writers have finished, so every scan
    // but the last overlaps live row splits on the one key.
    let barrier = Arc::new(Barrier::new(3));
    let writing = Arc::new(AtomicBool::new(true));
    let writers: Vec<_> = (0..2u64)
        .map(|t| {
            let (index, barrier) = (Arc::clone(&index), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..PER_WRITER {
                    index.insert("q", PRELOADED + i * 2 + t).unwrap();
                }
            })
        })
        .collect();
    let scanner = {
        let (index, barrier, writing) = (
            Arc::clone(&index),
            Arc::clone(&barrier),
            Arc::clone(&writing),
        );
        std::thread::spawn(move || {
            barrier.wait();
            let mut scans = 0u32;
            let mut floor = PRELOADED as usize;
            loop {
                let last = !writing.load(Ordering::SeqCst);
                let rows = index.equals("q").unwrap();
                let distinct: BTreeSet<RowId> = rows.iter().copied().collect();
                assert_eq!(distinct.len(), rows.len(), "a scan reported a row twice");
                assert!(
                    (0..PRELOADED).all(|row| distinct.contains(&row)),
                    "a scan lost a row inserted before it began"
                );
                // Nothing is ever deleted: what one scan saw, later ones see.
                assert!(rows.len() >= floor, "scan {scans} went backwards");
                floor = rows.len();
                scans += 1;
                if last {
                    return (scans, rows.len());
                }
            }
        })
    };
    for writer in writers {
        writer.join().unwrap();
    }
    writing.store(false, Ordering::SeqCst);
    let (scans, seen) = scanner.join().unwrap();
    assert!(scans >= 2, "the scanner never overlapped the writers");
    let total = PRELOADED + 2 * PER_WRITER;
    assert_eq!(seen as u64, total, "the final scan sees every insert");
    assert_eq!(index.len(), total);
    assert_eq!(
        index.equals("q").unwrap().len() as u64,
        total,
        "no insert lost, none duplicated"
    );
    assert!(index.tree().stats().unwrap().inner_nodes > 16);
}

#[test]
fn delete_replicated_reaches_every_replica_in_row_split_pmr_leaves() {
    let index = PmrQuadtreeIndex::create(BufferPool::in_memory(), world()).unwrap();
    let background = segments(400, 2.0, SEED ^ 9);
    for (row, segment) in background.iter().enumerate() {
        index.insert(*segment, 1_000_000 + row as RowId).unwrap();
    }
    let before = index.stats().unwrap();
    // Physical copies of the segment, replicas included (no row dedupe).
    let copies = || {
        let raw = index.backing().search(&SegmentQuery::Equals(hot_segment()));
        raw.unwrap().len() as u64
    };
    let rows = 600u64;
    for row in 0..rows {
        index.insert(hot_segment(), row * 5).unwrap();
    }
    assert_eq!(
        copies(),
        2 * rows,
        "the segment is stored once on each side of x = 50"
    );
    assert!(
        index.stats().unwrap().inner_nodes >= before.inner_nodes + 2,
        "both replicas' leaves outgrew the budget and fanned out"
    );
    assert_eq!(index.len(), 400 + rows);
    // Every other row goes; each delete must take both replicas with it.
    for row in (0..rows).step_by(2) {
        assert!(index.delete(&hot_segment(), row * 5).unwrap());
        assert!(!index.delete(&hot_segment(), row * 5).unwrap());
    }
    assert_eq!(copies(), rows, "no replica of a deleted row stays");
    assert_eq!(index.len(), 400 + rows / 2);
    let mut survivors = index
        .cursor(&SegmentQuery::Equals(hot_segment()))
        .unwrap()
        .rows()
        .unwrap();
    survivors.sort_unstable();
    let expected: Vec<RowId> = (0..rows).skip(1).step_by(2).map(|row| row * 5).collect();
    assert_eq!(survivors, expected);
    // A window on one side of the boundary sees the survivors once each.
    let west = SegmentQuery::InRect(Rect::new(49.9, 29.9, 49.99995, 30.1));
    assert_eq!(index.cursor(&west).unwrap().count(), expected.len());
}

/// Pool logical reads and pages dirtied by `op` on a flushed pool.
fn cost_of(pool: &BufferPool, op: impl FnOnce()) -> (u64, usize) {
    pool.flush_all().unwrap();
    let before = pool.stats();
    op();
    let reads = pool.stats().delta_since(&before).logical_reads;
    (reads, pool.dirty_page_ids().len())
}

#[test]
fn one_insert_or_delete_among_50_000_equal_keys_costs_a_descent_not_the_pile() {
    let pool = BufferPool::in_memory();
    let index = TrieIndex::create(Arc::clone(&pool)).unwrap();
    // A real trie around the pile, so the page height is not trivially 1.
    let background: Vec<(String, RowId)> =
        words(20_000, SEED).into_iter().zip(10_000_000..).collect();
    index.bulk_build(background).unwrap();
    let mut small = (0, 0);
    for row in 0..50_000u64 {
        index.insert("q", row).unwrap();
        let n = row + 1;
        if n != 100 && n != 3_000 && n != 50_000 {
            continue;
        }
        let height = u64::from(index.stats().unwrap().max_page_height);
        let (insert_reads, insert_dirty) =
            cost_of(&pool, || index.insert("q", 99_999_999).unwrap());
        let (delete_reads, delete_dirty) = cost_of(&pool, || {
            assert!(index.delete("q", 99_999_999).unwrap());
        });
        println!(
            "n={n}: page height {height}; insert {insert_reads} reads / {insert_dirty} dirty, \
             delete {delete_reads} reads / {delete_dirty} dirty"
        );
        // At the parent commit the pile was one spilled leaf: 45 reads and
        // 10 dirty pages at n = 3 000, 2 792 and 166 at n = 50 000.
        for (what, reads, dirty) in [
            ("insert", insert_reads, insert_dirty),
            ("delete", delete_reads, delete_dirty),
        ] {
            assert!(reads <= height + 8, "n={n}: one {what} read {reads} pages");
            assert!(dirty <= 3, "n={n}: one {what} dirtied {dirty} pages");
        }
        if n == 100 {
            small = (insert_reads, delete_reads);
        } else {
            assert!(
                insert_reads <= 2 * small.0 && delete_reads <= 2 * small.1,
                "n={n}: cost grew with the pile ({insert_reads}/{delete_reads} reads vs {small:?} at n=100)"
            );
        }
    }
}

#[test]
fn suffix_tree_churn_reuses_its_pages() {
    // The benchmark's `words` table in miniature time: 80 000 words bulk
    // built, then 4 000 rounds of one fresh word in, the oldest out.
    let index = SuffixTreeIndex::create(BufferPool::in_memory()).unwrap();
    let loaded = words(80_000, SEED ^ 11);
    let fresh = words(4_000, SEED ^ 12);
    let items: Vec<(String, RowId)> = loaded.iter().cloned().zip(0..).collect();
    index.bulk_build(items).unwrap();
    let before = index.owned_pages().len();
    for (i, word) in fresh.iter().enumerate() {
        index.insert(word, 80_000 + i as RowId).unwrap();
        assert!(index.delete(&loaded[i], i as RowId).unwrap(), "round {i}");
    }
    let after = index.owned_pages().len();
    println!("suffix tree pages under 4 000 rounds of 1:1 churn: {before} -> {after}");
    // At the parent commit every DML on a shared suffix rewrote its spill
    // chain into fresh records: +37 % here, +46 % in the benchmark.
    assert!(
        after * 10 <= before * 11,
        "owned pages grew {before} -> {after}, more than 10 %"
    );
    assert_eq!(index.len(), 80_000);
    assert_eq!(index.substring(&fresh[17]).unwrap().len(), {
        let live = loaded[4_000..].iter().chain(&fresh);
        live.filter(|w| w.contains(fresh[17].as_str())).count()
    });
}
