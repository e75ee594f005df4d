//! Bulk-build equivalence: `SpIndex::bulk_build` must answer every query
//! exactly like the insert loop it replaces, for all five index classes, on
//! DetRng-seeded data — including the degenerate inputs (all-equal keys,
//! resolution-exhausted partitions) where `picksplit` can make no progress —
//! and a bulk-built database must round-trip through the durable catalog.

use std::sync::Arc;

use spgist::prelude::*;
use spgist_datagen::rng::DetRng;
use spgist_datagen::{points, segments, words, world, QueryWorkload};
use spgist_indexes::query::hamming_distance;

const SEED: u64 = 0xb01d_b11d;

fn pool() -> Arc<BufferPool> {
    BufferPool::in_memory()
}

/// A fresh, empty index of each class, as the class's `create` builds it.
trait Fresh: SpIndex + Sized {
    fn fresh(pool: Arc<BufferPool>) -> Self;
}

impl Fresh for TrieIndex {
    fn fresh(pool: Arc<BufferPool>) -> Self {
        Self::create(pool).unwrap()
    }
}

impl Fresh for SuffixTreeIndex {
    fn fresh(pool: Arc<BufferPool>) -> Self {
        Self::create(pool).unwrap()
    }
}

impl Fresh for KdTreeIndex {
    fn fresh(pool: Arc<BufferPool>) -> Self {
        Self::create(pool).unwrap()
    }
}

impl Fresh for PointQuadtreeIndex {
    fn fresh(pool: Arc<BufferPool>) -> Self {
        Self::create(pool).unwrap()
    }
}

impl Fresh for PmrQuadtreeIndex {
    fn fresh(pool: Arc<BufferPool>) -> Self {
        Self::create(pool, world()).unwrap()
    }
}

/// Sorted row ids a query returns.
fn rows<I: SpIndex>(index: &I, query: &I::Query) -> Vec<RowId> {
    let mut rows = index.cursor(query).unwrap().rows().unwrap();
    rows.sort_unstable();
    rows
}

/// Drains an ordered (`@@`) cursor into its `(key, row)` stream.
fn ordered<I: SpIndex>(index: &I, query: &I::Query) -> Vec<(I::Key, RowId)> {
    index
        .ordered_cursor(query)
        .unwrap()
        .expect("class registers @@")
        .collect::<Result<_, _>>()
        .unwrap()
}

/// Asserts two ordered streams agree: same row set, and the same distance
/// *profile* position by position (tie order inside one distance may differ
/// between differently-shaped trees).
fn assert_ordered_equivalent<K: Clone>(
    bulk: &[(K, RowId)],
    looped: &[(K, RowId)],
    dist: impl Fn(&K) -> f64,
) {
    assert_eq!(bulk.len(), looped.len());
    let profile =
        |items: &[(K, RowId)]| -> Vec<f64> { items.iter().map(|(k, _)| dist(k)).collect() };
    let (bp, lp) = (profile(bulk), profile(looped));
    assert!(
        bp.windows(2).all(|w| w[0] <= w[1]),
        "bulk stream is distance-ordered"
    );
    for (i, (b, l)) in bp.iter().zip(&lp).enumerate() {
        assert!(
            (b - l).abs() < 1e-9,
            "distance profile diverges at {i}: {b} vs {l}"
        );
    }
    let mut br: Vec<RowId> = bulk.iter().map(|(_, r)| *r).collect();
    let mut lr: Vec<RowId> = looped.iter().map(|(_, r)| *r).collect();
    br.sort_unstable();
    lr.sort_unstable();
    assert_eq!(br, lr, "ordered streams report the same rows");
}

/// Frames of [`bounded_pool`]: fewer than the pages of any tree the
/// per-class tests build, so a load pays eviction write-backs.
const POOL_FRAMES: usize = 8;

fn bounded_pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(
        Arc::new(MemPager::new()),
        BufferPoolConfig {
            capacity: POOL_FRAMES,
            ..Default::default()
        },
    ))
}

/// Builds the same item set twice — bulk and loop — and checks logical
/// counts, the build-stats/len invariants shared by every class, and that
/// the bulk build is the cheaper load in page writes.
fn twins<I: Fresh>(items: Vec<(I::Key, RowId)>) -> (I, I) {
    let (bulk_pool, loop_pool) = (bounded_pool(), bounded_pool());
    let bulk = I::fresh(Arc::clone(&bulk_pool));
    let bulk_before = bulk_pool.stats();
    let stats = bulk.bulk_build(items.clone()).unwrap();
    bulk_pool.flush_all().unwrap();
    let looped = I::fresh(Arc::clone(&loop_pool));
    let loop_before = loop_pool.stats();
    for (key, row) in items {
        looped.insert(key, row).unwrap();
    }
    loop_pool.flush_all().unwrap();
    let (bulk_writes, loop_writes) = (
        bulk_pool.stats().delta_since(&bulk_before).physical_writes,
        loop_pool.stats().delta_since(&loop_before).physical_writes,
    );
    // The bulk build writes each page once; the loop re-dirties pages the
    // pool has to write back again and again once the tree outgrows it.
    assert!(
        bulk_writes <= loop_writes
            && (bulk_writes < loop_writes || loop_writes <= POOL_FRAMES as u64),
        "bulk build wrote {bulk_writes} pages, the insert loop {loop_writes}"
    );
    assert_eq!(bulk.len(), looped.len(), "logical item counts agree");
    assert_eq!(
        stats.items,
        bulk.stats().unwrap().items,
        "build-time stats agree with a traversal"
    );
    (bulk, looped)
}

// ---------------------------------------------------------------------------
// Per-class equivalence on DetRng-seeded data
// ---------------------------------------------------------------------------

#[test]
fn trie_bulk_build_equivalent_to_insert_loop() {
    let data = words(3_000, SEED);
    let items: Vec<(String, RowId)> = data
        .iter()
        .cloned()
        .enumerate()
        .map(|(row, w)| (w, row as RowId))
        .collect();
    let (bulk, looped) = twins::<TrieIndex>(items.clone());

    for probe in QueryWorkload::existing(&data, 30, SEED ^ 1) {
        let q = StringQuery::Equals(probe);
        assert_eq!(rows(&bulk, &q), rows(&looped, &q));
    }
    for prefix in QueryWorkload::prefixes(&data, 20, 2, SEED ^ 2) {
        let q = StringQuery::Prefix(prefix);
        assert_eq!(rows(&bulk, &q), rows(&looped, &q));
    }
    for regex in QueryWorkload::regexes(&data, 20, 2, SEED ^ 3) {
        let q = StringQuery::Regex(regex);
        assert_eq!(rows(&bulk, &q), rows(&looped, &q));
    }

    // Ordered scans stream the same distance profile.
    let anchor = data[17].clone();
    let q = StringQuery::Nearest(anchor.clone());
    assert_ordered_equivalent(&ordered(&bulk, &q), &ordered(&looped, &q), |k| {
        hamming_distance(k, &anchor)
    });

    // Deletes behave identically on both trees.
    let mut rng = DetRng::seed_from_u64(SEED ^ 4);
    for _ in 0..50 {
        let row = rng.gen_range(0..items.len()) as RowId;
        let key = &items[row as usize].0;
        assert_eq!(
            SpIndex::delete(&bulk, key, row).unwrap(),
            SpIndex::delete(&looped, key, row).unwrap()
        );
    }
    assert_eq!(bulk.len(), looped.len());
    for probe in QueryWorkload::existing(&data, 20, SEED ^ 5) {
        let q = StringQuery::Equals(probe);
        assert_eq!(rows(&bulk, &q), rows(&looped, &q));
    }
}

#[test]
fn suffix_bulk_build_equivalent_to_insert_loop() {
    let data = words(800, SEED ^ 0x10);
    let items: Vec<(String, RowId)> = data
        .iter()
        .cloned()
        .enumerate()
        .map(|(row, w)| (w, row as RowId))
        .collect();
    let (bulk, looped) = twins::<SuffixTreeIndex>(items.clone());
    assert_eq!(
        bulk.stats().unwrap().items,
        looped.stats().unwrap().items,
        "both expansions store every suffix"
    );

    for needle in QueryWorkload::substrings(&data, 30, 3, SEED ^ 0x11) {
        let q = StringQuery::Substring(needle);
        assert_eq!(rows(&bulk, &q), rows(&looped, &q));
    }

    // Uniform delete removes every suffix of the word from both.
    let (word, row) = (&items[11].0, 11);
    assert!(SpIndex::delete(&bulk, word, row).unwrap());
    assert!(SpIndex::delete(&looped, word, row).unwrap());
    assert_eq!(bulk.len(), looped.len());
    assert_eq!(bulk.stats().unwrap().items, looped.stats().unwrap().items);
    let q = StringQuery::Substring(word.clone());
    assert_eq!(rows(&bulk, &q), rows(&looped, &q));
}

#[test]
fn kdtree_bulk_build_equivalent_to_insert_loop() {
    let data = points(3_000, SEED ^ 0x20);
    let items: Vec<(Point, RowId)> = data
        .iter()
        .enumerate()
        .map(|(row, p)| (*p, row as RowId))
        .collect();
    let (bulk, looped) = twins::<KdTreeIndex>(items.clone());

    for probe in QueryWorkload::existing(&data, 30, SEED ^ 0x21) {
        let q = PointQuery::Equals(probe);
        assert_eq!(rows(&bulk, &q), rows(&looped, &q));
    }
    for window in QueryWorkload::windows(20, 8.0, SEED ^ 0x22) {
        let q = PointQuery::InRect(window);
        assert_eq!(rows(&bulk, &q), rows(&looped, &q));
    }

    let anchor = Point::new(47.0, 53.0);
    let q = PointQuery::Nearest(anchor);
    assert_ordered_equivalent(&ordered(&bulk, &q), &ordered(&looped, &q), |p| {
        p.distance(&anchor)
    });

    // The median-split build must not be *worse* than insertion order.
    let (bs, ls) = (bulk.stats().unwrap(), looped.stats().unwrap());
    assert!(
        bs.max_node_height <= ls.max_node_height,
        "median splits keep the bulk-built kd-tree no deeper ({} vs {})",
        bs.max_node_height,
        ls.max_node_height
    );

    let mut rng = DetRng::seed_from_u64(SEED ^ 0x23);
    for _ in 0..40 {
        let row = rng.gen_range(0..items.len()) as RowId;
        let key = items[row as usize].0;
        assert_eq!(
            SpIndex::delete(&bulk, &key, row).unwrap(),
            SpIndex::delete(&looped, &key, row).unwrap()
        );
    }
    for window in QueryWorkload::windows(10, 10.0, SEED ^ 0x24) {
        let q = PointQuery::InRect(window);
        assert_eq!(rows(&bulk, &q), rows(&looped, &q));
    }
}

#[test]
fn pquadtree_bulk_build_equivalent_to_insert_loop() {
    let data = points(3_000, SEED ^ 0x30);
    let items: Vec<(Point, RowId)> = data
        .iter()
        .enumerate()
        .map(|(row, p)| (*p, row as RowId))
        .collect();
    let (bulk, looped) = twins::<PointQuadtreeIndex>(items.clone());

    for probe in QueryWorkload::existing(&data, 30, SEED ^ 0x31) {
        let q = PointQuery::Equals(probe);
        assert_eq!(rows(&bulk, &q), rows(&looped, &q));
    }
    for window in QueryWorkload::windows(20, 8.0, SEED ^ 0x32) {
        let q = PointQuery::InRect(window);
        assert_eq!(rows(&bulk, &q), rows(&looped, &q));
    }
    let anchor = Point::new(12.0, 88.0);
    let q = PointQuery::Nearest(anchor);
    assert_ordered_equivalent(&ordered(&bulk, &q), &ordered(&looped, &q), |p| {
        p.distance(&anchor)
    });
}

#[test]
fn pmr_bulk_build_equivalent_to_insert_loop() {
    let data = segments(1_500, 10.0, SEED ^ 0x40);
    let items: Vec<(Segment, RowId)> = data
        .iter()
        .enumerate()
        .map(|(row, s)| (*s, row as RowId))
        .collect();
    let (bulk, looped) = twins::<PmrQuadtreeIndex>(items.clone());

    for probe in QueryWorkload::existing(&data, 30, SEED ^ 0x41) {
        let q = SegmentQuery::Equals(probe);
        assert_eq!(rows(&bulk, &q), rows(&looped, &q));
    }
    for window in QueryWorkload::windows(20, 8.0, SEED ^ 0x42) {
        let q = SegmentQuery::InRect(window);
        assert_eq!(rows(&bulk, &q), rows(&looped, &q));
    }
    let anchor = Point::new(60.0, 40.0);
    let q = SegmentQuery::Nearest(anchor);
    assert_ordered_equivalent(&ordered(&bulk, &q), &ordered(&looped, &q), |s| {
        s.distance_to_point(&anchor)
    });

    // Replicated delete removes every replica from both trees.
    let mut rng = DetRng::seed_from_u64(SEED ^ 0x43);
    for _ in 0..30 {
        let row = rng.gen_range(0..items.len()) as RowId;
        let key = items[row as usize].0;
        assert_eq!(
            SpIndex::delete(&bulk, &key, row).unwrap(),
            SpIndex::delete(&looped, &key, row).unwrap()
        );
    }
    assert_eq!(bulk.len(), looped.len());
    let q = SegmentQuery::InRect(world());
    assert_eq!(rows(&bulk, &q), rows(&looped, &q));
}

// ---------------------------------------------------------------------------
// The built bytes, pinned
// ---------------------------------------------------------------------------

/// `(pages, page height, crc32 of every page in allocation order)` of a
/// tree bulk-built from `keys`, row `i` for key `i`, on an in-memory pool.
fn built_pages<I: Fresh>(keys: &[I::Key]) -> (usize, u32, u32) {
    pages_of::<I>(keys.iter().cloned().zip(0..).collect())
}

/// [`built_pages`] of a tree bulk-built from `items`, in their order.
fn pages_of<I: Fresh>(items: Vec<(I::Key, RowId)>) -> (usize, u32, u32) {
    let pool = pool();
    let index = I::fresh(Arc::clone(&pool));
    index.bulk_build(items).unwrap();
    let mut bytes = Vec::new();
    for page in index.owned_pages() {
        pool.with_page(page, |p| bytes.extend_from_slice(p.as_bytes()))
            .unwrap();
    }
    let height = index.stats().unwrap().max_page_height;
    (
        index.owned_pages().len(),
        height,
        spgist::storage::crc32(&bytes),
    )
}

/// Every byte a bulk build writes, for all five classes: the same
/// `picksplit` inputs in the same order and the same placement give the same
/// pages.  A change to the node format or to the build's layout updates
/// these constants on purpose; a change to how the build holds its items
/// must not.
#[test]
fn bulk_built_pages_are_pinned_byte_for_byte() {
    const ROWS: usize = 20_000;
    let words = words(ROWS, SEED ^ 0xa0);
    let points = points(ROWS, SEED ^ 0xa1);
    let segments = segments(ROWS, 10.0, SEED ^ 0xa2);
    let built = [
        built_pages::<TrieIndex>(&words),
        built_pages::<SuffixTreeIndex>(&words),
        built_pages::<KdTreeIndex>(&points),
        built_pages::<PointQuadtreeIndex>(&points),
        built_pages::<PmrQuadtreeIndex>(&segments),
    ];
    assert_eq!(
        built,
        [
            (49, 3, 0x019a_454b),   // trie
            (171, 3, 0x6377_3b1d),  // suffix tree
            (131, 3, 0xd375_649e),  // kd-tree
            (145, 3, 0xadcb_e177),  // point quadtree
            (2114, 4, 0x5af1_7d4b), // PMR quadtree
        ]
    );
}

/// A bulk build depends only on its item set: the trie sorts by `(key,
/// row)`, so two shuffles of the same items (words repeat, so equal keys
/// meet in other orders) write the same bytes — for the trie, and for the
/// suffix tree, whose build sorts each root partition on its own.
#[test]
fn bulk_built_pages_do_not_depend_on_input_order() {
    let items: Vec<(String, RowId)> = words(5_000, SEED ^ 0xb0).into_iter().zip(0..).collect();
    let mut rng = DetRng::seed_from_u64(SEED ^ 0xb1);
    let mut shuffled = || {
        let mut items = items.clone();
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range(0..=i));
        }
        items
    };
    let (a, b) = (shuffled(), shuffled());
    assert_ne!(a, b);
    assert_eq!(
        pages_of::<TrieIndex>(a.clone()),
        pages_of::<TrieIndex>(b.clone())
    );
    assert_eq!(
        pages_of::<SuffixTreeIndex>(a),
        pages_of::<SuffixTreeIndex>(b)
    );
}

/// The suffix tree builds one root partition at a time, from a root split
/// taken on a sample.  Where that split is special it must still answer
/// every substring and prefix query like the insert loop: suffixes that
/// all share a first byte (the root carries a prefix), a set holding the
/// empty word (whose one suffix ends at the root), a set of empty words
/// only (no split: the whole set is built at once), and a set of at most
/// `bucket_size` suffixes (one leaf).
#[test]
fn suffix_build_handles_degenerate_root_splits() {
    let one_letter: Vec<String> = (0..60).map(|i| "a".repeat(1 + i % 9)).collect();
    let mut with_empty = words(60, SEED ^ 0xc0);
    with_empty.insert(7, String::new());
    with_empty.push(String::new());
    let only_empty = vec![String::new(); 40];
    let one_leaf: Vec<String> = ["ab", "c", "ba", ""].map(String::from).to_vec();
    let suffixes = |words: &[String]| words.iter().map(|w| w.len().max(1)).sum::<usize>();
    assert!(suffixes(&one_leaf) <= TrieOps::patricia().config().bucket_size);
    for data in [one_letter, with_empty, only_empty, one_leaf] {
        assert!(suffixes(&data) > 0);
        let items: Vec<(String, RowId)> = data.iter().cloned().zip(0..).collect();
        let (bulk, looped) = twins::<SuffixTreeIndex>(items);
        assert_eq!(bulk.stats().unwrap().items, looped.stats().unwrap().items);
        let mut needles: Vec<String> = data
            .iter()
            .flat_map(|w| (0..=w.len()).flat_map(move |i| (i..=w.len()).map(move |j| &w[i..j])))
            .map(String::from)
            .chain(["zz", "aaaaaaaaaa"].map(String::from))
            .collect();
        needles.sort();
        needles.dedup();
        for needle in needles {
            for q in [
                StringQuery::Substring(needle.clone()),
                StringQuery::Prefix(needle.clone()),
            ] {
                assert_eq!(rows(&bulk, &q), rows(&looped, &q), "{q:?} over {data:?}");
            }
        }
    }
}

/// `(pages, page height)` of a tree bulk-built from `keys`, then the same
/// after a `repack`.
fn repacked<I: Fresh>(keys: &[I::Key]) -> [(usize, u32); 2] {
    let index = I::fresh(pool());
    index
        .bulk_build(keys.iter().cloned().zip(0..).collect())
        .unwrap();
    let layout = |index: &I| {
        let height = index.stats().unwrap().max_page_height;
        (index.owned_pages().len(), height)
    };
    let built = layout(&index);
    index.repack().unwrap();
    [built, layout(&index)]
}

/// The bulk build and `repack` lay nodes out through one placer, so
/// repacking a freshly built tree gives back the layout it had: as many
/// pages and the same page height, for all five classes.
#[test]
fn repack_of_a_bulk_built_tree_is_a_layout_fixed_point() {
    const ROWS: usize = 20_000;
    let words = words(ROWS, SEED ^ 0xa0);
    let points = points(ROWS, SEED ^ 0xa1);
    let segments = segments(ROWS, 10.0, SEED ^ 0xa2);
    for (class, [built, repacked]) in [
        ("trie", repacked::<TrieIndex>(&words)),
        ("suffix tree", repacked::<SuffixTreeIndex>(&words)),
        ("kd-tree", repacked::<KdTreeIndex>(&points)),
        ("point quadtree", repacked::<PointQuadtreeIndex>(&points)),
        ("PMR quadtree", repacked::<PmrQuadtreeIndex>(&segments)),
    ] {
        assert_eq!(built, repacked, "{class}: (pages, page height)");
    }
}

// ---------------------------------------------------------------------------
// Degenerate partitions: all-equal keys and exhausted resolution
// ---------------------------------------------------------------------------

#[test]
fn all_equal_keys_build_on_every_class() {
    let n: usize = 200;
    let word_items: Vec<(String, RowId)> = (0..n)
        .map(|row| ("same".to_string(), row as RowId))
        .collect();
    let (bulk, looped) = twins::<TrieIndex>(word_items);
    let q = StringQuery::Equals("same".into());
    assert_eq!(rows(&bulk, &q), rows(&looped, &q));
    assert_eq!(rows(&bulk, &q).len(), n);

    let (bulk, looped) = twins::<SuffixTreeIndex>(
        (0..n)
            .map(|row| ("echo".to_string(), row as RowId))
            .collect(),
    );
    let q = StringQuery::Substring("ch".into());
    assert_eq!(rows(&bulk, &q), rows(&looped, &q));
    assert_eq!(rows(&bulk, &q).len(), n);

    // Bucket size 1 + identical points: the insert path chains duplicates
    // down to the resolution; the bulk build must terminate the same way.
    let p = Point::new(33.3, 44.4);
    let (bulk, looped) = twins::<KdTreeIndex>((0..n).map(|row| (p, row as RowId)).collect());
    let q = PointQuery::Equals(p);
    assert_eq!(rows(&bulk, &q), rows(&looped, &q));
    assert_eq!(rows(&bulk, &q).len(), n);

    let (bulk, looped) = twins::<PointQuadtreeIndex>((0..n).map(|row| (p, row as RowId)).collect());
    assert_eq!(rows(&bulk, &q), rows(&looped, &q));

    // A short off-boundary segment: every decomposition level keeps all
    // copies in one quadrant until the resolution is exhausted — the
    // resolution-exhausted-partition case for the space-driven class.
    let s = Segment::new(Point::new(33.31, 44.41), Point::new(33.37, 44.47));
    let (bulk, looped) = twins::<PmrQuadtreeIndex>((0..n).map(|row| (s, row as RowId)).collect());
    let q = SegmentQuery::Equals(s);
    assert_eq!(rows(&bulk, &q), rows(&looped, &q));
    assert_eq!(rows(&bulk, &q).len(), n);
}

#[test]
fn overlapping_duplicate_segments_do_not_blow_up_the_bulk_build() {
    // Identical (or world-spanning, heavily overlapping) segments past the
    // splitting threshold replicate into several quadrants at every level
    // without ever separating; the builder must stop with an oversized leaf
    // instead of decomposing to the resolution (which would multiply the
    // replicas ~25,000×).
    let dup = Segment::new(Point::new(10.0, 10.0), Point::new(60.0, 65.0));
    let items: Vec<(Segment, RowId)> = (0..24).map(|row| (dup, row as RowId)).collect();
    let bulk = PmrQuadtreeIndex::fresh(pool());
    let stats = bulk.bulk_build(items.clone()).unwrap();
    assert!(
        stats.total_nodes() <= 16,
        "replication without separation must terminate early ({} nodes)",
        stats.total_nodes()
    );
    let looped = PmrQuadtreeIndex::fresh(pool());
    for (key, row) in items {
        SpIndex::insert(&looped, key, row).unwrap();
    }
    let q = SegmentQuery::Equals(dup);
    assert_eq!(rows(&bulk, &q), rows(&looped, &q));
    assert_eq!(rows(&bulk, &q).len(), 24);

    // A mixed set — many distinct segments plus an over-threshold clump of
    // duplicates — still decomposes the distinct part and answers queries
    // identically.
    let mut mixed: Vec<(Segment, RowId)> = segments(600, 10.0, SEED ^ 0x55)
        .into_iter()
        .enumerate()
        .map(|(row, s)| (s, row as RowId))
        .collect();
    for i in 0..20 {
        mixed.push((dup, 600 + i as RowId));
    }
    let (bulk, looped) = twins::<PmrQuadtreeIndex>(mixed);
    for window in QueryWorkload::windows(15, 8.0, SEED ^ 0x56) {
        let q = SegmentQuery::InRect(window);
        assert_eq!(rows(&bulk, &q), rows(&looped, &q));
    }
}

#[test]
fn resolution_exhausted_trie_partitions_match() {
    // A resolution of 3 forces oversized leaves for every shared 3+ prefix.
    let config = TrieOps::patricia().config();
    let tight = SpGistConfig {
        resolution: 3,
        ..config
    };
    let data = words(1_200, SEED ^ 0x50);
    let items: Vec<(String, RowId)> = data
        .iter()
        .cloned()
        .enumerate()
        .map(|(row, w)| (w, row as RowId))
        .collect();

    let bulk = TrieIndex::with_ops(pool(), TrieOps::with_config(tight)).unwrap();
    bulk.bulk_build(items.clone()).unwrap();
    let looped = TrieIndex::with_ops(pool(), TrieOps::with_config(tight)).unwrap();
    for (key, row) in items {
        SpIndex::insert(&looped, key, row).unwrap();
    }
    assert_eq!(bulk.len(), looped.len());
    for probe in QueryWorkload::existing(&data, 40, SEED ^ 0x51) {
        let q = StringQuery::Equals(probe);
        assert_eq!(rows(&bulk, &q), rows(&looped, &q));
    }
    for prefix in QueryWorkload::prefixes(&data, 20, 1, SEED ^ 0x52) {
        let q = StringQuery::Prefix(prefix);
        assert_eq!(rows(&bulk, &q), rows(&looped, &q));
    }
}

#[test]
fn out_of_world_segments_survive_a_bulk_build() {
    // Segments outside the PMR world intersect no quadrant; the builder
    // must park them (as the insert path does), not drop them.
    let mut items: Vec<(Segment, RowId)> = segments(400, 10.0, SEED ^ 0x60)
        .into_iter()
        .enumerate()
        .map(|(row, s)| (s, row as RowId))
        .collect();
    let outside = Segment::new(Point::new(150.0, 150.0), Point::new(160.0, 160.0));
    items.push((outside, 400));
    let (bulk, looped) = twins::<PmrQuadtreeIndex>(items);
    let q = SegmentQuery::Equals(outside);
    assert_eq!(rows(&bulk, &q), vec![400]);
    assert_eq!(rows(&bulk, &q), rows(&looped, &q));
}

// ---------------------------------------------------------------------------
// Executor DDL and the batched DML statement
// ---------------------------------------------------------------------------

#[test]
fn create_index_bulk_path_answers_like_the_maintenance_path() {
    let data = words(2_500, SEED ^ 0x70);

    // Path A: populate first, CREATE INDEX bulk-builds from the heap scan —
    // on an eviction-bounded pool, the regime the bulk path exists for.
    let mut after = Database::in_memory_with_config(BufferPoolConfig {
        capacity: 24,
        ..Default::default()
    });
    after.create_table("words", KeyType::Varchar).unwrap();
    after
        .table("words")
        .unwrap()
        .insert_many(data.iter().map(String::as_str))
        .unwrap();
    after.create_index("words", "t", IndexSpec::Trie).unwrap();

    // Path B: CREATE INDEX first, every insert maintains it incrementally.
    let mut before = Database::in_memory();
    before.create_table("words", KeyType::Varchar).unwrap();
    before.create_index("words", "t", IndexSpec::Trie).unwrap();
    for w in &data {
        before.table("words").unwrap().insert(w.as_str()).unwrap();
    }

    for probe in QueryWorkload::prefixes(&data, 25, 2, SEED ^ 0x71) {
        let qa = after.query("words", Predicate::str_prefix(&probe)).unwrap();
        assert!(
            qa.source().scans_index("t"),
            "selective prefix {probe:?} routes to the bulk-built index"
        );
        let mut a = qa.rows().unwrap();
        let mut b = before
            .query("words", Predicate::str_prefix(&probe))
            .unwrap()
            .rows()
            .unwrap();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "probe {probe:?}");
    }

    // The bulk-built index participates in DML like any other.
    let table = after.table("words").unwrap();
    let row = table.insert("zzyzx").unwrap();
    assert_eq!(
        after
            .query("words", Predicate::str_equals("zzyzx"))
            .unwrap()
            .rows()
            .unwrap(),
        vec![row]
    );
    assert!(table.delete(row).unwrap());
}

#[test]
fn create_index_bulk_path_covers_every_spec() {
    // Points and segments take the same DDL route; exercise the remaining
    // specs against the seq-scan ground truth.
    let mut db = Database::in_memory();
    db.create_table("pts", KeyType::Point).unwrap();
    let data = points(2_000, SEED ^ 0x80);
    db.table("pts").unwrap().insert_many(data.clone()).unwrap();
    db.create_index("pts", "kd", IndexSpec::KdTree).unwrap();
    db.create_index("pts", "quad", IndexSpec::PointQuadtree)
        .unwrap();

    let window = Rect::new(20.0, 20.0, 45.0, 60.0);
    let expected: Vec<RowId> = data
        .iter()
        .enumerate()
        .filter(|(_, p)| window.contains_point(p))
        .map(|(row, _)| row as RowId)
        .collect();
    let mut got = db
        .query("pts", Predicate::point_in_rect(window))
        .unwrap()
        .rows()
        .unwrap();
    got.sort_unstable();
    assert_eq!(got, expected);

    let mut db = Database::in_memory();
    db.create_table("segs", KeyType::Segment).unwrap();
    let data = segments(1_000, 10.0, SEED ^ 0x81);
    db.table("segs").unwrap().insert_many(data.clone()).unwrap();
    db.create_index("segs", "pmr", IndexSpec::PmrQuadtree { world: world() })
        .unwrap();
    let expected: Vec<RowId> = data
        .iter()
        .enumerate()
        .filter(|(_, s)| s.intersects_rect(&window))
        .map(|(row, _)| row as RowId)
        .collect();
    let mut got = db
        .query("segs", Predicate::segment_in_rect(window))
        .unwrap()
        .rows()
        .unwrap();
    got.sort_unstable();
    assert_eq!(got, expected);
}

// ---------------------------------------------------------------------------
// Durability: bulk-built indexes checkpoint through the catalog unchanged
// ---------------------------------------------------------------------------

#[test]
fn bulk_built_database_round_trips_through_close_and_open() {
    let dir = std::env::temp_dir().join(format!("spgist-bulk-durable-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.pages");
    let data = words(3_000, SEED ^ 0x90);
    let probe_prefixes = QueryWorkload::prefixes(&data, 15, 2, SEED ^ 0x91);

    let expected: Vec<Vec<RowId>> = {
        let mut db = Database::create(&path).unwrap();
        db.create_table("words", KeyType::Varchar).unwrap();
        db.table("words")
            .unwrap()
            .insert_many(data.iter().map(String::as_str))
            .unwrap();
        db.create_index("words", "words_trie", IndexSpec::Trie)
            .unwrap();
        db.create_index("words", "words_suffix", IndexSpec::SuffixTree)
            .unwrap();
        let expected = probe_prefixes
            .iter()
            .map(|p| {
                let mut rows = db
                    .query("words", Predicate::str_prefix(p))
                    .unwrap()
                    .rows()
                    .unwrap();
                rows.sort_unstable();
                rows
            })
            .collect();
        db.close().unwrap();
        expected
    };

    {
        let mut db = Database::open(&path).unwrap();
        assert_eq!(db.table("words").unwrap().len(), 3_000);
        assert_eq!(
            db.table("words").unwrap().index_names(),
            vec!["words_trie", "words_suffix"]
        );
        for (p, want) in probe_prefixes.iter().zip(&expected) {
            let cursor = db.query("words", Predicate::str_prefix(p)).unwrap();
            assert!(
                cursor.source().scans_index("words_trie"),
                "reopened bulk-built index serves {p:?}"
            );
            let mut rows = cursor.rows().unwrap();
            rows.sort_unstable();
            assert_eq!(&rows, want, "prefix {p:?} after reopen");
        }
        // Substring queries exercise the reopened bulk-built suffix tree.
        let needle = &data[7][..2.min(data[7].len())];
        let via_suffix = db.query("words", Predicate::str_substring(needle)).unwrap();
        assert!(via_suffix.source().scans_index("words_suffix"));
        let got = via_suffix.rows().unwrap().len();
        let brute = data.iter().filter(|w| w.contains(needle)).count();
        assert_eq!(got, brute, "needle {needle:?}");

        // The reopened database stays fully operational.
        db.table("words").unwrap().insert_many(["freshly"]).unwrap();
        assert!(db.table("words").unwrap().delete(3).unwrap());
        assert!(db.drop_index("words", "words_suffix").unwrap());
        db.close().unwrap();
    }
    {
        let db = Database::open(&path).unwrap();
        assert_eq!(db.table("words").unwrap().len(), 3_000);
        assert_eq!(db.table("words").unwrap().index_names(), vec!["words_trie"]);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
