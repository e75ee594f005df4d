//! The planner's O(1) statistics against the exact walk, for all five index
//! classes on DetRng-seeded data.
//!
//! `SpIndex::planner_stats` reads a page count and a writer-maintained
//! page-height high-water mark; `SpIndex::stats` walks every node.  The two
//! must agree exactly wherever the hint is stored or measured (after a bulk
//! build, after a repack, after a durable close/reopen) and within one page
//! across insert loops — the one documented inexactness is an inner node
//! relocating to another page, which shifts sibling paths until a write
//! walks them.  The largest difference observed is printed; it is expected
//! to be 0.

use std::sync::Arc;

use spgist::indexes::{KdTreeOps, PmrQuadtreeOps, PointQuadtreeOps};
use spgist::prelude::*;
use spgist::storage::PageId;
use spgist_datagen::{points, segments, words, world};

const SEED: u64 = 0x5747_5f48;
/// Sample points per insert loop.
const SAMPLES: usize = 24;

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

/// `(pages, page_height)` by the exact full walk.
fn exact<I: SpIndex>(index: &I) -> (u64, u32) {
    let stats = index.stats().unwrap();
    (stats.pages, stats.max_page_height)
}

/// Inserts `keys` at `first_row..`, comparing the hint with the exact walk
/// at `SAMPLES` evenly spaced points; returns the largest height difference.
fn insert_sampled<I: SpIndex>(tag: &str, index: &I, keys: &[I::Key], first_row: RowId) -> u32 {
    let every = (keys.len() / SAMPLES).max(1);
    let mut worst = 0;
    let mut sampled = 0;
    for (i, key) in keys.iter().enumerate() {
        index.insert(key.clone(), first_row + i as RowId).unwrap();
        if (i + 1) % every == 0 {
            let (pages, hint) = index.planner_stats().unwrap();
            let (exact_pages, height) = exact(index);
            assert_eq!(pages, exact_pages, "{tag}: pages after {} inserts", i + 1);
            assert!(hint > 0, "{tag}: a tree with a root never reports height 0");
            worst = worst.max(hint.abs_diff(height));
            sampled += 1;
        }
    }
    assert!(sampled >= 20, "{tag}: only {sampled} sample points");
    worst
}

/// The whole property for one class.  `reopen` rebuilds a handle from the
/// persisted identity `(config, meta page, owned pages, logical length)`.
fn hint_tracks_the_exact_walk<I, Create, Reopen>(
    tag: &str,
    create: Create,
    reopen: Reopen,
    keys: Vec<I::Key>,
) where
    I: SpIndex,
    Create: Fn(Arc<BufferPool>) -> I,
    Reopen: FnOnce(Arc<BufferPool>, SpGistConfig, PageId, Vec<PageId>, u64) -> I,
{
    let (bulk_keys, loop_keys) = keys.split_at(keys.len() / 2);

    // From empty: no root, no height; then every insert keeps the mark.
    let grown = create(BufferPool::in_memory());
    assert_eq!(grown.planner_stats().unwrap().1, 0, "{tag}: empty tree");
    let from_empty = insert_sampled(tag, &grown, &keys, 0);

    // On a file: bulk build, inserts on top, deletes, repack, reopen.
    let dir = std::env::temp_dir().join(format!("spgist-hint-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.pages");
    let pool = file_pool(&path, true);
    let index = create(Arc::clone(&pool));
    let items: Vec<(I::Key, RowId)> = bulk_keys.iter().cloned().zip(0..).collect();
    index.bulk_build(items).unwrap();
    assert_eq!(
        index.planner_stats().unwrap(),
        exact(&index),
        "{tag}: bulk build"
    );
    let on_bulk = insert_sampled(tag, &index, loop_keys, bulk_keys.len() as RowId);
    println!("{tag}: max |hint - exact| = {from_empty} from empty, {on_bulk} on a bulk build");
    assert!(from_empty <= 1 && on_bulk <= 1, "{tag}: hint drifted");

    // A delete-only burst never restructures: the mark does not move.
    let before = index.planner_stats().unwrap();
    for (row, key) in bulk_keys.iter().enumerate().step_by(3) {
        assert!(index.delete(key, row as RowId).unwrap(), "{tag}: delete");
    }
    assert_eq!(index.planner_stats().unwrap(), before, "{tag}: deletes");
    assert!(before.1.abs_diff(exact(&index).1) <= 1, "{tag}: deletes");

    // A repack moves every path: the next read measures the new layout.
    index.repack().unwrap();
    assert_eq!(
        index.planner_stats().unwrap(),
        exact(&index),
        "{tag}: repack"
    );

    // The hint is not persisted: the first read after a reopen measures.
    let identity = (
        index.config(),
        index.meta_page(),
        index.owned_pages(),
        index.len(),
    );
    let expected = exact(&index);
    pool.flush_all().unwrap();
    drop(index);
    drop(pool);
    let (config, meta, pages, len) = identity;
    let reopened = reopen(file_pool(&path, false), config, meta, pages, len);
    assert_eq!(reopened.planner_stats().unwrap(), expected, "{tag}: reopen");
    assert_eq!(
        reopened.planner_stats().unwrap(),
        exact(&reopened),
        "{tag}: reopen"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trie_hint_tracks_the_exact_walk() {
    hint_tracks_the_exact_walk(
        "trie",
        |pool| TrieIndex::create(pool).unwrap(),
        |pool, config, meta, pages, _| {
            TrieIndex::open_with_ops(pool, TrieOps::with_config(config), meta, pages).unwrap()
        },
        words(6_000, SEED),
    );
}

#[test]
fn suffix_tree_hint_tracks_the_exact_walk() {
    hint_tracks_the_exact_walk(
        "suffix",
        |pool| SuffixTreeIndex::create(pool).unwrap(),
        |pool, config, meta, pages, strings| {
            let ops = TrieOps::with_config(config);
            SuffixTreeIndex::open_with_ops(pool, ops, meta, pages, strings).unwrap()
        },
        words(1_600, SEED ^ 1),
    );
}

#[test]
fn kdtree_hint_tracks_the_exact_walk() {
    hint_tracks_the_exact_walk(
        "kdtree",
        |pool| KdTreeIndex::create(pool).unwrap(),
        |pool, config, meta, pages, _| {
            KdTreeIndex::open_with_ops(pool, KdTreeOps::with_config(config), meta, pages).unwrap()
        },
        points(6_000, SEED ^ 2),
    );
}

#[test]
fn point_quadtree_hint_tracks_the_exact_walk() {
    hint_tracks_the_exact_walk(
        "pquadtree",
        |pool| PointQuadtreeIndex::create(pool).unwrap(),
        |pool, config, meta, pages, _| {
            let ops = PointQuadtreeOps::with_config(config);
            PointQuadtreeIndex::open_with_ops(pool, ops, meta, pages).unwrap()
        },
        points(6_000, SEED ^ 3),
    );
}

#[test]
fn pmr_quadtree_hint_tracks_the_exact_walk() {
    hint_tracks_the_exact_walk(
        "pmr",
        |pool| PmrQuadtreeIndex::create(pool, world()).unwrap(),
        |pool, config, meta, pages, _| {
            let ops = PmrQuadtreeOps::with_config(world(), config);
            PmrQuadtreeIndex::open_with_ops(pool, ops, meta, pages).unwrap()
        },
        segments(3_000, 4.0, SEED ^ 4),
    );
}
