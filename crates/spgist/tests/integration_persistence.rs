//! Durability integration: indexes built on a file-backed buffer pool can be
//! flushed, re-opened from disk, queried, and updated again — and the whole
//! `Database` reopens from its durable catalog with zero rebuild scans.
//!
//! Three layers of coverage:
//!
//! * raw `SpGistTree` reopen (the original smoke test);
//! * **reopen round-trip property tests for all five index classes**: build
//!   → close → open via the persisted identity (meta page + owned-page
//!   list + config) → verify `cursor`, `ordered_cursor` and `delete` behave
//!   identically to a never-closed twin, and `destroy` still frees every
//!   page;
//! * **crash-point tests**: truncate or zero the tail of a cleanly closed
//!   database file and assert `Database::open` either recovers the
//!   committed state or fails with `Corrupt` — wrong rows are never
//!   returned (reopen durability is clean-shutdown-scoped; these tests pin
//!   the failure mode, not WAL recovery).

use std::sync::Arc;

use spgist::datagen::words;
use spgist::indexes::trie::TrieOps;
use spgist::prelude::*;
use spgist::storage::{PageId, StorageError, PAGE_SIZE};

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("spgist-it-{}-{}", name, std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
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
            capacity: 256,
            ..Default::default()
        },
    ))
}

/// Slots ever handed out and slots since freed on each of `pages`.
fn slot_census(pool: &BufferPool, pages: &[PageId]) -> Vec<(u16, u16)> {
    pages
        .iter()
        .map(|&page| {
            pool.with_page(page, |p| {
                (p.num_slots(), p.num_slots() - p.num_live_records())
            })
            .unwrap()
        })
        .collect()
}

#[test]
fn trie_survives_restart_and_remains_updatable() {
    let dir = temp_dir("trie");
    let path = dir.join("trie.pages");
    let data = words(5_000, 99);
    let fresh = words(5_100, 99).split_off(5_000);
    let (meta, pages);
    {
        let pool = file_pool(&path, true);
        let tree =
            spgist::core::SpGistTree::create(Arc::clone(&pool), TrieOps::patricia()).unwrap();
        for (row, w) in data.iter().enumerate() {
            tree.insert(w.clone(), row as RowId).unwrap();
        }
        meta = tree.meta_page();
        pages = tree.owned_pages();
        assert_eq!(tree.stats().unwrap().pages, pages.len() as u64);
        pool.flush_all().unwrap();
    }
    {
        // Re-open from the file and verify queries and further updates.
        let pool = file_pool(&path, false);
        let tree = spgist::core::SpGistTree::open(
            Arc::clone(&pool),
            TrieOps::patricia(),
            meta,
            pages.clone(),
        )
        .unwrap();
        assert_eq!(tree.len(), data.len() as u64);
        assert_eq!(
            tree.stats().unwrap().pages,
            pages.len() as u64,
            "the reopened tree owns the pages it owned before the restart"
        );
        for (row, w) in data.iter().enumerate().step_by(501) {
            let hits = tree.search(&StringQuery::Equals(w.clone())).unwrap();
            assert!(hits.iter().any(|(_, r)| *r == row as RowId), "lost {w:?}");
        }
        // The index keeps working after reopening.
        tree.insert("freshlyinserted".to_string(), 1_000_000)
            .unwrap();
        let hits = tree
            .search(&StringQuery::Equals("freshlyinserted".to_string()))
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert!(tree.delete(&data[0], 0).unwrap());
        // An insert + delete cycle splits and relocates nodes; the old pages
        // are placement candidates again, so every node it places fits on
        // one of them — some on a page where the cycle had just freed a slot.
        let before = slot_census(&pool, &pages);
        for (i, w) in fresh.iter().enumerate() {
            tree.insert(w.clone(), 2_000_000 + i as RowId).unwrap();
        }
        for (i, w) in fresh.iter().enumerate() {
            assert!(tree.delete(w, 2_000_000 + i as RowId).unwrap());
        }
        let after = slot_census(&pool, &pages);
        assert_eq!(tree.owned_pages(), pages, "the cycle allocated no page");
        assert!(
            before
                .iter()
                .zip(&after)
                .any(|(b, a)| a.1 > b.1 && a.0 > b.0),
            "no old page both freed a slot and took a new node: {before:?} -> {after:?}"
        );
        pool.flush_all().unwrap();
    }
    {
        // A third open sees the post-restart modifications.
        let pool = file_pool(&path, false);
        let tree = spgist::core::SpGistTree::open(
            Arc::clone(&pool),
            TrieOps::patricia(),
            meta,
            pages.clone(),
        )
        .unwrap();
        let hits = tree
            .search(&StringQuery::Equals("freshlyinserted".to_string()))
            .unwrap();
        assert_eq!(hits.len(), 1);
        let gone = tree.search(&StringQuery::Equals(data[0].clone())).unwrap();
        assert!(gone.iter().all(|(_, r)| *r != 0));
        // Dropping the index returns every node page and the meta page.
        let free_before = pool.free_page_count();
        tree.destroy().unwrap();
        assert_eq!(pool.free_page_count() - free_before, pages.len() as u32 + 1);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Reopen round-trip property tests: all five index classes
// ---------------------------------------------------------------------------

/// Builds an index twice — once on a file (closed and reopened through its
/// persisted identity) and once in memory (never closed) — and checks the
/// two behave identically: same query results, same ordered (`@@`) streams,
/// same delete outcomes, and the reopened index still frees every page on
/// destroy (the owned-page list survived the round trip).
fn class_roundtrip<I, Build, Reopen>(
    tag: &str,
    build: Build,
    reopen: Reopen,
    items: Vec<(I::Key, RowId)>,
    queries: Vec<I::Query>,
    ordered_query: Option<I::Query>,
) where
    I: SpIndex,
    I::Key: std::fmt::Debug + PartialEq,
    Build: Fn(Arc<BufferPool>) -> I,
    Reopen: FnOnce(Arc<BufferPool>, PageId, Vec<PageId>, u64) -> I,
{
    let dir = temp_dir(&format!("class-{tag}"));
    let path = dir.join("index.pages");

    // Never-closed reference twin on an in-memory pool.
    let reference = build(BufferPool::in_memory());
    for (key, row) in &items {
        reference.insert(key.clone(), *row).unwrap();
    }

    // Build on a file, record the persisted identity, close.
    let (meta, pages, len) = {
        let pool = file_pool(&path, true);
        let index = build(Arc::clone(&pool));
        for (key, row) in &items {
            index.insert(key.clone(), *row).unwrap();
        }
        let identity = (index.meta_page(), index.owned_pages(), index.len());
        pool.flush_all().unwrap();
        identity
    };

    // Reopen from the persisted identity.
    let pool = file_pool(&path, false);
    let reopened = reopen(Arc::clone(&pool), meta, pages.clone(), len);
    assert_eq!(reopened.len(), reference.len(), "{tag}: len after reopen");
    assert_eq!(
        reopened.owned_pages(),
        pages,
        "{tag}: owned-page list survives the round trip"
    );

    let compare_queries = |ctx: &str, reopened: &I, reference: &I| {
        for query in &queries {
            let mut a = reopened.cursor(query).unwrap().rows().unwrap();
            let mut b = reference.cursor(query).unwrap().rows().unwrap();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{tag} {ctx}: cursor disagreement");
        }
    };
    compare_queries("after reopen", &reopened, &reference);

    // Ordered scans stream the same rows in the same distance order.
    if let Some(query) = &ordered_query {
        let a: Vec<RowId> = reopened
            .ordered_cursor(query)
            .unwrap()
            .expect("class registers @@")
            .map(|item| item.map(|(_, row)| row))
            .collect::<Result<_, _>>()
            .unwrap();
        let b: Vec<RowId> = reference
            .ordered_cursor(query)
            .unwrap()
            .expect("class registers @@")
            .map(|item| item.map(|(_, row)| row))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(a, b, "{tag}: ordered_cursor disagreement");
    }

    // Deletes behave identically: the first item goes, twice is a no-op.
    let (key, row) = &items[0];
    assert!(reopened.delete(key, *row).unwrap(), "{tag}: first delete");
    assert!(reference.delete(key, *row).unwrap());
    assert!(!reopened.delete(key, *row).unwrap(), "{tag}: double delete");
    assert!(!reference.delete(key, *row).unwrap());
    assert_eq!(reopened.len(), reference.len(), "{tag}: len after delete");
    compare_queries("after delete", &reopened, &reference);

    // Inserts keep working on the reopened index.
    let (key, _) = items[1].clone();
    reopened.insert(key.clone(), 999_999).unwrap();
    reference.insert(key, 999_999).unwrap();
    compare_queries("after post-reopen insert", &reopened, &reference);

    // The reopened index knows its pages: destroy returns them all.
    let owned = reopened.owned_pages().len() as u32;
    let free_before = pool.free_page_count();
    reopened.destroy().unwrap();
    assert!(
        pool.free_page_count() >= free_before + owned,
        "{tag}: destroy must free the {owned} owned pages (freed {})",
        pool.free_page_count() - free_before
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trie_reopen_roundtrip() {
    let data = words(3_000, 42);
    class_roundtrip(
        "trie",
        |pool| TrieIndex::create(pool).unwrap(),
        |pool, meta, pages, _| {
            TrieIndex::open_with_ops(pool, TrieOps::patricia(), meta, pages).unwrap()
        },
        data.iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), i as RowId))
            .collect(),
        vec![
            StringQuery::Equals(data[17].clone()),
            StringQuery::Prefix(data[99][..2.min(data[99].len())].to_string()),
            StringQuery::Prefix(String::new()),
            StringQuery::Regex(format!("{}?", &data[5][..data[5].len() - 1])),
        ],
        Some(StringQuery::Nearest(data[1_000].clone())),
    );
}

#[test]
fn suffix_tree_reopen_roundtrip() {
    let data = words(600, 43);
    class_roundtrip(
        "suffix",
        |pool| SuffixTreeIndex::create(pool).unwrap(),
        |pool, meta, pages, strings| {
            SuffixTreeIndex::open_with_ops(pool, TrieOps::patricia(), meta, pages, strings).unwrap()
        },
        data.iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), i as RowId))
            .collect(),
        vec![
            StringQuery::Substring("a".into()),
            StringQuery::Substring(data[50][1..].to_string()),
            StringQuery::Substring("zzz".into()),
            StringQuery::Equals(data[7].clone()),
        ],
        None,
    );
}

#[test]
fn kdtree_reopen_roundtrip() {
    let data = spgist::datagen::points(3_000, 44);
    class_roundtrip(
        "kdtree",
        |pool| KdTreeIndex::create(pool).unwrap(),
        |pool, meta, pages, _| {
            KdTreeIndex::open_with_ops(pool, spgist::indexes::KdTreeOps::default(), meta, pages)
                .unwrap()
        },
        data.iter()
            .enumerate()
            .map(|(i, p)| (*p, i as RowId))
            .collect(),
        vec![
            PointQuery::Equals(data[12]),
            PointQuery::InRect(Rect::new(10.0, 10.0, 60.0, 60.0)),
            PointQuery::InRect(Rect::new(0.0, 0.0, 100.0, 100.0)),
        ],
        Some(PointQuery::Nearest(Point::new(47.0, 53.0))),
    );
}

#[test]
fn point_quadtree_reopen_roundtrip() {
    let data = spgist::datagen::points(3_000, 45);
    class_roundtrip(
        "pquadtree",
        |pool| PointQuadtreeIndex::create(pool).unwrap(),
        |pool, meta, pages, _| {
            PointQuadtreeIndex::open_with_ops(
                pool,
                spgist::indexes::PointQuadtreeOps::default(),
                meta,
                pages,
            )
            .unwrap()
        },
        data.iter()
            .enumerate()
            .map(|(i, p)| (*p, i as RowId))
            .collect(),
        vec![
            PointQuery::Equals(data[3]),
            PointQuery::InRect(Rect::new(25.0, 25.0, 75.0, 75.0)),
        ],
        Some(PointQuery::Nearest(Point::new(5.0, 95.0))),
    );
}

#[test]
fn pmr_quadtree_reopen_roundtrip() {
    const WORLD: Rect = Rect {
        min_x: 0.0,
        min_y: 0.0,
        max_x: 100.0,
        max_y: 100.0,
    };
    let data = spgist::datagen::segments(1_500, 15.0, 46);
    class_roundtrip(
        "pmr",
        |pool| PmrQuadtreeIndex::create(pool, WORLD).unwrap(),
        |pool, meta, pages, _| {
            PmrQuadtreeIndex::open_with_ops(
                pool,
                spgist::indexes::PmrQuadtreeOps::new(WORLD),
                meta,
                pages,
            )
            .unwrap()
        },
        data.iter()
            .enumerate()
            .map(|(i, s)| (*s, i as RowId))
            .collect(),
        vec![
            SegmentQuery::Equals(data[9]),
            SegmentQuery::InRect(Rect::new(20.0, 20.0, 55.0, 55.0)),
        ],
        Some(SegmentQuery::Nearest(Point::new(50.0, 50.0))),
    );
}

// ---------------------------------------------------------------------------
// Database reopen: zero rebuild scans
// ---------------------------------------------------------------------------

/// `Database::open` must restore tables and indexes from the catalog, not by
/// re-scanning data: the physical reads at open time are the catalog chain
/// plus one tree meta page per index — a handful — while the data itself
/// spans hundreds of pages.
#[test]
fn database_open_performs_no_rebuild_scans() {
    let dir = temp_dir("db-coldopen");
    let path = dir.join("db.pages");
    let data = words(10_000, 47);
    {
        let mut db = Database::create(&path).unwrap();
        db.create_table("words", KeyType::Varchar).unwrap();
        let table = db.table_handle("words").unwrap();
        for w in &data {
            table.insert(w.as_str()).unwrap();
        }
        drop(table);
        db.create_index("words", "words_trie", IndexSpec::Trie)
            .unwrap();
        db.close().unwrap();
    }
    let db = Database::open(&path).unwrap();
    let opened = db.pool().stats();
    let total_pages = db.pool().page_count();
    assert!(
        total_pages > 50,
        "the dataset must span many pages (got {total_pages})"
    );
    assert!(
        opened.physical_reads < u64::from(total_pages) / 3,
        "cold open must read only catalog + meta pages, not the data: \
         {} physical reads over a {total_pages}-page file",
        opened.physical_reads
    );
    // The data is really there: a query touches it lazily and agrees with
    // the ground truth.
    let probe = &data[123];
    let rows = db
        .query("words", Predicate::str_equals(probe))
        .unwrap()
        .rows()
        .unwrap();
    let expected: Vec<RowId> = data
        .iter()
        .enumerate()
        .filter(|(_, w)| *w == probe)
        .map(|(i, _)| i as RowId)
        .collect();
    assert_eq!(rows, {
        let mut e = expected;
        e.sort_unstable();
        e
    });
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Crash-point tests: truncated / zeroed tails
// ---------------------------------------------------------------------------

/// Builds a database with data in all three key types, closes it cleanly,
/// and returns the expected per-table row counts.
fn build_crash_fixture(path: &std::path::Path) -> Vec<(String, Predicate, usize)> {
    let mut db = Database::create(path).unwrap();
    db.create_table("words", KeyType::Varchar).unwrap();
    let data = words(2_000, 48);
    for w in &data {
        db.table_mut("words").unwrap().insert(w.as_str()).unwrap();
    }
    db.create_index("words", "trie", IndexSpec::Trie).unwrap();
    // A sync boundary mid-life: DML after this checkpoint, then a clean
    // close (another boundary).  Truncations land after each.
    db.checkpoint().unwrap();
    db.create_table("pts", KeyType::Point).unwrap();
    let pts = spgist::datagen::points(1_000, 49);
    for p in &pts {
        db.table_mut("pts").unwrap().insert(*p).unwrap();
    }
    db.create_index("pts", "kd", IndexSpec::KdTree).unwrap();
    db.close().unwrap();
    vec![
        ("words".to_string(), Predicate::str_prefix(""), data.len()),
        (
            "pts".to_string(),
            Predicate::point_in_rect(Rect::new(0.0, 0.0, 100.0, 100.0)),
            pts.len(),
        ),
    ]
}

/// Opens a damaged copy and asserts the only possible outcomes: the open
/// fails (a torn catalog reports `Corrupt`), or every query either errors
/// or returns exactly the committed state.  Silently wrong rows — the one
/// forbidden outcome — fail the assertion.
fn assert_committed_or_error(
    damaged: &std::path::Path,
    expected: &[(String, Predicate, usize)],
    ctx: &str,
) {
    match Database::open(damaged) {
        Err(_) => {} // refusing to open damaged files is always correct
        Ok(db) => {
            for (table, predicate, count) in expected {
                if db.table(table).is_none() {
                    // A committed prefix from before the table existed.
                    continue;
                }
                match db.query(table, predicate).and_then(|cursor| cursor.rows()) {
                    Err(_) => {} // surfacing damage as an error is correct
                    Ok(rows) => assert_eq!(
                        rows.len(),
                        *count,
                        "{ctx}: table {table} returned wrong rows from a damaged file"
                    ),
                }
            }
        }
    }
}

#[test]
fn truncated_tail_recovers_committed_state_or_fails_corrupt() {
    let dir = temp_dir("crash-truncate");
    let path = dir.join("db.pages");
    let expected = build_crash_fixture(&path);
    let len = std::fs::metadata(&path).unwrap().len();
    let total_pages = (len / PAGE_SIZE as u64) as u32;
    assert!(total_pages > 20, "fixture must span many pages");

    // Cut the tail back page by page (coarser further out), crossing every
    // late sync boundary.
    let mut cuts: Vec<u32> = (1..=8).collect();
    cuts.extend([12, 16, 24, 32, 48, 64, total_pages / 2, total_pages - 2]);
    for cut in cuts {
        if cut >= total_pages {
            continue;
        }
        let damaged = dir.join(format!("truncated-{cut}.pages"));
        std::fs::copy(&path, &damaged).unwrap();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&damaged)
            .unwrap();
        file.set_len(len - u64::from(cut) * PAGE_SIZE as u64)
            .unwrap();
        drop(file);
        assert_committed_or_error(&damaged, &expected, &format!("cut {cut} pages"));
    }

    // A torn (non-page-aligned) truncation is refused outright by the pager.
    let damaged = dir.join("torn.pages");
    std::fs::copy(&path, &damaged).unwrap();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&damaged)
        .unwrap();
    file.set_len(len - 1000).unwrap();
    drop(file);
    assert!(
        matches!(Database::open(&damaged), Err(StorageError::Corrupt(_))),
        "a non-page-aligned file must fail Corrupt"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn zeroed_tail_recovers_committed_state_or_fails_corrupt() {
    let dir = temp_dir("crash-zero");
    let path = dir.join("db.pages");
    let expected = build_crash_fixture(&path);
    let len = std::fs::metadata(&path).unwrap().len();
    let total_pages = (len / PAGE_SIZE as u64) as u32;

    for zeroed in [1u32, 2, 4, 8, 16, 32, total_pages / 2] {
        if zeroed >= total_pages - 1 {
            continue;
        }
        let damaged = dir.join(format!("zeroed-{zeroed}.pages"));
        std::fs::copy(&path, &damaged).unwrap();
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut file = std::fs::OpenOptions::new()
                .write(true)
                .open(&damaged)
                .unwrap();
            file.seek(SeekFrom::Start(len - u64::from(zeroed) * PAGE_SIZE as u64))
                .unwrap();
            file.write_all(&vec![0u8; zeroed as usize * PAGE_SIZE])
                .unwrap();
        }
        assert_committed_or_error(&damaged, &expected, &format!("zeroed {zeroed} pages"));
    }

    // Zeroing the catalog root (logical page 0 = second physical page) must
    // fail the open with Corrupt: the catalog is unreadable, and guessing
    // is forbidden.
    let damaged = dir.join("zeroed-root.pages");
    std::fs::copy(&path, &damaged).unwrap();
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .open(&damaged)
            .unwrap();
        file.seek(SeekFrom::Start(PAGE_SIZE as u64)).unwrap();
        file.write_all(&vec![0u8; PAGE_SIZE]).unwrap();
    }
    assert!(
        matches!(Database::open(&damaged), Err(StorageError::Corrupt(_))),
        "a zeroed catalog root must fail Corrupt"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn buffer_pool_io_counters_reflect_disk_activity() {
    let dir = temp_dir("io");
    let path = dir.join("kd.pages");
    {
        let pool = file_pool(&path, true);
        let kd = KdTreeIndex::create(Arc::clone(&pool)).unwrap();
        let pts = spgist::datagen::points(5_000, 5);
        for (row, p) in pts.iter().enumerate() {
            kd.insert(*p, row as RowId).unwrap();
        }
        pool.flush_all().unwrap();
        let io = pool.stats();
        assert!(io.logical_reads > 0);
        assert!(io.physical_writes > 0, "flush must write dirty pages");
        // With a 256-page pool and a ~5k-point kd-tree everything fits, so the
        // hit ratio should be very high.
        assert!(io.hit_ratio() > 0.9, "hit ratio {}", io.hit_ratio());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
