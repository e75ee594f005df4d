//! Shared-access guarantees under real threads.  Readers pin a reclamation
//! epoch and run latch-free while writers crab per-page latches, so a scan
//! is *not* an atomic snapshot: it may observe some of the inserts that
//! land while it drains.  What these tests hold the system to instead:
//! nothing committed before a scan began ever goes missing, nothing that
//! was never inserted ever surfaces, no row surfaces twice, writers are
//! never blocked by open cursors, and the multi-threaded query driver
//! agrees with serial execution.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use spgist::prelude::*;

/// Compile-time proof that the shared-access surface is actually shareable:
/// `Database`, `Table`, and all five `SpIndex` implementations.
#[test]
fn shared_handles_are_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<Table>();
    assert_send_sync::<Arc<Table>>();
    assert_send_sync::<TrieIndex>();
    assert_send_sync::<SuffixTreeIndex>();
    assert_send_sync::<KdTreeIndex>();
    assert_send_sync::<PointQuadtreeIndex>();
    assert_send_sync::<PmrQuadtreeIndex>();
    assert_send_sync::<BufferPool>();
}

/// Deterministic point for row `i`, inside the `[0, 100]²` world.
fn point_for(i: u64) -> Point {
    let x = (i % 100) as f64 + 0.25;
    let y = ((i / 100) % 100) as f64 + 0.75;
    Point::new(x, y)
}

/// The core stress invariant: a single writer inserts rows `0, 1, 2, …` in
/// order while readers repeatedly scan everything.  A cursor pins a
/// reclamation epoch instead of a latch, so a scan is not an atomic
/// snapshot — it may observe part of the concurrent insert stream — but
/// three things must hold on every drain: everything committed before the
/// scan began is present, nothing that was never inserted surfaces, and no
/// row surfaces twice.
#[test]
fn concurrent_readers_never_lose_committed_inserts() {
    const TOTAL: u64 = 2_000;
    let index = Arc::new(KdTreeIndex::open(BufferPool::in_memory()).unwrap());
    let committed = Arc::new(AtomicU64::new(0));
    let world = Rect::new(0.0, 0.0, 100.0, 100.0);

    std::thread::scope(|scope| {
        let writer_index = Arc::clone(&index);
        let writer_committed = Arc::clone(&committed);
        let writer = scope.spawn(move || {
            for i in 0..TOTAL {
                writer_index.insert(point_for(i), i).unwrap();
                writer_committed.store(i + 1, Ordering::Release);
            }
        });

        let mut readers = Vec::new();
        for _ in 0..3 {
            let index = Arc::clone(&index);
            let committed = Arc::clone(&committed);
            readers.push(scope.spawn(move || {
                let mut scans = 0u32;
                loop {
                    let before = committed.load(Ordering::Acquire);
                    let mut rows = index
                        .cursor(&PointQuery::InRect(world))
                        .unwrap()
                        .rows()
                        .unwrap();
                    let after = committed.load(Ordering::Acquire);
                    let k = rows.len() as u64;
                    // Everything committed before the scan started must be
                    // visible.
                    assert!(
                        k >= before,
                        "scan lost committed inserts: saw {k}, {before} were committed"
                    );
                    rows.sort_unstable();
                    rows.dedup();
                    assert_eq!(rows.len() as u64, k, "a row surfaced twice in one scan");
                    // Any row the scan saw had been inserted when it was
                    // read, and the writer publishes the counter for insert
                    // `i` before starting insert `i+1`, so by drain end the
                    // counter covers every observed row.
                    if let Some(&max) = rows.last() {
                        assert!(
                            max <= after,
                            "scan saw row {max} but only {after} inserts ever committed"
                        );
                    }
                    scans += 1;
                    if before == TOTAL {
                        break;
                    }
                }
                scans
            }));
        }

        writer.join().unwrap();
        for reader in readers {
            let scans = reader.join().unwrap();
            assert!(scans > 0, "every reader completed at least one scan");
        }
    });

    assert_eq!(index.len(), TOTAL);
}

/// The same invariant at the executor level: writers burst inserts through
/// a shared `Arc<Table>` handle while readers query through the `Database`
/// facade (trie-indexed), checking that every result contains everything
/// committed when the query began, nothing never inserted, and no
/// duplicates.
#[test]
fn table_handles_support_concurrent_dml_and_queries() {
    const TOTAL: u64 = 1_200;
    let mut db = Database::in_memory();
    db.create_table("words", KeyType::Varchar).unwrap();
    db.table_mut("words")
        .unwrap()
        .create_index("words_trie", IndexSpec::Trie)
        .unwrap();
    let handle = db.table_handle("words").unwrap();
    let committed = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let writer_handle = Arc::clone(&handle);
        let writer_committed = Arc::clone(&committed);
        let writer_done = Arc::clone(&done);
        scope.spawn(move || {
            // Bursts: a batch of inserts, then a yield to let readers in.
            for burst in 0..(TOTAL / 100) {
                for i in (burst * 100)..((burst + 1) * 100) {
                    let row = writer_handle.insert(format!("word{i:06}")).unwrap();
                    assert_eq!(row, i);
                    writer_committed.store(i + 1, Ordering::Release);
                }
                std::thread::yield_now();
            }
            writer_done.store(true, Ordering::Release);
        });

        for _ in 0..2 {
            let db = &db;
            let committed = Arc::clone(&committed);
            let done = Arc::clone(&done);
            scope.spawn(move || loop {
                let finished = done.load(Ordering::Acquire);
                let before = committed.load(Ordering::Acquire);
                let mut rows = db
                    .query("words", Predicate::str_prefix("word"))
                    .unwrap()
                    .rows()
                    .unwrap();
                let after = committed.load(Ordering::Acquire);
                let k = rows.len() as u64;
                assert!(
                    k >= before,
                    "query lost committed inserts: saw {k}, {before} were committed"
                );
                rows.sort_unstable();
                rows.dedup();
                assert_eq!(rows.len() as u64, k, "a row surfaced twice in one query");
                if let Some(&max) = rows.last() {
                    assert!(
                        max <= after,
                        "query saw row {max} but only {after} inserts ever committed"
                    );
                }
                if finished {
                    break;
                }
            });
        }
    });

    assert_eq!(handle.len(), TOTAL);
}

/// The multi-threaded query driver returns exactly the serial answers, in
/// input order, at every thread count.
#[test]
fn run_parallel_is_deterministic_across_thread_counts() {
    let mut db = Database::in_memory();
    db.create_table("points", KeyType::Point).unwrap();
    let table = db.table_mut("points").unwrap();
    for i in 0..4_000u64 {
        table.insert(point_for(i)).unwrap();
    }
    table.create_index("points_kd", IndexSpec::KdTree).unwrap();

    let queries: Vec<Query> = (0..12)
        .map(|i| {
            let lo = (i * 7) as f64;
            Query::new(Predicate::point_in_rect(Rect::new(lo, 0.0, lo + 9.0, 50.0)))
        })
        .collect();
    let serial: Vec<Vec<RowId>> = queries
        .iter()
        .map(|q| db.query("points", q).unwrap().rows().unwrap())
        .collect();
    assert!(serial.iter().any(|rows| !rows.is_empty()));
    for threads in [1, 2, 4, 16] {
        assert_eq!(
            db.run_parallel("points", &queries, threads).unwrap(),
            serial,
            "driver output must match serial execution at {threads} threads"
        );
    }
}

/// Regression test for the composite-plan latch deadlock: a Union (or
/// Intersect) whose inputs scan the *same* index must never hold two read
/// latches at once — with a concurrent writer queued on the latch, the
/// second acquisition would wait behind the writer, which waits behind the
/// first, hanging the table forever.  Execution now drains each input
/// before opening the next, so this test completing *is* the assertion.
#[test]
fn composite_plans_on_one_index_survive_concurrent_writers() {
    let mut db = Database::in_memory();
    db.create_table("words", KeyType::Varchar).unwrap();
    {
        let table = db.table_mut("words").unwrap();
        // Large enough that the cost model prefers index scans (and their
        // union) over the heap: on a small table a seq scan genuinely wins
        // and the composite latch pattern never runs.
        for i in 0..12_000u64 {
            let prefix = ["aa", "ab", "ba"][(i % 3) as usize];
            table.insert(format!("{prefix}{i:05}")).unwrap();
        }
        table.create_index("trie", IndexSpec::Trie).unwrap();
    }
    let union_query = Predicate::str_prefix("aa").or(Predicate::str_prefix("ab"));
    assert!(
        matches!(
            db.plan("words", &union_query).unwrap(),
            AccessPath::Union { .. }
        ),
        "both disjuncts must route to the same trie for this test to bite"
    );
    let and_query = Predicate::str_prefix("a").and(Predicate::str_prefix("ab"));

    let handle = db.table_handle("words").unwrap();
    let done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let writer_handle = Arc::clone(&handle);
        let writer_done = Arc::clone(&done);
        scope.spawn(move || {
            let mut i = 100_000u64;
            while !writer_done.load(Ordering::Acquire) {
                writer_handle.insert(format!("zz{i:06}")).unwrap();
                i += 1;
            }
        });
        for _ in 0..25 {
            let rows = db.query("words", &union_query).unwrap().rows().unwrap();
            assert_eq!(rows.len(), 8_000, "4000 aa-words and 4000 ab-words");
            let rows = db.query("words", &and_query).unwrap().rows().unwrap();
            assert_eq!(rows.len(), 4_000, "the ab-words satisfy both conjuncts");
        }
        done.store(true, Ordering::Release);
    });
}

/// DML statements are atomic with respect to each other: a delete racing an
/// insert can never run its index removals *between* the insert's heap
/// append and its index update.  Without that ordering, the removal finds
/// nothing, the insert's index entry then lands anyway, and the index
/// permanently names a dead row — a durable phantom every later query
/// reports.  Deleters here target arbitrary recent row ids (modelling a
/// scan-then-delete), and afterwards the index-backed answer must agree
/// exactly with heap ground truth.
#[test]
fn interleaved_inserts_and_deletes_leave_no_phantom_index_entries() {
    const WRITERS: u64 = 2;
    const PER_WRITER: u64 = 3_000;
    const TOTAL: u64 = WRITERS * PER_WRITER;
    let mut db = Database::in_memory();
    db.create_table("words", KeyType::Varchar).unwrap();
    db.table_mut("words")
        .unwrap()
        .create_index("trie", IndexSpec::Trie)
        .unwrap();
    let handle = db.table_handle("words").unwrap();
    let committed = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let handle = Arc::clone(&handle);
            let committed = Arc::clone(&committed);
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    // A selective minority of aa-words keeps the check
                    // query on the index instead of the heap.
                    let prefix = if i % 8 == 0 { "aa" } else { "zz" };
                    handle.insert(format!("{prefix}{w}{i:06}")).unwrap();
                    committed.fetch_add(1, Ordering::Release);
                }
            });
        }
        for d in 0..2u64 {
            let handle = Arc::clone(&handle);
            let committed = Arc::clone(&committed);
            scope.spawn(move || {
                let mut probe = d; // deleters interleave over the id space
                loop {
                    let seen = committed.load(Ordering::Acquire);
                    if seen >= TOTAL {
                        break;
                    }
                    if seen > 0 {
                        // Delete a recent row id — racing the tail of the
                        // insert stream is what used to split a statement.
                        handle.delete(probe % seen).unwrap();
                        probe += 7;
                    }
                    std::thread::yield_now();
                }
            });
        }
    });

    assert!(
        matches!(
            db.plan("words", Predicate::str_prefix("aa")).unwrap(),
            AccessPath::IndexScan { .. }
        ),
        "the check must route through the index for phantoms to surface"
    );
    let mut via_index = db
        .query("words", Predicate::str_prefix("aa"))
        .unwrap()
        .rows()
        .unwrap();
    via_index.sort_unstable();
    let mut ground_truth: Vec<RowId> = Vec::new();
    for row in 0..TOTAL {
        if let Some(Datum::Text(word)) = handle.try_datum(row).unwrap() {
            if word.starts_with("aa") {
                ground_truth.push(row);
            }
        }
    }
    assert_eq!(
        via_index, ground_truth,
        "index-backed rows must exactly match heap-live rows once DML settles"
    );
}

/// A long-lived cursor pins a reclamation epoch, not a latch: a writer
/// lands *while* the cursor is open (the join below completes before the
/// cursor is drained — under the old one-RwLock-per-tree design this
/// deadlocked), the open cursor still drains every pre-write word without
/// error, and a cursor opened after the write sees the new word.
#[test]
fn open_cursors_never_block_writers() {
    let index = Arc::new(TrieIndex::open(BufferPool::in_memory()).unwrap());
    for (row, word) in ["alpha", "beta", "gamma"].iter().enumerate() {
        index.insert(word, row as RowId).unwrap();
    }

    let mut cursor = index.cursor(&StringQuery::Prefix(String::new())).unwrap();
    let first = cursor.next().unwrap().unwrap();
    assert!(!first.0.is_empty());

    // The writer completes while the cursor is still open — this join is
    // the assertion that cursors no longer exclude writers.
    let writer = {
        let index = Arc::clone(&index);
        std::thread::spawn(move || index.insert("delta", 3).unwrap())
    };
    writer.join().unwrap();

    // The open cursor drains without error; it sees every pre-write word
    // and may or may not see "delta" depending on where its traversal was.
    let mut seen: Vec<(String, RowId)> = cursor.map(Result::unwrap).collect();
    seen.push(first);
    seen.sort_unstable();
    seen.dedup();
    for word in ["alpha", "beta", "gamma"] {
        assert!(
            seen.iter().any(|(w, _)| w == word),
            "open cursor lost pre-write word {word}"
        );
    }
    assert!(seen.len() <= 4, "cursor saw words that were never inserted");

    assert_eq!(
        index
            .cursor(&StringQuery::Prefix(String::new()))
            .unwrap()
            .rows()
            .unwrap()
            .len(),
        4,
        "a cursor opened after the write sees it"
    );
}

/// Reopen regression: a database restored from its durable catalog must
/// withstand the same reader-during-writer-burst stress as a freshly built
/// one — the per-index latches, the table latch, the DML lock and the
/// pager's free-list state all have to come back in working order.
///
/// The writer deletes and re-inserts against the reopened handle (so freed
/// pages cycle through the restored free list) while readers assert the
/// committed-prefix invariant on rows that predate the reopen.
#[test]
fn reopened_database_survives_reader_during_writer_burst() {
    const PRELOADED: u64 = 1_500;
    const BURSTS: u64 = 10;
    let dir = std::env::temp_dir().join(format!("spgist-reopen-stress-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.pages");

    {
        let mut db = Database::create(&path).unwrap();
        db.create_table("words", KeyType::Varchar).unwrap();
        db.create_index("words", "words_trie", IndexSpec::Trie)
            .unwrap();
        let table = db.table_handle("words").unwrap();
        for i in 0..PRELOADED {
            assert_eq!(table.insert(format!("word{i:06}")).unwrap(), i);
        }
        drop(table);
        db.close().unwrap();
    }

    // Immediately stress the *reopened* handles.
    let db = Database::open(&path).unwrap();
    let handle = db.table_handle("words").unwrap();
    assert_eq!(handle.len(), PRELOADED);
    let committed = Arc::new(AtomicU64::new(PRELOADED));
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        // Writer: bursts of inserts, plus delete/re-insert churn that cycles
        // pages through the free list restored by the reopen.
        let writer_handle = Arc::clone(&handle);
        let writer_committed = Arc::clone(&committed);
        let writer_done = Arc::clone(&done);
        scope.spawn(move || {
            let mut next = PRELOADED;
            for burst in 0..BURSTS {
                for _ in 0..50 {
                    let row = writer_handle.insert(format!("word{next:06}")).unwrap();
                    assert_eq!(row, next);
                    next += 1;
                    writer_committed.store(next, Ordering::Release);
                }
                // Churn: delete a handful of *new* rows' predecessors and
                // re-insert fresh rows (row ids keep growing; readers only
                // assert on the preloaded prefix).
                for k in 0..5 {
                    let victim = PRELOADED + burst * 50 + k;
                    writer_handle.delete(victim).unwrap();
                }
                std::thread::yield_now();
            }
            writer_done.store(true, Ordering::Release);
        });

        for _ in 0..2 {
            let db = &db;
            let done = Arc::clone(&done);
            scope.spawn(move || loop {
                let finished = done.load(Ordering::Acquire);
                // The preloaded prefix (which predates the reopen) must stay
                // fully visible whatever the concurrent churn does.
                let rows = db
                    .query("words", Predicate::str_prefix("word"))
                    .unwrap()
                    .rows()
                    .unwrap();
                let preloaded_seen = rows.iter().filter(|&&r| r < PRELOADED).count() as u64;
                assert_eq!(
                    preloaded_seen, PRELOADED,
                    "rows committed before the reopen must never flicker"
                );
                if finished {
                    break;
                }
            });
        }
    });

    // Post-stress: a full reopen cycle still works and the state is sane.
    let expected = handle.len();
    drop(handle);
    db.close().unwrap();
    let db = Database::open(&path).unwrap();
    assert_eq!(db.table("words").unwrap().len(), expected);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Seeded N-writer × M-reader stress on one shared index.  Each writer owns
/// a disjoint row-id range and inserts it in a deterministically shuffled
/// order (xorshift from a fixed seed, so a failure replays); readers scan
/// continuously.  Every scan must contain at least as many of each writer's
/// rows as that writer had committed when the scan began, and nothing that
/// was never inserted; once the writers finish, every insert must be
/// present exactly once.
#[test]
fn seeded_multi_writer_multi_reader_stress_loses_no_inserts() {
    const WRITERS: u64 = 4;
    const READERS: usize = 3;
    const PER_WRITER: u64 = 800;
    const TOTAL: u64 = WRITERS * PER_WRITER;
    const SEED: u64 = 0x5113_7e57_0000_0001;

    /// Deterministic Fisher–Yates over `0..n` driven by xorshift64.
    fn shuffled(n: u64, mut state: u64) -> Vec<u64> {
        let mut order: Vec<u64> = (0..n).collect();
        for i in (1..order.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        order
    }

    let index = Arc::new(KdTreeIndex::open(BufferPool::in_memory()).unwrap());
    let committed: Arc<Vec<AtomicU64>> =
        Arc::new((0..WRITERS).map(|_| AtomicU64::new(0)).collect());
    let world = Rect::new(0.0, 0.0, 100.0, 100.0);

    std::thread::scope(|scope| {
        let mut writers = Vec::new();
        for w in 0..WRITERS {
            let index = Arc::clone(&index);
            let committed = Arc::clone(&committed);
            writers.push(scope.spawn(move || {
                for i in shuffled(PER_WRITER, SEED.wrapping_add(w)) {
                    let row = w * PER_WRITER + i;
                    index.insert(point_for(row), row).unwrap();
                    committed[w as usize].fetch_add(1, Ordering::Release);
                }
            }));
        }

        for _ in 0..READERS {
            let index = Arc::clone(&index);
            let committed = Arc::clone(&committed);
            scope.spawn(move || loop {
                let before: Vec<u64> = committed
                    .iter()
                    .map(|c| c.load(Ordering::Acquire))
                    .collect();
                let mut rows = index
                    .cursor(&PointQuery::InRect(world))
                    .unwrap()
                    .rows()
                    .unwrap();
                rows.sort_unstable();
                let deduped = rows.len();
                rows.dedup();
                assert_eq!(rows.len(), deduped, "a row surfaced twice in one scan");
                assert!(
                    rows.iter().all(|&r| r < TOTAL),
                    "scan saw a row id that was never inserted"
                );
                for (w, &committed) in before.iter().enumerate() {
                    let lo = w as u64 * PER_WRITER;
                    let seen = rows
                        .iter()
                        .filter(|&&r| (lo..lo + PER_WRITER).contains(&r))
                        .count() as u64;
                    assert!(
                        seen >= committed,
                        "scan lost inserts: writer {w} had committed {committed} but only {seen} visible"
                    );
                }
                if before.iter().sum::<u64>() == TOTAL {
                    break;
                }
            });
        }

        for writer in writers {
            writer.join().unwrap();
        }
    });

    assert_eq!(index.len(), TOTAL);
    let mut rows = index
        .cursor(&PointQuery::InRect(world))
        .unwrap()
        .rows()
        .unwrap();
    rows.sort_unstable();
    let expected: Vec<RowId> = (0..TOTAL).collect();
    assert_eq!(
        rows, expected,
        "after the dust settles every insert is present once"
    );
}

/// Planner statistics under writers: four threads insert into one table
/// while a fifth plans against it in a loop.  Planning reads each tree's
/// page-height high-water mark and takes neither the DML lock, a page latch
/// nor a write gate, so the writers keep inserting *until the planner has
/// finished its quota* — every plan overlaps live writers, and a planner
/// that waited on them would hang this test.  The reported heights never
/// decrease, and once the writers stop they are within one page of the
/// exact walk (what a freshly reopened database measures on its first
/// read).  The database is reopened before the threads start, so the first
/// plan's measuring walk races the first inserts.
#[test]
fn planning_under_concurrent_writers_is_monotone_and_close_to_exact() {
    const PRELOADED: u64 = 3_000;
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 400;
    const PLANS: u64 = 300;
    let dir = std::env::temp_dir().join(format!("spgist-plan-stress-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.pages");
    {
        let mut db = Database::create(&path).unwrap();
        db.create_table("points", KeyType::Point).unwrap();
        let table = db.table_handle("points").unwrap();
        table.insert_many((0..PRELOADED).map(point_for)).unwrap();
        drop(table);
        db.create_index("points", "kd", IndexSpec::KdTree).unwrap();
        db.create_index("points", "pquad", IndexSpec::PointQuadtree)
            .unwrap();
        db.close().unwrap();
    }

    let heights = |db: &Database| -> Vec<u32> {
        let indexes = db.table("points").unwrap().available_indexes().unwrap();
        indexes.iter().map(|ix| ix.page_height).collect()
    };
    let db = Database::open(&path).unwrap();
    let handle = db.table_handle("points").unwrap();
    let plans = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (handle, plans) = (Arc::clone(&handle), &plans);
            scope.spawn(move || {
                // Scattered keys, so inserts keep splitting leaves all over
                // both trees.
                let mut i = 0;
                while i < PER_WRITER || plans.load(Ordering::Acquire) < PLANS {
                    let key = PRELOADED + (i * WRITERS + w) * 7919;
                    handle.insert(point_for(key)).unwrap();
                    i += 1;
                }
            });
        }
        let (db, plans) = (&db, &plans);
        scope.spawn(move || {
            let window = Rect::new(20.0, 20.0, 24.0, 24.0);
            let mut last = vec![0; 2];
            for _ in 0..PLANS {
                db.plan("points", Predicate::point_in_rect(window)).unwrap();
                let now = heights(db);
                assert!(now.iter().all(|&h| h > 0), "a built tree has a height");
                assert!(
                    now.iter().zip(&last).all(|(now, last)| now >= last),
                    "page heights went backwards: {last:?} then {now:?}"
                );
                last = now;
                plans.fetch_add(1, Ordering::Release);
            }
        });
    });

    let reported = heights(&db);
    drop(handle);
    db.close().unwrap();
    let exact = heights(&Database::open(&path).unwrap());
    for (reported, exact) in reported.iter().zip(&exact) {
        assert!(
            reported.abs_diff(*exact) <= 1,
            "heights after the writers stopped: hint {reported}, exact walk {exact}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
