//! Model-based differential testing of the durable `Database`.
//!
//! A long random sequence of DDL + DML + queries (DetRng-seeded, fully
//! deterministic) runs against two systems at once: the real file-backed
//! [`Database`] and a naive in-memory model (a `Vec<Option<Datum>>` per
//! table plus straight-line predicate evaluation).  After every operation
//! the two must agree — row ids, result sets, ordered-scan distance
//! profiles, DDL outcomes.  Periodic close/reopen cycles are interleaved
//! mid-sequence, so the durable catalog is exercised *while* state keeps
//! mutating, not just at a final clean shutdown — and half of those
//! cycles are *kill-points*: the database is dropped without `close()`
//! (losing every dirty page) and sometimes garbage lands on the WAL tail,
//! so reopening exercises crash recovery against the model's
//! acknowledged state.
//!
//! Acceptance floor (ISSUE 4): ≥ 1,000 mixed operations with ≥ 5 reopen
//! cycles per seed; the harness asserts both counters.
//!
//! **Transactional mode** (ISSUE 9) layers multi-statement transactions on
//! the same stream: random episodes of `Database::begin()` → INSERT/DELETE
//! statements across tables → commit or abort, with the model rolled back
//! over aborted work exactly the way the engine's logical undo is — loser
//! inserts leave dead row slots (the row id stays burned), loser deletes
//! restore the old datum in place.  Every kill-point additionally crashes
//! with a transaction still *open* (and, half the time, a second one
//! committed moments before), so recovery must drop the loser's logged
//! statements in full while keeping the winner's in full.  Transactions
//! never span an epoch boundary, so DDL / checkpoint / close never run
//! while one is open — which is also what the engine enforces.
//!
//! **Incremental checkpoints** (ISSUE 10): each epoch restricts DML to a
//! random non-empty *active subset* of the tables, and half the epochs end
//! with an explicit `checkpoint()` right before the close or kill-point.
//! Untouched tables cost that checkpoint zero page writes, so recovery
//! alternates between "incremental image + empty log" and "older image +
//! log replay" — and the differential audit after every reopen proves the
//! clean tables' chunks were neither rewritten nor lost.  Queries and DDL
//! still target *all* tables, so clean-table reads run against chunk
//! segments the checkpointer skipped.

use std::collections::BTreeMap;
use std::path::PathBuf;

use spgist::datagen::rng::DetRng;
use spgist::prelude::*;

const OPS_PER_SEED: usize = 1_200;
const OPS_PER_EPOCH: usize = 180; // close/reopen every epoch: ≥ 6 cycles
const MAX_TABLES: usize = 3;
const MAX_INDEXES_PER_TABLE: usize = 2;

fn temp_path(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spgist-model-{}-{seed}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("db.pages")
}

// ---------------------------------------------------------------------------
// The model: the simplest possible single-column database
// ---------------------------------------------------------------------------

struct ModelTable {
    key_type: KeyType,
    rows: Vec<Option<Datum>>,
    indexes: Vec<(String, &'static str)>, // (name, kind label)
}

impl ModelTable {
    fn live(&self) -> impl Iterator<Item = (RowId, &Datum)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.as_ref().map(|d| (i as RowId, d)))
    }

    fn live_count(&self) -> u64 {
        self.rows.iter().flatten().count() as u64
    }

    fn matches(&self, predicate: &Predicate) -> Vec<RowId> {
        self.live()
            .filter(|(_, d)| predicate.matches(d))
            .map(|(row, _)| row)
            .collect()
    }
}

#[derive(Default)]
struct Model {
    tables: BTreeMap<String, ModelTable>,
}

// ---------------------------------------------------------------------------
// Random data and predicates
// ---------------------------------------------------------------------------

fn random_word(rng: &mut DetRng) -> String {
    let len = rng.gen_range(1usize..=7);
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(0u32..5) as u8))
        .collect()
}

fn random_point(rng: &mut DetRng) -> Point {
    // Grid coordinates: exact f64s, plenty of collisions.
    Point::new(
        rng.gen_range(0u32..50) as f64 * 2.0,
        rng.gen_range(0u32..50) as f64 * 2.0,
    )
}

fn random_segment(rng: &mut DetRng) -> Segment {
    Segment::new(random_point(rng), random_point(rng))
}

fn random_datum(rng: &mut DetRng, key_type: KeyType) -> Datum {
    match key_type {
        KeyType::Varchar => Datum::Text(random_word(rng)),
        KeyType::Point => Datum::Point(random_point(rng)),
        KeyType::Segment => Datum::Segment(random_segment(rng)),
    }
}

fn random_rect(rng: &mut DetRng) -> Rect {
    let x0 = rng.gen_range(0u32..80) as f64;
    let y0 = rng.gen_range(0u32..80) as f64;
    let w = rng.gen_range(5u32..40) as f64;
    let h = rng.gen_range(5u32..40) as f64;
    Rect::new(x0, y0, (x0 + w).min(100.0), (y0 + h).min(100.0))
}

/// A random *unordered* predicate leaf of the given key type.
fn random_leaf(rng: &mut DetRng, key_type: KeyType) -> Predicate {
    match key_type {
        KeyType::Varchar => match rng.gen_range(0u32..4) {
            0 => Predicate::str_equals(&random_word(rng)),
            1 => {
                let w = random_word(rng);
                Predicate::str_prefix(&w[..rng.gen_range(0usize..w.len())])
            }
            2 => {
                let mut pattern = random_word(rng);
                if rng.gen_range(0u32..2) == 0 {
                    let bytes = unsafe { pattern.as_bytes_mut() };
                    let pos = rng.gen_range(0usize..bytes.len());
                    bytes[pos] = b'?';
                }
                Predicate::str_regex(&pattern)
            }
            _ => {
                let w = random_word(rng);
                let start = rng.gen_range(0usize..w.len());
                let end = rng.gen_range(start + 1..=w.len());
                Predicate::str_substring(&w[start..end])
            }
        },
        KeyType::Point => match rng.gen_range(0u32..2) {
            0 => Predicate::point_equals(random_point(rng)),
            _ => Predicate::point_in_rect(random_rect(rng)),
        },
        KeyType::Segment => match rng.gen_range(0u32..2) {
            0 => Predicate::segment_equals(random_segment(rng)),
            _ => Predicate::segment_in_rect(random_rect(rng)),
        },
    }
}

/// A random unordered predicate tree (leaves plus And/Or/Not composites).
fn random_predicate(rng: &mut DetRng, key_type: KeyType, depth: u32) -> Predicate {
    if depth == 0 || rng.gen_range(0u32..3) == 0 {
        return random_leaf(rng, key_type);
    }
    match rng.gen_range(0u32..3) {
        0 => random_predicate(rng, key_type, depth - 1).and(random_predicate(
            rng,
            key_type,
            depth - 1,
        )),
        1 => random_predicate(rng, key_type, depth - 1).or(random_predicate(
            rng,
            key_type,
            depth - 1,
        )),
        _ => random_predicate(rng, key_type, depth - 1).negate(),
    }
}

fn nearest_predicate(rng: &mut DetRng, key_type: KeyType) -> Predicate {
    match key_type {
        KeyType::Varchar => Predicate::str_nearest(&random_word(rng)),
        KeyType::Point => Predicate::point_nearest(random_point(rng)),
        KeyType::Segment => Predicate::segment_nearest(random_point(rng)),
    }
}

fn index_spec(rng: &mut DetRng, key_type: KeyType) -> (IndexSpec, &'static str) {
    match key_type {
        KeyType::Varchar => {
            if rng.gen_range(0u32..2) == 0 {
                (IndexSpec::Trie, "trie")
            } else {
                (IndexSpec::SuffixTree, "suffix")
            }
        }
        KeyType::Point => {
            if rng.gen_range(0u32..2) == 0 {
                (IndexSpec::KdTree, "kdtree")
            } else {
                (IndexSpec::PointQuadtree, "pquadtree")
            }
        }
        KeyType::Segment => (
            IndexSpec::PmrQuadtree {
                world: Rect::new(0.0, 0.0, 100.0, 100.0),
            },
            "pmr",
        ),
    }
}

// ---------------------------------------------------------------------------
// Differential checks
// ---------------------------------------------------------------------------

fn check_query(db: &Database, model: &Model, table: &str, predicate: &Predicate, ctx: &str) {
    let mt = &model.tables[table];
    let expected = mt.matches(predicate);
    let mut got = db
        .query(table, predicate)
        .unwrap_or_else(|e| panic!("{ctx}: query failed: {e}"))
        .rows()
        .unwrap_or_else(|e| panic!("{ctx}: cursor failed: {e}"));
    got.sort_unstable();
    let mut want = expected.clone();
    want.sort_unstable();
    assert_eq!(got, want, "{ctx}: result disagreement on {predicate:?}");
}

fn check_limited_query(
    db: &Database,
    model: &Model,
    table: &str,
    predicate: &Predicate,
    k: usize,
    ctx: &str,
) {
    let mt = &model.tables[table];
    let expected = mt.matches(predicate);
    let got = db
        .query(table, predicate.clone().limit(k))
        .unwrap_or_else(|e| panic!("{ctx}: limited query failed: {e}"))
        .rows()
        .unwrap_or_else(|e| panic!("{ctx}: limited cursor failed: {e}"));
    assert_eq!(
        got.len(),
        k.min(expected.len()),
        "{ctx}: LIMIT {k} row count on {predicate:?}"
    );
    for row in &got {
        assert!(
            expected.contains(row),
            "{ctx}: LIMIT returned non-matching row {row} for {predicate:?}"
        );
    }
}

fn check_nearest(db: &Database, model: &Model, table: &str, predicate: &Predicate, ctx: &str) {
    let mt = &model.tables[table];
    // `@@` orders, it does not select: the full scan returns every live row
    // in non-decreasing anchor distance.
    let items: Vec<(RowId, Datum)> = db
        .query(table, predicate)
        .unwrap_or_else(|e| panic!("{ctx}: nearest query failed: {e}"))
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| panic!("{ctx}: nearest cursor failed: {e}"));
    assert_eq!(
        items.len() as u64,
        mt.live_count(),
        "{ctx}: nearest must report every live row"
    );
    let dists: Vec<f64> = items.iter().map(|(_, d)| predicate.distance(d)).collect();
    for pair in dists.windows(2) {
        assert!(
            pair[0] <= pair[1],
            "{ctx}: nearest out of order ({} then {})",
            pair[0],
            pair[1]
        );
    }
    // The distance multiset matches the model exactly.
    let mut got = dists;
    got.sort_by(f64::total_cmp);
    let mut want: Vec<f64> = mt.live().map(|(_, d)| predicate.distance(d)).collect();
    want.sort_by(f64::total_cmp);
    assert_eq!(got, want, "{ctx}: nearest distance profile disagreement");
}

/// Full-state agreement: every table, every live row, datum by datum.
fn check_full_state(db: &Database, model: &Model, ctx: &str) {
    let db_tables: Vec<&str> = model.tables.keys().map(String::as_str).collect();
    for name in &db_tables {
        let table = db
            .table(name)
            .unwrap_or_else(|| panic!("{ctx}: table {name} missing"));
        let mt = &model.tables[*name];
        assert_eq!(table.len(), mt.live_count(), "{ctx}: {name} live count");
        let mut index_names: Vec<&str> = table.index_names();
        index_names.sort_unstable();
        let mut want_indexes: Vec<&str> = mt.indexes.iter().map(|(n, _)| n.as_str()).collect();
        want_indexes.sort_unstable();
        assert_eq!(index_names, want_indexes, "{ctx}: {name} index set");
        for (row, datum) in mt.live() {
            let got = table
                .datum(row)
                .unwrap_or_else(|e| panic!("{ctx}: {name} row {row} unreadable: {e}"));
            assert_eq!(&got, datum, "{ctx}: {name} row {row} datum");
        }
        // Deleted rows stay deleted (no resurrection through reopen).
        for (row, slot) in mt.rows.iter().enumerate() {
            if slot.is_none() {
                assert!(
                    table.try_datum(row as RowId).unwrap().is_none(),
                    "{ctx}: {name} deleted row {row} resurrected"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------------

/// The newest WAL segment file backing the database at `db_path`
/// (segments are named `<file>.wal.<seq>` next to the database file).
fn newest_wal_segment(db_path: &std::path::Path) -> Option<PathBuf> {
    let dir = db_path.parent()?;
    let prefix = format!("{}.wal.", db_path.file_name()?.to_str()?);
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix))
        })
        .collect();
    segments.sort();
    segments.pop()
}

fn run_seed(seed: u64) {
    run_seed_with(seed, OPS_PER_SEED, BufferPoolConfig::default(), false);
}

fn run_seed_txn(seed: u64) {
    run_seed_with(seed, OPS_PER_SEED, BufferPoolConfig::default(), true);
}

/// One statement executed inside an open transaction, recorded so the
/// model can be rolled back if the transaction aborts or dies at a
/// kill-point.  Mirrors the engine's logical undo exactly.
enum TxnStmt {
    Insert {
        table: String,
        row: RowId,
    },
    Delete {
        table: String,
        row: RowId,
        datum: Datum,
    },
}

/// Runs a random burst of INSERT/DELETE statements inside `txn`, applying
/// each acknowledged statement to the model immediately (transactions
/// provide atomicity and durability, not isolation — statements are
/// visible the moment they return).  Returns the undo list.
fn txn_statements(
    txn: &mut Transaction<'_>,
    model: &mut Model,
    active: &[String],
    rng: &mut DetRng,
    ctx: &str,
) -> Vec<TxnStmt> {
    let mut pending = Vec::new();
    let tables: Vec<String> = active.to_vec();
    if tables.is_empty() {
        return pending;
    }
    for _ in 0..rng.gen_range(1usize..=6) {
        let table = tables[rng.gen_range(0usize..tables.len())].clone();
        let key_type = model.tables[&table].key_type;
        if rng.gen_range(0u32..10) < 7 {
            let datum = random_datum(rng, key_type);
            let row = txn
                .insert(&table, datum.clone())
                .unwrap_or_else(|e| panic!("{ctx}: txn insert failed: {e}"));
            let mt = model.tables.get_mut(&table).unwrap();
            assert_eq!(
                row,
                mt.rows.len() as RowId,
                "{ctx}: txn row ids stay dense and in insertion order"
            );
            mt.rows.push(Some(datum));
            pending.push(TxnStmt::Insert { table, row });
        } else {
            let mt_len = model.tables[&table].rows.len();
            let row = rng.gen_range(0u64..(mt_len as u64 + 3));
            let got = txn
                .delete(&table, row)
                .unwrap_or_else(|e| panic!("{ctx}: txn delete failed: {e}"));
            let old = model
                .tables
                .get_mut(&table)
                .unwrap()
                .rows
                .get_mut(row as usize)
                .and_then(|slot| slot.take());
            assert_eq!(
                got,
                old.is_some(),
                "{ctx}: txn delete outcome for row {row}"
            );
            if let Some(datum) = old {
                pending.push(TxnStmt::Delete { table, row, datum });
            }
        }
    }
    pending
}

/// Rolls the model back over an aborted (or crash-killed) transaction,
/// newest statement first: inserts become dead slots — the row id stays
/// burned, matching both live undo and recovery's loser tombstones — and
/// deletes restore the old datum at its original row id.
fn rollback_model(model: &mut Model, pending: Vec<TxnStmt>) {
    for stmt in pending.into_iter().rev() {
        match stmt {
            TxnStmt::Insert { table, row } => {
                model.tables.get_mut(&table).unwrap().rows[row as usize] = None;
            }
            TxnStmt::Delete { table, row, datum } => {
                model.tables.get_mut(&table).unwrap().rows[row as usize] = Some(datum);
            }
        }
    }
}

/// Picks an epoch's active subset: each table joins with probability 1/2,
/// and at least one always does (when any table exists).  DML is
/// restricted to the subset for the whole epoch, so the epoch's closing
/// checkpoint is a genuinely incremental one — the clean tables' chunks
/// must survive it untouched.
fn pick_active(model: &Model, rng: &mut DetRng) -> Vec<String> {
    let names: Vec<String> = model.tables.keys().cloned().collect();
    if names.is_empty() {
        return names;
    }
    let mut active: Vec<String> = names
        .iter()
        .filter(|_| rng.gen_range(0u32..2) == 0)
        .cloned()
        .collect();
    if active.is_empty() {
        active.push(names[rng.gen_range(0usize..names.len())].clone());
    }
    active
}

/// The harness body, parameterized so the same operation stream can run on
/// a deliberately starved pool, with or without the transactional
/// episodes.  The acceptance floors (≥ 1,000
/// ops, ≥ 5 reopens) are asserted only for the full-length runs.
fn run_seed_with(seed: u64, total_ops: usize, config: BufferPoolConfig, transactional: bool) {
    let path = temp_path(seed ^ (config.capacity as u64));
    let mut rng = DetRng::seed_from_u64(seed);
    let mut db = Database::create_with_config(&path, config).unwrap();
    let mut model = Model::default();
    let mut table_counter = 0usize;
    let mut index_counter = 0usize;
    let mut ops = 0usize;
    let mut reopens = 0usize;
    // This epoch's DML targets; new tables join immediately, dropped ones
    // leave, and every reopen re-rolls the subset.
    let mut active: Vec<String> = Vec::new();

    while ops < total_ops {
        ops += 1;
        let ctx = format!("seed {seed} op {ops}");

        // Periodic close/reopen cycle, mid-sequence.  Half the epochs end
        // in a clean `close()`; the other half are kill-points: the
        // database is dropped mid-flight (losing every dirty page — the
        // no-steal pool holds them all in memory) and sometimes the crash
        // also leaves junk on the log tail.  Every operation in this
        // harness is acknowledged before the model records it, so after
        // *either* shutdown the reopened database must equal the model
        // exactly: nothing acknowledged lost, nothing phantom.
        if ops.is_multiple_of(OPS_PER_EPOCH) {
            // Half the epochs fold their mutations — which touched only the
            // active subset — into an explicit incremental checkpoint before
            // the shutdown, so the reopen below recovers from "fresh image +
            // (nearly) empty log"; the other half recover from "older image
            // + log replay over the subset's mutations".
            if rng.gen_range(0u32..2) == 0 {
                db.checkpoint().unwrap();
            }
            let crash = rng.gen_range(0u32..2) == 0;
            if crash {
                if transactional {
                    // A committed and an open transaction both in flight at
                    // the kill-point: the winner must survive replay in
                    // full, the loser must vanish in full.
                    if rng.gen_range(0u32..2) == 0 {
                        let mut txn = db.begin().unwrap();
                        let _committed =
                            txn_statements(&mut txn, &mut model, &active, &mut rng, &ctx);
                        txn.commit()
                            .unwrap_or_else(|e| panic!("{ctx}: commit failed: {e}"));
                    }
                    let mut txn = db.begin().unwrap();
                    let pending = txn_statements(&mut txn, &mut model, &active, &mut rng, &ctx);
                    // The crash takes the transaction with it: no commit,
                    // no rollback.  Every statement reaches the log (the
                    // drop below drains the flusher) but no CommitTxn does,
                    // so recovery must drop them all.
                    txn.crash_for_test();
                    rollback_model(&mut model, pending);
                }
                drop(db); // kill-point: no close, no checkpoint
                if rng.gen_range(0u32..2) == 0 {
                    // A crash can leave preallocated garbage past the last
                    // durable record; recovery must discard it.
                    let segment = newest_wal_segment(&path)
                        .unwrap_or_else(|| panic!("{ctx}: no WAL segment on disk"));
                    let mut bytes = std::fs::read(&segment).unwrap();
                    let junk = 1 + rng.gen_range(0u32..64) as usize;
                    bytes.extend(std::iter::repeat_n(0xDEu8, junk));
                    std::fs::write(&segment, &bytes).unwrap();
                }
            } else {
                db.close().unwrap();
            }
            let kind = if crash { "crash" } else { "close" };
            db = Database::open_with_config(&path, config)
                .unwrap_or_else(|e| panic!("{ctx}: reopen after {kind} failed: {e}"));
            reopens += 1;
            check_full_state(&db, &model, &format!("{ctx} (after {kind}+reopen)"));
            active = pick_active(&model, &mut rng);
            continue;
        }

        let table_names: Vec<String> = model.tables.keys().cloned().collect();
        let roll = rng.gen_range(0u32..100);

        if table_names.is_empty() || (roll >= 90 && model.tables.len() < MAX_TABLES) {
            // CREATE TABLE.
            let name = format!("t{table_counter}");
            table_counter += 1;
            let key_type = match rng.gen_range(0u32..3) {
                0 => KeyType::Varchar,
                1 => KeyType::Point,
                _ => KeyType::Segment,
            };
            db.create_table(&name, key_type).unwrap();
            model.tables.insert(
                name.clone(),
                ModelTable {
                    key_type,
                    rows: Vec::new(),
                    indexes: Vec::new(),
                },
            );
            // A new table must receive DML to be interesting: it joins the
            // active subset for the rest of the epoch.
            active.push(name);
            continue;
        }

        // Queries and DDL range over *all* tables; DML (the INSERT, DELETE
        // and transaction arms below) stays inside the active subset so
        // the epoch's checkpoint skips the clean tables' chunks.
        let table = table_names[rng.gen_range(0usize..table_names.len())].clone();
        let key_type = model.tables[&table].key_type;
        let dml_table = active[rng.gen_range(0usize..active.len())].clone();
        let dml_key_type = model.tables[&dml_table].key_type;

        match roll {
            // Multi-statement transaction episode: a burst of statements
            // across random tables, then commit or abort.  (Transactional
            // mode only; carved out of the INSERT range.)
            35..=49 if transactional => {
                let mut txn = db.begin().unwrap();
                let pending = txn_statements(&mut txn, &mut model, &active, &mut rng, &ctx);
                if rng.gen_range(0u32..5) < 3 {
                    txn.commit()
                        .unwrap_or_else(|e| panic!("{ctx}: commit failed: {e}"));
                } else {
                    txn.abort()
                        .unwrap_or_else(|e| panic!("{ctx}: abort failed: {e}"));
                    rollback_model(&mut model, pending);
                }
            }
            // INSERT (the bulk of the workload).
            0..=49 => {
                let datum = random_datum(&mut rng, dml_key_type);
                let row = db
                    .table_handle(&dml_table)
                    .unwrap()
                    .insert(datum.clone())
                    .unwrap_or_else(|e| panic!("{ctx}: insert failed: {e}"));
                let mt = model.tables.get_mut(&dml_table).unwrap();
                assert_eq!(
                    row,
                    mt.rows.len() as RowId,
                    "{ctx}: row ids must stay dense and in insertion order"
                );
                mt.rows.push(Some(datum));
            }
            // DELETE a random row id (live, dead, or never allocated).
            50..=64 => {
                let mt_len = model.tables[&dml_table].rows.len();
                let row = rng.gen_range(0u64..(mt_len as u64 + 3));
                let got = db
                    .table_handle(&dml_table)
                    .unwrap()
                    .delete(row)
                    .unwrap_or_else(|e| panic!("{ctx}: delete failed: {e}"));
                let mt = model.tables.get_mut(&dml_table).unwrap();
                let want = mt
                    .rows
                    .get_mut(row as usize)
                    .map(|slot| slot.take().is_some())
                    .unwrap_or(false);
                assert_eq!(got, want, "{ctx}: delete outcome for row {row}");
            }
            // Unordered query: random boolean tree, sometimes LIMITed.
            65..=81 => {
                let predicate = random_predicate(&mut rng, key_type, 2);
                if rng.gen_range(0u32..4) == 0 {
                    let k = rng.gen_range(1usize..10);
                    check_limited_query(&db, &model, &table, &predicate, k, &ctx);
                } else {
                    check_query(&db, &model, &table, &predicate, &ctx);
                }
            }
            // Ordered (`@@`) query: distance-profile agreement.
            82..=86 => {
                let predicate = nearest_predicate(&mut rng, key_type);
                check_nearest(&db, &model, &table, &predicate, &ctx);
            }
            // CREATE INDEX / DROP INDEX / DROP TABLE / checkpoint.
            _ => match rng.gen_range(0u32..4) {
                0 if model.tables[&table].indexes.len() < MAX_INDEXES_PER_TABLE => {
                    let (spec, kind) = index_spec(&mut rng, key_type);
                    let name = format!("ix{index_counter}");
                    index_counter += 1;
                    db.create_index(&table, &name, spec)
                        .unwrap_or_else(|e| panic!("{ctx}: create_index failed: {e}"));
                    model
                        .tables
                        .get_mut(&table)
                        .unwrap()
                        .indexes
                        .push((name, kind));
                }
                1 => {
                    let mt = model.tables.get_mut(&table).unwrap();
                    if let Some(pos) =
                        (!mt.indexes.is_empty()).then(|| rng.gen_range(0usize..mt.indexes.len()))
                    {
                        let (name, _) = mt.indexes.remove(pos);
                        assert!(
                            db.drop_index(&table, &name)
                                .unwrap_or_else(|e| panic!("{ctx}: drop_index failed: {e}")),
                            "{ctx}: index {name} should exist"
                        );
                    }
                }
                2 if model.tables.len() > 1 => {
                    assert!(
                        db.drop_table(&table)
                            .unwrap_or_else(|e| panic!("{ctx}: drop_table failed: {e}")),
                        "{ctx}: table {table} should exist"
                    );
                    model.tables.remove(&table);
                    active.retain(|t| t != &table);
                    if active.is_empty() {
                        active = pick_active(&model, &mut rng);
                    }
                }
                _ => db.checkpoint().unwrap(),
            },
        }
    }

    if total_ops >= OPS_PER_SEED {
        assert!(ops >= 1_000, "acceptance floor: ≥ 1,000 mixed operations");
        assert!(
            reopens >= 5,
            "acceptance floor: ≥ 5 reopen cycles, got {reopens}"
        );
    } else {
        assert!(reopens >= 1, "short run still cycles the database once");
    }

    // Final clean shutdown and one last full differential audit.
    db.close().unwrap();
    let db = Database::open_with_config(&path, config).unwrap();
    check_full_state(&db, &model, &format!("seed {seed} final"));
    for (name, mt) in &model.tables {
        if mt.live_count() > 0 {
            let predicate = random_leaf(&mut rng, mt.key_type);
            check_query(
                &db,
                &model,
                name,
                &predicate,
                &format!("seed {seed} final query"),
            );
        }
    }
    drop(db);
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn model_differential_seed_a() {
    run_seed(0xA11CE);
}

#[test]
fn model_differential_seed_b() {
    run_seed(0xB0B5EED);
}

/// The same differential stream on a deliberately starved 8-frame pool:
/// every fetch is an eviction decision, so a pool that ever evicts a pinned
/// frame, loses a dirty page, or corrupts its eviction queue under churn
/// diverges from the model immediately.
#[test]
fn model_differential_tiny_pool_every_policy() {
    run_seed_with(
        0x8F4A3E5,
        2 * OPS_PER_EPOCH + OPS_PER_EPOCH / 2,
        BufferPoolConfig {
            capacity: 8,
            ..Default::default()
        },
        false,
    );
}

#[test]
fn model_transactional_seed_a() {
    run_seed_txn(0x7AC7_10F5);
}

#[test]
fn model_transactional_seed_b() {
    run_seed_txn(0xDEED_5EED);
}

/// Extra transactional soak seed, run by the nightly CI job only
/// (`cargo test --test model -- --ignored`).
#[test]
#[ignore = "nightly: extra transactional soak seed"]
fn model_transactional_seed_nightly() {
    run_seed_txn(0x9_1DEA_F00D);
}

/// A word long enough that a pending-list record holds ≈ 20 bytes.
fn long_word(rng: &mut DetRng) -> String {
    let len = rng.gen_range(12usize..=24);
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(0u32..6) as u8))
        .collect()
}

/// The suffix tree's pending list under the differential model: one words
/// table with a suffix tree and a trie, DML in transactions that commit or
/// abort, and a checkpoint, close or crash at every epoch's end.  An abort
/// undoes a delete by re-inserting the same row id, which cancels the
/// tombstone the delete left on the list; a crash loses the list's pages
/// since the last checkpoint and the log refills it.  The words are long
/// enough that the list passes its page limit and merges several times.
#[test]
fn model_pending_list_crosses_its_limit() {
    const EPOCHS: usize = 12;
    const TXNS_PER_EPOCH: usize = 16;
    let seed = 0x5EED_0115;
    let path = temp_path(seed);
    let mut rng = DetRng::seed_from_u64(seed);
    let mut db = Database::create(&path).unwrap();
    db.create_table("words", KeyType::Varchar).unwrap();
    let base: Vec<String> = (0..500).map(|_| long_word(&mut rng)).collect();
    db.table("words")
        .unwrap()
        .insert_many(base.clone())
        .unwrap();
    let indexes = [("suffix", IndexSpec::SuffixTree), ("trie", IndexSpec::Trie)];
    for (name, spec) in indexes {
        db.create_index("words", name, spec).unwrap();
    }
    let mut model = Model::default();
    model.tables.insert(
        "words".into(),
        ModelTable {
            key_type: KeyType::Varchar,
            rows: base.into_iter().map(|w| Some(Datum::Text(w))).collect(),
            indexes: indexes.iter().map(|(n, _)| (n.to_string(), *n)).collect(),
        },
    );
    let merges = |db: &Database| {
        db.metrics()
            .get("index.words.suffix.pending_merges")
            .unwrap()
    };
    let (mut merged, mut aborted_deletes) = (0, 0);
    for epoch in 0..EPOCHS {
        for t in 0..TXNS_PER_EPOCH {
            let ctx = format!("epoch {epoch} txn {t}");
            let mut txn = db.begin().unwrap();
            let mut pending = Vec::new();
            for _ in 0..60 {
                let rows = model.tables["words"].rows.len() as u64;
                if rng.gen_range(0u32..10) < 7 {
                    let datum = Datum::Text(long_word(&mut rng));
                    let row = txn.insert("words", datum.clone()).unwrap();
                    assert_eq!(row, rows, "{ctx}: dense row ids");
                    model
                        .tables
                        .get_mut("words")
                        .unwrap()
                        .rows
                        .push(Some(datum));
                    pending.push(TxnStmt::Insert {
                        table: "words".into(),
                        row,
                    });
                } else {
                    let row = rng.gen_range(0..rows);
                    let old = model.tables.get_mut("words").unwrap().rows[row as usize].take();
                    assert_eq!(txn.delete("words", row).unwrap(), old.is_some(), "{ctx}");
                    if let Some(datum) = old {
                        pending.push(TxnStmt::Delete {
                            table: "words".into(),
                            row,
                            datum,
                        });
                    }
                }
            }
            if rng.gen_range(0u32..3) == 0 {
                aborted_deletes += pending
                    .iter()
                    .filter(|s| matches!(s, TxnStmt::Delete { .. }))
                    .count();
                txn.abort().unwrap();
                rollback_model(&mut model, pending);
            } else {
                txn.commit().unwrap();
            }
            let needle = long_word(&mut rng)[..rng.gen_range(1usize..4)].to_string();
            check_query(
                &db,
                &model,
                "words",
                &Predicate::str_substring(&needle),
                &ctx,
            );
        }
        merged += merges(&db);
        let ctx = format!("epoch {epoch}");
        if rng.gen_range(0u32..2) == 0 {
            db.checkpoint().unwrap();
        }
        if rng.gen_range(0u32..2) == 0 {
            drop(db);
        } else {
            db.close().unwrap();
        }
        db = Database::open(&path).unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
        check_full_state(&db, &model, &ctx);
        for needle in ["a", "fe", "bad", "cafe"] {
            check_query(
                &db,
                &model,
                "words",
                &Predicate::str_substring(needle),
                &ctx,
            );
        }
    }
    assert!(merged >= 3, "the list merged {merged} times");
    assert!(aborted_deletes > 0, "no abort re-inserted a deleted row");
    db.close().unwrap();
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}
