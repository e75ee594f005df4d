//! Crash-point recovery suite: every acknowledged write survives, no
//! unacknowledged write resurrects.
//!
//! These tests kill a durable [`Database`] at chosen points — dropped
//! without `close()`, data pages lost before their fsync, a checkpoint
//! aborted halfway, the log tail torn at *every byte offset* — then reopen
//! and check the recovered state is exactly the acknowledged-commit prefix:
//!
//! * **never lost**: a statement whose call returned `Ok` is present after
//!   reopen, and
//! * **never phantom**: a statement whose record did not fully reach the
//!   log is absent — a torn batch record restores none of the batch.
//!
//! The crash model: data pages live behind a [`FaultPager`] (a volatile
//! write cache that `crash()` clears, emulating the kernel page cache),
//! while the WAL writes its own files with its own fsyncs and is therefore
//! real. Dropping a `Database` without `close()` is itself a faithful
//! crash for data pages even without a `FaultPager` — the no-steal buffer
//! pool keeps every dirty page in memory between checkpoints, so the drop
//! loses them exactly as a power cut would.

use std::path::PathBuf;
use std::sync::Arc;

use spgist::catalog::WalConfig;
use spgist::prelude::*;
use spgist::storage::{FaultPager, PageId, SyncFault, WriteFault};

/// A scratch directory holding one database file plus its WAL segments.
struct TempDb {
    dir: PathBuf,
}

impl TempDb {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("spgist-crash-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDb { dir }
    }

    fn path(&self) -> PathBuf {
        self.dir.join("db.pages")
    }

    fn wal_prefix(&self) -> PathBuf {
        self.dir.join("db.pages.wal")
    }

    /// WAL segment files, oldest first.  The numeric-suffix filter keeps
    /// non-segment siblings (the `.ckpt` checkpoint journal) out.
    fn wal_segments(&self) -> Vec<PathBuf> {
        let mut segments: Vec<PathBuf> = std::fs::read_dir(&self.dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .and_then(|n| n.strip_prefix("db.pages.wal."))
                    .is_some_and(|suffix| {
                        !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit())
                    })
            })
            .collect();
        segments.sort();
        segments
    }

    fn last_segment(&self) -> PathBuf {
        self.wal_segments().pop().expect("a WAL segment exists")
    }

    /// Copies every file (db + segments) aside so a destructive reopen can
    /// be retried from the same crash image.
    fn snapshot(&self) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&self.dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        files
            .into_iter()
            .map(|p| {
                let bytes = std::fs::read(&p).unwrap();
                (p, bytes)
            })
            .collect()
    }

    /// Restores a snapshot, deleting any file the reopen created since.
    fn restore(&self, snapshot: &[(PathBuf, Vec<u8>)]) {
        for entry in std::fs::read_dir(&self.dir).unwrap() {
            std::fs::remove_file(entry.unwrap().path()).unwrap();
        }
        for (path, bytes) in snapshot {
            std::fs::write(path, bytes).unwrap();
        }
    }
}

impl Drop for TempDb {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn word(i: usize) -> String {
    format!("word-{i:04}")
}

/// Asserts the `words` table holds exactly `word(0)..word(n)` live.
fn assert_words(db: &Database, n: usize) {
    let table = db.table("words").expect("words table exists");
    assert_eq!(table.len(), n as u64, "live row count");
    for row in 0..n {
        assert_eq!(
            table.datum(row as u64).unwrap(),
            Datum::Text(word(row)),
            "row {row} content"
        );
    }
    // The sequential scan agrees with the row-at-a-time reads.
    let rows = db
        .query("words", Predicate::str_prefix("word-"))
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), n, "scan row count");
}

#[test]
fn drop_without_close_loses_nothing_acknowledged() {
    let tmp = TempDb::new("drop-no-close");
    let mut db = Database::create(tmp.path()).unwrap();
    db.create_table("words", KeyType::Varchar).unwrap();
    db.create_index("words", "words_trie", IndexSpec::Trie)
        .unwrap();
    {
        let table = db.table_handle("words").unwrap();
        for i in 0..100 {
            table.insert(word(i)).unwrap(); // acknowledged
        }
        for row in [3u64, 7, 50] {
            assert!(table.delete(row).unwrap());
        }
        // Pad the table with one bulk statement so the prefix probe below
        // is selective enough for the planner to pick the recovered index.
        let bulk: Vec<Datum> = (0..2900)
            .map(|i| Datum::Text(format!("zz-bulk-{i:05}")))
            .collect();
        table.insert_many(bulk).unwrap();
    }
    drop(db); // crash: no close(), no checkpoint — dirty pages are gone

    let db = Database::open(tmp.path()).unwrap();
    let table = db.table("words").unwrap();
    assert_eq!(table.len(), 2997);
    for row in 0..100u64 {
        let expected = if [3, 7, 50].contains(&row) {
            None
        } else {
            Some(Datum::Text(word(row as usize)))
        };
        assert_eq!(table.try_datum(row).unwrap(), expected, "row {row}");
    }
    assert_eq!(
        table.datum(2999).unwrap(),
        Datum::Text("zz-bulk-02899".to_string()),
        "batch tail recovered"
    );
    // The recovered index answers queries (and is actually chosen).
    let cursor = db.query("words", Predicate::str_prefix("word-00")).unwrap();
    assert!(cursor.source().scans_index("words_trie"));
    let mut rows = cursor.rows().unwrap();
    rows.sort_unstable();
    let expected: Vec<u64> = (0..100).filter(|r| ![3, 7, 50].contains(r)).collect();
    assert_eq!(rows, expected);
    db.close().unwrap();
}

/// The core prefix property, proven at *every byte*: truncate the log tail
/// at each offset in turn and check the reopened state is exactly the
/// records that fully fit below the cut — never one fewer (lost
/// acknowledged work), never one more (phantom resurrection).
#[test]
fn torn_log_tail_recovers_exactly_the_acknowledged_prefix() {
    const N: usize = 12;
    let tmp = TempDb::new("torn-tail");
    let mut db = Database::create(tmp.path()).unwrap();
    db.create_table("words", KeyType::Varchar).unwrap();

    // `boundaries[i]` = segment length once insert `i` is durable: the
    // record for insert `i` occupies bytes `boundaries[i-1]..boundaries[i]`.
    let segment = tmp.last_segment();
    let base = std::fs::metadata(&segment).unwrap().len();
    let mut boundaries = Vec::with_capacity(N);
    {
        let table = db.table_handle("words").unwrap();
        for i in 0..N {
            table.insert(word(i)).unwrap();
            boundaries.push(std::fs::metadata(&segment).unwrap().len());
        }
    }
    drop(db); // crash

    let crash_image = tmp.snapshot();
    let full = *boundaries.last().unwrap();
    assert!(base < full, "the log grew as inserts were acknowledged");

    for cut in base..=full {
        tmp.restore(&crash_image);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&segment)
            .unwrap();
        file.set_len(cut).unwrap();
        drop(file);

        let expected = boundaries.iter().filter(|&&b| b <= cut).count();
        let db = Database::open(tmp.path())
            .unwrap_or_else(|e| panic!("reopen failed at cut {cut}: {e}"));
        let table = db.table("words").unwrap();
        assert_eq!(
            table.len(),
            expected as u64,
            "cut {cut}: exactly the fully-logged prefix survives"
        );
        for row in 0..expected {
            assert_eq!(table.datum(row as u64).unwrap(), Datum::Text(word(row)));
        }
        assert_eq!(
            table.try_datum(expected as u64).unwrap(),
            None,
            "cut {cut}: no phantom row past the prefix"
        );
    }
}

/// A group commit covering several records must recover all-or-nothing.
/// The log seals every batch with a count + CRC record; this test builds a
/// two-record sealed batch on the log tail byte-for-byte, then tears it at
/// every offset — either both records come back or neither does, never the
/// first without the second (which is exactly what per-record framing
/// alone would resurrect).
#[test]
fn torn_group_commit_batch_drops_as_a_unit() {
    use spgist::storage::crc::crc32;

    // Batch-seal frame layout (see `spgist-wal`): zero length field, magic
    // "SPGS", record count, CRC over the batch's frame bytes, CRC over the
    // seal's own first 16 bytes.
    const SEAL_MAGIC: u32 = 0x5350_4753;
    const SEAL_BYTES: usize = 20;

    const SINGLES: usize = 3;
    let tmp = TempDb::new("torn-batch");
    let mut db = Database::create(tmp.path()).unwrap();
    db.create_table("words", KeyType::Varchar).unwrap();
    let segment = tmp.last_segment();
    let (before_batch, after_first);
    {
        let table = db.table_handle("words").unwrap();
        for i in 0..SINGLES {
            table.insert(word(i)).unwrap();
        }
        before_batch = std::fs::metadata(&segment).unwrap().len() as usize;
        table.insert(word(SINGLES)).unwrap();
        after_first = std::fs::metadata(&segment).unwrap().len() as usize;
        table.insert(word(SINGLES + 1)).unwrap();
    }
    drop(db); // crash

    // Each insert above flushed as its own sealed one-record batch.  Splice
    // the last two into a single two-record batch — the on-disk image of
    // one group commit covering both acknowledged rows.
    let bytes = std::fs::read(&segment).unwrap();
    let frame_a = &bytes[before_batch..after_first - SEAL_BYTES];
    let frame_b = &bytes[after_first..bytes.len() - SEAL_BYTES];
    let mut batch = Vec::new();
    batch.extend_from_slice(frame_a);
    batch.extend_from_slice(frame_b);
    let mut seal = [0u8; SEAL_BYTES];
    seal[0..4].copy_from_slice(&0u32.to_le_bytes());
    seal[4..8].copy_from_slice(&SEAL_MAGIC.to_le_bytes());
    seal[8..12].copy_from_slice(&2u32.to_le_bytes());
    seal[12..16].copy_from_slice(&crc32(&batch).to_le_bytes());
    let seal_crc = crc32(&seal[0..16]);
    seal[16..20].copy_from_slice(&seal_crc.to_le_bytes());
    let mut spliced = bytes[..before_batch].to_vec();
    spliced.extend_from_slice(&batch);
    spliced.extend_from_slice(&seal);
    std::fs::write(&segment, &spliced).unwrap();
    let crash_image = tmp.snapshot();

    // Intact: the synthesized batch seal verifies and both rows are back.
    let db = Database::open(tmp.path()).unwrap();
    assert_words(&db, SINGLES + 2);
    drop(db);

    // Torn at every byte inside the batch: recovery must yield all or
    // nothing — in particular, a cut that keeps record A's frame whole but
    // loses the seal must NOT resurrect A alone, because A's group commit
    // was never acknowledged.
    for cut in before_batch..spliced.len() {
        tmp.restore(&crash_image);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&segment)
            .unwrap();
        file.set_len(cut as u64).unwrap();
        drop(file);
        let db = Database::open(tmp.path())
            .unwrap_or_else(|e| panic!("reopen failed at cut {cut}: {e}"));
        let table = db.table("words").unwrap();
        assert_eq!(
            table.len(),
            SINGLES as u64,
            "cut {cut}: a torn group commit must drop as a unit, not a prefix"
        );
        drop(db);
    }

    // Bit rot inside the *first* record of the batch, seal and second
    // record intact: the batch CRC no longer vouches for its bytes, so the
    // whole batch is gone — not just the damaged record.
    tmp.restore(&crash_image);
    let mut rotted = spliced.clone();
    rotted[before_batch + 9] ^= 0xFF; // inside frame A's payload
    std::fs::write(&segment, &rotted).unwrap();
    let db = Database::open(tmp.path()).unwrap();
    assert_eq!(db.table("words").unwrap().len(), SINGLES as u64);
    db.close().unwrap();
}

#[test]
fn garbage_on_the_log_tail_is_discarded_not_fatal() {
    const N: usize = 8;
    let tmp = TempDb::new("garbage-tail");
    let mut db = Database::create(tmp.path()).unwrap();
    db.create_table("words", KeyType::Varchar).unwrap();
    {
        let table = db.table_handle("words").unwrap();
        for i in 0..N {
            table.insert(word(i)).unwrap();
        }
    }
    drop(db); // crash

    // A crash can leave preallocated junk past the last record — the log
    // must treat it as a torn tail, not corruption.
    let segment = tmp.last_segment();
    let mut bytes = std::fs::read(&segment).unwrap();
    bytes.extend_from_slice(&[0xDB; 100]);
    std::fs::write(&segment, &bytes).unwrap();

    let db = Database::open(tmp.path()).unwrap();
    assert_words(&db, N);
    db.close().unwrap();
}

#[test]
fn flipped_byte_in_the_last_record_drops_only_that_record() {
    const N: usize = 8;
    let tmp = TempDb::new("bitrot-tail");
    let mut db = Database::create(tmp.path()).unwrap();
    db.create_table("words", KeyType::Varchar).unwrap();
    let segment = tmp.last_segment();
    let before_last;
    {
        let table = db.table_handle("words").unwrap();
        for i in 0..N - 1 {
            table.insert(word(i)).unwrap();
        }
        before_last = std::fs::metadata(&segment).unwrap().len();
        table.insert(word(N - 1)).unwrap();
    }
    drop(db); // crash

    // Corrupt one byte inside the final record's payload: its CRC no
    // longer matches, so recovery must stop *before* it — the record was
    // never fully durable as far as the checksum can prove.
    let mut bytes = std::fs::read(&segment).unwrap();
    let target = before_last as usize + 9; // inside the len/crc/payload frame
    bytes[target] ^= 0xFF;
    std::fs::write(&segment, &bytes).unwrap();

    let db = Database::open(tmp.path()).unwrap();
    assert_words(&db, N - 1);
    db.close().unwrap();
}

#[test]
fn crash_before_data_page_sync_recovers_from_the_log() {
    let tmp = TempDb::new("pre-fsync");
    let fault = Arc::new(FaultPager::new(Arc::new(
        spgist::storage::FilePager::create(tmp.path()).unwrap(),
    )));
    let mut db = Database::create_with_pager(
        Arc::clone(&fault) as Arc<dyn Pager>,
        tmp.wal_prefix(),
        BufferPoolConfig::default(),
        WalConfig::default(),
    )
    .unwrap();
    db.create_table("words", KeyType::Varchar).unwrap(); // checkpointed + synced
    {
        let table = db.table_handle("words").unwrap();
        for i in 0..50 {
            table.insert(word(i)).unwrap(); // acknowledged via the WAL only
        }
    }
    // Power cut: every data-page write since the last successful sync is
    // lost. (With the no-steal pool there should be none in flight anyway
    // — the pages are dirty in the pool, not in the OS cache.)
    fault.crash();
    drop(db);

    // Reopen the *real* file: the data pages hold the post-DDL checkpoint,
    // everything else comes back through replay.
    let db = Database::open(tmp.path()).unwrap();
    assert_words(&db, 50);
    db.close().unwrap();
}

#[test]
fn crash_mid_checkpoint_recovers_the_previous_checkpoint_plus_log() {
    let tmp = TempDb::new("mid-checkpoint");
    let fault = Arc::new(FaultPager::new(Arc::new(
        spgist::storage::FilePager::create(tmp.path()).unwrap(),
    )));
    let mut db = Database::create_with_pager(
        Arc::clone(&fault) as Arc<dyn Pager>,
        tmp.wal_prefix(),
        BufferPoolConfig::default(),
        WalConfig::default(),
    )
    .unwrap();
    db.create_table("words", KeyType::Varchar).unwrap();
    {
        let table = db.table_handle("words").unwrap();
        for i in 0..20 {
            table.insert(word(i)).unwrap();
        }
    }
    db.checkpoint().unwrap(); // durable point: 20 rows in the image
    {
        let table = db.table_handle("words").unwrap();
        for i in 20..35 {
            table.insert(word(i)).unwrap(); // acknowledged, in the log only
        }
    }

    // The next checkpoint dies after one data-page write: the flush fails,
    // the error propagates, and nothing claims durability.
    fault.set_write_fault(WriteFault::FailAfter(1));
    assert!(
        db.checkpoint().is_err(),
        "a checkpoint that could not flush must report failure"
    );
    fault.crash(); // and then the machine dies too
    drop(db);

    // The half-written checkpoint never reached the platter; recovery
    // starts from the previous one and replays the 15 logged inserts.
    let db = Database::open(tmp.path()).unwrap();
    assert_words(&db, 35);
    db.close().unwrap();
}

#[test]
fn insert_many_batch_recovers_atomically() {
    const SINGLES: usize = 3;
    const BATCH: usize = 10;
    let tmp = TempDb::new("batch-atomic");
    let mut db = Database::create(tmp.path()).unwrap();
    db.create_table("words", KeyType::Varchar).unwrap();
    let segment = tmp.last_segment();
    let before_batch;
    {
        let table = db.table_handle("words").unwrap();
        for i in 0..SINGLES {
            table.insert(word(i)).unwrap();
        }
        before_batch = std::fs::metadata(&segment).unwrap().len();
        let batch: Vec<Datum> = (SINGLES..SINGLES + BATCH)
            .map(|i| Datum::Text(word(i)))
            .collect();
        table.insert_many(batch).unwrap(); // one record, acknowledged once
    }
    drop(db); // crash
    let after_batch = std::fs::metadata(&segment).unwrap().len();
    let crash_image = tmp.snapshot();

    // Intact log: the whole batch is back.
    let db = Database::open(tmp.path()).unwrap();
    assert_words(&db, SINGLES + BATCH);
    drop(db);

    // Log torn in the middle of the batch record: *none* of the batch
    // comes back — a multi-row statement is atomic under recovery, never
    // a partial resurrection.
    tmp.restore(&crash_image);
    let cut = (before_batch + after_batch) / 2;
    assert!(before_batch < cut && cut < after_batch);
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .unwrap();
    file.set_len(cut).unwrap();
    drop(file);

    let db = Database::open(tmp.path()).unwrap();
    assert_words(&db, SINGLES);
    db.close().unwrap();
}

#[test]
fn ddl_survives_crash_without_close() {
    let tmp = TempDb::new("ddl");
    let mut db = Database::create(tmp.path()).unwrap();
    db.create_table("words", KeyType::Varchar).unwrap();
    {
        let table = db.table_handle("words").unwrap();
        for i in 0..5 {
            table.insert(word(i)).unwrap();
        }
    }
    db.create_index("words", "words_trie", IndexSpec::Trie)
        .unwrap();
    db.create_table("scratch", KeyType::Varchar).unwrap();
    {
        let words = db.table_handle("words").unwrap();
        let scratch = db.table_handle("scratch").unwrap();
        for i in 5..8 {
            words.insert(word(i)).unwrap();
        }
        scratch.insert("ephemeral").unwrap();
    }
    assert!(db.drop_table("scratch").unwrap());
    drop(db); // crash

    let mut db = Database::open(tmp.path()).unwrap();
    assert!(db.table("scratch").is_none(), "dropped table stays dropped");
    assert_words(&db, 8);
    let table = db.table("words").unwrap();
    assert_eq!(table.index_names(), vec!["words_trie"]);
    // (The planner may still prefer a seq scan at 8 rows — index *usage*
    // after recovery is proven in drop_without_close_loses_nothing above.)
    let cursor = db.query("words", Predicate::str_prefix("word-")).unwrap();
    assert_eq!(cursor.rows().unwrap().len(), 8);

    // Index DDL in the other direction survives a crash too.
    assert!(db.drop_index("words", "words_trie").unwrap());
    drop(db); // crash

    let db = Database::open(tmp.path()).unwrap();
    let table = db.table("words").unwrap();
    assert!(
        table.index_names().is_empty(),
        "dropped index stays dropped"
    );
    assert_words(&db, 8);
    db.close().unwrap();
}

/// The realistic power-cut model: the kernel had persisted an *arbitrary
/// subset* of the checkpoint's in-place page writes when the power died —
/// not the all-or-nothing cache flush `crash()` emulates.  Mixed-epoch
/// data pages under the old catalog are unrecoverable by logical replay
/// alone; the pre-image journal must roll every touched page back to the
/// previous checkpoint before replay starts.
#[test]
fn power_cut_persisting_a_subset_of_a_checkpoint_rolls_back() {
    let tmp = TempDb::new("subset-data");
    let fault = Arc::new(FaultPager::new(Arc::new(
        spgist::storage::FilePager::create(tmp.path()).unwrap(),
    )));
    let mut db = Database::create_with_pager(
        Arc::clone(&fault) as Arc<dyn Pager>,
        tmp.wal_prefix(),
        BufferPoolConfig::default(),
        WalConfig::default(),
    )
    .unwrap();
    db.create_table("words", KeyType::Varchar).unwrap();
    db.create_index("words", "words_trie", IndexSpec::Trie)
        .unwrap();
    {
        let table = db.table_handle("words").unwrap();
        for i in 0..30 {
            table.insert(word(i)).unwrap();
        }
    }
    db.checkpoint().unwrap(); // durable point: 30 rows in the image
    {
        let table = db.table_handle("words").unwrap();
        for i in 30..60 {
            table.insert(word(i)).unwrap(); // acknowledged, in the log only
        }
        for row in [2u64, 11, 29] {
            assert!(table.delete(row).unwrap()); // in-place page mutations
        }
    }

    // The next checkpoint's data sync never completes — but the power cut
    // lets half its page writes reach the platter anyway.  (Without the
    // pre-image journal this state is unrecoverable: replaying the logged
    // statements over mixed-epoch pages corrupts, it does not heal.)
    fault.set_sync_fault(SyncFault::Fail);
    assert!(db.checkpoint().is_err());
    fault.crash_keeping(|id| id % 2 == 0).unwrap();
    drop(db);

    let db = Database::open(tmp.path()).unwrap();
    let table = db.table("words").unwrap();
    assert_eq!(table.len(), 57);
    for row in 0..60u64 {
        let expected = if [2, 11, 29].contains(&row) {
            None
        } else {
            Some(Datum::Text(word(row as usize)))
        };
        assert_eq!(table.try_datum(row).unwrap(), expected, "row {row}");
    }
    db.close().unwrap();
}

/// The ordering hazard from the other side: the data sync *succeeds*, the
/// catalog sync does not, and the crash persists only the catalog chain's
/// *root* page — a catalog whose head claims `checkpoint_lsn = cut` spliced
/// onto stale continuation pages, the nightmare the reviewer's single-sync
/// analysis predicted.  Rollback must restore both the old catalog and the
/// old data pages (the data sync overwrote them in place), after which the
/// un-pruned log replays everything acknowledged.
#[test]
fn torn_catalog_write_rolls_back_to_the_previous_checkpoint() {
    let tmp = TempDb::new("torn-catalog");
    let fault = Arc::new(FaultPager::new(Arc::new(
        spgist::storage::FilePager::create(tmp.path()).unwrap(),
    )));
    let mut db = Database::create_with_pager(
        Arc::clone(&fault) as Arc<dyn Pager>,
        tmp.wal_prefix(),
        BufferPoolConfig::default(),
        WalConfig::default(),
    )
    .unwrap();
    db.create_table("words", KeyType::Varchar).unwrap();
    {
        let table = db.table_handle("words").unwrap();
        // Enough rows that the catalog's row directory spans multiple
        // chain pages — a torn chain write becomes possible at all.
        for i in 0..3000 {
            table.insert(word(i)).unwrap();
        }
    }
    db.checkpoint().unwrap();
    {
        let table = db.table_handle("words").unwrap();
        for i in 3000..3040 {
            table.insert(word(i)).unwrap();
        }
    }

    // Checkpoint sync #1 (data pages) succeeds, sync #2 (catalog) fails:
    // the cache now holds exactly the new catalog's chain writes, and the
    // crash persists only the chain root (logical page 0).
    fault.set_sync_fault(SyncFault::FailAfter(1));
    assert!(db.checkpoint().is_err());
    fault.crash_keeping(|id| id == 0).unwrap();
    drop(db);

    let db = Database::open(tmp.path()).unwrap();
    assert_words(&db, 3040);
    db.close().unwrap();
}

/// After a WAL flusher failure the in-memory state may be ahead of stable
/// storage with no way to close the gap, so the database fails fast — DML
/// *and* queries are rejected — instead of serving rows whose durability
/// is unknown.  Reopening recovers the acknowledged state.
#[test]
fn wal_poison_fails_dml_and_queries_until_reopen() {
    let tmp = TempDb::new("poison");
    let mut db = Database::create(tmp.path()).unwrap();
    db.create_table("words", KeyType::Varchar).unwrap();
    {
        let table = db.table_handle("words").unwrap();
        for i in 0..10 {
            table.insert(word(i)).unwrap(); // acknowledged
        }
        db.fail_wal_for_test("injected flusher failure");
        assert!(table.insert(word(10)).is_err(), "DML is rejected");
        assert!(
            db.query("words", Predicate::str_prefix("word-")).is_err(),
            "queries are rejected too: visible rows may not be durable"
        );
    }
    drop(db); // close() would fail as well — a poisoned log cannot rotate

    let db = Database::open(tmp.path()).unwrap();
    assert_words(&db, 10);
    db.close().unwrap();
}

/// Checkpoints racing DML through shared table handles: the checkpoint
/// quiesces writers (takes every table's DML lock), so no flushed image
/// can contain half a statement.  Every acknowledged row must survive the
/// crash, whichever side of whichever checkpoint cut it landed on.
#[test]
fn checkpoint_quiesces_concurrent_writers() {
    const THREADS: usize = 4;
    const PER: usize = 50;
    let tmp = TempDb::new("concurrent-ckpt");
    let mut db = Database::create(tmp.path()).unwrap();
    db.create_table("words", KeyType::Varchar).unwrap();
    db.create_index("words", "words_trie", IndexSpec::Trie)
        .unwrap();
    let handles: Vec<_> = (0..THREADS)
        .map(|_| db.table_handle("words").unwrap())
        .collect();
    std::thread::scope(|scope| {
        for (t, table) in handles.into_iter().enumerate() {
            scope.spawn(move || {
                for i in 0..PER {
                    table.insert(format!("w{t}-{i:04}")).unwrap();
                }
            });
        }
        for _ in 0..20 {
            db.checkpoint().unwrap();
        }
    });
    drop(db); // crash: the rows live in checkpoint images + the log only

    let db = Database::open(tmp.path()).unwrap();
    let table = db.table("words").unwrap();
    assert_eq!(table.len(), (THREADS * PER) as u64);
    for t in 0..THREADS {
        let rows = db
            .query("words", Predicate::str_prefix(&format!("w{t}-")))
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(rows.len(), PER, "every acknowledged row of thread {t}");
    }
    db.close().unwrap();
}

/// A multi-statement transaction's commit point is the durable `CommitTxn`
/// record: tear the log at **every byte** from just before the
/// transaction's first record to its end, and the reopened state must be
/// all-or-nothing — the full pre-transaction state at every cut short of
/// the final sealed batch (the one carrying `CommitTxn`), the full
/// post-transaction state only with the log intact.  Never a prefix of the
/// transaction's statements.
#[test]
fn torn_tail_across_a_commit_boundary_is_all_or_nothing() {
    const BASE: usize = 6;
    let tmp = TempDb::new("torn-txn");
    let mut db = Database::create(tmp.path()).unwrap();
    db.create_table("words", KeyType::Varchar).unwrap();
    {
        let table = db.table_handle("words").unwrap();
        for i in 0..BASE {
            table.insert(word(i)).unwrap();
        }
    }
    let segment = tmp.last_segment();
    let before_txn = std::fs::metadata(&segment).unwrap().len();
    {
        let mut txn = db.begin().unwrap();
        txn.insert("words", word(BASE)).unwrap();
        txn.insert("words", word(BASE + 1)).unwrap();
        assert!(txn.delete("words", 2).unwrap());
        txn.insert("words", word(BASE + 2)).unwrap();
        txn.commit().unwrap(); // the one durability point of all four statements
    }
    drop(db); // crash
    let full = std::fs::metadata(&segment).unwrap().len();
    assert!(before_txn < full, "the transaction reached the log");
    let crash_image = tmp.snapshot();

    let check = |db: &Database, committed: bool, ctx: &str| {
        let table = db.table("words").unwrap();
        if committed {
            assert_eq!(table.len(), (BASE + 2) as u64, "{ctx}: committed state");
            assert_eq!(table.try_datum(2).unwrap(), None, "{ctx}: delete applied");
            for row in BASE..BASE + 3 {
                assert_eq!(
                    table.datum(row as u64).unwrap(),
                    Datum::Text(word(row)),
                    "{ctx}: txn insert present"
                );
            }
        } else {
            // The exact pre-transaction state: every base row live
            // (including row 2 — its delete must not leak through), no txn
            // row visible anywhere.
            assert_eq!(table.len(), BASE as u64, "{ctx}: pre-txn state");
            for row in 0..BASE {
                assert_eq!(
                    table.datum(row as u64).unwrap(),
                    Datum::Text(word(row)),
                    "{ctx}: base row intact"
                );
            }
            let rows = db
                .query("words", Predicate::str_prefix("word-"))
                .unwrap()
                .rows()
                .unwrap();
            assert_eq!(rows.len(), BASE, "{ctx}: no phantom rows in scans");
        }
    };

    // Intact image: the whole transaction is in.
    let db = Database::open(tmp.path()).unwrap();
    check(&db, true, "intact");
    drop(db);

    // Every shorter cut loses the sealed batch holding `CommitTxn`, so the
    // whole transaction must drop out — whichever of its statement records
    // happen to sit whole below the cut.
    for cut in before_txn..full {
        tmp.restore(&crash_image);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&segment)
            .unwrap();
        file.set_len(cut).unwrap();
        drop(file);
        let db = Database::open(tmp.path())
            .unwrap_or_else(|e| panic!("reopen failed at cut {cut}: {e}"));
        check(&db, false, &format!("cut {cut}"));
        drop(db);
    }
}

/// The mixed kill-point: one transaction committed, a second still open
/// when the process dies.  Recovery must keep every statement of the winner
/// and none of the loser — including the loser's index entries — while
/// row ids stay aligned across both.
#[test]
fn open_txn_at_kill_point_drops_while_committed_txn_survives() {
    let tmp = TempDb::new("mixed-txn");
    let mut db = Database::create(tmp.path()).unwrap();
    db.create_table("words", KeyType::Varchar).unwrap();
    db.create_index("words", "words_trie", IndexSpec::Trie)
        .unwrap();
    {
        let table = db.table_handle("words").unwrap();
        for i in 0..4 {
            table.insert(word(i)).unwrap(); // rows 0..4
        }
    }
    {
        let mut winner = db.begin().unwrap();
        assert_eq!(winner.insert("words", "winner-a").unwrap(), 4);
        assert!(winner.delete("words", 1).unwrap());
        assert_eq!(winner.insert("words", "winner-b").unwrap(), 5);
        winner.commit().unwrap();
    }
    {
        let mut loser = db.begin().unwrap();
        assert_eq!(loser.insert("words", "loser-a").unwrap(), 6);
        assert!(loser.delete("words", 0).unwrap());
        assert_eq!(loser.insert("words", "loser-b").unwrap(), 7);
        loser.crash_for_test(); // still open when the lights go out
    }
    drop(db); // crash

    let db = Database::open(tmp.path()).unwrap();
    let table = db.table("words").unwrap();
    assert_eq!(
        table.len(),
        5,
        "4 base - 1 winner delete + 2 winner inserts"
    );
    assert_eq!(table.try_datum(1).unwrap(), None, "winner delete applied");
    assert_eq!(
        table.datum(0).unwrap(),
        Datum::Text(word(0)),
        "loser delete dropped: the row is still live"
    );
    assert_eq!(table.datum(4).unwrap(), Datum::Text("winner-a".into()));
    assert_eq!(table.datum(5).unwrap(), Datum::Text("winner-b".into()));
    assert_eq!(table.try_datum(6).unwrap(), None, "loser insert dropped");
    assert_eq!(table.try_datum(7).unwrap(), None, "loser insert dropped");
    // No phantom index entries: the trie sees winner rows, never loser rows.
    let rows = db
        .query("words", Predicate::str_prefix("winner-"))
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rows.len(), 2, "winner rows indexed");
    assert!(
        db.query("words", Predicate::str_prefix("loser-"))
            .unwrap()
            .rows()
            .unwrap()
            .is_empty(),
        "no phantom index entries for the loser"
    );
    // Row ids burned by the loser stay burned after recovery.
    assert_eq!(table.insert("after").unwrap(), 8);
    db.close().unwrap();
}

/// The transactional subset-sweep (ISSUE 9 satellite): a committed
/// transaction, a failed checkpoint whose page writes sit un-synced in the
/// kernel cache, an *open* transaction, and then a power cut that persists
/// an arbitrary subset of those cached writes.  For **every** subset the
/// reopened database must show all of the committed transaction and none
/// of the open one — the pre-image journal rolls the kept pages back, and
/// the log replays the winner.
///
/// The scenario is fully deterministic, so it is re-run from scratch per
/// subset; the first run enumerates the cached page ids.
#[test]
fn every_persisted_subset_of_a_torn_checkpoint_preserves_txn_atomicity() {
    fn scenario(keep: &dyn Fn(PageId) -> bool) -> Vec<PageId> {
        let tmp = TempDb::new("txn-subset");
        let fault = Arc::new(FaultPager::new(Arc::new(
            spgist::storage::FilePager::create(tmp.path()).unwrap(),
        )));
        let mut db = Database::create_with_pager(
            Arc::clone(&fault) as Arc<dyn Pager>,
            tmp.wal_prefix(),
            BufferPoolConfig::default(),
            WalConfig::default(),
        )
        .unwrap();
        db.create_table("words", KeyType::Varchar).unwrap();
        {
            let table = db.table_handle("words").unwrap();
            for i in 0..10 {
                table.insert(word(i)).unwrap();
            }
        }
        db.checkpoint().unwrap(); // durable base: 10 rows in the image
        {
            let mut txn = db.begin().unwrap();
            for i in 10..15 {
                txn.insert("words", word(i)).unwrap();
            }
            assert!(txn.delete("words", 2).unwrap());
            txn.commit().unwrap();
        }
        // The next checkpoint flushes the committed transaction's pages but
        // its data sync never completes — those writes are now cached,
        // un-synced, exactly what the power cut below scatters.
        fault.set_sync_fault(SyncFault::Fail);
        assert!(db.checkpoint().is_err());
        fault.set_sync_fault(SyncFault::None);
        let cached = fault.cached_page_ids();
        {
            // An open transaction dies with the machine.  Its pages stay in
            // the no-steal pool (never written to the pager), so no subset
            // can leak them — but its log records land, and recovery must
            // drop them.
            let mut txn = db.begin().unwrap();
            txn.insert("words", "open-a").unwrap();
            txn.insert("words", "open-b").unwrap();
            txn.crash_for_test();
        }
        fault.crash_keeping(keep).unwrap();
        drop(db);

        let db = Database::open(tmp.path()).unwrap();
        let table = db.table("words").unwrap();
        assert_eq!(table.len(), 14, "10 base - 1 delete + 5 committed");
        for row in 0..15u64 {
            let expected = if row == 2 {
                None
            } else {
                Some(Datum::Text(word(row as usize)))
            };
            assert_eq!(table.try_datum(row).unwrap(), expected, "row {row}");
        }
        assert_eq!(table.try_datum(15).unwrap(), None, "open txn row dropped");
        assert_eq!(table.try_datum(16).unwrap(), None, "open txn row dropped");
        db.close().unwrap();
        cached
    }

    // Probe run: learn the cached page ids (and prove the losing-all case).
    let ids = scenario(&|_| false);
    assert!(!ids.is_empty(), "the torn checkpoint left cached writes");

    // Every subset if the set is small, otherwise a structured sweep:
    // empty, full, every singleton, every leave-one-out, odds and evens.
    let subsets: Vec<Vec<PageId>> = if ids.len() <= 6 {
        (0..1u32 << ids.len())
            .map(|mask| {
                ids.iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &id)| id)
                    .collect()
            })
            .collect()
    } else {
        let mut subsets = vec![Vec::new(), ids.clone()];
        for &id in &ids {
            subsets.push(vec![id]);
            subsets.push(ids.iter().copied().filter(|&o| o != id).collect());
        }
        subsets.push(ids.iter().copied().filter(|id| id % 2 == 0).collect());
        subsets.push(ids.iter().copied().filter(|id| id % 2 == 1).collect());
        subsets
    };
    for subset in subsets {
        let set: std::collections::HashSet<PageId> = subset.iter().copied().collect();
        let ids_now = scenario(&|id| set.contains(&id));
        assert_eq!(ids_now, ids, "the scenario is deterministic");
    }
}

/// The incremental-checkpoint subset sweep: two tables are made durable by
/// a full checkpoint, then only one is mutated, so the next checkpoint
/// writes just that table's dirty chunks plus the root — far fewer pages
/// than a full catalog rewrite.  That incremental checkpoint is torn (its
/// data sync fails, leaving its page writes cached, un-synced) and a power
/// cut persists an arbitrary subset of the cached writes.  For **every**
/// subset the reopened database must show the full acknowledged state: the
/// pre-image journal rolls partly-overwritten chunks back to the previous
/// checkpoint and the log replays the mutations — including on subsets
/// where the new root landed but some of its chunk segments did not.
#[test]
fn every_persisted_subset_of_a_torn_incremental_checkpoint_recovers() {
    fn scenario(keep: &dyn Fn(PageId) -> bool) -> Vec<PageId> {
        let tmp = TempDb::new("incr-subset");
        let fault = Arc::new(FaultPager::new(Arc::new(
            spgist::storage::FilePager::create(tmp.path()).unwrap(),
        )));
        let mut db = Database::create_with_pager(
            Arc::clone(&fault) as Arc<dyn Pager>,
            tmp.wal_prefix(),
            BufferPoolConfig::default(),
            WalConfig::default(),
        )
        .unwrap();
        db.create_table("hot", KeyType::Varchar).unwrap();
        db.create_table("cold", KeyType::Varchar).unwrap();
        {
            let hot = db.table_handle("hot").unwrap();
            let cold = db.table_handle("cold").unwrap();
            for i in 0..40 {
                hot.insert(word(i)).unwrap();
                cold.insert(word(i)).unwrap();
            }
        }
        db.checkpoint().unwrap(); // durable base: both tables in the image
        {
            // Mutate only `hot`; `cold` stays clean, so the torn checkpoint
            // below is genuinely incremental.
            let hot = db.table_handle("hot").unwrap();
            assert!(hot.delete(3).unwrap());
            for i in 40..45 {
                hot.insert(word(i)).unwrap();
            }
        }
        fault.set_sync_fault(SyncFault::Fail);
        assert!(db.checkpoint().is_err());
        fault.set_sync_fault(SyncFault::None);
        let cached = fault.cached_page_ids();
        fault.crash_keeping(keep).unwrap();
        drop(db);

        let db = Database::open(tmp.path()).unwrap();
        let hot = db.table("hot").unwrap();
        assert_eq!(hot.len(), 44, "40 base - 1 delete + 5 inserts");
        for row in 0..45u64 {
            let expected = if row == 3 {
                None
            } else {
                Some(Datum::Text(word(row as usize)))
            };
            assert_eq!(hot.try_datum(row).unwrap(), expected, "hot row {row}");
        }
        let cold = db.table("cold").unwrap();
        assert_eq!(cold.len(), 40, "untouched table intact");
        for row in 0..40u64 {
            assert_eq!(
                cold.datum(row).unwrap(),
                Datum::Text(word(row as usize)),
                "cold row {row}"
            );
        }
        db.close().unwrap();
        cached
    }

    // Probe run: learn the cached page ids (and prove the losing-all case).
    let ids = scenario(&|_| false);
    assert!(
        !ids.is_empty(),
        "the torn incremental checkpoint left cached writes"
    );

    // Every subset if the set is small, otherwise a structured sweep:
    // empty, full, every singleton, every leave-one-out, odds and evens.
    let subsets: Vec<Vec<PageId>> = if ids.len() <= 6 {
        (0..1u32 << ids.len())
            .map(|mask| {
                ids.iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &id)| id)
                    .collect()
            })
            .collect()
    } else {
        let mut subsets = vec![Vec::new(), ids.clone()];
        for &id in &ids {
            subsets.push(vec![id]);
            subsets.push(ids.iter().copied().filter(|&o| o != id).collect());
        }
        subsets.push(ids.iter().copied().filter(|id| id % 2 == 0).collect());
        subsets.push(ids.iter().copied().filter(|id| id % 2 == 1).collect());
        subsets
    };
    for subset in subsets {
        let set: std::collections::HashSet<PageId> = subset.iter().copied().collect();
        let ids_now = scenario(&|id| set.contains(&id));
        assert_eq!(ids_now, ids, "the scenario is deterministic");
    }
}

/// Pages allocated since the last completed checkpoint need no pre-image —
/// that checkpoint cannot reference them — so the checkpoint that lands a
/// bulk load and a fresh index journals a few catalog pages and the tail
/// of the old heap, not the hundreds of new pages it flushes.  And leaving
/// them out is safe: whichever subset of that checkpoint's writes a power
/// cut persists, reopen recovers the previous checkpoint plus the log.
#[test]
fn freshly_allocated_pages_are_flushed_but_never_journaled() {
    const BASE: usize = 50;
    const LOADED: usize = 12_000;
    /// Base rows under a checkpoint, then the bulk load in the log only.
    fn loaded(tmp: &TempDb, pager: Arc<dyn Pager>) -> Database {
        let mut db = Database::create_with_pager(
            pager,
            tmp.wal_prefix(),
            BufferPoolConfig::default(),
            WalConfig::default(),
        )
        .unwrap();
        db.create_table("words", KeyType::Varchar).unwrap();
        let table = db.table_handle("words").unwrap();
        table
            .insert_many((0..BASE).map(|i| Datum::Text(word(i))))
            .unwrap();
        drop(table);
        db.checkpoint().unwrap();
        let table = db.table_handle("words").unwrap();
        table
            .insert_many((BASE..LOADED).map(|i| Datum::Text(word(i))))
            .unwrap();
        drop(table);
        db
    }

    // What the checkpoint costs when it goes through.
    let tmp = TempDb::new("fresh-cost");
    let mut db = loaded(
        &tmp,
        Arc::new(spgist::storage::FilePager::create(tmp.path()).unwrap()),
    );
    let before = db.checkpoint_stats();
    db.create_index("words", "words_suffix", IndexSpec::SuffixTree)
        .unwrap();
    db.checkpoint().unwrap();
    let cost = db.checkpoint_stats().delta_since(&before);
    assert!(
        cost.data_pages_flushed >= 200,
        "the load and the index are hundreds of pages: {cost:?}"
    );
    assert!(
        cost.journal_bytes < 16 * 8192,
        "of which only the old ones are journaled: {cost:?}"
    );
    drop(db);

    // The same checkpoint, dying at its data sync with `keep`'s share of
    // its page writes on the platter.
    fn scenario(keep: &dyn Fn(PageId) -> bool) -> Vec<PageId> {
        let tmp = TempDb::new("fresh-subset");
        let fault = Arc::new(FaultPager::new(Arc::new(
            spgist::storage::FilePager::create(tmp.path()).unwrap(),
        )));
        let mut db = loaded(&tmp, Arc::clone(&fault) as Arc<dyn Pager>);
        fault.set_sync_fault(SyncFault::Fail);
        assert!(db
            .create_index("words", "words_suffix", IndexSpec::SuffixTree)
            .is_err());
        fault.set_sync_fault(SyncFault::None);
        let cached = fault.cached_page_ids();
        fault.crash_keeping(keep).unwrap();
        drop(db);

        let mut db = Database::open(tmp.path()).unwrap();
        assert_words(&db, LOADED);
        assert!(db.table("words").unwrap().index_names().is_empty());
        // The recovered pages carry a working index.
        db.create_index("words", "words_suffix", IndexSpec::SuffixTree)
            .unwrap();
        let hits = db
            .query("words", Predicate::str_substring("-0042"))
            .unwrap()
            .rows()
            .unwrap();
        assert_eq!(hits.len(), 1);
        db.close().unwrap();
        cached
    }
    let ids = scenario(&|_| false);
    assert!(ids.len() >= 200, "hundreds of torn writes: {}", ids.len());
    let half = ids[ids.len() / 2];
    let sweeps: [&dyn Fn(PageId) -> bool; 6] = [
        &|_| true,
        &|id| id % 2 == 0,
        &|id| id % 2 == 1,
        &|id| id < half,
        &|id| id >= half,
        &|id| id.wrapping_mul(0x9E37_79B9) >> 29 == 0,
    ];
    for keep in sweeps {
        assert_eq!(scenario(keep), ids, "the scenario is deterministic");
    }
}

/// Recovery must converge: reopening a recovered database replays nothing
/// new, and repeated crash/reopen cycles do not accumulate log segments.
#[test]
fn recovery_is_stable_across_repeated_crashes() {
    let tmp = TempDb::new("stable");
    let mut db = Database::create(tmp.path()).unwrap();
    db.create_table("words", KeyType::Varchar).unwrap();
    let mut n = 0;
    for _round in 0..5 {
        {
            let table = db.table_handle("words").unwrap();
            for _ in 0..7 {
                table.insert(word(n)).unwrap();
                n += 1;
            }
        }
        drop(db); // crash every round, never a clean close
        db = Database::open(tmp.path()).unwrap();
        assert_words(&db, n);
    }
    assert!(
        tmp.wal_segments().len() <= 2,
        "recovery checkpoints fold the log instead of growing it: {:?}",
        tmp.wal_segments()
    );
    db.close().unwrap();
}

/// Builds the crash image the two replayed-delete tests doctor: rows 0..3
/// inserted and row 2 deleted, every statement its own sealed one-record
/// batch on the last log segment.  Returns the segment's bytes split at the
/// statement boundaries: `(through Insert(1), Insert(2), Delete(2))`.
fn log_ending_in_a_delete(tmp: &TempDb) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let mut db = Database::create(tmp.path()).unwrap();
    db.create_table("words", KeyType::Varchar).unwrap();
    let segment = tmp.last_segment();
    let len = || std::fs::metadata(&segment).unwrap().len() as usize;
    let table = db.table_handle("words").unwrap();
    table.insert(word(0)).unwrap();
    table.insert(word(1)).unwrap();
    let before_insert = len();
    table.insert(word(2)).unwrap();
    let before_delete = len();
    assert!(table.delete(2).unwrap());
    drop(table);
    drop(db); // crash
    let bytes = std::fs::read(&segment).unwrap();
    (
        bytes[..before_insert].to_vec(),
        bytes[before_insert..before_delete].to_vec(),
        bytes[before_delete..].to_vec(),
    )
}

/// A logged delete always names an allocated row-directory slot: a live
/// delete of an unknown row returns before logging, and a loser's inserts
/// still allocate (dead) slots.  So a committed `Delete` whose row id is
/// past the end of the directory means the log and the checkpoint disagree
/// — recovery must stop with `Corrupt`, as it does for an insert gap,
/// rather than silently skip the record.
#[test]
fn replayed_delete_past_the_row_directory_is_corrupt() {
    let tmp = TempDb::new("delete-gap");
    let (head, _insert_2, delete_2) = log_ending_in_a_delete(&tmp);
    // Cut the insert of row 2 out of the log: Delete(2) now names a row id
    // the two-slot directory never allocated.
    let mut doctored = head;
    doctored.extend_from_slice(&delete_2);
    std::fs::write(tmp.last_segment(), &doctored).unwrap();
    match Database::open(tmp.path()) {
        Err(spgist::storage::StorageError::Corrupt(msg)) => {
            assert!(msg.contains("deletes row 2"), "unexpected message: {msg}")
        }
        other => panic!("a delete past the row directory must fail Corrupt, got {other:?}"),
    }
}

/// The idempotent half of the same rule: a committed `Delete` of a slot
/// that is allocated but already dead (the checkpoint image, or an earlier
/// record, already reflects it) replays as a no-op.
#[test]
fn replayed_delete_of_a_dead_slot_is_a_no_op() {
    let tmp = TempDb::new("delete-dead");
    let (head, insert_2, delete_2) = log_ending_in_a_delete(&tmp);
    // Append the Delete(2) batch a second time: the replay meets row 2
    // already dead.
    let mut doctored = head;
    doctored.extend_from_slice(&insert_2);
    doctored.extend_from_slice(&delete_2);
    doctored.extend_from_slice(&delete_2);
    std::fs::write(tmp.last_segment(), &doctored).unwrap();
    let db = Database::open(tmp.path()).unwrap();
    assert_words(&db, 2);
    let table = db.table("words").unwrap();
    assert_eq!(table.try_datum(2).unwrap(), None, "row 2 stays deleted");
    assert_eq!(
        table.insert(word(3)).unwrap(),
        3,
        "its slot stays allocated"
    );
}
