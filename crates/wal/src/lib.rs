//! Write-ahead logging with group commit.
//!
//! The paper's SP-GiST trees live inside PostgreSQL and inherit its WAL:
//! an acknowledged `INSERT` survives a crash because its redo record was
//! fsynced before the acknowledgment, and recovery replays the log over the
//! last checkpoint.  This crate gives the workspace's executor the same
//! property from scratch:
//!
//! * [`record`] — **logical redo records** ([`WalRecord`]): table-level
//!   `INSERT` / `DELETE` / batch / DDL statements, re-executable because the
//!   executor assigns row ids deterministically, plus (since v3 segments)
//!   transaction control records — `BeginTxn`/`CommitTxn`/`AbortTxn` — and a
//!   [`TxnId`] on every DML record so recovery can drop loser transactions,
//! * [`log`] — the **append-only segmented log** ([`Wal`]): per-record
//!   CRC-32 framing, torn-tail detection on open, checkpoint-driven
//!   rotation ([`Wal::rotate`]) and truncation ([`Wal::prune`]),
//! * group commit: writers [`Wal::submit`] and then [`Wal::wait_durable`]
//!   while a dedicated flusher thread batches one `fsync` per group — the
//!   one commit protocol: everything that queued up behind the sync in
//!   flight rides the next one.
//!
//! Record and batch-seal checksums use `spgist_storage::crc::crc32`, the
//! same dependency-free CRC-32 the checkpoint journal uses.
//!
//! The catalog layer (`spgist-catalog`) owns the integration: it logs
//! before acknowledging DML, replays surviving records on open, and turns
//! `checkpoint()` into the log-truncation point.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod log;
pub mod record;

pub use log::{Wal, WalConfig};
pub use record::{Lsn, TxnId, WalRecord, AUTOCOMMIT};

#[cfg(test)]
mod tests {
    use super::*;
    use spgist_storage::StorageError;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    static UNIQUE: AtomicU64 = AtomicU64::new(0);

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "spgist-wal-{tag}-{}-{}",
                std::process::id(),
                UNIQUE.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
        fn prefix(&self) -> PathBuf {
            self.0.join("db.wal")
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn insert(table: &str, row: u64) -> WalRecord {
        WalRecord::Insert {
            table: table.into(),
            row,
            datum: format!("datum-{row}").into_bytes(),
            txn: AUTOCOMMIT,
        }
    }

    fn append_n(wal: &Wal, n: u64) {
        for i in 0..n {
            wal.append(&insert("t", i)).unwrap();
        }
    }

    fn reopen_records(prefix: &PathBuf, checkpoint: Lsn) -> Vec<(Lsn, WalRecord)> {
        let (wal, records) = Wal::open(prefix, WalConfig::default(), checkpoint).unwrap();
        drop(wal);
        records
    }

    #[test]
    fn append_and_reopen_recovers_every_record() {
        let dir = TempDir::new("roundtrip");
        {
            let wal = Wal::create(dir.prefix(), WalConfig::default()).unwrap();
            append_n(&wal, 10);
            assert_eq!(wal.next_lsn(), 10);
            assert_eq!(wal.durable_lsn(), 10);
        }
        let records = reopen_records(&dir.prefix(), 0);
        assert_eq!(records.len(), 10);
        for (i, (lsn, record)) in records.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
            assert_eq!(*record, insert("t", i as u64));
        }
    }

    #[test]
    fn truncation_at_every_byte_recovers_exactly_a_record_prefix() {
        // The acceptance property at the byte level: chop the (single
        // segment) log at *every* possible length; reopen must recover
        // exactly the records wholly below the cut — never an error, never
        // a partial record, never a record past the cut.
        let dir = TempDir::new("tear");
        let mut boundaries = vec![16u64]; // header end
        {
            let wal = Wal::create(dir.prefix(), WalConfig::default()).unwrap();
            for i in 0..6 {
                wal.append(&insert("t", i)).unwrap();
                let path = segment_1(&dir);
                boundaries.push(std::fs::metadata(path).unwrap().len());
            }
        }
        let full = std::fs::read(segment_1(&dir)).unwrap();
        for cut in 16..=full.len() {
            std::fs::write(segment_1(&dir), &full[..cut]).unwrap();
            let expected = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            let records = reopen_records(&dir.prefix(), 0);
            assert_eq!(
                records.len(),
                expected,
                "cut at byte {cut} must yield the longest whole-record prefix"
            );
            for (i, (lsn, record)) in records.iter().enumerate() {
                assert_eq!(*lsn, i as u64);
                assert_eq!(*record, insert("t", i as u64));
            }
        }
    }

    fn segment_1(dir: &TempDir) -> PathBuf {
        dir.0.join("db.wal.000001")
    }

    #[test]
    fn garbage_tail_is_dropped_and_appends_resume_cleanly() {
        let dir = TempDir::new("garbage");
        {
            let wal = Wal::create(dir.prefix(), WalConfig::default()).unwrap();
            append_n(&wal, 3);
        }
        // Simulate a torn in-flight record: random bytes past the last sync.
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(segment_1(&dir))
            .unwrap();
        file.write_all(&[0x5A; 37]).unwrap();
        drop(file);
        {
            let (wal, records) = Wal::open(dir.prefix(), WalConfig::default(), 0).unwrap();
            assert_eq!(records.len(), 3, "garbage tail must be dropped");
            // The tail was truncated: appends land where record 3 belongs.
            assert_eq!(wal.append(&insert("t", 3)).unwrap(), 3);
        }
        let records = reopen_records(&dir.prefix(), 0);
        assert_eq!(records.len(), 4);
    }

    #[test]
    fn corruption_in_a_sealed_segment_fails_corrupt() {
        let dir = TempDir::new("sealed");
        {
            let wal = Wal::create(
                dir.prefix(),
                WalConfig {
                    segment_bytes: 64, // force rotation nearly every batch
                },
            )
            .unwrap();
            append_n(&wal, 20);
            assert!(wal.segment_count() > 2, "tiny segments must have rotated");
        }
        // Flip one payload byte in the *first* segment: that segment is
        // sealed, so this is corruption, not a torn tail.
        let path = segment_1(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match Wal::open(dir.prefix(), WalConfig::default(), 0) {
            Err(StorageError::Corrupt(_)) => {}
            other => panic!("sealed-segment damage must be Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn rotate_and_prune_truncate_the_log() {
        let dir = TempDir::new("prune");
        let wal = Wal::create(dir.prefix(), WalConfig::default()).unwrap();
        append_n(&wal, 5);
        let cut = wal.rotate().unwrap();
        assert_eq!(cut, 5);
        assert_eq!(wal.segment_count(), 2);
        wal.prune(cut).unwrap();
        assert_eq!(wal.segment_count(), 1);
        // Records after the cut land in the new segment and survive reopen
        // with correct LSNs.
        append_n(&wal, 2); // lsns 5, 6 (append_n re-numbers rows from 0; lsns advance)
        drop(wal);
        let (wal, records) = Wal::open(dir.prefix(), WalConfig::default(), cut).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].0, 5);
        assert_eq!(records[1].0, 6);
        assert_eq!(wal.next_lsn(), 7);
    }

    #[test]
    fn rotate_on_an_empty_log_is_stable() {
        let dir = TempDir::new("empty-rotate");
        let wal = Wal::create(dir.prefix(), WalConfig::default()).unwrap();
        assert_eq!(wal.rotate().unwrap(), 0);
        assert_eq!(wal.rotate().unwrap(), 0);
        assert_eq!(wal.segment_count(), 1, "empty rotations allocate nothing");
        wal.prune(0).unwrap();
        append_n(&wal, 1);
        let cut = wal.rotate().unwrap();
        assert_eq!(cut, 1);
        wal.prune(cut).unwrap();
        assert_eq!(wal.segment_count(), 1);
    }

    #[test]
    fn checkpoint_lsn_outside_the_log_is_corrupt() {
        let dir = TempDir::new("coverage");
        {
            let wal = Wal::create(dir.prefix(), WalConfig::default()).unwrap();
            append_n(&wal, 3);
        }
        // Catalog claims a checkpoint past the log's end: acked records are
        // missing.
        assert!(matches!(
            Wal::open(dir.prefix(), WalConfig::default(), 99),
            Err(StorageError::Corrupt(_))
        ));
        // Catalog checkpoint of 0 is inside [0, 3]: fine.
        assert!(Wal::open(dir.prefix(), WalConfig::default(), 0).is_ok());
    }

    #[test]
    fn missing_log_with_nonzero_checkpoint_is_corrupt() {
        let dir = TempDir::new("missing");
        assert!(matches!(
            Wal::open(dir.prefix(), WalConfig::default(), 7),
            Err(StorageError::Corrupt(_))
        ));
        // With a zero checkpoint an empty log is acceptable (fresh file).
        let (wal, records) = Wal::open(dir.prefix(), WalConfig::default(), 0).unwrap();
        assert!(records.is_empty());
        drop(wal);
    }

    #[test]
    fn group_commit_batches_concurrent_writers_into_fewer_syncs() {
        let dir = TempDir::new("group");
        let wal = Arc::new(Wal::create(dir.prefix(), WalConfig::default()).unwrap());
        const WRITERS: u64 = 8;
        const PER_WRITER: u64 = 25;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let wal = Arc::clone(&wal);
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        wal.append(&insert("t", w * PER_WRITER + i)).unwrap();
                    }
                });
            }
        });
        let commits = WRITERS * PER_WRITER;
        assert_eq!(wal.durable_lsn(), commits);
        assert_eq!(wal.written_count(), commits);
        // Strict amortisation depends on who arrives while a sync is in
        // flight; `unawaited_records_ride_along_with_the_sync_someone_waits_for`
        // pins it deterministically.  Here: never more than one sync each.
        assert!(
            wal.sync_count() <= commits,
            "{} syncs for {commits} commits",
            wal.sync_count()
        );
        drop(wal);
        let records = reopen_records(&dir.prefix(), 0);
        assert_eq!(records.len(), commits as usize);
    }

    #[test]
    fn unawaited_records_ride_along_with_the_sync_someone_waits_for() {
        let dir = TempDir::new("ride-along");
        let wal = Wal::create(dir.prefix(), WalConfig::default()).unwrap();
        append_n(&wal, 1);
        let syncs = wal.sync_count();
        // A transaction: statements submitted and not awaited, then the
        // commit that is.  One fsync covers all nine.
        for row in 1..9 {
            wal.submit(&insert("t", row)).unwrap();
        }
        let commit = wal.submit(&WalRecord::CommitTxn { txn: 7 }).unwrap();
        wal.wait_durable(commit).unwrap();
        assert_eq!(wal.sync_count(), syncs + 1, "one sync for the transaction");
        assert_eq!(wal.durable_lsn(), 10);

        // A full batch is flushed with nobody waiting (the queue is bounded).
        for row in 0..64 {
            wal.submit(&insert("t", 100 + row)).unwrap();
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while wal.durable_lsn() < 74 {
            assert!(
                std::time::Instant::now() < deadline,
                "a full batch never synced"
            );
            std::thread::yield_now();
        }

        // Rotation seals whatever is queued...
        for row in 0..3 {
            wal.submit(&insert("t", 200 + row)).unwrap();
        }
        assert_eq!(wal.rotate().unwrap(), 77);
        assert_eq!(wal.durable_lsn(), 77);
        // ...and so does dropping the log.
        wal.submit(&insert("t", 300)).unwrap();
        wal.submit(&insert("t", 301)).unwrap();
        drop(wal);
        let records = reopen_records(&dir.prefix(), 0);
        assert_eq!(records.len(), 79, "every submitted record replays");
        assert_eq!(records[9].1, WalRecord::CommitTxn { txn: 7 });
    }

    #[test]
    fn lone_headerless_segment_is_a_fresh_empty_log() {
        // A crash during the very first `Wal::create` — after the segment
        // file appeared but before its 16-byte header was synced — leaves
        // a lone sub-header file.  With nothing checkpointed that is an
        // empty log, not corruption.
        let dir = TempDir::new("lone-headerless");
        std::fs::write(segment_1(&dir), [0xAB; 7]).unwrap();
        let (wal, records) = Wal::open(dir.prefix(), WalConfig::default(), 0).unwrap();
        assert!(records.is_empty());
        assert_eq!(wal.next_lsn(), 0);
        append_n(&wal, 2);
        drop(wal);
        assert_eq!(reopen_records(&dir.prefix(), 0).len(), 2);

        // With a *nonzero* checkpoint the same file really is missing
        // acknowledged records: corrupt, exactly as before.
        std::fs::write(segment_1(&dir), [0xAB; 7]).unwrap();
        assert!(matches!(
            Wal::open(dir.prefix(), WalConfig::default(), 5),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn wal_poison_surfaces_through_health() {
        let dir = TempDir::new("health");
        let wal = Wal::create(dir.prefix(), WalConfig::default()).unwrap();
        append_n(&wal, 2);
        assert!(wal.health().is_ok());
        wal.fail_for_test("injected flusher failure");
        assert!(wal.health().is_err(), "poison is visible to health checks");
        assert!(
            wal.append(&insert("t", 2)).is_err(),
            "a poisoned log accepts nothing"
        );
    }

    #[test]
    fn create_removes_stale_segments() {
        let dir = TempDir::new("stale");
        {
            let wal = Wal::create(dir.prefix(), WalConfig::default()).unwrap();
            append_n(&wal, 4);
        }
        {
            let wal = Wal::create(dir.prefix(), WalConfig::default()).unwrap();
            assert_eq!(wal.next_lsn(), 0, "create starts a fresh history");
        }
        let records = reopen_records(&dir.prefix(), 0);
        assert!(records.is_empty());
    }
}
