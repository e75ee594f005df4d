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
//!   rotation ([`Wal::rotate`]) and truncation ([`Wal::prune`]).  The
//!   active segment may run past its last seal in zeros, sized ahead so a
//!   commit's `fsync` flushes data and no new file size; the zeros end the
//!   log like a torn tail.  A sealed segment ends at its last seal,
//! * group commit: writers [`Wal::submit`] and then [`Wal::wait_durable`],
//!   and the committing writer syncs the log itself — no log thread.  A
//!   waiter whose record is not yet durable, finding no sync running,
//!   leads one `fsync` for everything queued; the commits that queue up
//!   behind a sync in flight ride the next one.
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

pub use log::{Frame, Wal, WalConfig};
pub use record::{InsertFrame, Lsn, TxnId, WalRecord, AUTOCOMMIT};

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
                boundaries.push(wal.active_end_for_test());
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
    fn a_segment_of_an_older_version_fails_corrupt_naming_it() {
        // A version-3 segment holds records with fixed-width lengths: this
        // build must refuse it rather than misread it.
        let dir = TempDir::new("old-version");
        {
            let wal = Wal::create(dir.prefix(), WalConfig::default()).unwrap();
            append_n(&wal, 3);
        }
        let path = segment_1(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match Wal::open(dir.prefix(), WalConfig::default(), 0) {
            Err(StorageError::Corrupt(msg)) => {
                assert_eq!(
                    msg,
                    "unsupported WAL segment version 3 (this build reads version 4; no migration)"
                )
            }
            other => panic!("a v3 segment must be Corrupt, got {other:?}"),
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

        // A full batch is written with nobody waiting (the queue is
        // bounded), by its submitter and unsynced.
        for row in 0..64 {
            wal.submit(&insert("t", 100 + row)).unwrap();
        }
        assert_eq!(wal.written_count(), 74, "the full batch is written");
        assert_eq!(wal.sync_count(), syncs + 1, "and not synced");
        assert_eq!(wal.durable_lsn(), 10);

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
    fn a_long_transaction_keeps_the_queue_bounded_and_syncs_once() {
        let dir = TempDir::new("long-txn");
        let wal = Wal::create(dir.prefix(), WalConfig::default()).unwrap();
        append_n(&wal, 1);
        let syncs = wal.sync_count();
        // A 1 000-statement transaction: every full queue is written out by
        // the submitter that filled it, so at most one batch (64 records)
        // waits in memory, and none of those writes syncs.
        for row in 1..=1000 {
            wal.submit(&insert("t", row)).unwrap();
            let queued = wal.next_lsn() - wal.written_count();
            assert!(queued <= 64, "{queued} records queued after {row}");
        }
        assert_eq!(wal.sync_count(), syncs, "no statement syncs");
        let commit = wal.submit(&WalRecord::CommitTxn { txn: 3 }).unwrap();
        wal.wait_durable(commit).unwrap();
        assert_eq!(wal.sync_count(), syncs + 1, "the commit's one sync");
        assert_eq!(wal.durable_lsn(), 1002);
        assert_eq!(wal.written_count(), 1002);
        drop(wal);
        assert_eq!(reopen_records(&dir.prefix(), 0).len(), 1002);
    }

    #[test]
    fn dropping_the_log_leaves_unawaited_records_for_open() {
        let dir = TempDir::new("drop-drain");
        {
            let wal = Wal::create(dir.prefix(), WalConfig::default()).unwrap();
            append_n(&wal, 2);
            // One full batch written unsynced, six more still queued, and
            // nobody waits on any of them.
            for row in 2..72 {
                wal.submit(&insert("t", row)).unwrap();
            }
            assert_eq!(wal.durable_lsn(), 2);
        }
        let len = std::fs::metadata(segment_1(&dir)).unwrap().len();
        let (wal, records) = Wal::open(dir.prefix(), WalConfig::default(), 0).unwrap();
        assert_eq!(records.len(), 72, "the drop wrote every queued record");
        for (i, (lsn, record)) in records.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
            assert_eq!(*record, insert("t", i as u64));
        }
        assert_eq!(
            wal.active_end_for_test(),
            len,
            "a cleanly closed segment ends at its last seal"
        );
    }

    #[test]
    fn a_torn_write_into_the_sized_tail_recovers_the_acknowledged_records() {
        // Past its last acknowledged seal the segment holds a full batch
        // written and not yet synced, then the zeros it was sized ahead
        // with.  A crash tears that tail anywhere: zero it from every byte
        // in turn to the end, the file's length kept.
        let dir = TempDir::new("sized-tail");
        let (acked, written, image) = {
            let wal = Wal::create(dir.prefix(), WalConfig::default()).unwrap();
            append_n(&wal, 3);
            let acked = wal.active_end_for_test();
            for row in 3..67 {
                wal.submit(&insert("t", row)).unwrap();
            }
            let written = wal.active_end_for_test();
            (acked, written, std::fs::read(segment_1(&dir)).unwrap())
        };
        assert!(
            acked < written && written < image.len() as u64,
            "sized ahead"
        );
        for cut in acked as usize..image.len() {
            let mut torn = image.clone();
            torn[cut..].fill(0);
            std::fs::write(segment_1(&dir), &torn).unwrap();
            // The unsynced batch comes back whole or not at all.
            let (expected, end) = if cut as u64 >= written {
                (67, written)
            } else {
                (3, acked)
            };
            let (wal, records) = Wal::open(dir.prefix(), WalConfig::default(), 0).unwrap();
            assert_eq!(records.len(), expected, "zeros from byte {cut}");
            assert_eq!(wal.active_end_for_test(), end, "zeros from byte {cut}");
            // The next commit appends right after them.
            assert_eq!(wal.append(&insert("t", 99)).unwrap(), expected as u64);
            let frame = Frame::of(&insert("t", 99));
            let at = end as usize..end as usize + frame.bytes().len();
            let bytes = std::fs::read(segment_1(&dir)).unwrap();
            assert!(bytes[at] == *frame.bytes(), "zeros from byte {cut}");
        }
    }

    #[test]
    fn a_sealed_segment_ends_at_its_last_seal() {
        let dir = TempDir::new("sealed-end");
        let wal = Wal::create(dir.prefix(), WalConfig::default()).unwrap();
        append_n(&wal, 5);
        let end = wal.active_end_for_test();
        let len = || std::fs::metadata(segment_1(&dir)).unwrap().len();
        assert!(len() > end, "the active segment is sized ahead");
        assert_eq!(wal.rotate().unwrap(), 5);
        assert_eq!(len(), end, "sealing cuts the segment back to its last seal");
        append_n(&wal, 2);
        drop(wal);
        // Any byte past a sealed segment's last seal is damage, not a tail.
        let sealed = std::fs::read(segment_1(&dir)).unwrap();
        for byte in [0x5A, 0x00] {
            let mut grown = sealed.clone();
            grown.push(byte);
            std::fs::write(segment_1(&dir), &grown).unwrap();
            match Wal::open(dir.prefix(), WalConfig::default(), 0) {
                Err(StorageError::Corrupt(_)) => {}
                other => panic!("a byte {byte:#x} past a seal must be Corrupt, got {other:?}"),
            }
        }
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
