//! The checkpoint protocol: persist what changed, then truncate the log.
//!
//! [`Database::checkpoint`] is crash-atomic (pre-image journal, then data,
//! then catalog, then journal deletion) and incremental (only mutated
//! tables' metadata and dirty row/heap chunks are rewritten, and the
//! journal holds only the bytes those writes change in pages the previous
//! checkpoint could reference).  The on-disk formats it drives live
//! elsewhere — the chunked catalog in [`crate::durable`], the journal in
//! `spgist_storage::journal`; this module is only the ordering of the
//! steps, plus the one fact the journal cannot know by itself: how many
//! pages the file had when the last checkpoint completed
//! (`Database::durable_pages`).

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;

use parking_lot::MutexGuard;

use spgist_storage::{journal, CheckpointStats, DirtyPageSnapshot, StorageError, StorageResult};

use crate::database::Database;
use crate::durable::{self, TableSnapshot};

impl Database {
    /// Persists the catalog delta since the last checkpoint — mutated
    /// tables' metadata and dirty row/heap chunks; an untouched table costs
    /// zero page writes — flushes the dirty data pages to stable storage,
    /// and **truncates the write-ahead log** up to the checkpoint.  A no-op
    /// for in-memory databases.
    ///
    /// The protocol (same shape as the pre-v3 full rewrite, with the write
    /// sets shrunk to what changed):
    ///
    /// 1. **Quiesce.**  Every table's DML lock is taken, but only for the
    ///    *in-memory* part of the checkpoint: the log cut, the per-table
    ///    dirty-chunk snapshots, and a hold on each dirty data page (its id
    ///    and dirty epoch; no page is copied).  No statement can be
    ///    half-applied (a heap page without its index updates, half an
    ///    index split) in the images being snapshotted.  The guards drop
    ///    before any disk I/O — writers stall for the snapshot, not for
    ///    the fsyncs.  A writer that changes a held page afterwards first
    ///    copies the image the hold captured (copy-on-write), so only pages
    ///    written during steps 3-4 are ever copied.
    /// 2. **Rotate.**  The log is rotated; `cut` = everything appended so
    ///    far becomes durable and sealed, and (thanks to step 1) every
    ///    record below the cut is fully reflected in the snapshots.
    /// 3. **Journal.**  What the in-place writes destroy is written to the
    ///    pre-image journal (`<wal prefix>.ckpt`) and synced: for each
    ///    snapshotted data page, the bytes of its *on-disk* image that
    ///    differ from the snapshot image step 4 writes; for each catalog
    ///    page the delta may reuse, the whole on-disk image; for a page
    ///    allocated since the last completed checkpoint, nothing — that
    ///    checkpoint does not reference it.  From here until step 6 a crash
    ///    recovers by rolling the journal back — restoring the exact
    ///    previous checkpoint — and replaying the un-pruned log.  Reading
    ///    pre-images from the pager after the guards dropped is sound: the
    ///    pool is no-steal, so nothing reaches the file between step 4 of
    ///    the previous checkpoint and step 4 of this one.
    /// 4. **Flush data, sync.**  The *snapshot* images are written and
    ///    synced: each held page's copy-on-write image if a writer changed
    ///    it since step 1, else the live page, unchanged since.  Never a
    ///    live page that concurrent DML may already have advanced past the
    ///    log cut (its referenced pages would not be flushed, tearing the
    ///    checkpoint).  A frame re-dirtied since the snapshot keeps its
    ///    dirty flag and ships with the next checkpoint.  The holds and
    ///    their copies are released here, flushed or not.  Data lands
    ///    *before* any catalog write, so a torn crash can never persist a
    ///    catalog that claims `checkpoint_lsn = cut` over data pages that
    ///    do not reflect it.
    /// 5. **Write catalog delta, sync.**  Dirty chunks are rewritten in
    ///    place (relocated only when a segment grows), mutated tables'
    ///    metadata and the root are rewritten, and exactly those pages are
    ///    flushed.
    /// 6. **Commit.**  The journal is deleted — the checkpoint is now the
    ///    recovery point.  Only then are deferred page frees published
    ///    (rollback would re-expose their contents) and sealed log
    ///    segments below the cut pruned.
    ///
    /// A crash anywhere before step 6 recovers from the previous
    /// checkpoint plus the un-pruned log: nothing acknowledged is lost,
    /// checkpointing is *purely* a log-truncation (and reopen-speed)
    /// optimization.  [`Database::checkpoint_stats`] reports what each
    /// checkpoint wrote and skipped.
    pub fn checkpoint(&mut self) -> StorageResult<()> {
        // No-steal quiesce: uncommitted transactional work must never reach
        // the data file.  `&mut self` already guarantees no `Transaction`
        // borrow is live; this guard catches the test-only crash-simulation
        // escape hatch, which leaks its registration on purpose.
        let open = self.open_txns.load(Ordering::SeqCst) as usize;
        if open != 0 {
            return Err(StorageError::OpenTransactions(open));
        }
        if self.layout.is_none() {
            return Ok(());
        }

        // Steps 1-2: the quiesce window — log cut and in-memory snapshots
        // under every table's DML guard, no disk I/O.
        let quiesce_start = std::time::Instant::now();
        let guards: Vec<MutexGuard<'_, ()>> = self.tables.values().map(|t| t.dml_guard()).collect();
        let checkpoint_lsn = match &self.wal {
            Some(wal) => wal.rotate()?,
            None => 0,
        };
        let mut snaps: Vec<TableSnapshot> = Vec::new();
        let mut tables_skipped = 0u64;
        for table in self.tables.values() {
            match table.take_checkpoint_snapshot() {
                Some(snap) => snaps.push(snap),
                None => tables_skipped += 1,
            }
        }
        let data = self.pool.dirty_snapshot();
        drop(guards);
        let quiesce_nanos = quiesce_start.elapsed().as_nanos() as u64;

        let data_pages = data.len() as u64;
        match self.checkpoint_persist(&snaps, data, checkpoint_lsn) {
            Ok((outcome, journal_bytes)) => {
                let stats = &mut self.ckpt_stats;
                stats.checkpoints += 1;
                stats.chunks_written += outcome.chunks_written;
                stats.chunks_skipped += outcome.chunks_skipped;
                stats.tables_skipped += tables_skipped;
                stats.catalog_bytes += outcome.bytes_written;
                stats.data_pages_flushed += data_pages;
                stats.journal_bytes += journal_bytes;
                stats.quiesce_nanos += quiesce_nanos;
                Ok(())
            }
            Err(e) => {
                // The snapshots were consumed but the disk state is now in
                // doubt; make the next checkpoint rewrite the snapshotted
                // tables wholesale.  The journal survives with the original
                // pre-images (a retry carries them forward whole), and
                // `durable_pages` still describes the last commit point, so
                // rollback still restores it.
                for snap in &snaps {
                    if let Some(table) = self.tables.get(&snap.name) {
                        table.mark_all_dirty();
                    }
                }
                Err(e)
            }
        }
    }

    /// Steps 3-6 of [`Database::checkpoint`]: journal → flush data → write
    /// catalog delta → flush catalog → delete journal → publish frees,
    /// prune log.  Runs after the quiesce guards have dropped.
    fn checkpoint_persist(
        &mut self,
        snaps: &[TableSnapshot],
        data: DirtyPageSnapshot,
        checkpoint_lsn: u64,
    ) -> StorageResult<(durable::CatalogWriteOutcome, u64)> {
        let layout = self
            .layout
            .as_mut()
            .expect("checkpoint_persist requires a durable database");
        let mut journal_bytes = 0;
        if let Some(journal) = &self.journal {
            // Journal before the first in-place write: the bytes the data
            // flush changes, and — whole, their new content not known yet —
            // the catalog pages the delta may reuse (collected *before* the
            // update relocates any segment).  Reads go through the pager
            // (not the pool) to capture the on-disk content.
            journal_bytes = journal::write_pre_images(
                journal,
                self.pool.pager().as_ref(),
                self.durable_pages,
                durable::overwrite_targets(layout, snaps),
                data.images(),
            )?;
        }
        self.pool.flush_snapshot(data)?;
        let live: BTreeSet<String> = self.tables.keys().cloned().collect();
        let outcome =
            durable::apply_catalog_update(&self.pool, layout, snaps, &live, checkpoint_lsn)?;
        self.pool.flush_pages_subset(&outcome.written_pages)?;
        if let Some(journal) = &self.journal {
            journal::discard(journal)?;
        }
        self.durable_pages = self.pool.page_count();
        self.pool.publish_pending()?;
        if let Some(wal) = &self.wal {
            wal.prune(checkpoint_lsn)?;
        }
        Ok((outcome, journal_bytes))
    }

    /// Running checkpoint counters — chunks written/skipped, catalog and
    /// journal bytes, quiesce time — as a typed view; the same counters are
    /// the `checkpoint.*` section of [`Database::metrics`].  Counters
    /// accumulate across checkpoints; diff with
    /// [`CheckpointStats::delta_since`] to meter one.
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.ckpt_stats
    }

    /// Checkpoints and consumes the database (clean shutdown).  A file
    /// closed this way reopens with [`Database::open`] restoring every
    /// table, row and index without any log replay.
    ///
    /// Dropping a durable database *without* closing it is safe too —
    /// acknowledged statements are recovered from the write-ahead log on
    /// the next open; closing just makes the reopen replay-free.
    pub fn close(mut self) -> StorageResult<()> {
        self.checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::tests::word_table;

    #[test]
    fn checkpoint_refuses_while_a_transaction_is_leaked_open() {
        let mut db = word_table(2);
        db.checkpoint().unwrap();
        let mut txn = db.begin().unwrap();
        txn.insert("words", "uncommitted").unwrap();
        // Simulate a crash: the transaction vanishes without commit or
        // rollback, leaving its registration in place.
        txn.crash_for_test();
        let err = db.checkpoint().unwrap_err();
        assert!(
            matches!(err, StorageError::OpenTransactions(1)),
            "no-steal checkpoint must refuse with the typed variant: {err}"
        );
        assert!(
            err.to_string().contains("open transaction"),
            "no-steal checkpoint must refuse to persist uncommitted work: {err}"
        );
    }
}
