//! Tables: a heap file, a row directory, and any number of physical
//! indexes — and the two primitives every row mutation goes through.
//!
//! A [`Table`] registers heap data plus physical indexes (any of the five
//! index classes, behind the physical layer's class-independent seam),
//! reads the planner's [`AvailableIndex`] statistics from each index's
//! O(1) page-count and page-height hint, and executes the chosen plan.
//!
//! **One way to change a row.**  Auto-commit DML, transactional statements,
//! WAL replay and transaction undo all funnel into two private primitives:
//! `apply_row` makes a row live at a given id and `remove_row` makes one
//! dead.  Each applies the full set of effects — heap record, row-directory
//! slot, distinct-value statistic, dirty checkpoint chunk, every index —
//! so no path can forget one.  The public and crate-internal entry points
//! around them differ only in what they check first and what they log
//! after.
//!
//! **Shared access.** Tables are handed out as `Arc<Table>` handles that
//! are `Send + Sync`: DML (`insert` / `delete`) and queries take `&self`.
//! The heap and row directory sit behind a table-level reader-writer latch;
//! the physical indexes are internally concurrent (writers crab per-page
//! latches, index cursors pin a reclamation epoch and never block writers),
//! so the per-table DML lock is what makes a *statement* — heap change plus
//! every index update — atomic with respect to other statements.  Index
//! scans run latch-free: a long cursor delays page reclamation, never a
//! writer.  DDL (`create_index` / `drop_index`) requires exclusive access
//! (`&mut`), the executor's analog of PostgreSQL's `AccessExclusiveLock`.

use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};

use spgist_core::RowId;
use spgist_storage::{
    AccessHint, BufferPool, HeapFile, MetricKind, Metrics, PageId, RecordId, StorageError,
    StorageResult,
};
use spgist_wal::{InsertFrame, Lsn, TxnId, Wal, WalRecord, AUTOCOMMIT};

use crate::am::Catalog;
use crate::cost::{key_hash, DistinctSketch, TableStats};
use crate::durable::{PersistedTable, RowsDelta, TableSnapshot, ROWS_PER_CHUNK};
use crate::physical::{ExecCursor, Executor, IndexSpec, NamedIndex, RowSource};
use crate::planner::{AccessPath, AvailableIndex, Planner};
use crate::query::Query;
use crate::value::{Datum, KeyType};

/// What changed in a table since the last checkpoint.  Every mutation path
/// updates this under the table latch (inside the DML lock), and the
/// checkpoint reads-and-resets it while holding the table's DML guard — so
/// the dirty set always agrees with the state being snapshotted.
#[derive(Default)]
struct TableDirty {
    /// Anything at all changed (rows, counters, heap growth, index DDL):
    /// the checkpoint must rewrite this table's metadata segment.  Clean
    /// tables (`false`) cost a checkpoint zero page writes.
    mutated: bool,
    /// Rewrite the whole row directory — a fresh table, or conservative
    /// recovery after a failed checkpoint left the on-disk chunks in doubt.
    all_rows: bool,
    /// Row-directory chunks touched since the last checkpoint
    /// (`row / ROWS_PER_CHUNK`), ignored while `all_rows` is set.
    row_chunks: BTreeSet<u64>,
}

impl TableDirty {
    /// Everything dirty: the state of a table that has never checkpointed.
    fn all() -> Self {
        TableDirty {
            mutated: true,
            all_rows: true,
            row_chunks: BTreeSet::new(),
        }
    }

    /// Records a mutation of one row-directory slot.
    fn mark_row(&mut self, row: RowId) {
        self.mutated = true;
        if !self.all_rows {
            self.row_chunks.insert(row / ROWS_PER_CHUNK);
        }
    }
}

/// The latched mutable state of a [`Table`]: the heap file, the row
/// directory, and the statistics that change with every write.
struct TableInner {
    heap: HeapFile,
    /// Row id → heap record (None once deleted).  Row ids are dense and
    /// assigned in insertion order, like the paper's heap tuple pointers.
    rows: Vec<Option<RecordId>>,
    live_rows: u64,
    /// Encoded key values inserted since `distinct_base` was set, counted
    /// for the planner's `distinct_values` statistic in a fixed-size sketch
    /// (deletions are not subtracted — statistics, not truth).
    distinct: DistinctSketch,
    /// The distinct-key count the sketch adds to: the exact live count of
    /// the last bulk index build ([`Table::create_index`] on a populated
    /// table), or the statistic restored from the durable catalog on
    /// reopen.  The statistic reported is `distinct_base +
    /// distinct.estimate()`.  Values inserted again after either may
    /// double-count — again statistics, not truth.
    distinct_base: u64,
    /// Checkpoint dirty-tracking (see [`TableDirty`]).
    dirty: TableDirty,
}

impl TableInner {
    /// The heap record of `row` if the row is live, `None` if it was deleted
    /// or never allocated: the one row-directory lookup every read of a row
    /// goes through, with or without the heap fetch that may follow.  Only
    /// [`RowSource::is_live`] and [`RowSource::fetch`] call it.
    fn record_of(&self, row: RowId) -> Option<RecordId> {
        self.rows.get(row as usize).copied().flatten()
    }

    /// The planner's `distinct_values` statistic.
    fn distinct_values(&self) -> u64 {
        self.distinct_base + self.distinct.estimate()
    }
}

/// A heap-backed table with one typed key column and any number of physical
/// indexes over it.
///
/// A `Table` is `Send + Sync`: share it behind an `Arc` and run DML and
/// queries from many threads.  The heap and row directory sit behind a
/// table-level reader-writer latch; each physical index is internally
/// concurrent (crabbing writers, epoch-pinned cursors).  An insert appends
/// to the heap under the table latch, releases it, then updates the indexes
/// — so a concurrent query sees either nothing (not yet indexed) or a fully
/// fetchable row, never a dangling index entry.  DDL
/// ([`Table::create_index`] / [`Table::drop_index`]) still requires `&mut`:
/// exclusive access, the analog of PostgreSQL's `AccessExclusiveLock`.
pub struct Table {
    name: String,
    key_type: KeyType,
    pool: Arc<BufferPool>,
    inner: RwLock<TableInner>,
    indexes: Vec<NamedIndex>,
    /// Serializes whole DML statements (heap change **and** the index
    /// updates that follow) — multi-index atomicity.  Without it, a delete
    /// racing an insert of the same row could run its index removals
    /// *between* the insert's heap append and index insert — the removal
    /// finds nothing, the insert then lands, and the index permanently
    /// names a dead row.  Only `insert`/`delete` take this lock, and they
    /// take it before any latch, so it adds no ordering cycle with readers
    /// (which run latch-free through the indexes and never touch it).
    dml: Mutex<()>,
    /// The database's write-ahead log, when this table belongs to a durable
    /// database.  DML **submits** its redo record while still holding the
    /// DML lock (so a checkpoint's log cut can never separate an applied
    /// statement from its record) and **waits** for durability after
    /// releasing it (so concurrent writers overlap their fsyncs — that wait
    /// is where group commit batches).
    wal: Option<Arc<Wal>>,
    /// Data pages checkpoints flushed, by owner: `heap` or an index name.
    flushed: Mutex<HashMap<String, u64>>,
}

impl Table {
    /// Creates an empty table whose heap pages come from `pool`.
    pub fn create(name: &str, key_type: KeyType, pool: Arc<BufferPool>) -> StorageResult<Self> {
        Ok(Table {
            name: name.to_string(),
            key_type,
            inner: RwLock::new(TableInner {
                heap: HeapFile::create(Arc::clone(&pool))?,
                rows: Vec::new(),
                live_rows: 0,
                distinct: DistinctSketch::new(),
                distinct_base: 0,
                // Never checkpointed: the first checkpoint writes everything.
                dirty: TableDirty::all(),
            }),
            pool,
            indexes: Vec::new(),
            dml: Mutex::new(()),
            wal: None,
            flushed: Mutex::default(),
        })
    }

    /// Reconstructs a table from its durable-catalog record: the heap file
    /// reopens from its persisted page directory, the row directory is
    /// restored verbatim (no rebuild scan), and every index reopens from its
    /// tree meta page and owned-page list.
    pub(crate) fn from_persisted(
        pool: Arc<BufferPool>,
        pt: &PersistedTable,
    ) -> StorageResult<Self> {
        let key_type = KeyType::from_tag(pt.key_type)?;
        let heap = HeapFile::open(Arc::clone(&pool), pt.heap_pages.clone(), pt.heap_records)?;
        let mut indexes = Vec::with_capacity(pt.indexes.len());
        for pi in &pt.indexes {
            let named = NamedIndex::reopen(Arc::clone(&pool), pi)?;
            if named.spec.key_type() != key_type {
                return Err(StorageError::Corrupt(format!(
                    "catalog index {:?} ({}) does not match table {:?} of type {}",
                    pi.name,
                    named.spec.key_type().name(),
                    pt.name,
                    key_type.name()
                )));
            }
            indexes.push(named);
        }
        Ok(Table {
            name: pt.name.clone(),
            key_type,
            inner: RwLock::new(TableInner {
                heap,
                rows: pt.rows.clone(),
                live_rows: pt.live_rows,
                distinct: DistinctSketch::new(),
                distinct_base: pt.distinct,
                // Reopened from a checkpoint image: clean until mutated.
                dirty: TableDirty::default(),
            }),
            pool,
            indexes,
            dml: Mutex::new(()),
            wal: None,
            flushed: Mutex::default(),
        })
    }

    /// Hooks this table up to the database's write-ahead log; DML from here
    /// on is logged before it is acknowledged.  Called once while the table
    /// is still exclusively owned (create, open-after-replay).
    pub(crate) fn attach_wal(&mut self, wal: Arc<Wal>) {
        self.wal = Some(wal);
    }

    /// Acquires this table's DML lock for an external critical section.
    /// The checkpoint protocol holds every table's guard across its whole
    /// snapshot-and-flush window, so no statement can be half-applied (a
    /// heap page without its index updates, half an index split) in the
    /// page images being flushed.
    pub(crate) fn dml_guard(&self) -> MutexGuard<'_, ()> {
        self.dml.lock()
    }

    /// Takes this table's checkpoint snapshot — the durable-catalog delta
    /// since the last checkpoint — and resets the dirty state, or returns
    /// `None` (and writes nothing) when the table is clean.  The caller
    /// (checkpoint) already holds this table's **DML lock** via
    /// [`Table::dml_guard`], so a concurrent insert or delete statement
    /// (heap change *plus* the index updates that follow) either lands
    /// wholly before the snapshot or wholly after it — a checkpoint racing
    /// DML through shared handles can never persist a row directory that
    /// disagrees with its indexes.  The heap state is read under the table
    /// latch (released before the index latches are touched, keeping lock
    /// orders acyclic with query paths).
    ///
    /// If the checkpoint later fails, the caller must put the dirtiness
    /// back with [`Table::mark_all_dirty`]: the on-disk chunks are then in
    /// doubt, and the conservative full rewrite restores the invariant.
    pub(crate) fn take_checkpoint_snapshot(&self) -> Option<TableSnapshot> {
        let mut snapshot = {
            let mut inner = self.inner.write();
            if !inner.dirty.mutated {
                return None;
            }
            let dirty = std::mem::take(&mut inner.dirty);
            let rows_len = inner.rows.len() as u64;
            let rows = if dirty.all_rows {
                RowsDelta::Full(inner.rows.clone())
            } else {
                RowsDelta::Chunks(
                    dirty
                        .row_chunks
                        .iter()
                        .filter(|&&chunk| chunk * ROWS_PER_CHUNK < rows_len)
                        .map(|&chunk| {
                            let lo = (chunk * ROWS_PER_CHUNK) as usize;
                            let hi = (lo + ROWS_PER_CHUNK as usize).min(inner.rows.len());
                            (chunk, inner.rows[lo..hi].to_vec())
                        })
                        .collect(),
                )
            };
            TableSnapshot {
                name: self.name.clone(),
                key_type: self.key_type.tag(),
                heap_pages: inner.heap.pages().to_vec(),
                heap_records: inner.heap.record_count(),
                live_rows: inner.live_rows,
                distinct: inner.distinct_values(),
                rows_len,
                rows,
                indexes: Vec::new(),
            }
        };
        // The index identities are read with the table latch released.
        snapshot.indexes = self.indexes.iter().map(NamedIndex::persisted).collect();
        Some(snapshot)
    }

    /// Marks every part of the table's durable record dirty, so the next
    /// checkpoint rewrites it wholesale.  Used when a failed checkpoint
    /// leaves the on-disk chunks in doubt.
    pub(crate) fn mark_all_dirty(&self) {
        self.inner.write().dirty = TableDirty::all();
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The key type of the table's indexed column.
    pub fn key_type(&self) -> KeyType {
        self.key_type
    }

    /// Number of live rows.
    pub fn len(&self) -> u64 {
        self.inner.read().live_rows
    }

    /// True if the table holds no live rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a key value, returning its row id.  The value is appended to
    /// the heap under the table latch, which is released before the value is
    /// inserted into the registered indexes (each crabs its own per-page
    /// latches internally).  The whole statement runs under the table's DML
    /// lock so a concurrent delete of the just-inserted row cannot
    /// interleave between the heap append and the index updates.
    pub fn insert(&self, datum: impl Into<Datum>) -> StorageResult<RowId> {
        let (row, lsn) = self.insert_logged(datum.into(), AUTOCOMMIT)?;
        self.wait_durable(lsn)?;
        Ok(row)
    }

    /// Inserts a batch of key values as **one DML statement**, returning the
    /// assigned row ids in input order.
    ///
    /// Unlike a loop of [`Table::insert`] calls, the whole batch takes the
    /// table's DML lock once and is one WAL record instead of many — one
    /// statement with respect to other DML.  It is **one pass** over `data`,
    /// as `COPY` streams its rows: each value is checked (key type, and
    /// what every index admits), encoded once into a reused buffer,
    /// appended to the heap and the row directory, inserted into every
    /// index, and appended to the redo record being built — no list of the
    /// batch's values or encodings is ever held.
    ///
    /// The statement is all-or-nothing.  A value refused at position k
    /// (wrong key type, not admitted by an index, too large for a heap
    /// page) takes the k rows before it back out in reverse, gives their
    /// row ids back to the next statement, and logs nothing.  A concurrent
    /// *cursor* (which takes no lock) may observe part of the batch
    /// mid-flight — including rows of a batch that is then refused; it
    /// never observes a dangling index entry.
    pub fn insert_many<I>(&self, data: I) -> StorageResult<Vec<RowId>>
    where
        I: IntoIterator,
        I::Item: Into<Datum>,
    {
        let data = data.into_iter().map(Into::into);
        let (rows, lsn) = self.insert_many_logged(data, AUTOCOMMIT, true)?;
        self.wait_durable(lsn)?;
        Ok(rows.collect())
    }

    /// Deletes the row, removing it from the heap and every index; returns
    /// whether the row existed.  A query racing the delete may still report
    /// the row (it was live when its cursor pinned the index) or skip it —
    /// never error.  Runs under the table's DML lock (see [`Table::insert`])
    /// so the heap removal and index removals are one atomic statement with
    /// respect to other DML.
    pub fn delete(&self, row: RowId) -> StorageResult<bool> {
        let (deleted, lsn) = self.delete_logged(row, AUTOCOMMIT)?;
        self.wait_durable(lsn)?;
        Ok(deleted.is_some())
    }

    /// The acknowledgement half of an auto-commit statement: waits until
    /// the statement's redo record is durable.  Runs *outside* the DML lock,
    /// so concurrent writers' waits overlap and group commit can batch them.
    fn wait_durable(&self, lsn: Option<Lsn>) -> StorageResult<()> {
        match (&self.wal, lsn) {
            (Some(wal), Some(lsn)) => wal.wait_durable(lsn),
            _ => Ok(()),
        }
    }

    /// The apply-and-log half of an insert: executes the statement under the
    /// DML lock and submits its redo record tagged with `txn`, but does
    /// **not** wait for durability.  Auto-commit ([`Table::insert`]) waits on
    /// the returned LSN before acknowledging; a transaction statement skips
    /// the wait entirely — its commit point is the `CommitTxn` record.
    pub(crate) fn insert_logged(
        &self,
        datum: Datum,
        txn: TxnId,
    ) -> StorageResult<(RowId, Option<Lsn>)> {
        let (rows, lsn) = self.insert_many_logged(std::iter::once(datum), txn, false)?;
        Ok((rows.start, lsn))
    }

    /// The apply-and-log half of [`Table::insert_many`] (see
    /// [`Table::insert_logged`] for the auto-commit/transaction split):
    /// appends `data` at the next row ids as one statement, in one pass,
    /// and submits its redo record — one `InsertMany` covering the whole
    /// batch when `batch` (recovery reproduces its all-or-nothing
    /// visibility), else the single-row `Insert` form (`data` is then
    /// exactly one datum).  Each row's encoding goes into the record as the
    /// row is applied; a refused value rolls the statement back (see
    /// [`Table::insert_many`]).
    ///
    /// The record is submitted *inside* the DML lock (a checkpoint's log cut
    /// must see statement-and-record as one unit); the caller waits for the
    /// fsync *outside* it.
    pub(crate) fn insert_many_logged(
        &self,
        mut data: impl Iterator<Item = Datum>,
        txn: TxnId,
        batch: bool,
    ) -> StorageResult<(Range<RowId>, Option<Lsn>)> {
        let dml = self.dml.lock();
        let first_row = self.row_count();
        let mut frame = self.wal.as_ref().map(|_| match batch {
            true => InsertFrame::many(&self.name, first_row, data.size_hint().0 as u64, txn),
            false => InsertFrame::one(&self.name, first_row, txn),
        });
        // A batch's keys are counted apart and added to the statistic only
        // once the batch stands: a refused one must not move it.
        let mut keys = batch.then(DistinctSketch::new);
        let mut record = Vec::new();
        let mut next = first_row;
        let applied = data.try_for_each(|datum| {
            self.check(&datum)?;
            record.clear();
            datum.encode_record_into(&mut record);
            if let Some(frame) = &mut frame {
                frame.push(&record)?;
            }
            self.apply_row(&datum, &record, next, keys.as_mut())?;
            next += 1;
            Ok(())
        });
        if let Err(e) = applied {
            return self.roll_back(first_row).and(Err(e));
        }
        if next == first_row {
            return Ok((first_row..next, None));
        }
        if let Some(keys) = &keys {
            self.inner.write().distinct.merge(keys);
        }
        let lsn = match (&self.wal, frame) {
            (Some(wal), Some(frame)) => Some(wal.submit_frame(frame.finish())?),
            _ => None,
        };
        drop(dml);
        Ok((first_row..next, lsn))
    }

    /// Refuses a value this table cannot store — another key type, or one
    /// an index does not admit — before any of it lands.
    fn check(&self, datum: &Datum) -> StorageResult<()> {
        if datum.key_type() != self.key_type {
            return Err(StorageError::Unsupported(format!(
                "cannot insert a {} value into table {:?} of type {}",
                datum.key_type().name(),
                self.name,
                self.key_type.name()
            )));
        }
        self.indexes
            .iter()
            .try_for_each(|named| named.index.admits(datum))
    }

    /// Takes a refused statement's rows — every row from `first_row` to the
    /// row directory's end — back out in reverse, and truncates the
    /// directory so the next statement is assigned `first_row` again.
    /// Unlogged: a refused statement logs nothing.
    fn roll_back(&self, first_row: RowId) -> StorageResult<()> {
        for row in (first_row..self.row_count()).rev() {
            self.remove_row(row)?;
        }
        self.inner.write().rows.truncate(first_row as usize);
        Ok(())
    }

    /// The apply-and-log half of [`Table::delete`] (see
    /// [`Table::insert_logged`] for the auto-commit/transaction split).
    /// Returns the deleted datum — the information a transaction needs to
    /// undo the delete on abort — or `None` if the row did not exist (and
    /// then nothing is logged).
    pub(crate) fn delete_logged(
        &self,
        row: RowId,
        txn: TxnId,
    ) -> StorageResult<(Option<Datum>, Option<Lsn>)> {
        let dml = self.dml.lock();
        let Some(datum) = self.remove_row(row)? else {
            return Ok((None, None));
        };
        // Submit under the DML lock, wait outside it (see
        // `insert_many_logged`).
        let lsn = match &self.wal {
            Some(wal) => Some(wal.submit(&WalRecord::Delete {
                table: self.name.clone(),
                row,
                txn,
            })?),
            None => None,
        };
        drop(dml);
        Ok((Some(datum), lsn))
    }

    /// **DML primitive 1 of 2: apply a row at this id.**  Makes `datum`
    /// live at `row` — heap record (`record` is its encoded form),
    /// row-directory slot, dirty checkpoint chunk and an entry in every
    /// index (the trees keep their own planner statistics current) — and
    /// counts its key into `keys`, or into the table's distinct-value
    /// statistic when `None`.  The row id must be either the next
    /// unallocated one (an append) or an allocated dead slot (the undo of a
    /// delete).  Unlogged: callers hold the DML lock and decide what, if
    /// anything, reaches the WAL.
    ///
    /// The heap change lands under the table latch, which is released
    /// before the indexes are touched — so a concurrent query sees either
    /// nothing (not yet indexed) or a fully fetchable row.  If an index
    /// refuses the row, the row stays in the directory for the caller's
    /// rollback ([`Table::remove_row`] tolerates the indexes it missed).
    fn apply_row(
        &self,
        datum: &Datum,
        record: &[u8],
        row: RowId,
        keys: Option<&mut DistinctSketch>,
    ) -> StorageResult<()> {
        {
            let mut inner = self.inner.write();
            let rid = inner.heap.insert(record)?;
            match inner.rows.get_mut(row as usize) {
                Some(slot) => *slot = Some(rid),
                None => inner.rows.push(Some(rid)),
            }
            inner.live_rows += 1;
            inner.dirty.mark_row(row);
            keys.unwrap_or(&mut inner.distinct).insert(record);
        }
        for named in &self.indexes {
            named.index.insert(datum, row)?;
        }
        Ok(())
    }

    /// **DML primitive 2 of 2: remove the row at this id.**  Makes `row`
    /// dead — heap record deleted, row-directory slot emptied (it stays
    /// allocated, so ids handed to later statements are unaffected), dirty
    /// checkpoint chunk marked, its entry removed from every index — and
    /// returns the datum it held.  `None`, and no change, if the id is
    /// unallocated or already dead.  Unlogged; callers hold the DML lock.
    fn remove_row(&self, row: RowId) -> StorageResult<Option<Datum>> {
        let datum = {
            let mut inner = self.inner.write();
            let Some(rid) = inner.rows.get_mut(row as usize).and_then(Option::take) else {
                return Ok(None);
            };
            let datum = Datum::decode_record(&inner.heap.get(rid)?)?;
            inner.heap.delete(rid)?;
            inner.live_rows -= 1;
            inner.dirty.mark_row(row);
            datum
        };
        for named in &self.indexes {
            named.index.delete(&datum, row)?;
        }
        Ok(Some(datum))
    }

    /// Re-executes a logged insert of `records` at `first_row..` during
    /// recovery (one record for `INSERT`, the whole batch for
    /// `insert_many`).  Row ids are assigned deterministically
    /// (`rows.len()`), which makes replay **idempotent and checkable**: a
    /// statement whose first row id is exactly the row directory's end was
    /// not yet applied and replays where the original landed; one wholly
    /// below it is already reflected in the checkpoint image and is
    /// skipped.  A statement was applied (and, if checkpointed,
    /// snapshotted) atomically under the DML lock, so anything in between —
    /// a gap, or a batch only partly in the image — means the log and the
    /// checkpoint disagree, and recovery must stop rather than guess.
    pub(crate) fn replay_insert(
        &self,
        first_row: RowId,
        records: Vec<Vec<u8>>,
    ) -> StorageResult<()> {
        let _dml = self.dml.lock();
        let next = self.row_count();
        let end = first_row + records.len() as RowId;
        if next >= end {
            return Ok(()); // wholly inside the checkpoint image
        }
        if next != first_row {
            return Err(StorageError::Corrupt(format!(
                "WAL replay gap on table {:?}: next row is {next} but the log \
                 covers rows {first_row}..{end}",
                self.name
            )));
        }
        for (record, row) in records.iter().zip(first_row..) {
            self.apply_row(&Datum::decode_record(record)?, record, row, None)?;
        }
        Ok(())
    }

    /// Re-executes a logged, committed delete during recovery.  A logged
    /// delete always names an allocated slot (a live delete of an unknown
    /// row returns before logging; a loser's inserts allocate dead slots),
    /// so a row id past the row directory's end means the log and the
    /// checkpoint disagree — recovery must stop rather than guess, exactly
    /// as for an insert gap.  A dead slot is a no-op: the delete is already
    /// reflected in the checkpoint image.
    pub(crate) fn replay_delete(&self, row: RowId) -> StorageResult<()> {
        let _dml = self.dml.lock();
        let next = self.inner.read().rows.len() as RowId;
        if row >= next {
            return Err(StorageError::Corrupt(format!(
                "WAL replay gap on table {:?}: next row is {next} but the log \
                 deletes row {row}",
                self.name
            )));
        }
        self.remove_row(row).map(|_| ())
    }

    /// Rolls back one of a transaction's inserts: removes `row` from the
    /// heap and every index, **without logging**.  No compensation record is
    /// needed — if the process dies mid-abort, recovery reaches the same
    /// state by dropping the loser transaction's records.  The row-id slot
    /// stays allocated as a tombstone (exactly the state recovery's
    /// loser-drop reproduces).  An already-dead row is left alone: a
    /// concurrent statement deleted the uncommitted row (statements are not
    /// isolated).
    pub(crate) fn undo_insert(&self, row: RowId) -> StorageResult<()> {
        let _dml = self.dml.lock();
        self.remove_row(row).map(|_| ())
    }

    /// Rolls back one of a transaction's deletes: re-inserts the remembered
    /// `datum` at its original row id, unlogged (see [`Table::undo_insert`]).
    /// A slot that is live again or was never allocated is left alone:
    /// another statement got there first (statements are not isolated).
    pub(crate) fn undo_delete(&self, row: RowId, datum: &Datum) -> StorageResult<()> {
        let _dml = self.dml.lock();
        if !matches!(self.inner.read().rows.get(row as usize), Some(None)) {
            return Ok(());
        }
        self.apply_row(datum, &datum.encode_record(), row, None)
    }

    /// Replays a loser transaction's logged insert of `count` rows starting
    /// at `row`: the statement must not apply, but its row ids were consumed
    /// at execution time and every later record's ids count on them — so the
    /// slots are allocated *dead* (no heap record, no index entry, not
    /// live), exactly the state an explicit abort's undo leaves behind.
    pub(crate) fn replay_loser_insert(&self, row: RowId, count: u64) -> StorageResult<()> {
        let _dml = self.dml.lock();
        let mut inner = self.inner.write();
        let next = inner.rows.len() as RowId;
        let end = row + count;
        if next < row {
            return Err(StorageError::Corrupt(format!(
                "WAL replay gap on table {:?}: next row is {next} but a loser \
                 transaction's insert covers rows {row}..{end}",
                self.name
            )));
        }
        for dead in next.max(row)..end {
            inner.rows.push(None);
            inner.dirty.mark_row(dead);
        }
        Ok(())
    }

    /// Reads the key value of a live row; an error if the row is unknown or
    /// deleted.
    pub fn datum(&self, row: RowId) -> StorageResult<Datum> {
        self.try_datum(row)?
            .ok_or_else(|| StorageError::Unsupported(format!("row {row} does not exist")))
    }

    /// Reads the key value of a row, `None` if it does not exist (deleted or
    /// never inserted): the executor's own heap fetch, with the default
    /// buffer-pool hint.
    pub fn try_datum(&self, row: RowId) -> StorageResult<Option<Datum>> {
        self.fetch(row, AccessHint::Normal)
    }

    /// Builds a physical index described by `spec` over the existing heap
    /// rows (`CREATE INDEX`).  DDL: requires exclusive access to the table.
    ///
    /// On an already-populated table the build routes through one heap scan
    /// and [`SpIndex::bulk_build`](spgist_indexes::SpIndex::bulk_build) —
    /// the paper's `spgistbuild` pipeline —
    /// instead of N planner-visible inserts: every tree node is partitioned
    /// top-down and written exactly once.  The same scan seeds the planner's
    /// statistics with the **exact** live distinct-key count, replacing
    /// whatever session-local approximation had accumulated (first step on
    /// the planner-statistics roadmap item).
    pub fn create_index(&mut self, name: &str, spec: IndexSpec) -> StorageResult<()> {
        if spec.key_type() != self.key_type {
            return Err(StorageError::Unsupported(format!(
                "index {name:?} ({}) cannot serve table {:?} of type {}",
                spec.key_type().name(),
                self.name,
                self.key_type.name()
            )));
        }
        if self.indexes.iter().any(|i| i.name == name) {
            return Err(StorageError::Unsupported(format!(
                "index {name:?} already exists on table {:?}",
                self.name
            )));
        }
        let named = NamedIndex::create(Arc::clone(&self.pool), name, spec)?;
        // The executor's sequential scan: every heap page touched once.
        let items: Vec<(Datum, RowId)> = self
            .executor()
            .heap_stream()
            .map(|item| item.map(|(row, datum)| (datum, row)))
            .collect::<StorageResult<_>>()?;
        if !items.is_empty() {
            // Seed exact planner statistics from the build scan: the scan
            // already visits every live key, so the distinct count stops
            // being an approximation.  One hash per key, sorted: no set of
            // the keys themselves.
            let mut hashes: Vec<u64> = items
                .iter()
                .map(|(datum, _)| key_hash(&datum.encode_record()))
                .collect();
            hashes.sort_unstable();
            hashes.dedup();
            // The scan hands its keys to the build: no second copy.  A
            // refused build releases the index's pages and changes nothing.
            if let Err(e) = named.index.bulk_build(items) {
                named.index.destroy()?;
                return Err(e);
            }
            let inner = self.inner.get_mut();
            inner.distinct = DistinctSketch::new();
            inner.distinct_base = hashes.len() as u64;
        }
        self.indexes.push(named);
        self.inner.get_mut().dirty.mutated = true;
        Ok(())
    }

    /// Drops a physical index, releasing its pages to the pager's free list;
    /// returns whether it existed.  DDL: requires exclusive access.
    pub fn drop_index(&mut self, name: &str) -> StorageResult<bool> {
        let Some(named) = self.detach_index(name) else {
            return Ok(false);
        };
        named.index.destroy()?;
        Ok(true)
    }

    /// Removes an index from the table *without* destroying it, so the
    /// durable DDL path can persist the index-less catalog first and free
    /// the pages only once the catalog no longer names them (re-attached on
    /// checkpoint failure).
    pub(crate) fn detach_index(&mut self, name: &str) -> Option<NamedIndex> {
        let pos = self.indexes.iter().position(|i| i.name == name)?;
        self.inner.get_mut().dirty.mutated = true;
        Some(self.indexes.remove(pos))
    }

    /// Puts back an index removed by [`Table::detach_index`].
    pub(crate) fn attach_index(&mut self, named: NamedIndex) {
        self.inner.get_mut().dirty.mutated = true;
        self.indexes.push(named);
    }

    /// Destroys the table, releasing its heap pages and every index's pages
    /// to the pager's free list (`DROP TABLE`).
    pub fn destroy(self) -> StorageResult<()> {
        for named in self.indexes {
            named.index.destroy()?;
        }
        self.inner.into_inner().heap.destroy()
    }

    /// Names of the physical indexes on this table.
    pub fn index_names(&self) -> Vec<&str> {
        self.indexes.iter().map(|i| i.name.as_str()).collect()
    }

    /// Records each index's latch and epoch counters and its pending list
    /// into `metrics` as `index.<table>.<index>.*`.
    pub(crate) fn export_metrics(&self, metrics: &mut Metrics) {
        for named in &self.indexes {
            let prefix = format!("index.{}.{}", self.name(), named.name);
            named.index.concurrency_stats().export(&prefix, metrics);
            let (pages, merges) = named.index.pending();
            metrics.push(format!("{prefix}.pending_pages"), MetricKind::Gauge, pages);
            metrics.push(
                format!("{prefix}.pending_merges"),
                MetricKind::Counter,
                merges,
            );
        }
    }

    /// How many of the pages `flushed` (ascending) each owner of this table
    /// holds: the heap, then each index.  A checkpoint asks under this
    /// table's DML guard, while the page lists hold still.
    pub(crate) fn owners_of(&self, flushed: &[PageId]) -> Vec<(String, u64)> {
        let count = |pages: &[PageId]| {
            let hits = pages.iter().filter(|p| flushed.binary_search(p).is_ok());
            hits.count() as u64
        };
        let heap = count(self.inner.read().heap.pages());
        let indexes = self.indexes.iter();
        std::iter::once(("heap".to_string(), heap))
            .chain(indexes.map(|named| (named.name.clone(), count(&named.index.pages()))))
            .collect()
    }

    /// Adds a completed checkpoint's [`Table::owners_of`] counts.
    pub(crate) fn add_flushed(&self, counts: Vec<(String, u64)>) {
        let mut flushed = self.flushed.lock();
        for (owner, pages) in counts {
            *flushed.entry(owner).or_default() += pages;
        }
    }

    /// Records the pages checkpoints flushed for each owner into `metrics`
    /// as `checkpoint.data_pages_flushed.<table>.<owner>`.
    pub(crate) fn export_flushed(&self, metrics: &mut Metrics) {
        let flushed = self.flushed.lock();
        let owners = std::iter::once("heap").chain(self.indexes.iter().map(|i| i.name.as_str()));
        for owner in owners {
            let name = format!("checkpoint.data_pages_flushed.{}.{owner}", self.name);
            let pages = flushed.get(owner).copied().unwrap_or(0);
            metrics.push(name, MetricKind::Counter, pages);
        }
    }

    /// Planner statistics of the heap (the `pg_class` analog).
    pub fn table_stats(&self) -> TableStats {
        let inner = self.inner.read();
        TableStats {
            rows: inner.live_rows,
            heap_pages: (inner.heap.page_count() as u64).max(1),
            distinct_values: inner.distinct_values(),
        }
    }

    /// The planner's view of the physical indexes: each index's page count
    /// and writer-maintained page-height hint, an O(1) read per index (see
    /// [`SpIndex::planner_stats`](spgist_indexes::SpIndex::planner_stats)).
    pub fn available_indexes(&self) -> StorageResult<Vec<AvailableIndex>> {
        self.indexes
            .iter()
            .map(|named| {
                let (pages, page_height) = named.index.planner_stats()?;
                Ok(AvailableIndex {
                    name: named.name.clone(),
                    operator_class: named.spec.operator_class().to_string(),
                    pages,
                    page_height,
                    returns_keys: named.index.returns_keys(),
                })
            })
            .collect()
    }

    /// Plans `query` against this table without executing it (`EXPLAIN`):
    /// boolean predicate trees decompose into index scans, residual filters,
    /// row-id intersections/unions; `@@` leaves route through ordered scans;
    /// a `LIMIT` is pushed down over the whole plan.
    ///
    /// The tree returned is the one [`Table::query`] runs.
    pub fn plan(&self, catalog: &Catalog, query: impl Into<Query>) -> StorageResult<AccessPath> {
        let query = query.into();
        match query.predicate.key_type() {
            Some(kt) if kt != self.key_type => {
                return Err(StorageError::Unsupported(format!(
                    "predicate over {} cannot run on table {:?} of type {}",
                    kt.name(),
                    self.name,
                    self.key_type.name()
                )));
            }
            None if query.predicate.has_leaves() => {
                return Err(StorageError::Unsupported(
                    "predicate tree mixes key types".into(),
                ));
            }
            _ => {}
        }
        Planner::new(catalog, self.table_stats(), self.available_indexes()?).plan(&query)
    }

    /// Plans and executes `query`, returning a streaming cursor over the
    /// matching `(row id, key)` pairs.
    ///
    /// The dispatch is driven entirely by the planner's choice; every
    /// operator streams, so a `LIMIT` (or a caller that stops pulling)
    /// cuts the work short instead of materializing the full result, and
    /// results are identical across access paths (a key-returning index
    /// hands back the very datum the heap holds; other rows are resolved
    /// through the heap).
    pub fn query<'t>(
        &'t self,
        catalog: &Catalog,
        query: impl Into<Query>,
    ) -> StorageResult<ExecCursor<'t>> {
        wal_health(&self.wal)?;
        let plan = self.plan(catalog, query)?;
        self.executor().cursor(plan)
    }

    fn executor(&self) -> Executor<'_> {
        Executor {
            rows: self,
            indexes: &self.indexes,
        }
    }
}

/// Fails when the database's write-ahead log has been poisoned by an I/O
/// failure.  At that point the in-memory state may be ahead of stable
/// storage with no way to close the gap (the flusher is dead), so the
/// database stops serving queries and opening transactions rather than hand
/// out rows whose durability is unknown; DML is already rejected by
/// `Wal::submit`.  Reopening recovers to the acknowledged-durable state.
pub(crate) fn wal_health(wal: &Option<Arc<Wal>>) -> StorageResult<()> {
    match wal {
        Some(wal) => wal.health().map_err(|e| {
            StorageError::Io(std::io::Error::other(format!(
                "database failed after a write-ahead log error \
                 (reopen to recover): {e}"
            )))
        }),
        None => Ok(()),
    }
}

impl RowSource for Table {
    fn row_count(&self) -> RowId {
        self.inner.read().rows.len() as RowId
    }

    fn is_live(&self, row: RowId) -> bool {
        self.inner.read().record_of(row).is_some()
    }

    fn fetch(&self, row: RowId, hint: AccessHint) -> StorageResult<Option<Datum>> {
        let inner = self.inner.read();
        let Some(rid) = inner.record_of(row) else {
            return Ok(None);
        };
        Datum::decode_record(&inner.heap.get_hinted(rid, hint)?).map(Some)
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("key_type", &self.key_type)
            .field("rows", &self.len())
            .field("indexes", &self.index_names())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::database::tests::word_table;
    use crate::database::Database;
    use crate::query::Predicate;
    use spgist_indexes::geom::Point;

    #[test]
    fn insert_many_matches_a_loop_of_inserts() {
        let mut looped = Database::in_memory();
        looped.create_table("words", KeyType::Varchar).unwrap();
        let mut batched = Database::in_memory();
        batched.create_table("words", KeyType::Varchar).unwrap();
        batched
            .table_mut("words")
            .unwrap()
            .create_index("t", IndexSpec::Trie)
            .unwrap();
        looped
            .table_mut("words")
            .unwrap()
            .create_index("t", IndexSpec::Trie)
            .unwrap();

        let data = ["space", "spade", "star", "space", "blue"];
        let loop_rows: Vec<RowId> = data
            .iter()
            .map(|w| looped.table("words").unwrap().insert(*w).unwrap())
            .collect();
        let batch_rows = batched
            .table("words")
            .unwrap()
            .insert_many(data.iter().copied())
            .unwrap();
        assert_eq!(batch_rows, loop_rows, "row ids assigned in input order");
        for probe in ["space", "blue", "zzz"] {
            assert_eq!(
                batched
                    .query("words", Predicate::str_equals(probe))
                    .unwrap()
                    .rows()
                    .unwrap(),
                looped
                    .query("words", Predicate::str_equals(probe))
                    .unwrap()
                    .rows()
                    .unwrap(),
                "probe {probe}"
            );
        }
        // Type mismatches are rejected before anything lands; empty batches
        // are a no-op.
        assert!(batched
            .table("words")
            .unwrap()
            .insert_many([Datum::Point(Point::new(1.0, 2.0))])
            .is_err());
        assert_eq!(batched.table("words").unwrap().len(), 5);
        assert!(batched
            .table("words")
            .unwrap()
            .insert_many(Vec::<Datum>::new())
            .unwrap()
            .is_empty());
    }

    /// What a refused statement must leave as it found it: live rows, the
    /// next row id, each index's count and counted items (read through a
    /// second, typed handle on its pages), the distinct statistic and the
    /// log's next LSN.
    pub(crate) type Unchanged = (u64, RowId, Vec<(u64, u64)>, u64, Lsn);

    pub(crate) fn unchanged(db: &Database, name: &str) -> Unchanged {
        use spgist_indexes::{SpIndex, SuffixOps, SuffixTreeIndex, TrieIndex, TrieOps};
        let table = db.table(name).unwrap();
        let indexes = table.indexes.iter().map(|named| {
            let pi = named.persisted();
            let (pool, pages) = (Arc::clone(db.pool()), pi.pages.clone());
            let counts = |len: u64, stats: StorageResult<spgist_core::TreeStats>| {
                (len, stats.unwrap().items)
            };
            match named.spec {
                IndexSpec::Trie => {
                    let ops = TrieOps::with_config(pi.config);
                    let ix = TrieIndex::open_with_ops(pool, ops, pi.meta_page, pages).unwrap();
                    counts(ix.len(), ix.stats())
                }
                IndexSpec::SuffixTree => {
                    let ops = SuffixOps::with_config(pi.config);
                    let ix = SuffixTreeIndex::open_with_ops(pool, ops, pi.meta_page, pages);
                    let ix = ix.unwrap();
                    counts(ix.len(), ix.stats())
                }
                other => panic!("no typed handle for {other:?}"),
            }
        });
        (
            table.len(),
            table.row_count(),
            indexes.collect(),
            table.table_stats().distinct_values,
            db.wal.as_ref().unwrap().next_lsn(),
        )
    }

    /// `insert_many` is one pass, and still all-or-nothing: a batch refused
    /// at its k-th value (k > 0) — a value of another key type, or a word
    /// the suffix tree cannot store — takes its first k rows back out
    /// (thousands, past a merge of the suffix tree's pending list), gives
    /// their row ids back and logs nothing.
    #[test]
    fn a_batch_refused_at_its_kth_value_changes_nothing() {
        let dir = std::env::temp_dir().join(format!("spgist-refused-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.pages");
        let mut db = Database::create(&path).unwrap();
        db.create_table("words", KeyType::Varchar).unwrap();
        db.create_index("words", "trie", IndexSpec::Trie).unwrap();
        db.create_index("words", "suffix", IndexSpec::SuffixTree)
            .unwrap();
        let words = spgist_datagen::words(6_000, 0x5eed_0045);
        let table = db.table_handle("words").unwrap();
        table.insert_many(words[..1_000].iter().cloned()).unwrap();
        let before = unchanged(&db, "words");
        let answers = |db: &Database| {
            let probes = ["ab", "zq", &words[1_003][1..]].map(Predicate::str_substring);
            probes.map(|probe| {
                let mut rows = db.query("words", probe).unwrap().rows().unwrap();
                rows.sort_unstable();
                rows
            })
        };
        let answered = answers(&db);

        let refusals = [
            (3_500, Datum::Point(Point::new(1.0, 2.0)), "POINT"),
            (7, Datum::from("naïve"), "ASCII"),
        ];
        for (k, bad, says) in refusals {
            let batch = words[1_000..1_000 + k].iter().cloned().map(Datum::from);
            let batch = batch.chain([bad]).chain([Datum::from("after")]);
            let refused = table.insert_many(batch);
            assert!(
                matches!(&refused, Err(StorageError::Unsupported(msg)) if msg.contains(says)),
                "{refused:?}"
            );
            assert_eq!(unchanged(&db, "words"), before, "refused at {k}");
            assert_eq!(answers(&db), answered, "refused at {k}");
        }
        let merges = db.metrics().get("index.words.suffix.pending_merges");
        assert!(merges > Some(0), "the refused rows reached the tree");
        // The next statement gets the refused batch's first row id, and the
        // indexes answer as before it.
        assert_eq!(table.insert("zzzq").unwrap(), before.1);
        let rows = |query: Predicate| db.query("words", query).unwrap().rows().unwrap();
        assert_eq!(rows(Predicate::str_substring("zzq")), [before.1]);
        assert!(rows(Predicate::str_equals(&words[1_003])).is_empty());
        drop(table);
        db.close().unwrap();
        let db = Database::open(&path).unwrap();
        assert_eq!(db.table("words").unwrap().len(), before.0 + 1);
        assert!(db
            .query("words", Predicate::str_equals(&words[1_003]))
            .unwrap()
            .rows()
            .unwrap()
            .is_empty());
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_index_seeds_exact_distinct_statistics() {
        let mut db = Database::in_memory();
        db.create_table("words", KeyType::Varchar).unwrap();
        let table = db.table_mut("words").unwrap();
        // 40 rows over 10 distinct values, with deletions: the session
        // approximation (insert-time set, deletions ignored) drifts from the
        // live truth.
        for i in 0..40 {
            table.insert(format!("w{}", i % 10)).unwrap();
        }
        for row in 0..4 {
            // Deletes every copy of "w0" .. leaves 9 live distinct values.
            table.delete(row * 10).unwrap();
        }
        assert_eq!(
            table.table_stats().distinct_values,
            10,
            "the running approximation ignores deletions"
        );
        table.create_index("t", IndexSpec::Trie).unwrap();
        assert_eq!(
            table.table_stats().distinct_values,
            9,
            "the bulk-build scan seeds the exact live distinct count"
        );
    }

    /// Planning is an O(1) statistics read however the trees got to their
    /// current shape: `CREATE INDEX` keeps the height its bulk build
    /// accumulated, DML keeps it current, and none of them makes the next
    /// plan walk a tree.  Exactness is checked against a full walk through
    /// a second, typed handle on each index's pages.
    #[test]
    fn planning_reads_no_pages_after_ddl_and_dml() {
        use spgist_indexes::geom::Rect;
        use spgist_indexes::{
            KdTreeIndex, KdTreeOps, PointQuadtreeIndex, PointQuadtreeOps, SpIndex,
        };

        let mut db = Database::in_memory();
        db.create_table("points", KeyType::Point).unwrap();
        let point =
            |i: u64| Point::new((i * 37 % 1000) as f64 / 10.0, (i * 91 % 997) as f64 / 10.0);
        db.table("points")
            .unwrap()
            .insert_many((0..6000).map(point))
            .unwrap();
        let table = db.table_mut("points").unwrap();
        table.create_index("kd", IndexSpec::KdTree).unwrap();
        table
            .create_index("pquad", IndexSpec::PointQuadtree)
            .unwrap();

        let check = |db: &Database, when: &str| {
            let table = db.table("points").unwrap();
            let before = db.pool().stats().logical_reads;
            db.plan(
                "points",
                Predicate::point_in_rect(Rect::new(10.0, 10.0, 12.0, 12.0)),
            )
            .unwrap();
            let reads = db.pool().stats().logical_reads - before;
            assert_eq!(reads, 0, "{when}: planning read {reads} pages");
            let exact: Vec<(u64, u32)> = table
                .indexes
                .iter()
                .map(|named| {
                    let pi = named.persisted();
                    let (pool, pages) = (Arc::clone(db.pool()), pi.pages.clone());
                    let stats = if named.name == "kd" {
                        let ops = KdTreeOps::with_config(pi.config);
                        KdTreeIndex::open_with_ops(pool, ops, pi.meta_page, pages)
                            .and_then(|ix| ix.stats())
                    } else {
                        let ops = PointQuadtreeOps::with_config(pi.config);
                        PointQuadtreeIndex::open_with_ops(pool, ops, pi.meta_page, pages)
                            .and_then(|ix| ix.stats())
                    }
                    .unwrap();
                    (stats.pages, stats.max_page_height)
                })
                .collect();
            let reported: Vec<(u64, u32)> = table
                .available_indexes()
                .unwrap()
                .iter()
                .map(|ix| (ix.pages, ix.page_height))
                .collect();
            assert_eq!(reported, exact, "{when}: planner statistics vs a full walk");
        };

        check(&db, "after create_index");
        let row = db.table("points").unwrap().insert(point(7001)).unwrap();
        check(&db, "after an insert");
        db.table("points").unwrap().delete(row).unwrap();
        check(&db, "after a delete");
        let mut txn = db.begin().unwrap();
        txn.insert_many("points", (8000..8040).map(point)).unwrap();
        txn.delete("points", 17).unwrap();
        txn.abort().unwrap();
        check(&db, "after an aborted transaction");
    }

    #[test]
    fn create_index_backfills_existing_rows() {
        let mut db = word_table(3000);
        db.table_mut("words")
            .unwrap()
            .create_index("words_trie", IndexSpec::Trie)
            .unwrap();
        let available = db.table("words").unwrap().available_indexes().unwrap();
        assert_eq!(available.len(), 1);
        assert_eq!(available[0].operator_class, "SP_GiST_trie");
        assert!(
            available[0].pages > 0,
            "stats must come from the built tree"
        );
        assert!(available[0].page_height > 0);
    }

    #[test]
    fn table_delete_removes_the_row_from_heap_and_indexes() {
        let mut db = word_table(2000);
        db.table_mut("words")
            .unwrap()
            .create_index("words_trie", IndexSpec::Trie)
            .unwrap();
        let probe = {
            let Datum::Text(w) = db.table("words").unwrap().datum(123).unwrap() else {
                panic!("non-text datum");
            };
            w
        };
        let before = db
            .query("words", Predicate::str_equals(&probe))
            .unwrap()
            .rows()
            .unwrap();
        assert!(before.contains(&123));
        assert!(db.table_mut("words").unwrap().delete(123).unwrap());
        assert!(!db.table_mut("words").unwrap().delete(123).unwrap());
        let after = db
            .query("words", Predicate::str_equals(&probe))
            .unwrap()
            .rows()
            .unwrap();
        assert!(!after.contains(&123));
    }
}
