//! Multi-statement transactions: atomic and durable, not isolated.
//!
//! [`Database::begin`] hands out a [`Transaction`]; its statements apply
//! immediately through the same table entry points auto-commit DML uses,
//! tagged with the transaction's id in the log, and are undone in reverse
//! on abort.  The commit point is one durable `CommitTxn` record.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use spgist_core::RowId;
use spgist_storage::{StorageError, StorageResult};
use spgist_wal::{TxnId, WalRecord};

use crate::database::Database;
use crate::table::{wal_health, Table};
use crate::value::Datum;

impl Database {
    /// Opens a multi-statement transaction.  Statements run through the
    /// returned [`Transaction`] handle are applied immediately (visible to
    /// concurrent readers — atomicity and durability, not isolation) but
    /// are **acknowledged only at [`Transaction::commit`]**: none of them
    /// waits for an fsync of its own, and a crash before the commit point
    /// erases all of them.  [`Transaction::abort`] (or dropping the handle)
    /// rolls every statement back via logical undo.
    ///
    /// DDL stays auto-commit and is not available through the handle; it
    /// needs `&mut Database`, which the borrow on the open transaction
    /// denies — so a checkpoint (which must not persist uncommitted work
    /// into the no-steal data file) can never run mid-transaction.
    ///
    /// Transactions work on in-memory databases too: same atomicity via
    /// undo, no durability (there is no log to commit into).
    pub fn begin(&self) -> StorageResult<Transaction<'_>> {
        // Fail fast on a poisoned log rather than at the first statement.
        wal_health(&self.wal)?;
        let id = self.next_txn.fetch_add(1, Ordering::Relaxed);
        self.open_txns.fetch_add(1, Ordering::SeqCst);
        Ok(Transaction {
            db: self,
            id,
            began: false,
            undo: Vec::new(),
            done: false,
        })
    }
}

/// The inverse of one applied transactional statement, executed in reverse
/// order on abort.  Undo is **not** logged: if the process dies mid-abort,
/// recovery reaches the same end state by dropping the loser transaction's
/// redo records, so compensation records would be redundant.
enum UndoOp {
    /// Undo an insert statement: remove rows `first_row..first_row+count`
    /// again (their id slots stay allocated).
    InsertMany {
        table: Arc<Table>,
        first_row: RowId,
        count: u64,
    },
    /// Undo a delete: re-insert the remembered datum at its original row id.
    Delete {
        table: Arc<Table>,
        row: RowId,
        datum: Datum,
    },
}

/// A multi-statement transaction from [`Database::begin`].
///
/// Statements apply immediately and are logged with this transaction's id,
/// but none of them waits for an fsync: the **commit point is the
/// `CommitTxn` record** that [`Transaction::commit`] submits and waits on —
/// one group-committed fsync makes the whole transaction durable.  Until
/// then the transaction is a *loser*: recovery after a crash drops every
/// one of its statements (their logged row ids are preserved as dead
/// row-directory slots so later statements' ids stay aligned, but no row
/// data and no index entry survive).
///
/// [`Transaction::abort`] — or dropping the handle without committing —
/// applies logical undo in reverse statement order: inserts are removed,
/// deletes are re-inserted from the remembered datum.
///
/// What transactions do **not** provide is isolation: statements are
/// visible to concurrent readers the moment they apply, exactly like
/// auto-commit DML (see the crate's scan-semantics notes).  DDL remains
/// auto-commit and requires `&mut Database`, which this handle's shared
/// borrow denies while it is open.
pub struct Transaction<'db> {
    db: &'db Database,
    id: TxnId,
    /// Whether `BeginTxn` has been submitted (lazily, just before the first
    /// logged statement — a read-only transaction leaves no log trace).
    began: bool,
    undo: Vec<UndoOp>,
    /// Set by `commit`/`abort`; `Drop` rolls back when still false.
    done: bool,
}

impl<'db> Transaction<'db> {
    /// This transaction's id, as it appears in the log records.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Number of statements executed (and thus undoable) so far.
    pub fn statement_count(&self) -> usize {
        self.undo.len()
    }

    fn table(&self, name: &str) -> StorageResult<Arc<Table>> {
        self.db
            .table_handle(name)
            .ok_or_else(|| StorageError::Unsupported(format!("no table named {name:?}")))
    }

    /// Submits `BeginTxn` before the first logged statement, so replay sees
    /// the transaction open strictly before any of its statements.
    fn ensure_begun(&mut self) -> StorageResult<()> {
        if !self.began {
            if let Some(wal) = &self.db.wal {
                wal.submit(&WalRecord::BeginTxn { txn: self.id })?;
            }
            self.began = true;
        }
        Ok(())
    }

    /// Inserts a value into `table` under this transaction; the row id is
    /// assigned immediately but the insert is not durable (and not
    /// acknowledged) until [`Transaction::commit`].
    pub fn insert(&mut self, table: &str, datum: impl Into<Datum>) -> StorageResult<RowId> {
        let t = self.table(table)?;
        self.ensure_begun()?;
        let (row, _lsn) = t.insert_logged(datum.into(), self.id)?;
        self.undo.push(UndoOp::InsertMany {
            table: t,
            first_row: row,
            count: 1,
        });
        Ok(row)
    }

    /// Inserts a batch into `table` as one statement (one redo record)
    /// under this transaction.
    pub fn insert_many<I>(&mut self, table: &str, data: I) -> StorageResult<Vec<RowId>>
    where
        I: IntoIterator,
        I::Item: Into<Datum>,
    {
        let t = self.table(table)?;
        self.ensure_begun()?;
        let data = data.into_iter().map(Into::into);
        let (rows, _lsn) = t.insert_many_logged(data, self.id, true)?;
        if !rows.is_empty() {
            self.undo.push(UndoOp::InsertMany {
                table: t,
                first_row: rows.start,
                count: rows.end - rows.start,
            });
        }
        Ok(rows.collect())
    }

    /// Deletes a row from `table` under this transaction; returns whether
    /// the row existed.  An abort re-inserts it at the same row id.
    pub fn delete(&mut self, table: &str, row: RowId) -> StorageResult<bool> {
        let t = self.table(table)?;
        self.ensure_begun()?;
        let (datum, _lsn) = t.delete_logged(row, self.id)?;
        match datum {
            Some(datum) => {
                self.undo.push(UndoOp::Delete {
                    table: t,
                    row,
                    datum,
                });
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Commits: submits the `CommitTxn` record and waits for its batch to
    /// reach disk.  That single fsync (shared with whatever else group
    /// commit batched) is the commit point for **every** statement of the
    /// transaction — on success all of them are durable; on a crash before
    /// it, none of them survive recovery.
    ///
    /// If the log fails here the transaction's durability is unknown; the
    /// database is poisoned (fail-fast on further use) and reopening
    /// recovers to the log's actual durable horizon, where the transaction
    /// is either wholly present or wholly absent.
    pub fn commit(mut self) -> StorageResult<()> {
        self.done = true;
        if self.began {
            if let Some(wal) = &self.db.wal {
                let lsn = wal.submit(&WalRecord::CommitTxn { txn: self.id })?;
                wal.wait_durable(lsn)?;
            }
        }
        Ok(())
    }

    /// Rolls every statement back (reverse order) and marks the
    /// transaction aborted in the log.  The undo itself is unlogged — see
    /// `UndoOp` — and the `AbortTxn` marker is submitted without waiting:
    /// recovery treats the transaction as a loser with or without it.
    pub fn abort(mut self) -> StorageResult<()> {
        self.done = true;
        self.rollback()
    }

    fn rollback(&mut self) -> StorageResult<()> {
        let mut first_err = None;
        while let Some(op) = self.undo.pop() {
            let result = match &op {
                UndoOp::InsertMany {
                    table,
                    first_row,
                    count,
                } => (*first_row..first_row + count)
                    .rev()
                    .try_for_each(|row| table.undo_insert(row)),
                UndoOp::Delete { table, row, datum } => table.undo_delete(*row, datum),
            };
            if let Err(e) = result {
                first_err.get_or_insert(e);
            }
        }
        if self.began {
            if let Some(wal) = &self.db.wal {
                let _ = wal.submit(&WalRecord::AbortTxn { txn: self.id });
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Test hook: simulates the process dying with this transaction open.
    /// A real crash runs no destructors, so the handle is forgotten — no
    /// undo, no `AbortTxn`, and the open-transaction registration stays up
    /// (a later checkpoint on this `Database` fails rather than persist the
    /// orphaned uncommitted work).  The only sane follow-up is dropping the
    /// `Database` and reopening, which drops the transaction as a loser.
    ///
    /// The undo list is released first: its entries hold `Arc<Table>`
    /// handles, and leaking those would keep the WAL (and its flusher
    /// thread) alive past the `Database` drop — the kill-point harnesses
    /// rely on that drop draining every submitted record to disk.
    #[doc(hidden)]
    pub fn crash_for_test(mut self) {
        self.undo.clear();
        std::mem::forget(self);
    }
}

impl Drop for Transaction<'_> {
    /// An uncommitted transaction rolls back on drop (best-effort: undo
    /// errors cannot surface from `Drop` — call [`Transaction::abort`] to
    /// observe them).
    fn drop(&mut self) {
        if !self.done {
            let _ = self.rollback();
        }
        self.db.open_txns.fetch_sub(1, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for Transaction<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("id", &self.id)
            .field("statements", &self.undo.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::tests::word_table;
    use crate::value::KeyType;

    #[test]
    fn txn_commit_keeps_rows_and_abort_undoes_them() {
        let db = word_table(10);
        let mut txn = db.begin().unwrap();
        let r1 = txn.insert("words", "alpha").unwrap();
        let r2 = txn.insert("words", "bravo").unwrap();
        assert_eq!((r1, r2), (10, 11));
        assert_eq!(txn.statement_count(), 2);
        // Statements are visible immediately: transactions provide
        // atomicity + durability, not isolation.
        assert_eq!(db.table("words").unwrap().len(), 12);
        txn.commit().unwrap();
        assert_eq!(db.table("words").unwrap().len(), 12);

        let mut txn = db.begin().unwrap();
        txn.insert("words", "gone").unwrap();
        txn.insert_many("words", ["x", "y", "z"]).unwrap();
        assert_eq!(db.table("words").unwrap().len(), 16);
        txn.abort().unwrap();
        assert_eq!(
            db.table("words").unwrap().len(),
            12,
            "abort removes every row the transaction inserted"
        );
    }

    #[test]
    fn aborted_insert_leaves_a_dead_row_id() {
        let db = word_table(5);
        let mut txn = db.begin().unwrap();
        let dead = txn.insert("words", "ghost").unwrap();
        txn.abort().unwrap();
        // The row id burned by the aborted insert is never reused: row ids
        // stay deterministic across replay, which tombstones loser inserts.
        let live = db.table("words").unwrap().insert("alive").unwrap();
        assert_eq!(live, dead + 1);
        assert!(db.table("words").unwrap().datum(dead).is_err());
    }

    #[test]
    fn txn_delete_abort_restores_datum_at_same_row() {
        let db = word_table(10);
        let before = db.table("words").unwrap().datum(3).unwrap();
        let mut txn = db.begin().unwrap();
        assert!(txn.delete("words", 3).unwrap());
        assert!(db.table("words").unwrap().datum(3).is_err());
        // Deleting a row that is already gone is not an error.
        assert!(!txn.delete("words", 3).unwrap());
        txn.abort().unwrap();
        assert_eq!(
            db.table("words").unwrap().datum(3).unwrap(),
            before,
            "abort re-inserts the deleted datum at its original row id"
        );
    }

    #[test]
    fn txn_undo_runs_in_reverse_order() {
        let db = word_table(4);
        let mut txn = db.begin().unwrap();
        // Delete row 2, then insert; undo must first remove the insert and
        // then restore row 2, leaving exactly the original table.
        assert!(txn.delete("words", 2).unwrap());
        txn.insert("words", "fresh").unwrap();
        drop(txn); // dropping an uncommitted transaction rolls it back
        let t = db.table("words").unwrap();
        assert_eq!(t.len(), 4);
        for row in 0..4 {
            assert!(t.datum(row).is_ok(), "row {row} must survive rollback");
        }
    }

    #[test]
    fn txn_ids_are_distinct_and_missing_table_errors() {
        let db = word_table(1);
        let a = db.begin().unwrap();
        let b = db.begin().unwrap();
        assert_ne!(a.id(), b.id());
        let mut c = db.begin().unwrap();
        assert!(c.insert("missing", "x").is_err());
        assert_eq!(c.statement_count(), 0, "a failed statement logs nothing");
        a.commit().unwrap();
        b.abort().unwrap();
        c.commit().unwrap();
    }

    /// A batch refused inside a transaction is a statement that never ran:
    /// nothing logged, no undo entry, its row ids taken by the next
    /// statement — and the transaction's other statements commit or abort
    /// as if it had not been tried, before and after a crash.
    #[test]
    fn a_batch_refused_in_a_transaction_changes_nothing() {
        use crate::physical::IndexSpec;
        use crate::query::Predicate;
        use crate::table::tests::unchanged;
        let dir = std::env::temp_dir().join(format!("spgist-txn-refused-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.pages");
        {
            let mut db = Database::create(&path).unwrap();
            db.create_table("words", KeyType::Varchar).unwrap();
            db.create_index("words", "trie", IndexSpec::Trie).unwrap();
            db.create_index("words", "suffix", IndexSpec::SuffixTree)
                .unwrap();
            for (commit, word) in [(true, "kept"), (false, "gone")] {
                let mut txn = db.begin().unwrap();
                txn.insert_many("words", [1, 2].map(|i| format!("{word}-{i}")))
                    .unwrap();
                let before = unchanged(&db, "words");
                let batch = [Datum::from(format!("{word}-3")), Datum::from("naïve")];
                let refused = txn.insert_many("words", batch);
                assert!(matches!(refused, Err(StorageError::Unsupported(_))));
                assert_eq!(unchanged(&db, "words"), before);
                assert_eq!(txn.statement_count(), 1);
                let row = txn.insert("words", format!("{word}-4")).unwrap();
                assert_eq!(row, before.1, "the refused batch's first row id");
                if commit {
                    txn.commit().unwrap();
                } else {
                    txn.abort().unwrap();
                }
            }
            let table = db.table("words").unwrap();
            assert_eq!(table.len(), 3);
        } // dropped without close: recovery replays the log
        let db = Database::open(&path).unwrap();
        let rows = |needle: &str| {
            let query = Predicate::str_substring(needle);
            db.query("words", query).unwrap().rows().unwrap().len()
        };
        assert_eq!(db.table("words").unwrap().len(), 3);
        assert_eq!((rows("kept-"), rows("gone-"), rows("-3")), (3, 0, 0));
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_txn_commit_survives_reopen_and_abort_does_not() {
        let dir = std::env::temp_dir().join(format!("spgist-exec-txn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.pages");
        let dead;
        {
            let mut db = Database::create(&path).unwrap();
            db.create_table("words", KeyType::Varchar).unwrap();
            let mut txn = db.begin().unwrap();
            txn.insert("words", "committed-a").unwrap();
            txn.insert("words", "committed-b").unwrap();
            txn.commit().unwrap();
            let mut txn = db.begin().unwrap();
            dead = txn.insert("words", "aborted").unwrap();
            txn.abort().unwrap();
            db.close().unwrap();
        }
        {
            let db = Database::open(&path).unwrap();
            let t = db.table("words").unwrap();
            assert_eq!(t.len(), 2, "only the committed transaction's rows survive");
            assert!(t.datum(dead).is_err(), "the aborted row stays dead");
            // The dead slot still burns its row id after reopen.
            assert_eq!(t.insert("later").unwrap(), dead + 1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
