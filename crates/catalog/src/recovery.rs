//! Recovery: opening a database file.
//!
//! [`Database::open_with_pager`] is the whole protocol: roll back a
//! surviving checkpoint journal, read the durable catalog, reopen every
//! table and index from it, then replay the write-ahead log past the
//! catalog's checkpoint LSN — winners and auto-commit statements applied,
//! loser transactions dropped — and fold the replayed tail into a fresh
//! checkpoint.  Replay re-executes statements through the same two table
//! primitives live DML uses; nothing here knows how a query is planned.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::Arc;

use spgist_core::RowId;
use spgist_storage::{journal, BufferPool, BufferPoolConfig, StorageError, StorageResult};
use spgist_wal::{TxnId, Wal, WalConfig, WalRecord, AUTOCOMMIT};

use crate::database::{journal_path, Database};
use crate::durable;
use crate::physical::IndexSpec;
use crate::table::Table;
use crate::value::KeyType;

impl Database {
    /// Opens a durable database over an arbitrary pager (the
    /// fault-injection counterpart of [`Database::create_with_pager`]).
    pub fn open_with_pager(
        pager: Arc<dyn spgist_storage::Pager>,
        wal_path: impl AsRef<Path>,
        config: BufferPoolConfig,
        wal_config: WalConfig,
    ) -> StorageResult<Self> {
        let config = BufferPoolConfig {
            steal: false,
            ..config
        };
        // A surviving checkpoint journal means the last checkpoint may be
        // torn — an arbitrary subset of its in-place page writes may have
        // hit the platter.  Roll every journaled pre-image back *before*
        // reading the catalog: that restores the exact previous checkpoint
        // image, and the log (un-pruned — pruning happens after the
        // journal is deleted) replays everything acknowledged since.
        let journal = journal_path(wal_path.as_ref());
        journal::recover(&journal, pager.as_ref())?;
        let pool = Arc::new(BufferPool::new(pager, config));
        let (persisted, layout) = durable::read_catalog(&pool)?;
        let mut tables = BTreeMap::new();
        for pt in &persisted.tables {
            let table = Table::from_persisted(Arc::clone(&pool), pt).map_err(|e| {
                StorageError::Corrupt(format!("table {:?} does not reopen: {e}", pt.name))
            })?;
            tables.insert(pt.name.clone(), Arc::new(table));
        }
        let (wal, records) = Wal::open(wal_path, wal_config, persisted.checkpoint_lsn)?;
        let wal = Arc::new(wal);
        // Pass 1 over the surviving records: which transactions have a
        // durable `CommitTxn`?  Everything else is a *loser* — the crash
        // (or an explicit abort) got there before the commit point — and
        // none of its statements may apply.  Pass 2 below still walks the
        // records in LSN order, because row ids were assigned in execution
        // order across transactions; a loser's inserts are replayed as dead
        // row-directory slots so every later record's ids line up.
        let winners: HashSet<TxnId> = records
            .iter()
            .filter_map(|(_, record)| match record {
                WalRecord::CommitTxn { txn } => Some(*txn),
                _ => None,
            })
            .collect();
        let max_txn = records
            .iter()
            .map(|(_, record)| record.txn())
            .max()
            .unwrap_or(AUTOCOMMIT);
        // Replay runs with the log detached so the re-executed statements
        // are not logged again.
        let mut db = Self::assemble(pool, tables, Some((layout, journal)), max_txn + 1);
        let replayed = records.len();
        for (lsn, record) in records {
            db.replay_record(record, &winners).map_err(|e| {
                StorageError::Corrupt(format!("WAL replay failed at lsn {lsn}: {e}"))
            })?;
        }
        db.wal = Some(Arc::clone(&wal));
        for table in db.tables.values_mut() {
            Arc::get_mut(table)
                .expect("tables are exclusively owned during open")
                .attach_wal(Arc::clone(&wal));
        }
        if replayed > 0 {
            // Fold the replayed tail into a fresh checkpoint so the log
            // shrinks instead of being replayed again (and again) across
            // reopens.
            db.checkpoint()?;
        }
        Ok(db)
    }

    /// The table a recovered record names, exclusively owned (no handle has
    /// been given out yet).
    fn replay_table(&mut self, name: &str) -> StorageResult<&mut Table> {
        let table = self.tables.get_mut(name).ok_or_else(|| {
            StorageError::Corrupt(format!("WAL record names unknown table {name:?}"))
        })?;
        Ok(Arc::get_mut(table).expect("tables are exclusively owned during replay"))
    }

    fn replay_insert(
        &mut self,
        table: &str,
        first_row: RowId,
        records: Vec<Vec<u8>>,
        committed: bool,
    ) -> StorageResult<()> {
        let table = self.replay_table(table)?;
        if committed {
            table.replay_insert(first_row, records)
        } else {
            table.replay_loser_insert(first_row, records.len() as u64)
        }
    }

    /// Applies one recovered redo record.  Each case is idempotent against
    /// the checkpoint image (the log cut can overlap it — see
    /// [`Database::checkpoint`]): DML verifies row-id positions, DDL checks
    /// existence before re-executing.
    ///
    /// `winners` is the set of transactions whose `CommitTxn` survived in
    /// the log.  A DML record of any other transaction is a *loser*: its
    /// insert only allocates dead row-id slots (keeping later ids aligned)
    /// and its delete is skipped outright — none of its changes, and no
    /// index entries, reach the recovered state.
    fn replay_record(&mut self, record: WalRecord, winners: &HashSet<TxnId>) -> StorageResult<()> {
        let committed = |txn: TxnId| txn == AUTOCOMMIT || winners.contains(&txn);
        match record {
            // A winner's (or auto-commit) insert applies; a loser's only
            // allocates its row ids, as dead slots.
            WalRecord::Insert {
                table,
                row,
                datum,
                txn,
            } => self.replay_insert(&table, row, vec![datum], committed(txn)),
            WalRecord::InsertMany {
                table,
                first_row,
                datums,
                txn,
            } => self.replay_insert(&table, first_row, datums, committed(txn)),
            WalRecord::Delete { table, row, txn } => {
                if committed(txn) {
                    self.replay_table(&table)?.replay_delete(row)
                } else {
                    // A loser's delete never happened: the row stays (the
                    // live abort path restored it via undo before the
                    // crash, or the crash itself pre-empted the delete's
                    // commit).
                    Ok(())
                }
            }
            // Transaction control records carry no state of their own;
            // their effect is the winner/loser split computed in pass 1.
            WalRecord::BeginTxn { .. }
            | WalRecord::CommitTxn { .. }
            | WalRecord::AbortTxn { .. } => Ok(()),
            WalRecord::CreateTable { table, key_type } => {
                if self.tables.contains_key(&table) {
                    return Ok(()); // already in the checkpoint image
                }
                let t =
                    Table::create(&table, KeyType::from_tag(key_type)?, Arc::clone(&self.pool))?;
                self.tables.insert(table, Arc::new(t));
                Ok(())
            }
            WalRecord::DropTable { table } => {
                let Some(t) = self.tables.remove(&table) else {
                    return Ok(());
                };
                Arc::try_unwrap(t)
                    .expect("tables are exclusively owned during replay")
                    .destroy()
            }
            WalRecord::CreateIndex { table, index, spec } => {
                let spec = IndexSpec::decode_spec(&spec)?;
                let t = self.replay_table(&table)?;
                if t.index_names().contains(&index.as_str()) {
                    return Ok(());
                }
                t.create_index(&index, spec)
            }
            WalRecord::DropIndex { table, index } => {
                self.replay_table(&table)?.drop_index(&index).map(|_| ())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;
    use crate::value::Datum;
    use spgist_indexes::geom::Point;

    #[test]
    fn durable_database_reopens_tables_and_indexes() {
        let dir = std::env::temp_dir().join(format!("spgist-exec-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.pages");
        {
            let mut db = Database::create(&path).unwrap();
            assert!(db.is_durable());
            db.create_table("words", KeyType::Varchar).unwrap();
            // Enough rows that the planner routes selective predicates to
            // the index instead of the (honestly cheaper on tiny tables)
            // sequential scan.
            for i in 0..3000u32 {
                let mut word = String::new();
                let mut v = i;
                for _ in 0..5 {
                    word.push(char::from(b'a' + (v % 7) as u8));
                    v /= 7;
                }
                db.table_mut("words").unwrap().insert(word).unwrap();
            }
            for w in ["space", "spade", "star", "blue"] {
                db.table_mut("words").unwrap().insert(w).unwrap();
            }
            db.create_index("words", "words_trie", IndexSpec::Trie)
                .unwrap();
            db.create_table("pts", KeyType::Point).unwrap();
            db.table_mut("pts")
                .unwrap()
                .insert(Point::new(3.0, 4.0))
                .unwrap();
            db.close().unwrap();
        }
        {
            let mut db = Database::open(&path).unwrap();
            assert_eq!(
                db.table("words").unwrap().index_names(),
                vec!["words_trie"],
                "indexes restore from the catalog"
            );
            assert_eq!(db.table("words").unwrap().len(), 3004);
            assert_eq!(db.table("pts").unwrap().len(), 1);
            let cursor = db.query("words", Predicate::str_prefix("sp")).unwrap();
            assert!(
                cursor.source().scans_index("words_trie"),
                "reopened index serves queries"
            );
            let rows = cursor.rows().unwrap();
            assert_eq!(rows.len(), 2);
            // The database stays fully operational: DML, DDL, drop.
            db.table_handle("words").unwrap().insert("spark").unwrap();
            assert_eq!(
                db.query("words", Predicate::str_prefix("sp"))
                    .unwrap()
                    .rows()
                    .unwrap()
                    .len(),
                3
            );
            assert!(db.drop_index("words", "words_trie").unwrap());
            assert!(db.drop_table("words").unwrap());
            db.close().unwrap();
        }
        {
            // Third generation sees the second generation's DDL.
            let db = Database::open(&path).unwrap();
            assert!(db.table("words").is_none(), "dropped table stays dropped");
            assert_eq!(db.table("pts").unwrap().len(), 1);
        }
        // Creating over an existing database is refused, not a silent wipe.
        assert!(
            Database::create(&path).is_err(),
            "create must refuse to overwrite an existing database file"
        );
        assert_eq!(
            Database::open(&path).unwrap().table("pts").unwrap().len(),
            1,
            "the refused create must leave the file untouched"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_open_txn_is_a_loser_after_unclean_shutdown() {
        let dir = std::env::temp_dir().join(format!("spgist-exec-loser-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.pages");
        {
            let mut db = Database::create(&path).unwrap();
            db.create_table("words", KeyType::Varchar).unwrap();
            db.table_mut("words").unwrap().insert("auto-0").unwrap();
            let mut txn = db.begin().unwrap();
            txn.insert("words", "loser-1").unwrap();
            txn.insert("words", "loser-2").unwrap();
            // Interleave an auto-commit write so loser tombstones must keep
            // later row ids aligned during replay.
            db.table("words").unwrap().insert("auto-3").unwrap();
            let mut txn2 = db.begin().unwrap();
            txn2.insert("words", "winner-4").unwrap();
            txn2.commit().unwrap();
            txn.crash_for_test();
            // Crash without close(): drop(db) drains the WAL queue, so
            // every submitted record is on disk — but no CommitTxn for the
            // first transaction ever was.
        }
        {
            let db = Database::open(&path).unwrap();
            let t = db.table("words").unwrap();
            assert_eq!(t.datum(0).unwrap(), Datum::Text("auto-0".into()));
            assert!(t.datum(1).is_err(), "loser insert dropped");
            assert!(t.datum(2).is_err(), "loser insert dropped");
            assert_eq!(t.datum(3).unwrap(), Datum::Text("auto-3".into()));
            assert_eq!(t.datum(4).unwrap(), Datum::Text("winner-4".into()));
            assert_eq!(t.len(), 3, "two auto-commit rows plus the winner");
            // Row-id determinism: the next insert lands after the tombstones.
            assert_eq!(t.insert("next").unwrap(), 5);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
