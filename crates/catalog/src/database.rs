//! The database facade: a catalog, a shared buffer pool and named tables.
//!
//! [`Database`] is the top-level handle — the "many scenarios, one API"
//! surface of the paper carried to its logical end.  This module holds its
//! constructors, DDL and query entry points; the three protocols that act
//! on a whole database live in their own modules, each an `impl Database`
//! block that can be read on its own: `checkpoint` (persisting the catalog
//! delta and truncating the log), `recovery` (opening a file: journal
//! rollback, catalog read, WAL replay) and `txn` (multi-statement
//! transactions).
//!
//! Tables are handed out as `Arc<Table>` handles
//! ([`Database::table_handle`]) that are `Send + Sync`; DDL
//! (`create_index` / `drop_index` / `drop_table`) requires exclusive access
//! (`&mut` / no outstanding handles), the executor's analog of PostgreSQL's
//! `AccessExclusiveLock`.  Concurrent queries run through those handles
//! from the caller's own threads, each on the one serial executor.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use spgist_storage::{
    journal, BufferPool, BufferPoolConfig, CheckpointStats, FilePager, MemPager, MetricKind,
    Metrics, PageId, StorageError, StorageResult,
};
use spgist_wal::{Wal, WalConfig, WalRecord};

use crate::am::Catalog;
use crate::durable::{self, CatalogLayout};
use crate::physical::{ExecCursor, IndexSpec};
use crate::planner::AccessPath;
use crate::query::Query;
use crate::table::Table;
use crate::value::KeyType;

/// The top-level facade: a catalog, a shared buffer pool and named tables.
///
/// Tables live behind `Arc`s: [`Database::table_handle`] clones out a
/// `Send + Sync` handle for concurrent DML and queries on other threads,
/// while [`Database::table_mut`] grants the exclusive access DDL needs (and
/// fails while handles are outstanding).
///
/// ```
/// use spgist_catalog::{Database, IndexSpec, KeyType, Predicate};
///
/// let mut db = Database::in_memory();
/// db.create_table("words", KeyType::Varchar).unwrap();
/// let table = db.table_mut("words").unwrap();
/// table.insert("space").unwrap();
/// table.insert("spade").unwrap();
/// table.create_index("words_trie", IndexSpec::Trie).unwrap();
/// let rows = db
///     .query("words", &Predicate::str_prefix("sp"))
///     .unwrap()
///     .rows()
///     .unwrap();
/// assert_eq!(rows.len(), 2);
/// ```
pub struct Database {
    pub(crate) catalog: Catalog,
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) tables: BTreeMap<String, Arc<Table>>,
    /// On-disk layout of the chunked catalog (which pages hold the root,
    /// each table's metadata, and each row/heap chunk) when this database
    /// is durable (created with [`Database::create`] or
    /// [`Database::open`]); `None` for in-memory databases, whose DDL
    /// skips catalog persistence.
    pub(crate) layout: Option<CatalogLayout>,
    /// Running checkpoint counters (chunks written/skipped, bytes, quiesce
    /// time): the `checkpoint.*` section of [`Database::metrics`].
    pub(crate) ckpt_stats: CheckpointStats,
    /// The write-ahead log of a durable database.  Every acknowledged DML
    /// statement has its redo record fsynced here before the call returns;
    /// [`Database::open`] replays records past the catalog's checkpoint
    /// LSN, so acknowledged writes survive a crash — even dropping the
    /// database without [`Database::close`] loses nothing acknowledged.
    pub(crate) wal: Option<Arc<Wal>>,
    /// Checkpoint pre-image journal path of a durable database
    /// (`<wal prefix>.ckpt`).  [`Database::checkpoint`] journals the
    /// on-disk image of every page it is about to overwrite before the
    /// first in-place write; [`Database::open`] rolls a surviving journal
    /// back, so a crash anywhere inside a checkpoint recovers the exact
    /// previous checkpoint plus the still-un-pruned log.
    pub(crate) journal: Option<PathBuf>,
    /// Page count of the file when the last checkpoint completed (at open:
    /// as found, after any journal rollback).  That checkpoint references
    /// no page at or past it, so the next one journals none of them.
    pub(crate) durable_pages: PageId,
    /// Next transaction id to hand out.  Seeded past the largest id
    /// surviving in the log at open, so a new transaction can never collide
    /// with records of an older incarnation still awaiting pruning (a
    /// collision would let an old `CommitTxn` adopt a new loser's
    /// statements during a later replay).
    pub(crate) next_txn: AtomicU64,
    /// Number of open [`Transaction`] handles.  The checkpoint protocol
    /// refuses to run while this is nonzero: the pool is no-steal, and a
    /// checkpoint taken mid-transaction would flush uncommitted work into
    /// the data file *and* cut the log below the records recovery needs to
    /// drop it.  In safe code the borrow checker already forbids the
    /// combination (`begin` borrows the database shared, `checkpoint` needs
    /// it exclusively); the counter keeps the invariant enforced for
    /// test-only escape hatches like [`Transaction::crash_for_test`].
    pub(crate) open_txns: AtomicU64,
}

/// WAL segment file prefix for the database at `path`: segments are
/// `<path>.wal.<seq>` siblings of the database file.
fn wal_prefix(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

/// Checkpoint pre-image journal path for the log at `wal_path`:
/// `<wal_path>.ckpt`, a sibling of the segments (the non-numeric suffix
/// keeps it out of the segment scan).
pub(crate) fn journal_path(wal_path: &Path) -> PathBuf {
    let mut os = wal_path.as_os_str().to_os_string();
    os.push(".ckpt");
    PathBuf::from(os)
}

impl Database {
    /// A database on an in-memory buffer pool with the paper's catalog
    /// registrations.
    pub fn in_memory() -> Self {
        Self::with_pool(BufferPool::in_memory())
    }

    /// [`Database::in_memory`] with an explicit buffer-pool configuration —
    /// the in-memory counterpart of [`Database::create_with_config`].
    ///
    /// A bounded capacity makes eviction observable at in-memory speeds, so
    /// an eviction-bounded bulk build (a `CREATE INDEX` whose working set
    /// exceeds the pool) can be demonstrated without a file.
    pub fn in_memory_with_config(config: BufferPoolConfig) -> Self {
        Self::with_pool(Arc::new(BufferPool::new(Arc::new(MemPager::new()), config)))
    }

    /// A database over an explicit buffer pool (e.g. file-backed).  The
    /// database is *not* durable — its catalog lives only in memory; use
    /// [`Database::create`] / [`Database::open`] for a reopenable database.
    pub fn with_pool(pool: Arc<BufferPool>) -> Self {
        Self::assemble(pool, BTreeMap::new(), None, 1)
    }

    /// Puts a database together from its parts.  `durable` carries the
    /// catalog layout and checkpoint-journal path of a file-backed database;
    /// the write-ahead log is attached by the caller once it may be written
    /// to (after replay, on open).
    pub(crate) fn assemble(
        pool: Arc<BufferPool>,
        tables: BTreeMap<String, Arc<Table>>,
        durable: Option<(CatalogLayout, PathBuf)>,
        next_txn: u64,
    ) -> Self {
        let (layout, journal) = durable.unzip();
        let durable_pages = pool.page_count();
        Database {
            catalog: Catalog::with_paper_defaults(),
            pool,
            tables,
            layout,
            ckpt_stats: CheckpointStats::default(),
            wal: None,
            journal,
            durable_pages,
            next_txn: AtomicU64::new(next_txn),
            open_txns: AtomicU64::new(0),
        }
    }

    /// Creates a durable database in a fresh file at `path`, with a
    /// write-ahead log in `<path>.wal.*` siblings.  The catalog meta-table
    /// is rooted at the file's first logical page and written through on
    /// every DDL statement; every acknowledged DML statement is fsynced to
    /// the log before its call returns, so a reopen after a crash recovers
    /// it (see [`Database::open`]).
    pub fn create<P: AsRef<Path>>(path: P) -> StorageResult<Self> {
        Self::create_with_config(path, BufferPoolConfig::default())
    }

    /// [`Database::create`] with an explicit buffer-pool configuration.
    ///
    /// Refuses to overwrite an existing file: creating where a database
    /// already lives would silently destroy it — open it with
    /// [`Database::open`] or delete the file first.
    pub fn create_with_config<P: AsRef<Path>>(
        path: P,
        config: BufferPoolConfig,
    ) -> StorageResult<Self> {
        let path = path.as_ref();
        if path.exists() {
            return Err(StorageError::Unsupported(format!(
                "refusing to create database over existing file {path:?}; \
                 open it with Database::open or remove it first"
            )));
        }
        let pager = Arc::new(FilePager::create(path)?);
        Self::create_with_pager(pager, wal_prefix(path), config, WalConfig::default())
    }

    /// Creates a durable database over an arbitrary pager — the hook the
    /// crash-recovery suites use to interpose a fault-injection pager
    /// (`spgist_storage::FaultPager`) between the executor and the file.
    /// WAL segments are created at `<wal_path>.<seq>`; the log always
    /// writes its own files directly (its fsyncs are the commit point and
    /// cannot go through a pager that might lie about them).
    pub fn create_with_pager(
        pager: Arc<dyn spgist_storage::Pager>,
        wal_path: impl AsRef<Path>,
        config: BufferPoolConfig,
        wal_config: WalConfig,
    ) -> StorageResult<Self> {
        // Durable databases run the pool in no-steal mode: between
        // checkpoints no data page reaches the file, so after a crash the
        // file holds exactly the state the log's replay starts from.
        let config = BufferPoolConfig {
            steal: false,
            ..config
        };
        // A stale journal from a previous database at this path must be
        // deleted, not rolled back: it holds that database's pages, and
        // the file underneath is fresh.
        let journal = journal_path(wal_path.as_ref());
        journal::discard(&journal)?;
        let pool = Arc::new(BufferPool::new(pager, config));
        let root = pool.allocate_page()?;
        if root != durable::CATALOG_ROOT {
            return Err(StorageError::Corrupt(format!(
                "fresh database file allocated page {root} first, expected the catalog root"
            )));
        }
        let layout = CatalogLayout::new_at_root(root);
        let mut db = Self::assemble(pool, BTreeMap::new(), Some((layout, journal)), 1);
        db.wal = Some(Arc::new(Wal::create(wal_path, wal_config)?));
        db.checkpoint()?;
        Ok(db)
    }

    /// Opens a previously created database file, restoring **all** tables
    /// and indexes from the durable catalog with zero rebuild scans — and
    /// then replaying the write-ahead log past the catalog's checkpoint
    /// LSN, so every statement that was acknowledged before a crash (or an
    /// unclosed drop) is back, exactly once.
    ///
    /// Fails with [`StorageError::Corrupt`] when the file is not a database
    /// file, was written by an incompatible version, or is torn past what
    /// crash recovery can explain (a torn *tail* on the last log segment is
    /// normal — that record was never acknowledged — but damage below the
    /// durable horizon is not); a corrupt database is never silently
    /// misread into wrong rows.
    pub fn open<P: AsRef<Path>>(path: P) -> StorageResult<Self> {
        Self::open_with_config(path, BufferPoolConfig::default())
    }

    /// [`Database::open`] with an explicit buffer-pool configuration.
    pub fn open_with_config<P: AsRef<Path>>(
        path: P,
        config: BufferPoolConfig,
    ) -> StorageResult<Self> {
        let path = path.as_ref();
        let pager = Arc::new(FilePager::open(path)?);
        Self::open_with_pager(pager, wal_prefix(path), config, WalConfig::default())
    }

    /// True when this database persists its catalog to a file (created with
    /// [`Database::create`] / [`Database::open`]).
    pub fn is_durable(&self) -> bool {
        self.layout.is_some()
    }

    /// Test hook: poisons the write-ahead log exactly as an I/O failure in
    /// a log write or sync would, so the fail-fast behavior above it (DML and queries
    /// rejected until a reopen recovers) can be exercised without a real
    /// disk fault.  No-op for in-memory databases.
    #[doc(hidden)]
    pub fn fail_wal_for_test(&self, msg: &str) {
        if let Some(wal) = &self.wal {
            wal.fail_for_test(msg);
        }
    }

    /// The write-ahead log of a durable database (`None` in-memory), with
    /// its durable-LSN watermark.  Its record and fsync counts and its
    /// write-and-sync time are `wal.records` / `wal.syncs` /
    /// `wal.sync_nanos` in [`Database::metrics`].
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Every engine counter in one snapshot, named `<section>.<field>`:
    /// `buffer.*` (the pool's `IoStats`), `checkpoint.*` (with
    /// `checkpoint.data_pages_flushed.<table>.<owner>`, the flushed pages of
    /// each table's heap and indexes), `wal.records`, `wal.syncs` and
    /// `wal.sync_nanos` on a durable database, and `index.<table>.<index>.*` (each index's latch
    /// and epoch counters and its pending list).  Built only when called.
    /// Meter a window with [`Metrics::delta_since`]: counters subtract,
    /// gauges keep their end value.
    pub fn metrics(&self) -> Metrics {
        let mut metrics = Metrics::default();
        self.pool.stats().export("buffer", &mut metrics);
        self.ckpt_stats.export("checkpoint", &mut metrics);
        for table in self.tables.values() {
            table.export_flushed(&mut metrics);
        }
        if let Some(wal) = &self.wal {
            metrics.push("wal.records", MetricKind::Counter, wal.written_count());
            metrics.push("wal.syncs", MetricKind::Counter, wal.sync_count());
            metrics.push("wal.sync_nanos", MetricKind::Counter, wal.sync_nanos());
        }
        for table in self.tables.values() {
            table.export_metrics(&mut metrics);
        }
        metrics
    }

    /// The system catalog (access methods and operator classes).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The shared buffer pool behind every table and index.  Its I/O
    /// counters are the `buffer.*` section of [`Database::metrics`].
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Mutable catalog access — registering or dropping operator classes
    /// changes how subsequent queries are routed, without touching any
    /// physical index.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Appends a DDL redo record after the statement's write-through
    /// checkpoint succeeded.  The record is technically redundant with that
    /// checkpoint — replay only needs it when recovering from an *earlier*
    /// checkpoint (a later one failed or was torn), where its existence
    /// checks re-execute or skip it as the image requires.  Logged after
    /// the checkpoint so a rolled-back statement leaves no record behind.
    fn log_ddl(&self, record: WalRecord) -> StorageResult<()> {
        match &self.wal {
            Some(wal) => wal.append(&record).map(|_| ()),
            None => Ok(()),
        }
    }

    /// Creates an empty table with the given key type.  On a durable
    /// database the catalog update is written through (checkpointed) before
    /// returning; if the write-through fails, the in-memory table is rolled
    /// back so memory and disk never diverge.
    pub fn create_table(&mut self, name: &str, key_type: KeyType) -> StorageResult<()> {
        if self.tables.contains_key(name) {
            return Err(StorageError::Unsupported(format!(
                "table {name:?} already exists"
            )));
        }
        let mut table = Table::create(name, key_type, Arc::clone(&self.pool))?;
        if let Some(wal) = &self.wal {
            table.attach_wal(Arc::clone(wal));
        }
        self.tables.insert(name.to_string(), Arc::new(table));
        if let Err(e) = self.checkpoint() {
            // A fresh table owns no pages yet: dropping the entry is a
            // complete rollback, and a retry can succeed.
            self.tables.remove(name);
            return Err(e);
        }
        self.log_ddl(WalRecord::CreateTable {
            table: name.to_string(),
            key_type: key_type.tag(),
        })
    }

    /// Builds a physical index on the named table, backfilling it from the
    /// existing heap rows (`CREATE INDEX`).  DDL: fails while shared handles
    /// are outstanding.  On a durable database the catalog update is written
    /// through before returning; a failed write-through drops the
    /// just-built index again (releasing its pages) so memory and disk
    /// never diverge.
    pub fn create_index(&mut self, table: &str, index: &str, spec: IndexSpec) -> StorageResult<()> {
        self.table_ddl(table)?.create_index(index, spec)?;
        if let Err(e) = self.checkpoint() {
            if let Ok(t) = self.table_ddl(table) {
                let _ = t.drop_index(index);
            }
            return Err(e);
        }
        self.log_ddl(WalRecord::CreateIndex {
            table: table.to_string(),
            index: index.to_string(),
            spec: spec.encode_spec(),
        })
    }

    /// Drops a physical index from the named table, releasing its pages;
    /// returns whether it existed.  DDL: fails while shared handles are
    /// outstanding.  The index-less catalog is persisted *before* the pages
    /// are freed, so a crash in between merely leaks pages — the on-disk
    /// catalog can never name pages that were already handed back for
    /// reuse.  A failed write-through re-attaches the index.
    pub fn drop_index(&mut self, table: &str, index: &str) -> StorageResult<bool> {
        let Some(named) = self.table_ddl(table)?.detach_index(index) else {
            return Ok(false);
        };
        if let Err(e) = self.checkpoint() {
            self.table_ddl(table)?.attach_index(named);
            return Err(e);
        }
        self.log_ddl(WalRecord::DropIndex {
            table: table.to_string(),
            index: index.to_string(),
        })?;
        named.index.destroy()?;
        Ok(true)
    }

    /// Exclusive (DDL) access to a table, as a `StorageResult` (unlike
    /// [`Database::table_mut`], which collapses "missing" and "shared" into
    /// `None`).
    fn table_ddl(&mut self, name: &str) -> StorageResult<&mut Table> {
        let arc = self
            .tables
            .get_mut(name)
            .ok_or_else(|| StorageError::Unsupported(format!("no table named {name:?}")))?;
        Arc::get_mut(arc).ok_or_else(|| {
            StorageError::Unsupported(format!(
                "cannot run DDL on table {name:?} while shared handles are outstanding"
            ))
        })
    }

    /// Drops a table, releasing its heap pages and every index's pages to
    /// the pager's free list; returns whether it existed.  Fails while
    /// shared handles from [`Database::table_handle`] are outstanding
    /// (`AccessExclusiveLock` semantics).
    pub fn drop_table(&mut self, name: &str) -> StorageResult<bool> {
        let Some(table) = self.tables.remove(name) else {
            return Ok(false);
        };
        match Arc::try_unwrap(table) {
            Ok(table) => {
                // Persist the table-less catalog *before* destroying: if
                // the checkpoint fails the table is restored untouched, and
                // a crash after the checkpoint but before the destroy only
                // leaks the pages — the on-disk catalog never names pages
                // that were already freed for reuse.
                if let Err(e) = self.checkpoint() {
                    self.tables.insert(name.to_string(), Arc::new(table));
                    return Err(e);
                }
                self.log_ddl(WalRecord::DropTable {
                    table: name.to_string(),
                })?;
                table.destroy()?;
                Ok(true)
            }
            Err(table) => {
                // Put it back: dropping a shared table would pull pages out
                // from under live handles.
                self.tables.insert(name.to_string(), table);
                Err(StorageError::Unsupported(format!(
                    "cannot drop table {name:?} while shared handles are outstanding"
                )))
            }
        }
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name).map(Arc::as_ref)
    }

    /// Clones out a shared, `Send + Sync` handle on a table for concurrent
    /// DML and queries from other threads.
    pub fn table_handle(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.get(name).cloned()
    }

    /// Looks up a table for DDL (exclusive access).  `None` if the table
    /// does not exist *or* shared handles are outstanding.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name).and_then(Arc::get_mut)
    }

    fn table_or_err(&self, name: &str) -> StorageResult<&Table> {
        self.tables
            .get(name)
            .map(Arc::as_ref)
            .ok_or_else(|| StorageError::Unsupported(format!("no table named {name:?}")))
    }

    /// Plans `query` (a [`Query`] or bare [`Predicate`](crate::Predicate)) against the named
    /// table (`EXPLAIN`).
    pub fn plan(&self, table: &str, query: impl Into<Query>) -> StorageResult<AccessPath> {
        self.table_or_err(table)?.plan(&self.catalog, query)
    }

    /// Plans and executes `query` (a [`Query`] or bare [`Predicate`](crate::Predicate))
    /// against the named table, returning a streaming cursor.
    pub fn query<'d>(
        &'d self,
        table: &str,
        query: impl Into<Query>,
    ) -> StorageResult<ExecCursor<'d>> {
        self.table_or_err(table)?.query(&self.catalog, query)
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.tables.keys().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A `words` table of `n` deterministic five-letter words, shared by
    /// the unit tests of every module above the table layer.
    pub(crate) fn word_table(n: usize) -> Database {
        let mut db = Database::in_memory();
        db.create_table("words", KeyType::Varchar).unwrap();
        let table = db.table_mut("words").unwrap();
        for i in 0..n {
            // Deterministic five-letter words over a small alphabet.
            let mut word = String::new();
            let mut v = i;
            for _ in 0..5 {
                word.push(char::from(b'a' + (v % 7) as u8));
                v /= 7;
            }
            table.insert(word).unwrap();
        }
        db
    }

    #[test]
    fn drop_index_and_drop_table_release_pages() {
        let mut db = word_table(2000);
        let before_free = db.pool().free_page_count();
        db.table_mut("words")
            .unwrap()
            .create_index("t", IndexSpec::Trie)
            .unwrap();
        assert!(db.table_mut("words").unwrap().drop_index("t").unwrap());
        assert!(
            !db.table_mut("words").unwrap().drop_index("t").unwrap(),
            "second drop finds nothing"
        );
        let freed_after_index = db.pool().free_page_count();
        assert!(
            freed_after_index > before_free,
            "dropping the index must return its pages"
        );
        assert!(db.drop_table("words").unwrap());
        assert!(!db.drop_table("words").unwrap());
        assert!(
            db.pool().free_page_count() > freed_after_index,
            "dropping the table must return its heap pages"
        );
        // A rebuilt same-sized table is served from the recycled pages.
        let pages = db.pool().page_count();
        db.create_table("words2", KeyType::Varchar).unwrap();
        let table = db.table_mut("words2").unwrap();
        for i in 0..2000u32 {
            table.insert(format!("word{i:05}")).unwrap();
        }
        assert_eq!(
            db.pool().page_count(),
            pages,
            "the file must not grow while freed pages last"
        );
    }

    #[test]
    fn ddl_requires_exclusive_access() {
        let mut db = word_table(10);
        let handle = db.table_handle("words").unwrap();
        assert!(
            db.table_mut("words").is_none(),
            "DDL access denied while a handle is outstanding"
        );
        assert!(db.drop_table("words").is_err());
        assert!(db.table("words").is_some(), "refused drop leaves the table");
        // DML through the shared handle still works.
        handle.insert("concurrent").unwrap();
        assert_eq!(handle.len(), 11);
        drop(handle);
        assert!(db.table_mut("words").is_some());
        assert!(db.drop_table("words").unwrap());
        assert!(db.table("words").is_none());
    }

    #[test]
    fn in_memory_database_is_not_durable_but_fully_functional() {
        let mut db = word_table(100);
        assert!(!db.is_durable());
        db.checkpoint().unwrap();
        db.create_index("words", "t", IndexSpec::Trie).unwrap();
        assert!(db.drop_index("words", "t").unwrap());
        assert!(!db.drop_index("words", "t").unwrap());
        assert!(db.create_index("missing", "t", IndexSpec::Trie).is_err());
        let handle = db.table_handle("words").unwrap();
        assert!(
            db.create_index("words", "t", IndexSpec::Trie).is_err(),
            "DDL refused while handles are outstanding"
        );
        drop(handle);
    }
}
