//! Set-up: build the database file a workload then opens.  Also the file
//! bookkeeping (`<db>.wal.*` sizes, bytes on disk) the cost ratios need.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use spgist_catalog::{Database, WalConfig};
use spgist_storage::{BufferPoolConfig, FilePager, Pager, StorageError, StorageResult};

use crate::data::{index_spec, Dataset, TABLES};
use crate::pager::{MeteredPager, PagerCounts, PagerMeter};
use crate::trace::Tracer;

/// WAL segment prefix of the database at `path` (`<path>.wal`, the
/// engine's own convention for `Database::create`).
pub fn wal_prefix(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

fn sibling_files(path: &Path) -> Vec<PathBuf> {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return Vec::new();
    };
    let dir = path.parent().unwrap_or(Path::new("."));
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(name))
        })
        .collect()
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Bytes currently in the WAL segments (`<path>.wal.<seq>`) of the
/// database at `path`.
pub fn wal_bytes(path: &Path) -> u64 {
    let prefix = wal_prefix(path);
    sibling_files(&prefix)
        .iter()
        .filter(|p| {
            p.extension()
                .and_then(|e| e.to_str())
                .is_some_and(|e| e.bytes().all(|b| b.is_ascii_digit()))
        })
        .map(|p| file_len(p))
        .sum()
}

/// Bytes on disk of the database at `path`: page file plus every sibling
/// (WAL segments, and a checkpoint journal if one survives).
pub fn disk_bytes(path: &Path) -> u64 {
    sibling_files(path).iter().map(|p| file_len(p)).sum()
}

/// Removes the database at `path` and its siblings.
pub fn remove_database(path: &Path) {
    for file in sibling_files(path) {
        let _ = std::fs::remove_file(file);
    }
}

/// Accumulates bytes appended to the WAL.  Checkpoints prune segments, so
/// the total is the sum of the growth between them: [`WalMeter::sample`]
/// before anything that may checkpoint, [`WalMeter::rebase`] after.
pub struct WalMeter {
    path: PathBuf,
    base: u64,
    total: u64,
}

impl WalMeter {
    /// A meter for the database at `path`, starting from its current size.
    pub fn new(path: &Path) -> Self {
        WalMeter {
            path: path.to_path_buf(),
            base: wal_bytes(path),
            total: 0,
        }
    }

    /// Adds the growth since the last sample or rebase.
    pub fn sample(&mut self) {
        let now = wal_bytes(&self.path);
        self.total += now.saturating_sub(self.base);
        self.base = now;
    }

    /// Forgets the current size (call after a checkpoint pruned the log).
    pub fn rebase(&mut self) {
        self.base = wal_bytes(&self.path);
    }

    /// Bytes appended so far.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// What one set-up cost.
#[derive(Debug, Clone, Default)]
pub struct SetupReport {
    /// Wall time of the whole build, seconds: create, bulk load, five index
    /// builds, checkpoint, close.
    pub secs: f64,
    /// Pager calls of the build.
    pub pager: PagerCounts,
    /// Bytes appended to the WAL.
    pub wal_bytes: u64,
    /// Bytes of checkpoint pre-image journal written.
    pub journal_bytes: u64,
    /// `(index class, seconds)` of each `create_index`.
    pub index_build_s: Vec<(&'static str, f64)>,
}

/// Builds the database at `path` from `dataset` through the public API:
/// `create_with_pager` (default pool, default `WalConfig`, real `fsync`),
/// one `insert_many` per table, `create_index` × 5, `checkpoint`, close.
pub fn build(
    path: &Path,
    dataset: &Dataset,
    meter: &Arc<PagerMeter>,
    tracer: &Arc<Tracer>,
) -> StorageResult<SetupReport> {
    let started = Instant::now();
    let before = meter.counts();
    let pager: Arc<dyn Pager> = Arc::new(MeteredPager::new(
        Arc::new(FilePager::create(path)?),
        Arc::clone(meter),
        Arc::clone(tracer),
    ));
    let mut db = Database::create_with_pager(
        pager,
        wal_prefix(path),
        BufferPoolConfig::default(),
        WalConfig::default(),
    )?;
    let mut wal = WalMeter::new(path);
    for (def, rows) in TABLES.iter().zip(&dataset.rows) {
        db.create_table(def.name, def.key_type)?;
        // DDL checkpoints, and a checkpoint prunes the log.
        wal.rebase();
        let table = db
            .table(def.name)
            .ok_or_else(|| StorageError::Unsupported(format!("table {} vanished", def.name)))?;
        tracer.span("setup.bulk_load", || {
            table.insert_many(rows.iter().cloned())
        })?;
        wal.sample();
    }
    let mut index_build_s = Vec::new();
    for def in &TABLES {
        for (index, class) in def.indexes {
            let t = Instant::now();
            tracer.span("setup.create_index", || {
                db.create_index(def.name, index, index_spec(class))
            })?;
            index_build_s.push((*class, t.elapsed().as_secs_f64()));
            wal.rebase();
        }
    }
    wal.sample();
    tracer.span("setup.checkpoint", || db.checkpoint())?;
    let journal_bytes = db.checkpoint_stats().journal_bytes;
    // `Database::close` is `checkpoint` + drop; the stats are read in
    // between, which `close` (it consumes the database) cannot offer.
    drop(db);
    Ok(SetupReport {
        secs: started.elapsed().as_secs_f64(),
        pager: meter.counts().since(&before),
        wal_bytes: wal.total(),
        journal_bytes,
        index_build_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;

    #[test]
    fn wal_files_are_told_apart_from_the_page_file_and_the_journal() {
        let dir = crate::run::scratch_dir("setup-files").unwrap();
        let db = dir.join("db.pages");
        std::fs::write(&db, [0u8; 100]).unwrap();
        std::fs::write(dir.join("db.pages.wal.1"), [0u8; 10]).unwrap();
        std::fs::write(dir.join("db.pages.wal.12"), [0u8; 20]).unwrap();
        std::fs::write(dir.join("db.pages.wal.ckpt"), [0u8; 7]).unwrap();
        std::fs::write(dir.join("other.pages"), [0u8; 1000]).unwrap();
        assert_eq!(wal_bytes(&db), 30);
        assert_eq!(disk_bytes(&db), 137);

        let mut meter = WalMeter::new(&db);
        std::fs::write(dir.join("db.pages.wal.12"), [0u8; 50]).unwrap();
        meter.sample();
        meter.sample();
        assert_eq!(meter.total(), 30);
        std::fs::remove_file(dir.join("db.pages.wal.1")).unwrap();
        meter.rebase();
        std::fs::write(dir.join("db.pages.wal.13"), [0u8; 5]).unwrap();
        meter.sample();
        assert_eq!(meter.total(), 35);

        remove_database(&db);
        assert_eq!(disk_bytes(&db), 0);
        assert!(dir.join("other.pages").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn build_produces_a_reopenable_database_and_a_cost_report() {
        let dir = crate::run::scratch_dir("setup-build").unwrap();
        let path = dir.join("db.pages");
        let dataset = Dataset::generate(1, &Scale::QUICK);
        let meter = Arc::new(PagerMeter::default());
        let tracer = Arc::new(Tracer::new());
        let report = build(&path, &dataset, &meter, &tracer).unwrap();
        assert!(report.secs > 0.0);
        assert!(report.pager.writes > 0 && report.pager.syncs > 0);
        assert!(
            report.wal_bytes >= dataset.user_bytes(),
            "the bulk load is logged"
        );
        assert_eq!(report.index_build_s.len(), 5);

        let db = Database::open(&path).unwrap();
        for (def, rows) in TABLES.iter().zip(&dataset.rows) {
            let table = db.table(def.name).unwrap();
            assert_eq!(table.len(), rows.len() as u64);
            assert_eq!(table.index_names().len(), def.indexes.len());
        }
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
