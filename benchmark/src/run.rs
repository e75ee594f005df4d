//! One run of one workload: set-up, warm-up, the measured rounds, the
//! crash-reopen verification, and the metrics.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spgist_catalog::{Database, Datum, Query, ScanSource, WalConfig};
use spgist_core::RowId;
use spgist_storage::{
    BufferPoolConfig, CheckpointStats, FilePager, IoStats, Pager, StorageError, StorageResult,
};

use crate::config::{rounds_for, Scale, Workload, ORACLE_STRIDE, SETUPS_PER_RUN};
use crate::data::{Dataset, Model, TABLES};
use crate::metrics::Values;
use crate::ops::{gen_round, hash_ops, Op, QueryKind, HASH_SEED};
use crate::oracle;
use crate::pager::{MeteredPager, PagerCounts, PagerMeter};
use crate::probes;
use crate::setup::{self, SetupReport, WalMeter};
use crate::stats::{fast_quartile, mean, median, percentile};
use crate::trace::{self_times, spans_to_json, Span, Tracer, NO_PARENT};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload.
    pub workload: Workload,
    /// Seed of the dataset and the op streams.
    pub seed: u64,
    /// Seconds to measure for: one measured round per nominal second.
    pub seconds: u64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// `--quick` scale.
    pub quick: bool,
    /// Directory for the database files (and the span file).  `None`: a
    /// fresh directory next to the executable, removed when the run ends.
    pub out: Option<PathBuf>,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct Report {
    /// The configuration that ran.
    pub config: RunConfig,
    /// Scale name.
    pub scale: &'static str,
    /// Measured rounds.
    pub rounds: usize,
    /// Ops per round.
    pub ops_per_round: usize,
    /// Every output checked was right and no op failed.
    pub correct: bool,
    /// Ops executed (warm-up, reference rounds and post-crash checks
    /// included).
    pub attempted: u64,
    /// Ops that returned an error or a wrong answer.
    pub failed: u64,
    /// First few failure messages.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub values: Values,
    /// Fingerprint of every op generated for the measured rounds.
    pub stream_hash: u64,
    /// Pages of the database file the workload opened.
    pub file_pages: u32,
    /// Pool capacity the workload ran with, pages.
    pub pool_pages: usize,
    /// Bytes of user data in the initial load.
    pub user_bytes: u64,
    /// Wall time of each measured round, seconds.
    pub round_s: Vec<f64>,
    /// Which access path served each query kind (traced runs).
    pub routes: Vec<(&'static str, String)>,
    /// Where the span file was written, if it was.
    pub span_file: Option<PathBuf>,
}

/// A run that could not be carried out at all (I/O failure, bad directory).
pub type RunError = String;

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory inside the build's target directory (next to
/// the running executable), so that a run reads and writes only inside its
/// checkout.
pub fn scratch_dir(tag: &str) -> Result<PathBuf, RunError> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let dir = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join("bench-runs")
        .join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Removes the default scratch directory when the run ends, however it ends.
struct Scratch {
    dir: PathBuf,
    remove: bool,
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if self.remove {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// Running totals of what the client did and saw.
#[derive(Debug, Clone, Default)]
struct Acct {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    queries: u64,
    rows: u64,
    index_paths: u64,
    /// Durability points: auto-commit statements + transaction commits.
    commits: u64,
    checkpoint_ms: Vec<f64>,
    quiesce_us: Vec<f64>,
    /// `Wal::next_lsn` right after the last client-issued checkpoint.
    lsn_after_checkpoint: u64,
}

impl Acct {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

fn unsupported(what: String) -> StorageError {
    StorageError::Unsupported(what)
}

/// One query, drained to completion; returns whether the plan used an index.
fn drain(db: &Database, table: &str, query: &Query, rows: &mut Vec<RowId>) -> StorageResult<bool> {
    rows.clear();
    let cursor = db.query(table, query)?;
    let uses_index = cursor.path().uses_index();
    for item in cursor {
        rows.push(item?.0);
    }
    Ok(uses_index)
}

/// The one client: the open database, the model of what it must hold, and
/// the books kept while driving it.
struct Client {
    db: Database,
    model: Model,
    tracer: Arc<Tracer>,
    wal: WalMeter,
    acct: Acct,
}

impl Client {
    /// Executes `ops`, checking every `stride`-th one against the oracle;
    /// returns the wall time with the oracle's share taken out.
    fn exec(&mut self, ops: &[Op], stride: usize) -> Duration {
        let tracer = Arc::clone(&self.tracer);
        let mut rows: Vec<RowId> = Vec::new();
        let mut excluded = Duration::ZERO;
        let started = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            self.acct.attempted += op.op_count() as u64;
            let outcome = match op {
                Op::Query { kind, query } => {
                    let table = TABLES[kind.table()].name;
                    let db = &self.db;
                    let result =
                        tracer.span(kind.span_name(), || drain(db, table, query, &mut rows));
                    if let Ok(uses_index) = result {
                        self.acct.queries += 1;
                        self.acct.rows += rows.len() as u64;
                        self.acct.index_paths += u64::from(uses_index);
                        if i % stride == 0 {
                            let t = Instant::now();
                            let verdict =
                                oracle::check(query, &self.model.tables[kind.table()], &rows);
                            excluded += t.elapsed();
                            if let Err(e) = verdict {
                                self.acct.fail(format!("wrong answer: {e}"));
                            }
                        }
                    }
                    result.map(|_| ())
                }
                Op::Insert { table, datum } => {
                    tracer.span("exec.insert", || self.insert(*table, datum))
                }
                Op::Delete { table } => tracer.span("exec.delete", || self.delete(*table)),
                Op::Txn { table, inserts } => tracer.span("exec.txn", || self.txn(*table, inserts)),
                Op::Checkpoint => self.checkpoint(),
            };
            if let Err(e) = outcome {
                self.acct.fail(format!("{op:?}: {e}"));
            }
        }
        started.elapsed().saturating_sub(excluded)
    }

    fn insert(&mut self, table: usize, datum: &Datum) -> StorageResult<()> {
        let t = self
            .db
            .table(TABLES[table].name)
            .ok_or_else(|| unsupported("table missing".into()))?;
        let row = t.insert(datum.clone())?;
        let expected = self.model.tables[table].next_row();
        self.model.insert(table, datum.clone());
        self.acct.commits += 1;
        if row == expected {
            Ok(())
        } else {
            Err(unsupported(format!(
                "insert got row {row}, expected {expected}"
            )))
        }
    }

    fn delete(&mut self, table: usize) -> StorageResult<()> {
        let row = self.model.tables[table]
            .oldest_live()
            .ok_or_else(|| unsupported("nothing left to delete".into()))?;
        let t = self
            .db
            .table(TABLES[table].name)
            .ok_or_else(|| unsupported("table missing".into()))?;
        let existed = t.delete(row)?;
        self.model.tables[table].delete(row);
        self.acct.commits += 1;
        if existed {
            Ok(())
        } else {
            Err(unsupported(format!("row {row} was already gone")))
        }
    }

    /// Inserts and deletes alternating, then the commit that acknowledges
    /// all of them.  The model follows statement by statement: a failed
    /// transaction is a failed run either way.
    fn txn(&mut self, table: usize, inserts: &[Datum]) -> StorageResult<()> {
        let tracer = Arc::clone(&self.tracer);
        let name = TABLES[table].name;
        let mut txn = self.db.begin()?;
        for datum in inserts {
            let expected = self.model.tables[table].next_row();
            let row = tracer.span("exec.txn.stmt", || txn.insert(name, datum.clone()))?;
            self.model.insert(table, datum.clone());
            if row != expected {
                return Err(unsupported(format!(
                    "insert got row {row}, expected {expected}"
                )));
            }
            let victim = self.model.tables[table]
                .oldest_live()
                .ok_or_else(|| unsupported("nothing left to delete".into()))?;
            let existed = tracer.span("exec.txn.stmt", || txn.delete(name, victim))?;
            self.model.tables[table].delete(victim);
            if !existed {
                return Err(unsupported(format!("row {victim} was already gone")));
            }
        }
        tracer.span("exec.txn.commit", || txn.commit())?;
        self.acct.commits += 1;
        Ok(())
    }

    fn checkpoint(&mut self) -> StorageResult<()> {
        self.wal.sample();
        let before = self.db.checkpoint_stats();
        let started = Instant::now();
        let db = &mut self.db;
        self.tracer.span("checkpoint", || db.checkpoint())?;
        self.acct
            .checkpoint_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        self.wal.rebase();
        let delta = self.db.checkpoint_stats().delta_since(&before);
        self.acct.quiesce_us.push(delta.quiesce_nanos as f64 / 1e3);
        self.acct.lsn_after_checkpoint = self.db.wal().map_or(0, |w| w.next_lsn());
        Ok(())
    }
}

/// Counters read before and after the measured rounds.
#[derive(Clone, Copy)]
struct Snapshot {
    io: IoStats,
    pager: PagerCounts,
    checkpoint: CheckpointStats,
    wal_records: u64,
    wal_syncs: u64,
    wal_bytes: u64,
    cpu_us: f64,
}

impl Snapshot {
    fn take(db: &Database, meter: &PagerMeter, wal: &mut WalMeter) -> Self {
        wal.sample();
        Snapshot {
            io: db.pool().stats(),
            pager: meter.counts(),
            checkpoint: db.checkpoint_stats(),
            wal_records: db.wal().map_or(0, |w| w.written_count()),
            wal_syncs: db.wal().map_or(0, |w| w.sync_count()),
            wal_bytes: wal.total(),
            cpu_us: cpu_us(),
        }
    }
}

/// CPU time of the process so far (user + system), µs, from
/// `/proc/self/stat` at the kernel's 100 Hz tick (the std-only stand-in for
/// `getrusage`); 0 where `/proc` is missing.
fn cpu_us() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks * 10_000.0
}

/// Peak resident set size of the process, MB (`VmHWM`); 0 where `/proc` is
/// missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Opens the database at `path` behind the metered pager, with a pool of
/// `pool_of(file pages)` frames; returns the file's pages and the pool's
/// capacity with it.
fn open_database(
    path: &Path,
    pool_of: impl Fn(u32) -> usize,
    meter: &Arc<PagerMeter>,
    tracer: &Arc<Tracer>,
) -> StorageResult<(Database, u32, usize)> {
    let file = FilePager::open(path)?;
    let file_pages = file.page_count();
    let capacity = pool_of(file_pages);
    let pager: Arc<dyn Pager> = Arc::new(MeteredPager::new(
        Arc::new(file),
        Arc::clone(meter),
        Arc::clone(tracer),
    ));
    let config = BufferPoolConfig {
        capacity,
        ..BufferPoolConfig::default()
    };
    let db =
        Database::open_with_pager(pager, setup::wal_prefix(path), config, WalConfig::default())?;
    Ok((db, file_pages, capacity))
}

/// Checks the reopened database against the model: live-row counts always,
/// every row id (present with the right value, or absent) when `every_row`.
fn verify(db: &Database, model: &Model, every_row: bool, acct: &mut Acct) {
    for (def, want) in TABLES.iter().zip(&model.tables) {
        let Some(table) = db.table(def.name) else {
            acct.fail(format!("table {} is gone after reopen", def.name));
            continue;
        };
        if table.len() != want.live {
            acct.fail(format!(
                "table {} has {} live rows after reopen, the model {}",
                def.name,
                table.len(),
                want.live
            ));
        }
        if !every_row {
            continue;
        }
        let mut mismatches = 0u64;
        for (row, expected) in want.rows.iter().enumerate() {
            match table.try_datum(row as RowId) {
                Ok(got) if got.as_ref() == expected.as_ref() => {}
                _ => mismatches += 1,
            }
        }
        if !matches!(table.try_datum(want.next_row()), Ok(None)) {
            mismatches += 1;
        }
        if mismatches > 0 {
            acct.fail(format!(
                "table {}: {mismatches} rows differ from what was acknowledged",
                def.name
            ));
        }
    }
}

fn render_source(source: &ScanSource) -> String {
    match source {
        ScanSource::Heap => "heap".into(),
        ScanSource::Index { name } => name.clone(),
        ScanSource::OrderedIndex { name } => format!("ordered({name})"),
        ScanSource::Filter { input } => format!("filter({})", render_source(input)),
        ScanSource::Limit { input } => format!("limit({})", render_source(input)),
        ScanSource::Intersect { inputs } => {
            format!(
                "intersect({})",
                inputs
                    .iter()
                    .map(render_source)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        }
        ScanSource::Union { inputs } => {
            format!(
                "union({})",
                inputs
                    .iter()
                    .map(render_source)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        }
    }
}

/// The access path the engine picks for the first query of each kind in
/// `ops`.
fn routes(db: &Database, ops: &[Op]) -> Vec<(&'static str, String)> {
    QueryKind::ALL
        .into_iter()
        .filter_map(|want| {
            ops.iter().find_map(|op| match op {
                Op::Query { kind, query } if *kind == want => {
                    let cursor = db.query(TABLES[kind.table()].name, query).ok()?;
                    Some((want.name(), render_source(cursor.source())))
                }
                _ => None,
            })
        })
        .collect()
}

/// Runs one workload.
pub fn run(config: &RunConfig) -> Result<Report, RunError> {
    let scale = &if config.quick {
        Scale::QUICK
    } else {
        Scale::FULL
    };
    let workload = config.workload;
    let rounds = rounds_for(config.seconds, config.quick);
    let scratch = match &config.out {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            Scratch {
                dir: dir.clone(),
                remove: false,
            }
        }
        None => Scratch {
            dir: scratch_dir(workload.name())?,
            remove: true,
        },
    };
    let engine = |e: StorageError| format!("engine error outside the measured ops: {e}");
    let tracer = Arc::new(Tracer::new());
    let meter = Arc::new(PagerMeter::default());
    let dataset = Dataset::generate(config.seed, scale);
    let model = Model::from_dataset(&dataset);
    let mut values = Values::default();

    // Set-up, into a fresh file each time; the last one is kept.  A traced
    // run builds once (it reports no `setup_s`) and records the build spans.
    let path = scratch.dir.join("db.pages");
    let setups = if config.trace { 1 } else { SETUPS_PER_RUN };
    tracer.set_enabled(config.trace);
    let mut builds: Vec<SetupReport> = Vec::new();
    for _ in 0..setups {
        setup::remove_database(&path);
        builds.push(setup::build(&path, &dataset, &meter, &tracer).map_err(engine)?);
    }
    tracer.set_enabled(false);
    let kept = builds.last().expect("at least one set-up").clone();
    let setup_s = builds.iter().map(|b| b.secs).fold(f64::INFINITY, f64::min);
    let after_setup = meter.counts();

    // Open with the workload's own pool size and warm up, untimed.
    let pool_of = |file_pages: u32| match workload {
        Workload::QueryCold => {
            ((f64::from(file_pages) * scale.cold_pool_fraction).round() as usize).max(8)
        }
        _ => (f64::from(file_pages) * scale.hot_pool_factor).ceil() as usize,
    };
    let opened = Instant::now();
    let (db, file_pages, pool_pages) =
        open_database(&path, pool_of, &meter, &tracer).map_err(engine)?;
    let clean_open_ms = opened.elapsed().as_secs_f64() * 1e3;
    let mut client = Client {
        db,
        model,
        tracer: Arc::clone(&tracer),
        wal: WalMeter::new(&path),
        acct: Acct::default(),
    };
    let round_ops = |round: u32| gen_round(workload, config.seed, round, scale, &dataset);
    client.exec(&round_ops(0), ORACLE_STRIDE);

    // The measured rounds.  Ops are generated before the round's clock
    // starts; the clock excludes the oracle.
    let before = Snapshot::take(&client.db, &meter, &mut client.wal);
    let acct_before = client.acct.clone();
    let mut stream_hash = HASH_SEED;
    let mut round_s = Vec::with_capacity(rounds);
    tracer.set_enabled(config.trace);
    for round in 1..=rounds as u32 {
        let ops = round_ops(round);
        stream_hash = hash_ops(stream_hash, &ops);
        tracer.set_round(round);
        round_s.push(client.exec(&ops, ORACLE_STRIDE).as_secs_f64());
    }
    tracer.set_enabled(false);
    tracer.set_round(0);
    let after = Snapshot::take(&client.db, &meter, &mut client.wal);
    let acct_after = client.acct.clone();

    // One round of the read mix, for everything below that wants
    // representative queries: routes, post-crash spot checks, planner probe.
    let query_mix = gen_round(Workload::QueryHot, config.seed, 1, scale, &dataset);

    // A traced run appends untraced reference rounds: the same loop without
    // spans, to price the tracing itself.
    let mut reference_s = Vec::new();
    let mut route_list = Vec::new();
    if config.trace {
        for round in 0..scale.reference_rounds as u32 {
            let ops = round_ops(rounds as u32 + 1 + round);
            reference_s.push(client.exec(&ops, ORACLE_STRIDE).as_secs_f64());
        }
        route_list = routes(&client.db, &query_mix);
    }

    // Crash: drop the database without `close`, reopen, and hold the
    // recovered state against everything that was acknowledged.
    let Client {
        db,
        model,
        mut wal,
        mut acct,
        ..
    } = client;
    wal.sample();
    let wal_bytes_at_open = setup::wal_bytes(&path);
    let lsn_at_crash = db.wal().map_or(0, |w| w.next_lsn());
    let records_to_replay = if workload.writes() {
        lsn_at_crash.saturating_sub(acct.lsn_after_checkpoint)
    } else {
        0
    };
    let mut journal_bytes = db.checkpoint_stats().journal_bytes;
    drop(db);
    let reads_before = meter.counts().reads;
    let reopened = Instant::now();
    let (db, _, _) = open_database(&path, |_| pool_pages, &meter, &tracer).map_err(engine)?;
    let reopen_s = reopened.elapsed().as_secs_f64();
    let open_reads = meter.counts().reads - reads_before;
    wal.rebase();
    verify(&db, &model, workload.writes(), &mut acct);
    // The recovered indexes must answer like the model too: the leading
    // cycles of the query mix, every answer oracle-checked.
    let spot_checks = &query_mix[..3 * QueryKind::ALL.len()];
    let mut client = Client {
        db,
        model,
        tracer: Arc::clone(&tracer),
        wal,
        acct,
    };
    client.exec(spot_checks, 1);

    // A final checkpoint, then the sizes the cost ratios need.
    client.wal.sample();
    client.db.checkpoint().map_err(engine)?;
    let Client {
        db,
        model,
        wal,
        acct,
        ..
    } = client;
    journal_bytes += db.checkpoint_stats().journal_bytes;
    let disk_bytes = setup::disk_bytes(&path);
    let run_pager = meter.counts().since(&after_setup);
    let bytes_written = kept.pager.bytes_written()
        + kept.wal_bytes
        + kept.journal_bytes
        + run_pager.bytes_written()
        + wal.total()
        + journal_bytes;
    let ops_per_round = scale.ops_per_round(workload);
    let ops_per_s = ops_per_round as f64 / fast_quartile(&round_s);

    let mut span_file = None;
    if config.trace {
        let spans = tracer.spans();
        let measured_wall: f64 = round_s.iter().sum();
        let d_acct = AcctDelta::between(&acct_before, &acct_after);
        span_values(&mut values, &spans, measured_wall);
        counter_values(
            &mut values,
            &before,
            &after,
            &d_acct,
            rounds * ops_per_round,
            measured_wall,
        );
        values.set("client.round_s_p50", median(&round_s));
        values.set(
            "client.round_s_max",
            round_s.iter().copied().fold(0.0, f64::max),
        );
        values.set(
            "client.failed_ops_share",
            acct.failed as f64 / acct.attempted.max(1) as f64,
        );
        values.set("recovery.reopen_s", reopen_s);
        values.set("recovery.clean_open_ms", clean_open_ms);
        values.set("recovery.records_replayed", records_to_replay as f64);
        values.set("recovery.wal_bytes_at_open", wal_bytes_at_open as f64);
        values.set("recovery.open_reads", open_reads as f64);
        let reference_ops_per_s = ops_per_round as f64 / fast_quartile(&reference_s);
        values.set(
            "trace.overhead_share",
            1.0 - ops_per_s / reference_ops_per_s,
        );
        for (class, secs) in &kept.index_build_s {
            let table = TABLES
                .iter()
                .position(|def| def.indexes.iter().any(|(_, c)| c == class))
                .expect("every class belongs to a table");
            values.set(
                format!("core.bulk_build_keys_per_s.{class}"),
                dataset.rows[table].len() as f64 / secs,
            );
        }
        for def in &TABLES {
            let table = db.table(def.name).ok_or("table gone before the probes")?;
            for index in table.available_indexes().map_err(engine)? {
                if let Some((_, class)) = def.indexes.iter().find(|(name, _)| *name == index.name) {
                    values.set(format!("core.index_pages.{class}"), index.pages as f64);
                    values.set(
                        format!("core.page_height.{class}"),
                        f64::from(index.page_height),
                    );
                }
            }
        }
        // Unit costs the façade hides, probed now that nothing else is
        // being measured.
        probes::planner(&mut values, &db, &query_mix, scale);
        drop(db);
        probes::layers(
            &mut values,
            &scratch.dir,
            &path,
            &dataset,
            scale,
            config.seed,
        )
        .map_err(engine)?;
        if workload == Workload::QueryHot {
            probes::baselines(&mut values, &scratch.dir, &dataset, scale, config.seed)
                .map_err(engine)?;
        }
        if config.out.is_some() {
            let file = scratch.dir.join(format!("trace-{}.json", workload.name()));
            let json = spans_to_json(workload.name(), config.seed, &spans).to_line();
            std::fs::write(&file, json)
                .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
            span_file = Some(file);
        }
    } else {
        drop(db);
        values.set("setup_s", setup_s);
        values.set("ops_per_s", ops_per_s);
        values.set(
            "write_amp",
            bytes_written as f64 / model.ingested_bytes as f64,
        );
        values.set("space_amp", disk_bytes as f64 / model.live_bytes() as f64);
        values.set("peak_rss_mb", peak_rss_mb());
    }

    Ok(Report {
        config: config.clone(),
        scale: scale.name,
        rounds,
        ops_per_round,
        correct: acct.failed == 0,
        attempted: acct.attempted,
        failed: acct.failed,
        errors: acct.errors,
        values,
        stream_hash,
        file_pages,
        pool_pages,
        user_bytes: dataset.user_bytes(),
        round_s,
        routes: route_list,
        span_file,
    })
}

/// What the client counted during the measured rounds.
struct AcctDelta {
    queries: u64,
    rows: u64,
    index_paths: u64,
    commits: u64,
    checkpoint_ms: Vec<f64>,
    quiesce_us: Vec<f64>,
}

impl AcctDelta {
    fn between(before: &Acct, after: &Acct) -> Self {
        AcctDelta {
            queries: after.queries - before.queries,
            rows: after.rows - before.rows,
            index_paths: after.index_paths - before.index_paths,
            commits: after.commits - before.commits,
            checkpoint_ms: after.checkpoint_ms[before.checkpoint_ms.len()..].to_vec(),
            quiesce_us: after.quiesce_us[before.quiesce_us.len()..].to_vec(),
        }
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Per-layer values read off the spans of the measured rounds.
fn span_values(values: &mut Values, spans: &[Span], measured_wall: f64) {
    let selfs = self_times(spans);
    let us = |ns: u64| ns as f64 / 1e3;
    let in_round = |s: &Span| s.round > 0;
    let durations = |pick: &dyn Fn(&Span) -> bool| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| in_round(s) && pick(s))
            .map(|s| us(s.duration_ns()))
            .collect()
    };

    let mut query_self = Vec::new();
    for kind in QueryKind::ALL {
        let name = kind.span_name();
        values.set(
            format!("exec.query_us.{}", kind.name()),
            mean(&durations(&|s| s.name == name)),
        );
        query_self.extend(
            spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| in_round(s) && s.name == name)
                .map(|(_, self_ns)| us(*self_ns)),
        );
    }
    values.set("exec.cpu_us_per_query", mean(&query_self));
    let reads = durations(&|s| s.name.starts_with("exec.query."));
    values.set("client.read_p50_us", percentile(&reads, 50.0));
    values.set("client.read_p99_us", percentile(&reads, 99.0));
    let inserts = durations(&|s| s.name == "exec.insert");
    let deletes = durations(&|s| s.name == "exec.delete");
    values.set("exec.insert_us", mean(&inserts));
    values.set("exec.delete_us", mean(&deletes));
    let writes: Vec<f64> = inserts.iter().chain(&deletes).copied().collect();
    values.set("client.write_p50_us", percentile(&writes, 50.0));
    values.set("client.write_p99_us", percentile(&writes, 99.0));
    values.set(
        "exec.txn_stmt_us",
        mean(&durations(&|s| s.name == "exec.txn.stmt")),
    );
    let commits = durations(&|s| s.name == "exec.txn.commit");
    values.set("exec.txn_commit_us", mean(&commits));
    values.set("client.commit_p50_us", percentile(&commits, 50.0));
    values.set("client.commit_p99_us", percentile(&commits, 99.0));

    let covered: u64 = spans
        .iter()
        .filter(|s| in_round(s) && s.parent == NO_PARENT)
        .map(Span::duration_ns)
        .sum();
    values.set("trace.coverage", ratio(covered as f64 / 1e9, measured_wall));
}

/// Per-layer values that are differences of the engine's own counters over
/// the measured rounds.
fn counter_values(
    values: &mut Values,
    before: &Snapshot,
    after: &Snapshot,
    acct: &AcctDelta,
    ops: usize,
    measured_wall: f64,
) {
    let ops = ops as f64;
    values.set(
        "planner.index_path_share",
        ratio(acct.index_paths as f64, acct.queries as f64),
    );
    values.set(
        "exec.rows_per_query",
        ratio(acct.rows as f64, acct.queries as f64),
    );
    values.set("client.cpu_us_per_op", (after.cpu_us - before.cpu_us) / ops);

    let io = after.io.delta_since(&before.io);
    values.set("buffer.logical_reads_per_op", io.logical_reads as f64 / ops);
    values.set(
        "buffer.physical_reads_per_op",
        io.physical_reads as f64 / ops,
    );
    values.set("buffer.hit_rate", io.hit_ratio());
    values.set("buffer.evictions_per_op", io.evictions as f64 / ops);
    values.set("buffer.physical_writes", io.physical_writes as f64);

    let pager = after.pager.since(&before.pager);
    values.set("pager.reads", pager.reads as f64);
    values.set("pager.writes", pager.writes as f64);
    values.set("pager.syncs", pager.syncs as f64);
    values.set("pager.bytes_written", pager.bytes_written() as f64);
    values.set("pager.read_s", pager.read_ns as f64 / 1e9);
    values.set("pager.write_s", pager.write_ns as f64 / 1e9);
    values.set("pager.sync_s", pager.sync_ns as f64 / 1e9);
    values.set(
        "pager.wall_share",
        ratio(
            (pager.read_ns + pager.write_ns + pager.sync_ns) as f64 / 1e9,
            measured_wall,
        ),
    );

    let records = after.wal_records - before.wal_records;
    let syncs = after.wal_syncs - before.wal_syncs;
    let bytes = after.wal_bytes - before.wal_bytes;
    values.set("wal.records", records as f64);
    values.set("wal.syncs", syncs as f64);
    values.set(
        "wal.commits_per_sync",
        ratio(acct.commits as f64, syncs as f64),
    );
    values.set("wal.bytes", bytes as f64);
    values.set("wal.bytes_per_record", ratio(bytes as f64, records as f64));

    let ckpt = after.checkpoint.delta_since(&before.checkpoint);
    values.set("checkpoint.count", ckpt.checkpoints as f64);
    values.set("checkpoint.chunks_written", ckpt.chunks_written as f64);
    values.set("checkpoint.chunks_skipped", ckpt.chunks_skipped as f64);
    values.set(
        "checkpoint.data_pages_flushed",
        ckpt.data_pages_flushed as f64,
    );
    values.set("checkpoint.catalog_bytes", ckpt.catalog_bytes as f64);
    values.set("checkpoint.journal_bytes", ckpt.journal_bytes as f64);
    values.set("checkpoint.wall_ms_p50", median(&acct.checkpoint_ms));
    values.set(
        "checkpoint.wall_ms_max",
        acct.checkpoint_ms.iter().copied().fold(0.0, f64::max),
    );
    values.set(
        "checkpoint.quiesce_us_max",
        acct.quiesce_us.iter().copied().fold(0.0, f64::max),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::WORDS;
    use spgist_catalog::Predicate;

    /// A small database on disk plus the model that describes it.
    fn fixture(tag: &str) -> (PathBuf, Database, Model, Dataset) {
        let dir = scratch_dir(tag).unwrap();
        let path = dir.join("db.pages");
        let dataset = Dataset::generate(3, &Scale::QUICK);
        let meter = Arc::new(PagerMeter::default());
        let tracer = Arc::new(Tracer::new());
        setup::build(&path, &dataset, &meter, &tracer).unwrap();
        let (db, _, _) = open_database(&path, |_| 512, &meter, &tracer).unwrap();
        let model = Model::from_dataset(&dataset);
        (dir, db, model, dataset)
    }

    fn client(db: Database, model: Model, path: &Path) -> Client {
        Client {
            db,
            model,
            tracer: Arc::new(Tracer::new()),
            wal: WalMeter::new(path),
            acct: Acct::default(),
        }
    }

    #[test]
    fn a_deliberately_wrong_result_flips_correct() {
        let (dir, db, model, dataset) = fixture("run-wrong");
        let mut client = client(db, model, &dir.join("db.pages"));
        let Datum::Text(word) = dataset.rows[WORDS][7].clone() else {
            unreachable!("words are text")
        };
        let ops = [Op::Query {
            kind: QueryKind::TrieEq,
            query: Predicate::str_equals(&word).into(),
        }];
        client.exec(&ops, 1);
        assert_eq!((client.acct.attempted, client.acct.failed), (1, 0));

        // Make the ground truth disagree with the engine: the model forgets
        // a row the engine still (rightly) returns.
        client.model.tables[WORDS].delete(7);
        client.exec(&ops, 1);
        assert_eq!((client.acct.attempted, client.acct.failed), (2, 1));
        assert!(
            client.acct.errors[0].contains("wrong answer"),
            "{:?}",
            client.acct.errors
        );

        // The post-crash verification notices the same disagreement.
        let mut acct = Acct::default();
        verify(&client.db, &client.model, true, &mut acct);
        assert!(acct.failed >= 1);
        drop(client);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn dml_keeps_the_model_and_the_engine_in_step_across_a_crash() {
        let (dir, db, model, dataset) = fixture("run-dml");
        let path = dir.join("db.pages");
        let mut client = client(db, model, &path);
        let ops = gen_round(Workload::Ingest, 3, 1, &Scale::QUICK, &dataset);
        client.exec(&ops, 1);
        let Client {
            db, model, acct, ..
        } = client;
        assert_eq!(acct.failed, 0, "{:?}", acct.errors);
        assert_eq!(acct.attempted as usize, Scale::QUICK.ingest_ops);
        assert_eq!(acct.checkpoint_ms.len(), Scale::QUICK.ingest_checkpoints);
        // Dropped without `close`: everything acknowledged must come back.
        drop(db);
        let meter = Arc::new(PagerMeter::default());
        let (db, _, _) = open_database(&path, |_| 512, &meter, &Arc::new(Tracer::new())).unwrap();
        let mut acct = Acct::default();
        verify(&db, &model, true, &mut acct);
        assert_eq!(acct.failed, 0, "{:?}", acct.errors);
        drop(db);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
