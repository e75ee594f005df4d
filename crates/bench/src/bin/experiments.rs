//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p spgist-bench --release --bin experiments -- all
//! cargo run -p spgist-bench --release --bin experiments -- fig6 --scale 2
//! ```
//!
//! Subcommands: `table7`, `fig6`..`fig17` (Figures 6–12 share one string run,
//! 13–14 one point run), `ablation-clustering`, `ablation-trie`, `wal`,
//! `all`.  `--scale N` multiplies the dataset sizes (default 1);
//! `--queries N` sets the number of queries per measurement (default 100).
//! With `--json-dir DIR`, every experiment also writes a machine-readable
//! `BENCH_<experiment>.json` artifact into DIR.
//!
//! Two extra commands drive the CI crash-recovery smoke test and take
//! `--db PATH`: `crash-writer` runs an endless acknowledged-write workload
//! mixing auto-commit inserts with multi-statement transactions — committed
//! ones are acknowledged after `commit()` returns, aborted ones leave
//! absence promises — and is meant to be SIGKILLed mid-run (sometimes with
//! a transaction open); `crash-verify` reopens the database and checks
//! every acknowledged commit survived and no aborted value resurfaced.

use spgist_bench::loc::{crate_report, table7};
use spgist_bench::stats::{log10_ratio, ratio_pct};
use spgist_bench::{
    point_sizes, run_build_experiment, run_checkpoint_experiment, run_clustering_ablation,
    run_hot_writer_scaling, run_io_patterns_on, run_mixed_workload, run_nn_experiments,
    run_point_experiments, run_read_scaling, run_reopen_experiment, run_segment_experiments,
    run_string_experiments, run_substring_experiments, run_trie_variant_ablation,
    run_wal_experiment, word_sizes, write_build_json, write_rows_json, IoBackend, JsonVal, NN_KS,
};

struct Options {
    command: String,
    scale: usize,
    queries: usize,
    /// Directory machine-readable artifacts (`BENCH_<experiment>.json`) are
    /// written into; `None` prints tables only.
    json_dir: Option<std::path::PathBuf>,
    /// Database file for `crash-writer` / `crash-verify`.
    db: Option<std::path::PathBuf>,
    /// Pager backend for `io-patterns`: in-memory (default) or a real file
    /// under the OS temp directory.
    backend: IoBackend,
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut command = String::from("all");
    let mut scale = 1usize;
    let mut queries = 100usize;
    let mut json_dir = None;
    let mut db = None;
    let mut backend = IoBackend::Mem;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--scale needs a positive integer"));
            }
            "--queries" => {
                queries = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--queries needs a positive integer"));
            }
            "--json-dir" => {
                json_dir =
                    Some(std::path::PathBuf::from(args.next().unwrap_or_else(|| {
                        usage("--json-dir needs a directory path")
                    })));
            }
            "--db" => {
                db = Some(std::path::PathBuf::from(
                    args.next()
                        .unwrap_or_else(|| usage("--db needs a file path")),
                ));
            }
            "--backend" => {
                backend = args
                    .next()
                    .as_deref()
                    .and_then(IoBackend::parse)
                    .unwrap_or_else(|| usage("--backend needs `mem` or `file`"));
            }
            "--help" | "-h" => usage(""),
            other if !other.starts_with('-') => command = other.to_string(),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Options {
        command,
        scale,
        queries,
        json_dir,
        db,
        backend,
    }
}

fn usage(message: &str) -> ! {
    if !message.is_empty() {
        eprintln!("error: {message}");
    }
    eprintln!(
        "usage: experiments [table7|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|fig14|fig15|fig16|fig17|ablation-clustering|ablation-trie|concurrency|reopen|build|wal|io-patterns|checkpoint|all] [--scale N] [--queries N] [--json-dir DIR] [--backend mem|file]\n       experiments crash-writer --db PATH\n       experiments crash-verify --db PATH"
    );
    std::process::exit(if message.is_empty() { 0 } else { 2 });
}

/// Writes `BENCH_<experiment>.json` into `--json-dir` when set.
fn emit_json(opts: &Options, experiment: &str, columns: &[&str], rows: &[Vec<JsonVal>]) {
    if let Some(dir) = &opts.json_dir {
        let path = write_rows_json(dir, experiment, opts.scale, columns, rows)
            .unwrap_or_else(|e| panic!("write BENCH_{experiment}.json: {e}"));
        println!("wrote {}", path.display());
        println!();
    }
}

const SEED: u64 = 20060403;

fn main() {
    let opts = parse_args();
    match opts.command.as_str() {
        "crash-writer" => run_crash_writer(&opts),
        "crash-verify" => run_crash_verify(&opts),
        _ => {}
    }
    let run_all = opts.command == "all";
    let wants = |name: &str| run_all || opts.command == name;

    if wants("table7") {
        print_table7(&opts);
    }
    let string_figs = ["fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"];
    if run_all || string_figs.contains(&opts.command.as_str()) {
        print_string_figures(&opts, run_all);
    }
    if wants("fig13") || wants("fig14") {
        print_point_figures(&opts, run_all);
    }
    if wants("fig15") {
        print_segment_figure(&opts);
    }
    if wants("fig16") {
        print_substring_figure(&opts);
    }
    if wants("fig17") {
        print_nn_figure(&opts);
    }
    if wants("ablation-clustering") {
        print_clustering_ablation(&opts);
    }
    if wants("ablation-trie") {
        print_trie_ablation(&opts);
    }
    if wants("concurrency") {
        print_concurrency(&opts);
    }
    if wants("reopen") {
        print_reopen(&opts);
    }
    if wants("build") {
        print_build(&opts);
    }
    if wants("wal") {
        print_wal(&opts);
    }
    if wants("io-patterns") {
        print_io_patterns(&opts);
    }
    if wants("checkpoint") {
        print_checkpoint(&opts);
    }
}

fn print_io_patterns(opts: &Options) {
    let n = 20_000 * opts.scale.max(1);
    let queries = opts.queries.max(16);
    let rows = run_io_patterns_on(n, queries, SEED, opts.backend);
    println!(
        "== I/O patterns: pool size x workload ({n} points, {} backend) ==",
        opts.backend.name()
    );
    println!(
        "{:>10} {:>6} {:>7} {:>8} {:>9} {:>9} {:>7} {:>9} {:>11} {:>9}",
        "workload",
        "pool%",
        "frames",
        "queries",
        "logical",
        "physical",
        "evict",
        "hit rate",
        "elapsed ms",
        "p99 ms"
    );
    for r in &rows {
        println!(
            "{:>10} {:>6} {:>7} {:>8} {:>9} {:>9} {:>7} {:>9.4} {:>11.2} {:>9.4}",
            r.workload,
            r.pool_pct,
            r.frames,
            r.queries,
            r.logical_reads,
            r.physical_reads,
            r.evictions,
            r.hit_rate,
            r.elapsed_ms,
            r.p99_ms
        );
    }
    println!();
    emit_json(
        opts,
        "io_patterns",
        &[
            "backend",
            "workload",
            "pool_pct",
            "frames",
            "data_pages",
            "queries",
            "logical_reads",
            "physical_reads",
            "evictions",
            "hit_rate",
            "elapsed_ms",
            "p99_ms",
            "result_rows",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.backend.into(),
                    r.workload.into(),
                    r.pool_pct.into(),
                    r.frames.into(),
                    r.data_pages.into(),
                    r.queries.into(),
                    r.logical_reads.into(),
                    r.physical_reads.into(),
                    r.evictions.into(),
                    r.hit_rate.into(),
                    r.elapsed_ms.into(),
                    r.p99_ms.into(),
                    r.result_rows.into(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn print_checkpoint(opts: &Options) {
    // Sizes grow with --scale: the acceptance sweep (1 M rows) needs
    // --scale 4 or more; the per-PR smoke stays CI-friendly.
    let mut sizes = vec![10_000usize, 50_000];
    if opts.scale >= 2 {
        sizes.push(100_000);
    }
    if opts.scale >= 4 {
        sizes.push(1_000_000);
    }
    let rows = run_checkpoint_experiment(&sizes, SEED);
    println!("== Checkpoint: incremental vs full rewrite, size x fraction mutated ==");
    println!(
        "{:>9} {:>6} {:>7} {:>12} {:>9} {:>7} {:>7} {:>10} {:>10} {:>7} {:>10} {:>10} {:>10} {:>9}",
        "rows",
        "pct",
        "chunks",
        "mode",
        "wall ms",
        "wrote",
        "skip",
        "cat B",
        "jrnl B",
        "pages",
        "quiesce us",
        "stall p99",
        "io bytes",
        "vs full"
    );
    for r in &rows {
        println!(
            "{:>9} {:>6} {:>7} {:>12} {:>9.2} {:>7} {:>7} {:>10} {:>10} {:>7} {:>10.1} {:>10.1} {:>10} {:>9.1}",
            r.rows,
            r.pct_mutated,
            r.chunks_mutated,
            r.mode,
            r.wall_ms,
            r.chunks_written,
            r.chunks_skipped,
            r.catalog_bytes,
            r.journal_bytes,
            r.data_pages_flushed,
            r.quiesce_us,
            r.stall_p99_us,
            r.io_bytes,
            r.io_ratio_vs_full
        );
    }
    // The acceptance summary: how much less I/O does the incremental path
    // do at <=1% mutated?  The bar is >=10x at 1 M rows.
    for r in rows
        .iter()
        .filter(|r| r.mode == "incremental" && r.pct_mutated <= 1.0)
    {
        println!(
            "{} rows @ {}% mutated: incremental does {:.1}x less checkpoint I/O than full rewrite",
            r.rows, r.pct_mutated, r.io_ratio_vs_full
        );
    }
    println!();
    emit_json(
        opts,
        "checkpoint",
        &[
            "rows",
            "pct_mutated",
            "chunks_mutated",
            "mode",
            "wall_ms",
            "chunks_written",
            "chunks_skipped",
            "catalog_bytes",
            "journal_bytes",
            "data_pages_flushed",
            "quiesce_us",
            "stall_p99_us",
            "io_bytes",
            "io_ratio_vs_full",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.rows.into(),
                    r.pct_mutated.into(),
                    r.chunks_mutated.into(),
                    r.mode.into(),
                    r.wall_ms.into(),
                    r.chunks_written.into(),
                    r.chunks_skipped.into(),
                    r.catalog_bytes.into(),
                    r.journal_bytes.into(),
                    r.data_pages_flushed.into(),
                    r.quiesce_us.into(),
                    r.stall_p99_us.into(),
                    r.io_bytes.into(),
                    r.io_ratio_vs_full.into(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn print_wal(opts: &Options) {
    let thread_counts = [1usize, 2, 4, 8];
    let commits_per_thread = (opts.queries * 2).clamp(50, 2_000);
    let rows = run_wal_experiment(&thread_counts, commits_per_thread);
    println!("== WAL: commit throughput, per-commit fsync vs group commit ==");
    println!(
        "{:>12} {:>8} {:>8} {:>11} {:>11} {:>9} {:>9} {:>7} {:>11}",
        "mode",
        "threads",
        "commits",
        "elapsed ms",
        "commits/s",
        "mean ms",
        "p99 ms",
        "syncs",
        "commit/sync"
    );
    for r in &rows {
        println!(
            "{:>12} {:>8} {:>8} {:>11.1} {:>11.0} {:>9.4} {:>9.4} {:>7} {:>11.1}",
            r.mode,
            r.threads,
            r.commits,
            r.elapsed_ms,
            r.throughput_cps,
            r.mean_ms,
            r.p99_ms,
            r.syncs,
            r.commits_per_sync
        );
    }
    for &threads in &thread_counts[1..] {
        let per = rows
            .iter()
            .find(|r| r.threads == threads && r.mode == "per-commit");
        let group = rows
            .iter()
            .find(|r| r.threads == threads && r.mode == "group");
        if let (Some(per), Some(group)) = (per, group) {
            println!(
                "group-commit speedup at {threads} writers: {:.2}x ({:.0} vs {:.0} commits/s)",
                group.throughput_cps / per.throughput_cps.max(1e-9),
                group.throughput_cps,
                per.throughput_cps
            );
        }
    }
    println!();
    emit_json(
        opts,
        "wal",
        &[
            "mode",
            "threads",
            "commits",
            "elapsed_ms",
            "throughput_cps",
            "mean_ms",
            "p99_ms",
            "syncs",
            "commits_per_sync",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.mode.into(),
                    r.threads.into(),
                    r.commits.into(),
                    r.elapsed_ms.into(),
                    r.throughput_cps.into(),
                    r.mean_ms.into(),
                    r.p99_ms.into(),
                    r.syncs.into(),
                    r.commits_per_sync.into(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// `crash-writer --db PATH`: an endless acknowledged-write workload for
/// the CI crash-recovery smoke test.  Each round mixes three shapes:
///
/// * **auto-commit inserts** — after every insert the database
///   acknowledges, the `(row, value)` pair is appended to `PATH.ack`;
/// * **a committed multi-statement transaction** — its `(row, value)`
///   pairs are appended only after `commit()` returns, i.e. after the
///   `CommitTxn` record is sealed and fsynced, so every complete positive
///   ack line is a durability promise;
/// * **an aborted multi-statement transaction** — its rows are appended
///   as `! row value` *absence* promises: no recovered row may ever hold
///   an aborted value.  (The line carries the value rather than just the
///   row id because a row id burned only by never-durable loser records
///   may legitimately be re-issued to a later committed insert.)
///
/// The harness SIGKILLs this process mid-run — sometimes mid-statement
/// inside an open transaction, which must then recover as a loser — and
/// `crash-verify` checks both promise kinds against the reopened
/// database.  Checkpoints run every round so the kill also lands
/// mid-checkpoint some of the time.
fn run_crash_writer(opts: &Options) -> ! {
    let db_path = opts
        .db
        .clone()
        .unwrap_or_else(|| usage("crash-writer needs --db PATH"));
    if let Some(parent) = db_path.parent() {
        std::fs::create_dir_all(parent).expect("create --db parent directory");
    }
    let mut db = if db_path.exists() {
        spgist_catalog::Database::open(&db_path).expect("reopen database")
    } else {
        spgist_catalog::Database::create(&db_path).expect("create database")
    };
    if db.table("log").is_none() {
        db.create_table("log", spgist_catalog::KeyType::Varchar)
            .expect("create log table");
    }
    let mut ack = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(ack_path(&db_path))
        .expect("open ack file");

    let mut committed = 0u64;
    let mut txn_serial = 0u64;
    loop {
        use std::io::Write as _;
        let table = db.table_handle("log").expect("log table");
        for _ in 0..256 {
            let value = format!("v{:08}", table.len());
            let row = table.insert(value.clone()).expect("acknowledged insert");
            // The database acknowledged the commit; only now does the ack
            // file learn about it, so every complete ack line is a promise
            // the reopened database must honor.
            writeln!(ack, "{row} {value}").expect("append ack line");
            committed += 1;
        }
        drop(table);

        // A committed multi-statement transaction.  The kill window covers
        // the whole episode: if SIGKILL lands before commit() returns, no
        // ack line was written and recovery may legitimately drop the txn;
        // once commit() returns the CommitTxn record is durable and every
        // statement below is promised.
        let mut txn = db.begin().expect("begin committed txn");
        let mut staged = Vec::new();
        for stmt in 0..8 {
            let value = format!("t{txn_serial:06}.{stmt}");
            let row = txn.insert("log", value.clone()).expect("txn insert");
            staged.push((row, value));
        }
        txn.commit().expect("commit txn");
        for (row, value) in staged {
            writeln!(ack, "{row} {value}").expect("append ack line");
            committed += 1;
        }

        // An aborted multi-statement transaction: its values must never be
        // visible again, in this process or after any crash.
        let mut txn = db.begin().expect("begin aborted txn");
        let mut doomed = Vec::new();
        for stmt in 0..4 {
            let value = format!("x{txn_serial:06}.{stmt}");
            let row = txn.insert("log", value.clone()).expect("txn insert");
            doomed.push((row, value));
        }
        txn.abort().expect("abort txn");
        for (row, value) in doomed {
            writeln!(ack, "! {row} {value}").expect("append absence line");
        }
        txn_serial += 1;

        // Periodic checkpoints put data pages + catalog writes in the kill
        // window too, not just log appends.  (All transactions above are
        // closed — the no-steal pool refuses to checkpoint otherwise.)
        db.checkpoint().expect("checkpoint");
        println!("committed {committed}");
    }
}

/// `crash-verify --db PATH`: reopens a (possibly SIGKILLed) database and
/// asserts every acknowledged commit recorded in `PATH.ack` survived, and
/// that no `! row value` absence promise (an aborted transaction's
/// statement) resurfaced as a live row holding that value.
fn run_crash_verify(opts: &Options) -> ! {
    let db_path = opts
        .db
        .clone()
        .unwrap_or_else(|| usage("crash-verify needs --db PATH"));
    let db = spgist_catalog::Database::open(&db_path).expect("reopen after crash");
    let table = db.table("log").expect("log table survived");
    let ack = std::fs::read_to_string(ack_path(&db_path)).expect("read ack file");

    let lines: Vec<&str> = ack.lines().collect();
    let complete = if ack.ends_with('\n') {
        lines.len()
    } else {
        // The writer was killed mid-append; the torn final line was never
        // a completed acknowledgment handoff, so it is not checked.
        lines.len().saturating_sub(1)
    };
    let mut verified = 0u64;
    let mut absent = 0u64;
    for line in &lines[..complete] {
        if let Some(rest) = line.strip_prefix("! ") {
            // Absence promise: an aborted transaction's statement.  The row
            // id may have been re-issued to a later committed insert (the
            // burn is only durable if the loser's records reached disk), so
            // the invariant is value-keyed: this row must not hold the
            // aborted value.
            let (row, value) = rest
                .split_once(' ')
                .unwrap_or_else(|| panic!("malformed absence line {line:?}"));
            let row: u64 = row.parse().expect("absence row id");
            if let Some(datum) = table.try_datum(row).expect("read row") {
                assert_ne!(
                    datum,
                    spgist_catalog::Datum::Text(value.to_string()),
                    "aborted row {row} resurfaced after crash"
                );
            }
            absent += 1;
            continue;
        }
        let (row, value) = line
            .split_once(' ')
            .unwrap_or_else(|| panic!("malformed ack line {line:?}"));
        let row: u64 = row.parse().expect("ack row id");
        let datum = table
            .try_datum(row)
            .expect("read recovered row")
            .unwrap_or_else(|| panic!("acknowledged row {row} lost after crash"));
        assert_eq!(
            datum,
            spgist_catalog::Datum::Text(value.to_string()),
            "acknowledged row {row} recovered with the wrong value"
        );
        verified += 1;
    }
    assert!(
        table.len() >= verified,
        "table holds {} rows but {verified} commits were acknowledged",
        table.len()
    );
    println!(
        "crash-verify: {verified} acknowledged commits all recovered, \
         {absent} aborted statements stayed invisible ({} rows in table)",
        table.len()
    );
    std::process::exit(0);
}

/// The acknowledgment journal the crash smoke test keeps next to the
/// database file.
fn ack_path(db_path: &std::path::Path) -> std::path::PathBuf {
    let mut s = db_path.as_os_str().to_os_string();
    s.push(".ack");
    std::path::PathBuf::from(s)
}

fn print_build(opts: &Options) {
    let rows = run_build_experiment(opts.scale, SEED);
    println!("== Build: insert-loop vs spgistbuild bulk build (eviction-bounded pool) ==");
    println!(
        "{:>10} {:>8} {:>11} {:>9} {:>9} {:>9} {:>7} {:>7} {:>9} {:>9} {:>7} {:>7} {:>6} {:>6} {:>8}",
        "class",
        "rows",
        "insert ms",
        "bulk ms",
        "ins wr",
        "bulk wr",
        "ins hr",
        "bulk hr",
        "ins pg",
        "bulk pg",
        "ins h",
        "bulk h",
        "ins f",
        "bulk f",
        "speedup"
    );
    for r in &rows {
        println!(
            "{:>10} {:>8} {:>11.1} {:>9.1} {:>9} {:>9} {:>7.3} {:>7.3} {:>9} {:>9} {:>7} {:>7} {:>6.2} {:>6.2} {:>7.1}x",
            r.class,
            r.rows,
            r.insert.ms,
            r.bulk.ms,
            r.insert.writes,
            r.bulk.writes,
            r.insert.hit_rate,
            r.bulk.hit_rate,
            r.insert.pages,
            r.bulk.pages,
            r.insert.page_height,
            r.bulk.page_height,
            r.insert.fill,
            r.bulk.fill,
            r.speedup()
        );
    }
    println!(
        "(wr = physical page writes incl. final flush; hr = pool hit rate; h = tree height in pages; f = page fill)"
    );
    println!();
    if let Some(dir) = &opts.json_dir {
        write_build_json(&rows, opts.scale, dir).expect("write BENCH_build.json");
        println!("wrote {}", dir.join("BENCH_build.json").display());
        println!();
    }
}

fn print_reopen(opts: &Options) {
    // Durable-catalog experiment: build → close → cold open vs. rebuilding
    // from raw data, on a file-backed database.
    let sizes: Vec<usize> = [10_000usize, 40_000]
        .iter()
        .map(|n| n * opts.scale.max(1))
        .collect();
    let rows = run_reopen_experiment(&sizes, SEED);
    println!("== Reopen: durable-catalog cold open vs. rebuild from scratch ==");
    println!(
        "{:>10} {:>10} {:>13} {:>10} {:>11} {:>8} {:>14} {:>13} {:>9}",
        "rows",
        "pages",
        "rebuild ms",
        "open ms",
        "open reads",
        "cold hr",
        "1st query ms",
        "warm query ms",
        "speedup"
    );
    for r in &rows {
        println!(
            "{:>10} {:>10} {:>13.1} {:>10.2} {:>11} {:>8.3} {:>14.3} {:>13.3} {:>8.0}x",
            r.rows,
            r.file_pages,
            r.rebuild_ms,
            r.open_ms,
            r.open_reads,
            r.cold_hit_rate,
            r.first_query_ms,
            r.warm_query_ms,
            r.rebuild_ms / r.open_ms.max(1e-9)
        );
    }
    println!("(open reads = physical page reads at open: catalog chain + tree meta pages only; cold hr = pool hit rate through the first query)");
    println!();
    emit_json(
        opts,
        "reopen",
        &[
            "rows",
            "file_pages",
            "rebuild_ms",
            "open_ms",
            "open_reads",
            "cold_hit_rate",
            "first_query_ms",
            "warm_query_ms",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.rows.into(),
                    r.file_pages.into(),
                    r.rebuild_ms.into(),
                    r.open_ms.into(),
                    r.open_reads.into(),
                    r.cold_hit_rate.into(),
                    r.first_query_ms.into(),
                    r.warm_query_ms.into(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn print_table7(opts: &Options) {
    let rows = table7();
    println!("== Table 7: external-method code size per index ==");
    println!(
        "{:<16} {:>16} {:>18}",
        "index", "external lines", "% of total code"
    );
    for row in &rows {
        println!(
            "{:<16} {:>16} {:>17.1}%",
            row.index, row.external_lines, row.percent_of_total
        );
    }
    println!();
    emit_json(
        opts,
        "table7",
        &["index", "external_lines", "percent_of_total"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.index.clone().into(),
                    r.external_lines.into(),
                    r.percent_of_total.into(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let report = crate_report();
    println!("== Lines of code per crate (counted: non-blank, non-comment) ==");
    println!("{:<14} {:>12} {:>12}", "crate", "production", "test");
    for loc in &report {
        println!("{:<14} {:>12} {:>12}", loc.name, loc.production, loc.test);
    }
    println!(
        "{:<14} {:>12} {:>12}",
        "total",
        report.iter().map(|l| l.production).sum::<usize>(),
        report.iter().map(|l| l.test).sum::<usize>()
    );
    println!();
    emit_json(
        opts,
        "loc",
        &["crate", "production_lines", "test_lines"],
        &report
            .iter()
            .map(|l| vec![l.name.clone().into(), l.production.into(), l.test.into()])
            .collect::<Vec<_>>(),
    );
}

fn print_string_figures(opts: &Options, run_all: bool) {
    let sizes = word_sizes(opts.scale);
    let rows = run_string_experiments(&sizes, opts.queries, SEED);
    let show = |fig: &str| run_all || opts.command == fig;

    if show("fig6") {
        println!("== Figure 6: search time relative performance, (B+-tree / trie) x 100 ==");
        println!(
            "{:>10} {:>22} {:>22}",
            "keys", "exact match (ratio %)", "prefix match (ratio %)"
        );
        for r in &rows {
            println!(
                "{:>10} {:>22.1} {:>22.1}",
                r.size,
                ratio_pct(r.btree_exact_ms, r.trie_exact_ms),
                ratio_pct(r.btree_prefix_ms, r.trie_prefix_ms)
            );
        }
        println!();
    }
    if show("fig7") {
        println!("== Figure 7: regular-expression search, log10(B+-tree / trie) ==");
        println!(
            "{:>10} {:>14} {:>14} {:>12}",
            "keys", "trie (ms)", "btree (ms)", "log10 ratio"
        );
        for r in &rows {
            println!(
                "{:>10} {:>14.4} {:>14.4} {:>12.2}",
                r.size,
                r.trie_regex_ms,
                r.btree_regex_ms,
                log10_ratio(r.btree_regex_ms, r.trie_regex_ms)
            );
        }
        println!();
    }
    if show("fig8") {
        println!("== Figure 8: trie exact-match search time standard deviation ==");
        println!("{:>10} {:>14} {:>14}", "keys", "mean (ms)", "stddev (ms)");
        for r in &rows {
            println!(
                "{:>10} {:>14.4} {:>14.4}",
                r.size, r.trie_exact_ms, r.trie_exact_stddev_ms
            );
        }
        println!();
    }
    if show("fig9") {
        println!("== Figure 9: insert time relative performance, (B+-tree / trie) x 100 ==");
        println!(
            "{:>10} {:>14} {:>14} {:>12}",
            "keys", "trie (ms)", "btree (ms)", "ratio %"
        );
        for r in &rows {
            println!(
                "{:>10} {:>14.1} {:>14.1} {:>12.1}",
                r.size,
                r.trie_insert_ms,
                r.btree_insert_ms,
                ratio_pct(r.btree_insert_ms, r.trie_insert_ms)
            );
        }
        println!();
    }
    if show("fig10") {
        println!("== Figure 10: relative index size, (B+-tree / trie) x 100 ==");
        println!(
            "{:>10} {:>14} {:>14} {:>12}",
            "keys", "trie pages", "btree pages", "ratio %"
        );
        for r in &rows {
            println!(
                "{:>10} {:>14} {:>14} {:>12.1}",
                r.size,
                r.trie_pages,
                r.btree_pages,
                ratio_pct(r.btree_pages as f64, r.trie_pages as f64)
            );
        }
        println!();
    }
    if show("fig11") {
        println!("== Figure 11: maximum tree height in nodes ==");
        println!("{:>10} {:>12} {:>12}", "keys", "B-tree", "SP-GiST trie");
        for r in &rows {
            println!(
                "{:>10} {:>12} {:>12}",
                r.size, r.btree_height, r.trie_node_height
            );
        }
        println!();
    }
    if show("fig12") {
        println!("== Figure 12: maximum tree height in pages ==");
        println!("{:>10} {:>12} {:>12}", "keys", "B-tree", "SP-GiST trie");
        for r in &rows {
            println!(
                "{:>10} {:>12} {:>12}",
                r.size, r.btree_height, r.trie_page_height
            );
        }
        println!();
    }
    emit_json(
        opts,
        "strings",
        &[
            "size",
            "trie_exact_ms",
            "btree_exact_ms",
            "trie_exact_stddev_ms",
            "trie_prefix_ms",
            "btree_prefix_ms",
            "trie_regex_ms",
            "btree_regex_ms",
            "trie_insert_ms",
            "btree_insert_ms",
            "trie_pages",
            "btree_pages",
            "trie_node_height",
            "trie_page_height",
            "btree_height",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.size.into(),
                    r.trie_exact_ms.into(),
                    r.btree_exact_ms.into(),
                    r.trie_exact_stddev_ms.into(),
                    r.trie_prefix_ms.into(),
                    r.btree_prefix_ms.into(),
                    r.trie_regex_ms.into(),
                    r.btree_regex_ms.into(),
                    r.trie_insert_ms.into(),
                    r.btree_insert_ms.into(),
                    r.trie_pages.into(),
                    r.btree_pages.into(),
                    r.trie_node_height.into(),
                    r.trie_page_height.into(),
                    r.btree_height.into(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn print_point_figures(opts: &Options, run_all: bool) {
    let sizes = point_sizes(opts.scale);
    let rows = run_point_experiments(&sizes, opts.queries, SEED);
    let show = |fig: &str| run_all || opts.command == fig;

    if show("fig13") {
        println!("== Figure 13: kd-tree vs R-tree, (R-tree / kd-tree) x 100 ==");
        println!(
            "{:>10} {:>16} {:>16} {:>12}",
            "points", "point search %", "range search %", "insert %"
        );
        for r in &rows {
            println!(
                "{:>10} {:>16.1} {:>16.1} {:>12.1}",
                r.size,
                ratio_pct(r.rtree_point_ms, r.kd_point_ms),
                ratio_pct(r.rtree_range_ms, r.kd_range_ms),
                ratio_pct(r.rtree_insert_ms, r.kd_insert_ms)
            );
        }
        println!();
    }
    if show("fig14") {
        println!("== Figure 14: relative index size, (R-tree / kd-tree) x 100 ==");
        println!(
            "{:>10} {:>14} {:>14} {:>12}",
            "points", "kd pages", "rtree pages", "ratio %"
        );
        for r in &rows {
            println!(
                "{:>10} {:>14} {:>14} {:>12.1}",
                r.size,
                r.kd_pages,
                r.rtree_pages,
                ratio_pct(r.rtree_pages as f64, r.kd_pages as f64)
            );
        }
        println!();
    }
    emit_json(
        opts,
        "points",
        &[
            "size",
            "kd_insert_ms",
            "rtree_insert_ms",
            "kd_point_ms",
            "rtree_point_ms",
            "kd_range_ms",
            "rtree_range_ms",
            "kd_pages",
            "rtree_pages",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.size.into(),
                    r.kd_insert_ms.into(),
                    r.rtree_insert_ms.into(),
                    r.kd_point_ms.into(),
                    r.rtree_point_ms.into(),
                    r.kd_range_ms.into(),
                    r.rtree_range_ms.into(),
                    r.kd_pages.into(),
                    r.rtree_pages.into(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn print_segment_figure(opts: &Options) {
    let sizes = point_sizes(opts.scale);
    let rows = run_segment_experiments(&sizes, opts.queries, SEED);
    println!("== Figure 15: PMR quadtree vs R-tree, (R-tree / PMR quadtree) x 100 ==");
    println!(
        "{:>10} {:>12} {:>18} {:>16} {:>12} {:>12}",
        "segments", "insert %", "exact match %", "range search %", "pmr pages", "rtree pages"
    );
    for r in &rows {
        println!(
            "{:>10} {:>12.1} {:>18.1} {:>16.1} {:>12} {:>12}",
            r.size,
            ratio_pct(r.rtree_insert_ms, r.pmr_insert_ms),
            ratio_pct(r.rtree_exact_ms, r.pmr_exact_ms),
            ratio_pct(r.rtree_window_ms, r.pmr_window_ms),
            r.pmr_pages,
            r.rtree_pages
        );
    }
    println!();
    emit_json(
        opts,
        "segments",
        &[
            "size",
            "pmr_insert_ms",
            "rtree_insert_ms",
            "pmr_exact_ms",
            "rtree_exact_ms",
            "pmr_window_ms",
            "rtree_window_ms",
            "pmr_pages",
            "rtree_pages",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.size.into(),
                    r.pmr_insert_ms.into(),
                    r.rtree_insert_ms.into(),
                    r.pmr_exact_ms.into(),
                    r.rtree_exact_ms.into(),
                    r.pmr_window_ms.into(),
                    r.rtree_window_ms.into(),
                    r.pmr_pages.into(),
                    r.rtree_pages.into(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn print_substring_figure(opts: &Options) {
    let sizes = spgist_bench::substring_sizes(opts.scale);
    let rows = run_substring_experiments(&sizes, opts.queries, SEED);
    println!("== Figure 16: substring match, log10(sequential / suffix tree) ==");
    println!(
        "{:>10} {:>16} {:>16} {:>12}",
        "strings", "suffix (ms)", "seq scan (ms)", "log10 ratio"
    );
    for r in &rows {
        println!(
            "{:>10} {:>16.4} {:>16.4} {:>12.2}",
            r.size,
            r.suffix_ms,
            r.seqscan_ms,
            log10_ratio(r.seqscan_ms, r.suffix_ms)
        );
    }
    println!();
    emit_json(
        opts,
        "substring",
        &["size", "suffix_ms", "seqscan_ms"],
        &rows
            .iter()
            .map(|r| vec![r.size.into(), r.suffix_ms.into(), r.seqscan_ms.into()])
            .collect::<Vec<_>>(),
    );
}

fn print_nn_figure(opts: &Options) {
    let n = 20_000 * opts.scale.max(1);
    let rows = run_nn_experiments(n, &NN_KS, opts.queries.min(20), SEED);
    println!("== Figure 17: NN search performance ({n} tuples per relation) ==");
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "k", "kd-tree (ms)", "pquadtree (ms)", "trie (ms)"
    );
    for r in &rows {
        println!(
            "{:>8} {:>14.3} {:>14.3} {:>14.3}",
            r.k, r.kd_ms, r.quad_ms, r.trie_ms
        );
    }
    println!();
    emit_json(
        opts,
        "nn",
        &["k", "kd_ms", "quad_ms", "trie_ms"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.k.into(),
                    r.kd_ms.into(),
                    r.quad_ms.into(),
                    r.trie_ms.into(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn print_clustering_ablation(opts: &Options) {
    let rows = run_clustering_ablation(20_000 * opts.scale.max(1), opts.queries, SEED);
    println!("== Ablation: node-to-page clustering policy (patricia trie) ==");
    println!(
        "{:>18} {:>12} {:>10} {:>14}",
        "policy", "page height", "pages", "exact (ms)"
    );
    for r in &rows {
        println!(
            "{:>18} {:>12} {:>10} {:>14.4}",
            format!("{:?}", r.policy),
            r.page_height,
            r.pages,
            r.exact_ms
        );
    }
    println!();
    emit_json(
        opts,
        "ablation_clustering",
        &["policy", "page_height", "pages", "exact_ms"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:?}", r.policy).into(),
                    r.page_height.into(),
                    r.pages.into(),
                    r.exact_ms.into(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn print_concurrency(opts: &Options) {
    let n = 20_000 * opts.scale.max(1);
    let queries = opts.queries.max(20);
    let thread_counts = [1usize, 2, 4, 8];
    let rows = run_read_scaling(n, &thread_counts, queries, SEED);
    println!("== Concurrency: read-scaling on a shared kd-tree ({n} points) ==");
    println!(
        "(host reports {} cores; read latches scale with real cores)",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    println!(
        "{:>8} {:>10} {:>12} {:>14} {:>12} {:>10}",
        "threads", "queries", "elapsed ms", "queries/s", "mean ms", "p99 ms"
    );
    for r in &rows {
        println!(
            "{:>8} {:>10} {:>12.1} {:>14.0} {:>12.4} {:>10.4}",
            r.threads, r.total_queries, r.elapsed_ms, r.throughput_qps, r.mean_ms, r.p99_ms
        );
    }
    let base = rows.iter().find(|r| r.threads == 1);
    let four = rows.iter().find(|r| r.threads == 4);
    if let (Some(base), Some(four)) = (base, four) {
        println!(
            "read throughput speedup at 4 threads vs 1: {:.2}x",
            four.throughput_qps / base.throughput_qps.max(1e-9)
        );
    }
    println!();

    let hot = run_hot_writer_scaling(n, &thread_counts, queries, SEED);
    println!("== Concurrency: read-scaling with one continuous hot writer ==");
    println!(
        "{:>8} {:>10} {:>12} {:>14} {:>8} {:>10} {:>10} {:>10} {:>12} {:>9} {:>8}",
        "threads",
        "queries",
        "elapsed ms",
        "queries/s",
        "speedup",
        "p99 ms",
        "ins/s",
        "latches",
        "latch waits",
        "pins",
        "backlog"
    );
    for r in &hot {
        println!(
            "{:>8} {:>10} {:>12.1} {:>14.0} {:>7.2}x {:>10.4} {:>10.0} {:>10} {:>12} {:>9} {:>8}",
            r.threads,
            r.total_queries,
            r.elapsed_ms,
            r.throughput_qps,
            r.speedup,
            r.p99_ms,
            r.write_ips,
            r.concurrency.latch_acquisitions,
            r.concurrency.latch_waits,
            r.concurrency.epoch_pins,
            r.concurrency.retired_backlog
        );
    }
    if let (Some(base), Some(eight)) = (
        hot.iter().find(|r| r.threads == 1),
        hot.iter().find(|r| r.threads == 8),
    ) {
        println!(
            "hot-writer read throughput speedup at 8 threads vs 1: {:.2}x \
             (mean epoch pin {:.1} us)",
            eight.throughput_qps / base.throughput_qps.max(1e-9),
            eight.concurrency.epoch_pin_nanos as f64
                / (eight.concurrency.epoch_pins.max(1) as f64 * 1e3)
        );
    }
    println!();

    let mixed = run_mixed_workload(n, 4, 2, queries, queries * 5, SEED);
    println!("== Concurrency: mixed readers + writer bursts ==");
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>12} {:>10} {:>10} {:>12} {:>13}",
        "readers",
        "writers",
        "reads",
        "writes",
        "elapsed ms",
        "read q/s",
        "ins/s",
        "read p99 ms",
        "write p99 ms"
    );
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>12.1} {:>10.0} {:>10.0} {:>12.4} {:>13.4}",
        mixed.readers,
        mixed.writers,
        mixed.reads,
        mixed.writes,
        mixed.elapsed_ms,
        mixed.read_qps,
        mixed.write_ips,
        mixed.read_p99_ms,
        mixed.write_p99_ms
    );
    println!();
    emit_json(
        opts,
        "concurrency",
        &[
            "threads",
            "total_queries",
            "elapsed_ms",
            "throughput_qps",
            "mean_ms",
            "p99_ms",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.threads.into(),
                    r.total_queries.into(),
                    r.elapsed_ms.into(),
                    r.throughput_qps.into(),
                    r.mean_ms.into(),
                    r.p99_ms.into(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    emit_json(
        opts,
        "concurrency_hot_writer",
        &[
            "threads",
            "total_queries",
            "writer_inserts",
            "elapsed_ms",
            "throughput_qps",
            "speedup",
            "mean_ms",
            "p99_ms",
            "write_ips",
            "latch_acquisitions",
            "latch_waits",
            "epoch_pins",
            "epoch_pin_nanos",
            "retired",
            "reclaimed",
            "retired_backlog",
        ],
        &hot.iter()
            .map(|r| {
                vec![
                    r.threads.into(),
                    r.total_queries.into(),
                    r.writer_inserts.into(),
                    r.elapsed_ms.into(),
                    r.throughput_qps.into(),
                    r.speedup.into(),
                    r.mean_ms.into(),
                    r.p99_ms.into(),
                    r.write_ips.into(),
                    r.concurrency.latch_acquisitions.into(),
                    r.concurrency.latch_waits.into(),
                    r.concurrency.epoch_pins.into(),
                    r.concurrency.epoch_pin_nanos.into(),
                    r.concurrency.retired.into(),
                    r.concurrency.reclaimed.into(),
                    r.concurrency.retired_backlog.into(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    emit_json(
        opts,
        "concurrency_mixed",
        &[
            "readers",
            "writers",
            "reads",
            "writes",
            "elapsed_ms",
            "read_qps",
            "write_ips",
            "read_p99_ms",
            "write_p99_ms",
        ],
        &[vec![
            mixed.readers.into(),
            mixed.writers.into(),
            mixed.reads.into(),
            mixed.writes.into(),
            mixed.elapsed_ms.into(),
            mixed.read_qps.into(),
            mixed.write_ips.into(),
            mixed.read_p99_ms.into(),
            mixed.write_p99_ms.into(),
        ]],
    );
}

fn print_trie_ablation(opts: &Options) {
    let rows = run_trie_variant_ablation(20_000 * opts.scale.max(1), opts.queries, SEED);
    println!("== Ablation: trie interface parameters (PathShrink / BucketSize) ==");
    println!(
        "{:>34} {:>10} {:>12} {:>8} {:>12}",
        "variant", "nodes", "node height", "pages", "exact (ms)"
    );
    for r in &rows {
        println!(
            "{:>34} {:>10} {:>12} {:>8} {:>12.4}",
            r.variant, r.nodes, r.node_height, r.pages, r.exact_ms
        );
    }
    println!();
    emit_json(
        opts,
        "ablation_trie",
        &["variant", "nodes", "node_height", "pages", "exact_ms"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.variant.clone().into(),
                    r.nodes.into(),
                    r.node_height.into(),
                    r.pages.into(),
                    r.exact_ms.into(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}
