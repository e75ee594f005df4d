//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p spgist-bench --release --bin experiments -- all
//! cargo run -p spgist-bench --release --bin experiments -- fig6 --scale 2
//! ```
//!
//! The subcommands are the entries of [`EXPERIMENTS`] — each answers to its
//! name and to the paper figures it regenerates (`fig6`..`fig12` share one
//! string run, `fig13`/`fig14` one point run; asking for a figure prints
//! that figure alone) — plus `all`; an unknown name prints the usage and
//! exits 2.  `--scale N` multiplies the dataset sizes (default 1);
//! `--queries N` sets the number of queries per measurement (default 100).
//! Every table is one [`Report`]: printed, and with `--json-dir DIR` also
//! written as a machine-readable `BENCH_<experiment>.json` into DIR.
//!
//! Two extra commands drive the CI crash-recovery smoke test and take
//! `--db PATH`: `crash-writer` runs an endless acknowledged-write workload
//! mixing auto-commit inserts with multi-statement transactions — committed
//! ones are acknowledged after `commit()` returns, aborted ones leave
//! absence promises — and is meant to be SIGKILLed mid-run (sometimes with
//! a transaction open); `crash-verify` reopens the database and checks
//! every acknowledged commit survived and no aborted value resurfaced.

use std::num::NonZeroUsize;

use spgist_bench::loc::{crate_report, table7};
use spgist_bench::stats::{log10_ratio, ratio_pct};
use spgist_bench::{
    num, num_unit, point_sizes, run_nn_experiments, run_point_experiments, run_segment_experiments,
    run_string_experiments, run_substring_experiments, run_trie_variant_ablation, substring_sizes,
    word_sizes, Cell, Report, NN_KS,
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
}

impl Options {
    /// Whether `figure`'s table is printed: a run asked for by figure name
    /// prints that figure alone, any other run every figure of its rows.
    fn shows(&self, figure: &str) -> bool {
        !self.command.starts_with("fig") || self.command == figure
    }
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut command = String::from("all");
    let mut scale = 1usize;
    let mut queries = 100usize;
    let mut json_dir = None;
    let mut db = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse::<NonZeroUsize>().ok())
                    .unwrap_or_else(|| usage("--scale needs a positive integer"))
                    .get();
            }
            "--queries" => {
                queries = args
                    .next()
                    .and_then(|v| v.parse::<NonZeroUsize>().ok())
                    .unwrap_or_else(|| usage("--queries needs a positive integer"))
                    .get();
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
    }
}

/// One subcommand: the name it answers to, the paper figures that are
/// aliases for it, and the function that measures and reports it.
type Experiment = (&'static str, &'static [&'static str], fn(&Options));

/// Every experiment, in the order `all` runs them.  Dispatch, `all`, the
/// usage text and the unknown-name error are all derived from this list.
const EXPERIMENTS: [Experiment; 7] = [
    ("table7", &[], report_table7),
    (
        "strings",
        &["fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"],
        report_strings,
    ),
    ("points", &["fig13", "fig14"], report_points),
    ("segments", &["fig15"], report_segments),
    ("substring", &["fig16"], report_substring),
    ("nn", &["fig17"], report_nn),
    ("ablation-trie", &[], report_trie_ablation),
];

/// The experiments `command` selects: every one for `all`, otherwise the
/// one it names (by name or figure alias); `None` for an unknown name.
fn lookup(command: &str) -> Option<&'static [Experiment]> {
    if command == "all" {
        return Some(&EXPERIMENTS);
    }
    let found = EXPERIMENTS
        .iter()
        .position(|(name, figures, _)| *name == command || figures.contains(&command))?;
    Some(&EXPERIMENTS[found..=found])
}

fn usage_text() -> String {
    let names: Vec<&str> = EXPERIMENTS
        .iter()
        .flat_map(|(name, figures, _)| std::iter::once(*name).chain(figures.iter().copied()))
        .collect();
    format!(
        "usage: experiments [{}|all] [--scale N] [--queries N] [--json-dir DIR]\n       experiments crash-writer --db PATH\n       experiments crash-verify --db PATH",
        names.join("|")
    )
}

fn usage(message: &str) -> ! {
    if !message.is_empty() {
        eprintln!("error: {message}");
    }
    eprintln!("{}", usage_text());
    std::process::exit(if message.is_empty() { 0 } else { 2 });
}

const SEED: u64 = 20060403;

fn main() {
    let opts = parse_args();
    match opts.command.as_str() {
        "crash-writer" => run_crash_writer(&opts),
        "crash-verify" => run_crash_verify(&opts),
        _ => {}
    }
    let Some(selected) = lookup(&opts.command) else {
        usage(&format!("unknown experiment {}", opts.command));
    };
    for (_, _, run) in selected {
        run(&opts);
    }
}

/// `(a / b) x 100` as a one-decimal cell, the form of the relative figures.
fn pct(a: f64, b: f64) -> Cell {
    num(ratio_pct(a, b), 1)
}

fn report_table7(opts: &Options) {
    let rows = table7();
    let title = "Table 7: external-method code size per index";
    Report::new("table7", title, &rows)
        .column("index", "index", |r| r.index.as_str().into())
        .column("external_lines", "external lines", |r| {
            r.external_lines.into()
        })
        .column("percent_of_total", "% of total code", |r| {
            num_unit(r.percent_of_total, 1, "%")
        })
        .emit(opts.scale, opts.json_dir.as_deref());

    let crates = crate_report();
    let title = "Lines of code per crate (counted: non-blank, non-comment)";
    Report::new("loc", title, &crates)
        .column("crate", "crate", |l| l.name.as_str().into())
        .column("production_lines", "production", |l| l.production.into())
        .column("test_lines", "test", |l| l.test.into())
        .note(format!(
            "total: {} production, {} test",
            crates.iter().map(|l| l.production).sum::<usize>(),
            crates.iter().map(|l| l.test).sum::<usize>()
        ))
        .emit(opts.scale, opts.json_dir.as_deref());
}

/// Figures 6–12 are views of one string run: each prints columns named or
/// derived from the same rows the `strings` artifact archives raw.
fn report_strings(opts: &Options) {
    let rows = run_string_experiments(&word_sizes(opts.scale), opts.queries, SEED);
    let (scale, json_dir) = (opts.scale, opts.json_dir.as_deref());
    if opts.shows("fig6") {
        let title = "Figure 6: search time relative performance, (B+-tree / trie) x 100";
        Report::new("strings", title, &rows)
            .text_only("keys", |r| r.size.into())
            .text_only("exact match (ratio %)", |r| {
                pct(r.btree_exact_ms, r.trie_exact_ms)
            })
            .text_only("prefix match (ratio %)", |r| {
                pct(r.btree_prefix_ms, r.trie_prefix_ms)
            })
            .emit(scale, json_dir);
    }
    if opts.shows("fig7") {
        let title = "Figure 7: regular-expression search, log10(B+-tree / trie)";
        Report::new("strings", title, &rows)
            .text_only("keys", |r| r.size.into())
            .text_only("trie (ms)", |r| num(r.trie_regex_ms, 4))
            .text_only("btree (ms)", |r| num(r.btree_regex_ms, 4))
            .text_only("log10 ratio", |r| {
                num(log10_ratio(r.btree_regex_ms, r.trie_regex_ms), 2)
            })
            .emit(scale, json_dir);
    }
    if opts.shows("fig8") {
        let title = "Figure 8: trie exact-match search time standard deviation";
        Report::new("strings", title, &rows)
            .text_only("keys", |r| r.size.into())
            .text_only("mean (ms)", |r| num(r.trie_exact_ms, 4))
            .text_only("stddev (ms)", |r| num(r.trie_exact_stddev_ms, 4))
            .emit(scale, json_dir);
    }
    if opts.shows("fig9") {
        let title = "Figure 9: insert time relative performance, (B+-tree / trie) x 100";
        Report::new("strings", title, &rows)
            .text_only("keys", |r| r.size.into())
            .text_only("trie (ms)", |r| num(r.trie_insert_ms, 1))
            .text_only("btree (ms)", |r| num(r.btree_insert_ms, 1))
            .text_only("ratio %", |r| pct(r.btree_insert_ms, r.trie_insert_ms))
            .emit(scale, json_dir);
    }
    if opts.shows("fig10") {
        let title = "Figure 10: relative index size, (B+-tree / trie) x 100";
        Report::new("strings", title, &rows)
            .text_only("keys", |r| r.size.into())
            .text_only("trie pages", |r| r.trie_pages.into())
            .text_only("btree pages", |r| r.btree_pages.into())
            .text_only("ratio %", |r| {
                pct(r.btree_pages as f64, r.trie_pages as f64)
            })
            .emit(scale, json_dir);
    }
    if opts.shows("fig11") {
        Report::new("strings", "Figure 11: maximum tree height in nodes", &rows)
            .text_only("keys", |r| r.size.into())
            .text_only("B-tree", |r| r.btree_height.into())
            .text_only("SP-GiST trie", |r| r.trie_node_height.into())
            .emit(scale, json_dir);
    }
    if opts.shows("fig12") {
        Report::new("strings", "Figure 12: maximum tree height in pages", &rows)
            .text_only("keys", |r| r.size.into())
            .text_only("B-tree", |r| r.btree_height.into())
            .text_only("SP-GiST trie", |r| r.trie_page_height.into())
            .emit(scale, json_dir);
    }
    Report::new("strings", "Figures 6-12: trie vs B+-tree on strings", &rows)
        .json_only("size", |r| r.size.into())
        .json_only("trie_exact_ms", |r| num(r.trie_exact_ms, 4))
        .json_only("btree_exact_ms", |r| num(r.btree_exact_ms, 4))
        .json_only("trie_exact_stddev_ms", |r| num(r.trie_exact_stddev_ms, 4))
        .json_only("trie_prefix_ms", |r| num(r.trie_prefix_ms, 4))
        .json_only("btree_prefix_ms", |r| num(r.btree_prefix_ms, 4))
        .json_only("trie_regex_ms", |r| num(r.trie_regex_ms, 4))
        .json_only("btree_regex_ms", |r| num(r.btree_regex_ms, 4))
        .json_only("trie_insert_ms", |r| num(r.trie_insert_ms, 1))
        .json_only("btree_insert_ms", |r| num(r.btree_insert_ms, 1))
        .json_only("trie_pages", |r| r.trie_pages.into())
        .json_only("btree_pages", |r| r.btree_pages.into())
        .json_only("trie_node_height", |r| r.trie_node_height.into())
        .json_only("trie_page_height", |r| r.trie_page_height.into())
        .json_only("btree_height", |r| r.btree_height.into())
        .emit(scale, json_dir);
}

/// Figures 13–14 are views of one point run, as 6–12 are of the string run.
fn report_points(opts: &Options) {
    let rows = run_point_experiments(&point_sizes(opts.scale), opts.queries, SEED);
    let (scale, json_dir) = (opts.scale, opts.json_dir.as_deref());
    if opts.shows("fig13") {
        let title = "Figure 13: kd-tree vs R-tree, (R-tree / kd-tree) x 100";
        Report::new("points", title, &rows)
            .text_only("points", |r| r.size.into())
            .text_only("point search %", |r| pct(r.rtree_point_ms, r.kd_point_ms))
            .text_only("range search %", |r| pct(r.rtree_range_ms, r.kd_range_ms))
            .text_only("insert %", |r| pct(r.rtree_insert_ms, r.kd_insert_ms))
            .emit(scale, json_dir);
    }
    if opts.shows("fig14") {
        let title = "Figure 14: relative index size, (R-tree / kd-tree) x 100";
        Report::new("points", title, &rows)
            .text_only("points", |r| r.size.into())
            .text_only("kd pages", |r| r.kd_pages.into())
            .text_only("rtree pages", |r| r.rtree_pages.into())
            .text_only("ratio %", |r| pct(r.rtree_pages as f64, r.kd_pages as f64))
            .emit(scale, json_dir);
    }
    Report::new(
        "points",
        "Figures 13-14: kd-tree vs R-tree on points",
        &rows,
    )
    .json_only("size", |r| r.size.into())
    .json_only("kd_insert_ms", |r| num(r.kd_insert_ms, 1))
    .json_only("rtree_insert_ms", |r| num(r.rtree_insert_ms, 1))
    .json_only("kd_point_ms", |r| num(r.kd_point_ms, 4))
    .json_only("rtree_point_ms", |r| num(r.rtree_point_ms, 4))
    .json_only("kd_range_ms", |r| num(r.kd_range_ms, 4))
    .json_only("rtree_range_ms", |r| num(r.rtree_range_ms, 4))
    .json_only("kd_pages", |r| r.kd_pages.into())
    .json_only("rtree_pages", |r| r.rtree_pages.into())
    .emit(scale, json_dir);
}

fn report_segments(opts: &Options) {
    let rows = run_segment_experiments(&point_sizes(opts.scale), opts.queries, SEED);
    let title = "Figure 15: PMR quadtree vs R-tree, (R-tree / PMR quadtree) x 100";
    Report::new("segments", title, &rows)
        .column("size", "segments", |r| r.size.into())
        .json_only("pmr_insert_ms", |r| num(r.pmr_insert_ms, 1))
        .json_only("rtree_insert_ms", |r| num(r.rtree_insert_ms, 1))
        .text_only("insert %", |r| pct(r.rtree_insert_ms, r.pmr_insert_ms))
        .json_only("pmr_exact_ms", |r| num(r.pmr_exact_ms, 4))
        .json_only("rtree_exact_ms", |r| num(r.rtree_exact_ms, 4))
        .text_only("exact match %", |r| pct(r.rtree_exact_ms, r.pmr_exact_ms))
        .json_only("pmr_window_ms", |r| num(r.pmr_window_ms, 4))
        .json_only("rtree_window_ms", |r| num(r.rtree_window_ms, 4))
        .text_only("range search %", |r| {
            pct(r.rtree_window_ms, r.pmr_window_ms)
        })
        .column("pmr_pages", "pmr pages", |r| r.pmr_pages.into())
        .column("rtree_pages", "rtree pages", |r| r.rtree_pages.into())
        .emit(opts.scale, opts.json_dir.as_deref());
}

fn report_substring(opts: &Options) {
    let rows = run_substring_experiments(&substring_sizes(opts.scale), opts.queries, SEED);
    let title = "Figure 16: substring match, log10(sequential / suffix tree)";
    Report::new("substring", title, &rows)
        .column("size", "strings", |r| r.size.into())
        .column("suffix_ms", "suffix (ms)", |r| num(r.suffix_ms, 4))
        .column("seqscan_ms", "seq scan (ms)", |r| num(r.seqscan_ms, 4))
        .text_only("log10 ratio", |r| {
            num(log10_ratio(r.seqscan_ms, r.suffix_ms), 2)
        })
        .emit(opts.scale, opts.json_dir.as_deref());
}

fn report_nn(opts: &Options) {
    let n = 20_000 * opts.scale;
    let rows = run_nn_experiments(n, &NN_KS, opts.queries.min(20), SEED);
    let title = format!("Figure 17: NN search performance ({n} tuples per relation)");
    Report::new("nn", title, &rows)
        .column("k", "k", |r| r.k.into())
        .column("kd_ms", "kd-tree (ms)", |r| num(r.kd_ms, 3))
        .column("quad_ms", "pquadtree (ms)", |r| num(r.quad_ms, 3))
        .column("trie_ms", "trie (ms)", |r| num(r.trie_ms, 3))
        .emit(opts.scale, opts.json_dir.as_deref());
}

fn report_trie_ablation(opts: &Options) {
    let rows = run_trie_variant_ablation(20_000 * opts.scale, opts.queries, SEED);
    let title = "Ablation: trie interface parameters (PathShrink / BucketSize)";
    Report::new("ablation_trie", title, &rows)
        .column("variant", "variant", |r| r.variant.as_str().into())
        .column("nodes", "nodes", |r| r.nodes.into())
        .column("node_height", "node height", |r| r.node_height.into())
        .column("pages", "pages", |r| r.pages.into())
        .column("exact_ms", "exact (ms)", |r| num(r.exact_ms, 4))
        .emit(opts.scale, opts.json_dir.as_deref());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_resolves_names_and_figures_and_rejects_typos() {
        assert_eq!(lookup("all").map(<[_]>::len), Some(EXPERIMENTS.len()));
        for (command, name) in [("ablation-trie", "ablation-trie"), ("fig9", "strings")] {
            let found = lookup(command).expect("known experiment");
            assert_eq!(found.len(), 1);
            assert_eq!(found[0].0, name);
        }
        for typo in ["fig99", "ablation-tire", "fig", ""] {
            assert!(lookup(typo).is_none(), "{typo:?} must not run anything");
        }
    }

    #[test]
    fn every_name_the_usage_text_lists_resolves() {
        let usage = usage_text();
        let list = &usage[usage.find('[').unwrap() + 1..usage.find(']').unwrap()];
        let names: Vec<&str> = list.split('|').collect();
        assert!(names.len() > EXPERIMENTS.len(), "figure aliases are listed");
        for name in names {
            assert!(
                lookup(name).is_some(),
                "usage lists {name}, lookup rejects it"
            );
        }
    }

    #[test]
    fn cheapest_experiments_write_artifacts_that_read_back() {
        let dir = std::env::temp_dir().join(format!("spgist-experiments-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = Options {
            command: String::from("table7"),
            scale: 1,
            queries: 1,
            json_dir: Some(dir.clone()),
            db: None,
        };
        for name in ["table7", "ablation-trie"] {
            for (_, _, run) in lookup(name).expect("registered") {
                run(&opts);
            }
        }
        for (experiment, rows, keys) in [
            (
                "table7",
                5,
                vec!["index", "external_lines", "percent_of_total"],
            ),
            (
                "loc",
                crate_report().len(),
                vec!["crate", "production_lines", "test_lines"],
            ),
            (
                "ablation_trie",
                3,
                vec!["variant", "nodes", "node_height", "pages", "exact_ms"],
            ),
        ] {
            let path = dir.join(format!("BENCH_{experiment}.json"));
            let json = std::fs::read_to_string(&path).expect("artifact written");
            assert!(json.contains(&format!("\"experiment\": \"{experiment}\"")));
            assert!(json.contains("\"scale\": 1"));
            let row_lines: Vec<&str> = json.lines().filter(|l| l.starts_with("    {")).collect();
            assert_eq!(row_lines.len(), rows, "{experiment}");
            for key in keys {
                let cells = row_lines
                    .iter()
                    .filter(|l| l.contains(&format!("\"{key}\": ")));
                assert_eq!(cells.count(), rows, "{experiment}.{key}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
