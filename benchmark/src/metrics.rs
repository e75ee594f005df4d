//! The metric catalogue: every end-to-end and per-layer metric by name,
//! unit and direction.  `BENCHMARK.json` is generated from these tables
//! (`spgist-benchmark manifest`) and a test holds the committed file to
//! them, so the two cannot drift apart.

use std::collections::BTreeMap;

use crate::config::Workload;
use crate::data::INDEX_CLASSES;
use crate::json::Json;
use crate::ops::QueryKind;

/// An end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The five end-to-end metrics every workload reports.
///
/// The bounds follow the measured run-to-run noise of the shared 2-core
/// runner (`NOISE.md`).  The counted ratios repeat to a fraction of a
/// percent and keep a bound at least three times their widest spread.  The
/// timed metrics get the widest bound the harness allows: the host's speed
/// drifts by several percent over tens of seconds to minutes, which no
/// statistic taken inside one run can cancel, and their interquartile
/// spread over ten runs reached a tenth.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "write_amp",
        unit: "ratio",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "space_amp",
        unit: "ratio",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.05,
    },
];

/// A per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct PerLayer {
    /// Name, `<layer>.<metric>[.<kind or class>]`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// True for counts that repeat bit-for-bit with the same seed.
    pub exact: bool,
}

fn layer(
    name: impl Into<String>,
    unit: &'static str,
    better: &'static str,
    exact: bool,
) -> PerLayer {
    PerLayer {
        name: name.into(),
        unit,
        better,
        exact,
    }
}

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<PerLayer> {
    let mut m = Vec::new();
    let lower = "lower";
    let higher = "higher";

    for (name, unit) in [
        ("client.round_s_p50", "s"),
        ("client.round_s_max", "s"),
        ("client.read_p50_us", "us"),
        ("client.read_p99_us", "us"),
        ("client.write_p50_us", "us"),
        ("client.write_p99_us", "us"),
        ("client.commit_p50_us", "us"),
        ("client.commit_p99_us", "us"),
        ("client.cpu_us_per_op", "us"),
        ("client.failed_ops_share", "ratio"),
    ] {
        m.push(layer(name, unit, lower, false));
    }

    m.push(layer("planner.plan_us", "us", lower, false));
    m.push(layer("planner.index_path_share", "ratio", higher, true));

    for kind in QueryKind::ALL {
        m.push(layer(
            format!("exec.query_us.{}", kind.name()),
            "us",
            lower,
            false,
        ));
    }
    m.push(layer("exec.rows_per_query", "rows", lower, true));
    for name in [
        "exec.cpu_us_per_query",
        "exec.insert_us",
        "exec.delete_us",
        "exec.txn_stmt_us",
        "exec.txn_commit_us",
    ] {
        m.push(layer(name, "us", lower, false));
    }

    for op in ["cursor_us", "insert_us", "delete_us"] {
        for class in INDEX_CLASSES {
            m.push(layer(format!("indexes.{op}.{class}"), "us", lower, false));
        }
    }
    for class in ["kdtree", "pmr"] {
        m.push(layer(format!("indexes.nn_us.{class}"), "us", lower, false));
    }

    for metric in ["pages_per_lookup", "page_height", "index_pages"] {
        for class in INDEX_CLASSES {
            m.push(layer(
                format!("core.{metric}.{class}"),
                "pages",
                lower,
                true,
            ));
        }
    }
    for class in INDEX_CLASSES {
        m.push(layer(
            format!("core.bulk_build_keys_per_s.{class}"),
            "1/s",
            higher,
            false,
        ));
    }

    m.push(layer("buffer.logical_reads_per_op", "pages", lower, true));
    m.push(layer("buffer.physical_reads_per_op", "pages", lower, true));
    m.push(layer("buffer.hit_rate", "ratio", higher, true));
    m.push(layer("buffer.evictions_per_op", "pages", lower, true));
    m.push(layer("buffer.physical_writes", "count", lower, true));
    m.push(layer("buffer.hit_fetch_ns", "ns", lower, false));
    m.push(layer("buffer.miss_fetch_ns", "ns", lower, false));

    m.push(layer("pager.reads", "count", lower, true));
    m.push(layer("pager.writes", "count", lower, true));
    m.push(layer("pager.syncs", "count", lower, true));
    m.push(layer("pager.bytes_written", "bytes", lower, true));
    m.push(layer("pager.read_s", "s", lower, false));
    m.push(layer("pager.write_s", "s", lower, false));
    m.push(layer("pager.sync_s", "s", lower, false));
    m.push(layer("pager.wall_share", "ratio", lower, false));

    m.push(layer("heap.get_ns", "ns", lower, false));
    m.push(layer("heap.insert_ns", "ns", lower, false));

    m.push(layer(
        "epoch.latch_acquisitions_per_write",
        "count",
        lower,
        true,
    ));
    m.push(layer("epoch.latch_waits", "count", lower, true));
    m.push(layer("epoch.pins_per_query", "count", lower, true));
    m.push(layer("epoch.retired_backlog_max", "count", lower, true));
    m.push(layer("epoch.pin_us_mean", "us", lower, false));

    m.push(layer("wal.records", "count", lower, true));
    m.push(layer("wal.syncs", "count", lower, false));
    m.push(layer("wal.commits_per_sync", "ratio", higher, false));
    m.push(layer("wal.bytes", "bytes", lower, false));
    m.push(layer("wal.bytes_per_record", "bytes", lower, false));
    m.push(layer("wal.submit_us", "us", lower, false));
    m.push(layer("wal.durable_wait_us", "us", lower, false));

    m.push(layer("checkpoint.count", "count", lower, true));
    m.push(layer("checkpoint.chunks_written", "count", lower, true));
    m.push(layer("checkpoint.chunks_skipped", "count", higher, true));
    m.push(layer("checkpoint.data_pages_flushed", "pages", lower, true));
    m.push(layer("checkpoint.catalog_bytes", "bytes", lower, true));
    m.push(layer("checkpoint.journal_bytes", "bytes", lower, true));
    m.push(layer("checkpoint.wall_ms_p50", "ms", lower, false));
    m.push(layer("checkpoint.wall_ms_max", "ms", lower, false));
    m.push(layer("checkpoint.quiesce_us_max", "us", lower, false));

    m.push(layer("recovery.reopen_s", "s", lower, false));
    m.push(layer("recovery.clean_open_ms", "ms", lower, false));
    m.push(layer("recovery.records_replayed", "count", lower, true));
    m.push(layer("recovery.wal_bytes_at_open", "bytes", lower, false));
    m.push(layer("recovery.open_reads", "count", lower, true));

    for name in [
        "baselines.btree_over_trie_exact",
        "baselines.btree_over_trie_prefix",
        "baselines.rtree_over_kdtree_window",
        "baselines.rtree_over_kdtree_nn",
        "baselines.rtree_over_pmr_window",
        "baselines.seqscan_over_suffix_substring",
    ] {
        m.push(layer(name, "ratio", higher, false));
    }

    m.push(layer("trace.coverage", "ratio", higher, false));
    m.push(layer("trace.overhead_share", "ratio", lower, false));
    m
}

/// Why each workload is in the benchmark (the `why` of `BENCHMARK.json`).
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::QueryHot => {
            "10 query kinds on 200k rows (3.2 MB user data, ~5170 8-KiB file pages), pool 1.25x the file: planner, executor, tree descent and pool hits do the work, the pager none - CPU-side read gains show here"
        }
        Workload::QueryCold => {
            "same query stream, pool 5% of the file (~258 pages): eviction and Pager::read dominate - a CPU-side read gain reads as no change, a replacement or layout gain shows only here"
        }
        Workload::Ingest => {
            "DML only, 1:1 insert/delete, auto-commit and 8-statement txns, 2 checkpoints a round: WAL fsync, choose/picksplit, heap append, checkpoint; decides write_amp and space_amp under churn"
        }
        Workload::MixedRw => {
            "4 queries : 1 auto-commit DML on the same trees, 1 checkpoint a round: a read gain bought with write-side upkeep passes query-hot and fails here"
        }
    }
}

/// Seconds one run measures (`run_seconds`): one nominal second per round.
pub const RUN_SECONDS: u64 = 12;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--quiet",
                    "--release",
                    "--offline",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(|s| Json::Str(s.into()))
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::Str("benchmark".into())])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .into_iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name().into())),
                            ("why", Json::Str(why(w).into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.into())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.clone())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Values measured by a run, by metric name.  Filling one in under a name
/// the catalogue does not list is a bug the tests catch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every recorded name.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn catalogue_respects_the_contract_limits() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut names = BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name.to_string())
            .chain(layers.iter().map(|m| m.name.clone()))
            .chain(Workload::ALL.iter().map(|w| w.name().to_string()))
        {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(names.insert(name.clone()), "{name} used twice");
        }
        for w in Workload::ALL {
            let why = why(w);
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{} chars",
                why.len()
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest().to_line().len() < 64 * 1024);
    }

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `cargo run --release --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
    }
}
