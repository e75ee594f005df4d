//! The one metrics surface: `Database::metrics()` on a seeded durable
//! database that carries all five index classes.
//!
//! The snapshot's names and kinds are pinned in order; each section must
//! equal the typed view it is read from; and the one delta rule is checked
//! where it matters — counters subtract, gauges keep their end value, and a
//! drop and re-create of an index between two snapshots neither leaks the
//! dead index's names nor panics.

use std::path::PathBuf;

use spgist::datagen::{points, segments, words, world};
use spgist::prelude::*;
use spgist::storage::{MetricKind, Metrics};

use MetricKind::{Counter, Gauge};

/// A scratch directory holding one database file and its WAL segments,
/// removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("spgist-metrics-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every index of [`database`], in the order `Database::metrics` lists
/// them: tables by name, each table's indexes in creation order.
const INDEXES: [&str; 5] = [
    "points.points_kd",
    "points.points_pquad",
    "segments.segments_pmr",
    "words.words_trie",
    "words.words_suffix",
];

/// The fields of one index's section, in order, with their kinds.
const INDEX_FIELDS: [(&str, MetricKind); 8] = [
    ("latch_acquisitions", Counter),
    ("latch_waits", Counter),
    ("epoch_pins", Counter),
    ("active_pins", Gauge),
    ("epoch_pin_nanos", Counter),
    ("retired", Counter),
    ("reclaimed", Counter),
    ("retired_backlog", Gauge),
];

/// A durable database in `dir` with three seeded tables and all five index
/// classes.
fn database(dir: &TempDir) -> Database {
    let mut db = Database::create(dir.0.join("db.pages")).unwrap();
    db.create_table("words", KeyType::Varchar).unwrap();
    db.create_table("points", KeyType::Point).unwrap();
    db.create_table("segments", KeyType::Segment).unwrap();
    let tables = [
        (
            "words",
            words(1_500, 37).into_iter().map(Datum::from).collect(),
        ),
        (
            "points",
            points(1_500, 37).into_iter().map(Datum::from).collect(),
        ),
        (
            "segments",
            segments(800, 2.0, 37)
                .into_iter()
                .map(Datum::from)
                .collect::<Vec<_>>(),
        ),
    ];
    for (name, rows) in tables {
        db.table(name).unwrap().insert_many(rows).unwrap();
    }
    for (table, index, spec) in [
        ("words", "words_trie", IndexSpec::Trie),
        ("words", "words_suffix", IndexSpec::SuffixTree),
        ("points", "points_kd", IndexSpec::KdTree),
        ("points", "points_pquad", IndexSpec::PointQuadtree),
        (
            "segments",
            "segments_pmr",
            IndexSpec::PmrQuadtree { world: world() },
        ),
    ] {
        db.create_index(table, index, spec).unwrap();
    }
    db
}

/// A point predicate matching one stored point, so the planner routes it
/// through a point index; returns the cursor's index name too.
fn open_point_cursor(db: &Database) -> (ExecCursor<'_>, String) {
    let cursor = db
        .query("points", Predicate::point_equals(points(1_500, 37)[7]))
        .unwrap();
    let ScanSource::Index { name } = cursor.source() else {
        panic!(
            "a point lookup routes to an index, got {:?}",
            cursor.source()
        );
    };
    let name = name.clone();
    (cursor, name)
}

fn value(metrics: &Metrics, name: &str) -> u64 {
    metrics
        .get(name)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

#[test]
fn every_name_and_kind_is_pinned_in_order() {
    let dir = TempDir::new("names");
    let db = database(&dir);
    let mut expected: Vec<(String, MetricKind)> = [
        "buffer.logical_reads",
        "buffer.physical_reads",
        "buffer.physical_writes",
        "buffer.evictions",
        "checkpoint.checkpoints",
        "checkpoint.chunks_written",
        "checkpoint.chunks_skipped",
        "checkpoint.tables_skipped",
        "checkpoint.catalog_bytes",
        "checkpoint.data_pages_flushed",
        "checkpoint.journal_bytes",
        "checkpoint.quiesce_nanos",
        "wal.records",
        "wal.syncs",
    ]
    .into_iter()
    .map(|name| (name.to_string(), Counter))
    .collect();
    for index in INDEXES {
        for (field, kind) in INDEX_FIELDS {
            expected.push((format!("index.{index}.{field}"), kind));
        }
    }
    let metrics = db.metrics();
    let found: Vec<(String, MetricKind)> = metrics
        .iter()
        .map(|(name, kind, _)| (name.to_string(), kind))
        .collect();
    assert_eq!(found, expected);
    let text = metrics.to_string();
    assert_eq!(text.lines().count(), expected.len());
    let first = value(&metrics, "buffer.logical_reads");
    assert!(text.starts_with(&format!("buffer.logical_reads {first}\n")));
}

#[test]
fn each_section_equals_its_view() {
    let dir = TempDir::new("views");
    let mut db = database(&dir);
    db.table("words").unwrap().insert("zyzzyva").unwrap();
    db.query("words", Predicate::str_prefix("a"))
        .unwrap()
        .rows()
        .unwrap();
    db.checkpoint().unwrap();

    let metrics = db.metrics();
    let io = db.pool().stats();
    let buffer = [
        ("logical_reads", io.logical_reads),
        ("physical_reads", io.physical_reads),
        ("physical_writes", io.physical_writes),
        ("evictions", io.evictions),
    ];
    let ckpt = db.checkpoint_stats();
    let checkpoint = [
        ("checkpoints", ckpt.checkpoints),
        ("chunks_written", ckpt.chunks_written),
        ("chunks_skipped", ckpt.chunks_skipped),
        ("tables_skipped", ckpt.tables_skipped),
        ("catalog_bytes", ckpt.catalog_bytes),
        ("data_pages_flushed", ckpt.data_pages_flushed),
        ("journal_bytes", ckpt.journal_bytes),
        ("quiesce_nanos", ckpt.quiesce_nanos),
    ];
    let wal = db.wal().unwrap();
    let wal = [
        ("records", wal.written_count()),
        ("syncs", wal.sync_count()),
    ];
    for (section, fields) in [
        ("buffer", &buffer[..]),
        ("checkpoint", &checkpoint[..]),
        ("wal", &wal[..]),
    ] {
        for &(field, expected) in fields {
            let name = format!("{section}.{field}");
            assert_eq!(value(&metrics, &name), expected, "{name}");
        }
    }
    assert!(io.logical_reads > 0 && ckpt.checkpoints > 0 && wal[0].1 > 0);
}

#[test]
fn an_insert_moves_only_its_tables_latches() {
    let dir = TempDir::new("latches");
    let db = database(&dir);
    let before = db.metrics();
    db.table("words").unwrap().insert("zyzzyva").unwrap();
    let delta = db.metrics().delta_since(&before);
    for index in INDEXES {
        let name = format!("index.{index}.latch_acquisitions");
        let moved = value(&delta, &name);
        if index.starts_with("words.") {
            assert!(moved > 0, "{name} did not move");
        } else {
            assert_eq!(moved, 0, "{name} moved on an insert into words");
        }
    }
    assert_eq!(value(&delta, "wal.records"), 1);
}

#[test]
fn a_delta_subtracts_counters_and_keeps_gauges() {
    let dir = TempDir::new("gauges");
    let db = database(&dir);
    // One cursor is open across the whole window, another opens inside it
    // and stays open at its end; the first closes inside it.
    let (held, index) = open_point_cursor(&db);
    let prefix = format!("index.points.{index}");
    let before = db.metrics();
    assert_eq!(value(&before, &format!("{prefix}.active_pins")), 1);
    let (open_at_end, _) = open_point_cursor(&db);
    drop(held);
    let after = db.metrics();
    let delta = after.delta_since(&before);

    let pins = format!("{prefix}.epoch_pins");
    assert!(value(&before, &pins) > 0);
    assert_eq!(
        value(&delta, &pins),
        value(&after, &pins) - value(&before, &pins)
    );
    assert_eq!(value(&delta, &pins), 1, "one cursor opened in the window");
    assert_eq!(
        value(&delta, &format!("{prefix}.active_pins")),
        1,
        "a gauge keeps its end value"
    );
    drop(open_at_end);
}

#[test]
fn a_dropped_and_recreated_index_between_snapshots() {
    let dir = TempDir::new("ddl");
    let mut db = database(&dir);
    db.table("points")
        .unwrap()
        .insert(Point::new(1.0, 2.0))
        .unwrap();
    let before = db.metrics();
    assert!(value(&before, "index.points.points_pquad.latch_acquisitions") > 0);

    assert!(db.drop_index("points", "points_pquad").unwrap());
    db.create_index("points", "points_pquad_v2", IndexSpec::PointQuadtree)
        .unwrap();
    db.table("points")
        .unwrap()
        .insert(Point::new(3.0, 4.0))
        .unwrap();
    let after = db.metrics();
    let delta = after.delta_since(&before);

    assert!(
        delta
            .iter()
            .all(|(name, _, _)| !name.starts_with("index.points.points_pquad.")),
        "the delta names the dropped index"
    );
    for (field, _) in INDEX_FIELDS {
        let name = format!("index.points.points_pquad_v2.{field}");
        assert_eq!(value(&delta, &name), value(&after, &name), "{name}");
    }
    assert!(value(&delta, "index.points.points_pquad_v2.latch_acquisitions") > 0);
    assert_eq!(delta.iter().count(), before.iter().count());
}
