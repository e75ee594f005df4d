//! Index-only scans answer exactly like the heap, for all five index classes.
//!
//! The trie, kd-tree, point quadtree and PMR quadtree hand the executor the
//! key their leaf holds instead of sending it to the heap for the same
//! bytes; the suffix tree still resolves its rows through the heap.  Either
//! way every `(row, datum)` a cursor yields must be what `Table::datum(row)`
//! reads, and the rows must be the ones a sequential scan finds once every
//! index is dropped — over bulk-built indexes that then saw auto-commit
//! inserts and deletes and an aborted transaction (so a key reached its
//! leaf by `bulk_build`, `insert` and `undo_delete`, and left it by `delete`
//! and `undo_insert`).

use spgist::datagen::{points, segments, words, world};
use spgist::prelude::*;

const SEED: u64 = 0x1d0_0517;

/// What the churn did to one table, so queries can aim at it.
struct Churned {
    inserted: Datum,
    deleted: Datum,
    abort_inserted: Datum,
    abort_deleted: Datum,
}

/// Loads `base`, builds `indexes` in bulk, then churns: 200 auto-commit
/// inserts, 200 auto-commit deletes, and one aborted transaction that
/// inserted 60 rows and deleted 60.
fn load_and_churn(
    db: &mut Database,
    name: &str,
    key_type: KeyType,
    indexes: &[(&str, IndexSpec)],
    base: Vec<Datum>,
    mut fresh: Vec<Datum>,
) -> Churned {
    db.create_table(name, key_type).unwrap();
    db.table(name).unwrap().insert_many(base).unwrap();
    for (index, spec) in indexes {
        db.create_index(name, index, *spec).unwrap();
    }
    let table = db.table(name).unwrap();
    assert_eq!(fresh.len(), 260);
    let abort_fresh = fresh.split_off(200);
    let inserted = fresh[7].clone();
    for datum in fresh {
        table.insert(datum).unwrap();
    }
    let deleted = table.datum(5_000).unwrap();
    for row in (0..200).map(|i| 5_000 + i * 13) {
        assert!(table.delete(row).unwrap());
    }
    let abort_inserted = abort_fresh[3].clone();
    let abort_deleted = table.datum(100).unwrap();
    let mut txn = db.begin().unwrap();
    txn.insert(name, abort_fresh[0].clone()).unwrap();
    txn.insert_many(name, abort_fresh[1..].to_vec()).unwrap();
    for row in (0..60).map(|i| 100 + i * 17) {
        assert!(txn.delete(name, row).unwrap());
    }
    txn.abort().unwrap();
    Churned {
        inserted,
        deleted,
        abort_inserted,
        abort_deleted,
    }
}

struct Case {
    table: &'static str,
    /// The index the planner must route the query through while it exists
    /// (`None`: any index).
    index: Option<&'static str>,
    name: String,
    query: Query,
}

fn case(table: &'static str, index: &'static str, name: &str, query: impl Into<Query>) -> Case {
    Case {
        table,
        index: Some(index),
        name: format!("{table}: {name}"),
        query: query.into(),
    }
}

/// Runs every case, checking each yielded datum against the heap, and
/// returns the answers in case order.
fn answers(db: &Database, cases: &[Case], indexed: bool) -> Vec<Vec<(RowId, Datum)>> {
    cases
        .iter()
        .map(|case| {
            let cursor = db.query(case.table, &case.query).unwrap();
            assert_eq!(cursor.path().uses_index(), indexed, "{}", case.name);
            if let (true, Some(index)) = (indexed, case.index) {
                assert!(
                    cursor.source().scans_index(index),
                    "{}: routed to {:?}",
                    case.name,
                    cursor.source()
                );
            }
            let out: Vec<(RowId, Datum)> = cursor.collect::<Result<_, _>>().unwrap();
            let table = db.table(case.table).unwrap();
            for (row, datum) in &out {
                assert_eq!(
                    &table.datum(*row).unwrap(),
                    datum,
                    "{}: row {row}",
                    case.name
                );
            }
            out
        })
        .collect()
}

#[test]
fn every_class_answers_like_the_heap_after_build_dml_and_aborts() {
    let mut db = Database::in_memory();
    let text = |w: &String| Datum::Text(w.clone());
    // Every word is long enough to cut a prefix, a pattern and a slice from.
    let all_words: Vec<String> = words(30_000, SEED)
        .into_iter()
        .filter(|w| w.len() >= 4)
        .take(20_260)
        .collect();
    assert_eq!(all_words.len(), 20_260);
    let w = load_and_churn(
        &mut db,
        "words",
        KeyType::Varchar,
        &[
            ("words_trie", IndexSpec::Trie),
            ("words_suffix", IndexSpec::SuffixTree),
        ],
        all_words[..20_000].iter().map(text).collect(),
        all_words[20_000..].iter().map(text).collect(),
    );
    let all_points = points(20_260, SEED + 1);
    let mut p = Vec::new();
    for (table, index, spec) in [
        ("points_kd", "kd", IndexSpec::KdTree),
        ("points_pquad", "pquad", IndexSpec::PointQuadtree),
    ] {
        p.push(load_and_churn(
            &mut db,
            table,
            KeyType::Point,
            &[(index, spec)],
            all_points[..20_000].iter().map(|p| (*p).into()).collect(),
            all_points[20_000..].iter().map(|p| (*p).into()).collect(),
        ));
    }
    let all_segments = segments(10_260, 5.0, SEED + 2);
    let s = load_and_churn(
        &mut db,
        "segments",
        KeyType::Segment,
        &[("pmr", IndexSpec::PmrQuadtree { world: world() })],
        all_segments[..10_000].iter().map(|s| (*s).into()).collect(),
        all_segments[10_000..].iter().map(|s| (*s).into()).collect(),
    );

    let mut cases = Vec::new();
    let touched = |c: &Churned| {
        [
            ("inserted", c.inserted.clone()),
            ("deleted", c.deleted.clone()),
            ("abort-inserted", c.abort_inserted.clone()),
            ("abort-deleted", c.abort_deleted.clone()),
        ]
    };
    for (what, datum) in touched(&w) {
        let Datum::Text(word) = datum else {
            panic!("non-text datum in a varchar table");
        };
        let mut pattern = word.clone().into_bytes();
        pattern[1] = b'?';
        let pattern = String::from_utf8(pattern).unwrap();
        let (prefix, slice) = (&word[..2], &word[1..4]);
        let trie = |name: String, q: Query| case("words", "words_trie", &name, q);
        cases.extend([
            trie(format!("= {what}"), Predicate::str_equals(&word).into()),
            trie(format!("#= {what}"), Predicate::str_prefix(prefix).into()),
            trie(format!("?= {what}"), Predicate::str_regex(&pattern).into()),
            case(
                "words",
                "words_suffix",
                &format!("@= {what}"),
                Predicate::str_substring(slice),
            ),
            trie(
                format!("@@ {what} LIMIT 7"),
                Predicate::str_nearest(&word).limit(7),
            ),
            Case {
                index: None,
                ..trie(
                    format!("(#= AND @=) OR = {what}"),
                    Predicate::str_prefix(&word[..1])
                        .and(Predicate::str_substring(slice))
                        .or(Predicate::str_equals(&word))
                        .into(),
                )
            },
        ]);
    }
    for (table, index, churned) in [("points_kd", "kd", &p[0]), ("points_pquad", "pquad", &p[1])] {
        for (what, datum) in touched(churned) {
            let Datum::Point(at) = datum else {
                panic!("non-point datum in a point table");
            };
            let window = Rect::new(at.x - 1.5, at.y - 1.5, at.x + 1.5, at.y + 1.5);
            cases.extend([
                case(
                    table,
                    index,
                    &format!("@ {what}"),
                    Predicate::point_equals(at),
                ),
                case(
                    table,
                    index,
                    &format!("^ {what}"),
                    Predicate::point_in_rect(window),
                ),
                case(
                    table,
                    index,
                    &format!("@@ {what} LIMIT 9"),
                    Predicate::point_nearest(Point::new(at.x + 0.01, at.y)).limit(9),
                ),
                case(
                    table,
                    index,
                    &format!("^ AND @@ {what} LIMIT 5"),
                    Predicate::point_in_rect(window)
                        .and(Predicate::point_nearest(at))
                        .limit(5),
                ),
            ]);
        }
    }
    for (what, datum) in touched(&s) {
        let Datum::Segment(seg) = datum else {
            panic!("non-segment datum in a segment table");
        };
        let window = Rect::new(seg.a.x - 1.0, seg.a.y - 1.0, seg.a.x + 1.0, seg.a.y + 1.0);
        cases.extend([
            case(
                "segments",
                "pmr",
                &format!("= {what}"),
                Predicate::segment_equals(seg),
            ),
            case(
                "segments",
                "pmr",
                &format!("&& {what}"),
                Predicate::segment_in_rect(window),
            ),
            case(
                "segments",
                "pmr",
                &format!("@@ {what} LIMIT 6"),
                Predicate::segment_nearest(Point::new(seg.a.x + 0.3, seg.a.y - 0.2)).limit(6),
            ),
        ]);
    }
    let indexed = answers(&db, &cases, true);
    for (table, index) in [
        ("words", "words_trie"),
        ("words", "words_suffix"),
        ("points_kd", "kd"),
        ("points_pquad", "pquad"),
        ("segments", "pmr"),
    ] {
        assert!(db.drop_index(table, index).unwrap());
    }
    let scanned = answers(&db, &cases, false);

    let mut reported = 0;
    for ((case, indexed), scanned) in cases.iter().zip(indexed).zip(scanned) {
        let name = &case.name;
        // An equality probe finds its row unless the row's last word was a
        // delete or the abort of its insert.
        if name.contains(": = ") || name.contains(": @ ") {
            let gone = name.ends_with(" deleted") || name.ends_with(" abort-inserted");
            assert_eq!(scanned.is_empty(), gone, "{name}");
        }
        reported += indexed.len();
        if let Some(order) = case.query.predicate.ordered_driver() {
            let distances = |rows: &[(RowId, Datum)]| -> Vec<f64> {
                rows.iter()
                    .map(|(_, datum)| order.distance(datum))
                    .collect()
            };
            assert_eq!(distances(&indexed), distances(&scanned), "{name}");
            assert!(distances(&indexed).is_sorted(), "{name}");
            // Words order by Hamming distance, which ties: any 7 of the
            // closest rows are a right answer, so only distances compare.
            if case.table == "words" {
                continue;
            }
        }
        let rows = |rows: Vec<(RowId, Datum)>| {
            let mut rows: Vec<RowId> = rows.into_iter().map(|(row, _)| row).collect();
            rows.sort_unstable();
            rows
        };
        let (indexed, scanned) = (rows(indexed), rows(scanned));
        assert!(
            indexed.windows(2).all(|w| w[0] != w[1]),
            "{name}: duplicates"
        );
        assert_eq!(indexed, scanned, "{name}");
    }
    assert!(reported > 400, "only {reported} rows compared");
}
