//! End-to-end tests of the compositional query pipeline: boolean predicate
//! trees plan to index scans + residual filters, `LIMIT` is pushed down and
//! streams instead of materializing, and `@@` nearest-neighbour predicates
//! execute through a planner-chosen ordered scan on every NN-capable index.

use spgist::datagen::{points, segments, words, world};
use spgist::prelude::*;

fn word_database(n: usize) -> (Database, Vec<String>) {
    let mut db = Database::in_memory();
    db.create_table("words", KeyType::Varchar).unwrap();
    let data = words(n, 20060403);
    let table = db.table_mut("words").unwrap();
    for w in &data {
        table.insert(w.as_str()).unwrap();
    }
    table.create_index("words_trie", IndexSpec::Trie).unwrap();
    (db, data)
}

/// The acceptance query: `(prefix AND regex) OR equals`, with `LIMIT k`.
fn acceptance_predicate(data: &[String]) -> (Predicate, impl Fn(&str) -> bool + '_) {
    let long = data.iter().find(|w| w.len() >= 5).unwrap().clone();
    let prefix = long[..2].to_string();
    let pattern = {
        let mut p = long.clone().into_bytes();
        let last = p.len() - 1;
        p[last] = b'?';
        String::from_utf8(p).unwrap()
    };
    let equals = data[7].clone();
    let predicate = Predicate::str_prefix(&prefix)
        .and(Predicate::str_regex(&pattern))
        .or(Predicate::str_equals(&equals));
    let model = move |w: &str| {
        let pb = pattern.as_bytes();
        let regex_hit =
            w.len() == pb.len() && pb.iter().zip(w.bytes()).all(|(p, c)| *p == b'?' || *p == c);
        (w.starts_with(prefix.as_str()) && regex_hit) || w == equals
    };
    (predicate, model)
}

#[test]
fn boolean_tree_with_limit_plans_to_index_scans_plus_residual_filter() {
    let (db, data) = word_database(6_000);
    let (predicate, model) = acceptance_predicate(&data);

    let cursor = db.query("words", predicate.clone().limit(3)).unwrap();

    // Plan shape: LIMIT over a union of (a filtered index scan) and (an
    // index scan) — the conjunction drives one index scan and re-checks the
    // other conjunct as a residual filter.
    let AccessPath::Limit { input, k } = cursor.path() else {
        panic!(
            "LIMIT must be pushed into the plan, got {:?}",
            cursor.path()
        );
    };
    assert_eq!(*k, 3);
    let AccessPath::Union { inputs, .. } = input.as_ref() else {
        panic!("the disjunction must plan to a union, got {input:?}");
    };
    assert_eq!(inputs.len(), 2);
    assert!(
        matches!(
            &inputs[0],
            AccessPath::Filter { input, .. }
                if matches!(input.as_ref(), AccessPath::IndexScan { index, .. } if index == "words_trie")
        ) || matches!(&inputs[0], AccessPath::Intersect { .. }),
        "the AND arm must be an index scan + residual filter (or an intersection), got {:?}",
        inputs[0]
    );
    assert!(
        matches!(&inputs[1], AccessPath::IndexScan { index, .. } if index == "words_trie"),
        "the equality arm must be a bare index scan, got {:?}",
        inputs[1]
    );

    // Dispatch mirrors the plan.
    assert!(
        matches!(cursor.source(), ScanSource::Limit { input }
            if matches!(input.as_ref(), ScanSource::Union { .. })),
        "executed source must mirror the plan, got {:?}",
        cursor.source()
    );
    assert!(cursor.source().scans_index("words_trie"));

    // ≤ k rows, all satisfying the predicate.
    let rows = cursor.rows().unwrap();
    assert!(rows.len() <= 3);
    assert!(!rows.is_empty());
    for &row in &rows {
        let Datum::Text(w) = db.table("words").unwrap().datum(row).unwrap() else {
            panic!("non-text datum");
        };
        assert!(
            model(&w),
            "row {row} ({w:?}) does not satisfy the predicate"
        );
    }

    // Without the limit, the union returns exactly the set-algebra model.
    let mut all = db.query("words", &predicate).unwrap().rows().unwrap();
    all.sort_unstable();
    let expected: Vec<RowId> = data
        .iter()
        .enumerate()
        .filter(|(_, w)| model(w))
        .map(|(i, _)| i as RowId)
        .collect();
    assert_eq!(all, expected);
    assert!(rows.iter().all(|r| expected.contains(r)));
}

#[test]
fn limit_streams_without_materializing_the_full_result() {
    let (db, _) = word_database(8_000);
    let predicate = Predicate::str_prefix("a");

    // Warm up the memoized planner statistics (their first derivation walks
    // the tree) so the measurement below isolates scan I/O.
    db.plan("words", &predicate).unwrap();

    let before = db.pool().stats();
    let limited = db
        .query("words", predicate.clone().limit(3))
        .unwrap()
        .rows()
        .unwrap();
    let limited_reads = db.pool().stats().delta_since(&before).logical_reads;
    assert_eq!(limited.len(), 3);

    let before = db.pool().stats();
    let full = db.query("words", &predicate).unwrap().rows().unwrap();
    let full_reads = db.pool().stats().delta_since(&before).logical_reads;
    assert!(full.len() > 100, "prefix 'a' must match many words");

    assert!(
        limited_reads * 5 < full_reads,
        "LIMIT 3 must stop the scan early: {limited_reads} reads vs {full_reads} for the full scan"
    );
}

#[test]
fn dropping_the_operator_class_reroutes_the_boolean_tree_to_the_heap() {
    let (mut db, data) = word_database(5_000);
    let (predicate, _) = acceptance_predicate(&data);

    let planned = db.plan("words", &predicate).unwrap();
    assert!(planned.uses_index());
    let indexed_rows = {
        let mut rows = db.query("words", &predicate).unwrap().rows().unwrap();
        rows.sort_unstable();
        rows
    };

    db.catalog_mut().unregister_operator_class("SP_GiST_trie");
    let cursor = db.query("words", &predicate).unwrap();
    assert!(
        matches!(cursor.path(), AccessPath::SeqScan { .. }),
        "without the operator class the whole tree must fall back to the heap"
    );
    assert_eq!(cursor.source(), &ScanSource::Heap);
    let mut rows = cursor.rows().unwrap();
    rows.sort_unstable();
    assert_eq!(rows, indexed_rows, "same rows either way");
}

/// k-NN through the executor on one spatial table: plan shape, dispatch
/// shape, and agreement with the brute-force distances.
fn check_knn_table(
    db: &Database,
    table: &str,
    index_name: &str,
    anchor: Point,
    k: usize,
    brute: &mut [f64],
    distance_of: impl Fn(&Datum) -> f64,
) {
    let nearest = match db.table(table).unwrap().key_type() {
        KeyType::Point => Predicate::point_nearest(anchor),
        KeyType::Segment => Predicate::segment_nearest(anchor),
        KeyType::Varchar => unreachable!("spatial tables only"),
    };
    let cursor = db.query(table, nearest.limit(k)).unwrap();

    let AccessPath::Limit { input, .. } = cursor.path() else {
        panic!(
            "{table}: LIMIT must wrap the ordered scan, got {:?}",
            cursor.path()
        );
    };
    assert!(
        matches!(input.as_ref(), AccessPath::OrderedScan { index, .. } if index == index_name),
        "{table}: `@@` must plan to an ordered scan over {index_name}, got {input:?}"
    );
    assert!(
        matches!(cursor.source(), ScanSource::Limit { input }
            if matches!(input.as_ref(), ScanSource::OrderedIndex { name } if name == index_name)),
        "{table}: dispatch must be the ordered index scan, got {:?}",
        cursor.source()
    );

    let results: Vec<(RowId, Datum)> = cursor.collect::<Result<_, _>>().unwrap();
    assert_eq!(results.len(), k);
    let dists: Vec<f64> = results.iter().map(|(_, d)| distance_of(d)).collect();
    assert!(
        dists.windows(2).all(|w| w[0] <= w[1] + 1e-9),
        "{table}: results must stream in non-decreasing distance"
    );
    brute.sort_by(f64::total_cmp);
    for (i, d) in dists.iter().enumerate() {
        assert!(
            (d - brute[i]).abs() < 1e-9,
            "{table}: k={i} distance mismatch ({d} vs {})",
            brute[i]
        );
    }
}

#[test]
fn knn_executes_via_planned_ordered_scan_on_kdtree_quadtree_and_pmr() {
    let mut db = Database::in_memory();
    let pts = points(4_000, 11);
    for (table, spec) in [
        ("kd_points", IndexSpec::KdTree),
        ("quad_points", IndexSpec::PointQuadtree),
    ] {
        db.create_table(table, KeyType::Point).unwrap();
        let t = db.table_mut(table).unwrap();
        for p in &pts {
            t.insert(*p).unwrap();
        }
        t.create_index(&format!("{table}_idx"), spec).unwrap();
    }
    let segs = segments(2_000, 12.0, 12);
    db.create_table("roads", KeyType::Segment).unwrap();
    let t = db.table_mut("roads").unwrap();
    for s in &segs {
        t.insert(*s).unwrap();
    }
    t.create_index("roads_idx", IndexSpec::PmrQuadtree { world: world() })
        .unwrap();

    let anchor = Point::new(37.0, 61.0);
    let k = 15;
    for table in ["kd_points", "quad_points"] {
        let mut brute: Vec<f64> = pts.iter().map(|p| p.distance(&anchor)).collect();
        check_knn_table(
            &db,
            table,
            &format!("{table}_idx"),
            anchor,
            k,
            &mut brute,
            |d| match d {
                Datum::Point(p) => p.distance(&anchor),
                other => panic!("non-point datum {other:?}"),
            },
        );
    }
    let mut brute: Vec<f64> = segs.iter().map(|s| s.distance_to_point(&anchor)).collect();
    check_knn_table(
        &db,
        "roads",
        "roads_idx",
        anchor,
        k,
        &mut brute,
        |d| match d {
            Datum::Segment(s) => s.distance_to_point(&anchor),
            other => panic!("non-segment datum {other:?}"),
        },
    );
}

#[test]
fn constrained_knn_filters_an_ordered_scan() {
    let mut db = Database::in_memory();
    let pts = points(3_000, 21);
    db.create_table("pts", KeyType::Point).unwrap();
    let t = db.table_mut("pts").unwrap();
    for p in &pts {
        t.insert(*p).unwrap();
    }
    t.create_index("pts_kd", IndexSpec::KdTree).unwrap();

    let anchor = Point::new(50.0, 50.0);
    let window = Rect::new(30.0, 30.0, 70.0, 70.0);
    let k = 10;
    let cursor = db
        .query(
            "pts",
            Predicate::point_nearest(anchor)
                .and(Predicate::point_in_rect(window))
                .limit(k),
        )
        .unwrap();

    // Plan: LIMIT over a residual filter over the ordered scan — the
    // constrained-k-NN shape (order survives filtering).
    let AccessPath::Limit { input, .. } = cursor.path() else {
        panic!("expected a LIMIT plan, got {:?}", cursor.path());
    };
    let AccessPath::Filter { input, .. } = input.as_ref() else {
        panic!("expected a residual filter, got {input:?}");
    };
    assert!(matches!(input.as_ref(), AccessPath::OrderedScan { index, .. } if index == "pts_kd"));

    let results: Vec<(RowId, Datum)> = cursor.collect::<Result<_, _>>().unwrap();
    assert_eq!(results.len(), k);
    let mut brute: Vec<f64> = pts
        .iter()
        .filter(|p| window.contains_point(p))
        .map(|p| p.distance(&anchor))
        .collect();
    brute.sort_by(f64::total_cmp);
    for (i, (_, datum)) in results.iter().enumerate() {
        let Datum::Point(p) = datum else {
            panic!("non-point datum");
        };
        assert!(window.contains_point(p), "k={i} violates the window filter");
        assert!(
            (p.distance(&anchor) - brute[i]).abs() < 1e-9,
            "k={i} distance mismatch"
        );
    }
}

#[test]
fn knn_without_an_nn_capable_index_falls_back_to_a_sorted_heap_scan() {
    let mut db = Database::in_memory();
    let pts = points(500, 31);
    db.create_table("pts", KeyType::Point).unwrap();
    let t = db.table_mut("pts").unwrap();
    for p in &pts {
        t.insert(*p).unwrap();
    }
    // No index at all: the ordered query must still work, sorted.
    let anchor = Point::new(10.0, 90.0);
    let cursor = db
        .query("pts", Predicate::point_nearest(anchor).limit(5))
        .unwrap();
    assert!(matches!(cursor.path(), AccessPath::Limit { input, .. }
        if matches!(input.as_ref(), AccessPath::SeqScan { .. })));
    let results: Vec<(RowId, Datum)> = cursor.collect::<Result<_, _>>().unwrap();
    let mut brute: Vec<f64> = pts.iter().map(|p| p.distance(&anchor)).collect();
    brute.sort_by(f64::total_cmp);
    for (i, (_, datum)) in results.iter().enumerate() {
        let Datum::Point(p) = datum else {
            panic!("non-point datum");
        };
        assert!((p.distance(&anchor) - brute[i]).abs() < 1e-9);
    }
}

#[test]
fn empty_prefix_is_honestly_planned_as_a_seq_scan() {
    let (db, data) = word_database(6_000);
    // The trie supports `#=`, but an empty prefix matches every row — the
    // cost model must route it to the heap (the satellite regression).
    let cursor = db.query("words", Predicate::str_prefix("")).unwrap();
    assert!(
        matches!(cursor.path(), AccessPath::SeqScan { .. }),
        "an all-rows prefix must not use the index, got {:?}",
        cursor.path()
    );
    assert_eq!(cursor.rows().unwrap().len(), data.len());
    // A selective prefix still uses it: the crossover exists.
    let selective = db.query("words", Predicate::str_prefix("abc")).unwrap();
    assert!(selective.path().uses_index());
}
