//! Golden plans: every query kind of the repo benchmark, plus a constrained
//! k-NN, an `And`, an `Or` that falls back to the heap, a `Not` and a
//! `LIMIT`, planned over one small seeded database that carries all five
//! index classes.
//!
//! Each plan's route (rendered from its [`ScanSource`] the way the
//! benchmark renders it) and its startup and total cost are pinned bit for
//! bit, so a change that moves planning code around without meaning to
//! change a route or an estimate proves that it did not.  Every plan
//! `EXPLAIN` reports must also be the plan the cursor ran.

use spgist::catalog::CostEstimate;
use spgist::datagen::{points, segments, words, world};
use spgist::prelude::*;

const WORDS: usize = 4_000;
const POINTS: usize = 4_000;
const SEGMENTS: usize = 2_000;

fn database(words: &[String]) -> Database {
    let mut db = Database::in_memory();
    db.create_table("words", KeyType::Varchar).unwrap();
    db.create_table("points", KeyType::Point).unwrap();
    db.create_table("segments", KeyType::Segment).unwrap();
    let tables = [
        (
            "words",
            words.iter().map(|w| Datum::from(w.as_str())).collect(),
        ),
        (
            "points",
            points(POINTS, 35).into_iter().map(Datum::from).collect(),
        ),
        (
            "segments",
            segments(SEGMENTS, 2.0, 35)
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

fn render(source: &ScanSource) -> String {
    let list = |inputs: &[ScanSource]| inputs.iter().map(render).collect::<Vec<_>>().join(", ");
    match source {
        ScanSource::Heap => "heap".into(),
        ScanSource::Index { name } => name.clone(),
        ScanSource::OrderedIndex { name } => format!("ordered({name})"),
        ScanSource::Filter { input } => format!("filter({})", render(input)),
        ScanSource::Limit { input } => format!("limit({})", render(input)),
        ScanSource::Intersect { inputs } => format!("intersect({})", list(inputs)),
        ScanSource::Union { inputs } => format!("union({})", list(inputs)),
    }
}

/// The plan's own estimate (a `LIMIT` reports its input's).
fn estimate(path: &AccessPath) -> CostEstimate {
    match path {
        AccessPath::SeqScan { cost, .. }
        | AccessPath::IndexScan { cost, .. }
        | AccessPath::OrderedScan { cost, .. }
        | AccessPath::Filter { cost, .. }
        | AccessPath::Intersect { cost, .. }
        | AccessPath::Union { cost, .. } => *cost,
        AccessPath::Limit { input, .. } => estimate(input),
    }
}

/// `(name, table, query, route, startup_cost, total_cost)`.
type Golden = (&'static str, &'static str, Query, &'static str, f64, f64);

/// The benchmark's query kinds, with arguments taken from the data as the
/// benchmark takes them: a word's prefix, a regex with two wildcards, a
/// four-letter substring, windows of side 1 and 3 around a point.
fn cases(words: &[String]) -> Vec<Golden> {
    let window = |x: f64, y: f64, side: f64| Rect::new(x, y, x + side, y + side);
    let long = |from: usize| words[from..].iter().find(|w| w.len() >= 6).unwrap();
    let (w, v) = (long(17), long(400));
    let regex = format!("{}?{}?{}", &w[..1], &w[2..4], &w[5..]);
    vec![
        (
            "trie_eq",
            "words",
            Predicate::str_equals(&words[29]).into(),
            "words_trie",
            8.0,
            12.013448090371167,
        ),
        (
            "trie_prefix",
            "words",
            Predicate::str_prefix(&w[..3]).into(),
            "words_trie",
            8.0,
            12.002844788347748,
        ),
        (
            "trie_regex",
            "words",
            Predicate::str_regex(&regex).into(),
            "words_trie",
            8.0,
            12.00000005,
        ),
        (
            "suffix_sub",
            "words",
            Predicate::str_substring(&v[1..5]).into(),
            "words_suffix",
            12.0,
            20.000875319491616,
        ),
        (
            "kd_eq",
            "points",
            Predicate::point_equals(Point::new(50.0, 50.0)).into(),
            "points_kd",
            8.0,
            12.0125,
        ),
        (
            "kd_window",
            "points",
            Predicate::point_in_rect(window(20.0, 30.0, 1.0)).into(),
            "points_kd",
            8.0,
            12.025,
        ),
        (
            "kd_knn",
            "points",
            Predicate::point_nearest(Point::new(40.0, 60.0)).limit(10),
            "limit(ordered(points_kd))",
            8.0,
            12.399144607116552,
        ),
        (
            "pquad_window",
            "points",
            Predicate::point_in_rect(window(70.0, 10.0, 3.0)).into(),
            "points_kd",
            8.0,
            12.045,
        ),
        (
            "pmr_window",
            "segments",
            Predicate::segment_in_rect(window(45.0, 45.0, 1.0)).into(),
            "segments_pmr",
            8.0,
            12.0125,
        ),
        (
            "composite",
            "words",
            Predicate::str_prefix(&v[..3])
                .and(Predicate::str_substring(&v[2..5]))
                .or(Predicate::str_equals(&words[31]))
                .limit(10),
            "limit(union(filter(words_trie), words_trie))",
            8.0,
            24.01955171343296,
        ),
        (
            "constrained_knn",
            "points",
            Predicate::point_nearest(Point::new(40.0, 60.0))
                .and(Predicate::point_in_rect(window(35.0, 55.0, 10.0)))
                .limit(5),
            "limit(filter(ordered(points_pquad)))",
            8.0,
            45.207230355827605,
        ),
        (
            "and",
            "words",
            Predicate::str_prefix(&w[..2])
                .and(Predicate::str_substring(&v[1..5]))
                .into(),
            "filter(words_trie)",
            8.0,
            12.088757396449704,
        ),
        (
            "or_heap_fallback",
            "words",
            Predicate::str_equals(&words[31])
                .or(Predicate::str_prefix(""))
                .into(),
            "heap",
            0.0,
            57.0,
        ),
        (
            "not",
            "words",
            Predicate::str_prefix(&w[..2]).negate().into(),
            "heap",
            0.0,
            57.0,
        ),
        (
            "limit",
            "words",
            Predicate::str_prefix("b").limit(5),
            "limit(words_trie)",
            8.0,
            13.923076923076923,
        ),
    ]
}

#[test]
fn every_query_kind_plans_to_its_pinned_route_and_costs() {
    let words = words(WORDS, 35);
    let db = database(&words);
    let mut mismatches = Vec::new();
    for (name, table, query, route, startup, total) in cases(&words) {
        let table = db.table(table).unwrap();
        let planned = table.plan(db.catalog(), &query).unwrap();
        let cursor = table.query(db.catalog(), &query).unwrap();
        assert_eq!(
            &planned,
            cursor.path(),
            "{name}: EXPLAIN shows the plan that runs"
        );
        let got = estimate(&planned);
        assert_eq!(got.total_cost.to_bits(), planned.total_cost().to_bits());
        let got_route = render(cursor.source());
        if got_route != route
            || got.startup_cost.to_bits() != startup.to_bits()
            || got.total_cost.to_bits() != total.to_bits()
        {
            mismatches.push(format!(
                "{name}: route {got_route:?}, startup {:?}, total {:?}",
                got.startup_cost, got.total_cost
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "plans moved:\n  {}",
        mismatches.join("\n  ")
    );
}
