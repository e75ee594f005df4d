//! The brute-force oracle: evaluates a query over the model's live rows
//! with the benchmark's own matching code (no index, no planner, none of
//! the engine's predicate evaluators) and compares the engine's answer.

use spgist_catalog::{Datum, Predicate, Query};
use spgist_core::RowId;
use spgist_indexes::{Point, PointQuery, Rect, Segment, SegmentQuery, StringQuery};

use crate::data::TableModel;

fn regex_matches(pattern: &[u8], key: &[u8]) -> bool {
    pattern.len() == key.len() && pattern.iter().zip(key).all(|(p, k)| *p == b'?' || p == k)
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    needle.is_empty() || haystack.windows(needle.len()).any(|w| w == needle)
}

fn in_rect(p: &Point, r: &Rect) -> bool {
    r.min_x <= p.x && p.x <= r.max_x && r.min_y <= p.y && p.y <= r.max_y
}

fn cross(o: &Point, a: &Point, b: &Point) -> f64 {
    (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
}

fn on_segment(a: &Point, b: &Point, p: &Point) -> bool {
    p.x >= a.x.min(b.x) && p.x <= a.x.max(b.x) && p.y >= a.y.min(b.y) && p.y <= a.y.max(b.y)
}

/// Closed-segment intersection by orientation tests.
fn segments_intersect(a: &Point, b: &Point, c: &Point, d: &Point) -> bool {
    let (d1, d2) = (cross(c, d, a), cross(c, d, b));
    let (d3, d4) = (cross(a, b, c), cross(a, b, d));
    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    (d1 == 0.0 && on_segment(c, d, a))
        || (d2 == 0.0 && on_segment(c, d, b))
        || (d3 == 0.0 && on_segment(a, b, c))
        || (d4 == 0.0 && on_segment(a, b, d))
}

/// A segment meets a closed rectangle when an end point lies inside it or
/// it crosses one of the four sides.
fn segment_meets_rect(s: &Segment, r: &Rect) -> bool {
    if in_rect(&s.a, r) || in_rect(&s.b, r) {
        return true;
    }
    let corners = [
        Point::new(r.min_x, r.min_y),
        Point::new(r.max_x, r.min_y),
        Point::new(r.max_x, r.max_y),
        Point::new(r.min_x, r.max_y),
    ];
    (0..4).any(|i| segments_intersect(&s.a, &s.b, &corners[i], &corners[(i + 1) % 4]))
}

/// Whether `datum` satisfies `predicate` (`@@` leaves order, they do not
/// select, so they match every value of their type).
pub fn matches(predicate: &Predicate, datum: &Datum) -> bool {
    match (predicate, datum) {
        (Predicate::Str(q), Datum::Text(key)) => match q {
            StringQuery::Equals(s) => key == s,
            StringQuery::Prefix(p) => key.as_bytes().starts_with(p.as_bytes()),
            StringQuery::Regex(p) => regex_matches(p.as_bytes(), key.as_bytes()),
            StringQuery::Substring(s) => contains(key.as_bytes(), s.as_bytes()),
            StringQuery::Nearest(_) => true,
        },
        (Predicate::Point(q), Datum::Point(p)) => match q {
            PointQuery::Equals(e) => p.x == e.x && p.y == e.y,
            PointQuery::InRect(r) => in_rect(p, r),
            PointQuery::Nearest(_) => true,
        },
        (Predicate::Segment(q), Datum::Segment(s)) => match q {
            SegmentQuery::Equals(e) => s == e,
            SegmentQuery::InRect(r) => segment_meets_rect(s, r),
            SegmentQuery::Nearest(_) => true,
        },
        (Predicate::And(children), _) => children.iter().all(|c| matches(c, datum)),
        (Predicate::Or(children), _) => children.iter().any(|c| matches(c, datum)),
        (Predicate::Not(inner), _) => !matches(inner, datum),
        _ => false,
    }
}

fn distinct(rows: &[RowId]) -> bool {
    let mut sorted = rows.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).all(|w| w[0] != w[1])
}

/// Checks the engine's answer `got` (row ids in the order the cursor
/// yielded them) to `query` against a brute-force scan of `table`.
///
/// * no `LIMIT`: the same set of rows;
/// * `LIMIT k` under a top-level `@@`: `min(k, matches)` distinct live
///   rows, in non-decreasing distance, whose distances are the smallest
///   there are (ties may be broken either way);
/// * any other `LIMIT k`: `min(k, matches)` distinct matching rows.
pub fn check(query: &Query, table: &TableModel, got: &[RowId]) -> Result<(), String> {
    let full: Vec<RowId> = table
        .live_rows()
        .filter(|(_, datum)| matches(&query.predicate, datum))
        .map(|(row, _)| row)
        .collect();
    let Some(k) = query.limit else {
        let mut sorted = got.to_vec();
        sorted.sort_unstable();
        return if sorted == full {
            Ok(())
        } else {
            Err(format!(
                "{:?}: engine returned {} rows, oracle {}",
                query.predicate,
                got.len(),
                full.len()
            ))
        };
    };
    let want = k.min(full.len());
    if got.len() != want || !distinct(got) {
        return Err(format!(
            "{:?} LIMIT {k}: engine returned {} rows ({}distinct), oracle expects {want}",
            query.predicate,
            got.len(),
            if distinct(got) { "" } else { "not " }
        ));
    }
    if let Some(row) = got.iter().find(|row| full.binary_search(row).is_err()) {
        return Err(format!("{:?}: row {row} does not match", query.predicate));
    }
    if let Predicate::Point(PointQuery::Nearest(anchor)) = &query.predicate {
        let distance = |row: &RowId| match &table.rows[*row as usize] {
            Some(Datum::Point(p)) => {
                let (dx, dy) = (p.x - anchor.x, p.y - anchor.y);
                (dx * dx + dy * dy).sqrt()
            }
            _ => f64::INFINITY,
        };
        let got_d: Vec<f64> = got.iter().map(distance).collect();
        if got_d.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!("{:?}: rows not in distance order", query.predicate));
        }
        let mut best: Vec<f64> = full.iter().map(distance).collect();
        best.sort_by(f64::total_cmp);
        if got_d[..] != best[..want] {
            return Err(format!(
                "{:?}: not the {want} nearest rows",
                query.predicate
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Model, POINTS, SEGMENTS, WORDS};

    fn model() -> Model {
        let mut m = Model::default();
        for w in ["space", "spade", "spare", "star", "blue"] {
            m.insert(WORDS, Datum::Text(w.into()));
        }
        for (x, y) in [(1.0, 1.0), (2.0, 2.0), (5.0, 5.0), (9.0, 9.0)] {
            m.insert(POINTS, Datum::Point(Point::new(x, y)));
        }
        m.insert(
            SEGMENTS,
            Datum::Segment(Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0))),
        );
        m.insert(
            SEGMENTS,
            Datum::Segment(Segment::new(Point::new(0.0, 5.0), Point::new(1.0, 6.0))),
        );
        m
    }

    #[test]
    fn accepts_right_answers() {
        let m = model();
        let words = &m.tables[WORDS];
        check(&Predicate::str_prefix("spa").into(), words, &[2, 0, 1]).unwrap();
        check(&Predicate::str_regex("spa?e").into(), words, &[0, 1, 2]).unwrap();
        check(&Predicate::str_substring("ar").into(), words, &[2, 3]).unwrap();
        check(&Predicate::str_equals("nope").into(), words, &[]).unwrap();
        check(&Predicate::str_prefix("s").limit(2), words, &[3, 1]).unwrap();
        let composite = Predicate::str_prefix("sp")
            .and(Predicate::str_substring("ad"))
            .or(Predicate::str_equals("blue"));
        check(&composite.into(), words, &[1, 4]).unwrap();

        let points = &m.tables[POINTS];
        let window = Rect::new(0.0, 0.0, 2.0, 2.0);
        check(&Predicate::point_in_rect(window).into(), points, &[0, 1]).unwrap();
        check(
            &Predicate::point_nearest(Point::new(4.0, 4.0)).limit(2),
            points,
            &[2, 1],
        )
        .unwrap();

        // The diagonal crosses the window without an end point inside it.
        let segments = &m.tables[SEGMENTS];
        let window = Rect::new(4.0, 4.0, 6.0, 6.0);
        check(&Predicate::segment_in_rect(window).into(), segments, &[0]).unwrap();
    }

    #[test]
    fn a_deliberately_wrong_result_is_rejected() {
        let m = model();
        let words = &m.tables[WORDS];
        let prefix: Query = Predicate::str_prefix("spa").into();
        assert!(check(&prefix, words, &[0, 1]).is_err(), "missing row");
        assert!(check(&prefix, words, &[0, 1, 2, 3]).is_err(), "extra row");
        assert!(check(&prefix, words, &[0, 1, 1]).is_err(), "duplicate row");
        let limited = Predicate::str_prefix("s").limit(2);
        assert!(check(&limited, words, &[0]).is_err(), "short of the limit");
        assert!(check(&limited, words, &[0, 4]).is_err(), "non-matching row");

        let points = &m.tables[POINTS];
        let knn = Predicate::point_nearest(Point::new(4.0, 4.0)).limit(2);
        assert!(
            check(&knn, points, &[1, 2]).is_err(),
            "out of distance order"
        );
        assert!(check(&knn, points, &[2, 3]).is_err(), "not the nearest");
    }

    #[test]
    fn deleted_rows_must_not_be_reported() {
        let mut m = model();
        m.tables[WORDS].delete(1);
        let words = &m.tables[WORDS];
        let prefix: Query = Predicate::str_prefix("spa").into();
        check(&prefix, words, &[0, 2]).unwrap();
        assert!(check(&prefix, words, &[0, 1, 2]).is_err());
    }

    #[test]
    fn own_matcher_agrees_with_the_engine_leaf_semantics_on_random_segments() {
        // Not used by `check`: guards the oracle's independent geometry
        // against drifting from the engine's definition of `&&`.
        let segs = spgist_datagen::segments(2_000, 5.0, 11);
        let wins = spgist_datagen::QueryWorkload::windows(50, 4.0, 12);
        for w in &wins {
            for s in &segs {
                assert_eq!(
                    segment_meets_rect(s, w),
                    s.intersects_rect(w),
                    "{s:?} {w:?}"
                );
            }
        }
    }
}
