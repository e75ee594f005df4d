//! Property-based tests: for randomized datasets and queries, every index
//! agrees with a straightforward in-memory model, and the streaming
//! [`Cursor`] API returns exactly what the materializing API returns.
//!
//! The generators are seeded by case number (no external property-testing
//! crate: the build environment is offline), so every failure is
//! reproducible from the case index printed in the assertion message.

use spgist::datagen::rng::DetRng;
use spgist::prelude::*;

const CASES: u64 = 32;

/// Random word over a tiny alphabet, length 0..=15 — small alphabets
/// maximize prefix sharing and duplicate keys.
fn random_word(rng: &mut DetRng) -> String {
    let len = rng.gen_range(0..=15usize);
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(0..4u8)))
        .collect()
}

fn random_words(rng: &mut DetRng, max: usize) -> Vec<String> {
    let n = rng.gen_range(1..=max);
    (0..n).map(|_| random_word(rng)).collect()
}

/// Random point on a coarse 50×50 grid scaled by 2 — many duplicate
/// coordinates and exact duplicate points.
fn random_point(rng: &mut DetRng) -> Point {
    Point::new(
        f64::from(rng.gen_range(0..50u32)) * 2.0,
        f64::from(rng.gen_range(0..50u32)) * 2.0,
    )
}

fn random_points(rng: &mut DetRng, max: usize) -> Vec<Point> {
    let n = rng.gen_range(1..=max);
    (0..n).map(|_| random_point(rng)).collect()
}

fn random_segment(rng: &mut DetRng) -> Segment {
    let a = random_point(rng);
    let b = Point::new(
        (a.x + rng.gen_range(0.0..=20.0)).min(100.0),
        (a.y + rng.gen_range(0.0..=20.0)).min(100.0),
    );
    Segment::new(a, b)
}

fn sorted(mut rows: Vec<RowId>) -> Vec<RowId> {
    rows.sort_unstable();
    rows
}

#[test]
fn trie_matches_model_for_equality_prefix_and_regex() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(1000 + case);
        let word_list = random_words(&mut rng, 200);
        let probe = random_word(&mut rng);

        let trie = TrieIndex::create(BufferPool::in_memory()).unwrap();
        for (row, w) in word_list.iter().enumerate() {
            trie.insert(w.clone(), row as RowId).unwrap();
        }

        // Equality.
        let got = sorted(trie.equals(&probe).unwrap());
        let expected: Vec<RowId> = word_list
            .iter()
            .enumerate()
            .filter(|(_, w)| **w == probe)
            .map(|(i, _)| i as RowId)
            .collect();
        assert_eq!(got, expected, "case {case}: equality of {probe:?}");

        // Prefix.
        let prefix: String = probe.chars().take(2).collect();
        let got = sorted(
            trie.prefix(&prefix)
                .unwrap()
                .into_iter()
                .map(|(_, r)| r)
                .collect(),
        );
        let expected: Vec<RowId> = word_list
            .iter()
            .enumerate()
            .filter(|(_, w)| w.starts_with(&prefix))
            .map(|(i, _)| i as RowId)
            .collect();
        assert_eq!(got, expected, "case {case}: prefix {prefix:?}");

        // Regular expression built from the probe with a wildcard in the
        // middle.
        if probe.len() >= 2 {
            let mut pattern = probe.clone().into_bytes();
            pattern[probe.len() / 2] = b'?';
            let pattern = String::from_utf8(pattern).unwrap();
            let got = sorted(
                trie.regex(&pattern)
                    .unwrap()
                    .into_iter()
                    .map(|(_, r)| r)
                    .collect(),
            );
            let expected: Vec<RowId> = word_list
                .iter()
                .enumerate()
                .filter(|(_, w)| {
                    w.len() == pattern.len()
                        && pattern
                            .bytes()
                            .zip(w.bytes())
                            .all(|(p, c)| p == b'?' || p == c)
                })
                .map(|(i, _)| i as RowId)
                .collect();
            assert_eq!(got, expected, "case {case}: regex {pattern:?}");
        }
    }
}

#[test]
fn trie_deletion_removes_exactly_the_requested_rows() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(2000 + case);
        let word_list = random_words(&mut rng, 100);

        let trie = TrieIndex::create(BufferPool::in_memory()).unwrap();
        for (row, w) in word_list.iter().enumerate() {
            trie.insert(w.clone(), row as RowId).unwrap();
        }
        let mut kept: Vec<(usize, &String)> = Vec::new();
        for (row, w) in word_list.iter().enumerate() {
            if rng.gen_range(0..2u32) == 0 {
                assert!(
                    trie.delete(w, row as RowId).unwrap(),
                    "case {case}: delete {w:?}"
                );
            } else {
                kept.push((row, w));
            }
        }
        for (row, w) in kept {
            let hits = trie.equals(w).unwrap();
            assert!(
                hits.contains(&(row as RowId)),
                "case {case}: row {row} for {w:?} lost"
            );
        }
    }
}

#[test]
fn kdtree_and_quadtree_match_model_for_equality_and_range() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(3000 + case);
        let point_list = random_points(&mut rng, 200);

        let kd = KdTreeIndex::create(BufferPool::in_memory()).unwrap();
        let quad = PointQuadtreeIndex::create(BufferPool::in_memory()).unwrap();
        for (row, p) in point_list.iter().enumerate() {
            kd.insert(*p, row as RowId).unwrap();
            quad.insert(*p, row as RowId).unwrap();
        }

        // Equality on the first point (duplicates likely on the coarse grid).
        let probe = point_list[0];
        let expected: Vec<RowId> = point_list
            .iter()
            .enumerate()
            .filter(|(_, p)| **p == probe)
            .map(|(i, _)| i as RowId)
            .collect();
        assert_eq!(
            sorted(kd.equals(probe).unwrap()),
            expected,
            "case {case}: kd equality"
        );
        assert_eq!(
            sorted(quad.equals(probe).unwrap()),
            expected,
            "case {case}: quadtree equality"
        );

        // Range query.
        let (x, y) = (rng.gen_range(0..40u32), rng.gen_range(0..40u32));
        let (w, h) = (rng.gen_range(1..30u32), rng.gen_range(1..30u32));
        let rect = Rect::new(
            f64::from(x) * 2.0,
            f64::from(y) * 2.0,
            f64::from(x + w) * 2.0,
            f64::from(y + h) * 2.0,
        );
        let expected = point_list.iter().filter(|p| rect.contains_point(p)).count();
        assert_eq!(
            kd.range(rect).unwrap().len(),
            expected,
            "case {case}: kd range"
        );
        assert_eq!(
            quad.range(rect).unwrap().len(),
            expected,
            "case {case}: quad range"
        );
    }
}

#[test]
fn kdtree_nn_matches_brute_force() {
    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(4000 + case);
        let point_list = random_points(&mut rng, 150);
        let query = random_point(&mut rng);
        let k = rng.gen_range(1..10usize).min(point_list.len());

        let kd = KdTreeIndex::create(BufferPool::in_memory()).unwrap();
        for (row, p) in point_list.iter().enumerate() {
            kd.insert(*p, row as RowId).unwrap();
        }
        let nn = kd.nearest(query, k).unwrap();
        assert_eq!(nn.len(), k, "case {case}");
        let mut brute: Vec<f64> = point_list.iter().map(|p| p.distance(&query)).collect();
        brute.sort_by(f64::total_cmp);
        for (i, (_, _, d)) in nn.iter().enumerate() {
            assert!(
                (d - brute[i]).abs() < 1e-9,
                "case {case}: k={i}: {} vs {}",
                d,
                brute[i]
            );
        }
    }
}

/// The headline property of the streaming API: for every index kind and
/// randomized workloads, pulling results through [`SpIndex::cursor`] yields
/// exactly the items [`SpIndex::execute`] materializes, in the same order.
#[test]
fn cursor_results_equal_materialized_results_on_all_five_indexes() {
    fn assert_cursor_matches<I: SpIndex>(index: &I, query: I::Query, context: &str)
    where
        I::Key: PartialEq + std::fmt::Debug,
    {
        let eager = index.execute(&query).unwrap();
        let streamed: Vec<(I::Key, RowId)> = index
            .cursor(&query)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, eager, "{context}");
    }

    for case in 0..CASES {
        let mut rng = DetRng::seed_from_u64(5000 + case);

        // String indexes share the word list.
        let words = random_words(&mut rng, 150);
        let trie = TrieIndex::create(BufferPool::in_memory()).unwrap();
        let suffix = SuffixTreeIndex::create(BufferPool::in_memory()).unwrap();
        for (row, w) in words.iter().enumerate() {
            trie.insert(w.clone(), row as RowId).unwrap();
            suffix.insert(w.clone(), row as RowId).unwrap();
        }
        let probe = random_word(&mut rng);
        let prefix: String = probe.chars().take(2).collect();
        for query in [
            StringQuery::Equals(probe.clone()),
            StringQuery::Prefix(prefix.clone()),
            StringQuery::Regex(probe.clone()),
        ] {
            assert_cursor_matches(&trie, query, &format!("case {case}: trie"));
        }
        assert_cursor_matches(
            &suffix,
            StringQuery::Substring(prefix),
            &format!("case {case}: suffix tree"),
        );

        // Point indexes share the point list.
        let points = random_points(&mut rng, 150);
        let kd = KdTreeIndex::create(BufferPool::in_memory()).unwrap();
        let quad = PointQuadtreeIndex::create(BufferPool::in_memory()).unwrap();
        for (row, p) in points.iter().enumerate() {
            kd.insert(*p, row as RowId).unwrap();
            quad.insert(*p, row as RowId).unwrap();
        }
        let window = Rect::new(10.0, 10.0, 70.0, 70.0);
        for query in [PointQuery::Equals(points[0]), PointQuery::InRect(window)] {
            assert_cursor_matches(&kd, query.clone(), &format!("case {case}: kd-tree"));
            assert_cursor_matches(&quad, query, &format!("case {case}: point quadtree"));
        }

        // PMR quadtree over random segments.
        let world = Rect::new(0.0, 0.0, 100.0, 100.0);
        let pmr = PmrQuadtreeIndex::create(BufferPool::in_memory(), world).unwrap();
        let n_segments = rng.gen_range(1..=120usize);
        let segments: Vec<Segment> = (0..n_segments).map(|_| random_segment(&mut rng)).collect();
        for (row, s) in segments.iter().enumerate() {
            pmr.insert(*s, row as RowId).unwrap();
        }
        for query in [
            SegmentQuery::Equals(segments[0]),
            SegmentQuery::InRect(Rect::new(20.0, 20.0, 60.0, 60.0)),
        ] {
            assert_cursor_matches(&pmr, query, &format!("case {case}: PMR quadtree"));
        }
    }
}
