//! Query predicates of the operators the paper registers for its indexes
//! (Tables 3 and 4).

use crate::geom::{Point, Rect, Segment};

/// Query predicates over string keys (trie and suffix-tree operator classes).
#[derive(Debug, Clone, PartialEq)]
pub enum StringQuery {
    /// `=` — exact match.
    Equals(String),
    /// `#=` — the key starts with the given prefix.
    Prefix(String),
    /// `?=` — regular-expression match with the single-character wildcard
    /// `?` (the only wildcard the paper supports).
    Regex(String),
    /// `@=` — the key contains the given substring (suffix-tree operator).
    Substring(String),
    /// `@@` — nearest-neighbour anchor; used only to order results by the
    /// Hamming-style distance to this string.
    Nearest(String),
}

impl StringQuery {
    /// Does `key` satisfy this predicate?  This is the straight-line
    /// re-check used on leaf items and by the sequential-scan baseline.
    pub fn matches(&self, key: &str) -> bool {
        self.matches_rest(key, 0)
    }

    /// Does a key satisfy this predicate, given only `rest` — its bytes past
    /// the first `spelled`, which a descent has already checked against the
    /// predicate?  `=`, `#=` and `?=` compare `rest` with their string past
    /// `spelled` (clamped to its length: a key that ended on the path has an
    /// empty rest); `@@` matches everything.  `@=` checks nothing on the way
    /// down, so only a whole key (`spelled` 0) can answer it.
    pub fn matches_rest(&self, rest: &str, spelled: usize) -> bool {
        fn past(s: &str, spelled: usize) -> &[u8] {
            s.as_bytes().get(spelled..).unwrap_or_default()
        }
        match self {
            StringQuery::Equals(s) => rest.as_bytes() == past(s, spelled),
            StringQuery::Prefix(p) => rest.as_bytes().starts_with(past(p, spelled)),
            StringQuery::Regex(pattern) => {
                wildcard_matches(past(pattern, spelled), rest.as_bytes())
            }
            StringQuery::Substring(s) => spelled == 0 && rest.contains(s.as_str()),
            StringQuery::Nearest(_) => true,
        }
    }
}

/// Matches `key` against a pattern whose only metacharacter is `?`
/// (exactly one arbitrary character), as in the paper's Section 4.2.
pub fn regex_matches(pattern: &str, key: &str) -> bool {
    wildcard_matches(pattern.as_bytes(), key.as_bytes())
}

fn wildcard_matches(p: &[u8], k: &[u8]) -> bool {
    p.len() == k.len() && p.iter().zip(k).all(|(pc, kc)| *pc == b'?' || pc == kc)
}

/// Hamming-style edit distance used by the trie's NN operator: positionwise
/// mismatches plus the length difference.
pub fn hamming_distance(a: &str, b: &str) -> f64 {
    let ab = a.as_bytes();
    let bb = b.as_bytes();
    let common = ab.len().min(bb.len());
    let mismatches = ab[..common]
        .iter()
        .zip(&bb[..common])
        .filter(|(x, y)| x != y)
        .count();
    (mismatches + (ab.len().max(bb.len()) - common)) as f64
}

/// Query predicates over point keys (kd-tree and point-quadtree operator
/// classes).
#[derive(Debug, Clone, PartialEq)]
pub enum PointQuery {
    /// `@` — exact point match.
    Equals(Point),
    /// `^` — the point lies inside the given box (range query).
    InRect(Rect),
    /// `@@` — nearest-neighbour anchor (Euclidean distance).
    Nearest(Point),
}

impl PointQuery {
    /// Does `point` satisfy this predicate?
    pub fn matches(&self, point: &Point) -> bool {
        match self {
            PointQuery::Equals(p) => point == p,
            PointQuery::InRect(r) => r.contains_point(point),
            PointQuery::Nearest(_) => true,
        }
    }
}

/// Query predicates over line-segment keys (PMR-quadtree operator class).
#[derive(Debug, Clone, PartialEq)]
pub enum SegmentQuery {
    /// Exact segment match.
    Equals(Segment),
    /// Window query: the segment intersects the given rectangle.
    InRect(Rect),
    /// `@@` — nearest-neighbour anchor: order segments by their minimum
    /// Euclidean distance to this point.
    Nearest(Point),
}

impl SegmentQuery {
    /// Does `segment` satisfy this predicate?
    pub fn matches(&self, segment: &Segment) -> bool {
        match self {
            SegmentQuery::Equals(s) => segment == s,
            SegmentQuery::InRect(r) => segment.intersects_rect(r),
            SegmentQuery::Nearest(_) => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_query_matches() {
        assert!(StringQuery::Equals("spade".into()).matches("spade"));
        assert!(!StringQuery::Equals("spade".into()).matches("spades"));
        assert!(StringQuery::Prefix("spa".into()).matches("spade"));
        assert!(!StringQuery::Prefix("spz".into()).matches("spade"));
        assert!(StringQuery::Substring("pad".into()).matches("spade"));
        assert!(!StringQuery::Substring("dap".into()).matches("spade"));
        assert!(StringQuery::Nearest("x".into()).matches("anything"));
    }

    #[test]
    fn rest_matches_the_query_past_the_spelled_bytes() {
        // "spade" stored at depth 2 keeps "ade".
        assert!(StringQuery::Equals("spade".into()).matches_rest("ade", 2));
        assert!(!StringQuery::Equals("spades".into()).matches_rest("ade", 2));
        assert!(StringQuery::Prefix("spa".into()).matches_rest("ade", 2));
        assert!(StringQuery::Prefix("sp".into()).matches_rest("ade", 2));
        assert!(StringQuery::Prefix("s".into()).matches_rest("ade", 2));
        assert!(!StringQuery::Prefix("spo".into()).matches_rest("ade", 2));
        assert!(StringQuery::Regex("s?a?e".into()).matches_rest("ade", 2));
        assert!(!StringQuery::Regex("s?a?".into()).matches_rest("ade", 2));
        assert!(StringQuery::Nearest("x".into()).matches_rest("ade", 2));
        // A key that ended on the path ("sp" under its terminator, depth 3)
        // keeps nothing, and matches a query of exactly its length.
        assert!(StringQuery::Equals("sp".into()).matches_rest("", 3));
        assert!(StringQuery::Prefix("sp".into()).matches_rest("", 3));
        assert!(StringQuery::Regex("s?".into()).matches_rest("", 3));
        // A rest cannot answer `@=`: the descent checked none of it.
        assert!(!StringQuery::Substring("d".into()).matches_rest("ade", 2));
    }

    #[test]
    fn regex_wildcard_semantics() {
        assert!(regex_matches("?at?r", "water"));
        assert!(regex_matches("?????", "water"));
        assert!(!regex_matches("?at?r", "wader"));
        assert!(
            !regex_matches("?at?r", "waters"),
            "length must match exactly"
        );
        assert!(regex_matches("", ""));
        assert!(!regex_matches("?", ""));
    }

    #[test]
    fn hamming_distance_counts_mismatches_and_length() {
        assert_eq!(hamming_distance("abc", "abc"), 0.0);
        assert_eq!(hamming_distance("abc", "abd"), 1.0);
        assert_eq!(hamming_distance("abc", "abcd"), 1.0);
        assert_eq!(hamming_distance("", "xyz"), 3.0);
        assert_eq!(hamming_distance("kitten", "sitten"), 1.0);
    }

    #[test]
    fn point_query_matches() {
        let p = Point::new(1.0, 2.0);
        assert!(PointQuery::Equals(p).matches(&p));
        assert!(!PointQuery::Equals(p).matches(&Point::new(1.0, 2.1)));
        assert!(PointQuery::InRect(Rect::new(0.0, 0.0, 5.0, 5.0)).matches(&p));
        assert!(!PointQuery::InRect(Rect::new(2.0, 2.0, 5.0, 5.0)).matches(&p));
    }

    #[test]
    fn segment_query_matches() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        assert!(SegmentQuery::Equals(s).matches(&s));
        assert!(SegmentQuery::InRect(Rect::new(1.0, 1.0, 3.0, 3.0)).matches(&s));
        assert!(!SegmentQuery::InRect(Rect::new(5.0, 5.0, 6.0, 6.0)).matches(&s));
        assert!(SegmentQuery::Nearest(Point::new(9.0, 9.0)).matches(&s));
    }
}
