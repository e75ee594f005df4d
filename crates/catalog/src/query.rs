//! The logical query: boolean [`Predicate`] trees plus an optional `LIMIT`.
//!
//! Queries are `And`/`Or`/`Not` trees over the paper's operators (including
//! `@@` nearest-neighbour leaves) with an optional `LIMIT` ([`Query`]).  A
//! predicate knows how to re-check itself against a heap tuple, how far a
//! tuple is from a `@@` anchor, and how selective it expects to be — what
//! the physical layer needs to plan and execute it, but nothing about how.

use spgist_indexes::geom::{Point, Rect, Segment};
use spgist_indexes::query::{PointQuery, SegmentQuery, StringQuery};

use crate::cost::{Selectivity, TableStats};
use crate::planner::QueryPredicate;
use crate::value::{Datum, KeyType};

/// An executable query predicate: a boolean tree of `And`/`Or`/`Not` over
/// the paper's registered operators applied to typed arguments.
///
/// Unlike [`QueryPredicate`] (operator *name* + key type, all the planner
/// needs), a `Predicate` carries the actual arguments, so the executor can
/// both run its leaves through indexes and re-check the whole tree against
/// heap tuples.  Leaves are built with the constructors below and composed
/// with [`Predicate::and`] / [`Predicate::or`] / [`Predicate::negate`];
/// [`Predicate::limit`] turns the tree into a [`Query`] with `LIMIT`
/// pushdown.
///
/// ```
/// use spgist_catalog::Predicate;
///
/// let q = Predicate::str_prefix("sp")
///     .and(Predicate::str_regex("spa?e"))
///     .or(Predicate::str_equals("star"))
///     .limit(10);
/// # let _ = q;
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// A predicate over string keys.
    Str(StringQuery),
    /// A predicate over point keys.
    Point(PointQuery),
    /// A predicate over segment keys.
    Segment(SegmentQuery),
    /// Conjunction: every child predicate must hold (vacuously true when
    /// empty).
    And(Vec<Predicate>),
    /// Disjunction: at least one child predicate must hold (vacuously false
    /// when empty).
    Or(Vec<Predicate>),
    /// Negation of the inner predicate.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `=` over strings.
    pub fn str_equals(word: &str) -> Self {
        Predicate::Str(StringQuery::Equals(word.to_string()))
    }

    /// `#=` (prefix) over strings.
    pub fn str_prefix(prefix: &str) -> Self {
        Predicate::Str(StringQuery::Prefix(prefix.to_string()))
    }

    /// `?=` (single-character-wildcard regex) over strings.
    pub fn str_regex(pattern: &str) -> Self {
        Predicate::Str(StringQuery::Regex(pattern.to_string()))
    }

    /// `@=` (substring) over strings.
    pub fn str_substring(needle: &str) -> Self {
        Predicate::Str(StringQuery::Substring(needle.to_string()))
    }

    /// `@` (point equality).
    pub fn point_equals(point: Point) -> Self {
        Predicate::Point(PointQuery::Equals(point))
    }

    /// `^` (point inside box).
    pub fn point_in_rect(rect: Rect) -> Self {
        Predicate::Point(PointQuery::InRect(rect))
    }

    /// `=` over segments.
    pub fn segment_equals(segment: Segment) -> Self {
        Predicate::Segment(SegmentQuery::Equals(segment))
    }

    /// `&&` (segment intersects box — the PMR window query).
    pub fn segment_in_rect(rect: Rect) -> Self {
        Predicate::Segment(SegmentQuery::InRect(rect))
    }

    /// `@@` over strings: order results by Hamming-style distance to `word`.
    pub fn str_nearest(word: &str) -> Self {
        Predicate::Str(StringQuery::Nearest(word.to_string()))
    }

    /// `@@` over points: order results by Euclidean distance to `anchor`.
    pub fn point_nearest(anchor: Point) -> Self {
        Predicate::Point(PointQuery::Nearest(anchor))
    }

    /// `@@` over segments: order results by minimum Euclidean distance from
    /// `anchor` to the segment.
    pub fn segment_nearest(anchor: Point) -> Self {
        Predicate::Segment(SegmentQuery::Nearest(anchor))
    }

    /// Conjunction with `other`, flattening nested `And`s.
    pub fn and(self, other: Predicate) -> Predicate {
        match self {
            Predicate::And(mut children) => {
                children.push(other);
                Predicate::And(children)
            }
            leaf => Predicate::And(vec![leaf, other]),
        }
    }

    /// Disjunction with `other`, flattening nested `Or`s.
    pub fn or(self, other: Predicate) -> Predicate {
        match self {
            Predicate::Or(mut children) => {
                children.push(other);
                Predicate::Or(children)
            }
            leaf => Predicate::Or(vec![leaf, other]),
        }
    }

    /// Negation of this predicate.
    pub fn negate(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Turns the predicate into a [`Query`] reporting at most `k` rows,
    /// with the limit pushed into every scan operator.
    pub fn limit(self, k: usize) -> Query {
        Query::new(self).limit(k)
    }

    /// The catalog operator name a *leaf* predicate maps to (`"@@"` for
    /// nearest-neighbour anchors, which plan as ordered scans); `None` for
    /// the boolean composites, which have no single operator.
    pub fn operator(&self) -> Option<&'static str> {
        match self {
            Predicate::Str(StringQuery::Equals(_)) => Some("="),
            Predicate::Str(StringQuery::Prefix(_)) => Some("#="),
            Predicate::Str(StringQuery::Regex(_)) => Some("?="),
            Predicate::Str(StringQuery::Substring(_)) => Some("@="),
            Predicate::Str(StringQuery::Nearest(_))
            | Predicate::Point(PointQuery::Nearest(_))
            | Predicate::Segment(SegmentQuery::Nearest(_)) => Some("@@"),
            Predicate::Point(PointQuery::Equals(_)) => Some("@"),
            Predicate::Point(PointQuery::InRect(_)) => Some("^"),
            Predicate::Segment(SegmentQuery::Equals(_)) => Some("="),
            Predicate::Segment(SegmentQuery::InRect(_)) => Some("&&"),
            Predicate::And(_) | Predicate::Or(_) | Predicate::Not(_) => None,
        }
    }

    /// True for a `@@` (nearest-neighbour) leaf.
    pub fn is_ordered_leaf(&self) -> bool {
        matches!(
            self,
            Predicate::Str(StringQuery::Nearest(_))
                | Predicate::Point(PointQuery::Nearest(_))
                | Predicate::Segment(SegmentQuery::Nearest(_))
        )
    }

    /// The `@@` leaf that orders this predicate's output: the leaf itself,
    /// or the single ordered conjunct of a top-level `And` (the constrained
    /// k-NN shape).  `None` for unordered predicates.
    pub fn ordered_driver(&self) -> Option<&Predicate> {
        match self {
            Predicate::And(children) => children.iter().find(|c| c.is_ordered_leaf()),
            leaf if leaf.is_ordered_leaf() => Some(leaf),
            _ => None,
        }
    }

    /// True if this tree has any operator leaf at all (an empty `And`/`Or`
    /// has none and is type-agnostic).
    pub(crate) fn has_leaves(&self) -> bool {
        match self {
            Predicate::And(children) | Predicate::Or(children) => {
                children.iter().any(Predicate::has_leaves)
            }
            Predicate::Not(inner) => inner.has_leaves(),
            _ => true,
        }
    }

    /// True if this tree contains a `@@` leaf anywhere.
    pub fn contains_ordered(&self) -> bool {
        match self {
            Predicate::And(children) | Predicate::Or(children) => {
                children.iter().any(Predicate::contains_ordered)
            }
            Predicate::Not(inner) => inner.contains_ordered(),
            leaf => leaf.is_ordered_leaf(),
        }
    }

    /// The key type this predicate applies to: the type shared by all of its
    /// leaves, or `None` for a leafless tree (empty `And`/`Or`) — and for a
    /// mixed-type tree, which no single-column table can satisfy anyway and
    /// which [`Table::plan`](crate::Table::plan) rejects.
    pub fn key_type(&self) -> Option<KeyType> {
        match self {
            Predicate::Str(_) => Some(KeyType::Varchar),
            Predicate::Point(_) => Some(KeyType::Point),
            Predicate::Segment(_) => Some(KeyType::Segment),
            Predicate::And(children) | Predicate::Or(children) => {
                let mut found = None;
                for child in children {
                    match (found, child.key_type()) {
                        (_, None) => {}
                        (None, some) => found = some,
                        (Some(a), Some(b)) if a == b => {}
                        (Some(_), Some(_)) => return None,
                    }
                }
                found
            }
            Predicate::Not(inner) => inner.key_type(),
        }
    }

    /// Straight-line re-check against a heap tuple (the sequential-scan and
    /// residual filter).  Type-mismatched leaves never match; `@@` leaves
    /// match every tuple of their type (they order, they do not select).
    pub fn matches(&self, datum: &Datum) -> bool {
        match self {
            Predicate::Str(q) => matches!(datum, Datum::Text(s) if q.matches(s)),
            Predicate::Point(q) => matches!(datum, Datum::Point(p) if q.matches(p)),
            Predicate::Segment(q) => matches!(datum, Datum::Segment(s) if q.matches(s)),
            Predicate::And(children) => children.iter().all(|c| c.matches(datum)),
            Predicate::Or(children) => children.iter().any(|c| c.matches(datum)),
            Predicate::Not(inner) => !inner.matches(datum),
        }
    }

    /// Distance from a `@@` leaf's anchor to `datum` (the ordering key of
    /// the sorted sequential-scan fallback).  Infinite for type mismatches
    /// and for non-ordered predicates.
    pub fn distance(&self, datum: &Datum) -> f64 {
        match (self, datum) {
            (Predicate::Str(StringQuery::Nearest(q)), Datum::Text(s)) => {
                spgist_indexes::query::hamming_distance(s, q)
            }
            (Predicate::Point(PointQuery::Nearest(q)), Datum::Point(p)) => p.distance(q),
            (Predicate::Segment(SegmentQuery::Nearest(q)), Datum::Segment(s)) => {
                s.distance_to_point(q)
            }
            _ => f64::INFINITY,
        }
    }

    /// The planner-facing form of a leaf predicate, carrying an
    /// argument-aware selectivity estimate where the argument tells more
    /// than the operator's class-level default.
    pub fn to_query_predicate(&self) -> Option<QueryPredicate> {
        let op = self.operator()?;
        let key_type = self.key_type()?;
        let qp = QueryPredicate::new(op, key_type.name());
        Some(match self.selectivity_hint() {
            Some(s) => qp.with_selectivity(s),
            None => qp,
        })
    }

    /// Argument-aware selectivity for string-match leaves: an empty prefix,
    /// pattern or needle retrieves (nearly) the whole table, and every fixed
    /// character cuts the match fraction — the honesty the planner needs to
    /// route low-selectivity predicates to the heap.
    fn selectivity_hint(&self) -> Option<f64> {
        /// Fraction of rows matched per fixed character: one letter of the
        /// paper's 26-letter uniform word alphabet.
        const PER_CHAR_SEL: f64 = 1.0 / 26.0;
        /// A needle can match at any of roughly `avg word length` positions.
        const POSITIONS: f64 = 8.0;
        /// Rough chance that a random word has exactly the pattern's length
        /// (lengths are uniform over `[1, 15]`).
        const LENGTH_SEL: f64 = 1.0 / 15.0;
        let clamp = |s: f64| s.clamp(1e-9, 1.0);
        match self {
            Predicate::Str(StringQuery::Prefix(p)) => Some(if p.is_empty() {
                1.0
            } else {
                clamp(PER_CHAR_SEL.powi(p.len() as i32))
            }),
            Predicate::Str(StringQuery::Substring(n)) => Some(if n.is_empty() {
                1.0
            } else {
                clamp(POSITIONS * PER_CHAR_SEL.powi(n.len() as i32))
            }),
            Predicate::Str(StringQuery::Regex(r)) => {
                let fixed = r.bytes().filter(|b| *b != b'?').count();
                // The length must match exactly even with all wildcards.
                Some(clamp(LENGTH_SEL * PER_CHAR_SEL.powi(fixed as i32)))
            }
            Predicate::Point(PointQuery::InRect(r))
            | Predicate::Segment(SegmentQuery::InRect(r)) => {
                // Area fraction relative to the paper's [0, 100]² world —
                // far more honest than a flat contsel for window queries,
                // and what the constrained-k-NN costing needs to size the
                // ordered scan's effective limit.
                const WORLD_AREA: f64 = 100.0 * 100.0;
                Some((r.area() / WORLD_AREA).clamp(5e-4, 1.0))
            }
            _ => None,
        }
    }

    /// Estimated fraction of table rows this predicate tree retrieves, under
    /// the planner's independence assumption.
    pub(crate) fn estimate_selectivity(&self, stats: &TableStats) -> f64 {
        match self {
            Predicate::And(children) => children
                .iter()
                .map(|c| c.estimate_selectivity(stats))
                .product(),
            Predicate::Or(children) => children
                .iter()
                .map(|c| c.estimate_selectivity(stats))
                .sum::<f64>()
                .min(1.0),
            Predicate::Not(inner) => 1.0 - inner.estimate_selectivity(stats),
            leaf if leaf.is_ordered_leaf() => 1.0,
            leaf => leaf.selectivity_hint().unwrap_or_else(|| {
                match leaf.operator() {
                    // Equality: eqsel.
                    Some("=") | Some("@") => Selectivity::EqSel.estimate(stats.distinct_values),
                    // Containment / overlap: contsel.
                    Some("^") | Some("&&") => Selectivity::ContSel.estimate(stats.distinct_values),
                    _ => Selectivity::LikeSel.estimate(stats.distinct_values),
                }
            }),
        }
    }
}

/// A complete query: a [`Predicate`] tree plus an optional `LIMIT`.
///
/// Anything accepting `impl Into<Query>` (notably
/// [`Table::query`](crate::Table::query) and
/// [`Database::query`](crate::Database::query)) also takes a bare
/// [`Predicate`] or `&Predicate`, so the one-liner form keeps working:
///
/// ```
/// use spgist_catalog::{Predicate, Query};
///
/// let bare: Query = Predicate::str_prefix("sp").into();
/// assert_eq!(bare.limit, None);
/// let limited = Predicate::str_prefix("sp").limit(5);
/// assert_eq!(limited.limit, Some(5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The boolean predicate tree to evaluate.
    pub predicate: Predicate,
    /// Maximum number of rows to report; pushed into every scan operator so
    /// cursors stop early instead of materializing.
    pub limit: Option<usize>,
}

impl Query {
    /// A query over `predicate` with no limit.
    pub fn new(predicate: Predicate) -> Self {
        Query {
            predicate,
            limit: None,
        }
    }

    /// Caps the result at `k` rows (`LIMIT k`).
    pub fn limit(mut self, k: usize) -> Self {
        self.limit = Some(k);
        self
    }
}

impl From<Predicate> for Query {
    fn from(predicate: Predicate) -> Self {
        Query::new(predicate)
    }
}

impl From<&Predicate> for Query {
    fn from(predicate: &Predicate) -> Self {
        Query::new(predicate.clone())
    }
}

impl From<&Query> for Query {
    fn from(query: &Query) -> Self {
        query.clone()
    }
}
