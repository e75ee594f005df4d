//! The seeded op streams.  Round `k` of a workload draws its ops from
//! `DetRng(seed, workload, k)`; nothing about a stream depends on time or
//! on what the engine answers, so the same seed gives the same work.

use spgist_catalog::{Datum, Predicate, Query};
use spgist_datagen::rng::DetRng;
use spgist_indexes::{Point, Rect};

use crate::config::{Scale, Workload, HOT_KEY_STRIDE, HOT_OPS_SHARE, QUERY_LIMIT};
use crate::data::{self, Dataset, POINTS, SEGMENTS, WORDS};

/// The ten query kinds of the read mix.  The `kd_*` / `pquad_*` names say
/// which index class the kind is *meant* for; both point indexes sit on one
/// table and the planner routes by cost, so the traced run also records
/// which index actually served each kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// `=` on an existing word.
    TrieEq,
    /// `#=` on a 3- or 4-letter prefix of an existing word.
    TriePrefix,
    /// `?=` on an existing word with two letters wildcarded.
    TrieRegex,
    /// `@=` on a 4-letter slice of an existing word.
    SuffixSub,
    /// `@` on an existing point.
    KdEq,
    /// `^` with a 1×1 window around an existing point.
    KdWindow,
    /// `@@ … LIMIT 10` anchored near an existing point.
    KdKnn,
    /// `^` with a 3×3 window around an existing point.
    PquadWindow,
    /// `&&` with a 1×1 window around a segment end point.
    PmrWindow,
    /// `(#= AND @=) OR = … LIMIT 10` over words.
    Composite,
}

impl QueryKind {
    /// Every kind, in the order a round cycles through them.
    pub const ALL: [QueryKind; 10] = [
        QueryKind::TrieEq,
        QueryKind::TriePrefix,
        QueryKind::TrieRegex,
        QueryKind::SuffixSub,
        QueryKind::KdEq,
        QueryKind::KdWindow,
        QueryKind::KdKnn,
        QueryKind::PquadWindow,
        QueryKind::PmrWindow,
        QueryKind::Composite,
    ];

    /// Metric-name suffix (`exec.query_us.<name>`).
    pub fn name(self) -> &'static str {
        &self.span_name()["exec.query.".len()..]
    }

    /// Span name of one query of this kind.
    pub fn span_name(self) -> &'static str {
        match self {
            QueryKind::TrieEq => "exec.query.trie_eq",
            QueryKind::TriePrefix => "exec.query.trie_prefix",
            QueryKind::TrieRegex => "exec.query.trie_regex",
            QueryKind::SuffixSub => "exec.query.suffix_sub",
            QueryKind::KdEq => "exec.query.kd_eq",
            QueryKind::KdWindow => "exec.query.kd_window",
            QueryKind::KdKnn => "exec.query.kd_knn",
            QueryKind::PquadWindow => "exec.query.pquad_window",
            QueryKind::PmrWindow => "exec.query.pmr_window",
            QueryKind::Composite => "exec.query.composite",
        }
    }

    /// Table the kind queries.
    pub fn table(self) -> usize {
        match self {
            QueryKind::TrieEq
            | QueryKind::TriePrefix
            | QueryKind::TrieRegex
            | QueryKind::SuffixSub
            | QueryKind::Composite => WORDS,
            QueryKind::KdEq | QueryKind::KdWindow | QueryKind::KdKnn | QueryKind::PquadWindow => {
                POINTS
            }
            QueryKind::PmrWindow => SEGMENTS,
        }
    }
}

/// One step of a round.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// One query, drained to completion.
    Query {
        /// Kind, for per-kind accounting.
        kind: QueryKind,
        /// The query handed to `Database::query`.
        query: Query,
    },
    /// One auto-commit insert.
    Insert {
        /// Target table.
        table: usize,
        /// Value to insert.
        datum: Datum,
    },
    /// One auto-commit delete of the table's oldest live row.
    Delete {
        /// Target table.
        table: usize,
    },
    /// One transaction: inserts and deletes (oldest live rows) alternating,
    /// then a commit.
    Txn {
        /// Target table.
        table: usize,
        /// Values to insert; as many deletes are interleaved.
        inserts: Vec<Datum>,
    },
    /// A client-issued checkpoint (background work, not an op).
    Checkpoint,
}

impl Op {
    /// How many ops (queries or DML statements) this step counts for.
    pub fn op_count(&self) -> usize {
        match self {
            Op::Query { .. } | Op::Insert { .. } | Op::Delete { .. } => 1,
            Op::Txn { inserts, .. } => 2 * inserts.len(),
            Op::Checkpoint => 0,
        }
    }
}

/// Inserts (and deletes) per transaction: 8 statements.
pub const TXN_INSERTS: usize = 4;
/// Statements per ingest pattern block: 2 inserts, 2 deletes, one
/// transaction.
pub const INGEST_BLOCK: usize = 4 + 2 * TXN_INSERTS;
/// Ops per mixed-rw pattern group: 4 queries, 1 DML statement.
pub const MIXED_GROUP: usize = 5;

fn splitmix(x: u64) -> u64 {
    DetRng::seed_from_u64(x).next_u64()
}

/// The generator of round `round` of `workload` under `seed`.
pub fn round_rng(seed: u64, workload: Workload, round: u32) -> DetRng {
    let h = splitmix(seed ^ workload.stream_id().wrapping_mul(0xA24B_AED4_963E_E407));
    DetRng::seed_from_u64(splitmix(
        h ^ u64::from(round).wrapping_mul(0x9FB2_1C65_1E98_DF25),
    ))
}

/// An index into `n` keys, 80 % of the time from the hot fifth (every
/// [`HOT_KEY_STRIDE`]-th key).
pub fn skewed_index(rng: &mut DetRng, n: usize) -> usize {
    let hot = n.div_ceil(HOT_KEY_STRIDE);
    if n - hot == 0 || rng.next_f64() < HOT_OPS_SHARE {
        rng.gen_range(0..hot) * HOT_KEY_STRIDE
    } else {
        // The j-th key that is not a multiple of the stride.
        let j = rng.gen_range(0..n - hot);
        let per = HOT_KEY_STRIDE - 1;
        (j / per) * HOT_KEY_STRIDE + j % per + 1
    }
}

fn word<'d>(rng: &mut DetRng, dataset: &'d Dataset, min_len: usize) -> &'d str {
    let words = &dataset.rows[WORDS];
    loop {
        if let Datum::Text(w) = &words[skewed_index(rng, words.len())] {
            if w.len() >= min_len {
                return w;
            }
        }
    }
}

fn point(rng: &mut DetRng, dataset: &Dataset) -> Point {
    let points = &dataset.rows[POINTS];
    match &points[skewed_index(rng, points.len())] {
        Datum::Point(p) => *p,
        other => unreachable!("points table holds {other:?}"),
    }
}

/// A `side`×`side` window around `center`, shifted where needed to lie
/// inside the world: the data lives in `[0, 100]²`, and so do the queries.
pub fn window(center: Point, side: f64) -> Rect {
    let lo = |c: f64| (c - side / 2.0).clamp(0.0, spgist_datagen::WORLD_MAX - side);
    let (x, y) = (lo(center.x), lo(center.y));
    Rect::new(x, y, x + side, y + side)
}

/// One query of `kind` over keys of `dataset`.
pub fn gen_query(kind: QueryKind, rng: &mut DetRng, dataset: &Dataset) -> Query {
    match kind {
        QueryKind::TrieEq => Predicate::str_equals(word(rng, dataset, 1)).into(),
        QueryKind::TriePrefix => {
            let w = word(rng, dataset, 4);
            let len = rng.gen_range(3..=4usize);
            Predicate::str_prefix(&w[..len]).into()
        }
        QueryKind::TrieRegex => {
            let mut pattern = word(rng, dataset, 4).as_bytes().to_vec();
            for _ in 0..2 {
                let pos = rng.gen_range(0..pattern.len());
                pattern[pos] = b'?';
            }
            Predicate::str_regex(std::str::from_utf8(&pattern).expect("ascii words")).into()
        }
        QueryKind::SuffixSub => {
            let w = word(rng, dataset, 4);
            let start = rng.gen_range(0..=w.len() - 4);
            Predicate::str_substring(&w[start..start + 4]).into()
        }
        QueryKind::KdEq => Predicate::point_equals(point(rng, dataset)).into(),
        QueryKind::KdWindow => Predicate::point_in_rect(window(point(rng, dataset), 1.0)).into(),
        QueryKind::KdKnn => {
            let p = point(rng, dataset);
            let anchor = Point::new(
                p.x + rng.gen_range(-0.5..0.5),
                p.y + rng.gen_range(-0.5..0.5),
            );
            Predicate::point_nearest(anchor).limit(QUERY_LIMIT)
        }
        QueryKind::PquadWindow => Predicate::point_in_rect(window(point(rng, dataset), 3.0)).into(),
        QueryKind::PmrWindow => {
            let segments = &dataset.rows[SEGMENTS];
            let center = match &segments[skewed_index(rng, segments.len())] {
                Datum::Segment(s) => s.a,
                other => unreachable!("segments table holds {other:?}"),
            };
            Predicate::segment_in_rect(window(center, 1.0)).into()
        }
        QueryKind::Composite => {
            let w = word(rng, dataset, 5);
            let branch = Predicate::str_prefix(&w[..3]).and(Predicate::str_substring(&w[2..5]));
            branch
                .or(Predicate::str_equals(word(rng, dataset, 1)))
                .limit(QUERY_LIMIT)
        }
    }
}

fn fresh(rng: &mut DetRng, table: usize, n: usize) -> Vec<Datum> {
    data::generate(table, n, rng.next_u64())
}

/// The ops of round `round` of `workload`.
pub fn gen_round(
    workload: Workload,
    seed: u64,
    round: u32,
    scale: &Scale,
    dataset: &Dataset,
) -> Vec<Op> {
    let mut rng = round_rng(seed, workload, round);
    let n = scale.ops_per_round(workload);
    let checkpoints = scale.checkpoints_per_round(workload);
    // Checkpoints fall in the middle of their share of the round, so that
    // every round holds the same background work *and* the crash after the
    // last round finds half an interval of log to replay.
    let checkpoint_every = n.checked_div(checkpoints).unwrap_or(usize::MAX);
    let mut next_checkpoint = checkpoint_every / 2;
    let mut ops = Vec::with_capacity(n + checkpoints);
    let mut done = 0usize;
    let mut push = |ops: &mut Vec<Op>, op: Op| {
        done += op.op_count();
        ops.push(op);
        if done >= next_checkpoint {
            ops.push(Op::Checkpoint);
            next_checkpoint = next_checkpoint.saturating_add(checkpoint_every);
        }
    };
    match workload {
        Workload::QueryHot | Workload::QueryCold => {
            // Cold replays a prefix of the hot round: same generator, same
            // order, fewer ops.
            for i in 0..n {
                let kind = QueryKind::ALL[i % QueryKind::ALL.len()];
                let query = gen_query(kind, &mut rng, dataset);
                push(&mut ops, Op::Query { kind, query });
            }
        }
        Workload::Ingest => {
            for block in 0..n / INGEST_BLOCK {
                let table = block % 3;
                let mut values = fresh(&mut rng, table, 2 + TXN_INSERTS);
                let inserts = values.split_off(2);
                for datum in values {
                    push(&mut ops, Op::Insert { table, datum });
                }
                push(&mut ops, Op::Delete { table });
                push(&mut ops, Op::Delete { table });
                push(&mut ops, Op::Txn { table, inserts });
            }
        }
        Workload::MixedRw => {
            for group in 0..n / MIXED_GROUP {
                for q in 0..MIXED_GROUP - 1 {
                    let kind =
                        QueryKind::ALL[(group * (MIXED_GROUP - 1) + q) % QueryKind::ALL.len()];
                    let query = gen_query(kind, &mut rng, dataset);
                    push(&mut ops, Op::Query { kind, query });
                }
                let table = group % 3;
                if (group / 3) % 2 == 0 {
                    let datum = fresh(&mut rng, table, 1).pop().expect("one value");
                    push(&mut ops, Op::Insert { table, datum });
                } else {
                    push(&mut ops, Op::Delete { table });
                }
            }
        }
    }
    ops
}

/// FNV-1a over the `Debug` rendering of `ops`, folded into `hash`: the
/// op-stream fingerprint the determinism tests compare.
pub fn hash_ops(mut hash: u64, ops: &[Op]) -> u64 {
    for op in ops {
        for byte in format!("{op:?}").bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// Initial value for [`hash_ops`].
pub const HASH_SEED: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(workload: Workload, seed: u64) -> (Vec<Op>, u64) {
        let scale = Scale::QUICK;
        let dataset = Dataset::generate(seed, &scale);
        let ops = gen_round(workload, seed, 1, &scale, &dataset);
        let hash = hash_ops(HASH_SEED, &ops);
        (ops, hash)
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for workload in Workload::ALL {
            let (a, ha) = stream(workload, 1);
            let (b, hb) = stream(workload, 1);
            let (_, hc) = stream(workload, 2);
            assert_eq!(a, b);
            assert_eq!(ha, hb);
            assert_ne!(ha, hc, "{workload:?}");
        }
    }

    #[test]
    fn rounds_differ_and_cold_is_a_prefix_of_hot() {
        let scale = Scale::QUICK;
        let dataset = Dataset::generate(3, &scale);
        let r1 = gen_round(Workload::QueryHot, 3, 1, &scale, &dataset);
        let r2 = gen_round(Workload::QueryHot, 3, 2, &scale, &dataset);
        assert_ne!(r1, r2);
        let cold = gen_round(Workload::QueryCold, 3, 1, &scale, &dataset);
        assert_eq!(cold.len(), scale.query_cold_ops);
        assert_eq!(cold[..], r1[..cold.len()]);
    }

    #[test]
    fn every_round_holds_the_same_work() {
        let scale = Scale::QUICK;
        let dataset = Dataset::generate(5, &scale);
        for workload in Workload::ALL {
            for round in 0..3 {
                let ops = gen_round(workload, 5, round, &scale, &dataset);
                let counted: usize = ops.iter().map(Op::op_count).sum();
                assert_eq!(counted, scale.ops_per_round(workload), "{workload:?}");
                let checkpoints = ops.iter().filter(|op| **op == Op::Checkpoint).count();
                assert_eq!(
                    checkpoints,
                    scale.checkpoints_per_round(workload),
                    "{workload:?}"
                );
            }
        }
        // Ingest is 1:1 inserts and deletes, so the live size is constant.
        let ops = gen_round(Workload::Ingest, 5, 1, &scale, &dataset);
        let inserts: usize = ops
            .iter()
            .map(|op| match op {
                Op::Insert { .. } => 1,
                Op::Txn { inserts, .. } => inserts.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(inserts * 2, scale.ingest_ops);
    }

    #[test]
    fn skew_sends_four_fifths_of_the_ops_to_one_fifth_of_the_keys() {
        let mut rng = DetRng::seed_from_u64(9);
        let n = 1003;
        let draws = 50_000;
        let mut hot = 0;
        let mut seen = vec![false; n];
        for _ in 0..draws {
            let i = skewed_index(&mut rng, n);
            assert!(i < n);
            seen[i] = true;
            if i.is_multiple_of(HOT_KEY_STRIDE) {
                hot += 1;
            }
        }
        let share = f64::from(hot) / f64::from(draws);
        assert!((share - HOT_OPS_SHARE).abs() < 0.01, "hot share {share}");
        assert!(seen.iter().all(|s| *s), "every key is reachable");
    }
}
