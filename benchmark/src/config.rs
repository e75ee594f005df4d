//! Frozen sizes: every count a run depends on lives here, so that the work
//! of a run is fixed by `(workload, seed, --seconds)` alone.
//!
//! The full-scale numbers were calibrated once, at the commit that added
//! the benchmark, on the 2-core runner: one set-up build ≈ 1.5 s and one
//! round ≈ 1 s.  They are deliberately *not* recalibrated when the engine
//! gets faster or slower — a fixed amount of work is what makes two commits
//! comparable.

/// The four workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only query mix, pool larger than the file.
    QueryHot,
    /// The same query stream, pool = a twentieth of the file.
    QueryCold,
    /// DML only: auto-commit statements and 8-statement transactions.
    Ingest,
    /// One client interleaving 4 queries : 1 auto-commit DML statement.
    MixedRw,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::QueryHot,
        Workload::QueryCold,
        Workload::Ingest,
        Workload::MixedRw,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryHot => "query-hot",
            Workload::QueryCold => "query-cold",
            Workload::Ingest => "ingest",
            Workload::MixedRw => "mixed-rw",
        }
    }

    /// Parses a `--workload` argument.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Identifier mixed into the op-stream seed.  `query-hot` and
    /// `query-cold` share one: the cold workload replays a prefix of the
    /// hot workload's rounds, so the only difference between them is the
    /// pool size.
    pub fn stream_id(self) -> u64 {
        match self {
            Workload::QueryHot | Workload::QueryCold => 1,
            Workload::Ingest => 2,
            Workload::MixedRw => 3,
        }
    }

    /// True for the workloads that modify the database.
    pub fn writes(self) -> bool {
        matches!(self, Workload::Ingest | Workload::MixedRw)
    }
}

/// Every frozen size of one scale (`full` or `--quick`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Scale name, printed in the report header.
    pub name: &'static str,
    /// Rows of table `words` (Varchar; trie + suffix tree).
    pub words: usize,
    /// Rows of table `points` (Point; kd-tree + point quadtree).
    pub points: usize,
    /// Rows of table `segments` (Segment; PMR quadtree).
    pub segments: usize,
    /// Queries per `query-hot` round.
    pub query_hot_ops: usize,
    /// Queries per `query-cold` round (a prefix of the hot round).
    pub query_cold_ops: usize,
    /// DML statements per `ingest` round (a multiple of 36: three tables ×
    /// the 12-statement pattern).
    pub ingest_ops: usize,
    /// Client-issued checkpoints per `ingest` round.
    pub ingest_checkpoints: usize,
    /// Ops per `mixed-rw` round (a multiple of 30: the 5-op pattern × three
    /// tables × insert/delete alternation).
    pub mixed_ops: usize,
    /// Client-issued checkpoints per `mixed-rw` round.
    pub mixed_checkpoints: usize,
    /// Hot pool capacity as a multiple of the file's pages.
    pub hot_pool_factor: f64,
    /// Cold pool capacity as a fraction of the file's pages.
    pub cold_pool_fraction: f64,
    /// Untraced reference rounds a traced run appends to measure its own
    /// overhead.
    pub reference_rounds: usize,
    /// Items per unit-cost probe (traced runs).
    pub probe_ops: usize,
    /// Rows the paper-baseline comparison (B⁺-tree, R-tree, seq scan) is
    /// built over (`query-hot` traced runs).
    pub baseline_rows: usize,
}

impl Scale {
    /// The scale `BENCHMARK.json` runs.
    pub const FULL: Scale = Scale {
        name: "full",
        words: 80_000,
        points: 80_000,
        segments: 40_000,
        query_hot_ops: 40_000,
        query_cold_ops: 20_000,
        ingest_ops: 1_800,
        ingest_checkpoints: 2,
        mixed_ops: 120,
        mixed_checkpoints: 1,
        hot_pool_factor: 1.25,
        cold_pool_fraction: 0.05,
        reference_rounds: 4,
        probe_ops: 2_000,
        baseline_rows: 10_000,
    };

    /// `--quick`: small dataset, short rounds, for smoke tests and the
    /// determinism tests.
    pub const QUICK: Scale = Scale {
        name: "quick",
        words: 4_000,
        points: 4_000,
        segments: 2_000,
        query_hot_ops: 2_000,
        query_cold_ops: 1_000,
        ingest_ops: 72,
        ingest_checkpoints: 2,
        mixed_ops: 300,
        mixed_checkpoints: 1,
        hot_pool_factor: 1.25,
        cold_pool_fraction: 0.05,
        reference_rounds: 2,
        probe_ops: 200,
        baseline_rows: 2_000,
    };

    /// Ops in one round of `workload`.
    pub fn ops_per_round(&self, workload: Workload) -> usize {
        match workload {
            Workload::QueryHot => self.query_hot_ops,
            Workload::QueryCold => self.query_cold_ops,
            Workload::Ingest => self.ingest_ops,
            Workload::MixedRw => self.mixed_ops,
        }
    }

    /// Client-issued checkpoints in one round of `workload`.
    pub fn checkpoints_per_round(&self, workload: Workload) -> usize {
        match workload {
            Workload::QueryHot | Workload::QueryCold => 0,
            Workload::Ingest => self.ingest_checkpoints,
            Workload::MixedRw => self.mixed_checkpoints,
        }
    }
}

/// Nominal wall time of one full-scale round, seconds: `--seconds N` runs
/// `N / ROUND_NOMINAL_S` measured rounds.
pub const ROUND_NOMINAL_S: f64 = 1.0;
/// Measured rounds of a `--quick` run.
pub const QUICK_ROUNDS: usize = 4;
/// Fewest measured rounds a full-scale run accepts: the fast quartile needs
/// samples on both sides of it.
pub const MIN_ROUNDS: usize = 4;
/// Set-ups per untraced run; `setup_s` is the fastest.
pub const SETUPS_PER_RUN: usize = 3;
/// Every `ORACLE_STRIDE`-th op of a round is checked against the oracle
/// (prime, so it cannot alias with the cyclic kind pattern).
pub const ORACLE_STRIDE: usize = 101;
/// `LIMIT` of the `kd_knn` and `composite` query kinds.
pub const QUERY_LIMIT: usize = 10;
/// Share of ops that address the hot fifth of the keys.
pub const HOT_OPS_SHARE: f64 = 0.8;
/// One key in `HOT_KEY_STRIDE` is hot (the 20 % of "80/20").
pub const HOT_KEY_STRIDE: usize = 5;

/// Measured rounds of a run.
pub fn rounds_for(seconds: u64, quick: bool) -> usize {
    if quick {
        QUICK_ROUNDS
    } else {
        ((seconds as f64 / ROUND_NOMINAL_S).round() as usize).clamp(MIN_ROUNDS, 60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_sizes_divide_into_their_patterns_and_checkpoint_intervals() {
        for scale in [Scale::FULL, Scale::QUICK] {
            assert_eq!(scale.ingest_ops % 36, 0);
            assert_eq!(scale.mixed_ops % 30, 0);
            assert_eq!(scale.ingest_ops % scale.ingest_checkpoints, 0);
            assert_eq!(scale.mixed_ops % scale.mixed_checkpoints, 0);
            assert!(scale.query_cold_ops <= scale.query_hot_ops);
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
