//! Selectivity and cost estimation (the `spgistcostestimate` analog of
//! paper Section 4.2).

/// Restriction-selectivity estimators associated with operators
/// (`restrict = eqsel | contsel | likesel` in the paper's Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selectivity {
    /// Equality operators: selectivity ≈ 1 / distinct values.
    EqSel,
    /// Containment (range) operators.
    ContSel,
    /// Similarity operators (prefix, LIKE, regular expression).
    LikeSel,
}

impl Selectivity {
    /// Estimated fraction of table rows an operator of this kind retrieves.
    /// The constants follow PostgreSQL's built-in defaults
    /// (`DEFAULT_EQ_SEL`, `DEFAULT_RANGE_INEQ_SEL`, `DEFAULT_MATCH_SEL`).
    pub fn estimate(&self, distinct_values: u64) -> f64 {
        match self {
            Selectivity::EqSel => {
                if distinct_values > 0 {
                    1.0 / distinct_values as f64
                } else {
                    0.005
                }
            }
            Selectivity::ContSel => 0.005,
            Selectivity::LikeSel => 0.01,
        }
    }
}

/// Statistics of the underlying table used by the cost model (the analog of
/// `pg_class.reltuples` / `relpages`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableStats {
    /// Number of rows in the table.
    pub rows: u64,
    /// Number of heap pages.
    pub heap_pages: u64,
    /// Number of distinct key values (for `eqsel`).
    pub distinct_values: u64,
}

/// The four quantities the paper's `spgistcostestimate` produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated fraction of table rows retrieved.
    pub selectivity: f64,
    /// Correlation between index order and table order; 0 for SP-GiST because
    /// its entries have no order.
    pub correlation: f64,
    /// CPU cost paid once before the scan starts.
    pub startup_cost: f64,
    /// Startup cost plus estimated page I/O cost.
    pub total_cost: f64,
}

/// Cost of reading one page sequentially (PostgreSQL `seq_page_cost`).
pub const SEQ_PAGE_COST: f64 = 1.0;
/// Cost of reading one page at random (PostgreSQL `random_page_cost`).
pub const RANDOM_PAGE_COST: f64 = 4.0;
/// CPU cost per tuple visited.
pub const CPU_TUPLE_COST: f64 = 0.01;
/// CPU cost per operator/predicate evaluation on a tuple
/// (PostgreSQL `cpu_operator_cost`).  Charged for index-tuple re-checks,
/// residual-filter evaluations and priority-queue work in ordered scans.
pub const CPU_OPERATOR_COST: f64 = 0.0025;
/// Cost of starting one parallel worker thread, in the same units as page
/// costs (the analog of PostgreSQL `parallel_setup_cost`, charged per
/// worker).  This is what keeps the parallel query driver from fanning out
/// over tables too small to amortize thread startup.
pub const PARALLEL_THREAD_STARTUP_COST: f64 = 100.0;

impl CostEstimate {
    /// Cost of a full sequential scan of the table.
    pub fn seq_scan(stats: &TableStats) -> CostEstimate {
        CostEstimate {
            selectivity: 1.0,
            correlation: 0.0,
            startup_cost: 0.0,
            total_cost: stats.heap_pages as f64 * SEQ_PAGE_COST
                + stats.rows as f64 * (CPU_TUPLE_COST + CPU_OPERATOR_COST),
        }
    }

    /// Cost of an index scan: descend `index_height` pages, then fetch the
    /// selected fraction of index pages at random — and of heap pages too,
    /// unless the index `returns_keys` (its leaves hold the indexed value,
    /// so the scan answers without the heap).  `index_pages` is the size of
    /// the index.  This mirrors the structure of the generic cost estimator
    /// the paper's `spgistcostestimate` delegates to.
    pub fn index_scan(
        stats: &TableStats,
        index_pages: u64,
        index_height: u32,
        selectivity: f64,
        returns_keys: bool,
    ) -> CostEstimate {
        let rows_fetched = stats.rows as f64 * selectivity;
        let index_leaf_pages = (index_pages as f64 * selectivity).ceil();
        let heap_pages_fetched = heap_pages_fetched(stats, selectivity, returns_keys);
        let startup_cost = f64::from(index_height) * RANDOM_PAGE_COST;
        CostEstimate {
            selectivity,
            correlation: 0.0,
            startup_cost,
            total_cost: startup_cost
                + (index_leaf_pages + heap_pages_fetched) * RANDOM_PAGE_COST
                + rows_fetched * (CPU_TUPLE_COST + CPU_OPERATOR_COST),
        }
    }

    /// Cost of an ordered (nearest-neighbour) index scan driven by the
    /// incremental best-first search: descend `index_height` pages to seed
    /// the priority queue, then fetch roughly the reported fraction of index
    /// pages at random (and of heap pages, unless the index `returns_keys`),
    /// paying queue maintenance per reported row.  `k` is the pushed-down
    /// `LIMIT`; without one the whole table is reported in distance order.
    pub fn ordered_scan(
        stats: &TableStats,
        index_pages: u64,
        index_height: u32,
        k: Option<u64>,
        returns_keys: bool,
    ) -> CostEstimate {
        let rows = stats.rows.max(1);
        let reported = k.map_or(rows, |k| k.min(rows).max(1));
        let fraction = reported as f64 / rows as f64;
        let startup_cost = f64::from(index_height) * RANDOM_PAGE_COST;
        let index_pages_fetched = (index_pages as f64 * fraction).ceil();
        let heap_pages_fetched = heap_pages_fetched(stats, fraction, returns_keys);
        // log₂-ish priority-queue factor per reported row.
        let queue_depth = (rows as f64).log2().max(1.0);
        CostEstimate {
            selectivity: fraction,
            correlation: 0.0,
            startup_cost,
            total_cost: startup_cost
                + (index_pages_fetched + heap_pages_fetched) * RANDOM_PAGE_COST
                + reported as f64 * (CPU_TUPLE_COST + queue_depth * CPU_OPERATOR_COST),
        }
    }

    /// Cost of a sequential scan partitioned across `workers` threads: each
    /// worker pays its startup, the page and tuple work divides across the
    /// team.  Derived from the same `TableStats` page counts the serial
    /// estimate uses (which in turn come from the measured tree/heap
    /// statistics), so the driver only parallelizes once the table is large
    /// enough that the divided scan beats the serial one despite the
    /// per-worker startup cost.
    pub fn parallel_seq_scan(stats: &TableStats, workers: usize) -> CostEstimate {
        let workers = workers.max(1);
        let serial = Self::seq_scan(stats);
        let startup = PARALLEL_THREAD_STARTUP_COST * workers as f64;
        CostEstimate {
            selectivity: 1.0,
            correlation: 0.0,
            startup_cost: startup,
            total_cost: startup + serial.total_cost / workers as f64,
        }
    }

    /// True when splitting work of serial cost `serial_total` across
    /// `workers` threads is expected to be faster than running it serially.
    pub fn parallel_pays(serial_total: f64, workers: usize) -> bool {
        let workers = workers.max(1) as f64;
        PARALLEL_THREAD_STARTUP_COST * workers + serial_total / workers < serial_total
    }

    /// Cost of answering an ordered query without an index: scan the whole
    /// heap, compute every distance, sort.  The full scan-and-sort happens
    /// before the first row comes out, so the startup cost is nearly the
    /// total — the planner's reason to prefer an incremental ordered scan
    /// whenever one exists.
    pub fn seq_scan_sorted(stats: &TableStats) -> CostEstimate {
        let seq = Self::seq_scan(stats);
        let rows = stats.rows.max(1) as f64;
        let sort_cost = rows * rows.log2().max(1.0) * CPU_OPERATOR_COST;
        CostEstimate {
            selectivity: 1.0,
            correlation: 0.0,
            startup_cost: seq.total_cost + sort_cost,
            total_cost: seq.total_cost + sort_cost + rows * CPU_TUPLE_COST,
        }
    }
}

/// Heap pages an index scan reporting `fraction` of the table reads: none
/// when the index returns the keys itself.
fn heap_pages_fetched(stats: &TableStats, fraction: f64, returns_keys: bool) -> f64 {
    if returns_keys {
        0.0
    } else {
        (stats.heap_pages as f64 * fraction).ceil()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATS: TableStats = TableStats {
        rows: 1_000_000,
        heap_pages: 10_000,
        distinct_values: 900_000,
    };

    #[test]
    fn selectivity_defaults() {
        assert!((Selectivity::EqSel.estimate(1000) - 0.001).abs() < 1e-12);
        assert_eq!(Selectivity::EqSel.estimate(0), 0.005);
        assert_eq!(Selectivity::ContSel.estimate(123), 0.005);
        assert_eq!(Selectivity::LikeSel.estimate(123), 0.01);
    }

    #[test]
    fn selective_index_scan_beats_seq_scan() {
        let seq = CostEstimate::seq_scan(&STATS);
        for returns_keys in [false, true] {
            let idx = CostEstimate::index_scan(&STATS, 5_000, 3, 1e-6, returns_keys);
            assert!(idx.total_cost < seq.total_cost);
            assert!(idx.startup_cost > 0.0);
            assert_eq!(idx.correlation, 0.0);
        }
    }

    #[test]
    fn only_a_scan_that_visits_the_heap_pays_for_heap_pages() {
        // Same index size, height and selectivity: a suffix-tree scan (its
        // leaves hold suffixes, the word is in the heap) pays one random
        // read per selected heap page on top of what a trie scan (its
        // leaves hold the word) costs — exactly that, nothing else.
        let suffix = CostEstimate::index_scan(&STATS, 5_000, 3, 0.001, false);
        let trie = CostEstimate::index_scan(&STATS, 5_000, 3, 0.001, true);
        let heap_term = (STATS.heap_pages as f64 * 0.001).ceil() * RANDOM_PAGE_COST;
        assert_eq!(heap_term, 40.0);
        assert_eq!(suffix.total_cost - trie.total_cost, heap_term);
        assert_eq!(suffix.startup_cost, trie.startup_cost);
        assert_eq!(suffix.selectivity, trie.selectivity);
        // The ordered scan drops the same term for its reported fraction.
        let visits = CostEstimate::ordered_scan(&STATS, 5_000, 3, Some(10), false);
        let skips = CostEstimate::ordered_scan(&STATS, 5_000, 3, Some(10), true);
        assert_eq!(visits.total_cost - skips.total_cost, RANDOM_PAGE_COST);
    }

    #[test]
    fn unselective_index_scan_loses_to_seq_scan() {
        let seq = CostEstimate::seq_scan(&STATS);
        for returns_keys in [false, true] {
            let idx = CostEstimate::index_scan(&STATS, 5_000, 3, 0.9, returns_keys);
            assert!(
                idx.total_cost > seq.total_cost,
                "random I/O makes a 90% scan slower"
            );
        }
    }

    #[test]
    fn ordered_scan_with_a_small_limit_is_cheap_and_incremental() {
        let idx = CostEstimate::ordered_scan(&STATS, 5_000, 3, Some(10), true);
        let sorted = CostEstimate::seq_scan_sorted(&STATS);
        assert!(idx.total_cost < sorted.total_cost / 100.0);
        assert!(
            idx.startup_cost < sorted.startup_cost,
            "best-first search reports its first row without a full sort"
        );
        // Without a limit the ordered scan reports everything; it still
        // avoids the sort but pays for the full fetch.
        let full = CostEstimate::ordered_scan(&STATS, 5_000, 3, None, true);
        assert!(full.total_cost > idx.total_cost);
        assert_eq!(full.selectivity, 1.0);
    }

    #[test]
    fn parallel_seq_scan_pays_only_on_large_tables() {
        // Big table: dividing the scan wins despite per-worker startup.
        let parallel = CostEstimate::parallel_seq_scan(&STATS, 4);
        let serial = CostEstimate::seq_scan(&STATS);
        assert!(parallel.total_cost < serial.total_cost);
        assert!(CostEstimate::parallel_pays(serial.total_cost, 4));

        // Small table: thread startup dominates; stay serial.
        let small = TableStats {
            rows: 500,
            heap_pages: 5,
            distinct_values: 500,
        };
        let small_serial = CostEstimate::seq_scan(&small);
        let small_parallel = CostEstimate::parallel_seq_scan(&small, 4);
        assert!(small_parallel.total_cost > small_serial.total_cost);
        assert!(!CostEstimate::parallel_pays(small_serial.total_cost, 4));

        // More workers always mean more startup cost to amortize.
        let two = CostEstimate::parallel_seq_scan(&STATS, 2);
        let eight = CostEstimate::parallel_seq_scan(&STATS, 8);
        assert!(eight.startup_cost > two.startup_cost);
    }

    #[test]
    fn index_scan_crossover_tracks_selectivity() {
        // The regression the planner relies on: as a predicate's estimated
        // selectivity degrades, the index scan must cross over and lose to
        // the sequential scan instead of being preferred unconditionally.
        let seq = CostEstimate::seq_scan(&STATS);
        let crossover = |returns_keys| {
            let cost = |s| CostEstimate::index_scan(&STATS, 5_000, 3, s, returns_keys).total_cost;
            assert!(cost(0.001) < seq.total_cost);
            assert!(cost(1.0) > seq.total_cost);
            (0..=100)
                .map(|i| i as f64 / 100.0)
                .find(|&s| cost(s) > seq.total_cost)
                .expect("a crossover point must exist")
        };
        let visits_heap = crossover(false);
        assert!(
            visits_heap > 0.0 && visits_heap < 0.5,
            "random-I/O penalty puts the crossover well below half the table, got {visits_heap}"
        );
        // Without the heap visits the index stays ahead for longer, but a
        // scan of most of the table still loses to reading it in order.
        let returns_keys = crossover(true);
        assert!(visits_heap < returns_keys && returns_keys < 1.0);
    }
}
