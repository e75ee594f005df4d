//! The planner: one query in, one executable plan tree out.
//!
//! PostgreSQL decides between a sequential scan and the available index
//! scans by comparing estimated costs (paper Section 4, `spgistcostestimate`
//! behind operator classes); this module reproduces that decision for the
//! operators of the paper and composes it over boolean predicate trees.
//!
//! [`Planner::plan`] decomposes a [`Query`] into an [`AccessPath`]: index
//! scans for indexable leaves — chosen from the leaf's operator, key type
//! and argument-aware selectivity — residual [`AccessPath::Filter`]s for
//! the rest, row-id stream [`AccessPath::Intersect`]/[`AccessPath::Union`],
//! [`AccessPath::OrderedScan`]s that run `@@` through the incremental NN
//! search costed like any other path, and [`AccessPath::Limit`] pushdown.
//! The sequential scan competes against every strategy on honest cost, and
//! is the fallback when no operator class helps (e.g. a substring query
//! against a plain trie).
//!
//! The tree is the plan the executor runs: every scan node carries the
//! predicate it evaluates, so `EXPLAIN` ([`Table::plan`](crate::Table::plan))
//! and the cursor's [`ExecCursor::path`](crate::ExecCursor::path) show the
//! same tree.

use std::collections::HashSet;

use spgist_storage::{StorageError, StorageResult};

use crate::am::Catalog;
use crate::cost::{CostEstimate, TableStats, CPU_OPERATOR_COST};
use crate::operator::Operator;
use crate::query::{Predicate, Query};

/// A physical index available to the planner: its operator class, its
/// measured size/height, and whether a scan of it needs the heap.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailableIndex {
    /// Name of the index (for plan output).
    pub name: String,
    /// Operator class the index was created with.
    pub operator_class: String,
    /// Number of pages in the index.
    pub pages: u64,
    /// Height of the index in pages.
    pub page_height: u32,
    /// Whether a scan returns each row's key along with its id, so the heap
    /// is not visited (false for the suffix tree, whose leaves hold suffixes
    /// of the indexed word).
    pub returns_keys: bool,
}

/// A plan: the operator tree the planner selects for a (possibly
/// compositional) predicate, and the tree the executor runs.
///
/// Single predicates plan to the classic leaves (`SeqScan` / `IndexScan` /
/// `OrderedScan`); boolean predicate trees compose them with residual
/// filters, row-id stream intersection/union, and `LIMIT` pushdown.  Every
/// scan node carries the predicate it evaluates.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Full sequential scan of the heap; for ordered queries the fallback
    /// also sorts.
    SeqScan {
        /// Predicate re-checked on every heap tuple.
        filter: Predicate,
        /// For ordered queries without an NN-capable index: the `@@` leaf
        /// whose anchor distance sorts the output.
        order: Option<Predicate>,
        /// Estimated cost.
        cost: CostEstimate,
    },
    /// Index scan through the named index.
    IndexScan {
        /// Index chosen.
        index: String,
        /// Operator class providing the operator.
        operator_class: String,
        /// The leaf predicate the index answers.
        leaf: Predicate,
        /// Estimated cost.
        cost: CostEstimate,
    },
    /// Ordered (nearest-neighbour) scan through the named index: rows stream
    /// in non-decreasing distance from the query anchor, driven by the
    /// incremental best-first search.
    OrderedScan {
        /// Index chosen.
        index: String,
        /// Operator class providing the `@@` operator.
        operator_class: String,
        /// The `@@` leaf whose anchor orders the rows.
        leaf: Predicate,
        /// Estimated cost.
        cost: CostEstimate,
    },
    /// Residual filter: re-check the predicates the input scan does not
    /// cover against each tuple it produces.
    Filter {
        /// The driving scan.
        input: Box<AccessPath>,
        /// The predicates re-checked against every tuple.
        residual: Vec<Predicate>,
        /// Estimated cost including the re-checks.
        cost: CostEstimate,
    },
    /// Intersection of several row-id streams (`AND` of index scans),
    /// deduplicated by row id.
    Intersect {
        /// The participating scans.
        inputs: Vec<AccessPath>,
        /// Estimated cost.
        cost: CostEstimate,
    },
    /// Union of several row-id streams (`OR` of index scans), deduplicated
    /// by row id.
    Union {
        /// The participating scans.
        inputs: Vec<AccessPath>,
        /// Estimated cost.
        cost: CostEstimate,
    },
    /// `LIMIT k` pushed down over the input: the cursor stops pulling after
    /// `k` rows instead of materializing the full result.
    Limit {
        /// The limited plan.
        input: Box<AccessPath>,
        /// Maximum number of rows to report.
        k: usize,
    },
}

impl AccessPath {
    /// The estimated cost of this path (a `Limit` reports its input's).
    pub fn cost(&self) -> CostEstimate {
        match self {
            AccessPath::SeqScan { cost, .. }
            | AccessPath::IndexScan { cost, .. }
            | AccessPath::OrderedScan { cost, .. }
            | AccessPath::Filter { cost, .. }
            | AccessPath::Intersect { cost, .. }
            | AccessPath::Union { cost, .. } => *cost,
            AccessPath::Limit { input, .. } => input.cost(),
        }
    }

    /// The total estimated cost of this path.
    pub fn total_cost(&self) -> f64 {
        self.cost().total_cost
    }

    /// True if any node of this plan is an index or ordered scan (i.e. the
    /// plan touches a physical index at all).
    pub fn uses_index(&self) -> bool {
        match self {
            AccessPath::SeqScan { .. } => false,
            AccessPath::IndexScan { .. } | AccessPath::OrderedScan { .. } => true,
            AccessPath::Filter { input, .. } | AccessPath::Limit { input, .. } => {
                input.uses_index()
            }
            AccessPath::Intersect { inputs, .. } | AccessPath::Union { inputs, .. } => {
                inputs.iter().any(AccessPath::uses_index)
            }
        }
    }
}

/// Cost of re-checking `residual_count` predicates against the input's
/// output rows.
fn filter_cost(
    input: &CostEstimate,
    stats: &TableStats,
    residual_count: usize,
    output_selectivity: f64,
) -> CostEstimate {
    let input_rows = stats.rows as f64 * input.selectivity;
    CostEstimate {
        selectivity: output_selectivity.min(input.selectivity),
        correlation: 0.0,
        startup_cost: input.startup_cost,
        total_cost: input.total_cost
            + input_rows * CPU_OPERATOR_COST * residual_count.max(1) as f64,
    }
}

/// Cost of intersecting several row-id streams: every non-driving input is
/// drained into a hash set before the driver streams through the membership
/// test, so their full costs land in the startup.
fn intersect_cost(inputs: &[AccessPath], stats: &TableStats) -> CostEstimate {
    let costs: Vec<CostEstimate> = inputs.iter().map(AccessPath::cost).collect();
    let selectivity = costs.iter().map(|c| c.selectivity).product();
    let hash_rows: f64 = costs
        .iter()
        .map(|c| stats.rows as f64 * c.selectivity)
        .sum();
    let total: f64 =
        costs.iter().map(|c| c.total_cost).sum::<f64>() + hash_rows * CPU_OPERATOR_COST;
    let driver_startup = costs.first().map_or(0.0, |c| c.startup_cost);
    let side_total: f64 = costs.iter().skip(1).map(|c| c.total_cost).sum();
    CostEstimate {
        selectivity,
        correlation: 0.0,
        startup_cost: driver_startup + side_total,
        total_cost: total,
    }
}

/// Cost of a deduplicated union of several row-id streams.
fn union_cost(inputs: &[AccessPath], stats: &TableStats) -> CostEstimate {
    let costs: Vec<CostEstimate> = inputs.iter().map(AccessPath::cost).collect();
    let selectivity = costs.iter().map(|c| c.selectivity).sum::<f64>().min(1.0);
    let dedup_rows: f64 = costs
        .iter()
        .map(|c| stats.rows as f64 * c.selectivity)
        .sum();
    CostEstimate {
        selectivity,
        correlation: 0.0,
        startup_cost: costs.first().map_or(0.0, |c| c.startup_cost),
        total_cost: costs.iter().map(|c| c.total_cost).sum::<f64>()
            + dedup_rows * CPU_OPERATOR_COST,
    }
}

/// Rejects predicate trees whose `@@` leaves the executor cannot give a
/// meaning to: an ordered leaf must be the whole query or a top-level
/// conjunct (the *constrained k-NN* shape); under `Or`/`Not` there is no
/// coherent output order.
fn validate_ordered(predicate: &Predicate) -> StorageResult<()> {
    let ok = match predicate {
        leaf if leaf.is_ordered_leaf() => true,
        Predicate::And(children) => {
            children
                .iter()
                .filter(|c| c.contains_ordered())
                .all(Predicate::is_ordered_leaf)
                && children.iter().filter(|c| c.is_ordered_leaf()).count() <= 1
        }
        other => !other.contains_ordered(),
    };
    if ok {
        Ok(())
    } else {
        Err(StorageError::Unsupported(
            "`@@` (nearest) must be the whole predicate or a single top-level conjunct; \
             it cannot appear under Or/Not or more than once"
                .into(),
        ))
    }
}

/// The conjuncts of `children` whose position `keep` accepts.
fn conjuncts(children: &[Predicate], keep: impl Fn(usize) -> bool) -> Vec<Predicate> {
    children
        .iter()
        .enumerate()
        .filter(|(i, _)| keep(*i))
        .map(|(_, c)| c.clone())
        .collect()
}

/// Plans queries over one table: the catalog, the heap's statistics and the
/// planner's view of each physical index.
pub struct Planner<'a> {
    catalog: &'a Catalog,
    stats: TableStats,
    available: Vec<AvailableIndex>,
}

impl<'a> Planner<'a> {
    /// A planner over a table with `stats`, given the physically
    /// `available` indexes and the `catalog` that names their classes.
    pub fn new(catalog: &'a Catalog, stats: TableStats, available: Vec<AvailableIndex>) -> Self {
        Planner {
            catalog,
            stats,
            available,
        }
    }

    /// Plans `query` into the tree the executor runs.  The comparison
    /// against the sequential scan is honest: a predicate whose
    /// (argument-aware) selectivity is poor loses to the heap scan even
    /// when an index supports its operator.  Fails only for a `@@` leaf in
    /// a place that has no coherent output order.
    pub fn plan(&self, query: &Query) -> StorageResult<AccessPath> {
        validate_ordered(&query.predicate)?;
        let path = self.plan_node(&query.predicate, query.limit);
        Ok(match query.limit {
            Some(k) => AccessPath::Limit {
                input: Box::new(path),
                k,
            },
            None => path,
        })
    }

    /// Recursively plans one predicate subtree.  `limit` is the pushed-down
    /// `LIMIT` when this subtree's output is the query's output (it caps
    /// ordered-scan cost estimates; execution is lazy regardless).
    fn plan_node(&self, predicate: &Predicate, limit: Option<usize>) -> AccessPath {
        match predicate {
            Predicate::And(children) => self.plan_and(predicate, children, limit),
            Predicate::Or(children) => self.plan_or(predicate, children),
            // Negation cannot enumerate its complement from an index.
            Predicate::Not(_) => self.seq_scan(predicate),
            leaf => self.plan_leaf(leaf, limit),
        }
    }

    /// Plans a leaf: the cheapest scan through an index whose class
    /// supports the leaf's operator — an ordered scan for a `@@` leaf, whose
    /// cost `limit` caps — or the heap scan when none is cheaper.
    fn plan_leaf(&self, leaf: &Predicate, limit: Option<usize>) -> AccessPath {
        let ordered = leaf.is_ordered_leaf();
        let stats = &self.stats;
        let mut best = self.seq_scan(leaf);
        for index in &self.available {
            let Some(operator) = self.supported_operator(index, leaf) else {
                continue;
            };
            let (pages, height, keys) = (index.pages, index.page_height, index.returns_keys);
            let cost = if ordered {
                CostEstimate::ordered_scan(stats, pages, height, limit.map(|k| k as u64), keys)
            } else {
                let selectivity = leaf
                    .selectivity_hint()
                    .unwrap_or_else(|| operator.restrict.estimate(stats.distinct_values));
                CostEstimate::index_scan(stats, pages, height, selectivity, keys)
            };
            if cost.total_cost < best.total_cost() {
                let (index, operator_class) = (index.name.clone(), index.operator_class.clone());
                let leaf = leaf.clone();
                best = if ordered {
                    AccessPath::OrderedScan {
                        index,
                        operator_class,
                        leaf,
                        cost,
                    }
                } else {
                    AccessPath::IndexScan {
                        index,
                        operator_class,
                        leaf,
                        cost,
                    }
                };
            }
        }
        best
    }

    /// The operator of `index`'s class matching the `leaf` predicate, if
    /// the class supports it over the leaf's key type.  One lookup doubles
    /// as the support check; an index whose class lacks the operator is
    /// simply not a candidate (no panic path).
    fn supported_operator(&self, index: &AvailableIndex, leaf: &Predicate) -> Option<&Operator> {
        let class = self.catalog.operator_class(&index.operator_class)?;
        if class.key_type != leaf.key_type()?.name() {
            return None;
        }
        class.operator(leaf.operator()?)
    }

    /// The always-available fallback: scan the heap, re-check `predicate` on
    /// every tuple — and, for ordered queries, sort by anchor distance
    /// before reporting (which is why it is priced with the scan-and-sort
    /// estimate).
    fn seq_scan(&self, predicate: &Predicate) -> AccessPath {
        let order = predicate.ordered_driver().cloned();
        let cost = if order.is_some() {
            CostEstimate::seq_scan_sorted(&self.stats)
        } else {
            CostEstimate::seq_scan(&self.stats)
        };
        AccessPath::SeqScan {
            filter: predicate.clone(),
            order,
            cost,
        }
    }

    /// `input` with `residual` re-checked against every tuple it produces
    /// (just `input` when nothing is left to re-check).
    fn filtered(&self, input: AccessPath, residual: Vec<Predicate>, output_sel: f64) -> AccessPath {
        if residual.is_empty() {
            return input;
        }
        let cost = filter_cost(&input.cost(), &self.stats, residual.len(), output_sel);
        AccessPath::Filter {
            input: Box::new(input),
            residual,
            cost,
        }
    }

    /// Plans a conjunction: pick a driving scan (the cheapest indexable
    /// conjunct — or the ordered scan when one conjunct is a `@@` leaf),
    /// apply the remaining conjuncts as a residual filter, and consider
    /// intersecting several index scans' row-id streams when more than one
    /// conjunct is indexable.  The sequential scan always competes.
    fn plan_and(
        &self,
        whole: &Predicate,
        children: &[Predicate],
        limit: Option<usize>,
    ) -> AccessPath {
        let output_sel = whole.estimate_selectivity(&self.stats);
        // Constrained k-NN: one `@@` conjunct drives an ordered scan, the
        // other conjuncts filter it (order survives filtering).
        if let Some(driver_idx) = children.iter().position(Predicate::is_ordered_leaf) {
            let residual = conjuncts(children, |i| i != driver_idx);
            // A residual that keeps only fraction `s` of rows means the
            // ordered scan must report roughly k/s rows before k survive —
            // cost the scan at that inflated limit, and keep the sorted
            // heap fallback in the running for unselective drivers.
            let residual_sel = Predicate::And(residual.clone())
                .estimate_selectivity(&self.stats)
                .max(1e-9);
            let effective_limit = limit.map(|k| ((k as f64 / residual_sel).ceil() as usize).max(k));
            let driver = self.plan_leaf(&children[driver_idx], effective_limit);
            if residual.is_empty() {
                return driver;
            }
            let fallback = self.seq_scan(whole);
            if !driver.uses_index() {
                // No ordered index: the sorted heap fallback filters inline.
                return fallback;
            }
            let filtered = self.filtered(driver, residual, output_sel);
            return if filtered.total_cost() <= fallback.total_cost() {
                filtered
            } else {
                fallback
            };
        }

        let indexable: Vec<(usize, AccessPath)> = children
            .iter()
            .enumerate()
            .map(|(i, child)| (i, self.plan_node(child, None)))
            .filter(|(_, path)| path.uses_index())
            .collect();
        let mut best = self.seq_scan(whole);
        if indexable.is_empty() {
            return best;
        }

        // Strategy A — drive with the cheapest indexable conjunct, re-check
        // the rest against the fetched tuples.
        let (driver_idx, driver) = indexable
            .iter()
            .min_by(|(_, a), (_, b)| a.total_cost().total_cmp(&b.total_cost()))
            .map(|(i, n)| (*i, n.clone()))
            .expect("indexable is non-empty");
        let filter_plan =
            self.filtered(driver, conjuncts(children, |i| i != driver_idx), output_sel);

        // Strategy B — intersect every indexable conjunct's row-id stream,
        // then re-check only the non-indexable leftovers.
        let intersect_plan = (indexable.len() >= 2).then(|| {
            let member: HashSet<usize> = indexable.iter().map(|(i, _)| *i).collect();
            let inputs: Vec<AccessPath> = indexable.into_iter().map(|(_, n)| n).collect();
            let cost = intersect_cost(&inputs, &self.stats);
            self.filtered(
                AccessPath::Intersect { inputs, cost },
                conjuncts(children, |i| !member.contains(&i)),
                output_sel,
            )
        });

        for candidate in [Some(filter_plan), intersect_plan].into_iter().flatten() {
            if candidate.total_cost() < best.total_cost() {
                best = candidate;
            }
        }
        best
    }

    /// Plans a disjunction: a deduplicated union of the disjuncts' plans —
    /// unless any disjunct needs the heap anyway (then one sequential scan
    /// answers everything) or the union costs more than the scan.
    fn plan_or(&self, whole: &Predicate, children: &[Predicate]) -> AccessPath {
        let seq = self.seq_scan(whole);
        let mut inputs = Vec::new();
        for child in children {
            let path = self.plan_node(child, None);
            if !path.uses_index() {
                return seq;
            }
            inputs.push(path);
        }
        if inputs.is_empty() {
            return seq;
        }
        let cost = union_cost(&inputs, &self.stats);
        if cost.total_cost < seq.total_cost() {
            AccessPath::Union { inputs, cost }
        } else {
            seq
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> TableStats {
        TableStats {
            rows: 2_000_000,
            heap_pages: 20_000,
            distinct_values: 1_500_000,
        }
    }

    fn indexes() -> Vec<AvailableIndex> {
        vec![
            AvailableIndex {
                name: "sp_trie_index".into(),
                operator_class: "SP_GiST_trie".into(),
                pages: 9_000,
                page_height: 4,
                returns_keys: true,
            },
            AvailableIndex {
                name: "btree_index".into(),
                operator_class: "btree_varchar".into(),
                pages: 7_000,
                page_height: 3,
                returns_keys: true,
            },
            AvailableIndex {
                name: "sp_suffix_index".into(),
                operator_class: "SP_GiST_suffix".into(),
                pages: 40_000,
                page_height: 5,
                returns_keys: false,
            },
        ]
    }

    /// Plans `query` over `available` with the paper's catalog.
    fn plan_with(available: Vec<AvailableIndex>, query: impl Into<Query>) -> AccessPath {
        let catalog = Catalog::with_paper_defaults();
        Planner::new(&catalog, stats(), available)
            .plan(&query.into())
            .unwrap()
    }

    fn plan(query: impl Into<Query>) -> AccessPath {
        plan_with(indexes(), query)
    }

    #[test]
    fn regex_queries_can_only_use_the_trie() {
        match plan(Predicate::str_regex("sp?ce")) {
            AccessPath::IndexScan { index, .. } => assert_eq!(index, "sp_trie_index"),
            other => panic!("expected an index scan, got {other:?}"),
        }
    }

    #[test]
    fn substring_queries_use_the_suffix_tree() {
        match plan(Predicate::str_substring("pace")) {
            AccessPath::IndexScan { index, .. } => assert_eq!(index, "sp_suffix_index"),
            other => panic!("expected an index scan, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_operator_falls_back_to_seq_scan() {
        // No string index supports the spatial containment operator.
        let window = spgist_indexes::geom::Rect::new(0.0, 0.0, 1.0, 1.0);
        let path = plan(Predicate::point_in_rect(window));
        assert!(matches!(path, AccessPath::SeqScan { .. }));
        // Without any physical index the planner also falls back.
        let path = plan_with(Vec::new(), Predicate::str_equals("space"));
        assert!(matches!(path, AccessPath::SeqScan { .. }));
    }

    #[test]
    fn poor_selectivity_loses_to_the_seq_scan_even_with_an_index() {
        // An empty-prefix match retrieves every row; its argument-aware
        // selectivity says so, and the planner must route it to the heap
        // despite the matching trie.
        assert!(matches!(
            plan(Predicate::str_prefix("")),
            AccessPath::SeqScan { .. }
        ));
        // The same operator with a selective argument keeps the index, so
        // the crossover exists and sits between the two.
        assert!(matches!(
            plan(Predicate::str_prefix("spa")),
            AccessPath::IndexScan { .. }
        ));
    }

    #[test]
    fn ordered_scans_route_to_an_nn_capable_index() {
        let nn = Predicate::str_nearest("space").limit(10);
        // With a small LIMIT the trie's incremental NN search wins.
        let AccessPath::Limit { input, .. } = plan(nn.clone()) else {
            panic!("expected a LIMIT plan");
        };
        match *input {
            AccessPath::OrderedScan { index, .. } => assert_eq!(index, "sp_trie_index"),
            other => panic!("expected an ordered scan, got {other:?}"),
        }
        // The suffix tree and the B⁺-tree register no `@@`; without the trie
        // the fallback is scan-and-sort.
        let no_trie: Vec<AvailableIndex> = indexes()
            .into_iter()
            .filter(|i| i.operator_class != "SP_GiST_trie")
            .collect();
        let AccessPath::Limit { input, .. } = plan_with(no_trie, nn) else {
            panic!("expected a LIMIT plan");
        };
        assert!(matches!(*input, AccessPath::SeqScan { .. }));
    }

    #[test]
    fn equality_picks_the_cheaper_of_trie_and_btree() {
        match plan(Predicate::str_equals("space")) {
            AccessPath::IndexScan { cost, .. } => {
                assert!(cost.total_cost < CostEstimate::seq_scan(&stats()).total_cost);
            }
            other => panic!("expected an index scan, got {other:?}"),
        }
    }
}
