//! A miniature access-path planner.
//!
//! PostgreSQL decides between a sequential scan and the available index scans
//! by comparing estimated costs; this module reproduces that decision for the
//! operators of the paper so the examples and integration tests can show an
//! SP-GiST index actually being *chosen* (or skipped when it cannot help,
//! e.g. a substring query against a plain trie).

use crate::am::Catalog;
use crate::cost::{CostEstimate, TableStats};

/// A query predicate: an operator name applied to an indexed column type.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPredicate {
    /// Operator name, e.g. `"="`, `"#="`, `"?="`, `"@"`, `"^"`, `"@="`,
    /// `"@@"`.
    pub operator: String,
    /// Key type of the column, e.g. `"VARCHAR"` or `"POINT"`.
    pub key_type: String,
    /// Argument-aware selectivity override.  When present it replaces the
    /// operator's class-level default (`eqsel`/`contsel`/`likesel`), letting
    /// the executor tell the planner that e.g. an empty-prefix match
    /// retrieves the whole table.
    pub selectivity: Option<f64>,
}

impl QueryPredicate {
    /// Shorthand constructor.
    pub fn new(operator: &str, key_type: &str) -> Self {
        QueryPredicate {
            operator: operator.to_string(),
            key_type: key_type.to_string(),
            selectivity: None,
        }
    }

    /// Attaches an argument-aware selectivity estimate in `[0, 1]`.
    pub fn with_selectivity(mut self, selectivity: f64) -> Self {
        self.selectivity = Some(selectivity.clamp(0.0, 1.0));
        self
    }
}

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

/// A physical plan: the operator tree the planner selects for a (possibly
/// compositional) predicate.
///
/// Single predicates plan to the classic leaves (`SeqScan` / `IndexScan` /
/// `OrderedScan`); boolean predicate trees compose them with residual
/// filters, row-id stream intersection/union, and `LIMIT` pushdown.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Full sequential scan of the heap (with the query predicate re-checked
    /// on every tuple; for ordered queries the fallback also sorts).
    SeqScan {
        /// Estimated cost.
        cost: CostEstimate,
    },
    /// Index scan through the named index.
    IndexScan {
        /// Index chosen.
        index: String,
        /// Operator class providing the operator.
        operator_class: String,
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
        /// Estimated cost.
        cost: CostEstimate,
    },
    /// Residual filter: re-check the predicates the input scan does not
    /// cover against each tuple it produces.
    Filter {
        /// The driving scan.
        input: Box<AccessPath>,
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
    /// The total estimated cost of this path.
    pub fn total_cost(&self) -> f64 {
        match self {
            AccessPath::SeqScan { cost }
            | AccessPath::IndexScan { cost, .. }
            | AccessPath::OrderedScan { cost, .. }
            | AccessPath::Filter { cost, .. }
            | AccessPath::Intersect { cost, .. }
            | AccessPath::Union { cost, .. } => cost.total_cost,
            AccessPath::Limit { input, .. } => input.total_cost(),
        }
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

/// Chooses between sequential and index scans using the catalog and the cost
/// model.
pub struct Planner<'a> {
    catalog: &'a Catalog,
}

impl<'a> Planner<'a> {
    /// Creates a planner over `catalog`.
    pub fn new(catalog: &'a Catalog) -> Self {
        Planner { catalog }
    }

    /// Picks the cheapest access path for `predicate` over a table with
    /// `stats`, given the physically `available` indexes.
    ///
    /// The comparison against the sequential scan is honest: a predicate
    /// whose (argument-aware) selectivity is poor loses to the heap scan
    /// even when an index supports its operator.
    pub fn plan(
        &self,
        predicate: &QueryPredicate,
        stats: &TableStats,
        available: &[AvailableIndex],
    ) -> AccessPath {
        let mut best = AccessPath::SeqScan {
            cost: CostEstimate::seq_scan(stats),
        };
        for index in available {
            let Some(operator) = self.supported_operator(index, predicate) else {
                continue;
            };
            let selectivity = predicate
                .selectivity
                .unwrap_or_else(|| operator.restrict.estimate(stats.distinct_values));
            let cost = CostEstimate::index_scan(
                stats,
                index.pages,
                index.page_height,
                selectivity,
                index.returns_keys,
            );
            if cost.total_cost < best.total_cost() {
                best = AccessPath::IndexScan {
                    index: index.name.clone(),
                    operator_class: index.operator_class.clone(),
                    cost,
                };
            }
        }
        best
    }

    /// Picks the cheapest *ordered* access path for an `@@` predicate: an
    /// [`AccessPath::OrderedScan`] through an index whose class registers
    /// the ordered operator, or the scan-everything-and-sort fallback.
    /// `k` is the pushed-down `LIMIT`, which caps how much of the index the
    /// best-first search has to visit.
    pub fn plan_ordered(
        &self,
        predicate: &QueryPredicate,
        stats: &TableStats,
        available: &[AvailableIndex],
        k: Option<usize>,
    ) -> AccessPath {
        let mut best = AccessPath::SeqScan {
            cost: CostEstimate::seq_scan_sorted(stats),
        };
        for index in available {
            if self.supported_operator(index, predicate).is_none() {
                continue;
            }
            let cost = CostEstimate::ordered_scan(
                stats,
                index.pages,
                index.page_height,
                k.map(|k| k as u64),
                index.returns_keys,
            );
            if cost.total_cost < best.total_cost() {
                best = AccessPath::OrderedScan {
                    index: index.name.clone(),
                    operator_class: index.operator_class.clone(),
                    cost,
                };
            }
        }
        best
    }

    /// The operator of `index`'s class matching `predicate`, if the class
    /// supports it over the right key type.  One lookup doubles as the
    /// support check; an index whose class lacks the operator is simply not
    /// a candidate (no panic path).
    fn supported_operator<'c>(
        &'c self,
        index: &AvailableIndex,
        predicate: &QueryPredicate,
    ) -> Option<&'c crate::operator::Operator> {
        let class = self.catalog.operator_class(&index.operator_class)?;
        if class.key_type != predicate.key_type {
            return None;
        }
        class.operator(&predicate.operator)
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

    #[test]
    fn regex_queries_can_only_use_the_trie() {
        let catalog = Catalog::with_paper_defaults();
        let planner = Planner::new(&catalog);
        let path = planner.plan(&QueryPredicate::new("?=", "VARCHAR"), &stats(), &indexes());
        match path {
            AccessPath::IndexScan { index, .. } => assert_eq!(index, "sp_trie_index"),
            other => panic!("expected an index scan, got {other:?}"),
        }
    }

    #[test]
    fn substring_queries_use_the_suffix_tree() {
        let catalog = Catalog::with_paper_defaults();
        let planner = Planner::new(&catalog);
        let path = planner.plan(&QueryPredicate::new("@=", "VARCHAR"), &stats(), &indexes());
        match path {
            AccessPath::IndexScan { index, .. } => assert_eq!(index, "sp_suffix_index"),
            other => panic!("expected an index scan, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_operator_falls_back_to_seq_scan() {
        let catalog = Catalog::with_paper_defaults();
        let planner = Planner::new(&catalog);
        // No string index supports the spatial containment operator.
        let path = planner.plan(&QueryPredicate::new("^", "VARCHAR"), &stats(), &indexes());
        assert!(matches!(path, AccessPath::SeqScan { .. }));
        // Without any physical index the planner also falls back.
        let path = planner.plan(&QueryPredicate::new("=", "VARCHAR"), &stats(), &[]);
        assert!(matches!(path, AccessPath::SeqScan { .. }));
    }

    #[test]
    fn poor_selectivity_loses_to_the_seq_scan_even_with_an_index() {
        let catalog = Catalog::with_paper_defaults();
        let planner = Planner::new(&catalog);
        // An empty-prefix match retrieves every row; the executor reports
        // that through the selectivity override, and the planner must route
        // it to the heap despite the matching trie.
        let all = QueryPredicate::new("#=", "VARCHAR").with_selectivity(1.0);
        assert!(matches!(
            planner.plan(&all, &stats(), &indexes()),
            AccessPath::SeqScan { .. }
        ));
        // The same operator with a selective argument keeps the index, so
        // the crossover exists and sits between the two.
        let selective = QueryPredicate::new("#=", "VARCHAR").with_selectivity(1e-4);
        assert!(matches!(
            planner.plan(&selective, &stats(), &indexes()),
            AccessPath::IndexScan { .. }
        ));
    }

    #[test]
    fn ordered_scans_route_to_an_nn_capable_index() {
        let catalog = Catalog::with_paper_defaults();
        let planner = Planner::new(&catalog);
        let nn = QueryPredicate::new("@@", "VARCHAR");
        // With a small LIMIT the trie's incremental NN search wins.
        let path = planner.plan_ordered(&nn, &stats(), &indexes(), Some(10));
        match path {
            AccessPath::OrderedScan { index, .. } => assert_eq!(index, "sp_trie_index"),
            other => panic!("expected an ordered scan, got {other:?}"),
        }
        // The suffix tree and the B⁺-tree register no `@@`; without the trie
        // the fallback is scan-and-sort.
        let no_trie: Vec<AvailableIndex> = indexes()
            .into_iter()
            .filter(|i| i.operator_class != "SP_GiST_trie")
            .collect();
        assert!(matches!(
            planner.plan_ordered(&nn, &stats(), &no_trie, Some(10)),
            AccessPath::SeqScan { .. }
        ));
    }

    #[test]
    fn equality_picks_the_cheaper_of_trie_and_btree() {
        let catalog = Catalog::with_paper_defaults();
        let planner = Planner::new(&catalog);
        let path = planner.plan(&QueryPredicate::new("=", "VARCHAR"), &stats(), &indexes());
        match path {
            AccessPath::IndexScan { cost, .. } => {
                assert!(cost.total_cost < CostEstimate::seq_scan(&stats()).total_cost);
            }
            other => panic!("expected an index scan, got {other:?}"),
        }
    }
}
