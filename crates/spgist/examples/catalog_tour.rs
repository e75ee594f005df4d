//! Tour of the PostgreSQL-style extensibility surface (paper Section 4,
//! Tables 2–6): the access-method catalog, operator classes, cost model and
//! the planner's index-vs-seqscan decision.
//!
//! ```text
//! cargo run --example catalog_tour
//! ```

use spgist::catalog::CostEstimate;
use spgist::prelude::*;

fn main() {
    // The pg_am row the paper inserts (Table 2).
    let catalog = Catalog::with_paper_defaults();
    let spgist = catalog.access_method("SP_GiST").expect("registered");
    println!("access method {:?}:", spgist.name);
    println!(
        "  strategies = {}, support functions = {}",
        spgist.strategies, spgist.support_functions
    );
    println!(
        "  order strategy = {} (SP-GiST entries have no order)",
        spgist.order_strategy
    );
    println!("  insert routine = {}", spgist.routines["aminsert"]);

    // Operator classes (Tables 4–5).
    for class_name in ["SP_GiST_trie", "SP_GiST_kdtree", "SP_GiST_suffix"] {
        let class = catalog.operator_class(class_name).expect("registered");
        let ops: Vec<&str> = class.operators.iter().map(|o| o.name.as_str()).collect();
        println!(
            "operator class {:<16} ({:<7}) operators: {:?}",
            class.name, class.key_type, ops
        );
    }

    // Planning (the spgistcostestimate analog): a regular-expression query
    // over a 2M-row table can only use the trie index.
    let stats = TableStats {
        rows: 2_000_000,
        heap_pages: 20_000,
        distinct_values: 1_500_000,
    };
    let indexes: Vec<AvailableIndex> = [
        ("sp_trie_index", "SP_GiST_trie", 9_000, 4),
        ("btree_index", "btree_varchar", 7_000, 3),
    ]
    .into_iter()
    .map(|(name, class, pages, page_height)| AvailableIndex {
        name: name.into(),
        operator_class: class.into(),
        pages,
        page_height,
        // Both hold whole keys in their leaves: no heap visit to price.
        returns_keys: true,
    })
    .collect();
    let seq_cost = CostEstimate::seq_scan(&stats).total_cost;
    let planner = Planner::new(&catalog, stats, indexes);
    for (predicate, description) in [
        (Predicate::str_equals("space"), "equality"),
        (Predicate::str_regex("sp?c?"), "regular expression"),
        (Predicate::str_substring("pac"), "substring"),
    ] {
        let path = planner.plan(&predicate.into()).expect("plannable");
        match path {
            AccessPath::IndexScan { index, cost, .. } => println!(
                "{description:<20} -> index scan via {index} (cost {:.0} vs seq {seq_cost:.0})",
                cost.total_cost
            ),
            AccessPath::SeqScan { cost, .. } => println!(
                "{description:<20} -> sequential scan (cost {:.0}); no registered index supports it",
                cost.total_cost
            ),
            other => println!("{description:<20} -> {other:?}"),
        }
    }
}
