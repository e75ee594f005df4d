//! SP-GiST for Rust — umbrella crate.
//!
//! Re-exports the whole public API of the reproduction of
//! *"Space-Partitioning Trees in PostgreSQL: Realization and Performance"*
//! (Eltabakh, Eltarras, Aref — ICDE 2006):
//!
//! * [`storage`] — pages, pager, buffer pool, heap files,
//! * [`core`] — the SP-GiST framework (external-method trait, generalized
//!   insert/search/delete/NN, streaming search cursors, node→page
//!   clustering),
//! * [`indexes`] — the five instantiations behind the unified
//!   [`SpIndex`](indexes::SpIndex) trait: patricia trie, suffix tree,
//!   kd-tree, point quadtree, PMR quadtree,
//! * [`baselines`] — the B⁺-tree, R-tree and sequential-scan comparators,
//! * [`catalog`] — the PostgreSQL-style access-method / operator-class
//!   catalog, cost model, planner, and the executable query layer
//!   ([`Database`](catalog::Database): plan → cursor → results),
//! * [`datagen`] — the paper's synthetic workload generators.
//!
//! The one-API surface in action — the same predicate is planned against the
//! catalog, routed to a physical index chosen by cost, and executed through
//! a streaming cursor:
//!
//! ```
//! use spgist::prelude::*;
//!
//! let mut db = Database::in_memory();
//! db.create_table("words", KeyType::Varchar).unwrap();
//! let table = db.table_mut("words").unwrap();
//! for (row, word) in ["space", "spade", "star", "blue"].iter().enumerate() {
//!     assert_eq!(table.insert(*word).unwrap(), row as RowId);
//! }
//! table.create_index("words_trie", IndexSpec::Trie).unwrap();
//!
//! // `?=` regular-expression predicate: planned, then executed.
//! let rows = db.query("words", &Predicate::str_regex("spa?e")).unwrap();
//! assert_eq!(rows.rows().unwrap(), vec![0, 1]);
//! ```
//!
//! Each index is also usable directly through [`SpIndex`](indexes::SpIndex):
//!
//! ```
//! use spgist::prelude::*;
//!
//! let trie = TrieIndex::create(BufferPool::in_memory()).unwrap();
//! trie.insert("space".into(), 1).unwrap();
//! trie.insert("spade".into(), 2).unwrap();
//! assert_eq!(trie.regex("spa?e").unwrap().len(), 2);
//! ```
//!
//! Indexes and tables are **shared-access**: every `SpIndex` method takes
//! `&self` behind internal reader-writer latches, and `Arc<Table>` handles
//! are `Send + Sync`.  A writer thread goes through a table handle while a
//! reader queries through the facade (the README's *Concurrency model*):
//!
//! ```
//! use spgist::prelude::*;
//! use std::sync::Arc;
//!
//! let mut db = Database::in_memory();
//! db.create_table("pts", KeyType::Point).unwrap();
//! db.table_mut("pts").unwrap().create_index("kd", IndexSpec::KdTree).unwrap();
//!
//! let handle: Arc<Table> = db.table_handle("pts").unwrap();
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         for i in 0..1_000u64 {
//!             handle.insert(Point::new((i % 97) as f64, (i % 89) as f64)).unwrap();
//!         }
//!     });
//!     s.spawn(|| {
//!         let world = Predicate::point_in_rect(Rect::new(0.0, 0.0, 100.0, 100.0));
//!         let rows = db.query("pts", &world).unwrap().rows().unwrap();
//!         assert!(rows.len() <= 1_000);
//!     });
//! });
//! assert_eq!(handle.len(), 1_000);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use spgist_baselines as baselines;
pub use spgist_catalog as catalog;
pub use spgist_core as core;
pub use spgist_datagen as datagen;
pub use spgist_indexes as indexes;
pub use spgist_storage as storage;

/// Commonly used types, re-exported for `use spgist::prelude::*`.
pub mod prelude {
    pub use spgist_baselines::{BPlusTree, RTree, SeqScanTable};
    pub use spgist_catalog::{
        AccessMethod, AccessPath, AvailableIndex, Catalog, Database, Datum, ExecCursor, IndexSpec,
        KeyType, Planner, Predicate, Query, ScanSource, Table, TableStats, Transaction,
    };
    pub use spgist_core::{
        NodeShrink, PathShrink, RowId, SearchCursor, SpGistConfig, SpGistOps, SpGistTree, TreeStats,
    };
    pub use spgist_indexes::{
        Cursor, KdTreeIndex, PmrQuadtreeIndex, Point, PointQuadtreeIndex, PointQuery, Rect,
        Segment, SegmentQuery, SpIndex, StringQuery, SuffixOps, SuffixTreeIndex, TrieIndex,
        TrieOps,
    };
    pub use spgist_storage::{
        AccessHint, BufferPool, BufferPoolConfig, FilePager, MemPager, Pager,
    };
}
