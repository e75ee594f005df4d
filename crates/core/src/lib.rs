//! SP-GiST: Space-Partitioning Generalized Search Trees.
//!
//! This crate is the Rust realization of the SP-GiST framework described in
//! *"Space-Partitioning Trees in PostgreSQL: Realization and Performance"*
//! (Eltabakh, Eltarras, Aref — ICDE 2006).  SP-GiST is an extensible indexing
//! framework for the class of **space-partitioning trees** — tries, quadtrees,
//! kd-trees, suffix trees — whose defining property is that they decompose the
//! space into *disjoint* partitions.
//!
//! The split of responsibilities follows the paper exactly:
//!
//! * **Internal methods** (this crate, [`tree::SpGistTree`]) are shared by all
//!   instantiations: generalized insert, search, delete, bulk build, and the
//!   incremental nearest-neighbour search of Section 5 ([`nn`]).  They also own
//!   the node→page **clustering** that packs many small tree nodes into 8 KiB
//!   disk pages ([`store`]), which the paper credits for keeping the trie's
//!   *page* height on par with the B⁺-tree even though its *node* height is far
//!   larger (Figures 11 and 12).
//! * **External methods and interface parameters** ([`ops::SpGistOps`],
//!   [`config::SpGistConfig`]) are what a developer writes to instantiate a new
//!   index: `consistent`, `picksplit`, `choose`, the NN distance functions, and
//!   the parameters `PathShrink`, `NodeShrink`, `BucketSize`,
//!   `NoOfSpacePartitions`, and `Resolution` from the paper's Table 1.
//!
//! The concrete instantiations used in the paper's evaluation (patricia trie,
//! suffix tree, kd-tree, point quadtree, PMR quadtree) live in the
//! `spgist-indexes` crate; the storage substrate (pages, buffer pool) lives in
//! `spgist-storage`.
//!
//! # Example
//!
//! Instantiating an index is a matter of implementing [`ops::SpGistOps`]; see
//! the digit-trie used by this crate's own tests
//! (`tests/digit_trie.rs`-style instantiations in the `spgist-indexes` crate
//! are the full-featured versions).
//!
//! ```
//! use std::sync::Arc;
//! use spgist_storage::BufferPool;
//! use spgist_core::testing::DigitTrieOps;
//! use spgist_core::SpGistTree;
//!
//! let pool = BufferPool::in_memory();
//! let tree = SpGistTree::create(Arc::clone(&pool), DigitTrieOps::default()).unwrap();
//! for key in [42u32, 7, 123, 99, 4242] {
//!     tree.insert(key, u64::from(key)).unwrap();
//! }
//! assert_eq!(tree.search(&42).unwrap(), vec![(42, 42)]);
//! assert_eq!(tree.stats().unwrap().items, 5);
//! ```
//!
//! Every tree method takes `&self`: readers pin a reclamation epoch and run
//! latch-free, writers crab per-page latches down the tree, so an
//! `Arc<SpGistTree<_>>` is shared across threads directly (see the
//! concurrency notes on [`tree::SpGistTree`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod build;
pub mod config;
pub mod nn;
pub mod node;
pub mod ops;
pub mod stats;
pub mod store;
pub mod testing;
pub mod tree;

pub use build::BulkBuilder;
pub use config::{NodeShrink, PathShrink, SpGistConfig};
pub use nn::NnIter;
pub use node::{Node, NodeId};
pub use ops::{Choose, PickSplit, SpGistOps};
pub use stats::TreeStats;
pub use store::NodeStore;
pub use tree::{SearchCursor, SpGistTree};

pub use spgist_storage::{ConcurrencyStats, EpochPin};

/// Row identifier stored alongside every key in leaf nodes — the analog of a
/// PostgreSQL heap tuple pointer.
pub type RowId = u64;
