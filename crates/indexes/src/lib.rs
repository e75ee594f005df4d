//! SP-GiST index instantiations.
//!
//! The paper realizes five disk-based space-partitioning indexes through the
//! SP-GiST framework; this crate contains their external methods
//! (`consistent`, `picksplit`, `choose`, NN distance functions) and the
//! operators registered for each in PostgreSQL (paper Tables 4–6):
//!
//! | Index | Type | Operators |
//! |---|---|---|
//! | patricia trie | [`trie::TrieIndex`] | `=` equality, `#=` prefix, `?=` regular expression, `@@` NN (Hamming) |
//! | suffix tree | [`suffix::SuffixTreeIndex`] | `@=` substring match |
//! | kd-tree | [`kdtree::KdTreeIndex`] | `@` point equality, `^` range (box), `@@` NN (Euclidean) |
//! | point quadtree | [`quadtree::PointQuadtreeIndex`] | `@`, `^`, `@@` |
//! | PMR quadtree | [`pmr::PmrQuadtreeIndex`] | segment equality, window (range) query |
//!
//! Everything is generic over the storage substrate: pass any
//! [`spgist_storage::BufferPool`] (in-memory or file-backed).
//!
//! A class is its [`spgist_core::SpGistOps`]: the trie, suffix tree,
//! kd-tree, point quadtree and PMR quadtree are type aliases of the one
//! generic index [`spindex::SpGistIndex`], which implements the unified
//! [`spindex::SpIndex`] trait (`insert` / `delete` /
//! `execute` / `cursor` / `len` / `stats` / `repack`), so generic code — the
//! `spgist-catalog` executor, benchmarks, tests — is written once against
//! the trait; the per-class inherent methods are thin operator sugar over
//! it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod geom;
pub mod kdtree;
pub mod pmr;
pub mod quadtree;
pub mod query;
pub mod spindex;
pub mod suffix;
pub mod trie;

pub use geom::{Point, Rect, Segment};
pub use kdtree::{KdTreeIndex, KdTreeOps};
pub use pmr::{PmrQuadtreeIndex, PmrQuadtreeOps};
pub use quadtree::{PointQuadtreeIndex, PointQuadtreeOps};
pub use query::{PointQuery, SegmentQuery, StringQuery};
pub use spindex::{Cursor, SpGistBacked, SpGistIndex, SpIndex};
pub use suffix::{SuffixOps, SuffixTreeIndex};
pub use trie::{TrieIndex, TrieOps};
