//! External methods of the SP-GiST framework.
//!
//! Implementing [`SpGistOps`] is all a developer provides to instantiate a new
//! space-partitioning index (paper Table 1): the `consistent` predicate that
//! guides navigation, `picksplit` that decomposes an overfull data node,
//! `choose` that routes an insertion, and the `NN_Consistent` distance
//! functions for incremental nearest-neighbour search (Section 5).

use spgist_storage::Codec;

use crate::config::SpGistConfig;
use crate::RowId;

/// Decision returned by [`SpGistOps::choose`] when routing an insertion
/// through an inner node.
#[derive(Debug, Clone, PartialEq)]
pub enum Choose<Pred, Prefix> {
    /// Descend into the existing entries at these indices.  Point-like keys
    /// descend into exactly one entry; spatial objects that span several
    /// partitions (PMR-quadtree line segments) descend into all partitions
    /// they intersect.
    Descend(Vec<usize>),
    /// No matching entry exists (`NodeShrink = OmitEmpty`): add a new child
    /// under this predicate and insert the key there.
    AddEntry(Pred),
    /// The key conflicts with the node's multi-level prefix
    /// (`PathShrink = TreeShrink`): the node must first be split so that only
    /// the agreeing part of the prefix remains above.
    SplitPrefix {
        /// Prefix kept by the new upper node (`None` if nothing is shared).
        upper_prefix: Option<Prefix>,
        /// Entry predicate under which the existing node is re-attached.
        lower_pred: Pred,
        /// Prefix kept by the existing (now lower) node.
        lower_prefix: Option<Prefix>,
    },
}

/// Result of [`SpGistOps::picksplit`]: how an overfull data node is
/// decomposed into new partitions.
#[derive(Debug, Clone, PartialEq)]
pub struct PickSplit<Prefix, Pred> {
    /// Prefix predicate of the new inner node (e.g. the common string prefix
    /// for a patricia trie, the splitting point for a kd-tree).
    pub prefix: Option<Prefix>,
    /// The new partitions: an entry predicate and the indices (into the item
    /// slice passed to `picksplit`) of the items routed to that partition.
    /// An index may appear in more than one partition for spatial objects.
    pub partitions: Vec<(Pred, Vec<usize>)>,
}

impl<Prefix, Pred> PickSplit<Prefix, Pred> {
    /// True if the split made no progress: everything would end up in a
    /// single partition identical to the input and no prefix was extracted.
    /// The internal methods stop splitting by key in that case; past the
    /// byte budget the leaf fans out by row id instead
    /// ([`crate::node::Node::Rows`]).
    pub fn is_degenerate(&self, input_len: usize) -> bool {
        self.prefix.is_none()
            && self.partitions.len() <= 1
            && self
                .partitions
                .first()
                .is_none_or(|(_, items)| items.len() >= input_len)
    }

    /// Parks every item index of `0..input_len` that appears in *no*
    /// partition into the first partition, mirroring the
    /// [`Choose::Descend`]`(vec![0])` insertion fallback (a PMR segment
    /// outside the world rectangle intersects no quadrant).  Both the
    /// insert path's split and the bulk builder call this so a
    /// decomposition can never drop items.
    pub fn park_unassigned(&mut self, input_len: usize) {
        let mut assigned = vec![false; input_len];
        for (_, members) in &self.partitions {
            for &idx in members {
                if let Some(slot) = assigned.get_mut(idx) {
                    *slot = true;
                }
            }
        }
        let unassigned: Vec<usize> = (0..input_len).filter(|&i| !assigned[i]).collect();
        if !unassigned.is_empty() {
            if let Some((_, first)) = self.partitions.first_mut() {
                first.extend(unassigned);
            }
        }
    }

    /// True if the split *replicated* the whole input without separating it:
    /// two or more partitions each received every item.  Recursing into such
    /// a split multiplies identical copies level after level (identical or
    /// heavily overlapping PMR segments) without ever shrinking a partition,
    /// so the bulk builder stops and partitions by row id instead.  A
    /// *single* full partition is fine — that is a plain descent chain,
    /// bounded by the resolution.
    pub fn replicates_without_separating(&self, input_len: usize) -> bool {
        self.partitions
            .iter()
            .filter(|(_, members)| members.len() >= input_len.max(1))
            .count()
            >= 2
    }
}

/// The external methods and interface parameters of one SP-GiST
/// instantiation.
///
/// The associated types mirror the paper's interface parameters:
/// `Key` is *KeyType*, `Pred` is *NodePredicate*, `Prefix` is the node-level
/// predicate used by `PathShrink = TreeShrink` trees, and `Query` is the
/// predicate of the operators registered for the index (equality, prefix,
/// regular expression, range, …).
pub trait SpGistOps {
    /// Data type stored at the leaf nodes (*KeyType*).
    type Key: Codec + Clone + std::fmt::Debug;
    /// Node-level (multi-level) predicate used by tree-shrinking trees; use
    /// `()` for trees that never carry a prefix.
    type Prefix: Codec + Clone + std::fmt::Debug;
    /// Predicate type at index-node entries (*NodePredicate*).
    type Pred: Codec + Clone + PartialEq + std::fmt::Debug;
    /// Query predicate evaluated by `consistent` / `leaf_consistent`.
    type Query: Clone;
    /// Traversal context reconstructed along the root-to-leaf path during
    /// insertion (PostgreSQL SP-GiST's *traversal value*).  Space-driven
    /// trees (the PMR quadtree) use it to carry the region covered by the
    /// current node, which `picksplit` needs to produce the child quadrants.
    /// Instantiations that do not need it use `()`.
    type Context: Clone + Default;

    /// The interface parameters of this instantiation (paper Table 1).
    fn config(&self) -> SpGistConfig;

    /// Context associated with the root node.  Defaults to
    /// `Context::default()`; space-driven trees return the world bounds.
    fn root_context(&self) -> Self::Context {
        Self::Context::default()
    }

    /// Context of the child reached through entry `pred` of a node with
    /// `prefix`, given the node's own context.  Defaults to propagating the
    /// parent context unchanged.
    fn child_context(
        &self,
        ctx: &Self::Context,
        prefix: Option<&Self::Prefix>,
        pred: &Self::Pred,
        level: u32,
    ) -> Self::Context {
        let _ = (prefix, pred, level);
        ctx.clone()
    }

    /// The equality query for `key`; the generalized insert uses it to
    /// navigate to the partition that must hold the key.
    fn key_query(&self, key: &Self::Key) -> Self::Query;

    /// May the subtree under entry `pred` of a node with prefix `prefix` at
    /// depth `level` contain keys satisfying `query`?  Invoked by both
    /// `Insert()` and `Search()` to guide tree navigation (paper Section 3.1).
    fn consistent(
        &self,
        prefix: Option<&Self::Prefix>,
        pred: &Self::Pred,
        query: &Self::Query,
        level: u32,
    ) -> bool;

    /// May *any* entry of a node carrying `prefix` at `level` be consistent
    /// with `query`?  Lets tree-shrinking instantiations prune a whole node
    /// when the query conflicts with the node prefix.  Defaults to `true`.
    fn prefix_consistent(&self, prefix: &Self::Prefix, query: &Self::Query, level: u32) -> bool {
        let _ = (prefix, query, level);
        true
    }

    /// Does the stored `key` satisfy `query`?
    fn leaf_consistent(&self, key: &Self::Key, query: &Self::Query, level: u32) -> bool;

    /// Number of decomposition levels consumed when descending from a node
    /// with `prefix` into one of its children.  `1` for plain trees; tries
    /// with `TreeShrink` add the prefix length.
    fn descend_levels(&self, prefix: Option<&Self::Prefix>) -> u32 {
        let _ = prefix;
        1
    }

    /// Route the insertion of `key` through an inner node.
    fn choose(
        &self,
        prefix: Option<&Self::Prefix>,
        preds: &[Self::Pred],
        key: &Self::Key,
        level: u32,
    ) -> Choose<Self::Pred, Self::Prefix>;

    /// Decompose the items of an overfull data node into new partitions
    /// (paper Table 1).  `level` is the depth of the node being split and
    /// `ctx` the traversal context reconstructed on the way down to it.
    ///
    /// **A degenerate answer is final.**  Once a leaf whose split
    /// [`PickSplit::is_degenerate`] outgrows the byte budget it fans out by
    /// row id ([`crate::node::Node::Rows`]), and every key `choose` routes
    /// there later is filed by its row and never offered to `picksplit`
    /// again.  Answer with a single full partition (and no prefix) only when
    /// no key that can reach this node is separable from these — not merely
    /// because the keys at hand agree at this level.  The built-in classes
    /// comply: the tries extract the common prefix or end on the terminator
    /// partition, which only that one word reaches; the spatial classes
    /// always emit their full fan-out and chain down to the resolution.  A
    /// class that breaks the rule stays correct (searches filter at the
    /// leaves) but scans the whole pile for every query that reaches it.
    fn picksplit(
        &self,
        items: &[Self::Key],
        level: u32,
        ctx: &Self::Context,
    ) -> PickSplit<Self::Prefix, Self::Pred>;

    /// Bulk-build hint (`spgistbuild`, paper Section 4): rearrange a whole
    /// partition's items before the bulk builder decomposes it with
    /// [`SpGistOps::picksplit`].
    ///
    /// The builder calls this once per partition it is about to split, with
    /// the partition's decomposition `level` and traversal context.  Classes
    /// whose `picksplit` is data-driven use it to choose *which* data drives
    /// the split: the trie sorts the key set (level 0 only — partitions of a
    /// sorted set stay sorted) so sibling runs are contiguous, and the
    /// kd-tree / point quadtree move a spatial median to the front so the
    /// "old point" `picksplit` splits on halves the partition instead of
    /// reflecting insertion order.  Space-driven classes (the PMR quadtree),
    /// whose partitions ignore item order, keep the default no-op.
    fn bulk_prepare(&self, items: &mut [(Self::Key, RowId)], level: u32, ctx: &Self::Context) {
        let _ = (items, level, ctx);
    }

    /// Lower bound on the distance from `query` to any key stored below the
    /// entry `pred` of a node with `prefix`, given the lower bound
    /// `parent_dist` already established for the node itself
    /// (`NN_Consistent`, paper Section 5).  Defaults to propagating the
    /// parent distance, which is always admissible.
    fn inner_distance(
        &self,
        prefix: Option<&Self::Prefix>,
        pred: &Self::Pred,
        query: &Self::Query,
        parent_dist: f64,
        level: u32,
    ) -> f64 {
        let _ = (prefix, pred, query, level);
        parent_dist
    }

    /// Exact distance from `query` to a stored key (`NN_Consistent` on
    /// database objects).
    fn leaf_distance(&self, key: &Self::Key, query: &Self::Query) -> f64 {
        let _ = (key, query);
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_picksplit_detection() {
        let no_progress: PickSplit<String, u8> = PickSplit {
            prefix: None,
            partitions: vec![(b'a', vec![0, 1, 2])],
        };
        assert!(no_progress.is_degenerate(3));

        let with_prefix: PickSplit<String, u8> = PickSplit {
            prefix: Some("ab".to_string()),
            partitions: vec![(b'a', vec![0, 1, 2])],
        };
        assert!(
            !with_prefix.is_degenerate(3),
            "consuming a prefix is progress"
        );

        let real_split: PickSplit<String, u8> = PickSplit {
            prefix: None,
            partitions: vec![(b'a', vec![0]), (b'b', vec![1, 2])],
        };
        assert!(!real_split.is_degenerate(3));

        let empty: PickSplit<String, u8> = PickSplit {
            prefix: None,
            partitions: vec![],
        };
        assert!(empty.is_degenerate(0));
    }

    #[test]
    fn park_unassigned_routes_strays_to_the_first_partition() {
        let mut split: PickSplit<String, u8> = PickSplit {
            prefix: None,
            partitions: vec![(b'a', vec![0]), (b'b', vec![2])],
        };
        split.park_unassigned(4);
        assert_eq!(split.partitions[0].1, vec![0, 1, 3]);
        assert_eq!(split.partitions[1].1, vec![2]);
        // Fully-assigned splits are untouched.
        let mut full: PickSplit<String, u8> = PickSplit {
            prefix: None,
            partitions: vec![(b'a', vec![0, 1])],
        };
        full.park_unassigned(2);
        assert_eq!(full.partitions[0].1, vec![0, 1]);
    }

    #[test]
    fn replication_without_separation_detection() {
        // Two partitions each holding every item: no separation happened.
        let stuck: PickSplit<String, u8> = PickSplit {
            prefix: None,
            partitions: vec![(b'a', vec![0, 1, 2]), (b'b', vec![0, 1, 2]), (b'c', vec![])],
        };
        assert!(stuck.replicates_without_separating(3));
        // One full partition is a plain descent chain, not replication.
        let chain: PickSplit<String, u8> = PickSplit {
            prefix: None,
            partitions: vec![(b'a', vec![0, 1, 2]), (b'b', vec![]), (b'c', vec![])],
        };
        assert!(!chain.replicates_without_separating(3));
        // Replication with shrink (items split across partitions) is fine.
        let progress: PickSplit<String, u8> = PickSplit {
            prefix: None,
            partitions: vec![(b'a', vec![0, 1]), (b'b', vec![1, 2])],
        };
        assert!(!progress.replicates_without_separating(3));
    }
}
