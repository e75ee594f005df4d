//! The bulk-build pipeline: `spgistbuild` (paper Section 4).
//!
//! [`SpGistTree::insert`](crate::SpGistTree::insert) grows a tree one key at a time: every key walks
//! from the root, and an overfull data node is decomposed only when the
//! insertion that overfills it arrives — so a page hosting a busy subtree is
//! rewritten over and over as later splits reshape it.  That is the right
//! behavior online, and the wrong algorithm for loading a known data set.
//!
//! [`BulkBuilder`] is the dedicated index-build entry point instead: it takes
//! the *whole* `(key, row)` set, recursively applies
//! [`SpGistOps::picksplit`] to whole partitions top-down, packs data nodes to
//! `BucketSize`, and allocates every node exactly once.  Inner nodes are
//! materialized parent-first with fixed-width placeholder child pointers that
//! are patched in place once the children exist (the same trick the offline
//! repacker uses), so the node→page clustering sees parents before children
//! and subtrees stay physically together.  [`TreeStats`] are accumulated
//! *during* the build — node counts, items, node/page heights — instead of by
//! the usual whole-tree traversal.
//!
//! The build holds its items once.  The caller's `Vec` is the only item
//! buffer: `picksplit` reads a partition where it lies, a disjoint split
//! permutes the partition in place so that each child's items form one
//! contiguous run (in the order the split listed them), the run's keys are
//! cut in place by [`SpGistOps::leaf_key`], and each leaf is encoded straight
//! from its run.  Only a split that puts one item in several partitions (the
//! PMR quadtree's) copies each partition it recurses into.
//!
//! Two deliberate differences from the insertion path:
//!
//! * `SpGistConfig::split_once` (the PMR splitting rule: decompose once per
//!   *insertion*, tolerating temporarily overfull children) is an online
//!   rule; with the full data set in hand the builder decomposes every
//!   partition down to the bucket size, which only tightens the invariant
//!   queries rely on.  A bulk-built PMR quadtree therefore answers the same
//!   queries as an insert-built one from a (usually) shallower, fuller tree.
//!   The one brake: a split that copies the whole input into two or more
//!   partitions ([`PickSplit::replicates_without_separating`] — identical or
//!   heavily overlapping segments past the threshold) ends the key
//!   decomposition, since recursing would multiply replicas without
//!   separating anything.
//! * Wherever keys stop separating a partition (that brake, a degenerate
//!   split, the resolution), `BulkBuilder::build_rows` takes over: one
//!   leaf within the byte budget, row nodes above small leaves past it — the
//!   shape the insert path grows, which calls the same function.
//! * Items that [`SpGistOps::picksplit`] assigns to *no* partition (a PMR
//!   segment outside the world rectangle) are parked in the first partition,
//!   mirroring the `Choose::Descend(vec![0])` fallback of the insert path,
//!   so nothing silently disappears during a build.
//!
//! Classes steer the builder through [`SpGistOps::bulk_prepare`]: the trie
//! sorts keys so sibling runs are contiguous, the kd-tree and point quadtree
//! move a spatial median to the front so the data-driven `picksplit` cuts
//! partitions in half instead of wherever insertion order happened to put
//! the first key.

use spgist_storage::{PageId, StorageResult};

use crate::config::NodeShrink;
use crate::node::{encode_leaf, row_slot, Entry, Node, NodeId, ROW_BITS, ROW_FANOUT};
use crate::ops::{PickSplit, SpGistOps};
use crate::stats::TreeStats;
use crate::store::NodeStore;
use crate::RowId;

/// What lies above the node about to be built: the page to place it near
/// (its parent's, below the root), the root-to-parent path for the
/// page-height statistic, and the node height it will have.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Above {
    pub near: PageId,
    pub parent_page: Option<PageId>,
    pub path_pages: u32,
    pub node_depth: u32,
}

/// One bulk build over an empty tree's node store; created by
/// [`SpGistTree::bulk_build`](crate::SpGistTree::bulk_build), which owns the
/// precondition checks and the root/meta bookkeeping.
pub struct BulkBuilder<'a, O: SpGistOps> {
    ops: &'a O,
    store: &'a NodeStore,
    pub(crate) stats: TreeStats,
}

impl<'a, O: SpGistOps> BulkBuilder<'a, O> {
    pub(crate) fn new(ops: &'a O, store: &'a NodeStore) -> Self {
        BulkBuilder {
            ops,
            store,
            stats: TreeStats::default(),
        }
    }

    /// Builds the whole tree from `items`, preferring pages near `near` for
    /// the root, and returns the root's address.  `items` is the build's one
    /// item buffer: partitioned and cut in place, level by level.
    pub(crate) fn build_root(
        &mut self,
        near: PageId,
        mut items: Vec<(O::Key, RowId)>,
    ) -> StorageResult<NodeId> {
        let ctx = self.ops.root_context();
        let above = Above {
            near,
            parent_page: None,
            path_pages: 0,
            node_depth: 1,
        };
        self.build_partition(above, &mut items, 0, &ctx)
    }

    /// The statistics accumulated while building, completed with the store's
    /// size figures.
    pub(crate) fn finish(self) -> StorageResult<TreeStats> {
        let mut stats = self.stats;
        stats.pages = self.store.page_count() as u64;
        stats.size_bytes = self.store.size_bytes();
        stats.utilization = self.store.utilization()?;
        Ok(stats)
    }

    /// Recursively builds the subtree holding `items`, which the caller
    /// reaches at decomposition depth `level` through traversal context
    /// `ctx`.  `items` is the partition's run of the build's buffer; the
    /// build reorders and cuts it in place.
    fn build_partition(
        &mut self,
        above: Above,
        items: &mut [(O::Key, RowId)],
        level: u32,
        ctx: &O::Context,
    ) -> StorageResult<NodeId> {
        let cfg = self.ops.config();
        if items.len() <= cfg.bucket_size {
            return self.build_leaf(above, items);
        }
        let split = if level >= cfg.resolution {
            None
        } else {
            self.ops.bulk_prepare(items, level, ctx);
            let mut split = self.ops.picksplit(items, level, ctx);
            // A split must never drop items (a PMR segment outside the
            // world rectangle intersects no quadrant): park strays with the
            // insert fallback rule before judging progress.
            split.park_unassigned(items.len());
            // Degenerate splits end the key decomposition.  Beyond the
            // insert path's check, a replicating picksplit (PMR)
            // that copies the *whole* input into two or more partitions has
            // separated nothing — recursing would multiply identical
            // replicas level after level (identical or heavily overlapping
            // segments past the splitting threshold) all the way to the
            // resolution.  The insert path is shielded from this by the
            // once-per-insert PMR rule; the builder stops here instead.
            (!split.is_degenerate(items.len()) && !split.replicates_without_separating(items.len()))
                .then_some(split)
        };
        let Some(split) = split else {
            return self.build_rows(above, items.to_vec(), 0);
        };

        let PickSplit { prefix, partitions } = split;
        let delta = self.ops.descend_levels(prefix.as_ref());
        let mut kept: Vec<(O::Pred, Vec<usize>)> = partitions
            .into_iter()
            .filter(|(_, members)| {
                !(members.is_empty() && cfg.node_shrink == NodeShrink::OmitEmpty)
            })
            .collect();
        // Every item lies in some partition now; when each lies in exactly
        // one, partition k becomes run k of `items`, in its members' order,
        // and only the run sizes are kept.  A replicating split (PMR) copies
        // each partition instead.
        let sizes: Vec<usize> = kept.iter().map(|(_, members)| members.len()).collect();
        let disjoint = sizes.iter().sum::<usize>() == items.len();
        if disjoint {
            assert!(items.len() <= u32::MAX as usize, "order held as u32");
            let mut order = Vec::with_capacity(items.len());
            for (_, members) in &mut kept {
                order.extend(std::mem::take(members).into_iter().map(|i| i as u32));
            }
            permute(items, order);
        }

        // Materialize the inner node first with placeholder child pointers
        // (fixed encoded width, so the in-place patch below cannot change
        // the record size), then build the children near it.
        let placeholder = Node::<O>::Inner {
            prefix: prefix.clone(),
            entries: kept
                .iter()
                .map(|(pred, _)| Entry {
                    pred: pred.clone(),
                    child: NodeId::new(0, 0),
                })
                .collect(),
        };
        let inner_id = self.store.allocate(&placeholder, Some(above.near))?;
        let below = self.note_node(inner_id.page, above);
        self.stats.inner_nodes += 1;

        let mut entries = Vec::with_capacity(kept.len());
        let mut start = 0;
        for ((pred, members), size) in kept.into_iter().zip(sizes) {
            let mut copied: Vec<(O::Key, RowId)>;
            let run = if disjoint {
                start += size;
                &mut items[start - size..start]
            } else {
                copied = members.iter().map(|&idx| items[idx].clone()).collect();
                &mut copied[..]
            };
            run.iter_mut()
                .for_each(|(key, _)| self.ops.leaf_key(key, delta));
            let child_ctx = self.ops.child_context(ctx, prefix.as_ref(), &pred, level);
            let child = self.build_partition(below, run, level + delta, &child_ctx)?;
            entries.push(Entry { pred, child });
        }
        self.store
            .patch(inner_id, &Node::<O>::Inner { prefix, entries })?;
        Ok(inner_id)
    }

    /// Builds the subtree for `items` that keys cannot separate, below row
    /// nodes that consumed `shift` row-id bits: one leaf while it fits the
    /// byte budget, else a row node over [`ROW_FANOUT`] such subtrees.  The
    /// insert path calls this too when a leaf outgrows the budget, so both
    /// grow one shape.
    pub(crate) fn build_rows(
        &mut self,
        above: Above,
        items: Vec<(O::Key, RowId)>,
        shift: u32,
    ) -> StorageResult<NodeId> {
        if !Node::<O>::outgrows_leaf(&items, shift) {
            return self.build_leaf(above, &items);
        }
        let mut children = vec![NodeId::new(0, 0); ROW_FANOUT];
        let placeholder = Node::<O>::Rows {
            shift,
            children: children.clone(),
        };
        let id = self.store.allocate(&placeholder, Some(above.near))?;
        let below = self.note_node(id.page, above);
        self.stats.inner_nodes += 1;
        let mut buckets = vec![Vec::new(); ROW_FANOUT];
        for item in items {
            buckets[row_slot(item.1, shift)].push(item);
        }
        for (child, bucket) in children.iter_mut().zip(buckets) {
            *child = self.build_rows(below, bucket, shift + ROW_BITS)?;
        }
        self.store.patch(id, &Node::<O>::Rows { shift, children })?;
        Ok(id)
    }

    /// Places a leaf encoded straight from `items`, wherever they lie.
    fn build_leaf(&mut self, above: Above, items: &[(O::Key, RowId)]) -> StorageResult<NodeId> {
        self.stats.leaf_nodes += 1;
        self.stats.items += items.len() as u64;
        let mut bytes = Vec::new();
        encode_leaf(items, &mut bytes);
        let id = self.store.place_node(&bytes, Some(above.near))?;
        self.note_node(id.page, above);
        Ok(id)
    }

    /// Records a node placed at `page` into the height statistics and
    /// returns what lies above its children.
    fn note_node(&mut self, page: PageId, above: Above) -> Above {
        let path_pages = crate::tree::path_pages(above.parent_page, above.path_pages, page);
        self.stats.max_node_height = self.stats.max_node_height.max(above.node_depth);
        self.stats.max_page_height = self.stats.max_page_height.max(path_pages);
        Above {
            near: page,
            parent_page: Some(page),
            path_pages,
            node_depth: above.node_depth + 1,
        }
    }
}

/// Moves into position `i` the item `order[i]` names, `order` being a
/// permutation of `0..items.len()`: each cycle is walked once, in O(n) swaps
/// and no second item buffer.
fn permute<T>(items: &mut [T], mut order: Vec<u32>) {
    for start in 0..items.len() {
        let mut at = start;
        while order[at] as usize != start {
            let from = std::mem::replace(&mut order[at], at as u32) as usize;
            items.swap(at, from);
            at = from;
        }
        order[at] = at as u32;
    }
}

impl<O: SpGistOps> std::fmt::Debug for BulkBuilder<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BulkBuilder")
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::permute;

    #[test]
    fn permute_moves_every_item_where_the_order_names_it() {
        let mut items = ['a', 'b', 'c', 'd', 'e'];
        permute(&mut items, vec![2, 0, 3, 1, 4]);
        assert_eq!(items, ['c', 'a', 'd', 'b', 'e']);
        // Every rotation of a longer run, and its reversal: cycles of every
        // length, fixed points included.
        let n = 37u32;
        for shift in 0..n {
            let order: Vec<u32> = (0..n).map(|i| (i + shift) % n).collect();
            let mut items: Vec<u32> = (100..100 + n).collect();
            permute(&mut items, order.clone());
            assert_eq!(items, order.iter().map(|i| 100 + i).collect::<Vec<_>>());
        }
        let mut items: Vec<u32> = (0..n).collect();
        permute(&mut items, (0..n).rev().collect());
        assert_eq!(items, (0..n).rev().collect::<Vec<_>>());
    }
}
