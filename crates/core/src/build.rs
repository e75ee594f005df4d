//! The bulk-build pipeline: `spgistbuild` (paper Section 4).
//!
//! [`SpGistTree::insert`] grows a tree one key at a time: every key walks
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
//!   heavily overlapping segments past the threshold) ends in an oversized
//!   leaf, since recursing would multiply replicas without separating
//!   anything.
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

use spgist_storage::{PageId, StorageError, StorageResult};

use crate::config::NodeShrink;
use crate::node::{Entry, Node, NodeId};
use crate::ops::{PickSplit, SpGistOps};
use crate::stats::TreeStats;
use crate::store::NodeStore;
use crate::RowId;

/// One bulk build over an empty tree's node store; created by
/// [`SpGistTree::bulk_build`](crate::SpGistTree::bulk_build), which owns the
/// precondition checks and the root/meta bookkeeping.
pub struct BulkBuilder<'a, O: SpGistOps> {
    ops: &'a O,
    store: &'a NodeStore,
    stats: TreeStats,
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
    /// the root, and returns the root's address.
    pub(crate) fn build_root(
        &mut self,
        near: PageId,
        items: Vec<(O::Key, RowId)>,
    ) -> StorageResult<NodeId> {
        let ctx = self.ops.root_context();
        self.build_partition(near, None, 0, 1, items, 0, &ctx)
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
    /// `ctx`.  `parent_page`/`path_pages` track the distinct pages on the
    /// root-to-here path for the page-height statistic; `node_depth` is the
    /// node height of the node about to be created.
    #[allow(clippy::too_many_arguments)]
    fn build_partition(
        &mut self,
        near: PageId,
        parent_page: Option<PageId>,
        path_pages: u32,
        node_depth: u32,
        mut items: Vec<(O::Key, RowId)>,
        level: u32,
        ctx: &O::Context,
    ) -> StorageResult<NodeId> {
        let cfg = self.ops.config();
        let split = if items.len() <= cfg.bucket_size || level >= cfg.resolution {
            None
        } else {
            self.ops.bulk_prepare(&mut items, level, ctx);
            let keys: Vec<O::Key> = items.iter().map(|(k, _)| k.clone()).collect();
            let mut split = self.ops.picksplit(&keys, level, ctx);
            // A split must never drop items (a PMR segment outside the
            // world rectangle intersects no quadrant): park strays with the
            // insert fallback rule before judging progress.
            split.park_unassigned(items.len());
            // Degenerate splits end the recursion with an oversized leaf.
            // Beyond the insert path's check, a replicating picksplit (PMR)
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
            let len = items.len() as u64;
            let id = self
                .store
                .allocate(&Node::<O>::Leaf { items }, Some(near))?;
            self.note_node(id.page, parent_page, path_pages, node_depth);
            self.stats.leaf_nodes += 1;
            self.stats.items += len;
            return Ok(id);
        };

        let PickSplit { prefix, partitions } = split;
        let delta = self.ops.descend_levels(prefix.as_ref());
        let kept: Vec<(O::Pred, Vec<usize>)> = partitions
            .into_iter()
            .filter(|(_, members)| {
                !(members.is_empty() && cfg.node_shrink == NodeShrink::OmitEmpty)
            })
            .collect();

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
        let inner_id = self.store.allocate(&placeholder, Some(near))?;
        let my_path = self.note_node(inner_id.page, parent_page, path_pages, node_depth);
        self.stats.inner_nodes += 1;

        let mut entries = Vec::with_capacity(kept.len());
        for (pred, members) in kept {
            let part_items: Vec<(O::Key, RowId)> =
                members.iter().map(|&idx| items[idx].clone()).collect();
            let child_ctx = self.ops.child_context(ctx, prefix.as_ref(), &pred, level);
            let child = self.build_partition(
                inner_id.page,
                Some(inner_id.page),
                my_path,
                node_depth + 1,
                part_items,
                level + delta,
                &child_ctx,
            )?;
            entries.push(Entry { pred, child });
        }
        let patched = Node::<O>::Inner { prefix, entries };
        if self.store.update(inner_id, &patched, None)?.is_some() {
            return Err(StorageError::Corrupt(
                "bulk-built inner node relocated while patching fixed-width child pointers".into(),
            ));
        }
        Ok(inner_id)
    }

    /// Records a node placed at `page` into the height statistics and
    /// returns the number of distinct pages on the root-to-it path.
    fn note_node(
        &mut self,
        page: PageId,
        parent_page: Option<PageId>,
        path_pages: u32,
        node_depth: u32,
    ) -> u32 {
        let my_path = crate::tree::path_pages(parent_page, path_pages, page);
        self.stats.max_node_height = self.stats.max_node_height.max(node_depth);
        self.stats.max_page_height = self.stats.max_page_height.max(my_path);
        my_path
    }
}

impl<O: SpGistOps> std::fmt::Debug for BulkBuilder<'_, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BulkBuilder")
            .field("stats", &self.stats)
            .finish()
    }
}
