//! The bulk-build pipeline: `spgistbuild` (paper Section 4).
//!
//! [`SpGistTree::insert`](crate::SpGistTree::insert) grows a tree one key at a time: every key walks
//! from the root, and an overfull data node is decomposed only when the
//! insertion that overfills it arrives — so a page hosting a busy subtree is
//! rewritten over and over as later splits reshape it.  That is the right
//! behavior online, and the wrong algorithm for loading a known data set.
//!
//! [`BulkBuilder`] is the dedicated index-build entry point instead: it takes
//! the `(key, row)` set, recursively applies
//! [`SpGistOps::picksplit`] to whole partitions top-down, packs data nodes to
//! `BucketSize`, and emits every node children-first to the placer
//! ([`NodeStore`]'s page groups, the same layout `repack` and the online
//! split get), so each node is written exactly once, with its children's
//! addresses, and subtrees stay physically together.  [`TreeStats`] are
//! accumulated *during* the build — node counts, items, node height, and
//! the page height the placer returns — instead of by the usual whole-tree
//! traversal.
//!
//! The build holds its items once.  The caller's `Vec` is the only item
//! buffer: `picksplit` reads a partition where it lies, a disjoint split
//! permutes the partition in place so that each child's items form one
//! contiguous run (in the order the split listed them), the run's keys are
//! cut in place by [`SpGistOps::leaf_key`], and each leaf is encoded straight
//! from its run.  Only a split that puts one item in several partitions (the
//! PMR quadtree's) copies each partition it recurses into.
//!
//! A class that stores a value as several entries
//! ([`SpGistOps::MULTI_ENTRY`]; the suffix tree's words as their suffixes)
//! is built one root partition of entries at a time, never holding the
//! whole entry set: `BulkBuilder::build_entries` splits the root on a
//! sample, files each entry under its root partition with `choose` (one
//! byte per entry), and builds each child from a pass over the values that
//! makes only that partition's entries.  The root's children then go
//! through the same children-first tail (`BulkBuilder::build_inner`) as
//! every split of a whole-set build, so where the sample splits like the
//! whole set (the trie's) both write the same bytes.
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
//!   mirroring the `Choose::Descend(0)` fallback of the insert path,
//!   so nothing silently disappears during a build.
//!
//! Classes steer the builder through [`SpGistOps::bulk_prepare`]: the trie
//! sorts keys so sibling runs are contiguous, the kd-tree and point quadtree
//! move a spatial median to the front so the data-driven `picksplit` cuts
//! partitions in half instead of wherever insertion order happened to put
//! the first key.

use spgist_storage::StorageResult;

use crate::config::NodeShrink;
use crate::node::{encode_leaf, row_slot, Entry, Node, NodeId, ROW_BITS, ROW_FANOUT};
use crate::ops::{Choose, PickSplit, SpGistOps};
use crate::stats::TreeStats;
use crate::store::{Group, NodeStore, UNPLACED};
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

    /// Builds and places the tree over `items`, the build's one item
    /// buffer, partitioned and cut in place level by level: the root's
    /// address, and the statistics accumulated while building, completed
    /// with the store's size figures.
    pub(crate) fn build(
        mut self,
        mut items: Vec<(O::Key, RowId)>,
    ) -> StorageResult<(NodeId, TreeStats)> {
        let ctx = self.ops.root_context();
        let tree = self.build_partition(&mut items, 0, &ctx, 1)?;
        self.place(tree)
    }

    /// Builds and places the tree over the entries of `values`
    /// ([`SpGistOps::entries`]) one root partition at a time, as
    /// [`BulkBuilder::build`] does over them all.
    ///
    /// One pass over the values splits the root on a sample: `picksplit`
    /// over the entries the split so far could not route — `choose` at the
    /// root filed them under no single partition — which grows until every
    /// entry routes (for the trie: its least and greatest entry and one of
    /// every root partition, the split of the whole set).  The same pass
    /// records each entry's root partition in a byte; entries met before
    /// the split settled route again.  Each child is then built from one
    /// more pass that makes only its partition's entries (skipping the
    /// others with `nth`), sorted as [`SpGistOps::bulk_prepare`] sorts the
    /// whole set.  Where the entries fit one leaf, or the sample's split is
    /// degenerate, not disjoint or wider than a byte, the build makes the
    /// whole set once.
    pub(crate) fn build_entries(
        mut self,
        values: &[(O::Key, RowId)],
    ) -> StorageResult<(NodeId, TreeStats)> {
        const END: u8 = u8::MAX;
        let (ops, ctx) = (self.ops, self.ops.root_context());
        let (mut sample, mut root, mut tags, mut settled) = (Vec::new(), None, Vec::new(), 0);
        for (i, (value, row)) in values.iter().enumerate() {
            for entry in ops.entries(value)? {
                if let Some(part) = route(ops, &root, &entry) {
                    tags.push(part as u8);
                    continue;
                }
                sample.push((entry, *row));
                ops.bulk_prepare(&mut sample, 0, &ctx);
                let split = ops.picksplit(&sample, 0, &ctx);
                let preds = split.partitions.iter().map(|(p, _)| p.clone()).collect();
                (root, settled) = (Some((split, preds)), i + 1);
                tags.push(END);
            }
            tags.push(END);
        }
        let mut at = 0;
        for (value, _) in &values[..settled] {
            for entry in ops.entries(value)? {
                tags[at] = route(ops, &root, &entry).map_or(END, |part| part as u8);
                at += 1;
            }
            at += 1;
        }
        let cfg = ops.config();
        let len = tags.len() - values.len();
        let split = root.map(|(split, _)| split).filter(|split| {
            let assigned: usize = split.partitions.iter().map(|(_, m)| m.len()).sum();
            len > cfg.bucket_size
                && cfg.resolution > 0
                && assigned == sample.len()
                && !split.is_degenerate(sample.len())
                && split.partitions.len() < usize::from(END)
                && tags[..at].iter().filter(|&&t| t == END).count() == settled
        });
        let Some(PickSplit { prefix, partitions }) = split else {
            let mut all = Vec::with_capacity(len);
            for (value, row) in values {
                all.extend(ops.entries(value)?.map(|entry| (entry, *row)));
            }
            return self.build(all);
        };
        let mut sizes = vec![0; partitions.len()];
        for &tag in tags.iter().filter(|&&t| t != END) {
            sizes[usize::from(tag)] += 1;
        }
        let runs = partitions.into_iter().enumerate().map(|(part, (pred, _))| {
            let mut run = Vec::with_capacity(sizes[part]);
            let mut tags = tags.iter();
            for (value, row) in values {
                let (mut entries, mut skip) = (ops.entries(value)?, 0);
                for &tag in tags.by_ref().take_while(|&&t| t != END) {
                    if usize::from(tag) == part {
                        run.extend(entries.nth(skip).map(|entry| (entry, *row)));
                        skip = 0;
                    } else {
                        skip += 1;
                    }
                }
            }
            ops.bulk_prepare(&mut run, 0, &ctx);
            Ok((pred, run))
        });
        let tree = self.build_inner(prefix, runs, 0, &ctx, 1)?;
        self.place(tree)
    }

    /// Hands the built tree to the placer: the root's address, and the
    /// statistics accumulated while building, completed with the store's
    /// size figures.
    fn place(self, tree: Group) -> StorageResult<(NodeId, TreeStats)> {
        let (root, max_page_height) = self.store.place_group(tree, None)?;
        let stats = TreeStats {
            max_page_height,
            pages: self.store.page_count() as u64,
            size_bytes: self.store.size_bytes(),
            utilization: self.store.utilization()?,
            ..self.stats
        };
        Ok((root, stats))
    }

    /// Recursively builds the subtree holding `items`, which the caller
    /// reaches at decomposition depth `level` through traversal context
    /// `ctx`, its root `depth` nodes down the tree, and hands it to the
    /// placer.  `items` is the partition's run of the build's buffer; the
    /// build reorders and cuts it in place.
    fn build_partition(
        &mut self,
        items: &mut [(O::Key, RowId)],
        level: u32,
        ctx: &O::Context,
        depth: u32,
    ) -> StorageResult<Group> {
        let cfg = self.ops.config();
        if items.len() <= cfg.bucket_size {
            return self.build_leaf(items, depth);
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
        let Some(PickSplit {
            prefix,
            mut partitions,
        }) = split
        else {
            return self.build_rows(items.to_vec(), 0, depth);
        };

        // Every item lies in some partition now; when each lies in exactly
        // one, partition k becomes run k of `items`, in its members' order,
        // and only the run sizes are kept.  A replicating split (PMR) copies
        // each partition as its child is built instead.
        let sizes: Vec<usize> = partitions
            .iter()
            .map(|(_, members)| members.len())
            .collect();
        if sizes.iter().sum::<usize>() != items.len() {
            let items = &*items;
            let runs = partitions.into_iter().map(|(pred, members)| {
                let run: Vec<_> = members.iter().map(|&idx| items[idx].clone()).collect();
                Ok((pred, run))
            });
            return self.build_inner(prefix, runs, level, ctx, depth);
        }
        assert!(items.len() <= u32::MAX as usize, "order held as u32");
        let mut order = Vec::with_capacity(items.len());
        for (_, members) in &mut partitions {
            order.extend(std::mem::take(members).into_iter().map(|i| i as u32));
        }
        permute(items, order);
        let mut rest = items;
        let runs = partitions.into_iter().zip(sizes).map(|((pred, _), size)| {
            let (run, tail) = std::mem::take(&mut rest).split_at_mut(size);
            rest = tail;
            Ok((pred, run))
        });
        self.build_inner(prefix, runs, level, ctx, depth)
    }

    /// The children-first tail of a split at `level`: builds each child
    /// from its predicate's run of `runs`, cutting the run's keys to what
    /// the child stores, and hands it to the placer before the inner node
    /// with `prefix` that points at them all.  An empty run gets no entry
    /// under [`NodeShrink::OmitEmpty`].
    fn build_inner<R: AsMut<[(O::Key, RowId)]>>(
        &mut self,
        prefix: Option<O::Prefix>,
        runs: impl Iterator<Item = StorageResult<(O::Pred, R)>>,
        level: u32,
        ctx: &O::Context,
        depth: u32,
    ) -> StorageResult<Group> {
        let omit_empty = self.ops.config().node_shrink == NodeShrink::OmitEmpty;
        let delta = self.ops.descend_levels(prefix.as_ref());
        let (mut entries, mut kids) = (Vec::new(), Vec::new());
        for child in runs {
            let (pred, mut run) = child?;
            let run = run.as_mut();
            if run.is_empty() && omit_empty {
                continue;
            }
            run.iter_mut()
                .for_each(|(key, _)| self.ops.leaf_key(key, delta));
            let child_ctx = self.ops.child_context(ctx, prefix.as_ref(), &pred, level);
            kids.push(self.build_partition(run, level + delta, &child_ctx, depth + 1)?);
            entries.push(Entry {
                pred,
                child: UNPLACED,
            });
        }
        self.stats.inner_nodes += 1;
        self.store
            .group(&Node::<O>::Inner { prefix, entries }, kids)
    }

    /// Builds the subtree for `items` that keys cannot separate, below row
    /// nodes that consumed `shift` row-id bits, its root `depth` nodes down:
    /// one leaf while it fits the byte budget, else a row node over
    /// [`ROW_FANOUT`] such subtrees.  The insert path calls this too when a
    /// leaf outgrows the budget, so both grow one shape.
    pub(crate) fn build_rows(
        &mut self,
        items: Vec<(O::Key, RowId)>,
        shift: u32,
        depth: u32,
    ) -> StorageResult<Group> {
        if !Node::<O>::outgrows_leaf(&items, shift) {
            return self.build_leaf(&items, depth);
        }
        let mut buckets = vec![Vec::new(); ROW_FANOUT];
        for item in items {
            buckets[row_slot(item.1, shift)].push(item);
        }
        let kids = buckets
            .into_iter()
            .map(|bucket| self.build_rows(bucket, shift + ROW_BITS, depth + 1))
            .collect::<StorageResult<_>>()?;
        self.stats.inner_nodes += 1;
        let children = vec![UNPLACED; ROW_FANOUT];
        self.store.group(&Node::<O>::Rows { shift, children }, kids)
    }

    /// A leaf encoded straight from `items`, wherever they lie.
    fn build_leaf(&mut self, items: &[(O::Key, RowId)], depth: u32) -> StorageResult<Group> {
        self.stats.leaf_nodes += 1;
        self.stats.items += items.len() as u64;
        // Leaves end every path.
        self.stats.max_node_height = self.stats.max_node_height.max(depth);
        let mut bytes = Vec::new();
        encode_leaf(items, &mut bytes);
        self.store.join(bytes, &[], Vec::new())
    }
}

/// A root split and its predicates, as `choose` reads them.
type Root<O> = Option<(
    PickSplit<<O as SpGistOps>::Prefix, <O as SpGistOps>::Pred>,
    Vec<<O as SpGistOps>::Pred>,
)>;

/// The one partition of `root` that `choose` files `entry` under, if any.
fn route<O: SpGistOps>(ops: &O, root: &Root<O>, entry: &O::Key) -> Option<usize> {
    let (split, preds) = root.as_ref()?;
    match ops.choose(split.prefix.as_ref(), preds, entry, 0) {
        Choose::Descend(to) => Some(to),
        _ => None,
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
