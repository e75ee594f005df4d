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
//! PMR quadtree's) copies each partition it descends into, and drops the
//! copy once that child is built.  The inner nodes whose children are
//! still being built wait on a stack the builder keeps, not on the call
//! stack, so a tree thousands of levels deep builds on any thread.
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
//!   split, the resolution), row ids take over: one leaf within the byte
//!   budget, row nodes above small leaves past it — the shape the insert
//!   path grows, which builds it with the same code
//!   (`BulkBuilder::subtree`).  A leaf past its page that row ids cannot
//!   separate splits by key at any depth, while every part comes out
//!   smaller.
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

use std::ops::Range;

use spgist_storage::StorageResult;

use crate::config::NodeShrink;
use crate::node::{
    encode_leaf, leaf_len_to, row_slot, Entry, Node, NodeId, ROW_BITS, ROW_FANOUT, ROW_SPLIT_BYTES,
};
use crate::ops::{Choose, PickSplit, SpGistOps};
use crate::stats::TreeStats;
use crate::store::{Group, NodeStore, MAX_NODE_BYTES, UNPLACED};
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
    pub(crate) fn build(mut self, items: Items<O>) -> StorageResult<(NodeId, TreeStats)> {
        let tree = self.subtree(items, 0, &self.ops.root_context(), 1, None)?;
        self.place(tree)
    }

    /// Builds the subtree over `items` at decomposition depth `level` and
    /// traversal context `ctx`, its root `depth` nodes down the tree, below
    /// row nodes that consumed `rows` row-id bits (`None` above them all),
    /// and hands it to the placer.  The insert path calls this too: to fan
    /// a leaf out by row id, and to rebuild a leaf that would pass its page,
    /// so both paths grow one shape.
    pub(crate) fn subtree(
        &mut self,
        mut items: Items<O>,
        level: u32,
        ctx: &O::Context,
        depth: u32,
        rows: Option<u32>,
    ) -> StorageResult<Group> {
        let all = 0..items.len();
        match self.partition(&mut items, all, level, ctx.clone(), depth, rows)? {
            Step::Built(tree) => Ok(tree),
            Step::Split(top) => self.build_inner(&mut items, top),
        }
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
        let runs = Runs::Made(Box::new(runs));
        let top = Inner::new(Kind::Key(prefix), runs, (0, ctx.clone(), 1));
        let tree = self.build_inner(&mut [], top)?;
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

    /// What the partition `run` of the build's buffer `items` becomes,
    /// reached at decomposition depth `level` through traversal context
    /// `ctx`, its root `depth` nodes down the tree, below row nodes that
    /// consumed `rows` row-id bits: a leaf, handed to the placer, or an
    /// inner node or a row node whose children [`BulkBuilder::build_inner`]
    /// builds.  A disjoint split and a row fan-out reorder the run in place
    /// so that each child's items are one range of it.
    ///
    /// Keys split a partition past the bucket short of the resolution.
    /// Wherever they stop (a degenerate or replicating split, the
    /// resolution, row nodes above), a leaf past [`ROW_SPLIT_BYTES`] fans
    /// out by row id while rows and bits are left, and the rest is a leaf.
    /// A leaf past its page that row ids cannot separate — every item of
    /// one row, as a long word's suffixes are — splits by key at any depth,
    /// while every part comes out smaller.
    fn partition<'r>(
        &mut self,
        items: &mut [(O::Key, RowId)],
        run: Range<usize>,
        level: u32,
        ctx: O::Context,
        depth: u32,
        rows: Option<u32>,
    ) -> StorageResult<Step<'r, O>> {
        let cfg = self.ops.config();
        let part = &mut items[run.clone()];
        let len = part.len();
        if rows.is_none() && len <= cfg.bucket_size {
            let mut bytes = Vec::new();
            encode_leaf(part, &mut bytes);
            if bytes.len() <= MAX_NODE_BYTES {
                return self.place_leaf(bytes, len, depth).map(Step::Built);
            }
        }
        let short = level < cfg.resolution;
        let by_key = (rows.is_none() && short)
            || part.iter().all(|item| item.1 == part[0].1)
                && leaf_len_to(part, MAX_NODE_BYTES + 1) > MAX_NODE_BYTES;
        if by_key {
            self.ops.bulk_prepare(part, level, &ctx);
            let mut split = self.ops.picksplit(part, level, &ctx);
            // A split must never drop items (a PMR segment outside the
            // world rectangle intersects no quadrant): park strays with the
            // insert fallback rule before judging progress.
            split.park_unassigned(len);
            // Degenerate splits end the key decomposition.  Beyond the
            // insert path's check, a replicating picksplit (PMR) that
            // copies the *whole* input into two or more partitions has
            // separated nothing — recursing would multiply identical
            // replicas level after level (identical or heavily overlapping
            // segments past the splitting threshold) all the way to the
            // resolution.  The insert path is shielded from this by the
            // once-per-insert PMR rule; the builder stops here instead.
            // Past the resolution nothing bounds the depth but the parts
            // shrinking.
            let progress =
                !split.replicates_without_separating(len) && (short || split.shrinks(len));
            if !split.is_degenerate(len) && progress {
                let node = self.split(items, run, split, (level, ctx, depth));
                return Ok(Step::Split(node));
            }
        }
        let shift = rows.unwrap_or(0);
        let over = || leaf_len_to(part, ROW_SPLIT_BYTES + 1);
        if !Node::<O>::outgrows(len, over, shift) {
            let mut bytes = Vec::new();
            encode_leaf(part, &mut bytes);
            return self.place_leaf(bytes, len, depth).map(Step::Built);
        }
        // A row node over ROW_FANOUT children, one range of the run each,
        // the items of each in their order.
        part.sort_by_key(|item| row_slot(item.1, shift));
        let mut sizes = vec![0; ROW_FANOUT];
        part.iter()
            .for_each(|item| sizes[row_slot(item.1, shift)] += 1);
        let runs = lent(run.start, sizes.into_iter().map(|size| (None, size)));
        let node = Inner::new(Kind::Rows(shift), runs, (level, ctx, depth));
        Ok(Step::Split(node))
    }

    /// The inner node of a key split of the partition `run`: a disjoint
    /// split reorders the run so that partition k is range k of it, in its
    /// members' order; a replicating split (PMR) copies each partition as
    /// its child is built instead, and drops the copy once it is built.
    fn split<'r>(
        &self,
        items: &mut [(O::Key, RowId)],
        run: Range<usize>,
        split: PickSplit<O::Prefix, O::Pred>,
        at: (u32, O::Context, u32),
    ) -> Inner<'r, O> {
        let (node, mut partitions) = (Kind::Key(split.prefix), split.partitions);
        let sizes: Vec<usize> = partitions.iter().map(|part| part.1.len()).collect();
        if sizes.iter().sum::<usize>() != run.len() {
            return Inner::new(node, Runs::Copied(run, partitions.into_iter()), at);
        }
        assert!(run.len() <= u32::MAX as usize, "order held as u32");
        let mut order = Vec::with_capacity(run.len());
        for (_, members) in &mut partitions {
            order.extend(std::mem::take(members).into_iter().map(|i| i as u32));
        }
        permute(&mut items[run.clone()], order);
        let parts = partitions.into_iter().zip(sizes);
        let runs = lent(run.start, parts.map(|((pred, _), size)| (Some(pred), size)));
        Inner::new(node, runs, at)
    }

    /// Builds the subtree whose root is the inner or row node `top`,
    /// children first: each child from its run, handed to the placer before
    /// the node that points at them all.  A key split's child has its keys
    /// cut to what it stores, and an empty run gets no entry under
    /// [`NodeShrink::OmitEmpty`]; a row node's children keep level, context
    /// and keys, and every one has a place.  The nodes whose children are
    /// still being built wait on a stack of their own, not the call stack:
    /// a periodic word's suffixes split one level per suffix, a subtree
    /// thousands of levels deep.  Only a child with items of its own (a
    /// replicating split's, a root partition of entries) is built by a call
    /// of its own, a few levels deep at most.
    fn build_inner(
        &mut self,
        items: &mut [(O::Key, RowId)],
        top: Inner<'_, O>,
    ) -> StorageResult<Group> {
        let omit_empty = self.ops.config().node_shrink == NodeShrink::OmitEmpty;
        let mut stack = vec![top];
        while let Some(node) = stack.last_mut() {
            let Some((pred, mut run)) = node.runs.next(items)? else {
                let Inner {
                    node,
                    entries,
                    kids,
                    ..
                } = stack.pop().expect("the node on top");
                self.stats.inner_nodes += 1;
                let node = match node {
                    Kind::Key(prefix) => Node::<O>::Inner { prefix, entries },
                    Kind::Rows(shift) => Node::Rows {
                        shift,
                        children: vec![UNPLACED; ROW_FANOUT],
                    },
                };
                let tree = self.store.group(&node, kids)?;
                match stack.last_mut() {
                    Some(parent) => parent.kids.push(tree),
                    None => return Ok(tree),
                }
                continue;
            };
            let (mut level, mut ctx, depth) = (node.level, node.ctx.clone(), node.depth + 1);
            let rows = match (&node.node, pred) {
                (Kind::Rows(shift), _) => Some(shift + ROW_BITS),
                (Kind::Key(_), _) if run.items(items).is_empty() && omit_empty => continue,
                (Kind::Key(prefix), pred) => {
                    let pred = pred.expect("a key split's child has its predicate");
                    let delta = self.ops.descend_levels(prefix.as_ref());
                    run.items(items)
                        .iter_mut()
                        .for_each(|(key, _)| self.ops.leaf_key(key, delta));
                    ctx = (self.ops).child_context(&ctx, prefix.as_ref(), &pred, level);
                    level += delta;
                    node.entries.push(Entry {
                        pred,
                        child: UNPLACED,
                    });
                    None
                }
            };
            match run {
                Run::Lent(run) => match self.partition(items, run, level, ctx, depth, rows)? {
                    Step::Built(tree) => node.kids.push(tree),
                    Step::Split(child) => stack.push(child),
                },
                Run::Owned(run) => {
                    let tree = self.subtree(run, level, &ctx, depth, rows)?;
                    node.kids.push(tree);
                }
            }
        }
        unreachable!("the last node built returns its tree")
    }

    /// Hands the placer a leaf of `len` items encoded as `bytes`.
    fn place_leaf(&mut self, bytes: Vec<u8>, len: usize, depth: u32) -> StorageResult<Group> {
        self.stats.leaf_nodes += 1;
        self.stats.items += len as u64;
        // Leaves end every path.
        self.stats.max_node_height = self.stats.max_node_height.max(depth);
        self.store.join(bytes, &[], Vec::new())
    }
}

/// What one partition of a build becomes.
enum Step<'r, O: SpGistOps> {
    /// A leaf handed to the placer.
    Built(Group),
    /// An inner or row node whose children are still to build.
    Split(Inner<'r, O>),
}

/// A node of a build over children: an inner node with its prefix, or a
/// row node with the first row-id bit it consumes.
enum Kind<P> {
    Key(Option<P>),
    Rows(u32),
}

/// A node of a build whose children are not all built: what it is, where
/// it sits, the children built so far with their entries, and the runs of
/// the build's buffer the rest are built from.
struct Inner<'r, O: SpGistOps> {
    node: Kind<O::Prefix>,
    runs: Runs<'r, O>,
    level: u32,
    ctx: O::Context,
    depth: u32,
    entries: Vec<Entry<O::Pred>>,
    kids: Vec<Group>,
}

impl<'r, O: SpGistOps> Inner<'r, O> {
    /// A node at `(level, ctx, depth)` whose children are `runs`.
    fn new(
        node: Kind<O::Prefix>,
        runs: Runs<'r, O>,
        (level, ctx, depth): (u32, O::Context, u32),
    ) -> Self {
        Inner {
            node,
            runs,
            level,
            ctx,
            depth,
            entries: Vec::new(),
            kids: Vec::new(),
        }
    }
}

/// The runs of consecutive ranges of the buffer from `start`, one per
/// `(predicate, size)` of `parts`.
fn lent<'r, O: SpGistOps>(
    mut start: usize,
    parts: impl Iterator<Item = (Option<O::Pred>, usize)>,
) -> Runs<'r, O> {
    let ranges = parts.map(|(pred, size)| {
        start += size;
        (pred, start - size..start)
    });
    Runs::Lent(ranges.collect::<Vec<_>>().into_iter())
}

/// A build's items, its one buffer or a partition made apart.
type Items<O> = Vec<(<O as SpGistOps>::Key, RowId)>;

/// A root partition of a multi-entry build: its predicate and its entries.
type Made<O> = StorageResult<(<O as SpGistOps>::Pred, Items<O>)>;

/// The items of a child still to build: a range of the build's buffer, or
/// items of its own.
enum Run<O: SpGistOps> {
    Lent(Range<usize>),
    Owned(Items<O>),
}

impl<O: SpGistOps> Run<O> {
    fn items<'s>(&'s mut self, buffer: &'s mut [(O::Key, RowId)]) -> &'s mut [(O::Key, RowId)] {
        match self {
            Run::Lent(range) => &mut buffer[range.clone()],
            Run::Owned(items) => items,
        }
    }
}

/// A child still to build: a key split's predicate (none under a row
/// node), and its items.
type Child<O> = (Option<<O as SpGistOps>::Pred>, Run<O>);

/// The children of a node still to build.
enum Runs<'r, O: SpGistOps> {
    /// A disjoint split or a row fan-out: each run is a range of the
    /// partition, which was reordered in place.
    Lent(std::vec::IntoIter<(Option<O::Pred>, Range<usize>)>),
    /// A replicating split of the partition at the range: each child's
    /// members are copied as the child starts.
    Copied(Range<usize>, std::vec::IntoIter<(O::Pred, Vec<usize>)>),
    /// The root partitions of a multi-entry build, each made when its child
    /// starts.
    Made(Box<dyn Iterator<Item = Made<O>> + 'r>),
}

impl<O: SpGistOps> Runs<'_, O> {
    /// The next child's predicate and items, read from `buffer`.
    fn next(&mut self, buffer: &[(O::Key, RowId)]) -> StorageResult<Option<Child<O>>> {
        Ok(match self {
            Runs::Lent(ranges) => ranges.next().map(|(pred, range)| (pred, Run::Lent(range))),
            Runs::Copied(from, parts) => parts.next().map(|(pred, members)| {
                let copy = members.iter().map(|&i| buffer[from.start + i].clone());
                (Some(pred), Run::Owned(copy.collect()))
            }),
            Runs::Made(runs) => runs
                .next()
                .transpose()?
                .map(|(pred, run)| (Some(pred), Run::Owned(run))),
        })
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
