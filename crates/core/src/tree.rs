//! The SP-GiST internal methods: generalized insert, search and delete.
//!
//! These methods are "the core of SP-GiST and are the same for all
//! SP-GiST-based indexes" (paper Section 3.1).  They are parameterized by an
//! [`SpGistOps`] implementation — the external methods a developer writes —
//! and by the [`SpGistConfig`](crate::SpGistConfig) interface parameters.
//! All node reads and writes go through [`NodeStore`], which performs the
//! node→page clustering.
//!
//! # Concurrency model
//!
//! The tree is shared: every operation takes `&self`.
//!
//! *Writers* (inserts) crab per-page latches root-to-leaf: a descent holds at
//! most the current node's page latch and its parent's, releasing the
//! ancestor as soon as the child is latched.  Latches are try-acquired; on
//! contention the writer releases everything, backs off briefly and restarts
//! from the root, so there is no hold-and-wait and hence no deadlock.
//! Writers on disjoint subtrees proceed in parallel.  Structure-changing
//! operations that need a global view (delete, repack, bulk build) take the
//! `write_gate` exclusively, which only excludes *other writers* — readers
//! are never blocked.
//!
//! *Readers* (search, NN, stats, cursors) take no latches at all.  They pin
//! a reclamation epoch before capturing the root; every record they can
//! reach from that root stays readable because writers retire superseded
//! records into the epoch garbage list instead of freeing them in place.
//! Retired records are physically reclaimed only after the last pin from an
//! earlier epoch drops.  Readers are *snapshot-ish*: the tree they traverse
//! is always a valid tree, but a long scan may observe some effects of
//! writes that committed after it started.
//!
//! Readers evaluate the external methods on the page bytes in place
//! ([`crate::node::walk`]); a search cursor expands every node its stack
//! offers next on the same page under one buffer pin, and drops the pin
//! before it yields, so a suspended cursor holds no page.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use spgist_storage::{
    AccessHint, BufferPool, Codec, ConcurrencyStats, EpochPin, LatchSet, LatchTable, PageId,
    StorageError, StorageResult,
};

use crate::build::{Above, BulkBuilder};
use crate::config::NodeShrink;
use crate::nn::NnIter;
use crate::node::{row_slot, walk, Entry, Node, NodeId, Part, Slots, ROW_BITS};
use crate::ops::{Choose, PickSplit, SpGistOps};
use crate::stats::TreeStats;
use crate::store::{node_in, NodeStore};
use crate::RowId;

/// Where a delete found an item: its leaf, its index there, and the leaf's
/// parent entry.
type Located = (NodeId, usize, Option<(NodeId, usize)>);

/// Pairs [`SpGistTree::insert_all`] inserts per hold of the write gate, meta
/// write and reclamation pass: a statement's worth (a word's suffixes), few
/// enough that the retired records a batch cannot yet reuse stay a handful.
const INSERT_CHUNK: usize = 32;

/// Outcome of one latched descent attempt.
enum Descent {
    /// The item was inserted; commit the count and finish.
    Done,
    /// A latch was contended (or the tree was restructured underneath us);
    /// all latches were released — retry from the root.
    Restart,
}

/// A disk-based space-partitioning tree, generalized over its external
/// methods `O`.
pub struct SpGistTree<O: SpGistOps> {
    ops: O,
    store: NodeStore,
    meta_page: PageId,
    /// The root pointer, packed so readers load it with one atomic read and
    /// writers flip it with one atomic store (under `meta_lock`).
    root_cell: AtomicU64,
    item_count: AtomicU64,
    /// The planner's page-height hint: a high-water mark of the pages on any
    /// root-to-leaf path, kept current by writers; 0 = not yet measured (see
    /// [`SpGistTree::planner_stats`]).  Not persisted.
    page_height: AtomicU32,
    /// Serializes root-pointer flips, count updates and meta-page writes.
    meta_lock: Mutex<()>,
    /// Per-page writer latches for crabbing descents.
    latches: LatchTable,
    /// Inserts take this shared; delete/repack/bulk_build take it exclusive.
    /// Readers never touch it.
    write_gate: RwLock<()>,
}

/// Packs an optional root address into one word: bit 63 is the presence
/// flag, bits 16..48 the page, bits 0..16 the slot.
fn pack_root(root: Option<NodeId>) -> u64 {
    match root {
        None => 0,
        Some(id) => (1 << 63) | (u64::from(id.page) << 16) | u64::from(id.slot),
    }
}

fn unpack_root(cell: u64) -> Option<NodeId> {
    if cell & (1 << 63) == 0 {
        None
    } else {
        Some(NodeId::new((cell >> 16) as u32, cell as u16))
    }
}

/// Pages on the root-to-node path of a node placed on `page`, whose parent
/// sits on `parent_page` at the end of a path of `parent_pages` pages
/// (`None` and 0 at the root): the page-height rule, written once for the
/// bulk builder, the statistics walk and the insert descent.
pub(crate) fn path_pages(parent_page: Option<PageId>, parent_pages: u32, page: PageId) -> u32 {
    parent_pages + u32::from(parent_page != Some(page))
}

impl<O: SpGistOps> SpGistTree<O> {
    /// Creates a new, empty tree whose pages are allocated from `pool`.
    pub fn create(pool: Arc<BufferPool>, ops: O) -> StorageResult<Self> {
        let store = NodeStore::new(Arc::clone(&pool));
        let meta_page = pool.allocate_page()?;
        // Reserve slot 0 of the meta page for the tree descriptor.
        pool.with_page_mut(meta_page, |p| p.insert(&encode_meta(None, 0)))??;
        Ok(SpGistTree {
            ops,
            store,
            meta_page,
            root_cell: AtomicU64::new(pack_root(None)),
            item_count: AtomicU64::new(0),
            page_height: AtomicU32::new(0),
            meta_lock: Mutex::new(()),
            latches: LatchTable::new(),
            write_gate: RwLock::new(()),
        })
    }

    /// Re-opens a tree previously created on `pool` (or on the file behind
    /// it) from its meta page and its page-ownership list
    /// ([`SpGistTree::owned_pages`] before the restart).  The reopened tree
    /// knows every page it owns, so [`SpGistTree::stats`] reports true
    /// sizes, [`SpGistTree::repack`] recycles the old layout, and
    /// [`SpGistTree::destroy`] frees everything — identical to a tree built
    /// in this session.  Page ids are bounds-checked against the pool so a
    /// truncated file fails with [`StorageError::Corrupt`] here.
    pub fn open(
        pool: Arc<BufferPool>,
        ops: O,
        meta_page: PageId,
        pages: Vec<PageId>,
    ) -> StorageResult<Self> {
        let allocated = pool.page_count();
        if let Some(&bad) = pages.iter().find(|&&p| p >= allocated) {
            return Err(StorageError::Corrupt(format!(
                "tree page list names page {bad} beyond the {allocated} allocated pages"
            )));
        }
        let store = NodeStore::with_pages(Arc::clone(&pool), pages);
        let bytes = pool.with_page(meta_page, |p| p.get(0).map(<[u8]>::to_vec))??;
        let (root, item_count) = decode_meta(&bytes)?;
        Ok(SpGistTree {
            ops,
            store,
            meta_page,
            root_cell: AtomicU64::new(pack_root(root)),
            item_count: AtomicU64::new(item_count),
            page_height: AtomicU32::new(0),
            meta_lock: Mutex::new(()),
            latches: LatchTable::new(),
            write_gate: RwLock::new(()),
        })
    }

    /// The pages owned by this tree's node store, in allocation order.
    /// Persist them alongside [`SpGistTree::meta_page`] and hand both back
    /// to [`SpGistTree::open`] to reopen the tree.
    pub fn owned_pages(&self) -> Vec<PageId> {
        self.store.pages()
    }

    /// The meta page identifying this tree.
    pub fn meta_page(&self) -> PageId {
        self.meta_page
    }

    /// The external methods of this instantiation.
    pub fn ops(&self) -> &O {
        &self.ops
    }

    /// The buffer pool used by this tree.
    pub fn pool(&self) -> &Arc<BufferPool> {
        self.store.pool()
    }

    /// Number of items stored in the tree.
    pub fn len(&self) -> u64 {
        self.item_count.load(Ordering::Relaxed)
    }

    /// True if the tree holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Latch and epoch counters for this tree: latch acquisitions and waits
    /// from its crabbing writers, plus epoch pins, pin durations and the
    /// retired-record backlog from its node store.  Counters are cumulative;
    /// diff two snapshots with [`ConcurrencyStats::delta_since`].
    pub fn concurrency_stats(&self) -> ConcurrencyStats {
        let mut stats = self.store.epochs().stats();
        self.latches.stats_into(&mut stats);
        stats
    }

    // ------------------------------------------------------------------
    // Insert
    // ------------------------------------------------------------------

    /// Inserts `(key, row)` into the tree.
    ///
    /// Inserts crab page latches down the tree and run in parallel with
    /// other inserts (and with all readers); on latch contention the descent
    /// restarts from the root.
    pub fn insert(&self, key: O::Key, row: RowId) -> StorageResult<()> {
        self.insert_all([(key, row)])
    }

    /// Inserts every `(key, row)` pair from an iterator, one descent per
    /// pair from the root — the reference insert loop the equivalence tests
    /// compare [`SpGistTree::bulk_build`] against, and the statement form of
    /// [`SpGistTree::insert`]: the write gate is taken, the item count
    /// persisted and retired records reclaimed once per `INSERT_CHUNK` (32)
    /// pairs (the suffix tree inserts a word's suffixes this way) — not once
    /// per call, so a long batch neither starves deleters of the gate nor
    /// piles up retired records it could have reused.  On an error the pairs
    /// already inserted stay, and stay counted.
    pub fn insert_all<I>(&self, items: I) -> StorageResult<()>
    where
        I: IntoIterator<Item = (O::Key, RowId)>,
    {
        let mut items = items.into_iter().peekable();
        while items.peek().is_some() {
            let _gate = self.write_gate.read();
            let mut inserted = 0;
            let mut chunk = items.by_ref().take(INSERT_CHUNK);
            let result =
                chunk.try_for_each(|(key, row)| self.insert_one(&key, row).map(|()| inserted += 1));
            {
                let _meta = self.meta_lock.lock();
                self.item_count.fetch_add(inserted, Ordering::Relaxed);
                self.write_meta_locked()?;
            }
            result?;
            // Opportunistically reclaim records retired past the oldest reader.
            self.store.reclaim()?;
        }
        Ok(())
    }

    /// One uncounted insert; the caller holds the write gate shared.
    fn insert_one(&self, key: &O::Key, row: RowId) -> StorageResult<()> {
        loop {
            let mut latches = LatchSet::new(&self.latches);
            match self.root() {
                None => {
                    // Serialize root creation on the meta page's latch.
                    if !latches.acquire(self.meta_page) {
                        continue;
                    }
                    if self.root().is_some() {
                        continue; // another writer created the root first
                    }
                    let leaf = Node::<O>::Leaf {
                        items: vec![(key.clone(), row)],
                    };
                    let id = self.store.allocate(&leaf, Some(self.meta_page))?;
                    // In memory only: the caller's one meta write persists the
                    // root together with the count.
                    let _meta = self.meta_lock.lock();
                    self.set_root(Some(id));
                    self.page_height.store(1, Ordering::Relaxed);
                    return Ok(());
                }
                Some(root) => {
                    if !latches.acquire(root.page) {
                        continue;
                    }
                    // Re-check under the latch: the root we captured may have
                    // been relocated before we latched its page.
                    if self.root() != Some(root) {
                        continue;
                    }
                    let ctx = self.ops.root_context();
                    if let Descent::Done =
                        self.insert_at(root, None, 0, 0, None, key, row, &ctx, &mut latches)?
                    {
                        return Ok(());
                    }
                }
            }
        }
    }

    /// Builds the whole tree from `items` in one pass — the paper's
    /// `spgistbuild` entry point (Section 4).
    ///
    /// The [`BulkBuilder`] recursively applies [`SpGistOps::picksplit`] to
    /// whole partitions top-down, packs leaves to `BucketSize`, allocates
    /// and writes each node exactly once (inner nodes parent-first, their
    /// fixed-width child pointers patched in place), and accumulates the
    /// returned [`TreeStats`] during the build instead of by a traversal.
    /// Classes steer it through [`SpGistOps::bulk_prepare`].
    ///
    /// The tree must be empty; loading into a populated tree is an
    /// [`StorageError::Unsupported`] error.  An empty `items` set is a
    /// no-op.  Query results are identical to inserting the same items with
    /// the insert loop (the tree *shape* may differ — and usually improves:
    /// data-driven classes split on medians, split-once classes decompose
    /// fully).
    ///
    /// [`BulkBuilder`]: crate::build::BulkBuilder
    pub fn bulk_build(&self, items: Vec<(O::Key, RowId)>) -> StorageResult<TreeStats> {
        let _gate = self.write_gate.write();
        if self.root().is_some() || !self.is_empty() {
            return Err(StorageError::Unsupported(
                "bulk_build requires an empty tree; use insert for incremental loads".into(),
            ));
        }
        if items.is_empty() {
            return self.stats();
        }
        let logical = items.len() as u64;
        let meta = self.meta_page;
        // The build writes each page roughly once, front to back — a scan
        // pattern.  Hint the pool so loading one index does not flush every
        // other tree's hot pages; point operations restore Normal below.
        self.store.set_access_hint(AccessHint::Scan);
        let result: StorageResult<_> = (|| {
            let mut builder = BulkBuilder::new(&self.ops, &self.store);
            let root = builder.build_root(meta, items)?;
            let stats = builder.finish()?;
            Ok((root, stats))
        })();
        self.store.set_access_hint(AccessHint::Normal);
        let (root, stats) = result?;
        {
            let _meta = self.meta_lock.lock();
            self.set_root(Some(root));
            self.item_count.store(logical, Ordering::Relaxed);
            self.page_height
                .store(stats.max_page_height, Ordering::Relaxed);
            self.write_meta_locked()?;
        }
        Ok(stats)
    }

    /// One latched descent step.  Invariant on entry: `latches` holds the
    /// parent's page (when `parent` is `Some`) and `node_id`'s page, so this
    /// node cannot be modified or relocated by another writer while we work
    /// on it, and its parent pointer can be patched if *we* relocate it.
    /// `parent_pages` is the number of pages on the root-to-parent path (0 at
    /// the root); it feeds the page-height hint wherever this insert can
    /// lengthen a path.  `rows` is the number of row-id bits consumed by the
    /// row nodes above, `None` above them all.
    #[allow(clippy::too_many_arguments)]
    fn insert_at(
        &self,
        node_id: NodeId,
        parent: Option<(NodeId, usize)>,
        parent_pages: u32,
        level: u32,
        rows: Option<u32>,
        key: &O::Key,
        row: RowId,
        ctx: &O::Context,
        latches: &mut LatchSet<'_>,
    ) -> StorageResult<Descent> {
        let node: Node<O> = self.store.read(node_id)?;
        let parent_page = parent.map(|(p, _)| p.page);
        match node {
            Node::Leaf { mut items } => {
                let cfg = self.ops.config();
                items.push((key.clone(), row));
                // Keys have a say only above row nodes and past the bucket.
                let overfull = rows.is_none() && items.len() > cfg.bucket_size;
                if overfull && level < cfg.resolution {
                    // The data node is overfull: decompose it with PickSplit.
                    let keys: Vec<O::Key> = items.iter().map(|(k, _)| k.clone()).collect();
                    let split = self.ops.picksplit(&keys, level, ctx);
                    if !split.is_degenerate(items.len()) {
                        // The replacement subtree is built in fresh, unlinked
                        // records (invisible to every other thread) and
                        // becomes reachable in one write of the old leaf's
                        // record.
                        let inner = self.build_split(node_id.page, &items, split, level, ctx)?;
                        let at = self.write_node(node_id, &inner, parent)?;
                        let mut built = TreeStats::default();
                        self.note_height(self.walk(at, parent_page, parent_pages, &mut built)?);
                        return Ok(Descent::Done);
                    }
                }
                // Where no key decomposition is possible (all keys identical,
                // resolution exhausted, or already below a row node) a leaf
                // past the byte budget fans out by row id instead, built like
                // a split: fresh records, published by one pointer swing.
                let shift = rows.unwrap_or(0);
                if (overfull || rows.is_some()) && Node::<O>::outgrows_leaf(&items, shift) {
                    let mut builder = BulkBuilder::new(&self.ops, &self.store);
                    let above = Above {
                        near: node_id.page,
                        parent_page,
                        path_pages: parent_pages,
                        node_depth: 1,
                    };
                    let fan = builder.build_rows(above, items, shift)?;
                    self.relink(node_id, fan, parent)?;
                    self.note_height(builder.stats.max_page_height);
                } else {
                    let at = self.write_node(node_id, &Node::Leaf { items }, parent)?;
                    self.note_height(path_pages(parent_page, parent_pages, at.page));
                }
                Ok(Descent::Done)
            }
            Node::Rows { shift, children } => {
                // Follow the row to its one small leaf, crabbing like a
                // single-entry descent; level and context pass through.
                latches.retain(&[node_id.page]);
                let idx = row_slot(row, shift);
                let child = children[idx];
                if !latches.acquire(child.page) {
                    return Ok(Descent::Restart);
                }
                let pages = path_pages(parent_page, parent_pages, node_id.page);
                let below = Some(shift + ROW_BITS);
                let at = Some((node_id, idx));
                self.insert_at(child, at, pages, level, below, key, row, ctx, latches)
            }
            Node::Inner { prefix, entries } => {
                let preds: Vec<O::Pred> = entries.iter().map(|e| e.pred.clone()).collect();
                match self.ops.choose(prefix.as_ref(), &preds, key, level) {
                    Choose::Descend(indices) => {
                        let delta = self.ops.descend_levels(prefix.as_ref());
                        // Crab step: this node is where the descent continues,
                        // so no ancestor can be affected anymore — release
                        // them and let writers in other subtrees through.  A
                        // multi-way descend (replicating PMR inserts) keeps
                        // this node protected across its sub-descents, whose
                        // own crab steps would otherwise release it.
                        let multi = indices.len() > 1;
                        if multi {
                            latches.protect(node_id.page);
                        }
                        latches.retain(&[node_id.page]);
                        let mut outcome = Descent::Done;
                        for idx in indices {
                            // Re-read the node: a child relocation during a
                            // previous iteration rewrites our child pointers.
                            let fresh: Node<O> = self.store.read(node_id)?;
                            let Node::Inner {
                                entries: fresh_entries,
                                ..
                            } = fresh
                            else {
                                return Err(StorageError::Corrupt(
                                    "inner node changed kind during insert".into(),
                                ));
                            };
                            let entry = fresh_entries.get(idx).ok_or_else(|| {
                                StorageError::Corrupt(format!(
                                    "choose returned entry {idx} of {}",
                                    fresh_entries.len()
                                ))
                            })?;
                            let child = entry.child;
                            let child_ctx =
                                self.ops
                                    .child_context(ctx, prefix.as_ref(), &entry.pred, level);
                            // Latch the child while still holding this node:
                            // the child pointer we read stays valid until the
                            // child is latched (relocating it requires *our*
                            // latch).
                            if !latches.acquire(child.page) {
                                outcome = Descent::Restart;
                                break;
                            }
                            let descent = self.insert_at(
                                child,
                                Some((node_id, idx)),
                                path_pages(parent_page, parent_pages, node_id.page),
                                level + delta,
                                None,
                                key,
                                row,
                                &child_ctx,
                                latches,
                            )?;
                            if multi {
                                latches.retain(&[node_id.page]);
                            }
                            if matches!(descent, Descent::Restart) {
                                // A restart mid-multi-descend re-runs the whole
                                // insert; partitions already handled may end up
                                // with an extra replica, which replicating
                                // classes tolerate (cursors deduplicate by row
                                // and delete_replicated removes every copy).
                                outcome = Descent::Restart;
                                break;
                            }
                        }
                        if multi {
                            latches.unprotect(node_id.page);
                        }
                        Ok(outcome)
                    }
                    Choose::AddEntry(pred) => {
                        let leaf = Node::<O>::Leaf {
                            items: vec![(key.clone(), row)],
                        };
                        let child = self.store.allocate(&leaf, Some(node_id.page))?;
                        let mut entries = entries;
                        entries.push(Entry { pred, child });
                        let at =
                            self.write_node(node_id, &Node::Inner { prefix, entries }, parent)?;
                        let pages = path_pages(parent_page, parent_pages, at.page);
                        self.note_height(pages + u32::from(child.page != at.page));
                        Ok(Descent::Done)
                    }
                    Choose::SplitPrefix {
                        upper_prefix,
                        lower_pred,
                        lower_prefix,
                    } => {
                        // The existing node keeps its content but moves one
                        // level down; a new upper node takes its place (and
                        // usually its NodeId, so the parent pointer stays
                        // valid).
                        let lower = Node::<O>::Inner {
                            prefix: lower_prefix,
                            entries,
                        };
                        let lower_id = self.store.allocate(&lower, Some(node_id.page))?;
                        let upper = Node::<O>::Inner {
                            prefix: upper_prefix,
                            entries: vec![Entry {
                                pred: lower_pred,
                                child: lower_id,
                            }],
                        };
                        let current = self.write_node(node_id, &upper, parent)?;
                        // The restructure is complete and consistent; if the
                        // relocated upper node's page cannot be latched, a
                        // plain restart retries the insert against it.
                        if !latches.acquire(current.page) {
                            return Ok(Descent::Restart);
                        }
                        // Retry the insertion at the restructured node.
                        self.insert_at(
                            current,
                            parent,
                            parent_pages,
                            level,
                            None,
                            key,
                            row,
                            ctx,
                            latches,
                        )
                    }
                }
            }
        }
    }

    /// Builds the inner node replacing an overfull leaf, materializing all
    /// partitions produced by PickSplit (recursively when a partition itself
    /// exceeds the bucket size, unless the instantiation uses the
    /// split-once / PMR rule).
    fn build_split(
        &self,
        near: PageId,
        items: &[(O::Key, RowId)],
        split: PickSplit<O::Prefix, O::Pred>,
        level: u32,
        ctx: &O::Context,
    ) -> StorageResult<Node<O>> {
        let cfg = self.ops.config();
        let mut split = split;
        // A split must never drop items (a PMR segment outside the world
        // rectangle intersects no quadrant): park strays with the insert
        // fallback rule.
        split.park_unassigned(items.len());
        let PickSplit { prefix, partitions } = split;
        let delta = self.ops.descend_levels(prefix.as_ref());
        let mut entries = Vec::with_capacity(partitions.len());
        for (pred, indices) in partitions {
            if indices.is_empty() && cfg.node_shrink == NodeShrink::OmitEmpty {
                continue;
            }
            let part_items: Vec<(O::Key, RowId)> =
                indices.iter().map(|&i| items[i].clone()).collect();
            let child_ctx = self.ops.child_context(ctx, prefix.as_ref(), &pred, level);
            let child = self.build_subtree(near, part_items, level + delta, &child_ctx)?;
            entries.push(Entry { pred, child });
        }
        Ok(Node::Inner { prefix, entries })
    }

    fn build_subtree(
        &self,
        near: PageId,
        items: Vec<(O::Key, RowId)>,
        level: u32,
        ctx: &O::Context,
    ) -> StorageResult<NodeId> {
        let cfg = self.ops.config();
        if items.len() <= cfg.bucket_size || level >= cfg.resolution || cfg.split_once {
            return self.store.allocate(&Node::<O>::Leaf { items }, Some(near));
        }
        let keys: Vec<O::Key> = items.iter().map(|(k, _)| k.clone()).collect();
        let split = self.ops.picksplit(&keys, level, ctx);
        if split.is_degenerate(items.len()) {
            return self.store.allocate(&Node::<O>::Leaf { items }, Some(near));
        }
        let inner = self.build_split(near, &items, split, level, ctx)?;
        self.store.allocate(&inner, Some(near))
    }

    /// Writes `node` at `node_id`, relocating it copy-on-write if it no
    /// longer fits in its page and fixing the parent (or root) pointer.
    /// Returns the node's current address.
    ///
    /// The caller must hold the page latches for `node_id` and the parent
    /// (insert descents do; gate-exclusive paths hold the whole tree).
    fn write_node(
        &self,
        node_id: NodeId,
        node: &Node<O>,
        parent: Option<(NodeId, usize)>,
    ) -> StorageResult<NodeId> {
        let near = parent.map(|(p, _)| p.page).unwrap_or(node_id.page);
        match self.store.update(node_id, node, Some(near))? {
            None => Ok(node_id),
            Some(new_id) => {
                self.relink(node_id, new_id, parent)?;
                Ok(new_id)
            }
        }
    }

    /// Swings the pointer to `old` (entry `parent.1` of `parent.0`, or the
    /// root) over to `new` and retires `old` — only *after* the pointer
    /// flips, so a reader pinned at any moment sees either the old record
    /// (still intact) or the new one, never a dangling pointer.
    fn relink(
        &self,
        old: NodeId,
        new: NodeId,
        parent: Option<(NodeId, usize)>,
    ) -> StorageResult<()> {
        match parent {
            None => {
                let _meta = self.meta_lock.lock();
                self.set_root(Some(new));
                self.write_meta_locked()?;
            }
            Some((parent_id, entry_idx)) => {
                let mut parent_node: Node<O> = self.store.read(parent_id)?;
                **parent_node
                    .children_mut()
                    .get_mut(entry_idx)
                    .ok_or_else(|| StorageError::Corrupt("parent entry out of range".into()))? =
                    new;
                self.store.patch(parent_id, &parent_node)?;
            }
        }
        self.store.retire_node(old)
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// Returns every `(key, row)` item satisfying `query`.
    ///
    /// Spatial instantiations that replicate objects across partitions (the
    /// PMR quadtree) may report the same row id more than once; their
    /// index-level wrappers deduplicate.
    pub fn search(&self, query: &O::Query) -> StorageResult<Vec<(O::Key, RowId)>> {
        self.search_cursor(query.clone()).collect()
    }

    /// Incremental search: returns a pull-based cursor yielding every
    /// matching `(key, row)` item.
    ///
    /// This is the streaming counterpart of [`SpGistTree::search`]: the
    /// traversal advances only as far as the caller pulls, so an executor can
    /// stop early (`LIMIT`-style) without paying for the full result set.
    /// Items are yielded in the same order `search` returns them.
    ///
    /// The cursor takes no latches — it pins a reclamation epoch for its
    /// lifetime, so concurrent writers proceed and the records it can reach
    /// stay readable.  Keep cursors reasonably short-lived: the pinned epoch
    /// delays physical reclamation of records retired after it opened.
    ///
    /// The cursor borrows the tree; to stream through an owning handle
    /// (an `Arc`, say), build it from that handle with
    /// [`SearchCursor::over`].
    pub fn search_cursor(&self, query: O::Query) -> SearchCursor<&Self, O> {
        SearchCursor::over(self, query)
    }

    /// Incremental nearest-neighbour search (paper Section 5): returns an
    /// iterator yielding items in non-decreasing distance from `query`.
    ///
    /// Like [`SpGistTree::search_cursor`], the iterator pins a reclamation
    /// epoch instead of latching; it borrows the tree, and [`NnIter::over`]
    /// builds one from an owning handle instead.
    pub fn nn_iter(&self, query: O::Query) -> NnIter<&Self, O> {
        NnIter::over(self, query)
    }

    /// Convenience wrapper: the `k` nearest items to `query`.
    pub fn nn_search(&self, query: O::Query, k: usize) -> StorageResult<Vec<(O::Key, RowId, f64)>> {
        self.nn_iter(query).take(k).collect()
    }

    // ------------------------------------------------------------------
    // Delete
    // ------------------------------------------------------------------

    /// Deletes the item `(key, row)`.  Returns `true` if an item was removed.
    pub fn delete(&self, key: &O::Key, row: RowId) -> StorageResult<bool> {
        self.delete_items(&[(key, row)], false)
    }

    /// Deletes every physical occurrence of the item `(key, row)`, counting
    /// it as one logical removal.  Returns `true` if anything was removed.
    ///
    /// Replicating instantiations (the PMR quadtree) store one logical item
    /// in every partition it intersects, while [`SpGistTree::insert`] counts
    /// it once; plain [`SpGistTree::delete`] would remove a single replica
    /// and leave the others reachable.  This method removes the first
    /// matching `(key, row)` occurrence from *every* leaf that holds one and
    /// decrements the item count once.
    pub fn delete_replicated(&self, key: &O::Key, row: RowId) -> StorageResult<bool> {
        self.delete_items(&[(key, row)], true)
    }

    /// Deletes every `(key, row)` pair of `items`, or nothing: the pairs are
    /// removed only if every one was found (equal pairs must be present that
    /// many times).  Returns whether the batch was removed.  One descent per
    /// pair and one rewrite per touched leaf under one hold of the write
    /// gate — how the suffix tree deletes a word.
    pub fn delete_batch(&self, items: &[(O::Key, RowId)]) -> StorageResult<bool> {
        let items: Vec<_> = items.iter().map(|(key, row)| (key, *row)).collect();
        self.delete_items(&items, false)
    }

    /// Shared deletion: locate every item, then remove what was located, one
    /// logical removal per item.
    ///
    /// Deletion takes the write gate exclusively — it excludes other writers
    /// (so its captured node addresses stay valid without crabbing) but not
    /// readers, which epoch pins keep safe across the copy-on-write removal
    /// rewrites.
    fn delete_items(&self, items: &[(&O::Key, RowId)], all_replicas: bool) -> StorageResult<bool> {
        let _gate = self.write_gate.write();
        let mut targets = Vec::new();
        for (key, row) in items {
            if !self.locate(key, *row, all_replicas, &mut targets)? {
                return Ok(false);
            }
        }
        // Group by leaf, highest item first so earlier indices stay valid.
        targets.sort_unstable_by_key(|t| (t.0, std::cmp::Reverse(t.1)));
        let mut rest = targets.as_slice();
        while let Some(&(leaf_id, _, parent)) = rest.first() {
            let Node::Leaf { mut items } = self.store.read::<O>(leaf_id)? else {
                return Err(StorageError::Corrupt("located node is not a leaf".into()));
            };
            let group = rest.iter().take_while(|t| t.0 == leaf_id).count();
            for (_, idx, _) in &rest[..group] {
                items.remove(*idx);
            }
            // A shrinking leaf normally stays in place; should it move,
            // write_node fixes the captured parent pointer (valid under the
            // exclusive gate — only leaves move here).
            self.write_node(leaf_id, &Node::Leaf { items }, parent)?;
            rest = &rest[group..];
        }
        {
            let _meta = self.meta_lock.lock();
            self.item_count
                .fetch_sub(items.len() as u64, Ordering::Relaxed);
            self.write_meta_locked()?;
        }
        self.store.reclaim()?;
        Ok(true)
    }

    /// Finds `(key, row)` by consistent descent — following the row through
    /// row nodes — and appends its position (the first occurrence not yet in
    /// `targets`; one leaf, or one per leaf holding it when `all_replicas`
    /// is set) to `targets`.  Returns whether any was found.
    fn locate(
        &self,
        key: &O::Key,
        row: RowId,
        all_replicas: bool,
        targets: &mut Vec<Located>,
    ) -> StorageResult<bool> {
        let (query, ops, hint) = (
            &self.ops.key_query(key),
            &self.ops,
            self.store.access_hint(),
        );
        let (mut slots, mut found) = (Slots::<O>::default(), false);
        let mut stack = Vec::from_iter(self.root().map(|root| (root, 0, None)));
        while let Some((node_id, level, parent)) = stack.pop() {
            let (mut hit, mut delta) = (None, 0);
            let matches = |idx, key: &O::Key| {
                ops.leaf_consistent(key, query, level)
                    && !targets.iter().any(|t| (t.0, t.1) == (node_id, idx))
            };
            self.store.visit(node_id, hint, |bytes| {
                walk(bytes, &mut slots, |part| {
                    match part {
                        Part::Inner(Some(p), _) if !ops.prefix_consistent(p, query, level) => {
                            return false
                        }
                        Part::Inner(prefix, _) => delta = ops.descend_levels(prefix),
                        Part::Entry(i, p, pred, child) if ops.consistent(p, pred, query, level) => {
                            stack.push((child, level + delta, Some((node_id, i))))
                        }
                        Part::Item(i, key, r) if r == row && matches(i, &key) => hit = Some(i),
                        Part::Rows(shift, children) => {
                            let i = row_slot(row, shift);
                            stack.push((children[i], level, Some((node_id, i))));
                        }
                        _ => {}
                    }
                    hit.is_none()
                })
            })?;
            if let Some(idx) = hit {
                targets.push((node_id, idx, parent));
                found = true;
                if !all_replicas {
                    break;
                }
            }
        }
        Ok(found)
    }

    // ------------------------------------------------------------------
    // Clustering / repacking
    // ------------------------------------------------------------------

    /// Re-clusters the whole tree into fresh pages so that each page holds a
    /// *top portion of a subtree*, minimizing the tree's page height.
    ///
    /// This is the offline counterpart of the paper's clustering technique
    /// (after Diwan et al., "Clustering techniques for minimizing external
    /// path length"): starting from the root, nodes are taken in
    /// breadth-first order into the current page until it is full; every
    /// child that did not fit becomes the root of its own packed page,
    /// recursively.  Along any root-to-leaf path the number of page
    /// transitions is therefore roughly the node height divided by the depth
    /// of a subtree that fits in one page.  The logical tree is unchanged;
    /// only the node→page mapping is rewritten.
    ///
    /// Repacking holds the write gate exclusively but never blocks readers:
    /// the rebuilt layout goes into fresh pages, the root flips atomically,
    /// and the old pages are *retired* — readers pinned on the old layout
    /// keep traversing it until reclamation passes their epoch, after which
    /// the pages return to the pager's free list for reuse.
    pub fn repack(&self) -> StorageResult<()> {
        let _gate = self.write_gate.write();
        let Some(root) = self.root() else {
            return Ok(());
        };
        // From here on every placement goes to freshly allocated pages.
        let old_pages = self.store.begin_repack();
        // The repack reads the old layout once and writes the new one once:
        // a two-sided sweep that must not displace the pool's hot set.
        self.store.set_access_hint(AccessHint::Scan);
        let result = Self::repack_group(&self.store, root);
        self.store.set_access_hint(AccessHint::Normal);
        let new_root = result?;
        {
            let _meta = self.meta_lock.lock();
            self.set_root(Some(new_root));
            // Every path moved: the next planner read measures the new layout.
            self.page_height.store(0, Ordering::Relaxed);
            self.write_meta_locked()?;
        }
        self.store.finish_repack(&old_pages);
        self.store.reclaim()
    }

    /// Packs the subtree rooted at `old_root` into one fresh page (breadth
    /// first, as many nodes as fit) and recursively packs the subtrees that
    /// spill over.  Returns the new address of the subtree root.
    fn repack_group(store: &NodeStore, old_root: NodeId) -> StorageResult<NodeId> {
        use std::collections::{HashMap, VecDeque};

        // Phase 1: breadth-first selection of the nodes this page will hold.
        // Per-record overhead: 1 byte of record header plus 4 bytes of slot
        // entry; keep headroom so the in-place pointer patching below can
        // never overflow the page.
        const PAGE_BUDGET: usize = spgist_storage::PAGE_SIZE - 128;
        let mut group: Vec<(NodeId, Node<O>)> = Vec::new();
        let mut in_group: HashMap<NodeId, usize> = HashMap::new();
        let mut used = 0usize;
        let mut queue = VecDeque::from([old_root]);
        while let Some(id) = queue.pop_front() {
            if in_group.contains_key(&id) {
                continue;
            }
            let node: Node<O> = store.read_hinted(id, AccessHint::Scan)?;
            let cost = node.encode().len() + 5;
            if !group.is_empty() && used + cost > PAGE_BUDGET {
                // The root always goes in (a single node is guaranteed to
                // fit); later nodes are only taken while the budget lasts.
                continue;
            }
            used += cost;
            in_group.insert(id, group.len());
            queue.extend(node.children());
            group.push((id, node));
        }

        // Phase 2: materialize the group in one fresh page (placeholders keep
        // the final size because child pointers are fixed-width), recursively
        // pack the spilled subtrees, then patch the child pointers in place.
        let page = store.fresh_page()?;
        let mut new_ids = Vec::with_capacity(group.len());
        for (_, node) in &group {
            new_ids.push(store.allocate_in_page(node, page)?);
        }
        for (idx, (_, node)) in group.iter_mut().enumerate() {
            if node.is_leaf() {
                continue;
            }
            for child in node.children_mut() {
                *child = match in_group.get(child) {
                    Some(&member) => new_ids[member],
                    None => Self::repack_group(store, *child)?,
                };
            }
            store.patch(new_ids[idx], node)?;
        }
        Ok(new_ids[0])
    }

    // ------------------------------------------------------------------
    // Stats
    // ------------------------------------------------------------------

    /// Gathers size and height statistics by traversing the whole tree.
    pub fn stats(&self) -> StorageResult<TreeStats> {
        let _pin = self.store.pin();
        let mut stats = TreeStats {
            pages: self.store.page_count() as u64,
            size_bytes: self.store.size_bytes(),
            utilization: self.store.utilization()?,
            ..TreeStats::default()
        };
        if let Some(root) = self.root() {
            self.walk(root, None, 0, &mut stats)?;
        }
        Ok(stats)
    }

    /// The planner's `(pages, page_height)` view of the tree, an O(1) read:
    /// `pages` is the node store's page count and `page_height` a high-water
    /// mark that writers keep current.  [`SpGistTree::bulk_build`] stores the
    /// height it accumulated and every insert raises the mark to the length
    /// of the path it wrote; deletes never restructure, so the mark loses
    /// nothing to them.  Only the first read after opening or repacking a
    /// tree measures (one latch-free walk, no utilization sweep).  Exact
    /// except that an inner node relocating to another page shifts its
    /// *sibling* paths by one page until a write walks them;
    /// [`SpGistTree::stats`] stays exact.  An empty tree reports height 0.
    pub fn planner_stats(&self) -> StorageResult<(u64, u32)> {
        let mut height = self.page_height.load(Ordering::Relaxed);
        if height == 0 {
            let _pin = self.store.pin();
            if let Some(root) = self.root() {
                let measured = self.walk(root, None, 0, &mut TreeStats::default())?;
                // Writers leave an unmeasured hint alone, so what this meets
                // is 0 or another reader's measurement (since raised, maybe).
                height = measured.max(self.page_height.fetch_max(measured, Ordering::Relaxed));
            }
        }
        Ok((self.store.page_count() as u64, height))
    }

    /// Raises the page-height hint to `pages`, the length of a path an
    /// insert just wrote.  An unmeasured hint (0) stays unmeasured: one path
    /// says nothing about the others, the first planner read walks them all.
    /// Most inserts lengthen nothing and only load the shared word.
    fn note_height(&self, pages: u32) {
        if (1..pages).contains(&self.page_height.load(Ordering::Relaxed)) {
            self.page_height.fetch_max(pages, Ordering::Relaxed);
        }
    }

    /// Depth-first walk of the subtree at `start`, whose parent sits on
    /// `parent_page` with `parent_pages` pages on the root-to-parent path
    /// (0 and `None` at the root), adding every node to `stats`.  Returns
    /// the largest number of pages on a root-to-leaf path it has seen.
    fn walk(
        &self,
        start: NodeId,
        parent_page: Option<PageId>,
        parent_pages: u32,
        stats: &mut TreeStats,
    ) -> StorageResult<u32> {
        let mut stack = vec![(start, 1u32, parent_page, parent_pages)];
        while let Some((node_id, node_depth, last_page, pages)) = stack.pop() {
            let pages = path_pages(last_page, pages, node_id.page);
            stats.max_node_height = stats.max_node_height.max(node_depth);
            stats.max_page_height = stats.max_page_height.max(pages);
            // A walk touches every node exactly once.
            match self.store.read_hinted::<O>(node_id, AccessHint::Scan)? {
                Node::Leaf { items } => {
                    stats.leaf_nodes += 1;
                    stats.items += items.len() as u64;
                }
                // Row nodes count as index nodes.
                index => {
                    stats.inner_nodes += 1;
                    for child in index.children() {
                        stack.push((child, node_depth + 1, Some(node_id.page), pages));
                    }
                }
            }
        }
        Ok(stats.max_page_height)
    }

    /// Releases every page this tree owns (node pages and the meta page) to
    /// the pager's free list, consuming the tree (`DROP INDEX`).
    pub fn destroy(self) -> StorageResult<()> {
        // Consuming the tree proves no reader pins remain, so the retired
        // backlog drains completely before the pages go back.
        self.store.reclaim()?;
        let pool = Arc::clone(self.store.pool());
        for page in self.store.pages() {
            pool.free_page(page)?;
        }
        pool.free_page(self.meta_page)
    }

    pub(crate) fn store(&self) -> &NodeStore {
        &self.store
    }

    pub(crate) fn ops_ref(&self) -> &O {
        &self.ops
    }

    /// The root node's address; `None` for an empty tree.
    pub fn root(&self) -> Option<NodeId> {
        unpack_root(self.root_cell.load(Ordering::Acquire))
    }

    /// Only under `meta_lock`.
    fn set_root(&self, root: Option<NodeId>) {
        self.root_cell.store(pack_root(root), Ordering::Release);
    }

    /// Writes the meta record; the caller holds `meta_lock`.
    fn write_meta_locked(&self) -> StorageResult<()> {
        let bytes = encode_meta(self.root(), self.len());
        self.store
            .pool()
            .with_page_mut(self.meta_page, |p| p.update(0, &bytes))??;
        Ok(())
    }
}

/// Pull-based streaming search over an [`SpGistTree`]; created by
/// [`SpGistTree::search_cursor`] or [`SearchCursor::over`].
///
/// The cursor is generic over *how it holds the tree*: any `T` that
/// dereferences to the tree works, so a plain `&SpGistTree` gives the
/// classic borrowing cursor while an `Arc<SpGistTree>` gives a cursor that
/// owns a handle and can outlive the borrow — the mechanism the index
/// wrappers use to stream query results.  Either way the cursor holds no
/// latch: it pins a reclamation epoch at creation, so concurrent writers
/// proceed while everything reachable from the captured root stays
/// readable.
///
/// Yields `StorageResult<(key, row)>`: a page read can fail mid-scan, and a
/// streaming iterator has nowhere else to surface that.  After the first
/// error the cursor is exhausted.
pub struct SearchCursor<T, O>
where
    T: std::ops::Deref<Target = SpGistTree<O>>,
    O: SpGistOps,
{
    tree: T,
    query: O::Query,
    frontier: Frontier<O>,
    /// Hint attached to every page fetch this cursor makes.
    hint: AccessHint,
    /// Keeps every record reachable from the captured root readable for the
    /// cursor's lifetime.
    _pin: EpochPin,
    done: bool,
}

/// What a search carries from node to node: the nodes still to expand with
/// their decomposition level, the matches of the last leaf not yet yielded,
/// and the decode slots every node reuses.
struct Frontier<O: SpGistOps> {
    stack: Vec<(NodeId, u32)>,
    pending: VecDeque<(O::Key, RowId)>,
    slots: Slots<O>,
}

impl<O: SpGistOps> Frontier<O> {
    /// Runs the search's `consistent` methods over the encoded node `bytes`
    /// at `level`: consistent children go on the stack, and a leaf item
    /// that `leaf_consistent` accepts is moved out of its slot to pending.
    fn expand(&mut self, ops: &O, query: &O::Query, bytes: &[u8], level: u32) -> StorageResult<()> {
        let (stack, pending, mut delta) = (&mut self.stack, &mut self.pending, 0);
        walk(bytes, &mut self.slots, |part| {
            match part {
                Part::Inner(Some(p), _) if !ops.prefix_consistent(p, query, level) => return false,
                Part::Inner(prefix, _) => delta = ops.descend_levels(prefix),
                Part::Entry(_, pfx, pred, child) if ops.consistent(pfx, pred, query, level) => {
                    stack.push((child, level + delta))
                }
                Part::Item(_, key, row) if ops.leaf_consistent(&key, query, level) => {
                    pending.push_back((key.take(), row))
                }
                // Any row may match: visit every child, same level.
                Part::Rows(_, children) => stack.extend(children.iter().map(|&c| (c, level))),
                _ => {}
            }
            true
        })
    }
}

impl<T, O> SearchCursor<T, O>
where
    T: std::ops::Deref<Target = SpGistTree<O>>,
    O: SpGistOps,
{
    /// Builds a cursor from any owned or borrowed handle on a tree.  The
    /// cursor pins a reclamation epoch (never a latch) for its lifetime.
    pub fn over(tree: T, query: O::Query) -> Self {
        // Pin first, then capture the root: records retired after this point
        // outlive the pin, so the captured root stays traversable.
        let pin = tree.store.pin();
        let stack = Vec::from_iter(tree.root().map(|root| (root, 0)));
        let (pending, slots) = (VecDeque::new(), Slots::default());
        SearchCursor {
            tree,
            query,
            frontier: Frontier {
                stack,
                pending,
                slots,
            },
            hint: AccessHint::Normal,
            _pin: pin,
            done: false,
        }
    }

    /// Attaches an [`AccessHint`] to every page fetch this cursor makes.
    ///
    /// Selective queries keep the default [`AccessHint::Normal`]: SP-GiST
    /// clustering packs inner and leaf nodes onto shared pages, so the
    /// pages a query re-descends are exactly the ones worth promoting.
    /// Callers enumerating a large fraction of the index (analytics-style
    /// sweeps) pass [`AccessHint::Scan`] to keep the one-touch leaf pages
    /// out of the pool's protected set.
    pub fn with_hint(mut self, hint: AccessHint) -> Self {
        self.hint = hint;
        self
    }

    /// Expands the node on top of the stack and, under the same pin, every
    /// node the stack offers next on `page`: the run ends at a pending
    /// result, at another page, or at a node spilled across a chain (that
    /// one is expanded after the page is released).  The guard is dropped
    /// before `next` yields, so a suspended cursor holds no page and a
    /// writer on the same thread never waits for it.
    fn expand_run(&mut self, page: PageId) -> StorageResult<()> {
        let (store, ops, query) = (&self.tree.store, &self.tree.ops, &self.query);
        let frontier = &mut self.frontier;
        let chained = store.pool().with_page_hinted(page, self.hint, |p| {
            while let Some(&(id, level)) = frontier.stack.last() {
                if id.page != page || !frontier.pending.is_empty() {
                    break;
                }
                frontier.stack.pop();
                match node_in(p, id.slot)? {
                    Some(bytes) => frontier.expand(ops, query, bytes, level)?,
                    None => return Ok(Some((id, level))),
                }
            }
            StorageResult::Ok(None)
        })??;
        if let Some((id, level)) = chained {
            store.visit(id, self.hint, |b| frontier.expand(ops, query, b, level))?;
        }
        Ok(())
    }
}

impl<T, O> Iterator for SearchCursor<T, O>
where
    T: std::ops::Deref<Target = SpGistTree<O>>,
    O: SpGistOps,
{
    type Item = StorageResult<(O::Key, RowId)>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            if let Some(item) = self.frontier.pending.pop_front() {
                return Some(Ok(item));
            }
            let &(top, _) = self.frontier.stack.last()?;
            if let Err(e) = self.expand_run(top.page) {
                self.done = true;
                return Some(Err(e));
            }
        }
        None
    }
}

impl<T, O> std::fmt::Debug for SearchCursor<T, O>
where
    T: std::ops::Deref<Target = SpGistTree<O>>,
    O: SpGistOps,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchCursor")
            .field("stack_depth", &self.frontier.stack.len())
            .field("done", &self.done)
            .finish()
    }
}

impl<O: SpGistOps> std::fmt::Debug for SpGistTree<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpGistTree")
            .field("items", &self.len())
            .field("root", &self.root())
            .field("meta_page", &self.meta_page)
            .finish()
    }
}

/// Fixed-size meta record: root presence flag, root address, item count.
fn encode_meta(root: Option<NodeId>, item_count: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(15);
    match root {
        Some(id) => {
            out.push(1);
            id.page.encode(&mut out);
            id.slot.encode(&mut out);
        }
        None => {
            out.push(0);
            0u32.encode(&mut out);
            0u16.encode(&mut out);
        }
    }
    item_count.encode(&mut out);
    out
}

fn decode_meta(bytes: &[u8]) -> StorageResult<(Option<NodeId>, u64)> {
    let mut buf = bytes;
    let flag = u8::decode(&mut buf)?;
    let page = u32::decode(&mut buf)?;
    let slot = u16::decode(&mut buf)?;
    let count = u64::decode(&mut buf)?;
    let root = match (flag, page, slot) {
        (1, page, slot) => Some(NodeId::new(page, slot)),
        (0, 0, 0) => None,
        _ => {
            return Err(StorageError::Corrupt(format!(
                "tree meta record has root flag {flag} with address {page}:{slot}"
            )))
        }
    };
    if !buf.is_empty() {
        return Err(StorageError::Corrupt(format!(
            "tree meta record has {} trailing bytes",
            buf.len()
        )));
    }
    Ok((root, count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ROW_FANOUT;
    use crate::testing::DigitTrieOps;
    use spgist_storage::{BufferPoolConfig, FilePager, MemPager};

    fn new_tree() -> SpGistTree<DigitTrieOps> {
        SpGistTree::create(BufferPool::in_memory(), DigitTrieOps::default()).unwrap()
    }

    #[test]
    fn root_codec_roundtrip() {
        let cases = [
            None,
            Some(NodeId::new(0, 0)),
            Some(NodeId::new(7, 3)),
            Some(NodeId::new(u32::MAX, u16::MAX)),
        ];
        for root in cases {
            assert_eq!(unpack_root(pack_root(root)), root);
        }
    }

    #[test]
    fn empty_tree_has_no_matches() {
        let tree = new_tree();
        assert!(tree.is_empty());
        assert!(tree.search(&42).unwrap().is_empty());
        assert_eq!(tree.stats().unwrap().items, 0);
    }

    #[test]
    fn insert_and_exact_search() {
        let tree = new_tree();
        for key in [1u32, 12, 123, 1234, 2, 23, 42, 421, 4242] {
            tree.insert(key, u64::from(key) * 10).unwrap();
        }
        assert_eq!(tree.len(), 9);
        assert_eq!(tree.search(&123).unwrap(), vec![(123, 1230)]);
        assert_eq!(tree.search(&4242).unwrap(), vec![(4242, 42420)]);
        assert!(tree.search(&999).unwrap().is_empty());
    }

    #[test]
    fn duplicate_keys_are_all_returned() {
        let tree = new_tree();
        tree.insert(77, 1).unwrap();
        tree.insert(77, 2).unwrap();
        tree.insert(77, 3).unwrap();
        let mut rows: Vec<u64> = tree
            .search(&77)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![1, 2, 3]);
    }

    #[test]
    fn splits_produce_searchable_tree() {
        let tree = new_tree();
        // Far more keys than one bucket: forces repeated PickSplit calls.
        for key in 0..500u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        for key in (0..500u32).step_by(17) {
            assert_eq!(tree.search(&key).unwrap(), vec![(key, u64::from(key))]);
        }
        let stats = tree.stats().unwrap();
        assert_eq!(stats.items, 500);
        assert!(
            stats.inner_nodes > 0,
            "bucket overflow must create inner nodes"
        );
        assert!(stats.max_node_height > 1);
    }

    #[test]
    fn delete_removes_only_the_requested_row() {
        let tree = new_tree();
        for key in 0..100u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        assert!(tree.delete(&50, 50).unwrap());
        assert!(
            !tree.delete(&50, 50).unwrap(),
            "second delete finds nothing"
        );
        assert!(tree.search(&50).unwrap().is_empty());
        assert_eq!(tree.search(&51).unwrap(), vec![(51, 51)]);
        assert_eq!(tree.len(), 99);
    }

    #[test]
    fn stats_track_pages_and_heights() {
        let tree = new_tree();
        for key in 0..2000u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        let stats = tree.stats().unwrap();
        assert_eq!(stats.items, 2000);
        assert!(stats.total_nodes() >= stats.leaf_nodes);
        assert!(stats.max_page_height <= stats.max_node_height);
        assert!(stats.pages >= 1);
        assert!(stats.size_bytes >= stats.pages * 8192);
        assert!(stats.utilization > 0.0 && stats.utilization <= 1.0);
    }

    #[test]
    fn repack_preserves_contents_and_reduces_page_height() {
        let tree = new_tree();
        for key in 0..5000u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        let before = tree.stats().unwrap();
        tree.repack().unwrap();
        let after = tree.stats().unwrap();
        assert_eq!(after.items, before.items);
        assert_eq!(after.max_node_height, before.max_node_height);
        assert!(
            after.max_page_height <= before.max_page_height,
            "repacking must not worsen page height ({} -> {})",
            before.max_page_height,
            after.max_page_height
        );
        // Everything is still searchable after re-clustering.
        for key in (0..5000u32).step_by(487) {
            assert_eq!(tree.search(&key).unwrap(), vec![(key, u64::from(key))]);
        }
        // Deletes and inserts keep working on the repacked tree.
        assert!(tree.delete(&1234, 1234).unwrap());
        tree.insert(99999, 1).unwrap();
        assert_eq!(tree.search(&99999).unwrap(), vec![(99999, 1)]);
    }

    #[test]
    fn repack_returns_old_pages_for_reuse() {
        let pool = BufferPool::in_memory();
        let tree = SpGistTree::create(Arc::clone(&pool), DigitTrieOps::default()).unwrap();
        for key in 0..3000u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        // Repeated delete-then-insert churn plus repacks must not grow the
        // underlying store: freed pages go on the free list and come back.
        // Rounds 0-1 reach the steady state (the first repack trades the
        // online clustering's tight packing for page-height-minimizing
        // groups); later identical rounds must be served entirely from
        // recycled pages.
        let mut steady_state = 0;
        for round in 0..4 {
            for key in (0..3000u32).step_by(7) {
                tree.delete(&key, u64::from(key)).unwrap();
            }
            for key in (0..3000u32).step_by(7) {
                tree.insert(key, u64::from(key)).unwrap();
            }
            tree.repack().unwrap();
            if round == 1 {
                steady_state = pool.page_count();
                assert!(
                    pool.free_page_count() > 0,
                    "repack must return its old pages to the free list"
                );
            } else if round > 1 {
                assert_eq!(
                    pool.page_count(),
                    steady_state,
                    "round {round}: repack must recycle its old pages"
                );
            }
        }
        assert_eq!(tree.search(&7).unwrap(), vec![(7, 7)]);
        assert_eq!(tree.len(), 3000);
    }

    #[test]
    fn insert_all_matches_individual_inserts() {
        let bulk = new_tree();
        bulk.insert_all((0..200u32).map(|k| (k, u64::from(k))))
            .unwrap();
        let single = new_tree();
        for k in 0..200u32 {
            single.insert(k, u64::from(k)).unwrap();
        }
        for k in (0..200u32).step_by(13) {
            assert_eq!(bulk.search(&k).unwrap(), single.search(&k).unwrap());
        }
    }

    #[test]
    fn bulk_build_matches_insert_loop_results() {
        let items: Vec<(u32, u64)> = (0..2500u32).map(|k| (k, u64::from(k))).collect();
        let bulk = new_tree();
        let build_stats = bulk.bulk_build(items.clone()).unwrap();
        let loop_tree = new_tree();
        loop_tree.insert_all(items).unwrap();

        assert_eq!(bulk.len(), loop_tree.len());
        for k in (0..2500u32).step_by(97) {
            assert_eq!(bulk.search(&k).unwrap(), loop_tree.search(&k).unwrap());
        }
        assert!(bulk.search(&9999).unwrap().is_empty());

        // The stats accumulated during the build agree with a traversal.
        let traversed = bulk.stats().unwrap();
        assert_eq!(build_stats, traversed, "build-time stats match traversal");
        assert!(build_stats.items >= 2500);
        assert!(build_stats.inner_nodes > 0);
        assert!(build_stats.max_page_height <= build_stats.max_node_height);

        // The bulk-built tree stays fully updatable.
        assert!(bulk.delete(&1234, 1234).unwrap());
        bulk.insert(100_000, 7).unwrap();
        assert_eq!(bulk.search(&100_000).unwrap(), vec![(100_000, 7)]);
    }

    #[test]
    fn bulk_build_requires_an_empty_tree() {
        let tree = new_tree();
        tree.insert(1, 1).unwrap();
        assert!(tree.bulk_build(vec![(2, 2)]).is_err());
        // The failed build leaves the tree untouched.
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.search(&1).unwrap(), vec![(1, 1)]);
    }

    #[test]
    fn bulk_build_of_nothing_is_a_noop() {
        let tree = new_tree();
        let stats = tree.bulk_build(Vec::new()).unwrap();
        assert_eq!(stats.items, 0);
        assert!(tree.is_empty());
        tree.insert(5, 5).unwrap();
        assert_eq!(tree.search(&5).unwrap(), vec![(5, 5)]);
    }

    #[test]
    fn bulk_build_handles_all_equal_keys() {
        let tree = new_tree();
        let stats = tree
            .bulk_build((0..300).map(|row| (42u32, row as u64)).collect())
            .unwrap();
        assert_eq!(tree.len(), 300);
        assert_eq!(stats.items, 300);
        let mut rows: Vec<u64> = tree
            .search(&42)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        rows.sort_unstable();
        assert_eq!(rows.len(), 300);
        assert_eq!(rows[0], 0);
        assert_eq!(rows[299], 299);
    }

    #[test]
    fn bulk_build_writes_fewer_pages_than_the_insert_loop() {
        // An eviction-bounded pool (far smaller than the tree) is where the
        // write-once property shows: the insert loop re-dirties hot pages
        // which the evictor writes back over and over, while the bulk build
        // touches each page once plus the patch of its inner nodes.
        let mut items: Vec<(u32, u64)> = (0..6000u32).map(|k| (k, u64::from(k))).collect();
        // Deterministic shuffle: sequential keys would land consecutive
        // inserts on the same leaf page and hide the re-dirtying cost.
        let mut state = 0x5eed_5eedu64;
        for i in (1..items.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            items.swap(i, (state >> 33) as usize % (i + 1));
        }
        let bounded_pool = || {
            Arc::new(BufferPool::new(
                Arc::new(MemPager::new()),
                BufferPoolConfig {
                    capacity: 8,
                    ..Default::default()
                },
            ))
        };

        let loop_pool = bounded_pool();
        let loop_tree =
            SpGistTree::create(Arc::clone(&loop_pool), DigitTrieOps::default()).unwrap();
        loop_pool.reset_stats();
        loop_tree.insert_all(items.clone()).unwrap();
        loop_pool.flush_all().unwrap();
        let loop_writes = loop_pool.stats().physical_writes;

        let bulk_pool = bounded_pool();
        let bulk_tree =
            SpGistTree::create(Arc::clone(&bulk_pool), DigitTrieOps::default()).unwrap();
        bulk_pool.reset_stats();
        bulk_tree.bulk_build(items).unwrap();
        bulk_pool.flush_all().unwrap();
        let bulk_writes = bulk_pool.stats().physical_writes;

        assert!(
            bulk_writes * 2 < loop_writes,
            "bulk build must write far fewer pages than the insert loop under eviction \
             (bulk {bulk_writes}, loop {loop_writes})"
        );
        assert_eq!(bulk_tree.len(), 6000);
        assert_eq!(bulk_tree.search(&4242).unwrap(), vec![(4242, 4242)]);
    }

    #[test]
    fn persists_and_reopens_from_file() {
        let dir = std::env::temp_dir().join(format!("spgist-tree-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tree.pages");
        let (meta, pages);
        {
            let pool = Arc::new(BufferPool::new(
                Arc::new(FilePager::create(&path).unwrap()),
                BufferPoolConfig {
                    capacity: 64,
                    ..Default::default()
                },
            ));
            let tree = SpGistTree::create(pool.clone(), DigitTrieOps::default()).unwrap();
            for key in 0..300u32 {
                tree.insert(key, u64::from(key)).unwrap();
            }
            meta = tree.meta_page();
            pages = tree.owned_pages();
            pool.flush_all().unwrap();
        }
        {
            let pool = Arc::new(BufferPool::new(
                Arc::new(FilePager::open(&path).unwrap()),
                BufferPoolConfig {
                    capacity: 64,
                    ..Default::default()
                },
            ));
            let tree = SpGistTree::open(pool, DigitTrieOps::default(), meta, pages).unwrap();
            assert_eq!(tree.len(), 300);
            assert_eq!(tree.search(&123).unwrap(), vec![(123, 123)]);
            assert_eq!(tree.search(&299).unwrap(), vec![(299, 299)]);
            assert!(tree.search(&300).unwrap().is_empty());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nn_search_orders_by_distance() {
        let tree = new_tree();
        for key in [10u32, 20, 30, 40, 500, 600, 9000] {
            tree.insert(key, u64::from(key)).unwrap();
        }
        let neighbours = tree.nn_search(33, 3).unwrap();
        let keys: Vec<u32> = neighbours.iter().map(|(k, _, _)| *k).collect();
        assert_eq!(keys, vec![30, 40, 20]);
        let dists: Vec<f64> = neighbours.iter().map(|(_, _, d)| *d).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn small_buffer_pool_still_correct_under_eviction() {
        let pool = Arc::new(BufferPool::new(
            Arc::new(MemPager::new()),
            BufferPoolConfig {
                capacity: 4,
                ..Default::default()
            },
        ));
        let tree = SpGistTree::create(pool, DigitTrieOps::default()).unwrap();
        for key in 0..1500u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        for key in (0..1500u32).step_by(101) {
            assert_eq!(tree.search(&key).unwrap(), vec![(key, u64::from(key))]);
        }
        let io = tree.pool().stats();
        assert!(io.evictions > 0, "a 4-frame pool must evict while building");
    }

    #[test]
    fn search_cursor_streams_the_same_results_as_search() {
        let tree = new_tree();
        for key in 0..800u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        for probe in [0u32, 17, 799, 999] {
            let eager = tree.search(&probe).unwrap();
            let streamed: Vec<(u32, u64)> = tree
                .search_cursor(probe)
                .collect::<StorageResult<_>>()
                .unwrap();
            assert_eq!(streamed, eager, "probe {probe}");
        }
        // Early termination: pulling one item must not require a full scan.
        let first = tree.search_cursor(42).next().unwrap().unwrap();
        assert_eq!(first, (42, 42));
    }

    #[test]
    fn search_cursor_on_empty_tree_is_empty() {
        let tree = new_tree();
        assert!(tree.search_cursor(7).next().is_none());
    }

    #[test]
    fn delete_replicated_removes_item_and_counts_once() {
        let tree = new_tree();
        for key in 0..50u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        assert!(tree.delete_replicated(&30, 30).unwrap());
        assert!(!tree.delete_replicated(&30, 30).unwrap());
        assert!(tree.search(&30).unwrap().is_empty());
        assert_eq!(tree.len(), 49);
    }

    /// [`DigitTrieOps`] counting its `picksplit` calls.
    #[derive(Default)]
    struct CountingOps {
        inner: DigitTrieOps,
        picksplits: std::sync::atomic::AtomicUsize,
    }

    impl SpGistOps for CountingOps {
        type Key = u32;
        type Prefix = u32;
        type Pred = u8;
        type Query = u32;
        type Context = ();
        fn config(&self) -> crate::SpGistConfig {
            self.inner.config()
        }
        fn key_query(&self, key: &u32) -> u32 {
            *key
        }
        fn consistent(&self, prefix: Option<&u32>, pred: &u8, query: &u32, level: u32) -> bool {
            self.inner.consistent(prefix, pred, query, level)
        }
        fn leaf_consistent(&self, key: &u32, query: &u32, level: u32) -> bool {
            self.inner.leaf_consistent(key, query, level)
        }
        fn choose(&self, p: Option<&u32>, preds: &[u8], key: &u32, level: u32) -> Choose<u8, u32> {
            self.inner.choose(p, preds, key, level)
        }
        fn picksplit(&self, items: &[u32], level: u32, ctx: &()) -> PickSplit<u32, u8> {
            self.picksplits.fetch_add(1, Ordering::Relaxed);
            self.inner.picksplit(items, level, ctx)
        }
    }

    #[test]
    fn equal_keys_fan_out_by_row_id_and_never_call_picksplit_again() {
        let tree = SpGistTree::create(BufferPool::in_memory(), CountingOps::default()).unwrap();
        for key in 0..60u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        let picksplits = || tree.ops().picksplits.load(Ordering::Relaxed);
        // Pile rows under one key until its leaf outgrows the byte budget:
        // up to there every insert asks PickSplit (and gets no answer).
        let inner_before = tree.stats().unwrap().inner_nodes;
        let mut row = 1_000u64;
        while tree.stats().unwrap().inner_nodes == inner_before {
            tree.insert(42, row).unwrap();
            row += 1;
        }
        assert!(row - 1_000 > 80, "the budget holds ≈ 85 twelve-byte items");
        let asked = picksplits();
        // Below the row node keys have no say: 5 000 more rows, nested row
        // splits included, and not one PickSplit call.
        for _ in 0..5_000 {
            tree.insert(42, row).unwrap();
            row += 1;
        }
        assert_eq!(picksplits(), asked, "PickSplit called below a row node");
        let stats = tree.stats().unwrap();
        assert!(stats.inner_nodes > inner_before + 16, "row nodes nest");
        assert_eq!(tree.search(&42).unwrap().len() as u64, row - 1_000 + 1);
        // A key that merely shares the path is still told apart at the leaf.
        assert_eq!(tree.search(&41).unwrap(), vec![(41, 41)]);
    }

    #[test]
    fn keys_arriving_below_a_row_node_are_filed_by_row_and_stay_correct() {
        // `DigitTrieOps` breaks the "a degenerate answer is final" rule at a
        // root leaf: a pile under one key splits degenerately there although
        // any other key can still arrive.  The price is the documented one —
        // no key partitioning below the row node — never a wrong answer.
        let tree = new_tree();
        for row in 0..500u64 {
            tree.insert(7, row).unwrap();
        }
        assert!(
            tree.stats().unwrap().inner_nodes >= 1,
            "the pile fanned out"
        );
        let late = [8u32, 9, 71, 123_456];
        for key in late {
            tree.insert(key, u64::from(key)).unwrap();
        }
        for key in late {
            assert_eq!(tree.search(&key).unwrap(), vec![(key, u64::from(key))]);
        }
        assert_eq!(tree.search(&7).unwrap().len(), 500);
        assert!(tree.delete(&71, 71).unwrap());
        assert!(!tree.delete(&71, 71).unwrap());
        // Deletes never restructure: emptying the pile keeps its row nodes
        // (until a rebuild) and the answers right.
        for row in 0..500u64 {
            assert!(tree.delete(&7, row).unwrap());
        }
        assert!(tree.search(&7).unwrap().is_empty());
        assert_eq!(tree.search(&9).unwrap(), vec![(9, 9)]);
        let stats = tree.stats().unwrap();
        assert_eq!((tree.len(), stats.items), (3, 3));
        assert!(stats.inner_nodes >= 1);
    }

    #[test]
    fn delete_batch_is_all_or_nothing() {
        let tree = new_tree();
        for key in 0..200u32 {
            tree.insert(key % 20, u64::from(key)).unwrap();
        }
        // One pair of the batch was never inserted: nothing goes.
        assert!(!tree.delete_batch(&[(3, 3), (4, 4), (5, 999)]).unwrap());
        assert_eq!(tree.len(), 200);
        assert_eq!(tree.search(&3).unwrap().len(), 10);
        // An equal pair named twice must be there twice.
        assert!(!tree.delete_batch(&[(3, 3), (3, 3)]).unwrap());
        tree.insert(3, 3).unwrap();
        assert!(tree
            .delete_batch(&[(3, 3), (4, 4), (3, 3), (3, 23)])
            .unwrap());
        assert_eq!(tree.len(), 197);
        let mut rows: Vec<u64> = tree.search(&3).unwrap().into_iter().map(|i| i.1).collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![43, 63, 83, 103, 123, 143, 163, 183]);
        assert_eq!(tree.search(&4).unwrap().len(), 9);
        assert_eq!(tree.stats().unwrap().items, 197);
    }

    #[test]
    fn meta_codec_roundtrip() {
        let cases = [
            (None, 0u64),
            (Some(NodeId::new(3, 9)), 12345u64),
            (Some(NodeId::new(u32::MAX, u16::MAX)), u64::MAX),
        ];
        for (root, count) in cases {
            let bytes = encode_meta(root, count);
            assert_eq!(decode_meta(&bytes).unwrap(), (root, count));
        }
        // A damaged record is an error, never an empty tree: a flag that is
        // neither 0 nor 1, an address under the "no root" flag, extra bytes.
        let good = encode_meta(Some(NodeId::new(3, 9)), 12345);
        let mut bad_flag = good.clone();
        bad_flag[0] = 2;
        let mut rootless_with_address = good.clone();
        rootless_with_address[0] = 0;
        let mut trailing = good;
        trailing.push(0);
        for bytes in [bad_flag, rootless_with_address, trailing] {
            assert!(matches!(decode_meta(&bytes), Err(StorageError::Corrupt(_))));
        }
    }

    #[test]
    fn open_cursor_does_not_block_writers() {
        // Under the old tree-wide RwLock this was impossible: insert took
        // `&mut self`, so a live cursor (holding the shared borrow) excluded
        // every writer.  Now the cursor pins an epoch and writers proceed.
        let tree = new_tree();
        for key in 0..300u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        let mut cursor = tree.search_cursor(42);
        assert_eq!(cursor.next().unwrap().unwrap(), (42, 42));
        // Churn the tree hard while the cursor is live: splits relocate and
        // retire records, but the pinned epoch keeps the cursor's view
        // readable.
        for key in 300..900u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        assert!(cursor.next().is_none());
        drop(cursor);
        // With the pin gone, the next writer drains the retired backlog.
        tree.insert(900, 900).unwrap();
        assert_eq!(tree.concurrency_stats().retired_backlog, 0);
        assert_eq!(tree.len(), 901);

        // A cursor suspended in the middle of a same-page run holds no page:
        // a pile under key 7 fans out into row-node leaves sharing a page,
        // the first yields, and the same thread then rewrites that page.
        let tree = new_tree();
        for key in 0..300u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        for row in 1_000..1_500 {
            tree.insert(7, row).unwrap();
        }
        let (mut id, mut level) = (tree.root().unwrap(), 0);
        let leaves = loop {
            match tree.store.read::<DigitTrieOps>(id).unwrap() {
                Node::Rows { children, .. } => break children,
                Node::Inner { entries, .. } => {
                    let on_path = |e: &&Entry<u8>| tree.ops.consistent(None, &e.pred, &7, level);
                    id = entries.iter().find(on_path).unwrap().child;
                    level += 1;
                }
                Node::Leaf { .. } => panic!("the pile did not fan out"),
            }
        };
        let mut cursor = tree.search_cursor(7);
        let (key, first) = cursor.next().unwrap().unwrap();
        assert_eq!(key, 7);
        let next = cursor.frontier.stack.last().unwrap().0;
        assert_eq!(next, leaves[ROW_FANOUT - 2]);
        let page = next.page;
        assert_eq!(page, leaves[ROW_FANOUT - 1].page, "suspended mid-run");
        let records = || {
            let records =
                |p: &spgist_storage::Page| p.iter().map(|(s, r)| (s, r.to_vec())).collect();
            tree.pool().with_page(page, records).unwrap()
        };
        let before: Vec<(u16, Vec<u8>)> = records();
        // More rows under 7 land in those very leaves, growing, moving and
        // splitting them.  The cursor may see some of the new rows (≥ 5 000)
        // in leaves it has not reached; it sees every old row once.
        for row in 5_000..5_300 {
            tree.insert(7, row).unwrap();
        }
        let now = records();
        assert!(
            before.iter().any(|r| !now.contains(r)),
            "page {page} unchanged"
        );
        let mut rows: Vec<u64> = cursor.map(|item| item.unwrap().1).collect();
        rows.push(first);
        rows.sort_unstable();
        let old: Vec<u64> = rows.iter().copied().filter(|&r| r < 5_000).collect();
        assert_eq!(old, [7].into_iter().chain(1_000..1_500).collect::<Vec<_>>());
        assert!(rows.windows(2).all(|w| w[0] < w[1]), "no row twice");
        tree.insert(8, 8).unwrap();
        assert_eq!(tree.concurrency_stats().retired_backlog, 0);
    }

    #[test]
    fn a_damaged_record_ends_every_reader_in_one_error() {
        let tree = new_tree();
        for key in 0..300u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        let root = tree.root().unwrap();
        let node = tree
            .store
            .visit(root, AccessHint::Normal, |bytes| Ok(bytes.to_vec()))
            .unwrap();
        // The record keeps its own header byte; the node behind it is cut
        // at every length, or carries an unknown tag.
        let header = tree
            .pool()
            .with_page(root.page, |p| p.get(root.slot).unwrap()[0])
            .unwrap();
        let damaged = (0..node.len())
            .map(|cut| node[..cut].to_vec())
            .chain([vec![9]]);
        for bytes in damaged {
            let record: Vec<u8> = [header].into_iter().chain(bytes).collect();
            tree.pool()
                .with_page_mut(root.page, |p| p.update(root.slot, &record))
                .unwrap()
                .unwrap();
            let mut cursor = tree.search_cursor(42);
            assert!(matches!(cursor.next(), Some(Err(StorageError::Decode(_)))));
            assert!(cursor.next().is_none(), "one error, then nothing");
            let mut nn = tree.nn_iter(42);
            assert!(matches!(nn.next(), Some(Err(StorageError::Decode(_)))));
            assert!(nn.next().is_none(), "one error, then nothing");
            assert!(matches!(tree.delete(&42, 42), Err(StorageError::Decode(_))));
        }
    }

    #[test]
    fn two_writers_splitting_shared_leaves_lose_no_inserts() {
        // Deterministic collision workload: both threads insert interleaved
        // keys (evens vs odds) that land in the same prefix partitions, so
        // every leaf split is contended.  Starting from an empty tree also
        // exercises the racy root creation.
        let tree = Arc::new(new_tree());
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..2u32)
            .map(|t| {
                let tree = Arc::clone(&tree);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..400u32 {
                        let key = i * 2 + t;
                        tree.insert(key, u64::from(key)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(tree.len(), 800, "no insert may be lost");
        for key in 0..800u32 {
            assert_eq!(
                tree.search(&key).unwrap(),
                vec![(key, u64::from(key))],
                "key {key} must be reachable"
            );
        }
        let stats = tree.stats().unwrap();
        assert_eq!(stats.items, 800);
    }

    #[test]
    fn concurrency_stats_count_latches_and_pins() {
        let tree = new_tree();
        for key in 0..200u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        let _ = tree.search(&5).unwrap();
        let stats = tree.concurrency_stats();
        assert!(stats.latch_acquisitions > 0, "inserts crab page latches");
        assert!(stats.epoch_pins > 0, "searches pin epochs");
        assert_eq!(stats.active_pins, 0, "no cursor is live");
        assert_eq!(stats.retired_backlog, 0, "unpinned retires drain");
    }
}
