//! Node→page storage mapping with clustering.
//!
//! Space-partitioning tree nodes are much smaller than disk pages, so the
//! crucial disk-based design question — raised explicitly in the paper's
//! Section 3 — is how to pack tree nodes into pages so that root-to-leaf
//! traversals touch as few pages as possible.  The paper relies on the
//! clustering technique of Diwan et al.; [`NodeStore`] implements a greedy
//! form of it as one placer, the only code that chooses a page for a new
//! node.  The bulk build, the online split and row fan-out, and `repack`
//! hand it their subtree children-first (`NodeStore::group`), and it lays
//! the subtree out in page groups:
//!
//! * a subtree that fits half a page (`GROUP_BUDGET`) stays whole, its
//!   nodes in preorder, and its parent's group takes it in;
//! * a larger subtree's root keeps on its page the groups of its tallest
//!   children while they fit the same budget, so its page height grows only
//!   where a path must cross a page; every other child's group is placed
//!   at once, largest first so the small ones fill the gaps the large ones
//!   leave, and when even the tallest do not fit the root starts a group of
//!   its own, one page higher;
//! * a group goes on the page the caller names when it fits there (the
//!   online split names the old leaf's) — or, named none, on the page of
//!   its root's tallest child placed apart, where the root saves that path
//!   a page — else on the open page (one of the 16 most recently written)
//!   whose recorded room it fits most tightly, else on a fresh page
//!   (`NodeStore::place_group`).  A single new node
//!   ([`NodeStore::allocate`]) and a relocated record are the one-record
//!   case of the same rule.  The open pages' room is recorded at each
//!   write, so a placement reads only the page it chose.
//!
//! The recursion holds, per level, the groups of the children still
//! pending, each at most half a page (a wide node's level holds one per
//! child), never a whole subtree of encoded nodes; and the placer returns
//! the page height of what it placed, so no one walks a subtree to measure
//! it.  Subtrees stay physically clustered and the *page* height of the
//! tree stays close to that of a balanced B⁺-tree even though the *node*
//! height is much larger (paper Figures 11–12).
//!
//! # Concurrency
//!
//! The store is shared (`&self` everywhere) so one tree can serve parallel
//! writers and latch-free snapshot readers:
//!
//! * Placement state (the owned-page list and open-page candidates) sits
//!   behind a mutex; page content itself is protected by the buffer pool's
//!   per-frame locks.
//! * [`NodeStore::update`] is copy-on-write when a node must relocate: the
//!   old record (and its spill chain) stays intact and readable until the
//!   caller has re-linked the parent and calls [`NodeStore::retire_node`],
//!   which hands the old records to the [`EpochManager`].  Retired records
//!   are physically deleted by [`NodeStore::reclaim`] only once every
//!   reader epoch pinned before the retirement has ended.
//! * Spill-chain continuation records are immutable: a rewrite of a chained
//!   node always places *fresh* continuations and retires the old ones, so
//!   a reader that caught the old head mid-rewrite still reassembles the
//!   complete old node.
//! * Readers take a node where it lies: [`node_in`] lends an inline
//!   record's bytes on the pinned, read-locked page, and
//!   [`NodeStore::visit`] falls back to reassembling a chained one only
//!   after that page is released, so no reader holds two page guards.

use std::cmp::{max_by_key, Reverse};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use spgist_storage::{
    AccessHint, BufferPool, Codec, EpochManager, EpochPin, Page, PageId, RetiredItem, SlotId,
    StorageError, StorageResult, MAX_RECORD_SIZE, PAGE_SIZE,
};

use crate::node::{Node, NodeId};
use crate::ops::SpGistOps;

/// Number of partially filled pages the store keeps as candidates for new
/// node placement.
const OPEN_PAGE_LIMIT: usize = 16;

/// Record-header tags.  Every node record starts with one byte saying how
/// the node's bytes are laid out.
///
/// A node is usually far smaller than a page, and a leaf of duplicate keys
/// fans out by row id long before it fills one
/// ([`crate::node::ROW_SPLIT_BYTES`]).  What can still outgrow a page is a
/// single record no partitioning shrinks: a key longer than a page, a bucket
/// of very long keys, a giant inner-node prefix, or one `(key, row)` pair
/// inserted so often that the row-id bits run out.  Such a node is spilled
/// transparently across a chain of records — the TOAST idea scaled down to
/// tree nodes — so the internal methods never see a size limit.  The chain
/// is rewritten whole on every update, which is fine for a rarity and was
/// ruinous as the duplicate-key path.
const TAG_INLINE: u8 = 0;
const TAG_CHAIN_HEAD: u8 = 1;
const TAG_CHAIN_CONT: u8 = 2;

/// Per-record header overhead: tag byte + continuation pointer
/// (page `u32` + slot `u16`).
const CHAIN_HEADER: usize = 7;

/// Largest node-byte payload a single record can carry.  Slack is reserved
/// below the hard record limit because dead slot-directory entries are never
/// reclaimed: a full-size chunk would stop fitting on a page after a single
/// free/reallocate cycle, defeating space reuse.
const MAX_CHUNK: usize = MAX_RECORD_SIZE - CHAIN_HEADER - 256;

/// Continuation pointer marking the end of a chain.
const CHAIN_END: NodeId = NodeId {
    page: u32::MAX,
    slot: u16::MAX,
};

fn encode_chain_record(tag: u8, next: NodeId, chunk: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(CHAIN_HEADER + chunk.len());
    tag.encode(&mut out);
    next.page.encode(&mut out);
    next.slot.encode(&mut out);
    out.extend_from_slice(chunk);
    out
}

fn encode_inline_record(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + bytes.len());
    TAG_INLINE.encode(&mut out);
    out.extend_from_slice(bytes);
    out
}

/// Splits a record into its payload and its continuation pointer: a node
/// record (inline, with [`CHAIN_END`], or a chain head), or with `cont` a
/// chain continuation.
fn split_record(mut record: &[u8], cont: bool) -> StorageResult<(&[u8], NodeId)> {
    match (u8::decode(&mut record)?, cont) {
        (TAG_INLINE, false) => Ok((record, CHAIN_END)),
        (TAG_CHAIN_HEAD, false) | (TAG_CHAIN_CONT, true) => {
            let next = NodeId::new(u32::decode(&mut record)?, u16::decode(&mut record)?);
            Ok((record, next))
        }
        (tag, _) => Err(StorageError::Corrupt(format!(
            "node or chain record has unexpected tag {tag}"
        ))),
    }
}

/// The encoded node in `slot` of a pinned page, borrowed in place — or
/// `None` when the node spills across a record chain, which
/// [`NodeStore::visit`] reassembles once the page is released.
pub fn node_in(page: &Page, slot: SlotId) -> StorageResult<Option<&[u8]>> {
    let (bytes, next) = split_record(page.get(slot)?, false)?;
    Ok((next == CHAIN_END).then_some(bytes))
}

/// The child address a node handed to [`NodeStore::group`] carries, an
/// address no record has: the placer writes the real one once the child
/// has it.
pub(crate) const UNPLACED: NodeId = CHAIN_END;

/// Bytes a record costs its page besides its own: the slot-directory entry.
const SLOT: usize = 4;

/// Room an empty page offers a group of records, slot entries included.
const PAGE_ROOM: usize = MAX_RECORD_SIZE + SLOT;

/// The bytes of one page group: half a page, so that the groups placed
/// apart pack two or more to a page.  (A whole page of budget leaves each
/// group alone on a half-empty page: the kd-tree's file doubled.)
const GROUP_BUDGET: usize = PAGE_ROOM / 2;

/// A node the placer has not given an address yet: its record, and for
/// each child pointer in it (by byte offset) the child.
struct Draft {
    record: Vec<u8>,
    kids: Vec<(usize, Kid)>,
}

/// A draft's child: another draft of its group, by index, or a placed node
/// with the page height of its subtree.
#[derive(Clone, Copy)]
enum Kid {
    Draft(usize),
    Placed(NodeId, u32),
}

/// The top of a subtree the placer has not laid out yet, at most a page of
/// records: its root first, and in preorder while the subtree is whole.
/// Built children-first by [`NodeStore::group`], placed by
/// [`NodeStore::place_group`].
pub(crate) struct Group {
    drafts: Vec<Draft>,
    bytes: usize,
    /// The page height the subtree has if the group gets a page of its own.
    height: u32,
    /// The page of the root's tallest child placed apart (of equals, the
    /// last placed, whose page is likeliest to have room), if any: there the
    /// root saves its longest path a page.
    near: Option<PageId>,
}

/// Writes the child pointer at byte `at` of a node's bytes, as
/// [`NodeId`]'s `Codec` encodes it.
fn write_pointer(bytes: &mut [u8], at: usize, child: NodeId) {
    bytes[at..at + 4].copy_from_slice(&child.page.to_le_bytes());
    bytes[at + 4..at + 6].copy_from_slice(&child.slot.to_le_bytes());
}

/// Placement bookkeeping, shared behind a mutex so allocation decisions
/// serialize briefly while page I/O stays parallel.
struct Placement {
    /// Pages owned by this tree, in allocation order.
    pages: Vec<PageId>,
    /// Recently written pages that may still have free space, each with its
    /// room as last seen: [`Page::compacted_free_space`] after this store's
    /// last write, free or refused probe there.  Placement chooses by these
    /// figures and reads only the page it chose.
    open_pages: Vec<(PageId, usize)>,
}

/// Maps tree nodes onto slotted pages obtained from a [`BufferPool`].
pub struct NodeStore {
    pool: Arc<BufferPool>,
    placement: Mutex<Placement>,
    epochs: Arc<EpochManager>,
    /// Hint passed with every page access, as `AccessHint as u8`.
    /// [`AccessHint::Normal`] for point operations; bulk build and
    /// whole-tree sweeps switch to [`AccessHint::Scan`] so their one-touch
    /// pages do not displace the pool's hot set.
    hint: AtomicU8,
}

impl NodeStore {
    /// Creates a store over `pool` that owns no pages yet.
    pub fn new(pool: Arc<BufferPool>) -> Self {
        Self::with_pages(pool, Vec::new())
    }

    /// Re-creates a store that already owns `pages` (a tree re-opened from a
    /// durable catalog).  With the ownership list restored, statistics,
    /// repacking and destruction work exactly as for a tree built in this
    /// session; the most recently allocated pages are re-seeded as placement
    /// candidates so inserts keep filling partially-used pages.
    pub fn with_pages(pool: Arc<BufferPool>, pages: Vec<PageId>) -> Self {
        let skip = pages.len().saturating_sub(OPEN_PAGE_LIMIT);
        // Their room is not known until a probe reads it: recorded as more
        // than any page has, they are tried only when no measured page fits.
        let open = pages[skip..].iter().map(|&page| (page, PAGE_SIZE));
        NodeStore {
            pool,
            placement: Mutex::new(Placement {
                open_pages: open.collect(),
                pages,
            }),
            epochs: Arc::new(EpochManager::new()),
            hint: AtomicU8::new(AccessHint::Normal as u8),
        }
    }

    /// The buffer pool this store writes through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The epoch manager guarding this store's retired records.
    pub fn epochs(&self) -> &Arc<EpochManager> {
        &self.epochs
    }

    /// Pins the current reclamation epoch for a reader.  While the pin is
    /// live, every node record the reader can reach stays readable even if
    /// concurrent writers retire it.
    pub fn pin(&self) -> EpochPin {
        self.epochs.pin()
    }

    /// The access hint currently attached to this store's page traffic.
    pub fn access_hint(&self) -> AccessHint {
        if self.hint.load(Ordering::Relaxed) == AccessHint::Scan as u8 {
            AccessHint::Scan
        } else {
            AccessHint::Normal
        }
    }

    /// Sets the access hint for subsequent page traffic.  Bulk build wraps
    /// itself in [`AccessHint::Scan`] (every page is written once, front to
    /// back); callers must restore [`AccessHint::Normal`] afterwards.
    pub fn set_access_hint(&self, hint: AccessHint) {
        self.hint.store(hint as u8, Ordering::Relaxed);
    }

    /// Number of pages allocated for this tree.
    pub fn page_count(&self) -> usize {
        self.placement.lock().pages.len()
    }

    /// Approximate on-disk size of the tree in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.page_count() as u64 * PAGE_SIZE as u64
    }

    /// Pages owned by this tree (for stats and utilization reports).
    pub fn pages(&self) -> Vec<PageId> {
        self.placement.lock().pages.clone()
    }

    /// Average page utilization in `[0, 1]` (fraction of page bytes holding
    /// record data).
    pub fn utilization(&self) -> StorageResult<f64> {
        let pages = self.pages();
        let mut used = 0;
        for &page in &pages {
            // Whole-tree sweep: never let a utilization report evict the
            // working set.
            let free = self
                .pool
                .with_page_hinted(page, AccessHint::Scan, Page::free_space);
            used += PAGE_SIZE - free?;
        }
        Ok(used as f64 / (pages.len() * PAGE_SIZE).max(1) as f64)
    }

    /// Reads and decodes the node at `id`, reassembling spilled chains
    /// transparently, under the store's current access hint.
    pub fn read<O: SpGistOps>(&self, id: NodeId) -> StorageResult<Node<O>> {
        self.read_hinted(id, self.access_hint())
    }

    /// Reads the node at `id` under an explicit [`AccessHint`] — whole-tree
    /// walks (stats, repack) pass [`AccessHint::Scan`] without flipping the
    /// store-wide hint.
    pub fn read_hinted<O: SpGistOps>(
        &self,
        id: NodeId,
        hint: AccessHint,
    ) -> StorageResult<Node<O>> {
        self.visit(id, hint, Node::decode)
    }

    /// Runs `f` on the encoded node at `id`: in place on its pinned,
    /// read-locked page ([`node_in`]), or — for a node spilled across a
    /// record chain — on its bytes reassembled after that page is released,
    /// so a reader never holds two page guards.
    pub fn visit<R>(
        &self,
        id: NodeId,
        hint: AccessHint,
        mut f: impl FnMut(&[u8]) -> StorageResult<R>,
    ) -> StorageResult<R> {
        let inline = self.pool.with_page_hinted(id.page, hint, |p| {
            node_in(p, id.slot).map(|node| node.map(&mut f))
        })??;
        inline.unwrap_or_else(|| f(&self.read_bytes(id, hint)?))
    }

    /// The node bytes at `id`, copied out of the page and, when the node
    /// spills, reassembled from its chain one page at a time.  The head is
    /// read afresh: a writer may have rewritten it inline since a reader saw
    /// it chained, and either version is a valid node.
    fn read_bytes(&self, id: NodeId, hint: AccessHint) -> StorageResult<Vec<u8>> {
        let (mut bytes, mut cursor) = self.pool.with_page_hinted(id.page, hint, |p| {
            split_record(p.get(id.slot)?, false).map(|(chunk, next)| (chunk.to_vec(), next))
        })??;
        while cursor != CHAIN_END {
            cursor = self.pool.with_page_hinted(cursor.page, hint, |p| {
                let (chunk, next) = split_record(p.get(cursor.slot)?, true)?;
                bytes.extend_from_slice(chunk);
                StorageResult::Ok(next)
            })??;
        }
        Ok(bytes)
    }

    /// Places a brand-new node whose children (if any) already have
    /// addresses, preferring the page `near` (its parent's): the one-node
    /// case of the placer.  Nodes larger than a page spill across a record
    /// chain.  Returns the node's address.
    pub fn allocate<O: SpGistOps>(
        &self,
        node: &Node<O>,
        near: Option<PageId>,
    ) -> StorageResult<NodeId> {
        self.place_record(&self.encode_node_record(&node.encode())?, near)
    }

    /// Hands the placer `node`, children-first: `kids` are its children's
    /// groups in pointer order, and the child addresses `node` carries are
    /// not read.  Returns the node's group, still unplaced; the children
    /// it does not keep are placed now (see the module docs).
    pub(crate) fn group<O: SpGistOps>(
        &self,
        node: &Node<O>,
        kids: Vec<Group>,
    ) -> StorageResult<Group> {
        let mut pointers = Vec::new();
        let bytes = node.encode_marking(&mut pointers);
        self.join(bytes, &pointers, kids)
    }

    /// [`NodeStore::group`] for a node already encoded, its child pointers
    /// at the byte offsets `pointers`: the bulk build encodes a leaf straight
    /// from the items it partitions.
    pub(crate) fn join(
        &self,
        mut bytes: Vec<u8>,
        pointers: &[usize],
        kids: Vec<Group>,
    ) -> StorageResult<Group> {
        // The root's page keeps the tallest children's groups when they fit,
        // so the page height grows only where it must; every other child is
        // placed now.  Children go largest first, so the small groups placed
        // apart fill the gaps the large ones leave.  (A node spilled across a
        // chain, cut into chunks once its bytes are final, is past the budget
        // and keeps none.)
        let height = kids.iter().map(|kid| kid.height).max().unwrap_or(0);
        let tallest: usize = kids
            .iter()
            .filter(|kid| kid.height == height)
            .map(|kid| kid.bytes)
            .sum();
        let keep = 1 + bytes.len() + SLOT + tallest <= GROUP_BUDGET;
        let mut kids: Vec<(usize, Group)> = pointers.iter().copied().zip(kids).collect();
        kids.sort_by_key(|(_, kid)| Reverse(kid.bytes));
        let (mut placed, mut kept, mut near) = (Vec::new(), Vec::new(), (0, None));
        for (at, kid) in kids {
            // The record starts with its one-byte tag.
            if keep && kid.height == height {
                kept.push((at + 1, kid));
            } else {
                let (child, height) = self.place_group(kid, None)?;
                write_pointer(&mut bytes, at, child);
                placed.push((at + 1, Kid::Placed(child, height)));
                near = max_by_key(near, (height, Some(child.page)), |near| near.0);
            }
        }
        let record = self.encode_node_record(&bytes)?;
        let mut group = Group {
            bytes: record.len() + SLOT,
            drafts: vec![Draft {
                record,
                kids: placed,
            }],
            height: if keep { height.max(1) } else { height + 1 },
            near: near.1,
        };
        for (at, kid) in kept {
            let base = group.drafts.len();
            group.drafts[0].kids.push((at, Kid::Draft(base)));
            group.bytes += kid.bytes;
            group.drafts.extend(kid.drafts.into_iter().map(|mut draft| {
                for (_, kid) in &mut draft.kids {
                    if let Kid::Draft(d) = kid {
                        *d += base;
                    }
                }
                draft
            }));
        }
        Ok(group)
    }

    /// Writes what is left of a group onto the page the placement rule
    /// chooses, preferring `near` — or, when the caller names none, the page
    /// of the root's tallest child placed apart — and returns the root's
    /// address and the page height of its subtree: the pages on its longest
    /// downward path, its own page included.
    pub(crate) fn place_group(
        &self,
        group: Group,
        near: Option<PageId>,
    ) -> StorageResult<(NodeId, u32)> {
        let near = near.or(group.near);
        let (mut drafts, mut height) = (group.drafts, 1);
        let root = self.place(group.bytes, near, |p, page| {
            // A record takes the page's next slot, so every draft's address
            // is known before the first one is written.
            let base = p.num_slots();
            let id = |d: usize| NodeId::new(page, base + d as u16);
            for (d, draft) in drafts.iter_mut().enumerate() {
                for &(at, kid) in &draft.kids {
                    match kid {
                        Kid::Draft(child) => write_pointer(&mut draft.record, at, id(child)),
                        Kid::Placed(child, below) => {
                            height = height.max(below + u32::from(child.page != page))
                        }
                    }
                }
                assert_eq!(p.insert(&draft.record)?, id(d).slot, "next slot taken");
            }
            Ok(id(0))
        })?;
        Ok((root, height))
    }

    /// Encodes node bytes into the record written at the node's address:
    /// inline when they fit a single record, otherwise a chain head whose
    /// continuation records are placed as a side effect.
    fn encode_node_record(&self, bytes: &[u8]) -> StorageResult<Vec<u8>> {
        if bytes.len() < MAX_RECORD_SIZE {
            return Ok(encode_inline_record(bytes));
        }
        let next = self.place_continuations(bytes)?;
        Ok(encode_chain_record(
            TAG_CHAIN_HEAD,
            next,
            &bytes[..MAX_CHUNK],
        ))
    }

    /// Writes every chunk of `bytes` past the first into continuation
    /// records (tail-first, so each record knows its successor) and returns
    /// the id of the first continuation.
    fn place_continuations(&self, bytes: &[u8]) -> StorageResult<NodeId> {
        let mut next = CHAIN_END;
        let mut chunks: Vec<&[u8]> = bytes[MAX_CHUNK..].chunks(MAX_CHUNK).collect();
        while let Some(chunk) = chunks.pop() {
            let record = encode_chain_record(TAG_CHAIN_CONT, next, chunk);
            next = self.place_record(&record, None)?;
        }
        Ok(next)
    }

    /// Retires every continuation record from `cursor` to the end of a
    /// chain.  The records stay readable until [`NodeStore::reclaim`]
    /// collects them past the last protecting reader epoch.
    fn retire_chain_from(&self, mut cursor: NodeId) -> StorageResult<()> {
        while cursor != CHAIN_END {
            let next = self.next_record(cursor, true)?;
            self.epochs
                .retire(RetiredItem::Slot(cursor.page, cursor.slot));
            cursor = next;
        }
        Ok(())
    }

    /// The continuation pointer of the record at `id` (see [`split_record`]).
    fn next_record(&self, id: NodeId, cont: bool) -> StorageResult<NodeId> {
        self.pool
            .with_page_hinted(id.page, self.access_hint(), |p| {
                split_record(p.get(id.slot)?, cont).map(|(_, next)| next)
            })?
    }

    /// Rewrites the node at `id` in place when possible.  If the new encoding
    /// no longer fits in its page the node is relocated copy-on-write
    /// (preferring `near`) and the new address is returned: the *old* record
    /// and its spill chain stay intact for concurrent snapshot readers, and
    /// the caller must fix the parent's child pointer and then call
    /// [`NodeStore::retire_node`] on the old address.  Returns `None` when
    /// the update happened in place (any superseded spill chain is retired
    /// here).  Even a shrinking update can relocate — an inline record is up
    /// to `CHAIN_HEADER - 1` bytes larger than the chain head it replaces —
    /// so every caller knows the parent pointer.
    pub fn update<O: SpGistOps>(
        &self,
        id: NodeId,
        node: &Node<O>,
        near: Option<PageId>,
    ) -> StorageResult<Option<NodeId>> {
        // Any previous spill chain is replaced wholesale by fresh
        // continuation records; the old ones are retired, never mutated, so
        // a reader holding the old head still reassembles the old node.
        let record = self.encode_node_record(&node.encode())?;
        let (updated, old_chain) =
            self.pool
                .with_page_mut_hinted(id.page, self.access_hint(), |p| {
                    let (_, old_chain) = split_record(p.get(id.slot)?, false)?;
                    StorageResult::Ok((p.update(id.slot, &record)?, old_chain))
                })??;
        if updated {
            self.retire_chain_from(old_chain)?;
            return Ok(None);
        }
        // Relocate copy-on-write: the old record keeps its content (and its
        // chain) until the caller retires it.
        self.place_record(&record, near).map(Some)
    }

    /// Rewrites in place an index node whose child pointers changed: they
    /// are fixed-width, so the record keeps its size and cannot move.
    pub fn patch<O: SpGistOps>(&self, id: NodeId, node: &Node<O>) -> StorageResult<()> {
        match self.update(id, node, None)? {
            None => Ok(()),
            Some(_) => Err(StorageError::Corrupt(
                "fixed-width child-pointer patch relocated its node".into(),
            )),
        }
    }

    /// Retires the node record at `id` and its spill chain, handing them to
    /// the epoch manager.  Call after the last pointer to `id` has been
    /// unlinked from the tree; readers pinned before the unlink keep reading
    /// the records until [`NodeStore::reclaim`] passes their epoch.
    pub fn retire_node(&self, id: NodeId) -> StorageResult<()> {
        let chain = self.next_record(id, false)?;
        self.epochs.retire(RetiredItem::Slot(id.page, id.slot));
        self.retire_chain_from(chain)
    }

    /// Physically frees every retired item that no live reader epoch can
    /// reference: retired slots are deleted from their pages (and the page
    /// re-enters placement candidates), retired pages go back to the buffer
    /// pool.  Writers call this opportunistically after each operation.
    pub fn reclaim(&self) -> StorageResult<()> {
        for item in self.epochs.take_reclaimable() {
            match item {
                RetiredItem::Slot(page, slot) => {
                    let hint = self.access_hint();
                    let room = self.pool.with_page_mut_hinted(page, hint, |p| {
                        p.delete(slot).map(|()| p.compacted_free_space())
                    })??;
                    self.note_room(page, room);
                }
                RetiredItem::Page(page) => {
                    let mut placement = self.placement.lock();
                    placement.open_pages.retain(|&(p, _)| p != page);
                    drop(placement);
                    self.pool.free_page(page)?;
                }
            }
        }
        Ok(())
    }

    /// Starts a repack: clears the open-page candidates so every placement
    /// from here on goes to freshly allocated pages, and returns the
    /// pre-repack owned-page snapshot for [`NodeStore::finish_repack`].
    pub fn begin_repack(&self) -> Vec<PageId> {
        let mut placement = self.placement.lock();
        placement.open_pages.clear();
        placement.pages.clone()
    }

    /// Finishes a repack: drops `old`, the pages owned before it, from the
    /// owned-page list and retires them.  Readers pinned before the root
    /// flipped to the rebuilt layout keep traversing the old pages until
    /// reclamation passes them.  No old page is a candidate: the candidates
    /// were cleared at the start, and only fresh pages were written since.
    pub fn finish_repack(&self, old: &[PageId]) {
        self.placement.lock().pages.retain(|p| !old.contains(p));
        for &page in old {
            self.epochs.retire(RetiredItem::Page(page));
        }
    }

    /// The placement rule, the one place a new record's page is chosen:
    /// records costing `bytes` (slot entries included) go on `near` (their
    /// parent's page) if they fit, else on the open page whose recorded room
    /// they fit most tightly, else on a fresh page.  `write` inserts them
    /// under the page latch, told which page they got.
    fn place<R>(
        &self,
        bytes: usize,
        near: Option<PageId>,
        mut write: impl FnMut(&mut Page, PageId) -> StorageResult<R>,
    ) -> StorageResult<R> {
        if let Some(parent_page) = near {
            if let Some(placed) = self.try_place_in(parent_page, bytes, &mut write)? {
                return Ok(placed);
            }
        }
        // Best fit by the figures, reading only the page chosen.  A figure
        // can be stale (an in-place update has grown a record since): the
        // page's own check refuses then and corrects it, and the next best
        // is tried.
        while let Some(page) = self.best_fit(bytes - SLOT) {
            if let Some(placed) = self.try_place_in(page, bytes, &mut write)? {
                return Ok(placed);
            }
        }
        let page = self.pool.allocate_page_hinted(self.access_hint())?;
        self.placement.lock().pages.push(page);
        self.try_place_in(page, bytes, &mut write)?
            .ok_or_else(|| StorageError::Corrupt("an empty page refused a placement".into()))
    }

    /// The open page whose recorded room takes a record of `len` bytes most
    /// tightly.
    fn best_fit(&self, len: usize) -> Option<PageId> {
        let placement = self.placement.lock();
        let fitting = placement.open_pages.iter().filter(|open| open.1 >= len);
        fitting.min_by_key(|open| open.1).map(|open| open.0)
    }

    /// The placement rule for one record.
    fn place_record(&self, record: &[u8], near: Option<PageId>) -> StorageResult<NodeId> {
        self.place(record.len() + SLOT, near, |p, page| {
            Ok(NodeId::new(page, p.insert(record)?))
        })
    }

    fn try_place_in<R>(
        &self,
        page: PageId,
        bytes: usize,
        write: &mut impl FnMut(&mut Page, PageId) -> StorageResult<R>,
    ) -> StorageResult<Option<R>> {
        // `fits` counts the slot entry of one record itself.
        let len = bytes - SLOT;
        // Fit is decided read-only, from the live bytes, so a probe that
        // cannot place leaves the page clean and its records where they lie.
        let room = self
            .pool
            .with_page_hinted(page, self.access_hint(), |p| p.compacted_free_space())?;
        if room < len {
            self.note_room(page, room);
            return Ok(None);
        }
        // Fit check, slide and insert run as one atomic page operation so a
        // concurrent placement cannot steal the space between the check and
        // the insert.  Deleted records and shrinking updates leave gaps only
        // a slide reclaims: the lowest records move up until the free gap
        // holds the records (slot ids survive it, so node addresses stay
        // valid).
        let (placed, room) = self
            .pool
            .with_page_mut_hinted(page, self.access_hint(), |p| {
                if p.compacted_free_space() < len {
                    return Ok((None, p.compacted_free_space()));
                } else if !p.fits(len) {
                    p.make_room(len);
                }
                write(p, page).map(|placed| (Some(placed), p.compacted_free_space()))
            })??;
        self.note_room(page, room);
        Ok(placed)
    }

    /// Records the room `page` has after a write, a free or a refused
    /// probe there, and makes it the most recent candidate; a nearly full
    /// page (under 64 bytes of room) leaves the candidates.
    fn note_room(&self, page: PageId, room: usize) {
        let mut placement = self.placement.lock();
        // Reclamation can hand back a slot on a page this store no longer
        // owns (retired wholesale by a repack); such a page must never
        // become a placement candidate again.
        if !placement.pages.contains(&page) {
            return;
        }
        let open = &mut placement.open_pages;
        open.retain(|&(p, _)| p != page);
        if room >= 64 {
            open.push((page, room));
        }
        if open.len() > OPEN_PAGE_LIMIT {
            open.remove(0);
        }
    }
}

impl std::fmt::Debug for NodeStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeStore")
            .field("pages", &self.page_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Entry;
    use crate::testing::DigitTrieOps;
    use spgist_storage::BufferPool;

    type TestNode = Node<DigitTrieOps>;

    fn store() -> NodeStore {
        NodeStore::new(BufferPool::in_memory())
    }

    fn leaf(n: u32) -> TestNode {
        Node::Leaf {
            items: (0..n).map(|i| (i, u64::from(i))).collect(),
        }
    }

    /// Applies an update under the concurrent contract: on relocation the
    /// old record is retired and reclaimed (no readers in these tests).
    fn update_retiring(store: &NodeStore, id: NodeId, node: &TestNode) -> NodeId {
        match store.update(id, node, None).unwrap() {
            Some(new_id) => {
                store.retire_node(id).unwrap();
                store.reclaim().unwrap();
                new_id
            }
            None => id,
        }
    }

    #[test]
    fn allocate_and_read_roundtrip() {
        let store = store();
        let node = leaf(5);
        let id = store.allocate(&node, None).unwrap();
        let read: TestNode = store.read(id).unwrap();
        assert_eq!(read, node);
    }

    #[test]
    fn parent_first_packs_children_with_parent() {
        let store = store();
        let parent_id = store.allocate(&leaf(1), None).unwrap();
        let mut same_page = 0;
        for _ in 0..10 {
            let child_id = store.allocate(&leaf(2), Some(parent_id.page)).unwrap();
            if child_id.page == parent_id.page {
                same_page += 1;
            }
        }
        assert_eq!(
            same_page, 10,
            "small children should share the parent's page"
        );
        assert_eq!(store.page_count(), 1);
    }

    /// A digit-trie subtree `levels` inner levels deep, ten entries per
    /// inner node and `items` items per leaf, handed to the placer.
    fn subtree(store: &NodeStore, levels: u32, items: u32) -> Group {
        if levels == 0 {
            return store.group(&leaf(items), Vec::new()).unwrap();
        }
        let kids = (0..10).map(|_| subtree(store, levels - 1, items)).collect();
        let entries = (0..10)
            .map(|pred| Entry {
                pred,
                child: UNPLACED,
            })
            .collect();
        let inner: TestNode = Node::Inner {
            prefix: None,
            entries,
        };
        store.group(&inner, kids).unwrap()
    }

    /// Every node of the subtree at `id`, with the pages on its path from
    /// `id` (`id`'s own page counted).
    fn paths(store: &NodeStore, id: NodeId) -> Vec<(NodeId, u32)> {
        let (mut stack, mut seen) = (vec![(id, None, 0)], Vec::new());
        while let Some((id, parent_page, pages)) = stack.pop() {
            let pages = crate::tree::path_pages(parent_page, pages, id.page);
            seen.push((id, pages));
            let node: TestNode = store.read(id).unwrap();
            stack.extend(
                node.children()
                    .into_iter()
                    .map(|c| (c, Some(id.page), pages)),
            );
        }
        seen
    }

    #[test]
    fn a_subtree_that_fits_lands_whole_on_its_parents_page() {
        let store = store();
        let parent = store.allocate(&leaf(1), None).unwrap();
        // An inner node over ten small leaves: about 300 bytes.
        let (root, height) = store
            .place_group(subtree(&store, 1, 3), Some(parent.page))
            .unwrap();
        assert_eq!(height, 1);
        let placed = paths(&store, root);
        assert_eq!(placed.len(), 11);
        assert!(placed.iter().all(|(id, _)| id.page == parent.page));
        assert_eq!(store.page_count(), 1);
    }

    #[test]
    fn a_multi_page_subtree_has_the_page_height_the_placer_returned() {
        let store = store();
        // A thousand leaves of forty items: over 25 pages' worth.
        let (root, height) = store.place_group(subtree(&store, 3, 40), None).unwrap();
        let placed = paths(&store, root);
        assert_eq!(placed.len(), 1 + 10 + 100 + 1000);
        assert!(store.page_count() > 25, "{} pages", store.page_count());
        let measured = placed.iter().map(|&(_, pages)| pages).max().unwrap();
        assert!(measured > 1);
        assert_eq!(height, measured);
        let mut leaves: TestNode = store.read(root).unwrap();
        while let Node::Inner { entries, .. } = leaves {
            leaves = store.read(entries[3].child).unwrap();
        }
        assert_eq!(leaves, leaf(40), "pointers lead where they were drafted");
    }

    #[test]
    fn a_placement_reads_only_the_page_it_picks() {
        let store = store();
        // Records of over half a page each open a page of their own, until
        // every candidate has room left for a small one.
        let n = (1..)
            .find(|&n| leaf(n).encode().len() > PAGE_SIZE * 6 / 10)
            .unwrap();
        for _ in 0..OPEN_PAGE_LIMIT {
            store.allocate(&leaf(n), None).unwrap();
        }
        assert_eq!(store.page_count(), OPEN_PAGE_LIMIT);
        let before = store.pool().stats().logical_reads;
        store.allocate(&leaf(3), None).unwrap();
        let reads = store.pool().stats().logical_reads - before;
        assert_eq!(reads, 2, "the fit probe and the write, on one page");
        assert_eq!(store.page_count(), OPEN_PAGE_LIMIT, "a candidate took it");
    }

    #[test]
    fn update_in_place_when_it_fits() {
        let store = store();
        let id = store.allocate(&leaf(4), None).unwrap();
        let relocated = store.update(id, &leaf(3), None).unwrap();
        assert!(relocated.is_none());
        let read: TestNode = store.read(id).unwrap();
        assert_eq!(read, leaf(3));
    }

    #[test]
    fn update_relocates_when_page_is_full() {
        let store = store();
        let id = store.allocate(&leaf(1), None).unwrap();
        // Fill the rest of the page with other nodes.
        loop {
            let filler = leaf(100);
            let bytes_len = filler.encode().len();
            let fits = store
                .pool()
                .with_page(id.page, |p| p.fits(bytes_len))
                .unwrap();
            if !fits {
                break;
            }
            store.allocate(&filler, Some(id.page)).unwrap();
        }
        // Growing the first node must relocate it.
        let big = leaf(200);
        let new_id = store.update(id, &big, None).unwrap();
        let new_id = new_id.expect("node must relocate out of the full page");
        assert_ne!(new_id, id);
        let read: TestNode = store.read(new_id).unwrap();
        assert_eq!(read, big);
        // Copy-on-write: until the caller retires it, the old address still
        // serves the old content (a snapshot reader may hold it).
        assert_eq!(store.read::<DigitTrieOps>(id).unwrap(), leaf(1));
        store.retire_node(id).unwrap();
        store.reclaim().unwrap();
        assert!(store.read::<DigitTrieOps>(id).is_err());
    }

    #[test]
    fn retired_records_survive_until_pins_pass() {
        let store = store();
        let id = store.allocate(&leaf(7), None).unwrap();
        let pin = store.pin();
        store.retire_node(id).unwrap();
        store.reclaim().unwrap();
        assert_eq!(
            store.read::<DigitTrieOps>(id).unwrap(),
            leaf(7),
            "a pinned reader must still see the retired record"
        );
        drop(pin);
        store.reclaim().unwrap();
        assert!(store.read::<DigitTrieOps>(id).is_err());
    }

    #[test]
    fn free_reclaims_space_for_future_nodes() {
        let store = store();
        let id = store.allocate(&leaf(50), None).unwrap();
        // Fill the first page until placement has to open a second one.
        while store.page_count() == 1 {
            store.allocate(&leaf(50), Some(id.page)).unwrap();
        }
        store.retire_node(id).unwrap();
        store.reclaim().unwrap();
        assert!(store.read::<DigitTrieOps>(id).is_err());
        // The freed bytes host the next node of that size on the old page.
        let reused = store.allocate(&leaf(50), Some(id.page)).unwrap();
        assert_eq!(reused.page, id.page, "the freed space is reused");
        assert_eq!(store.page_count(), 2);
    }

    #[test]
    fn a_probe_that_cannot_place_writes_nothing() {
        let store = store();
        let small = store.allocate(&leaf(1), None).unwrap();
        while store.page_count() == 1 {
            store.allocate(&leaf(50), Some(small.page)).unwrap();
        }
        // A full page with one small dead slot, flushed clean.
        store.retire_node(small).unwrap();
        store.reclaim().unwrap();
        store.pool().flush_all().unwrap();
        let page = small.page;
        let before = store.pool().with_page(page, Page::clone).unwrap();
        assert!(before.num_live_records() < before.num_slots());
        // A record that even a compacted page cannot take.
        let record = encode_inline_record(&leaf(100).encode());
        let mut compacted = before.clone();
        compacted.compact();
        assert!(!compacted.fits(record.len()));

        let mut insert = |p: &mut Page, _| p.insert(&record);
        let placed = store.try_place_in(page, record.len() + SLOT, &mut insert);
        assert_eq!(placed.unwrap(), None);
        assert!(
            store.pool().dirty_page_ids().is_empty(),
            "a refused probe dirtied its page"
        );
        let after = store.pool().with_page(page, Page::clone).unwrap();
        assert_eq!(after.as_bytes(), before.as_bytes(), "nor moved a record");
    }

    #[test]
    fn utilization_reflects_packing() {
        let store = store();
        assert_eq!(store.utilization().unwrap(), 0.0);
        for _ in 0..200 {
            store.allocate(&leaf(8), None).unwrap();
        }
        let packed = store.utilization().unwrap();
        assert!(
            packed > 0.5 && packed <= 1.0,
            "200 small nodes share a few pages, not one each ({packed:.3})"
        );
    }

    #[test]
    fn oversized_nodes_spill_across_a_record_chain() {
        let store = store();
        // ~36 KB of items (six bytes each past row 127): several
        // continuation records.
        let huge = leaf(6000);
        assert!(
            huge.encode().len() > 4 * PAGE_SIZE,
            "test node must be oversized"
        );
        let id = store.allocate(&huge, None).unwrap();
        let read: TestNode = store.read(id).unwrap();
        assert_eq!(read, huge);

        // Growing and shrinking the chained node keeps it readable.
        let bigger = leaf(7000);
        let id = update_retiring(&store, id, &bigger);
        assert_eq!(store.read::<DigitTrieOps>(id).unwrap(), bigger);
        let small = leaf(2);
        let id = update_retiring(&store, id, &small);
        assert_eq!(store.read::<DigitTrieOps>(id).unwrap(), small);

        // Freeing a chained node reclaims its continuation records: a fresh
        // oversized allocation reuses the freed space instead of only
        // growing the file.
        let id = store.allocate(&huge, None).unwrap();
        let pages_before = store.page_count();
        store.retire_node(id).unwrap();
        store.reclaim().unwrap();
        let id2 = store.allocate(&huge, None).unwrap();
        assert_eq!(
            store.page_count(),
            pages_before,
            "freed chain space is reused"
        );
        assert_eq!(store.read::<DigitTrieOps>(id2).unwrap(), huge);
    }

    #[test]
    fn shrinking_a_chained_node_keeps_its_contents_wherever_it_lands() {
        let store = store();
        let huge = leaf(3500);
        let id = store.allocate(&huge, None).unwrap();
        // Fill the head's page so an in-place rewrite larger than the old
        // head record cannot fit.
        let filler = leaf(1);
        let filler_len = filler.encode().len() + 1;
        loop {
            let free = store.pool().with_page(id.page, |p| p.free_space()).unwrap();
            if free < filler_len + 8 {
                break;
            }
            store.allocate(&filler, Some(id.page)).unwrap();
        }
        // Shrink into the awkward window just below the inline threshold,
        // where the inline record (1 + len) is larger than the chain head
        // record it replaces (MAX_RECORD_SIZE - 256 bytes): the one shrink
        // that may have to move, which is why every caller of `update`
        // (deletes included) carries the parent pointer.
        let n = (0..u32::MAX)
            .find(|&n| {
                let len = leaf(n).encode().len();
                len > MAX_RECORD_SIZE - 250 && len < MAX_RECORD_SIZE
            })
            .expect("item granularity is far below the 250-byte window");
        let shrunk = leaf(n);
        let id = update_retiring(&store, id, &shrunk);
        assert_eq!(store.read::<DigitTrieOps>(id).unwrap(), shrunk);
        store.reclaim().unwrap();
        assert_eq!(store.epochs().backlog(), 0, "the old chain is reclaimed");
        // Shrinking all the way down to a trivial node stays in place.
        let tiny = leaf(2);
        assert!(store.update(id, &tiny, None).unwrap().is_none());
        assert_eq!(store.read::<DigitTrieOps>(id).unwrap(), tiny);
    }

    #[test]
    fn chained_rewrite_keeps_old_chain_readable_for_pinned_readers() {
        let store = store();
        let old = leaf(3500);
        let id = store.allocate(&old, None).unwrap();
        let pin = store.pin();
        // An in-place head rewrite replaces the spill chain with fresh
        // continuations and retires the old ones; with the pin live they
        // must not be reclaimed (the reader may hold the old head bytes and
        // walk the old chain).
        let new = leaf(3600);
        let relocated = store.update(id, &new, None).unwrap();
        store.reclaim().unwrap();
        let id = match relocated {
            Some(new_id) => {
                store.retire_node(id).unwrap();
                new_id
            }
            None => id,
        };
        assert_eq!(store.read::<DigitTrieOps>(id).unwrap(), new);
        assert!(
            store.epochs().backlog() > 0,
            "old chain records must still be parked in the retire list"
        );
        drop(pin);
        store.reclaim().unwrap();
        assert_eq!(store.epochs().backlog(), 0);
        assert_eq!(store.read::<DigitTrieOps>(id).unwrap(), new);
    }

    #[test]
    fn inner_nodes_roundtrip_through_store() {
        let store = store();
        let child = store.allocate(&leaf(1), None).unwrap();
        let inner: TestNode = Node::Inner {
            prefix: None,
            entries: vec![Entry { pred: 7, child }],
        };
        let id = store.allocate(&inner, None).unwrap();
        let read: TestNode = store.read(id).unwrap();
        assert_eq!(read, inner);
    }
}
