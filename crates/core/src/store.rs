//! Node→page storage mapping with clustering.
//!
//! Space-partitioning tree nodes are much smaller than disk pages, so the
//! crucial disk-based design question — raised explicitly in the paper's
//! Section 3 — is how to pack tree nodes into pages so that root-to-leaf
//! traversals touch as few pages as possible.  The paper relies on the
//! clustering technique of Diwan et al.; [`NodeStore`] implements a greedy
//! approximation with one rule: a new node goes in its parent's page when
//! it fits, else in one of a small set of recently opened pages, and only
//! then in a fresh page.  Subtrees stay physically clustered and the *page*
//! height of the tree stays close to that of a balanced B⁺-tree even though
//! the *node* height is much larger (paper Figures 11–12).
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

/// Placement bookkeeping, shared behind a mutex so allocation decisions
/// serialize briefly while page I/O stays parallel.
struct Placement {
    /// Pages owned by this tree, in allocation order.
    pages: Vec<PageId>,
    /// Recently opened pages that may still have free space.
    open_pages: Vec<PageId>,
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
        let open_pages = pages[skip..].to_vec();
        NodeStore {
            pool,
            placement: Mutex::new(Placement { pages, open_pages }),
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
        if pages.is_empty() {
            return Ok(0.0);
        }
        let mut used = 0usize;
        for &page in &pages {
            // Whole-tree sweep: never let a utilization report evict the
            // working set.
            let free = self
                .pool
                .with_page_hinted(page, AccessHint::Scan, |p| p.free_space())?;
            used += PAGE_SIZE - free;
        }
        Ok(used as f64 / (pages.len() * PAGE_SIZE) as f64)
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

    /// Places a brand-new node, preferring the page `near` (its parent's).
    /// Nodes larger than a page spill across a record chain.  Returns the
    /// node's address.
    pub fn allocate<O: SpGistOps>(
        &self,
        node: &Node<O>,
        near: Option<PageId>,
    ) -> StorageResult<NodeId> {
        let bytes = node.encode();
        let record = self.encode_node_record(&bytes)?;
        self.place(&record, near)
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
            next = self.place(&record, None)?;
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
        let new_id = self.place(&record, near)?;
        Ok(Some(new_id))
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

    /// Retires whole page `page` (used by repack after the root flips to the
    /// rebuilt layout).  The page must already be unreachable from the
    /// current tree and removed from this store's owned-page list.
    pub fn retire_page(&self, page: PageId) {
        self.epochs.retire(RetiredItem::Page(page));
    }

    /// Physically frees every retired item that no live reader epoch can
    /// reference: retired slots are deleted from their pages (and the page
    /// re-enters placement candidates), retired pages go back to the buffer
    /// pool.  Writers call this opportunistically after each operation.
    pub fn reclaim(&self) -> StorageResult<()> {
        for item in self.epochs.take_reclaimable() {
            match item {
                RetiredItem::Slot(page, slot) => {
                    self.pool
                        .with_page_mut_hinted(page, self.access_hint(), |p| p.delete(slot))??;
                    self.note_open_page(page);
                }
                RetiredItem::Page(page) => {
                    let mut placement = self.placement.lock();
                    placement.open_pages.retain(|&p| p != page);
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

    /// Finishes a repack: drops `old_pages` from the owned-page list and
    /// retires them.  Readers pinned before the root flipped to the rebuilt
    /// layout keep traversing the old pages until reclamation passes them.
    pub fn finish_repack(&self, old_pages: &[PageId]) {
        {
            let mut placement = self.placement.lock();
            placement.pages.retain(|p| !old_pages.contains(p));
            placement.open_pages.retain(|p| !old_pages.contains(p));
        }
        for &page in old_pages {
            self.retire_page(page);
        }
    }

    /// The placement rule: the parent's page, then the open-page list, then
    /// a fresh page.
    fn place(&self, bytes: &[u8], near: Option<PageId>) -> StorageResult<NodeId> {
        if let Some(parent_page) = near {
            if let Some(id) = self.try_place_in(parent_page, bytes)? {
                return Ok(id);
            }
        }
        // Scan the open-page list most-recent-first.  The list is sampled
        // under the placement lock but probed outside it; a stale candidate
        // just fails its fit check.
        let candidates: Vec<PageId> = {
            let placement = self.placement.lock();
            placement.open_pages.iter().rev().copied().collect()
        };
        for page in candidates {
            if let Some(id) = self.try_place_in(page, bytes)? {
                return Ok(id);
            }
            // The page could not host this node; drop it from the candidates
            // if it is nearly full to keep the list useful.
            let free = self
                .pool
                .with_page_hinted(page, self.access_hint(), |p| p.free_space())?;
            if free < 64 {
                self.placement.lock().open_pages.retain(|&p| p != page);
            }
        }
        self.place_in_new_page(bytes)
    }

    /// Allocates a brand-new page owned by this store and returns its id.
    /// Used by the offline repacker, which decides node placement itself.
    pub fn fresh_page(&self) -> StorageResult<PageId> {
        let page = self.pool.allocate_page_hinted(self.access_hint())?;
        self.placement.lock().pages.push(page);
        Ok(page)
    }

    /// Places `node` in the given page; the caller guarantees the page has
    /// room for it (oversized nodes spill their tail into a chain, with only
    /// the head record in `page`).
    pub fn allocate_in_page<O: SpGistOps>(
        &self,
        node: &Node<O>,
        page: PageId,
    ) -> StorageResult<NodeId> {
        let bytes = node.encode();
        let record = self.encode_node_record(&bytes)?;
        let slot = self
            .pool
            .with_page_mut_hinted(page, self.access_hint(), |p| p.insert(&record))??;
        Ok(NodeId::new(page, slot))
    }

    fn place_in_new_page(&self, bytes: &[u8]) -> StorageResult<NodeId> {
        let page = self.pool.allocate_page_hinted(self.access_hint())?;
        self.placement.lock().pages.push(page);
        self.note_open_page(page);
        let slot = self
            .pool
            .with_page_mut_hinted(page, self.access_hint(), |p| p.insert(bytes))??;
        Ok(NodeId::new(page, slot))
    }

    fn try_place_in(&self, page: PageId, bytes: &[u8]) -> StorageResult<Option<NodeId>> {
        // Read-only precheck so hopeless probes do not dirty the page.
        let hopeless = self.pool.with_page_hinted(page, self.access_hint(), |p| {
            !p.fits(bytes.len()) && p.num_live_records() == p.num_slots()
        })?;
        if hopeless {
            return Ok(None);
        }
        // Fit check, opportunistic compaction, and insert run as one atomic
        // page operation so a concurrent placement cannot steal the space
        // between the check and the insert.  Deleted records leave dead
        // space that only compaction reclaims; compact opportunistically
        // when it could make room (slot ids survive compaction, so node
        // addresses stay valid).
        let slot = self
            .pool
            .with_page_mut_hinted(page, self.access_hint(), |p| {
                if !p.fits(bytes.len()) {
                    if p.num_live_records() < p.num_slots() {
                        p.compact();
                    }
                    if !p.fits(bytes.len()) {
                        return Ok(None);
                    }
                }
                p.insert(bytes).map(Some)
            })??;
        Ok(slot.map(|slot| NodeId::new(page, slot)))
    }

    fn note_open_page(&self, page: PageId) {
        let mut placement = self.placement.lock();
        // Reclamation can hand back a slot on a page this store no longer
        // owns (retired wholesale by a repack); such a page must never
        // become a placement candidate again.
        if !placement.pages.contains(&page) {
            return;
        }
        if let Some(pos) = placement.open_pages.iter().position(|&p| p == page) {
            placement.open_pages.remove(pos);
        }
        placement.open_pages.push(page);
        if placement.open_pages.len() > OPEN_PAGE_LIMIT {
            placement.open_pages.remove(0);
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
        // ~40 KB of items: several continuation records.
        let huge = leaf(3500);
        assert!(
            huge.encode().len() > 4 * PAGE_SIZE,
            "test node must be oversized"
        );
        let id = store.allocate(&huge, None).unwrap();
        let read: TestNode = store.read(id).unwrap();
        assert_eq!(read, huge);

        // Growing and shrinking the chained node keeps it readable.
        let bigger = leaf(4000);
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
