//! Buffer pool with SIEVE eviction and I/O accounting.
//!
//! Every access method in the workspace reads and writes pages through a
//! [`BufferPool`].  The pool keeps a bounded number of frames in memory,
//! chooses eviction victims with SIEVE (see [`crate::replacement`]), and
//! writes dirty frames back to the [`Pager`] on eviction or on
//! [`BufferPool::flush_all`].  Victim selection is amortized O(1) per miss;
//! scan-shaped callers pass [`AccessHint::Scan`] so one-touch pages cannot
//! flush the hot working set.
//!
//! [`IoStats`] counts logical reads (page requests), physical reads (requests
//! that missed the pool and went to the pager), physical writes, and
//! evictions.  The experiment harness reports these counters next to
//! wall-clock time: page-I/O counts are the deterministic component of the
//! paper's timings and reproduce its performance *shapes* even on noisy
//! machines.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PageId};
use crate::pager::Pager;
use crate::replacement::{AccessHint, SieveQueue};

/// Configuration for a [`BufferPool`].
#[derive(Debug, Clone, Copy)]
pub struct BufferPoolConfig {
    /// Maximum number of pages held in memory at once.
    pub capacity: usize,
    /// Whether eviction may **steal** dirty frames (write them back to the
    /// pager mid-run).  `true` is the classic cache behavior.  `false` is
    /// the WAL discipline: between [`BufferPool::flush_all`] calls no data
    /// page reaches the pager at all — eviction picks only clean victims
    /// and the pool grows past `capacity` when every candidate is dirty
    /// (trimming back at the next flush), and [`BufferPool::free_page`]
    /// defers the pager free until the next flush.  Durable databases
    /// force `steal = false` so that after a crash the file holds exactly
    /// the last checkpoint's pages, the state logical WAL replay starts
    /// from.
    pub steal: bool,
}

impl Default for BufferPoolConfig {
    fn default() -> Self {
        // 1024 pages x 8 KiB = 8 MiB, a deliberately small pool so that the
        // experiments exercise eviction even at scaled-down data sizes.
        BufferPoolConfig {
            capacity: 1024,
            steal: true,
        }
    }
}

/// Counters of buffer-pool activity since the last reset.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Page requests served (hits + misses).
    pub logical_reads: u64,
    /// Page requests that had to read from the pager.
    pub physical_reads: u64,
    /// Dirty pages written back to the pager.
    pub physical_writes: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
}

impl IoStats {
    /// Buffer-pool hit ratio in `[0, 1]`; `1.0` when no reads occurred.
    pub fn hit_ratio(&self) -> f64 {
        if self.logical_reads == 0 {
            1.0
        } else {
            1.0 - self.physical_reads as f64 / self.logical_reads as f64
        }
    }

    /// Component-wise difference (`self - earlier`), for measuring a single
    /// operation between two snapshots.
    pub fn delta_since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            logical_reads: self.logical_reads - earlier.logical_reads,
            physical_reads: self.physical_reads - earlier.physical_reads,
            physical_writes: self.physical_writes - earlier.physical_writes,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

/// The shared, individually lockable state of one resident page.
///
/// Page access runs under the per-frame `lock`, *outside* the pool mutex, so
/// concurrent readers and writers of distinct pages never serialize on the
/// pool — the pool mutex covers only the page table, eviction queue, stats,
/// and eviction.  `pins` keeps eviction honest: it is incremented
/// only while holding the pool mutex and checked by the evictor under that
/// same mutex, so a frame observed unpinned cannot concurrently gain an
/// accessor (new accessors need the mutex), and an unpinned frame's lock is
/// free (the pin is dropped only after the page guard).
struct FrameCell {
    lock: RwLock<Page>,
    dirty: AtomicBool,
    /// Bumped on every mutable access (under the frame's write lock).  A
    /// [`BufferPool::dirty_snapshot`] records the epoch with each copied
    /// image; [`BufferPool::flush_snapshot`] marks a frame clean only when
    /// the epoch is unchanged, so a mutation that lands between snapshot
    /// and flush keeps the frame dirty for the next checkpoint.
    dirty_epoch: AtomicU64,
    pins: AtomicU32,
}

impl FrameCell {
    fn new(page: Page, dirty: bool) -> Arc<Self> {
        Arc::new(FrameCell {
            lock: RwLock::new(page),
            dirty: AtomicBool::new(dirty),
            dirty_epoch: AtomicU64::new(0),
            pins: AtomicU32::new(0),
        })
    }
}

/// A point-in-time copy of the pool's dirty frames, taken by
/// [`BufferPool::dirty_snapshot`] under the caller's exclusion and written
/// out later by [`BufferPool::flush_snapshot`].  Lets checkpointing code
/// release its write-blocking guards before paying for the disk I/O.
pub struct DirtyPageSnapshot {
    entries: Vec<SnapshotEntry>,
}

struct SnapshotEntry {
    page_id: PageId,
    image: Page,
    cell: Arc<FrameCell>,
    epoch: u64,
}

impl DirtyPageSnapshot {
    /// Number of captured pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no frame was dirty at snapshot time.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The captured pages with the exact images
    /// [`BufferPool::flush_snapshot`] will write over them — what a
    /// checkpoint journal diffs the on-disk content against first.
    pub fn images(&self) -> impl Iterator<Item = (PageId, &Page)> {
        self.entries.iter().map(|e| (e.page_id, &e.image))
    }
}

struct Frame {
    page_id: PageId,
    cell: Arc<FrameCell>,
}

/// Unpins a frame when the accessor is done, even if its closure panics.
struct PinGuard {
    cell: Arc<FrameCell>,
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        self.cell.pins.fetch_sub(1, Ordering::Release);
    }
}

/// Frames live in a slab (`Vec<Option<Frame>>` + free list) so slot indices
/// stay stable for the lifetime of a resident page — the eviction queue
/// keys its links on slot numbers.
struct PoolInner {
    frames: Vec<Option<Frame>>,
    free_slots: Vec<usize>,
    by_page: HashMap<PageId, usize>,
    queue: SieveQueue,
    stats: IoStats,
    /// Pages released by [`BufferPool::free_page`] under the no-steal
    /// discipline, handed to the pager only at the next
    /// [`BufferPool::flush_all`] — a page the last checkpoint still
    /// references must not be reused (and rewritten on disk) before the
    /// checkpoint that stops referencing it is durable.
    pending_free: Vec<PageId>,
}

impl PoolInner {
    fn occupancy(&self) -> usize {
        self.by_page.len()
    }

    /// Picks the slot to evict, honoring pins and (in no-steal mode) the
    /// dirty-page discipline via the predicate.  The slot stays resident,
    /// mapped and queued until [`PoolInner::clear_slot`].
    fn choose_victim(&mut self, allow_dirty: bool) -> Option<usize> {
        let frames = &self.frames;
        self.queue.victim(|slot| {
            frames[slot].as_ref().is_some_and(|f| {
                f.cell.pins.load(Ordering::Acquire) == 0
                    && (allow_dirty || !f.cell.dirty.load(Ordering::Acquire))
            })
        })
    }

    /// Drops the frame in `slot`: unqueues it, unmaps its page and recycles
    /// the slot.
    fn clear_slot(&mut self, slot: usize) {
        let frame = self.frames[slot].take().expect("clearing an empty slot");
        self.queue.remove(slot);
        self.by_page.remove(&frame.page_id);
        self.free_slots.push(slot);
    }

    /// Places `frame` in a fresh slot and queues it for eviction.
    fn place(&mut self, frame: Frame, hint: AccessHint) -> usize {
        let id = frame.page_id;
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.frames[s] = Some(frame);
                s
            }
            None => {
                self.frames.push(Some(frame));
                self.frames.len() - 1
            }
        };
        self.by_page.insert(id, slot);
        self.queue.insert(slot, hint);
        slot
    }
}

/// A shared, thread-safe buffer pool over a [`Pager`].
pub struct BufferPool {
    pager: Arc<dyn Pager>,
    capacity: usize,
    steal: bool,
    inner: Mutex<PoolInner>,
}

impl BufferPool {
    /// Creates a pool over `pager` with the given configuration.
    pub fn new(pager: Arc<dyn Pager>, config: BufferPoolConfig) -> Self {
        BufferPool {
            pager,
            capacity: config.capacity.max(1),
            steal: config.steal,
            inner: Mutex::new(PoolInner {
                frames: Vec::new(),
                free_slots: Vec::new(),
                by_page: HashMap::new(),
                queue: SieveQueue::new(),
                stats: IoStats::default(),
                pending_free: Vec::new(),
            }),
        }
    }

    /// Creates a pool with the default configuration.
    pub fn with_default_config(pager: Arc<dyn Pager>) -> Self {
        Self::new(pager, BufferPoolConfig::default())
    }

    /// Convenience constructor: a pool over a fresh in-memory pager.
    pub fn in_memory() -> Arc<Self> {
        Arc::new(Self::with_default_config(Arc::new(
            crate::pager::MemPager::new(),
        )))
    }

    /// Number of pages allocated in the underlying pager.
    pub fn page_count(&self) -> u32 {
        self.pager.page_count()
    }

    /// Number of pages on the underlying pager's free list.
    pub fn free_page_count(&self) -> u32 {
        self.pager.free_page_count()
    }

    /// Allocates a new page and returns its id.  The new page starts cached
    /// and clean.
    pub fn allocate_page(&self) -> StorageResult<PageId> {
        self.allocate_page_hinted(AccessHint::Normal)
    }

    /// Allocates a new page, caching it under `hint` — bulk loads pass
    /// [`AccessHint::Scan`] so freshly written run pages do not displace the
    /// read working set.
    pub fn allocate_page_hinted(&self, hint: AccessHint) -> StorageResult<PageId> {
        let id = self.pager.allocate()?;
        let mut inner = self.inner.lock();
        self.install_frame(&mut inner, id, Page::new(), false, hint)?;
        Ok(id)
    }

    /// Returns page `id` to the pager's free list for reuse by a later
    /// [`BufferPool::allocate_page`].  Any cached frame is dropped without
    /// write-back (the content is garbage once the page is free); freeing a
    /// pinned page is an error.
    ///
    /// In no-steal mode the pager free is deferred to the next
    /// [`BufferPool::flush_all`]: freeing a page scribbles a free-list link
    /// into it, and the last durable checkpoint may still reference its old
    /// content.
    pub fn free_page(&self, id: PageId) -> StorageResult<()> {
        let mut inner = self.inner.lock();
        if let Some(&slot) = inner.by_page.get(&id) {
            let pinned = inner.frames[slot]
                .as_ref()
                .is_some_and(|f| f.cell.pins.load(Ordering::Acquire) > 0);
            if pinned {
                return Err(StorageError::Corrupt(format!(
                    "cannot free pinned page {id}"
                )));
            }
            inner.clear_slot(slot);
        }
        if self.steal {
            self.pager.free(id)
        } else {
            // Bounds-check now so bad ids fail at the call site, not at an
            // unrelated later flush.
            let page_count = self.pager.page_count();
            if id >= page_count {
                return Err(StorageError::PageOutOfBounds {
                    requested: id,
                    page_count,
                });
            }
            inner.pending_free.push(id);
            Ok(())
        }
    }

    /// Runs `f` with a shared view of page `id`.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&Page) -> R) -> StorageResult<R> {
        self.with_page_hinted(id, AccessHint::Normal, f)
    }

    /// Runs `f` with a shared view of page `id`, telling eviction how this
    /// access should count ([`AccessHint::Scan`] for one-touch sequential
    /// patterns).
    pub fn with_page_hinted<R>(
        &self,
        id: PageId,
        hint: AccessHint,
        f: impl FnOnce(&Page) -> R,
    ) -> StorageResult<R> {
        let pin = self.pin(id, hint)?;
        let page = pin.cell.lock.read();
        Ok(f(&page))
    }

    /// Runs `f` with a mutable view of page `id`; the page is marked dirty.
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut Page) -> R) -> StorageResult<R> {
        self.with_page_mut_hinted(id, AccessHint::Normal, f)
    }

    /// Runs `f` with a mutable view of page `id`, marked dirty, under the
    /// given access hint (see [`BufferPool::with_page_hinted`]).
    pub fn with_page_mut_hinted<R>(
        &self,
        id: PageId,
        hint: AccessHint,
        f: impl FnOnce(&mut Page) -> R,
    ) -> StorageResult<R> {
        let pin = self.pin(id, hint)?;
        let mut page = pin.cell.lock.write();
        // Marked dirty while the write lock is held, so a concurrent flush
        // either snapshots the page before this mutation (and the flag comes
        // back) or after it (and the mutation is on disk).  The epoch bump
        // invalidates any in-flight dirty snapshot of this frame.
        pin.cell.dirty.store(true, Ordering::Release);
        pin.cell.dirty_epoch.fetch_add(1, Ordering::AcqRel);
        Ok(f(&mut page))
    }

    /// Fetches page `id` (installing it on a miss) and pins its frame.  The
    /// pin is taken under the pool mutex, which is what makes the eviction
    /// check sound; page locking happens after the mutex is released.
    fn pin(&self, id: PageId, hint: AccessHint) -> StorageResult<PinGuard> {
        let mut inner = self.inner.lock();
        let slot = self.fetch(&mut inner, id, hint)?;
        let frame = inner.frames[slot].as_ref().expect("fetched slot is empty");
        frame.cell.pins.fetch_add(1, Ordering::Acquire);
        Ok(PinGuard {
            cell: Arc::clone(&frame.cell),
        })
    }

    /// Writes all dirty frames back to the pager and syncs it, then (in
    /// no-steal mode) publishes deferred frees
    /// ([`publish_pending`](Self::publish_pending)) and trims the pool back
    /// to its configured capacity.  Frames are marked clean only after the
    /// sync succeeds, so a failed sync leaves them dirty and a retry
    /// rewrites them.
    pub fn flush_all(&self) -> StorageResult<()> {
        self.flush_pages_where(|_| true)?;
        self.publish_pending()
    }

    /// Writes the dirty frames in `ids` back to the pager and syncs it,
    /// leaving other dirty frames untouched.  Same retry semantics as
    /// [`flush_all`](Self::flush_all): frames are marked clean only if
    /// the sync succeeds.  Ids in the set that are not resident (or not
    /// dirty) are skipped.
    pub fn flush_pages_subset(&self, ids: &HashSet<PageId>) -> StorageResult<()> {
        self.flush_pages_where(|id| ids.contains(&id))
    }

    /// Writes the dirty frames whose page id passes `wanted` back to the
    /// pager and syncs it.
    fn flush_pages_where(&self, wanted: impl Fn(PageId) -> bool) -> StorageResult<()> {
        let mut inner = self.inner.lock();
        let targets: Vec<(PageId, Arc<FrameCell>)> = inner
            .frames
            .iter()
            .flatten()
            .filter(|f| wanted(f.page_id) && f.cell.dirty.load(Ordering::Acquire))
            .map(|f| (f.page_id, Arc::clone(&f.cell)))
            .collect();
        // Each frame is snapshotted under its page lock and marked clean at
        // that instant; a mutation that lands after the snapshot re-dirties
        // the frame itself.  On any error every flag taken here is restored,
        // so a failed write or sync leaves the frames dirty and a retry
        // rewrites them.
        let mut cleaned: Vec<Arc<FrameCell>> = Vec::new();
        let mut failed = None;
        for (pid, cell) in &targets {
            let page = cell.lock.read();
            if cell.dirty.swap(false, Ordering::AcqRel) {
                cleaned.push(Arc::clone(cell));
                if let Err(e) = self.pager.write(*pid, &page) {
                    failed = Some(e);
                    break;
                }
                inner.stats.physical_writes += 1;
            }
        }
        let result = match failed {
            Some(e) => Err(e),
            None => self.pager.sync(),
        };
        if result.is_err() {
            for cell in &cleaned {
                cell.dirty.store(true, Ordering::Release);
            }
        }
        result
    }

    /// Copies every dirty frame's current image out of the pool without
    /// writing anything to the pager.
    ///
    /// Incremental checkpoints call this inside the quiesce window (all DML
    /// guards held), then drop the guards and persist the copies with
    /// [`flush_snapshot`](Self::flush_snapshot).  The snapshot records each
    /// frame's dirty epoch; a frame mutated after the snapshot keeps its
    /// dirty flag when the snapshot is flushed, so the next checkpoint picks
    /// the newer content up.  The copied images are mutually consistent
    /// because the caller's exclusion (not this method) stops writers.
    pub fn dirty_snapshot(&self) -> DirtyPageSnapshot {
        let inner = self.inner.lock();
        let entries = inner
            .frames
            .iter()
            .flatten()
            .filter(|f| f.cell.dirty.load(Ordering::Acquire))
            .map(|f| {
                let cell = Arc::clone(&f.cell);
                let image = cell.lock.read().clone();
                let epoch = cell.dirty_epoch.load(Ordering::Acquire);
                SnapshotEntry {
                    page_id: f.page_id,
                    image,
                    cell,
                    epoch,
                }
            })
            .collect();
        DirtyPageSnapshot { entries }
    }

    /// Writes the images captured by [`dirty_snapshot`](Self::dirty_snapshot)
    /// to the pager and syncs it.
    ///
    /// A frame is marked clean only if its dirty epoch still matches the one
    /// recorded at snapshot time — frames re-dirtied since the snapshot stay
    /// dirty and their newer content goes out with the next flush.  On any
    /// write or sync error no flag is cleared, so a retry (or the next full
    /// flush) rewrites everything.  Requires a no-steal pool: between the
    /// snapshot and this call nothing else may push frame content to the
    /// pager, or the snapshot images would clobber it.
    pub fn flush_snapshot(&self, snapshot: &DirtyPageSnapshot) -> StorageResult<()> {
        {
            let mut inner = self.inner.lock();
            for entry in &snapshot.entries {
                self.pager.write(entry.page_id, &entry.image)?;
                inner.stats.physical_writes += 1;
            }
        }
        self.pager.sync()?;
        for entry in &snapshot.entries {
            // The frame read lock orders this against a concurrent mutation:
            // the writer bumps the epoch under the write lock, so either we
            // see the bump (and leave the frame dirty) or the mutation has
            // not happened yet and will re-dirty the frame itself.
            let _page = entry.cell.lock.read();
            if entry.cell.dirty_epoch.load(Ordering::Acquire) == entry.epoch {
                entry.cell.dirty.store(false, Ordering::Release);
            }
        }
        Ok(())
    }

    /// Publishes deferred frees to the pager and trims the pool back to its
    /// configured capacity.
    ///
    /// Only after a successful sync may deferred frees reach the pager:
    /// `free` writes a free-list link into the page itself, and until the
    /// sync lands the previous checkpoint (which may reference that
    /// content) is still the recovery point.  A crash between the sync and
    /// this call leaks the pending pages; a leak is safe, premature reuse
    /// is not.  Checkpointing code defers this further — past the deletion
    /// of the checkpoint journal — because a rollback to the previous
    /// checkpoint re-exposes whatever those pages held.
    pub fn publish_pending(&self) -> StorageResult<()> {
        let mut inner = self.inner.lock();
        let pending = std::mem::take(&mut inner.pending_free);
        for id in pending {
            self.pager.free(id)?;
        }
        self.trim(&mut inner)
    }

    /// Page ids of every dirty frame.
    pub fn dirty_page_ids(&self) -> Vec<PageId> {
        self.inner
            .lock()
            .frames
            .iter()
            .flatten()
            .filter(|f| f.cell.dirty.load(Ordering::Acquire))
            .map(|f| f.page_id)
            .collect()
    }

    /// The underlying pager.  Used by checkpointing code to read pre-flush
    /// on-disk page images without them being shadowed by the pool's dirty
    /// copies.
    pub fn pager(&self) -> &Arc<dyn Pager> {
        &self.pager
    }

    /// Drops frames until the pool is back at its configured capacity.
    /// Clean unpinned victims are dropped directly; in steal mode a
    /// dirty-but-unpinned victim is flushed first and then dropped, so a
    /// steal-mode pool always bounds its memory.  In no-steal mode dirty
    /// frames are untouchable between flushes, so trimming stops at the
    /// first round with no clean victim (the caller flushed just before, so
    /// this only persists across a flush failure).
    fn trim(&self, inner: &mut PoolInner) -> StorageResult<()> {
        while inner.occupancy() > self.capacity {
            let evicted =
                self.evict_one(inner, false)? || (self.steal && self.evict_one(inner, true)?);
            if !evicted {
                break; // everything left is pinned (or, in no-steal mode, dirty)
            }
        }
        Ok(())
    }

    /// Evicts one unpinned frame — a clean one unless `allow_dirty` — and
    /// reports whether there was one.  A dirty victim is written back while
    /// its frame is still resident, mapped and queued, so a failed write
    /// loses nothing: the page stays cached and dirty, and the next eviction
    /// retries it.
    fn evict_one(&self, inner: &mut PoolInner, allow_dirty: bool) -> StorageResult<bool> {
        let Some(slot) = inner.choose_victim(allow_dirty) else {
            return Ok(false);
        };
        let victim = inner.frames[slot].as_ref().expect("victim slot is empty");
        if victim.cell.dirty.load(Ordering::Acquire) {
            let page = victim.cell.lock.read();
            self.pager.write(victim.page_id, &page)?;
            inner.stats.physical_writes += 1;
        }
        inner.clear_slot(slot);
        inner.stats.evictions += 1;
        Ok(true)
    }

    /// Snapshot of the I/O counters.
    pub fn stats(&self) -> IoStats {
        self.inner.lock().stats
    }

    /// Resets the I/O counters to zero.
    pub fn reset_stats(&self) {
        self.inner.lock().stats = IoStats::default();
    }

    /// Number of frames currently cached.
    pub fn cached_pages(&self) -> usize {
        self.inner.lock().occupancy()
    }

    fn fetch(&self, inner: &mut PoolInner, id: PageId, hint: AccessHint) -> StorageResult<usize> {
        inner.stats.logical_reads += 1;
        if let Some(&slot) = inner.by_page.get(&id) {
            inner.queue.touch(slot, hint);
            return Ok(slot);
        }
        inner.stats.physical_reads += 1;
        let mut page = Page::new();
        self.pager.read(id, &mut page)?;
        self.install_frame(inner, id, page, false, hint)
    }

    fn install_frame(
        &self,
        inner: &mut PoolInner,
        id: PageId,
        page: Page,
        dirty: bool,
        hint: AccessHint,
    ) -> StorageResult<usize> {
        if let Some(&slot) = inner.by_page.get(&id) {
            let frame = inner.frames[slot].as_ref().expect("mapped slot is empty");
            *frame.cell.lock.write() = page;
            if dirty {
                frame.cell.dirty.store(true, Ordering::Release);
            }
            inner.queue.touch(slot, hint);
            return Ok(slot);
        }
        if inner.occupancy() >= self.capacity {
            // Evict one frame to make room; in no-steal mode only a *clean*
            // one — a dirty page must never reach the pager between flushes.
            // With every candidate dirty (or pinned) a no-steal pool grows
            // past capacity instead of flushing mid-epoch; `flush_all` trims
            // back.
            if !self.evict_one(inner, self.steal)? && self.steal {
                return Err(StorageError::Corrupt(
                    "all buffer-pool frames are pinned".to_string(),
                ));
            }
        }
        Ok(inner.place(
            Frame {
                page_id: id,
                cell: FrameCell::new(page, dirty),
            },
            hint,
        ))
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("cached", &self.cached_pages())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPager, WriteFault};
    use crate::pager::{FilePager, MemPager};

    fn small_pool(capacity: usize) -> BufferPool {
        BufferPool::new(
            Arc::new(MemPager::new()),
            BufferPoolConfig {
                capacity,
                ..Default::default()
            },
        )
    }

    #[test]
    fn allocate_write_read_roundtrip() {
        let pool = small_pool(8);
        let pid = pool.allocate_page().unwrap();
        let slot = pool
            .with_page_mut(pid, |p| p.insert(b"buffered").unwrap())
            .unwrap();
        let data = pool
            .with_page(pid, |p| p.get(slot).unwrap().to_vec())
            .unwrap();
        assert_eq!(data, b"buffered");
    }

    #[test]
    fn hit_and_miss_accounting() {
        let pool = small_pool(8);
        let pid = pool.allocate_page().unwrap();
        pool.reset_stats();
        pool.with_page(pid, |_| ()).unwrap();
        pool.with_page(pid, |_| ()).unwrap();
        let stats = pool.stats();
        assert_eq!(stats.logical_reads, 2);
        assert_eq!(stats.physical_reads, 0, "page was cached by allocate_page");
        assert!((stats.hit_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let pool = small_pool(2);
        let pids: Vec<_> = (0..4).map(|_| pool.allocate_page().unwrap()).collect();
        for (i, pid) in pids.iter().enumerate() {
            pool.with_page_mut(*pid, |p| p.insert(format!("page-{i}").as_bytes()).unwrap())
                .unwrap();
        }
        // Re-read the first page: it must have been evicted and written
        // back.
        let value = pool
            .with_page(pids[0], |p| p.get(0).unwrap().to_vec())
            .unwrap();
        assert_eq!(value, b"page-0");
        let stats = pool.stats();
        assert!(stats.evictions >= 2);
        assert!(stats.physical_writes >= 2);
        assert_eq!(pool.cached_pages(), 2);
    }

    #[test]
    fn flush_all_persists_to_file_pager() {
        let dir = std::env::temp_dir().join(format!("spgist-buffer-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.pages");
        let slot;
        let pid;
        {
            let pool = BufferPool::with_default_config(Arc::new(FilePager::create(&path).unwrap()));
            pid = pool.allocate_page().unwrap();
            slot = pool
                .with_page_mut(pid, |p| p.insert(b"durable").unwrap())
                .unwrap();
            pool.flush_all().unwrap();
        }
        {
            let pool = BufferPool::with_default_config(Arc::new(FilePager::open(&path).unwrap()));
            let value = pool
                .with_page(pid, |p| p.get(slot).unwrap().to_vec())
                .unwrap();
            assert_eq!(value, b"durable");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_since_subtracts_counters() {
        let pool = small_pool(2);
        let pid = pool.allocate_page().unwrap();
        let before = pool.stats();
        pool.with_page(pid, |_| ()).unwrap();
        let after = pool.stats();
        let delta = after.delta_since(&before);
        assert_eq!(delta.logical_reads, 1);
    }

    #[test]
    fn missing_page_is_an_error() {
        let pool = small_pool(2);
        assert!(pool.with_page(42, |_| ()).is_err());
    }

    fn no_steal_pool(capacity: usize) -> BufferPool {
        BufferPool::new(
            Arc::new(MemPager::new()),
            BufferPoolConfig {
                capacity,
                steal: false,
            },
        )
    }

    #[test]
    fn no_steal_eviction_never_writes_between_flushes() {
        let pool = no_steal_pool(2);
        let pids: Vec<_> = (0..4).map(|_| pool.allocate_page().unwrap()).collect();
        for (i, pid) in pids.iter().enumerate() {
            pool.with_page_mut(*pid, |p| p.insert(format!("page-{i}").as_bytes()).unwrap())
                .unwrap();
        }
        // All four frames are dirty, so the pool grew past capacity rather
        // than writing any of them back.
        assert_eq!(pool.stats().physical_writes, 0);
        assert_eq!(pool.cached_pages(), 4);
        pool.flush_all().unwrap();
        assert_eq!(pool.stats().physical_writes, 4);
        assert_eq!(pool.cached_pages(), 2, "flush trims back to capacity");
        for (i, pid) in pids.iter().enumerate() {
            let value = pool
                .with_page(*pid, |p| p.get(0).unwrap().to_vec())
                .unwrap();
            assert_eq!(value, format!("page-{i}").into_bytes());
        }
    }

    #[test]
    fn no_steal_defers_frees_until_flush() {
        let pool = no_steal_pool(8);
        let a = pool.allocate_page().unwrap();
        let _b = pool.allocate_page().unwrap();
        pool.free_page(a).unwrap();
        assert_eq!(
            pool.free_page_count(),
            0,
            "the free must not reach the pager before a flush"
        );
        // Mid-epoch allocations must not reuse the page either.
        let c = pool.allocate_page().unwrap();
        assert_ne!(c, a);
        pool.flush_all().unwrap();
        assert_eq!(pool.free_page_count(), 1);
        let d = pool.allocate_page().unwrap();
        assert_eq!(d, a, "after the flush the page is reusable");
    }

    #[test]
    fn no_steal_free_of_unallocated_page_fails_fast() {
        let pool = no_steal_pool(8);
        assert!(matches!(
            pool.free_page(42),
            Err(StorageError::PageOutOfBounds { .. })
        ));
    }

    #[test]
    fn free_page_drops_the_frame_and_reuses_the_page() {
        let pool = small_pool(8);
        let a = pool.allocate_page().unwrap();
        let b = pool.allocate_page().unwrap();
        pool.with_page_mut(a, |p| p.insert(b"doomed").unwrap())
            .unwrap();
        pool.free_page(a).unwrap();
        // The next allocation reuses the freed page, zeroed — including the
        // cached frame.
        let c = pool.allocate_page().unwrap();
        assert_eq!(c, a);
        assert_eq!(pool.page_count(), 2);
        let slots = pool.with_page(c, |p| p.num_slots()).unwrap();
        assert_eq!(slots, 0, "reused page must not show stale cached content");
        let _ = b;
    }

    #[test]
    fn steal_mode_trim_flushes_dirty_overflow() {
        // Regression: trim() used to skip dirty-but-unpinned frames in steal
        // mode, leaving the pool over capacity forever.  It must flush them
        // and drop, so steal pools actually bound memory.
        let mut pool = small_pool(4);
        let pids: Vec<_> = (0..4).map(|_| pool.allocate_page().unwrap()).collect();
        for (i, pid) in pids.iter().enumerate() {
            pool.with_page_mut(*pid, |p| p.insert(format!("dirty-{i}").as_bytes()).unwrap())
                .unwrap();
        }
        assert_eq!(pool.cached_pages(), 4);
        pool.capacity = 2; // shrink under the resident set
        pool.publish_pending().unwrap();
        assert_eq!(pool.cached_pages(), 2, "trim must reach capacity");
        assert!(
            pool.stats().physical_writes >= 2,
            "dirty victims were flushed, not dropped"
        );
        for (i, pid) in pids.iter().enumerate() {
            let value = pool
                .with_page(*pid, |p| p.get(0).unwrap().to_vec())
                .unwrap();
            assert_eq!(value, format!("dirty-{i}").into_bytes(), "no data lost");
        }
    }

    #[test]
    fn scan_hinted_reads_do_not_displace_hot_pages() {
        // A pool holding a hot working set, then a long scan of cold pages:
        // with Scan hints the hot pages must survive.
        let pool = small_pool(8);
        let hot: Vec<_> = (0..4).map(|_| pool.allocate_page().unwrap()).collect();
        let cold: Vec<_> = (0..32).map(|_| pool.allocate_page().unwrap()).collect();
        pool.flush_all().unwrap();
        // Establish the hot set with normal accesses.
        for _ in 0..3 {
            for pid in &hot {
                pool.with_page(*pid, |_| ()).unwrap();
            }
        }
        // One-touch scan over everything cold.
        for pid in &cold {
            pool.with_page_hinted(*pid, AccessHint::Scan, |_| ())
                .unwrap();
        }
        pool.reset_stats();
        for pid in &hot {
            pool.with_page(*pid, |_| ()).unwrap();
        }
        assert_eq!(pool.stats().physical_reads, 0, "scan displaced the hot set");
    }

    /// The deterministic access-trace test: one fixed trace, exact physical
    /// read counts.  Any accidental change to victim selection shows up here
    /// as an exact-count diff.
    #[test]
    fn access_trace_exact_physical_reads_per_policy() {
        // Trace over 8 pages with a 4-frame pool: populate 0..8, then a
        // loop that re-reads a hot pair {0, 1} between cold sweeps.
        let trace: Vec<u32> = {
            let mut t: Vec<u32> = (0..8).collect();
            for c in [4u32, 5, 6, 7] {
                t.extend_from_slice(&[0, 1, c]);
            }
            t.extend_from_slice(&[0, 1, 2, 3]);
            t
        };
        // Materialize the 8 pages through a writer pool, then run the trace
        // on a fresh, cold pool over the same pager.
        let pager: Arc<MemPager> = Arc::new(MemPager::new());
        let pids: Vec<_> = {
            let writer = BufferPool::with_default_config(pager.clone());
            let pids: Vec<_> = (0..8).map(|_| writer.allocate_page().unwrap()).collect();
            for pid in &pids {
                writer
                    .with_page_mut(*pid, |p| {
                        p.insert(b"x").unwrap();
                    })
                    .unwrap();
            }
            writer.flush_all().unwrap();
            pids
        };
        // (cold sweep scan-hinted?, physical reads).  Unhinted, SIEVE misses
        // on every sweep page of this trace; the hints are what let it keep
        // the hot pair.
        for (hinted, want) in [(false, 16), (true, 13)] {
            let pool = BufferPool::new(
                pager.clone(),
                BufferPoolConfig {
                    capacity: 4,
                    steal: true,
                },
            );
            for &p in &trace {
                // The hot pair {0, 1} is point-accessed; everything else is
                // part of a sweep and (optionally) scan-hinted.
                let hint = if hinted && p >= 2 {
                    AccessHint::Scan
                } else {
                    AccessHint::Normal
                };
                pool.with_page_hinted(pids[p as usize], hint, |_| ())
                    .unwrap();
            }
            assert_eq!(
                pool.stats().physical_reads,
                want,
                "hinted = {hinted}: trace read count drifted"
            );
        }
    }

    /// A steal-mode pool of `capacity` frames over a pager whose writes can
    /// be made to fail.
    fn faulty_pool(capacity: usize) -> (BufferPool, Arc<FaultPager>) {
        let pager = Arc::new(FaultPager::new(Arc::new(MemPager::new())));
        let pool = BufferPool::new(
            pager.clone(),
            BufferPoolConfig {
                capacity,
                steal: true,
            },
        );
        (pool, pager)
    }

    #[test]
    fn failed_eviction_write_back_keeps_the_dirty_page() {
        let (pool, pager) = faulty_pool(1);
        let a = pool.allocate_page().unwrap();
        pool.with_page_mut(a, |p| p.insert(b"precious").unwrap())
            .unwrap();
        pager.set_write_fault(WriteFault::FailAfter(0));
        // Making room for the new page means writing `a` back, which fails.
        assert!(pool.allocate_page().is_err());
        // The only copy of `a` must still be cached, dirty and evictable.
        let kept = pool.with_page(a, |p| p.get(0).map(<[u8]>::to_vec)).unwrap();
        assert_eq!(kept.expect("record lost with the frame"), b"precious");
        assert_eq!(pool.dirty_page_ids(), vec![a]);
        assert_eq!(pool.stats().evictions, 0);
        pager.set_write_fault(WriteFault::None);
        let b = pool.allocate_page().unwrap();
        assert_eq!(pool.cached_pages(), 1, "the retry evicted `a`");
        pool.with_page(b, |_| ()).unwrap();
        let back = pool.with_page(a, |p| p.get(0).unwrap().to_vec()).unwrap();
        assert_eq!(back, b"precious", "written back by the retried eviction");
    }

    #[test]
    fn failed_trim_write_back_keeps_the_dirty_page() {
        let (mut pool, pager) = faulty_pool(2);
        let pids: Vec<_> = (0..2).map(|_| pool.allocate_page().unwrap()).collect();
        for (i, pid) in pids.iter().enumerate() {
            pool.with_page_mut(*pid, |p| p.insert(format!("dirty-{i}").as_bytes()).unwrap())
                .unwrap();
        }
        pool.capacity = 1; // shrink under the resident set
        pager.set_write_fault(WriteFault::FailAfter(0));
        assert!(pool.publish_pending().is_err());
        assert_eq!(pool.cached_pages(), 2, "nothing was dropped unwritten");
        pager.set_write_fault(WriteFault::None);
        pool.publish_pending().unwrap();
        assert_eq!(pool.cached_pages(), 1, "the retry trims to capacity");
        for (i, pid) in pids.iter().enumerate() {
            let value = pool
                .with_page(*pid, |p| p.get(0).unwrap().to_vec())
                .unwrap();
            assert_eq!(value, format!("dirty-{i}").into_bytes(), "no data lost");
        }
    }
}
