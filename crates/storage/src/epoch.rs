//! Epoch-based reclamation and per-page latching for shared tree access.
//!
//! Two cooperating mechanisms let readers traverse a tree without blocking
//! on writers:
//!
//! * [`EpochManager`] — structural modifications *retire* superseded records
//!   and pages instead of freeing them.  A reader pins the current epoch on
//!   entry ([`EpochManager::pin`]); retiring an item stamps it with the
//!   epoch at which it became unreachable and advances the global epoch.
//!   An item may be reclaimed (its slot deleted, its page freed) only once
//!   every live pin started *after* the item was retired — at that point no
//!   reader can still hold a pointer to it.  Writers unlink before they
//!   retire, and both pinning and retiring go through one mutex, so the
//!   ordering argument is airtight: a pin at epoch `p` can only ever reach
//!   items that are live or retired at an epoch `>= p`.
//! * [`LatchTable`] — writers coordinate *with each other* through per-page
//!   latches acquired root-to-leaf (latch crabbing).  Readers never touch
//!   them.  Because node→page clustering can put two descents' pages in
//!   opposite orders, acquisition is try-lock based: a conflict releases
//!   everything, waits for the contended latch once, and restarts the
//!   descent from the root.  Contended acquisitions are counted as latch
//!   waits.
//!
//! Both report into one [`ConcurrencyStats`] view per tree, the
//! `index.<table>.<index>.*` section of the one metrics surface
//! ([`crate::metrics`]).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Instant;

use parking_lot::Mutex;

use crate::page::{PageId, SlotId};

/// A unit of storage retired by a structural modification, awaiting
/// reclamation once no live reader epoch can reference it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetiredItem {
    /// A single record slot superseded by a relocation (the old copy of a
    /// moved node) or unlinked by a split.
    Slot(PageId, SlotId),
    /// A whole page superseded by a repack.
    Page(PageId),
}

crate::metric_view! {
    /// Counters describing latch and epoch activity since the tree was
    /// opened, exported per index as `index.<table>.<index>.*` in the one
    /// metrics surface ([`crate::metrics`]).  `active_pins` and
    /// `retired_backlog` are gauges: a delta keeps their current value.
    pub struct ConcurrencyStats {
        /// Page-latch acquisitions by writers.
        latch_acquisitions: Counter,
        /// Latch acquisitions that found the latch held (each one forces the
        /// writer to release everything and restart its descent).
        latch_waits: Counter,
        /// Reader epochs pinned (queries, cursors, scans).
        epoch_pins: Counter,
        /// Epochs currently pinned by live readers.
        active_pins: Gauge,
        /// Cumulative wall-clock time readers held epoch pins, in nanoseconds.
        epoch_pin_nanos: Counter,
        /// Items (slots and pages) retired by structural modifications.
        retired: Counter,
        /// Retired items reclaimed so far.
        reclaimed: Counter,
        /// Retired items still awaiting reclamation (the retired-page backlog).
        retired_backlog: Gauge,
    }
}

impl ConcurrencyStats {
    /// The counters of one tree: its writers' latch table and its readers'
    /// epoch manager.
    pub fn of(epochs: &EpochManager, latches: &LatchTable) -> ConcurrencyStats {
        let shared = &epochs.shared;
        let (active_pins, retired_backlog) = {
            let state = shared.state.lock();
            (
                state.active.values().map(|&n| n as u64).sum(),
                state.retired.len() as u64,
            )
        };
        ConcurrencyStats {
            latch_acquisitions: latches.acquisitions.load(Ordering::Relaxed),
            latch_waits: latches.waits.load(Ordering::Relaxed),
            epoch_pins: shared.pins.load(Ordering::Relaxed),
            active_pins,
            epoch_pin_nanos: shared.pin_nanos.load(Ordering::Relaxed),
            retired: shared.retired_total.load(Ordering::Relaxed),
            reclaimed: shared.reclaimed_total.load(Ordering::Relaxed),
            retired_backlog,
        }
    }
}

struct EpochState {
    /// The global epoch, advanced by every retirement.
    global: u64,
    /// Live reader pins, counted per pinned epoch.
    active: BTreeMap<u64, usize>,
    /// Retired items in FIFO (epoch) order.
    retired: VecDeque<(u64, RetiredItem)>,
}

struct EpochShared {
    state: Mutex<EpochState>,
    pins: AtomicU64,
    pin_nanos: AtomicU64,
    retired_total: AtomicU64,
    reclaimed_total: AtomicU64,
}

/// The epoch clock and retire list of one tree.  Cheap to clone-share via
/// `Arc`; a repack installs fresh pages under the same manager so pins taken
/// before the repack keep protecting the old layout.
pub struct EpochManager {
    shared: Arc<EpochShared>,
}

impl Default for EpochManager {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochManager {
    /// Creates a manager with no pins and nothing retired.
    pub fn new() -> Self {
        EpochManager {
            shared: Arc::new(EpochShared {
                state: Mutex::new(EpochState {
                    global: 0,
                    active: BTreeMap::new(),
                    retired: VecDeque::new(),
                }),
                pins: AtomicU64::new(0),
                pin_nanos: AtomicU64::new(0),
                retired_total: AtomicU64::new(0),
                reclaimed_total: AtomicU64::new(0),
            }),
        }
    }

    /// Pins the current epoch for a reader.  Until the returned guard drops,
    /// no item retired at or after this epoch is reclaimed, so every pointer
    /// the reader can reach through the tree stays dereferenceable.
    pub fn pin(&self) -> EpochPin {
        let epoch = {
            let mut state = self.shared.state.lock();
            let epoch = state.global;
            *state.active.entry(epoch).or_insert(0) += 1;
            epoch
        };
        self.shared.pins.fetch_add(1, Ordering::Relaxed);
        EpochPin {
            shared: Arc::clone(&self.shared),
            epoch,
            start: Instant::now(),
        }
    }

    /// Retires `item`: stamps it with the current epoch and advances the
    /// clock.  The caller must have already unlinked the item from the tree
    /// (no new traversal can reach it) *before* calling this.
    pub fn retire(&self, item: RetiredItem) {
        let mut state = self.shared.state.lock();
        let epoch = state.global;
        state.retired.push_back((epoch, item));
        state.global += 1;
        self.shared.retired_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Drains every retired item no live pin can reference (retired strictly
    /// before the oldest active pin epoch; everything, when nothing is
    /// pinned).  The caller owns freeing the returned items.
    pub fn take_reclaimable(&self) -> Vec<RetiredItem> {
        let mut state = self.shared.state.lock();
        let horizon = state.active.keys().next().copied();
        let mut out = Vec::new();
        while let Some(&(epoch, item)) = state.retired.front() {
            if horizon.is_some_and(|h| epoch >= h) {
                break;
            }
            state.retired.pop_front();
            out.push(item);
        }
        self.shared
            .reclaimed_total
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    /// Number of retired items awaiting reclamation.
    pub fn backlog(&self) -> usize {
        self.shared.state.lock().retired.len()
    }
}

impl std::fmt::Debug for EpochManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochManager")
            .field("backlog", &self.backlog())
            .finish()
    }
}

/// A reader's pinned epoch; dropping it unpins and records the pin duration.
pub struct EpochPin {
    shared: Arc<EpochShared>,
    epoch: u64,
    start: Instant,
}

impl Drop for EpochPin {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock();
            if let Some(count) = state.active.get_mut(&self.epoch) {
                *count -= 1;
                if *count == 0 {
                    state.active.remove(&self.epoch);
                }
            }
        }
        self.shared
            .pin_nanos
            .fetch_add(self.start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for EpochPin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochPin")
            .field("epoch", &self.epoch)
            .finish()
    }
}

/// One page's writer latch: a plain exclusive lock with explicit lock /
/// unlock so a guard can be stored by value in a [`LatchSet`].
struct PageLatch {
    locked: StdMutex<bool>,
    cv: Condvar,
}

impl PageLatch {
    fn new() -> Self {
        PageLatch {
            locked: StdMutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn try_lock(&self) -> bool {
        let mut locked = self.locked.lock().unwrap_or_else(|e| e.into_inner());
        if *locked {
            false
        } else {
            *locked = true;
            true
        }
    }

    /// Waits (bounded) for the latch to be released, without taking it.
    /// Purely a backoff so a restarting writer does not busy-spin against
    /// the conflicting writer; the bound means a waiter can never be stuck
    /// behind a holder that is not making progress.
    fn wait_briefly(&self) {
        let locked = self.locked.lock().unwrap_or_else(|e| e.into_inner());
        if *locked {
            let _ = self
                .cv
                .wait_timeout(locked, std::time::Duration::from_millis(1));
        }
    }

    fn unlock(&self) {
        let mut locked = self.locked.lock().unwrap_or_else(|e| e.into_inner());
        *locked = false;
        drop(locked);
        self.cv.notify_all();
    }
}

/// The per-page writer latches of one tree.
///
/// Latches exist only while the table does; entries are created on first
/// acquisition and kept (a page id → latch entry is a few dozen bytes, and
/// the set of pages a tree touches is bounded by its size).
#[derive(Default)]
pub struct LatchTable {
    latches: Mutex<HashMap<PageId, Arc<PageLatch>>>,
    acquisitions: AtomicU64,
    waits: AtomicU64,
}

impl LatchTable {
    /// Creates an empty latch table.
    pub fn new() -> Self {
        Self::default()
    }

    fn latch_for(&self, page: PageId) -> Arc<PageLatch> {
        Arc::clone(
            self.latches
                .lock()
                .entry(page)
                .or_insert_with(|| Arc::new(PageLatch::new())),
        )
    }
}

impl std::fmt::Debug for LatchTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatchTable")
            .field("waits", &self.waits.load(Ordering::Relaxed))
            .finish()
    }
}

/// The set of page latches one writer descent holds — the crabbing guard.
///
/// Acquisition is deadlock-free by construction: [`LatchSet::acquire`] never
/// blocks while holding other latches.  On contention it releases every held
/// latch, waits once for the contended one (so the restart makes progress),
/// and reports `false` — the caller must restart its descent from the root.
pub struct LatchSet<'t> {
    table: &'t LatchTable,
    held: Vec<(PageId, Arc<PageLatch>)>,
    /// Pages a caller frame needs across nested descents (a replicating
    /// multi-way descend holds its node's page for all sub-descents);
    /// [`LatchSet::retain`] never releases these.  Duplicates encode
    /// nesting depth.
    protected: Vec<PageId>,
}

impl<'t> LatchSet<'t> {
    /// An empty guard over `table`.
    pub fn new(table: &'t LatchTable) -> Self {
        LatchSet {
            table,
            held: Vec::new(),
            protected: Vec::new(),
        }
    }

    /// True if this guard already holds the latch on `page`.
    pub fn holds(&self, page: PageId) -> bool {
        self.held.iter().any(|(p, _)| *p == page)
    }

    /// Acquires the latch on `page` (a no-op if already held).  Returns
    /// `false` when the latch was contended: every held latch has been
    /// released and the caller must restart its descent.
    #[must_use]
    pub fn acquire(&mut self, page: PageId) -> bool {
        if self.holds(page) {
            return true;
        }
        self.table.acquisitions.fetch_add(1, Ordering::Relaxed);
        let latch = self.table.latch_for(page);
        if latch.try_lock() {
            self.held.push((page, latch));
            return true;
        }
        // Contended: back out completely, then wait (bounded) for the
        // conflicting writer so the restart is not a busy spin.
        self.table.waits.fetch_add(1, Ordering::Relaxed);
        self.release_all();
        latch.wait_briefly();
        false
    }

    /// Marks `page` as protected: [`LatchSet::retain`] keeps it even when it
    /// is not in the keep list.  Calls nest; undo with
    /// [`LatchSet::unprotect`].
    pub fn protect(&mut self, page: PageId) {
        self.protected.push(page);
    }

    /// Removes one protection of `page`.
    pub fn unprotect(&mut self, page: PageId) {
        if let Some(pos) = self.protected.iter().rposition(|&p| p == page) {
            self.protected.remove(pos);
        }
    }

    /// Releases every held latch except the ones named in `keep` and the
    /// protected set — the crab step that lets ancestors go once the child
    /// is known safe.
    pub fn retain(&mut self, keep: &[PageId]) {
        let protected = &self.protected;
        self.held.retain(|(page, latch)| {
            if keep.contains(page) || protected.contains(page) {
                true
            } else {
                latch.unlock();
                false
            }
        });
    }

    /// Releases every held latch (protections stay registered but protect
    /// nothing until re-acquired).
    pub fn release_all(&mut self) {
        for (_, latch) in self.held.drain(..) {
            latch.unlock();
        }
    }
}

impl Drop for LatchSet<'_> {
    fn drop(&mut self) {
        self.release_all();
    }
}

impl std::fmt::Debug for LatchSet<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pages: Vec<PageId> = self.held.iter().map(|(p, _)| *p).collect();
        f.debug_struct("LatchSet").field("held", &pages).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpinned_retires_reclaim_immediately() {
        let epochs = EpochManager::new();
        epochs.retire(RetiredItem::Slot(1, 2));
        epochs.retire(RetiredItem::Page(3));
        assert_eq!(epochs.backlog(), 2);
        let items = epochs.take_reclaimable();
        assert_eq!(
            items,
            vec![RetiredItem::Slot(1, 2), RetiredItem::Page(3)],
            "FIFO order"
        );
        assert_eq!(epochs.backlog(), 0);
        let stats = ConcurrencyStats::of(&epochs, &LatchTable::new());
        assert_eq!(stats.retired, 2);
        assert_eq!(stats.reclaimed, 2);
    }

    #[test]
    fn a_pin_blocks_reclamation_of_later_retires() {
        let epochs = EpochManager::new();
        epochs.retire(RetiredItem::Page(1)); // epoch 0, before the pin
        let pin = epochs.pin(); // epoch 1
        epochs.retire(RetiredItem::Page(2)); // epoch 1: the pin may reference it
        assert_eq!(
            epochs.take_reclaimable(),
            vec![RetiredItem::Page(1)],
            "items retired before the pin are safe to reclaim"
        );
        assert_eq!(epochs.backlog(), 1);
        assert_eq!(
            ConcurrencyStats::of(&epochs, &LatchTable::new()).active_pins,
            1
        );
        drop(pin);
        assert_eq!(epochs.take_reclaimable(), vec![RetiredItem::Page(2)]);
        assert!(ConcurrencyStats::of(&epochs, &LatchTable::new()).epoch_pin_nanos > 0);
    }

    #[test]
    fn overlapping_pins_hold_the_oldest_horizon() {
        let epochs = EpochManager::new();
        let old_pin = epochs.pin(); // epoch 0
        epochs.retire(RetiredItem::Page(1)); // epoch 0
        let young_pin = epochs.pin(); // epoch 1
        drop(young_pin);
        assert!(
            epochs.take_reclaimable().is_empty(),
            "the older pin still guards epoch 0"
        );
        drop(old_pin);
        assert_eq!(epochs.take_reclaimable(), vec![RetiredItem::Page(1)]);
    }

    #[test]
    fn latch_set_crabs_and_restarts_on_contention() {
        let table = LatchTable::new();
        let mut a = LatchSet::new(&table);
        assert!(a.acquire(1));
        assert!(a.acquire(2));
        assert!(a.acquire(2), "re-acquire of a held latch is a no-op");
        a.retain(&[2]);
        assert!(!a.holds(1));
        assert!(a.holds(2));

        let mut b = LatchSet::new(&table);
        assert!(b.acquire(1), "released latches are available again");
        assert!(!b.acquire(2), "contended acquire reports a restart");
        assert!(!b.holds(1), "a failed acquire releases everything");
        let stats = ConcurrencyStats::of(&EpochManager::new(), &table);
        assert_eq!(stats.latch_waits, 1);
        drop(a);
        assert!(b.acquire(2), "dropping the holder frees the latch");
    }

    #[test]
    fn protected_pages_survive_retain() {
        let table = LatchTable::new();
        let mut set = LatchSet::new(&table);
        assert!(set.acquire(7));
        assert!(set.acquire(8));
        set.protect(7);
        set.retain(&[]);
        assert!(set.holds(7), "protected page survives an empty keep list");
        assert!(!set.holds(8));
        set.unprotect(7);
        set.retain(&[]);
        assert!(!set.holds(7));
    }

    #[test]
    fn contended_latches_serialize_across_threads() {
        let table = Arc::new(LatchTable::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let table = Arc::clone(&table);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let mut set = LatchSet::new(&table);
                    while !set.acquire(42) {}
                    assert_eq!(
                        counter.fetch_add(1, Ordering::SeqCst),
                        0,
                        "latch holders are exclusive"
                    );
                    assert_eq!(counter.fetch_sub(1, Ordering::SeqCst), 1);
                    set.release_all();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
