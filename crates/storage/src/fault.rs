//! Fault-injection pager for durability testing.
//!
//! [`FaultPager`] wraps any [`Pager`] and emulates the operating system's
//! volatile page cache: writes land in an in-memory map and only reach the
//! inner pager when [`Pager::sync`] runs.  [`FaultPager::crash`] throws the
//! cache away — exactly what a power cut does to un-synced writes.  On top
//! of that model it injects the two classes of failure durability code must
//! survive:
//!
//! * **sync faults** ([`SyncFault`]): the sync call fails loudly, or —
//!   worse — reports success without persisting anything ([`SyncFault::SilentDrop`],
//!   the lying-`fsync` case).  The regression tests here prove that a
//!   checkpoint acknowledged over a dropped sync is *not* durable, i.e.
//!   that the real pagers' `sync` had better actually sync.
//! * **write faults** ([`WriteFault`]): the n-th write fails, or tears —
//!   half the new image and half the old reach the disk, the classic torn
//!   page a crash mid-`write(2)` leaves behind.
//!
//! The crash-recovery suites build real databases over a
//! `FaultPager<FilePager>` and kill them at chosen points; nothing in this
//! module is compiled into production paths beyond the trait dispatch cost.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::pager::Pager;

/// How [`Pager::sync`] misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncFault {
    /// Sync works: flush the cache to the inner pager and sync it.
    #[default]
    None,
    /// Sync returns an I/O error; cached writes stay cached (a retry after
    /// clearing the fault can still succeed).
    Fail,
    /// The next `n` syncs succeed normally, then one fails as [`Fail`]
    /// (one-shot).  Lets a test target the *second* sync of a two-phase
    /// checkpoint.
    ///
    /// [`Fail`]: SyncFault::Fail
    FailAfter(u64),
    /// Sync reports success **without flushing anything** — the lying
    /// `fsync`.  A crash afterwards loses every cached write even though
    /// the caller was told they were durable.
    SilentDrop,
}

/// How [`Pager::write`] misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteFault {
    /// Writes work.
    #[default]
    None,
    /// The next `n` writes succeed, then one fails with an I/O error.
    FailAfter(u64),
    /// The next `n` writes succeed, then one **tears**: the first half of
    /// the new image and the second half of the old image reach the inner
    /// pager directly (as if the kernel wrote one sector before the power
    /// died), and the write reports failure.
    TornAfter(u64),
}

#[derive(Default)]
struct FaultState {
    cache: HashMap<PageId, Page>,
    sync_fault: SyncFault,
    write_fault: WriteFault,
}

/// A [`Pager`] decorator with a volatile write cache and injectable faults.
pub struct FaultPager {
    inner: Arc<dyn Pager>,
    state: Mutex<FaultState>,
}

impl FaultPager {
    /// Wraps `inner` with faults disabled.
    pub fn new(inner: Arc<dyn Pager>) -> Self {
        FaultPager {
            inner,
            state: Mutex::new(FaultState::default()),
        }
    }

    /// Arms (or clears) the sync fault.
    pub fn set_sync_fault(&self, fault: SyncFault) {
        self.state.lock().sync_fault = fault;
    }

    /// Arms (or clears) the write fault.
    pub fn set_write_fault(&self, fault: WriteFault) {
        self.state.lock().write_fault = fault;
    }

    /// Simulates a crash: every write that has not survived a successful
    /// sync disappears.
    pub fn crash(&self) {
        self.state.lock().cache.clear();
    }

    /// Simulates a crash where the kernel had already persisted an
    /// arbitrary **subset** of the un-synced writes: cached writes for
    /// which `keep` returns true reach the inner pager (in no particular
    /// order, like a page-cache writeback racing the power cut), the rest
    /// disappear.  [`crash`](Self::crash) is `crash_keeping(|_| false)`.
    ///
    /// This is the crash model the all-or-nothing `crash` cannot express,
    /// and the one that breaks single-sync checkpoints: any mix of old and
    /// new pages may be on the platter after the lights go out.
    pub fn crash_keeping(&self, keep: impl Fn(PageId) -> bool) -> StorageResult<()> {
        let mut state = self.state.lock();
        for (id, page) in state.cache.drain() {
            if keep(id) {
                self.inner.write(id, &page)?;
            }
        }
        Ok(())
    }

    /// Number of writes currently held only in the volatile cache.
    pub fn cached_writes(&self) -> usize {
        self.state.lock().cache.len()
    }

    /// Page ids of the writes currently held only in the volatile cache,
    /// sorted.  Subset-sweep tests enumerate this set once, then re-run the
    /// same deterministic scenario with [`crash_keeping`](Self::crash_keeping)
    /// persisting each subset in turn.
    pub fn cached_page_ids(&self) -> Vec<PageId> {
        let mut ids: Vec<PageId> = self.state.lock().cache.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn injected(kind: &str) -> StorageError {
        StorageError::Io(std::io::Error::other(format!("injected {kind} fault")))
    }
}

impl Pager for FaultPager {
    fn allocate(&self) -> StorageResult<PageId> {
        self.inner.allocate()
    }

    fn read(&self, id: PageId, out: &mut Page) -> StorageResult<()> {
        if let Some(page) = self.state.lock().cache.get(&id) {
            *out = page.clone();
            return Ok(());
        }
        self.inner.read(id, out)
    }

    fn write(&self, id: PageId, page: &Page) -> StorageResult<()> {
        let mut state = self.state.lock();
        match state.write_fault {
            WriteFault::None => {}
            WriteFault::FailAfter(0) => {
                state.write_fault = WriteFault::None;
                return Err(Self::injected("write"));
            }
            WriteFault::FailAfter(n) => state.write_fault = WriteFault::FailAfter(n - 1),
            WriteFault::TornAfter(0) => {
                state.write_fault = WriteFault::None;
                // Half the new image, half the old, straight past the
                // cache to the "platter".
                let mut old = Page::new();
                self.inner.read(id, &mut old)?;
                let mut torn = *page.as_bytes();
                torn[PAGE_SIZE / 2..].copy_from_slice(&old.as_bytes()[PAGE_SIZE / 2..]);
                self.inner.write(id, &Page::from_bytes(torn))?;
                state.cache.remove(&id);
                return Err(Self::injected("torn-write"));
            }
            WriteFault::TornAfter(n) => state.write_fault = WriteFault::TornAfter(n - 1),
        }
        state.cache.insert(id, page.clone());
        Ok(())
    }

    fn free(&self, id: PageId) -> StorageResult<()> {
        self.state.lock().cache.remove(&id);
        self.inner.free(id)
    }

    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn free_page_count(&self) -> u32 {
        self.inner.free_page_count()
    }

    fn sync(&self) -> StorageResult<()> {
        let mut state = self.state.lock();
        match state.sync_fault {
            SyncFault::Fail => return Err(Self::injected("sync")),
            SyncFault::FailAfter(0) => {
                state.sync_fault = SyncFault::None;
                return Err(Self::injected("sync"));
            }
            SyncFault::FailAfter(n) => state.sync_fault = SyncFault::FailAfter(n - 1),
            SyncFault::SilentDrop => return Ok(()),
            SyncFault::None => {}
        }
        for (id, page) in state.cache.drain() {
            self.inner.write(id, &page)?;
        }
        self.inner.sync()
    }
}

impl std::fmt::Debug for FaultPager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("FaultPager")
            .field("cached_writes", &state.cache.len())
            .field("sync_fault", &state.sync_fault)
            .field("write_fault", &state.write_fault)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufferPool, BufferPoolConfig};
    use crate::pager::{FilePager, MemPager};
    use std::path::PathBuf;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("spgist-fault-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn no_steal_pool(pager: Arc<FaultPager>) -> BufferPool {
        BufferPool::new(
            pager,
            BufferPoolConfig {
                capacity: 8,
                steal: false,
            },
        )
    }

    #[test]
    fn crash_discards_unsynced_writes() {
        let fault = FaultPager::new(Arc::new(MemPager::new()));
        let id = fault.allocate().unwrap();
        fault
            .write(id, &Page::from_bytes([0xAA; PAGE_SIZE]))
            .unwrap();
        let mut page = Page::new();
        fault.read(id, &mut page).unwrap();
        assert_eq!(page.as_bytes()[0], 0xAA, "cached write is readable");
        fault.crash();
        fault.read(id, &mut page).unwrap();
        assert_ne!(page.as_bytes()[0], 0xAA, "crash loses un-synced writes");
    }

    #[test]
    fn sync_makes_writes_survive_a_crash() {
        let fault = FaultPager::new(Arc::new(MemPager::new()));
        let id = fault.allocate().unwrap();
        fault
            .write(id, &Page::from_bytes([0xBB; PAGE_SIZE]))
            .unwrap();
        fault.sync().unwrap();
        assert_eq!(fault.cached_writes(), 0);
        fault.crash();
        let mut page = Page::new();
        fault.read(id, &mut page).unwrap();
        assert_eq!(page.as_bytes()[0], 0xBB);
    }

    #[test]
    fn torn_write_mixes_old_and_new_halves() {
        let fault = FaultPager::new(Arc::new(MemPager::new()));
        let id = fault.allocate().unwrap();
        fault
            .write(id, &Page::from_bytes([0x11; PAGE_SIZE]))
            .unwrap();
        fault.sync().unwrap();
        fault.set_write_fault(WriteFault::TornAfter(0));
        assert!(fault
            .write(id, &Page::from_bytes([0x22; PAGE_SIZE]))
            .is_err());
        fault.crash();
        let mut page = Page::new();
        fault.read(id, &mut page).unwrap();
        assert_eq!(page.as_bytes()[0], 0x22, "first half is the new image");
        assert_eq!(
            page.as_bytes()[PAGE_SIZE - 1],
            0x11,
            "second half is the old"
        );
    }

    #[test]
    fn crash_keeping_persists_an_arbitrary_subset() {
        let fault = FaultPager::new(Arc::new(MemPager::new()));
        let a = fault.allocate().unwrap();
        let b = fault.allocate().unwrap();
        fault
            .write(a, &Page::from_bytes([0xAA; PAGE_SIZE]))
            .unwrap();
        fault
            .write(b, &Page::from_bytes([0xBB; PAGE_SIZE]))
            .unwrap();
        fault.crash_keeping(|id| id == b).unwrap();
        let mut page = Page::new();
        fault.read(a, &mut page).unwrap();
        assert_ne!(page.as_bytes()[0], 0xAA, "un-kept write is lost");
        fault.read(b, &mut page).unwrap();
        assert_eq!(page.as_bytes()[0], 0xBB, "kept write hit the platter");
        assert_eq!(fault.cached_writes(), 0, "cache is gone either way");
    }

    #[test]
    fn sync_fail_after_targets_a_later_sync() {
        let fault = FaultPager::new(Arc::new(MemPager::new()));
        let id = fault.allocate().unwrap();
        fault.set_sync_fault(SyncFault::FailAfter(1));
        fault
            .write(id, &Page::from_bytes([0x01; PAGE_SIZE]))
            .unwrap();
        fault.sync().unwrap();
        assert!(fault.sync().is_err(), "second sync fails");
        assert!(fault.sync().is_ok(), "fault is one-shot");
        fault.crash();
        let mut page = Page::new();
        fault.read(id, &mut page).unwrap();
        assert_eq!(page.as_bytes()[0], 0x01, "first sync was honest");
    }

    #[test]
    fn fail_after_counts_down_before_failing() {
        let fault = FaultPager::new(Arc::new(MemPager::new()));
        let id = fault.allocate().unwrap();
        fault.set_write_fault(WriteFault::FailAfter(2));
        assert!(fault.write(id, &Page::new()).is_ok());
        assert!(fault.write(id, &Page::new()).is_ok());
        assert!(fault.write(id, &Page::new()).is_err());
        assert!(fault.write(id, &Page::new()).is_ok(), "fault is one-shot");
    }

    /// The satellite audit in test form: a checkpoint whose sync was
    /// silently dropped is *acknowledged* but not durable — after a crash,
    /// a direct reopen of the underlying file shows the pre-checkpoint
    /// state.  This is why `FilePager::sync` must really `sync_all`, and
    /// why every flush path has to propagate sync errors instead of
    /// swallowing them.
    #[test]
    fn silently_dropped_sync_is_not_durable() {
        let dir = TempDir::new("lying-fsync");
        let path = dir.0.join("db.pages");
        let fault = Arc::new(FaultPager::new(Arc::new(FilePager::create(&path).unwrap())));
        let pool = no_steal_pool(Arc::clone(&fault));

        // Epoch 1: an honest checkpoint.
        let pid = pool.allocate_page().unwrap();
        pool.with_page_mut(pid, |p| p.insert(b"base").unwrap())
            .unwrap();
        pool.flush_all().unwrap();

        // Epoch 2: more data, but the sync lies.
        pool.with_page_mut(pid, |p| p.insert(b"lost").unwrap())
            .unwrap();
        fault.set_sync_fault(SyncFault::SilentDrop);
        pool.flush_all().unwrap(); // acknowledged!
        fault.crash();

        let reopened = FilePager::open(&path).unwrap();
        let mut page = Page::new();
        reopened.read(pid, &mut page).unwrap();
        assert_eq!(
            page.num_slots(),
            1,
            "only the honestly-synced epoch survived"
        );
        assert_eq!(page.get(0).unwrap(), b"base");
    }

    #[test]
    fn failing_sync_propagates_through_flush_all() {
        let dir = TempDir::new("sync-err");
        let path = dir.0.join("db.pages");
        let fault = Arc::new(FaultPager::new(Arc::new(FilePager::create(&path).unwrap())));
        let pool = no_steal_pool(Arc::clone(&fault));
        let pid = pool.allocate_page().unwrap();
        pool.with_page_mut(pid, |p| p.insert(b"retry-me").unwrap())
            .unwrap();
        fault.set_sync_fault(SyncFault::Fail);
        assert!(
            pool.flush_all().is_err(),
            "sync failure must not be swallowed"
        );
        // Clearing the fault and retrying succeeds: nothing was lost.
        fault.set_sync_fault(SyncFault::None);
        pool.flush_all().unwrap();
        fault.crash();
        let mut page = Page::new();
        fault.read(pid, &mut page).unwrap();
        assert_eq!(page.get(0).unwrap(), b"retry-me");
    }
}
