//! The counting / timing decorator the benchmark puts between the engine
//! and its [`FilePager`](spgist_storage::FilePager).
//!
//! It always counts calls (the `write_amp` numerator needs them in untraced
//! runs too, and a relaxed increment costs nothing measurable next to a
//! page transfer); it times them, and records a leaf span per call, only
//! while the tracer is enabled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use spgist_storage::{Page, PageId, Pager, StorageResult, PAGE_SIZE};

use crate::trace::Tracer;

/// Counters that outlive any one pager: set-up, the measured phase and the
/// post-crash reopen each open the file anew but feed the same meter.
/// All fields are statistics (they publish no other data), hence `Relaxed`.
#[derive(Default)]
pub struct PagerMeter {
    reads: AtomicU64,
    writes: AtomicU64,
    allocs: AtomicU64,
    syncs: AtomicU64,
    read_ns: AtomicU64,
    write_ns: AtomicU64,
    sync_ns: AtomicU64,
}

/// A snapshot of a [`PagerMeter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerCounts {
    /// `Pager::read` calls.
    pub reads: u64,
    /// `Pager::write` calls.
    pub writes: u64,
    /// `Pager::allocate` calls (each zero-fills one page on disk).
    pub allocs: u64,
    /// `Pager::sync` calls.
    pub syncs: u64,
    /// Time inside `read`, ns (traced runs only).
    pub read_ns: u64,
    /// Time inside `write` and `allocate`, ns (traced runs only).
    pub write_ns: u64,
    /// Time inside `sync`, ns (traced runs only).
    pub sync_ns: u64,
}

impl PagerCounts {
    /// Bytes the pager put into the file: written and zero-filled pages.
    pub fn bytes_written(&self) -> u64 {
        (self.writes + self.allocs) * PAGE_SIZE as u64
    }

    /// Component-wise `self - earlier`.
    pub fn since(&self, earlier: &PagerCounts) -> PagerCounts {
        PagerCounts {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            allocs: self.allocs - earlier.allocs,
            syncs: self.syncs - earlier.syncs,
            read_ns: self.read_ns - earlier.read_ns,
            write_ns: self.write_ns - earlier.write_ns,
            sync_ns: self.sync_ns - earlier.sync_ns,
        }
    }
}

impl PagerMeter {
    /// Current totals.
    pub fn counts(&self) -> PagerCounts {
        PagerCounts {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            read_ns: self.read_ns.load(Ordering::Relaxed),
            write_ns: self.write_ns.load(Ordering::Relaxed),
            sync_ns: self.sync_ns.load(Ordering::Relaxed),
        }
    }
}

/// [`Pager`] decorator feeding a [`PagerMeter`] and, when enabled, the
/// [`Tracer`].
pub struct MeteredPager {
    inner: Arc<dyn Pager>,
    meter: Arc<PagerMeter>,
    tracer: Arc<Tracer>,
}

impl MeteredPager {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Pager>, meter: Arc<PagerMeter>, tracer: Arc<Tracer>) -> Self {
        MeteredPager {
            inner,
            meter,
            tracer,
        }
    }

    fn metered<R>(
        &self,
        name: &'static str,
        count: &AtomicU64,
        nanos: &AtomicU64,
        call: impl FnOnce() -> R,
    ) -> R {
        count.fetch_add(1, Ordering::Relaxed);
        if !self.tracer.enabled() {
            return call();
        }
        let start = Instant::now();
        let result = call();
        let end = Instant::now();
        nanos.fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        self.tracer.leaf(name, start, end);
        result
    }
}

impl Pager for MeteredPager {
    fn allocate(&self) -> StorageResult<PageId> {
        let m = &self.meter;
        self.metered("pager.allocate", &m.allocs, &m.write_ns, || {
            self.inner.allocate()
        })
    }

    fn read(&self, id: PageId, out: &mut Page) -> StorageResult<()> {
        let m = &self.meter;
        self.metered("pager.read", &m.reads, &m.read_ns, || {
            self.inner.read(id, out)
        })
    }

    fn write(&self, id: PageId, page: &Page) -> StorageResult<()> {
        let m = &self.meter;
        self.metered("pager.write", &m.writes, &m.write_ns, || {
            self.inner.write(id, page)
        })
    }

    fn free(&self, id: PageId) -> StorageResult<()> {
        self.inner.free(id)
    }

    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn free_page_count(&self) -> u32 {
        self.inner.free_page_count()
    }

    fn sync(&self) -> StorageResult<()> {
        let m = &self.meter;
        self.metered("pager.sync", &m.syncs, &m.sync_ns, || self.inner.sync())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgist_storage::MemPager;

    #[test]
    fn counts_always_and_times_only_while_tracing() {
        let meter = Arc::new(PagerMeter::default());
        let tracer = Arc::new(Tracer::new());
        let pager = MeteredPager::new(
            Arc::new(MemPager::new()),
            Arc::clone(&meter),
            Arc::clone(&tracer),
        );

        let id = pager.allocate().unwrap();
        let mut page = Page::new();
        pager.write(id, &page).unwrap();
        pager.read(id, &mut page).unwrap();
        pager.sync().unwrap();
        let untraced = meter.counts();
        assert_eq!(
            (
                untraced.allocs,
                untraced.writes,
                untraced.reads,
                untraced.syncs
            ),
            (1, 1, 1, 1)
        );
        assert_eq!(untraced.bytes_written(), 2 * PAGE_SIZE as u64);
        assert_eq!(untraced.read_ns + untraced.write_ns + untraced.sync_ns, 0);
        assert!(tracer.spans().is_empty());

        tracer.set_enabled(true);
        pager.read(id, &mut page).unwrap();
        let delta = meter.counts().since(&untraced);
        assert_eq!(delta.reads, 1);
        assert_eq!(tracer.spans().len(), 1);
        assert_eq!(tracer.spans()[0].name, "pager.read");
    }
}
