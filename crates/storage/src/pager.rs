//! Page allocation and retrieval.
//!
//! A [`Pager`] is the storage-manager abstraction of the paper's Section 4.2
//! ("PostgreSQL storage interface ... for the allocation and retrieval of
//! disk pages").  Two implementations are provided:
//!
//! * [`FilePager`] — pages live in a single file, read and written with
//!   positioned I/O; this is the durable, disk-based configuration,
//! * [`MemPager`] — pages live in memory; used by unit tests and by
//!   experiments that want deterministic page-I/O counts without disk noise.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use parking_lot::Mutex;

use crate::codec::{take_header, Codec};
use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PageId, PAGE_SIZE};

/// Allocation and retrieval of fixed-size pages.
pub trait Pager: Send + Sync {
    /// Allocates a fresh, zeroed page and returns its id.  Implementations
    /// with a free list reuse returned pages before growing the store.
    fn allocate(&self) -> StorageResult<PageId>;

    /// Reads page `id` into `out`.
    fn read(&self, id: PageId, out: &mut Page) -> StorageResult<()>;

    /// Writes `page` as page `id`.
    fn write(&self, id: PageId, page: &Page) -> StorageResult<()>;

    /// Returns a whole page to the pager's free list so a later
    /// [`Pager::allocate`] can reuse it instead of growing the store.
    /// Freeing an already-free page is a no-op.  The default implementation
    /// leaks the page (no free-space reuse).
    fn free(&self, id: PageId) -> StorageResult<()> {
        let _ = id;
        Ok(())
    }

    /// Number of allocated pages (including pages currently on the free
    /// list: the store never shrinks, it only stops growing).
    fn page_count(&self) -> u32;

    /// Number of pages currently on the free list.
    fn free_page_count(&self) -> u32 {
        0
    }

    /// Flushes any buffered writes to stable storage.
    fn sync(&self) -> StorageResult<()>;
}

/// Shared free-list bookkeeping for [`MemPager`] and [`FilePager`]: a stack
/// for LIFO reuse plus a membership set so bulk frees (a whole tree's pages
/// on repack) stay linear.
#[derive(Default)]
struct FreeList {
    pages: Vec<PageId>,
    members: std::collections::HashSet<PageId>,
}

impl FreeList {
    fn push(&mut self, id: PageId) -> bool {
        if !self.members.insert(id) {
            return false;
        }
        self.pages.push(id);
        true
    }

    fn pop(&mut self) -> Option<PageId> {
        let id = self.pages.pop()?;
        self.members.remove(&id);
        Some(id)
    }

    fn len(&self) -> u32 {
        self.pages.len() as u32
    }
}

/// An in-memory pager.
pub struct MemPager {
    pages: Mutex<Vec<Box<[u8; PAGE_SIZE]>>>,
    free: Mutex<FreeList>,
}

impl MemPager {
    /// Creates an empty in-memory pager.
    pub fn new() -> Self {
        MemPager {
            pages: Mutex::new(Vec::new()),
            free: Mutex::new(FreeList::default()),
        }
    }
}

impl Default for MemPager {
    fn default() -> Self {
        Self::new()
    }
}

impl Pager for MemPager {
    fn allocate(&self) -> StorageResult<PageId> {
        if let Some(id) = self.free.lock().pop() {
            let mut pages = self.pages.lock();
            if let Some(slot) = pages.get_mut(id as usize) {
                **slot = *Page::new().as_bytes();
                return Ok(id);
            }
        }
        let mut pages = self.pages.lock();
        let id = pages.len() as PageId;
        pages.push(Box::new(*Page::new().as_bytes()));
        Ok(id)
    }

    fn free(&self, id: PageId) -> StorageResult<()> {
        let count = self.pages.lock().len() as u32;
        if id >= count {
            return Err(StorageError::PageOutOfBounds {
                requested: id,
                page_count: count,
            });
        }
        self.free.lock().push(id);
        Ok(())
    }

    fn free_page_count(&self) -> u32 {
        self.free.lock().len()
    }

    fn read(&self, id: PageId, out: &mut Page) -> StorageResult<()> {
        let pages = self.pages.lock();
        let bytes = pages
            .get(id as usize)
            .ok_or(StorageError::PageOutOfBounds {
                requested: id,
                page_count: pages.len() as u32,
            })?;
        *out = Page::from_bytes(**bytes);
        Ok(())
    }

    fn write(&self, id: PageId, page: &Page) -> StorageResult<()> {
        let mut pages = self.pages.lock();
        let count = pages.len() as u32;
        let slot = pages
            .get_mut(id as usize)
            .ok_or(StorageError::PageOutOfBounds {
                requested: id,
                page_count: count,
            })?;
        **slot = *page.as_bytes();
        Ok(())
    }

    fn page_count(&self) -> u32 {
        self.pages.lock().len() as u32
    }

    fn sync(&self) -> StorageResult<()> {
        Ok(())
    }
}

/// Magic marker identifying physical page 0 of a pager file as a
/// [`FilePager`] meta page (`"SPGP"`).
const META_MAGIC: u32 = 0x5350_4750;
/// Meta-page format version.
const META_VERSION: u32 = 1;
/// Chain terminator for the persistent free list.
const META_CHAIN_END: u32 = u32::MAX;
/// Free-list entries the meta page holds after its fixed header
/// (magic, version, page count, next pointer, entry count — 5 × 4 bytes).
const META_HEAD_CAP: usize = (PAGE_SIZE - 20) / 4;
/// Free-list entries a continuation page holds after its header
/// (next pointer, entry count — 2 × 4 bytes).
const META_CONT_CAP: usize = (PAGE_SIZE - 8) / 4;

/// A pager backed by a single file of consecutive 8 KiB pages.
///
/// Physical page 0 of the file is the pager's own **meta page**: it records
/// the logical page count and, chained through freed pages when it
/// overflows, the free-page list.  [`FilePager::sync`] persists both, and
/// [`FilePager::open`] restores them — so a reopened file resumes reusing
/// its freed pages instead of growing append-only.  Logical page ids (what
/// callers see) are dense from 0 and map to physical offset
/// `(id + 1) * PAGE_SIZE`.
pub struct FilePager {
    file: Mutex<File>,
    page_count: Mutex<u32>,
    /// Freed whole pages awaiting reuse; persisted to the meta page on
    /// `sync` (frees after the last sync are lost on reopen, like any
    /// unflushed write).
    free: Mutex<FileFree>,
}

/// [`FilePager`]'s free-list state: the in-memory list plus what the
/// on-disk meta is known to say about it.  One mutex guards both so every
/// meta write observes (and records) a consistent pairing.
#[derive(Default)]
struct FileFree {
    list: FreeList,
    /// True when the on-disk meta page is known to name **zero** free
    /// pages.  While this holds, reusing a free page needs no meta rewrite
    /// at all — the stale meta cannot name the reused page — which keeps
    /// draining a large free list O(1) per allocation instead of rewriting
    /// the whole chain every time.
    disk_names_none: bool,
}

/// Byte offset of logical page `id` (physical page 0 is the meta page).
fn physical_offset(id: PageId) -> u64 {
    (id as u64 + 1) * PAGE_SIZE as u64
}

/// One run of the persistent free list — the rest of the meta page after
/// its page count, or a whole continuation page: the next continuation
/// page ([`META_CHAIN_END`] ends the chain), a `u32` entry count and the
/// entries.
struct FreeRun {
    next: PageId,
    pages: Vec<PageId>,
}

impl Codec for FreeRun {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.next, self.pages.len() as u32).encode(out);
        for id in &self.pages {
            id.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> StorageResult<Self> {
        let (next, count) = <(PageId, u32)>::decode(buf)?;
        let pages = (0..count)
            .map(|_| PageId::decode(buf))
            .collect::<Result<_, _>>()?;
        Ok(FreeRun { next, pages })
    }
}

/// Writes `bytes`, zero-filled to a page, at byte `offset` of `file`.
fn write_page(file: &mut File, offset: u64, mut bytes: Vec<u8>) -> StorageResult<()> {
    bytes.resize(PAGE_SIZE, 0);
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(&bytes)?;
    Ok(())
}

/// Syncs directory `dir` so a file created, renamed or deleted in it stays
/// that way after a crash.  Best-effort: not every platform can open or
/// sync a directory, and every caller is correct without it (the cost is an
/// extra rollback or an extra replay).
pub fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

impl FilePager {
    /// Creates (or truncates) a pager file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> StorageResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let pager = FilePager {
            file: Mutex::new(file),
            page_count: Mutex::new(0),
            free: Mutex::new(FileFree::default()),
        };
        // Establish the meta page immediately so even a never-synced file
        // reopens as a valid, empty pager.
        pager.write_meta(true)?;
        Ok(pager)
    }

    /// Opens an existing pager file at `path`, restoring the page count and
    /// the persistent free-page list from its meta page.
    pub fn open<P: AsRef<Path>>(path: P) -> StorageResult<Self> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 || len < PAGE_SIZE as u64 {
            return Err(StorageError::Corrupt(format!(
                "file length {len} is not a positive multiple of the page size"
            )));
        }
        let mut page = [0u8; PAGE_SIZE];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut page)?;
        let mut meta = page.as_slice();
        if !take_header(&mut meta, "pager meta", META_MAGIC, META_VERSION)? {
            return Err(StorageError::Corrupt(
                "file has no pager meta page (not a FilePager file)".into(),
            ));
        }
        // A count past the page's end runs out of bytes: `Decode`, reported
        // as the damage it is.
        let bad_list = |e: StorageError| {
            StorageError::Corrupt(format!("pager free list does not decode: {e}"))
        };
        // Trust the larger of the recorded count and the file length: pages
        // allocated after the last sync exist on disk but not in the meta.
        let recorded = PageId::decode(&mut meta)?;
        let from_len = (len / PAGE_SIZE as u64 - 1) as u32;
        let page_count = recorded.max(from_len);

        // Reassemble the free list: the meta page's entries, then each
        // continuation page — which is itself a free page whose storage role
        // ends once it is read — followed by its entries.
        let mut free = FreeList::default();
        let mut push = |id: u32| -> StorageResult<()> {
            if id >= page_count {
                return Err(StorageError::Corrupt(format!(
                    "free list names page {id} beyond page count {page_count}"
                )));
            }
            free.push(id);
            Ok(())
        };
        let mut run = FreeRun::decode(&mut meta).map_err(bad_list)?;
        let mut visited = std::collections::HashSet::new();
        loop {
            for id in run.pages {
                push(id)?;
            }
            let cont_page = run.next;
            if cont_page == META_CHAIN_END {
                break;
            }
            if !visited.insert(cont_page) {
                return Err(StorageError::Corrupt(format!(
                    "free-list chain revisits page {cont_page}"
                )));
            }
            push(cont_page)?;
            file.seek(SeekFrom::Start(physical_offset(cont_page)))?;
            file.read_exact(&mut page)?;
            run = FreeRun::decode(&mut page.as_slice()).map_err(bad_list)?;
        }
        let disk_names_none = free.pages.is_empty();
        Ok(FilePager {
            file: Mutex::new(file),
            page_count: Mutex::new(page_count),
            free: Mutex::new(FileFree {
                list: free,
                disk_names_none,
            }),
        })
    }

    /// Writes the meta page — page count plus the free list, chained
    /// through freed pages when it outgrows the meta page itself.
    ///
    /// With `publish` false the page names **no** free pages (the in-memory
    /// list is untouched).  Reusing a free page calls for that: the on-disk
    /// list must stop naming pages that may now hold live data, and naming
    /// none does it with one page write — the rest of the list is merely
    /// leaked until the next [`FilePager::sync`] publishes it, which a
    /// reopen tolerates.  While the disk already names none, the write is
    /// skipped, so draining a large free list stays O(1) per allocation
    /// instead of rewriting the whole chain each time.
    ///
    /// The free-list lock is held across the snapshot *and* the file write,
    /// serializing all meta writers: a snapshot taken before a concurrent
    /// `allocate` pops a page must also reach the file first, otherwise the
    /// stale snapshot — still naming the reallocated page as free — could
    /// land last and a reopen would resurrect the page under live data.
    /// Lock order is free → page_count → file; no other path acquires the
    /// free-list lock while holding either of the other two.
    fn write_meta(&self, publish: bool) -> StorageResult<()> {
        let mut free = self.free.lock();
        if !publish && free.disk_names_none {
            return Ok(());
        }
        let page_count = *self.page_count.lock();
        let mut file = self.file.lock();

        // Partition the list: entries that fit in the head, then chunks of
        // continuation entries each stored *inside* one of the free pages
        // (reconstructed as free on open when the chain is traversed).
        let listed: &[PageId] = if publish { &free.list.pages } else { &[] };
        let (head, mut rest) = listed.split_at(listed.len().min(META_HEAD_CAP));
        let mut chain: Vec<(PageId, &[PageId])> = Vec::new();
        while let Some((&cont_page, tail)) = rest.split_first() {
            let (entries, tail) = tail.split_at(tail.len().min(META_CONT_CAP));
            chain.push((cont_page, entries));
            rest = tail;
        }
        let next = |i: usize| chain.get(i).map_or(META_CHAIN_END, |(page, _)| *page);

        let mut meta = Vec::with_capacity(PAGE_SIZE);
        (META_MAGIC, META_VERSION).encode(&mut meta);
        page_count.encode(&mut meta);
        FreeRun {
            next: next(0),
            pages: head.to_vec(),
        }
        .encode(&mut meta);
        write_page(&mut file, 0, meta)?;
        for (i, (cont_page, entries)) in chain.iter().enumerate() {
            let run = FreeRun {
                next: next(i + 1),
                pages: entries.to_vec(),
            };
            write_page(&mut file, physical_offset(*cont_page), run.to_bytes())?;
        }
        free.disk_names_none = listed.is_empty();
        Ok(())
    }
}

impl Pager for FilePager {
    fn allocate(&self) -> StorageResult<PageId> {
        // Bind the pop result first: an `if let` on `self.free.lock().pop()`
        // would hold the free-list mutex for the whole body, deadlocking
        // against the meta writers' own acquisition.
        let reused = self.free.lock().list.pop();
        if let Some(id) = reused {
            {
                let mut file = self.file.lock();
                file.seek(SeekFrom::Start(physical_offset(id)))?;
                file.write_all(Page::new().as_bytes())?;
            }
            // Blank the on-disk free list now: it must never name a page
            // that has been handed back out, or a reopen before the next
            // sync would resurrect it under live data.  (Plain `free` can
            // stay lazy — a stale meta that lists *fewer* free pages only
            // leaks them until the next sync.)  The blanking is a buffered
            // write, so the no-resurrection guarantee covers clean process
            // exits and post-`sync` state; a kernel crash or power loss can
            // still reorder it behind the page's new contents, like any
            // unsynced write in this pager.
            self.write_meta(false)?;
            return Ok(id);
        }
        let mut count = self.page_count.lock();
        let id = *count;
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(physical_offset(id)))?;
        file.write_all(Page::new().as_bytes())?;
        *count += 1;
        Ok(id)
    }

    fn free(&self, id: PageId) -> StorageResult<()> {
        let count = *self.page_count.lock();
        if id >= count {
            return Err(StorageError::PageOutOfBounds {
                requested: id,
                page_count: count,
            });
        }
        self.free.lock().list.push(id);
        Ok(())
    }

    fn free_page_count(&self) -> u32 {
        self.free.lock().list.len()
    }

    fn read(&self, id: PageId, out: &mut Page) -> StorageResult<()> {
        let count = *self.page_count.lock();
        if id >= count {
            return Err(StorageError::PageOutOfBounds {
                requested: id,
                page_count: count,
            });
        }
        let mut buf = [0u8; PAGE_SIZE];
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(physical_offset(id)))?;
        file.read_exact(&mut buf)?;
        *out = Page::from_bytes(buf);
        Ok(())
    }

    fn write(&self, id: PageId, page: &Page) -> StorageResult<()> {
        let count = *self.page_count.lock();
        if id >= count {
            return Err(StorageError::PageOutOfBounds {
                requested: id,
                page_count: count,
            });
        }
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(physical_offset(id)))?;
        file.write_all(page.as_bytes())?;
        Ok(())
    }

    fn page_count(&self) -> u32 {
        *self.page_count.lock()
    }

    fn sync(&self) -> StorageResult<()> {
        self.write_meta(true)?;
        self.file.lock().sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_pager(pager: &dyn Pager) {
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        assert_ne!(a, b);
        assert_eq!(pager.page_count(), 2);

        let mut page = Page::new();
        let slot = page.insert(b"page payload").unwrap();
        pager.write(b, &page).unwrap();

        let mut read_back = Page::new();
        pager.read(b, &mut read_back).unwrap();
        assert_eq!(read_back.get(slot).unwrap(), b"page payload");

        // Page `a` is still the empty formatted page.
        pager.read(a, &mut read_back).unwrap();
        assert_eq!(read_back.num_slots(), 0);

        // Out-of-bounds access is an error.
        assert!(pager.read(99, &mut read_back).is_err());
        assert!(pager.write(99, &page).is_err());
        pager.sync().unwrap();
    }

    #[test]
    fn mem_pager_basic() {
        exercise_pager(&MemPager::new());
    }

    #[test]
    fn file_pager_basic_and_reopen() {
        let dir = std::env::temp_dir().join(format!("spgist-pager-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.pages");
        {
            let pager = FilePager::create(&path).unwrap();
            exercise_pager(&pager);
        }
        {
            // Re-open and verify persistence.
            let pager = FilePager::open(&path).unwrap();
            assert_eq!(pager.page_count(), 2);
            let mut page = Page::new();
            pager.read(1, &mut page).unwrap();
            assert_eq!(page.get(0).unwrap(), b"page payload");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_pager_open_missing_is_error() {
        assert!(FilePager::open("/nonexistent/path/to/pages").is_err());
    }

    fn exercise_free_list(pager: &dyn Pager) {
        let ids: Vec<PageId> = (0..4).map(|_| pager.allocate().unwrap()).collect();
        assert_eq!(pager.page_count(), 4);
        assert_eq!(pager.free_page_count(), 0);

        // Leave a fingerprint on a page, then free it.
        let mut page = Page::new();
        page.insert(b"stale").unwrap();
        pager.write(ids[1], &page).unwrap();
        pager.free(ids[1]).unwrap();
        pager.free(ids[2]).unwrap();
        assert_eq!(pager.free_page_count(), 2);
        // Double free is a no-op.
        pager.free(ids[1]).unwrap();
        assert_eq!(pager.free_page_count(), 2);

        // Delete-then-insert does not grow the store: the freed pages are
        // handed back, zeroed.
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        let mut reused: Vec<PageId> = vec![a, b];
        reused.sort_unstable();
        assert_eq!(reused, vec![ids[1], ids[2]]);
        assert_eq!(pager.page_count(), 4, "no growth while the free list lasts");
        assert_eq!(pager.free_page_count(), 0);
        let mut read_back = Page::new();
        pager.read(ids[1], &mut read_back).unwrap();
        assert_eq!(read_back.num_slots(), 0, "reused pages come back zeroed");

        // Free list exhausted: the next allocation grows the store again.
        assert_eq!(pager.allocate().unwrap(), 4);
        assert_eq!(pager.page_count(), 5);

        // Freeing a page that was never allocated is an error.
        assert!(pager.free(99).is_err());
    }

    #[test]
    fn mem_pager_reuses_freed_pages() {
        exercise_free_list(&MemPager::new());
    }

    #[test]
    fn file_pager_reuses_freed_pages_without_growing_the_file() {
        let dir = std::env::temp_dir().join(format!("spgist-pager-free-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("free.pages");
        {
            let pager = FilePager::create(&path).unwrap();
            exercise_free_list(&pager);
            pager.sync().unwrap();
        }
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(
            len,
            6 * PAGE_SIZE as u64,
            "file holds exactly 5 data pages plus the pager meta page"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_pager_free_list_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("spgist-pager-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("persist.pages");
        {
            // Create → free → sync.
            let pager = FilePager::create(&path).unwrap();
            for _ in 0..6 {
                pager.allocate().unwrap();
            }
            pager.free(1).unwrap();
            pager.free(4).unwrap();
            pager.sync().unwrap();
        }
        let len_before = std::fs::metadata(&path).unwrap().len();
        {
            // Reopen → allocate: the freed pages come back instead of
            // append-only growth.
            let pager = FilePager::open(&path).unwrap();
            assert_eq!(pager.page_count(), 6);
            assert_eq!(pager.free_page_count(), 2, "free list restored");
            let mut reused = vec![pager.allocate().unwrap(), pager.allocate().unwrap()];
            reused.sort_unstable();
            assert_eq!(reused, vec![1, 4], "freed pages are reused after reopen");
            assert_eq!(pager.page_count(), 6, "no growth while the list lasts");
            // Exhausted: only now does the file grow again.
            assert_eq!(pager.allocate().unwrap(), 6);
            pager.sync().unwrap();
        }
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            len_before + PAGE_SIZE as u64,
            "one net new page across the reopen"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_pager_persists_free_lists_longer_than_one_meta_page() {
        let dir = std::env::temp_dir().join(format!("spgist-pager-chain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chain.pages");
        // More free pages than the meta page holds (META_HEAD_CAP = 2043):
        // the list must chain through continuation pages stored in the free
        // pages themselves.
        let total: u32 = (META_HEAD_CAP + META_CONT_CAP / 2) as u32 + 10;
        {
            let pager = FilePager::create(&path).unwrap();
            for _ in 0..total {
                pager.allocate().unwrap();
            }
            for id in 0..total {
                pager.free(id).unwrap();
            }
            pager.sync().unwrap();
        }
        {
            let pager = FilePager::open(&path).unwrap();
            assert_eq!(pager.page_count(), total);
            assert_eq!(
                pager.free_page_count(),
                total,
                "every freed page survives the reopen, including the chain pages"
            );
            // Reallocating everything drains the list without growing.
            let mut seen = std::collections::HashSet::new();
            for _ in 0..total {
                assert!(seen.insert(pager.allocate().unwrap()), "no duplicates");
            }
            assert_eq!(pager.page_count(), total);
            assert_eq!(pager.free_page_count(), 0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_pager_never_resurrects_a_reused_page_after_reopen() {
        let dir =
            std::env::temp_dir().join(format!("spgist-pager-resurrect-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resurrect.pages");
        {
            let pager = FilePager::create(&path).unwrap();
            for _ in 0..3 {
                pager.allocate().unwrap();
            }
            pager.free(1).unwrap();
            pager.sync().unwrap(); // meta now lists page 1 as free
            assert_eq!(pager.allocate().unwrap(), 1); // …and it gets reused
            let mut page = Page::new();
            page.insert(b"live data").unwrap();
            pager.write(1, &page).unwrap();
            // No final sync: the process "exits" cleanly with the write
            // buffered but never explicitly flushed.  (This models a clean
            // exit only — after a power loss the kernel may persist the
            // reused page's contents but not the meta rewrite, which is
            // outside the guarantee; see `FilePager::allocate`.)
        }
        {
            let pager = FilePager::open(&path).unwrap();
            assert_eq!(
                pager.free_page_count(),
                0,
                "the reused page must not reappear on the free list"
            );
            // The live data survives; a fresh allocation grows the file
            // instead of clobbering page 1.
            let mut read_back = Page::new();
            pager.read(1, &mut read_back).unwrap();
            assert_eq!(read_back.get(0).unwrap(), b"live data");
            assert_eq!(pager.allocate().unwrap(), 3);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_pager_meta_never_stale_under_concurrent_allocate_and_sync() {
        // Regression for a write_meta race: a meta snapshot taken before a
        // concurrent allocate popped page P, but written to the file *after*
        // the allocate's own meta rewrite, left P on the on-disk free list
        // under live data.  Hammer allocate (draining a pre-seeded free
        // list) against sync, then verify the reopened free list is empty
        // and every fingerprint survived.
        let dir = std::env::temp_dir().join(format!("spgist-pager-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("race.pages");
        const SEED: u32 = 64;
        {
            let pager = std::sync::Arc::new(FilePager::create(&path).unwrap());
            for _ in 0..SEED {
                pager.allocate().unwrap();
            }
            for id in 0..SEED {
                pager.free(id).unwrap();
            }
            pager.sync().unwrap();

            let done = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|scope| {
                let syncer = {
                    let pager = std::sync::Arc::clone(&pager);
                    let done = &done;
                    scope.spawn(move || {
                        while !done.load(std::sync::atomic::Ordering::Relaxed) {
                            pager.sync().unwrap();
                        }
                    })
                };
                let workers: Vec<_> = (0..4)
                    .map(|worker| {
                        let pager = std::sync::Arc::clone(&pager);
                        scope.spawn(move || {
                            for _ in 0..SEED / 4 {
                                let id = pager.allocate().unwrap();
                                let mut page = Page::new();
                                page.insert(format!("live-{worker}").as_bytes()).unwrap();
                                pager.write(id, &page).unwrap();
                            }
                        })
                    })
                    .collect();
                for worker in workers {
                    worker.join().unwrap();
                }
                done.store(true, std::sync::atomic::Ordering::Relaxed);
                syncer.join().unwrap();
            });
            pager.sync().unwrap();
        }
        {
            let pager = FilePager::open(&path).unwrap();
            assert_eq!(
                pager.free_page_count(),
                0,
                "no reallocated page may survive on the on-disk free list"
            );
            let mut page = Page::new();
            for id in 0..SEED {
                pager.read(id, &mut page).unwrap();
                assert!(
                    page.get(0).unwrap().starts_with(b"live-"),
                    "page {id} lost its fingerprint"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_pager_open_rejects_files_without_meta() {
        let dir = std::env::temp_dir().join(format!("spgist-pager-nometa-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("raw.pages");
        std::fs::write(&path, vec![0u8; PAGE_SIZE]).unwrap();
        assert!(FilePager::open(&path).is_err(), "no magic marker");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_pager_open_names_an_unsupported_meta_version() {
        let dir = std::env::temp_dir().join(format!("spgist-pager-version-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v2.pages");
        FilePager::create(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&2u32.to_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match FilePager::open(&path) {
            Err(StorageError::Corrupt(msg)) => assert_eq!(
                msg,
                "unsupported pager meta version 2 (this build reads version 1; no migration)"
            ),
            other => panic!("a v2 meta page must be Corrupt, got {:?}", other.map(drop)),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
