//! Heap file: an unordered collection of records.
//!
//! This is the analog of PostgreSQL's heap access method ("sequential scan
//! over the relation" in the paper's Section 4.2).  Indexes in the workspace
//! store [`RecordId`]s pointing into a heap file, and the sequential-scan
//! baseline of Figure 16 scans a heap file directly.

use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::codec::Codec;
use crate::error::{StorageError, StorageResult};
use crate::page::{PageId, SlotId, MAX_RECORD_SIZE};
use crate::replacement::AccessHint;

/// Physical address of a record in a heap file (page, slot) — the analog of
/// a PostgreSQL tuple id (ctid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// Page containing the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: SlotId,
}

impl RecordId {
    /// Creates a record id from its parts.
    pub fn new(page: PageId, slot: SlotId) -> Self {
        RecordId { page, slot }
    }
}

impl Codec for RecordId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.page.encode(out);
        self.slot.encode(out);
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> StorageResult<Self> {
        Ok(RecordId {
            page: PageId::decode(buf)?,
            slot: SlotId::decode(buf)?,
        })
    }
}

/// A heap file: records appended to pages in allocation order.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    pages: Vec<PageId>,
    record_count: u64,
}

impl HeapFile {
    /// Creates an empty heap file using `pool` for its pages.
    pub fn create(pool: Arc<BufferPool>) -> StorageResult<Self> {
        Ok(HeapFile {
            pool,
            pages: Vec::new(),
            record_count: 0,
        })
    }

    /// Re-opens a heap file from its persisted page directory (the list of
    /// pages it owns, in allocation order) and live-record count — the
    /// durable-catalog path: no scan, no rebuild.  Every page id is bounds-
    /// checked against the pager so a truncated file fails here with
    /// [`StorageError::Corrupt`] instead of returning wrong rows later.
    pub fn open(
        pool: Arc<BufferPool>,
        pages: Vec<PageId>,
        record_count: u64,
    ) -> StorageResult<Self> {
        let allocated = pool.page_count();
        if let Some(&bad) = pages.iter().find(|&&p| p >= allocated) {
            return Err(StorageError::Corrupt(format!(
                "heap directory names page {bad} beyond the {allocated} allocated pages"
            )));
        }
        Ok(HeapFile {
            pool,
            pages,
            record_count,
        })
    }

    /// The pages owned by this heap file, in allocation order (persisted by
    /// the durable catalog so [`HeapFile::open`] can restore the directory
    /// without scanning).
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Number of records inserted and not deleted.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Number of pages owned by this heap file.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Appends a record and returns its id.
    pub fn insert(&mut self, record: &[u8]) -> StorageResult<RecordId> {
        if record.len() > MAX_RECORD_SIZE {
            return Err(StorageError::RecordTooLarge {
                size: record.len(),
                max: MAX_RECORD_SIZE,
            });
        }
        // Append to the last page if the record fits, otherwise open a new page.
        if let Some(&last) = self.pages.last() {
            let fits = self.pool.with_page(last, |p| p.fits(record.len()))?;
            if fits {
                let slot = self.pool.with_page_mut(last, |p| p.insert(record))??;
                self.record_count += 1;
                return Ok(RecordId::new(last, slot));
            }
        }
        let page = self.pool.allocate_page()?;
        self.pages.push(page);
        let slot = self.pool.with_page_mut(page, |p| p.insert(record))??;
        self.record_count += 1;
        Ok(RecordId::new(page, slot))
    }

    /// Reads the record at `rid`.
    pub fn get(&self, rid: RecordId) -> StorageResult<Vec<u8>> {
        self.get_hinted(rid, AccessHint::Normal)
    }

    /// Reads the record at `rid` under an explicit [`AccessHint`].  Scans
    /// that address rows by record id (the executor's parallel seq scan)
    /// pass [`AccessHint::Scan`] so the one-touch pages do not displace the
    /// pool's hot set.
    pub fn get_hinted(&self, rid: RecordId, hint: AccessHint) -> StorageResult<Vec<u8>> {
        self.pool
            .with_page_hinted(rid.page, hint, |p| p.get(rid.slot).map(<[u8]>::to_vec))?
    }

    /// Deletes the record at `rid`.
    pub fn delete(&mut self, rid: RecordId) -> StorageResult<()> {
        self.pool
            .with_page_mut(rid.page, |p| p.delete(rid.slot))??;
        self.record_count -= 1;
        Ok(())
    }

    /// Sequentially scans every live record, invoking `f(rid, record)`.
    ///
    /// This is the sequential-scan access path used as the substring-match
    /// baseline in the paper's Figure 16.
    pub fn scan(&self, mut f: impl FnMut(RecordId, &[u8])) -> StorageResult<()> {
        for &page in &self.pages {
            // One-touch sequential pattern: hint the pool so a table scan
            // cannot flush the index working set.
            self.pool.with_page_hinted(page, AccessHint::Scan, |p| {
                for (slot, record) in p.iter() {
                    f(RecordId::new(page, slot), record);
                }
            })?;
        }
        Ok(())
    }

    /// Collects every live record into a vector (test helper).
    pub fn scan_all(&self) -> StorageResult<Vec<(RecordId, Vec<u8>)>> {
        let mut out = Vec::new();
        self.scan(|rid, rec| out.push((rid, rec.to_vec())))?;
        Ok(out)
    }

    /// Consumes the heap file, releasing every page it owns to the pager's
    /// free list (`DROP TABLE`): subsequent allocations reuse the space
    /// instead of growing the store.
    pub fn destroy(self) -> StorageResult<()> {
        let HeapFile { pool, pages, .. } = self;
        for page in pages {
            pool.free_page(page)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufferPool, BufferPoolConfig};
    use crate::pager::MemPager;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(
            Arc::new(MemPager::new()),
            BufferPoolConfig {
                capacity: 16,
                ..Default::default()
            },
        ))
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut heap = HeapFile::create(pool()).unwrap();
        let a = heap.insert(b"tuple one").unwrap();
        let b = heap.insert(b"tuple two").unwrap();
        assert_eq!(heap.get(a).unwrap(), b"tuple one");
        assert_eq!(heap.get(b).unwrap(), b"tuple two");
        assert_eq!(heap.record_count(), 2);
    }

    #[test]
    fn records_spill_to_new_pages() {
        let mut heap = HeapFile::create(pool()).unwrap();
        let record = vec![5u8; 1000];
        for _ in 0..50 {
            heap.insert(&record).unwrap();
        }
        assert!(heap.page_count() > 1, "50 KB of records must span pages");
        assert_eq!(heap.record_count(), 50);
        assert_eq!(heap.scan_all().unwrap().len(), 50);
    }

    #[test]
    fn delete_removes_from_scan() {
        let mut heap = HeapFile::create(pool()).unwrap();
        let a = heap.insert(b"keep").unwrap();
        let b = heap.insert(b"drop").unwrap();
        heap.delete(b).unwrap();
        let all = heap.scan_all().unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, a);
        assert!(heap.get(b).is_err());
    }

    #[test]
    fn scan_visits_in_insertion_order_within_pages() {
        let mut heap = HeapFile::create(pool()).unwrap();
        let expected: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_le_bytes().to_vec()).collect();
        for rec in &expected {
            heap.insert(rec).unwrap();
        }
        let scanned: Vec<Vec<u8>> = heap
            .scan_all()
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert_eq!(scanned, expected);
    }

    #[test]
    fn oversized_record_is_rejected() {
        let mut heap = HeapFile::create(pool()).unwrap();
        assert!(heap.insert(&vec![0u8; MAX_RECORD_SIZE + 1]).is_err());
    }

    #[test]
    fn record_id_codec_roundtrip() {
        let rid = RecordId::new(7, 13);
        assert_eq!(RecordId::from_bytes(&rid.to_bytes()).unwrap(), rid);
    }
}
