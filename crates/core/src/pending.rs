//! The pending list of a multi-entry tree: PostgreSQL GIN's *fast update*.
//!
//! A class that stores a value as several entries
//! ([`SpGistOps::MULTI_ENTRY`](crate::SpGistOps::MULTI_ENTRY): the suffix
//! tree's ≈ 8 suffixes a word) touches several unrelated leaves per insert
//! and per delete, so a checkpoint after a few hundred statements rewrites
//! most of the tree.  Instead an insert appends the value and its row to a
//! short unsorted list of pages as one record, and a delete of a value the
//! tree holds appends a tombstone; a search reads the list as well as the
//! tree.  Once the list passes [`PENDING_PAGES`] pages, the statement that
//! passed it merges the whole list into the tree.
//!
//! The list's pages belong to the tree's [`NodeStore`], so its owned-page
//! list (and with it the catalog and the checkpoint) covers them, but no
//! node is ever placed on one.  The tree's meta record names them while the
//! list is non-empty; an empty list adds no byte to it.  This module keeps
//! the records; the tree ([`crate::tree`]) decides when to append, cancel
//! and merge.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;
use spgist_storage::codec::{put_varint, take_varint};
use spgist_storage::{
    AccessHint, BufferPool, Page, PageId, SlotId, StorageError, StorageResult, MAX_RECORD_SIZE,
};

use crate::store::NodeStore;
use crate::RowId;

/// Pages a pending list may fill: the DML statement that makes it pass this
/// many merges it into the tree.  At 8 pages (64 KiB) a search reads at most
/// 8 list pages, and the benchmark's `ingest` stream (a short word's record
/// takes ≈ 14 bytes with its slot, ≈ 580 a page) merges once or twice a
/// run, each merge dirtying roughly the whole suffix tree once instead of
/// once per checkpoint.
pub const PENDING_PAGES: usize = 8;

/// Bytes a record adds to its value's encoding at most: the tag and the row
/// as a varint.
const RECORD_HEADER: usize = 11;

/// What a record says about its value and row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tag {
    /// The value was inserted for the row; the tree does not hold it yet.
    Insert = 0,
    /// The tree holds the value for the row, but it was deleted.
    Tombstone = 1,
}

/// Where a record lies.
pub(crate) type Spot = (PageId, SlotId);

/// The pending list of one tree.
#[derive(Default)]
pub(crate) struct PendingList {
    /// The list's page count, 0 for an empty list: the one word a search
    /// reads before it skips the list.
    pages: AtomicUsize,
    /// Merges into the tree since it was opened.
    merges: AtomicU64,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    /// The list's pages, oldest first; appends go to the last.
    pages: Vec<PageId>,
    /// Each live record's spot by row: where a writer looks up the record a
    /// new one cancels.
    rows: HashMap<RowId, Vec<Spot>>,
}

/// Refuses a value of `len` encoded bytes, too large for one list record.
pub(crate) fn check_len(len: usize) -> StorageResult<()> {
    let (size, max) = (RECORD_HEADER + len, MAX_RECORD_SIZE);
    if size <= max {
        Ok(())
    } else {
        Err(StorageError::RecordTooLarge { size, max })
    }
}

/// Splits a record into its tag, row and encoded value.
fn decode(record: &[u8]) -> StorageResult<(Tag, RowId, &[u8])> {
    let (tag, mut rest) = record.split_first().unwrap_or((&u8::MAX, &[]));
    let tag = match tag {
        0 => Tag::Insert,
        1 => Tag::Tombstone,
        _ => return Err(StorageError::Corrupt(format!("list record tag {tag}"))),
    };
    Ok((tag, take_varint(&mut rest)?, rest))
}

impl PendingList {
    /// The list a reopened tree's meta record names: the records on `pages`.
    pub(crate) fn open(pool: &BufferPool, pages: Vec<PageId>) -> StorageResult<Self> {
        let list = PendingList {
            pages: AtomicUsize::new(pages.len()),
            merges: AtomicU64::new(0),
            state: Mutex::new(State {
                pages,
                rows: HashMap::new(),
            }),
        };
        let mut rows: HashMap<RowId, Vec<Spot>> = HashMap::new();
        list.scan(pool, AccessHint::Normal, |spot, _, row, _| {
            rows.entry(row).or_default().push(spot);
            Ok(())
        })?;
        list.state.lock().rows = rows;
        Ok(list)
    }

    /// Number of pages the list fills: 0 until its first record and after
    /// each merge, when a search skips it without taking a lock.
    pub(crate) fn page_count(&self) -> usize {
        self.pages.load(Ordering::Acquire)
    }

    /// The list's pages, oldest first.
    pub(crate) fn pages(&self) -> Vec<PageId> {
        self.state.lock().pages.clone()
    }

    /// Merges into the tree since it was opened.
    pub(crate) fn merges(&self) -> u64 {
        self.merges.load(Ordering::Relaxed)
    }

    /// Runs `f` on every record, oldest first, each on its page.  A record
    /// removed meanwhile may or may not be met; a page the list gives up
    /// stays readable for a caller holding an epoch pin from before.
    pub(crate) fn scan(
        &self,
        pool: &BufferPool,
        hint: AccessHint,
        mut f: impl FnMut(Spot, Tag, RowId, &[u8]) -> StorageResult<()>,
    ) -> StorageResult<()> {
        for page in self.pages() {
            pool.with_page_hinted(page, hint, |p| {
                p.iter().try_for_each(|(slot, record)| {
                    let (tag, row, value) = decode(record)?;
                    f((page, slot), tag, row, value)
                })
            })??;
        }
        Ok(())
    }

    /// A live record of `value` (encoded) for `row`, and its tag.
    pub(crate) fn find(
        &self,
        pool: &BufferPool,
        row: RowId,
        value: &[u8],
    ) -> StorageResult<Option<(Spot, Tag)>> {
        let spots = self.state.lock().rows.get(&row).cloned();
        for spot in spots.unwrap_or_default() {
            let found = pool.with_page(spot.0, |p| {
                let (tag, _, stored) = decode(p.get(spot.1)?)?;
                StorageResult::Ok((stored == value).then_some((spot, tag)))
            })??;
            if found.is_some() {
                return Ok(found);
            }
        }
        Ok(None)
    }

    /// Appends a record of `value` (encoded) for `row`, on a fresh page of
    /// `store` when the last one is full.
    pub(crate) fn append(
        &self,
        store: &NodeStore,
        tag: Tag,
        row: RowId,
        value: &[u8],
    ) -> StorageResult<()> {
        check_len(value.len())?;
        let mut record = vec![tag as u8];
        put_varint(&mut record, row);
        record.extend_from_slice(value);
        let mut state = self.state.lock();
        let put = |page| {
            let put = |p: &mut Page| p.fits(record.len()).then(|| p.insert(&record));
            let slot = store.pool().with_page_mut(page, put)?.transpose()?;
            StorageResult::Ok(slot.map(|slot| (page, slot)))
        };
        let spot = match state.pages.last() {
            Some(&page) => put(page)?,
            None => None,
        };
        let spot = match spot {
            Some(spot) => spot,
            None => {
                let page = store.adopt_page()?;
                state.pages.push(page);
                self.pages.store(state.pages.len(), Ordering::Release);
                put(page)?.expect("a record of at most MAX_RECORD_SIZE bytes fits an empty page")
            }
        };
        state.rows.entry(row).or_default().push(spot);
        Ok(())
    }

    /// Removes the record of `row` at `spot`.
    pub(crate) fn remove(&self, pool: &BufferPool, row: RowId, spot: Spot) -> StorageResult<()> {
        pool.with_page_mut(spot.0, |p| p.delete(spot.1))??;
        let mut state = self.state.lock();
        let spots = state.rows.entry(row).or_default();
        spots.retain(|&s| s != spot);
        if spots.is_empty() {
            state.rows.remove(&row);
        }
        Ok(())
    }

    /// Ends a merge: the list's pages leave `store` (retired, so a search
    /// pinned before still reads them) and the list is empty again.
    pub(crate) fn truncate(&self, store: &NodeStore) {
        let mut state = self.state.lock();
        store.release_pages(&state.pages);
        *state = State::default();
        self.pages.store(0, Ordering::Release);
        self.merges.fetch_add(1, Ordering::Relaxed);
    }
}
