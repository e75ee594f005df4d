//! Memory that does not grow with the data.  A counting global allocator
//! (this file is its own test binary, so nothing else allocates through
//! it) tracks live heap bytes and their high-water mark:
//!
//! * while a suffix tree is bulk-built from its words, the build may hold
//!   the pages it writes and one root partition's suffixes at a time —
//!   never every suffix expanded at once;
//! * while a checkpoint flushes its dirty pages, it holds them in place —
//!   never a copy of each;
//! * while `insert_many` loads a batch, it holds the batch once, as its
//!   redo record's frame.
//!
//! The tests take turns ([`serial`]): the counters see every thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use spgist::prelude::*;
use spgist::storage::PAGE_SIZE;
use spgist_datagen::words;

/// Live heap bytes.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Highest `LIVE` since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counted.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged, so `System` upholds
// the `GlobalAlloc` contract; the counters only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` passed on unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` passed on unchanged.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, as the caller
        // guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, with the caller's `new_size`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        moved
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from the bytes live now, and returns them.
fn reset_peak() -> usize {
    let now = live();
    PEAK.store(now, Ordering::Relaxed);
    now
}

/// Runs the tests of this binary one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn suffix_bulk_build_holds_its_suffixes_once() {
    let _serial = serial();
    let before = live();
    let items: Vec<(String, RowId)> = words(20_000, 0x5eed_0028).into_iter().zip(0..).collect();
    let word_bytes = live() - before;

    // What the suffix set costs, expanded whole.
    let before = live();
    let total: usize = items.iter().map(|(w, _)| w.len().max(1)).sum();
    let mut suffixes: Vec<(String, RowId)> = Vec::with_capacity(total);
    for (word, row) in &items {
        suffixes.extend((0..word.len().max(1)).map(|start| (word[start..].to_string(), *row)));
    }
    let suffix_bytes = live() - before;
    drop(suffixes);

    let index = SuffixTreeIndex::create(BufferPool::in_memory()).unwrap();
    let base = reset_peak();
    index.bulk_build(items).unwrap();
    let high_water = PEAK.load(Ordering::Relaxed) - base;
    // What the built tree keeps: its pages, each in a pool frame and in the
    // in-memory pager (the build consumed the words).
    let pages = live() + word_bytes - base;
    let page_bytes = index.owned_pages().len() * PAGE_SIZE;
    assert!(
        pages >= page_bytes,
        "{pages} B held for {page_bytes} B of pages"
    );

    // Expanding every suffix before the build peaked at 8.1 MB: the 6.0 MB
    // suffix set on top of the pages (2.8 MB).  One root partition at a
    // time it peaks at 3.1 MB, under a tenth of the suffix set above them.
    let budget = suffix_bytes / 4 + pages;
    println!(
        "suffixes {suffix_bytes} B, pages {pages} B: \
         high water {high_water} B of a {budget} B budget"
    );
    assert!(
        high_water < budget,
        "the build held {high_water} B at its peak: more than the tree's pages \
         ({pages} B) and a quarter of the suffix set ({suffix_bytes} B)"
    );
}

#[test]
fn checkpoint_holds_its_dirty_pages_without_copying_them() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("spgist-ckpt-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut db = Database::create(dir.join("db.pages")).unwrap();
    db.create_table("notes", KeyType::Varchar).unwrap();
    // Three 2.5 KB rows to a heap page, checkpointed clean.
    const ROWS: u64 = 3_300;
    let note = |i: u64| format!("{i:0>2500}");
    for batch in (0..ROWS).collect::<Vec<_>>().chunks(100) {
        let notes: Vec<Datum> = batch.iter().map(|&i| Datum::from(note(i))).collect();
        db.table("notes").unwrap().insert_many(notes).unwrap();
    }
    db.checkpoint().unwrap();
    // One delete on every page dirties them all again, and the journal
    // saves the few bytes each delete changed.
    let mut txn = db.begin().unwrap();
    for row in (0..ROWS).step_by(3) {
        assert!(txn.delete("notes", row).unwrap());
    }
    txn.commit().unwrap();
    let dirty = db.pool().dirty_page_ids().len();
    assert!(dirty >= 1_000, "{dirty} dirty pages");

    let journal_before = db.checkpoint_stats().journal_bytes;
    let base = reset_peak();
    db.checkpoint().unwrap();
    let high_water = PEAK.load(Ordering::Relaxed) - base;
    let journal = (db.checkpoint_stats().journal_bytes - journal_before) as usize;
    assert_eq!(db.table("notes").unwrap().len(), ROWS - ROWS.div_ceil(3));

    // Copying every dirty page before the flush peaked at more than their
    // bytes.  Holding them, the checkpoint allocates its journal body and
    // little else.
    let dirty_bytes = dirty * PAGE_SIZE;
    let budget = dirty_bytes / 4 + journal;
    println!(
        "{dirty} dirty pages ({dirty_bytes} B), journal {journal} B: \
         high water {high_water} B of a {budget} B budget"
    );
    assert!(
        high_water < budget,
        "the checkpoint held {high_water} B at its peak: more than a quarter of \
         its dirty pages ({dirty_bytes} B) and its journal ({journal} B)"
    );
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A durable bulk load streams its batch: each value is checked, encoded
/// into one reused buffer, applied, and appended to the statement's one
/// redo record.  At its peak the call holds what it keeps (the pool frames
/// it fills, the row directory, the returned row ids) and that record's
/// WAL frame — not the batch again as values, encodings, `(value, row)`
/// pairs, a payload and a flusher's copy of it, which held four times the
/// frame's bytes on top.
#[test]
fn insert_many_holds_one_copy_of_its_batch() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("spgist-load-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let db = {
        let mut db = Database::create(dir.join("db.pages")).unwrap();
        db.create_table("words", KeyType::Varchar).unwrap();
        db
    };
    let batch = words(80_000, 0x5eed_0045);
    // The batch's redo record, framed: per word a length byte, the datum
    // tag, the string's length byte and its bytes; then the frame header,
    // tag, table name, first row, count and transaction id.
    assert!(batch.iter().all(|w| w.len() < 126));
    let frame: usize = batch.iter().map(|w| 3 + w.len()).sum::<usize>() + 64;

    let base = reset_peak();
    let rows = db
        .table("words")
        .unwrap()
        .insert_many(batch.iter().cloned())
        .unwrap();
    let high_water = PEAK.load(Ordering::Relaxed) - base;
    let kept = live() - base;
    assert_eq!(rows.len(), batch.len());
    // The frame grows by doubling, so its buffer is under twice its length.
    let budget = kept + 2 * frame + (256 << 10);
    println!("frame {frame} B, kept {kept} B: high water {high_water} B of a {budget} B budget");
    assert!(
        high_water < budget,
        "the load held {high_water} B at its peak: more than it keeps ({kept} B) \
         and one WAL frame ({frame} B) at twice its length"
    );
    drop(rows);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}
