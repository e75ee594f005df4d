//! Checkpoint pre-image journal: crash atomicity for multi-page,
//! multi-`fsync` checkpoint writes.
//!
//! A checkpoint overwrites many pages in place — data pages, index pages
//! and the catalog chain — and a power cut mid-way can leave the file with
//! an arbitrary *subset* of those writes persisted (the kernel flushes its
//! page cache in any order it likes).  Logical WAL replay cannot repair a
//! physically torn page image, so before the first in-place write the
//! checkpointer journals what those writes destroy ([`write_pre_images`]),
//! syncs the journal, and only then starts overwriting.  On reopen,
//! [`recover`] rolls any surviving journal back, restoring the exact
//! previous-checkpoint image; the still-un-pruned WAL then replays
//! everything acknowledged since.  This is SQLite's rollback journal,
//! scoped to checkpoints.
//!
//! **What is journaled.**  Not whole pages: for a page whose new image is
//! known (the dirty-page snapshot the flush is about to write), only the
//! byte ranges where the on-disk image differs from it, with the old
//! bytes.  Rollback reads the page, lays the old bytes over it and writes
//! it back.  That restores the pre-image from *any* byte-wise mix of old
//! and new content — whichever sectors of the in-place write landed — since
//! a byte outside every range is the same in both images, and a byte
//! inside one is overwritten with the old value.  A page whose new content
//! is not known yet (a catalog page the delta will reuse) is one range
//! covering the whole page.  A page at or past the page count the file had
//! when the last checkpoint completed (`fresh_from`) is not journaled at
//! all: that checkpoint cannot reference it, so nothing a rollback
//! restores can either.
//!
//! The commit point is the **deletion** of the journal file: a valid
//! journal on disk means "the checkpoint that was running may be torn —
//! roll it back"; no journal means the last checkpoint completed.  Because
//! the journal is written to a temporary file, synced, and renamed into
//! place, a journal that is present but fails validation (short file, bad
//! CRC, a body that does not parse to its end) can only be a journal whose
//! *own* write was interrupted — at that point no in-place page write had
//! begun, so discarding it is safe.
//!
//! On-disk format, `SPGJ` v2 (all integers little-endian):
//!
//! ```text
//! magic "SPGJ" u32 | version u32 | page count u32 | crc32(body) u32
//! body  : page*
//! page  : page id u32 | range count u16 | range*
//! range : offset u16 | len u16 | old bytes [len]      (offset + len <= PAGE_SIZE)
//! ```

use std::collections::HashSet;
use std::fs::OpenOptions;
use std::io::Write;
use std::ops::{Deref, Range};
use std::path::{Path, PathBuf};

use crate::codec::{take, take_header, Codec};
use crate::crc::crc32;
use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::pager::{sync_dir, Pager};

/// `"SPGJ"`, byte for byte.
const MAGIC: u32 = 0x4A47_5053;
const VERSION: u32 = 2;
/// Differing runs closer together than this many equal bytes are journaled
/// as one range (a range header costs four, and fewer ranges apply faster).
const MERGE_GAP: usize = 8;

crate::metric_view! {
    /// Counters of checkpoint activity since the database was opened, the
    /// `checkpoint.*` section of the one metrics surface
    /// ([`crate::metrics`]).  Incremental checkpoints are judged by these
    /// numbers: an untouched table shows up as `chunks_skipped`, and
    /// `quiesce_nanos` is the only window in which concurrent writers
    /// stall.
    pub struct CheckpointStats {
        /// Checkpoints completed.
        checkpoints: Counter,
        /// Catalog chunks (row-directory runs, heap-directory runs, table
        /// metadata segments, the root) actually rewritten.
        chunks_written: Counter,
        /// Catalog chunks whose content was unchanged and which therefore
        /// cost zero page writes.
        chunks_skipped: Counter,
        /// Tables skipped outright (not mutated since the last checkpoint).
        tables_skipped: Counter,
        /// Bytes of catalog content written (chunk records, metadata
        /// segments, root segments).
        catalog_bytes: Counter,
        /// Data pages flushed from the buffer pool's dirty set.
        data_pages_flushed: Counter,
        /// Size in bytes of the pre-image rollback journal written, summed
        /// over checkpoints.
        journal_bytes: Counter,
        /// Nanoseconds spent holding every table's DML lock (the quiesce
        /// window: log rotation plus the in-memory snapshot of dirty chunks
        /// and dirty pages — flush and sync happen after the guards drop).
        quiesce_nanos: Counter,
    }
}

/// The temporary file a journal is written to before it is renamed into
/// place at `path`.
fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    tmp.into()
}

/// Reads one range from the front of `buf` — offset `u16`, length `u16`,
/// then the old bytes — advancing it; `Decode` when the old bytes run past
/// `buf` or the range past the page.
fn take_range<'a>(buf: &mut &'a [u8]) -> StorageResult<(usize, &'a [u8])> {
    let (offset, len) = <(u16, u16)>::decode(buf)?;
    let old = take(buf, len as usize)?;
    if offset as usize + old.len() > PAGE_SIZE {
        return Err(StorageError::Decode(format!(
            "journal range {offset}+{len} runs past the page"
        )));
    }
    Ok((offset as usize, old))
}

/// A validated journal: its body, and for each journaled page the span of
/// the body holding that page's ranges.
struct Journal {
    body: Vec<u8>,
    pages: Vec<(PageId, Range<usize>)>,
}

impl Journal {
    /// Splits a body into its pages — page id `u32`, range count `u16`,
    /// the ranges — checking every range with [`take_range`] and that the
    /// last one ends the body exactly.
    fn parse(body: Vec<u8>, page_count: u32) -> Option<Journal> {
        let mut rest = body.as_slice();
        let mut pages = Vec::new();
        for _ in 0..page_count {
            let (id, ranges) = <(PageId, u16)>::decode(&mut rest).ok()?;
            let start = body.len() - rest.len();
            for _ in 0..ranges {
                take_range(&mut rest).ok()?;
            }
            pages.push((id, start..body.len() - rest.len()));
        }
        rest.is_empty().then_some(Journal { body, pages })
    }

    /// The `(offset, old bytes)` ranges of the page journaled at `span`.
    fn ranges<'a>(&'a self, span: &Range<usize>) -> impl Iterator<Item = (usize, &'a [u8])> {
        let mut rest = &self.body[span.clone()];
        std::iter::from_fn(move || take_range(&mut rest).ok())
    }

    /// Lays the old bytes of the page journaled at `span` over `page`.
    fn restore(&self, span: &Range<usize>, page: &mut Page) {
        for (offset, old) in self.ranges(span) {
            page.as_bytes_mut()[offset..offset + old.len()].copy_from_slice(old);
        }
    }
}

/// Reads and validates the journal at `path`.  `Ok(None)` when the file
/// is missing or fails validation — that can only be a journal whose own
/// write was interrupted, i.e. before any in-place page write, so it is
/// safe to ignore.  An unknown *version* under a valid magic is different:
/// a torn write of this version cannot produce it, only other software
/// can, and skipping a rollback it may require is not safe — `Corrupt`
/// (the workspace's no-migrations policy).
fn load_valid(path: &Path) -> StorageResult<Option<Journal>> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    // Header: magic, version, page count, crc32(body).
    let mut rest = bytes.as_slice();
    if !take_header(&mut rest, "checkpoint journal", MAGIC, VERSION)? {
        return Ok(None);
    }
    match <(u32, u32)>::decode(&mut rest) {
        Ok((page_count, crc)) if crc32(rest) == crc => {
            Ok(Journal::parse(rest.to_vec(), page_count))
        }
        _ => Ok(None),
    }
}

/// The body of the journal being written.
#[derive(Default)]
struct Body {
    bytes: Vec<u8>,
    pages: u32,
}

impl Body {
    /// Journals what overwriting `old` (the on-disk image of page `id`)
    /// with `new` destroys: each run of differing bytes, runs fewer than
    /// [`MERGE_GAP`] equal bytes apart merged; nothing for identical
    /// images.  With `new` unknown, the whole page.
    fn push_page(&mut self, id: PageId, old: &Page, new: Option<&Page>) {
        let old = old.as_bytes();
        let mut ranges: Vec<Range<usize>> = Vec::new();
        match new.map(Page::as_bytes) {
            None => ranges.push(0..PAGE_SIZE),
            Some(new) => {
                let mut at = 0;
                loop {
                    // Equal bytes are the common case: skip them a word at
                    // a time.
                    while at + 8 <= PAGE_SIZE && old[at..at + 8] == new[at..at + 8] {
                        at += 8;
                    }
                    while at < PAGE_SIZE && old[at] == new[at] {
                        at += 1;
                    }
                    if at == PAGE_SIZE {
                        break;
                    }
                    // The range runs on while the `MERGE_GAP` bytes after
                    // its end still hold a difference.
                    let start = at;
                    let mut end = at + 1;
                    loop {
                        at = (end + MERGE_GAP).min(PAGE_SIZE);
                        match (end..at).rev().find(|&i| old[i] != new[i]) {
                            Some(last) => end = last + 1,
                            None => break,
                        }
                    }
                    ranges.push(start..end);
                }
            }
        }
        if ranges.is_empty() {
            return;
        }
        (id, ranges.len() as u16).encode(&mut self.bytes);
        for range in ranges {
            (range.start as u16, range.len() as u16).encode(&mut self.bytes);
            self.bytes.extend_from_slice(&old[range]);
        }
        self.pages += 1;
    }
}

fn write_file(path: &Path, body: &Body) -> StorageResult<u64> {
    let mut header = (MAGIC, VERSION).to_bytes();
    (body.pages, crc32(&body.bytes)).encode(&mut header);

    // Write-to-temp, sync, rename: the journal appears atomically, so a
    // crash during its own construction leaves either no journal or the
    // previous (still-valid) one.
    let tmp = tmp_path(path);
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    file.write_all(&header)?;
    file.write_all(&body.bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    sync_dir(path.parent().unwrap_or(Path::new(".")));
    Ok((header.len() + body.bytes.len()) as u64)
}

/// Journals what the checkpoint's in-place writes are about to destroy:
/// for each `(id, new image)` in `flush` the bytes of page `id` on disk
/// that differ from the new image, and the whole on-disk image of each
/// page in `whole` (its new content is not known yet; a page in both sets
/// counts as whole).  Pages at or past `fresh_from` — the page count of the
/// file when the last checkpoint completed — are skipped: that checkpoint
/// does not reference them, so a rollback to it has nothing to restore.
/// The journal is durable when this returns.
///
/// A valid journal already at `path` is a failed attempt's, and the
/// on-disk image of its pages may be mid-overwrite: each is carried
/// forward as the whole pre-image its ranges reconstruct (old wins — the
/// *original* pre-image is the one that restores the last completed
/// checkpoint, whatever this attempt writes over it).
///
/// On-disk images are read through `pager` directly — callers journal
/// before flushing, so the buffer pool's dirty copies must not shadow the
/// content being protected.  A new image is anything that derefs to a
/// page (a checkpoint passes its snapshot's image guards), and each is
/// dropped before the next is taken.  Returns the size in bytes of the
/// journal file now on disk (checkpoint accounting).
pub fn write_pre_images<P: Deref<Target = Page>>(
    path: &Path,
    pager: &dyn Pager,
    fresh_from: PageId,
    whole: impl IntoIterator<Item = PageId>,
    flush: impl IntoIterator<Item = (PageId, P)>,
) -> StorageResult<u64> {
    let mut body = Body::default();
    let mut journaled = HashSet::new();
    let mut disk = Page::new();
    if let Some(earlier) = load_valid(path)? {
        for (id, span) in &earlier.pages {
            pager.read(*id, &mut disk)?;
            earlier.restore(span, &mut disk);
            body.push_page(*id, &disk, None);
            journaled.insert(*id);
        }
    }
    let whole = whole.into_iter().map(|id| (id, None));
    for (id, new) in whole.chain(flush.into_iter().map(|(id, new)| (id, Some(new)))) {
        if id < fresh_from && journaled.insert(id) {
            pager.read(id, &mut disk)?;
            body.push_page(id, &disk, new.as_deref());
        }
    }
    write_file(path, &body)
}

/// Rolls back the journal at `path`, if a valid one exists: lays every
/// journaled page's old bytes over its on-disk image through `pager`,
/// syncs, then deletes the journal.  Returns `true` when a rollback
/// happened.  An invalid journal is deleted without being applied (see the
/// module docs for why that is safe).
pub fn recover(path: &Path, pager: &dyn Pager) -> StorageResult<bool> {
    let Some(journal) = load_valid(path)? else {
        discard(path)?;
        return Ok(false);
    };
    let page_count = pager.page_count();
    let mut page = Page::new();
    for (id, span) in &journal.pages {
        if *id >= page_count {
            return Err(StorageError::Corrupt(format!(
                "checkpoint journal references page {id} beyond file end ({page_count} pages)"
            )));
        }
        pager.read(*id, &mut page)?;
        journal.restore(span, &mut page);
        pager.write(*id, &page)?;
    }
    pager.sync()?;
    discard(path)?;
    Ok(true)
}

/// Removes the journal (and any leftover temp file); missing files are
/// fine.  Deleting the journal is the checkpoint's commit point, so the
/// removal is followed by a directory sync.
pub fn discard(path: &Path) -> StorageResult<()> {
    for p in [tmp_path(path).as_path(), path] {
        match std::fs::remove_file(p) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e.into()),
        }
    }
    sync_dir(path.parent().unwrap_or(Path::new(".")));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::SlotId;
    use crate::pager::MemPager;
    use crate::replacement::tests::Rng;
    use std::path::PathBuf;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("spgist-journal-{tag}-{}", std::process::id()));
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

    fn page(fill: u8) -> Page {
        Page::from_bytes([fill; PAGE_SIZE])
    }

    fn disk(pager: &MemPager, id: PageId) -> Page {
        let mut out = Page::new();
        pager.read(id, &mut out).unwrap();
        out
    }

    /// A journal file with a valid header and checksum over `body`.
    fn forge(path: &Path, pages: u32, body: Vec<u8>) {
        write_file(path, &Body { bytes: body, pages }).unwrap();
    }

    #[test]
    fn rollback_restores_journaled_pre_images() {
        let dir = TempDir::new("roundtrip");
        let path = dir.0.join("db.ckpt");
        let pager = MemPager::new();
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        pager.write(a, &page(0x0A)).unwrap();
        pager.write(b, &page(0x0B)).unwrap();

        // `a` is flushed with a known image, `b` is a catalog page whose
        // new content the journal never sees.
        let new_a = page(0xFA);
        write_pre_images(&path, &pager, 2, [b], [(a, &new_a)]).unwrap();
        // "Checkpoint" overwrites both, then crashes before committing.
        pager.write(a, &new_a).unwrap();
        pager.write(b, &page(0xFB)).unwrap();

        assert!(recover(&path, &pager).unwrap());
        assert_eq!(disk(&pager, a).as_bytes(), page(0x0A).as_bytes());
        assert_eq!(disk(&pager, b).as_bytes(), page(0x0B).as_bytes());
        assert!(!path.exists(), "rollback consumes the journal");
        assert!(!recover(&path, &pager).unwrap(), "idempotent when absent");
    }

    #[test]
    fn runs_fewer_than_eight_equal_bytes_apart_share_a_range() {
        let old = page(0);
        let mut image = [0u8; PAGE_SIZE];
        // 100 and 107 are six equal bytes apart, 116 is eight past 107, and
        // the page's last byte ends a range at the page end.
        for at in [100, 107, 116, PAGE_SIZE - 1] {
            image[at] = 1;
        }
        let mut body = Body::default();
        body.push_page(3, &old, Some(&Page::from_bytes(image)));
        body.push_page(4, &old, Some(&old));
        let journal = Journal::parse(body.bytes, body.pages).unwrap();
        assert_eq!(journal.pages.len(), 1, "an unchanged page is not journaled");
        let (id, span) = &journal.pages[0];
        let ranges: Vec<(usize, usize)> = journal
            .ranges(span)
            .map(|(offset, old)| (offset, old.len()))
            .collect();
        assert_eq!(
            (*id, ranges),
            (3, vec![(100, 8), (116, 1), (PAGE_SIZE - 1, 1)])
        );
    }

    /// Fills a slotted page with seeded records, then churns it: deletes,
    /// shrinking and growing updates (the growing ones slide in place).
    fn churn(page: &mut Page, rng: &mut Rng, steps: usize) {
        for _ in 0..steps {
            let rec: Vec<u8> = (0..1 + rng.below(120)).map(|_| rng.next() as u8).collect();
            let slots = page.num_slots();
            let slot = (slots > 0).then(|| rng.below(slots as usize) as u16);
            match (rng.below(4), slot) {
                (0, Some(slot)) if page.is_live(slot) => page.delete(slot).unwrap(),
                (1 | 2, Some(slot)) if page.is_live(slot) => {
                    page.update(slot, &rec).unwrap();
                }
                _ if page.fits(rec.len()) => {
                    page.insert(&rec).unwrap();
                }
                _ => page.compact(),
            }
        }
    }

    /// A grow that fits a dead range moves no other record, so a checkpoint
    /// journals the grown record and its slot entry, not the records behind
    /// it.
    #[test]
    fn a_grow_into_a_dead_range_journals_only_the_record() {
        let mut rng = Rng(0x5EED);
        let mut old = Page::new();
        churn(&mut old, &mut rng, 400);
        while old.fits(1) {
            old.insert(&[rng.next() as u8]).unwrap();
        }
        // Of the live records, the longest leaves the hole and the shortest
        // grows into it.
        let mut live: Vec<(usize, SlotId)> = old.iter().map(|(s, r)| (r.len(), s)).collect();
        live.sort_unstable();
        let (hole, shortest) = (live[live.len() - 1], live[0]);
        assert!(hole.0 > shortest.0 + 1, "a hole larger than the record");
        old.delete(hole.1).unwrap();
        let mut new = old.clone();
        let grown: Vec<u8> = (0..hole.0).map(|_| rng.next() as u8).collect();
        assert!(new.update(shortest.1, &grown).unwrap());
        assert_eq!(new.get(shortest.1).unwrap(), &grown[..]);

        let mut body = Body::default();
        body.push_page(3, &old, Some(&new));
        let journal = Journal::parse(body.bytes, body.pages).unwrap();
        let journaled: usize = journal
            .ranges(&journal.pages[0].1)
            .map(|(_, old)| old.len())
            .sum();
        assert!(
            journaled <= grown.len() + 16,
            "{journaled} bytes journaled for a {}-byte record",
            grown.len()
        );
    }

    /// The argument the format rests on: whatever byte-wise mix of the old
    /// and the new image an interrupted in-place write leaves on disk,
    /// laying the journaled old bytes over it gives back the old image.
    #[test]
    fn any_byte_mix_of_old_and_new_rolls_back_to_old() {
        let dir = TempDir::new("mix");
        let path = dir.0.join("db.ckpt");
        let mut journal_bytes = 0;
        for seed in 1..=24u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let pager = MemPager::new();
            let mut olds = Vec::new();
            let mut news = Vec::new();
            for _ in 0..6 {
                let id = pager.allocate().unwrap();
                let mut old = Page::new();
                churn(&mut old, &mut rng, 400);
                pager.write(id, &old).unwrap();
                let mut new = old.clone();
                // From one touched record to a page rewritten by compaction.
                let steps = [1, 1, 3, 400][rng.below(4)];
                churn(&mut new, &mut rng, steps);
                olds.push((id, old));
                news.push((id, new));
            }
            journal_bytes +=
                write_pre_images(&path, &pager, 6, [], news.iter().map(|(id, p)| (*id, p)))
                    .unwrap();
            for ((id, old), (_, new)) in olds.iter().zip(&news) {
                // Torn at a granularity no disk promises: runs of 1..64
                // bytes taken from either image.
                let mut mix = *old.as_bytes();
                let mut at = 0;
                while at < PAGE_SIZE {
                    let end = (at + 1 + rng.below(64)).min(PAGE_SIZE);
                    if rng.below(2) == 0 {
                        mix[at..end].copy_from_slice(&new.as_bytes()[at..end]);
                    }
                    at = end;
                }
                pager.write(*id, &Page::from_bytes(mix)).unwrap();
            }
            assert!(recover(&path, &pager).unwrap());
            for (id, old) in &olds {
                assert_eq!(disk(&pager, *id).as_bytes(), old.as_bytes(), "seed {seed}");
            }
        }
        assert!(
            journal_bytes < 24 * 6 * PAGE_SIZE as u64 / 2,
            "ranges, not whole pages: {journal_bytes} bytes"
        );
    }

    #[test]
    fn merge_keeps_the_oldest_pre_image() {
        let dir = TempDir::new("merge");
        let path = dir.0.join("db.ckpt");
        let pager = MemPager::new();
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        let mut original = Page::new();
        original.insert(&[1; 600]).unwrap();
        original.insert(&[2; 600]).unwrap();
        pager.write(a, &original).unwrap();
        pager.write(b, &page(0x0B)).unwrap();

        // The first attempt journals `a` against one new image, gets half
        // of it onto the disk and dies.
        let mut new1 = original.clone();
        new1.update(0, &[3; 600]).unwrap();
        write_pre_images(&path, &pager, 2, [], [(a, &new1)]).unwrap();
        let mut mixed = *original.as_bytes();
        mixed[PAGE_SIZE / 2..].copy_from_slice(&new1.as_bytes()[PAGE_SIZE / 2..]);
        pager.write(a, &Page::from_bytes(mixed)).unwrap();

        // The retry flushes a *different* image, which differs from the
        // original where `new1` did not — diffing the mixed disk content
        // against it would journal garbage.  It also picks up `b`.
        let mut new2 = original.clone();
        new2.update(1, &[4; 600]).unwrap();
        let new_b = page(0xBB);
        write_pre_images(&path, &pager, 2, [], [(a, &new2), (b, &new_b)]).unwrap();
        pager.write(a, &new2).unwrap();
        pager.write(b, &new_b).unwrap();

        assert!(recover(&path, &pager).unwrap());
        assert_eq!(
            disk(&pager, a).as_bytes(),
            original.as_bytes(),
            "the original pre-image wins"
        );
        assert_eq!(disk(&pager, b).as_bytes(), page(0x0B).as_bytes());
    }

    #[test]
    fn torn_journal_is_discarded_not_applied() {
        let dir = TempDir::new("torn");
        let path = dir.0.join("db.ckpt");
        let pager = MemPager::new();
        let a = pager.allocate().unwrap();
        pager.write(a, &page(0x42)).unwrap();
        write_pre_images(&path, &pager, 1, [], [(a, &page(0x43))]).unwrap();
        pager.write(a, &page(0x43)).unwrap();
        let good = std::fs::read(&path).unwrap();

        let range = |offset: u16, len: u16| {
            let mut body = (a, 1u16).to_bytes();
            (offset, len).encode(&mut body);
            body.extend_from_slice(&vec![0x42; len as usize]);
            body
        };
        let mut trailing = range(0, 16);
        trailing.extend_from_slice(b"junk");
        // Checksummed bodies that do not parse to their end.
        let malformed = [
            ("short", 1, range(0, 16)[..20].to_vec()),
            (
                "range past the page end",
                1,
                range(PAGE_SIZE as u16 - 8, 16),
            ),
            ("trailing bytes", 1, trailing),
            ("missing page", 2, range(0, 16)),
        ];
        let ignored = |what: &str| {
            assert!(!recover(&path, &pager).unwrap(), "{what}: ignored");
            assert!(!path.exists(), "{what}: cleaned up");
            assert_eq!(
                disk(&pager, a).as_bytes(),
                page(0x43).as_bytes(),
                "{what}: no rollback happened"
            );
        };
        for (what, pages, body) in malformed {
            forge(&path, pages, body);
            ignored(what);
        }
        // Truncated mid-range: the checksum no longer matches.
        std::fs::write(&path, &good[..good.len() - 7]).unwrap();
        ignored("truncated");
        // The well-formed twin of those bodies does roll back.
        forge(&path, 1, range(0, 16));
        assert!(recover(&path, &pager).unwrap());
        assert_eq!(
            disk(&pager, a).as_bytes()[..17],
            [[0x42; 16].as_slice(), &[0x43]].concat()
        );
    }

    #[test]
    fn out_of_range_ids_are_skipped_on_write_and_corrupt_on_recover() {
        let dir = TempDir::new("range");
        let path = dir.0.join("db.ckpt");
        let pager = MemPager::new();
        let a = pager.allocate().unwrap();
        let fresh = pager.allocate().unwrap();
        pager.write(a, &page(0x07)).unwrap();
        // `fresh` was allocated since the last completed checkpoint (the
        // file had one page then): dirty or a catalog target, it is not
        // journaled, and rollback leaves whatever the flush wrote there.
        let bytes = write_pre_images(
            &path,
            &pager,
            1,
            [fresh],
            [(a, &page(0x08)), (fresh, &page(0x09))],
        )
        .unwrap();
        assert!(bytes < PAGE_SIZE as u64 + 64, "one page's bytes: {bytes}");
        pager.write(a, &page(0x08)).unwrap();
        pager.write(fresh, &page(0x09)).unwrap();
        assert!(recover(&path, &pager).unwrap());
        assert_eq!(disk(&pager, a).as_bytes(), page(0x07).as_bytes());
        assert_eq!(disk(&pager, fresh).as_bytes(), page(0x09).as_bytes());

        // A journal that *does* reference a page beyond the file is corrupt.
        let mut body = Body::default();
        body.push_page(57, &page(0x00), None);
        write_file(&path, &body).unwrap();
        assert!(matches!(
            recover(&path, &pager),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_journal_version_is_corrupt_not_discarded() {
        let dir = TempDir::new("version");
        let path = dir.0.join("db.ckpt");
        let pager = MemPager::new();
        let a = pager.allocate().unwrap();
        write_pre_images(&path, &pager, 1, [a], [] as [(PageId, &Page); 0]).unwrap();
        // A v1 journal (whole-page entries), or any other version: only
        // other software writes it, and skipping a rollback it may require
        // is not safe.
        for version in [1, 99] {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[4] = version;
            std::fs::write(&path, &bytes).unwrap();
            match recover(&path, &pager) {
                Err(StorageError::Corrupt(msg)) => assert_eq!(
                    msg,
                    format!(
                        "unsupported checkpoint journal version {version} \
                         (this build reads version 2; no migration)"
                    )
                ),
                other => panic!("a v{version} journal must be Corrupt, got {other:?}"),
            }
            assert!(path.exists(), "a version-mismatched journal is kept");
        }
    }
}
