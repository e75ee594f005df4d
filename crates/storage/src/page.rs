//! Slotted page layout.
//!
//! A [`Page`] is the unit of disk transfer, [`PAGE_SIZE`] bytes long (8 KiB,
//! matching PostgreSQL).  Records are stored with a classic slotted layout:
//!
//! ```text
//! +-----------+------------------+..free..+---------------+--------------+
//! | header    | slot directory → |        | ← record data | record data  |
//! +-----------+------------------+--------+---------------+--------------+
//! ```
//!
//! * the header stores the number of slots and the offset of the start of the
//!   record-data area,
//! * the slot directory grows forward; each slot holds `(offset, len)` of a
//!   record, with `offset == 0` marking a dead (deleted) slot,
//! * record data grows backward from the end of the page.
//!
//! Slot ids are stable: deleting a record leaves a dead slot behind so other
//! records (and external pointers such as tree child pointers or heap
//! [`crate::heap::RecordId`]s) are never invalidated.  A record may lie
//! anywhere at or above the record-data start, so an update in place moves
//! only what it must: a shrinking record stays in its old byte range, and a
//! growing one goes to the tightest dead range that holds it (the free gap,
//! or a hole a delete or a shrink left), else slides down only the records
//! between it and enough free bytes, and compacts the whole page only when
//! the free bytes below it do not add up.  An insert short of a free gap
//! likewise slides up only the lowest records.

use crate::error::{StorageError, StorageResult};

/// Size of a disk page in bytes (PostgreSQL's default block size).
pub const PAGE_SIZE: usize = 8192;

/// Bytes of page header: `slot_count: u16`, `data_start: u16`.
const HEADER_SIZE: usize = 4;
/// Bytes per slot directory entry: `offset: u16`, `len: u16`.
const SLOT_SIZE: usize = 4;

/// Identifier of a page within a pager (0-based).
pub type PageId = u32;
/// Identifier of a slot within a page.
pub type SlotId = u16;

/// Largest record that fits in an otherwise empty page.
pub const MAX_RECORD_SIZE: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

/// A fixed-size disk page with a slotted record layout.
#[derive(Clone)]
pub struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// Creates an empty, formatted page.
    pub fn new() -> Self {
        let mut page = Page {
            bytes: Box::new([0u8; PAGE_SIZE]),
        };
        page.set_slot_count(0);
        page.set_data_start(PAGE_SIZE as u16);
        page
    }

    /// Builds a page from a raw on-disk image.
    pub fn from_bytes(bytes: [u8; PAGE_SIZE]) -> Self {
        Page {
            bytes: Box::new(bytes),
        }
    }

    /// Raw page image (for writing to disk).
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    /// Raw page image, writable (the checkpoint journal lays old bytes over
    /// it on rollback).
    pub(crate) fn as_bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.bytes
    }

    fn slot_count(&self) -> u16 {
        u16::from_le_bytes([self.bytes[0], self.bytes[1]])
    }

    fn set_slot_count(&mut self, n: u16) {
        self.bytes[0..2].copy_from_slice(&n.to_le_bytes());
    }

    fn data_start(&self) -> u16 {
        u16::from_le_bytes([self.bytes[2], self.bytes[3]])
    }

    fn set_data_start(&mut self, n: u16) {
        self.bytes[2..4].copy_from_slice(&n.to_le_bytes());
    }

    fn slot(&self, slot: SlotId) -> (u16, u16) {
        let base = HEADER_SIZE + slot as usize * SLOT_SIZE;
        let off = u16::from_le_bytes([self.bytes[base], self.bytes[base + 1]]);
        let len = u16::from_le_bytes([self.bytes[base + 2], self.bytes[base + 3]]);
        (off, len)
    }

    fn set_slot(&mut self, slot: SlotId, off: u16, len: u16) {
        let base = HEADER_SIZE + slot as usize * SLOT_SIZE;
        self.bytes[base..base + 2].copy_from_slice(&off.to_le_bytes());
        self.bytes[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Number of slots in the page, including dead ones.
    pub fn num_slots(&self) -> u16 {
        self.slot_count()
    }

    /// Number of live (non-deleted) records in the page.
    pub fn num_live_records(&self) -> u16 {
        (0..self.slot_count())
            .filter(|&s| self.slot(s).0 != 0)
            .count() as u16
    }

    /// Free space available for a new record (including its slot entry).
    pub fn free_space(&self) -> usize {
        (self.data_start() as usize - self.dir_end()).saturating_sub(SLOT_SIZE)
    }

    /// The end of the slot directory.
    fn dir_end(&self) -> usize {
        HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE
    }

    /// True if a record of `len` bytes can be inserted.
    pub fn fits(&self, len: usize) -> bool {
        self.dir_end() + SLOT_SIZE + len <= self.data_start() as usize
    }

    /// Free space available for a new record once [`Page::compact`] has
    /// coalesced every gap — decided from the live bytes alone, without
    /// touching the page.  Never less than [`Page::free_space`].
    pub fn compacted_free_space(&self) -> usize {
        PAGE_SIZE.saturating_sub(self.dir_end() + SLOT_SIZE + self.live_bytes())
    }

    fn live_bytes(&self) -> usize {
        self.iter().map(|(_, rec)| rec.len()).sum()
    }

    /// Inserts a record, returning its slot id.
    ///
    /// Returns [`StorageError::RecordTooLarge`] if the record can never fit in
    /// a page, and [`StorageError::Corrupt`] if it does not fit in this page's
    /// remaining free space (callers are expected to check [`Page::fits`]).
    pub fn insert(&mut self, record: &[u8]) -> StorageResult<SlotId> {
        if record.len() > MAX_RECORD_SIZE {
            return Err(StorageError::RecordTooLarge {
                size: record.len(),
                max: MAX_RECORD_SIZE,
            });
        }
        if !self.fits(record.len()) {
            return Err(StorageError::Corrupt(format!(
                "insert of {} bytes into a page with {} free bytes",
                record.len(),
                self.free_space()
            )));
        }
        let slot = self.slot_count();
        let new_start = self.data_start() as usize - record.len();
        self.bytes[new_start..new_start + record.len()].copy_from_slice(record);
        self.set_data_start(new_start as u16);
        self.set_slot(slot, new_start as u16, record.len() as u16);
        self.set_slot_count(slot + 1);
        Ok(slot)
    }

    /// Reads the record stored in `slot`.
    pub fn get(&self, slot: SlotId) -> StorageResult<&[u8]> {
        if slot >= self.slot_count() {
            return Err(StorageError::InvalidSlot { page: 0, slot });
        }
        let (off, len) = self.slot(slot);
        if off == 0 {
            return Err(StorageError::InvalidSlot { page: 0, slot });
        }
        Ok(&self.bytes[off as usize..off as usize + len as usize])
    }

    /// True if `slot` holds a live record.
    pub fn is_live(&self, slot: SlotId) -> bool {
        slot < self.slot_count() && self.slot(slot).0 != 0
    }

    /// Deletes the record in `slot`.  The slot id is not reused; the space is
    /// reclaimed lazily, by a grow that fits it or a slide.
    pub fn delete(&mut self, slot: SlotId) -> StorageResult<()> {
        if slot >= self.slot_count() || self.slot(slot).0 == 0 {
            return Err(StorageError::InvalidSlot { page: 0, slot });
        }
        self.set_slot(slot, 0, 0);
        Ok(())
    }

    /// Updates the record in `slot` in place.
    ///
    /// A record that shrinks stays in its old byte range.  A record that
    /// grows moves only what it must: into the tightest dead range that
    /// holds it — the free gap, or a hole a delete or a shrink left — with
    /// no other record moving; else it grows down where it lies, sliding
    /// down only the records between it and enough free bytes
    /// (PostgreSQL's `PageIndexTupleOverwrite`, gathering free bytes across
    /// several gaps); else, when the free bytes below it do not add up, the
    /// whole page is compacted.  Whether it fits is decided from the live
    /// bytes alone, as if every gap were coalesced: returns `true` if the
    /// update was applied, `false` — the page untouched — if the record must
    /// be relocated to another page by the caller.
    pub fn update(&mut self, slot: SlotId, record: &[u8]) -> StorageResult<bool> {
        if slot >= self.slot_count() || self.slot(slot).0 == 0 {
            return Err(StorageError::InvalidSlot { page: 0, slot });
        }
        let (off, len) = self.slot(slot);
        if record.len() <= len as usize {
            // Reuse the existing byte range (leaving a gap of len - record.len()
            // bytes which a later grow or slide can reclaim).
            let start = off as usize + (len as usize - record.len());
            self.bytes[start..start + record.len()].copy_from_slice(record);
            self.set_slot(slot, start as u16, record.len() as u16);
            return Ok(true);
        }
        let dir_end = self.dir_end();
        if dir_end + self.live_bytes() - len as usize + record.len() > PAGE_SIZE {
            return Ok(false);
        }
        self.set_slot(slot, 0, 0);
        let spans = self.spans();
        let need = record.len();
        let at = match tightest_hole(&spans, dir_end, need) {
            Some(end) => end - need,
            None => self.grow_down(&spans, off as usize, dir_end, need),
        };
        self.bytes[at..at + need].copy_from_slice(record);
        self.set_slot(slot, at as u16, need as u16);
        let lowest = (0..self.slot_count())
            .map(|s| self.slot(s).0)
            .filter(|&o| o != 0);
        self.set_data_start(lowest.min().unwrap_or(PAGE_SIZE as u16));
        Ok(true)
    }

    /// Makes room for `need` bytes where a record at `off` lay, its slot
    /// already dead: the record ends where the next live record above
    /// starts, and only the records below it that stand in the way slide
    /// down, into the free bytes under them.  When those do not add up, the
    /// whole page is compacted and the record goes below it all.  Returns
    /// where the record goes.
    fn grow_down(&mut self, spans: &[Span], off: usize, dir_end: usize, need: usize) -> usize {
        let split = spans.partition_point(|span| span.0 > off);
        let top = split
            .checked_sub(1)
            .map_or(PAGE_SIZE, |above| spans[above].0);
        let below = &spans[split..];
        let at = top.saturating_sub(need);
        let (mut floor, mut moved) = (at, 0);
        for &(o, len, _) in below {
            if o + len <= floor {
                break;
            }
            floor = floor.saturating_sub(len);
            moved += 1;
        }
        if floor >= dir_end {
            self.slide(&below[..moved], at);
            at
        } else {
            self.slide(spans, PAGE_SIZE) - need
        }
    }

    /// Makes the free gap take a record of `len` bytes (as [`Page::fits`]
    /// counts it) by sliding up only the lowest live records — the fewest
    /// whose dead bytes add up — against the record above them.  With
    /// [`Page::compacted_free_space`] short of `len`, that is every record
    /// and the gap still falls short; callers check it first.
    pub fn make_room(&mut self, len: usize) {
        let spans = self.spans();
        let floor = self.dir_end() + SLOT_SIZE + len;
        let n = spans.len();
        let (mut lifted, mut bytes) = (0, 0);
        while lifted < n && spans[n - 1 - lifted].0.saturating_sub(bytes) < floor {
            bytes += spans[n - 1 - lifted].1;
            lifted += 1;
        }
        let ceiling = n
            .checked_sub(lifted + 1)
            .map_or(PAGE_SIZE, |next| spans[next].0);
        let start = self.slide(&spans[n - lifted..], ceiling);
        self.set_data_start(start as u16);
    }

    /// Slides the live records toward the page end, in place, to remove the
    /// gaps left by deletions and shrinking updates: the whole-page case of
    /// the slide [`Page::update`] and [`Page::make_room`] make.  Slot ids are
    /// preserved; records keep their physical order.
    pub fn compact(&mut self) {
        let spans = self.spans();
        let start = self.slide(&spans, PAGE_SIZE);
        self.set_data_start(start as u16);
    }

    /// The live records, highest offset first.
    fn spans(&self) -> Vec<Span> {
        let mut spans: Vec<Span> = (0..self.slot_count())
            .map(|s| {
                let (off, len) = self.slot(s);
                (off as usize, len as usize, s)
            })
            .filter(|&(off, _, _)| off != 0)
            .collect();
        // An empty record sorts below the record starting where it lies.
        spans.sort_unstable_by_key(|&(off, len, _)| std::cmp::Reverse((off, len)));
        spans
    }

    /// Lays `spans` (highest first) back to back ending at `end`, moving
    /// each record not already in place, and returns where they start.
    /// Every record moves the same way — up toward `end`, or down — and the
    /// copies start from the far side, so none lands on a record still
    /// waiting to move.
    fn slide(&mut self, spans: &[Span], end: usize) -> usize {
        let start = end - spans.iter().map(|span| span.1).sum::<usize>();
        let up = spans.first().is_none_or(|&(off, len, _)| off + len <= end);
        let mut at = if up { end } else { start };
        for i in 0..spans.len() {
            let (off, len, slot) = spans[if up { i } else { spans.len() - 1 - i }];
            let to = if up { at - len } else { at };
            at = if up { to } else { to + len };
            if off != to {
                self.bytes.copy_within(off..off + len, to);
                self.set_slot(slot, to as u16, len as u16);
            }
        }
        start
    }

    /// Checks that the header and the slot directory can be believed before
    /// anything reads or slides records by them: the directory ends at or
    /// before the record-data start, which lies in the page, and every live
    /// record lies inside `[data_start, PAGE_SIZE)`, their lengths adding up
    /// to no more than that range.
    pub fn check(&self) -> Result<(), String> {
        let (slots, data_start) = (self.slot_count(), self.data_start() as usize);
        if data_start > PAGE_SIZE || self.dir_end() > data_start {
            return Err(format!(
                "a directory of {slots} slots and record data from {data_start} do not fit"
            ));
        }
        let mut live = 0;
        for s in 0..slots {
            let (off, len) = self.slot(s);
            let (off, len) = (off as usize, len as usize);
            if off != 0 && (off < data_start || off + len > PAGE_SIZE) {
                return Err(format!(
                    "slot {s} holds {off}+{len}, outside the record data from {data_start}"
                ));
            }
            live += if off != 0 { len } else { 0 };
        }
        if live > PAGE_SIZE - data_start {
            return Err(format!(
                "{live} live bytes overfill the record data from {data_start}"
            ));
        }
        Ok(())
    }

    /// True for an all-zero image — a page allocated but never written —
    /// which reads as an empty page (PostgreSQL's `PageIsNew`).
    pub(crate) fn is_new(&self) -> bool {
        self.data_start() == 0 && self.bytes.iter().all(|&b| b == 0)
    }

    /// Iterates over `(slot, record)` pairs of live records.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &[u8])> + '_ {
        (0..self.slot_count()).filter_map(move |s| {
            let (off, len) = self.slot(s);
            if off == 0 {
                None
            } else {
                Some((s, &self.bytes[off as usize..off as usize + len as usize]))
            }
        })
    }
}

/// A live record's place: offset, length, slot.
type Span = (usize, usize, SlotId);

/// The end of the tightest dead range that holds `need` bytes, if any: a
/// hole between the live records `spans` (highest first), or the free gap
/// between the slot directory, ending at `dir_end`, and the lowest of them.
fn tightest_hole(spans: &[Span], dir_end: usize, need: usize) -> Option<usize> {
    let mut above = PAGE_SIZE;
    let mut best: Option<(usize, usize)> = None;
    for (off, end) in spans
        .iter()
        .map(|&(off, len, _)| (off, off + len))
        .chain([(dir_end, dir_end)])
    {
        let size = above.saturating_sub(end);
        if size >= need && best.is_none_or(|(tightest, _)| size < tightest) {
            best = Some((size, above));
        }
        above = above.min(off);
    }
    best.map(|(_, end)| end)
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.slot_count())
            .field("live", &self.num_live_records())
            .field("free", &self.free_space())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The allocating compaction [`Page::compact`] replaced — one `Vec` per
    /// live record, repacked in slot order — kept as the reference the
    /// property test holds the in-place one to.
    fn compact_reference(page: &mut Page) {
        let records: Vec<(SlotId, Vec<u8>)> =
            page.iter().map(|(s, rec)| (s, rec.to_vec())).collect();
        let mut data_start = PAGE_SIZE;
        for (s, rec) in &records {
            data_start -= rec.len();
            page.bytes[data_start..data_start + rec.len()].copy_from_slice(rec);
            page.set_slot(*s, data_start as u16, rec.len() as u16);
        }
        page.set_data_start(data_start as u16);
    }

    #[test]
    fn new_page_is_empty() {
        let page = Page::new();
        assert_eq!(page.num_slots(), 0);
        assert_eq!(page.num_live_records(), 0);
        assert!(page.free_space() > PAGE_SIZE - 16);
    }

    #[test]
    fn insert_and_get_roundtrip() {
        let mut page = Page::new();
        let a = page.insert(b"hello").unwrap();
        let b = page.insert(b"world!").unwrap();
        assert_eq!(page.get(a).unwrap(), b"hello");
        assert_eq!(page.get(b).unwrap(), b"world!");
        assert_eq!(page.num_live_records(), 2);
    }

    #[test]
    fn delete_keeps_other_slots_stable() {
        let mut page = Page::new();
        let a = page.insert(b"aaa").unwrap();
        let b = page.insert(b"bbb").unwrap();
        page.delete(a).unwrap();
        assert!(page.get(a).is_err());
        assert_eq!(page.get(b).unwrap(), b"bbb");
        assert!(!page.is_live(a));
        assert!(page.is_live(b));
    }

    #[test]
    fn update_in_place_smaller_and_larger() {
        let mut page = Page::new();
        let a = page.insert(b"0123456789").unwrap();
        assert!(page.update(a, b"xy").unwrap());
        assert_eq!(page.get(a).unwrap(), b"xy");
        assert!(page.update(a, b"a longer record than before").unwrap());
        assert_eq!(page.get(a).unwrap(), b"a longer record than before");
    }

    #[test]
    fn update_relocation_signalled_when_full() {
        let mut page = Page::new();
        let a = page.insert(&[1u8; 100]).unwrap();
        // Fill the page almost completely.
        while page.fits(200) {
            page.insert(&[2u8; 200]).unwrap();
        }
        let huge = vec![3u8; 4000];
        if !page.fits(huge.len()) {
            assert!(!page.update(a, &huge).unwrap());
            // The original record is still intact after a failed grow.
            assert_eq!(page.get(a).unwrap(), &vec![1u8; 100][..]);
        }
    }

    #[test]
    fn record_too_large_is_rejected() {
        let mut page = Page::new();
        let err = page.insert(&vec![0u8; PAGE_SIZE]).unwrap_err();
        assert!(matches!(err, StorageError::RecordTooLarge { .. }));
    }

    #[test]
    fn fill_page_until_full() {
        let mut page = Page::new();
        let mut count = 0;
        while page.fits(64) {
            page.insert(&[7u8; 64]).unwrap();
            count += 1;
        }
        assert!(count > 100, "8 KiB page should hold >100 64-byte records");
        assert_eq!(page.num_live_records() as usize, count);
        // All records are retrievable.
        for (_, rec) in page.iter() {
            assert_eq!(rec, &vec![7u8; 64][..]);
        }
    }

    #[test]
    fn compact_reclaims_deleted_space() {
        let mut page = Page::new();
        let mut slots = Vec::new();
        while page.fits(256) {
            slots.push(page.insert(&vec![9u8; 256]).unwrap());
        }
        let before = page.free_space();
        // Delete every other record and compact.
        for s in slots.iter().step_by(2) {
            page.delete(*s).unwrap();
        }
        page.compact();
        assert!(page.free_space() > before + 100);
        // Remaining records survive compaction.
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(page.get(*s).unwrap(), &vec![9u8; 256][..]);
        }
    }

    /// Each slot's `(offset, len)`, `None` for a dead one.
    fn places(page: &Page) -> Vec<Option<(usize, usize)>> {
        (0..page.num_slots())
            .map(|s| {
                let (off, len) = page.slot(s);
                (off != 0).then_some((off as usize, len as usize))
            })
            .collect()
    }

    /// The slots other than `except` whose record moved from `before` to
    /// `after`.
    fn moved(before: &[Option<(usize, usize)>], after: &Page, except: usize) -> Vec<usize> {
        let after = places(after);
        (0..before.len())
            .filter(|&s| s != except && before[s].is_some() && before[s] != after[s])
            .collect()
    }

    /// How a grow was laid out.
    #[derive(Default)]
    struct Moves {
        fitted: usize,
        slid: usize,
        compacted: usize,
    }

    /// Holds a grow of `slot` to `need` bytes, from the slot offsets
    /// `before` (directory ending at `dir_end`) to `page`, to the rule:
    /// the tightest dead range that holds the record takes it and nothing
    /// else moves; else the record ends where the next live record above it
    /// starts and only a run of the records right below it moves, every
    /// record outside that run keeping its offset; else the page is
    /// compacted whole.
    fn check_grow(
        before: &[Option<(usize, usize)>],
        dir_end: usize,
        page: &Page,
        slot: usize,
        need: usize,
        moves: &mut Moves,
    ) {
        let (old, _) = before[slot].unwrap();
        let mut others: Vec<(usize, usize, usize)> = (0..before.len())
            .filter(|&s| s != slot)
            .filter_map(|s| before[s].map(|(off, len)| (off, len, s)))
            .collect();
        others.sort_unstable();
        // The dead ranges, bottom up: the free gap, then every hole.
        let mut holes = Vec::new();
        let mut below = dir_end;
        for &(off, len, _) in others.iter().chain([&(PAGE_SIZE, 0, usize::MAX)]) {
            holes.push(below..off);
            below = off + len;
        }
        let at = page.slot(slot as SlotId).0 as usize;
        let moved = moved(before, page, slot);
        let tightest = holes.iter().map(|h| h.len()).filter(|&l| l >= need).min();
        if let Some(tightest) = tightest {
            assert!(
                moved.is_empty(),
                "a grow that fits a dead range moves nothing else"
            );
            let hole = holes.iter().find(|h| h.start <= at && at + need <= h.end);
            assert_eq!(hole.map(|h| h.len()), Some(tightest), "the tightest range");
            moves.fitted += 1;
            return;
        }
        let top = others.iter().find(|o| o.0 > old).map_or(PAGE_SIZE, |o| o.0);
        let under: Vec<_> = others.iter().rev().filter(|o| o.0 <= old).collect();
        let live_under: usize = under.iter().map(|o| o.1).sum();
        if top - dir_end >= live_under + need {
            assert_eq!(at, top - need, "the record grows down where it lies");
            let run = moved.len();
            let slid: Vec<usize> = under[..run].iter().map(|o| o.2).collect();
            assert_eq!(moved, sorted(slid), "only the records right below move");
            moves.slid += 1;
        } else {
            let mut compacted = page.clone();
            compacted.compact();
            assert_eq!(compacted.as_bytes(), page.as_bytes(), "compacted whole");
            assert_eq!(at, page.data_start() as usize);
            moves.compacted += 1;
        }
    }

    fn sorted(mut slots: Vec<usize>) -> Vec<usize> {
        slots.sort_unstable();
        slots
    }

    /// Random insert / delete / grow / shrink / compact sequences against a
    /// `Vec<Option<Vec<u8>>>` model: every live slot keeps its id and bytes
    /// through every slide, a grow that cannot fit leaves the page
    /// bit-identical, a grow moves only what [`check_grow`] allows, an
    /// insert short of a free gap moves only the lowest records, and the
    /// page fits, refuses and reports [`Page::compacted_free_space`] exactly
    /// as the allocating reference, which compacts on every grow, does.
    #[test]
    fn in_place_compaction_matches_the_model_and_the_reference() {
        use crate::replacement::tests::Rng;
        let (mut grown, mut refused, mut lifted) = (0, 0, 0);
        let mut moves = Moves::default();
        for seed in 1..=40u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let mut page = Page::new();
            let mut reference = Page::new();
            let mut model: Vec<Option<Vec<u8>>> = Vec::new();
            let record = |rng: &mut Rng, max: usize| -> Vec<u8> {
                let fill = rng.next() as u8;
                (0..rng.below(max))
                    .map(|i| fill.wrapping_add(i as u8))
                    .collect()
            };
            for step in 0..600 {
                let live: Vec<SlotId> = (0..model.len() as SlotId)
                    .filter(|&s| model[s as usize].is_some())
                    .collect();
                match rng.below(10) {
                    0..=3 => {
                        let max = if rng.below(8) == 0 { 900 } else { 90 };
                        let rec = record(&mut rng, max);
                        let mut compacted = page.clone();
                        compacted.compact();
                        assert_eq!(page.compacted_free_space(), compacted.free_space());
                        assert!(page.compacted_free_space() >= page.free_space());
                        // Placed as the node store places: by the compacted
                        // room, sliding only when the free gap falls short.
                        if compacted.fits(rec.len()) {
                            if !page.fits(rec.len()) {
                                let before = places(&page);
                                page.make_room(rec.len());
                                assert!(page.fits(rec.len()));
                                let mut spans = page.spans();
                                spans.reverse();
                                let moved = moved(&before, &page, usize::MAX);
                                let lowest: Vec<usize> =
                                    spans[..moved.len()].iter().map(|s| s.2 as usize).collect();
                                assert_eq!(moved, sorted(lowest), "only the lowest move up");
                                lifted += 1;
                            }
                            if !reference.fits(rec.len()) {
                                compact_reference(&mut reference);
                            }
                            let slot = page.insert(&rec).unwrap();
                            assert_eq!(reference.insert(&rec).unwrap(), slot);
                            assert_eq!(slot as usize, model.len());
                            model.push(Some(rec));
                        } else {
                            assert!(!page.fits(rec.len()) && page.insert(&rec).is_err());
                        }
                    }
                    4 | 5 if !live.is_empty() => {
                        let slot = live[rng.below(live.len())];
                        page.delete(slot).unwrap();
                        reference.delete(slot).unwrap();
                        model[slot as usize] = None;
                    }
                    6..=8 if !live.is_empty() => {
                        // Grow or shrink (the length is drawn afresh).
                        let slot = live[rng.below(live.len())];
                        let max = if rng.below(6) == 0 { 2500 } else { 160 };
                        let rec = record(&mut rng, max);
                        let before = *page.as_bytes();
                        let (before_places, dir_end) = (places(&page), page.dir_end());
                        let old_len = model[slot as usize].as_ref().unwrap().len();
                        let applied = page.update(slot, &rec).unwrap();
                        // The reference grows the way the old code did:
                        // drop the slot, compact, append if there is room.
                        let ref_applied = if rec.len() <= old_len {
                            reference.update(slot, &rec).unwrap()
                        } else {
                            let old = reference.get(slot).unwrap().to_vec();
                            reference.set_slot(slot, 0, 0);
                            compact_reference(&mut reference);
                            let dir_end = reference.dir_end();
                            let fits = rec.len() <= reference.data_start() as usize - dir_end;
                            let payload = if fits { &rec } else { &old };
                            let start = reference.data_start() as usize - payload.len();
                            reference.bytes[start..start + payload.len()].copy_from_slice(payload);
                            reference.set_data_start(start as u16);
                            reference.set_slot(slot, start as u16, payload.len() as u16);
                            fits
                        };
                        assert_eq!(applied, ref_applied, "seed {seed} step {step}");
                        if !applied {
                            refused += 1;
                            assert_eq!(*page.as_bytes(), before, "a failed grow is a no-op");
                        } else if rec.len() > old_len {
                            grown += 1;
                            let slot = slot as usize;
                            check_grow(&before_places, dir_end, &page, slot, rec.len(), &mut moves);
                        }
                        if applied {
                            model[slot as usize] = Some(rec);
                        }
                    }
                    _ => {
                        page.compact();
                        compact_reference(&mut reference);
                    }
                }
                assert_eq!(
                    page.check(),
                    Ok(()),
                    "seed {seed} step {step} {:?}",
                    places(&page)
                );
                assert_eq!(page.num_slots() as usize, model.len());
                assert_eq!(
                    page.compacted_free_space(),
                    reference.compacted_free_space(),
                    "seed {seed} step {step}"
                );
                for (slot, want) in model.iter().enumerate() {
                    match want {
                        Some(rec) => assert_eq!(page.get(slot as SlotId).unwrap(), &rec[..]),
                        None => assert!(!page.is_live(slot as SlotId)),
                    }
                }
            }
        }
        let Moves {
            fitted,
            slid,
            compacted,
        } = moves;
        assert!(
            grown > 1000 && refused > 100 && lifted > 100,
            "every path ran: {grown} grown / {refused} refused / {lifted} lifted"
        );
        assert!(
            fitted > 100 && slid > 100 && compacted > 10,
            "every grow move ran: {fitted} fitted / {slid} slid / {compacted} compacted"
        );
    }

    #[test]
    fn roundtrip_through_bytes() {
        let mut page = Page::new();
        let a = page.insert(b"persisted").unwrap();
        let image = *page.as_bytes();
        let reloaded = Page::from_bytes(image);
        assert_eq!(reloaded.get(a).unwrap(), b"persisted");
    }
}
