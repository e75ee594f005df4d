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
//! [`crate::heap::RecordId`]s) are never invalidated.  Updating a record in
//! place is supported when the new payload fits either in the old byte range
//! or in the page's remaining free space.

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
        let dir_end = HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE;
        let data_start = self.data_start() as usize;
        (data_start - dir_end).saturating_sub(SLOT_SIZE)
    }

    /// True if a record of `len` bytes can be inserted.
    pub fn fits(&self, len: usize) -> bool {
        len <= self.free_space()
    }

    /// Free space available for a new record once [`Page::compact`] has
    /// coalesced every gap — decided from the live bytes alone, without
    /// touching the page.  Never less than [`Page::free_space`].
    pub fn compacted_free_space(&self) -> usize {
        let dir_end = HEADER_SIZE + (self.slot_count() as usize + 1) * SLOT_SIZE;
        PAGE_SIZE.saturating_sub(dir_end + self.live_bytes())
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
    /// reclaimed lazily by [`Page::compact`].
    pub fn delete(&mut self, slot: SlotId) -> StorageResult<()> {
        if slot >= self.slot_count() || self.slot(slot).0 == 0 {
            return Err(StorageError::InvalidSlot { page: 0, slot });
        }
        self.set_slot(slot, 0, 0);
        Ok(())
    }

    /// Updates the record in `slot` in place.
    ///
    /// The update succeeds if the new payload fits in the old byte range or in
    /// the remaining free space (possibly after compaction).  Returns `true`
    /// if the update was applied, `false` if the record must be relocated to
    /// another page by the caller.
    pub fn update(&mut self, slot: SlotId, record: &[u8]) -> StorageResult<bool> {
        if slot >= self.slot_count() || self.slot(slot).0 == 0 {
            return Err(StorageError::InvalidSlot { page: 0, slot });
        }
        let (off, len) = self.slot(slot);
        if record.len() <= len as usize {
            // Reuse the existing byte range (leaving a gap of len - record.len()
            // bytes which compaction can reclaim later).
            let start = off as usize + (len as usize - record.len());
            self.bytes[start..start + record.len()].copy_from_slice(record);
            self.set_slot(slot, start as u16, record.len() as u16);
            return Ok(true);
        }
        // Growing: the record fits exactly when it fits after every gap is
        // coalesced with its own old copy dropped — decided from the slot
        // lengths alone, so a record that cannot fit leaves the page
        // untouched and the caller relocates it.
        let dir_end = HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE;
        if dir_end + self.live_bytes() - len as usize + record.len() > PAGE_SIZE {
            return Ok(false);
        }
        self.set_slot(slot, 0, 0);
        self.compact();
        let new_start = self.data_start() as usize - record.len();
        self.bytes[new_start..new_start + record.len()].copy_from_slice(record);
        self.set_data_start(new_start as u16);
        self.set_slot(slot, new_start as u16, record.len() as u16);
        Ok(true)
    }

    /// Slides the live records toward the page end, in place, to remove the
    /// gaps left by deletions and shrinking updates.  Slot ids are
    /// preserved; records keep their physical order.
    pub fn compact(&mut self) {
        let mut live: Vec<(u16, u16, SlotId)> = (0..self.slot_count())
            .map(|s| {
                let (off, len) = self.slot(s);
                (off, len, s)
            })
            .filter(|&(off, _, _)| off != 0)
            .collect();
        // Highest record first: each one moves up against the records
        // already packed behind it, never onto one still waiting to move.
        live.sort_unstable_by_key(|&(off, _, _)| std::cmp::Reverse(off));
        let mut data_start = PAGE_SIZE;
        for (off, len, s) in live {
            data_start -= len as usize;
            if off as usize != data_start {
                self.bytes
                    .copy_within(off as usize..off as usize + len as usize, data_start);
                self.set_slot(s, data_start as u16, len);
            }
        }
        self.set_data_start(data_start as u16);
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

    /// Random insert / delete / grow / shrink / compact sequences against a
    /// `Vec<Option<Vec<u8>>>` model: every live slot keeps its id and bytes
    /// through in-place compaction, a grow that cannot fit leaves the page
    /// bit-identical, and the page reports the free space the allocating
    /// reference compaction would.
    #[test]
    fn in_place_compaction_matches_the_model_and_the_reference() {
        use crate::replacement::tests::Rng;
        let (mut grown, mut refused) = (0, 0);
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
                        assert_eq!(page.fits(rec.len()), reference.fits(rec.len()));
                        let mut compacted = page.clone();
                        compacted.compact();
                        assert_eq!(page.compacted_free_space(), compacted.free_space());
                        assert!(page.compacted_free_space() >= page.free_space());
                        if page.fits(rec.len()) {
                            let slot = page.insert(&rec).unwrap();
                            assert_eq!(reference.insert(&rec).unwrap(), slot);
                            assert_eq!(slot as usize, model.len());
                            model.push(Some(rec));
                        } else {
                            assert!(page.insert(&rec).is_err());
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
                            let dir_end = HEADER_SIZE + reference.slot_count() as usize * SLOT_SIZE;
                            let fits = rec.len() <= reference.data_start() as usize - dir_end;
                            let payload = if fits { &rec } else { &old };
                            let start = reference.data_start() as usize - payload.len();
                            reference.bytes[start..start + payload.len()].copy_from_slice(payload);
                            reference.set_data_start(start as u16);
                            reference.set_slot(slot, start as u16, payload.len() as u16);
                            fits
                        };
                        assert_eq!(applied, ref_applied, "seed {seed} step {step}");
                        if applied {
                            grown += usize::from(rec.len() > old_len);
                            model[slot as usize] = Some(rec);
                        } else {
                            refused += 1;
                            assert_eq!(*page.as_bytes(), before, "a failed grow is a no-op");
                            // The old code compacted on this path too; bring
                            // the page level so free space stays comparable.
                            page.compact();
                        }
                    }
                    _ => {
                        page.compact();
                        compact_reference(&mut reference);
                    }
                }
                assert_eq!(page.num_slots() as usize, model.len());
                assert_eq!(
                    page.free_space(),
                    reference.free_space(),
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
        assert!(
            grown > 1000 && refused > 100,
            "both grow paths ran: {grown} / {refused}"
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
