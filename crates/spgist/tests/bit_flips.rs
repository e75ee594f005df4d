//! Every bit of a small valid image of each durable format, flipped one at
//! a time and handed to that format's reader.  No flip may panic, and none
//! may be believed where a checksum or a header check should catch it:
//!
//! - the checkpoint journal (`SPGJ`) is ignored and deleted, or `Corrupt`
//!   when the flip lands in its version field — never rolled back;
//! - a one-segment WAL (`SPGW`) is `Corrupt`, or yields a prefix of the
//!   written records ending on a sealed batch;
//! - the pager meta page (`SPGP`) opens or fails;
//! - every catalog chunk (`SPGC`) decodes or fails;
//! - a slotted page (a node page, a heap page) read through the buffer
//!   pool is `Corrupt` naming the page, or reads every live record in
//!   bounds.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use spgist::catalog::durable::{
    decode_chunk, encode_chunk, CatalogChunk, PersistedIndex, TableMetaChunk,
};
use spgist::core::SpGistConfig;
use spgist::prelude::*;
use spgist::storage::{journal, HeapFile, Page, PageId, RecordId, StorageError, PAGE_SIZE};
use spgist_wal::{Wal, WalConfig, WalRecord, AUTOCOMMIT};

/// A scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("spgist-bitflip-{tag}-{}", std::process::id()));
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

/// `image` with bit `bit` flipped.
fn flipped(image: &[u8], bit: usize) -> Vec<u8> {
    let mut bytes = image.to_vec();
    bytes[bit / 8] ^= 1 << (bit % 8);
    bytes
}

/// Runs `read` on every one-bit flip of the first `len` bytes of `image`,
/// failing with the bit's position if it panics.
fn sweep<T>(image: &[u8], len: usize, mut read: impl FnMut(usize, Vec<u8>) -> T) {
    for bit in 0..len * 8 {
        let bytes = flipped(image, bit);
        if catch_unwind(AssertUnwindSafe(|| read(bit, bytes))).is_err() {
            panic!("flipping bit {bit} (byte {}) panics the reader", bit / 8);
        }
    }
}

#[test]
fn journal_flips_are_ignored_or_corrupt_never_rolled_back() {
    let dir = TempDir::new("journal");
    let path = dir.0.join("db.wal.ckpt");
    let pager = MemPager::new();
    pager.allocate().unwrap();
    let id = pager.allocate().unwrap();
    let old = [0x11; PAGE_SIZE];
    pager.write(id, &Page::from_bytes(old)).unwrap();
    let mut new = old;
    new[0x100..0x103].copy_from_slice(&[0x22; 3]);
    journal::write_pre_images(&path, &pager, 2, [], [(id, &Page::from_bytes(new))]).unwrap();
    let image = std::fs::read(&path).unwrap();
    // What the reader would roll back to, were it fooled: the new image.
    pager.write(id, &Page::from_bytes(new)).unwrap();

    sweep(&image, image.len(), |bit, bytes| {
        std::fs::write(&path, &bytes).unwrap();
        let in_version = (32..64).contains(&bit);
        match journal::recover(&path, &pager) {
            Ok(false) if !in_version => assert!(!path.exists(), "bit {bit}: deleted"),
            Err(StorageError::Corrupt(_)) if in_version => {}
            other => panic!("bit {bit}: {other:?}"),
        }
        let mut disk = Page::new();
        pager.read(id, &mut disk).unwrap();
        assert_eq!(disk.as_bytes(), &new, "bit {bit}: no rollback");
    });
}

fn insert(row: u64) -> WalRecord {
    WalRecord::Insert {
        table: "t".into(),
        row,
        datum: vec![0, 2, b'a', b'b'],
        txn: AUTOCOMMIT,
    }
}

#[test]
fn wal_flips_are_corrupt_or_a_sealed_prefix() {
    let dir = TempDir::new("wal");
    let prefix = dir.0.join("db.wal");
    let segment = dir.0.join("db.wal.000001");
    let written: Vec<WalRecord> = (0..3).map(insert).collect();
    {
        // One record per batch: each `append` waits for its own seal.
        let wal = Wal::create(&prefix, WalConfig::default()).unwrap();
        for record in &written {
            wal.append(record).unwrap();
        }
    }
    let image = std::fs::read(&segment).unwrap();

    sweep(&image, image.len(), |bit, bytes| {
        std::fs::write(&segment, &bytes).unwrap();
        match Wal::open(&prefix, WalConfig::default(), 0) {
            Err(StorageError::Corrupt(_)) => {}
            Ok((wal, records)) => {
                drop(wal);
                let lsns: Vec<u64> = records.iter().map(|(lsn, _)| *lsn).collect();
                let records: Vec<WalRecord> = records.into_iter().map(|(_, r)| r).collect();
                assert!(records.len() <= written.len(), "bit {bit}");
                assert_eq!(records, written[..records.len()], "bit {bit}");
                assert_eq!(lsns, (0..records.len() as u64).collect::<Vec<_>>());
            }
            Err(other) => panic!("bit {bit}: {other:?}"),
        }
    });
}

#[test]
fn pager_meta_flips_open_or_fail() {
    let dir = TempDir::new("pager");
    let path = dir.0.join("db.pages");
    let pager = FilePager::create(&path).unwrap();
    for _ in 0..5 {
        pager.allocate().unwrap();
    }
    pager.free(1).unwrap();
    pager.free(3).unwrap();
    pager.sync().unwrap();
    drop(pager);
    let image = std::fs::read(&path).unwrap();
    sweep(&image, 64, |_, bytes| {
        std::fs::write(&path, &bytes).unwrap();
        let _ = FilePager::open(&path).map(drop);
    });
}

#[test]
fn catalog_chunk_flips_decode_or_fail() {
    let index = PersistedIndex {
        name: "ix".into(),
        kind: 0,
        config: SpGistConfig::default(),
        world: Rect::new(0.0, 0.0, 1.0, 1.0),
        meta_page: 7,
        pages: vec![7, 8],
    };
    let chunks = [
        CatalogChunk::Root {
            checkpoint_lsn: 41,
            tables: vec![("a".into(), 3), ("b".into(), 9)],
        },
        CatalogChunk::TableMeta(TableMetaChunk {
            name: "t".into(),
            key_type: 2,
            heap_records: 10,
            live_rows: 9,
            distinct: 4,
            rows_len: 10,
            row_chunks: vec![5],
            heap_len: 1,
            heap_chunks: vec![6],
            indexes: vec![index],
        }),
        CatalogChunk::Rows(vec![
            Some(RecordId::new(3, 1)),
            None,
            Some(RecordId::new(4, 0)),
        ]),
        CatalogChunk::Heap(vec![1, 2, 3]),
    ];
    for chunk in &chunks {
        let image = encode_chunk(chunk);
        sweep(&image, image.len(), |_, bytes| {
            decode_chunk(&bytes).map(drop)
        });
    }
}

/// A trie's fullest node page after inserts and deletes, and the first page
/// of a heap, written to `pager`.
fn slotted_pages(pager: &Arc<MemPager>) -> [PageId; 2] {
    let pool = Arc::new(BufferPool::with_default_config(pager.clone()));
    let tree = SpGistTree::create(Arc::clone(&pool), TrieOps::default()).unwrap();
    let key = |i: u64| format!("k{:05}", i * 7919 % 10_007);
    for i in 0..1500 {
        tree.insert(key(i), i).unwrap();
    }
    for i in (0..1500).step_by(3) {
        assert!(tree.delete(&key(i), i).unwrap());
    }
    for i in 1500..2000 {
        tree.insert(key(i), i).unwrap();
    }
    let mut heap = HeapFile::create(Arc::clone(&pool)).unwrap();
    for i in 0..300 {
        heap.insert(format!("row {i}").as_bytes()).unwrap();
    }
    pool.flush_all().unwrap();
    let slots = |page: &PageId| pool.with_page(*page, Page::num_slots).unwrap();
    let node = tree.owned_pages().into_iter().max_by_key(slots).unwrap();
    [node, heap.pages()[0]]
}

#[test]
fn slotted_page_flips_are_corrupt_or_read_in_bounds() {
    let pager = Arc::new(MemPager::new());
    for id in slotted_pages(&pager) {
        let mut page = Page::new();
        pager.read(id, &mut page).unwrap();
        let image = *page.as_bytes();
        assert!(page.num_slots() >= 16, "page {id} fills the swept slots");
        // The header and the first 16 slot entries.
        sweep(&image, 4 + 16 * 4, |bit, bytes| {
            let flipped: [u8; PAGE_SIZE] = bytes.try_into().unwrap();
            pager.write(id, &Page::from_bytes(flipped)).unwrap();
            let pool = BufferPool::with_default_config(pager.clone());
            let read = pool.with_page(id, |p| {
                for (slot, record) in p.iter() {
                    assert_eq!(p.get(slot).unwrap(), record);
                }
                (p.free_space(), p.compacted_free_space())
            });
            match read {
                Ok(_) => {}
                Err(StorageError::Corrupt(why)) => {
                    assert!(why.starts_with(&format!("page {id}: ")), "bit {bit}: {why}")
                }
                Err(other) => panic!("bit {bit}: {other:?}"),
            }
        });
        pager.write(id, &page).unwrap();
    }
}
