//! Golden bytes: one record of every shape the varint format break changed,
//! spelled out byte for byte.  A change to any of these layouts is then a
//! deliberate diff here, made together with a version bump — never a
//! side effect.
//!
//! Lengths, counts and row ids are unsigned LEB128 varints (seven bits a
//! byte, low first, high bit = more); numbers, points and child pointers
//! stay fixed-width little-endian.
//!
//! The file framings are pinned too — the pager meta page, a WAL segment
//! and the checkpoint journal — as they land on disk.

use std::path::PathBuf;

use spgist::catalog::durable::{encode_chunk, CatalogChunk};
use spgist::core::node::{Entry, Node, NodeId, ROW_FANOUT};
use spgist::indexes::trie::{LeafMode, BLANK};
use spgist::indexes::{PointQuadtreeOps, SpGistBacked};
use spgist::prelude::*;
use spgist::storage::{journal, Codec, Page, PAGE_SIZE};
use spgist_wal::{Wal, WalConfig, WalRecord, AUTOCOMMIT};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `parts` concatenated: each is one field, written the way it is read.
fn golden(parts: &[&str]) -> String {
    parts.concat()
}

#[test]
fn trie_leaf() {
    let leaf = Node::<TrieOps>::Leaf {
        items: vec![("space".into(), 1), ("spade".into(), 300)],
    };
    let expected = golden(&[
        "00",         // tag: leaf
        "02",         // item count
        "05",         // key length
        "7370616365", // "space"
        "01",         // row 1
        "05",         // key length
        "7370616465", // "spade"
        "ac02",       // row 300 = 0x2c | 0x80, then 300 >> 7
    ]);
    assert_eq!(hex(&leaf.encode()), expected);
}

#[test]
fn inner_node_with_a_prefix() {
    let inner = Node::<TrieOps>::Inner {
        prefix: Some("sp".into()),
        entries: vec![
            Entry {
                pred: b'a',
                child: NodeId::new(7, 3),
            },
            Entry {
                pred: BLANK,
                child: NodeId::new(0x0102_0304, 0x0506),
            },
        ],
    };
    let expected = golden(&[
        "01",       // tag: inner
        "01",       // prefix present
        "02",       // prefix length
        "7370",     // "sp"
        "02",       // entry count
        "61",       // predicate 'a'
        "07000000", // child page, fixed u32
        "0300",     // child slot, fixed u16
        "00",       // predicate: the terminator
        "04030201", // child page
        "0605",     // child slot
    ]);
    assert_eq!(hex(&inner.encode()), expected);
}

#[test]
fn row_node() {
    let rows = Node::<TrieOps>::Rows {
        shift: 4,
        children: (0..ROW_FANOUT as u16).map(|i| NodeId::new(9, i)).collect(),
    };
    // Tag, shift, then the sixteen children fixed-width: a patch of a child
    // pointer never resizes the record.
    let children: String = (0..ROW_FANOUT)
        .map(|i| format!("09000000{i:02x}00"))
        .collect();
    let expected = golden(&["02", "04", &children]);
    assert_eq!(hex(&rows.encode()), expected);
}

#[test]
fn suffix_leaf_holds_the_rest() {
    let suffix = SuffixTreeIndex::create(BufferPool::in_memory()).unwrap();
    let ops = suffix.backing().ops();
    assert_eq!(ops.leaf_mode(), LeafMode::Rest);
    // `leaf_key` cuts a key in place to what its leaf keeps.
    fn kept<O: SpGistOps<Key = String>>(ops: &O, key: &str, consumed: u32) -> String {
        let mut key = key.to_string();
        ops.leaf_key(&mut key, consumed);
        key
    }
    // The suffix "space" in a leaf two levels down keeps "ace"; a suffix
    // that ended on the path keeps nothing.
    let leaf = Node::<TrieOps>::Leaf {
        items: vec![(kept(ops, "space", 2), 5), (kept(ops, "sp", 3), 130)],
    };
    let expected = golden(&[
        "00",     // tag: leaf
        "02",     // item count
        "03",     // rest length
        "616365", // "ace"
        "05",     // row 5
        "00",     // empty rest
        "8201",   // row 130
    ]);
    assert_eq!(hex(&leaf.encode()), expected);
    // The trie keeps the whole key.
    let trie = TrieIndex::create(BufferPool::in_memory()).unwrap();
    assert_eq!(trie.backing().ops().leaf_mode(), LeafMode::Full);
    assert_eq!(kept(trie.backing().ops(), "space", 2), "space");
}

#[test]
fn point_quadtree_leaf() {
    let leaf = Node::<PointQuadtreeOps>::Leaf {
        items: vec![(Point::new(1.5, -2.0), 130)],
    };
    let expected = golden(&[
        "00",               // tag: leaf
        "01",               // item count
        "000000000000f83f", // x = 1.5, fixed f64
        "00000000000000c0", // y = -2.0
        "8201",             // row 130
    ]);
    assert_eq!(hex(&leaf.encode()), expected);
}

#[test]
fn wal_insert_record() {
    let record = WalRecord::Insert {
        table: "t".into(),
        row: 5,
        datum: vec![0, 2, b'a', b'b'],
        txn: AUTOCOMMIT,
    };
    let expected = golden(&[
        "00",               // tag: insert
        "01",               // table name length
        "74",               // "t"
        "0500000000000000", // row id, fixed u64
        "04",               // datum length
        "00026162",         // datum: text tag, length 2, "ab"
        "0000000000000000", // txn id, fixed u64
    ]);
    assert_eq!(hex(&record.to_bytes()), expected);
}

#[test]
fn catalog_chunk_header() {
    let chunk = encode_chunk(&CatalogChunk::Heap(vec![7, 8]));
    let expected = golden(&[
        "43475053", // magic "SPGC", little-endian u32
        "05",       // catalog version 5
        "04",       // tag: heap directory
        "02",       // page id count
        "07000000", // page ids, fixed u32
        "08000000",
    ]);
    assert_eq!(hex(&chunk), expected);
}

/// A scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("spgist-golden-{tag}-{}", std::process::id()));
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

#[test]
fn pager_meta_page() {
    let dir = TempDir::new("pager");
    let path = dir.0.join("db.pages");
    let pager = FilePager::create(&path).unwrap();
    for _ in 0..5 {
        pager.allocate().unwrap();
    }
    pager.free(1).unwrap();
    pager.free(3).unwrap();
    pager.sync().unwrap();
    let meta = std::fs::read(&path).unwrap();
    let expected = golden(&[
        "50475053", // magic "SPGP", little-endian u32
        "01000000", // pager meta version 1
        "05000000", // logical page count
        "ffffffff", // no continuation page
        "02000000", // free-list entries on this page
        "01000000", // free page 1
        "03000000", // free page 3
    ]);
    assert_eq!(hex(&meta[..28]), expected);
    assert!(meta[28..PAGE_SIZE].iter().all(|&b| b == 0), "zero-filled");
}

#[test]
fn wal_segment_header_frame_and_seal() {
    let dir = TempDir::new("wal");
    let record = WalRecord::Insert {
        table: "t".into(),
        row: 5,
        datum: vec![0, 2, b'a', b'b'],
        txn: AUTOCOMMIT,
    };
    {
        let wal = Wal::create(dir.0.join("db.wal"), WalConfig::default()).unwrap();
        wal.append(&record).unwrap();
    }
    let segment = std::fs::read(dir.0.join("db.wal.000001")).unwrap();
    let expected = golden(&[
        // Segment header, 16 bytes.
        "57475053",         // magic "SPGW", little-endian u32
        "04000000",         // segment version 4
        "0000000000000000", // base LSN
        // Record frame.
        "18000000", // payload length 24
        "afda73d6", // crc32(payload)
        // The payload: `wal_insert_record`'s 24 bytes.
        "000174",
        "0500000000000000",
        "0400026162",
        "0000000000000000",
        // Batch seal, 20 bytes.
        "00000000", // zero length: a seal, not a record
        "53475053", // seal magic "SPGS", little-endian u32
        "01000000", // records in the batch
        "b719a83c", // crc32(the batch's frame bytes)
        "1a90afbc", // crc32(the seal's first 16 bytes)
    ]);
    assert_eq!(hex(&segment), expected);
}

#[test]
fn checkpoint_journal_one_page_one_range() {
    let dir = TempDir::new("journal");
    let path = dir.0.join("db.wal.ckpt");
    let pager = MemPager::new();
    pager.allocate().unwrap();
    let id = pager.allocate().unwrap();
    let old = [0x11; PAGE_SIZE];
    pager.write(id, &Page::from_bytes(old)).unwrap();
    let mut new = old;
    new[0x100..0x103].copy_from_slice(&[0x22; 3]);
    let bytes =
        journal::write_pre_images(&path, &pager, 2, [], [(id, &Page::from_bytes(new))]).unwrap();
    let file = std::fs::read(&path).unwrap();
    assert_eq!(bytes, file.len() as u64);
    let expected = golden(&[
        // Header, 16 bytes.
        "5350474a", // magic "SPGJ", byte for byte
        "02000000", // journal version 2
        "01000000", // journaled pages
        "94e8e86d", // crc32(body)
        // Body: one page, one range.
        "01000000", // page id 1
        "0100",     // range count
        "0001",     // offset 256, u16
        "0300",     // length 3, u16
        "111111",   // the old bytes
    ]);
    assert_eq!(hex(&file), expected);
}
