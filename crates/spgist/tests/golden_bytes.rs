//! Golden bytes: one record of every shape the varint format break changed,
//! spelled out byte for byte.  A change to any of these layouts is then a
//! deliberate diff here, made together with a version bump — never a
//! side effect.
//!
//! Lengths, counts and row ids are unsigned LEB128 varints (seven bits a
//! byte, low first, high bit = more); numbers, points and child pointers
//! stay fixed-width little-endian.

use spgist::catalog::durable::{encode_chunk, CatalogChunk};
use spgist::core::node::{Entry, Node, NodeId, ROW_FANOUT};
use spgist::indexes::trie::{LeafMode, BLANK};
use spgist::indexes::{PointQuadtreeOps, SpGistBacked};
use spgist::prelude::*;
use spgist::storage::Codec;
use spgist_wal::{WalRecord, AUTOCOMMIT};

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
    let suffix = SuffixTreeIndex::open(BufferPool::in_memory()).unwrap();
    let ops = suffix.backing().ops();
    assert_eq!(ops.leaf_mode(), LeafMode::Rest);
    // `leaf_key` cuts a key in place to what its leaf keeps.
    let kept = |ops: &TrieOps, key: &str, consumed| {
        let mut key = key.to_string();
        ops.leaf_key(&mut key, consumed);
        key
    };
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
    let trie = TrieIndex::open(BufferPool::in_memory()).unwrap();
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
        "04",       // catalog version 4
        "04",       // tag: heap directory
        "02",       // page id count
        "07000000", // page ids, fixed u32
        "08000000",
    ]);
    assert_eq!(hex(&chunk), expected);
}
