//! On-disk representation of SP-GiST tree nodes.
//!
//! A space-partitioning tree consists of **inner (index) nodes** — a node
//! predicate (prefix) plus a set of entries, each carrying a partition
//! predicate and a child pointer — and **leaf (data) nodes** holding up to
//! `BucketSize` `(key, row id)` items.  Tree nodes are much smaller than disk
//! pages, so many nodes share one page; a node is addressed by a
//! [`NodeId`] = (page, slot).
//!
//! A data node whose keys `PickSplit` cannot tell apart (thousands of rows
//! under one short suffix, stacked points, resolution exhausted) is
//! partitioned by the one thing that still differs, the row id: past
//! [`ROW_SPLIT_BYTES`] it becomes a **row node**, [`ROW_FANOUT`] children
//! selected by [`ROW_BITS`] bits of the row id, recursively.  A row-node
//! subtree is an unordered bag — searches visit every child and filter at
//! the leaves — while an insert or delete of one `(key, row)` follows the
//! row to one small leaf.
//!
//! A node's record is its kind tag, then what it holds and no wider: a
//! leaf's item count and each row id are varints (`codec::put_varint`), as
//! are an inner node's entry count and every string length the keys and
//! predicates write; a child pointer is a fixed 6-byte [`NodeId`], so the
//! placer knows a node's size before its children have addresses, and
//! re-pointing a child in place ([`crate::NodeStore::patch`]) never resizes
//! a record.  What a leaf stores of a key is the class's choice
//! ([`SpGistOps::leaf_key`]): the suffix tree keeps only what the path has
//! not spelled.

use spgist_storage::codec::{put_varint, take_len, take_varint};
use spgist_storage::{Codec, RecordId, StorageError, StorageResult};

use crate::ops::SpGistOps;
use crate::RowId;

/// Address of a tree node: the page it lives in and its slot within the page.
pub type NodeId = RecordId;

/// One entry of an inner node: a partition predicate and the child it points
/// to.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry<P> {
    /// Partition predicate (*NodePredicate*).
    pub pred: P,
    /// Child node address.
    pub child: NodeId,
}

/// Bits of the row id consumed by one row node.
pub const ROW_BITS: u32 = 4;
/// Children of a row node.
pub const ROW_FANOUT: usize = 1 << ROW_BITS;
/// Encoded size past which a leaf that keys cannot separate fans out by row
/// id.  Swept over 512 B – 4 KiB on the `ingest` workload (see `CHANGES.md`,
/// PR 16); a constant, not a parameter.
pub const ROW_SPLIT_BYTES: usize = 1024;

/// The child of a row node consuming bits `shift..shift + ROW_BITS` that
/// `row` belongs to.
pub fn row_slot(row: RowId, shift: u32) -> usize {
    // A shift past the row width only comes from a corrupt record.
    row.checked_shr(shift).unwrap_or(0) as usize % ROW_FANOUT
}

/// A tree node: an inner (index) node, a leaf (data) node, or a row node.
pub enum Node<O: SpGistOps> {
    /// Index node: optional multi-level prefix and partition entries.
    Inner {
        /// Node-level predicate (`PathShrink = TreeShrink` prefix).
        prefix: Option<O::Prefix>,
        /// Partition entries.
        entries: Vec<Entry<O::Pred>>,
    },
    /// Data node: stored keys and their row ids.
    Leaf {
        /// Data items.
        items: Vec<(O::Key, RowId)>,
    },
    /// Row node: items that keys cannot separate, fanned out by row id.
    /// Level and traversal context pass through it unchanged.
    Rows {
        /// First of the [`ROW_BITS`] row-id bits selecting a child.
        shift: u32,
        /// Exactly [`ROW_FANOUT`] children: leaves or deeper row nodes.
        children: Vec<NodeId>,
    },
}

// Manual trait implementations: deriving would put bounds on `O` itself,
// whereas only the associated types (which the `SpGistOps` trait already
// constrains to `Debug`) appear in the fields.
impl<O: SpGistOps> std::fmt::Debug for Node<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Node::Inner { prefix, entries } => f
                .debug_struct("Inner")
                .field("prefix", prefix)
                .field("entries", entries)
                .finish(),
            Node::Leaf { items } => f.debug_struct("Leaf").field("items", items).finish(),
            Node::Rows { shift, children } => f
                .debug_struct("Rows")
                .field("shift", shift)
                .field("children", children)
                .finish(),
        }
    }
}

impl<O: SpGistOps> PartialEq for Node<O>
where
    O::Key: PartialEq,
    O::Prefix: PartialEq,
{
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                Node::Inner { prefix, entries },
                Node::Inner {
                    prefix: p2,
                    entries: e2,
                },
            ) => prefix == p2 && entries == e2,
            (Node::Leaf { items }, Node::Leaf { items: i2 }) => items == i2,
            (
                Node::Rows { shift, children },
                Node::Rows {
                    shift: s2,
                    children: c2,
                },
            ) => shift == s2 && children == c2,
            _ => false,
        }
    }
}

const TAG_LEAF: u8 = 0;
const TAG_INNER: u8 = 1;
const TAG_ROWS: u8 = 2;

impl<O: SpGistOps> Node<O> {
    /// The child pointers of an index node, in entry order (none for a
    /// leaf).
    pub fn children(&self) -> Vec<NodeId> {
        match self {
            Node::Inner { entries, .. } => entries.iter().map(|e| e.child).collect(),
            Node::Rows { children, .. } => children.clone(),
            Node::Leaf { .. } => Vec::new(),
        }
    }

    /// The child pointers of an index node, for patching after a child
    /// moved; their encoding is fixed-width, so a patch never resizes the
    /// record.
    pub fn children_mut(&mut self) -> Vec<&mut NodeId> {
        match self {
            Node::Inner { entries, .. } => entries.iter_mut().map(|e| &mut e.child).collect(),
            Node::Rows { children, .. } => children.iter_mut().collect(),
            Node::Leaf { .. } => Vec::new(),
        }
    }

    /// Whether a leaf of `items` that keys cannot separate, below row nodes
    /// that consumed `shift` row-id bits, must fan out by row id: it outgrew
    /// the byte budget and there are rows and bits left to tell apart.
    pub fn outgrows_leaf(items: &[(O::Key, RowId)], shift: u32) -> bool {
        if items.len() < 2 || shift >= RowId::BITS {
            return false;
        }
        // The leaf's own encoding, stopped once the budget is passed: a
        // 50 000-row pile answers after the first few hundred items.
        let mut bytes = Vec::with_capacity(2 * ROW_SPLIT_BYTES);
        leaf_header(items.len(), &mut bytes);
        items.iter().any(|item| {
            encode_item(item, &mut bytes);
            bytes.len() > ROW_SPLIT_BYTES
        })
    }

    /// Serializes the node for storage in a slotted page.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_marking(&mut Vec::new())
    }

    /// [`Node::encode`], noting in `pointers` where each child pointer
    /// lies in the bytes: the placer writes them once the children have
    /// addresses.
    pub(crate) fn encode_marking(&self, pointers: &mut Vec<usize>) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        let mut pointer = |child: &NodeId, out: &mut Vec<u8>| {
            pointers.push(out.len());
            child.encode(out);
        };
        match self {
            Node::Leaf { items } => encode_leaf(items, &mut out),
            Node::Rows { shift, children } => {
                out.push(TAG_ROWS);
                (*shift as u8).encode(&mut out);
                children.iter().for_each(|child| pointer(child, &mut out));
            }
            Node::Inner { prefix, entries } => {
                out.push(TAG_INNER);
                prefix.encode(&mut out);
                put_varint(&mut out, entries.len() as u64);
                for entry in entries {
                    entry.pred.encode(&mut out);
                    pointer(&entry.child, &mut out);
                }
            }
        }
        out
    }

    /// Deserializes a node previously produced by [`Node::encode`]: the
    /// [`walk`] of its bytes, collected into owned vectors.
    pub fn decode(bytes: &[u8]) -> StorageResult<Self> {
        // A stored count is a claim: reserve no more than bytes exist.
        let cap = |len: usize| len.min(bytes.len());
        let (mut items, mut entries) = (Vec::new(), Vec::new());
        let (mut prefix, mut rows) = (None, None);
        walk::<O>(bytes, &mut Slots::default(), |part| {
            match part {
                Part::Leaf(len) => items.reserve_exact(cap(len)),
                Part::Inner(p, len) => {
                    prefix = Some(p.cloned());
                    entries.reserve_exact(cap(len));
                }
                Part::Entry(_, _, pred, child) => entries.push(Entry {
                    pred: pred.clone(),
                    child,
                }),
                Part::Item(_, key, row) => items.push((key.take(), row)),
                Part::Rows(shift, children) => rows = Some((shift, children.to_vec())),
            }
            true
        })?;
        Ok(match (prefix, rows) {
            (Some(prefix), _) => Node::Inner { prefix, entries },
            (None, Some((shift, children))) => Node::Rows { shift, children },
            (None, None) => Node::Leaf { items },
        })
    }
}

/// One value [`walk`] read out of an encoded node, borrowed from the
/// caller's [`Slots`] until the visitor returns.
pub enum Part<'s, O: SpGistOps> {
    /// A leaf's stored item count, before its items.
    Leaf(usize),
    /// An inner node's prefix and stored entry count, before its entries.
    Inner(Option<&'s O::Prefix>, usize),
    /// Entry `idx` of an inner node: `(idx, prefix, pred, child)`.
    Entry(usize, Option<&'s O::Prefix>, &'s O::Pred, NodeId),
    /// Item `idx` of a leaf: `(idx, key, row)`.
    Item(usize, Lent<'s, O::Key>, RowId),
    /// A row node, whole: its shift and its [`ROW_FANOUT`] children.
    Rows(u32, &'s [NodeId]),
}

/// The values [`walk`] decodes into — a prefix, a predicate and a key —
/// owned by its caller and reused from node to node: a descent allocates
/// only when a value outgrows its slot or a reader takes a [`Lent`] key.
pub struct Slots<O: SpGistOps>(Option<O::Prefix>, Option<O::Pred>, Option<O::Key>);

impl<O: SpGistOps> Default for Slots<O> {
    fn default() -> Self {
        Slots(None, None, None)
    }
}

/// A key [`walk`] decoded into its slot: read it in place, or `take` it —
/// a reader keeping the key (a match, an owned node) moves it out instead
/// of copying it, and the next key is decoded afresh.
pub struct Lent<'s, T>(&'s mut Option<T>);

impl<T> std::ops::Deref for Lent<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("walk lends only a filled slot")
    }
}

impl<T> Lent<'_, T> {
    /// Moves the key out of its slot.
    pub fn take(self) -> T {
        self.0.take().expect("walk lends only a filled slot")
    }
}

/// Decodes a `T` from the front of `buf` into `slot`, reusing the value it
/// holds.
fn decode_slot<'s, T: Codec>(slot: &'s mut Option<T>, buf: &mut &[u8]) -> StorageResult<&'s T> {
    match slot {
        Some(value) => value.decode_into(buf).map(|()| &*value),
        None => Ok(slot.insert(T::decode(buf)?)),
    }
}

/// Walks the encoded node `bytes` front to back — the one parser of the node
/// format — decoding one value at a time into `slots` and handing it to
/// `visit`: a [`Part::Leaf`] header and its items, a [`Part::Inner`] header
/// and its entries, or a row node whole.  `visit` answers whether to go on;
/// `false` leaves the rest of the record unread (a search skips the entries
/// of a node whose prefix rules the query out).
///
/// Every value is bounds-checked and every string UTF-8-validated as it is
/// reached, so a damaged record ends the walk in [`StorageError::Decode`]
/// after `visit` saw only the values in front of the damage.
pub fn walk<O: SpGistOps>(
    mut bytes: &[u8],
    slots: &mut Slots<O>,
    mut visit: impl FnMut(Part<'_, O>) -> bool,
) -> StorageResult<()> {
    let buf = &mut bytes;
    match u8::decode(buf)? {
        TAG_LEAF => {
            let len = take_len(buf)?;
            let (mut more, mut idx) = (visit(Part::Leaf(len)), 0);
            while more && idx < len {
                decode_slot(&mut slots.2, buf)?;
                more = visit(Part::Item(idx, Lent(&mut slots.2), take_varint(buf)?));
                idx += 1;
            }
        }
        TAG_INNER => {
            slots.0.decode_into(buf)?;
            let (prefix, len) = (slots.0.as_ref(), take_len(buf)?);
            let (mut more, mut idx) = (visit(Part::Inner(prefix, len)), 0);
            while more && idx < len {
                let pred = decode_slot(&mut slots.1, buf)?;
                more = visit(Part::Entry(idx, prefix, pred, NodeId::decode(buf)?));
                idx += 1;
            }
        }
        TAG_ROWS => {
            let shift = u32::from(u8::decode(buf)?);
            let mut children = [NodeId::new(0, 0); ROW_FANOUT];
            for child in &mut children {
                *child = NodeId::decode(buf)?;
            }
            visit(Part::Rows(shift, &children));
        }
        other => return Err(StorageError::Decode(format!("unknown node tag {other}"))),
    }
    Ok(())
}

/// A leaf: its header, then every item — what [`Node::encode`] writes for a
/// [`Node::Leaf`] holding `items`, encoded from wherever they lie.
pub(crate) fn encode_leaf<K: Codec>(items: &[(K, RowId)], out: &mut Vec<u8>) {
    leaf_header(items.len(), out);
    for item in items {
        encode_item(item, out);
    }
}

/// The tag and the varint item count.
fn leaf_header(len: usize, out: &mut Vec<u8>) {
    out.push(TAG_LEAF);
    put_varint(out, len as u64);
}

/// One `(key, row)` item: the key, then the row id as a varint.
fn encode_item<K: Codec>((key, row): &(K, RowId), out: &mut Vec<u8>) {
    key.encode(out);
    put_varint(out, *row);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::DigitTrieOps;

    type TestNode = Node<DigitTrieOps>;

    #[test]
    fn leaf_roundtrip() {
        let node: TestNode = Node::Leaf {
            items: vec![(42, 1), (7, 2), (123456, 3)],
        };
        let decoded = TestNode::decode(&node.encode()).unwrap();
        assert_eq!(decoded, node);
    }

    #[test]
    fn inner_roundtrip() {
        let node: TestNode = Node::Inner {
            prefix: Some(3),
            entries: vec![
                Entry {
                    pred: 1,
                    child: NodeId::new(10, 2),
                },
                Entry {
                    pred: 9,
                    child: NodeId::new(11, 0),
                },
            ],
        };
        let decoded = TestNode::decode(&node.encode()).unwrap();
        assert_eq!(decoded, node);
    }

    #[test]
    fn empty_leaf_roundtrip() {
        let node: TestNode = Node::Leaf { items: Vec::new() };
        let decoded = TestNode::decode(&node.encode()).unwrap();
        assert_eq!(decoded, node);
    }

    #[test]
    fn rows_roundtrip_and_truncation() {
        let node: TestNode = Node::Rows {
            shift: 8,
            children: (0..ROW_FANOUT as u32)
                .map(|i| NodeId::new(100 + i, i as u16))
                .collect(),
        };
        let bytes = node.encode();
        assert_eq!(TestNode::decode(&bytes).unwrap(), node);
        assert_eq!(node.children().len(), ROW_FANOUT);
        // A row node always has its full fan-out: a short record is corrupt.
        assert!(TestNode::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn lying_lengths_are_decode_errors_not_allocations() {
        // A count of 4 G items or entries (the varint of `u32::MAX`).  The
        // reservation is bounded by the bytes that remain, so the loop runs
        // dry and reports it instead of aborting on a 100 GB allocation.
        let four_g = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        let leaf = [&[TAG_LEAF][..], &four_g].concat();
        // An inner node: tag, no prefix, the count.
        let inner = [&[TAG_INNER, 0][..], &four_g].concat();
        // One past `u32::MAX` is no count at all.
        let too_many = [TAG_LEAF, 0x80, 0x80, 0x80, 0x80, 0x10];
        for bytes in [&leaf[..], &inner, &too_many] {
            assert!(matches!(
                TestNode::decode(bytes),
                Err(StorageError::Decode(_))
            ));
        }
    }

    #[test]
    fn maximal_valid_leaf_roundtrips() {
        // The largest leaf a page can hold: a tag and a two-byte count, then
        // a 4-byte key and a varint row id per item — one byte for rows
        // below 128, two up to 16 383.
        let fits = 128 + (spgist_storage::PAGE_SIZE as u64 - 3 - 128 * 5) / 6;
        let leaf = |n: u64| -> TestNode {
            Node::Leaf {
                items: (0..n).map(|row| (row as u32, row)).collect(),
            }
        };
        let bytes = leaf(fits).encode();
        assert!(bytes.len() <= spgist_storage::PAGE_SIZE);
        assert!(leaf(fits + 1).encode().len() > spgist_storage::PAGE_SIZE);
        assert_eq!(TestNode::decode(&bytes).unwrap(), leaf(fits));
    }

    #[test]
    fn row_slot_walks_the_row_id_four_bits_at_a_time() {
        let row: RowId = 0xFEDC_BA98_7654_3210;
        let nibbles: Vec<usize> = (0..RowId::BITS)
            .step_by(ROW_BITS as usize)
            .map(|shift| row_slot(row, shift))
            .collect();
        assert_eq!(nibbles, (0..16).collect::<Vec<_>>());
        // A shift no valid record holds must not panic a decoder's caller.
        assert_eq!(row_slot(row, 200), 0);
    }

    #[test]
    fn only_a_leaf_past_the_budget_with_rows_left_outgrows() {
        let pile = |n: u64| (0..n).map(|row| (7u32, row)).collect::<Vec<_>>();
        // A tag and a two-byte count, then 5 bytes per item while the row id
        // takes one byte (rows below 128) and 6 once it takes two.
        let fits = 128 + (ROW_SPLIT_BYTES as u64 - 3 - 128 * 5) / 6;
        let leaf = |n| TestNode::Leaf { items: pile(n) }.encode().len();
        assert!(leaf(fits) <= ROW_SPLIT_BYTES && leaf(fits + 1) > ROW_SPLIT_BYTES);
        assert!(!TestNode::outgrows_leaf(&pile(fits), 0));
        assert!(TestNode::outgrows_leaf(&pile(fits + 1), 0));
        assert!(!TestNode::outgrows_leaf(&pile(fits + 1), RowId::BITS));
        assert!(!TestNode::outgrows_leaf(&pile(1), 0));
    }

    #[test]
    fn garbage_tag_is_an_error() {
        assert!(TestNode::decode(&[9, 0, 0, 0, 0]).is_err());
        assert!(TestNode::decode(&[]).is_err());
    }

    fn samples() -> Vec<TestNode> {
        vec![
            Node::Leaf {
                items: vec![(42, 1), (7, 2)],
            },
            Node::Inner {
                prefix: Some(3),
                entries: (0..4)
                    .map(|d| Entry {
                        pred: d,
                        child: NodeId::new(10 + u32::from(d), 2),
                    })
                    .collect(),
            },
            Node::Rows {
                shift: 4,
                children: (0..ROW_FANOUT as u16).map(|i| NodeId::new(5, i)).collect(),
            },
            Node::Leaf { items: Vec::new() },
            Node::Inner {
                prefix: None,
                entries: Vec::new(),
            },
        ]
    }

    #[test]
    fn one_set_of_slots_walks_every_kind_of_node() {
        let mut slots = Slots::default();
        for node in samples().iter().chain(&samples()) {
            let mut parts = 0;
            walk::<DigitTrieOps>(&node.encode(), &mut slots, |part| {
                parts += 1;
                match (node, part) {
                    (Node::Leaf { items }, Part::Leaf(len)) => assert_eq!(len, items.len()),
                    (Node::Leaf { items }, Part::Item(idx, key, row)) => {
                        assert_eq!(items[idx], (*key, row))
                    }
                    (Node::Inner { prefix, entries }, Part::Inner(p, len)) => {
                        assert_eq!((p, len), (prefix.as_ref(), entries.len()))
                    }
                    (Node::Inner { prefix, entries }, Part::Entry(idx, p, pred, child)) => {
                        assert_eq!(p, prefix.as_ref());
                        assert_eq!(entries[idx], Entry { pred: *pred, child });
                    }
                    (Node::Rows { shift, children }, Part::Rows(s, c)) => {
                        assert_eq!((s, c), (*shift, children.as_slice()))
                    }
                    (node, _) => panic!("part out of place in {node:?}"),
                }
                true
            })
            .unwrap();
            let expected = match node {
                Node::Leaf { items } => 1 + items.len(),
                Node::Inner { entries, .. } => 1 + entries.len(),
                Node::Rows { .. } => 1,
            };
            assert_eq!(parts, expected, "{node:?}");
        }
    }

    #[test]
    fn a_visitor_that_answers_false_ends_the_walk() {
        let inner = &samples()[1];
        let mut parts = 0;
        walk::<DigitTrieOps>(&inner.encode(), &mut Slots::default(), |part| {
            parts += 1;
            !matches!(part, Part::Entry(1, ..))
        })
        .unwrap();
        assert_eq!(parts, 3, "the header and entries 0 and 1");
        // Stopping at the header skips the entries unread: damage past it
        // goes unseen by this walk.
        let mut bytes = inner.encode();
        bytes.truncate(bytes.len() - 3);
        walk::<DigitTrieOps>(&bytes, &mut Slots::default(), |_| false).unwrap();
    }

    #[test]
    fn every_truncation_ends_the_walk_in_decode() {
        for node in samples() {
            let bytes = node.encode();
            for cut in 0..bytes.len() {
                let walked = walk::<DigitTrieOps>(&bytes[..cut], &mut Slots::default(), |_| true);
                assert!(
                    matches!(walked, Err(StorageError::Decode(_))),
                    "{node:?} cut at {cut}: {walked:?}"
                );
                assert!(matches!(
                    TestNode::decode(&bytes[..cut]),
                    Err(StorageError::Decode(_))
                ));
            }
        }
        let walked = walk::<DigitTrieOps>(&[9], &mut Slots::default(), |_| true);
        assert!(matches!(walked, Err(StorageError::Decode(_))));
    }
}
