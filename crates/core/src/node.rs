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
    /// Creates an empty leaf.
    pub fn empty_leaf() -> Self {
        Node::Leaf { items: Vec::new() }
    }

    /// True if this is a leaf (data) node.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf { .. })
    }

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
        // The leaf header, then items only until the budget is passed: a
        // 50 000-row pile answers after the first hundred.
        let mut bytes = Vec::with_capacity(2 * ROW_SPLIT_BYTES);
        encode_leaf(&items[..0], &mut bytes);
        items.iter().any(|(key, rid)| {
            key.encode(&mut bytes);
            rid.encode(&mut bytes);
            bytes.len() > ROW_SPLIT_BYTES
        })
    }

    /// Serializes the node for storage in a slotted page.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Node::Leaf { items } => encode_leaf(items, &mut out),
            Node::Rows { shift, children } => {
                out.push(TAG_ROWS);
                (*shift as u8).encode(&mut out);
                for child in children {
                    child.encode(&mut out);
                }
            }
            Node::Inner { prefix, entries } => {
                out.push(TAG_INNER);
                prefix.encode(&mut out);
                (entries.len() as u32).encode(&mut out);
                for entry in entries {
                    entry.pred.encode(&mut out);
                    entry.child.encode(&mut out);
                }
            }
        }
        out
    }

    /// Deserializes a node previously produced by [`Node::encode`].
    pub fn decode(bytes: &[u8]) -> StorageResult<Self> {
        let mut buf = bytes;
        let tag = u8::decode(&mut buf)?;
        match tag {
            TAG_LEAF => {
                let len = u32::decode(&mut buf)? as usize;
                let mut items = Vec::with_capacity(len.min(buf.len()));
                for _ in 0..len {
                    let key = O::Key::decode(&mut buf)?;
                    let rid = RowId::decode(&mut buf)?;
                    items.push((key, rid));
                }
                Ok(Node::Leaf { items })
            }
            TAG_INNER => {
                let prefix = Option::<O::Prefix>::decode(&mut buf)?;
                let len = u32::decode(&mut buf)? as usize;
                let mut entries = Vec::with_capacity(len.min(buf.len()));
                for _ in 0..len {
                    let pred = O::Pred::decode(&mut buf)?;
                    let child = NodeId::decode(&mut buf)?;
                    entries.push(Entry { pred, child });
                }
                Ok(Node::Inner { prefix, entries })
            }
            TAG_ROWS => {
                let shift = u32::from(u8::decode(&mut buf)?);
                let children = (0..ROW_FANOUT)
                    .map(|_| NodeId::decode(&mut buf))
                    .collect::<StorageResult<_>>()?;
                Ok(Node::Rows { shift, children })
            }
            other => Err(StorageError::Decode(format!("unknown node tag {other}"))),
        }
    }
}

fn encode_leaf<K: Codec>(items: &[(K, RowId)], out: &mut Vec<u8>) {
    out.push(TAG_LEAF);
    (items.len() as u32).encode(out);
    for (key, rid) in items {
        key.encode(out);
        rid.encode(out);
    }
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
        let node: TestNode = Node::empty_leaf();
        assert!(node.is_leaf());
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
        // One flipped length field claims 4 G items.  The reservation is
        // bounded by the bytes that remain, so the loop runs dry and
        // reports it instead of aborting on a 100 GB allocation.
        assert!(TestNode::decode(&[TAG_LEAF, 0xFF, 0xFF, 0xFF, 0xFF]).is_err());
        let empty: TestNode = Node::Inner {
            prefix: None,
            entries: Vec::new(),
        };
        let mut inner = empty.encode();
        let len_at = inner.len() - 4;
        inner[len_at..].fill(0xFF);
        assert!(TestNode::decode(&inner).is_err());
    }

    #[test]
    fn maximal_valid_leaf_roundtrips() {
        // The largest leaf a page can hold: 5 bytes of header + 12 per item.
        let fits = (spgist_storage::PAGE_SIZE as u64 - 5) / 12;
        let node: TestNode = Node::Leaf {
            items: (0..fits).map(|row| (row as u32, row)).collect(),
        };
        let bytes = node.encode();
        assert!(bytes.len() <= spgist_storage::PAGE_SIZE);
        assert_eq!(TestNode::decode(&bytes).unwrap(), node);
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
        // 5 bytes of header + 12 per item.
        let fits = (ROW_SPLIT_BYTES as u64 - 5) / 12;
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
}
