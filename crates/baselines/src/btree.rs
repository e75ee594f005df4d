//! A disk-based B⁺-tree over byte-string keys.
//!
//! This is the baseline PostgreSQL index of the paper's string experiments.
//! Every tree node occupies one 8 KiB page (so tree height in nodes and in
//! pages coincide — the property Figures 11 and 12 contrast with the trie).
//! Leaves are chained left-to-right for range scans, which is how the B⁺-tree
//! answers prefix queries efficiently and regular-expression queries by
//! scanning the range of the pattern's literal prefix (the behaviour the
//! paper describes in Section 6).

use std::sync::Arc;

use spgist_core::RowId;
use spgist_storage::{BufferPool, Codec, PageId, StorageError, StorageResult};

use spgist_indexes::query::regex_matches;

/// Serialized size above which a node is split.  Leaves some slack below the
/// 8 KiB page so the updated node always fits back into its page.
const NODE_CAPACITY: usize = 7_600;

/// A key stored in the tree: an arbitrary byte string (strings are indexed by
/// their UTF-8 bytes, which preserves lexicographic order for ASCII data).
pub type Key = Vec<u8>;

#[derive(Debug, Clone)]
enum BNode {
    Internal {
        /// `keys[i]` separates `children[i]` (keys < `keys[i]`) from
        /// `children[i + 1]` (keys ≥ `keys[i]`).
        keys: Vec<Key>,
        children: Vec<PageId>,
    },
    Leaf {
        items: Vec<(Key, RowId)>,
        next: Option<PageId>,
    },
}

const TAG_INTERNAL: u8 = 0;
const TAG_LEAF: u8 = 1;

impl BNode {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        match self {
            BNode::Internal { keys, children } => {
                out.push(TAG_INTERNAL);
                (keys.len() as u32).encode(&mut out);
                for key in keys {
                    (key.len() as u32).encode(&mut out);
                    out.extend_from_slice(key);
                }
                (children.len() as u32).encode(&mut out);
                for child in children {
                    child.encode(&mut out);
                }
            }
            BNode::Leaf { items, next } => {
                out.push(TAG_LEAF);
                (items.len() as u32).encode(&mut out);
                for (key, row) in items {
                    (key.len() as u32).encode(&mut out);
                    out.extend_from_slice(key);
                    row.encode(&mut out);
                }
                next.encode(&mut out);
            }
        }
        out
    }

    fn decode(bytes: &[u8]) -> StorageResult<Self> {
        let mut buf = bytes;
        let tag = u8::decode(&mut buf)?;
        match tag {
            TAG_INTERNAL => {
                let n = u32::decode(&mut buf)? as usize;
                let mut keys = Vec::with_capacity(n.min(buf.len()));
                for _ in 0..n {
                    let len = u32::decode(&mut buf)? as usize;
                    if buf.len() < len {
                        return Err(StorageError::Decode("truncated b-tree key".into()));
                    }
                    keys.push(buf[..len].to_vec());
                    buf = &buf[len..];
                }
                let c = u32::decode(&mut buf)? as usize;
                let mut children = Vec::with_capacity(c.min(buf.len()));
                for _ in 0..c {
                    children.push(PageId::decode(&mut buf)?);
                }
                Ok(BNode::Internal { keys, children })
            }
            TAG_LEAF => {
                let n = u32::decode(&mut buf)? as usize;
                let mut items = Vec::with_capacity(n.min(buf.len()));
                for _ in 0..n {
                    let len = u32::decode(&mut buf)? as usize;
                    if buf.len() < len {
                        return Err(StorageError::Decode("truncated b-tree item".into()));
                    }
                    let key = buf[..len].to_vec();
                    buf = &buf[len..];
                    let row = RowId::decode(&mut buf)?;
                    items.push((key, row));
                }
                let next = Option::<PageId>::decode(&mut buf)?;
                Ok(BNode::Leaf { items, next })
            }
            other => Err(StorageError::Decode(format!(
                "unknown b-tree node tag {other}"
            ))),
        }
    }

    fn byte_size(&self) -> usize {
        self.encode().len()
    }
}

/// Statistics of a B⁺-tree (for the size and height figures).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BTreeStats {
    /// Tree height in nodes; equals the height in pages because every node
    /// occupies one page.
    pub height: u32,
    /// Number of pages (nodes).
    pub pages: u64,
    /// Total size in bytes.
    pub size_bytes: u64,
    /// Number of stored items.
    pub items: u64,
}

/// A disk-based B⁺-tree mapping byte-string keys to row ids.
pub struct BPlusTree {
    pool: Arc<BufferPool>,
    root: PageId,
    pages: u64,
    items: u64,
}

impl BPlusTree {
    /// Creates an empty tree on `pool`.
    pub fn create(pool: Arc<BufferPool>) -> StorageResult<Self> {
        let root = pool.allocate_page()?;
        let node = BNode::Leaf {
            items: Vec::new(),
            next: None,
        };
        pool.with_page_mut(root, |p| p.insert(&node.encode()))??;
        Ok(BPlusTree {
            pool,
            root,
            pages: 1,
            items: 0,
        })
    }

    fn read(&self, page: PageId) -> StorageResult<BNode> {
        self.pool
            .with_page(page, |p| p.get(0).map(BNode::decode))??
    }

    fn write(&self, page: PageId, node: &BNode) -> StorageResult<()> {
        let bytes = node.encode();
        let ok = self.pool.with_page_mut(page, |p| p.update(0, &bytes))??;
        if !ok {
            return Err(StorageError::Corrupt(
                "b-tree node exceeded its page; capacity check missed a split".into(),
            ));
        }
        Ok(())
    }

    fn alloc(&mut self, node: &BNode) -> StorageResult<PageId> {
        let page = self.pool.allocate_page()?;
        self.pool
            .with_page_mut(page, |p| p.insert(&node.encode()))??;
        self.pages += 1;
        Ok(page)
    }

    /// Inserts `(key, row)`.
    pub fn insert(&mut self, key: &[u8], row: RowId) -> StorageResult<()> {
        if let Some((sep, right)) = self.insert_rec(self.root, key, row)? {
            // Grow the tree: new root above the old one.
            let old_root = self.root;
            let new_root = self.alloc(&BNode::Internal {
                keys: vec![sep],
                children: vec![old_root, right],
            })?;
            self.root = new_root;
        }
        self.items += 1;
        Ok(())
    }

    /// Inserts a UTF-8 string key.
    pub fn insert_str(&mut self, key: &str, row: RowId) -> StorageResult<()> {
        self.insert(key.as_bytes(), row)
    }

    fn insert_rec(
        &mut self,
        page: PageId,
        key: &[u8],
        row: RowId,
    ) -> StorageResult<Option<(Key, PageId)>> {
        let node = self.read(page)?;
        match node {
            BNode::Leaf { mut items, next } => {
                let pos = items.partition_point(|(k, _)| k.as_slice() <= key);
                items.insert(pos, (key.to_vec(), row));
                let node = BNode::Leaf { items, next };
                if node.byte_size() <= NODE_CAPACITY {
                    self.write(page, &node)?;
                    return Ok(None);
                }
                // Split the leaf in half; the right half moves to a new page.
                let BNode::Leaf { mut items, next } = node else {
                    unreachable!()
                };
                let mid = items.len() / 2;
                let right_items = items.split_off(mid);
                let sep = right_items[0].0.clone();
                let right_page = self.alloc(&BNode::Leaf {
                    items: right_items,
                    next,
                })?;
                self.write(
                    page,
                    &BNode::Leaf {
                        items,
                        next: Some(right_page),
                    },
                )?;
                Ok(Some((sep, right_page)))
            }
            BNode::Internal {
                mut keys,
                mut children,
            } => {
                let child_idx = keys.partition_point(|k| k.as_slice() <= key);
                let child = children[child_idx];
                let Some((sep, right)) = self.insert_rec(child, key, row)? else {
                    return Ok(None);
                };
                keys.insert(child_idx, sep);
                children.insert(child_idx + 1, right);
                let node = BNode::Internal { keys, children };
                if node.byte_size() <= NODE_CAPACITY {
                    self.write(page, &node)?;
                    return Ok(None);
                }
                let BNode::Internal {
                    mut keys,
                    mut children,
                } = node
                else {
                    unreachable!()
                };
                let mid = keys.len() / 2;
                let sep_up = keys[mid].clone();
                let right_keys = keys.split_off(mid + 1);
                keys.pop(); // `sep_up` moves up, not into either half.
                let right_children = children.split_off(mid + 1);
                let right_page = self.alloc(&BNode::Internal {
                    keys: right_keys,
                    children: right_children,
                })?;
                self.write(page, &BNode::Internal { keys, children })?;
                Ok(Some((sep_up, right_page)))
            }
        }
    }

    fn leaf_for(&self, key: &[u8]) -> StorageResult<PageId> {
        let mut page = self.root;
        loop {
            match self.read(page)? {
                BNode::Leaf { .. } => return Ok(page),
                BNode::Internal { keys, children } => {
                    // Strict comparison: when the search key equals a
                    // separator, duplicates may straddle the boundary, so
                    // start from the left-most candidate leaf and let the
                    // range scan walk right over the leaf chain.
                    let idx = keys.partition_point(|k| k.as_slice() < key);
                    page = children[idx];
                }
            }
        }
    }

    /// Exact-match search: all rows stored under `key`.
    pub fn search(&self, key: &[u8]) -> StorageResult<Vec<RowId>> {
        let mut rows = Vec::new();
        self.scan_range(
            key,
            |k| k == key,
            |k| k > key,
            |k, row| {
                if k == key {
                    rows.push(row);
                }
            },
        )?;
        Ok(rows)
    }

    /// Exact-match search for a string key.
    pub fn search_str(&self, key: &str) -> StorageResult<Vec<RowId>> {
        self.search(key.as_bytes())
    }

    /// Prefix search: `(key, row)` pairs whose key starts with `prefix`,
    /// answered by a range scan over the chained leaves.
    pub fn prefix_search(&self, prefix: &[u8]) -> StorageResult<Vec<(Key, RowId)>> {
        let mut out = Vec::new();
        self.scan_range(
            prefix,
            |k| k.starts_with(prefix),
            |k| !k.starts_with(prefix) && k > prefix,
            |k, row| {
                if k.starts_with(prefix) {
                    out.push((k.to_vec(), row));
                }
            },
        )?;
        Ok(out)
    }

    /// Regular-expression search with the `?` wildcard.  As in the paper, the
    /// B⁺-tree can only use the literal prefix preceding the first wildcard:
    /// it range-scans that prefix and re-checks the full pattern; a leading
    /// wildcard degenerates to a full leaf scan.
    pub fn regex_search(&self, pattern: &str) -> StorageResult<Vec<(String, RowId)>> {
        let literal_len = pattern
            .bytes()
            .position(|b| b == b'?')
            .unwrap_or(pattern.len());
        let literal = &pattern.as_bytes()[..literal_len];
        let mut out = Vec::new();
        self.scan_range(
            literal,
            |k| k.starts_with(literal),
            |k| !k.starts_with(literal) && k > literal,
            |k, row| {
                let key = String::from_utf8_lossy(k);
                if regex_matches(pattern, &key) {
                    out.push((key.into_owned(), row));
                }
            },
        )?;
        Ok(out)
    }

    /// Scans leaves starting at the one containing `start`, invoking `visit`
    /// for every item until `stop` returns true for an item's key.
    fn scan_range(
        &self,
        start: &[u8],
        _include: impl Fn(&[u8]) -> bool,
        stop: impl Fn(&[u8]) -> bool,
        mut visit: impl FnMut(&[u8], RowId),
    ) -> StorageResult<()> {
        let mut page = self.leaf_for(start)?;
        loop {
            let BNode::Leaf { items, next } = self.read(page)? else {
                return Err(StorageError::Corrupt(
                    "leaf_for returned an internal node".into(),
                ));
            };
            for (k, row) in &items {
                if stop(k.as_slice()) {
                    return Ok(());
                }
                if k.as_slice() >= start {
                    visit(k, *row);
                }
            }
            match next {
                Some(n) => page = n,
                None => return Ok(()),
            }
        }
    }

    /// Scans every leaf item in key order (used by full-scan fallbacks and
    /// tests).
    pub fn scan_all(&self, mut visit: impl FnMut(&[u8], RowId)) -> StorageResult<()> {
        // Find the leftmost leaf.
        let mut page = self.root;
        while let BNode::Internal { children, .. } = self.read(page)? {
            page = children[0];
        }
        loop {
            let BNode::Leaf { items, next } = self.read(page)? else {
                unreachable!("loop above stopped at a leaf");
            };
            for (k, row) in &items {
                visit(k, *row);
            }
            match next {
                Some(n) => page = n,
                None => return Ok(()),
            }
        }
    }

    /// Number of stored items.
    pub fn len(&self) -> u64 {
        self.items
    }

    /// True if the tree holds no items.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Size and height statistics.
    pub fn stats(&self) -> StorageResult<BTreeStats> {
        let mut height = 1;
        let mut page = self.root;
        while let BNode::Internal { children, .. } = self.read(page)? {
            height += 1;
            page = children[0];
        }
        Ok(BTreeStats {
            height,
            pages: self.pages,
            size_bytes: self.pages * spgist_storage::PAGE_SIZE as u64,
            items: self.items,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with(words: &[&str]) -> BPlusTree {
        let mut tree = BPlusTree::create(BufferPool::in_memory()).unwrap();
        for (i, w) in words.iter().enumerate() {
            tree.insert_str(w, i as RowId).unwrap();
        }
        tree
    }

    #[test]
    fn lying_lengths_are_decode_errors_not_allocations() {
        for tag in [TAG_INTERNAL, TAG_LEAF] {
            assert!(BNode::decode(&[tag, 0xFF, 0xFF, 0xFF, 0xFF]).is_err());
        }
        // No keys, then a child count that lies.
        let lying_children = [TAG_INTERNAL, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF];
        assert!(BNode::decode(&lying_children).is_err());
    }

    #[test]
    fn exact_match_on_small_tree() {
        let tree = tree_with(&["star", "space", "spade", "blue", "bit"]);
        assert_eq!(tree.search_str("space").unwrap(), vec![1]);
        assert_eq!(tree.search_str("bit").unwrap(), vec![4]);
        assert!(tree.search_str("spaces").unwrap().is_empty());
    }

    #[test]
    fn duplicate_keys_are_all_found() {
        let mut tree = BPlusTree::create(BufferPool::in_memory()).unwrap();
        for row in 0..10 {
            tree.insert_str("dup", row).unwrap();
        }
        assert_eq!(tree.search_str("dup").unwrap().len(), 10);
    }

    #[test]
    fn prefix_search_matches_scan() {
        let words = ["space", "spade", "span", "star", "take", "spa"];
        let tree = tree_with(&words);
        let hits = tree.prefix_search(b"spa").unwrap();
        let mut keys: Vec<String> = hits
            .iter()
            .map(|(k, _)| String::from_utf8(k.clone()).unwrap())
            .collect();
        keys.sort();
        assert_eq!(keys, vec!["spa", "space", "spade", "span"]);
    }

    #[test]
    fn regex_search_uses_literal_prefix_and_filters() {
        let words = ["water", "wader", "waters", "winter", "matter"];
        let tree = tree_with(&words);
        let hits: Vec<String> = tree
            .regex_search("?at?r")
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        // Leading wildcard: full scan, exact-length wildcard match
        // ("matter" has six characters, so only "water" matches).
        let mut hits = hits;
        hits.sort();
        assert_eq!(hits, vec!["water"]);
        let hits: Vec<String> = tree
            .regex_search("wa?er")
            .unwrap()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let mut hits = hits;
        hits.sort();
        assert_eq!(hits, vec!["wader", "water"]);
    }

    #[test]
    fn many_keys_split_into_multiple_levels() {
        let mut tree = BPlusTree::create(BufferPool::in_memory()).unwrap();
        let keys: Vec<String> = (0..20_000u32).map(|i| format!("key{i:06}")).collect();
        for (i, k) in keys.iter().enumerate() {
            tree.insert_str(k, i as RowId).unwrap();
        }
        let stats = tree.stats().unwrap();
        assert!(stats.height >= 2, "20k keys cannot fit in one page");
        assert!(stats.pages > 10);
        assert_eq!(stats.items, 20_000);
        // Spot-check exact matches.
        for i in (0..20_000usize).step_by(1777) {
            assert_eq!(tree.search_str(&keys[i]).unwrap(), vec![i as RowId]);
        }
        // Keys come back in sorted order from a full scan.
        let mut scanned = Vec::new();
        tree.scan_all(|k, _| scanned.push(k.to_vec())).unwrap();
        assert_eq!(scanned.len(), 20_000);
        assert!(scanned.windows(2).all(|w| w[0] <= w[1]));
        // Prefix search agrees with a filter.
        let expected = keys.iter().filter(|k| k.starts_with("key0012")).count();
        assert_eq!(tree.prefix_search(b"key0012").unwrap().len(), expected);
    }

    #[test]
    fn unsorted_inserts_still_produce_sorted_leaves() {
        let mut tree = BPlusTree::create(BufferPool::in_memory()).unwrap();
        let mut state = 1u64;
        for i in 0..5000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = format!("{:016x}", state);
            tree.insert_str(&key, i).unwrap();
        }
        let mut scanned = Vec::new();
        tree.scan_all(|k, _| scanned.push(k.to_vec())).unwrap();
        assert_eq!(scanned.len(), 5000);
        assert!(scanned.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_tree_queries() {
        let tree = BPlusTree::create(BufferPool::in_memory()).unwrap();
        assert!(tree.is_empty());
        assert!(tree.search_str("anything").unwrap().is_empty());
        assert!(tree.prefix_search(b"p").unwrap().is_empty());
        assert_eq!(tree.stats().unwrap().height, 1);
    }
}
