//! Incremental nearest-neighbour search (paper Section 5).
//!
//! The algorithm is the priority-queue best-first search of Hjaltason and
//! Samet, generalized — as the paper describes — so that instantiations whose
//! distance converges slowly (the trie with a Hamming-style distance) can
//! propagate the parent's minimum distance down to its children: each queue
//! entry for an index node carries the lower bound established for that node,
//! and [`crate::ops::SpGistOps::inner_distance`] receives it when computing
//! the children's bounds.
//!
//! The iterator is incremental: every call to `next()` performs just enough
//! work to report the next-closest item, so it can drive a query pipeline
//! (`get-next`) exactly as in the paper.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use spgist_storage::{AccessHint, EpochPin, StorageResult};

use crate::node::{walk, NodeId, Part, Slots};
use crate::ops::SpGistOps;
use crate::tree::SpGistTree;
use crate::RowId;

enum QueueItem<O: SpGistOps> {
    /// An index node still to be expanded, with its level.
    Node(NodeId, u32),
    /// A database object ready to be reported.
    Object(O::Key, RowId),
}

struct QueueEntry<O: SpGistOps> {
    /// Lower bound on the distance from the query to anything below this
    /// entry (exact distance for objects).
    dist: f64,
    /// Tie-breaker keeping the heap deterministic.
    seq: u64,
    item: QueueItem<O>,
}

impl<O: SpGistOps> PartialEq for QueueEntry<O> {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.seq == other.seq
    }
}
impl<O: SpGistOps> Eq for QueueEntry<O> {}

impl<O: SpGistOps> Ord for QueueEntry<O> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest distance pops first.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<O: SpGistOps> PartialOrd for QueueEntry<O> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The priority queue of the search: nearest first, ties in the order they
/// were discovered.
struct Queue<O: SpGistOps> {
    heap: BinaryHeap<QueueEntry<O>>,
    seq: u64,
}

impl<O: SpGistOps> Queue<O> {
    fn push(&mut self, dist: f64, item: QueueItem<O>) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(QueueEntry { dist, seq, item });
    }
}

/// Incremental nearest-neighbour iterator over an [`SpGistTree`].
///
/// Yields `(key, row, distance)` triples in non-decreasing distance order.
/// After the first error the iterator is exhausted.
///
/// Like [`crate::tree::SearchCursor`], the iterator is generic over how it
/// holds the tree: a plain `&SpGistTree` borrows, while an owning handle
/// (an `Arc`) lets the iterator outlive the borrow.  Either way it takes no
/// latch — it pins a reclamation epoch at creation, so concurrent writers
/// proceed while everything it can reach stays readable.
pub struct NnIter<T, O>
where
    T: std::ops::Deref<Target = SpGistTree<O>>,
    O: SpGistOps,
{
    tree: T,
    query: O::Query,
    queue: Queue<O>,
    /// Hint attached to every page fetch this iterator makes.
    hint: AccessHint,
    /// Decode targets reused by every node the iterator expands.
    slots: Slots<O>,
    /// Keeps every record reachable from the captured root readable for the
    /// iterator's lifetime.
    _pin: EpochPin,
}

impl<T, O> NnIter<T, O>
where
    T: std::ops::Deref<Target = SpGistTree<O>>,
    O: SpGistOps,
{
    /// Builds the iterator from any owned or borrowed handle on a tree.
    /// The iterator pins a reclamation epoch (never a latch) for its
    /// lifetime.
    pub fn over(tree: T, query: O::Query) -> Self {
        // Pin first, then capture the root, so records retired afterwards
        // stay readable for this iterator.
        let pin = tree.store().pin();
        let mut queue = Queue {
            heap: BinaryHeap::new(),
            seq: 0,
        };
        if let Some(root) = tree.root() {
            // "Insert the root node into the priority queue with minimum
            // distance 0" (paper Figure 5).
            queue.push(0.0, QueueItem::Node(root, 0));
        }
        NnIter {
            tree,
            query,
            queue,
            hint: AccessHint::Normal,
            slots: Slots::default(),
            _pin: pin,
        }
    }

    /// Attaches an [`AccessHint`] to every page fetch (see
    /// [`crate::tree::SearchCursor::with_hint`]): keep the default
    /// [`AccessHint::Normal`] for ordinary k-NN queries, pass
    /// [`AccessHint::Scan`] when draining most of the index in distance
    /// order.
    pub fn with_hint(mut self, hint: AccessHint) -> Self {
        self.hint = hint;
        self
    }

    /// Queues every child or item of node `id` with its distance bound,
    /// walking the node in place on its page.
    fn expand(&mut self, id: NodeId, level: u32, parent_dist: f64) -> StorageResult<()> {
        let (ops, query, queue) = (self.tree.ops_ref(), &self.query, &mut self.queue);
        let mut delta = 0;
        self.tree.store().visit(id, self.hint, |bytes| {
            walk(bytes, &mut self.slots, |part| {
                match part {
                    Part::Inner(prefix, _) => delta = ops.descend_levels(prefix),
                    Part::Entry(_, prefix, pred, child) => queue.push(
                        ops.inner_distance(prefix, pred, query, parent_dist, level),
                        QueueItem::Node(child, level + delta),
                    ),
                    Part::Item(_, key, row) => {
                        let dist = ops.leaf_distance(&key, query);
                        queue.push(dist, QueueItem::Object(key.take(), row))
                    }
                    // Rows say nothing about distance: every child inherits
                    // the node's bound.
                    Part::Rows(_, children) => {
                        for &child in children {
                            queue.push(parent_dist, QueueItem::Node(child, level));
                        }
                    }
                    Part::Leaf(_) => {}
                }
                true
            })
        })
    }
}

impl<T, O> Iterator for NnIter<T, O>
where
    T: std::ops::Deref<Target = SpGistTree<O>>,
    O: SpGistOps,
{
    type Item = StorageResult<(O::Key, RowId, f64)>;

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(entry) = self.queue.heap.pop() {
            match entry.item {
                QueueItem::Object(key, row) => return Some(Ok((key, row, entry.dist))),
                QueueItem::Node(id, level) => {
                    if let Err(e) = self.expand(id, level, entry.dist) {
                        // A node that failed half-walked queued only part of
                        // itself: no later distance order can be trusted.
                        self.queue.heap.clear();
                        return Some(Err(e));
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::DigitTrieOps;
    use spgist_storage::BufferPool;

    fn tree_with(keys: &[u32]) -> SpGistTree<DigitTrieOps> {
        let tree = SpGistTree::create(BufferPool::in_memory(), DigitTrieOps::default()).unwrap();
        for &k in keys {
            tree.insert(k, u64::from(k)).unwrap();
        }
        tree
    }

    #[test]
    fn empty_tree_yields_nothing() {
        let tree = tree_with(&[]);
        assert_eq!(tree.nn_iter(5).count(), 0);
    }

    #[test]
    fn yields_every_item_exactly_once_in_distance_order() {
        let keys: Vec<u32> = (0..300).map(|i| i * 7).collect();
        let tree = tree_with(&keys);
        let all: Vec<(u32, u64, f64)> = tree
            .nn_iter(1000)
            .collect::<StorageResult<Vec<_>>>()
            .unwrap();
        assert_eq!(all.len(), keys.len());
        // Non-decreasing distances.
        assert!(all.windows(2).all(|w| w[0].2 <= w[1].2));
        // Exactly the inserted keys, each once.
        let mut seen: Vec<u32> = all.iter().map(|(k, _, _)| *k).collect();
        seen.sort_unstable();
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }

    #[test]
    fn incremental_prefix_matches_full_ordering() {
        let keys: Vec<u32> = (0..200).collect();
        let tree = tree_with(&keys);
        let first_five = tree.nn_search(42, 5).unwrap();
        let keys_five: Vec<u32> = first_five.iter().map(|(k, _, _)| *k).collect();
        assert_eq!(keys_five[0], 42);
        // All of the five closest keys lie within distance 2 of 42.
        assert!(first_five.iter().all(|(_, _, d)| *d <= 2.0));
    }
}
