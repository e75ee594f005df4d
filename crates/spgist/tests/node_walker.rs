//! The node walker and the read descent built on it.
//!
//! `spgist_core::node::walk` is the one parser of the node format: the
//! search cursor, the NN iterator and delete's `locate` run the external
//! methods through it on the pinned page, one pin per same-page run.  These
//! tests hold it to the owned `Node` on every record of the five bulk-built
//! trees and of an insert-built trie with row nodes and a chained record;
//! replay the old whole-node expansion and ask the cursor and the NN
//! iterator for the same sequence; feed the walker hostile bytes; count one
//! pool request per page run; and suspend cursors mid-run while the same
//! thread rewrites the very page they were reading.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::fmt::Debug;
use std::sync::Arc;

use spgist::core::node::{walk, Part, Slots};
use spgist::core::store::node_in;
use spgist::core::{Node, NodeId, NodeStore};
use spgist::indexes::SpGistBacked;
use spgist::prelude::*;
use spgist::storage::{PageId, StorageError, StorageResult};
use spgist_datagen::rng::DetRng;
use spgist_datagen::{points, segments, words, QueryWorkload};

const SEED: u64 = 0x3a1c_0de5;

fn store_of<O: SpGistOps>(tree: &SpGistTree<O>) -> NodeStore {
    NodeStore::with_pages(Arc::clone(tree.pool()), tree.owned_pages())
}

/// Every part `walk` reports for `bytes`, rendered.
fn walked<O: SpGistOps>(bytes: &[u8], slots: &mut Slots<O>) -> StorageResult<Vec<String>> {
    let mut seen = Vec::new();
    walk::<O>(bytes, slots, |part| {
        seen.push(match part {
            Part::Leaf(len) => format!("leaf {len}"),
            Part::Inner(prefix, len) => format!("inner {prefix:?} {len}"),
            Part::Entry(idx, prefix, pred, child) => {
                format!("entry {idx} {prefix:?} {pred:?} {child:?}")
            }
            Part::Item(idx, key, row) => format!("item {idx} {:?} {row}", *key),
            Part::Rows(shift, children) => format!("rows {shift} {children:?}"),
        });
        true
    })?;
    Ok(seen)
}

/// What `walked` must report for `node`.
fn expected<O: SpGistOps>(node: &Node<O>) -> Vec<String> {
    match node {
        Node::Leaf { items } => std::iter::once(format!("leaf {}", items.len()))
            .chain(
                items
                    .iter()
                    .enumerate()
                    .map(|(idx, (key, row))| format!("item {idx} {key:?} {row}")),
            )
            .collect(),
        Node::Inner { prefix, entries } => {
            let prefix = prefix.as_ref();
            std::iter::once(format!("inner {prefix:?} {}", entries.len()))
                .chain(
                    entries.iter().enumerate().map(|(idx, e)| {
                        format!("entry {idx} {prefix:?} {:?} {:?}", e.pred, e.child)
                    }),
                )
                .collect()
        }
        Node::Rows { shift, children } => vec![format!("rows {shift} {children:?}")],
    }
}

/// Every node reachable from the root, with its encoded bytes and whether
/// its record spills across a chain.
fn records<O: SpGistOps>(tree: &SpGistTree<O>) -> Vec<(NodeId, Vec<u8>, bool)> {
    let store = store_of(tree);
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    let mut stack = Vec::from_iter(tree.root());
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        let chained = tree
            .pool()
            .with_page(id.page, |p| node_in(p, id.slot).map(|b| b.is_none()))
            .unwrap()
            .unwrap();
        let bytes = store
            .visit(id, AccessHint::Normal, |b| Ok(b.to_vec()))
            .unwrap();
        stack.extend(Node::<O>::decode(&bytes).unwrap().children());
        out.push((id, bytes, chained));
    }
    out
}

/// Node counts of one tree: (nodes, row nodes, chained records).
#[derive(Debug, Default)]
struct Census {
    nodes: usize,
    rows: usize,
    chained: usize,
}

/// The walker reports exactly what the owned node holds, on every record of
/// `tree`, with one set of slots reused across all of them; the owned node
/// re-encodes to the record byte for byte.
fn assert_walker_matches_decode<O: SpGistOps>(tree: &SpGistTree<O>) -> Census {
    let mut slots = Slots::<O>::default();
    let mut census = Census::default();
    for (id, bytes, chained) in records(tree) {
        let node = Node::<O>::decode(&bytes).unwrap();
        assert_eq!(node.encode(), bytes, "{id:?}: the owned node is its record");
        assert_eq!(
            walked(&bytes, &mut slots).unwrap(),
            expected(&node),
            "{id:?}"
        );
        census.nodes += 1;
        census.rows += usize::from(matches!(node, Node::Rows { .. }));
        census.chained += usize::from(chained);
    }
    census
}

/// A search's answer and its visit order, each visit with whether it left a
/// result pending.
type Traced<K> = (Vec<(K, RowId)>, Vec<(NodeId, bool)>);

/// The search cursor as it was before it read nodes in place: pop a node,
/// decode it whole, push its consistent children, queue its matching
/// items.
fn old_search<O: SpGistOps>(tree: &SpGistTree<O>, query: &O::Query) -> Traced<O::Key> {
    let (store, ops) = (store_of(tree), tree.ops());
    let mut out = Vec::new();
    let mut visits = Vec::new();
    let mut stack = Vec::from_iter(tree.root().map(|root| (root, 0)));
    while let Some((id, level)) = stack.pop() {
        let before = out.len();
        match store.read::<O>(id).unwrap() {
            Node::Leaf { items } => out.extend(
                items
                    .into_iter()
                    .filter(|(key, _)| ops.leaf_consistent(key, query, level)),
            ),
            Node::Rows { children, .. } => stack.extend(children.into_iter().map(|c| (c, level))),
            Node::Inner { prefix, entries } => {
                let prefix = prefix.as_ref();
                if prefix.is_none_or(|p| ops.prefix_consistent(p, query, level)) {
                    let delta = ops.descend_levels(prefix);
                    for e in &entries {
                        if ops.consistent(prefix, &e.pred, query, level) {
                            stack.push((e.child, level + delta));
                        }
                    }
                }
            }
        }
        visits.push((id, out.len() > before));
    }
    (out, visits)
}

/// Page runs of a visit order: a run ends at another page or after a visit
/// that left a result pending.
fn page_runs(visits: &[(NodeId, bool)]) -> usize {
    let breaks = visits
        .windows(2)
        .filter(|w| w[0].0.page != w[1].0.page || w[0].1)
        .count();
    usize::from(!visits.is_empty()) + breaks
}

enum Queued<K> {
    Node(NodeId, u32),
    Object(K, RowId),
}

struct Ranked<K> {
    dist: f64,
    seq: u64,
    item: Queued<K>,
}

impl<K> PartialEq for Ranked<K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<K> Eq for Ranked<K> {}
impl<K> PartialOrd for Ranked<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K> Ord for Ranked<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The NN iterator as it was: best-first over whole decoded nodes, ties
/// broken by discovery order.
fn old_nn<O: SpGistOps>(
    tree: &SpGistTree<O>,
    query: &O::Query,
    k: usize,
) -> Vec<(O::Key, RowId, f64)> {
    let (store, ops) = (store_of(tree), tree.ops());
    let mut heap = BinaryHeap::new();
    let mut seq = 0;
    let mut push = |heap: &mut BinaryHeap<_>, dist, item| {
        heap.push(Ranked { dist, seq, item });
        seq += 1;
    };
    if let Some(root) = tree.root() {
        push(&mut heap, 0.0, Queued::Node(root, 0));
    }
    let mut out = Vec::new();
    while let Some(Ranked { dist, item, .. }) = heap.pop() {
        if out.len() == k {
            break;
        }
        match item {
            Queued::Object(key, row) => out.push((key, row, dist)),
            Queued::Node(id, level) => match store.read::<O>(id).unwrap() {
                Node::Leaf { items } => {
                    for (key, row) in items {
                        let d = ops.leaf_distance(&key, query);
                        push(&mut heap, d, Queued::Object(key, row));
                    }
                }
                Node::Rows { children, .. } => {
                    for child in children {
                        push(&mut heap, dist, Queued::Node(child, level));
                    }
                }
                Node::Inner { prefix, entries } => {
                    let delta = ops.descend_levels(prefix.as_ref());
                    for e in entries {
                        let d = ops.inner_distance(prefix.as_ref(), &e.pred, query, dist, level);
                        push(&mut heap, d, Queued::Node(e.child, level + delta));
                    }
                }
            },
        }
    }
    out
}

/// The cursor and the NN iterator return exactly the old expansions'
/// sequences for every query; returns the number of results compared.
fn assert_same_answers<O>(tree: &SpGistTree<O>, queries: &[O::Query], nearest: &[O::Query]) -> usize
where
    O: SpGistOps,
    O::Key: PartialEq + Debug,
{
    let mut compared = 0;
    for query in queries {
        let (old, _) = old_search(tree, query);
        let new: Vec<_> = tree
            .search_cursor(query.clone())
            .collect::<StorageResult<_>>()
            .unwrap();
        assert_eq!(new, old);
        compared += new.len();
    }
    for query in nearest {
        let old = old_nn(tree, query, 25);
        let new: Vec<_> = tree
            .nn_iter(query.clone())
            .take(25)
            .collect::<StorageResult<_>>()
            .unwrap();
        assert_eq!(new.len(), old.len());
        for (n, o) in new.iter().zip(&old) {
            assert!(n.0 == o.0 && n.1 == o.1 && n.2 == o.2, "{n:?} vs {o:?}");
        }
        compared += new.len();
    }
    compared
}

fn bulk<I: SpIndex>(items: Vec<(I::Key, RowId)>) -> I {
    let index = I::open(BufferPool::in_memory()).unwrap();
    index.bulk_build(items).unwrap();
    index
}

fn rowed<K>(keys: impl IntoIterator<Item = K>) -> Vec<(K, RowId)> {
    keys.into_iter().zip(0..).collect()
}

#[test]
fn walker_and_cursor_agree_with_the_owned_node_on_every_bulk_built_tree() {
    let ws = words(20_000, SEED);
    let string_queries = |ws: &[String]| -> Vec<StringQuery> {
        let exact = QueryWorkload::existing(ws, 10, SEED).into_iter();
        let prefix = QueryWorkload::prefixes(ws, 10, 2, SEED);
        let regex = QueryWorkload::regexes(ws, 10, 2, SEED);
        exact
            .map(StringQuery::Equals)
            .chain(prefix.into_iter().map(StringQuery::Prefix))
            .chain(regex.into_iter().map(StringQuery::Regex))
            .collect()
    };
    let nearest_words: Vec<StringQuery> = QueryWorkload::existing(&ws, 4, SEED + 1)
        .into_iter()
        .map(StringQuery::Nearest)
        .collect();

    let trie: TrieIndex = bulk(rowed(ws.clone()));
    let tree = trie.backing();
    let census = assert_walker_matches_decode(tree);
    assert!(census.nodes > 1_000, "{census:?}");
    assert!(assert_same_answers(tree, &string_queries(&ws), &nearest_words) > 100);

    let suffix: SuffixTreeIndex = bulk(rowed(ws[..3_000].to_vec()));
    let census = assert_walker_matches_decode(suffix.backing());
    assert!(census.nodes > 1_000, "{census:?}");
    let substrings: Vec<StringQuery> = QueryWorkload::substrings(&ws[..3_000], 20, 3, SEED)
        .into_iter()
        .map(|s| suffix.translate_query(&StringQuery::Substring(s)))
        .collect();
    assert!(assert_same_answers(suffix.backing(), &substrings, &[]) > 20);

    let pts = points(20_000, SEED);
    let point_queries: Vec<PointQuery> = QueryWorkload::existing(&pts, 10, SEED)
        .into_iter()
        .map(PointQuery::Equals)
        .chain(
            QueryWorkload::windows(10, 3.0, SEED)
                .into_iter()
                .map(PointQuery::InRect),
        )
        .collect();
    let nearest_points: Vec<PointQuery> = QueryWorkload::nn_points(4, SEED)
        .into_iter()
        .map(PointQuery::Nearest)
        .collect();
    let kd: KdTreeIndex = bulk(rowed(pts.clone()));
    assert!(assert_walker_matches_decode(kd.backing()).nodes > 1_000);
    assert!(assert_same_answers(kd.backing(), &point_queries, &nearest_points) > 100);
    let pquad: PointQuadtreeIndex = bulk(rowed(pts));
    assert!(assert_walker_matches_decode(pquad.backing()).nodes > 1_000);
    assert!(assert_same_answers(pquad.backing(), &point_queries, &nearest_points) > 100);

    let segs = segments(5_000, 2.0, SEED);
    let segment_queries: Vec<SegmentQuery> = QueryWorkload::existing(&segs, 10, SEED)
        .into_iter()
        .map(SegmentQuery::Equals)
        .chain(
            QueryWorkload::windows(10, 2.0, SEED)
                .into_iter()
                .map(SegmentQuery::InRect),
        )
        .collect();
    let nearest_segments: Vec<SegmentQuery> = QueryWorkload::nn_points(4, SEED)
        .into_iter()
        .map(SegmentQuery::Nearest)
        .collect();
    let pmr: PmrQuadtreeIndex = bulk(rowed(segs));
    assert!(assert_walker_matches_decode(pmr.backing()).nodes > 1_000);
    assert!(assert_same_answers(pmr.backing(), &segment_queries, &nearest_segments) > 100);
}

#[test]
fn walker_and_cursor_agree_on_row_nodes_and_a_chained_record() {
    let trie = TrieIndex::create(BufferPool::in_memory()).unwrap();
    let ws = words(2_000, SEED);
    for (row, word) in ws.iter().enumerate() {
        trie.insert(word, row as RowId).unwrap();
    }
    // A pile under one key fans out by row id; a key longer than a page
    // spills its leaf across a record chain.
    for row in 0..400 {
        trie.insert("pile", 10_000 + row).unwrap();
    }
    let giant = "z".repeat(12_000);
    trie.insert(&giant, 99_999).unwrap();
    let tree = trie.backing();
    let census = assert_walker_matches_decode(tree);
    assert!(census.rows >= 1, "{census:?}");
    assert!(census.chained >= 1, "{census:?}");

    let queries = [
        StringQuery::Equals("pile".into()),
        StringQuery::Equals(giant.clone()),
        StringQuery::Prefix("zz".into()),
        StringQuery::Prefix("p".into()),
        StringQuery::Regex("p??e".into()),
        StringQuery::Equals(ws[17].clone()),
    ];
    let nearest = [
        StringQuery::Nearest("pile".into()),
        StringQuery::Nearest(giant[..40].to_string()),
    ];
    assert!(assert_same_answers(tree, &queries, &nearest) > 400);
    assert_eq!(
        trie.execute(&StringQuery::Equals(giant.clone())).unwrap(),
        vec![(giant.clone(), 99_999)]
    );
    // Delete's `locate` walks the same way: through the row nodes to one
    // small leaf, and into the chained leaf.
    assert!(trie.delete("pile", 10_123).unwrap());
    assert!(!trie.delete("pile", 10_123).unwrap());
    assert!(trie.delete(&giant, 99_999).unwrap());
    assert_eq!(
        trie.execute(&StringQuery::Prefix("pile".into()))
            .unwrap()
            .len(),
        399
    );
    assert!(trie
        .execute(&StringQuery::Equals(giant))
        .unwrap()
        .is_empty());
}

/// Records of a real trie: a leaf holding string keys and an inner node
/// carrying a prefix.
fn trie_records() -> (Vec<u8>, Vec<u8>) {
    // Forty words under one long prefix: their partition carries it.
    let mut ws = words(3_000, SEED);
    ws.extend((0..40).map(|i| format!("interplanetary{i:03}")));
    let trie: TrieIndex = bulk(rowed(ws));
    let all = records(trie.backing());
    let find = |want: fn(&Node<TrieOps>) -> bool| {
        all.iter()
            .map(|(_, bytes, _)| bytes.clone())
            .find(|bytes| want(&Node::decode(bytes).unwrap()))
            .expect("the trie holds such a node")
    };
    let leaf = find(|n| matches!(n, Node::Leaf { items } if items.len() > 2));
    let inner = find(|n| {
        matches!(
            n,
            Node::Inner {
                prefix: Some(_),
                ..
            }
        )
    });
    (leaf, inner)
}

/// A hostile record ends the walk in `Decode`, never a panic, and the owned
/// decoder agrees.
fn assert_rejected(bytes: &[u8], what: &str) {
    let walked = walked::<TrieOps>(bytes, &mut Slots::default());
    assert!(
        matches!(walked, Err(StorageError::Decode(_))),
        "{what}: {walked:?}"
    );
    assert!(
        matches!(Node::<TrieOps>::decode(bytes), Err(StorageError::Decode(_))),
        "{what}"
    );
}

#[test]
fn hostile_records_end_in_decode_errors_not_panics() {
    let (leaf, inner) = trie_records();
    // Layout (see `Node::encode`): tag, then a leaf's u32 item count and
    // items (u32 length, bytes, u64 row); an inner node's `Option` prefix
    // (tag byte, u32 length, bytes), u32 entry count and entries.
    for record in [&leaf, &inner] {
        walked::<TrieOps>(record, &mut Slots::default()).unwrap();
        for cut in 0..record.len() {
            assert_rejected(&record[..cut], &format!("truncated at {cut}"));
        }
        let mut unknown = record.clone();
        unknown[0] = 9;
        assert_rejected(&unknown, "unknown tag");
    }
    let mut lying = leaf.clone();
    lying[1..5].fill(0xFF);
    assert_rejected(&lying, "lying item count");
    let prefix_len = u32::from_le_bytes(inner[2..6].try_into().unwrap()) as usize;
    let mut lying = inner.clone();
    lying[6 + prefix_len..10 + prefix_len].fill(0xFF);
    assert_rejected(&lying, "lying entry count");
    let mut lying = leaf.clone();
    lying[5..9].fill(0xFF);
    assert_rejected(&lying, "lying key length");
    let mut bad_key = leaf.clone();
    bad_key[9] = 0xFF;
    assert_rejected(&bad_key, "invalid UTF-8 in a key");
    let mut bad_prefix = inner.clone();
    bad_prefix[6] = 0xFF;
    assert_rejected(&bad_prefix, "invalid UTF-8 in a prefix");
    // PR 19's inputs: a leaf and an inner node claiming 4 G members.
    assert_rejected(&[0, 0xFF, 0xFF, 0xFF, 0xFF], "leaf of 4 G items");
    assert_rejected(&[1, 0, 0xFF, 0xFF, 0xFF, 0xFF], "inner node of 4 G entries");
}

/// Runs the cursor for `query` and returns its pool requests, after
/// checking its answer against the old expansion; also returns the page
/// runs and node visits of that expansion.
fn requests_and_runs<O>(tree: &SpGistTree<O>, query: &O::Query) -> (u64, usize, usize)
where
    O: SpGistOps,
    O::Key: PartialEq + Debug,
{
    let (old, visits) = old_search(tree, query);
    let before = tree.pool().stats();
    let new: Vec<_> = tree
        .search_cursor(query.clone())
        .collect::<StorageResult<_>>()
        .unwrap();
    let requests = tree.pool().stats().delta_since(&before).logical_reads;
    assert_eq!(new, old);
    (requests, page_runs(&visits), visits.len())
}

/// One same-page run is one pool request.  `IoStats::logical_reads` counts
/// page requests, and a descent now makes one per run of nodes it expands
/// on one page (a run ends at another page or at a pending result), not
/// one per node; the expected count is derived from the visit order alone.
/// SIEVE sees the same thing: a run is one access, where before the second
/// node on a freshly installed page set its visited bit.  On `query-cold`
/// (seed 1, `--trace 1`) `buffer.physical_reads_per_op` went 3.57 → 3.48
/// with this, not up, and `buffer.logical_reads_per_op` 49.15 → 22.50.
#[test]
fn one_same_page_run_is_one_pool_request() {
    let pquad: PointQuadtreeIndex = bulk(rowed(points(30_000, SEED)));
    let ws = words(30_000, SEED);
    let trie: TrieIndex = bulk(rowed(ws.clone()));
    let (mut visits, mut runs) = (0, 0);
    for window in QueryWorkload::windows(10, 3.0, SEED) {
        let (requests, r, v) = requests_and_runs(pquad.backing(), &PointQuery::InRect(window));
        assert_eq!(requests, r as u64, "pquad window {window:?}");
        (visits, runs) = (visits + v, runs + r);
    }
    for pattern in QueryWorkload::regexes(&ws, 10, 2, SEED) {
        let (requests, r, v) = requests_and_runs(trie.backing(), &StringQuery::Regex(pattern));
        assert_eq!(requests, r as u64);
        (visits, runs) = (visits + v, runs + r);
    }
    assert!(runs * 2 < visits, "{runs} runs over {visits} visits");
}

/// Where the cursor for `query` first yields: the node holding its first
/// item, if the node the descent expands next lies on the same page — a
/// suspension in the middle of a same-page run.
fn mid_run_yield<O: SpGistOps>(tree: &SpGistTree<O>, query: &O::Query) -> Option<NodeId> {
    let (_, visits) = old_search(tree, query);
    let at = visits.iter().position(|v| v.1)?;
    let next = visits.get(at + 1)?;
    (next.0.page == visits[at].0.page).then_some(visits[at].0)
}

/// Nodes on `page` reachable from the root, with their bytes.
fn page_nodes<O: SpGistOps>(tree: &SpGistTree<O>, page: PageId) -> Vec<(NodeId, Vec<u8>)> {
    records(tree)
        .into_iter()
        .filter(|(id, _, _)| id.page == page)
        .map(|(id, bytes, _)| (id, bytes))
        .collect()
}

/// Suspends a cursor after its first item, in the middle of a same-page
/// run (the first of `queries` that does so), then — on the same thread —
/// inserts keys the query does not match (`filler(first key, i)`) until a
/// node that was on the page of that run has been split, rewritten or
/// relocated.  The cursor then finishes with its answer, and the reclaim
/// backlog drains once it is dropped.
fn suspend_mid_run_and_rewrite_the_page<I, O>(
    index: &I,
    queries: impl IntoIterator<Item = O::Query>,
    mut filler: impl FnMut(&O::Key, usize) -> O::Key,
) where
    I: SpIndex<Key = O::Key, Query = O::Query> + SpGistBacked<Ops = O>,
    O: SpGistOps,
{
    let tree = index.backing();
    let (query, node) = queries
        .into_iter()
        .find_map(|q| mid_run_yield(tree, &q).map(|node| (q, node)))
        .expect("some query suspends a same-page run");
    let mut answer = index.cursor(&query).unwrap().rows().unwrap();
    answer.sort_unstable();
    let before = page_nodes(tree, node.page);
    let image = |page| {
        tree.pool()
            .with_page(page, |p| p.as_bytes().to_vec())
            .unwrap()
    };

    let mut cursor = index.cursor(&query).unwrap();
    let (first, row) = cursor.next().unwrap().unwrap();
    let mut rows = vec![row];
    let mut inserted = 0;
    let mut seen = image(node.page);
    loop {
        assert!(inserted < 20_000, "no insert reached page {}", node.page);
        for _ in 0..10 {
            let key = filler(&first, inserted);
            index.insert(key, 1_000_000 + inserted as RowId).unwrap();
            inserted += 1;
        }
        // The page image is the cheap probe; the reachable nodes decide.
        if image(node.page) != seen {
            let now = page_nodes(tree, node.page);
            if before.iter().any(|n| !now.contains(n)) {
                break;
            }
            seen = image(node.page);
        }
    }
    rows.extend(cursor.map(|item| item.unwrap().1));
    rows.sort_unstable();
    assert_eq!(
        rows, answer,
        "the suspended cursor finishes with its answer"
    );
    index.insert(filler(&first, inserted), 2_000_000).unwrap();
    assert_eq!(tree.concurrency_stats().retired_backlog, 0);
}

#[test]
fn no_page_guard_crosses_a_yield() {
    // Point quadtree, 3×3 windows: fill the ring around the window.
    let pquad: PointQuadtreeIndex = bulk(rowed(points(20_000, SEED)));
    let windows = QueryWorkload::windows(50, 3.0, SEED);
    let mut rng = DetRng::seed_from_u64(SEED);
    suspend_mid_run_and_rewrite_the_page(
        &pquad,
        windows.iter().map(|w| PointQuery::InRect(*w)),
        |first, _| loop {
            let p = Point::new(
                first.x + rng.gen_range(-4.0..4.0),
                first.y + rng.gen_range(-4.0..4.0),
            );
            if !windows.iter().any(|w| w.contains_point(&p)) {
                return p;
            }
        },
    );

    // Trie, `?=` patterns: words extending the first match follow its path
    // but never match the fixed-length pattern.
    let ws = words(20_000, SEED);
    let trie: TrieIndex = bulk(rowed(ws.clone()));
    suspend_mid_run_and_rewrite_the_page(
        &trie,
        QueryWorkload::regexes(&ws, 50, 2, SEED)
            .into_iter()
            .map(StringQuery::Regex),
        |first, i| format!("{first}{}", char::from(b'a' + (i % 26) as u8)).repeat(1 + i / 26),
    );
}
